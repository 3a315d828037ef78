//! Dense in-memory rasters.

use crate::geotransform::GeoTransform;
use crate::tile::TileGrid;
use crate::{TileData, TileSource, TileStrip};
use zonal_geo::Mbr;

/// A dense row-major raster of `u16` cells (the SRTM DEM cell type).
///
/// Used for small/medium workloads and as the reference representation the
/// BQ-Tree codec round-trips against; large workloads stream tiles from a
/// generator instead of materializing one of these.
#[derive(Debug, Clone, PartialEq)]
pub struct Raster {
    rows: usize,
    cols: usize,
    data: Vec<u16>,
    transform: GeoTransform,
    nodata: Option<u16>,
}

impl Raster {
    /// Build from parts. `data` must have `rows * cols` entries.
    pub fn new(
        rows: usize,
        cols: usize,
        data: Vec<u16>,
        transform: GeoTransform,
        nodata: Option<u16>,
    ) -> Self {
        assert_eq!(data.len(), rows * cols, "raster shape mismatch");
        Raster {
            rows,
            cols,
            data,
            transform,
            nodata,
        }
    }

    /// A raster filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: u16, transform: GeoTransform) -> Self {
        Raster::new(rows, cols, vec![value; rows * cols], transform, None)
    }

    /// Build by evaluating `f(row, col)` for every cell.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        transform: GeoTransform,
        mut f: impl FnMut(usize, usize) -> u16,
    ) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Raster::new(rows, cols, data, transform, None)
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn data(&self) -> &[u16] {
        &self.data
    }

    #[inline]
    pub fn transform(&self) -> &GeoTransform {
        &self.transform
    }

    #[inline]
    pub fn nodata(&self) -> Option<u16> {
        self.nodata
    }

    pub fn with_nodata(mut self, nodata: u16) -> Self {
        self.nodata = Some(nodata);
        self
    }

    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u16 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: u16) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = v;
    }

    /// True when the cell holds the no-data marker.
    #[inline]
    pub fn is_nodata(&self, row: usize, col: usize) -> bool {
        self.nodata == Some(self.get(row, col))
    }

    /// World-space extent.
    pub fn extent(&self) -> Mbr {
        self.transform.extent(self.rows, self.cols)
    }

    /// Min and max over valid (non-nodata) cells; `None` when all nodata.
    pub fn value_range(&self) -> Option<(u16, u16)> {
        let mut range: Option<(u16, u16)> = None;
        for &v in &self.data {
            if self.nodata == Some(v) {
                continue;
            }
            range = Some(match range {
                None => (v, v),
                Some((lo, hi)) => (lo.min(v), hi.max(v)),
            });
        }
        range
    }

    /// Copy out a rectangular block (used by tiling and partitioning).
    pub fn block(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> TileData {
        assert!(
            row0 + rows <= self.rows && col0 + cols <= self.cols,
            "block out of range"
        );
        let mut values = Vec::with_capacity(rows * cols);
        for r in row0..row0 + rows {
            let start = r * self.cols + col0;
            values.extend_from_slice(&self.data[start..start + cols]);
        }
        TileData::new(values, rows, cols)
    }

    /// View this raster as a [`TileSource`] over `grid`. The grid must have
    /// been built over this raster's shape.
    pub fn tile_source<'a>(&'a self, grid: &'a TileGrid) -> RasterTiles<'a> {
        assert_eq!(grid.raster_rows(), self.rows, "grid rows mismatch");
        assert_eq!(grid.raster_cols(), self.cols, "grid cols mismatch");
        RasterTiles { raster: self, grid }
    }
}

/// [`TileSource`] adapter over an in-memory [`Raster`].
pub struct RasterTiles<'a> {
    raster: &'a Raster,
    grid: &'a TileGrid,
}

impl TileSource for RasterTiles<'_> {
    fn grid(&self) -> &TileGrid {
        self.grid
    }

    fn tile(&self, tx: usize, ty: usize) -> TileData {
        let (row0, col0) = self.grid.tile_origin_cell(tx, ty);
        let (rows, cols) = self.grid.tile_shape(tx, ty);
        self.raster.block(row0, col0, rows, cols)
    }

    /// Each raster row of the strip pasted into the tiles it crosses.
    fn strip(&self, tile_rows: std::ops::Range<usize>) -> TileStrip {
        let row0 = tile_rows.start * self.grid.tile_cells();
        let mut strip = TileStrip::zeroed(self.grid, tile_rows);
        let rows = self.raster.data[row0 * self.raster.cols..].chunks_exact(self.raster.cols);
        for (dr, row) in rows.take(strip.cell_rows()).enumerate() {
            strip.paste_row(dr, row);
        }
        strip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gt() -> GeoTransform {
        GeoTransform::new(0.0, 0.0, 0.1, 0.1)
    }

    #[test]
    fn from_fn_and_get() {
        let r = Raster::from_fn(3, 4, gt(), |row, col| (row * 10 + col) as u16);
        assert_eq!(r.get(0, 0), 0);
        assert_eq!(r.get(2, 3), 23);
        assert_eq!(r.len(), 12);
    }

    #[test]
    fn set_and_range() {
        let mut r = Raster::filled(2, 2, 5, gt());
        r.set(1, 1, 42);
        assert_eq!(r.value_range(), Some((5, 42)));
    }

    #[test]
    fn nodata_excluded_from_range() {
        let mut r = Raster::filled(2, 2, 100, gt()).with_nodata(u16::MAX);
        r.set(0, 0, u16::MAX);
        r.set(1, 0, 7);
        assert!(r.is_nodata(0, 0));
        assert!(!r.is_nodata(1, 0));
        assert_eq!(r.value_range(), Some((7, 100)));
        let all_nd = Raster::filled(1, 2, 9, gt()).with_nodata(9);
        assert_eq!(all_nd.value_range(), None);
    }

    #[test]
    fn block_extraction() {
        let r = Raster::from_fn(4, 5, gt(), |row, col| (row * 5 + col) as u16);
        let b = r.block(1, 2, 2, 3);
        assert_eq!(b.rows, 2);
        assert_eq!(b.cols, 3);
        assert_eq!(b.values, vec![7, 8, 9, 12, 13, 14]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_out_of_range_panics() {
        let r = Raster::filled(2, 2, 0, gt());
        let _ = r.block(1, 1, 2, 2);
    }

    #[test]
    fn extent_matches_transform() {
        let r = Raster::filled(10, 20, 0, gt());
        let e = r.extent();
        assert!((e.max_x - 2.0).abs() < 1e-12);
        assert!((e.max_y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tile_source_covers_raster() {
        let r = Raster::from_fn(7, 9, gt(), |row, col| (row * 9 + col) as u16);
        let grid = TileGrid::new(7, 9, 4, *r.transform());
        let src = r.tile_source(&grid);
        // Reassemble all tiles and verify every cell appears exactly once.
        let mut seen = [false; 63];
        for ty in 0..grid.tiles_y() {
            for tx in 0..grid.tiles_x() {
                let t = src.tile(tx, ty);
                let (row0, col0) = grid.tile_origin_cell(tx, ty);
                for dr in 0..t.rows {
                    for dc in 0..t.cols {
                        let v = t.get(dr, dc) as usize;
                        assert_eq!(v, (row0 + dr) * 9 + (col0 + dc));
                        assert!(!seen[v], "cell {v} produced twice");
                        seen[v] = true;
                    }
                }
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "every cell must appear in some tile"
        );
    }
}
