//! Raster substrate for zonal histogramming.
//!
//! Provides everything the pipeline needs on the raster side of the paper:
//!
//! * [`GeoTransform`] — world ↔ cell coordinate mapping for geographic
//!   (lon/lat degree) rasters;
//! * [`Raster`] — a dense 2-D grid with no-data handling;
//! * [`tile::TileGrid`] — the fixed-degree tiling (0.1° in the paper) that
//!   doubles as the implicit grid-file spatial index of Step 2;
//! * [`srtm`] — a deterministic synthetic SRTM-like DEM (fractional Brownian
//!   motion terrain with an ocean mask) plus the Table 1 raster catalog and
//!   its 36-partition schema;
//! * [`partition`] — splitting catalog rasters into the sub-rasters that the
//!   cluster experiment distributes over nodes.
//!
//! Cell convention: row 0 is the **southernmost** row; cell `(row, col)`
//! covers the half-open box `[x0 + col·sx, x0 + (col+1)·sx) ×
//! [y0 + row·sy, y0 + (row+1)·sy)` and its representative point for
//! point-in-polygon testing is the cell center, as in the paper.

pub mod geotransform;
pub mod io;
pub mod partition;
pub mod raster;
pub mod srtm;
pub mod tile;

pub use geotransform::GeoTransform;
pub use raster::Raster;
pub use srtm::{SrtmCatalog, SyntheticSrtm, NODATA};
pub use tile::{Tile, TileGrid};

/// A rectangular block of raster cells in memory, row-major, as handed to
/// the per-tile histogramming kernel (Step 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileData {
    /// Cell values, row-major, `rows * cols` entries.
    pub values: Vec<u16>,
    pub rows: usize,
    pub cols: usize,
}

impl TileData {
    pub fn new(values: Vec<u16>, rows: usize, cols: usize) -> Self {
        assert_eq!(values.len(), rows * cols, "tile data shape mismatch");
        TileData { values, rows, cols }
    }

    /// Tile filled with a constant value.
    pub fn filled(value: u16, rows: usize, cols: usize) -> Self {
        TileData {
            values: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u16 {
        debug_assert!(row < self.rows && col < self.cols);
        self.values[row * self.cols + col]
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The tile as a borrowed [`TileView`].
    #[inline]
    pub fn view(&self) -> TileView<'_> {
        TileView {
            values: &self.values,
            rows: self.rows,
            cols: self.cols,
        }
    }
}

/// A borrowed tile: `rows * cols` cell values, row-major. What Steps 1
/// and 4 read, whether the cells live in a [`TileData`] or a segment of a
/// [`TileStrip`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileView<'a> {
    pub values: &'a [u16],
    pub rows: usize,
    pub cols: usize,
}

impl TileView<'_> {
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u16 {
        debug_assert!(row < self.rows && col < self.cols);
        self.values[row * self.cols + col]
    }
}

/// Every tile of a band of whole tile rows in one buffer: tile-major in
/// tile-id order, each tile's cells contiguous and row-major, so tile `b`
/// of the strip reads exactly like a [`TileData`] of its shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileStrip {
    cells: Vec<u16>,
    /// Start of each tile's cells in `cells`, plus the end as a last entry.
    starts: Vec<usize>,
    /// Cell rows of each tile row of the strip.
    rows: Vec<usize>,
    /// Cell columns of each tile column.
    cols: Vec<usize>,
    tile_cells: usize,
}

impl TileStrip {
    /// The zero-filled strip of tile rows `tile_rows` of `grid`.
    pub fn zeroed(grid: &TileGrid, tile_rows: std::ops::Range<usize>) -> Self {
        assert!(
            tile_rows.start <= tile_rows.end && tile_rows.end <= grid.tiles_y(),
            "tile rows {tile_rows:?} outside a grid of {} tile rows",
            grid.tiles_y()
        );
        let rows: Vec<usize> = tile_rows
            .clone()
            .map(|ty| grid.tile_shape(0, ty).0)
            .collect();
        let cols: Vec<usize> = (0..grid.tiles_x())
            .map(|tx| grid.tile_shape(tx, 0).1)
            .collect();
        let mut starts = Vec::with_capacity(rows.len() * cols.len() + 1);
        let mut at = 0;
        for &r in &rows {
            for &c in &cols {
                starts.push(at);
                at += r * c;
            }
        }
        starts.push(at);
        TileStrip {
            cells: vec![0; at],
            starts,
            rows,
            cols,
            tile_cells: grid.tile_cells(),
        }
    }

    /// Tiles in the strip.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cells in the strip, over all its tiles.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Cell rows the strip covers, from its first cell row.
    #[inline]
    pub fn cell_rows(&self) -> usize {
        self.rows.iter().sum()
    }

    /// `(rows, cols)` of the strip's tile `b`.
    #[inline]
    fn shape(&self, b: usize) -> (usize, usize) {
        let x = self.cols.len();
        (self.rows[b / x], self.cols[b % x])
    }

    /// The strip's tile `b` (tile-id order from its first tile).
    #[inline]
    fn tile(&self, b: usize) -> TileView<'_> {
        let (rows, cols) = self.shape(b);
        TileView {
            values: &self.cells[self.starts[b]..self.starts[b + 1]],
            rows,
            cols,
        }
    }

    /// Every tile of the strip, in tile-id order.
    pub fn tiles(&self) -> impl ExactSizeIterator<Item = TileView<'_>> + '_ {
        (0..self.len()).map(|b| self.tile(b))
    }

    /// The cells of the strip's tile `b`, to be filled.
    #[inline]
    pub fn tile_mut(&mut self, b: usize) -> &mut [u16] {
        &mut self.cells[self.starts[b]..self.starts[b + 1]]
    }

    /// Paste `row`, the strip's `dr`-th cell row across the whole raster
    /// width, into the segments of the tiles it crosses.
    pub fn paste_row(&mut self, dr: usize, row: &[u16]) {
        let (ty, tr) = (dr / self.tile_cells, dr % self.tile_cells);
        assert!(ty < self.rows.len(), "cell row {dr} outside the strip");
        debug_assert_eq!(row.len(), self.cols.iter().sum::<usize>(), "one raster row");
        let x = self.cols.len();
        for (tx, (src, &cols)) in row.chunks(self.tile_cells).zip(&self.cols).enumerate() {
            let at = self.starts[ty * x + tx] + tr * cols;
            self.cells[at..at + cols].copy_from_slice(src);
        }
    }
}

/// Source of raster tiles for the pipeline.
///
/// The pipeline never materializes a whole catalog raster; it pulls tiles
/// through this trait. Implementations include in-memory rasters
/// ([`Raster::tile_source`]), the synthetic SRTM generator
/// ([`srtm::SyntheticSrtm`]), and BQ-Tree-compressed storage (in the
/// `zonal-bqtree` crate), whose decode cost is the pipeline's Step 0.
pub trait TileSource: Sync {
    /// The tile grid this source serves.
    fn grid(&self) -> &TileGrid;

    /// Produce the cell block for tile `(tx, ty)` of the grid.
    fn tile(&self, tx: usize, ty: usize) -> TileData;

    /// Produce every tile of the tile rows `tile_rows` in one
    /// [`TileStrip`]: what the pipeline's Step 0 asks for. The default
    /// copies each [`TileSource::tile`] into place; sources that can share
    /// work across a strip's tiles override it, and must return exactly
    /// the stacked tiles.
    fn strip(&self, tile_rows: std::ops::Range<usize>) -> TileStrip {
        let tiles_x = self.grid().tiles_x();
        let ty0 = tile_rows.start;
        let mut strip = TileStrip::zeroed(self.grid(), tile_rows);
        for b in 0..strip.len() {
            let tile = self.tile(b % tiles_x, ty0 + b / tiles_x);
            strip.tile_mut(b).copy_from_slice(&tile.values);
        }
        strip
    }

    /// Bytes that had to be moved/decoded to produce one tile — the unit
    /// Step 0's cost accounting uses. Defaults to raw size.
    fn tile_encoded_bytes(&self, tx: usize, ty: usize) -> usize {
        let (rows, cols) = self.grid().tile_shape(tx, ty);
        rows * cols * 2
    }
}
