//! `TileSource::strip` against `TileSource::tile`: every source that
//! overrides the strip call must return exactly the stacked tiles, and the
//! same strip as the default implementation, which copies `tile()` into
//! place.

use proptest::prelude::*;
use std::ops::Range;
use zonal_histo::bqtree::compress_source;
use zonal_histo::raster::srtm::SyntheticSrtm;
use zonal_histo::raster::{GeoTransform, Raster, TileData, TileGrid, TileSource, NODATA};

/// A source that keeps the default `strip`.
struct TilesOnly<'a>(&'a dyn TileSource);

impl TileSource for TilesOnly<'_> {
    fn grid(&self) -> &TileGrid {
        self.0.grid()
    }

    fn tile(&self, tx: usize, ty: usize) -> TileData {
        self.0.tile(tx, ty)
    }
}

/// `src.strip(tile_rows)` holds the tiles of those rows in tile-id order,
/// each equal to `src.tile()`, and equals the default strip.
fn check_strip(src: &dyn TileSource, tile_rows: Range<usize>) {
    let grid = src.grid();
    let strip = src.strip(tile_rows.clone());
    assert_eq!(strip.len(), tile_rows.len() * grid.tiles_x());
    let mut cells = 0;
    for (b, view) in strip.tiles().enumerate() {
        let (tx, ty) = (b % grid.tiles_x(), tile_rows.start + b / grid.tiles_x());
        assert_eq!(view, src.tile(tx, ty).view(), "tile ({tx}, {ty})");
        cells += view.values.len();
    }
    assert_eq!(strip.n_cells(), cells);
    assert_eq!(strip, TilesOnly(src).strip(tile_rows));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random grids with ragged edge tiles and random bands of 0 to 5 tile
    /// rows, clipped at the last tile row so partial final bands occur:
    /// in-memory rasters (with no-data cells), their BQ-Tree encoding and
    /// the synthetic terrain all return the stacked tiles.
    #[test]
    fn strips_equal_stacked_tiles(
        seed in any::<u64>(),
        shape in (1usize..50, 1usize..50, 1usize..20),
        band in (0usize..64, 0usize..6),
    ) {
        let (rows, cols, tile_cells) = shape;
        let (start, len) = band;
        let gt = GeoTransform::new(-100.0, 35.0, 0.01, 0.01);
        let grid = TileGrid::new(rows, cols, tile_cells, gt);
        let ty0 = start % grid.tiles_y();
        let tile_rows = ty0..(ty0 + len).min(grid.tiles_y());
        let raster = Raster::from_fn(rows, cols, gt, |r, c| {
            let h = (seed ^ (r * 7919 + c) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48;
            if h.is_multiple_of(11) { NODATA } else { h as u16 }
        });
        let tiles = raster.tile_source(&grid);
        check_strip(&tiles, tile_rows.clone());
        check_strip(&compress_source(&tiles), tile_rows.clone());
        check_strip(&SyntheticSrtm::new(grid.clone(), seed), tile_rows);
    }
}
