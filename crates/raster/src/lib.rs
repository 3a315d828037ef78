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

    /// Bytes that had to be moved/decoded to produce one tile — the unit
    /// Step 0's cost accounting uses. Defaults to raw size.
    fn tile_encoded_bytes(&self, tx: usize, ty: usize) -> usize {
        let (rows, cols) = self.grid().tile_shape(tx, ty);
        rows * cols * 2
    }
}
