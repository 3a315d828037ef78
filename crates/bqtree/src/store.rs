//! Compressed raster storage: a [`TileSource`] that decodes on demand.

use crate::codec::{decode_tile, decode_tile_into, encode_tile};
use bytes::Bytes;
use std::ops::Range;
use zonal_raster::{TileData, TileGrid, TileSource, TileStrip};

/// Aggregate compression bookkeeping (the §IV.B claim: 40 GB → 7.3 GB,
/// ~18% of raw).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionStats {
    pub raw_bytes: u64,
    pub encoded_bytes: u64,
    pub n_tiles: u64,
}

impl CompressionStats {
    /// Encoded size as a fraction of raw size.
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            return 0.0;
        }
        self.encoded_bytes as f64 / self.raw_bytes as f64
    }
}

/// A BQ-Tree-compressed raster: one encoded buffer per tile of a
/// [`TileGrid`]. Decoding happens in [`TileSource::strip`] (and
/// [`TileSource::tile`]), which is exactly the paper's Step 0.
pub struct BqRaster {
    grid: TileGrid,
    tiles: Vec<Bytes>,
    stats: CompressionStats,
}

impl BqRaster {
    pub fn stats(&self) -> CompressionStats {
        self.stats
    }

    /// The tile grid (also available through [`TileSource::grid`]).
    pub fn grid_ref(&self) -> &TileGrid {
        &self.grid
    }

    /// Reassemble from a grid and per-tile bitstreams (the file reader's
    /// entry point). Validates that each blob's header matches the grid's
    /// tile shape, without decoding payloads.
    pub fn from_parts(grid: TileGrid, tiles: Vec<Bytes>) -> Result<BqRaster, String> {
        if tiles.len() != grid.n_tiles() {
            return Err(format!(
                "expected {} tile blobs, got {}",
                grid.n_tiles(),
                tiles.len()
            ));
        }
        for (id, blob) in tiles.iter().enumerate() {
            if blob.len() < 4 {
                return Err(format!("tile {id}: blob shorter than its header"));
            }
            let rows = u16::from_be_bytes([blob[0], blob[1]]) as usize;
            let cols = u16::from_be_bytes([blob[2], blob[3]]) as usize;
            let (tx, ty) = grid.tile_pos(id);
            if (rows, cols) != grid.tile_shape(tx, ty) {
                return Err(format!(
                    "tile {id}: header {rows}x{cols} does not match grid {:?}",
                    grid.tile_shape(tx, ty)
                ));
            }
        }
        let raw_bytes: u64 = grid.iter().map(|t| (t.rows * t.cols * 2) as u64).sum();
        let encoded_bytes: u64 = tiles.iter().map(|b| b.len() as u64).sum();
        let n_tiles = tiles.len() as u64;
        Ok(BqRaster {
            grid,
            tiles,
            stats: CompressionStats {
                raw_bytes,
                encoded_bytes,
                n_tiles,
            },
        })
    }

    /// Encoded bytes of tile `(tx, ty)` without decoding it.
    pub fn encoded_tile(&self, tx: usize, ty: usize) -> &Bytes {
        &self.tiles[self.grid.tile_id(tx, ty)]
    }
}

impl TileSource for BqRaster {
    fn grid(&self) -> &TileGrid {
        &self.grid
    }

    fn tile(&self, tx: usize, ty: usize) -> TileData {
        decode_tile(self.encoded_tile(tx, ty))
    }

    /// Each tile decoded into its segment of one strip buffer.
    fn strip(&self, tile_rows: Range<usize>) -> TileStrip {
        let first = tile_rows.start * self.grid.tiles_x();
        let mut strip = TileStrip::zeroed(&self.grid, tile_rows);
        for (b, blob) in self.tiles[first..first + strip.len()].iter().enumerate() {
            decode_tile_into(blob, strip.tile_mut(b));
        }
        strip
    }

    fn tile_encoded_bytes(&self, tx: usize, ty: usize) -> usize {
        self.encoded_tile(tx, ty).len()
    }
}

/// Compress every tile of `src` (tile by tile: encoding is embarrassingly
/// tile-parallel, like the paper's GPU encoder).
pub fn compress_source(src: &impl TileSource) -> BqRaster {
    let grid = src.grid().clone();
    let n = grid.n_tiles();
    let tiles: Vec<Bytes> = (0..n)
        .map(|id| {
            let (tx, ty) = grid.tile_pos(id);
            encode_tile(&src.tile(tx, ty))
        })
        .collect();
    let raw_bytes: u64 = grid.iter().map(|t| (t.rows * t.cols * 2) as u64).sum();
    let encoded_bytes: u64 = tiles.iter().map(|b| b.len() as u64).sum();
    let stats = CompressionStats {
        raw_bytes,
        encoded_bytes,
        n_tiles: n as u64,
    };
    BqRaster { grid, tiles, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_raster::srtm::SyntheticSrtm;
    use zonal_raster::{GeoTransform, Raster};

    fn grid(rows: usize, cols: usize, tile: usize) -> TileGrid {
        TileGrid::new(
            rows,
            cols,
            tile,
            GeoTransform::new(-100.0, 35.0, 0.01, 0.01),
        )
    }

    #[test]
    fn roundtrip_through_store() {
        let g = grid(50, 70, 16);
        let raster = Raster::from_fn(50, 70, *g.transform(), |r, c| {
            ((r * 7 + c * 3) % 997) as u16
        });
        let bq = compress_source(&raster.tile_source(&g));
        for t in g.iter() {
            let dec = bq.tile(t.tx, t.ty);
            let orig = raster.tile_source(&g).tile(t.tx, t.ty);
            assert_eq!(dec, orig, "tile ({},{})", t.tx, t.ty);
        }
        assert_eq!(bq.stats().n_tiles, g.n_tiles() as u64);
        assert_eq!(bq.stats().raw_bytes, 50 * 70 * 2);
    }

    #[test]
    fn srtm_like_data_compresses_substantially() {
        // The headline §IV.B claim at small scale: DEM-like data lands well
        // below raw size (the paper reports ~18%).
        let g = grid(128, 128, 32);
        let src = SyntheticSrtm::new(g.clone(), 42);
        let bq = compress_source(&src);
        let ratio = bq.stats().ratio();
        assert!(
            ratio < 0.5,
            "synthetic SRTM should compress below 50% of raw, got {ratio:.3}"
        );
        // And still round-trip exactly.
        for t in g.iter().take(4) {
            assert_eq!(bq.tile(t.tx, t.ty), src.tile(t.tx, t.ty));
        }
    }

    #[test]
    fn encoded_bytes_reported_per_tile() {
        let g = grid(32, 32, 16);
        let raster = Raster::filled(32, 32, 7, *g.transform());
        let bq = compress_source(&raster.tile_source(&g));
        for t in g.iter() {
            assert_eq!(
                bq.tile_encoded_bytes(t.tx, t.ty),
                bq.encoded_tile(t.tx, t.ty).len()
            );
            // Power-of-two constant tiles: 4-byte header + 4 bytes of codes.
            assert_eq!(bq.tile_encoded_bytes(t.tx, t.ty), 8);
        }
        let s = bq.stats();
        assert_eq!(s.encoded_bytes, 8 * g.n_tiles() as u64);
        assert!(s.ratio() < 0.05);
    }
}
