//! Shared experiment harness for the `tables` binary.
//!
//! Every experiment is parameterized by a linear **scale** — the raster's
//! `cells_per_degree` (the paper's SRTM data is 3600). The polygon layer,
//! tile grid (0.1°), bin count (5000) and partition schema are held at the
//! paper's values, so per-cell work shrinks by `(3600 / cpd)²` while the
//! geometric structure is unchanged; full-scale figures are obtained by
//! scaling the counted per-cell work back up (see
//! `zonal_core::timing::StepTiming`).

use zonal_bqtree::{compress_source, BqRaster};
use zonal_core::pipeline::Zones;
use zonal_core::PipelineConfig;
use zonal_gpusim::DeviceSpec;
use zonal_raster::partition::Partition;
use zonal_raster::srtm::{SrtmCatalog, SyntheticSrtm};

/// Default terrain / layer seed for all experiments (reproducible).
pub const SEED: u64 = 20140519; // IPDPS'14 week

/// The paper-shaped zone layer (~3,100 counties, ≈87k vertices).
pub fn us_zones() -> Zones {
    Zones::new(zonal_geo::CountyConfig::us_like(SEED).generate())
}

/// A reduced zone layer for sub-second experiments and tests: same
/// structure, fewer and simpler zones.
pub fn small_zones(nx: usize, ny: usize, subdiv: usize) -> Zones {
    let mut cfg = zonal_geo::CountyConfig::us_like(SEED);
    cfg.nx = nx;
    cfg.ny = ny;
    cfg.edge_subdiv = subdiv;
    Zones::new(cfg.generate())
}

/// Paper pipeline config at a device.
pub fn paper_cfg(device: DeviceSpec) -> PipelineConfig {
    PipelineConfig::paper(device)
}

/// The Table 1 partitions at a resolution.
pub fn partitions(cells_per_degree: u32) -> Vec<Partition> {
    SrtmCatalog::new(cells_per_degree).partitions()
}

/// A specific partition of a named catalog raster (e.g. `"west-south"`,
/// sub-partition 0). Panics when the name is unknown — catalog names are
/// fixed. Note that `partitions(cpd)[i]` indexes *partitions*, not rasters:
/// index 0 and 1 are both pieces of the north strip, which lies outside the
/// county layer; workload-bearing experiments should pick a CONUS raster by
/// name via this helper.
pub fn partition_of(cells_per_degree: u32, raster_name: &str, sub_idx: usize) -> Partition {
    partitions(cells_per_degree)
        .into_iter()
        .filter(|p| p.raster_name == raster_name)
        .nth(sub_idx)
        .unwrap_or_else(|| panic!("no partition {sub_idx} of raster {raster_name}"))
}

/// Full-scale extrapolation factor for per-cell work at a resolution.
pub fn cell_factor(cells_per_degree: u32) -> f64 {
    let f = SrtmCatalog::new(cells_per_degree).scale_factor();
    f * f
}

/// Every partition at `cells_per_degree` in `tile_deg` tiles, encoded
/// through the BQ-Tree codec so Step 0 is a real decode (the Table 2
/// configuration). Run them with [`zonal_core::run_partitions`].
pub fn encoded_partitions(tile_deg: f64, cells_per_degree: u32) -> Vec<BqRaster> {
    partitions(cells_per_degree)
        .iter()
        .map(|p| compress_source(&SyntheticSrtm::new(p.grid(tile_deg), SEED)))
        .collect()
}

/// BQ-Tree compression ratio measured on a sample of tiles at the paper's
/// **native** tile size (360 × 360 cells, 0.1° at 3600 cells/degree).
///
/// Reduced-resolution runs shrink tiles to a few cells, where per-tile
/// headers and pad bits dominate and the ratio is meaningless; the §IV.B
/// comparison (40 GB → 7.3 GB, 18.2%) is only defined at native tile size,
/// so it is sampled there and the sampled ratio is used when extrapolating
/// raster transfer time to full scale.
pub fn native_compression_ratio(seed: u64, n_samples: usize) -> f64 {
    use zonal_raster::{GeoTransform, TileGrid, TileSource};
    let mut raw = 0u64;
    let mut enc = 0u64;
    for k in 0..n_samples {
        // Scatter sample tiles across CONUS deterministically.
        let lon = -124.0 + ((k * 73) % 570) as f64 * 0.1;
        let lat = 25.0 + ((k * 137) % 240) as f64 * 0.1;
        let gt = GeoTransform::per_degree(lon, lat, 3600);
        let grid = TileGrid::new(360, 360, 360, gt);
        let src = SyntheticSrtm::new(grid, seed);
        let tile = src.tile(0, 0);
        raw += (tile.len() * 2) as u64;
        enc += zonal_bqtree::encode_tile(&tile).len() as u64;
    }
    enc as f64 / raw as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_factor_squares_linear_scale() {
        assert_eq!(cell_factor(3600), 1.0);
        assert_eq!(cell_factor(360), 100.0);
        assert_eq!(cell_factor(36), 10_000.0);
    }
}
