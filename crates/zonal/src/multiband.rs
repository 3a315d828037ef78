//! Multi-band zonal histogramming.
//!
//! The paper's motivating satellite (GOES-R) scans **16 spectral bands**;
//! zonal analysis over such data wants one histogram per zone *per band*,
//! and downstream clustering wants a single per-zone feature vector across
//! bands. This module runs the pipeline once per band and provides the
//! band-stacking utilities ([`MultiBandResult::concat_bands`]) that let
//! [`crate::zone_cluster::kmedoids`] and the [`crate::distance`] measures
//! operate on multi-band features unchanged.

use crate::config::PipelineConfig;
use crate::hist::ZoneHistograms;
use crate::pipeline::{run_partition, Zones};
use zonal_raster::TileSource;

/// Per-band zone histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiBandResult {
    pub bands: Vec<ZoneHistograms>,
}

impl MultiBandResult {
    pub fn n_bands(&self) -> usize {
        self.bands.len()
    }

    pub fn n_zones(&self) -> usize {
        self.bands.first().map_or(0, ZoneHistograms::n_zones)
    }

    /// Zone `z`'s histogram in band `b`.
    pub fn zone_band(&self, z: usize, b: usize) -> &[u64] {
        self.bands[b].zone(z)
    }

    /// Per-zone per-band mean values: the classic multi-spectral feature
    /// matrix (`out[z][b]`). Zones with no cells in a band get `NaN`.
    pub fn band_means(&self) -> Vec<Vec<f64>> {
        let n_zones = self.n_zones();
        (0..n_zones)
            .map(|z| {
                self.bands
                    .iter()
                    .map(|h| {
                        let bins = h.zone(z);
                        let count: u64 = bins.iter().sum();
                        if count == 0 {
                            f64::NAN
                        } else {
                            bins.iter()
                                .enumerate()
                                .map(|(v, &c)| v as f64 * c as f64)
                                .sum::<f64>()
                                / count as f64
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Stack all bands into one histogram set whose bin axis is the bands
    /// concatenated (`n_bins_total = Σ band bins`, at most
    /// [`crate::hist::MAX_BINS`]). Distance measures over
    /// the result compare zones across every band at once.
    pub fn concat_bands(&self) -> ZoneHistograms {
        let n_zones = self.n_zones();
        let total_bins: usize = self.bands.iter().map(ZoneHistograms::n_bins).sum();
        let mut out = ZoneHistograms::new(n_zones, total_bins);
        let mut offset = 0;
        for band in &self.bands {
            for (z, row) in band.rows() {
                out.zone_mut(z)[offset..offset + row.len()].copy_from_slice(row);
            }
            offset += band.n_bins();
        }
        out
    }
}

/// Run the pipeline once per band source; all bands share zones, tiling and
/// configuration.
pub fn run_bands<S: TileSource>(
    cfg: &PipelineConfig,
    zones: &Zones,
    band_sources: &[S],
) -> MultiBandResult {
    let bands = band_sources
        .iter()
        .map(|src| run_partition(cfg, zones, src).hists)
        .collect();
    MultiBandResult { bands }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_geo::{Polygon, PolygonLayer};
    use zonal_raster::{GeoTransform, Raster, TileGrid};

    struct BandSource {
        raster: Raster,
        grid: TileGrid,
    }

    impl TileSource for BandSource {
        fn grid(&self) -> &TileGrid {
            &self.grid
        }
        fn tile(&self, tx: usize, ty: usize) -> zonal_raster::TileData {
            self.raster.tile_source(&self.grid).tile(tx, ty)
        }
    }

    fn band(value_base: u16) -> BandSource {
        let gt = GeoTransform::new(0.0, 0.0, 0.1, 0.1);
        let raster = Raster::from_fn(20, 20, gt, move |_r, c| value_base + (c / 10) as u16);
        let grid = TileGrid::new(20, 20, 5, gt);
        BandSource { raster, grid }
    }

    fn zones() -> Zones {
        Zones::new(PolygonLayer::from_polygons(vec![
            Polygon::rect(0.0, 0.0, 1.0, 2.0),
            Polygon::rect(1.0, 0.0, 2.0, 2.0),
        ]))
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig::test().with_bins(32).with_tile_deg(0.5)
    }

    #[test]
    fn per_band_histograms() {
        let zones = zones();
        let result = run_bands(&cfg(), &zones, &[band(0), band(10)]);
        assert_eq!(result.n_bands(), 2);
        assert_eq!(result.n_zones(), 2);
        // Band 0: zone 0 (left half) all value 0, zone 1 all value 1.
        assert_eq!(result.zone_band(0, 0)[0], 200);
        assert_eq!(result.zone_band(1, 0)[1], 200);
        // Band 1: offsets by 10.
        assert_eq!(result.zone_band(0, 1)[10], 200);
        assert_eq!(result.zone_band(1, 1)[11], 200);
    }

    #[test]
    fn band_means_feature_matrix() {
        let zones = zones();
        let result = run_bands(&cfg(), &zones, &[band(0), band(10)]);
        let m = result.band_means();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0], vec![0.0, 10.0]);
        assert_eq!(m[1], vec![1.0, 11.0]);
    }

    #[test]
    fn concat_preserves_counts_and_layout() {
        let zones = zones();
        let result = run_bands(&cfg(), &zones, &[band(0), band(10)]);
        let stacked = result.concat_bands();
        assert_eq!(stacked.n_bins(), 64);
        assert_eq!(stacked.total(), 2 * 400);
        // Zone 0: band 0's bin 0 at offset 0; band 1's bin 10 at 32 + 10.
        assert_eq!(stacked.get(0, 0), 200);
        assert_eq!(stacked.get(0, 32 + 10), 200);
    }

    #[test]
    fn clustering_on_stacked_bands() {
        // Two zones with different multi-band signatures separate under
        // k-medoids on the stacked histograms.
        let zones = zones();
        let result = run_bands(&cfg(), &zones, &[band(0), band(10)]);
        let stacked = result.concat_bands();
        let c = crate::zone_cluster::kmedoids(&stacked, 2, crate::distance::Measure::L1, 0, 10);
        assert_ne!(c.assignment[0], c.assignment[1]);
    }

    #[test]
    fn empty_band_list() {
        let zones = zones();
        let result = run_bands::<BandSource>(&cfg(), &zones, &[]);
        assert_eq!(result.n_bands(), 0);
        assert_eq!(result.n_zones(), 0);
    }
}
