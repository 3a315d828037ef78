//! Pipeline configuration.

use serde::{Deserialize, Serialize};
use zonal_gpusim::DeviceSpec;

/// Knobs of the four-step pipeline, with the paper's defaults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Tile edge length in degrees (paper §III.A: "we empirically set the
    /// tile size to 0.1 by 0.1 degree").
    pub tile_deg: f64,
    /// Histogram bins (paper: 5000, since "the majority of raster cells
    /// have values less than 5000").
    pub n_bins: usize,
    /// Simulated device the cost model prices kernels on.
    pub device: DeviceSpec,
    /// Number of tile rows decoded and processed per streaming strip.
    /// A strip holds `strip_rows × tiles_x` decoded tiles and their
    /// histogram runs (at most one 8-byte run per cell), so host memory
    /// per strip is proportional to its cells, not to `n_bins`. A
    /// partition keeps one strip live at a time; the cost model prices
    /// the paper's CUDA-stream overlap from the per-strip work records.
    pub strip_rows: usize,
}

impl PipelineConfig {
    /// The paper's configuration on a given device.
    pub fn paper(device: DeviceSpec) -> Self {
        PipelineConfig {
            tile_deg: 0.1,
            n_bins: 5000,
            device,
            strip_rows: 4,
        }
    }

    /// A small configuration for unit tests. `tile_deg` matches the
    /// 8-cell tiles of the 0.1°-resolution test grids (8 × 0.1° = 0.8°).
    pub fn test() -> Self {
        PipelineConfig {
            tile_deg: 0.8,
            n_bins: 256,
            device: DeviceSpec::gtx_titan(),
            strip_rows: 2,
        }
    }

    pub fn with_device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    pub fn with_bins(mut self, n_bins: usize) -> Self {
        self.n_bins = n_bins;
        self
    }

    pub fn with_tile_deg(mut self, tile_deg: f64) -> Self {
        self.tile_deg = tile_deg;
        self
    }

    /// Validate invariants; called by the pipeline entry points.
    pub fn validate(&self) {
        assert!(self.tile_deg > 0.0, "tile_deg must be positive");
        assert!(self.n_bins > 0, "need at least one bin");
        assert!(
            self.n_bins <= u16::MAX as usize,
            "bins beyond u16 value range are unreachable"
        );
        assert!(self.strip_rows > 0, "strip_rows must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = PipelineConfig::paper(DeviceSpec::gtx_titan());
        assert_eq!(c.tile_deg, 0.1);
        assert_eq!(c.n_bins, 5000);
        c.validate();
    }

    #[test]
    fn builder_methods() {
        let c = PipelineConfig::test()
            .with_bins(100)
            .with_tile_deg(0.25)
            .with_device(DeviceSpec::quadro_6000());
        assert_eq!(c.n_bins, 100);
        assert_eq!(c.tile_deg, 0.25);
        assert_eq!(c.device.name, "Quadro 6000");
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        PipelineConfig::test().with_bins(0).validate();
    }

    #[test]
    #[should_panic(expected = "tile_deg")]
    fn zero_tile_rejected() {
        PipelineConfig::test().with_tile_deg(0.0).validate();
    }
}
