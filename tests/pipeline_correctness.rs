//! End-to-end correctness: the four-step pipeline must agree **exactly**
//! with two independent reference implementations on realistic workloads.

use zonal_histo::geo::CountyConfig;
use zonal_histo::gpusim::DeviceSpec;
use zonal_histo::raster::srtm::SyntheticSrtm;
use zonal_histo::raster::{GeoTransform, TileGrid};
use zonal_histo::zonal::pipeline::{run_partition, Zones};
use zonal_histo::zonal::{baseline, PipelineConfig};

/// A realistic small workload: 48-zone jittered tessellation with holes and
/// islands, over a synthetic DEM with ocean no-data.
fn workload(seed: u64) -> (Zones, SyntheticSrtm, TileGrid) {
    let mut cfg = CountyConfig::small(seed);
    cfg.nx = 8;
    cfg.ny = 6;
    cfg.hole_fraction = 0.3;
    cfg.island_fraction = 0.6;
    let zones = Zones::new(cfg.generate());
    let gt = GeoTransform::per_degree(cfg.extent.min_x, cfg.extent.min_y, 20);
    let rows = (cfg.extent.height() * 20.0).round() as usize;
    let cols = (cfg.extent.width() * 20.0).round() as usize;
    let grid = TileGrid::for_degree_tile(rows, cols, 0.5, gt);
    let src = SyntheticSrtm::new(grid.clone(), seed);
    (zones, src, grid)
}

#[test]
fn pipeline_matches_both_baselines_exactly() {
    for seed in [1u64, 17, 21, 23981] {
        let (zones, src, _grid) = workload(seed);
        let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan())
            .with_tile_deg(0.5)
            .with_bins(5000);
        let pipe = run_partition(&cfg, &zones, &src);
        let raster = src.to_raster();
        let pip = baseline::full_pip(&zones.layer, &raster, cfg.n_bins);
        let scan = baseline::scanline(&zones.layer, &raster, cfg.n_bins);
        assert_eq!(pipe.hists, pip, "pipeline vs PIP oracle, seed {seed}");
        assert_eq!(pipe.hists, scan, "pipeline vs scanline oracle, seed {seed}");
    }
}

#[test]
fn tessellation_partitions_valid_cells() {
    // Over a space-filling layer, every histogrammable cell inside the layer
    // extent belongs to exactly one zone: total == per-cell census.
    let (zones, src, _) = workload(5);
    let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan())
        .with_tile_deg(0.5)
        .with_bins(5000);
    let result = run_partition(&cfg, &zones, &src);
    // Census: count valid cells whose center is in some zone (lakes and
    // no-data excluded).
    let raster = src.to_raster();
    let gt = raster.transform();
    let mut census = 0u64;
    for r in 0..raster.rows() {
        for c in 0..raster.cols() {
            let v = raster.get(r, c);
            if v as usize >= cfg.n_bins {
                continue;
            }
            let p = gt.cell_center(r, c);
            if zones.layer.polygons().iter().any(|poly| poly.contains(p)) {
                census += 1;
            }
        }
    }
    assert_eq!(result.hists.total(), census);
}

#[test]
fn results_independent_of_device() {
    let (zones, src, _) = workload(9);
    let base = run_partition(
        &PipelineConfig::paper(DeviceSpec::gtx_titan()).with_tile_deg(0.5),
        &zones,
        &src,
    );
    for device in [DeviceSpec::quadro_6000(), DeviceSpec::tesla_k20x()] {
        let r = run_partition(
            &PipelineConfig::paper(device).with_tile_deg(0.5),
            &zones,
            &src,
        );
        assert_eq!(r.hists, base.hists, "{}", device.name);
    }
}

#[test]
fn nodata_cells_accounted() {
    // The ocean mask is seed-dependent over a small box, so scan a few
    // seeds: all must balance their counts, and at least one must actually
    // contain water.
    let mut saw_water = false;
    for seed in 11u64..19 {
        let (zones, src, _) = workload(seed);
        let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan()).with_tile_deg(0.5);
        let r = run_partition(&cfg, &zones, &src);
        assert_eq!(
            r.counts.n_valid_cells + r.counts.n_nodata_cells,
            r.counts.n_cells
        );
        // Counted cells can't exceed valid cells.
        assert!(r.hists.total() <= r.counts.n_valid_cells);
        saw_water |= r.counts.n_nodata_cells > 0;
    }
    assert!(saw_water, "some seed must produce ocean no-data");
}

#[test]
fn deterministic_across_runs() {
    let (zones, src, _) = workload(31);
    let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan()).with_tile_deg(0.5);
    let a = run_partition(&cfg, &zones, &src);
    let b = run_partition(&cfg, &zones, &src);
    assert_eq!(a.hists, b.hists);
    assert_eq!(a.counts, b.counts);
}

#[test]
fn bin_count_only_truncates() {
    // Reducing bins must only drop cells with values ≥ n_bins, bin-for-bin.
    let (zones, src, _) = workload(13);
    let full = run_partition(
        &PipelineConfig::paper(DeviceSpec::gtx_titan())
            .with_tile_deg(0.5)
            .with_bins(5000),
        &zones,
        &src,
    );
    let small = run_partition(
        &PipelineConfig::paper(DeviceSpec::gtx_titan())
            .with_tile_deg(0.5)
            .with_bins(300),
        &zones,
        &src,
    );
    for z in 0..zones.len() {
        for b in 0..300 {
            assert_eq!(
                small.hists.get(z, b),
                full.hists.get(z, b),
                "zone {z} bin {b}"
            );
        }
    }
}
