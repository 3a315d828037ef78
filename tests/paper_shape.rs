//! Shape assertions for every reproduced table/figure: who wins, by
//! roughly what factor, and where the orderings fall. These are the
//! machine-checked versions of EXPERIMENTS.md's claims.

use std::sync::OnceLock;
use zonal_histo::cluster::{run_scaling, ClusterConfig};
use zonal_histo::geo::CountyConfig;
use zonal_histo::gpusim::DeviceSpec;
use zonal_histo::raster::srtm::{SrtmCatalog, SyntheticSrtm};
use zonal_histo::zonal::pipeline::{run_partitions, ZonalResult, Zones};
use zonal_histo::zonal::PipelineConfig;

const SEED: u64 = 20140519;

/// US-shaped zones at reduced complexity (for test wall-time), generated
/// once and shared across tests.
fn zones() -> &'static Zones {
    static Z: OnceLock<Zones> = OnceLock::new();
    Z.get_or_init(|| {
        let mut cfg = CountyConfig::us_like(SEED);
        cfg.nx = 31;
        cfg.ny = 25;
        cfg.edge_subdiv = 3;
        Zones::new(cfg.generate())
    })
}

/// Run catalog partitions at a tiny resolution, merged. `stride` picks
/// every n-th partition (1 = the whole catalog) so shape tests can run a
/// spread-out sample instead of all 36 partitions.
fn run_catalog(cfg: &PipelineConfig, zones: &Zones, cpd: u32, stride: usize) -> ZonalResult {
    let sources: Vec<SyntheticSrtm> = SrtmCatalog::new(cpd)
        .partitions()
        .iter()
        .step_by(stride)
        .map(|part| SyntheticSrtm::new(part.grid(cfg.tile_deg), SEED))
        .collect();
    run_partitions(cfg, zones, &sources)
}

/// A stride-3 catalog sample (12 of 36 partitions) under the paper's GTX
/// Titan config at 30 cells/degree: several tests assert different shapes
/// of this same workload, so it runs once.
fn shared_catalog() -> &'static ZonalResult {
    static R: OnceLock<ZonalResult> = OnceLock::new();
    R.get_or_init(|| {
        let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan());
        run_catalog(&cfg, zones(), 30, 3)
    })
}

#[test]
fn table1_catalog_totals() {
    let cat = SrtmCatalog::full_scale();
    assert_eq!(cat.rasters().len(), 6);
    assert_eq!(cat.n_partitions(), 36);
    assert_eq!(cat.total_cells(), 20_165_760_000);
}

#[test]
fn table2_step_ordering_and_device_ratios() {
    // Step 4's dominance depends on boundary-tile density, so this test
    // needs the paper-density layer (~3,100 zones), not the reduced one.
    // A stride-4 partition sample (9 of 36, spread across all rasters)
    // keeps the step ratios while shedding most of the wall time.
    let zones = Zones::new(CountyConfig::us_like(SEED).generate());
    let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan());
    let result = run_catalog(&cfg, &zones, 20, 4);
    let f = 32_400.0; // (3600/20)^2: full-scale extrapolation
    let gtx = result.timings.step_sim_secs_at_scale(f);
    let quadro = result
        .timings
        .with_device(DeviceSpec::quadro_6000())
        .step_sim_secs_at_scale(f);

    // Paper: Step 4 dominates, Step 1 second; Steps 2 and 3 negligible.
    assert!(gtx[4] > gtx[1], "Step 4 must dominate Step 1: {gtx:?}");
    assert!(gtx[1] > gtx[3] * 10.0, "Step 3 negligible vs Step 1");
    assert!(gtx[1] > gtx[2] * 5.0, "Step 2 negligible vs Step 1");
    assert!(gtx[0] > 0.0, "decode is significant but measured");

    // Paper's device ratios: Step 4 ≈ 2.6x, Step 1 ≈ 1.6x, Step 0 ≈ 2x.
    let r4 = quadro[4] / gtx[4];
    let r1 = quadro[1] / gtx[1];
    let r0 = quadro[0] / gtx[0];
    assert!(
        (2.0..=3.2).contains(&r4),
        "Step 4 Kepler speedup {r4:.2} (paper 2.6x)"
    );
    assert!(
        (1.3..=2.0).contains(&r1),
        "Step 1 Kepler speedup {r1:.2} (paper 1.6x)"
    );
    assert!(
        (1.5..=2.5).contains(&r0),
        "Step 0 Kepler speedup {r0:.2} (paper ~2x)"
    );

    // Steps total: Kepler close to half of Fermi (paper: "nearly reduced to
    // half"); end-to-end strictly larger than the steps total (transfers).
    let e_g = result.timings.end_to_end_sim_secs_at_scale(f);
    assert!(e_g > result.timings.steps_total_sim_secs_at_scale(f));
    let s_ratio = result
        .timings
        .with_device(DeviceSpec::quadro_6000())
        .steps_total_sim_secs_at_scale(f)
        / result.timings.steps_total_sim_secs_at_scale(f);
    assert!(
        (1.6..=2.8).contains(&s_ratio),
        "steps-total ratio {s_ratio:.2}"
    );
}

#[test]
fn table2_filtering_saves_most_pip_work() {
    // The design's raison d'être: most cells avoid individual PIP tests
    // (inside/outside tiles are resolved wholesale).
    let result = shared_catalog();
    let frac = result.counts.pip_fraction();
    assert!(frac < 0.75, "PIP fraction {frac} should be well below 1");
    assert!(result.counts.inside_pairs > 0);
    // And the filtered pairs actually carried most of the counted cells.
    assert!(result.hists.total() > result.counts.pip_cells_inside);
}

#[test]
fn fig6_scaling_shape() {
    let mut base = ClusterConfig::titan(1, 8, SEED);
    base.pipeline.tile_deg = 0.5;
    base.pipeline.n_bins = 1000;
    let runs = run_scaling(&base, zones(), &[1, 2, 8]).expect("scaling sweep");
    let t: Vec<f64> = runs.iter().map(|r| r.sim_secs).collect();
    // Monotone decreasing.
    for w in t.windows(2) {
        assert!(w[1] < w[0], "more nodes must be faster: {t:?}");
    }
    // Near-linear at 2 nodes, sub-linear by 8 (imbalance flattening).
    let s2 = t[0] / t[1];
    let s8 = t[0] / t[2];
    assert!((1.7..=2.05).contains(&s2), "2-node speedup {s2:.2}");
    assert!((4.0..8.05).contains(&s8), "8-node speedup {s8:.2}");
    assert!(
        s8 < 8.0,
        "8-node speedup cannot be superlinear under the model"
    );
    // Imbalance grows with node count (paper §IV.C).
    let im: Vec<f64> = runs.iter().map(|r| r.imbalance.max_over_mean).collect();
    assert!(im[2] >= im[1], "imbalance grows with nodes: {im:?}");
}

#[test]
fn k20x_slower_than_gtx_titan_single_node() {
    // §IV.C: the paper sees ~25-30% between K20X (60.7 s) and GTX Titan
    // (46 s) on the same workload, attributed to "lower clock rate and
    // bandwidth on K20 GPUs … as well as MPI overheads". The device-only
    // gap (steps, no transfers/MPI) should land a bit below that.
    let result = shared_catalog();
    let f = 14400.0;
    let gtx = result.timings.steps_total_sim_secs_at_scale(f);
    let k20x_timings = result.timings.with_device(DeviceSpec::tesla_k20x());
    let k20x = k20x_timings.steps_total_sim_secs_at_scale(f);
    let gap = k20x / gtx;
    assert!(
        (1.05..=1.45).contains(&gap),
        "K20X/GTX gap {gap:.2} (paper ~1.3 incl. MPI)"
    );
    // Stream overlap must pay off on the K20X too (the cluster nodes are
    // priced with the overlapped figure): below the serial end-to-end,
    // above the pure compute total.
    let serial = k20x_timings.end_to_end_sim_secs_at_scale(f);
    let overlapped = k20x_timings.end_to_end_overlapped_sim_secs_at_scale(f);
    assert!(
        overlapped < serial,
        "K20X overlapped {overlapped:.2}s vs serial {serial:.2}s"
    );
    assert!(
        overlapped >= k20x,
        "K20X overlapped {overlapped:.2}s cannot undercut compute {k20x:.2}s"
    );
}

#[test]
fn compression_claim_native_ratio() {
    // §IV.B: 40 GB -> 7.3 GB is 18.2% of raw; our native-tile ratio must be
    // in the same regime and the transfer argument must hold.
    let ratio = zonal_bench_ratio();
    assert!(
        (0.10..=0.35).contains(&ratio),
        "native ratio {ratio:.3} (paper 0.182)"
    );
    // Compressed transfer at 2.5 GB/s beats raw by at least 3x.
    assert!(1.0 / ratio > 3.0);
}

/// Local copy of the native-ratio sampler (the bench crate is not a
/// dependency of the root package).
fn zonal_bench_ratio() -> f64 {
    use zonal_histo::raster::{GeoTransform, TileGrid, TileSource};
    let mut raw = 0u64;
    let mut enc = 0u64;
    for k in 0..8 {
        let gt = GeoTransform::per_degree(
            -120.0 + (k % 4) as f64 * 12.3,
            28.0 + (k / 4) as f64 * 7.1,
            3600,
        );
        let grid = TileGrid::new(360, 360, 360, gt);
        let src = SyntheticSrtm::new(grid, SEED);
        let tile = src.tile(0, 0);
        raw += (tile.len() * 2) as u64;
        enc += zonal_histo::bqtree::encode_tile(&tile).len() as u64;
    }
    enc as f64 / raw as f64
}
