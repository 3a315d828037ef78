//! End-to-end observability test for the pipeline: enabling tracing
//! must not perturb results (bit-identical histograms, counts, and work
//! records), and the captured trace must contain the compute lane,
//! per-strip and per-kernel spans, the PIP counter pair, the per-strip
//! cells histogram, and valid simulated-device lanes.
//!
//! This lives in its own integration-test binary (one `#[test]`) because
//! the tracing session is process-global: unit tests running pipelines
//! concurrently in the library test binary would bleed events and
//! metrics into the session.

use zonal_core::pipeline::{run_partition, Zones};
use zonal_core::PipelineConfig;
use zonal_geo::{Polygon, PolygonLayer};
use zonal_obs::metrics::MetricValue;
use zonal_raster::{GeoTransform, Raster, TileGrid};

fn setup() -> (Zones, Raster, TileGrid) {
    let layer = PolygonLayer::from_polygons(vec![
        Polygon::rect(0.0, 0.0, 2.0, 4.0),
        Polygon::rect(2.0, 0.0, 4.0, 4.0),
    ]);
    let gt = GeoTransform::new(0.0, 0.0, 0.1, 0.1);
    let raster = Raster::from_fn(40, 40, gt, |_r, c| (c / 10) as u16);
    let grid = TileGrid::new(40, 40, 8, gt);
    (Zones::new(layer), raster, grid)
}

#[test]
fn tracing_is_nonperturbing_and_complete() {
    let (zones, raster, grid) = setup();
    let src = raster.tile_source(&grid);
    let mut cfg = PipelineConfig::test().with_bins(8);
    cfg.strip_rows = 1; // 5 strips

    let base = run_partition(&cfg, &zones, &src);

    let session = zonal_obs::start(1 << 16);
    let traced = run_partition(&cfg, &zones, &src);
    let mut trace = session.finish();

    // --- Tracing must not perturb results: bit-identical everything. ---
    assert_eq!(traced.hists, base.hists);
    assert_eq!(traced.counts, base.counts);
    assert_eq!(traced.timings.strips, base.timings.strips);

    // --- One lane: Step 0 and Steps 1/3/4 run on the calling thread. ---
    assert!(trace.dropped == 0, "ring saturated in a tiny run");
    let compute_tid = trace
        .lanes
        .iter()
        .find(|(_, n)| n == "compute")
        .map(|(t, _)| *t)
        .expect("compute lane registered");
    let n_strips = traced.timings.strips.len();
    let spans_named = |name: &'static str| trace.events.iter().filter(move |e| e.name == name);
    for strip_span in ["step0: decode strip", "compute strip"] {
        assert_eq!(spans_named(strip_span).count(), n_strips, "{strip_span}");
        assert!(
            spans_named(strip_span).all(|e| e.tid == compute_tid),
            "{strip_span} on the compute lane"
        );
    }
    for kernel in [
        "step1: per-tile histograms",
        "step3: aggregate inside tiles",
        "step4: PIP refine boundary tiles",
    ] {
        assert_eq!(spans_named(kernel).count(), n_strips, "{kernel}");
    }
    // Kernel spans carry the work-counter snapshot; summed over strips it
    // must equal the summed strip records.
    let arg_sum = |name: &'static str, key: &str| -> u64 {
        spans_named(name)
            .map(|e| {
                e.args()
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map_or(0, |(_, v)| *v)
            })
            .sum()
    };
    assert_eq!(
        arg_sum("step1: per-tile histograms", "atomics"),
        traced.timings.total_work().cell_work[1].atomics
    );
    assert_eq!(
        arg_sum("step4: PIP refine boundary tiles", "flops"),
        traced.timings.total_work().cell_work[4].flops
    );
    // Step 4 launches one block per run of a polygon's pairs in a tile
    // row, so it refines every intersect pair in at most as many blocks.
    let pairs = arg_sum("step4: PIP refine boundary tiles", "pairs");
    assert_eq!(pairs, traced.counts.intersect_pairs);
    assert!(pairs > 0);
    assert!(arg_sum("step4: PIP refine boundary tiles", "blocks") <= pairs);

    // --- PIP counter pair mirrors the pipeline counts. ---
    let metric = |name: &str| {
        trace
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} registered"))
            .value
            .clone()
    };
    assert_eq!(
        metric("pip_tests_performed"),
        MetricValue::Counter(traced.counts.pip_cells_tested)
    );
    assert_eq!(
        metric("strip_cells"),
        MetricValue::Histogram {
            count: n_strips as u64,
            sum: traced.counts.n_cells,
            max: traced
                .timings
                .strips
                .iter()
                .map(|s| s.raw_bytes / 2)
                .max()
                .unwrap(),
        },
        "one per-strip cells sample per computed strip"
    );
    assert_eq!(
        metric("pip_tests_avoided"),
        MetricValue::Counter(
            traced
                .counts
                .n_cells
                .saturating_sub(traced.counts.pip_cells_tested)
        )
    );

    // --- The exported document validates, including sim-device lanes. ---
    trace.push_sim_spans(traced.timings.sim_device_spans(1.0));
    let json = trace.to_chrome_json();
    let summary = zonal_obs::validate_chrome_json(&json).expect("valid chrome trace");
    assert!(summary.has_sim_lanes);
    assert!(summary.lane_names.iter().any(|n| n == "compute"));
    assert!(summary.lane_names.iter().any(|n| n == "sim compute"));
}
