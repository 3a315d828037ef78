//! The benchmark's real workload, pinned: every zone histogram of the
//! 120-cpd catalog.
//!
//! The perfbench correctness check compares the pipeline against a
//! reference that runs the same Step 4, so a wrong boundary refinement
//! would pass it. This test instead folds the histograms of
//! `run_partitions` over the 36 BQ-Tree-encoded catalog partitions (0.1°
//! tiles, the county layer, 1,000 bins) into one FNV-1a digest and
//! compares it with a value computed before Step 4 refined tile-row runs,
//! when each (polygon, tile) pair was refined on its own.
//!
//! It encodes and runs 22 M cells, so it is `#[ignore]`d; CI runs it with
//! `cargo test --release -p zonal-bench --test catalog_digest -- --ignored`.

use zonal_bench::{encoded_partitions, us_zones};
use zonal_core::{run_partitions, PipelineConfig};
use zonal_gpusim::DeviceSpec;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
#[ignore = "encodes and runs 22 M cells; run in release"]
fn catalog_histograms_golden_120cpd() {
    let zones = us_zones();
    let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan()).with_bins(1000);
    let result = run_partitions(&cfg, &zones, &encoded_partitions(0.1, 120));
    let hists = &result.hists;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for z in 0..hists.n_zones() {
        for &count in hists.zone(z) {
            digest = fnv1a(digest, &count.to_le_bytes());
        }
    }
    assert_eq!(
        (hists.n_zones(), hists.total(), digest),
        (3100, 14_596_961, 4_862_508_936_953_898_605),
        "(zones, cells histogrammed, FNV-1a of every bin in zone order)"
    );
}
