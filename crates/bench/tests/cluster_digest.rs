//! The benchmark's cluster workload, pinned: every zone histogram the
//! master combines on a 16-node run at 60 cells/degree.
//!
//! perfbench's `cluster-16` check compares the cluster against a
//! reference built from the same histogram type, so a wrong combine or a
//! wrong row representation would pass it on both sides. This test folds
//! every bin of every zone of `run_cluster`'s result into one FNV-1a
//! digest, exactly as `catalog_digest.rs` does, and compares it with a
//! value computed while each stored row still held all 5,000 bins.
//!
//! It synthesizes and runs the 60-cpd catalog on 16 node threads, so it
//! is `#[ignore]`d; CI runs it with
//! `cargo test --release -p zonal-bench --test cluster_digest -- --ignored`.

use zonal_bench::{us_zones, SEED};
use zonal_cluster::{run_cluster, ClusterConfig};

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
#[ignore = "synthesizes and runs the 60-cpd catalog on 16 nodes; run in release"]
fn cluster_histograms_golden_16_nodes_60cpd() {
    let run =
        run_cluster(&ClusterConfig::titan(16, 60, SEED), &us_zones()).expect("fault-free run");
    let hists = &run.hists;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for z in 0..hists.n_zones() {
        for &count in hists.zone(z) {
            digest = fnv1a(digest, &count.to_le_bytes());
        }
    }
    assert_eq!(
        (hists.n_zones(), hists.total(), digest),
        (3100, 3_649_264, 15_665_811_786_937_569_683),
        "(zones, cells histogrammed, FNV-1a of every bin in zone order)"
    );
}
