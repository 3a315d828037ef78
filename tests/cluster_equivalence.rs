//! Distribution invariance: the cluster must compute exactly what a single
//! node computes, for any node count, assignment policy, or strip size —
//! and, under a recovering policy, for any survivable fault plan.

use proptest::prelude::*;
use zonal_histo::cluster::{
    run_cluster, Assignment, ClusterConfig, ClusterError, FaultPlan, RecoveryPolicy,
};
use zonal_histo::geo::CountyConfig;
use zonal_histo::zonal::pipeline::Zones;

const SEED: u64 = 77;

fn zones() -> &'static Zones {
    static Z: std::sync::OnceLock<Zones> = std::sync::OnceLock::new();
    Z.get_or_init(|| {
        let mut cfg = CountyConfig::us_like(SEED);
        cfg.nx = 12;
        cfg.ny = 8;
        cfg.edge_subdiv = 2;
        Zones::new(cfg.generate())
    })
}

fn cfg(n: usize) -> ClusterConfig {
    let mut c = ClusterConfig::titan(n, 6, SEED);
    c.pipeline.tile_deg = 1.0;
    c.pipeline.n_bins = 256;
    c
}

/// Small, fast configuration for the chaos property (many runs per case).
fn chaos_cfg(n: usize) -> ClusterConfig {
    let mut c = ClusterConfig::titan(n, 4, SEED);
    c.pipeline.tile_deg = 1.0;
    c.pipeline.n_bins = 64;
    c.detect_timeout_secs = 0.3;
    c
}

#[test]
fn all_node_counts_agree() {
    let zones = zones();
    let reference = run_cluster(&cfg(1), zones).unwrap();
    // One even, one odd, one that divides 36, and the 1-partition-per-node
    // extreme — enough to pin distribution invariance without sweeping
    // every count.
    for n in [2usize, 5, 12, 36] {
        let run = run_cluster(&cfg(n), zones).unwrap();
        assert_eq!(run.hists, reference.hists, "{n} nodes");
        assert_eq!(
            run.nodes.iter().map(|r| r.n_cells).sum::<u64>(),
            reference.nodes[0].n_cells,
            "{n} nodes process the same cells"
        );
    }
}

#[test]
fn assignment_policies_agree() {
    let zones = zones();
    let rr = run_cluster(&cfg(8), zones).unwrap();
    for assignment in [Assignment::BalancedByCells, Assignment::Pull] {
        let mut c = cfg(8);
        c.assignment = assignment;
        let run = run_cluster(&c, zones).unwrap();
        assert_eq!(rr.hists, run.hists, "{assignment:?} changes the answer");
        assert_eq!(
            run.nodes.iter().map(|n| n.n_partitions).sum::<usize>(),
            36,
            "{assignment:?} processes every partition exactly once"
        );
    }
}

#[test]
fn master_combine_is_linear() {
    // The master-side merge must be associative/commutative: histograms
    // combined in any node order are identical. Exercised implicitly by
    // thread scheduling; pin it with different node counts whose gather
    // orders differ.
    let zones = zones();
    let a = run_cluster(&cfg(4), zones).unwrap();
    let b = run_cluster(&cfg(4), zones).unwrap();
    assert_eq!(a.hists, b.hists, "combine order must not matter");
}

#[test]
fn reports_complete_and_consistent() {
    let zones = zones();
    let run = run_cluster(&cfg(5), zones).unwrap();
    assert_eq!(run.nodes.len(), 5);
    for (rank, r) in run.nodes.iter().enumerate() {
        assert_eq!(r.rank, rank);
    }
    assert_eq!(run.nodes.iter().map(|r| r.n_partitions).sum::<usize>(), 36);
    assert!(run.sim_secs >= run.nodes.iter().map(|r| r.sim_secs).fold(0.0, f64::max));
    assert!(run.comm_secs > 0.0);
}

#[test]
fn corrupt_payload_from_rank_without_partitions_is_caught() {
    // 40 nodes over 36 partitions: ranks 36..40 own none and send a
    // payload with no stored rows. Corrupting one must still fail its
    // checksum — and be retransmitted under `Retry`.
    let n = 40;
    let mut c = chaos_cfg(n);
    c.faults = FaultPlan::none().with_corrupt(n - 1);
    c.recovery = RecoveryPolicy::Retry { backoff_secs: 0.0 };
    let run = run_cluster(&c, zones()).unwrap();
    assert_eq!(run.nodes[n - 1].n_partitions, 0, "rank {} is empty", n - 1);
    assert_eq!(run.retransmits, 1, "the corrupt copy is resent once");
    assert_eq!(&run.hists, clean_hists(3));

    c.recovery = RecoveryPolicy::FailFast;
    match run_cluster(&c, zones()) {
        Err(ClusterError::CorruptPayload { from, .. }) => assert_eq!(from, n - 1),
        other => panic!("expected a corrupt-payload error, got {other:?}"),
    }
}

/// Fault-free reference histograms for the chaos property, memoized per
/// node count: the reference depends only on `n`, so the proptest cases
/// reuse it instead of re-running a clean cluster each time.
fn clean_hists(n: usize) -> &'static zonal_histo::zonal::ZoneHistograms {
    use std::sync::OnceLock;
    static CLEAN: [OnceLock<zonal_histo::zonal::ZoneHistograms>; 6] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    CLEAN[n].get_or_init(|| run_cluster(&chaos_cfg(n), zones()).unwrap().hists)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chaos property: any seeded fault plan that crashes fewer than
    /// `n_nodes - 1` workers (so at least one survives) must, under
    /// `Reassign`, produce histograms bit-identical to a fault-free run —
    /// under a static assignment (round-robin or balanced, by seed
    /// parity) and under `Pull` — while charging a nonzero recovery cost
    /// whenever something actually crashed.
    #[test]
    fn survivable_fault_plans_preserve_results(plan_seed in 0u64..10_000, n in 3usize..6) {
        let zones = zones();
        let plan = FaultPlan::random(plan_seed, n);
        prop_assert!(plan.validate(n).is_ok(), "random plans are always survivable");

        let clean = clean_hists(n);

        let mut crashed = plan.crashed_ranks();
        crashed.sort_unstable();
        let fixed = if plan_seed % 2 == 0 {
            Assignment::RoundRobin
        } else {
            Assignment::BalancedByCells
        };
        for assignment in [fixed, Assignment::Pull] {
            let mut faulty = chaos_cfg(n);
            faulty.assignment = assignment;
            faulty.faults = plan.clone();
            faulty.recovery = RecoveryPolicy::Reassign;
            let run = run_cluster(&faulty, zones).unwrap();
            prop_assert_eq!(&run.hists, clean, "{:?} under plan {:?}", assignment, plan);
            prop_assert_eq!(&run.failed_ranks, &crashed);
            if !crashed.is_empty() {
                prop_assert!(run.recovery_secs > 0.0, "crash recovery is not free");
            }
        }
    }
}
