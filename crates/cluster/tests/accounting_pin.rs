//! The cluster runner's accounting under faults, pinned.
//!
//! A fixed fault plan (one crash, one dropped, one delayed and one corrupt
//! result message) runs on six statically assigned nodes under `Retry` and
//! under `Reassign`. The detection window is long enough that every
//! healthy worker reports before it fires, so only the faulted ranks are
//! probed and the message traffic is the same on every run.
//!
//! Every field that is a pure function of the input is compared with
//! golden values: the combined histograms' checksum, the failed ranks, the
//! retransmission count, each node's counted work and its `failed` flag,
//! and `comm_secs`. `recovery_secs` and `sim_secs` are left out: they hold
//! measured Step 2 wall time.
//!
//! `comm_secs` sums the message costs in arrival order, and the healthy
//! workers' results arrive in any order, so its last bit varies between
//! runs (one ulp either way in repeated runs). It is compared within a few
//! ulps; a message more or less moves it by at least 10 µs of latency,
//! about 10^11 ulps.
//!
//! A change to how the runner moves messages must leave these values
//! unchanged.

use zonal_cluster::{run_cluster, ClusterConfig, FaultPlan, RecoveryPolicy};
use zonal_core::pipeline::Zones;
use zonal_geo::CountyConfig;

fn zones() -> Zones {
    let mut c = CountyConfig::us_like(7);
    c.nx = 8;
    c.ny = 5;
    c.edge_subdiv = 2;
    Zones::new(c.generate())
}

fn config(recovery: RecoveryPolicy) -> ClusterConfig {
    let mut cfg = ClusterConfig::titan(6, 4, 11);
    cfg.pipeline.tile_deg = 1.0;
    cfg.pipeline.n_bins = 64;
    cfg.faults = FaultPlan::none()
        .with_crash(2, 1)
        .with_drop(1)
        .with_delay(3, 0.25)
        .with_corrupt(4);
    cfg.recovery = recovery;
    cfg.detect_timeout_secs = 1.0;
    cfg
}

/// Per node `(n_partitions, n_cells, edge_tests, failed)`, rank order.
type Nodes = [(usize, u64, u64, bool); 6];

/// Run the plan under `recovery` and compare the pinned fields with
/// `(checksum, retransmits, comm_secs, nodes)`.
fn check(recovery: RecoveryPolicy, zones: &Zones, want: (u64, usize, f64, Nodes)) {
    let run = run_cluster(&config(recovery), zones).expect("survivable plan");
    let nodes: Vec<_> = run
        .nodes
        .iter()
        .map(|n| (n.n_partitions, n.n_cells, n.edge_tests, n.failed))
        .collect();
    assert_eq!(
        (
            run.hists.checksum(),
            run.failed_ranks,
            run.retransmits,
            nodes
        ),
        (want.0, vec![2], want.1, want.3.to_vec()),
        "{recovery:?}: (checksum, failed ranks, retransmits, nodes)"
    );
    let ulps = run.comm_secs.to_bits().abs_diff(want.2.to_bits());
    assert!(
        ulps <= 4,
        "{recovery:?}: comm_secs {} is {ulps} ulps from {}",
        run.comm_secs,
        want.2
    );
}

/// Both policies combine the fault-free run's histograms. Rank 2's share
/// is re-run whole under `Retry` and spread over the survivors under
/// `Reassign`, so only its node row differs.
const CHECKSUM: u64 = 3_113_691_806_342_889_412;

#[test]
fn retry_accounting_is_pinned() {
    let nodes = [
        (6, 3854, 43136, false),
        (6, 3854, 29616, false),
        (6, 4247, 37112, true),
        (6, 4247, 39440, false),
        (6, 4295, 32328, false),
        (6, 4399, 44064, false),
    ];
    let retry = RecoveryPolicy::Retry { backoff_secs: 0.5 };
    check(
        retry,
        &zones(),
        (CHECKSUM, 2, 0.250_072_287_999_999_9, nodes),
    );
}

#[test]
fn reassign_accounting_is_pinned() {
    let nodes = [
        (6, 3854, 43136, false),
        (6, 3854, 29616, false),
        (0, 0, 0, true),
        (6, 4247, 39440, false),
        (6, 4295, 32328, false),
        (6, 4399, 44064, false),
    ];
    let reassign = RecoveryPolicy::Reassign;
    check(
        reassign,
        &zones(),
        (CHECKSUM, 2, 0.250_120_479_999_999_9, nodes),
    );
}
