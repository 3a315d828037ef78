//! Cluster scaling driver: regenerates the paper's Fig. 6, with failure
//! detection and recovery layered on top.
//!
//! The paper's MPI job assumes a perfect cluster; this runner does not.
//! Workers may crash mid-share, and result messages may be lost, delayed,
//! or corrupted (all injected deterministically from
//! [`crate::fault::FaultPlan`]). The master detects trouble with a
//! receive-timeout failure detector plus a control-channel probe, and
//! repairs it per the configured [`RecoveryPolicy`]:
//!
//! * message loss / corruption → checksum verification and Ack/Resend
//!   retransmission over a per-worker control channel;
//! * worker crash → `Retry` re-executes the dead rank's share, `Reassign`
//!   redistributes its orphaned partitions over the survivors;
//! * `FailFast` → the run aborts with a typed [`ClusterError`].
//!
//! Under `Retry`/`Reassign` the combined histograms are bit-identical to
//! a fault-free run; the price of recovery (detection windows, backoff,
//! re-execution, retransmissions) is charged to `sim_secs`/`comm_secs`.

use crate::comm::{Cluster, NetworkModel};
use crate::error::{ClusterError, ClusterResult, RecoveryPolicy};
use crate::fault::{corrupted, FaultInjector, FaultPlan, MsgAction};
use crate::imbalance::ImbalanceReport;
use crate::node::{name_rank_lane, run_node, NodeInput, NodeReport};
use crate::schedule::reassignment_makespan;
use crossbeam::channel::{unbounded, Receiver, Sender};
use serde::Serialize;
use std::time::Duration;
use zonal_core::pipeline::Zones;
use zonal_core::{PipelineConfig, ZoneHistograms};
use zonal_gpusim::DeviceSpec;
use zonal_raster::partition::{assign_balanced, assign_round_robin, Partition};
use zonal_raster::srtm::SrtmCatalog;

/// Partition→node assignment policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Assignment {
    /// The paper's static distribution.
    RoundRobin,
    /// Greedy balance by cell count (the §IV.C improvement direction).
    BalancedByCells,
}

/// Cluster experiment configuration.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterConfig {
    pub n_nodes: usize,
    /// Raster resolution (3600 = the paper's full SRTM scale).
    pub cells_per_degree: u32,
    /// Terrain seed.
    pub seed: u64,
    pub pipeline: PipelineConfig,
    pub assignment: Assignment,
    pub network: NetworkModel,
    /// Faults injected into this run (empty plan = fault-free).
    pub faults: FaultPlan,
    /// What the master does when failure detection fires.
    pub recovery: RecoveryPolicy,
    /// Failure-detection window: how long the master waits without any
    /// incoming message before probing outstanding workers (real seconds
    /// of waiting, and simulated seconds charged per detection round).
    pub detect_timeout_secs: f64,
}

impl ClusterConfig {
    /// The paper's Titan setup at a chosen resolution: K20X per node,
    /// 0.1° tiles, 5000 bins, round-robin partitions, no faults, and a
    /// detection window generous enough that healthy-but-slow workers
    /// are not probed in practice.
    pub fn titan(n_nodes: usize, cells_per_degree: u32, seed: u64) -> Self {
        ClusterConfig {
            n_nodes,
            cells_per_degree,
            seed,
            pipeline: PipelineConfig::paper(DeviceSpec::tesla_k20x()),
            assignment: Assignment::RoundRobin,
            network: NetworkModel::default(),
            faults: FaultPlan::none(),
            recovery: RecoveryPolicy::FailFast,
            detect_timeout_secs: 5.0,
        }
    }

    /// Reject configurations the runners cannot execute meaningfully.
    pub fn validate(&self) -> ClusterResult<()> {
        if self.n_nodes == 0 {
            return Err(ClusterError::InvalidConfig("n_nodes must be > 0".into()));
        }
        if self.cells_per_degree == 0 {
            return Err(ClusterError::InvalidConfig(
                "cells_per_degree must be > 0".into(),
            ));
        }
        if self.pipeline.n_bins == 0 {
            return Err(ClusterError::InvalidConfig(
                "pipeline.n_bins must be > 0".into(),
            ));
        }
        self.network.validate()?;
        self.faults.validate(self.n_nodes)?;
        if !self.detect_timeout_secs.is_finite() || self.detect_timeout_secs <= 0.0 {
            return Err(ClusterError::InvalidConfig(format!(
                "detect_timeout_secs must be finite and > 0, got {}",
                self.detect_timeout_secs
            )));
        }
        if let RecoveryPolicy::Retry {
            max_attempts,
            backoff_secs,
        } = self.recovery
        {
            if max_attempts == 0 {
                return Err(ClusterError::InvalidConfig(
                    "Retry.max_attempts must be >= 1".into(),
                ));
            }
            if !backoff_secs.is_finite() || backoff_secs < 0.0 {
                return Err(ClusterError::InvalidConfig(format!(
                    "Retry.backoff_secs must be finite and >= 0, got {backoff_secs}"
                )));
            }
        }
        Ok(())
    }
}

/// Outcome of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Combined zone histograms (identical to a single-node run, also
    /// under any recoverable fault plan).
    pub hists: ZoneHistograms,
    /// Per-node reports, rank order. Crashed ranks carry a `failed`
    /// placeholder (Reassign) or their successful retry's numbers.
    pub nodes: Vec<NodeReport>,
    /// Simulated end-to-end seconds: slowest node + MPI + master combine
    /// (the paper's "longest runtime among all the nodes as the wall-clock
    /// end-to-end runtime", MPI included) + recovery.
    pub sim_secs: f64,
    /// Real wall seconds of the whole simulated run.
    pub wall_secs: f64,
    /// Simulated MPI seconds (histogram gather, retransmissions, and
    /// injected message delays).
    pub comm_secs: f64,
    /// Master-side combine seconds (measured; "a small fraction of a
    /// second" in the paper).
    pub combine_secs: f64,
    /// Simulated seconds spent detecting and repairing failures
    /// (detection windows, retry backoff, re-executed work). Zero in a
    /// fault-free run; included in `sim_secs`.
    pub recovery_secs: f64,
    /// Result messages retransmitted after a loss, corruption, or probe.
    pub retransmits: usize,
    /// Worker ranks that crashed during the run.
    pub failed_ranks: Vec<usize>,
    pub imbalance: ImbalanceReport,
}

/// Message workers send to the master.
struct WorkerMsg {
    report: NodeReport,
    hists: ZoneHistograms,
    /// [`ZoneHistograms::checksum`] of the payload, computed by the
    /// sender; the master recomputes it to detect in-flight corruption.
    checksum: u64,
    /// Injected interconnect delay carried by this message (simulated).
    delay_secs: f64,
}

impl WorkerMsg {
    fn clean(report: NodeReport, hists: ZoneHistograms) -> Self {
        let checksum = hists.checksum();
        WorkerMsg {
            report,
            hists,
            checksum,
            delay_secs: 0.0,
        }
    }

    fn duplicate(&self) -> Self {
        WorkerMsg {
            report: self.report.clone(),
            hists: self.hists.clone(),
            checksum: self.checksum,
            delay_secs: 0.0,
        }
    }
}

/// Master → worker control messages (the reverse path of the gather).
enum Ctl {
    /// Result received and verified; the worker may exit.
    Ack,
    /// Retransmit the result (lost or corrupt first copy), and doubles as
    /// the liveness probe: a failed `Ctl` send proves the worker thread
    /// exited without reporting — a crash.
    Resend,
}

/// Master-side bookkeeping accumulated during the gather.
struct GatherState {
    comm_secs: f64,
    combine_secs: f64,
    probe_rounds: usize,
    retransmits: usize,
    dead: Vec<usize>,
}

/// Run the full job on a simulated cluster at full-scale extrapolation
/// factor `(3600 / cells_per_degree)²`. Errors on invalid configuration,
/// and on any injected failure when the policy is
/// [`RecoveryPolicy::FailFast`]; under `Retry`/`Reassign` every fault
/// plan that leaves at least one live worker completes with histograms
/// bit-identical to a fault-free run.
pub fn run_cluster(cfg: &ClusterConfig, zones: &Zones) -> ClusterResult<ClusterRun> {
    cfg.validate()?;
    let t_run = std::time::Instant::now();
    let catalog = SrtmCatalog::new(cfg.cells_per_degree);
    let parts: Vec<Partition> = catalog.partitions();
    let assignment = match cfg.assignment {
        Assignment::RoundRobin => assign_round_robin(parts.len(), cfg.n_nodes),
        Assignment::BalancedByCells => {
            let weights: Vec<u64> = parts.iter().map(Partition::cells).collect();
            assign_balanced(&weights, cfg.n_nodes)
        }
    };
    let cell_factor = {
        let f = catalog.scale_factor();
        f * f
    };

    let inputs: Vec<NodeInput> = assignment
        .iter()
        .enumerate()
        .map(|(rank, idxs)| NodeInput {
            rank,
            partitions: idxs.iter().map(|&i| parts[i]).collect(),
            pipeline: cfg.pipeline,
            seed: cfg.seed,
        })
        .collect();

    // Wire up rank 0 (master + worker, as in the paper: "the master node
    // was used to combine per-polygon histograms") and the workers.
    let comms = Cluster::new::<WorkerMsg>(cfg.n_nodes)?;
    let injector = FaultInjector::new(&cfg.faults, cfg.n_nodes);
    let mut reports: Vec<Option<NodeReport>> = vec![None; cfg.n_nodes];
    let mut hists = ZoneHistograms::new(zones.len(), cfg.pipeline.n_bins);

    let gather: ClusterResult<GatherState> = std::thread::scope(|s| {
        // Per-worker control channels for Ack/Resend/probe. Everything
        // master-side lives inside this closure so an early (FailFast)
        // return drops the senders and unblocks ack-waiting workers
        // before the scope joins.
        let mut ctl_txs: Vec<Option<Sender<Ctl>>> = vec![None; cfg.n_nodes];
        let mut iter = comms.into_iter();
        let master = iter.next().expect("n_nodes > 0");
        for comm in iter {
            let rank = comm.rank();
            let (ctl_tx, ctl_rx) = unbounded::<Ctl>();
            ctl_txs[rank] = Some(ctl_tx);
            let input = inputs[rank].clone();
            let zones_ref = &zones;
            let injector = &injector;
            s.spawn(move || worker_body(comm, ctl_rx, input, zones_ref, cell_factor, injector));
        }
        // Master does its own share first…
        let (own, own_report) = run_node(&inputs[0], zones, cell_factor);
        hists.merge(&own.hists);
        reports[0] = Some(own_report);
        // …then gathers the workers' histograms fault-tolerantly.
        master_gather(cfg, &master, &ctl_txs, &mut hists, &mut reports)
    });
    let gather = gather?;

    let GatherState {
        mut comm_secs,
        combine_secs,
        probe_rounds,
        retransmits,
        dead,
    } = gather;
    // Each detection round cost the master one idle timeout window.
    let mut recovery_secs = probe_rounds as f64 * cfg.detect_timeout_secs;

    if !dead.is_empty() {
        recovery_secs += recover_dead_ranks(
            cfg,
            zones,
            &inputs,
            &dead,
            cell_factor,
            &mut hists,
            &mut reports,
            &mut comm_secs,
        )?;
    }

    // The master's own share and any recovery re-execution ran on this
    // thread (renaming its lane along the way); claim the final name.
    if zonal_obs::enabled() {
        zonal_obs::set_lane_name("rank 0 (master)");
    }

    let nodes: Vec<NodeReport> = reports
        .into_iter()
        .map(|r| r.expect("all ranks reported or were recovered"))
        .collect();
    let slowest = nodes.iter().map(|n| n.sim_secs).fold(0.0, f64::max);
    let imbalance =
        ImbalanceReport::from_node_secs(&nodes.iter().map(|n| n.sim_secs).collect::<Vec<_>>());
    Ok(ClusterRun {
        hists,
        sim_secs: slowest + comm_secs + combine_secs + recovery_secs,
        wall_secs: t_run.elapsed().as_secs_f64(),
        comm_secs,
        combine_secs,
        recovery_secs,
        retransmits,
        failed_ranks: dead,
        imbalance,
        nodes,
    })
}

/// One worker thread: run the share (or crash mid-share), transmit the
/// result under the injector's message action, then hold the result for
/// retransmission until the master acknowledges it.
fn worker_body(
    comm: crate::comm::Comm<WorkerMsg>,
    ctl_rx: Receiver<Ctl>,
    input: NodeInput,
    zones: &Zones,
    cell_factor: f64,
    injector: &FaultInjector,
) {
    let rank = input.rank;
    name_rank_lane(rank);
    if let Some(k) = injector.take_crash_point(rank) {
        // Crash fault: do (part of) the work, then die silently — the
        // endpoints drop and the master's probe finds the corpse.
        let mut truncated = input;
        truncated
            .partitions
            .truncate(k.min(truncated.partitions.len()));
        let _ = run_node(&truncated, zones, cell_factor);
        name_rank_lane(rank);
        zonal_obs::instant(
            "crash",
            &[
                ("rank", rank as u64),
                ("completed_partitions", truncated.partitions.len() as u64),
            ],
        );
        return;
    }
    let (result, report) = run_node(&input, zones, cell_factor);
    name_rank_lane(rank);
    let clean = WorkerMsg::clean(report, result.hists);
    // Sends ignore errors: a dropped master endpoint means the run was
    // aborted (FailFast) and this worker should just exit.
    match injector.take_msg_action(rank) {
        MsgAction::Deliver => {
            let _ = comm.try_send(0, clean.duplicate());
        }
        MsgAction::Drop => {
            // First transmission lost in the interconnect.
            zonal_obs::instant("message dropped", &[("rank", rank as u64)]);
        }
        MsgAction::Delay(secs) => {
            zonal_obs::instant(
                "message delayed",
                &[("rank", rank as u64), ("delay_ms", (secs * 1e3) as u64)],
            );
            let mut late = clean.duplicate();
            late.delay_secs = secs;
            let _ = comm.try_send(0, late);
        }
        MsgAction::Corrupt => {
            zonal_obs::instant("message corrupted", &[("rank", rank as u64)]);
            // Payload mangled in flight; the checksum still describes the
            // original, so the master will catch the mismatch.
            let _ = comm.try_send(
                0,
                WorkerMsg {
                    report: clean.report.clone(),
                    hists: corrupted(&clean.hists),
                    checksum: clean.checksum,
                    delay_secs: 0.0,
                },
            );
        }
    }
    // Hold the clean result until the master acknowledges it.
    loop {
        match ctl_rx.recv() {
            Ok(Ctl::Ack) => return,
            Ok(Ctl::Resend) => {
                let _ = comm.try_send(0, clean.duplicate());
            }
            Err(_) => return, // master gone: run aborted
        }
    }
}

/// Master-side gather loop: merge verified results, request resends for
/// lost/corrupt ones, and declare ranks dead when their control channel
/// probe fails. Returns early with the first failure under `FailFast`.
fn master_gather(
    cfg: &ClusterConfig,
    master: &crate::comm::Comm<WorkerMsg>,
    ctl_txs: &[Option<Sender<Ctl>>],
    hists: &mut ZoneHistograms,
    reports: &mut [Option<NodeReport>],
) -> ClusterResult<GatherState> {
    let mut state = GatherState {
        comm_secs: 0.0,
        combine_secs: 0.0,
        probe_rounds: 0,
        retransmits: 0,
        dead: Vec::new(),
    };
    let mut pending: Vec<bool> = (0..cfg.n_nodes).map(|r| r != 0).collect();
    // Ranks we asked to retransmit; their eventual delivery counts as one.
    let mut probed = vec![false; cfg.n_nodes];
    let window = Duration::from_secs_f64(cfg.detect_timeout_secs);

    while pending.iter().any(|&p| p) {
        match master.recv_timeout(window) {
            Ok((from, msg)) => {
                let cost = cfg.network.message_secs(msg.hists.output_bytes());
                if !pending[from] {
                    // Duplicate of an already-merged result (spurious
                    // probe); it still crossed the interconnect.
                    state.comm_secs += cost;
                    state.retransmits += 1;
                    continue;
                }
                let got = msg.hists.checksum();
                if got != msg.checksum {
                    zonal_obs::instant("corrupt payload detected", &[("from", from as u64)]);
                    if !cfg.recovery.recovers() {
                        return Err(ClusterError::CorruptPayload {
                            from,
                            expected: msg.checksum,
                            got,
                        });
                    }
                    // The corrupt copy wasted its transfer; ask for a
                    // clean one. If the worker died meanwhile the probe
                    // path below will notice.
                    state.comm_secs += cost;
                    probed[from] = true;
                    if let Some(tx) = &ctl_txs[from] {
                        let _ = tx.send(Ctl::Resend);
                    }
                    continue;
                }
                state.comm_secs += cost + msg.delay_secs;
                if probed[from] {
                    state.retransmits += 1;
                }
                let t_combine = std::time::Instant::now();
                hists.merge(&msg.hists);
                state.combine_secs += t_combine.elapsed().as_secs_f64();
                reports[from] = Some(msg.report);
                pending[from] = false;
                if let Some(tx) = &ctl_txs[from] {
                    let _ = tx.send(Ctl::Ack);
                }
            }
            Err(ClusterError::RecvTimeout { .. }) => {
                // Nobody reported for a full window: probe every
                // outstanding rank. A successful control send nudges a
                // live worker to retransmit; a failed one proves the
                // worker exited without reporting — a crash.
                state.probe_rounds += 1;
                zonal_obs::instant("probe round", &[("round", state.probe_rounds as u64)]);
                for rank in 1..cfg.n_nodes {
                    if !pending[rank] {
                        continue;
                    }
                    let alive = ctl_txs[rank]
                        .as_ref()
                        .map(|tx| tx.send(Ctl::Resend).is_ok())
                        .unwrap_or(false);
                    if alive {
                        probed[rank] = true;
                    } else {
                        pending[rank] = false;
                        state.dead.push(rank);
                        zonal_obs::instant("worker declared dead", &[("rank", rank as u64)]);
                        if !cfg.recovery.recovers() {
                            return Err(ClusterError::NodeCrashed {
                                rank,
                                completed_partitions: cfg.faults.crash_point(rank).unwrap_or(0),
                            });
                        }
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    state.dead.sort_unstable();
    Ok(state)
}

/// Repair crashed ranks after the gather: re-execute their shares per the
/// recovery policy, merging the recomputed histograms so the final result
/// matches a fault-free run. Returns the simulated recovery seconds.
#[allow(clippy::too_many_arguments)] // recovery touches every accumulator
fn recover_dead_ranks(
    cfg: &ClusterConfig,
    zones: &Zones,
    inputs: &[NodeInput],
    dead: &[usize],
    cell_factor: f64,
    hists: &mut ZoneHistograms,
    reports: &mut [Option<NodeReport>],
    comm_secs: &mut f64,
) -> ClusterResult<f64> {
    let mut recovery_secs = 0.0;
    match cfg.recovery {
        RecoveryPolicy::FailFast => {
            // master_gather already returned the error.
            unreachable!("FailFast never reaches recovery")
        }
        RecoveryPolicy::Retry {
            max_attempts,
            backoff_secs,
        } => {
            for &rank in dead {
                // Faults are one-shot, so the first fresh attempt runs
                // clean; max_attempts is still honored as the budget.
                if max_attempts == 0 {
                    return Err(ClusterError::RecoveryExhausted { rank, attempts: 0 });
                }
                zonal_obs::instant("rank retried", &[("rank", rank as u64)]);
                let (res, mut report) = run_node(&inputs[rank], zones, cell_factor);
                report.failed = true; // the rank did fail before the retry
                recovery_secs += backoff_secs + report.sim_secs;
                *comm_secs += cfg.network.message_secs(res.hists.output_bytes());
                hists.merge(&res.hists);
                reports[rank] = Some(report);
            }
        }
        RecoveryPolicy::Reassign => {
            // Redistribute every orphaned partition over the survivors;
            // execution is real (and order-independent under merge), the
            // simulated cost is the LPT makespan across survivors.
            let n_survivors = cfg.n_nodes - dead.len();
            debug_assert!(n_survivors >= 1, "plan validation keeps a survivor");
            let mut orphan_costs = Vec::new();
            for &rank in dead {
                zonal_obs::instant(
                    "partitions reassigned",
                    &[
                        ("rank", rank as u64),
                        ("orphans", inputs[rank].partitions.len() as u64),
                    ],
                );
                for part in &inputs[rank].partitions {
                    let one = NodeInput {
                        rank,
                        partitions: vec![*part],
                        pipeline: cfg.pipeline,
                        seed: cfg.seed,
                    };
                    let (res, rep) = run_node(&one, zones, cell_factor);
                    hists.merge(&res.hists);
                    orphan_costs.push(rep.sim_secs);
                }
                reports[rank] = Some(NodeReport::failed(rank));
            }
            recovery_secs += reassignment_makespan(&orphan_costs, n_survivors);
            // Each survivor that took orphans sends one more result
            // message to the master.
            let senders = orphan_costs.len().min(n_survivors);
            *comm_secs += senders as f64 * cfg.network.message_secs(hists.output_bytes());
        }
    }
    Ok(recovery_secs)
}

/// One point of the Fig. 6 curve.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingPoint {
    pub n_nodes: usize,
    pub sim_secs: f64,
    pub wall_secs: f64,
    pub imbalance_ratio: f64,
}

/// Sweep node counts (the paper uses 1, 2, 4, 8, 16) over the same
/// workload. The combined result must be identical across node counts —
/// a divergence is returned as [`ClusterError::ResultMismatch`], not a
/// panic.
pub fn run_scaling(
    base: &ClusterConfig,
    zones: &Zones,
    node_counts: &[usize],
) -> ClusterResult<Vec<(ScalingPoint, ClusterRun)>> {
    let mut reference: Option<(usize, ZoneHistograms)> = None;
    let mut out = Vec::with_capacity(node_counts.len());
    for &n in node_counts {
        let mut cfg = base.clone();
        cfg.n_nodes = n;
        let run = run_cluster(&cfg, zones)?;
        match &reference {
            None => reference = Some((n, run.hists.clone())),
            Some((n_ref, r)) => {
                if r != &run.hists {
                    return Err(ClusterError::ResultMismatch {
                        n_nodes_reference: *n_ref,
                        n_nodes_divergent: n,
                    });
                }
            }
        }
        let point = ScalingPoint {
            n_nodes: n,
            sim_secs: run.sim_secs,
            wall_secs: run.wall_secs,
            imbalance_ratio: run.imbalance.max_over_mean,
        };
        out.push((point, run));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_geo::CountyConfig;

    fn tiny_zones() -> Zones {
        let mut c = CountyConfig::us_like(7);
        c.nx = 8;
        c.ny = 5;
        c.edge_subdiv = 2;
        Zones::new(c.generate())
    }

    fn tiny_cfg(n_nodes: usize) -> ClusterConfig {
        let mut cfg = ClusterConfig::titan(n_nodes, 4, 11);
        cfg.pipeline.tile_deg = 1.0;
        cfg.pipeline.n_bins = 64;
        cfg
    }

    /// Fault-test config: short detection window so probes fire quickly.
    fn faulty_cfg(n_nodes: usize, faults: FaultPlan, recovery: RecoveryPolicy) -> ClusterConfig {
        let mut cfg = tiny_cfg(n_nodes);
        cfg.faults = faults;
        cfg.recovery = recovery;
        cfg.detect_timeout_secs = 0.3;
        cfg
    }

    #[test]
    fn cluster_matches_single_node() {
        let zones = tiny_zones();
        let single = run_cluster(&tiny_cfg(1), &zones).unwrap();
        let four = run_cluster(&tiny_cfg(4), &zones).unwrap();
        assert_eq!(single.hists, four.hists);
        assert_eq!(four.nodes.len(), 4);
        // All 36 partitions processed.
        assert_eq!(four.nodes.iter().map(|n| n.n_partitions).sum::<usize>(), 36);
        assert_eq!(four.recovery_secs, 0.0, "fault-free run pays no recovery");
        assert!(four.failed_ranks.is_empty());
    }

    #[test]
    fn scaling_reduces_time() {
        let zones = tiny_zones();
        let points = run_scaling(&tiny_cfg(1), &zones, &[1, 4, 8]).unwrap();
        assert_eq!(points.len(), 3);
        let t1 = points[0].0.sim_secs;
        let t4 = points[1].0.sim_secs;
        let t8 = points[2].0.sim_secs;
        assert!(t4 < t1, "4 nodes beat 1: {t4} vs {t1}");
        assert!(t8 < t4, "8 nodes beat 4: {t8} vs {t4}");
        // Sub-linear beyond perfect scaling is expected (imbalance).
        assert!(t4 >= t1 / 4.0 * 0.99);
    }

    #[test]
    fn more_nodes_than_partitions() {
        let zones = tiny_zones();
        let run = run_cluster(&tiny_cfg(40), &zones).unwrap();
        assert_eq!(run.nodes.len(), 40);
        // 36 partitions → 4 idle nodes; result still correct.
        let idle = run.nodes.iter().filter(|n| n.n_partitions == 0).count();
        assert_eq!(idle, 4);
        assert_eq!(run.hists, run_cluster(&tiny_cfg(1), &zones).unwrap().hists);
    }

    #[test]
    fn balanced_assignment_no_worse() {
        let zones = tiny_zones();
        let rr = run_cluster(&tiny_cfg(8), &zones).unwrap();
        let mut bal_cfg = tiny_cfg(8);
        bal_cfg.assignment = Assignment::BalancedByCells;
        let bal = run_cluster(&bal_cfg, &zones).unwrap();
        assert_eq!(rr.hists, bal.hists, "assignment must not change results");
    }

    #[test]
    fn comm_cost_grows_with_nodes() {
        let zones = tiny_zones();
        let two = run_cluster(&tiny_cfg(2), &zones).unwrap();
        let eight = run_cluster(&tiny_cfg(8), &zones).unwrap();
        assert!(
            eight.comm_secs > two.comm_secs,
            "more workers send more messages"
        );
        assert!(two.comm_secs > 0.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let zones = tiny_zones();
        let mut cfg = tiny_cfg(0);
        assert!(matches!(
            run_cluster(&cfg, &zones),
            Err(ClusterError::InvalidConfig(_))
        ));
        cfg = tiny_cfg(4);
        cfg.pipeline.n_bins = 0;
        assert!(run_cluster(&cfg, &zones).is_err(), "zero bins");
        cfg = tiny_cfg(4);
        cfg.network.bandwidth_gbps = 0.0;
        assert!(run_cluster(&cfg, &zones).is_err(), "zero bandwidth");
        cfg = tiny_cfg(4);
        cfg.faults = FaultPlan::none().with_crash(0, 1);
        assert!(run_cluster(&cfg, &zones).is_err(), "master crash plan");
        cfg = tiny_cfg(4);
        cfg.detect_timeout_secs = 0.0;
        assert!(run_cluster(&cfg, &zones).is_err(), "zero detection window");
    }

    #[test]
    fn crash_under_failfast_is_a_typed_error() {
        let zones = tiny_zones();
        let cfg = faulty_cfg(
            4,
            FaultPlan::none().with_crash(2, 1),
            RecoveryPolicy::FailFast,
        );
        match run_cluster(&cfg, &zones) {
            Err(ClusterError::NodeCrashed { rank: 2, .. }) => {}
            other => panic!("expected NodeCrashed for rank 2, got {other:?}"),
        }
    }

    #[test]
    fn crash_under_reassign_matches_fault_free() {
        let zones = tiny_zones();
        let clean = run_cluster(&tiny_cfg(4), &zones).unwrap();
        let cfg = faulty_cfg(
            4,
            FaultPlan::none().with_crash(2, 1),
            RecoveryPolicy::Reassign,
        );
        let run = run_cluster(&cfg, &zones).unwrap();
        assert_eq!(
            run.hists, clean.hists,
            "reassignment preserves the answer bit-for-bit"
        );
        assert_eq!(run.failed_ranks, vec![2]);
        assert!(run.nodes[2].failed);
        assert!(run.recovery_secs > 0.0, "recovery is not free");
        assert!(
            run.sim_secs > clean.sim_secs,
            "faulty run is slower end to end"
        );
    }

    #[test]
    fn crash_under_retry_matches_fault_free() {
        let zones = tiny_zones();
        let clean = run_cluster(&tiny_cfg(4), &zones).unwrap();
        let cfg = faulty_cfg(
            4,
            FaultPlan::none().with_crash(1, 0),
            RecoveryPolicy::Retry {
                max_attempts: 2,
                backoff_secs: 0.5,
            },
        );
        let run = run_cluster(&cfg, &zones).unwrap();
        assert_eq!(run.hists, clean.hists);
        assert!(
            run.nodes[1].failed,
            "retried rank is marked as having failed"
        );
        assert!(run.nodes[1].n_partitions > 0, "retry re-ran the full share");
        assert!(run.recovery_secs >= 0.5, "backoff is charged");
    }

    #[test]
    fn dropped_message_is_retransmitted() {
        let zones = tiny_zones();
        let clean = run_cluster(&tiny_cfg(3), &zones).unwrap();
        let cfg = faulty_cfg(3, FaultPlan::none().with_drop(1), RecoveryPolicy::Reassign);
        let run = run_cluster(&cfg, &zones).unwrap();
        assert_eq!(run.hists, clean.hists);
        assert!(run.retransmits >= 1, "the lost result was resent");
        assert!(
            run.failed_ranks.is_empty(),
            "a lost message is not a dead node"
        );
    }

    #[test]
    fn corrupt_message_is_detected_and_resent() {
        let zones = tiny_zones();
        let clean = run_cluster(&tiny_cfg(3), &zones).unwrap();
        // FailFast surfaces the corruption as a typed error…
        let ff = faulty_cfg(
            3,
            FaultPlan::none().with_corrupt(2),
            RecoveryPolicy::FailFast,
        );
        match run_cluster(&ff, &zones) {
            Err(ClusterError::CorruptPayload { from: 2, .. }) => {}
            other => panic!("expected CorruptPayload from rank 2, got {other:?}"),
        }
        // …while a recovering policy retransmits and still gets the
        // right answer.
        let cfg = faulty_cfg(
            3,
            FaultPlan::none().with_corrupt(2),
            RecoveryPolicy::Reassign,
        );
        let run = run_cluster(&cfg, &zones).unwrap();
        assert_eq!(run.hists, clean.hists);
        assert!(run.retransmits >= 1);
    }

    #[test]
    fn delayed_message_costs_simulated_time() {
        let zones = tiny_zones();
        let clean = run_cluster(&tiny_cfg(3), &zones).unwrap();
        let cfg = faulty_cfg(
            3,
            FaultPlan::none().with_delay(1, 2.5),
            RecoveryPolicy::Reassign,
        );
        let run = run_cluster(&cfg, &zones).unwrap();
        assert_eq!(run.hists, clean.hists);
        assert!(
            run.comm_secs >= clean.comm_secs + 2.5 - 1e-9,
            "the injected delay is charged to comm time: {} vs {}",
            run.comm_secs,
            clean.comm_secs
        );
    }

    #[test]
    fn multiple_crashes_with_one_survivor() {
        let zones = tiny_zones();
        let clean = run_cluster(&tiny_cfg(4), &zones).unwrap();
        let plan = FaultPlan::none().with_crash(1, 0).with_crash(3, 2);
        let run = run_cluster(&faulty_cfg(4, plan, RecoveryPolicy::Reassign), &zones).unwrap();
        assert_eq!(run.hists, clean.hists);
        assert_eq!(run.failed_ranks, vec![1, 3]);
    }
}
