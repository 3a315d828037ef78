//! Dynamic self-scheduling cluster execution, fault-tolerant.
//!
//! Where [`crate::run`] distributes partitions statically up front (the
//! paper's scheme), this runner implements the alternative the paper's
//! §IV.C sketches: workers *pull* the next partition from a master-side
//! queue whenever they go idle, trading one extra request round-trip per
//! partition for automatic load balance. The execution is real — worker
//! threads message a master thread over channels and the master hands out
//! partition indices one at a time — and the combined histograms are
//! asserted identical to the static runner's by the tests.
//!
//! Failure handling mirrors the static runner: the master detects silent
//! worker deaths with a receive-timeout + control-channel probe, verifies
//! result checksums, and requests retransmission of lost or corrupt
//! reports. A dead worker's outstanding partitions simply go back on the
//! queue — self-scheduling is its own reassignment mechanism — so under a
//! recovering policy the combined histograms stay bit-identical to a
//! fault-free run. (`Retry` and `Reassign` therefore behave the same
//! here; `FailFast` aborts with a typed error.) If a death leaves
//! partitions queued after every live worker has been released, the
//! master executes the leftovers itself.
//!
//! Reported simulated time uses the same event model as
//! [`crate::schedule`], run over the *surviving* worker count, plus one
//! detection window per probe round — the price of resilience.

use crate::comm::{Cluster, NetworkModel};
use crate::error::{ClusterError, ClusterResult};
use crate::fault::{corrupted, FaultInjector, MsgAction};
use crate::imbalance::ImbalanceReport;
use crate::node::{name_rank_lane, NodeReport};
use crate::run::{ClusterConfig, ClusterRun};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::VecDeque;
use std::time::Duration;
use zonal_core::pipeline::{run_partition, Zones};
use zonal_core::ZoneHistograms;
use zonal_raster::partition::Partition;
use zonal_raster::srtm::{SrtmCatalog, SyntheticSrtm};

/// Worker → master messages.
enum ToMaster {
    /// Worker `rank` is idle and wants a partition.
    Request { rank: usize },
    /// Worker `rank` finished everything and reports its results.
    Finished {
        rank: usize,
        hists: ZoneHistograms,
        /// Sender-side [`ZoneHistograms::checksum`] of the payload.
        checksum: u64,
        /// Injected interconnect delay (simulated seconds).
        delay_secs: f64,
        partition_costs: Vec<(usize, f64)>,
        n_cells: u64,
        edge_tests: u64,
        wall_secs: f64,
    },
}

/// Master → worker replies and control messages.
enum ToWorker {
    Assign(usize),
    Done,
    /// Result received and verified; the worker may exit.
    Ack,
    /// Liveness probe; a worker holding an unacknowledged result resends
    /// it, a still-computing worker ignores it.
    Probe,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum WStatus {
    Active,
    Finished,
    Dead,
}

/// Run the job with dynamic self-scheduling over `cfg.n_nodes` workers.
/// Fault-plan ranks address workers directly (rank 0, the worker
/// colocated with the master, is never faulted — as in the static
/// runner).
pub fn run_dynamic(cfg: &ClusterConfig, zones: &Zones) -> ClusterResult<ClusterRun> {
    cfg.validate()?;
    let t_run = std::time::Instant::now();
    let catalog = SrtmCatalog::new(cfg.cells_per_degree);
    let parts: Vec<Partition> = catalog.partitions();
    let cell_factor = {
        let f = catalog.scale_factor();
        f * f
    };
    let injector = FaultInjector::new(&cfg.faults, cfg.n_nodes);

    // Master inbox via the Comm fabric; workers occupy ranks 1..=n in the
    // fabric and are indexed by `rank - 1` everywhere else.
    let comms = Cluster::new::<ToMaster>(cfg.n_nodes + 1)?;

    let mut hists = ZoneHistograms::new(zones.len(), cfg.pipeline.n_bins);
    let mut reports: Vec<Option<NodeReport>> = vec![None; cfg.n_nodes];
    let mut all_costs: Vec<(usize, f64)> = Vec::with_capacity(parts.len());
    let mut comm_secs = 0.0;
    let mut combine_secs = 0.0;
    let mut probe_rounds = 0usize;
    let mut retransmits = 0usize;
    let mut dead: Vec<usize> = Vec::new();

    let master_result: ClusterResult<()> = std::thread::scope(|s| {
        // Per-worker reply channels, built inside the closure so an early
        // (FailFast) return drops them and unblocks every worker before
        // the scope joins.
        let mut txs: Vec<Sender<ToWorker>> = Vec::with_capacity(cfg.n_nodes);
        let mut iter = comms.into_iter();
        let master = iter.next().expect("master endpoint");
        for (widx, comm) in iter.enumerate() {
            let (tx, rx) = unbounded::<ToWorker>();
            txs.push(tx);
            let parts = &parts;
            let zones_ref = &zones;
            let injector = &injector;
            let pipeline = cfg.pipeline;
            let seed = cfg.seed;
            s.spawn(move || {
                worker_body(
                    widx,
                    comm,
                    rx,
                    parts,
                    zones_ref,
                    pipeline,
                    seed,
                    cell_factor,
                    injector,
                )
            });
        }

        // Master loop: hand out partitions in catalog order on demand,
        // re-queueing a dead worker's outstanding ones.
        let mut queue: VecDeque<usize> = (0..parts.len()).collect();
        let mut status = vec![WStatus::Active; cfg.n_nodes];
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); cfg.n_nodes];
        let mut probed = vec![false; cfg.n_nodes];
        let window = Duration::from_secs_f64(cfg.detect_timeout_secs);

        let mark_dead = |rank: usize,
                         status: &mut Vec<WStatus>,
                         assigned: &mut Vec<Vec<usize>>,
                         queue: &mut VecDeque<usize>,
                         dead: &mut Vec<usize>|
         -> ClusterResult<()> {
            status[rank] = WStatus::Dead;
            let orphans = std::mem::take(&mut assigned[rank]);
            let completed = orphans.len();
            zonal_obs::instant(
                "worker declared dead",
                &[("rank", rank as u64), ("requeued", completed as u64)],
            );
            queue.extend(orphans);
            dead.push(rank);
            if !cfg.recovery.recovers() {
                return Err(ClusterError::NodeCrashed {
                    rank,
                    completed_partitions: completed,
                });
            }
            Ok(())
        };

        while status.contains(&WStatus::Active) {
            match master.recv_timeout(window) {
                Ok((_, ToMaster::Request { rank })) => {
                    if status[rank] != WStatus::Active {
                        continue;
                    }
                    comm_secs += cfg.network.message_secs(16); // request round-trip payload
                    if let Some(pidx) = queue.pop_front() {
                        assigned[rank].push(pidx);
                        if txs[rank].send(ToWorker::Assign(pidx)).is_err() {
                            // Died between requesting and receiving.
                            mark_dead(rank, &mut status, &mut assigned, &mut queue, &mut dead)?;
                        }
                    } else {
                        // Queue may refill later if a worker dies; the
                        // released worker can no longer help, and the
                        // master picks up any such leftovers below.
                        let _ = txs[rank].send(ToWorker::Done);
                    }
                }
                Ok((
                    _,
                    ToMaster::Finished {
                        rank,
                        hists: h,
                        checksum,
                        delay_secs,
                        partition_costs,
                        n_cells,
                        edge_tests,
                        wall_secs,
                    },
                )) => {
                    let cost = cfg.network.message_secs(h.output_bytes());
                    if status[rank] != WStatus::Active {
                        // Duplicate after a spurious probe; it still
                        // crossed the interconnect.
                        comm_secs += cost;
                        retransmits += 1;
                        continue;
                    }
                    let got = h.checksum();
                    if got != checksum {
                        zonal_obs::instant("corrupt payload detected", &[("from", rank as u64)]);
                        if !cfg.recovery.recovers() {
                            return Err(ClusterError::CorruptPayload {
                                from: rank,
                                expected: checksum,
                                got,
                            });
                        }
                        // The corrupt copy wasted its transfer; request a
                        // clean retransmission.
                        comm_secs += cost;
                        probed[rank] = true;
                        let _ = txs[rank].send(ToWorker::Probe);
                        continue;
                    }
                    comm_secs += cost + delay_secs;
                    if probed[rank] {
                        retransmits += 1;
                    }
                    let t_combine = std::time::Instant::now();
                    hists.merge(&h);
                    combine_secs += t_combine.elapsed().as_secs_f64();
                    let sim: f64 = partition_costs.iter().map(|&(_, c)| c).sum();
                    reports[rank] = Some(NodeReport {
                        rank,
                        n_partitions: partition_costs.len(),
                        sim_secs: sim,
                        wall_secs,
                        n_cells,
                        edge_tests,
                        failed: false,
                    });
                    all_costs.extend(partition_costs);
                    status[rank] = WStatus::Finished;
                    assigned[rank].clear();
                    let _ = txs[rank].send(ToWorker::Ack);
                }
                Err(ClusterError::RecvTimeout { .. }) => {
                    // Nobody spoke for a full window: probe every active
                    // worker. A failed control send proves the thread
                    // exited without reporting — a crash.
                    probe_rounds += 1;
                    zonal_obs::instant("probe round", &[("round", probe_rounds as u64)]);
                    for rank in 0..cfg.n_nodes {
                        if status[rank] != WStatus::Active {
                            continue;
                        }
                        if txs[rank].send(ToWorker::Probe).is_ok() {
                            probed[rank] = true;
                        } else {
                            mark_dead(rank, &mut status, &mut assigned, &mut queue, &mut dead)?;
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }

        // Leftovers: partitions orphaned after every live worker was
        // already released. The master runs them itself.
        while let Some(pidx) = queue.pop_front() {
            let part = parts[pidx];
            let grid = part.grid(cfg.pipeline.tile_deg);
            let src = SyntheticSrtm::new(grid, cfg.seed);
            let r = run_partition(&cfg.pipeline, zones, &src);
            all_costs.push((
                pidx,
                r.timings
                    .end_to_end_overlapped_sim_secs_at_scale(cell_factor),
            ));
            let t_combine = std::time::Instant::now();
            hists.merge(&r.hists);
            combine_secs += t_combine.elapsed().as_secs_f64();
        }
        Ok(())
    });
    master_result?;
    // Master leftovers ran on this thread (renaming its lane); claim the
    // final name.
    if zonal_obs::enabled() {
        zonal_obs::set_lane_name("master");
    }
    dead.sort_unstable();
    for &rank in &dead {
        reports[rank] = Some(NodeReport::failed(rank));
    }
    let recovery_secs = probe_rounds as f64 * cfg.detect_timeout_secs;

    // Simulated makespan: event-model pull scheduling over the measured
    // per-partition costs (catalog order, as the master assigned them),
    // across the workers that actually survived.
    all_costs.sort_by_key(|&(pidx, _)| pidx);
    let costs: Vec<f64> = all_costs.iter().map(|&(_, c)| c).collect();
    let cells: Vec<u64> = parts.iter().map(Partition::cells).collect();
    let n_live = (cfg.n_nodes - dead.len()).max(1);
    let outcome = crate::schedule::simulate(
        crate::schedule::Policy::DynamicSelfScheduling,
        &costs,
        &cells,
        n_live,
        NetworkModel::default().message_secs(16),
    );

    let nodes: Vec<NodeReport> = reports
        .into_iter()
        .map(|r| r.expect("all workers reported or were declared dead"))
        .collect();
    let imbalance = ImbalanceReport::from_node_secs(&outcome.node_loads);
    Ok(ClusterRun {
        hists,
        sim_secs: outcome.makespan + comm_secs + combine_secs + recovery_secs,
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

/// One pull-scheduling worker: request work until released (or until the
/// injected crash point), then report results and hold them for
/// retransmission until acknowledged.
#[allow(clippy::too_many_arguments)] // thread entry point bundles the run context
fn worker_body(
    widx: usize,
    comm: crate::comm::Comm<ToMaster>,
    rx: Receiver<ToWorker>,
    parts: &[Partition],
    zones: &Zones,
    pipeline: zonal_core::PipelineConfig,
    seed: u64,
    cell_factor: f64,
    injector: &FaultInjector,
) {
    let t0 = std::time::Instant::now();
    name_rank_lane(widx);
    let crash_at = injector.take_crash_point(widx);
    let mut local = ZoneHistograms::new(zones.len(), pipeline.n_bins);
    let mut costs: Vec<(usize, f64)> = Vec::new();
    let mut n_cells = 0u64;
    let mut edge_tests = 0u64;
    loop {
        if let Some(k) = crash_at {
            if costs.len() >= k {
                // Crash fault: die silently, results lost.
                zonal_obs::instant(
                    "crash",
                    &[("rank", widx as u64), ("completed_partitions", k as u64)],
                );
                return;
            }
        }
        if comm.try_send(0, ToMaster::Request { rank: widx }).is_err() {
            return; // master gone: run aborted
        }
        let reply = loop {
            match rx.recv() {
                // Stale control traffic (a probe sent while computing).
                Ok(ToWorker::Probe) | Ok(ToWorker::Ack) => continue,
                Ok(m) => break m,
                Err(_) => return,
            }
        };
        match reply {
            ToWorker::Assign(pidx) => {
                let part = parts[pidx];
                let grid = part.grid(pipeline.tile_deg);
                let src = SyntheticSrtm::new(grid, seed);
                let mut span = zonal_obs::span("partition");
                span.arg("partition", pidx as u64);
                let r = run_partition(&pipeline, zones, &src);
                drop(span);
                name_rank_lane(widx); // the pipeline renamed this lane
                costs.push((
                    pidx,
                    r.timings
                        .end_to_end_overlapped_sim_secs_at_scale(cell_factor),
                ));
                n_cells += r.counts.n_cells;
                edge_tests += r.counts.edge_tests;
                local.merge(&r.hists);
            }
            ToWorker::Done => break,
            ToWorker::Ack | ToWorker::Probe => unreachable!("filtered above"),
        }
    }
    if let Some(k) = crash_at {
        // Released before reaching the planned crash point: the crash
        // still fires before the report, exactly as in the static runner.
        zonal_obs::instant(
            "crash",
            &[
                ("rank", widx as u64),
                ("completed_partitions", costs.len().min(k) as u64),
            ],
        );
        return;
    }
    let checksum = local.checksum();
    let wall_secs = t0.elapsed().as_secs_f64();
    let mk = |hists: ZoneHistograms, checksum: u64, delay_secs: f64| ToMaster::Finished {
        rank: widx,
        hists,
        checksum,
        delay_secs,
        partition_costs: costs.clone(),
        n_cells,
        edge_tests,
        wall_secs,
    };
    // Transmit under the plan's message fault; sends ignore errors (a
    // dropped master endpoint means the run was aborted).
    match injector.take_msg_action(widx) {
        MsgAction::Deliver => {
            let _ = comm.try_send(0, mk(local.clone(), checksum, 0.0));
        }
        MsgAction::Drop => {
            // First transmission lost in the interconnect.
            zonal_obs::instant("message dropped", &[("rank", widx as u64)]);
        }
        MsgAction::Delay(secs) => {
            zonal_obs::instant(
                "message delayed",
                &[("rank", widx as u64), ("delay_ms", (secs * 1e3) as u64)],
            );
            let _ = comm.try_send(0, mk(local.clone(), checksum, secs));
        }
        MsgAction::Corrupt => {
            zonal_obs::instant("message corrupted", &[("rank", widx as u64)]);
            let _ = comm.try_send(0, mk(corrupted(&local), checksum, 0.0));
        }
    }
    // Hold the clean result until the master acknowledges it.
    loop {
        match rx.recv() {
            Ok(ToWorker::Ack) => return,
            Ok(ToWorker::Probe) => {
                let _ = comm.try_send(0, mk(local.clone(), checksum, 0.0));
            }
            Ok(_) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RecoveryPolicy;
    use crate::fault::FaultPlan;
    use crate::run::run_cluster;
    use zonal_geo::CountyConfig;

    fn zones() -> Zones {
        let mut c = CountyConfig::us_like(3);
        c.nx = 10;
        c.ny = 7;
        c.edge_subdiv = 2;
        Zones::new(c.generate())
    }

    fn cfg(n: usize) -> ClusterConfig {
        let mut c = ClusterConfig::titan(n, 5, 3);
        c.pipeline.tile_deg = 1.0;
        c.pipeline.n_bins = 200;
        c
    }

    fn faulty(n: usize, faults: FaultPlan, recovery: RecoveryPolicy) -> ClusterConfig {
        let mut c = cfg(n);
        c.faults = faults;
        c.recovery = recovery;
        c.detect_timeout_secs = 0.3;
        c
    }

    #[test]
    fn dynamic_matches_static_results() {
        let zones = zones();
        let stat = run_cluster(&cfg(4), &zones).unwrap();
        let dynamic = run_dynamic(&cfg(4), &zones).unwrap();
        assert_eq!(
            stat.hists, dynamic.hists,
            "scheduling must not change the answer"
        );
        assert_eq!(
            dynamic.nodes.iter().map(|n| n.n_partitions).sum::<usize>(),
            36,
            "all partitions processed exactly once"
        );
    }

    #[test]
    fn single_worker_dynamic() {
        let zones = zones();
        let run = run_dynamic(&cfg(1), &zones).unwrap();
        assert_eq!(run.nodes.len(), 1);
        assert_eq!(run.nodes[0].n_partitions, 36);
        assert!(run.sim_secs > 0.0);
    }

    #[test]
    fn all_cells_processed_once() {
        let zones = zones();
        let run = run_dynamic(&cfg(6), &zones).unwrap();
        let expected: u64 = SrtmCatalog::new(5).total_cells();
        assert_eq!(run.nodes.iter().map(|n| n.n_cells).sum::<u64>(), expected);
    }

    #[test]
    fn dynamic_balances_at_least_as_well_as_static() {
        let zones = zones();
        let stat = run_cluster(&cfg(8), &zones).unwrap();
        let dynamic = run_dynamic(&cfg(8), &zones).unwrap();
        // Compare imbalance of simulated node loads.
        assert!(
            dynamic.imbalance.max_over_mean <= stat.imbalance.max_over_mean + 0.05,
            "dynamic {:.3} vs static {:.3}",
            dynamic.imbalance.max_over_mean,
            stat.imbalance.max_over_mean
        );
    }

    #[test]
    fn dynamic_crash_under_reassign_matches_fault_free() {
        let zones = zones();
        let clean = run_dynamic(&cfg(4), &zones).unwrap();
        let plan = FaultPlan::none().with_crash(2, 1);
        let run = run_dynamic(&faulty(4, plan, RecoveryPolicy::Reassign), &zones).unwrap();
        assert_eq!(
            run.hists, clean.hists,
            "requeueing preserves the answer bit-for-bit"
        );
        assert_eq!(run.failed_ranks, vec![2]);
        assert!(run.nodes[2].failed);
        assert!(run.recovery_secs > 0.0, "detection windows are charged");
    }

    #[test]
    fn dynamic_crash_under_failfast_is_a_typed_error() {
        let zones = zones();
        let plan = FaultPlan::none().with_crash(1, 0);
        match run_dynamic(&faulty(4, plan, RecoveryPolicy::FailFast), &zones) {
            Err(ClusterError::NodeCrashed { rank: 1, .. }) => {}
            other => panic!("expected NodeCrashed for worker 1, got {other:?}"),
        }
    }

    #[test]
    fn dynamic_dropped_report_is_retransmitted() {
        let zones = zones();
        let clean = run_dynamic(&cfg(3), &zones).unwrap();
        let plan = FaultPlan::none().with_drop(1);
        let run = run_dynamic(&faulty(3, plan, RecoveryPolicy::Reassign), &zones).unwrap();
        assert_eq!(run.hists, clean.hists);
        assert!(run.retransmits >= 1, "the lost report was resent");
        assert!(run.failed_ranks.is_empty());
    }
}
