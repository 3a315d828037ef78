//! Cluster runner: regenerates the paper's Fig. 6 and the §IV.C
//! self-scheduling alternative, with failure detection and recovery.
//!
//! One master state machine serves every [`Assignment`]. Rank 0 runs on
//! the calling thread beside the master; each other rank is a worker
//! thread. Traffic flows as in the paper's MPI job: every worker sends
//! its requests and results, tagged with its rank, into the master's one
//! inbox, and the master answers each worker over that worker's control
//! channel. A work dispenser is the only place execution depends on the
//! assignment: a static rank gets its whole share as one batch, a `Pull`
//! rank one partition per request from a shared queue.
//!
//! Unlike the paper's MPI job, workers may crash mid-share and result
//! messages may be lost, delayed or corrupted (injected deterministically
//! from [`crate::fault::FaultPlan`]). The master verifies checksums, asks
//! for retransmission over a per-worker control channel, and detects
//! silent deaths with a receive timeout plus a control-channel probe. A
//! dead rank's unreported partitions go back to the dispenser, where live
//! `Pull` ranks pick them up; whatever is left after the gather the master
//! recovers per the [`RecoveryPolicy`]: `Retry` re-runs a static share,
//! `Reassign` spreads it over the survivors, and under `Pull` both run the
//! leftovers on the master and add them to the schedule simulation.
//! `FailFast` aborts at the first fault with a typed [`ClusterError`].
//!
//! Under `Retry`/`Reassign` the combined histograms are bit-identical to
//! a fault-free run; the price of recovery (detection windows, backoff,
//! re-execution, retransmissions) is charged to `sim_secs`/`comm_secs`.

use crate::comm::NetworkModel;
use crate::error::{ClusterError, ClusterResult, RecoveryPolicy};
use crate::fault::{corrupted, FaultInjector, FaultPlan, MsgFault};
use crate::imbalance::ImbalanceReport;
use crate::node::{name_rank_lane, run_node, NodeInput, NodeReport};
use crate::schedule::{reassignment_makespan, simulate, Policy};
use crossbeam::channel::{unbounded, Receiver, Sender};
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use zonal_core::pipeline::Zones;
use zonal_core::{PipelineConfig, ZonalResult, ZoneHistograms};
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
    /// Dynamic self-scheduling (§IV.C future work): an idle rank pulls
    /// the next partition from the master's queue, one request each.
    Pull,
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

    /// Reject configurations the runner cannot execute meaningfully.
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
        if let RecoveryPolicy::Retry { backoff_secs } = self.recovery {
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
    /// placeholder (Reassign, Pull) or their successful retry's numbers.
    pub nodes: Vec<NodeReport>,
    /// Simulated end-to-end seconds: slowest node (static assignment;
    /// the paper's "longest runtime among all the nodes as the wall-clock
    /// end-to-end runtime", MPI included) or the self-scheduling makespan
    /// over the survivors (`Pull`), + MPI + master combine + recovery.
    pub sim_secs: f64,
    /// Real wall seconds of the whole simulated run.
    pub wall_secs: f64,
    /// Simulated MPI seconds (histogram gather, `Pull` work requests,
    /// retransmissions, and injected message delays).
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

/// Payload bytes of one `Pull` work request.
const REQUEST_BYTES: u64 = 16;

/// A rank's merged result over every batch it ran.
struct Share {
    report: NodeReport,
    hists: ZoneHistograms,
    /// Simulated seconds of each batch, in the order they were assigned.
    batch_secs: Vec<f64>,
}

impl Share {
    fn empty(rank: usize, job: &Job) -> Self {
        Share {
            report: NodeReport {
                failed: false,
                ..NodeReport::failed(rank)
            },
            hists: ZoneHistograms::new(job.zones.len(), job.cfg.pipeline.n_bins),
            batch_secs: Vec::new(),
        }
    }

    fn add(&mut self, result: ZonalResult, report: NodeReport) {
        self.batch_secs.push(report.sim_secs);
        if self.batch_secs.len() == 1 {
            // The first batch is taken whole, so a static share reports
            // exactly what its one `run_node` call did.
            self.hists = result.hists;
            self.report = report;
            return;
        }
        self.hists.merge(&result.hists);
        let r = &mut self.report;
        r.n_partitions += report.n_partitions;
        r.sim_secs += report.sim_secs;
        r.wall_secs += report.wall_secs;
        r.n_cells += report.n_cells;
        r.edge_tests += report.edge_tests;
    }
}

/// Worker → master messages, sent into the master's inbox as
/// `(sender rank, message)`.
enum ToMaster {
    /// The sender finished its batch and wants the next one.
    Request,
    /// The released sender's merged result, the sender-side
    /// [`ZoneHistograms::checksum`] the master re-verifies to detect
    /// in-flight corruption, and any injected interconnect delay
    /// (simulated seconds). The worker keeps its own handle on the share
    /// for retransmission, so a transmission never copies it.
    Finished(Arc<Share>, u64, f64),
}

/// Master → worker messages.
enum ToWorker {
    /// Run these partitions (catalog indices), then request more.
    Assign(Vec<usize>),
    /// No more work for this rank: report the result.
    Done,
    /// Result received and verified; the worker may exit.
    Ack,
    /// Retransmit the result (lost or corrupt first copy). Doubles as the
    /// liveness probe: a failed send proves the worker thread exited
    /// without reporting — a crash. A worker still computing ignores it.
    Resend,
}

/// Hands out batches of partition indices: the only place execution
/// depends on the [`Assignment`].
enum Dispenser {
    /// Each rank's whole share, handed out once as one batch.
    Static(Vec<Option<Vec<usize>>>),
    /// One partition per batch from a shared queue, in catalog order.
    Pull(VecDeque<usize>),
}

impl Dispenser {
    fn new(assignment: Assignment, parts: &[Partition], n_nodes: usize) -> Self {
        let shares = match assignment {
            Assignment::RoundRobin => assign_round_robin(parts.len(), n_nodes),
            Assignment::BalancedByCells => {
                let weights: Vec<u64> = parts.iter().map(Partition::cells).collect();
                assign_balanced(&weights, n_nodes)
            }
            Assignment::Pull => return Dispenser::Pull((0..parts.len()).collect()),
        };
        Dispenser::Static(shares.into_iter().map(Some).collect())
    }

    fn next(&mut self, rank: usize) -> Option<Vec<usize>> {
        match self {
            Dispenser::Static(shares) => shares[rank].take(),
            Dispenser::Pull(queue) => queue.pop_front().map(|p| vec![p]),
        }
    }

    /// Take back a dead rank's unreported partitions: a static share
    /// waits for recovery, pulled partitions go back on the queue.
    fn requeue(&mut self, rank: usize, orphans: Vec<usize>) {
        match self {
            Dispenser::Static(shares) => shares[rank] = Some(orphans),
            Dispenser::Pull(queue) => queue.extend(orphans),
        }
    }
}

/// What every rank needs to run a batch.
struct Job<'a> {
    cfg: &'a ClusterConfig,
    zones: &'a Zones,
    parts: &'a [Partition],
    cell_factor: f64,
}

impl Job<'_> {
    /// Run `batch` as `rank` with one [`run_node`] call.
    fn run(&self, rank: usize, batch: &[usize]) -> (ZonalResult, NodeReport) {
        let input = NodeInput {
            rank,
            partitions: batch.iter().map(|&i| self.parts[i]).collect(),
            pipeline: self.cfg.pipeline,
            seed: self.cfg.seed,
        };
        run_node(&input, self.zones, self.cell_factor)
    }
}

/// Run the full job on a simulated cluster at full-scale extrapolation
/// factor `(3600 / cells_per_degree)²`. Errors on invalid configuration,
/// and on any injected failure when the policy is
/// [`RecoveryPolicy::FailFast`]; under `Retry`/`Reassign` every fault
/// plan that leaves at least one live worker completes with histograms
/// bit-identical to a fault-free run.
pub fn run_cluster(cfg: &ClusterConfig, zones: &Zones) -> ClusterResult<ClusterRun> {
    cfg.validate()?;
    let t_run = Instant::now();
    let catalog = SrtmCatalog::new(cfg.cells_per_degree);
    let parts: Vec<Partition> = catalog.partitions();
    let f = catalog.scale_factor();
    let job = Job {
        cfg,
        zones,
        parts: &parts,
        cell_factor: f * f,
    };
    let injector = FaultInjector::new(&cfg.faults, cfg.n_nodes);
    let mut master = Master::new(&job);
    // The master keeps a sender of its own, so the inbox never
    // disconnects: a worker's silence always shows as a timeout.
    let (to_master, inbox) = unbounded::<(usize, ToMaster)>();

    std::thread::scope(|s| {
        // Rank 0 is the master plus a worker on this thread, as in the
        // paper: "the master node was used to combine per-polygon
        // histograms". Every other rank is a thread with a control channel.
        for rank in 1..cfg.n_nodes {
            let (tx, rx) = unbounded::<ToWorker>();
            master.txs[rank] = Some(tx);
            let (to_master, job, injector) = (to_master.clone(), &job, &injector);
            s.spawn(move || worker_body(rank, &to_master, &rx, job, injector));
        }
        let out = master.run(&inbox);
        // An early (FailFast) return must unblock every waiting worker
        // before the scope joins them.
        master.txs.clear();
        out
    })?;
    if !master.dead.is_empty() {
        master.recover();
    }
    // Rank 0's batches and any recovery ran on this thread (renaming its
    // lane along the way); claim the final name.
    if zonal_obs::enabled() {
        zonal_obs::set_lane_name("rank 0 (master)");
    }

    master.dead.sort_unstable();
    let nodes: Vec<NodeReport> = master
        .reports
        .into_iter()
        .map(|r| r.expect("all ranks reported or were recovered"))
        .collect();
    let (makespan, loads) = match cfg.assignment {
        Assignment::Pull => {
            // Event-model self-scheduling over the measured costs of the
            // one-partition batches, in catalog order, across the ranks
            // that survived.
            master.batches.sort_by(|a, b| a.0.cmp(&b.0));
            let costs: Vec<f64> = master.batches.iter().map(|&(_, c)| c).collect();
            let cells: Vec<u64> = parts.iter().map(Partition::cells).collect();
            let outcome = simulate(
                Policy::DynamicSelfScheduling,
                &costs,
                &cells,
                cfg.n_nodes - master.dead.len(),
                cfg.network.message_secs(REQUEST_BYTES),
            );
            (outcome.makespan, outcome.node_loads)
        }
        // The paper's "longest runtime among all the nodes".
        Assignment::RoundRobin | Assignment::BalancedByCells => {
            let secs: Vec<f64> = nodes.iter().map(|n| n.sim_secs).collect();
            (secs.iter().copied().fold(0.0, f64::max), secs)
        }
    };
    Ok(ClusterRun {
        hists: master.hists,
        sim_secs: makespan + master.comm_secs + master.combine_secs + master.recovery_secs,
        wall_secs: t_run.elapsed().as_secs_f64(),
        comm_secs: master.comm_secs,
        combine_secs: master.combine_secs,
        recovery_secs: master.recovery_secs,
        retransmits: master.retransmits,
        failed_ranks: master.dead,
        imbalance: ImbalanceReport::from_node_secs(&loads),
        nodes,
    })
}

/// One worker thread: run each assigned batch and ask for more until
/// released (or until the injected crash point), then transmit the merged
/// result under the injector's message fault and hold it for
/// retransmission until the master acknowledges it. A closed control
/// channel means the run was aborted (FailFast): the worker just exits.
fn worker_body(
    rank: usize,
    to_master: &Sender<(usize, ToMaster)>,
    rx: &Receiver<ToWorker>,
    job: &Job,
    injector: &FaultInjector,
) {
    name_rank_lane(rank);
    let crash_at = injector.take_crash_point(rank);
    let mut share = Share::empty(rank, job);
    let mut completed = 0;
    // The master owns the inbox until every worker has exited, so a send
    // cannot fail.
    let send = |msg| {
        let _ = to_master.send((rank, msg));
    };
    loop {
        match rx.recv() {
            Ok(ToWorker::Assign(batch)) => {
                // A crash fault cuts the batch at the planned point.
                let room = crash_at.map_or(batch.len(), |k| batch.len().min(k - completed));
                let (result, report) = job.run(rank, &batch[..room]);
                name_rank_lane(rank);
                completed += room;
                if crash_at == Some(completed) {
                    break;
                }
                share.add(result, report);
                send(ToMaster::Request);
            }
            Ok(ToWorker::Done) => break,
            Ok(_) => {} // a probe while computing: nothing to resend yet
            Err(_) => return,
        }
    }
    if crash_at.is_some() {
        // Crash fault (also when released before the crash point): die
        // silently — the control channel closes and the master's probe
        // finds the corpse.
        zonal_obs::instant(
            "crash",
            &[
                ("rank", rank as u64),
                ("completed_partitions", completed as u64),
            ],
        );
        return;
    }
    let checksum = share.hists.checksum();
    let share = Arc::new(share);
    let finished = |share, delay_secs| send(ToMaster::Finished(share, checksum, delay_secs));
    match injector.take_msg_action(rank) {
        None => finished(Arc::clone(&share), 0.0),
        Some(MsgFault::Drop) => {
            // First transmission lost in the interconnect.
            zonal_obs::instant("message dropped", &[("rank", rank as u64)]);
        }
        Some(MsgFault::Delay(secs)) => {
            zonal_obs::instant(
                "message delayed",
                &[("rank", rank as u64), ("delay_ms", (secs * 1e3) as u64)],
            );
            finished(Arc::clone(&share), secs);
        }
        Some(MsgFault::Corrupt) => {
            zonal_obs::instant("message corrupted", &[("rank", rank as u64)]);
            // Payload mangled in flight; the checksum still describes the
            // original, so the master will catch the mismatch.
            let mangled = Share {
                report: share.report.clone(),
                hists: corrupted(&share.hists),
                batch_secs: share.batch_secs.clone(),
            };
            finished(Arc::new(mangled), 0.0);
        }
    }
    // Hold the clean result until the master acknowledges it.
    loop {
        match rx.recv() {
            Ok(ToWorker::Resend) => finished(Arc::clone(&share), 0.0),
            Ok(ToWorker::Ack) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// The master's state machine: dispenses batches, merges verified
/// results, retransmits, detects dead ranks and recovers their work.
struct Master<'a> {
    job: &'a Job<'a>,
    dispenser: Dispenser,
    /// Control channel to each worker (none for rank 0).
    txs: Vec<Option<Sender<ToWorker>>>,
    hists: ZoneHistograms,
    reports: Vec<Option<NodeReport>>,
    /// Batches handed to each rank and not yet reported.
    given: Vec<Vec<Vec<usize>>>,
    /// Reported batches with their simulated seconds.
    batches: Vec<(Vec<usize>, f64)>,
    /// Worker ranks whose result is still outstanding.
    pending: Vec<bool>,
    /// Ranks asked to retransmit; their eventual delivery counts as one.
    probed: Vec<bool>,
    dead: Vec<usize>,
    comm_secs: f64,
    combine_secs: f64,
    recovery_secs: f64,
    probe_rounds: usize,
    retransmits: usize,
}

impl<'a> Master<'a> {
    fn new(job: &'a Job<'a>) -> Self {
        let n = job.cfg.n_nodes;
        Master {
            job,
            dispenser: Dispenser::new(job.cfg.assignment, job.parts, n),
            txs: vec![None; n],
            hists: ZoneHistograms::new(job.zones.len(), job.cfg.pipeline.n_bins),
            reports: vec![None; n],
            given: vec![Vec::new(); n],
            batches: Vec::new(),
            pending: (0..n).map(|r| r != 0).collect(),
            probed: vec![false; n],
            dead: Vec::new(),
            comm_secs: 0.0,
            combine_secs: 0.0,
            recovery_secs: 0.0,
            probe_rounds: 0,
            retransmits: 0,
        }
    }

    /// Prime every worker with its first batch, then run rank 0's batches
    /// between inbox drains and gather the workers' results
    /// fault-tolerantly. Returns early with the first failure under
    /// `FailFast`.
    fn run(&mut self, inbox: &Receiver<(usize, ToMaster)>) -> ClusterResult<()> {
        for rank in 1..self.pending.len() {
            self.reply(rank)?;
        }
        let window = Duration::from_secs_f64(self.job.cfg.detect_timeout_secs);
        let mut own = Share::empty(0, self.job);
        loop {
            // Rank 0 also picks up partitions requeued from dead `Pull`
            // ranks, so nothing is left queued under `Pull` at the end.
            while let Some(batch) = self.dispenser.next(0) {
                let (result, report) = self.job.run(0, &batch);
                self.given[0].push(batch);
                own.add(result, report);
                while let Ok((from, msg)) = inbox.try_recv() {
                    self.handle(from, msg)?;
                }
            }
            if !self.pending.contains(&true) {
                break;
            }
            // The inbox never disconnects, so an error is a timeout.
            match inbox.recv_timeout(window) {
                Ok((from, msg)) => self.handle(from, msg)?,
                Err(_) => self.probe()?,
            }
        }
        self.hists.merge(&own.hists);
        self.record(0, &own);
        Ok(())
    }

    fn handle(&mut self, from: usize, msg: ToMaster) -> ClusterResult<()> {
        let cfg = self.job.cfg;
        let (share, checksum, delay_secs) = match msg {
            ToMaster::Request => {
                if self.reply(from)? {
                    // A pulled batch costs its request message.
                    self.comm_secs += cfg.network.message_secs(REQUEST_BYTES);
                }
                return Ok(());
            }
            ToMaster::Finished(share, checksum, delay_secs) => (share, checksum, delay_secs),
        };
        let cost = cfg.network.message_secs(share.hists.output_bytes());
        if !self.pending[from] {
            // Duplicate of an already-merged result (spurious probe); it
            // still crossed the interconnect.
            self.comm_secs += cost;
            self.retransmits += 1;
            return Ok(());
        }
        let got = share.hists.checksum();
        if got != checksum {
            zonal_obs::instant("corrupt payload detected", &[("from", from as u64)]);
            if !cfg.recovery.recovers() {
                return Err(ClusterError::CorruptPayload {
                    from,
                    expected: checksum,
                    got,
                });
            }
            // The corrupt copy wasted its transfer; ask for a clean one.
            // If the worker died meanwhile the probe will notice.
            self.comm_secs += cost;
            self.probed[from] = true;
            self.send(from, ToWorker::Resend);
            return Ok(());
        }
        self.comm_secs += cost + delay_secs;
        if self.probed[from] {
            self.retransmits += 1;
        }
        let t_combine = Instant::now();
        self.hists.merge(&share.hists);
        self.combine_secs += t_combine.elapsed().as_secs_f64();
        self.record(from, &share);
        self.send(from, ToWorker::Ack);
        Ok(())
    }

    /// File `rank`'s merged result, pairing its batch costs with the
    /// batches it was given.
    fn record(&mut self, rank: usize, share: &Share) {
        let given = std::mem::take(&mut self.given[rank]);
        self.batches
            .extend(given.into_iter().zip(share.batch_secs.iter().copied()));
        self.reports[rank] = Some(share.report.clone());
        self.pending[rank] = false;
    }

    /// Send `rank` its next batch, or release it if the dispenser has none
    /// for it. Returns whether a batch went out.
    fn reply(&mut self, rank: usize) -> ClusterResult<bool> {
        let msg = match self.dispenser.next(rank) {
            Some(batch) => {
                self.given[rank].push(batch.clone());
                ToWorker::Assign(batch)
            }
            None => ToWorker::Done,
        };
        let assigned = matches!(msg, ToWorker::Assign(_));
        if !self.send(rank, msg) {
            self.mark_dead(rank)?;
        }
        Ok(assigned)
    }

    /// Nobody reported for a full window: probe every outstanding rank. A
    /// delivered probe nudges a live worker to retransmit; a failed one
    /// proves the worker exited without reporting — a crash. Each round
    /// costs the master one idle detection window.
    fn probe(&mut self) -> ClusterResult<()> {
        self.probe_rounds += 1;
        self.recovery_secs += self.job.cfg.detect_timeout_secs;
        zonal_obs::instant("probe round", &[("round", self.probe_rounds as u64)]);
        for rank in 1..self.pending.len() {
            if !self.pending[rank] {
                continue;
            }
            if self.send(rank, ToWorker::Resend) {
                self.probed[rank] = true;
            } else {
                self.mark_dead(rank)?;
            }
        }
        Ok(())
    }

    /// Whether `msg` reached `rank`'s control channel.
    fn send(&self, rank: usize, msg: ToWorker) -> bool {
        self.txs[rank]
            .as_ref()
            .is_some_and(|tx| tx.send(msg).is_ok())
    }

    /// Declare `rank` dead and hand its unreported partitions back to the
    /// dispenser; under `FailFast`, fail the run instead.
    fn mark_dead(&mut self, rank: usize) -> ClusterResult<()> {
        let orphans = std::mem::take(&mut self.given[rank]).concat();
        zonal_obs::instant(
            "worker declared dead",
            &[("rank", rank as u64), ("orphans", orphans.len() as u64)],
        );
        self.pending[rank] = false;
        self.dead.push(rank);
        if !self.job.cfg.recovery.recovers() {
            let planned = self.job.cfg.faults.crash_point(rank).unwrap_or(0);
            return Err(ClusterError::NodeCrashed {
                rank,
                completed_partitions: planned.min(orphans.len()),
            });
        }
        self.dispenser.requeue(rank, orphans);
        Ok(())
    }

    /// Recover the shares of dead static ranks, still in the dispenser
    /// after the gather, merging their histograms so the result matches a
    /// fault-free run and charging their simulated cost per the policy.
    /// Under `Pull`, live ranks already picked up every orphan.
    fn recover(&mut self) {
        let (job, cfg) = (self.job, self.job.cfg);
        for &rank in &self.dead {
            self.reports[rank] = Some(NodeReport::failed(rank));
        }
        let shares = match &mut self.dispenser {
            Dispenser::Static(shares) => std::mem::take(shares),
            Dispenser::Pull(_) => return,
        };
        let mut orphan_costs = Vec::new();
        for (rank, share) in shares.into_iter().enumerate() {
            let Some(share) = share else { continue };
            if let RecoveryPolicy::Retry { backoff_secs } = cfg.recovery {
                // Faults are one-shot, so the first fresh attempt runs clean.
                zonal_obs::instant("rank retried", &[("rank", rank as u64)]);
                let (result, mut report) = job.run(rank, &share);
                report.failed = true; // the rank did fail before the retry
                self.recovery_secs += backoff_secs + report.sim_secs;
                self.comm_secs += cfg.network.message_secs(result.hists.output_bytes());
                self.hists.merge(&result.hists);
                self.reports[rank] = Some(report);
                continue;
            }
            // Reassign: execution is real (and order-independent under
            // merge); the simulated cost is the LPT makespan across
            // survivors.
            zonal_obs::instant(
                "partitions reassigned",
                &[("rank", rank as u64), ("orphans", share.len() as u64)],
            );
            for p in share {
                let (result, report) = job.run(rank, &[p]);
                self.hists.merge(&result.hists);
                orphan_costs.push(report.sim_secs);
            }
        }
        let n_survivors = cfg.n_nodes - self.dead.len();
        self.recovery_secs += reassignment_makespan(&orphan_costs, n_survivors);
        // Each survivor that took orphans sends one more result message.
        let senders = orphan_costs.len().min(n_survivors);
        self.comm_secs += senders as f64 * cfg.network.message_secs(self.hists.output_bytes());
    }
}

/// Sweep node counts (the paper uses 1, 2, 4, 8, 16) over the same
/// workload, one [`ClusterRun`] per count (the Fig. 6 curve). The combined
/// result must be identical across node counts — a divergence is returned
/// as [`ClusterError::ResultMismatch`], not a panic.
pub fn run_scaling(
    base: &ClusterConfig,
    zones: &Zones,
    node_counts: &[usize],
) -> ClusterResult<Vec<ClusterRun>> {
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
        out.push(run);
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
        let runs = run_scaling(&tiny_cfg(1), &zones, &[1, 4, 8]).unwrap();
        assert_eq!(runs.len(), 3);
        let t1 = runs[0].sim_secs;
        let t4 = runs[1].sim_secs;
        let t8 = runs[2].sim_secs;
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
            RecoveryPolicy::Retry { backoff_secs: 0.5 },
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

    #[test]
    fn master_share_never_pays_detection() {
        // A 1-node run has no worker to wait for, so even a tiny
        // detection window never fires.
        let mut cfg = tiny_cfg(1);
        cfg.detect_timeout_secs = 0.001;
        let run = run_cluster(&cfg, &tiny_zones()).unwrap();
        assert_eq!(run.recovery_secs, 0.0);
        assert_eq!(run.retransmits, 0);
    }

    #[test]
    fn failfast_crash_reports_partitions_the_rank_completed() {
        let zones = tiny_zones();
        // The planned crash point lies past rank 2's 9-partition share.
        let plan = FaultPlan::none().with_crash(2, 100);
        match run_cluster(&faulty_cfg(4, plan, RecoveryPolicy::FailFast), &zones) {
            Err(ClusterError::NodeCrashed {
                rank: 2,
                completed_partitions,
            }) => assert_eq!(completed_partitions, 9),
            other => panic!("expected NodeCrashed for rank 2, got {other:?}"),
        }
        let mut cfg = faulty_cfg(
            4,
            FaultPlan::none().with_crash(1, 2),
            RecoveryPolicy::FailFast,
        );
        cfg.assignment = Assignment::Pull;
        match run_cluster(&cfg, &zones) {
            Err(ClusterError::NodeCrashed {
                rank: 1,
                completed_partitions,
            }) => assert_eq!(completed_partitions, 2),
            other => panic!("expected NodeCrashed for rank 1, got {other:?}"),
        }
    }

    fn pull_cfg(n_nodes: usize) -> ClusterConfig {
        let mut cfg = tiny_cfg(n_nodes);
        cfg.assignment = Assignment::Pull;
        cfg
    }

    fn pull_faulty(n_nodes: usize, faults: FaultPlan) -> ClusterConfig {
        let mut cfg = faulty_cfg(n_nodes, faults, RecoveryPolicy::Reassign);
        cfg.assignment = Assignment::Pull;
        cfg
    }

    #[test]
    fn pull_single_node() {
        let run = run_cluster(&pull_cfg(1), &tiny_zones()).unwrap();
        assert_eq!(run.nodes.len(), 1);
        assert_eq!(run.nodes[0].n_partitions, 36);
        assert!(run.sim_secs > 0.0);
    }

    #[test]
    fn pull_costs_requests_on_the_configured_network() {
        let mut cfg = pull_cfg(1);
        cfg.network.latency_secs = 0.1;
        let run = run_cluster(&cfg, &tiny_zones()).unwrap();
        let makespan = run.sim_secs - run.comm_secs - run.combine_secs - run.recovery_secs;
        // One request round trip per partition, at the configured latency.
        let requests = makespan - run.nodes[0].sim_secs;
        assert!(
            (requests - 36.0 * 0.1).abs() < 1e-6,
            "request time {requests}"
        );
    }

    #[test]
    fn pull_processes_all_cells_once() {
        let run = run_cluster(&pull_cfg(6), &tiny_zones()).unwrap();
        let expected: u64 = SrtmCatalog::new(4).total_cells();
        assert_eq!(run.nodes.iter().map(|n| n.n_cells).sum::<u64>(), expected);
        assert_eq!(run.nodes.iter().map(|n| n.n_partitions).sum::<usize>(), 36);
    }

    #[test]
    fn pull_balances_at_least_as_well_as_static() {
        let zones = tiny_zones();
        let stat = run_cluster(&tiny_cfg(8), &zones).unwrap();
        let pull = run_cluster(&pull_cfg(8), &zones).unwrap();
        // Compare imbalance of simulated node loads.
        assert!(
            pull.imbalance.max_over_mean <= stat.imbalance.max_over_mean + 0.05,
            "pull {:.3} vs static {:.3}",
            pull.imbalance.max_over_mean,
            stat.imbalance.max_over_mean
        );
    }

    #[test]
    fn pull_crash_under_reassign_matches_fault_free() {
        let zones = tiny_zones();
        let clean = run_cluster(&pull_cfg(4), &zones).unwrap();
        let run = run_cluster(&pull_faulty(4, FaultPlan::none().with_crash(2, 1)), &zones).unwrap();
        assert_eq!(
            run.hists, clean.hists,
            "requeueing preserves the answer bit-for-bit"
        );
        assert_eq!(run.failed_ranks, vec![2]);
        assert!(run.nodes[2].failed);
        assert!(run.recovery_secs > 0.0, "detection windows are charged");
    }

    #[test]
    fn pull_crash_under_failfast_is_a_typed_error() {
        let mut cfg = pull_faulty(4, FaultPlan::none().with_crash(1, 0));
        cfg.recovery = RecoveryPolicy::FailFast;
        match run_cluster(&cfg, &tiny_zones()) {
            Err(ClusterError::NodeCrashed { rank: 1, .. }) => {}
            other => panic!("expected NodeCrashed for worker 1, got {other:?}"),
        }
    }

    #[test]
    fn pull_dropped_report_is_retransmitted() {
        let zones = tiny_zones();
        let clean = run_cluster(&pull_cfg(3), &zones).unwrap();
        let run = run_cluster(&pull_faulty(3, FaultPlan::none().with_drop(1)), &zones).unwrap();
        assert_eq!(run.hists, clean.hists);
        assert!(run.retransmits >= 1, "the lost report was resent");
        assert!(run.failed_ranks.is_empty());
    }
}
