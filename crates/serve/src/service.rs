//! The query service: admission → batching dispatcher → worker pool.
//!
//! ```text
//!  submit()───try_admit──▶ [bounded queue] ──▶ dispatcher ──▶ workers
//!     │            │                             (coalesce      (plan cache;
//!     │            └─shed: QueueFull/Saturated    by PlanKey)    a miss runs
//!     ▼                                                          run_partitions
//!  Ticket ◀──────────────── reply channel ◀──────────────────── once per plan)
//! ```
//!
//! Invariants (asserted by the equivalence tests):
//!
//! * **Bit-identity.** Every answer equals the direct
//!   `run_partitions` computation at the query's bin spec, restricted
//!   to the requested zones — whether it was served cold, from a
//!   coalesced batch, or from the plan cache, and regardless of
//!   concurrent shedding or raster updates (each answer is consistent
//!   with exactly one store version, which it reports).
//! * **Bounded queueing.** At most `queue_capacity` requests are
//!   admitted-but-unfinished; excess is shed with a typed error, never
//!   queued unboundedly.
//! * **Graceful drain.** Shutdown stops admitting, then finishes every
//!   admitted request before joining the pool.
//! * **Contained failure.** A batch whose pass panics answers each of
//!   its requests with [`ServeError::Internal`]; its worker serves on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use serde::Serialize;
use zonal_core::pipeline::run_partitions;
use zonal_core::PipelineConfig;
use zonal_gpusim::CostModel;

use crate::admission::{estimate_partition_sim_secs, Admission, AdmissionController};
use crate::cache::{PlanAnswer, ServeCache};
use crate::error::ServeError;
use crate::query::{PlanKey, QueryResponse, ZonalQuery, ZoneSelection};
use crate::store::RasterStore;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Pipeline configuration for the passes the service runs. The bin
    /// count is overridden per query; `tile_deg` must match the store's
    /// partition grids (the pipeline rejects a mismatch).
    pub pipeline: PipelineConfig,
    /// Maximum admitted-but-unfinished requests before shedding.
    pub queue_capacity: usize,
    /// Executor threads. Each runs whole batches; a cold batch calls
    /// `run_partitions`, which spreads the plan's partitions over up to
    /// `available_parallelism` scoped threads of its own, one per
    /// partition at a time.
    pub workers: usize,
    /// How long the dispatcher waits after the first queued request for
    /// more requests to coalesce into the same batch. Zero disables
    /// windowed coalescing (whatever is already queued still batches).
    pub batch_window: Duration,
    /// Hard cap on requests per batch.
    pub max_batch: usize,
    /// Simulated-device occupancy ceiling for admission (seconds of
    /// estimated device work in flight).
    pub max_outstanding_sim_secs: f64,
    /// Plan-cache capacity in plans (0 disables). Each entry is one
    /// plan's merged answer: every zone's row at the plan's bin count.
    pub cache_capacity: usize,
}

impl ServeConfig {
    pub fn new(pipeline: PipelineConfig) -> Self {
        ServeConfig {
            pipeline,
            queue_capacity: 64,
            workers: 2,
            batch_window: Duration::from_millis(1),
            max_batch: 32,
            max_outstanding_sim_secs: 60.0,
            cache_capacity: 16,
        }
    }

    /// Disable the plan cache (the cache-off arm of the equivalence
    /// tests).
    pub fn without_caching(mut self) -> Self {
        self.cache_capacity = 0;
        self
    }

    /// Disable windowed coalescing (requests still share passes when
    /// they happen to be queued together).
    pub fn without_batch_window(mut self) -> Self {
        self.batch_window = Duration::ZERO;
        self
    }

    pub fn validate(&self) {
        self.pipeline.validate();
        assert!(self.queue_capacity > 0, "queue_capacity must be positive");
        assert!(self.workers > 0, "need at least one worker");
        assert!(self.max_batch > 0, "max_batch must be positive");
        assert!(
            self.max_outstanding_sim_secs > 0.0,
            "occupancy limit must be positive"
        );
    }
}

/// Monotonic serving counters (always on — independent of tracing).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ServeStats {
    /// Requests admitted past both gates.
    pub submitted: u64,
    /// Requests answered with histograms.
    pub completed: u64,
    /// Sheds at the queue-depth gate.
    pub shed_queue_full: u64,
    /// Sheds at the occupancy gate.
    pub shed_saturated: u64,
    /// Rejected malformed queries.
    pub invalid: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests served across those batches.
    pub batched_queries: u64,
    /// Partition pipeline passes actually run (Step 0–4).
    pub pipeline_passes: u64,
    /// Partition passes a cached plan saved: a batch that runs no pass
    /// (its plan was cached, or another batch was filling it) adds its
    /// band's partition count.
    pub partition_cache_hits: u64,
    /// Requested zone rows answered from a cached plan, including one
    /// another batch was filling.
    pub row_cache_hits: u64,
    /// Requested zone rows answered after a pipeline pass.
    pub row_cache_misses: u64,
}

impl ServeStats {
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_saturated
    }

    /// Shed fraction of all offered (admitted + shed) requests.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.submitted + self.shed();
        if offered == 0 {
            return 0.0;
        }
        self.shed() as f64 / offered as f64
    }

    /// Fraction of requested zone rows answered from a cached plan.
    pub fn row_cache_hit_rate(&self) -> f64 {
        let total = self.row_cache_hits + self.row_cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.row_cache_hits as f64 / total as f64
    }

    /// Mean requests per executed batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_queries as f64 / self.batches as f64
    }
}

#[derive(Default)]
struct StatCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_saturated: AtomicU64,
    invalid: AtomicU64,
    batches: AtomicU64,
    batched_queries: AtomicU64,
    pipeline_passes: AtomicU64,
    partition_cache_hits: AtomicU64,
    row_cache_hits: AtomicU64,
    row_cache_misses: AtomicU64,
}

/// Reply payload: the answer plus its server-side completion time, so
/// clients can measure latency even when they collect tickets late.
type Reply = (Result<QueryResponse, ServeError>, Instant);

struct Request {
    query: ZonalQuery,
    zone_ids: Vec<u32>,
    admission: Admission,
    reply: Sender<Reply>,
}

type Batch = (PlanKey, Vec<Request>);

struct Shared {
    store: Arc<RasterStore>,
    cfg: ServeConfig,
    cost: CostModel,
    admission: Arc<AdmissionController>,
    cache: ServeCache,
    stats: StatCounters,
    shutting_down: AtomicBool,
}

/// Handle for a submitted query; redeem with [`Ticket::wait`].
pub struct Ticket {
    rx: Receiver<Reply>,
    submitted: Instant,
}

impl Ticket {
    /// Block until the answer arrives.
    pub fn wait(self) -> Result<QueryResponse, ServeError> {
        self.wait_timed().map(|(resp, _)| resp)
    }

    /// Block until the answer arrives, also returning the submit→served
    /// latency (measured against the server-side completion instant).
    pub fn wait_timed(self) -> Result<(QueryResponse, Duration), ServeError> {
        match self.rx.recv() {
            Ok((Ok(resp), served_at)) => {
                Ok((resp, served_at.saturating_duration_since(self.submitted)))
            }
            Ok((Err(e), _)) => Err(e),
            // Reply sender dropped without an answer: torn down mid-flight.
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }
}

/// The running service. Dropping it (or calling
/// [`ZonalService::shutdown`]) drains admitted requests and joins the
/// thread pool.
pub struct ZonalService {
    shared: Arc<Shared>,
    submit_tx: Mutex<Option<Sender<Request>>>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ZonalService {
    /// Start the service over `store`.
    pub fn start(store: Arc<RasterStore>, cfg: ServeConfig) -> ZonalService {
        cfg.validate();
        let shared = Arc::new(Shared {
            cost: CostModel::new(cfg.pipeline.device),
            admission: Arc::new(AdmissionController::new(
                cfg.queue_capacity,
                cfg.max_outstanding_sim_secs,
            )),
            cache: ServeCache::new(cfg.cache_capacity),
            stats: StatCounters::default(),
            shutting_down: AtomicBool::new(false),
            store,
            cfg,
        });

        let (submit_tx, submit_rx) = channel::unbounded::<Request>();
        let (work_tx, work_rx) = channel::unbounded::<Batch>();
        let work_rx = Arc::new(Mutex::new(work_rx));

        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || dispatch_loop(&shared, &submit_rx, &work_tx))
        };
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let work_rx = Arc::clone(&work_rx);
                std::thread::spawn(move || worker_loop(&shared, &work_rx, i))
            })
            .collect();

        ZonalService {
            shared,
            submit_tx: Mutex::new(Some(submit_tx)),
            dispatcher: Some(dispatcher),
            workers,
        }
    }

    pub fn store(&self) -> &Arc<RasterStore> {
        &self.shared.store
    }

    /// Current counters.
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared.stats;
        ServeStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            shed_queue_full: s.shed_queue_full.load(Ordering::Relaxed),
            shed_saturated: s.shed_saturated.load(Ordering::Relaxed),
            invalid: s.invalid.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            batched_queries: s.batched_queries.load(Ordering::Relaxed),
            pipeline_passes: s.pipeline_passes.load(Ordering::Relaxed),
            partition_cache_hits: s.partition_cache_hits.load(Ordering::Relaxed),
            row_cache_hits: s.row_cache_hits.load(Ordering::Relaxed),
            row_cache_misses: s.row_cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Estimated device-seconds a query would add at admission: zero
    /// when its plan's answer is cached or being filled, otherwise the
    /// sum of its band's partition estimates.
    pub fn estimate_sim_secs(&self, query: &ZonalQuery) -> f64 {
        let snap = self.shared.store.snapshot();
        if self
            .shared
            .cache
            .contains(&(snap.version, query.plan_key()))
        {
            return 0.0;
        }
        snap.band(query.band)
            .iter()
            .map(|p| estimate_partition_sim_secs(&self.shared.cost, p.cells()))
            .sum()
    }

    /// Submit a query. Returns a [`Ticket`] on admission, or a typed
    /// shed/validation error without blocking.
    pub fn submit(&self, query: ZonalQuery) -> Result<Ticket, ServeError> {
        if self.shared.shutting_down.load(Ordering::Relaxed) {
            return Err(ServeError::ShuttingDown);
        }
        let zone_ids = self.validate(&query).inspect_err(|_| {
            self.shared.stats.invalid.fetch_add(1, Ordering::Relaxed);
        })?;

        let estimate = self.estimate_sim_secs(&query);
        let admission = self.shared.admission.try_admit(estimate).inspect_err(|e| {
            let (stat, code) = match e {
                ServeError::QueueFull { .. } => (&self.shared.stats.shed_queue_full, 0u64),
                _ => (&self.shared.stats.shed_saturated, 1u64),
            };
            stat.fetch_add(1, Ordering::Relaxed);
            zonal_obs::instant("serve shed", &[("reason", code)]);
        })?;

        let submitted = Instant::now();
        let (reply_tx, reply_rx) = channel::unbounded();
        let request = Request {
            query,
            zone_ids,
            admission,
            reply: reply_tx,
        };
        let sent = {
            let guard = self.submit_tx.lock().unwrap_or_else(|p| p.into_inner());
            match guard.as_ref() {
                Some(tx) => tx.send(request).is_ok(),
                None => false,
            }
        };
        if !sent {
            return Err(ServeError::ShuttingDown);
        }
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        zonal_obs::gauge("serve_queue_depth").record(self.shared.admission.depth() as u64);
        Ok(Ticket {
            rx: reply_rx,
            submitted,
        })
    }

    /// Submit and block for the answer.
    pub fn query(&self, query: ZonalQuery) -> Result<QueryResponse, ServeError> {
        self.submit(query)?.wait()
    }

    /// Swap the raster (all bands) and bump the store version,
    /// invalidating every cached answer. In-flight batches finish
    /// against their snapshot and report the version they used.
    pub fn update_raster(&self, bands: Vec<crate::store::Band>) -> u64 {
        self.shared.store.update(bands)
    }

    fn validate(&self, query: &ZonalQuery) -> Result<Vec<u32>, ServeError> {
        if query.n_bins == 0 {
            return Err(ServeError::InvalidQuery("n_bins must be positive".into()));
        }
        if query.n_bins > u16::MAX as usize {
            return Err(ServeError::InvalidQuery(format!(
                "n_bins = {} exceeds the u16 cell-value range",
                query.n_bins
            )));
        }
        let snap = self.shared.store.snapshot();
        if (query.band as usize) >= snap.n_bands() {
            return Err(ServeError::InvalidQuery(format!(
                "band {} out of range (store has {} band(s))",
                query.band,
                snap.n_bands()
            )));
        }
        let n_zones = self.shared.store.zones().len();
        if let ZoneSelection::Subset(ids) = &query.zones {
            if ids.is_empty() {
                return Err(ServeError::InvalidQuery("empty zone subset".into()));
            }
            if let Some(&bad) = ids.iter().find(|&&z| z as usize >= n_zones) {
                return Err(ServeError::InvalidQuery(format!(
                    "zone {bad} out of range (layer has {n_zones} zones)"
                )));
            }
        }
        Ok(query.zones.resolve(n_zones))
    }

    fn shutdown_impl(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Closing the submit side lets the dispatcher drain and exit,
        // which closes the work channel and drains the workers.
        self.submit_tx
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Stop admitting, finish every admitted request, join the pool,
    /// and return the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_impl();
        self.stats()
    }
}

impl Drop for ZonalService {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Dispatcher: pops the queue, waits out the coalescing window, groups
/// compatible requests, and hands batches to the workers.
fn dispatch_loop(shared: &Shared, submit_rx: &Receiver<Request>, work_tx: &Sender<Batch>) {
    zonal_obs::set_lane_name("serve-dispatch");
    while let Ok(first) = submit_rx.recv() {
        if !shared.cfg.batch_window.is_zero() {
            std::thread::sleep(shared.cfg.batch_window);
        }
        let mut pending = vec![first];
        while pending.len() < shared.cfg.max_batch {
            match submit_rx.try_recv() {
                Ok(r) => pending.push(r),
                Err(_) => break,
            }
        }
        // Group by plan key, preserving arrival order within each group.
        let mut groups: Vec<Batch> = Vec::new();
        for r in pending {
            let key = r.query.plan_key();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(r),
                None => groups.push((key, vec![r])),
            }
        }
        for batch in groups {
            if work_tx.send(batch).is_err() {
                return;
            }
        }
    }
}

fn worker_loop(shared: &Shared, work_rx: &Arc<Mutex<Receiver<Batch>>>, index: usize) {
    zonal_obs::set_lane_name(format!("serve-worker-{index}"));
    loop {
        // Take the next batch while holding the lock, then execute
        // without it so workers run batches concurrently.
        let batch = {
            let rx = work_rx.lock().unwrap_or_else(|p| p.into_inner());
            rx.recv()
        };
        match batch {
            Ok(b) => execute_batch(shared, b),
            Err(_) => return,
        }
    }
}

/// Run one coalesced batch: answer the plan from the cache, or run
/// `run_partitions` once for it and cache the merged histograms, then
/// fan rows back per request. A pass that panics answers every request
/// of the batch with [`ServeError::Internal`] and leaves the worker
/// serving.
fn execute_batch(shared: &Shared, (plan, requests): Batch) {
    let mut span = zonal_obs::span("serve batch");
    span.arg("band", plan.band as u64)
        .arg("bins", plan.n_bins as u64)
        .arg("queries", requests.len() as u64);
    let stats = &shared.stats;
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats
        .batched_queries
        .fetch_add(requests.len() as u64, Ordering::Relaxed);

    let snap = shared.store.snapshot();
    let partitions = snap.band(plan.band);
    let answer = shared
        .cache
        .get_or_insert_with((snap.version, plan), PlanAnswer::default);
    let from_cache = answer.get().is_some();
    // Only the batch that fills the cell runs the pass; a batch of the
    // same plan that finds it mid-fill waits here for that pass.
    let mut ran_pass = false;
    let hists = catch_unwind(AssertUnwindSafe(|| {
        answer.get_or_init(|| {
            ran_pass = true;
            let cfg = shared.cfg.pipeline.with_bins(plan.n_bins);
            run_partitions(&cfg, shared.store.zones(), partitions).hists
        })
    }))
    .map_err(|panic| {
        let why = panic.downcast_ref::<&str>().map(|s| s.to_string());
        ServeError::Internal(
            why.or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_default(),
        )
    });
    let n_rows: usize = requests.iter().map(|r| r.zone_ids.len()).sum();
    let (passes, rows) = if ran_pass {
        (&stats.pipeline_passes, &stats.row_cache_misses)
    } else {
        zonal_obs::counter("serve_batch_fully_cached").add(1);
        (&stats.partition_cache_hits, &stats.row_cache_hits)
    };
    passes.fetch_add(partitions.len() as u64, Ordering::Relaxed);
    rows.fetch_add(n_rows as u64, Ordering::Relaxed);

    // Fan out: each request gets its zones in request order.
    for request in requests {
        let result = hists.clone().map(|hists| QueryResponse {
            raster_version: snap.version,
            n_bins: plan.n_bins,
            rows: request
                .zone_ids
                .iter()
                .map(|&z| (z, hists.window(z as usize).to_dense(plan.n_bins)))
                .collect(),
            from_cache,
        });
        if result.is_ok() {
            stats.completed.fetch_add(1, Ordering::Relaxed);
        }
        // Release the slot before replying, so a client holding its
        // answer can be admitted again at once.
        drop(request.admission);
        let _ = request.reply.send((result, Instant::now()));
    }
    zonal_obs::gauge("serve_queue_depth").record(shared.admission.depth() as u64);
}
