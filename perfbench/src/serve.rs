//! `serve-mixed`: a `ZonalService` with the default `ServeConfig` over the
//! 3,100-zone layer and four BQ-encoded CONUS partitions at 60
//! cells/degree, driven by an open loop paced in this file. Most queries
//! repeat two plans (subset and all-zones): they fit the partition memo
//! but not the 4,096-row row cache, since one all-zones answer is 3,100
//! rows. A trickle of fresh bin specs forces cold passes, and a periodic
//! `update_raster` swaps between two pre-encoded raster versions, so
//! writes invalidate both caches while reads continue.
//!
//! The median query is a row-cache hit and the p99 a query stuck behind a
//! swap's cold passes; the constants below keep each percentile inside
//! its population. While cold passes run they hold both cores, and every
//! query due meanwhile slows: with eight partitions at 50 q/s and a swap
//! every 2 s that was 40-50% of queries, and the median moved between
//! 1.6 and 4.4 ms from run to run.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zonal_bqtree::{compress_source, decode_tile, BqRaster};
use zonal_core::pipeline::{run_partition, run_partitions, Zones};
use zonal_core::{pair_tiles, PipelineConfig, ZonalResult};
use zonal_geo::CountyConfig;
use zonal_gpusim::DeviceSpec;
use zonal_obs::span;
use zonal_raster::partition::Partition;
use zonal_raster::srtm::{SrtmCatalog, SyntheticSrtm};
use zonal_raster::TileSource;
use zonal_serve::{
    Band, PartitionSource, RasterStore, ServeConfig, ServeError, ServeStats, Ticket, ZonalQuery,
    ZonalService, ZoneSelection,
};

use crate::ledger::{Outcome, Report, ROOT_SETUP, ROOT_TIMED};
use crate::util::{cpu_times, digest_rows, median, ordered_pass, par_map, quantile, Rng};
use crate::{export, nproc, traced, Args, Env, BENCH_THREADS, TERRAIN_SEED};

const CELLS_PER_DEGREE: u32 = 60;
/// Served partitions: the first four pieces of the west-south raster.
/// A fresh-plan query over them takes 150-200 ms on two cores.
const PARTITIONS: usize = 4;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Offered load, queries per second, evenly spaced. A swap's burst holds
/// every query due during its cold passes in the service; at 100 q/s a
/// 0.6 s burst reached the default 64-request queue and was shed.
const RATE: f64 = 50.0;
/// Bin specs the repeated plans use.
const REPEATED_BINS: [usize; 2] = [64, 128];
/// Fixed zone-subset queries per repeated plan (a dashboard's panels),
/// each of up to `MAX_SUBSET` zones.
const SUBSETS_PER_PLAN: usize = 4;
const MAX_SUBSET: usize = 16;
/// Every this many queries, one asks a repeated plan for every zone.
const ALL_ZONES_EVERY: usize = 20;
/// Every this many queries, one uses a bin spec no other query uses.
const FRESH_EVERY: usize = 150;
/// Direct pipeline passes on each side of the tracing-overhead
/// comparison: single passes take a fraction of a second and vary by
/// 15% either way with host noise.
const OVERHEAD_PASSES: usize = 11;
/// Seconds between raster swaps. Each swap makes a burst of slow queries
/// behind its cold passes, and the p99 is set by the worst few bursts:
/// at 4 s (five bursts a run) one bad burst moved it by 90%. At 2 s, with
/// a fresh plan every 2 s as well, so many hits fell due while cold passes
/// held the cores that the median moved by 18% between runs.
const UPDATE_EVERY_S: f64 = 3.0;

fn config() -> PipelineConfig {
    PipelineConfig::paper(DeviceSpec::gtx_titan())
}

fn cell_factor() -> f64 {
    let f = SrtmCatalog::new(CELLS_PER_DEGREE).scale_factor();
    f * f
}

fn served_partitions() -> Vec<Partition> {
    SrtmCatalog::new(CELLS_PER_DEGREE)
        .partitions()
        .into_iter()
        .filter(|p| p.raster_name == "west-south")
        .take(PARTITIONS)
        .collect()
}

struct Setup {
    zones: Arc<Zones>,
    /// Two raster versions, by index: the store starts on version 0.
    encoded: [Vec<Arc<BqRaster>>; 2],
}

impl Setup {
    fn band(&self, raster: usize) -> Band {
        sources(&self.encoded[raster])
            .into_iter()
            .map(PartitionSource::new)
            .collect()
    }
}

/// A shared encoded partition, so both raster versions stay encoded once
/// however often the store swaps them.
struct SharedBq(Arc<BqRaster>);

impl TileSource for SharedBq {
    fn grid(&self) -> &zonal_raster::TileGrid {
        self.0.grid()
    }

    fn tile(&self, tx: usize, ty: usize) -> zonal_raster::TileData {
        self.0.tile(tx, ty)
    }

    fn tile_encoded_bytes(&self, tx: usize, ty: usize) -> usize {
        self.0.tile_encoded_bytes(tx, ty)
    }
}

fn sources(band: &[Arc<BqRaster>]) -> Vec<SharedBq> {
    band.iter().map(|b| SharedBq(Arc::clone(b))).collect()
}

fn encode_version(terrain_seed: u64) -> Vec<Arc<BqRaster>> {
    let cfg = config();
    let parts = served_partitions();
    par_map(parts.len(), BENCH_THREADS, |i| {
        let grid = parts[i].grid(cfg.tile_deg);
        let raster = {
            let _s = span("raster.synth");
            SyntheticSrtm::new(grid.clone(), terrain_seed).to_raster()
        };
        let _s = span("bqtree.encode");
        Arc::new(compress_source(&raster.tile_source(&grid)))
    })
}

fn start_service(zones: &Arc<Zones>, band: Band) -> ZonalService {
    let _s = span("serve.start");
    let store = Arc::new(RasterStore::new(Zones::clone(zones), band));
    ZonalService::start(store, ServeConfig::new(config()))
}

fn setup(seed: u64) -> (Setup, ZonalService) {
    let zones = {
        let _s = span("geo.zones");
        Arc::new(Zones::new(CountyConfig::us_like(seed).generate()))
    };
    let s = Setup {
        zones,
        encoded: [
            encode_version(TERRAIN_SEED),
            encode_version(TERRAIN_SEED ^ 0xB),
        ],
    };
    let service = start_service(&s.zones, s.band(0));
    (s, service)
}

/// One scheduled query.
struct Planned {
    due: Duration,
    query: ZonalQuery,
    fresh: bool,
}

/// A subset of 1 to `MAX_SUBSET` distinct zones.
fn random_subset(rng: &mut Rng, n_zones: usize) -> Vec<u32> {
    let k = 1 + rng.below(MAX_SUBSET);
    let mut zones: Vec<u32> = Vec::with_capacity(k);
    while zones.len() < k {
        let z = rng.below(n_zones) as u32;
        if !zones.contains(&z) {
            zones.push(z);
        }
    }
    zones
}

/// The repeated queries: every plan's all-zones query, then its subsets
/// (the order a warm-up must follow for the subsets to stay cached).
fn repeated_queries(rng: &mut Rng, n_zones: usize) -> Vec<ZonalQuery> {
    let mut out: Vec<ZonalQuery> = REPEATED_BINS
        .iter()
        .map(|&b| ZonalQuery::all_zones(b))
        .collect();
    for &bins in &REPEATED_BINS {
        for _ in 0..SUBSETS_PER_PLAN {
            out.push(ZonalQuery::zone_subset(bins, random_subset(rng, n_zones)));
        }
    }
    out
}

/// The whole open-loop schedule: the repeated queries, evenly spaced
/// queries for `seconds`, and the raster swaps. Which kind of query
/// comes when is fixed, so seeds differ only in the zones asked for.
fn schedule(seed: u64, seconds: f64, n_zones: usize) -> Schedule {
    let mut rng = Rng::new(seed);
    let repeated = repeated_queries(&mut rng, n_zones);
    let n_plans = REPEATED_BINS.len();
    let n = (seconds * RATE).ceil() as usize;
    let mut fresh_bins = REPEATED_BINS[0] + 1;
    let queries = (0..n)
        .map(|i| {
            let due = Duration::from_secs_f64(i as f64 / RATE);
            let fresh = i % FRESH_EVERY == FRESH_EVERY / 2;
            let query = if fresh {
                while REPEATED_BINS.contains(&fresh_bins) {
                    fresh_bins += 1;
                }
                fresh_bins += 1;
                ZonalQuery::zone_subset(fresh_bins - 1, random_subset(&mut rng, n_zones))
            } else if i % ALL_ZONES_EVERY == ALL_ZONES_EVERY / 2 {
                repeated[(i / ALL_ZONES_EVERY) % n_plans].clone()
            } else {
                repeated[n_plans + i % (n_plans * SUBSETS_PER_PLAN)].clone()
            };
            Planned { due, query, fresh }
        })
        .collect();
    let updates = (1..)
        .map(|k| Duration::from_secs_f64(k as f64 * UPDATE_EVERY_S))
        .take_while(|d| d.as_secs_f64() < seconds)
        .collect();
    Schedule {
        repeated,
        queries,
        updates,
    }
}

struct Schedule {
    repeated: Vec<ZonalQuery>,
    queries: Vec<Planned>,
    updates: Vec<Duration>,
}

/// What became of one scheduled query.
struct Answered {
    fresh: bool,
    /// From the due time to the server's completion instant.
    latency_ms: f64,
    /// `(store version, bins, zones asked for, digest of the rows)`.
    answer: Option<(u64, usize, ZoneSelection, u64)>,
}

struct LoopResult {
    answered: Vec<Answered>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    /// Store version → raster index.
    versions: HashMap<u64, usize>,
    stats: ServeStats,
}

/// Pace the schedule on this thread and redeem tickets on one drain
/// thread. Latency runs from each query's due time, so a stall delays
/// every query due behind it.
fn open_loop(s: &Setup, service: &ZonalService, sched: &Schedule) -> LoopResult {
    // Warm the memo and the row cache the way a long-running service is:
    // users do not pay the first-ever cold passes on every query.
    let warm = span("serve.warmup");
    for q in &sched.repeated {
        if let Err(e) = service.query(q.clone()) {
            eprintln!("warm-up query failed: {e}");
        }
    }
    drop(warm);
    let (plan, updates) = (&sched.queries, &sched.updates);
    let mut versions = HashMap::from([(service.store().version(), 0usize)]);
    let mut current = 0usize;
    let mut late_ms = Vec::with_capacity(plan.len());
    let mut submit_us = Vec::with_capacity(plan.len());
    type Sent = (usize, Duration, Result<Ticket, ServeError>);
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now();
    let answered = std::thread::scope(|scope| {
        let drain = scope.spawn(move || {
            zonal_obs::set_lane_name("bench drain");
            let mut out: Vec<Answered> = Vec::new();
            for (i, waited_before_submit, ticket) in rx {
                let p = &plan[i];
                let mut a = Answered {
                    fresh: p.fresh,
                    latency_ms: f64::NAN,
                    answer: None,
                };
                if let Ok(ticket) = ticket {
                    let _s = span("serve.wait");
                    if let Ok((resp, served)) = ticket.wait_timed() {
                        a.latency_ms = (waited_before_submit + served).as_secs_f64() * 1e3;
                        let digest = digest_rows(resp.rows.iter().map(|(z, r)| (*z, r.as_slice())));
                        a.answer = Some((
                            resp.raster_version,
                            resp.n_bins,
                            p.query.zones.clone(),
                            digest,
                        ));
                    }
                }
                out.push(a);
            }
            out
        });
        let mut next_update = 0;
        for (i, p) in plan.iter().enumerate() {
            while next_update < updates.len() && updates[next_update] <= p.due {
                sleep_until(start + updates[next_update]);
                current ^= 1;
                let _s = span("serve.update_raster");
                let v = service.update_raster(vec![s.band(current)]);
                versions.insert(v, current);
                next_update += 1;
            }
            sleep_until(start + p.due);
            let due_at = start + p.due;
            late_ms.push(due_at.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let ticket = {
                let _s = span("serve.submit");
                service.submit(p.query.clone())
            };
            submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            // Time from due to the end of submit; the ticket adds the
            // time from submit to the server's completion instant.
            if tx.send((i, due_at.elapsed(), ticket)).is_err() {
                break;
            }
        }
        drop(tx);
        drain.join().expect("drain thread panicked")
    });
    LoopResult {
        answered,
        late_ms,
        submit_us,
        versions,
        stats: service.stats(),
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        let _s = span("loadgen.sleep");
        std::thread::sleep(t - now);
    }
}

/// Direct `run_partitions` answers, by `(raster index, bins)`: the
/// reference served answers are checked against.
type References = HashMap<(usize, usize), ZonalResult>;

/// The direct answer for one raster version and bin spec, computed on
/// first use.
fn reference<'a>(
    s: &Setup,
    refs: &'a mut References,
    raster: usize,
    bins: usize,
) -> &'a ZonalResult {
    refs.entry((raster, bins)).or_insert_with(|| {
        run_partitions(
            &config().with_bins(bins),
            &s.zones,
            &sources(&s.encoded[raster]),
        )
    })
}

/// Check every answer against the direct computation for its raster
/// version and bin spec, computing references as needed.
fn check(s: &Setup, run: &LoopResult, refs: &mut References, report: &mut Report) {
    let n_zones = s.zones.len();
    for a in &run.answered {
        let Some((version, bins, zones, digest)) = &a.answer else {
            report.op(Outcome::Failed);
            continue;
        };
        let Some(&raster) = run.versions.get(version) else {
            report.op(Outcome::Mismatch);
            continue;
        };
        let want = reference(s, refs, raster, *bins);
        let ids = zones.resolve(n_zones);
        let expect = digest_rows(ids.iter().map(|&z| (z, want.hists.zone(z as usize))));
        report.op(Outcome::matching(expect == *digest));
    }
}

fn latencies(run: &LoopResult, fresh_only: bool) -> Vec<f64> {
    run.answered
        .iter()
        .filter(|a| a.answer.is_some() && (!fresh_only || a.fresh))
        .map(|a| a.latency_ms)
        .collect()
}

fn environment(s: &Setup, plan: &[Planned]) -> Env {
    let grids: Vec<_> = s.encoded[0].iter().map(|b| b.grid().clone()).collect();
    let mut plans: Vec<usize> = plan.iter().map(|p| p.query.n_bins).collect();
    plans.sort_unstable();
    plans.dedup();
    Env {
        threads: vec![
            ("serve_workers", ServeConfig::new(config()).workers),
            ("serve_dispatcher", 1),
            ("decoder_threads_per_worker", 1),
            ("loadgen_threads", 2),
            ("reference_run_partitions_workers", nproc().min(PARTITIONS)),
        ],
        sizes: vec![
            (
                "cells",
                grids
                    .iter()
                    .map(|g| (g.raster_rows() * g.raster_cols()) as u64)
                    .sum(),
            ),
            ("tiles", grids.iter().map(|g| g.n_tiles() as u64).sum()),
            ("zones", s.zones.len() as u64),
            ("partitions", PARTITIONS as u64),
            ("raster_versions", 2),
            ("plans", plans.len() as u64),
            ("queries", plan.len() as u64),
        ],
    }
}

pub fn run(args: &Args) -> (Env, Report) {
    let mut report = Report::default();
    let mut refs = References::new();
    if !args.traced {
        let mut setup_secs = Vec::new();
        let mut built = None;
        for _ in 0..SETUPS {
            drop(built.take());
            let t = Instant::now();
            built = Some(setup(args.seed));
            setup_secs.push(t.elapsed().as_secs_f64());
        }
        let (s, service) = built.expect("at least one set-up");
        let sched = schedule(args.seed, args.seconds, s.zones.len());
        let run = open_loop(&s, &service, &sched);
        service.shutdown();
        check(&s, &run, &mut refs, &mut report);
        let lat = latencies(&run, false);
        let profile: Vec<String> = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0]
            .iter()
            .map(|&p| format!("p{} {:.2}", p * 100.0, quantile(&lat, p)))
            .collect();
        println!(
            "latency from due over {} answers (ms): {}; fresh-plan p50 {:.2}; generator late p99 {:.3}",
            lat.len(),
            profile.join(" "),
            median(&latencies(&run, true)),
            quantile(&run.late_ms, 0.99)
        );
        report.set("setup_s", median(&setup_secs));
        report.set("latency_p50_ms", median(&lat));
        report.set("latency_p99_ms", quantile(&lat, 0.99));
        return (environment(&s, &sched.queries), report);
    }

    let setup_run = traced(ROOT_SETUP, || setup(args.seed));
    let (s, service) = setup_run.value;
    let sched = schedule(args.seed, args.seconds, s.zones.len());

    let (user0, sys0) = cpu_times();
    let run = open_loop(&s, &service, &sched);
    let (user1, sys1) = cpu_times();
    service.shutdown();
    check(&s, &run, &mut refs, &mut report);

    // Overhead is measured on direct passes of the pipeline the service
    // runs, untraced and then traced: the median of each side.
    let direct = || {
        let cfg = config().with_bins(REPEATED_BINS[0]);
        let walls: Vec<f64> = (0..OVERHEAD_PASSES)
            .map(|_| {
                let _s = span("zonal.run_partitions");
                let t = Instant::now();
                std::hint::black_box(run_partitions(&cfg, &s.zones, &sources(&s.encoded[0])));
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&walls)
    };
    let untraced_pass_s = direct();

    let mut traced_pass_s = 0.0;
    let mut per_partition = None;
    let mut decoded_cells = 0u64;
    let mut traced_loop = None;
    let timed = traced(ROOT_TIMED, || {
        // Before the loop: passes made right after a loop and its
        // shutdown ran at twice their time for about a second.
        traced_pass_s = direct();
        let service = start_service(&s.zones, s.band(0));
        traced_loop = Some(open_loop(&s, &service, &sched));
        {
            let _s = span("serve.shutdown");
            service.shutdown();
        }

        let band = sources(&s.encoded[0]);
        for src in &band {
            let _s = span("zonal.pair");
            std::hint::black_box(pair_tiles(&s.zones.layer, src.grid()));
        }
        let cfg = config().with_bins(REPEATED_BINS[0]);
        let merged = ordered_pass(band.len(), BENCH_THREADS, |i| {
            run_partition(&cfg, &s.zones, &band[i])
        });
        per_partition = Some(merged);
        for bq in s.encoded[0].iter() {
            let _s = span("bqtree.decode");
            let g = bq.grid();
            for id in 0..g.n_tiles() {
                let (tx, ty) = g.tile_pos(id);
                decoded_cells +=
                    std::hint::black_box(decode_tile(bq.encoded_tile(tx, ty))).len() as u64;
            }
        }
    });
    let dropped = setup_run.trace.dropped + timed.trace.dropped;
    let traced_loop = traced_loop.expect("traced phase ran");
    check(&s, &traced_loop, &mut refs, &mut report);
    let merged = per_partition.expect("traced phase ran");
    let want = reference(&s, &mut refs, 0, REPEATED_BINS[0]);
    report.op(Outcome::matching(want.hists == merged.hists));
    let ledger = export(args, setup_run.trace, setup_run.started, timed);

    let lat = latencies(&run, false);
    report.set("serve_p50_ms", median(&lat));
    report.set("serve_p99_ms", quantile(&lat, 0.99));
    report.set("serve_cold_p50_ms", median(&latencies(&run, true)));
    report.set("loadgen.late_p99_ms", quantile(&run.late_ms, 0.99));
    report.set("serve.submit_us", median(&run.submit_us));
    report.set("serve.row_hit_rate", run.stats.row_cache_hit_rate());
    report.set("serve.memo_hits", run.stats.partition_cache_hits as f64);
    report.set("serve.pipeline_passes", run.stats.pipeline_passes as f64);
    report.set("serve.mean_batch", run.stats.mean_batch_size());
    report.set("serve.shed_queue_full", run.stats.shed_queue_full as f64);
    report.set("serve.shed_saturated", run.stats.shed_saturated as f64);
    report.set("proc.user_s", user1 - user0);
    report.set("proc.sys_s", sys1 - sys0);
    report.set("geo.zones_s", ledger.total_s("geo.zones"));
    report.set("raster.synth_s", ledger.total_s("raster.synth"));
    report.set("bqtree.encode_s", ledger.total_s("bqtree.encode"));
    report.set(
        "bqtree.encoded_bytes",
        s.encoded
            .iter()
            .flat_map(|v| v.iter())
            .map(|b| b.stats().encoded_bytes as f64)
            .sum(),
    );
    report.set(
        "bqtree.decode_ns_per_cell",
        ledger.total_s("bqtree.decode") * 1e9 / decoded_cells.max(1) as f64,
    );
    report.set("zonal.pair_s", ledger.total_s("zonal.pair"));
    let parts = ledger
        .durations
        .get("zonal.partition")
        .cloned()
        .unwrap_or_default();
    report.set("zonal.partition_s_p50", median(&parts));
    report.set("zonal.partition_s_max", quantile(&parts, 1.0));
    report.set("zonal.merge_s", ledger.total_s("zonal.merge"));
    report.zonal_layer(&merged, cell_factor());
    report.set("obs.overhead_frac", traced_pass_s / untraced_pass_s - 1.0);
    report.set("obs.dropped_events", dropped as f64);
    report.set("obs.span_coverage_frac", ledger.coverage);
    if !ledger.nested {
        eprintln!("error: benchmark spans do not nest inside the traced phases");
        report.op(Outcome::Mismatch);
    }
    (environment(&s, &sched.queries), report)
}
