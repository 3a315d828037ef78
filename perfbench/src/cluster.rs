//! `cluster-16`: `run_cluster` on 16 simulated Titan nodes over the full
//! catalog at 60 cells/degree, fault-free. The only workload through the
//! cluster gather, combine and checksum path; 16 node threads
//! oversubscribe the host's cores, and nodes synthesize terrain inline.

use std::sync::Mutex;
use std::time::Instant;

use zonal_cluster::{run_cluster, ClusterConfig, ClusterRun};
use zonal_core::pipeline::{run_partition, Zones};
use zonal_core::{pair_tiles, PipelineTimings, ZonalResult};
use zonal_geo::CountyConfig;
use zonal_obs::span;
use zonal_raster::partition::{assign_round_robin, Partition};
use zonal_raster::srtm::{SrtmCatalog, SyntheticSrtm};

use crate::ledger::{sim_split, Outcome, Report, ROOT_SETUP, ROOT_TIMED};
use crate::util::{cpu_times, median, ordered_pass, quantile};
use crate::{export, nproc, traced, Args, Env, BENCH_THREADS, TERRAIN_SEED};

const CELLS_PER_DEGREE: u32 = 60;
const NODES: usize = 16;
/// Set-ups per untraced run; `setup_s` is their median. Set-up is only
/// the zone layer here (nodes synthesize terrain inline), a few
/// milliseconds, so it is repeated more often than elsewhere.
const SETUPS: usize = 31;
/// Cluster runs per run at least, however short `--seconds` is.
const MIN_RUNS: usize = 2;

/// Nodes synthesize the fixed terrain; the workload seed draws the zones.
fn config() -> ClusterConfig {
    ClusterConfig::titan(NODES, CELLS_PER_DEGREE, TERRAIN_SEED)
}

fn cell_factor() -> f64 {
    let f = SrtmCatalog::new(CELLS_PER_DEGREE).scale_factor();
    f * f
}

fn setup(seed: u64) -> Zones {
    let _s = span("geo.zones");
    Zones::new(CountyConfig::us_like(seed).generate())
}

/// The reference: the single-node job, every partition through the
/// pipeline on the benchmark's threads, merged in partition order.
/// Also returns each partition's timings, for the per-node split of
/// simulated seconds.
fn single_node(zones: &Zones) -> (ZonalResult, Vec<PipelineTimings>) {
    let cfg = config().pipeline;
    let parts = SrtmCatalog::new(CELLS_PER_DEGREE).partitions();
    let timings: Mutex<Vec<Option<PipelineTimings>>> = Mutex::new(vec![None; parts.len()]);
    let merged = ordered_pass(parts.len(), BENCH_THREADS, |i| {
        let src = SyntheticSrtm::new(parts[i].grid(cfg.tile_deg), TERRAIN_SEED);
        let r = run_partition(&cfg, zones, &src);
        timings.lock().expect("timings lock poisoned")[i] = Some(r.timings.clone());
        r
    });
    let timings = timings
        .into_inner()
        .expect("timings lock poisoned")
        .into_iter()
        .map(|t| t.expect("every partition ran"))
        .collect();
    (merged, timings)
}

/// Back-to-back cluster runs for at least `seconds`; returns each run's
/// wall seconds.
fn timed_runs(zones: &Zones, want: &ZonalResult, seconds: f64, report: &mut Report) -> Vec<f64> {
    let cfg = config();
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let run = run_cluster(&cfg, zones);
        walls.push(t.elapsed().as_secs_f64());
        match run {
            Ok(run) => report.op(Outcome::matching(run.hists == want.hists)),
            Err(e) => {
                eprintln!("cluster run failed: {e}");
                report.op(Outcome::Failed);
            }
        }
    }
    walls
}

/// Counted and wall-derived parts of a cluster run's simulated seconds.
/// The slowest node's counted part is re-priced from the same
/// partitions' counted work (deterministic, so identical to what that
/// node counted); everything else in `sim_secs` beyond it and the
/// simulated MPI time is measured host wall (Step 2 and the combine).
fn cluster_sim_split(run: &ClusterRun, per_partition: &[PipelineTimings]) -> (f64, f64) {
    let slowest = run
        .nodes
        .iter()
        .max_by(|a, b| a.sim_secs.total_cmp(&b.sim_secs))
        .map_or(0, |n| n.rank);
    let owned = &assign_round_robin(per_partition.len(), NODES)[slowest];
    let counted_node = owned.split_first().map_or(0.0, |(&first, rest)| {
        let mut t = per_partition[first].clone();
        for &i in rest {
            t.accumulate(&per_partition[i]);
        }
        sim_split(&t, cell_factor()).0
    });
    let counted = counted_node + run.comm_secs + run.recovery_secs;
    (counted, run.sim_secs - counted)
}

fn environment(zones: &Zones) -> Env {
    let catalog = SrtmCatalog::new(CELLS_PER_DEGREE);
    let parts: Vec<Partition> = catalog.partitions();
    let tile_deg = config().pipeline.tile_deg;
    let tiles: u64 = parts
        .iter()
        .map(|p| p.grid(tile_deg).n_tiles() as u64)
        .sum();
    let per_node = assign_round_robin(parts.len(), NODES)
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    Env {
        threads: vec![
            ("cluster_node_threads", NODES),
            ("node_run_partitions_workers", nproc().min(per_node)),
            ("decoder_threads_per_worker", 1),
            ("bench_threads", BENCH_THREADS),
        ],
        sizes: vec![
            ("cells", catalog.total_cells()),
            ("tiles", tiles),
            ("zones", zones.len() as u64),
            ("partitions", parts.len() as u64),
            ("nodes", NODES as u64),
            ("plans", 1),
            ("bins", config().pipeline.n_bins as u64),
        ],
    }
}

pub fn run(args: &Args) -> (Env, Report) {
    let mut report = Report::default();
    let seed = args.seed;
    if !args.traced {
        let mut setup_secs = Vec::new();
        let mut zones = None;
        for _ in 0..SETUPS {
            drop(zones.take());
            let t = Instant::now();
            zones = Some(setup(seed));
            setup_secs.push(t.elapsed().as_secs_f64());
        }
        let zones = zones.expect("at least one set-up");
        let (want, _) = single_node(&zones);
        let walls = timed_runs(&zones, &want, args.seconds, &mut report);
        report.set("setup_s", median(&setup_secs));
        report.set("latency_p50_ms", 1e3 * median(&walls));
        report.set("latency_p99_ms", 1e3 * quantile(&walls, 0.99));
        return (environment(&zones), report);
    }

    let setup_run = traced(ROOT_SETUP, || setup(seed));
    let zones = setup_run.value;
    let (want, per_partition) = single_node(&zones);

    let (user0, sys0) = cpu_times();
    let walls = timed_runs(&zones, &want, args.seconds, &mut report);
    let (user1, sys1) = cpu_times();
    let untraced_s = median(&walls);

    let mut traced_run_s = 0.0;
    let mut traced_run = None;
    let mut one_node = None;
    let timed = traced(ROOT_TIMED, || {
        let t = Instant::now();
        let run = {
            let _s = span("cluster.run_cluster");
            run_cluster(&config(), &zones)
        };
        traced_run_s = t.elapsed().as_secs_f64();
        match run {
            Ok(run) => {
                let same = {
                    let _s = span("bench.check");
                    run.hists == want.hists
                };
                report.op(Outcome::matching(same));
                traced_run = Some(run);
            }
            Err(e) => {
                eprintln!("traced cluster run failed: {e}");
                report.op(Outcome::Failed);
            }
        }

        let cfg = config().pipeline;
        let parts = SrtmCatalog::new(CELLS_PER_DEGREE).partitions();
        for p in &parts {
            let _s = span("raster.synth");
            std::hint::black_box(
                SyntheticSrtm::new(p.grid(cfg.tile_deg), TERRAIN_SEED).to_raster(),
            );
        }
        for p in &parts {
            let _s = span("zonal.pair");
            std::hint::black_box(pair_tiles(&zones.layer, &p.grid(cfg.tile_deg)));
        }
        let (merged, _) = single_node(&zones);
        let same = {
            let _s = span("bench.check");
            merged.hists == want.hists
        };
        report.op(Outcome::matching(same));
        one_node = Some(merged);
    });
    let dropped = setup_run.trace.dropped + timed.trace.dropped;
    let ledger = export(args, setup_run.trace, setup_run.started, timed);

    report.set("cluster_s", untraced_s);
    report.set("proc.user_s", user1 - user0);
    report.set("proc.sys_s", sys1 - sys0);
    report.set("geo.zones_s", ledger.total_s("geo.zones"));
    report.set("raster.synth_s", ledger.total_s("raster.synth"));
    report.set("zonal.pair_s", ledger.total_s("zonal.pair"));
    let parts = ledger
        .durations
        .get("zonal.partition")
        .cloned()
        .unwrap_or_default();
    report.set("zonal.partition_s_p50", median(&parts));
    report.set("zonal.partition_s_max", quantile(&parts, 1.0));
    report.set("zonal.merge_s", ledger.total_s("zonal.merge"));
    report.zonal_layer(&one_node.expect("traced phase ran"), cell_factor());
    if let Some(run) = &traced_run {
        let (counted, wall) = cluster_sim_split(run, &per_partition);
        report.set("gpusim.sim_titan_e2e_s", run.sim_secs);
        report.set("gpusim.sim_counted_s", counted);
        report.set("gpusim.sim_wall_derived_s", wall);
        report.set("cluster.comm_s", run.comm_secs);
        report.set("cluster.combine_s", run.combine_secs);
        report.set("cluster.imbalance", run.imbalance.max_over_mean);
        report.set("cluster.retransmits", run.retransmits as f64);
    }
    report.set("obs.overhead_frac", traced_run_s / untraced_s - 1.0);
    report.set("obs.dropped_events", dropped as f64);
    report.set("obs.span_coverage_frac", ledger.coverage);
    if !ledger.nested {
        eprintln!("error: benchmark spans do not nest inside the traced phases");
        report.op(Outcome::Mismatch);
    }
    (environment(&zones), report)
}
