//! `catalog`: the paper's Table 2 job. The full 36-partition Table 1
//! catalog at 120 cells/degree, BQ-Tree encoded in set-up, histogrammed
//! into the 3,100-county layer at 1,000 bins (see [`BINS`]) with
//! `run_partitions`.
//! Decode-, Step 1- and Step 4-heavy.

use std::time::Instant;

use zonal_bqtree::{compress_source, decode_tile, BqRaster};
use zonal_core::pipeline::{run_partition, run_partitions, Zones};
use zonal_core::{pair_tiles, PipelineConfig, ZonalResult};
use zonal_geo::CountyConfig;
use zonal_gpusim::DeviceSpec;
use zonal_obs::span;
use zonal_raster::srtm::{SrtmCatalog, SyntheticSrtm};
use zonal_raster::{Raster, TileGrid, TileSource};

use crate::ledger::{Outcome, Report, ROOT_SETUP, ROOT_TIMED};
use crate::util::{cpu_times, median, ordered_pass, par_map, quantile};
use crate::{export, nproc, traced, Args, Env, BENCH_THREADS, TERRAIN_SEED};

const CELLS_PER_DEGREE: u32 = 120;
/// The paper bins elevations into 5,000 bins. Every tile carries a
/// histogram of that width, so at 5,000 bins a run peaked at 4.4 GiB and
/// its 5-8 s passes drifted by a third between runs on a shared host. At
/// 1,000 bins a 144-cell tile still fills a small share of its bins, the
/// Step 4 and histogram work keep their shape, and a run peaks near 1 GiB.
const BINS: usize = 1000;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Full-catalog passes per run at least, however short `--seconds` is.
const MIN_PASSES: usize = 2;

fn config() -> PipelineConfig {
    PipelineConfig::paper(DeviceSpec::gtx_titan()).with_bins(BINS)
}

fn cell_factor() -> f64 {
    let f = SrtmCatalog::new(CELLS_PER_DEGREE).scale_factor();
    f * f
}

struct Setup {
    zones: Zones,
    grids: Vec<TileGrid>,
    rasters: Vec<Raster>,
    encoded: Vec<BqRaster>,
}

/// Generate the county layer, synthesize every partition, and encode it.
fn setup(seed: u64) -> Setup {
    let zones = {
        let _s = span("geo.zones");
        Zones::new(CountyConfig::us_like(seed).generate())
    };
    let cfg = config();
    let parts = SrtmCatalog::new(CELLS_PER_DEGREE).partitions();
    let built = par_map(parts.len(), BENCH_THREADS, |i| {
        let grid = parts[i].grid(cfg.tile_deg);
        let raster = {
            let _s = span("raster.synth");
            SyntheticSrtm::new(grid.clone(), TERRAIN_SEED).to_raster()
        };
        let bq = {
            let _s = span("bqtree.encode");
            compress_source(&raster.tile_source(&grid))
        };
        (grid, raster, bq)
    });
    let mut s = Setup {
        zones,
        grids: Vec::new(),
        rasters: Vec::new(),
        encoded: Vec::new(),
    };
    for (grid, raster, bq) in built {
        s.grids.push(grid);
        s.rasters.push(raster);
        s.encoded.push(bq);
    }
    s
}

/// The reference: the same job over the uncompressed rasters (no Step 0
/// decode), merged in partition order by the benchmark.
fn reference(s: &Setup) -> ZonalResult {
    let cfg = config();
    ordered_pass(s.rasters.len(), BENCH_THREADS, |i| {
        run_partition(&cfg, &s.zones, &s.rasters[i].tile_source(&s.grids[i]))
    })
}

/// Back-to-back full-catalog passes for at least `seconds`; returns each
/// pass's wall seconds.
fn timed_passes(s: &Setup, want: &ZonalResult, seconds: f64, report: &mut Report) -> Vec<f64> {
    let cfg = config();
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let r = run_partitions(&cfg, &s.zones, &s.encoded);
        walls.push(t.elapsed().as_secs_f64());
        report.op(Outcome::matching(r.hists == want.hists));
    }
    walls
}

fn environment(s: &Setup) -> Env {
    let cells: u64 = s.rasters.iter().map(|r| r.len() as u64).sum();
    let tiles: u64 = s.grids.iter().map(|g| g.n_tiles() as u64).sum();
    let workers = nproc().min(s.encoded.len());
    Env {
        threads: vec![
            ("run_partitions_workers", workers),
            ("decoder_threads", workers),
            ("bench_threads", BENCH_THREADS),
        ],
        sizes: vec![
            ("cells", cells),
            ("tiles", tiles),
            ("zones", s.zones.len() as u64),
            ("partitions", s.encoded.len() as u64),
            ("plans", 1),
            ("bins", config().n_bins as u64),
        ],
    }
}

pub fn run(args: &Args) -> (Env, Report) {
    let mut report = Report::default();
    if !args.traced {
        let mut setup_secs = Vec::new();
        let mut s = None;
        for _ in 0..SETUPS {
            drop(s.take());
            let t = Instant::now();
            s = Some(setup(args.seed));
            setup_secs.push(t.elapsed().as_secs_f64());
        }
        let s = s.expect("at least one set-up");
        let want = reference(&s);
        let walls = timed_passes(&s, &want, args.seconds, &mut report);
        report.set("setup_s", median(&setup_secs));
        report.set("latency_p50_ms", 1e3 * median(&walls));
        report.set("latency_p99_ms", 1e3 * quantile(&walls, 0.99));
        return (environment(&s), report);
    }

    let setup_run = traced(ROOT_SETUP, || setup(args.seed));
    let s = setup_run.value;
    let want = reference(&s);

    let (user0, sys0) = cpu_times();
    let walls = timed_passes(&s, &want, args.seconds, &mut report);
    let (user1, sys1) = cpu_times();
    let untraced_s = median(&walls);

    let mut traced_pass_s = 0.0;
    let mut per_partition: Option<ZonalResult> = None;
    let mut decoded_cells = 0u64;
    let timed = traced(ROOT_TIMED, || {
        let cfg = config();
        let t = Instant::now();
        let r = {
            let _s = span("zonal.run_partitions");
            run_partitions(&cfg, &s.zones, &s.encoded)
        };
        traced_pass_s = t.elapsed().as_secs_f64();
        let same = {
            let _s = span("bench.check");
            r.hists == want.hists
        };
        report.op(Outcome::matching(same));
        drop(r);

        for g in &s.grids {
            let _s = span("zonal.pair");
            std::hint::black_box(pair_tiles(&s.zones.layer, g));
        }
        let merged = ordered_pass(s.encoded.len(), BENCH_THREADS, |i| {
            run_partition(&cfg, &s.zones, &s.encoded[i])
        });
        let same = {
            let _s = span("bench.check");
            merged.hists == want.hists
        };
        report.op(Outcome::matching(same));
        per_partition = Some(merged);

        for bq in &s.encoded {
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
    let ledger = export(args, setup_run.trace, setup_run.started, timed);
    let merged = per_partition.expect("traced phase ran");

    report.set("catalog_s", untraced_s);
    report.set("proc.user_s", user1 - user0);
    report.set("proc.sys_s", sys1 - sys0);
    report.set("geo.zones_s", ledger.total_s("geo.zones"));
    report.set("raster.synth_s", ledger.total_s("raster.synth"));
    report.set("bqtree.encode_s", ledger.total_s("bqtree.encode"));
    report.set(
        "bqtree.encoded_bytes",
        s.encoded
            .iter()
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
    report.set("obs.overhead_frac", traced_pass_s / untraced_s - 1.0);
    report.set("obs.dropped_events", dropped as f64);
    report.set("obs.span_coverage_frac", ledger.coverage);
    if !ledger.nested {
        eprintln!("error: benchmark spans do not nest inside the traced phases");
        report.op(Outcome::Mismatch);
    }
    (environment(&s), report)
}
