//! Regenerate every table and figure of the paper.
//!
//! ```text
//! tables <experiment> [--cpd N] [--seed N] [--json FILE] [--trace FILE]
//! tables --list
//! ```
//!
//! `--list` prints every experiment name with its one-line description
//! (the same table the unknown-name diagnostic checks against).
//!
//! `--cpd` sets raster resolution in cells/degree (default 60 for the
//! cluster experiments, 120 for Table 2; the paper's SRTM is 3600).
//! Full-scale figures are extrapolations of counted per-cell work; see
//! EXPERIMENTS.md. `--json FILE` additionally dumps the Table 2 timing
//! record (steps, strips, serial and overlapped end-to-end figures) as
//! JSON for downstream tooling. `--trace FILE` records the run under an
//! observability session and writes a Chrome Trace Event Format document
//! (open in Perfetto / `chrome://tracing`): wall-clock lanes for every
//! pipeline thread and cluster rank, plus — when `table2` ran —
//! simulated-device lanes replaying the cost model's copy/compute
//! schedule.

use std::time::Instant;
use zonal_bench::{
    cell_factor, encoded_partitions, paper_cfg, partition_of, partitions, us_zones, SEED,
};
use zonal_cluster::{run_scaling, ClusterConfig};
use zonal_core::baseline;
use zonal_core::pipeline::Zones;
use zonal_core::timing::STEP_NAMES;
use zonal_gpusim::DeviceSpec;
use zonal_raster::srtm::{SrtmCatalog, SyntheticSrtm};

/// Every experiment the harness knows, with its one-line description.
/// `--list` prints this table; an experiment name not in it exits 2.
const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1", "SRTM raster catalog & partition schema (Table 1)"),
    (
        "table2",
        "per-step runtimes, Quadro 6000 vs GTX Titan (Table 2)",
    ),
    (
        "fig6",
        "node-count scaling on the simulated Titan cluster (Fig. 6)",
    ),
    (
        "compression",
        "BQ-Tree compression ratio & transfer argument (§IV.B)",
    ),
    (
        "imbalance",
        "per-node load dispersion at 8/16 nodes (§IV.C)",
    ),
    (
        "baseline",
        "4-step pipeline vs full-PIP and scanline baselines (§II)",
    ),
    ("ablate-tile", "tile-size sweep (§III.A tradeoff)"),
    (
        "ablate-bins",
        "histogram bin-count sweep through Step 1 (§III.A)",
    ),
    (
        "schedule",
        "partition scheduling policies (§IV.C future work)",
    ),
    (
        "occupancy",
        "shared-memory staging occupancy analysis (§III.D)",
    ),
    ("simplify", "polygon simplification accuracy/cost tradeoff"),
    (
        "sanitizer",
        "tracked-buffer overhead of the kernel-sanitizer wiring",
    ),
    (
        "obs-overhead",
        "tracing probe cost, disabled and enabled (DESIGN.md §Obs)",
    ),
    (
        "serve",
        "query service load test: batching, cache, admission (DESIGN.md §Serving)",
    ),
    ("all", "everything above"),
];

struct Args {
    experiment: String,
    cpd: Option<u32>,
    seed: u64,
    json: Option<String>,
    trace: Option<String>,
    list: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: "all".into(),
        cpd: None,
        seed: SEED,
        json: None,
        trace: None,
        list: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--list" => args.list = true,
            "--cpd" => {
                args.cpd = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--cpd needs an integer"),
                )
            }
            "--seed" => {
                args.seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer")
            }
            "--json" => args.json = Some(iter.next().expect("--json needs a file path")),
            "--trace" => args.trace = Some(iter.next().expect("--trace needs a file path")),
            other if !other.starts_with('-') => args.experiment = other.into(),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn hline(width: usize) {
    println!("{}", "-".repeat(width));
}

fn table1() {
    println!("\n== Table 1: SRTM rasters and partition schema ==");
    println!("(reconstructed catalog; per-raster dims were garbled in the source text,");
    println!(" totals — 6 rasters, 36 partitions, 20,165,760,000 cells — match the paper)\n");
    let cat = SrtmCatalog::full_scale();
    println!(
        "{:<14} {:>9} {:>9} {:>16} {:>10}",
        "raster", "cols", "rows", "cells", "partition"
    );
    hline(64);
    for r in cat.rasters() {
        println!(
            "{:<14} {:>9} {:>9} {:>16} {:>7}x{}",
            r.name,
            r.cols(3600),
            r.rows(3600),
            r.cells(3600),
            r.part_rows,
            r.part_cols
        );
    }
    hline(64);
    println!(
        "{:<14} {:>9} {:>9} {:>16} {:>10}",
        "total",
        "",
        "",
        cat.total_cells(),
        cat.n_partitions()
    );
}

/// Table 2 timing record dumped by `--json` for downstream tooling.
#[derive(serde::Serialize)]
struct Table2Dump {
    cpd: u32,
    cell_factor: f64,
    native_ratio: f64,
    serial_e2e_quadro_secs: f64,
    serial_e2e_titan_secs: f64,
    overlapped_e2e_quadro_secs: f64,
    overlapped_e2e_titan_secs: f64,
    timings: zonal_core::PipelineTimings,
    counts: zonal_core::PipelineCounts,
}

fn table2(zones: &Zones, cpd: u32, json: Option<&str>) -> zonal_core::PipelineTimings {
    println!("\n== Table 2: per-step runtimes (seconds), Quadro 6000 vs GTX Titan ==");
    println!("(measured at {cpd} cells/degree; device columns are cost-model seconds");
    println!(
        " extrapolated to the paper's 3600 cells/degree — factor {}x on per-cell work)\n",
        cell_factor(cpd)
    );
    let cfg = paper_cfg(DeviceSpec::gtx_titan());
    let t = Instant::now();
    let result = zonal_core::run_partitions(&cfg, zones, &encoded_partitions(cfg.tile_deg, cpd));
    let wall = t.elapsed().as_secs_f64();
    let f = cell_factor(cpd);
    let quadro = result.timings.with_device(DeviceSpec::quadro_6000());
    let titan = &result.timings;
    let q = quadro.step_sim_secs_at_scale(f);
    let g = titan.step_sim_secs_at_scale(f);
    let paper_q = [18.0, 17.6, 0.5, 0.6, 49.4];
    let paper_g = [9.0, 11.0, 0.5, 0.3, 19.0];
    println!(
        "{:<52} {:>9} {:>9} {:>8} | {:>8} {:>8}",
        "", "Quadro", "GTXTitan", "speedup", "~paperQ", "~paperG"
    );
    hline(104);
    for i in 0..5 {
        println!(
            "{:<52} {:>9.2} {:>9.2} {:>7.2}x | {:>8.1} {:>8.1}",
            STEP_NAMES[i],
            q[i],
            g[i],
            if g[i] > 0.0 { q[i] / g[i] } else { 1.0 },
            paper_q[i],
            paper_g[i]
        );
    }
    hline(104);
    let (qs, gs) = (
        quadro.steps_total_sim_secs_at_scale(f),
        titan.steps_total_sim_secs_at_scale(f),
    );
    println!(
        "{:<52} {:>9.2} {:>9.2} {:>7.2}x |",
        "Runtimes of 5 steps",
        qs,
        gs,
        qs / gs
    );
    // End-to-end: steps + transfers. The raster transfer uses the
    // compression ratio sampled at native 360×360 tile size (tiny-scale
    // tiles cannot compress — headers and padding dominate).
    let native_ratio = zonal_bench::native_compression_ratio(SEED, 12);
    let full_encoded = (result.counts.raw_bytes as f64 * f * native_ratio) as u64;
    let e2e = |t: &zonal_core::PipelineTimings| {
        let m = zonal_gpusim::CostModel::new(t.device);
        t.steps_total_sim_secs_at_scale(f)
            + m.transfer_secs(full_encoded)
            + m.transfer_secs(t.fixed_input_bytes)
            + m.transfer_secs(t.output_bytes)
    };
    let (qe, ge) = (e2e(&quadro), e2e(titan));
    println!(
        "{:<52} {:>9.2} {:>9.2} {:>7.2}x | {:>8.1} {:>8.1}",
        "Wall-clock end-to-end (serial transfers)",
        qe,
        ge,
        qe / ge,
        92.0,
        46.0
    );
    // Stream-overlapped end-to-end: strip uploads hidden behind earlier
    // strips' kernels on the device's copy engine(s) (1 on Fermi, 2 on
    // Kepler), same ratio-corrected upload sizes as the serial row.
    let qo = quadro.end_to_end_overlapped_sim_secs_with_ratio(f, native_ratio);
    let go = titan.end_to_end_overlapped_sim_secs_with_ratio(f, native_ratio);
    println!(
        "{:<52} {:>9.2} {:>9.2} {:>7.2}x |",
        "Wall-clock end-to-end (overlapped streams)",
        qo,
        go,
        qo / go
    );
    for (name, overlapped, serial, steps) in [("Quadro", qo, qe, qs), ("GTX Titan", go, ge, gs)] {
        assert!(
            overlapped < serial,
            "{name}: overlapped e2e {overlapped:.3}s must beat serial {serial:.3}s"
        );
        assert!(
            overlapped >= steps,
            "{name}: overlapped e2e {overlapped:.3}s cannot undercut the \
             compute total {steps:.3}s (pipeline fill/drain are real)"
        );
    }
    println!(
        "(raster transfer uses the native-tile compression ratio {:.1}%;",
        native_ratio * 100.0
    );
    println!(
        " overlapped rows hide strip uploads behind kernels: {} stream strip(s),",
        titan.strips.len()
    );
    println!(" 1 copy engine on the Quadro/Fermi, 2 on the Titan/Kepler)");
    if let Some(path) = json {
        let dump = Table2Dump {
            cpd,
            cell_factor: f,
            native_ratio,
            serial_e2e_quadro_secs: qe,
            serial_e2e_titan_secs: ge,
            overlapped_e2e_quadro_secs: qo,
            overlapped_e2e_titan_secs: go,
            timings: titan.clone(),
            counts: result.counts,
        };
        let body = serde_json::to_string_pretty(&dump).expect("serialize table2 dump");
        std::fs::write(path, body).expect("write --json file");
        println!("(timing record written to {path})");
    }
    println!(
        "\nworkload: {} cells, {} tiles, {} zones; CPU wall {:.1}s",
        result.counts.n_cells,
        result.counts.n_tiles,
        result.hists.n_zones(),
        wall
    );
    println!(
        "pairs: {} inside / {} intersect / {} outside; PIP-tested cells: {} ({:.1}% of all cells)",
        result.counts.inside_pairs,
        result.counts.intersect_pairs,
        result.counts.outside_pairs,
        result.counts.pip_cells_tested,
        100.0 * result.counts.pip_fraction()
    );
    // The tile filter's whole value proposition, as the obs counter pair
    // (`pip_tests_performed` / `pip_tests_avoided`) surfaces it: cells
    // whose zone membership was decided without a point-in-polygon test.
    let avoided = result.counts.n_cells - result.counts.pip_cells_tested;
    println!(
        "PIP counter pair: {} tests performed / {} avoided ({:.1}% avoided)",
        result.counts.pip_cells_tested,
        avoided,
        100.0 * avoided as f64 / result.counts.n_cells as f64
    );
    let (raw, encoded) = (result.counts.raw_bytes, result.counts.encoded_bytes);
    println!(
        "compression: {:.1}% of raw ({raw} -> {encoded} bytes)",
        100.0 * encoded as f64 / raw as f64
    );
    result.timings
}

fn fig6(zones: &Zones, cpd: u32, seed: u64) {
    println!("\n== Fig. 6: end-to-end runtime vs Titan node count ==");
    println!("(K20X cost model, measured at {cpd} cells/degree, extrapolated to full scale)\n");
    let base = ClusterConfig::titan(1, cpd, seed);
    let paper: [(usize, f64); 5] = [(1, 60.7), (2, 32.0), (4, 17.5), (8, 10.0), (16, 7.6)];
    let points = run_scaling(&base, zones, &[1, 2, 4, 8, 16]).expect("scaling sweep");
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>10}",
        "nodes", "sim secs", "speedup", "~paper secs", "max/mean"
    );
    hline(58);
    let t1 = points[0].0.sim_secs;
    for ((p, _run), (pn, psec)) in points.iter().zip(paper) {
        assert_eq!(p.n_nodes, pn);
        println!(
            "{:>7} {:>12.2} {:>11.2}x {:>12.1} {:>10.2}",
            p.n_nodes,
            p.sim_secs,
            t1 / p.sim_secs,
            psec,
            p.imbalance_ratio
        );
    }
}

fn compression(cpd: u32, seed: u64) {
    println!("\n== §IV.B: BQ-Tree compression and the transfer argument ==\n");
    // Native tile size (the only size where the ratio is meaningful).
    let native = zonal_bench::native_compression_ratio(seed, 24);
    println!(
        "native 360x360 tiles (sampled, 3600 cells/degree): {:.1}% of raw",
        native * 100.0
    );
    println!("paper:                         40 GB -> 7.3 GB = 18.2% of raw");
    // Also show how the ratio degrades at reduced tile sizes — why small-
    // scale runs must not use their own ratio for transfer extrapolation.
    let parts = partitions(cpd);
    let mut raw = 0u64;
    let mut enc = 0u64;
    for p in &parts[..6.min(parts.len())] {
        let src = SyntheticSrtm::new(p.grid(0.1), seed);
        let bq = zonal_bqtree::compress_source(&src);
        raw += bq.stats().raw_bytes;
        enc += bq.stats().encoded_bytes;
    }
    println!(
        "reduced-scale {cpd} cells/degree ({}-cell tiles): {:.1}% of raw (headers/padding dominate)",
        cpd / 10,
        100.0 * enc as f64 / raw as f64
    );
    println!();
    let full_raw = SrtmCatalog::full_scale().total_cells() * 2;
    let full_enc = (full_raw as f64 * native) as u64;
    let pcie = 2.5e9;
    println!(
        "full-scale PCIe transfer at 2.5 GB/s: raw {:.1}s vs compressed {:.1}s (paper: ~16s vs ~3s)",
        full_raw as f64 / pcie,
        full_enc as f64 / pcie
    );
}

fn imbalance(zones: &Zones, cpd: u32, seed: u64) {
    println!("\n== §IV.C: load imbalance across nodes ==\n");
    for n in [8usize, 16] {
        let cfg = ClusterConfig::titan(n, cpd, seed);
        let run = zonal_cluster::run_cluster(&cfg, zones).expect("cluster run");
        let im = run.imbalance;
        println!(
            "{n:>2} nodes: node sim secs min {:.2} / mean {:.2} / max {:.2}; max/mean {:.2}; efficiency ceiling {:.0}%",
            im.min_secs,
            im.mean_secs,
            im.max_secs,
            im.max_over_mean,
            100.0 * im.efficiency()
        );
        let mut edge: Vec<(usize, u64)> =
            run.nodes.iter().map(|r| (r.rank, r.edge_tests)).collect();
        edge.sort_by_key(|&(_, e)| std::cmp::Reverse(e));
        let (hot, cold) = (edge.first().expect("nodes"), edge.last().expect("nodes"));
        println!(
            "          Step-4 edge tests: hottest node {} does {}, coldest node {} does {} (coverage-edge effect)",
            hot.0, hot.1, cold.0, cold.1
        );
    }
}

fn baseline_cmp(zones: &Zones, cpd: u32, seed: u64) {
    println!("\n== §II motivation: pipeline vs per-cell baselines (CPU wall seconds) ==\n");
    // One partition, materialized once up front so every method starts
    // from the same in-memory raster (no generation cost inside timers).
    let part = partition_of(cpd, "west-south", 0);
    let grid = part.grid(0.1);
    let raster = SyntheticSrtm::new(grid.clone(), seed).to_raster();
    let src = raster.tile_source(&grid);
    let cfg = paper_cfg(DeviceSpec::gtx_titan());
    let t = Instant::now();
    let pipe = zonal_core::run_partition(&cfg, zones, &src);
    let t_pipe = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let pip = baseline::full_pip(&zones.layer, &raster, cfg.n_bins);
    let t_pip = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let scan = baseline::scanline(&zones.layer, &raster, cfg.n_bins);
    let t_scan = t.elapsed().as_secs_f64();
    assert_eq!(pipe.hists, pip, "pipeline must agree with the PIP oracle");
    assert_eq!(
        pipe.hists, scan,
        "pipeline must agree with the scanline oracle"
    );
    println!("partition: {} ({} cells)", part.raster_name, part.cells());
    println!("{:<36} {:>10}", "method", "wall secs");
    hline(48);
    println!("{:<36} {:>10.3}", "4-step pipeline (this paper)", t_pipe);
    println!("{:<36} {:>10.3}", "full point-in-polygon baseline", t_pip);
    println!("{:<36} {:>10.3}", "scanline rasterization baseline", t_scan);
    println!(
        "\nresults identical across all three methods ({} cells histogrammed)",
        pipe.hists.total()
    );
    println!(
        "on the simulated {}: pipeline steps take {:.3}s at this scale — the CPU wall",
        cfg.device.name,
        pipe.timings.steps_total_sim_secs_at_scale(1.0)
    );
    println!("contest is close at reduced resolution, but the pipeline is the only method");
    println!("of the three whose work maps onto thousands of device threads (the paper's point).");
}

fn ablate_tile(zones: &Zones, cpd: u32, seed: u64) {
    println!("\n== §III.A ablation: tile-size tradeoff ==\n");
    println!(
        "{:>9} {:>12} {:>14} {:>14} {:>12}",
        "tile_deg", "tiles", "intersectprs", "pip cells", "GTX sim s"
    );
    hline(68);
    for tile_deg in [0.05, 0.1, 0.2, 0.4] {
        let cfg = paper_cfg(DeviceSpec::gtx_titan()).with_tile_deg(tile_deg);
        let part = partition_of(cpd, "west-south", 0);
        let src = SyntheticSrtm::new(part.grid(tile_deg), seed);
        let r = zonal_core::run_partition(&cfg, zones, &src);
        println!(
            "{:>9.2} {:>12} {:>14} {:>14} {:>12.3}",
            tile_deg,
            r.counts.n_tiles,
            r.counts.intersect_pairs,
            r.counts.pip_cells_tested,
            r.timings.steps_total_sim_secs_at_scale(cell_factor(cpd))
        );
    }
    println!(
        "\nsmaller tiles: more per-tile histogram memory, fewer PIP-tested cells; and vice versa."
    );
}

fn ablate_bins(zones: &Zones, cpd: u32, seed: u64) {
    println!("\n== §III.A ablation: histogram bin count ==\n");
    println!(
        "{:>7} {:>14} {:>12} {:>12} {:>12}",
        "bins", "S1 bytes", "S1 atomics", "S1 sim s", "GTX sim s"
    );
    hline(61);
    let part = partition_of(cpd, "west-south", 0);
    let src = SyntheticSrtm::new(part.grid(0.1), seed);
    for n_bins in [256, 1024, 5000, 16384] {
        let cfg = paper_cfg(DeviceSpec::gtx_titan()).with_bins(n_bins);
        let r = zonal_core::run_partition(&cfg, zones, &src);
        let total = r.timings.total_work();
        let work = total.cell_work[1].merge(&total.fixed_work[1]);
        println!(
            "{:>7} {:>14} {:>12} {:>12.3} {:>12.3}",
            n_bins,
            work.coalesced_bytes,
            work.atomics,
            r.timings.step_sim_secs_at_scale(cell_factor(cpd))[1],
            r.timings.steps_total_sim_secs_at_scale(cell_factor(cpd))
        );
    }
    println!(
        "\nevery bin is zeroed and written back per tile; at full scale per-cell work still dominates."
    );
}

fn schedule(zones: &Zones, cpd: u32, seed: u64) {
    println!("\n== §IV.C future work: partition scheduling policies ==");
    println!("(per-partition costs measured by running the pipeline; makespans simulated)\n");
    let cfg = paper_cfg(DeviceSpec::tesla_k20x());
    let f = cell_factor(cpd);
    let (costs, cells) = zonal_cluster::measure_partition_costs(&cfg, zones, cpd, seed, f);
    let total: f64 = costs.iter().sum();
    let (min_c, max_c) = costs.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &c| {
        (lo.min(c), hi.max(c))
    });
    println!(
        "36 partitions: cost min {min_c:.2}s / max {max_c:.2}s (skew {:.1}x), serial total {total:.1}s\n",
        max_c / min_c
    );
    println!(
        "{:<24} {:>9} {:>9} {:>9} {:>12}",
        "policy", "8 nodes", "16 nodes", "imbal@16", "extra msgs"
    );
    hline(70);
    for policy in zonal_cluster::Policy::ALL {
        let o8 = zonal_cluster::simulate(policy, &costs, &cells, 8, 1e-4);
        let o16 = zonal_cluster::simulate(policy, &costs, &cells, 16, 1e-4);
        println!(
            "{:<24} {:>9.2} {:>9.2} {:>9.2} {:>12}",
            format!("{policy:?}"),
            o8.makespan,
            o16.makespan,
            o16.imbalance(),
            o16.extra_messages
        );
    }
    println!(
        "\nlower bound at 16 nodes (perfect balance): {:.2}s",
        total / 16.0
    );
}

fn occupancy_table(zones: &Zones) {
    use zonal_gpusim::occupancy::{occupancy, polygon_stage_bytes, BlockResources, SmLimits};
    use zonal_gpusim::Arch;
    println!("\n== §III.D: shared-memory staging of polygon vertices ==");
    println!("(the design the paper declines: 'GPU shared memory is still a limited");
    println!(" resource, doing so may reduce the scalability of the implementation')\n");
    // Distribution of per-polygon flat-slot counts in the zone layer.
    let mut slots: Vec<usize> = (0..zones.len())
        .map(|k| {
            let (s, e) = zones.flat.vertex_range(k);
            e - s
        })
        .collect();
    slots.sort_unstable();
    let pick = |q: f64| slots[((slots.len() - 1) as f64 * q) as usize];
    println!(
        "polygon flat slots: p50 {} / p90 {} / p99 {} / max {}",
        pick(0.5),
        pick(0.9),
        pick(0.99),
        slots.last().expect("nonempty layer")
    );
    println!();
    println!(
        "{:>12} {:>14} | {:>22} {:>22}",
        "flat slots", "shared bytes", "Fermi blocks/SM (occ)", "Kepler blocks/SM (occ)"
    );
    hline(78);
    for &n in &[0usize, 30, 200, 1000, 2000, 3000] {
        let block = BlockResources {
            threads: 256,
            shared_mem_bytes: polygon_stage_bytes(n),
            registers_per_thread: 0,
        };
        let fmt = |arch: Arch| match occupancy(&SmLimits::for_arch(arch), &block) {
            Some(o) => format!("{} ({:.0}%)", o.blocks_per_sm, o.fraction * 100.0),
            None => "unlaunchable".to_string(),
        };
        println!(
            "{:>12} {:>14} | {:>22} {:>22}",
            n,
            polygon_stage_bytes(n),
            fmt(Arch::Fermi),
            fmt(Arch::Kepler)
        );
    }
    println!("\naverage counties stage for free; complex (coastal) polygons would");
    println!("collapse occupancy — the paper's call to keep vertices in global memory.");
}

fn simplify_tradeoff(zones: &Zones, cpd: u32, seed: u64) {
    use zonal_geo::simplify::simplify_polygon;
    println!("\n== extension: polygon simplification vs Step 4 cost & accuracy ==\n");
    let part = partition_of(cpd, "west-south", 0);
    let cfg = paper_cfg(DeviceSpec::gtx_titan());
    let src = SyntheticSrtm::new(part.grid(cfg.tile_deg), seed);
    let exact = zonal_core::run_partition(&cfg, zones, &src);
    let exact_total = exact.hists.total();
    println!(
        "{:>9} {:>9} {:>14} {:>12} {:>14}",
        "eps(deg)", "vertices", "edge tests", "GTX sim s", "cells moved"
    );
    hline(64);
    for eps in [0.0f64, 0.005, 0.02, 0.08] {
        let (zl, r) = if eps == 0.0 {
            (zones.layer.total_vertices(), exact.clone())
        } else {
            let polys = zones
                .layer
                .polygons()
                .iter()
                .map(|p| simplify_polygon(p, eps))
                .collect();
            let simplified = Zones::new(zonal_geo::PolygonLayer::from_polygons(polys));
            let r = zonal_core::run_partition(&cfg, &simplified, &src);
            (simplified.layer.total_vertices(), r)
        };
        // Accuracy: L1 histogram distance summed over zones, halved (cells
        // moved between zones or dropped).
        let moved: u64 = (0..exact.hists.n_zones())
            .map(|z| {
                let (a, b) = (exact.hists.window(z), r.hists.window(z));
                (a.lo.min(b.lo)..a.end().max(b.end()))
                    .map(|bin| a.get(bin).abs_diff(b.get(bin)))
                    .sum::<u64>()
            })
            .sum::<u64>()
            / 2;
        println!(
            "{:>9.3} {:>9} {:>14} {:>12.3} {:>10} ({:.3}%)",
            eps,
            zl,
            r.counts.edge_tests,
            r.timings.step_sim_secs_at_scale(cell_factor(cpd))[4],
            moved,
            100.0 * moved as f64 / exact_total as f64
        );
    }
}

fn sanitizer_overhead(zones: &Zones, cpd: u32) {
    println!("\n== Kernel sanitizer: tracked-buffer overhead ==");
    println!(
        "(sanitize feature {}: tracked accesses {} outside sanitized runs)\n",
        if cfg!(feature = "sanitize") {
            "ON"
        } else {
            "OFF"
        },
        if cfg!(feature = "sanitize") {
            "pay one thread-local check each"
        } else {
            "compile to direct calls"
        }
    );
    // Microbenchmark: the Step 3/4 hot operation — atomicAdd into the flat
    // zone-histogram buffer — on the raw atomic buffer vs the tracked
    // wrapper the pipeline now routes through. Best of several rounds to
    // shed scheduler noise.
    const OPS: usize = 4_000_000;
    const BINS: usize = 4096;
    const ROUNDS: usize = 5;
    let raw = zonal_gpusim::AtomicBufU64::new(BINS);
    let tracked = zonal_gpusim::TrackedBufU64::new(BINS);
    let mut raw_secs = f64::INFINITY;
    let mut tracked_secs = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for i in 0..OPS {
            raw.add(i % BINS, 1);
        }
        raw_secs = raw_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for i in 0..OPS {
            tracked.add(i % BINS, 1);
        }
        tracked_secs = tracked_secs.min(t.elapsed().as_secs_f64());
    }
    assert_eq!(raw.to_vec(), tracked.to_vec(), "same adds on both buffers");
    let ns = |s: f64| s / OPS as f64 * 1e9;
    println!(
        "{:<34} {:>10} {:>10}",
        "atomicAdd into zone histogram", "ns/op", "overhead"
    );
    hline(58);
    println!(
        "{:<34} {:>10.2} {:>10}",
        "AtomicBufU64 (raw)",
        ns(raw_secs),
        "1.00x"
    );
    println!(
        "{:<34} {:>10.2} {:>9.2}x",
        "TrackedBufU64 (pipeline buffer)",
        ns(tracked_secs),
        tracked_secs / raw_secs
    );
    // End-to-end: the full pipeline already runs on tracked device buffers,
    // so its wall clock IS the instrumented-build figure; diff it against a
    // default-features build of this same experiment for the total cost.
    let cfg = paper_cfg(DeviceSpec::gtx_titan());
    let t = Instant::now();
    let result = zonal_core::run_partitions(&cfg, zones, &encoded_partitions(cfg.tile_deg, cpd));
    println!(
        "\npipeline wall with tracked device buffers: {:.2}s ({} cells, {} zones)",
        t.elapsed().as_secs_f64(),
        result.counts.n_cells,
        result.hists.n_zones()
    );
}

/// Observability cost check: (a) microbenchmark the disabled probes the
/// pipeline is permanently instrumented with, (b) run a fixed workload
/// untraced and traced, asserting the histograms stay bit-identical, and
/// (c) bound the disabled-path overhead — captured-event count times the
/// measured per-probe cost — to ≤ 3 % of the untraced wall time.
///
/// Runs its own tracing sessions, so `main` skips it under `--trace`.
fn obs_overhead() {
    use zonal_core::pipeline::{run_partition, Zones};
    use zonal_geo::{Polygon, PolygonLayer};
    use zonal_raster::{GeoTransform, Raster, TileGrid};
    println!("\n== Observability: probe cost, disabled and enabled ==");
    println!("(every probe starts with one relaxed atomic load; tracing is off by default)\n");

    // (a) Disabled probes: the permanent price of the instrumentation.
    const OPS: usize = 4_000_000;
    const ROUNDS: usize = 5;
    let probe_counter = zonal_obs::counter("obs_overhead_probe");
    let mut span_secs = f64::INFINITY;
    let mut counter_secs = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..OPS {
            let _guard = zonal_obs::span("disabled probe");
        }
        span_secs = span_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for i in 0..OPS {
            probe_counter.add(i as u64);
        }
        counter_secs = counter_secs.min(t.elapsed().as_secs_f64());
    }
    let ns = |s: f64| s / OPS as f64 * 1e9;
    println!("{:<38} {:>10}", "disabled probe", "ns/op");
    hline(50);
    println!("{:<38} {:>10.2}", "span open+drop", ns(span_secs));
    println!("{:<38} {:>10.2}", "counter add", ns(counter_secs));
    assert_eq!(probe_counter.get(), 0, "disabled counter must not count");

    // (b) Fixed workload, untraced vs traced: identical answers required.
    let zones = Zones::new(PolygonLayer::from_polygons(vec![
        Polygon::rect(0.0, 0.0, 5.0, 10.0),
        Polygon::rect(5.0, 0.0, 10.0, 10.0),
    ]));
    let gt = GeoTransform::new(0.0, 0.0, 0.05, 0.05);
    let raster = Raster::from_fn(192, 192, gt, |r, c| ((r * 7 + c * 13) % 64) as u16);
    let grid = TileGrid::new(192, 192, 16, gt); // 16-cell tiles = test()'s 0.8°
    let src = raster.tile_source(&grid);
    let mut cfg = zonal_core::PipelineConfig::test().with_bins(64);
    cfg.strip_rows = 4;

    let mut untraced_secs = f64::INFINITY;
    let mut base = None;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let r = run_partition(&cfg, &zones, &src);
        untraced_secs = untraced_secs.min(t.elapsed().as_secs_f64());
        base = Some(r);
    }
    let base = base.expect("untraced rounds ran");

    let session = zonal_obs::start(zonal_obs::DEFAULT_RING_CAPACITY);
    let mut traced_secs = f64::INFINITY;
    let mut traced = None;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let r = run_partition(&cfg, &zones, &src);
        traced_secs = traced_secs.min(t.elapsed().as_secs_f64());
        traced = Some(r);
    }
    let trace = session.finish();
    let traced = traced.expect("traced rounds ran");
    assert_eq!(traced.hists, base.hists, "tracing must not perturb results");
    assert_eq!(traced.counts, base.counts);
    println!(
        "\nworkload: 192x192 cells, {} strips; results bit-identical under tracing",
        base.timings.strips.len()
    );
    println!("{:<38} {:>12}", "end-to-end", "wall secs");
    hline(52);
    println!("{:<38} {:>12.4}", "tracing disabled", untraced_secs);
    println!(
        "{:<38} {:>12.4} ({:+.1}%)",
        "tracing enabled",
        traced_secs,
        100.0 * (traced_secs - untraced_secs) / untraced_secs
    );

    // (c) Disabled-path bound: the probes this workload touches, priced at
    // the measured disabled cost, as a fraction of the untraced runtime.
    let probes = trace.events.len() as f64;
    let disabled_overhead = probes * ns(span_secs) * 1e-9 / untraced_secs;
    println!(
        "\ndisabled-path bound: {} probe sites x {:.2} ns = {:.4}% of the untraced run",
        trace.events.len(),
        ns(span_secs),
        100.0 * disabled_overhead
    );
    assert!(
        disabled_overhead <= 0.03,
        "disabled probes must cost <= 3% ({:.4}%)",
        100.0 * disabled_overhead
    );
    println!("within the <= 3% budget");
}

/// Serving-layer record dumped by `tables serve --json`: the load
/// reports plus the headline figures CI gates on (`shed_rate`,
/// `p99_ms`) hoisted to the top level so downstream tooling does not
/// depend on the nested report shape.
#[derive(serde::Serialize)]
struct ServeDump {
    cpd: u32,
    partitions: usize,
    zones: usize,
    correctness_ok: bool,
    p99_ms: f64,
    shed_rate: f64,
    cache_hit_rate: f64,
    closed: zonal_serve::LoadReport,
    closed_stats: zonal_serve::ServeStats,
    open: zonal_serve::LoadReport,
    open_stats: zonal_serve::ServeStats,
}

/// Load-test the serving layer (DESIGN.md §Serving layer): verify a
/// served answer against the direct pipeline, measure closed-loop
/// throughput/latency with a cache-friendly mix, then drive an
/// open-loop overload against a tiny admission queue to demonstrate
/// shedding instead of collapse.
fn serve_experiment(cpd: u32, seed: u64, json: Option<&str>) {
    use std::sync::Arc;
    use zonal_serve::{
        closed_loop, open_loop, PartitionSource, QueryMix, RasterStore, ServeConfig, ZonalQuery,
        ZonalService,
    };
    println!("\n== Serving layer: batched, cached, backpressured queries ==");
    println!("(reduced county layer over two BQ-compressed west-south partitions at {cpd} cells/degree)\n");

    let zones = zonal_bench::small_zones(8, 5, 2);
    let n_zones = zones.len();
    let cfg = paper_cfg(DeviceSpec::gtx_titan());
    let parts: Vec<PartitionSource> = (0..2)
        .map(|i| {
            let p = partition_of(cpd, "west-south", i);
            let src = SyntheticSrtm::new(p.grid(cfg.tile_deg), seed);
            PartitionSource::new(zonal_bqtree::compress_source(&src))
        })
        .collect();
    let n_parts = parts.len();
    let store = Arc::new(RasterStore::new(zones, parts));

    // Correctness gate: one served answer vs the direct computation.
    let direct =
        zonal_core::run_partitions(&cfg.with_bins(500), store.zones(), store.snapshot().band(0));
    let service = ZonalService::start(Arc::clone(&store), ServeConfig::new(cfg));
    let served = service
        .query(ZonalQuery::all_zones(500))
        .expect("serve the check query");
    let correctness_ok = (0..n_zones).all(|z| {
        let row = served.zone(z as u32).expect("row");
        *row == direct.hists.window(z).to_dense(direct.hists.n_bins())
    });
    assert!(correctness_ok, "served answer must match run_partitions");
    println!("correctness: served all-zones answer == direct run_partitions (bit-identical)");

    // Phase 1 — closed loop, cache-friendly mix (two plans repeat).
    let mix = QueryMix::new(seed, vec![500, 1000], n_zones);
    let closed = closed_loop(&service, &mix, 4, 30);
    let closed_stats = service.shutdown();
    println!("\nphase 1: closed loop, 4 clients x 30 queries, bins in {{500, 1000}}");
    println!(
        "  throughput {:.1} q/s; latency p50 {:.2} / p95 {:.2} / p99 {:.2} ms (max {:.2})",
        closed.throughput_qps,
        closed.latency.p50_ms,
        closed.latency.p95_ms,
        closed.latency.p99_ms,
        closed.latency.max_ms
    );
    println!(
        "  plan cache: row hit rate {:.1}%, {} partition passes run + {} saved; mean batch {:.2}; shed rate {:.1}%",
        100.0 * closed_stats.row_cache_hit_rate(),
        closed_stats.pipeline_passes,
        closed_stats.partition_cache_hits,
        closed_stats.mean_batch_size(),
        100.0 * closed.shed_rate
    );
    assert_eq!(closed.errors, 0, "closed loop must not error");

    // Phase 2 — open loop against a tiny queue over 12 bin specs, each
    // cold on its first query: offered load far beyond capacity must
    // shed, not queue unboundedly.
    let mut overload_cfg = ServeConfig::new(cfg).without_batch_window();
    overload_cfg.queue_capacity = 4;
    let service = ZonalService::start(Arc::clone(&store), overload_cfg);
    let mut mix = QueryMix::new(seed, (0..12).map(|i| 64 + 16 * i).collect(), n_zones);
    mix.next_phase();
    let open = open_loop(&service, &mix, 250, 1500.0);
    let open_stats = service.shutdown();
    println!("\nphase 2: open loop, 250 queries offered at 1500 q/s, queue capacity 4, 12 distinct plans");
    println!(
        "  completed {} / shed {} (rate {:.1}%); p99 {:.2} ms; queue-full {} / saturated {}",
        open.completed,
        open.shed,
        100.0 * open.shed_rate,
        open.latency.p99_ms,
        open_stats.shed_queue_full,
        open_stats.shed_saturated
    );
    assert!(
        open.shed > 0,
        "overload phase must shed at the admission gate"
    );
    assert_eq!(open.errors, 0, "sheds are typed, not errors");
    println!("\noverload degrades into typed sheds at admission; every completed answer");
    println!("is computed (or cached) from the same pipeline the batch harness runs.");

    if let Some(path) = json {
        let dump = ServeDump {
            cpd,
            partitions: n_parts,
            zones: n_zones,
            correctness_ok,
            p99_ms: closed.latency.p99_ms,
            shed_rate: open.shed_rate,
            cache_hit_rate: closed_stats.row_cache_hit_rate(),
            closed,
            closed_stats,
            open,
            open_stats,
        };
        let body = serde_json::to_string_pretty(&dump).expect("serialize serve dump");
        std::fs::write(path, body).expect("write --json file");
        println!("(serving record written to {path})");
    }
}

fn main() {
    let args = parse_args();
    if args.list {
        for (name, what) in EXPERIMENTS {
            println!("{name:<13} {what}");
        }
        return;
    }
    let exp = args.experiment.as_str();
    let run_all = exp == "all";
    println!("zonal-histo experiment harness (seed {})", args.seed);

    // `--trace` wraps the whole run in one observability session.
    let trace_session = args
        .trace
        .as_ref()
        .map(|_| zonal_obs::start(zonal_obs::DEFAULT_RING_CAPACITY));
    if trace_session.is_some() {
        zonal_obs::set_lane_name("main");
    }

    if run_all || exp == "table1" {
        table1();
    }
    let need_zones = run_all
        || matches!(
            exp,
            "table2"
                | "fig6"
                | "imbalance"
                | "baseline"
                | "ablate-tile"
                | "ablate-bins"
                | "schedule"
                | "occupancy"
                | "simplify"
                | "sanitizer"
        );
    let zones = if need_zones {
        let t = Instant::now();
        let z = us_zones();
        println!(
            "\nzone layer: {} polygons, {} vertices, {} multi-ring ({:.2}s to generate)",
            z.len(),
            z.layer.total_vertices(),
            z.layer.multi_ring_count(),
            t.elapsed().as_secs_f64()
        );
        Some(z)
    } else {
        None
    };
    let mut table2_timings = None;
    if run_all || exp == "table2" {
        table2_timings = Some(table2(
            zones.as_ref().expect("zones"),
            args.cpd.unwrap_or(120),
            args.json.as_deref(),
        ));
    }
    if run_all || exp == "fig6" {
        fig6(
            zones.as_ref().expect("zones"),
            args.cpd.unwrap_or(60),
            args.seed,
        );
    }
    if run_all || exp == "compression" {
        compression(args.cpd.unwrap_or(120), args.seed);
    }
    if run_all || exp == "imbalance" {
        imbalance(
            zones.as_ref().expect("zones"),
            args.cpd.unwrap_or(60),
            args.seed,
        );
    }
    if run_all || exp == "baseline" {
        baseline_cmp(
            zones.as_ref().expect("zones"),
            args.cpd.unwrap_or(60),
            args.seed,
        );
    }
    if run_all || exp == "ablate-tile" {
        ablate_tile(
            zones.as_ref().expect("zones"),
            args.cpd.unwrap_or(60),
            args.seed,
        );
    }
    if run_all || exp == "ablate-bins" {
        ablate_bins(
            zones.as_ref().expect("zones"),
            args.cpd.unwrap_or(60),
            args.seed,
        );
    }
    if run_all || exp == "schedule" {
        schedule(
            zones.as_ref().expect("zones"),
            args.cpd.unwrap_or(30),
            args.seed,
        );
    }
    if run_all || exp == "occupancy" {
        occupancy_table(zones.as_ref().expect("zones"));
    }
    if run_all || exp == "simplify" {
        simplify_tradeoff(
            zones.as_ref().expect("zones"),
            args.cpd.unwrap_or(40),
            args.seed,
        );
    }
    if run_all || exp == "sanitizer" {
        sanitizer_overhead(zones.as_ref().expect("zones"), args.cpd.unwrap_or(30));
    }
    if run_all || exp == "obs-overhead" {
        if trace_session.is_some() {
            println!("\n(obs-overhead skipped under --trace: it runs its own tracing sessions)");
        } else {
            obs_overhead();
        }
    }
    if run_all || exp == "serve" {
        serve_experiment(
            args.cpd.unwrap_or(20),
            args.seed,
            if exp == "serve" {
                args.json.as_deref()
            } else {
                None
            },
        );
    }
    if !EXPERIMENTS.iter().any(|(name, _)| *name == exp) {
        eprintln!("unknown experiment '{exp}'; run `tables --list` for the experiment table");
        std::process::exit(2);
    }

    if let (Some(path), Some(session)) = (args.trace.as_deref(), trace_session) {
        let mut trace = session.finish();
        if let Some(timings) = &table2_timings {
            // Simulated-device lanes replaying the cost model's schedule
            // for the last Table 2 partition, at its extrapolation factor.
            trace.push_sim_spans(timings.sim_device_spans(cell_factor(args.cpd.unwrap_or(120))));
        }
        let n_events = trace.events.len();
        let dropped = trace.dropped;
        std::fs::write(path, trace.to_chrome_json()).expect("write --trace file");
        println!(
            "\n(chrome trace written to {path}: {n_events} events, {dropped} dropped; \
             open in Perfetto or chrome://tracing)"
        );
    }
}
