//! Benchmark of the zonal-histogram workspace: three workloads that time
//! the system from outside through each layer's public entry points,
//! check every timed output against an independent reference, and print
//! one result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload catalog|serve-mixed|cluster-16 --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced runs. `--trace 1`
//! repeats the timed phase untraced, then once more inside a tracing
//! session with the benchmark's own spans around each layer call, writes
//! the Chrome trace and the per-layer self-time ledger to
//! `perfbench/out/`, and prints the per-layer metrics. The last line of
//! standard output is the JSON result; the line before it records the
//! run environment.

mod catalog;
mod cluster;
mod ledger;
mod serve;
mod util;

use std::time::Instant;

use zonal_obs::Trace;

/// Event-ring capacity of a tracing session (the program's own spans
/// land in the same ring).
const RING_CAPACITY: usize = 1 << 20;

/// Benchmark threads that generate load or run set-up work.
pub const BENCH_THREADS: usize = 2;

/// Seed of every synthesized terrain. The elevation model is fixed input
/// data, as the SRTM tiles are in the paper; the workload seed draws the
/// county layer and the query stream. A seeded terrain moves the land
/// share, and with it encode and pipeline work: `catalog` set-up took
/// 4.8 s on one seed and 7.1 s on the next.
pub const TERRAIN_SEED: u64 = 20140519;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

/// The run environment, recorded beside every result.
pub struct Env {
    pub threads: Vec<(&'static str, usize)>,
    pub sizes: Vec<(&'static str, u64)>,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's commit, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// FNV-1a over the sources the benchmark builds, in path order: names
/// the code under test when the checkout carries no git metadata.
fn source_fingerprint() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in rd.flatten() {
            let p = entry.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn env_line(args: &Args, env: &Env) -> String {
    let pairs = |kv: &[(&str, u64)]| {
        kv.iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let threads: Vec<(&str, u64)> = env.threads.iter().map(|&(k, v)| (k, v as u64)).collect();
    format!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"commit\": \"{}\", \"source_fnv\": \"{}\", \
         \"threads\": {{{}}}, \"sizes\": {{{}}}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        nproc(),
        commit(),
        source_fingerprint(),
        pairs(&threads),
        pairs(&env.sizes)
    )
}

/// A traced stretch of the run: its value, its trace, and when its
/// session started.
pub struct Traced<T> {
    pub value: T,
    pub trace: Trace,
    pub started: Instant,
}

/// Run `f` inside a tracing session whose main lane carries `root`.
pub fn traced<T>(root: &'static str, f: impl FnOnce() -> T) -> Traced<T> {
    let started = Instant::now();
    let session = zonal_obs::start(RING_CAPACITY);
    zonal_obs::set_lane_name("bench main");
    let value = {
        let _root = zonal_obs::span(root);
        f()
    };
    Traced {
        value,
        trace: session.finish(),
        started,
    }
}

/// Join the set-up and timed traces, write the Chrome trace and the
/// self-time ledger, and return the ledger.
pub fn export(
    args: &Args,
    setup: Trace,
    setup_started: Instant,
    timed: Traced<()>,
) -> ledger::Ledger {
    let offset_us = timed
        .started
        .saturating_duration_since(setup_started)
        .as_secs_f64()
        * 1e6;
    let trace = ledger::join_traces(setup, timed.trace, offset_us);
    let ledger = ledger::analyze(&trace);
    let json = trace.to_chrome_json();
    if let Err(e) = zonal_obs::validate_chrome_json(&json) {
        eprintln!("warning: exported trace failed validation: {e}");
    }
    let dir = std::path::Path::new("perfbench/out");
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let table = ledger.table();
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.trace.json")), &json))
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.ledger.txt")), &table));
    if let Err(e) = written {
        eprintln!("warning: could not write trace files: {e}");
    }
    println!(
        "per-layer self times (benchmark spans; {} events, {} dropped):",
        trace.events.len(),
        trace.dropped
    );
    print!("{table}");
    ledger
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload catalog|serve-mixed|cluster-16 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if !std::path::Path::new("crates").is_dir() {
        eprintln!("error: run from the repository root (no crates/ directory here)");
        std::process::exit(2);
    }
    let (env, mut report) = match args.workload.as_str() {
        "catalog" => catalog::run(&args),
        "serve-mixed" => serve::run(&args),
        "cluster-16" => cluster::run(&args),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if args.traced {
        let ff = report.fail_frac();
        report.set("fail_frac", ff);
        let timers: Vec<String> = (0..5)
            .map(|i| {
                format!(
                    "step{i} {:.4} s",
                    report.get(&format!("zonal.step{i}_wall_s"))
                )
            })
            .collect();
        println!(
            "program timers (PipelineTimings of the per-partition pass, not benchmark spans): {}",
            timers.join(", ")
        );
    } else {
        report.set("peak_rss_mb", util::peak_rss_mb());
    }
    println!("{}", env_line(&args, &env));
    println!("{}", report.result_line(args.traced));
}
