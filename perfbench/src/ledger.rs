//! The metric catalogue, the result line, and the per-layer self-time
//! ledger derived from a traced run's Chrome trace.

use std::collections::{BTreeMap, HashMap};

use zonal_core::{PipelineTimings, ZonalResult};
use zonal_obs::{EventKind, Trace};

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
/// `latency_*` time each of the workload's operations from when it was
/// due: a full-catalog pass (`catalog`), a query (`serve-mixed`), or a
/// cluster run (`cluster-16`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The workload's own figures, from the untraced phase of the run.
    ("catalog_s", "s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_cold_p50_ms", "ms"),
    ("cluster_s", "s"),
    ("fail_frac", "frac"),
    ("geo.zones_s", "s"),
    ("raster.synth_s", "s"),
    ("bqtree.encode_s", "s"),
    ("bqtree.encoded_bytes", "bytes"),
    ("bqtree.decode_ns_per_cell", "ns"),
    ("zonal.pair_s", "s"),
    ("zonal.partition_s_p50", "s"),
    ("zonal.partition_s_max", "s"),
    ("zonal.merge_s", "s"),
    ("zonal.step0_wall_s", "s"),
    ("zonal.step1_wall_s", "s"),
    ("zonal.step2_wall_s", "s"),
    ("zonal.step3_wall_s", "s"),
    ("zonal.step4_wall_s", "s"),
    ("zonal.edge_tests", "count"),
    ("zonal.pip_cells_tested", "count"),
    ("zonal.inside_pairs", "count"),
    ("zonal.intersect_pairs", "count"),
    ("zonal.pip_avoided_frac", "frac"),
    ("zonal.ns_per_edge_test", "ns"),
    ("gpusim.sim_titan_e2e_s", "s"),
    ("gpusim.sim_counted_s", "s"),
    ("gpusim.sim_wall_derived_s", "s"),
    ("serve.submit_us", "us"),
    ("serve.row_hit_rate", "frac"),
    ("serve.memo_hits", "count"),
    ("serve.pipeline_passes", "count"),
    ("serve.mean_batch", "queries"),
    ("serve.shed_queue_full", "count"),
    ("serve.shed_saturated", "count"),
    ("cluster.comm_s", "s"),
    ("cluster.combine_s", "s"),
    ("cluster.imbalance", "ratio"),
    ("cluster.retransmits", "count"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("obs.overhead_frac", "frac"),
    ("obs.dropped_events", "count"),
    ("obs.span_coverage_frac", "frac"),
    ("loadgen.late_p99_ms", "ms"),
];

/// Spans the benchmark itself records around each layer's entry points.
/// Only these enter the self-time ledger; the program's own spans are
/// exported in the same trace but not attributed here.
pub const BENCH_SPANS: &[&str] = &[
    ROOT_SETUP,
    ROOT_TIMED,
    "geo.zones",
    "raster.synth",
    "bqtree.encode",
    "bqtree.decode",
    "serve.start",
    "serve.warmup",
    "serve.submit",
    "serve.update_raster",
    "serve.wait",
    "serve.shutdown",
    "loadgen.sleep",
    "zonal.run_partitions",
    "zonal.pair",
    "zonal.partition_pass",
    "zonal.partition",
    "zonal.merge",
    "cluster.run_cluster",
    "bench.check",
];

/// Root span of the traced set-up.
pub const ROOT_SETUP: &str = "bench.setup";
/// Root span of the traced timed phase.
pub const ROOT_TIMED: &str = "bench.timed";

/// How one timed operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer matches the reference.
    Ok,
    /// Refused or errored (a shed, a typed error).
    Failed,
    /// Answered, but the answer differs from the reference.
    Mismatch,
}

impl Outcome {
    pub fn matching(ok: bool) -> Self {
        if ok {
            Outcome::Ok
        } else {
            Outcome::Mismatch
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Count one operation; failures and mismatches both count as failed.
    pub fn op(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
        if outcome == Outcome::Mismatch {
            self.mismatches += 1;
        }
    }

    /// Zonal-layer counts, program step timers, and the split of
    /// simulated seconds for one merged pipeline result. `cell_factor`
    /// scales cell work to the paper's 3600 cells/degree.
    pub fn zonal_layer(&mut self, r: &ZonalResult, cell_factor: f64) {
        let names = [
            "zonal.step0_wall_s",
            "zonal.step1_wall_s",
            "zonal.step2_wall_s",
            "zonal.step3_wall_s",
            "zonal.step4_wall_s",
        ];
        for (name, step) in names.iter().zip(&r.timings.steps) {
            self.set(name, step.wall_secs);
        }
        let c = &r.counts;
        self.set("zonal.edge_tests", c.edge_tests as f64);
        self.set("zonal.pip_cells_tested", c.pip_cells_tested as f64);
        self.set("zonal.inside_pairs", c.inside_pairs as f64);
        self.set("zonal.intersect_pairs", c.intersect_pairs as f64);
        self.set(
            "zonal.pip_avoided_frac",
            c.n_cells.saturating_sub(c.pip_cells_tested) as f64 / c.n_cells.max(1) as f64,
        );
        self.set(
            "zonal.ns_per_edge_test",
            r.timings.steps[4].wall_secs * 1e9 / c.edge_tests.max(1) as f64,
        );
        let (counted, wall) = sim_split(&r.timings, cell_factor);
        self.set("gpusim.sim_titan_e2e_s", counted + wall);
        self.set("gpusim.sim_counted_s", counted);
        self.set("gpusim.sim_wall_derived_s", wall);
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: the end-to-end metrics untraced, the per-layer
    /// metrics traced.
    pub fn result_line(&self, traced: bool) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Split a result's overlapped end-to-end simulated seconds into the
/// part priced from counted device work and the part that is measured
/// host wall: Step 2 runs CPU-side, so its "simulated" time is its wall
/// time. Returns `(counted, wall_derived)`.
pub fn sim_split(t: &PipelineTimings, cell_factor: f64) -> (f64, f64) {
    let e2e = t.end_to_end_overlapped_sim_secs_at_scale(cell_factor);
    let wall = t.steps[2].wall_secs;
    (e2e - wall, wall)
}

/// One row of the self-time ledger.
pub struct LedgerRow {
    pub name: &'static str,
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
}

/// Per-layer self times and structure checks over the benchmark's spans.
pub struct Ledger {
    pub rows: Vec<LedgerRow>,
    /// Share of the timed root's wall covered by its direct children.
    pub coverage: f64,
    /// Every benchmark span nests inside its same-lane parent and lies
    /// within a root span.
    pub nested: bool,
    /// Durations of individual spans, by name (for per-call statistics).
    pub durations: HashMap<&'static str, Vec<f64>>,
}

impl Ledger {
    pub fn total_s(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.total_s)
    }

    /// The self-time table, slowest layer first. Lanes run concurrently,
    /// so shares of the traced wall can sum past 100%.
    pub fn table(&self) -> String {
        let root = self.total_s(ROOT_SETUP) + self.total_s(ROOT_TIMED);
        let mut rows: Vec<&LedgerRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
        let mut out = format!(
            "{:<24} {:>7} {:>11} {:>11} {:>8}\n",
            "span", "calls", "total_s", "self_s", "self_%"
        );
        for r in rows {
            out += &format!(
                "{:<24} {:>7} {:>11.4} {:>11.4} {:>7.2}%\n",
                r.name,
                r.calls,
                r.total_s,
                r.self_s,
                100.0 * r.self_s / root.max(1e-12)
            );
        }
        out += &format!(
            "timed-phase span coverage {:.2}%, spans nest: {}\n",
            100.0 * self.coverage,
            self.nested
        );
        out
    }
}

/// Derive the ledger from a trace: self time of a span is its duration
/// minus the durations of its direct children on the same lane (which
/// are disjoint there, so their sum is the covered part).
pub fn analyze(trace: &Trace) -> Ledger {
    const EPS_US: f64 = 1.0;
    let mut by_lane: HashMap<u32, Vec<(f64, f64, &'static str)>> = HashMap::new();
    let mut roots: Vec<(f64, f64)> = Vec::new();
    for e in &trace.events {
        if e.kind != EventKind::Span || !BENCH_SPANS.contains(&e.name) {
            continue;
        }
        by_lane
            .entry(e.tid)
            .or_default()
            .push((e.ts_us, e.ts_us + e.dur_us, e.name));
        if e.name == ROOT_SETUP || e.name == ROOT_TIMED {
            roots.push((e.ts_us, e.ts_us + e.dur_us));
        }
    }

    let mut totals: HashMap<&'static str, (usize, f64, f64)> = HashMap::new();
    let mut durations: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut nested = !roots.is_empty();
    let mut coverage_num = 0.0;
    let mut coverage_den = 0.0;
    for spans in by_lane.values_mut() {
        // Parents sort before their children: earlier start, then longer.
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut child_sum = vec![0.0; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..spans.len() {
            let (start, end, _) = spans[i];
            while let Some(&top) = stack.last() {
                if spans[top].1 <= start + EPS_US {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                if end > spans[parent].1 + EPS_US {
                    nested = false;
                }
                child_sum[parent] += end - start;
            }
            if !roots
                .iter()
                .any(|&(rs, re)| start + EPS_US >= rs && end <= re + EPS_US)
            {
                nested = false;
            }
            stack.push(i);
        }
        for (i, &(start, end, name)) in spans.iter().enumerate() {
            let dur = end - start;
            let t = totals.entry(name).or_insert((0, 0.0, 0.0));
            t.0 += 1;
            t.1 += dur * 1e-6;
            t.2 += (dur - child_sum[i]).max(0.0) * 1e-6;
            durations.entry(name).or_default().push(dur * 1e-6);
            if name == ROOT_TIMED {
                coverage_num += child_sum[i];
                coverage_den += dur;
            }
        }
    }
    let mut rows: Vec<LedgerRow> = totals
        .into_iter()
        .map(|(name, (calls, total_s, self_s))| LedgerRow {
            name,
            calls,
            total_s,
            self_s,
        })
        .collect();
    rows.sort_by_key(|r| r.name);
    Ledger {
        rows,
        coverage: if coverage_den > 0.0 {
            coverage_num / coverage_den
        } else {
            0.0
        },
        nested,
        durations,
    }
}

/// Join two sessions' traces into one timeline; `offset_us` is how long
/// after the first session's start the second one began.
pub fn join_traces(mut first: Trace, second: Trace, offset_us: f64) -> Trace {
    first.events.extend(second.events.into_iter().map(|mut e| {
        e.ts_us += offset_us;
        e
    }));
    for lane in second.lanes {
        if !first.lanes.iter().any(|(t, _)| *t == lane.0) {
            first.lanes.push(lane);
        }
    }
    first.metrics = second.metrics;
    first.dropped += second.dropped;
    first
}
