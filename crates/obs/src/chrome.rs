//! Chrome Trace Event Format export and validation.
//!
//! A finished session becomes a [`Trace`]: the drained event ring, the
//! lane-name table, the metric snapshot, and any simulated-device spans
//! attached afterwards. [`Trace::to_chrome_json`] renders it as a
//! `traceEvents` JSON document loadable in Perfetto or
//! `chrome://tracing`, with **dual clocks** split across two pids:
//!
//! * pid [`WALL_PID`] — real wall-time lanes, one per recording thread
//!   (pipeline compute threads, cluster ranks, serve workers, …).
//! * pid [`SIM_PID`] — synthetic lanes replaying the cost model's
//!   simulated device time (per-strip transfer vs. compute spans and
//!   per-kernel spans), so the overlap recurrence in
//!   `CostModel::overlapped_pipeline_secs` can be audited visually.
//!
//! [`validate_chrome_json`] is the structural checker used by exporter
//! tests and the `trace-check` CI binary: it re-parses the document with
//! the `serde_json` shim, type-checks every event, and verifies that
//! same-lane spans nest properly (no partial overlap).

use crate::event::{Event, EventKind};
use crate::metrics::{MetricSnapshot, MetricValue};
use serde::Value;

/// Chrome `pid` for real wall-clock lanes.
pub const WALL_PID: u64 = 1;
/// Chrome `pid` for simulated-device-clock lanes.
pub const SIM_PID: u64 = 2;

/// A span on a simulated-device lane, in simulated seconds. Built on
/// the cold path from cost-model output (never from the hot event ring),
/// so owned strings and `f64` args are fine here.
#[derive(Debug, Clone)]
pub struct SimSpan {
    /// Lane id within [`SIM_PID`] (e.g. 0 = copy engine, 1 = compute).
    pub tid: u32,
    /// Lane display name; the first span on a lane names it.
    pub lane: &'static str,
    pub name: String,
    pub start_secs: f64,
    pub dur_secs: f64,
    pub args: Vec<(&'static str, f64)>,
}

/// Everything one tracing session produced.
#[derive(Debug)]
pub struct Trace {
    /// Wall-clock events in ring (claim) order.
    pub events: Vec<Event>,
    /// `(tid, name)` lane names registered via [`crate::set_lane_name`].
    pub lanes: Vec<(u32, String)>,
    /// Metric values at session finish.
    pub metrics: Vec<MetricSnapshot>,
    /// Events lost to ring saturation.
    pub dropped: u64,
    /// Simulated-device lanes; attach via [`Trace::push_sim_spans`].
    pub sim_spans: Vec<SimSpan>,
}

impl Trace {
    /// Append simulated-device spans (e.g. from
    /// `zonal::timing::sim_device_spans`).
    pub fn push_sim_spans(&mut self, spans: impl IntoIterator<Item = SimSpan>) {
        self.sim_spans.extend(spans);
    }

    /// Render the trace as a Chrome Trace Event Format JSON document.
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<Value> = Vec::new();

        // Process + thread metadata first, in deterministic order.
        events.push(meta_event("process_name", WALL_PID, 0, "wall clock"));
        if !self.sim_spans.is_empty() {
            events.push(meta_event("process_name", SIM_PID, 0, "simulated device"));
        }
        for (tid, name) in &self.lanes {
            events.push(meta_event("thread_name", WALL_PID, u64::from(*tid), name));
        }
        let mut named_sim: Vec<u32> = Vec::new();
        for s in &self.sim_spans {
            if !named_sim.contains(&s.tid) {
                named_sim.push(s.tid);
                events.push(meta_event("thread_name", SIM_PID, u64::from(s.tid), s.lane));
            }
        }

        for e in &self.events {
            events.push(wall_event(e));
        }
        for s in &self.sim_spans {
            events.push(sim_event(s));
        }

        let mut metrics: Vec<(String, Value)> = Vec::new();
        for m in &self.metrics {
            metrics.push((m.name.to_string(), metric_value(&m.value)));
        }

        let doc = Value::Map(vec![
            ("traceEvents".to_string(), Value::Seq(events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
            (
                "otherData".to_string(),
                Value::Map(vec![
                    ("dropped_events".to_string(), Value::U64(self.dropped)),
                    ("metrics".to_string(), Value::Map(metrics)),
                ]),
            ),
        ]);
        render(&doc)
    }
}

/// `serde_json` shim entry points want `T: Serialize`; `Value` itself
/// does not implement it, so bounce through a trivial newtype.
fn render(v: &Value) -> String {
    struct Raw(Value);
    impl serde::Serialize for Raw {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string_pretty(&Raw(v.clone())).expect("trace serialization is infallible")
}

fn meta_event(kind: &str, pid: u64, tid: u64, name: &str) -> Value {
    Value::Map(vec![
        ("name".to_string(), Value::Str(kind.to_string())),
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::U64(pid)),
        ("tid".to_string(), Value::U64(tid)),
        (
            "args".to_string(),
            Value::Map(vec![("name".to_string(), Value::Str(name.to_string()))]),
        ),
    ])
}

fn wall_event(e: &Event) -> Value {
    let mut m: Vec<(String, Value)> = vec![
        ("name".to_string(), Value::Str(e.name.to_string())),
        ("pid".to_string(), Value::U64(WALL_PID)),
        ("tid".to_string(), Value::U64(u64::from(e.tid))),
        ("ts".to_string(), Value::F64(e.ts_us)),
    ];
    match e.kind {
        EventKind::Span => {
            m.push(("ph".to_string(), Value::Str("X".to_string())));
            m.push(("dur".to_string(), Value::F64(e.dur_us)));
        }
        EventKind::Instant => {
            m.push(("ph".to_string(), Value::Str("i".to_string())));
            // Thread-scoped instant marker.
            m.push(("s".to_string(), Value::Str("t".to_string())));
        }
        EventKind::Sample => {
            m.push(("ph".to_string(), Value::Str("C".to_string())));
        }
    }
    let args: Vec<(String, Value)> = e
        .args()
        .iter()
        .map(|(k, v)| (k.to_string(), Value::U64(*v)))
        .collect();
    if !args.is_empty() {
        m.push(("args".to_string(), Value::Map(args)));
    }
    Value::Map(m)
}

fn sim_event(s: &SimSpan) -> Value {
    let mut m: Vec<(String, Value)> = vec![
        ("name".to_string(), Value::Str(s.name.clone())),
        ("pid".to_string(), Value::U64(SIM_PID)),
        ("tid".to_string(), Value::U64(u64::from(s.tid))),
        ("ph".to_string(), Value::Str("X".to_string())),
        // Simulated seconds → trace microseconds.
        ("ts".to_string(), Value::F64(s.start_secs * 1e6)),
        ("dur".to_string(), Value::F64(s.dur_secs * 1e6)),
    ];
    let args: Vec<(String, Value)> = s
        .args
        .iter()
        .map(|(k, v)| (k.to_string(), Value::F64(*v)))
        .collect();
    if !args.is_empty() {
        m.push(("args".to_string(), Value::Map(args)));
    }
    Value::Map(m)
}

fn metric_value(v: &MetricValue) -> Value {
    match v {
        MetricValue::Counter(n) => Value::U64(*n),
        MetricValue::Gauge(n) => Value::U64(*n),
        MetricValue::Histogram { count, sum, max } => Value::Map(vec![
            ("count".to_string(), Value::U64(*count)),
            ("sum".to_string(), Value::U64(*sum)),
            ("max".to_string(), Value::U64(*max)),
        ]),
    }
}

/// What [`validate_chrome_json`] learned about a well-formed trace.
#[derive(Debug, Default, Clone)]
pub struct TraceSummary {
    pub n_events: usize,
    pub n_spans: usize,
    pub n_instants: usize,
    pub n_samples: usize,
    /// Lane display names seen in `thread_name` metadata (both pids).
    pub lane_names: Vec<String>,
    /// True when at least one span lives on [`SIM_PID`].
    pub has_sim_lanes: bool,
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

/// Structurally validate a Chrome Trace Event Format document.
///
/// Checks performed: the document parses with the `serde_json` shim and
/// has a `traceEvents` array; every event carries `name`/`ph`/`pid`/
/// `tid`, phases are from the emitted set, `X` spans have finite
/// non-negative `ts`/`dur`; and per `(pid, tid)` lane, spans nest
/// strictly — a span starting inside an open span must end within it.
pub fn validate_chrome_json(text: &str) -> Result<TraceSummary, String> {
    let doc = serde_json::value_from_str(text).map_err(|e| format!("JSON parse error: {e}"))?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_seq()
        .ok_or("traceEvents is not an array")?;

    // (pid, tid) -> list of (ts, dur) for nesting checks.
    type LaneSpans = Vec<((u64, u64), Vec<(f64, f64)>)>;
    let mut summary = TraceSummary::default();
    let mut spans_by_lane: LaneSpans = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let ctx = |field: &str| format!("event {i}: bad or missing `{field}`");
        ev.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("name"))?;
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("ph"))?;
        let pid = ev.get("pid").and_then(num).ok_or_else(|| ctx("pid"))? as u64;
        let tid = ev.get("tid").and_then(num).ok_or_else(|| ctx("tid"))? as u64;
        match ph {
            "M" => {
                if let Some(name) = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                {
                    summary.lane_names.push(name.to_string());
                }
                continue;
            }
            "X" => {
                let ts = ev.get("ts").and_then(num).ok_or_else(|| ctx("ts"))?;
                let dur = ev.get("dur").and_then(num).ok_or_else(|| ctx("dur"))?;
                if !ts.is_finite() || !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i}: non-finite or negative ts/dur"));
                }
                summary.n_spans += 1;
                if pid == SIM_PID {
                    summary.has_sim_lanes = true;
                }
                match spans_by_lane.iter_mut().find(|(k, _)| *k == (pid, tid)) {
                    Some((_, v)) => v.push((ts, dur)),
                    None => spans_by_lane.push(((pid, tid), vec![(ts, dur)])),
                }
            }
            "i" => {
                ev.get("ts").and_then(num).ok_or_else(|| ctx("ts"))?;
                summary.n_instants += 1;
            }
            "C" => {
                ev.get("ts").and_then(num).ok_or_else(|| ctx("ts"))?;
                summary.n_samples += 1;
            }
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
        summary.n_events += 1;
    }

    for ((pid, tid), mut spans) in spans_by_lane {
        // Sort by start time, longest-first on ties so a parent precedes
        // the child that starts at the same instant.
        spans.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        // Tolerance for float noise when span edges are computed twice.
        let eps = 1e-6;
        let mut stack: Vec<f64> = Vec::new(); // open span end times
        for (ts, dur) in spans {
            while let Some(&end) = stack.last() {
                if ts >= end - eps {
                    stack.pop();
                } else {
                    break;
                }
            }
            let my_end = ts + dur;
            if let Some(&end) = stack.last() {
                if my_end > end + eps {
                    return Err(format!(
                        "lane pid={pid} tid={tid}: span [{ts}, {my_end}) \
                         partially overlaps enclosing span ending at {end}"
                    ));
                }
            }
            stack.push(my_end);
        }
    }

    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn span(tid: u32, ts: f64, dur: f64) -> Event {
        Event::new(EventKind::Span, "s", tid, ts).with_dur(dur)
    }

    fn trace_with(events: Vec<Event>) -> Trace {
        Trace {
            events,
            lanes: vec![(0, "lane0".to_string())],
            metrics: Vec::new(),
            dropped: 0,
            sim_spans: Vec::new(),
        }
    }

    #[test]
    fn export_roundtrips_and_validates() {
        let mut t = trace_with(vec![
            span(0, 0.0, 10.0),
            span(0, 2.0, 3.0), // nested
            Event::new(EventKind::Instant, "mark", 0, 5.0).with_arg("rank", 2),
            Event::new(EventKind::Sample, "depth", 0, 6.0).with_arg("depth", 3),
        ]);
        t.push_sim_spans(vec![SimSpan {
            tid: 0,
            lane: "sim-copy",
            name: "xfer strip 0".to_string(),
            start_secs: 0.0,
            dur_secs: 0.25,
            args: vec![("bytes", 1024.0)],
        }]);
        let json = t.to_chrome_json();
        let s = validate_chrome_json(&json).expect("valid trace");
        assert_eq!(s.n_spans, 3, "two wall spans plus one sim span");
        assert_eq!(s.n_instants, 1);
        assert_eq!(s.n_samples, 1);
        assert!(s.has_sim_lanes);
        assert!(s.lane_names.iter().any(|n| n == "lane0"));
        assert!(s.lane_names.iter().any(|n| n == "sim-copy"));
    }

    #[test]
    fn partial_overlap_is_rejected() {
        let t = trace_with(vec![span(0, 0.0, 10.0), span(0, 5.0, 10.0)]);
        let json = t.to_chrome_json();
        let err = validate_chrome_json(&json).unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
    }

    #[test]
    fn disjoint_and_distinct_lane_spans_are_fine() {
        let t = trace_with(vec![
            span(0, 0.0, 4.0),
            span(0, 4.0, 4.0), // touching is not overlapping
            span(1, 2.0, 10.0),
        ]);
        validate_chrome_json(&t.to_chrome_json()).expect("valid");
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(validate_chrome_json("not json").is_err());
        assert!(validate_chrome_json("{}").is_err());
        assert!(validate_chrome_json(r#"{"traceEvents": [{"ph": "X"}]}"#).is_err());
    }
}
