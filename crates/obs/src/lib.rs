//! `zonal-obs`: structured tracing and metrics for the zonal-histogram
//! workspace.
//!
//! Design goals, in priority order:
//!
//! 1. **Zero-allocation disabled path.** Tracing is off by default
//!    behind one global `AtomicBool`. Every probe — [`span()`],
//!    [`instant`], [`sample`], metric updates — starts with a relaxed
//!    load of that flag and does nothing else when it is clear: no
//!    clock reads, no allocation, no locks. The `obs-overhead` bench
//!    experiment holds this to ≤ 3 % end-to-end.
//! 2. **No result perturbation.** Probes only *observe*; enabling a
//!    session changes no control flow in instrumented code, so outputs
//!    stay bit-identical (asserted by `tables -- obs-overhead`).
//! 3. **Lock-free hot path when enabled.** Events go into a bounded
//!    [`ring::EventRing`] via one `fetch_add` plus a release store;
//!    saturation is counted, never blocking.
//!
//! A [`TraceSession`] (see [`start`]) makes the process traced until
//! [`TraceSession::finish`] returns the collected [`chrome::Trace`],
//! which exports Chrome Trace Event Format JSON with dual clocks —
//! real wall-time lanes plus simulated-device lanes replayed from the
//! cost model. See `DESIGN.md` § Observability.

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod ring;
pub mod span;

pub use chrome::{validate_chrome_json, SimSpan, Trace, TraceSummary, SIM_PID, WALL_PID};
pub use event::{Event, EventKind, MAX_ARGS};
pub use metrics::{
    counter, gauge, histogram, Counter, Gauge, Histogram, MetricSnapshot, MetricValue,
};
pub use span::{current_tid, set_lane_name, SpanGuard};

use ring::EventRing;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Fast-path flag every probe checks first.
static ENABLED: AtomicBool = AtomicBool::new(false);

struct SessionState {
    ring: Arc<EventRing>,
    anchor: Instant,
    lanes: Mutex<Vec<(u32, String)>>,
}

static STATE: RwLock<Option<SessionState>> = RwLock::new(None);

/// Serializes sessions: the process-global sink supports one tracing
/// session at a time (tests taking this through [`start`] queue up
/// instead of corrupting each other's rings).
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// Is a tracing session active? Inlined relaxed load — the entire cost
/// of every probe in the disabled (default) state.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the active session's anchor (0 when disabled).
#[inline]
pub fn now_us() -> f64 {
    if !enabled() {
        return 0.0;
    }
    match STATE.read() {
        Ok(guard) => guard
            .as_ref()
            .map_or(0.0, |st| st.anchor.elapsed().as_secs_f64() * 1e6),
        Err(_) => 0.0,
    }
}

/// Default event-ring capacity for [`start`].
pub const DEFAULT_RING_CAPACITY: usize = 1 << 18;

/// Guard for an active tracing session. Created by [`start`]; dropping
/// it (or calling [`TraceSession::finish`]) disables tracing again.
pub struct TraceSession {
    _serial: MutexGuard<'static, ()>,
}

/// Begin a tracing session with the given event-ring capacity. Blocks
/// until any other session in the process has finished.
pub fn start(ring_capacity: usize) -> TraceSession {
    let serial = SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    {
        let mut st = STATE.write().unwrap_or_else(|p| p.into_inner());
        *st = Some(SessionState {
            ring: Arc::new(EventRing::new(ring_capacity)),
            anchor: Instant::now(),
            lanes: Mutex::new(Vec::new()),
        });
    }
    // Flush any stale metric values left by untraced code paths so the
    // session observes only its own activity.
    metrics::snapshot_and_reset();
    ENABLED.store(true, Ordering::SeqCst);
    TraceSession { _serial: serial }
}

impl TraceSession {
    /// End the session and return everything it captured.
    pub fn finish(self) -> Trace {
        ENABLED.store(false, Ordering::SeqCst);
        let st = STATE
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .take()
            .expect("finish called with no active session");
        let events = st.ring.drain();
        let lanes = st.lanes.into_inner().unwrap_or_else(|p| p.into_inner());
        Trace {
            events,
            lanes,
            metrics: metrics::snapshot_and_reset(),
            dropped: st.ring.dropped(),
            sim_spans: Vec::new(),
        }
        // `self` drops here, releasing SESSION_LOCK for the next session.
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        // Abandoned without finish(): still disable tracing and clear
        // state so later sessions start clean.
        ENABLED.store(false, Ordering::SeqCst);
        if let Ok(mut st) = STATE.write() {
            st.take();
        }
    }
}

/// Record a prebuilt event into the active session's ring (no-op when
/// tracing is disabled).
#[inline]
pub fn record(ev: Event) {
    if !enabled() {
        return;
    }
    if let Ok(guard) = STATE.read() {
        if let Some(st) = guard.as_ref() {
            st.ring.push(ev);
        }
    }
}

pub(crate) fn register_lane(tid: u32, name: String) {
    if let Ok(guard) = STATE.read() {
        if let Some(st) = guard.as_ref() {
            let mut lanes = st.lanes.lock().unwrap_or_else(|p| p.into_inner());
            match lanes.iter_mut().find(|(t, _)| *t == tid) {
                Some(entry) => entry.1 = name,
                None => lanes.push((tid, name)),
            }
        }
    }
}

/// Open a span on the calling thread's lane, closed when the returned
/// guard drops. Unarmed (one atomic load, nothing else) when disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::new(name)
}

/// Record a point-in-time marker (e.g. a fault injection) with bounded
/// arguments on the calling thread's lane.
#[inline]
pub fn instant(name: &'static str, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    let mut ev = Event::new(EventKind::Instant, name, current_tid(), now_us());
    for &(k, v) in args {
        ev = ev.with_arg(k, v);
    }
    record(ev);
}

/// Record one point of a counter-series (Chrome `C` phase), e.g. the
/// bounded-channel queue depth at a send/recv.
#[inline]
pub fn sample(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let ev = Event::new(EventKind::Sample, name, current_tid(), now_us()).with_arg("value", value);
    record(ev);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_are_inert() {
        // Hold the session lock so a concurrent test's session can't
        // flip the enabled flag under us.
        let _serial = SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        assert!(!enabled());
        span("nothing");
        instant("nothing", &[("a", 1)]);
        sample("nothing", 2);
        assert_eq!(now_us(), 0.0);
    }

    #[test]
    fn session_captures_spans_instants_samples_and_lanes() {
        let session = start(1024);
        set_lane_name("main-test-lane");
        {
            let mut g = span("outer");
            g.arg("k", 42);
            let _inner = span("inner");
        }
        instant("marker", &[("rank", 3)]);
        sample("queue_depth", 5);
        let trace = session.finish();
        assert!(!enabled());

        assert_eq!(trace.dropped, 0);
        let names: Vec<&str> = trace.events.iter().map(|e| e.name).collect();
        // Inner closes before outer, so it drains first.
        assert!(names.contains(&"inner"));
        assert!(names.contains(&"outer"));
        assert!(names.contains(&"marker"));
        assert!(names.contains(&"queue_depth"));
        assert!(trace.lanes.iter().any(|(_, n)| n == "main-test-lane"));

        let json = trace.to_chrome_json();
        let summary = validate_chrome_json(&json).expect("valid chrome trace");
        assert_eq!(summary.n_spans, 2);
        assert_eq!(summary.n_instants, 1);
        assert_eq!(summary.n_samples, 1);
    }

    #[test]
    fn metrics_reset_between_sessions() {
        // Counter bumped while disabled: must not leak into a session.
        let c = counter("test_leak_counter");
        c.add(5); // disabled → no-op
        let session = start(64);
        c.add(7);
        let trace = session.finish();
        let snap = trace
            .metrics
            .iter()
            .find(|m| m.name == "test_leak_counter")
            .expect("registered metric snapshotted");
        assert_eq!(snap.value, metrics::MetricValue::Counter(7));
        // And the registry was reset by finish().
        assert_eq!(c.get(), 0);
    }
}
