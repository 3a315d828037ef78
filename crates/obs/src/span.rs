//! Thread lanes and RAII span guards.
//!
//! Every thread that records events gets a small integer lane id on
//! first use (a thread-local cache over a global counter). Lane *names*
//! ("compute", "rank 3", …) are owned strings and therefore
//! live in the session's cold-path side table, registered via
//! [`set_lane_name`]; the hot path only ever touches the `u32` id.

use crate::event::{Event, EventKind, MAX_ARGS};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static CUR_TID: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// Lane id of the calling thread, allocated on first use.
pub fn current_tid() -> u32 {
    CUR_TID.with(|c| {
        let t = c.get();
        if t != u32::MAX {
            return t;
        }
        let t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        c.set(t);
        t
    })
}

/// Name the calling thread's lane in the exported trace (cold path; a
/// no-op while tracing is disabled). Calling again overrides the name.
pub fn set_lane_name(name: impl Into<String>) {
    if crate::enabled() {
        crate::register_lane(current_tid(), name.into());
    }
}

/// RAII guard recording a [`EventKind::Span`] event from construction to
/// drop on the calling thread's lane. Construct via [`crate::span`].
///
/// With tracing disabled the guard is unarmed: construction is one
/// relaxed atomic load and drop is a branch — no clock read, no event.
pub struct SpanGuard {
    name: &'static str,
    start_us: f64,
    armed: bool,
    args: [(&'static str, u64); MAX_ARGS],
    n_args: u8,
}

impl SpanGuard {
    pub(crate) fn new(name: &'static str) -> Self {
        let armed = crate::enabled();
        SpanGuard {
            name,
            start_us: if armed { crate::now_us() } else { 0.0 },
            armed,
            args: [("", 0); MAX_ARGS],
            n_args: 0,
        }
    }

    /// Attach an argument recorded when the span closes. Useful for
    /// values only known at the end, e.g. a work-counter snapshot taken
    /// after a kernel ran. Bounded by [`MAX_ARGS`]; extra pairs are
    /// silently ignored.
    pub fn arg(&mut self, name: &'static str, value: u64) -> &mut Self {
        if self.armed && (self.n_args as usize) < MAX_ARGS {
            self.args[self.n_args as usize] = (name, value);
            self.n_args += 1;
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = crate::now_us();
        let mut ev = Event::new(EventKind::Span, self.name, current_tid(), self.start_us)
            .with_dur(end - self.start_us);
        ev.args = self.args;
        ev.n_args = self.n_args;
        crate::record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tids_are_stable_per_thread_and_distinct() {
        let a = current_tid();
        assert_eq!(a, current_tid());
        let b = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn disabled_guard_records_nothing() {
        // Hold the session lock so no concurrent test has tracing on.
        let _serial = crate::SESSION_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let mut g = SpanGuard::new("idle");
        g.arg("x", 1);
        assert!(!g.armed);
        drop(g); // must not panic or record
    }
}
