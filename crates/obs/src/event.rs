//! Fixed-size trace events.
//!
//! An [`Event`] is a plain `Copy` record — static name, lane id, two
//! timestamps, and a bounded argument list of `(&'static str, u64)`
//! pairs — so the hot recording path never allocates. Anything that
//! needs owned strings (lane names, simulated-device spans) lives in the
//! cold export path instead ([`crate::chrome`]).

/// Maximum `(name, value)` argument pairs one event can carry. Seven is
/// enough for a full [`KernelWork`]-style snapshot (flops, coalesced,
/// scattered, atomics, launches) plus two context values (a kernel's
/// blocks and, for Step 4, the pairs its blocks refine).
///
/// [`KernelWork`]: https://docs.rs/zonal-gpusim
pub const MAX_ARGS: usize = 7;

/// What an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `[ts_us, ts_us + dur_us)` on one lane
    /// (Chrome phase `X`).
    Span,
    /// A point-in-time marker, e.g. a fault injection (Chrome phase `i`).
    Instant,
    /// A sampled series value, e.g. queue depth (Chrome phase `C`).
    Sample,
}

/// One trace event. `Copy` and allocation-free by construction.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub kind: EventKind,
    /// Static event name (span label, marker label, or series name).
    pub name: &'static str,
    /// Lane (thread) the event belongs to; see [`crate::span()`].
    pub tid: u32,
    /// Microseconds since the session anchor.
    pub ts_us: f64,
    /// Span duration in microseconds (zero for instants and samples).
    pub dur_us: f64,
    /// Argument pairs; only the first `n_args` are meaningful.
    pub args: [(&'static str, u64); MAX_ARGS],
    pub n_args: u8,
}

impl Event {
    pub fn new(kind: EventKind, name: &'static str, tid: u32, ts_us: f64) -> Self {
        Event {
            kind,
            name,
            tid,
            ts_us,
            dur_us: 0.0,
            args: [("", 0); MAX_ARGS],
            n_args: 0,
        }
    }

    /// Attach an argument pair (silently ignored past [`MAX_ARGS`]).
    pub fn with_arg(mut self, name: &'static str, value: u64) -> Self {
        if (self.n_args as usize) < MAX_ARGS {
            self.args[self.n_args as usize] = (name, value);
            self.n_args += 1;
        }
        self
    }

    pub fn with_dur(mut self, dur_us: f64) -> Self {
        self.dur_us = dur_us;
        self
    }

    /// The meaningful argument pairs.
    pub fn args(&self) -> &[(&'static str, u64)] {
        &self.args[..self.n_args as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_are_bounded() {
        let mut e = Event::new(EventKind::Span, "k", 0, 1.0);
        for i in 0..10 {
            e = e.with_arg("a", i);
        }
        assert_eq!(e.args().len(), MAX_ARGS);
        assert_eq!(e.args()[MAX_ARGS - 1].1, (MAX_ARGS - 1) as u64);
    }

    #[test]
    fn builder_sets_fields() {
        let e = Event::new(EventKind::Instant, "crash", 3, 2.5).with_arg("rank", 7);
        assert_eq!(e.tid, 3);
        assert_eq!(e.ts_us, 2.5);
        assert_eq!(e.args(), &[("rank", 7)]);
    }
}
