//! Barrier-faithful thread-block emulation.
//!
//! [`SimtBlock`] runs a block's threads as real OS threads with a real
//! barrier, so `__syncthreads()` placement bugs (missing or divergent
//! barriers) surface as actual interleavings. It is deliberately slow and
//! used only by tests that validate the three paper kernels' barrier and
//! atomic structure; production launches use [`crate::exec`].
//!
//! With the `sanitize` feature, the block gains two diagnostic upgrades:
//!
//! * plain [`SimtBlock::run`] swaps the OS barrier for a
//!   `sanitizer::DivergenceBarrier`, so a divergent
//!   `__syncthreads` panics with a structured diagnosis (which tids were
//!   parked, which exited, at which barrier count) instead of hanging
//!   until a test watchdog kills the process;
//! * `SimtBlock::run_sanitized` additionally records every
//!   [`crate::tracked::TrackedBuf`] access into epoch-stamped traces and
//!   returns a `sanitizer::BlockReport` from the happens-before
//!   race detector and the access-pattern lints.
//!
//! Without the feature, `run` is exactly the plain barrier loop it always
//! was — zero added cost.

#[cfg(not(feature = "sanitize"))]
use std::sync::Barrier;

#[cfg(feature = "sanitize")]
use crate::sanitizer::{self, BlockReport, DivergenceBarrier, SanitizerAbort};

enum BarrierRef<'a> {
    #[cfg(not(feature = "sanitize"))]
    Std(&'a Barrier),
    #[cfg(feature = "sanitize")]
    Diag(&'a DivergenceBarrier),
}

/// Per-thread execution context inside an emulated block.
pub struct ThreadCtx<'a> {
    /// `threadIdx.x`.
    pub tid: usize,
    /// `blockDim.x`.
    pub block_dim: usize,
    barrier: BarrierRef<'a>,
}

impl ThreadCtx<'_> {
    /// `__syncthreads()`: every thread of the block must call this the same
    /// number of times. A divergent barrier deadlocks, exactly as on a GPU;
    /// under the `sanitize` feature the deadlock is detected and diagnosed
    /// instead (see the module docs).
    pub fn sync(&self) {
        match self.barrier {
            #[cfg(not(feature = "sanitize"))]
            BarrierRef::Std(b) => {
                b.wait();
            }
            #[cfg(feature = "sanitize")]
            BarrierRef::Diag(b) => {
                b.sync(self.tid);
                sanitizer::bump_epoch();
            }
        }
    }

    /// Indices this thread handles in a blockDim-strided loop over `n`
    /// items.
    pub fn strided(&self, n: usize) -> impl Iterator<Item = usize> {
        crate::exec::strided(self.tid, self.block_dim, n)
    }
}

/// An emulated thread block of `block_dim` threads.
pub struct SimtBlock {
    block_dim: usize,
}

impl SimtBlock {
    pub fn new(block_dim: usize) -> Self {
        assert!(block_dim > 0, "a block needs at least one thread");
        SimtBlock { block_dim }
    }

    /// Run `body(ctx)` once per thread, all threads concurrently, sharing
    /// whatever `Sync` state `body` captures.
    #[cfg(not(feature = "sanitize"))]
    pub fn run<F>(&self, body: F)
    where
        F: Fn(ThreadCtx<'_>) + Sync,
    {
        let barrier = Barrier::new(self.block_dim);
        std::thread::scope(|scope| {
            for tid in 0..self.block_dim {
                let barrier = &barrier;
                let body = &body;
                scope.spawn(move || {
                    body(ThreadCtx {
                        tid,
                        block_dim: self.block_dim,
                        barrier: BarrierRef::Std(barrier),
                    });
                });
            }
        });
    }

    /// Run `body(ctx)` once per thread, all threads concurrently, sharing
    /// whatever `Sync` state `body` captures.
    ///
    /// `sanitize` build: barrier divergence panics with a
    /// [`crate::sanitizer::DivergenceReport`] diagnosis instead of
    /// deadlocking. Accesses are *not* traced — use
    /// [`SimtBlock::run_sanitized`] for the full detector.
    #[cfg(feature = "sanitize")]
    pub fn run<F>(&self, body: F)
    where
        F: Fn(ThreadCtx<'_>) + Sync,
    {
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        use std::sync::Mutex;

        let barrier = DivergenceBarrier::new(self.block_dim);
        let user_panics = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for tid in 0..self.block_dim {
                let barrier = &barrier;
                let body = &body;
                let user_panics = &user_panics;
                scope.spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        body(ThreadCtx {
                            tid,
                            block_dim: self.block_dim,
                            barrier: BarrierRef::Diag(barrier),
                        });
                    }));
                    barrier.thread_exited(tid);
                    if let Err(payload) = outcome {
                        if !payload.is::<SanitizerAbort>() {
                            user_panics.lock().unwrap().push(payload);
                        }
                    }
                });
            }
        });
        // A kernel panic is the root cause of any ensuing divergence:
        // propagate it first.
        if let Some(payload) = user_panics.into_inner().unwrap().pop() {
            resume_unwind(payload);
        }
        if let Some(d) = barrier.divergence() {
            panic!("{d}");
        }
    }

    /// Run `body` under the kernel sanitizer: every
    /// [`crate::tracked::TrackedBuf`] access is recorded into an
    /// epoch-stamped trace, the schedule is deterministically perturbed
    /// from `seed`, and the happens-before race detector, lints, and
    /// barrier-divergence diagnosis are returned as a
    /// [`crate::sanitizer::BlockReport`].
    ///
    /// The detector is schedule-independent (epochs, not timings, decide
    /// concurrency) and the report is canonicalized, so the same seed
    /// always produces the same report. Panics raised by `body` itself are
    /// propagated after the block joins.
    #[cfg(feature = "sanitize")]
    pub fn run_sanitized<F>(&self, seed: u64, body: F) -> BlockReport
    where
        F: Fn(ThreadCtx<'_>) + Sync,
    {
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        use std::sync::Mutex;

        let n = self.block_dim;
        let barrier = DivergenceBarrier::new(n);
        let dumps = Mutex::new(Vec::with_capacity(n));
        let user_panics = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for tid in 0..n {
                let barrier = &barrier;
                let body = &body;
                let dumps = &dumps;
                let user_panics = &user_panics;
                scope.spawn(move || {
                    sanitizer::install(tid, seed);
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        body(ThreadCtx {
                            tid,
                            block_dim: n,
                            barrier: BarrierRef::Diag(barrier),
                        });
                    }));
                    barrier.thread_exited(tid);
                    dumps.lock().unwrap().push(sanitizer::uninstall(tid));
                    if let Err(payload) = outcome {
                        if !payload.is::<SanitizerAbort>() {
                            user_panics.lock().unwrap().push(payload);
                        }
                    }
                });
            }
        });
        if let Some(payload) = user_panics.into_inner().unwrap().pop() {
            resume_unwind(payload);
        }
        let barriers = barrier.barrier_count();
        let divergence = barrier.divergence();
        sanitizer::analyze(n, seed, barriers, divergence, dumps.into_inner().unwrap())
    }

    /// Sweep `seeds` through [`SimtBlock::run_sanitized`] and merge the
    /// findings — deterministic exploration of distinct interleavings.
    /// Useful for kernels whose access pattern depends on racy reads,
    /// where a single schedule may not exercise every conflicting pair.
    #[cfg(feature = "sanitize")]
    pub fn explore_schedules<F>(&self, seeds: &[u64], body: F) -> BlockReport
    where
        F: Fn(ThreadCtx<'_>) + Sync,
    {
        assert!(!seeds.is_empty(), "need at least one seed to explore");
        let mut merged: Option<BlockReport> = None;
        for &seed in seeds {
            let report = self.run_sanitized(seed, &body);
            match &mut merged {
                None => merged = Some(report),
                Some(m) => m.merge(report),
            }
        }
        merged.expect("at least one seed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicBufU32;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_threads_run() {
        let count = AtomicUsize::new(0);
        SimtBlock::new(32).run(|ctx| {
            assert!(ctx.tid < 32);
            assert_eq!(ctx.block_dim, 32);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn barrier_orders_phases() {
        // Phase 1 writes; after sync, phase 2 must observe all writes — the
        // exact pattern of the paper's Fig. 2 kernel (zero bins, sync,
        // accumulate).
        let n = 64usize;
        let buf = AtomicBufU32::new(n);
        let errors = AtomicUsize::new(0);
        SimtBlock::new(16).run(|ctx| {
            for i in ctx.strided(n) {
                buf.store(i, 7);
            }
            ctx.sync();
            for i in ctx.strided(n) {
                if buf.load(i) != 7 {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn histogram_kernel_shape() {
        // Miniature of the paper's Fig. 2 CellAggrKernel: zero bins, sync,
        // atomically count values.
        let hist_size = 16usize;
        let values: Vec<u16> = (0..1000).map(|i| (i % hist_size) as u16).collect();
        let hist = AtomicBufU32::from_vec(vec![u32::MAX; hist_size]); // dirty
        SimtBlock::new(8).run(|ctx| {
            for k in ctx.strided(hist_size) {
                hist.store(k, 0);
            }
            ctx.sync();
            for i in ctx.strided(values.len()) {
                hist.add(values[i] as usize, 1);
            }
        });
        let h = hist.into_vec();
        assert_eq!(h.iter().sum::<u32>(), 1000);
        for (bin, &count) in h.iter().enumerate() {
            let expected = values.iter().filter(|&&v| v as usize == bin).count() as u32;
            assert_eq!(count, expected, "bin {bin}");
        }
    }

    #[test]
    fn single_thread_block() {
        let total = AtomicUsize::new(0);
        SimtBlock::new(1).run(|ctx| {
            for i in ctx.strided(10) {
                total.fetch_add(i, Ordering::Relaxed);
            }
            ctx.sync();
        });
        assert_eq!(total.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn repeated_barriers() {
        let buf = AtomicBufU32::new(1);
        let violations = AtomicUsize::new(0);
        SimtBlock::new(4).run(|ctx| {
            for round in 0..10u32 {
                if ctx.tid == 0 {
                    buf.store(0, round);
                }
                ctx.sync();
                if buf.load(0) != round {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
                ctx.sync();
            }
        });
        assert_eq!(violations.load(Ordering::Relaxed), 0);
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn plain_run_diagnoses_divergence() {
        // Under `sanitize`, even the un-traced `run` replaces the deadlock
        // with a panic carrying the structured diagnosis.
        let caught = std::panic::catch_unwind(|| {
            SimtBlock::new(4).run(|ctx| {
                if ctx.tid < 2 {
                    ctx.sync();
                }
            });
        });
        let err = caught.expect_err("divergent barrier must not hang");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("barrier divergence"), "got: {msg}");
        assert!(msg.contains("[0, 1]"), "parked tids named: {msg}");
        assert!(msg.contains("[2, 3]"), "exited tids named: {msg}");
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn sanitized_user_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            SimtBlock::new(2).run_sanitized(1, |ctx| {
                assert!(ctx.tid != 1, "kernel assertion fires");
            });
        });
        assert!(caught.is_err());
    }
}
