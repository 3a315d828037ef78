//! Device-buffer analogues with atomic update semantics.
//!
//! The paper's kernels update shared histograms with `atomicAdd`. These
//! buffers give the Rust kernels the same tool: any number of threads may
//! `add` concurrently; the buffer converts back into a plain vector once the
//! kernel completes (the device-to-host copy).
//!
//! # Memory-ordering audit
//!
//! Every operation here is `Ordering::Relaxed`, and that is deliberate.
//! The happens-before model these buffers live under (formalized by
//! `sanitizer`'s epoch semantics) never asks an atomic operation
//! to *publish* anything — cross-thread ordering is always established by
//! a stronger external edge, one of:
//!
//! 1. **Barriers.** Inside a [`crate::block::SimtBlock`], `__syncthreads`
//!    (a [`std::sync::Barrier`] or the sanitizer's divergence barrier, both
//!    built on acquire/release internals) separates kernel phases. Relaxed
//!    writes sequenced before a thread's barrier arrival happen-before
//!    everything sequenced after any thread's corresponding departure, so
//!    the zero-bins / sync / accumulate discipline of Fig. 2 is correct
//!    with Relaxed stores.
//! 2. **Thread join.** `SimtBlock`'s scoped threads, and the host threads
//!    that run [`crate::exec::launch`]es, join before results are read;
//!    join is a full happens-before edge, so `into_vec`/`to_vec` after a
//!    launch observe every kernel write.
//! 3. **Independence.** Between barriers, concurrent `add`s to the same
//!    counter are pure counting: each `fetch_add` is an atomic
//!    read-modify-write, every modification is applied exactly once
//!    (modification order per location is total even under Relaxed), and
//!    nobody reads the counter until an edge of kind 1 or 2. A counting
//!    histogram therefore needs no acquire/release at all — the same
//!    reason CUDA's `atomicAdd` has relaxed semantics by default.
//!
//! What Relaxed does **not** give is ordering *between different
//! locations* with no barrier in between — exactly the class of bug the
//! sanitizer's race detector reports (a non-atomic `store` concurrent
//! with any other access). No ordering here was found too weak under that
//! model; upgrading any of these to Acquire/Release would only mask
//! missing-barrier bugs on real GPUs while slowing the emulation.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

macro_rules! atomic_buf {
    ($name:ident, $atomic:ty, $prim:ty) => {
        /// A fixed-size buffer of atomic counters.
        #[derive(Debug)]
        pub struct $name {
            data: Vec<$atomic>,
        }

        impl $name {
            /// Zero-initialized buffer of `len` counters.
            pub fn new(len: usize) -> Self {
                let mut data = Vec::with_capacity(len);
                data.resize_with(len, || <$atomic>::new(0));
                Self { data }
            }

            /// Buffer initialized from existing values.
            pub fn from_vec(v: Vec<$prim>) -> Self {
                Self {
                    data: v.into_iter().map(<$atomic>::new).collect(),
                }
            }

            #[inline]
            pub fn len(&self) -> usize {
                self.data.len()
            }

            #[inline]
            pub fn is_empty(&self) -> bool {
                self.data.is_empty()
            }

            /// `atomicAdd(&buf[i], v)`.
            ///
            /// Relaxed: counting only — never used to publish other data
            /// (see the module-level ordering audit, case 3).
            #[inline]
            pub fn add(&self, i: usize, v: $prim) {
                self.data[i].fetch_add(v, Ordering::Relaxed);
            }

            /// Load of `buf[i]`, modelling a *non-atomic* GPU read.
            ///
            /// Relaxed: visibility of prior-phase writes comes from the
            /// separating barrier (audit case 1), not from this load.
            #[inline]
            pub fn load(&self, i: usize) -> $prim {
                self.data[i].load(Ordering::Relaxed)
            }

            /// Store to `buf[i]`, modelling a *non-atomic* GPU write; only
            /// safe logic-wise between kernel phases — the sanitizer treats
            /// this as the dangerous access kind in its race rule.
            ///
            /// Relaxed: readers are separated by a barrier or join (audit
            /// cases 1-2); concurrent unseparated access is a kernel bug
            /// this crate's sanitizer exists to report, not to hide.
            #[inline]
            pub fn store(&self, i: usize, v: $prim) {
                self.data[i].store(v, Ordering::Relaxed);
            }

            /// Consume into a plain vector (the device→host copy).
            pub fn into_vec(self) -> Vec<$prim> {
                self.data.into_iter().map(|a| a.into_inner()).collect()
            }

            /// Snapshot without consuming.
            pub fn to_vec(&self) -> Vec<$prim> {
                self.data
                    .iter()
                    .map(|a| a.load(Ordering::Relaxed))
                    .collect()
            }
        }
    };
}

atomic_buf!(AtomicBufU32, AtomicU32, u32);
atomic_buf!(AtomicBufU64, AtomicU64, u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_adds_are_lossless() {
        // Enough adds that a non-atomic read-modify-write loses some.
        const THREADS: usize = 4;
        const ADDS: usize = 400_000;
        let buf = AtomicBufU32::new(16);
        // The barrier releases every thread at once, so their adds overlap.
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (buf, start) = (&buf, &start);
                s.spawn(move || {
                    start.wait();
                    // Contiguous chunks: every thread hits every counter.
                    let chunk = ADDS / THREADS;
                    for i in t * chunk..(t + 1) * chunk {
                        buf.add(i % 16, 1);
                    }
                });
            }
        });
        let v = buf.into_vec();
        assert_eq!(v.iter().map(|&x| x as usize).sum::<usize>(), ADDS);
        for &x in &v {
            assert_eq!(x as usize, ADDS / 16);
        }
    }

    #[test]
    fn from_vec_roundtrip() {
        let buf = AtomicBufU64::from_vec(vec![5, 10, 15]);
        buf.add(1, 7);
        assert_eq!(buf.load(1), 17);
        assert_eq!(buf.into_vec(), vec![5, 17, 15]);
    }

    #[test]
    fn to_vec_snapshots() {
        let buf = AtomicBufU32::new(3);
        buf.add(2, 9);
        assert_eq!(buf.to_vec(), vec![0, 0, 9]);
        buf.add(2, 1);
        assert_eq!(buf.to_vec(), vec![0, 0, 10]);
    }

    #[test]
    fn store_overwrites() {
        let buf = AtomicBufU32::new(2);
        buf.add(0, 3);
        buf.store(0, 100);
        assert_eq!(buf.load(0), 100);
    }
}
