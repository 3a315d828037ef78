//! Sanitizer-aware device buffers.
//!
//! [`TrackedBuf`] wraps an [`crate::atomic`] buffer and mirrors its API
//! exactly. Without the `sanitize` feature every method is a direct
//! `#[inline]` pass-through — the wrapper is a zero-sized veneer and the
//! `launch`/`SimtBlock` hot paths pay nothing. With `sanitize` enabled,
//! each access first consults a thread-local recorder installed by
//! `SimtBlock::run_sanitized`; outside a sanitized run the
//! consult is a single thread-local check and the access proceeds
//! untraced, so the instrumented build still runs the full pipeline.
//!
//! Kernels should hold their shared ("device") state in `TrackedBuf`s so
//! the same kernel body runs in production, under the SIMT emulator, and
//! under the sanitizer without modification.

use crate::atomic::{AtomicBufU32, AtomicBufU64};

/// How a kernel touched a buffer element. The sanitizer's race rule keys
/// off this: `Store` models a **non-atomic** GPU write (the dangerous
/// kind), `Load` a non-atomic read, `AtomicRmw` an `atomicAdd`-style
/// read-modify-write that is race-free against other atomics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    Load,
    Store,
    AtomicRmw,
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
            AccessKind::AtomicRmw => "atomic-rmw",
        })
    }
}

/// The buffer surface [`TrackedBuf`] instruments: implemented by
/// [`AtomicBufU32`] and [`AtomicBufU64`].
pub trait DeviceBacking {
    type Prim: Copy + Send + Sync;
    /// Element width in bytes, used by the coalescing lint to convert
    /// indices into the byte addresses a warp would issue.
    const ELEM_BYTES: u64;
    fn with_len(len: usize) -> Self;
    fn from_values(v: Vec<Self::Prim>) -> Self;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    fn add(&self, i: usize, v: Self::Prim);
    fn load(&self, i: usize) -> Self::Prim;
    fn store(&self, i: usize, v: Self::Prim);
    fn into_values(self) -> Vec<Self::Prim>;
    fn values(&self) -> Vec<Self::Prim>;
}

macro_rules! backing {
    ($buf:ty, $prim:ty, $bytes:expr) => {
        impl DeviceBacking for $buf {
            type Prim = $prim;
            const ELEM_BYTES: u64 = $bytes;
            fn with_len(len: usize) -> Self {
                Self::new(len)
            }
            fn from_values(v: Vec<$prim>) -> Self {
                Self::from_vec(v)
            }
            fn len(&self) -> usize {
                self.len()
            }
            fn add(&self, i: usize, v: $prim) {
                self.add(i, v)
            }
            fn load(&self, i: usize) -> $prim {
                self.load(i)
            }
            fn store(&self, i: usize, v: $prim) {
                self.store(i, v)
            }
            fn into_values(self) -> Vec<$prim> {
                self.into_vec()
            }
            fn values(&self) -> Vec<$prim> {
                self.to_vec()
            }
        }
    };
}

backing!(AtomicBufU32, u32, 4);
backing!(AtomicBufU64, u64, 8);

/// A device buffer whose accesses the sanitizer can observe.
///
/// API-compatible with the wrapped [`crate::atomic`] buffer; see the
/// module docs for the cost model of each build configuration.
#[derive(Debug)]
pub struct TrackedBuf<B> {
    inner: B,
    #[cfg(feature = "sanitize")]
    id: u32,
    #[cfg(feature = "sanitize")]
    label: &'static str,
}

/// Tracked `u32` counters (per-tile histograms, SIMT test kernels).
pub type TrackedBufU32 = TrackedBuf<AtomicBufU32>;
/// Tracked `u64` counters (the flat per-zone histogram device array).
pub type TrackedBufU64 = TrackedBuf<AtomicBufU64>;

impl<B: DeviceBacking> TrackedBuf<B> {
    /// Zero-initialized buffer of `len` counters with a generic label.
    pub fn new(len: usize) -> Self {
        Self::labelled("buf", len)
    }

    /// Zero-initialized buffer whose label names it in sanitizer reports
    /// (use the device-array name from the paper, e.g. `"his_d_polygon"`).
    pub fn labelled(label: &'static str, len: usize) -> Self {
        Self::wrap(label, B::with_len(len))
    }

    /// Buffer initialized from existing values.
    pub fn from_vec(v: Vec<B::Prim>) -> Self {
        Self::wrap("buf", B::from_values(v))
    }

    /// Labelled buffer initialized from existing values.
    pub fn labelled_from_vec(label: &'static str, v: Vec<B::Prim>) -> Self {
        Self::wrap(label, B::from_values(v))
    }

    fn wrap(label: &'static str, inner: B) -> Self {
        let _ = label;
        TrackedBuf {
            inner,
            #[cfg(feature = "sanitize")]
            id: crate::sanitizer::next_buf_id(),
            #[cfg(feature = "sanitize")]
            label,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// `atomicAdd(&buf[i], v)`.
    #[inline]
    pub fn add(&self, i: usize, v: B::Prim) {
        self.trace(i, AccessKind::AtomicRmw);
        self.inner.add(i, v);
    }

    /// Non-atomic read of `buf[i]`.
    #[inline]
    pub fn load(&self, i: usize) -> B::Prim {
        self.trace(i, AccessKind::Load);
        self.inner.load(i)
    }

    /// Non-atomic write of `buf[i]` (safe only between kernel phases; the
    /// sanitizer flags it when another thread touches `i` concurrently).
    #[inline]
    pub fn store(&self, i: usize, v: B::Prim) {
        self.trace(i, AccessKind::Store);
        self.inner.store(i, v);
    }

    /// Consume into a plain vector (the device→host copy).
    pub fn into_vec(self) -> Vec<B::Prim> {
        self.inner.into_values()
    }

    /// Snapshot without consuming.
    pub fn to_vec(&self) -> Vec<B::Prim> {
        self.inner.values()
    }

    /// The wrapped untracked buffer.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    #[cfg(not(feature = "sanitize"))]
    #[inline(always)]
    fn trace(&self, _i: usize, _kind: AccessKind) {}

    #[cfg(feature = "sanitize")]
    #[inline]
    fn trace(&self, i: usize, kind: AccessKind) {
        crate::sanitizer::record_access(
            self.id,
            self.label,
            self.inner.len(),
            B::ELEM_BYTES,
            i,
            kind,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrors_atomic_buf_semantics() {
        let buf = TrackedBufU32::from_vec(vec![5, 0, 0]);
        buf.add(0, 2);
        buf.store(1, 9);
        assert_eq!(buf.load(0), 7);
        assert_eq!(buf.to_vec(), vec![7, 9, 0]);
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
        assert_eq!(buf.into_vec(), vec![7, 9, 0]);
    }

    #[test]
    fn u64_variant() {
        let buf = TrackedBufU64::labelled("his", 2);
        buf.add(1, u64::from(u32::MAX) + 10);
        assert_eq!(buf.load(1), u64::from(u32::MAX) + 10);
        assert_eq!(buf.inner().len(), 2);
    }

    #[test]
    fn untracked_outside_sanitized_runs() {
        // With or without the feature, plain use never records or panics.
        let buf = TrackedBufU32::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..4 {
                        buf.add(i, 1);
                    }
                });
            }
        });
        assert_eq!(buf.to_vec(), vec![4; 4]);
    }
}
