//! Grid-level kernel launch over independent blocks.
//!
//! A CUDA kernel launch is a grid of *independent* thread blocks: blocks may
//! not communicate except through global atomics, and the hardware schedules
//! them in any order. A launch here runs its blocks in order on the calling
//! thread; host concurrency comes from the callers (`run_partitions`
//! workers, cluster node threads and the serve pool). Kernels are still written to the independent-block contract
//! (`Fn + Sync`): anything a kernel writes must go through owned per-block
//! results ([`launch_map`]) or atomic buffers ([`crate::atomic`], or their
//! sanitizer-aware [`crate::tracked`] wrappers), the same discipline CUDA
//! imposes.
//!
//! Launches here are *not* traced by the kernel sanitizer: with blocks
//! forbidden to communicate except via atomics, intra-block barrier/race
//! discipline — what the sanitizer checks — is exercised on the
//! [`crate::block::SimtBlock`] renditions of the same kernels instead, and
//! a [`crate::tracked::TrackedBuf`] accessed outside a sanitized SIMT run
//! costs one thread-local check per access (nothing at all without the
//! `sanitize` feature).

use crate::cost::KernelWork;

/// Launch `n_blocks` independent blocks; `kernel(block_idx)` runs once per
/// block. Kernels must not depend on the block order.
pub fn launch<F>(n_blocks: usize, kernel: F)
where
    F: Fn(usize) + Sync,
{
    (0..n_blocks).for_each(kernel);
}

/// Launch blocks that each produce a value; results are returned in block
/// order (the analogue of each block writing to its own output slot).
pub fn launch_map<T, F>(n_blocks: usize, kernel: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    (0..n_blocks).map(kernel).collect()
}

/// Attach a [`KernelWork`] delta (`after - before`) to an open span —
/// blocks, flops, coalesced/scattered bytes, atomics, sub-launches; six
/// args exactly fill [`zonal_obs::MAX_ARGS`]. Used by instrumented
/// kernels whose work accounting happens outside the launch itself (the
/// pipeline's step kernels).
pub fn attach_work_args(
    span: &mut zonal_obs::SpanGuard,
    n_blocks: usize,
    before: &KernelWork,
    after: &KernelWork,
) {
    span.arg("blocks", n_blocks as u64);
    span.arg("flops", after.flops.saturating_sub(before.flops));
    span.arg(
        "coalesced_bytes",
        after.coalesced_bytes.saturating_sub(before.coalesced_bytes),
    );
    span.arg(
        "scattered_bytes",
        after.scattered_bytes.saturating_sub(before.scattered_bytes),
    );
    span.arg("atomics", after.atomics.saturating_sub(before.atomics));
    span.arg("launches", after.launches.saturating_sub(before.launches));
}

/// The CUDA strided-loop pattern
/// `for (k = 0; k < n; k += blockDim) { i = k + tid; if (i < n) … }`
/// as an iterator over the indices thread `tid` handles.
/// Panics on `block_dim == 0` in all build profiles: a zero block
/// dimension is an invalid launch configuration (CUDA rejects it at
/// launch time), and masking it would silently serialize the loop.
/// Mirrors `PipelineConfig::validate`.
#[inline]
pub fn strided(tid: usize, block_dim: usize, n: usize) -> impl Iterator<Item = usize> {
    assert!(block_dim > 0, "strided: block_dim must be positive");
    (tid..n).step_by(block_dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn launch_runs_every_block_once() {
        let hits = AtomicUsize::new(0);
        launch(1000, |_b| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn launch_map_preserves_block_order() {
        let out = launch_map(257, |b| b * b);
        assert_eq!(out.len(), 257);
        for (b, v) in out.iter().enumerate() {
            assert_eq!(*v, b * b);
        }
    }

    #[test]
    fn launch_zero_blocks() {
        launch(0, |_| panic!("no blocks should run"));
        let out: Vec<u32> = launch_map(0, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn strided_partitions_range() {
        // All threads together cover 0..n exactly once — the invariant the
        // paper's `k + threadIdx.x` loops rely on.
        let n = 1003;
        let block_dim = 256;
        let mut seen = vec![false; n];
        for tid in 0..block_dim {
            for i in strided(tid, block_dim, n) {
                assert!(!seen[i], "index {i} visited twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn strided_small_n() {
        assert_eq!(
            strided(3, 256, 2).count(),
            0,
            "thread beyond n does nothing"
        );
        assert_eq!(strided(1, 256, 2).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "block_dim must be positive")]
    fn strided_rejects_zero_block_dim() {
        // Must fail loudly in release builds too, not degrade to stride 1.
        let _ = strided(0, 0, 10);
    }
}
