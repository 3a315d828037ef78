//! Software GPU execution and cost model.
//!
//! The paper maps each pipeline step to CUDA thread-block kernels on Fermi
//! and Kepler GPUs. No GPU is assumed here; instead this crate provides the
//! two halves that substitution needs:
//!
//! 1. **Execution** ([`exec`], [`block`], [`atomic`]) — kernels are written
//!    against the same decomposition as the paper's CUDA code (a grid of
//!    independent thread blocks; threads inside a block iterate with a
//!    `blockDim` stride and synchronize at barriers) and run *for real* on
//!    the CPU, preserving the algorithm and its memory-access structure
//!    (a launch runs its blocks in order on the calling thread).
//!    [`block::SimtBlock`] is a faithful barrier-accurate emulator used by
//!    tests; [`exec::launch`] is the fast path used by the pipeline.
//! 2. **Cost model** ([`device`], [`cost`]) — kernels count their work
//!    (bytes streamed, scattered accesses, arithmetic, atomics) in a
//!    [`cost::WorkCounter`]; [`cost::CostModel`] converts those counts into
//!    simulated seconds on a published device (Quadro 6000, GTX Titan,
//!    Tesla K20X), using the parameters the paper itself quotes (448 vs
//!    2,688 cores, 144 vs 288.4 GB/s) plus four per-kernel-class efficiency
//!    constants calibrated once against Table 2 and documented in
//!    EXPERIMENTS.md.
//!
//! [`primitives`] supplies the Thrust primitives the paper composes Step 3
//! from (`stable_sort_by_key`, `stable_partition`, `reduce_by_key`, `scan`).
//!
//! A third concern rides on the first two: **kernel discipline checking**.
//! [`tracked`] wraps the atomic buffers so shared-state accesses are
//! observable, and (under the `sanitize` feature) [`sanitizer`] runs a
//! happens-before race detector, barrier-divergence diagnosis, and
//! access-pattern lints over SIMT executions — the cuda-memcheck/racecheck
//! analogue for this simulated GPU. With the feature off, [`tracked`]
//! buffers compile down to the plain atomics and nothing else is built.

pub mod atomic;
pub mod block;
pub mod cost;
pub mod device;
pub mod exec;
pub mod occupancy;
pub mod primitives;
#[cfg(feature = "sanitize")]
pub mod sanitizer;
pub mod tracked;

pub use atomic::{AtomicBufU32, AtomicBufU64};
pub use cost::{CostModel, KernelClass, KernelWork, StripCost, StripSchedule, WorkCounter};
pub use device::{Arch, DeviceSpec};
pub use occupancy::{occupancy, BlockResources, Occupancy, SmLimits, WARP_SIZE};
#[cfg(feature = "sanitize")]
pub use sanitizer::{BlockReport, DivergenceReport, LintKind, LintReport, RaceKind, RaceReport};
pub use tracked::{AccessKind, TrackedBuf, TrackedBufU32, TrackedBufU64};
