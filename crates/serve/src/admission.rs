//! Admission control: a bounded queue plus a simulated-device occupancy
//! budget, so overload degrades into typed sheds instead of unbounded
//! queueing.
//!
//! Two gates run at submit time, cheapest first:
//!
//! 1. **Queue depth** — at most `queue_capacity` requests may be
//!    admitted-but-unfinished; beyond that the request is shed with
//!    [`ServeError::QueueFull`].
//! 2. **Device occupancy** — each query is priced by the [`CostModel`]
//!    (the same model the pipeline's timing reports use) as estimated
//!    simulated device seconds; the sum over admitted-but-unfinished
//!    queries may not exceed `max_outstanding_sim_secs`, else
//!    [`ServeError::Saturated`]. A query whose plan's answer is cached
//!    or being filled is estimated at zero, so a warm cache raises
//!    effective admission capacity exactly like it raises throughput.
//!
//! Both gates reserve optimistically (`fetch_add`) and roll back on
//! rejection, so concurrent submitters can never oversubscribe. The
//! [`Admission`] guard releases both on drop, so no path can leak a slot.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use zonal_gpusim::{CostModel, KernelClass, KernelWork};

use crate::error::ServeError;

/// Fixed-point microseconds: occupancy lives in an `AtomicU64`.
const US_PER_SEC: f64 = 1e6;

/// Estimate the simulated device seconds one partition of `cells`
/// raster cells costs through Steps 0–4, using the same per-cell work
/// constants the pipeline counts (decode flops, one histogram atomic
/// per cell, a boundary fraction of PIP tests).
///
/// This is an *admission* estimate — deliberately simple, never fed
/// back into any reported figure. It only needs to rank load
/// correctly, and to scale linearly in cells like the real pass does.
pub fn estimate_partition_sim_secs(model: &CostModel, cells: u64) -> f64 {
    // Step 0: bitplane decode (32 flops/cell, ~2 B/cell streamed).
    let decode = KernelWork {
        flops: cells * zonal_core::pipeline::DECODE_FLOPS_PER_CELL,
        coalesced_bytes: cells * 3,
        ..Default::default()
    };
    // Step 1: one global atomic + one 2-byte read per cell.
    let hist = KernelWork {
        flops: cells,
        coalesced_bytes: cells * 2,
        atomics: cells,
        ..Default::default()
    };
    // Step 4: assume ~1/8 of cells sit in boundary tiles, ~24 flops per
    // PIP test (edge loop) — the paper's headline is that this fraction
    // is small.
    let pip = KernelWork {
        flops: cells / 8 * 24,
        scattered_bytes: cells / 8,
        ..Default::default()
    };
    model.kernel_secs(KernelClass::Decode, &decode)
        + model.kernel_secs(KernelClass::Histogram, &hist)
        + model.kernel_secs(KernelClass::PipTest, &pip)
}

/// Shared admission state. One instance per service; all counters are
/// lock-free.
#[derive(Debug)]
pub struct AdmissionController {
    queue_capacity: usize,
    depth: AtomicUsize,
    limit_us: u64,
    outstanding_us: AtomicU64,
}

/// A successful admission: the queue slot and occupancy reservation,
/// released when the guard is dropped.
#[derive(Debug)]
#[must_use = "dropping an admission releases its slot"]
pub struct Admission {
    controller: Arc<AdmissionController>,
    pub estimate_sim_secs: f64,
    estimate_us: u64,
}

impl Drop for Admission {
    fn drop(&mut self) {
        self.controller
            .outstanding_us
            .fetch_sub(self.estimate_us, Ordering::Relaxed);
        self.controller.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

impl AdmissionController {
    pub fn new(queue_capacity: usize, max_outstanding_sim_secs: f64) -> Self {
        assert!(queue_capacity > 0, "queue capacity must be positive");
        assert!(
            max_outstanding_sim_secs > 0.0,
            "occupancy limit must be positive"
        );
        AdmissionController {
            queue_capacity,
            depth: AtomicUsize::new(0),
            limit_us: (max_outstanding_sim_secs * US_PER_SEC) as u64,
            outstanding_us: AtomicU64::new(0),
        }
    }

    /// Requests admitted and not yet finished.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Estimated simulated seconds of admitted-but-unfinished work.
    pub fn outstanding_sim_secs(&self) -> f64 {
        self.outstanding_us.load(Ordering::Relaxed) as f64 / US_PER_SEC
    }

    /// Try to admit a request estimated at `estimate_sim_secs` of
    /// device work. On `Err` nothing is reserved.
    pub fn try_admit(self: &Arc<Self>, estimate_sim_secs: f64) -> Result<Admission, ServeError> {
        let prev_depth = self.depth.fetch_add(1, Ordering::Relaxed);
        if prev_depth >= self.queue_capacity {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return Err(ServeError::QueueFull {
                depth: prev_depth,
                capacity: self.queue_capacity,
            });
        }
        let estimate_us = (estimate_sim_secs * US_PER_SEC).ceil() as u64;
        let prev_us = self
            .outstanding_us
            .fetch_add(estimate_us, Ordering::Relaxed);
        if prev_us + estimate_us > self.limit_us && prev_us > 0 {
            // Roll back both reservations. An empty device always
            // admits (prev_us == 0): a single query larger than the
            // budget must still be servable, just never concurrently.
            self.outstanding_us
                .fetch_sub(estimate_us, Ordering::Relaxed);
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return Err(ServeError::Saturated {
                outstanding_sim_secs: prev_us as f64 / US_PER_SEC,
                estimate_sim_secs,
                limit_sim_secs: self.limit_us as f64 / US_PER_SEC,
            });
        }
        Ok(Admission {
            controller: Arc::clone(self),
            estimate_sim_secs,
            estimate_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_gpusim::DeviceSpec;

    #[test]
    fn estimate_scales_linearly() {
        let m = CostModel::new(DeviceSpec::gtx_titan());
        let one = estimate_partition_sim_secs(&m, 1_000_000);
        let ten = estimate_partition_sim_secs(&m, 10_000_000);
        assert!(one > 0.0);
        assert!((ten / one - 10.0).abs() < 0.01, "{ten} vs {one}");
    }

    #[test]
    fn queue_gate_sheds_at_capacity() {
        let a = Arc::new(AdmissionController::new(2, 1000.0));
        let g1 = a.try_admit(1.0).expect("first");
        let _g2 = a.try_admit(1.0).expect("second");
        let err = a.try_admit(1.0).expect_err("third must shed");
        assert!(matches!(err, ServeError::QueueFull { capacity: 2, .. }));
        drop(g1);
        let _g3 = a.try_admit(1.0).expect("slot freed");
    }

    #[test]
    fn occupancy_gate_sheds_and_recovers() {
        let a = Arc::new(AdmissionController::new(100, 2.0));
        let g1 = a.try_admit(1.5).expect("fits");
        let err = a.try_admit(1.0).expect_err("would exceed 2.0s");
        match err {
            ServeError::Saturated {
                outstanding_sim_secs,
                limit_sim_secs,
                ..
            } => {
                assert!((outstanding_sim_secs - 1.5).abs() < 1e-6);
                assert!((limit_sim_secs - 2.0).abs() < 1e-6);
            }
            other => panic!("wrong error: {other:?}"),
        }
        drop(g1);
        assert_eq!(a.depth(), 0);
        assert!(a.outstanding_sim_secs() < 1e-9);
        let _g2 = a.try_admit(1.0).expect("device drained");
    }

    #[test]
    fn oversized_query_admitted_alone() {
        // A single query pricier than the whole budget still runs —
        // on an idle device — instead of being unservable forever.
        let a = Arc::new(AdmissionController::new(10, 1.0));
        let _g = a.try_admit(5.0).expect("idle device admits");
        let err = a.try_admit(0.1).expect_err("but nothing rides along");
        assert!(matches!(err, ServeError::Saturated { .. }));
    }

    #[test]
    fn concurrent_admission_never_oversubscribes() {
        let a = Arc::new(AdmissionController::new(16, 1e9));
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        if let Ok(_g) = a.try_admit(0.001) {
                            assert!(a.depth() <= 16);
                        }
                    }
                });
            }
        });
        assert_eq!(a.depth(), 0);
        assert!(a.outstanding_sim_secs() < 1e-9);
    }
}
