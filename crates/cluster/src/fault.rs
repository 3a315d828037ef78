//! Deterministic fault injection for the simulated cluster.
//!
//! The paper's Titan runs assume every node and every MPI message
//! survives; at production scale that assumption fails routinely. This
//! module injects the classic failure modes — node crash, message loss,
//! message delay, payload corruption — from a seeded [`FaultPlan`], so a
//! chaos run is exactly reproducible: the same plan against the same
//! workload exercises the same failures every time.
//!
//! Faults are *one-shot*: a crash or message fault fires on the first
//! attempt and is consumed, so recovery (retry / reassignment /
//! retransmission) converges deterministically. Rank 0 never receives
//! faults — it is the master that runs detection and recovery, matching
//! the paper's "master node combines per-polygon histograms" topology
//! (a master failure is a job failure, as in MPI).

use crate::error::{ClusterError, ClusterResult};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use zonal_core::ZoneHistograms;

/// A fault applied to one worker's result message.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum MsgFault {
    /// The message is lost in the interconnect: never delivered.
    Drop,
    /// The message arrives late by this many simulated seconds.
    Delay(f64),
    /// The payload is corrupted in flight; the checksum exposes it.
    Corrupt,
}

/// A reproducible set of faults for one cluster run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FaultPlan {
    /// `(rank, k)`: rank crashes after completing `k` partitions.
    crashes: Vec<(usize, usize)>,
    /// `(rank, fault)`: fault applied to rank's first result message.
    msg_faults: Vec<(usize, MsgFault)>,
}

impl FaultPlan {
    /// The empty plan: a fault-free run.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.msg_faults.is_empty()
    }

    /// Crash `rank` after it completes `after_partitions` partitions.
    pub fn with_crash(mut self, rank: usize, after_partitions: usize) -> Self {
        self.crashes.retain(|&(r, _)| r != rank);
        self.crashes.push((rank, after_partitions));
        self
    }

    /// Lose `rank`'s result message (first transmission only).
    pub fn with_drop(mut self, rank: usize) -> Self {
        self.set_msg_fault(rank, MsgFault::Drop);
        self
    }

    /// Delay `rank`'s result message by `secs` simulated seconds.
    pub fn with_delay(mut self, rank: usize, secs: f64) -> Self {
        self.set_msg_fault(rank, MsgFault::Delay(secs));
        self
    }

    /// Corrupt `rank`'s result message payload (first transmission only).
    pub fn with_corrupt(mut self, rank: usize) -> Self {
        self.set_msg_fault(rank, MsgFault::Corrupt);
        self
    }

    fn set_msg_fault(&mut self, rank: usize, fault: MsgFault) {
        self.msg_faults.retain(|&(r, _)| r != rank);
        self.msg_faults.push((rank, fault));
    }

    /// Ranks the plan crashes.
    pub fn crashed_ranks(&self) -> Vec<usize> {
        self.crashes.iter().map(|&(r, _)| r).collect()
    }

    /// The planned crash point for `rank`, if any.
    pub fn crash_point(&self, rank: usize) -> Option<usize> {
        self.crashes
            .iter()
            .find(|&&(r, _)| r == rank)
            .map(|&(_, k)| k)
    }

    /// Generate a random-but-reproducible plan for an `n_nodes` cluster:
    /// crashes fewer than `n_nodes - 1` workers (so at least one worker
    /// survives) and sprinkles message faults over the remaining ranks.
    /// The same `(seed, n_nodes)` always yields the identical plan.
    pub fn random(seed: u64, n_nodes: usize) -> Self {
        let mut rng = SplitMix::new(seed ^ 0xFA17_1A17);
        let mut plan = FaultPlan::none();
        if n_nodes < 2 {
            return plan; // a 1-node "cluster" has no crashable worker
        }
        let workers: Vec<usize> = (1..n_nodes).collect();
        // Fewer than n_nodes - 1 crashes ⇒ at most n_nodes - 2.
        let max_crashes = n_nodes - 2;
        let n_crashes = (rng.next() % (max_crashes as u64 + 1)) as usize;
        let mut pool = workers.clone();
        for _ in 0..n_crashes {
            let i = (rng.next() % pool.len() as u64) as usize;
            let victim = pool.swap_remove(i);
            plan = plan.with_crash(victim, (rng.next() % 4) as usize);
        }
        // Message faults on (some of) the survivors.
        for &rank in &pool {
            match rng.next() % 5 {
                0 => plan = plan.with_drop(rank),
                1 => plan = plan.with_delay(rank, 0.05 + (rng.next() % 100) as f64 * 0.01),
                2 => plan = plan.with_corrupt(rank),
                _ => {}
            }
        }
        plan
    }

    /// Reject plans that target the master (rank 0) or ranks outside the
    /// cluster, or that crash so many workers that fewer than one
    /// survives.
    pub fn validate(&self, n_nodes: usize) -> ClusterResult<()> {
        for &(rank, _) in &self.crashes {
            if rank == 0 {
                return Err(ClusterError::InvalidConfig(
                    "fault plan cannot crash rank 0 (the master)".into(),
                ));
            }
            if rank >= n_nodes {
                return Err(ClusterError::InvalidConfig(format!(
                    "fault plan crashes rank {rank} but the cluster has {n_nodes} node(s)"
                )));
            }
        }
        for &(rank, _) in &self.msg_faults {
            if rank == 0 || rank >= n_nodes {
                return Err(ClusterError::InvalidConfig(format!(
                    "fault plan targets messages of rank {rank}, outside workers 1..{n_nodes}"
                )));
            }
        }
        if !self.crashes.is_empty() && self.crashes.len() >= n_nodes - 1 {
            return Err(ClusterError::InvalidConfig(format!(
                "fault plan crashes {} of {} worker rank(s); at least one worker must survive",
                self.crashes.len(),
                n_nodes - 1
            )));
        }
        Ok(())
    }
}

/// Shared, thread-safe dispenser of the plan's faults. Workers query it
/// as they execute; each fault is handed out exactly once.
pub struct FaultInjector {
    crash_after: Vec<Option<usize>>,
    crash_armed: Vec<AtomicBool>,
    msg_fault: Vec<Option<MsgFault>>,
    msg_armed: Vec<AtomicBool>,
}

impl FaultInjector {
    pub fn new(plan: &FaultPlan, n_ranks: usize) -> Self {
        let mut crash_after = vec![None; n_ranks];
        for &(rank, k) in &plan.crashes {
            if rank < n_ranks {
                crash_after[rank] = Some(k);
            }
        }
        let mut msg_fault = vec![None; n_ranks];
        for &(rank, f) in &plan.msg_faults {
            if rank < n_ranks {
                msg_fault[rank] = Some(f);
            }
        }
        FaultInjector {
            crash_armed: crash_after
                .iter()
                .map(|c| AtomicBool::new(c.is_some()))
                .collect(),
            msg_armed: msg_fault
                .iter()
                .map(|m| AtomicBool::new(m.is_some()))
                .collect(),
            crash_after,
            msg_fault,
        }
    }

    /// If `rank` is due to crash this attempt, returns the partition
    /// count after which it dies — and disarms the fault, so the next
    /// attempt (retry) runs clean.
    pub fn take_crash_point(&self, rank: usize) -> Option<usize> {
        if rank < self.crash_armed.len() && self.crash_armed[rank].swap(false, Ordering::AcqRel) {
            self.crash_after[rank]
        } else {
            None
        }
    }

    /// The fault on `rank`'s next result message, if any (`None`:
    /// deliver it). Consumed on first call, so retransmissions deliver
    /// cleanly.
    pub fn take_msg_action(&self, rank: usize) -> Option<MsgFault> {
        if rank < self.msg_armed.len() && self.msg_armed[rank].swap(false, Ordering::AcqRel) {
            self.msg_fault[rank]
        } else {
            None
        }
    }
}

/// A result payload as [`MsgFault::Corrupt`] delivers it: one count
/// too many in zone 0's bin 0. The checksum covers every count, also of a
/// payload with no stored rows (a rank that owned no partitions), so the
/// fault is caught on every payload.
pub(crate) fn corrupted(hists: &ZoneHistograms) -> ZoneHistograms {
    let mut out = hists.clone();
    if out.n_zones() > 0 && out.n_bins() > 0 {
        out.add(0, 0, 1);
    }
    out
}

/// Minimal deterministic generator for plan construction.
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_exactly_once() {
        let plan = FaultPlan::none().with_crash(2, 1).with_drop(1);
        let inj = FaultInjector::new(&plan, 4);
        assert_eq!(inj.take_crash_point(2), Some(1));
        assert_eq!(inj.take_crash_point(2), None, "crash is one-shot");
        assert_eq!(inj.take_msg_action(1), Some(MsgFault::Drop));
        assert_eq!(inj.take_msg_action(1), None, "msg fault is one-shot");
        assert_eq!(inj.take_crash_point(1), None);
        assert_eq!(inj.take_msg_action(3), None);
    }

    #[test]
    fn random_plans_are_reproducible_and_leave_a_survivor() {
        for n in 2..12usize {
            for seed in 0..50u64 {
                let a = FaultPlan::random(seed, n);
                let b = FaultPlan::random(seed, n);
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same plan");
                assert!(a.validate(n).is_ok(), "seed {seed} n {n}: {a:?}");
                assert!(a.crashed_ranks().len() < n - 1 || n == 2);
            }
        }
    }

    #[test]
    fn validate_rejects_bad_targets() {
        assert!(
            FaultPlan::none().with_crash(0, 1).validate(4).is_err(),
            "master crash"
        );
        assert!(
            FaultPlan::none().with_crash(9, 1).validate(4).is_err(),
            "out of range"
        );
        assert!(
            FaultPlan::none().with_drop(0).validate(4).is_err(),
            "master msg fault"
        );
        let too_many = FaultPlan::none()
            .with_crash(1, 0)
            .with_crash(2, 0)
            .with_crash(3, 0);
        assert!(too_many.validate(4).is_err(), "no surviving worker");
        let ok = FaultPlan::none()
            .with_crash(1, 0)
            .with_crash(2, 0)
            .with_corrupt(3);
        assert!(ok.validate(4).is_ok());
    }

    #[test]
    fn corruption_changes_the_checksum() {
        let mut h = ZoneHistograms::new(3, 4);
        h.add(2, 1, 7);
        assert_ne!(corrupted(&h).checksum(), h.checksum());
        let empty = ZoneHistograms::new(3, 4);
        assert_ne!(
            corrupted(&empty).checksum(),
            empty.checksum(),
            "row-less payload"
        );
        let mut odd = ZoneHistograms::new(3, 4);
        odd.add(0, 0, 1);
        assert_ne!(
            corrupted(&odd).checksum(),
            odd.checksum(),
            "stored odd count"
        );
    }
}
