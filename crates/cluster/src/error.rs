//! Typed errors for the cluster runtime.
//!
//! The paper's MPI job dies wholesale on any node or link failure; a
//! production runtime must instead surface failures as values the caller
//! can react to. Every fallible cluster API returns [`ClusterError`]
//! instead of panicking, and [`RecoveryPolicy`] selects what the runner
//! does when a failure is detected mid-run.

use serde::Serialize;
use std::fmt;

/// Result alias for cluster operations.
pub type ClusterResult<T> = Result<T, ClusterError>;

/// Everything that can go wrong in a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A worker died (crash fault or thread exit) before reporting.
    NodeCrashed {
        rank: usize,
        completed_partitions: usize,
    },
    /// A message failed its checksum (payload corruption fault).
    CorruptPayload {
        from: usize,
        expected: u64,
        got: u64,
    },
    /// Distributed runs diverged: the combined histograms differ between
    /// two configurations that must agree (`run_scaling`).
    ResultMismatch {
        n_nodes_reference: usize,
        n_nodes_divergent: usize,
    },
    /// A configuration value fails validation (zero nodes, zero bins,
    /// non-positive bandwidth, …).
    InvalidConfig(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NodeCrashed {
                rank,
                completed_partitions,
            } => {
                write!(
                    f,
                    "node {rank} crashed after completing {completed_partitions} partition(s)"
                )
            }
            ClusterError::CorruptPayload {
                from,
                expected,
                got,
            } => {
                write!(
                    f,
                    "corrupt payload from rank {from}: checksum {got:#x} != expected {expected:#x}"
                )
            }
            ClusterError::ResultMismatch {
                n_nodes_reference,
                n_nodes_divergent,
            } => {
                write!(
                    f,
                    "combined histograms diverge: {n_nodes_divergent}-node run disagrees with \
                     {n_nodes_reference}-node reference"
                )
            }
            ClusterError::InvalidConfig(msg) => write!(f, "invalid cluster config: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// What the runner does when failure detection fires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub enum RecoveryPolicy {
    /// Abort the run and return the first failure as a typed error — the
    /// paper's implicit policy, minus the process-wide crash.
    #[default]
    FailFast,
    /// Re-execute a dead node's share once on the master, charging
    /// `backoff_secs` of simulated time plus the re-run. Faults are
    /// one-shot, so the retry runs clean.
    Retry { backoff_secs: f64 },
    /// Redistribute a dead node's orphaned partitions over the surviving
    /// workers, charging the longest-processing-time makespan of the
    /// orphans over the survivors
    /// ([`reassignment_makespan`](crate::schedule::reassignment_makespan)),
    /// so the run completes with identical output to a fault-free run.
    /// Lost or corrupt messages are retransmitted under this policy as
    /// well.
    Reassign,
}

impl RecoveryPolicy {
    /// Whether failures should be repaired rather than returned.
    pub fn recovers(&self) -> bool {
        !matches!(self, RecoveryPolicy::FailFast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ClusterError::NodeCrashed {
            rank: 3,
            completed_partitions: 2,
        };
        assert!(e.to_string().contains("node 3"));
        let e = ClusterError::CorruptPayload {
            from: 1,
            expected: 0xab,
            got: 0xcd,
        };
        assert!(e.to_string().contains("0xcd"));
        let e = ClusterError::InvalidConfig("n_bins must be > 0".into());
        assert!(e.to_string().contains("n_bins"));
    }

    #[test]
    fn policy_recovery_classification() {
        assert!(!RecoveryPolicy::FailFast.recovers());
        assert!(RecoveryPolicy::Reassign.recovers());
        assert!(RecoveryPolicy::Retry { backoff_secs: 0.1 }.recovers());
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::FailFast);
    }
}
