//! Simulated GPU-accelerated cluster (the paper's ORNL Titan experiment).
//!
//! The paper's Fig. 6 runs the pipeline on 1–16 Titan nodes: each node owns
//! a static subset of the 36 raster partitions (Table 1), processes them on
//! its K20X GPU, and MPI-sends its per-polygon histograms to a master that
//! combines them; the reported wall-clock is the slowest node's, inclusive
//! of MPI time.
//!
//! This crate reproduces that shape with threads in place of hosts:
//!
//! * [`comm`] — the latency/bandwidth cost model every message is
//!   charged on;
//! * [`node`] — the per-node worker: run the pipeline over the node's
//!   partitions (for real, on the shared CPU pool) and report simulated
//!   K20X seconds;
//! * [`run`] — the one cluster runner: workers send into the master's one
//!   inbox, the master answers over per-worker control channels; the
//!   paper's static partition split (`RoundRobin`, `BalancedByCells`) or
//!   §IV.C dynamic self-scheduling (`Pull`), chosen by [`Assignment`],
//!   plus the Fig. 6 scaling sweep;
//! * [`schedule`] — the analytic scheduling-policy model over measured
//!   partition costs, which also prices `Pull` runs;
//! * [`imbalance`] — the load-balance metrics behind the paper's
//!   "southern-Florida tiles" discussion;
//! * [`error`] — typed failures ([`ClusterError`]) and the
//!   [`RecoveryPolicy`] selecting how the runner reacts to them; and
//! * [`fault`] — seeded deterministic fault injection (node crashes,
//!   message loss/delay/corruption) for chaos-testing the runner.
//!
//! Unlike the paper's MPI job, the runner tolerates worker failures: the
//! master detects silent deaths via receive timeouts plus a control
//! channel probe, retransmits lost or corrupt result messages (checksum
//! verified), and — under a recovering [`RecoveryPolicy`] — re-runs a
//! dead node's partitions so the combined histograms stay bit-identical
//! to a fault-free run.

pub mod comm;
pub mod error;
pub mod fault;
pub mod imbalance;
pub mod node;
pub mod run;
pub mod schedule;

pub use comm::NetworkModel;
pub use error::{ClusterError, ClusterResult, RecoveryPolicy};
pub use fault::{FaultInjector, FaultPlan, MsgFault};
pub use imbalance::ImbalanceReport;
pub use node::{NodeInput, NodeReport};
pub use run::{run_cluster, run_scaling, Assignment, ClusterConfig, ClusterRun};
pub use schedule::{
    measure_partition_costs, reassignment_makespan, simulate, Policy, ScheduleOutcome,
};
