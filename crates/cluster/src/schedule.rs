//! Partition scheduling policies — the paper's §IV.C future-work item.
//!
//! The paper observes that static distribution of the 36 partitions leaves
//! nodes unevenly loaded (coverage-edge partitions carry little Step 4
//! work) and suggests studying "the tradeoffs between communication and
//! load balancing". This module measures real per-partition costs and
//! simulates scheduling policies over them:
//!
//! * [`Policy::StaticRoundRobin`] — the paper's scheme;
//! * [`Policy::StaticByCells`] — LPT by cell count (knowable up front);
//! * [`Policy::DynamicSelfScheduling`] — workers pull the next partition
//!   when free (one extra request message per partition);
//! * [`Policy::OracleLpt`] — LPT by *measured* cost: the lower bound any
//!   static scheme can hope for.

use serde::Serialize;
use zonal_core::pipeline::{run_partition, Zones};
use zonal_core::PipelineConfig;
use zonal_raster::partition::{assign_balanced, assign_round_robin, Partition};
use zonal_raster::srtm::{SrtmCatalog, SyntheticSrtm};

/// Scheduling policy for distributing partitions over nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Policy {
    StaticRoundRobin,
    StaticByCells,
    DynamicSelfScheduling,
    OracleLpt,
}

impl Policy {
    pub const ALL: [Policy; 4] = [
        Policy::StaticRoundRobin,
        Policy::StaticByCells,
        Policy::DynamicSelfScheduling,
        Policy::OracleLpt,
    ];
}

/// Outcome of simulating one policy.
#[derive(Debug, Clone, Serialize)]
pub struct ScheduleOutcome {
    pub policy: Policy,
    pub n_nodes: usize,
    /// Simulated completion time (slowest node).
    pub makespan: f64,
    /// Per-node total busy time.
    pub node_loads: Vec<f64>,
    /// Extra scheduling messages (dynamic pays one request per partition).
    pub extra_messages: usize,
}

impl ScheduleOutcome {
    pub fn imbalance(&self) -> f64 {
        let mean = self.node_loads.iter().sum::<f64>() / self.node_loads.len() as f64;
        if mean > 0.0 {
            self.makespan / mean
        } else {
            1.0
        }
    }
}

/// Measure each partition's simulated end-to-end cost by actually running
/// the pipeline on it. Returns `(costs, cells)` in catalog partition order.
pub fn measure_partition_costs(
    cfg: &PipelineConfig,
    zones: &Zones,
    cells_per_degree: u32,
    seed: u64,
    cell_factor: f64,
) -> (Vec<f64>, Vec<u64>) {
    let parts: Vec<Partition> = SrtmCatalog::new(cells_per_degree).partitions();
    let mut costs = Vec::with_capacity(parts.len());
    let mut cells = Vec::with_capacity(parts.len());
    for p in &parts {
        let src = SyntheticSrtm::new(p.grid(cfg.tile_deg), seed);
        let r = run_partition(cfg, zones, &src);
        costs.push(
            r.timings
                .end_to_end_overlapped_sim_secs_at_scale(cell_factor),
        );
        cells.push(p.cells());
    }
    (costs, cells)
}

/// Simulate a policy over measured per-partition costs.
///
/// `request_latency` is the per-message cost dynamic scheduling pays to ask
/// the master for work (the "more MPI communications" of the paper's
/// tradeoff).
pub fn simulate(
    policy: Policy,
    costs: &[f64],
    cells: &[u64],
    n_nodes: usize,
    request_latency: f64,
) -> ScheduleOutcome {
    assert!(n_nodes > 0, "need at least one node");
    assert_eq!(costs.len(), cells.len());
    let (node_loads, extra_messages) = match policy {
        Policy::StaticRoundRobin => (
            loads_of(&assign_round_robin(costs.len(), n_nodes), costs),
            0,
        ),
        Policy::StaticByCells => (loads_of(&assign_balanced(cells, n_nodes), costs), 0),
        Policy::OracleLpt => {
            let weights: Vec<u64> = costs.iter().map(|&c| (c * 1e6) as u64).collect();
            (loads_of(&assign_balanced(&weights, n_nodes), costs), 0)
        }
        Policy::DynamicSelfScheduling => {
            // Event simulation: each free node pulls the next partition in
            // catalog order, paying a request round-trip each time.
            let mut free_at = vec![0.0f64; n_nodes];
            for &c in costs {
                let node = (0..n_nodes)
                    .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]).then(a.cmp(&b)))
                    .expect("n_nodes > 0");
                free_at[node] += request_latency + c;
            }
            (free_at, costs.len())
        }
    };
    let makespan = node_loads.iter().fold(0.0f64, |a, &b| a.max(b));
    ScheduleOutcome {
        policy,
        n_nodes,
        makespan,
        node_loads,
        extra_messages,
    }
}

/// Simulated makespan of re-executing orphaned partitions (a crashed
/// node's share) across `n_survivors` surviving nodes: greedy
/// longest-processing-time assignment, each orphan to the currently
/// least-loaded survivor. This is the recovery cost the fault-tolerant
/// runner adds to the end-to-end time after a reassignment.
pub fn reassignment_makespan(orphan_costs: &[f64], n_survivors: usize) -> f64 {
    assert!(n_survivors > 0, "reassignment needs at least one survivor");
    let mut order: Vec<usize> = (0..orphan_costs.len()).collect();
    order.sort_by(|&a, &b| orphan_costs[b].total_cmp(&orphan_costs[a]).then(a.cmp(&b)));
    let mut loads = vec![0.0f64; n_survivors];
    for i in order {
        let node = (0..n_survivors)
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)))
            .expect("n_survivors > 0");
        loads[node] += orphan_costs[i];
    }
    loads.iter().fold(0.0f64, |a, &b| a.max(b))
}

fn loads_of(assignment: &[Vec<usize>], costs: &[f64]) -> Vec<f64> {
    assignment
        .iter()
        .map(|idxs| idxs.iter().map(|&i| costs[i]).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Skewed costs shaped like the real catalog: a few heavy interior
    /// partitions, several light coverage-edge ones.
    fn skewed() -> (Vec<f64>, Vec<u64>) {
        let costs: Vec<f64> = (0..36)
            .map(|i| {
                if i % 6 == 0 {
                    10.0
                } else {
                    2.0 + (i % 5) as f64 * 0.5
                }
            })
            .collect();
        // Cells uncorrelated with cost (edge partitions have many cells but
        // little Step-4 work).
        let cells: Vec<u64> = (0..36).map(|i| 1000 + (i * 37 % 100) as u64).collect();
        (costs, cells)
    }

    #[test]
    fn all_policies_schedule_every_partition() {
        let (costs, cells) = skewed();
        let total: f64 = costs.iter().sum();
        for policy in Policy::ALL {
            let o = simulate(policy, &costs, &cells, 8, 0.0);
            let scheduled: f64 = o.node_loads.iter().sum();
            assert!(
                (scheduled - total).abs() < 1e-9,
                "{policy:?}: {scheduled} vs {total}"
            );
            assert!(
                o.makespan >= total / 8.0 - 1e-9,
                "{policy:?} beats the lower bound"
            );
        }
    }

    #[test]
    fn dynamic_beats_round_robin_on_skew() {
        let (costs, cells) = skewed();
        let rr = simulate(Policy::StaticRoundRobin, &costs, &cells, 8, 0.0);
        let dyn_ = simulate(Policy::DynamicSelfScheduling, &costs, &cells, 8, 0.0);
        assert!(
            dyn_.makespan <= rr.makespan + 1e-9,
            "dynamic {:.2} vs rr {:.2}",
            dyn_.makespan,
            rr.makespan
        );
        let oracle = simulate(Policy::OracleLpt, &costs, &cells, 8, 0.0);
        assert!(oracle.makespan >= costs.iter().sum::<f64>() / 8.0 - 1e-9);
        assert!(oracle.makespan <= dyn_.makespan + 1e-9);
    }

    #[test]
    fn oracle_is_never_worse_than_by_cells() {
        let (costs, cells) = skewed();
        for n in [4usize, 8, 16] {
            let oracle = simulate(Policy::OracleLpt, &costs, &cells, n, 0.0);
            let by_cells = simulate(Policy::StaticByCells, &costs, &cells, n, 0.0);
            assert!(oracle.makespan <= by_cells.makespan + 1e-9, "{n} nodes");
        }
    }

    #[test]
    fn request_latency_penalizes_dynamic() {
        let (costs, cells) = skewed();
        let free = simulate(Policy::DynamicSelfScheduling, &costs, &cells, 8, 0.0);
        let costly = simulate(Policy::DynamicSelfScheduling, &costs, &cells, 8, 0.5);
        assert!(costly.makespan > free.makespan);
        assert_eq!(costly.extra_messages, 36);
        assert_eq!(free.extra_messages, 36);
    }

    #[test]
    fn uniform_costs_everyone_ties() {
        let costs = vec![1.0; 36];
        let cells = vec![100u64; 36];
        let mut spans = Vec::new();
        for policy in Policy::ALL {
            let o = simulate(policy, &costs, &cells, 6, 0.0);
            spans.push(o.makespan);
            assert!((o.imbalance() - 1.0).abs() < 1e-9, "{policy:?}");
        }
        for s in &spans {
            assert!((s - 6.0).abs() < 1e-9);
        }
    }

    #[test]
    fn reassignment_makespan_balances_orphans() {
        // One survivor carries everything.
        let orphans = [3.0, 1.0, 2.0];
        assert!((reassignment_makespan(&orphans, 1) - 6.0).abs() < 1e-9);
        // LPT over two survivors: {3.0} vs {2.0, 1.0}.
        assert!((reassignment_makespan(&orphans, 2) - 3.0).abs() < 1e-9);
        // More survivors than orphans: the heaviest orphan bounds it.
        assert!((reassignment_makespan(&orphans, 8) - 3.0).abs() < 1e-9);
        // Nothing orphaned costs nothing.
        assert_eq!(reassignment_makespan(&[], 4), 0.0);
    }

    #[test]
    fn single_node_makespan_is_total() {
        let (costs, cells) = skewed();
        let total: f64 = costs.iter().sum();
        for policy in Policy::ALL {
            let o = simulate(policy, &costs, &cells, 1, 0.0);
            assert!((o.makespan - total).abs() < 1e-9, "{policy:?}");
        }
    }
}
