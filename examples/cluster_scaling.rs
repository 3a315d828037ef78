//! Cluster scaling (the paper's Fig. 6 on your machine).
//!
//! Runs the simulated GPU-accelerated cluster at a range of node counts,
//! verifying that every configuration computes the identical answer, and
//! prints the scaling curve with load-imbalance diagnostics.
//!
//! ```text
//! cargo run --release --example cluster_scaling [cells_per_degree]
//! ```

use zonal_histo::cluster::{run_scaling, Assignment, ClusterConfig};
use zonal_histo::geo::CountyConfig;
use zonal_histo::zonal::pipeline::Zones;

fn main() {
    let cpd: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20);
    let seed = 7;
    let zones = Zones::new(CountyConfig::us_like(seed).generate());
    println!(
        "{} zones over the 36-partition catalog at {cpd} cells/degree\n",
        zones.len()
    );

    let base = ClusterConfig::titan(1, cpd, seed);
    let runs = run_scaling(&base, &zones, &[1, 2, 4, 8, 16]).expect("scaling sweep");

    println!(
        "{:>7} {:>14} {:>9} {:>11} {:>11} {:>10}",
        "nodes", "sim secs", "speedup", "comm secs", "combine s", "max/mean"
    );
    let t1 = runs[0].sim_secs;
    for run in &runs {
        println!(
            "{:>7} {:>14.3} {:>8.2}x {:>11.4} {:>11.4} {:>10.2}",
            run.nodes.len(),
            run.sim_secs,
            t1 / run.sim_secs,
            run.comm_secs,
            run.combine_secs,
            run.imbalance.max_over_mean
        );
    }

    // The §IV.C story: which nodes got the coverage-edge partitions?
    let run16 = runs.last().expect("at least one run");
    println!(
        "\nper-node Step-4 edge tests at {} nodes:",
        run16.nodes.len()
    );
    for n in &run16.nodes {
        let bar = "#".repeat(
            (n.edge_tests / (1 + run16.nodes.iter().map(|m| m.edge_tests).max().unwrap_or(1) / 40))
                as usize,
        );
        println!("  node {:>2}: {:>12}  {}", n.rank, n.edge_tests, bar);
    }

    // Balanced assignment ablation.
    let mut bal = ClusterConfig::titan(16, cpd, seed);
    bal.assignment = Assignment::BalancedByCells;
    let bal_run = zonal_histo::cluster::run_cluster(&bal, &zones).expect("balanced run");
    println!(
        "\n16-node assignment: round-robin max/mean {:.2} vs balanced-by-cells {:.2}",
        run16.imbalance.max_over_mean, bal_run.imbalance.max_over_mean
    );
    assert_eq!(
        run16.hists, bal_run.hists,
        "assignment must not change the answer"
    );
}
