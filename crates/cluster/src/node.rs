//! Per-node worker logic.

use serde::Serialize;
use zonal_core::pipeline::{run_partitions, Zones};
use zonal_core::{PipelineConfig, ZonalResult};
use zonal_raster::partition::Partition;
use zonal_raster::srtm::SyntheticSrtm;

/// What a node needs to do its share of the job.
#[derive(Debug, Clone)]
pub struct NodeInput {
    pub rank: usize,
    /// The raster partitions this node owns (from the Table 1 schema).
    pub partitions: Vec<Partition>,
    /// Pipeline configuration (device = the node's GPU, K20X on Titan).
    pub pipeline: PipelineConfig,
    /// Terrain seed (shared cluster-wide so partitions agree at seams).
    pub seed: u64,
}

/// What a node reports back to the master.
#[derive(Debug, Clone, Serialize)]
pub struct NodeReport {
    pub rank: usize,
    /// Partitions processed.
    pub n_partitions: usize,
    /// Simulated device seconds for this node's whole share (steps +
    /// host↔device transfers, with strip uploads overlapped behind
    /// kernels as the paper's CUDA streams do), optionally extrapolated
    /// by the caller.
    pub sim_secs: f64,
    /// Real wall seconds spent executing.
    pub wall_secs: f64,
    /// Cells this node processed.
    pub n_cells: u64,
    /// Step 4 edge tests — the load-imbalance driver (§IV.C).
    pub edge_tests: u64,
    /// Whether this rank failed during the run (crash fault). A `true`
    /// report either carries zeros (work reassigned to survivors) or the
    /// numbers of a successful retry attempt.
    pub failed: bool,
}

/// Name the calling thread's trace lane after a cluster rank. The
/// pipeline renames its compute thread while a share runs, so callers
/// re-claim the lane after [`run_node`] returns (last name wins in the
/// exported trace). Free when tracing is disabled.
pub(crate) fn name_rank_lane(rank: usize) {
    if zonal_obs::enabled() {
        zonal_obs::set_lane_name(format!("rank {rank}"));
    }
}

impl NodeReport {
    /// Placeholder report for a rank that died and whose work was
    /// reassigned: it contributed nothing to the combined result.
    pub fn failed(rank: usize) -> Self {
        NodeReport {
            rank,
            n_partitions: 0,
            sim_secs: 0.0,
            wall_secs: 0.0,
            n_cells: 0,
            edge_tests: 0,
            failed: true,
        }
    }
}

/// Run one node's share: the pipeline over each owned partition, merged.
/// Returns the merged result and the report. Nodes with no partitions
/// return an empty result (possible when nodes > partitions).
pub fn run_node(input: &NodeInput, zones: &Zones, cell_factor: f64) -> (ZonalResult, NodeReport) {
    let t = std::time::Instant::now();
    let mut span = zonal_obs::span("node share");
    span.arg("rank", input.rank as u64)
        .arg("partitions", input.partitions.len() as u64);
    let sources: Vec<SyntheticSrtm> = input
        .partitions
        .iter()
        .map(|part| SyntheticSrtm::new(part.grid(input.pipeline.tile_deg), input.seed))
        .collect();
    let result = run_partitions(&input.pipeline, zones, &sources);
    span.arg("cells", result.counts.n_cells);
    let report = NodeReport {
        rank: input.rank,
        n_partitions: input.partitions.len(),
        sim_secs: result
            .timings
            .end_to_end_overlapped_sim_secs_at_scale(cell_factor),
        wall_secs: t.elapsed().as_secs_f64(),
        n_cells: result.counts.n_cells,
        edge_tests: result.counts.edge_tests,
        failed: false,
    };
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_geo::CountyConfig;
    use zonal_gpusim::DeviceSpec;
    use zonal_raster::srtm::SrtmCatalog;

    fn tiny_zones() -> Zones {
        // County-like layer over the catalog's CONUS coverage.
        let mut cfg = CountyConfig::us_like(7);
        cfg.nx = 10;
        cfg.ny = 6;
        cfg.edge_subdiv = 2;
        Zones::new(cfg.generate())
    }

    fn tiny_pipeline() -> PipelineConfig {
        let mut p = PipelineConfig::paper(DeviceSpec::tesla_k20x());
        p.tile_deg = 1.0; // coarse tiles for the tiny resolution
        p.n_bins = 64;
        p
    }

    #[test]
    fn node_processes_its_partitions() {
        let parts = SrtmCatalog::new(4).partitions(); // 4 cells/degree
        let input = NodeInput {
            rank: 3,
            partitions: parts[..4].to_vec(),
            pipeline: tiny_pipeline(),
            seed: 99,
        };
        let zones = tiny_zones();
        let (result, report) = run_node(&input, &zones, 1.0);
        assert_eq!(report.rank, 3);
        assert_eq!(report.n_partitions, 4);
        let expected_cells: u64 = parts[..4].iter().map(|p| p.cells()).sum();
        assert_eq!(report.n_cells, expected_cells);
        assert_eq!(result.counts.n_cells, expected_cells);
        assert!(report.sim_secs > 0.0);
        assert!(report.wall_secs > 0.0);
    }

    #[test]
    fn empty_node_is_valid() {
        let input = NodeInput {
            rank: 9,
            partitions: vec![],
            pipeline: tiny_pipeline(),
            seed: 1,
        };
        let zones = tiny_zones();
        let (result, report) = run_node(&input, &zones, 1.0);
        assert_eq!(report.n_cells, 0);
        assert_eq!(result.hists.total(), 0);
        assert_eq!(result.hists.n_zones(), zones.len());
        assert_eq!(result.hists.n_rows(), 0, "an empty share stores no rows");
    }

    #[test]
    fn deterministic_across_runs() {
        let parts = SrtmCatalog::new(4).partitions();
        let input = NodeInput {
            rank: 0,
            partitions: parts[..2].to_vec(),
            pipeline: tiny_pipeline(),
            seed: 5,
        };
        let zones = tiny_zones();
        let (a, _) = run_node(&input, &zones, 1.0);
        let (b, _) = run_node(&input, &zones, 1.0);
        assert_eq!(a.hists, b.hists);
    }
}
