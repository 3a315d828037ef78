//! County elevation profiles: the paper's headline workload, scaled down.
//!
//! Reproduces the paper's experiment shape end to end — a ~3,100-zone
//! US-county-like layer over the full six-raster CONUS catalog, streamed
//! through BQ-Tree compression — then mines the per-county histograms the
//! way the paper's introduction motivates: summary statistics, quantiles,
//! and the highest/flattest counties.
//!
//! ```text
//! cargo run --release --example county_elevation [cells_per_degree]
//! ```
//!
//! Default resolution is 30 cells/degree (≈1/120 of SRTM's 3600); raise it
//! for fidelity, at quadratic cost.

use zonal_histo::geo::CountyConfig;
use zonal_histo::gpusim::DeviceSpec;
use zonal_histo::raster::srtm::{SrtmCatalog, SyntheticSrtm};
use zonal_histo::zonal::pipeline::{run_partition, Zones};
use zonal_histo::zonal::stats::histogram_quantile;
use zonal_histo::zonal::{zonal_statistics, PipelineConfig};

fn main() {
    let cpd: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(30);
    let seed = 20140519;

    println!("generating US-like county layer…");
    let zones = Zones::new(CountyConfig::us_like(seed).generate());
    println!(
        "  {} counties, {} vertices, {} multi-ring",
        zones.len(),
        zones.layer.total_vertices(),
        zones.layer.multi_ring_count()
    );

    let catalog = SrtmCatalog::new(cpd);
    println!(
        "processing the {}-partition catalog at {cpd} cells/degree ({} cells)…",
        catalog.n_partitions(),
        catalog.total_cells()
    );
    let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan());
    let mut merged: Option<zonal_histo::zonal::pipeline::ZonalResult> = None;
    for part in catalog.partitions() {
        let src = SyntheticSrtm::new(part.grid(cfg.tile_deg), seed);
        let r = run_partition(&cfg, &zones, &src);
        match &mut merged {
            None => merged = Some(r),
            Some(m) => m.merge(&r),
        }
    }
    let result = merged.expect("catalog is nonempty");
    println!(
        "  {} of {} cells histogrammed ({} no-data), {:.1}% PIP-tested",
        result.hists.total(),
        result.counts.n_cells,
        result.counts.n_nodata_cells,
        100.0 * result.counts.pip_fraction()
    );

    // Zonal statistics table (the classic GIS product).
    let stats = zonal_statistics(&result.hists);

    let highest = stats
        .iter()
        .enumerate()
        .filter(|(_, s)| s.count > 0)
        .max_by(|a, b| a.1.mean.total_cmp(&b.1.mean))
        .expect("some county has cells");
    println!(
        "\nhighest county: {} (mean {:.0} m, max {} m, {} cells)",
        zones.layer.name(highest.0),
        highest.1.mean,
        highest.1.max.expect("a county with cells has a max"),
        highest.1.count
    );

    // Only counties with at least the median non-empty cell count qualify,
    // so a few-cell sliver cannot win at any resolution.
    let mut counts: Vec<u64> = stats.iter().map(|s| s.count).filter(|&c| c > 0).collect();
    counts.sort_unstable();
    let min_cells = counts[counts.len() / 2];
    let flattest = stats
        .iter()
        .enumerate()
        .filter(|(_, s)| s.count >= min_cells)
        .min_by(|a, b| a.1.std_dev.total_cmp(&b.1.std_dev))
        .expect("the median county qualifies");
    println!(
        "flattest county: {} (σ {:.1} m over {} cells; counties of ≥ {min_cells} cells)",
        zones.layer.name(flattest.0),
        flattest.1.std_dev,
        flattest.1.count
    );

    // Per-county elevation quantiles from the histograms — no second pass
    // over the raster needed.
    println!("\nsample county elevation profiles (m):");
    println!(
        "{:<16} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "county", "cells", "p10", "p25", "p50", "p75", "p90"
    );
    for z in (0..zones.len()).step_by(zones.len() / 8) {
        let bins = result.hists.zone(z);
        let count: u64 = bins.iter().sum();
        if count == 0 {
            continue;
        }
        let q = |p| histogram_quantile(bins, p).map(|v| v as i64).unwrap_or(-1);
        println!(
            "{:<16} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
            zones.layer.name(z),
            count,
            q(0.10),
            q(0.25),
            q(0.50),
            q(0.75),
            q(0.90)
        );
    }
}
