//! Quickstart: zonal histogramming in ~40 lines.
//!
//! Builds a small synthetic county layer and DEM, runs the four-step
//! pipeline, and prints a few zone histograms and the per-step timing
//! report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Set `ZONAL_TRACE=out.json` to record the run as a Chrome trace
//! (the wall-clock compute lane plus simulated-device lanes; open
//! the file in Perfetto or `chrome://tracing`). See DESIGN.md
//! §Observability.
//!
//! Set `ZONAL_SERVE=1` to also stand up the query service over the
//! same DEM and answer a few served queries — demonstrating that a
//! served answer is bit-identical to the direct pipeline run. See
//! DESIGN.md §Serving layer.

use zonal_histo::geo::CountyConfig;
use zonal_histo::gpusim::DeviceSpec;
use zonal_histo::raster::srtm::SyntheticSrtm;
use zonal_histo::raster::TileGrid;
use zonal_histo::zonal::pipeline::{run_partition, Zones};
use zonal_histo::zonal::timing::STEP_NAMES;
use zonal_histo::zonal::PipelineConfig;

fn main() {
    // 0. Optional tracing: ZONAL_TRACE=FILE records this run.
    let trace_path = std::env::var_os("ZONAL_TRACE");
    let session = trace_path
        .as_ref()
        .map(|_| zonal_histo::obs::start(zonal_histo::obs::DEFAULT_RING_CAPACITY));
    if session.is_some() {
        zonal_histo::obs::set_lane_name("main");
    }

    // 1. A zone layer: a 12×8 county-like tessellation over an 8°×6° box.
    let mut county_cfg = CountyConfig::small(42);
    county_cfg.nx = 12;
    county_cfg.ny = 8;
    let zones = Zones::new(county_cfg.generate());
    println!(
        "zones: {} polygons, {} vertices total",
        zones.len(),
        zones.layer.total_vertices()
    );

    // 2. A raster over the same extent: 60 cells/degree synthetic DEM,
    //    tiled 0.5° (30x30-cell tiles).
    let extent = county_cfg.extent;
    let rows = (extent.height() * 60.0) as usize;
    let cols = (extent.width() * 60.0) as usize;
    let gt = zonal_histo::raster::GeoTransform::per_degree(extent.min_x, extent.min_y, 60);
    let grid = TileGrid::for_degree_tile(rows, cols, 0.5, gt);
    let dem = SyntheticSrtm::new(grid, 42);

    // 3. Run the pipeline on a simulated GTX Titan.
    let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan())
        .with_tile_deg(0.5)
        .with_bins(5000);
    let result = run_partition(&cfg, &zones, &dem);

    // 4. Results: histogram totals and elevation stats per zone.
    println!(
        "\ncells histogrammed: {} of {}",
        result.hists.total(),
        result.counts.n_cells
    );
    let stats = zonal_histo::zonal::zonal_statistics(&result.hists);
    println!("\nfirst five zones:");
    for (i, s) in stats.iter().take(5).enumerate() {
        println!(
            "  {}: count {:>7}  elevation min {:?} max {:?} mean {:>7.1} m",
            zones.layer.name(i),
            s.count,
            s.min,
            s.max,
            s.mean
        );
    }

    // 5. The per-step report (Table 2 shape).
    println!("\nper-step simulated seconds on {}:", cfg.device.name);
    for (name, secs) in STEP_NAMES.iter().zip(result.timings.step_sim_secs()) {
        println!("  {name:<52} {secs:>9.4}");
    }
    println!(
        "  {:<52} {:>9.4}",
        "end-to-end (with transfers)",
        result.timings.end_to_end_sim_secs()
    );

    // 6. Optional serving demo: ZONAL_SERVE=1 answers queries over the
    //    same DEM through the query service (admission → batching →
    //    cache) and checks them against the direct run above.
    if std::env::var_os("ZONAL_SERVE").is_some_and(|v| v != "0") {
        use std::sync::Arc;
        use zonal_histo::serve::{
            PartitionSource, RasterStore, ServeConfig, ZonalQuery, ZonalService,
        };
        println!("\nserved queries (ZONAL_SERVE):");
        let bq = zonal_histo::bqtree::compress_source(&dem);
        let store = Arc::new(RasterStore::new(
            Zones::new(county_cfg.generate()),
            vec![PartitionSource::new(bq)],
        ));
        let service = ZonalService::start(store, ServeConfig::new(cfg));

        let answer = service
            .query(ZonalQuery::all_zones(cfg.n_bins))
            .expect("served all-zones query");
        for z in 0..zones.len() {
            assert_eq!(
                answer.zone(z as u32).expect("row"),
                result.hists.zone(z),
                "served answer must be bit-identical to the direct run"
            );
        }
        println!("  all-zones answer matches the direct run above (bit-identical)");

        let subset = service
            .query(ZonalQuery::zone_subset(256, vec![0, 5]))
            .expect("served subset query");
        println!(
            "  {} re-binned to 256 bins: {} cells (raster version {})",
            zones.layer.name(0),
            subset.zone(0).expect("row").iter().sum::<u64>(),
            subset.raster_version
        );

        let again = service
            .query(ZonalQuery::all_zones(cfg.n_bins))
            .expect("repeat query");
        let stats = service.shutdown();
        println!(
            "  repeat query from_cache: {}; cached-plan row rate {:.0}%; {} pipeline pass(es)",
            again.from_cache,
            100.0 * stats.row_cache_hit_rate(),
            stats.pipeline_passes
        );
    }

    // 7. Export the trace, wall lanes plus the cost model's simulated
    //    device timeline (cell_factor 1.0: no full-scale extrapolation).
    if let (Some(path), Some(session)) = (trace_path, session) {
        let mut trace = session.finish();
        trace.push_sim_spans(result.timings.sim_device_spans(1.0));
        std::fs::write(&path, trace.to_chrome_json()).expect("write ZONAL_TRACE file");
        println!(
            "\nchrome trace written to {} ({} events; open in Perfetto or chrome://tracing)",
            path.to_string_lossy(),
            trace.events.len()
        );
    }
}
