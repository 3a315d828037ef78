//! Storage invariance: running the pipeline from BQ-Tree-compressed tiles
//! (real Step 0) must give bit-identical results to running from raw tiles,
//! while moving fewer input bytes.

use zonal_histo::bqtree::compress_source;
use zonal_histo::geo::CountyConfig;
use zonal_histo::gpusim::DeviceSpec;
use zonal_histo::raster::srtm::SyntheticSrtm;
use zonal_histo::raster::{GeoTransform, TileGrid, TileSource};
use zonal_histo::zonal::pipeline::{run_partition, Zones};
use zonal_histo::zonal::PipelineConfig;

fn setup(seed: u64) -> (Zones, SyntheticSrtm) {
    let mut c = CountyConfig::small(seed);
    c.nx = 6;
    c.ny = 5;
    let zones = Zones::new(c.generate());
    let gt = GeoTransform::per_degree(c.extent.min_x, c.extent.min_y, 32);
    let rows = (c.extent.height() * 32.0).round() as usize;
    let cols = (c.extent.width() * 32.0).round() as usize;
    let grid = TileGrid::for_degree_tile(rows, cols, 1.0, gt);
    (zones, SyntheticSrtm::new(grid, seed))
}

#[test]
fn compressed_and_raw_sources_agree() {
    let (zones, src) = setup(3);
    let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan())
        .with_tile_deg(1.0)
        .with_bins(5000);
    let raw = run_partition(&cfg, &zones, &src);
    let bq = compress_source(&src);
    let comp = run_partition(&cfg, &zones, &bq);
    assert_eq!(raw.hists, comp.hists);
    assert_eq!(raw.counts.n_cells, comp.counts.n_cells);
    assert_eq!(raw.counts.pip_cells_tested, comp.counts.pip_cells_tested);
}

#[test]
fn compressed_source_reports_encoded_bytes() {
    let (zones, src) = setup(4);
    let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan()).with_tile_deg(1.0);
    let bq = compress_source(&src);
    let stats = bq.stats();
    let comp = run_partition(&cfg, &zones, &bq);
    // The pipeline's Step 0 accounting must see the encoded sizes, not raw.
    assert_eq!(comp.counts.encoded_bytes, stats.encoded_bytes);
    assert_eq!(comp.counts.raw_bytes, stats.raw_bytes);
    assert_eq!(comp.timings.total_work().encoded_bytes, stats.encoded_bytes);
}

#[test]
fn every_tile_roundtrips_through_codec() {
    let (_, src) = setup(5);
    let bq = compress_source(&src);
    let grid = src.grid();
    for t in grid.iter() {
        assert_eq!(
            bq.tile(t.tx, t.ty),
            src.tile(t.tx, t.ty),
            "tile ({}, {})",
            t.tx,
            t.ty
        );
    }
}
