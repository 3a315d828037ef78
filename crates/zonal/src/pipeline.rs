//! The four-step pipeline, orchestrated over streaming tile strips.
//!
//! A partition's tiles are processed in bands of `strip_rows` tile rows:
//! each strip is produced by one [`TileSource::strip`] call (Step 0: the
//! BQ-Tree source decodes every tile of the band into one contiguous
//! buffer, the synthetic source generates the band as one block), then
//! histogrammed per tile (Step 1), its inside pairs aggregated (Step 3)
//! and its boundary pairs refined (Step 4), both reading the strip's
//! per-tile [`TileView`]s, after which the strip's buffer and histograms
//! are dropped.
//! Step 2 runs once per partition up front — it only needs geometry.
//! Peak memory is therefore bounded by the strip size regardless of raster
//! size, the same property that lets the paper stream a 40 GB raster
//! through a 6 GB GPU.
//!
//! A partition runs its strips in order on the calling thread, one strip
//! live at a time. The paper hides strip uploads behind kernels with CUDA
//! streams; here that overlap is a cost-model figure
//! ([`PipelineTimings::end_to_end_overlapped_sim_secs`]) priced from the
//! per-strip [`StripWork`] records, so it does not depend on how the host
//! schedules its threads. Host concurrency comes from [`run_partitions`],
//! which runs whole partitions on parallel workers.

use crate::config::PipelineConfig;
use crate::hist::{ZoneHistograms, ZoneRows};
use crate::pairing::{pair_tiles, PairTable};
use crate::step1::per_tile_histograms;
use crate::step3::aggregate_inside;
use crate::step4::refine_intersect;
use crate::timing::{PipelineCounts, PipelineTimings, StripWork};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use zonal_geo::{FlatPolygons, PolygonLayer};
use zonal_gpusim::{KernelWork, WorkCounter};
use zonal_raster::{TileSource, TileView};

/// Device arithmetic per cell for Step 0 BQ-Tree decode (bitplane scatter
/// and tree walk, amortized): the constant the cost model prices the
/// simulated decode kernel with. It prices device work, not the host
/// codec, and stays fixed when the host decoder gets faster, so sim
/// seconds do not move with host-side speedups.
pub const DECODE_FLOPS_PER_CELL: u64 = 32;

/// A zone layer in both representations the pipeline needs: object polygons
/// for Step 2's exact classification, flattened arrays for Step 4's kernel.
#[derive(Debug, Clone)]
pub struct Zones {
    pub layer: PolygonLayer,
    pub flat: FlatPolygons,
}

impl Zones {
    pub fn new(layer: PolygonLayer) -> Self {
        let flat = layer.to_flat();
        Zones { layer, flat }
    }

    pub fn len(&self) -> usize {
        self.layer.len()
    }

    pub fn is_empty(&self) -> bool {
        self.layer.is_empty()
    }

    /// Host→device bytes for the polygon arrays (x, y as f64 plus the
    /// prefix index), part of the end-to-end transfer accounting.
    pub fn device_bytes(&self) -> u64 {
        (self.flat.slot_count() * 16 + self.flat.ply_v.len() * 4) as u64
    }
}

/// Output of a pipeline run.
#[derive(Debug, Clone)]
pub struct ZonalResult {
    pub hists: ZoneHistograms,
    pub timings: PipelineTimings,
    pub counts: PipelineCounts,
}

impl ZonalResult {
    /// Merge another run's result (other partitions of the same layer).
    pub fn merge(&mut self, other: &ZonalResult) {
        self.hists.merge(&other.hists);
        self.timings.accumulate(&other.timings);
        self.counts.accumulate(&other.counts);
    }
}

/// Run the pipeline for one raster partition.
///
/// The source grid's tile size must agree with `cfg.tile_deg` at the
/// grid's resolution (a grid built with `TileGrid::for_degree_tile(..,
/// cfg.tile_deg, ..)` always does); a mismatch panics rather than
/// silently pricing the wrong tiling.
///
/// ```
/// use zonal_core::pipeline::{run_partition, Zones};
/// use zonal_core::PipelineConfig;
/// use zonal_geo::{Polygon, PolygonLayer};
/// use zonal_raster::{GeoTransform, Raster, TileGrid};
///
/// // Two zones splitting a 4x4-unit world; a raster whose value is its column.
/// let zones = Zones::new(PolygonLayer::from_polygons(vec![
///     Polygon::rect(0.0, 0.0, 2.0, 4.0),
///     Polygon::rect(2.0, 0.0, 4.0, 4.0),
/// ]));
/// let gt = GeoTransform::new(0.0, 0.0, 0.5, 0.5);
/// let raster = Raster::from_fn(8, 8, gt, |_r, c| c as u16);
/// // 4-cell tiles at 0.5°/cell ⇒ 2.0° tiles: matches tile_deg below.
/// let grid = TileGrid::new(8, 8, 4, gt);
///
/// let cfg = PipelineConfig::test().with_bins(8).with_tile_deg(2.0);
/// let result = run_partition(&cfg, &zones, &raster.tile_source(&grid));
///
/// // Zone 0 holds columns 0..4, one 8-cell column per value.
/// assert_eq!(result.hists.zone(0), &[8, 8, 8, 8, 0, 0, 0, 0]);
/// assert_eq!(result.hists.total(), 64);
/// ```
pub fn run_partition(cfg: &PipelineConfig, zones: &Zones, source: &impl TileSource) -> ZonalResult {
    cfg.validate();
    let grid = source.grid();
    // The grid comes solely from the source; reject a config/grid
    // mismatch instead of silently ignoring `cfg.tile_deg`. Mirrors the
    // rounding in `TileGrid::for_degree_tile`.
    let expected_cells = ((cfg.tile_deg / grid.transform().sx).round() as usize).max(1);
    assert_eq!(
        grid.tile_cells(),
        expected_cells,
        "source grid tile size ({} cells) does not match cfg.tile_deg = {}° \
         at {}°/cell resolution (expected {} cells)",
        grid.tile_cells(),
        cfg.tile_deg,
        grid.transform().sx,
        expected_cells,
    );
    let n_bins = cfg.n_bins;

    let mut timings = PipelineTimings::new(cfg.device);
    let mut counts = PipelineCounts {
        n_tiles: grid.n_tiles() as u64,
        ..Default::default()
    };

    // ----- Step 2: spatial filtering (CPU-side, geometry only) -----------
    let t2 = Instant::now();
    let pairs: PairTable = pair_tiles(&zones.layer, grid);
    timings.steps[2].wall_secs = t2.elapsed().as_secs_f64();
    counts.inside_pairs = pairs.inside.n_pairs() as u64;
    counts.intersect_pairs = pairs.intersect.n_pairs() as u64;
    counts.outside_pairs = pairs.n_outside;

    // Bucket pairs by strip so each strip touches only resident tiles.
    let tiles_x = grid.tiles_x();
    let tiles_y = grid.tiles_y();
    let n_strips = tiles_y.div_ceil(cfg.strip_rows);
    let strip_of = |tid: u32| (tid as usize / tiles_x) / cfg.strip_rows;
    let mut inside_by_strip: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_strips];
    for (pid, tid) in pairs.inside.iter_pairs() {
        inside_by_strip[strip_of(tid)].push((pid, tid));
    }
    let mut intersect_by_strip: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_strips];
    for (pid, tid) in pairs.intersect.iter_pairs() {
        intersect_by_strip[strip_of(tid)].push((pid, tid));
    }

    // `his_d_polygon` rows only for the zones this partition pairs with.
    let zone_rows = ZoneRows::new(&pairs.touched_zones(zones.len()), n_bins);

    // PIP efficiency counter pair (the paper's headline saving): cells
    // refined in Step 4 vs. cells settled wholesale by tile classification.
    let pip_performed = zonal_obs::counter("pip_tests_performed");
    let pip_avoided = zonal_obs::counter("pip_tests_avoided");
    let strip_cells = zonal_obs::histogram("strip_cells");

    // Per-strip counters feed the per-strip records, the run's only
    // record of counted work.
    zonal_obs::set_lane_name("compute");
    for strip in 0..n_strips {
        // ----- Step 0: decode (or generate) the strip ---------------------
        let ty0 = strip * cfg.strip_rows;
        let ty1 = (ty0 + cfg.strip_rows).min(tiles_y);
        let first_tid = ty0 * tiles_x;
        let strip_tiles = (ty1 - ty0) * tiles_x;
        let mut span = zonal_obs::span("step0: decode strip");
        let t0 = Instant::now();
        let tiles = source.strip(ty0..ty1);
        timings.steps[0].wall_secs += t0.elapsed().as_secs_f64();
        assert_eq!(
            tiles.len(),
            strip_tiles,
            "a strip holds its tile rows' tiles"
        );
        let cells = tiles.n_cells() as u64;
        let encoded_bytes: u64 = (0..strip_tiles)
            .map(|b| {
                let (tx, ty) = grid.tile_pos(first_tid + b);
                source.tile_encoded_bytes(tx, ty) as u64
            })
            .sum();
        let decode_work = KernelWork {
            flops: cells * DECODE_FLOPS_PER_CELL,
            coalesced_bytes: encoded_bytes + cells * 2,
            ..Default::default()
        };
        span.arg("strip", strip as u64)
            .arg("tiles", strip_tiles as u64)
            .arg("cells", cells)
            .arg("encoded_bytes", encoded_bytes)
            .arg("flops", decode_work.flops)
            .arg("coalesced_bytes", decode_work.coalesced_bytes);
        drop(span);

        let mut strip_span = zonal_obs::span("compute strip");
        strip_span.arg("strip", strip as u64).arg("cells", cells);
        strip_cells.record(cells);
        counts.n_cells += cells;
        counts.encoded_bytes += encoded_bytes;
        counts.raw_bytes += cells * 2;

        let s1_cell = WorkCounter::new();
        let s1_fixed = WorkCounter::new();
        let s3_fixed = WorkCounter::new();
        let s4_cell = WorkCounter::new();

        // ----- Step 1: per-tile histograms --------------------------------
        // Only the tiles of inside pairs have their runs read (Step 3).
        let t1 = Instant::now();
        let views: Vec<TileView> = tiles.tiles().collect();
        let mut wanted = vec![false; views.len()];
        for &(_, tid) in &inside_by_strip[strip] {
            wanted[tid as usize - first_tid] = true;
        }
        let tile_hists = per_tile_histograms(&views, &wanted, n_bins, &s1_cell, &s1_fixed);
        timings.steps[1].wall_secs += t1.elapsed().as_secs_f64();
        counts.n_valid_cells += tile_hists.iter().map(|h| h.valid_cells).sum::<u64>();
        counts.n_nodata_cells += tile_hists.iter().map(|h| h.skipped_cells).sum::<u64>();

        // ----- Step 3: aggregate inside tiles ------------------------------
        let t3 = Instant::now();
        let agg_pairs: Vec<(u32, &[(u16, u32)])> = inside_by_strip[strip]
            .iter()
            .map(|&(pid, tid)| (pid, tile_hists[tid as usize - first_tid].runs.as_slice()))
            .collect();
        aggregate_inside(&agg_pairs, &zone_rows, &s3_fixed);
        timings.steps[3].wall_secs += t3.elapsed().as_secs_f64();

        // ----- Step 4: refine boundary tiles -------------------------------
        let t4 = Instant::now();
        let ref_pairs: Vec<(u32, u32, TileView)> = intersect_by_strip[strip]
            .iter()
            .map(|&(pid, tid)| (pid, tid, views[tid as usize - first_tid]))
            .collect();
        let rc = refine_intersect(&ref_pairs, grid, &zones.flat, &zone_rows, &s4_cell);
        timings.steps[4].wall_secs += t4.elapsed().as_secs_f64();
        counts.pip_cells_tested += rc.cells_tested;
        counts.pip_cells_inside += rc.cells_inside;
        counts.edge_tests += rc.edge_tests;

        let mut sw = StripWork {
            encoded_bytes,
            raw_bytes: cells * 2,
            ..Default::default()
        };
        sw.cell_work[0] = decode_work;
        sw.cell_work[1] = s1_cell.snapshot();
        sw.fixed_work[1] = s1_fixed.snapshot();
        sw.fixed_work[3] = s3_fixed.snapshot();
        sw.cell_work[4] = s4_cell.snapshot();
        timings.strips.push(sw);
    }

    pip_performed.add(counts.pip_cells_tested);
    // Saturating: with heavily overlapping zones a cell can be PIP-tested
    // once per intersecting polygon, exceeding the partition's cell count.
    pip_avoided.add(counts.n_cells.saturating_sub(counts.pip_cells_tested));

    let hists = zone_rows.into_histograms();
    timings.fixed_input_bytes = zones.device_bytes();
    timings.output_bytes = hists.output_bytes();

    ZonalResult {
        hists,
        timings,
        counts,
    }
}

/// Run the pipeline over several partitions (the single-node
/// configuration of the paper's Table 2) and merge the results.
///
/// Partitions are independent, so `min(available_parallelism, n)` scoped
/// workers pull partition indices from one counter; results are merged in
/// partition order, making the outcome identical to the sequential loop
/// no matter how the workers interleave. An empty slice yields zero-row
/// histograms for the layer at `cfg.n_bins`.
pub fn run_partitions<S: TileSource>(
    cfg: &PipelineConfig,
    zones: &Zones,
    sources: &[S],
) -> ZonalResult {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(sources.len());
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, ZonalResult)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(source) = sources.get(i) else {
                            return done;
                        };
                        let mut span = zonal_obs::span("partition");
                        span.arg("partition", i as u64);
                        done.push((i, run_partition(cfg, zones, source)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    results.sort_unstable_by_key(|&(i, _)| i);

    let mut merged = ZonalResult {
        hists: ZoneHistograms::new(zones.len(), cfg.n_bins),
        timings: PipelineTimings::new(cfg.device),
        counts: PipelineCounts::default(),
    };
    for (_, r) in &results {
        merged.merge(r);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_geo::{Polygon, Ring};
    use zonal_raster::{GeoTransform, Raster, TileGrid};

    /// Layer of two half-plane rectangles partitioning [0,4]×[0,4], plus a
    /// raster of constant stripes; exact counts are computable by hand.
    fn simple_setup() -> (Zones, Raster, TileGrid) {
        let layer = PolygonLayer::from_polygons(vec![
            Polygon::rect(0.0, 0.0, 2.0, 4.0),
            Polygon::rect(2.0, 0.0, 4.0, 4.0),
        ]);
        let gt = GeoTransform::new(0.0, 0.0, 0.1, 0.1);
        // 40×40 cells; value = column / 10 (4 distinct values).
        let raster = Raster::from_fn(40, 40, gt, |_r, c| (c / 10) as u16);
        let grid = TileGrid::new(40, 40, 8, gt);
        (Zones::new(layer), raster, grid)
    }

    #[test]
    fn exact_counts_on_partitioned_rect_layer() {
        let (zones, raster, grid) = simple_setup();
        let cfg = PipelineConfig::test().with_bins(8);
        let src = raster.tile_source(&grid);
        let result = run_partition(&cfg, &zones, &src);
        // Zone 0 covers columns 0..20 (x < 2.0): values 0 (cols 0..10) and
        // 1 (cols 10..20), 40 rows each.
        assert_eq!(result.hists.get(0, 0), 400);
        assert_eq!(result.hists.get(0, 1), 400);
        assert_eq!(result.hists.get(0, 2), 0);
        // Zone 1 covers columns 20..40: values 2 and 3.
        assert_eq!(result.hists.get(1, 2), 400);
        assert_eq!(result.hists.get(1, 3), 400);
        // Every cell counted exactly once.
        assert_eq!(result.hists.total(), 1600);
        assert_eq!(result.counts.n_cells, 1600);
        assert_eq!(result.counts.n_valid_cells, 1600);
    }

    #[test]
    fn pip_fraction_is_small_for_large_tiles_inside() {
        let (zones, raster, grid) = simple_setup();
        let cfg = PipelineConfig::test().with_bins(8);
        let src = raster.tile_source(&grid);
        let result = run_partition(&cfg, &zones, &src);
        // Interior tiles skip cell tests entirely; only boundary-tile cells
        // are PIP-tested.
        assert!(result.counts.pip_cells_tested < result.counts.n_cells);
        assert!(result.counts.inside_pairs > 0);
        assert!(result.counts.intersect_pairs > 0);
    }

    #[test]
    fn timings_populated() {
        let (zones, raster, grid) = simple_setup();
        let cfg = PipelineConfig::test().with_bins(8);
        let src = raster.tile_source(&grid);
        let result = run_partition(&cfg, &zones, &src);
        let sim = result.timings.step_sim_secs();
        // Step 1 and Step 4 did real work.
        assert!(sim[1] > 0.0);
        assert!(sim[4] > 0.0);
        assert!(
            result.timings.end_to_end_sim_secs()
                > result.timings.steps_total_sim_secs_at_scale(1.0)
        );
        assert!(result.timings.wall_secs() > 0.0);
        assert_eq!(result.counts.n_tiles, 25);
    }

    #[test]
    fn strip_size_does_not_change_results() {
        let (zones, raster, grid) = simple_setup();
        let src = raster.tile_source(&grid);
        let base = run_partition(&PipelineConfig::test().with_bins(8), &zones, &src);
        for strip_rows in [1usize, 3, 100] {
            let mut cfg = PipelineConfig::test().with_bins(8);
            cfg.strip_rows = strip_rows;
            let r = run_partition(&cfg, &zones, &src);
            assert_eq!(r.hists, base.hists, "strip_rows={strip_rows}");
        }
    }

    /// A source that keeps the default `TileSource::strip`, built from
    /// `tile()`.
    struct TilesOnly<'a, S>(&'a S);

    impl<S: TileSource> TileSource for TilesOnly<'_, S> {
        fn grid(&self) -> &TileGrid {
            self.0.grid()
        }

        fn tile(&self, tx: usize, ty: usize) -> zonal_raster::TileData {
            self.0.tile(tx, ty)
        }

        fn tile_encoded_bytes(&self, tx: usize, ty: usize) -> usize {
            self.0.tile_encoded_bytes(tx, ty)
        }
    }

    /// `src`, whose `strip` is its own, against its tiles stacked by the
    /// default `strip`, at several strip sizes.
    fn assert_default_strip_matches(zones: &Zones, src: &impl TileSource) {
        for strip_rows in [1usize, 2, 3, 100] {
            let mut cfg = PipelineConfig::test().with_bins(5000);
            cfg.strip_rows = strip_rows;
            let want = run_partition(&cfg, zones, &TilesOnly(src));
            let got = run_partition(&cfg, zones, src);
            assert!(want.hists.total() > 0);
            assert_eq!(got.hists, want.hists, "strip_rows={strip_rows}");
            assert_eq!(got.counts, want.counts, "strip_rows={strip_rows}");
            assert_eq!(
                got.timings.strips, want.timings.strips,
                "strip_rows={strip_rows}"
            );
        }
    }

    #[test]
    fn default_strip_matches_overriding_sources() {
        // A ragged 37×45 grid of 8-cell tiles: partial last tile row and
        // column, and a partial last strip at 2 and 3 tile rows.
        let (zones, _, _) = simple_setup();
        let gt = GeoTransform::new(0.0, 0.0, 0.1, 0.1);
        let grid = TileGrid::new(37, 45, 8, gt);
        let raster = Raster::from_fn(37, 45, gt, |r, c| ((r * 13 + c * 7) % 300) as u16);
        assert_default_strip_matches(&zones, &raster.tile_source(&grid));
        assert_default_strip_matches(&zones, &zonal_raster::SyntheticSrtm::new(grid, 7));
    }

    #[test]
    fn overlapped_sim_time_beats_serial_here() {
        let (zones, raster, grid) = simple_setup();
        let mut cfg = PipelineConfig::test().with_bins(8);
        cfg.strip_rows = 1;
        let r = run_partition(&cfg, &zones, &raster.tile_source(&grid));
        let serial = r.timings.end_to_end_sim_secs();
        let overlapped = r.timings.end_to_end_overlapped_sim_secs();
        let steps = r.timings.steps_total_sim_secs_at_scale(1.0);
        assert!(overlapped < serial, "{overlapped} !< {serial}");
        assert!(overlapped >= steps, "{overlapped} !>= {steps}");
    }

    #[test]
    fn parallel_run_partitions_matches_serial_merge() {
        let (zones, raster, grid) = simple_setup();
        let gt = *raster.transform();
        let top = Raster::from_fn(20, 40, gt.shifted(20, 0), |r, c| raster.get(r + 20, c));
        let bottom = Raster::from_fn(20, 40, gt, |r, c| raster.get(r, c));
        let grid_b = TileGrid::new(20, 40, 8, gt);
        let grid_t = TileGrid::new(20, 40, 8, gt.shifted(20, 0));
        let cfg = PipelineConfig::test().with_bins(8);
        let sources = vec![bottom.tile_source(&grid_b), top.tile_source(&grid_t)];
        let pooled = run_partitions(&cfg, &zones, &sources);
        let mut serial = run_partition(&cfg, &zones, &sources[0]);
        serial.merge(&run_partition(&cfg, &zones, &sources[1]));
        assert_eq!(pooled.hists, serial.hists);
        assert_eq!(pooled.counts, serial.counts);
        assert_eq!(pooled.timings.strips, serial.timings.strips);
        let whole = run_partition(&cfg, &zones, &raster.tile_source(&grid));
        assert_eq!(pooled.hists, whole.hists);
    }

    #[test]
    fn run_partitions_over_no_partitions_is_empty() {
        let (zones, _, _) = simple_setup();
        let cfg = PipelineConfig::test().with_bins(8);
        let r = run_partitions::<zonal_raster::SyntheticSrtm>(&cfg, &zones, &[]);
        assert_eq!(r.hists, ZoneHistograms::new(zones.len(), 8));
        assert_eq!(r.hists.n_rows(), 0);
        assert_eq!(r.counts, PipelineCounts::default());
        assert!(r.timings.strips.is_empty());
        assert_eq!(r.timings.device, cfg.device);
    }

    #[test]
    #[should_panic(expected = "does not match cfg.tile_deg")]
    fn grid_config_mismatch_rejected() {
        let (zones, raster, grid) = simple_setup();
        // 8-cell tiles at 0.1°/cell are 0.8° tiles; claiming 2.0° must fail.
        let cfg = PipelineConfig::test().with_bins(8).with_tile_deg(2.0);
        run_partition(&cfg, &zones, &raster.tile_source(&grid));
    }

    #[test]
    fn multi_partition_merge_equals_single() {
        // Split the raster into two partitions horizontally; results must
        // merge to the single-raster answer.
        let (zones, raster, grid) = simple_setup();
        let whole = run_partition(
            &PipelineConfig::test().with_bins(8),
            &zones,
            &raster.tile_source(&grid),
        );
        let gt = *raster.transform();
        let top = Raster::from_fn(20, 40, gt.shifted(20, 0), |r, c| raster.get(r + 20, c));
        let bottom = Raster::from_fn(20, 40, gt, |r, c| raster.get(r, c));
        let grid_b = TileGrid::new(20, 40, 8, gt);
        let grid_t = TileGrid::new(20, 40, 8, gt.shifted(20, 0));
        let cfg = PipelineConfig::test().with_bins(8);
        let mut merged = run_partition(&cfg, &zones, &bottom.tile_source(&grid_b));
        merged.merge(&run_partition(&cfg, &zones, &top.tile_source(&grid_t)));
        assert_eq!(merged.hists, whole.hists);
        assert_eq!(merged.counts.n_cells, whole.counts.n_cells);
    }

    #[test]
    fn counted_bin_work_is_analytic() {
        // The host adds only non-zero runs, but Steps 1 and 3 still charge
        // the kernels' full bin axis: n_bins zeroed and written back per
        // tile, and n_bins read + RMW per inside pair.
        let (zones, raster, grid) = simple_setup();
        let n_bins = 5000u64;
        let cfg = PipelineConfig::test().with_bins(n_bins as usize);
        let r = run_partition(&cfg, &zones, &raster.tile_source(&grid));
        assert!(r.counts.inside_pairs > 0);
        let work = r.timings.total_work();
        assert_eq!(
            work.fixed_work[1].coalesced_bytes,
            r.counts.n_tiles * n_bins * 8
        );
        assert_eq!(
            work.fixed_work[3].coalesced_bytes,
            r.counts.inside_pairs * n_bins * 12
        );
        assert_eq!(r.timings.output_bytes, zones.len() as u64 * n_bins * 4);
    }

    #[test]
    fn stores_rows_only_for_touched_zones() {
        // Four zones, two of them off the raster: exactly the two the
        // partition pairs with get rows, and the others read as zeros.
        let (_, raster, grid) = simple_setup();
        let zones = Zones::new(PolygonLayer::from_polygons(vec![
            Polygon::rect(10.0, 10.0, 11.0, 11.0),
            Polygon::rect(0.0, 0.0, 2.0, 4.0),
            Polygon::rect(-5.0, -5.0, -4.0, -4.0),
            Polygon::rect(2.0, 0.0, 4.0, 4.0),
        ]));
        let cfg = PipelineConfig::test().with_bins(8);
        let r = run_partition(&cfg, &zones, &raster.tile_source(&grid));
        assert_eq!(r.hists.n_zones(), 4);
        assert_eq!(r.hists.n_rows(), 2);
        let stored: Vec<usize> = r.hists.rows().map(|(z, _)| z).collect();
        assert_eq!(stored, vec![1, 3]);
        assert_eq!(r.hists.zone(0), &[0; 8]);
        assert_eq!(r.hists.get(1, 0), 400);
        assert_eq!(r.hists.get(3, 3), 400);
        assert_eq!(r.hists.total(), 1600);
    }

    #[test]
    fn zones_device_bytes() {
        let zones = Zones::new(PolygonLayer::from_polygons(vec![Polygon::rect(
            0., 0., 1., 1.,
        )]));
        // 5 slots (4 vertices + closure) × 16 bytes + 1 × 4 bytes.
        assert_eq!(zones.device_bytes(), 5 * 16 + 4);
    }

    #[test]
    fn hole_cells_not_counted() {
        let layer = PolygonLayer::from_polygons(vec![Polygon::new(vec![
            Ring::rect(0.0, 0.0, 4.0, 4.0),
            Ring::rect(1.0, 1.0, 3.0, 3.0),
        ])]);
        let zones = Zones::new(layer);
        let gt = GeoTransform::new(0.0, 0.0, 0.1, 0.1);
        let raster = Raster::filled(40, 40, 1, gt);
        let grid = TileGrid::new(40, 40, 8, gt);
        let cfg = PipelineConfig::test().with_bins(4);
        let result = run_partition(&cfg, &zones, &raster.tile_source(&grid));
        // 1600 cells minus the 20×20 hole.
        assert_eq!(result.hists.get(0, 1), 1600 - 400);
    }
}
