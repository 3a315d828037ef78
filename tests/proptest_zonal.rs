//! Property tests for the full pipeline: random zone layers and random
//! rasters, pinned against the scanline and per-cell PIP references; and
//! for the windowed histogram type against a dense model.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use zonal_histo::geo::{Point, Polygon, PolygonLayer, Ring};
use zonal_histo::gpusim::{DeviceSpec, KernelWork};
use zonal_histo::raster::{GeoTransform, Raster, TileGrid};
use zonal_histo::zonal::pipeline::{run_partition, Zones};
use zonal_histo::zonal::stats::{stats_of_histogram, stats_of_window};
use zonal_histo::zonal::{baseline, PipelineConfig, PipelineTimings, ZoneHistograms};

/// Random layer of disjoint-ish circles and rectangles inside [0,8]×[0,6].
/// Overlap is allowed — zonal histogramming is defined per zone, so zones
/// may double-count cells without breaking any invariant checked here.
fn layer_strategy() -> impl Strategy<Value = PolygonLayer> {
    prop::collection::vec(
        (
            0.5f64..7.5,
            0.5f64..5.5,
            0.2f64..1.4,
            3usize..24,
            prop::bool::ANY,
        ),
        1..6,
    )
    .prop_map(|shapes| {
        PolygonLayer::from_polygons(
            shapes
                .into_iter()
                .map(|(cx, cy, r, n, circle)| {
                    if circle {
                        Polygon::from_ring(Ring::circle(Point::new(cx, cy), r, n.max(3)))
                    } else {
                        Polygon::rect(cx - r, cy - r * 0.7, cx + r, cy + r * 0.7)
                    }
                })
                .collect(),
        )
    })
}

fn raster_strategy() -> impl Strategy<Value = Raster> {
    (10usize..60, 10usize..80, any::<u64>()).prop_map(|(rows, cols, seed)| {
        let gt = GeoTransform::new(0.0, 0.0, 8.0 / cols as f64, 6.0 / rows as f64);
        Raster::from_fn(rows, cols, gt, move |r, c| {
            // Cheap deterministic hash-valued cells in 0..200.
            let h = (r as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(c as u64)
                .wrapping_mul(seed | 1);
            ((h >> 33) % 200) as u16
        })
    })
}

/// Launches of Steps 1, 3 and 4, which each launch once per strip.
fn strip_launches(t: &PipelineTimings) -> [u64; 3] {
    [
        t.steps[1].fixed_work.launches,
        t.steps[3].fixed_work.launches,
        t.steps[4].cell_work.launches,
    ]
}

/// Counted work apart from its launch count, which is the one term that
/// depends on the strip size.
fn sans_launches(w: KernelWork) -> KernelWork {
    KernelWork { launches: 0, ..w }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bins from {1, 8, 256, 5000} against cells valued 0..200 and tiles
    /// of up to 40×40 cells: tiles with far more cells than bins, far
    /// fewer, and values beyond the last bin all meet in one property.
    #[test]
    fn pipeline_equals_scanline_on_random_workloads(
        layer in layer_strategy(),
        raster in raster_strategy(),
        tile_cells in 3usize..41,
        bins_choice in 0usize..4,
    ) {
        let zones = Zones::new(layer);
        let grid = TileGrid::new(raster.rows(), raster.cols(), tile_cells, *raster.transform());
        let n_bins = [1, 8, 256, 5000][bins_choice];
        let mut cfg = PipelineConfig::paper(DeviceSpec::gtx_titan()).with_bins(n_bins);
        cfg.tile_deg = tile_cells as f64 * raster.transform().sx; // match grid
        let pipe = run_partition(&cfg, &zones, &raster.tile_source(&grid));
        let scan = baseline::scanline(&zones.layer, &raster, cfg.n_bins);
        prop_assert_eq!(pipe.hists, scan);
    }

    /// Step 4's row-crossing pass against the per-cell oracle, which
    /// tests every cell center with `contains`, for every tile size.
    #[test]
    fn pipeline_equals_per_cell_pip(
        layer in layer_strategy(),
        raster in raster_strategy(),
        tile_cells in 3usize..41,
    ) {
        let zones = Zones::new(layer);
        let grid = TileGrid::new(raster.rows(), raster.cols(), tile_cells, *raster.transform());
        let mut cfg = PipelineConfig::paper(DeviceSpec::gtx_titan()).with_bins(256);
        cfg.tile_deg = tile_cells as f64 * raster.transform().sx; // match grid
        let pipe = run_partition(&cfg, &zones, &raster.tile_source(&grid));
        let oracle = baseline::full_pip(&zones.layer, &raster, cfg.n_bins);
        prop_assert_eq!(pipe.hists, oracle);
    }

    #[test]
    fn counts_are_internally_consistent(
        layer in layer_strategy(),
        raster in raster_strategy(),
    ) {
        let zones = Zones::new(layer);
        let grid = TileGrid::new(raster.rows(), raster.cols(), 8, *raster.transform());
        let mut cfg = PipelineConfig::paper(DeviceSpec::gtx_titan()).with_bins(256);
        cfg.tile_deg = 8.0 * raster.transform().sx;
        let r = run_partition(&cfg, &zones, &raster.tile_source(&grid));
        prop_assert_eq!(r.counts.n_cells, (raster.rows() * raster.cols()) as u64);
        prop_assert!(r.counts.pip_cells_inside <= r.counts.pip_cells_tested);
        prop_assert!(r.counts.n_valid_cells <= r.counts.n_cells);
        // Inside-pair cells + PIP-inside cells ≥ total counted (each counted
        // cell came from one of the two paths; zones may overlap).
        prop_assert!(r.counts.edge_tests >= r.counts.pip_cells_tested);
    }

    #[test]
    fn strip_rows_match_one_strip_on_random_workloads(
        layer in layer_strategy(),
        raster in raster_strategy(),
        tile_cells in 3usize..12,
        strip_rows in 1usize..4,
    ) {
        let zones = Zones::new(layer);
        let grid = TileGrid::new(raster.rows(), raster.cols(), tile_cells, *raster.transform());
        let mut cfg = PipelineConfig::paper(DeviceSpec::gtx_titan()).with_bins(256);
        cfg.tile_deg = tile_cells as f64 * raster.transform().sx; // match grid
        let src = raster.tile_source(&grid);
        cfg.strip_rows = grid.tiles_y(); // every tile row in one strip
        let whole = run_partition(&cfg, &zones, &src);
        cfg.strip_rows = strip_rows;
        let striped = run_partition(&cfg, &zones, &src);
        prop_assert_eq!(&striped.hists, &whole.hists);
        prop_assert_eq!(&striped.counts, &whole.counts);
        let n_strips = grid.tiles_y().div_ceil(strip_rows) as u64;
        prop_assert_eq!(striped.timings.strips.len() as u64, n_strips);
        prop_assert_eq!(strip_launches(&striped.timings), [n_strips; 3]);
        prop_assert_eq!(strip_launches(&whole.timings), [1; 3]);
        for (i, (a, b)) in striped.timings.steps.iter().zip(&whole.timings.steps).enumerate() {
            prop_assert_eq!(sans_launches(a.cell_work), sans_launches(b.cell_work), "step {}", i);
            prop_assert_eq!(sans_launches(a.fixed_work), sans_launches(b.fixed_work), "step {}", i);
        }
        // The per-strip records sum to the step totals.
        let strips = &striped.timings.strips;
        for (i, step) in striped.timings.steps.iter().enumerate() {
            let cell = strips.iter().fold(KernelWork::default(), |acc, s| acc.merge(&s.cell_work[i]));
            let fixed = strips.iter().fold(KernelWork::default(), |acc, s| acc.merge(&s.fixed_work[i]));
            prop_assert_eq!(cell, step.cell_work, "step {}", i);
            prop_assert_eq!(fixed, step.fixed_work, "step {}", i);
        }
    }

    #[test]
    fn stats_match_expanded_values(bins in prop::collection::vec(0u64..50, 1..100)) {
        let s = stats_of_histogram(&bins);
        let mut values: Vec<f64> = Vec::new();
        for (v, &c) in bins.iter().enumerate() {
            values.extend(std::iter::repeat_n(v as f64, c as usize));
        }
        if values.is_empty() {
            prop_assert_eq!(s.count, 0);
        } else {
            let n = values.len() as f64;
            let mean = values.iter().sum::<f64>() / n;
            let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
            prop_assert_eq!(s.count as usize, values.len());
            prop_assert!((s.mean - mean).abs() < 1e-9);
            prop_assert!((s.std_dev - var.sqrt()).abs() < 1e-9);
            let lower_median = values[(values.len() - 1) / 2];
            prop_assert_eq!(s.median, Some(lower_median as u16));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random `add`, `zone_mut` and `merge` sequences on two histograms,
    /// checked against a dense `n_zones × n_bins` model. Operation kinds:
    /// 0 adds `count` (0 stores a zero window), 1 writes `count` through
    /// `zone_mut` (a full-width row), 2 stores a zero row through
    /// `zone_mut`, 3 merges the other histogram in, and 4 merges a window
    /// of `count + 1` bins from `bin` whose counts run `bin % 3` (zeros
    /// inside and at the ends). Zones no operation reaches stay absent.
    #[test]
    fn windowed_histograms_match_dense_model(
        n_zones in 1usize..6,
        n_bins in 1usize..40,
        ops in prop::collection::vec((0usize..5, 0usize..2, 0usize..64, 0usize..64, 0u64..4), 0..48),
        pick in (0usize..64, 0usize..64),
    ) {
        let mut hists = [
            ZoneHistograms::new(n_zones, n_bins),
            ZoneHistograms::new(n_zones, n_bins),
        ];
        let mut dense = [vec![vec![0u64; n_bins]; n_zones], vec![vec![0u64; n_bins]; n_zones]];
        for op in ops {
            let (kind, side, z, bin, count) = op;
            let (z, bin) = (z % n_zones, bin % n_bins);
            match kind {
                0 => {
                    hists[side].add(z, bin, count);
                    dense[side][z][bin] += count;
                }
                1 => {
                    hists[side].zone_mut(z)[bin] = count;
                    dense[side][z][bin] = count;
                }
                2 => {
                    hists[side].zone_mut(z);
                }
                3 => {
                    let other = hists[1 - side].clone();
                    hists[side].merge(&other);
                    let other = dense[1 - side].clone();
                    for (row, add) in dense[side].iter_mut().zip(other) {
                        for (a, b) in row.iter_mut().zip(add) {
                            *a += b;
                        }
                    }
                }
                _ => {
                    let mut window = ZoneHistograms::new(n_zones, n_bins);
                    let end = (bin + count as usize + 1).min(n_bins);
                    for (b, d) in (bin..end).zip(&mut dense[side][z][bin..end]) {
                        window.add(z, b, b as u64 % 3);
                        *d += b as u64 % 3;
                    }
                    hists[side].merge(&window);
                }
            }
            // The dense row `zone` lends out follows every write.
            prop_assert_eq!(hists[side].zone(z), &dense[side][z][..]);
        }

        for (h, m) in hists.iter().zip(&dense) {
            for (z, row) in m.iter().enumerate() {
                prop_assert_eq!(h.zone(z), &row[..]);
                prop_assert_eq!(h.window(z).to_dense(n_bins), row.clone());
                prop_assert_eq!(h.zone_total(z), row.iter().sum::<u64>());
                for (bin, &c) in row.iter().enumerate() {
                    prop_assert_eq!(h.get(z, bin), c);
                }
                prop_assert_eq!(stats_of_window(h.window(z)), stats_of_histogram(row));
            }
            prop_assert_eq!(h.total(), m.iter().flatten().sum::<u64>());

            // The same values stored as counted bins only, and as one
            // full-width row per zone.
            let mut counted = ZoneHistograms::new(n_zones, n_bins);
            let mut full = ZoneHistograms::new(n_zones, n_bins);
            for (z, row) in m.iter().enumerate() {
                full.zone_mut(z).copy_from_slice(row);
                for (bin, &c) in row.iter().enumerate().filter(|&(_, &c)| c > 0) {
                    counted.add(z, bin, c);
                }
            }
            for other in [&counted, &full] {
                prop_assert_eq!(h, other);
                prop_assert_eq!(other, h);
                prop_assert_eq!(h.checksum(), other.checksum());
            }

            let json = serde_json::to_string(h).expect("serialize");
            let back: ZoneHistograms = serde_json::from_str(&json).expect("parse");
            prop_assert_eq!(&back, h);
            prop_assert_eq!(h, &back);
            prop_assert_eq!(back.checksum(), h.checksum());
            prop_assert_eq!(back.n_rows(), h.n_rows());

            // Changing any one count changes the value and the checksum.
            let (z, bin) = (pick.0 % n_zones, pick.1 % n_bins);
            let mut changed = h.clone();
            changed.zone_mut(z)[bin] = m[z][bin] ^ 1;
            prop_assert_ne!(&changed, h);
            prop_assert_ne!(h, &changed);
            prop_assert_ne!(changed.checksum(), h.checksum());

            prop_assert!(catch_unwind(AssertUnwindSafe(|| h.get(0, n_bins))).is_err());
        }

        let same = dense[0] == dense[1];
        prop_assert_eq!(hists[0] == hists[1], same);
        prop_assert_eq!(hists[1] == hists[0], same);
        if same {
            prop_assert_eq!(hists[0].checksum(), hists[1].checksum());
        }
    }
}
