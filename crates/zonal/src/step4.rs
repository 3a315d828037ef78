//! Step 4: cell-in-polygon refinement for boundary tiles.
//!
//! For tiles crossed by a polygon boundary, every cell's center is
//! classified against the polygon with the ray-crossing rule over the
//! flattened `ply_v`/`x_v`/`y_v` arrays (the paper's Fig. 5 kernel,
//! including the multi-ring sentinel handling). Cells that pass and hold an
//! in-range value update the polygon histogram.
//!
//! The device work is priced as the kernel performs it, tile by tile: one
//! ray test per cell, each walking all of the polygon's edges, so counted
//! cost scales with `cells × polygon edges` and this stays the most
//! expensive step of paper Table 2. The host takes a shorter route to the
//! same answer, after Raptor zonal statistics (Singla & Eldawy), which
//! intersects each polygon with each raster row once. One block refines a
//! **run**: adjacent pairs of one polygon in one tile row, tile column
//! strictly increasing (the tiles a run skips are inside or outside). The
//! block gathers once the polygon's edges that can reach the tile row's
//! center rows ([`FlatBand`]); for each cell row it computes that row's
//! crossings once, sorted, and classifies the row's centers across all of
//! the run's tiles by the parity of the crossings to their right. Center
//! x rises with the column, so one pointer sweeps the crossings left to
//! right. These are exactly the toggles [`FlatPolygons::contains`] makes,
//! so the histograms are bit-identical. On the 120-cpd catalog (112,728
//! intersect pairs in 24,784 runs, 457 M counted edge tests) the host's
//! edge work falls from 38.3 M edges scanned, one scan per pair and cell
//! row, to 2.4 M: 0.70 M scanned to gather bands and 1.66 M straddle
//! tests of band edges.
//! [`crate::simt::pip_test_body`] keeps the per-cell Fig. 5 loop.

use crate::hist::ZoneRows;
use std::cell::RefCell;
use std::ops::Range;
use zonal_geo::{FlatBand, FlatPolygons};
use zonal_gpusim::{exec, WorkCounter};
use zonal_raster::{TileGrid, TileView};

/// Estimated arithmetic per edge test in the Fig. 5 inner loop (compares,
/// one divide, one multiply): the constant the cost model prices Step 4
/// with.
pub const FLOPS_PER_EDGE_TEST: u64 = 10;

/// Outcome counters for one refinement launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineCounts {
    /// Cells individually tested.
    pub cells_tested: u64,
    /// Cells found inside their polygon.
    pub cells_inside: u64,
    /// Of the inside cells, those with an in-range value (histogrammed).
    pub cells_counted: u64,
    /// Total polygon edges examined.
    pub edge_tests: u64,
}

impl RefineCounts {
    pub fn accumulate(&mut self, o: &RefineCounts) {
        self.cells_tested += o.cells_tested;
        self.cells_inside += o.cells_inside;
        self.cells_counted += o.cells_counted;
        self.edge_tests += o.edge_tests;
    }
}

/// A thread's band edges and crossing list, reused across rows and blocks.
#[derive(Default)]
struct Scratch {
    band: FlatBand,
    crossings: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Split `pairs` into maximal runs: adjacent pairs with one polygon, one
/// tile row and a strictly increasing tile column.
fn runs(pairs: &[(u32, u32, TileView<'_>)], grid: &TileGrid) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    let mut prev = None;
    for (i, &(pid, tid, _)) in pairs.iter().enumerate() {
        let (tx, ty) = grid.tile_pos(tid as usize);
        match (runs.last_mut(), prev) {
            (Some(run), Some((p, y, x))) if p == pid && y == ty && x < tx => run.end = i + 1,
            _ => runs.push(i..i + 1),
        }
        prev = Some((pid, ty, tx));
    }
    runs
}

/// Refine a strip's intersect pairs.
///
/// `pairs` yields `(pid, tile_id, tile)` in any order; one block
/// refines one run of them (see the module docs), so the pipeline's
/// grouped order, sorted by polygon and tile id, makes the fewest blocks.
/// `grid` supplies the world placement of tile cells; `zone_rows` must
/// hold a row for every pair's polygon.
pub fn refine_intersect(
    pairs: &[(u32, u32, TileView<'_>)],
    grid: &TileGrid,
    flat: &FlatPolygons,
    zone_rows: &ZoneRows,
    cell_work: &WorkCounter,
) -> RefineCounts {
    let traced = zonal_obs::enabled();
    let before = if traced {
        cell_work.snapshot()
    } else {
        Default::default()
    };
    let mut span = zonal_obs::span("step4: PIP refine boundary tiles");
    let gt = *grid.transform();
    let n_bins = zone_rows.n_bins();
    let runs = runs(pairs, grid);
    let per_block = exec::launch_map(runs.len(), |b| {
        let run = &pairs[runs[b].clone()];
        let (pid, first_tid, first_tile) = run[0];
        let k = pid as usize;
        let (first_tx, ty) = grid.tile_pos(first_tid as usize);
        let (row0, _) = grid.tile_origin_cell(first_tx, ty);
        let rows = first_tile.rows;
        let mut counts = RefineCounts::default();
        for &(_, _, tile) in run {
            debug_assert_eq!(tile.rows, rows, "a tile row's tiles share their rows");
            // Counted as the Fig. 5 kernel does it: every cell walks every
            // edge.
            let cells = (tile.rows * tile.cols) as u64;
            counts.cells_tested += cells;
            counts.edge_tests += cells * flat.edge_count(k) as u64;
        }
        if rows == 0 {
            return counts;
        }
        SCRATCH.with(|s| {
            let Scratch { band, crossings } = &mut *s.borrow_mut();
            let (y_first, y_last) = (
                gt.cell_center(row0, 0).y,
                gt.cell_center(row0 + rows - 1, 0).y,
            );
            band.fill(flat, k, y_first.min(y_last), y_first.max(y_last));
            for dr in 0..rows {
                band.row_crossings(gt.cell_center(row0 + dr, 0).y, crossings);
                // A center is inside iff an odd number of crossings lie
                // strictly to its right. Center x rises with the column
                // (`sx > 0`) and the run's tiles rise with it, so `left`,
                // the count of crossings at or left of the current center,
                // only moves forward across the whole run.
                let mut left = 0;
                for &(_, tid, tile) in run {
                    let (tx, _) = grid.tile_pos(tid as usize);
                    let (_, col0) = grid.tile_origin_cell(tx, ty);
                    for dc in 0..tile.cols {
                        let x = gt.cell_center(row0 + dr, col0 + dc).x;
                        while left < crossings.len() && crossings[left] <= x {
                            left += 1;
                        }
                        if (crossings.len() - left) % 2 == 1 {
                            counts.cells_inside += 1;
                            let v = tile.get(dr, dc) as usize;
                            if v < n_bins {
                                zone_rows.add(pid, v, 1);
                                counts.cells_counted += 1;
                            }
                        }
                    }
                }
            }
        });
        counts
    });
    let mut total = RefineCounts::default();
    for c in &per_block {
        total.accumulate(c);
    }
    // Cell-proportional work: the edge-test arithmetic dominates; each
    // tested cell also reads its 2-byte value, and each counted cell is one
    // global atomic.
    cell_work.add_flops(total.edge_tests * FLOPS_PER_EDGE_TEST + total.cells_tested * 4);
    cell_work.add_coalesced(total.cells_tested * 2);
    cell_work.add_atomics(total.cells_counted);
    cell_work.add_launch();
    if traced {
        exec::attach_work_args(&mut span, runs.len(), &before, &cell_work.snapshot());
        span.arg("pairs", pairs.len() as u64);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_geo::{Polygon, Ring};
    use zonal_raster::{GeoTransform, TileData, NODATA};

    /// One 10×10-cell tile covering [0,1]², cell size 0.1.
    fn one_tile_grid() -> TileGrid {
        TileGrid::new(10, 10, 10, GeoTransform::new(0.0, 0.0, 0.1, 0.1))
    }

    fn flat_of(poly: Polygon) -> FlatPolygons {
        FlatPolygons::from_polygons(&[poly])
    }

    #[test]
    fn half_plane_polygon_counts_half_the_tile() {
        // Polygon covering x < 0.5 of the tile: 5 of 10 columns of centers.
        let flat = flat_of(Polygon::rect(-1.0, -1.0, 0.5, 2.0));
        let grid = one_tile_grid();
        let tile = TileData::filled(3, 10, 10);
        let zone = ZoneRows::new(&[true], 8);
        let wc = WorkCounter::new();
        let c = refine_intersect(&[(0, 0, tile.view())], &grid, &flat, &zone, &wc);
        assert_eq!(c.cells_tested, 100);
        assert_eq!(c.cells_inside, 50);
        assert_eq!(c.cells_counted, 50);
        assert_eq!(zone.into_histograms().get(0, 3), 50);
    }

    #[test]
    fn nodata_cells_not_counted_but_inside() {
        let flat = flat_of(Polygon::rect(-1.0, -1.0, 2.0, 2.0)); // covers all
        let grid = one_tile_grid();
        let mut values = vec![1u16; 100];
        values[0] = NODATA;
        values[1] = 7000; // out of range for 8 bins
        let tile = TileData::new(values, 10, 10);
        let zone = ZoneRows::new(&[true], 8);
        let wc = WorkCounter::new();
        let c = refine_intersect(&[(0, 0, tile.view())], &grid, &flat, &zone, &wc);
        assert_eq!(c.cells_inside, 100);
        assert_eq!(c.cells_counted, 98);
        assert_eq!(zone.into_histograms().get(0, 1), 98);
    }

    #[test]
    fn multi_ring_hole_excluded() {
        // Shell covers everything; hole is the square [0.25, 0.75]².
        let shell = Ring::rect(-1.0, -1.0, 2.0, 2.0);
        let hole = Ring::rect(0.25, 0.25, 0.75, 0.75);
        let flat = flat_of(Polygon::new(vec![shell, hole]));
        let grid = one_tile_grid();
        let tile = TileData::filled(0, 10, 10);
        let zone = ZoneRows::new(&[true], 4);
        let wc = WorkCounter::new();
        let c = refine_intersect(&[(0, 0, tile.view())], &grid, &flat, &zone, &wc);
        // Centers are at 0.05, 0.15, ..., 0.95. Under the half-open rule the
        // hole owns centers with both coords in [0.25, 0.75): that's
        // {0.25, 0.35, 0.45, 0.55, 0.65} per axis => 5×5 = 25 cells excluded.
        assert_eq!(c.cells_inside, 100 - 25);
        assert_eq!(zone.into_histograms().get(0, 0), 75);
    }

    #[test]
    fn multiple_pairs_accumulate_per_polygon() {
        // Two polygons, same tile: each claims a disjoint half.
        let polys = vec![
            Polygon::rect(-1.0, -1.0, 0.5, 2.0),
            Polygon::rect(0.5, -1.0, 2.0, 2.0),
        ];
        let flat = FlatPolygons::from_polygons(&polys);
        let grid = one_tile_grid();
        let tile = TileData::filled(2, 10, 10);
        let zone = ZoneRows::new(&[true, true], 4);
        let wc = WorkCounter::new();
        let c = refine_intersect(
            &[(0, 0, tile.view()), (1, 0, tile.view())],
            &grid,
            &flat,
            &zone,
            &wc,
        );
        let h = zone.into_histograms();
        assert_eq!(h.get(0, 2), 50, "zone 0 gets the left half");
        assert_eq!(h.get(1, 2), 50, "zone 1 gets the right half");
        assert_eq!(c.cells_counted, 100, "every cell counted exactly once");
    }

    #[test]
    fn edge_test_accounting() {
        let flat = flat_of(Polygon::rect(-1.0, -1.0, 0.5, 2.0)); // 4 edges + closure slot
        let grid = one_tile_grid();
        let tile = TileData::filled(0, 10, 10);
        let zone = ZoneRows::new(&[true], 4);
        let wc = WorkCounter::new();
        let c = refine_intersect(&[(0, 0, tile.view())], &grid, &flat, &zone, &wc);
        assert_eq!(c.edge_tests, 100 * flat.edge_count(0) as u64);
        let w = wc.snapshot();
        assert_eq!(w.flops, c.edge_tests * FLOPS_PER_EDGE_TEST + 100 * 4);
        assert_eq!(w.atomics, c.cells_counted);
    }

    /// Per-cell reference: one [`FlatPolygons::contains`] test of each
    /// cell center of the tile, histogrammed into `n_bins`.
    fn per_cell_oracle(
        flat: &FlatPolygons,
        pid: usize,
        grid: &TileGrid,
        tid: usize,
        tile: TileView,
        n_bins: usize,
    ) -> Vec<u64> {
        let (tx, ty) = grid.tile_pos(tid);
        let (row0, col0) = grid.tile_origin_cell(tx, ty);
        let mut bins = vec![0u64; n_bins];
        for dr in 0..tile.rows {
            for dc in 0..tile.cols {
                let center = grid.transform().cell_center(row0 + dr, col0 + dc);
                let v = tile.get(dr, dc) as usize;
                if flat.contains(pid, center) && v < n_bins {
                    bins[v] += 1;
                }
            }
        }
        bins
    }

    /// Refine one tile for polygon 0 and compare with the per-cell oracle.
    fn assert_matches_oracle(flat: &FlatPolygons, grid: &TileGrid, tid: usize, tile: &TileData) {
        let zone = ZoneRows::new(&[true], 8);
        let c = refine_intersect(
            &[(0, tid as u32, tile.view())],
            grid,
            flat,
            &zone,
            &WorkCounter::new(),
        );
        let expected = per_cell_oracle(flat, 0, grid, tid, tile.view(), 8);
        assert_eq!(zone.into_histograms().zone(0), &expected[..]);
        assert_eq!(c.cells_counted, expected.iter().sum::<u64>());
        assert_eq!(c.cells_tested, (tile.rows * tile.cols) as u64);
    }

    #[test]
    fn clipped_edge_tile_matches_per_cell_tests() {
        // A 15×13 raster in 10-cell tiles: tile (1, 1) is clipped to 5×3.
        let grid = TileGrid::new(15, 13, 10, GeoTransform::new(0.0, 0.0, 0.1, 0.1));
        let tid = grid.tile_id(1, 1);
        let (rows, cols) = grid.tile_shape(1, 1);
        assert_eq!((rows, cols), (5, 3));
        assert!(cols < grid.tile_cells());
        let tile = TileData::new((0..15).map(|i| (i % 8) as u16).collect(), rows, cols);
        let flat = flat_of(Polygon::from_ring(Ring::new(vec![
            zonal_geo::Point::new(0.9, 0.95),
            zonal_geo::Point::new(1.4, 1.1),
            zonal_geo::Point::new(1.05, 1.6),
        ])));
        assert_matches_oracle(&flat, &grid, tid, &tile);
        let zone = ZoneRows::new(&[true], 8);
        let c = refine_intersect(
            &[(0, tid as u32, tile.view())],
            &grid,
            &flat,
            &zone,
            &WorkCounter::new(),
        );
        assert!(c.cells_inside > 0 && c.cells_inside < 15, "{c:?}");
    }

    #[test]
    fn vertices_on_sample_rows_match_per_cell_tests() {
        // Unit cells: centers sit at k + 0.5, exactly. The polygon puts
        // vertices and a horizontal edge on center rows, and vertices on
        // center columns.
        let grid = TileGrid::new(10, 10, 10, GeoTransform::new(0.0, 0.0, 1.0, 1.0));
        let tile = TileData::new((0..100).map(|i| (i % 7) as u16).collect(), 10, 10);
        let pts = [
            (5.0, 0.5),
            (9.5, 4.5),
            (7.5, 4.5),
            (8.25, 6.75),
            (5.5, 8.5),
            (0.5, 4.5),
            (2.75, 2.25),
            (2.5, 1.5),
        ];
        let ring = Ring::new(
            pts.iter()
                .map(|&(x, y)| zonal_geo::Point::new(x, y))
                .collect(),
        );
        let hole = Ring::rect(3.5, 3.5, 5.5, 5.5);
        for flat in [
            flat_of(Polygon::from_ring(ring.clone())),
            flat_of(Polygon::new(vec![ring, hole])),
        ] {
            assert_matches_oracle(&flat, &grid, 0, &tile);
        }
    }

    /// 23×8 unit cells in 4-cell tiles: 6×2 tiles, the last column of
    /// tiles clipped to 3 cells. Center `(r, c)` sits at `(c + 0.5, r + 0.5)`.
    fn run_grid() -> TileGrid {
        TileGrid::new(8, 23, 4, GeoTransform::new(0.0, 0.0, 1.0, 1.0))
    }

    /// Tile `(tx, ty)` of [`run_grid`], with in-range values, a no-data
    /// cell and an out-of-range value so inside and counted cells differ.
    fn run_tile(grid: &TileGrid, tx: usize, ty: usize) -> (u32, TileData) {
        let (rows, cols) = grid.tile_shape(tx, ty);
        let values = (0..rows * cols)
            .map(|i| match (i + tx) % 9 {
                0 => NODATA,
                1 => 99,
                _ => ((i * 3 + tx + ty) % 8) as u16,
            })
            .collect();
        (
            grid.tile_id(tx, ty) as u32,
            TileData::new(values, rows, cols),
        )
    }

    fn ring_of(pts: &[(f64, f64)]) -> Ring {
        Ring::new(
            pts.iter()
                .map(|&(x, y)| zonal_geo::Point::new(x, y))
                .collect(),
        )
    }

    /// Per-cell reference for a list of pairs: each zone's histogram (from
    /// [`per_cell_oracle`]) and the counts the Fig. 5 kernel reports.
    fn oracle_for(
        flat: &FlatPolygons,
        grid: &TileGrid,
        pairs: &[(u32, u32, TileView)],
        n_bins: usize,
    ) -> (Vec<Vec<u64>>, RefineCounts) {
        let mut hists = vec![vec![0u64; n_bins]; flat.len()];
        let mut counts = RefineCounts::default();
        for &(pid, tid, tile) in pairs {
            let (k, t) = (pid as usize, tid as usize);
            let bins = per_cell_oracle(flat, k, grid, t, tile, n_bins);
            for (h, b) in hists[k].iter_mut().zip(&bins) {
                *h += b;
            }
            let (tx, ty) = grid.tile_pos(t);
            let (row0, col0) = grid.tile_origin_cell(tx, ty);
            let cells = (tile.rows * tile.cols) as u64;
            let inside = (0..tile.rows * tile.cols)
                .filter(|i| {
                    let (dr, dc) = (i / tile.cols, i % tile.cols);
                    flat.contains(k, grid.transform().cell_center(row0 + dr, col0 + dc))
                })
                .count() as u64;
            counts.accumulate(&RefineCounts {
                cells_tested: cells,
                cells_inside: inside,
                cells_counted: bins.iter().sum(),
                edge_tests: cells * flat.edge_count(k) as u64,
            });
        }
        (hists, counts)
    }

    /// Refine `pairs`, check them against the per-cell oracle and return
    /// the histograms and counts.
    fn refine_checked(
        flat: &FlatPolygons,
        grid: &TileGrid,
        pairs: &[(u32, u32, TileView)],
    ) -> (Vec<Vec<u64>>, RefineCounts) {
        let zone = ZoneRows::new(&vec![true; flat.len()], 8);
        let c = refine_intersect(pairs, grid, flat, &zone, &WorkCounter::new());
        let h = zone.into_histograms();
        let got: Vec<Vec<u64>> = (0..flat.len()).map(|k| h.zone(k).to_vec()).collect();
        assert_eq!((got.clone(), c), oracle_for(flat, grid, pairs, 8));
        (got, c)
    }

    /// One polygon over tiles 1, 2, 4 and 5 of tile row 0 (tile 3, inside
    /// or outside, is not a pair), the last clipped to 3 columns. Vertices
    /// sit on the tile boundary x = 8 and on the center rows y = 1.5, 2.5.
    fn run_polygon() -> Ring {
        ring_of(&[
            (5.2, 0.2),
            (8.0, -1.0),
            (13.3, 1.5),
            (22.6, 0.7),
            (21.0, 3.9),
            (12.0, 3.2),
            (8.0, 4.6),
            (5.9, 2.5),
        ])
    }

    #[test]
    fn run_across_tiles_with_gap_and_clipped_tile_matches_per_cell_tests() {
        let grid = run_grid();
        assert_eq!(grid.tile_shape(5, 0), (4, 3));
        let tiles: Vec<(u32, TileData)> = [1, 2, 4, 5]
            .iter()
            .map(|&tx| run_tile(&grid, tx, 0))
            .collect();
        let pairs: Vec<(u32, u32, TileView)> =
            tiles.iter().map(|(t, d)| (0, *t, d.view())).collect();
        assert_eq!(runs(&pairs, &grid), vec![0..4], "one block for the run");
        let flat = flat_of(Polygon::from_ring(run_polygon()));
        let (h, c) = refine_checked(&flat, &grid, &pairs);
        assert!(
            c.cells_inside > c.cells_counted && c.cells_counted > 0,
            "{c:?}"
        );
        assert_eq!(c.cells_tested, 16 * 3 + 12);
        assert!(h[0].iter().filter(|&&n| n > 0).count() > 4, "{h:?}");
    }

    #[test]
    fn run_with_hole_spanning_two_tiles_matches_per_cell_tests() {
        let grid = run_grid();
        let tiles: Vec<(u32, TileData)> = [1, 2, 4, 5]
            .iter()
            .map(|&tx| run_tile(&grid, tx, 0))
            .collect();
        let pairs: Vec<(u32, u32, TileView)> =
            tiles.iter().map(|(t, d)| (0, *t, d.view())).collect();
        // The hole spans tiles 1 and 2 (x 4..8 and 8..12), with a vertex on
        // the center row y = 1.5.
        let hole = ring_of(&[(6.5, 1.5), (10.0, 0.8), (9.2, 3.0), (7.0, 2.6)]);
        let flat = flat_of(Polygon::new(vec![run_polygon(), hole]));
        let (_, with_hole) = refine_checked(&flat, &grid, &pairs);
        let (_, without) =
            refine_checked(&flat_of(Polygon::from_ring(run_polygon())), &grid, &pairs);
        assert!(with_hole.cells_inside < without.cells_inside);
    }

    #[test]
    fn runs_break_on_pid_tile_row_and_column_order() {
        let grid = run_grid();
        let tiles: Vec<(u32, TileData)> = [(1, 0), (2, 0), (4, 0), (5, 0), (3, 1)]
            .iter()
            .map(|&(tx, ty)| run_tile(&grid, tx, ty))
            .collect();
        let hole = ring_of(&[(6.5, 1.5), (10.0, 0.8), (9.2, 3.0), (7.0, 2.6)]);
        let flat = FlatPolygons::from_polygons(&[
            Polygon::new(vec![run_polygon(), hole]),
            Polygon::from_ring(ring_of(&[
                (4.5, -1.0),
                (23.5, 2.5),
                (14.0, 7.5),
                (7.0, 6.5),
            ])),
        ]);
        let pair = |pid: u32, i: usize| (pid, tiles[i].0, tiles[i].1.view());
        // The pipeline's grouped order: by polygon, then tile id. Polygon
        // 1's tile in row 1 starts a new run even though the column rises.
        let grouped: Vec<_> = (0..4)
            .map(|i| pair(0, i))
            .chain([0, 1, 4].map(|i| pair(1, i)))
            .collect();
        assert_eq!(runs(&grouped, &grid), vec![0..4, 4..6, 6..7]);
        // Shuffled and interleaved: every change of polygon or tile row,
        // and every column that does not rise, breaks a run (pairs 0 and 1
        // still make one), and the answer does not change.
        let shuffled = vec![
            pair(0, 2),
            pair(0, 3),
            pair(1, 0),
            pair(1, 4),
            pair(1, 1),
            pair(0, 1),
            pair(0, 0),
        ];
        assert_eq!(
            runs(&shuffled, &grid),
            vec![0..2, 2..3, 3..4, 4..5, 5..6, 6..7]
        );
        let first = refine_checked(&flat, &grid, &grouped);
        assert_eq!(refine_checked(&flat, &grid, &shuffled), first);
        assert!(first.1.cells_counted > 0 && first.0[1].iter().sum::<u64>() > 0);
    }

    #[test]
    fn empty_pairs() {
        let flat = flat_of(Polygon::rect(0.0, 0.0, 1.0, 1.0));
        let grid = one_tile_grid();
        let zone = ZoneRows::new(&[true], 4);
        let wc = WorkCounter::new();
        let c = refine_intersect(&[], &grid, &flat, &zone, &wc);
        assert_eq!(c, RefineCounts::default());
    }
}
