//! Step 4: cell-in-polygon refinement for boundary tiles.
//!
//! For tiles crossed by a polygon boundary, every cell's center is
//! classified against the polygon with the ray-crossing rule over the
//! flattened `ply_v`/`x_v`/`y_v` arrays (the paper's Fig. 5 kernel,
//! including the multi-ring sentinel handling). Cells that pass and hold an
//! in-range value update the polygon histogram.
//!
//! The device work is priced as the kernel performs it: one ray test per
//! cell, each walking all of the polygon's edges, so counted cost scales
//! with `cells × polygon edges` and this stays the most expensive step of
//! paper Table 2. The host takes a shorter route to the same answer. An
//! edge's crossing with a cell row depends only on the row's center y, so
//! each block computes the polygon's crossings once per cell row
//! ([`FlatPolygons::row_crossings`]) and classifies the row's centers by
//! the parity of the crossings to their right — exactly the toggles
//! [`FlatPolygons::contains`] makes, so the histograms are bit-identical
//! while host edge work falls by about the tile width.
//! [`crate::simt::pip_test_body`] keeps the per-cell Fig. 5 loop.

use crate::hist::ZoneRows;
use std::cell::RefCell;
use zonal_geo::FlatPolygons;
use zonal_gpusim::{exec, WorkCounter};
use zonal_raster::{TileData, TileGrid};

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

thread_local! {
    /// A thread's crossing list, reused across rows and blocks.
    static CROSSINGS: RefCell<Vec<f64>> = RefCell::default();
}

/// Refine a strip's intersect pairs.
///
/// `pairs` yields `(pid, tile_id, tile_data)`; one block processes one pair
/// (the paper groups by polygon; per-pair blocks are the same work units
/// with finer scheduling granularity). `grid` supplies the world placement
/// of tile cells; `zone_rows` must hold a row for every pair's polygon.
pub fn refine_intersect(
    pairs: &[(u32, u32, &TileData)],
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
    let per_block = exec::launch_map(pairs.len(), |b| {
        let (pid, tid, tile) = pairs[b];
        let k = pid as usize;
        let (tx, ty) = grid.tile_pos(tid as usize);
        let (row0, col0) = grid.tile_origin_cell(tx, ty);
        let cells = (tile.rows * tile.cols) as u64;
        // Counted as the Fig. 5 kernel does it: every cell walks every edge.
        let mut counts = RefineCounts {
            cells_tested: cells,
            edge_tests: cells * flat.edge_count(k) as u64,
            ..Default::default()
        };
        CROSSINGS.with(|c| {
            let crossings = &mut *c.borrow_mut();
            for dr in 0..tile.rows {
                flat.row_crossings(k, gt.cell_center(row0 + dr, col0).y, crossings);
                // A center is inside iff an odd number of crossings lie
                // strictly to its right. Center x rises with the column
                // (`sx > 0`), so `left`, the count of crossings at or left
                // of the current center, only moves forward.
                let mut left = 0;
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
        exec::attach_work_args(&mut span, pairs.len(), &before, &cell_work.snapshot());
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_geo::{Polygon, Ring};
    use zonal_raster::{GeoTransform, NODATA};

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
        let c = refine_intersect(&[(0, 0, &tile)], &grid, &flat, &zone, &wc);
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
        let c = refine_intersect(&[(0, 0, &tile)], &grid, &flat, &zone, &wc);
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
        let c = refine_intersect(&[(0, 0, &tile)], &grid, &flat, &zone, &wc);
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
        let c = refine_intersect(&[(0, 0, &tile), (1, 0, &tile)], &grid, &flat, &zone, &wc);
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
        let c = refine_intersect(&[(0, 0, &tile)], &grid, &flat, &zone, &wc);
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
        tile: &TileData,
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
            &[(0, tid as u32, tile)],
            grid,
            flat,
            &zone,
            &WorkCounter::new(),
        );
        let expected = per_cell_oracle(flat, 0, grid, tid, tile, 8);
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
            &[(0, tid as u32, &tile)],
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
