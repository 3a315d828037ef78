//! Step 4: cell-in-polygon refinement for boundary tiles.
//!
//! For tiles crossed by a polygon boundary, every cell's center is tested
//! against the polygon with the ray-crossing algorithm over the flattened
//! `ply_v`/`x_v`/`y_v` arrays (the paper's Fig. 5 kernel, including the
//! `(0,0)` multi-ring sentinel handling, which lives in
//! [`zonal_geo::FlatPolygons::contains`]). Cells that pass and hold an
//! in-range value update the polygon histogram.
//!
//! This is the pipeline's most expensive step (paper Table 2), and the one
//! whose cost scales with `cells × polygon edges`.

use crate::hist::ZoneRows;
use crate::representative::CellRepresentative;
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
    representative: CellRepresentative,
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
        let (tx, ty) = grid.tile_pos(tid as usize);
        let (row0, col0) = grid.tile_origin_cell(tx, ty);
        let edges = flat.edge_count(pid as usize) as u64;
        let mut counts = RefineCounts::default();
        for dr in 0..tile.rows {
            for dc in 0..tile.cols {
                // Fig. 5: _x1 = (c + 0.5) * scale, _y1 = (r + 0.5) * scale
                // (generalized to the configured representative point).
                let (inside, point_tests) =
                    representative.test(flat, pid as usize, &gt, row0 + dr, col0 + dc);
                counts.cells_tested += 1;
                counts.edge_tests += edges * point_tests as u64;
                if inside {
                    counts.cells_inside += 1;
                    let v = tile.get(dr, dc) as usize;
                    if v < n_bins {
                        zone_rows.add(pid, v, 1);
                        counts.cells_counted += 1;
                    }
                }
            }
        }
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
        let c = refine_intersect(
            &[(0, 0, &tile)],
            &grid,
            &flat,
            &zone,
            CellRepresentative::Center,
            &wc,
        );
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
        let c = refine_intersect(
            &[(0, 0, &tile)],
            &grid,
            &flat,
            &zone,
            CellRepresentative::Center,
            &wc,
        );
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
        let c = refine_intersect(
            &[(0, 0, &tile)],
            &grid,
            &flat,
            &zone,
            CellRepresentative::Center,
            &wc,
        );
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
            &[(0, 0, &tile), (1, 0, &tile)],
            &grid,
            &flat,
            &zone,
            CellRepresentative::Center,
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
        let c = refine_intersect(
            &[(0, 0, &tile)],
            &grid,
            &flat,
            &zone,
            CellRepresentative::Center,
            &wc,
        );
        assert_eq!(c.edge_tests, 100 * flat.edge_count(0) as u64);
        let w = wc.snapshot();
        assert_eq!(w.flops, c.edge_tests * FLOPS_PER_EDGE_TEST + 100 * 4);
        assert_eq!(w.atomics, c.cells_counted);
    }

    #[test]
    fn empty_pairs() {
        let flat = flat_of(Polygon::rect(0.0, 0.0, 1.0, 1.0));
        let grid = one_tile_grid();
        let zone = ZoneRows::new(&[true], 4);
        let wc = WorkCounter::new();
        let c = refine_intersect(&[], &grid, &flat, &zone, CellRepresentative::Center, &wc);
        assert_eq!(c, RefineCounts::default());
    }
}
