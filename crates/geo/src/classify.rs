//! Tile-in-polygon classification — the decision at the heart of Step 2.
//!
//! For every (polygon, tile) pair surviving MBB filtering, the pipeline must
//! decide whether the tile is completely `Outside` the polygon (ignore it),
//! completely `Inside` (add its per-tile histogram wholesale in Step 3), or
//! `Intersect`s the boundary (run per-cell point-in-polygon tests in
//! Step 4). The paper notes (§III.B) that this step is cheap enough to run
//! on the CPU with a conventional computational-geometry routine, which is
//! what this module is.

use crate::mbr::Mbr;
use crate::pip::crosses_ray;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::segment::segment_intersects_box;
use serde::{Deserialize, Serialize};

/// Relationship of a raster tile (an axis-aligned box) to a polygon.
///
/// The numeric values match the paper's encoding: outside = 0, inside = 1,
/// intersect = 2, which Step 3's `stable_sort_by_key` post-processing relies
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum TileRelation {
    /// No cell of the tile can be in the polygon.
    Outside = 0,
    /// Every cell of the tile is in the polygon.
    Inside = 1,
    /// The polygon boundary crosses the tile; cells need individual tests.
    Intersect = 2,
}

impl TileRelation {
    /// The paper's integer code for this relation.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`TileRelation::code`].
    pub fn from_code(c: u8) -> Option<TileRelation> {
        match c {
            0 => Some(TileRelation::Outside),
            1 => Some(TileRelation::Inside),
            2 => Some(TileRelation::Intersect),
            _ => None,
        }
    }
}

/// Classify the closed box `tile` against `poly`.
///
/// The classification is exact for boxes not degenerate to a point:
///
/// 1. if the box misses the polygon's MBR entirely it is `Outside`;
/// 2. if any polygon edge (of any ring) intersects the box it is
///    `Intersect`;
/// 3. otherwise the box lies entirely in a single region of the plane
///    (inside or outside the polygon), decided by testing its center.
///
/// Step 3/4 correctness only needs this to never report `Inside`/`Outside`
/// for a genuinely intersecting tile; reporting `Intersect` for an
/// inside/outside tile would merely cost extra Step-4 work (and cannot
/// happen here, but conservative callers may rely on that direction).
pub fn classify_box(poly: &Polygon, tile: &Mbr) -> TileRelation {
    if tile.is_empty() || !poly.mbr().intersects(tile) {
        return TileRelation::Outside;
    }
    for ring in poly.rings() {
        for (a, b) in ring.edges() {
            if segment_intersects_box(a, b, tile) {
                return TileRelation::Intersect;
            }
        }
    }
    // No boundary crosses the tile: the whole tile is on one side.
    if poly.contains(tile.center()) {
        TileRelation::Inside
    } else {
        TileRelation::Outside
    }
}

/// The edges of one polygon whose y-extent meets a horizontal band — all
/// that [`classify_box`] can see of the polygon for a box inside the band.
/// An edge crossing the box spans part of the box's y-range, and an edge
/// the center's +x ray crosses straddles the center's y.
#[derive(Debug, Clone, Default)]
pub struct BandEdges {
    /// Edges of rings with at least three vertices (the rings the
    /// ray-crossing test counts) first, then those of degenerate rings.
    edges: Vec<(Point, Point)>,
    n_ring_edges: usize,
}

impl BandEdges {
    /// Refill with the edges of `poly` whose y-extent meets
    /// `[min_y, max_y]`.
    pub fn fill(&mut self, poly: &Polygon, min_y: f64, max_y: f64) {
        let meets = |&(a, b): &(Point, Point)| a.y.min(b.y) <= max_y && a.y.max(b.y) >= min_y;
        self.edges.clear();
        for ring in poly.rings().iter().filter(|r| r.len() >= 3) {
            self.edges.extend(ring.edges().filter(meets));
        }
        self.n_ring_edges = self.edges.len();
        for ring in poly.rings().iter().filter(|r| r.len() < 3) {
            self.edges.extend(ring.edges().filter(meets));
        }
    }
}

/// [`classify_box`] for a box inside the band `band` was filled for, in
/// time proportional to the band's edges rather than the polygon's. The
/// result is identical: the edges left out can neither cross the box nor
/// the center's ray. Step 2 fills one band per tile row.
pub fn classify_box_in_band(poly: &Polygon, band: &BandEdges, tile: &Mbr) -> TileRelation {
    if tile.is_empty() || !poly.mbr().intersects(tile) {
        return TileRelation::Outside;
    }
    // The x-extent check is the box test's own quick reject, hoisted so
    // the many edges left or right of the box cost two compares.
    if band.edges.iter().any(|&(a, b)| {
        a.x.min(b.x) <= tile.max_x
            && a.x.max(b.x) >= tile.min_x
            && segment_intersects_box(a, b, tile)
    }) {
        return TileRelation::Intersect;
    }
    let c = tile.center();
    let crossings = band.edges[..band.n_ring_edges]
        .iter()
        .filter(|&&(a, b)| crosses_ray(c, a, b))
        .count();
    if poly.mbr().contains_point(c) && crossings % 2 == 1 {
        TileRelation::Inside
    } else {
        TileRelation::Outside
    }
}

/// Classify `tile` against a polygon given only as rings + an `inside`
/// predicate. Used by property tests to cross-check `classify_box` against
/// brute-force cell sampling.
pub fn classify_box_by_sampling(
    poly: &Polygon,
    tile: &Mbr,
    samples_per_axis: usize,
) -> TileRelation {
    let n = samples_per_axis.max(2);
    let mut any_in = false;
    let mut any_out = false;
    for i in 0..n {
        for j in 0..n {
            let p = Point::new(
                tile.min_x + tile.width() * ((i as f64 + 0.5) / n as f64),
                tile.min_y + tile.height() * ((j as f64 + 0.5) / n as f64),
            );
            if poly.contains(p) {
                any_in = true;
            } else {
                any_out = true;
            }
            if any_in && any_out {
                return TileRelation::Intersect;
            }
        }
    }
    if any_in {
        TileRelation::Inside
    } else {
        TileRelation::Outside
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Ring;

    #[test]
    fn codes_roundtrip() {
        for r in [
            TileRelation::Outside,
            TileRelation::Inside,
            TileRelation::Intersect,
        ] {
            assert_eq!(TileRelation::from_code(r.code()), Some(r));
        }
        assert_eq!(TileRelation::from_code(3), None);
    }

    #[test]
    fn far_away_tile_is_outside() {
        let poly = Polygon::rect(0.0, 0.0, 10.0, 10.0);
        let tile = Mbr::new(20.0, 20.0, 21.0, 21.0);
        assert_eq!(classify_box(&poly, &tile), TileRelation::Outside);
    }

    #[test]
    fn interior_tile_is_inside() {
        let poly = Polygon::rect(0.0, 0.0, 10.0, 10.0);
        let tile = Mbr::new(4.0, 4.0, 5.0, 5.0);
        assert_eq!(classify_box(&poly, &tile), TileRelation::Inside);
    }

    #[test]
    fn boundary_tile_intersects() {
        let poly = Polygon::rect(0.0, 0.0, 10.0, 10.0);
        let tile = Mbr::new(9.5, 4.0, 10.5, 5.0);
        assert_eq!(classify_box(&poly, &tile), TileRelation::Intersect);
    }

    #[test]
    fn tile_in_mbr_but_outside_concave_polygon() {
        // L-shaped polygon; a tile in the MBR notch is Outside.
        let poly = Polygon::from_ring(Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 4.0),
            Point::new(4.0, 4.0),
            Point::new(4.0, 10.0),
            Point::new(0.0, 10.0),
        ]));
        let tile = Mbr::new(7.0, 7.0, 8.0, 8.0);
        assert_eq!(classify_box(&poly, &tile), TileRelation::Outside);
    }

    #[test]
    fn tile_containing_whole_polygon_intersects() {
        let poly = Polygon::rect(4.0, 4.0, 5.0, 5.0);
        let tile = Mbr::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(classify_box(&poly, &tile), TileRelation::Intersect);
    }

    #[test]
    fn tile_inside_hole_is_outside() {
        let poly = Polygon::new(vec![
            Ring::rect(0.0, 0.0, 10.0, 10.0),
            Ring::rect(3.0, 3.0, 7.0, 7.0),
        ]);
        let in_hole = Mbr::new(4.0, 4.0, 5.0, 5.0);
        assert_eq!(classify_box(&poly, &in_hole), TileRelation::Outside);
        let in_shell = Mbr::new(1.0, 1.0, 2.0, 2.0);
        assert_eq!(classify_box(&poly, &in_shell), TileRelation::Inside);
        let across_hole_edge = Mbr::new(2.5, 4.0, 3.5, 5.0);
        assert_eq!(
            classify_box(&poly, &across_hole_edge),
            TileRelation::Intersect
        );
    }

    #[test]
    fn tile_touching_polygon_edge_intersects() {
        let poly = Polygon::rect(0.0, 0.0, 10.0, 10.0);
        // Tile shares the x=10 edge but has no interior overlap.
        let tile = Mbr::new(10.0, 4.0, 11.0, 5.0);
        assert_eq!(classify_box(&poly, &tile), TileRelation::Intersect);
    }

    #[test]
    fn sampling_oracle_agrees_on_clear_cases() {
        let poly = Polygon::new(vec![
            Ring::circle(Point::new(5.0, 5.0), 3.0, 64),
            Ring::circle(Point::new(5.0, 5.0), 1.0, 32),
        ]);
        let cases = [
            Mbr::new(4.7, 4.7, 5.3, 5.3), // in hole
            Mbr::new(5.0, 6.5, 5.5, 7.0), // in annulus
            Mbr::new(0.0, 0.0, 1.0, 1.0), // outside
            Mbr::new(7.5, 4.5, 8.5, 5.5), // straddles outer boundary
        ];
        for tile in &cases {
            let exact = classify_box(&poly, tile);
            let sampled = classify_box_by_sampling(&poly, tile, 16);
            // Sampling can miss a sliver intersection, so only check
            // agreement when the sampler saw both sides or the exact answer
            // is a pure region.
            if exact != TileRelation::Intersect {
                assert_eq!(exact, sampled, "tile {tile:?}");
            }
        }
    }

    #[test]
    fn band_classification_matches_full_classification() {
        // Annulus plus a degenerate two-vertex ring, on a grid whose rows
        // hit vertices and edges exactly: every tile must classify the
        // same from its row's band as from the whole polygon.
        let poly = Polygon::new(vec![
            Ring::circle(Point::new(5.0, 5.0), 3.0, 40),
            Ring::rect(4.0, 4.0, 6.0, 6.0),
            Ring::new(vec![Point::new(1.0, 2.0), Point::new(9.0, 2.5)]),
        ]);
        let mut band = BandEdges::default();
        let mut seen = [0usize; 3];
        for step in [0.5, 0.7, 1.0] {
            let n = (12.0 / step) as usize;
            for ty in 0..n {
                let (y0, y1) = (-1.0 + ty as f64 * step, -1.0 + (ty + 1) as f64 * step);
                band.fill(&poly, y0, y1);
                for tx in 0..n {
                    let x0 = -1.0 + tx as f64 * step;
                    let tile = Mbr::new(x0, y0, x0 + step, y1);
                    let full = classify_box(&poly, &tile);
                    assert_eq!(classify_box_in_band(&poly, &band, &tile), full, "{tile:?}");
                    seen[full.code() as usize] += 1;
                }
            }
        }
        assert!(
            seen.iter().all(|&k| k > 0),
            "all three relations occur: {seen:?}"
        );
    }
}
