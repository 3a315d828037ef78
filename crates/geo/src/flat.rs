//! The GPU-friendly flattened polygon representation.
//!
//! The paper's Step 4 kernel (Fig. 5) does not walk ring objects; it walks
//! three flat arrays:
//!
//! * `ply_v[k]` — one-past-the-end vertex index of polygon `k`
//!   (so polygon `k` owns vertices `ply_v[k-1] .. ply_v[k]`, with
//!   `ply_v[-1]` taken as 0);
//! * `x_v`, `y_v` — the vertex coordinates of all polygons, concatenated.
//!
//! Multi-ring polygons are encoded by closing each ring explicitly
//! (repeating its first vertex) and inserting a sentinel row between rings.
//! The kernel's edge loop skips any edge whose second endpoint is the
//! sentinel and then advances one extra slot, which lands it on the first
//! vertex of the next ring. Crossing *parity* across all rings then
//! classifies holes and islands with no per-ring bookkeeping — the paper's
//! observation that "adding the coordinate origin to the polygon vertex
//! array will handle multi-ring polygons correctly".
//!
//! The paper uses `(0, 0)` as the sentinel, safe for its CONUS data but a
//! trap for any dataset spanning the origin; this implementation keeps the
//! identical mechanism with `(+∞, +∞)`, which can never be a real vertex
//! ([`FlatPolygons::from_polygons`] enforces finiteness with a debug
//! assertion).

use crate::mbr::Mbr;
use crate::point::Point;
use crate::polygon::Polygon;
use serde::{Deserialize, Serialize};

/// Sentinel vertex separating rings in the flat layout (the paper's
/// "coordinate origin" trick, with an out-of-band constant).
pub const RING_SENTINEL: Point = Point::new(f64::INFINITY, f64::INFINITY);

/// Structure-of-arrays polygon storage mirroring the paper's
/// `ply_v` / `x_v` / `y_v` device arrays.
///
/// ```
/// use zonal_geo::{FlatPolygons, Point, Polygon, Ring};
///
/// // A square with a hole: the flat layout carries both rings with a
/// // sentinel separator, and `contains` applies crossing parity.
/// let poly = Polygon::new(vec![
///     Ring::rect(0.0, 0.0, 4.0, 4.0),
///     Ring::rect(1.0, 1.0, 3.0, 3.0),
/// ]);
/// let flat = FlatPolygons::from_polygons(&[poly]);
/// assert!(flat.contains(0, Point::new(0.5, 0.5)));   // in the shell
/// assert!(!flat.contains(0, Point::new(2.0, 2.0)));  // in the hole
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatPolygons {
    /// One-past-the-end vertex index per polygon (prefix-sum layout).
    pub ply_v: Vec<u32>,
    /// Vertex x coordinates (with ring closures and sentinels).
    pub x_v: Vec<f64>,
    /// Vertex y coordinates (with ring closures and sentinels).
    pub y_v: Vec<f64>,
    /// Per-polygon MBRs, precomputed on the host for Step 2 filtering.
    pub mbrs: Vec<Mbr>,
}

impl FlatPolygons {
    /// Flatten object-style polygons into the device layout.
    pub fn from_polygons(polys: &[Polygon]) -> Self {
        // Each ring takes its vertices plus a closing vertex; rings after
        // the first are preceded by a sentinel.
        let slots = polys
            .iter()
            .map(|poly| {
                let rings = poly.rings();
                let closed: usize = rings
                    .iter()
                    .map(|r| r.len() + usize::from(!r.is_empty()))
                    .sum();
                closed + rings.len().saturating_sub(1)
            })
            .sum();
        let mut ply_v = Vec::with_capacity(polys.len());
        let mut x_v = Vec::with_capacity(slots);
        let mut y_v = Vec::with_capacity(slots);
        let mut mbrs = Vec::with_capacity(polys.len());
        for poly in polys {
            for (ri, ring) in poly.rings().iter().enumerate() {
                if ri > 0 {
                    x_v.push(RING_SENTINEL.x);
                    y_v.push(RING_SENTINEL.y);
                }
                let pts = ring.points();
                for &p in pts {
                    debug_assert!(
                        p.is_finite(),
                        "flat layout reserves non-finite coordinates for the ring sentinel"
                    );
                    x_v.push(p.x);
                    y_v.push(p.y);
                }
                // Close the ring explicitly so consecutive (j, j+1) pairs
                // enumerate every edge including the wrap-around edge.
                if let Some(&first) = pts.first() {
                    x_v.push(first.x);
                    y_v.push(first.y);
                }
            }
            ply_v.push(x_v.len() as u32);
            mbrs.push(poly.mbr());
        }
        debug_assert_eq!(x_v.len(), slots);
        FlatPolygons {
            ply_v,
            x_v,
            y_v,
            mbrs,
        }
    }

    /// Number of polygons.
    #[inline]
    pub fn len(&self) -> usize {
        self.ply_v.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ply_v.is_empty()
    }

    /// Total flat-array slots (vertices + closures + sentinels).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.x_v.len()
    }

    /// Vertex index range `[start, end)` of polygon `k` — the kernel's
    /// `p_f` / `p_t`.
    #[inline]
    pub fn vertex_range(&self, k: usize) -> (usize, usize) {
        let start = if k == 0 {
            0
        } else {
            self.ply_v[k - 1] as usize
        };
        (start, self.ply_v[k] as usize)
    }

    /// Ray-crossing containment test for polygon `k`, transcribed from the
    /// paper's Fig. 5 kernel body (sentinel skip included).
    ///
    /// Returns the same answer as [`Polygon::contains`] for every point not
    /// exactly on a polygon boundary, and a deterministic half-open answer on
    /// boundaries.
    pub fn contains(&self, k: usize, p: Point) -> bool {
        let (p_f, p_t) = self.vertex_range(k);
        let mut inside = false;
        let mut j = p_f;
        // Loop over consecutive vertex pairs, exactly as the device code's
        // `for (int j = p_f; j < p_t - 1; j++)`.
        while j + 1 < p_t {
            let (x1, y1) = (self.x_v[j + 1], self.y_v[j + 1]);
            if x1 == RING_SENTINEL.x && y1 == RING_SENTINEL.y {
                // Sentinel: skip the edge into it and the edge out of it.
                j += 2;
                continue;
            }
            let (x0, y0) = (self.x_v[j], self.y_v[j]);
            if ((y0 <= p.y) != (y1 <= p.y)) && (p.x < (x1 - x0) * (p.y - y0) / (y1 - y0) + x0) {
                inside = !inside;
            }
            j += 1;
        }
        inside
    }

    /// The sorted x of every crossing of polygon `k`'s edges with the
    /// horizontal line at `y`, written into `out` (cleared first).
    ///
    /// Uses the sentinel skip, the half-open straddle test and the crossing
    /// expression of [`FlatPolygons::contains`], so for finite vertices
    /// `contains(k, (x, y))` holds iff an odd number of the returned values
    /// are `> x`: the toggles `contains` makes along its ray, computed once
    /// for every point of the line.
    pub fn row_crossings(&self, k: usize, y: f64, out: &mut Vec<f64>) {
        out.clear();
        let (p_f, p_t) = self.vertex_range(k);
        let mut j = p_f;
        while j + 1 < p_t {
            let (x1, y1) = (self.x_v[j + 1], self.y_v[j + 1]);
            if x1 == RING_SENTINEL.x && y1 == RING_SENTINEL.y {
                j += 2;
                continue;
            }
            let (x0, y0) = (self.x_v[j], self.y_v[j]);
            if (y0 <= y) != (y1 <= y) {
                out.push((x1 - x0) * (y - y0) / (y1 - y0) + x0);
            }
            j += 1;
        }
        out.sort_unstable_by(f64::total_cmp);
    }

    /// Number of edge tests [`FlatPolygons::contains`] performs for polygon
    /// `k` — the per-cell cost unit used by the device cost model.
    pub fn edge_count(&self, k: usize) -> usize {
        let (p_f, p_t) = self.vertex_range(k);
        (p_t - p_f).saturating_sub(1)
    }

    /// MBR of the whole layer.
    pub fn layer_mbr(&self) -> Mbr {
        self.mbrs.iter().fold(Mbr::EMPTY, |m, b| m.union(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Ring;

    fn probe_grid(m: &Mbr, n: usize) -> Vec<Point> {
        let mut pts = Vec::new();
        for i in 0..n {
            for j in 0..n {
                // Offset by irrational-ish fractions to avoid exact boundary hits.
                let fx = (i as f64 + 0.437) / n as f64;
                let fy = (j as f64 + 0.619) / n as f64;
                pts.push(Point::new(
                    m.min_x - 0.1 + (m.width() + 0.2) * fx,
                    m.min_y - 0.1 + (m.height() + 0.2) * fy,
                ));
            }
        }
        pts
    }

    #[test]
    fn single_polygon_roundtrip() {
        let poly = Polygon::rect(1.0, 1.0, 3.0, 2.0);
        let flat = FlatPolygons::from_polygons(std::slice::from_ref(&poly));
        assert_eq!(flat.len(), 1);
        for p in probe_grid(&poly.mbr(), 13) {
            assert_eq!(flat.contains(0, p), poly.contains(p), "disagree at {p:?}");
        }
    }

    #[test]
    fn multi_ring_roundtrip() {
        let poly = Polygon::new(vec![
            Ring::rect(1.0, 1.0, 9.0, 9.0),
            Ring::rect(3.0, 3.0, 5.0, 5.0),
            Ring::rect(6.0, 6.0, 8.0, 8.0),
        ]);
        let flat = FlatPolygons::from_polygons(std::slice::from_ref(&poly));
        for p in probe_grid(&poly.mbr(), 17) {
            assert_eq!(flat.contains(0, p), poly.contains(p), "disagree at {p:?}");
        }
    }

    #[test]
    fn multiple_polygons_ranges() {
        let polys = vec![
            Polygon::rect(1.0, 1.0, 2.0, 2.0),
            Polygon::new(vec![
                Ring::rect(5.0, 5.0, 8.0, 8.0),
                Ring::rect(6.0, 6.0, 7.0, 7.0),
            ]),
            Polygon::rect(10.0, 1.0, 12.0, 4.0),
        ];
        let flat = FlatPolygons::from_polygons(&polys);
        assert_eq!(flat.len(), 3);
        // Ranges must tile the slot array.
        let (s0, e0) = flat.vertex_range(0);
        let (s1, e1) = flat.vertex_range(1);
        let (s2, e2) = flat.vertex_range(2);
        assert_eq!(s0, 0);
        assert_eq!(e0, s1);
        assert_eq!(e1, s2);
        assert_eq!(e2, flat.slot_count());
        for (k, poly) in polys.iter().enumerate() {
            for p in probe_grid(&poly.mbr(), 9) {
                assert_eq!(flat.contains(k, p), poly.contains(p), "poly {k} at {p:?}");
            }
        }
    }

    #[test]
    fn sentinel_layout() {
        // Two rings of 4 vertices each: 5 closed + sentinel + 5 closed = 11 slots.
        let poly = Polygon::new(vec![
            Ring::rect(1.0, 1.0, 4.0, 4.0),
            Ring::rect(2.0, 2.0, 3.0, 3.0),
        ]);
        let flat = FlatPolygons::from_polygons(std::slice::from_ref(&poly));
        assert_eq!(flat.slot_count(), 11);
        assert_eq!(flat.x_v[5], RING_SENTINEL.x);
        assert_eq!(flat.y_v[5], RING_SENTINEL.y);
    }

    #[test]
    fn edge_count_counts_slots() {
        let poly = Polygon::rect(1.0, 1.0, 2.0, 2.0);
        let flat = FlatPolygons::from_polygons(std::slice::from_ref(&poly));
        // 4 vertices + closure = 5 slots => 4 edge tests.
        assert_eq!(flat.edge_count(0), 4);
    }

    #[test]
    fn row_crossings_of_rect_with_hole() {
        let poly = Polygon::new(vec![
            Ring::rect(1.0, 1.0, 9.0, 9.0),
            Ring::rect(3.0, 3.0, 5.0, 5.0),
        ]);
        let flat = FlatPolygons::from_polygons(std::slice::from_ref(&poly));
        let mut xs = vec![42.0];
        flat.row_crossings(0, 4.0, &mut xs);
        assert_eq!(xs, [1.0, 3.0, 5.0, 9.0]);
        flat.row_crossings(0, 2.0, &mut xs);
        assert_eq!(xs, [1.0, 9.0]);
        // Half-open: the bottom edge's row crosses, the top edge's does not.
        flat.row_crossings(0, 1.0, &mut xs);
        assert_eq!(xs, [1.0, 9.0]);
        flat.row_crossings(0, 9.0, &mut xs);
        assert!(xs.is_empty());
        for x in [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0, 9.5] {
            flat.row_crossings(0, 4.0, &mut xs);
            let odd = xs.iter().filter(|&&c| c > x).count() % 2 == 1;
            assert_eq!(odd, flat.contains(0, Point::new(x, 4.0)), "x = {x}");
        }
    }

    #[test]
    fn mbrs_preserved() {
        let polys = vec![
            Polygon::rect(1.0, 1.0, 2.0, 2.0),
            Polygon::rect(5.0, 3.0, 9.0, 4.0),
        ];
        let flat = FlatPolygons::from_polygons(&polys);
        assert_eq!(flat.mbrs[1], Mbr::new(5.0, 3.0, 9.0, 4.0));
        assert_eq!(flat.layer_mbr(), Mbr::new(1.0, 1.0, 9.0, 4.0));
    }

    #[test]
    fn empty_layer() {
        let flat = FlatPolygons::from_polygons(&[]);
        assert!(flat.is_empty());
        assert_eq!(flat.slot_count(), 0);
        assert!(flat.layer_mbr().is_empty());
    }
}
