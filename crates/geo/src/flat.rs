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
        out.extend(self.edges(k).filter_map(|e| crossing(e, y)));
        out.sort_unstable_by(f64::total_cmp);
    }

    /// Polygon `k`'s edges as `[x0, y0, x1, y1]`, in vertex order, with
    /// the sentinel skip of [`FlatPolygons::contains`]: the edge into a
    /// sentinel and the edge out of it are not edges.
    fn edges(&self, k: usize) -> impl Iterator<Item = [f64; 4]> + '_ {
        let (p_f, p_t) = self.vertex_range(k);
        let mut j = p_f;
        std::iter::from_fn(move || {
            while j + 1 < p_t {
                let (x1, y1) = (self.x_v[j + 1], self.y_v[j + 1]);
                if x1 == RING_SENTINEL.x && y1 == RING_SENTINEL.y {
                    j += 2;
                    continue;
                }
                let edge = [self.x_v[j], self.y_v[j], x1, y1];
                j += 1;
                return Some(edge);
            }
            None
        })
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

/// The x where edge `[x0, y0, x1, y1]` crosses the line at `y`, if it
/// straddles it: the half-open test and the crossing expression of
/// [`FlatPolygons::contains`].
#[inline]
fn crossing([x0, y0, x1, y1]: [f64; 4], y: f64) -> Option<f64> {
    ((y0 <= y) != (y1 <= y)).then(|| (x1 - x0) * (y - y0) / (y1 - y0) + x0)
}

/// One polygon's edges that can cross a horizontal band of lines: the
/// lines with `y` in `[y_lo, y_hi]`.
///
/// A raster row band (the center rows of one tile row) asks for the
/// crossings of every one of its lines. Gathering the edges that can
/// straddle any of them once, [`FlatBand::row_crossings`] then tests only
/// those, and returns exactly what [`FlatPolygons::row_crossings`] returns
/// for every `y` in the band: an edge straddles `y` iff
/// `min(y0, y1) <= y < max(y0, y1)`, which for some `y` in the band needs
/// `min(y0, y1) <= y_hi && max(y0, y1) > y_lo`.
///
/// ```
/// use zonal_geo::{FlatBand, FlatPolygons, Polygon, Ring};
///
/// let flat = FlatPolygons::from_polygons(&[Polygon::new(vec![
///     Ring::rect(0.0, 0.0, 9.0, 9.0),
///     Ring::rect(3.0, 6.0, 5.0, 8.0),
/// ])]);
/// let mut band = FlatBand::default();
/// band.fill(&flat, 0, 1.5, 2.5);
/// assert_eq!(band.len(), 2); // the hole's edges cannot reach the band
/// let (mut xs, mut want) = (Vec::new(), Vec::new());
/// band.row_crossings(2.0, &mut xs);
/// flat.row_crossings(0, 2.0, &mut want);
/// assert_eq!(xs, want);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlatBand {
    edges: Vec<[f64; 4]>,
}

impl FlatBand {
    /// Gather polygon `k`'s edges that can straddle a line with `y` in
    /// `[y_lo, y_hi]`, replacing the previous band.
    pub fn fill(&mut self, flat: &FlatPolygons, k: usize, y_lo: f64, y_hi: f64) {
        self.edges.clear();
        self.edges.extend(
            flat.edges(k)
                .filter(|&[_, y0, _, y1]| y0.min(y1) <= y_hi && y0.max(y1) > y_lo),
        );
    }

    /// Number of gathered edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// [`FlatPolygons::row_crossings`] for a line of the band, bit for bit:
    /// the same edges straddle it, each gives the same crossing x, and the
    /// values are sorted the same way.
    pub fn row_crossings(&self, y: f64, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.edges.iter().filter_map(|&e| crossing(e, y)));
        out.sort_unstable_by(f64::total_cmp);
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
    fn band_crossings_equal_row_crossings_bit_for_bit() {
        let layer = crate::CountyConfig::small(7).generate();
        let flat = layer.to_flat();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut unit = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let (mut band, mut got, mut want) = (FlatBand::default(), Vec::new(), Vec::new());
        let mut crossings = 0;
        for k in 0..flat.len() {
            let m = flat.mbrs[k];
            let (p_f, _) = flat.vertex_range(k);
            for trial in 0..8 {
                // Band ends at random heights over the MBR, or exactly on
                // vertex rows, where the half-open test decides.
                let (y_lo, y_hi) = if trial < 4 {
                    let a = m.min_y - 0.1 + (m.height() + 0.2) * unit();
                    (a, a + m.height() * 0.3 * unit())
                } else {
                    (flat.y_v[p_f + trial], flat.y_v[p_f + trial + 1])
                };
                let (y_lo, y_hi) = (y_lo.min(y_hi), y_lo.max(y_hi));
                band.fill(&flat, k, y_lo, y_hi);
                assert!(band.len() <= flat.edge_count(k));
                for i in 0..=16 {
                    let y = match i {
                        0 => y_lo,
                        16 => y_hi,
                        _ => y_lo + (y_hi - y_lo) * unit(),
                    };
                    band.row_crossings(y, &mut got);
                    flat.row_crossings(k, y, &mut want);
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "polygon {k}, y = {y}");
                    crossings += got.len();
                }
            }
        }
        assert!(
            crossings > 1000,
            "the bands must cross the layer: {crossings}"
        );
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
