//! Point-in-polygon tests.
//!
//! The workhorse is Franklin's ray-crossing test, the exact algorithm the
//! paper's Step 4 GPU kernel runs per raster cell (Fig. 5): shoot a ray in
//! the +x direction and count boundary crossings; odd means inside. The
//! half-open vertex rule `(y0 <= py) != (y1 <= py)` makes the test
//! consistent at vertices and shared edges — a point is counted for exactly
//! one of two polygons sharing an edge, which is what makes histogram counts
//! over a tessellation partition the cells exactly (no double counting, no
//! gaps). A winding-number implementation is provided as an independent
//! reference for tests.

use crate::point::Point;
use crate::ring::Ring;

/// Whether the +x ray from `p` crosses edge `a → b` under the half-open
/// vertex rule: one step of [`point_in_ring`].
#[inline]
pub(crate) fn crosses_ray(p: Point, a: Point, b: Point) -> bool {
    ((a.y <= p.y) != (b.y <= p.y)) && (p.x < (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x)
}

/// Ray-crossing test against a single ring (Franklin's algorithm).
///
/// Boundary semantics are the half-open rule: edges on the "lower" side of
/// the point count, so points exactly on shared boundaries belong to exactly
/// one of the adjacent polygons.
pub fn point_in_ring(p: Point, ring: &Ring) -> bool {
    let pts = ring.points();
    let n = pts.len();
    if n < 3 {
        return false;
    }
    let mut inside = false;
    let mut j = n - 1;
    for i in 0..n {
        if crosses_ray(p, pts[j], pts[i]) {
            inside = !inside;
        }
        j = i;
    }
    inside
}

/// Ray-crossing parity over all rings: inside an odd number of rings means
/// inside the polygon. Matches [`crate::flat::FlatPolygons::contains`].
pub fn point_in_polygon(p: Point, rings: &[Ring]) -> bool {
    let mut inside = false;
    for ring in rings {
        if point_in_ring(p, ring) {
            inside = !inside;
        }
    }
    inside
}

/// Winding-number test against a single ring. Independent of the crossing
/// test; used as a cross-check oracle in property tests. Nonzero winding
/// means inside. Only meaningful for points not exactly on the boundary.
pub fn winding_number(p: Point, ring: &Ring) -> i32 {
    let pts = ring.points();
    let n = pts.len();
    if n < 3 {
        return 0;
    }
    let mut wn = 0i32;
    let mut j = n - 1;
    for i in 0..n {
        let (a, b) = (pts[j], pts[i]);
        if a.y <= p.y {
            if b.y > p.y && crate::point::orient2d(a, b, p) > 0.0 {
                wn += 1;
            }
        } else if b.y <= p.y && crate::point::orient2d(a, b, p) < 0.0 {
            wn -= 1;
        }
        j = i;
    }
    wn
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_basic() {
        let r = Ring::rect(0.0, 0.0, 2.0, 2.0);
        assert!(point_in_ring(Point::new(1.0, 1.0), &r));
        assert!(!point_in_ring(Point::new(3.0, 1.0), &r));
        assert!(!point_in_ring(Point::new(1.0, -0.5), &r));
    }

    #[test]
    fn triangle() {
        let t = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 4.0),
        ]);
        assert!(point_in_ring(Point::new(1.0, 1.0), &t));
        assert!(!point_in_ring(Point::new(3.0, 3.0), &t));
    }

    #[test]
    fn orientation_agnostic() {
        let mut r = Ring::rect(0.0, 0.0, 2.0, 2.0);
        let p = Point::new(0.5, 1.5);
        assert!(point_in_ring(p, &r));
        r.reverse();
        assert!(
            point_in_ring(p, &r),
            "crossing parity ignores winding direction"
        );
    }

    #[test]
    fn shared_edge_counted_once() {
        // Two unit squares sharing the x=1 edge: a point on the shared edge
        // must be inside exactly one of them.
        let left = Ring::rect(0.0, 0.0, 1.0, 1.0);
        let right = Ring::rect(1.0, 0.0, 2.0, 1.0);
        let p = Point::new(1.0, 0.5);
        let in_left = point_in_ring(p, &left);
        let in_right = point_in_ring(p, &right);
        assert!(
            in_left ^ in_right,
            "boundary point must belong to exactly one square"
        );
    }

    #[test]
    fn shared_horizontal_edge_counted_once() {
        let bottom = Ring::rect(0.0, 0.0, 1.0, 1.0);
        let top = Ring::rect(0.0, 1.0, 1.0, 2.0);
        let p = Point::new(0.5, 1.0);
        assert!(
            point_in_ring(p, &bottom) ^ point_in_ring(p, &top),
            "horizontal shared edge must belong to exactly one square"
        );
    }

    #[test]
    fn vertex_point_consistency() {
        // The corner (1,1) shared by four unit squares must be inside exactly one.
        let squares = [
            Ring::rect(0.0, 0.0, 1.0, 1.0),
            Ring::rect(1.0, 0.0, 2.0, 1.0),
            Ring::rect(0.0, 1.0, 1.0, 2.0),
            Ring::rect(1.0, 1.0, 2.0, 2.0),
        ];
        let p = Point::new(1.0, 1.0);
        let count = squares.iter().filter(|r| point_in_ring(p, r)).count();
        assert_eq!(count, 1, "grid corner must belong to exactly one cell");
    }

    #[test]
    fn concave_polygon() {
        // A "C" shape: inside the notch is outside the polygon.
        let c = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(3.0, 2.0),
            Point::new(3.0, 3.0),
            Point::new(0.0, 3.0),
        ]);
        assert!(point_in_ring(Point::new(0.5, 1.5), &c), "in the spine");
        assert!(!point_in_ring(Point::new(2.0, 1.5), &c), "in the notch");
        assert!(point_in_ring(Point::new(2.0, 0.5), &c), "in the lower arm");
    }

    #[test]
    fn parity_with_hole() {
        let rings = vec![
            Ring::rect(0.0, 0.0, 4.0, 4.0),
            Ring::rect(1.0, 1.0, 3.0, 3.0),
        ];
        assert!(point_in_polygon(Point::new(0.5, 0.5), &rings));
        assert!(!point_in_polygon(Point::new(2.0, 2.0), &rings));
        assert!(!point_in_polygon(Point::new(5.0, 5.0), &rings));
    }

    #[test]
    fn winding_agrees_on_interior_points() {
        let c = Ring::circle(Point::new(0.0, 0.0), 1.0, 17);
        for (x, y) in [
            (0.0, 0.0),
            (0.5, 0.3),
            (-0.4, -0.6),
            (1.5, 0.0),
            (0.0, -1.2),
        ] {
            let p = Point::new(x, y);
            assert_eq!(
                point_in_ring(p, &c),
                winding_number(p, &c) != 0,
                "crossing and winding must agree at ({x},{y})"
            );
        }
    }

    #[test]
    fn degenerate_ring_is_outside() {
        let r = Ring::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
        assert!(!point_in_ring(Point::new(0.5, 0.5), &r));
        assert_eq!(winding_number(Point::new(0.5, 0.5), &r), 0);
    }
}
