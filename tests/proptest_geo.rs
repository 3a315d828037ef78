//! Property tests for the geometry substrate.

use proptest::prelude::*;
use zonal_histo::geo::{
    classify_box, point_in_ring, CountyConfig, FlatPolygons, Mbr, Point, Polygon, Ring,
    TileRelation,
};

/// Star-shaped polygon from random radii: always simple (non-self-
/// intersecting), arbitrary vertex count, concave in general.
fn star_polygon(cx: f64, cy: f64, radii: &[f64]) -> Polygon {
    let n = radii.len();
    let pts = radii
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let t = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            Point::new(cx + r * t.cos(), cy + r * t.sin())
        })
        .collect();
    Polygon::from_ring(Ring::new(pts))
}

/// Staircase polygon: `n` steps of width `w` and height `h` climbing
/// leftward from `(x0, y0)`, so half its edges are horizontal.
fn staircase(x0: f64, y0: f64, w: f64, h: f64, n: usize) -> Polygon {
    let mut pts = vec![Point::new(x0, y0), Point::new(x0 + n as f64 * w, y0)];
    for i in 0..n {
        let y = y0 + (i + 1) as f64 * h;
        pts.push(Point::new(x0 + (n - i) as f64 * w, y));
        pts.push(Point::new(x0 + (n - i - 1) as f64 * w, y));
    }
    Polygon::from_ring(Ring::new(pts))
}

fn radii_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.2f64..3.0, 3..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_contains_matches_object_contains(
        radii in radii_strategy(),
        probes in prop::collection::vec((-4.0f64..4.0, -4.0f64..4.0), 32),
    ) {
        let poly = star_polygon(10.0, 10.0, &radii);
        let flat = FlatPolygons::from_polygons(std::slice::from_ref(&poly));
        for (dx, dy) in probes {
            let p = Point::new(10.0 + dx, 10.0 + dy);
            prop_assert_eq!(flat.contains(0, p), poly.contains(p), "at {:?}", p);
        }
    }

    #[test]
    fn flat_contains_matches_for_multi_ring(
        outer in radii_strategy(),
        probes in prop::collection::vec((-4.0f64..4.0, -4.0f64..4.0), 24),
    ) {
        // Outer star + a hole star scaled to 30% (strictly inside since
        // min radius ratio holds pointwise on the same angles).
        let n = outer.len();
        let hole: Vec<f64> = outer.iter().map(|r| r * 0.3).collect();
        let mk = |radii: &[f64]| {
            Ring::new(
                radii
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| {
                        let t = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                        Point::new(10.0 + r * t.cos(), 10.0 + r * t.sin())
                    })
                    .collect(),
            )
        };
        let poly = Polygon::new(vec![mk(&outer), mk(&hole)]);
        let flat = FlatPolygons::from_polygons(std::slice::from_ref(&poly));
        for (dx, dy) in probes {
            let p = Point::new(10.0 + dx, 10.0 + dy);
            prop_assert_eq!(flat.contains(0, p), poly.contains(p), "at {:?}", p);
        }
    }

    /// `row_crossings` is `contains` computed once per line: the parity of
    /// the crossings right of x decides containment. Probed on a star with
    /// a hole (ring sentinels) and a staircase (horizontal edges), at random
    /// rows, at every vertex y, and at x exactly on each crossing and
    /// vertex.
    #[test]
    fn row_crossings_parity_matches_contains(
        outer in radii_strategy(),
        hole_scale in 0.1f64..0.9,
        w in 0.05f64..1.5,
        h in 0.05f64..1.5,
        steps in 1usize..6,
        probes in prop::collection::vec((-4.0f64..4.0, -4.0f64..4.0), 12),
    ) {
        let n = outer.len();
        let ring = |scale: f64| {
            Ring::new(
                outer
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| {
                        let t = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                        Point::new(10.0 + scale * r * t.cos(), 10.0 + scale * r * t.sin())
                    })
                    .collect(),
            )
        };
        let polys = [
            Polygon::new(vec![ring(1.0), ring(hole_scale)]),
            staircase(10.0 - 2.0, 10.0 - 2.0, w, h, steps),
        ];
        let flat = FlatPolygons::from_polygons(&polys);
        let mut xs = Vec::new();
        for k in 0..polys.len() {
            let (start, end) = flat.vertex_range(k);
            let vertices: Vec<(f64, f64)> = (start..end)
                .map(|j| (flat.x_v[j], flat.y_v[j]))
                .filter(|v| v.0.is_finite())
                .collect();
            let rows = probes.iter().map(|p| 10.0 + p.1).chain(vertices.iter().map(|v| v.1));
            for y in rows {
                flat.row_crossings(k, y, &mut xs);
                prop_assert!(xs.windows(2).all(|p| p[0] <= p[1]), "unsorted {:?}", xs);
                prop_assert_eq!(xs.len() % 2, 0, "odd crossing count at y = {}", y);
                let columns: Vec<f64> = probes
                    .iter()
                    .map(|p| 10.0 + p.0)
                    .chain(xs.iter().copied())
                    .chain(vertices.iter().map(|v| v.0))
                    .collect();
                for x in columns {
                    let odd = xs.iter().filter(|&&c| c > x).count() % 2 == 1;
                    prop_assert_eq!(odd, flat.contains(k, Point::new(x, y)), "poly {} at ({}, {})", k, x, y);
                }
            }
        }
    }

    #[test]
    fn ring_orientation_does_not_change_containment(
        radii in radii_strategy(),
        px in -4.0f64..4.0,
        py in -4.0f64..4.0,
    ) {
        let poly = star_polygon(0.0, 0.0, &radii);
        let mut rev = poly.rings()[0].clone();
        rev.reverse();
        let p = Point::new(px, py);
        prop_assert_eq!(point_in_ring(p, &poly.rings()[0]), point_in_ring(p, &rev));
    }

    #[test]
    fn classify_box_consistent_with_center_samples(
        radii in radii_strategy(),
        bx in -3.5f64..3.5,
        by in -3.5f64..3.5,
        side in 0.1f64..2.0,
    ) {
        let poly = star_polygon(0.0, 0.0, &radii);
        let tile = Mbr::new(bx, by, bx + side, by + side);
        let rel = classify_box(&poly, &tile);
        // Sample a grid of interior points: Inside ⇒ all in; Outside ⇒ all out.
        for i in 0..5 {
            for j in 0..5 {
                let p = Point::new(
                    tile.min_x + side * (i as f64 + 0.5) / 5.0,
                    tile.min_y + side * (j as f64 + 0.5) / 5.0,
                );
                match rel {
                    TileRelation::Inside => prop_assert!(poly.contains(p), "Inside tile has outside point {:?}", p),
                    TileRelation::Outside => prop_assert!(!poly.contains(p), "Outside tile has inside point {:?}", p),
                    TileRelation::Intersect => {}
                }
            }
        }
    }

    #[test]
    fn mbr_union_contains_both(
        a in (-10.0f64..10.0, -10.0f64..10.0, 0.1f64..5.0, 0.1f64..5.0),
        b in (-10.0f64..10.0, -10.0f64..10.0, 0.1f64..5.0, 0.1f64..5.0),
    ) {
        let ma = Mbr::new(a.0, a.1, a.0 + a.2, a.1 + a.3);
        let mb = Mbr::new(b.0, b.1, b.0 + b.2, b.1 + b.3);
        let u = ma.union(&mb);
        prop_assert!(u.contains(&ma));
        prop_assert!(u.contains(&mb));
        let i = ma.intersection(&mb);
        if !i.is_empty() {
            prop_assert!(ma.contains(&i));
            prop_assert!(mb.contains(&i));
            prop_assert!(ma.intersects(&mb));
        }
    }

    #[test]
    fn polygon_area_within_mbr_area(radii in radii_strategy()) {
        let poly = star_polygon(0.0, 0.0, &radii);
        let mbr = poly.mbr();
        prop_assert!(poly.area() <= mbr.area() + 1e-9);
        prop_assert!(poly.area() > 0.0);
    }

    #[test]
    fn shared_edge_exclusivity(
        split in -0.8f64..0.8,
        px in -0.99f64..0.99,
        py in -0.99f64..0.99,
    ) {
        // Two rectangles sharing the vertical edge x = split partition
        // [-1,1]²: every interior point belongs to exactly one.
        let left = Polygon::rect(-1.0, -1.0, split, 1.0);
        let right = Polygon::rect(split, -1.0, 1.0, 1.0);
        let p = Point::new(px, py);
        let owners = usize::from(left.contains(p)) + usize::from(right.contains(p));
        prop_assert_eq!(owners, 1, "point {:?} split {}", p, split);
    }
}

fn fnv1a_words(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(h, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    })
}

/// `(polygons, vertices, layer digest, flat-layout digest)`. The layer
/// digest covers each polygon's name, ring count, ring lengths and every
/// vertex's coordinate bits; the flat digest covers `ply_v`, `x_v` and `y_v`.
fn county_layer_digest(seed: u64) -> (usize, usize, u64, u64) {
    let layer = CountyConfig::us_like(seed).generate();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (name, poly) in layer.iter() {
        h = fnv1a_words(h, name.bytes().map(u64::from));
        h = fnv1a_words(h, [poly.rings().len() as u64]);
        for ring in poly.rings() {
            h = fnv1a_words(h, [ring.len() as u64]);
            h = fnv1a_words(
                h,
                ring.points()
                    .iter()
                    .flat_map(|p| [p.x.to_bits(), p.y.to_bits()]),
            );
        }
    }
    let flat = layer.to_flat();
    let mut f = fnv1a_words(0xcbf2_9ce4_8422_2325, flat.ply_v.iter().map(|&v| v as u64));
    f = fnv1a_words(f, flat.x_v.iter().map(|x| x.to_bits()));
    f = fnv1a_words(f, flat.y_v.iter().map(|y| y.to_bits()));
    (layer.len(), layer.total_vertices(), h, f)
}

/// The county layer is every workload's zone input: pin its geometry, ring
/// structure, names and flat layout bit for bit.
#[test]
fn county_layer_golden() {
    assert_eq!(
        county_layer_digest(1),
        (
            3100,
            87752,
            3_102_909_090_440_313_365,
            16_038_129_197_295_580_238
        )
    );
    assert_eq!(
        county_layer_digest(20140519),
        (
            3100,
            87880,
            5_541_606_525_861_505_032,
            8_649_334_151_361_223_142
        )
    );
}
