//! Synthetic "US county" layer generator.
//!
//! The paper evaluates against the US county boundary layer: ~3,100
//! space-filling polygons with 87,097 vertices in total, including
//! multi-ring polygons. That dataset is not redistributable here, so this
//! module generates a stand-in with the same statistical structure:
//!
//! * a **space-filling tessellation** of a CONUS-like extent — every interior
//!   point belongs to exactly one polygon, so per-tile work in the pipeline
//!   has the same inside/boundary mix as a real administrative layer;
//! * **wiggly shared boundaries** — each grid edge is subdivided and
//!   jittered deterministically from the edge's identity, so the two
//!   adjacent polygons reference bit-identical boundary vertices and the
//!   tessellation is exact (no slivers, no overlaps);
//! * **multi-ring polygons** — a configurable fraction of zones get a hole
//!   ("lake", counted in no zone) and some holes get an island ring inside
//!   them (three-deep ring nesting, exercising the parity rule and the
//!   `(0,0)` sentinel encoding);
//! * a **vertex budget** — edge subdivision is chosen to hit a target total
//!   vertex count (default 87,097, the paper's figure).
//!
//! Generation is a pure function of the seed: the same `CountyConfig`
//! produces a bit-identical layer on every run and platform.

use crate::dataset::PolygonLayer;
use crate::mbr::Mbr;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::ring::Ring;
use serde::{Deserialize, Serialize};

/// The CONUS bounding box used throughout the reproduction
/// (longitude −125°..−66°, latitude 24°..50°).
pub fn conus_extent() -> Mbr {
    Mbr::new(-125.0, 24.0, -66.0, 50.0)
}

/// Configuration for the synthetic county tessellation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CountyConfig {
    /// Extent the tessellation fills exactly.
    pub extent: Mbr,
    /// Number of zone columns.
    pub nx: usize,
    /// Number of zone rows.
    pub ny: usize,
    /// Interior vertices inserted on each shared grid edge.
    pub edge_subdiv: usize,
    /// Corner jitter as a fraction of cell size (clamped to 0.25).
    pub jitter: f64,
    /// Fraction of zones that receive a hole ring.
    pub hole_fraction: f64,
    /// Fraction of holed zones that also receive an island inside the hole.
    pub island_fraction: f64,
    /// RNG seed; the layer is a pure function of the full config.
    pub seed: u64,
}

impl CountyConfig {
    /// A layer mimicking the paper's county dataset: ~3,100 zones over the
    /// CONUS extent with ≈87,097 total vertices and a few percent multi-ring
    /// polygons.
    pub fn us_like(seed: u64) -> Self {
        CountyConfig {
            extent: conus_extent(),
            nx: 62,
            ny: 50,
            edge_subdiv: 6,
            jitter: 0.22,
            hole_fraction: 0.03,
            island_fraction: 0.4,
            seed,
        }
    }

    /// A small layer for unit tests and quick examples.
    pub fn small(seed: u64) -> Self {
        CountyConfig {
            extent: Mbr::new(0.0, 0.0, 8.0, 6.0),
            nx: 8,
            ny: 6,
            edge_subdiv: 3,
            jitter: 0.2,
            hole_fraction: 0.1,
            island_fraction: 0.5,
            seed,
        }
    }

    /// Pick `edge_subdiv` so the generated layer's total vertex count lands
    /// near `budget` (ring-closure slots excluded, matching how the paper
    /// counts "87,097 vertices").
    pub fn with_vertex_budget(mut self, budget: usize) -> Self {
        let cells = (self.nx * self.ny).max(1);
        // Each cell ring has 4 corners + 4 * subdiv interior vertices.
        let per_cell = (budget as f64 / cells as f64).max(4.0);
        self.edge_subdiv = (((per_cell - 4.0) / 4.0).round().max(0.0)) as usize;
        self
    }

    /// Number of zones the config will generate.
    pub fn zone_count(&self) -> usize {
        self.nx * self.ny
    }

    /// Generate the layer.
    pub fn generate(&self) -> PolygonLayer {
        generate(self)
    }
}

/// Summary statistics of a generated layer, mirroring what the paper reports
/// about the county dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountyLayerStats {
    pub n_polygons: usize,
    pub total_vertices: usize,
    pub n_multi_ring: usize,
    pub mbr: Mbr,
}

impl CountyLayerStats {
    pub fn of(layer: &PolygonLayer) -> Self {
        CountyLayerStats {
            n_polygons: layer.len(),
            total_vertices: layer.total_vertices(),
            n_multi_ring: layer.multi_ring_count(),
            mbr: layer.mbr(),
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic hashing: every geometric choice is a pure function of
// (seed, feature identity), so shared features hash identically from both
// sides and the layer is reproducible without any RNG state threading.
// ---------------------------------------------------------------------------

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn hash3(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    splitmix64(seed ^ splitmix64(tag ^ splitmix64(a ^ splitmix64(b))))
}

/// Uniform in [0, 1).
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform in [-1, 1).
#[inline]
fn sym(h: u64) -> f64 {
    unit(h) * 2.0 - 1.0
}

const TAG_CORNER_X: u64 = 1;
const TAG_CORNER_Y: u64 = 2;
const TAG_EDGE_H: u64 = 3;
const TAG_EDGE_V: u64 = 4;
const TAG_HOLE: u64 = 5;
const TAG_ISLAND: u64 = 6;
const TAG_HOLE_GEO: u64 = 7;

struct Tessellator<'a> {
    cfg: &'a CountyConfig,
    dx: f64,
    dy: f64,
    jitter: f64,
    /// Jittered grid corners, `(nx + 1) × (ny + 1)`, row-major in `j`.
    corners: Vec<Point>,
    /// Interior points of horizontal edge `(i, j)`, `edge_subdiv` per edge
    /// in canonical order, for `nx × (ny + 1)` edges, row-major in `j`.
    h_edges: Vec<Point>,
    /// Interior points of vertical edge `(i, j)`, as `h_edges`, for
    /// `(nx + 1) × ny` edges.
    v_edges: Vec<Point>,
}

impl<'a> Tessellator<'a> {
    /// Compute every corner and every shared edge once; cells then read
    /// both sides of an edge from the same table entry.
    fn new(cfg: &'a CountyConfig) -> Self {
        assert!(
            cfg.nx >= 1 && cfg.ny >= 1,
            "tessellation needs at least one cell"
        );
        assert!(!cfg.extent.is_empty(), "extent must be non-empty");
        let (nx, ny, s) = (cfg.nx, cfg.ny, cfg.edge_subdiv);
        let mut t = Tessellator {
            cfg,
            dx: cfg.extent.width() / nx as f64,
            dy: cfg.extent.height() / ny as f64,
            jitter: cfg.jitter.clamp(0.0, 0.25),
            corners: Vec::new(),
            h_edges: Vec::new(),
            v_edges: Vec::new(),
        };
        t.corners = (0..=ny)
            .flat_map(|j| (0..=nx).map(move |i| (i, j)))
            .map(|(i, j)| t.jittered_corner(i, j))
            .collect();
        let mut h_edges = Vec::with_capacity(nx * (ny + 1) * s);
        for j in 0..=ny {
            for i in 0..nx {
                let (a, b) = (t.corner(i, j), t.corner(i + 1, j));
                h_edges.extend(t.edge_points(TAG_EDGE_H, i, j, a, b, j == 0 || j == ny));
            }
        }
        let mut v_edges = Vec::with_capacity((nx + 1) * ny * s);
        for j in 0..ny {
            for i in 0..=nx {
                let (a, b) = (t.corner(i, j), t.corner(i, j + 1));
                v_edges.extend(t.edge_points(TAG_EDGE_V, i, j, a, b, i == 0 || i == nx));
            }
        }
        t.h_edges = h_edges;
        t.v_edges = v_edges;
        t
    }

    /// Jittered grid corner (i, j); extent-boundary corners are pinned in
    /// the boundary-normal direction so the tessellation fills the extent
    /// exactly.
    fn jittered_corner(&self, i: usize, j: usize) -> Point {
        let c = self.cfg;
        let base_x = c.extent.min_x + i as f64 * self.dx;
        let base_y = c.extent.min_y + j as f64 * self.dy;
        let jx = if i == 0 || i == c.nx {
            0.0
        } else {
            sym(hash3(c.seed, TAG_CORNER_X, i as u64, j as u64)) * self.jitter * self.dx
        };
        let jy = if j == 0 || j == c.ny {
            0.0
        } else {
            sym(hash3(c.seed, TAG_CORNER_Y, i as u64, j as u64)) * self.jitter * self.dy
        };
        Point::new(base_x + jx, base_y + jy)
    }

    fn corner(&self, i: usize, j: usize) -> Point {
        self.corners[j * (self.cfg.nx + 1) + i]
    }

    /// Interior vertices of a shared edge, in canonical direction
    /// (`a` → `b`). The perpendicular wiggle amplitude is bounded well below
    /// the sub-segment length, which keeps cells simple (non-self-
    /// intersecting) for any jitter ≤ 0.3.
    fn edge_points(
        &self,
        tag: u64,
        ei: usize,
        ej: usize,
        a: Point,
        b: Point,
        boundary: bool,
    ) -> impl Iterator<Item = Point> + '_ {
        let s = self.cfg.edge_subdiv;
        let d = b - a;
        let len = a.dist(b);
        // Perpendicular unit vector (rotate left).
        let perp = Point::new(-d.y / len, d.x / len);
        let amp = if boundary {
            0.0
        } else {
            0.35 * len / (s as f64 + 1.0)
        };
        (1..=s).map(move |t| {
            if len == 0.0 {
                return a;
            }
            let h = hash3(self.cfg.seed, tag, (ei as u64) << 32 | ej as u64, t as u64);
            let along = t as f64 / (s as f64 + 1.0);
            a.lerp(b, along) + perp * (sym(h) * amp)
        })
    }

    /// Horizontal edge from corner (i, j) to corner (i+1, j).
    fn h_edge(&self, i: usize, j: usize) -> &[Point] {
        let s = self.cfg.edge_subdiv;
        let k = (j * self.cfg.nx + i) * s;
        &self.h_edges[k..k + s]
    }

    /// Vertical edge from corner (i, j) to corner (i, j+1).
    fn v_edge(&self, i: usize, j: usize) -> &[Point] {
        let s = self.cfg.edge_subdiv;
        let k = (j * (self.cfg.nx + 1) + i) * s;
        &self.v_edges[k..k + s]
    }

    /// Outer ring of cell (ci, cj), counter-clockwise.
    fn cell_ring(&self, ci: usize, cj: usize) -> Ring {
        let mut pts = Vec::with_capacity(4 * (1 + self.cfg.edge_subdiv));
        // Bottom: corner(ci,cj) .. corner(ci+1,cj), canonical order.
        pts.push(self.corner(ci, cj));
        pts.extend_from_slice(self.h_edge(ci, cj));
        // Right: corner(ci+1,cj) .. corner(ci+1,cj+1), canonical order.
        pts.push(self.corner(ci + 1, cj));
        pts.extend_from_slice(self.v_edge(ci + 1, cj));
        // Top: corner(ci+1,cj+1) .. corner(ci,cj+1): canonical is left→right,
        // so traverse the shared list reversed.
        pts.push(self.corner(ci + 1, cj + 1));
        pts.extend(self.h_edge(ci, cj + 1).iter().rev());
        // Left: corner(ci,cj+1) .. corner(ci,cj): canonical is bottom→top,
        // reversed here.
        pts.push(self.corner(ci, cj + 1));
        pts.extend(self.v_edge(ci, cj).iter().rev());
        Ring::new(pts)
    }

    /// Optional hole (and island-in-hole) rings for cell (ci, cj).
    ///
    /// The hole is a small octagon near the cell center. With corner jitter
    /// clamped to 0.25 and edge wiggle bounded by 0.35·len/(subdiv+1), the
    /// cell boundary never wanders closer than ~0.13 cells to the cell
    /// center, so a hole of half-extent ≤ 0.12 cells (radius ≤ 0.09 plus
    /// offset ≤ 0.03) is always strictly inside the cell.
    fn cell_extra_rings(&self, ci: usize, cj: usize) -> Vec<Ring> {
        let c = self.cfg;
        let id = (ci as u64) << 32 | cj as u64;
        if unit(hash3(c.seed, TAG_HOLE, id, 0)) >= c.hole_fraction {
            return Vec::new();
        }
        let center = Point::new(
            c.extent.min_x + (ci as f64 + 0.5) * self.dx,
            c.extent.min_y + (cj as f64 + 0.5) * self.dy,
        );
        // Deterministic hole geometry: radius 0.04–0.09 cells, slight offset.
        let hr = 0.04 + 0.05 * unit(hash3(c.seed, TAG_HOLE_GEO, id, 1));
        let off = Point::new(
            sym(hash3(c.seed, TAG_HOLE_GEO, id, 2)) * 0.03 * self.dx,
            sym(hash3(c.seed, TAG_HOLE_GEO, id, 3)) * 0.03 * self.dy,
        );
        let hole_c = center + off;
        let radius = hr * self.dx.min(self.dy);
        let mut rings = vec![Ring::circle(hole_c, radius, 8)];
        if unit(hash3(c.seed, TAG_ISLAND, id, 0)) < c.island_fraction {
            rings.push(Ring::circle(hole_c, radius * 0.45, 8));
        }
        rings
    }
}

/// Generate the tessellated layer for `cfg`.
pub fn generate(cfg: &CountyConfig) -> PolygonLayer {
    let tess = Tessellator::new(cfg);
    let mut layer = PolygonLayer::new();
    for cj in 0..cfg.ny {
        for ci in 0..cfg.nx {
            let mut rings = vec![tess.cell_ring(ci, cj)];
            rings.extend(tess.cell_extra_rings(ci, cj));
            layer.push(Polygon::new(rings), format!("county-{ci}-{cj}"));
        }
    }
    layer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = CountyConfig::small(7).generate();
        let b = CountyConfig::small(7).generate();
        assert_eq!(a.total_vertices(), b.total_vertices());
        for (pa, pb) in a.polygons().iter().zip(b.polygons()) {
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn seeds_differ() {
        let a = CountyConfig::small(1).generate();
        let b = CountyConfig::small(2).generate();
        assert!(
            a.polygons()
                .iter()
                .zip(b.polygons())
                .any(|(pa, pb)| pa != pb),
            "different seeds should give different geometry"
        );
    }

    #[test]
    fn zone_count_and_extent() {
        let cfg = CountyConfig::small(3);
        let layer = cfg.generate();
        assert_eq!(layer.len(), cfg.zone_count());
        let m = layer.mbr();
        // Boundary pinning keeps the tessellation inside (and spanning) the extent.
        assert!((m.min_x - cfg.extent.min_x).abs() < 1e-9);
        assert!((m.max_x - cfg.extent.max_x).abs() < 1e-9);
        assert!((m.min_y - cfg.extent.min_y).abs() < 1e-9);
        assert!((m.max_y - cfg.extent.max_y).abs() < 1e-9);
    }

    #[test]
    fn all_polygons_valid() {
        let layer = CountyConfig::small(11).generate();
        for (name, poly) in layer.iter() {
            assert!(poly.is_valid(), "{name} invalid");
        }
    }

    #[test]
    fn tessellation_partitions_points() {
        // Every sampled point belongs to at most one polygon; points not in a
        // lake belong to exactly one.
        let cfg = CountyConfig::small(5);
        let layer = cfg.generate();
        let mut in_none = 0usize;
        let n = 40;
        for i in 0..n {
            for j in 0..n {
                let p = Point::new(
                    cfg.extent.min_x + cfg.extent.width() * (i as f64 + 0.371) / n as f64,
                    cfg.extent.min_y + cfg.extent.height() * (j as f64 + 0.583) / n as f64,
                );
                let owners = layer
                    .polygons()
                    .iter()
                    .filter(|poly| poly.contains(p))
                    .count();
                assert!(owners <= 1, "point {p:?} claimed by {owners} zones");
                if owners == 0 {
                    in_none += 1;
                }
            }
        }
        // Only lake points (hole minus island) are unowned: a small fraction.
        let frac = in_none as f64 / (n * n) as f64;
        assert!(frac < 0.05, "unowned fraction {frac} too large");
    }

    #[test]
    fn us_like_hits_vertex_budget() {
        let layer = CountyConfig::us_like(42).generate();
        assert_eq!(layer.len(), 3100);
        let v = layer.total_vertices();
        // Paper: 87,097 vertices. Allow ±5%.
        assert!(
            (82_000..=92_000).contains(&v),
            "vertex count {v} should be near 87,097"
        );
        assert!(
            layer.multi_ring_count() > 0,
            "must contain multi-ring polygons"
        );
    }

    #[test]
    fn with_vertex_budget_scales_subdiv() {
        let cfg = CountyConfig::small(1).with_vertex_budget(8 * 6 * 20);
        // per cell = 20 => subdiv = 4
        assert_eq!(cfg.edge_subdiv, 4);
        let v = cfg.generate().total_vertices();
        let target = 8 * 6 * 20;
        assert!(
            (v as f64 - target as f64).abs() / (target as f64) < 0.15,
            "vertex count {v} should be near {target}"
        );
    }

    #[test]
    fn holes_are_inside_their_cell() {
        let mut cfg = CountyConfig::small(9);
        cfg.hole_fraction = 1.0; // every cell gets a hole
        cfg.island_fraction = 1.0;
        let layer = cfg.generate();
        for (name, poly) in layer.iter() {
            assert_eq!(
                poly.rings().len(),
                3,
                "{name} should have shell+hole+island"
            );
            let shell_mbr = poly.rings()[0].mbr();
            for ring in &poly.rings()[1..] {
                assert!(
                    shell_mbr.contains(&ring.mbr()),
                    "{name}: hole/island escapes its shell"
                );
            }
            // Hole center is excluded, island center included.
            let hole_c = poly.rings()[1].mbr().center();
            assert!(poly.contains(hole_c), "island center (in hole) back inside");
        }
    }
}
