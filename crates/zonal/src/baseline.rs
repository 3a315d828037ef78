//! Reference implementations: correctness oracles and comparison baselines.
//!
//! The paper motivates its design by arguing that testing every raster cell
//! against polygons is infeasible at scale (§II). These baselines make that
//! argument measurable:
//!
//! * [`full_pip`] — the naive spatial-join approach: every cell in every
//!   polygon's MBB gets a ray-crossing test.
//! * [`scanline`] — the classic efficient CPU approach used by GIS
//!   rasterizers: per raster row, compute the polygon's crossings and count
//!   whole column spans. The crossings come from
//!   [`FlatPolygons::row_crossings`], which Step 4's band crossings equal
//!   bit for bit, so the per-point [`full_pip`] is the independent oracle
//!   for Step 4.
//!
//! All baselines implement *identical* boundary semantics to the pipeline
//! (half-open ray-crossing on cell centers), so results compare with
//! `assert_eq!`, not tolerances.

use crate::hist::ZoneHistograms;
use zonal_geo::{FlatPolygons, Mbr, PolygonLayer};
use zonal_raster::Raster;

/// Clamp a world-space MBR to the raster's cell index ranges
/// (`row_range`, `col_range`), half-open.
fn cell_ranges(
    raster: &Raster,
    mbr: &Mbr,
) -> Option<(std::ops::Range<usize>, std::ops::Range<usize>)> {
    let gt = raster.transform();
    let (r0, c0) = gt.world_to_cell(zonal_geo::Point::new(mbr.min_x, mbr.min_y));
    let (r1, c1) = gt.world_to_cell(zonal_geo::Point::new(mbr.max_x, mbr.max_y));
    let row0 = r0.max(0) as usize;
    let col0 = c0.max(0) as usize;
    let row1 = ((r1 + 1).max(0) as usize).min(raster.rows());
    let col1 = ((c1 + 1).max(0) as usize).min(raster.cols());
    if row0 >= row1 || col0 >= col1 {
        return None;
    }
    Some((row0..row1, col0..col1))
}

fn zone_histogram_pip(
    raster: &Raster,
    layer: &PolygonLayer,
    pid: usize,
    n_bins: usize,
) -> Vec<u64> {
    let mut bins = vec![0u64; n_bins];
    let poly = layer.polygon(pid);
    if let Some((rows, cols)) = cell_ranges(raster, &poly.mbr()) {
        let gt = raster.transform();
        for r in rows {
            for c in cols.clone() {
                let center = gt.cell_center(r, c);
                if poly.contains(center) {
                    let v = raster.get(r, c) as usize;
                    if v < n_bins {
                        bins[v] += 1;
                    }
                }
            }
        }
    }
    bins
}

/// Store per-polygon histograms: each polygon's counted bins, so its row
/// spans its first to its last count.
fn collect_rows(zones: Vec<Vec<u64>>, n_bins: usize) -> ZoneHistograms {
    let mut out = ZoneHistograms::new(zones.len(), n_bins);
    for (pid, bins) in zones.iter().enumerate() {
        for (bin, &c) in bins.iter().enumerate().filter(|&(_, &c)| c > 0) {
            out.add(pid, bin, c);
        }
    }
    out
}

/// Naive baseline: a point-in-polygon test for **every** cell in every
/// polygon MBB.
pub fn full_pip(layer: &PolygonLayer, raster: &Raster, n_bins: usize) -> ZoneHistograms {
    let zones = (0..layer.len())
        .map(|pid| zone_histogram_pip(raster, layer, pid, n_bins))
        .collect();
    collect_rows(zones, n_bins)
}

/// Scanline rasterization of one polygon: per raster row, the x-crossings
/// of all edges with the row's center latitude, converted to cell column
/// spans.
///
/// The crossings come from [`FlatPolygons::row_crossings`], equal bit for
/// bit to the ones Step 4 classifies cells with, so boundary semantics
/// match the ray-crossing test exactly: a cell center is inside iff an odd
/// number of crossings lie strictly to its right, which makes the spans
/// `[x_{2k}, x_{2k+1})` over the sorted crossing list.
fn zone_histogram_scanline(
    raster: &Raster,
    flat: &FlatPolygons,
    pid: usize,
    n_bins: usize,
) -> Vec<u64> {
    let mut bins = vec![0u64; n_bins];
    let Some((rows, cols)) = cell_ranges(raster, &flat.mbrs[pid]) else {
        return bins;
    };
    let gt = raster.transform();
    let mut crossings: Vec<f64> = Vec::new();
    for r in rows {
        let y = gt.y0 + (r as f64 + 0.5) * gt.sy;
        flat.row_crossings(pid, y, &mut crossings);
        // Spans between even/odd crossing pairs contain the inside centers.
        for pair in crossings.chunks_exact(2) {
            let (x_lo, x_hi) = (pair[0], pair[1]);
            // Smallest col whose center ≥ x_lo; first col whose center ≥ x_hi.
            let c_lo = ((x_lo - gt.x0) / gt.sx - 0.5).ceil().max(cols.start as f64) as usize;
            let c_hi = ((x_hi - gt.x0) / gt.sx - 0.5).ceil().min(cols.end as f64) as usize;
            for c in c_lo..c_hi {
                let v = raster.get(r, c) as usize;
                if v < n_bins {
                    bins[v] += 1;
                }
            }
        }
    }
    bins
}

/// Scanline baseline.
pub fn scanline(layer: &PolygonLayer, raster: &Raster, n_bins: usize) -> ZoneHistograms {
    let flat = layer.to_flat();
    let zones = (0..layer.len())
        .map(|pid| zone_histogram_scanline(raster, &flat, pid, n_bins))
        .collect();
    collect_rows(zones, n_bins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_geo::{Point, Polygon, Ring};
    use zonal_raster::GeoTransform;

    fn striped_raster() -> Raster {
        let gt = GeoTransform::new(0.0, 0.0, 0.1, 0.1);
        Raster::from_fn(40, 40, gt, |r, c| ((r / 5 + c / 5) % 8) as u16)
    }

    #[test]
    fn pip_exact_on_rect() {
        let layer = PolygonLayer::from_polygons(vec![Polygon::rect(1.0, 1.0, 3.0, 3.0)]);
        let raster = striped_raster();
        let h = full_pip(&layer, &raster, 8);
        // Rect covers a 20×20 block of cell centers.
        assert_eq!(h.zone_total(0), 400);
    }

    #[test]
    fn scanline_matches_pip_on_awkward_shapes() {
        let layer = PolygonLayer::from_polygons(vec![
            Polygon::from_ring(Ring::circle(Point::new(1.9, 2.1), 1.45, 13)),
            Polygon::new(vec![
                Ring::rect(0.35, 0.35, 3.65, 3.65),
                Ring::circle(Point::new(2.0, 2.0), 0.8, 9),
            ]),
            // Concave "C".
            Polygon::from_ring(Ring::new(vec![
                Point::new(0.2, 0.2),
                Point::new(3.0, 0.2),
                Point::new(3.0, 1.0),
                Point::new(1.0, 1.0),
                Point::new(1.0, 2.6),
                Point::new(3.0, 2.6),
                Point::new(3.0, 3.4),
                Point::new(0.2, 3.4),
            ])),
        ]);
        let raster = striped_raster();
        let pip = full_pip(&layer, &raster, 8);
        let scan = scanline(&layer, &raster, 8);
        assert_eq!(pip, scan);
    }

    #[test]
    fn tessellation_counts_every_cell_once() {
        // A layer that tiles the raster: total over all zones = all cells.
        let layer = PolygonLayer::from_polygons(vec![
            Polygon::rect(0.0, 0.0, 2.0, 4.0),
            Polygon::rect(2.0, 0.0, 4.0, 4.0),
        ]);
        let raster = striped_raster();
        let h = full_pip(&layer, &raster, 8);
        assert_eq!(h.total(), 1600);
        let s = scanline(&layer, &raster, 8);
        assert_eq!(s.total(), 1600);
    }

    #[test]
    fn polygon_outside_raster() {
        let layer = PolygonLayer::from_polygons(vec![Polygon::rect(50.0, 50.0, 51.0, 51.0)]);
        let raster = striped_raster();
        assert_eq!(full_pip(&layer, &raster, 8).total(), 0);
        assert_eq!(scanline(&layer, &raster, 8).total(), 0);
    }

    #[test]
    fn out_of_range_values_skipped() {
        let gt = GeoTransform::new(0.0, 0.0, 0.1, 0.1);
        let raster = Raster::filled(10, 10, 100, gt);
        let layer = PolygonLayer::from_polygons(vec![Polygon::rect(0.0, 0.0, 1.0, 1.0)]);
        assert_eq!(full_pip(&layer, &raster, 8).total(), 0);
        assert_eq!(scanline(&layer, &raster, 8).total(), 0);
    }
}
