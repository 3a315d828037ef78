//! Cell representative points for the cell-in-polygon test.
//!
//! The paper chooses cell centers "for simplicity" but notes (§III.D) that
//! "it is possible to use some other points (e.g., corners or different
//! types of weighted centers) either statically or dynamically that can
//! represent the raster cell better, depending on applications". This
//! module implements those options; [`crate::step4`] and the PIP baseline
//! accept any of them, and the pipeline/baseline equivalence tests hold
//! mode-for-mode.
//!
//! Consistency note: Step 3 aggregates completely-inside tiles without
//! testing points, which stays exact for every mode here because each
//! mode's sample points lie within the cell, hence within the tile, hence
//! inside the polygon.

use serde::{Deserialize, Serialize};
use zonal_geo::{FlatPolygons, Point};
use zonal_raster::GeoTransform;

/// Which point(s) stand in for a raster cell in point-in-polygon tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellRepresentative {
    /// Cell center — the paper's choice and the default.
    Center,
    /// The cell's lower-left corner. Shifts boundary attribution by half a
    /// cell; used by systems that define cells by their origin node.
    LowerLeftCorner,
    /// Four quarter points; the cell counts when **at least 3** are inside
    /// (strict majority). Approximates area-majority membership. Unlike the
    /// single-point modes this is not a partition rule: a cell split 2–2
    /// between two zones is counted by neither (conservative, never
    /// double-counted).
    Majority4,
}

impl CellRepresentative {
    /// The cell's sample points, as `(fx, fy)` offsets in cell units from
    /// its lower-left corner, with samples sharing an `fy` adjacent. The
    /// one table both [`CellRepresentative::test`] and
    /// [`crate::step4`] read.
    pub(crate) fn samples(self) -> &'static [(f64, f64)] {
        match self {
            CellRepresentative::Center => &[(0.5, 0.5)],
            CellRepresentative::LowerLeftCorner => &[(0.0, 0.0)],
            CellRepresentative::Majority4 => {
                &[(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]
            }
        }
    }

    /// Inside samples a cell needs to count.
    pub(crate) fn min_inside(self) -> u32 {
        match self {
            CellRepresentative::Center | CellRepresentative::LowerLeftCorner => 1,
            CellRepresentative::Majority4 => 3,
        }
    }

    /// Does cell `(row, col)` of `gt` belong to polygon `k` of `flat`?
    /// Returns the membership decision and the number of point tests spent
    /// (for work accounting). One [`FlatPolygons::contains`] call per
    /// sample: the per-point oracle Step 4's row pass is checked against.
    pub fn test(
        self,
        flat: &FlatPolygons,
        k: usize,
        gt: &GeoTransform,
        row: usize,
        col: usize,
    ) -> (bool, u32) {
        let samples = self.samples();
        let inside = samples
            .iter()
            .filter(|&&(fx, fy)| {
                let p = Point::new(
                    sample_coord(gt.x0, col, fx, gt.sx),
                    sample_coord(gt.y0, row, fy, gt.sy),
                );
                flat.contains(k, p)
            })
            .count() as u32;
        (inside >= self.min_inside(), samples.len() as u32)
    }

    /// Point tests per cell (for cost accounting).
    pub fn tests_per_cell(self) -> u32 {
        self.samples().len() as u32
    }

    /// True for modes that partition a tessellation exactly (each cell in
    /// exactly one zone).
    pub fn is_partition_rule(self) -> bool {
        !matches!(self, CellRepresentative::Majority4)
    }
}

/// World coordinate of sample offset `f` in cell `index` along one axis
/// (`origin` is the axis origin, `size` the cell size). For the center
/// offset this is [`GeoTransform::cell_center`]'s expression, and for a
/// zero offset `index as f64 + 0.0 == index as f64` leaves the corner
/// exact.
#[inline]
pub(crate) fn sample_coord(origin: f64, index: usize, f: f64, size: f64) -> f64 {
    origin + (index as f64 + f) * size
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_geo::Polygon;

    fn flat(poly: Polygon) -> FlatPolygons {
        FlatPolygons::from_polygons(&[poly])
    }

    fn gt() -> GeoTransform {
        GeoTransform::new(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn center_vs_corner_disagree_on_half_covered_cell() {
        // Polygon covers x < 0.4 of cell (0,0): center (0.5, 0.5) is out,
        // corner (0,0) is in.
        let f = flat(Polygon::rect(-1.0, -1.0, 0.4, 2.0));
        let (center_in, n1) = CellRepresentative::Center.test(&f, 0, &gt(), 0, 0);
        let (corner_in, n2) = CellRepresentative::LowerLeftCorner.test(&f, 0, &gt(), 0, 0);
        assert!(!center_in);
        assert!(corner_in);
        assert_eq!((n1, n2), (1, 1));
    }

    #[test]
    fn majority_needs_three() {
        // Polygon covers x < 0.5: exactly 2 of 4 quarter points inside => out.
        let f = flat(Polygon::rect(-1.0, -1.0, 0.5, 2.0));
        let (in_, n) = CellRepresentative::Majority4.test(&f, 0, &gt(), 0, 0);
        assert!(!in_);
        assert_eq!(n, 4);
        // Polygon covers x < 0.8: all 4 inside => in.
        let f2 = flat(Polygon::rect(-1.0, -1.0, 0.8, 2.0));
        assert!(CellRepresentative::Majority4.test(&f2, 0, &gt(), 0, 0).0);
        // Polygon covers x < 0.6, y < 0.6: 3 of 4 (the (0.75,0.75) point out) => in.
        let f3 = flat(Polygon::rect(-1.0, -1.0, 0.6, 0.6));
        // points: (0.25,0.25) in, (0.75,0.25) out, (0.25,0.75) out, (0.75,0.75) out => only 1.
        assert!(!CellRepresentative::Majority4.test(&f3, 0, &gt(), 0, 0).0);
    }

    #[test]
    fn fully_inside_cell_agrees_across_modes() {
        let f = flat(Polygon::rect(-5.0, -5.0, 5.0, 5.0));
        for mode in [
            CellRepresentative::Center,
            CellRepresentative::LowerLeftCorner,
            CellRepresentative::Majority4,
        ] {
            assert!(mode.test(&f, 0, &gt(), 2, 3).0, "{mode:?}");
        }
        let g = flat(Polygon::rect(50.0, 50.0, 60.0, 60.0));
        for mode in [
            CellRepresentative::Center,
            CellRepresentative::LowerLeftCorner,
            CellRepresentative::Majority4,
        ] {
            assert!(!mode.test(&g, 0, &gt(), 2, 3).0, "{mode:?}");
        }
    }

    #[test]
    fn sample_table_is_consistent() {
        for mode in [
            CellRepresentative::Center,
            CellRepresentative::LowerLeftCorner,
            CellRepresentative::Majority4,
        ] {
            let samples = mode.samples();
            assert_eq!(mode.tests_per_cell() as usize, samples.len());
            assert!((1..=samples.len() as u32).contains(&mode.min_inside()));
            // Samples sharing a row offset are adjacent, so Step 4 computes
            // each sample row's crossings once.
            let mut fys: Vec<f64> = samples.iter().map(|s| s.1).collect();
            fys.dedup();
            let mut distinct = fys.clone();
            distinct.sort_by(f64::total_cmp);
            distinct.dedup();
            assert_eq!(fys.len(), distinct.len(), "{mode:?}");
        }
    }

    #[test]
    fn sample_coords_reproduce_cell_center_and_corner_bits() {
        let gt = GeoTransform::new(-124.7, 24.3, 1.0 / 120.0, 1.0 / 120.0);
        for (row, col) in [(0, 0), (7, 913), (1441, 3)] {
            let c = gt.cell_center(row, col);
            assert_eq!(
                sample_coord(gt.x0, col, 0.5, gt.sx).to_bits(),
                c.x.to_bits()
            );
            assert_eq!(
                sample_coord(gt.y0, row, 0.5, gt.sy).to_bits(),
                c.y.to_bits()
            );
            let corner = gt.cell_box(row, col);
            assert_eq!(
                sample_coord(gt.x0, col, 0.0, gt.sx).to_bits(),
                corner.min_x.to_bits()
            );
            assert_eq!(
                sample_coord(gt.y0, row, 0.0, gt.sy).to_bits(),
                corner.min_y.to_bits()
            );
        }
    }

    #[test]
    fn partition_rule_flags() {
        assert!(CellRepresentative::Center.is_partition_rule());
        assert!(CellRepresentative::LowerLeftCorner.is_partition_rule());
        assert!(!CellRepresentative::Majority4.is_partition_rule());
    }

    #[test]
    fn majority_never_double_counts_shared_boundary() {
        // Two rects sharing x = 0.5 split cell (0,0)'s samples 2-2: neither
        // zone claims the cell.
        let polys = vec![
            Polygon::rect(-1.0, -1.0, 0.5, 2.0),
            Polygon::rect(0.5, -1.0, 2.0, 2.0),
        ];
        let f = FlatPolygons::from_polygons(&polys);
        let a = CellRepresentative::Majority4.test(&f, 0, &gt(), 0, 0).0;
        let b = CellRepresentative::Majority4.test(&f, 1, &gt(), 0, 0).0;
        assert!(!a && !b, "2-2 split counted by neither");
    }
}
