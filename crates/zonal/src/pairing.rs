//! Step 2: pairing raster tiles with polygons (spatial filtering).
//!
//! The tile grid acts as an implicit grid-file index: each polygon's MBB is
//! rasterized onto it, every candidate (polygon, tile) pair is classified
//! `Outside` / `Inside` / `Intersect` with an exact tile-in-polygon test,
//! and the surviving pairs are post-processed — with the same primitive
//! composition as the paper's Fig. 4 (`stable_sort_by_key`,
//! `stable_partition`, `reduce_by_key`, `scan`) — into the grouped
//! `pid_v` / `num_v` / `pos_v` / `tid_v` arrays that Steps 3 and 4 consume.
//!
//! As in the paper (§III.B), this step runs on the CPU: it is a tiny
//! fraction of the runtime and exact computational geometry is easier off
//! the device.

use serde::{Deserialize, Serialize};
use zonal_geo::{classify_box_in_band, BandEdges, PolygonLayer, TileRelation};
use zonal_gpusim::primitives::{
    exclusive_scan, run_length_encode, stable_partition, stable_sort_by_key,
};
use zonal_raster::TileGrid;

/// Pairs grouped by polygon: the paper's four device arrays.
///
/// Group `g` covers polygon `pid_v[g]` and owns the tile ids
/// `tid_v[pos_v[g] .. pos_v[g] + num_v[g]]`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupedPairs {
    pub pid_v: Vec<u32>,
    pub num_v: Vec<u32>,
    pub pos_v: Vec<u32>,
    pub tid_v: Vec<u32>,
}

impl GroupedPairs {
    /// Build from `(pid, tid)` pairs already grouped by `pid` (equal pids
    /// adjacent).
    pub fn from_grouped_pairs(pairs: &[(u32, u32)]) -> Self {
        let pids: Vec<u32> = pairs.iter().map(|&(p, _)| p).collect();
        let (pid_v, num_v) = run_length_encode(&pids);
        let (pos_v, _total) = exclusive_scan(&num_v);
        let tid_v = pairs.iter().map(|&(_, t)| t).collect();
        GroupedPairs {
            pid_v,
            num_v,
            pos_v,
            tid_v,
        }
    }

    /// Number of polygon groups.
    pub fn n_groups(&self) -> usize {
        self.pid_v.len()
    }

    /// Total (polygon, tile) pairs.
    pub fn n_pairs(&self) -> usize {
        self.tid_v.len()
    }

    /// Group `g`'s polygon id and tile ids.
    pub fn group(&self, g: usize) -> (u32, &[u32]) {
        let pos = self.pos_v[g] as usize;
        let num = self.num_v[g] as usize;
        (self.pid_v[g], &self.tid_v[pos..pos + num])
    }

    /// Iterate `(pid, tid)` pairs in group order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n_groups()).flat_map(move |g| {
            let (pid, tids) = self.group(g);
            tids.iter().map(move |&t| (pid, t))
        })
    }
}

/// Step 2's full output.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairTable {
    /// Tiles completely inside a polygon (consumed by Step 3).
    pub inside: GroupedPairs,
    /// Tiles crossed by a polygon boundary (consumed by Step 4).
    pub intersect: GroupedPairs,
    /// Candidate pairs rejected by the exact test (for accounting).
    pub n_outside: u64,
}

impl PairTable {
    /// Total candidate pairs produced by MBB rasterization.
    pub fn n_candidates(&self) -> u64 {
        self.inside.n_pairs() as u64 + self.intersect.n_pairs() as u64 + self.n_outside
    }

    /// Which of a layer's `n_zones` zones have an inside or intersect
    /// pair: the only zones Steps 3 and 4 address.
    pub fn touched_zones(&self, n_zones: usize) -> Vec<bool> {
        let mut touched = vec![false; n_zones];
        for &pid in self.inside.pid_v.iter().chain(&self.intersect.pid_v) {
            touched[pid as usize] = true;
        }
        touched
    }
}

/// Run Step 2 for `layer` against `grid`.
pub fn pair_tiles(layer: &PolygonLayer, grid: &TileGrid) -> PairTable {
    // Phase 1 (independent per polygon): rasterize each MBB onto the tile
    // grid and classify every candidate tile exactly.
    let classified: Vec<Vec<(u32, u32, u8)>> = layer
        .polygons()
        .iter()
        .enumerate()
        .map(|(pid, poly)| {
            let mut out = Vec::new();
            if let Some((xs, ys)) = grid.tiles_overlapping(&poly.mbr()) {
                // A tile row shares one y-range: classify its tiles
                // against only the edges that reach it.
                let mut band = BandEdges::default();
                for ty in ys {
                    let row = grid.tile_mbr(*xs.start(), ty);
                    band.fill(poly, row.min_y, row.max_y);
                    for tx in xs.clone() {
                        let tile = grid.tile_mbr(tx, ty);
                        debug_assert!(tile.min_y == row.min_y && tile.max_y == row.max_y);
                        let rel = classify_box_in_band(poly, &band, &tile);
                        out.push((pid as u32, grid.tile_id(tx, ty) as u32, rel.code()));
                    }
                }
            }
            out
        })
        .collect();
    let triples: Vec<(u32, u32, u8)> = classified.into_iter().flatten().collect();
    group_triples(triples)
}

/// The Fig. 4 primitive chain: sort by (polygon, relation) so each
/// polygon's tiles are adjacent and inside-tiles precede intersect-tiles,
/// drop outsides, split the two classes with a stable partition (which
/// preserves the polygon grouping), then run-length encode and scan into
/// the grouped arrays.
fn group_triples(mut triples: Vec<(u32, u32, u8)>) -> PairTable {
    let n_total = triples.len() as u64;
    triples.retain(|&(_, _, code)| code != TileRelation::Outside.code());
    let n_outside = n_total - triples.len() as u64;
    stable_sort_by_key(&mut triples, |&(pid, tid, code)| (pid, code, tid));
    let mut pairs: Vec<(u32, u32, u8)> = triples;
    let split = stable_partition(&mut pairs, |&(_, _, code)| {
        code == TileRelation::Inside.code()
    });
    let inside_pairs: Vec<(u32, u32)> = pairs[..split].iter().map(|&(p, t, _)| (p, t)).collect();
    let intersect_pairs: Vec<(u32, u32)> = pairs[split..].iter().map(|&(p, t, _)| (p, t)).collect();

    PairTable {
        inside: GroupedPairs::from_grouped_pairs(&inside_pairs),
        intersect: GroupedPairs::from_grouped_pairs(&intersect_pairs),
        n_outside,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_geo::{classify_box, Polygon};
    use zonal_raster::GeoTransform;

    /// 10×10 world units, tiles of 1×1 (10 cells each of size 0.1).
    fn grid() -> TileGrid {
        TileGrid::new(100, 100, 10, GeoTransform::new(0.0, 0.0, 0.1, 0.1))
    }

    #[test]
    fn grouped_pairs_construction() {
        let g = GroupedPairs::from_grouped_pairs(&[(1, 10), (1, 11), (3, 20)]);
        assert_eq!(g.n_groups(), 2);
        assert_eq!(g.n_pairs(), 3);
        assert_eq!(g.group(0), (1, &[10u32, 11][..]));
        assert_eq!(g.group(1), (3, &[20u32][..]));
        let pairs: Vec<_> = g.iter_pairs().collect();
        assert_eq!(pairs, vec![(1, 10), (1, 11), (3, 20)]);
    }

    #[test]
    fn grouped_pairs_empty() {
        let g = GroupedPairs::from_grouped_pairs(&[]);
        assert_eq!(g.n_groups(), 0);
        assert_eq!(g.n_pairs(), 0);
    }

    #[test]
    fn axis_aligned_square_classification() {
        // Polygon [1.05, 3.95]²: MBB rasterizes to the 3×3 tiles (1..=3)²;
        // the center tile [2,3]² is fully inside, the 8 rim tiles carry the
        // boundary.
        let layer = PolygonLayer::from_polygons(vec![Polygon::rect(1.05, 1.05, 3.95, 3.95)]);
        let g = grid();
        let table = pair_tiles(&layer, &g);
        assert_eq!(table.n_candidates(), 9, "3x3 MBB tiles");
        assert_eq!(
            table.inside.n_pairs(),
            1,
            "only the center tile is fully inside"
        );
        assert_eq!(table.intersect.n_pairs(), 8, "boundary rim tiles");
        assert_eq!(table.n_outside, 0, "MBB rasterization is exact for a rect");
    }

    #[test]
    fn offset_square_has_outside_candidates() {
        // A polygon centered in tile space but not aligned: MBB covers 3x3
        // tiles; the disc inside covers fewer.
        let layer = PolygonLayer::from_polygons(vec![Polygon::from_ring(zonal_geo::Ring::circle(
            zonal_geo::Point::new(5.0, 5.0),
            1.4,
            64,
        ))]);
        let table = pair_tiles(&layer, &grid());
        // MBB [3.6, 6.4]² rasterizes to the 4×4 tiles (3..=6)².
        assert_eq!(table.n_candidates(), 16);
        assert!(
            table.intersect.n_pairs() >= 8,
            "the circle crosses the ring of tiles"
        );
        // The four MBB corner tiles lie outside the circle (corner distance
        // √2 > 1.4).
        assert!(table.n_outside >= 4);
    }

    #[test]
    fn multiple_polygons_grouped_by_pid() {
        let layer = PolygonLayer::from_polygons(vec![
            Polygon::rect(0.5, 0.5, 3.5, 3.5),
            Polygon::rect(5.5, 5.5, 8.5, 8.5),
        ]);
        let table = pair_tiles(&layer, &grid());
        // pid groups must be sorted and unique per table.
        for gp in [&table.inside, &table.intersect] {
            let mut sorted = gp.pid_v.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted, gp.pid_v, "pid groups sorted & unique");
        }
        assert_eq!(table.inside.pid_v, vec![0, 1]);
        // Symmetric polygons get symmetric pair counts.
        assert_eq!(table.inside.group(0).1.len(), table.inside.group(1).1.len());
    }

    #[test]
    fn polygon_off_grid_is_dropped() {
        let layer = PolygonLayer::from_polygons(vec![Polygon::rect(50.0, 50.0, 60.0, 60.0)]);
        let table = pair_tiles(&layer, &grid());
        assert_eq!(table.n_candidates(), 0);
        assert_eq!(table.inside.n_groups(), 0);
        assert_eq!(table.intersect.n_groups(), 0);
    }

    /// Brute-force oracle: every (polygon, tile) pair of the grid lands in
    /// `inside` or `intersect` exactly when `classify_box` says so, once.
    fn assert_pairs_match_direct_classify(layer: &PolygonLayer, g: &TileGrid) {
        let table = pair_tiles(layer, g);
        let mut emitted = std::collections::HashMap::new();
        for (rel, pairs) in [
            (TileRelation::Inside, &table.inside),
            (TileRelation::Intersect, &table.intersect),
        ] {
            for (pid, tid) in pairs.iter_pairs() {
                assert!(emitted.insert((pid, tid), rel).is_none(), "duplicate pair");
            }
        }
        for (pid, poly) in layer.polygons().iter().enumerate() {
            for tid in 0..g.n_tiles() {
                let (tx, ty) = g.tile_pos(tid);
                let want = classify_box(poly, &g.tile_mbr(tx, ty));
                let got = emitted
                    .get(&(pid as u32, tid as u32))
                    .copied()
                    .unwrap_or(TileRelation::Outside);
                assert_eq!(got, want, "polygon {pid}, tile ({tx}, {ty})");
            }
        }
    }

    #[test]
    fn classification_agrees_with_direct_classify() {
        let circle = Polygon::from_ring(zonal_geo::Ring::circle(
            zonal_geo::Point::new(4.3, 5.7),
            2.2,
            48,
        ));
        let g = grid();
        assert_pairs_match_direct_classify(&PolygonLayer::from_polygons(vec![circle.clone()]), &g);
        let offset = PolygonLayer::from_polygons(vec![
            circle,
            Polygon::rect(0.5, 0.5, 3.5, 3.5),
            Polygon::rect(50.0, 50.0, 60.0, 60.0), // off-grid
        ]);
        assert_pairs_match_direct_classify(&offset, &g);
        let counties = zonal_geo::CountyConfig::small(7).generate();
        let g = TileGrid::new(60, 80, 5, GeoTransform::new(0.0, 0.0, 0.1, 0.1));
        assert_pairs_match_direct_classify(&counties, &g);
    }

    #[test]
    fn tessellation_every_tile_inside_at_most_one_polygon() {
        let cfg = zonal_geo::CountyConfig::small(3);
        let layer = cfg.generate();
        // Grid over the layer extent: 80x60 cells of 0.1, tiles of 5 cells.
        let g = TileGrid::new(60, 80, 5, GeoTransform::new(0.0, 0.0, 0.1, 0.1));
        let table = pair_tiles(&layer, &g);
        let mut owner = vec![0u32; g.n_tiles()];
        for (_, tid) in table.inside.iter_pairs() {
            owner[tid as usize] += 1;
        }
        assert!(
            owner.iter().all(|&c| c <= 1),
            "an inside tile belongs to one zone only"
        );
        assert!(
            table.inside.n_pairs() > 0,
            "tessellation interior tiles exist"
        );
        assert!(table.intersect.n_pairs() > 0, "boundary tiles exist");
    }
}
