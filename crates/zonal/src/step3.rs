//! Step 3: aggregating completely-inside per-tile histograms.
//!
//! For every (polygon, tile) pair whose tile is wholly inside the polygon,
//! the tile's histogram is added into the polygon's histogram bin-by-bin —
//! the paper's Fig. 4 `UpdateHistKernel`, whose whole point is that the
//! cells of such tiles are never individually examined. Threads stride the
//! bin axis so accesses to both the tile and polygon histogram arrays
//! coalesce. The host adds only each tile's non-zero runs; the counted
//! work is still the kernel's full bin axis per pair.

use crate::hist::ZoneRows;
use zonal_gpusim::{exec, WorkCounter};

/// Add per-tile histograms into the zone rows.
///
/// `pairs` yields `(pid, tile_runs)` for the tiles being aggregated, with
/// runs as [`crate::step1::TileHistogram::runs`] (the pipeline calls this
/// once per strip with the strip's inside pairs). Different pairs may
/// target the same polygon concurrently, hence the atomic rows.
pub fn aggregate_inside(
    pairs: &[(u32, &[(u16, u32)])],
    zone_rows: &ZoneRows,
    fixed_work: &WorkCounter,
) {
    let traced = zonal_obs::enabled();
    let before = if traced {
        fixed_work.snapshot()
    } else {
        Default::default()
    };
    let mut span = zonal_obs::span("step3: aggregate inside tiles");
    exec::launch(pairs.len(), |b| {
        let (pid, runs) = pairs[b];
        for &(bin, count) in runs {
            zone_rows.add(pid, bin as usize, count as u64);
        }
    });
    // Bin-axis work: read n_bins u32 + RMW n_bins u64 per pair. Tile- and
    // bin-proportional, so "fixed" under resolution scaling.
    let pair_bins = pairs.len() as u64 * zone_rows.n_bins() as u64;
    fixed_work.add_coalesced(pair_bins * (4 + 8));
    fixed_work.add_flops(pair_bins);
    fixed_work.add_launch();
    if traced {
        exec::attach_work_args(&mut span, pairs.len(), &before, &fixed_work.snapshot());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_rows(n_zones: usize, n_bins: usize) -> ZoneRows {
        ZoneRows::new(&vec![true; n_zones], n_bins)
    }

    #[test]
    fn single_pair_aggregates() {
        let zone = all_rows(2, 4);
        let runs = [(0u16, 1u32), (2, 5), (3, 2)];
        let wc = WorkCounter::new();
        aggregate_inside(&[(1, &runs)], &zone, &wc);
        let h = zone.into_histograms();
        assert_eq!(h.zone(0), &[0, 0, 0, 0], "zone 0 untouched");
        assert_eq!(h.zone(1), &[1, 0, 5, 2]);
    }

    #[test]
    fn many_tiles_same_polygon() {
        let n_bins = 8;
        let zone = all_rows(3, n_bins);
        let runs: Vec<Vec<(u16, u32)>> = (1..50)
            .map(|k| (0..n_bins as u16).map(|b| (b, k as u32)).collect())
            .collect();
        let pairs: Vec<(u32, &[(u16, u32)])> = runs.iter().map(|r| (2u32, r.as_slice())).collect();
        let wc = WorkCounter::new();
        aggregate_inside(&pairs, &zone, &wc);
        let h = zone.into_histograms();
        let expected: u64 = (1..50).sum();
        assert_eq!(h.zone(2), &vec![expected; n_bins][..]);
    }

    #[test]
    fn concurrent_polygons_do_not_interfere() {
        let n_bins = 4;
        let zone = all_rows(10, n_bins);
        let one: Vec<(u16, u32)> = (0..n_bins as u16).map(|b| (b, 1)).collect();
        let pairs: Vec<(u32, &[(u16, u32)])> = (0..1000)
            .map(|i| ((i % 10) as u32, one.as_slice()))
            .collect();
        let wc = WorkCounter::new();
        aggregate_inside(&pairs, &zone, &wc);
        let h = zone.into_histograms();
        for z in 0..10 {
            assert_eq!(h.zone(z), &[100; 4], "zone {z}");
        }
    }

    #[test]
    fn work_is_bin_proportional() {
        // Counted work covers the full bin axis, even for empty runs.
        let n_bins = 16;
        let zone = all_rows(1, n_bins);
        let pairs: Vec<(u32, &[(u16, u32)])> = vec![(0, &[]), (0, &[(3, 1)]), (0, &[])];
        let wc = WorkCounter::new();
        aggregate_inside(&pairs, &zone, &wc);
        let w = wc.snapshot();
        assert_eq!(w.coalesced_bytes, 3 * 16 * 12);
        assert_eq!(w.flops, 3 * 16);
        assert_eq!(w.launches, 1);
    }

    #[test]
    fn empty_pairs_noop() {
        let zone = all_rows(2, 4);
        let wc = WorkCounter::new();
        aggregate_inside(&[], &zone, &wc);
        assert_eq!(zone.into_histograms().total(), 0);
    }
}
