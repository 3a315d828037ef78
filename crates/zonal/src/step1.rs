//! Step 1: per-tile histogram generation.
//!
//! One thread block per raster tile; threads zero the tile's bins, then
//! stride over the tile's cells updating bins with `atomicAdd` — the
//! paper's Fig. 2 `CellAggrKernel`. Here the blocks run one after another
//! on the calling thread ([`zonal_gpusim::exec::launch_map`]); a
//! barrier-faithful rendition of the same kernel lives in
//! [`crate::simt::cell_aggr_kernel`], where the SIMT tests (and, under the
//! `sanitize` feature, the kernel sanitizer) exercise its barrier and
//! atomic structure.
//!
//! The kernel zeroes `n_bins` bins per tile because a full-resolution
//! tile holds up to 129,600 cells; a coarser tile holds far fewer cells
//! than bins. The host therefore emits each tile's histogram as its
//! sorted non-zero `(bin, count)` runs, counting into a per-thread
//! `n_bins` scratch and resetting only the bins it touched, so host work
//! is proportional to cells. Only Step 3 reads the runs, and only for
//! tiles inside some polygon, so the host builds runs just for the tiles
//! the caller marks; for the others (about a third of the 120-cpd
//! catalog's tiles) it only counts the in-range cells, which keeps the
//! cell accounting exact. The counted device work is still the kernel's,
//! for every tile: `n_bins` zeroed and written back, one atomic per valid
//! cell.

use std::cell::RefCell;
use zonal_gpusim::exec;
use zonal_gpusim::WorkCounter;
use zonal_raster::TileView;

/// Per-tile histogram plus its cell accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileHistogram {
    /// The tile's non-zero bins as `(bin, count)` runs in ascending bin
    /// order; every other bin of the `n_bins` is zero. `u32` counts
    /// suffice: a 360×360 tile has 129,600 cells.
    pub runs: Vec<(u16, u32)>,
    /// Cells whose value landed in a bin.
    pub valid_cells: u64,
    /// Cells skipped (no-data or ≥ `n_bins`).
    pub skipped_cells: u64,
}

/// A thread's bin counters, all zero between tiles, and the bins the
/// current tile has touched.
#[derive(Default)]
struct Scratch {
    counts: Vec<u32>,
    touched: Vec<u16>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// One tile's runs, counted in the calling thread's scratch.
fn tile_runs(values: &[u16], n_bins: usize) -> Vec<(u16, u32)> {
    SCRATCH.with(|s| {
        let Scratch { counts, touched } = &mut *s.borrow_mut();
        if counts.len() < n_bins {
            counts.resize(n_bins, 0);
        }
        // Stride over cells, one increment per in-range cell (Fig. 2
        // lines 6–11). Within a block the bins are exclusively owned, so
        // the atomic is realized as a plain add.
        for &v in values {
            if (v as usize) < n_bins {
                let c = &mut counts[v as usize];
                if *c == 0 {
                    touched.push(v);
                }
                *c += 1;
            }
        }
        touched.sort_unstable();
        touched
            .drain(..)
            .map(|v| (v, std::mem::take(&mut counts[v as usize])))
            .collect()
    })
}

/// Compute per-tile histograms for a batch of decoded tiles (one strip's
/// [`zonal_raster::TileStrip::tiles`]).
///
/// `wanted[b]` says whether tile `b`'s runs are read; an unwanted tile
/// gets empty `runs` but exact `valid_cells` and `skipped_cells`.
///
/// Work accounting mirrors the kernel, whatever `wanted` says: zeroing
/// bins is tile-proportional ("fixed" under resolution scaling), reading
/// cells and the one atomic per valid cell are cell-proportional.
pub fn per_tile_histograms(
    tiles: &[TileView<'_>],
    wanted: &[bool],
    n_bins: usize,
    cell_work: &WorkCounter,
    fixed_work: &WorkCounter,
) -> Vec<TileHistogram> {
    let traced = zonal_obs::enabled();
    let before = if traced {
        cell_work.snapshot().merge(&fixed_work.snapshot())
    } else {
        Default::default()
    };
    let mut span = zonal_obs::span("step1: per-tile histograms");
    assert_eq!(wanted.len(), tiles.len(), "one mark per tile");
    let hists = exec::launch_map(tiles.len(), |b| {
        let tile = &tiles[b];
        let (runs, valid) = if wanted[b] {
            let runs = tile_runs(tile.values, n_bins);
            let valid = runs.iter().map(|&(_, c)| c as u64).sum();
            (runs, valid)
        } else {
            let valid = tile
                .values
                .iter()
                .filter(|&&v| (v as usize) < n_bins)
                .count();
            (Vec::new(), valid as u64)
        };
        TileHistogram {
            runs,
            valid_cells: valid,
            skipped_cells: tile.values.len() as u64 - valid,
        }
    });

    let n_cells: u64 = tiles.iter().map(|t| t.values.len() as u64).sum();
    let n_valid: u64 = hists.iter().map(|h| h.valid_cells).sum();
    // Cell-proportional work: one 2-byte coalesced read + ~1 op + 1 atomic
    // per valid cell.
    cell_work.add_coalesced(n_cells * 2);
    cell_work.add_flops(n_cells);
    cell_work.add_atomics(n_valid);
    // Tile-proportional work: zeroing and writing out `n_bins` u32 per tile
    // (Fig. 2 lines 2–4 and the write-back), whatever the host stores.
    fixed_work.add_coalesced(tiles.len() as u64 * n_bins as u64 * 4 * 2);
    fixed_work.add_flops(tiles.len() as u64 * n_bins as u64);
    fixed_work.add_launch();
    if traced {
        let after = cell_work.snapshot().merge(&fixed_work.snapshot());
        exec::attach_work_args(&mut span, tiles.len(), &before, &after);
    }
    hists
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_raster::{TileData, NODATA};

    /// Histograms of owned tiles.
    fn hists_of(
        tiles: &[TileData],
        wanted: &[bool],
        n_bins: usize,
        cw: &WorkCounter,
        fw: &WorkCounter,
    ) -> Vec<TileHistogram> {
        let views: Vec<TileView> = tiles.iter().map(TileData::view).collect();
        per_tile_histograms(&views, wanted, n_bins, cw, fw)
    }

    fn wc() -> (WorkCounter, WorkCounter) {
        (WorkCounter::new(), WorkCounter::new())
    }

    #[test]
    fn counts_every_value() {
        let tile = TileData::new(vec![0, 1, 1, 2, 2, 2], 2, 3);
        let (cw, fw) = wc();
        let h = &per_tile_histograms(&[tile.view()], &[true], 4, &cw, &fw)[0];
        assert_eq!(h.runs, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(h.valid_cells, 6);
        assert_eq!(h.skipped_cells, 0);
    }

    #[test]
    fn nodata_and_out_of_range_skipped() {
        let tile = TileData::new(vec![0, NODATA, 100, 5], 2, 2);
        let (cw, fw) = wc();
        let h = &per_tile_histograms(&[tile.view()], &[true], 10, &cw, &fw)[0];
        assert_eq!(
            h.runs,
            vec![(0, 1), (5, 1)],
            "only values 0 and 5 are in range"
        );
        assert_eq!(h.valid_cells, 2);
        assert_eq!(h.skipped_cells, 2);
    }

    #[test]
    fn batch_of_tiles() {
        let tiles: Vec<TileData> = (0..20).map(|k| TileData::filled(k as u16, 4, 4)).collect();
        let (cw, fw) = wc();
        let hists = hists_of(&tiles, &vec![true; tiles.len()], 16, &cw, &fw);
        assert_eq!(hists.len(), 20);
        for (k, h) in hists.iter().enumerate() {
            if k < 16 {
                assert_eq!(
                    h.runs,
                    vec![(k as u16, 16)],
                    "tile {k} holds sixteen cells of value {k}"
                );
                assert_eq!(h.valid_cells, 16);
            } else {
                assert!(h.runs.is_empty(), "tile {k}'s value is out of range");
                assert_eq!(h.valid_cells, 0);
            }
        }
    }

    #[test]
    fn work_accounting() {
        let tiles = vec![TileData::filled(1, 10, 10), TileData::filled(999, 10, 10)];
        let (cw, fw) = wc();
        let _ = hists_of(&tiles, &vec![true; tiles.len()], 16, &cw, &fw);
        let cell = cw.snapshot();
        let fixed = fw.snapshot();
        assert_eq!(cell.coalesced_bytes, 200 * 2, "two bytes per cell");
        assert_eq!(
            cell.atomics, 100,
            "only the in-range tile atomically updates"
        );
        assert_eq!(fixed.coalesced_bytes, 2 * 16 * 4 * 2);
        assert_eq!(fixed.launches, 1);
    }

    #[test]
    fn unwanted_tiles_keep_exact_cell_accounting() {
        // Mixed tiles: in range, no-data, out of range and mixtures.
        let tiles: Vec<TileData> = (0..12u16)
            .map(|k| {
                let values = (0..35u16)
                    .map(|i| match (i + k) % 5 {
                        0 => NODATA,
                        1 => 30 + i % 4, // 32 and 33 are just out of range
                        _ => (i * 7 + k) % 30,
                    })
                    .collect();
                TileData::new(values, 5, 7)
            })
            .collect();
        let wanted: Vec<bool> = (0..12).map(|k| k % 3 != 1).collect();
        let (cw, fw) = wc();
        let full = hists_of(&tiles, &[true; 12], 32, &cw, &fw);
        let (mcw, mfw) = wc();
        let masked = hists_of(&tiles, &wanted, 32, &mcw, &mfw);
        for (k, (f, m)) in full.iter().zip(&masked).enumerate() {
            assert_eq!(m.valid_cells, f.valid_cells, "tile {k}");
            assert_eq!(m.skipped_cells, f.skipped_cells, "tile {k}");
            if wanted[k] {
                assert_eq!(m.runs, f.runs, "tile {k}");
            } else {
                assert!(m.runs.is_empty(), "tile {k}");
                assert!(f.valid_cells > 0 && f.skipped_cells > 0, "tile {k}");
            }
        }
        assert_eq!(
            mcw.snapshot(),
            cw.snapshot(),
            "counted cell work is unmasked"
        );
        assert_eq!(
            mfw.snapshot(),
            fw.snapshot(),
            "counted fixed work is unmasked"
        );
    }

    #[test]
    fn empty_batch() {
        let (cw, fw) = wc();
        let hists = per_tile_histograms(&[], &[], 16, &cw, &fw);
        assert!(hists.is_empty());
        assert_eq!(cw.snapshot().atomics, 0);
    }

    #[test]
    fn scratch_is_clean_between_tiles_and_bin_counts() {
        // The per-thread scratch must not leak counts from one tile (or
        // one bin count) into the next.
        let (cw, fw) = wc();
        let a = TileData::new(vec![3, 3, 9, 1], 2, 2);
        let b = TileData::new(vec![9, 2], 1, 2);
        let first = per_tile_histograms(&[a.view(), b.view()], &[true, true], 16, &cw, &fw);
        assert_eq!(first[0].runs, vec![(1, 1), (3, 2), (9, 1)]);
        assert_eq!(first[1].runs, vec![(2, 1), (9, 1)]);
        let narrow = per_tile_histograms(&[a.view()], &[true], 4, &cw, &fw);
        assert_eq!(narrow[0].runs, vec![(1, 1), (3, 2)]);
        let again = per_tile_histograms(&[b.view()], &[true], 16, &cw, &fw);
        assert_eq!(again[0].runs, first[1].runs);
    }

    #[test]
    fn histogram_total_equals_valid_cells() {
        // Invariant: sum of bins == valid cell count, for arbitrary data.
        let values: Vec<u16> = (0..777).map(|i| ((i * 31) % 1200) as u16).collect();
        let tile = TileData::new(values.clone(), 21, 37);
        let (cw, fw) = wc();
        let h = &per_tile_histograms(&[tile.view()], &[true], 1000, &cw, &fw)[0];
        let expected_valid = values.iter().filter(|&&v| (v as usize) < 1000).count() as u64;
        assert_eq!(
            h.runs.iter().map(|&(_, c)| c as u64).sum::<u64>(),
            expected_valid
        );
        assert!(
            h.runs.windows(2).all(|w| w[0].0 < w[1].0),
            "runs ascend by bin"
        );
        for &(bin, count) in &h.runs {
            let want = values.iter().filter(|&&v| v == bin).count() as u32;
            assert_eq!(count, want, "bin {bin}");
        }
        assert_eq!(h.valid_cells, expected_valid);
        assert_eq!(h.valid_cells + h.skipped_cells, 777);
    }
}
