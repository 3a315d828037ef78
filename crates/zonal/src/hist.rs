//! Zone histogram containers.
//!
//! The paper's `his_d_polygon` is a dense `n_zones × n_bins` device array.
//! On the host a partition touches only the zones it has inside or
//! intersect pairs with — tens of a 3,100-county layer — and a zone's
//! cells fill only a narrow band of the bins: the 16-node cluster run at
//! 60 cells/degree combines rows whose first..last counts span 1.4% of
//! its 3,100 × 5,000 bins. So the pipeline's accumulator ([`ZoneRows`])
//! holds dense rows for touched zones only, and the result type
//! ([`ZoneHistograms`]) is row- and bin-window-sparse: each stored row is
//! a [`BinWindow`] that `ZoneRows::into_histograms` trims to its
//! first..last count, and merges, checksums and comparisons touch only
//! windows. [`ZoneHistograms::zone`] still lends a dense row, built once
//! per row on demand, to tests, examples, the CLI and the benchmark's
//! checks. The dense array
//! survives where it is priced: output transfer and MPI sizes
//! ([`ZoneHistograms::output_bytes`]) stay `n_zones × n_bins × 4` bytes,
//! whatever the host stores.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use zonal_gpusim::TrackedBufU64;

/// Largest bin count a histogram may have: bins index `u16` raster
/// values, so 65,536 bins already cover every value a raster can hold.
pub const MAX_BINS: usize = 1 << 16;

/// The row every absent zone reads as.
static ZERO_ROW: [u64; MAX_BINS] = [0; MAX_BINS];

/// `row_of` entry of a zone with no stored row.
const ABSENT: u32 = u32::MAX;

/// One zone's stored counts: bins `lo..lo + counts.len()`; every other
/// bin is zero. A window may hold zero counts, also at its ends.
#[derive(Debug, Clone, Copy)]
pub struct BinWindow<'a> {
    /// First bin of the window.
    pub lo: usize,
    /// Counts of bins `lo..lo + counts.len()`.
    pub counts: &'a [u64],
}

impl<'a> BinWindow<'a> {
    /// The window of a zone with no stored row.
    const EMPTY: BinWindow<'static> = BinWindow { lo: 0, counts: &[] };

    /// Count of `bin` (zero outside the window).
    #[inline]
    pub fn get(&self, bin: usize) -> u64 {
        bin.checked_sub(self.lo)
            .and_then(|i| self.counts.get(i))
            .map_or(0, |&c| c)
    }

    /// One past the window's last bin.
    #[inline]
    pub fn end(&self) -> usize {
        self.lo + self.counts.len()
    }

    /// The window from its first to its last nonzero count; empty, at bin
    /// 0, if it holds no count. Two windows hold the same values exactly
    /// when their trimmed `lo` and `counts` are equal.
    pub fn trimmed(self) -> BinWindow<'a> {
        let Some(first) = self.counts.iter().position(|&c| c != 0) else {
            return BinWindow::EMPTY;
        };
        let last = self.counts.iter().rposition(|&c| c != 0).unwrap_or(first);
        BinWindow {
            lo: self.lo + first,
            counts: &self.counts[first..=last],
        }
    }

    /// The window as a dense row of `n_bins` counts.
    pub fn to_dense(&self, n_bins: usize) -> Vec<u64> {
        let mut row = vec![0; n_bins];
        row[self.lo..self.end()].copy_from_slice(self.counts);
        row
    }
}

/// A stored row: a bin window plus the dense copy [`ZoneHistograms::zone`]
/// lends out, built on first call and dropped by every write.
#[derive(Debug, Clone)]
struct Row {
    lo: usize,
    counts: Vec<u64>,
    dense: OnceLock<Box<[u64]>>,
}

impl Row {
    fn window(&self) -> BinWindow<'_> {
        BinWindow {
            lo: self.lo,
            counts: &self.counts,
        }
    }

    /// Widen the window to cover bins `lo..hi` (new bins read zero), for
    /// a write.
    fn cover(&mut self, lo: usize, hi: usize) {
        self.dense = OnceLock::new();
        if self.counts.is_empty() {
            self.lo = lo;
            self.counts.resize(hi - lo, 0);
            return;
        }
        if lo < self.lo {
            self.counts
                .splice(0..0, std::iter::repeat_n(0, self.lo - lo));
            self.lo = lo;
        }
        if hi > self.lo + self.counts.len() {
            self.counts.resize(hi - self.lo, 0);
        }
    }
}

/// Per-zone histograms over `n_zones × n_bins`, stored row- and
/// bin-window-sparse: only zones that received a row hold a
/// [`BinWindow`]; every bin outside it, and every zone without a row,
/// reads as zero. Equality and [`checksum`](Self::checksum) see values
/// only, so an absent row equals a stored zero row.
#[derive(Debug, Clone)]
pub struct ZoneHistograms {
    n_zones: usize,
    n_bins: usize,
    /// Row index of each zone in `rows`, or `ABSENT`.
    row_of: Vec<u32>,
    /// Stored rows, in allocation order.
    rows: Vec<Row>,
}

impl ZoneHistograms {
    /// Histograms with no stored rows: every zone reads as zeros.
    pub fn new(n_zones: usize, n_bins: usize) -> Self {
        assert!(
            n_bins <= MAX_BINS,
            "{n_bins} bins exceed the {MAX_BINS}-bin limit"
        );
        ZoneHistograms {
            n_zones,
            n_bins,
            row_of: vec![ABSENT; n_zones],
            rows: Vec::new(),
        }
    }

    #[inline]
    pub fn n_zones(&self) -> usize {
        self.n_zones
    }

    #[inline]
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Zones with a stored row (some may hold only zeros).
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    fn stored(&self, z: usize) -> Option<&Row> {
        match self.row_of[z] {
            ABSENT => None,
            r => Some(&self.rows[r as usize]),
        }
    }

    /// Store a row for zone `z`, which has none.
    fn push_row(&mut self, z: usize, lo: usize, counts: Vec<u64>) {
        debug_assert_eq!(self.row_of[z], ABSENT, "zone {z} already has a row");
        self.row_of[z] = self.rows.len() as u32;
        self.rows.push(Row {
            lo,
            counts,
            dense: OnceLock::new(),
        });
    }

    /// Zone `z`'s row for writing, stored empty first if it had none.
    fn row_mut(&mut self, z: usize) -> &mut Row {
        if self.row_of[z] == ABSENT {
            self.push_row(z, 0, Vec::new());
        }
        &mut self.rows[self.row_of[z] as usize]
    }

    /// Zone `z`'s stored window (empty if the zone has no row).
    #[inline]
    pub fn window(&self, z: usize) -> BinWindow<'_> {
        self.stored(z).map_or(BinWindow::EMPTY, Row::window)
    }

    /// One zone's histogram as a dense row of `n_bins` counts. A window
    /// narrower than every bin is expanded once, on the first call after
    /// the zone's last write; read [`window`](Self::window) where the
    /// window will do.
    pub fn zone(&self, z: usize) -> &[u64] {
        match self.stored(z) {
            None => &ZERO_ROW[..self.n_bins],
            Some(row) if row.counts.len() == self.n_bins => &row.counts,
            Some(row) => row
                .dense
                .get_or_init(|| row.window().to_dense(self.n_bins).into_boxed_slice()),
        }
    }

    /// Count of zone `z`'s `bin`. Panics if `bin >= n_bins`.
    #[inline]
    pub fn get(&self, z: usize, bin: usize) -> u64 {
        assert!(bin < self.n_bins, "bin {bin} out of {} bins", self.n_bins);
        self.window(z).get(bin)
    }

    /// One zone's histogram for writing: its window is widened to every
    /// bin (stored as zeros first if the zone had no row).
    pub fn zone_mut(&mut self, z: usize) -> &mut [u64] {
        let n_bins = self.n_bins;
        let row = self.row_mut(z);
        row.cover(0, n_bins);
        &mut row.counts
    }

    /// Add `count` to zone `z`'s `bin`, widening its window to the bin.
    /// Panics if `bin >= n_bins`.
    pub fn add(&mut self, z: usize, bin: usize, count: u64) {
        assert!(bin < self.n_bins, "bin {bin} out of {} bins", self.n_bins);
        let row = self.row_mut(z);
        row.cover(bin, bin + 1);
        row.counts[bin - row.lo] += count;
    }

    /// Stored rows as `(zone, window)`, in zone order.
    pub fn rows(&self) -> impl Iterator<Item = (usize, BinWindow<'_>)> + '_ {
        (0..self.n_zones).filter_map(|z| self.stored(z).map(|row| (z, row.window())))
    }

    /// Bin-wise accumulate another result (the master-node combine of the
    /// cluster experiment, and the per-partition accumulate of the
    /// single-node run). Touches only `other`'s windows: each row widens
    /// to the union of the two windows and adds `other`'s counts.
    pub fn merge(&mut self, other: &ZoneHistograms) {
        assert_eq!(self.n_zones, other.n_zones, "zone count mismatch");
        assert_eq!(self.n_bins, other.n_bins, "bin count mismatch");
        for (z, w) in other.rows() {
            let w = w.trimmed();
            if w.counts.is_empty() {
                continue;
            }
            let row = self.row_mut(z);
            row.cover(w.lo, w.end());
            let at = w.lo - row.lo;
            for (a, b) in row.counts[at..].iter_mut().zip(w.counts) {
                *a += b;
            }
        }
    }

    /// Total cells counted in zone `z`.
    pub fn zone_total(&self, z: usize) -> u64 {
        self.window(z).counts.iter().sum()
    }

    /// Total cells counted over all zones.
    pub fn total(&self) -> u64 {
        self.rows.iter().flat_map(|row| &row.counts).sum()
    }

    /// Word-wise FNV-1a over the shape, then, for each zone with a count,
    /// in zone order, its index, first counted bin, trimmed window length
    /// and counts — the checksum cluster result messages carry. It is a
    /// function of the values: an absent row and a stored zero row hash
    /// alike. A change to one count that leaves the trimmed window in
    /// place always changes it.
    pub fn checksum(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME);
        let mut h = mix(
            mix(0xcbf2_9ce4_8422_2325, self.n_zones as u64),
            self.n_bins as u64,
        );
        for (z, w) in self.rows() {
            let w = w.trimmed();
            if w.counts.is_empty() {
                continue;
            }
            h = mix(mix(mix(h, z as u64), w.lo as u64), w.counts.len() as u64);
            h = w.counts.iter().fold(h, |h, &c| mix(h, c));
        }
        h
    }

    /// Serialized byte size of the result (the device→host output transfer
    /// the end-to-end time accounts for): the paper's dense array of
    /// 4-byte bins, whatever the host stores.
    pub fn output_bytes(&self) -> u64 {
        (self.n_zones * self.n_bins * 4) as u64
    }
}

impl PartialEq for ZoneHistograms {
    fn eq(&self, other: &Self) -> bool {
        self.n_zones == other.n_zones
            && self.n_bins == other.n_bins
            && (0..self.n_zones).all(|z| {
                let (a, b) = (self.window(z).trimmed(), other.window(z).trimmed());
                a.lo == b.lo && a.counts == b.counts
            })
    }
}

impl Eq for ZoneHistograms {}

/// The serialized form of [`ZoneHistograms`]: the shape, then each stored
/// row as `(zone, first bin, counts)` in zone order.
#[derive(Serialize, Deserialize)]
struct StoredRows {
    n_zones: usize,
    n_bins: usize,
    rows: Vec<(usize, usize, Vec<u64>)>,
}

impl Serialize for ZoneHistograms {
    fn to_value(&self) -> serde::Value {
        StoredRows {
            n_zones: self.n_zones,
            n_bins: self.n_bins,
            rows: self
                .rows()
                .map(|(z, w)| (z, w.lo, w.counts.to_vec()))
                .collect(),
        }
        .to_value()
    }
}

impl Deserialize for ZoneHistograms {
    /// Rejects a shape past [`MAX_BINS`], a zone out of range or stored
    /// twice, and a window past the last bin.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let stored = StoredRows::from_value(v)?;
        if stored.n_bins > MAX_BINS {
            return Err(serde::Error(format!(
                "{} bins exceed the {MAX_BINS}-bin limit",
                stored.n_bins
            )));
        }
        let mut out = ZoneHistograms::new(stored.n_zones, stored.n_bins);
        for (z, lo, counts) in stored.rows {
            let fits = lo
                .checked_add(counts.len())
                .is_some_and(|end| end <= stored.n_bins);
            if z >= out.n_zones || out.row_of[z] != ABSENT || !fits {
                return Err(serde::Error(format!(
                    "bad row: zone {z}, bins {lo}+{} of {} zones × {} bins",
                    counts.len(),
                    out.n_zones,
                    out.n_bins
                )));
            }
            out.push_row(z, lo, counts);
        }
        Ok(out)
    }
}

/// The pipeline's zone accumulator: the paper's `his_d_polygon` with one
/// dense row per zone a partition touches, plus the zone → row map Steps
/// 3 and 4 address it through. Rows are atomic, since concurrent blocks
/// may update the same zone. The buffer is sanitizer-tracked under the
/// paper's device-array name; without the `sanitize` feature it is a
/// zero-cost wrapper over the plain atomic buffer.
#[derive(Debug)]
pub struct ZoneRows {
    n_zones: usize,
    n_bins: usize,
    row_of: Vec<u32>,
    buf: TrackedBufU64,
}

impl ZoneRows {
    /// Zeroed rows for the zones `touched` marks (`touched.len()` is the
    /// layer's zone count), in zone order.
    pub fn new(touched: &[bool], n_bins: usize) -> Self {
        assert!(
            n_bins <= MAX_BINS,
            "{n_bins} bins exceed the {MAX_BINS}-bin limit"
        );
        let mut n_rows = 0u32;
        let row_of: Vec<u32> = touched
            .iter()
            .map(|&t| {
                if t {
                    n_rows += 1;
                    n_rows - 1
                } else {
                    ABSENT
                }
            })
            .collect();
        ZoneRows {
            n_zones: touched.len(),
            n_bins,
            row_of,
            buf: TrackedBufU64::labelled("his_d_polygon", n_rows as usize * n_bins),
        }
    }

    #[inline]
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Atomically add `count` to zone `pid`'s `bin`. Panics if `pid` was
    /// not marked touched.
    #[inline]
    pub fn add(&self, pid: u32, bin: usize, count: u64) {
        let row = self.row_of[pid as usize];
        debug_assert_ne!(row, ABSENT, "zone {pid} has no row");
        self.buf.add(row as usize * self.n_bins + bin, count);
    }

    /// The device→host copy of the accumulated rows: each dense row
    /// trimmed to its first..last nonzero bin. A row with no count is
    /// not stored.
    pub fn into_histograms(self) -> ZoneHistograms {
        let data = self.buf.into_vec();
        let mut out = ZoneHistograms::new(self.n_zones, self.n_bins);
        for (z, &r) in self.row_of.iter().enumerate() {
            if r == ABSENT {
                continue;
            }
            let start = r as usize * self.n_bins;
            let w = BinWindow {
                lo: 0,
                counts: &data[start..start + self.n_bins],
            }
            .trimmed();
            if !w.counts.is_empty() {
                out.push_row(z, w.lo, w.counts.to_vec());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let h = ZoneHistograms::new(3, 10);
        assert_eq!(h.total(), 0);
        assert_eq!(h.zone(2).len(), 10);
        assert_eq!(h.n_rows(), 0);
    }

    #[test]
    fn add_and_get() {
        let mut h = ZoneHistograms::new(2, 5);
        h.add(1, 3, 7);
        h.add(1, 3, 2);
        h.add(0, 0, 1);
        assert_eq!(h.get(1, 3), 9);
        assert_eq!(h.zone_total(1), 9);
        assert_eq!(h.total(), 10);
    }

    #[test]
    fn absent_zone_reads_as_zeros() {
        let mut h = ZoneHistograms::new(4, 6);
        h.add(2, 1, 3);
        assert_eq!(h.zone(0), &[0; 6]);
        assert_eq!(h.get(3, 5), 0);
        assert_eq!(h.zone_total(3), 0);
        assert_eq!(h.n_rows(), 1);
    }

    #[test]
    fn absent_row_equals_explicit_zero_row() {
        let mut a = ZoneHistograms::new(3, 4);
        let mut b = ZoneHistograms::new(3, 4);
        a.add(1, 2, 5);
        b.add(1, 2, 5);
        b.zone_mut(0); // stored, but all zeros
        assert_eq!(b.n_rows(), 2);
        assert_eq!(a, b);
        assert_eq!(b, a);
        assert_eq!(a.checksum(), b.checksum(), "checksum sees values only");
        b.add(0, 3, 1);
        assert_ne!(a, b);
        assert_ne!(b, a);
        assert_ne!(a, ZoneHistograms::new(3, 5), "shape is compared");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ZoneHistograms::new(2, 4);
        a.add(0, 1, 5);
        let mut b = ZoneHistograms::new(2, 4);
        b.add(0, 1, 3);
        b.add(1, 2, 10);
        a.merge(&b);
        assert_eq!(a.get(0, 1), 8);
        assert_eq!(a.get(1, 2), 10);
        assert_eq!(a.total(), 18);
    }

    #[test]
    fn merge_disjoint_and_overlapping_rows() {
        let mut a = ZoneHistograms::new(6, 3);
        a.add(4, 0, 1);
        a.add(1, 2, 2);
        let mut disjoint = ZoneHistograms::new(6, 3);
        disjoint.add(0, 1, 7);
        disjoint.add(5, 0, 9);
        a.merge(&disjoint);
        assert_eq!(a.n_rows(), 4, "disjoint rows are appended");
        let mut overlapping = ZoneHistograms::new(6, 3);
        overlapping.add(4, 0, 10);
        overlapping.add(0, 2, 1);
        a.merge(&overlapping);
        assert_eq!(a.n_rows(), 4, "overlapping rows add in place");
        assert_eq!(a.zone(0), &[0, 7, 1]);
        assert_eq!(a.zone(1), &[0, 0, 2]);
        assert_eq!(a.zone(4), &[11, 0, 0]);
        assert_eq!(a.zone(5), &[9, 0, 0]);
        assert_eq!(a.zone(2), &[0, 0, 0]);
        let zones: Vec<usize> = a.rows().map(|(z, _)| z).collect();
        assert_eq!(zones, vec![0, 1, 4, 5], "rows iterate in zone order");
        assert_eq!(a.total(), 30);
    }

    #[test]
    fn merge_widens_windows_to_their_union() {
        let mut a = ZoneHistograms::new(1, 12);
        a.add(0, 5, 1);
        a.add(0, 6, 2);
        let mut below = ZoneHistograms::new(1, 12);
        below.zone_mut(0)[2] = 3; // a full-width row, trimmed on merge
        a.merge(&below);
        let w = a.window(0);
        assert_eq!((w.lo, w.counts), (2, &[3, 0, 0, 1, 2][..]));
        let mut above = ZoneHistograms::new(1, 12);
        above.add(0, 9, 4);
        above.add(0, 6, 1);
        a.merge(&above);
        let w = a.window(0);
        assert_eq!((w.lo, w.counts), (2, &[3, 0, 0, 1, 3, 0, 0, 4][..]));
        assert_eq!(a.zone(0), &[0, 0, 3, 0, 0, 1, 3, 0, 0, 4, 0, 0]);
        assert_eq!(a.n_rows(), 1);
    }

    #[test]
    fn dense_zone_follows_writes() {
        let mut h = ZoneHistograms::new(2, 4);
        h.add(1, 2, 1);
        assert_eq!(h.zone(1), &[0, 0, 1, 0]);
        h.add(1, 0, 5);
        assert_eq!(h.zone(1), &[5, 0, 1, 0], "add drops the dense copy");
        let mut more = ZoneHistograms::new(2, 4);
        more.add(1, 3, 2);
        h.merge(&more);
        assert_eq!(h.zone(1), &[5, 0, 1, 2], "merge drops the dense copy");
        h.zone_mut(1)[1] = 7;
        assert_eq!(h.zone(1), &[5, 7, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "bin 4 out of 4 bins")]
    fn add_past_last_bin_panics() {
        ZoneHistograms::new(1, 4).add(0, 4, 1);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn merge_shape_checked() {
        let mut a = ZoneHistograms::new(2, 4);
        let b = ZoneHistograms::new(2, 5);
        a.merge(&b);
    }

    #[test]
    fn serde_roundtrip_of_sparse_value() {
        let mut h = ZoneHistograms::new(5, 4);
        h.add(3, 1, 11);
        h.add(0, 3, u64::MAX);
        let back: ZoneHistograms =
            serde_json::from_str(&serde_json::to_string(&h).expect("serialize")).expect("parse");
        assert_eq!(back, h);
        assert_eq!(back.n_rows(), 2);
        assert_eq!(back.checksum(), h.checksum());
        assert_eq!(back.zone(2), &[0; 4]);
    }

    #[test]
    fn deserialize_rejects_bad_rows() {
        let parse = |json: &str| serde_json::from_str::<ZoneHistograms>(json);
        let good = r#"{"n_zones": 2, "n_bins": 4, "rows": [[1, 2, [5, 6]]]}"#;
        assert_eq!(parse(good).expect("valid").zone(1), &[0, 0, 5, 6]);
        for bad in [
            r#"{"n_zones": 2, "n_bins": 4, "rows": [[2, 0, [1]]]}"#,
            r#"{"n_zones": 2, "n_bins": 4, "rows": [[1, 3, [1, 1]]]}"#,
            r#"{"n_zones": 2, "n_bins": 4, "rows": [[1, 0, [1]], [1, 2, [1]]]}"#,
            r#"{"n_zones": 2, "n_bins": 70000, "rows": []}"#,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn checksum_covers_shape_rows_and_counts() {
        let mut h = ZoneHistograms::new(4, 3);
        h.add(2, 1, 5);
        let base = h.checksum();
        assert_eq!(base, h.clone().checksum());
        assert_ne!(base, ZoneHistograms::new(4, 3).checksum(), "row set");
        assert_ne!(
            ZoneHistograms::new(4, 3).checksum(),
            ZoneHistograms::new(5, 3).checksum(),
            "shape, with no rows"
        );
        let mut moved = ZoneHistograms::new(4, 3);
        moved.add(1, 1, 5);
        assert_ne!(base, moved.checksum(), "row index");
        let mut flipped = h.clone();
        flipped.zone_mut(2)[1] ^= 1;
        assert_ne!(base, flipped.checksum(), "count");
        let mut shifted = ZoneHistograms::new(4, 3);
        shifted.add(2, 2, 5);
        assert_ne!(base, shifted.checksum(), "first bin");
    }

    #[test]
    fn zone_rows_accumulate_touched_zones_only() {
        let rows = ZoneRows::new(&[false, true, false, true, true], 3);
        rows.add(3, 2, 4);
        rows.add(1, 0, 1);
        rows.add(3, 2, 1);
        let h = rows.into_histograms();
        assert_eq!(h.n_zones(), 5);
        assert_eq!(h.n_rows(), 2, "a touched zone with no count stores no row");
        assert_eq!(h.zone(1), &[1, 0, 0]);
        assert_eq!(h.zone(3), &[0, 0, 5]);
        assert_eq!(h.zone(0), &[0, 0, 0]);
        let w = h.window(3);
        assert_eq!((w.lo, w.counts), (2, &[5][..]), "rows are trimmed");
    }

    #[test]
    fn output_bytes_uses_u32_bins() {
        let h = ZoneHistograms::new(3100, 5000);
        assert_eq!(h.output_bytes(), 3100 * 5000 * 4);
    }
}
