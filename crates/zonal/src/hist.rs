//! Zone histogram containers.
//!
//! The paper's `his_d_polygon` is a dense `n_zones × n_bins` device array.
//! On the host a partition touches only the zones it has inside or
//! intersect pairs with — tens of a 3,100-county layer — so both the
//! result type and the pipeline's accumulator store *rows* for touched
//! zones only. The dense array survives where it is priced: output
//! transfer and MPI sizes ([`ZoneHistograms::output_bytes`]) stay
//! `n_zones × n_bins × 4` bytes, whatever the host stores.

use serde::{Deserialize, Serialize};
use zonal_gpusim::TrackedBufU64;

/// Largest bin count a histogram may have: bins index `u16` raster
/// values, so 65,536 bins already cover every value a raster can hold.
pub const MAX_BINS: usize = 1 << 16;

/// The row every absent zone reads as.
static ZERO_ROW: [u64; MAX_BINS] = [0; MAX_BINS];

/// `row_of` entry of a zone with no stored row.
const ABSENT: u32 = u32::MAX;

/// Per-zone histograms over `n_zones × n_bins`, stored row-sparse: only
/// zones that received a row hold `n_bins` counts; every other zone reads
/// as zeros through [`zone`](Self::zone) and [`get`](Self::get).
/// Equality compares values, so an absent row equals a stored zero row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ZoneHistograms {
    n_zones: usize,
    n_bins: usize,
    /// Row index of each zone in `data`, or `ABSENT`.
    row_of: Vec<u32>,
    /// Stored rows, `n_bins` counts each, in allocation order.
    data: Vec<u64>,
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
            data: Vec::new(),
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
        self.data.len() / self.n_bins.max(1)
    }

    fn stored(&self, z: usize) -> Option<&[u64]> {
        match self.row_of[z] {
            ABSENT => None,
            r => {
                let start = r as usize * self.n_bins;
                Some(&self.data[start..start + self.n_bins])
            }
        }
    }

    /// One zone's histogram (zeros if the zone has no stored row).
    #[inline]
    pub fn zone(&self, z: usize) -> &[u64] {
        self.stored(z).unwrap_or(&ZERO_ROW[..self.n_bins])
    }

    #[inline]
    pub fn get(&self, z: usize, bin: usize) -> u64 {
        self.zone(z)[bin]
    }

    /// One zone's histogram for writing, stored as a zero row first if the
    /// zone had none.
    pub fn zone_mut(&mut self, z: usize) -> &mut [u64] {
        if self.row_of[z] == ABSENT {
            self.row_of[z] = self.n_rows() as u32;
            self.data.resize(self.data.len() + self.n_bins, 0);
        }
        let start = self.row_of[z] as usize * self.n_bins;
        &mut self.data[start..start + self.n_bins]
    }

    #[inline]
    pub fn add(&mut self, z: usize, bin: usize, count: u64) {
        self.zone_mut(z)[bin] += count;
    }

    /// Stored rows as `(zone, counts)`, in zone order.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &[u64])> + '_ {
        (0..self.n_zones).filter_map(|z| self.stored(z).map(|row| (z, row)))
    }

    /// Bin-wise accumulate another result (the master-node combine of the
    /// cluster experiment, and the per-partition accumulate of the
    /// single-node run). Touches only `other`'s stored rows.
    pub fn merge(&mut self, other: &ZoneHistograms) {
        assert_eq!(self.n_zones, other.n_zones, "zone count mismatch");
        assert_eq!(self.n_bins, other.n_bins, "bin count mismatch");
        for (z, row) in other.rows() {
            if self.row_of[z] == ABSENT {
                self.row_of[z] = self.n_rows() as u32;
                self.data.extend_from_slice(row);
            } else {
                for (a, b) in self.zone_mut(z).iter_mut().zip(row) {
                    *a += b;
                }
            }
        }
    }

    /// Total cells counted in zone `z`.
    pub fn zone_total(&self, z: usize) -> u64 {
        self.zone(z).iter().sum()
    }

    /// Total cells counted over all zones.
    pub fn total(&self) -> u64 {
        self.data.iter().sum()
    }

    /// Word-wise FNV-1a over the shape, then each stored row's zone index
    /// and counts in zone order — the checksum cluster result messages
    /// carry. It covers the shape even when no row is stored, and a change
    /// to any single covered word always changes it.
    pub fn checksum(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME);
        let mut h = mix(
            mix(0xcbf2_9ce4_8422_2325, self.n_zones as u64),
            self.n_bins as u64,
        );
        for (z, row) in self.rows() {
            h = row.iter().fold(mix(h, z as u64), |h, &c| mix(h, c));
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
            && (0..self.n_zones).all(|z| match (self.stored(z), other.stored(z)) {
                (None, None) => true,
                (Some(a), Some(b)) => a == b,
                (Some(row), None) | (None, Some(row)) => row.iter().all(|&c| c == 0),
            })
    }
}

impl Eq for ZoneHistograms {}

/// The pipeline's zone accumulator: the paper's `his_d_polygon` with one
/// row per zone a partition touches, plus the zone → row map Steps 3 and
/// 4 address it through. Rows are atomic, since concurrent blocks may
/// update the same zone. The buffer is sanitizer-tracked under the
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

    /// The accumulated rows as a result, without copying them.
    pub fn into_histograms(self) -> ZoneHistograms {
        ZoneHistograms {
            n_zones: self.n_zones,
            n_bins: self.n_bins,
            row_of: self.row_of,
            data: self.buf.into_vec(),
        }
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
    }

    #[test]
    fn zone_rows_accumulate_touched_zones_only() {
        let rows = ZoneRows::new(&[false, true, false, true], 3);
        rows.add(3, 2, 4);
        rows.add(1, 0, 1);
        rows.add(3, 2, 1);
        let h = rows.into_histograms();
        assert_eq!(h.n_zones(), 4);
        assert_eq!(h.n_rows(), 2);
        assert_eq!(h.zone(1), &[1, 0, 0]);
        assert_eq!(h.zone(3), &[0, 0, 5]);
        assert_eq!(h.zone(0), &[0, 0, 0]);
    }

    #[test]
    fn output_bytes_uses_u32_bins() {
        let h = ZoneHistograms::new(3100, 5000);
        assert_eq!(h.output_bytes(), 3100 * 5000 * 4);
    }
}
