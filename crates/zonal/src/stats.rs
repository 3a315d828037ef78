//! Classic zonal statistics derived from zone histograms.
//!
//! The paper frames zonal histogramming as a generalization of traditional
//! Zonal Statistics, "where only major statistics, such as min, max,
//! average, count and standard deviation, are reported as a table with each
//! row corresponds to a zone". This module closes that loop: once the
//! histograms exist, every one of those statistics (plus any quantile)
//! falls out in `O(bins)` per zone with no further raster access.

use crate::hist::{BinWindow, ZoneHistograms};
use serde::{Deserialize, Serialize};

/// One zone's summary statistics (a row of the traditional zonal-stats
/// table). Bin indices stand in for values, which is exact for integer
/// rasters binned at width 1 (the paper's elevation-in-meters setting).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZonalStats {
    /// Cells counted in the zone.
    pub count: u64,
    /// Smallest value present, if any cell was counted.
    pub min: Option<u16>,
    /// Largest value present.
    pub max: Option<u16>,
    /// Mean value.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Median (lower median for even counts).
    pub median: Option<u16>,
}

/// Compute [`ZonalStats`] from one histogram.
pub fn stats_of_histogram(bins: &[u64]) -> ZonalStats {
    stats_of_window(BinWindow {
        lo: 0,
        counts: bins,
    })
}

/// Compute [`ZonalStats`] from one zone's bin window.
pub fn stats_of_window(w: BinWindow) -> ZonalStats {
    let (lo, bins) = (w.lo, w.counts);
    let count: u64 = bins.iter().sum();
    if count == 0 {
        return ZonalStats {
            count: 0,
            min: None,
            max: None,
            mean: 0.0,
            std_dev: 0.0,
            median: None,
        };
    }
    let mut min = None;
    let mut max = None;
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for (v, &c) in (lo..).zip(bins) {
        if c == 0 {
            continue;
        }
        if min.is_none() {
            min = Some(v as u16);
        }
        max = Some(v as u16);
        let cf = c as f64;
        sum += v as f64 * cf;
        sum_sq += (v as f64) * (v as f64) * cf;
    }
    let n = count as f64;
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0);

    // Lower median: smallest v with cumulative count ≥ ceil(n/2).
    let target = count.div_ceil(2);
    let mut acc = 0u64;
    let mut median = None;
    for (v, &c) in (lo..).zip(bins) {
        acc += c;
        if acc >= target {
            median = Some(v as u16);
            break;
        }
    }

    ZonalStats {
        count,
        min,
        max,
        mean,
        std_dev: var.sqrt(),
        median,
    }
}

/// The full zonal-statistics table: one row per zone.
pub fn zonal_statistics(hists: &ZoneHistograms) -> Vec<ZonalStats> {
    (0..hists.n_zones())
        .map(|z| stats_of_window(hists.window(z)))
        .collect()
}

/// Quantile from a histogram: the smallest value whose cumulative frequency
/// reaches `q` (0 ≤ q ≤ 1). `q = 0.5` is the lower median.
pub fn histogram_quantile(bins: &[u64], q: f64) -> Option<u16> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    let count: u64 = bins.iter().sum();
    if count == 0 {
        return None;
    }
    let target = ((count as f64 * q).ceil() as u64).max(1);
    let mut acc = 0u64;
    for (v, &c) in bins.iter().enumerate() {
        acc += c;
        if acc >= target {
            return Some(v as u16);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_zone() {
        let s = stats_of_histogram(&[0, 0, 0]);
        assert_eq!(s.count, 0);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert_eq!(s.median, None);
    }

    #[test]
    fn single_value() {
        let mut bins = vec![0u64; 10];
        bins[7] = 42;
        let s = stats_of_histogram(&bins);
        assert_eq!(s.count, 42);
        assert_eq!(s.min, Some(7));
        assert_eq!(s.max, Some(7));
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, Some(7));
    }

    #[test]
    fn known_distribution() {
        // Values: one 0, two 1s, one 2 => mean 1, var 0.5.
        let bins = [1u64, 2, 1];
        let s = stats_of_histogram(&bins);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 1.0);
        assert!((s.std_dev - (0.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.median, Some(1));
        assert_eq!(s.min, Some(0));
        assert_eq!(s.max, Some(2));
    }

    #[test]
    fn median_even_count_takes_lower() {
        // Two 3s and two 9s: lower median is 3.
        let mut bins = vec![0u64; 10];
        bins[3] = 2;
        bins[9] = 2;
        assert_eq!(stats_of_histogram(&bins).median, Some(3));
    }

    #[test]
    fn quantiles() {
        let bins = [10u64, 10, 10, 10]; // uniform over 0..4
        assert_eq!(histogram_quantile(&bins, 0.0), Some(0));
        assert_eq!(histogram_quantile(&bins, 0.25), Some(0));
        assert_eq!(histogram_quantile(&bins, 0.26), Some(1));
        assert_eq!(histogram_quantile(&bins, 1.0), Some(3));
        assert_eq!(histogram_quantile(&[0, 0], 0.5), None);
    }

    #[test]
    fn table_per_zone() {
        let mut h = ZoneHistograms::new(2, 4);
        h.add(0, 1, 3);
        h.add(1, 2, 5);
        h.add(1, 3, 5);
        let table = zonal_statistics(&h);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].count, 3);
        assert_eq!(table[0].mean, 1.0);
        assert_eq!(table[1].count, 10);
        assert!((table[1].mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn stats_match_direct_computation() {
        // Cross-check against a direct pass over the expanded values.
        let bins = [5u64, 0, 3, 7, 0, 2];
        let mut values = Vec::new();
        for (v, &c) in bins.iter().enumerate() {
            values.extend(std::iter::repeat_n(v as f64, c as usize));
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let s = stats_of_histogram(&bins);
        assert!((s.mean - mean).abs() < 1e-12);
        assert!((s.std_dev - var.sqrt()).abs() < 1e-12);
    }
}
