//! The request/response model: what a user asks and what comes back.

/// Which zones a query wants histograms for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneSelection {
    /// Every zone in the layer.
    All,
    /// An explicit subset of zone ids (deduplicated order preserved in
    /// the response).
    Subset(Vec<u32>),
}

impl ZoneSelection {
    /// Materialize the selected ids against a layer of `n_zones` zones.
    pub fn resolve(&self, n_zones: usize) -> Vec<u32> {
        match self {
            ZoneSelection::All => (0..n_zones as u32).collect(),
            ZoneSelection::Subset(ids) => ids.clone(),
        }
    }
}

/// A typed zonal-histogram query.
///
/// Answers are defined as: run the four-step pipeline over every
/// partition of the selected band at `n_bins` bins, merge in partition
/// order, and return the selected zones' rows — exactly what
/// `zonal_core::pipeline::run_partitions` computes. The service may
/// batch, cache, or memoize however it likes, but the bytes it returns
/// must be identical to that direct computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZonalQuery {
    /// Raster band to histogram (stores are usually single-band: 0).
    pub band: u32,
    /// Histogram bin count for this answer.
    pub n_bins: usize,
    /// Zones to return.
    pub zones: ZoneSelection,
}

impl ZonalQuery {
    /// Query every zone of band 0 at `n_bins` bins.
    pub fn all_zones(n_bins: usize) -> Self {
        ZonalQuery {
            band: 0,
            n_bins,
            zones: ZoneSelection::All,
        }
    }

    /// Query a zone subset of band 0 at `n_bins` bins.
    pub fn zone_subset(n_bins: usize, zones: Vec<u32>) -> Self {
        ZonalQuery {
            band: 0,
            n_bins,
            zones: ZoneSelection::Subset(zones),
        }
    }

    /// The batching key: queries with equal plans can share one
    /// pipeline pass (same band, same bin spec — zone selection only
    /// affects the fan-out, not the pass).
    pub fn plan_key(&self) -> PlanKey {
        PlanKey {
            band: self.band,
            n_bins: self.n_bins,
        }
    }
}

/// Coalescing and cache key for batched execution: queries sharing a
/// `PlanKey` touch the same raster partitions with the same kernel
/// configuration, so one Step 0 decode and one Step 1–4 pass per
/// partition serves all of them, and the merged answer serves every
/// later query of the plan until the raster changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanKey {
    pub band: u32,
    pub n_bins: usize,
}

/// One zone's answer: the zone id and its histogram row.
pub type ZoneRow = (u32, Vec<u64>);

/// A completed answer.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Raster-store version this answer was computed against. A later
    /// raster update bumps the version; cached answers for old versions
    /// are never served.
    pub raster_version: u64,
    /// Bin spec of the rows.
    pub n_bins: usize,
    /// Requested zones in request order, each with its full histogram.
    pub rows: Vec<ZoneRow>,
    /// True iff the plan's answer was already cached when the batch
    /// ran (no pipeline work ran for this request).
    pub from_cache: bool,
}

impl QueryResponse {
    /// Total cells counted across the returned rows.
    pub fn total(&self) -> u64 {
        self.rows
            .iter()
            .map(|(_, row)| row.iter().sum::<u64>())
            .sum()
    }

    /// The row for zone `z`, if requested.
    pub fn zone(&self, z: u32) -> Option<&[u64]> {
        self.rows
            .iter()
            .find(|(id, _)| *id == z)
            .map(|(_, row)| row.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_resolution() {
        assert_eq!(ZoneSelection::All.resolve(3), vec![0, 1, 2]);
        assert_eq!(
            ZoneSelection::Subset(vec![2, 0]).resolve(3),
            vec![2, 0],
            "subset order is preserved"
        );
    }

    #[test]
    fn plan_key_ignores_zone_selection() {
        let a = ZonalQuery::all_zones(64);
        let b = ZonalQuery::zone_subset(64, vec![1, 2]);
        assert_eq!(a.plan_key(), b.plan_key());
        assert_ne!(a.plan_key(), ZonalQuery::all_zones(128).plan_key());
    }

    #[test]
    fn response_accessors() {
        let resp = QueryResponse {
            raster_version: 1,
            n_bins: 4,
            rows: vec![(2, vec![1, 2, 3, 4]), (0, vec![5, 0, 0, 0])],
            from_cache: false,
        };
        assert_eq!(resp.total(), 15);
        assert_eq!(resp.zone(0), Some(&[5, 0, 0, 0][..]));
        assert_eq!(resp.zone(7), None);
    }
}
