//! The versioned raster/zone store queries are answered against.
//!
//! A [`RasterStore`] owns one zone layer and, per band, the partitioned
//! raster sources (typically BQ-Tree-compressed, so Step 0 is a real
//! decode). The store is shared by every in-flight query; readers take
//! an immutable [`StoreSnapshot`] and never block each other.
//!
//! **Versioning is the cache-invalidation mechanism.** Every raster
//! update atomically swaps the source set and bumps the version; the
//! plan cache's key is (version, plan), so answers merged from
//! superseded rasters can never be served (they age out of the LRU
//! instead of being chased down).

use std::sync::{Arc, RwLock};
use zonal_core::pipeline::Zones;
use zonal_raster::{TileData, TileGrid, TileSource, TileStrip};

/// A type-erased, shareable tile source: the store holds partitions of
/// any [`TileSource`] implementation behind one handle type.
#[derive(Clone)]
pub struct PartitionSource(Arc<dyn TileSource + Send + Sync>);

impl PartitionSource {
    pub fn new(source: impl TileSource + Send + 'static) -> Self {
        PartitionSource(Arc::new(source))
    }

    /// Total raster cells in this partition.
    pub fn cells(&self) -> u64 {
        let g = self.0.grid();
        (g.raster_rows() * g.raster_cols()) as u64
    }
}

impl TileSource for PartitionSource {
    fn grid(&self) -> &TileGrid {
        self.0.grid()
    }

    fn tile(&self, tx: usize, ty: usize) -> TileData {
        self.0.tile(tx, ty)
    }

    fn strip(&self, tile_rows: std::ops::Range<usize>) -> TileStrip {
        self.0.strip(tile_rows)
    }

    fn tile_encoded_bytes(&self, tx: usize, ty: usize) -> usize {
        self.0.tile_encoded_bytes(tx, ty)
    }
}

/// One band's partitioned raster.
pub type Band = Vec<PartitionSource>;

/// An immutable view of the store at one version. Cheap to clone; holds
/// the sources alive even if the store is updated mid-query, so a batch
/// always computes against one consistent raster.
#[derive(Clone)]
pub struct StoreSnapshot {
    pub version: u64,
    bands: Arc<Vec<Band>>,
}

impl StoreSnapshot {
    pub fn n_bands(&self) -> usize {
        self.bands.len()
    }

    /// Partitions of `band` (empty slice for an unknown band — callers
    /// validate band ids at admission).
    pub fn band(&self, band: u32) -> &[PartitionSource] {
        self.bands.get(band as usize).map_or(&[], |b| b.as_slice())
    }
}

/// The shared serving state: one zone layer + versioned raster bands.
pub struct RasterStore {
    zones: Arc<Zones>,
    inner: RwLock<StoreSnapshot>,
}

impl RasterStore {
    /// A single-band store (the common case).
    pub fn new(zones: Zones, partitions: Band) -> Self {
        Self::with_bands(zones, vec![partitions])
    }

    /// A multi-band store: one partition set per band.
    pub fn with_bands(zones: Zones, bands: Vec<Band>) -> Self {
        assert!(!bands.is_empty(), "store needs at least one band");
        assert!(
            bands.iter().all(|b| !b.is_empty()),
            "every band needs at least one partition"
        );
        RasterStore {
            zones: Arc::new(zones),
            inner: RwLock::new(StoreSnapshot {
                version: 1,
                bands: Arc::new(bands),
            }),
        }
    }

    pub fn zones(&self) -> &Arc<Zones> {
        &self.zones
    }

    /// Current consistent view.
    pub fn snapshot(&self) -> StoreSnapshot {
        self.inner.read().unwrap_or_else(|p| p.into_inner()).clone()
    }

    pub fn version(&self) -> u64 {
        self.inner.read().unwrap_or_else(|p| p.into_inner()).version
    }

    /// Replace every band's sources and bump the version. Returns the
    /// new version. In-flight batches keep computing against their
    /// snapshot; plan-cache entries of the old version become
    /// unreachable.
    pub fn update(&self, bands: Vec<Band>) -> u64 {
        assert!(!bands.is_empty(), "store needs at least one band");
        assert!(
            bands.iter().all(|b| !b.is_empty()),
            "every band needs at least one partition"
        );
        let mut inner = self.inner.write().unwrap_or_else(|p| p.into_inner());
        inner.version += 1;
        inner.bands = Arc::new(bands);
        zonal_obs::instant("serve raster update", &[("version", inner.version)]);
        inner.version
    }

    /// Single-band convenience for [`RasterStore::update`].
    pub fn update_band0(&self, partitions: Band) -> u64 {
        self.update(vec![partitions])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_geo::{Polygon, PolygonLayer};
    use zonal_raster::{GeoTransform, Raster};

    fn tiny_store() -> RasterStore {
        let zones = Zones::new(PolygonLayer::from_polygons(vec![Polygon::rect(
            0.0, 0.0, 4.0, 4.0,
        )]));
        let gt = GeoTransform::new(0.0, 0.0, 0.5, 0.5);
        let raster = Raster::from_fn(8, 8, gt, |_r, c| c as u16);
        let grid = TileGrid::new(8, 8, 4, gt);
        let bq = zonal_bqtree::compress_source(&raster.tile_source(&grid));
        RasterStore::new(zones, vec![PartitionSource::new(bq)])
    }

    #[test]
    fn snapshot_is_stable_across_updates() {
        let store = tiny_store();
        let snap = store.snapshot();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.band(0).len(), 1);
        let cells_before = snap.band(0)[0].cells();

        let gt = GeoTransform::new(0.0, 0.0, 0.25, 0.25);
        let raster = Raster::filled(16, 16, 3, gt);
        let grid = TileGrid::new(16, 16, 4, gt);
        let bq = zonal_bqtree::compress_source(&raster.tile_source(&grid));
        let v2 = store.update_band0(vec![PartitionSource::new(bq)]);
        assert_eq!(v2, 2);
        assert_eq!(store.version(), 2);

        // The old snapshot still reads the old raster.
        assert_eq!(snap.version, 1);
        assert_eq!(snap.band(0)[0].cells(), cells_before);
        assert_eq!(store.snapshot().band(0)[0].cells(), 256);
    }

    #[test]
    fn unknown_band_is_empty() {
        let store = tiny_store();
        assert_eq!(store.snapshot().n_bands(), 1);
        assert!(store.snapshot().band(5).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn empty_band_rejected() {
        let store = tiny_store();
        store.update(vec![vec![]]);
    }
}
