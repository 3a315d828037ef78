//! End-to-end service tests: served answers vs the direct pipeline,
//! shedding, caching, invalidation, and shutdown.

use std::sync::Arc;
use std::time::Duration;

use zonal_core::pipeline::{run_partitions, Zones};
use zonal_core::PipelineConfig;
use zonal_geo::{Polygon, PolygonLayer};
use zonal_raster::{GeoTransform, Raster, TileData, TileGrid, TileSource};
use zonal_serve::{
    PartitionSource, RasterStore, ServeConfig, ServeError, ZonalQuery, ZonalService, ZoneSelection,
};

/// Two-partition fixture: 8×8-cell halves at 0.5° cells (tile 4 cells =
/// 2.0°), three overlapping zones spanning both partitions.
fn fixture(salt: u16) -> (Zones, Vec<PartitionSource>) {
    let zones = Zones::new(PolygonLayer::from_polygons(vec![
        Polygon::rect(0.2, 0.2, 3.8, 3.8),
        Polygon::rect(4.2, 0.2, 7.8, 3.8),
        Polygon::rect(1.0, 1.0, 7.0, 3.0),
    ]));
    let parts = [0.0f64, 4.0]
        .iter()
        .map(|&x0| {
            let gt = GeoTransform::new(x0, 0.0, 0.5, 0.5);
            let raster = Raster::from_fn(8, 8, gt, |r, c| {
                ((r * 31 + c * 7 + x0 as usize) as u16 + salt) % 13
            });
            let grid = TileGrid::new(8, 8, 4, gt);
            PartitionSource::new(zonal_bqtree::compress_source(&raster.tile_source(&grid)))
        })
        .collect();
    (zones, parts)
}

fn cfg() -> PipelineConfig {
    PipelineConfig::test().with_tile_deg(2.0)
}

fn store(salt: u16) -> Arc<RasterStore> {
    let (zones, parts) = fixture(salt);
    Arc::new(RasterStore::new(zones, parts))
}

/// The oracle: exactly what the service promises to match.
fn direct_rows(store: &RasterStore, n_bins: usize, zones: &[u32]) -> Vec<Vec<u64>> {
    let snap = store.snapshot();
    let result = run_partitions(&cfg().with_bins(n_bins), store.zones(), snap.band(0));
    zones
        .iter()
        .map(|&z| result.hists.zone(z as usize).to_vec())
        .collect()
}

#[test]
fn served_matches_direct_pipeline() {
    let store = store(0);
    let service = ZonalService::start(Arc::clone(&store), ServeConfig::new(cfg()));
    let resp = service.query(ZonalQuery::all_zones(64)).expect("served");
    assert_eq!(resp.raster_version, 1);
    assert_eq!(resp.n_bins, 64);
    assert!(!resp.from_cache);
    let want = direct_rows(&store, 64, &[0, 1, 2]);
    assert_eq!(resp.rows.len(), 3);
    for (i, (z, row)) in resp.rows.iter().enumerate() {
        assert_eq!(*z as usize, i);
        assert_eq!(row.as_slice(), want[i].as_slice(), "zone {z}");
    }
    assert!(resp.total() > 0, "fixture zones cover raster cells");
}

#[test]
fn subset_rows_in_request_order() {
    let store = store(0);
    let service = ZonalService::start(Arc::clone(&store), ServeConfig::new(cfg()));
    let resp = service
        .query(ZonalQuery::zone_subset(32, vec![2, 0]))
        .expect("served");
    let want = direct_rows(&store, 32, &[2, 0]);
    assert_eq!(resp.rows.len(), 2);
    assert_eq!(resp.rows[0].0, 2);
    assert_eq!(resp.rows[1].0, 0);
    assert_eq!(resp.rows[0].1.as_slice(), want[0].as_slice());
    assert_eq!(resp.rows[1].1.as_slice(), want[1].as_slice());
    assert_eq!(resp.zone(1), None, "unrequested zone absent");
}

#[test]
fn repeat_query_hits_cache_bit_identically() {
    let store = store(0);
    let service = ZonalService::start(Arc::clone(&store), ServeConfig::new(cfg()));
    let cold = service.query(ZonalQuery::all_zones(64)).expect("cold");
    let warm = service.query(ZonalQuery::all_zones(64)).expect("warm");
    assert!(!cold.from_cache);
    assert!(warm.from_cache, "second identical query is fully cached");
    assert_eq!(cold.rows.len(), warm.rows.len());
    for ((zc, rc), (zw, rw)) in cold.rows.iter().zip(&warm.rows) {
        assert_eq!(zc, zw);
        assert_eq!(rc, rw, "zone {zc}: cached row equals the cold one");
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 2);
    assert!(stats.row_cache_hits >= 3, "one hit per zone on the rerun");
    assert_eq!(stats.pipeline_passes, 2, "two partitions, decoded once");
}

#[test]
fn other_zones_of_a_warm_plan_come_from_cache() {
    let store = store(0);
    let service = ZonalService::start(Arc::clone(&store), ServeConfig::new(cfg()));
    let first = service
        .query(ZonalQuery::zone_subset(64, vec![0]))
        .expect("first");
    assert!(!first.from_cache);
    // Different zones, same plan: the cached answer holds every zone.
    let resp = service
        .query(ZonalQuery::zone_subset(64, vec![1, 2]))
        .expect("second");
    assert!(resp.from_cache, "a warm plan answers any zone subset");
    let want = direct_rows(&store, 64, &[1, 2]);
    assert_eq!(resp.rows[0].1.as_slice(), want[0].as_slice());
    assert_eq!(resp.rows[1].1.as_slice(), want[1].as_slice());
    let stats = service.shutdown();
    assert_eq!(stats.pipeline_passes, 2, "partitions decoded only once");
    assert_eq!(stats.partition_cache_hits, 2, "second query saved both");
    assert_eq!(stats.row_cache_misses, 1, "zone 0 after the pass");
    assert_eq!(stats.row_cache_hits, 2, "zones 1 and 2 from the cache");
}

#[test]
fn eviction_at_capacity_one_costs_one_pass_per_partition() {
    let store = store(0);
    let mut sc = ServeConfig::new(cfg());
    sc.cache_capacity = 1;
    let service = ZonalService::start(Arc::clone(&store), sc);
    let want32 = direct_rows(&store, 32, &[0, 1, 2]);
    let want64 = direct_rows(&store, 64, &[0, 1, 2]);
    // 32, 32, 64, 64, 32, 64: the repeat right after a plan's pass is a
    // hit; every switch evicts the other plan and runs a new pass.
    let plan = [32usize, 32, 64, 64, 32, 64];
    let mut passes = 0;
    for (i, &n_bins) in plan.iter().enumerate() {
        let resp = service
            .query(ZonalQuery::all_zones(n_bins))
            .expect("served");
        let want = if n_bins == 32 { &want32 } else { &want64 };
        for (z, row) in &resp.rows {
            assert_eq!(row, &want[*z as usize], "query {i}, zone {z}");
        }
        let hit = i > 0 && plan[i - 1] == n_bins;
        assert_eq!(resp.from_cache, hit, "query {i}");
        if !hit {
            passes += 2;
        }
        assert_eq!(
            service.stats().pipeline_passes,
            passes,
            "query {i}: each miss runs both partitions once"
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.pipeline_passes, 8, "four misses × two partitions");
    assert_eq!(stats.partition_cache_hits, 4, "two hits × two partitions");
}

#[test]
fn caching_disabled_still_matches() {
    let store = store(0);
    let service = ZonalService::start(
        Arc::clone(&store),
        ServeConfig::new(cfg()).without_caching(),
    );
    let a = service.query(ZonalQuery::all_zones(48)).expect("first");
    let b = service.query(ZonalQuery::all_zones(48)).expect("second");
    assert!(!a.from_cache && !b.from_cache);
    let want = direct_rows(&store, 48, &[0, 1, 2]);
    for resp in [&a, &b] {
        for (i, (_, row)) in resp.rows.iter().enumerate() {
            assert_eq!(row.as_slice(), want[i].as_slice());
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.pipeline_passes, 4, "no memoization when disabled");
}

#[test]
fn invalid_queries_are_typed() {
    let store = store(0);
    let service = ZonalService::start(store, ServeConfig::new(cfg()));
    for bad in [
        ZonalQuery::all_zones(0),
        ZonalQuery {
            band: 9,
            n_bins: 64,
            zones: ZoneSelection::All,
        },
        ZonalQuery::zone_subset(64, vec![99]),
        ZonalQuery::zone_subset(64, vec![]),
    ] {
        match service.submit(bad) {
            Err(ServeError::InvalidQuery(_)) => {}
            other => panic!("expected InvalidQuery, got {other:?}", other = other.err()),
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.invalid, 4);
    assert_eq!(stats.submitted, 0);
}

#[test]
fn queue_full_sheds_and_recovers() {
    let store = store(0);
    let mut sc = ServeConfig::new(cfg());
    sc.queue_capacity = 1;
    // A long window keeps the first request unfinished while we probe.
    sc.batch_window = Duration::from_millis(300);
    let service = ZonalService::start(Arc::clone(&store), sc);

    let ticket = service.submit(ZonalQuery::all_zones(64)).expect("admits");
    let shed = service.submit(ZonalQuery::all_zones(64));
    match shed {
        Err(ServeError::QueueFull { capacity: 1, .. }) => {}
        other => panic!("expected QueueFull, got {other:?}", other = other.err()),
    }
    // The admitted request is unaffected by the shed and still correct.
    let resp = ticket.wait().expect("admitted query completes");
    let want = direct_rows(&store, 64, &[0, 1, 2]);
    for (i, (_, row)) in resp.rows.iter().enumerate() {
        assert_eq!(row.as_slice(), want[i].as_slice());
    }
    // Capacity freed: the next query is admitted again.
    service.query(ZonalQuery::all_zones(64)).expect("recovered");
    let stats = service.shutdown();
    assert_eq!(stats.shed_queue_full, 1);
    assert_eq!(stats.completed, 2);
    assert!((stats.shed_rate() - 1.0 / 3.0).abs() < 1e-9);
}

#[test]
fn saturation_sheds_by_occupancy() {
    let store = store(0);
    let mut sc = ServeConfig::new(cfg());
    // Budget far below one partition's estimate: only the idle-device
    // exception admits anything.
    sc.max_outstanding_sim_secs = 1e-9;
    sc.batch_window = Duration::from_millis(300);
    let service = ZonalService::start(store, sc);

    let ticket = service
        .submit(ZonalQuery::all_zones(64))
        .expect("idle device admits even an oversized query");
    match service.submit(ZonalQuery::all_zones(64)) {
        Err(ServeError::Saturated { .. }) => {}
        other => panic!("expected Saturated, got {other:?}", other = other.err()),
    }
    ticket.wait().expect("completes");
    let stats = service.shutdown();
    assert_eq!(stats.shed_saturated, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn raster_update_invalidates_and_stays_correct() {
    let store = store(0);
    let service = ZonalService::start(Arc::clone(&store), ServeConfig::new(cfg()));

    let before = service.query(ZonalQuery::all_zones(64)).expect("v1");
    assert_eq!(before.raster_version, 1);
    let want_v1 = direct_rows(&store, 64, &[0, 1, 2]);

    let (_, new_parts) = fixture(5);
    let v2 = service.update_raster(vec![new_parts]);
    assert_eq!(v2, 2);

    let after = service.query(ZonalQuery::all_zones(64)).expect("v2");
    assert_eq!(after.raster_version, 2);
    assert!(!after.from_cache, "old cache entries are unreachable");
    let want_v2 = direct_rows(&store, 64, &[0, 1, 2]);
    for (i, (_, row)) in after.rows.iter().enumerate() {
        assert_eq!(row.as_slice(), want_v2[i].as_slice());
    }
    assert_ne!(
        want_v1, want_v2,
        "fixture salt changes the raster, so stale answers would differ"
    );
    for (i, (_, row)) in before.rows.iter().enumerate() {
        assert_eq!(
            row.as_slice(),
            want_v1[i].as_slice(),
            "the old response still reflects the version it reports"
        );
    }
}

#[test]
fn concurrent_same_plan_queries_coalesce() {
    let store = store(0);
    let mut sc = ServeConfig::new(cfg());
    sc.batch_window = Duration::from_millis(150);
    let service = ZonalService::start(Arc::clone(&store), sc);

    let n = 6;
    let tickets: Vec<_> = (0..n)
        .map(|i| {
            let zones = vec![(i % 3) as u32];
            service
                .submit(ZonalQuery::zone_subset(64, zones))
                .expect("admitted")
        })
        .collect();
    let want = direct_rows(&store, 64, &[0, 1, 2]);
    for (i, t) in tickets.into_iter().enumerate() {
        let resp = t.wait().expect("answered");
        let z = i % 3;
        assert_eq!(resp.rows[0].0 as usize, z);
        assert_eq!(resp.rows[0].1.as_slice(), want[z].as_slice());
    }
    let stats = service.shutdown();
    assert_eq!(stats.batched_queries, n as u64);
    assert!(
        stats.batches < n as u64,
        "window coalesced some of the {n} queries ({} batches)",
        stats.batches
    );
    assert_eq!(
        stats.pipeline_passes, 2,
        "one pass per partition serves the whole burst"
    );
}

#[test]
fn mixed_plans_do_not_share_passes() {
    let store = store(0);
    let mut sc = ServeConfig::new(cfg());
    sc.batch_window = Duration::from_millis(150);
    let service = ZonalService::start(Arc::clone(&store), sc);

    let t32 = service.submit(ZonalQuery::all_zones(32)).expect("a");
    let t64 = service.submit(ZonalQuery::all_zones(64)).expect("b");
    let r32 = t32.wait().expect("32-bin answer");
    let r64 = t64.wait().expect("64-bin answer");
    assert_eq!(r32.n_bins, 32);
    assert_eq!(r64.n_bins, 64);
    let w32 = direct_rows(&store, 32, &[0, 1, 2]);
    let w64 = direct_rows(&store, 64, &[0, 1, 2]);
    for (i, (_, row)) in r32.rows.iter().enumerate() {
        assert_eq!(row.as_slice(), w32[i].as_slice());
    }
    for (i, (_, row)) in r64.rows.iter().enumerate() {
        assert_eq!(row.as_slice(), w64[i].as_slice());
    }
    let stats = service.shutdown();
    assert_eq!(stats.pipeline_passes, 4, "two plans × two partitions");
}

/// A partition whose tiles cannot be read: every `tile` call panics.
struct PanickingSource(TileGrid);

impl TileSource for PanickingSource {
    fn grid(&self) -> &TileGrid {
        &self.0
    }

    fn tile(&self, _tx: usize, _ty: usize) -> TileData {
        panic!("tile source failed")
    }
}

#[test]
fn panicking_batch_answers_internal_and_frees_its_slot() {
    let (zones, parts) = fixture(0);
    let broken = vec![PartitionSource::new(PanickingSource(
        parts[0].grid().clone(),
    ))];
    let store = Arc::new(RasterStore::with_bands(zones, vec![parts, broken]));
    let mut sc = ServeConfig::new(cfg());
    sc.queue_capacity = 1;
    sc.workers = 1;
    let service = ZonalService::start(Arc::clone(&store), sc);

    let failing = ZonalQuery {
        band: 1,
        ..ZonalQuery::all_zones(64)
    };
    match service.query(failing) {
        Err(ServeError::Internal(why)) => assert!(why.contains("tile source failed"), "{why}"),
        other => panic!("expected Internal, got {other:?}"),
    }
    // The one queue slot was released and the one worker still serves.
    let resp = service
        .query(ZonalQuery::all_zones(64))
        .expect("band 0 is admitted and answered");
    let want = direct_rows(&store, 64, &[0, 1, 2]);
    assert_eq!(resp.rows.len(), 3);
    for (i, (_, row)) in resp.rows.iter().enumerate() {
        assert_eq!(row.as_slice(), want[i].as_slice(), "zone {i}");
    }
    let stats = service.shutdown();
    assert_eq!((stats.submitted, stats.completed), (2, 1));
}

#[test]
fn shutdown_drains_admitted_requests() {
    let store = store(0);
    let mut sc = ServeConfig::new(cfg());
    sc.batch_window = Duration::from_millis(200);
    let service = ZonalService::start(store, sc);
    let tickets: Vec<_> = (0..4)
        .map(|_| service.submit(ZonalQuery::all_zones(64)).expect("admitted"))
        .collect();
    let stats = service.shutdown();
    assert_eq!(stats.completed, 4, "every admitted request was answered");
    for t in tickets {
        t.wait().expect("answer delivered before teardown");
    }
}

#[test]
fn estimate_shrinks_with_warm_partition_cache() {
    let store = store(0);
    let service = ZonalService::start(store, ServeConfig::new(cfg()));
    let q = ZonalQuery::all_zones(64);
    let cold = service.estimate_sim_secs(&q);
    assert!(cold > 0.0);
    service.query(q.clone()).expect("warm the cache");
    let warm = service.estimate_sim_secs(&q);
    assert_eq!(warm, 0.0, "a cached plan costs nothing to admit");
    let other = service.estimate_sim_secs(&ZonalQuery::all_zones(128));
    assert!((other - cold).abs() < 1e-12, "different plan is still cold");
}

#[test]
fn loadgen_closed_loop_smoke() {
    let store = store(0);
    let service = ZonalService::start(store, ServeConfig::new(cfg()));
    let mix = zonal_serve::QueryMix::new(42, vec![32, 64], 3);
    let report = zonal_serve::closed_loop(&service, &mix, 2, 8);
    assert_eq!(report.offered, 16);
    assert_eq!(report.completed + report.shed + report.errors, 16);
    assert_eq!(report.errors, 0);
    assert!(report.completed > 0);
    assert!(report.throughput_qps > 0.0);
    assert!(report.latency.p99_ms >= report.latency.p50_ms);
}

#[test]
fn loadgen_open_loop_smoke() {
    let store = store(0);
    let service = ZonalService::start(store, ServeConfig::new(cfg()));
    let mix = zonal_serve::QueryMix::new(7, vec![64], 3);
    let report = zonal_serve::open_loop(&service, &mix, 12, 500.0);
    assert_eq!(report.offered, 12);
    assert_eq!(report.completed + report.shed + report.errors, 12);
    assert_eq!(report.errors, 0);
    assert!(report.wall_secs > 0.0);
}
