//! Result caching: one LRU of merged answers, one entry per plan.
//!
//! A cold batch runs `run_partitions` once for its plan and caches the
//! merged [`ZoneHistograms`] — every zone's row at the plan's bin count.
//! Any later batch of that plan, whatever zones it asks for, reads its
//! rows from the entry; one that arrives while the pass is still running
//! waits for it instead of running its own. The key embeds the store
//! **version**, so a raster update invalidates every prior entry by
//! construction: stale entries are unreachable and simply age out of
//! the LRU. The cache
//! holds exactly what the pipeline produced, so a cached answer is
//! bit-identical to the uncached one (asserted by the equivalence
//! tests; the cache never recomputes, rounds, or re-encodes).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};
use zonal_core::ZoneHistograms;

use crate::query::PlanKey;

/// A small LRU map behind one lock. It evicts its least-recently-used
/// entry by stamp scan: capacities are a handful of plans, so the
/// O(capacity) scan is cheaper than maintaining an intrusive list.
pub struct Lru<K, V> {
    capacity: usize,
    inner: Mutex<Inner<K, V>>,
}

struct Inner<K, V> {
    map: HashMap<K, (u64, V)>,
    clock: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    /// A cache holding at most `capacity` entries. `capacity = 0`
    /// disables the cache (every lookup misses and keeps nothing) — the
    /// cache-off configuration of the equivalence tests.
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The value of `key`, refreshing its recency; on a miss, insert
    /// `make()` (evicting the least-recently-used entry when at
    /// capacity) and return it. At capacity 0 nothing is kept, so every
    /// call returns a fresh `make()`.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> V {
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.0 = stamp;
            return entry.1.clone();
        }
        let value = make();
        if self.capacity == 0 {
            return value;
        }
        if inner.map.len() >= self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, (s, _))| *s)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(key, (stamp, value.clone()));
        value
    }

    /// Remove `key` if its value satisfies `pred`.
    pub(crate) fn remove_if(&self, key: &K, pred: impl FnOnce(&V) -> bool) {
        let mut inner = self.lock();
        if inner.map.get(key).is_some_and(|(_, v)| pred(v)) {
            inner.map.remove(key);
        }
    }

    /// Whether `key` is resident, without touching recency (used by
    /// admission estimates, which must not reorder the LRU).
    pub fn contains(&self, key: &K) -> bool {
        self.lock().map.contains_key(key)
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One plan's merged `run_partitions` histograms, filled once by the
/// first batch that misses; batches of the plan that find the cell
/// empty wait in `OnceLock::get_or_init` until it is filled.
pub type PlanAnswer = Arc<OnceLock<ZoneHistograms>>;

/// The serving cache: (store version, plan) → the plan's answer.
pub type ServeCache = Lru<(u64, PlanKey), PlanAnswer>;

#[cfg(test)]
mod tests {
    use super::*;

    fn key(version: u64, n_bins: usize) -> (u64, PlanKey) {
        (version, PlanKey { band: 0, n_bins })
    }

    #[test]
    fn miss_inserts_and_hit_returns_the_same_answer() {
        let cache: ServeCache = Lru::new(16);
        let cold = cache.get_or_insert_with(key(1, 64), PlanAnswer::default);
        assert!(cold.get().is_none(), "a miss inserts an empty cell");
        cold.get_or_init(|| ZoneHistograms::new(3, 64));
        let warm = cache.get_or_insert_with(key(1, 64), || panic!("hit must not make"));
        assert!(Arc::ptr_eq(&warm, &cold), "cache returns the same answer");
        assert!(warm.get().is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let lru: Lru<u32, u64> = Lru::new(0);
        assert_eq!(lru.get_or_insert_with(1, || 7), 7);
        assert_eq!(lru.get_or_insert_with(1, || 8), 8, "nothing was kept");
        assert!(!lru.contains(&1));
        assert!(lru.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let lru: Lru<u32, u32> = Lru::new(2);
        lru.get_or_insert_with(1, || 10);
        lru.get_or_insert_with(2, || 20);
        assert_eq!(lru.get_or_insert_with(1, || 0), 10); // refresh 1; 2 is now oldest
        lru.get_or_insert_with(3, || 30); // evicts 2
        assert!(!lru.contains(&2));
        assert_eq!(lru.get_or_insert_with(1, || 0), 10);
        assert_eq!(lru.get_or_insert_with(3, || 0), 30);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn version_partitions_key_space() {
        let lru: Lru<(u64, PlanKey), u32> = Lru::new(16);
        lru.get_or_insert_with(key(1, 64), || 7);
        assert!(
            !lru.contains(&key(2, 64)),
            "new version never sees old entries"
        );
        assert!(!lru.contains(&key(1, 65)), "bin count is part of the plan");
    }

    #[test]
    fn concurrent_misses_fill_one_answer() {
        let cache: ServeCache = Lru::new(4);
        let fills = std::sync::atomic::AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        let answers: Vec<PlanAnswer> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let answer = cache.get_or_insert_with(key(1, 64), PlanAnswer::default);
                        answer.get_or_init(|| {
                            fills.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            ZoneHistograms::new(2, 64)
                        });
                        answer
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert_eq!(fills.into_inner(), 1, "one pass fills the plan");
        assert!(answers.iter().all(|a| Arc::ptr_eq(a, &answers[0])));
        assert_eq!(cache.len(), 1);
    }
}
