//! Deterministic load generation for benchmarking the service.
//!
//! Two client disciplines:
//!
//! * **Closed loop** — `clients` threads each submit, wait for the
//!   answer, and immediately submit again. Offered load adapts to
//!   service speed; good for peak-throughput measurement.
//! * **Open loop** — queries are submitted at a fixed pace regardless
//!   of completion, which is how real overload arrives; sheds and queue
//!   delay show up here.
//!
//! The query mix is derived from a seed via splitmix64, so runs are
//! reproducible; latency is measured per request from submit to the
//! server-side completion instant and summarized as percentiles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::query::ZonalQuery;
use crate::service::ZonalService;

/// splitmix64: tiny, seedable, and plenty for shuffling a query mix.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
}

fn mix(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reproducible query-mix generator.
pub struct QueryMix {
    state: u64,
    /// Bin counts cycled through (each distinct bin spec is its own
    /// plan and costs a cold pass; repeats exercise the plan cache).
    pub bin_choices: Vec<usize>,
    /// Zones available for subset queries.
    pub n_zones: usize,
    /// Fraction (0..=100) of queries that ask for every zone.
    pub percent_all_zones: u8,
}

impl QueryMix {
    pub fn new(seed: u64, bin_choices: Vec<usize>, n_zones: usize) -> Self {
        assert!(!bin_choices.is_empty());
        assert!(n_zones > 0);
        QueryMix {
            state: seed,
            bin_choices,
            n_zones,
            percent_all_zones: 50,
        }
    }

    /// The `i`-th query of the mix (stateless in `i`, so threads can
    /// partition the sequence without coordination).
    pub fn query(&self, i: u64) -> ZonalQuery {
        let r = mix(self
            .state
            .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let n_bins = self.bin_choices[(r % self.bin_choices.len() as u64) as usize];
        if (r >> 16) % 100 < self.percent_all_zones as u64 {
            ZonalQuery::all_zones(n_bins)
        } else {
            let n = 1 + ((r >> 24) as usize % self.n_zones.min(8));
            let zones = (0..n)
                .map(|k| (mix(r.wrapping_add(k as u64)) % self.n_zones as u64) as u32)
                .collect::<Vec<_>>();
            let mut dedup = Vec::with_capacity(zones.len());
            for z in zones {
                if !dedup.contains(&z) {
                    dedup.push(z);
                }
            }
            ZonalQuery::zone_subset(n_bins, dedup)
        }
    }

    /// Advance the base state (distinct phases of one run draw distinct
    /// mixes).
    pub fn next_phase(&mut self) {
        splitmix64(&mut self.state);
    }
}

/// Latency percentiles over a completed run, in milliseconds.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct LatencyStats {
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub mean_ms: f64,
    pub max_ms: f64,
}

impl LatencyStats {
    pub fn from_samples(samples: &mut [Duration]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let pct = |p: f64| {
            let idx = ((samples.len() as f64 * p).ceil() as usize).clamp(1, samples.len()) - 1;
            ms(samples[idx])
        };
        LatencyStats {
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            mean_ms: ms(samples.iter().sum::<Duration>()) / samples.len() as f64,
            max_ms: ms(*samples.last().unwrap()),
        }
    }
}

/// Outcome of one load-generation phase.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Queries the generator attempted to submit.
    pub offered: u64,
    /// Queries answered.
    pub completed: u64,
    /// Queries shed at admission (queue full or saturated).
    pub shed: u64,
    /// Queries failed for any other reason.
    pub errors: u64,
    /// Wall-clock duration of the phase in seconds.
    pub wall_secs: f64,
    /// Latency percentiles over completed queries.
    pub latency: LatencyStats,
    /// Completed queries per wall-clock second.
    pub throughput_qps: f64,
    /// Shed fraction of offered queries.
    pub shed_rate: f64,
}

fn report(
    offered: u64,
    completed: u64,
    shed: u64,
    errors: u64,
    wall: Duration,
    samples: &mut [Duration],
) -> LoadReport {
    let wall_secs = wall.as_secs_f64();
    LoadReport {
        offered,
        completed,
        shed,
        errors,
        wall_secs,
        latency: LatencyStats::from_samples(samples),
        throughput_qps: if wall_secs > 0.0 {
            completed as f64 / wall_secs
        } else {
            0.0
        },
        shed_rate: if offered > 0 {
            shed as f64 / offered as f64
        } else {
            0.0
        },
    }
}

/// Closed-loop run: `clients` threads each issue `queries_per_client`
/// queries back-to-back, retrying nothing — sheds count against the
/// report.
pub fn closed_loop(
    service: &ZonalService,
    mix: &QueryMix,
    clients: usize,
    queries_per_client: u64,
) -> LoadReport {
    let shed = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let start = Instant::now();
    let samples: Vec<Duration> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let shed = &shed;
                let errors = &errors;
                s.spawn(move || {
                    let mut local = Vec::with_capacity(queries_per_client as usize);
                    for i in 0..queries_per_client {
                        let q = mix.query(c as u64 * queries_per_client + i);
                        match service.submit(q).map(|t| t.wait_timed()) {
                            Ok(Ok((_resp, latency))) => local.push(latency),
                            Ok(Err(e)) | Err(e) if e.is_shed() => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed();
    let offered = clients as u64 * queries_per_client;
    let mut samples = samples;
    let completed = samples.len() as u64;
    report(
        offered,
        completed,
        shed.load(Ordering::Relaxed),
        errors.load(Ordering::Relaxed),
        wall,
        &mut samples,
    )
}

/// Open-loop run: submit `total` queries paced at `rate_qps` from one
/// pacing thread, collecting tickets as they complete on a drain
/// thread. Overload shows up as sheds and growing latency rather than
/// reduced offered load.
pub fn open_loop(service: &ZonalService, mix: &QueryMix, total: u64, rate_qps: f64) -> LoadReport {
    assert!(rate_qps > 0.0);
    let interval = Duration::from_secs_f64(1.0 / rate_qps);
    let shed = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let start = Instant::now();

    let (ticket_tx, ticket_rx) = crossbeam::channel::unbounded();
    let samples: Vec<Duration> = std::thread::scope(|s| {
        let drain = s.spawn({
            let errors = &errors;
            move || {
                let mut local = Vec::new();
                while let Ok(ticket) = ticket_rx.recv() {
                    match crate::service::Ticket::wait_timed(ticket) {
                        Ok((_resp, latency)) => local.push(latency),
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                local
            }
        });

        for i in 0..total {
            let deadline = start + interval.mul_f64(i as f64);
            if let Some(sleep) = deadline.checked_duration_since(Instant::now()) {
                std::thread::sleep(sleep);
            }
            match service.submit(mix.query(i)) {
                Ok(ticket) => {
                    let _ = ticket_tx.send(ticket);
                }
                Err(e) if e.is_shed() => {
                    shed.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        drop(ticket_tx);
        drain.join().expect("drain thread")
    });
    let wall = start.elapsed();
    let mut samples = samples;
    let completed = samples.len() as u64;
    report(
        total,
        completed,
        shed.load(Ordering::Relaxed),
        errors.load(Ordering::Relaxed),
        wall,
        &mut samples,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic() {
        let a = QueryMix::new(42, vec![32, 64], 10);
        let b = QueryMix::new(42, vec![32, 64], 10);
        for i in 0..100 {
            assert_eq!(a.query(i), b.query(i));
        }
        let c = QueryMix::new(43, vec![32, 64], 10);
        assert!((0..100).any(|i| a.query(i) != c.query(i)));
    }

    #[test]
    fn mix_queries_are_valid() {
        let m = QueryMix::new(7, vec![16, 64, 256], 5);
        for i in 0..500 {
            let q = m.query(i);
            assert!(m.bin_choices.contains(&q.n_bins));
            if let crate::query::ZoneSelection::Subset(ids) = &q.zones {
                assert!(!ids.is_empty());
                assert!(ids.iter().all(|&z| (z as usize) < 5));
                let mut sorted = ids.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), ids.len(), "subsets are deduplicated");
            }
        }
    }

    #[test]
    fn latency_percentiles() {
        let mut samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let stats = LatencyStats::from_samples(&mut samples);
        assert!((stats.p50_ms - 50.0).abs() < 1e-9);
        assert!((stats.p95_ms - 95.0).abs() < 1e-9);
        assert!((stats.p99_ms - 99.0).abs() < 1e-9);
        assert!((stats.max_ms - 100.0).abs() < 1e-9);
        assert!((stats.mean_ms - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_samples_are_zero() {
        let stats = LatencyStats::from_samples(&mut []);
        assert_eq!(stats.p99_ms, 0.0);
    }
}
