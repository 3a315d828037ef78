//! Shared helpers: seeded randomness, order statistics, process
//! accounting, histogram digests, and the ordered per-partition pass the
//! traced runs and correctness references use.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use zonal_core::ZonalResult;

/// SplitMix64: small, seedable, and identical on every platform, so a
/// workload seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BA5E_D00D_F00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Quantile `q` in `[0, 1]` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// User and system CPU seconds of this process so far, from
/// `/proc/self/stat` (clock ticks at the Linux default of 100 Hz).
pub fn cpu_times() -> (f64, f64) {
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) / TICKS_PER_SEC, tick(12) / TICKS_PER_SEC)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a-style fold, one 64-bit word at a time, over histogram rows
/// tagged by zone id: a compact fingerprint of an answer, so served
/// responses need not be kept in memory until the reference is computed.
pub fn digest_rows<'a>(rows: impl Iterator<Item = (u32, &'a [u64])>) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (z, row) in rows {
        h = (h ^ z as u64).wrapping_mul(PRIME);
        for &c in row {
            h = (h ^ c).wrapping_mul(PRIME);
        }
    }
    h
}

/// Run `run(i)` for every partition index on `threads` benchmark
/// threads and merge the results in index order with
/// [`ZonalResult::merge`] — the semantics of `run_partitions`, but
/// merging as results arrive so at most a few partition results are
/// alive at once, with each call and merge under the benchmark's spans.
pub fn ordered_pass(
    n: usize,
    threads: usize,
    run: impl Fn(usize) -> ZonalResult + Sync,
) -> ZonalResult {
    assert!(n > 0, "a pass needs at least one partition");
    let _pass = zonal_obs::span("zonal.partition_pass");
    let next = AtomicUsize::new(0);
    let mut merged: Option<ZonalResult> = None;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, ZonalResult)>();
        for w in 0..threads.clamp(1, n) {
            let tx = tx.clone();
            let (next, run) = (&next, &run);
            s.spawn(move || {
                zonal_obs::set_lane_name(format!("bench worker {w}"));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let mut span = zonal_obs::span("zonal.partition");
                    span.arg("partition", i as u64);
                    let r = run(i);
                    drop(span);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut pending: BTreeMap<usize, ZonalResult> = BTreeMap::new();
        let mut want = 0;
        for (i, r) in rx {
            pending.insert(i, r);
            while let Some(r) = pending.remove(&want) {
                let _span = zonal_obs::span("zonal.merge");
                match &mut merged {
                    None => merged = Some(r),
                    Some(m) => m.merge(&r),
                }
                want += 1;
            }
        }
    });
    merged.expect("every partition produced a result")
}

/// Run `f` on up to `threads` threads over indices `0..n`, returning the
/// outputs in index order (set-up work: synthesis and encoding).
pub fn par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        for w in 0..threads.clamp(1, n.max(1)) {
            let tx = tx.clone();
            let (next, f) = (&next, &f);
            s.spawn(move || {
                zonal_obs::set_lane_name(format!("bench setup {w}"));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || tx.send((i, f(i))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (i, v) in rx {
            out[i] = Some(v);
        }
    });
    out.into_iter()
        .map(|v| v.expect("every index produced a value"))
        .collect()
}
