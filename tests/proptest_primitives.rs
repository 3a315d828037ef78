//! Property tests pinning the parallel primitives to naive models.

use proptest::prelude::*;
use zonal_histo::gpusim::primitives::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn exclusive_scan_model(v in prop::collection::vec(0u32..1000, 0..500)) {
        let (scan, total) = exclusive_scan(&v);
        prop_assert_eq!(scan.len(), v.len());
        let mut acc = 0u32;
        for (i, &x) in v.iter().enumerate() {
            prop_assert_eq!(scan[i], acc);
            acc += x;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn inclusive_is_exclusive_shifted(v in prop::collection::vec(0u32..100, 1..200)) {
        let inc = inclusive_scan(&v);
        let (exc, total) = exclusive_scan(&v);
        for i in 0..v.len() - 1 {
            prop_assert_eq!(inc[i], exc[i + 1]);
        }
        prop_assert_eq!(*inc.last().unwrap(), total);
    }

    #[test]
    fn stable_sort_model(v in prop::collection::vec((0u32..10, 0usize..1000), 0..300)) {
        let mut ours: Vec<(u32, usize)> = v.clone();
        stable_sort_by_key(&mut ours, |&(k, _)| k);
        let mut std_sorted = v.clone();
        std_sorted.sort_by_key(|&(k, _)| k); // std stable sort
        prop_assert_eq!(ours, std_sorted);
    }

    #[test]
    fn stable_partition_model(v in prop::collection::vec(0u32..100, 0..300)) {
        let mut ours = v.clone();
        let split = stable_partition(&mut ours, |&x| x % 3 == 0);
        let yes: Vec<u32> = v.iter().copied().filter(|&x| x % 3 == 0).collect();
        let no: Vec<u32> = v.iter().copied().filter(|&x| x % 3 != 0).collect();
        prop_assert_eq!(split, yes.len());
        prop_assert_eq!(&ours[..split], &yes[..]);
        prop_assert_eq!(&ours[split..], &no[..]);
    }

    #[test]
    fn reduce_by_key_model(keys in prop::collection::vec(0u8..5, 0..300)) {
        let vals = vec![1u32; keys.len()];
        let (rk, rs) = reduce_by_key(&keys, &vals);
        // Model: fold over runs.
        let mut mk: Vec<u8> = Vec::new();
        let mut ms: Vec<u32> = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            if i == 0 || keys[i - 1] != k {
                mk.push(k);
                ms.push(1);
            } else {
                *ms.last_mut().unwrap() += 1;
            }
        }
        prop_assert_eq!(&rk, &mk);
        prop_assert_eq!(&rs, &ms);
        // Totals preserved.
        prop_assert_eq!(rs.iter().sum::<u32>() as usize, keys.len());
        // No two adjacent output keys equal.
        for i in 1..mk.len() {
            prop_assert_ne!(mk[i - 1], mk[i]);
        }
    }

    #[test]
    fn gather_scatter_roundtrip(n in 1usize..200, seed in 0u64..1000) {
        // Build a permutation deterministically from the seed.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut s = seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            perm.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let src: Vec<u32> = (0..n as u32).map(|i| i * 7 + 1).collect();
        let gathered = gather(&perm, &src);
        let back = scatter(&gathered, &perm, n);
        prop_assert_eq!(back, src);
    }

    #[test]
    fn copy_if_model(v in prop::collection::vec(0i32..100, 0..300)) {
        let ours = copy_if(&v, |&x| x > 50);
        let model: Vec<i32> = v.iter().copied().filter(|&x| x > 50).collect();
        prop_assert_eq!(ours, model);
    }

    #[test]
    fn rle_reconstructs_input(keys in prop::collection::vec(0u8..4, 0..200)) {
        let (rk, rc) = run_length_encode(&keys);
        let mut rebuilt = Vec::new();
        for (k, c) in rk.iter().zip(&rc) {
            rebuilt.extend(std::iter::repeat_n(*k, *c as usize));
        }
        prop_assert_eq!(rebuilt, keys);
    }
}

/// Property: over random Fig. 2-shaped kernels (random block width, seed,
/// and raster data), the kernel sanitizer flags **exactly** the variants
/// missing the barrier between the zero phase and the accumulate phase —
/// every barrier-free kernel with a cross-thread conflict produces a race
/// report, every barriered kernel is clean.
#[cfg(feature = "sanitize")]
mod sanitizer_props {
    use proptest::prelude::*;
    use zonal_histo::gpusim::block::SimtBlock;
    use zonal_histo::gpusim::sanitizer::BlockReport;
    use zonal_histo::gpusim::TrackedBufU32;

    /// Zero-phase + accumulate-phase histogram kernel; `with_barrier`
    /// decides whether the Fig. 2 line-5 `__syncthreads()` is present.
    fn histogram_report(
        block_dim: usize,
        seed: u64,
        data: &[u16],
        hist_size: usize,
        with_barrier: bool,
    ) -> BlockReport {
        let hist = TrackedBufU32::labelled("his_d_raster", hist_size);
        SimtBlock::new(block_dim).run_sanitized(seed, |ctx| {
            for k in ctx.strided(hist_size) {
                hist.store(k, 0);
            }
            if with_barrier {
                ctx.sync();
            }
            for i in ctx.strided(data.len()) {
                hist.add(data[i] as usize, 1);
            }
            ctx.sync();
        })
    }

    /// True iff some bin is zeroed by one thread and accumulated by
    /// another — i.e. omitting the barrier creates a cross-thread race the
    /// detector is required to find. (Without such a conflict — e.g. a
    /// single-thread block — the barrier-free kernel is genuinely safe.)
    fn has_cross_thread_conflict(block_dim: usize, data: &[u16], hist_size: usize) -> bool {
        data.iter().enumerate().any(|(i, &v)| {
            let accum_tid = i % block_dim;
            let zero_tid = (v as usize) % block_dim;
            (v as usize) < hist_size && accum_tid != zero_tid
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn sanitizer_flags_exactly_the_barrier_free_kernels(
            block_dim in 2usize..9,
            seed in 0u64..1000,
            data in prop::collection::vec(0u16..8, 8..64),
        ) {
            let hist_size = 8usize;

            let clean = histogram_report(block_dim, seed, &data, hist_size, true);
            prop_assert!(
                clean.races.is_empty() && clean.divergence.is_none(),
                "barriered kernel must be race-free: {clean}"
            );

            let racy = histogram_report(block_dim, seed, &data, hist_size, false);
            if has_cross_thread_conflict(block_dim, &data, hist_size) {
                prop_assert!(
                    !racy.races.is_empty(),
                    "missing barrier with a cross-thread conflict must race: {racy}"
                );
                // Epoch-based detection is schedule-independent: the same
                // seed reproduces the identical report.
                prop_assert_eq!(&racy, &histogram_report(block_dim, seed, &data, hist_size, false));
            } else {
                prop_assert!(
                    racy.races.is_empty(),
                    "no cross-thread conflict, no race: {racy}"
                );
            }
        }
    }
}
