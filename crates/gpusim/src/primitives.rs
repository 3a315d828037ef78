//! Thrust-style parallel primitives.
//!
//! Step 3's post-processing is expressed in the paper (Fig. 4) as a
//! composition of `stable_sort_by_key`, `stable_partition`, `reduce_by_key`
//! and `scan` from the Thrust library. This module provides the same
//! vocabulary, one implementation per primitive. Property tests (the
//! workspace-level `tests/proptest_primitives.rs`) pin each primitive to
//! a naive model; the barrier-placement discipline of the block-level
//! scan these primitives mirror is machine-checked by the kernel
//! sanitizer (`tests/simt_scan.rs` with `--features sanitize`).

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// Exclusive prefix sum: `out[i] = sum(v[..i])`. Returns the total as well
/// (Thrust's `exclusive_scan` + reduction in one pass).
pub fn exclusive_scan(v: &[u32]) -> (Vec<u32>, u32) {
    let mut out = Vec::with_capacity(v.len());
    let mut acc = 0u32;
    for &x in v {
        out.push(acc);
        acc += x;
    }
    (out, acc)
}

/// Inclusive prefix sum: `out[i] = sum(v[..=i])`.
pub fn inclusive_scan(v: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(v.len());
    let mut acc = 0u32;
    for &x in v {
        acc += x;
        out.push(acc);
    }
    out
}

// ---------------------------------------------------------------------------
// Sort / partition
// ---------------------------------------------------------------------------

/// Stable sort of `items` by `key` (Thrust `stable_sort_by_key`).
pub fn stable_sort_by_key<T, K, F>(items: &mut [T], key: F)
where
    T: Send,
    K: Ord + Send,
    F: Fn(&T) -> K + Sync,
{
    items.sort_by_key(key);
}

/// Stable partition: reorder so elements satisfying `pred` precede those
/// that don't, preserving relative order within each side. Returns the
/// split index (Thrust `stable_partition`).
pub fn stable_partition<T, F>(items: &mut Vec<T>, pred: F) -> usize
where
    F: Fn(&T) -> bool,
{
    let mut yes = Vec::with_capacity(items.len());
    let mut no = Vec::new();
    for item in items.drain(..) {
        if pred(&item) {
            yes.push(item);
        } else {
            no.push(item);
        }
    }
    let split = yes.len();
    yes.extend(no);
    *items = yes;
    split
}

// ---------------------------------------------------------------------------
// Reduce by key / run-length encoding
// ---------------------------------------------------------------------------

/// Segmented reduction over equal adjacent keys (Thrust `reduce_by_key`):
/// returns `(unique_keys, sums)` where each sum aggregates the values of one
/// maximal run of equal keys.
///
/// ```
/// use zonal_gpusim::primitives::reduce_by_key;
/// let (keys, sums) = reduce_by_key(&[7u32, 7, 3, 3, 3], &[1u32, 2, 10, 20, 30]);
/// assert_eq!(keys, vec![7, 3]);
/// assert_eq!(sums, vec![3, 60]);
/// ```
pub fn reduce_by_key<K: PartialEq + Copy>(keys: &[K], vals: &[u32]) -> (Vec<K>, Vec<u32>) {
    assert_eq!(keys.len(), vals.len(), "keys/vals length mismatch");
    let mut out_keys = Vec::new();
    let mut out_sums = Vec::new();
    for (i, (&k, &v)) in keys.iter().zip(vals).enumerate() {
        if i == 0 || keys[i - 1] != k {
            out_keys.push(k);
            out_sums.push(v);
        } else {
            *out_sums.last_mut().expect("nonempty") += v;
        }
    }
    (out_keys, out_sums)
}

/// Run-length encode: `reduce_by_key` with unit values.
pub fn run_length_encode<K: PartialEq + Copy>(keys: &[K]) -> (Vec<K>, Vec<u32>) {
    reduce_by_key(keys, &vec![1u32; keys.len()])
}

// ---------------------------------------------------------------------------
// Gather / scatter / compaction
// ---------------------------------------------------------------------------

/// `out[i] = src[idx[i]]` (Thrust `gather`).
pub fn gather<T: Copy + Send + Sync>(idx: &[usize], src: &[T]) -> Vec<T> {
    idx.iter().map(|&i| src[i]).collect()
}

/// `out[idx[i]] = src[i]` (Thrust `scatter`). `idx` must be a permutation
/// target without duplicates for a deterministic result.
pub fn scatter<T: Copy + Default + Send + Sync>(
    src: &[T],
    idx: &[usize],
    out_len: usize,
) -> Vec<T> {
    assert_eq!(src.len(), idx.len());
    let mut out = vec![T::default(); out_len];
    for (&v, &i) in src.iter().zip(idx) {
        out[i] = v;
    }
    out
}

/// Keep elements satisfying `pred`, preserving order (Thrust `copy_if`).
pub fn copy_if<T: Copy + Send + Sync, F>(src: &[T], pred: F) -> Vec<T>
where
    F: Fn(&T) -> bool + Sync,
{
    src.iter().filter(|x| pred(x)).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_basic() {
        let v = [3u32, 1, 4, 1, 5];
        let (ex, total) = exclusive_scan(&v);
        assert_eq!(ex, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
        assert_eq!(inclusive_scan(&v), vec![3, 4, 8, 9, 14]);
    }

    #[test]
    fn scans_empty() {
        let (ex, total) = exclusive_scan(&[]);
        assert!(ex.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn stable_sort_preserves_ties() {
        let mut items: Vec<(u32, usize)> = vec![(2, 0), (1, 1), (2, 2), (1, 3), (2, 4)];
        stable_sort_by_key(&mut items, |&(k, _)| k);
        assert_eq!(items, vec![(1, 1), (1, 3), (2, 0), (2, 2), (2, 4)]);
    }

    #[test]
    fn stable_partition_fig4_example() {
        // The paper's Fig. 4 flow: move inside (code 1) pairs ahead of
        // intersect (code 2), keeping order within each class.
        let mut pairs: Vec<(u8, &str)> = vec![
            (2, "T1"),
            (1, "T2"),
            (2, "T3"),
            (1, "T4"),
            (1, "T5"),
            (2, "T6"),
        ];
        let split = stable_partition(&mut pairs, |&(code, _)| code == 1);
        assert_eq!(split, 3);
        assert_eq!(
            pairs,
            vec![
                (1, "T2"),
                (1, "T4"),
                (1, "T5"),
                (2, "T1"),
                (2, "T3"),
                (2, "T6")
            ]
        );
    }

    #[test]
    fn stable_partition_edges() {
        let mut all: Vec<u32> = vec![1, 2, 3];
        assert_eq!(stable_partition(&mut all, |_| true), 3);
        assert_eq!(all, vec![1, 2, 3]);
        let mut none: Vec<u32> = vec![1, 2, 3];
        assert_eq!(stable_partition(&mut none, |_| false), 0);
        assert_eq!(none, vec![1, 2, 3]);
        let mut empty: Vec<u32> = vec![];
        assert_eq!(stable_partition(&mut empty, |_| true), 0);
    }

    #[test]
    fn reduce_by_key_runs() {
        let keys = [1u32, 1, 2, 2, 2, 1];
        let vals = [10u32, 20, 1, 2, 3, 100];
        let (k, s) = reduce_by_key(&keys, &vals);
        assert_eq!(
            k,
            vec![1, 2, 1],
            "non-adjacent equal keys stay separate runs"
        );
        assert_eq!(s, vec![30, 6, 100]);
    }

    #[test]
    fn rle_counts() {
        let (k, c) = run_length_encode(&[5u8, 5, 5, 7, 7, 5]);
        assert_eq!(k, vec![5, 7, 5]);
        assert_eq!(c, vec![3, 2, 1]);
        let (ke, ce) = run_length_encode::<u8>(&[]);
        assert!(ke.is_empty() && ce.is_empty());
    }

    #[test]
    fn gather_scatter_inverse() {
        let src = [10u32, 20, 30, 40];
        let perm = [2usize, 0, 3, 1];
        let g = gather(&perm, &src);
        assert_eq!(g, vec![30, 10, 40, 20]);
        let back = scatter(&g, &perm, 4);
        assert_eq!(back.to_vec(), src.to_vec());
    }

    #[test]
    fn copy_if_filters() {
        let v = [1u32, 2, 3, 4, 5, 6];
        assert_eq!(copy_if(&v, |&x| x % 2 == 0), vec![2, 4, 6]);
        assert!(copy_if(&v, |_| false).is_empty());
    }

    #[test]
    fn fig4_full_flow() {
        // End-to-end reproduction of the paper's Fig. 4 walkthrough:
        // (tile, polygon, code) triples -> sort by (polygon, code) -> partition
        // inside-first -> reduce_by_key on polygon ids -> exclusive scan for
        // start positions.
        #[derive(Clone, Copy, PartialEq, Debug)]
        struct Pair {
            tid: u32,
            pid: u32,
            code: u8,
        }
        let mut pairs = vec![
            Pair {
                tid: 1,
                pid: 1,
                code: 2,
            },
            Pair {
                tid: 3,
                pid: 1,
                code: 1,
            },
            Pair {
                tid: 4,
                pid: 2,
                code: 2,
            },
            Pair {
                tid: 2,
                pid: 1,
                code: 1,
            },
            Pair {
                tid: 5,
                pid: 2,
                code: 1,
            },
            Pair {
                tid: 6,
                pid: 2,
                code: 2,
            },
        ];
        stable_sort_by_key(&mut pairs, |p| (p.pid, p.code));
        let split = stable_partition(&mut pairs, |p| p.code == 1);
        let inside = &pairs[..split];
        let pids: Vec<u32> = inside.iter().map(|p| p.pid).collect();
        let (pid_v, num_v) = run_length_encode(&pids);
        let (pos_v, total) = exclusive_scan(&num_v);
        assert_eq!(pid_v, vec![1, 2]);
        assert_eq!(num_v, vec![2, 1]);
        assert_eq!(pos_v, vec![0, 2]);
        assert_eq!(total as usize, inside.len());
        // tid_v indexed by pos_v/num_v enumerates each polygon's inside tiles.
        let tid_v: Vec<u32> = inside.iter().map(|p| p.tid).collect();
        assert_eq!(&tid_v[pos_v[0] as usize..][..num_v[0] as usize], &[3, 2]);
        assert_eq!(&tid_v[pos_v[1] as usize..][..num_v[1] as usize], &[5]);
    }
}
