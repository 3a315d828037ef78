//! Offline shim for `rayon`: the parallel-iterator entry points this
//! workspace uses, executed sequentially over std iterators.
//!
//! Every call site in the repo is a pure data-parallel map/collect or
//! for_each over independent items, so sequential execution produces
//! identical results; only host-side wall-clock parallelism is lost.
//! See `shims/README.md`.

pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator, ParallelSliceMut};
}

pub mod iter {
    /// `into_par_iter()` for any `IntoIterator` (ranges, vectors, …).
    pub trait IntoParallelIterator {
        type Item;
        type Iter: Iterator<Item = Self::Item>;
        fn into_par_iter(self) -> Self::Iter;
    }

    impl<I: IntoIterator> IntoParallelIterator for I {
        type Item = I::Item;
        type Iter = I::IntoIter;
        fn into_par_iter(self) -> Self::Iter {
            self.into_iter()
        }
    }

    /// `par_iter()` for any collection iterable by shared reference.
    pub trait IntoParallelRefIterator<'data> {
        type Item: 'data;
        type Iter: Iterator<Item = Self::Item>;
        fn par_iter(&'data self) -> Self::Iter;
    }

    impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
    where
        &'data C: IntoIterator,
    {
        type Item = <&'data C as IntoIterator>::Item;
        type Iter = <&'data C as IntoIterator>::IntoIter;
        fn par_iter(&'data self) -> Self::Iter {
            self.into_iter()
        }
    }

    /// Slice sorting, unique.
    pub trait ParallelSliceMut<T> {
        fn par_sort_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, f: F);
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_sort_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, f: F) {
            self.sort_by_key(f)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn entry_points_behave_like_std() {
        let v = vec![3u32, 1, 2];
        let doubled: Vec<u32> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![6, 2, 4]);
        let s: u32 = (0..10u32).into_par_iter().sum();
        assert_eq!(s, 45);
        let mut w = [4u32, 3, 9, 1];
        w.par_sort_by_key(|&x| x);
        assert_eq!(w, [1, 3, 4, 9]);
    }
}
