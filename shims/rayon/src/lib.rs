//! Offline stand-in for the [`rayon`](https://crates.io/crates/rayon) crate —
//! with a **real thread pool**.
//!
//! The build environment has no registry access, so this shim provides the
//! method surface the workspace calls — `par_iter`, `par_iter_mut`,
//! `into_par_iter`, the `par_sort*` family, [`join`] and a minimal
//! [`ThreadPoolBuilder`]/[`ThreadPool`] — and, unlike the original sequential
//! stand-in, actually executes it in parallel:
//!
//! * parallel calls are served by a **persistent pool of parked workers**
//!   (spawned on demand, reused across calls — fine-grained supersteps pay a
//!   condvar notify instead of a thread spawn); each call splits the work into
//!   a few contiguous chunks per thread and lets the participating workers
//!   claim chunks from an atomic counter (dynamic load balancing). Lending the
//!   per-call borrowed closure to the long-lived workers uses one confined
//!   `unsafe` lifetime erasure in `pool.rs`, made sound by the submit/reclaim/
//!   wait protocol documented there;
//! * the thread count honours `RAYON_NUM_THREADS`, a process-wide
//!   [`ThreadPoolBuilder::build_global`] override, and a scope-local
//!   [`ThreadPool::install`] override (checked in reverse order); with a count
//!   of 1 every entry point degrades to plain sequential execution;
//! * [`join`] really forks: the second closure runs on a scoped thread while
//!   the first runs on the caller.
//!
//! **Determinism guarantee.** Chunk results are reassembled in chunk order and
//! panics are re-raised with the earliest chunk's payload, so every consumer
//! (`collect`, `sum`, `par_sort*`, `join`) observes *bit-identical results at
//! every thread count*. The MPC simulator builds on this: its ledger totals and
//! algorithm outputs do not depend on `RAYON_NUM_THREADS` (asserted by
//! `tests/determinism.rs` and the CI thread matrix).
//!
//! Swapping in the real rayon remains a one-line change in the workspace
//! manifest; no caller source changes are needed.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use core::cmp::Ordering;

pub mod iter;
mod pool;

pub use iter::{FromParallelIterator, IntoParallelIterator, ParallelIterator};
pub use pool::current_num_threads;

/// The traits users import, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{FromParallelIterator, IntoParallelIterator, ParallelIterator};
    pub use crate::{ParallelSliceExt, ParallelSliceMutExt};
}

/// Runs both closures, potentially in parallel, and returns both results.
///
/// With more than one thread available, `b` is forked onto a scoped thread
/// while `a` runs on the calling thread, and each side receives *half* the
/// caller's thread budget — so recursive join trees (e.g. the LIS kernel
/// divide and conquer) self-limit at ~budget live threads and go sequential
/// below it, instead of spawning one thread per recursion node. A panic in
/// either closure is re-raised here with its original payload.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let threads = pool::current_num_threads();
    if threads <= 1 {
        return (a(), b());
    }
    let b_share = threads / 2;
    let a_share = threads - b_share;
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || pool::with_installed_num_threads(b_share.max(1), b));
        let ra = pool::with_installed_num_threads(a_share, a);
        match handle.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

// ---------------------------------------------------------------------------
// Thread-pool configuration
// ---------------------------------------------------------------------------

/// Error returned by [`ThreadPoolBuilder::build`] (never produced by this shim;
/// it exists for API parity with the real rayon).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool construction failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Configures a [`ThreadPool`] (only `num_threads` is honoured by this shim).
#[derive(Clone, Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the thread count (0 keeps the `RAYON_NUM_THREADS`/hardware default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds a pool handle whose [`ThreadPool::install`] scopes the thread
    /// count to a closure.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }

    /// Sets the process-wide thread count used by all parallel calls that are
    /// not under a [`ThreadPool::install`] override.
    ///
    /// Unlike the real rayon this may be called repeatedly; the latest call
    /// wins (the shim has no worker threads to re-spawn).
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        pool::set_global_num_threads(self.num_threads);
        Ok(())
    }
}

/// A handle fixing the thread count for closures run under [`ThreadPool::install`].
///
/// The shim spawns scoped threads per parallel call, so the "pool" owns no
/// threads — it is purely a scoped configuration override.
#[derive(Clone, Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count; parallel calls inside `f`
    /// (including on worker threads they spawn) use it.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        pool::with_installed_num_threads(self.num_threads, f)
    }

    /// The thread count this pool installs (0 = the env/hardware default).
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            pool::current_num_threads()
        }
    }
}

// ---------------------------------------------------------------------------
// Slice extension traits
// ---------------------------------------------------------------------------

/// `par_iter()` / `par_iter_mut()` on slices (and, via deref, `Vec`s).
pub trait ParallelSliceExt<T> {
    /// Parallel iterator over shared references.
    fn par_iter(&self) -> iter::SliceParIter<'_, T>;

    /// Parallel iterator over mutable references.
    fn par_iter_mut(&mut self) -> iter::SliceParIterMut<'_, T>;
}

impl<T> ParallelSliceExt<T> for [T] {
    fn par_iter(&self) -> iter::SliceParIter<'_, T> {
        iter::SliceParIter::new(self)
    }

    fn par_iter_mut(&mut self) -> iter::SliceParIterMut<'_, T> {
        iter::SliceParIterMut::new(self)
    }
}

/// Below this length sorting stays sequential: the scoped-thread setup would
/// cost more than the sort itself.
const MIN_PAR_SORT_LEN: usize = 2048;

/// Sorts `items` by first sorting contiguous chunks in parallel, then merging
/// the sorted runs with one pass of the standard library's (run-adaptive)
/// stable sort. The result is identical to a sequential stable sort.
///
/// The final merge pass runs on the calling thread alone and touches every
/// item, so with two threads a sort gains little: each thread sorts half,
/// then one thread merges all of it. Callers that sort the same data
/// repeatedly gain more from sorting it once.
fn par_sort_impl<T, F>(items: &mut [T], compare: &F)
where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let threads = pool::current_num_threads();
    if threads <= 1 || items.len() < MIN_PAR_SORT_LEN {
        items.sort_by(|a, b| compare(a, b));
        return;
    }
    let chunk_len = items.len().div_ceil(threads);
    let chunks: Vec<&mut [T]> = items.chunks_mut(chunk_len).collect();
    pool::run_pieces(chunks, |chunk| chunk.sort_by(|a, b| compare(a, b)));
    // The std stable sort detects the pre-sorted runs and only merges them.
    items.sort_by(|a, b| compare(a, b));
}

/// `par_sort*` on slices (and, via deref, `Vec`s).
pub trait ParallelSliceMutExt<T: Send> {
    /// Stable parallel sort.
    fn par_sort(&mut self)
    where
        T: Ord;

    /// Stable parallel sort by comparator.
    fn par_sort_by<F>(&mut self, compare: F)
    where
        F: Fn(&T, &T) -> Ordering + Sync;

    /// Stable parallel sort by key.
    fn par_sort_by_key<K, F>(&mut self, key: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync;

    /// Unstable parallel sort (same chunk-and-merge implementation; the
    /// distinction only matters for the real rayon).
    fn par_sort_unstable(&mut self)
    where
        T: Ord;

    /// Unstable parallel sort by comparator.
    fn par_sort_unstable_by<F>(&mut self, compare: F)
    where
        F: Fn(&T, &T) -> Ordering + Sync;
}

impl<T: Send> ParallelSliceMutExt<T> for [T] {
    fn par_sort(&mut self)
    where
        T: Ord,
    {
        par_sort_impl(self, &T::cmp);
    }

    fn par_sort_by<F>(&mut self, compare: F)
    where
        F: Fn(&T, &T) -> Ordering + Sync,
    {
        par_sort_impl(self, &compare);
    }

    fn par_sort_by_key<K, F>(&mut self, key: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync,
    {
        par_sort_impl(self, &|a: &T, b: &T| key(a).cmp(&key(b)));
    }

    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        par_sort_impl(self, &T::cmp);
    }

    fn par_sort_unstable_by<F>(&mut self, compare: F)
    where
        F: Fn(&T, &T) -> Ordering + Sync,
    {
        par_sort_impl(self, &compare);
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn par_surface_behaves_like_std() {
        let v = vec![3u32, 1, 2];
        let doubled: Vec<u32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![6, 2, 4]);

        let mut s = v.clone();
        s.par_sort();
        assert_eq!(s, vec![1, 2, 3]);

        let sum: u32 = v.into_par_iter().sum();
        assert_eq!(sum, 6);

        let (a, b) = super::join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn join_really_runs_both_closures_on_many_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let (a, b) = pool.install(|| join(|| (0..1000).sum::<u64>(), || "right"));
        assert_eq!(a, 499_500);
        assert_eq!(b, "right");
    }

    #[test]
    fn par_sort_matches_sequential_stable_sort() {
        // Pairs with many duplicate keys expose stability violations.
        let items: Vec<(u32, u32)> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2654435761) % 64, i))
            .collect();
        let mut expected = items.clone();
        expected.sort_by_key(|item| item.0);
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut got = items.clone();
            pool.install(|| got.par_sort_by(|a, b| a.0.cmp(&b.0)));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn install_scopes_the_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        assert_eq!(pool.current_num_threads(), 3);
    }

    #[test]
    fn nested_parallelism_divides_the_budget() {
        let pool = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        // join halves the budget, so recursive join trees self-limit instead
        // of spawning one thread per node.
        let counts = pool.install(|| join(current_num_threads, current_num_threads));
        assert_eq!(counts, (4, 4));
        let deep = pool.install(|| join(|| join(current_num_threads, || ()), || ()));
        assert_eq!(deep.0 .0, 2);
        // Data-parallel workers split the budget too: 8 threads over 4 pieces
        // leaves each piece a share of 2 for its own nested parallelism.
        let shares: Vec<usize> = pool.install(|| {
            vec![(); 4]
                .into_par_iter()
                .map(|()| current_num_threads())
                .collect()
        });
        assert_eq!(shares, vec![2, 2, 2, 2]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let input: Vec<u64> = (0..50_000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let reference: Vec<u64> = {
            let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
            pool.install(|| input.par_iter().map(|x| x % 1013).collect())
        };
        for threads in [2, 4, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got: Vec<u64> = pool.install(|| input.par_iter().map(|x| x % 1013).collect());
            assert_eq!(got, reference, "threads={threads}");
        }
    }
}
