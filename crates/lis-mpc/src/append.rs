//! Incremental append: grow a semi-local LIS kernel one block at a time,
//! re-combing only the new base block and re-running `⊡` up the **right spine**
//! of the merge tree instead of rebuilding from scratch.
//!
//! # Why append is spine-only
//!
//! The composition law `P_{Y₁Y₂} = (P₁ ⊕ I) ⊡ (I ⊕ P₂)` is exact and
//! associative, so the full kernel of a sequence equals the fold of its blocks'
//! kernels under *any* association. [`AppendableLisKernel`] keeps the blocks in
//! a binomial-counter spine: position-ordered segments whose sizes at least
//! double from the newest (top) to the oldest (bottom). Appending a block combs
//! it locally, pushes it on the spine, and carries — merging the top two
//! segments while the top has grown to more than half of the one below. A
//! carry cascade touches at most the `O(log n)` spine nodes; everything below
//! the first satisfied pair is untouched. The root kernel is a lazy fold of
//! the spine (`O(log n)` further merges), cached until the next append.
//!
//! # Rank stability under append
//!
//! The MPC pipeline relabels the input to global ranks `0..n`, but ranks shift
//! when the sequence grows. The spine instead keys every position by
//! `(value << 32) | (u32::MAX − position)`: keys are unique, never change as
//! the sequence grows, and their sorted order *is* the
//! [`seaweed_lis::lis::rank_sequence`] order (value ascending, ties by
//! descending position — the tie convention strict LIS needs). Since combing,
//! inflation and `⊡` composition consume values only through order
//! comparisons, the folded kernel is **bit-identical** to
//! [`seaweed_lis::lis::lis_kernel`] on the full sequence — the differential
//! tests (and the `properties.rs` proptest) assert exactly this.
//!
//! # Ledger accounting
//!
//! Every comb and merge is charged to the driving [`Cluster`] with the same
//! footprint the pipeline's distributed steps observe — a combed block
//! materializes its value set plus a `2B`-entry kernel (`3B` items,
//! `GROUP_MAP` rounds), a merge relabels to the union and runs one `⊡`
//! (`3·|union|` items, `SORT + GROUP_MAP` rounds) — under `service-append/…`
//! and `service-root/…` phase labels. [`mpc_runtime::Ledger::scope_comm`] over
//! those scopes is how a driver *proves* an append recombed only the spine:
//! the communication of one append is bounded by the touched spine nodes, not
//! by the sequence length times its merge depth.

use crate::lis::Block;
use mpc_runtime::{costs, Cluster};
use seaweed_lis::kernel::SeaweedKernel;

/// What one [`AppendableLisKernel::append`] call actually did — the
/// observable half of the spine-only cost claim (the ledger's
/// `service-append` scope is the other half).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppendStats {
    /// Base blocks combed from the appended elements (`⌈len / block_size⌉`).
    pub blocks_combed: usize,
    /// Carry merges (`⊡`) run up the spine.
    pub spine_merges: usize,
    /// Spine nodes after the append (≤ `log₂ n + 1` by the size invariant).
    pub spine_len: usize,
    /// Items the append materialized: `3B` per combed block plus `3·|union|`
    /// per carry merge — the comm the ledger's `service-append` scope saw.
    pub recombed_items: usize,
}

/// A semi-local LIS kernel over a growing `u32` sequence, maintained
/// incrementally (see the module docs for the spine construction and the
/// bit-identity argument).
#[derive(Clone, Debug)]
pub struct AppendableLisKernel {
    /// Elements appended so far (positions `0..len`).
    len: usize,
    /// Base block size: appended elements are combed in chunks of this size.
    block_size: usize,
    /// Position-ordered segments; sizes at least double from last to first.
    spine: Vec<Block>,
    /// Cached fold of the spine; `None` while dirty (after an append).
    root: Option<Block>,
    /// Carry merges run by the most recent root fold (0 while cached).
    last_fold_merges: usize,
}

/// Stable sort key of one `(value, position)` element: value-major,
/// position-descending minor — the [`seaweed_lis::lis::rank_sequence`] order,
/// frozen so it survives appends.
fn key_of(value: u32, pos: usize) -> usize {
    ((value as usize) << 32) | ((u32::MAX - pos as u32) as usize)
}

impl AppendableLisKernel {
    /// An empty kernel that combs appended elements in `block_size` chunks.
    pub fn new(block_size: usize) -> Self {
        const {
            assert!(
                usize::BITS >= 64,
                "the append spine packs (value, position) keys into 64-bit usize"
            )
        };
        Self {
            len: 0,
            block_size: block_size.max(1),
            spine: Vec::new(),
            root: None,
            last_fold_merges: 0,
        }
    }

    /// Builds the kernel of `seq` by appending it in one call — the honest
    /// "full rebuild" baseline an incremental append is compared against
    /// (same combs, same carry machinery, every node built from scratch).
    pub fn build(cluster: &mut Cluster, seq: &[u32], block_size: usize) -> Self {
        let mut this = Self::new(block_size);
        this.append(cluster, seq);
        this
    }

    /// Elements appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no elements have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The base block size appended elements are combed in.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Element counts of the spine segments, oldest first (each at least
    /// double the next — the invariant that keeps the spine logarithmic).
    pub fn spine_sizes(&self) -> Vec<usize> {
        self.spine.iter().map(|b| b.values.len()).collect()
    }

    /// Carry merges run by the most recent root fold
    /// ([`AppendableLisKernel::kernel`]); 0 while the fold is cached.
    pub fn last_fold_merges(&self) -> usize {
        self.last_fold_merges
    }

    /// Resident items held hot: every spine node's (and the cached root's)
    /// sorted value set plus kernel permutation entries. This is the
    /// footprint a kernel cache's byte budget charges for the entry.
    pub fn footprint_items(&self) -> usize {
        self.spine
            .iter()
            .chain(&self.root)
            .map(Block::footprint)
            .sum()
    }

    /// Appends `values` after the current sequence: combs them in
    /// `block_size` chunks, pushes each chunk on the spine and carries. Only
    /// the touched spine nodes are recombed — the returned [`AppendStats`]
    /// and the cluster's `service-append` ledger scope both say how many.
    pub fn append(&mut self, cluster: &mut Cluster, values: &[u32]) -> AppendStats {
        let mut stats = AppendStats {
            spine_len: self.spine.len(),
            ..AppendStats::default()
        };
        if values.is_empty() {
            return stats;
        }
        assert!(
            self.len + values.len() <= u32::MAX as usize,
            "the append spine indexes positions as u32"
        );
        self.root = None;
        self.last_fold_merges = 0;
        cluster.set_phase_scope(Some("service-append"));
        for chunk in values.chunks(self.block_size) {
            cluster.set_phase(Some("comb"));
            let keys: Vec<usize> = chunk
                .iter()
                .enumerate()
                .map(|(i, &v)| key_of(v, self.len + i))
                .collect();
            self.len += chunk.len();
            cluster.charge_superstep("service-comb", costs::GROUP_MAP, 3 * chunk.len() as u64);
            stats.blocks_combed += 1;
            stats.recombed_items += 3 * chunk.len();
            // The pipeline's base step, with keys in place of global ranks.
            self.spine.push(Block::comb(&keys));

            // Carry: merge the top two segments while the top has grown to
            // more than half of the one below, so sizes keep at least
            // doubling toward the bottom and the spine stays logarithmic.
            cluster.set_phase(Some("merge"));
            while self.spine.len() >= 2 {
                let top = self.spine[self.spine.len() - 1].values.len();
                let below = self.spine[self.spine.len() - 2].values.len();
                if 2 * top <= below {
                    break;
                }
                let hi = self.spine.pop().expect("len checked");
                let lo = self.spine.pop().expect("len checked");
                let union = top + below;
                cluster.charge_superstep(
                    "service-merge",
                    costs::SORT + costs::GROUP_MAP,
                    3 * union as u64,
                );
                stats.spine_merges += 1;
                stats.recombed_items += 3 * union;
                self.spine.push(Block::merge(&lo, &hi));
            }
        }
        cluster.set_phase_scope(None::<String>);
        cluster.set_phase(None::<String>);
        stats.spine_len = self.spine.len();
        stats
    }

    /// The semi-local LIS kernel of everything appended so far — bit-identical
    /// to [`seaweed_lis::lis::lis_kernel`] on the full sequence. Folds the
    /// spine (`O(log n)` merges under the `service-root` scope) on the first
    /// call after an append, then serves the cached root.
    pub fn kernel(&mut self, cluster: &mut Cluster) -> &SeaweedKernel {
        self.fold(cluster);
        &self.root.as_ref().expect("fold caches a root").kernel
    }

    /// Window query `LIS(A[l..r))` off the (cached) root kernel.
    pub fn lis_window(&mut self, cluster: &mut Cluster, l: usize, r: usize) -> usize {
        self.kernel(cluster).lcs_window(l, r)
    }

    /// Maps a half-open **value** range `[lo, hi)` to the half-open global
    /// *rank* window occupied by elements with those values — the window
    /// vocabulary of [`crate::witness::recover_batch`] (ties are contiguous
    /// in rank space, so the mapping is exact). `hi` may be `2^32`, so the
    /// range can include `u32::MAX`.
    pub fn value_rank_window(&mut self, cluster: &mut Cluster, lo: u32, hi: u64) -> (usize, usize) {
        self.fold(cluster);
        let keys = &self.root.as_ref().expect("fold caches a root").values;
        let below = |end: u64| keys.partition_point(|&k| ((k >> 32) as u64) < end);
        (below(u64::from(lo)), below(hi))
    }

    fn fold(&mut self, cluster: &mut Cluster) {
        if self.root.is_some() {
            return;
        }
        if self.spine.is_empty() {
            self.root = Some(Block::empty());
            return;
        }
        cluster.set_phase_scope(Some("service-root"));
        cluster.set_phase(Some("fold"));
        let mut merges = 0;
        let mut iter = self.spine.iter();
        let mut acc = iter.next().expect("spine non-empty").clone();
        for node in iter {
            let union = acc.values.len() + node.values.len();
            cluster.charge_superstep(
                "service-merge",
                costs::SORT + costs::GROUP_MAP,
                3 * union as u64,
            );
            merges += 1;
            acc = Block::merge(&acc, node);
        }
        cluster.set_phase_scope(None::<String>);
        cluster.set_phase(None::<String>);
        debug_assert_eq!(acc.values.len(), self.len);
        self.last_fold_merges = merges;
        self.root = Some(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_runtime::MpcConfig;
    use rand::prelude::*;
    use seaweed_lis::lis::lis_kernel;

    fn lenient(n: usize) -> Cluster {
        Cluster::new(MpcConfig::lenient(n.max(4), 0.5))
    }

    #[test]
    fn incremental_append_is_bit_identical_to_rebuild() {
        let mut rng = StdRng::seed_from_u64(41);
        for &(n, bs) in &[(1usize, 4), (57, 8), (256, 16), (700, 32)] {
            let seq: Vec<u32> = (0..n).map(|_| rng.gen_range(0..50)).collect();
            // Grow in random-size blocks…
            let mut cluster = lenient(n);
            let mut inc = AppendableLisKernel::new(bs);
            let mut at = 0;
            while at < n {
                let step = rng.gen_range(1..=(n - at).min(3 * bs));
                inc.append(&mut cluster, &seq[at..at + step]);
                at += step;
            }
            // …and compare against the one-shot build and the direct comb.
            let mut rebuilt = AppendableLisKernel::build(&mut cluster, &seq, bs);
            let direct = lis_kernel(&seq);
            assert_eq!(*rebuilt.kernel(&mut cluster), direct, "n={n} bs={bs}");
            let mut c2 = lenient(n);
            assert_eq!(*inc.kernel(&mut c2), direct, "n={n} bs={bs}");
        }
    }

    #[test]
    fn spine_stays_logarithmic_and_appends_touch_only_it() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut cluster = lenient(1 << 12);
        let mut kernel = AppendableLisKernel::new(16);
        let mut worst_merges = 0;
        for _ in 0..300 {
            let step = rng.gen_range(1..=24);
            let block: Vec<u32> = (0..step).map(|_| rng.gen_range(0..1000)).collect();
            let stats = kernel.append(&mut cluster, &block);
            worst_merges = worst_merges.max(stats.spine_merges);
            let bound = (kernel.len().max(2) as f64).log2().ceil() as usize + 1;
            assert!(
                stats.spine_len <= bound,
                "spine {} exceeds log bound {bound} at len {}",
                stats.spine_len,
                kernel.len()
            );
            assert!(
                stats.spine_merges <= bound + stats.blocks_combed,
                "carry cascade {} too long at len {}",
                stats.spine_merges,
                kernel.len()
            );
            // Sizes at least double toward the bottom.
            let sizes = kernel.spine_sizes();
            assert!(sizes.windows(2).all(|w| w[0] >= 2 * w[1]), "{sizes:?}");
        }
        assert!(worst_merges >= 2, "carries must actually cascade");
    }

    #[test]
    fn append_ledger_charges_only_the_spine() {
        let mut rng = StdRng::seed_from_u64(43);
        let n = 1 << 10;
        let seq: Vec<u32> = (0..n).map(|_| rng.gen_range(0..5000)).collect();
        let mut build_cluster = lenient(n);
        let mut kernel = AppendableLisKernel::build(&mut build_cluster, &seq, 64);
        let _ = kernel.kernel(&mut build_cluster);
        let rebuild_comm = build_cluster.ledger().scope_comm("service-");

        // One small append on the big kernel: its service-append comm must be
        // bounded by the touched nodes (stats.recombed_items), and the append
        // plus its root re-fold must stay well under a fresh rebuild.
        let mut cluster = lenient(n);
        let block: Vec<u32> = (0..32).map(|_| rng.gen_range(0..5000)).collect();
        let stats = kernel.append(&mut cluster, &block);
        let append_comm = cluster.ledger().scope_comm("service-append");
        assert_eq!(append_comm, stats.recombed_items as u64);
        let _ = kernel.kernel(&mut cluster);
        assert!(kernel.last_fold_merges() <= kernel.spine_sizes().len().max(1));
        let total_comm = cluster.ledger().scope_comm("service-");
        assert!(
            2 * total_comm < rebuild_comm,
            "append+fold comm {total_comm} not clearly under rebuild comm {rebuild_comm}"
        );
        assert_eq!(cluster.ledger().scope_violations("service-"), 0);
    }

    #[test]
    fn window_and_rank_queries_match_the_direct_kernel() {
        let mut rng = StdRng::seed_from_u64(44);
        let n = 300;
        let seq: Vec<u32> = (0..n).map(|_| rng.gen_range(0..40)).collect();
        let mut cluster = lenient(n);
        let mut kernel = AppendableLisKernel::build(&mut cluster, &seq, 16);
        let direct = seaweed_lis::lis::SemiLocalLis::new(&seq);
        for _ in 0..50 {
            let a = rng.gen_range(0..=n);
            let b = rng.gen_range(0..=n);
            let (l, r) = (a.min(b), a.max(b));
            assert_eq!(
                kernel.lis_window(&mut cluster, l, r),
                direct.lis_window(l, r),
                "[{l}, {r})"
            );
        }
        // Value→rank windows agree with counting over the sorted values.
        let mut sorted = seq.clone();
        sorted.sort_unstable();
        for _ in 0..20 {
            let lo = rng.gen_range(0..45);
            let hi = rng.gen_range(lo..=45);
            let got = kernel.value_rank_window(&mut cluster, lo, u64::from(hi));
            let want = (
                sorted.partition_point(|&v| v < lo),
                sorted.partition_point(|&v| v < hi),
            );
            assert_eq!(got, want, "values [{lo}, {hi})");
        }
    }

    #[test]
    fn empty_and_tiny_kernels() {
        let mut cluster = lenient(4);
        let mut kernel = AppendableLisKernel::new(8);
        assert!(kernel.is_empty());
        let stats = kernel.append(&mut cluster, &[]);
        assert_eq!(stats, AppendStats::default());
        assert_eq!(kernel.kernel(&mut cluster).y_len(), 0);
        kernel.append(&mut cluster, &[7]);
        assert_eq!(kernel.lis_window(&mut cluster, 0, 1), 1);
        assert_eq!(kernel.len(), 1);
        assert!(kernel.footprint_items() > 0);
    }
}
