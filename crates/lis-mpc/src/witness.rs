//! Distributed LIS witness recovery: the top-down traceback over the recorded
//! merge tree of Theorem 1.3.
//!
//! The bottom-up pass of [`crate::lis::lis_witness_mpc`] keeps every level of
//! its merge tree: each node is a sorted value set and a seaweed kernel (in
//! the model these stay resident on the machines that combed or merged
//! them), and node `i` of a level merges nodes `2i` and `2i + 1` of the level
//! below, or passes node `2i` through when it is the last. Recovery descends
//! the same tree in `O(log n)` rounds:
//!
//! 1. **Split** (per level, `O(1)` rounds): each active node holds a query
//!    "realize `t` witness elements using global ranks in `[vlo, vhi)`". A
//!    pass-through node hands its query to its one child. At a merge node
//!    the query is split into per-child sub-queries with one
//!    Hirschberg-style scan over the children's checkpointed kernels
//!    ([`seaweed_lis::lis::split_window_lis`], built on the
//!    [`seaweed_lis::kernel::SeaweedKernel::x_prefix_lcs`] /
//!    [`x_suffix_lcs`](seaweed_lis::kernel::SeaweedKernel::x_suffix_lcs)
//!    value-window queries): because the witness increases in value as position
//!    grows, a threshold `w` separates the part realized in the left child
//!    (values `< w`) from the part in the right child (values `≥ w`), and
//!    `t` splits as `t_lo + t_hi`. Zero-length sub-queries are pruned. The
//!    scan touches one checkpointed entry per union value in the window —
//!    at most `n` items per level, which the simulation routes through a real
//!    prefix-sum superstep so the ledger observes the footprint — and the
//!    sub-queries leave with one shuffle.
//! 2. **Reconstruct** (base level, where a node's index is its block id): the
//!    surviving block-addressed queries are
//!    joined against the resident input elements with one
//!    [`mpc_runtime::Cluster::cogroup_map`]; each base block recovers its slice
//!    locally by patience sorting with parent pointers
//!    ([`seaweed_lis::lis::lis_witness_in_rank_range`]) — length exactly the
//!    split's `t`, by the split invariant.
//! 3. **Concatenate**: the chosen `(position, rank)` pairs are put in position
//!    order by one final rebalanced sort; ranks then increase along the result
//!    by construction, so the positions spell out an actual LIS.
//!
//! Every phase runs under a `lis-witness-L<k>` / `lis-witness-base` ledger
//! scope on the same strict cluster as the bottom-up pass; the descent adds
//! `O(1)` rounds per level, a small constant fraction of what the level's `⊡`
//! merge cost on the way up (the `exp_lis_rounds` harness asserts ≤ 2×
//! overall).
//!
//! # Batched descent
//!
//! The descent generalizes to *many* value-window queries at once
//! ([`recover_batch`]): every in-flight query carries its id down the same
//! schedule, so a batch of `q` queries still pays one candidate-scan superstep
//! and one shuffle per level — not `q` descents. The scanned candidates are
//! deduplicated across queries (the checkpoints are resident; one pass over a
//! level's entries serves every query that needs them), keeping the routed
//! footprint at most `n` items per level regardless of batch size. This is the
//! amortization the `lis-service` crate leans on to serve concurrent witness
//! queries against one hot kernel.
//!
//! A trace can come from the MPC pipeline (`lis_witness_mpc` records it as it
//! merges) or be recorded sequentially from the input with
//! [`WitnessTrace::record`] — the two are bit-identical at the same block size
//! because the `⊡` composition is exact, so a service can rebuild the trace of
//! a cached sequence without re-running the cluster pipeline.

use crate::lis::{build_nodes, children, Block};
use crate::recovery;
use mpc_runtime::{costs, Cluster};
use seaweed_lis::kernel::SeaweedKernel;
use seaweed_lis::lis::{lis_witness_in_rank_range, rank_sequence, split_window_lis};

/// The merge tree recorded by the bottom-up pass of
/// [`crate::lis::lis_witness_mpc`] (or sequentially by
/// [`WitnessTrace::record`]): everything the top-down traceback needs to
/// realize value-window witness queries without touching the pipeline again.
#[derive(Clone, Debug, PartialEq)]
pub struct WitnessTrace {
    /// Global rank of every input position (the sequence the blocks hold).
    pub(crate) ranks: Vec<u32>,
    /// Base block size (positions `[b·B, (b+1)·B)` form block `b`).
    pub(crate) block_size: usize,
    /// `levels[0]` = base blocks; `levels[k]` = nodes after `k` merge levels.
    pub(crate) levels: Vec<Vec<Block>>,
}

impl WitnessTrace {
    /// Records the merge tree of `seq` sequentially, without a cluster: comb
    /// each `block_size`-element base block, then build every level above it
    /// by the pipeline's pairing rule, with local `⊡` products. Because the
    /// `⊡` composition is exact and associative, the resulting trace is
    /// **bit-identical** to the one `lis_witness_mpc` records at the same
    /// block size (see [`crate::lis::pipeline_block_size`] for the size the
    /// pipeline picks).
    pub fn record<T: Ord>(seq: &[T], block_size: usize) -> Self {
        let ranks = rank_sequence(seq);
        let block_size = block_size.max(1);
        let mut levels: Vec<Vec<Block>> = Vec::new();
        if !ranks.is_empty() {
            let base = ranks.chunks(block_size).map(|chunk| {
                let keys: Vec<usize> = chunk.iter().map(|&r| r as usize).collect();
                Block::comb(&keys)
            });
            levels.push(base.collect());
            while let Some(below) = levels.last().filter(|level| level.len() > 1) {
                let next = build_nodes(below, 0..below.len().div_ceil(2), |operands| {
                    operands.iter().map(|(a, b)| monge::mul(a, b)).collect()
                });
                levels.push(next);
            }
        }
        Self {
            ranks,
            block_size,
            levels,
        }
    }

    /// Length of the traced sequence.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Whether the traced sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Base block size the trace was recorded at.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of merge levels above the base blocks.
    pub fn merge_levels(&self) -> usize {
        self.levels.len().saturating_sub(1)
    }

    /// Global rank of every input position (ties rank right-to-left, so
    /// strictly increasing subsequences of the input correspond exactly to
    /// increasing rank subsequences).
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }

    /// The root kernel — the full semi-local LIS kernel of the traced
    /// sequence (equal to [`seaweed_lis::lis::lis_kernel`]). `None` only for
    /// the empty sequence.
    pub fn kernel(&self) -> Option<&SeaweedKernel> {
        self.levels
            .last()
            .and_then(|level| level.first())
            .map(|node| &node.kernel)
    }

    /// Length of the longest increasing subsequence of the traced sequence
    /// restricted to global ranks in `[vlo, vhi)`, read off the root kernel.
    /// This is the `t` that a `recover_batch` query for the same window will
    /// realize.
    pub fn value_window_lis(&self, vlo: usize, vhi: usize) -> usize {
        let Some(root) = self.levels.last().and_then(|level| level.first()) else {
            return 0;
        };
        let a = root.values.partition_point(|&v| v < vlo);
        let b = root.values.partition_point(|&v| v < vhi);
        root.kernel.lcs_x_window(a, b)
    }

    /// Length of the longest increasing subsequence of the traced sequence.
    pub fn lis_length(&self) -> usize {
        self.value_window_lis(0, self.ranks.len())
    }

    /// Total resident items across every checkpointed node: each node holds
    /// its sorted value set plus its kernel's permutation entries. This is the
    /// footprint a cache's byte budget should charge for keeping the trace
    /// hot.
    pub fn checkpoint_footprint(&self) -> usize {
        self.levels.iter().flatten().map(Block::footprint).sum()
    }
}

/// A value-window witness query in flight, addressed to one node of a level:
/// `(query id, node index, vlo, vhi, t)`.
type Query = (usize, usize, usize, usize, usize);

/// Runs the top-down traceback for a whole batch of value-window witness
/// queries in **one** descent schedule.
///
/// Each window `(vlo, vhi)` asks for the positions of one longest increasing
/// subsequence of the traced sequence restricted to global ranks in
/// `[vlo, vhi)`; the target length is read off the root kernel
/// ([`WitnessTrace::value_window_lis`]), so the `i`-th returned vector has
/// exactly that length, its positions ascend and their ranks strictly
/// increase. The full-sequence witness is the window `(0, trace.len())`.
///
/// Every level still costs one candidate-scan superstep plus one shuffle no
/// matter how many queries ride the batch — the in-flight queries carry their
/// ids down a shared schedule and the scanned checkpoint candidates are
/// deduplicated across queries, so the routed footprint stays at most `n`
/// items per level. Ledger phases land under `<scope>-L<k>` / `<scope>-base`
/// labels (the pipeline uses `"lis-witness"`; the analytics service passes its
/// own `service-*` scope so batched descents are attributable).
pub fn recover_batch(
    cluster: &mut Cluster,
    trace: &WitnessTrace,
    windows: &[(usize, usize)],
    scope: &str,
) -> Vec<Vec<usize>> {
    let n = trace.ranks.len();
    let mut results: Vec<Vec<usize>> = vec![Vec::new(); windows.len()];
    if trace.levels.is_empty() {
        return results;
    }
    let top = trace.levels.len() - 1;
    let mut expected = vec![0usize; windows.len()];
    let mut queries: Vec<Query> = Vec::new();
    for (qid, &(vlo, vhi)) in windows.iter().enumerate() {
        assert!(
            vlo <= vhi && vhi <= n,
            "witness window [{vlo}, {vhi}) is invalid for a sequence of {n} ranks"
        );
        let t = trace.value_window_lis(vlo, vhi);
        expected[qid] = t;
        if t > 0 {
            queries.push((qid, 0, vlo, vhi, t));
        }
    }
    if queries.is_empty() {
        return results;
    }

    for level in (1..=top).rev() {
        cluster.set_phase_scope(Some(format!("{scope}-L{level}")));
        cluster.set_phase(Some("split"));
        let nodes = &trace.levels[level];
        let below = &trace.levels[level - 1];

        // The split scan touches one checkpointed kernel entry per union value
        // inside each active merge window; route that slice through a real
        // prefix-sum superstep so strict clusters observe the level's true
        // footprint. Candidates are deduplicated across the batch — the
        // checkpoints are resident, so one pass over a level's entries serves
        // every query that needs them — keeping this ≤ n items per level no
        // matter the batch size.
        // Each query's candidates inside a node form one contiguous index
        // interval, so the batch dedups by merging intervals per node and
        // emitting every candidate once — O(q log q + union) local work
        // instead of materializing (and sorting) one copy per query. The
        // emitted order equals the sorted-deduped order: nodes ascend, and a
        // node's values are its sorted, duplicate-free rank union.
        let mut intervals: Vec<(u32, u32, u32)> = queries
            .iter()
            .filter(|&&(_, idx, ..)| children(idx, below.len()).1.is_some())
            .filter_map(|&(_, idx, vlo, vhi, _)| {
                let node = &nodes[idx];
                let a = node.values.partition_point(|&v| v < vlo);
                let b = node.values.partition_point(|&v| v < vhi);
                (a < b).then_some((idx as u32, a as u32, b as u32))
            })
            .collect();
        intervals.sort_unstable();
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        let mut at = 0;
        while at < intervals.len() {
            let (idx, a, mut b) = intervals[at];
            at += 1;
            while at < intervals.len() && intervals[at].0 == idx && intervals[at].1 <= b {
                b = b.max(intervals[at].2);
                at += 1;
            }
            candidates.extend(
                nodes[idx as usize].values[a as usize..b as usize]
                    .iter()
                    .map(|&v| (idx, v as u32)),
            );
        }
        let cdv = cluster.distribute(candidates);
        let scanned = cluster.prefix_sums(cdv, |_| 1);
        drop(cluster.collect(scanned));
        // The pruned sub-queries leave for their child nodes' machines.
        cluster.charge_rounds("witness-route", costs::SHUFFLE);

        // A kill during this level's barriers costs one replica restore of the
        // lost checkpoints; the in-flight split queries are re-derived
        // deterministically from the level above (see `crate::recovery`).
        let killed = cluster.poll_kills();
        if !killed.is_empty() {
            recovery::restore_for_witness(
                cluster,
                below,
                &killed,
                &format!("recovery-witness-L{level}"),
            );
            cluster.set_phase_scope(Some(format!("{scope}-L{level}")));
        }

        let mut next: Vec<Query> = Vec::with_capacity(2 * queries.len());
        for (qid, idx, vlo, vhi, t) in queries.drain(..) {
            match children(idx, below.len()) {
                (child, None) => next.push((qid, child, vlo, vhi, t)),
                (lo, Some(hi)) => {
                    let l = &below[lo];
                    let h = &below[hi];
                    let (w, t_lo, t_hi) = split_window_lis(
                        (&l.values, &l.kernel),
                        (&h.values, &h.kernel),
                        vlo,
                        vhi,
                        t,
                    );
                    if t_lo > 0 {
                        next.push((qid, lo, vlo, w, t_lo));
                    }
                    if t_hi > 0 {
                        next.push((qid, hi, w, vhi, t_hi));
                    }
                }
            }
        }
        queries = next;
    }

    // Base level: join the surviving block queries against the resident input
    // elements and reconstruct each slice where its block lives.
    cluster.set_phase_scope(Some(format!("{scope}-base")));
    cluster.set_phase(Some("reconstruct"));
    let block_size = trace.block_size as u32;
    let elements = cluster.distribute(
        trace
            .ranks
            .iter()
            .enumerate()
            .map(|(i, &r)| (i as u32, r))
            .collect::<Vec<_>>(),
    );
    let base_queries: Vec<(u32, u32, u32, u32, u32)> = queries
        .into_iter()
        .map(|(qid, block, vlo, vhi, t)| {
            (block as u32, qid as u32, vlo as u32, vhi as u32, t as u32)
        })
        .collect();
    let qdv = cluster.distribute(base_queries);
    let chosen = cluster.cogroup_map(
        elements,
        qdv,
        move |&(pos, _)| pos / block_size,
        |&(block, ..)| block,
        |_, elems, qs| {
            if qs.is_empty() {
                return Vec::new();
            }
            let elems: Vec<(u32, u32)> = elems.iter().copied().collect();
            let mut out = Vec::new();
            for &(_, qid, vlo, vhi, t) in qs.iter() {
                let slice = lis_witness_in_rank_range(&elems, vlo, vhi);
                assert_eq!(
                    slice.len(),
                    t as usize,
                    "base block failed to realize its split length"
                );
                out.extend(slice.into_iter().map(|(pos, rank)| (qid, pos, rank)));
            }
            out
        },
    );

    // A kill during the base reconstruction restores the lost level-0
    // checkpoints from their replicas; the chosen pairs re-derive locally.
    let killed = cluster.poll_kills();
    if !killed.is_empty() {
        recovery::restore_for_witness(cluster, &trace.levels[0], &killed, "recovery-witness-base");
        cluster.set_phase_scope(Some(format!("{scope}-base")));
    }

    // Final rebalanced sort puts every query's slices in position order; the
    // split thresholds guarantee ranks increase along each query's result.
    cluster.set_phase(Some("concat"));
    let sorted = cluster.sort_by_key(chosen, |&(qid, pos, _)| (qid, pos));
    let flat = cluster.collect(sorted);
    cluster.set_phase_scope(None::<String>);
    cluster.set_phase(None::<String>);

    debug_assert!(flat.windows(2).all(|w| w[0].0 != w[1].0 || w[0].2 < w[1].2));
    for (qid, pos, _) in flat {
        results[qid as usize].push(pos as usize);
    }
    for (qid, result) in results.iter().enumerate() {
        assert_eq!(
            result.len(),
            expected[qid],
            "query {qid} failed to realize its window LIS length"
        );
    }
    results
}

/// Runs the top-down traceback for the single full-sequence query and returns
/// the witness as input positions (ascending; ranks — hence original values —
/// strictly increase along it). This is [`recover_batch`] with the one window
/// `[0, n)` under the pipeline's `lis-witness` scope.
pub(crate) fn recover(cluster: &mut Cluster, trace: &WitnessTrace, length: usize) -> Vec<usize> {
    if length == 0 {
        return Vec::new();
    }
    let n = trace.ranks.len();
    let witness = recover_batch(cluster, trace, &[(0, n)], "lis-witness")
        .pop()
        .expect("one window in, one witness out");
    debug_assert_eq!(witness.len(), length);
    witness
}

#[cfg(test)]
mod tests {
    use super::*;
    use monge_mpc::MulParams;
    use mpc_runtime::MpcConfig;
    use rand::prelude::*;
    use seaweed_lis::baselines::lis_length_patience;

    fn random_seq(rng: &mut StdRng, n: usize, alphabet: u32) -> Vec<u32> {
        (0..n).map(|_| rng.gen_range(0..alphabet)).collect()
    }

    /// The patience length of the subsequence with ranks restricted to a
    /// window — the brute-force answer `recover_batch` must realize.
    fn window_lis_brute(ranks: &[u32], vlo: usize, vhi: usize) -> usize {
        let filtered: Vec<u32> = ranks
            .iter()
            .copied()
            .filter(|&r| (vlo..vhi).contains(&(r as usize)))
            .collect();
        lis_length_patience(&filtered)
    }

    #[test]
    fn record_matches_pipeline_trace_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(31);
        for &(n, delta) in &[(37usize, 0.5), (130, 0.75), (400, 0.75), (513, 0.6)] {
            let seq = random_seq(&mut rng, n, 60);
            let params = MulParams::default();
            let mut cluster = Cluster::new(MpcConfig::new(n, delta));
            let (_, trace) = crate::lis::pipeline(&mut cluster, &seq, &params, true);
            let pipeline_trace = trace.expect("record requested");
            let recorded = WitnessTrace::record(&seq, pipeline_trace.block_size());
            assert_eq!(recorded, pipeline_trace, "n={n} δ={delta}");
        }
    }

    #[test]
    fn record_exposes_root_kernel_and_lengths() {
        let mut rng = StdRng::seed_from_u64(32);
        let seq = random_seq(&mut rng, 300, 40);
        let trace = WitnessTrace::record(&seq, 32);
        assert_eq!(trace.len(), 300);
        assert_eq!(trace.block_size(), 32);
        assert!(trace.merge_levels() >= 3);
        assert_eq!(trace.kernel(), Some(&seaweed_lis::lis::lis_kernel(&seq)));
        assert_eq!(trace.lis_length(), lis_length_patience(&seq));
        assert!(trace.checkpoint_footprint() > 0);

        let empty = WitnessTrace::record::<u32>(&[], 16);
        assert!(empty.is_empty());
        assert_eq!(empty.kernel(), None);
        assert_eq!(empty.lis_length(), 0);
        assert_eq!(empty.checkpoint_footprint(), 0);
    }

    #[test]
    fn batched_windows_realize_their_window_lis() {
        let mut rng = StdRng::seed_from_u64(33);
        // (length, alphabet): the empty sequence, then distinct-ish values,
        // then duplicate-heavy ones whose equal values span several blocks.
        let inputs = [
            (0usize, 50u32),
            (1, 50),
            (60, 50),
            (257, 50),
            (500, 50),
            (220, 12),
            (150, 3),
        ];
        for &(n, alphabet) in &inputs {
            let seq = random_seq(&mut rng, n, alphabet);
            let trace = WitnessTrace::record(&seq, 24);
            let mut windows = vec![(0, n)];
            for _ in 0..6 {
                let a = rng.gen_range(0..=n);
                let b = rng.gen_range(0..=n);
                windows.push((a.min(b), a.max(b)));
            }
            let mut cluster = Cluster::new(MpcConfig::lenient(n.max(4), 0.6));
            let results = recover_batch(&mut cluster, &trace, &windows, "test-witness");
            assert_eq!(results.len(), windows.len());
            for (&(vlo, vhi), positions) in windows.iter().zip(&results) {
                assert_eq!(
                    positions.len(),
                    window_lis_brute(trace.ranks(), vlo, vhi),
                    "window [{vlo}, {vhi}) at n={n}"
                );
                assert!(positions.windows(2).all(|w| w[0] < w[1]));
                let ranks: Vec<u32> = positions.iter().map(|&p| trace.ranks()[p]).collect();
                assert!(ranks.windows(2).all(|w| w[0] < w[1]));
                assert!(ranks.iter().all(|&r| (vlo..vhi).contains(&(r as usize))));
            }
        }
    }

    #[test]
    fn batch_descends_in_the_rounds_of_one_query() {
        // The amortization claim: q queries ride one schedule, so the round
        // count of a batched descent equals the single-query descent's.
        let mut rng = StdRng::seed_from_u64(34);
        let n = 512;
        let seq = random_seq(&mut rng, n, 80);
        let trace = WitnessTrace::record(&seq, 32);

        let mut solo = Cluster::new(MpcConfig::lenient(n, 0.7));
        let _ = recover_batch(&mut solo, &trace, &[(0, n)], "test-witness");

        let windows: Vec<(usize, usize)> = (0..8).map(|i| (i * 16, n - i * 16)).collect();
        let mut batched = Cluster::new(MpcConfig::lenient(n, 0.7));
        let _ = recover_batch(&mut batched, &trace, &windows, "test-witness");

        assert_eq!(
            batched.rounds(),
            solo.rounds(),
            "a batch must not pay extra descent rounds"
        );
    }

    #[test]
    fn empty_and_degenerate_windows_return_empty_witnesses() {
        let seq: Vec<u32> = vec![5, 5, 5, 5];
        let trace = WitnessTrace::record(&seq, 2);
        let mut cluster = Cluster::new(MpcConfig::lenient(4, 0.5));
        let results = recover_batch(&mut cluster, &trace, &[(2, 2), (0, 4)], "test-witness");
        assert_eq!(results[0], Vec::<usize>::new());
        assert_eq!(results[1].len(), 1, "all-equal sequence has LIS 1");

        let mut idle = Cluster::new(MpcConfig::lenient(4, 0.5));
        let results = recover_batch(&mut idle, &trace, &[(2, 2)], "test-witness");
        assert_eq!(results, vec![Vec::<usize>::new()]);
        assert_eq!(idle.rounds(), 0, "zero-t windows alone charge nothing");

        let empty = WitnessTrace::record::<u32>(&[], 4);
        let results = recover_batch(&mut idle, &empty, &[(0, 0)], "test-witness");
        assert_eq!(results, vec![Vec::<usize>::new()]);
    }
}
