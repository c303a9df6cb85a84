//! Theorem 1.3: exact LIS length in `O(log n)` fully-scalable MPC rounds.
//!
//! Level-by-level divide and conquer over the positions of the input sequence:
//!
//! 1. **Rank** the input (one `O(1)`-round sort): strictly increasing subsequences of
//!    the original sequence correspond exactly to increasing subsequences of the rank
//!    permutation (ties broken by descending position).
//! 2. **Base blocks**: the sequence is cut into blocks sized off the space budget
//!    (see [`base_block_size`]); each machine builds the seaweed kernel of its
//!    blocks locally ([`seaweed_lis::lis::lis_kernel_permutation`], an `O(B)`-word
//!    working set) and emits the kernel *entries*, so the ledger observes the
//!    kernel's real `3B`-item footprint rather than an opaque handle.
//! 3. **Merge levels**: adjacent nodes are merged pairwise, building one merge
//!    tree whose nodes are all alike (a sorted value set and a kernel over its
//!    compact alphabet). Node `i` of a level merges nodes `2i` and `2i + 1` of
//!    the level below, or passes node `2i` through when it is the last (the
//!    private `children` rule, which the fault repair,
//!    [`crate::witness::WitnessTrace::record`] and the witness descent read
//!    too). Per level, every pair is
//!    relabelled to the union of its value sets (inflation — `O(1)` rounds of index
//!    arithmetic) and the two kernels are composed with one *batched* MPC unit-Monge
//!    multiplication (`monge_mpc::mul_batch`), run under a `lis-merge-L<k>` ledger
//!    scope so every inner `⊡` phase is attributed per level. Beneath the round
//!    accounting, every pair's local `⊡` runs on the arena-backed steady-ant
//!    kernel (`monge::steady_ant`): one reusable per-worker scratch workspace
//!    serves the entire level's merge batch, so the hot path allocates nothing
//!    but the results. The level count is `⌈log₂(n / B)⌉`, hence `O(log n)`
//!    rounds in total.
//!
//! The pipeline keeps the tree's levels only while a later step reads them:
//! the witness descent, or the repair of a node lost to a machine kill.
//!
//! The whole pipeline honors the strict `s = Õ(n^{1−δ})` budget: it runs on
//! [`mpc_runtime::MpcConfig::new`] (strict) clusters with zero recorded
//! violations. The final kernel answers every semi-local (window) LIS query; the
//! global LIS length is read off the full window.

use crate::recovery;
use crate::witness::{self, WitnessTrace};
use monge::PermutationMatrix;
use monge_mpc::MulParams;
use mpc_runtime::{costs, Cluster, MpcConfig};
use seaweed_lis::kernel::{compose_from_product, compose_operands, SeaweedKernel};
use seaweed_lis::lis::{lis_kernel_permutation, rank_sequence};

/// Result of the MPC LIS computation.
#[derive(Clone, Debug)]
pub struct MpcLisOutcome {
    /// Length of the longest strictly increasing subsequence.
    pub length: usize,
    /// The semi-local seaweed kernel of the whole sequence (Corollary 1.3.2): window
    /// queries `LIS(A[l..r))` are answered by [`SeaweedKernel::lcs_window`] /
    /// [`SeaweedKernel::queries`].
    pub kernel: SeaweedKernel,
    /// Number of merge levels executed (each `O(1)` rounds).
    pub levels: usize,
    /// Positions (indices into the input) of one longest strictly increasing
    /// subsequence, present when witness recovery was requested
    /// ([`lis_witness_mpc`]); [`lis_kernel_mpc`] leaves it `None`.
    pub witness: Option<Vec<usize>>,
}

/// One node of the merge tree: a base block, or the merge of a run of
/// adjacent base blocks. Its kernel is over the compact alphabet of the
/// node's own values; `values` maps that alphabet back to global ranks.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Block {
    /// Sorted global ranks of the values occurring in this node.
    pub(crate) values: Vec<usize>,
    /// Kernel of (identity over `values`, node contents).
    pub(crate) kernel: SeaweedKernel,
}

impl Block {
    /// The node of the empty sequence.
    pub(crate) fn empty() -> Self {
        Self {
            values: Vec::new(),
            kernel: SeaweedKernel::from_parts(0, 0, PermutationMatrix::from_rows(Vec::new())),
        }
    }

    /// Combs one base block: `keys` (distinct, in position order) are
    /// relabelled to the compact alphabet of their sorted set, and
    /// [`lis_kernel_permutation`] builds the kernel of that permutation.
    pub(crate) fn comb(keys: &[usize]) -> Self {
        let mut values = keys.to_vec();
        values.sort_unstable();
        let relabelled: Vec<u32> = keys
            .iter()
            .map(|&k| values.partition_point(|&v| v < k) as u32)
            .collect();
        Self {
            kernel: lis_kernel_permutation(&relabelled),
            values,
        }
    }

    /// Merges two adjacent nodes with one local `⊡`.
    pub(crate) fn merge(lo: &Block, hi: &Block) -> Self {
        let (prep, (a, b)) = MergePrep::new(lo, hi);
        prep.finish(monge::mul(&a, &b))
    }

    /// Resident items: the value set plus the kernel's permutation entries.
    /// A checkpoint replicates this many items and a restore moves them.
    pub(crate) fn footprint(&self) -> usize {
        self.values.len() + self.kernel.checkpoint_entries()
    }
}

/// The merge tree's pairing rule: node `i` of a level merges nodes `2i` and
/// `2i + 1` of the level below, which holds `below` nodes, or passes node
/// `2i` through when `2i + 1` is past its end. A base node's block id is its
/// index.
pub(crate) fn children(i: usize, below: usize) -> (usize, Option<usize>) {
    (2 * i, (2 * i + 1 < below).then_some(2 * i + 1))
}

/// Builds nodes `nodes` of the level above `below`, in the order given: the
/// children of every merge node are relabelled to their union alphabet and
/// composed with one product each from `mul`, called once on the whole
/// batch of padded `⊡` operands; a pass-through node is copied.
pub(crate) fn build_nodes(
    below: &[Block],
    nodes: impl IntoIterator<Item = usize>,
    mul: impl FnOnce(&[(PermutationMatrix, PermutationMatrix)]) -> Vec<PermutationMatrix>,
) -> Vec<Block> {
    let mut operands = Vec::new();
    let plans: Vec<(usize, Option<MergePrep>)> = nodes
        .into_iter()
        .map(|i| {
            let (lo, hi) = children(i, below.len());
            let prep = hi.map(|hi| {
                let (prep, pair) = MergePrep::new(&below[lo], &below[hi]);
                operands.push(pair);
                prep
            });
            (lo, prep)
        })
        .collect();
    let mut products = mul(&operands).into_iter();
    plans
        .into_iter()
        .map(|(lo, prep)| match prep {
            Some(prep) => prep.finish(products.next().expect("one product per merge")),
            None => below[lo].clone(),
        })
        .collect()
}

/// The relabel step of one pairwise merge (§4.2, "relabel A_lo and A_hi"):
/// both kernels inflated to the union alphabet.
struct MergePrep {
    lo_inflated: SeaweedKernel,
    hi_inflated: SeaweedKernel,
    union: Vec<usize>,
}

impl MergePrep {
    /// Relabels `lo` and `hi` and returns the padded operands whose `⊡`
    /// product [`MergePrep::finish`] turns into the merged node.
    fn new(lo: &Block, hi: &Block) -> (Self, (PermutationMatrix, PermutationMatrix)) {
        let union = merge_sorted(&lo.values, &hi.values);
        let inflate = |b: &Block| {
            b.kernel
                .inflate_rows(&positions_in(&union, &b.values), union.len())
        };
        let (lo_inflated, hi_inflated) = (inflate(lo), inflate(hi));
        let operands = compose_operands(&lo_inflated, &hi_inflated);
        let prep = Self {
            lo_inflated,
            hi_inflated,
            union,
        };
        (prep, operands)
    }

    /// The merged node, from the product of the operands.
    fn finish(self, product: PermutationMatrix) -> Block {
        Block {
            kernel: compose_from_product(&self.lo_inflated, &self.hi_inflated, product),
            values: self.union,
        }
    }
}

/// Combs the base blocks holding `elems` (`(position, rank)` pairs) with one
/// `group_map`, each block locally.
/// Every block of `B` elements emits its checkpoint as `3B` entries
/// `(block, j, word)`: its sorted values for `j < B`, then its kernel's
/// entry → exit rows. So the ledger observes the real footprint; the blocks
/// are rebuilt from those entries, keyed by block id. The base phase and
/// `recovery-base` re-combing both run this.
pub(crate) fn comb_blocks(
    cluster: &mut Cluster,
    elems: Vec<(u32, u32)>,
    block_size: usize,
) -> Vec<(u32, Block)> {
    let bs = block_size as u32;
    let positions = cluster.distribute(elems);
    let entries = cluster.group_map_view(
        positions,
        move |&(pos, _)| pos / bs,
        move |&block_id, items| {
            let mut items: Vec<(u32, u32)> = items.iter().copied().collect();
            items.sort_unstable_by_key(|&(pos, _)| pos);
            let keys: Vec<usize> = items.iter().map(|&(_, r)| r as usize).collect();
            let block = Block::comb(&keys);
            let exits = (0..2 * keys.len()).map(|e| block.kernel.exit_of(e));
            let words = block.values.iter().copied().chain(exits);
            words
                .enumerate()
                .map(|(j, word)| (block_id, j as u32, word as u32))
                .collect::<Vec<_>>()
        },
    );
    let mut flat = cluster.collect(entries);
    flat.sort_unstable();
    flat.chunk_by(|a, b| a.0 == b.0)
        .map(|entries| {
            let m = entries.len() / 3;
            let values = entries[..m].iter().map(|e| e.2 as usize).collect();
            let exits = entries[m..].iter().map(|e| e.2).collect();
            let kernel = SeaweedKernel::from_parts(m, m, PermutationMatrix::from_rows(exits));
            (entries[0].0, Block { values, kernel })
        })
        .collect()
}

/// Derives the base block size from the per-machine budget (the one place the
/// formula lives).
///
/// A block of `B` elements materializes, on the machine that combs it, its
/// sorted value set (`B` items) plus its seaweed kernel (`2B` permutation
/// entries) — `3B` resident items — and the greedy packing may co-locate up to
/// `⌈⌈n/B⌉ / m⌉` blocks on one machine. `B` is therefore the largest value not
/// exceeding the `⊡` local-solve threshold with
///
/// ```text
/// 3 · B · ⌈⌈n/B⌉ / m⌉ ≤ s
/// ```
///
/// (halving until it fits, floored at 4). With the default strict budget
/// (`s = 4·log₂(n)·n^{1−δ}`, threshold `s/4`) one block per machine satisfies
/// this at `B = s/4`, which is what the old `space`-sized blocks violated: a
/// block of `s` elements combs a kernel of `2s` seaweeds.
pub fn base_block_size(n: usize, config: &MpcConfig, local_threshold: usize) -> usize {
    let machines = config.machines.max(1);
    let mut b = local_threshold.min(n.max(4)).max(4);
    while b > 4 {
        let per_machine = n.div_ceil(b).div_ceil(machines);
        if 3 * b * per_machine <= config.space {
            break;
        }
        b = (b / 2).max(4);
    }
    b
}

/// Computes the full semi-local LIS kernel of `seq` on the cluster.
pub fn lis_kernel_mpc<T: Ord>(
    cluster: &mut Cluster,
    seq: &[T],
    params: &MulParams,
) -> MpcLisOutcome {
    pipeline(cluster, seq, params, false).0
}

/// Computes the LIS kernel *and* recovers an actual witness: the bottom-up merge
/// records, per level, each node's value set and kernel (the seaweed crossing
/// structure the split needs), then `lis_mpc::witness` runs the `O(log n)`-round
/// top-down traceback — splitting a value-window query at every merge
/// ([`seaweed_lis::lis::split_window_lis`]), reconstructing each base block's
/// slice locally, and concatenating the slices with one final rebalanced sort.
/// The returned outcome carries the witness as input positions
/// ([`MpcLisOutcome::witness`], always `Some`); the descent runs under
/// `lis-witness-L<k>` / `lis-witness-base` ledger scopes and stays strict.
pub fn lis_witness_mpc<T: Ord>(
    cluster: &mut Cluster,
    seq: &[T],
    params: &MulParams,
) -> MpcLisOutcome {
    let (mut outcome, trace) = pipeline(cluster, seq, params, true);
    let positions = match &trace {
        Some(trace) => witness::recover(cluster, trace, outcome.length),
        None => Vec::new(),
    };
    debug_assert_eq!(positions.len(), outcome.length);
    outcome.witness = Some(positions);
    outcome
}

/// The base block size the pipeline picks for a length-`n` sequence on
/// `config` — the one [`base_block_size`] call site's parameters, exposed so
/// out-of-pipeline trace builders ([`crate::witness::WitnessTrace::record`])
/// and incremental rebuilds can reproduce the pipeline's merge-tree shape
/// bit for bit.
pub fn pipeline_block_size(n: usize, config: &MpcConfig, params: &MulParams) -> usize {
    let local_threshold = params.resolved(config, n.max(2)).local_threshold;
    base_block_size(n, config, local_threshold)
}

/// The shared Theorem 1.3 pipeline. The merge tree's levels are kept while
/// the run may read them again: with `record` set they become the
/// [`WitnessTrace`] for the top-down traceback, and under a kill schedule
/// they are the checkpoints a repair re-derives lost nodes from (in the model,
/// the copies left resident on the machines that combed or merged them).
pub(crate) fn pipeline<T: Ord>(
    cluster: &mut Cluster,
    seq: &[T],
    params: &MulParams,
    record: bool,
) -> (MpcLisOutcome, Option<WitnessTrace>) {
    let n = seq.len();
    // Positions, ranks and kernel entries travel the cluster as u32: beyond
    // u32::MAX the casts below would silently truncate, so refuse loudly. (The
    // LCS pipeline funnels its match-pair list through here, so this guard also
    // caps the Corollary 1.3.1 pair count.)
    assert!(
        n <= u32::MAX as usize,
        "lis-mpc indexes positions and ranks as u32: n = {n} exceeds u32::MAX"
    );
    if n == 0 {
        return (
            MpcLisOutcome {
                length: 0,
                kernel: Block::empty().kernel,
                levels: 0,
                witness: None,
            },
            None,
        );
    }

    // Fault tolerance: with kills scheduled, every level's nodes double as
    // checkpoints and are replicated onto neighbor machines; kills drained via
    // `poll_kills` destroy the lost shards, which are re-derived under
    // `recovery-*` scopes (see `crate::recovery`). Delays need no response —
    // the barrier absorbs them. `with_checkpoints` forces the replication
    // charges without faults, to measure the checkpoint overhead in isolation.
    let fault_tolerant = cluster.config().faults.has_kills();
    let replicate = fault_tolerant || cluster.config().checkpoints;
    let keep_levels = record || fault_tolerant;

    // Step 1: ranking. One sort of (value, position) pairs (Lemma 2.5) plus an
    // inverse permutation (Lemma 2.3).
    cluster.set_phase(Some("lis-rank"));
    cluster.charge_rounds("lis-rank", costs::SORT + costs::INVERSE_PERMUTATION);
    let ranks = rank_sequence(seq);

    // Step 2: base blocks, sized off the budget and combed locally (one
    // group_map).
    cluster.set_phase(Some("lis-base"));
    let block_size = pipeline_block_size(n, cluster.config(), params);
    let elems = ranks
        .iter()
        .enumerate()
        .map(|(i, &r)| (i as u32, r))
        .collect();
    let mut blocks: Vec<Block> = comb_blocks(cluster, elems, block_size)
        .into_iter()
        .map(|(_, b)| b)
        .collect();

    // Kills fired during ranking or base combing destroyed base blocks before
    // any checkpoint existed; re-comb them from the durable input. The loop
    // re-polls because the repair's own barriers can fire further events.
    if fault_tolerant {
        loop {
            let killed = cluster.poll_kills();
            if killed.is_empty() {
                break;
            }
            recovery::repair_base(cluster, &mut blocks, &ranks, block_size, &killed);
        }
        cluster.set_phase(Some("lis-base"));
    }
    if replicate {
        recovery::checkpoint_blocks(cluster, &blocks);
    }

    // Step 3: pairwise merge levels, each under its own ledger scope so the
    // inner ⊡ phases are attributed per level (`lis-merge-L2/combine-route`).
    let mut tree = vec![blocks];
    let mut levels = 0;
    while let Some(below) = tree.last().filter(|level| level.len() > 1) {
        levels += 1;
        cluster.set_phase_scope(Some(format!("lis-merge-L{levels}")));
        // Relabelling both halves of every pair to the union alphabet is an O(1)
        // round sort (the §4.2 "relabel A_lo and A_hi" step).
        cluster.set_phase(Some("relabel"));
        cluster.charge_rounds("lis-relabel", costs::SORT);
        // One batched MPC multiplication merges every pair in the same rounds.
        let mut next = build_nodes(below, 0..below.len().div_ceil(2), |operands| {
            monge_mpc::mul_batch(cluster, operands, params)
        });
        // Kills fired during this level's barriers destroyed nodes under
        // construction; re-derive them from the level-(L−1) checkpoints.
        if fault_tolerant {
            loop {
                let killed = cluster.poll_kills();
                if killed.is_empty() {
                    break;
                }
                recovery::repair_level(cluster, &mut next, below, levels, &killed, params);
            }
            cluster.set_phase_scope(Some(format!("lis-merge-L{levels}")));
        }
        if replicate {
            recovery::checkpoint_blocks(cluster, &next);
        }
        if !keep_levels {
            tree.clear();
        }
        tree.push(next);
    }
    cluster.set_phase_scope(None::<String>);

    let root = &tree.last().expect("the base level")[0];
    // A kill landing after the final merge can take the root itself (node 0
    // lives on machine 0); its checkpoint replica restores it in one shuffle.
    if fault_tolerant {
        let killed = cluster.poll_kills();
        if killed.contains(&0) {
            cluster.set_phase_scope(Some("recovery-root"));
            cluster.set_phase(Some("restore"));
            cluster.charge_superstep("restore", costs::RESTORE, root.footprint() as u64);
            cluster.set_phase_scope(None::<String>);
        }
    }
    debug_assert_eq!(root.kernel.y_len(), n);
    let length = root.kernel.lcs_window(0, n);
    cluster.set_phase(None::<String>);
    let (kernel, trace) = if record {
        let kernel = root.kernel.clone();
        let trace = WitnessTrace {
            ranks,
            block_size,
            levels: tree,
        };
        (kernel, Some(trace))
    } else {
        let root = tree.pop().expect("the root level").swap_remove(0);
        (root.kernel, None)
    };
    (
        MpcLisOutcome {
            length,
            kernel,
            levels,
            witness: None,
        },
        trace,
    )
}

/// Computes only the LIS length (Theorem 1.3).
pub fn lis_length_mpc<T: Ord>(cluster: &mut Cluster, seq: &[T], params: &MulParams) -> usize {
    lis_kernel_mpc(cluster, seq, params).length
}

/// Positions of each element of `subset` within `superset` (both strictly
/// increasing, `subset ⊆ superset`).
fn positions_in(superset: &[usize], subset: &[usize]) -> Vec<usize> {
    subset
        .iter()
        .map(|&v| {
            let idx = superset.partition_point(|&u| u < v);
            debug_assert_eq!(superset[idx], v);
            idx
        })
        .collect()
}

/// Merges two strictly increasing sequences (their elements are disjoint because
/// global ranks are unique).
fn merge_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if j == b.len() || (i < a.len() && a[i] < b[j]) {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use seaweed_lis::baselines::{lis_length_patience, semi_local_lis_brute};

    /// A strict cluster at the paper's default budget: any overshoot panics, so
    /// every test doubles as a zero-violation assertion. Higher δ shrinks the
    /// per-machine budget and forces more merge levels.
    fn strict_cluster(n: usize, delta: f64) -> Cluster {
        Cluster::new(MpcConfig::new(n.max(4), delta))
    }

    #[test]
    fn matches_patience_on_random_permutations() {
        let mut rng = StdRng::seed_from_u64(1);
        for &n in &[1usize, 2, 10, 65, 130, 400, 1000] {
            let mut seq: Vec<u32> = (0..n as u32).collect();
            seq.shuffle(&mut rng);
            // A large δ forces several merge levels under the strict budget.
            let mut cluster = strict_cluster(n, 0.75);
            let got = lis_length_mpc(&mut cluster, &seq, &MulParams::default());
            assert_eq!(got, lis_length_patience(&seq), "n={n}");
            assert_eq!(cluster.ledger().space_violations, 0);
        }
    }

    #[test]
    fn matches_patience_with_duplicates() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let n = rng.gen_range(1..300);
            let seq: Vec<u32> = (0..n).map(|_| rng.gen_range(0..40)).collect();
            let mut cluster = strict_cluster(n as usize, 0.7);
            let got = lis_length_mpc(&mut cluster, &seq, &MulParams::default());
            assert_eq!(got, lis_length_patience(&seq), "{seq:?}");
        }
    }

    #[test]
    fn kernel_matches_sequential_divide_and_conquer() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200;
        let mut seq: Vec<u32> = (0..n as u32).collect();
        seq.shuffle(&mut rng);
        let mut cluster = strict_cluster(n, 0.75);
        let outcome = lis_kernel_mpc(&mut cluster, &seq, &MulParams::default());
        assert!(outcome.levels >= 2, "the strict budget must force merging");
        let sequential = seaweed_lis::lis::lis_kernel(&seq);
        assert_eq!(outcome.kernel, sequential);
    }

    #[test]
    fn semi_local_queries_from_mpc_kernel() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 60;
        let mut seq: Vec<u32> = (0..n as u32).collect();
        seq.shuffle(&mut rng);
        let mut cluster = strict_cluster(n, 0.6);
        let outcome = lis_kernel_mpc(&mut cluster, &seq, &MulParams::default());
        let brute = semi_local_lis_brute(&seq);
        let queries = outcome.kernel.queries();
        for l in 0..=n {
            for r in l..=n {
                assert_eq!(queries.lcs_window(l, r), brute[l][r], "[{l},{r})");
            }
        }
    }

    #[test]
    fn round_count_grows_logarithmically() {
        // Rounds per merge level are bounded by a constant; the number of levels is
        // ⌈log₂(n / B)⌉, so rounds/levels must stay flat as n grows.
        let mut per_level = Vec::new();
        for &n in &[256usize, 512, 1024, 2048] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut seq: Vec<u32> = (0..n as u32).collect();
            seq.shuffle(&mut rng);
            let mut cluster = strict_cluster(n, 0.75);
            let outcome = lis_kernel_mpc(&mut cluster, &seq, &MulParams::default());
            assert_eq!(outcome.length, lis_length_patience(&seq));
            assert!(outcome.levels >= 2);
            per_level.push(cluster.rounds() as f64 / outcome.levels as f64);
        }
        let min = per_level.iter().cloned().fold(f64::MAX, f64::min);
        let max = per_level.iter().cloned().fold(0.0, f64::max);
        assert!(
            max <= 4.0 * min,
            "rounds per level should stay bounded: {per_level:?}"
        );
    }

    #[test]
    fn merge_phases_are_scoped_per_level() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 512;
        let mut seq: Vec<u32> = (0..n as u32).collect();
        seq.shuffle(&mut rng);
        let mut cluster = strict_cluster(n, 0.75);
        let outcome = lis_kernel_mpc(&mut cluster, &seq, &MulParams::default());
        let ledger = cluster.ledger();
        for level in 1..=outcome.levels {
            let prefix = format!("lis-merge-L{level}/");
            assert!(
                ledger
                    .rounds_by_phase
                    .keys()
                    .any(|k| k.starts_with(&prefix)),
                "no ledger phases recorded under {prefix}"
            );
        }
        // Strict cluster + explicit check: no phase recorded a violation.
        assert!(ledger.violations_by_phase.is_empty());
    }

    #[test]
    fn base_block_size_respects_budget() {
        // One block's 3B footprint times the blocks-per-machine factor must fit.
        for &(n, delta) in &[(1usize << 12, 0.5), (1 << 14, 0.75), (1 << 10, 0.25)] {
            let cfg = MpcConfig::new(n, delta);
            let thr = (cfg.space / 4).max(4);
            let b = base_block_size(n, &cfg, thr);
            let per_machine = n.div_ceil(b).div_ceil(cfg.machines);
            assert!(
                3 * b * per_machine <= cfg.space || b == 4,
                "B={b} overshoots at n={n} δ={delta}"
            );
            assert!(b <= thr);
        }
    }

    #[test]
    fn witness_is_valid_across_depths() {
        // The recovered positions must spell out an actual LIS — strictly
        // increasing positions and values, length equal to the kernel's — at
        // budgets forcing several merge levels (with odd block counts too).
        let mut rng = StdRng::seed_from_u64(11);
        for &(n, delta) in &[
            (1usize, 0.5),
            (5, 0.5),
            (130, 0.75),
            (400, 0.75),
            (1000, 0.6),
        ] {
            let seq: Vec<u32> = (0..n).map(|_| rng.gen_range(0..60) as u32).collect();
            let mut cluster = strict_cluster(n, delta);
            let outcome = lis_witness_mpc(&mut cluster, &seq, &MulParams::default());
            let witness = outcome.witness.as_ref().expect("witness requested");
            assert_eq!(outcome.length, lis_length_patience(&seq), "n={n}");
            assert_eq!(witness.len(), outcome.length, "n={n}");
            assert!(witness.windows(2).all(|w| w[0] < w[1]));
            assert!(
                witness.windows(2).all(|w| seq[w[0]] < seq[w[1]]),
                "not strictly increasing: n={n} δ={delta}"
            );
            assert_eq!(cluster.ledger().space_violations, 0);
        }
    }

    #[test]
    fn witness_phases_are_scoped_and_cheap() {
        let mut rng = StdRng::seed_from_u64(12);
        let n = 512;
        let mut seq: Vec<u32> = (0..n as u32).collect();
        seq.shuffle(&mut rng);

        let mut plain = strict_cluster(n, 0.75);
        let _ = lis_kernel_mpc(&mut plain, &seq, &MulParams::default());
        let plain_rounds = plain.rounds();

        let mut traced = strict_cluster(n, 0.75);
        let outcome = lis_witness_mpc(&mut traced, &seq, &MulParams::default());
        assert!(outcome.levels >= 2);
        let ledger = traced.ledger();
        // Every merge level has a matching witness-descent scope, plus the base
        // reconstruction; none of them may violate the strict budget (the
        // cluster would have panicked) nor be recorded as violating.
        for level in 1..=outcome.levels {
            let prefix = format!("lis-witness-L{level}/");
            assert!(
                ledger
                    .rounds_by_phase
                    .keys()
                    .any(|k| k.starts_with(&prefix)),
                "no ledger phases recorded under {prefix}"
            );
        }
        assert!(ledger
            .rounds_by_phase
            .keys()
            .any(|k| k.starts_with("lis-witness-base/")));
        assert!(ledger.violations_by_phase.is_empty());
        // The descent is a small constant fraction of the bottom-up merge.
        assert!(
            traced.rounds() <= 2 * plain_rounds,
            "witness recovery more than doubled the rounds: {} vs {}",
            traced.rounds(),
            plain_rounds
        );
    }

    #[test]
    fn witness_on_duplicate_heavy_input() {
        // Ties rank right-to-left, so a valid witness exists even when the
        // sequence is mostly one value.
        let mut rng = StdRng::seed_from_u64(13);
        let seq: Vec<u32> = (0..300).map(|_| rng.gen_range(0..4) as u32).collect();
        let mut cluster = strict_cluster(seq.len(), 0.7);
        let outcome = lis_witness_mpc(&mut cluster, &seq, &MulParams::default());
        let witness = outcome.witness.unwrap();
        assert_eq!(witness.len(), lis_length_patience(&seq));
        assert!(witness.windows(2).all(|w| seq[w[0]] < seq[w[1]]));
    }

    #[test]
    fn witness_of_empty_and_constant_sequences() {
        let mut cluster = strict_cluster(4, 0.5);
        let outcome = lis_witness_mpc::<u32>(&mut cluster, &[], &MulParams::default());
        assert_eq!(outcome.witness.as_deref(), Some(&[][..]));
        let mut cluster = strict_cluster(64, 0.5);
        let outcome = lis_witness_mpc(&mut cluster, &[3u32; 64], &MulParams::default());
        assert_eq!(outcome.length, 1);
        assert_eq!(outcome.witness.unwrap().len(), 1);
    }

    #[test]
    fn single_kill_at_each_merge_level_recovers_bit_identically() {
        use mpc_runtime::FaultPlan;
        let mut rng = StdRng::seed_from_u64(21);
        let n = 512;
        let mut seq: Vec<u32> = (0..n as u32).collect();
        seq.shuffle(&mut rng);
        // Probe run: fault-free, to locate each merge level's superstep span.
        let mut probe = strict_cluster(n, 0.75);
        let baseline = lis_witness_mpc(&mut probe, &seq, &MulParams::default());
        let base_rounds = probe.rounds();
        assert!(baseline.levels >= 2);
        for level in 1..=baseline.levels {
            let (lo, hi) = probe
                .ledger()
                .superstep_span_of(&format!("lis-merge-L{level}/"))
                .expect("level ran");
            // Kill machine 0 mid-level: node 0 of every level lives there, so
            // the repair path genuinely re-derives (and the root restore runs
            // when the kill lands after the final merge).
            let plan = FaultPlan::kill(0, ((lo + hi) / 2).max(1));
            let mut faulty = Cluster::new(MpcConfig::new(n, 0.75).with_faults(plan));
            let outcome = lis_witness_mpc(&mut faulty, &seq, &MulParams::default());
            assert_eq!(outcome.length, baseline.length, "level {level}");
            assert_eq!(outcome.kernel, baseline.kernel, "level {level}");
            assert_eq!(outcome.witness, baseline.witness, "level {level}");
            let ledger = faulty.ledger();
            assert_eq!(ledger.kills(), 1, "level {level}");
            assert_eq!(ledger.space_violations, 0, "level {level}");
            assert!(
                faulty.rounds() <= 2 * base_rounds,
                "recovery overhead at level {level}: {} vs {base_rounds}",
                faulty.rounds()
            );
        }
    }

    #[test]
    fn kill_of_a_pass_through_node_recovers_bit_identically() {
        use mpc_runtime::FaultPlan;
        let mut rng = StdRng::seed_from_u64(25);
        let (n, delta) = (700, 0.75);
        let mut seq: Vec<u32> = (0..n as u32).collect();
        seq.shuffle(&mut rng);
        let params = MulParams::default();
        let mut probe = strict_cluster(n, delta);
        let baseline = lis_witness_mpc(&mut probe, &seq, &params);
        let machines = probe.config().machines;
        // The pipeline's tree shape: find a level whose children are odd in
        // number, so its last node is a pass-through, and small enough that
        // the pass-through node is alone on its machine.
        let trace = WitnessTrace::record(&seq, pipeline_block_size(n, probe.config(), &params));
        let level = (1..trace.levels.len())
            .find(|&l| trace.levels[l - 1].len() % 2 == 1 && trace.levels[l].len() <= machines)
            .expect("the tree has a level with a lone pass-through node");
        let machine = (trace.levels[level].len() - 1) % machines;
        let (lo, hi) = probe
            .ledger()
            .superstep_span_of(&format!("lis-merge-L{level}/"))
            .expect("level ran");
        let plan = FaultPlan::kill(machine, (lo + hi) / 2);
        let mut faulty = Cluster::new(MpcConfig::new(n, delta).with_faults(plan));
        let outcome = lis_witness_mpc(&mut faulty, &seq, &params);
        assert_eq!(outcome.length, baseline.length);
        assert_eq!(outcome.kernel, baseline.kernel);
        assert_eq!(outcome.witness, baseline.witness);
        let ledger = faulty.ledger();
        assert_eq!(ledger.kills(), 1);
        assert_eq!(ledger.space_violations, 0);
        assert!(
            ledger
                .rounds_by_phase
                .keys()
                .any(|k| k.starts_with(&format!("recovery-L{level}/"))),
            "the kill at level {level} must run its repair"
        );
    }

    #[test]
    fn kill_during_base_phase_recombs_from_input() {
        use mpc_runtime::FaultPlan;
        let mut rng = StdRng::seed_from_u64(22);
        let seq: Vec<u32> = (0..400).map(|_| rng.gen_range(0..80) as u32).collect();
        let mut probe = strict_cluster(seq.len(), 0.7);
        let baseline = lis_witness_mpc(&mut probe, &seq, &MulParams::default());
        // Superstep 1 is the rank sort; 2 the base group_map — both before any
        // checkpoint exists, so recovery must re-comb from the input.
        for at in [1, 2] {
            let mut faulty =
                Cluster::new(MpcConfig::new(seq.len(), 0.7).with_faults(FaultPlan::kill(0, at)));
            let outcome = lis_witness_mpc(&mut faulty, &seq, &MulParams::default());
            assert_eq!(outcome.length, baseline.length, "superstep {at}");
            assert_eq!(outcome.witness, baseline.witness, "superstep {at}");
            assert_eq!(faulty.ledger().space_violations, 0);
            assert!(faulty
                .ledger()
                .rounds_by_phase
                .keys()
                .any(|k| k.starts_with("recovery-base/")));
        }
    }

    #[test]
    fn straggler_delays_cost_stalls_not_rounds() {
        use mpc_runtime::FaultPlan;
        let mut rng = StdRng::seed_from_u64(23);
        let mut seq: Vec<u32> = (0..300).collect();
        seq.shuffle(&mut rng);
        let mut plain = strict_cluster(300, 0.7);
        let baseline = lis_witness_mpc(&mut plain, &seq, &MulParams::default());
        let plan = FaultPlan::delay(0, 2, 4).and_delay(1, 7, 3);
        let mut delayed = Cluster::new(MpcConfig::new(300, 0.7).with_faults(plan));
        let outcome = lis_witness_mpc(&mut delayed, &seq, &MulParams::default());
        assert_eq!(outcome.length, baseline.length);
        assert_eq!(outcome.kernel, baseline.kernel);
        assert_eq!(outcome.witness, baseline.witness);
        // Delay-only plans neither checkpoint nor recover: the synchronous
        // round count is exactly the fault-free one, the stall is ledgered.
        assert_eq!(delayed.rounds(), plain.rounds());
        assert_eq!(delayed.ledger().stall_rounds, 7);
        assert_eq!(delayed.ledger().fault_events.len(), 2);
    }

    #[test]
    fn forced_checkpoints_charge_replication_without_faults() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut seq: Vec<u32> = (0..512).collect();
        seq.shuffle(&mut rng);
        let mut plain = strict_cluster(512, 0.75);
        let baseline = lis_kernel_mpc(&mut plain, &seq, &MulParams::default());
        let mut ckpt = Cluster::new(MpcConfig::new(512, 0.75).with_checkpoints(true));
        let outcome = lis_kernel_mpc(&mut ckpt, &seq, &MulParams::default());
        assert_eq!(outcome.kernel, baseline.kernel);
        // One CHECKPOINT superstep per produced level (base + every merge).
        assert_eq!(
            ckpt.rounds() - plain.rounds(),
            (baseline.levels as u64 + 1) * costs::CHECKPOINT
        );
        assert_eq!(ckpt.ledger().space_violations, 0);
    }

    #[test]
    fn sorted_and_reversed_inputs() {
        let inc: Vec<u32> = (0..500).collect();
        let dec: Vec<u32> = (0..500).rev().collect();
        let mut cluster = strict_cluster(500, 0.7);
        assert_eq!(
            lis_length_mpc(&mut cluster, &inc, &MulParams::default()),
            500
        );
        let mut cluster = strict_cluster(500, 0.7);
        assert_eq!(lis_length_mpc(&mut cluster, &dec, &MulParams::default()), 1);
    }

    #[test]
    fn empty_and_singleton() {
        let mut cluster = strict_cluster(4, 0.5);
        assert_eq!(
            lis_length_mpc::<u32>(&mut cluster, &[], &MulParams::default()),
            0
        );
        assert_eq!(
            lis_length_mpc(&mut cluster, &[7u32], &MulParams::default()),
            1
        );
    }
}
