//! Theorem 1.3: exact LIS length in `O(log n)` fully-scalable MPC rounds.
//!
//! Level-by-level divide and conquer over the positions of the input sequence:
//!
//! 1. **Rank** the input (one `O(1)`-round sort): strictly increasing subsequences of
//!    the original sequence correspond exactly to increasing subsequences of the rank
//!    permutation (ties broken by descending position).
//! 2. **Base blocks**: the sequence is cut into blocks sized off the space budget
//!    (see [`base_block_size`]); each machine combs the seaweed kernel of its
//!    blocks locally in budget-bounded streamed sub-blocks
//!    ([`seaweed_lis::lis::lis_kernel_permutation_streamed`]) and emits the
//!    kernel *entries*, so the ledger observes the kernel's real `3B`-item
//!    footprint rather than an opaque handle.
//! 3. **Merge levels**: adjacent blocks are merged pairwise. Per level, every pair is
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
//! The whole pipeline honors the strict `s = Õ(n^{1−δ})` budget: it runs on
//! [`mpc_runtime::MpcConfig::new`] (strict) clusters with zero recorded
//! violations. The final kernel answers every semi-local (window) LIS query; the
//! global LIS length is read off the full window.

use crate::recovery;
use crate::witness::{self, Provenance, TraceNode, WitnessTrace};
use monge::PermutationMatrix;
use monge_mpc::MulParams;
use mpc_runtime::{costs, Cluster, MpcConfig};
use seaweed_lis::kernel::{compose_from_product, compose_operands, SeaweedKernel};
use seaweed_lis::lis::{lis_kernel_permutation_streamed, rank_sequence};

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

/// One block of the divide and conquer: its kernel is over the compact alphabet of
/// the block's own values; `values` maps that alphabet back to global ranks.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    /// Sorted global ranks of the values occurring in this block.
    pub(crate) values: Vec<usize>,
    /// Kernel of (identity over `values`, block contents).
    pub(crate) kernel: SeaweedKernel,
}

/// Entry tags for the base-phase kernel emission: a block's sorted value set…
const KIND_VALUE: u8 = 0;
/// …and its kernel's entry → exit rows.
const KIND_EXIT: u8 = 1;

/// Combs one base block locally (in budget-bounded streamed sub-blocks) and
/// emits its checkpoint as `(block, kind, index, value)` entries — the shared
/// kernel of the base phase and of `recovery-base` re-combing.
pub(crate) fn comb_block_entries(
    block_id: u32,
    mut items: Vec<(u32, u32)>,
    chunk: usize,
) -> Vec<(u32, u8, u32, u32)> {
    items.sort_unstable_by_key(|&(pos, _)| pos);
    let block_values: Vec<u32> = items.iter().map(|&(_, r)| r).collect();
    let mut values: Vec<u32> = block_values.clone();
    values.sort_unstable();
    let relabelled: Vec<u32> = block_values
        .iter()
        .map(|&r| values.partition_point(|&v| v < r) as u32)
        .collect();
    let kernel = lis_kernel_permutation_streamed(&relabelled, chunk);
    let mut out = Vec::with_capacity(3 * values.len());
    for (i, &v) in values.iter().enumerate() {
        out.push((block_id, KIND_VALUE, i as u32, v));
    }
    for e in 0..kernel.permutation().size() {
        out.push((block_id, KIND_EXIT, e as u32, kernel.exit_of(e) as u32));
    }
    out
}

/// Rebuilds [`Block`]s from collected base-phase entries, keyed by block id
/// (ids need not be contiguous — recovery re-combs a sparse subset).
pub(crate) fn blocks_from_entries(mut flat: Vec<(u32, u8, u32, u32)>) -> Vec<(u32, Block)> {
    flat.sort_unstable();
    let mut blocks = Vec::new();
    let mut i = 0;
    while i < flat.len() {
        let block_id = flat[i].0;
        let mut values = Vec::new();
        let mut exits = Vec::new();
        while i < flat.len() && flat[i].0 == block_id {
            let (_, kind, _, val) = flat[i];
            match kind {
                KIND_VALUE => values.push(val as usize),
                _ => exits.push(val),
            }
            i += 1;
        }
        let m = values.len();
        debug_assert_eq!(exits.len(), 2 * m);
        blocks.push((
            block_id,
            Block {
                values,
                kernel: SeaweedKernel::from_parts(m, m, PermutationMatrix::from_rows(exits)),
            },
        ));
    }
    blocks
}

/// The relabel-and-pad step of one pairwise merge, shared by the merge loop
/// and by `recovery-L<k>` re-derivation: both kernels inflated to the union
/// alphabet, plus the padded `⊡` operands.
pub(crate) struct MergePrep {
    /// Left child's kernel over the union alphabet.
    pub(crate) lo_inflated: SeaweedKernel,
    /// Right child's kernel over the union alphabet.
    pub(crate) hi_inflated: SeaweedKernel,
    /// Union of the children's sorted value sets.
    pub(crate) union: Vec<usize>,
    /// Padded operands for [`monge_mpc::mul_batch`].
    pub(crate) operands: (PermutationMatrix, PermutationMatrix),
}

/// Prepares one pair's merge (the §4.2 "relabel A_lo and A_hi" step).
pub(crate) fn prepare_merge(
    lo_values: &[usize],
    lo_kernel: &SeaweedKernel,
    hi_values: &[usize],
    hi_kernel: &SeaweedKernel,
) -> MergePrep {
    let union: Vec<usize> = merge_sorted(lo_values, hi_values);
    let lo_inflated = lo_kernel.inflate_rows(&positions_in(&union, lo_values), union.len());
    let hi_inflated = hi_kernel.inflate_rows(&positions_in(&union, hi_values), union.len());
    let operands = compose_operands(&lo_inflated, &hi_inflated);
    MergePrep {
        lo_inflated,
        hi_inflated,
        union,
        operands,
    }
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

/// Chunk size for streamed base-block combing: the largest sub-block whose
/// modeled `(2c)²`-bit crossing history fits the machine's word budget
/// (`c²/16 ≤ s`), floored at the direct-comb base. (The actual comb is the
/// history-free bit-parallel fast path; this budget keeps the space model
/// honest for the reference construction.)
fn comb_chunk(space: usize) -> usize {
    (4.0 * (space as f64).sqrt()).floor().max(32.0) as usize
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

/// The shared Theorem 1.3 pipeline; with `record` set, every level's nodes are
/// snapshotted into a [`WitnessTrace`] for the top-down traceback (in the model
/// the snapshots are the per-level kernel checkpoints left resident on the
/// machines that combed/merged them).
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
                kernel: SeaweedKernel::comb(&[], &[]),
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
    let checkpoint = record || replicate;

    // Step 1: ranking. One sort of (value, position) pairs (Lemma 2.5) plus an
    // inverse permutation (Lemma 2.3).
    cluster.set_phase(Some("lis-rank"));
    cluster.charge_rounds("lis-rank", costs::SORT + costs::INVERSE_PERMUTATION);
    let ranks = rank_sequence(seq);

    // Step 2: base blocks, sized off the budget and combed locally in streamed
    // sub-blocks (one group_map). Each block emits its kernel as entries —
    // (block, kind, index, value) — so the ledger sees the true 3B-item
    // footprint per block and strict clusters enforce it.
    cluster.set_phase(Some("lis-base"));
    let block_size = pipeline_block_size(n, cluster.config(), params);
    let chunk = comb_chunk(cluster.config().space);
    let positions = cluster.distribute(
        ranks
            .iter()
            .enumerate()
            .map(|(i, &r)| (i as u32, r))
            .collect::<Vec<_>>(),
    );
    let entries = {
        let bs = block_size as u32;
        cluster.group_map_view(
            positions,
            move |&(pos, _)| pos / bs,
            move |&block_id, items| {
                comb_block_entries(block_id, items.iter().copied().collect(), chunk)
            },
        )
    };
    let mut blocks: Vec<Block> = blocks_from_entries(cluster.collect(entries))
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
            recovery::repair_base(cluster, &mut blocks, &ranks, block_size, chunk, &killed);
        }
        cluster.set_phase(Some("lis-base"));
    }

    // Witness traceback checkpoints: level 0 = the base blocks as combed.
    let mut trace_levels: Vec<Vec<TraceNode>> = Vec::new();
    if checkpoint {
        trace_levels.push(
            blocks
                .iter()
                .enumerate()
                .map(|(i, b)| TraceNode {
                    values: b.values.clone(),
                    kernel: b.kernel.clone(),
                    prov: Provenance::Base { block: i as u32 },
                })
                .collect(),
        );
    }
    if replicate {
        recovery::checkpoint_blocks(cluster, &blocks);
    }

    // Step 3: pairwise merge levels, each under its own ledger scope so the
    // inner ⊡ phases are attributed per level (`lis-merge-L2/combine-route`).
    let mut levels = 0;
    while blocks.len() > 1 {
        levels += 1;
        cluster.set_phase_scope(Some(format!("lis-merge-L{levels}")));
        // Relabelling both halves of every pair to the union alphabet is an O(1)
        // round sort (the §4.2 "relabel A_lo and A_hi" step).
        cluster.set_phase(Some("relabel"));
        cluster.charge_rounds("lis-relabel", costs::SORT);

        // Prepare the padded ⊡ operands of every pair; odd block passes through.
        let mut pairs = Vec::new();
        let mut merged_meta = Vec::new();
        let mut leftover = None;
        let mut iter = blocks.into_iter();
        while let Some(lo) = iter.next() {
            match iter.next() {
                Some(hi) => {
                    let prep = prepare_merge(&lo.values, &lo.kernel, &hi.values, &hi.kernel);
                    pairs.push(prep.operands);
                    merged_meta.push((prep.lo_inflated, prep.hi_inflated, prep.union));
                }
                None => leftover = Some(lo),
            }
        }

        // One batched MPC multiplication merges every pair in the same rounds.
        let products = monge_mpc::mul_batch(cluster, &pairs, params);
        let mut next: Vec<Block> = products
            .into_iter()
            .zip(merged_meta)
            .map(|(prod, (lo_inf, hi_inf, union))| Block {
                values: union,
                kernel: compose_from_product(&lo_inf, &hi_inf, prod),
            })
            .collect();
        if let Some(b) = leftover {
            next.push(b);
        }
        // Kills fired during this level's barriers destroyed nodes under
        // construction; re-derive them from the level-(L−1) checkpoints.
        if fault_tolerant {
            loop {
                let killed = cluster.poll_kills();
                if killed.is_empty() {
                    break;
                }
                recovery::repair_level(
                    cluster,
                    &mut next,
                    &trace_levels[levels - 1],
                    levels,
                    &killed,
                    params,
                );
            }
            cluster.set_phase_scope(Some(format!("lis-merge-L{levels}")));
        }
        if checkpoint {
            // Provenance mirrors the construction order: pair p merged children
            // (2p, 2p+1) of the previous level; an odd leftover passed through.
            let prev_len = trace_levels.last().expect("level 0 recorded").len();
            trace_levels.push(
                next.iter()
                    .enumerate()
                    .map(|(i, b)| TraceNode {
                        values: b.values.clone(),
                        kernel: b.kernel.clone(),
                        prov: if 2 * i + 1 < prev_len {
                            Provenance::Merge {
                                lo: 2 * i,
                                hi: 2 * i + 1,
                            }
                        } else {
                            Provenance::Pass { child: 2 * i }
                        },
                    })
                    .collect(),
            );
        }
        if replicate {
            recovery::checkpoint_blocks(cluster, &next);
        }
        blocks = next;
    }
    cluster.set_phase_scope(None::<String>);

    let root = blocks.pop().expect("at least one block");
    // A kill landing after the final merge can take the root itself (node 0
    // lives on machine 0); its checkpoint replica restores it in one shuffle.
    if fault_tolerant {
        let killed = cluster.poll_kills();
        if killed.contains(&0) {
            cluster.set_phase_scope(Some("recovery-root"));
            cluster.set_phase(Some("restore"));
            cluster.charge_superstep(
                "restore",
                costs::RESTORE,
                (root.values.len() + root.kernel.checkpoint_entries()) as u64,
            );
            cluster.set_phase_scope(None::<String>);
        }
    }
    debug_assert_eq!(root.kernel.y_len(), n);
    let length = root.kernel.lcs_window(0, n);
    cluster.set_phase(None::<String>);
    let trace = record.then_some(WitnessTrace {
        ranks,
        block_size,
        levels: trace_levels,
    });
    (
        MpcLisOutcome {
            length,
            kernel: root.kernel,
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
