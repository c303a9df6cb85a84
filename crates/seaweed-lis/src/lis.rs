//! LIS via the seaweed framework: the divide-and-conquer kernel construction that
//! Theorem 1.3 parallelizes.
//!
//! For a sequence `A` of `n` distinct values, `LIS(A[l..r)) = LCS(sorted(A), A[l..r))`,
//! so the semi-local kernel of `(identity over the value alphabet, A)` answers every
//! window-LIS query. The kernel is built bottom-up over the positions of `A`
//! (`A = A_lo ∘ A_hi`): each half is relabelled to its own compact alphabet, solved
//! recursively, inflated back to the full alphabet ([`SeaweedKernel::inflate_rows`])
//! and the two halves are merged with one implicit unit-Monge multiplication
//! ([`compose_horizontal`]). A part of at most 2048 elements is combed
//! directly ([`SeaweedKernel::comb_bitparallel`]). Total work `O(n log² n)`
//! above the cutoff; the MPC version (`lis-mpc`) executes the same recursion
//! level-by-level in `O(log n)` rounds, building each base block's kernel with
//! [`lis_kernel_permutation`], the one LIS kernel builder.

use crate::kernel::{compose_horizontal, SeaweedKernel, SemiLocalQueries};

/// Splits a value-window LIS query at a merge node into per-child sub-queries
/// (the Hirschberg-style step of the witness traceback).
///
/// `lo` / `hi` are the two children of the merge in position order: each is the
/// pair of its sorted global value set and its kernel over the corresponding
/// compact alphabet. The query asks for an increasing subsequence of the merged
/// content using only global values in `[vlo, vhi)`, of the *maximal* length
/// `t` (the caller guarantees `t` is exactly the value-window LIS of the merged
/// node, as read off its composed kernel).
///
/// Because the witness is increasing in value as position grows, every value it
/// uses in `lo` is smaller than every value it uses in `hi`: some threshold `w`
/// separates the two parts. The split evaluates, in one pass each,
/// `F[j] = LIS(lo, values ∈ [vlo, w))` ([`SeaweedKernel::x_prefix_lcs`]) and
/// `G[d] = LIS(hi, values ∈ [w, vhi))` ([`SeaweedKernel::x_suffix_lcs`]), then
/// walks the merged staircase of both value sets until `F[j] + G[d] = t` —
/// guaranteed to occur, since every candidate is ≤ `t` (the concatenation of
/// the two sub-witnesses is itself an increasing subsequence) and the optimum's
/// own threshold is among the candidates.
///
/// Returns `(w, t_lo, t_hi)`: the child queries are `(vlo, w, t_lo)` on `lo`
/// and `(w, vhi, t_hi)` on `hi`, with `t_lo + t_hi = t`.
pub fn split_window_lis(
    lo: (&[usize], &SeaweedKernel),
    hi: (&[usize], &SeaweedKernel),
    vlo: usize,
    vhi: usize,
    t: usize,
) -> (usize, usize, usize) {
    let (lo_values, lo_kernel) = lo;
    let (hi_values, hi_kernel) = hi;
    let la = lo_values.partition_point(|&v| v < vlo);
    let lb = lo_values.partition_point(|&v| v < vhi);
    let ra = hi_values.partition_point(|&v| v < vlo);
    let rb = hi_values.partition_point(|&v| v < vhi);
    let f = lo_kernel.x_prefix_lcs(la, lb);
    let g = hi_kernel.x_suffix_lcs(ra, rb);

    let (mut j, mut d) = (0usize, 0usize);
    if f[j] + g[d] == t {
        return (vlo, f[j], g[d]);
    }
    // Walk the merged value staircase: each union value, in increasing order,
    // moves the threshold just past itself, bumping exactly one of (j, d).
    let (mut i, mut k) = (la, ra);
    while i < lb || k < rb {
        let u = if k == rb || (i < lb && lo_values[i] < hi_values[k]) {
            j += 1;
            i += 1;
            lo_values[i - 1]
        } else {
            d += 1;
            k += 1;
            hi_values[k - 1]
        };
        if f[j] + g[d] == t {
            return (u + 1, f[j], g[d]);
        }
    }
    unreachable!("no threshold splits the window [{vlo}, {vhi}) at length {t}")
}

/// Recovers one longest increasing-in-rank subsequence of `items` restricted to
/// ranks in `[vlo, vhi)`. `items` are `(position, rank)` pairs in position
/// order; the result keeps that order. Patience sorting with parent pointers,
/// `O(B log B)` — the base-block step of the witness traceback.
pub fn lis_witness_in_rank_range(items: &[(u32, u32)], vlo: u32, vhi: u32) -> Vec<(u32, u32)> {
    let eligible: Vec<usize> = (0..items.len())
        .filter(|&i| (vlo..vhi).contains(&items[i].1))
        .collect();
    if eligible.is_empty() {
        return Vec::new();
    }
    let mut tails: Vec<usize> = Vec::new(); // indices into `eligible`
    let mut prev: Vec<usize> = vec![usize::MAX; eligible.len()];
    for (e, &i) in eligible.iter().enumerate() {
        let rank = items[i].1;
        let pos = tails.partition_point(|&tl| items[eligible[tl]].1 < rank);
        prev[e] = if pos == 0 { usize::MAX } else { tails[pos - 1] };
        if pos == tails.len() {
            tails.push(e);
        } else {
            tails[pos] = e;
        }
    }
    let mut out = Vec::with_capacity(tails.len());
    let mut cur = *tails.last().expect("nonempty");
    while cur != usize::MAX {
        out.push(items[eligible[cur]]);
        cur = prev[cur];
    }
    out.reverse();
    out
}

/// Size up to which [`lis_kernel_permutation`] combs the kernel directly
/// instead of recursing. The bit-parallel comb costs about `n²/64` word steps
/// plus its opaque cells, against the `⊡` merges' `O(n log n)` per level with a
/// much larger constant. A sweep of cutoffs 256–2048 over blocks of 158–4096
/// elements and five input families (random, noisy trend, duplicate-heavy,
/// sorted, reversed; one thread) was fastest at 2048 on every row. Re-run
/// over cutoffs 1024–4096 with the 0-Hecke-based steady ant (same blocks and
/// families, 16 blocks per row, best of 5), the cheaper `⊡` narrows the gap
/// but does not move the crossover: at B = 1792 a 1024 cutoff is still
/// 1.3–2.7× slower than 2048 (random 20.2 vs 15.7 ms), and at B = 4096 a
/// 4096 cutoff still combs 1.2–2.2× faster than recursing from 2048 (random
/// 46.7 vs 56.7 ms, sorted 15.2 vs 32.0), where the previous `⊡` left
/// 1.8–3.5× (85.6 vs 46.4, 53.1 vs 15.1).
const COMB_BASE: usize = 2048;

/// Size above which the two recursive halves are forked onto the thread pool.
/// Below this, spawning a scoped thread costs more than the subproblem.
/// `rayon::join` halves the caller's thread budget at every fork, so the
/// recursion self-limits at ~`num_threads` concurrently live subtrees and
/// continues sequentially underneath — the live thread count does not grow
/// with `n`.
const PAR_SPLIT: usize = 1 << 12;

/// Builds the LIS kernel of a permutation of `0..n` (values must be exactly
/// `0..n` in some order): a direct comb up to 2048 elements, the
/// divide-and-conquer recursion above it. Working set `O(n)` words.
pub fn lis_kernel_permutation(perm: &[u32]) -> SeaweedKernel {
    let n = perm.len();
    debug_assert!(
        {
            let mut seen = vec![false; n];
            perm.iter().all(|&v| {
                let ok = (v as usize) < n && !seen[v as usize];
                if ok {
                    seen[v as usize] = true;
                }
                ok
            })
        },
        "input must be a permutation of 0..n"
    );

    if n <= COMB_BASE {
        let x: Vec<u32> = (0..n as u32).collect();
        return SeaweedKernel::comb_bitparallel(&x, perm);
    }

    let half = n / 2;
    let (lo, hi) = perm.split_at(half);
    let (lo_relabelled, lo_values) = relabel(lo);
    let (hi_relabelled, hi_values) = relabel(hi);

    let build_lo = || lis_kernel_permutation(&lo_relabelled).inflate_rows(&lo_values, n);
    let build_hi = || lis_kernel_permutation(&hi_relabelled).inflate_rows(&hi_values, n);
    let (k_lo, k_hi) = if n >= PAR_SPLIT {
        rayon::join(build_lo, build_hi)
    } else {
        (build_lo(), build_hi())
    };
    compose_horizontal(&k_lo, &k_hi)
}

/// Relabels a sequence of distinct values to ranks `0..len`, returning the rank
/// sequence and the sorted original values.
fn relabel(seq: &[u32]) -> (Vec<u32>, Vec<usize>) {
    let mut values: Vec<usize> = seq.iter().map(|&v| v as usize).collect();
    values.sort_unstable();
    let rank = |v: u32| values.partition_point(|&x| x < v as usize) as u32;
    (seq.iter().map(|&v| rank(v)).collect(), values)
}

/// Ranks an arbitrary sequence into a permutation of `0..n` such that strictly
/// increasing subsequences are preserved exactly: equal values are ranked by
/// *decreasing* position, so no two occurrences of the same value can both appear in
/// an increasing run of ranks.
///
/// The tie direction is load-bearing, not a convention: LIS here is *strict*,
/// so two equal elements must never both be selectable, which descending-by-
/// position ranks guarantee (the earlier occurrence gets the larger rank —
/// `rank_sequence(&[5, 5]) == [1, 0]`). The inverted convention (ascending by
/// position) would instead *count* equal elements as increasing and overshoot
/// on duplicate-heavy inputs; the `rank_ties_break_descending_by_position`
/// test below and the duplicate-heavy differential proptest in
/// `tests/properties.rs` pin this down.
pub fn rank_sequence<T: Ord>(seq: &[T]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..seq.len()).collect();
    order.sort_by(|&a, &b| seq[a].cmp(&seq[b]).then(b.cmp(&a)));
    let mut ranks = vec![0u32; seq.len()];
    for (rank, &pos) in order.iter().enumerate() {
        ranks[pos] = rank as u32;
    }
    ranks
}

/// Builds the LIS kernel of an arbitrary sequence (duplicates allowed; strict
/// increase semantics).
pub fn lis_kernel<T: Ord>(seq: &[T]) -> SeaweedKernel {
    lis_kernel_permutation(&rank_sequence(seq))
}

/// Length of the longest strictly increasing subsequence, computed through the
/// seaweed kernel (the algorithmic path Theorem 1.3 parallelizes). For a plain
/// sequential answer prefer [`crate::baselines::lis_length_patience`].
pub fn lis_length<T: Ord>(seq: &[T]) -> usize {
    if seq.is_empty() {
        return 0;
    }
    lis_kernel(seq).lcs_window(0, seq.len())
}

/// Why a window-LIS query was rejected (see [`SemiLocalLis::try_lis_window`]).
///
/// Service-facing entry points must not panic on malformed client input; this
/// is the structured form of every validation [`SemiLocalLis::lis_window`]
/// enforces, so callers that serve untrusted queries can turn a bad window into
/// an error response instead of a crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowError {
    /// `l > r`: the window is inverted.
    Inverted {
        /// Window start (inclusive).
        l: usize,
        /// Window end (exclusive).
        r: usize,
        /// Length of the indexed sequence.
        len: usize,
    },
    /// `r > len`: the window runs past the end of the sequence.
    OutOfRange {
        /// Window start (inclusive).
        l: usize,
        /// Window end (exclusive).
        r: usize,
        /// Length of the indexed sequence.
        len: usize,
    },
    /// The window end exceeds `u32::MAX`: the dominance counter underneath
    /// indexes columns as `u32`, so larger bounds would silently truncate.
    IndexOverflow {
        /// The offending window end.
        r: usize,
    },
}

impl std::fmt::Display for WindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WindowError::Inverted { l, r, len } | WindowError::OutOfRange { l, r, len } => {
                write!(
                    f,
                    "LIS window [{l}, {r}) is invalid for a sequence of length {len}"
                )
            }
            WindowError::IndexOverflow { r } => {
                write!(f, "LIS window end {r} exceeds the u32 index range")
            }
        }
    }
}

impl std::error::Error for WindowError {}

/// Semi-local LIS: answers `LIS(A[l..r))` for arbitrary windows after an
/// `O(n log² n)` preprocessing (Corollary 1.3.2's sequential counterpart).
#[derive(Clone, Debug)]
pub struct SemiLocalLis {
    queries: SemiLocalQueries,
}

impl SemiLocalLis {
    /// Preprocesses the sequence.
    pub fn new<T: Ord>(seq: &[T]) -> Self {
        Self {
            queries: lis_kernel(seq).queries(),
        }
    }

    /// Builds the query structure from an already-computed kernel.
    pub fn from_kernel(kernel: &SeaweedKernel) -> Self {
        Self {
            queries: kernel.queries(),
        }
    }

    /// `LIS(A[l..r))` in `O(log² n)`, with window validation reported as a
    /// [`WindowError`] instead of a panic — the entry point for service-facing
    /// callers handling untrusted queries. `l == r` is a valid empty window
    /// and answers `Ok(0)`.
    pub fn try_lis_window(&self, l: usize, r: usize) -> Result<usize, WindowError> {
        let len = self.len();
        if l > r {
            return Err(WindowError::Inverted { l, r, len });
        }
        if r > len {
            return Err(WindowError::OutOfRange { l, r, len });
        }
        if r > u32::MAX as usize {
            return Err(WindowError::IndexOverflow { r });
        }
        Ok(self.queries.lcs_window(l, r))
    }

    /// `LIS(A[l..r))` in `O(log² n)`.
    ///
    /// # Panics
    ///
    /// Panics when the window is invalid (`l > r` or `r > len`): the dominance
    /// sum underneath would otherwise wrap into a meaningless count, so invalid
    /// windows are rejected loudly instead of clamped. `l == r` is a valid
    /// empty window and answers `0`. Validation is shared with the non-panicking
    /// [`SemiLocalLis::try_lis_window`].
    pub fn lis_window(&self, l: usize, r: usize) -> usize {
        match self.try_lis_window(l, r) {
            Ok(answer) => answer,
            Err(e) => panic!("{e}"),
        }
    }

    /// Length of the underlying sequence.
    pub fn len(&self) -> usize {
        self.queries.y_len()
    }

    /// Whether the underlying sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{lis_length_patience, semi_local_lis_brute};
    use rand::prelude::*;

    fn random_permutation(n: usize, rng: &mut StdRng) -> Vec<u32> {
        let mut v: Vec<u32> = (0..n as u32).collect();
        v.shuffle(rng);
        v
    }

    #[test]
    fn dandc_kernel_equals_combed_kernel() {
        // The divide-and-conquer construction (inflate + ⊡) must reproduce the
        // ground-truth combing exactly, not just answer the same queries —
        // below the cutoff (one direct comb) and above it (one level of
        // recursion, then two, with uneven halves).
        let mut rng = StdRng::seed_from_u64(1);
        let sizes = [1usize, 2, 3, 7, 33, 48, 64, 100, 150];
        let past_cutoff = [COMB_BASE + 1, 2 * COMB_BASE + 3, 3 * COMB_BASE - 5];
        for n in sizes.into_iter().chain(past_cutoff) {
            let perm = random_permutation(n, &mut rng);
            let x: Vec<u32> = (0..n as u32).collect();
            let direct = SeaweedKernel::comb(&x, &perm);
            let dandc = lis_kernel_permutation(&perm);
            assert_eq!(dandc, direct, "n={n}");
        }
    }

    #[test]
    fn lis_length_matches_patience_on_permutations() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [0usize, 1, 5, 17, 64, 130, 257] {
            let perm = random_permutation(n, &mut rng);
            assert_eq!(lis_length(&perm), lis_length_patience(&perm), "n={n}");
        }
    }

    #[test]
    fn lis_length_matches_patience_with_duplicates() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let n = rng.gen_range(0..120);
            let seq: Vec<u32> = (0..n).map(|_| rng.gen_range(0..20)).collect();
            assert_eq!(lis_length(&seq), lis_length_patience(&seq), "{seq:?}");
        }
        // Past the cutoff the kernel comes from the recursion, and equal
        // values straddle its halves.
        for alphabet in [3u32, 40, 1000] {
            let n = 2 * COMB_BASE + 17;
            let seq: Vec<u32> = (0..n).map(|_| rng.gen_range(0..alphabet)).collect();
            let (kernel, patience) = (lis_length(&seq), lis_length_patience(&seq));
            assert_eq!(kernel, patience, "alphabet={alphabet}");
        }
    }

    #[test]
    fn rank_sequence_preserves_strict_lis() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..30 {
            let n = rng.gen_range(0..60);
            let seq: Vec<u32> = (0..n).map(|_| rng.gen_range(0..10)).collect();
            let ranks = rank_sequence(&seq);
            assert_eq!(
                lis_length_patience(&seq),
                lis_length_patience(&ranks),
                "{seq:?}"
            );
        }
    }

    #[test]
    fn semi_local_lis_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let n = rng.gen_range(1..40);
            let perm = random_permutation(n, &mut rng);
            let brute = semi_local_lis_brute(&perm);
            let fast = SemiLocalLis::new(&perm);
            for l in 0..=n {
                for r in l..=n {
                    assert_eq!(
                        fast.lis_window(l, r),
                        brute[l][r],
                        "perm={perm:?} [{l},{r})"
                    );
                }
            }
        }
    }

    #[test]
    fn semi_local_lis_with_duplicates() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let n = rng.gen_range(1..30);
            let seq: Vec<u32> = (0..n).map(|_| rng.gen_range(0..6)).collect();
            let brute = semi_local_lis_brute(&seq);
            let fast = SemiLocalLis::new(&seq);
            for l in 0..=n {
                for r in l..=n {
                    assert_eq!(fast.lis_window(l, r), brute[l][r], "seq={seq:?} [{l},{r})");
                }
            }
        }
    }

    #[test]
    fn split_window_lis_splits_exactly() {
        // Every merge split must hand down sub-lengths that add up and are
        // realizable — exercised across value windows, not just the full range.
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..20 {
            let n = rng.gen_range(2..80);
            let perm = random_permutation(n, &mut rng);
            let half = n / 2;
            let build = |part: &[u32]| {
                let (relabelled, values) = relabel(part);
                let x: Vec<u32> = (0..part.len() as u32).collect();
                (values, SeaweedKernel::comb(&x, &relabelled))
            };
            let (lo_values, lo_kernel) = build(&perm[..half]);
            let (hi_values, hi_kernel) = build(&perm[half..]);
            for _ in 0..4 {
                let vlo = rng.gen_range(0..n);
                let vhi = rng.gen_range(vlo..=n);
                let filtered: Vec<u32> = perm
                    .iter()
                    .copied()
                    .filter(|&v| (vlo as u32..vhi as u32).contains(&v))
                    .collect();
                let t = lis_length_patience(&filtered);
                if t == 0 {
                    continue;
                }
                let (w, t_lo, t_hi) = split_window_lis(
                    (&lo_values, &lo_kernel),
                    (&hi_values, &hi_kernel),
                    vlo,
                    vhi,
                    t,
                );
                assert_eq!(t_lo + t_hi, t);
                assert!((vlo..=vhi).contains(&w), "threshold outside the window");
                let lo_filtered: Vec<u32> = perm[..half]
                    .iter()
                    .copied()
                    .filter(|&v| (vlo as u32..w as u32).contains(&v))
                    .collect();
                let hi_filtered: Vec<u32> = perm[half..]
                    .iter()
                    .copied()
                    .filter(|&v| (w as u32..vhi as u32).contains(&v))
                    .collect();
                assert_eq!(lis_length_patience(&lo_filtered), t_lo, "perm={perm:?}");
                assert_eq!(lis_length_patience(&hi_filtered), t_hi, "perm={perm:?}");
            }
        }
    }

    #[test]
    fn rank_ties_break_descending_by_position() {
        // Equal values must rank right-to-left so a strict LIS can never take
        // two of them; the inverted convention would rank [5, 5] as [0, 1] and
        // count both.
        assert_eq!(rank_sequence(&[5u32, 5]), vec![1, 0]);
        assert_eq!(rank_sequence(&[7u32, 7, 7]), vec![2, 1, 0]);
        assert_eq!(rank_sequence(&[2u32, 1, 2]), vec![2, 0, 1]);
        // The convention is what keeps constant sequences at LIS 1.
        assert_eq!(lis_length(&[9u32; 40]), 1);
    }

    #[test]
    fn lis_window_degenerate_windows() {
        let seq: Vec<u32> = vec![3, 1, 4, 1, 5];
        let index = SemiLocalLis::new(&seq);
        for l in 0..=seq.len() {
            assert_eq!(index.lis_window(l, l), 0, "empty window [{l}, {l})");
        }
        assert_eq!(index.lis_window(0, seq.len()), 3);

        // The empty sequence still builds and answers its only valid window.
        let empty = SemiLocalLis::new::<u32>(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.lis_window(0, 0), 0);
    }

    #[test]
    fn try_lis_window_reports_structured_errors() {
        let index = SemiLocalLis::new(&[3u32, 1, 4, 1, 5]);
        assert_eq!(index.try_lis_window(1, 4), Ok(2));
        assert_eq!(index.try_lis_window(2, 2), Ok(0));
        assert_eq!(
            index.try_lis_window(4, 2),
            Err(WindowError::Inverted { l: 4, r: 2, len: 5 })
        );
        assert_eq!(
            index.try_lis_window(1, 6),
            Err(WindowError::OutOfRange { l: 1, r: 6, len: 5 })
        );
        // The error message is exactly what the panicking path prints.
        assert_eq!(
            index.try_lis_window(4, 2).unwrap_err().to_string(),
            "LIS window [4, 2) is invalid for a sequence of length 5"
        );
        assert_eq!(
            WindowError::IndexOverflow { r: 1 << 33 }.to_string(),
            format!(
                "LIS window end {} exceeds the u32 index range",
                1usize << 33
            )
        );
    }

    #[test]
    #[should_panic(expected = "LIS window [4, 2) is invalid")]
    fn lis_window_rejects_inverted_window() {
        SemiLocalLis::new(&[1u32, 2, 3, 4, 5]).lis_window(4, 2);
    }

    #[test]
    #[should_panic(expected = "invalid for a sequence of length 5")]
    fn lis_window_rejects_out_of_range_end() {
        SemiLocalLis::new(&[1u32, 2, 3, 4, 5]).lis_window(1, 6);
    }

    #[test]
    #[should_panic(expected = "invalid for a sequence of length 0")]
    fn lis_window_rejects_out_of_range_on_empty() {
        SemiLocalLis::new::<u32>(&[]).lis_window(0, 1);
    }

    #[test]
    fn lis_witness_in_rank_range_respects_bounds() {
        let items: Vec<(u32, u32)> = vec![(0, 4), (1, 0), (2, 5), (3, 2), (4, 3), (5, 1)];
        let full = lis_witness_in_rank_range(&items, 0, 6);
        assert_eq!(full.iter().map(|&(_, r)| r).collect::<Vec<_>>(), [0, 2, 3]);
        let windowed = lis_witness_in_rank_range(&items, 2, 6);
        assert_eq!(windowed.iter().map(|&(_, r)| r).collect::<Vec<_>>(), [2, 3]);
        assert!(lis_witness_in_rank_range(&items, 6, 6).is_empty());
    }

    #[test]
    fn monotone_sequences() {
        let inc: Vec<u32> = (0..100).collect();
        let dec: Vec<u32> = (0..100).rev().collect();
        assert_eq!(lis_length(&inc), 100);
        assert_eq!(lis_length(&dec), 1);
        let s = SemiLocalLis::new(&dec);
        assert_eq!(s.lis_window(10, 60), 1);
        assert_eq!(s.lis_window(42, 42), 0);
    }
}
