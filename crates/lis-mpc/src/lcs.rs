//! Corollary 1.3.1: exact LCS length in `O(log n)` MPC rounds via Hunt–Szymanski.
//!
//! All matching pairs `(i, j)` of the two strings are listed in lexicographic order
//! (by `i` ascending, `j` descending) and the LIS (strictly increasing in `j`) of
//! that pair sequence equals the LCS. The pair list is produced *distributed*: a
//! sort-join groups both strings by symbol (`O(1)` rounds), each symbol class
//! emits its cross product with the outputs leaving rebalanced
//! ([`mpc_runtime::Cluster::group_map_rebalanced`] — no machine ever holds a
//! symbol class's full pair set), and one more sort puts the pairs in
//! lexicographic order. The pair list can hold up to `|a| · |b|` entries, which
//! is why the corollary assumes `Õ(n²)` total space (`m = n^{1+δ}` machines);
//! size the cluster for `|a| · |b|` and the whole pipeline — join included —
//! runs violation-free on strict clusters.

use crate::lis::{lis_length_mpc, lis_witness_mpc};
use monge_mpc::MulParams;
use mpc_runtime::Cluster;

/// Result of the MPC LCS computation with witness recovery
/// ([`lcs_witness_mpc`]).
#[derive(Clone, Debug)]
pub struct MpcLcsOutcome {
    /// Length of the longest common subsequence.
    pub length: usize,
    /// Number of matching pairs the Hunt–Szymanski reduction produced (the
    /// quantity that drives the corollary's total-space requirement).
    pub pairs: usize,
    /// One longest common subsequence as matched index pairs `(i, j)` with
    /// `a[i] == b[j]`, strictly ascending in both coordinates.
    pub witness: Vec<(usize, usize)>,
}

/// Computes the LCS length of `a` and `b` on the cluster.
///
/// Returns the LCS length together with the number of matching pairs the
/// Hunt–Szymanski reduction produced (the quantity that drives the total space).
///
/// The cluster should be sized for the corollary's regime (`n = |a| · |b|` in
/// the worst case): the match pairs are spread across all machines, so the
/// budget must cover `pairs / machines` items per machine.
pub fn lcs_mpc<T: Ord + std::hash::Hash + Clone + Send + Sync>(
    cluster: &mut Cluster,
    a: &[T],
    b: &[T],
    params: &MulParams,
) -> (usize, usize) {
    let pairs = match_pairs(cluster, a, b);
    let pair_count = pairs.len();
    if pair_count == 0 {
        return (0, 0);
    }
    let seconds: Vec<u32> = pairs.into_iter().map(|(_, j)| j).collect();
    (lis_length_mpc(cluster, &seconds, params), pair_count)
}

/// Computes the LCS length *and* recovers an actual common subsequence
/// (Corollary 1.3.1 with structured output): the Hunt–Szymanski match-pair
/// list is built as in [`lcs_mpc`], the LIS witness traceback runs over the
/// pairs' second coordinates ([`lis_witness_mpc`]), and the chosen pair-list
/// positions map back to `(i, j)` index pairs. Increasing position in the
/// lexicographically sorted list (with `j` descending within equal `i`) plus
/// strictly increasing `j` forces strictly increasing `i`, so the recovered
/// pairs form a genuine common subsequence of length [`MpcLcsOutcome::length`].
pub fn lcs_witness_mpc<T: Ord + std::hash::Hash + Clone + Send + Sync>(
    cluster: &mut Cluster,
    a: &[T],
    b: &[T],
    params: &MulParams,
) -> MpcLcsOutcome {
    let pairs = match_pairs(cluster, a, b);
    if pairs.is_empty() {
        return MpcLcsOutcome {
            length: 0,
            pairs: 0,
            witness: Vec::new(),
        };
    }
    let seconds: Vec<u32> = pairs.iter().map(|&(_, j)| j).collect();
    let outcome = lis_witness_mpc(cluster, &seconds, params);
    let witness: Vec<(usize, usize)> = outcome
        .witness
        .expect("lis_witness_mpc always recovers")
        .into_iter()
        .map(|p| (pairs[p].0 as usize, pairs[p].1 as usize))
        .collect();
    debug_assert!(witness
        .windows(2)
        .all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
    MpcLcsOutcome {
        length: outcome.length,
        pairs: pairs.len(),
        witness,
    }
}

/// The distributed Hunt–Szymanski sort-join: lists all matching pairs `(i, j)`
/// in lexicographic order (`i` ascending, `j` descending within equal `i`).
fn match_pairs<T: Ord + std::hash::Hash + Clone + Send + Sync>(
    cluster: &mut Cluster,
    a: &[T],
    b: &[T],
) -> Vec<(u32, u32)> {
    // Match positions travel as u32 (the pair count itself is re-guarded at
    // the LIS pipeline entry, since the pair list becomes its input).
    assert!(
        a.len() <= u32::MAX as usize && b.len() <= u32::MAX as usize,
        "lcs-mpc indexes string positions as u32: |a| = {} / |b| = {} exceeds u32::MAX",
        a.len(),
        b.len()
    );
    // An empty side means zero pairs: answer without touching the cluster. The
    // join used to run anyway and distribute the other string, which overflows
    // a strict cluster legitimately sized for the (zero-pair) |a|·|b| regime.
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    // The sort-join producing the match pairs, fully distributed: group both
    // strings by symbol, emit each class's cross product (outputs rebalanced),
    // then sort the pairs into Hunt–Szymanski order.
    cluster.set_phase(Some("lcs-match-pairs"));
    let a_items = cluster.distribute(
        a.iter()
            .enumerate()
            .map(|(i, x)| (x.clone(), false, i as u32))
            .collect::<Vec<_>>(),
    );
    let b_items = cluster.distribute(
        b.iter()
            .enumerate()
            .map(|(j, y)| (y.clone(), true, j as u32))
            .collect::<Vec<_>>(),
    );
    let both = cluster.concat(a_items, b_items);
    let pairs = cluster.group_map_rebalanced(
        both,
        |(sym, _, _)| sym.clone(),
        |_, items| {
            let mut is: Vec<u32> = Vec::new();
            let mut js: Vec<u32> = Vec::new();
            for &(_, is_b, pos) in items.iter() {
                if is_b {
                    js.push(pos);
                } else {
                    is.push(pos);
                }
            }
            is.sort_unstable();
            js.sort_unstable_by_key(|&j| std::cmp::Reverse(j));
            let mut out = Vec::with_capacity(is.len() * js.len());
            for &i in &is {
                for &j in &js {
                    out.push((i, j));
                }
            }
            out
        },
    );
    let sorted = cluster.sort_by_key(pairs, |&(i, j)| (i, std::cmp::Reverse(j)));
    let out = cluster.collect(sorted);
    cluster.set_phase(None::<String>);
    out
}

/// Convenience wrapper returning only the LCS length.
pub fn lcs_length_mpc<T: Ord + std::hash::Hash + Clone + Send + Sync>(
    cluster: &mut Cluster,
    a: &[T],
    b: &[T],
    params: &MulParams,
) -> usize {
    lcs_mpc(cluster, a, b, params).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_runtime::MpcConfig;
    use rand::prelude::*;
    use seaweed_lis::baselines::lcs_length_dp;

    fn random_string(len: usize, alphabet: u32, rng: &mut StdRng) -> Vec<u32> {
        (0..len).map(|_| rng.gen_range(0..alphabet)).collect()
    }

    /// The corollary's regime: a strict cluster sized for `|a| · |b|` pairs.
    fn strict_cluster(total: usize, delta: f64) -> Cluster {
        Cluster::new(MpcConfig::new(total.max(4), delta))
    }

    #[test]
    fn matches_dp_on_random_strings() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..12 {
            let m = rng.gen_range(0..80);
            let n = rng.gen_range(0..80);
            let alphabet = rng.gen_range(2..10);
            let a = random_string(m, alphabet, &mut rng);
            let b = random_string(n, alphabet, &mut rng);
            let mut cluster = strict_cluster(m * n, 0.6);
            let got = lcs_length_mpc(&mut cluster, &a, &b, &MulParams::default());
            assert_eq!(got, lcs_length_dp(&a, &b), "a={a:?} b={b:?}");
            assert_eq!(cluster.ledger().space_violations, 0);
        }
    }

    #[test]
    fn reports_pair_count() {
        let a = vec![1u32; 30];
        let b = vec![1u32; 20];
        let mut cluster = strict_cluster(600, 0.5);
        let (len, pairs) = lcs_mpc(&mut cluster, &a, &b, &MulParams::default());
        assert_eq!(len, 20);
        assert_eq!(pairs, 600);
    }

    #[test]
    fn disjoint_alphabets() {
        let a = vec![1u32, 2, 3];
        let b = vec![4u32, 5, 6];
        let mut cluster = strict_cluster(16, 0.5);
        assert_eq!(
            lcs_length_mpc(&mut cluster, &a, &b, &MulParams::default()),
            0
        );
    }

    #[test]
    fn identical_strings_use_linear_pairs_per_symbol_class() {
        let a: Vec<u32> = (0..60).collect();
        let mut cluster = strict_cluster(64, 0.6);
        let (len, pairs) = lcs_mpc(&mut cluster, &a, &a, &MulParams::default());
        assert_eq!(len, 60);
        assert_eq!(pairs, 60);
    }

    #[test]
    fn lcs_witness_is_a_common_subsequence() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..8 {
            let m = rng.gen_range(0..60);
            let n = rng.gen_range(0..60);
            let alphabet = rng.gen_range(2..8);
            let a = random_string(m, alphabet, &mut rng);
            let b = random_string(n, alphabet, &mut rng);
            let mut cluster = strict_cluster(m * n, 0.6);
            let outcome = lcs_witness_mpc(&mut cluster, &a, &b, &MulParams::default());
            assert_eq!(outcome.length, lcs_length_dp(&a, &b), "a={a:?} b={b:?}");
            assert_eq!(outcome.witness.len(), outcome.length);
            assert!(outcome
                .witness
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
            assert!(outcome.witness.iter().all(|&(i, j)| a[i] == b[j]));
            assert_eq!(cluster.ledger().space_violations, 0);
        }
    }

    #[test]
    fn empty_sides_skip_the_cluster() {
        // Regression: an empty string used to run the distributed join anyway,
        // overflowing strict clusters sized for the zero-pair regime.
        let b: Vec<u32> = (0..200).map(|i| i % 5).collect();
        let mut cluster = strict_cluster(4, 0.5);
        assert_eq!(
            lcs_mpc::<u32>(&mut cluster, &[], &b, &MulParams::default()),
            (0, 0)
        );
        assert_eq!(
            lcs_mpc::<u32>(&mut cluster, &b, &[], &MulParams::default()),
            (0, 0)
        );
        let outcome = lcs_witness_mpc::<u32>(&mut cluster, &[], &b, &MulParams::default());
        assert_eq!((outcome.length, outcome.pairs), (0, 0));
        assert!(outcome.witness.is_empty());
        assert_eq!(cluster.rounds(), 0, "no cluster work for empty sides");
    }

    #[test]
    fn lcs_witness_on_disjoint_alphabets_is_empty() {
        let a = vec![1u32, 2, 3];
        let b = vec![4u32, 5, 6];
        let mut cluster = strict_cluster(16, 0.5);
        let outcome = lcs_witness_mpc(&mut cluster, &a, &b, &MulParams::default());
        assert_eq!(outcome.length, 0);
        assert!(outcome.witness.is_empty());
    }

    #[test]
    fn heavy_symbol_classes_stay_within_budget() {
        // A two-symbol alphabet produces ~n²/2 pairs in two huge classes: the
        // rebalanced join must spread them instead of parking a class's whole
        // cross product on one machine (strict cluster: overshoot would panic).
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_string(48, 2, &mut rng);
        let b = random_string(48, 2, &mut rng);
        let mut cluster = strict_cluster(48 * 48, 0.6);
        let got = lcs_length_mpc(&mut cluster, &a, &b, &MulParams::default());
        assert_eq!(got, lcs_length_dp(&a, &b));
        assert_eq!(cluster.ledger().space_violations, 0);
    }
}
