//! Property-based tests (proptest) for the core invariants of the seaweed algebra
//! and the distributed algorithms.

use monge_mpc_suite::monge::distribution::DistributionMatrix;
use monge_mpc_suite::monge::multiway::mul_multiway;
use monge_mpc_suite::monge::{
    mul_dense, mul_steady_ant, mul_steady_ant_sub, PermutationMatrix, SubPermutationMatrix,
};
use monge_mpc_suite::monge_mpc::{self, MulParams};
use monge_mpc_suite::mpc_runtime::{Cluster, FaultPlan, MpcConfig};
use monge_mpc_suite::seaweed_lis::baselines::{lcs_length_dp, lis_length_patience};
use monge_mpc_suite::seaweed_lis::kernel::{compose_horizontal, SeaweedKernel};
use monge_mpc_suite::seaweed_lis::lis::lis_length;
use monge_mpc_suite::{lis_mpc, seaweed_lis};
use proptest::prelude::*;

/// Strategy: a uniformly random permutation of 0..n (n fixed).
fn perm_of(n: usize) -> impl Strategy<Value = Vec<u32>> {
    Just((0..n as u32).collect::<Vec<u32>>()).prop_shuffle()
}

/// Strategy: two random permutations of the same (random) size.
fn perm_pair(max_n: usize) -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (1..=max_n).prop_flat_map(|n| (perm_of(n), perm_of(n)))
}

/// Strategy: three random permutations of the same (random) size.
fn perm_triple(max_n: usize) -> impl Strategy<Value = (Vec<u32>, Vec<u32>, Vec<u32>)> {
    (1..=max_n).prop_flat_map(|n| (perm_of(n), perm_of(n), perm_of(n)))
}

/// Strategy: a random sequence with duplicates.
fn sequence(max_n: usize, alphabet: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..alphabet, 0..=max_n)
}

/// Strategy: a chaos schedule of up to three fault events, each a
/// `(machine seed, superstep, kill | delay(d))` triple. Machine seeds are
/// reduced mod the cluster's machine count at plan-build time.
fn chaos_schedule() -> impl Strategy<Value = Vec<(usize, u64, Option<u64>)>> {
    // Kind 0..3 draws a kill, 3..6 a delay of 1–3 supersteps (kills weighted
    // up: they are the interesting path — replica restore and re-merge).
    prop::collection::vec(
        (0usize..64, 1u64..300, 0u64..6).prop_map(|(mseed, step, kind)| {
            (mseed, step, if kind < 3 { None } else { Some(kind - 2) })
        }),
        1..=3,
    )
}

/// Builds a [`FaultPlan`] from a chaos schedule for a cluster of `machines`.
fn plan_from_schedule(schedule: &[(usize, u64, Option<u64>)], machines: usize) -> FaultPlan {
    schedule
        .iter()
        .fold(FaultPlan::none(), |plan, &(mseed, step, delay)| {
            let machine = mseed % machines;
            match delay {
                Some(d) => plan.and_delay(machine, step, d),
                None => plan.and_kill(machine, step),
            }
        })
}

/// Masks a permutation into a (square) sub-permutation: rows where the mask is
/// zero become empty.
fn subperm_from(perm: &[u32], mask: &[u32]) -> SubPermutationMatrix {
    let n = perm.len();
    let rows: Vec<u32> = perm
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            if mask[i % mask.len().max(1)] == 1 {
                c
            } else {
                SubPermutationMatrix::NONE
            }
        })
        .collect();
    SubPermutationMatrix::from_rows(rows, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tiskin's Lemma 2.1: the steady ant computes exactly the (min,+) product.
    /// Sizes reach past twice the 0-Hecke base-case cutoff (64), so cases
    /// cross the cutoff and a recursion level above it.
    #[test]
    fn steady_ant_matches_dense((a, b) in perm_pair(160)) {
        let pa = PermutationMatrix::from_rows(a);
        let pb = PermutationMatrix::from_rows(b);
        prop_assert_eq!(mul_steady_ant(&pa, &pb), mul_dense(&pa, &pb));
    }

    /// The distribution matrix of any ⊡ product is (sub)unit-Monge.
    #[test]
    fn products_are_monge((a, b) in perm_pair(40)) {
        let pa = PermutationMatrix::from_rows(a);
        let pb = PermutationMatrix::from_rows(b);
        let c = mul_steady_ant(&pa, &pb);
        let d = DistributionMatrix::from_permutation(&c);
        prop_assert!(d.is_monge());
    }

    /// The H-way combine of Section 3 agrees with the binary steady ant.
    #[test]
    fn multiway_combine_matches((a, b) in perm_pair(40), h in 2usize..6, g in 2usize..12) {
        let pa = PermutationMatrix::from_rows(a);
        let pb = PermutationMatrix::from_rows(b);
        prop_assert_eq!(mul_multiway(&pa, &pb, h, g), mul_steady_ant(&pa, &pb));
    }

    /// ⊡ is associative (seaweed braids form a monoid).
    #[test]
    fn product_is_associative((a, b, c) in perm_triple(32)) {
        let (pa, pb, pc) = (
            PermutationMatrix::from_rows(a),
            PermutationMatrix::from_rows(b),
            PermutationMatrix::from_rows(c),
        );
        let left = mul_steady_ant(&mul_steady_ant(&pa, &pb), &pc);
        let right = mul_steady_ant(&pa, &mul_steady_ant(&pb, &pc));
        prop_assert_eq!(left, right);
    }

    /// The MPC multiplication agrees with the sequential algorithm for every choice
    /// of fan-out, grid spacing and local threshold.
    #[test]
    fn mpc_mul_matches_sequential((a, b) in perm_pair(60),
                                  h in 2usize..5, g in 3usize..10, thr in 6usize..20) {
        let pa = PermutationMatrix::from_rows(a);
        let pb = PermutationMatrix::from_rows(b);
        let expected = mul_steady_ant(&pa, &pb);
        let mut cluster = Cluster::new(MpcConfig::lenient(pa.size().max(4), 0.5).with_space(thr * 2));
        let params = MulParams::default().with_h(h).with_g(g).with_local_threshold(thr);
        prop_assert_eq!(monge_mpc::mul(&mut cluster, &pa, &pb, &params), expected);
    }

    /// The bit-parallel comb (comparison-rule + word-skip fast path) is
    /// bit-identical to the crossing-history oracle comb on duplicate-heavy
    /// inputs — the regime where the match masks are densest and the
    /// word-transparency shortcut is exercised hardest.
    #[test]
    fn comb_bitparallel_matches_oracle(x in sequence(24, 4), y in sequence(80, 4)) {
        prop_assert_eq!(
            SeaweedKernel::comb_bitparallel(&x, &y),
            SeaweedKernel::comb(&x, &y)
        );
    }

    /// The arena-backed steady ant (pooled workspace + 0-Hecke base case) is
    /// bit-identical to the allocate-per-level reference recursion.
    #[test]
    fn workspace_steady_ant_matches_reference((a, b) in perm_pair(96)) {
        prop_assert_eq!(
            monge_mpc_suite::monge::steady_ant::mul_rows(&a, &b),
            monge_mpc_suite::monge::steady_ant::mul_rows_reference(&a, &b)
        );
    }

    /// The data-parallel batch product equals a sequential loop of `mul`, at
    /// every thread count: per-worker arenas must not leak state across
    /// instances or workers.
    #[test]
    fn mul_batch_matches_sequential_across_threads(
        (a, b) in perm_pair(48), (c, d) in perm_pair(33), threads in 1usize..=4
    ) {
        let instances = vec![
            (PermutationMatrix::from_rows(a), PermutationMatrix::from_rows(b)),
            (PermutationMatrix::from_rows(c), PermutationMatrix::from_rows(d)),
        ];
        let expected: Vec<PermutationMatrix> = instances
            .iter()
            .map(|(pa, pb)| mul_steady_ant(pa, pb))
            .collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let got = pool.install(|| monge_mpc_suite::monge::mul_steady_ant_batch(&instances));
        prop_assert_eq!(got, expected);
    }

    /// Kernel window queries equal the DP LCS for every window.
    #[test]
    fn kernel_windows_match_dp(x in sequence(10, 4), y in sequence(12, 4)) {
        let k = SeaweedKernel::comb(&x, &y);
        for l in 0..=y.len() {
            for r in l..=y.len() {
                prop_assert_eq!(k.lcs_window(l, r), lcs_length_dp(&x, &y[l..r]));
            }
        }
    }

    /// Kernel composition equals combing the concatenation.
    #[test]
    fn kernel_composition(x in sequence(8, 3), y1 in sequence(8, 3), y2 in sequence(8, 3)) {
        prop_assume!(!x.is_empty());
        let k1 = SeaweedKernel::comb(&x, &y1);
        let k2 = SeaweedKernel::comb(&x, &y2);
        let composed = compose_horizontal(&k1, &k2);
        let concat: Vec<u32> = y1.iter().chain(y2.iter()).copied().collect();
        prop_assert_eq!(composed, SeaweedKernel::comb(&x, &concat));
    }

    /// The seaweed-based LIS equals patience sorting on arbitrary sequences.
    #[test]
    fn seaweed_lis_matches_patience(seq in sequence(120, 30)) {
        prop_assert_eq!(lis_length(&seq), lis_length_patience(&seq));
    }

    /// The MPC LIS equals patience sorting on *strict* clusters, across δ and
    /// space budgets (recursion depths): every case doubles as a
    /// zero-violation assertion, since an overshoot panics.
    #[test]
    fn mpc_lis_matches_patience_strict(seq in sequence(150, 50),
                                       delta_tenths in 3usize..9,
                                       space_mult in 1usize..4) {
        let n = seq.len().max(4);
        let delta = delta_tenths as f64 / 10.0;
        let base = MpcConfig::new(n, delta);
        let space = base.space * space_mult;
        let mut cluster = Cluster::new(base.with_space(space));
        let got = lis_mpc::lis_length_mpc(&mut cluster, &seq, &MulParams::default());
        prop_assert_eq!(got, lis_length_patience(&seq));
        prop_assert_eq!(cluster.ledger().space_violations, 0);
    }

    /// The full semi-local MPC LIS kernel equals the sequential seaweed
    /// divide-and-conquer baseline, bit for bit, on strict clusters.
    #[test]
    fn mpc_lis_kernel_matches_sequential_strict(seq in sequence(120, 40),
                                                delta_tenths in 4usize..9) {
        prop_assume!(!seq.is_empty());
        let delta = delta_tenths as f64 / 10.0;
        let mut cluster = Cluster::new(MpcConfig::new(seq.len().max(4), delta));
        let outcome = lis_mpc::lis_kernel_mpc(&mut cluster, &seq, &MulParams::default());
        prop_assert_eq!(outcome.kernel, seaweed_lis::lis::lis_kernel(&seq));
    }

    /// Hunt–Szymanski through the MPC pipeline equals the DP LCS on strict
    /// clusters sized for the corollary's Õ(n²) total-space regime.
    #[test]
    fn mpc_lcs_matches_dp_strict(a in sequence(40, 6), b in sequence(40, 6),
                                 delta_tenths in 3usize..8) {
        let total = (a.len() * b.len()).max(4);
        let delta = delta_tenths as f64 / 10.0;
        let mut cluster = Cluster::new(MpcConfig::new(total, delta));
        let got = lis_mpc::lcs_length_mpc(&mut cluster, &a, &b, &MulParams::default());
        prop_assert_eq!(got, lcs_length_dp(&a, &b));
        prop_assert_eq!(cluster.ledger().space_violations, 0);
    }

    /// The distributed ⊡ (tree grid phase, pierced routing) equals the sequential
    /// sub-permutation product bit-for-bit across random sub-permutations and
    /// (h, g, δ) choices. (Arbitrary parameter choices sit outside the paper's
    /// regime, so the cluster runs with record-only space enforcement.)
    #[test]
    fn mpc_mul_sub_matches_sequential_on_subperms(
        (a, b) in perm_pair(44),
        mask_a in prop::collection::vec(0u32..2, 44),
        mask_b in prop::collection::vec(0u32..2, 44),
        h in 2usize..6,
        g in 3usize..12,
        delta_tenths in 2usize..9,
    ) {
        let n = a.len();
        let delta = delta_tenths as f64 / 10.0;
        let sa = subperm_from(&a, &mask_a);
        let sb = subperm_from(&b, &mask_b);
        let params = MulParams::default().with_h(h).with_g(g).with_local_threshold(6);

        let mut cluster = Cluster::new(MpcConfig::lenient(n.max(4), delta));
        let got = monge_mpc::mul_sub(&mut cluster, &sa, &sb, &params);
        prop_assert_eq!(got, mul_steady_ant_sub(&sa, &sb));
    }

    /// Semi-local LIS window queries match brute force on arbitrary windows.
    #[test]
    fn semi_local_lis_windows(seq in sequence(60, 12), l in 0usize..60, r in 0usize..60) {
        let n = seq.len();
        let (l, r) = (l.min(n), r.min(n));
        prop_assume!(l <= r);
        let index = seaweed_lis::lis::SemiLocalLis::new(&seq);
        prop_assert_eq!(index.lis_window(l, r), lis_length_patience(&seq[l..r]));
    }

    /// Duplicate-heavy differential test: MPC LIS vs the patience baseline on a
    /// tiny alphabet, where nearly every element ties. This is the test that
    /// catches an inverted `rank_sequence` tie convention — ranking equal values
    /// ascending by position would let a strict LIS take two copies of the same
    /// value and overshoot on almost every such input.
    #[test]
    fn mpc_lis_matches_patience_on_duplicate_heavy(seq in sequence(160, 3),
                                                   delta_tenths in 3usize..9) {
        let n = seq.len().max(4);
        let delta = delta_tenths as f64 / 10.0;
        let mut cluster = Cluster::new(MpcConfig::new(n, delta));
        let got = lis_mpc::lis_length_mpc(&mut cluster, &seq, &MulParams::default());
        prop_assert_eq!(got, lis_length_patience(&seq), "{:?}", seq);
    }

    /// Witness validity (Theorem 1.3 structured output): the recovered LIS is a
    /// strictly increasing subsequence of the input with exactly the kernel's
    /// length, on strict clusters across δ (and hence merge depths).
    #[test]
    fn mpc_lis_witness_is_valid(seq in sequence(150, 40), delta_tenths in 3usize..9) {
        let n = seq.len().max(4);
        let delta = delta_tenths as f64 / 10.0;
        let mut cluster = Cluster::new(MpcConfig::new(n, delta));
        let outcome = lis_mpc::lis_witness_mpc(&mut cluster, &seq, &MulParams::default());
        let witness = outcome.witness.expect("witness requested");
        prop_assert_eq!(outcome.length, lis_length_patience(&seq));
        prop_assert_eq!(witness.len(), outcome.length);
        prop_assert!(witness.windows(2).all(|w| w[0] < w[1]), "positions not ascending");
        prop_assert!(witness.iter().all(|&p| p < seq.len()), "position out of range");
        prop_assert!(witness.windows(2).all(|w| seq[w[0]] < seq[w[1]]),
                     "values not strictly increasing: {:?} {:?}", seq, witness);
        prop_assert_eq!(cluster.ledger().space_violations, 0);
    }

    /// LCS witness validity (Corollary 1.3.1 structured output): the recovered
    /// pairs form a genuine common subsequence of both inputs with exactly the
    /// DP length, on strict clusters sized for the pair regime.
    #[test]
    fn mpc_lcs_witness_is_valid(a in sequence(36, 5), b in sequence(36, 5),
                                delta_tenths in 3usize..8) {
        let total = (a.len() * b.len()).max(4);
        let delta = delta_tenths as f64 / 10.0;
        let mut cluster = Cluster::new(MpcConfig::new(total, delta));
        let outcome = lis_mpc::lcs_witness_mpc(&mut cluster, &a, &b, &MulParams::default());
        prop_assert_eq!(outcome.length, lcs_length_dp(&a, &b));
        prop_assert_eq!(outcome.witness.len(), outcome.length);
        prop_assert!(outcome.witness.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1),
                     "indices not strictly ascending in both strings");
        prop_assert!(outcome.witness.iter().all(|&(i, j)| a[i] == b[j]),
                     "not a common subsequence: {:?} {:?} {:?}", a, b, outcome.witness);
        prop_assert_eq!(cluster.ledger().space_violations, 0);
    }
}

// Chaos sweep (ISSUE 6): random kill/delay schedules against the recovery
// layer. Each case runs the full witness pipeline twice (fault-free and
// faulted), so the block uses fewer cases than the cheap algebra tests above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under any schedule of kills and straggler delays, across δ ∈ {0.1..0.5}
    /// and n up to 2^12, the recovered LIS length, kernel and witness are
    /// bit-identical to the fault-free run, with zero strict-space violations
    /// (the strict cluster would panic on any overshoot) and every fault
    /// accounted in the ledger.
    #[test]
    fn chaos_lis_recovers_bit_identically(exp in 4usize..=12,
                                          seed in 0u64..1 << 20,
                                          delta_tenths in 1usize..6,
                                          schedule in chaos_schedule()) {
        let n = 1usize << exp;
        let delta = delta_tenths as f64 / 10.0;
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut seq: Vec<u32> = (0..n as u32).collect();
        seq.shuffle(&mut rng);

        let config = MpcConfig::new(n, delta);
        // δ ≤ 0.5 and n ≥ 16 give m ≥ 2, so kill schedules are always legal.
        prop_assert!(config.machines >= 2);
        let plan = plan_from_schedule(&schedule, config.machines);

        let mut plain = Cluster::new(config.clone());
        let baseline = lis_mpc::lis_witness_mpc(&mut plain, &seq, &MulParams::default());
        let mut faulty = Cluster::new(config.with_faults(plan));
        let outcome = lis_mpc::lis_witness_mpc(&mut faulty, &seq, &MulParams::default());

        prop_assert_eq!(outcome.length, baseline.length);
        prop_assert_eq!(outcome.kernel, baseline.kernel);
        prop_assert_eq!(outcome.witness, baseline.witness);
        let ledger = faulty.ledger();
        prop_assert_eq!(ledger.space_violations, 0);
        prop_assert!(ledger.fault_events.len() <= schedule.len());
        // Delays charge stalls, never synchronous rounds; with no kills the
        // round count is exactly the fault-free one.
        if !faulty.config().faults.has_kills() {
            prop_assert_eq!(faulty.rounds(), plain.rounds());
        }
    }

    /// The LCS pipeline funnels through the same merge tree; chaos schedules
    /// must leave its recovered length and witness pairs bit-identical too.
    #[test]
    fn chaos_lcs_recovers_bit_identically(a in sequence(30, 5), b in sequence(30, 5),
                                          delta_tenths in 1usize..6,
                                          schedule in chaos_schedule()) {
        let total = (a.len() * b.len()).max(16);
        let delta = delta_tenths as f64 / 10.0;
        let config = MpcConfig::new(total, delta);
        prop_assert!(config.machines >= 2);
        let plan = plan_from_schedule(&schedule, config.machines);

        let mut plain = Cluster::new(config.clone());
        let baseline = lis_mpc::lcs_witness_mpc(&mut plain, &a, &b, &MulParams::default());
        let mut faulty = Cluster::new(config.with_faults(plan));
        let outcome = lis_mpc::lcs_witness_mpc(&mut faulty, &a, &b, &MulParams::default());

        prop_assert_eq!(outcome.length, baseline.length);
        prop_assert_eq!(outcome.length, lcs_length_dp(&a, &b));
        prop_assert_eq!(outcome.witness, baseline.witness);
        prop_assert_eq!(faulty.ledger().space_violations, 0);
    }
}

// Incremental append (ISSUE 9): growing a kernel block-by-block must be
// indistinguishable from building it from scratch — same kernel bits, same
// window answers, same witnesses — for random cut schedules, comb block
// sizes and δ. Each case folds the grown spine and a fresh build, so the
// block budgets its cases like the chaos sweep above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn incremental_append_is_indistinguishable_from_rebuild(
        seq in sequence(400, 64),
        cuts in prop::collection::vec(0usize..=400, 0..4),
        block_exp in 3usize..=6,
        delta_tenths in 2usize..6,
    ) {
        use monge_mpc_suite::lis_mpc::{recover_batch, AppendableLisKernel, WitnessTrace};
        use monge_mpc_suite::seaweed_lis::lis::{lis_kernel, SemiLocalLis};

        let n = seq.len();
        let block_size = 1usize << block_exp;
        let delta = delta_tenths as f64 / 10.0;
        let config = MpcConfig::lenient(n.max(4), delta);

        // Grow through an arbitrary cut schedule…
        let mut grown_cluster = Cluster::new(config.clone());
        let mut grown = AppendableLisKernel::new(block_size);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(n)).collect();
        cuts.push(n);
        cuts.sort_unstable();
        let mut prev = 0;
        for cut in cuts {
            if cut > prev {
                grown.append(&mut grown_cluster, &seq[prev..cut]);
                prev = cut;
            }
        }

        // …and compare against a one-shot build and the direct kernel.
        let mut rebuild_cluster = Cluster::new(config);
        let mut rebuilt = AppendableLisKernel::build(&mut rebuild_cluster, &seq, block_size);
        prop_assert_eq!(
            grown.kernel(&mut grown_cluster),
            rebuilt.kernel(&mut rebuild_cluster)
        );
        prop_assert_eq!(grown.kernel(&mut grown_cluster), &lis_kernel(&seq));

        // Window answers off the grown kernel match the direct structure.
        let direct = SemiLocalLis::new(&seq);
        let semi = SemiLocalLis::from_kernel(grown.kernel(&mut grown_cluster));
        for (l, r) in [(0, n), (n / 3, 2 * n / 3), (n / 2, n / 2), (n.saturating_sub(7), n)] {
            prop_assert_eq!(semi.try_lis_window(l, r), direct.try_lis_window(l, r));
        }

        // Witness descents over the grown cluster realize genuine increasing
        // subsequences of exactly the semi-local lengths.
        let trace = WitnessTrace::record(&seq, block_size);
        let windows = [(0, n), (n / 4, 3 * n / 4)];
        let witnesses = recover_batch(&mut grown_cluster, &trace, &windows, "prop-witness");
        for (witness, &(vlo, vhi)) in witnesses.iter().zip(&windows) {
            prop_assert_eq!(witness.len(), trace.value_window_lis(vlo, vhi));
            for pair in witness.windows(2) {
                prop_assert!(pair[0] < pair[1]);
                prop_assert!(seq[pair[0]] < seq[pair[1]]);
            }
            for &p in witness {
                prop_assert!((vlo..vhi).contains(&(trace.ranks()[p] as usize)));
            }
        }
        prop_assert_eq!(grown_cluster.ledger().space_violations, 0);
    }
}
