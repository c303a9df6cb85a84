//! Cross-crate integration tests: the sequential algebra, the MPC simulator and the
//! distributed algorithms must all agree with each other and with the classical
//! baselines.

use monge_mpc_suite::monge::multiway::mul_multiway;
use monge_mpc_suite::monge::verify::{
    explicit_distribution, is_monge, is_subunit_monge, verify_product,
};
use monge_mpc_suite::monge::{mul_dense, mul_steady_ant, PermutationMatrix};
use monge_mpc_suite::monge_mpc::{self, MulParams};
use monge_mpc_suite::mpc_runtime::{Cluster, MpcConfig};
use monge_mpc_suite::seaweed_lis::baselines::{lcs_length_dp, lis_length_patience};
use monge_mpc_suite::seaweed_lis::kernel::SeaweedKernel;
use monge_mpc_suite::seaweed_lis::lis::SemiLocalLis;
use monge_mpc_suite::{lis_mpc, seaweed_lis};
use rand::prelude::*;

fn random_permutation(n: usize, rng: &mut StdRng) -> PermutationMatrix {
    let mut v: Vec<u32> = (0..n as u32).collect();
    v.shuffle(rng);
    PermutationMatrix::from_rows(v)
}

#[test]
fn all_multiplication_engines_agree() {
    let mut rng = StdRng::seed_from_u64(100);
    for &n in &[30usize, 75, 150] {
        let a = random_permutation(n, &mut rng);
        let b = random_permutation(n, &mut rng);
        let dense = mul_dense(&a, &b);
        assert_eq!(mul_steady_ant(&a, &b), dense);
        assert_eq!(mul_multiway(&a, &b, 4, 16), dense);

        // Strict cluster at a large δ: the shrunken budget forces several
        // split/combine levels at the paper's own parameters.
        let mut cluster = Cluster::new(MpcConfig::new(n, 0.75));
        let params = MulParams::default();
        assert_eq!(monge_mpc::mul(&mut cluster, &a, &b, &params), dense);
        assert!(verify_product(&a, &b, &dense));
    }
}

#[test]
fn products_are_unit_monge() {
    let mut rng = StdRng::seed_from_u64(101);
    let a = random_permutation(60, &mut rng);
    let b = random_permutation(60, &mut rng);
    let c = mul_steady_ant(&a, &b);
    let dist = explicit_distribution(&c.to_sub());
    assert!(is_monge(&dist));
    assert!(is_subunit_monge(&dist));
}

#[test]
fn mpc_lis_agrees_with_every_sequential_path() {
    let mut rng = StdRng::seed_from_u64(102);
    for &n in &[50usize, 200, 500] {
        let seq: Vec<u32> = (0..n).map(|_| rng.gen_range(0..10_000)).collect();
        let patience = lis_length_patience(&seq);
        assert_eq!(seaweed_lis::lis::lis_length(&seq), patience);

        let mut cluster = Cluster::new(MpcConfig::new(n, 0.7));
        let outcome = lis_mpc::lis_kernel_mpc(&mut cluster, &seq, &MulParams::default());
        assert_eq!(outcome.length, patience);
        assert_eq!(cluster.ledger().space_violations, 0);

        // Semi-local agreement between the MPC kernel and the sequential index.
        let semi = SemiLocalLis::new(&seq);
        let queries = outcome.kernel.queries();
        for _ in 0..30 {
            let l = rng.gen_range(0..=n);
            let r = rng.gen_range(l..=n);
            assert_eq!(queries.lcs_window(l, r), semi.lis_window(l, r));
        }
    }
}

#[test]
fn witness_recovery_agrees_with_every_sequential_path() {
    // End to end: the MPC witness must be maximal (the patience baseline's
    // length) and genuinely increasing, and the MPC traceback must stay within
    // 2× of the length-only rounds.
    let mut rng = StdRng::seed_from_u64(107);
    for &n in &[60usize, 300, 800] {
        let seq: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2_000)).collect();
        let patience = lis_length_patience(&seq);

        let mut plain = Cluster::new(MpcConfig::new(n, 0.7));
        let _ = lis_mpc::lis_kernel_mpc(&mut plain, &seq, &MulParams::default());

        let mut cluster = Cluster::new(MpcConfig::new(n, 0.7));
        let outcome = lis_mpc::lis_witness_mpc(&mut cluster, &seq, &MulParams::default());
        let witness = outcome.witness.expect("witness requested");
        assert_eq!(witness.len(), patience);
        assert!(witness.windows(2).all(|w| seq[w[0]] < seq[w[1]]));
        assert_eq!(cluster.ledger().space_violations, 0);
        assert!(
            cluster.rounds() <= 2 * plain.rounds(),
            "traceback round blow-up"
        );
    }

    // LCS witness: a genuine common subsequence of both strings.
    let a: Vec<u32> = (0..80).map(|_| rng.gen_range(0..12)).collect();
    let b: Vec<u32> = (0..80).map(|_| rng.gen_range(0..12)).collect();
    let mut cluster = Cluster::new(MpcConfig::new(a.len() * b.len(), 0.6));
    let outcome = lis_mpc::lcs::lcs_witness_mpc(&mut cluster, &a, &b, &MulParams::default());
    assert_eq!(outcome.length, lcs_length_dp(&a, &b));
    assert_eq!(outcome.witness.len(), outcome.length);
    assert!(outcome.witness.iter().all(|&(i, j)| a[i] == b[j]));
    assert!(outcome
        .witness
        .windows(2)
        .all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
    assert_eq!(cluster.ledger().space_violations, 0);
}

#[test]
fn mpc_lcs_agrees_with_dp() {
    let mut rng = StdRng::seed_from_u64(103);
    for _ in 0..5 {
        let m = rng.gen_range(20..120);
        let n = rng.gen_range(20..120);
        let a: Vec<u32> = (0..m).map(|_| rng.gen_range(0..12)).collect();
        let b: Vec<u32> = (0..n).map(|_| rng.gen_range(0..12)).collect();
        let mut cluster = Cluster::new(MpcConfig::new(m * n, 0.6));
        let got = lis_mpc::lcs_length_mpc(&mut cluster, &a, &b, &MulParams::default());
        assert_eq!(got, lcs_length_dp(&a, &b));
    }
}

#[test]
fn kernel_composition_through_mpc_multiplication() {
    // The seaweed composition law holds when the ⊡ is evaluated by the MPC engine.
    let mut rng = StdRng::seed_from_u64(104);
    let x: Vec<u32> = (0..8).map(|_| rng.gen_range(0..4)).collect();
    let y1: Vec<u32> = (0..12).map(|_| rng.gen_range(0..4)).collect();
    let y2: Vec<u32> = (0..9).map(|_| rng.gen_range(0..4)).collect();
    let k1 = SeaweedKernel::comb(&x, &y1);
    let k2 = SeaweedKernel::comb(&x, &y2);
    let (p1, p2) = seaweed_lis::kernel::compose_operands(&k1, &k2);

    let mut cluster = Cluster::new(MpcConfig::new(p1.size(), 0.75));
    let params = MulParams::default();
    let product = monge_mpc::mul(&mut cluster, &p1, &p2, &params);
    let composed = seaweed_lis::kernel::compose_from_product(&k1, &k2, product);

    let y: Vec<u32> = y1.iter().chain(y2.iter()).copied().collect();
    assert_eq!(composed, SeaweedKernel::comb(&x, &y));
}

#[test]
fn strict_mpc_mul_matches_sequential_with_zero_violations() {
    // The paper-default ⊡ equals the sequential product on a strict cluster
    // (which panics on any overshoot) and records no violation.
    let mut rng = StdRng::seed_from_u64(105);
    let n = 1 << 11;
    let a = random_permutation(n, &mut rng);
    let b = random_permutation(n, &mut rng);

    let mut cluster = Cluster::new(MpcConfig::new(n, 0.5));
    let got = monge_mpc::mul(&mut cluster, &a, &b, &MulParams::default());
    assert_eq!(got, mul_steady_ant(&a, &b));
    assert_eq!(cluster.ledger().space_violations, 0);
}

#[test]
fn space_accounting_is_reported() {
    // The ledger must see realistic loads: nothing above the total input size, and a
    // nonzero peak once data is distributed.
    let mut rng = StdRng::seed_from_u64(106);
    let n = 4096;
    let a = random_permutation(n, &mut rng);
    let b = random_permutation(n, &mut rng);
    let mut cluster = Cluster::new(MpcConfig::new(n, 0.5));
    let _ = monge_mpc::mul(&mut cluster, &a, &b, &MulParams::default());
    let ledger = cluster.ledger();
    assert!(ledger.max_machine_load > 0);
    assert!(ledger.rounds > 0);
    assert!(ledger.communication > 0);
}

#[test]
fn deterministic_across_runs() {
    // The whole pipeline is deterministic: same input, same ledger, same output.
    let mut rng = StdRng::seed_from_u64(107);
    let n = 300;
    let seq: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
    let run = || {
        let mut cluster = Cluster::new(MpcConfig::new(n, 0.7));
        let out = lis_mpc::lis_kernel_mpc(&mut cluster, &seq, &MulParams::default());
        (
            out.length,
            out.levels,
            cluster.rounds(),
            cluster.ledger().communication,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn lis_and_lcs_record_zero_violations_in_every_phase() {
    // Regression pin for the Theorem 1.3 space conformance: run the pipelines
    // in record-only mode (so an overshoot would be *counted*, not panic) and
    // assert the per-phase violation breakdown stays empty — in particular for
    // every `lis-*` phase the merge levels create.
    let mut rng = StdRng::seed_from_u64(108);
    for &delta in &[0.5, 0.75] {
        let n = 1 << 12;
        let seq: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n as u32)).collect();
        let mut cluster = Cluster::new(MpcConfig::new(n, delta).recording());
        let outcome = lis_mpc::lis_kernel_mpc(&mut cluster, &seq, &MulParams::default());
        assert!(
            outcome.levels >= 1,
            "budget at δ={delta} must force merging"
        );
        let ledger = cluster.ledger();
        assert_eq!(ledger.space_violations, 0, "violations at δ={delta}");
        assert!(
            ledger.violations_by_phase.is_empty(),
            "per-phase violations at δ={delta}"
        );
        for phase in ["lis-rank", "lis-base", "lis-merge-L1/relabel"] {
            assert!(
                ledger.rounds_by_phase.contains_key(phase),
                "expected ledger phase {phase} at δ={delta}"
            );
        }
    }

    let a: Vec<u32> = (0..96).map(|_| rng.gen_range(0..8)).collect();
    let b: Vec<u32> = (0..96).map(|_| rng.gen_range(0..8)).collect();
    let mut cluster = Cluster::new(MpcConfig::new(96 * 96, 0.6).recording());
    let _ = lis_mpc::lcs::lcs_mpc(&mut cluster, &a, &b, &MulParams::default());
    assert_eq!(cluster.ledger().space_violations, 0);
    assert!(cluster.ledger().violations_by_phase.is_empty());
    assert!(cluster
        .ledger()
        .rounds_by_phase
        .contains_key("lcs-match-pairs"));
}
