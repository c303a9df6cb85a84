//! Experiment E6 — Corollary 1.3.1: exact LCS through the Hunt–Szymanski reduction.
//! Reports correctness against a sequential baseline (the quadratic DP up to
//! `n = 4096`, the `O(P log² P)` seaweed reduction beyond it), the number of
//! matching pairs (the quantity behind the Õ(n²) total-space requirement), the
//! MPC round count and the (must-be-zero) space-violation count.
//!
//! Run with: `cargo run --release -p bench -- exp_lcs
//! [--json --threads N --max-n N]` (a `--max-n` of 8192 or more extends the
//! fixed case list with string lengths doubling from 8192 up to it, using a
//! sparse `|Σ| = n/4` alphabet so the pair count stays near linear on the
//! large sizes).

use crate::{random_sequence, size_sweep, ExpOpts, Report, Table};
use lis_mpc::lcs::lcs_mpc;
use monge_mpc::MulParams;
use mpc_runtime::{Cluster, MpcConfig};
use seaweed_lis::baselines::lcs_length_dp;
use seaweed_lis::lcs::lcs_via_lis;

/// Largest size still checked against the quadratic DP.
const DP_CHECK_MAX: usize = 4096;

pub(crate) fn run(opts: &ExpOpts) -> Report {
    let mut table = Table::new(vec![
        "n",
        "alphabet",
        "match pairs",
        "pairs/n²",
        "LCS",
        "check",
        "rounds",
        "comm/n",
        "peak load",
        "violations",
    ]);
    let mut cases: Vec<(usize, u32)> =
        vec![(512, 4), (512, 64), (1024, 16), (2048, 256), (4096, 1024)];
    for n in size_sweep(8192, 4096, opts.max_n) {
        cases.push((n, (n / 4) as u32));
    }
    for (n, alphabet) in cases {
        let a = random_sequence(n, alphabet, 11 + n as u64);
        let b = random_sequence(n, alphabet, 23 + n as u64);
        let mut cluster = Cluster::new(MpcConfig::new(n * n, 0.5).recording());
        let (lcs, pairs) = lcs_mpc(&mut cluster, &a, &b, &MulParams::default());
        let check = if n <= DP_CHECK_MAX {
            assert_eq!(lcs, lcs_length_dp(&a, &b));
            "dp"
        } else {
            assert_eq!(lcs, lcs_via_lis(&a, &b));
            "seaweed"
        };
        let ledger = cluster.ledger();
        table.row(vec![
            n.to_string(),
            alphabet.to_string(),
            pairs.to_string(),
            format!("{:.4}", pairs as f64 / (n * n) as f64),
            lcs.to_string(),
            check.to_string(),
            cluster.rounds().to_string(),
            format!("{:.1}", ledger.communication as f64 / n as f64),
            ledger.max_machine_load.to_string(),
            ledger.space_violations.to_string(),
        ]);
    }
    Report::new("E6: LCS via Hunt–Szymanski on the MPC simulator")
        .table("rows", "", table)
        .reading(
            "the pair count — and with it the required total space — scales as ~n²/|Σ|,\n\
             which is exactly why Corollary 1.3.1 assumes the Õ(n²) total-space regime; small\n\
             alphabets are the expensive case, large alphabets approach linear total space. The\n\
             distributed sort-join and the strict LIS pipeline keep the violations column at zero.",
        )
}
