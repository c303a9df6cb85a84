//! Experiment E1 — reproduction of **Table 1** of the paper: round complexity and
//! scalability of massively-parallel LIS algorithms.
//!
//! The two executable rows are measured on the simulator: this paper's algorithm
//! (O(log n) rounds, fully scalable) and the §1.4 warmup baseline (binary splits,
//! Θ(log² n)-ish rounds in the multiplication depth). The published comparators
//! (KT10a, CHS23, IMS17) are reported analytically, as in the paper's table.
//!
//! Run with: `cargo run --release -p bench -- table1 [--json --threads N]`

use crate::{noisy_trend, ExpOpts, Report, Table};
use lis_mpc::lis_kernel_mpc;
use monge_mpc::MulParams;
use mpc_runtime::{Cluster, MpcConfig};
use std::time::Instant;

fn measure(n: usize, delta: f64, params: &MulParams) -> (u64, usize, usize, f64) {
    let seq = noisy_trend(n, (n / 4).max(2) as u32, 0xC0FFEE + n as u64);
    let mut cluster = Cluster::new(MpcConfig::lenient(n, delta));
    let start = Instant::now();
    let outcome = lis_kernel_mpc(&mut cluster, &seq, params);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (
        cluster.rounds(),
        outcome.levels,
        cluster.ledger().max_machine_load,
        wall_ms,
    )
}

pub(crate) fn run(_: &ExpOpts) -> Report {
    let delta = 0.5;
    let sizes = [1usize << 12, 1 << 14, 1 << 16];
    // At these input sizes the paper's asymptotic fan-out n^{(1-δ)/10} is still ≈ 2,
    // which would coincide with the warmup baseline; fixing H = 8 exhibits the
    // shallow-recursion regime the paper's analysis describes while the warmup keeps
    // its binary splits. Both rows solve the exact problem and are measured
    // identically.
    let paper_params = MulParams::default().with_h(8);

    let mut published = Table::new(vec!["reference", "rounds", "scalability", "approximation"]);
    published.row(vec!["[KT10a]", "O(log² n)", "δ < 1/3", "exact"]);
    published.row(vec!["[IMS17]", "O(log n)", "fully-scalable", "1 + ε"]);
    published.row(vec!["[IMS17]", "O(1)", "δ < 1/4", "1 + ε"]);
    published.row(vec!["[CHS23]", "O(log⁴ n)", "fully-scalable", "exact"]);
    published.row(vec!["this paper", "O(log n)", "fully-scalable", "exact"]);

    let mut measured = Table::new(vec![
        "algorithm",
        "n",
        "rounds",
        "merge levels",
        "rounds / log2(n)",
        "peak load / s",
        "wall ms",
    ]);
    for &n in &sizes {
        let s = MpcConfig::lenient(n, delta).space as f64;
        let log2n = (n as f64).log2();

        let (rounds, levels, load, wall_ms) = measure(n, delta, &paper_params);
        measured.row(vec![
            "this paper (H = 8)".to_string(),
            n.to_string(),
            rounds.to_string(),
            levels.to_string(),
            format!("{:.1}", rounds as f64 / log2n),
            format!("{:.2}", load as f64 / s),
            format!("{:.1}", wall_ms),
        ]);

        let (rounds, levels, load, wall_ms) = measure(n, delta, &MulParams::warmup());
        measured.row(vec![
            "warmup baseline (H = 2, §1.4)".to_string(),
            n.to_string(),
            rounds.to_string(),
            levels.to_string(),
            format!("{:.1}", rounds as f64 / log2n),
            format!("{:.2}", load as f64 / s),
            format!("{:.1}", wall_ms),
        ]);
    }

    Report::new("Table 1 (paper) — summary of massively parallel LIS algorithms")
        .table("published", "", published)
        .table(
            "measured",
            format!(
                "Measured on the MPC simulator (δ = {delta}, {} thread(s)), exact LIS:",
                rayon::current_num_threads()
            ),
            measured,
        )
        .reading(
            "rounds / log2(n) stays flat for this paper's parameters (O(log n) total),\n\
             while the warmup baseline pays an extra Θ(log n) factor inside each multiplication,\n\
             mirroring the gap Table 1 reports between this paper and the prior exact algorithms.",
        )
}
