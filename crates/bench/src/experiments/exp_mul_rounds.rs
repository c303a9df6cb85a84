//! Experiment E2 — Theorem 1.1 headline: the round count of one implicit unit-Monge
//! multiplication is flat in `n` (for the paper's parameters) and compares against
//! the §1.4 warmup baseline whose recursion depth — and hence round count — grows
//! with `log n`. Also reports wall-clock time of the simulator's local phases,
//! which scales with `--threads` (the round counts must not).
//!
//! Run with: `cargo run --release -p bench -- exp_mul_rounds [--json --threads N]`

use crate::{random_permutation, ExpOpts, Report, Table};
use monge_mpc::MulParams;
use mpc_runtime::{Cluster, MpcConfig};
use std::time::Instant;

struct Measurement {
    rounds: u64,
    comm: u64,
    load: usize,
    wall_ms: f64,
}

fn measure(n: usize, delta: f64, params: &MulParams) -> Measurement {
    let a = random_permutation(n, 1000 + n as u64);
    let b = random_permutation(n, 2000 + n as u64);
    // Forced fan-outs (H = 8 at every δ) sit outside the paper's parameter
    // regime; record any overshoot instead of panicking.
    let mut cluster = Cluster::new(MpcConfig::lenient(n, delta));
    let start = Instant::now();
    let _ = monge_mpc::mul(&mut cluster, &a, &b, params);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let l = cluster.ledger();
    Measurement {
        rounds: l.rounds,
        comm: l.communication,
        load: l.max_machine_load,
        wall_ms,
    }
}

pub(crate) fn run(_: &ExpOpts) -> Report {
    let mut table = Table::new(vec![
        "δ",
        "n",
        "rounds (paper, H=8)",
        "rounds (warmup H=2)",
        "comm (paper)",
        "peak load",
        "wall ms (paper)",
        "wall ms (warmup)",
    ]);
    let paper = MulParams::default().with_h(8);
    for &delta in &[0.25, 0.5, 0.75] {
        // δ = 0.75 shrinks the grid spacing to n^{1/4}; cap n there to keep the
        // simulation wall-clock reasonable.
        let sizes: &[usize] = if delta < 0.7 {
            &[1 << 12, 1 << 14, 1 << 16]
        } else {
            &[1 << 12, 1 << 14]
        };
        for &n in sizes {
            let m = measure(n, delta, &paper);
            let w = measure(n, delta, &MulParams::warmup());
            table.row(vec![
                format!("{delta}"),
                n.to_string(),
                m.rounds.to_string(),
                w.rounds.to_string(),
                m.comm.to_string(),
                m.load.to_string(),
                format!("{:.1}", m.wall_ms),
                format!("{:.1}", w.wall_ms),
            ]);
        }
    }

    Report::new("E2: rounds of one ⊡ multiplication vs n and δ")
        .table(
            "rows",
            format!(
                "(\"paper\" rows use H = 8 — at these sizes the asymptotic n^{{(1-δ)/10}} is still ≈ 2 —\n\
                 the warmup baseline keeps the binary splits of §1.4. Wall-clock columns measure the\n\
                 simulator's local phases on {} thread(s); rounds are thread-count invariant.)",
                rayon::current_num_threads()
            ),
            table,
        )
        .reading(
            "for fixed δ the H = 8 rounds stay (near-)constant as n grows 16×, because the\n\
             recursion depth log_H(n/s) barely moves; the warmup baseline's depth — and with it the\n\
             round count — grows with log n. This is the Theorem 1.1 vs §1.4 gap.",
        )
}
