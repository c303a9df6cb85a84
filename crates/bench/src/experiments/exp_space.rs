//! Experiment E3 — fully-scalable space behaviour: per-machine peak load and
//! communication against the `s = Õ(n^{1−δ})` budget as δ varies, for the
//! multiplication (Theorem 1.1), LIS (Theorem 1.3) and LCS (Corollary 1.3.1).
//!
//! With the space-conformant combine (tree grid phase + pierced-interval
//! ordinal-multicast routing) and the budget-sized LIS base blocks, every row
//! must show zero violations at every δ — the CI strict leg asserts this for
//! the ⊡ *and* the LIS/LCS rows. The clusters run in record-only mode so a
//! regression shows up as a nonzero count in the table instead of a panic.
//!
//! Run with: `cargo run --release -p bench -- exp_space
//! [--json --threads N --max-n N]` (`--max-n` sets the instance size,
//! default 2^14; the LCS strings are `√n` long so the pair regime matches).

use crate::{lis_chain, noisy_trend, random_permutation, random_sequence};
use crate::{ExpOpts, Report, Table};
use lis_mpc::lcs::lcs_mpc;
use monge_mpc::MulParams;
use mpc_runtime::{Cluster, Ledger, MpcConfig};

pub(crate) fn run(opts: &ExpOpts) -> Report {
    let n = opts.max_n.unwrap_or(1 << 14);
    // Witness-phase aggregates across δ (the CI strict leg asserts these via
    // the JSON envelope: phases present, zero violations, rounds ≤ 2×).
    let mut witness_phases = 0usize;
    let mut witness_phase_violations = 0u64;
    let mut witness_round_ratio: f64 = 0.0;
    // Recovery aggregates across δ (same envelope contract: every scheduled
    // kill fires, recovery stays violation-free, overhead ≤ 2×).
    let mut recovery_kills = 0usize;
    let mut recovery_violations = 0u64;
    let mut recovery_round_ratio: f64 = 0.0;
    let mut table = Table::new(vec![
        "workload",
        "δ",
        "machines",
        "budget s",
        "rounds",
        "peak load",
        "peak/s",
        "violations",
        "comm/n",
    ]);
    let push_row = |table: &mut Table, workload: &str, cluster: &Cluster, scale: usize| {
        let l: &Ledger = cluster.ledger();
        let cfg = cluster.config();
        table.row(vec![
            workload.to_string(),
            format!("{}", cfg.delta),
            cfg.machines.to_string(),
            cfg.space.to_string(),
            l.rounds.to_string(),
            l.max_machine_load.to_string(),
            format!("{:.2}", l.max_machine_load as f64 / cfg.space as f64),
            l.space_violations.to_string(),
            format!("{:.1}", l.communication as f64 / scale as f64),
        ]);
    };

    for &delta in &[0.25, 0.4, 0.5, 0.6, 0.75] {
        // Multiplication.
        let a = random_permutation(n, 1);
        let b = random_permutation(n, 2);
        let mut cluster = Cluster::new(MpcConfig::new(n, delta).recording());
        let _ = monge_mpc::mul(&mut cluster, &a, &b, &MulParams::default());
        push_row(&mut table, "⊡ (Thm 1.1)", &cluster, n);

        // LIS, then LIS with witness recovery, then LIS under a machine kill
        // (`lis_chain`): the top-down traceback (lis-witness-* phases) must
        // stay violation-free and cost ≤ 2× the length-only rounds; the kill
        // lands on machine 0 mid-merge (or, when small δ fits the instance in
        // one base block, in the base phase, exercising the recovery-base
        // re-comb from the durable input), and the level-checkpoint recovery
        // must reproduce the fault-free outputs bit for bit within budget.
        let seq = noisy_trend(n, (n / 8) as u32, 3);
        let chain = lis_chain(&seq, delta);
        let (length, witness, faulted) = (
            &chain.length.cluster,
            &chain.witness.cluster,
            &chain.recovery.cluster,
        );
        push_row(&mut table, "LIS (Thm 1.3)", length, n);

        let ledger = witness.ledger();
        witness_phases += ledger
            .rounds_by_phase
            .keys()
            .filter(|k| k.starts_with("lis-witness-"))
            .count();
        witness_phase_violations += ledger
            .violations_by_phase
            .iter()
            .filter(|(k, _)| k.starts_with("lis-witness-"))
            .map(|(_, &v)| v)
            .sum::<u64>();
        witness_round_ratio =
            witness_round_ratio.max(witness.rounds() as f64 / length.rounds().max(1) as f64);
        push_row(&mut table, "LIS wit (Cor 1.3.2)", witness, n);

        let faulted_ledger = faulted.ledger();
        recovery_kills += faulted_ledger.kills();
        recovery_violations += faulted_ledger.space_violations;
        // Overhead against the witness run it recovers (same work + faults).
        recovery_round_ratio =
            recovery_round_ratio.max(faulted.rounds() as f64 / witness.rounds().max(1) as f64);
        push_row(&mut table, "LIS rec (fault)", faulted, n);

        // LCS: strings of length √n so the worst-case pair count matches the
        // n-item total-space budget of the other rows.
        let m = (n as f64).sqrt().round() as usize;
        let sa = random_sequence(m, (m / 4).max(2) as u32, 5);
        let sb = random_sequence(m, (m / 4).max(2) as u32, 7);
        let mut cluster = Cluster::new(MpcConfig::new(n, delta).recording());
        let _ = lcs_mpc(&mut cluster, &sa, &sb, &MulParams::default());
        push_row(&mut table, "LCS (Cor 1.3.1)", &cluster, n);
    }
    Report::new(format!("E3: space profile at n = {n}"))
        .table("rows", "", table)
        .field("witness_phases", witness_phases)
        .field("witness_phase_violations", witness_phase_violations)
        .field(
            "witness_max_round_ratio",
            format!("{witness_round_ratio:.3}"),
        )
        .field("recovery_kills", recovery_kills)
        .field("recovery_violations", recovery_violations)
        .field(
            "recovery_max_round_ratio",
            format!("{recovery_round_ratio:.3}"),
        )
        .reading(
            "the per-machine budget shrinks as δ grows while the machine count grows.\n\
             Every workload runs the space-conformant pipeline (H-ary tree grid phase, Lemma 3.12\n\
             pierced ordinal-multicast routing, budget-sized LIS base blocks, distributed\n\
             Hunt–Szymanski join) and must show zero violations at every δ — the CI strict leg\n\
             asserts this for the ⊡ rows and the LIS/LCS rows alike, including the witness\n\
             traceback (lis-witness-* phases, ≤ 2× the length-only rounds). The rec rows kill\n\
             machine 0 mid-merge: level-checkpoint recovery reproduces the fault-free outputs bit\n\
             for bit within 2× the fault-free witness rounds.",
        )
}
