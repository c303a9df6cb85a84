//! Experiment E4 — Theorem 1.3: the exact-LIS round count grows as `Θ(log n)`.
//! The harness fits `rounds ≈ a · log₂(n) + b` and reports the per-level round cost,
//! which must stay flat as n grows — alongside the communication volume, the peak
//! per-machine load and the (must-be-zero) space-violation count of the strict
//! space-conformant pipeline. Each size also runs the witness-enabled pipeline
//! (`lis_witness_mpc`): the `wit rounds` / `wit ratio` columns track the
//! traceback's overhead over length-only, asserted ≤ 2× (the recovered witness
//! is validated against the input on every row). A third run per size injects
//! a machine kill mid-merge (`rec rounds` / `rec ratio` columns): checkpoint
//! replication plus the repair must reproduce the fault-free outputs bit for
//! bit at ≤ 2× the witness run's rounds, with zero space violations. The three
//! runs are [`crate::lis_chain`]. The `ms` /
//! `wit ms` / `rec ms` columns record the simulated pipelines' wall-clock time,
//! tracking the bit-parallel comb and arena-backed steady-ant hot paths that do
//! the actual local work beneath the round accounting.
//!
//! Run with: `cargo run --release -p bench -- exp_lis_rounds
//! [--json --threads N --max-n N]` (the size grid doubles from 2^11 up to
//! `--max-n`, default 2^15).

use crate::{lis_chain, noisy_trend, size_sweep, ExpOpts, Report, Table};
use seaweed_lis::baselines::lis_length_patience;

pub(crate) fn run(opts: &ExpOpts) -> Report {
    let delta = 0.5;
    let mut table = Table::new(vec![
        "n",
        "LIS",
        "levels",
        "rounds",
        "rounds/level",
        "rounds/log2 n",
        "comm/n",
        "peak load",
        "budget s",
        "violations",
        "wit rounds",
        "wit ratio",
        "rec rounds",
        "rec ratio",
        "ms",
        "wit ms",
        "rec ms",
    ]);
    let mut samples = Vec::new();
    let mut sizes = size_sweep(1 << 11, 1 << 15, opts.max_n);
    if sizes.is_empty() {
        // --max-n below the default base: run that single size.
        sizes.push(opts.max_n.unwrap_or(1 << 11).max(16));
    }
    for n in sizes {
        let seq = noisy_trend(n, (n / 3).max(2) as u32, 0xBEEF + n as u64);
        let chain = lis_chain(&seq, delta);
        let (length, witness, recovery) = (&chain.length, &chain.witness, &chain.recovery);
        let outcome = &length.outcome;
        assert_eq!(
            outcome.length,
            lis_length_patience(&seq),
            "correctness check at n = {n}"
        );
        let rounds = length.cluster.rounds();

        // The witness pipeline adds the O(log n)-round traceback: pin its
        // overhead to ≤ 2× of length-only.
        let witness_rounds = witness.cluster.rounds();
        let ratio = witness_rounds as f64 / rounds.max(1) as f64;
        assert!(
            ratio <= 2.0,
            "witness recovery overhead {ratio:.2}× exceeds 2× at n = {n}"
        );

        // The kill run (checkpoint replication + one repair) stays
        // space-conformant and within 2× of the witness run it recovers.
        assert_eq!(
            recovery.cluster.ledger().space_violations,
            0,
            "recovery must stay space-conformant at n = {n}"
        );
        let recovery_rounds = recovery.cluster.rounds();
        let recovery_ratio = recovery_rounds as f64 / witness_rounds.max(1) as f64;
        assert!(
            recovery_ratio <= 2.0,
            "recovery overhead {recovery_ratio:.2}× exceeds 2× at n = {n}"
        );

        let ledger = length.cluster.ledger();
        samples.push(((n as f64).log2(), rounds as f64));
        table.row(vec![
            n.to_string(),
            outcome.length.to_string(),
            outcome.levels.to_string(),
            rounds.to_string(),
            format!("{:.1}", rounds as f64 / outcome.levels.max(1) as f64),
            format!("{:.1}", rounds as f64 / (n as f64).log2()),
            format!("{:.1}", ledger.communication as f64 / n as f64),
            ledger.max_machine_load.to_string(),
            length.cluster.config().space.to_string(),
            ledger.space_violations.to_string(),
            witness_rounds.to_string(),
            format!("{ratio:.2}"),
            recovery_rounds.to_string(),
            format!("{recovery_ratio:.2}"),
            format!("{:.1}", length.wall_ms),
            format!("{:.1}", witness.wall_ms),
            format!("{:.1}", recovery.wall_ms),
        ]);
    }
    // Least-squares fit rounds = a·log2(n) + b (degenerate with one sample:
    // slope 0, intercept = the single measurement).
    let k = samples.len() as f64;
    let sx: f64 = samples.iter().map(|s| s.0).sum();
    let sy: f64 = samples.iter().map(|s| s.1).sum();
    let sxx: f64 = samples.iter().map(|s| s.0 * s.0).sum();
    let sxy: f64 = samples.iter().map(|s| s.0 * s.1).sum();
    let (a, b) = if samples.len() >= 2 {
        let a = (k * sxy - sx * sy) / (k * sxx - sx * sx);
        (a, (sy - a * sx) / k)
    } else {
        (0.0, sy)
    };

    Report::new(format!("E4: LIS rounds vs n (δ = {delta})"))
        .table("rows", "", table)
        .field("fit_slope", format!("{a:.3}"))
        .field("fit_intercept", format!("{b:.3}"))
        .reading(format!(
            "the measured rounds follow a·log2(n)+b (fit: rounds ≈ {a:.1} · log2(n) {b:+.1}) with\n\
             a stable per-level cost — the O(log n) fully-scalable exact-LIS bound of Theorem 1.3 —\n\
             and the violations column must be all-zero: the pipeline is space-conformant\n\
             (budget-sized base blocks, ordinal-multicast routing), which the CI strict leg asserts.\n\
             The wit columns run the witness-enabled pipeline (recorded merge tree + top-down\n\
             traceback): its round overhead over length-only is asserted ≤ 2× on every row. The rec\n\
             columns re-run the witness pipeline with machine 0 killed mid-merge: level checkpoints\n\
             + O(1)-round repair reproduce the fault-free outputs bit for bit, also asserted ≤ 2×.\n\
             The ms columns are wall-clock per pipeline run — the trajectory the local-kernel work\n\
             (bit-parallel comb, arena steady-ant) makes feasible out to n = 2^20 and beyond."
        ))
}
