//! Experiment E6 — chaos harness for the fault-injection runtime: kill one
//! machine inside *every* merge level of the Theorem 1.3 pipeline (plus one
//! straggler-only schedule) and measure the recovery overhead.
//!
//! A fault-free probe run records where each `lis-merge-L<k>` level sits on
//! the superstep clock (`Ledger::superstep_spans`); the harness then re-runs
//! the witness pipeline once per level with a kill aimed at the level's
//! mid-span superstep. Every faulted run must reproduce the fault-free
//! length, kernel and witness **bit for bit** with zero space violations, at
//! ≤ 2× the fault-free rounds — the same invariants the CI chaos smoke leg
//! asserts through `--json`. The straggler row checks the complementary
//! accounting rule: delays charge `stall_rounds`, never `rounds`.
//!
//! Run with: `cargo run --release -p bench -- exp_chaos
//! [--json --threads N --max-n N]` (`--max-n` sets the instance size,
//! default 2^12).

use crate::{kill_and_recover, noisy_trend, ExpOpts, Report, Table};
use lis_mpc::lis_witness_mpc;
use monge_mpc::MulParams;
use mpc_runtime::{Cluster, FaultPlan, MpcConfig};

pub(crate) fn run(opts: &ExpOpts) -> Report {
    let n = opts.max_n.unwrap_or(1 << 12);
    let delta = 0.5;
    let seq = noisy_trend(n, (n / 3).max(2) as u32, 0xC4A05 + n as u64);
    let params = MulParams::default();

    // Fault-free probe: the baseline outputs and the superstep span of every
    // merge level (the clock positions recovery must be aimed at).
    let mut probe = Cluster::new(MpcConfig::new(n, delta));
    let baseline = lis_witness_mpc(&mut probe, &seq, &params);
    let base_rounds = probe.rounds();
    let machines = probe.config().machines;
    assert!(machines >= 2, "chaos runs need a surviving replica machine");

    let mut table = Table::new(vec![
        "fault",
        "machine",
        "superstep",
        "rounds",
        "ratio",
        "recovery scopes",
        "stalls",
        "violations",
        "identical",
    ]);
    let mut max_ratio: f64 = 0.0;
    let mut total_kills = 0usize;
    let mut total_violations = 0u64;

    // One kill aimed inside each merge level, always at machine 0
    // (`kill_and_recover`): node i of every level lives on machine i % m, so
    // machine 0 owns node 0 of every level and each kill is guaranteed to
    // destroy live state (other machines may own no node at the shallow top
    // levels). Each run must reproduce the baseline bit for bit.
    for level in 1..=baseline.levels {
        let Some((lo, hi)) = probe
            .ledger()
            .superstep_span_of(&format!("lis-merge-L{level}"))
        else {
            continue;
        };
        let superstep = lo + (hi - lo) / 2;
        let cluster =
            kill_and_recover(&seq, MpcConfig::new(n, delta), superstep, &baseline).cluster;
        let ledger = cluster.ledger();
        let recovery_scopes = ledger
            .rounds_by_phase
            .keys()
            .filter(|k| k.starts_with("recovery-"))
            .count();
        assert!(recovery_scopes > 0, "a kill must leave recovery scopes");
        let ratio = cluster.rounds() as f64 / base_rounds.max(1) as f64;
        assert!(
            ratio <= 2.0,
            "recovery overhead {ratio:.2}× exceeds 2× at level {level}"
        );
        max_ratio = max_ratio.max(ratio);
        total_kills += ledger.kills();
        total_violations += ledger.space_violations;
        table.row(vec![
            format!("kill@L{level}"),
            "0".to_string(),
            superstep.to_string(),
            cluster.rounds().to_string(),
            format!("{ratio:.2}"),
            recovery_scopes.to_string(),
            ledger.stall_rounds.to_string(),
            ledger.space_violations.to_string(),
            "yes".to_string(),
        ]);
    }

    // Straggler-only schedule: two delayed machines. The synchronous barrier
    // absorbs them — round count is *exactly* the fault-free one and the lost
    // time lands in `stall_rounds`.
    let plan = FaultPlan::delay(0, 5, 3).and_delay(1, 40, 2);
    let mut cluster = Cluster::new(MpcConfig::new(n, delta).with_faults(plan));
    let outcome = lis_witness_mpc(&mut cluster, &seq, &params);
    assert_eq!(outcome.length, baseline.length);
    assert_eq!(outcome.kernel, baseline.kernel);
    assert_eq!(outcome.witness, baseline.witness);
    assert_eq!(
        cluster.rounds(),
        base_rounds,
        "delays must not change the synchronous round count"
    );
    let ledger = cluster.ledger();
    assert_eq!(ledger.stall_rounds, 5, "both delays must be charged");
    total_violations += ledger.space_violations;
    table.row(vec![
        "stragglers".to_string(),
        "0+1".to_string(),
        "5,40".to_string(),
        cluster.rounds().to_string(),
        "1.00".to_string(),
        "0".to_string(),
        ledger.stall_rounds.to_string(),
        ledger.space_violations.to_string(),
        "yes".to_string(),
    ]);

    Report::new(format!(
        "E6: chaos injection at n = {n}, δ = {delta} ({machines} machines, \
         fault-free rounds = {base_rounds})"
    ))
    .table("rows", "", table)
    .field("n", n)
    .field("baseline_rounds", base_rounds)
    .field("levels", baseline.levels)
    .field("kills", total_kills)
    .field("max_round_ratio", format!("{max_ratio:.3}"))
    .field("violations", total_violations)
    .reading(format!(
        "each kill row schedules one machine crash at the mid-span superstep of a\n\
         merge level; the pipeline repairs the lost shard from the level below (recovery-*\n\
         ledger scopes) and must reproduce the fault-free length, kernel and witness bit for\n\
         bit on strict clusters — zero violations, ≤ 2× rounds (measured max {max_ratio:.2}×).\n\
         The straggler row shows delays being absorbed by the barrier: identical rounds, the\n\
         lost time charged to stall_rounds."
    ))
}
