//! Tier-1 determinism guarantee of the parallel simulator: algorithm outputs
//! and the *entire* accounting ledger — rounds, communication, peak load,
//! `rounds_by_phase`, `primitive_counts` — must be bit-identical at every
//! thread count.
//!
//! This is the contract that makes the thread pool an execution detail: the
//! MPC model's measured quantities may never depend on how the simulator's own
//! local work was scheduled. The CI thread matrix (`RAYON_NUM_THREADS=1` and
//! `=4`) runs this same suite through the env-var path; here the thread count
//! is varied in-process through `ThreadPool::install`.

mod common;

use common::{noisy_sequence, workload};
use monge_mpc_suite::lis_mpc::lis_witness_mpc;
use monge_mpc_suite::monge_mpc::MulParams;
use monge_mpc_suite::mpc_runtime::{Cluster, FaultPlan, Ledger, MpcConfig};
use monge_mpc_suite::seaweed_lis::kernel::SeaweedKernel;

/// The LIS witness workload under a fixed fault plan: a straggler delay, a
/// mid-run kill and a late kill of machine 0 (which owns node 0 of every
/// level). Fault firing, checkpointing, repair and all recovery accounting
/// must be as thread-count-invariant as the fault-free pipeline.
fn faulted_workload() -> (usize, SeaweedKernel, Vec<usize>, Ledger) {
    let seq = noisy_sequence(600, 0xC0DE);
    let plan = FaultPlan::delay(0, 20, 2).and_kill(1, 50).and_kill(0, 120);
    let mut cluster = Cluster::new(MpcConfig::new(seq.len(), 0.75).with_faults(plan));
    let outcome = lis_witness_mpc(&mut cluster, &seq, &MulParams::default());
    (
        outcome.length,
        outcome.kernel,
        outcome.witness.expect("witness requested"),
        cluster.ledger().clone(),
    )
}

fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool construction is infallible")
        .install(f)
}

#[test]
fn outputs_and_ledgers_identical_across_thread_counts() {
    let baseline = at_threads(1, workload);
    for threads in [2, 4, 8] {
        let run = at_threads(threads, workload);
        assert_eq!(
            baseline.0, run.0,
            "⊡ product must not depend on thread count ({threads} threads)"
        );
        assert_eq!(
            baseline.1, run.1,
            "⊡ ledger (rounds, comm, loads, phases, primitive counts) diverged at {threads} threads"
        );
        assert_eq!(
            baseline.2, run.2,
            "LIS length must not depend on thread count ({threads} threads)"
        );
        assert_eq!(
            baseline.3, run.3,
            "LIS semi-local kernel diverged at {threads} threads"
        );
        assert_eq!(
            baseline.4, run.4,
            "LIS ledger diverged at {threads} threads"
        );
        assert_eq!(
            baseline.5, run.5,
            "LIS witness diverged at {threads} threads"
        );
    }
}

#[test]
fn faulted_run_identical_across_thread_counts() {
    let fault_free = at_threads(1, workload);
    let baseline = at_threads(1, faulted_workload);
    // The fixed plan genuinely fired (both kills and the delay) and the
    // recovery reproduced the fault-free outputs bit for bit.
    assert_eq!(baseline.3.fault_events.len(), 3);
    assert_eq!(baseline.3.kills(), 2);
    assert_eq!(baseline.3.stall_rounds, 2);
    assert_eq!(baseline.3.space_violations, 0);
    assert_eq!(baseline.0, fault_free.2, "recovered length diverged");
    assert_eq!(baseline.1, fault_free.3, "recovered kernel diverged");
    assert_eq!(baseline.2, fault_free.5, "recovered witness diverged");
    for threads in [4, 8] {
        let run = at_threads(threads, faulted_workload);
        assert_eq!(
            baseline.0, run.0,
            "faulted LIS length diverged at {threads} threads"
        );
        assert_eq!(
            baseline.1, run.1,
            "faulted kernel diverged at {threads} threads"
        );
        assert_eq!(
            baseline.2, run.2,
            "faulted witness diverged at {threads} threads"
        );
        assert_eq!(
            baseline.3, run.3,
            "faulted ledger (fault events, recovery scopes, stalls) diverged at {threads} threads"
        );
    }
}

#[test]
fn ledger_totals_are_nontrivial() {
    // Guard against the determinism test passing vacuously on empty ledgers.
    let (_, mul_ledger, lis_len, _, lis_ledger, witness) = workload();
    assert!(mul_ledger.rounds > 0 && mul_ledger.communication > 0);
    assert!(!mul_ledger.rounds_by_phase.is_empty());
    assert!(!mul_ledger.primitive_counts.is_empty());
    assert!(lis_ledger.rounds > 0 && lis_len > 0);
    assert_eq!(witness.len(), lis_len);
    assert!(lis_ledger
        .rounds_by_phase
        .keys()
        .any(|k| k.starts_with("lis-witness-")));
}

#[test]
fn env_thread_count_matches_install_path() {
    // Whatever RAYON_NUM_THREADS the harness set (the CI matrix pins 1 and 4),
    // the result must equal the forced-sequential reference.
    let ambient = workload();
    let sequential = at_threads(1, workload);
    assert_eq!(ambient.0, sequential.0);
    assert_eq!(ambient.1, sequential.1);
    assert_eq!(ambient.2, sequential.2);
    assert_eq!(ambient.3, sequential.3);
    assert_eq!(ambient.4, sequential.4);
    assert_eq!(ambient.5, sequential.5);
}
