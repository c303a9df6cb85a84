//! The `lis_mpc` workload: Theorem 1.3 end to end. Each solve runs
//! `lis_witness_mpc` on a fresh strict `MpcConfig::new(n, 0.5)` cluster over
//! a fresh seeded noisy trend, and is checked against the sequential oracles
//! (patience length, `lis_kernel`, a valid witness of that length) and for a
//! zero space-violation count.

use crate::check::{self, Tally};
use crate::gen::{self, tag};
use crate::report;
use crate::stats::median_of;
use crate::trace::Tracer;
use crate::{Measured, Prepared, RunConfig, Scale, DELTA};
use lis_mpc::{lis_witness_mpc, MpcLisOutcome};
use monge_mpc::MulParams;
use mpc_runtime::{Cluster, Ledger, MpcConfig};
use seaweed_lis::baselines::lis_length_patience;
use seaweed_lis::lis::lis_kernel;
use std::time::Instant;

/// Fewest solves a timed loop makes, however long they take.
const MIN_SOLVES: usize = 3;

/// Checks one solve against the sequential oracles.
pub fn check_solve(seq: &[u32], outcome: &MpcLisOutcome, ledger: &Ledger) -> Result<(), String> {
    let expected = lis_length_patience(seq);
    if outcome.length != expected {
        return Err(format!(
            "LIS length {} != patience {expected}",
            outcome.length
        ));
    }
    if outcome.kernel != lis_kernel(seq) {
        return Err("MPC kernel differs from lis_kernel".into());
    }
    let witness = outcome.witness.as_deref().ok_or("no witness returned")?;
    check::witness(seq, witness, 0, u32::MAX, expected)?;
    if ledger.space_violations != 0 {
        return Err(format!("{} space violations", ledger.space_violations));
    }
    Ok(())
}

/// One checked solve on a fresh strict cluster; returns the cluster so the
/// caller can read its ledger.
pub fn solve(seq: &[u32], tracer: &Tracer, parent: u64, request: u64) -> (MpcLisOutcome, Cluster) {
    let mut cluster = Cluster::new(MpcConfig::new(seq.len(), DELTA));
    let outcome = tracer.span("lis_mpc.lis_witness_mpc", parent, request, |_| {
        lis_witness_mpc(&mut cluster, seq, &MulParams::default())
    });
    (outcome, cluster)
}

/// The prepared lis_mpc workload.
pub struct LisMpc {
    scale: Scale,
    seed: u64,
    next_solve: u64,
    setup: Vec<f64>,
    setup_tally: Tally,
    ledgers: Vec<Ledger>,
}

impl LisMpc {
    /// Ledgers of every solve so far, in order.
    pub fn ledgers(&self) -> &[Ledger] {
        &self.ledgers
    }
}

/// Set-up: cluster construction plus one checked warm-up solve, repeated and
/// timed; `setup_s` is the median.
pub fn prepare(cfg: &RunConfig) -> LisMpc {
    let mut setup = Vec::new();
    let mut setup_tally = Tally::default();
    for rep in 0..cfg.scale.warm_reps {
        let seq = gen::trend(cfg.scale.warm_n, gen::mix(cfg.seed, tag::WARM + rep as u64));
        let started = Instant::now();
        let (outcome, cluster) = solve(&seq, &Tracer::new(false), 0, 0);
        setup.push(started.elapsed().as_secs_f64());
        setup_tally.record(check_solve(&seq, &outcome, cluster.ledger()));
    }
    LisMpc {
        scale: cfg.scale.clone(),
        seed: cfg.seed,
        next_solve: 0,
        setup,
        setup_tally,
        ledgers: Vec::new(),
    }
}

impl Prepared for LisMpc {
    fn run_loop(&mut self, seconds: f64, tracer: &Tracer) -> Measured {
        let mut m = Measured::default();
        let mut solves = 0usize;
        while m.elapsed_s < seconds || solves < MIN_SOLVES {
            let i = self.next_solve;
            self.next_solve += 1;
            let seq = gen::trend(self.scale.lis_n, gen::mix(self.seed, tag::SOLVE + i));
            tracer.span("bench.solve", 0, i + 1, |root| {
                let (started, cpu) = (Instant::now(), report::cpu_s());
                let (outcome, cluster) = solve(&seq, tracer, root, i + 1);
                let dt = started.elapsed().as_secs_f64();
                m.cpu_s += report::cpu_s() - cpu;
                m.elapsed_s += dt;
                m.op_ms.push(dt * 1e3);
                let verdict = tracer.span("bench.check", root, i + 1, |_| {
                    check_solve(&seq, &outcome, cluster.ledger())
                });
                m.tally.record(verdict);
                self.ledgers.push(cluster.ledger().clone());
            });
            solves += 1;
            m.completed += 1;
        }
        m
    }

    fn setup_s(&self) -> f64 {
        median_of(&self.setup)
    }

    fn setup_tally(&self) -> Tally {
        self.setup_tally.clone()
    }

    fn service_sequence(&self) -> Vec<u32> {
        gen::service_sequence(self.scale.ladder_n, gen::mix(self.seed, tag::HOT))
    }

    fn finish(self: Box<Self>) {}
}
