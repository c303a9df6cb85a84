//! The benchmark and experiment harness: deterministic workload generators,
//! best-of timing, the LIS witness-recovery chain the experiments share, and
//! the registry behind the `bench` command:
//!
//! ```text
//! cargo run --release -p bench -- <experiment> [--json] [--threads N] [--max-n N]
//! ```
//!
//! Each experiment returns one [`Report`]; the command prints it as text or,
//! with `--json`, as the `{"experiment": …, "threads": N, …}` envelope.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod experiments;
mod report;

pub use report::{Report, Table};

use lis_mpc::{lis_kernel_mpc, lis_witness_mpc, MpcLisOutcome};
use monge::PermutationMatrix;
use monge_mpc::MulParams;
use mpc_runtime::{Cluster, FaultPlan, MpcConfig};
use rand::prelude::*;
use std::time::Instant;

/// Options shared by every experiment.
///
/// * `--json` — emit the JSON envelope instead of the text report.
/// * `--threads N` — size the global thread pool before any work runs
///   (equivalent to `RAYON_NUM_THREADS=N`, but overriding it), so one
///   experiment can be re-run at several thread counts.
/// * `--max-n N` — scale the experiment's problem-size grid up to `N`
///   (experiments with a size sweep extend their grid; others size their
///   single instance from it).
///
/// Each option also takes the `--name=value` form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExpOpts {
    /// Emit JSON instead of the text report.
    pub json: bool,
    /// Explicit thread-pool size.
    pub threads: Option<usize>,
    /// Upper bound of the problem-size sweep.
    pub max_n: Option<usize>,
}

/// An experiment's entry point.
pub type Run = fn(&ExpOpts) -> Report;

/// Every experiment, by subcommand name. The name is also the envelope's
/// `experiment` key.
pub(crate) const EXPERIMENTS: [(&str, Run); 9] = [
    ("exp_mul_rounds", experiments::exp_mul_rounds::run),
    ("exp_lis_rounds", experiments::exp_lis_rounds::run),
    ("exp_kernel_bench", experiments::exp_kernel_bench::run),
    ("exp_lcs", experiments::exp_lcs::run),
    ("exp_space", experiments::exp_space::run),
    ("exp_ablation", experiments::exp_ablation::run),
    ("exp_chaos", experiments::exp_chaos::run),
    ("exp_service", experiments::exp_service::run),
    ("table1", experiments::table1::run),
];

/// The usage line, listing every experiment.
pub(crate) fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: bench <experiment> [--json] [--threads N] [--max-n N]\nexperiments: {}",
        names.join(", ")
    )
}

/// Parses the command line after the program name: one experiment name,
/// then options. Returns the experiment's name, entry point and options, or
/// the usage text listing every experiment.
pub fn parse<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<(&'static str, Run, ExpOpts), String> {
    let mut args = args.into_iter();
    let name = args.next().unwrap_or_default();
    let &(name, run) = EXPERIMENTS
        .iter()
        .find(|(known, _)| *known == name)
        .ok_or_else(usage)?;
    let mut opts = ExpOpts::default();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
            None => (arg, None),
        };
        if flag == "--json" && inline.is_none() {
            opts.json = true;
            continue;
        }
        let slot = match flag.as_str() {
            "--threads" => &mut opts.threads,
            "--max-n" => &mut opts.max_n,
            _ => return Err(usage()),
        };
        match inline.or_else(|| args.next()).and_then(|v| v.parse().ok()) {
            Some(n) if n > 0 => *slot = Some(n),
            _ => return Err(usage()),
        }
    }
    Ok((name, run, opts))
}

/// Doubling problem-size grid: `base, 2·base, …` up to `max_n` (when given)
/// or `default_max`. Used by the experiments to honor `--max-n`; a
/// cap below `base` yields an *empty* grid, so an experiment that appends the
/// sweep to a fixed case list can be held to the fixed list alone.
pub fn size_sweep(base: usize, default_max: usize, max_n: Option<usize>) -> Vec<usize> {
    let cap = max_n.unwrap_or(default_max);
    let mut ns = Vec::new();
    let mut n = base;
    while n <= cap {
        ns.push(n);
        n = n.saturating_mul(2);
    }
    ns
}

/// Deterministic random permutation of `0..n`.
pub fn random_permutation(n: usize, seed: u64) -> PermutationMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<u32> = (0..n as u32).collect();
    v.shuffle(&mut rng);
    PermutationMatrix::from_rows(v)
}

/// Deterministic random sequence with duplicates drawn from `0..alphabet`.
pub fn random_sequence(n: usize, alphabet: u32, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..alphabet)).collect()
}

/// A noisy monotone series (LIS ≈ fraction of n), the workload used by the LIS
/// experiments so the answers are non-trivial in both directions.
pub fn noisy_trend(n: usize, noise: u32, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| i as u32 + rng.gen_range(0..noise.max(1)))
        .collect()
}

/// Best-of wall-clock timing of `f` in nanoseconds: runs at least `min_runs`
/// times and until `min_total_ms` of accumulated time, whichever is later
/// (hard-capped at 1000 runs), and reports the fastest run. Best-of is robust
/// against scheduler noise for single-process kernels; the result is fed
/// through [`std::hint::black_box`] so the work is not optimized away.
pub fn bench_ns<R>(min_runs: usize, min_total_ms: u64, mut f: impl FnMut() -> R) -> u64 {
    let min_runs = min_runs.max(1);
    let min_total = std::time::Duration::from_millis(min_total_ms);
    let mut best = u64::MAX;
    let mut total = std::time::Duration::ZERO;
    let mut runs = 0usize;
    while runs < min_runs || (total < min_total && runs < 1000) {
        let start = std::time::Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        std::hint::black_box(&out);
        best = best.min(elapsed.as_nanos() as u64);
        total += elapsed;
        runs += 1;
    }
    best.max(1)
}

/// One timed pipeline run: its outputs, the cluster whose ledger it left,
/// and its wall-clock time.
pub(crate) struct LisRun {
    /// The pipeline's outputs.
    pub(crate) outcome: MpcLisOutcome,
    /// The cluster the pipeline ran on.
    pub(crate) cluster: Cluster,
    /// Wall-clock milliseconds of the run.
    pub(crate) wall_ms: f64,
}

fn timed_run(config: MpcConfig, pipeline: impl FnOnce(&mut Cluster) -> MpcLisOutcome) -> LisRun {
    let mut cluster = Cluster::new(config);
    let started = Instant::now();
    let outcome = pipeline(&mut cluster);
    LisRun {
        outcome,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        cluster,
    }
}

/// Re-runs the witness pipeline on `config` with machine 0 killed at
/// `superstep` and asserts that the kill fired and that the recovered
/// length, kernel and witness are bit-identical to `baseline`.
///
/// Machine 0 owns node 0 of every merge level, so a kill inside a merge
/// level always destroys live state.
pub(crate) fn kill_and_recover(
    seq: &[u32],
    config: MpcConfig,
    superstep: u64,
    baseline: &MpcLisOutcome,
) -> LisRun {
    let config = config.with_faults(FaultPlan::kill(0, superstep));
    let run = timed_run(config, |c| lis_witness_mpc(c, seq, &MulParams::default()));
    let recovered = &run.outcome;
    let at = format!("n = {}, kill at superstep {superstep}", seq.len());
    assert_eq!(
        recovered.length, baseline.length,
        "recovered length diverged ({at})"
    );
    assert_eq!(
        recovered.kernel, baseline.kernel,
        "recovered kernel diverged ({at})"
    );
    assert_eq!(
        recovered.witness, baseline.witness,
        "recovered witness diverged ({at})"
    );
    assert_eq!(run.cluster.ledger().kills(), 1, "the kill must fire ({at})");
    run
}

/// The chain the LIS experiments share, each link on a fresh recording
/// cluster at `(seq.len(), δ)`:
///
/// 1. `length` — the length-only pipeline ([`lis_kernel_mpc`]);
/// 2. `witness` — the witness pipeline ([`lis_witness_mpc`]); its witness is
///    asserted to be a strictly increasing subsequence of the length found;
/// 3. `recovery` — the witness pipeline with machine 0 killed mid-way
///    through the merge levels (at superstep 2 when the input fits one base
///    block and there are none), asserted bit-identical by
///    [`kill_and_recover`].
pub(crate) struct LisChain {
    /// The length-only run.
    pub(crate) length: LisRun,
    /// The witness run.
    pub(crate) witness: LisRun,
    /// The witness run under a machine kill.
    pub(crate) recovery: LisRun,
}

/// Runs the [`LisChain`] on `seq` at space exponent `delta`.
pub(crate) fn lis_chain(seq: &[u32], delta: f64) -> LisChain {
    let config = || MpcConfig::new(seq.len(), delta).recording();
    let params = MulParams::default();
    let length = timed_run(config(), |c| lis_kernel_mpc(c, seq, &params));
    let witness = timed_run(config(), |c| lis_witness_mpc(c, seq, &params));
    let positions = witness
        .outcome
        .witness
        .as_deref()
        .expect("witness requested");
    let n = seq.len();
    assert_eq!(
        positions.len(),
        length.outcome.length,
        "witness length at n = {n}"
    );
    assert!(
        positions.windows(2).all(|w| seq[w[0]] < seq[w[1]]),
        "invalid witness at n = {n}"
    );
    let target = witness
        .cluster
        .ledger()
        .superstep_span_of("lis-merge-L")
        .map_or(2, |(lo, hi)| lo + (hi - lo) / 2);
    let recovery = kill_and_recover(seq, config(), target, &witness.outcome);
    LisChain {
        length,
        witness,
        recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn committed_bench_envelopes_name_registered_experiments() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for file in ["BENCH_lis.json", "BENCH_service.json"] {
            let text = std::fs::read_to_string(format!("{root}/{file}")).unwrap();
            let mut found = 0;
            for chunk in text.split("\"experiment\"").skip(1) {
                let name = chunk
                    .trim_start_matches([' ', ':'])
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap();
                assert!(
                    EXPERIMENTS.iter().any(|(known, _)| *known == name),
                    "{file} names unregistered experiment `{name}`"
                );
                found += 1;
            }
            assert!(found > 0, "{file} holds no experiment envelope");
        }
    }

    #[test]
    fn unknown_or_missing_experiment_lists_every_name() {
        for line in ["", "exp_nope", "--json", "exp_space_extra --json"] {
            let error = parse(args(line)).expect_err(line);
            assert_eq!(error, usage());
            for (name, _) in EXPERIMENTS {
                assert!(error.contains(name), "usage lacks {name}");
            }
        }
    }

    #[test]
    fn options_parse_in_both_forms() {
        let (name, _, opts) = parse(args("exp_chaos --json --threads 3 --max-n=512")).unwrap();
        assert_eq!(name, "exp_chaos");
        assert_eq!(
            opts,
            ExpOpts {
                json: true,
                threads: Some(3),
                max_n: Some(512)
            }
        );
        assert_eq!(
            parse(args("table1 --threads=2")).unwrap().2.threads,
            Some(2)
        );
        for bad in [
            "table1 --threads",
            "table1 --threads 0",
            "table1 --max-n x",
            "table1 --json=1",
            "table1 --verbose",
        ] {
            assert_eq!(parse(args(bad)).err(), Some(usage()), "{bad}");
        }
    }

    #[test]
    fn size_sweep_honors_the_cap() {
        assert_eq!(size_sweep(2048, 8192, None), vec![2048, 4096, 8192]);
        assert_eq!(size_sweep(2048, 8192, Some(4096)), vec![2048, 4096]);
        // A cap below the base yields an empty grid (no silent clamping up).
        assert!(size_sweep(8192, 4096, None).is_empty());
        assert!(size_sweep(8192, 4096, Some(4096)).is_empty());
        assert_eq!(size_sweep(8192, 4096, Some(16384)), vec![8192, 16384]);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_permutation(100, 7), random_permutation(100, 7));
        assert_eq!(random_sequence(50, 10, 3), random_sequence(50, 10, 3));
        assert_eq!(noisy_trend(50, 10, 3), noisy_trend(50, 10, 3));
    }

    #[test]
    fn lis_chain_recovers_bit_identically() {
        let seq = noisy_trend(512, 170, 1);
        let chain = lis_chain(&seq, 0.5);
        assert_eq!(
            chain.recovery.outcome.witness,
            chain.witness.outcome.witness
        );
        assert!(chain.witness.cluster.rounds() >= chain.length.cluster.rounds());
    }
}
