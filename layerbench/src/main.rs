//! Command-line entry point:
//!
//! ```text
//! layerbench --workload <lis_mpc|service_read> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a `generated_by` header line and a `quantiles` line (sample counts
//! of every percentile metric), then, as the last line of standard
//! output, one JSON object with exactly `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics traced). Exits
//! 2 on bad arguments and 1 when a run cannot complete.

use layerbench::{report, RunConfig, Scale, Workload, DELTA};
use std::process::ExitCode;

fn usage(why: &str) -> ExitCode {
    eprintln!("error: {why}");
    eprintln!(
        "usage: layerbench --workload <lis_mpc|service_read> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("`{flag}` needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed, --seconds and --trace are all required and must be valid",
        );
    };

    let threads = report::nproc();
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .expect("the global pool is configured once, before any work");
    let scale = Scale::full();
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        clients: threads.min(2),
        spans_out: trace.then(|| {
            std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
                .join(format!("spans-{}-seed{seed}.jsonl", workload.name()))
        }),
        scale: scale.clone(),
    };
    let header = report::header(
        workload.name(),
        scale.n_of(workload),
        DELTA,
        seed,
        seconds,
        trace,
    );
    eprintln!("{header}");
    println!("{header}");
    match layerbench::run(&cfg) {
        Ok(outcome) => {
            for why in &outcome.tally.reasons {
                eprintln!("failed operation: {why}");
            }
            println!("{}", outcome.metrics.quantiles_json());
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
