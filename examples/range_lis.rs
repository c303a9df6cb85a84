//! Semi-local LIS (Corollary 1.3.2): preprocess a series once, then answer
//! longest-increasing-subsequence queries for arbitrary windows in `O(log² n)` each.
//!
//! The motivating workload: sliding-window trend analysis over a long measurement
//! series, where "how long is the longest increasing run of samples inside this
//! window" is asked for thousands of different windows.
//!
//! Run with: `cargo run --release --example range_lis`

use monge_mpc_suite::lis_mpc::lis::pipeline_block_size;
use monge_mpc_suite::lis_mpc::{recover_batch, WitnessTrace};
use monge_mpc_suite::monge_mpc::MulParams;
use monge_mpc_suite::mpc_runtime::{Cluster, MpcConfig};
use monge_mpc_suite::seaweed_lis::baselines::lis_length_patience;
use monge_mpc_suite::seaweed_lis::lis::SemiLocalLis;
use rand::prelude::*;
use std::time::Instant;

fn main() {
    let n = 100_000;
    let queries = 2_000;
    let mut rng = StdRng::seed_from_u64(7);

    // A series with three regimes: rising, falling, and noisy-rising.
    let series: Vec<u32> = (0..n)
        .map(|i| {
            let base = match i * 3 / n {
                0 => i as f64,
                1 => (2 * n / 3 - i) as f64 * 1.5,
                _ => i as f64 * 0.8,
            };
            (base + rng.gen_range(0.0..2_000.0)) as u32
        })
        .collect();

    // One-time preprocessing: builds the seaweed kernel through O(n log² n) implicit
    // unit-Monge multiplications.
    let start = Instant::now();
    let index = SemiLocalLis::new(&series);
    let build = start.elapsed();
    println!("built semi-local LIS index for n = {n} in {build:?}");

    // Random windows, answered from the kernel.
    let windows: Vec<(usize, usize)> = (0..queries)
        .map(|_| {
            let l = rng.gen_range(0..n);
            let r = rng.gen_range(l..=n);
            (l, r)
        })
        .collect();

    let start = Instant::now();
    let answers: Vec<usize> = windows
        .iter()
        .map(|&(l, r)| index.lis_window(l, r))
        .collect();
    let query_time = start.elapsed();
    println!(
        "answered {queries} window queries in {query_time:?} ({:.1} µs/query)",
        query_time.as_micros() as f64 / queries as f64
    );

    // Spot-check a few answers against recomputation from scratch.
    let start = Instant::now();
    for (i, &(l, r)) in windows.iter().take(20).enumerate() {
        assert_eq!(
            answers[i],
            lis_length_patience(&series[l..r]),
            "window [{l}, {r})"
        );
    }
    println!(
        "verified 20 random windows against patience sorting in {:?}",
        start.elapsed()
    );

    // A few interpretable windows.
    println!();
    for (label, l, r) in [
        ("rising regime   ", 0, n / 3),
        ("falling regime  ", n / 3, 2 * n / 3),
        ("noisy regime    ", 2 * n / 3, n),
        ("whole series    ", 0, n),
    ] {
        println!(
            "LIS over {label} [{l:>6}, {r:>6}) = {}",
            index.lis_window(l, r)
        );
    }

    // Not just the length: record the merge tree the MPC pipeline builds at
    // this size, then recover one actual longest increasing run by the
    // top-down traceback on a simulated cluster.
    let start = Instant::now();
    let config = MpcConfig::lenient(n, 0.5);
    let block_size = pipeline_block_size(n, &config, &MulParams::default());
    let trace = WitnessTrace::record(&series, block_size);
    let mut cluster = Cluster::new(config);
    let witness = recover_batch(&mut cluster, &trace, &[(0, n)], "range-lis")
        .pop()
        .expect("one window in, one witness out");
    println!(
        "\nrecovered an actual LIS witness ({} samples) in {:?}:",
        witness.len(),
        start.elapsed()
    );
    assert_eq!(witness.len(), index.lis_window(0, n));
    assert!(witness.windows(2).all(|w| series[w[0]] < series[w[1]]));
    let shown: Vec<String> = witness
        .iter()
        .take(4)
        .map(|&p| format!("series[{p}]={}", series[p]))
        .collect();
    let tail: Vec<String> = witness
        .iter()
        .rev()
        .take(2)
        .rev()
        .map(|&p| format!("series[{p}]={}", series[p]))
        .collect();
    println!("  {} … {}", shown.join(" < "), tail.join(" < "));
}
