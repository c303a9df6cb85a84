//! Experiment E8 — the serving path: hot-kernel cache, batched witness
//! descents, and incremental append, measured end-to-end over the line-JSON
//! socket.
//!
//! Three claims, each asserted in-binary at the full problem size:
//!
//! * **cached ≥ 10× uncached** — re-ingesting a known sequence dedupes to a
//!   hash lookup on the hot kernel instead of a rebuild.
//! * **batched ≥ 2× one-at-a-time** — a multi-range witness request rides one
//!   traceback descent ([`lis_mpc::recover_batch`]); the same ranges issued
//!   serially pay one descent each. Answers are asserted identical.
//! * **append recombs only the spine** — extending the sequence by a block
//!   touches the O(log n) merge-tree spine: the cluster ledger's
//!   `service-append` communication equals exactly the items the spine
//!   recombed, and the resulting kernel is bit-identical to a full rebuild.
//!
//! Run with: `cargo run --release -p bench -- exp_service
//! [--json --threads N --max-n N]` (default n = 2^16; the speedup
//! assertions arm at n ≥ 2^16, so smoke runs at smaller `--max-n` only check
//! correctness).

use crate::{bench_ns, random_sequence, ExpOpts, Report, Table};
use lis_mpc::AppendableLisKernel;
use lis_service::{Client, Server, ServiceConfig, Value};
use mpc_runtime::{Cluster, MpcConfig};
use seaweed_lis::lis::lis_kernel;
use std::time::{Duration, Instant};

/// Value ranges per batched witness request.
const RANGES: usize = 16;

/// Comb granularity of served kernels.
const BLOCK: usize = 1024;

/// Elements appended in the incremental-append measurement.
const APPEND_BLOCK: usize = 4096;

fn ingest_line(seq: &[u32]) -> String {
    let rendered: Vec<String> = seq.iter().map(|v| v.to_string()).collect();
    format!(r#"{{"op":"ingest","seq":[{}]}}"#, rendered.join(","))
}

fn expect_ok(response: &Value, what: &str) {
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "{what} failed: {response}"
    );
}

/// Nested value ranges `[i·step, span)` — every query has a distinct, large
/// answer, so the batch exercises real per-query traffic.
fn value_ranges(span: u32) -> Vec<(u32, u32)> {
    (0..RANGES as u32)
        .map(|i| (i * (span / (2 * RANGES as u32)), span))
        .collect()
}

fn witness_positions(response: &Value) -> Vec<Vec<i64>> {
    response
        .get("witnesses")
        .and_then(Value::as_arr)
        .expect("witnesses")
        .iter()
        .map(|w| {
            w.get("positions")
                .and_then(Value::as_arr)
                .expect("positions")
                .iter()
                .map(|p| p.as_int().expect("position"))
                .collect()
        })
        .collect()
}

pub(crate) fn run(opts: &ExpOpts) -> Report {
    let n = opts.max_n.unwrap_or(1 << 16);
    let full_size = n >= (1 << 16);
    let span = (n as u32) / 2;
    let seq = random_sequence(n, span, 0xE8);

    let server = Server::start(ServiceConfig {
        block_size: BLOCK.min(n.max(8) / 4),
        batch_window: Duration::from_millis(1),
        ..ServiceConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");

    // ------------------------------------------------------ cached vs uncached
    let line = ingest_line(&seq);
    let start = Instant::now();
    let built = client.request(&line).expect("ingest");
    let uncached_ns = start.elapsed().as_nanos() as u64;
    expect_ok(&built, "ingest");
    assert_eq!(built.get("cached").and_then(Value::as_bool), Some(false));
    let id = built
        .get("id")
        .and_then(Value::as_str)
        .expect("kernel id")
        .to_string();
    let lis = built.get("lis").and_then(Value::as_int).expect("lis") as usize;

    let cached_ns = bench_ns(5, 20, || {
        let response = client.request(&line).expect("re-ingest");
        assert_eq!(response.get("cached").and_then(Value::as_bool), Some(true));
        response
    });
    let cache_speedup = uncached_ns as f64 / cached_ns as f64;

    // ---------------------------------------------------- batched vs serial
    let ranges = value_ranges(span);
    let serial_lines: Vec<String> = ranges
        .iter()
        .map(|(lo, hi)| format!(r#"{{"op":"witness","id":"{id}","lo":{lo},"hi":{hi}}}"#))
        .collect();
    let rendered: Vec<String> = ranges
        .iter()
        .map(|(lo, hi)| format!("[{lo},{hi}]"))
        .collect();
    let batched_line = format!(
        r#"{{"op":"witness","id":"{id}","ranges":[{}]}}"#,
        rendered.join(",")
    );

    // Warm the trace so neither arm pays the one-time recording cost.
    expect_ok(
        &client.request(&serial_lines[0]).expect("warm"),
        "warm witness",
    );

    let start = Instant::now();
    let serial_answers: Vec<Vec<Vec<i64>>> = serial_lines
        .iter()
        .map(|line| {
            let response = client.request(line).expect("serial witness");
            expect_ok(&response, "serial witness");
            witness_positions(&response)
        })
        .collect();
    let serial_ns = start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let batched = client.request(&batched_line).expect("batched witness");
    let batched_ns = start.elapsed().as_nanos() as u64;
    expect_ok(&batched, "batched witness");
    assert_eq!(
        batched.get("batch").and_then(Value::as_int),
        Some(RANGES as i64),
        "the whole request must ride one descent"
    );
    let batched_answers = witness_positions(&batched);
    let flat_serial: Vec<Vec<i64>> = serial_answers.into_iter().flatten().collect();
    assert_eq!(
        batched_answers, flat_serial,
        "batched and one-at-a-time witnesses must agree"
    );
    let batch_speedup = serial_ns as f64 / batched_ns as f64;

    // ------------------------------------------------------------- append
    // Ledger proof, measured directly on the append engine: the spine recomb
    // is everything the append charges, and the folded kernel is bit-identical
    // to a from-scratch build of the full sequence.
    let block = random_sequence(APPEND_BLOCK.min(n), span, 0xE9);
    let mut full = seq.clone();
    full.extend_from_slice(&block);

    let mut cluster = Cluster::new(MpcConfig::lenient(full.len(), 0.5));
    let mut incremental = AppendableLisKernel::build(&mut cluster, &seq, BLOCK.min(n.max(8) / 4));
    incremental.kernel(&mut cluster); // settle the root before measuring
    let comm_before = cluster.ledger().scope_comm("service-append");
    let start = Instant::now();
    let stats = incremental.append(&mut cluster, &block);
    let append_ns = start.elapsed().as_nanos() as u64;
    let comm_delta = cluster.ledger().scope_comm("service-append") - comm_before;
    assert_eq!(
        comm_delta, stats.recombed_items as u64,
        "the ledger must charge exactly the recombed spine"
    );
    let spine_bound = full.len().next_power_of_two().trailing_zeros() as usize + 1;
    assert!(
        stats.spine_len <= spine_bound,
        "spine has {} blocks, bound is {spine_bound}",
        stats.spine_len
    );
    assert!(
        stats.recombed_items < full.len() + 3 * spine_bound * BLOCK.max(APPEND_BLOCK),
        "append recombed {} items — that is a rebuild, not a spine walk",
        stats.recombed_items
    );
    assert_eq!(
        incremental.kernel(&mut cluster),
        &lis_kernel(&full),
        "incremental append must be bit-identical to a full rebuild"
    );

    let start = Instant::now();
    let mut rebuilt_cluster = Cluster::new(MpcConfig::lenient(full.len(), 0.5));
    let rebuilt = AppendableLisKernel::build(&mut rebuilt_cluster, &full, BLOCK.min(n.max(8) / 4));
    let rebuild_ns = start.elapsed().as_nanos() as u64;
    let rebuild_comm = rebuilt_cluster.ledger().scope_comm("service-append");
    assert!(
        comm_delta < rebuild_comm,
        "spine recomb ({comm_delta}) must move less data than a rebuild ({rebuild_comm})"
    );
    drop(rebuilt);

    // The same append over the wire: the id re-keys to the full-sequence
    // hash, so ingesting `full` afterwards is a cache hit.
    let rendered: Vec<String> = block.iter().map(|v| v.to_string()).collect();
    let response = client
        .request(&format!(
            r#"{{"op":"append","id":"{id}","block":[{}]}}"#,
            rendered.join(",")
        ))
        .expect("append");
    expect_ok(&response, "append");
    let appended_id = response
        .get("id")
        .and_then(Value::as_str)
        .expect("new id")
        .to_string();
    let dedupe = client.request(&ingest_line(&full)).expect("full ingest");
    expect_ok(&dedupe, "full ingest");
    assert_eq!(
        dedupe.get("id").and_then(Value::as_str),
        Some(appended_id.as_str()),
        "append must re-key to the full-sequence content hash"
    );
    assert_eq!(dedupe.get("cached").and_then(Value::as_bool), Some(true));

    // ------------------------------------------------------------ wrap up
    let stats_response = client.request(r#"{"op":"stats"}"#).expect("stats");
    expect_ok(&stats_response, "stats");
    assert_eq!(
        stats_response.get("violations").and_then(Value::as_int),
        Some(0),
        "serving must not record space violations"
    );

    if full_size {
        assert!(
            cache_speedup >= 10.0,
            "cached ingest must be ≥ 10× uncached at n = 2^16 (got {cache_speedup:.1}×)"
        );
        assert!(
            batch_speedup >= 2.0,
            "batched witnesses must be ≥ 2× one-at-a-time at n = 2^16 (got {batch_speedup:.1}×)"
        );
    }

    let mut serving = Table::new(vec![
        "n",
        "LIS",
        "uncached ms",
        "cached us",
        "cache speedup",
        "queries",
        "serial ms",
        "batched ms",
        "batch speedup",
    ]);
    serving.row(vec![
        n.to_string(),
        lis.to_string(),
        format!("{:.1}", uncached_ns as f64 / 1e6),
        format!("{:.1}", cached_ns as f64 / 1e3),
        format!("{cache_speedup:.1}"),
        RANGES.to_string(),
        format!("{:.1}", serial_ns as f64 / 1e6),
        format!("{:.1}", batched_ns as f64 / 1e6),
        format!("{batch_speedup:.1}"),
    ]);

    let mut append = Table::new(vec![
        "n",
        "block",
        "spine len",
        "spine merges",
        "recombed items",
        "ledger comm",
        "rebuild comm",
        "append ms",
        "rebuild ms",
        "speedup",
        "identical",
    ]);
    append.row(vec![
        seq.len().to_string(),
        block.len().to_string(),
        stats.spine_len.to_string(),
        stats.spine_merges.to_string(),
        stats.recombed_items.to_string(),
        comm_delta.to_string(),
        rebuild_comm.to_string(),
        format!("{:.1}", append_ns as f64 / 1e6),
        format!("{:.1}", rebuild_ns as f64 / 1e6),
        format!("{:.1}", rebuild_ns as f64 / append_ns as f64),
        "true".to_string(),
    ]);

    client.request(r#"{"op":"shutdown"}"#).expect("shutdown");
    server.join();

    Report::new("E8: the serving path over the line-JSON socket")
        .table("rows", format!("serving (n = {n}):"), serving)
        .table("append", "incremental append:", append)
}
