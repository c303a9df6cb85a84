//! The layer ladder and the per-layer metrics of the traced mode.
//!
//! After a traced workload, the same process times each layer's public
//! entry points on seeded inputs of fixed size (`Scale::ladder_n`), one span
//! per call, and checks every output. Each per-layer metric names the layer
//! module it measures; beside each, the end-to-end metric it should move:
//!
//! | metric | moves |
//! |---|---|
//! | `seaweed_lis.lis_kernel_s` (sequential oracle) | bounds the kernel share of `op_p50_ms` on lis_mpc |
//! | `lis_mpc.trace_record_s` (same merge tree, no simulator) | `lis_service.client_ingest_p50_ms` |
//! | `monge.steady_ant_mul_s` | `lis_service.client_{ingest,append}_p50_ms` |
//! | `seaweed_lis.lis_window_us` | `op_p50_ms` on service_read |
//! | `mpc_runtime.{rounds,comm,peak_load}.<phase>` (ledger of one solve) | `lis_mpc.{rounds,comm_items,peak_load}`, exact |
//! | `mpc_runtime.calls.<primitive>` | the lis_mpc ledger, exact |
//! | `mpc_runtime.<primitive>_ns_per_item` | `op_p50_ms` on lis_mpc; no move on service_read |
//! | `monge_mpc.mul_s`, `monge_mpc.sim_overhead_x` | `op_p50_ms` on lis_mpc |
//! | `lis_mpc.{solve_s,kernel_pipeline_s,witness_descent_s,sim_overhead_x}` | `op_p50_ms` on lis_mpc |
//! | `lis_mpc.{append_build_s,append_s}` | `lis_service.client_{ingest,append}_p50_ms` |
//! | `lis_mpc.recover_batch_{q1,q16}_s` | `lis_service.client_witness_p50_ms` and `bench.ops_per_s` on service_read |
//! | `lis_service.{handle,parse,render}_<op>_us`, `hash_us` | `op_p50_ms` on service_read |
//! | `lis_service.transport_<op>_us` (client p50 − in-process p50) | `op_p50_ms` on service_read |
//! | `lis_service.wait_window_ms_p99` (client p99 − uncontended handle) | `lis_service.client_window_p99_ms` on service_read |
//! | `lis_service.witness_batch_mean`, `cache_hit_ratio`, `evictions` | `bench.ops_per_s` on service_read |
//!
//! Client-side traffic metrics (`lis_service.client_*`, `transport_*`,
//! `wait_*`, cache counters, batch sizes) come from the workload's own
//! traced traffic when it sent that kind of request, and otherwise from the
//! ladder's short closed-loop service leg, so every traced run reports
//! every metric.

use crate::check::{self, Tally};
use crate::gen::{self, tag};
use crate::lis_run;
use crate::report::Metrics;
use crate::service_run::{self, append_line, ingest_line, query_line, Hot};
use crate::stats::{median_of, Samples};
use crate::trace::{self, Span, Tracer};
use crate::{Measured, RunConfig, Traffic, DELTA};
use lis_mpc::{lis_kernel_mpc, recover_batch, AppendableLisKernel, WitnessTrace};
use lis_service::{content_hash, Client, Request, Server, Service, Value};
use monge_mpc::MulParams;
use mpc_runtime::{Cluster, Ledger, MpcConfig};
use rand::prelude::*;
use seaweed_lis::baselines::lis_length_patience;
use seaweed_lis::lis::{lis_kernel, SemiLocalLis};

use std::collections::BTreeMap;

/// Ledger phases reported per phase, by trailing label. Witness scopes are
/// kept apart from merge scopes with a `witness.` prefix.
pub const PHASES: [&str; 12] = [
    "lis-rank",
    "lis-base",
    "relabel",
    "split",
    "local-solve",
    "lift",
    "combine",
    "combine-grid",
    "combine-route",
    "witness.split",
    "witness.reconstruct",
    "witness.concat",
];

/// Simulator primitives whose invocation counts are reported.
pub const PRIMITIVES: [&str; 11] = [
    "broadcast",
    "cogroup_map",
    "concat",
    "distribute",
    "filter",
    "flat_map",
    "group_map",
    "group_map_rebalanced",
    "multicast",
    "prefix_sum",
    "rank_search_multi",
];

/// Service operations probed in process.
const OPS: [&str; 4] = ["window", "witness", "ingest_hot", "append"];

/// Repetitions of each cheap ladder step; the metric is their median.
const REPS: usize = 3;

/// What the ladder hands back besides its spans.
pub struct LadderOut {
    /// Checks of every ladder output.
    pub tally: Tally,
    /// Traffic of the closed-loop service leg.
    pub leg: Traffic,
    /// Ledger of the ladder's `lis_witness_mpc` solve.
    pub ledger: Ledger,
    /// Items per primitive probe.
    pub primitive_items: BTreeMap<&'static str, f64>,
    /// Queries per `lis_window` batch.
    pub window_batch: usize,
}

/// The ledger label's phase key: the trailing label, prefixed `witness.`
/// under a witness-descent scope.
pub fn phase_key(label: &str) -> String {
    match label.rsplit_once('/') {
        Some((scope, phase)) if scope.contains("witness") => format!("witness.{phase}"),
        Some((_, phase)) => phase.to_string(),
        None => label.to_string(),
    }
}

/// Per-phase `(rounds, comm, peak load)` of a ledger, by [`phase_key`].
pub fn phase_totals(ledger: &Ledger) -> BTreeMap<String, (u64, u64, usize)> {
    let mut out: BTreeMap<String, (u64, u64, usize)> = BTreeMap::new();
    for (label, &r) in &ledger.rounds_by_phase {
        out.entry(phase_key(label)).or_default().0 += r;
    }
    for (label, &c) in &ledger.comm_by_phase {
        out.entry(phase_key(label)).or_default().1 += c;
    }
    for (label, &l) in &ledger.max_load_by_phase {
        let e = out.entry(phase_key(label)).or_default();
        e.2 = e.2.max(l);
    }
    out
}

fn verdict(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Runs the ladder under one root span.
pub fn run(cfg: &RunConfig, service_seq: &[u32], tracer: &Tracer) -> Result<LadderOut, String> {
    tracer.span("bench.ladder", 0, 0, |root| {
        ladder(cfg, service_seq, tracer, root)
    })
}

fn ladder(
    cfg: &RunConfig,
    service_seq: &[u32],
    tracer: &Tracer,
    root: u64,
) -> Result<LadderOut, String> {
    let scale = &cfg.scale;
    let n = scale.ladder_n;
    let seed = gen::mix(cfg.seed, tag::LADDER);
    let mut tally = Tally::default();
    let seq = gen::trend(n, gen::mix(seed, 0));
    let strict = || Cluster::new(MpcConfig::new(n, DELTA));
    let span = |name: &'static str| move |f: &mut dyn FnMut()| tracer.span(name, root, 0, |_| f());

    // Local kernels.
    let mut oracle = None;
    for _ in 0..REPS {
        span("seaweed_lis.lis_kernel")(&mut || oracle = Some(lis_kernel(&seq)));
    }
    let oracle = oracle.expect("at least one repetition");
    let expected = lis_length_patience(&seq);
    let block =
        lis_mpc::lis::pipeline_block_size(n, &MpcConfig::new(n, DELTA), &MulParams::default());
    let mut trace_rec = None;
    for _ in 0..REPS {
        span("lis_mpc.trace_record")(&mut || trace_rec = Some(WitnessTrace::record(&seq, block)));
    }
    let trace_rec = trace_rec.expect("at least one repetition");
    tally.record(verdict(trace_rec.kernel() == Some(&oracle), || {
        "WitnessTrace::record root differs from lis_kernel".into()
    }));

    let a = bench_suite::random_permutation(n, gen::mix(seed, 1));
    let b = bench_suite::random_permutation(n, gen::mix(seed, 2));
    let mut product = None;
    for _ in 0..REPS {
        span("monge.steady_ant_mul")(&mut || product = Some(monge::steady_ant::mul(&a, &b)));
    }
    let product = product.expect("at least one repetition");

    let queries = SemiLocalLis::from_kernel(&oracle);
    let windows = gen::windows(n, 20_000, gen::mix(seed, 3));
    let mut sum = 0usize;
    for _ in 0..REPS {
        span("seaweed_lis.lis_window")(&mut || {
            sum = windows.iter().map(|&(l, r)| queries.lis_window(l, r)).sum();
        });
    }
    std::hint::black_box(sum);

    // monge_mpc: one ⊡ on the simulator, against the steady-ant product.
    let mut cluster = strict();
    let mut mpc_product = None;
    span("monge_mpc.mul")(&mut || {
        mpc_product = Some(monge_mpc::mul(&mut cluster, &a, &b, &MulParams::default()))
    });
    tally.record(verdict(mpc_product.as_ref() == Some(&product), || {
        "monge_mpc::mul differs from steady_ant::mul".into()
    }));

    // lis_mpc pipeline stages.
    let mut cluster = strict();
    let mut outcome = None;
    span("lis_mpc.lis_kernel_mpc")(&mut || {
        outcome = Some(lis_kernel_mpc(&mut cluster, &seq, &MulParams::default()))
    });
    let outcome = outcome.expect("ran once");
    tally.record(verdict(
        outcome.length == expected && outcome.kernel == oracle,
        || "lis_kernel_mpc differs from the sequential oracle".into(),
    ));
    let (solved, solve_cluster) = lis_run::solve(&seq, tracer, root, 0);
    tally.record(lis_run::check_solve(&seq, &solved, solve_cluster.ledger()));
    let ledger = solve_cluster.ledger().clone();

    let ranks = trace_rec.ranks().to_vec();
    let descend =
        |name: &'static str, windows: &[(usize, usize)], lenient: bool, tally: &mut Tally| {
            for _ in 0..REPS {
                let mut cluster = if lenient {
                    Cluster::new(MpcConfig::lenient(n, DELTA))
                } else {
                    strict()
                };
                let scope = if lenient {
                    "service-witness"
                } else {
                    "lis-witness"
                };
                let got = tracer.span(name, root, 0, |_| {
                    recover_batch(&mut cluster, &trace_rec, windows, scope)
                });
                for (&(vlo, vhi), positions) in windows.iter().zip(&got) {
                    let want = check::range_lis(&ranks, vlo as u32, vhi as u32);
                    tally.record(check::witness(
                        &ranks, positions, vlo as u32, vhi as u32, want,
                    ));
                }
            }
        };
    descend("lis_mpc.recover_batch_full", &[(0, n)], false, &mut tally);
    descend("lis_mpc.recover_batch_q1", &[(n / 8, n)], true, &mut tally);
    let nested: Vec<(usize, usize)> = (0..16).map(|i| (i * n / 32, n)).collect();
    descend("lis_mpc.recover_batch_q16", &nested, true, &mut tally);

    let extra = gen::block(scale.append_block, n as u32, gen::mix(seed, 4));
    let mut full = seq.clone();
    full.extend_from_slice(&extra);
    let appended_oracle = lis_kernel(&full);
    for _ in 0..REPS {
        let mut cluster = Cluster::new(MpcConfig::lenient(full.len(), DELTA));
        let mut kernel = None;
        span("lis_mpc.append_build")(&mut || {
            kernel = Some(AppendableLisKernel::build(
                &mut cluster,
                &seq,
                scale.service_block,
            ))
        });
        let mut kernel = kernel.expect("built");
        span("lis_mpc.append")(&mut || {
            kernel.append(&mut cluster, &extra);
        });
        tally.record(verdict(
            kernel.kernel(&mut cluster) == &appended_oracle,
            || "appended kernel differs from lis_kernel".into(),
        ));
    }

    // mpc_runtime primitives on the lis_mpc cluster shape.
    let primitive_items = primitives(
        scale.primitive_items,
        gen::mix(seed, 5),
        n,
        tracer,
        root,
        &mut tally,
    );

    // lis_service, in process and uncontended, then over the socket.
    service_probes(cfg, service_seq, tracer, root, &mut tally)?;
    let leg = tracer.span("bench.leg", root, 0, |leg_root| {
        service_leg(cfg, service_seq, tracer, leg_root)
    })?;
    let (leg, leg_tally) = leg;
    tally.merge(leg_tally);

    Ok(LadderOut {
        tally,
        leg,
        ledger,
        primitive_items,
        window_batch: windows.len(),
    })
}

/// Times the four simulator primitives the ⊡ combine leans on, with item
/// counts of the combine's order, on a strict cluster of the ladder's shape.
fn primitives(
    items: usize,
    seed: u64,
    n: usize,
    tracer: &Tracer,
    root: u64,
    tally: &mut Tally,
) -> BTreeMap<&'static str, f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<u64> = (0..items).map(|_| rng.gen_range(0..u64::MAX)).collect();
    let groups = 256u32;
    let values: Vec<(u32, u64)> = keys
        .iter()
        .map(|&k| ((k % groups as u64) as u32, k >> 8))
        .collect();
    let packages: Vec<(u32, Vec<u64>)> = (0..items / 16)
        .map(|_| {
            let mut t: Vec<u64> = (0..4).map(|_| rng.gen_range(0..u64::MAX >> 8)).collect();
            t.sort_unstable();
            (rng.gen_range(0..groups), t)
        })
        .collect();
    let mut cluster = Cluster::new(MpcConfig::new(n, DELTA));
    for _ in 0..REPS {
        let dv = cluster.distribute(keys.clone());
        let sorted = tracer.span("mpc_runtime.sort_by_key", root, 0, |_| {
            cluster.sort_by_key(dv, |&k| k)
        });
        let sorted = cluster.collect(sorted);
        tally.record(verdict(
            sorted.len() == items && sorted.windows(2).all(|w| w[0] <= w[1]),
            || "sort_by_key output is not sorted".into(),
        ));

        let dv = cluster.distribute(values.clone());
        let queries = cluster.distribute(packages.clone());
        let answered = tracer.span("mpc_runtime.rank_search_multi", root, 0, |_| {
            cluster.rank_search_multi(&dv, |&(g, v)| (g, v), queries, |(g, t)| (*g, t.clone()))
        });
        let answered = cluster.collect(answered);
        let spot = answered.iter().take(8).all(|((g, t), counts)| {
            t.iter().zip(counts).all(|(&th, &c)| {
                values.iter().filter(|&&(vg, v)| vg == *g && v < th).count() as u64 == c
            })
        });
        tally.record(verdict(answered.len() == packages.len() && spot, || {
            "rank_search_multi miscounted".into()
        }));

        let dv = cluster.distribute(keys.clone());
        let grouped = tracer.span("mpc_runtime.group_map", root, 0, |_| {
            cluster.group_map(
                dv,
                |&k| k % 128,
                |_, mut v: Vec<u64>| {
                    v.sort_unstable();
                    v
                },
            )
        });
        tally.record(verdict(grouped.len() == items, || {
            "group_map lost items".into()
        }));

        let dv = cluster.distribute(keys[..items / 4].to_vec());
        let emitted = tracer.span("mpc_runtime.flat_map_rebalanced", root, 0, |_| {
            cluster.flat_map_rebalanced(&dv, |&k| vec![k, k ^ 1, k ^ 2, k ^ 3])
        });
        tally.record(verdict(emitted.len() == items / 4 * 4, || {
            "flat_map_rebalanced lost items".into()
        }));
    }
    tally.record(verdict(cluster.ledger().space_violations == 0, || {
        "primitive probes overflowed".into()
    }));
    BTreeMap::from([
        ("sort_by_key", items as f64),
        ("rank_search_multi", (items + packages.len() * 4) as f64),
        ("group_map", items as f64),
        ("flat_map_rebalanced", (items / 4 * 4) as f64),
    ])
}

/// In-process, uncontended `Service::handle_line` on the workload's own
/// request lines, with `Request::parse`, response rendering and
/// `content_hash` timed on their own.
fn service_probes(
    cfg: &RunConfig,
    seq: &[u32],
    tracer: &Tracer,
    root: u64,
    tally: &mut Tally,
) -> Result<(), String> {
    let scale = &cfg.scale;
    let mut hot = Hot::from_seq(scale, seq.to_vec(), cfg.seed, 0);
    let service = Service::new(scale.service_config());
    let ingest = ingest_line(seq);
    let response = service.handle_line(&ingest);
    check::ok(&response)?;
    hot.id = check::str_field(&response, "id")?;

    let probe = |op: &'static str, line: &str| -> Value {
        let (parse, handle, render) = names(op);
        tracer.span(parse, root, 0, |_| {
            std::hint::black_box(Request::parse(line)).is_ok()
        });
        let response = tracer.span(handle, root, 0, |_| service.handle_line(line));
        tracer.span(render, root, 0, |_| {
            std::hint::black_box(response.to_string()).len()
        });
        response
    };
    for &((l, r), want) in hot.windows.iter().take(200) {
        let line = query_line(&hot.id, &gen::Query::Window { l, r });
        let got = check::window_answer(&probe("window", &line));
        tally
            .record(got.and_then(|got| verdict(got == want, || format!("window {got} != {want}"))));
    }
    for &((lo, hi), want) in hot.witnesses.iter().take(20) {
        let line = query_line(&hot.id, &gen::Query::Witness { lo, hi });
        let got = check::witness_answer(&probe("witness", &line));
        tally.record(got.and_then(|(p, _)| check::witness(seq, &p, lo, hi, want)));
    }
    for _ in 0..5 {
        let response = probe("ingest_hot", &ingest);
        tally.record(check::int_field(&response, "lis").and_then(|l| {
            verdict(l as usize == hot.lis, || {
                format!("hot ingest LIS {l} != {}", hot.lis)
            })
        }));
    }
    let mut id = hot.id;
    let mut grown = seq.to_vec();
    for j in 0..5u64 {
        let block = gen::block(
            scale.append_block,
            (seq.len() as u32 / 2).max(2),
            gen::mix(cfg.seed, tag::APPEND + j),
        );
        grown.extend_from_slice(&block);
        let response = probe("append", &append_line(&id, &block));
        let want = lis_length_patience(&grown);
        tally.record(check::ok(&response).and_then(|_| {
            let got = check::int_field(&response, "lis")? as usize;
            id = check::str_field(&response, "id")?;
            verdict(got == want, || format!("append LIS {got} != {want}"))
        }));
    }
    let mut h = 0;
    for _ in 0..20 {
        h ^= tracer.span("lis_service.content_hash", root, 0, |_| content_hash(seq));
    }
    std::hint::black_box(h);
    Ok(())
}

/// Span names of an in-process probe: parse, handle, render.
fn names(op: &str) -> (&'static str, &'static str, &'static str) {
    match op {
        "window" => (
            "lis_service.parse.window",
            "lis_service.handle_line.window",
            "lis_service.render.window",
        ),
        "witness" => (
            "lis_service.parse.witness",
            "lis_service.handle_line.witness",
            "lis_service.render.witness",
        ),
        "ingest_hot" => (
            "lis_service.parse.ingest_hot",
            "lis_service.handle_line.ingest_hot",
            "lis_service.render.ingest_hot",
        ),
        _ => (
            "lis_service.parse.append",
            "lis_service.handle_line.append",
            "lis_service.render.append",
        ),
    }
}

/// A short closed loop over the socket on the probe sequence (the 9:1 mix,
/// every client), plus three cold ingests with one append each.
fn service_leg(
    cfg: &RunConfig,
    seq: &[u32],
    tracer: &Tracer,
    root: u64,
) -> Result<(Traffic, Tally), String> {
    let scale = &cfg.scale;
    let mut tally = Tally::default();
    let server =
        Server::start(scale.service_config()).map_err(|e| format!("bind loopback: {e}"))?;
    let result = (|| {
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        let mut hot = Hot::from_seq(scale, seq.to_vec(), cfg.seed, 0);
        let response = client.request(&ingest_line(seq))?;
        check::ok(&response)?;
        hot.id = check::str_field(&response, "id")?;
        let hots = [hot];
        let m: Measured = service_run::closed_loop(
            server.addr(),
            &hots,
            cfg.clients,
            scale.leg.as_secs_f64(),
            gen::mix(cfg.seed, tag::LADDER + 6),
            tracer,
        );
        let mut traffic = m.traffic;
        tally.merge(m.tally);
        for k in 0..3u64 {
            let fresh =
                gen::service_sequence(scale.ladder_n, gen::mix(cfg.seed, tag::LADDER + 16 + k));
            let started = std::time::Instant::now();
            let response = tracer.span("lis_service.client.ingest", root, k + 1, |_| {
                client.request(&ingest_line(&fresh))
            });
            traffic
                .ingest_ms
                .push(started.elapsed().as_secs_f64() * 1e3);
            let response = response?;
            let want = lis_length_patience(&fresh);
            tally.record(check::int_field(&response, "lis").and_then(|l| {
                verdict(l as usize == want, || {
                    format!("leg ingest LIS {l} != {want}")
                })
            }));
            let id = check::str_field(&response, "id")?;
            let block = gen::block(
                scale.append_block,
                (scale.ladder_n as u32 / 2).max(2),
                gen::mix(cfg.seed, tag::LADDER + 32 + k),
            );
            let mut grown = fresh.clone();
            grown.extend_from_slice(&block);
            let started = std::time::Instant::now();
            let response = tracer.span("lis_service.client.append", root, k + 1, |_| {
                client.request(&append_line(&id, &block))
            });
            traffic
                .append_ms
                .push(started.elapsed().as_secs_f64() * 1e3);
            let response = response?;
            let want = lis_length_patience(&grown);
            tally.record(check::int_field(&response, "lis").and_then(|l| {
                verdict(l as usize == want, || {
                    format!("leg append LIS {l} != {want}")
                })
            }));
        }
        service_run::read_stats(&mut client, &mut traffic, &mut tally);
        Ok(traffic)
    })();
    server.shutdown();
    server.join();
    result.map(|t| (t, tally))
}

/// Median duration of the spans named `name`, in seconds.
fn median_s(spans: &[Span], name: &str) -> Result<f64, String> {
    let d = trace::durations_s(spans, name);
    if d.is_empty() {
        return Err(format!("no `{name}` span was recorded"));
    }
    Ok(median_of(&d))
}

/// Metrics read off the workload's own untraced and traced halves.
pub fn workload_metrics(
    metrics: &mut Metrics,
    untraced: &mut Measured,
    traced: &Measured,
    spans: &[Span],
) -> Result<(), String> {
    if untraced.op_ms.is_empty() || traced.op_ms.is_empty() {
        return Err("a traced-mode half completed no headline operation".into());
    }
    let plain = untraced.op_ms.percentile(50.0);
    let mut traced_ops = traced.op_ms.clone();
    let with = traced_ops.percentile(50.0);
    metrics.set_quantile("bench.untraced_op_p50_ms", plain, "ms");
    metrics.set_quantile("bench.traced_op_p50_ms", with, "ms");
    let (plain, with) = (plain.value, with.value);
    metrics.set(
        "bench.trace_overhead_pct",
        (with - plain) / plain * 100.0,
        "%",
    );
    // Share of each request's wall time the harness spends on itself
    // (checking, bookkeeping): the self time of `bench.*` spans.
    let selfs = trace::self_time_by_name(spans);
    let harness: f64 = selfs
        .iter()
        .filter(|(k, _)| k.starts_with("bench."))
        .map(|(_, v)| v)
        .sum();
    let total: f64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum();
    metrics.set(
        "bench.harness_pct",
        if total > 0.0 {
            harness / total * 100.0
        } else {
            0.0
        },
        "%",
    );
    metrics.set(
        "bench.ops_per_s",
        traced.completed as f64 / traced.elapsed_s,
        "1/s",
    );
    metrics.set(
        "bench.cpu_ms_per_op",
        traced.cpu_s * 1e3 / traced.completed as f64,
        "ms",
    );
    metrics.set("bench.peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    Ok(())
}

/// Prefers the workload's own samples, else the leg's.
fn pick(own: &Samples, leg: &Samples) -> Samples {
    if own.is_empty() {
        leg.clone()
    } else {
        own.clone()
    }
}

/// Metrics of the ladder, combined with the workload's own traffic.
pub fn ladder_metrics(
    metrics: &mut Metrics,
    out: &LadderOut,
    own: &Traffic,
    spans: &[Span],
) -> Result<(), String> {
    let s = |name: &str| median_s(spans, name);

    let kernel_s = s("seaweed_lis.lis_kernel")?;
    let record_s = s("lis_mpc.trace_record")?;
    let ant_s = s("monge.steady_ant_mul")?;
    metrics.set("seaweed_lis.lis_kernel_s", kernel_s, "s");
    metrics.set("lis_mpc.trace_record_s", record_s, "s");
    metrics.set("monge.steady_ant_mul_s", ant_s, "s");
    metrics.set(
        "seaweed_lis.lis_window_us",
        s("seaweed_lis.lis_window")? * 1e6 / out.window_batch as f64,
        "us",
    );

    let phases = phase_totals(&out.ledger);
    for phase in PHASES {
        let (r, c, l) = phases.get(phase).copied().unwrap_or_default();
        metrics.set(format!("mpc_runtime.rounds.{phase}"), r as f64, "rounds");
        metrics.set(format!("mpc_runtime.comm.{phase}"), c as f64, "items");
        metrics.set(format!("mpc_runtime.peak_load.{phase}"), l as f64, "items");
    }
    for prim in PRIMITIVES {
        let calls = out.ledger.primitive_counts.get(prim).copied().unwrap_or(0);
        metrics.set(format!("mpc_runtime.calls.{prim}"), calls as f64, "calls");
    }
    for (prim, &items) in &out.primitive_items {
        let ns = s(&format!("mpc_runtime.{prim}"))? * 1e9 / items;
        metrics.set(format!("mpc_runtime.{prim}_ns_per_item"), ns, "ns");
    }

    let mul_s = s("monge_mpc.mul")?;
    metrics.set("monge_mpc.mul_s", mul_s, "s");
    metrics.set("monge_mpc.sim_overhead_x", mul_s / ant_s, "x");

    let pipeline_s = s("lis_mpc.lis_kernel_mpc")?;
    metrics.set("lis_mpc.solve_s", s("lis_mpc.lis_witness_mpc")?, "s");
    metrics.set("lis_mpc.rounds", out.ledger.rounds as f64, "rounds");
    metrics.set(
        "lis_mpc.comm_items",
        out.ledger.communication as f64,
        "items",
    );
    metrics.set(
        "lis_mpc.peak_load",
        out.ledger.max_machine_load as f64,
        "items",
    );
    metrics.set("lis_mpc.kernel_pipeline_s", pipeline_s, "s");
    metrics.set(
        "lis_mpc.witness_descent_s",
        s("lis_mpc.recover_batch_full")?,
        "s",
    );
    metrics.set("lis_mpc.sim_overhead_x", pipeline_s / record_s, "x");
    metrics.set("lis_mpc.append_build_s", s("lis_mpc.append_build")?, "s");
    metrics.set("lis_mpc.append_s", s("lis_mpc.append")?, "s");
    metrics.set(
        "lis_mpc.recover_batch_q1_s",
        s("lis_mpc.recover_batch_q1")?,
        "s",
    );
    metrics.set(
        "lis_mpc.recover_batch_q16_s",
        s("lis_mpc.recover_batch_q16")?,
        "s",
    );

    let mut handle_us = BTreeMap::new();
    for op in OPS {
        let (parse, handle, render) = names(op);
        let h = s(handle)? * 1e6;
        handle_us.insert(op, h);
        metrics.set(format!("lis_service.handle_{op}_us"), h, "us");
        metrics.set(format!("lis_service.parse_{op}_us"), s(parse)? * 1e6, "us");
        metrics.set(
            format!("lis_service.render_{op}_us"),
            s(render)? * 1e6,
            "us",
        );
    }
    metrics.set(
        "lis_service.hash_us",
        s("lis_service.content_hash")? * 1e6,
        "us",
    );

    let leg = &out.leg;
    let mut window = pick(&own.window_ms, &leg.window_ms);
    let mut witness = pick(&own.witness_ms, &leg.witness_ms);
    let mut ingest = pick(&own.ingest_ms, &leg.ingest_ms);
    let mut append = pick(&own.append_ms, &leg.append_ms);
    let batches = pick(&own.witness_batch, &leg.witness_batch);
    let window_p50 = window.percentile(50.0);
    let window_p99 = window.tail(99.0, "window latency")?;
    let witness_p50 = witness.percentile(50.0);
    let witness_p90 = witness.tail(90.0, "witness latency")?;
    metrics.set_quantile("lis_service.client_window_p50_ms", window_p50, "ms");
    metrics.set_quantile("lis_service.client_window_p99_ms", window_p99, "ms");
    metrics.set_quantile("lis_service.client_witness_p50_ms", witness_p50, "ms");
    metrics.set_quantile("lis_service.client_witness_p90_ms", witness_p90, "ms");
    metrics.set_quantile(
        "lis_service.client_ingest_p50_ms",
        ingest.percentile(50.0),
        "ms",
    );
    metrics.set_quantile(
        "lis_service.client_append_p50_ms",
        append.percentile(50.0),
        "ms",
    );
    let (window_p50, window_p99, witness_p50) =
        (window_p50.value, window_p99.value, witness_p50.value);
    metrics.set(
        "lis_service.transport_window_us",
        window_p50 * 1e3 - handle_us["window"],
        "us",
    );
    metrics.set(
        "lis_service.transport_witness_us",
        witness_p50 * 1e3 - handle_us["witness"],
        "us",
    );
    metrics.set(
        "lis_service.wait_window_ms_p99",
        window_p99 - handle_us["window"] / 1e3,
        "ms",
    );
    metrics.set("lis_service.witness_batch_mean", batches.mean(), "queries");
    let counters = if own.hits + own.misses > 0 { own } else { leg };
    let lookups = (counters.hits + counters.misses).max(1) as f64;
    metrics.set(
        "lis_service.cache_hit_ratio",
        counters.hits as f64 / lookups,
        "ratio",
    );
    metrics.set("lis_service.evictions", counters.evictions as f64, "count");
    Ok(())
}
