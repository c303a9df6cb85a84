//! `layerbench`: the repository benchmark.
//!
//! Two workloads, one process each, every timed operation checked against
//! an oracle:
//!
//! * `lis_mpc` — Theorem 1.3 end to end: `lis_witness_mpc` on a strict
//!   cluster, a fresh seeded input per solve. The simulated ⊡ machinery does
//!   most of the work; the service is bypassed.
//! * `service_read` — hot reads over the socket: two pre-ingested sequences,
//!   a closed loop of 9 `window` to 1 single-range `witness` requests.
//!
//! Every workload reports the same end-to-end metrics, each read off the
//! workload's *headline operation* (a solve, a hot `window` request): its
//! median wall-clock latency `op_p50_ms`, and the median set-up time
//! `setup_s`. Requests held up behind a witness descent under the service's
//! cache lock show in the traced window p99, not in the median. The traced
//! mode (`--trace 1`) instead reports the per-layer metrics: it runs the
//! workload half untraced and half traced (the difference is the tracing
//! overhead), then a layer ladder that times each layer's public entry points
//! on seeded inputs of fixed size. See [`ladder`] for the per-layer names and
//! what each should move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod gen;
pub mod ladder;
pub mod lis_run;
pub mod report;
pub mod service_run;
pub mod stats;
pub mod trace;

use check::Tally;
use report::{Metrics, Outcome};
use stats::Samples;
use std::time::Duration;
use trace::Tracer;

/// Space exponent δ of every cluster the benchmark builds.
pub const DELTA: f64 = 0.5;

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Simulated Theorem 1.3 solves.
    LisMpc,
    /// Hot reads against the service.
    ServiceRead,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::LisMpc, Workload::ServiceRead];

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LisMpc => "lis_mpc",
            Workload::ServiceRead => "service_read",
        }
    }
}

/// Problem sizes and load shape. [`Scale::full`] is what the command line
/// runs; [`Scale::smoke`] shrinks everything for tests.
#[derive(Clone, Debug)]
pub struct Scale {
    /// lis_mpc input length.
    pub lis_n: usize,
    /// Length of the warm-up solve that stands in for set-up on lis_mpc.
    pub warm_n: usize,
    /// Length of each service_read hot sequence.
    pub read_n: usize,
    /// Number of service_read hot sequences.
    pub read_sequences: usize,
    /// Elements per append block in the ladder.
    pub append_block: usize,
    /// Windows per sequence in the request pool.
    pub window_pool: usize,
    /// Witness ranges per sequence in the request pool.
    pub witness_pool: usize,
    /// Set-ups per run of a service workload; `setup_s` is their median.
    pub setup_reps: usize,
    /// Warm-up solves per lis_mpc run; `setup_s` is their median.
    pub warm_reps: usize,
    /// Input length of the layer ladder.
    pub ladder_n: usize,
    /// Items per simulator-primitive probe in the ladder.
    pub primitive_items: usize,
    /// Duration of the ladder's closed-loop service leg.
    pub leg: Duration,
    /// Comb granularity of served kernels.
    pub service_block: usize,
}

impl Scale {
    /// The benchmark as defined in `BENCHMARK.json`.
    pub fn full() -> Self {
        Self {
            lis_n: 1 << 14,
            warm_n: 1 << 10,
            read_n: 1 << 16,
            read_sequences: 2,
            append_block: 1024,
            window_pool: 2048,
            witness_pool: 256,
            setup_reps: 5,
            warm_reps: 9,
            ladder_n: 1 << 14,
            primitive_items: 1 << 16,
            leg: Duration::from_millis(1500),
            service_block: 1024,
        }
    }

    /// Everything at n = 2¹⁰, for tests.
    pub fn smoke() -> Self {
        Self {
            lis_n: 1 << 10,
            warm_n: 1 << 8,
            read_n: 1 << 10,
            read_sequences: 2,
            append_block: 64,
            window_pool: 64,
            witness_pool: 16,
            setup_reps: 2,
            warm_reps: 2,
            ladder_n: 1 << 10,
            primitive_items: 1 << 12,
            leg: Duration::from_millis(600),
            service_block: 64,
        }
    }

    /// The input length a workload's header reports.
    pub fn n_of(&self, workload: Workload) -> usize {
        match workload {
            Workload::LisMpc => self.lis_n,
            Workload::ServiceRead => self.read_n,
        }
    }

    /// The service configuration every workload serves with.
    pub fn service_config(&self) -> lis_service::ServiceConfig {
        lis_service::ServiceConfig {
            block_size: self.service_block,
            batch_window: Duration::from_millis(1),
            ..lis_service::ServiceConfig::default()
        }
    }
}

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Sizes and load shape.
    pub scale: Scale,
    /// Client threads and connections (at most the core count).
    pub clients: usize,
    /// Where the traced mode writes its spans, if anywhere.
    pub spans_out: Option<std::path::PathBuf>,
}

/// Service traffic seen by clients: latency samples per operation and the
/// server's own counters. Empty where the workload sends no such requests.
#[derive(Clone, Debug, Default)]
pub struct Traffic {
    /// `window` latency, ms.
    pub window_ms: Samples,
    /// Single-range `witness` latency, ms.
    pub witness_ms: Samples,
    /// Cold `ingest` latency, ms.
    pub ingest_ms: Samples,
    /// `append` latency, ms.
    pub append_ms: Samples,
    /// Batch size each witness answer rode.
    pub witness_batch: Samples,
    /// Cache hits reported by `stats` at the end.
    pub hits: u64,
    /// Cache misses reported by `stats` at the end.
    pub misses: u64,
    /// Evictions reported by `stats` at the end.
    pub evictions: u64,
}

impl Traffic {
    /// Folds another thread's samples into this one (counters are not
    /// summed: they come from one `stats` call).
    pub fn merge(&mut self, other: Traffic) {
        self.window_ms.extend(other.window_ms);
        self.witness_ms.extend(other.witness_ms);
        self.ingest_ms.extend(other.ingest_ms);
        self.append_ms.extend(other.append_ms);
        self.witness_batch.extend(other.witness_batch);
    }
}

/// What one timed loop of a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Checked operations.
    pub tally: Tally,
    /// Headline-operation latency, ms.
    pub op_ms: Samples,
    /// Operations of every kind completed.
    pub completed: u64,
    /// Wall time the loop measured, s.
    pub elapsed_s: f64,
    /// CPU time of the whole process over the measured operations, s.
    pub cpu_s: f64,
    /// Service traffic.
    pub traffic: Traffic,
}

/// A workload after set-up, ready to run timed loops.
pub trait Prepared {
    /// Runs one timed loop for `seconds`, recording spans into `tracer`.
    fn run_loop(&mut self, seconds: f64, tracer: &Tracer) -> Measured;
    /// The median set-up time, s.
    fn setup_s(&self) -> f64;
    /// Checks made during set-up.
    fn setup_tally(&self) -> Tally;
    /// The sequence the ladder's service probes use.
    fn service_sequence(&self) -> Vec<u32>;
    /// Tears down servers and connections.
    fn finish(self: Box<Self>);
}

/// Runs one workload in the requested mode.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut prepared: Box<dyn Prepared> = match cfg.workload {
        Workload::LisMpc => Box::new(lis_run::prepare(cfg)),
        Workload::ServiceRead => Box::new(service_run::prepare_read(cfg)?),
    };
    let mut tally = prepared.setup_tally();
    let mut metrics = Metrics::default();
    if !cfg.trace {
        let mut m = prepared.run_loop(cfg.seconds, &Tracer::new(false));
        let setup_s = prepared.setup_s();
        prepared.finish();
        tally.merge(m.tally);
        if m.op_ms.is_empty() {
            return Err("the timed loop completed no headline operation".into());
        }
        metrics.set_quantile("op_p50_ms", m.op_ms.percentile(50.0), "ms");
        metrics.set("setup_s", setup_s, "s");
        return Ok(Outcome { tally, metrics });
    }

    // Traced mode: untraced and traced halves of the same loop, then the
    // ladder on the same seed, all spans in one tracer.
    let mut untraced = prepared.run_loop(cfg.seconds / 2.0, &Tracer::new(false));
    let tracer = Tracer::new(true);
    let traced = prepared.run_loop(cfg.seconds / 2.0, &tracer);
    let service_seq = prepared.service_sequence();
    prepared.finish();
    let workload_spans = tracer.spans();
    let last_workload_span = workload_spans.last().map_or(0, |s| s.id);
    ladder::workload_metrics(&mut metrics, &mut untraced, &traced, &workload_spans)?;
    tally.merge(untraced.tally);
    tally.merge(traced.tally);

    let out = ladder::run(cfg, &service_seq, &tracer)?;
    let spans = tracer.spans();
    let ladder_spans: Vec<trace::Span> = spans
        .iter()
        .filter(|s| s.id > last_workload_span)
        .cloned()
        .collect();
    ladder::ladder_metrics(&mut metrics, &out, &traced.traffic, &ladder_spans)?;
    tally.merge(out.tally);

    if let Some(path) = &cfg.spans_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, trace::to_json_lines(&spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(Outcome { tally, metrics })
}
