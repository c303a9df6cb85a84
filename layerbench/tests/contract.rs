//! The benchmark's own tests: generator determinism, percentile math, the
//! metric names against `BENCHMARK.json`, an n = 2¹⁰ smoke run of every
//! workload in both modes with its outputs checked, and that tracing leaves
//! the lis_mpc ledger untouched.

use layerbench::gen::{self, tag};
use layerbench::lis_run;
use layerbench::service_run::Hot;
use layerbench::stats::{nearest_rank, Samples};
use layerbench::trace::{self, Span, Tracer};
use layerbench::{Prepared, RunConfig, Scale, Workload};
use lis_service::Value;
use std::collections::BTreeMap;

fn smoke(workload: Workload, trace: bool, seed: u64) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 1.0,
        trace,
        scale: Scale::smoke(),
        clients: 2,
        spans_out: None,
    }
}

/// `text` with every non-integer number outside strings replaced by `0`:
/// the service's JSON reader (reused here) takes integers only, and the
/// `bound` fractions are not what these tests compare.
fn integers_only(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    let (mut in_string, mut escaped) = (false, false);
    while let Some(c) = chars.next() {
        if in_string {
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
            out.push(c);
        } else if c == '-' || c.is_ascii_digit() {
            let mut number = String::from(c);
            while let Some(&d) = chars
                .peek()
                .filter(|d| d.is_ascii_digit() || "+-.eE".contains(**d))
            {
                number.push(d);
                chars.next();
            }
            out.push_str(if number.contains(['.', 'e', 'E']) {
                "0"
            } else {
                &number
            });
        } else {
            in_string = c == '"';
            out.push(c);
        }
    }
    out
}

/// `(name → unit)` of the `end_to_end` or `per_layer` list.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let doc = Value::parse(&integers_only(&text)).expect("BENCHMARK.json is JSON");
    doc.get(list)
        .and_then(Value::as_arr)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn generators_are_deterministic_per_seed() {
    assert_eq!(gen::trend(500, 7), gen::trend(500, 7));
    assert_ne!(gen::trend(500, 7), gen::trend(500, 8));
    assert_eq!(gen::service_sequence(500, 7), gen::service_sequence(500, 7));
    assert_eq!(gen::windows(500, 64, 3), gen::windows(500, 64, 3));
    assert_ne!(gen::windows(500, 64, 3), gen::windows(500, 64, 4));
    assert_eq!(gen::value_ranges(250, 64, 3), gen::value_ranges(250, 64, 3));
    assert_eq!(gen::block(64, 250, 9), gen::block(64, 250, 9));
    assert_ne!(gen::mix(1, tag::SOLVE), gen::mix(2, tag::SOLVE));
    assert_ne!(gen::mix(1, tag::SOLVE), gen::mix(1, tag::HOT));
    for &(l, r) in &gen::windows(500, 256, 5) {
        assert!(l < r && r <= 500);
    }
    for &(lo, hi) in &gen::value_ranges(250, 256, 5) {
        assert!(lo < hi && hi <= 250);
    }
    let scale = Scale::smoke();
    let (a, b) = (Hot::new(&scale, 300, 11, 0), Hot::new(&scale, 300, 11, 0));
    assert_eq!(
        (a.seq, a.windows, a.witnesses),
        (b.seq, b.windows, b.witnesses)
    );
}

#[test]
fn percentiles_use_nearest_rank() {
    assert_eq!(nearest_rank(50.0, 10), 5);
    assert_eq!(nearest_rank(50.0, 11), 6);
    assert_eq!(nearest_rank(99.0, 1000), 990);
    assert_eq!(nearest_rank(100.0, 7), 7);
    assert_eq!(nearest_rank(0.0, 7), 1);

    let mut s = Samples::new();
    for v in (1..=100).rev() {
        s.push(v as f64);
    }
    assert_eq!(s.median(), 50.0);
    let p90 = s.percentile(90.0);
    assert_eq!((p90.value, p90.count, p90.beyond), (90.0, 100, 10));
    assert_eq!(s.tail(90.0, "x").expect("10 beyond p90").value, 90.0);
    let err = s.tail(99.0, "window").expect_err("1 beyond p99");
    assert!(err.contains("only 1 beyond"), "{err}");
    assert!(Samples::new().tail(50.0, "empty").is_err());
}

#[test]
fn self_time_subtracts_covered_child_time() {
    let span = |id, parent, start_ns, end_ns| Span {
        id,
        parent,
        request: 1,
        name: "x",
        start_ns,
        end_ns,
    };
    // Parent 0..100 with overlapping children 10..40 and 30..50 and one
    // child sticking out past the parent's end.
    let spans = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 40),
        span(3, 1, 30, 50),
        span(4, 1, 90, 120),
    ];
    let selfs = trace::self_times_ns(&spans);
    assert_eq!(selfs[&1], 100 - 40 - 10);
    assert_eq!(selfs[&2], 30);
    let tracer = Tracer::new(false);
    assert_eq!(tracer.span("off", 0, 0, |id| id), 0);
    assert!(tracer.spans().is_empty());
}

fn check_names(workload: Workload) {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let outcome = layerbench::run(&smoke(workload, trace, 3)).expect("smoke run completes");
        assert_eq!(
            outcome.tally.failed, 0,
            "{workload:?}: {:?}",
            outcome.tally.reasons
        );
        assert!(outcome.tally.attempted > 0);
        let emitted: BTreeMap<String, String> = outcome
            .metrics
            .iter()
            .map(|(k, _, u)| (k.to_string(), u.to_string()))
            .collect();
        assert_eq!(
            emitted,
            declared(list),
            "{workload:?} {list}: emitted vs declared"
        );
        let line = outcome.result_line();
        let parsed = Value::parse(&integers_only(&line)).expect("the result line is JSON");
        assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
    }
}

#[test]
fn lis_mpc_smoke_run_emits_exactly_the_declared_metrics() {
    check_names(Workload::LisMpc);
}

#[test]
fn service_read_smoke_run_emits_exactly_the_declared_metrics() {
    check_names(Workload::ServiceRead);
}

#[test]
fn tracing_leaves_the_lis_mpc_ledger_unchanged() {
    let cfg = smoke(Workload::LisMpc, false, 5);
    let mut plain = lis_run::prepare(&cfg);
    let mut traced = lis_run::prepare(&cfg);
    let tracer = Tracer::new(true);
    let a = plain.run_loop(0.0, &Tracer::new(false));
    let b = traced.run_loop(0.0, &tracer);
    assert_eq!((a.tally.failed, b.tally.failed), (0, 0));
    assert!(!tracer.spans().is_empty());
    assert_eq!(plain.ledgers().len(), traced.ledgers().len());
    for (x, y) in plain.ledgers().iter().zip(traced.ledgers()) {
        assert_eq!(x.rounds, y.rounds);
        assert_eq!(x.communication, y.communication);
        assert_eq!(x.max_machine_load, y.max_machine_load);
        assert_eq!(
            layerbench::ladder::phase_totals(x),
            layerbench::ladder::phase_totals(y)
        );
        assert_eq!(x, y, "the whole ledger, per-phase maps included");
    }
}
