//! The lint passes. Each pass enforces one repo invariant that no compiler
//! checks; see the crate docs for the vocabulary and `README.md` for the
//! rationale. Findings are suppressed site-by-site with
//! `// conformance: allow(<lint>) — <reason>` (the reason is mandatory).

use crate::lexer::{Tok, TokKind};
use crate::model::{CrateScope, Diagnostic, SourceFile};
use std::collections::BTreeSet;

/// The lint vocabulary: `(name, what it enforces)`.
pub const LINTS: [(&str, &str); 8] = [
    (
        "safety-comment",
        "every `unsafe` block or fn is preceded by a `// SAFETY:` comment arguing its soundness",
    ),
    (
        "hash-iteration",
        "kernel/pipeline crates never iterate a HashMap/HashSet without sorting the result \
         (iteration order is nondeterministic and would break bit-identical outputs/ledgers)",
    ),
    (
        "time-source",
        "kernel/pipeline crates never read wall-clock or thread identity \
         (`Instant::now`, `SystemTime`, `thread::current().id()`): outputs must be a pure \
         function of the input and the superstep schedule",
    ),
    (
        "ledger-charge",
        "every communicating `Cluster` primitive advances the superstep clock and charges \
         the ledger (routes through `account`/`apply_step`/`charge_*` or a charging sibling)",
    ),
    (
        "scope-restore",
        "every `set_phase_scope(Some(..))` in a function is restored: the function's last \
         `set_phase_scope` call passes `None`",
    ),
    (
        "service-panic",
        "no `panic!`/`unreachable!`/`todo!`/`unwrap`/`expect` on lis-service request paths: \
         the service boundary answers errors, it does not crash connections",
    ),
    (
        "raw-spawn",
        "no raw `std::thread::spawn`/`thread::Builder` outside the rayon/loom shims and the \
         server accept loop: ad-hoc threads bypass the pool's determinism and budget discipline",
    ),
    (
        "oracle-call",
        "kernel, runtime and service code never calls the reference constructions \
         `SeaweedKernel::comb`, `steady_ant::mul_rows_reference` and \
         `multiway::process_subgrid_reference` outside tests: they are differential oracles, \
         not production paths",
    ),
];

/// True when `name` is a known lint.
pub fn known_lint(name: &str) -> bool {
    LINTS.iter().any(|(n, _)| *n == name)
}

/// Runs every applicable pass over one file.
pub fn lint_file(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = file.model_diags.clone();
    let code = file.code();
    safety_comment(file, &code, &mut out);
    if matches!(file.scope, CrateScope::Kernel | CrateScope::RuntimeCluster) {
        hash_iteration(file, &code, &mut out);
        time_source(file, &code, &mut out);
    }
    if file.scope == CrateScope::RuntimeCluster {
        ledger_charge(file, &code, &mut out);
    }
    scope_restore(file, &code, &mut out);
    if file.scope == CrateScope::Service {
        service_panic(file, &code, &mut out);
    }
    if file.scope != CrateScope::ThreadShim {
        raw_spawn(file, &code, &mut out);
    }
    if matches!(
        file.scope,
        CrateScope::Kernel | CrateScope::RuntimeCluster | CrateScope::Service
    ) {
        oracle_call(file, &code, &mut out);
    }
    out
}

/// Shorthand for pushing a finding unless an allow directive covers it.
fn report(
    file: &SourceFile,
    out: &mut Vec<Diagnostic>,
    lint: &'static str,
    line: u32,
    msg: String,
) {
    if !file.allowed(lint, line) {
        out.push(Diagnostic {
            lint,
            file: file.rel.clone(),
            line,
            msg,
        });
    }
}

/// Do `code[i..]` token texts match `pat` exactly?
fn seq(code: &[(usize, &Tok)], i: usize, pat: &[&str]) -> bool {
    pat.len() <= code.len() - i.min(code.len())
        && pat
            .iter()
            .enumerate()
            .all(|(k, p)| code.get(i + k).is_some_and(|(_, t)| t.text == *p))
}

// ---------------------------------------------------------------------------
// L1: safety-comment
// ---------------------------------------------------------------------------

/// How many lines above an `unsafe` token a `SAFETY` comment may sit. The
/// window absorbs an interposed `#[allow(unsafe_code)]` attribute and the
/// statement head (`let x: T = unsafe { … }`).
const SAFETY_WINDOW: u32 = 10;

fn safety_comment(file: &SourceFile, code: &[(usize, &Tok)], out: &mut Vec<Diagnostic>) {
    for &(_, t) in code {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        let lo = t.line.saturating_sub(SAFETY_WINDOW);
        let documented = file.toks.iter().any(|c| {
            matches!(c.kind, TokKind::LineComment | TokKind::BlockComment)
                && (lo..=t.line).contains(&c.line)
                && c.text.contains("SAFETY")
        });
        if !documented {
            report(
                file,
                out,
                "safety-comment",
                t.line,
                "`unsafe` without a `// SAFETY:` comment within the preceding 10 lines — \
                 state the invariant that makes it sound"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// L2: hash-iteration
// ---------------------------------------------------------------------------

/// Iteration adaptors whose results surface hash order.
const ITER_METHODS: [&str; 6] = ["iter", "iter_mut", "keys", "values", "values_mut", "drain"];

/// Order-insensitive statement escapes: the iterated items are re-sorted or
/// folded commutatively before anything order-dependent happens.
fn statement_escapes(code: &[(usize, &Tok)], from: usize) -> bool {
    let line = code[from].1.line;
    let mut k = from;
    // Scan to the end of the statement, or 3 lines past the flagged token —
    // whichever comes first — looking for a sort or a commutative fold. The
    // line window also catches `collect()` into a Vec sorted on the next line.
    while k < code.len() && code[k].1.line <= line + 3 {
        let t = code[k].1;
        if t.kind == TokKind::Ident
            && (t.text.starts_with("sort")
                || matches!(
                    t.text.as_str(),
                    "sum"
                        | "count"
                        | "max"
                        | "min"
                        | "all"
                        | "any"
                        | "fold"
                        | "BTreeMap"
                        | "BTreeSet"
                ))
        {
            return true;
        }
        k += 1;
    }
    false
}

fn hash_iteration(file: &SourceFile, code: &[(usize, &Tok)], out: &mut Vec<Diagnostic>) {
    // Pass 1: names bound to a HashMap/HashSet in this file — from type
    // annotations (`x: HashMap<…>`, incl. `&`/`mut`) and from constructor
    // initializers (`x = HashMap::new()` / `with_capacity`).
    let mut maps: BTreeSet<String> = BTreeSet::new();
    for i in 0..code.len() {
        let t = code[i].1;
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        let mut j = i;
        // Strip a path qualifier: `std::collections::HashMap`.
        while j >= 2 && code[j - 1].1.text == ":" && code[j - 2].1.text == ":" {
            j -= 2;
            if j > 0 && code[j - 1].1.kind == TokKind::Ident {
                j -= 1;
            } else {
                break;
            }
        }
        // Strip reference/mut qualifiers: `&HashMap`, `&mut HashMap`.
        while j > 0 && matches!(code[j - 1].1.text.as_str(), "&" | "mut") {
            j -= 1;
        }
        if j < 2 {
            continue;
        }
        let sep = code[j - 1].1.text.as_str();
        let name = code[j - 2].1;
        if name.kind != TokKind::Ident {
            continue;
        }
        match sep {
            // Annotation `name: HashMap<…>` — but not a `::` path segment.
            ":" if code
                .get(j.wrapping_sub(3))
                .is_none_or(|(_, t)| t.text != ":") =>
            {
                maps.insert(name.text.clone());
            }
            // Initializer `name = HashMap::new()` / `with_capacity(…)`.
            "=" => {
                maps.insert(name.text.clone());
            }
            _ => {}
        }
    }

    // Pass 2: flag iteration over those names.
    for i in 0..code.len() {
        let t = code[i].1;
        if t.kind != TokKind::Ident || !maps.contains(&t.text) {
            continue;
        }
        // `name.iter()` / `.keys()` / … / `.into_iter()`
        let method = if seq(code, i + 1, &["."]) {
            code.get(i + 2)
                .map(|(_, m)| m.text.as_str())
                .filter(|m| ITER_METHODS.contains(m) || *m == "into_iter")
        } else {
            None
        };
        // `for pat in name {` / `for pat in &name {` — the name directly
        // followed by `{` after an `in` within the same line-ish span.
        let for_iter = {
            let mut j = i;
            let mut saw_in = false;
            while j > 0 && code[j].1.line == t.line {
                j -= 1;
                if code[j].1.text == "in" {
                    saw_in = true;
                    break;
                }
            }
            saw_in && seq(code, i + 1, &["{"])
        };
        if method.is_none() && !for_iter {
            continue;
        }
        if statement_escapes(code, i) {
            continue;
        }
        if file.in_test_code(t.line) {
            continue;
        }
        let how = method.map_or("for-loop".to_string(), |m| format!(".{m}()"));
        report(
            file,
            out,
            "hash-iteration",
            t.line,
            format!(
                "iteration over hash-ordered `{}` via {how} in a deterministic crate — hash \
                 order varies across processes; sort the result, use a BTreeMap, or allowlist \
                 with a proof of order-independence",
                t.text
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// L2: time-source
// ---------------------------------------------------------------------------

fn time_source(file: &SourceFile, code: &[(usize, &Tok)], out: &mut Vec<Diagnostic>) {
    for i in 0..code.len() {
        let t = code[i].1;
        if t.kind != TokKind::Ident || file.in_test_code(t.line) {
            continue;
        }
        let found = if t.text == "Instant" && seq(code, i + 1, &[":", ":", "now"]) {
            Some("Instant::now()")
        } else if t.text == "SystemTime" {
            Some("SystemTime")
        } else if t.text == "thread" && seq(code, i + 1, &[":", ":", "current"]) {
            Some("thread::current()")
        } else {
            None
        };
        if let Some(what) = found {
            report(
                file,
                out,
                "time-source",
                t.line,
                format!(
                    "`{what}` in a deterministic crate — outputs and ledgers must not depend \
                     on wall-clock or thread identity; move timing to the bench harness or \
                     the service layer"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// L3: ledger-charge
// ---------------------------------------------------------------------------

/// `Cluster` methods that are non-communicating by design. Everything else
/// public must charge the ledger (directly or via a charging sibling).
const NON_COMMUNICATING: [&str; 11] = [
    "new",          // construction
    "config",       // accessor
    "ledger",       // accessor
    "rounds",       // accessor
    "superstep",    // accessor
    "reset_ledger", // bookkeeping between runs, not a superstep
    "poll_kills",   // reads fault state injected at earlier barriers
    "set_phase",    // relabelling only
    "set_phase_scope",
    "collect",    // end-of-algorithm readback, documented as uncharged
    "rank_index", // local index build; every query on it charges the value side
];

/// Direct evidence that a body charges the ledger / advances the clock.
const CHARGE_MARKERS: [&str; 5] = [
    "account",
    "apply_step",
    "charge_rounds",
    "charge_superstep",
    "bump_superstep",
];

fn ledger_charge(file: &SourceFile, code: &[(usize, &Tok)], out: &mut Vec<Diagnostic>) {
    // Restrict to fns inside `impl Cluster { … }` blocks.
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
    for i in 0..code.len() {
        if code[i].1.text == "impl" {
            // `impl Cluster {` possibly with generics on the impl.
            let mut j = i + 1;
            let mut is_cluster = false;
            while j < code.len() && code[j].1.text != "{" && code[j].1.line <= code[i].1.line + 2 {
                if code[j].1.text == "Cluster" {
                    is_cluster = true;
                }
                if code[j].1.text == "for" {
                    is_cluster = false; // trait impl for another type
                    break;
                }
                j += 1;
            }
            if is_cluster && j < code.len() && code[j].1.text == "{" {
                let mut depth = 1i32;
                let mut k = j + 1;
                while k < code.len() && depth > 0 {
                    match code[k].1.text.as_str() {
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                ranges.push(code[j].0..code[k - 1].0);
            }
        }
    }
    if ranges.is_empty() {
        return;
    }

    let fns: Vec<_> = file
        .fns()
        .into_iter()
        .filter(|f| ranges.iter().any(|r| r.contains(&f.body.start)))
        .collect();

    let body_idents = |f: &crate::model::FnSpan| -> Vec<String> {
        file.toks[f.body.clone()]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    };

    // Fixpoint: a fn charges if it contains a marker or calls a charging fn.
    let mut charging: BTreeSet<String> = BTreeSet::new();
    for f in &fns {
        if body_idents(f)
            .iter()
            .any(|id| CHARGE_MARKERS.contains(&id.as_str()))
        {
            charging.insert(f.name.clone());
        }
    }
    loop {
        let before = charging.len();
        for f in &fns {
            if charging.contains(&f.name) {
                continue;
            }
            if body_idents(f).iter().any(|id| charging.contains(id)) {
                charging.insert(f.name.clone());
            }
        }
        if charging.len() == before {
            break;
        }
    }

    for f in &fns {
        if !f.is_pub
            || NON_COMMUNICATING.contains(&f.name.as_str())
            || charging.contains(&f.name)
            || file.in_test_code(f.line)
        {
            continue;
        }
        report(
            file,
            out,
            "ledger-charge",
            f.line,
            format!(
                "public `Cluster` primitive `{}` never charges the ledger: route its cost \
                 through `account`/`apply_step`/`charge_rounds`/`charge_superstep`, delegate \
                 to a charging primitive, or allowlist it with a proof it is non-communicating",
                f.name
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// L3: scope-restore
// ---------------------------------------------------------------------------

fn scope_restore(file: &SourceFile, code: &[(usize, &Tok)], out: &mut Vec<Diagnostic>) {
    // Work on code-token indices relative to `code`, mapping fn body ranges
    // (which are raw token indices) onto them.
    for f in file.fns() {
        if file.in_test_code(f.line) {
            continue;
        }
        let body: Vec<usize> = (0..code.len())
            .filter(|&k| f.body.contains(&code[k].0))
            .collect();
        let mut sets: Vec<(&str, u32)> = Vec::new(); // ("Some"/"None", line)
        for &k in &body {
            if code[k].1.text == "set_phase_scope" && seq(code, k + 1, &["("]) {
                let arg = code.get(k + 2).map(|(_, t)| t.text.as_str());
                match arg {
                    Some("None") => sets.push(("None", code[k].1.line)),
                    // A literal `Some(..)` or a computed argument both count
                    // as setting a scope (conservative).
                    _ => sets.push(("Some", code[k].1.line)),
                }
            }
        }
        let somes = sets.iter().filter(|(k, _)| *k == "Some").count();
        if somes == 0 {
            continue;
        }
        let last_is_none = sets.last().is_some_and(|(k, _)| *k == "None");
        if !last_is_none {
            let line = sets.last().map_or(f.line, |(_, l)| *l);
            report(
                file,
                out,
                "scope-restore",
                line,
                format!(
                    "`{}` sets a ledger phase scope but its last `set_phase_scope` call is \
                     not `None`: a leaked scope mislabels every later phase's rounds",
                    f.name
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// L4: service-panic
// ---------------------------------------------------------------------------

fn service_panic(file: &SourceFile, code: &[(usize, &Tok)], out: &mut Vec<Diagnostic>) {
    for i in 0..code.len() {
        let t = code[i].1;
        if t.kind != TokKind::Ident || file.in_test_code(t.line) {
            continue;
        }
        let found = match t.text.as_str() {
            "panic" | "unreachable" | "todo" | "unimplemented" if seq(code, i + 1, &["!"]) => {
                Some(format!("{}!", t.text))
            }
            "unwrap" | "expect"
                if i > 0 && code[i - 1].1.text == "." && seq(code, i + 1, &["("]) =>
            {
                Some(format!(".{}()", t.text))
            }
            _ => None,
        };
        if let Some(what) = found {
            report(
                file,
                out,
                "service-panic",
                t.line,
                format!(
                    "`{what}` on a lis-service request path — the service boundary must \
                     answer `{{\"ok\":false}}`, not crash the connection; return a structured \
                     error or allowlist with a proof the failure is impossible"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// L5: raw-spawn
// ---------------------------------------------------------------------------

fn raw_spawn(file: &SourceFile, code: &[(usize, &Tok)], out: &mut Vec<Diagnostic>) {
    for i in 0..code.len() {
        let t = code[i].1;
        if t.kind != TokKind::Ident || t.text != "thread" || file.in_test_code(t.line) {
            continue;
        }
        let found = if seq(code, i + 1, &[":", ":", "spawn"]) {
            Some("thread::spawn")
        } else if seq(code, i + 1, &[":", ":", "Builder"]) {
            Some("thread::Builder")
        } else {
            None
        };
        if let Some(what) = found {
            report(
                file,
                out,
                "raw-spawn",
                t.line,
                format!(
                    "raw `{what}` outside the thread shims — parallel work goes through the \
                     rayon pool (deterministic chunking, budget discipline); long-lived \
                     service threads need an allowlist entry naming their shutdown story"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// L6: oracle-call
// ---------------------------------------------------------------------------

fn oracle_call(file: &SourceFile, code: &[(usize, &Tok)], out: &mut Vec<Diagnostic>) {
    for i in 0..code.len() {
        let t = code[i].1;
        if t.kind != TokKind::Ident || file.in_test_code(t.line) || !seq(code, i + 1, &["("]) {
            continue;
        }
        let what = match t.text.as_str() {
            "comb" if i >= 3 && seq(code, i - 3, &["SeaweedKernel", ":", ":"]) => {
                "SeaweedKernel::comb"
            }
            "mul_rows_reference" if i == 0 || code[i - 1].1.text != "fn" => {
                "steady_ant::mul_rows_reference"
            }
            "process_subgrid_reference" if i == 0 || code[i - 1].1.text != "fn" => {
                "multiway::process_subgrid_reference"
            }
            _ => continue,
        };
        report(
            file,
            out,
            "oracle-call",
            t.line,
            format!(
                "call to the reference construction `{what}` outside test code — production \
                 paths use the fast kernels (`comb_bitparallel`, `steady_ant::mul`, \
                 `multiway::process_subgrid`); reach the \
                 oracle from tests and benches, or allowlist the reference's own recursion"
            ),
        );
    }
}
