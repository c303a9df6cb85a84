//! Shared helpers for the benchmark and experiment harness: deterministic workload
//! generators, command-line options, and table formatting (plain text and JSON)
//! used by the experiment binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use monge::PermutationMatrix;
use rand::prelude::*;

/// Command-line options shared by every `exp_*` / `table1` binary.
///
/// * `--json` — emit a machine-readable JSON document instead of the plain-text
///   tables, so perf PRs can diff numbers.
/// * `--threads N` — size the global thread pool before any work runs
///   (equivalent to `RAYON_NUM_THREADS=N`, but overriding it), so one binary
///   can be re-run at several thread counts to measure wall-clock speedup.
/// * `--max-n N` — scale the experiment's problem-size grid up to `N`
///   (binaries with a size sweep extend their grid; others size their single
///   instance from it).
#[derive(Clone, Debug, Default)]
pub struct ExpOpts {
    /// Emit JSON instead of plain-text tables.
    pub json: bool,
    /// Explicit thread-pool size (already applied by [`ExpOpts::from_env`]).
    pub threads: Option<usize>,
    /// Upper bound of the problem-size sweep (`--max-n`).
    pub max_n: Option<usize>,
}

impl ExpOpts {
    /// Parses `std::env::args`, applies `--threads` to the global pool, and
    /// returns the options. Unknown arguments print usage and exit.
    pub fn from_env() -> Self {
        fn usage(program: &str) -> ! {
            eprintln!("usage: {program} [--json] [--threads N] [--max-n N]");
            std::process::exit(2);
        }
        let mut args = std::env::args();
        let program = args.next().unwrap_or_else(|| "exp".into());
        let mut opts = Self::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => opts.json = true,
                "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => opts.threads = Some(n),
                    _ => usage(&program),
                },
                "--max-n" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => opts.max_n = Some(n),
                    _ => usage(&program),
                },
                other => match (
                    other.strip_prefix("--threads="),
                    other.strip_prefix("--max-n="),
                ) {
                    (Some(v), _) => match v.parse() {
                        Ok(n) if n > 0 => opts.threads = Some(n),
                        _ => usage(&program),
                    },
                    (_, Some(v)) => match v.parse() {
                        Ok(n) if n > 0 => opts.max_n = Some(n),
                        _ => usage(&program),
                    },
                    _ => usage(&program),
                },
            }
        }
        if let Some(n) = opts.threads {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .expect("configuring the global thread pool cannot fail");
        }
        opts
    }

    /// The thread count experiments should report: the explicit `--threads`
    /// value, or whatever the pool resolved from the environment.
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(rayon::current_num_threads)
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Whether `s` matches the JSON number grammar exactly
/// (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`). Rust's `f64` parser is
/// laxer than JSON (`"+1"`, `"1."`, `".5"`), so cells must pass this check to
/// be emitted unquoted.
fn is_json_number(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    if b.first() == Some(&b'-') {
        i += 1;
    }
    let int_start = i;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    if i == int_start || (b[int_start] == b'0' && i - int_start > 1) {
        return false;
    }
    if i < b.len() && b[i] == b'.' {
        i += 1;
        let frac_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == frac_start {
            return false;
        }
    }
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        i += 1;
        if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
            i += 1;
        }
        let exp_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == exp_start {
            return false;
        }
    }
    i == b.len()
}

/// Renders a cell as a JSON value: numeric cells stay numbers, the rest
/// become strings.
fn json_cell(s: &str) -> String {
    if is_json_number(s) {
        s.to_string()
    } else {
        format!("\"{}\"", json_escape(s))
    }
}

/// Wraps named JSON fragments into one experiment document:
/// `{"experiment": ..., "threads": N, "<name>": <value>, ...}`.
///
/// `parts` values must already be valid JSON (e.g. from [`Table::render_json`]
/// or a bare number).
pub fn json_envelope(experiment: &str, parts: &[(&str, String)]) -> String {
    let mut out = format!(
        "{{\"experiment\":\"{}\",\"threads\":{}",
        json_escape(experiment),
        rayon::current_num_threads()
    );
    for (name, value) in parts {
        out.push_str(&format!(",\"{}\":{}", json_escape(name), value));
    }
    out.push('}');
    out
}

/// Doubling problem-size grid: `base, 2·base, …` up to `max_n` (when given)
/// or `default_max`. Used by the experiment binaries to honor `--max-n`; a
/// cap below `base` yields an *empty* grid, so a binary that appends the
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

/// Simple fixed-width table printer for the experiment binaries.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as a JSON array of row objects keyed by the headers;
    /// numeric-looking cells are emitted as JSON numbers.
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            for (j, (header, cell)) in self.headers.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", json_escape(header), json_cell(cell)));
            }
            out.push('}');
        }
        out.push(']');
        out
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn table_renders_aligned_rows() {
        let mut t = Table::new(vec!["algo", "rounds"]);
        t.row(vec!["ours", "42"]);
        t.row(vec!["warmup", "130"]);
        let rendered = t.render();
        assert!(rendered.contains("ours"));
        assert!(rendered.lines().count() == 4);
    }

    #[test]
    fn table_renders_json_rows() {
        let mut t = Table::new(vec!["algo", "rounds", "ratio"]);
        t.row(vec!["ours \"fast\"", "42", "0.50"]);
        assert_eq!(
            t.render_json(),
            r#"[{"algo":"ours \"fast\"","rounds":42,"ratio":0.50}]"#
        );
    }

    #[test]
    fn json_cells_follow_json_number_grammar() {
        // Rust-parseable but JSON-invalid numbers must be quoted.
        let mut t = Table::new(vec!["a", "b", "c", "d", "e"]);
        t.row(vec!["+1", "1.", ".5", "007", "-0.5e+3"]);
        assert_eq!(
            t.render_json(),
            r#"[{"a":"+1","b":"1.","c":".5","d":"007","e":-0.5e+3}]"#
        );
    }

    #[test]
    fn json_envelope_wraps_parts() {
        let doc = json_envelope("exp_x", &[("rows", "[1,2]".to_string())]);
        assert!(doc.starts_with("{\"experiment\":\"exp_x\",\"threads\":"));
        assert!(doc.ends_with(",\"rows\":[1,2]}"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
