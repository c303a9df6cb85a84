//! The result a run prints: metrics by name with units, the operation tally,
//! and the environment header that says what produced them.

use crate::check::Tally;
use crate::stats::Quantile;
use std::collections::BTreeMap;

/// Metrics of one run, by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
    /// Sample count and samples beyond the rank, for percentile metrics.
    counts: BTreeMap<String, (usize, usize)>,
}

impl Metrics {
    /// Sets `name` to `value` in `unit`. A metric is set once.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.values.insert(name.clone(), (value, unit));
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// Sets a percentile metric and remembers how many samples it was read
    /// from.
    pub fn set_quantile(&mut self, name: impl Into<String>, q: Quantile, unit: &'static str) {
        let name = name.into();
        self.counts.insert(name.clone(), (q.count, q.beyond));
        self.set(name, q.value, unit);
    }

    /// The `{"quantiles": …}` line: each percentile metric's sample count
    /// and how many samples lie beyond it.
    pub fn quantiles_json(&self) -> String {
        let body: Vec<String> = self
            .counts
            .iter()
            .map(|(k, (n, beyond))| format!("\"{k}\":{{\"count\":{n},\"beyond\":{beyond}}}"))
            .collect();
        format!("{{\"quantiles\":{{{}}}}}", body.join(","))
    }

    /// Every metric with its unit.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.values.iter().map(|(k, &(v, u))| (k.as_str(), v, u))
    }

    /// Renders the `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(k, (v, u))| {
                format!("\"{k}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v))
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A finite float as a JSON number with all its digits.
pub fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

/// Everything a run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Checked operations of the timed part.
    pub tally: Tally,
    /// Metrics for the requested mode.
    pub metrics: Metrics,
}

impl Outcome {
    /// The final result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            self.metrics.to_json()
        )
    }
}

/// The `generated_by` header: commit, cores, pool threads, problem size, δ,
/// seed and mode.
pub fn header(
    workload: &str,
    n: usize,
    delta: f64,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> String {
    format!(
        "{{\"generated_by\":{{\"benchmark\":\"layerbench\",\"commit\":\"{}\",\"nproc\":{},\"pool_threads\":{},\"workload\":\"{workload}\",\"n\":{n},\"delta\":{delta},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace}}}}}",
        commit(),
        nproc(),
        rayon::current_num_threads()
    )
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test, read from a `.git` directory in the working
/// directory, else `unknown`. No process is spawned, and no directory above
/// the working directory is consulted.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPU time this process has used so far (user + system, every thread,
/// live or exited), in seconds, from `/proc/self/stat` at the kernel's
/// 100 Hz tick; 0 where the kernel does not report it.
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th fields of the whole line.
            let rest = stat.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
