//! Output oracles. Every operation a workload times is checked against an
//! answer computed independently of the code under test; a mismatch is
//! counted as a failed operation, never silently dropped.

use lis_service::Value;
use seaweed_lis::baselines::lis_length_patience;

/// Tally of checked operations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: wrong answer, `ok:false`, transport error or
    /// a nonzero space-violation count.
    pub failed: u64,
    /// The first few failure reasons, for the log.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one checked operation.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// Length of the longest strictly increasing subsequence of the values of
/// `seq` inside `[lo, hi)` (patience sorting on the filtered sequence).
pub fn range_lis(seq: &[u32], lo: u32, hi: u32) -> usize {
    let filtered: Vec<u32> = seq
        .iter()
        .copied()
        .filter(|v| (lo..hi).contains(v))
        .collect();
    lis_length_patience(&filtered)
}

/// Checks a witness: positions in range and strictly increasing, values
/// strictly increasing and inside `[lo, hi)`, and as long as `expected`.
pub fn witness(
    seq: &[u32],
    positions: &[usize],
    lo: u32,
    hi: u32,
    expected: usize,
) -> Result<(), String> {
    if positions.len() != expected {
        return Err(format!(
            "witness has {} positions, the oracle length is {expected}",
            positions.len()
        ));
    }
    if let Some(&p) = positions.iter().find(|&&p| p >= seq.len()) {
        return Err(format!("witness position {p} is outside 0..{}", seq.len()));
    }
    if positions.windows(2).any(|w| w[0] >= w[1]) {
        return Err("witness positions are not strictly increasing".into());
    }
    if positions.windows(2).any(|w| seq[w[0]] >= seq[w[1]]) {
        return Err("witness values are not strictly increasing".into());
    }
    if let Some(&p) = positions.iter().find(|&&p| !(lo..hi).contains(&seq[p])) {
        return Err(format!("witness value {} is outside [{lo}, {hi})", seq[p]));
    }
    Ok(())
}

/// `Ok` when the response carries `"ok": true`, else its error text.
pub fn ok(response: &Value) -> Result<(), String> {
    if response.get("ok").and_then(Value::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(format!("ok:false response: {response}"))
    }
}

/// An integer field of a response.
pub fn int_field(response: &Value, field: &str) -> Result<i64, String> {
    response
        .get(field)
        .and_then(Value::as_int)
        .ok_or_else(|| format!("response lacks integer `{field}`: {response}"))
}

/// A string field of a response.
pub fn str_field(response: &Value, field: &str) -> Result<String, String> {
    response
        .get(field)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("response lacks string `{field}`: {response}"))
}

/// The single answer of a one-window `window` response.
pub fn window_answer(response: &Value) -> Result<usize, String> {
    ok(response)?;
    let answers = response
        .get("lis")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("window response lacks `lis`: {response}"))?;
    match answers {
        [one] => one
            .as_int()
            .map(|v| v as usize)
            .ok_or_else(|| format!("non-integer window answer: {response}")),
        _ => Err(format!("expected one window answer: {response}")),
    }
}

/// Positions of the single witness of a one-range `witness` response, and
/// the batch size it rode.
pub fn witness_answer(response: &Value) -> Result<(Vec<usize>, usize), String> {
    ok(response)?;
    let witnesses = response
        .get("witnesses")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("witness response lacks `witnesses`: {response}"))?;
    let [one] = witnesses else {
        return Err(format!("expected one witness: {response}"));
    };
    let positions = one
        .get("positions")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("witness lacks `positions`: {response}"))?
        .iter()
        .map(|p| p.as_int().map(|p| p as usize))
        .collect::<Option<Vec<usize>>>()
        .ok_or_else(|| format!("non-integer witness position: {response}"))?;
    let batch = int_field(response, "batch")? as usize;
    Ok((positions, batch))
}
