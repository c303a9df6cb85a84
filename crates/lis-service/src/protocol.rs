//! The line-JSON request vocabulary of the analytics service.
//!
//! One request per line, one response line per request. Every response is an
//! object with `"ok"`: successes carry op-specific fields plus a `"cache"`
//! counter block; failures are `{"ok":false,"error":"…"}` — service-facing
//! entry points never panic (window validation routes through
//! [`seaweed_lis::lis::SemiLocalLis::try_lis_window`]).
//!
//! | op        | fields                                   | answer |
//! |-----------|------------------------------------------|--------|
//! | `ingest`  | `seq: [u32]`                             | kernel id (content hash), LIS length; dedupes to a cache hit for a known sequence |
//! | `window`  | `id`, `l`, `r` *or* `windows: [[l,r]…]`  | `LIS(A[l..r))` per window, off the hot kernel |
//! | `witness` | `id`, optional `lo`/`hi` *or* `ranges: [[lo,hi]…]` (value ranges, `lo ≤ u32::MAX`, `hi ≤ 2^32`; defaults `0` and `2^32`) | positions (and values) of one LIS using only values in `[lo, hi)`; multi-range requests ride **one** traceback descent |
//! | `append`  | `id`, `block: [u32]`                     | new kernel id + spine stats + ledger proof that only the spine was recombed |
//! | `stats`   | —                                        | cache and ledger counters |
//! | `shutdown`| —                                        | stops the server after responding |

use crate::json::Value;

/// A parsed service request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Build (or dedupe to) the kernel of a sequence.
    Ingest {
        /// The sequence to ingest.
        seq: Vec<u32>,
    },
    /// Window-LIS queries `LIS(A[l..r))` against a hot kernel.
    Window {
        /// Kernel id returned by `ingest`/`append`.
        id: String,
        /// Half-open position windows to answer.
        windows: Vec<(usize, usize)>,
    },
    /// Witness queries against a hot kernel, addressed by half-open **value**
    /// ranges (an empty list means one full-sequence witness).
    Witness {
        /// Kernel id returned by `ingest`/`append`.
        id: String,
        /// Half-open value ranges; each gets its own witness, all in one
        /// descent. The end may be [`VALUE_END`], so a range can include
        /// `u32::MAX`.
        ranges: Vec<(u32, u64)>,
    },
    /// Extend a hot kernel's sequence by a block.
    Append {
        /// Kernel id returned by `ingest`/`append`.
        id: String,
        /// Elements to append.
        block: Vec<u32>,
    },
    /// Cache and ledger counters.
    Stats,
    /// Stop the server after responding.
    Shutdown,
}

/// Reads a `u32` sequence out of an array field.
fn parse_u32_seq(value: &Value, field: &str) -> Result<Vec<u32>, String> {
    let items = value
        .as_arr()
        .ok_or_else(|| format!("`{field}` must be an array of integers"))?;
    items
        .iter()
        .map(|item| {
            let i = item
                .as_int()
                .ok_or_else(|| format!("`{field}` must contain only integers"))?;
            u32::try_from(i).map_err(|_| format!("`{field}` value {i} is out of u32 range"))
        })
        .collect()
}

/// Reads a non-negative index out of an integer field.
fn parse_index(value: &Value, field: &str) -> Result<usize, String> {
    let i = value
        .as_int()
        .ok_or_else(|| format!("`{field}` must be an integer"))?;
    usize::try_from(i).map_err(|_| format!("`{field}` must be non-negative"))
}

/// One past the largest value a sequence can hold: the exclusive end of a
/// witness value range that includes `u32::MAX`.
pub const VALUE_END: u64 = 1 << 32;

/// Checks the bounds of a witness value range `[lo, hi)`.
fn value_range(lo: usize, hi: usize) -> Result<(u32, u64), String> {
    let lo = u32::try_from(lo).map_err(|_| format!("witness range start {lo} exceeds u32::MAX"))?;
    let hi = u64::try_from(hi)
        .ok()
        .filter(|&hi| hi <= VALUE_END)
        .ok_or_else(|| format!("witness range end {hi} exceeds 2^32"))?;
    Ok((lo, hi))
}

/// Reads an array of `[a, b]` integer pairs.
fn parse_pairs(value: &Value, field: &str) -> Result<Vec<(usize, usize)>, String> {
    let items = value
        .as_arr()
        .ok_or_else(|| format!("`{field}` must be an array of [a, b] pairs"))?;
    items
        .iter()
        .map(|item| {
            let pair = item
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("`{field}` entries must be [a, b] pairs"))?;
            Ok((parse_index(&pair[0], field)?, parse_index(&pair[1], field)?))
        })
        .collect()
}

fn required<'v>(request: &'v Value, field: &str) -> Result<&'v Value, String> {
    request
        .get(field)
        .ok_or_else(|| format!("missing `{field}` field"))
}

fn parse_id(request: &Value) -> Result<String, String> {
    Ok(required(request, "id")?
        .as_str()
        .ok_or("`id` must be a string")?
        .to_string())
}

impl Request {
    /// Parses one request object (already JSON-decoded).
    pub fn from_value(request: &Value) -> Result<Request, String> {
        let op = required(request, "op")?
            .as_str()
            .ok_or("`op` must be a string")?;
        match op {
            "ingest" => Ok(Request::Ingest {
                seq: parse_u32_seq(required(request, "seq")?, "seq")?,
            }),
            "window" => {
                let id = parse_id(request)?;
                let windows = match request.get("windows") {
                    Some(list) => parse_pairs(list, "windows")?,
                    None => vec![(
                        parse_index(required(request, "l")?, "l")?,
                        parse_index(required(request, "r")?, "r")?,
                    )],
                };
                Ok(Request::Window { id, windows })
            }
            "witness" => {
                let id = parse_id(request)?;
                let ranges = match request.get("ranges") {
                    Some(list) => parse_pairs(list, "ranges")?
                        .into_iter()
                        .map(|(lo, hi)| value_range(lo, hi))
                        .collect::<Result<Vec<_>, String>>()?,
                    None => match (request.get("lo"), request.get("hi")) {
                        (None, None) => Vec::new(),
                        (lo, hi) => {
                            let lo = lo.map(|v| parse_index(v, "lo")).transpose()?.unwrap_or(0);
                            let hi = hi
                                .map(|v| parse_index(v, "hi"))
                                .transpose()?
                                .unwrap_or(VALUE_END as usize);
                            vec![value_range(lo, hi)?]
                        }
                    },
                };
                Ok(Request::Witness { id, ranges })
            }
            "append" => Ok(Request::Append {
                id: parse_id(request)?,
                block: parse_u32_seq(required(request, "block")?, "block")?,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        Request::from_value(&Value::parse(line)?)
    }
}

/// Builds the uniform `{"ok":false,"error":…}` failure response.
pub fn error_response(message: &str) -> Value {
    Value::obj(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::Str(message.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(
            Request::parse(r#"{"op":"ingest","seq":[3,1,2]}"#).unwrap(),
            Request::Ingest { seq: vec![3, 1, 2] }
        );
        assert_eq!(
            Request::parse(r#"{"op":"window","id":"ab","l":1,"r":4}"#).unwrap(),
            Request::Window {
                id: "ab".into(),
                windows: vec![(1, 4)]
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"window","id":"ab","windows":[[0,2],[1,3]]}"#).unwrap(),
            Request::Window {
                id: "ab".into(),
                windows: vec![(0, 2), (1, 3)]
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"witness","id":"ab"}"#).unwrap(),
            Request::Witness {
                id: "ab".into(),
                ranges: vec![]
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"witness","id":"ab","lo":5,"hi":9}"#).unwrap(),
            Request::Witness {
                id: "ab".into(),
                ranges: vec![(5, 9)]
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"witness","id":"ab","ranges":[[0,4],[2,8]]}"#).unwrap(),
            Request::Witness {
                id: "ab".into(),
                ranges: vec![(0, 4), (2, 8)]
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"witness","id":"ab","lo":3}"#).unwrap(),
            Request::Witness {
                id: "ab".into(),
                ranges: vec![(3, VALUE_END)]
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"append","id":"ab","block":[9]}"#).unwrap(),
            Request::Append {
                id: "ab".into(),
                block: vec![9]
            }
        );
        assert_eq!(Request::parse(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            Request::parse(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn rejects_bad_requests_with_reasons() {
        for (line, needle) in [
            (r#"{"seq":[1]}"#, "missing `op`"),
            (r#"{"op":"fly"}"#, "unknown op"),
            (r#"{"op":"ingest"}"#, "missing `seq`"),
            (r#"{"op":"ingest","seq":[-1]}"#, "out of u32 range"),
            (
                r#"{"op":"witness","id":"ab","hi":4294967297}"#,
                "exceeds 2^32",
            ),
            (
                r#"{"op":"witness","id":"ab","ranges":[[4294967296,4294967296]]}"#,
                "exceeds u32::MAX",
            ),
            (r#"{"op":"ingest","seq":"no"}"#, "must be an array"),
            (r#"{"op":"window","id":"x","l":1}"#, "missing `r`"),
            (r#"{"op":"window","l":0,"r":1}"#, "missing `id`"),
            (r#"{"op":"window","id":"x","windows":[[1]]}"#, "pairs"),
            (r#"{"op":"append","id":"x"}"#, "missing `block`"),
            ("not json", "expected"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn error_response_shape() {
        let v = error_response("boom");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Value::as_str), Some("boom"));
    }
}
