//! The service core: request handlers over the hot-kernel cache and the
//! batch coalescer. The server ([`crate::server`]) is a thin line-JSON
//! transport around [`Service::handle`].
//!
//! Locking discipline: the cache sits behind one mutex; handlers hold it for
//! the duration of one cache operation and never while waiting on the
//! coalescer. The coalescer's descend closure re-acquires the cache lock with
//! no other locks held, so leader threads cannot deadlock with handlers.

use crate::batch::Coalescer;
use crate::cache::{CacheCounters, KernelCache};
use crate::json::Value;
use crate::protocol::{error_response, Request};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// What a poisoned cache lock answers: the panic happened on *another*
/// connection; this one still gets a structured error, not a cascade.
const POISONED: &str = "kernel cache poisoned by a panic on another connection";

/// Tunables of a service instance.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Byte budget of the hot-kernel cache; LRU eviction above it.
    pub budget_bytes: usize,
    /// Space exponent δ of each kernel's recording cluster.
    pub delta: f64,
    /// Comb granularity for ingested sequences and appended blocks.
    pub block_size: usize,
    /// How long a witness batch leader waits for concurrent queries to join.
    pub batch_window: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            budget_bytes: 256 << 20,
            delta: 0.5,
            block_size: 1024,
            batch_window: Duration::from_millis(2),
        }
    }
}

/// The analytics service: a hot-kernel cache plus a per-kernel witness
/// coalescer. Shared across connection threads behind an `Arc`.
pub struct Service {
    cache: Mutex<KernelCache>,
    coalescer: Coalescer,
}

impl Service {
    /// A fresh service with an empty cache.
    pub fn new(config: ServiceConfig) -> Self {
        Self {
            cache: Mutex::new(KernelCache::new(
                config.budget_bytes,
                config.delta,
                config.block_size,
            )),
            coalescer: Coalescer::new(config.batch_window),
        }
    }

    /// Handles one parsed request, returning the response object. Never
    /// panics on user input: validation failures come back as
    /// `{"ok":false,"error":…}`.
    pub fn handle(&self, request: &Request) -> Value {
        match request {
            Request::Ingest { seq } => self.ingest(seq),
            Request::Window { id, windows } => self.window(id, windows),
            Request::Witness { id, ranges } => self.witness(id, ranges),
            Request::Append { id, block } => self.append(id, block),
            Request::Stats => self.stats(),
            Request::Shutdown => Value::obj(vec![
                ("ok", Value::Bool(true)),
                ("stopping", Value::Bool(true)),
            ]),
        }
    }

    /// Parses and handles one request line.
    pub fn handle_line(&self, line: &str) -> Value {
        match Request::parse(line) {
            Ok(request) => self.handle(&request),
            Err(e) => error_response(&e),
        }
    }

    /// Locks the cache; a poisoned lock becomes an error the caller returns
    /// as `{"ok":false}` instead of crashing the connection.
    fn lock_cache(&self) -> Result<MutexGuard<'_, KernelCache>, String> {
        self.cache.lock().map_err(|_| POISONED.to_string())
    }

    fn ingest(&self, seq: &[u32]) -> Value {
        let mut cache = match self.lock_cache() {
            Ok(cache) => cache,
            Err(e) => return error_response(&e),
        };
        let (hash, cached) = match cache.ingest(seq.to_vec()) {
            Ok(out) => out,
            Err(e) => return error_response(&e),
        };
        let Some(entry) = cache.peek(hash) else {
            return error_response("ingested kernel evicted before it could be answered");
        };
        let id = entry.id();
        let n = entry.seq().len();
        let queries = entry.queries();
        let lis = queries.lis_window(0, queries.len());
        let counters = cache.counters();
        Value::obj(vec![
            ("ok", Value::Bool(true)),
            ("id", Value::Str(id)),
            ("n", Value::Int(n as i64)),
            ("lis", Value::Int(lis as i64)),
            ("cached", Value::Bool(cached)),
            ("cache", counter_block(counters)),
        ])
    }

    fn window(&self, id: &str, windows: &[(usize, usize)]) -> Value {
        let hash = match KernelCache::parse_id(id) {
            Ok(hash) => hash,
            Err(e) => return error_response(&e),
        };
        let mut cache = match self.lock_cache() {
            Ok(cache) => cache,
            Err(e) => return error_response(&e),
        };
        let Some(entry) = cache.get(hash) else {
            return error_response(&format!("unknown kernel id `{id}`"));
        };
        let queries = entry.queries();
        let mut answers = Vec::with_capacity(windows.len());
        for &(l, r) in windows {
            match queries.try_lis_window(l, r) {
                Ok(len) => answers.push(len),
                Err(e) => return error_response(&e.to_string()),
            }
        }
        let counters = cache.counters();
        Value::obj(vec![
            ("ok", Value::Bool(true)),
            ("id", Value::Str(id.to_string())),
            ("lis", Value::int_arr(answers)),
            ("cache", counter_block(counters)),
        ])
    }

    fn witness(&self, id: &str, ranges: &[(u32, u32)]) -> Value {
        let hash = match KernelCache::parse_id(id) {
            Ok(hash) => hash,
            Err(e) => return error_response(&e),
        };
        // An empty list means one full-sequence witness.
        let ranges: Vec<(u32, u32)> = if ranges.is_empty() {
            vec![(0, u32::MAX)]
        } else {
            ranges.to_vec()
        };
        if let Some(&(lo, hi)) = ranges.iter().find(|&&(lo, hi)| lo > hi) {
            return error_response(&format!("witness range [{lo}, {hi}) is inverted"));
        }

        let (witnesses, batch) = if ranges.len() > 1 {
            // A multi-range request is already a batch: one descent, no need
            // to wait for other connections.
            match self.descend(hash, &ranges) {
                Ok(all) => {
                    let size = all.len();
                    (all, size)
                }
                Err(e) => return error_response(&e),
            }
        } else {
            // A single-range request coalesces with concurrent queries for
            // the same kernel: whoever leads runs ONE descent for everyone.
            let (lo, hi) = ranges[0];
            let coalesced = self
                .coalescer
                .submit(hash, (lo as usize, hi as usize), |gathered| {
                    let value_ranges: Vec<(u32, u32)> = gathered
                        .iter()
                        .map(|&(lo, hi)| (lo as u32, hi as u32))
                        .collect();
                    self.descend(hash, &value_ranges)
                });
            match coalesced {
                Ok(out) => (vec![out.positions], out.batch_size),
                Err(e) => return error_response(&e),
            }
        };

        // Attach the witnessed values (read off the hot sequence).
        let mut cache = match self.lock_cache() {
            Ok(cache) => cache,
            Err(e) => return error_response(&e),
        };
        let Some(entry) = cache.peek(hash) else {
            return error_response(&format!("unknown kernel id `{id}`"));
        };
        let seq = entry.seq();
        let rendered: Vec<Value> = witnesses
            .iter()
            .map(|positions| {
                Value::obj(vec![
                    ("positions", Value::int_arr(positions.iter().copied())),
                    (
                        "values",
                        Value::int_arr(positions.iter().map(|&p| seq[p] as usize)),
                    ),
                ])
            })
            .collect();
        let counters = cache.counters();
        Value::obj(vec![
            ("ok", Value::Bool(true)),
            ("id", Value::Str(id.to_string())),
            ("witnesses", Value::Arr(rendered)),
            ("batch", Value::Int(batch as i64)),
            ("cache", counter_block(counters)),
        ])
    }

    /// One batched descent: maps value ranges to rank windows and recovers
    /// every witness in a single superstep schedule. Called either inline
    /// (multi-range request) or as the coalescer's leader closure — in both
    /// cases with no locks held on entry.
    fn descend(&self, hash: u64, ranges: &[(u32, u32)]) -> Result<Vec<Vec<usize>>, String> {
        let mut cache = self.lock_cache()?;
        let Some(entry) = cache.get(hash) else {
            return Err(format!("unknown kernel id `{hash:016x}`"));
        };
        let windows: Vec<(usize, usize)> = ranges
            .iter()
            .map(|&(lo, hi)| entry.value_rank_window(lo, hi))
            .collect();
        Ok(entry.witness_batch(&windows, "service-witness"))
    }

    fn append(&self, id: &str, block: &[u32]) -> Value {
        let hash = match KernelCache::parse_id(id) {
            Ok(hash) => hash,
            Err(e) => return error_response(&e),
        };
        let mut cache = match self.lock_cache() {
            Ok(cache) => cache,
            Err(e) => return error_response(&e),
        };
        let (new_hash, stats) = match cache.append(hash, block) {
            Ok(out) => out,
            Err(e) => return error_response(&e),
        };
        let Some(entry) = cache.peek(new_hash) else {
            return error_response("appended kernel evicted before it could be answered");
        };
        let new_id = entry.id();
        let n = entry.seq().len();
        let queries = entry.queries();
        let lis = queries.lis_window(0, queries.len());
        // Ledger proof surface: everything the append charged sits under the
        // `service-append` scope of this entry's cluster.
        let ledger = entry.cluster().ledger();
        let append_rounds = ledger.scope_rounds("service-append");
        let append_comm = ledger.scope_comm("service-append");
        let counters = cache.counters();
        Value::obj(vec![
            ("ok", Value::Bool(true)),
            ("id", Value::Str(new_id)),
            ("previous", Value::Str(id.to_string())),
            ("n", Value::Int(n as i64)),
            ("lis", Value::Int(lis as i64)),
            (
                "stats",
                Value::obj(vec![
                    ("blocks_combed", Value::Int(stats.blocks_combed as i64)),
                    ("spine_merges", Value::Int(stats.spine_merges as i64)),
                    ("spine_len", Value::Int(stats.spine_len as i64)),
                    ("recombed_items", Value::Int(stats.recombed_items as i64)),
                ]),
            ),
            (
                "ledger",
                Value::obj(vec![
                    ("append_rounds", Value::Int(append_rounds as i64)),
                    ("append_comm", Value::Int(append_comm as i64)),
                ]),
            ),
            ("cache", counter_block(counters)),
        ])
    }

    fn stats(&self) -> Value {
        let cache = match self.lock_cache() {
            Ok(cache) => cache,
            Err(e) => return error_response(&e),
        };
        Value::obj(vec![
            ("ok", Value::Bool(true)),
            ("entries", Value::Int(cache.entry_count() as i64)),
            ("bytes", Value::Int(cache.total_bytes() as i64)),
            ("violations", Value::Int(cache.violations() as i64)),
            ("cache", counter_block(cache.counters())),
        ])
    }
}

fn counter_block(counters: CacheCounters) -> Value {
    Value::obj(vec![
        ("hits", Value::Int(counters.hits as i64)),
        ("misses", Value::Int(counters.misses as i64)),
        ("evictions", Value::Int(counters.evictions as i64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use seaweed_lis::lis::SemiLocalLis;

    fn service() -> Service {
        Service::new(ServiceConfig {
            block_size: 32,
            batch_window: Duration::from_millis(1),
            ..ServiceConfig::default()
        })
    }

    fn ingest(service: &Service, seq: &[u32]) -> String {
        let rendered: Vec<String> = seq.iter().map(|v| v.to_string()).collect();
        let response = service.handle_line(&format!(
            r#"{{"op":"ingest","seq":[{}]}}"#,
            rendered.join(",")
        ));
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        response
            .get("id")
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    }

    #[test]
    fn ingest_window_and_append_round_trip() {
        let mut rng = StdRng::seed_from_u64(61);
        let seq: Vec<u32> = (0..300).map(|_| rng.gen_range(0..500)).collect();
        let service = service();
        let id = ingest(&service, &seq);

        let direct = SemiLocalLis::new(&seq);
        let response = service.handle_line(&format!(
            r#"{{"op":"window","id":"{id}","windows":[[0,300],[10,40],[250,300]]}}"#
        ));
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        let lis = response.get("lis").and_then(Value::as_arr).unwrap();
        for (value, (l, r)) in lis.iter().zip([(0, 300), (10, 40), (250, 300)]) {
            assert_eq!(value.as_int().unwrap() as usize, direct.lis_window(l, r));
        }

        // Append, then query through the NEW id; the old id is retired.
        let block: Vec<u32> = (0..50).map(|_| rng.gen_range(0..500)).collect();
        let rendered: Vec<String> = block.iter().map(|v| v.to_string()).collect();
        let response = service.handle_line(&format!(
            r#"{{"op":"append","id":"{id}","block":[{}]}}"#,
            rendered.join(",")
        ));
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        let new_id = response
            .get("id")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        assert_ne!(new_id, id);
        assert!(response
            .get("ledger")
            .and_then(|l| l.get("append_comm"))
            .is_some());

        let mut full = seq.clone();
        full.extend_from_slice(&block);
        let direct = SemiLocalLis::new(&full);
        let response = service.handle_line(&format!(
            r#"{{"op":"window","id":"{new_id}","l":0,"r":350}}"#
        ));
        let lis = response.get("lis").and_then(Value::as_arr).unwrap();
        assert_eq!(lis[0].as_int().unwrap() as usize, direct.lis_window(0, 350));
    }

    #[test]
    fn colliding_sequences_are_refused_not_served() {
        // Different sequences with equal FNV-1a content hashes; the shared
        // suffix `7` keeps them colliding through an append re-key.
        let (a, b) = ([2558450625u32, 3386183631], [3229645608u32, 1749676266]);
        assert_eq!(crate::content_hash(&a), crate::content_hash(&b));
        let ok = |response: &Value| response.get("ok").and_then(Value::as_bool);
        let hits = |service: &Service| {
            let stats = service.handle_line(r#"{"op":"stats"}"#);
            stats
                .get("cache")
                .and_then(|c| c.get("hits"))
                .and_then(Value::as_int)
        };

        let service = service();
        ingest(&service, &a);
        let response =
            service.handle_line(&format!(r#"{{"op":"ingest","seq":[{},{}]}}"#, b[0], b[1]));
        assert_eq!(ok(&response), Some(false), "{response}");
        assert_eq!(hits(&service), Some(0));

        let service = self::service();
        let b_id = ingest(&service, &b);
        let a7_id = ingest(&service, &[a[0], a[1], 7]);
        let response =
            service.handle_line(&format!(r#"{{"op":"append","id":"{b_id}","block":[7]}}"#));
        assert_eq!(ok(&response), Some(false), "{response}");
        assert_eq!(hits(&service), Some(0));
        // Both entries still answer for their own content.
        let lis = |id: &str| {
            let response =
                service.handle_line(&format!(r#"{{"op":"window","id":"{id}","l":0,"r":2}}"#));
            response
                .get("lis")
                .and_then(Value::as_arr)
                .map(|lis| lis[0].as_int())
        };
        assert_eq!(lis(&b_id), Some(Some(1)));
        assert_eq!(lis(&a7_id), Some(Some(2)));
    }

    #[test]
    fn window_errors_are_responses_not_panics() {
        let service = service();
        let id = ingest(&service, &[3, 1, 4, 1, 5]);
        for (line, needle) in [
            (
                format!(r#"{{"op":"window","id":"{id}","l":4,"r":2}}"#),
                "window",
            ),
            (
                format!(r#"{{"op":"window","id":"{id}","l":0,"r":99}}"#),
                "length",
            ),
            (
                r#"{"op":"window","id":"00000000000000ff","l":0,"r":1}"#.to_string(),
                "unknown kernel id",
            ),
            (
                r#"{"op":"window","id":"not-hex","l":0,"r":1}"#.to_string(),
                "malformed",
            ),
        ] {
            let response = service.handle_line(&line);
            assert_eq!(
                response.get("ok").and_then(Value::as_bool),
                Some(false),
                "{line}"
            );
            let error = response.get("error").and_then(Value::as_str).unwrap();
            assert!(error.contains(needle), "{line}: {error}");
        }
    }

    #[test]
    fn witness_answers_are_real_increasing_subsequences() {
        let mut rng = StdRng::seed_from_u64(62);
        let seq: Vec<u32> = (0..400).map(|_| rng.gen_range(0..300)).collect();
        let service = service();
        let id = ingest(&service, &seq);
        let direct = SemiLocalLis::new(&seq);

        let response = service.handle_line(&format!(
            r#"{{"op":"witness","id":"{id}","ranges":[[0,300],[50,200],[120,121]]}}"#
        ));
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(response.get("batch").and_then(Value::as_int), Some(3));
        let witnesses = response.get("witnesses").and_then(Value::as_arr).unwrap();
        assert_eq!(witnesses.len(), 3);
        for (witness, (lo, hi)) in witnesses
            .iter()
            .zip([(0u32, 300u32), (50, 200), (120, 121)])
        {
            let positions: Vec<usize> = witness
                .get("positions")
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|p| p.as_int().unwrap() as usize)
                .collect();
            // Strictly increasing positions and values, all inside the range.
            for pair in positions.windows(2) {
                assert!(pair[0] < pair[1]);
                assert!(seq[pair[0]] < seq[pair[1]]);
            }
            for &p in &positions {
                assert!((lo..hi).contains(&seq[p]));
            }
            // And as long as the best possible inside the range.
            let filtered: Vec<u32> = seq
                .iter()
                .copied()
                .filter(|v| (lo..hi).contains(v))
                .collect();
            assert_eq!(positions.len(), seaweed_lis::lis::lis_length(&filtered));
        }

        // The full-sequence witness (no ranges) realizes the global LIS.
        let response = service.handle_line(&format!(r#"{{"op":"witness","id":"{id}"}}"#));
        let witnesses = response.get("witnesses").and_then(Value::as_arr).unwrap();
        let positions = witnesses[0]
            .get("positions")
            .and_then(Value::as_arr)
            .unwrap();
        assert_eq!(positions.len(), direct.lis_window(0, direct.len()));

        // Inverted value ranges are rejected, not asserted on.
        let response = service.handle_line(&format!(
            r#"{{"op":"witness","id":"{id}","ranges":[[9,3]]}}"#
        ));
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn stats_and_dedupe_counters_flow_through() {
        let service = service();
        let id = ingest(&service, &[5, 2, 8, 6, 3, 6, 9, 7]);
        let again = ingest(&service, &[5, 2, 8, 6, 3, 6, 9, 7]);
        assert_eq!(id, again, "identical ingest dedupes to the same id");
        let response = service.handle_line(r#"{"op":"stats"}"#);
        assert_eq!(response.get("entries").and_then(Value::as_int), Some(1));
        assert_eq!(response.get("violations").and_then(Value::as_int), Some(0));
        let cache = response.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Value::as_int), Some(1));
        assert_eq!(cache.get("misses").and_then(Value::as_int), Some(1));
        assert!(response.get("bytes").and_then(Value::as_int).unwrap() > 0);
    }
}
