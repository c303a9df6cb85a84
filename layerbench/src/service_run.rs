//! The `service_read` workload, driven over loopback sockets by [`Client`]
//! connections on scoped threads: set-up ingests the hot sequences and warms
//! their query structures and witness traces; then a closed loop per client
//! draws requests from a fixed seeded pool, 9 `window` to 1 single-range
//! `witness`.
//!
//! Every answer is checked: windows against a `SemiLocalLis` built before
//! the set-up clock starts, witnesses by [`crate::check::witness`] against a
//! patience-sorting length, ingest lengths against patience.

use crate::check::{self, Tally};
use crate::gen::{self, tag, Query};
use crate::report;
use crate::stats::median_of;
use crate::trace::Tracer;
use crate::{Measured, Prepared, RunConfig, Scale, Traffic};
use lis_service::{Client, Server, Value};
use rand::prelude::*;
use seaweed_lis::baselines::lis_length_patience;
use seaweed_lis::lis::SemiLocalLis;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One in ten pooled requests is a witness.
const WITNESS_EVERY: u32 = 10;

/// Renders an `ingest` request line.
pub fn ingest_line(seq: &[u32]) -> String {
    let rendered: Vec<String> = seq.iter().map(u32::to_string).collect();
    format!(r#"{{"op":"ingest","seq":[{}]}}"#, rendered.join(","))
}

/// Renders an `append` request line.
pub fn append_line(id: &str, block: &[u32]) -> String {
    let rendered: Vec<String> = block.iter().map(u32::to_string).collect();
    format!(
        r#"{{"op":"append","id":"{id}","block":[{}]}}"#,
        rendered.join(",")
    )
}

/// Renders a pooled request line for the kernel `id`.
pub fn query_line(id: &str, query: &Query) -> String {
    match *query {
        Query::Window { l, r } => format!(r#"{{"op":"window","id":"{id}","l":{l},"r":{r}}}"#),
        Query::Witness { lo, hi } => {
            format!(r#"{{"op":"witness","id":"{id}","lo":{lo},"hi":{hi}}}"#)
        }
    }
}

/// A hot sequence with its oracle and its seeded request pool.
pub struct Hot {
    /// The sequence.
    pub seq: Vec<u32>,
    /// Its kernel id once ingested.
    pub id: String,
    /// Window pool with oracle answers.
    pub windows: Vec<((usize, usize), usize)>,
    /// Witness pool with oracle lengths.
    pub witnesses: Vec<((u32, u32), usize)>,
    /// `LIS(seq)`.
    pub lis: usize,
}

impl Hot {
    /// Generates hot sequence `index` and computes every oracle answer.
    pub fn new(scale: &Scale, n: usize, seed: u64, index: u64) -> Hot {
        Hot::from_seq(
            scale,
            gen::service_sequence(n, gen::mix(seed, tag::HOT + index)),
            seed,
            index,
        )
    }

    /// Wraps a given sequence with the request pool hot sequence `index`
    /// would get, and its oracle answers.
    pub fn from_seq(scale: &Scale, seq: Vec<u32>, seed: u64, index: u64) -> Hot {
        let n = seq.len();
        let oracle = SemiLocalLis::new(&seq);
        let windows = gen::windows(n, scale.window_pool, gen::mix(seed, tag::POOL + 2 * index))
            .into_iter()
            .map(|(l, r)| ((l, r), oracle.lis_window(l, r)))
            .collect();
        let span = (n as u32 / 2).max(2);
        let witnesses = gen::value_ranges(
            span,
            scale.witness_pool,
            gen::mix(seed, tag::POOL + 2 * index + 1),
        )
        .into_iter()
        .map(|(lo, hi)| ((lo, hi), check::range_lis(&seq, lo, hi)))
        .collect();
        let lis = lis_length_patience(&seq);
        Hot {
            seq,
            id: String::new(),
            windows,
            witnesses,
            lis,
        }
    }
}

/// A connected client, or the error that stopped it.
fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// Sends one request and returns the response with its latency in ms.
fn timed(client: &mut Client, line: &str) -> (Result<Value, String>, f64) {
    let started = Instant::now();
    let response = client.request(line);
    (response, started.elapsed().as_secs_f64() * 1e3)
}

/// Ingests `hot` (checking the reported length) and warms its query
/// structure and witness trace.
fn ingest_and_warm(client: &mut Client, hot: &mut Hot, tally: &mut Tally) -> Result<(), String> {
    let response = client.request(&ingest_line(&hot.seq))?;
    check::ok(&response)?;
    hot.id = check::str_field(&response, "id")?;
    let lis = check::int_field(&response, "lis")? as usize;
    tally.record(if lis == hot.lis {
        Ok(())
    } else {
        Err(format!(
            "ingest reported LIS {lis}, patience says {}",
            hot.lis
        ))
    });
    let &((l, r), want) = &hot.windows[0];
    let response = client.request(&query_line(&hot.id, &Query::Window { l, r }))?;
    tally.record(check::window_answer(&response).and_then(|got| expect_eq(got, want, "window")));
    let &((lo, hi), want) = &hot.witnesses[0];
    let response = client.request(&query_line(&hot.id, &Query::Witness { lo, hi }))?;
    tally.record(
        check::witness_answer(&response)
            .and_then(|(p, _)| check::witness(&hot.seq, &p, lo, hi, want)),
    );
    Ok(())
}

fn expect_eq(got: usize, want: usize, what: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} answered {got}, oracle says {want}"))
    }
}

/// Reads the server's counters and checks it recorded no space violation.
pub(crate) fn read_stats(client: &mut Client, traffic: &mut Traffic, tally: &mut Tally) {
    let verdict = client.request(r#"{"op":"stats"}"#).and_then(|response| {
        check::ok(&response)?;
        let counters = response.get("cache").ok_or("stats lacks `cache`")?;
        traffic.hits = check::int_field(counters, "hits")? as u64;
        traffic.misses = check::int_field(counters, "misses")? as u64;
        traffic.evictions = check::int_field(counters, "evictions")? as u64;
        match check::int_field(&response, "violations")? {
            0 => Ok(()),
            v => Err(format!("the service recorded {v} space violations")),
        }
    });
    tally.record(verdict);
}

/// Stops a server and waits for its accept loop.
fn stop(server: Server) {
    server.shutdown();
    server.join();
}

/// A request drawn from a hot pool: the line, what it asks and the answer.
struct Pooled {
    line: String,
    query: Query,
    want: usize,
    hot: usize,
}

fn pool_lines(hots: &[Hot]) -> (Vec<Pooled>, Vec<Pooled>) {
    let mut windows = Vec::new();
    let mut witnesses = Vec::new();
    for (h, hot) in hots.iter().enumerate() {
        for &((l, r), want) in &hot.windows {
            let query = Query::Window { l, r };
            windows.push(Pooled {
                line: query_line(&hot.id, &query),
                query,
                want,
                hot: h,
            });
        }
        for &((lo, hi), want) in &hot.witnesses {
            let query = Query::Witness { lo, hi };
            witnesses.push(Pooled {
                line: query_line(&hot.id, &query),
                query,
                want,
                hot: h,
            });
        }
    }
    (windows, witnesses)
}

/// Checks a pooled request's response.
fn check_pooled(
    hots: &[Hot],
    p: &Pooled,
    response: &Value,
    traffic: &mut Traffic,
) -> Result<(), String> {
    match p.query {
        Query::Window { .. } => expect_eq(check::window_answer(response)?, p.want, "window"),
        Query::Witness { lo, hi } => {
            let (positions, batch) = check::witness_answer(response)?;
            traffic.witness_batch.push(batch as f64);
            check::witness(&hots[p.hot].seq, &positions, lo, hi, p.want)
        }
    }
}

/// A closed loop of pooled requests over `clients` connections for
/// `seconds`: each client sends its next request when the previous answer
/// is back and checked.
pub fn closed_loop(
    addr: SocketAddr,
    hots: &[Hot],
    clients: usize,
    seconds: f64,
    seed: u64,
    tracer: &Tracer,
) -> Measured {
    let (windows, witnesses) = pool_lines(hots);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (started, cpu) = (Instant::now(), report::cpu_s());
    let per_client: Vec<Measured> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (windows, witnesses) = (&windows, &witnesses);
                s.spawn(move || {
                    let mut m = Measured::default();
                    let mut client = match connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            m.tally.record(Err(e));
                            return m;
                        }
                    };
                    let mut rng = StdRng::seed_from_u64(gen::mix(seed, tag::CLIENT + c as u64));
                    let mut request = (c as u64) << 40;
                    while Instant::now() < deadline {
                        request += 1;
                        let witness = rng.gen_range(0..WITNESS_EVERY) == 0;
                        let p = if witness {
                            &witnesses[rng.gen_range(0..witnesses.len())]
                        } else {
                            &windows[rng.gen_range(0..windows.len())]
                        };
                        tracer.span("bench.request", 0, request, |root| {
                            let name = if witness {
                                "lis_service.client.witness"
                            } else {
                                "lis_service.client.window"
                            };
                            let (response, ms) =
                                tracer.span(name, root, request, |_| timed(&mut client, &p.line));
                            if witness {
                                m.traffic.witness_ms.push(ms);
                            } else {
                                m.traffic.window_ms.push(ms);
                                m.op_ms.push(ms);
                            }
                            let verdict = tracer.span("bench.check", root, request, |_| {
                                response.and_then(|r| check_pooled(hots, p, &r, &mut m.traffic))
                            });
                            m.tally.record(verdict);
                            m.completed += 1;
                        });
                    }
                    m
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut total = Measured {
        elapsed_s: started.elapsed().as_secs_f64(),
        cpu_s: report::cpu_s() - cpu,
        ..Measured::default()
    };
    for m in per_client {
        total.tally.merge(m.tally);
        total.op_ms.extend(m.op_ms);
        total.completed += m.completed;
        total.traffic.merge(m.traffic);
    }
    total
}

/// Times `reps` set-ups; every one but the last is torn down again. Returns
/// the live server of the last, the set-up times and the set-up checks.
fn timed_setups<S>(
    reps: usize,
    mut setup: impl FnMut(&mut Tally) -> Result<(Server, S), String>,
) -> Result<(Server, S, Vec<f64>, Tally), String> {
    let mut times = Vec::new();
    let mut tally = Tally::default();
    for rep in 0..reps.max(1) {
        let started = Instant::now();
        let (server, state) = setup(&mut tally)?;
        times.push(started.elapsed().as_secs_f64());
        if rep + 1 == reps.max(1) {
            return Ok((server, state, times, tally));
        }
        stop(server);
    }
    unreachable!("the loop returns on its last repetition")
}

/// The prepared `service_read` workload.
pub struct ServiceRead {
    server: Option<Server>,
    hots: Vec<Hot>,
    clients: usize,
    seed: u64,
    loops: u64,
    setup: Vec<f64>,
    setup_tally: Tally,
}

/// Generates the hot sequences and their oracles (untimed), then times the
/// set-ups: start a server, ingest every hot sequence, warm each.
pub fn prepare_read(cfg: &RunConfig) -> Result<ServiceRead, String> {
    let mut hots: Vec<Hot> = (0..cfg.scale.read_sequences as u64)
        .map(|i| Hot::new(&cfg.scale, cfg.scale.read_n, cfg.seed, i))
        .collect();
    let config = cfg.scale.service_config();
    let (server, (), setup, setup_tally) = timed_setups(cfg.scale.setup_reps, |tally| {
        let server = Server::start(config).map_err(|e| format!("bind loopback: {e}"))?;
        let mut client = connect(server.addr())?;
        for hot in hots.iter_mut() {
            ingest_and_warm(&mut client, hot, tally)?;
        }
        Ok((server, ()))
    })?;
    Ok(ServiceRead {
        server: Some(server),
        hots,
        clients: cfg.clients,
        seed: cfg.seed,
        loops: 0,
        setup,
        setup_tally,
    })
}

impl Prepared for ServiceRead {
    fn run_loop(&mut self, seconds: f64, tracer: &Tracer) -> Measured {
        let server = self.server.as_ref().expect("server runs until finish");
        self.loops += 1;
        let seed = gen::mix(self.seed, self.loops);
        let mut m = closed_loop(
            server.addr(),
            &self.hots,
            self.clients,
            seconds,
            seed,
            tracer,
        );
        match connect(server.addr()) {
            Ok(mut client) => read_stats(&mut client, &mut m.traffic, &mut m.tally),
            Err(e) => m.tally.record(Err(e)),
        }
        m
    }

    fn setup_s(&self) -> f64 {
        median_of(&self.setup)
    }

    fn setup_tally(&self) -> Tally {
        self.setup_tally.clone()
    }

    fn service_sequence(&self) -> Vec<u32> {
        self.hots[0].seq.clone()
    }

    fn finish(mut self: Box<Self>) {
        if let Some(server) = self.server.take() {
            stop(server);
        }
    }
}
