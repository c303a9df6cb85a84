//! Line-JSON TCP transport: one request per line, one response line per
//! request, a thread per connection over one shared [`Service`].
//!
//! The `shutdown` op answers, flips the running flag, and pokes the accept
//! loop with a self-connection so the listener thread exits promptly. A
//! [`Client`] helper wraps the connect/write/read-line/parse dance for tests,
//! examples and benchmarks.

use crate::json::Value;
use crate::protocol::{error_response, Request};
use crate::service::{Service, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running analytics server; dropping it does **not** stop it — call
/// [`Server::shutdown`] (or send the `shutdown` op) and then [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds a loopback listener on an OS-assigned port and starts serving.
    pub fn start(config: ServiceConfig) -> std::io::Result<Server> {
        Server::bind("127.0.0.1:0", config)
    }

    /// Binds `addr` and starts serving.
    pub fn bind(addr: &str, config: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(Service::new(config));
        let running = Arc::new(AtomicBool::new(true));
        let acceptor = {
            let running = Arc::clone(&running);
            // conformance: allow(raw-spawn) — the accept loop is the one
            // long-lived service thread; `Server::join` shuts it down by
            // clearing `running` and poking the socket.
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if !running.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let service = Arc::clone(&service);
                    let running = Arc::clone(&running);
                    // Detached: a connection thread lives until its client
                    // hangs up. Joining them here would deadlock `join()`
                    // against clients that outlive the shutdown request.
                    // conformance: allow(raw-spawn) — per-connection I/O
                    // threads; they exit when the client disconnects or
                    // `running` clears, and never touch the rayon pool.
                    std::thread::spawn(move || {
                        serve_connection(stream, &service, &running, addr);
                    });
                }
            })
        };
        Ok(Server {
            addr,
            running,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (connect a [`Client`] here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections (idempotent; also triggered by the
    /// `shutdown` op).
    pub fn shutdown(&self) {
        request_stop(&self.running, self.addr);
    }

    /// Waits for the accept loop to finish. In-flight connections drain on
    /// their own threads and end when their clients hang up.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Longest request line the server reads, in bytes without the newline. The
/// largest line the repository sends, a 2^16-value ingest, is under 720 KiB,
/// so 16 MiB leaves more than 20× headroom while bounding what one client can
/// make the server buffer.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Flips the running flag and unblocks the accept loop with a self-connect.
fn request_stop(running: &AtomicBool, addr: SocketAddr) {
    if running.swap(false, Ordering::SeqCst) {
        let _ = TcpStream::connect(addr);
    }
}

fn serve_connection(stream: TcpStream, service: &Service, running: &AtomicBool, addr: SocketAddr) {
    // One write per response: `write!` straight into a TcpStream would issue
    // a tiny packet per format fragment and stall on Nagle + delayed ACKs.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // At most one byte past the cap: enough to tell an over-long line.
        let limit = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            // The rest of the line is never read: refuse and hang up.
            let refusal = error_response(&format!(
                "request line exceeds {MAX_LINE_BYTES} bytes; closing the connection"
            ));
            let _ = writer.write_all(format!("{refusal}\n").as_bytes());
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, stop) = match Request::parse(line.trim_end()) {
            Ok(request) => {
                let stop = request == Request::Shutdown;
                (service.handle(&request), stop)
            }
            Err(e) => (error_response(&e), false),
        };
        if writer
            .write_all(format!("{response}\n").as_bytes())
            .is_err()
        {
            break;
        }
        if stop {
            let _ = writer.flush();
            request_stop(running, addr);
            break;
        }
    }
}

/// A blocking line-JSON client for the analytics service.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Sends one request line and parses the response line.
    pub fn request(&mut self, line: &str) -> Result<Value, String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer
            .write_all(framed.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut response = String::new();
        let read = self
            .reader
            .read_line(&mut response)
            .map_err(|e| e.to_string())?;
        if read == 0 {
            return Err("server closed the connection".to_string());
        }
        Value::parse(response.trim_end())
    }

    /// Sends one request object and parses the response line.
    pub fn request_value(&mut self, request: &Value) -> Result<Value, String> {
        self.request(&request.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use seaweed_lis::lis::SemiLocalLis;
    use std::time::Duration;

    fn test_config() -> ServiceConfig {
        ServiceConfig {
            block_size: 32,
            batch_window: Duration::from_millis(40),
            ..ServiceConfig::default()
        }
    }

    fn ingest(client: &mut Client, seq: &[u32]) -> String {
        let rendered: Vec<String> = seq.iter().map(|v| v.to_string()).collect();
        let response = client
            .request(&format!(
                r#"{{"op":"ingest","seq":[{}]}}"#,
                rendered.join(",")
            ))
            .unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        response
            .get("id")
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    }

    #[test]
    fn serves_windows_and_witnesses_over_the_wire() {
        let mut rng = StdRng::seed_from_u64(71);
        let seq: Vec<u32> = (0..256).map(|_| rng.gen_range(0..400)).collect();
        let direct = SemiLocalLis::new(&seq);

        let server = Server::start(test_config()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let id = ingest(&mut client, &seq);

        let response = client
            .request(&format!(
                r#"{{"op":"window","id":"{id}","windows":[[0,256],[30,90]]}}"#
            ))
            .unwrap();
        let lis = response.get("lis").and_then(Value::as_arr).unwrap();
        assert_eq!(lis[0].as_int().unwrap() as usize, direct.lis_window(0, 256));
        assert_eq!(lis[1].as_int().unwrap() as usize, direct.lis_window(30, 90));

        let response = client
            .request(&format!(r#"{{"op":"witness","id":"{id}"}}"#))
            .unwrap();
        let witnesses = response.get("witnesses").and_then(Value::as_arr).unwrap();
        let positions = witnesses[0]
            .get("positions")
            .and_then(Value::as_arr)
            .unwrap();
        assert_eq!(positions.len(), direct.lis_window(0, direct.len()));

        // Malformed lines come back as error responses, not dropped sockets.
        let response = client.request("this is not json").unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
        let response = client
            .request(&format!(r#"{{"op":"window","id":"{id}","l":9,"r":3}}"#))
            .unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));

        client.request(r#"{"op":"shutdown"}"#).unwrap();
        server.join();
    }

    #[test]
    fn second_connection_hits_the_hot_kernel() {
        let mut rng = StdRng::seed_from_u64(72);
        let seq: Vec<u32> = (0..200).map(|_| rng.gen_range(0..300)).collect();
        let server = Server::start(test_config()).unwrap();

        let mut first = Client::connect(server.addr()).unwrap();
        let id = ingest(&mut first, &seq);

        let mut second = Client::connect(server.addr()).unwrap();
        let again = ingest(&mut second, &seq);
        assert_eq!(id, again);
        let response = second.request(r#"{"op":"ingest","seq":[1,2,3]}"#).unwrap();
        assert_eq!(response.get("cached").and_then(Value::as_bool), Some(false));
        let response = second.request(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(response.get("entries").and_then(Value::as_int), Some(2));
        let counters = response.get("cache").unwrap();
        assert_eq!(counters.get("hits").and_then(Value::as_int), Some(1));

        server.shutdown();
        server.join();
    }

    #[test]
    fn over_long_line_is_refused_and_the_server_keeps_serving() {
        let server = Server::start(test_config()).unwrap();
        // One byte past the cap, with no newline: the server must answer
        // without waiting for the line to end, then close the connection.
        let mut hostile = Client::connect(server.addr()).unwrap();
        hostile
            .writer
            .write_all(&vec![b' '; MAX_LINE_BYTES + 1])
            .unwrap();
        let mut response = String::new();
        hostile.reader.read_line(&mut response).unwrap();
        let response = Value::parse(response.trim_end()).unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
        let error = response.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains("exceeds"), "{error}");
        let mut rest = String::new();
        assert_eq!(hostile.reader.read_line(&mut rest).unwrap(), 0, "closed");

        // A line of exactly the cap is still read, and a fresh connection is
        // served as usual.
        let mut fresh = Client::connect(server.addr()).unwrap();
        let mut padded = String::from(r#"{"op":"stats"}"#);
        padded.extend(std::iter::repeat_n(' ', MAX_LINE_BYTES - padded.len()));
        let response = fresh.request(&padded).unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        let response = fresh.request(r#"{"op":"ingest","seq":[3,1,2]}"#).unwrap();
        assert_eq!(response.get("lis").and_then(Value::as_int), Some(2));

        server.shutdown();
        server.join();
    }

    #[test]
    fn concurrent_single_range_witnesses_coalesce_across_connections() {
        let mut rng = StdRng::seed_from_u64(73);
        let seq: Vec<u32> = (0..300).map(|_| rng.gen_range(0..500)).collect();
        let server = Server::start(test_config()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let id = ingest(&mut client, &seq);
        // Warm the trace so the batch leader's descent is cheap and the
        // followers' join window is easy to hit.
        client
            .request(&format!(r#"{{"op":"witness","id":"{id}"}}"#))
            .unwrap();

        let addr = server.addr();
        let threads: Vec<_> = (0..4u32)
            .map(|i| {
                let id = id.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let lo = i * 20;
                    let response = client
                        .request(&format!(
                            r#"{{"op":"witness","id":"{id}","lo":{lo},"hi":480}}"#
                        ))
                        .unwrap();
                    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
                    response.get("batch").and_then(Value::as_int).unwrap()
                })
            })
            .collect();
        let batches: Vec<i64> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        // Correctness is asserted above; coalescing across sockets is timing
        // dependent, so just require the protocol reported sane batch sizes.
        assert!(batches.iter().all(|&b| (1..=4).contains(&b)), "{batches:?}");

        server.shutdown();
        server.join();
    }
}
