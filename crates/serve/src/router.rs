//! A std-only fleet front: round-robin request forwarding over N
//! `lewis-serve` replica processes, with health-check eviction.
//!
//! The replicas share nothing at runtime — each is a full process with
//! its own engines (typically restored from the same shared pack
//! directory, see `lewis-serve --pack-dir`). The router makes them one
//! endpoint:
//!
//! * **round-robin** — each incoming request is forwarded to the next
//!   healthy replica; per-worker keep-alive connections to every
//!   replica amortize the hop;
//! * **health eviction** — a background prober hits every replica's
//!   `GET /healthz` on an interval; failing replicas stop receiving
//!   traffic until they answer again. A forward error also retries on
//!   the next healthy replica (the query lanes are reads — explain
//!   traffic is safe to replay; route writes at a single replica
//!   directly);
//! * **draining** — a replica going through graceful shutdown finishes
//!   its in-flight requests; the router's retry + eviction absorb the
//!   handoff, so a rolling restart sheds nothing;
//! * **own routes** — `GET /healthz` (router liveness + healthy replica
//!   count), `GET /router/metrics` (per-replica forward/error counters,
//!   the CI fleet-smoke gate that *both* replicas received traffic) and
//!   `POST /admin/shutdown`. Everything else is forwarded.
//!
//! When no replica is healthy the router answers a typed `503`
//! `no_healthy_replicas` rather than queueing — the fleet's
//! backpressure story lives in each replica's admission gate, not in a
//! buffer at the front.
//!
//! **Sizing rule**: each router worker may hold one keep-alive
//! connection *per replica*, and `lewis-serve` dedicates a worker
//! thread to every open connection — so run replicas with `--workers`
//! comfortably above the router's worker count (plus one spare for the
//! health prober and any admin traffic). A replica whose pool is fully
//! pinned by router connections cannot answer its own `/healthz` and
//! gets evicted as if it were down.

use crate::http::{read_request, write_response, HttpRequest, HttpResponse, ReadOutcome};
use crate::wire::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Router tunables.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// The replica addresses to spread over (at least one).
    pub replicas: Vec<SocketAddr>,
    /// Worker threads (each owns one client connection at a time).
    pub workers: usize,
    /// Idle read timeout on client keep-alive connections.
    pub read_timeout: Duration,
    /// How often the health prober polls each replica.
    pub health_interval: Duration,
    /// Largest accepted client request body.
    pub max_body: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            replicas: Vec::new(),
            workers: 4,
            read_timeout: Duration::from_secs(5),
            health_interval: Duration::from_millis(200),
            max_body: 1 << 20,
        }
    }
}

/// Largest replica response body the router will relay (a batch of 256
/// explanations is far below this; the cap only bounds a misbehaving
/// upstream).
const MAX_PROXY_BODY: usize = 64 << 20;

/// IO budget for one health probe.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// One replica's live state.
struct Replica {
    addr: SocketAddr,
    healthy: AtomicBool,
    forwarded: AtomicU64,
    errors: AtomicU64,
}

/// Shared router state.
struct RouterState {
    replicas: Vec<Replica>,
    /// Round-robin cursor.
    next: AtomicUsize,
    requests: AtomicU64,
    unrouted: AtomicU64,
    shutdown: AtomicBool,
    addr: SocketAddr,
    max_body: usize,
}

/// A running router. Dropping the handle does **not** stop it; call
/// [`Router::shutdown`].
pub struct Router {
    state: Arc<RouterState>,
    threads: Vec<JoinHandle<()>>,
}

/// Start a router over `config.replicas`. Returns once the listener is
/// bound, the workers are up and one initial health sweep has run (so
/// the first request already sees live health state).
pub fn route_serve(config: &RouterConfig) -> std::io::Result<Router> {
    if config.replicas.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "a router needs at least one replica",
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(RouterState {
        replicas: config
            .replicas
            .iter()
            .map(|&addr| Replica {
                addr,
                healthy: AtomicBool::new(false),
                forwarded: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            })
            .collect(),
        next: AtomicUsize::new(0),
        requests: AtomicU64::new(0),
        unrouted: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        addr,
        max_body: config.max_body,
    });

    // one synchronous sweep before accepting traffic
    for replica in &state.replicas {
        replica.healthy.store(probe(replica.addr), Ordering::SeqCst);
    }

    let workers = config.workers.max(1);
    let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) = sync_channel(workers);
    let rx = Arc::new(Mutex::new(rx));

    let mut threads = Vec::with_capacity(workers + 2);
    for i in 0..workers {
        let rx = Arc::clone(&rx);
        let state = Arc::clone(&state);
        let read_timeout = config.read_timeout;
        threads.push(
            std::thread::Builder::new()
                .name(format!("lewis-router-worker-{i}"))
                .spawn(move || loop {
                    let stream = {
                        let Ok(queue) = rx.lock() else { break };
                        match queue.recv() {
                            Ok(s) => s,
                            Err(_) => break,
                        }
                    };
                    handle_connection(stream, &state, read_timeout);
                })?,
        );
    }

    {
        let state = Arc::clone(&state);
        threads.push(
            std::thread::Builder::new()
                .name("lewis-router-acceptor".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if state.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        match stream {
                            Ok(s) => {
                                if tx.send(s).is_err() {
                                    break;
                                }
                            }
                            Err(_) => continue,
                        }
                    }
                })?,
        );
    }

    {
        let state = Arc::clone(&state);
        let interval = config.health_interval;
        threads.push(
            std::thread::Builder::new()
                .name("lewis-router-health".to_string())
                .spawn(move || {
                    while !state.shutdown.load(Ordering::SeqCst) {
                        for replica in &state.replicas {
                            replica.healthy.store(probe(replica.addr), Ordering::SeqCst);
                        }
                        std::thread::sleep(interval);
                    }
                })?,
        );
    }

    Ok(Router { state, threads })
}

impl Router {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Whether shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Block until the router stops on its own (admin shutdown route).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Graceful stop: raise the flag, poke the acceptor, join.
    pub fn shutdown(self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.state.addr);
        self.join();
    }
}

/// One health probe: `GET /healthz` answered `200` within the probe
/// budget.
fn probe(addr: SocketAddr) -> bool {
    let Ok(stream) = TcpStream::connect_timeout(&addr, PROBE_TIMEOUT) else {
        return false;
    };
    if stream.set_read_timeout(Some(PROBE_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(PROBE_TIMEOUT)).is_err()
    {
        return false;
    }
    let mut stream = stream;
    let request =
        b"GET /healthz HTTP/1.1\r\nhost: lewis-router\r\nconnection: close\r\ncontent-length: 0\r\n\r\n";
    if stream.write_all(request).is_err() {
        return false;
    }
    let mut head = [0u8; 16];
    let mut read = 0;
    while read < head.len() {
        match stream.read(&mut head[read..]) {
            Ok(0) => break,
            Ok(n) => read += n,
            Err(_) => return false,
        }
    }
    head[..read].starts_with(b"HTTP/1.1 200")
}

/// A worker-owned keep-alive connection to one replica.
struct ReplicaConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A replica's framed answer: status, lowercased headers, body.
type RelayedResponse = (u16, Vec<(String, String)>, Vec<u8>);

impl ReplicaConn {
    fn open(addr: SocketAddr, timeout: Duration) -> std::io::Result<ReplicaConn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(ReplicaConn {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Forward one request and read the full framed response.
    fn forward(&mut self, request: &HttpRequest) -> std::io::Result<RelayedResponse> {
        let head = format!(
            "{} {} HTTP/1.1\r\nhost: lewis-router\r\ncontent-length: {}\r\n\r\n",
            request.method,
            request.path,
            request.body.len()
        );
        let mut buf = head.into_bytes();
        buf.extend_from_slice(&request.body);
        self.writer.write_all(&buf)?;
        self.writer.flush()?;

        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "replica closed the connection",
            ));
        }
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad replica status line {status_line:?}"),
                )
            })?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "bad replica content-length",
                        )
                    })?;
                }
                headers.push((name, value));
            }
        }
        if content_length > MAX_PROXY_BODY {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "replica response exceeds the proxy body cap",
            ));
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, headers, body))
    }
}

/// Serve one client connection for its keep-alive lifetime.
fn handle_connection(stream: TcpStream, state: &RouterState, read_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // lazily-opened keep-alive connection per replica, owned by this
    // worker for this client connection's lifetime
    let mut conns: Vec<Option<ReplicaConn>> = state.replicas.iter().map(|_| None).collect();
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let outcome = match read_request(&mut reader, state.max_body) {
            Ok(o) => o,
            Err(_) => break,
        };
        let (response, done) = match outcome {
            ReadOutcome::Closed => break,
            ReadOutcome::Malformed(msg) => (
                error_response(400, "malformed_request", &msg).closing(),
                true,
            ),
            ReadOutcome::TooLarge { announced } => (
                error_response(
                    413,
                    "body_too_large",
                    &format!("announced {announced} bytes, limit {}", state.max_body),
                )
                .closing(),
                true,
            ),
            ReadOutcome::Request(request) => {
                state.requests.fetch_add(1, Ordering::Relaxed);
                let mut response = dispatch(&request, state, &mut conns);
                let close_after = !request.keep_alive() || state.shutdown.load(Ordering::SeqCst);
                if close_after {
                    response.close = true;
                }
                (response, close_after)
            }
        };
        if write_response(&mut writer, &response).is_err() {
            break;
        }
        if done || response.close {
            break;
        }
    }
}

/// The router's own routes, or a forward.
fn dispatch(
    request: &HttpRequest,
    state: &RouterState,
    conns: &mut [Option<ReplicaConn>],
) -> HttpResponse {
    let (path, _query) = request
        .path
        .split_once('?')
        .unwrap_or((request.path.as_str(), ""));
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            let healthy = state
                .replicas
                .iter()
                .filter(|r| r.healthy.load(Ordering::SeqCst))
                .count();
            HttpResponse::json(
                200,
                &Json::obj([
                    ("status", Json::str("ok")),
                    ("role", Json::str("router")),
                    ("replicas_healthy", Json::num(healthy as f64)),
                    ("replicas_total", Json::num(state.replicas.len() as f64)),
                ]),
            )
        }
        ("GET", "/router/metrics") => {
            let replicas: Vec<Json> = state
                .replicas
                .iter()
                .map(|r| {
                    Json::obj([
                        ("addr", Json::str(r.addr.to_string())),
                        ("healthy", Json::Bool(r.healthy.load(Ordering::SeqCst))),
                        (
                            "forwarded",
                            Json::num(r.forwarded.load(Ordering::Relaxed) as f64),
                        ),
                        ("errors", Json::num(r.errors.load(Ordering::Relaxed) as f64)),
                    ])
                })
                .collect();
            HttpResponse::json(
                200,
                &Json::obj([
                    (
                        "requests",
                        Json::num(state.requests.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "unrouted",
                        Json::num(state.unrouted.load(Ordering::Relaxed) as f64),
                    ),
                    ("replicas", Json::Arr(replicas)),
                ]),
            )
        }
        ("POST", "/admin/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(state.addr);
            HttpResponse::json(200, &Json::obj([("status", Json::str("shutting down"))])).closing()
        }
        _ => forward(request, state, conns),
    }
}

/// Forward one request round-robin, skipping unhealthy replicas and
/// retrying forward errors on the next candidate. Every replica gets
/// at most one attempt per request.
fn forward(
    request: &HttpRequest,
    state: &RouterState,
    conns: &mut [Option<ReplicaConn>],
) -> HttpResponse {
    let n = state.replicas.len();
    let start = state.next.fetch_add(1, Ordering::Relaxed);
    for attempt in 0..n {
        let i = (start + attempt) % n;
        let Some(replica) = state.replicas.get(i) else {
            continue;
        };
        if !replica.healthy.load(Ordering::SeqCst) {
            continue;
        }
        let Some(slot) = conns.get_mut(i) else {
            continue;
        };
        match forward_once(slot, replica, request) {
            Some(response) => {
                replica.forwarded.fetch_add(1, Ordering::Relaxed);
                return response;
            }
            None => {
                // connection-level failure: evict until the prober
                // clears it, try the next replica (query lanes are
                // reads; see module docs)
                replica.errors.fetch_add(1, Ordering::Relaxed);
                replica.healthy.store(false, Ordering::SeqCst);
            }
        }
    }
    state.unrouted.fetch_add(1, Ordering::Relaxed);
    error_response(
        503,
        "no_healthy_replicas",
        &format!("none of the {n} replicas answered"),
    )
}

/// One forward attempt over the worker's cached connection (re-opened
/// on demand). A *cached* connection failing is normal HTTP — the
/// replica may have closed it as idle — so that one case retries once
/// on a fresh socket before the replica is declared unreachable.
/// `None` means a genuine transport failure; the connection is dropped
/// either way it fails.
fn forward_once(
    slot: &mut Option<ReplicaConn>,
    replica: &Replica,
    request: &HttpRequest,
) -> Option<HttpResponse> {
    let cached = slot.is_some();
    if slot.is_none() {
        match ReplicaConn::open(replica.addr, PROBE_TIMEOUT.max(Duration::from_secs(5))) {
            Ok(conn) => *slot = Some(conn),
            Err(_) => return None,
        }
    }
    let conn = slot.as_mut()?;
    let result = match conn.forward(request) {
        Err(_) if cached => {
            // stale keep-alive: reopen and retry this replica once
            *slot = None;
            match ReplicaConn::open(replica.addr, PROBE_TIMEOUT.max(Duration::from_secs(5))) {
                Ok(conn) => slot.insert(conn).forward(request),
                Err(e) => Err(e),
            }
        }
        other => other,
    };
    match result {
        Ok((status, headers, body)) => {
            let mut response = HttpResponse {
                status,
                content_type: "application/json",
                body,
                close: false,
                headers: Vec::new(),
            };
            // relay the known extra headers (HttpResponse carries
            // static names only; these are the ones replicas emit)
            for (name, value) in headers {
                match name.as_str() {
                    "x-engine-generation" => {
                        response = response.with_header("x-engine-generation", value);
                    }
                    "retry-after" => {
                        response = response.with_header("retry-after", value);
                    }
                    _ => {}
                }
            }
            Some(response)
        }
        Err(_) => {
            *slot = None;
            None
        }
    }
}

fn error_response(status: u16, code: &str, message: &str) -> HttpResponse {
    HttpResponse::json(
        status,
        &Json::obj([(
            "error",
            Json::obj([("code", Json::str(code)), ("message", Json::str(message))]),
        )]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::registry::EngineRegistry;
    use crate::server::{serve, ServerConfig};

    fn replica() -> crate::server::Server {
        let mut reg = EngineRegistry::new();
        reg.load_builtin("german_syn", 300, 11).unwrap();
        serve(
            &ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
            Arc::new(reg),
        )
        .unwrap()
    }

    fn router_over(addrs: Vec<SocketAddr>) -> Router {
        route_serve(&RouterConfig {
            replicas: addrs,
            workers: 2,
            health_interval: Duration::from_millis(50),
            ..RouterConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn round_robin_spreads_and_relays_generation() {
        let a = replica();
        let b = replica();
        let router = router_over(vec![a.addr(), b.addr()]);
        let mut client = Client::connect(router.addr()).unwrap();

        let (status, health) = client.get("/healthz").unwrap();
        assert_eq!(status, 200);
        assert_eq!(health.get("replicas_healthy").unwrap().as_f64(), Some(2.0));

        for _ in 0..10 {
            let (status, body) = client
                .post("/v1/engines/german_syn/explain", r#"{"kind":"global"}"#)
                .unwrap();
            assert_eq!(status, 200, "{body:?}");
            assert_eq!(
                client.response_header("x-engine-generation"),
                Some("1"),
                "the replica's generation header is relayed"
            );
        }

        let (_, metrics) = client.get("/router/metrics").unwrap();
        let replicas = metrics.get("replicas").unwrap().as_arr().unwrap();
        for r in replicas {
            assert!(
                r.get("forwarded").unwrap().as_f64().unwrap() >= 4.0,
                "round-robin reaches every replica: {metrics:?}"
            );
        }
        router.shutdown();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn dead_replica_is_evicted_and_survivor_carries_the_load() {
        let a = replica();
        let b = replica();
        let b_addr = b.addr();
        let router = router_over(vec![a.addr(), b_addr]);
        let mut client = Client::connect(router.addr()).unwrap();

        b.shutdown();
        // the prober (50 ms interval) notices; forwards retry meanwhile
        for _ in 0..20 {
            let (status, body) = client
                .post("/v1/engines/german_syn/explain", r#"{"kind":"global"}"#)
                .unwrap();
            assert_eq!(status, 200, "no client-visible error: {body:?}");
        }
        std::thread::sleep(Duration::from_millis(120));
        let (_, health) = client.get("/healthz").unwrap();
        assert_eq!(health.get("replicas_healthy").unwrap().as_f64(), Some(1.0));

        router.shutdown();
        a.shutdown();
    }

    #[test]
    fn no_replicas_is_a_typed_503_and_empty_config_is_rejected() {
        assert!(route_serve(&RouterConfig::default()).is_err());

        // a replica that never existed: probe fails, everything 503s
        let unused = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead = unused.local_addr().unwrap();
        drop(unused);
        let router = router_over(vec![dead]);
        let mut client = Client::connect(router.addr()).unwrap();
        let (status, body) = client
            .post("/v1/engines/german_syn/explain", r#"{"kind":"global"}"#)
            .unwrap();
        assert_eq!(status, 503);
        assert_eq!(
            body.get("error").unwrap().get("code").unwrap().as_str(),
            Some("no_healthy_replicas")
        );
        router.shutdown();
    }
}
