//! A std-only fleet front: round-robin request forwarding over N
//! `lewis-serve` replica processes, with health-check eviction.
//!
//! The replicas share nothing at runtime — each is a full process with
//! its own engines (typically restored from the same shared pack
//! directory, see `lewis-serve --pack-dir`). The router makes them one
//! endpoint. It runs on the same listener, worker pool and connection
//! loop as the server ([`crate::http`]) and talks to its replicas with
//! [`Client`], relaying each answer's body bytes verbatim:
//!
//! * **round-robin** — each incoming request is forwarded to the next
//!   healthy replica;
//! * **health eviction** — a background prober hits every replica's
//!   `GET /healthz` on an interval; failing replicas stop receiving
//!   traffic until they answer again;
//! * **replay policy** — only [`replayable`] requests (every `GET` and
//!   the synchronous explain) ride per-worker keep-alive connections
//!   and, after a transport error, are retried on the next healthy
//!   replica. Every other request (appends, compactions, async
//!   submissions, admin lifecycle) goes to one replica, once, on a
//!   fresh connection: it moves on only when that connection cannot be
//!   opened, and a failure after it was sent answers a typed `502`
//!   `forward_failed`, because the replica may have applied it;
//! * **draining** — a replica going through graceful shutdown finishes
//!   its in-flight requests; the router's retry + eviction absorb the
//!   handoff, so a rolling restart sheds no reads;
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
//! health prober, the router's one-shot write connections and any
//! admin traffic). A replica whose pool is fully pinned by router
//! connections cannot answer its own `/healthz` and gets evicted as if
//! it were down.

use crate::client::Client;
use crate::http::{self, error_response, Handler, HttpReply, HttpRequest, HttpResponse, Switch};
use crate::server::replayable;
use crate::wire::Json;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
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

/// IO budget for one health probe.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// IO budget for one forwarded request.
const FORWARD_TIMEOUT: Duration = Duration::from_secs(5);

/// The replica response headers the router relays (the ones replicas
/// emit besides the framing).
const RELAYED_HEADERS: [&str; 2] = ["x-engine-generation", "retry-after"];

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
}

/// A running router. Dropping the handle does **not** stop it; call
/// [`Router::shutdown`].
pub struct Router {
    listener: http::Listener,
    health: JoinHandle<()>,
}

/// Start a router over `config.replicas`. Returns once one initial
/// health sweep has run (so the first request already sees live health
/// state), the listener is bound and the workers are up.
pub fn route_serve(config: &RouterConfig) -> std::io::Result<Router> {
    if config.replicas.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "a router needs at least one replica",
        ));
    }
    let state = Arc::new(RouterState {
        replicas: config
            .replicas
            .iter()
            .map(|&addr| Replica {
                addr,
                // one synchronous sweep before accepting traffic
                healthy: AtomicBool::new(probe(addr)),
                forwarded: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            })
            .collect(),
        next: AtomicUsize::new(0),
        requests: AtomicU64::new(0),
        unrouted: AtomicU64::new(0),
    });
    let listener = http::listen(
        "lewis-router",
        &config.addr,
        config.workers,
        config.read_timeout,
        config.max_body,
        Arc::clone(&state),
    )?;

    let switch = Arc::clone(listener.switch());
    let interval = config.health_interval;
    let health = std::thread::Builder::new()
        .name("lewis-router-health".to_string())
        .spawn(move || {
            while !switch.is_set() {
                for replica in &state.replicas {
                    replica.healthy.store(probe(replica.addr), Ordering::SeqCst);
                }
                std::thread::sleep(interval);
            }
        });
    match health {
        Ok(health) => Ok(Router { listener, health }),
        Err(e) => {
            listener.switch().set();
            listener.join();
            Err(e)
        }
    }
}

impl Router {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Whether shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.listener.switch().is_set()
    }

    /// Block until the router stops on its own (admin shutdown route).
    pub fn join(self) {
        self.listener.join();
        let _ = self.health.join();
    }

    /// Graceful stop: raise the flag, poke the acceptor, join.
    pub fn shutdown(self) {
        self.listener.switch().set();
        self.join();
    }
}

/// One health probe: `GET /healthz` answered `200` within the probe
/// budget.
fn probe(addr: SocketAddr) -> bool {
    Client::connect_timeout(addr, PROBE_TIMEOUT)
        .and_then(|mut client| client.send("GET", "/healthz", b""))
        .is_ok_and(|reply| reply.status == 200)
}

impl Handler for RouterState {
    /// This client connection's lazily opened keep-alive connection to
    /// each replica, carrying replayable requests only.
    type Conn = Vec<Option<Client>>;

    fn open(&self) -> Self::Conn {
        self.replicas.iter().map(|_| None).collect()
    }

    /// The router's own routes, or a forward.
    fn handle(
        &self,
        request: &HttpRequest,
        conns: &mut Self::Conn,
        switch: &Switch,
    ) -> HttpResponse {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let (path, _query) = request
            .path
            .split_once('?')
            .unwrap_or((request.path.as_str(), ""));
        match (request.method.as_str(), path) {
            ("GET", "/healthz") => {
                let healthy = self
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
                        ("replicas_total", Json::num(self.replicas.len() as f64)),
                    ]),
                )
            }
            ("GET", "/router/metrics") => {
                let replicas: Vec<Json> = self
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
                            Json::num(self.requests.load(Ordering::Relaxed) as f64),
                        ),
                        (
                            "unrouted",
                            Json::num(self.unrouted.load(Ordering::Relaxed) as f64),
                        ),
                        ("replicas", Json::Arr(replicas)),
                    ]),
                )
            }
            ("POST", "/admin/shutdown") => {
                switch.set();
                HttpResponse::json(200, &Json::obj([("status", Json::str("shutting down"))]))
                    .closing()
            }
            _ => self.forward(request, conns),
        }
    }
}

impl RouterState {
    /// Forward one request round-robin, skipping unhealthy replicas.
    /// A replica whose connection fails is evicted until the prober
    /// clears it. A replayable request then moves on to the next
    /// candidate, so every replica gets at most one attempt (plus one
    /// re-send when its cached keep-alive connection had gone stale);
    /// any other request is sent at most once in all (module docs).
    fn forward(&self, request: &HttpRequest, conns: &mut [Option<Client>]) -> HttpResponse {
        let replay = replayable(&request.method, &request.path);
        let send = |client: &mut Client| client.send(&request.method, &request.path, &request.body);
        let n = self.replicas.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        for i in (0..n).map(|attempt| (start + attempt) % n) {
            let (Some(replica), Some(slot)) = (self.replicas.get(i), conns.get_mut(i)) else {
                continue;
            };
            if !replica.healthy.load(Ordering::SeqCst) {
                continue;
            }
            if replay {
                // the replica may have closed a cached connection as
                // idle; then the request goes out again on a fresh one
                if let Some(mut client) = slot.take() {
                    if let Ok(reply) = send(&mut client) {
                        *slot = Some(client);
                        return relay(replica, reply);
                    }
                }
            }
            let mut client = match Client::connect_timeout(replica.addr, FORWARD_TIMEOUT) {
                Ok(client) => client,
                Err(_) => {
                    // nothing was sent: any request may try the next one
                    self.evict(replica);
                    continue;
                }
            };
            match send(&mut client) {
                Ok(reply) => {
                    if replay {
                        *slot = Some(client);
                    }
                    return relay(replica, reply);
                }
                Err(_) if replay => self.evict(replica),
                Err(e) => {
                    self.evict(replica);
                    return error_response(
                        502,
                        "forward_failed",
                        &format!(
                            "replica {} failed after the request was sent ({e}); \
                             it may or may not have been applied, and it was not retried",
                            replica.addr
                        ),
                    );
                }
            }
        }
        self.unrouted.fetch_add(1, Ordering::Relaxed);
        error_response(
            503,
            "no_healthy_replicas",
            &format!("none of the {n} replicas answered"),
        )
    }

    /// Count a transport failure and stop routing to the replica until
    /// the prober sees it healthy again.
    fn evict(&self, replica: &Replica) {
        replica.errors.fetch_add(1, Ordering::Relaxed);
        replica.healthy.store(false, Ordering::SeqCst);
    }
}

/// A replica's answer as the router's: status and body bytes verbatim,
/// plus the [`RELAYED_HEADERS`] it carried.
fn relay(replica: &Replica, reply: HttpReply) -> HttpResponse {
    replica.forwarded.fetch_add(1, Ordering::Relaxed);
    let headers = RELAYED_HEADERS
        .iter()
        .filter_map(|&name| Some((name, reply.header(name)?.to_string())))
        .collect();
    HttpResponse {
        status: reply.status,
        body: reply.body,
        close: false,
        headers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::http::{read_request, write_response, ReadOutcome};
    use crate::registry::EngineRegistry;
    use crate::server::{serve, ServerConfig};
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};

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

    /// A replica stand-in that answers `GET /healthz` and drops every
    /// other request unanswered, counting the ones it received.
    struct FakeReplica {
        addr: SocketAddr,
        delivered: Arc<AtomicUsize>,
        stop: Arc<AtomicBool>,
        thread: JoinHandle<()>,
    }

    impl FakeReplica {
        fn start() -> FakeReplica {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let delivered = Arc::new(AtomicUsize::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let (count, stopped) = (Arc::clone(&delivered), Arc::clone(&stop));
            let thread = std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stopped.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    stream
                        .set_read_timeout(Some(Duration::from_secs(2)))
                        .unwrap();
                    let mut writer = stream.try_clone().unwrap();
                    let mut reader = BufReader::new(stream);
                    while let Ok(ReadOutcome::Request(request)) = read_request(&mut reader, 1 << 20)
                    {
                        if request.path != "/healthz" {
                            count.fetch_add(1, Ordering::SeqCst);
                            break;
                        }
                        let ok = HttpResponse::json(200, &Json::obj([("status", Json::str("ok"))]));
                        if write_response(&mut writer, &ok).is_err() {
                            break;
                        }
                    }
                }
            });
            FakeReplica {
                addr,
                delivered,
                stop,
                thread,
            }
        }

        fn delivered(&self) -> usize {
            self.delivered.load(Ordering::SeqCst)
        }

        fn stop(self) {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            self.thread.join().unwrap();
        }
    }

    fn error_code(body: &Json) -> Option<&str> {
        body.get("error")?.get("code")?.as_str()
    }

    #[test]
    fn a_lost_write_is_a_typed_502_and_never_replayed() {
        let a = FakeReplica::start();
        let b = FakeReplica::start();
        let router = router_over(vec![a.addr, b.addr]);
        let mut client = Client::connect(router.addr()).unwrap();

        // a write whose answer is lost reaches one replica, once
        let (status, body) = client
            .post("/v1/engines/x/rows", r#"{"rows":[[0,0,0,0,0,0,0]]}"#)
            .unwrap();
        assert_eq!(a.delivered() + b.delivered(), 1, "the write was replayed");
        assert_eq!(status, 502, "{body:?}");
        assert_eq!(error_code(&body), Some("forward_failed"));

        // once the prober has both back, a sync explain (a read) is
        // still tried on every replica before the fleet gives up
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let (_, health) = client.get("/healthz").unwrap();
            if health.get("replicas_healthy").unwrap().as_f64() == Some(2.0) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "{health:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        let (status, body) = client
            .post("/v1/engines/x/explain", r#"{"kind":"global"}"#)
            .unwrap();
        assert_eq!(status, 503, "{body:?}");
        assert_eq!(error_code(&body), Some("no_healthy_replicas"));
        assert_eq!(a.delivered() + b.delivered(), 3, "one attempt per replica");

        router.shutdown();
        a.stop();
        b.stop();
    }

    #[test]
    fn oversized_bodies_are_a_typed_413_and_the_router_keeps_serving() {
        let a = replica();
        let router = router_over(vec![a.addr()]);
        let mut client = Client::connect(router.addr()).unwrap();
        let (status, body) = client
            .post("/v1/engines/german_syn/explain", &"x".repeat(3 << 20))
            .unwrap();
        assert_eq!(status, 413, "{body:?}");
        assert_eq!(error_code(&body), Some("body_too_large"));

        let mut fresh = Client::connect(router.addr()).unwrap();
        let (status, body) = fresh
            .post("/v1/engines/german_syn/explain", r#"{"kind":"global"}"#)
            .unwrap();
        assert_eq!(status, 200, "{body:?}");
        router.shutdown();
        a.shutdown();
    }
}
