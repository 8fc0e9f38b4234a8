//! The server: routing, the engine-facing handlers, and the hot
//! lifecycle, run on the shared listener, bounded worker pool and
//! keep-alive connection loop of [`crate::http`] (which documents the
//! concurrency and shutdown model).
//!
//! [`Server::shutdown`] (or `POST /admin/shutdown`) stops it
//! gracefully: in-flight responses are never cut off.
//!
//! Routes:
//!
//! | route | answer |
//! |---|---|
//! | `GET /healthz` | liveness + engine count |
//! | `GET /v1/engines` | every engine with its full schema and live-table state |
//! | `POST /v1/engines/{name}/explain` | one request or `{"batch": [...]}` |
//! | `POST /v1/engines/{name}/explain?mode=async` | the same explain, answer kept under a ticket: `202 {job_id}` |
//! | `POST /v1/engines/{name}/rows` | append `{"rows": [[codes…], …]}` to the live table |
//! | `POST /v1/engines/{name}/compact` | fold the delta into the base now |
//! | `GET /v1/jobs/{id}` | the ticket; its result replays the sync answer |
//! | `GET /metrics` | counters, latency quantiles, cache, admission and job-lane stats |
//! | `POST /admin/engines/{name}/load` | register a new engine from `{"path": "x.lewis"}` |
//! | `POST /admin/engines/{name}/swap` | atomically replace the engine from a same-schema pack |
//! | `POST /admin/engines/{name}/unload` | remove the engine (in-flight holders finish) |
//! | `POST /admin/shutdown` | graceful stop (for tests/automation) |
//!
//! [`replayable`] names the routes a router may send again when a
//! transport failure leaves the outcome unknown: every `GET` and the
//! synchronous explain.
//!
//! ## The hot lifecycle and admission control
//!
//! The `/admin/engines/{name}` routes drive the registry's hot
//! lifecycle: engines load, swap and unload while the workers keep
//! serving. A request that resolved an engine finishes against that
//! engine — entries are `Arc`s, a swap replaces the registry slot but
//! never the build a reader holds. Every load/swap stamps a registry-
//! wide monotonic **generation**; explain/append/compact responses
//! carry it in the `x-engine-generation` header (a header, not a body
//! field, so answer bytes stay identical across the fleet).
//!
//! Each engine owns an [`Admission`](crate::admission::Admission) gate
//! every explain passes through, synchronous or `?mode=async`. When the
//! gate sheds, the answer is a typed `429` with top-level
//! `retry_after_ms` and a `retry-after` header; shed counts per engine
//! appear in `/metrics`. The append/compact write lane is not
//! admission-gated.
//!
//! The append lane validates a whole batch (arity and domain of every
//! row) before any row lands — a bad row rejects the batch with a `400`
//! and the table is untouched. Accepted rows are visible to the very
//! next explain: the registry entry swaps in a new engine generation
//! whose merged counts equal a cold build over the concatenated table.
//! Once the delta outgrows its threshold a background compactor folds
//! it into the base; readers never block on the fold. Every generation
//! of a live table shares one counting-pass cache and one surrogate
//! cache, so appends never cool them.
//!
//! `?mode=async` is the synchronous explain with its answer stored under
//! a ticket: the worker that takes the submission resolves the engine,
//! passes the admission gate and runs the same payload, then answers
//! `202 {job_id, poll}`. Polling `GET /v1/jobs/{id}` returns the exact
//! status and body the synchronous route would have produced. There is
//! no queue and no thread of its own, so a ticket is finished when it is
//! issued; finished tickets expire after `TICKET_TTL` (300 s). At most
//! `MAX_TICKETS` are held at once: past that a submission is the typed
//! `429 queue_full`, issues no ticket and runs nothing.

use crate::admission::{Shed, ShedReason};
use crate::http::{self, error_json, error_response, Handler, HttpRequest, HttpResponse, Switch};
use crate::metrics::{Metrics, Route};
use crate::registry::EngineRegistry;
use crate::wire::{self, Json};
use crate::ServeError;
use lewis_core::Engine;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Server tunables. `Default` is sized for the tests and the demo;
/// production would raise `workers`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// Idle read timeout on keep-alive connections; bounds how long a
    /// silent client can pin a worker (and how long shutdown waits).
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_body: 1 << 20,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// Most queries accepted in one `{"batch": [...]}` body.
const MAX_BATCH: usize = 256;

/// How long a finished `?mode=async` ticket stays pollable; an expired
/// ticket answers `404` like one that was never issued.
const TICKET_TTL: Duration = Duration::from_secs(300);

/// Most `?mode=async` tickets held at once, payloads still running
/// included. A held ticket costs about 4.2 KB of RSS (100k cheap async
/// globals grew a server from 45 to 420 MB), so this bounds the store
/// near 17 MB however fast a client submits.
const MAX_TICKETS: usize = 4096;

/// Shared server state every worker sees.
struct ServerState {
    registry: Arc<EngineRegistry>,
    metrics: Metrics,
    /// The answers of `?mode=async` explains, by ticket.
    tickets: Tickets,
}

/// A finished async explain: its timings and its outcome.
#[derive(Clone)]
struct Ticket {
    /// From receipt to the start of the payload (the admission wait).
    waited: Duration,
    ran: Duration,
    /// The `(status, body)` pair the synchronous route answers, or the
    /// message of a payload that panicked.
    outcome: Result<(u16, Json), String>,
}

/// Lifetime ticket counters, for `/metrics`.
#[derive(Clone, Copy, Default)]
struct TicketCounters {
    submitted: u64,
    completed: u64,
    failed: u64,
    expired: u64,
    /// Submissions refused because the store was full.
    shed: u64,
}

#[derive(Default)]
struct TicketState {
    next_id: u64,
    /// Each ticket with the instant it was stored. Ids and instants are
    /// both taken under the lock, so both ascend together and expiry
    /// pops from the front.
    tickets: BTreeMap<u64, (Instant, Ticket)>,
    /// Slots reserved by payloads still running; they count against
    /// the cap like stored tickets.
    running: usize,
    counters: TicketCounters,
}

/// The ticket store behind `?mode=async`. The payload runs on the HTTP
/// worker that took the submission, so every ticket is finished when it
/// is stored; expiry is lazy, on the next store or lookup. At most `cap`
/// tickets are held, running payloads included.
struct Tickets {
    ttl: Duration,
    cap: usize,
    state: Mutex<TicketState>,
}

impl Tickets {
    fn new(ttl: Duration, cap: usize) -> Self {
        Tickets {
            ttl,
            cap,
            state: Mutex::default(),
        }
    }

    /// Lock the state and drop the expired tickets. Poison is
    /// recovered: every update is made whole under one lock hold, and
    /// payloads run outside it.
    fn lock(&self) -> MutexGuard<'_, TicketState> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let now = Instant::now();
        while let Some(oldest) = state.tickets.first_entry() {
            if now.duration_since(oldest.get().0) < self.ttl {
                break;
            }
            oldest.remove();
            state.counters.expired += 1;
        }
        state
    }

    /// Reserve a slot, run `payload` and store its answer under a fresh
    /// ticket id. A panicking payload is stored as failed and does not
    /// unwind into the caller's worker. When every slot is held the
    /// payload does not run: the shed is `queue_full`, with a retry
    /// hint of when the oldest ticket expires.
    fn run(&self, received: Instant, payload: impl FnOnce() -> (u16, Json)) -> Result<u64, Shed> {
        {
            let mut state = self.lock();
            if state.tickets.len() + state.running >= self.cap {
                state.counters.shed += 1;
                // with no ticket stored yet, the running ones are held a
                // whole TTL once they finish
                let held = state
                    .tickets
                    .first_key_value()
                    .map_or(Duration::ZERO, |(_, (at, _))| at.elapsed());
                let wait = self.ttl.saturating_sub(held);
                return Err(Shed {
                    reason: ShedReason::QueueFull,
                    retry_after_ms: (wait.as_millis() as u64).max(1),
                });
            }
            state.running += 1;
        }
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(payload)).map_err(|panic| {
            panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string())
        });
        let mut state = self.lock();
        state.running -= 1;
        let finished = Instant::now();
        let id = state.next_id;
        state.next_id += 1;
        state.counters.submitted += 1;
        if outcome.is_ok() {
            state.counters.completed += 1;
        } else {
            state.counters.failed += 1;
        }
        let ticket = Ticket {
            waited: started.duration_since(received),
            ran: finished.duration_since(started),
            outcome,
        };
        state.tickets.insert(id, (finished, ticket));
        Ok(id)
    }

    /// The ticket, or `None` when it was never issued or has expired.
    fn get(&self, id: u64) -> Option<Ticket> {
        self.lock()
            .tickets
            .get(&id)
            .map(|(_, ticket)| ticket.clone())
    }

    fn counters(&self) -> TicketCounters {
        self.lock().counters
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`Server::shutdown`].
pub struct Server {
    state: Arc<ServerState>,
    listener: http::Listener,
}

/// Start serving `registry` per `config`. Returns once the listener is
/// bound and the workers are up.
pub fn serve(config: &ServerConfig, registry: Arc<EngineRegistry>) -> std::io::Result<Server> {
    let state = Arc::new(ServerState {
        registry,
        metrics: Metrics::new(),
        tickets: Tickets::new(TICKET_TTL, MAX_TICKETS),
    });
    let listener = http::listen(
        "lewis-serve",
        &config.addr,
        config.workers,
        config.read_timeout,
        config.max_body,
        Arc::clone(&state),
    )?;
    Ok(Server { state, listener })
}

impl Server {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The live metrics (shared with the workers).
    pub fn metrics(&self) -> &Metrics {
        &self.state.metrics
    }

    /// Whether shutdown has been requested (e.g. over the admin route).
    pub fn shutdown_requested(&self) -> bool {
        self.listener.switch().is_set()
    }

    /// Block until the server stops on its own (admin shutdown route).
    pub fn join(self) {
        self.listener.join();
    }

    /// Graceful stop: raise the flag, poke the acceptor, join every
    /// thread. In-flight requests finish; idle keep-alive connections
    /// are released at their next read timeout.
    pub fn shutdown(self) {
        self.listener.switch().set();
        self.join();
    }
}

impl Handler for ServerState {
    type Conn = ();

    fn open(&self) {}

    fn handle(&self, request: &HttpRequest, _: &mut (), switch: &Switch) -> HttpResponse {
        let started = Instant::now();
        let (route, response) = route(request, self, switch);
        self.metrics
            .record(route, started.elapsed(), response.status >= 400);
        response
    }

    fn refused(&self, elapsed: Duration) {
        self.metrics.record(Route::Other, elapsed, true);
    }
}

/// Whether `method path` (query string included) may be sent again
/// after a transport failure left its outcome unknown: reads and
/// synchronous explains, which change nothing. Appends, compactions,
/// async submissions and the admin routes are not. The router asks
/// this, so the route table stays in this one module.
pub fn replayable(method: &str, path: &str) -> bool {
    let (path, query) = path.split_once('?').unwrap_or((path, ""));
    method == "GET"
        || (method == "POST"
            && engine_route(path, "/explain").is_some()
            && matches!(explain_mode(query), Ok(ExplainMode::Sync)))
}

/// The engine name of `/v1/engines/{name}{suffix}`.
fn engine_route<'a>(path: &'a str, suffix: &str) -> Option<&'a str> {
    path.strip_prefix("/v1/engines/")?.strip_suffix(suffix)
}

/// Dispatch one request; returns the metrics route and the response.
fn route(request: &HttpRequest, state: &ServerState, switch: &Switch) -> (Route, HttpResponse) {
    // split the query string off the routing path
    let (path, query) = request
        .path
        .split_once('?')
        .unwrap_or((request.path.as_str(), ""));
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => (
            Route::Healthz,
            HttpResponse::json(
                200,
                &Json::obj([
                    ("status", Json::str("ok")),
                    ("engines", Json::num(state.registry.len() as u32)),
                ]),
            ),
        ),
        ("GET", "/v1/engines") => (Route::Engines, list_engines(state)),
        ("GET", "/metrics") => {
            let mut body = state.metrics.to_json(&state.registry);
            let counters = state.tickets.counters();
            let lane = Json::obj([
                ("submitted", Json::num(counters.submitted as f64)),
                ("completed", Json::num(counters.completed as f64)),
                ("failed", Json::num(counters.failed as f64)),
                ("expired", Json::num(counters.expired as f64)),
                ("shed", Json::num(counters.shed as f64)),
            ]);
            if let Json::Obj(fields) = &mut body {
                fields.push(("job_lane".to_string(), lane));
            }
            (Route::Metrics, HttpResponse::json(200, &body))
        }
        ("POST", "/admin/shutdown") => {
            switch.set();
            (
                Route::Admin,
                HttpResponse::json(200, &Json::obj([("status", Json::str("shutting down"))]))
                    .closing(),
            )
        }
        (method, path) => {
            if let Some(name) = engine_route(path, "/explain") {
                if method != "POST" {
                    return (
                        Route::Explain,
                        error_response(405, "method_not_allowed", "use POST"),
                    );
                }
                return match explain_mode(query) {
                    Ok(ExplainMode::Sync) => (Route::Explain, explain(name, &request.body, state)),
                    Ok(ExplainMode::Async) => {
                        (Route::Jobs, submit_explain(name, &request.body, state))
                    }
                    Err(response) => (Route::Explain, response),
                };
            }
            if let Some(name) = engine_route(path, "/rows") {
                if method != "POST" {
                    return (
                        Route::Append,
                        error_response(405, "method_not_allowed", "use POST"),
                    );
                }
                return (Route::Append, append_rows(name, &request.body, state));
            }
            if let Some(name) = engine_route(path, "/compact") {
                if method != "POST" {
                    return (
                        Route::Append,
                        error_response(405, "method_not_allowed", "use POST"),
                    );
                }
                return (Route::Append, compact(name, state));
            }
            if let Some(id) = path.strip_prefix("/v1/jobs/") {
                if method != "GET" {
                    return (
                        Route::Jobs,
                        error_response(405, "method_not_allowed", "use GET"),
                    );
                }
                return (Route::Jobs, job_status(id, state));
            }
            if let Some(rest) = path.strip_prefix("/admin/engines/") {
                let (name, action) = match rest.rsplit_once('/') {
                    Some(pair) => pair,
                    None => {
                        return (
                            Route::Admin,
                            error_response(
                                404,
                                "not_found",
                                "expected /admin/engines/{name}/{load|swap|unload}",
                            ),
                        )
                    }
                };
                if method != "POST" {
                    return (
                        Route::Admin,
                        error_response(405, "method_not_allowed", "use POST"),
                    );
                }
                return (
                    Route::Admin,
                    admin_engine(name, action, &request.body, state),
                );
            }
            (
                Route::Other,
                error_response(404, "not_found", &format!("{method} {path}")),
            )
        }
    }
}

enum ExplainMode {
    Sync,
    Async,
}

/// Parse the explain route's query string: empty or `mode=sync` keep
/// the synchronous answer, `mode=async` keeps it under a ticket, and
/// anything else is a typed `400` (a silently ignored typo would make
/// the caller believe they got the async contract).
fn explain_mode(query: &str) -> Result<ExplainMode, HttpResponse> {
    let mut mode = ExplainMode::Sync;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match (key, value) {
            ("mode", "sync") => mode = ExplainMode::Sync,
            ("mode", "async") => mode = ExplainMode::Async,
            ("mode", other) => {
                return Err(error_response(
                    400,
                    "bad_request",
                    &format!("mode: expected \"sync\" or \"async\", got {other:?}"),
                ))
            }
            (other, _) => {
                return Err(error_response(
                    400,
                    "bad_request",
                    &format!("unknown query parameter {other:?}"),
                ))
            }
        }
    }
    Ok(mode)
}

/// `GET /v1/engines`: every engine, its provenance and its full schema
/// (ids, names and labels), so wire clients can translate names to the
/// codes the codec uses.
fn list_engines(state: &ServerState) -> HttpResponse {
    let engines: Vec<Json> = state
        .registry
        .snapshot()
        .iter()
        .map(|(name, entry)| {
            let engine = entry.engine();
            let live = entry.live.status();
            let schema = engine.table().schema();
            let attributes: Vec<Json> = schema
                .attr_ids()
                .map(|a| {
                    // lint:allow(no-panic-on-input): `a` comes from the
                    // schema's own attr_ids iterator, not from the request;
                    // an out-of-range id here is an engine-construction bug.
                    let domain = schema.domain(a).expect("attr in range");
                    Json::obj([
                        ("attr", Json::num(a.0)),
                        ("name", Json::str(schema.name(a))),
                        ("cardinality", Json::num(domain.cardinality() as u32)),
                        (
                            "labels",
                            Json::Arr(
                                domain
                                    .values()
                                    .map(|v| Json::str(domain.label(v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            Json::obj([
                ("name", Json::str(name)),
                ("source", Json::str(&entry.source)),
                ("graph", Json::str(&entry.graph)),
                ("generation", Json::num(entry.generation as f64)),
                ("n_rows", Json::num(live.total_rows as f64)),
                ("table_version", Json::num(live.version as f64)),
                ("base_rows", Json::num(live.base_rows as f64)),
                (
                    "pending_delta_rows",
                    Json::num(live.pending_delta_rows as f64),
                ),
                ("shards", Json::num(engine.shards() as u32)),
                (
                    "index",
                    Json::obj([
                        ("enabled", Json::Bool(engine.index_enabled())),
                        (
                            "memory_bytes",
                            Json::num(engine.index_memory_bytes() as f64),
                        ),
                    ]),
                ),
                (
                    "prediction",
                    Json::obj([
                        ("name", Json::str(&entry.pred_name)),
                        ("positive", Json::num(entry.positive)),
                    ]),
                ),
                (
                    "features",
                    Json::Arr(engine.features().iter().map(|a| Json::num(a.0)).collect()),
                ),
                ("attributes", Json::Arr(attributes)),
            ])
        })
        .collect();
    HttpResponse::json(200, &Json::obj([("engines", Json::Arr(engines))]))
}

/// `POST /v1/engines/{name}/explain`: a single request object, or
/// `{"batch": [...]}` answered positionally via [`lewis_core::Engine::run_batch`]
/// (so batched queries share counting passes and surrogate fits).
///
/// The request passes the engine's admission gate first; a shed is a
/// typed `429` with `retry_after_ms`. Admitted answers carry the
/// engine's build number in the `x-engine-generation` header.
fn explain(name: &str, body: &[u8], state: &ServerState) -> HttpResponse {
    let Some(entry) = state.registry.get(name) else {
        return error_response(404, "unknown_engine", &format!("no engine named {name:?}"));
    };
    // the permit spans the whole query execution: dropping it at the
    // end of this function frees the engine's in-flight slot
    let _permit = match entry.admission.admit() {
        Ok(permit) => permit,
        Err(shed) => return shed_response(&shed),
    };
    let (status, json) = explain_payload(&entry.engine(), body);
    HttpResponse::json(status, &json)
        .with_header("x-engine-generation", entry.generation.to_string())
}

/// The typed `429` for an admission shed: the error code names the
/// reason (`overloaded` / `queue_full` / `deadline_exceeded`), and the
/// top-level `retry_after_ms` (plus a `retry-after` header in whole
/// seconds) tells the client how long to back off.
fn shed_response(shed: &Shed) -> HttpResponse {
    HttpResponse::json(
        429,
        &Json::obj([
            (
                "error",
                Json::obj([
                    ("code", Json::str(shed.reason.code())),
                    (
                        "message",
                        Json::str(format!(
                            "engine overloaded ({}); retry after {} ms",
                            shed.reason.code(),
                            shed.retry_after_ms
                        )),
                    ),
                ]),
            ),
            ("retry_after_ms", Json::num(shed.retry_after_ms as f64)),
        ]),
    )
    .with_header(
        "retry-after",
        shed.retry_after_ms.div_ceil(1000).to_string(),
    )
}

/// `POST /admin/engines/{name}/{load|swap|unload}`: the hot engine
/// lifecycle. `load` and `swap` take `{"path": "engine.lewis"}`;
/// `unload` takes no body. Failures are typed and leave the registry
/// exactly as it was — on a failed swap the old engine keeps serving.
fn admin_engine(name: &str, action: &str, body: &[u8], state: &ServerState) -> HttpResponse {
    match action {
        "load" | "swap" => {
            let path = match pack_path_from_body(body) {
                Ok(p) => p,
                Err(response) => return *response,
            };
            let result = if action == "load" {
                state.registry.admin_load_pack(name, &path)
            } else {
                state.registry.swap_pack(name, &path)
            };
            match result {
                Ok(generation) => HttpResponse::json(
                    200,
                    &Json::obj([
                        (
                            "status",
                            Json::str(if action == "load" {
                                "loaded"
                            } else {
                                "swapped"
                            }),
                        ),
                        ("engine", Json::str(name)),
                        ("generation", Json::num(generation as f64)),
                    ]),
                )
                .with_header("x-engine-generation", generation.to_string()),
                Err(e) => admin_error_response(&e),
            }
        }
        "unload" => match state.registry.unload(name) {
            Ok(()) => HttpResponse::json(
                200,
                &Json::obj([
                    ("status", Json::str("unloaded")),
                    ("engine", Json::str(name)),
                ]),
            ),
            Err(e) => admin_error_response(&e),
        },
        other => error_response(
            404,
            "not_found",
            &format!("unknown admin action {other:?} (use load, swap or unload)"),
        ),
    }
}

/// Extract the `path` field of a lifecycle request body.
fn pack_path_from_body(body: &[u8]) -> Result<String, Box<HttpResponse>> {
    let Ok(text) = std::str::from_utf8(body) else {
        return Err(Box::new(error_response(
            400,
            "bad_json",
            "body is not UTF-8",
        )));
    };
    let json = match Json::parse(text) {
        Ok(j) => j,
        Err(e) => return Err(Box::new(error_response(400, "bad_json", &e.to_string()))),
    };
    match json.get("path").and_then(|p| p.as_str()) {
        Some(path) if !path.is_empty() => Ok(path.to_string()),
        _ => Err(Box::new(error_response(
            400,
            "bad_request",
            "expected {\"path\": \"engine.lewis\"}",
        ))),
    }
}

/// Map a lifecycle error onto its wire status: unknown engines are
/// `404`, schema mismatches `409`, bad names `400`, and unreadable or
/// corrupt packs a typed `400` naming the store error.
fn admin_error_response(e: &ServeError) -> HttpResponse {
    match e {
        ServeError::UnknownEngine(name) => {
            error_response(404, "unknown_engine", &format!("no engine named {name:?}"))
        }
        ServeError::SchemaMismatch(msg) => error_response(409, "schema_mismatch", msg),
        ServeError::Config(msg) => error_response(400, "bad_request", msg),
        other => error_response(400, "bad_pack", &other.to_string()),
    }
}

/// `POST /v1/engines/{name}/rows`: append a batch of dictionary-coded
/// rows (`{"rows": [[codes…], …]}`, schema order including the
/// prediction column) to the live table. The whole batch is validated
/// before any row lands — arity or domain violations answer `400` and
/// leave the table untouched. Accepting the batch may arm a background
/// compaction; the append itself never waits for one.
fn append_rows(name: &str, body: &[u8], state: &ServerState) -> HttpResponse {
    let Some(entry) = state.registry.get(name) else {
        return error_response(404, "unknown_engine", &format!("no engine named {name:?}"));
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return error_response(400, "bad_json", "body is not UTF-8");
    };
    let json = match Json::parse(text) {
        Ok(j) => j,
        Err(e) => return error_response(400, "bad_json", &e.to_string()),
    };
    let Some(rows) = json.get("rows") else {
        return error_response(400, "bad_request", "missing field \"rows\"");
    };
    if let Some(items) = rows.as_arr().filter(|items| items.len() > MAX_BATCH) {
        return error_response(
            400,
            "batch_too_large",
            &format!(
                "batch of {} rows exceeds the limit of {MAX_BATCH}",
                items.len()
            ),
        );
    }
    let rows = match wire::rows_from_json(rows, "rows") {
        Ok(rows) => rows,
        Err(e) => return error_response(400, "bad_request", &e.to_string()),
    };
    match entry.live.append_rows(&rows) {
        Ok(receipt) => {
            let compaction_armed = entry.live.maybe_spawn_compaction();
            HttpResponse::json(
                200,
                &Json::obj([
                    ("appended", Json::num(receipt.appended as f64)),
                    ("total_rows", Json::num(receipt.total_rows as f64)),
                    ("table_version", Json::num(receipt.version as f64)),
                    (
                        "pending_delta_rows",
                        Json::num(receipt.pending_delta_rows as f64),
                    ),
                    ("compaction_armed", Json::Bool(compaction_armed)),
                ]),
            )
            .with_header("x-engine-generation", entry.generation.to_string())
        }
        // every rejection here is a data problem with the batch (the
        // schema arity and domain checks run before any row lands)
        Err(e) => error_response(400, "bad_rows", &e.to_string()),
    }
}

/// `POST /v1/engines/{name}/compact`: fold the live table's delta into
/// the base synchronously. Answers what the fold did; when a
/// background fold is already running, reports `skipped`.
fn compact(name: &str, state: &ServerState) -> HttpResponse {
    let Some(entry) = state.registry.get(name) else {
        return error_response(404, "unknown_engine", &format!("no engine named {name:?}"));
    };
    match entry.live.compact() {
        Ok(receipt) => HttpResponse::json(
            200,
            &Json::obj([
                ("folded_rows", Json::num(receipt.folded_rows as f64)),
                (
                    "pending_delta_rows",
                    Json::num(receipt.pending_delta_rows as f64),
                ),
                ("skipped", Json::Bool(receipt.skipped)),
            ]),
        )
        .with_header("x-engine-generation", entry.generation.to_string()),
        Err(e) => error_response(500, "compaction_failed", &e.to_string()),
    }
}

/// The status code and body JSON for one explain body against one
/// engine — the shared core of the synchronous and async routes, so an
/// async ticket's stored result replays the sync answer exactly.
fn explain_payload(engine: &Engine, body: &[u8]) -> (u16, Json) {
    fn error_payload(status: u16, code: &str, message: &str) -> (u16, Json) {
        (status, error_json(code, message))
    }

    let Ok(text) = std::str::from_utf8(body) else {
        return error_payload(400, "bad_json", "body is not UTF-8");
    };
    let json = match Json::parse(text) {
        Ok(j) => j,
        Err(e) => return error_payload(400, "bad_json", &e.to_string()),
    };

    if let Some(batch) = json.get("batch") {
        let Some(items) = batch.as_arr() else {
            return error_payload(400, "bad_request", "batch: expected an array");
        };
        // A body-size limit alone does not bound *work*: a 1 MiB body
        // can hold tens of thousands of cheap-to-parse, expensive-to-
        // answer queries, pinning a worker for minutes. Cap the batch.
        if items.len() > MAX_BATCH {
            return error_payload(
                400,
                "batch_too_large",
                &format!("batch of {} exceeds the limit of {MAX_BATCH}", items.len()),
            );
        }
        let mut requests = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            match wire::request_from_json(item) {
                Ok(r) => requests.push(r),
                Err(e) => return error_payload(400, "bad_request", &format!("batch[{i}].{e}")),
            }
        }
        let results: Vec<Json> = engine
            .run_batch(&requests)
            .iter()
            .map(|r| match r {
                Ok(response) => wire::response_to_json(response),
                Err(e) => wire::error_to_json(e),
            })
            .collect();
        return (200, Json::obj([("results", Json::Arr(results))]));
    }

    let request = match wire::request_from_json(&json) {
        Ok(r) => r,
        Err(e) => return error_payload(400, "bad_request", &e.to_string()),
    };
    match engine.run(&request) {
        Ok(response) => (200, wire::response_to_json(&response)),
        Err(e) => (wire::error_status(&e), wire::error_to_json(&e)),
    }
}

/// `POST /v1/engines/{name}/explain?mode=async`: the synchronous
/// explain, behind the same admission gate, with its answer stored
/// under a ticket; answers `202` with the ticket. Unknown engines `404`
/// here; admission sheds and a full ticket store `429`. None of them
/// issues a ticket.
fn submit_explain(name: &str, body: &[u8], state: &ServerState) -> HttpResponse {
    let received = Instant::now();
    let Some(entry) = state.registry.get(name) else {
        return error_response(404, "unknown_engine", &format!("no engine named {name:?}"));
    };
    let _permit = match entry.admission.admit() {
        Ok(permit) => permit,
        Err(shed) => return shed_response(&shed),
    };
    let id = match state
        .tickets
        .run(received, || explain_payload(&entry.engine(), body))
    {
        Ok(id) => id,
        Err(shed) => return shed_response(&shed),
    };
    HttpResponse::json(
        202,
        &Json::obj([
            ("job_id", Json::str(id.to_string())),
            ("poll", Json::str(format!("/v1/jobs/{id}"))),
        ]),
    )
}

/// `GET /v1/jobs/{id}`: the ticket's state, timings, and the exact
/// status and body the synchronous route produced. Unknown, malformed
/// and expired tickets all answer `404`.
fn job_status(id: &str, state: &ServerState) -> HttpResponse {
    let Ok(id) = id.parse::<u64>() else {
        return error_response(404, "unknown_job", &format!("malformed job id {id:?}"));
    };
    let Some(ticket) = state.tickets.get(id) else {
        return error_response(404, "unknown_job", &format!("no job {id} (or it expired)"));
    };
    let name = if ticket.outcome.is_ok() {
        "done"
    } else {
        "failed"
    };
    let mut fields = vec![
        ("id".to_string(), Json::str(id.to_string())),
        ("state".to_string(), Json::str(name)),
        (
            "waited_us".to_string(),
            Json::num(ticket.waited.as_micros() as f64),
        ),
        (
            "ran_us".to_string(),
            Json::num(ticket.ran.as_micros() as f64),
        ),
    ];
    match ticket.outcome {
        Ok((status, result)) => {
            fields.push(("status".to_string(), Json::num(f64::from(status))));
            fields.push(("result".to_string(), result));
        }
        Err(detail) => fields.push(("error".to_string(), Json::str(&detail))),
    }
    HttpResponse::json(200, &Json::Obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    fn test_server() -> Server {
        let mut reg = EngineRegistry::new();
        reg.load_builtin("german_syn", 500, 11).unwrap();
        serve(
            &ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
            Arc::new(reg),
        )
        .unwrap()
    }

    #[test]
    fn healthz_engines_metrics_and_shutdown() {
        let server = test_server();
        let addr = server.addr();
        let mut client = Client::connect(addr).unwrap();

        let (status, health) = client.get("/healthz").unwrap();
        assert_eq!(status, 200);
        assert_eq!(health.get("engines").unwrap().as_f64(), Some(1.0));

        let (status, list) = client.get("/v1/engines").unwrap();
        assert_eq!(status, 200);
        let engines = list.get("engines").unwrap().as_arr().unwrap();
        assert_eq!(engines.len(), 1);
        assert_eq!(engines[0].get("name").unwrap().as_str(), Some("german_syn"));
        assert_eq!(engines[0].get("n_rows").unwrap().as_f64(), Some(500.0));
        assert!(
            engines[0]
                .get("graph")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("builtin scm"),
            "the served graph provenance is published"
        );
        assert!(!engines[0]
            .get("attributes")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());

        // an explain, an append, and the same explain again, whose
        // passes top up with the appended row
        let global = r#"{"kind":"global"}"#;
        let (status, _) = client
            .post("/v1/engines/german_syn/explain", global)
            .unwrap();
        assert_eq!(status, 200);
        let row = r#"{"rows":[[0,0,0,0,0,0,0]]}"#;
        let (status, _) = client.post("/v1/engines/german_syn/rows", row).unwrap();
        assert_eq!(status, 200);
        let (status, _) = client
            .post("/v1/engines/german_syn/explain", global)
            .unwrap();
        assert_eq!(status, 200);

        let (status, metrics) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        let explain = metrics.get("routes").unwrap().get("explain").unwrap();
        assert_eq!(explain.get("requests").unwrap().as_f64(), Some(2.0));
        let engine = metrics.get("engines").unwrap().get("german_syn").unwrap();
        let cache = engine.get("counting_cache").unwrap();
        let misses = cache.get("misses").unwrap().as_f64().unwrap();
        assert!(misses >= 1.0);
        assert!(cache.get("hit_rate").unwrap().as_f64().is_some());
        // the second global re-counted no pass: every one was a top-up
        assert_eq!(cache.get("hits").unwrap().as_f64(), Some(misses));
        assert_eq!(cache.get("topped_up").unwrap().as_f64(), Some(misses));
        // ...by walking the appended row's bitmap words, not scanning it
        let scanned = cache.get("topup_rows_scanned").unwrap().as_f64();
        assert_eq!(scanned, Some(0.0));
        let surrogates = engine.get("surrogate_cache").unwrap();
        assert_eq!(surrogates.get("topped_up").unwrap().as_f64(), Some(0.0));

        // graceful stop over the wire: the server joins by itself
        let (status, _) = client.post("/admin/shutdown", "").unwrap();
        assert_eq!(status, 200);
        server.join();
    }

    #[test]
    fn only_reads_and_sync_explains_are_replayable() {
        for (method, path) in [
            ("GET", "/healthz"),
            ("GET", "/v1/jobs/7"),
            ("POST", "/v1/engines/g/explain"),
            ("POST", "/v1/engines/g/explain?mode=sync"),
        ] {
            assert!(replayable(method, path), "{method} {path}");
        }
        for (method, path) in [
            ("POST", "/v1/engines/g/explain?mode=async"),
            ("POST", "/v1/engines/g/explain?mode=bogus"),
            ("POST", "/v1/engines/g/rows"),
            ("POST", "/v1/engines/g/compact"),
            ("POST", "/admin/engines/g/swap"),
            ("POST", "/admin/shutdown"),
        ] {
            assert!(!replayable(method, path), "{method} {path}");
        }
    }

    #[test]
    fn unknown_routes_and_engines_are_404() {
        let server = test_server();
        let mut client = Client::connect(server.addr()).unwrap();
        let (status, body) = client.get("/nope").unwrap();
        assert_eq!(status, 404);
        assert_eq!(
            body.get("error").unwrap().get("code").unwrap().as_str(),
            Some("not_found")
        );
        let (status, body) = client
            .post("/v1/engines/missing/explain", r#"{"kind":"global"}"#)
            .unwrap();
        assert_eq!(status, 404);
        assert_eq!(
            body.get("error").unwrap().get("code").unwrap().as_str(),
            Some("unknown_engine")
        );
        let (status, _) = client.get("/v1/engines/german_syn/explain").unwrap();
        assert_eq!(status, 405);
        server.shutdown();
    }

    #[test]
    fn http10_requests_are_answered_and_closed() {
        use std::io::{Read, Write};
        let server = test_server();
        // an HTTP/1.0 client reads to EOF: the server must close right
        // after the response, not hold the worker until its read timeout
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        stream.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream
            .read_to_string(&mut reply)
            .expect("EOF right after the response");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("connection: close\r\n"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_many_requests_per_connection() {
        let server = test_server();
        let mut client = Client::connect(server.addr()).unwrap();
        for _ in 0..20 {
            let (status, _) = client.get("/healthz").unwrap();
            assert_eq!(status, 200);
        }
        assert!(server.metrics().total_requests() >= 20);
        server.shutdown();
    }

    #[test]
    fn oversized_batches_are_rejected_up_front() {
        let server = test_server();
        let mut client = Client::connect(server.addr()).unwrap();
        let queries: Vec<Json> = (0..MAX_BATCH + 1)
            .map(|_| Json::obj([("kind", Json::str("global"))]))
            .collect();
        let body = Json::obj([("batch", Json::Arr(queries))]).to_json();
        let (status, answer) = client
            .post("/v1/engines/german_syn/explain", &body)
            .unwrap();
        assert_eq!(status, 400);
        assert_eq!(
            answer.get("error").unwrap().get("code").unwrap().as_str(),
            Some("batch_too_large")
        );
        // a full-size batch still goes through
        let queries: Vec<Json> = (0..MAX_BATCH)
            .map(|_| Json::obj([("kind", Json::str("global"))]))
            .collect();
        let body = Json::obj([("batch", Json::Arr(queries))]).to_json();
        let (status, answer) = client
            .post("/v1/engines/german_syn/explain", &body)
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            answer.get("results").unwrap().as_arr().unwrap().len(),
            MAX_BATCH
        );
        server.shutdown();
    }

    #[test]
    fn append_rows_feed_the_next_explain_and_compaction_keeps_answers() {
        let server = test_server();
        let mut client = Client::connect(server.addr()).unwrap();

        // a valid row in schema order, including the prediction column
        let (_, list) = client.get("/v1/engines").unwrap();
        let engine = &list.get("engines").unwrap().as_arr().unwrap()[0];
        let n_attrs = engine.get("attributes").unwrap().as_arr().unwrap().len();
        let row: Vec<Json> = (0..n_attrs).map(|_| Json::num(0u32)).collect();
        let body = Json::obj([("rows", Json::Arr(vec![Json::Arr(row.clone()); 3]))]).to_json();

        let (status, before) = client
            .post("/v1/engines/german_syn/explain", r#"{"kind":"global"}"#)
            .unwrap();
        assert_eq!(status, 200);

        let (status, receipt) = client.post("/v1/engines/german_syn/rows", &body).unwrap();
        assert_eq!(status, 200, "{receipt:?}");
        assert_eq!(receipt.get("appended").unwrap().as_f64(), Some(3.0));
        assert_eq!(receipt.get("total_rows").unwrap().as_f64(), Some(503.0));
        assert_eq!(receipt.get("table_version").unwrap().as_f64(), Some(503.0));
        assert_eq!(
            receipt.get("pending_delta_rows").unwrap().as_f64(),
            Some(3.0)
        );

        // the very next explain sees the appended rows
        let (status, after) = client
            .post("/v1/engines/german_syn/explain", r#"{"kind":"global"}"#)
            .unwrap();
        assert_eq!(status, 200);
        assert_ne!(format!("{before:?}"), format!("{after:?}"));

        // listings and metrics expose the live-table state
        let (_, list) = client.get("/v1/engines").unwrap();
        let engine = &list.get("engines").unwrap().as_arr().unwrap()[0];
        assert_eq!(engine.get("n_rows").unwrap().as_f64(), Some(503.0));
        assert_eq!(engine.get("table_version").unwrap().as_f64(), Some(503.0));
        assert_eq!(engine.get("base_rows").unwrap().as_f64(), Some(500.0));
        assert_eq!(
            engine.get("pending_delta_rows").unwrap().as_f64(),
            Some(3.0)
        );
        let (_, metrics) = client.get("/metrics").unwrap();
        let live = metrics
            .get("engines")
            .unwrap()
            .get("german_syn")
            .unwrap()
            .get("live")
            .unwrap();
        assert_eq!(live.get("n_rows").unwrap().as_f64(), Some(503.0));
        assert_eq!(live.get("pending_delta_rows").unwrap().as_f64(), Some(3.0));
        let append_route = metrics.get("routes").unwrap().get("append").unwrap();
        assert_eq!(append_route.get("requests").unwrap().as_f64(), Some(1.0));

        // compaction folds the delta and leaves the answers untouched
        let (status, fold) = client.post("/v1/engines/german_syn/compact", "").unwrap();
        assert_eq!(status, 200);
        assert_eq!(fold.get("folded_rows").unwrap().as_f64(), Some(3.0));
        assert_eq!(fold.get("pending_delta_rows").unwrap().as_f64(), Some(0.0));
        let (status, compacted) = client
            .post("/v1/engines/german_syn/explain", r#"{"kind":"global"}"#)
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(format!("{after:?}"), format!("{compacted:?}"));
        let (_, list) = client.get("/v1/engines").unwrap();
        let engine = &list.get("engines").unwrap().as_arr().unwrap()[0];
        assert_eq!(engine.get("base_rows").unwrap().as_f64(), Some(503.0));
        assert_eq!(
            engine.get("pending_delta_rows").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(
            engine.get("table_version").unwrap().as_f64(),
            Some(503.0),
            "compaction must not advance the version"
        );
        server.shutdown();
    }

    #[test]
    fn appends_land_while_readers_run() {
        let mut reg = EngineRegistry::new();
        reg.load_builtin("german_syn", 300, 5).unwrap();
        // 4 workers: one per reader, one for the writer
        let server = serve(&ServerConfig::default(), Arc::new(reg)).unwrap();
        let addr = server.addr();
        let n_rows = |client: &mut Client| {
            let (_, list) = client.get("/v1/engines").unwrap();
            let engine = &list.get("engines").unwrap().as_arr().unwrap()[0];
            engine.get("n_rows").unwrap().as_f64().unwrap()
        };
        let mut writer = Client::connect(addr).unwrap();
        let before = n_rows(&mut writer);
        let writing = Arc::new(AtomicBool::new(true));
        let started = Arc::new(Barrier::new(3));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (writing, started) = (Arc::clone(&writing), Arc::clone(&started));
                std::thread::spawn(move || {
                    let bodies = [
                        r#"{"kind":"global"}"#,
                        r#"{"kind":"contextual","attr":2,"context":[[1,1]]}"#,
                        r#"{"kind":"local","row":[0,1,0,0,1,2,0]}"#,
                        r#"{"kind":"recourse","row":[0,0,0,0,0,0,0],"actionable":[2,3]}"#,
                    ];
                    let mut client = Client::connect(addr).unwrap();
                    let mut reads = 0;
                    while reads < bodies.len() || writing.load(Ordering::Relaxed) {
                        let body = bodies[reads % bodies.len()];
                        let (status, answer) =
                            client.post("/v1/engines/german_syn/explain", body).unwrap();
                        let code = answer.get("error").and_then(|e| e.get("code"));
                        assert!(
                            status == 200
                                || status == 422
                                    && matches!(
                                        code.and_then(Json::as_str),
                                        Some("unsupported" | "no_recourse")
                                    ),
                            "{body}: {status} {answer:?}"
                        );
                        reads += 1;
                        if reads == 1 {
                            started.wait();
                        }
                    }
                })
            })
            .collect();
        started.wait();
        for batch in 0..5u32 {
            let rows: Vec<Json> = (0..8u32)
                .map(|r| Json::Arr((0..7).map(|a| Json::num((batch + r + a) % 2)).collect()))
                .collect();
            let body = Json::obj([("rows", Json::Arr(rows))]).to_json();
            let (status, receipt) = writer.post("/v1/engines/german_syn/rows", &body).unwrap();
            assert_eq!(status, 200, "{receipt:?}");
            assert_eq!(receipt.get("appended").unwrap().as_f64(), Some(8.0));
        }
        writing.store(false, Ordering::Relaxed);
        for reader in readers {
            reader.join().unwrap();
        }
        assert_eq!(n_rows(&mut writer), before + 40.0, "every row landed once");
        drop(writer);
        server.shutdown();
    }

    #[test]
    fn bad_append_batches_are_rejected_atomically() {
        let server = test_server();
        let mut client = Client::connect(server.addr()).unwrap();

        let cases = [
            (r#"{"rows": [[0,0],[0]]}"#, "ragged arity"),
            (r#"{"rows": [[0,0,99999]]}"#, "code outside every domain"),
            (r#"{"rows": [0]}"#, "row is not an array"),
            (r#"{"rows": [[0.5]]}"#, "fractional code"),
            (r#"{"rows": [[-1]]}"#, "negative code"),
            (r#"{"nope": []}"#, "missing rows field"),
            ("not json", "malformed body"),
        ];
        for (body, why) in cases {
            let (status, answer) = client.post("/v1/engines/german_syn/rows", body).unwrap();
            assert_eq!(status, 400, "{why}: {answer:?}");
        }
        // nothing landed
        let (_, list) = client.get("/v1/engines").unwrap();
        let engine = &list.get("engines").unwrap().as_arr().unwrap()[0];
        assert_eq!(engine.get("n_rows").unwrap().as_f64(), Some(500.0));
        assert_eq!(
            engine.get("pending_delta_rows").unwrap().as_f64(),
            Some(0.0)
        );

        // unknown engines 404; GET on the write lane is 405
        let (status, _) = client
            .post("/v1/engines/missing/rows", r#"{"rows":[]}"#)
            .unwrap();
        assert_eq!(status, 404);
        let (status, _) = client.post("/v1/engines/missing/compact", "").unwrap();
        assert_eq!(status, 404);
        let (status, _) = client.get("/v1/engines/german_syn/rows").unwrap();
        assert_eq!(status, 405);
        server.shutdown();
    }

    /// A server state with no engines, for driving the ticket routes
    /// without a socket.
    fn ticket_state(ttl: Duration) -> ServerState {
        ServerState {
            registry: Arc::new(EngineRegistry::new()),
            metrics: Metrics::new(),
            tickets: Tickets::new(ttl, MAX_TICKETS),
        }
    }

    fn view(id: &str, state: &ServerState) -> (u16, Json) {
        let response = job_status(id, state);
        let body = std::str::from_utf8(&response.body).unwrap();
        (response.status, Json::parse(body).unwrap())
    }

    #[test]
    fn a_ticket_carries_the_payload_answer() {
        let state = ticket_state(TICKET_TTL);
        let id = state
            .tickets
            .run(Instant::now(), || {
                (200, Json::obj([("answer", Json::num(42u32))]))
            })
            .unwrap();
        let (status, ticket) = view(&id.to_string(), &state);
        assert_eq!(status, 200);
        assert_eq!(ticket.get("id").unwrap().as_str(), Some("0"));
        assert_eq!(ticket.get("state").unwrap().as_str(), Some("done"));
        assert_eq!(ticket.get("status").unwrap().as_f64(), Some(200.0));
        assert_eq!(ticket.get("result").unwrap().to_json(), r#"{"answer":42}"#);
        assert!(ticket.get("waited_us").unwrap().as_f64().is_some());
        assert!(ticket.get("ran_us").unwrap().as_f64().is_some());
        let next = state
            .tickets
            .run(Instant::now(), || (400, Json::Null))
            .unwrap();
        assert_ne!(next, id, "every ticket gets a fresh id");
        let c = state.tickets.counters();
        assert_eq!((c.submitted, c.completed, c.failed), (2, 2, 0));
    }

    #[test]
    fn a_panicking_payload_leaves_a_failed_ticket() {
        let state = ticket_state(TICKET_TTL);
        let id = state
            .tickets
            .run(Instant::now(), || panic!("surrogate exploded"))
            .unwrap();
        let (status, ticket) = view(&id.to_string(), &state);
        assert_eq!(status, 200);
        assert_eq!(ticket.get("state").unwrap().as_str(), Some("failed"));
        let detail = ticket.get("error").unwrap().as_str().unwrap();
        assert!(detail.contains("surrogate exploded"), "{detail}");
        assert!(ticket.get("result").is_none());
        // the store still works after the panic
        let good = state
            .tickets
            .run(Instant::now(), || (200, Json::Null))
            .unwrap();
        assert_eq!(
            state.tickets.get(good).unwrap().outcome,
            Ok((200, Json::Null))
        );
        let c = state.tickets.counters();
        assert_eq!((c.submitted, c.completed, c.failed), (2, 1, 1));
    }

    #[test]
    fn a_full_ticket_store_sheds_without_running_and_frees_a_slot_on_expiry() {
        let mut registry = EngineRegistry::new();
        registry.load_builtin("german_syn", 200, 3).unwrap();
        let state = ServerState {
            registry: Arc::new(registry),
            metrics: Metrics::new(),
            tickets: Tickets::new(Duration::from_millis(300), 4),
        };
        let body = br#"{"kind":"global"}"#;
        for _ in 0..4 {
            assert_eq!(submit_explain("german_syn", body, &state).status, 202);
        }
        let ran = AtomicBool::new(false);
        let shed = state
            .tickets
            .run(Instant::now(), || {
                ran.store(true, Ordering::SeqCst);
                (200, Json::Null)
            })
            .unwrap_err();
        assert!(
            !ran.load(Ordering::SeqCst),
            "a shed submission runs nothing"
        );
        assert_eq!(shed.reason, ShedReason::QueueFull);
        assert!((1..=300).contains(&shed.retry_after_ms), "{shed:?}");
        let response = submit_explain("german_syn", body, &state);
        assert_eq!(response.status, 429);
        let answer = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(
            answer.get("error").unwrap().get("code").unwrap().as_str(),
            Some("queue_full")
        );
        assert!(answer.get("retry_after_ms").unwrap().as_f64().unwrap() >= 1.0);
        assert!(answer.get("job_id").is_none(), "{answer:?}");
        assert!(response
            .headers
            .iter()
            .any(|(name, _)| *name == "retry-after"));
        let c = state.tickets.counters();
        assert_eq!((c.submitted, c.shed), (4, 2));
        // the held tickets expire, and their slots take submissions again
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(submit_explain("german_syn", body, &state).status, 202);
        let c = state.tickets.counters();
        assert_eq!((c.submitted, c.expired, c.shed), (5, 4, 2));
    }

    #[test]
    fn finished_tickets_expire_into_404s() {
        let state = ticket_state(Duration::from_millis(50));
        let id = state
            .tickets
            .run(Instant::now(), || (200, Json::Null))
            .unwrap();
        assert_eq!(view(&id.to_string(), &state).0, 200);
        std::thread::sleep(Duration::from_millis(120));
        let (status, answer) = view(&id.to_string(), &state);
        assert_eq!(status, 404, "expired tickets read as unknown: {answer:?}");
        assert_eq!(
            answer.get("error").unwrap().get("code").unwrap().as_str(),
            Some("unknown_job")
        );
        assert_eq!(state.tickets.counters().expired, 1);
    }

    #[test]
    fn unknown_and_malformed_ids_are_404s() {
        let state = ticket_state(TICKET_TTL);
        let id = state
            .tickets
            .run(Instant::now(), || (200, Json::Null))
            .unwrap();
        for bogus in ["7", "banana", "-1", "", "0x0"] {
            let (status, answer) = view(bogus, &state);
            assert_eq!(status, 404, "{bogus}: {answer:?}");
            assert_eq!(
                answer.get("error").unwrap().get("code").unwrap().as_str(),
                Some("unknown_job")
            );
        }
        // the id a 202 hands out parses back to its ticket
        assert_eq!(id.to_string().parse::<u64>().unwrap(), id);
        assert_eq!(view(&id.to_string(), &state).0, 200);
    }

    #[test]
    fn protocol_errors_are_visible_in_metrics() {
        let server = test_server();
        // raw garbage over the socket → 400, which must be counted
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        std::io::Write::write_all(&mut raw, b"gibberish\r\n\r\n").unwrap();
        let mut out = String::new();
        std::io::Read::read_to_string(&mut raw, &mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        drop(raw);
        assert_eq!(server.metrics().total_requests(), 1);
        assert_eq!(server.metrics().total_errors(), 1);
        server.shutdown();
    }
}
