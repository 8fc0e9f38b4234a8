//! Mixed-workload load generation against a running server.
//!
//! The repo's first *end-to-end* serving benchmark: N client threads,
//! each on its own keep-alive connection, fire a configurable mix of
//! global / contextual / local / recourse queries for a fixed duration
//! and report throughput plus tail latencies. The workload is
//! synthesized from the server's own `GET /v1/engines` schema
//! publication, so the generator needs no out-of-band knowledge of the
//! dataset.
//!
//! Determinism: each worker derives its RNG from `seed ^ worker_index`
//! (a splitmix/xorshift chain), so a given configuration replays the
//! same query stream — latency varies run to run, the *workload* does
//! not.

use crate::client::Client;
use crate::wire::Json;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Relative weights of the four query kinds.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Weight of `global` queries.
    pub global: u32,
    /// Weight of `contextual` queries.
    pub contextual: u32,
    /// Weight of `local` queries.
    pub local: u32,
    /// Weight of `recourse` queries.
    pub recourse: u32,
}

impl Default for Mix {
    /// A dashboard-like blend: mostly sub-population probes, a steady
    /// stream of per-individual explanations, occasional recourse.
    fn default() -> Self {
        Mix {
            global: 10,
            contextual: 60,
            local: 28,
            recourse: 2,
        }
    }
}

impl Mix {
    fn total(&self) -> u32 {
        self.global + self.contextual + self.local + self.recourse
    }
}

/// The writer lane: append `rows` synthesized rows in batches of
/// `batch` via `POST /v1/engines/{name}/rows`, paced evenly across the
/// run so writes (and any compaction they arm) overlap the read
/// workload instead of trailing it.
#[derive(Debug, Clone, Copy)]
pub struct AppendMix {
    /// Total rows to append over the run.
    pub rows: u64,
    /// Rows per append body (the server caps bodies at 256 rows).
    pub batch: usize,
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Additional fleet targets. When non-empty, worker `i` connects to
    /// `targets[i % targets.len()]` instead of `addr` (workload
    /// discovery and the writer lane still use `addr`, which may itself
    /// appear in the list). This is how the generator drives several
    /// replicas — or one router — as one workload.
    pub targets: Vec<SocketAddr>,
    /// Stagger worker starts linearly across this span (0 = all at
    /// once). A ramp turns the step load into a slope, which is what a
    /// fleet's admission gates see in production.
    pub ramp: Duration,
    /// Soak mode: when set, outcomes and latencies are additionally
    /// bucketed into fixed windows of this width, reported in
    /// [`LoadReport::windows`] — the per-window series is how a soak
    /// run proves stability (no creeping p99, no error bursts) rather
    /// than just averages.
    pub window: Option<Duration>,
    /// Honor shed responses: sleep `retry_after_ms` (capped at 20ms)
    /// after a 429 before the next query, like a well-behaved client.
    pub backoff: bool,
    /// Which registered engine to hammer.
    pub engine: String,
    /// How long to run.
    pub duration: Duration,
    /// Concurrent connections.
    pub concurrency: usize,
    /// Query mix.
    pub mix: Mix,
    /// Queries per HTTP body (1 = single-request bodies; >1 uses the
    /// `{"batch": [...]}` form and exercises `Engine::run_batch`'s
    /// cross-query sharing over the wire).
    pub batch: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Route single recourse queries through the async job lane:
    /// `POST …?mode=async` → 202 → poll `/v1/jobs/{id}` until terminal.
    /// The recorded latency is submit→terminal, so the report measures
    /// what a ticket-holding client actually waits. Only applies when
    /// `batch == 1` (batch bodies mix kinds and stay synchronous).
    pub job_lane: bool,
    /// Optional writer lane: a dedicated thread appending synthesized
    /// rows to the live table while the readers run. `None` keeps the
    /// workload read-only.
    pub append_mix: Option<AppendMix>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7878".parse().expect("valid literal"),
            targets: Vec::new(),
            ramp: Duration::ZERO,
            window: None,
            backoff: false,
            engine: "german_syn".to_string(),
            duration: Duration::from_secs(10),
            concurrency: 2,
            mix: Mix::default(),
            batch: 1,
            seed: 42,
            job_lane: false,
            append_mix: None,
        }
    }
}

/// Query-kind display names, in `sent_by_kind` order.
pub const KIND_NAMES: [&str; 4] = ["global", "contextual", "local", "recourse"];

/// Latency percentiles for one query kind (microseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct KindLatency {
    /// Round-trips of this kind.
    pub count: u64,
    /// Median latency.
    pub p50_us: u64,
    /// 95th percentile latency.
    pub p95_us: u64,
    /// 99th percentile latency.
    pub p99_us: u64,
    /// Worst observed latency.
    pub max_us: u64,
}

/// What the writer lane measured, when one ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppendReport {
    /// Rows the server acknowledged appending.
    pub appended_rows: u64,
    /// Append bodies posted.
    pub batches: u64,
    /// Non-200 append responses. The live table's append path never
    /// blocks on compaction, so a healthy run has zero — any failure
    /// here means a batch was rejected or the server broke mid-stream.
    pub append_errors: u64,
    /// Receipts that reported `compaction_armed` — appends whose
    /// pending-delta depth crossed the server's threshold and kicked
    /// off a background fold.
    pub compactions_armed: u64,
    /// Median append latency, microseconds.
    pub p50_us: u64,
    /// 95th percentile append latency.
    pub p95_us: u64,
    /// 99th percentile append latency.
    pub p99_us: u64,
    /// Worst observed append latency.
    pub max_us: u64,
}

/// One fixed-width slice of a soak run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoakWindow {
    /// Queries answered 2xx in this window.
    pub ok: u64,
    /// Admission sheds (typed 429s) in this window.
    pub shed: u64,
    /// Expected 422s in this window.
    pub unsupported: u64,
    /// Real failures in this window.
    pub other_errors: u64,
    /// HTTP round-trips in this window.
    pub round_trips: u64,
    /// Median latency in this window, microseconds.
    pub p50_us: u64,
    /// 99th percentile latency in this window.
    pub p99_us: u64,
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Queries answered with 2xx (batch bodies count each inner query).
    pub ok: u64,
    /// Queries the data could not answer — `LewisError::Unsupported` /
    /// `NoRecourse` 422s. A randomly synthesized workload is *expected*
    /// to produce some of these (rows landing in unpopulated contexts),
    /// so they are tracked apart from real failures.
    pub unsupported: u64,
    /// Queries shed by admission control — typed 429s whose code is
    /// `overloaded` / `queue_full` / `deadline_exceeded`. Sheds are the
    /// *designed* response of a loaded fleet, so like `unsupported`
    /// they are tracked apart from `other_errors` (every zero-error
    /// gate in the benches and CI stays a gate on real failures).
    pub shed: u64,
    /// Everything else that went wrong: protocol errors, 4xx/5xx other
    /// than expected 422s/429s, malformed bodies. A healthy run has
    /// zero.
    pub other_errors: u64,
    /// HTTP round-trips performed.
    pub round_trips: u64,
    /// Wall-clock time actually spent.
    pub wall: Duration,
    /// Queries (ok + errors) per second of wall time.
    pub qps: f64,
    /// Per-round-trip latency percentiles, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency.
    pub p95_us: u64,
    /// 99th percentile latency.
    pub p99_us: u64,
    /// Worst observed latency.
    pub max_us: u64,
    /// `(global, contextual, local, recourse)` queries sent.
    pub sent_by_kind: [u64; 4],
    /// Per-query-kind latency percentiles, in `sent_by_kind` order.
    /// Only populated when `batch == 1`: with one query per HTTP body a
    /// round-trip latency belongs to exactly one kind; batched bodies
    /// mix kinds and have no per-kind attribution.
    pub by_kind: Option<[KindLatency; 4]>,
    /// Writer-lane outcome; present exactly when `append_mix` was
    /// configured. Read errors during compaction still land in
    /// `other_errors` — this tracks the write side only.
    pub append: Option<AppendReport>,
    /// Per-window series; present exactly when `window` was configured.
    pub windows: Option<Vec<SoakWindow>>,
}

impl LoadReport {
    /// All non-2xx-equivalent outcomes, expected or not.
    pub fn errors(&self) -> u64 {
        self.unsupported + self.other_errors
    }

    /// Human-oriented multi-line summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} queries in {:.2}s over {} round-trips → {:.0} q/s \
             ({} ok, {} unsupported-by-data, {} shed, {} other errors)\nlatency per round-trip: \
             p50 {}µs, p95 {}µs, \
             p99 {}µs, max {}µs\nmix sent: {} global / {} contextual / {} local / {} recourse",
            self.ok + self.errors() + self.shed,
            self.wall.as_secs_f64(),
            self.round_trips,
            self.qps,
            self.ok,
            self.unsupported,
            self.shed,
            self.other_errors,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
            self.sent_by_kind[0],
            self.sent_by_kind[1],
            self.sent_by_kind[2],
            self.sent_by_kind[3],
        );
        if let Some(by_kind) = &self.by_kind {
            for (name, k) in KIND_NAMES.iter().zip(by_kind) {
                if k.count == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "\n  {name:<10} {} round-trips: p50 {}µs, p95 {}µs, p99 {}µs, max {}µs",
                    k.count, k.p50_us, k.p95_us, k.p99_us, k.max_us,
                ));
            }
        }
        if let Some(windows) = &self.windows {
            for (i, w) in windows.iter().enumerate() {
                out.push_str(&format!(
                    "\n  window {i:<3} {} ok, {} shed, {} other errors: p50 {}µs, p99 {}µs",
                    w.ok, w.shed, w.other_errors, w.p50_us, w.p99_us,
                ));
            }
        }
        if let Some(a) = &self.append {
            out.push_str(&format!(
                "\nappends: {} rows over {} batches ({} errors, {} compactions armed): \
                 p50 {}µs, p95 {}µs, p99 {}µs, max {}µs",
                a.appended_rows,
                a.batches,
                a.append_errors,
                a.compactions_armed,
                a.p50_us,
                a.p95_us,
                a.p99_us,
                a.max_us,
            ));
        }
        out
    }

    /// Machine-readable report (what `loadgen --json PATH` writes).
    pub fn to_json(&self, config: &LoadgenConfig) -> Json {
        let by_kind = match &self.by_kind {
            None => Json::Null,
            Some(kinds) => Json::Obj(
                KIND_NAMES
                    .iter()
                    .zip(kinds)
                    .map(|(name, k)| {
                        (
                            name.to_string(),
                            Json::obj([
                                ("count", Json::num(k.count as f64)),
                                ("p50_us", Json::num(k.p50_us as f64)),
                                ("p95_us", Json::num(k.p95_us as f64)),
                                ("p99_us", Json::num(k.p99_us as f64)),
                                ("max_us", Json::num(k.max_us as f64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        };
        let append = match &self.append {
            None => Json::Null,
            Some(a) => Json::obj([
                ("appended_rows", Json::num(a.appended_rows as f64)),
                ("batches", Json::num(a.batches as f64)),
                ("append_errors", Json::num(a.append_errors as f64)),
                ("compactions_armed", Json::num(a.compactions_armed as f64)),
                ("p50_us", Json::num(a.p50_us as f64)),
                ("p95_us", Json::num(a.p95_us as f64)),
                ("p99_us", Json::num(a.p99_us as f64)),
                ("max_us", Json::num(a.max_us as f64)),
            ]),
        };
        let append_mix = match &config.append_mix {
            None => Json::Null,
            Some(am) => Json::obj([
                ("rows", Json::num(am.rows as f64)),
                ("batch", Json::num(am.batch as u32)),
            ]),
        };
        let windows = match &self.windows {
            None => Json::Null,
            Some(ws) => Json::Arr(
                ws.iter()
                    .map(|w| {
                        Json::obj([
                            ("ok", Json::num(w.ok as f64)),
                            ("shed", Json::num(w.shed as f64)),
                            ("unsupported", Json::num(w.unsupported as f64)),
                            ("other_errors", Json::num(w.other_errors as f64)),
                            ("round_trips", Json::num(w.round_trips as f64)),
                            ("p50_us", Json::num(w.p50_us as f64)),
                            ("p99_us", Json::num(w.p99_us as f64)),
                        ])
                    })
                    .collect(),
            ),
        };
        Json::obj([
            (
                "config",
                Json::obj([
                    ("engine", Json::str(&config.engine)),
                    ("duration_s", Json::Num(config.duration.as_secs_f64())),
                    ("concurrency", Json::num(config.concurrency as u32)),
                    ("batch", Json::num(config.batch as u32)),
                    (
                        "mix",
                        Json::obj([
                            ("global", Json::num(config.mix.global)),
                            ("contextual", Json::num(config.mix.contextual)),
                            ("local", Json::num(config.mix.local)),
                            ("recourse", Json::num(config.mix.recourse)),
                        ]),
                    ),
                    // u64→f64 is exact for every seed below 2^53; going
                    // through u32 would truncate large seeds and break
                    // replay-from-report
                    ("seed", Json::Num(config.seed as f64)),
                    ("job_lane", Json::Bool(config.job_lane)),
                    ("append_mix", append_mix),
                    (
                        "targets",
                        Json::Arr(
                            config
                                .targets
                                .iter()
                                .map(|a| Json::str(a.to_string()))
                                .collect(),
                        ),
                    ),
                    ("ramp_s", Json::Num(config.ramp.as_secs_f64())),
                    (
                        "window_s",
                        match config.window {
                            None => Json::Null,
                            Some(w) => Json::Num(w.as_secs_f64()),
                        },
                    ),
                    ("backoff", Json::Bool(config.backoff)),
                ]),
            ),
            (
                "results",
                Json::obj([
                    ("qps", Json::Num(self.qps)),
                    ("ok", Json::num(self.ok as f64)),
                    ("errors", Json::num(self.errors() as f64)),
                    ("unsupported", Json::num(self.unsupported as f64)),
                    ("shed", Json::num(self.shed as f64)),
                    ("other_errors", Json::num(self.other_errors as f64)),
                    ("round_trips", Json::num(self.round_trips as f64)),
                    ("wall_s", Json::Num(self.wall.as_secs_f64())),
                    ("p50_us", Json::num(self.p50_us as f64)),
                    ("p95_us", Json::num(self.p95_us as f64)),
                    ("p99_us", Json::num(self.p99_us as f64)),
                    ("max_us", Json::num(self.max_us as f64)),
                    ("latency_by_kind", by_kind),
                    ("append", append),
                    ("windows", windows),
                ]),
            ),
        ])
    }
}

/// The engine facts the generator needs, scraped from
/// `GET /v1/engines`.
struct EngineShape {
    /// Cardinality per attribute (index = attribute id).
    cardinalities: Vec<u32>,
    /// Feature attribute ids.
    features: Vec<u32>,
}

fn discover(addr: SocketAddr, engine: &str) -> std::io::Result<EngineShape> {
    let mut client = Client::connect(addr)?;
    let (status, body) = client.get("/v1/engines")?;
    let err = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    if status != 200 {
        return Err(err(format!("GET /v1/engines returned {status}")));
    }
    let engines = body
        .get("engines")
        .and_then(Json::as_arr)
        .ok_or_else(|| err("malformed engine list".into()))?;
    let entry = engines
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(engine))
        .ok_or_else(|| err(format!("engine {engine:?} is not registered")))?;
    let attributes = entry
        .get("attributes")
        .and_then(Json::as_arr)
        .ok_or_else(|| err("engine entry lacks attributes".into()))?;
    let mut cardinalities = vec![0u32; attributes.len()];
    for a in attributes {
        let (Some(id), Some(card)) = (
            a.get("attr").and_then(Json::as_f64),
            a.get("cardinality").and_then(Json::as_f64),
        ) else {
            return Err(err("malformed attribute entry".into()));
        };
        let id = id as usize;
        if id >= cardinalities.len() {
            return Err(err(format!("attribute id {id} out of range")));
        }
        cardinalities[id] = card as u32;
    }
    let features = entry
        .get("features")
        .and_then(Json::as_arr)
        .ok_or_else(|| err("engine entry lacks features".into()))?
        .iter()
        .filter_map(Json::as_f64)
        .map(|f| f as u32)
        .collect::<Vec<_>>();
    if features.is_empty() {
        return Err(err("engine has no features".into()));
    }
    Ok(EngineShape {
        cardinalities,
        features,
    })
}

/// xorshift64* — tiny, seedable, good enough to spread queries (also
/// drives the `warm` module's pre-run mixes).
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub(crate) fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n.max(1))) as u32
    }
}

/// One full in-domain row (every attribute, schema order) — shared by
/// local/recourse query synthesis and the writer lane's append bodies.
fn synth_row(shape: &EngineShape, rng: &mut Rng) -> Json {
    Json::Arr(
        shape
            .cardinalities
            .iter()
            .map(|&card| Json::num(rng.below(card)))
            .collect(),
    )
}

/// Build one query of the mixed workload. Returns the JSON plus the
/// kind index (0 global, 1 contextual, 2 local, 3 recourse).
fn synth_query(shape: &EngineShape, mix: &Mix, rng: &mut Rng) -> (Json, usize) {
    let pick = rng.below(mix.total().max(1));
    let kind = if pick < mix.global {
        0
    } else if pick < mix.global + mix.contextual {
        1
    } else if pick < mix.global + mix.contextual + mix.local {
        2
    } else {
        3
    };
    let random_feature =
        |rng: &mut Rng| shape.features[rng.below(shape.features.len() as u32) as usize];
    let random_row = |rng: &mut Rng| synth_row(shape, rng);
    let json = match kind {
        0 => Json::obj([("kind", Json::str("global"))]),
        1 => {
            // probe one feature inside a one-attribute sub-population
            let probed = random_feature(rng);
            let mut ctx_attr = random_feature(rng);
            while ctx_attr == probed && shape.features.len() > 1 {
                ctx_attr = random_feature(rng);
            }
            let v = rng.below(shape.cardinalities[ctx_attr as usize]);
            Json::obj([
                ("kind", Json::str("contextual")),
                ("attr", Json::num(probed)),
                (
                    "context",
                    Json::Arr(vec![Json::Arr(vec![Json::num(ctx_attr), Json::num(v)])]),
                ),
            ])
        }
        2 => Json::obj([("kind", Json::str("local")), ("row", random_row(rng))]),
        _ => {
            let actionable = random_feature(rng);
            Json::obj([
                ("kind", Json::str("recourse")),
                ("row", random_row(rng)),
                ("actionable", Json::Arr(vec![Json::num(actionable)])),
            ])
        }
    };
    (json, kind)
}

/// Drive one query through the async job lane: submit with
/// `?mode=async`, then poll the ticket until it is terminal. Returns
/// the replayed `(status, body)` so the caller tallies it exactly like
/// a synchronous answer; anything short of a clean replay (a dropped
/// ticket, a panicked job, a malformed view) degrades to a synthetic
/// non-200 status and lands in `other_errors`.
fn post_job(client: &mut Client, submit_path: &str, body: &str) -> std::io::Result<(u16, Json)> {
    let (status, answer) = client.post(submit_path, body)?;
    if status != 202 {
        // a 429 (queue full) or any other refusal tallies as-is
        return Ok((status, answer));
    }
    let Some(id) = answer.get("job_id").and_then(Json::as_str) else {
        return Ok((500, answer.clone()));
    };
    let poll = format!("/v1/jobs/{id}");
    // bounded so a stuck job fails the run instead of hanging it; 30s
    // dwarfs any legitimate explain latency
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, view) = client.get(&poll)?;
        if status != 200 {
            return Ok((status, view));
        }
        match view.get("state").and_then(Json::as_str) {
            Some("done") => {
                let Some(replayed) = view.get("status").and_then(Json::as_f64) else {
                    return Ok((500, view.clone()));
                };
                let result = view.get("result").cloned().unwrap_or(Json::Null);
                return Ok((replayed as u16, result));
            }
            // a failed (panicked) job is a server-side defect
            Some("failed") => return Ok((500, view.clone())),
            Some("queued") | Some("running") if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_micros(500));
            }
            _ => return Ok((500, view.clone())),
        }
    }
}

/// Whether an embedded error is the *expected* "the data cannot answer
/// this" outcome (`LewisError::Unsupported` / `NoRecourse`, both 422
/// over the wire) as opposed to a real failure.
fn is_expected_code(code: Option<&str>) -> bool {
    matches!(code, Some("unsupported") | Some("no_recourse"))
}

/// Whether an error code is an admission shed (a typed 429). Sheds are
/// load-control doing its job, never a real failure.
fn is_shed_code(code: Option<&str>) -> bool {
    matches!(
        code,
        Some("overloaded") | Some("queue_full") | Some("deadline_exceeded")
    )
}

/// Count a response against the ok / unsupported / shed / other-error
/// counters. Batch bodies are unpacked per inner result.
fn tally(status: u16, body: &Json, queries: u64, stats: &mut Tally) {
    let code_of =
        |j: &Json| -> Option<String> { j.get("error")?.get("code")?.as_str().map(str::to_string) };
    if status != 200 {
        if status == 422 && is_expected_code(code_of(body).as_deref()) {
            stats.unsupported += queries;
        } else if status == 429 && is_shed_code(code_of(body).as_deref()) {
            stats.shed += queries;
        } else {
            stats.other_errors += queries;
        }
        return;
    }
    match body.get("results").and_then(Json::as_arr) {
        Some(results) => {
            for r in results {
                match code_of(r) {
                    None => stats.ok += 1,
                    Some(code) if is_expected_code(Some(&code)) => stats.unsupported += 1,
                    Some(_) => stats.other_errors += 1,
                }
            }
        }
        None => stats.ok += queries,
    }
}

/// The outcome counters `tally` fills in.
#[derive(Default, Clone, Copy)]
struct Tally {
    ok: u64,
    unsupported: u64,
    shed: u64,
    other_errors: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.unsupported += other.unsupported;
        self.shed += other.shed;
        self.other_errors += other.other_errors;
    }
}

/// The writer lane: one dedicated connection appending `mix.rows`
/// synthesized rows in batches of `mix.batch`, paced evenly across the
/// run so writes overlap the read workload (and any compaction they arm
/// lands mid-run, not after it). Rows are drawn from the engine's own
/// published domains, so a healthy server accepts every batch.
fn run_writer(
    config: &LoadgenConfig,
    mix: AppendMix,
    shape: &EngineShape,
    started: Instant,
    deadline: Instant,
) -> std::io::Result<WriterStats> {
    let mut rng = Rng::new(config.seed ^ 0xA99E_17D5_C0FF_EE11);
    let front = config.targets.first().copied().unwrap_or(config.addr);
    let mut client = Client::connect(front)?;
    let path = format!("/v1/engines/{}/rows", config.engine);
    let batch = mix.batch.max(1) as u64;
    let n_batches = mix.rows.div_ceil(batch);
    let mut stats = WriterStats::default();
    let mut sent_rows = 0u64;
    for i in 0..n_batches {
        let due = started + config.duration.mul_f64(i as f64 / n_batches as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if Instant::now() >= deadline {
            break;
        }
        let n = batch.min(mix.rows - sent_rows) as usize;
        let rows: Vec<Json> = (0..n).map(|_| synth_row(shape, &mut rng)).collect();
        let body = Json::obj([("rows", Json::Arr(rows))]).to_json();
        let sent = Instant::now();
        let (status, answer) = client.post(&path, &body)?;
        let us = sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        stats.latencies_us.push(us);
        stats.batches += 1;
        if status == 200 {
            let appended = answer.get("appended").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            stats.appended_rows += appended;
            if answer.get("compaction_armed") == Some(&Json::Bool(true)) {
                stats.compactions_armed += 1;
            }
        } else {
            stats.append_errors += 1;
        }
        sent_rows += n as u64;
    }
    Ok(stats)
}

/// Run the workload and gather the report.
pub fn run(config: &LoadgenConfig) -> std::io::Result<LoadReport> {
    // in fleet mode the first target speaks for the fleet (replicas
    // share a pack set, so any of them can describe the workload); the
    // writer lane also lands there so appends hit exactly one replica
    let front = config.targets.first().copied().unwrap_or(config.addr);
    let shape = discover(front, &config.engine)?;
    let shape = std::sync::Arc::new(shape);
    let started = Instant::now();
    let deadline = started + config.duration;
    let writer = config.append_mix.map(|mix| {
        let shape = std::sync::Arc::clone(&shape);
        let config = config.clone();
        std::thread::spawn(move || run_writer(&config, mix, &shape, started, deadline))
    });
    let workers = config.concurrency.max(1);
    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let shape = std::sync::Arc::clone(&shape);
        let config = config.clone();
        handles.push(std::thread::spawn(
            move || -> std::io::Result<WorkerStats> {
                let mut rng = Rng::new(config.seed ^ (w as u64).wrapping_mul(0x9E37_79B9));
                // fleet mode: workers spread round-robin over the targets
                let target = match config.targets.as_slice() {
                    [] => config.addr,
                    targets => targets[w % targets.len()],
                };
                // ramp: worker w joins at started + ramp * w / workers
                if !config.ramp.is_zero() && workers > 1 {
                    let due = started + config.ramp.mul_f64(w as f64 / workers as f64);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                }
                let mut client = Client::connect(target)?;
                let mut stats = WorkerStats::default();
                let path = format!("/v1/engines/{}/explain", config.engine);
                let async_path = format!("{path}?mode=async");
                while Instant::now() < deadline {
                    let n = config.batch.max(1);
                    let mut queries = Vec::with_capacity(n);
                    let mut single_kind = 0usize;
                    for _ in 0..n {
                        let (q, kind) = synth_query(&shape, &config.mix, &mut rng);
                        stats.sent_by_kind[kind] += 1;
                        single_kind = kind;
                        queries.push(q);
                    }
                    let body = if n == 1 {
                        queries.pop().expect("one query").to_json()
                    } else {
                        Json::obj([("batch", Json::Arr(queries))]).to_json()
                    };
                    let sent = Instant::now();
                    let (status, answer) = if config.job_lane && n == 1 && single_kind == 3 {
                        post_job(&mut client, &async_path, &body)?
                    } else {
                        client.post(&path, &body)?
                    };
                    let us = sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    stats.latencies_us.push(us);
                    if n == 1 {
                        stats.latencies_by_kind[single_kind].push(us);
                    }
                    let mut one = Tally::default();
                    tally(status, &answer, n as u64, &mut one);
                    stats.tally.add(&one);
                    if let Some(window) = config.window {
                        let idx = (sent.saturating_duration_since(started).as_nanos()
                            / window.as_nanos().max(1)) as usize;
                        if stats.windows.len() <= idx {
                            stats.windows.resize_with(idx + 1, WindowStats::default);
                        }
                        stats.windows[idx].tally.add(&one);
                        stats.windows[idx].latencies_us.push(us);
                    }
                    if config.backoff && status == 429 {
                        let retry = answer
                            .get("retry_after_ms")
                            .and_then(Json::as_f64)
                            .unwrap_or(1.0);
                        std::thread::sleep(Duration::from_millis((retry as u64).clamp(1, 20)));
                    }
                }
                Ok(stats)
            },
        ));
    }

    let mut merged = WorkerStats::default();
    for h in handles {
        let stats = h
            .join()
            .map_err(|_| std::io::Error::other("loadgen worker panicked"))??;
        merged.tally.add(&stats.tally);
        merged.latencies_us.extend(stats.latencies_us);
        for (into, from) in merged
            .latencies_by_kind
            .iter_mut()
            .zip(stats.latencies_by_kind)
        {
            into.extend(from);
        }
        for (into, from) in merged.sent_by_kind.iter_mut().zip(stats.sent_by_kind) {
            *into += from;
        }
        if merged.windows.len() < stats.windows.len() {
            merged
                .windows
                .resize_with(stats.windows.len(), WindowStats::default);
        }
        for (into, from) in merged.windows.iter_mut().zip(stats.windows) {
            into.tally.add(&from.tally);
            into.latencies_us.extend(from.latencies_us);
        }
    }
    let append = match writer {
        None => None,
        Some(h) => {
            let mut stats = h
                .join()
                .map_err(|_| std::io::Error::other("loadgen writer panicked"))??;
            stats.latencies_us.sort_unstable();
            Some(AppendReport {
                appended_rows: stats.appended_rows,
                batches: stats.batches,
                append_errors: stats.append_errors,
                compactions_armed: stats.compactions_armed,
                p50_us: quantile_of(&stats.latencies_us, 0.50),
                p95_us: quantile_of(&stats.latencies_us, 0.95),
                p99_us: quantile_of(&stats.latencies_us, 0.99),
                max_us: stats.latencies_us.last().copied().unwrap_or(0),
            })
        }
    };
    let wall = started.elapsed();

    merged.latencies_us.sort_unstable();
    let quantile = |q: f64| quantile_of(&merged.latencies_us, q);
    let by_kind = (config.batch.max(1) == 1).then(|| {
        let mut kinds = [KindLatency::default(); 4];
        for (k, lat) in kinds.iter_mut().zip(&mut merged.latencies_by_kind) {
            lat.sort_unstable();
            *k = KindLatency {
                count: lat.len() as u64,
                p50_us: quantile_of(lat, 0.50),
                p95_us: quantile_of(lat, 0.95),
                p99_us: quantile_of(lat, 0.99),
                max_us: lat.last().copied().unwrap_or(0),
            };
        }
        kinds
    });
    let windows = config.window.map(|_| {
        merged
            .windows
            .iter_mut()
            .map(|w| {
                w.latencies_us.sort_unstable();
                SoakWindow {
                    ok: w.tally.ok,
                    shed: w.tally.shed,
                    unsupported: w.tally.unsupported,
                    other_errors: w.tally.other_errors,
                    round_trips: w.latencies_us.len() as u64,
                    p50_us: quantile_of(&w.latencies_us, 0.50),
                    p99_us: quantile_of(&w.latencies_us, 0.99),
                }
            })
            .collect()
    });
    let total =
        merged.tally.ok + merged.tally.unsupported + merged.tally.shed + merged.tally.other_errors;
    Ok(LoadReport {
        ok: merged.tally.ok,
        unsupported: merged.tally.unsupported,
        shed: merged.tally.shed,
        other_errors: merged.tally.other_errors,
        round_trips: merged.latencies_us.len() as u64,
        wall,
        qps: total as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: quantile(0.50),
        p95_us: quantile(0.95),
        p99_us: quantile(0.99),
        max_us: merged.latencies_us.last().copied().unwrap_or(0),
        sent_by_kind: merged.sent_by_kind,
        by_kind,
        append,
        windows,
    })
}

/// Nearest-rank quantile over an ascending-sorted sample (0 when empty).
fn quantile_of(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[derive(Default)]
struct WorkerStats {
    tally: Tally,
    latencies_us: Vec<u64>,
    sent_by_kind: [u64; 4],
    latencies_by_kind: [Vec<u64>; 4],
    /// Per-window buckets; only filled in soak mode.
    windows: Vec<WindowStats>,
}

/// Raw per-window counters, reduced to [`SoakWindow`]s at the end.
#[derive(Default)]
struct WindowStats {
    tally: Tally,
    latencies_us: Vec<u64>,
}

/// Raw writer-lane counters, reduced to an [`AppendReport`] at the end
/// of the run.
#[derive(Default)]
struct WriterStats {
    appended_rows: u64,
    batches: u64,
    append_errors: u64,
    compactions_armed: u64,
    latencies_us: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> EngineShape {
        EngineShape {
            cardinalities: vec![3, 2, 4, 4, 3, 10, 2],
            features: vec![0, 1, 2, 3, 4],
        }
    }

    #[test]
    fn synthesized_queries_decode_and_respect_the_mix() {
        let shape = shape();
        let mix = Mix {
            global: 1,
            contextual: 1,
            local: 1,
            recourse: 1,
        };
        let mut rng = Rng::new(7);
        let mut seen = [0u64; 4];
        for _ in 0..200 {
            let (q, kind) = synth_query(&shape, &mix, &mut rng);
            seen[kind] += 1;
            // every synthesized body must decode as a valid request
            let parsed = crate::wire::Json::parse(&q.to_json()).unwrap();
            crate::wire::request_from_json(&parsed).unwrap();
        }
        assert!(
            seen.iter().all(|&c| c > 20),
            "uniform mix visits every kind: {seen:?}"
        );
    }

    #[test]
    fn zero_weight_kinds_are_never_sent() {
        let shape = shape();
        let mix = Mix {
            global: 0,
            contextual: 1,
            local: 0,
            recourse: 0,
        };
        let mut rng = Rng::new(11);
        for _ in 0..100 {
            let (_, kind) = synth_query(&shape, &mix, &mut rng);
            assert_eq!(kind, 1);
        }
    }

    #[test]
    fn tally_unpacks_batches_and_statuses() {
        let mut t = Tally::default();
        tally(200, &Json::obj([("kind", Json::str("global"))]), 1, &mut t);
        assert_eq!((t.ok, t.unsupported, t.other_errors), (1, 0, 0));
        let batch =
            Json::parse(r#"{"results":[{"kind":"global"},{"error":{"code":"x","message":""}}]}"#)
                .unwrap();
        tally(200, &batch, 2, &mut t);
        assert_eq!((t.ok, t.unsupported, t.other_errors), (2, 0, 1));
        // a bare 422 without a recognizable code is a real failure
        tally(422, &Json::Null, 3, &mut t);
        assert_eq!((t.ok, t.unsupported, t.other_errors), (2, 0, 4));
    }

    #[test]
    fn tally_separates_expected_422s_from_real_failures() {
        let mut t = Tally::default();
        // single-request 422 with the unsupported code → expected
        let unsupported =
            Json::parse(r#"{"error":{"code":"unsupported","message":"no rows"}}"#).unwrap();
        tally(422, &unsupported, 1, &mut t);
        // no-recourse is expected too
        let no_recourse =
            Json::parse(r#"{"error":{"code":"no_recourse","message":"none"}}"#).unwrap();
        tally(422, &no_recourse, 1, &mut t);
        assert_eq!((t.ok, t.unsupported, t.other_errors), (0, 2, 0));
        // batch bodies classify per inner result
        let batch = Json::parse(
            r#"{"results":[
                {"kind":"global"},
                {"error":{"code":"unsupported","message":""}},
                {"error":{"code":"invalid","message":""}}
            ]}"#,
        )
        .unwrap();
        tally(200, &batch, 3, &mut t);
        assert_eq!((t.ok, t.unsupported, t.other_errors), (1, 3, 1));
        // protocol-level failures are never "expected"
        tally(500, &Json::Null, 2, &mut t);
        tally(404, &unsupported, 1, &mut t);
        assert_eq!((t.ok, t.unsupported, t.other_errors), (1, 3, 4));
    }

    #[test]
    fn tally_classifies_typed_429s_as_sheds_not_failures() {
        let mut t = Tally::default();
        for code in ["overloaded", "queue_full", "deadline_exceeded"] {
            let body = Json::parse(&format!(
                r#"{{"error":{{"code":"{code}","message":"x"}},"retry_after_ms":5}}"#
            ))
            .unwrap();
            tally(429, &body, 1, &mut t);
        }
        assert_eq!((t.ok, t.shed, t.other_errors), (0, 3, 0));
        // an untyped 429 is NOT a shed — something else refused us
        tally(429, &Json::Null, 1, &mut t);
        assert_eq!((t.shed, t.other_errors), (3, 1));
    }

    #[test]
    fn nearest_rank_quantiles_are_exact_on_small_samples() {
        assert_eq!(quantile_of(&[], 0.5), 0);
        let sorted = [10, 20, 30, 40, 100];
        assert_eq!(quantile_of(&sorted, 0.50), 30);
        assert_eq!(quantile_of(&sorted, 0.95), 100);
        assert_eq!(quantile_of(&sorted, 0.0), 10, "rank clamps to 1");
        assert_eq!(quantile_of(&sorted, 1.0), 100);
    }

    #[test]
    fn per_kind_percentiles_render_and_serialize() {
        let mut by_kind = [KindLatency::default(); 4];
        by_kind[1] = KindLatency {
            count: 7,
            p50_us: 120,
            p95_us: 900,
            p99_us: 1500,
            max_us: 1700,
        };
        let report = LoadReport {
            ok: 7,
            unsupported: 0,
            shed: 0,
            other_errors: 0,
            round_trips: 7,
            wall: Duration::from_secs(1),
            qps: 7.0,
            p50_us: 120,
            p95_us: 900,
            p99_us: 1500,
            max_us: 1700,
            sent_by_kind: [0, 7, 0, 0],
            by_kind: Some(by_kind),
            append: None,
            windows: None,
        };
        let rendered = report.render();
        assert!(
            rendered.contains("contextual") && rendered.contains("p95 900µs"),
            "per-kind line present: {rendered}"
        );
        assert!(
            !rendered.contains("recourse   0 round-trips"),
            "zero-count kinds are elided from the per-kind lines"
        );
        let json = report.to_json(&LoadgenConfig::default());
        let kinds = json.get("results").unwrap().get("latency_by_kind").unwrap();
        let ctx = kinds.get("contextual").unwrap();
        assert_eq!(ctx.get("count").unwrap().as_f64(), Some(7.0));
        assert_eq!(ctx.get("p99_us").unwrap().as_f64(), Some(1500.0));
        // batched runs have no per-kind attribution
        let batched = LoadReport {
            by_kind: None,
            ..report
        };
        assert_eq!(
            batched
                .to_json(&LoadgenConfig::default())
                .get("results")
                .unwrap()
                .get("latency_by_kind"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn append_reports_render_and_serialize() {
        let base = LoadReport {
            ok: 3,
            unsupported: 0,
            shed: 0,
            other_errors: 0,
            round_trips: 3,
            wall: Duration::from_secs(1),
            qps: 3.0,
            p50_us: 80,
            p95_us: 90,
            p99_us: 95,
            max_us: 99,
            sent_by_kind: [3, 0, 0, 0],
            by_kind: None,
            append: Some(AppendReport {
                appended_rows: 1000,
                batches: 4,
                append_errors: 0,
                compactions_armed: 1,
                p50_us: 210,
                p95_us: 340,
                p99_us: 400,
                max_us: 512,
            }),
            windows: None,
        };
        let rendered = base.render();
        assert!(
            rendered.contains("appends: 1000 rows over 4 batches")
                && rendered.contains("1 compactions armed")
                && rendered.contains("p99 400µs"),
            "writer-lane line present: {rendered}"
        );
        let config = LoadgenConfig {
            append_mix: Some(AppendMix {
                rows: 1000,
                batch: 250,
            }),
            ..LoadgenConfig::default()
        };
        let json = base.to_json(&config);
        let mix = json.get("config").unwrap().get("append_mix").unwrap();
        assert_eq!(mix.get("rows").unwrap().as_f64(), Some(1000.0));
        assert_eq!(mix.get("batch").unwrap().as_f64(), Some(250.0));
        let append = json.get("results").unwrap().get("append").unwrap();
        assert_eq!(append.get("appended_rows").unwrap().as_f64(), Some(1000.0));
        assert_eq!(append.get("p99_us").unwrap().as_f64(), Some(400.0));
        // read-only runs serialize the absent lane as null
        let read_only = LoadReport {
            append: None,
            ..base
        };
        let json = read_only.to_json(&LoadgenConfig::default());
        assert_eq!(
            json.get("config").unwrap().get("append_mix"),
            Some(&Json::Null)
        );
        assert_eq!(
            json.get("results").unwrap().get("append"),
            Some(&Json::Null)
        );
        assert!(!read_only.render().contains("appends:"));
    }

    #[test]
    fn the_writer_lane_appends_while_readers_run() {
        let mut reg = crate::EngineRegistry::new();
        reg.load_builtin("german_syn", 300, 5).unwrap();
        let server = crate::serve(&crate::ServerConfig::default(), std::sync::Arc::new(reg))
            .expect("server starts");
        let config = LoadgenConfig {
            addr: server.addr(),
            engine: "german_syn".to_string(),
            duration: Duration::from_millis(400),
            concurrency: 2,
            batch: 1,
            seed: 9,
            append_mix: Some(AppendMix { rows: 40, batch: 8 }),
            ..LoadgenConfig::default()
        };
        let report = run(&config).unwrap();
        server.shutdown();
        let append = report.append.expect("writer lane ran");
        assert_eq!(append.appended_rows, 40, "every synthesized row lands");
        assert_eq!(append.batches, 5);
        assert_eq!(append.append_errors, 0);
        assert_eq!(
            report.other_errors, 0,
            "reads stay clean while the table grows"
        );
        assert!(append.max_us > 0 && append.p50_us <= append.p99_us);
    }

    #[test]
    fn seeded_rng_replays_the_same_stream() {
        let shape = shape();
        let mix = Mix::default();
        let stream = |seed: u64| {
            let mut rng = Rng::new(seed);
            (0..50)
                .map(|_| synth_query(&shape, &mix, &mut rng).0.to_json())
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(3), stream(3));
        assert_ne!(stream(3), stream(4));
    }
}
