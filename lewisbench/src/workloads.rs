//! The four workloads: how each boots LEWIS, what it sends, and how its
//! answers are checked. Every server runs in its default configuration
//! (`ServerConfig::default()`, an `EngineRegistry::new()` with no shard,
//! index or admission settings).

use crate::client::{self, request_bytes, Conn};
use crate::drive::{self, Lane, Log, Op};
use crate::gen::{self, Kind, Pool, Query, Rng};
use crate::parity::{self, Source};
use crate::report::{self, Report};
use crate::stats::{median, summarize, tail_name, windowed};
use lewis_core::Engine;
use lewis_serve::{route_serve, serve, EngineRegistry, Router, RouterConfig, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The registry name every workload serves its engine under.
pub const ENGINE: &str = "bench";
/// The synchronous explain route.
pub const EXPLAIN: &str = "/v1/engines/bench/explain";

/// Tables are generated from this fixed seed, so every run serves the
/// same data; the workload seed draws the request streams.
pub const TABLE_SEED: u64 = 42;
pub const WARM_ROWS: usize = 2_000;
pub const COLD_ROWS: usize = 1_000_000;
pub const LIVE_ROWS: usize = 200_000;

/// Open-loop rate of `warm_mix` and `fleet_mix`, in queries per second.
/// When this benchmark was written, the service sustained 2k–6.5k q/s
/// closed-loop on two connections and 2 shared vCPUs, depending on how
/// much CPU the host granted. An open loop over only two keep-alive
/// connections queues behind every stall on its connection, so the rate
/// sits far enough below the worst of that range that the loop never
/// saturates.
pub const WARM_RATE: f64 = 500.0;
/// global : contextual : local : recourse weights.
pub const WARM_MIX: [u32; 4] = [10, 55, 30, 5];
/// Shares of a `warm_mix`/`fleet_mix` run spent in the open loop and in
/// the one-connection closed loop that measures read latency; the rest
/// is the two-connection closed loop that measures goodput.
///
/// `read_p50_us` and `read_tail_us` come from the one-connection closed
/// loop:
/// at any rate an open loop can hold without saturating, both vCPUs
/// idle between requests, and every request then waits for the host to
/// wake a vCPU. That wait, not the service, set the open loop's median
/// (0.4–0.8 ms against a 0.1 ms round trip) and moved it by a third
/// from run to run; the open-loop figures are reported as `open_*`.
const OPEN_SHARE: f64 = 0.3;
const SINGLE_SHARE: f64 = 0.5;

/// `live_append` lanes: reads, job-lane recourse and append batches per
/// second.
pub const LIVE_READ_RATE: f64 = 45.0;
pub const LIVE_MIX: [u32; 4] = [10, 60, 30, 0];
pub const LIVE_RECOURSE_RATE: f64 = 1.0;
pub const LIVE_APPEND_RATE: f64 = 10.0;
pub const APPEND_BATCH: usize = 256;

/// `cold_1m` list length per second of run, and its connections: one,
/// so the cold queries never compete with each other for the CPUs.
pub const COLD_PER_SECOND: usize = 16;
pub const COLD_CONNECTIONS: usize = 1;
/// A cold list still running after this long is cut and the rest counts
/// as failed, so a run always ends.
const COLD_BUDGET: Duration = Duration::from_secs(120);

/// Boots per run, each in a fresh process; `setup_s` is their median.
const BOOTS: usize = 7;
/// Bound on every readiness wait.
const READY_WITHIN: Duration = Duration::from_secs(30);
/// Bound on waiting for a background compaction to finish.
const COMPACTION_WITHIN: Duration = Duration::from_secs(60);

/// The workloads. `BENCHMARK.json` lists `cold_1m` and `live_append`;
/// `warm_mix` and `fleet_mix` run the same way but their bounded
/// metrics were not steady enough on a shared 2-vCPU VM (README.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmMix,
    Cold1m,
    LiveAppend,
    FleetMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WarmMix,
        Workload::Cold1m,
        Workload::LiveAppend,
        Workload::FleetMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmMix => "warm_mix",
            Workload::Cold1m => "cold_1m",
            Workload::LiveAppend => "live_append",
            Workload::FleetMix => "fleet_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Generator threads and connections: at most two, and never more than
/// the machine has CPUs.
pub fn generator_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A booted service: one or more servers, maybe a router in front.
pub struct Deployment {
    pub registries: Vec<Arc<EngineRegistry>>,
    pub servers: Vec<Server>,
    pub router: Option<Router>,
}

impl Deployment {
    /// Where clients send traffic.
    pub fn front(&self) -> SocketAddr {
        match &self.router {
            Some(router) => router.addr(),
            None => self.servers[0].addr(),
        }
    }

    /// The engine the first server currently answers with.
    pub fn engine(&self) -> Arc<Engine> {
        self.registries[0]
            .get(ENGINE)
            .expect("every deployment registers the bench engine")
            .engine()
    }

    /// Stop the router, then every server, joining their threads.
    pub fn stop(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for server in self.servers {
            server.shutdown();
        }
    }
}

fn start_server(registry: EngineRegistry) -> Result<(Arc<EngineRegistry>, Server), String> {
    let registry = Arc::new(registry);
    let server = serve(&ServerConfig::default(), Arc::clone(&registry)).map_err(err)?;
    client::wait_ready(server.addr(), "/healthz", READY_WITHIN)?;
    Ok((registry, server))
}

/// Generate a builtin table, build its engine and serve it.
pub fn boot_builtin(source: Source, rows: usize) -> Result<Deployment, String> {
    let mut registry = EngineRegistry::new();
    registry
        .load_builtin_as(ENGINE, source.builtin(), rows, TABLE_SEED)
        .map_err(err)?;
    let (registry, server) = start_server(registry)?;
    Ok(Deployment {
        registries: vec![registry],
        servers: vec![server],
        router: None,
    })
}

/// Restore `replicas` servers from one pack; with more than one, put a
/// router in front and wait until it sees every replica healthy.
pub fn boot_pack(path: &Path, replicas: usize) -> Result<Deployment, String> {
    let path = path.to_str().ok_or("pack path is not UTF-8")?;
    let mut registries = Vec::new();
    let mut servers = Vec::new();
    for _ in 0..replicas {
        let mut registry = EngineRegistry::new();
        registry.load_pack(ENGINE, path).map_err(err)?;
        let (registry, server) = start_server(registry)?;
        registries.push(registry);
        servers.push(server);
    }
    let router = if replicas > 1 {
        let router = route_serve(&RouterConfig {
            replicas: servers.iter().map(Server::addr).collect(),
            ..RouterConfig::default()
        })
        .map_err(err)?;
        wait_router(router.addr(), replicas)?;
        Some(router)
    } else {
        None
    };
    Ok(Deployment {
        registries,
        servers,
        router,
    })
}

fn wait_router(addr: SocketAddr, replicas: usize) -> Result<(), String> {
    let deadline = Instant::now() + READY_WITHIN;
    loop {
        let healthy = client::once(addr, "GET", "/healthz", "")
            .ok()
            .and_then(|r| {
                let json = lewis_serve::Json::parse(std::str::from_utf8(&r.body).ok()?).ok()?;
                json.get("replicas_healthy")?.as_f64()
            })
            .unwrap_or(0.0);
        if healthy as usize >= replicas {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "router saw {healthy} of {replicas} replicas healthy"
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// How a workload boots, in a form a child process takes on its
/// command line.
#[derive(Debug, Clone)]
pub enum BootSpec {
    /// Generate a builtin table of this many rows and build its engine.
    Builtin(Source, usize),
    /// Restore this many replicas from a pack (a router in front of two
    /// or more).
    Pack(PathBuf, usize),
}

impl BootSpec {
    pub fn boot(&self) -> Result<Deployment, String> {
        match self {
            BootSpec::Builtin(source, rows) => boot_builtin(*source, *rows),
            BootSpec::Pack(path, replicas) => boot_pack(path, *replicas),
        }
    }

    /// The arguments that follow `--boot-child`.
    pub fn to_args(&self) -> Vec<String> {
        match self {
            BootSpec::Builtin(source, rows) => {
                vec!["builtin".into(), source.builtin().into(), rows.to_string()]
            }
            BootSpec::Pack(path, replicas) => {
                vec![
                    "pack".into(),
                    path.display().to_string(),
                    replicas.to_string(),
                ]
            }
        }
    }

    pub fn from_args(args: &[String]) -> Option<BootSpec> {
        let count: usize = args.get(2)?.parse().ok()?;
        match args.first()?.as_str() {
            "builtin" => {
                let source = [Source::GermanSyn, Source::Scaled]
                    .into_iter()
                    .find(|s| s.builtin() == args[1])?;
                Some(BootSpec::Builtin(source, count))
            }
            "pack" => Some(BootSpec::Pack(PathBuf::from(&args[1]), count)),
            _ => None,
        }
    }
}

static BOOT_EXE: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();

/// The executable that times boots in child processes (default: this
/// one). Test harnesses point it at the benchmark binary.
pub fn set_boot_exe(path: PathBuf) {
    let _ = BOOT_EXE.set(path);
}

/// Boot once in each of `BOOTS - 1` child processes, each a fresh
/// process as a real start is, then once here, keeping that deployment.
/// Returns it with every boot's wall time.
pub fn timed_boots(spec: &BootSpec) -> Result<(Deployment, Vec<f64>), String> {
    let exe = match BOOT_EXE.get() {
        Some(exe) => exe.clone(),
        None => std::env::current_exe().map_err(err)?,
    };
    let mut times = Vec::with_capacity(BOOTS);
    for _ in 1..BOOTS {
        let out = std::process::Command::new(&exe)
            .arg("--boot-child")
            .args(spec.to_args())
            .stdin(std::process::Stdio::null())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text
            .lines()
            .find_map(|l| l.strip_prefix("boot_s="))
            .and_then(|v| v.trim().parse::<f64>().ok());
        match secs {
            Some(secs) if out.status.success() => times.push(secs),
            _ => {
                return Err(format!(
                    "boot child failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    let started = Instant::now();
    let deployment = spec.boot()?;
    times.push(started.elapsed().as_secs_f64());
    Ok((deployment, times))
}

/// The child side of [`timed_boots`]: boot, report the wall time on
/// stdout as `boot_s=…`, stop.
pub fn boot_child(spec: &BootSpec) -> Result<f64, String> {
    let started = Instant::now();
    let deployment = spec.boot()?;
    let secs = started.elapsed().as_secs_f64();
    deployment.stop();
    Ok(secs)
}

/// Build the `warm_mix` engine, answer every query of its pool and fit
/// its actionable sets' surrogates, then save it as a pack: the warm
/// pack `warm_mix` and `fleet_mix` boot from.
pub fn warm_pack(seed: u64, dir: &Path) -> Result<(PathBuf, Pool), String> {
    let mut registry = EngineRegistry::new();
    registry
        .load_builtin_as(ENGINE, "german_syn", WARM_ROWS, TABLE_SEED)
        .map_err(err)?;
    let engine = registry.get(ENGINE).ok_or("engine vanished")?.engine();
    let pool = gen::pool(&engine, seed, 48, 64, 24);
    let requests: Vec<_> = pool.queries.iter().map(|q| q.request.clone()).collect();
    for result in engine.run_batch(&requests) {
        if let Err(e) = result {
            if !expected_error(&e) {
                return Err(format!("warm-up failed: {e}"));
            }
        }
    }
    for set in gen::actionable_sets(&engine) {
        engine.prepare_surrogate(&set).map_err(err)?;
    }
    let path = dir.join("warm.lewis");
    registry
        .save_pack(ENGINE, path.to_str().ok_or("pack path is not UTF-8")?)
        .map_err(err)?;
    Ok((path, pool))
}

/// The "the data cannot answer this" outcomes, answered as 422s.
pub fn expected_error(e: &lewis_core::LewisError) -> bool {
    matches!(
        lewis_serve::wire::error_code(e),
        "unsupported" | "no_recourse"
    )
}

/// The wire request for one query.
pub fn explain_bytes(query: &Query) -> Arc<[u8]> {
    request_bytes("POST", EXPLAIN, &query.body).into()
}

/// Spread `ops` (sorted by due time) round-robin over the generator
/// threads and run them as one open loop.
fn run_open(front: SocketAddr, per_thread: Vec<Vec<Op>>) -> Log {
    let start = Instant::now() + Duration::from_millis(20);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = per_thread
            .iter()
            .map(|ops| scope.spawn(move || drive::open_loop(front, ops, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    Log::merge(logs)
}

fn round_robin(ops: Vec<Op>, threads: usize) -> Vec<Vec<Op>> {
    let mut out: Vec<Vec<Op>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, op) in ops.into_iter().enumerate() {
        out[i % threads].push(op);
    }
    out
}

/// Closed loop on every generator thread; `next` hands out the next
/// request until it returns `None`. Returns the log and the wall time.
fn run_closed(
    front: SocketAddr,
    connections: usize,
    next: &(dyn Fn() -> Option<(Lane, Arc<[u8]>)> + Sync),
) -> (Log, Duration) {
    let started = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|_| scope.spawn(move || drive::closed_loop(front, next)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    (Log::merge(logs), started.elapsed())
}

fn lane_of(query: &Query) -> Lane {
    if query.kind == Kind::Recourse {
        Lane::Recourse
    } else {
        Lane::Read
    }
}

/// Record a latency's median and tail under `p50`/`tail` names:
/// `values` (in send order) are cut into windows of at least
/// `stats::WINDOW` samples, and each figure is the median over windows
/// of that window's p50 and tail, so one stall of the host moves one
/// window, not the run.
fn latency_metrics(report: &mut Report, p50: &str, tail: Option<&str>, values: &[f64], what: &str) {
    match windowed(values) {
        Some(w) => {
            let how = format!(
                "{what}, median over {} windows of {} samples ({} in all)",
                w.windows, w.per_window, w.n
            );
            report.set(p50, "us", w.p50, format!("{how}, p50"));
            if let Some(tail) = tail {
                report.set(
                    tail,
                    "us",
                    w.tail,
                    format!(
                        "{how}, {} ({} samples beyond it per window)",
                        tail_name(w.tail_permille),
                        w.beyond
                    ),
                );
            }
        }
        None => {
            let why = format!("{what}: only {} samples, too few for a tail", values.len());
            if values.is_empty() {
                report.not_applicable(p50, "us", &why);
            } else {
                report.set(
                    p50,
                    "us",
                    median(values),
                    format!("{what}, median of {}", values.len()),
                );
            }
            if let Some(tail) = tail {
                report.not_applicable(tail, "us", &why);
            }
        }
    }
}

/// CPU time of the whole process (servers and generator) per answered
/// operation since `before`.
fn cpu_metric(report: &mut Report, before: Option<f64>, log: &Log, phase: &str) {
    if let (Some(before), Some(after)) = (before, report::cpu_seconds()) {
        let answered = log.answered().max(1);
        report.set(
            "cpu_per_op_us",
            "us",
            (after - before) * 1e6 / answered as f64,
            format!(
                "{:.2} CPU s over {answered} answered operations in the {phase}",
                after - before
            ),
        );
    }
}

fn lateness_note(report: &mut Report, log: &Log) {
    if let Some(s) = summarize(&log.late_us) {
        report.note(format!(
            "open-loop generator lateness (send minus due): p50 {:.1} us, max {:.1} us over {} sends",
            s.p50, s.max, s.n
        ));
    }
}

fn tally(report: &mut Report, log: &Log) {
    report.attempted += log.attempted;
    report.failed += log.failed;
    for e in &log.errors {
        report.note(format!("failure: {e}"));
    }
}

fn finish_common(report: &mut Report, boots: &[f64]) {
    report.set(
        "setup_s",
        "s",
        median(boots),
        format!(
            "median of {} boots, each in a fresh process: {boots:.4?}",
            boots.len()
        ),
    );
    match report::peak_rss_mb() {
        Some(mb) => report.set(
            "peak_rss_mb",
            "MB",
            mb,
            "VmHWM after the measured phases (this process booted once)",
        ),
        None => report.note("peak_rss_mb: /proc/self/status has no VmHWM"),
    }
}

fn failed_share(report: &mut Report) {
    let share = report.failed as f64 / report.attempted.max(1) as f64;
    report.set(
        "failed_share",
        "ratio",
        share,
        format!("{} of {} operations", report.failed, report.attempted),
    );
}

/// A seeded sample of `n` pool indices.
fn sample(pool_len: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5A3F);
    (0..n).map(|_| rng.below(pool_len)).collect()
}

/// Check every sampled query against `expected` on `addr`.
fn parity_at(
    what: &str,
    addr: SocketAddr,
    expected: &[(u16, String)],
    queries: &[&Query],
) -> Result<usize, String> {
    let mut conn = Conn::connect(addr).map_err(err)?;
    parity::check(what, expected, queries.iter().copied(), |q| {
        conn.send(&explain_bytes(q)).map_err(err)
    })
}

/// Run the untraced workload and fill `report`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    match workload {
        Workload::WarmMix => run_warm(seed, seconds, dir, report, 1),
        Workload::FleetMix => run_warm(seed, seconds, dir, report, 2),
        Workload::Cold1m => run_cold(seed, seconds, report),
        Workload::LiveAppend => run_live(seed, seconds, report),
    }
}

/// `warm_mix` (one server) and `fleet_mix` (two replicas and a router).
fn run_warm(
    seed: u64,
    seconds: u64,
    dir: &Path,
    report: &mut Report,
    replicas: usize,
) -> Result<(), String> {
    let (pack, pool) = warm_pack(seed, dir)?;
    let (deployment, boots) = timed_boots(&BootSpec::Pack(pack.clone(), replicas))?;
    let front = deployment.front();
    let threads = generator_threads();
    let bodies: Vec<Arc<[u8]>> = pool.queries.iter().map(explain_bytes).collect();
    let open_secs = seconds as f64 * OPEN_SHARE;
    let single_secs = seconds as f64 * SINGLE_SHARE;
    let closed_secs = seconds as f64 - open_secs - single_secs;
    report.note(format!(
        "mix {WARM_MIX:?} over a pool of {} distinct queries: open loop at {WARM_RATE} q/s for {open_secs:.1} s, closed loop on one connection for {single_secs:.1} s, closed loop on {threads} connections for {closed_secs:.1} s",
        pool.queries.len()
    ));

    let n_open = (WARM_RATE * open_secs) as usize;
    let ops: Vec<Op> = gen::stream(&pool, WARM_MIX, n_open, seed)
        .into_iter()
        .enumerate()
        .map(|(i, q)| Op {
            due: Duration::from_secs_f64(i as f64 / WARM_RATE),
            lane: lane_of(&pool.queries[q]),
            request: Arc::clone(&bodies[q]),
            tag: i,
        })
        .collect();
    let open = run_open(front, round_robin(ops, threads));

    let closed_loop = |connections: usize, secs: f64, salt: u64| {
        let stream = gen::stream(&pool, WARM_MIX, 1 << 16, seed ^ salt);
        let cursor = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let next = || {
            if Instant::now() >= deadline {
                return None;
            }
            let q = stream[cursor.fetch_add(1, Ordering::Relaxed) % stream.len()];
            Some((lane_of(&pool.queries[q]), Arc::clone(&bodies[q])))
        };
        run_closed(front, connections, &next)
    };
    let cpu = report::cpu_seconds();
    let (single, _) = closed_loop(1, single_secs, 0x5146);
    cpu_metric(report, cpu, &single, "one-connection closed loop");
    let (closed, wall) = closed_loop(threads, closed_secs, 0xC105);

    finish_common(report, &boots);
    report.set(
        "goodput_qps",
        "q/s",
        closed.answered() as f64 / wall.as_secs_f64(),
        format!(
            "{} answered in {:.3} s closed loop on {threads} connections",
            closed.answered(),
            wall.as_secs_f64()
        ),
    );
    latency_metrics(
        report,
        "read_p50_us",
        Some("read_tail_us"),
        &single.latencies(Lane::Read),
        "reads, closed loop on one connection",
    );
    latency_metrics(
        report,
        "recourse_p50_us",
        None,
        &single.latencies(Lane::Recourse),
        "synchronous recourse, closed loop on one connection",
    );
    latency_metrics(
        report,
        "open_read_p50_us",
        Some("open_read_tail_us"),
        &open.latencies(Lane::Read),
        "reads, open loop timed from due",
    );
    latency_metrics(
        report,
        "open_recourse_p50_us",
        None,
        &open.latencies(Lane::Recourse),
        "synchronous recourse, open loop timed from due",
    );
    report.not_applicable("append_p50_us", "us", "no writer lane");
    report.not_applicable("append_tail_us", "us", "no writer lane");
    lateness_note(report, &open);
    tally(report, &open);
    tally(report, &single);
    tally(report, &closed);
    failed_share(report);

    // parity: every server and the router answer like a cold reference
    let reference = parity::reference_engine(Source::GermanSyn, WARM_ROWS, TABLE_SEED, &[])?;
    let picks = sample(pool.queries.len(), 64, seed);
    let queries: Vec<&Query> = picks.iter().map(|&i| &pool.queries[i]).collect();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| parity::expected(&reference, q))
        .collect();
    let mut checked = 0;
    for (i, server) in deployment.servers.iter().enumerate() {
        checked += parity_at(&format!("server {i}"), server.addr(), &expected, &queries)?;
    }
    if deployment.router.is_some() {
        checked += parity_at("router", front, &expected, &queries)?;
    }
    report.note(format!(
        "parity: {checked} answers byte-identical to the cold reference"
    ));
    deployment.stop();
    Ok(())
}

/// `cold_1m`: a fixed seeded list, closed loop, against a freshly built
/// million-row engine.
fn run_cold(seed: u64, seconds: u64, report: &mut Report) -> Result<(), String> {
    let (deployment, boots) = timed_boots(&BootSpec::Builtin(Source::Scaled, COLD_ROWS))?;
    let front = deployment.front();
    let list = gen::cold_list(
        &deployment.engine(),
        seed,
        seconds as usize * COLD_PER_SECOND,
    );
    let bodies: Vec<Arc<[u8]>> = list.iter().map(explain_bytes).collect();
    report.note(format!(
        "closed loop over a fixed list of {} queries (local : multi-attribute contextual = 3 : 1) on {COLD_CONNECTIONS} connection",
        list.len()
    ));
    let cursor = AtomicUsize::new(0);
    let cut = Instant::now() + COLD_BUDGET;
    let next = || {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        (i < bodies.len() && Instant::now() < cut).then(|| (Lane::Read, Arc::clone(&bodies[i])))
    };
    let cpu = report::cpu_seconds();
    let (mut log, wall) = run_closed(front, COLD_CONNECTIONS, &next);
    cpu_metric(report, cpu, &log, "cold list");
    let unsent = list.len() as u64 - log.attempted.min(list.len() as u64);
    log.attempted += unsent;
    log.failed += unsent;

    finish_common(report, &boots);
    report.set(
        "goodput_qps",
        "q/s",
        log.answered() as f64 / wall.as_secs_f64(),
        format!("{} answered in {:.3} s", log.answered(), wall.as_secs_f64()),
    );
    latency_metrics(
        report,
        "read_p50_us",
        Some("read_tail_us"),
        &log.latencies(Lane::Read),
        "closed-loop list",
    );
    report.not_applicable("recourse_p50_us", "us", "the cold list has no recourse");
    report.not_applicable("append_p50_us", "us", "no writer lane");
    report.not_applicable("append_tail_us", "us", "no writer lane");
    tally(report, &log);
    failed_share(report);

    let reference = parity::reference_engine(Source::Scaled, COLD_ROWS, TABLE_SEED, &[])?;
    let picks = sample(list.len(), 12, seed);
    let queries: Vec<&Query> = picks.iter().map(|&i| &list[i]).collect();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| parity::expected(&reference, q))
        .collect();
    let checked = parity_at("server", front, &expected, &queries)?;
    report.note(format!(
        "parity: {checked} answers byte-identical to the cold reference"
    ));
    deployment.stop();
    Ok(())
}

/// One scheduled `live_append` operation.
pub enum LiveItem {
    Read(Query),
    Append(Vec<Vec<tabular::Value>>),
    Job(Query),
}

/// A `live_append` operation and when it is due.
pub struct Scheduled {
    pub due: Duration,
    pub what: LiveItem,
}

/// The `live_append` schedule for a run of `seconds`, sorted by due
/// time: paced reads, append batches and job-lane recourse.
pub fn live_schedule(engine: &Engine, seed: u64, seconds: u64) -> Vec<Scheduled> {
    let secs = seconds as f64;
    let pool = gen::pool(engine, seed, 48, 64, 16);
    let mut schedule: Vec<Scheduled> =
        gen::stream(&pool, LIVE_MIX, (LIVE_READ_RATE * secs) as usize, seed)
            .into_iter()
            .enumerate()
            .map(|(i, q)| Scheduled {
                due: Duration::from_secs_f64(i as f64 / LIVE_READ_RATE),
                what: LiveItem::Read(pool.queries[q].clone()),
            })
            .collect();
    let batches = gen::append_batches(
        engine,
        seed,
        (LIVE_APPEND_RATE * secs) as usize,
        APPEND_BATCH,
    );
    schedule.extend(batches.into_iter().enumerate().map(|(j, rows)| Scheduled {
        due: Duration::from_secs_f64((j as f64 + 0.5) / LIVE_APPEND_RATE),
        what: LiveItem::Append(rows),
    }));
    let jobs = gen::stream(
        &pool,
        [0, 0, 0, 1],
        (LIVE_RECOURSE_RATE * secs) as usize,
        seed ^ 0x10B,
    );
    schedule.extend(jobs.into_iter().enumerate().map(|(j, q)| Scheduled {
        due: Duration::from_secs_f64((j as f64 + 0.25) / LIVE_RECOURSE_RATE),
        what: LiveItem::Job(pool.queries[q].clone()),
    }));
    schedule.sort_by_key(|s| s.due);
    schedule
}

/// Wait (bounded) until no background compaction is folding `entry`.
pub fn wait_for_compaction(entry: &lewis_serve::EngineEntry) -> Result<(), String> {
    let waited = Instant::now();
    while entry.live.status().compacting {
        if waited.elapsed() > COMPACTION_WITHIN {
            return Err("background compaction did not finish".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

/// `live_append`: paced reads, a writer crossing the compaction
/// threshold, and job-lane recourse, all open loop. Reads alternate
/// between the connections; appends ride the first, jobs the last.
fn run_live(seed: u64, seconds: u64, report: &mut Report) -> Result<(), String> {
    let (deployment, boots) = timed_boots(&BootSpec::Builtin(Source::Scaled, LIVE_ROWS))?;
    let front = deployment.front();
    let threads = generator_threads();
    let schedule = live_schedule(&deployment.engine(), seed, seconds);
    report.note(format!(
        "open loop: reads at {LIVE_READ_RATE} q/s (mix {LIVE_MIX:?}), {APPEND_BATCH}-row appends at {LIVE_APPEND_RATE}/s, job-lane recourse at {LIVE_RECOURSE_RATE}/s, on {threads} connections"
    ));

    let mut lanes: Vec<Vec<Op>> = (0..threads).map(|_| Vec::new()).collect();
    let mut batches: Vec<&Vec<Vec<tabular::Value>>> = Vec::new();
    let mut parity_reads: Vec<&Query> = Vec::new();
    let mut parity_jobs: Vec<&Query> = Vec::new();
    let mut reads = 0;
    for item in &schedule {
        let (lane, thread, request, tag) = match &item.what {
            LiveItem::Read(q) => {
                reads += 1;
                parity_reads.push(q);
                (Lane::Read, reads % threads, explain_bytes(q), reads)
            }
            LiveItem::Append(rows) => {
                batches.push(rows);
                let body = gen::rows_body(rows);
                (
                    Lane::Append,
                    0,
                    request_bytes("POST", "/v1/engines/bench/rows", &body).into(),
                    batches.len() - 1,
                )
            }
            LiveItem::Job(q) => {
                parity_jobs.push(q);
                let path = "/v1/engines/bench/explain?mode=async";
                (
                    Lane::Job,
                    threads - 1,
                    request_bytes("POST", path, &q.body).into(),
                    0,
                )
            }
        };
        lanes[thread].push(Op {
            due: item.due,
            lane,
            request,
            tag,
        });
    }
    let cpu = report::cpu_seconds();
    let log = run_open(front, lanes);
    cpu_metric(report, cpu, &log, "open loop");

    // let any background fold finish before memory and parity are read
    let entry = deployment.registries[0]
        .get(ENGINE)
        .ok_or("engine vanished")?;
    wait_for_compaction(&entry)?;

    finish_common(report, &boots);
    report.not_applicable("goodput_qps", "q/s", "open loop only; reads are paced");
    latency_metrics(
        report,
        "read_p50_us",
        Some("read_tail_us"),
        &log.latencies(Lane::Read),
        "open-loop reads",
    );
    latency_metrics(
        report,
        "recourse_p50_us",
        None,
        &log.latencies(Lane::Job),
        "job-lane recourse, due to terminal poll",
    );
    latency_metrics(
        report,
        "append_p50_us",
        Some("append_tail_us"),
        &log.latencies(Lane::Append),
        "open-loop appends",
    );
    if let Some(s) = summarize(&log.submit_us) {
        report.note(format!("job submit (202) p50 {:.1} us over {}", s.p50, s.n));
    }
    report.note(format!(
        "compactions armed by appends: {}",
        log.compactions_armed
    ));
    lateness_note(report, &log);
    tally(report, &log);
    failed_share(report);

    // parity against a cold build over the base plus every accepted
    // batch, before and after a final compaction
    let mut accepted = log.appended.clone();
    accepted.sort_unstable();
    let appended: Vec<Vec<tabular::Value>> = accepted
        .iter()
        .flat_map(|&j| batches[j].iter().cloned())
        .collect();
    let reference = parity::reference_engine(Source::Scaled, LIVE_ROWS, TABLE_SEED, &appended)?;
    let mut queries: Vec<&Query> = sample(parity_reads.len(), 24, seed)
        .into_iter()
        .map(|i| parity_reads[i])
        .collect();
    queries.extend(
        sample(parity_jobs.len(), 2, seed)
            .into_iter()
            .map(|i| parity_jobs[i]),
    );
    let expected: Vec<_> = queries
        .iter()
        .map(|q| parity::expected(&reference, q))
        .collect();
    let before = parity_at("before compaction", front, &expected, &queries)?;
    let compacted = client::once(front, "POST", "/v1/engines/bench/compact", "").map_err(err)?;
    if compacted.status != 200 {
        return Err(format!("compact answered {}", compacted.status));
    }
    let after = parity_at("after compaction", front, &expected, &queries)?;
    report.note(format!(
        "parity: {before} answers before and {after} after compaction byte-identical to a cold build over {} + {} rows",
        LIVE_ROWS,
        appended.len()
    ));
    drop(entry);
    deployment.stop();
    Ok(())
}
