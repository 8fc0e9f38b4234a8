//! The traced run: each workload's seeded stream replayed in-process
//! through the calls the server makes, in the server's order, with a
//! span around each; then every other layer timed from outside through
//! its public functions on the workload's own table.
//!
//! The server's order for a synchronous explain is
//! `http::read_request` → `EngineRegistry::get` + `EngineEntry::engine`
//! → `Admission::admit` → `Json::parse` + `wire::request_from_json` →
//! `Engine::run` → `wire::response_to_json` + `HttpResponse::json` →
//! permit drop → `http::write_response`.

use crate::client::{request_bytes, Conn, Reply};
use crate::drive::{poll_job, Link};
use crate::gen::{self, Kind, Query};
use crate::parity::{self, Source};
use crate::report::Report;
use crate::stats::{median, percentile, summarize};
use crate::workloads::{
    self, boot_builtin, boot_pack, explain_bytes, warm_pack, Deployment, Workload, COLD_ROWS,
    ENGINE, LIVE_ROWS, TABLE_SEED, WARM_MIX, WARM_ROWS,
};
use lewis_core::{Contrast, Engine};
use lewis_index::TableIndex;
use lewis_live::LiveEngine;
use lewis_serve::http::{self, HttpResponse, ReadOutcome};
use lewis_serve::{route_serve, serve, wire, EngineRegistry, Json, RouterConfig, ServerConfig};
use lewis_store::{Pack, PackMeta};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tabular::{Context, Counter, ShardedTable};

/// The per-layer metrics, as `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("serve.http.read_us", "us"),
    ("serve.http.write_us", "us"),
    ("serve.wire.decode_us", "us"),
    ("serve.wire.encode_us", "us"),
    ("serve.wire.response_bytes", "bytes"),
    ("serve.admission.admit_us", "us"),
    ("serve.registry.get_us", "us"),
    ("serve.router.hop_us", "us"),
    ("serve.router.forward_skew", "ratio"),
    ("serve.router.replica_errors", "count"),
    ("serve.transport_us", "us"),
    ("shims.rayon.fanout_us", "us"),
    ("core.engine.global_us.p50", "us"),
    ("core.engine.global_us.tail", "us"),
    ("core.engine.contextual_us.p50", "us"),
    ("core.engine.contextual_us.tail", "us"),
    ("core.engine.local_us.p50", "us"),
    ("core.engine.local_us.tail", "us"),
    ("core.engine.recourse_us.p50", "us"),
    ("core.engine.recourse_us.tail", "us"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.entries", "count"),
    ("core.scores.pass_us", "us"),
    ("core.scores.backoff_us", "us"),
    ("index.pass_us", "us"),
    ("index.probe_us", "us"),
    ("index.build_ms", "ms"),
    ("index.bytes", "bytes"),
    ("tabular.scan_pass_us", "us"),
    ("tabular.sharded_pass_us", "us"),
    ("core.recourse.fit_ms", "ms"),
    ("core.recourse.solve_us", "us"),
    ("core.recourse.surrogate_misses", "count"),
    ("live.append_us", "us"),
    ("live.compact_ms", "ms"),
    ("live.compactions", "count"),
    ("jobs.submit_us", "us"),
    ("jobs.overhead_us", "us"),
    ("store.pack.restore_ms", "ms"),
    ("store.pack.bytes", "bytes"),
    ("trace.overhead_pct", "%"),
];

/// Requests replayed per second of run, per workload.
const WARM_TRACE_PER_SECOND: usize = 400;
const COLD_TRACE_PER_SECOND: usize = 4;
/// Share of a `live_append` run's schedule the trace replays.
const LIVE_TRACE_SHARE: f64 = 0.5;
/// Fewest engine calls of one kind the trace records; kinds the stream
/// sends less often are topped up from a probe pool.
const MIN_PER_KIND: usize = 20;
/// Requests in the HTTP probes (transport, router hop, job lane).
const HTTP_PROBE: usize = 400;
const JOB_PROBE: usize = 20;
/// Largest body `http::read_request` accepts, as the server's default.
const MAX_BODY: usize = 1 << 20;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Spans kept in memory; written out when the run ends. Disabled, it
/// records nothing, so the same pipeline runs untraced.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Each span's self time in µs: its duration minus its children's.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e3)
            .collect()
    }

    /// Self times of every span named `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let times = self.self_times_us();
        self.spans
            .iter()
            .zip(times)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

fn engine_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Global => "core.engine.global",
        Kind::Contextual => "core.engine.contextual",
        Kind::Local => "core.engine.local",
        Kind::Recourse => "core.engine.recourse",
    }
}

/// Counting-cache and surrogate-cache movement over the replay.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheDelta {
    pub hits: u64,
    pub misses: u64,
    pub surrogate_misses: u64,
}

/// One request through the server's calls. Returns the answer.
pub fn pipeline(
    tracer: &mut Tracer,
    id: u64,
    kind: Kind,
    raw: &[u8],
    registry: &EngineRegistry,
    cache: &mut CacheDelta,
) -> Result<Reply, String> {
    let root = tracer.open("request", id, None);
    let span = tracer.open("serve.http.read", id, Some(root));
    let outcome = http::read_request(&mut &raw[..], MAX_BODY).map_err(|e| e.to_string())?;
    tracer.close(span);
    let ReadOutcome::Request(request) = outcome else {
        return Err(format!("request {id} did not parse: {outcome:?}"));
    };

    let span = tracer.open("serve.registry.get", id, Some(root));
    let entry = registry.get(ENGINE).ok_or("engine vanished")?;
    let engine = entry.engine();
    tracer.close(span);

    let span = tracer.open("serve.admission.admit", id, Some(root));
    let permit = entry
        .admission
        .admit()
        .map_err(|_| "admission shed a request")?;
    tracer.close(span);

    let span = tracer.open("serve.wire.decode", id, Some(root));
    let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
    let decoded = wire::request_from_json(&Json::parse(text).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    tracer.close(span);

    let before = engine.cache_stats();
    let surrogates = engine.surrogate_stats();
    let span = tracer.open(engine_span(kind), id, Some(root));
    let result = engine.run(&decoded);
    tracer.close(span);
    let after = engine.cache_stats();
    cache.hits += after.hits - before.hits;
    cache.misses += after.misses - before.misses;
    cache.surrogate_misses += engine.surrogate_stats().misses - surrogates.misses;

    let span = tracer.open("serve.wire.encode", id, Some(root));
    let (status, json) = match result {
        Ok(response) => (200, wire::response_to_json(&response)),
        Err(e) => (wire::error_status(&e), wire::error_to_json(&e)),
    };
    let response = HttpResponse::json(status, &json)
        .with_header("x-engine-generation", entry.generation.to_string());
    tracer.close(span);

    let span = tracer.open("serve.admission.release", id, Some(root));
    drop(permit);
    tracer.close(span);

    let span = tracer.open("serve.http.write", id, Some(root));
    let mut out = Vec::with_capacity(response.body.len() + 128);
    http::write_response(&mut out, &response).map_err(|e| e.to_string())?;
    tracer.close(span);
    tracer.close(root);
    Ok(Reply {
        status,
        body: response.body,
    })
}

/// One step of a replayed stream.
#[derive(Clone)]
pub enum Step {
    Explain(Query),
    Append(Vec<Vec<tabular::Value>>),
}

/// A booted workload and the stream prefix its trace replays.
pub struct Plan {
    pub deployment: Deployment,
    pub steps: Vec<Step>,
    /// The served table, for the parity reference.
    pub source: Source,
    pub rows: usize,
}

/// Boot `workload` once (untimed) and build the replayed prefix.
pub fn plan(workload: Workload, seed: u64, seconds: u64, dir: &Path) -> Result<Plan, String> {
    match workload {
        Workload::WarmMix | Workload::FleetMix => {
            let (pack, pool) = warm_pack(seed, dir)?;
            let replicas = if workload == Workload::FleetMix { 2 } else { 1 };
            let deployment = boot_pack(&pack, replicas)?;
            let steps = gen::stream(
                &pool,
                WARM_MIX,
                seconds as usize * WARM_TRACE_PER_SECOND,
                seed,
            )
            .into_iter()
            .map(|q| Step::Explain(pool.queries[q].clone()))
            .collect();
            Ok(Plan {
                deployment,
                steps,
                source: Source::GermanSyn,
                rows: WARM_ROWS,
            })
        }
        Workload::Cold1m => {
            let deployment = boot_builtin(Source::Scaled, COLD_ROWS)?;
            let steps = gen::cold_list(
                &deployment.engine(),
                seed,
                seconds as usize * COLD_TRACE_PER_SECOND,
            )
            .into_iter()
            .map(Step::Explain)
            .collect();
            Ok(Plan {
                deployment,
                steps,
                source: Source::Scaled,
                rows: COLD_ROWS,
            })
        }
        Workload::LiveAppend => {
            let deployment = boot_builtin(Source::Scaled, LIVE_ROWS)?;
            let schedule = workloads::live_schedule(&deployment.engine(), seed, seconds);
            let cut = Duration::from_secs_f64(seconds as f64 * LIVE_TRACE_SHARE);
            let steps = schedule
                .into_iter()
                .filter(|item| item.due < cut)
                .map(|item| match item.what {
                    workloads::LiveItem::Read(q) | workloads::LiveItem::Job(q) => Step::Explain(q),
                    workloads::LiveItem::Append(rows) => Step::Append(rows),
                })
                .collect();
            Ok(Plan {
                deployment,
                steps,
                source: Source::Scaled,
                rows: LIVE_ROWS,
            })
        }
    }
}

/// What one replay saw.
#[derive(Debug, Default)]
pub struct Replayed {
    pub cache: CacheDelta,
    /// Background compactions the replayed appends armed.
    pub compactions: u64,
    /// Answer body sizes.
    pub response_bytes: Vec<f64>,
}

/// Replay `steps` through the pipeline against `registry`.
pub fn replay(
    registry: &EngineRegistry,
    steps: &[Step],
    tracer: &mut Tracer,
    first_id: u64,
) -> Result<Replayed, String> {
    let mut out = Replayed::default();
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Explain(query) => {
                let raw = explain_bytes(query);
                let reply = pipeline(
                    tracer,
                    first_id + i as u64,
                    query.kind,
                    &raw,
                    registry,
                    &mut out.cache,
                )?;
                out.response_bytes.push(reply.body.len() as f64);
            }
            Step::Append(rows) => {
                let entry = registry.get(ENGINE).ok_or("engine vanished")?;
                let span = tracer.open("live.append", first_id + i as u64, None);
                entry.live.append_rows(rows).map_err(|e| e.to_string())?;
                out.compactions += u64::from(entry.live.maybe_spawn_compaction());
                tracer.close(span);
            }
        }
    }
    Ok(out)
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    median(values)
}

/// p50 and the tail (the highest percentile with ten samples beyond it,
/// or the maximum below 20 samples).
fn p50_tail(values: &[f64]) -> (f64, f64) {
    match summarize(values) {
        Some(s) => (s.p50, s.tail),
        None if values.is_empty() => (f64::NAN, f64::NAN),
        None => {
            let mut v = values.to_vec();
            v.sort_by(f64::total_cmp);
            (percentile(&v, 500), v[v.len() - 1])
        }
    }
}

/// Time `f` `reps` times; the samples in µs.
fn time_us(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            micros(t.elapsed())
        })
        .collect()
}

/// Run the traced measurement of `workload` and fill `report` with
/// every per-layer metric.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    dir: &Path,
    out: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let plan = plan(workload, seed, seconds, dir)?;
    let mut tracer = Tracer::new(true);
    let registry = Arc::clone(&plan.deployment.registries[0]);
    let replayed = replay(&registry, &plan.steps, &mut tracer, 0)?;
    let cache = replayed.cache;
    let engine = plan.deployment.engine();
    report.note(format!(
        "traced replay: {} steps of the {} stream",
        plan.steps.len(),
        workload.name()
    ));

    // top up query kinds the stream sends rarely, so every kind has a
    // p50 and a tail
    let probe_pool = gen::pool(
        &engine,
        seed ^ 0x7A11,
        MIN_PER_KIND,
        MIN_PER_KIND,
        MIN_PER_KIND,
    );
    let mut extra = CacheDelta::default();
    let mut id = plan.steps.len() as u64;
    for kind in Kind::ALL {
        let have = tracer
            .spans
            .iter()
            .filter(|s| s.name == engine_span(kind))
            .count();
        let candidates: Vec<&Query> = probe_pool
            .queries
            .iter()
            .filter(|q| q.kind == kind)
            .collect();
        for query in candidates
            .iter()
            .cycle()
            .take(MIN_PER_KIND.saturating_sub(have))
        {
            pipeline(
                &mut tracer,
                id,
                kind,
                &explain_bytes(query),
                &plan.deployment.registries[0],
                &mut extra,
            )?;
            id += 1;
        }
    }

    report.attempted = id;
    check_parity(&plan, seed, report)?;

    let set_p50 =
        |report: &mut Report, name: &str, unit: &'static str, values: &[f64], what: &str| {
            report.set(
                name,
                unit,
                p50(values),
                format!("{what}, p50 of n={}", values.len()),
            );
        };
    for (name, span, call) in [
        (
            "serve.http.read_us",
            "serve.http.read",
            "http::read_request",
        ),
        (
            "serve.http.write_us",
            "serve.http.write",
            "http::write_response into a buffer",
        ),
        (
            "serve.wire.decode_us",
            "serve.wire.decode",
            "Json::parse + wire::request_from_json",
        ),
        (
            "serve.wire.encode_us",
            "serve.wire.encode",
            "wire::response_to_json + HttpResponse::json",
        ),
        (
            "serve.registry.get_us",
            "serve.registry.get",
            "EngineRegistry::get + EngineEntry::engine",
        ),
    ] {
        set_p50(report, name, "us", &tracer.self_us(span), call);
    }
    let admit: Vec<f64> = tracer
        .self_us("serve.admission.admit")
        .iter()
        .zip(tracer.self_us("serve.admission.release"))
        .map(|(a, r)| a + r)
        .collect();
    set_p50(
        report,
        "serve.admission.admit_us",
        "us",
        &admit,
        "Admission::admit + permit drop",
    );
    for kind in Kind::ALL {
        let times = tracer.self_us(engine_span(kind));
        let (p50, tail) = p50_tail(&times);
        let base = format!("core.engine.{}_us", kind.name());
        report.set(
            &format!("{base}.p50"),
            "us",
            p50,
            format!("Engine::run, n={}", times.len()),
        );
        report.set(
            &format!("{base}.tail"),
            "us",
            tail,
            format!("Engine::run, n={}", times.len()),
        );
    }
    set_p50(
        report,
        "serve.wire.response_bytes",
        "bytes",
        &replayed.response_bytes,
        "answer body size",
    );
    let lookups = cache.hits + cache.misses;
    report.set(
        "core.cache.hits",
        "count",
        cache.hits as f64,
        "cache_stats delta over the replayed stream",
    );
    report.set(
        "core.cache.misses",
        "count",
        cache.misses as f64,
        "cache_stats delta over the replayed stream",
    );
    report.set(
        "core.cache.hit_ratio",
        "ratio",
        if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        },
        format!("of {lookups} lookups"),
    );
    report.set(
        "core.cache.entries",
        "count",
        engine.cache_stats().entries as f64,
        "resident passes after the replay",
    );
    report.set(
        "core.recourse.surrogate_misses",
        "count",
        cache.surrogate_misses as f64,
        "surrogate_stats misses over the replayed stream",
    );
    report.set(
        "live.compactions",
        "count",
        replayed.compactions as f64,
        "compactions armed by the replayed appends",
    );

    // the tracer's own cost: each warm request answered once with spans
    // and once without, alternating which goes first
    let mut untraced = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let explain_only: Vec<&Query> = plan
        .steps
        .iter()
        .filter_map(|s| match s {
            Step::Explain(q) => Some(q),
            Step::Append(_) => None,
        })
        .collect();
    let (mut on, mut off) = (Duration::ZERO, Duration::ZERO);
    let mut sink = CacheDelta::default();
    for (i, q) in explain_only
        .iter()
        .cycle()
        .take(explain_only.len() * 2)
        .enumerate()
    {
        let raw = explain_bytes(q);
        for traced_first in [i % 2 == 0, i % 2 == 1] {
            let (tracer, total) = if traced_first {
                (&mut traced, &mut on)
            } else {
                (&mut untraced, &mut off)
            };
            let started = Instant::now();
            pipeline(tracer, i as u64, q.kind, &raw, &registry, &mut sink)?;
            *total += started.elapsed();
        }
    }
    report.set(
        "trace.overhead_pct",
        "%",
        (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0,
        format!(
            "{} warm requests each answered with and without spans",
            explain_only.len() * 2
        ),
    );

    layer_probes(&engine, seed, report)?;
    http_probes(&plan, report)?;

    let spans = out.join(format!("spans-{}.jsonl", workload.name()));
    tracer
        .write(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    report.note(format!(
        "{} spans written to {}",
        tracer.spans.len(),
        spans.display()
    ));
    plan.deployment.stop();
    Ok(())
}

/// Re-answer a seeded sample of the replayed queries through the
/// pipeline and compare with a cold reference over the same rows.
fn check_parity(plan: &Plan, seed: u64, report: &mut Report) -> Result<(), String> {
    let registry = &plan.deployment.registries[0];
    let entry = registry.get(ENGINE).ok_or("engine vanished")?;
    workloads::wait_for_compaction(&entry)?;
    let mut appended = Vec::new();
    let mut queries = Vec::new();
    for step in &plan.steps {
        match step {
            Step::Explain(q) => queries.push(q),
            Step::Append(rows) => appended.extend(rows.iter().cloned()),
        }
    }
    let reference = parity::reference_engine(plan.source, plan.rows, TABLE_SEED, &appended)?;
    let mut rng = gen::Rng::new(seed ^ 0x7E57);
    let sample: Vec<&Query> = (0..16).map(|_| queries[rng.below(queries.len())]).collect();
    let expected: Vec<_> = sample
        .iter()
        .map(|q| parity::expected(&reference, q))
        .collect();
    let mut untraced = Tracer::new(false);
    let mut cache = CacheDelta::default();
    let checked = parity::check("traced pipeline", &expected, sample.iter().copied(), |q| {
        pipeline(
            &mut untraced,
            0,
            q.kind,
            &explain_bytes(q),
            registry,
            &mut cache,
        )
    })?;
    report.note(format!(
        "parity: {checked} pipeline answers byte-identical to the cold reference"
    ));
    Ok(())
}

/// Layers timed directly through their public functions on the
/// workload's engine and table.
fn layer_probes(engine: &Arc<Engine>, seed: u64, report: &mut Report) -> Result<(), String> {
    let est = engine.estimator();
    let table = est.shared_table();
    let pred = est.pred_attr();
    let features = engine.features().to_vec();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    {
        use rayon::prelude::*;
        let items = [1u64, 2, 3, 4, 5];
        let times = time_us(200, || {
            let out: Vec<u64> = black_box(&items).par_iter().map(|x| x + 1).collect();
            black_box(out);
        });
        let floor = times.iter().copied().fold(f64::INFINITY, f64::min);
        report.set(
            "shims.rayon.fanout_us",
            "us",
            floor,
            format!("floor of 200 five-item par_iter().map().collect() on {threads} threads"),
        );
    }

    let mut pass = Vec::new();
    let mut scan = Vec::new();
    let mut sharded = Vec::new();
    let mut indexed = Vec::new();
    let sharded_table = ShardedTable::from_shared(Arc::clone(&table), threads);
    let started = Instant::now();
    let index = TableIndex::build(&table, 1).map_err(|e| e.to_string())?;
    report.set(
        "index.build_ms",
        "ms",
        micros(started.elapsed()) / 1e3,
        "TableIndex::build, one shard",
    );
    report.set(
        "index.bytes",
        "bytes",
        index.memory_bytes() as f64,
        "TableIndex::memory_bytes",
    );
    let empty = Context::empty();
    for &a in &features {
        let order = engine
            .value_order(a)
            .ok_or("feature without a value order")?;
        let contrasts: Vec<Contrast> = lewis_core::ordering::ordered_pairs(order)
            .into_iter()
            .map(|(hi, lo)| Contrast::single(a, hi, lo))
            .collect();
        pass.extend(time_us(3, || {
            black_box(est.scores_batch(&contrasts, &empty));
        }));
        let mut attrs = vec![a];
        attrs.extend(est.adjustment_set(&[a], &empty));
        attrs.push(pred);
        scan.extend(time_us(3, || {
            black_box(Counter::build(&table, &attrs, &empty).expect("attrs in schema"));
        }));
        sharded.extend(time_us(3, || {
            black_box(
                Counter::build_sharded(&sharded_table, &attrs, &empty).expect("attrs in schema"),
            );
        }));
        indexed.extend(time_us(3, || {
            black_box(
                index
                    .counting_pass(&table, &attrs, &empty)
                    .expect("attrs in schema"),
            );
        }));
    }
    report.set(
        "core.scores.pass_us",
        "us",
        p50(&pass),
        "ScoreEstimator::scores_batch over one feature's contrasts, uncached",
    );
    report.set(
        "tabular.scan_pass_us",
        "us",
        p50(&scan),
        "Counter::build of (feature, adjustment set, prediction)",
    );
    report.set(
        "tabular.sharded_pass_us",
        "us",
        p50(&sharded),
        format!("Counter::build_sharded at {threads} shards"),
    );
    report.set(
        "index.pass_us",
        "us",
        p50(&indexed),
        "TableIndex::counting_pass, same attributes",
    );

    let mut rng = gen::Rng::new(seed ^ 0x1DE7);
    let rows: Vec<Vec<tabular::Value>> = (0..20)
        .map(|_| table.row(rng.below(table.n_rows())).expect("row in range"))
        .collect();
    let mut backoff = Vec::new();
    let mut probe = Vec::new();
    for row in &rows {
        for &a in &features {
            backoff.extend(time_us(1, || {
                black_box(est.local_context(row, a, engine.min_support()));
            }));
        }
        let ctx = Context::of([
            (features[0], row[features[0].index()]),
            (features[1], row[features[1].index()]),
        ]);
        probe.extend(time_us(1, || {
            black_box(index.count(&ctx));
        }));
    }
    report.set(
        "core.scores.backoff_us",
        "us",
        p50(&backoff),
        "ScoreEstimator::local_context",
    );
    report.set(
        "index.probe_us",
        "us",
        p50(&probe),
        "TableIndex::count of a two-attribute context",
    );
    drop(index);

    // recourse and live layers on a private live table over the same
    // engine, so the served one is untouched
    let live = LiveEngine::new(Arc::clone(engine));
    let sets = gen::actionable_sets(engine);
    let batches = gen::append_batches(engine, seed ^ 0x11FE, 20, workloads::APPEND_BATCH);
    let mut append = Vec::new();
    for batch in &batches {
        append.extend(time_us(1, || {
            live.append_rows(batch)
                .expect("rows drawn from the table are in domain");
        }));
    }
    report.set(
        "live.append_us",
        "us",
        p50(&append),
        format!(
            "LiveEngine::append_rows of {}-row batches",
            workloads::APPEND_BATCH
        ),
    );
    let appended = live.engine();
    let started = Instant::now();
    appended
        .prepare_surrogate(&sets[0])
        .map_err(|e| e.to_string())?;
    report.set(
        "core.recourse.fit_ms",
        "ms",
        micros(started.elapsed()) / 1e3,
        "Engine::prepare_surrogate on a just-appended engine",
    );
    let opts = lewis_core::RecourseOptions::default();
    let mut solve = Vec::new();
    for row in &rows {
        solve.extend(time_us(1, || {
            let _ = black_box(appended.recourse(row, &sets[0], &opts));
        }));
    }
    report.set(
        "core.recourse.solve_us",
        "us",
        p50(&solve),
        "Engine::recourse with a warm surrogate",
    );
    drop(appended);
    let started = Instant::now();
    live.compact().map_err(|e| e.to_string())?;
    report.set(
        "live.compact_ms",
        "ms",
        micros(started.elapsed()) / 1e3,
        format!(
            "LiveEngine::compact of {} delta rows",
            batches.len() * workloads::APPEND_BATCH
        ),
    );
    drop(live);

    let bytes = Pack::from_engine(engine, PackMeta::default()).to_bytes();
    let mut restore = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let pack = Pack::from_bytes(&bytes).map_err(|e| e.to_string())?;
        black_box(pack.restore_engine().map_err(|e| e.to_string())?);
        restore.push(micros(started.elapsed()) / 1e3);
    }
    report.set(
        "store.pack.restore_ms",
        "ms",
        median(&restore),
        "Pack::from_bytes + Pack::restore_engine, median of 3",
    );
    report.set(
        "store.pack.bytes",
        "bytes",
        bytes.len() as f64,
        "Pack::to_bytes of the served engine",
    );
    Ok(())
}

/// Closed loop of `requests` on one connection; latencies in µs.
fn http_replay(addr: std::net::SocketAddr, requests: &[Arc<[u8]>]) -> Result<Vec<f64>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    requests
        .iter()
        .map(|r| {
            let t = Instant::now();
            let reply = conn.send(r).map_err(|e| e.to_string())?;
            if !reply.answered() {
                return Err(format!("probe answered {}", reply.status));
            }
            Ok(micros(t.elapsed()))
        })
        .collect()
}

/// Layers seen only from outside over HTTP: the socket and worker
/// queue, the router hop, and the job lane.
fn http_probes(plan: &Plan, report: &mut Report) -> Result<(), String> {
    let deployment = &plan.deployment;
    let queries: Vec<&Query> = plan
        .steps
        .iter()
        .filter_map(|s| match s {
            Step::Explain(q) if q.kind != Kind::Recourse => Some(q),
            _ => None,
        })
        .take(HTTP_PROBE)
        .collect();
    let requests: Vec<Arc<[u8]>> = queries.iter().map(|q| explain_bytes(q)).collect();

    // the same requests through the in-process pipeline, then over one
    // connection; both warm
    let registry = &deployment.registries[0];
    let mut tracer = Tracer::new(false);
    let mut sink = CacheDelta::default();
    let mut pipeline_us = Vec::with_capacity(queries.len());
    for (q, raw) in queries.iter().zip(&requests) {
        pipeline_us.extend(time_us(1, || {
            let _ = pipeline(&mut tracer, 0, q.kind, raw, registry, &mut sink);
        }));
    }
    let direct = http_replay(deployment.servers[0].addr(), &requests)?;
    report.set(
        "serve.transport_us",
        "us",
        p50(&direct) - p50(&pipeline_us),
        format!(
            "HTTP p50 {:.1} us on one connection minus in-process pipeline p50 {:.1} us, warm",
            p50(&direct),
            p50(&pipeline_us)
        ),
    );

    // router hop: the deployment's router, or a router over two servers
    // sharing the workload's registry
    let extra_server;
    let own_router;
    let (router_addr, replicas) = match &deployment.router {
        Some(router) => {
            extra_server = None;
            own_router = None;
            (
                router.addr(),
                deployment
                    .servers
                    .iter()
                    .map(|s| s.addr())
                    .collect::<Vec<_>>(),
            )
        }
        None => {
            let server = serve(
                &ServerConfig::default(),
                Arc::clone(&deployment.registries[0]),
            )
            .map_err(|e| e.to_string())?;
            let replicas = vec![deployment.servers[0].addr(), server.addr()];
            let router = route_serve(&RouterConfig {
                replicas: replicas.clone(),
                ..RouterConfig::default()
            })
            .map_err(|e| e.to_string())?;
            extra_server = Some(server);
            let addr = router.addr();
            own_router = Some(router);
            (addr, replicas)
        }
    };
    crate::client::wait_ready(router_addr, "/healthz", Duration::from_secs(30))?;
    let before = router_counts(router_addr)?;
    let mut via_router = Vec::new();
    let mut direct = Vec::new();
    for chunk in requests.chunks(50) {
        direct.extend(http_replay(replicas[0], chunk)?);
        via_router.extend(http_replay(router_addr, chunk)?);
    }
    let after = router_counts(router_addr)?;
    report.set(
        "serve.router.hop_us",
        "us",
        p50(&via_router) - p50(&direct),
        format!(
            "router p50 {:.1} us minus direct p50 {:.1} us, same warm requests",
            p50(&via_router),
            p50(&direct)
        ),
    );
    let forwarded: Vec<f64> = after.iter().zip(&before).map(|(a, b)| a.0 - b.0).collect();
    let max = forwarded.iter().copied().fold(0.0, f64::max);
    let min = forwarded.iter().copied().fold(f64::INFINITY, f64::min);
    report.set(
        "serve.router.forward_skew",
        "ratio",
        max / min.max(1.0),
        format!("max/min forwarded per replica: {forwarded:?}"),
    );
    report.set(
        "serve.router.replica_errors",
        "count",
        after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.1 - b.1)
            .sum::<f64>(),
        "replica errors in /router/metrics during the probe",
    );
    if let Some(router) = own_router {
        router.shutdown();
    }
    if let Some(server) = extra_server {
        server.shutdown();
    }

    // job lane: the same recourse requests in-process and through
    // ?mode=async, surrogates already warm
    let engine = deployment.engine();
    let pool = gen::pool(&engine, 0x70B5, 0, 0, JOB_PROBE);
    let jobs: Vec<&Query> = pool
        .queries
        .iter()
        .filter(|q| q.kind == Kind::Recourse)
        .collect();
    let mut in_process = Vec::new();
    // first pass fits the surrogates, so both timed passes are warm
    for q in &jobs {
        let _ = engine.run(&q.request);
    }
    for q in &jobs {
        in_process.extend(time_us(1, || {
            let _ = black_box(engine.run(&q.request));
        }));
    }
    let mut link = Link::new(deployment.servers[0].addr());
    let mut submit = Vec::new();
    let mut lane = Vec::new();
    for q in &jobs {
        let t = Instant::now();
        let reply = link.send(&request_bytes(
            "POST",
            "/v1/engines/bench/explain?mode=async",
            &q.body,
        ))?;
        submit.push(micros(t.elapsed()));
        if reply.status != 202 {
            return Err(format!("job submit answered {}", reply.status));
        }
        let json = Json::parse(std::str::from_utf8(&reply.body).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let id = json
            .get("job_id")
            .and_then(Json::as_str)
            .ok_or("202 without a job id")?;
        let poll = request_bytes("GET", &format!("/v1/jobs/{id}"), "");
        let deadline = t + Duration::from_secs(60);
        loop {
            if let Some(reply) = poll_job(&mut link, &poll)? {
                if !reply.answered() {
                    return Err(format!("job answered {}", reply.status));
                }
                break;
            }
            if Instant::now() > deadline {
                return Err("job did not finish within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        lane.push(micros(t.elapsed()));
    }
    drop(link);
    report.set(
        "jobs.submit_us",
        "us",
        p50(&submit),
        format!("?mode=async 202 round trip, n={}", submit.len()),
    );
    report.set(
        "jobs.overhead_us",
        "us",
        p50(&lane) - p50(&in_process),
        format!(
            "job lane p50 {:.1} us (submit to terminal poll) minus Engine::run p50 {:.1} us",
            p50(&lane),
            p50(&in_process)
        ),
    );
    Ok(())
}

/// `(forwarded, errors)` per replica from `/router/metrics`.
fn router_counts(addr: std::net::SocketAddr) -> Result<Vec<(f64, f64)>, String> {
    let reply =
        crate::client::once(addr, "GET", "/router/metrics", "").map_err(|e| e.to_string())?;
    let json = Json::parse(std::str::from_utf8(&reply.body).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let replicas = json
        .get("replicas")
        .and_then(Json::as_arr)
        .ok_or("router metrics without replicas")?;
    Ok(replicas
        .iter()
        .map(|r| {
            (
                r.get("forwarded").and_then(Json::as_f64).unwrap_or(0.0),
                r.get("errors").and_then(Json::as_f64).unwrap_or(0.0),
            )
        })
        .collect())
}
