//! Serving observability: request/error counters and latency
//! histograms, exported as JSON on `GET /metrics`.
//!
//! Everything is lock-free (`AtomicU64` relaxed counters): metrics are
//! recorded on the request path of every worker thread, so they must
//! never serialize the workers. Latency is kept as a log-linear
//! histogram over microseconds — every power of two is split into 8
//! equal sub-buckets — and quantiles are read off the bucket upper
//! bounds: never an underestimate, and at most 12.5% above the true
//! value. The cache effectiveness numbers come straight from each
//! engine's [`CacheStats`](lewis_core::CacheStats).

use crate::registry::EngineRegistry;
use crate::wire::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Bits a sample keeps below its leading one: each power of two splits
/// into `SUB` equal buckets.
const SUB_BITS: usize = 3;
const SUB: usize = 1 << SUB_BITS;
/// Histogram bucket count: samples below `2 * SUB` get a bucket each,
/// and every power of two above splits into `SUB` buckets, up to
/// `u64::MAX`.
const N_BUCKETS: usize = (65 - SUB_BITS) * SUB;

/// The routes the server distinguishes in its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/engines/{name}/explain`
    Explain,
    /// `POST /v1/engines/{name}/rows` and `POST …/compact` — the live
    /// table's write lane.
    Append,
    /// `GET /v1/jobs/{id}` and `POST …/explain?mode=async` submissions.
    Jobs,
    /// `GET /v1/engines`
    Engines,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `POST /admin/shutdown`
    Admin,
    /// Anything else (404s, bad verbs).
    Other,
}

impl Route {
    /// Every route, in display order.
    pub const ALL: [Route; 8] = [
        Route::Explain,
        Route::Append,
        Route::Jobs,
        Route::Engines,
        Route::Healthz,
        Route::Metrics,
        Route::Admin,
        Route::Other,
    ];

    fn index(self) -> usize {
        match self {
            Route::Explain => 0,
            Route::Append => 1,
            Route::Jobs => 2,
            Route::Engines => 3,
            Route::Healthz => 4,
            Route::Metrics => 5,
            Route::Admin => 6,
            Route::Other => 7,
        }
    }

    /// Stable metric key.
    pub fn name(self) -> &'static str {
        match self {
            Route::Explain => "explain",
            Route::Append => "append",
            Route::Jobs => "jobs",
            Route::Engines => "engines",
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::Admin => "admin",
            Route::Other => "other",
        }
    }
}

/// A log-linear latency histogram over microseconds.
struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    max_us: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max_us: AtomicU64::new(0),
        }
    }

    fn bucket_of(us: u64) -> usize {
        // keep the leading one and the SUB_BITS bits below it; every
        // power of two past 2 * SUB shifts one more bit away
        let bits = 64 - us.leading_zeros() as usize;
        let shift = bits.saturating_sub(SUB_BITS + 1);
        shift * SUB + (us >> shift) as usize
    }

    /// The largest sample that lands in bucket `i`.
    fn upper_bound(i: usize) -> u64 {
        let shift = (i / SUB).saturating_sub(1);
        let mantissa = (i - shift * SUB) as u128;
        (((mantissa + 1) << shift) - 1).min(u128::from(u64::MAX)) as u64
    }

    fn record(&self, us: u64) {
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Upper-bound estimate of quantile `q` in microseconds (0 when
    /// empty). Reads are racy against concurrent writes, which is fine
    /// for monitoring.
    fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // never report beyond the true max
                return Self::upper_bound(i).min(self.max_us.load(Ordering::Relaxed));
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// Counters plus a latency histogram for one route.
struct EndpointMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

impl EndpointMetrics {
    fn new() -> Self {
        EndpointMetrics {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: Histogram::new(),
        }
    }
}

/// All serving metrics; shared across worker threads behind an `Arc`.
pub struct Metrics {
    endpoints: [EndpointMetrics; 8],
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh metrics; the uptime clock starts now.
    pub fn new() -> Self {
        Metrics {
            endpoints: std::array::from_fn(|_| EndpointMetrics::new()),
            started: Instant::now(),
        }
    }

    /// Record one served request.
    pub fn record(&self, route: Route, latency: Duration, is_error: bool) {
        let e = &self.endpoints[route.index()];
        e.requests.fetch_add(1, Ordering::Relaxed);
        if is_error {
            e.errors.fetch_add(1, Ordering::Relaxed);
        }
        e.latency
            .record(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Total requests across routes.
    pub fn total_requests(&self) -> u64 {
        self.endpoints
            .iter()
            .map(|e| e.requests.load(Ordering::Relaxed))
            .sum()
    }

    /// Total error responses across routes.
    pub fn total_errors(&self) -> u64 {
        self.endpoints
            .iter()
            .map(|e| e.errors.load(Ordering::Relaxed))
            .sum()
    }

    /// The `GET /metrics` body: per-route counters and latency
    /// quantiles, plus each engine's counting-pass cache counters.
    pub fn to_json(&self, registry: &EngineRegistry) -> Json {
        let mut routes = Vec::new();
        for route in Route::ALL {
            let e = &self.endpoints[route.index()];
            let requests = e.requests.load(Ordering::Relaxed);
            if requests == 0 && route != Route::Explain {
                continue; // keep the body small; explain is always shown
            }
            routes.push((
                route.name().to_string(),
                Json::obj([
                    ("requests", Json::num(requests as f64)),
                    ("errors", Json::num(e.errors.load(Ordering::Relaxed) as f64)),
                    (
                        "latency_us",
                        Json::obj([
                            ("count", Json::num(e.latency.count() as f64)),
                            ("p50", Json::num(e.latency.quantile_us(0.50) as f64)),
                            ("p95", Json::num(e.latency.quantile_us(0.95) as f64)),
                            ("p99", Json::num(e.latency.quantile_us(0.99) as f64)),
                            (
                                "max",
                                Json::num(e.latency.max_us.load(Ordering::Relaxed) as f64),
                            ),
                        ]),
                    ),
                ]),
            ));
        }
        let engines: Vec<(String, Json)> = registry
            .snapshot()
            .iter()
            .map(|(name, entry)| {
                let engine = entry.engine();
                let live = entry.live.status();
                let stats = engine.cache_stats();
                let surrogates = engine.surrogate_stats();
                let admission = entry.admission.stats();
                (
                    name.to_string(),
                    Json::obj([
                        ("generation", Json::num(entry.generation as f64)),
                        (
                            "admission",
                            Json::obj([
                                ("admitted", Json::num(admission.admitted as f64)),
                                ("shed_total", Json::num(admission.shed_total() as f64)),
                                ("shed_rate", Json::num(admission.shed_rate as f64)),
                                (
                                    "shed_queue_full",
                                    Json::num(admission.shed_queue_full as f64),
                                ),
                                ("shed_deadline", Json::num(admission.shed_deadline as f64)),
                            ]),
                        ),
                        (
                            "counting_cache",
                            Json::obj([
                                ("hits", Json::num(stats.hits as f64)),
                                ("misses", Json::num(stats.misses as f64)),
                                ("topped_up", Json::num(stats.topped_up as f64)),
                                (
                                    "topup_rows_scanned",
                                    Json::num(stats.topup_rows_scanned as f64),
                                ),
                                ("hit_rate", Json::Num(stats.hit_rate())),
                                ("entries", Json::num(stats.entries as f64)),
                                ("capacity", Json::num(stats.capacity as f64)),
                            ]),
                        ),
                        (
                            "surrogate_cache",
                            Json::obj([
                                ("hits", Json::num(surrogates.hits as f64)),
                                ("misses", Json::num(surrogates.misses as f64)),
                                ("topped_up", Json::num(surrogates.topped_up as f64)),
                                ("hit_rate", Json::Num(surrogates.hit_rate())),
                                ("entries", Json::num(surrogates.entries as f64)),
                                ("capacity", Json::num(surrogates.capacity as f64)),
                            ]),
                        ),
                        (
                            "index",
                            Json::obj([
                                ("enabled", Json::Bool(engine.index_enabled())),
                                (
                                    "memory_bytes",
                                    Json::num(engine.index_memory_bytes() as f64),
                                ),
                                ("cube_cells", Json::num(engine.index_cube_cells() as f64)),
                                ("kernels", Json::str(tabular::bitmap::kernel_tier())),
                            ]),
                        ),
                        (
                            "live",
                            Json::obj([
                                ("n_rows", Json::num(live.total_rows as f64)),
                                ("table_version", Json::num(live.version as f64)),
                                ("base_rows", Json::num(live.base_rows as f64)),
                                (
                                    "pending_delta_rows",
                                    Json::num(live.pending_delta_rows as f64),
                                ),
                                ("compacting", Json::Bool(live.compacting)),
                            ]),
                        ),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("uptime_s", Json::Num(self.started.elapsed().as_secs_f64())),
            (
                "generation",
                Json::num(registry.current_generation() as f64),
            ),
            ("routes", Json::Obj(routes)),
            ("engines", Json::Obj(engines)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_microsecond_axis() {
        // small samples are exact; past 2 * SUB, each power of two
        // splits into SUB equal buckets
        for us in 0..16 {
            assert_eq!(Histogram::bucket_of(us), us as usize);
        }
        assert_eq!(Histogram::bucket_of(16), 16);
        assert_eq!(Histogram::bucket_of(17), 16);
        assert_eq!(Histogram::bucket_of(18), 17);
        assert_eq!(Histogram::bucket_of(1024), 64);
        assert_eq!(Histogram::bucket_of(1024 + 127), 64);
        assert_eq!(Histogram::bucket_of(1024 + 128), 65);
        assert_eq!(Histogram::bucket_of(u64::MAX), N_BUCKETS - 1);
        assert_eq!(Histogram::upper_bound(N_BUCKETS - 1), u64::MAX);
        // contiguous, and each bucket's upper bound is within 12.5% of
        // every sample it holds
        let mut prev = 0;
        for us in 0..200_000u64 {
            let i = Histogram::bucket_of(us);
            assert!(i == prev || i == prev + 1, "{us}µs skips a bucket");
            prev = i;
            let bound = Histogram::upper_bound(i);
            assert!(
                bound >= us && bound as f64 <= us as f64 * 1.125,
                "{us}µs → {bound}"
            );
            assert_eq!(Histogram::bucket_of(bound), i, "{us}µs");
        }
    }

    #[test]
    fn a_p95_and_p99_within_one_power_of_two_stay_distinct() {
        let h = Histogram::new();
        for _ in 0..95 {
            h.record(300);
        }
        for _ in 0..4 {
            h.record(400);
        }
        h.record(1000);
        let (p95, p99) = (h.quantile_us(0.95), h.quantile_us(0.99));
        assert_ne!(p95, p99, "256..512µs is one power of two");
        assert!(
            (300..=337).contains(&p95),
            "p95 within 12.5% of 300µs: {p95}"
        );
        assert!(
            (400..=450).contains(&p99),
            "p99 within 12.5% of 400µs: {p99}"
        );
    }

    #[test]
    fn quantiles_bound_the_data() {
        let h = Histogram::new();
        assert_eq!(h.quantile_us(0.5), 0, "empty histogram");
        // 90 fast requests (~100µs), 10 slow (~50ms)
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(50_000);
        }
        let p50 = h.quantile_us(0.50);
        let p95 = h.quantile_us(0.95);
        let p99 = h.quantile_us(0.99);
        assert!((100..1024).contains(&p50), "p50 ~100µs, got {p50}");
        assert!(p95 >= 32_768, "p95 in the slow mode, got {p95}");
        assert!(p99 >= p95 && p95 >= p50, "quantiles are monotone");
        assert_eq!(p99, 50_000, "upper bound is clamped to the true max");
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn record_feeds_counters_and_json() {
        let m = Metrics::new();
        m.record(Route::Explain, Duration::from_micros(250), false);
        m.record(Route::Explain, Duration::from_micros(800), true);
        m.record(Route::Healthz, Duration::from_micros(10), false);
        assert_eq!(m.total_requests(), 3);
        assert_eq!(m.total_errors(), 1);
        let j = m.to_json(&EngineRegistry::new());
        let routes = j.get("routes").unwrap();
        let explain = routes.get("explain").unwrap();
        assert_eq!(explain.get("requests").unwrap().as_f64(), Some(2.0));
        assert_eq!(explain.get("errors").unwrap().as_f64(), Some(1.0));
        let lat = explain.get("latency_us").unwrap();
        assert_eq!(lat.get("count").unwrap().as_f64(), Some(2.0));
        assert!(lat.get("p99").unwrap().as_f64().unwrap() >= 250.0);
        // untouched routes are elided
        assert!(routes.get("admin").is_none());
    }
}
