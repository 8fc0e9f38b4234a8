//! Admission control over real sockets: typed sheds, metrics counters,
//! and per-engine isolation (one overloaded engine must not starve its
//! neighbours).

use lewis_serve::wire::Json;
use lewis_serve::{serve, AdmissionConfig, Client, EngineRegistry, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 300;

/// One server, two engines: `capped` under the given admission config,
/// `free` unlimited.
fn start(capped: AdmissionConfig) -> lewis_serve::Server {
    let mut registry = EngineRegistry::new();
    registry
        .load_builtin_as("capped", "german_syn", ROWS, 3)
        .unwrap();
    registry
        .load_builtin_as("free", "german_syn", ROWS, 4)
        .unwrap();
    registry.set_admission("capped", capped).unwrap();
    serve(
        &ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
        Arc::new(registry),
    )
    .unwrap()
}

fn shed_code(body: &Json) -> Option<&str> {
    body.get("error")?.get("code")?.as_str()
}

#[test]
fn rate_cap_sheds_typed_429s_with_retry_hints() {
    let server = start(AdmissionConfig {
        rate: Some(50),
        ..AdmissionConfig::unlimited()
    });
    let mut client = Client::connect(server.addr()).unwrap();

    // hammer far past 50 q/s on one connection: the burst drains, then
    // the bucket sheds
    let (mut ok, mut shed) = (0u32, 0u32);
    for _ in 0..200 {
        let (status, body) = client
            .post("/v1/engines/capped/explain", r#"{"kind":"global"}"#)
            .unwrap();
        match status {
            200 => ok += 1,
            429 => {
                assert_eq!(shed_code(&body), Some("overloaded"), "{body:?}");
                let retry = body
                    .get("retry_after_ms")
                    .and_then(Json::as_f64)
                    .expect("shed bodies carry retry_after_ms");
                assert!(retry >= 1.0, "retry hint is at least 1ms: {retry}");
                assert!(
                    client.response_header("retry-after").is_some(),
                    "the standard header rides along"
                );
                shed += 1;
            }
            other => panic!("unexpected status {other}: {body:?}"),
        }
    }
    assert!(ok > 0, "the burst admits something");
    assert!(shed > 100, "an over-rate hammer mostly sheds: {shed}");

    // the counters surface per engine in /metrics
    let (_, metrics) = client.get("/metrics").unwrap();
    let capped = metrics.get("engines").unwrap().get("capped").unwrap();
    let admission = capped.get("admission").unwrap();
    assert_eq!(
        admission.get("admitted").and_then(Json::as_f64),
        Some(f64::from(ok)),
        "{admission:?}"
    );
    assert_eq!(
        admission.get("shed_rate").and_then(Json::as_f64),
        Some(f64::from(shed)),
        "{admission:?}"
    );
    let free = metrics.get("engines").unwrap().get("free").unwrap();
    assert_eq!(
        free.get("admission")
            .unwrap()
            .get("shed_total")
            .and_then(Json::as_f64),
        Some(0.0),
        "the unlimited engine shed nothing"
    );
    server.shutdown();
}

#[test]
fn async_submissions_pass_the_gate_and_a_shed_issues_no_ticket() {
    let server = start(AdmissionConfig {
        rate: Some(1),
        ..AdmissionConfig::unlimited()
    });
    let mut client = Client::connect(server.addr()).unwrap();

    // a burst of async submissions far past 1 q/s: the first token
    // admits, the rest shed exactly as the synchronous route does
    let (mut tickets, mut shed) = (Vec::new(), 0u32);
    for _ in 0..20 {
        let (status, body) = client
            .post(
                "/v1/engines/capped/explain?mode=async",
                r#"{"kind":"global"}"#,
            )
            .unwrap();
        match status {
            202 => tickets.push(body.get("job_id").unwrap().as_str().unwrap().to_string()),
            429 => {
                assert_eq!(shed_code(&body), Some("overloaded"), "{body:?}");
                assert!(body.get("job_id").is_none(), "a shed issues no ticket");
                assert!(
                    body.get("retry_after_ms").and_then(Json::as_f64).is_some(),
                    "{body:?}"
                );
                assert!(client.response_header("retry-after").is_some());
                shed += 1;
            }
            other => panic!("unexpected status {other}: {body:?}"),
        }
    }
    assert!(!tickets.is_empty(), "the bucket's first token admits");
    assert!(shed > 0, "async submissions past the rate cap shed");

    // every admitted ticket holds the answer
    for id in &tickets {
        let (status, view) = client.get(&format!("/v1/jobs/{id}")).unwrap();
        assert_eq!(status, 200, "{view:?}");
        assert_eq!(view.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(view.get("status").and_then(Json::as_f64), Some(200.0));
    }

    // the gate and the ticket counters agree
    let (_, metrics) = client.get("/metrics").unwrap();
    let admission = metrics
        .get("engines")
        .unwrap()
        .get("capped")
        .unwrap()
        .get("admission")
        .unwrap();
    assert_eq!(
        admission.get("admitted").and_then(Json::as_f64),
        Some(tickets.len() as f64),
        "{admission:?}"
    );
    assert_eq!(
        admission.get("shed_rate").and_then(Json::as_f64),
        Some(f64::from(shed)),
        "{admission:?}"
    );
    let lane = metrics.get("job_lane").unwrap();
    assert_eq!(
        lane.get("submitted").and_then(Json::as_f64),
        Some(tickets.len() as f64),
        "{lane:?}"
    );
    server.shutdown();
}

#[test]
fn queue_bound_sheds_queue_full_and_the_neighbour_engine_stays_fast() {
    // one slot, no queue: any concurrent second request sheds at once
    let server = start(AdmissionConfig {
        max_in_flight: 1,
        queue_depth: 0,
        ..AdmissionConfig::unlimited()
    });
    let addr = server.addr();

    // four hammer threads on the capped engine: with one slot and no
    // queue, overlapping requests shed `queue_full`
    let stop_at = Instant::now() + Duration::from_millis(800);
    let mut hammers = Vec::new();
    for _ in 0..4 {
        hammers.push(std::thread::spawn(move || -> (u64, u64, u64) {
            let mut client = Client::connect(addr).unwrap();
            let (mut ok, mut shed, mut bad) = (0u64, 0u64, 0u64);
            while Instant::now() < stop_at {
                let (status, body) = client
                    .post("/v1/engines/capped/explain", r#"{"kind":"global"}"#)
                    .unwrap();
                match status {
                    200 => ok += 1,
                    429 if shed_code(&body) == Some("queue_full") => shed += 1,
                    _ => bad += 1,
                }
            }
            (ok, shed, bad)
        }));
    }

    // meanwhile the unlimited neighbour must keep answering quickly:
    // sheds on `capped` are rejected at the gate, so `free` sees no
    // cross-engine starvation
    let mut free_latencies = Vec::new();
    let mut client = Client::connect(addr).unwrap();
    while Instant::now() < stop_at {
        let sent = Instant::now();
        let (status, body) = client
            .post("/v1/engines/free/explain", r#"{"kind":"global"}"#)
            .unwrap();
        assert_eq!(status, 200, "the free engine never degrades: {body:?}");
        free_latencies.push(sent.elapsed());
    }

    let (mut total_ok, mut total_shed) = (0u64, 0u64);
    for h in hammers {
        let (ok, shed, bad) = h.join().unwrap();
        assert_eq!(bad, 0, "only 200s and typed sheds leave the gate");
        total_ok += ok;
        total_shed += shed;
    }
    assert!(total_ok > 0, "the slot admits a stream");
    assert!(
        total_shed > 0,
        "4 hammers over 1 slot with no queue must shed"
    );

    free_latencies.sort();
    let p99 = free_latencies[(free_latencies.len() * 99 / 100).min(free_latencies.len() - 1)];
    assert!(
        p99 < Duration::from_millis(100),
        "free-engine p99 {p99:?} ballooned while the neighbour was overloaded"
    );

    let (_, metrics) = client.get("/metrics").unwrap();
    let admission = metrics
        .get("engines")
        .unwrap()
        .get("capped")
        .unwrap()
        .get("admission")
        .unwrap();
    assert_eq!(
        admission.get("shed_queue_full").and_then(Json::as_f64),
        Some(total_shed as f64),
        "{admission:?}"
    );
    server.shutdown();
}

#[test]
fn admission_configs_reject_nonsense_and_queue_admits_when_slots_free() {
    // parse errors are typed, not panics
    assert!(AdmissionConfig::parse("rate:abc").is_err());
    assert!(AdmissionConfig::parse("inflight:0").is_err());
    assert!(AdmissionConfig::parse("warp:9").is_err());
    let cfg = AdmissionConfig::parse("rate:1200,inflight:64,queue:16,deadline_ms:50").unwrap();
    assert_eq!(cfg.rate, Some(1200));
    assert_eq!(cfg.max_in_flight, 64);
    assert_eq!(cfg.queue_depth, 16);
    assert_eq!(cfg.deadline, Duration::from_millis(50));

    // a generous deadline with a queue: requests wait for the slot
    // instead of shedding, so a serial client is never refused
    let server = start(AdmissionConfig {
        max_in_flight: 1,
        queue_depth: 4,
        deadline: Duration::from_secs(5),
        ..AdmissionConfig::unlimited()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    for _ in 0..20 {
        let (status, body) = client
            .post("/v1/engines/capped/explain", r#"{"kind":"global"}"#)
            .unwrap();
        assert_eq!(status, 200, "{body:?}");
    }
    server.shutdown();
}
