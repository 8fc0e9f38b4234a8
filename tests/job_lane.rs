//! `?mode=async` over a real socket: it answers `202` with a ticket,
//! polling replays the exact synchronous answer, and unknown tickets,
//! engines and modes fail typed. Ticket expiry and panicking payloads
//! are unit-tested on the ticket store in `crates/serve/src/server.rs`;
//! async sheds are covered in `tests/admission.rs`.

use lewis_serve::wire::Json;
use lewis_serve::{serve, Client, EngineRegistry, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ENGINE: &str = "german_syn";

fn start(config: ServerConfig) -> Server {
    let mut registry = EngineRegistry::new();
    registry.load_builtin(ENGINE, 1200, 17).unwrap();
    serve(&config, Arc::new(registry)).unwrap()
}

/// Recourse bodies over the schema the server publishes: the all-zeros
/// row (code 0 is valid in every domain) with each adjacent pair of
/// features actionable, the first two first. Whatever the engine
/// answers — actions, "no recourse", "already favourable" — the async
/// lane must replay it exactly.
fn recourse_bodies(client: &mut Client) -> Vec<String> {
    let (_, list) = client.get("/v1/engines").unwrap();
    let engine = &list.get("engines").unwrap().as_arr().unwrap()[0];
    let features = engine.get("features").unwrap().as_arr().unwrap();
    let n_attrs = engine.get("attributes").unwrap().as_arr().unwrap().len();
    let row: Vec<Json> = (0..n_attrs).map(|_| Json::num(0u32)).collect();
    features
        .windows(2)
        .map(|actionable| {
            Json::obj([
                ("kind", Json::str("recourse")),
                ("row", Json::Arr(row.clone())),
                ("actionable", Json::Arr(actionable.to_vec())),
            ])
            .to_json()
        })
        .collect()
}

/// Poll `/v1/jobs/{id}` until the job is terminal (bounded, so a
/// regression hangs the assertion, not the suite).
fn poll_until_terminal(client: &mut Client, id: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = client.get(&format!("/v1/jobs/{id}")).unwrap();
        assert_eq!(status, 200, "poll failed: {body:?}");
        let state = body.get("state").unwrap().as_str().unwrap().to_string();
        match state.as_str() {
            "done" | "failed" => return body,
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(2));
            }
            other => panic!("unknown job state {other:?}"),
        }
    }
}

/// Submit `body` async; return (ticket, poll path).
fn submit(client: &mut Client, body: &str) -> String {
    let (status, answer) = client
        .post(&format!("/v1/engines/{ENGINE}/explain?mode=async"), body)
        .unwrap();
    assert_eq!(status, 202, "submission failed: {answer:?}");
    let id = answer.get("job_id").unwrap().as_str().unwrap().to_string();
    assert_eq!(
        answer.get("poll").unwrap().as_str().unwrap(),
        format!("/v1/jobs/{id}"),
        "the 202 carries the poll path"
    );
    id
}

#[test]
fn async_jobs_replay_the_sync_answer_exactly() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let path = format!("/v1/engines/{ENGINE}/explain");

    // one cheap query and one recourse query, sync first
    for body in [
        r#"{"kind":"global"}"#.to_string(),
        recourse_bodies(&mut client).swap_remove(0),
    ] {
        let (sync_status, sync_answer) = client.post(&path, &body).unwrap();
        let id = submit(&mut client, &body);
        let view = poll_until_terminal(&mut client, &id);
        assert_eq!(view.get("state").unwrap().as_str(), Some("done"));
        assert_eq!(
            view.get("status").unwrap().as_f64(),
            Some(f64::from(sync_status)),
            "the stored status replays the sync one"
        );
        assert_eq!(
            view.get("result").unwrap().to_json(),
            sync_answer.to_json(),
            "the stored body replays the sync one byte for byte"
        );
        assert!(view.get("waited_us").unwrap().as_f64().is_some());
        assert!(view.get("ran_us").unwrap().as_f64().is_some());
    }

    // error parity too: a malformed body answers 400 on both lanes
    let bad = r#"{"kind":"nonsense"}"#;
    let (sync_status, sync_answer) = client.post(&path, bad).unwrap();
    assert_eq!(sync_status, 400);
    let id = submit(&mut client, bad);
    let view = poll_until_terminal(&mut client, &id);
    assert_eq!(view.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(view.get("status").unwrap().as_f64(), Some(400.0));
    assert_eq!(view.get("result").unwrap().to_json(), sync_answer.to_json());

    // the lane shows up in /metrics
    let (_, metrics) = client.get("/metrics").unwrap();
    let lane = metrics.get("job_lane").unwrap();
    assert!(lane.get("submitted").unwrap().as_f64().unwrap() >= 3.0);
    assert!(lane.get("completed").unwrap().as_f64().unwrap() >= 3.0);
    assert_eq!(lane.get("failed").unwrap().as_f64(), Some(0.0));
    let jobs_route = metrics.get("routes").unwrap().get("jobs").unwrap();
    assert!(jobs_route.get("requests").unwrap().as_f64().unwrap() >= 3.0);
    let surrogate = metrics
        .get("engines")
        .unwrap()
        .get(ENGINE)
        .unwrap()
        .get("surrogate_cache")
        .unwrap();
    assert!(
        surrogate.get("misses").unwrap().as_f64().unwrap() >= 1.0,
        "the recourse queries fitted (and cached) a surrogate"
    );
    assert!(
        surrogate.get("hits").unwrap().as_f64().unwrap() >= 1.0,
        "the repeated actionable set hit the surrogate cache"
    );
    server.shutdown();
}

#[test]
fn concurrent_recourse_submissions_finish_cleanly() {
    let server = start(ServerConfig::default());
    let addr = server.addr();
    let bodies = recourse_bodies(&mut Client::connect(addr).unwrap());
    assert!(bodies.len() >= 3, "several actionable sets: {bodies:?}");
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let bodies = bodies.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // submit every body before polling any, so both
                // threads' tickets can sit in the lane together
                let ids: Vec<String> = bodies.iter().map(|b| submit(&mut client, b)).collect();
                for id in ids {
                    let view = poll_until_terminal(&mut client, &id);
                    assert_eq!(view.get("state").unwrap().as_str(), Some("done"));
                    let result = view.get("result").unwrap();
                    match view.get("status").unwrap().as_f64() {
                        Some(200.0) => assert!(result.get("error").is_none(), "{view:?}"),
                        Some(422.0) => {
                            let code = result.get("error").unwrap().get("code").unwrap();
                            assert!(
                                matches!(code.as_str(), Some("no_recourse" | "unsupported")),
                                "a 422 is a typed data outcome: {view:?}"
                            );
                        }
                        other => panic!("job {id} replayed status {other:?}: {view:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let (_, metrics) = Client::connect(addr).unwrap().get("/metrics").unwrap();
    let lane = metrics.get("job_lane").unwrap();
    assert_eq!(
        lane.get("submitted").unwrap().as_f64(),
        Some(2.0 * bodies.len() as f64),
        "every recourse query went through the lane: {lane:?}"
    );
    assert_eq!(lane.get("failed").unwrap().as_f64(), Some(0.0));
    server.shutdown();
}

#[test]
fn unknown_jobs_engines_and_modes_fail_typed() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    for bogus in ["999999", "banana", "-1"] {
        let (status, answer) = client.get(&format!("/v1/jobs/{bogus}")).unwrap();
        assert_eq!(status, 404, "{bogus}: {answer:?}");
        assert_eq!(
            answer.get("error").unwrap().get("code").unwrap().as_str(),
            Some("unknown_job")
        );
    }

    // submissions against unknown engines fail at submit time
    let (status, answer) = client
        .post(
            "/v1/engines/missing/explain?mode=async",
            r#"{"kind":"global"}"#,
        )
        .unwrap();
    assert_eq!(status, 404);
    assert_eq!(
        answer.get("error").unwrap().get("code").unwrap().as_str(),
        Some("unknown_engine")
    );

    // a typo'd mode is a 400, not silently-sync
    let (status, answer) = client
        .post(
            &format!("/v1/engines/{ENGINE}/explain?mode=later"),
            r#"{"kind":"global"}"#,
        )
        .unwrap();
    assert_eq!(status, 400, "{answer:?}");
    // and POSTing the poll route is a 405
    let (status, _) = client.post("/v1/jobs/0", "").unwrap();
    assert_eq!(status, 405);
    server.shutdown();
}
