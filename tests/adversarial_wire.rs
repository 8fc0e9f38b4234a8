//! Adversarial wire & HTTP tests: the hand-rolled JSON parser and the
//! server's request path against hostile inputs — deeply nested arrays
//! at and past the depth limit, non-finite and 400-digit numbers,
//! bodies truncated mid-escape, duplicate keys, raw control characters.
//! Every case must come back as a **typed 400** (or a clean connection
//! error for transport-level truncation); the parser must never panic,
//! and the worker pool must never hang — after every attack the same
//! server answers a well-formed request promptly.

use lewis_serve::wire::Json;
use lewis_serve::{serve, Client, EngineRegistry, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ENGINE: &str = "german_syn";

fn start() -> Server {
    let mut registry = EngineRegistry::new();
    registry.load_builtin(ENGINE, 400, 17).unwrap();
    let config = ServerConfig {
        workers: 2,
        max_body: 64 * 1024,
        ..ServerConfig::default()
    };
    serve(&config, Arc::new(registry)).unwrap()
}

// ---------------------------------------------------------------------
// Parser level: hostile documents must return Err, never panic or hang.
// ---------------------------------------------------------------------

#[test]
fn deep_nesting_is_cut_off_at_the_limit_not_the_stack() {
    // within the limit: parses fine
    let deep_ok = format!("{}1{}", "[".repeat(90), "]".repeat(90));
    assert!(Json::parse(&deep_ok).is_ok());
    // just past the limit: typed error naming the problem
    for depth in [97usize, 98, 200, 20_000] {
        let bomb = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let err = Json::parse(&bomb).expect_err("depth bomb must be rejected");
        assert!(err.message.contains("nesting"), "{err}");
    }
    // the same bomb as objects
    let obj_bomb = format!(r#"{}"k":1{}"#, r#"{"k":"#.repeat(200), "}".repeat(200));
    assert!(Json::parse(&obj_bomb).is_err());
    // unclosed nesting (truncated bomb) is an error, not a hang
    assert!(Json::parse(&"[".repeat(50_000)).is_err());
}

#[test]
fn huge_and_non_finite_numbers_are_rejected_typed() {
    // 400 digits overflow f64 → typed error, not Infinity smuggled in
    let digits = "9".repeat(400);
    let err = Json::parse(&digits).expect_err("overflowing literal");
    assert!(err.message.contains("overflow"), "{err}");
    assert!(Json::parse(&format!("-{digits}")).is_err());
    assert!(Json::parse("1e999").is_err());
    assert!(Json::parse("-1e999").is_err());
    // JSON has no spelling for these; they must not parse as numbers
    for text in ["NaN", "Infinity", "-Infinity", "+1", "0x10", "1.", ".5"] {
        assert!(Json::parse(text).is_err(), "{text:?} must not parse");
    }
    // a 400-digit *fraction* underflows to a finite value: legal
    let tiny = format!("0.{}1", "0".repeat(400));
    assert_eq!(Json::parse(&tiny).unwrap(), Json::Num(0.0));
    // and an exact parse survives round-tripping
    assert_eq!(
        Json::parse("1e308").unwrap(),
        Json::Num(1e308),
        "large-but-finite stays exact"
    );
}

#[test]
fn truncated_documents_mid_token_are_errors() {
    let cases = [
        r#"{"kind": "glo"#,          // mid-string
        r#"{"kind": "global\"#,      // mid-escape
        r#"{"kind": "global\u00"#,   // mid \u escape
        r#"{"kind": "global\ud83d"#, // high surrogate, no low half
        r#"{"kind":"#,               // mid-object
        r#"[1, 2,"#,                 // mid-array
        r#"{"kind": tru"#,           // mid-literal
        r#"12e"#,                    // mid-exponent
        r#"-"#,                      // sign only
    ];
    for case in cases {
        assert!(Json::parse(case).is_err(), "{case:?} must be an error");
    }
}

#[test]
fn duplicate_keys_parse_but_resolve_to_the_first() {
    // RFC 8259 leaves duplicates implementation-defined; ours keeps
    // insertion order and `get` resolves to the first — pinned here so
    // request decoding can never be smuggled a second "kind"
    let j = Json::parse(r#"{"kind":"global","kind":"local"}"#).unwrap();
    assert_eq!(j.get("kind").unwrap().as_str(), Some("global"));
    let Json::Obj(pairs) = &j else {
        panic!("object")
    };
    assert_eq!(pairs.len(), 2, "both members survive parsing");
}

#[test]
fn control_characters_and_bad_escapes_are_errors() {
    assert!(Json::parse("\"a\u{07}b\"").is_err(), "raw control char");
    assert!(Json::parse(r#""\q""#).is_err(), "unknown escape");
    assert!(
        Json::parse(r#""\udc00x""#).is_err(),
        "unpaired low surrogate"
    );
    assert!(
        Json::parse(r#""\ud800\ud800""#).is_err(),
        "two high surrogates"
    );
    assert!(Json::parse("[1] []").is_err(), "trailing value");
    assert!(Json::parse("").is_err(), "empty document");
}

// ---------------------------------------------------------------------
// HTTP level: the same attacks over a real socket. Every response is a
// typed 400 (JSON body with error.code) and the worker pool stays
// responsive afterwards.
// ---------------------------------------------------------------------

/// Assert the server still answers a well-formed request promptly — the
/// "never hang the worker pool" half of every case below.
fn assert_alive(server: &Server) {
    let mut client = Client::connect(server.addr()).unwrap();
    let (status, body) = client
        .post(
            &format!("/v1/engines/{ENGINE}/explain"),
            r#"{"kind":"global"}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "server must stay usable: {body:?}");
}

#[test]
fn hostile_bodies_return_typed_400s_and_never_wedge_the_pool() {
    let server = start();
    let path = format!("/v1/engines/{ENGINE}/explain");
    let depth_bomb = format!("{}1{}", "[".repeat(5000), "]".repeat(5000));
    let big_number = format!(
        r#"{{"kind":"contextual","attr":{},"context":[]}}"#,
        "9".repeat(400)
    );
    let hostile = [
        depth_bomb.as_str(),
        big_number.as_str(),
        r#"{"kind":"contextual","attr":1e999,"context":[]}"#,
        r#"{"kind": "global\"#,
        r#"{"kind": "glo"#,
        "\"a\u{07}b\"",
        "9e99999999",
        "[[[[",
    ];
    for body in hostile {
        let mut client = Client::connect(server.addr()).unwrap();
        let (status, response) = client.post(&path, body).unwrap();
        assert_eq!(status, 400, "{body:?} must be a 400");
        let code = response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_str())
            .unwrap_or_else(|| panic!("{body:?}: 400 body must carry error.code"));
        assert!(
            code == "bad_json" || code == "bad_request",
            "{body:?}: unexpected code {code}"
        );
    }
    // duplicate keys are *parseable*; the request layer resolves to the
    // first kind and answers it (no panic, no 500)
    let mut client = Client::connect(server.addr()).unwrap();
    let (status, _) = client
        .post(&path, r#"{"kind":"global","kind":"local"}"#)
        .unwrap();
    assert_eq!(status, 200, "first-key semantics");
    assert_alive(&server);
    server.shutdown();
}

fn error_code_of(body: &Json) -> Option<&str> {
    body.get("error")?.get("code")?.as_str()
}

#[test]
fn out_of_domain_recourse_rows_are_typed_400s_on_both_lanes() {
    let server = start();
    let path = format!("/v1/engines/{ENGINE}/explain");
    // code 99 is far outside the actionable attribute's domain
    let body = r#"{"kind":"recourse","row":[2,0,99,3,2,9,1],"actionable":[2]}"#;
    // one more request than the pool has workers: a worker lost to any
    // of them would leave the last one (or the liveness probe) unserved
    for _ in 0..3 {
        let mut client = Client::connect(server.addr()).unwrap();
        let (status, response) = client.post(&path, body).unwrap();
        assert_eq!(status, 400, "{response:?}");
        assert_eq!(error_code_of(&response), Some("invalid"), "{response:?}");
    }
    let mut client = Client::connect(server.addr()).unwrap();
    for _ in 0..3 {
        let (status, ticket) = client.post(&format!("{path}?mode=async"), body).unwrap();
        assert_eq!(status, 202, "{ticket:?}");
        let id = ticket.get("job_id").unwrap().as_str().unwrap().to_string();
        let deadline = Instant::now() + Duration::from_secs(30);
        let view = loop {
            let (status, view) = client.get(&format!("/v1/jobs/{id}")).unwrap();
            assert_eq!(status, 200, "{view:?}");
            match view.get("state").and_then(|s| s.as_str()) {
                Some("queued" | "running") => {
                    assert!(Instant::now() < deadline, "job {id} never finished");
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => break view,
            }
        };
        assert_eq!(
            view.get("state").unwrap().as_str(),
            Some("done"),
            "{view:?}"
        );
        assert_eq!(
            view.get("status").unwrap().as_f64(),
            Some(400.0),
            "{view:?}"
        );
        let result = view.get("result").unwrap();
        assert_eq!(error_code_of(result), Some("invalid"), "{view:?}");
    }
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn repeated_actionable_attributes_are_typed_400s() {
    let server = start();
    let path = format!("/v1/engines/{ENGINE}/explain");
    // a repeated attribute would get its own one-hot block, IP group and
    // surrogate slot; a dozen repeats make a solve run for minutes
    let body = r#"{"kind":"recourse","row":[2,0,0,3,2,9,0],"actionable":[2,2]}"#;
    // one more request than the pool has workers
    for _ in 0..3 {
        let mut client = Client::connect(server.addr()).unwrap();
        let (status, response) = client.post(&path, body).unwrap();
        assert_eq!(status, 400, "{response:?}");
        assert_eq!(error_code_of(&response), Some("invalid"), "{response:?}");
    }
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn transport_truncation_mid_body_does_not_hang_a_worker() {
    let server = start();
    // announce more bytes than we send — then go silent and close, with
    // the cut landing mid-escape inside the JSON
    for payload in [r#"{"kind": "global\"#, r#"{"kind""#, "["] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let request = format!(
            "POST /v1/engines/{ENGINE}/explain HTTP/1.1\r\nHost: x\r\n\
             Content-Length: {}\r\n\r\n{payload}",
            payload.len() + 100
        );
        stream.write_all(request.as_bytes()).unwrap();
        // half-close the write side so the server's read sees EOF
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // whatever the server does (400 or drop), it must terminate the
        // exchange rather than park the worker
        let mut buf = Vec::new();
        let _ = stream.read_to_end(&mut buf);
    }
    assert_alive(&server);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Admin lifecycle under attack: bad packs, wrong schemas, missing
// engines. Every refusal is typed, the registry never changes, and the
// old engine keeps serving.
// ---------------------------------------------------------------------

fn admin_error_code(body: &Json) -> String {
    body.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or("<missing error.code>")
        .to_string()
}

#[test]
fn hostile_swaps_are_refused_typed_and_the_old_engine_keeps_serving() {
    let server = start();
    let dir = std::env::temp_dir().join(format!("lewis-adversarial-admin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let swap_path = format!("/admin/engines/{ENGINE}/swap");

    // the baseline: generation 1, one engine serving
    let (_, listing) = client.get("/v1/engines").unwrap();
    let baseline = listing.to_json();

    // a pack path that does not exist
    let (status, body) = client
        .post(&swap_path, r#"{"path": "/nonexistent/nowhere.lewis"}"#)
        .unwrap();
    assert_eq!(status, 400, "{body:?}");
    assert_eq!(admin_error_code(&body), "bad_pack");

    // a corrupt pack: real bytes with one bit flipped mid-file
    let corrupt = dir.join("corrupt.lewis");
    {
        let mut donor = EngineRegistry::new();
        donor.load_builtin(ENGINE, 200, 17).unwrap();
        donor.save_pack(ENGINE, corrupt.to_str().unwrap()).unwrap();
        let mut bytes = std::fs::read(&corrupt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&corrupt, &bytes).unwrap();
    }
    let (status, body) = client
        .post(
            &swap_path,
            &format!(
                "{{\"path\": {}}}",
                Json::str(corrupt.to_str().unwrap()).to_json()
            ),
        )
        .unwrap();
    assert_eq!(status, 400, "{body:?}");
    assert_eq!(admin_error_code(&body), "bad_pack");

    // a valid pack of a *different schema* (adult): typed 409, no swap
    let foreign = dir.join("foreign.lewis");
    {
        let mut donor = EngineRegistry::new();
        donor.load_builtin("adult", 200, 17).unwrap();
        donor.save_pack("adult", foreign.to_str().unwrap()).unwrap();
    }
    let (status, body) = client
        .post(
            &swap_path,
            &format!(
                "{{\"path\": {}}}",
                Json::str(foreign.to_str().unwrap()).to_json()
            ),
        )
        .unwrap();
    assert_eq!(status, 409, "{body:?}");
    assert_eq!(admin_error_code(&body), "schema_mismatch");

    // malformed bodies: wrong shape or missing path is `bad_request`,
    // outright non-JSON is `bad_json` — all typed 400s either way
    for (bad, code) in [
        (r#"{"path": 7}"#, "bad_request"),
        (r#"{"paths": "x"}"#, "bad_request"),
        ("not json", "bad_json"),
        ("", "bad_json"),
    ] {
        let (status, body) = client.post(&swap_path, bad).unwrap();
        assert_eq!(status, 400, "{bad:?}: {body:?}");
        assert_eq!(admin_error_code(&body), code, "{bad:?}");
    }

    // swapping an engine that was never registered
    let (status, body) = client
        .post(
            "/admin/engines/ghost/swap",
            r#"{"path": "/nonexistent/nowhere.lewis"}"#,
        )
        .unwrap();
    assert_eq!(status, 404, "{body:?}");
    assert_eq!(admin_error_code(&body), "unknown_engine");

    // unloading a nonexistent engine: 404, pool stays live
    let (status, body) = client.post("/admin/engines/ghost/unload", "").unwrap();
    assert_eq!(status, 404, "{body:?}");
    assert_eq!(admin_error_code(&body), "unknown_engine");

    // unknown admin actions and non-POST methods are refused
    let (status, _) = client
        .post(&format!("/admin/engines/{ENGINE}/explode"), "")
        .unwrap();
    assert_eq!(status, 404);
    let (status, _) = client
        .request("GET", &format!("/admin/engines/{ENGINE}/swap"), b"")
        .unwrap();
    assert_eq!(status, 405);

    // after the whole barrage: registry unchanged, old engine serving
    let (_, listing) = client.get("/v1/engines").unwrap();
    assert_eq!(
        listing.to_json(),
        baseline,
        "no failed admin op may mutate the registry"
    );
    assert_alive(&server);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn depth_limited_but_valid_batch_still_works() {
    // a legitimate request near the nesting limit must not be caught in
    // the anti-bomb net: batch → request → context pairs is 4 levels
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    let (status, body) = client
        .post(
            &format!("/v1/engines/{ENGINE}/explain"),
            r#"{"batch":[{"kind":"global"},{"kind":"contextual","attr":2,"context":[[1,1]]}]}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(
        body.get("results")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(2),
        "{body:?}"
    );
    server.shutdown();
}
