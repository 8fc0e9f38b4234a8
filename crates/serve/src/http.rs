//! A deliberately small HTTP/1.1 layer: request and response parsing
//! with hard limits, response writing, and the one listener, worker
//! pool and keep-alive connection loop that both the server and the
//! router run on.
//!
//! This is not a general web server — it implements exactly what the
//! explanation service needs, defensively: bounded request line /
//! header / body sizes (an unauthenticated endpoint must not buffer
//! unbounded input), `Content-Length` bodies only (no chunked
//! encoding), and explicit outcomes for "client went away" vs
//! "client sent garbage" vs "client sent too much".
//!
//! Concurrency model of `listen`: one acceptor thread pushes
//! connections into a **bounded** channel drained by a fixed pool of
//! worker threads, each of which owns a connection for its whole
//! keep-alive lifetime. The bound gives natural backpressure — when
//! every worker is busy and the queue is full, the acceptor stops
//! accepting and the kernel's listen backlog (and eventually the
//! clients) absorb the burst, instead of the process buffering
//! unboundedly. Shutdown is cooperative: raising the stop switch wakes
//! the acceptor, which exits and drops the channel sender; workers
//! finish their in-flight request, observe the flag / closed channel,
//! and exit. In-flight responses are never cut off.

use crate::wire::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest accepted request line or header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most accepted header lines.
const MAX_HEADERS: usize = 64;

/// One parsed request.
#[derive(Debug)]
pub struct HttpRequest {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target (path only; no scheme/authority support).
    pub path: String,
    /// Whether the request line said `HTTP/1.0` rather than `HTTP/1.1`.
    pub(crate) http10: bool,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Whether the connection stays open after this request: yes for
    /// HTTP/1.1 unless the client sent `Connection: close`, never for
    /// HTTP/1.0 (whose clients may read the response to EOF).
    pub fn keep_alive(&self) -> bool {
        !self.http10
            && !self
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// What reading from a connection produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(HttpRequest),
    /// The peer closed cleanly between requests.
    Closed,
    /// The peer violated the protocol or a line limit; respond 400 and
    /// close.
    Malformed(String),
    /// The announced body exceeds the limit; respond 413 and close.
    TooLarge {
        /// The `Content-Length` the client announced.
        announced: usize,
    },
}

/// Read one request. `Err` is reserved for transport errors (reset,
/// timeout); protocol problems come back as
/// [`ReadOutcome::Malformed`] / [`ReadOutcome::TooLarge`] so the
/// caller can still answer over the intact connection.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> std::io::Result<ReadOutcome> {
    let request_line = match read_line(reader)? {
        Line::Eof => return Ok(ReadOutcome::Closed),
        Line::TooLong => return Ok(ReadOutcome::Malformed("request line too long".into())),
        Line::Text(l) => l,
    };
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Ok(ReadOutcome::Malformed(format!(
            "malformed request line {request_line:?}"
        )));
    };
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Ok(ReadOutcome::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    if method.is_empty() || path.is_empty() || !path.starts_with('/') {
        return Ok(ReadOutcome::Malformed(format!(
            "malformed request line {request_line:?}"
        )));
    }

    let headers = match read_headers(reader)? {
        Ok(headers) => headers,
        Err(msg) => return Ok(ReadOutcome::Malformed(msg)),
    };

    let mut request = HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        http10: version == "HTTP/1.0",
        headers,
        body: Vec::new(),
    };

    if request.header("transfer-encoding").is_some() {
        return Ok(ReadOutcome::Malformed(
            "chunked bodies are not supported".into(),
        ));
    }
    if let Some(len) = request.header("content-length") {
        let Some(len) = content_length(len) else {
            return Ok(ReadOutcome::Malformed(format!(
                "bad content-length {len:?}"
            )));
        };
        if len > max_body {
            return Ok(ReadOutcome::TooLarge { announced: len });
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        request.body = body;
    }
    Ok(ReadOutcome::Request(request))
}

/// One response as read off the wire (the client side of
/// [`write_response`]).
#[derive(Debug)]
pub struct HttpReply {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body bytes exactly as sent.
    pub body: Vec<u8>,
}

impl HttpReply {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// Read one `Content-Length`-framed response whose body is at most
/// `max_body` bytes. A peer that closes before the status line, breaks
/// the framing or announces a body over the cap is an `Err`.
pub fn read_response(reader: &mut impl BufRead, max_body: usize) -> std::io::Result<HttpReply> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let status_line = match read_line(reader)? {
        Line::Eof => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed the connection",
            ))
        }
        Line::TooLong => return Err(invalid("status line too long".into())),
        Line::Text(l) => l,
    };
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
    let headers = read_headers(reader)?.map_err(invalid)?;
    let len = match find_header(&headers, "content-length") {
        Some(len) => {
            content_length(len).ok_or_else(|| invalid(format!("bad content-length {len:?}")))?
        }
        None => 0,
    };
    if len > max_body {
        return Err(invalid(format!(
            "response body of {len} bytes exceeds the {max_body}-byte cap"
        )));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(HttpReply {
        status,
        headers,
        body,
    })
}

/// A `Content-Length` value: ASCII digits only (`usize::from_str` alone
/// would also take a leading `+`).
fn content_length(value: &str) -> Option<usize> {
    if value.bytes().all(|b| b.is_ascii_digit()) {
        value.parse().ok()
    } else {
        None
    }
}

/// Case-insensitive lookup in lower-cased header pairs (first match).
pub(crate) fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Read a header block up to its blank line. The inner `Err` is a
/// protocol problem (the caller decides how to answer it); the outer
/// one a transport error.
fn read_headers(
    reader: &mut impl BufRead,
) -> std::io::Result<Result<Vec<(String, String)>, String>> {
    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader)? {
            Line::Eof => return Ok(Err("eof inside headers".into())),
            Line::TooLong => return Ok(Err("header line too long".into())),
            Line::Text(l) => l,
        };
        if line.is_empty() {
            return Ok(Ok(headers));
        }
        if headers.len() >= MAX_HEADERS {
            return Ok(Err("too many headers".into()));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Ok(Err(format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

enum Line {
    Text(String),
    Eof,
    TooLong,
}

/// Read one CRLF- (or LF-) terminated line with a length cap. EOF at a
/// line start is `Line::Eof` (a clean close between keep-alive
/// requests, or garbage when it happens inside the header block — the
/// caller knows which); EOF mid-line is a transport error.
fn read_line(reader: &mut impl BufRead) -> std::io::Result<Line> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(Line::Eof)
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "eof mid-line",
                    ))
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    let text = String::from_utf8(buf).map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 line")
                    })?;
                    return Ok(Line::Text(text));
                }
                if buf.len() >= MAX_LINE {
                    return Ok(Line::TooLong);
                }
                buf.push(byte[0]);
            }
            Err(e) => return Err(e),
        }
    }
}

/// The `Content-Type` of every response: the service speaks JSON only.
const CONTENT_TYPE: &str = "application/json";

/// One response, ready to serialize.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Response body (JSON).
    pub body: Vec<u8>,
    /// Whether to close the connection after writing.
    pub close: bool,
    /// Extra response headers (`x-engine-generation`, `retry-after`, …).
    /// Names must be lower-case tokens; values must be header-safe.
    pub headers: Vec<(&'static str, String)>,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: &Json) -> Self {
        HttpResponse {
            status,
            body: body.to_json().into_bytes(),
            close: false,
            headers: Vec::new(),
        }
    }

    /// Mark the connection for closing after this response.
    #[must_use]
    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }

    /// Attach one extra response header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }
}

/// The typed error every route answers with:
/// `{"error": {"code": …, "message": …}}`.
pub(crate) fn error_json(code: &str, message: &str) -> Json {
    Json::obj([(
        "error",
        Json::obj([("code", Json::str(code)), ("message", Json::str(message))]),
    )])
}

/// [`error_json`] as a response.
pub(crate) fn error_response(status: u16, code: &str, message: &str) -> HttpResponse {
    HttpResponse::json(status, &error_json(code, message))
}

/// The reason phrase for the statuses this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize a response (one write syscall via a pre-built buffer).
pub fn write_response(writer: &mut impl Write, response: &HttpResponse) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {CONTENT_TYPE}\r\ncontent-length: {}\r\n",
        response.status,
        status_reason(response.status),
        response.body.len()
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    if response.close {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    let mut buf = head.into_bytes();
    buf.extend_from_slice(&response.body);
    writer.write_all(&buf)?;
    writer.flush()
}

/// A service run by [`listen`]'s worker pool.
pub(crate) trait Handler: Send + Sync + 'static {
    /// State a worker keeps for one client connection's lifetime: `()`
    /// for the server, the lazily opened replica connections for the
    /// router.
    type Conn;

    /// Fresh state for a newly accepted connection.
    fn open(&self) -> Self::Conn;

    /// Answer one request. `switch` is the listener's own, so an admin
    /// route can stop it.
    fn handle(&self, request: &HttpRequest, conn: &mut Self::Conn, switch: &Switch)
        -> HttpResponse;

    /// A request refused before it reached [`Handler::handle`]
    /// (malformed, or its body over the limit) was answered after
    /// `elapsed`.
    fn refused(&self, _elapsed: Duration) {}
}

/// A listener's stop flag, shared by its threads and its handler.
pub(crate) struct Switch {
    flag: AtomicBool,
    addr: SocketAddr,
}

impl Switch {
    /// Whether shutdown has been requested.
    pub(crate) fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Request shutdown, and poke `accept()` awake so the acceptor
    /// observes the flag promptly.
    pub(crate) fn set(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running listener: the acceptor and the worker pool.
pub(crate) struct Listener {
    switch: Arc<Switch>,
    threads: Vec<JoinHandle<()>>,
}

impl Listener {
    /// The bound address (resolves port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.switch.addr
    }

    /// The stop switch, for threads the owner runs beside the pool.
    pub(crate) fn switch(&self) -> &Arc<Switch> {
        &self.switch
    }

    /// Block until every thread has exited (after the switch is set).
    pub(crate) fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Bind `addr` and serve `handler` on `workers` threads (named
/// `{name}-worker-{i}`) plus an acceptor. Connections idle longer than
/// `read_timeout` are dropped; bodies over `max_body` are a typed
/// `413`.
pub(crate) fn listen<H: Handler>(
    name: &str,
    addr: &str,
    workers: usize,
    read_timeout: Duration,
    max_body: usize,
    handler: Arc<H>,
) -> std::io::Result<Listener> {
    let listener = TcpListener::bind(addr)?;
    let switch = Arc::new(Switch {
        flag: AtomicBool::new(false),
        addr: listener.local_addr()?,
    });
    let workers = workers.max(1);
    // Bound = workers: at most one queued connection per busy worker
    // before the acceptor itself blocks (see module docs).
    let (tx, rx) = sync_channel::<TcpStream>(workers);
    let rx = Arc::new(Mutex::new(rx));

    // a failed spawn below drops `tx`, which stops the workers already
    // running
    let mut threads = Vec::with_capacity(workers + 1);
    for i in 0..workers {
        let rx = Arc::clone(&rx);
        let handler = Arc::clone(&handler);
        let switch = Arc::clone(&switch);
        threads.push(
            std::thread::Builder::new()
                .name(format!("{name}-worker-{i}"))
                .spawn(move || loop {
                    let stream = {
                        // a poisoned queue mutex means a sibling worker
                        // panicked mid-recv; stop serving, don't unwind
                        let Ok(queue) = rx.lock() else { break };
                        match queue.recv() {
                            Ok(s) => s,
                            Err(_) => break, // acceptor gone: drain and stop
                        }
                    };
                    serve_connection(stream, &*handler, &switch, read_timeout, max_body);
                })?,
        );
    }

    {
        let switch = Arc::clone(&switch);
        threads.push(
            std::thread::Builder::new()
                .name(format!("{name}-acceptor"))
                .spawn(move || {
                    for stream in listener.incoming() {
                        if switch.is_set() {
                            break;
                        }
                        match stream {
                            // a worker will pick it up; send blocks when
                            // the pool is saturated (backpressure)
                            Ok(s) => {
                                if tx.send(s).is_err() {
                                    break;
                                }
                            }
                            Err(_) => continue,
                        }
                    }
                    // dropping tx lets the workers drain and exit
                })?,
        );
    }

    Ok(Listener { switch, threads })
}

/// Serve one connection for its keep-alive lifetime.
fn serve_connection<H: Handler>(
    stream: TcpStream,
    handler: &H,
    switch: &Switch,
    read_timeout: Duration,
    max_body: usize,
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut conn = handler.open();
    loop {
        if switch.is_set() {
            break;
        }
        let outcome = match read_request(&mut reader, max_body) {
            Ok(o) => o,
            Err(_) => break, // timeout or reset: drop the connection
        };
        let started = Instant::now();
        let response = match outcome {
            ReadOutcome::Closed => break,
            ReadOutcome::Malformed(msg) => {
                handler.refused(started.elapsed());
                error_response(400, "malformed_request", &msg).closing()
            }
            ReadOutcome::TooLarge { announced } => {
                // Drain a bounded amount of the oversized body first:
                // closing with unread data pending makes TCP reset the
                // connection, which can destroy the 413 before the
                // client reads it. Beyond the cap we accept that risk
                // rather than read forever.
                const DRAIN_CAP: usize = 4 << 20;
                if announced <= DRAIN_CAP {
                    let mut sink = std::io::sink();
                    let _ = std::io::copy(
                        &mut std::io::Read::take(&mut reader, announced as u64),
                        &mut sink,
                    );
                }
                handler.refused(started.elapsed());
                error_response(
                    413,
                    "body_too_large",
                    &format!("announced {announced} bytes, limit {max_body}"),
                )
                .closing()
            }
            ReadOutcome::Request(request) => {
                let mut response = handler.handle(&request, &mut conn, switch);
                if !request.keep_alive() || switch.is_set() {
                    response.close = true;
                }
                response
            }
        };
        if write_response(&mut writer, &response).is_err() || response.close {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read(input: &str) -> ReadOutcome {
        read_request(&mut BufReader::new(input.as_bytes()), 1024).unwrap()
    }

    #[test]
    fn parses_a_post_with_body() {
        let outcome = read(
            "POST /v1/engines/g/explain HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        );
        let ReadOutcome::Request(r) = outcome else {
            panic!("{outcome:?}")
        };
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/engines/g/explain");
        assert_eq!(r.body, b"hello");
        assert_eq!(
            r.header("HOST"),
            Some("x"),
            "header names are case-insensitive"
        );
        assert!(r.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_is_honoured() {
        let ReadOutcome::Request(r) = read("GET / HTTP/1.1\r\nConnection: close\r\n\r\n") else {
            panic!()
        };
        assert!(!r.keep_alive());
    }

    #[test]
    fn content_length_must_be_ascii_digits_both_ways() {
        for len in ["+5", "-0", "0x5"] {
            let request = format!("POST / HTTP/1.1\r\nContent-Length: {len}\r\n\r\nhello");
            assert!(
                matches!(read(&request), ReadOutcome::Malformed(_)),
                "{len:?}"
            );
            let reply = format!("HTTP/1.1 200 OK\r\ncontent-length: {len}\r\n\r\nhello");
            assert!(
                read_response(&mut BufReader::new(reply.as_bytes()), 64).is_err(),
                "{len:?}"
            );
        }
    }

    #[test]
    fn eof_between_requests_is_a_clean_close() {
        assert!(matches!(read(""), ReadOutcome::Closed));
    }

    #[test]
    fn garbage_is_malformed_not_fatal() {
        for bad in [
            "nonsense\r\n\r\n",
            "GET / HTTP/2.0\r\n\r\n",
            "GET noslash HTTP/1.1\r\n\r\n",
            "GET / HTTP/1.1\r\nbadheader\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: owl\r\n\r\n",
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(matches!(read(bad), ReadOutcome::Malformed(_)), "{bad:?}");
        }
    }

    #[test]
    fn oversized_bodies_are_reported_not_read() {
        let outcome = read("POST / HTTP/1.1\r\nContent-Length: 4096\r\n\r\n");
        assert!(
            matches!(outcome, ReadOutcome::TooLarge { announced: 4096 }),
            "{outcome:?}"
        );
    }

    #[test]
    fn line_length_limit_holds() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
        assert!(matches!(read(&long), ReadOutcome::Malformed(_)));
    }

    #[test]
    fn responses_serialize_with_length_and_reason() {
        let mut out = Vec::new();
        let resp = HttpResponse::json(404, &Json::str("nope")).closing();
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"), "{text}");
        assert!(text.contains("content-type: application/json\r\n"));
        assert!(text.contains("content-length: 6\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n\"nope\""));
    }

    #[test]
    fn replies_read_back_what_was_written_within_the_cap() {
        let mut out = Vec::new();
        let resp = HttpResponse::json(429, &Json::str("slow down")).with_header("retry-after", "1");
        write_response(&mut out, &resp).unwrap();
        let reply = read_response(&mut BufReader::new(&out[..]), 64).unwrap();
        assert_eq!(reply.status, 429);
        assert_eq!(reply.header("Retry-After"), Some("1"));
        assert_eq!(reply.body, resp.body, "body bytes come back verbatim");

        let capped = read_response(&mut BufReader::new(&out[..]), 4).unwrap_err();
        assert_eq!(capped.kind(), std::io::ErrorKind::InvalidData);
        for bad in [
            "",
            "HTTP/1.1 abc\r\n\r\n",
            "HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nshort",
        ] {
            assert!(
                read_response(&mut BufReader::new(bad.as_bytes()), 64).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn extra_headers_are_written_before_the_body() {
        let mut out = Vec::new();
        let resp = HttpResponse::json(200, &Json::str("ok"))
            .with_header("x-engine-generation", "7")
            .with_header("retry-after", "1");
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("x-engine-generation: 7\r\n"), "{text}");
        assert!(text.contains("retry-after: 1\r\n"), "{text}");
        let head_end = text.find("\r\n\r\n").unwrap();
        assert!(text.find("x-engine-generation").unwrap() < head_end);
    }
}
