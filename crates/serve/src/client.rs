//! A minimal blocking HTTP/1.1 client over one keep-alive connection.
//!
//! Shared by the router (which forwards to its replicas and probes
//! their `/healthz` with it) and the integration tests — both need
//! exactly this: send a request, read the
//! `Content-Length`-framed answer, reuse the socket. [`Client::send`]
//! returns the answer's bytes as sent; [`Client::request`] and its
//! `get`/`post` shorthands parse them as JSON. It is intentionally not
//! a general client (no redirects, no TLS, no chunked bodies — the
//! server never sends any of those).

use crate::http::{find_header, read_response, HttpReply};
use crate::wire::Json;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body a client reads. A batch of 256 explanations
/// is far below this; the cap only bounds a misbehaving peer (the
/// router relays replica answers through it).
const MAX_RESPONSE_BODY: usize = 64 << 20;

/// One keep-alive connection to a server.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Headers of the most recent [`Client::request`] (names
    /// lower-cased).
    last_headers: Vec<(String, String)>,
}

impl Client {
    /// Connect to `addr` with generous (10s) timeouts.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::connect_timeout(addr, Duration::from_secs(10))
    }

    /// Connect to `addr` within `timeout`, which then bounds every read
    /// and write on the connection too.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            last_headers: Vec::new(),
        })
    }

    /// A header of the most recent [`Client::request`] (name
    /// case-insensitive), e.g. `x-engine-generation`.
    pub fn response_header(&self, name: &str) -> Option<&str> {
        find_header(&self.last_headers, name)
    }

    /// `GET path` → `(status, parsed JSON body)`.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, Json)> {
        self.request("GET", path, b"")
    }

    /// `POST path` with a body → `(status, parsed JSON body)`.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, Json)> {
        self.request("POST", path, body.as_bytes())
    }

    /// Send one request and parse the answer's body as JSON (an empty
    /// body is `Json::Null`).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Json)> {
        let reply = self.send(method, path, body)?;
        self.last_headers = reply.headers;
        let text = String::from_utf8(reply.body)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 body"))?;
        let json = if text.is_empty() {
            Json::Null
        } else {
            Json::parse(&text).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unparseable body: {e} in {text:?}"),
                )
            })?
        };
        Ok((reply.status, json))
    }

    /// Send one request and read the framed response: status, headers
    /// and the body bytes exactly as the server sent them.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<HttpReply> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: lewis-serve\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut buf = head.into_bytes();
        buf.extend_from_slice(body);
        self.writer.write_all(&buf)?;
        self.writer.flush()?;
        read_response(&mut self.reader, MAX_RESPONSE_BODY)
    }
}
