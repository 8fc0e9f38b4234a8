//! A raw HTTP/1.1 client: pre-built request bytes out, status and body
//! bytes back, so the generator spends no time on JSON and parity can
//! compare answers byte for byte.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest any single answer may take before the run counts it failed.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One answer.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    /// The `error.code` of a JSON error body, if any.
    pub fn error_code(&self) -> Option<String> {
        let text = std::str::from_utf8(&self.body).ok()?;
        let json = lewis_serve::Json::parse(text).ok()?;
        json.get("error")?.get("code")?.as_str().map(str::to_string)
    }

    /// Answered: a 200, or the expected "the data cannot answer this"
    /// 422 (`unsupported` / `no_recourse`).
    pub fn answered(&self) -> bool {
        self.status == 200
            || (self.status == 422
                && matches!(
                    self.error_code().as_deref(),
                    Some("unsupported") | Some("no_recourse")
                ))
    }
}

/// The bytes of one request.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: lewisbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Send `request` and read the whole answer.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.writer.write_all(request)?;
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply { status, body })
    }
}

/// One request on a fresh connection.
pub fn once(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    Conn::connect(addr)?.send(&request_bytes(method, path, body))
}

/// Poll `GET path` until it answers 200 or `within` runs out.
pub fn wait_ready(addr: SocketAddr, path: &str, within: Duration) -> Result<(), String> {
    let deadline = Instant::now() + within;
    loop {
        match once(addr, "GET", path, "") {
            Ok(reply) if reply.status == 200 => return Ok(()),
            _ if Instant::now() >= deadline => {
                return Err(format!("{addr}{path} not ready within {within:?}"))
            }
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}
