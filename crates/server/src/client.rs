//! A tiny blocking HTTP client for the job API — just enough for the
//! test suite and the end-to-end benchmark's `serve_mixed` traffic
//! generator to talk to a running server without external dependencies.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Default socket timeout for client requests.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Hard cap on a response body: a confused or hostile server must not
/// be able to balloon the client's memory. Far above any legitimate
/// artifact the test fleet produces.
const MAX_RESPONSE_BODY: usize = 256 * 1024 * 1024;

/// Cap on the response head (status line + headers).
const MAX_RESPONSE_HEAD: usize = 64 * 1024;

/// Sends one request and returns `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    read_response(&mut stream)
}

fn malformed(what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("malformed response: {what}"),
    )
}

/// Reads a response with bounded memory: the head is capped, and the
/// body is read to exactly `Content-Length` when the server declares
/// one (all responses from this server do), else to EOF under a cap.
fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, Vec<u8>)> {
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let split = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if raw.len() > MAX_RESPONSE_HEAD {
            return Err(malformed("head too large"));
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(malformed("closed before head"));
        }
        raw.extend_from_slice(&buf[..n]);
    };
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| malformed("head not UTF-8"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("no status code"))?;
    let mut content_length: Option<usize> = None;
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let mut body = raw[split + 4..].to_vec();
    match content_length {
        Some(len) => {
            if len > MAX_RESPONSE_BODY {
                return Err(malformed("declared body too large"));
            }
            while body.len() < len {
                let n = stream.read(&mut buf)?;
                if n == 0 {
                    return Err(malformed("closed mid-body"));
                }
                body.extend_from_slice(&buf[..n]);
                if body.len() > len {
                    break;
                }
            }
            body.truncate(len);
        }
        None => loop {
            if body.len() > MAX_RESPONSE_BODY {
                return Err(malformed("unbounded body"));
            }
            let n = stream.read(&mut buf)?;
            if n == 0 {
                break;
            }
            body.extend_from_slice(&buf[..n]);
        },
    }
    Ok((status, body))
}

/// `GET path` convenience.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
    request(addr, "GET", path, b"")
}

/// `POST path` convenience.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    request(addr, "POST", path, body)
}

/// Submits a YAML config; returns `(status, response body)`.
pub fn submit(addr: SocketAddr, yaml: &str) -> std::io::Result<(u16, Vec<u8>)> {
    post(addr, "/jobs", yaml.as_bytes())
}

/// Extracts a string field from a flat JSON object body (the server's
/// responses are flat enough that a full parser is not needed).
pub fn json_str_field(body: &[u8], field: &str) -> Option<String> {
    let s = std::str::from_utf8(body).ok()?;
    let needle = format!("\"{field}\":\"");
    let start = s.find(&needle)? + needle.len();
    let end = s[start..].find('"')? + start;
    Some(s[start..end].to_string())
}

/// Polls `GET /jobs/{address}` until its status reaches a terminal phase
/// (`done`, `failed`, `cancelled`, `expired`) or the deadline passes.
/// Returns the final status string.
pub fn wait_terminal(
    addr: SocketAddr,
    address_hex: &str,
    deadline: Duration,
) -> std::io::Result<String> {
    let start = Instant::now();
    loop {
        let (code, body) = get(addr, &format!("/jobs/{address_hex}"))?;
        if code == 200 {
            if let Some(status) = json_str_field(&body, "status") {
                if matches!(status.as_str(), "done" | "failed" | "cancelled" | "expired") {
                    return Ok(status);
                }
            }
        }
        if start.elapsed() > deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("job {address_hex} not terminal after {deadline:?}"),
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Fetches a completed job's artifact bytes.
pub fn artifact(addr: SocketAddr, address_hex: &str) -> std::io::Result<Vec<u8>> {
    let (code, body) = get(addr, &format!("/jobs/{address_hex}/artifact"))?;
    if code != 200 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("artifact fetch for {address_hex} returned {code}"),
        ));
    }
    Ok(body)
}
