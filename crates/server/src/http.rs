//! A minimal std-only HTTP/1.1 layer: just enough request parsing and
//! response framing for the job API. Every connection is one request
//! (`Connection: close`), which keeps the handler loop allocation-light
//! and timeout-safe without an async runtime.
//!
//! The parser is deliberately paranoid — it faces the open network in
//! the chaos/fuzz suites: head and body sizes are capped (configurable
//! via the `server:` limits block), `Content-Length` must be a single
//! consistent numeric value, and a peer that stalls (slowloris) hits
//! the socket read timeout and gets the connection closed. Malformed
//! input is always answered with a 4xx or a silent close, never a
//! panic.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use adampack_telemetry::warn;

use crate::address::{format_address, parse_address};
use crate::state::{json_escape, Inner};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD: usize = 64 * 1024;

/// A parsed request: method, path and body.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Why a request could not be served from the wire.
enum ReadError {
    /// Answer with this status and message.
    Reject(u16, &'static str),
    /// Don't answer at all (peer vanished or stalled past the timeout);
    /// writing would just block again.
    Closed,
}

/// Reads one HTTP request from the stream.
fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, ReadError> {
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let split = loop {
        if let Some(pos) = find_head_end(&head) {
            break pos;
        }
        if head.len() > MAX_HEAD {
            return Err(ReadError::Reject(431, "request head too large"));
        }
        let n = stream.read(&mut buf).map_err(|_| ReadError::Closed)?;
        if n == 0 {
            return Err(ReadError::Closed);
        }
        head.extend_from_slice(&buf[..n]);
    };
    let (head_bytes, mut rest) = {
        let (h, r) = head.split_at(split + 4);
        (h.to_vec(), r.to_vec())
    };
    let head_str = String::from_utf8_lossy(&head_bytes);
    let mut lines = head_str.split("\r\n");
    let request_line = lines
        .next()
        .ok_or(ReadError::Reject(400, "empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(ReadError::Reject(400, "malformed request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(ReadError::Reject(400, "malformed request line"))?
        .to_string();
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let parsed: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadError::Reject(400, "malformed Content-Length"))?;
                // Duplicate Content-Length headers are a smuggling
                // vector: accept only if they agree.
                if content_length.is_some_and(|prev| prev != parsed) {
                    return Err(ReadError::Reject(400, "conflicting Content-Length"));
                }
                content_length = Some(parsed);
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(ReadError::Reject(413, "request body too large"));
    }
    if rest.len() > content_length {
        // More bytes than the declared body: pipelining/smuggling —
        // this server is strictly one request per connection.
        return Err(ReadError::Reject(400, "bytes beyond declared body"));
    }
    while rest.len() < content_length {
        let n = stream.read(&mut buf).map_err(|_| ReadError::Closed)?;
        if n == 0 {
            return Err(ReadError::Reject(400, "body shorter than Content-Length"));
        }
        rest.extend_from_slice(&buf[..n]);
        if rest.len() > content_length {
            return Err(ReadError::Reject(400, "bytes beyond declared body"));
        }
    }
    Ok(Request {
        method,
        path,
        body: rest,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Writes a complete response and closes the connection. `retry_after`
/// adds a `Retry-After` header (seconds) for 429/503 shedding answers.
fn respond_full(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    retry_after: Option<u64>,
    body: &[u8],
) {
    let mut head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(code),
        body.len()
    );
    if let Some(secs) = retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("Connection: close\r\n\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &[u8]) {
    respond_full(stream, code, content_type, None, body);
}

fn respond_json(stream: &mut TcpStream, code: u16, body: String) {
    respond(stream, code, "application/json", body.as_bytes());
}

fn error_json(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", json_escape(msg))
}

/// Handles one connection end to end.
pub(crate) fn handle(inner: &Arc<Inner>, mut stream: TcpStream) {
    let timeout = Duration::from_millis(inner.opts.limits.read_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let req = match read_request(&mut stream, inner.opts.limits.max_body_bytes) {
        Ok(req) => req,
        Err(ReadError::Reject(code, msg)) => {
            respond_json(&mut stream, code, error_json(msg));
            return;
        }
        Err(ReadError::Closed) => return,
    };
    let path = req.path.trim_end_matches('/');
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        // Liveness: green as long as the process serves requests, even
        // when loaded or draining — don't restart a draining server.
        ("GET", ["healthz"]) => respond(&mut stream, 200, "text/plain", b"ok\n"),
        // Readiness: green only when a new job would be admitted now.
        ("GET", ["readyz"]) => match inner.readiness() {
            Ok(()) => respond(&mut stream, 200, "text/plain", b"ready\n"),
            Err(why) => respond_full(
                &mut stream,
                503,
                "text/plain",
                Some(1),
                format!("not ready: {why}\n").as_bytes(),
            ),
        },
        ("GET", ["metrics"]) => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4",
            adampack_telemetry::prometheus_snapshot().as_bytes(),
        ),
        ("POST", ["jobs"]) => {
            let yaml = match String::from_utf8(req.body) {
                Ok(s) => s,
                Err(_) => {
                    respond_json(&mut stream, 400, error_json("body is not UTF-8"));
                    return;
                }
            };
            match inner.submit(&yaml) {
                Ok((addr, outcome)) => {
                    let status = inner.status_json(addr).unwrap_or_else(|| "{}".to_string());
                    respond_json(
                        &mut stream,
                        200,
                        format!(
                            "{{\"address\":\"{}\",\"outcome\":\"{}\",\"job\":{status}}}",
                            format_address(addr),
                            outcome.name()
                        ),
                    );
                }
                Err(e) => respond_full(
                    &mut stream,
                    e.code,
                    "application/json",
                    e.retry_after,
                    error_json(&e.msg).as_bytes(),
                ),
            }
        }
        ("GET", ["jobs", hex]) => match parse_address(hex) {
            Some(addr) => match inner.status_json(addr) {
                Some(json) => respond_json(&mut stream, 200, json),
                None => respond_json(&mut stream, 404, error_json("unknown job")),
            },
            None => respond_json(&mut stream, 400, error_json("malformed address")),
        },
        ("GET", ["jobs", hex, "artifact"]) => match parse_address(hex) {
            Some(addr) => match std::fs::read(inner.artifact_path(addr)) {
                Ok(bytes) => {
                    inner
                        .cache
                        .lock()
                        .unwrap()
                        .touch(&inner.artifact_path(addr));
                    respond(&mut stream, 200, "text/csv", &bytes)
                }
                Err(_) => respond_json(&mut stream, 404, error_json("artifact not available")),
            },
            None => respond_json(&mut stream, 400, error_json("malformed address")),
        },
        ("POST", ["jobs", hex, "cancel"]) => match parse_address(hex) {
            Some(addr) => match inner.cancel(addr) {
                Some(phase) => respond_json(
                    &mut stream,
                    200,
                    format!(
                        "{{\"address\":\"{}\",\"status\":\"{phase}\"}}",
                        format_address(addr)
                    ),
                ),
                None => respond_json(&mut stream, 404, error_json("unknown job")),
            },
            None => respond_json(&mut stream, 400, error_json("malformed address")),
        },
        (_, ["jobs", ..]) | (_, ["metrics"]) | (_, ["healthz"]) | (_, ["readyz"]) => {
            respond_json(&mut stream, 405, error_json("method not allowed"))
        }
        _ => respond_json(&mut stream, 404, error_json("no such route")),
    }
}

/// The accept loop run by each HTTP thread: it blocks in `accept(2)`, so
/// a queued connection is served at once. It exits on the first `accept`
/// that returns after `shutdown` is set (`ServerHandle::stop` sets it and
/// then wakes every thread with a loopback connection).
pub(crate) fn accept_loop(inner: Arc<Inner>, listener: std::net::TcpListener) {
    loop {
        let accepted = listener.accept();
        // SeqCst pairs with the SeqCst store that precedes the wake
        // connects: a thread woken by one of them cannot read a stale
        // `false`, serve the empty connection and park again for good.
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => handle(&inner, stream),
            Err(e) => warn!("accept failed: {e}"),
        }
    }
}
