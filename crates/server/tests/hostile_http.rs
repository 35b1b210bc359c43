//! Hostile-transport tests: the server must answer malformed, stalled
//! or smuggling-shaped HTTP with a deterministic, well-formed `400`
//! (stable `request.invalid` code) and a closed connection — never a
//! hang, never a silent drop, never a 500.

use carta_server::{Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Short idle timeout so stall tests finish quickly.
const IDLE_MS: u64 = 300;

fn start() -> ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        idle_ms: IDLE_MS,
        ..ServerConfig::default()
    })
    .expect("binds")
    .spawn()
    .expect("spawns")
}

/// Sends raw bytes, returns everything the server answers until it
/// closes the connection.
fn raw_exchange(addr: SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.write_all(payload).expect("writes");
    let mut raw = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.read_to_string(&mut raw).expect("reads to close");
    raw
}

#[test]
fn truncated_body_gets_a_400_not_a_dropped_connection() {
    let server = start();
    let raw = raw_exchange(
        server.addr(),
        b"POST /v1/requests HTTP/1.1\r\nhost: x\r\ncontent-length: 100\r\n\r\nonly a few bytes",
    );
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    assert!(raw.contains("request.invalid"), "{raw}");
    assert!(raw.contains("truncated"), "{raw}");
    assert!(raw.contains("connection: close"), "{raw}");
    server.stop();
}

#[test]
fn bad_and_conflicting_content_lengths_are_400() {
    let server = start();
    let addr = server.addr();
    let raw = raw_exchange(
        addr,
        b"POST /v1/requests HTTP/1.1\r\nhost: x\r\ncontent-length: banana\r\n\r\n",
    );
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    assert!(raw.contains("invalid content-length"), "{raw}");
    let raw = raw_exchange(
        addr,
        b"POST /v1/requests HTTP/1.1\r\nhost: x\r\ncontent-length: 4\r\ncontent-length: 4\r\n\r\nbody",
    );
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    assert!(raw.contains("multiple content-length"), "{raw}");
    server.stop();
}

#[test]
fn chunked_junk_is_rejected_not_smuggled() {
    let server = start();
    // A classic smuggling shape: Transfer-Encoding alongside a
    // Content-Length, followed by oversized chunked garbage. The
    // server must refuse the framing outright.
    let mut payload = Vec::from(
        &b"POST /v1/requests HTTP/1.1\r\nhost: x\r\ntransfer-encoding: chunked\r\ncontent-length: 4\r\n\r\n"[..],
    );
    payload.extend_from_slice(&b"ffffffff\r\n".repeat(64));
    let raw = raw_exchange(server.addr(), &payload);
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    assert!(raw.contains("transfer-encoding"), "{raw}");
    server.stop();
}

#[test]
fn slow_loris_head_is_cut_off_with_a_400() {
    let server = start();
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    // Start a request head, then stall forever: the server must give
    // up after its idle/read timeout, answer, and close.
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nhost: carta\r\nx-slow:")
        .expect("writes a partial head");
    let started = Instant::now();
    let mut raw = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.read_to_string(&mut raw).expect("reads to close");
    let waited = started.elapsed();
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    assert!(raw.contains("stalled"), "{raw}");
    assert!(
        waited < Duration::from_secs(10),
        "the stall was bounded by the read timeout, waited {waited:?}"
    );
    server.stop();
}

#[test]
fn idle_connections_are_reaped_silently() {
    let server = start();
    let stream = TcpStream::connect(server.addr()).expect("connects");
    // Send nothing at all: an idle keep-alive slot, not an attack —
    // the server closes it without wasting a response.
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let n = reader.read_line(&mut line).expect("clean EOF");
    assert_eq!(n, 0, "server closed without a response: {line}");
    server.stop();
}

#[test]
fn deeply_nested_json_is_a_400_and_the_server_survives() {
    let server = start();
    let addr = server.addr();
    // ~200 KB of `[`: before the parser had a nesting limit this body
    // overflowed a worker's stack and aborted the whole process.
    let body = "[".repeat(200_000);
    let mut payload = format!(
        "POST /v1/requests HTTP/1.1\r\nhost: x\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    payload.extend_from_slice(body.as_bytes());
    let raw = raw_exchange(addr, &payload);
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    assert!(raw.contains("request.invalid"), "{raw}");
    assert!(raw.contains("nesting deeper than"), "{raw}");
    let raw = raw_exchange(
        addr,
        b"GET /v1/healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
    );
    assert!(raw.starts_with("HTTP/1.1 200 "), "still serving: {raw}");
    server.stop();
}

#[test]
fn pipelining_stops_at_the_first_malformed_request() {
    let server = start();
    let stream = TcpStream::connect(server.addr()).expect("connects");
    let mut writer = stream.try_clone().expect("clones");
    // Three interleaved pipelined requests; the second has broken
    // framing. The first must be answered normally, the second gets
    // the 400, and the connection closes before the third — a
    // poisoned byte stream must not be resynchronized by guesswork.
    writer
        .write_all(
            b"GET /v1/healthz HTTP/1.1\r\nhost: x\r\n\r\n\
              POST /v1/requests HTTP/1.1\r\nno-colon-header\r\n\r\n\
              GET /v1/metrics HTTP/1.1\r\nhost: x\r\n\r\n",
        )
        .expect("writes pipeline");
    let mut reader = BufReader::new(stream);
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut raw = String::new();
    reader.read_to_string(&mut raw).expect("reads to close");
    // Responses are concatenated on the wire (JSON bodies carry no
    // trailing newline), so scan for status lines as substrings.
    let statuses: Vec<u16> = raw
        .match_indices("HTTP/1.1 ")
        .filter_map(|(i, _)| raw[i + 9..].split_whitespace().next()?.parse().ok())
        .collect();
    assert_eq!(
        statuses,
        vec![200, 400],
        "third request never answered: {raw}"
    );
    server.stop();
}
