//! End-to-end tests of connection reuse: keep-alive sessions, idle
//! timeouts, `Connection: close` negotiation, per-connection request caps,
//! request-level 429 shedding on reused connections, and pipelining —
//! all against a live `ikrq-server` on an ephemeral port.

use ikrq_core::{CacheConfig, IkrqService, MetricsDetail, SearchRequest, VariantConfig};
use ikrq_server::client::{ClientReply, KeepAliveClient};
use ikrq_server::{serve, ServerConfig, ServerHandle};
use indoor_keywords::QueryKeywords;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

fn fig1_service() -> Arc<IkrqService> {
    let example = indoor_data::paper_example_venue();
    let service = Arc::new(IkrqService::new());
    service
        .register_venue(
            "fig1",
            example.venue.space.clone(),
            example.venue.directory.clone(),
        )
        .unwrap();
    service
}

fn start(config: ServerConfig) -> ServerHandle {
    serve(fig1_service(), "127.0.0.1:0", config).expect("bind ephemeral port")
}

fn fig1_request(k: usize, delta: f64) -> SearchRequest {
    let example = indoor_data::paper_example_venue();
    SearchRequest::builder("fig1")
        .from(example.ps)
        .to(example.pt)
        .delta(delta)
        .keywords(QueryKeywords::new(["latte", "apple"]).unwrap())
        .k(k)
        .variant(VariantConfig::toe())
        .metrics(MetricsDetail::Full)
        .build()
        .unwrap()
}

/// A raw connection with framed (`content-length`-driven) response reads,
/// for tests that need to control the exact bytes on the wire.
struct FramedStream {
    reader: BufReader<TcpStream>,
}

impl FramedStream {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        FramedStream {
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, wire: &str) {
        self.reader.get_mut().write_all(wire.as_bytes()).unwrap();
        self.reader.get_mut().flush().unwrap();
    }

    fn read_response(&mut self) -> ClientReply {
        ikrq_server::client::read_framed_reply(&mut self.reader)
            .expect("connection closed instead of answering")
    }

    /// True once the server closes; fails the test on a timeout.
    fn at_eof(&mut self) -> bool {
        let mut probe = [0u8; 1];
        match self.reader.read(&mut probe) {
            Ok(0) => true,
            Ok(_) => false,
            Err(error) => panic!("expected EOF, got error: {error}"),
        }
    }
}

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n")
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

/// The headline reuse property: N sequential searches on ONE connection,
/// cold then warm, return byte-identical bodies to what a fresh
/// connection would see, and the server counts the reuse.
#[test]
fn sequential_searches_on_one_connection_are_byte_identical() {
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();
    let body = serde_json::to_string(&fig1_request(3, 400.0)).unwrap();

    let mut client = KeepAliveClient::new(addr);
    let cold = client.request("POST", "/v1/search", &body).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-ikrq-cache"), Some("miss"));
    assert_eq!(cold.header("connection"), Some("keep-alive"));

    // Warm passes ride the same connection and replay the cached bytes.
    for _ in 0..4 {
        let warm = client.request("POST", "/v1/search", &body).unwrap();
        assert_eq!(warm.status, 200);
        assert_eq!(warm.header("x-ikrq-cache"), Some("hit"));
        assert_eq!(warm.body, cold.body, "reused connection must replay bytes");
    }
    assert_eq!(client.connects(), 1, "five requests over one connection");

    // A second, fresh connection sees the same bytes — reuse changes the
    // transport, never the payload.
    let fresh = ikrq_server::one_shot(addr, "POST", "/v1/search", &body).unwrap();
    assert_eq!(fresh.body, cold.body);

    let stats = handle.stats();
    assert_eq!(stats.keep_alive_reuses, 4);
    assert!(stats.connections_accepted >= 2);
}

#[test]
fn connection_close_and_http_1_0_semantics_are_honored() {
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();

    // HTTP/1.1 + `Connection: close`: answered, then closed.
    let mut conn = FramedStream::connect(addr);
    conn.send("GET /v1/healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n");
    let reply = conn.read_response();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("connection"), Some("close"));
    assert!(conn.at_eof(), "close must be honored");

    // Bare HTTP/1.0: closed by default.
    let mut conn = FramedStream::connect(addr);
    conn.send("GET /v1/healthz HTTP/1.0\r\nhost: t\r\n\r\n");
    let reply = conn.read_response();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("connection"), Some("close"));
    assert!(conn.at_eof(), "HTTP/1.0 defaults to close");

    // HTTP/1.0 + `Connection: keep-alive`: stays open for a second round.
    let mut conn = FramedStream::connect(addr);
    conn.send("GET /v1/healthz HTTP/1.0\r\nhost: t\r\nconnection: keep-alive\r\n\r\n");
    let first = conn.read_response();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("connection"), Some("keep-alive"));
    conn.send("GET /v1/venues HTTP/1.0\r\nhost: t\r\nconnection: keep-alive\r\n\r\n");
    assert_eq!(conn.read_response().status, 200);
}

#[test]
fn keep_alive_disabled_server_closes_after_every_response() {
    let handle = start(ServerConfig {
        keep_alive: false,
        ..ServerConfig::default()
    });
    let mut conn = FramedStream::connect(handle.local_addr());
    conn.send(&get("/v1/healthz"));
    let reply = conn.read_response();
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.header("connection"),
        Some("close"),
        "keep_alive=false restores close-per-request"
    );
    assert!(conn.at_eof());
}

#[test]
fn idle_connections_are_closed_after_the_idle_timeout() {
    let handle = start(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut conn = FramedStream::connect(handle.local_addr());
    conn.send(&get("/v1/healthz"));
    assert_eq!(conn.read_response().status, 200);

    // Stay quiet: the server must hang up on its own, roughly at the
    // configured idle timeout (not instantly, not at the 10 s read cap).
    let waited = Instant::now();
    assert!(conn.at_eof(), "idle connection must be closed server-side");
    let waited = waited.elapsed();
    assert!(
        waited >= Duration::from_millis(100),
        "closed too eagerly: {waited:?}"
    );
    assert!(
        waited < Duration::from_secs(5),
        "idle timeout did not fire: {waited:?}"
    );
}

#[test]
fn per_connection_request_cap_recycles_connections() {
    let handle = start(ServerConfig {
        max_requests_per_conn: 3,
        ..ServerConfig::default()
    });
    let mut client = KeepAliveClient::new(handle.local_addr());
    for _ in 0..7 {
        let reply = client.request("GET", "/v1/healthz", "").unwrap();
        assert_eq!(reply.status, 200);
    }
    // 7 requests at 3 per connection: connections 1 and 2 retire full, the
    // third carries the last request.
    assert_eq!(client.connects(), 3, "cap must recycle the connection");
}

/// Request-level admission control: a reused connection that hits the
/// in-flight cap gets a 429 for that request and keeps working afterwards
/// — shedding no longer costs the connection.
#[test]
fn reused_connections_shed_with_429_and_recover() {
    let handle = start(ServerConfig {
        workers: 4,
        max_in_flight: 1,
        // No cache: every search must occupy the single in-flight slot.
        cache: CacheConfig {
            shards: 1,
            capacity: 0,
        },
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    // Occupy the slot from one connection with a single long batch (one
    // request slot held for the whole batch) while a second keep-alive
    // connection probes. The batch gives a wide, contiguous occupancy
    // window, so a handful of rounds absorbs any scheduling noise.
    let mut observed_shed_and_recovery = false;
    let mut prober = KeepAliveClient::new(addr);
    for round in 0..10 {
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let blocker_done = Arc::clone(&done);
        let blocker = std::thread::spawn(move || {
            let mut client = KeepAliveClient::new(addr);
            let inner: Vec<String> = (0..60)
                .map(|i| {
                    serde_json::to_string(&fig1_request(3, 320.0 + round as f64 + i as f64))
                        .unwrap()
                })
                .collect();
            let body = format!("{{\"requests\": [{}]}}", inner.join(","));
            let reply = client.request("POST", "/v1/search/batch", &body).unwrap();
            blocker_done.store(true, std::sync::atomic::Ordering::SeqCst);
            assert!(
                reply.status == 200 || reply.status == 429,
                "unexpected status {}",
                reply.status
            );
        });
        let mut saw_429 = false;
        while !done.load(std::sync::atomic::Ordering::SeqCst) {
            let reply = prober.request("GET", "/v1/healthz", "").unwrap();
            match reply.status {
                429 => {
                    // The shed reply keeps the session open.
                    assert_eq!(reply.header("connection"), Some("keep-alive"));
                    assert_eq!(reply.header("retry-after"), Some("1"));
                    saw_429 = true;
                }
                200 => {}
                other => panic!("unexpected status {other}"),
            }
        }
        blocker.join().unwrap();
        if saw_429 {
            // Recovery on the very same connection, after the blocker let
            // the slot go.
            let reply = prober.request("GET", "/v1/healthz", "").unwrap();
            assert_eq!(reply.status, 200);
            observed_shed_and_recovery = true;
            break;
        }
    }
    assert!(
        observed_shed_and_recovery,
        "no probe ever collided with the occupied in-flight slot"
    );
    assert_eq!(
        prober.connects(),
        1,
        "the shed/recover cycle must ride one connection"
    );
    assert!(handle.stats().requests_shed >= 1);
}

/// Two requests in one TCP segment (pipelining): both answered, in order,
/// on the same connection — the carryover buffer must not lose the second
/// request's bytes.
#[test]
fn pipelined_requests_in_one_segment_are_answered_in_order() {
    let handle = start(ServerConfig::default());
    let mut conn = FramedStream::connect(handle.local_addr());

    let pipelined = format!("{}{}", get("/v1/healthz"), get("/v1/venues"));
    conn.send(&pipelined);
    let first = conn.read_response();
    assert_eq!(first.status, 200);
    assert!(first.body.contains("\"status\":\"ok\""));
    let second = conn.read_response();
    assert_eq!(second.status, 200);
    assert!(second.body.contains("\"venues\""), "body: {}", second.body);

    // The connection is still usable, and close still ends it.
    conn.send("GET /v1/healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n");
    assert_eq!(conn.read_response().status, 200);
    assert!(conn.at_eof());
}

/// Shutdown with a parked idle connection returns promptly (the idle
/// poll notices the flag) instead of waiting out the idle timeout.
#[test]
fn shutdown_closes_idle_connections_promptly() {
    let mut handle = start(ServerConfig {
        idle_timeout: Duration::from_secs(3600),
        ..ServerConfig::default()
    });
    let mut conn = FramedStream::connect(handle.local_addr());
    conn.send(&get("/v1/healthz"));
    assert_eq!(conn.read_response().status, 200);

    let started = Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown must not wait for the hour-long idle timeout"
    );
    assert!(conn.at_eof(), "idle connection must be closed on shutdown");
}

/// `/v1/stats` exposes the connection counters the operator needs to see
/// reuse working.
#[test]
fn stats_report_connection_and_reuse_counters() {
    let handle = start(ServerConfig::default());
    let mut client = KeepAliveClient::new(handle.local_addr());
    for _ in 0..3 {
        assert_eq!(
            client.request("GET", "/v1/healthz", "").unwrap().status,
            200
        );
    }
    let stats = client.request("GET", "/v1/stats", "").unwrap();
    let parsed: serde::Value = serde_json::from_str(&stats.body).unwrap();
    assert_eq!(parsed.get("keep_alive").unwrap().as_bool(), Some(true));
    assert!(parsed.get("max_connections").unwrap().as_u64().unwrap() > 0);
    let inner = parsed.get("stats").unwrap();
    assert_eq!(inner.get("connections_accepted").unwrap().as_u64(), Some(1));
    assert_eq!(inner.get("connections_active").unwrap().as_u64(), Some(1));
    // Three healthz rounds + this stats call: three reuses.
    assert_eq!(inner.get("keep_alive_reuses").unwrap().as_u64(), Some(3));
    assert_eq!(inner.get("requests_served").unwrap().as_u64(), Some(4));
}

/// Smuggling vectors are refused outright: a `Transfer-Encoding` header
/// or conflicting `Content-Length` values get `400 malformed_http` and
/// the connection is closed, so no attacker-controlled body bytes remain
/// buffered to be parsed as the "next request" of a reused connection.
#[test]
fn smuggling_vectors_get_400_and_a_closed_connection() {
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();

    // TE.CL shape: a chunked body hiding a second request. The pipelined
    // healthz must never be answered — the 400 closes the connection.
    let mut conn = FramedStream::connect(addr);
    conn.send(
        "POST /v1/search HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
         0\r\n\r\nGET /v1/healthz HTTP/1.1\r\n\r\n",
    );
    let reply = conn.read_response();
    assert_eq!(reply.status, 400);
    assert_eq!(reply.header("connection"), Some("close"));
    assert!(
        reply.body.contains("malformed_http"),
        "body: {}",
        reply.body
    );
    assert!(conn.at_eof(), "connection must close after the 400");

    // CL.CL shape: two conflicting lengths.
    let mut conn = FramedStream::connect(addr);
    conn.send("POST /v1/search HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 0\r\n\r\nbody");
    let reply = conn.read_response();
    assert_eq!(reply.status, 400);
    assert_eq!(reply.header("connection"), Some("close"));
    assert!(conn.at_eof(), "connection must close after the 400");
}
