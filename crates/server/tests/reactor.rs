//! Integration tests of the readiness reactor: session registration,
//! wake-on-readable, deregistration, idle-timeout expiry inside the
//! blocking wait, shutdown draining, fairness between connections, and
//! the counters it surfaces on `/v1/stats` — all against a live server
//! on an ephemeral port.

use ikrq_core::IkrqService;
use ikrq_server::client::{read_framed_reply, ClientReply};
use ikrq_server::{serve, ServerConfig, ServerHandle};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(config: ServerConfig) -> ServerHandle {
    let example = indoor_data::paper_example_venue();
    let service = Arc::new(IkrqService::new());
    service
        .register_venue(
            "fig1",
            example.venue.space.clone(),
            example.venue.directory.clone(),
        )
        .unwrap();
    serve(service, "127.0.0.1:0", config).expect("bind ephemeral port")
}

const HEALTHZ: &[u8] = b"GET /v1/healthz HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n";

/// A raw keep-alive connection with framed response reads.
struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Conn {
            reader: BufReader::new(stream),
        }
    }

    fn healthz(&mut self) -> ClientReply {
        self.reader.get_mut().write_all(HEALTHZ).unwrap();
        read_framed_reply(&mut self.reader).expect("healthz reply")
    }

    /// True once the server closes; panics on any other outcome.
    fn at_eof(&mut self) -> bool {
        let mut probe = [0u8; 1];
        match self.reader.read(&mut probe) {
            Ok(0) => true,
            Ok(_) => false,
            Err(error) => panic!("expected EOF, got error: {error}"),
        }
    }
}

/// The parsed `/v1/stats` body, read over a `Connection: close` one-shot
/// so the read itself never joins the parked population.
fn stats(addr: SocketAddr) -> serde::Value {
    let reply = ikrq_server::one_shot(addr, "GET", "/v1/stats", "").expect("stats reply");
    assert_eq!(reply.status, 200);
    serde_json::from_str(&reply.body).expect("stats body parses")
}

fn counter(stats: &serde::Value, name: &str) -> u64 {
    stats
        .get("stats")
        .and_then(|inner| inner.get(name))
        .and_then(|value| value.as_u64())
        .unwrap_or_else(|| panic!("stats body missing counter `{name}`"))
}

/// Polls `/v1/stats` until `predicate` holds or five seconds pass —
/// parking happens after the worker linger (up to 50 ms), so counters
/// move asynchronously to the wire traffic that causes them.
fn wait_for_stats(addr: SocketAddr, what: &str, predicate: impl Fn(&serde::Value) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let body = stats(addr);
        if predicate(&body) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last stats: {body:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Register → wake → deregister, observable through the counters: a
/// quiet session is parked into the reactor, its next request wakes it
/// (counted), and the woken session answers on the same connection with
/// exactly the reply it gave before the park — a park/wake cycle is
/// invisible on the wire.
#[test]
fn park_wake_and_deregister_one_session() {
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();

    let mut conn = Conn::open(addr);
    let before_park = conn.healthz();
    assert_eq!(before_park.status, 200);
    wait_for_stats(addr, "the session to park", |body| {
        counter(body, "connections_parked") == 1
    });
    let before = counter(&stats(addr), "reactor_wakeups");

    // The next request must wake the parked session and be answered on
    // the same connection (a raw stream cannot redial), byte for byte as
    // before the park, and the wake must be counted.
    let after_wake = conn.healthz();
    assert_eq!(after_wake.status, before_park.status);
    assert_eq!(after_wake.headers, before_park.headers);
    assert_eq!(after_wake.body, before_park.body);
    wait_for_stats(addr, "the wake to be counted", |body| {
        counter(body, "reactor_wakeups") > before
    });
}

/// The idle timeout fires *inside* the reactor's wait: a parked session
/// is closed roughly at the configured timeout (not instantly, not at
/// some sweep multiple), and leaves the parked count at zero.
#[test]
fn idle_timeout_expires_inside_the_wait() {
    let handle = start(ServerConfig {
        idle_timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let mut conn = Conn::open(addr);
    assert_eq!(conn.healthz().status, 200);

    let waited = Instant::now();
    assert!(conn.at_eof(), "expired session must be closed server-side");
    let waited = waited.elapsed();
    assert!(
        waited >= Duration::from_millis(120),
        "closed too eagerly: {waited:?}"
    );
    assert!(
        waited < Duration::from_secs(5),
        "idle timeout did not fire: {waited:?}"
    );
    wait_for_stats(addr, "the parked count to drain", |body| {
        counter(body, "connections_parked") == 0
    });
}

/// Many sessions parked at once: readiness wakes exactly the right one —
/// its request is answered while its neighbors stay parked and open.
#[test]
fn readiness_wakes_only_the_ready_session() {
    // The default connection cap scales with the core count and can sit
    // below the 33 connections this test holds (32 parked + the stats
    // one-shots); size it explicitly.
    let handle = start(ServerConfig {
        max_connections: 64,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    let mut parked: Vec<Conn> = (0..32)
        .map(|_| {
            let mut conn = Conn::open(addr);
            assert_eq!(conn.healthz().status, 200);
            conn
        })
        .collect();
    wait_for_stats(addr, "all 32 sessions to park", |body| {
        counter(body, "connections_parked") == 32
    });

    // Wake number 17; everyone else stays parked.
    assert_eq!(parked[17].healthz().status, 200);
    wait_for_stats(addr, "the woken session to re-park", |body| {
        counter(body, "connections_parked") == 32
    });

    // The neighbors are still alive and answer in turn.
    assert_eq!(parked[0].healthz().status, 200);
    assert_eq!(parked[31].healthz().status, 200);
}

/// Shutdown with a parked population: every parked session is closed
/// promptly (the reactor is notified out of its open-ended wait), the
/// count drains to zero, and the server joins without waiting for any
/// idle timeout.
#[test]
fn shutdown_drains_the_parked_population() {
    let mut handle = start(ServerConfig {
        idle_timeout: Duration::from_secs(3600),
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let mut parked: Vec<Conn> = (0..8)
        .map(|_| {
            let mut conn = Conn::open(addr);
            assert_eq!(conn.healthz().status, 200);
            conn
        })
        .collect();
    wait_for_stats(addr, "all 8 sessions to park", |body| {
        counter(body, "connections_parked") == 8
    });

    let started = Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown must not wait out the hour-long idle timeout"
    );
    for (index, conn) in parked.iter_mut().enumerate() {
        assert!(conn.at_eof(), "parked connection {index} must be closed");
    }
    assert_eq!(handle.stats().connections_parked, 0);
    assert_eq!(handle.stats().connections_active, 0);
}

/// `/v1/stats` reports the fd budget.
#[test]
fn stats_surface_the_fd_limit() {
    let handle = start(ServerConfig::default());
    let body = stats(handle.local_addr());
    assert!(
        body.get("nofile_limit").and_then(|v| v.as_u64()).unwrap() > 0,
        "unix hosts must report a real fd limit"
    );
}

/// How client A keeps the single worker busy in
/// [`queued_connections_are_not_starved`].
#[derive(Debug, Clone, Copy)]
enum Load {
    /// One request at a time, the next sent as soon as the reply lands.
    BackToBack,
    /// All requests pipelined in one write.
    Pipelined,
}

/// Fairness: with one worker, a connection that keeps the worker busy
/// must not starve one that queues behind it. B connects once A is being
/// served and must be answered while A is still being served.
#[test]
fn queued_connections_are_not_starved() {
    // Replies a back-to-back A reads after B is queued before it stops.
    // A fair server parks A after the request in progress, which blocks
    // A until B is answered; a server that yields only when A goes quiet
    // keeps serving A through the whole window.
    const AFTER_B_QUEUED: usize = 200;
    const PIPELINED: usize = 50_000;

    for load in [Load::BackToBack, Load::Pipelined] {
        let handle = start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let addr = handle.local_addr();
        let b_queued = Arc::new(AtomicBool::new(false));
        let a_done = Arc::new(AtomicBool::new(false));
        let (a_served, a_is_served) = std::sync::mpsc::channel();
        let a = {
            let (b_queued, a_done) = (Arc::clone(&b_queued), Arc::clone(&a_done));
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr);
                let writer = match load {
                    Load::BackToBack => None,
                    Load::Pipelined => {
                        let mut stream = conn.reader.get_ref().try_clone().unwrap();
                        Some(std::thread::spawn(move || {
                            stream.write_all(&HEALTHZ.repeat(PIPELINED)).unwrap();
                        }))
                    }
                };
                let (mut answered, mut after_b_queued) = (0, 0);
                loop {
                    let reply = match load {
                        Load::BackToBack => conn.healthz(),
                        Load::Pipelined => read_framed_reply(&mut conn.reader).expect("A reply"),
                    };
                    assert_eq!(reply.status, 200);
                    answered += 1;
                    if answered == 1 {
                        a_served.send(()).unwrap();
                    }
                    after_b_queued += usize::from(b_queued.load(Ordering::SeqCst));
                    let done = match load {
                        Load::BackToBack => after_b_queued == AFTER_B_QUEUED,
                        Load::Pipelined => answered == PIPELINED,
                    };
                    if done {
                        break;
                    }
                }
                if let Some(writer) = writer {
                    writer.join().unwrap();
                }
                a_done.store(true, Ordering::SeqCst);
            })
        };

        a_is_served.recv().expect("A is served");
        let asked = Instant::now();
        let mut b = Conn::open(addr);
        b.reader.get_mut().write_all(HEALTHZ).unwrap();
        while handle.stats().connections_accepted < 2 {
            std::thread::sleep(Duration::from_micros(100));
        }
        b_queued.store(true, Ordering::SeqCst);
        let reply = read_framed_reply(&mut b.reader).expect("B reply");
        assert_eq!(reply.status, 200);
        let waited = asked.elapsed();
        let a_still_served = !a_done.load(Ordering::SeqCst);
        a.join().expect("client A");
        assert!(
            a_still_served,
            "{load:?}: B waited {waited:?}, until A was done"
        );
    }
}
