//! Load generation against a serving address: a closed loop that sends a
//! pool of requests in rounds over one or two keep-alive connections, and an
//! open loop on a fixed schedule over two.

use ikrq_server::KeepAliveClient;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-socket timeout of the load clients; far above any answer the
/// workloads expect, so only a hung server trips it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// One completed (or failed) exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Index of the request or operation that was sent.
    pub op: usize,
    /// Place in the send sequence (closed loop: round × pool + position;
    /// open loop: the operation index).
    pub seq: usize,
    /// Seconds from the start of the phase until the send (closed loop) or
    /// the due time (open loop).
    pub sent_s: f64,
    /// Milliseconds from send (closed loop) or due time (open loop) until
    /// the reply was read.
    pub latency_ms: f64,
    /// Milliseconds the send started after its due time (open loop only).
    pub lag_ms: f64,
    /// HTTP status, 0 on a transport error.
    pub status: u16,
    /// The reply body, or the transport error.
    pub body: String,
}

impl Exchange {
    /// Whether the server answered `200`.
    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

/// The exchanges of one measured phase and its wall time.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Exchanges in completion order per connection.
    pub exchanges: Vec<Exchange>,
    /// Wall time of the phase in seconds.
    pub elapsed_s: f64,
}

impl Phase {
    /// Latency of every exchange, in milliseconds.
    pub fn latencies(&self) -> Vec<f64> {
        self.exchanges.iter().map(|e| e.latency_ms).collect()
    }
}

/// A keep-alive client with the load timeout.
pub fn client(addr: SocketAddr) -> KeepAliveClient {
    KeepAliveClient::new(addr).with_timeout(CLIENT_TIMEOUT)
}

/// Sends one request, folding transport errors into status 0.
pub fn send(client: &mut KeepAliveClient, path: &str, body: &str) -> (u16, String) {
    match client.request("POST", path, body) {
        Ok(reply) => (reply.status, reply.body),
        Err(error) => (0, error.to_string()),
    }
}

/// `GET path` over a fresh connection, parsed as JSON.
pub fn get_json(addr: SocketAddr, path: &str) -> std::io::Result<serde::Value> {
    let reply = ikrq_server::one_shot(addr, "GET", path, "")?;
    if reply.status != 200 {
        return Err(std::io::Error::other(format!(
            "GET {path}: status {}",
            reply.status
        )));
    }
    serde_json::parse_value(&reply.body).map_err(std::io::Error::other)
}

/// Closed loop in rounds: round `r` sends every body of the pool once, in
/// the order `orders[r]`. `clients` keep-alive clients, each on its own
/// thread, take the next unsent request after each reply, until `seconds`
/// have passed — but never before the first round is complete — or the
/// orders run out. The exchanges come back in send order, a contiguous
/// prefix of the sequence.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[String],
    orders: &[Vec<usize>],
    seconds: f64,
    clients: usize,
) -> Phase {
    let pool = bodies.len();
    let total = pool * orders.len();
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut exchanges: Vec<Exchange> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = client(addr);
                    let mut out = Vec::new();
                    loop {
                        let seq = next.fetch_add(1, Ordering::Relaxed);
                        if seq >= total
                            || (seq >= pool && started.elapsed().as_secs_f64() >= seconds)
                        {
                            break;
                        }
                        let op = orders[seq / pool][seq % pool];
                        let sent = Instant::now();
                        let (status, body) = send(&mut client, "/v1/search", &bodies[op]);
                        out.push(Exchange {
                            op,
                            seq,
                            sent_s: sent.duration_since(started).as_secs_f64(),
                            latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                            lag_ms: 0.0,
                            status,
                            body,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("load thread"))
            .collect()
    });
    exchanges.sort_by_key(|exchange| exchange.seq);
    Phase {
        exchanges,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

/// How long before a due time the open loop stops sleeping and yields
/// instead: a sleep overshoots by tens of microseconds, more on a busy
/// host, which timing from the due time would charge to the server.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);

/// Returns at `due`, or at once if it has passed.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_BEFORE_DUE {
        std::thread::sleep(due - now - SPIN_BEFORE_DUE);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Open loop: operation `i` is due at `i / rate` seconds after the start
/// and goes out on connection `i % 2`. Latency is timed from the due time,
/// so a stall also charges every request queued behind it.
pub fn open_loop(addr: SocketAddr, ops: &[(&str, String)], rate: f64) -> Phase {
    const CONNECTIONS: usize = 2;
    // A short lead so both connections start on the same schedule.
    let origin = Instant::now() + Duration::from_millis(20);
    let per_connection: Vec<Vec<Exchange>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|connection| {
                scope.spawn(move || {
                    let mut client = client(addr);
                    let mut out = Vec::new();
                    for (op, (path, body)) in
                        ops.iter().enumerate().skip(connection).step_by(CONNECTIONS)
                    {
                        let due = origin + Duration::from_secs_f64(op as f64 / rate);
                        wait_until(due);
                        let lag_ms =
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                        let (status, body) = send(&mut client, path, body);
                        out.push(Exchange {
                            op,
                            seq: op,
                            sent_s: due.saturating_duration_since(origin).as_secs_f64(),
                            latency_ms: Instant::now().saturating_duration_since(due).as_secs_f64()
                                * 1e3,
                            lag_ms,
                            status,
                            body,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("load thread"))
            .collect()
    });
    let elapsed_s = origin.elapsed().as_secs_f64();
    let mut exchanges: Vec<Exchange> = per_connection.into_iter().flatten().collect();
    exchanges.sort_by_key(|e| e.seq);
    Phase {
        exchanges,
        elapsed_s,
    }
}
