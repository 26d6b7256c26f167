//! HTTP-throughput mode: measure the full wire path by driving a live
//! `ikrq-server` socket with concurrent clients, instead of calling
//! [`ikrq_core::IkrqService`] in-process. This is the harness behind the
//! `http_load` binary and puts admission control, the response cache and
//! HTTP parsing on the measured path.

use crate::workload::PreparedVenue;
use ikrq_core::{SearchRequest, VariantConfig};
use ikrq_server::{serve, ServerConfig};
use indoor_data::QueryInstance;
use serde::Serialize;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Settings of one HTTP load run.
#[derive(Debug, Clone)]
pub struct HttpLoadConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests issued per client.
    pub requests_per_client: usize,
    /// `true` reuses one keep-alive connection per client thread;
    /// `false` dials a fresh connection per request (`Connection: close`),
    /// so the close-vs-reuse throughput delta is measurable on the same
    /// harness.
    pub keep_alive: bool,
    /// Per-request override of the ToE terminal-expansion rule
    /// (`ExecOptions::strict_terminal_expansion`): `None` leaves the
    /// variant's default, `Some(_)` pins it, so the wire-path cost of
    /// strict expansion is measurable on the same harness.
    pub strict_terminal: Option<bool>,
    /// Server sizing for the run.
    pub server: ServerConfig,
}

impl Default for HttpLoadConfig {
    fn default() -> Self {
        HttpLoadConfig {
            clients: 8,
            requests_per_client: 25,
            keep_alive: false,
            strict_terminal: None,
            server: ServerConfig {
                // Load generators should observe shedding only if they
                // genuinely outrun the venue, not because of the default
                // admission bound.
                max_in_flight: 1024,
                ..ServerConfig::default()
            },
        }
    }
}

/// Aggregated outcome of one HTTP load run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HttpLoadReport {
    /// Requests attempted (clients × requests_per_client).
    pub requests: usize,
    /// `200` responses.
    pub ok: usize,
    /// `429` responses from admission control.
    pub shed: usize,
    /// Anything else (transport failures, non-200/429 statuses).
    pub failed: usize,
    /// Responses answered from the server-side cache (`x-ikrq-cache: hit`).
    pub cache_hits: usize,
    /// Whether the run reused keep-alive connections.
    pub keep_alive: bool,
    /// TCP connections dialed across all clients (== `requests` in close
    /// mode, ~= `clients` in keep-alive mode).
    pub connects: usize,
    /// Wall-clock duration of the whole run in seconds.
    pub wall_s: f64,
    /// Successful requests per wall-clock second.
    pub qps: f64,
    /// Mean per-request latency over successful requests, in milliseconds.
    pub avg_latency_ms: f64,
    /// Median per-request latency over successful requests, in
    /// milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile per-request latency over successful requests, in
    /// milliseconds (nearest-rank over the sorted samples).
    pub p99_latency_ms: f64,
    /// Slowest successful request, in milliseconds.
    pub max_latency_ms: f64,
    /// CPU cores of the host the run executed on, so every recorded
    /// number carries its hardware context.
    pub host_cores: usize,
}

/// The host's CPU core count (1 when it cannot be determined).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Nearest-rank percentile over an ascending-sorted sample set;
/// `q` in `[0, 1]`. Returns 0 for an empty set.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let index = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[index.min(sorted.len() - 1)]
}

/// One measured client call: status + cache flag + latency.
struct Sample {
    status: u16,
    cache_hit: bool,
    latency_ms: f64,
}

fn post_search(
    addr: SocketAddr,
    client: Option<&mut ikrq_server::KeepAliveClient>,
    body: &str,
) -> std::io::Result<Sample> {
    let started = Instant::now();
    let reply = match client {
        Some(client) => client.request("POST", "/v1/search", body)?,
        None => ikrq_server::client::one_shot(addr, "POST", "/v1/search", body)?,
    };
    Ok(Sample {
        status: reply.status,
        cache_hit: reply.header("x-ikrq-cache") == Some("hit"),
        latency_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

/// Runs the same workload twice — close-per-request, then keep-alive —
/// and returns both reports, so the connect-cost share of the wire path
/// is directly measurable.
pub fn run_close_vs_keep_alive(
    venue: &PreparedVenue,
    instances: &[QueryInstance],
    variant: VariantConfig,
    config: &HttpLoadConfig,
) -> std::io::Result<(HttpLoadReport, HttpLoadReport)> {
    let close = run_http_load(
        venue,
        instances,
        variant,
        &HttpLoadConfig {
            keep_alive: false,
            ..config.clone()
        },
    )?;
    let reuse = run_http_load(
        venue,
        instances,
        variant,
        &HttpLoadConfig {
            keep_alive: true,
            ..config.clone()
        },
    )?;
    Ok((close, reuse))
}

/// Runs the same workload twice — `strict_terminal_expansion` off, then
/// on — and returns both reports, quantifying the wire-path cost of the
/// corrected ToE terminal-expansion rule (see the ROADMAP's
/// connect-heuristic item).
pub fn run_strict_terminal_comparison(
    venue: &PreparedVenue,
    instances: &[QueryInstance],
    variant: VariantConfig,
    config: &HttpLoadConfig,
) -> std::io::Result<(HttpLoadReport, HttpLoadReport)> {
    let relaxed = run_http_load(
        venue,
        instances,
        variant,
        &HttpLoadConfig {
            strict_terminal: Some(false),
            ..config.clone()
        },
    )?;
    let strict = run_http_load(
        venue,
        instances,
        variant,
        &HttpLoadConfig {
            strict_terminal: Some(true),
            ..config.clone()
        },
    )?;
    Ok((relaxed, strict))
}

/// Starts a server over the prepared venue's engine, fires
/// `clients × requests_per_client` searches at the socket round-robin over
/// the instances, and aggregates the outcome.
pub fn run_http_load(
    venue: &PreparedVenue,
    instances: &[QueryInstance],
    variant: VariantConfig,
    config: &HttpLoadConfig,
) -> std::io::Result<HttpLoadReport> {
    assert!(!instances.is_empty(), "need at least one query instance");
    let service = Arc::new(ikrq_core::IkrqService::new());
    service
        .register_engine(&venue.venue_id, Arc::clone(&venue.engine))
        .expect("fresh service accepts the venue");
    let handle = serve(service, "127.0.0.1:0", config.server.clone())?;
    let addr = handle.local_addr();
    let bodies = search_bodies(venue, instances, variant, config.strict_terminal);
    let report = drive_load(
        addr,
        &bodies,
        config.clients,
        config.requests_per_client,
        config.keep_alive,
    );
    drop(handle); // shut the server down before reporting
    Ok(report)
}

/// Serializes each instance's search request once, so the load loop
/// only moves bytes.
fn search_bodies(
    venue: &PreparedVenue,
    instances: &[QueryInstance],
    variant: VariantConfig,
    strict_terminal: Option<bool>,
) -> Vec<String> {
    instances
        .iter()
        .map(|instance| {
            let mut request: SearchRequest = venue.request(instance, variant);
            request.options.strict_terminal_expansion = strict_terminal;
            serde_json::to_string(&request).expect("requests serialize")
        })
        .collect()
}

/// Fires `clients × requests_per_client` searches at an already-running
/// server (or router) round-robin over pre-serialized bodies — the
/// measurement entry point for split-process targets the harness did not
/// start itself (`http_load --router`).
pub fn drive_external_load(
    addr: SocketAddr,
    bodies: &[String],
    clients: usize,
    requests_per_client: usize,
    keep_alive: bool,
) -> HttpLoadReport {
    drive_load(addr, bodies, clients, requests_per_client, keep_alive)
}

/// Fires `clients × requests_per_client` searches at an already-running
/// server round-robin over the bodies and aggregates the outcome (the
/// measurement core shared by [`run_http_load`] and
/// [`run_connection_sweep`]).
fn drive_load(
    addr: SocketAddr,
    bodies: &[String],
    clients: usize,
    requests_per_client: usize,
    keep_alive: bool,
) -> HttpLoadReport {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let outcomes: Vec<(Vec<Option<Sample>>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let bodies = &bodies;
                let next = &next;
                scope.spawn(move || {
                    let mut client = keep_alive.then(|| ikrq_server::KeepAliveClient::new(addr));
                    let samples: Vec<Option<Sample>> = (0..requests_per_client)
                        .map(|_| {
                            let index = next.fetch_add(1, Ordering::Relaxed) % bodies.len();
                            post_search(addr, client.as_mut(), &bodies[index]).ok()
                        })
                        .collect();
                    let connects = match &client {
                        Some(client) => client.connects() as usize,
                        // Close mode dials once per *completed* exchange;
                        // counting failed attempts (e.g. connection
                        // refused) as dials would skew the close-vs-reuse
                        // connect comparison.
                        None => samples.iter().filter(|s| s.is_some()).count(),
                    };
                    (samples, connects)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    let mut report = HttpLoadReport {
        requests: clients * requests_per_client,
        ok: 0,
        shed: 0,
        failed: 0,
        cache_hits: 0,
        keep_alive,
        connects: outcomes.iter().map(|(_, connects)| connects).sum(),
        wall_s,
        qps: 0.0,
        avg_latency_ms: 0.0,
        p50_latency_ms: 0.0,
        p99_latency_ms: 0.0,
        max_latency_ms: 0.0,
        host_cores: host_cores(),
    };
    let mut latencies: Vec<f64> = Vec::new();
    for sample in outcomes.into_iter().flat_map(|(samples, _)| samples) {
        match sample {
            Some(sample) if sample.status == 200 => {
                report.ok += 1;
                report.cache_hits += usize::from(sample.cache_hit);
                latencies.push(sample.latency_ms);
                report.max_latency_ms = report.max_latency_ms.max(sample.latency_ms);
            }
            Some(sample) if sample.status == 429 => report.shed += 1,
            _ => report.failed += 1,
        }
    }
    if report.ok > 0 {
        report.avg_latency_ms = latencies.iter().sum::<f64>() / report.ok as f64;
        report.qps = report.ok as f64 / wall_s.max(1e-9);
        latencies.sort_by(|a, b| a.total_cmp(b));
        report.p50_latency_ms = percentile(&latencies, 0.50);
        report.p99_latency_ms = percentile(&latencies, 0.99);
    }
    report
}

// ---------------------------------------------------------------------
// Connection sweep: many parked keep-alive sessions, few active clients
// ---------------------------------------------------------------------

/// Settings of a parked-connection sweep: how many *idle* keep-alive
/// sessions to hold open at each step while a fixed set of active
/// clients measures throughput and latency. This is the harness that
/// demonstrates (or falsifies) the reactor claim — throughput and tail
/// latency of the active subset should not degrade as parked
/// connections grow.
#[derive(Debug, Clone)]
pub struct ConnectionSweepConfig {
    /// Parked-connection counts to measure at, ascending (established
    /// idle connections carry over from step to step; include 0 for the
    /// no-parked baseline).
    pub parked_steps: Vec<usize>,
    /// Concurrent active client threads measured at every step.
    pub active_clients: usize,
    /// Requests issued per active client per step.
    pub requests_per_client: usize,
    /// Server sizing when the sweep starts its own in-process server
    /// (`external: None`). `max_connections` and `idle_timeout` are
    /// raised as needed so the parked population itself is never shed
    /// or idle-closed mid-measurement.
    pub server: ServerConfig,
    /// Drive an already-running server (e.g. `http_load --serve` in
    /// another process) instead of starting one in-process. Halves the
    /// fd cost per parked connection — on hosts where `RLIMIT_NOFILE`
    /// cannot be raised this is the only way to reach large steps,
    /// since in-process both socket ends count against the same limit.
    pub external: Option<SocketAddr>,
}

impl Default for ConnectionSweepConfig {
    fn default() -> Self {
        ConnectionSweepConfig {
            parked_steps: vec![0, 64, 1024, 4096],
            active_clients: 8,
            requests_per_client: 50,
            server: HttpLoadConfig::default().server,
            external: None,
        }
    }
}

/// One measured step of a [`run_connection_sweep`] run.
#[derive(Debug, Clone, Serialize)]
pub struct SweepStep {
    /// Parked connections this step asked for.
    pub parked_target: usize,
    /// Idle connections actually held open during the measurement (may
    /// fall short of the target on connect/establish failures, which
    /// are logged).
    pub parked_established: usize,
    /// The active-subset measurement at this parked population.
    pub report: HttpLoadReport,
}

/// Effective fd budget of this process: the `RLIMIT_NOFILE` soft limit
/// after raising it toward the hard limit (the sweep client holds one
/// fd per parked connection, so it needs the raise just like the
/// server).
#[cfg(unix)]
fn fd_budget() -> usize {
    match netpoll::raise_nofile_limit() {
        Ok(limit) => limit.soft as usize,
        Err(_) => 1024,
    }
}

#[cfg(not(unix))]
fn fd_budget() -> usize {
    1024
}

/// Ramps idle keep-alive connections through `parked_steps`, measuring
/// the active subset at each step. Steps that do not fit the fd budget
/// are *dropped with a logged line* rather than silently truncated —
/// a sweep that quietly measured less than asked would read as "no
/// degradation at 10k" when 10k was never held.
///
/// Each idle connection is established by one `GET /v1/healthz`
/// round-trip, after which the session goes quiet and the server parks
/// it; the connection is then held open (but silent) for all remaining
/// steps.
pub fn run_connection_sweep(
    venue: &PreparedVenue,
    instances: &[QueryInstance],
    variant: VariantConfig,
    config: &ConnectionSweepConfig,
) -> std::io::Result<Vec<SweepStep>> {
    assert!(!instances.is_empty(), "need at least one query instance");
    let max_step = config.parked_steps.iter().copied().max().unwrap_or(0);
    let handle = match config.external {
        Some(_) => None,
        None => {
            let service = Arc::new(ikrq_core::IkrqService::new());
            service
                .register_engine(&venue.venue_id, Arc::clone(&venue.engine))
                .expect("fresh service accepts the venue");
            let mut server = config.server.clone();
            // The parked population must survive the whole sweep: no
            // idle-closing mid-measurement, no shedding of the ramp.
            server.idle_timeout = server.idle_timeout.max(Duration::from_secs(600));
            server.max_connections = server
                .max_connections
                .max(max_step + config.active_clients + 64);
            Some(serve(service, "127.0.0.1:0", server)?)
        }
    };
    let addr = match config.external {
        Some(addr) => addr,
        None => handle.as_ref().expect("in-process server").local_addr(),
    };
    let bodies = search_bodies(venue, instances, variant, None);

    // Both socket ends count against this process's RLIMIT_NOFILE when
    // the server is in-process; only the client end does when external.
    let fds_per_idle = if config.external.is_some() { 1 } else { 2 };
    let reserve = 256 + config.active_clients * fds_per_idle;
    let max_parked = fd_budget().saturating_sub(reserve) / fds_per_idle;

    let mut idle: Vec<ikrq_server::KeepAliveClient> = Vec::new();
    let mut steps = Vec::new();
    for &target in &config.parked_steps {
        if target > max_parked {
            eprintln!(
                "sweep: DROPPING the {target}-connection step — the fd budget caps this \
                 process at {max_parked} parked connections ({fds_per_idle} fds per idle \
                 connection here; use --external to halve the per-connection cost)"
            );
            continue;
        }
        while idle.len() < target {
            let mut client = ikrq_server::KeepAliveClient::new(addr);
            match client.request("GET", "/v1/healthz", "") {
                Ok(reply) if reply.status == 200 => idle.push(client),
                Ok(reply) => {
                    eprintln!(
                        "sweep: establish #{} got status {}; ramping stops here",
                        idle.len() + 1,
                        reply.status
                    );
                    break;
                }
                Err(error) => {
                    eprintln!(
                        "sweep: establish #{} failed ({error}); ramping stops here",
                        idle.len() + 1
                    );
                    break;
                }
            }
        }
        // Give the server a beat to park the fresh sessions (the worker
        // linger is up to 50 ms on an unloaded server).
        std::thread::sleep(Duration::from_millis(120));
        let report = drive_load(
            addr,
            &bodies,
            config.active_clients,
            config.requests_per_client,
            true,
        );
        steps.push(SweepStep {
            parked_target: target,
            parked_established: idle.len(),
            report,
        });
    }
    drop(idle);
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::VenueKind;
    use indoor_data::WorkloadConfig;

    #[test]
    fn http_load_drives_a_live_socket_and_observes_the_cache() {
        let ctx = crate::test_support::shared_context();
        let venue = ctx.venue(VenueKind::Synthetic { floors: 1 });
        let workload = WorkloadConfig {
            s2t: 600.0,
            qw_len: 2,
            ..WorkloadConfig::default()
        };
        let instances = venue.instances(&workload, 2, 17);
        assert!(!instances.is_empty());
        let config = HttpLoadConfig {
            clients: 4,
            requests_per_client: 4,
            ..HttpLoadConfig::default()
        };
        let report =
            run_http_load(&venue, &instances, VariantConfig::toe(), &config).expect("load run");
        assert_eq!(report.requests, 16);
        assert_eq!(report.ok, 16, "no shedding at max_in_flight=1024");
        assert_eq!(report.failed, 0);
        assert_eq!(report.shed, 0);
        assert!(!report.keep_alive);
        assert_eq!(report.connects, 16, "close mode dials per request");
        // 16 requests round-robin over 2 distinct bodies. A lookup can only
        // miss while no response for that body has completed yet, and at
        // most 4 requests (one per client) are ever in flight at once — so
        // per body at most 4 concurrent lookups can miss before the first
        // insert lands: >= 16 - 2*4 = 8 hits, whatever the scheduling.
        assert!(
            report.cache_hits >= 8,
            "expected >= 8 cache hits, got {}",
            report.cache_hits
        );
        assert!(report.qps > 0.0);
        assert!(report.avg_latency_ms > 0.0);
        assert!(report.max_latency_ms >= report.avg_latency_ms);
    }

    #[test]
    fn keep_alive_mode_reuses_connections_on_the_live_socket() {
        let ctx = crate::test_support::shared_context();
        let venue = ctx.venue(VenueKind::Synthetic { floors: 1 });
        let workload = WorkloadConfig {
            s2t: 600.0,
            qw_len: 2,
            ..WorkloadConfig::default()
        };
        let instances = venue.instances(&workload, 2, 17);
        let config = HttpLoadConfig {
            clients: 4,
            requests_per_client: 8,
            keep_alive: true,
            ..HttpLoadConfig::default()
        };
        let report =
            run_http_load(&venue, &instances, VariantConfig::toe(), &config).expect("load run");
        assert_eq!(report.ok, 32, "every request must succeed");
        assert_eq!(report.failed, 0);
        assert!(report.keep_alive);
        // One dial per client thread: 32 requests over 4 connections (a
        // transparent reconnect would only show up under server-side
        // recycling, which this config does not enable).
        assert_eq!(report.connects, 4, "keep-alive mode must reuse");
    }
}
