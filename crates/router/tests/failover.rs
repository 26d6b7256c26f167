//! Chaos tests: the router against misbehaving backends, driven through
//! [`FaultProxy`] — real sockets dropping, stalling and dying, not mocks.
//!
//! The invariants under test are the resend-safety rules:
//!
//! * a backend that dies **before any reply byte** (process gone,
//!   connection refused or reset, immediate EOF) is safe to fail over —
//!   requests land on the replica and the client never notices;
//! * a backend that is **slow but alive** (reply delayed or blackholed
//!   past the router's backend timeout) is NOT failed over — the request
//!   may still be executing, and resending would run it twice; the client
//!   gets `503 backend_unavailable` and the replica's request counter
//!   does not move;
//! * a shard with no reachable replica degrades *per venue*: in a batch,
//!   the dead shard's slots answer `backend_unavailable` while the
//!   surviving shard's slots stay byte-identical to the healthy run —
//!   and nothing hangs.

mod common;

use common::*;
use ikrq_core::SearchRequest;
use ikrq_router::{route, FaultMode, FaultProxy, RouterConfig, ShardSpec};
use ikrq_server::client::one_shot;
use ikrq_server::ClientReply;
use std::net::SocketAddr;
use std::time::Duration;

fn post(addr: SocketAddr, path: &str, body: &str) -> ClientReply {
    one_shot(addr, "POST", path, body).expect("POST round trip")
}

fn get(addr: SocketAddr, path: &str) -> ClientReply {
    one_shot(addr, "GET", path, "").expect("GET round trip")
}

fn routed_stats(addr: SocketAddr) -> serde::Value {
    serde_json::from_str(&get(addr, "/v1/stats").body).expect("stats parse")
}

fn router_counter(stats: &serde::Value, name: &str) -> u64 {
    stats
        .get("router")
        .and_then(|router| router.get(name))
        .and_then(|value| value.as_u64())
        .expect("router counter")
}

/// A backend dying before any reply byte is failed over transparently:
/// the replica answers, the client sees 200, and the failover/rebalance
/// counters record the event.
#[test]
fn connection_death_fails_over_to_the_replica() {
    let venue = small_venue(3);
    let ids = venue_ids_on_shard(&["solo"], "solo", 1);
    let hosted = [(ids[0].as_str(), &venue)];
    let primary = start_backend(service_with(&hosted), 0);
    let replica = start_backend(service_with(&hosted), 0);
    let proxy = FaultProxy::spawn(primary.local_addr()).expect("proxy spawns");
    let router = route(
        vec![ShardSpec {
            name: "solo".into(),
            replicas: vec![proxy.addr(), replica.local_addr()],
        }],
        "127.0.0.1:0",
        router_config(Duration::from_secs(5)),
    )
    .expect("router binds");

    let request = &workload(&ids[0], &venue, 1, 5)[0];
    let body = serde_json::to_string(request).unwrap();

    // Healthy path goes through the proxy to the primary. Baselines wait
    // for the router's startup probes: the warm-up plus a probe on the
    // primary, a probe on the replica.
    assert_eq!(post(router.local_addr(), "/v1/search", &body).status, 200);
    assert!(proxy.connections_seen() >= 1);
    await_requests_served(&primary, 2);
    await_requests_served(&replica, 1);
    let primary_before = primary.stats().requests_served;
    let replica_before = replica.stats().requests_served;

    // The primary "dies": new connections are swallowed (EOF before any
    // reply byte — resend-safe), in-flight pooled connections are killed.
    proxy.stop_accepting();
    proxy.kill_connections();

    let reply = post(router.local_addr(), "/v1/search", &body);
    assert_eq!(reply.status, 200, "the replica must answer: {}", reply.body);
    assert_eq!(replica.stats().requests_served, replica_before + 1);
    assert_eq!(
        primary.stats().requests_served,
        primary_before,
        "the dead primary must not see the request"
    );

    let stats = routed_stats(router.local_addr());
    assert!(router_counter(&stats, "failovers") >= 1);
    assert!(
        router_counter(&stats, "rebalances") >= 1,
        "the failed primary flips unhealthy (fail_threshold = 1)"
    );
    assert_eq!(router_counter(&stats, "backend_unavailable"), 0);

    // Recovery: the proxy accepts again; after a success the primary is
    // healthy and serves again (it is preferred over the replica once
    // marked healthy by the forward path's own bookkeeping).
    proxy.resume_accepting();
    let recovered = post(router.local_addr(), "/v1/search", &body);
    assert_eq!(recovered.status, 200);
}

/// A slow-but-alive backend — replies blackholed past the router's
/// backend timeout — is NOT failed over: the client gets
/// `503 backend_unavailable`, the replica's request counter does not
/// move, and the stalled backend executed the request exactly once.
#[test]
fn timeouts_never_fail_over_or_double_execute() {
    let venue = small_venue(9);
    let ids = venue_ids_on_shard(&["solo"], "solo", 1);
    let hosted = [(ids[0].as_str(), &venue)];
    let stalled = start_backend(service_with(&hosted), 0);
    let replica = start_backend(service_with(&hosted), 0);
    let proxy = FaultProxy::spawn(stalled.local_addr()).expect("proxy spawns");
    let router = route(
        vec![ShardSpec {
            name: "solo".into(),
            replicas: vec![proxy.addr(), replica.local_addr()],
        }],
        "127.0.0.1:0",
        router_config(Duration::from_millis(700)),
    )
    .expect("router binds");

    let request = &workload(&ids[0], &venue, 1, 13)[0];
    let body = serde_json::to_string(request).unwrap();
    assert_eq!(post(router.local_addr(), "/v1/search", &body).status, 200);
    // The router's startup probes land before the blackhole and the
    // baselines: the warm-up plus a probe on the stalled backend, a probe
    // on the replica.
    await_requests_served(&stalled, 2);
    await_requests_served(&replica, 1);

    // From now on the backend receives requests but its replies vanish.
    proxy.set_mode(FaultMode::Blackhole);
    let stalled_before = stalled.stats().requests_served;
    let replica_before = replica.stats().requests_served;

    let reply = post(router.local_addr(), "/v1/search", &body);
    assert_eq!(reply.status, 503);
    assert!(reply.body.contains("\"code\":\"backend_unavailable\""));
    assert!(
        reply.body.contains("may still be executing"),
        "the reply explains why no failover happened: {}",
        reply.body
    );

    // The stalled backend took (and executed) the request exactly once;
    // the replica was never asked — no double execution.
    assert_eq!(stalled.stats().requests_served, stalled_before + 1);
    assert_eq!(
        replica.stats().requests_served,
        replica_before,
        "a timed-out request must not be resent to the replica"
    );
    let stats = routed_stats(router.local_addr());
    assert_eq!(router_counter(&stats, "failovers"), 0);
    assert!(router_counter(&stats, "backend_unavailable") >= 1);
}

/// Killing one shard mid-workload degrades per venue: the dead shard's
/// batch slots answer `backend_unavailable`, the surviving shard's slots
/// are byte-identical to the same sub-batch served directly (cache
/// replay), and nothing hangs or double-executes.
#[test]
fn dead_shard_degrades_batches_per_venue() {
    let venue = small_venue(17);
    let ids_a = venue_ids_on_shard(&["a", "b"], "a", 2);
    let ids_b = venue_ids_on_shard(&["a", "b"], "b", 2);
    let all: Vec<String> = ids_a.iter().chain(ids_b.iter()).cloned().collect();
    let hosted: Vec<(&str, &indoor_data::Venue)> =
        all.iter().map(|id| (id.as_str(), &venue)).collect();
    let backend_a = start_backend(service_with(&hosted), 1024);
    let backend_b = start_backend(service_with(&hosted), 1024);
    let proxy_b = FaultProxy::spawn(backend_b.local_addr()).expect("proxy spawns");
    let router = route(
        vec![
            shard("a", backend_a.local_addr()),
            shard("b", proxy_b.addr()),
        ],
        "127.0.0.1:0",
        router_config(Duration::from_secs(5)),
    )
    .expect("router binds");

    let mut requests: Vec<SearchRequest> = Vec::new();
    for (index, id) in all.iter().cycle().take(6).enumerate() {
        requests.push(workload(id, &venue, index + 1, 29)[index].clone());
    }
    let body = batch_body(&requests.iter().collect::<Vec<_>>());

    // Healthy run first — this also primes backend_a's cache with shard
    // a's entries, pinning the byte-identity baseline.
    let healthy = post(router.local_addr(), "/v1/search/batch", &body);
    assert_eq!(healthy.status, 200);
    let (healthy_entries, _) = split_entries(&healthy.body);

    // Shard b dies: connections swallowed and killed.
    proxy_b.stop_accepting();
    proxy_b.kill_connections();

    let degraded = post(router.local_addr(), "/v1/search/batch", &body);
    assert_eq!(degraded.status, 200, "a dead shard must not fail the batch");
    let (entries, hits) = split_entries(&degraded.body);
    assert_eq!(entries.len(), requests.len());

    let mut unavailable = 0;
    let mut survived = 0;
    for ((request, healthy_entry), entry) in requests.iter().zip(&healthy_entries).zip(&entries) {
        if router.shard_for(&request.venue) == "a" {
            // Survivors replay backend_a's cache: byte-identical to the
            // healthy run, flagged as cache hits.
            assert_eq!(entry, healthy_entry, "surviving venue diverged");
            survived += 1;
        } else {
            assert!(
                entry.starts_with("{\"ok\":null,\"err\":"),
                "dead-shard slot must be an error entry: {entry}"
            );
            assert!(entry.contains("\"code\":\"backend_unavailable\""));
            unavailable += 1;
        }
    }
    let expected_survivors = requests
        .iter()
        .filter(|request| router.shard_for(&request.venue) == "a")
        .count();
    assert!(expected_survivors > 0 && expected_survivors < requests.len());
    assert_eq!(survived, expected_survivors);
    assert_eq!(unavailable, requests.len() - expected_survivors);
    assert_eq!(hits as usize, survived, "survivors were served from cache");
}

/// The whole cluster down: a single search answers `503` with the closed
/// `backend_unavailable` error code — promptly, not by hanging until some
/// distant timeout.
#[test]
fn all_replicas_down_answers_503_promptly() {
    let venue = small_venue(21);
    let ids = venue_ids_on_shard(&["solo"], "solo", 1);
    let hosted = [(ids[0].as_str(), &venue)];
    let backend = start_backend(service_with(&hosted), 0);
    let dead_addr = {
        // An address that refuses connections: bind, then drop.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let router = route(
        vec![ShardSpec {
            name: "solo".into(),
            replicas: vec![dead_addr],
        }],
        "127.0.0.1:0",
        router_config(Duration::from_secs(5)),
    )
    .expect("router binds");
    drop(backend);

    let request = &workload(&ids[0], &venue, 1, 37)[0];
    let body = serde_json::to_string(request).unwrap();
    let started = std::time::Instant::now();
    let reply = post(router.local_addr(), "/v1/search", &body);
    assert_eq!(reply.status, 503);
    assert!(reply.body.contains("\"code\":\"backend_unavailable\""));
    assert!(reply.body.contains("no live backend for shard `solo`"));
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "a refused dial must fail fast, not hang"
    );
}

/// Router configurations that cannot work are rejected at construction.
#[test]
fn invalid_topologies_are_rejected() {
    let config = router_config(Duration::from_secs(1));
    assert!(route(Vec::new(), "127.0.0.1:0", config.clone()).is_err());
    let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
    assert!(route(
        vec![shard("dup", addr), shard("dup", addr)],
        "127.0.0.1:0",
        config.clone()
    )
    .is_err());
    assert!(route(
        vec![ShardSpec {
            name: "empty".into(),
            replicas: Vec::new()
        }],
        "127.0.0.1:0",
        config
    )
    .is_err());
    let zero_vnodes = RouterConfig {
        vnodes: 0,
        ..router_config(Duration::from_secs(1))
    };
    assert!(route(vec![shard("a", addr)], "127.0.0.1:0", zero_vnodes).is_err());
}

/// `ShardSpec::parse` round-trips the CLI form and rejects malformed specs.
#[test]
fn shard_specs_parse_the_cli_form() {
    let spec = ShardSpec::parse("alpha=127.0.0.1:7101,127.0.0.1:7102").unwrap();
    assert_eq!(spec.name, "alpha");
    assert_eq!(spec.replicas.len(), 2);
    assert!(ShardSpec::parse("no-equals").is_err());
    assert!(ShardSpec::parse("=127.0.0.1:1").is_err());
    assert!(ShardSpec::parse("name=").is_err());
    assert!(ShardSpec::parse("name=not-an-addr").is_err());
}
