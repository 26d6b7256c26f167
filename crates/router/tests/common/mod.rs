//! Shared fixture code of the router integration tests: small mega-venues,
//! backend servers on ephemeral ports, deterministic workloads, and the
//! response-comparison helpers.
//!
//! Compiled once per test binary; not every binary uses every helper.
#![allow(dead_code)]

use ikrq_core::{CacheConfig, IkrqService, SearchRequest, VariantConfig};
use ikrq_router::{HashRing, RouterConfig, ShardSpec, DEFAULT_VNODES};
use ikrq_server::{serve, ServerConfig, ServerHandle};
use indoor_data::{mega_venue, MegaVenueConfig, QueryGenerator, Venue, WorkloadConfig};
use indoor_keywords::QueryKeywords;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small (fast to build, non-trivial to search) mega-venue.
pub fn small_venue(seed: u64) -> Venue {
    let mut config = MegaVenueConfig::sized(48, seed);
    config.floors = 2;
    mega_venue(&config).expect("small mega-venue builds")
}

/// A service hosting the given `(id, venue)` pairs.
pub fn service_with(venues: &[(&str, &Venue)]) -> Arc<IkrqService> {
    let service = Arc::new(IkrqService::new());
    for (id, venue) in venues {
        service
            .register_venue(*id, venue.space.clone(), venue.directory.clone())
            .expect("venue registers");
    }
    service
}

/// A backend server configuration: small worker pool, cache as requested.
pub fn backend_config(cache_capacity: usize) -> ServerConfig {
    ServerConfig {
        workers: 2,
        cache: CacheConfig {
            shards: 1,
            capacity: cache_capacity,
        },
        ..ServerConfig::default()
    }
}

/// Starts a backend on an ephemeral port.
pub fn start_backend(service: Arc<IkrqService>, cache_capacity: usize) -> ServerHandle {
    serve(service, "127.0.0.1:0", backend_config(cache_capacity)).expect("backend binds")
}

/// Router configuration tuned for tests: 2 workers, fast failure
/// detection, and probes effectively disabled (one initial round, then
/// nothing for an hour) so request counters on the backends stay
/// attributable to the searches a test sends.
pub fn router_config(backend_timeout: Duration) -> RouterConfig {
    RouterConfig {
        server: ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        backend_timeout,
        probe_interval: Duration::from_secs(3600),
        probe_timeout: Duration::from_millis(500),
        fail_threshold: 1,
        pool_per_backend: 4,
        ..RouterConfig::default()
    }
}

/// Waits, for at most 10 s, until `backend` has served `at_least`
/// requests. The router probes every backend once when it starts, and the
/// probe's `GET /v1/healthz` counts in `requests_served`; a test that
/// takes request-count baselines waits for those probes first, or a late
/// probe lands in its deltas.
pub fn await_requests_served(backend: &ServerHandle, at_least: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while backend.stats().requests_served < at_least {
        assert!(
            Instant::now() < deadline,
            "the backend served {} of {at_least} requests in 10 s",
            backend.stats().requests_served
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A one-replica shard.
pub fn shard(name: &str, addr: SocketAddr) -> ShardSpec {
    ShardSpec {
        name: name.to_string(),
        replicas: vec![addr],
    }
}

/// Deterministic search requests against one venue.
pub fn workload(venue_id: &str, venue: &Venue, count: usize, seed: u64) -> Vec<SearchRequest> {
    let generator = QueryGenerator::new(venue);
    let mut rng = StdRng::seed_from_u64(seed);
    // The paper-scale δs2t default (1500 m) exceeds the small fixture
    // venue; target a distance it can realise.
    let config = WorkloadConfig {
        k: 2,
        s2t: 100.0,
        ..WorkloadConfig::default()
    };
    let instances = generator.generate_batch(&config, count, &mut rng);
    assert_eq!(
        instances.len(),
        count,
        "workload generation must satisfy the requested count"
    );
    instances
        .into_iter()
        .map(|instance| {
            SearchRequest::builder(venue_id)
                .from(instance.start)
                .to(instance.terminal)
                .delta(instance.delta)
                .keywords(
                    QueryKeywords::new(instance.keywords.iter().cloned())
                        .expect("generated keywords are valid"),
                )
                .k(instance.k)
                .alpha(instance.alpha)
                .tau(instance.tau)
                .variant(VariantConfig::toe())
                .build()
                .expect("generated requests validate")
        })
        .collect()
}

/// The batch envelope for a set of requests — the same serialization the
/// router itself uses for its sub-batches.
pub fn batch_body(requests: &[&SearchRequest]) -> String {
    let parts: Vec<String> = requests
        .iter()
        .map(|request| serde_json::to_string(request).expect("requests serialize"))
        .collect();
    format!("{{\"requests\":[{}]}}", parts.join(","))
}

/// Splits a combined batch body into its raw entry slices (a test-side
/// mirror of the router's splicer, kept independent so the two cannot
/// share a bug) plus the cache-hit count.
pub fn split_entries(body: &str) -> (Vec<String>, u64) {
    let value: serde::Value = serde_json::from_str(body).expect("batch body parses");
    // Parse only to COUNT the entries, then slice the raw text so the
    // returned entries are verbatim bytes, not re-printed JSON.
    let count = value
        .get("responses")
        .and_then(|responses| responses.as_array())
        .expect("responses array")
        .len();
    let hits = value
        .get("cache_hits")
        .and_then(|hits| hits.as_u64())
        .expect("cache_hits");
    let rest = body
        .strip_prefix("{\"api_version\":1,\"responses\":[")
        .expect("batch prefix");
    let mut entries = Vec::with_capacity(count);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (index, byte) in rest.bytes().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if byte == b'\\' {
                escaped = true;
            } else if byte == b'"' {
                in_string = false;
            }
            continue;
        }
        match byte {
            b'"' => in_string = true,
            b'{' | b'[' => depth += 1,
            b'}' if depth > 0 => depth -= 1,
            b']' if depth > 0 => depth -= 1,
            b']' => {
                if index > start {
                    entries.push(rest[start..index].to_string());
                }
                break;
            }
            b',' if depth == 0 => {
                entries.push(rest[start..index].to_string());
                start = index + 1;
            }
            _ => {}
        }
    }
    assert_eq!(entries.len(), count, "sliced entries match parsed count");
    (entries, hits)
}

/// The `ok` body inside a batch entry, or `None` for an error entry.
pub fn entry_ok(entry: &str) -> Option<&str> {
    let body = entry
        .strip_prefix("{\"ok\":")?
        .strip_suffix(",\"err\":null}")?;
    if body == "null" {
        None
    } else {
        Some(body)
    }
}

/// The deterministic part of a search-response body (everything except
/// timing/metrics), for cross-process comparisons.
pub fn deterministic(body: &str) -> String {
    let response: ikrq_core::SearchResponse =
        serde_json::from_str(body).expect("search response parses");
    response.deterministic_json()
}

/// Picks `count` venue ids owned by `shard_name` on a ring over `shards`.
pub fn venue_ids_on_shard(shards: &[&str], shard_name: &str, count: usize) -> Vec<String> {
    let ring = HashRing::new(shards, DEFAULT_VNODES);
    let mut picked = Vec::with_capacity(count);
    for index in 0.. {
        let id = format!("venue-{index}");
        if ring.assign_name(&id) == shard_name {
            picked.push(id);
            if picked.len() == count {
                break;
            }
        }
    }
    picked
}
