//! End-to-end tests of the HTTP front end: a live `ikrq-server` on an
//! ephemeral port, driven by real `TcpStream` clients.

use ikrq_core::{CacheConfig, IkrqService, MetricsDetail, SearchRequest, VariantConfig};
use ikrq_server::client::{one_shot, raw_one_shot, ClientReply};
use ikrq_server::{serve, ServerConfig, ServerHandle};
use indoor_keywords::QueryKeywords;
use std::net::SocketAddr;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Thin wrappers over the crate's one-shot client
// ---------------------------------------------------------------------

trait ReplyJson {
    fn json(&self) -> serde::Value;
}

impl ReplyJson for ClientReply {
    fn json(&self) -> serde::Value {
        serde_json::from_str(&self.body).expect("response body is JSON")
    }
}

fn raw_roundtrip(addr: SocketAddr, wire: &[u8]) -> ClientReply {
    raw_one_shot(addr, wire).expect("raw round trip")
}

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> ClientReply {
    one_shot(addr, method, path, body.unwrap_or("")).expect("request round trip")
}

// ---------------------------------------------------------------------
// Server fixtures
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

fn start(service: Arc<IkrqService>, config: ServerConfig) -> ServerHandle {
    serve(service, "127.0.0.1:0", config).expect("bind ephemeral port")
}

fn fig1_request(k: usize, delta: f64, variant: VariantConfig) -> SearchRequest {
    let example = indoor_data::paper_example_venue();
    SearchRequest::builder("fig1")
        .from(example.ps)
        .to(example.pt)
        .delta(delta)
        .keywords(QueryKeywords::new(["latte", "apple"]).unwrap())
        .k(k)
        .variant(variant)
        .metrics(MetricsDetail::Full)
        .build()
        .unwrap()
}

/// Strips the non-deterministic `timing` and per-run metrics from a
/// response body, leaving the deterministic part the in-process service
/// also exposes via `SearchResponse::deterministic_json`.
fn deterministic(body: &str) -> String {
    let response: ikrq_core::SearchResponse = serde_json::from_str(body).expect("body decodes");
    response.deterministic_json()
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn healthz_venues_and_version_negotiation() {
    let service = fig1_service();
    let handle = start(Arc::clone(&service), ServerConfig::default());
    let addr = handle.local_addr();

    let health = request(addr, "GET", "/v1/healthz", None);
    assert_eq!(health.status, 200);
    let health = health.json();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("venues").unwrap().as_u64(), Some(1));
    assert_eq!(health.get("api_version").unwrap().as_u64(), Some(1));

    let venues = request(addr, "GET", "/v1/venues", None);
    assert_eq!(venues.status, 200);
    let venues = venues.json();
    let listed = venues.get("venues").unwrap().as_array().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].get("id").unwrap().as_str(), Some("fig1"));
    assert!(listed[0].get("partitions").unwrap().as_u64().unwrap() > 0);

    // A version we do not speak is a distinct, machine-readable error.
    let future = request(addr, "GET", "/v9/healthz", None);
    assert_eq!(future.status, 404);
    let future = future.json();
    let error = future.get("error").unwrap();
    assert_eq!(
        error.get("code").unwrap().as_str(),
        Some("unsupported_version")
    );
    assert!(error
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("v1"));

    // Non-API junk is a plain not_found.
    let junk = request(addr, "GET", "/favicon.ico", None);
    assert_eq!(junk.status, 404);
    assert_eq!(
        junk.json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("not_found")
    );

    // Known path, wrong method.
    let wrong = request(addr, "POST", "/v1/healthz", Some("{}"));
    assert_eq!(wrong.status, 405);
    assert_eq!(wrong.header("allow"), Some("GET"));
    let wrong = request(addr, "GET", "/v1/search", None);
    assert_eq!(wrong.status, 405);
    assert_eq!(wrong.header("allow"), Some("POST"));
}

#[test]
fn a_huge_k_is_answered_and_the_server_keeps_serving() {
    // `k` used to size the result set up front: this body made the server
    // try to allocate ~168 TiB and abort, taking every later request with it.
    let service = fig1_service();
    let handle = start(Arc::clone(&service), ServerConfig::default());
    let addr = handle.local_addr();
    let example = indoor_data::paper_example_venue();
    let fig1 = |k: usize| {
        SearchRequest::builder("fig1")
            .from(example.ps)
            .to(example.pt)
            .delta(300.0)
            .keywords(QueryKeywords::new(["coffee", "laptop"]).unwrap())
            .k(k)
            .build()
            .unwrap()
    };
    let huge = serde_json::to_string(&fig1(1 << 40)).unwrap();
    assert!(huge.contains("\"k\":1099511627776"), "{huge}");
    let reply = request(addr, "POST", "/v1/search", Some(&huge));
    assert_eq!(reply.status, 200, "{}", reply.body);

    let normal = fig1(3);
    let reply = request(
        addr,
        "POST",
        "/v1/search",
        Some(&serde_json::to_string(&normal).unwrap()),
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(
        deterministic(&reply.body),
        service.search(&normal).unwrap().deterministic_json()
    );
}

#[test]
fn malformed_requests_get_stable_error_bodies() {
    let handle = start(fig1_service(), ServerConfig::default());
    let addr = handle.local_addr();

    let garbage = request(addr, "POST", "/v1/search", Some("this is not json"));
    assert_eq!(garbage.status, 400);
    assert_eq!(
        garbage
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("invalid_json")
    );

    // Valid JSON, wrong shape.
    let shape = request(addr, "POST", "/v1/search", Some("{\"foo\": 1}"));
    assert_eq!(shape.status, 400);
    assert_eq!(
        shape
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("invalid_json")
    );

    // Decodes but validates badly: k = 0.
    let mut bad = fig1_request(3, 400.0, VariantConfig::toe());
    bad.query.k = 0;
    let bad = request(
        addr,
        "POST",
        "/v1/search",
        Some(&serde_json::to_string(&bad).unwrap()),
    );
    assert_eq!(bad.status, 400);
    assert_eq!(
        bad.json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("invalid_request")
    );

    // Unknown venue.
    let mut ghost = fig1_request(3, 400.0, VariantConfig::toe());
    ghost.venue = "ghost".into();
    let ghost = request(
        addr,
        "POST",
        "/v1/search",
        Some(&serde_json::to_string(&ghost).unwrap()),
    );
    assert_eq!(ghost.status, 404);
    assert_eq!(
        ghost
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("unknown_venue")
    );

    // Not HTTP at all.
    let junk = raw_roundtrip(addr, b"EHLO mail.example.org\r\n\r\n");
    assert_eq!(junk.status, 400);
    assert_eq!(
        junk.json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("malformed_http")
    );

    // Batch envelopes validate too.
    let empty = request(addr, "POST", "/v1/search/batch", Some("{\"requests\": []}"));
    assert_eq!(empty.status, 400);
    assert_eq!(
        empty
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("invalid_request")
    );
}

#[test]
fn oversized_bodies_are_rejected_with_413() {
    let handle = start(
        fig1_service(),
        ServerConfig {
            max_body_bytes: 64,
            ..ServerConfig::default()
        },
    );
    let big = "x".repeat(256);
    let reply = request(handle.local_addr(), "POST", "/v1/search", Some(&big));
    assert_eq!(reply.status, 413);
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("payload_too_large")
    );
}

/// The acceptance-criteria test: concurrent `POST /v1/search` + batch
/// requests from several client threads, byte-identical (in the
/// deterministic part) to in-process `IkrqService::search`, cold and warm,
/// with the hit-rate observable via header and stats endpoint.
#[test]
fn concurrent_wire_searches_match_the_in_process_service_cold_and_warm() {
    let service = fig1_service();
    // Generous admission: this test measures correctness under
    // concurrency, not shedding (that has its own test below).
    let handle = start(
        Arc::clone(&service),
        ServerConfig {
            max_in_flight: 64,
            ..ServerConfig::default()
        },
    );
    let addr = handle.local_addr();

    // A mixed workload: 3 variants × 4 (k, delta) settings.
    let mut requests = Vec::new();
    for variant in [
        VariantConfig::toe(),
        VariantConfig::koe(),
        VariantConfig::koe_star(),
    ] {
        for (k, delta) in [(1usize, 300.0), (3, 400.0), (5, 400.0), (3, 500.0)] {
            requests.push(fig1_request(k, delta, variant));
        }
    }
    let expected: Vec<String> = requests
        .iter()
        .map(|r| service.search(r).unwrap().deterministic_json())
        .collect();

    // Cold pass: every request from its own client thread.
    let cold: Vec<(String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|search| {
                scope.spawn(move || {
                    let reply = request(
                        addr,
                        "POST",
                        "/v1/search",
                        Some(&serde_json::to_string(search).unwrap()),
                    );
                    assert_eq!(reply.status, 200, "body: {}", reply.body);
                    (
                        reply.header("x-ikrq-cache").unwrap().to_string(),
                        reply.body,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for ((state, body), expected) in cold.iter().zip(&expected) {
        assert_eq!(state, "miss", "cold pass must miss");
        assert_eq!(&deterministic(body), expected);
    }

    // Warm pass: same requests again, now byte-identical to the cold
    // bodies (timing included — the cache replays the stored bytes).
    let warm: Vec<(String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|search| {
                scope.spawn(move || {
                    let reply = request(
                        addr,
                        "POST",
                        "/v1/search",
                        Some(&serde_json::to_string(search).unwrap()),
                    );
                    assert_eq!(reply.status, 200);
                    (
                        reply.header("x-ikrq-cache").unwrap().to_string(),
                        reply.body,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for ((state, body), (_, cold_body)) in warm.iter().zip(&cold) {
        assert_eq!(state, "hit", "warm pass must hit");
        assert_eq!(body, cold_body, "hits replay the cached bytes verbatim");
    }

    // Batch pass over the same requests (all warm now): entries match the
    // deterministic parts and the batch reports full cache coverage.
    let batch_body = {
        let inner: Vec<String> = requests
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        format!("{{\"requests\": [{}]}}", inner.join(","))
    };
    let batch = request(addr, "POST", "/v1/search/batch", Some(&batch_body));
    assert_eq!(batch.status, 200);
    assert_eq!(
        batch.header("x-ikrq-cache-hits"),
        Some(requests.len().to_string().as_str())
    );
    let parsed = batch.json();
    let entries = parsed.get("responses").unwrap().as_array().unwrap();
    assert_eq!(entries.len(), requests.len());
    for (entry, expected) in entries.iter().zip(&expected) {
        assert!(entry.get("err").unwrap().is_null());
        let ok = entry.get("ok").unwrap();
        assert_eq!(
            &deterministic(&serde_json::to_string(ok).unwrap()),
            expected
        );
    }
    // Batch entries splice the cached single-request bodies verbatim.
    for (_, cold_body) in &cold {
        assert!(
            batch.body.contains(cold_body.as_str()),
            "warm batch must embed the cached body bytes"
        );
    }

    // Hit-rate is observable via the stats endpoint: 12 cold misses, then
    // 12 + 12 hits.
    let stats = request(addr, "GET", "/v1/stats", None).json();
    let cache = stats.get("stats").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(12));
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(24));
    assert!(
        stats
            .get("stats")
            .unwrap()
            .get("requests_served")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 25
    );
}

#[test]
fn batch_mixes_hits_misses_and_per_request_errors_in_order() {
    let service = fig1_service();
    let handle = start(Arc::clone(&service), ServerConfig::default());
    let addr = handle.local_addr();

    let good = fig1_request(3, 400.0, VariantConfig::toe());
    let mut ghost = good.clone();
    ghost.venue = "ghost".into();
    let other = fig1_request(5, 450.0, VariantConfig::koe());

    // Warm the cache for `good` only.
    let warm = request(
        addr,
        "POST",
        "/v1/search",
        Some(&serde_json::to_string(&good).unwrap()),
    );
    assert_eq!(warm.status, 200);

    let body = format!(
        "{{\"requests\": [{},{},{}]}}",
        serde_json::to_string(&good).unwrap(),
        serde_json::to_string(&ghost).unwrap(),
        serde_json::to_string(&other).unwrap(),
    );
    let reply = request(addr, "POST", "/v1/search/batch", Some(&body));
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("x-ikrq-cache-hits"), Some("1"));
    let parsed = reply.json();
    let entries = parsed.get("responses").unwrap().as_array().unwrap();
    assert_eq!(entries.len(), 3);
    assert!(entries[0].get("err").unwrap().is_null());
    assert_eq!(
        entries[1].get("err").unwrap().get("code").unwrap().as_str(),
        Some("unknown_venue")
    );
    assert!(entries[1].get("ok").unwrap().is_null());
    assert!(entries[2].get("err").unwrap().is_null());
    assert_eq!(
        entries[0]
            .get("ok")
            .unwrap()
            .get("venue")
            .unwrap()
            .get("id")
            .unwrap()
            .as_str(),
        Some("fig1")
    );
}

#[test]
fn venue_registration_bumps_the_epoch_and_invalidates_cached_responses() {
    let service = fig1_service();
    let handle = start(Arc::clone(&service), ServerConfig::default());
    let addr = handle.local_addr();

    let search = fig1_request(3, 400.0, VariantConfig::toe());
    let body = serde_json::to_string(&search).unwrap();
    let first = request(addr, "POST", "/v1/search", Some(&body));
    assert_eq!(first.header("x-ikrq-cache"), Some("miss"));
    let second = request(addr, "POST", "/v1/search", Some(&body));
    assert_eq!(second.header("x-ikrq-cache"), Some("hit"));

    // Topology change: host a second venue. The old entry is orphaned.
    let mall = indoor_data::Venue::synthetic(&indoor_data::SyntheticVenueConfig::small(5)).unwrap();
    let epoch_before = service.registry().epoch();
    service
        .register_venue("mall", mall.space.clone(), mall.directory.clone())
        .unwrap();
    assert_eq!(service.registry().epoch(), epoch_before + 1);

    let third = request(addr, "POST", "/v1/search", Some(&body));
    assert_eq!(
        third.header("x-ikrq-cache"),
        Some("miss"),
        "epoch bump must orphan the cached entry"
    );
    assert_eq!(deterministic(&third.body), deterministic(&first.body));

    // Removing the venue flips the epoch again and `/v1/venues` reflects it.
    service.registry().remove("mall");
    let venues = request(addr, "GET", "/v1/venues", None).json();
    assert_eq!(
        venues.get("epoch").unwrap().as_u64(),
        Some(epoch_before + 2)
    );
    let fourth = request(addr, "POST", "/v1/search", Some(&body));
    assert_eq!(fourth.header("x-ikrq-cache"), Some("miss"));
}

#[test]
fn admission_control_sheds_excess_connections_with_429() {
    // One worker, one in-flight slot, and a tiny cache: flood the server
    // with slow-ish concurrent searches and expect some 429s with the
    // stable `overloaded` body while every accepted request still succeeds.
    let handle = start(
        fig1_service(),
        ServerConfig {
            workers: 1,
            max_in_flight: 1,
            cache: CacheConfig {
                shards: 1,
                capacity: 1,
            },
            ..ServerConfig::default()
        },
    );
    let addr = handle.local_addr();

    let outcomes: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|i| {
                scope.spawn(move || {
                    // Distinct k values defeat the (tiny) cache so every
                    // request does real work on the single worker.
                    let search = fig1_request(1 + (i % 6), 400.0 + i as f64, VariantConfig::toe());
                    let reply = request(
                        addr,
                        "POST",
                        "/v1/search",
                        Some(&serde_json::to_string(&search).unwrap()),
                    );
                    if reply.status == 429 {
                        assert_eq!(
                            reply
                                .json()
                                .get("error")
                                .unwrap()
                                .get("code")
                                .unwrap()
                                .as_str(),
                            Some("overloaded")
                        );
                        assert_eq!(reply.header("retry-after"), Some("1"));
                    } else {
                        assert_eq!(reply.status, 200, "body: {}", reply.body);
                    }
                    reply.status
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = outcomes.iter().filter(|&&s| s == 200).count();
    let shed = outcomes.iter().filter(|&&s| s == 429).count();
    assert_eq!(ok + shed, 16);
    assert!(ok >= 1, "at least one request must be admitted");
    assert!(
        shed >= 1,
        "16 concurrent clients against 1 slot must shed at least once"
    );
    let stats = handle.stats();
    assert_eq!(stats.requests_shed as usize, shed);
}

#[test]
fn shutdown_is_idempotent_and_stats_survive() {
    let mut handle = start(fig1_service(), ServerConfig::default());
    let addr = handle.local_addr();
    assert_eq!(request(addr, "GET", "/v1/healthz", None).status, 200);
    handle.shutdown();
    handle.shutdown();
    assert!(handle.stats().requests_served >= 1);
    // The listener is closed: new requests are refused (or at best
    // accepted into a dead backlog and never answered).
    assert!(
        one_shot(addr, "GET", "/v1/healthz", "").is_err(),
        "a stopped server must not answer"
    );
}

#[test]
fn stats_expose_index_observability() {
    let service = fig1_service();
    let handle = start(Arc::clone(&service), ServerConfig::default());
    let addr = handle.local_addr();

    // Before any query: default registration builds the index eagerly, so
    // mode and build/memory figures are already visible.
    let stats = request(addr, "GET", "/v1/stats", None).json();
    let index = stats.get("index").unwrap();
    assert_eq!(index.get("mode").unwrap().as_str(), Some("accelerated"));
    assert_eq!(index.get("venues_indexed").unwrap().as_u64(), Some(1));
    assert_eq!(index.get("venues_total").unwrap().as_u64(), Some(1));
    assert!(index.get("estimated_bytes").unwrap().as_u64().unwrap() > 0);
    assert_eq!(index.get("queries_accelerated").unwrap().as_u64(), Some(0));
    // KoE* rows live only inside a search: no row-cache keys, in the
    // aggregate or per venue. KoE applies Rule 3 once per query, so there
    // is no per-query bound cache to count either.
    for key in [
        "precomputed_rows",
        "precomputed_bytes",
        "rows_evictions",
        "bound_cache_hits",
    ] {
        assert!(index.get(key).is_none(), "index.{key} is gone");
    }
    let venue = &index.get("venues").unwrap().as_array().unwrap()[0];
    for key in [
        "rows_capacity",
        "rows_resident",
        "rows_hits",
        "rows_misses",
        "rows_evictions",
    ] {
        assert!(venue.get(key).is_none(), "index.venues[0].{key} is gone");
    }

    // Queries bump the cumulative accelerated counter.
    let body = serde_json::to_string(&fig1_request(3, 400.0, VariantConfig::koe())).unwrap();
    assert_eq!(request(addr, "POST", "/v1/search", Some(&body)).status, 200);
    let stats = request(addr, "GET", "/v1/stats", None).json();
    let index = stats.get("index").unwrap();
    assert!(index.get("queries_accelerated").unwrap().as_u64().unwrap() >= 1);

    // A scan-mode registration reports the fallback mode with no index cost.
    let example = indoor_data::paper_example_venue();
    let scan_service = Arc::new(IkrqService::new());
    scan_service
        .register_engine(
            "fig1",
            Arc::new(ikrq_core::IkrqEngine::with_index_mode(
                example.venue.space.clone(),
                example.venue.directory.clone(),
                ikrq_core::IndexMode::Scan,
            )),
        )
        .unwrap();
    let scan_handle = start(Arc::clone(&scan_service), ServerConfig::default());
    let stats = request(scan_handle.local_addr(), "GET", "/v1/stats", None).json();
    let index = stats.get("index").unwrap();
    assert_eq!(index.get("mode").unwrap().as_str(), Some("scan"));
    assert_eq!(index.get("venues_indexed").unwrap().as_u64(), Some(0));
    assert_eq!(index.get("estimated_bytes").unwrap().as_u64(), Some(0));
}

#[test]
fn stats_expose_document_load_observability() {
    // An engine registered straight from an in-memory model has no document
    // provenance: its per-venue `document` is null.
    let handle = start(fig1_service(), ServerConfig::default());
    let stats = request(handle.local_addr(), "GET", "/v1/stats", None).json();
    let venues = stats
        .get("index")
        .unwrap()
        .get("venues")
        .unwrap()
        .as_array()
        .unwrap();
    assert_eq!(venues.len(), 1);
    assert!(venues[0].get("document").unwrap().is_null());

    // An engine whose loader recorded document stats (the CLI seam for
    // binary/JSON venue files) surfaces them per venue.
    let example = indoor_data::paper_example_venue();
    let mut engine =
        ikrq_core::IkrqEngine::new(example.venue.space.clone(), example.venue.directory.clone());
    engine.set_document_stats(ikrq_core::DocumentStats {
        format_version: 2,
        adopted_columnar: true,
        decode_micros: 1500,
        adopt_micros: 250,
        degraded: None,
    });
    let service = Arc::new(IkrqService::new());
    service.register_engine("fig1", Arc::new(engine)).unwrap();
    let handle = start(Arc::clone(&service), ServerConfig::default());
    let stats = request(handle.local_addr(), "GET", "/v1/stats", None).json();
    let venues = stats
        .get("index")
        .unwrap()
        .get("venues")
        .unwrap()
        .as_array()
        .unwrap();
    let document = venues[0].get("document").unwrap();
    assert_eq!(document.get("format_version").unwrap().as_u64(), Some(2));
    assert_eq!(
        document.get("adopted_columnar").unwrap().as_bool(),
        Some(true)
    );
    assert_eq!(document.get("decode_ms").unwrap().as_f64(), Some(1.5));
    assert_eq!(document.get("adopt_ms").unwrap().as_f64(), Some(0.25));
    assert!(document.get("degraded").unwrap().is_null());
}
