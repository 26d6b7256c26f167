//! Workspace-level integration tests exercising the full stack through the
//! `ikrq` facade crate: venue generation (`indoor-data`), keyword handling
//! (`indoor-keywords`), the space model (`indoor-space`) and the query engine
//! (`ikrq-core`), the way a downstream user would consume the library.

use ikrq::core::RankingModel;
use ikrq::prelude::*;
use indoor_keywords::QueryKeywords;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn facade_prelude_supports_the_full_query_pipeline() {
    // Build the example venue through the facade re-exports only.
    let example = ikrq::data::paper_example_venue();
    let engine = IkrqEngine::new(example.venue.space.clone(), example.venue.directory.clone());
    let query = IkrqQuery::new(
        example.ps,
        example.pt,
        300.0,
        QueryKeywords::new(["coffee"]).unwrap(),
        2,
    );
    let outcome = engine
        .execute(&query, &ikrq_core::ExecOptions::default())
        .unwrap();
    assert!(!outcome.results.is_empty());
    let best = outcome.results.best().unwrap();
    assert!(
        best.relevance > 0.0,
        "coffee is coverable in the example venue"
    );
    // The reported score matches the ranking definition accessible from the
    // facade as well.
    let ranking = RankingModel::new(query.alpha, query.delta, query.num_keywords());
    assert!((ranking.score(best.relevance, best.distance) - best.score).abs() < 1e-9);
}

#[test]
fn synthetic_venue_statistics_match_the_paper_through_the_facade() {
    let venue = Venue::synthetic(&SyntheticVenueConfig::small(1)).unwrap();
    let stats = venue.space.stats();
    assert_eq!(stats.partitions, 141);
    assert_eq!(stats.doors, 220);
    assert_eq!(venue.rooms.len(), 96);
    // Every room carries an i-word and its t-words are disjoint from i-words.
    for &room in &venue.rooms {
        let iword = venue.directory.partition_iword(room).unwrap();
        assert!(venue.directory.vocab().is_iword(iword));
        for &t in venue.directory.twords_of(iword) {
            assert!(venue.directory.vocab().is_tword(t));
            assert!(!venue.directory.vocab().is_iword(t));
        }
    }
}

#[test]
fn workload_generation_and_search_compose_end_to_end() {
    let venue = Venue::synthetic(&SyntheticVenueConfig::small(17)).unwrap();
    let engine = IkrqEngine::new(venue.space.clone(), venue.directory.clone());
    let generator = QueryGenerator::new(&venue);
    let mut rng = StdRng::seed_from_u64(4);
    let workload = WorkloadConfig {
        s2t: 500.0,
        qw_len: 2,
        k: 3,
        ..WorkloadConfig::default()
    };
    let instances = generator.generate_batch(&workload, 3, &mut rng);
    assert!(!instances.is_empty());
    for instance in instances {
        let query = IkrqQuery::new(
            instance.start,
            instance.terminal,
            instance.delta,
            QueryKeywords::new(instance.keywords.iter().cloned()).unwrap(),
            instance.k,
        )
        .with_alpha(instance.alpha)
        .with_tau(instance.tau);
        let toe = engine
            .execute(&query, &ikrq_core::ExecOptions::default())
            .unwrap();
        let koe = engine
            .execute(
                &query,
                &ikrq_core::ExecOptions::with_variant(ikrq_core::VariantConfig::koe()),
            )
            .unwrap();
        // Both algorithms respect the constraint and agree on the optimum.
        for outcome in [&toe, &koe] {
            for route in outcome.results.routes() {
                assert!(route.distance <= query.delta + 1e-6);
                assert!(route.route.is_regular());
            }
        }
        let a = toe.results.best().map(|r| r.score).unwrap_or(0.0);
        let b = koe.results.best().map(|r| r.score).unwrap_or(0.0);
        assert!((a - b).abs() < 1e-6, "ToE {a} vs KoE {b}");
    }
}

#[test]
fn real_venue_simulation_is_queryable() {
    // A reduced-size instance of the simulated real mall keeps this test
    // quick while exercising the same code paths.
    let config = ikrq::data::real_mall::RealMallConfig {
        floors: 2,
        stores: 120,
        brands: 100,
        ..Default::default()
    };
    let venue = RealMallSimulator::generate(&config).unwrap();
    assert_eq!(venue.rooms.len(), 120);
    let engine = IkrqEngine::new(venue.space.clone(), venue.directory.clone());
    let generator = QueryGenerator::new(&venue);
    let mut rng = StdRng::seed_from_u64(8);
    let workload = WorkloadConfig {
        s2t: 800.0,
        qw_len: 2,
        k: 3,
        alpha: 0.7,
        ..WorkloadConfig::default()
    };
    if let Some(instance) = generator.generate(&workload, &mut rng) {
        let query = IkrqQuery::new(
            instance.start,
            instance.terminal,
            instance.delta,
            QueryKeywords::new(instance.keywords.iter().cloned()).unwrap(),
            instance.k,
        )
        .with_alpha(instance.alpha);
        let outcome = engine
            .execute(&query, &ikrq_core::ExecOptions::default())
            .unwrap();
        assert!(outcome.metrics.stamps_expanded > 0);
    }
}

#[test]
fn http_server_round_trips_a_search_through_the_facade() {
    use std::io::{Read, Write};
    use std::sync::Arc;

    let example = ikrq::data::paper_example_venue();
    let service = Arc::new(IkrqService::new());
    service
        .register_venue(
            "fig1",
            example.venue.space.clone(),
            example.venue.directory.clone(),
        )
        .unwrap();
    let request = SearchRequest::builder("fig1")
        .from(example.ps)
        .to(example.pt)
        .delta(400.0)
        .keywords(QueryKeywords::new(["latte", "apple"]).unwrap())
        .k(3)
        .build()
        .unwrap();
    let expected = service.search(&request).unwrap().deterministic_json();

    let handle = ikrq::server::serve(
        Arc::clone(&service),
        "127.0.0.1:0",
        ikrq::server::ServerConfig::default(),
    )
    .unwrap();
    let body = serde_json::to_string(&request).unwrap();
    // The server defaults to keep-alive, so a read-to-end client must ask
    // for close explicitly.
    let wire = format!(
        "POST /v1/search HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut reply = String::new();
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    stream.write_all(wire.as_bytes()).unwrap();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200"), "reply: {reply}");
    let (_, response_body) = reply.split_once("\r\n\r\n").unwrap();
    let response: SearchResponse = serde_json::from_str(response_body).unwrap();
    assert_eq!(response.deterministic_json(), expected);

    // The facade also re-exports the keep-alive client: two requests, one
    // connection, identical deterministic payloads.
    let mut client = ikrq::server::KeepAliveClient::new(handle.local_addr());
    for _ in 0..2 {
        let reply = client.request("POST", "/v1/search", &body).unwrap();
        assert_eq!(reply.status, 200);
        let response: SearchResponse = serde_json::from_str(&reply.body).unwrap();
        assert_eq!(response.deterministic_json(), expected);
    }
    assert_eq!(client.connects(), 1);
}
