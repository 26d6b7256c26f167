//! Integration tests of the service layer: multi-venue hosting, the
//! request/response envelope, and the equivalence of `search_batch` with
//! sequential `search` — including under concurrent callers.

use ikrq_core::prelude::*;
use indoor_data::{QueryGenerator, SyntheticVenueConfig, Venue, WorkloadConfig};
use indoor_keywords::QueryKeywords;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A service hosting two genuinely different venues: the paper's Fig. 1
/// example and a single-floor synthetic mall.
fn two_venue_service() -> (IkrqService, Vec<SearchRequest>) {
    let example = indoor_data::paper_example_venue();
    let mall = Venue::synthetic(&SyntheticVenueConfig::small(5)).expect("venue generation");

    let service = IkrqService::new();
    service
        .register_venue(
            "fig1",
            example.venue.space.clone(),
            example.venue.directory.clone(),
        )
        .unwrap();
    service
        .register_venue("mall", mall.space.clone(), mall.directory.clone())
        .unwrap();
    assert_eq!(service.venue_ids(), vec!["fig1", "mall"]);

    // >= 100 requests mixing venues, variants, k and delta.
    let mut requests = Vec::new();
    for round in 0..12u64 {
        for (variant, metrics) in [
            (VariantConfig::toe(), MetricsDetail::Full),
            (VariantConfig::koe(), MetricsDetail::Timing),
            (VariantConfig::koe_star(), MetricsDetail::None),
        ] {
            for k in [1usize, 3, 5] {
                requests.push(
                    SearchRequest::builder("fig1")
                        .from(example.ps)
                        .to(example.pt)
                        .delta(250.0 + 25.0 * round as f64)
                        .keywords(QueryKeywords::new(["latte", "apple"]).unwrap())
                        .k(k)
                        .variant(variant)
                        .metrics(metrics)
                        .build()
                        .unwrap(),
                );
            }
        }
    }
    // A lighter sprinkling of synthetic-mall queries from the workload
    // generator (kept few: the mall is ~12x larger than Fig. 1).
    let generator = QueryGenerator::new(&mall);
    let mut rng = StdRng::seed_from_u64(31);
    let workload = WorkloadConfig {
        s2t: 400.0,
        qw_len: 2,
        k: 3,
        ..WorkloadConfig::default()
    };
    for instance in generator.generate_batch(&workload, 4, &mut rng) {
        let query = IkrqQuery::new(
            instance.start,
            instance.terminal,
            instance.delta,
            QueryKeywords::new(instance.keywords.iter().cloned()).unwrap(),
            instance.k,
        )
        .with_alpha(instance.alpha)
        .with_tau(instance.tau);
        requests.push(
            SearchRequest::builder("mall")
                .query(query)
                .variant(VariantConfig::toe())
                .build()
                .unwrap(),
        );
    }
    assert!(requests.len() >= 100, "got {}", requests.len());
    (service, requests)
}

#[test]
fn batch_execution_is_byte_identical_to_sequential_search() {
    let (service, requests) = two_venue_service();

    let sequential: Vec<String> = requests
        .iter()
        .map(|request| service.search(request).unwrap().deterministic_json())
        .collect();
    let batched: Vec<String> = service
        .search_batch(&requests)
        .into_iter()
        .map(|response| response.unwrap().deterministic_json())
        .collect();

    assert_eq!(sequential.len(), batched.len());
    for (index, (a, b)) in sequential.iter().zip(&batched).enumerate() {
        assert_eq!(a, b, "request #{index} diverged");
    }
}

#[test]
fn concurrent_batches_from_many_threads_agree() {
    let (service, requests) = two_venue_service();
    let service = Arc::new(service);
    // Keep the concurrent run light: every thread executes the same slice.
    let slice: Vec<SearchRequest> = requests.into_iter().take(24).collect();
    let reference: Vec<String> = slice
        .iter()
        .map(|request| service.search(request).unwrap().deterministic_json())
        .collect();

    let mut handles = Vec::new();
    for _ in 0..4 {
        let service = Arc::clone(&service);
        let slice = slice.clone();
        handles.push(std::thread::spawn(move || {
            service
                .search_batch(&slice)
                .into_iter()
                .map(|response| response.unwrap().deterministic_json())
                .collect::<Vec<String>>()
        }));
    }
    for handle in handles {
        let observed = handle.join().expect("worker thread");
        assert_eq!(observed, reference);
    }
}

#[test]
fn responses_round_trip_through_serde_json_and_metrics_detail_is_honoured() {
    let (service, requests) = two_venue_service();
    for request in requests.iter().take(9) {
        let response = service.search(request).unwrap();
        match request.options.metrics {
            MetricsDetail::None => assert!(response.metrics.is_none()),
            MetricsDetail::Timing => {
                let metrics = response.metrics.as_ref().unwrap();
                assert_eq!(metrics.stamps_expanded, 0, "counters are stripped");
            }
            MetricsDetail::Full => {
                let metrics = response.metrics.as_ref().unwrap();
                assert!(metrics.stamps_expanded > 0);
            }
        }
        assert_eq!(response.api_version, ikrq_core::API_VERSION);
        assert!(response.timing.total_ms >= response.timing.search_ms);

        let json = serde_json::to_string(&response).unwrap();
        let back: SearchResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.deterministic_json(), response.deterministic_json());
        assert_eq!(back.venue, response.venue);
        assert_eq!(back.variant, response.variant);

        let request_json = serde_json::to_string(request).unwrap();
        let request_back: SearchRequest = serde_json::from_str(&request_json).unwrap();
        assert_eq!(&request_back, request);
    }
}

#[test]
fn batch_reports_per_request_errors_in_order() {
    let (service, requests) = two_venue_service();
    let mut mixed: Vec<SearchRequest> = requests.into_iter().take(3).collect();
    let mut ghost = mixed[0].clone();
    ghost.venue = "ghost".to_string();
    mixed.insert(1, ghost);

    let responses = service.search_batch(&mixed);
    assert_eq!(responses.len(), 4);
    assert!(responses[0].is_ok());
    assert!(matches!(
        &responses[1],
        Err(ikrq_core::EngineError::UnknownVenue(id)) if id == "ghost"
    ));
    assert!(responses[2].is_ok());
    assert!(responses[3].is_ok());
}

#[test]
fn concurrent_koe_star_queries_answer_like_a_sequential_one() {
    let example = indoor_data::paper_example_venue();
    let service = IkrqService::new();
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
        .variant(VariantConfig::koe_star())
        .build()
        .unwrap();

    // Fire the same KoE* request across the batch fan-out: each search
    // computes its own door paths, so concurrent searches share nothing and
    // every response matches the sequential one.
    let sequential = service.search(&request).unwrap().deterministic_json();
    let batch: Vec<SearchRequest> = (0..16).map(|_| request.clone()).collect();
    let responses = service.search_batch(&batch);
    assert_eq!(responses.len(), 16);
    for response in responses {
        assert_eq!(response.unwrap().deterministic_json(), sequential);
    }
}
