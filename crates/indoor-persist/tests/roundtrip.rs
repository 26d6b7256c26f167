//! End-to-end persistence tests: capture a venue, serialise it (JSON and
//! the binary venue file), load it back, and check that IKRQ queries return
//! identical results on the original and the loaded venue.

mod common;

use common::example_queries;
use ikrq_core::{IkrqEngine, IkrqQuery, VariantConfig};
use indoor_data::{paper_example_venue, SyntheticVenueConfig, Venue};
use indoor_persist::{binary, json, VenueDocument, WorkloadDocument};

fn assert_same_results(
    original: &IkrqEngine,
    rebuilt: &IkrqEngine,
    queries: &[IkrqQuery],
    variant: VariantConfig,
) {
    for query in queries {
        let options = ikrq_core::ExecOptions::with_variant(variant);
        let a = original.execute(query, &options).unwrap();
        let b = rebuilt.execute(query, &options).unwrap();
        assert_eq!(a.results.len(), b.results.len(), "result counts differ");
        for (ra, rb) in a.results.routes().iter().zip(b.results.routes()) {
            assert!(
                (ra.score - rb.score).abs() < 1e-9,
                "scores differ: {} vs {}",
                ra.score,
                rb.score
            );
            assert!((ra.distance - rb.distance).abs() < 1e-9);
            assert!((ra.relevance - rb.relevance).abs() < 1e-9);
            assert_eq!(ra.route.doors(), rb.route.doors());
        }
    }
}

#[test]
fn paper_example_round_trips_through_json_with_identical_query_results() {
    let example = paper_example_venue();
    let doc = VenueDocument::from_venue(
        &example.venue.space,
        &example.venue.directory,
        10.0,
        Some("fig1".into()),
    );
    doc.validate().unwrap();

    let text = json::to_json_string(&doc).unwrap();
    let back: VenueDocument = json::from_json_str(&text).unwrap();
    assert_eq!(back, doc);

    let (space, directory) = back.build().unwrap();
    assert_eq!(space.num_partitions(), example.venue.space.num_partitions());
    assert_eq!(space.num_doors(), example.venue.space.num_doors());

    let original = IkrqEngine::new(example.venue.space.clone(), example.venue.directory.clone());
    let rebuilt = IkrqEngine::new(space, directory);
    let queries = example_queries(&example);
    assert_same_results(&original, &rebuilt, &queries, VariantConfig::toe());
    assert_same_results(&original, &rebuilt, &queries, VariantConfig::koe());
}

#[test]
fn paper_example_round_trips_through_the_binary_codec() {
    let example = paper_example_venue();
    let doc = VenueDocument::from_venue(
        &example.venue.space,
        &example.venue.directory,
        10.0,
        Some("fig1".into()),
    );
    let (space, directory) = doc.build().unwrap();
    let payload = binary::encode_venue_columnar(&doc, &space, &directory, None).unwrap();
    let back = binary::load_venue_model(&payload).unwrap();
    assert!(back.stats.adopted_columnar);
    let back_doc = VenueDocument::from_venue(&back.space, &back.directory, 10.0, back.name);
    assert_eq!(back_doc, doc);

    // Binary form is more compact than pretty JSON.
    let json_text = json::to_json_string(&doc).unwrap();
    assert!(payload.len() < json_text.len());

    let original = IkrqEngine::new(example.venue.space.clone(), example.venue.directory.clone());
    let rebuilt = IkrqEngine::new(back.space, back.directory);
    assert_same_results(
        &original,
        &rebuilt,
        &example_queries(&example),
        VariantConfig::toe(),
    );
}

#[test]
fn synthetic_single_floor_venue_round_trips_with_identical_topology_and_keywords() {
    let venue = Venue::synthetic(&SyntheticVenueConfig::small(11)).unwrap();
    let doc = VenueDocument::from_venue(&venue.space, &venue.directory, 25.0, None);
    doc.validate().unwrap();
    assert_eq!(doc.num_partitions(), venue.space.num_partitions());
    assert_eq!(doc.num_doors(), venue.space.num_doors());

    // Round trip through both encodings and compare documents.
    let through_json: VenueDocument =
        json::from_json_str(&json::to_json_string(&doc).unwrap()).unwrap();
    let (built_space, built_directory) = doc.build().unwrap();
    let payload =
        binary::encode_venue_columnar(&doc, &built_space, &built_directory, None).unwrap();
    let binary::LoadedVenue {
        space, directory, ..
    } = binary::load_venue_model(&payload).unwrap();
    let through_binary = VenueDocument::from_venue(&space, &directory, 25.0, None);
    assert_eq!(through_json, doc);
    assert_eq!(through_binary, doc);

    // Compare venue-level invariants of the loaded model: stairway
    // overrides, door directionality, keyword assignment of every room.
    assert_eq!(space.num_partitions(), venue.space.num_partitions());
    assert_eq!(space.num_doors(), venue.space.num_doors());
    assert_eq!(space.floors(), venue.space.floors());
    for d in venue.space.doors() {
        assert_eq!(space.d2p_enter(d.id), venue.space.d2p_enter(d.id));
        assert_eq!(space.d2p_leave(d.id), venue.space.d2p_leave(d.id));
    }
    for &room in &venue.rooms {
        let original_word = venue
            .directory
            .partition_iword(room)
            .map(|w| venue.directory.resolve(w).unwrap().to_string());
        let rebuilt_word = directory
            .partition_iword(room)
            .map(|w| directory.resolve(w).unwrap().to_string());
        assert_eq!(original_word, rebuilt_word);
    }
    // The i-word / t-word vocabulary sizes survive.
    assert_eq!(
        directory.vocab().num_iwords(),
        venue.directory.vocab().num_iwords()
    );
    assert_eq!(
        directory.vocab().num_twords(),
        venue.directory.vocab().num_twords()
    );
}

#[test]
fn workload_document_replays_identically_against_a_rebuilt_venue() {
    let example = paper_example_venue();
    let queries = example_queries(&example);
    let mut workload = WorkloadDocument::new("fig1 replay workload");
    workload.venue = Some("fig1".into());
    for q in &queries {
        workload.push_query(q);
    }

    let text = json::to_json_string(&workload).unwrap();
    let back: WorkloadDocument = json::from_json_str(&text).unwrap();
    assert_eq!(back, workload);
    let replayed = back.to_queries().unwrap();
    assert_eq!(replayed.len(), queries.len());

    let engine = IkrqEngine::new(example.venue.space.clone(), example.venue.directory.clone());
    for (orig, replay) in queries.iter().zip(&replayed) {
        let a = engine
            .execute(orig, &ikrq_core::ExecOptions::default())
            .unwrap();
        let b = engine
            .execute(replay, &ikrq_core::ExecOptions::default())
            .unwrap();
        assert_eq!(a.results.len(), b.results.len());
        for (ra, rb) in a.results.routes().iter().zip(b.results.routes()) {
            assert!((ra.score - rb.score).abs() < 1e-12);
        }
    }
}

#[test]
fn result_documents_capture_outcomes_for_later_inspection() {
    let example = paper_example_venue();
    let engine = IkrqEngine::new(example.venue.space.clone(), example.venue.directory.clone());
    let queries = example_queries(&example);
    let mut results = indoor_persist::ResultDocument::new("fig1 toe run");
    for q in &queries {
        let outcome = engine
            .execute(q, &ikrq_core::ExecOptions::default())
            .unwrap();
        results.push(q, outcome);
    }
    assert_eq!(results.len(), queries.len());
    assert!(results.mean_time_millis() >= 0.0);

    let text = json::to_json_string(&results).unwrap();
    let back: indoor_persist::ResultDocument = json::from_json_str(&text).unwrap();
    assert_eq!(back.len(), results.len());
    for (a, b) in results.results.iter().zip(&back.results) {
        assert_eq!(a.outcome.label, b.outcome.label);
        assert_eq!(a.outcome.results.len(), b.outcome.results.len());
    }
}
