//! Workspace-level integration tests for the persistence and visualisation
//! layers driven through the `ikrq` facade crate: capture a generated venue,
//! round-trip it through both document encodings, replay a saved workload on
//! the rebuilt venue, and render the resulting routes and figure charts.

use ikrq::persist::{binary, json, VenueDocument, WorkloadDocument};
use ikrq::prelude::*;
use ikrq::viz::{render_floor, render_routes_on_floor, ChartSeries, LineChart, RenderStyle};
use indoor_keywords::QueryKeywords;
use indoor_space::FloorId;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn synthetic_venue_survives_persistence_and_replays_a_saved_workload() {
    // Generate a single-floor synthetic mall and a small workload against it.
    let venue = Venue::synthetic(&SyntheticVenueConfig::small(23)).unwrap();
    let generator = QueryGenerator::new(&venue);
    let mut rng = StdRng::seed_from_u64(5);
    let config = WorkloadConfig {
        s2t: 500.0,
        qw_len: 2,
        k: 3,
        ..WorkloadConfig::default()
    };
    let instances = generator.generate_batch(&config, 2, &mut rng);
    assert!(!instances.is_empty());

    // Save venue + workload.
    let doc = VenueDocument::from_venue(&venue.space, &venue.directory, 25.0, Some("test".into()));
    let (space, directory) = doc.build().unwrap();
    let payload = binary::encode_venue_columnar(&doc, &space, &directory, None).unwrap();
    let mut workload = WorkloadDocument::new("integration workload");
    let queries: Vec<IkrqQuery> = instances
        .iter()
        .map(|instance| {
            IkrqQuery::new(
                instance.start,
                instance.terminal,
                instance.delta,
                QueryKeywords::new(instance.keywords.iter().cloned()).unwrap(),
                instance.k,
            )
            .with_alpha(instance.alpha)
            .with_tau(instance.tau)
        })
        .collect();
    for q in &queries {
        workload.push_query(q);
    }
    let workload_json = json::to_json_string(&workload).unwrap();

    // Reload everything and replay: the rebuilt venue must return identical
    // scores for every replayed query.
    let loaded = binary::load_venue_model(&payload).unwrap();
    let rebuilt_doc =
        VenueDocument::from_venue(&loaded.space, &loaded.directory, 25.0, loaded.name);
    assert_eq!(rebuilt_doc, doc);
    let original_engine = IkrqEngine::new(venue.space.clone(), venue.directory.clone());
    let rebuilt_engine = IkrqEngine::new(loaded.space, loaded.directory);
    let replayed: WorkloadDocument = json::from_json_str(&workload_json).unwrap();
    for (query, record) in queries.iter().zip(replayed.queries.iter()) {
        let replay_query = record.to_query().unwrap();
        let a = original_engine
            .execute(query, &ikrq_core::ExecOptions::default())
            .unwrap();
        let b = rebuilt_engine
            .execute(&replay_query, &ikrq_core::ExecOptions::default())
            .unwrap();
        assert_eq!(a.results.len(), b.results.len());
        for (ra, rb) in a.results.routes().iter().zip(b.results.routes()) {
            assert!((ra.score - rb.score).abs() < 1e-9);
            assert_eq!(ra.route.doors(), rb.route.doors());
        }
    }
}

#[test]
fn floorplans_routes_and_charts_render_through_the_facade() {
    let example = ikrq::data::paper_example_venue();
    let engine = IkrqEngine::new(example.venue.space.clone(), example.venue.directory.clone());

    // Floorplan with labels.
    let floor_svg = render_floor(
        engine.space(),
        Some(engine.directory()),
        FloorId(0),
        &RenderStyle::default(),
    )
    .unwrap();
    assert!(floor_svg.contains("samsung"));

    // Route overlay of a query result.
    let query = IkrqQuery::new(
        example.ps,
        example.pt,
        300.0,
        QueryKeywords::new(["coffee", "laptop"]).unwrap(),
        2,
    );
    let outcome = engine
        .execute(&query, &ikrq_core::ExecOptions::default())
        .unwrap();
    let routes: Vec<&indoor_space::Route> =
        outcome.results.routes().iter().map(|r| &r.route).collect();
    assert!(!routes.is_empty());
    let overlay =
        render_routes_on_floor(engine.space(), &routes, FloorId(0), &RenderStyle::default())
            .unwrap();
    assert!(overlay.contains("<polyline"));

    // A figure-style chart from measured running times.
    let mut chart = LineChart::new("time vs k", "k", "time (ms)");
    let mut points = Vec::new();
    for k in [1usize, 3, 5] {
        let mut q = query.clone();
        q.k = k;
        let o = engine
            .execute(&q, &ikrq_core::ExecOptions::default())
            .unwrap();
        points.push((k as f64, o.metrics.elapsed_millis().max(0.001)));
    }
    chart.push_series(ChartSeries::new("ToE", points));
    let chart_svg = chart.to_svg().unwrap();
    assert!(chart_svg.contains("series-0"));
    assert!(chart_svg.contains("time vs k"));
}

#[test]
fn extensions_compose_with_generated_venues_through_the_facade() {
    use ikrq::core::extensions::{PopularityModel, SoftDeltaConfig, VisitCountPopularity};

    let venue = Venue::synthetic(&SyntheticVenueConfig::small(31)).unwrap();
    let engine = IkrqEngine::new(venue.space.clone(), venue.directory.clone());
    let generator = QueryGenerator::new(&venue);
    let mut rng = StdRng::seed_from_u64(11);
    let config = WorkloadConfig {
        s2t: 500.0,
        qw_len: 2,
        k: 4,
        ..WorkloadConfig::default()
    };
    let Some(instance) = generator.generate(&config, &mut rng) else {
        panic!("workload generation must succeed on the small synthetic venue");
    };
    let query = IkrqQuery::new(
        instance.start,
        instance.terminal,
        instance.delta,
        QueryKeywords::new(instance.keywords.iter().cloned()).unwrap(),
        instance.k,
    )
    .with_alpha(instance.alpha)
    .with_tau(instance.tau);

    let hard = engine
        .execute(&query, &ikrq_core::ExecOptions::default())
        .unwrap();
    let soft = engine
        .search_soft(&query, VariantConfig::toe(), SoftDeltaConfig::default())
        .unwrap();
    assert!(soft.routes.len() >= hard.results.len().min(query.k));

    let popularity =
        VisitCountPopularity::from_routes(hard.results.routes().iter().map(|r| &r.route));
    let reranked = engine
        .search_with_popularity(
            &query,
            VariantConfig::toe(),
            &popularity,
            PopularityModel::new(0.25),
            2,
        )
        .unwrap();
    assert!(reranked.len() <= query.k);
    for pair in reranked.windows(2) {
        assert!(pair[0].combined_score + 1e-9 >= pair[1].combined_score);
    }
}
