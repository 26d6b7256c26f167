//! Persist-and-render tour: capture a venue into a portable document, save it
//! as JSON and as the compact binary venue file, reload it, run an IKRQ
//! against the reloaded venue, apply the two optional extensions (soft
//! distance constraint and popularity re-ranking), and render the best route
//! as SVG.
//!
//! ```text
//! cargo run --example persist_and_render
//! ```
//!
//! Output files are written to `target/persist_and_render/`.

use ikrq::core::extensions::{PopularityModel, SoftDeltaConfig, VisitCountPopularity};
use ikrq::persist::{binary, json, VenueDocument, WorkloadDocument};
use ikrq::prelude::*;
use ikrq::viz::{render_routes_on_floor, RenderStyle};
use indoor_keywords::QueryKeywords;
use indoor_space::FloorId;
use std::path::PathBuf;

fn main() {
    let out_dir = PathBuf::from("target/persist_and_render");
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    // 1. Build the Fig. 1 example venue and capture it into a document.
    let example = indoor_data::paper_example_venue();
    let doc = VenueDocument::from_venue(
        &example.venue.space,
        &example.venue.directory,
        10.0,
        Some("fig1-example".into()),
    );
    let json_path = out_dir.join("venue.json");
    let bin_path = out_dir.join("venue.ikrq");
    json::save_venue_json(&doc, &json_path).expect("save JSON venue");
    let (space, directory) = doc.build().expect("rebuild venue");
    binary::save_venue_columnar(&doc, &space, &directory, None, &bin_path)
        .expect("save binary venue");
    println!(
        "saved venue: {} ({} bytes JSON, {} bytes binary)",
        doc.name.as_deref().unwrap_or("unnamed"),
        std::fs::metadata(&json_path).unwrap().len(),
        std::fs::metadata(&bin_path).unwrap().len(),
    );

    // 2. Reload both files through the one venue loader, which tells them
    //    apart by content. The two encodings describe exactly the same model.
    let from_json = binary::load_venue_model_file(&json_path).expect("load JSON venue");
    let reloaded = binary::load_venue_model_file(&bin_path).expect("load binary venue");
    assert_eq!(
        from_json.directory.fingerprint(),
        reloaded.directory.fingerprint()
    );
    let service = IkrqService::new();
    let engine = service
        .register_venue("fig1-example", reloaded.space, reloaded.directory)
        .expect("venue registers");

    // 3. The running-example query, saved into a replayable workload.
    let query = IkrqQuery::new(
        example.ps,
        example.pt,
        300.0,
        QueryKeywords::new(["coffee", "laptop"]).expect("keywords"),
        3,
    )
    .with_alpha(0.5)
    .with_tau(0.1);
    let mut workload = WorkloadDocument::new("persist_and_render example workload");
    workload.venue = Some("fig1-example".into());
    workload.push_query(&query);
    json::save_workload_json(&workload, out_dir.join("workload.json")).expect("save workload");

    // 4. Answer the query on the reloaded venue through the service.
    let request = SearchRequest::builder("fig1-example")
        .query(query.clone())
        .build()
        .expect("valid request");
    let outcome = service.search(&request).expect("search").to_outcome();
    println!("\n{} routes ({}):", outcome.results.len(), outcome.label);
    for (i, route) in outcome.results.routes().iter().enumerate() {
        println!(
            "  #{} score {:.3}  relevance {:.2}  distance {:.1} m",
            i + 1,
            route.score,
            route.relevance,
            route.distance
        );
    }

    // 5. Soft distance constraint: admit routes up to 25% above the budget
    //    with a penalty on the overrun.
    let soft = engine
        .search_soft(&query, VariantConfig::toe(), SoftDeltaConfig::default())
        .expect("soft search");
    println!(
        "\nsoft constraint (∆' = {:.0} m): {} routes, {} over the hard ∆",
        soft.relaxed_delta,
        soft.routes.len(),
        soft.num_over_delta()
    );

    // 6. Popularity re-ranking: prefer routes through partitions visited by
    //    earlier results (a stand-in for mobility data).
    let popularity =
        VisitCountPopularity::from_routes(outcome.results.routes().iter().map(|r| &r.route));
    let reranked = engine
        .search_with_popularity(
            &query,
            VariantConfig::toe(),
            &popularity,
            PopularityModel::new(0.3),
            2,
        )
        .expect("popularity search");
    println!("popularity re-ranking (γ = 0.3):");
    for (i, r) in reranked.iter().enumerate() {
        println!(
            "  #{} combined {:.3}  ψ {:.3}  popularity {:.2}",
            i + 1,
            r.combined_score,
            r.result.score,
            r.popularity
        );
    }

    // 7. Render the top routes over the floorplan.
    let routes: Vec<&indoor_space::Route> =
        outcome.results.routes().iter().map(|r| &r.route).collect();
    let svg = render_routes_on_floor(engine.space(), &routes, FloorId(0), &RenderStyle::default())
        .expect("render routes");
    let svg_path = out_dir.join("routes.svg");
    std::fs::write(&svg_path, svg).expect("write SVG");
    println!("\nwrote {}", svg_path.display());
}
