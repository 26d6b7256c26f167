//! Integration tests of the IKRQ engine on a generated synthetic venue
//! (single floor of the §V-A1 mall), exercising the full pipeline:
//! floorplan generation → keyword extraction/assignment → workload
//! generation → ToE/KoE search with all variants.

use ikrq_core::prelude::*;
use indoor_data::{
    mega_venue, MegaVenueConfig, QueryGenerator, SyntheticVenueConfig, Venue, WorkloadConfig,
};
use indoor_keywords::QueryKeywords;
use indoor_space::DoorId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

fn build_engine(seed: u64) -> (Venue, IkrqEngine) {
    let venue = Venue::synthetic(&SyntheticVenueConfig::small(seed)).unwrap();
    let engine = IkrqEngine::new(venue.space.clone(), venue.directory.clone());
    (venue, engine)
}

fn to_query(instance: &indoor_data::QueryInstance) -> IkrqQuery {
    IkrqQuery::new(
        instance.start,
        instance.terminal,
        instance.delta,
        QueryKeywords::new(instance.keywords.iter().cloned()).unwrap(),
        instance.k,
    )
    .with_alpha(instance.alpha)
    .with_tau(instance.tau)
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        s2t: 600.0,
        qw_len: 3,
        k: 5,
        ..WorkloadConfig::default()
    }
}

#[test]
fn generated_workload_queries_run_on_all_variants() {
    let (venue, engine) = build_engine(21);
    let generator = QueryGenerator::new(&venue);
    let mut rng = StdRng::seed_from_u64(7);
    let instances = generator.generate_batch(&workload(), 3, &mut rng);
    assert!(!instances.is_empty(), "workload generation must succeed");

    for instance in &instances {
        let query = to_query(instance);
        let outcomes = engine.search_all_variants(&query).unwrap();
        assert_eq!(outcomes.len(), 7);
        // The connect heuristic of Algorithm 5 (followed by the paper's ToE
        // pseudocode) stops expanding stamps that reached the terminal
        // partition, so default ToE can miss routes that re-exit it; KoE
        // formulates expansion on key partitions and has no such blind spot.
        // ToE with strict terminal expansion recovers exactly KoE's best
        // score, so it is the reference here. See ROADMAP.md open items.
        let reference = engine
            .execute(
                &query,
                &ExecOptions::with_variant(VariantConfig::toe().with_strict_terminal_expansion()),
            )
            .unwrap()
            .results
            .best()
            .map(|r| r.score);
        let toe_best = outcomes[0].results.best().map(|r| r.score);
        for (index, outcome) in outcomes.iter().enumerate() {
            let family_reference = if index < 3 { toe_best } else { reference };
            // Every returned route satisfies the hard constraints.
            for route in outcome.results.routes() {
                assert!(route.distance <= query.delta + 1e-6, "{}", outcome.label);
                assert!(route.route.is_regular(), "{}", outcome.label);
                assert!(route.route.is_complete(), "{}", outcome.label);
                let recomputed = route.route.distance(engine.space());
                assert!(
                    (recomputed - route.distance).abs() < 1e-6,
                    "{}: stored distance must match the route",
                    outcome.label
                );
            }
            // Pruning rules must not change the best achievable score
            // within an expansion family, and no variant may beat the
            // strict-terminal-expansion reference.
            if let (Some(family_reference), Some(best)) =
                (family_reference, outcome.results.best().map(|r| r.score))
            {
                assert!(
                    (best - family_reference).abs() < 1e-6,
                    "{}: best score {best} differs from its family reference \
                     {family_reference} (instance keywords {:?})",
                    outcome.label,
                    instance.keywords
                );
            }
            if let (Some(reference), Some(best)) =
                (reference, outcome.results.best().map(|r| r.score))
            {
                assert!(
                    best <= reference + 1e-6,
                    "{}: best score {best} exceeds the strict-expansion \
                     reference {reference}",
                    outcome.label
                );
            }
            // Prime enforcement keeps the result set diverse.
            assert_eq!(outcome.results.homogeneous_rate(), 0.0, "{}", outcome.label);
        }
    }
}

/// A 16-seed sweep of the two core score invariants, each seed on a fresh
/// synthetic venue with one generated workload instance:
///
/// * **within-family agreement** — pruning rules never change the best
///   achievable score, so ToE and ToE\D agree, and KoE agrees with the
///   strict-terminal-expansion ToE reference (the two formulations of the
///   complete expansion);
/// * **strict upper bound** — no paper-faithful variant beats the strict
///   reference (the Algorithm 5 connect heuristic can only lose routes,
///   never invent better ones).
///
/// The sweep buys its breadth (16 distinct venues) with per-seed
/// cheapness: a down-scaled mall (1 floor, 4 segments and 4 rooms per arm
/// side — ~53 partitions / 68 doors instead of `small()`'s 141/220), so
/// the whole sweep stays well inside the default suite's seconds budget.
/// Seed 33's deep-dive on the full `small()` venue below covers the
/// behavioural difference itself.
#[test]
fn seeded_sweep_pins_family_agreement_and_the_strict_upper_bound() {
    let seeds: [u64; 16] = [
        21, 33, 55, 77, 88, 101, 123, 147, 169, 202, 233, 271, 314, 379, 421, 500,
    ];
    let score = |outcome: &ikrq_core::SearchOutcome| outcome.results.best().map(|r| r.score);
    let mut scored_seeds = 0usize;
    for &seed in &seeds {
        let mut config = SyntheticVenueConfig::small(seed);
        config.mall = indoor_data::MallConfig {
            floors: 1,
            segments_per_arm: 4,
            rooms_per_arm_side: 4,
            two_door_rooms_per_arm_side: 2,
            ..indoor_data::MallConfig::default()
        };
        let venue = Venue::synthetic(&config).unwrap();
        let engine = IkrqEngine::new(venue.space.clone(), venue.directory.clone());
        let generator = QueryGenerator::new(&venue);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let instance = generator
            .generate(&workload(), &mut rng)
            .expect("workload generation succeeds on every sweep seed");
        let query = to_query(&instance);

        let run = |options: &ExecOptions| engine.execute(&query, options).unwrap();
        let toe = run(&ExecOptions::with_variant(VariantConfig::toe()));
        let toe_no_distance = run(&ExecOptions::with_variant(VariantConfig::toe_no_distance()));
        let strict = run(&ExecOptions::with_variant(
            VariantConfig::toe().with_strict_terminal_expansion(),
        ));
        let koe = run(&ExecOptions::with_variant(VariantConfig::koe()));

        // Within-family agreement: pruning ablations do not move the best
        // score, and KoE recovers exactly the strict ToE reference.
        match (score(&toe), score(&toe_no_distance)) {
            (Some(a), Some(b)) => {
                assert!((a - b).abs() < 1e-6, "seed {seed}: ToE {a} != ToE\\D {b}")
            }
            (a, b) => assert_eq!(
                a.is_some(),
                b.is_some(),
                "seed {seed}: ToE family disagrees on feasibility"
            ),
        }
        match (score(&koe), score(&strict)) {
            (Some(a), Some(b)) => assert!(
                (a - b).abs() < 1e-6,
                "seed {seed}: KoE {a} != strict reference {b}"
            ),
            (a, b) => assert_eq!(
                a.is_some(),
                b.is_some(),
                "seed {seed}: KoE and the strict reference disagree on feasibility"
            ),
        }
        // Strict upper bound: the paper-faithful expansions never beat it.
        if let Some(reference) = score(&strict) {
            for (label, outcome) in [("ToE", &toe), ("ToE\\D", &toe_no_distance), ("KoE", &koe)] {
                if let Some(best) = score(outcome) {
                    assert!(
                        best <= reference + 1e-6,
                        "seed {seed}: {label} best {best} exceeds the strict \
                         reference {reference}"
                    );
                }
            }
            scored_seeds += 1;
        } else {
            // The strict expansion searches a superset of routes: if it
            // found nothing, nobody else may have either.
            assert!(
                score(&toe).is_none() && score(&koe).is_none(),
                "seed {seed}: a variant found a route the strict reference missed"
            );
        }
    }
    assert!(
        scored_seeds >= 12,
        "only {scored_seeds}/16 sweep seeds produced scoreable instances; \
         the sweep lost its teeth — pick better seeds"
    );
}

/// The request-level `ExecOptions::strict_terminal_expansion` override must
/// behave exactly like the variant-level ablation — and actually change ToE
/// results somewhere on the synthetic venue, otherwise surfacing it on the
/// wire protocol would be pointless.
#[test]
fn exec_options_strict_override_matches_the_variant_ablation_and_changes_results() {
    let mut observed_difference = false;
    // Seed 33's first workload instance is a known exhibit of the blind
    // spot (verified by sweeping seeds 21/33/55/77); pinning it keeps the
    // debug-mode runtime in seconds.
    let seed = 33u64;
    let (venue, engine) = build_engine(seed);
    let generator = QueryGenerator::new(&venue);
    let mut rng = StdRng::seed_from_u64(seed ^ 7);
    for instance in generator.generate_batch(&workload(), 2, &mut rng) {
        let query = to_query(&instance);
        let plain = engine.execute(&query, &ExecOptions::default()).unwrap();
        let via_options = engine
            .execute(
                &query,
                &ExecOptions::default().with_strict_terminal_expansion(true),
            )
            .unwrap();
        let via_variant = engine
            .execute(
                &query,
                &ExecOptions::with_variant(VariantConfig::toe().with_strict_terminal_expansion()),
            )
            .unwrap();
        // Override == ablation, route for route.
        assert_eq!(
            serde_json::to_string(&via_options.results).unwrap(),
            serde_json::to_string(&via_variant.results).unwrap(),
            "request-level override must equal the variant-level ablation"
        );
        // `Some(false)` forces the paper-faithful behaviour back on.
        let forced_off = engine
            .execute(
                &query,
                &ExecOptions::with_variant(VariantConfig::toe().with_strict_terminal_expansion())
                    .with_strict_terminal_expansion(false),
            )
            .unwrap();
        assert_eq!(
            serde_json::to_string(&forced_off.results).unwrap(),
            serde_json::to_string(&plain.results).unwrap(),
            "Some(false) must reproduce default ToE"
        );
        let plain_best = plain.results.best().map(|r| r.score).unwrap_or(0.0);
        let strict_best = via_options.results.best().map(|r| r.score).unwrap_or(0.0);
        assert!(
            strict_best + 1e-6 >= plain_best,
            "strict expansion only helps"
        );
        if strict_best > plain_best + 1e-6 {
            observed_difference = true;
        }
    }
    assert!(
        observed_difference,
        "no instance exposed the Algorithm 5 connect-heuristic blind spot; \
         the strict override would be untestable on this venue"
    );
}

#[test]
fn pruning_reduces_search_effort_without_losing_quality() {
    let (venue, engine) = build_engine(33);
    let generator = QueryGenerator::new(&venue);
    let mut rng = StdRng::seed_from_u64(11);
    let instance = generator
        .generate(&workload(), &mut rng)
        .expect("workload instance");
    let query = to_query(&instance);

    let toe = engine
        .execute(
            &query,
            &ikrq_core::ExecOptions::with_variant(VariantConfig::toe()),
        )
        .unwrap();
    let toe_no_distance = engine
        .execute(
            &query,
            &ExecOptions::with_variant(VariantConfig::toe_no_distance()),
        )
        .unwrap();
    // Distance pruning can only reduce the number of expanded stamps.
    assert!(toe.metrics.stamps_expanded <= toe_no_distance.metrics.stamps_expanded);
    // And both find the same best score.
    let a = toe.results.best().map(|r| r.score).unwrap_or(0.0);
    let b = toe_no_distance
        .results
        .best()
        .map(|r| r.score)
        .unwrap_or(0.0);
    assert!((a - b).abs() < 1e-6);
    // Pruning statistics are populated when rules are active.
    assert!(toe.metrics.prunes.total() > 0);
}

#[test]
fn koe_star_reuses_precomputed_paths() {
    let (venue, engine) = build_engine(55);
    let generator = QueryGenerator::new(&venue);
    let mut rng = StdRng::seed_from_u64(3);
    let instance = generator
        .generate(&workload(), &mut rng)
        .expect("workload instance");
    let query = to_query(&instance);
    let koe = engine
        .execute(
            &query,
            &ikrq_core::ExecOptions::with_variant(VariantConfig::koe()),
        )
        .unwrap();
    let koe_star = engine
        .execute(
            &query,
            &ikrq_core::ExecOptions::with_variant(VariantConfig::koe_star()),
        )
        .unwrap();
    let a = koe.results.best().map(|r| r.score).unwrap_or(0.0);
    let b = koe_star.results.best().map(|r| r.score).unwrap_or(0.0);
    assert!((a - b).abs() < 1e-6, "KoE* must not change the results");
    // KoE* charges the door row it expands a stamp from to its memory
    // footprint, so it is never cheaper in memory than KoE (Fig. 14 of the
    // paper).
    assert!(koe_star.metrics.peak_memory_bytes >= koe.metrics.peak_memory_bytes);
}

/// KoE* holds one door row at a time and drops it with the expansion, so
/// at a wide `∆` on a mega venue its memory peak stays within a fixed
/// number of rows of KoE's, however many stamps it expands.
#[test]
fn koe_star_memory_stays_within_two_rows_of_koe_at_a_wide_delta() {
    let venue = mega_venue(&MegaVenueConfig::sized(1_000, 42)).unwrap();
    let engine = IkrqEngine::new(venue.space.clone(), venue.directory.clone());
    let row_bytes = venue
        .space
        .shortest_paths()
        .from_door(DoorId(0), &HashSet::new())
        .estimated_bytes();
    let workload = WorkloadConfig {
        qw_len: 3,
        s2t: 150.0,
        // ∆ = 3 · δs2t: the widest budget the experiments use.
        eta: 3.0,
        k: 3,
        ..WorkloadConfig::default()
    };
    let instances =
        QueryGenerator::new(&venue).generate_batch(&workload, 4, &mut StdRng::seed_from_u64(11));
    assert!(!instances.is_empty(), "workload generation must succeed");
    let mut door_stamps = 0;
    for instance in &instances {
        let query = to_query(instance);
        let run = |variant| {
            engine
                .execute(&query, &ikrq_core::ExecOptions::with_variant(variant))
                .unwrap()
        };
        let (koe, koe_star) = (run(VariantConfig::koe()), run(VariantConfig::koe_star()));
        let best = |o: &SearchOutcome| o.results.best().map(|r| r.score);
        assert_eq!(best(&koe), best(&koe_star));
        let (a, b) = (
            koe.metrics.peak_memory_bytes,
            koe_star.metrics.peak_memory_bytes,
        );
        assert!(
            a <= b && b <= a + 2 * row_bytes,
            "KoE {a} B, KoE* {b} B, row {row_bytes} B"
        );
        door_stamps += koe_star.metrics.stamps_expanded - 1;
    }
    // Enough door stamps that rows kept for the whole search would exceed
    // the bound.
    assert!(
        door_stamps >= 3 * instances.len() as u64,
        "{door_stamps} door stamps"
    );
}

#[test]
fn larger_k_never_decreases_result_count() {
    let (venue, engine) = build_engine(77);
    let generator = QueryGenerator::new(&venue);
    let mut rng = StdRng::seed_from_u64(13);
    let instance = generator
        .generate(&workload(), &mut rng)
        .expect("workload instance");
    let mut previous = 0usize;
    for k in [1usize, 3, 7] {
        let mut query = to_query(&instance);
        query.k = k;
        let outcome = engine
            .execute(&query, &ikrq_core::ExecOptions::default())
            .unwrap();
        assert!(outcome.results.len() >= previous.min(k));
        assert!(outcome.results.len() <= k);
        previous = outcome.results.len();
    }
}

#[test]
fn alpha_extremes_change_the_ranking_focus() {
    let (venue, engine) = build_engine(88);
    let generator = QueryGenerator::new(&venue);
    let mut rng = StdRng::seed_from_u64(17);
    let instance = generator
        .generate(&workload(), &mut rng)
        .expect("workload instance");

    // α = 0: pure distance — the best route is (one of) the shortest.
    let mut spatial = to_query(&instance);
    spatial.alpha = 0.0;
    let spatial_outcome = engine
        .execute(&spatial, &ikrq_core::ExecOptions::default())
        .unwrap();
    // α = 1: pure keywords — the best route has maximal relevance among found.
    let mut keyword = to_query(&instance);
    keyword.alpha = 1.0;
    let keyword_outcome = engine
        .execute(&keyword, &ikrq_core::ExecOptions::default())
        .unwrap();
    if let (Some(s), Some(k)) = (
        spatial_outcome.results.best(),
        keyword_outcome.results.best(),
    ) {
        assert!(s.distance <= k.distance + 1e-6 || k.relevance >= s.relevance - 1e-9);
    }
}
