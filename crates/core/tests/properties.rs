//! Property-based tests of the IKRQ engine invariants on the paper-example
//! venue: for arbitrary query parameters the search must respect the distance
//! constraint, the regularity principle, the ranking-score definition and the
//! prime/diversity guarantees. A later block checks KoE* against KoE on
//! generated mega venues, where `∆` leaves part of the venue out of reach,
//! and the last one checks queries whose start and terminal share a
//! partition.

use ikrq_core::prelude::*;
use ikrq_core::IndexMode;
use indoor_data::{
    mega_venue, paper_example_venue, MegaVenueConfig, QueryGenerator, WorkloadConfig,
};
use indoor_keywords::{PreparedQuery, QueryKeywords, RelevanceModel};
use indoor_space::{IndoorPoint, Route};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The keyword universe of the example venue (i-words and t-words mixed).
const WORDS: &[&str] = &[
    "zara",
    "apple",
    "samsung",
    "oppo",
    "costa",
    "starbucks",
    "ecco",
    "bank",
    "watsons",
    "coffee",
    "latte",
    "phone",
    "laptop",
    "earphone",
    "pants",
    "shoes",
    "euro",
    "shampoo",
    "unknownword",
];

fn keyword_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        proptest::sample::select(WORDS).prop_map(str::to_string),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn search_invariants_hold_for_arbitrary_queries(
        keywords in keyword_strategy(),
        alpha in 0.0f64..=1.0,
        tau in 0.05f64..=0.4,
        delta in 120.0f64..400.0,
        k in 1usize..6,
        use_koe in proptest::bool::ANY,
    ) {
        let example = paper_example_venue();
        let engine = IkrqEngine::new(
            example.venue.space.clone(),
            example.venue.directory.clone(),
        );
        let query = IkrqQuery::new(
            example.ps,
            example.pt,
            delta,
            QueryKeywords::new(keywords.clone()).unwrap(),
            k,
        )
        .with_alpha(alpha)
        .with_tau(tau);
        let config = if use_koe { VariantConfig::koe() } else { VariantConfig::toe() };
        let outcome = engine.execute(&query, &ikrq_core::ExecOptions::with_variant(config)).unwrap();
        let prepared = indoor_keywords::PreparedQuery::prepare(
            &query.keywords,
            engine.directory(),
            tau,
        ).unwrap();
        let ranking = RankingModel::new(alpha, delta, keywords.len());

        // At most k results, sorted by score.
        prop_assert!(outcome.results.len() <= k);
        let mut previous = f64::INFINITY;
        for result in outcome.results.routes() {
            prop_assert!(result.score <= previous + 1e-9);
            previous = result.score;

            // Hard constraints of Problem 1.
            prop_assert!(result.distance <= delta + 1e-6);
            prop_assert!(result.route.is_complete());
            prop_assert!(result.route.is_regular());

            // Reported quantities are consistent with the definitions.
            let distance = result.route.distance(engine.space());
            prop_assert!((distance - result.distance).abs() < 1e-6);
            let relevance = RelevanceModel::relevance_of_route(
                &result.route,
                engine.space(),
                engine.directory(),
                &prepared,
            );
            prop_assert!((relevance - result.relevance).abs() < 1e-6);
            let score = ranking.score(result.relevance, result.distance);
            prop_assert!((score - result.score).abs() < 1e-6);
            // Relevance range of Definition 6.
            prop_assert!(result.relevance >= 0.0);
            prop_assert!(result.relevance <= keywords.len() as f64 + 1.0 + 1e-9);
        }

        // The result set is diverse (no homogeneous pair) for prime-enforcing
        // variants.
        prop_assert_eq!(outcome.results.homogeneous_rate(), 0.0);

        // With a satisfiable constraint there is always at least the direct
        // route.
        prop_assert!(!outcome.results.is_empty());
    }

    #[test]
    fn toe_and_exhaustive_never_beat_each_other_on_small_budgets(
        alpha in 0.1f64..=0.9,
        delta in 130.0f64..220.0,
    ) {
        let example = paper_example_venue();
        let engine = IkrqEngine::new(
            example.venue.space.clone(),
            example.venue.directory.clone(),
        );
        let query = IkrqQuery::new(
            example.ps,
            example.pt,
            delta,
            QueryKeywords::new(["coffee", "apple"]).unwrap(),
            2,
        )
        .with_alpha(alpha)
        .with_tau(0.1);
        let toe = engine.execute(&query, &ikrq_core::ExecOptions::default()).unwrap();
        let exhaustive = ExhaustiveBaseline::default()
            .search(engine.space(), engine.directory(), &query)
            .unwrap();
        prop_assert!(!exhaustive.metrics.budget_exhausted);
        let toe_best = toe.results.best().map(|r| r.score).unwrap_or(0.0);
        let exhaustive_best = exhaustive.results.best().map(|r| r.score).unwrap_or(0.0);
        prop_assert!((toe_best - exhaustive_best).abs() < 1e-6,
            "ToE best {} vs exhaustive best {}", toe_best, exhaustive_best);
    }

    /// Pruning safety: the `\D` and `\B` ablations (and KoE*'s door
    /// rows) only change how much work the search does, never the
    /// best route it returns. The comparison is made *within* each expansion
    /// family because the paper's connect heuristic (Algorithm 5) finishes
    /// every stamp that reaches the terminal partition, so plain ToE can miss
    /// a keyword shop that is only reachable through the terminal partition —
    /// a case KoE's keyword-directed jumps do cover (see DESIGN.md). The
    /// `strict_terminal_expansion` ablation removes that blind spot, so
    /// strict ToE must always be at least as good as paper-faithful ToE.
    #[test]
    fn pruning_ablations_are_safe_within_each_expansion_family(
        keywords in keyword_strategy(),
        alpha in 0.1f64..=0.9,
        delta in 150.0f64..350.0,
        k in 1usize..4,
    ) {
        let example = paper_example_venue();
        let engine = IkrqEngine::new(
            example.venue.space.clone(),
            example.venue.directory.clone(),
        );
        let query = IkrqQuery::new(
            example.ps,
            example.pt,
            delta,
            QueryKeywords::new(keywords).unwrap(),
            k,
        )
        .with_alpha(alpha)
        .with_tau(0.1);

        let families: [&[VariantConfig]; 2] = [
            &[
                VariantConfig::toe(),
                VariantConfig::toe_no_distance(),
                VariantConfig::toe_no_kbound(),
            ],
            &[
                VariantConfig::koe(),
                VariantConfig::koe_no_distance(),
                VariantConfig::koe_no_kbound(),
                VariantConfig::koe_star(),
            ],
        ];
        for family in families {
            let mut best_scores = Vec::new();
            for &variant in family {
                let outcome = engine.execute(&query, &ikrq_core::ExecOptions::with_variant(variant)).unwrap();
                prop_assert!(!outcome.results.is_empty(), "{} found nothing", outcome.label);
                for r in outcome.results.routes() {
                    prop_assert!(r.distance <= delta + 1e-6, "{} exceeded ∆", outcome.label);
                    prop_assert!(r.route.is_regular());
                }
                best_scores.push((outcome.label.clone(), outcome.results.best().unwrap().score));
            }
            let reference = best_scores[0].1;
            for (label, score) in &best_scores {
                prop_assert!(
                    (score - reference).abs() < 1e-6,
                    "{label} best score {score} differs from the family reference {reference}"
                );
            }
        }

        // Expanding stamps beyond the terminal partition can only help.
        let plain = engine.execute(&query, &ikrq_core::ExecOptions::default()).unwrap();
        let strict = engine
            .execute(
                &query,
                &ikrq_core::ExecOptions::with_variant(
                    VariantConfig::toe().with_strict_terminal_expansion(),
                ),
            )
            .unwrap();
        let plain_best = plain.results.best().map(|r| r.score).unwrap_or(0.0);
        let strict_best = strict.results.best().map(|r| r.score).unwrap_or(0.0);
        prop_assert!(
            strict_best + 1e-6 >= plain_best,
            "strict ToE best {strict_best} fell below paper ToE best {plain_best}"
        );
    }

    /// The soft distance constraint is a relaxation: zero slack reproduces
    /// the hard result exactly, and any slack never lowers the best soft
    /// score below the hard best (every hard route is still admissible).
    #[test]
    fn soft_constraint_is_a_relaxation(
        slack in 0.0f64..0.8,
        alpha in 0.1f64..=0.9,
        delta in 150.0f64..300.0,
    ) {
        use ikrq_core::SoftDeltaConfig;
        let example = paper_example_venue();
        let engine = IkrqEngine::new(
            example.venue.space.clone(),
            example.venue.directory.clone(),
        );
        let query = IkrqQuery::new(
            example.ps,
            example.pt,
            delta,
            QueryKeywords::new(["coffee", "laptop"]).unwrap(),
            3,
        )
        .with_alpha(alpha)
        .with_tau(0.1);

        let hard = engine.execute(&query, &ikrq_core::ExecOptions::default()).unwrap();
        let hard_best = hard.results.best().map(|r| r.score).unwrap_or(0.0);

        let soft = engine
            .search_soft(&query, VariantConfig::toe(), SoftDeltaConfig::with_slack(slack))
            .unwrap();
        prop_assert!(!soft.routes.is_empty());
        let soft_best = soft.routes[0].soft_score;
        prop_assert!(
            soft_best + 1e-6 >= hard_best,
            "soft best {soft_best} fell below hard best {hard_best}"
        );
        // Routes within ∆ keep their hard score; routes beyond it are only
        // admitted when slack > 0.
        for r in &soft.routes {
            if r.exceeds_hard_delta {
                prop_assert!(slack > 0.0);
                prop_assert!(r.result.distance <= delta * (1.0 + slack) + 1e-6);
            }
        }
        if slack == 0.0 {
            prop_assert_eq!(soft.routes.len(), hard.results.len());
        }
    }

    /// Popularity re-ranking with weight 0 is the identity on the returned
    /// order, and with any weight it returns a permutation of the
    /// oversampled result prefix whose combined scores are sorted.
    #[test]
    fn popularity_reranking_is_an_order_preserving_relaxation(
        weight in 0.0f64..=1.0,
        delta in 180.0f64..350.0,
    ) {
        use ikrq_core::{PopularityModel, VisitCountPopularity};
        let example = paper_example_venue();
        let engine = IkrqEngine::new(
            example.venue.space.clone(),
            example.venue.directory.clone(),
        );
        let query = IkrqQuery::new(
            example.ps,
            example.pt,
            delta,
            QueryKeywords::new(["coffee"]).unwrap(),
            3,
        )
        .with_tau(0.1);

        let plain = engine.execute(&query, &ikrq_core::ExecOptions::default()).unwrap();
        let popularity = VisitCountPopularity::from_routes(
            plain.results.routes().iter().map(|r| &r.route),
        );
        let ranked = engine
            .search_with_popularity(
                &query,
                VariantConfig::toe(),
                &popularity,
                PopularityModel::new(weight),
                2,
            )
            .unwrap();
        prop_assert!(ranked.len() <= query.k);
        for pair in ranked.windows(2) {
            prop_assert!(pair[0].combined_score + 1e-9 >= pair[1].combined_score);
        }
        for r in &ranked {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r.popularity));
            let expected = (1.0 - weight) * r.result.score + weight * r.popularity;
            prop_assert!((r.combined_score - expected).abs() < 1e-9);
        }
        if weight == 0.0 {
            for (a, b) in plain.results.routes().iter().zip(&ranked) {
                prop_assert!((a.score - b.result.score).abs() < 1e-9);
            }
        }
    }
}

proptest! {
    // Each case builds a venue and runs KoE and KoE* on a few queries.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// KoE* takes its jumps from door paths computed without exclusions
    /// and bounded by the remaining budget, and drops a target such a run
    /// leaves unsettled. On venues larger than the `∆`-ball that must
    /// still find KoE's best route, and only regular routes within `∆`.
    #[test]
    fn koe_star_matches_koe_where_delta_cuts_the_venue(
        partitions in 40usize..240,
        venue_seed in 0u64..1_000,
        workload_seed in 0u64..1_000,
        eta in 1.2f64..3.0,
        k in 1usize..5,
    ) {
        let venue = mega_venue(&MegaVenueConfig::sized(partitions, venue_seed)).unwrap();
        let engine = IkrqEngine::new(venue.space.clone(), venue.directory.clone());
        let workload = WorkloadConfig {
            qw_len: 3,
            beta: 0.5,
            // Short trips: ∆ = η · δs2t leaves most of these venues out of
            // reach of the start.
            s2t: 60.0,
            eta,
            k,
            alpha: 0.5,
            tau: 0.3,
        };
        let instances = QueryGenerator::new(&venue).generate_batch(
            &workload,
            3,
            &mut StdRng::seed_from_u64(workload_seed),
        );
        prop_assert!(!instances.is_empty());
        for instance in &instances {
            let query = IkrqQuery::new(
                instance.start,
                instance.terminal,
                instance.delta,
                QueryKeywords::new(instance.keywords.iter().cloned()).unwrap(),
                instance.k,
            )
            .with_alpha(instance.alpha)
            .with_tau(instance.tau);
            let koe = engine
                .execute(&query, &ExecOptions::with_variant(VariantConfig::koe()))
                .unwrap();
            let koe_star = engine
                .execute(&query, &ExecOptions::with_variant(VariantConfig::koe_star()))
                .unwrap();
            let best = |outcome: &SearchOutcome| outcome.results.best().map(|r| r.score);
            match (best(&koe), best(&koe_star)) {
                (Some(a), Some(b)) => prop_assert!(
                    (a - b).abs() < 1e-6,
                    "KoE best {a} vs KoE* best {b}"
                ),
                (a, b) => prop_assert_eq!(a, b),
            }
            for r in koe_star.results.routes() {
                prop_assert!(r.route.is_complete());
                prop_assert!(r.route.is_regular());
                prop_assert!(r.distance <= query.delta + 1e-6, "{} > ∆ {}", r.distance, query.delta);
            }
        }
    }
}

proptest! {
    // Each case builds a venue and runs every variant on both engines.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// When `ps` and `pt` share a partition, the direct route `(ps, pt)` is
    /// a regular route within `∆`, so every Table III variant on both
    /// engines must return a route scoring at least as well as it.
    #[test]
    fn same_partition_queries_score_at_least_the_direct_route(
        partitions in 40usize..160,
        venue_seed in 0u64..1_000,
        workload_seed in 0u64..1_000,
        fx in 0.05f64..0.95,
        fy in 0.05f64..0.95,
        k in 1usize..4,
    ) {
        let venue = mega_venue(&MegaVenueConfig::sized(partitions, venue_seed)).unwrap();
        let workload = WorkloadConfig {
            qw_len: 2,
            beta: 0.5,
            s2t: 60.0,
            eta: 2.0,
            k,
            alpha: 0.5,
            tau: 0.3,
        };
        let instances = QueryGenerator::new(&venue).generate_batch(
            &workload,
            1,
            &mut StdRng::seed_from_u64(workload_seed),
        );
        prop_assert!(!instances.is_empty());
        let instance = &instances[0];
        // Move the terminal into the start's partition.
        let host = venue.space.host_partition(&instance.start).unwrap();
        let footprint = venue.space.partition(host).unwrap().footprint;
        let terminal = IndoorPoint::from_xy(
            footprint.min.x + fx * footprint.width(),
            footprint.min.y + fy * footprint.height(),
            instance.start.floor,
        );
        if venue.space.host_partition(&terminal).ok() != Some(host) {
            return Ok(());
        }
        let direct_distance = instance.start.position.distance(&terminal.position);
        let query = IkrqQuery::new(
            instance.start,
            terminal,
            instance.delta.max(2.0 * direct_distance + 1.0),
            QueryKeywords::new(instance.keywords.iter().cloned()).unwrap(),
            instance.k,
        )
        .with_alpha(instance.alpha)
        .with_tau(instance.tau);

        let mut direct = Route::from_point(query.start);
        direct.complete_with_point(terminal, host).unwrap();
        let prepared = PreparedQuery::prepare(&query.keywords, &venue.directory, query.tau).unwrap();
        let relevance =
            RelevanceModel::relevance_of_route(&direct, &venue.space, &venue.directory, &prepared);
        let direct_score = RankingModel::new(query.alpha, query.delta, query.num_keywords())
            .score(relevance, direct_distance);

        for mode in [IndexMode::Scan, IndexMode::Accelerated] {
            let engine =
                IkrqEngine::with_index_mode(venue.space.clone(), venue.directory.clone(), mode);
            for variant in VariantConfig::all_variants() {
                let mut options = ExecOptions::with_variant(variant);
                if variant.kind == AlgorithmKind::ToE {
                    options = options.with_expansion_budget(300);
                }
                let outcome = engine.execute(&query, &options).unwrap();
                let best = outcome.results.best().map(|r| r.score);
                prop_assert!(
                    best.is_some_and(|score| score >= direct_score - 1e-9),
                    "{} ({:?}): best {:?} < direct route {}",
                    variant.label(),
                    mode,
                    best,
                    direct_score
                );
            }
        }
    }
}
