//! The index-path/scan-path equivalence property: for random mega venues
//! and random workloads, an [`IndexMode::Accelerated`] engine must return
//! byte-identical [`SearchResponse`]s (deterministic fields only — timings
//! and the index memory charge are excluded by `deterministic_json`) to an
//! [`IndexMode::Scan`] engine hosting the same venue.
//!
//! The scan path is the executable specification of the index; this test is
//! the contract that lets `--index` default to accelerated. A second
//! property holds the two engines to the same search effort, which
//! `deterministic_json` leaves out.

use ikrq_core::{
    AlgorithmKind, ExecOptions, IkrqEngine, IkrqQuery, IkrqService, IndexMode, PruneRule,
    SearchMetrics, SearchRequest, VariantConfig,
};
use indoor_data::{mega_venue, MegaVenueConfig, QueryGenerator, WorkloadConfig};
use indoor_keywords::QueryKeywords;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn to_query(instance: &indoor_data::QueryInstance) -> IkrqQuery {
    IkrqQuery::new(
        instance.start,
        instance.terminal,
        instance.delta,
        QueryKeywords::new(instance.keywords.iter().cloned())
            .expect("generated instances always carry keywords"),
        instance.k,
    )
    .with_alpha(instance.alpha)
    .with_tau(instance.tau)
}

/// Hosts one venue twice — scan and accelerated — under the same venue id so
/// the service responses are comparable byte-for-byte.
fn mirrored_services(config: &MegaVenueConfig) -> (indoor_data::Venue, IkrqService, IkrqService) {
    let venue = mega_venue(config).expect("generated configs are valid");
    let scan = IkrqService::new();
    scan.register_engine(
        "mirror",
        Arc::new(IkrqEngine::with_index_mode(
            venue.space.clone(),
            venue.directory.clone(),
            IndexMode::Scan,
        )),
    )
    .expect("fresh service accepts the venue");
    let accel = IkrqService::new();
    accel
        .register_engine(
            "mirror",
            Arc::new(IkrqEngine::with_index_mode(
                venue.space.clone(),
                venue.directory.clone(),
                IndexMode::Accelerated,
            )),
        )
        .expect("fresh service accepts the venue");
    (venue, scan, accel)
}

proptest! {
    // Each case builds a venue and runs several queries through every
    // engine, so keep the case count moderate; the sweep binary covers the
    // 10⁴–10⁵ sizes this test cannot afford.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn index_and_scan_responses_are_byte_identical(
        partitions in 40usize..240,
        venue_seed in 0u64..1_000,
        workload_seed in 0u64..1_000,
        qw_len in 1usize..4,
        eta in 1.2f64..3.0,
        k in 1usize..5,
        alpha in 0.1f64..0.9,
        tau in 0.1f64..0.5,
        variant_choice in 0usize..8,
    ) {
        let config = MegaVenueConfig::sized(partitions, venue_seed);
        let (venue, scan, accel) = mirrored_services(&config);

        let workload = WorkloadConfig {
            qw_len,
            beta: 0.5,
            s2t: 120.0,
            eta,
            k,
            alpha,
            tau,
        };
        let generator = QueryGenerator::new(&venue);
        let mut rng = StdRng::seed_from_u64(workload_seed);
        let instances = generator.generate_batch(&workload, 3, &mut rng);
        prop_assert!(!instances.is_empty());

        let variants = VariantConfig::all_variants();
        let variant = variants[variant_choice % variants.len()];

        for instance in &instances {
            let request = SearchRequest {
                venue: "mirror".to_string(),
                query: to_query(instance),
                options: ExecOptions::with_variant(variant),
            };
            let scan_response = scan.search(&request).expect("scan path succeeds");
            let accel_response = accel.search(&request).expect("index path succeeds");
            prop_assert_eq!(
                scan_response.deterministic_json(),
                accel_response.deterministic_json(),
                "index/scan divergence: venue seed {}, workload seed {}, variant {:?}",
                venue_seed,
                workload_seed,
                variant
            );
        }
    }
}

/// The search-effort counters two engines must agree on: everything in
/// [`SearchMetrics`] except the elapsed time and the memory charge (the
/// index engine also charges its shared index).
fn effort(metrics: &SearchMetrics) -> (u64, u64, u64, usize, u64, u64, Vec<u64>, bool) {
    (
        metrics.stamps_expanded,
        metrics.stamps_generated,
        metrics.complete_routes,
        metrics.queue_peak_len,
        metrics.dijkstra_calls,
        metrics.precomputed_path_recomputations,
        PruneRule::ALL
            .iter()
            .map(|&rule| metrics.prunes.count(rule))
            .collect(),
        metrics.budget_exhausted,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every Table III variant does the same work on both engines: the
    /// index may only change how a verdict is reached, never the verdict.
    /// The ToE family runs under a budget so the case stays quick, which
    /// also exercises `budget_exhausted`.
    #[test]
    fn index_and_scan_search_effort_is_identical(
        partitions in 40usize..200,
        venue_seed in 0u64..1_000,
        workload_seed in 0u64..1_000,
        eta in 1.2f64..3.0,
        k in 1usize..5,
    ) {
        let config = MegaVenueConfig::sized(partitions, venue_seed);
        let (venue, scan, accel) = mirrored_services(&config);
        let workload = WorkloadConfig {
            qw_len: 3,
            beta: 0.5,
            s2t: 120.0,
            eta,
            k,
            alpha: 0.5,
            tau: 0.3,
        };
        let instances = QueryGenerator::new(&venue).generate_batch(
            &workload,
            2,
            &mut StdRng::seed_from_u64(workload_seed),
        );
        prop_assert!(!instances.is_empty());
        for variant in VariantConfig::all_variants() {
            let mut options = ExecOptions::with_variant(variant);
            if variant.kind == AlgorithmKind::ToE {
                options = options.with_expansion_budget(400);
            }
            for instance in &instances {
                let request = SearchRequest {
                    venue: "mirror".to_string(),
                    query: to_query(instance),
                    options,
                };
                let scanned = scan.search(&request).expect("scan path succeeds");
                let indexed = accel.search(&request).expect("index path succeeds");
                prop_assert_eq!(
                    effort(scanned.metrics.as_ref().expect("full metrics")),
                    effort(indexed.metrics.as_ref().expect("full metrics")),
                    "index/scan effort divergence: venue seed {}, workload seed {}, variant {}",
                    venue_seed,
                    workload_seed,
                    variant.label()
                );
            }
        }
    }
}
