//! Ablation benchmarks beyond the paper's own variants: the effect of the
//! prime-route pruning (Fig. 15/16 family), of the terminal-expansion
//! heuristic of Algorithm 5, of the KoE* precomputation, and of the two
//! optional extensions (soft distance constraint, popularity re-ranking),
//! all on a down-scaled venue.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ikrq_bench::workload::{to_query, ExperimentContext, VenueKind};
use ikrq_core::extensions::{PopularityModel, SoftDeltaConfig, VisitCountPopularity};
use ikrq_core::{ExecOptions, VariantConfig};
use indoor_data::WorkloadConfig;
use std::hint::black_box;

fn bench_ablations(c: &mut Criterion) {
    let ctx = ExperimentContext::new(23, 0.2);
    let venue = ctx.venue(VenueKind::Synthetic { floors: 1 });
    let workload = WorkloadConfig {
        s2t: 600.0,
        qw_len: 2,
        eta: 1.4,
        ..WorkloadConfig::default()
    };
    let instances = venue.instances(&workload, 2, 17);
    assert!(!instances.is_empty());
    let queries: Vec<_> = instances.iter().map(to_query).collect();

    let cases = [
        ("toe", VariantConfig::toe()),
        (
            "toe_no_prime_budgeted",
            VariantConfig::toe_no_prime().with_expansion_budget(50_000),
        ),
        (
            "toe_strict_terminal",
            VariantConfig::toe().with_strict_terminal_expansion(),
        ),
        ("koe", VariantConfig::koe()),
        ("koe_star", VariantConfig::koe_star()),
    ];

    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    for (name, variant) in cases {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &variant,
            |b, &variant| {
                b.iter(|| {
                    for query in &queries {
                        let outcome = venue
                            .engine
                            .execute(query, &ExecOptions::with_variant(variant))
                            .expect("valid query");
                        black_box(outcome.metrics.stamps_expanded);
                    }
                });
            },
        );
    }
    group.finish();
}

/// The soft-distance-constraint ablation (see the `ikrq_core::extensions`
/// module docs, which name the ablation benches as its measure): the overhead
/// of running the search against the relaxed `∆'` and re-ranking the result,
/// for increasing slack values (slack 0.0 is the hard-constraint reference).
fn bench_soft_delta(c: &mut Criterion) {
    let ctx = ExperimentContext::new(29, 0.2);
    let venue = ctx.venue(VenueKind::Synthetic { floors: 1 });
    let workload = WorkloadConfig {
        s2t: 600.0,
        qw_len: 2,
        eta: 1.4,
        ..WorkloadConfig::default()
    };
    let instances = venue.instances(&workload, 2, 31);
    let queries: Vec<_> = instances.iter().map(to_query).collect();

    let mut group = c.benchmark_group("ablation_soft_delta");
    group.sample_size(10);
    for slack in [0.0, 0.25, 0.5] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("slack_{slack}")),
            &slack,
            |b, &slack| {
                b.iter(|| {
                    for query in &queries {
                        let outcome = venue
                            .engine
                            .search_soft(
                                query,
                                VariantConfig::toe(),
                                SoftDeltaConfig::with_slack(slack),
                            )
                            .expect("valid query");
                        black_box(outcome.routes.len());
                    }
                });
            },
        );
    }
    group.finish();
}

/// Popularity re-ranking ablation: the overhead of oversampling the search
/// and re-ranking by the combined score, compared against the plain search.
fn bench_popularity(c: &mut Criterion) {
    let ctx = ExperimentContext::new(31, 0.2);
    let venue = ctx.venue(VenueKind::Synthetic { floors: 1 });
    let workload = WorkloadConfig {
        s2t: 600.0,
        qw_len: 2,
        eta: 1.4,
        ..WorkloadConfig::default()
    };
    let instances = venue.instances(&workload, 2, 37);
    let queries: Vec<_> = instances.iter().map(to_query).collect();

    // Build a popularity table from the routes of a first (warm-up) pass, the
    // closest stand-in for historical mobility data.
    let mut popularity = VisitCountPopularity::new();
    for query in &queries {
        if let Ok(outcome) = venue.engine.execute(query, &ExecOptions::default()) {
            for route in outcome.results.routes() {
                for &v in route.route.legs() {
                    popularity.record(v, 1);
                }
            }
        }
    }

    let mut group = c.benchmark_group("ablation_popularity");
    group.sample_size(10);
    group.bench_function("plain_toe", |b| {
        b.iter(|| {
            for query in &queries {
                let outcome = venue
                    .engine
                    .execute(query, &ExecOptions::default())
                    .expect("valid query");
                black_box(outcome.results.len());
            }
        });
    });
    group.bench_function("popularity_reranked", |b| {
        b.iter(|| {
            for query in &queries {
                let ranked = venue
                    .engine
                    .search_with_popularity(
                        query,
                        VariantConfig::toe(),
                        &popularity,
                        PopularityModel::new(0.3),
                        2,
                    )
                    .expect("valid query");
                black_box(ranked.len());
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ablations, bench_soft_delta, bench_popularity);
criterion_main!(benches);
