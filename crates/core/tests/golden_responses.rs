//! Pins search responses to committed bytes.
//!
//! The scan engine, the index engine and every benchmark oracle run the same
//! shortest-path code, so a defect they share (say, a Dijkstra run that stops
//! too early) would leave `index_mirror` and `serve_identity` green. This
//! test compares against something that does not move with the code: the
//! FNV-1a-64 hash of every response's `deterministic_json()`, recorded in
//! `tests/fixtures/golden_responses.tsv`, one line per (venue, variant,
//! query index).
//!
//! Every case runs on both a scan and an accelerated engine, which must agree
//! with each other and with the fixture. When the fixture is missing or
//! differs, the test prints the whole table it computed, so a deliberate
//! change of the responses can re-pin it by copying that table over the
//! fixture.
//!
//! `deterministic_json()` leaves the metrics out, so a change that keeps the
//! answers but does more (or less) work would pass unnoticed. A second
//! fixture, `tests/fixtures/golden_effort.tsv`, pins the search-effort
//! counters of the same cases: stamps expanded and generated, complete
//! routes, queue peak, Dijkstra calls, KoE* recomputations, the per-rule
//! prune counts (in [`PruneRule::ALL`] order) and `budget_exhausted`. Both
//! engines must report the same counters.

use ikrq_core::{
    ExecOptions, IkrqEngine, IkrqQuery, IkrqService, IndexMode, PruneRule, SearchMetrics,
    SearchRequest, VariantConfig,
};
use indoor_data::{
    mega_venue, paper_example_venue, MegaVenueConfig, QueryGenerator, QueryInstance,
    SyntheticVenueConfig, Venue, WorkloadConfig,
};
use indoor_keywords::QueryKeywords;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_responses.tsv"
);

const EFFORT_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_effort.tsv"
);

/// Expansion budget of the ToE family, so the larger venues stay quick.
const TOE_BUDGET: u64 = 500;

/// One pinned venue: its queries and the variants each query runs under.
struct Case {
    name: &'static str,
    venue: Venue,
    queries: Vec<IkrqQuery>,
    variants: Vec<VariantConfig>,
    /// Whether the ToE family runs under [`TOE_BUDGET`].
    budget_toe: bool,
}

/// The 64-bit FNV-1a hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn to_query(instance: &QueryInstance) -> IkrqQuery {
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

fn generated(venue: &Venue, workload: &WorkloadConfig, count: usize, seed: u64) -> Vec<IkrqQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let instances = QueryGenerator::new(venue).generate_batch(workload, count, &mut rng);
    assert_eq!(instances.len(), count, "workload generation must succeed");
    instances.iter().map(to_query).collect()
}

/// The `scale` bench's query shape (|QW| = 3, k = 3) at start-to-terminal
/// distance `s2t`.
fn scale_workload(s2t: f64) -> WorkloadConfig {
    WorkloadConfig {
        qw_len: 3,
        beta: 0.5,
        s2t,
        eta: 2.0,
        k: 3,
        alpha: 0.5,
        tau: 0.3,
    }
}

/// The Fig. 1 example: its two running queries at a few constraints, plus
/// generated ones.
fn fig1() -> Case {
    let example = paper_example_venue();
    let mut queries = Vec::new();
    for (words, delta, k) in [
        (["coffee", "laptop"], 300.0, 3),
        (["latte", "apple"], 150.0, 3),
        (["latte", "apple"], 220.0, 5),
    ] {
        queries.push(
            IkrqQuery::new(
                example.ps,
                example.pt,
                delta,
                QueryKeywords::new(words).expect("non-empty keywords"),
                k,
            )
            .with_alpha(0.5)
            .with_tau(0.1),
        );
    }
    let workload = WorkloadConfig {
        s2t: 50.0,
        qw_len: 2,
        k: 3,
        ..WorkloadConfig::default()
    };
    queries.extend(generated(&example.venue, &workload, 6, 1));
    Case {
        name: "fig1",
        venue: example.venue,
        queries,
        variants: VariantConfig::all_variants(),
        budget_toe: false,
    }
}

/// A single-floor synthetic mall of §V-A1.
fn mall() -> Case {
    let venue = Venue::synthetic(&SyntheticVenueConfig::small(11)).expect("valid mall");
    let workload = WorkloadConfig {
        s2t: 400.0,
        qw_len: 3,
        k: 5,
        ..WorkloadConfig::default()
    };
    let queries = generated(&venue, &workload, 5, 2);
    Case {
        name: "mall",
        venue,
        queries,
        variants: VariantConfig::all_variants(),
        budget_toe: true,
    }
}

/// A 10³-partition mega venue under every Table III variant.
fn mega_1k() -> Case {
    let venue = mega_venue(&MegaVenueConfig::sized(1_000, 42)).expect("valid mega venue");
    let queries = generated(&venue, &scale_workload(150.0), 10, 3);
    Case {
        name: "mega1k",
        venue,
        queries,
        variants: VariantConfig::all_variants(),
        budget_toe: true,
    }
}

/// A 10⁴-partition mega venue under KoE and KoE*, with the queries of the
/// `koe-mega` benchmark workload: the ∆-ball is a small part of the venue.
fn mega_10k() -> Case {
    let venue = mega_venue(&MegaVenueConfig::sized(10_000, 42)).expect("valid mega venue");
    let queries = generated(&venue, &scale_workload(200.0), 12, 4);
    Case {
        name: "mega10k",
        venue,
        queries,
        variants: vec![VariantConfig::koe(), VariantConfig::koe_star()],
        budget_toe: false,
    }
}

fn service(venue: &Venue, mode: IndexMode) -> IkrqService {
    let service = IkrqService::new();
    service
        .register_engine(
            "golden",
            Arc::new(IkrqEngine::with_index_mode(
                venue.space.clone(),
                venue.directory.clone(),
                mode,
            )),
        )
        .expect("fresh service accepts the venue");
    service
}

/// The search-effort counters of one response, tab-separated.
fn effort(metrics: &SearchMetrics) -> String {
    let prunes: Vec<String> = PruneRule::ALL
        .iter()
        .map(|&rule| metrics.prunes.count(rule).to_string())
        .collect();
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        metrics.stamps_expanded,
        metrics.stamps_generated,
        metrics.complete_routes,
        metrics.queue_peak_len,
        metrics.dijkstra_calls,
        metrics.precomputed_path_recomputations,
        prunes.join(","),
        metrics.budget_exhausted
    )
}

/// The response and the effort fixture lines of one case, after checking
/// that the scan and the accelerated engine answer every request
/// byte-identically and with the same effort.
fn table(case: &Case) -> (String, String) {
    let scan = service(&case.venue, IndexMode::Scan);
    let accel = service(&case.venue, IndexMode::Accelerated);
    let mut out = String::new();
    let mut efforts = String::new();
    for variant in &case.variants {
        let mut options = ExecOptions::with_variant(*variant);
        if case.budget_toe && variant.kind == ikrq_core::AlgorithmKind::ToE {
            options = options.with_expansion_budget(TOE_BUDGET);
        }
        for (i, query) in case.queries.iter().enumerate() {
            let request = SearchRequest {
                venue: "golden".to_string(),
                query: query.clone(),
                options,
            };
            let scanned = scan.search(&request).expect("scan search succeeds");
            let indexed = accel.search(&request).expect("index search succeeds");
            let json = scanned.deterministic_json();
            assert_eq!(
                json,
                indexed.deterministic_json(),
                "{} {} query {i}: scan and index engines diverge",
                case.name,
                variant.label()
            );
            writeln!(
                out,
                "{}\t{}\t{i}\t{:016x}",
                case.name,
                variant.label(),
                fnv1a64(json.as_bytes())
            )
            .expect("writing to a string");
            let counters = effort(scanned.metrics.as_ref().expect("full metrics"));
            assert_eq!(
                counters,
                effort(indexed.metrics.as_ref().expect("full metrics")),
                "{} {} query {i}: scan and index engines differ in search effort",
                case.name,
                variant.label()
            );
            writeln!(
                efforts,
                "{}\t{}\t{i}\t{counters}",
                case.name,
                variant.label()
            )
            .expect("writing to a string");
        }
    }
    (out, efforts)
}

/// The response and effort tables of every case, computed once for both
/// tests.
fn computed() -> &'static (String, String) {
    static TABLES: OnceLock<(String, String)> = OnceLock::new();
    TABLES.get_or_init(|| {
        let builders: [fn() -> Case; 4] = [fig1, mall, mega_1k, mega_10k];
        let tables: Vec<(String, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = builders
                .iter()
                .map(|build| scope.spawn(move || table(&build())))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("case thread"))
                .collect()
        });
        let (responses, efforts): (Vec<String>, Vec<String>) = tables.into_iter().unzip();
        (responses.concat(), efforts.concat())
    })
}

/// Compares a computed table with a fixture, printing the whole computed
/// table on a mismatch so it can be re-pinned.
fn assert_matches_fixture(computed: &str, fixture: &str) {
    let pinned = std::fs::read_to_string(fixture).unwrap_or_default();
    let pinned: String = pinned
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| format!("{line}\n"))
        .collect();
    if computed != pinned {
        println!("--- computed table ---\n{computed}--- end ---");
        let differing: Vec<&str> = computed
            .lines()
            .filter(|line| !pinned.lines().any(|p| p == *line))
            .collect();
        panic!(
            "computed lines differ from {fixture} ({} of {} computed lines are not pinned): {:?}",
            differing.len(),
            computed.lines().count(),
            differing.iter().take(8).collect::<Vec<_>>()
        );
    }
}

#[test]
fn responses_match_the_pinned_hashes() {
    assert_matches_fixture(&computed().0, FIXTURE);
}

#[test]
fn search_effort_matches_the_pinned_counters() {
    assert_matches_fixture(&computed().1, EFFORT_FIXTURE);
}
