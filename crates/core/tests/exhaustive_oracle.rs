//! Every search variant against the definitions.
//!
//! `golden_responses` holds the scan and index engines to each other and
//! to pinned bytes, but both engines run the same algorithms, so a defect
//! they share passes it. This test compares every variant with
//! [`ExhaustiveBaseline`], which enumerates every regular route within `∆`
//! and ranks them by Definitions 5–7, on small venues where that is
//! affordable:
//!
//! * mega venues of 40–60 partitions (3 floors), seeds 0–399, three
//!   generated queries each (|QW| 1–3, k 1–3, δs2t 40 m, η 1.6, α 0.5,
//!   τ 0.2); debug builds run seeds 0–39 only;
//! * the Fig. 1 venue with its running queries.
//!
//! A second comparison runs the edge cases of each generated query of
//! seeds 0–99 (0–9 in debug builds): a lone keyword that no partition
//! carries, the query's keywords plus such a keyword, k = 50 (more than the
//! routes within `∆`), `α` = 0 and `α` = 1, and `∆` at 1.02× the skeleton
//! distance from `ps` to `pt`. It pins miss counts of its own.
//!
//! Each case compares the top-k score list of the seven Table III variants,
//! plus strict ToE and strict KoE (`strict_terminal_expansion`), with the
//! baseline's at 1e-9. The test fails when
//!
//! * any variant scores above the baseline at any rank (a scoring or
//!   baseline defect: the baseline's list is the best possible);
//! * strict ToE misses anything;
//! * a variant's miss counts differ from the pinned ones: a change that
//!   fixes a miss re-pins them, one that adds a miss is a regression;
//! * fewer cases than a floor were compared, or the baseline ran out of
//!   its 3 M-expansion budget more often than a cap.
//!
//! A *miss* is a case where the variant's best score is below the
//! baseline's; a *list miss*, where any rank is below. The known classes:
//!
//! * **Relaxed ToE's connect heuristic** (ToE, ToE\D, ToE\B): Algorithm 5
//!   finishes a stamp that reaches `v(pt)` instead of expanding it, so
//!   routes that leave the terminal partition again are never built. Strict
//!   ToE has no such miss.
//! * **KoE door touch** (every KoE variant): the baseline's best route
//!   passes a door of a key partition without entering it, which
//!   Definition 5 credits, but KoE only lands inside a partition, and its
//!   line-11 and Rule-3 bounds charge a crossing of it, so the jump is cut.
//!
//! One class must stay empty, and is still counted apart so that a
//! regression shows: **KoE no route**, where a route within `∆` exists yet
//! KoE returns none. A route ends inside `v(pt)`, so line 11 and Rule 3
//! bound the jump there by its cheapest enter door plus the walk on to
//! `pt`, never by a crossing of `v(pt)`. A hand-built case pins it: a
//! single-door `v(pt)` whose in-and-out bound exceeds `∆`.

use ikrq_core::framework::Search;
use ikrq_core::{ExhaustiveBaseline, IkrqQuery, SearchContext, SearchOutcome, VariantConfig};
use indoor_data::{
    mega_venue, paper_example_venue, MegaVenueConfig, QueryGenerator, QueryInstance, Venue,
    WorkloadConfig,
};
use indoor_geom::{Point, Rect};
use indoor_keywords::{KeywordDirectory, QueryKeywords};
use indoor_space::{
    DoorKind, FloorId, IndoorPoint, IndoorSpace, IndoorSpaceBuilder, PartitionKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Score tolerance of the comparison.
const EPS: f64 = 1e-9;

/// Expansion budget of the baseline.
const BASELINE_BUDGET: u64 = 3_000_000;

/// The compared variants, with their labels in the pinned tables.
fn variants() -> Vec<(&'static str, VariantConfig)> {
    vec![
        ("ToE", VariantConfig::toe()),
        ("ToE\\D", VariantConfig::toe_no_distance()),
        ("ToE\\B", VariantConfig::toe_no_kbound()),
        ("KoE", VariantConfig::koe()),
        ("KoE\\D", VariantConfig::koe_no_distance()),
        ("KoE\\B", VariantConfig::koe_no_kbound()),
        ("KoE*", VariantConfig::koe_star()),
        (
            "strict ToE",
            VariantConfig::toe().with_strict_terminal_expansion(),
        ),
        (
            "strict KoE",
            VariantConfig::koe().with_strict_terminal_expansion(),
        ),
    ]
}

/// Per-variant miss counts: (label, best misses, list misses, best misses
/// with no route at all).
type Misses = [(&'static str, usize, usize, usize); 9];

/// Mega seeds 0–399 plus Fig. 1, in release builds.
const PINNED: Misses = [
    ("ToE", 68, 70, 0),
    ("ToE\\D", 68, 70, 0),
    ("ToE\\B", 68, 70, 0),
    ("KoE", 88, 111, 0),
    ("KoE\\D", 88, 111, 0),
    ("KoE\\B", 88, 111, 0),
    ("KoE*", 88, 111, 0),
    ("strict ToE", 0, 0, 0),
    ("strict KoE", 88, 111, 0),
];

/// Mega seeds 0–39 plus Fig. 1, in debug builds.
const PINNED_DEBUG: Misses = [
    ("ToE", 6, 6, 0),
    ("ToE\\D", 6, 6, 0),
    ("ToE\\B", 6, 6, 0),
    ("KoE", 10, 12, 0),
    ("KoE\\D", 10, 12, 0),
    ("KoE\\B", 10, 12, 0),
    ("KoE*", 10, 12, 0),
    ("strict ToE", 0, 0, 0),
    ("strict KoE", 10, 12, 0),
];

/// Mega seeds 0–99, six edge cases of each generated query, in release
/// builds.
const PINNED_EDGE: Misses = [
    ("ToE", 53, 66, 0),
    ("ToE\\D", 53, 66, 0),
    ("ToE\\B", 53, 66, 0),
    ("KoE", 73, 111, 0),
    ("KoE\\D", 73, 111, 0),
    ("KoE\\B", 73, 111, 0),
    ("KoE*", 73, 111, 0),
    ("strict ToE", 0, 0, 0),
    ("strict KoE", 73, 111, 0),
];

/// Mega seeds 0–9, six edge cases of each generated query, in debug builds.
const PINNED_EDGE_DEBUG: Misses = [
    ("ToE", 0, 0, 0),
    ("ToE\\D", 0, 0, 0),
    ("ToE\\B", 0, 0, 0),
    ("KoE", 6, 8, 0),
    ("KoE\\D", 6, 8, 0),
    ("KoE\\B", 6, 8, 0),
    ("KoE*", 6, 8, 0),
    ("strict ToE", 0, 0, 0),
    ("strict KoE", 6, 8, 0),
];

/// How much one comparison covers in a build: the mega seeds, the fewest
/// compared cases, the most baseline budget exhaustions, and the pinned
/// miss counts.
struct Scope {
    seeds: u64,
    min_compared: usize,
    max_exhausted: usize,
    pinned: &'static Misses,
}

/// The generated queries' comparison.
fn scope() -> Scope {
    if cfg!(debug_assertions) {
        Scope {
            seeds: 40,
            min_compared: 100,
            max_exhausted: 2,
            pinned: &PINNED_DEBUG,
        }
    } else {
        Scope {
            seeds: 400,
            min_compared: 1_000,
            max_exhausted: 12,
            pinned: &PINNED,
        }
    }
}

/// The edge cases' comparison.
fn edge_scope() -> Scope {
    if cfg!(debug_assertions) {
        Scope {
            seeds: 10,
            min_compared: 150,
            max_exhausted: 2,
            pinned: &PINNED_EDGE_DEBUG,
        }
    } else {
        Scope {
            seeds: 100,
            min_compared: 1_500,
            max_exhausted: 12,
            pinned: &PINNED_EDGE,
        }
    }
}

/// A keyword no generated venue carries.
const UNMATCHED: &str = "no-such-keyword";

/// The edge cases of a generated query, each with its name.
fn edge_cases(venue: &Venue, query: &IkrqQuery) -> Vec<(&'static str, IkrqQuery)> {
    let mut words = query.keywords.words().to_vec();
    words.push(UNMATCHED.to_string());
    let skeleton = venue.space.skeleton_distance(&query.start, &query.terminal);
    vec![
        (
            "no keyword match",
            IkrqQuery {
                keywords: QueryKeywords::new([UNMATCHED]).expect("one keyword"),
                ..query.clone()
            },
        ),
        (
            "an unmatched keyword",
            IkrqQuery {
                keywords: QueryKeywords::new(words).expect("non-empty keywords"),
                ..query.clone()
            },
        ),
        (
            "k 50",
            IkrqQuery {
                k: 50,
                ..query.clone()
            },
        ),
        ("alpha 0", query.clone().with_alpha(0.0)),
        ("alpha 1", query.clone().with_alpha(1.0)),
        (
            "delta 1.02x skeleton",
            IkrqQuery {
                delta: 1.02 * skeleton,
                ..query.clone()
            },
        ),
    ]
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

/// A mega venue of 40–60 partitions and its three generated queries.
fn mega_case(seed: u64) -> (Venue, Vec<IkrqQuery>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let partitions = rng.gen_range(40..=60);
    let venue = mega_venue(&MegaVenueConfig::sized(partitions, seed)).expect("valid mega venue");
    let generator = QueryGenerator::new(&venue);
    let queries = (0..3)
        .filter_map(|_| {
            let workload = WorkloadConfig {
                qw_len: rng.gen_range(1..=3),
                k: rng.gen_range(1..=3),
                s2t: 40.0,
                eta: 1.6,
                alpha: 0.5,
                tau: 0.2,
                ..WorkloadConfig::default()
            };
            generator
                .generate(&workload, &mut rng)
                .map(|q| to_query(&q))
        })
        .collect();
    (venue, queries)
}

/// The Fig. 1 venue with its running queries at a few constraints.
fn fig1_case() -> (Venue, Vec<IkrqQuery>) {
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
    (example.venue, queries)
}

fn scores(outcome: &SearchOutcome) -> Vec<f64> {
    outcome.results.routes().iter().map(|r| r.score).collect()
}

/// What one comparison run found.
#[derive(Debug, Default)]
struct Tally {
    compared: usize,
    exhausted: usize,
    /// Per variant: best misses, list misses, best misses with no route.
    misses: Vec<(usize, usize, usize)>,
    /// Every score above the baseline's, described.
    above: Vec<String>,
}

impl Tally {
    fn run(&mut self, name: &str, venue: &Venue, query: &IkrqQuery) {
        let baseline = ExhaustiveBaseline::with_budget(BASELINE_BUDGET)
            .search(&venue.space, &venue.directory, query)
            .expect("generated queries are valid");
        if baseline.metrics.budget_exhausted {
            self.exhausted += 1;
            return;
        }
        self.compared += 1;
        let expected = scores(&baseline);
        let ctx = SearchContext::prepare(&venue.space, &venue.directory, query)
            .expect("the baseline prepared the same query");
        for (slot, (label, config)) in variants().into_iter().enumerate() {
            let got = scores(&Search::new(&ctx, config, None).run());
            for (rank, &score) in got.iter().enumerate() {
                let bound = expected.get(rank).copied().unwrap_or(0.0);
                if score > bound + EPS {
                    self.above.push(format!(
                        "{label} on {name}: rank {rank} scores {score}, the baseline {bound}"
                    ));
                }
            }
            let below = |rank: usize| {
                let want = expected.get(rank).copied().unwrap_or(0.0);
                got.get(rank).copied().unwrap_or(0.0) < want - EPS
            };
            let misses = &mut self.misses[slot];
            if below(0) {
                misses.0 += 1;
                if got.is_empty() {
                    misses.2 += 1;
                }
            }
            if (0..expected.len()).any(below) {
                misses.1 += 1;
            }
        }
    }
}

impl Tally {
    fn new() -> Self {
        Tally {
            misses: vec![(0, 0, 0); variants().len()],
            ..Tally::default()
        }
    }

    /// The checks every comparison ends with: no score above the
    /// baseline's, no strict-ToE miss, the pinned miss counts, and the
    /// scope's floor and cap.
    fn assert_within(&self, scope: &Scope) {
        assert!(
            self.above.is_empty(),
            "scores above the baseline's:\n{}",
            self.above.join("\n")
        );
        let found: Vec<(&str, usize, usize, usize)> = variants()
            .iter()
            .zip(&self.misses)
            .map(|((label, _), &(best, list, empty))| (*label, best, list, empty))
            .collect();
        println!(
            "compared {} cases, baseline budget used up on {}",
            self.compared, self.exhausted
        );
        println!("(variant, best misses, list misses, best misses with no route):");
        for row in &found {
            println!("    {row:?},");
        }
        let strict_toe = found
            .iter()
            .find(|row| row.0 == "strict ToE")
            .expect("strict ToE runs");
        assert_eq!(
            (strict_toe.1, strict_toe.2),
            (0, 0),
            "strict ToE must match the baseline on every case"
        );
        assert_eq!(
            found.as_slice(),
            scope.pinned.as_slice(),
            "miss counts moved from the pinned ones"
        );
        assert!(
            self.compared >= scope.min_compared,
            "only {} cases compared (floor {})",
            self.compared,
            scope.min_compared
        );
        assert!(
            self.exhausted <= scope.max_exhausted,
            "the baseline used up its budget on {} cases (cap {})",
            self.exhausted,
            scope.max_exhausted
        );
    }
}

#[test]
fn every_variant_matches_the_exhaustive_baseline_outside_the_known_miss_classes() {
    let scope = scope();
    let mut tally = Tally::new();
    let (venue, queries) = fig1_case();
    for (i, query) in queries.iter().enumerate() {
        tally.run(&format!("fig1 query {i}"), &venue, query);
    }
    for seed in 0..scope.seeds {
        let (venue, queries) = mega_case(seed);
        for (i, query) in queries.iter().enumerate() {
            tally.run(&format!("mega seed {seed} query {i}"), &venue, query);
        }
    }
    tally.assert_within(&scope);
}

#[test]
fn every_variant_matches_the_exhaustive_baseline_on_edge_case_queries() {
    let scope = edge_scope();
    let mut tally = Tally::new();
    for seed in 0..scope.seeds {
        let (venue, queries) = mega_case(seed);
        for (i, query) in queries.iter().enumerate() {
            for (case, edge) in edge_cases(&venue, query) {
                tally.run(
                    &format!("mega seed {seed} query {i}, {case}"),
                    &venue,
                    &edge,
                );
            }
        }
    }
    tally.assert_within(&scope);
}

/// A corridor holding `ps`, with two single-door shops on one side: the
/// terminal shop "tea" (10 × 20 m, door at its middle) and "zara". Entering
/// and leaving a shop would pass its door twice, so the only regular route
/// is (`ps`, door of "tea", `pt`).
fn single_door_terminal_venue() -> (IndoorSpace, KeywordDirectory) {
    let mut b = IndoorSpaceBuilder::new();
    let f = FloorId(0);
    let rect = |x: f64, y: f64, w: f64, h: f64| {
        Rect::from_origin_size(Point::new(x, y), w, h).expect("positive size")
    };
    let corridor = b.add_partition(f, PartitionKind::Hallway, rect(0.0, 0.0, 40.0, 10.0), None);
    let tea = b.add_partition(f, PartitionKind::Room, rect(10.0, 10.0, 10.0, 20.0), None);
    let zara = b.add_partition(f, PartitionKind::Room, rect(25.0, 10.0, 10.0, 20.0), None);
    for (x, shop) in [(15.0, tea), (30.0, zara)] {
        let d = b.add_door(Point::new(x, 10.0), f, DoorKind::Normal);
        b.connect_bidirectional(d, corridor, shop);
    }
    let space = b.build().expect("valid venue");
    let mut directory = KeywordDirectory::new();
    for (name, shop) in [("tea", tea), ("zara", zara)] {
        let iw = directory.add_iword(name).expect("valid i-word");
        directory.name_partition(shop, iw).expect("fresh partition");
    }
    (space, directory)
}

#[test]
fn every_variant_finds_the_route_into_a_single_door_terminal_partition() {
    let (space, directory) = single_door_terminal_venue();
    // The route walks 13.9 m to the door and 4 m on to pt. Bounding the
    // jump by a crossing of "tea" would add its 41.2 m in-and-out loop,
    // 59.2 m in all, beyond ∆.
    let query = IkrqQuery::new(
        IndoorPoint::from_xy(2.0, 5.0, FloorId(0)),
        IndoorPoint::from_xy(15.0, 14.0, FloorId(0)),
        30.0,
        QueryKeywords::new(["tea", "zara"]).expect("non-empty keywords"),
        2,
    );
    let baseline = ExhaustiveBaseline::with_budget(BASELINE_BUDGET)
        .search(&space, &directory, &query)
        .expect("a valid query");
    let expected = scores(&baseline);
    assert_eq!(expected.len(), 1, "one regular route lies within ∆");
    let ctx = SearchContext::prepare(&space, &directory, &query).expect("a valid query");
    for (label, config) in variants() {
        let got = scores(&Search::new(&ctx, config, None).run());
        assert!(
            got.len() == expected.len()
                && got.iter().zip(&expected).all(|(a, b)| (a - b).abs() <= EPS),
            "{label} scores {got:?}, the baseline {expected:?}"
        );
    }
}
