//! The unified IKRQ search framework (Algorithm 1).
//!
//! The framework owns the priority queue of stamps, the visited-door caches
//! `Dn`/`Df` of Pruning Rule 2, the prime-route table `Hprime`, the top-k
//! result set (and therefore the `kbound`), and the search metrics. It pops
//! the best-scoring stamp, applies Pruning Rule 5 to it, asks the configured
//! expansion strategy ([`crate::toe`] or [`crate::koe`]) for the next valid
//! stamps, and hands each of them to the connect step ([`crate::connect`]).
//!
//! Both strategies make their children through one child step,
//! `Search::generate_children`: it applies the distance constraint and
//! Pruning Rules 1, 4 and 5 to a door path, and builds a child only when
//! Rule 5 admits it or it lands in `v(pt)`.

use crate::context::{KeyPartitionRows, SearchContext};
use crate::koe::RoutingPartition;
use crate::metrics::SearchMetrics;
use crate::prime::PrimeTable;
use crate::pruning::PruneRule;
use crate::results::{ResultRoute, SearchOutcome, TopKResults};
use crate::stamp::{push_key_partition, Stamp, StampOrder};
use crate::variants::{AlgorithmKind, VariantConfig};
use indoor_keywords::CoverageTracker;
use indoor_space::{DoorId, PartitionId, Route};
use std::collections::{BinaryHeap, HashSet};
use std::convert::Infallible;
use std::time::Instant;

/// Mutable state of one search run.
pub(crate) struct SearchState {
    /// Priority queue `Q` ordered by ranking score.
    pub queue: BinaryHeap<StampOrder>,
    /// Doors already validated against Pruning Rule 2 (`Dn`).
    pub doors_checked: HashSet<DoorId>,
    /// Doors filtered out by Pruning Rule 2 (`Df`).
    pub doors_filtered: HashSet<DoorId>,
    /// The prime-route table `Hprime`.
    pub prime: PrimeTable,
    /// The top-k results (owns the `kbound`).
    pub results: TopKResults,
    /// The keyword similarities of every partition the search has met,
    /// scored on first use.
    pub key_rows: KeyPartitionRows,
    /// KoE only: the routing set `P` of Algorithm 1 line 3 after Pruning
    /// Rule 3, built once when the initial stamp is expanded.
    pub routing: Vec<RoutingPartition>,
    /// Metrics of the run.
    pub metrics: SearchMetrics,
    /// Running total of the estimated bytes held by queued stamps.
    pub queue_bytes: usize,
}

/// One search run: context + configuration + state.
pub struct Search<'a> {
    pub(crate) ctx: &'a SearchContext<'a>,
    pub(crate) config: VariantConfig,
    pub(crate) state: SearchState,
}

impl<'a> Search<'a> {
    /// Creates a search run. The third parameter only keeps existing
    /// three-argument callers compiling: no value of [`Infallible`] exists,
    /// so it is always `None`, and a KoE* search computes its own paths.
    pub fn new(
        ctx: &'a SearchContext<'a>,
        config: VariantConfig,
        _shared_rows: Option<Infallible>,
    ) -> Self {
        let results = TopKResults::new(ctx.query.k, config.use_prime_pruning);
        Search {
            ctx,
            config,
            state: SearchState {
                queue: BinaryHeap::new(),
                doors_checked: HashSet::new(),
                doors_filtered: HashSet::new(),
                prime: PrimeTable::new(),
                results,
                key_rows: KeyPartitionRows::default(),
                routing: Vec::new(),
                metrics: SearchMetrics::new(),
                queue_bytes: 0,
            },
        }
    }

    /// Runs Algorithm 1 to completion and returns the outcome.
    pub fn run(mut self) -> SearchOutcome {
        let start = Instant::now();
        let initial = self.initial_stamp();
        // When ps and pt share a partition, the direct route (ps, pt) is a
        // candidate answer that no expansion produces: offer it first.
        if initial.partition == self.ctx.terminal_partition {
            if let Some(direct) = self.finalize_at_terminal(&initial) {
                self.try_accept_result(direct);
            }
        }
        self.push_stamp(initial);

        while let Some(StampOrder(stamp)) = self.state.queue.pop() {
            self.state.queue_bytes = self
                .state
                .queue_bytes
                .saturating_sub(stamp.estimated_bytes());
            self.state.metrics.stamps_expanded += 1;
            if let Some(budget) = self.config.expansion_budget {
                if self.state.metrics.stamps_expanded > budget {
                    self.state.metrics.budget_exhausted = true;
                    break;
                }
            }
            debug_assert_eq!(
                stamp.key_partitions,
                self.ctx.key_partition_sequence(&stamp.route),
                "a popped stamp's carried KP(R) must equal its route's"
            );
            // Pruning Rule 5 on the popped stamp (Algorithm 2 line 3,
            // Algorithm 6 line 3): a shorter homogeneous route was recorded
            // after this one was queued.
            if self.config.use_prime_pruning
                && !self.state.prime.check(
                    stamp.route.tail_door(),
                    &stamp.key_partitions,
                    stamp.distance,
                )
            {
                self.state.metrics.prunes.record(PruneRule::Prime);
            } else {
                // Every child is generated before any is connected: a
                // connected child can raise the kbound of Rule 4.
                let children = match self.config.kind {
                    AlgorithmKind::ToE => self.toe_find(&stamp),
                    AlgorithmKind::KoE => self.koe_find(&stamp),
                };
                for child in children {
                    self.connect(child);
                }
            }
            self.observe_memory(0);
        }

        self.state.metrics.elapsed = start.elapsed();
        self.observe_memory(0);
        SearchOutcome {
            label: self.config.label(),
            results: self.state.results,
            metrics: self.state.metrics,
        }
    }

    // -----------------------------------------------------------------
    // Stamp construction
    // -----------------------------------------------------------------

    /// The initial stamp `S0 = (v(ps), (ps), 0, ρ, ψ)` of Algorithm 1, with
    /// `KP((ps)) = ⟨v(ps)⟩`.
    pub(crate) fn initial_stamp(&mut self) -> Stamp {
        let route = Route::from_point(self.ctx.query.start);
        let mut coverage = CoverageTracker::new(self.ctx.prepared.len());
        // RW((ps)) contains the i-word of ps's host partition (Definition 5).
        self.credit_partition(self.ctx.start_partition, &mut coverage);
        let relevance = coverage.relevance();
        let score = self.ctx.ranking.score(relevance, 0.0);
        Stamp {
            partition: self.ctx.start_partition,
            route,
            key_partitions: vec![self.ctx.start_partition],
            distance: 0.0,
            coverage,
            relevance,
            score,
        }
    }

    /// The child step of both expansion strategies: the children of
    /// `parent` whose route appends the door path `doors` through `legs`
    /// (as [`Route::extend_with_door_path`] takes them), one landing in
    /// each partition of `landings`, all at route distance `distance`. They
    /// are appended to `children`.
    ///
    /// In order: the distance constraint, Pruning Rule 1 and Pruning Rule 4
    /// (Algorithm 2 lines 14–18, Algorithm 6 lines 14–18), each of which
    /// drops the whole path; then Pruning Rule 5 (Algorithm 5 lines 9–10),
    /// decided with one `Hprime` probe because every landing shares the
    /// child's tail, `KP(R)` and distance. A child Rule 5 rejects is counted
    /// and pruned without being built, unless it lands in `v(pt)`: connect
    /// finalizes such a child regardless (Algorithm 5 lines 2–7).
    ///
    /// Callers pass regular paths only (ToE checks `can_append_door`, and
    /// KoE's paths avoid the route's doors), so a child's route always
    /// extends.
    pub(crate) fn generate_children(
        &mut self,
        parent: &Stamp,
        doors: &[DoorId],
        legs: &[PartitionId],
        landings: &[PartitionId],
        distance: f64,
        children: &mut Vec<Stamp>,
    ) {
        let ctx = self.ctx;
        let delta = ctx.delta();
        let tail = *doors.last().expect("a door path has a door");
        // Hard distance constraint (line 14).
        if distance > delta {
            self.state
                .metrics
                .prunes
                .record(PruneRule::DistanceConstraint);
            return;
        }
        // Pruning Rule 1 (lines 15–16).
        let lower_bound = distance + ctx.door_to_terminal_lb(tail);
        if self.config.use_distance_pruning && lower_bound > delta {
            self.state
                .metrics
                .prunes
                .record(PruneRule::PartialRouteDistance);
            return;
        }
        // Pruning Rule 4 (lines 17–18).
        if self.config.use_kbound_pruning && ctx.ranking.upper_bound(lower_bound) <= self.kbound() {
            self.state.metrics.prunes.record(PruneRule::KBound);
            return;
        }
        // The path starts at the parent's tail door, which is already
        // credited, unless the parent sits at ps.
        let new_doors = &doors[usize::from(parent.route.tail_door().is_some())..];
        let mut key_partitions = parent.key_partitions.clone();
        for &d in new_doors {
            self.credit_key_partitions(d, &mut key_partitions);
        }
        let prime = !self.config.use_prime_pruning
            || self
                .state
                .prime
                .admit(Some(tail), &key_partitions, distance);
        for &landing in landings {
            if prime || landing == ctx.terminal_partition {
                let mut route = parent.route.clone();
                if route.extend_with_door_path(doors, legs).is_err() {
                    continue;
                }
                let mut coverage = parent.coverage.clone();
                for &d in new_doors {
                    self.credit_iwords(d, &mut coverage);
                }
                let relevance = coverage.relevance();
                debug_assert_eq!(
                    key_partitions,
                    ctx.key_partition_sequence(&route),
                    "a child's carried KP(R) must equal its route's"
                );
                children.push(Stamp {
                    partition: landing,
                    route,
                    key_partitions: key_partitions.clone(),
                    distance,
                    coverage,
                    relevance,
                    score: ctx.ranking.score(relevance, distance),
                });
            } else {
                self.state.metrics.prunes.record(PruneRule::Prime);
            }
            self.state.metrics.stamps_generated += 1;
        }
    }

    /// Credits door `d`, just appended to a route, to the route's keyword
    /// coverage: every partition leavable through the door adds its i-word
    /// to `RW(R)` (Definition 5).
    pub(crate) fn credit_iwords(&self, d: DoorId, coverage: &mut CoverageTracker) {
        debug_assert!(
            !self.config.use_distance_pruning || self.ctx.door_in_ellipse(d),
            "credited door {d:?} lies outside the ∆-ellipse"
        );
        for &v in self.ctx.space.d2p_leave(d) {
            self.credit_partition(v, coverage);
        }
    }

    /// Credits partition `v`'s i-word to a route's keyword coverage: the
    /// similarities of its key-partition row.
    pub(crate) fn credit_partition(&self, v: PartitionId, coverage: &mut CoverageTracker) {
        self.state.key_rows.credit(self.ctx, v, coverage);
    }

    /// Credits door `d`, just appended to a route, to the route's
    /// key-partition sequence: each key partition leavable through the door
    /// moves to the end of `KP(R)`.
    pub(crate) fn credit_key_partitions(&self, d: DoorId, key_partitions: &mut Vec<PartitionId>) {
        for &v in self.ctx.space.d2p_leave(d) {
            if self.is_key_partition(v) {
                push_key_partition(key_partitions, v);
            }
        }
    }

    /// [`SearchContext::is_key_partition`], read from the key-partition
    /// rows.
    pub(crate) fn is_key_partition(&self, v: PartitionId) -> bool {
        v == self.ctx.start_partition
            || v == self.ctx.terminal_partition
            || self.partition_covers_candidate(v)
    }

    /// [`SearchContext::partition_covers_candidate`], read from the
    /// key-partition rows.
    pub(crate) fn partition_covers_candidate(&self, v: PartitionId) -> bool {
        self.state.key_rows.covers(self.ctx, v)
    }

    // -----------------------------------------------------------------
    // Queue, results and metrics bookkeeping
    // -----------------------------------------------------------------

    /// Pushes a stamp into the priority queue.
    pub(crate) fn push_stamp(&mut self, stamp: Stamp) {
        self.state.queue_bytes += stamp.estimated_bytes();
        self.state.queue.push(StampOrder(stamp));
        self.state.metrics.observe_queue_len(self.state.queue.len());
    }

    /// Offers a finished (complete) stamp to the top-k results, applying the
    /// distance constraint, the prime check and update, and the kbound
    /// update of Algorithm 5 lines 5–7 / 15–17.
    pub(crate) fn try_accept_result(&mut self, stamp: Stamp) {
        if stamp.distance > self.ctx.delta() {
            self.state
                .metrics
                .prunes
                .record(PruneRule::DistanceConstraint);
            return;
        }
        debug_assert_eq!(
            stamp.key_partitions,
            self.ctx.key_partition_sequence(&stamp.route),
            "a complete route's carried KP(R) must equal its route's"
        );
        // Complete routes all end at `pt`, so their homogeneity key is just
        // the key-partition sequence.
        if self.config.use_prime_pruning
            && !self
                .state
                .prime
                .admit(None, &stamp.key_partitions, stamp.distance)
        {
            self.state.metrics.prunes.record(PruneRule::Prime);
            return;
        }
        self.state.metrics.complete_routes += 1;
        self.state.results.offer(ResultRoute {
            distance: stamp.distance,
            relevance: stamp.relevance,
            score: stamp.score,
            homogeneity_key: (None, stamp.key_partitions),
            route: stamp.route,
        });
    }

    /// Samples the live memory of the search state plus `transient` bytes
    /// the current expansion holds, keeping the peak.
    pub(crate) fn observe_memory(&mut self, transient: usize) {
        let live = transient
            + self.state.queue_bytes
            + self.state.prime.estimated_bytes()
            + self.state.results.estimated_bytes()
            + (self.state.doors_checked.len() + self.state.doors_filtered.len())
                * std::mem::size_of::<DoorId>()
                * 2
            + self.state.key_rows.estimated_bytes()
            + self.state.routing.len() * std::mem::size_of::<RoutingPartition>();
        self.state.metrics.observe_memory(live);
    }

    /// Current `kbound` (k-th best ranking score among complete routes).
    pub(crate) fn kbound(&self) -> f64 {
        self.state.results.kbound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SearchContext;
    use crate::query::IkrqQuery;
    use indoor_geom::{Point, Rect};
    use indoor_keywords::{KeywordDirectory, QueryKeywords};
    use indoor_space::{
        DoorKind, FloorId, IndoorPoint, IndoorSpace, IndoorSpaceBuilder, PartitionKind,
    };

    const A: PartitionId = PartitionId(0);
    const B: PartitionId = PartitionId(1);
    const C: PartitionId = PartitionId(2);
    const H: PartitionId = PartitionId(3);

    /// Rooms a (zara), b (costa, t-word coffee) and c (apple) in a row under
    /// a hallway h without an i-word. Doors: d0 and d1 join a to h, d2 joins
    /// b to h, d3 joins b to c, d4 joins c to h.
    fn venue() -> (IndoorSpace, KeywordDirectory) {
        let mut b = IndoorSpaceBuilder::new();
        let f = FloorId(0);
        let rect =
            |x: f64, y: f64, w: f64| Rect::from_origin_size(Point::new(x, y), w, 10.0).unwrap();
        for x in [0.0, 10.0, 20.0] {
            b.add_partition(f, PartitionKind::Room, rect(x, 0.0, 10.0), None);
        }
        b.add_partition(f, PartitionKind::Hallway, rect(0.0, 10.0, 30.0), None);
        for (x, y, from, to) in [
            (3.0, 10.0, A, H),
            (7.0, 10.0, A, H),
            (15.0, 10.0, B, H),
            (20.0, 5.0, B, C),
            (25.0, 10.0, C, H),
        ] {
            let d = b.add_door(Point::new(x, y), f, DoorKind::Normal);
            b.connect_bidirectional(d, from, to);
        }
        let space = b.build().unwrap();
        let mut dir = KeywordDirectory::new();
        for (v, name) in [(A, "zara"), (B, "costa"), (C, "apple")] {
            let iw = dir.add_iword(name).unwrap();
            dir.name_partition(v, iw).unwrap();
            if name == "costa" {
                dir.add_tword_for(iw, "coffee");
            }
        }
        (space, dir)
    }

    /// A query for "coffee" from a point of a to `terminal`: its key
    /// partitions are a, b and the terminal's host.
    fn query(terminal: (f64, f64)) -> IkrqQuery {
        IkrqQuery::new(
            IndoorPoint::from_xy(2.0, 5.0, FloorId(0)),
            IndoorPoint::from_xy(terminal.0, terminal.1, FloorId(0)),
            200.0,
            QueryKeywords::new(["coffee"]).unwrap(),
            3,
        )
    }

    /// Asserts a stamp carries `expected`, and that it equals the walk of
    /// the stamp's route.
    fn assert_kp(search: &Search<'_>, stamp: &Stamp, expected: &[PartitionId]) {
        assert_eq!(stamp.key_partitions, expected, "route {:?}", stamp.route);
        assert_eq!(
            stamp.key_partitions,
            search.ctx.key_partition_sequence(&stamp.route)
        );
    }

    /// A search of `config` without Rule 5: some walks below revisit a
    /// homogeneity class at a longer distance, which Rule 5 would reject.
    fn search<'a>(ctx: &'a SearchContext<'a>, config: VariantConfig) -> Search<'a> {
        let config = VariantConfig {
            use_prime_pruning: false,
            ..config
        };
        Search::new(ctx, config, None)
    }

    /// The one child the child step makes of `parent` along `doors`
    /// through `legs`, landing in `landing` at `distance`.
    fn child(
        search: &mut Search<'_>,
        parent: &Stamp,
        doors: &[DoorId],
        legs: &[PartitionId],
        landing: PartitionId,
        distance: f64,
    ) -> Option<Stamp> {
        let mut children = Vec::new();
        search.generate_children(parent, doors, legs, &[landing], distance, &mut children);
        assert!(children.len() <= 1);
        children.pop()
    }

    /// Walks `hops` of (door, via, landing) from the initial stamp, each
    /// along the door path ToE hands the child step.
    fn walk(search: &mut Search<'_>, hops: &[(u32, PartitionId, PartitionId)]) -> Stamp {
        let mut stamp = search.initial_stamp();
        for &(door, via, landing) in hops {
            let tail = stamp.route.tail_door();
            let path = [tail.unwrap_or(DoorId(door)), DoorId(door)];
            let doors = &path[usize::from(tail.is_none())..];
            let distance = stamp.distance + 10.0;
            stamp = child(search, &stamp, doors, &[via], landing, distance).expect("a regular hop");
        }
        stamp
    }

    #[test]
    fn carried_kp_moves_a_revisited_key_partition_to_the_end() {
        let (space, dir) = venue();
        let q = query((28.0, 5.0));
        let ctx = SearchContext::prepare(&space, &dir, &q).unwrap();
        let mut search = search(&ctx, VariantConfig::toe());
        let initial = search.initial_stamp();
        assert_kp(&search, &initial, &[A]);
        // ps → d0 → d2: a, then b; the hallway is no key partition.
        let at_b = walk(&mut search, &[(0, A, H), (2, H, H)]);
        assert_kp(&search, &at_b, &[A, B]);
        // Back into a through its other door: a moves behind b.
        let back = walk(&mut search, &[(0, A, H), (2, H, H), (1, H, A)]);
        assert_kp(&search, &back, &[B, A]);
        // A one-hop loop through b re-credits b, which is already last.
        let looped = walk(&mut search, &[(0, A, H), (2, H, B), (2, B, H)]);
        assert_kp(&search, &looped, &[A, B]);
        let at_c = walk(&mut search, &[(0, A, H), (4, H, C)]);
        let complete = search.finalize_at_terminal(&at_c).unwrap();
        assert_kp(&search, &complete, &[A, C]);
    }

    #[test]
    fn carried_kp_pushes_both_key_partitions_behind_a_door() {
        let (space, dir) = venue();
        let q = query((28.0, 5.0));
        let ctx = SearchContext::prepare(&space, &dir, &q).unwrap();
        let mut search = search(&ctx, VariantConfig::toe());
        assert_eq!(space.d2p_leave(DoorId(3)), [B, C]);
        // d3 leads out of b and out of c: both key partitions, in the door's
        // leave order, after a.
        let through = walk(&mut search, &[(1, A, H), (3, H, C)]);
        assert_kp(&search, &through, &[A, B, C]);
        // d3 after d2 re-credits b before c.
        let via_b = walk(&mut search, &[(0, A, H), (2, H, B), (3, B, C)]);
        assert_kp(&search, &via_b, &[A, B, C]);
        let complete = search.finalize_at_terminal(&via_b).unwrap();
        assert_kp(&search, &complete, &[A, B, C]);
    }

    #[test]
    fn carried_kp_when_start_and_terminal_share_a_partition() {
        let (space, dir) = venue();
        let q = query((8.0, 5.0));
        let ctx = SearchContext::prepare(&space, &dir, &q).unwrap();
        assert_eq!(ctx.start_partition, ctx.terminal_partition);
        let mut search = search(&ctx, VariantConfig::toe());
        // The direct route (ps, pt): v(pt) = v(ps) is kept once.
        let initial = search.initial_stamp();
        let direct = search.finalize_at_terminal(&initial).unwrap();
        assert!(direct.route.is_complete() && direct.route.doors().is_empty());
        assert_kp(&search, &direct, &[A]);
        // Out through d0, past b, back in through d1 and on to pt: the
        // shared partition ends the sequence.
        let back = walk(&mut search, &[(0, A, H), (2, H, H), (1, H, A)]);
        let complete = search.finalize_at_terminal(&back).unwrap();
        assert_kp(&search, &complete, &[B, A]);
    }

    #[test]
    fn carried_kp_of_a_koe_path_skips_the_tail_door() {
        let (space, dir) = venue();
        let q = query((28.0, 5.0));
        let ctx = SearchContext::prepare(&space, &dir, &q).unwrap();
        let mut search = search(&ctx, VariantConfig::koe());
        // From ps a path credits every door.
        let initial = search.initial_stamp();
        let from_point = child(
            &mut search,
            &initial,
            &[DoorId(0), DoorId(2)],
            &[A, H],
            B,
            20.0,
        )
        .unwrap();
        assert_kp(&search, &from_point, &[A, B]);
        // From a door the path starts at the route's tail, whose key
        // partitions are already last; each later door moves its own.
        let at_b = walk(&mut search, &[(1, A, H), (2, H, B)]);
        assert_kp(&search, &at_b, &[A, B]);
        let path = child(&mut search, &at_b, &[DoorId(2), DoorId(0)], &[H], A, 30.0).unwrap();
        assert_kp(&search, &path, &[B, A]);
        let single = child(&mut search, &at_b, &[DoorId(2)], &[], B, 20.0).unwrap();
        assert_kp(&search, &single, &[A, B]);
        // The completed route of the connect step starts at the tail too,
        // and ends with v(pt).
        let complete = search
            .build_completed_route(&at_b, &[DoorId(2), DoorId(4)], &[H, C], 40.0)
            .unwrap();
        assert_kp(&search, &complete, &[A, B, C]);
        let through_c = search
            .build_completed_route(&at_b, &[DoorId(2), DoorId(3)], &[B, C], 40.0)
            .unwrap();
        assert_kp(&search, &through_c, &[A, B, C]);
    }
}
