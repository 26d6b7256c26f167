//! The unified IKRQ search framework (Algorithm 1).
//!
//! The framework owns the priority queue of stamps, the visited-door caches
//! `Dn`/`Df` of Pruning Rule 2, the prime-route table `Hprime`, the top-k
//! result set (and therefore the `kbound`), and the search metrics. It pops
//! the best-scoring stamp, asks the configured expansion strategy
//! ([`crate::toe`] or [`crate::koe`]) for the next valid stamps, and hands
//! each of them to the connect step ([`crate::connect`]).

use crate::context::SearchContext;
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
    /// KoE only: the routing set `P` of Algorithm 1 line 3 after Pruning
    /// Rule 3, built once when the initial stamp is expanded.
    pub routing: Vec<RoutingPartition>,
    /// Metrics of the run.
    pub metrics: SearchMetrics,
    /// Running total of the estimated bytes held by queued stamps.
    pub queue_bytes: usize,
    /// The shared venue index's charge to every memory sample (0 on the
    /// scan engine), computed once per search.
    pub index_bytes: usize,
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
                routing: Vec::new(),
                metrics: SearchMetrics::new(),
                queue_bytes: 0,
                index_bytes: ctx.index.map(|i| i.estimated_bytes()).unwrap_or(0),
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
            let expansions = match self.config.kind {
                AlgorithmKind::ToE => self.toe_find(&stamp),
                AlgorithmKind::KoE => self.koe_find(&stamp),
            };
            self.state.metrics.stamps_generated += expansions.len() as u64;
            for next in expansions {
                self.connect(next);
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
        if let Some(iw) = self.ctx.iword_of_partition(self.ctx.start_partition) {
            coverage.add_iword(&self.ctx.prepared, iw);
        }
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

    /// Builds the child stamp obtained by appending door `door` (traversing
    /// the parent's partition `via`) and landing in partition `landing`.
    pub(crate) fn extend_stamp_with_door(
        &self,
        parent: &Stamp,
        door: DoorId,
        via: PartitionId,
        landing: PartitionId,
        new_distance: f64,
    ) -> Option<Stamp> {
        let mut route = parent.route.clone();
        route.append_door(door, via).ok()?;
        let mut coverage = parent.coverage.clone();
        // Room for every partition behind the door, so crediting it never
        // reallocates: this runs once per generated ToE stamp.
        let mut key_partitions =
            Vec::with_capacity(parent.key_partitions.len() + self.ctx.space.d2p_leave(door).len());
        key_partitions.extend_from_slice(&parent.key_partitions);
        self.credit_door(door, &mut coverage, &mut key_partitions);
        let relevance = coverage.relevance();
        let score = self.ctx.ranking.score(relevance, new_distance);
        Some(Stamp {
            partition: landing,
            route,
            key_partitions,
            distance: new_distance,
            coverage,
            relevance,
            score,
        })
    }

    /// Builds the child stamp obtained by appending a whole door path (as
    /// returned by a shortest-path query) and landing in partition `landing`.
    /// `path_partitions` must have one entry less than `path_doors` when the
    /// parent route already has a tail door (the path starts at that tail),
    /// or exactly as many entries when the parent route starts at `ps`.
    pub(crate) fn extend_stamp_with_path(
        &self,
        parent: &Stamp,
        path_doors: &[DoorId],
        path_partitions: &[PartitionId],
        landing: PartitionId,
        new_distance: f64,
    ) -> Option<Stamp> {
        let mut route = parent.route.clone();
        route
            .extend_with_door_path(path_doors, path_partitions)
            .ok()?;
        let mut coverage = parent.coverage.clone();
        let mut key_partitions = parent.key_partitions.clone();
        let skip = usize::from(parent.route.tail_door().is_some());
        for &d in path_doors.iter().skip(skip) {
            self.credit_door(d, &mut coverage, &mut key_partitions);
        }
        let relevance = coverage.relevance();
        let score = self.ctx.ranking.score(relevance, new_distance);
        Some(Stamp {
            partition: landing,
            route,
            key_partitions,
            distance: new_distance,
            coverage,
            relevance,
            score,
        })
    }

    /// Credits door `d`, just appended to a stamp's route, to the stamp's
    /// coverage and key partitions: every partition leavable through the
    /// door adds its i-word to `RW(R)` (Definition 5), and each that is a
    /// key partition moves to the end of `KP(R)`.
    pub(crate) fn credit_door(
        &self,
        d: DoorId,
        coverage: &mut CoverageTracker,
        key_partitions: &mut Vec<PartitionId>,
    ) {
        for &v in self.ctx.space.d2p_leave(d) {
            if let Some(iw) = self.ctx.iword_of_partition(v) {
                coverage.add_iword(&self.ctx.prepared, iw);
            }
            if self.ctx.is_key_partition(v) {
                push_key_partition(key_partitions, v);
            }
        }
    }

    // -----------------------------------------------------------------
    // Prime-route helpers (Algorithms 3 and 4)
    // -----------------------------------------------------------------

    /// The homogeneity tail of a stamp's route: the last door for partial
    /// routes, `None` for complete routes (whose tail is the shared terminal
    /// point `pt`, see Definition 2).
    fn homogeneity_tail(stamp: &Stamp) -> Option<DoorId> {
        if stamp.route.is_complete() {
            None
        } else {
            stamp.route.tail_door()
        }
    }

    /// `prime_check` for a stamp, on the `KP(R)` it carries.
    pub(crate) fn prime_check_stamp(&mut self, stamp: &Stamp) -> bool {
        debug_assert_eq!(
            stamp.key_partitions,
            self.ctx.key_partition_sequence(&stamp.route),
            "a stamp's carried KP(R) must equal its route's"
        );
        self.state.prime.check(
            Self::homogeneity_tail(stamp),
            &stamp.key_partitions,
            stamp.distance,
        )
    }

    /// `prime_update` for a stamp, on the `KP(R)` it carries.
    pub(crate) fn prime_update_stamp(&mut self, stamp: &Stamp) {
        self.state.prime.update(
            Self::homogeneity_tail(stamp),
            &stamp.key_partitions,
            stamp.distance,
        );
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
    /// distance constraint, the prime check and the kbound update of
    /// Algorithm 5 lines 5–7 / 15–17.
    pub(crate) fn try_accept_result(&mut self, stamp: Stamp) {
        if stamp.distance > self.ctx.delta() {
            self.state
                .metrics
                .prunes
                .record(PruneRule::DistanceConstraint);
            return;
        }
        if self.config.use_prime_pruning && !self.prime_check_stamp(&stamp) {
            self.state.metrics.prunes.record(PruneRule::Prime);
            return;
        }
        self.state.metrics.complete_routes += 1;
        if self.config.use_prime_pruning {
            self.prime_update_stamp(&stamp);
        }
        debug_assert_eq!(
            stamp.key_partitions,
            self.ctx.key_partition_sequence(&stamp.route),
            "a complete route's carried KP(R) must equal its route's"
        );
        // Complete routes all end at `pt`, so their homogeneity key is just
        // the key-partition sequence.
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
            + self.state.routing.len() * std::mem::size_of::<RoutingPartition>()
            // Index mode charges the shared index.
            + self.state.index_bytes;
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

    /// Walks `hops` of (door, via, landing) from the initial stamp.
    fn walk(search: &mut Search<'_>, hops: &[(u32, PartitionId, PartitionId)]) -> Stamp {
        let mut stamp = search.initial_stamp();
        for &(door, via, landing) in hops {
            let distance = stamp.distance + 10.0;
            stamp = search
                .extend_stamp_with_door(&stamp, DoorId(door), via, landing, distance)
                .expect("a regular hop");
        }
        stamp
    }

    #[test]
    fn carried_kp_moves_a_revisited_key_partition_to_the_end() {
        let (space, dir) = venue();
        let q = query((28.0, 5.0));
        let ctx = SearchContext::prepare(&space, &dir, &q).unwrap();
        let mut search = Search::new(&ctx, VariantConfig::toe(), None);
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
        let mut search = Search::new(&ctx, VariantConfig::toe(), None);
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
        let mut search = Search::new(&ctx, VariantConfig::toe(), None);
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
        let mut search = Search::new(&ctx, VariantConfig::koe(), None);
        // From ps a path credits every door.
        let initial = search.initial_stamp();
        let from_point = search
            .extend_stamp_with_path(&initial, &[DoorId(0), DoorId(2)], &[A, H], B, 20.0)
            .unwrap();
        assert_kp(&search, &from_point, &[A, B]);
        // From a door the path starts at the route's tail, whose key
        // partitions are already last; each later door moves its own.
        let at_b = walk(&mut search, &[(1, A, H), (2, H, B)]);
        assert_kp(&search, &at_b, &[A, B]);
        let path = search
            .extend_stamp_with_path(&at_b, &[DoorId(2), DoorId(0)], &[H], A, 30.0)
            .unwrap();
        assert_kp(&search, &path, &[B, A]);
        let single = search
            .extend_stamp_with_path(&at_b, &[DoorId(2)], &[], B, 20.0)
            .unwrap();
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
