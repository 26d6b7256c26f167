//! The unified IKRQ search framework (Algorithm 1).
//!
//! The framework owns the priority queue of stamps, the prime-route table
//! `Hprime`, the route tree and key-partition classes the stamps name, the
//! top-k result set (and therefore the `kbound`), and the search metrics.
//! It pops the best-scoring stamp, applies Pruning Rule 5 to it, asks the
//! configured expansion strategy ([`crate::toe`] or [`crate::koe`]) for the
//! next valid stamps, and hands each of them to the connect step
//! ([`crate::connect`]).
//!
//! Both strategies make their children through one child step,
//! `Search::generate_children`: it applies the distance constraint and
//! Pruning Rules 1, 4 and 5 to a door path, and builds a child only when
//! Rule 5 admits it or it lands in `v(pt)`.
//!
//! What a search keys by door or partition id — the visited-door caches
//! `Dn`/`Df` of Pruning Rule 2, Rule 1's `|d, pt|_L` memo, the offsets of
//! the key-partition rows, and the doors of the expanded stamp's route — is
//! a slot of the thread's scratch ([`crate::scratch`]), which the search
//! takes when it starts and gives back when it ends. The queue
//! (`StampQueue`) orders integer keys over a slab of stamps.

use crate::classes::{ClassId, KpClasses};
use crate::context::{KeyPartitionRows, SearchContext};
use crate::koe::RoutingPartition;
use crate::metrics::SearchMetrics;
use crate::prime::PrimeTable;
use crate::pruning::PruneRule;
use crate::results::{ResultRoute, SearchOutcome, TopKResults};
use crate::scratch::PooledScratch;
use crate::stamp::{path_extends_marked, NodeId, RouteTree, Stamp, StampQueue, START};
use crate::variants::{AlgorithmKind, VariantConfig};
use indoor_keywords::RelevanceModel;
use indoor_space::{DoorId, PartitionId, Route};
use std::convert::Infallible;
use std::time::Instant;

/// Mutable state of one search run.
pub(crate) struct SearchState {
    /// Priority queue `Q` ordered by ranking score.
    pub queue: StampQueue,
    /// The thread's door and partition slots, live under this search's
    /// epoch: Rule 2's verdicts (`Dn`/`Df`), the `|d, pt|_L` of every door
    /// Pruning Rule 1 has bounded a path by, the key-partition rows'
    /// offsets, and the marks of `route_doors`.
    pub scratch: PooledScratch,
    /// The prime-route table `Hprime`.
    pub prime: PrimeTable,
    /// The key-partition classes the stamps name.
    pub classes: KpClasses,
    /// The routes the stamps name.
    pub tree: RouteTree,
    /// The top-k results (owns the `kbound`).
    pub results: TopKResults,
    /// The keyword similarities of every partition the search has met,
    /// scored on first use.
    pub key_rows: KeyPartitionRows,
    /// KoE only: the routing set `P` of Algorithm 1 line 3 after Pruning
    /// Rule 3, built once when the initial stamp is expanded.
    pub routing: Vec<RoutingPartition>,
    /// The doors of the stamp being expanded, first door first: collected
    /// and marked in the scratch once per expansion
    /// ([`Search::collect_route_doors`]). ToE's regularity test, KoE's
    /// route-door test, the shortest-path exclusions and the child step
    /// read the marks, and scan the doors only for a marked door. Once
    /// every child is generated, the connect step collects a fully covered
    /// child's doors here.
    pub route_doors: Vec<DoorId>,
    /// The doors of KoE's connection path, and then of the connect step's
    /// path to `pt`, reused across connections.
    pub path_doors: Vec<DoorId>,
    /// The partitions between the doors of `path_doors`.
    pub path_legs: Vec<PartitionId>,
    /// KoE only: the expanded stamp's jumps `(vj, dl)`, in `routing`'s
    /// order, reused across expansions.
    pub jumps: Vec<(PartitionId, DoorId)>,
    /// KoE only: the doors a run from the expanded stamp's door stops at,
    /// sorted and distinct.
    pub jump_targets: Vec<DoorId>,
    /// Metrics of the run.
    pub metrics: SearchMetrics,
}

/// One search run: context + configuration + state.
pub struct Search<'a> {
    pub(crate) ctx: &'a SearchContext<'a>,
    pub(crate) config: VariantConfig,
    pub(crate) state: SearchState,
}

impl<'a> Search<'a> {
    /// Creates a search run. It takes the calling thread's scratch
    /// ([`crate::scratch`]), which the search gives back when it is
    /// dropped. The third parameter only keeps existing three-argument
    /// callers compiling: no value of [`Infallible`] exists, so it is
    /// always `None`, and a KoE* search computes its own paths.
    pub fn new(
        ctx: &'a SearchContext<'a>,
        config: VariantConfig,
        _shared_rows: Option<Infallible>,
    ) -> Self {
        let results = TopKResults::new(ctx.query.k, config.use_prime_pruning);
        let space = ctx.space;
        Search {
            ctx,
            config,
            state: SearchState {
                queue: StampQueue::default(),
                scratch: PooledScratch::take(space.num_doors(), space.num_partitions()),
                prime: PrimeTable::new(),
                classes: KpClasses::new(ctx.prepared.len()),
                tree: RouteTree::default(),
                results,
                key_rows: KeyPartitionRows::default(),
                routing: Vec::new(),
                route_doors: Vec::new(),
                path_doors: Vec::new(),
                path_legs: Vec::new(),
                jumps: Vec::new(),
                jump_targets: Vec::new(),
                metrics: SearchMetrics::new(),
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

        // The popped stamp's children, reused across expansions.
        let mut children = Vec::new();
        while let Some(stamp) = self.state.queue.pop() {
            self.state.metrics.stamps_expanded += 1;
            if let Some(budget) = self.config.expansion_budget {
                if self.state.metrics.stamps_expanded > budget {
                    self.state.metrics.budget_exhausted = true;
                    break;
                }
            }
            self.debug_check_class(&stamp, false, "a popped stamp");
            // Pruning Rule 5 on the popped stamp (Algorithm 2 line 3,
            // Algorithm 6 line 3): a shorter homogeneous route was recorded
            // after this one was queued.
            if self.config.use_prime_pruning
                && !self
                    .state
                    .prime
                    .check(stamp.tail, stamp.class, stamp.distance)
            {
                self.state.metrics.prunes.record(PruneRule::Prime);
            } else {
                // Every child is generated before any is connected: a
                // connected child can raise the kbound of Rule 4.
                self.collect_route_doors(stamp.node);
                match self.config.kind {
                    AlgorithmKind::ToE => self.toe_find(&stamp, &mut children),
                    AlgorithmKind::KoE => self.koe_find(&stamp, &mut children),
                }
                for child in children.drain(..) {
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

    /// Collects the doors of `node`'s route into `route_doors`, and marks
    /// them in the scratch.
    pub(crate) fn collect_route_doors(&mut self, node: NodeId) {
        let state = &mut self.state;
        state.tree.collect_doors(node, &mut state.route_doors);
        state.scratch.mark_route(&state.route_doors);
    }

    // -----------------------------------------------------------------
    // Stamp construction
    // -----------------------------------------------------------------

    /// The initial stamp `S0 = (v(ps), (ps), 0, ρ, ψ)` of Algorithm 1, with
    /// `KP((ps)) = ⟨v(ps)⟩`: `RW((ps))` holds the i-word of ps's host
    /// partition (Definition 5).
    pub(crate) fn initial_stamp(&mut self) -> Stamp {
        let (ctx, v) = (self.ctx, self.ctx.start_partition);
        let (rows, scratch) = (&mut self.state.key_rows, &mut self.state.scratch);
        let class = self
            .state
            .classes
            .single(v, |coverage| rows.credit(scratch, ctx, v, coverage));
        let relevance = self.state.classes.relevance(class);
        Stamp {
            partition: v,
            node: START,
            tail: None,
            class,
            distance: 0.0,
            relevance,
            score: ctx.ranking.score(relevance, 0.0),
        }
    }

    /// The child step of both expansion strategies: the children of
    /// `parent`, the stamp being expanded, along the door path `doors`
    /// through `legs` (as [`Route::extend_with_door_path`] takes them), one
    /// landing in each partition of `landings`, all at route distance
    /// `distance`. They are appended to `children`.
    ///
    /// In order: the distance constraint, Pruning Rule 1 and Pruning Rule 4
    /// (Algorithm 2 lines 14–18, Algorithm 6 lines 14–18), each of which
    /// drops the whole path; then Pruning Rule 5 (Algorithm 5 lines 9–10),
    /// decided with one `Hprime` probe because every landing shares the
    /// child's tail, `KP(R)` and distance. A child Rule 5 rejects is counted
    /// and pruned without being built, unless it lands in `v(pt)`: connect
    /// finalizes such a child regardless (Algorithm 5 lines 2–7).
    ///
    /// A path that does not extend the route regularly makes no child and
    /// is not counted; callers pass regular paths only (ToE checks
    /// `can_append_door`, and KoE's paths avoid the route's doors). The
    /// landings of one path share the tree nodes of the doors it adds.
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
        let lower_bound = distance
            + self
                .state
                .scratch
                .terminal_bound(tail, || ctx.door_to_terminal_lb(tail));
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
        let added = &doors[usize::from(parent.tail.is_some())..];
        let mut class = parent.class;
        for &d in added {
            class = self.push_door(class, d);
        }
        let prime =
            !self.config.use_prime_pruning || self.state.prime.admit(Some(tail), class, distance);
        // The child's tree node, appended when the first child is built.
        let mut node = None;
        for &landing in landings {
            if prime || landing == ctx.terminal_partition {
                if node.is_none() {
                    let state = &self.state;
                    if !path_extends_marked(&state.route_doors, doors, legs, |d| {
                        state.scratch.is_marked(d)
                    }) {
                        continue;
                    }
                    node = Some(self.state.tree.extend(parent.node, added, legs));
                }
                let relevance = self.state.classes.relevance(class);
                children.push(Stamp {
                    partition: landing,
                    node: node.expect("appended above"),
                    tail: Some(tail),
                    class,
                    distance,
                    relevance,
                    score: ctx.ranking.score(relevance, distance),
                });
            } else {
                self.state.metrics.prunes.record(PruneRule::Prime);
            }
            self.state.metrics.stamps_generated += 1;
        }
    }

    /// The class of a route of class `class` after door `d`: each key
    /// partition leavable through the door moves to the end of `KP(R)` and
    /// credits its i-word to `RW(R)` (Definition 5); a partition that is
    /// no key partition adds no route word.
    pub(crate) fn push_door(&mut self, mut class: ClassId, d: DoorId) -> ClassId {
        debug_assert!(
            !self.config.use_distance_pruning || self.ctx.door_in_ellipse(d),
            "credited door {d:?} lies outside the ∆-ellipse"
        );
        for &v in self.ctx.space.d2p_leave(d) {
            if self.is_key_partition(v) {
                class = self.push_partition(class, v);
            }
        }
        class
    }

    /// The class of a route of class `class` after key partition `v`,
    /// crediting `v`'s key-partition row when the class is new.
    pub(crate) fn push_partition(&mut self, class: ClassId, v: PartitionId) -> ClassId {
        let (ctx, rows, scratch) = (self.ctx, &mut self.state.key_rows, &mut self.state.scratch);
        self.state
            .classes
            .push(class, v, |coverage| rows.credit(scratch, ctx, v, coverage))
    }

    /// [`SearchContext::is_key_partition`], read from the key-partition
    /// rows.
    pub(crate) fn is_key_partition(&mut self, v: PartitionId) -> bool {
        v == self.ctx.start_partition
            || v == self.ctx.terminal_partition
            || self.partition_covers_candidate(v)
    }

    /// [`SearchContext::partition_covers_candidate`], read from the
    /// key-partition rows.
    pub(crate) fn partition_covers_candidate(&mut self, v: PartitionId) -> bool {
        self.partition_row(v).is_some()
    }

    /// The offset of partition `v`'s key-partition row, scored on first
    /// use; `None` when `v` covers no query keyword.
    pub(crate) fn partition_row(&mut self, v: PartitionId) -> Option<usize> {
        let state = &mut self.state;
        state.key_rows.row(&mut state.scratch, self.ctx, v)
    }

    /// The route a stamp names, completed at `pt` when `complete` is set.
    pub(crate) fn route_of(&self, stamp: &Stamp, complete: bool) -> Route {
        let mut route = self.state.tree.route(self.ctx.query.start, stamp.node);
        if complete {
            route
                .complete_with_point(self.ctx.query.terminal, self.ctx.terminal_partition)
                .expect("a partial route completes");
        }
        route
    }

    /// Debug builds: the stamp's class holds the `KP(R)` and `ρ` of the
    /// route it names, by the specification walks. Release builds skip
    /// the walks.
    fn debug_check_class(&self, stamp: &Stamp, complete: bool, what: &str) {
        if cfg!(debug_assertions) {
            let ctx = self.ctx;
            let route = self.route_of(stamp, complete);
            assert_eq!(
                self.state.classes.sequence(stamp.class),
                ctx.key_partition_sequence(&route),
                "{what}'s carried KP(R) must equal its route's"
            );
            assert_eq!(
                stamp.relevance.to_bits(),
                RelevanceModel::relevance_of_route(&route, ctx.space, ctx.directory, &ctx.prepared)
                    .to_bits(),
                "{what}'s class ρ must equal its route's"
            );
        }
    }

    // -----------------------------------------------------------------
    // Queue, results and metrics bookkeeping
    // -----------------------------------------------------------------

    /// Pushes a stamp into the priority queue.
    pub(crate) fn push_stamp(&mut self, stamp: Stamp) {
        self.state.queue.push(stamp);
        self.state.metrics.observe_queue_len(self.state.queue.len());
    }

    /// Offers a finished (complete) stamp to the top-k results, applying the
    /// distance constraint, the prime check and update, and the kbound
    /// update of Algorithm 5 lines 5–7 / 15–17. Its route is built only
    /// when it passes the distance constraint and Rule 5.
    pub(crate) fn try_accept_result(&mut self, complete: Stamp) {
        if complete.distance > self.ctx.delta() {
            self.state
                .metrics
                .prunes
                .record(PruneRule::DistanceConstraint);
            return;
        }
        self.debug_check_class(&complete, true, "a complete route");
        // Complete routes all end at `pt`, so their homogeneity key is just
        // the key-partition sequence.
        if self.config.use_prime_pruning
            && !self
                .state
                .prime
                .admit(None, complete.class, complete.distance)
        {
            self.state.metrics.prunes.record(PruneRule::Prime);
            return;
        }
        self.state.metrics.complete_routes += 1;
        let route = self.route_of(&complete, true);
        let key_partitions = self.state.classes.sequence(complete.class).to_vec();
        self.state.results.offer(ResultRoute {
            distance: complete.distance,
            relevance: complete.relevance,
            score: complete.score,
            homogeneity_key: (None, key_partitions),
            route,
        });
    }

    /// Samples the live memory of the search state plus `transient` bytes
    /// the current expansion holds, keeping the peak. The scratch's slots
    /// belong to the thread; only the entries this search wrote count.
    pub(crate) fn observe_memory(&mut self, transient: usize) {
        use std::mem::size_of;
        let state = &self.state;
        let live = transient
            + state.queue.len() * size_of::<Stamp>()
            + state.tree.estimated_bytes()
            + state.classes.estimated_bytes()
            + state.prime.estimated_bytes()
            + state.results.estimated_bytes()
            + state.scratch.written_bytes()
            + state.key_rows.estimated_bytes()
            + state.routing.len() * size_of::<RoutingPartition>();
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

    /// Asserts a stamp's class carries `expected`, and that it equals the
    /// walk of the stamp's route; `complete` stamps end at `pt`.
    fn assert_kp(search: &Search<'_>, stamp: &Stamp, expected: &[PartitionId]) {
        let complete = stamp.partition == search.ctx.terminal_partition;
        let route = search.route_of(stamp, complete);
        let carried = search.state.classes.sequence(stamp.class);
        assert_eq!(carried, expected, "route {route:?}");
        assert_eq!(carried, search.ctx.key_partition_sequence(&route));
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
        expand(search, parent);
        search.generate_children(parent, doors, legs, &[landing], distance, &mut children);
        assert!(children.len() <= 1);
        children.pop()
    }

    /// Collects `stamp`'s doors, as the search does when it expands it.
    fn expand(search: &mut Search<'_>, stamp: &Stamp) {
        search.collect_route_doors(stamp.node);
    }

    /// The complete stamp the connect step builds from `stamp` along
    /// `doors` through `partitions` (the last one `v(pt)`'s leg).
    fn completed(
        search: &mut Search<'_>,
        stamp: &Stamp,
        doors: &[DoorId],
        partitions: &[PartitionId],
        distance: f64,
    ) -> Option<Stamp> {
        expand(search, stamp);
        search.build_completed_route(stamp, doors, partitions, distance)
    }

    /// Walks `hops` of (door, via, landing) from the initial stamp, each
    /// along the door path ToE hands the child step.
    fn walk(search: &mut Search<'_>, hops: &[(u32, PartitionId, PartitionId)]) -> Stamp {
        let mut stamp = search.initial_stamp();
        for &(door, via, landing) in hops {
            let tail = stamp.tail;
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
        assert!(search.route_of(&direct, true).doors().is_empty());
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
        let complete =
            completed(&mut search, &at_b, &[DoorId(2), DoorId(4)], &[H, C], 40.0).unwrap();
        assert_kp(&search, &complete, &[A, B, C]);
        let through_c =
            completed(&mut search, &at_b, &[DoorId(2), DoorId(3)], &[B, C], 40.0).unwrap();
        assert_kp(&search, &through_c, &[A, B, C]);
    }

    /// The reference for a child's route: a clone of the parent's route
    /// extended in place by `doors` through `legs`.
    fn cloned_and_extended(
        search: &Search<'_>,
        parent: &Stamp,
        doors: &[DoorId],
        legs: &[PartitionId],
    ) -> Route {
        let mut route = search.route_of(parent, false);
        route.extend_with_door_path(doors, legs).unwrap();
        route
    }

    #[test]
    fn the_route_tree_builds_the_routes_clone_and_extend_built() {
        let (space, dir) = venue();
        let q = query((28.0, 5.0));
        let ctx = SearchContext::prepare(&space, &dir, &q).unwrap();
        let mut search = search(&ctx, VariantConfig::koe());
        // A ToE hop from a door: (d1, d2) through the hallway.
        let at_h = walk(&mut search, &[(1, A, H)]);
        let hop = child(&mut search, &at_h, &[DoorId(1), DoorId(2)], &[H], B, 20.0).unwrap();
        assert_eq!(
            search.route_of(&hop, false),
            cloned_and_extended(&search, &at_h, &[DoorId(1), DoorId(2)], &[H])
        );
        // A multi-door KoE path from ps and one from a door.
        let initial = search.initial_stamp();
        let from_point = child(
            &mut search,
            &initial,
            &[DoorId(0), DoorId(2), DoorId(3)],
            &[A, H, B],
            C,
            30.0,
        )
        .unwrap();
        assert_eq!(
            search.route_of(&from_point, false),
            cloned_and_extended(
                &search,
                &initial,
                &[DoorId(0), DoorId(2), DoorId(3)],
                &[A, H, B]
            )
        );
        let path = [DoorId(2), DoorId(4), DoorId(3)];
        let from_door = child(&mut search, &hop, &path, &[H, C], B, 40.0).unwrap();
        assert_eq!(
            search.route_of(&from_door, false),
            cloned_and_extended(&search, &hop, &path, &[H, C])
        );
        // Both landings of one path name one node.
        let mut children = Vec::new();
        expand(&mut search, &at_h);
        search.generate_children(
            &at_h,
            &[DoorId(1), DoorId(4)],
            &[H],
            &[H, C],
            25.0,
            &mut children,
        );
        assert_eq!(children.len(), 2);
        assert_eq!(children[0].node, children[1].node);
        assert_ne!(children[0].partition, children[1].partition);
    }

    #[test]
    fn a_path_that_re_enters_a_door_after_another_makes_no_child() {
        let (space, dir) = venue();
        let q = query((28.0, 5.0));
        let ctx = SearchContext::prepare(&space, &dir, &q).unwrap();
        let mut search = search(&ctx, VariantConfig::koe());
        // (d0, d2) then back through d0: d0 would re-appear after d2.
        let at_b = walk(&mut search, &[(0, A, H), (2, H, B)]);
        let generated = search.state.metrics.stamps_generated;
        assert!(child(&mut search, &at_b, &[DoorId(2), DoorId(0)], &[H], A, 30.0).is_none());
        assert!(child(
            &mut search,
            &at_b,
            &[DoorId(2), DoorId(1), DoorId(0)],
            &[H, A],
            H,
            35.0
        )
        .is_none());
        assert_eq!(search.state.metrics.stamps_generated, generated);
        // The one-hop loop (d2, d2) is regular, and a third d2 is not.
        let looped = child(&mut search, &at_b, &[DoorId(2), DoorId(2)], &[B], H, 25.0).unwrap();
        assert_eq!(search.state.metrics.stamps_generated, generated + 1);
        assert!(child(&mut search, &looped, &[DoorId(2), DoorId(2)], &[H], B, 30.0).is_none());
        assert_eq!(search.state.metrics.stamps_generated, generated + 1);
    }
}
