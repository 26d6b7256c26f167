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
use crate::stamp::{Stamp, StampOrder};
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

    /// The initial stamp `S0 = (v(ps), (ps), 0, ρ, ψ)` of Algorithm 1.
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
        for iw in self.ctx.iwords_behind_door(door) {
            coverage.add_iword(&self.ctx.prepared, iw);
        }
        let relevance = coverage.relevance();
        let score = self.ctx.ranking.score(relevance, new_distance);
        Some(Stamp {
            partition: landing,
            route,
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
        let skip = usize::from(parent.route.tail_door().is_some());
        for &d in path_doors.iter().skip(skip) {
            for iw in self.ctx.iwords_behind_door(d) {
                coverage.add_iword(&self.ctx.prepared, iw);
            }
        }
        let relevance = coverage.relevance();
        let score = self.ctx.ranking.score(relevance, new_distance);
        Some(Stamp {
            partition: landing,
            route,
            distance: new_distance,
            coverage,
            relevance,
            score,
        })
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

    /// `prime_check` for a stamp.
    pub(crate) fn prime_check_stamp(&self, stamp: &Stamp) -> bool {
        let kp = self.ctx.key_partition_sequence(&stamp.route);
        self.state
            .prime
            .check(Self::homogeneity_tail(stamp), &kp, stamp.distance)
    }

    /// `prime_update` for a stamp.
    pub(crate) fn prime_update_stamp(&mut self, stamp: &Stamp) {
        let kp = self.ctx.key_partition_sequence(&stamp.route);
        self.state
            .prime
            .update(Self::homogeneity_tail(stamp), &kp, stamp.distance);
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
        // Complete routes all end at `pt`, so their homogeneity key is just
        // the key-partition sequence.
        let key = (None, self.ctx.key_partition_sequence(&stamp.route));
        self.state.results.offer(ResultRoute {
            distance: stamp.distance,
            relevance: stamp.relevance,
            score: stamp.score,
            homogeneity_key: key,
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
            + self.ctx.index.map(|i| i.estimated_bytes()).unwrap_or(0);
        self.state.metrics.observe_memory(live);
    }

    /// Current `kbound` (k-th best ranking score among complete routes).
    pub(crate) fn kbound(&self) -> f64 {
        self.state.results.kbound()
    }
}
