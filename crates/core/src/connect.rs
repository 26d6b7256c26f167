//! The connect step (Algorithm 5): try to finish a freshly generated stamp at
//! the terminal point, or push it back into the queue for further expansion.
//!
//! Algorithm 5 lines 9–10, Pruning Rule 5 on the stamp, apply when the
//! child step (`Search::generate_children`) generates it: every child of
//! one expansion is recorded in `Hprime` before any is connected, and only
//! children of one door path share a homogeneity key, at one distance, so
//! the verdict here would always equal the one given there. A child Rule 5
//! rejects reaches this step only when it lands in `v(pt)`.

use crate::framework::Search;
use crate::stamp::{push_key_partition, Stamp};
use indoor_keywords::CoverageTracker;
use indoor_space::Route;

impl Search<'_> {
    /// `connect(Sj)` of Algorithm 5.
    ///
    /// * If the stamp has reached the terminal partition, connect it directly
    ///   to `pt` and offer the complete route to the results (lines 2–7).
    /// * Otherwise, if the stamp already covers every query keyword with full
    ///   similarity, connect it to `pt` through the shortest regular route
    ///   (lines 11–17).
    /// * Otherwise push it back into the queue for further expansion
    ///   (lines 18–19).
    ///
    /// Following the paper's pseudocode, stamps handled by the first two
    /// cases are *not* expanded further; the `strict_terminal_expansion`
    /// ablation keeps expanding them.
    pub(crate) fn connect(&mut self, stamp: Stamp) {
        if stamp.partition == self.ctx.terminal_partition {
            if let Some(complete) = self.finalize_at_terminal(&stamp) {
                self.try_accept_result(complete);
            }
            if self.config.strict_terminal_expansion {
                self.push_stamp(stamp);
            }
            return;
        }

        // All query keywords fully covered: connect through the shortest
        // regular route and stop expanding this stamp (lines 11–17).
        if stamp.coverage.is_fully_covered() && stamp.route.tail_door().is_some() {
            self.connect_via_shortest_route(&stamp);
            if self.config.strict_terminal_expansion {
                self.push_stamp(stamp);
            }
            return;
        }

        // Otherwise the stamp continues to live in the queue (lines 18–19).
        self.push_stamp(stamp);
    }

    /// Lines 2–7: the stamp's partition hosts `pt`; append the terminal point
    /// directly.
    pub(crate) fn finalize_at_terminal(&mut self, stamp: &Stamp) -> Option<Stamp> {
        let terminal = self.ctx.query.terminal;
        let (increment, via) = match stamp.route.tail_door() {
            Some(tail) => (
                self.ctx.space.d2pt_distance(tail, &terminal),
                self.ctx.terminal_partition,
            ),
            // Degenerate case: ps and pt share a partition and the route has
            // no doors yet; the leg is the intra-partition straight line.
            None => (
                self.ctx.query.start.position.distance(&terminal.position),
                self.ctx.terminal_partition,
            ),
        };
        if !increment.is_finite() {
            return None;
        }
        let mut route = stamp.route.clone();
        route.complete_with_point(terminal, via).ok()?;
        let mut coverage = stamp.coverage.clone();
        self.credit_partition(self.ctx.terminal_partition, &mut coverage);
        let mut key_partitions = stamp.key_partitions.clone();
        push_key_partition(&mut key_partitions, self.ctx.terminal_partition);
        let distance = stamp.distance + increment;
        let relevance = coverage.relevance();
        let score = self.ctx.ranking.score(relevance, distance);
        Some(Stamp {
            partition: self.ctx.terminal_partition,
            route,
            key_partitions,
            distance,
            coverage,
            relevance,
            score,
        })
    }

    /// Lines 11–17: all keywords covered — find the shortest regular route
    /// from the stamp's tail door to `pt`, respecting the doors already used
    /// by the route (global regularity check). The search is bounded by the
    /// remaining budget and cut at the `∆`-ellipse, so a connection that
    /// would break `∆` (line 14) is never found.
    fn connect_via_shortest_route(&mut self, stamp: &Stamp) {
        let Some(tail) = stamp.route.tail_door() else {
            return;
        };
        self.state.metrics.dijkstra_calls += 1;
        let Some((suffix_distance, doors, partitions)) =
            self.ctx.space.shortest_paths().door_to_point_path_within(
                tail,
                &self.ctx.query.terminal,
                stamp.route.doors(),
                stamp.distance,
                self.ctx.delta(),
            )
        else {
            return;
        };
        let total = stamp.distance + suffix_distance;
        let Some(complete) = self.build_completed_route(stamp, &doors, &partitions, total) else {
            return;
        };
        self.try_accept_result(complete);
    }

    /// Builds the complete stamp for a route extended by a door path ending at
    /// an enterable door of `v(pt)` and then the terminal point itself.
    /// `partitions` comes from `door_to_point_path`, i.e. it has one entry per
    /// door hop plus the final terminal-partition leg.
    pub(crate) fn build_completed_route(
        &self,
        stamp: &Stamp,
        doors: &[indoor_space::DoorId],
        partitions: &[indoor_space::PartitionId],
        total_distance: f64,
    ) -> Option<Stamp> {
        debug_assert_eq!(partitions.len(), doors.len());
        let mut route: Route = stamp.route.clone();
        let (hop_partitions, terminal_leg) = partitions.split_at(partitions.len() - 1);
        route.extend_with_door_path(doors, hop_partitions).ok()?;
        route
            .complete_with_point(self.ctx.query.terminal, terminal_leg[0])
            .ok()?;
        let mut coverage: CoverageTracker = stamp.coverage.clone();
        let mut key_partitions = stamp.key_partitions.clone();
        for &d in doors.iter().skip(1) {
            self.credit_iwords(d, &mut coverage);
            self.credit_key_partitions(d, &mut key_partitions);
        }
        self.credit_partition(self.ctx.terminal_partition, &mut coverage);
        push_key_partition(&mut key_partitions, self.ctx.terminal_partition);
        let relevance = coverage.relevance();
        let score = self.ctx.ranking.score(relevance, total_distance);
        Some(Stamp {
            partition: self.ctx.terminal_partition,
            route,
            key_partitions,
            distance: total_distance,
            coverage,
            relevance,
            score,
        })
    }
}
