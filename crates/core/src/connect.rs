//! The connect step (Algorithm 5): try to finish a freshly generated stamp at
//! the terminal point, or push it back into the queue for further expansion.
//!
//! Algorithm 5 lines 9–10, Pruning Rule 5 on the stamp, apply when the
//! child step (`Search::generate_children`) generates it: every child of
//! one expansion is recorded in `Hprime` before any is connected, and only
//! children of one door path share a homogeneity key, at one distance, so
//! the verdict here would always equal the one given there. A child Rule 5
//! rejects reaches this step only when it lands in `v(pt)`.

use crate::classes::ClassId;
use crate::framework::Search;
use crate::stamp::{path_extends_marked, NodeId, Stamp};
use indoor_space::{DoorId, PartitionId};

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
        if self.state.classes.is_fully_covered(stamp.class) && stamp.tail.is_some() {
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
    /// directly. The complete stamp names the same tree node as `stamp`,
    /// and `v(pt)` ends its `KP(R)`.
    pub(crate) fn finalize_at_terminal(&mut self, stamp: &Stamp) -> Option<Stamp> {
        let query = self.ctx.query;
        let increment = match stamp.tail {
            Some(tail) => self.ctx.door_to_terminal(tail),
            // Degenerate case: ps and pt share a partition and the route has
            // no doors yet; the leg is the intra-partition straight line.
            None => query.start.position.distance(&query.terminal.position),
        };
        if !increment.is_finite() {
            return None;
        }
        let distance = stamp.distance + increment;
        Some(self.completed(stamp.node, stamp.tail, stamp.class, distance))
    }

    /// The complete stamp at `pt` of a route at tree node `node` with tail
    /// `tail` and class `class`, `distance` long: its class gains `v(pt)`.
    fn completed(
        &mut self,
        node: NodeId,
        tail: Option<DoorId>,
        class: ClassId,
        distance: f64,
    ) -> Stamp {
        let class = self.push_partition(class, self.ctx.terminal_partition);
        let relevance = self.state.classes.relevance(class);
        Stamp {
            partition: self.ctx.terminal_partition,
            node,
            tail,
            class,
            distance,
            relevance,
            score: self.ctx.ranking.score(relevance, distance),
        }
    }

    /// Lines 11–17: all keywords covered — find the shortest regular route
    /// from the stamp's tail door to `pt`, respecting the doors already used
    /// by the route (global regularity check). The search is bounded by the
    /// remaining budget and cut at the `∆`-ellipse, so a connection that
    /// would break `∆` (line 14) is never found.
    fn connect_via_shortest_route(&mut self, stamp: &Stamp) {
        let Some(tail) = stamp.tail else {
            return;
        };
        self.state.metrics.dijkstra_calls += 1;
        self.collect_route_doors(stamp.node);
        // KoE's connection buffers are free while children are connected.
        let (mut doors, mut partitions) = (
            std::mem::take(&mut self.state.path_doors),
            std::mem::take(&mut self.state.path_legs),
        );
        doors.clear();
        partitions.clear();
        let scratch = &self.state.scratch;
        let complete = self
            .ctx
            .space
            .shortest_paths()
            .door_to_point_path_within(
                tail,
                &self.ctx.query.terminal,
                |d| scratch.is_marked(d),
                stamp.distance,
                self.ctx.delta(),
                &mut doors,
                &mut partitions,
            )
            .and_then(|suffix_distance| {
                let total = stamp.distance + suffix_distance;
                self.build_completed_route(stamp, &doors, &partitions, total)
            });
        self.state.path_doors = doors;
        self.state.path_legs = partitions;
        if let Some(complete) = complete {
            self.try_accept_result(complete);
        }
    }

    /// Builds the complete stamp for a route extended by a door path ending
    /// at an enterable door of `v(pt)` and then the terminal point itself.
    /// The route's doors are in `SearchState::route_doors`, and marked in
    /// the scratch. `partitions` comes from `door_to_point_path_within`,
    /// i.e. it has one entry per door hop plus the final terminal-partition
    /// leg. A path that does not extend the route regularly completes
    /// nothing.
    pub(crate) fn build_completed_route(
        &mut self,
        stamp: &Stamp,
        doors: &[DoorId],
        partitions: &[PartitionId],
        total_distance: f64,
    ) -> Option<Stamp> {
        debug_assert_eq!(partitions.len(), doors.len());
        let (hop_partitions, terminal_leg) = partitions.split_at(partitions.len() - 1);
        debug_assert_eq!(terminal_leg, [self.ctx.terminal_partition]);
        let state = &self.state;
        if !path_extends_marked(&state.route_doors, doors, hop_partitions, |d| {
            state.scratch.is_marked(d)
        }) {
            return None;
        }
        let added = &doors[usize::from(stamp.tail.is_some())..];
        let mut class = stamp.class;
        for &d in added {
            class = self.push_door(class, d);
        }
        let node = self.state.tree.extend(stamp.node, added, hop_partitions);
        Some(self.completed(node, doors.last().copied(), class, total_distance))
    }
}
