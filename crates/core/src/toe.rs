//! Topology-oriented expansion, `ToE_find` (Algorithm 2).
//!
//! From the current stamp's partition `vi`, ToE expands to every leavable
//! door `dl ∈ P2D@(vi)` that survives the regularity checks and Pruning
//! Rule 2, and hands each door to the child step
//! (`Search::generate_children`). That step applies the distance
//! constraint and Pruning Rules 1, 4 and 5 (lines 14–18) and produces one
//! stamp per partition enterable through the door. The popped stamp's own
//! Rule-5 check (line 3) is made by [`Search::run`].

use crate::framework::Search;
use crate::pruning::PruneRule;
use crate::stamp::{can_append_door, Stamp};

impl Search<'_> {
    /// `ToE_find(Si)`: the next valid stamps reachable by one-hop topology
    /// expansion from `Si`, appended to `children`.
    pub(crate) fn toe_find(&mut self, stamp: &Stamp, children: &mut Vec<Stamp>) {
        let ctx = self.ctx;
        let vi = stamp.partition;
        let tail = stamp.tail;
        let delta = ctx.delta();

        for &dl in ctx.space.p2d_leave(vi) {
            // Doors already filtered by Pruning Rule 2 (the `Df` set).
            if self.config.use_distance_pruning && self.state.doors_filtered.contains(&dl) {
                continue;
            }
            // Regularity check (Algorithm 2 line 5): a door already on the
            // route may only re-appear immediately after itself.
            if !can_append_door(&self.state.route_doors, dl) {
                self.state.metrics.prunes.record(PruneRule::Regularity);
                continue;
            }
            // Pruning Rule 2 with the Dn / Df caches (lines 6–10).
            if self.config.use_distance_pruning && !self.state.doors_checked.contains(&dl) {
                let bound = ctx.start_to_door_lb(dl) + ctx.door_to_terminal_lb(dl);
                if bound > delta {
                    self.state.doors_filtered.insert(dl);
                    self.state.metrics.prunes.record(PruneRule::DoorDistance);
                    continue;
                }
                self.state.doors_checked.insert(dl);
            }
            // Lemma 2: a one-hop loop (dk, dk) is only allowed when the looped
            // partition covers a candidate i-word (lines 12–13).
            if Some(dl) == tail && !self.partition_covers_candidate(vi) {
                self.state.metrics.prunes.record(PruneRule::Regularity);
                continue;
            }
            // Distance increment through the current partition.
            let increment = match tail {
                None => ctx.space.pt2d_distance(&ctx.query.start, dl),
                Some(dk) => ctx.space.intra_door_distance(vi, dk, dl),
            };
            if !increment.is_finite() {
                continue;
            }
            // The door path: (dk, dl) from the tail door, or (dl) from ps.
            let path = [tail.unwrap_or(dl), dl];
            let doors = &path[usize::from(tail.is_none())..];
            // One stamp per partition enterable through the door (line 11 of
            // the paper generalised: besides the partition behind the door we
            // also keep a stamp that stays in the current partition, so that
            // a route can pick up a keyword by reaching the door of a shop
            // without paying the in-and-out loop — consistent with the route
            // words of Definition 5, which credit every partition leavable
            // through a door on the route).
            self.generate_children(
                stamp,
                doors,
                &[vi],
                ctx.space.d2p_enter(dl),
                stamp.distance + increment,
                children,
            );
        }
    }
}
