//! Topology-oriented expansion, `ToE_find` (Algorithm 2).
//!
//! From the current stamp's partition `vi`, ToE expands to every leavable
//! door `dl ∈ P2D@(vi)` that survives the regularity checks and Pruning
//! Rule 2, and hands each door to the child step
//! (`Search::generate_children`). That step applies the distance
//! constraint and Pruning Rules 1, 4 and 5 (lines 14–18) and produces one
//! stamp per partition enterable through the door. The popped stamp's own
//! Rule-5 check (line 3) is made by [`Search::run`].
//!
//! Each door costs array reads: its Rule-2 verdict and route mark are slots
//! of the search's scratch, the route's doors are scanned only for a door
//! the route holds, and the walk through `vi` searches the venue's
//! override table only when the table names `vi`.

use crate::framework::Search;
use crate::pruning::PruneRule;
use crate::stamp::{can_append_marked, Stamp};

impl Search<'_> {
    /// `ToE_find(Si)`: the next valid stamps reachable by one-hop topology
    /// expansion from `Si`, appended to `children`.
    pub(crate) fn toe_find(&mut self, stamp: &Stamp, children: &mut Vec<Stamp>) {
        let ctx = self.ctx;
        let vi = stamp.partition;
        let tail = stamp.tail;
        let delta = ctx.delta();
        let prune = self.config.use_distance_pruning;

        for &dl in ctx.space.p2d_leave(vi) {
            let verdict = if prune {
                self.state.scratch.door_verdict(dl)
            } else {
                None
            };
            // Doors already filtered by Pruning Rule 2 (the `Df` set).
            if verdict == Some(false) {
                continue;
            }
            // Regularity check (Algorithm 2 line 5): a door already on the
            // route may only re-appear immediately after itself.
            let scratch = &self.state.scratch;
            if !can_append_marked(&self.state.route_doors, dl, |d| scratch.is_marked(d)) {
                self.state.metrics.prunes.record(PruneRule::Regularity);
                continue;
            }
            // Pruning Rule 2 with the Dn / Df caches (lines 6–10).
            if prune && verdict.is_none() {
                let bound = ctx.start_to_door_lb(dl) + ctx.door_to_terminal_lb(dl);
                let filtered = bound > delta;
                self.state.scratch.set_door_verdict(dl, !filtered);
                if filtered {
                    self.state.metrics.prunes.record(PruneRule::DoorDistance);
                    continue;
                }
            }
            // Lemma 2: a one-hop loop (dk, dk) is only allowed when the looped
            // partition covers a candidate i-word (lines 12–13).
            if Some(dl) == tail && !self.partition_covers_candidate(vi) {
                self.state.metrics.prunes.record(PruneRule::Regularity);
                continue;
            }
            // Distance increment through the current partition. The tail
            // door entered `vi` and `dl` leaves it, so only a loop needs the
            // membership tests.
            let increment = match tail {
                None => ctx.start_to_door(dl),
                Some(dk) if dk == dl => ctx.space.loop_distance(dl, vi),
                Some(dk) => {
                    let increment = ctx.space.intra_door_distance_unchecked(vi, dk, dl);
                    debug_assert_eq!(
                        increment.to_bits(),
                        ctx.space.intra_door_distance(vi, dk, dl).to_bits()
                    );
                    increment
                }
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
