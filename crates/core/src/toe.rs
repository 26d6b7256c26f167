//! Topology-oriented expansion, `ToE_find` (Algorithm 2).
//!
//! From the current stamp's partition `vi`, ToE expands to every leavable
//! door `dl ∈ P2D@(vi)` that survives the regularity checks and the pruning
//! rules, producing one new stamp per partition reachable behind the door.

use crate::framework::Search;
use crate::pruning::PruneRule;
use crate::stamp::Stamp;

impl Search<'_> {
    /// `ToE_find(Si)`: the next valid stamps reachable by one-hop topology
    /// expansion from `Si`.
    pub(crate) fn toe_find(&mut self, stamp: &Stamp) -> Vec<Stamp> {
        let mut expansions = Vec::new();

        // Pruning Rule 5 on the popped stamp (Algorithm 2 line 3).
        if self.config.use_prime_pruning && !self.prime_check_stamp(stamp) {
            self.state.metrics.prunes.record(PruneRule::Prime);
            return expansions;
        }

        let ctx = self.ctx;
        let vi = stamp.partition;
        let tail = stamp.route.tail_door();
        let delta = ctx.delta();

        for &dl in ctx.space.p2d_leave(vi) {
            // Doors already filtered by Pruning Rule 2 (the `Df` set).
            if self.config.use_distance_pruning && self.state.doors_filtered.contains(&dl) {
                continue;
            }
            // Regularity check (Algorithm 2 line 5): a door already on the
            // route may only re-appear immediately after itself.
            if !stamp.route.can_append_door(dl) {
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
            if Some(dl) == tail && !ctx.partition_covers_candidate(vi) {
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
            let new_distance = stamp.distance + increment;
            // Hard distance constraint (line 14).
            if new_distance > delta {
                self.state
                    .metrics
                    .prunes
                    .record(PruneRule::DistanceConstraint);
                continue;
            }
            // Pruning Rule 1 (lines 15–16).
            let distance_lower_bound = new_distance + ctx.door_to_terminal_lb(dl);
            if self.config.use_distance_pruning && distance_lower_bound > delta {
                self.state
                    .metrics
                    .prunes
                    .record(PruneRule::PartialRouteDistance);
                continue;
            }
            // Pruning Rule 4 (lines 17–18).
            if self.config.use_kbound_pruning {
                let upper = ctx.ranking.upper_bound(distance_lower_bound);
                if upper <= self.kbound() {
                    self.state.metrics.prunes.record(PruneRule::KBound);
                    continue;
                }
            }
            // One stamp per partition enterable through the door (line 11 of
            // the paper generalised: besides the partition behind the door we
            // also keep a stamp that stays in the current partition, so that
            // a route can pick up a keyword by reaching the door of a shop
            // without paying the in-and-out loop — consistent with the route
            // words of Definition 5, which credit every partition leavable
            // through a door on the route).
            for &landing in ctx.space.d2p_enter(dl) {
                if let Some(child) =
                    self.extend_stamp_with_door(stamp, dl, vi, landing, new_distance)
                {
                    if self.config.use_prime_pruning {
                        self.prime_update_stamp(&child);
                    }
                    expansions.push(child);
                }
            }
        }
        expansions
    }
}
