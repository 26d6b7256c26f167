//! Keyword-oriented expansion, `KoE_find` (Algorithm 6).
//!
//! Instead of expanding door by door, KoE jumps from the current stamp
//! directly to the enterable doors of *candidate key partitions* — partitions
//! that can cover query keywords not yet covered by the route — through the
//! shortest regular connecting route. The KoE* variant takes its jumps from
//! shortest door-to-door paths computed without exclusions and recomputes
//! only when such a path violates regularity.
//!
//! The routing set `P` is built once per search, when the initial stamp is
//! expanded: that stamp is the only one without a tail door, and Algorithm 6
//! visits all of `P` there. Pruning Rule 3's bound (Lemma 3) depends only on
//! `ps`, `pt` and the partition, so the partitions it rejects are dropped
//! from `P` then and stay dropped for the whole query.
//!
//! Every shortest-path run made here is bounded by the remaining budget
//! (`base` = the distance already walked, `limit` = `∆`): line 14 drops any
//! connection longer than that, so doors beyond it are never settled.

use crate::framework::Search;
use crate::pruning::PruneRule;
use crate::stamp::Stamp;
use indoor_keywords::WordId;
use indoor_space::{DijkstraResult, DoorId, PartitionId};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;

/// One partition of KoE's routing set `P`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoutingPartition {
    partition: PartitionId,
    /// The partition's i-word; only `v(pt)` may have none.
    iword: Option<WordId>,
    /// The Rule-3 detour lower bound `|ps, v| + |v, pt|` (Lemma 3), which is
    /// also line 11's bound for the initial stamp.
    detour_bound: f64,
}

/// A resolved connection from the current stamp position to a target door.
struct Connection {
    distance: f64,
    doors: Vec<DoorId>,
    partitions: Vec<PartitionId>,
}

/// Shortest-path source from the current stamp: either Dijkstra runs rooted
/// at the stamp's position, or (for KoE*) an unrestricted run from the
/// stamp's door with a lazy fallback.
enum KoeSource {
    /// The stamp sits at the start point: one Dijkstra per leavable door of
    /// the start partition, each entry being `(leaving door, δpt2d cost,
    /// single-source result)`; each run's budget starts at its δpt2d cost.
    FromPoint(Vec<(DoorId, f64, DijkstraResult)>),
    /// The stamp sits at a door: one Dijkstra with the route's doors excluded.
    FromDoor(DoorId, DijkstraResult),
    /// KoE*: consult `row`, the run from the stamp's door without
    /// exclusions, first; `fallback` is filled in lazily when a path of
    /// `row` violates regularity.
    Unrestricted {
        row: DijkstraResult,
        excluded: HashSet<DoorId>,
        fallback: Option<DijkstraResult>,
    },
}

impl Search<'_> {
    /// `KoE_find(Si)`: the next valid stamps reachable by jumping to candidate
    /// key partitions.
    pub(crate) fn koe_find(&mut self, stamp: &Stamp) -> Vec<Stamp> {
        let mut expansions = Vec::new();

        // Pruning Rule 5 on the popped stamp (Algorithm 6 line 3).
        if self.config.use_prime_pruning && !self.prime_check_stamp(stamp) {
            self.state.metrics.prunes.record(PruneRule::Prime);
            return expansions;
        }

        let ctx = self.ctx;
        let delta = ctx.delta();
        let tail = stamp.route.tail_door();
        if tail.is_none() {
            self.state.routing = self.routing_set();
        }
        // Lines 4–7 drop the partitions of query keywords the route already
        // covers, except at the initial stamp and for `v(pt)`.
        let covered: Vec<usize> = (0..ctx.prepared.len())
            .filter(|&idx| tail.is_some() && stamp.coverage.is_word_covered(idx))
            .collect();

        let mut source = self.koe_source(stamp);
        // KoE* holds its unrestricted row on top of KoE's state while it
        // expands the stamp: charge it to the memory footprint.
        if let KoeSource::Unrestricted { row, .. } = &source {
            self.observe_memory(row.estimated_bytes());
        }

        for i in 0..self.state.routing.len() {
            let entry = self.state.routing[i];
            let vj = entry.partition;
            if vj == stamp.partition {
                continue;
            }
            if vj != ctx.terminal_partition
                && entry.iword.is_some_and(|iw| {
                    covered
                        .iter()
                        .any(|&idx| ctx.prepared.similarity(idx, iw).is_some())
                })
            {
                continue;
            }
            // Distance constraint check (line 11): current distance plus the
            // lower bound of reaching pt through vj.
            let via_bound = match tail {
                Some(dk) => ctx
                    .space
                    .door_via_partition_lower_bound(dk, vj, &ctx.query.terminal),
                None => entry.detour_bound,
            };
            if stamp.distance + via_bound > delta {
                self.state
                    .metrics
                    .prunes
                    .record(PruneRule::DistanceConstraint);
                continue;
            }

            // Expand to each enterable door of the target partition through
            // the shortest regular connecting route (lines 12–20).
            for &dl in ctx.space.p2d_enter(vj) {
                if stamp.route.contains_door(dl) && Some(dl) != tail {
                    self.state.metrics.prunes.record(PruneRule::Regularity);
                    continue;
                }
                let Some(connection) = self.resolve_connection(&mut source, stamp, dl) else {
                    continue;
                };
                let new_distance = stamp.distance + connection.distance;
                if new_distance > delta {
                    self.state
                        .metrics
                        .prunes
                        .record(PruneRule::DistanceConstraint);
                    continue;
                }
                // Pruning Rule 1 (lines 15–16).
                let lower_bound = new_distance + ctx.door_to_terminal_lb(dl);
                if self.config.use_distance_pruning && lower_bound > delta {
                    self.state
                        .metrics
                        .prunes
                        .record(PruneRule::PartialRouteDistance);
                    continue;
                }
                // Pruning Rule 4 (lines 17–18).
                if self.config.use_kbound_pruning
                    && ctx.ranking.upper_bound(lower_bound) <= self.kbound()
                {
                    self.state.metrics.prunes.record(PruneRule::KBound);
                    continue;
                }
                if let Some(child) = self.extend_stamp_with_path(
                    stamp,
                    &connection.doors,
                    &connection.partitions,
                    vj,
                    new_distance,
                ) {
                    if self.config.use_prime_pruning {
                        self.prime_update_stamp(&child);
                    }
                    expansions.push(child);
                }
            }
        }
        expansions
    }

    /// The routing set `P` of Algorithm 1 line 3: the key partitions, minus
    /// `v(ps)`, plus `v(pt)`, in partition order, each with its i-word and
    /// Rule-3 detour bound. With distance pruning on, Pruning Rule 3
    /// (Algorithm 6 lines 9–10) drops every partition whose bound exceeds
    /// `∆`, one prune each.
    ///
    /// The index engine tests a partition's region first: a region whose
    /// bound exceeds `∆` drops every member without computing their own
    /// bounds. The region bound never exceeds a member's (the `indoor-index`
    /// crate invariant), so both engines build the same set.
    fn routing_set(&mut self) -> Vec<RoutingPartition> {
        let ctx = self.ctx;
        let (start, terminal) = (&ctx.query.start, &ctx.query.terminal);
        let delta = ctx.delta();
        let prune = self.config.use_distance_pruning;
        let mut partitions: Vec<PartitionId> = ctx
            .key_partitions
            .iter()
            .copied()
            .filter(|&v| v != ctx.start_partition)
            .collect();
        if let Err(at) = partitions.binary_search(&ctx.terminal_partition) {
            partitions.insert(at, ctx.terminal_partition);
        }

        // Index engine only: whether the partition's region bound already
        // exceeds ∆, computing each region's bound once.
        let mut verdicts: HashMap<u32, bool> = HashMap::new();
        let mut region_fails = |v: PartitionId| {
            let Some((index, rid)) = ctx
                .index
                .and_then(|index| Some((index, index.regions().region_of(v)?)))
            else {
                return false;
            };
            let counters = index.counters();
            let failed = *verdicts.entry(rid).or_insert_with(|| {
                counters.regions_tested.fetch_add(1, Ordering::Relaxed);
                let bound = index
                    .regions()
                    .detour_lower_bound(ctx.space, rid, start, terminal);
                if bound > delta {
                    counters.regions_pruned.fetch_add(1, Ordering::Relaxed);
                }
                bound > delta
            });
            if failed {
                counters.candidates_pruned.fetch_add(1, Ordering::Relaxed);
            }
            failed
        };

        let mut routing = Vec::new();
        for v in partitions {
            // A failed region stands in for the bounds of all its members.
            let detour_bound = if prune && region_fails(v) {
                f64::INFINITY
            } else {
                ctx.space.partition_detour_lower_bound(start, v, terminal)
            };
            if prune && detour_bound > delta {
                self.state
                    .metrics
                    .prunes
                    .record(PruneRule::PartitionDistance);
                continue;
            }
            routing.push(RoutingPartition {
                partition: v,
                iword: ctx.iword_of_partition(v),
                detour_bound,
            });
        }
        routing
    }

    /// Builds the shortest-path source rooted at the stamp's current position.
    fn koe_source(&mut self, stamp: &Stamp) -> KoeSource {
        match stamp.route.tail_door() {
            None => {
                let start_partition = self.ctx.start_partition;
                let mut per_door = Vec::new();
                for &dx in self.ctx.space.p2d_leave(start_partition) {
                    let cost = self.ctx.space.pt2d_distance(&self.ctx.query.start, dx);
                    if !cost.is_finite() {
                        continue;
                    }
                    self.state.metrics.dijkstra_calls += 1;
                    let result = self.ctx.space.shortest_paths().from_door_within(
                        dx,
                        &HashSet::new(),
                        cost,
                        self.ctx.delta(),
                    );
                    per_door.push((dx, cost, result));
                }
                KoeSource::FromPoint(per_door)
            }
            Some(dk) => {
                let mut excluded = stamp.route.door_set();
                excluded.remove(&dk);
                self.state.metrics.dijkstra_calls += 1;
                let paths = self.ctx.space.shortest_paths();
                if self.config.use_precomputed_paths {
                    let row = paths.from_door_within(
                        dk,
                        &HashSet::new(),
                        stamp.distance,
                        self.ctx.delta(),
                    );
                    KoeSource::Unrestricted {
                        row,
                        excluded,
                        fallback: None,
                    }
                } else {
                    let result =
                        paths.from_door_within(dk, &excluded, stamp.distance, self.ctx.delta());
                    KoeSource::FromDoor(dk, result)
                }
            }
        }
    }

    /// Resolves the shortest regular connection from the stamp position to the
    /// target door `dl`.
    fn resolve_connection(
        &mut self,
        source: &mut KoeSource,
        stamp: &Stamp,
        dl: DoorId,
    ) -> Option<Connection> {
        match source {
            KoeSource::FromPoint(per_door) => {
                let start_partition = self.ctx.start_partition;
                let mut best: Option<Connection> = None;
                for (dx, cost, result) in per_door.iter() {
                    let (doors, partitions, graph_distance) = if *dx == dl {
                        (vec![*dx], Vec::new(), 0.0)
                    } else {
                        let d = result.distance(dl);
                        if !d.is_finite() {
                            continue;
                        }
                        let (doors, partitions) = result.path_to(dl)?;
                        (doors, partitions, d)
                    };
                    let total = cost + graph_distance;
                    if best.as_ref().map(|b| total < b.distance).unwrap_or(true) {
                        let mut full_partitions = Vec::with_capacity(partitions.len() + 1);
                        full_partitions.push(start_partition);
                        full_partitions.extend(partitions);
                        best = Some(Connection {
                            distance: total,
                            doors,
                            partitions: full_partitions,
                        });
                    }
                }
                best
            }
            KoeSource::FromDoor(dk, result) => {
                if *dk == dl {
                    return Some(Connection {
                        distance: 0.0,
                        doors: vec![*dk],
                        partitions: Vec::new(),
                    });
                }
                let d = result.distance(dl);
                if !d.is_finite() {
                    return None;
                }
                let (doors, partitions) = result.path_to(dl)?;
                Some(Connection {
                    distance: d,
                    doors,
                    partitions,
                })
            }
            KoeSource::Unrestricted {
                row,
                excluded,
                fallback,
            } => {
                let dk = row.source();
                if dk == dl {
                    return Some(Connection {
                        distance: 0.0,
                        doors: vec![dk],
                        partitions: Vec::new(),
                    });
                }
                // A door the row leaves unsettled is beyond the remaining
                // budget even without exclusions: no regular connection fits.
                let (doors, partitions) = row.path_to(dl)?;
                if doors.iter().skip(1).all(|d| !excluded.contains(d)) {
                    return Some(Connection {
                        distance: row.distance(dl),
                        doors,
                        partitions,
                    });
                }
                // Regularity check failed: recompute on the fly, as the
                // paper prescribes for KoE*.
                self.state.metrics.precomputed_path_recomputations += 1;
                if fallback.is_none() {
                    self.state.metrics.dijkstra_calls += 1;
                    *fallback = Some(self.ctx.space.shortest_paths().from_door_within(
                        dk,
                        excluded,
                        stamp.distance,
                        self.ctx.delta(),
                    ));
                }
                let result = fallback.as_ref().expect("fallback just filled");
                let d = result.distance(dl);
                if !d.is_finite() {
                    return None;
                }
                let (doors, partitions) = result.path_to(dl)?;
                Some(Connection {
                    distance: d,
                    doors,
                    partitions,
                })
            }
        }
    }
}
