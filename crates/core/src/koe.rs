//! Keyword-oriented expansion, `KoE_find` (Algorithm 6).
//!
//! Instead of expanding door by door, KoE jumps from the current stamp
//! directly to the enterable doors of *candidate key partitions* — partitions
//! that can cover query keywords not yet covered by the route — through the
//! shortest regular connecting route. The KoE* variant replaces the on-the-fly
//! shortest-path computations with precomputed all-pairs door paths and falls
//! back to recomputation when the precomputed path violates regularity.

use crate::framework::Search;
use crate::pruning::PruneRule;
use crate::stamp::Stamp;
use indoor_space::{DijkstraResult, DoorId, PartitionId};
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::Ordering;

/// A resolved connection from the current stamp position to a target door.
struct Connection {
    distance: f64,
    doors: Vec<DoorId>,
    partitions: Vec<PartitionId>,
}

/// Shortest-path source from the current stamp: either Dijkstra runs rooted
/// at the stamp's position, or (for KoE*) the precomputed matrix with lazy
/// fallback.
enum KoeSource {
    /// The stamp sits at the start point: one Dijkstra per leavable door of
    /// the start partition, each entry being `(leaving door, δpt2d cost,
    /// single-source result)`.
    FromPoint(Vec<(DoorId, f64, DijkstraResult)>),
    /// The stamp sits at a door: one Dijkstra with the route's doors excluded.
    FromDoor(DoorId, DijkstraResult),
    /// KoE*: consult the precomputed matrix first; `fallback` is filled in
    /// lazily when a precomputed path violates regularity.
    Precomputed {
        source: DoorId,
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

        let delta = self.ctx.delta();
        let tail = stamp.route.tail_door();

        // Candidate key partitions P' (lines 4–7): start from the global P and
        // drop the partitions of query keywords the route already covers —
        // except for the initial stamp, which keeps everything.
        let mut candidates: Vec<PartitionId> =
            self.state.routing_partitions.iter().copied().collect();
        if tail.is_some() {
            let mut removed: BTreeSet<PartitionId> = BTreeSet::new();
            for idx in 0..self.ctx.prepared.len() {
                if stamp.coverage.is_word_covered(idx) {
                    removed.extend(
                        self.ctx
                            .prepared
                            .key_partitions_for_word(idx, self.ctx.directory),
                    );
                }
            }
            removed.remove(&self.ctx.terminal_partition);
            candidates.retain(|v| !removed.contains(v));
        }

        let mut source = self.koe_source(stamp);

        for vj in candidates {
            if vj == stamp.partition {
                continue;
            }
            // Pruning Rule 3 (lines 9–10): drop the partition globally when
            // its best-case detour already violates the constraint. In index
            // mode this consults a cached per-region bound first (one test
            // prunes the whole region) and caches the per-partition bound
            // for the rest of the query; decisions are identical either way.
            if self.config.use_distance_pruning && self.detour_exceeds_delta(vj, delta) {
                self.state.routing_partitions.remove(&vj);
                self.state
                    .metrics
                    .prunes
                    .record(PruneRule::PartitionDistance);
                continue;
            }
            // Distance constraint check (line 11): current distance plus the
            // lower bound of reaching pt through vj.
            let via_bound = match tail {
                Some(dk) => {
                    self.ctx
                        .space
                        .door_via_partition_lower_bound(dk, vj, &self.ctx.query.terminal)
                }
                None => self.member_detour_bound(vj),
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
            let entry_doors: Vec<DoorId> = self.ctx.space.p2d_enter(vj).to_vec();
            for dl in entry_doors {
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
                let lower_bound = new_distance + self.ctx.door_to_terminal_lb(dl);
                if self.config.use_distance_pruning && lower_bound > delta {
                    self.state
                        .metrics
                        .prunes
                        .record(PruneRule::PartialRouteDistance);
                    continue;
                }
                // Pruning Rule 4 (lines 17–18).
                if self.config.use_kbound_pruning
                    && self.ctx.ranking.upper_bound(lower_bound) <= self.kbound()
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

    /// The Rule-3 partition detour lower bound
    /// `|ps, vj|_L-ish + |vj, pt|_L-ish` (Lemma 3). In index mode the value
    /// is cached per query — it depends only on the query endpoints and the
    /// partition, while the scan path recomputes it on every popped stamp.
    fn member_detour_bound(&mut self, vj: PartitionId) -> f64 {
        let bound = |space: &indoor_space::IndoorSpace| {
            space.partition_detour_lower_bound(&self.ctx.query.start, vj, &self.ctx.query.terminal)
        };
        match self.ctx.index {
            Some(index) => {
                if let Some(&cached) = self.state.member_bounds.get(&vj) {
                    index
                        .counters()
                        .bound_cache_hits
                        .fetch_add(1, Ordering::Relaxed);
                    return cached;
                }
                let b = bound(self.ctx.space);
                self.state.member_bounds.insert(vj, b);
                b
            }
            None => bound(self.ctx.space),
        }
    }

    /// Whether Rule 3 prunes candidate partition `vj`. Index mode answers
    /// from the region layer when it can: a region whose detour bound
    /// already exceeds `∆` fails every member in one cached test (sound
    /// because the region bound never exceeds any member's bound — see the
    /// `indoor-index` crate invariant), and a region that passes falls
    /// through to the exact per-partition bound, so the outcome always
    /// equals the scan path's `partition_detour_lower_bound > delta`.
    fn detour_exceeds_delta(&mut self, vj: PartitionId, delta: f64) -> bool {
        if let Some(index) = self.ctx.index {
            if let Some(rid) = index.regions().region_of(vj) {
                let failed = match self.state.region_failed.get(&rid) {
                    Some(&failed) => failed,
                    None => {
                        let counters = index.counters();
                        counters.regions_tested.fetch_add(1, Ordering::Relaxed);
                        let rb = index.regions().detour_lower_bound(
                            self.ctx.space,
                            rid,
                            &self.ctx.query.start,
                            &self.ctx.query.terminal,
                        );
                        let failed = rb > delta;
                        self.state.region_failed.insert(rid, failed);
                        if failed {
                            counters.regions_pruned.fetch_add(1, Ordering::Relaxed);
                        }
                        failed
                    }
                };
                if failed {
                    index
                        .counters()
                        .candidates_pruned
                        .fetch_add(1, Ordering::Relaxed);
                    return true;
                }
            }
        }
        self.member_detour_bound(vj) > delta
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
                    let result = self
                        .ctx
                        .space
                        .shortest_paths()
                        .from_door(dx, &HashSet::new());
                    per_door.push((dx, cost, result));
                }
                KoeSource::FromPoint(per_door)
            }
            Some(dk) => {
                let mut excluded = stamp.route.door_set();
                excluded.remove(&dk);
                if self.config.use_precomputed_paths && self.precomputed.is_some() {
                    KoeSource::Precomputed {
                        source: dk,
                        excluded,
                        fallback: None,
                    }
                } else {
                    self.state.metrics.dijkstra_calls += 1;
                    let result = self.ctx.space.shortest_paths().from_door(dk, &excluded);
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
            KoeSource::Precomputed {
                source: dk,
                excluded,
                fallback,
            } => {
                if *dk == dl {
                    return Some(Connection {
                        distance: 0.0,
                        doors: vec![*dk],
                        partitions: Vec::new(),
                    });
                }
                let matrix = self.precomputed.expect("KoE* requires precomputed paths");
                if let Some((doors, partitions)) = matrix.path(*dk, dl) {
                    let regular = doors.iter().skip(1).all(|d| !excluded.contains(d));
                    if regular {
                        return Some(Connection {
                            distance: matrix.distance(*dk, dl),
                            doors,
                            partitions,
                        });
                    }
                    // Regularity check failed: recompute on the fly, as the
                    // paper prescribes for KoE*.
                    self.state.metrics.precomputed_path_recomputations += 1;
                }
                if fallback.is_none() {
                    self.state.metrics.dijkstra_calls += 1;
                    *fallback = Some(self.ctx.space.shortest_paths().from_door(*dk, excluded));
                }
                let result = fallback.as_ref().expect("fallback just filled");
                let d = result.distance(dl);
                if !d.is_finite() {
                    return None;
                }
                let (doors, partitions) = result.path_to(dl)?;
                let _ = stamp;
                Some(Connection {
                    distance: d,
                    doors,
                    partitions,
                })
            }
        }
    }
}
