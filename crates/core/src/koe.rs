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
//! visits all of `P` there. With distance pruning on, it holds the key
//! partitions enterable through a door that the initial stamp's runs settle
//! (all key partitions for KoE\D): each partition is scored the first time
//! a settled door offers it, and only the key partitions are kept and
//! sorted. Pruning Rule 3's bound (Lemma 3) depends only on `ps`, `pt` and
//! the partition, so the partitions it rejects are dropped from `P` then
//! and stay dropped for the whole query.
//!
//! Every shortest-path run made here is bounded by the remaining budget
//! (`base` = the distance already walked, `limit` = `∆`): line 14 drops any
//! connection longer than that, so doors beyond it are never settled. With
//! distance pruning on, the runs also cut at the `∆`-ellipse: a door from
//! which `pt` is out of reach fails Rule 1 as a jump target and cannot lie
//! on a path to one that passes, so a run settles the ellipse, not the
//! `∆`-ball. The initial stamp's runs must settle the whole ellipse, since
//! `P` is read from them. A stamp at a door walks `P` first (lines 4–11 and
//! the route-door test) and collects its jumps; its run then stops once
//! it has popped every jump's door, which gives each of them the distance
//! and path of a run to the budget. A stamp without jumps makes a run that
//! stops at its own door. Each run offers its connections through one
//! helper, `connection`.
//!
//! Each connection goes to the child step (`Search::generate_children`),
//! which applies the distance constraint and Pruning Rules 1, 4 and 5
//! (lines 14–18) and produces the stamp at the target partition. The popped
//! stamp's own Rule-5 check (line 3) is made by [`Search::run`]. A
//! connection's path is written into two buffers the search reuses, and
//! the route-door tests and the runs' exclusions read the route marks of
//! the search's scratch.

use crate::framework::Search;
use crate::pruning::PruneRule;
use crate::stamp::Stamp;
use indoor_space::{DijkstraResult, DoorId, IndoorPoint, PartitionId, UNREACHABLE};

/// One partition of KoE's routing set `P`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoutingPartition {
    partition: PartitionId,
    /// The offset of the partition's similarity row, `None` for a `v(pt)`
    /// that covers no keyword.
    row: Option<usize>,
    /// The Rule-3 detour lower bound `|ps, v| + |v, pt|` (Lemma 3), which is
    /// also line 11's bound for the initial stamp. For `v(pt)`, where a
    /// route ends, it is [`Search::terminal_jump_bound`] from `ps`.
    detour_bound: f64,
}

/// The length of the connection a shortest-path run offers from its
/// source door to the target door `dl`: 0 when `dl` is the source, none
/// when the run left `dl` unsettled (unreachable, excluded or beyond the
/// budget), otherwise the run's distance.
fn leg_distance(run: &DijkstraResult, dl: DoorId) -> Option<f64> {
    if run.source() == dl {
        return Some(0.0);
    }
    Some(run.distance(dl)).filter(|d| d.is_finite())
}

/// Appends the connection a run offers to `dl` (see [`leg_distance`]) to
/// `doors` and `partitions`: the door alone when it is the source,
/// otherwise the run's path. Returns its length.
fn connection(
    run: &DijkstraResult,
    dl: DoorId,
    doors: &mut Vec<DoorId>,
    partitions: &mut Vec<PartitionId>,
) -> Option<f64> {
    let distance = leg_distance(run, dl)?;
    if run.source() == dl {
        doors.push(dl);
    } else if !run.path_into(dl, doors, partitions) {
        return None;
    }
    Some(distance)
}

/// Shortest-path source from the current stamp: either Dijkstra runs rooted
/// at the stamp's position, or (for KoE*) an unrestricted run from the
/// stamp's door with a lazy fallback.
enum KoeSource {
    /// The stamp sits at the start point: one Dijkstra per leavable door of
    /// the start partition, each entry being `(δpt2d cost, run from the
    /// door)`; each run's budget starts at its δpt2d cost.
    FromPoint(Vec<(f64, DijkstraResult)>),
    /// The stamp sits at a door: one Dijkstra with the route's doors
    /// excluded, stopped at the stamp's jump doors.
    FromDoor(DijkstraResult),
    /// KoE*: consult `row`, the run from the stamp's door without
    /// exclusions, first; `fallback` is filled in lazily when a path of
    /// `row` violates regularity. Both stop at the stamp's jump doors.
    Unrestricted {
        row: DijkstraResult,
        fallback: Option<DijkstraResult>,
    },
}

impl<'a> Search<'a> {
    /// `KoE_find(Si)`: the next valid stamps reachable by jumping to candidate
    /// key partitions from `Si`, appended to `children`.
    ///
    /// The initial stamp's runs settle the ellipse, and `P` is built from
    /// them. A stamp at a door first picks its jumps from `P`, then runs
    /// from its door until every jump's door is settled.
    pub(crate) fn koe_find(&mut self, stamp: &Stamp, children: &mut Vec<Stamp>) {
        let mut jumps = std::mem::take(&mut self.state.jumps);
        let mut targets = std::mem::take(&mut self.state.jump_targets);
        targets.clear();
        let mut source = match stamp.tail {
            None => {
                let runs = self.initial_runs();
                self.state.routing = self.routing_set(&runs);
                self.collect_jumps(stamp, &mut jumps);
                KoeSource::FromPoint(runs)
            }
            Some(dk) => {
                self.collect_jumps(stamp, &mut jumps);
                // The run's source is a target too: a stamp without jumps
                // stops its run there.
                targets.extend(jumps.iter().map(|&(_, dl)| dl).chain([dk]));
                targets.sort_unstable();
                targets.dedup();
                self.door_source(stamp, dk, &targets)
            }
        };
        // KoE* holds its unrestricted row on top of KoE's state while it
        // expands the stamp: charge it to the memory footprint.
        if let KoeSource::Unrestricted { row, .. } = &source {
            self.observe_memory(row.estimated_bytes());
        }

        let (mut doors, mut legs) = (
            std::mem::take(&mut self.state.path_doors),
            std::mem::take(&mut self.state.path_legs),
        );
        for &(vj, dl) in &jumps {
            doors.clear();
            legs.clear();
            let Some(distance) =
                self.resolve_connection(&mut source, stamp, dl, &targets, &mut doors, &mut legs)
            else {
                continue;
            };
            self.generate_children(
                stamp,
                &doors,
                &legs,
                &[vj],
                stamp.distance + distance,
                children,
            );
        }
        self.state.path_doors = doors;
        self.state.path_legs = legs;
        self.state.jumps = jumps;
        self.state.jump_targets = targets;
    }

    /// Algorithm 6's walk over `P` from `stamp` (lines 4–13): writes into
    /// `jumps`, in `P`'s order, each `(vj, dl)` to connect, an enter door
    /// `dl` of a partition `vj` that survives lines 4–7, line 11 and the
    /// route-door test, and records those prunes.
    fn collect_jumps(&mut self, stamp: &Stamp, jumps: &mut Vec<(PartitionId, DoorId)>) {
        let ctx = self.ctx;
        let delta = ctx.delta();
        let tail = stamp.tail;
        jumps.clear();
        for i in 0..self.state.routing.len() {
            let entry = self.state.routing[i];
            let vj = entry.partition;
            if vj == stamp.partition {
                continue;
            }
            // Lines 4–7 drop the partitions of query keywords the route
            // already covers, except at the initial stamp and for `v(pt)`.
            let (rows, covered) = (&self.state.key_rows, self.state.classes.best(stamp.class));
            if tail.is_some()
                && vj != ctx.terminal_partition
                && entry.row.is_some_and(|row| {
                    (0..covered.len())
                        .any(|idx| covered[idx] > 0.0 && rows.similarity(row, idx) > 0.0)
                })
            {
                continue;
            }
            // Distance constraint check (line 11): current distance plus the
            // lower bound of reaching pt through vj.
            let via_bound = match tail {
                Some(dk) if vj == ctx.terminal_partition => {
                    self.terminal_jump_bound(|di| ctx.space.skeleton_door_to_door(dk, di))
                }
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

            // Each enterable door of the target partition is a jump
            // (lines 12–20), unless the route already holds it.
            for &dl in ctx.space.p2d_enter(vj) {
                if Some(dl) != tail && self.state.scratch.is_marked(dl) {
                    self.state.metrics.prunes.record(PruneRule::Regularity);
                    continue;
                }
                jumps.push((vj, dl));
            }
        }
    }

    /// The routing set `P` of Algorithm 1 line 3: the key partitions a jump
    /// can reach, minus `v(ps)`, plus `v(pt)`, in partition order, each with
    /// its Rule-3 detour bound (for `v(pt)`, the bound of a jump that ends
    /// there). With distance pruning on, Pruning Rule 3
    /// (Algorithm 6 lines 9–10) drops every partition whose bound exceeds
    /// `∆`, one prune each.
    ///
    /// With distance pruning on, a jump can reach only the partitions
    /// enterable through a door that `runs`, the initial stamp's runs from
    /// the leavable doors of `v(ps)`, settle: every route within Rule 1
    /// starts with such a run's source and passes only doors the run
    /// settles, since each run is cut at the `∆`-ellipse. A run's source,
    /// which the cut never tests, counts only when it passes Rule 2's door
    /// test. Each partition is scored the first time a settled door offers
    /// it (its scratch slot then says the search has met it), and only the
    /// key partitions are kept and sorted. Other key partitions are never
    /// met, and never counted. Without distance pruning (KoE\D), `P` holds
    /// the key partitions of the whole venue.
    fn routing_set(&mut self, runs: &[(f64, DijkstraResult)]) -> Vec<RoutingPartition> {
        let ctx = self.ctx;
        let delta = ctx.delta();
        let prune = self.config.use_distance_pruning;
        // `v(pt)` is in `P` whether or not it is a key partition; scoring
        // it first keeps the offers below from meeting it again.
        let mut routing = vec![RoutingPartition {
            partition: ctx.terminal_partition,
            row: self.partition_row(ctx.terminal_partition),
            detour_bound: self.terminal_jump_bound(|di| ctx.start_to_door_lb(di)),
        }];
        if prune {
            for (_, run) in runs {
                for d in run.settled() {
                    if d != run.source() || ctx.door_in_ellipse(d) {
                        for &v in ctx.space.d2p_enter(d) {
                            self.offer_partition(v, &mut routing);
                        }
                    }
                }
            }
        } else {
            for v in 0..ctx.space.num_partitions() as u32 {
                self.offer_partition(PartitionId(v), &mut routing);
            }
        }
        routing.sort_unstable_by_key(|entry| entry.partition);
        routing.retain(|entry| {
            let pruned = prune && entry.detour_bound > delta;
            if pruned {
                self.state
                    .metrics
                    .prunes
                    .record(PruneRule::PartitionDistance);
            }
            !pruned
        });
        routing
    }

    /// Scores partition `v` for the routing set the first time the search
    /// meets it, and appends it, with its Rule-3 bound, when it is a key
    /// partition other than `v(ps)`.
    fn offer_partition(&mut self, v: PartitionId, routing: &mut Vec<RoutingPartition>) {
        let ctx = self.ctx;
        if self.state.scratch.partition_row(v).is_some() || v == ctx.start_partition {
            return;
        }
        if let Some(row) = self.partition_row(v) {
            routing.push(RoutingPartition {
                partition: v,
                row: Some(row),
                detour_bound: ctx.space.partition_detour_lower_bound(
                    &ctx.query.start,
                    v,
                    &ctx.query.terminal,
                ),
            });
        }
    }

    /// The lower bound of a jump into `v(pt)` (line 11 and Rule 3). A route
    /// ends at `pt` inside `v(pt)`, so the bound charges no crossing of it:
    /// it is the minimum, over the enter doors `di` of `v(pt)`, of
    /// `to_door(di) + |di, pt|`, where `to_door` bounds the walk from the
    /// stamp's position to `di`.
    fn terminal_jump_bound(&self, to_door: impl Fn(DoorId) -> f64) -> f64 {
        let ctx = self.ctx;
        ctx.space
            .p2d_enter(ctx.terminal_partition)
            .iter()
            .map(|&di| to_door(di) + ctx.door_to_terminal(di))
            .fold(UNREACHABLE, f64::min)
    }

    /// The initial stamp's runs: one from each leavable door of `v(ps)`,
    /// with its `δpt2d` cost, whose budget starts at that cost. They build
    /// `P`, so they settle the whole ellipse.
    fn initial_runs(&mut self) -> Vec<(f64, DijkstraResult)> {
        let ctx = self.ctx;
        let paths = ctx.space.shortest_paths();
        let terminal = self.ellipse_terminal();
        let leave = ctx.space.p2d_leave(ctx.start_partition);
        let mut per_door = Vec::with_capacity(leave.len());
        for &dx in leave {
            let cost = ctx.start_to_door(dx);
            self.state.metrics.dijkstra_calls += 1;
            let run = paths.from_door_within(dx, |_| false, cost, ctx.delta(), terminal, &[]);
            per_door.push((cost, run));
        }
        per_door
    }

    /// The run from `dk`, the door of a stamp at a door, which stops once
    /// it has popped every door of `targets` (the stamp's jump doors and
    /// `dk`, sorted and distinct): with the route's doors excluded, or, for
    /// KoE*, without exclusions and with a lazy fallback.
    fn door_source(&mut self, stamp: &Stamp, dk: DoorId, targets: &[DoorId]) -> KoeSource {
        let ctx = self.ctx;
        let paths = ctx.space.shortest_paths();
        let terminal = self.ellipse_terminal();
        self.state.metrics.dijkstra_calls += 1;
        if self.config.use_precomputed_paths {
            let row = paths.from_door_within(
                dk,
                |_| false,
                stamp.distance,
                ctx.delta(),
                terminal,
                targets,
            );
            KoeSource::Unrestricted {
                row,
                fallback: None,
            }
        } else {
            let scratch = &self.state.scratch;
            KoeSource::FromDoor(paths.from_door_within(
                dk,
                |d| scratch.is_marked(d),
                stamp.distance,
                ctx.delta(),
                terminal,
                targets,
            ))
        }
    }

    /// The terminal point the shortest-path runs cut their ellipse at:
    /// `pt` with distance pruning on, none for KoE\D, whose jumps are not
    /// held to Rule 1.
    fn ellipse_terminal(&self) -> Option<&'a IndoorPoint> {
        let ctx = self.ctx;
        self.config
            .use_distance_pruning
            .then_some(&ctx.query.terminal)
    }

    /// Resolves the shortest regular connection from the stamp position to
    /// the target door `dl`: writes its doors and the partitions between
    /// them into `doors` and `partitions`, which are empty, and returns its
    /// length. A KoE* fallback run stops at `targets`, as its row did.
    fn resolve_connection(
        &mut self,
        source: &mut KoeSource,
        stamp: &Stamp,
        dl: DoorId,
        targets: &[DoorId],
        doors: &mut Vec<DoorId>,
        partitions: &mut Vec<PartitionId>,
    ) -> Option<f64> {
        match source {
            KoeSource::FromPoint(per_door) => {
                // The first source of the shortest connection wins ties.
                let mut best: Option<(f64, &DijkstraResult)> = None;
                for (cost, run) in per_door.iter() {
                    let Some(leg) = leg_distance(run, dl) else {
                        continue;
                    };
                    let total = cost + leg;
                    if best.is_none_or(|(shortest, _)| total < shortest) {
                        best = Some((total, run));
                    }
                }
                let (total, run) = best?;
                partitions.push(self.ctx.start_partition);
                connection(run, dl, doors, partitions)?;
                Some(total)
            }
            KoeSource::FromDoor(run) => connection(run, dl, doors, partitions),
            KoeSource::Unrestricted { row, fallback } => {
                // A door the row leaves unsettled is beyond the remaining
                // budget (or the ellipse) even without exclusions: no
                // regular connection fits.
                let distance = connection(row, dl, doors, partitions)?;
                // The path is simple, so only its first door is the tail.
                let scratch = &self.state.scratch;
                if doors.iter().skip(1).all(|&d| !scratch.is_marked(d)) {
                    return Some(distance);
                }
                // Regularity check failed: recompute on the fly, as the
                // paper prescribes for KoE*.
                self.state.metrics.precomputed_path_recomputations += 1;
                if fallback.is_none() {
                    self.state.metrics.dijkstra_calls += 1;
                    let scratch = &self.state.scratch;
                    *fallback = Some(self.ctx.space.shortest_paths().from_door_within(
                        row.source(),
                        |d| scratch.is_marked(d),
                        stamp.distance,
                        self.ctx.delta(),
                        self.ellipse_terminal(),
                        targets,
                    ));
                }
                doors.clear();
                partitions.clear();
                connection(
                    fallback.as_ref().expect("fallback just filled"),
                    dl,
                    doors,
                    partitions,
                )
            }
        }
    }
}
