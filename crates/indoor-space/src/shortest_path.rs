//! Dijkstra shortest paths over the door graph.
//!
//! The IKRQ search needs several flavours of shortest-path computation:
//!
//! * plain door-to-door shortest distances (query generation, KoE* rows),
//! * shortest *regular* routes that avoid a set of already-visited doors
//!   (the global regularity checks in Algorithm 5 line 12 and Algorithm 6
//!   line 13),
//! * shortest door-to-point connections (the final hop to the terminal
//!   point `pt`).
//!
//! All of them run one Dijkstra loop with excluded doors and a budget
//! `(base, limit)`: the run stops at the first popped door `d` with
//! `base + dist(d) > limit`. That is the test the searches apply to every
//! connection (`stamp.distance + connection > ∆`), so a search passes its
//! route's length as `base` and `∆` as `limit` and loses nothing. Pops happen
//! in the same order as in an unbounded run up to the stop, so every door
//! settled within the budget has the same distance and predecessor; doors
//! left unsettled read as unreachable.
//!
//! A run told the terminal point `pt` also cuts at the `∆`-ellipse: a
//! popped door `u` other than the source with `base + dist(u) + |u, pt|_L`
//! above `limit` (give or take a relative slack of 1e-9, so rounding never
//! cuts a door a search would keep) relaxes no edge and then reads as
//! unreachable. No route through `u` reaches `pt` within the budget. The
//! cut is exact for every door that passes it: the skeleton bound is
//! consistent along door-graph edges (`|x, pt|_L ≤ w(x, y) + |y, pt|_L`), so
//! every door on a shortest path to a passing door passes too, and passing
//! doors keep bit-identical distances, predecessors and pop order. A run
//! then settles the ellipse instead of the `∆`-ball around its source.
//!
//! * [`ShortestPaths::from_door`] is the unbounded run (`limit = +∞`).
//!   Query generation and point-to-point distances use it, and its result
//!   owns freshly allocated buffers.
//! * [`ShortestPaths::from_door_within`] and
//!   [`ShortestPaths::door_to_point_path_within`] are the bounded runs a
//!   search makes: KoE's jumps, KoE*'s unrestricted runs and regularity
//!   fallbacks, and the connect step. They take a test of the doors to
//!   exclude, which the searches answer from their route marks, and the
//!   doors they are run for: a run stops once it has popped every target
//!   (KoE's jump doors, or the entry doors of `v(pt)`), having settled a
//!   prefix of the untargeted run's pops. A bounded run settles a
//!   small part of the venue, so it takes its `O(doors)` arrays, its queue
//!   and its list of cut doors from a small per-thread pool of spent ones
//!   and, when its result is dropped, resets only the entries it wrote and
//!   hands them back.
//!
//! The queue orders `(distance bits, door)` pairs: distances are never
//! negative, and the bits of a non-negative float order as the number, so
//! the pops come in the order of the distances, ties by door id.

use crate::door_graph::DoorGraphEdge;
use crate::ids::{DoorId, PartitionId};
use crate::point::IndoorPoint;
use crate::space::IndoorSpace;
use crate::UNREACHABLE;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Predecessor of a settled door: `(previous door, connecting partition)`.
type Prev = Option<(DoorId, PartitionId)>;

/// A queued tentative distance: the distance's bits and the door.
type QueueEntry = Reverse<(u64, DoorId)>;

/// The Dijkstra priority queue: tentative distances, smallest first.
type Queue = BinaryHeap<QueueEntry>;

/// A queue entry for `door` at distance `dist`, which is never negative.
#[inline]
fn entry(dist: f64, door: DoorId) -> QueueEntry {
    debug_assert!(dist >= 0.0, "a negative distance {dist} would misorder");
    Reverse((dist.to_bits(), door))
}

/// Relative slack of the ellipse cut: a door is cut only when its bound
/// exceeds `limit · (1 + ELLIPSE_SLACK)`. Searches walk the ellipse with the
/// same slack.
pub const ELLIPSE_SLACK: f64 = 1e-9;

/// Most spent buffers one thread keeps. A thread takes from its pool before
/// it allocates, so the pool never holds more buffers than were live at once
/// on that thread; the cap only bounds a pathological start partition with
/// many leavable doors.
const POOL_CAP: usize = 32;

/// Clean buffers (every `dist` entry [`UNREACHABLE`], every `prev` entry
/// `None`, the lists empty) of dropped bounded results.
#[derive(Default)]
struct SpentBuffers {
    dist: Vec<f64>,
    prev: Vec<Prev>,
    touched: Vec<DoorId>,
    queue: Vec<QueueEntry>,
    cut: Vec<DoorId>,
}

thread_local! {
    static SPENT: RefCell<Vec<SpentBuffers>> = const { RefCell::new(Vec::new()) };
}

/// Result of a single-source Dijkstra run.
#[derive(Debug, Clone)]
pub struct DijkstraResult {
    source: DoorId,
    dist: Vec<f64>,
    /// Predecessor edge for each settled door.
    prev: Vec<Prev>,
    /// Bounded runs only: every door whose entries the run wrote, so that
    /// dropping the result can reset just those and pool the buffers.
    touched: Option<Vec<DoorId>>,
    /// The run's queue and cut doors, emptied, kept for the pool.
    queue: Vec<QueueEntry>,
    cut: Vec<DoorId>,
}

impl DijkstraResult {
    /// A result with fresh buffers, for unbounded runs.
    fn fresh(source: DoorId, n: usize) -> Self {
        DijkstraResult {
            source,
            dist: vec![UNREACHABLE; n],
            prev: vec![None; n],
            touched: None,
            queue: Vec::new(),
            cut: Vec::new(),
        }
    }

    /// A result with pooled buffers, for bounded runs.
    fn pooled(source: DoorId, n: usize) -> Self {
        let spent = SPENT
            .try_with(|pool| pool.borrow_mut().pop())
            .ok()
            .flatten();
        let SpentBuffers {
            mut dist,
            mut prev,
            touched,
            queue,
            cut,
        } = spent.unwrap_or_default();
        dist.resize(n, UNREACHABLE);
        prev.resize(n, None);
        DijkstraResult {
            source,
            dist,
            prev,
            touched: Some(touched),
            queue,
            cut,
        }
    }

    /// Records a tentative distance for `d`.
    fn set(&mut self, d: DoorId, dist: f64, prev: Prev) {
        self.dist[d.index()] = dist;
        self.prev[d.index()] = prev;
        if let Some(touched) = self.touched.as_mut() {
            touched.push(d);
        }
    }

    /// Forgets the doors a stopped run left unsettled: every queued entry
    /// that still holds its door's tentative distance. (A settled door's
    /// queued entries are all stale, i.e. longer than its distance.) The
    /// emptied queue is kept for the pool.
    fn forget_unsettled(&mut self, queue: Queue) {
        let mut queue = queue.into_vec();
        for Reverse((bits, u)) in queue.drain(..) {
            if self.dist[u.index()] == f64::from_bits(bits) {
                self.dist[u.index()] = UNREACHABLE;
                self.prev[u.index()] = None;
            }
        }
        self.queue = queue;
    }

    /// Heap size of the per-door arrays in bytes, for memory accounting.
    pub fn estimated_bytes(&self) -> usize {
        self.dist.len() * std::mem::size_of::<f64>() + self.prev.len() * std::mem::size_of::<Prev>()
    }

    /// Source door of the run.
    pub fn source(&self) -> DoorId {
        self.source
    }

    /// Shortest distance from the source to `d` ([`UNREACHABLE`] when
    /// unreachable, excluded, or beyond a bounded run's budget).
    pub fn distance(&self, d: DoorId) -> f64 {
        self.dist.get(d.index()).copied().unwrap_or(UNREACHABLE)
    }

    /// Shortest distances to all doors.
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// Every door the run settled (a finite [`DijkstraResult::distance`]),
    /// in no particular order and possibly more than once. A bounded run
    /// lists them from the entries it wrote, without a pass over the venue.
    pub fn settled(&self) -> impl Iterator<Item = DoorId> + '_ {
        let every = self
            .touched
            .is_none()
            .then(|| (0..self.dist.len() as u32).map(DoorId));
        self.touched
            .iter()
            .flatten()
            .copied()
            .chain(every.into_iter().flatten())
            .filter(|d| self.dist[d.index()].is_finite())
    }

    /// Reconstructs the shortest path to `target` as
    /// `(doors, connecting partitions)`, where `doors` starts with the source
    /// and ends with `target`, and `partitions[i]` connects `doors[i]` to
    /// `doors[i + 1]`. Returns `None` when unreachable.
    pub fn path_to(&self, target: DoorId) -> Option<(Vec<DoorId>, Vec<PartitionId>)> {
        let (mut doors, mut partitions) = (Vec::new(), Vec::new());
        self.path_into(target, &mut doors, &mut partitions)
            .then_some((doors, partitions))
    }

    /// [`DijkstraResult::path_to`] appended to `doors` and `partitions`
    /// instead of returned in new vectors. Returns `false`, and appends
    /// nothing, when `target` is unreachable.
    pub fn path_into(
        &self,
        target: DoorId,
        doors: &mut Vec<DoorId>,
        partitions: &mut Vec<PartitionId>,
    ) -> bool {
        if !self.distance(target).is_finite() {
            return false;
        }
        let (first_door, first_partition) = (doors.len(), partitions.len());
        doors.push(target);
        let mut cur = target;
        while cur != self.source {
            let Some((prev, via)) = self.prev[cur.index()] else {
                doors.truncate(first_door);
                partitions.truncate(first_partition);
                return false;
            };
            doors.push(prev);
            partitions.push(via);
            cur = prev;
        }
        doors[first_door..].reverse();
        partitions[first_partition..].reverse();
        true
    }
}

impl Drop for DijkstraResult {
    fn drop(&mut self) {
        let Some(mut touched) = self.touched.take() else {
            return;
        };
        // Never panic in `drop`: during thread teardown the pool may already
        // be gone, and the buffers are then simply freed.
        let _ = SPENT.try_with(|pool| {
            let Ok(mut pool) = pool.try_borrow_mut() else {
                return;
            };
            if pool.len() >= POOL_CAP {
                return;
            }
            for d in touched.drain(..) {
                self.dist[d.index()] = UNREACHABLE;
                self.prev[d.index()] = None;
            }
            pool.push(SpentBuffers {
                dist: std::mem::take(&mut self.dist),
                prev: std::mem::take(&mut self.prev),
                touched,
                queue: std::mem::take(&mut self.queue),
                cut: std::mem::take(&mut self.cut),
            });
        });
    }
}

/// A shortest-path engine borrowing the indoor space.
#[derive(Debug, Clone, Copy)]
pub struct ShortestPaths<'a> {
    space: &'a IndoorSpace,
}

impl<'a> ShortestPaths<'a> {
    /// Creates the engine for a space.
    pub fn new(space: &'a IndoorSpace) -> Self {
        ShortestPaths { space }
    }

    /// Single-source Dijkstra from `source`, never expanding through doors in
    /// `excluded` (the source itself is allowed even if listed). The exclusion
    /// set is how the search algorithms enforce the global regularity
    /// principle: doors already used by a partial route may not be revisited.
    ///
    /// The run settles every reachable door; see
    /// [`ShortestPaths::from_door_within`] for the bounded run.
    pub fn from_door(&self, source: DoorId, excluded: &HashSet<DoorId>) -> DijkstraResult {
        let result = DijkstraResult::fresh(source, self.space.num_doors());
        self.run(
            result,
            |d| excluded.contains(&d),
            Budget {
                base: 0.0,
                limit: UNREACHABLE,
                terminal: None,
            },
            &[],
        )
    }

    /// [`ShortestPaths::from_door`] bounded by a budget: door `d` is settled
    /// only if `base + dist(d) <= limit`, and every other door reads as
    /// unreachable. Settled doors get bit-identical distances and the same
    /// paths as in the unbounded run. The run never enters a door `d` with
    /// `excluded(d)` (the source excepted). With a `terminal`, the run also cuts
    /// at the ellipse (see the module documentation), and the doors it
    /// settles are those of the uncut run whose bound passes the cut.
    ///
    /// With `targets` (sorted, distinct), the run also stops once it has
    /// popped every one of them: it settles a prefix of the untargeted
    /// run's pops, so each target that run settles gets the same distance
    /// and path, and the doors popped after the last target read as
    /// unreachable. Empty `targets` settle everything within the budget.
    pub fn from_door_within(
        &self,
        source: DoorId,
        excluded: impl Fn(DoorId) -> bool,
        base: f64,
        limit: f64,
        terminal: Option<&IndoorPoint>,
        targets: &[DoorId],
    ) -> DijkstraResult {
        let result = DijkstraResult::pooled(source, self.space.num_doors());
        self.run(
            result,
            excluded,
            Budget {
                base,
                limit,
                terminal,
            },
            targets,
        )
    }

    /// The Dijkstra loop. It stops at the first popped door with
    /// `base + d > limit`, or once every door in `targets` (sorted, distinct;
    /// none when empty) has been popped, whichever comes first; a door the
    /// budget's terminal cuts relaxes no edge. The doors it leaves unsettled
    /// or cuts read as unreachable.
    fn run(
        &self,
        mut result: DijkstraResult,
        excluded: impl Fn(DoorId) -> bool,
        budget: Budget<'_>,
        targets: &[DoorId],
    ) -> DijkstraResult {
        let Budget {
            base,
            limit,
            terminal,
        } = budget;
        let source = result.source;
        let graph = self.space.door_graph();
        let cut_above = limit * (1.0 + ELLIPSE_SLACK);
        let mut cut = std::mem::take(&mut result.cut);
        let mut heap = Queue::from(std::mem::take(&mut result.queue));
        if source.index() < self.space.num_doors() {
            result.set(source, 0.0, None);
            heap.push(entry(0.0, source));
        }
        let mut pending = targets.len();
        while let Some(Reverse((bits, u))) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > result.dist[u.index()] {
                continue;
            }
            if base + d > limit {
                // `u` is beyond the budget too: requeue it with the rest.
                heap.push(Reverse((bits, u)));
                break;
            }
            let outside = terminal.is_some_and(|pt| {
                u != source && base + d + self.space.skeleton_point_to_door(pt, u) > cut_above
            });
            if outside {
                cut.push(u);
            }
            if pending > 0 && targets.binary_search(&u).is_ok() {
                pending -= 1;
                if pending == 0 {
                    break;
                }
            }
            if outside {
                continue;
            }
            for &DoorGraphEdge { to, via, weight } in graph.edges_from(u) {
                if to != source && excluded(to) {
                    continue;
                }
                let nd = d + weight;
                if nd < result.dist[to.index()] {
                    result.set(to, nd, Some((u, via)));
                    heap.push(entry(nd, to));
                }
            }
        }
        result.forget_unsettled(heap);
        for u in cut.drain(..) {
            result.dist[u.index()] = UNREACHABLE;
            result.prev[u.index()] = None;
        }
        result.cut = cut;
        result
    }

    /// Shortest door-to-door distance avoiding `excluded` doors.
    pub fn door_to_door(&self, from: DoorId, to: DoorId, excluded: &HashSet<DoorId>) -> f64 {
        if from == to {
            return 0.0;
        }
        self.from_door(from, excluded).distance(to)
    }

    /// Shortest path from `from` to `to` avoiding `excluded` doors, returned
    /// as `(distance, doors, partitions)` with `doors[0] == from`.
    pub fn door_to_door_path(
        &self,
        from: DoorId,
        to: DoorId,
        excluded: &HashSet<DoorId>,
    ) -> Option<(f64, Vec<DoorId>, Vec<PartitionId>)> {
        if from == to {
            return Some((0.0, vec![from], Vec::new()));
        }
        let result = self.from_door(from, excluded);
        let d = result.distance(to);
        if !d.is_finite() {
            return None;
        }
        let (doors, partitions) = result.path_to(to)?;
        Some((d, doors, partitions))
    }

    /// Shortest connection from door `from` to the terminal point `pt`,
    /// avoiding `excluded` doors: the minimum over enterable doors `de` of
    /// `pt`'s host partition of `dist(from, de) + δd2pt(de, pt)`. Returns
    /// `(distance, doors, partitions)` where the partition sequence includes
    /// the final hop through `v(pt)`.
    pub fn door_to_point_path(
        &self,
        from: DoorId,
        pt: &IndoorPoint,
        excluded: &[DoorId],
    ) -> Option<(f64, Vec<DoorId>, Vec<PartitionId>)> {
        let (mut doors, mut partitions) = (Vec::new(), Vec::new());
        let distance = self.door_to_point_path_within(
            from,
            pt,
            |d| excluded.contains(&d),
            0.0,
            UNREACHABLE,
            &mut doors,
            &mut partitions,
        )?;
        Some((distance, doors, partitions))
    }

    /// [`ShortestPaths::door_to_point_path`] bounded by a budget: `None`
    /// unless `base + distance <= limit`, and otherwise the same
    /// connection's distance, with its doors appended to `doors` and its
    /// partitions, `v(pt)` last, to `partitions` (on `None`, nothing is
    /// appended). The run cuts at the ellipse of `pt` and stops at the
    /// budget or once every enterable door of `v(pt)` is popped. A cut
    /// entry door `de` has `base + dist + |de, pt|_L > limit`, and
    /// `|de, pt|_L` is the planar `δd2pt(de, pt)`, so it could not fit the
    /// budget either.
    #[allow(clippy::too_many_arguments)]
    pub fn door_to_point_path_within(
        &self,
        from: DoorId,
        pt: &IndoorPoint,
        excluded: impl Fn(DoorId) -> bool,
        base: f64,
        limit: f64,
        doors: &mut Vec<DoorId>,
        partitions: &mut Vec<PartitionId>,
    ) -> Option<f64> {
        // Every entry door of `v(pt)` reaches `pt` by the straight line, the
        // `δd2pt` the space would find after locating `pt` again.
        let host = self.space.host_partition(pt).ok()?;
        let doors_of = self.space.doors();
        let entries: Vec<(DoorId, f64)> = self
            .space
            .p2d_enter(host)
            .iter()
            .filter(|&&de| !excluded(de) || de == from)
            .map(|&de| {
                let tail = doors_of[de.index()].position.distance(&pt.position);
                debug_assert_eq!(tail.to_bits(), self.space.d2pt_distance(de, pt).to_bits());
                (de, tail)
            })
            .collect();
        let mut targets: Vec<DoorId> = entries.iter().map(|&(de, _)| de).collect();
        targets.sort_unstable();
        targets.dedup();
        let result = DijkstraResult::pooled(from, self.space.num_doors());
        let budget = Budget {
            base,
            limit,
            terminal: Some(pt),
        };
        let result = self.run(result, excluded, budget, &targets);
        let mut best: Option<(f64, DoorId)> = None;
        for (de, tail) in entries {
            let head = if de == from { 0.0 } else { result.distance(de) };
            if !head.is_finite() {
                continue;
            }
            let total = head + tail;
            if best.map(|(b, _)| total < b).unwrap_or(true) {
                best = Some((total, de));
            }
        }
        let (total, de) = best.filter(|&(total, _)| base + total <= limit)?;
        if de == from {
            doors.push(from);
        } else if !result.path_into(de, doors, partitions) {
            return None;
        }
        // The point itself is not a door; callers append it to the route.
        // The doors end at the entry door, and the partitions with v(pt).
        partitions.push(host);
        debug_assert_eq!(doors.last(), Some(&de));
        Some(total)
    }

    /// Shortest distance from door `from` to point `pt` (no path).
    pub fn door_to_point(&self, from: DoorId, pt: &IndoorPoint, excluded: &[DoorId]) -> f64 {
        self.door_to_point_path(from, pt, excluded)
            .map(|(d, _, _)| d)
            .unwrap_or(UNREACHABLE)
    }
}

/// The budget of a run: `base + dist(d) <= limit`, and with a terminal the
/// ellipse cut.
#[derive(Clone, Copy)]
struct Budget<'p> {
    base: f64,
    limit: f64,
    terminal: Option<&'p IndoorPoint>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::door::DoorKind;
    use crate::ids::FloorId;
    use crate::partition::PartitionKind;
    use crate::space::IndoorSpaceBuilder;
    use indoor_geom::{approx_eq, Point, Rect};

    /// A 1x4 corridor of rooms: v0 -d0- v1 -d1- v2 -d2- v3, all bidirectional,
    /// rooms are 10x10, doors on shared walls at y=5.
    fn corridor4() -> IndoorSpace {
        let mut b = IndoorSpaceBuilder::new();
        let f = FloorId(0);
        let rooms: Vec<_> = (0..4)
            .map(|i| {
                b.add_partition(
                    f,
                    PartitionKind::Room,
                    Rect::from_origin_size(Point::new(i as f64 * 10.0, 0.0), 10.0, 10.0).unwrap(),
                    None,
                )
            })
            .collect();
        for i in 0..3 {
            let d = b.add_door(Point::new((i + 1) as f64 * 10.0, 5.0), f, DoorKind::Normal);
            b.connect_bidirectional(d, rooms[i], rooms[i + 1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn dijkstra_distances_along_corridor() {
        let s = corridor4();
        let sp = s.shortest_paths();
        let r = sp.from_door(DoorId(0), &HashSet::new());
        assert!(approx_eq(r.distance(DoorId(0)), 0.0));
        assert!(approx_eq(r.distance(DoorId(1)), 10.0));
        assert!(approx_eq(r.distance(DoorId(2)), 20.0));
        assert_eq!(r.source(), DoorId(0));
        assert_eq!(r.distances().len(), 3);
    }

    #[test]
    fn path_reconstruction_includes_partitions() {
        let s = corridor4();
        let sp = s.shortest_paths();
        let (d, doors, parts) = sp
            .door_to_door_path(DoorId(0), DoorId(2), &HashSet::new())
            .unwrap();
        assert!(approx_eq(d, 20.0));
        assert_eq!(doors, vec![DoorId(0), DoorId(1), DoorId(2)]);
        assert_eq!(parts, vec![PartitionId(1), PartitionId(2)]);
    }

    #[test]
    fn exclusion_blocks_paths() {
        let s = corridor4();
        let sp = s.shortest_paths();
        let mut excluded = HashSet::new();
        excluded.insert(DoorId(1));
        assert!(!sp.door_to_door(DoorId(0), DoorId(2), &excluded).is_finite());
        // The excluded source is still usable as a source.
        excluded.insert(DoorId(0));
        assert!(approx_eq(
            sp.door_to_door(DoorId(0), DoorId(0), &excluded),
            0.0
        ));
    }

    #[test]
    fn door_to_point_path_enters_host_partition() {
        let s = corridor4();
        let sp = s.shortest_paths();
        let pt = IndoorPoint::from_xy(35.0, 5.0, FloorId(0)); // inside v3
        let (d, doors, parts) = sp.door_to_point_path(DoorId(0), &pt, &[]).unwrap();
        // 10 (d0->d1) + 10 (d1->d2) + 5 (d2 -> point)
        assert!(approx_eq(d, 25.0));
        assert_eq!(doors.last(), Some(&DoorId(2)));
        assert_eq!(parts.last(), Some(&PartitionId(3)));
        assert!(approx_eq(sp.door_to_point(DoorId(0), &pt, &[]), 25.0));
    }

    #[test]
    fn door_to_point_respects_exclusions() {
        let s = corridor4();
        let sp = s.shortest_paths();
        let pt = IndoorPoint::from_xy(35.0, 5.0, FloorId(0));
        assert!(sp
            .door_to_point_path(DoorId(0), &pt, &[DoorId(2)])
            .is_none());
    }

    #[test]
    fn unreachable_pairs_report_infinity() {
        let s = corridor4();
        let sp = s.shortest_paths();
        assert!(!sp
            .from_door(DoorId(2), &HashSet::new())
            .distance(DoorId(42))
            .is_finite());
        assert!(sp
            .from_door(DoorId(2), &HashSet::new())
            .path_to(DoorId(42))
            .is_none());
    }

    #[test]
    fn point_in_start_partition_short_circuit() {
        let s = corridor4();
        let sp = s.shortest_paths();
        // Point in v1, starting from d0 which is on v1's boundary.
        let pt = IndoorPoint::from_xy(12.0, 5.0, FloorId(0));
        let (d, doors, parts) = sp.door_to_point_path(DoorId(0), &pt, &[]).unwrap();
        assert!(approx_eq(d, 2.0));
        assert_eq!(doors, vec![DoorId(0)]);
        assert_eq!(parts, vec![PartitionId(1)]);
    }
}
