//! Search stamps: the five-tuple `S(v, R, δ, ρ, ψ)` of Algorithm 1, as
//! fixed-size records over a per-search route tree.
//!
//! A stamp names its route `R` by a node of the search's route tree and
//! its key-partition sequence `KP(R)` by a class of the search's class
//! table ([`crate::classes`]), which also holds the route's relevance `ρ`.
//! A child appends tree nodes only for the doors its path adds, and the
//! landings of one door path share them, so a stamp owns no heap memory. A
//! [`Route`] is built only for a result that passes the distance constraint
//! and Pruning Rule 5, and by debug assertions.
//!
//! The queue (`StampQueue`) keeps its stamps in a slab and orders
//! `(key, slot)` entries of 24 bytes, whose integer keys order as
//! [`StampOrder`] orders the stamps: the heap makes the same comparisons
//! and pops ties in the same order.

use crate::classes::ClassId;
use indoor_geom::OrderedF64;
use indoor_space::route::can_append_door;
use indoor_space::{DoorId, IndoorPoint, PartitionId, Route};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The id of a node of a [`RouteTree`].
pub(crate) type NodeId = u32;

/// The node of the route `(ps)`, which has no door yet.
pub(crate) const START: NodeId = NodeId::MAX;

/// A search stamp: a partial (or complete) route together with the partition
/// it last reached and its accumulated distance, keyword relevance and
/// ranking score.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// The last partition the route reaches (`v` in the paper's tuple).
    pub partition: PartitionId,
    /// The route expanded so far (`R`): its last door's node of the route
    /// tree, or [`START`].
    pub(crate) node: NodeId,
    /// The route's last door (`R.tail`), if any.
    pub(crate) tail: Option<DoorId>,
    /// The class of the route's key-partition sequence `KP(R)`.
    pub(crate) class: ClassId,
    /// Route distance `δ(R)`, accumulated incrementally.
    pub distance: f64,
    /// Keyword relevance `ρ(R)`, the class's.
    pub relevance: f64,
    /// Ranking score `ψ(R)`.
    pub score: f64,
}

/// One door of a route in the tree: the door, the partition the leg to it
/// crosses, and the node of the route before it.
#[derive(Debug, Clone, Copy)]
struct RouteNode {
    parent: NodeId,
    door: DoorId,
    leg: PartitionId,
}

/// The routes of one search as a tree of doors rooted at `(ps)`. Nothing is
/// removed before the search ends.
#[derive(Debug, Default)]
pub(crate) struct RouteTree {
    nodes: Vec<RouteNode>,
}

impl RouteTree {
    /// Appends `doors` below `node`, each reached through the leg at the
    /// same position of `legs`, and returns the node of the last one
    /// (`node` itself when `doors` is empty).
    pub(crate) fn extend(
        &mut self,
        mut node: NodeId,
        doors: &[DoorId],
        legs: &[PartitionId],
    ) -> NodeId {
        debug_assert_eq!(doors.len(), legs.len());
        for (&door, &leg) in doors.iter().zip(legs) {
            let id = NodeId::try_from(self.nodes.len())
                .ok()
                .filter(|&id| id != START)
                .expect("a search holds fewer than 2^32 - 1 tree nodes");
            self.nodes.push(RouteNode {
                parent: node,
                door,
                leg,
            });
            node = id;
        }
        node
    }

    /// Walks from `node` to the root, calling `visit` on each node.
    fn walk(&self, mut node: NodeId, mut visit: impl FnMut(&RouteNode)) {
        while node != START {
            let at = &self.nodes[node as usize];
            visit(at);
            node = at.parent;
        }
    }

    /// Writes the doors of `node`'s route into `out`, first door first.
    pub(crate) fn collect_doors(&self, node: NodeId, out: &mut Vec<DoorId>) {
        out.clear();
        self.walk(node, |at| out.push(at.door));
        out.reverse();
    }

    /// The route of `node`, from the start point `start`. Its lists are
    /// sized once from the hop count, with room for the leg to `pt`.
    pub(crate) fn route(&self, start: IndoorPoint, node: NodeId) -> Route {
        let mut hops = 0;
        self.walk(node, |_| hops += 1);
        let (mut doors, mut legs) = (Vec::with_capacity(hops), Vec::with_capacity(hops + 1));
        self.walk(node, |at| {
            doors.push(at.door);
            legs.push(at.leg);
        });
        doors.reverse();
        legs.reverse();
        Route::from_point_through(start, doors, legs).expect("the tree holds regular routes only")
    }

    /// Heap bytes of the nodes, for memory accounting.
    pub(crate) fn estimated_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<RouteNode>()
    }
}

/// [`can_append_door`] for a route whose doors `on_route` marks: the doors
/// are scanned only when `d` is one of them.
#[inline]
pub(crate) fn can_append_marked(
    doors: &[DoorId],
    d: DoorId,
    on_route: impl Fn(DoorId) -> bool,
) -> bool {
    !on_route(d) || can_append_door(doors, d)
}

/// Whether the door path `path` through `legs` extends a route from a point
/// with doors `doors`, as [`Route::extend_with_door_path`] requires: the
/// path starts at the route's tail door, if it has one, each door it adds
/// has a leg, and each may follow the doors before it. The specification
/// of [`path_extends_marked`], which the search calls.
#[cfg(test)]
pub(crate) fn path_extends(doors: &[DoorId], path: &[DoorId], legs: &[PartitionId]) -> bool {
    path_extends_marked(doors, path, legs, |d| doors.contains(&d))
}

/// [`path_extends`] for a route whose doors `on_route` marks: the route's
/// doors are scanned only for a path door that is one of them.
pub(crate) fn path_extends_marked(
    doors: &[DoorId],
    path: &[DoorId],
    legs: &[PartitionId],
    on_route: impl Fn(DoorId) -> bool,
) -> bool {
    let added = match doors.last() {
        Some(tail) if path.first() != Some(tail) => return false,
        Some(_) => &path[1..],
        None => path,
    };
    // Door `i` follows `doors` and then `added[..i]`.
    added.len() == legs.len()
        && added
            .iter()
            .enumerate()
            .all(|(i, &d)| match added[..i].iter().rposition(|&x| x == d) {
                None if i == 0 => can_append_marked(doors, d, &on_route),
                None => !on_route(d),
                Some(pos) => {
                    let before = if pos == 0 {
                        doors.last()
                    } else {
                        added.get(pos - 1)
                    };
                    pos + 1 == i && before != Some(&d)
                }
            })
}

/// Ordering wrapper: the priority queue of Algorithm 1 pops the stamp with
/// the highest ranking score first; ties broken by smaller distance so that
/// shorter prefixes are explored first.
///
/// This is the order's specification. The search's `StampQueue` orders
/// integer keys that compare as it does, and its proptest holds the two to
/// one pop sequence.
#[derive(Debug, Clone, Copy)]
pub struct StampOrder(pub Stamp);

impl PartialEq for StampOrder {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for StampOrder {}

impl PartialOrd for StampOrder {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StampOrder {
    fn cmp(&self, other: &Self) -> Ordering {
        OrderedF64::new(self.0.score)
            .cmp(&OrderedF64::new(other.0.score))
            .then_with(|| {
                // Higher priority (popped first) for *smaller* distance, so
                // reverse the distance comparison inside a max-heap.
                OrderedF64::new(other.0.distance).cmp(&OrderedF64::new(self.0.distance))
            })
    }
}

/// An integer that orders as [`OrderedF64`] orders `v`: non-finite values
/// clamp as [`OrderedF64::new`] clamps them, and `-0.0` and `+0.0` map to
/// one key. A non-negative float's bits order as the number; the sign bit
/// is set above them, and a negative float's bits are inverted below.
#[inline]
fn order_key(v: f64) -> u64 {
    // Adding +0.0 turns -0.0 into +0.0 and leaves every other value alone.
    let bits = (OrderedF64::new(v).get() + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// A queue entry: a stamp's order key and its slot in the slab. `Ord`
/// compares the key only, as [`StampOrder`] compares score and distance:
/// higher score first, then smaller distance.
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    score: u64,
    /// The distance's key, inverted: a smaller distance pops first.
    distance: u64,
    slot: u32,
}

impl QueueEntry {
    fn key(&self) -> (u64, u64) {
        (self.score, self.distance)
    }
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// The priority queue `Q` of Algorithm 1: a binary heap of [`QueueEntry`]
/// over a slab of stamps. A popped stamp's slot is reused by the next push,
/// so the slab never holds more stamps than the queue held at its peak.
#[derive(Debug, Default)]
pub(crate) struct StampQueue {
    heap: BinaryHeap<QueueEntry>,
    slab: Vec<Stamp>,
    /// Slots of popped stamps.
    free: Vec<u32>,
}

impl StampQueue {
    /// Queues a stamp.
    pub(crate) fn push(&mut self, stamp: Stamp) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = stamp;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len())
                    .expect("a queue holds fewer than 2^32 stamps at once");
                self.slab.push(stamp);
                slot
            }
        };
        self.heap.push(QueueEntry {
            score: order_key(stamp.score),
            distance: !order_key(stamp.distance),
            slot,
        });
    }

    /// Pops the stamp of highest score, of smallest distance among equal
    /// scores.
    pub(crate) fn pop(&mut self) -> Option<Stamp> {
        let QueueEntry { slot, .. } = self.heap.pop()?;
        self.free.push(slot);
        Some(self.slab[slot as usize])
    }

    /// Stamps queued.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::FloorId;
    use proptest::prelude::*;

    fn stamp(score: f64, distance: f64) -> StampOrder {
        StampOrder(Stamp {
            partition: PartitionId(0),
            node: START,
            tail: None,
            class: 0,
            distance,
            relevance: 0.0,
            score,
        })
    }

    #[test]
    fn heap_pops_highest_score_first() {
        let mut heap = BinaryHeap::new();
        heap.push(stamp(0.3, 10.0));
        heap.push(stamp(0.9, 50.0));
        heap.push(stamp(0.5, 5.0));
        assert!((heap.pop().unwrap().0.score - 0.9).abs() < 1e-12);
        assert!((heap.pop().unwrap().0.score - 0.5).abs() < 1e-12);
        assert!((heap.pop().unwrap().0.score - 0.3).abs() < 1e-12);
    }

    #[test]
    fn ties_prefer_shorter_routes() {
        let mut heap = BinaryHeap::new();
        heap.push(stamp(0.5, 30.0));
        heap.push(stamp(0.5, 10.0));
        assert!((heap.pop().unwrap().0.distance - 10.0).abs() < 1e-12);
    }

    #[test]
    fn equality_is_by_ordering_key() {
        assert_eq!(stamp(0.5, 10.0), stamp(0.5, 10.0));
        assert_ne!(stamp(0.5, 10.0), stamp(0.6, 10.0));
        assert!(
            std::mem::size_of::<Stamp>() <= 48,
            "a stamp is a small record"
        );
    }

    #[test]
    fn the_door_checks_agree_with_the_route() {
        let doors = |ids: &[u32]| ids.iter().map(|&i| DoorId(i)).collect::<Vec<_>>();
        let legs = |n: usize| vec![PartitionId(0); n];
        let start = IndoorPoint::from_xy(0.0, 0.0, FloorId(0));
        for prefix in [doors(&[]), doors(&[1]), doors(&[1, 2]), doors(&[1, 2, 2])] {
            let mut route = Route::from_point(start);
            route
                .extend_with_door_path(&prefix, &legs(prefix.len()))
                .unwrap();
            for d in 0..4 {
                assert_eq!(
                    can_append_door(&prefix, DoorId(d)),
                    route.can_append_door(DoorId(d)),
                    "{prefix:?} + d{d}"
                );
            }
            for path in [
                doors(&[2, 3]),
                doors(&[2, 2, 3]),
                doors(&[2, 3, 1]),
                doors(&[3]),
            ] {
                for n in [path.len().saturating_sub(1), path.len()] {
                    let extends = route.clone().extend_with_door_path(&path, &legs(n)).is_ok();
                    assert_eq!(
                        path_extends(&prefix, &path, &legs(n)),
                        extends,
                        "{prefix:?} + {path:?} through {n} legs"
                    );
                }
            }
        }
    }

    #[test]
    fn the_tree_builds_the_routes_it_holds() {
        let start = IndoorPoint::from_xy(0.0, 0.0, FloorId(0));
        let mut tree = RouteTree::default();
        let (d, p) = (DoorId, PartitionId);
        let a = tree.extend(START, &[d(1), d(2)], &[p(0), p(1)]);
        let b = tree.extend(a, &[d(3)], &[p(2)]);
        let c = tree.extend(a, &[d(2)], &[p(1)]);
        assert_eq!(tree.extend(b, &[], &[]), b);
        let mut out = Vec::new();
        tree.collect_doors(b, &mut out);
        assert_eq!(out, [d(1), d(2), d(3)]);
        tree.collect_doors(START, &mut out);
        assert!(out.is_empty());
        let mut expected = Route::from_point(start);
        expected
            .extend_with_door_path(&[d(1), d(2), d(2)], &[p(0), p(1), p(1)])
            .unwrap();
        assert_eq!(tree.route(start, c), expected);
        assert_eq!(tree.route(start, START), Route::from_point(start));
        assert_eq!(tree.estimated_bytes(), 4 * std::mem::size_of::<RouteNode>());
    }

    /// The scores and distances the queue proptest draws from: ties, both
    /// zeros, and the non-finite values `OrderedF64` clamps.
    const VALUES: [f64; 8] = [
        0.5,
        0.25,
        0.0,
        -0.0,
        -1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    /// A stamp whose partition id names it.
    fn named(id: u32, score: f64, distance: f64) -> Stamp {
        Stamp {
            partition: PartitionId(id),
            ..stamp(score, distance).0
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pushes (`Some`) and pops (`None`) in random order: the slab
        /// queue pops the same stamps, in the same order, as a
        /// `BinaryHeap<StampOrder>`, and its slab never holds more stamps
        /// than the queue held at its peak.
        #[test]
        fn the_slab_queue_pops_as_the_stamp_order_heap(
            ops in proptest::collection::vec(
                proptest::option::of((0usize..8, 0usize..8)),
                1..96,
            )
        ) {
            let mut queue = StampQueue::default();
            let mut spec = BinaryHeap::new();
            let mut peak = 0;
            for (id, op) in ops.into_iter().enumerate() {
                match op {
                    Some((score, distance)) => {
                        let stamp = named(id as u32, VALUES[score], VALUES[distance]);
                        queue.push(stamp);
                        spec.push(StampOrder(stamp));
                        peak = peak.max(queue.len());
                    }
                    None => {
                        let popped = queue.pop().map(|s| s.partition);
                        prop_assert_eq!(popped, spec.pop().map(|s| s.0.partition));
                    }
                }
                prop_assert_eq!(queue.len(), spec.len());
                prop_assert!(queue.slab.len() <= peak);
            }
            while let Some(StampOrder(expected)) = spec.pop() {
                prop_assert_eq!(queue.pop().map(|s| s.partition), Some(expected.partition));
            }
            prop_assert!(queue.pop().is_none());
        }

        /// Random regular door sequences: with the route's doors marked,
        /// the mark-based tests agree with `can_append_door`,
        /// `path_extends` and `Route::can_append_door` for every door.
        #[test]
        fn the_marked_door_tests_agree_with_the_scans(
            wanted in proptest::collection::vec(0u32..6, 0..12),
            path in proptest::collection::vec(0u32..6, 1..4),
        ) {
            let start = IndoorPoint::from_xy(0.0, 0.0, FloorId(0));
            let mut route = Route::from_point(start);
            for d in wanted.into_iter().map(DoorId) {
                if route.can_append_door(d) {
                    route.append_door(d, PartitionId(0)).unwrap();
                }
            }
            let doors = route.doors().to_vec();
            let mut scratch = crate::scratch::PooledScratch::take(6, 1);
            scratch.mark_route(&doors);
            let marked = |d: DoorId| scratch.is_marked(d);
            for d in (0..6).map(DoorId) {
                prop_assert_eq!(marked(d), doors.contains(&d));
                let expected = can_append_door(&doors, d);
                prop_assert_eq!(can_append_marked(&doors, d, marked), expected);
                prop_assert_eq!(route.can_append_door(d), expected);
            }
            let mut path: Vec<DoorId> = path.into_iter().map(DoorId).collect();
            if let Some(&tail) = doors.last() {
                path.insert(0, tail);
            }
            let legs = vec![PartitionId(0); path.len() - usize::from(!doors.is_empty())];
            prop_assert_eq!(
                path_extends_marked(&doors, &path, &legs, marked),
                path_extends(&doors, &path, &legs)
            );
        }
    }
}
