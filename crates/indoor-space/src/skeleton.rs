//! The skeleton-distance lower bound `|x, y|_L` of §IV-A.
//!
//! For two items on the same floor the lower bound is the planar Euclidean
//! distance. For items on different floors any actual route must pass through
//! staircase doors, so the bound is
//!
//! ```text
//! |xi, xj|_L = min over sdi ∈ SD(xi), sdj ∈ SD(xj)
//!              ( |xi, sdi|_E + δs2s(sdi, sdj) + |sdj, xj|_E )
//! ```
//!
//! where `SD(x)` is the set of staircase doors on `x`'s floor and
//! `δs2s` is the shortest distance between staircase doors through the
//! staircase network. The staircase network here uses planar Euclidean
//! distances between staircase doors of the same floor (a lower bound of any
//! indoor walk) and the declared stairway length for vertically connected
//! staircase doors, so the whole quantity lower-bounds the true indoor
//! distance.

use crate::ids::{DoorId, FloorId};
use crate::point::IndoorPoint;
use crate::space::IndoorSpace;
use crate::UNREACHABLE;
use indoor_geom::{OrderedF64, Point};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Precomputed skeleton-distance index.
///
/// Staircase doors are numbered densely in door-id order; positions and the
/// `δs2s` matrix are indexed by that number, so a bound reads them without
/// hashing.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SkeletonIndex {
    /// Staircase doors, sorted by door id; a door's index here is its dense
    /// number.
    stair_doors: Vec<DoorId>,
    /// Planar position of each staircase door, by dense number.
    positions: Vec<Point>,
    /// Per floor, sorted by floor: the staircase doors touching it (`SD(·)`),
    /// sorted by door id, and their dense numbers in the same order.
    floors: Vec<(FloorId, Vec<DoorId>, Vec<usize>)>,
    /// All-pairs shortest distances between staircase doors (`δs2s`),
    /// row-major over the dense numbers.
    s2s: Vec<f64>,
    /// Number of staircase doors.
    n: usize,
}

impl SkeletonIndex {
    /// An empty index (single-floor venues never consult the matrix).
    pub fn empty() -> Self {
        SkeletonIndex::default()
    }

    /// Builds the index from a space: collects staircase doors, assembles the
    /// staircase network and runs all-pairs Dijkstra over it.
    pub fn build(space: &IndoorSpace) -> Self {
        let mut by_floor: BTreeMap<FloorId, Vec<usize>> = BTreeMap::new();
        let mut stair_doors: Vec<DoorId> = Vec::new();
        let mut positions = Vec::new();
        for door in space.doors() {
            if door.kind.is_vertical() {
                let (floors, touched) = door.floor_pair();
                for &floor in &floors[..touched] {
                    by_floor.entry(floor).or_default().push(stair_doors.len());
                }
                stair_doors.push(door.id);
                positions.push(door.position);
            }
        }
        let floors = by_floor
            .into_iter()
            .map(|(floor, mut dense)| {
                dense.dedup();
                let doors = dense.iter().map(|&i| stair_doors[i]).collect();
                (floor, doors, dense)
            })
            .collect();
        let n = stair_doors.len();

        // Staircase network adjacency.
        //  * same-floor staircase doors: planar Euclidean distance,
        //  * vertically adjacent staircase doors (sharing a staircase
        //    partition): the intra-partition (stairway) distance declared by
        //    the venue.
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for (i, &a) in stair_doors.iter().enumerate() {
            let da = space.door(a).expect("stair door exists");
            for (j, &b) in stair_doors.iter().enumerate() {
                if i == j {
                    continue;
                }
                let db = space.door(b).expect("stair door exists");
                let share_floor = da.floors().iter().any(|f| db.touches_floor(*f));
                if share_floor {
                    adj[i].push((j, da.position.distance(&db.position)));
                }
                // Connected through a common partition (e.g. the same
                // staircase partition links the door below and above): use the
                // real walking distance, which for stairs is the declared
                // stairway length.
                let via = space.partitions_between(a, b);
                if let Some(w) = via
                    .iter()
                    .map(|&v| space.intra_door_distance(v, a, b))
                    .filter(|w| w.is_finite())
                    .min_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
                {
                    adj[i].push((j, w));
                }
            }
        }

        // All-pairs Dijkstra on the (small) staircase network.
        let mut s2s = vec![UNREACHABLE; n * n];
        for src in 0..n {
            let mut dist = vec![UNREACHABLE; n];
            dist[src] = 0.0;
            let mut heap = BinaryHeap::new();
            heap.push(Reverse((OrderedF64::new(0.0), src)));
            while let Some(Reverse((d, u))) = heap.pop() {
                let d = d.get();
                if d > dist[u] {
                    continue;
                }
                for &(v, w) in &adj[u] {
                    let nd = d + w;
                    if nd < dist[v] {
                        dist[v] = nd;
                        heap.push(Reverse((OrderedF64::new(nd), v)));
                    }
                }
            }
            s2s[src * n..(src + 1) * n].copy_from_slice(&dist);
        }

        SkeletonIndex {
            stair_doors,
            positions,
            floors,
            s2s,
            n,
        }
    }

    /// The entry of a floor in `floors`, if it has staircase doors.
    fn floor_entry(&self, floor: FloorId) -> Option<&(FloorId, Vec<DoorId>, Vec<usize>)> {
        self.floors
            .binary_search_by_key(&floor, |entry| entry.0)
            .ok()
            .map(|at| &self.floors[at])
    }

    /// Dense numbers of the staircase doors on a floor, in door-id order.
    fn dense_on(&self, floor: FloorId) -> &[usize] {
        self.floor_entry(floor).map_or(&[], |entry| &entry.2)
    }

    /// Staircase doors on a floor (`SD(floor)`).
    pub fn stair_doors(&self, floor: FloorId) -> &[DoorId] {
        self.floor_entry(floor).map_or(&[], |entry| &entry.1)
    }

    /// Number of staircase doors in the venue.
    pub fn num_stair_doors(&self) -> usize {
        self.n
    }

    /// `δs2s` between two staircase doors by dense number.
    #[inline]
    fn s2s_dense(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        self.s2s[i * self.n + j]
    }

    /// Shortest staircase-network distance between two staircase doors.
    pub fn s2s_distance(&self, a: DoorId, b: DoorId) -> f64 {
        if a == b {
            return 0.0;
        }
        match (
            self.stair_doors.binary_search(&a),
            self.stair_doors.binary_search(&b),
        ) {
            (Ok(i), Ok(j)) => self.s2s_dense(i, j),
            _ => UNREACHABLE,
        }
    }

    /// Lower bound `|a, b|_L` between two located items. Each item is a planar
    /// position plus the set of floors it touches (points and normal doors
    /// touch one floor, staircase doors touch two).
    pub fn lower_bound(
        &self,
        pos_a: Point,
        floors_a: &[FloorId],
        pos_b: Point,
        floors_b: &[FloorId],
    ) -> f64 {
        // Same floor: planar Euclidean distance.
        if floors_a.iter().any(|f| floors_b.contains(f)) {
            return pos_a.distance(&pos_b);
        }
        let mut best = UNREACHABLE;
        for fa in floors_a {
            for &i in self.dense_on(*fa) {
                let head = pos_a.distance(&self.positions[i]);
                for fb in floors_b {
                    for &j in self.dense_on(*fb) {
                        let mid = self.s2s_dense(i, j);
                        if !mid.is_finite() {
                            continue;
                        }
                        best = best.min(head + mid + pos_b.distance(&self.positions[j]));
                    }
                }
            }
        }
        best
    }

    /// Lower bound between two indoor points.
    pub fn lower_bound_points(&self, a: &IndoorPoint, b: &IndoorPoint) -> f64 {
        self.lower_bound(a.position, &[a.floor], b.position, &[b.floor])
    }

    /// Estimated heap size in bytes for memory accounting.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.s2s.capacity() * std::mem::size_of::<f64>()
            + self.stair_doors.capacity() * std::mem::size_of::<DoorId>()
            + self.positions.capacity() * std::mem::size_of::<Point>()
            + self
                .floors
                .iter()
                .map(|(_, doors, dense)| {
                    doors.capacity() * std::mem::size_of::<DoorId>()
                        + dense.capacity() * std::mem::size_of::<usize>()
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::door::DoorKind;
    use crate::partition::PartitionKind;
    use crate::space::IndoorSpaceBuilder;
    use indoor_geom::{approx_eq, Rect};

    /// Two floors, each one big room plus a staircase partition in the corner;
    /// the staircases are connected by a stair door with a 20 m stairway.
    fn two_floor_venue() -> IndoorSpace {
        let mut b = IndoorSpaceBuilder::new();
        let mut hall_doors = Vec::new();
        let mut stair_parts = Vec::new();
        for f in 0..2 {
            let floor = FloorId(f);
            b.add_floor(
                floor,
                Rect::from_origin_size(Point::ORIGIN, 100.0, 100.0).unwrap(),
            );
            let room = b.add_partition(
                floor,
                PartitionKind::Room,
                Rect::from_origin_size(Point::ORIGIN, 90.0, 100.0).unwrap(),
                None,
            );
            let stair = b.add_partition(
                floor,
                PartitionKind::Staircase,
                Rect::from_origin_size(Point::new(90.0, 0.0), 10.0, 10.0).unwrap(),
                None,
            );
            let hall_door = b.add_door(Point::new(90.0, 5.0), floor, DoorKind::Normal);
            b.connect_bidirectional(hall_door, room, stair);
            hall_doors.push(hall_door);
            stair_parts.push(stair);
        }
        // Stair door connecting the two staircase partitions, 10 m from each
        // hallway door so a full floor change costs 20 m.
        let sd = b.add_door(Point::new(95.0, 5.0), FloorId(0), DoorKind::Stair);
        b.connect_bidirectional(sd, stair_parts[0], stair_parts[1]);
        b.set_intra_distance(stair_parts[0], hall_doors[0], sd, 10.0);
        b.set_intra_distance(stair_parts[1], hall_doors[1], sd, 10.0);
        b.build().unwrap()
    }

    #[test]
    fn same_floor_lower_bound_is_euclidean() {
        let s = two_floor_venue();
        let a = IndoorPoint::from_xy(0.0, 0.0, FloorId(0));
        let b = IndoorPoint::from_xy(30.0, 40.0, FloorId(0));
        assert!(approx_eq(s.skeleton_distance(&a, &b), 50.0));
    }

    #[test]
    fn cross_floor_lower_bound_goes_through_stairs() {
        let s = two_floor_venue();
        let a = IndoorPoint::from_xy(95.0, 5.0, FloorId(0));
        let b = IndoorPoint::from_xy(95.0, 5.0, FloorId(1));
        // Both points sit exactly on the stair door: bound is 0 + 0 + 0.
        assert!(approx_eq(s.skeleton_distance(&a, &b), 0.0));
        let c = IndoorPoint::from_xy(45.0, 5.0, FloorId(1));
        // |a, sd| = 0, s2s = 0, |sd, c| = 50.
        assert!(approx_eq(s.skeleton_distance(&a, &c), 50.0));
    }

    #[test]
    fn lower_bound_never_exceeds_true_distance() {
        let s = two_floor_venue();
        let a = IndoorPoint::from_xy(10.0, 5.0, FloorId(0));
        let b = IndoorPoint::from_xy(10.0, 5.0, FloorId(1));
        let lb = s.skeleton_distance(&a, &b);
        let real = s.point_to_point_distance(&a, &b);
        assert!(real.is_finite());
        assert!(lb <= real + 1e-9, "lb {lb} must be <= real {real}");
    }

    #[test]
    fn stair_door_listing() {
        let s = two_floor_venue();
        assert_eq!(s.skeleton().num_stair_doors(), 1);
        assert_eq!(s.skeleton().stair_doors(FloorId(0)).len(), 1);
        assert_eq!(s.skeleton().stair_doors(FloorId(1)).len(), 1);
        assert!(s.skeleton().stair_doors(FloorId(9)).is_empty());
        assert!(s.skeleton().estimated_bytes() > 0);
    }

    #[test]
    fn s2s_distance_identity_and_unknown() {
        let s = two_floor_venue();
        let sd = s.stair_doors_on_floor(FloorId(0))[0];
        assert!(approx_eq(s.skeleton().s2s_distance(sd, sd), 0.0));
        assert!(!s.skeleton().s2s_distance(sd, DoorId(999)).is_finite());
    }

    #[test]
    fn cross_floor_unreachable_without_stairs() {
        // Two floors with no stair door at all: the lower bound is infinite,
        // which is still a valid lower bound of an unreachable pair.
        let mut b = IndoorSpaceBuilder::new();
        for f in 0..2 {
            let floor = FloorId(f);
            let room = b.add_partition(
                floor,
                PartitionKind::Room,
                Rect::from_origin_size(Point::ORIGIN, 50.0, 50.0).unwrap(),
                None,
            );
            let d = b.add_door(Point::new(50.0, 25.0), floor, DoorKind::Normal);
            b.connect(d, room, true, true);
        }
        let s = b.build().unwrap();
        let a = IndoorPoint::from_xy(10.0, 10.0, FloorId(0));
        let c = IndoorPoint::from_xy(10.0, 10.0, FloorId(1));
        assert!(!s.skeleton_distance(&a, &c).is_finite());
    }
}
