//! Routes: sequences of doors between two items, with the regularity
//! principle of §II-B and the distance computation of Definition 1.

use crate::error::SpaceError;
use crate::ids::{DoorId, PartitionId};
use crate::point::IndoorPoint;
use crate::space::IndoorSpace;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// A route item: a point or a door (`x` in the paper's notation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RouteItem {
    /// An indoor point (start or terminal point of a query).
    Point(IndoorPoint),
    /// A door.
    Door(DoorId),
}

/// Whether a route from a point with doors `doors` may append door `d`, as
/// [`Route::can_append_door`] decides (Principle of Regularity): a door may
/// re-appear only as the current tail, and only for its first repetition
/// (no `d, d, d`).
pub fn can_append_door(doors: &[DoorId], d: DoorId) -> bool {
    match doors.iter().rposition(|&x| x == d) {
        None => true,
        Some(pos) => pos + 1 == doors.len() && !(pos >= 1 && doors[pos - 1] == d),
    }
}

/// Alias kept for readability at route ends.
pub type RouteEnd = RouteItem;

impl RouteItem {
    /// The door id when the item is a door.
    pub fn as_door(&self) -> Option<DoorId> {
        match self {
            RouteItem::Door(d) => Some(*d),
            RouteItem::Point(_) => None,
        }
    }

    /// The point when the item is a point.
    pub fn as_point(&self) -> Option<IndoorPoint> {
        match self {
            RouteItem::Point(p) => Some(*p),
            RouteItem::Door(_) => None,
        }
    }
}

/// A route `R = (xs, d_i, ..., d_n, xt)`.
///
/// The route stores, alongside the door sequence, the *connecting partition*
/// of every leg: `partitions[i]` is the partition traversed between item `i`
/// and item `i + 1`. This mirrors how the paper annotates routes (Table II)
/// and makes the route distance and regularity checks purely local
/// computations. The key-partition sequence `KP(R)` depends on the query, so
/// the search engine defines it (`SearchContext::key_partition_sequence` in
/// `ikrq-core`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Route {
    start: RouteItem,
    doors: Vec<DoorId>,
    terminal: Option<RouteItem>,
    partitions: Vec<PartitionId>,
}

impl Route {
    /// A new partial route consisting of only the start point (the paper's
    /// initial route `R0 = (ps)` in Algorithm 1 line 7).
    pub fn from_point(start: IndoorPoint) -> Self {
        Route {
            start: RouteItem::Point(start),
            doors: Vec::new(),
            terminal: None,
            partitions: Vec::new(),
        }
    }

    /// A new partial route starting at a door (used for route fragments).
    pub fn from_door(start: DoorId) -> Self {
        Route {
            start: RouteItem::Door(start),
            doors: Vec::new(),
            terminal: None,
            partitions: Vec::new(),
        }
    }

    /// The partial route from the point `start` through `doors`, each door
    /// reached through the leg at the same position of `legs`: the route
    /// [`Route::from_point`] and one [`Route::append_door`] per door build,
    /// kept in the vectors given, so a caller that knows the route's length
    /// allocates them once (with room in `legs` for the leg
    /// [`Route::complete_with_point`] adds). Fails as `append_door` would.
    pub fn from_point_through(
        start: IndoorPoint,
        doors: Vec<DoorId>,
        legs: Vec<PartitionId>,
    ) -> Result<Self> {
        if doors.len() != legs.len() {
            return Err(SpaceError::MalformedRoute(
                "a route from a point needs one leg per door".into(),
            ));
        }
        if let Some(i) = (0..doors.len()).find(|&i| !can_append_door(&doors[..i], doors[i])) {
            return Err(SpaceError::IrregularRoute(format!(
                "door {} would re-appear non-consecutively",
                doors[i]
            )));
        }
        Ok(Route {
            start: RouteItem::Point(start),
            doors,
            terminal: None,
            partitions: legs,
        })
    }

    /// The start item `xs`.
    pub fn start(&self) -> &RouteItem {
        &self.start
    }

    /// The terminal item `xt` when the route is complete.
    pub fn terminal(&self) -> Option<&RouteItem> {
        self.terminal.as_ref()
    }

    /// Whether the route has been completed with a terminal item.
    pub fn is_complete(&self) -> bool {
        self.terminal.is_some()
    }

    /// The door sequence of the route.
    pub fn doors(&self) -> &[DoorId] {
        &self.doors
    }

    /// The connecting partitions, one per leg.
    pub fn legs(&self) -> &[PartitionId] {
        &self.partitions
    }

    /// Number of items (`xs`, doors, `xt`).
    pub fn num_items(&self) -> usize {
        1 + self.doors.len() + usize::from(self.terminal.is_some())
    }

    /// The last door of the route (`R.tail` in the paper), if any.
    pub fn tail_door(&self) -> Option<DoorId> {
        self.doors.last().copied()
    }

    /// The last item of the route: terminal if complete, otherwise the last
    /// door, otherwise the start item.
    pub fn last_item(&self) -> RouteItem {
        if let Some(t) = self.terminal {
            t
        } else if let Some(d) = self.tail_door() {
            RouteItem::Door(d)
        } else {
            self.start
        }
    }

    /// Whether the route already visits the door.
    pub fn contains_door(&self, d: DoorId) -> bool {
        self.doors.contains(&d)
    }

    /// The set of doors used by the route; the search algorithms pass this as
    /// the exclusion set of shortest-path queries to enforce global
    /// regularity when connecting to the terminal point.
    pub fn door_set(&self) -> HashSet<DoorId> {
        self.doors.iter().copied().collect()
    }

    /// Regularity check for appending a door (Principle of Regularity,
    /// §II-B): a door may re-appear only immediately after itself (a one-hop
    /// loop), never with other doors in between, and never more than twice.
    pub fn can_append_door(&self, d: DoorId) -> bool {
        if self.terminal.is_some() {
            return false;
        }
        // A route starting at a door counts that door as an occurrence too:
        // (d13, d14, d14, d13) from the paper's regularity example is
        // irregular because doors lie between the two occurrences of d13.
        if self.start.as_door() == Some(d) && !self.doors.is_empty() && self.tail_door() != Some(d)
        {
            return false;
        }
        can_append_door(&self.doors, d)
    }

    /// Appends a door reached by traversing `via`. Fails when the route is
    /// already complete or the append violates the regularity principle.
    pub fn append_door(&mut self, d: DoorId, via: PartitionId) -> Result<()> {
        if self.terminal.is_some() {
            return Err(SpaceError::MalformedRoute(
                "cannot append to a complete route".into(),
            ));
        }
        if !self.can_append_door(d) {
            return Err(SpaceError::IrregularRoute(format!(
                "door {d} would re-appear non-consecutively"
            )));
        }
        self.doors.push(d);
        self.partitions.push(via);
        Ok(())
    }

    /// Extends the route with a door path produced by a shortest-path query.
    /// `path_doors[0]` must equal the current tail door (it is not duplicated)
    /// unless the route has no doors yet, in which case the whole path is
    /// appended. `path_partitions[i]` connects `path_doors[i]` to
    /// `path_doors[i + 1]`.
    pub fn extend_with_door_path(
        &mut self,
        path_doors: &[DoorId],
        path_partitions: &[PartitionId],
    ) -> Result<()> {
        if path_doors.is_empty() {
            return Ok(());
        }
        let (rest_doors, rest_parts): (&[DoorId], &[PartitionId]) = match self.tail_door() {
            Some(tail) => {
                if path_doors[0] != tail {
                    return Err(SpaceError::MalformedRoute(format!(
                        "path starts at {} but route tail is {}",
                        path_doors[0], tail
                    )));
                }
                if path_doors.len() != path_partitions.len() + 1 {
                    return Err(SpaceError::MalformedRoute(
                        "path partition count must be door count - 1".into(),
                    ));
                }
                (&path_doors[1..], path_partitions)
            }
            None => {
                if path_doors.len() != path_partitions.len() {
                    return Err(SpaceError::MalformedRoute(
                        "initial path needs one partition per door".into(),
                    ));
                }
                (path_doors, path_partitions)
            }
        };
        for (d, v) in rest_doors.iter().zip(rest_parts.iter()) {
            self.append_door(*d, *v)?;
        }
        Ok(())
    }

    /// Completes the route with the terminal point reached through `via`
    /// (the terminal point's host partition).
    pub fn complete_with_point(&mut self, pt: IndoorPoint, via: PartitionId) -> Result<()> {
        if self.terminal.is_some() {
            return Err(SpaceError::MalformedRoute("route already complete".into()));
        }
        self.terminal = Some(RouteItem::Point(pt));
        self.partitions.push(via);
        Ok(())
    }

    /// Full regularity check (Principle of Regularity, §II-B): no door occurs
    /// with other doors between two of its occurrences, and no door occurs
    /// more than twice.
    pub fn is_regular(&self) -> bool {
        for (i, &d) in self.doors.iter().enumerate() {
            let later: Vec<usize> = self
                .doors
                .iter()
                .enumerate()
                .skip(i + 1)
                .filter_map(|(j, &e)| (e == d).then_some(j))
                .collect();
            if later.len() > 1 {
                return false;
            }
            if later.len() == 1 && later[0] != i + 1 {
                return false;
            }
        }
        if let Some(d) = self.start.as_door() {
            if let Some(pos) = self.doors.iter().position(|&x| x == d) {
                if pos != 0 || self.doors.iter().filter(|&&x| x == d).count() > 1 {
                    return false;
                }
            }
        }
        true
    }

    /// The raw sequence of partitions traversed by the route's legs.
    pub fn partitions_traversed(&self) -> &[PartitionId] {
        &self.partitions
    }

    /// Route distance `δ(R)` per Definition 1, evaluated against the space.
    /// Returns [`crate::UNREACHABLE`] if any leg is impossible, which
    /// indicates a malformed route.
    pub fn distance(&self, space: &IndoorSpace) -> f64 {
        let mut total = 0.0;
        let mut prev = self.start;
        for (leg, &door) in self.doors.iter().enumerate() {
            let via = self.partitions[leg];
            total += match prev {
                RouteItem::Point(p) => space.pt2d_distance(&p, door),
                RouteItem::Door(d) => space.intra_door_distance(via, d, door),
            };
            prev = RouteItem::Door(door);
        }
        if let Some(t) = self.terminal {
            let via = *self.partitions.last().expect("complete route has legs");
            total += match (prev, t) {
                (RouteItem::Door(d), RouteItem::Point(p)) => space.d2pt_distance(d, &p),
                (RouteItem::Point(p), RouteItem::Point(q)) => {
                    // Degenerate route with no doors: both points must share the
                    // host partition.
                    let _ = via;
                    p.position.distance(&q.position)
                }
                (RouteItem::Door(d), RouteItem::Door(e)) => space.intra_door_distance(via, d, e),
                (RouteItem::Point(p), RouteItem::Door(e)) => space.pt2d_distance(&p, e),
            };
        }
        total
    }

    /// Estimated heap size in bytes, for the engine's memory accounting.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.doors.capacity() * std::mem::size_of::<DoorId>()
            + self.partitions.capacity() * std::mem::size_of::<PartitionId>()
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        match self.start {
            RouteItem::Point(p) => write!(f, "{p}")?,
            RouteItem::Door(d) => write!(f, "{d}")?,
        }
        for (i, d) in self.doors.iter().enumerate() {
            write!(f, " -[{}]-> {}", self.partitions[i], d)?;
        }
        if let Some(t) = &self.terminal {
            match t {
                RouteItem::Point(p) => write!(
                    f,
                    " -[{}]-> {}",
                    self.partitions.last().expect("complete route has legs"),
                    p
                )?,
                RouteItem::Door(d) => write!(
                    f,
                    " -[{}]-> {}",
                    self.partitions.last().expect("complete route has legs"),
                    d
                )?,
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::door::DoorKind;
    use crate::ids::FloorId;
    use crate::partition::PartitionKind;
    use crate::space::IndoorSpaceBuilder;
    use indoor_geom::{approx_eq, Point, Rect};

    /// v0 -d0- v1 -d1- v2, rooms 10x10 in a row, doors at y = 5.
    fn corridor3() -> IndoorSpace {
        let mut b = IndoorSpaceBuilder::new();
        let f = FloorId(0);
        let rooms: Vec<_> = (0..3)
            .map(|i| {
                b.add_partition(
                    f,
                    PartitionKind::Room,
                    Rect::from_origin_size(Point::new(i as f64 * 10.0, 0.0), 10.0, 10.0).unwrap(),
                    None,
                )
            })
            .collect();
        for i in 0..2 {
            let d = b.add_door(Point::new((i + 1) as f64 * 10.0, 5.0), f, DoorKind::Normal);
            b.connect_bidirectional(d, rooms[i], rooms[i + 1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn build_and_measure_a_complete_route() {
        let s = corridor3();
        let ps = IndoorPoint::from_xy(2.0, 5.0, FloorId(0));
        let pt = IndoorPoint::from_xy(28.0, 5.0, FloorId(0));
        let mut r = Route::from_point(ps);
        r.append_door(DoorId(0), PartitionId(0)).unwrap();
        r.append_door(DoorId(1), PartitionId(1)).unwrap();
        r.complete_with_point(pt, PartitionId(2)).unwrap();
        assert!(r.is_complete());
        assert_eq!(r.num_items(), 4);
        assert_eq!(r.tail_door(), Some(DoorId(1)));
        // 8 + 10 + 8
        assert!(approx_eq(r.distance(&s), 26.0));
        assert!(r.is_regular());
        assert!(r.to_string().contains("d0"));
    }

    #[test]
    fn example_1_distances() {
        // Mirrors Example 1 of the paper with synthetic numbers: partial route
        // distance is the prefix sum of the complete route distance.
        let s = corridor3();
        let ps = IndoorPoint::from_xy(2.0, 5.0, FloorId(0));
        let mut partial = Route::from_point(ps);
        partial.append_door(DoorId(0), PartitionId(0)).unwrap();
        partial.append_door(DoorId(1), PartitionId(1)).unwrap();
        let mut complete = partial.clone();
        complete
            .complete_with_point(IndoorPoint::from_xy(28.0, 5.0, FloorId(0)), PartitionId(2))
            .unwrap();
        assert!(approx_eq(partial.distance(&s), 18.0));
        assert!(approx_eq(complete.distance(&s), 26.0));
    }

    #[test]
    fn regularity_forbids_separated_repeats() {
        let mut r = Route::from_point(IndoorPoint::from_xy(0.0, 0.0, FloorId(0)));
        r.append_door(DoorId(1), PartitionId(0)).unwrap();
        r.append_door(DoorId(2), PartitionId(1)).unwrap();
        // d1 appeared before and is not the tail: (d1, d2, d1) is irregular.
        assert!(!r.can_append_door(DoorId(1)));
        assert!(r.append_door(DoorId(1), PartitionId(0)).is_err());
        // Immediate repeat of the tail is fine (one-hop loop).
        assert!(r.can_append_door(DoorId(2)));
        r.append_door(DoorId(2), PartitionId(2)).unwrap();
        // But a third consecutive occurrence is not.
        assert!(!r.can_append_door(DoorId(2)));
        assert!(r.is_regular());

        // The same route built in its own lists, and the ones it rejects.
        let ps = IndoorPoint::from_xy(0.0, 0.0, FloorId(0));
        let legs = |n: u32| (0..n).map(PartitionId).collect::<Vec<_>>();
        let built = Route::from_point_through(ps, r.doors().to_vec(), r.legs().to_vec());
        assert_eq!(built.unwrap(), r);
        let doors = |ids: &[u32]| ids.iter().copied().map(DoorId).collect::<Vec<_>>();
        assert!(Route::from_point_through(ps, doors(&[1, 2, 1]), legs(3)).is_err());
        assert!(Route::from_point_through(ps, doors(&[2, 2, 2]), legs(3)).is_err());
        assert!(Route::from_point_through(ps, doors(&[1, 2]), legs(1)).is_err());
    }

    #[test]
    fn full_regularity_check_detects_violations() {
        let mut r = Route::from_door(DoorId(13));
        r.append_door(DoorId(14), PartitionId(7)).unwrap();
        r.append_door(DoorId(14), PartitionId(8)).unwrap();
        // Manually constructing (d13, d14, d14, d13) is rejected by the
        // appending API, mirroring the paper's example of an irregular route.
        assert!(!r.can_append_door(DoorId(13)));
    }

    #[test]
    fn extend_with_door_path_requires_matching_tail() {
        let mut r = Route::from_point(IndoorPoint::from_xy(2.0, 5.0, FloorId(0)));
        r.append_door(DoorId(0), PartitionId(0)).unwrap();
        // Path starting somewhere else is rejected.
        let err = r.extend_with_door_path(&[DoorId(5), DoorId(6)], &[PartitionId(1)]);
        assert!(err.is_err());
        // Path starting at the tail extends the route without duplicating it.
        r.extend_with_door_path(&[DoorId(0), DoorId(1)], &[PartitionId(1)])
            .unwrap();
        assert_eq!(r.doors(), &[DoorId(0), DoorId(1)]);
        assert_eq!(r.legs(), &[PartitionId(0), PartitionId(1)]);
    }

    #[test]
    fn extend_with_door_path_on_fresh_route() {
        let mut r = Route::from_point(IndoorPoint::from_xy(2.0, 5.0, FloorId(0)));
        r.extend_with_door_path(&[DoorId(0), DoorId(1)], &[PartitionId(0), PartitionId(1)])
            .unwrap();
        assert_eq!(r.doors().len(), 2);
        // Mismatched lengths rejected.
        let mut r = Route::from_point(IndoorPoint::from_xy(2.0, 5.0, FloorId(0)));
        assert!(r
            .extend_with_door_path(&[DoorId(0), DoorId(1)], &[PartitionId(0)])
            .is_err());
        // Empty path is a no-op.
        assert!(r.extend_with_door_path(&[], &[]).is_ok());
        assert!(r.doors().is_empty());
    }

    #[test]
    fn complete_route_rejects_further_modification() {
        let mut r = Route::from_point(IndoorPoint::from_xy(2.0, 5.0, FloorId(0)));
        r.append_door(DoorId(0), PartitionId(0)).unwrap();
        r.complete_with_point(IndoorPoint::from_xy(15.0, 5.0, FloorId(0)), PartitionId(1))
            .unwrap();
        assert!(r.append_door(DoorId(1), PartitionId(1)).is_err());
        assert!(r
            .complete_with_point(IndoorPoint::from_xy(1.0, 1.0, FloorId(0)), PartitionId(0))
            .is_err());
        assert!(!r.can_append_door(DoorId(1)));
    }

    #[test]
    fn item_accessors() {
        let ps = IndoorPoint::from_xy(2.0, 5.0, FloorId(0));
        let mut r = Route::from_point(ps);
        assert_eq!(r.last_item().as_point(), Some(ps));
        assert_eq!(r.start().as_point(), Some(ps));
        assert!(r.terminal().is_none());
        r.append_door(DoorId(3), PartitionId(0)).unwrap();
        assert_eq!(r.last_item().as_door(), Some(DoorId(3)));
        assert!(r.contains_door(DoorId(3)));
        assert!(!r.contains_door(DoorId(4)));
        assert_eq!(r.door_set().len(), 1);
        assert!(r.estimated_bytes() > 0);
        let frag = Route::from_door(DoorId(9));
        assert_eq!(frag.last_item().as_door(), Some(DoorId(9)));
    }

    #[test]
    fn degenerate_point_to_point_route_distance() {
        let s = corridor3();
        let ps = IndoorPoint::from_xy(2.0, 5.0, FloorId(0));
        let pt = IndoorPoint::from_xy(6.0, 2.0, FloorId(0));
        let mut r = Route::from_point(ps);
        // Same-partition route with no doors: distance is planar Euclidean.
        r.complete_with_point(pt, PartitionId(0)).unwrap();
        assert!(approx_eq(r.distance(&s), 5.0));
    }
}
