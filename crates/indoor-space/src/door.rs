//! Doors: the connection points between partitions.

use crate::ids::{DoorId, FloorId};
use crate::point::IndoorPoint;
use indoor_geom::Point;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The functional kind of a door.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DoorKind {
    /// A regular door between two partitions on the same floor (or between a
    /// partition and the outside, in which case it connects one partition).
    Normal,
    /// A staircase door: the landing door of a stairway connecting the
    /// staircase partitions of two adjacent floors. Staircase doors are the
    /// nodes of the skeleton-distance network of §IV-A.
    Stair,
    /// An elevator door connecting elevator partitions of two floors
    /// (future-work entity from §VII).
    Elevator,
}

impl DoorKind {
    /// Whether the door connects partitions on different floors.
    pub fn is_vertical(self) -> bool {
        matches!(self, DoorKind::Stair | DoorKind::Elevator)
    }
}

/// A door in the indoor space.
///
/// A door's topological role (which partitions can be entered or left through
/// it, i.e. the `D2PA`/`D2P@` mappings) is stored in [`crate::IndoorSpace`];
/// the `Door` struct holds its identity and geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Door {
    /// Identifier assigned by the builder.
    pub id: DoorId,
    /// Planar position of the door.
    pub position: Point,
    /// Floor of the door. For vertical doors (stairs, elevators) this is the
    /// *lower* of the two floors the door touches; [`Door::floors`] returns
    /// both.
    pub floor: FloorId,
    /// Kind of door.
    pub kind: DoorKind,
}

impl Door {
    /// All floors the door touches: one for normal doors, the lower and upper
    /// floor for vertical connector doors.
    pub fn floors(&self) -> Vec<FloorId> {
        let (floors, n) = self.floor_pair();
        floors[..n].to_vec()
    }

    /// [`Door::floors`] without allocating: the floors in the first `n`
    /// entries of the pair, `n` being 1 or 2.
    #[inline]
    pub fn floor_pair(&self) -> ([FloorId; 2], usize) {
        let n = if self.kind.is_vertical() { 2 } else { 1 };
        ([self.floor, FloorId(self.floor.0.wrapping_add(1))], n)
    }

    /// Whether the door touches the given floor.
    pub fn touches_floor(&self, floor: FloorId) -> bool {
        let (floors, n) = self.floor_pair();
        floors[..n].contains(&floor)
    }

    /// The door's position as an [`IndoorPoint`] on its base floor.
    pub fn indoor_point(&self) -> IndoorPoint {
        IndoorPoint::new(self.position, self.floor)
    }

    /// Planar Euclidean distance to another door, ignoring floors. Only
    /// meaningful for doors of the same partition; the space model guards the
    /// contexts in which it is used.
    pub fn planar_distance(&self, other: &Door) -> f64 {
        self.position.distance(&other.position)
    }
}

impl fmt::Display for Door {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{}{}",
            self.id,
            self.floor,
            if self.kind.is_vertical() { "+" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_geom::approx_eq;

    #[test]
    fn normal_door_touches_single_floor() {
        let d = Door {
            id: DoorId(0),
            position: Point::new(1.0, 2.0),
            floor: FloorId(0),
            kind: DoorKind::Normal,
        };
        assert_eq!(d.floors(), vec![FloorId(0)]);
        assert!(d.touches_floor(FloorId(0)));
        assert!(!d.touches_floor(FloorId(1)));
        assert!(!d.kind.is_vertical());
    }

    #[test]
    fn stair_door_touches_two_floors() {
        let d = Door {
            id: DoorId(1),
            position: Point::new(5.0, 5.0),
            floor: FloorId(2),
            kind: DoorKind::Stair,
        };
        assert_eq!(d.floors(), vec![FloorId(2), FloorId(3)]);
        assert!(d.touches_floor(FloorId(2)));
        assert!(d.touches_floor(FloorId(3)));
        assert!(!d.touches_floor(FloorId(4)));
        assert!(d.kind.is_vertical());
        assert!(d.to_string().ends_with('+'));
    }

    #[test]
    fn planar_distance_between_doors() {
        let a = Door {
            id: DoorId(0),
            position: Point::new(0.0, 0.0),
            floor: FloorId(0),
            kind: DoorKind::Normal,
        };
        let b = Door {
            id: DoorId(1),
            position: Point::new(6.0, 8.0),
            floor: FloorId(0),
            kind: DoorKind::Normal,
        };
        assert!(approx_eq(a.planar_distance(&b), 10.0));
        assert_eq!(a.indoor_point().floor, FloorId(0));
    }
}
