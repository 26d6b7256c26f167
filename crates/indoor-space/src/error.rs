//! Error types for indoor-space model construction and queries.

use crate::ids::{DoorId, FloorId, PartitionId};
use std::fmt;

/// Errors produced while building or querying an [`crate::IndoorSpace`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceError {
    /// Geometry-level failure bubbled up from the geometry kernel.
    Geometry(indoor_geom::GeomError),
    /// A partition identifier does not exist in the space.
    UnknownPartition(PartitionId),
    /// A door identifier does not exist in the space.
    UnknownDoor(DoorId),
    /// A floor identifier does not exist in the space.
    UnknownFloor(FloorId),
    /// A door was connected to a partition on a different floor without being
    /// declared a stair/elevator door.
    FloorMismatch {
        /// Door involved.
        door: DoorId,
        /// Partition involved.
        partition: PartitionId,
    },
    /// A door has no connection at all and would be unreachable.
    DisconnectedDoor(DoorId),
    /// A partition has no door and would be unreachable.
    DisconnectedPartition(PartitionId),
    /// The point is not inside any partition of the venue.
    PointOutsideVenue {
        /// Floor on which the lookup was attempted.
        floor: FloorId,
    },
    /// A route was constructed with inconsistent items/partitions.
    MalformedRoute(String),
    /// The route violates the regularity principle of §II-B.
    IrregularRoute(String),
    /// The requested pair of items is not connected.
    Unreachable,
    /// The space has no floors / no partitions.
    EmptySpace,
    /// A floor's point-location grid would span more than
    /// [`indoor_geom::grid::MAX_GRID_CELLS`] cells: a partition footprint,
    /// the floor's bounds or the grid cell size is corrupt.
    OversizedGrid {
        /// The floor.
        floor: FloorId,
        /// The cells its bounds span (counted in `f64`, so possibly
        /// infinite).
        cells: f64,
        /// The grid cell size, metres.
        cell: f64,
    },
    /// A generator or builder configuration is unusable (e.g. zero floors,
    /// a venue size that does not fit the requested layout). Carried as a
    /// human-readable usage message so callers can surface it directly.
    InvalidConfig(String),
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::Geometry(e) => write!(f, "geometry error: {e}"),
            SpaceError::UnknownPartition(v) => write!(f, "unknown partition {v}"),
            SpaceError::UnknownDoor(d) => write!(f, "unknown door {d}"),
            SpaceError::UnknownFloor(fl) => write!(f, "unknown floor {fl}"),
            SpaceError::FloorMismatch { door, partition } => {
                write!(
                    f,
                    "door {door} and partition {partition} are on different floors"
                )
            }
            SpaceError::DisconnectedDoor(d) => write!(f, "door {d} has no partition connection"),
            SpaceError::DisconnectedPartition(v) => write!(f, "partition {v} has no door"),
            SpaceError::PointOutsideVenue { floor } => {
                write!(f, "point is outside every partition of floor {floor}")
            }
            SpaceError::MalformedRoute(msg) => write!(f, "malformed route: {msg}"),
            SpaceError::IrregularRoute(msg) => write!(f, "irregular route: {msg}"),
            SpaceError::Unreachable => write!(f, "items are not connected"),
            SpaceError::OversizedGrid { floor, cells, cell } => write!(
                f,
                "point-location grid of floor {floor} would span {cells:.3e} cells of {cell} m \
                 (limit {})",
                indoor_geom::grid::MAX_GRID_CELLS
            ),
            SpaceError::EmptySpace => write!(f, "indoor space has no partitions"),
            SpaceError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SpaceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpaceError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<indoor_geom::GeomError> for SpaceError {
    fn from(e: indoor_geom::GeomError) -> Self {
        SpaceError::Geometry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<SpaceError> = vec![
            SpaceError::UnknownPartition(PartitionId(3)),
            SpaceError::UnknownDoor(DoorId(4)),
            SpaceError::UnknownFloor(FloorId(1)),
            SpaceError::FloorMismatch {
                door: DoorId(1),
                partition: PartitionId(2),
            },
            SpaceError::DisconnectedDoor(DoorId(9)),
            SpaceError::DisconnectedPartition(PartitionId(9)),
            SpaceError::PointOutsideVenue { floor: FloorId(0) },
            SpaceError::MalformedRoute("x".into()),
            SpaceError::IrregularRoute("y".into()),
            SpaceError::Unreachable,
            SpaceError::EmptySpace,
            SpaceError::InvalidConfig("z".into()),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn geometry_error_converts_and_sources() {
        let ge = indoor_geom::GeomError::NotRectilinear;
        let se: SpaceError = ge.clone().into();
        assert_eq!(se, SpaceError::Geometry(ge));
        assert!(std::error::Error::source(&se).is_some());
        assert!(std::error::Error::source(&SpaceError::Unreachable).is_none());
    }
}
