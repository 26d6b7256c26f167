//! # indoor-space
//!
//! The indoor space model underlying the Indoor Top-k Keyword-aware Routing
//! Query (IKRQ, ICDE 2020) reproduction.
//!
//! The model follows the foundation of Lu et al. (ICDE 2012), which the paper
//! builds on (its reference \[13\]):
//!
//! * an indoor venue is a set of **partitions** (rooms, hallway cells,
//!   staircases) distributed over **floors**,
//! * partitions are connected by **doors**, each with explicit directionality:
//!   `D2PA(d)` is the set of partitions one can *enter* through `d` and
//!   `D2P@(d)` the set of partitions one can *leave* through `d`; the inverse
//!   mappings `P2DA(v)` / `P2D@(v)` give the enterable / leaveable doors of a
//!   partition,
//! * movement is door-to-door within a common partition, with the
//!   intra-partition distances `δd2d`, `δpt2d`, `δd2pt` of §II-A,
//! * a **route** is a sequence of doors between two items (points or doors),
//!   subject to the *regularity principle* of §II-B,
//! * the **skeleton distance** `|x, y|_L` of §IV-A provides a cheap lower
//!   bound on indoor distance, built from the staircase-door network.
//!
//! On top of the raw model the crate provides a directed **door graph**,
//! Dijkstra-based shortest paths with door exclusion (needed for the global
//! regularity checks of Algorithms 5 and 6) and with a distance budget, one
//! source door at a time (the query generator and the KoE* variant compute
//! only the rows they need), plus venue statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod door;
pub mod door_graph;
pub mod error;
pub mod ids;
pub mod partition;
pub mod point;
pub mod route;
pub mod shortest_path;
pub mod skeleton;
pub mod space;
pub mod stats;

pub use csr::Csr;
pub use door::{Door, DoorKind};
pub use door_graph::{DoorGraph, DoorGraphEdge};
pub use error::SpaceError;
pub use ids::{DoorId, FloorId, PartitionId};
pub use partition::{Partition, PartitionKind};
pub use point::IndoorPoint;
pub use route::{Route, RouteEnd, RouteItem};
pub use shortest_path::{DijkstraResult, ShortestPaths, ELLIPSE_SLACK};
pub use skeleton::SkeletonIndex;
pub use space::{IndoorSpace, IndoorSpaceBuilder, SpaceColumns};
pub use stats::SpaceStats;

/// Result alias for fallible indoor-space operations.
pub type Result<T> = std::result::Result<T, SpaceError>;

/// Distance value used to mark unreachable item pairs, mirroring the paper's
/// use of `∞` in the distance definitions of §II-A.
pub const UNREACHABLE: f64 = f64::INFINITY;

/// Commonly used types, re-exported for glob import.
pub mod prelude {
    pub use crate::{
        Door, DoorGraph, DoorId, DoorKind, FloorId, IndoorPoint, IndoorSpace, IndoorSpaceBuilder,
        Partition, PartitionId, PartitionKind, Route, RouteEnd, RouteItem, SkeletonIndex,
        SpaceError, SpaceStats,
    };
}
