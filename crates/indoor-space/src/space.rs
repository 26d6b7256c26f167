//! The [`IndoorSpace`] aggregate: partitions, doors, topology mappings and the
//! intra-partition distance functions of §II-A, plus the derived structures
//! (door graph, skeleton index, per-floor point-location grids).

use crate::csr::Csr;
use crate::door::{Door, DoorKind};
use crate::door_graph::DoorGraph;
use crate::error::SpaceError;
use crate::ids::{DoorId, FloorId, PartitionId};
use crate::partition::{Partition, PartitionKind};
use crate::point::IndoorPoint;
use crate::shortest_path::ShortestPaths;
use crate::skeleton::SkeletonIndex;
use crate::stats::SpaceStats;
use crate::Result;
use crate::UNREACHABLE;
use indoor_geom::{Point, Rect, UniformGrid};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Connection descriptor between a door and a partition recorded by the
/// builder before validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Connection {
    door: DoorId,
    partition: PartitionId,
    /// One can enter the partition through the door (`partition ∈ D2PA(door)`).
    enterable: bool,
    /// One can leave the partition through the door (`partition ∈ D2P@(door)`).
    leavable: bool,
}

/// Builder for [`IndoorSpace`]. The floorplan generators in `indoor-data`
/// drive this API; it can also be used directly to model hand-crafted venues
/// such as the paper's Fig. 1 example (see `ikrq-core` tests).
#[derive(Debug, Default)]
pub struct IndoorSpaceBuilder {
    floors: BTreeMap<FloorId, Rect>,
    partitions: Vec<Partition>,
    doors: Vec<Door>,
    connections: Vec<Connection>,
    intra_overrides: HashMap<(PartitionId, DoorId, DoorId), f64>,
    loop_overrides: HashMap<(PartitionId, DoorId), f64>,
    grid_cell: f64,
}

impl IndoorSpaceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        IndoorSpaceBuilder {
            grid_cell: 25.0,
            ..Default::default()
        }
    }

    /// Overrides the cell size (metres) of the per-floor point-location grids.
    pub fn with_grid_cell(mut self, cell: f64) -> Self {
        self.grid_cell = cell;
        self
    }

    /// Registers a floor and its bounding rectangle.
    pub fn add_floor(&mut self, floor: FloorId, bounds: Rect) -> &mut Self {
        self.floors.insert(floor, bounds);
        self
    }

    /// Adds a partition and returns its identifier.
    pub fn add_partition(
        &mut self,
        floor: FloorId,
        kind: PartitionKind,
        footprint: Rect,
        name: Option<String>,
    ) -> PartitionId {
        let id = PartitionId(self.partitions.len() as u32);
        self.partitions.push(Partition {
            id,
            floor,
            kind,
            footprint,
            name,
        });
        id
    }

    /// Adds a door and returns its identifier.
    pub fn add_door(&mut self, position: Point, floor: FloorId, kind: DoorKind) -> DoorId {
        let id = DoorId(self.doors.len() as u32);
        self.doors.push(Door {
            id,
            position,
            floor,
            kind,
        });
        id
    }

    /// Footprint of a partition added earlier to this builder. Generators use
    /// this to place doors relative to partitions they just created.
    pub fn partition_footprint(&self, id: PartitionId) -> Option<Rect> {
        self.partitions.get(id.index()).map(|p| p.footprint)
    }

    /// Floor of a partition added earlier to this builder.
    pub fn partition_floor(&self, id: PartitionId) -> Option<FloorId> {
        self.partitions.get(id.index()).map(|p| p.floor)
    }

    /// Declares that `door` connects to `partition`. `enterable` means the
    /// partition can be entered through the door (`partition ∈ D2PA(door)`),
    /// `leavable` that it can be left through it (`partition ∈ D2P@(door)`).
    pub fn connect(
        &mut self,
        door: DoorId,
        partition: PartitionId,
        enterable: bool,
        leavable: bool,
    ) -> &mut Self {
        self.connections.push(Connection {
            door,
            partition,
            enterable,
            leavable,
        });
        self
    }

    /// Declares a fully bidirectional door between two partitions: both can be
    /// entered and left through it. This is the common case for the generated
    /// venues.
    pub fn connect_bidirectional(
        &mut self,
        door: DoorId,
        a: PartitionId,
        b: PartitionId,
    ) -> &mut Self {
        self.connect(door, a, true, true);
        self.connect(door, b, true, true);
        self
    }

    /// Overrides the intra-partition walking distance between two doors of a
    /// partition (stored symmetrically). Used for staircases, where the walk
    /// cost is the stairway length rather than the planar Euclidean distance.
    pub fn set_intra_distance(
        &mut self,
        partition: PartitionId,
        a: DoorId,
        b: DoorId,
        distance: f64,
    ) -> &mut Self {
        self.intra_overrides.insert((partition, a, b), distance);
        self.intra_overrides.insert((partition, b, a), distance);
        self
    }

    /// Overrides the same-door loop cost `δd2d(d, d)` inside a partition.
    pub fn set_loop_distance(
        &mut self,
        partition: PartitionId,
        door: DoorId,
        distance: f64,
    ) -> &mut Self {
        self.loop_overrides.insert((partition, door), distance);
        self
    }

    /// Validates the model and produces the immutable [`IndoorSpace`].
    pub fn build(self) -> Result<IndoorSpace> {
        if self.partitions.is_empty() {
            return Err(SpaceError::EmptySpace);
        }
        let num_partitions = self.partitions.len();
        let num_doors = self.doors.len();

        // Validate connection endpoints and floor consistency.
        for c in &self.connections {
            let door = self
                .doors
                .get(c.door.index())
                .ok_or(SpaceError::UnknownDoor(c.door))?;
            let part = self
                .partitions
                .get(c.partition.index())
                .ok_or(SpaceError::UnknownPartition(c.partition))?;
            if !door.touches_floor(part.floor) {
                return Err(SpaceError::FloorMismatch {
                    door: c.door,
                    partition: c.partition,
                });
            }
        }

        // Distance overrides must reference declared partitions and doors:
        // a dangling override would otherwise survive into the sorted tables
        // and silently never match a binary search.
        for &(v, a, b) in self.intra_overrides.keys() {
            if self.partitions.get(v.index()).is_none() {
                return Err(SpaceError::UnknownPartition(v));
            }
            if self.doors.get(a.index()).is_none() {
                return Err(SpaceError::UnknownDoor(a));
            }
            if self.doors.get(b.index()).is_none() {
                return Err(SpaceError::UnknownDoor(b));
            }
        }
        for &(v, d) in self.loop_overrides.keys() {
            if self.partitions.get(v.index()).is_none() {
                return Err(SpaceError::UnknownPartition(v));
            }
            if self.doors.get(d.index()).is_none() {
                return Err(SpaceError::UnknownDoor(d));
            }
        }

        // Assemble the four topology mappings as CSR arrays: flat pair lists,
        // one sort + dedup each — sorted, deduplicated and deterministic like
        // the previous per-node BTreeSet assembly, without the per-node heap
        // allocations that dominated cold-start time at venue scale.
        let mut d2p_enter_pairs: Vec<(u32, PartitionId)> =
            Vec::with_capacity(self.connections.len());
        let mut d2p_leave_pairs: Vec<(u32, PartitionId)> =
            Vec::with_capacity(self.connections.len());
        let mut p2d_enter_pairs: Vec<(u32, DoorId)> = Vec::with_capacity(self.connections.len());
        let mut p2d_leave_pairs: Vec<(u32, DoorId)> = Vec::with_capacity(self.connections.len());
        for c in &self.connections {
            if c.enterable {
                d2p_enter_pairs.push((c.door.0, c.partition));
                p2d_enter_pairs.push((c.partition.0, c.door));
            }
            if c.leavable {
                d2p_leave_pairs.push((c.door.0, c.partition));
                p2d_leave_pairs.push((c.partition.0, c.door));
            }
        }
        let d2p_enter = Csr::from_pairs(num_doors, d2p_enter_pairs);
        let d2p_leave = Csr::from_pairs(num_doors, d2p_leave_pairs);
        let p2d_enter = Csr::from_pairs(num_partitions, p2d_enter_pairs);
        let p2d_leave = Csr::from_pairs(num_partitions, p2d_leave_pairs);

        // Every door must connect to something; every partition must have a
        // door (otherwise it can never appear on a route).
        for i in 0..num_doors {
            if d2p_enter.row(i).is_empty() && d2p_leave.row(i).is_empty() {
                return Err(SpaceError::DisconnectedDoor(DoorId(i as u32)));
            }
        }
        for i in 0..num_partitions {
            if p2d_enter.row(i).is_empty() && p2d_leave.row(i).is_empty() {
                return Err(SpaceError::DisconnectedPartition(PartitionId(i as u32)));
            }
        }

        // Distance overrides become sorted flat tables looked up by binary
        // search — the per-query HashMap probes of the old layout were a
        // measurable constant on the hot d2d path.
        let mut intra_overrides: Vec<(PartitionId, DoorId, DoorId, f64)> = self
            .intra_overrides
            .into_iter()
            .map(|((v, a, b), d)| (v, a, b, d))
            .collect();
        intra_overrides.sort_unstable_by_key(|&(v, a, b, _)| (v, a, b));
        let mut loop_overrides: Vec<(PartitionId, DoorId, f64)> = self
            .loop_overrides
            .into_iter()
            .map(|((v, d), dist)| (v, d, dist))
            .collect();
        loop_overrides.sort_unstable_by_key(|&(v, d, _)| (v, d));
        check_override_distances(&intra_overrides, &loop_overrides)?;

        // Per-floor point-location grids over partition footprints.
        let mut floor_bounds: BTreeMap<FloorId, Rect> = self.floors.clone();
        for p in &self.partitions {
            floor_bounds
                .entry(p.floor)
                .and_modify(|b| *b = b.union(&p.footprint))
                .or_insert(p.footprint);
        }
        let mut grids: BTreeMap<FloorId, (UniformGrid, Vec<PartitionId>)> = BTreeMap::new();
        for (floor, bounds) in &floor_bounds {
            let grid = UniformGrid::new(*bounds, self.grid_cell)?;
            grids.insert(*floor, (grid, Vec::new()));
        }
        for p in &self.partitions {
            if let Some((grid, ids)) = grids.get_mut(&p.floor) {
                grid.insert(p.footprint);
                ids.push(p.id);
            }
        }

        let mut space = IndoorSpace {
            partitions: self.partitions,
            doors: self.doors,
            d2p_enter,
            d2p_leave,
            p2d_enter,
            p2d_leave,
            intra_overrides,
            loop_overrides,
            floor_bounds,
            grids,
            door_graph: DoorGraph::empty(),
            skeleton: SkeletonIndex::empty(),
        };
        space.door_graph = DoorGraph::build(&space);
        space.skeleton = SkeletonIndex::build(&space);
        Ok(space)
    }
}

/// Rejects override distances that shortest-path searches cannot use: NaN,
/// or negative (stored for both directions, a negative intra override forms
/// a negative two-door cycle and Dijkstra never settles). `+∞` stays legal:
/// it marks a door pair as impassable.
fn check_override_distances(
    intra: &[(PartitionId, DoorId, DoorId, f64)],
    loops: &[(PartitionId, DoorId, f64)],
) -> Result<()> {
    let unusable = |d: f64| d.is_nan() || d < 0.0;
    if let Some(&(v, a, b, d)) = intra.iter().find(|o| unusable(o.3)) {
        return Err(SpaceError::InvalidConfig(format!(
            "intra-distance override {a}→{b} in partition {v} is {d} (must be ≥ 0 or +∞)"
        )));
    }
    if let Some(&(v, door, d)) = loops.iter().find(|o| unusable(o.2)) {
        return Err(SpaceError::InvalidConfig(format!(
            "loop-distance override at {door} in partition {v} is {d} (must be ≥ 0 or +∞)"
        )));
    }
    Ok(())
}

/// Flat, pre-validated columns describing an [`IndoorSpace`], in exactly the
/// shape the model stores them. Columnar venue files (`IKRQVEN` v2) decode
/// into this struct and [`IndoorSpace::adopt_columns`] turns it into a model
/// without replaying the builder: no connection re-sorting, no door-graph
/// rebuild, no per-record allocation beyond the column vectors themselves.
#[derive(Debug, Clone)]
pub struct SpaceColumns {
    /// Cell size (metres) for the per-floor point-location grids.
    pub grid_cell: f64,
    /// Final floor bounding rectangles (declared bounds unioned with every
    /// footprint), ascending by floor.
    pub floor_bounds: Vec<(FloorId, Rect)>,
    /// All partitions, dense by `PartitionId::index()`.
    pub partitions: Vec<Partition>,
    /// All doors, dense by `DoorId::index()`.
    pub doors: Vec<Door>,
    /// `D2PA`: door → enterable partitions.
    pub d2p_enter: Csr<PartitionId>,
    /// `D2P@`: door → leavable partitions.
    pub d2p_leave: Csr<PartitionId>,
    /// `P2DA`: partition → doors it can be entered through.
    pub p2d_enter: Csr<DoorId>,
    /// `P2D@`: partition → doors it can be left through.
    pub p2d_leave: Csr<DoorId>,
    /// Intra-partition distance overrides, sorted by `(partition, from, to)`.
    pub intra_overrides: Vec<(PartitionId, DoorId, DoorId, f64)>,
    /// Same-door loop-cost overrides, sorted by `(partition, door)`.
    pub loop_overrides: Vec<(PartitionId, DoorId, f64)>,
    /// The derived door connectivity graph, persisted so adoption skips the
    /// most expensive rebuild step.
    pub door_graph: DoorGraph,
}

impl SpaceColumns {
    /// Captures the columns of a built space, in exactly the shape
    /// [`IndoorSpace::adopt_columns`] adopts. `grid_cell` is the cell size the
    /// space was built with (the model does not retain it; venue documents
    /// do).
    pub fn capture(space: &IndoorSpace, grid_cell: f64) -> SpaceColumns {
        let (d2p_enter, d2p_leave, p2d_enter, p2d_leave) = space.topology_csrs();
        SpaceColumns {
            grid_cell,
            floor_bounds: space.floor_bounds_table().collect(),
            partitions: space.partitions().to_vec(),
            doors: space.doors().to_vec(),
            d2p_enter: d2p_enter.clone(),
            d2p_leave: d2p_leave.clone(),
            p2d_enter: p2d_enter.clone(),
            p2d_leave: p2d_leave.clone(),
            intra_overrides: space.intra_distance_overrides().collect(),
            loop_overrides: space.loop_distance_overrides().collect(),
            door_graph: space.door_graph().clone(),
        }
    }
}

/// The immutable indoor space model. See the crate documentation for the
/// concepts; all accessors are cheap.
#[derive(Debug, Clone)]
pub struct IndoorSpace {
    partitions: Vec<Partition>,
    doors: Vec<Door>,
    d2p_enter: Csr<PartitionId>,
    d2p_leave: Csr<PartitionId>,
    p2d_enter: Csr<DoorId>,
    p2d_leave: Csr<DoorId>,
    /// Sorted by `(partition, from door, to door)`; binary-searched.
    intra_overrides: Vec<(PartitionId, DoorId, DoorId, f64)>,
    /// Sorted by `(partition, door)`; binary-searched.
    loop_overrides: Vec<(PartitionId, DoorId, f64)>,
    floor_bounds: BTreeMap<FloorId, Rect>,
    grids: BTreeMap<FloorId, (UniformGrid, Vec<PartitionId>)>,
    door_graph: DoorGraph,
    skeleton: SkeletonIndex,
}

impl IndoorSpace {
    /// Builds a space directly from flat columns, skipping the builder replay.
    ///
    /// This is the columnar cold-start path: the topology CSRs, override
    /// tables and door graph are adopted wholesale after `O(n)` validation
    /// scans; only the per-floor grids and the (small) skeleton index are
    /// recomputed. The columns must describe a model the builder could have
    /// produced — dense identifiers, sorted override tables, connected doors
    /// and partitions — and any violation is reported as a structured error,
    /// never a panic, so loaders can degrade to a record-by-record rebuild.
    pub fn adopt_columns(cols: SpaceColumns) -> Result<IndoorSpace> {
        let SpaceColumns {
            grid_cell,
            floor_bounds,
            partitions,
            doors,
            d2p_enter,
            d2p_leave,
            p2d_enter,
            p2d_leave,
            intra_overrides,
            loop_overrides,
            door_graph,
        } = cols;
        if partitions.is_empty() {
            return Err(SpaceError::EmptySpace);
        }
        let np = partitions.len();
        let nd = doors.len();
        for (i, p) in partitions.iter().enumerate() {
            if p.id.index() != i {
                return Err(SpaceError::InvalidConfig(format!(
                    "partition column {i} carries id {}",
                    p.id
                )));
            }
        }
        for (i, d) in doors.iter().enumerate() {
            if d.id.index() != i {
                return Err(SpaceError::InvalidConfig(format!(
                    "door column {i} carries id {}",
                    d.id
                )));
            }
        }

        // Topology CSR shape and value ranges.
        for (name, csr) in [("d2p_enter", &d2p_enter), ("d2p_leave", &d2p_leave)] {
            if csr.num_nodes() != nd {
                return Err(SpaceError::InvalidConfig(format!(
                    "{name} maps {} doors, venue has {nd}",
                    csr.num_nodes()
                )));
            }
            if let Some(&v) = csr.values().iter().find(|v| v.index() >= np) {
                return Err(SpaceError::UnknownPartition(v));
            }
        }
        for (name, csr) in [("p2d_enter", &p2d_enter), ("p2d_leave", &p2d_leave)] {
            if csr.num_nodes() != np {
                return Err(SpaceError::InvalidConfig(format!(
                    "{name} maps {} partitions, venue has {np}",
                    csr.num_nodes()
                )));
            }
            if let Some(&d) = csr.values().iter().find(|d| d.index() >= nd) {
                return Err(SpaceError::UnknownDoor(d));
            }
        }
        for i in 0..nd {
            if d2p_enter.row(i).is_empty() && d2p_leave.row(i).is_empty() {
                return Err(SpaceError::DisconnectedDoor(DoorId(i as u32)));
            }
        }
        for i in 0..np {
            if p2d_enter.row(i).is_empty() && p2d_leave.row(i).is_empty() {
                return Err(SpaceError::DisconnectedPartition(PartitionId(i as u32)));
            }
        }

        // Override tables: sorted (they are binary-searched) and in range.
        if intra_overrides
            .windows(2)
            .any(|w| (w[0].0, w[0].1, w[0].2) >= (w[1].0, w[1].1, w[1].2))
        {
            return Err(SpaceError::InvalidConfig(
                "intra-distance override table is not strictly sorted".to_string(),
            ));
        }
        for &(v, a, b, _) in &intra_overrides {
            if v.index() >= np {
                return Err(SpaceError::UnknownPartition(v));
            }
            if a.index() >= nd {
                return Err(SpaceError::UnknownDoor(a));
            }
            if b.index() >= nd {
                return Err(SpaceError::UnknownDoor(b));
            }
        }
        if loop_overrides
            .windows(2)
            .any(|w| (w[0].0, w[0].1) >= (w[1].0, w[1].1))
        {
            return Err(SpaceError::InvalidConfig(
                "loop-distance override table is not strictly sorted".to_string(),
            ));
        }
        for &(v, d, _) in &loop_overrides {
            if v.index() >= np {
                return Err(SpaceError::UnknownPartition(v));
            }
            if d.index() >= nd {
                return Err(SpaceError::UnknownDoor(d));
            }
        }
        check_override_distances(&intra_overrides, &loop_overrides)?;

        if door_graph.num_nodes() != nd {
            return Err(SpaceError::InvalidConfig(format!(
                "door graph covers {} doors, venue has {nd}",
                door_graph.num_nodes()
            )));
        }

        // Floor bounds and grids are recomputed exactly as the builder does;
        // unioning footprints into the persisted (already-final) bounds is
        // idempotent, and covers columns that only carry declared bounds.
        let mut floor_bounds: BTreeMap<FloorId, Rect> = floor_bounds.into_iter().collect();
        for p in &partitions {
            floor_bounds
                .entry(p.floor)
                .and_modify(|b| *b = b.union(&p.footprint))
                .or_insert(p.footprint);
        }
        let mut grids: BTreeMap<FloorId, (UniformGrid, Vec<PartitionId>)> = BTreeMap::new();
        for (floor, bounds) in &floor_bounds {
            let grid = UniformGrid::new(*bounds, grid_cell)?;
            grids.insert(*floor, (grid, Vec::new()));
        }
        for p in &partitions {
            if let Some((grid, ids)) = grids.get_mut(&p.floor) {
                grid.insert(p.footprint);
                ids.push(p.id);
            }
        }

        let mut space = IndoorSpace {
            partitions,
            doors,
            d2p_enter,
            d2p_leave,
            p2d_enter,
            p2d_leave,
            intra_overrides,
            loop_overrides,
            floor_bounds,
            grids,
            door_graph,
            skeleton: SkeletonIndex::empty(),
        };
        space.skeleton = SkeletonIndex::build(&space);
        Ok(space)
    }

    // ------------------------------------------------------------------
    // Basic accessors
    // ------------------------------------------------------------------

    /// All partitions, indexed by `PartitionId::index()`.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// All doors, indexed by `DoorId::index()`.
    pub fn doors(&self) -> &[Door] {
        &self.doors
    }

    /// Number of partitions in the venue.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Number of doors in the venue.
    pub fn num_doors(&self) -> usize {
        self.doors.len()
    }

    /// Floors present in the venue, in ascending order.
    pub fn floors(&self) -> Vec<FloorId> {
        self.floor_bounds.keys().copied().collect()
    }

    /// Bounding rectangle of a floor.
    pub fn floor_bounds(&self, floor: FloorId) -> Result<&Rect> {
        self.floor_bounds
            .get(&floor)
            .ok_or(SpaceError::UnknownFloor(floor))
    }

    /// All floors with their final bounding rectangles, ascending by floor.
    /// Exposed so persistence layers can write the table as flat columns.
    pub fn floor_bounds_table(&self) -> impl Iterator<Item = (FloorId, Rect)> + '_ {
        self.floor_bounds.iter().map(|(f, r)| (*f, *r))
    }

    /// Looks up a partition.
    pub fn partition(&self, id: PartitionId) -> Result<&Partition> {
        self.partitions
            .get(id.index())
            .ok_or(SpaceError::UnknownPartition(id))
    }

    /// Looks up a door.
    pub fn door(&self, id: DoorId) -> Result<&Door> {
        self.doors
            .get(id.index())
            .ok_or(SpaceError::UnknownDoor(id))
    }

    /// The derived door connectivity graph.
    pub fn door_graph(&self) -> &DoorGraph {
        &self.door_graph
    }

    /// All intra-partition distance overrides declared by the venue builder
    /// (`(partition, entered door, left door) → distance`, e.g. stairway walk
    /// costs). Exposed so that persistence layers can round-trip the model.
    pub fn intra_distance_overrides(
        &self,
    ) -> impl Iterator<Item = (PartitionId, DoorId, DoorId, f64)> + '_ {
        self.intra_overrides.iter().copied()
    }

    /// All same-door loop-cost overrides declared by the venue builder
    /// (`(partition, door) → distance`). Exposed for persistence layers.
    pub fn loop_distance_overrides(&self) -> impl Iterator<Item = (PartitionId, DoorId, f64)> + '_ {
        self.loop_overrides.iter().copied()
    }

    /// The skeleton-distance index (lower bound `|·,·|_L` of §IV-A).
    pub fn skeleton(&self) -> &SkeletonIndex {
        &self.skeleton
    }

    /// A shortest-path engine view over the door graph.
    pub fn shortest_paths(&self) -> ShortestPaths<'_> {
        ShortestPaths::new(self)
    }

    /// Summary statistics of the venue.
    pub fn stats(&self) -> SpaceStats {
        SpaceStats::from_space(self)
    }

    // ------------------------------------------------------------------
    // Topology mappings of §II-A
    // ------------------------------------------------------------------

    /// `D2PA(d)`: partitions one can enter through door `d`.
    #[inline]
    pub fn d2p_enter(&self, d: DoorId) -> &[PartitionId] {
        self.d2p_enter.row(d.index())
    }

    /// `D2P@(d)`: partitions one can leave through door `d`.
    #[inline]
    pub fn d2p_leave(&self, d: DoorId) -> &[PartitionId] {
        self.d2p_leave.row(d.index())
    }

    /// `P2DA(v)`: doors through which partition `v` can be entered.
    #[inline]
    pub fn p2d_enter(&self, v: PartitionId) -> &[DoorId] {
        self.p2d_enter.row(v.index())
    }

    /// `P2D@(v)`: doors through which partition `v` can be left.
    #[inline]
    pub fn p2d_leave(&self, v: PartitionId) -> &[DoorId] {
        self.p2d_leave.row(v.index())
    }

    /// The four topology mappings as whole CSR maps, in `(D2PA, D2P@, P2DA,
    /// P2D@)` order. Exposed so persistence layers can capture them as flat
    /// columns without walking every node.
    #[allow(clippy::type_complexity)]
    pub fn topology_csrs(
        &self,
    ) -> (
        &Csr<PartitionId>,
        &Csr<PartitionId>,
        &Csr<DoorId>,
        &Csr<DoorId>,
    ) {
        (
            &self.d2p_enter,
            &self.d2p_leave,
            &self.p2d_enter,
            &self.p2d_leave,
        )
    }

    /// Partitions through which one can move from door `di` (entering) to door
    /// `dj` (leaving): `D2PA(di) ∩ D2P@(dj)`. Non-empty iff `δd2d(di, dj)` is
    /// finite per §II-A.
    pub fn partitions_between(&self, di: DoorId, dj: DoorId) -> Vec<PartitionId> {
        let leave = self.d2p_leave(dj);
        self.d2p_enter(di)
            .iter()
            .copied()
            .filter(|v| leave.contains(v))
            .collect()
    }

    /// The partitions behind door `d` when arriving from partition `from`:
    /// `D2PA(d) \ {from}`. This is the `v_j ← D2PA(d_l) \ v_i` step of
    /// Algorithm 2 (ToE), generalised to doors connecting more than two
    /// partitions.
    pub fn partitions_behind(&self, d: DoorId, from: PartitionId) -> Vec<PartitionId> {
        self.d2p_enter(d)
            .iter()
            .copied()
            .filter(|&v| v != from)
            .collect()
    }

    // ------------------------------------------------------------------
    // Point location
    // ------------------------------------------------------------------

    /// `v(p)`: the host partition of an indoor point. Shared boundaries are
    /// resolved to the partition with the smallest identifier whose interior
    /// or boundary contains the point, interior matches taking precedence.
    pub fn host_partition(&self, p: &IndoorPoint) -> Result<PartitionId> {
        let (grid, ids) = self
            .grids
            .get(&p.floor)
            .ok_or(SpaceError::UnknownFloor(p.floor))?;
        grid.locate(&p.position)
            .map(|idx| ids[idx])
            .ok_or(SpaceError::PointOutsideVenue { floor: p.floor })
    }

    /// All partitions on a floor.
    pub fn partitions_on_floor(&self, floor: FloorId) -> Vec<PartitionId> {
        self.partitions
            .iter()
            .filter(|p| p.floor == floor)
            .map(|p| p.id)
            .collect()
    }

    /// All doors touching a floor (stair doors touch two floors).
    pub fn doors_on_floor(&self, floor: FloorId) -> Vec<DoorId> {
        self.doors
            .iter()
            .filter(|d| d.touches_floor(floor))
            .map(|d| d.id)
            .collect()
    }

    /// Staircase doors touching a floor (`SD(·)` in §IV-A).
    pub fn stair_doors_on_floor(&self, floor: FloorId) -> Vec<DoorId> {
        self.doors
            .iter()
            .filter(|d| d.kind.is_vertical() && d.touches_floor(floor))
            .map(|d| d.id)
            .collect()
    }

    // ------------------------------------------------------------------
    // Intra-partition distances of §II-A
    // ------------------------------------------------------------------

    /// Intra-partition walking distance between two distinct doors of
    /// partition `v`: the planar Euclidean distance unless the venue declared
    /// an override (stairways). Returns [`UNREACHABLE`] when either door does
    /// not belong to the partition in the required direction (enter through
    /// `di`, leave through `dj`).
    pub fn intra_door_distance(&self, v: PartitionId, di: DoorId, dj: DoorId) -> f64 {
        if di == dj {
            return self.loop_distance(di, v);
        }
        if !self.d2p_enter(di).contains(&v) || !self.d2p_leave(dj).contains(&v) {
            return UNREACHABLE;
        }
        self.intra_door_distance_unchecked(v, di, dj)
    }

    /// [`IndoorSpace::intra_door_distance`] without the topology membership
    /// re-check, for callers that already iterate `P2DA(v)` × `P2D@(v)`
    /// (the door-graph builder runs this once per potential edge).
    #[inline]
    pub(crate) fn intra_door_distance_unchecked(
        &self,
        v: PartitionId,
        di: DoorId,
        dj: DoorId,
    ) -> f64 {
        if !self.intra_overrides.is_empty() {
            if let Ok(i) = self
                .intra_overrides
                .binary_search_by(|&(pv, pa, pb, _)| (pv, pa, pb).cmp(&(v, di, dj)))
            {
                return self.intra_overrides[i].3;
            }
        }
        let a = &self.doors[di.index()];
        let b = &self.doors[dj.index()];
        a.planar_distance(b)
    }

    /// `δd2d(di, dj)` for distinct doors: the minimum intra-partition distance
    /// over all partitions in `D2PA(di) ∩ D2P@(dj)`, or [`UNREACHABLE`] when
    /// the intersection is empty. For `di == dj` use [`IndoorSpace::loop_distance`],
    /// which needs the pertinent partition.
    pub fn d2d_distance(&self, di: DoorId, dj: DoorId) -> f64 {
        if di == dj {
            // Without a partition context the tightest interpretation is the
            // smallest loop cost over the partitions the door serves.
            return self
                .d2p_enter(di)
                .iter()
                .map(|&v| self.loop_distance(di, v))
                .fold(UNREACHABLE, f64::min);
        }
        self.partitions_between(di, dj)
            .into_iter()
            .map(|v| self.intra_door_distance(v, di, dj))
            .fold(UNREACHABLE, f64::min)
    }

    /// Same-door loop cost `δd2d(d, d)` inside partition `v`: twice the
    /// longest non-loop distance reachable inside the partition from the door
    /// (§II-A), unless overridden by the venue.
    pub fn loop_distance(&self, d: DoorId, v: PartitionId) -> f64 {
        if !self.d2p_enter(d).contains(&v) || !self.d2p_leave(d).contains(&v) {
            return UNREACHABLE;
        }
        if let Ok(i) = self
            .loop_overrides
            .binary_search_by(|&(pv, pd, _)| (pv, pd).cmp(&(v, d)))
        {
            return self.loop_overrides[i].2;
        }
        let door = &self.doors[d.index()];
        let partition = &self.partitions[v.index()];
        2.0 * partition.farthest_distance_from(&door.position)
    }

    /// `δpt2d(p, d)`: intra-partition distance from point `p` to door `d`,
    /// finite iff `d ∈ P2D@(v(p))` (the door can be used to leave `p`'s host
    /// partition).
    pub fn pt2d_distance(&self, p: &IndoorPoint, d: DoorId) -> f64 {
        let Ok(host) = self.host_partition(p) else {
            return UNREACHABLE;
        };
        if !self.p2d_leave(host).contains(&d) {
            return UNREACHABLE;
        }
        self.doors[d.index()].position.distance(&p.position)
    }

    /// `δd2pt(d, p)`: intra-partition distance from door `d` to point `p`,
    /// finite iff `d ∈ P2DA(v(p))` (the door can be used to enter `p`'s host
    /// partition).
    pub fn d2pt_distance(&self, d: DoorId, p: &IndoorPoint) -> f64 {
        let Ok(host) = self.host_partition(p) else {
            return UNREACHABLE;
        };
        if !self.p2d_enter(host).contains(&d) {
            return UNREACHABLE;
        }
        self.doors[d.index()].position.distance(&p.position)
    }

    // ------------------------------------------------------------------
    // Derived distances
    // ------------------------------------------------------------------

    /// Shortest indoor (graph) distance between two points, i.e. the `δs2t`
    /// used by the workload generator of §V-A1. Returns [`UNREACHABLE`] when
    /// no route exists.
    pub fn point_to_point_distance(&self, a: &IndoorPoint, b: &IndoorPoint) -> f64 {
        let Ok(va) = self.host_partition(a) else {
            return UNREACHABLE;
        };
        let Ok(vb) = self.host_partition(b) else {
            return UNREACHABLE;
        };
        let mut best = if va == vb {
            a.position.distance(&b.position)
        } else {
            UNREACHABLE
        };
        let sp = self.shortest_paths();
        for &dl in self.p2d_leave(va) {
            let start_cost = self.pt2d_distance(a, dl);
            if !start_cost.is_finite() {
                continue;
            }
            let dij = sp.from_door(dl, &Default::default());
            for &de in self.p2d_enter(vb) {
                let end_cost = self.d2pt_distance(de, b);
                if !end_cost.is_finite() {
                    continue;
                }
                let mid = if dl == de { 0.0 } else { dij.distance(de) };
                if mid.is_finite() {
                    best = best.min(start_cost + mid + end_cost);
                }
            }
        }
        best
    }

    /// Skeleton lower bound `|a, b|_L` between two indoor points (§IV-A).
    pub fn skeleton_distance(&self, a: &IndoorPoint, b: &IndoorPoint) -> f64 {
        self.skeleton.lower_bound_points(a, b)
    }

    /// Skeleton lower bound between a point and a door.
    pub fn skeleton_point_to_door(&self, p: &IndoorPoint, d: DoorId) -> f64 {
        let door = &self.doors[d.index()];
        self.skeleton
            .lower_bound(p.position, &[p.floor], door.position, &door.floors())
    }

    /// Skeleton lower bound between two doors.
    pub fn skeleton_door_to_door(&self, a: DoorId, b: DoorId) -> f64 {
        let da = &self.doors[a.index()];
        let db = &self.doors[b.index()];
        self.skeleton
            .lower_bound(da.position, &da.floors(), db.position, &db.floors())
    }

    /// Lower bound of the distance of any route from `ps` through partition
    /// `v` to `pt` (the quantity of Pruning Rule 3):
    /// `min over di ∈ P2DA(v), dj ∈ P2D@(v) of |ps,di|_L + δd2d(di,dj) + |dj,pt|_L`.
    pub fn partition_detour_lower_bound(
        &self,
        ps: &IndoorPoint,
        v: PartitionId,
        pt: &IndoorPoint,
    ) -> f64 {
        let mut best = UNREACHABLE;
        for &di in self.p2d_enter(v) {
            let first = self.skeleton_point_to_door(ps, di);
            if !first.is_finite() {
                continue;
            }
            for &dj in self.p2d_leave(v) {
                let mid = self.intra_door_distance(v, di, dj);
                let last = self.skeleton_point_to_door(pt, dj);
                if mid.is_finite() && last.is_finite() {
                    best = best.min(first + mid + last);
                }
            }
        }
        best
    }

    /// Lower bound of the distance from door `dk`, through partition `v`, to
    /// point `pt` — the `δLB(dk, vj, pt)` used in line 11 of Algorithm 6.
    pub fn door_via_partition_lower_bound(
        &self,
        dk: DoorId,
        v: PartitionId,
        pt: &IndoorPoint,
    ) -> f64 {
        let mut best = UNREACHABLE;
        for &di in self.p2d_enter(v) {
            let first = self.skeleton_door_to_door(dk, di);
            if !first.is_finite() {
                continue;
            }
            for &dj in self.p2d_leave(v) {
                let mid = self.intra_door_distance(v, di, dj);
                let last = self.skeleton_point_to_door(pt, dj);
                if mid.is_finite() && last.is_finite() {
                    best = best.min(first + mid + last);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_geom::approx_eq;

    /// Builds a tiny two-room venue:
    ///
    /// ```text
    ///  +--------+--------+
    ///  |  v0    d0  v1   |
    ///  +--------+---d1---+   d1 leads outside v1 (exit only, one partition)
    /// ```
    fn two_rooms() -> IndoorSpace {
        let mut b = IndoorSpaceBuilder::new();
        let f = FloorId(0);
        b.add_floor(
            f,
            Rect::from_origin_size(Point::ORIGIN, 20.0, 10.0).unwrap(),
        );
        let v0 = b.add_partition(
            f,
            PartitionKind::Room,
            Rect::from_origin_size(Point::new(0.0, 0.0), 10.0, 10.0).unwrap(),
            Some("left".into()),
        );
        let v1 = b.add_partition(
            f,
            PartitionKind::Room,
            Rect::from_origin_size(Point::new(10.0, 0.0), 10.0, 10.0).unwrap(),
            Some("right".into()),
        );
        let d0 = b.add_door(Point::new(10.0, 5.0), f, DoorKind::Normal);
        b.connect_bidirectional(d0, v0, v1);
        let d1 = b.add_door(Point::new(15.0, 0.0), f, DoorKind::Normal);
        // d1 can only be used to leave v1 (a one-way exit).
        b.connect(d1, v1, false, true);
        b.build().unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let s = two_rooms();
        assert_eq!(s.num_partitions(), 2);
        assert_eq!(s.num_doors(), 2);
        assert_eq!(s.partitions()[0].id, PartitionId(0));
        assert_eq!(s.doors()[1].id, DoorId(1));
        assert_eq!(s.floors(), vec![FloorId(0)]);
        assert!(s.floor_bounds(FloorId(0)).is_ok());
        assert!(s.floor_bounds(FloorId(7)).is_err());
    }

    #[test]
    fn topology_mappings_respect_directionality() {
        let s = two_rooms();
        let (v0, v1) = (PartitionId(0), PartitionId(1));
        let (d0, d1) = (DoorId(0), DoorId(1));
        assert_eq!(s.d2p_enter(d0), &[v0, v1]);
        assert_eq!(s.d2p_leave(d0), &[v0, v1]);
        // d1 is exit-only from v1: it cannot be used to enter any partition.
        assert!(s.d2p_enter(d1).is_empty());
        assert_eq!(s.d2p_leave(d1), &[v1]);
        assert_eq!(s.p2d_enter(v1), &[d0]);
        assert_eq!(s.p2d_leave(v1), &[d0, d1]);
        // Moving from d0 (entering v1) to d1 (leaving v1) is possible.
        assert_eq!(s.partitions_between(d0, d1), vec![v1]);
        // The reverse is not.
        assert!(s.partitions_between(d1, d0).is_empty());
        assert_eq!(s.partitions_behind(d0, v0), vec![v1]);
    }

    #[test]
    fn host_partition_lookup() {
        let s = two_rooms();
        let p = IndoorPoint::from_xy(2.0, 2.0, FloorId(0));
        assert_eq!(s.host_partition(&p).unwrap(), PartitionId(0));
        let p = IndoorPoint::from_xy(15.0, 2.0, FloorId(0));
        assert_eq!(s.host_partition(&p).unwrap(), PartitionId(1));
        let outside = IndoorPoint::from_xy(200.0, 2.0, FloorId(0));
        assert!(s.host_partition(&outside).is_err());
        let wrong_floor = IndoorPoint::from_xy(2.0, 2.0, FloorId(5));
        assert!(matches!(
            s.host_partition(&wrong_floor),
            Err(SpaceError::UnknownFloor(_))
        ));
    }

    #[test]
    fn intra_partition_distances() {
        let s = two_rooms();
        let (d0, d1) = (DoorId(0), DoorId(1));
        let v1 = PartitionId(1);
        // Euclidean between (10,5) and (15,0).
        assert!(approx_eq(
            s.intra_door_distance(v1, d0, d1),
            50.0_f64.sqrt()
        ));
        assert!(approx_eq(s.d2d_distance(d0, d1), 50.0_f64.sqrt()));
        // Not allowed in the reverse direction (d1 cannot be entered through).
        assert!(!s.intra_door_distance(v1, d1, d0).is_finite());
        assert!(!s.d2d_distance(d1, d0).is_finite());
    }

    #[test]
    fn point_door_distances_respect_direction() {
        let s = two_rooms();
        let p_right = IndoorPoint::from_xy(12.0, 5.0, FloorId(0));
        // d1 leaves v1, so pt2d is finite ...
        assert!(approx_eq(
            s.pt2d_distance(&p_right, DoorId(1)),
            34.0_f64.sqrt()
        ));
        // ... but cannot be used to enter v1.
        assert!(!s.d2pt_distance(DoorId(1), &p_right).is_finite());
        // d0 can do both.
        assert!(approx_eq(s.pt2d_distance(&p_right, DoorId(0)), 2.0));
        assert!(approx_eq(s.d2pt_distance(DoorId(0), &p_right), 2.0));
        // A door that is not connected to the host partition is unreachable.
        let p_left = IndoorPoint::from_xy(2.0, 5.0, FloorId(0));
        assert!(!s.pt2d_distance(&p_left, DoorId(1)).is_finite());
    }

    #[test]
    fn loop_distance_is_double_farthest() {
        let s = two_rooms();
        // Loop at d0 inside v0: farthest corner of v0 from (10,5) is (0,0) or
        // (0,10), both at sqrt(125).
        let expected = 2.0 * 125.0_f64.sqrt();
        assert!(approx_eq(
            s.loop_distance(DoorId(0), PartitionId(0)),
            expected
        ));
        // d1 cannot loop through v1 because it is not enterable.
        assert!(!s.loop_distance(DoorId(1), PartitionId(1)).is_finite());
    }

    #[test]
    fn point_to_point_distance_same_and_different_partitions() {
        let s = two_rooms();
        let a = IndoorPoint::from_xy(2.0, 5.0, FloorId(0));
        let b = IndoorPoint::from_xy(8.0, 5.0, FloorId(0));
        assert!(approx_eq(s.point_to_point_distance(&a, &b), 6.0));
        let c = IndoorPoint::from_xy(14.0, 5.0, FloorId(0));
        // Through d0 at (10,5): 8 + 4.
        assert!(approx_eq(s.point_to_point_distance(&a, &c), 12.0));
    }

    #[test]
    fn build_rejects_disconnected_elements() {
        let mut b = IndoorSpaceBuilder::new();
        let f = FloorId(0);
        b.add_partition(
            f,
            PartitionKind::Room,
            Rect::from_origin_size(Point::ORIGIN, 5.0, 5.0).unwrap(),
            None,
        );
        assert!(matches!(
            b.build(),
            Err(SpaceError::DisconnectedPartition(_))
        ));

        let mut b = IndoorSpaceBuilder::new();
        let v = b.add_partition(
            f,
            PartitionKind::Room,
            Rect::from_origin_size(Point::ORIGIN, 5.0, 5.0).unwrap(),
            None,
        );
        let d = b.add_door(Point::new(5.0, 2.5), f, DoorKind::Normal);
        b.connect(d, v, true, true);
        b.add_door(Point::new(0.0, 2.5), f, DoorKind::Normal);
        assert!(matches!(b.build(), Err(SpaceError::DisconnectedDoor(_))));
    }

    #[test]
    fn build_rejects_floor_mismatch_and_bad_ids() {
        let f = FloorId(0);
        let mut b = IndoorSpaceBuilder::new();
        let v = b.add_partition(
            FloorId(3),
            PartitionKind::Room,
            Rect::from_origin_size(Point::ORIGIN, 5.0, 5.0).unwrap(),
            None,
        );
        let d = b.add_door(Point::new(5.0, 2.5), f, DoorKind::Normal);
        b.connect(d, v, true, true);
        assert!(matches!(b.build(), Err(SpaceError::FloorMismatch { .. })));

        let mut b = IndoorSpaceBuilder::new();
        let v = b.add_partition(
            f,
            PartitionKind::Room,
            Rect::from_origin_size(Point::ORIGIN, 5.0, 5.0).unwrap(),
            None,
        );
        b.connect(DoorId(42), v, true, true);
        assert!(matches!(b.build(), Err(SpaceError::UnknownDoor(_))));

        assert!(matches!(
            IndoorSpaceBuilder::new().build(),
            Err(SpaceError::EmptySpace)
        ));
    }

    #[test]
    fn build_rejects_dangling_override_endpoints() {
        let f = FloorId(0);
        let with_rooms = || {
            let mut b = IndoorSpaceBuilder::new();
            let v0 = b.add_partition(
                f,
                PartitionKind::Room,
                Rect::from_origin_size(Point::ORIGIN, 10.0, 10.0).unwrap(),
                None,
            );
            let v1 = b.add_partition(
                f,
                PartitionKind::Room,
                Rect::from_origin_size(Point::new(10.0, 0.0), 10.0, 10.0).unwrap(),
                None,
            );
            let d = b.add_door(Point::new(10.0, 5.0), f, DoorKind::Normal);
            b.connect_bidirectional(d, v0, v1);
            (b, v0, d)
        };

        let (mut b, _, d) = with_rooms();
        b.set_intra_distance(PartitionId(42), d, d, 3.0);
        assert!(matches!(b.build(), Err(SpaceError::UnknownPartition(_))));

        let (mut b, v0, d) = with_rooms();
        b.set_intra_distance(v0, d, DoorId(42), 3.0);
        assert!(matches!(b.build(), Err(SpaceError::UnknownDoor(_))));

        let (mut b, _, d) = with_rooms();
        b.set_loop_distance(PartitionId(42), d, 3.0);
        assert!(matches!(b.build(), Err(SpaceError::UnknownPartition(_))));

        let (mut b, v0, _) = with_rooms();
        b.set_loop_distance(v0, DoorId(42), 3.0);
        assert!(matches!(b.build(), Err(SpaceError::UnknownDoor(_))));
    }

    #[test]
    fn builder_and_adoption_reject_nan_and_negative_override_distances() {
        let s = two_rooms();
        let (v1, d0, d1) = (PartitionId(1), DoorId(0), DoorId(1));
        let with_overrides = |intra: f64, looped: f64| {
            let mut b = IndoorSpaceBuilder::new();
            let f = FloorId(0);
            for x in [0.0, 10.0] {
                let footprint = Rect::from_origin_size(Point::new(x, 0.0), 10.0, 10.0).unwrap();
                b.add_partition(f, PartitionKind::Room, footprint, None);
            }
            b.add_door(Point::new(10.0, 5.0), f, DoorKind::Normal);
            b.connect_bidirectional(d0, PartitionId(0), v1);
            b.add_door(Point::new(15.0, 0.0), f, DoorKind::Normal);
            b.connect(d1, v1, false, true);
            b.set_intra_distance(v1, d0, d1, intra);
            b.set_loop_distance(v1, d0, looped);
            b.build()
        };
        let adopt = |intra: f64, looped: f64| {
            let mut cols = SpaceColumns::capture(&s, 25.0);
            cols.intra_overrides = vec![(v1, d0, d1, intra), (v1, d1, d0, intra)];
            cols.loop_overrides = vec![(v1, d0, looped)];
            IndoorSpace::adopt_columns(cols)
        };
        for bad in [-1.0, f64::NAN] {
            for result in [
                with_overrides(bad, 1.0),
                with_overrides(1.0, bad),
                adopt(bad, 1.0),
                adopt(1.0, bad),
            ] {
                match result {
                    Err(SpaceError::InvalidConfig(message)) => {
                        assert!(message.contains("override"), "{message}")
                    }
                    other => panic!("override {bad} was accepted: {other:?}"),
                }
            }
        }
        for good in [0.0, f64::INFINITY] {
            with_overrides(good, good).unwrap();
            adopt(good, good).unwrap();
        }
        // +∞ marks the pair impassable: the door graph drops the edge.
        let closed = with_overrides(f64::INFINITY, 0.0).unwrap();
        assert!(closed.door_graph().edge_between(d0, d1).is_none());
    }

    #[test]
    fn adopted_columns_reproduce_the_built_space() {
        let s = two_rooms();
        let adopted = IndoorSpace::adopt_columns(SpaceColumns::capture(&s, 25.0)).unwrap();
        assert_eq!(adopted.num_partitions(), s.num_partitions());
        assert_eq!(adopted.num_doors(), s.num_doors());
        assert_eq!(adopted.floors(), s.floors());
        assert_eq!(adopted.d2p_enter(DoorId(0)), s.d2p_enter(DoorId(0)));
        assert_eq!(
            adopted.p2d_leave(PartitionId(1)),
            s.p2d_leave(PartitionId(1))
        );
        assert_eq!(adopted.door_graph().num_edges(), s.door_graph().num_edges());
        let v1 = PartitionId(1);
        assert!(approx_eq(
            adopted.intra_door_distance(v1, DoorId(0), DoorId(1)),
            s.intra_door_distance(v1, DoorId(0), DoorId(1))
        ));
        let p = IndoorPoint::from_xy(15.0, 2.0, FloorId(0));
        assert_eq!(
            adopted.host_partition(&p).unwrap(),
            s.host_partition(&p).unwrap()
        );
        let a = IndoorPoint::from_xy(2.0, 5.0, FloorId(0));
        let c = IndoorPoint::from_xy(14.0, 5.0, FloorId(0));
        assert!(approx_eq(
            adopted.point_to_point_distance(&a, &c),
            s.point_to_point_distance(&a, &c)
        ));
    }

    #[test]
    fn adopt_columns_rejects_structural_defects() {
        let s = two_rooms();
        let capture = || SpaceColumns::capture(&s, 25.0);

        let mut cols = capture();
        cols.partitions.clear();
        assert!(matches!(
            IndoorSpace::adopt_columns(cols),
            Err(SpaceError::EmptySpace)
        ));

        let mut cols = capture();
        cols.partitions[1].id = PartitionId(7);
        assert!(matches!(
            IndoorSpace::adopt_columns(cols),
            Err(SpaceError::InvalidConfig(_))
        ));

        let mut cols = capture();
        cols.d2p_enter = Csr::from_pairs(s.num_doors(), vec![(0, PartitionId(99))]);
        assert!(matches!(
            IndoorSpace::adopt_columns(cols),
            Err(SpaceError::UnknownPartition(PartitionId(99)))
        ));

        let mut cols = capture();
        cols.p2d_enter = Csr::from_pairs(1, vec![(0, DoorId(0))]);
        assert!(matches!(
            IndoorSpace::adopt_columns(cols),
            Err(SpaceError::InvalidConfig(_))
        ));

        let mut cols = capture();
        cols.intra_overrides = vec![(PartitionId(0), DoorId(0), DoorId(42), 1.0)];
        assert!(matches!(
            IndoorSpace::adopt_columns(cols),
            Err(SpaceError::UnknownDoor(DoorId(42)))
        ));

        let mut cols = capture();
        cols.loop_overrides = vec![
            (PartitionId(1), DoorId(0), 1.0),
            (PartitionId(0), DoorId(0), 1.0),
        ];
        assert!(matches!(
            IndoorSpace::adopt_columns(cols),
            Err(SpaceError::InvalidConfig(_))
        ));

        let mut cols = capture();
        cols.door_graph = DoorGraph::empty();
        assert!(matches!(
            IndoorSpace::adopt_columns(cols),
            Err(SpaceError::InvalidConfig(_))
        ));
    }

    #[test]
    fn stats_and_floor_listings() {
        let s = two_rooms();
        assert_eq!(s.partitions_on_floor(FloorId(0)).len(), 2);
        assert_eq!(s.doors_on_floor(FloorId(0)).len(), 2);
        assert!(s.stair_doors_on_floor(FloorId(0)).is_empty());
        let stats = s.stats();
        assert_eq!(stats.partitions, 2);
        assert_eq!(stats.doors, 2);
        assert_eq!(stats.floors, 1);
    }
}
