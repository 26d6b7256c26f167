//! The directed door connectivity graph derived from an [`IndoorSpace`].
//!
//! Nodes are doors. A directed edge `di → dj` labelled with partition `v`
//! exists when one can enter `v` through `di` and leave it through `dj`
//! (`v ∈ D2PA(di) ∩ D2P@(dj)` and `di ≠ dj`), weighted with the
//! intra-partition walking distance. Same-door loops are *not* edges of the
//! graph — they never shorten a path — and are handled at the route level by
//! the search algorithms (Lemma 2 of the paper).

use crate::ids::{DoorId, PartitionId};
use crate::space::IndoorSpace;
use serde::{Deserialize, Serialize};

/// One outgoing edge of the door graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DoorGraphEdge {
    /// Destination door.
    pub to: DoorId,
    /// The partition traversed between the two doors.
    pub via: PartitionId,
    /// Intra-partition walking distance in metres.
    pub weight: f64,
}

/// Directed weighted graph over doors in CSR form: one flat edge array plus
/// `n + 1` offsets, instead of one heap-allocated `Vec` per door. Dijkstra's
/// relaxation loop walks `edges_from` for every popped node; the flat layout
/// keeps those reads cache-linear and the build free of per-node allocations.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DoorGraph {
    /// `n + 1` positions into `edges`; door `i`'s outgoing edges are
    /// `edges[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// All edges, grouped by source door, each group sorted by `(to, via)`.
    edges: Vec<DoorGraphEdge>,
}

impl DoorGraph {
    /// An empty graph (used as a placeholder while the space is being built).
    pub fn empty() -> Self {
        DoorGraph::default()
    }

    /// Builds the graph from the topology and distances of `space`.
    pub fn build(space: &IndoorSpace) -> Self {
        let n = space.num_doors();
        // Collect `(from, edge)` pairs flat, then one sort groups them by
        // source and orders every neighbour list by destination then
        // partition — the same deterministic order as the old per-node sort.
        let mut flat: Vec<(DoorId, DoorGraphEdge)> = Vec::new();
        for partition in space.partitions() {
            let v = partition.id;
            for &di in space.p2d_enter(v) {
                for &dj in space.p2d_leave(v) {
                    if di == dj {
                        continue;
                    }
                    let weight = space.intra_door_distance_unchecked(v, di, dj);
                    if !weight.is_finite() {
                        continue;
                    }
                    flat.push((
                        di,
                        DoorGraphEdge {
                            to: dj,
                            via: v,
                            weight,
                        },
                    ));
                }
            }
        }
        flat.sort_unstable_by_key(|(from, e)| (*from, e.to, e.via));
        let mut offsets = vec![0u32; n + 1];
        for (from, _) in &flat {
            offsets[from.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let edges = flat.into_iter().map(|(_, e)| e).collect();
        DoorGraph { offsets, edges }
    }

    /// Adopts an already-flat graph (e.g. decoded from a columnar venue file)
    /// after validating its shape and value ranges, so venue loaders can skip
    /// the `O(P · d²)` rebuild entirely. Returns a human-readable reason on
    /// any inconsistency so callers can degrade to a rebuild.
    pub fn from_flat(
        num_doors: usize,
        num_partitions: usize,
        offsets: Vec<u32>,
        edges: Vec<DoorGraphEdge>,
    ) -> std::result::Result<Self, String> {
        if offsets.len() != num_doors + 1 {
            return Err(format!(
                "door graph offset table has {} entries for {} doors",
                offsets.len(),
                num_doors
            ));
        }
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("door graph offsets are not monotone from 0".to_string());
        }
        if offsets[num_doors] as usize != edges.len() {
            return Err(format!(
                "door graph offsets end at {} but {} edges are stored",
                offsets[num_doors],
                edges.len()
            ));
        }
        for e in &edges {
            if e.to.index() >= num_doors {
                return Err(format!("door graph edge targets unknown door {}", e.to));
            }
            if e.via.index() >= num_partitions {
                return Err(format!(
                    "door graph edge crosses unknown partition {}",
                    e.via
                ));
            }
            if !e.weight.is_finite() || e.weight < 0.0 {
                return Err(format!(
                    "door graph edge has an unusable weight {}",
                    e.weight
                ));
            }
        }
        Ok(DoorGraph { offsets, edges })
    }

    /// The `n + 1` offset table, exposed so persistence layers can write the
    /// graph as flat columns.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// All edges, grouped by source door.
    pub fn edges(&self) -> &[DoorGraphEdge] {
        &self.edges
    }

    /// Number of door nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Outgoing edges of a door.
    #[inline]
    pub fn edges_from(&self, d: DoorId) -> &[DoorGraphEdge] {
        let i = d.index();
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&a), Some(&b)) => &self.edges[a as usize..b as usize],
            _ => &[],
        }
    }

    /// The cheapest edge from `from` to `to`, if any.
    pub fn edge_between(&self, from: DoorId, to: DoorId) -> Option<&DoorGraphEdge> {
        self.edges_from(from)
            .iter()
            .filter(|e| e.to == to)
            .min_by(|a, b| {
                a.weight
                    .partial_cmp(&b.weight)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Estimated heap size in bytes, used by the engine's memory accounting.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.edges.capacity() * std::mem::size_of::<DoorGraphEdge>()
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

    /// Three rooms in a row: v0 -d0- v1 -d1- v2, plus a one-way exit d2 from v2 to v0.
    fn corridor() -> IndoorSpace {
        let mut b = IndoorSpaceBuilder::new();
        let f = FloorId(0);
        let mut rooms = Vec::new();
        for i in 0..3 {
            rooms.push(b.add_partition(
                f,
                PartitionKind::Room,
                Rect::from_origin_size(Point::new(i as f64 * 10.0, 0.0), 10.0, 10.0).unwrap(),
                None,
            ));
        }
        let d0 = b.add_door(Point::new(10.0, 5.0), f, DoorKind::Normal);
        b.connect_bidirectional(d0, rooms[0], rooms[1]);
        let d1 = b.add_door(Point::new(20.0, 5.0), f, DoorKind::Normal);
        b.connect_bidirectional(d1, rooms[1], rooms[2]);
        // A one-way door from v2 into v0 (can enter v0, can leave v2).
        let d2 = b.add_door(Point::new(0.0, 0.0), f, DoorKind::Normal);
        b.connect(d2, rooms[2], false, true);
        b.connect(d2, rooms[0], true, false);
        b.build().unwrap()
    }

    #[test]
    fn graph_edges_follow_topology() {
        let s = corridor();
        let g = s.door_graph();
        assert_eq!(g.num_nodes(), 3);
        // d0 enters v0 or v1; from v1 it can leave via d1: edge d0->d1.
        let e = g.edge_between(DoorId(0), DoorId(1)).unwrap();
        assert_eq!(e.via, PartitionId(1));
        assert!(approx_eq(e.weight, 10.0));
        // d1 enters v2, leaves via d2 (the one-way exit): edge d1->d2.
        assert!(g.edge_between(DoorId(1), DoorId(2)).is_some());
        // d2 only *enters* v0, and v0's only leavable door is d0: edge d2->d0.
        let e = g.edge_between(DoorId(2), DoorId(0)).unwrap();
        assert_eq!(e.via, PartitionId(0));
        // No edge d0 -> d2 in the reverse direction through v0 (d2 is not leavable from v0).
        assert!(g.edge_between(DoorId(0), DoorId(2)).map(|e| e.via) != Some(PartitionId(0)));
        assert!(g.num_edges() >= 4);
        assert!(g.estimated_bytes() > 0);
    }

    #[test]
    fn edges_are_sorted_and_bounds_safe() {
        let s = corridor();
        let g = s.door_graph();
        let edges = g.edges_from(DoorId(0));
        let mut sorted = edges.to_vec();
        sorted.sort_by_key(|e| (e.to, e.via));
        assert_eq!(edges, sorted.as_slice());
        assert!(g.edges_from(DoorId(99)).is_empty());
        assert!(g.edge_between(DoorId(0), DoorId(99)).is_none());
    }

    #[test]
    fn empty_graph() {
        let g = DoorGraph::empty();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn from_flat_round_trips_and_rejects_bad_shapes() {
        let s = corridor();
        let g = s.door_graph();
        let back = DoorGraph::from_flat(
            s.num_doors(),
            s.num_partitions(),
            g.offsets().to_vec(),
            g.edges().to_vec(),
        )
        .unwrap();
        assert_eq!(back.num_edges(), g.num_edges());
        assert_eq!(back.edges_from(DoorId(0)), g.edges_from(DoorId(0)));

        // Wrong offset length, dangling door, dangling partition, bad weight.
        assert!(DoorGraph::from_flat(
            1,
            s.num_partitions(),
            g.offsets().to_vec(),
            g.edges().to_vec()
        )
        .is_err());
        let mut edges = g.edges().to_vec();
        edges[0].to = DoorId(99);
        assert!(DoorGraph::from_flat(
            s.num_doors(),
            s.num_partitions(),
            g.offsets().to_vec(),
            edges
        )
        .is_err());
        let mut edges = g.edges().to_vec();
        edges[0].via = PartitionId(99);
        assert!(DoorGraph::from_flat(
            s.num_doors(),
            s.num_partitions(),
            g.offsets().to_vec(),
            edges
        )
        .is_err());
        for weight in [f64::INFINITY, f64::NAN, -1.0] {
            let mut edges = g.edges().to_vec();
            edges[0].weight = weight;
            assert!(DoorGraph::from_flat(
                s.num_doors(),
                s.num_partitions(),
                g.offsets().to_vec(),
                edges
            )
            .is_err());
        }
    }
}
