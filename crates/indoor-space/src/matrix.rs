//! All-pairs door-to-door shortest distance matrix.
//!
//! The paper's workload generator (§V-A1) relies on a "precomputed
//! door-to-door matrix" to pick terminal points at a controlled indoor
//! distance `δs2t` from the start point, and its KoE* variant (§V)
//! precomputes the shortest route between any two doors. [`DoorMatrix`]
//! provides both eagerly: distances, and optional predecessor storage for
//! path reconstruction. It costs `O(doors²)`, so it serves small venues,
//! tests and benchmarks. The query generator (`indoor-data`) and KoE*
//! (`ikrq-core`) compute only the rows they use.

use crate::ids::{DoorId, PartitionId};
use crate::shortest_path::ShortestPaths;
use crate::space::IndoorSpace;
use crate::UNREACHABLE;
use std::collections::HashSet;

/// All-pairs door distances, with optional path (predecessor) storage.
#[derive(Debug, Clone)]
pub struct DoorMatrix {
    n: usize,
    dist: Vec<f64>,
    /// Predecessor door and connecting partition on the shortest path from
    /// `src` to each door; only populated when paths are requested.
    prev: Option<Vec<Option<(DoorId, PartitionId)>>>,
}

impl DoorMatrix {
    /// Builds the distance-only matrix.
    pub fn build(space: &IndoorSpace) -> Self {
        Self::build_inner(space, false)
    }

    /// Builds the matrix including predecessors for path reconstruction
    /// (roughly doubles the memory footprint).
    pub fn build_with_paths(space: &IndoorSpace) -> Self {
        Self::build_inner(space, true)
    }

    fn build_inner(space: &IndoorSpace, with_paths: bool) -> Self {
        let n = space.num_doors();
        let sp = ShortestPaths::new(space);
        let empty = HashSet::new();
        let mut dist = vec![UNREACHABLE; n * n];
        let mut prev = if with_paths {
            Some(vec![None; n * n])
        } else {
            None
        };
        for src in 0..n {
            let result = sp.from_door(DoorId(src as u32), &empty);
            dist[src * n..(src + 1) * n].copy_from_slice(result.distances());
            if let Some(prev) = prev.as_mut() {
                for dst in 0..n {
                    if let Some((mut doors, mut parts)) = result.path_to(DoorId(dst as u32)) {
                        // Predecessor of dst on the path from src.
                        if doors.len() >= 2 {
                            let p = doors[doors.len() - 2];
                            let via = parts.pop().expect("non-empty partition list");
                            prev[src * n + dst] = Some((p, via));
                        }
                        doors.clear();
                    }
                }
            }
        }
        DoorMatrix { n, dist, prev }
    }

    /// Number of doors covered by the matrix.
    pub fn num_doors(&self) -> usize {
        self.n
    }

    /// Whether predecessor paths were precomputed.
    pub fn has_paths(&self) -> bool {
        self.prev.is_some()
    }

    /// Shortest distance between two doors ignoring any regularity
    /// constraints.
    pub fn distance(&self, from: DoorId, to: DoorId) -> f64 {
        if from.index() >= self.n || to.index() >= self.n {
            return UNREACHABLE;
        }
        self.dist[from.index() * self.n + to.index()]
    }

    /// Reconstructs the precomputed shortest path from `from` to `to` as
    /// `(doors, partitions)`. Requires [`DoorMatrix::build_with_paths`].
    pub fn path(&self, from: DoorId, to: DoorId) -> Option<(Vec<DoorId>, Vec<PartitionId>)> {
        let prev = self.prev.as_ref()?;
        if from.index() >= self.n || to.index() >= self.n {
            return None;
        }
        if from == to {
            return Some((vec![from], Vec::new()));
        }
        if !self.distance(from, to).is_finite() {
            return None;
        }
        let mut doors = vec![to];
        let mut parts = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, via) = prev[from.index() * self.n + cur.index()]?;
            doors.push(p);
            parts.push(via);
            cur = p;
        }
        doors.reverse();
        parts.reverse();
        Some((doors, parts))
    }

    /// Doors whose shortest distance from `from` is closest to `target`
    /// metres; used by the workload generator to pick a door `d'` whose
    /// distance to `ps` approximates `δs2t` (step 2 of §V-A1).
    pub fn doors_near_distance(&self, from: DoorId, target: f64, count: usize) -> Vec<DoorId> {
        let mut candidates: Vec<(f64, DoorId)> = (0..self.n)
            .filter_map(|i| {
                let d = self.dist[from.index() * self.n + i];
                d.is_finite()
                    .then(|| ((d - target).abs(), DoorId(i as u32)))
            })
            .collect();
        candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        candidates.into_iter().take(count).map(|(_, d)| d).collect()
    }

    /// Estimated heap size in bytes.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.dist.capacity() * std::mem::size_of::<f64>()
            + self
                .prev
                .as_ref()
                .map(|p| p.capacity() * std::mem::size_of::<Option<(DoorId, PartitionId)>>())
                .unwrap_or(0)
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

    fn corridor(n: usize) -> IndoorSpace {
        let mut b = IndoorSpaceBuilder::new();
        let f = FloorId(0);
        let rooms: Vec<_> = (0..n)
            .map(|i| {
                b.add_partition(
                    f,
                    PartitionKind::Room,
                    Rect::from_origin_size(Point::new(i as f64 * 10.0, 0.0), 10.0, 10.0).unwrap(),
                    None,
                )
            })
            .collect();
        for i in 0..n - 1 {
            let d = b.add_door(Point::new((i + 1) as f64 * 10.0, 5.0), f, DoorKind::Normal);
            b.connect_bidirectional(d, rooms[i], rooms[i + 1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn distances_match_dijkstra() {
        let s = corridor(5);
        let m = DoorMatrix::build(&s);
        assert_eq!(m.num_doors(), 4);
        assert!(!m.has_paths());
        assert!(approx_eq(m.distance(DoorId(0), DoorId(3)), 30.0));
        assert!(approx_eq(m.distance(DoorId(3), DoorId(0)), 30.0));
        assert!(approx_eq(m.distance(DoorId(2), DoorId(2)), 0.0));
        assert!(!m.distance(DoorId(0), DoorId(99)).is_finite());
    }

    #[test]
    fn paths_reconstruct_in_order() {
        let s = corridor(5);
        let m = DoorMatrix::build_with_paths(&s);
        assert!(m.has_paths());
        let (doors, parts) = m.path(DoorId(0), DoorId(3)).unwrap();
        assert_eq!(doors, vec![DoorId(0), DoorId(1), DoorId(2), DoorId(3)]);
        assert_eq!(parts.len(), 3);
        let (doors, parts) = m.path(DoorId(2), DoorId(2)).unwrap();
        assert_eq!(doors, vec![DoorId(2)]);
        assert!(parts.is_empty());
        assert!(m.path(DoorId(0), DoorId(99)).is_none());
    }

    #[test]
    fn doors_near_distance_picks_closest() {
        let s = corridor(6);
        let m = DoorMatrix::build(&s);
        let near = m.doors_near_distance(DoorId(0), 20.0, 1);
        assert_eq!(near, vec![DoorId(2)]);
        let near = m.doors_near_distance(DoorId(0), 20.0, 3);
        assert_eq!(near.len(), 3);
        assert!(near.contains(&DoorId(2)));
    }

    #[test]
    fn distance_only_matrix_has_no_paths() {
        let s = corridor(3);
        let m = DoorMatrix::build(&s);
        assert!(m.path(DoorId(0), DoorId(1)).is_none());
        assert!(m.estimated_bytes() > 0);
        let mp = DoorMatrix::build_with_paths(&s);
        assert!(mp.estimated_bytes() > m.estimated_bytes());
    }
}
