//! Search stamps: the five-tuple `S(v, R, δ, ρ, ψ)` of Algorithm 1.

use indoor_geom::OrderedF64;
use indoor_keywords::CoverageTracker;
use indoor_space::{PartitionId, Route};
use std::cmp::Ordering;

/// A search stamp: a partial (or complete) route together with the partition
/// it last reached and its accumulated distance, keyword coverage, keyword
/// relevance and ranking score.
///
/// A stamp also carries its route's key-partition sequence `KP(R)`, built
/// from its parent's when the stamp is created, so the prime check and
/// update of Pruning Rule 5 never walk the route.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// The last partition the route reaches (`v` in the paper's tuple).
    pub partition: PartitionId,
    /// The route expanded so far (`R`).
    pub route: Route,
    /// The key-partition sequence `KP(R)` of the route: equal to
    /// [`crate::SearchContext::key_partition_sequence`] of `route`, kept up
    /// to date with [`push_key_partition`] as items are appended.
    pub(crate) key_partitions: Vec<PartitionId>,
    /// Route distance `δ(R)`, accumulated incrementally.
    pub distance: f64,
    /// Incremental keyword coverage of the route (drives `ρ`).
    pub coverage: CoverageTracker,
    /// Keyword relevance `ρ(R)`.
    pub relevance: f64,
    /// Ranking score `ψ(R)`.
    pub score: f64,
}

impl Stamp {
    /// Estimated heap size in bytes, for the engine's memory accounting.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.route.estimated_bytes()
            + self.key_partitions.capacity() * std::mem::size_of::<PartitionId>()
            + self.coverage.estimated_bytes()
    }
}

/// Appends an occurrence of key partition `v` to a key-partition sequence.
/// An earlier occurrence is removed first, so each key partition appears
/// once, at its last occurrence, as in
/// [`crate::SearchContext::key_partition_sequence`].
pub(crate) fn push_key_partition(sequence: &mut Vec<PartitionId>, v: PartitionId) {
    if let Some(at) = sequence.iter().position(|&u| u == v) {
        sequence.remove(at);
    }
    sequence.push(v);
}

/// Ordering wrapper: the priority queue of Algorithm 1 pops the stamp with
/// the highest ranking score first; ties broken by smaller distance so that
/// shorter prefixes are explored first.
#[derive(Debug, Clone)]
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

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::{FloorId, IndoorPoint};
    use std::collections::BinaryHeap;

    fn stamp(score: f64, distance: f64) -> StampOrder {
        StampOrder(Stamp {
            partition: PartitionId(0),
            route: Route::from_point(IndoorPoint::from_xy(0.0, 0.0, FloorId(0))),
            key_partitions: vec![PartitionId(0)],
            distance,
            coverage: CoverageTracker::new(2),
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
        assert!(stamp(0.1, 1.0).0.estimated_bytes() > 0);
    }

    #[test]
    fn a_pushed_key_partition_moves_to_its_last_occurrence() {
        let ids = |s: &[u32]| s.iter().map(|&i| PartitionId(i)).collect::<Vec<_>>();
        let mut seq = ids(&[1]);
        push_key_partition(&mut seq, PartitionId(2));
        push_key_partition(&mut seq, PartitionId(3));
        assert_eq!(seq, ids(&[1, 2, 3]));
        push_key_partition(&mut seq, PartitionId(1));
        assert_eq!(seq, ids(&[2, 3, 1]));
        push_key_partition(&mut seq, PartitionId(1));
        assert_eq!(seq, ids(&[2, 3, 1]));
    }
}
