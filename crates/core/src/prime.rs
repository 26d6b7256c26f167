//! The prime-route hash table `Hprime` and the `prime_check` /
//! `prime_update` functions (Algorithms 3 and 4).
//!
//! Two routes are *homogeneous* when they share head, tail and key-partition
//! sequence (Definition 2); among homogeneous routes only the shortest — the
//! *prime* route (Definition 3) — may survive. During the search all expanded
//! routes share the head `ps`, so the homogeneity key is the pair
//! `(R.tail, KP(R))`, which this module encodes into a compact byte string.
//!
//! The search probes the table once per decision: [`PrimeTable::check`]
//! for a popped stamp, which is already recorded, and
//! [`PrimeTable::admit`] — check and update in one probe — for a child
//! before it is built and for a complete route. Stamps carry their `KP(R)`,
//! so a probe costs one encoding into a reused buffer and one hash lookup;
//! only a new entry allocates its key.

use bytes::{BufMut, Bytes};
use indoor_space::{DoorId, PartitionId};
use std::collections::HashMap;

/// Tolerance when comparing route distances: a route is only considered
/// *prime against* another when it is strictly shorter by more than this
/// epsilon. In particular a route never prunes itself when its own distance
/// was already recorded (the paper's pseudocode uses a strict `>`
/// comparison in both Algorithm 3 and 4, which taken literally would prune
/// the very route that created the entry; pinned by
/// `tests::equal_distance_does_not_prune`).
const DISTANCE_EPSILON: f64 = 1e-9;

/// Encodes the compact homogeneity key into `buf`: tail item plus
/// key-partition sequence.
///
/// Definition 2 compares routes by head, tail and key-partition sequence.
/// During the search every route shares the head `ps`, so the key reduces to
/// the tail and `KP(R)`. The tail of a *partial* route is its last door
/// (`Some(door)`); every *complete* route ends at the terminal point `pt`, so
/// complete routes pass `None` and are compared against each other purely by
/// their key-partition sequences — a partial route never shadows its own
/// completion.
fn encode_key(buf: &mut Vec<u8>, tail: Option<DoorId>, key_partitions: &[PartitionId]) {
    buf.clear();
    buf.put_u32_le(tail.map(|d| d.0 + 1).unwrap_or(0));
    for v in key_partitions {
        buf.put_u32_le(v.0);
    }
}

/// The prime-route table `Hprime`: for every homogeneity class seen so far,
/// the distance of the shortest (prime) representative.
///
/// Keys are stored as [`Bytes`] and looked up by the borrowed `&[u8]`
/// encoding, which [`PrimeTable::check`] and [`PrimeTable::admit`] write
/// into one buffer the table reuses.
#[derive(Debug, Clone, Default)]
pub struct PrimeTable {
    entries: HashMap<Bytes, f64>,
    approx_bytes: usize,
    key_buf: Vec<u8>,
}

impl PrimeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PrimeTable::default()
    }

    /// `prime_check` (Algorithm 3): returns `true` when a route with tail
    /// `tail`, key partitions `key_partitions` and distance `distance` is (so
    /// far) prime — i.e. no strictly shorter homogeneous route has been
    /// recorded — and `false` when it should be pruned by Pruning Rule 5.
    /// Takes `&mut self` only to reuse the table's key buffer.
    pub fn check(
        &mut self,
        tail: Option<DoorId>,
        key_partitions: &[PartitionId],
        distance: f64,
    ) -> bool {
        encode_key(&mut self.key_buf, tail, key_partitions);
        match self.entries.get(self.key_buf.as_slice()) {
            None => true,
            Some(&best) => best + DISTANCE_EPSILON >= distance,
        }
    }

    /// `prime_check` and `prime_update` (Algorithms 3 and 4) in one probe:
    /// returns what [`PrimeTable::check`] would, and records `distance` as
    /// the class's prime distance when the class is new or `distance`
    /// improves on it. A rejected route never improves its class, so it
    /// records nothing.
    pub fn admit(
        &mut self,
        tail: Option<DoorId>,
        key_partitions: &[PartitionId],
        distance: f64,
    ) -> bool {
        encode_key(&mut self.key_buf, tail, key_partitions);
        match self.entries.get_mut(self.key_buf.as_slice()) {
            None => {
                // Per-entry overhead: key bytes + value + hash-map slot.
                self.approx_bytes += self.key_buf.len() + std::mem::size_of::<(Bytes, f64)>() + 16;
                self.entries
                    .insert(Bytes::copy_from_slice(&self.key_buf), distance);
                true
            }
            Some(best) => {
                let prime = *best + DISTANCE_EPSILON >= distance;
                if distance < *best {
                    *best = distance;
                }
                prime
            }
        }
    }

    /// Number of homogeneity classes recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimated heap size in bytes (used for the memory metric); maintained
    /// incrementally so sampling it every iteration is O(1).
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.approx_bytes + self.key_buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn kp(ids: &[u32]) -> Vec<PartitionId> {
        ids.iter().map(|&i| PartitionId(i)).collect()
    }

    #[test]
    fn fresh_class_is_prime() {
        let mut t = PrimeTable::new();
        assert!(t.check(Some(DoorId(5)), &kp(&[1, 2, 3]), 12.5));
        assert!(t.is_empty());
    }

    #[test]
    fn shorter_homogeneous_route_prunes_longer_one() {
        let mut t = PrimeTable::new();
        assert!(t.admit(Some(DoorId(5)), &kp(&[1, 2]), 12.5));
        // Example 8: R3* = (ps,d2,d5) with 12.5 m is prime against
        // R4* = (ps,d3,d5,d5) with 23.2 m, so the latter fails the check.
        assert!(!t.check(Some(DoorId(5)), &kp(&[1, 2]), 23.2));
        // The shorter route itself still passes (it is the recorded one).
        assert!(t.check(Some(DoorId(5)), &kp(&[1, 2]), 12.5));
        // An even shorter homogeneous route passes and improves the entry.
        assert!(t.check(Some(DoorId(5)), &kp(&[1, 2]), 10.0));
        assert!(t.admit(Some(DoorId(5)), &kp(&[1, 2]), 10.0));
        assert!(!t.check(Some(DoorId(5)), &kp(&[1, 2]), 12.5));
        assert!(!t.admit(Some(DoorId(5)), &kp(&[1, 2]), 11.0));
        assert!(t.check(Some(DoorId(5)), &kp(&[1, 2]), 10.0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn different_tails_or_key_sequences_are_independent() {
        let mut t = PrimeTable::new();
        t.admit(Some(DoorId(5)), &kp(&[1, 2]), 5.0);
        assert!(t.check(Some(DoorId(6)), &kp(&[1, 2]), 50.0));
        assert!(t.check(Some(DoorId(5)), &kp(&[2, 1]), 50.0));
        assert!(t.check(Some(DoorId(5)), &kp(&[1, 2, 3]), 50.0));
        assert!(t.check(None, &kp(&[1, 2]), 50.0));
        t.admit(Some(DoorId(6)), &kp(&[1, 2]), 5.0);
        t.admit(None, &kp(&[]), 0.0);
        assert_eq!(t.len(), 3);
        assert!(t.estimated_bytes() > 0);
    }

    #[test]
    fn key_encoding_distinguishes_no_tail_from_door_zero() {
        let mut t = PrimeTable::new();
        t.admit(None, &kp(&[1]), 1.0);
        assert!(t.check(Some(DoorId(0)), &kp(&[1]), 100.0));
        t.admit(Some(DoorId(0)), &kp(&[1]), 2.0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn keys_stored_as_bytes_are_found_improved_and_rejected_by_borrowed_lookups() {
        let mut t = PrimeTable::new();
        assert!(t.admit(Some(DoorId(0)), &kp(&[7, 9]), 20.0));
        // The stored key is the byte encoding: tail + 1, then each partition.
        let stored: &[u8] = &[1, 0, 0, 0, 7, 0, 0, 0, 9, 0, 0, 0];
        assert_eq!(t.entries.get(stored), Some(&20.0));
        assert!(
            !t.check(Some(DoorId(0)), &kp(&[7, 9]), 25.0),
            "longer is pruned"
        );
        assert!(t.check(Some(DoorId(0)), &kp(&[7, 9]), 15.0));
        assert!(t.admit(Some(DoorId(0)), &kp(&[7, 9]), 15.0), "improved");
        assert_eq!(t.entries.get(stored), Some(&15.0));
        assert!(!t.admit(Some(DoorId(0)), &kp(&[7, 9]), 18.0), "rejected");
        assert_eq!(t.entries.get(stored), Some(&15.0));
        assert_eq!(t.len(), 1);
        // Tail `None` encodes as 0 and door 0 as 1: distinct classes.
        assert!(t.check(None, &kp(&[7, 9]), 100.0));
        assert!(t.admit(None, &kp(&[7, 9]), 100.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.entries.get(stored), Some(&15.0));
        let bytes_before = t.estimated_bytes();
        assert!(!t.check(Some(DoorId(0)), &kp(&[7, 9]), 16.0));
        assert!(!t.admit(Some(DoorId(0)), &kp(&[7, 9]), 16.0));
        assert_eq!(t.estimated_bytes(), bytes_before, "lookups add no entry");
    }

    #[test]
    fn equal_distance_does_not_prune() {
        // Two homogeneous routes of exactly equal length: neither is prime
        // against the other (Definition 3 requires strictly smaller), so the
        // check accepts the second one, and so does the child probe.
        let mut t = PrimeTable::new();
        assert!(t.admit(Some(DoorId(3)), &kp(&[4]), 7.0));
        assert!(t.check(Some(DoorId(3)), &kp(&[4]), 7.0));
        assert!(t.admit(Some(DoorId(3)), &kp(&[4]), 7.0));
        assert_eq!(t.len(), 1);
    }

    /// A probe: tail `None` or one of four doors, a key-partition sequence
    /// over three partitions, and a distance near 10 m in steps of 1e-10
    /// (so some pairs differ by less than `DISTANCE_EPSILON`), or farther.
    fn probe() -> impl Strategy<Value = (Option<DoorId>, Vec<PartitionId>, f64)> {
        (0u32..5, proptest::collection::vec(0u32..3, 0..3), 0u32..16).prop_map(
            |(tail, ids, step)| {
                let distance = match step {
                    0..=12 => 10.0 + f64::from(step) * 1e-10,
                    _ => 10.0 + f64::from(step - 12),
                };
                (tail.checked_sub(1).map(DoorId), kp(&ids), distance)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn admit_agrees_with_a_naive_prime_table(
            probes in proptest::collection::vec(probe(), 1..48)
        ) {
            let mut table = PrimeTable::new();
            let mut model: HashMap<(Option<DoorId>, Vec<PartitionId>), f64> = HashMap::new();
            for (tail, key_partitions, distance) in probes {
                let key = (tail, key_partitions);
                let best = model.get(&key).copied();
                let expected = best.is_none_or(|best| best + 1e-9 >= distance);
                model.insert(key.clone(), best.map_or(distance, |best| best.min(distance)));
                prop_assert_eq!(table.admit(tail, &key.1, distance), expected);
                prop_assert_eq!(table.len(), model.len());
            }
        }
    }
}
