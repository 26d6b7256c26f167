//! The prime-route hash table `Hprime` and the `prime_check` /
//! `prime_update` functions (Algorithms 3 and 4).
//!
//! Two routes are *homogeneous* when they share head, tail and key-partition
//! sequence (Definition 2); among homogeneous routes only the shortest — the
//! *prime* route (Definition 3) — may survive. During the search all expanded
//! routes share the head `ps`, so the homogeneity key is the pair
//! `(R.tail, KP(R))`. A search interns each `KP(R)` it meets as a class
//! ([`crate::classes`]), so the key is two ids packed into one `u64`.
//!
//! The search probes the table once per decision: [`PrimeTable::check`]
//! for a popped stamp, which is already recorded, and
//! [`PrimeTable::admit`] — check and update in one probe — for a child
//! before it is built and for a complete route. A probe hashes one `u64`
//! and allocates nothing.

use crate::classes::ClassId;
use crate::context::PackedMap;
use indoor_space::DoorId;

/// Tolerance when comparing route distances: a route is only considered
/// *prime against* another when it is strictly shorter by more than this
/// epsilon. In particular a route never prunes itself when its own distance
/// was already recorded (the paper's pseudocode uses a strict `>`
/// comparison in both Algorithm 3 and 4, which taken literally would prune
/// the very route that created the entry; pinned by
/// `tests::equal_distance_does_not_prune`).
const DISTANCE_EPSILON: f64 = 1e-9;

/// The homogeneity key: the tail item in the high half, the class of the
/// key-partition sequence in the low half.
///
/// Definition 2 compares routes by head, tail and key-partition sequence.
/// During the search every route shares the head `ps`, so the key reduces to
/// the tail and `KP(R)`. The tail of a *partial* route is its last door
/// (`Some(door)`, stored as the door's id plus one); every *complete* route
/// ends at the terminal point `pt`, so complete routes pass `None` (stored
/// as 0) and are compared against each other purely by their key-partition
/// sequences — a partial route never shadows its own completion.
fn key(tail: Option<DoorId>, class: ClassId) -> u64 {
    (u64::from(tail.map_or(0, |d| d.0 + 1)) << 32) | u64::from(class)
}

/// The prime-route table `Hprime`: for every homogeneity class seen so far,
/// the distance of the shortest (prime) representative.
#[derive(Debug, Clone, Default)]
pub struct PrimeTable {
    entries: PackedMap<f64>,
}

impl PrimeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PrimeTable::default()
    }

    /// `prime_check` (Algorithm 3): returns `true` when a route with tail
    /// `tail`, key-partition class `class` and distance `distance` is (so
    /// far) prime — i.e. no strictly shorter homogeneous route has been
    /// recorded — and `false` when it should be pruned by Pruning Rule 5.
    pub fn check(&self, tail: Option<DoorId>, class: ClassId, distance: f64) -> bool {
        match self.entries.get(&key(tail, class)) {
            None => true,
            Some(&best) => best + DISTANCE_EPSILON >= distance,
        }
    }

    /// `prime_check` and `prime_update` (Algorithms 3 and 4) in one probe:
    /// returns what [`PrimeTable::check`] would, and records `distance` as
    /// the class's prime distance when the class is new or `distance`
    /// improves on it. A rejected route never improves its class, so it
    /// records nothing.
    pub fn admit(&mut self, tail: Option<DoorId>, class: ClassId, distance: f64) -> bool {
        let best = self.entries.entry(key(tail, class)).or_insert(distance);
        let prime = *best + DISTANCE_EPSILON >= distance;
        if distance < *best {
            *best = distance;
        }
        prime
    }

    /// Number of homogeneity classes recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimated heap size in bytes (used for the memory metric): one key
    /// and distance per recorded class.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.entries.len() * std::mem::size_of::<(u64, f64)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn fresh_class_is_prime() {
        let t = PrimeTable::new();
        assert!(t.check(Some(DoorId(5)), 7, 12.5));
        assert!(t.is_empty());
    }

    #[test]
    fn shorter_homogeneous_route_prunes_longer_one() {
        let mut t = PrimeTable::new();
        assert!(t.admit(Some(DoorId(5)), 1, 12.5));
        // Example 8: R3* = (ps,d2,d5) with 12.5 m is prime against
        // R4* = (ps,d3,d5,d5) with 23.2 m, so the latter fails the check.
        assert!(!t.check(Some(DoorId(5)), 1, 23.2));
        // The shorter route itself still passes (it is the recorded one).
        assert!(t.check(Some(DoorId(5)), 1, 12.5));
        // An even shorter homogeneous route passes and improves the entry.
        assert!(t.check(Some(DoorId(5)), 1, 10.0));
        assert!(t.admit(Some(DoorId(5)), 1, 10.0));
        assert!(!t.check(Some(DoorId(5)), 1, 12.5));
        assert!(!t.admit(Some(DoorId(5)), 1, 11.0));
        assert!(t.check(Some(DoorId(5)), 1, 10.0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn different_tails_or_key_sequences_are_independent() {
        let mut t = PrimeTable::new();
        t.admit(Some(DoorId(5)), 1, 5.0);
        assert!(t.check(Some(DoorId(6)), 1, 50.0));
        assert!(t.check(Some(DoorId(5)), 2, 50.0));
        assert!(t.check(None, 1, 50.0));
        t.admit(Some(DoorId(6)), 1, 5.0);
        t.admit(None, 0, 0.0);
        assert_eq!(t.len(), 3);
        assert!(t.estimated_bytes() > 0);
    }

    #[test]
    fn key_encoding_distinguishes_no_tail_from_door_zero() {
        let mut t = PrimeTable::new();
        t.admit(None, 1, 1.0);
        assert!(t.check(Some(DoorId(0)), 1, 100.0));
        t.admit(Some(DoorId(0)), 1, 2.0);
        assert_eq!(t.len(), 2);
        // The packed halves never spill into each other.
        assert_ne!(key(None, ClassId::MAX), key(Some(DoorId(0)), 0));
        assert_eq!(key(Some(DoorId(0)), 9), (1 << 32) | 9);
    }

    #[test]
    fn equal_distance_does_not_prune() {
        // Two homogeneous routes of exactly equal length: neither is prime
        // against the other (Definition 3 requires strictly smaller), so the
        // check accepts the second one, and so does the child probe.
        let mut t = PrimeTable::new();
        assert!(t.admit(Some(DoorId(3)), 4, 7.0));
        assert!(t.check(Some(DoorId(3)), 4, 7.0));
        assert!(t.admit(Some(DoorId(3)), 4, 7.0));
        assert_eq!(t.len(), 1);
    }

    /// A probe: tail `None` or one of four doors, one of three classes, and
    /// a distance near 10 m in steps of 1e-10 (so some pairs differ by less
    /// than `DISTANCE_EPSILON`), or farther.
    fn probe() -> impl Strategy<Value = (Option<DoorId>, ClassId, f64)> {
        (0u32..5, 0u32..3, 0u32..16).prop_map(|(tail, class, step)| {
            let distance = match step {
                0..=12 => 10.0 + f64::from(step) * 1e-10,
                _ => 10.0 + f64::from(step - 12),
            };
            (tail.checked_sub(1).map(DoorId), class, distance)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn admit_agrees_with_a_naive_prime_table(
            probes in proptest::collection::vec(probe(), 1..48)
        ) {
            let mut table = PrimeTable::new();
            let mut model: HashMap<(Option<DoorId>, ClassId), f64> = HashMap::new();
            for (tail, class, distance) in probes {
                let key = (tail, class);
                let best = model.get(&key).copied();
                let expected = best.is_none_or(|best| best + 1e-9 >= distance);
                prop_assert_eq!(table.check(tail, class, distance), expected);
                model.insert(key, best.map_or(distance, |best| best.min(distance)));
                prop_assert_eq!(table.admit(tail, class, distance), expected);
                prop_assert_eq!(table.len(), model.len());
            }
        }
    }
}
