//! The five pruning rules of §IV-A, represented as an enum for statistics
//! and reporting. The rules themselves are applied inline by the expansion
//! strategies (they need search state); this module gives them identity and
//! counts how often each one fires.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The pruning rules of §IV-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PruneRule {
    /// Pruning Rule 1: a partial route whose distance plus the lower-bound
    /// distance from its tail to `pt` exceeds `∆`.
    ///
    /// With distance pruning on, KoE's shortest-path runs cut at the
    /// `∆`-ellipse, the same test with a relative slack of 1e-9, so a jump
    /// past the ellipse is never settled and never counted here; KoE
    /// counts only jumps within that slack of the bound.
    PartialRouteDistance,
    /// Pruning Rule 2: a door whose lower-bound `ps`-to-door plus door-to-`pt`
    /// distance exceeds `∆`.
    DoorDistance,
    /// Pruning Rule 3: a partition whose lower-bound detour distance
    /// `δ(ps, v, pt)` exceeds `∆`.
    ///
    /// Counted once per query, over the key partitions of KoE's routing
    /// set before the rule: those enterable through a door that the
    /// initial stamp's runs, cut at the `∆`-ellipse, settle. A key
    /// partition no such door enters is never met, so it is not counted.
    PartitionDistance,
    /// Pruning Rule 4: a partial route whose upper-bound ranking score does
    /// not exceed the current k-th best score (`kbound`).
    KBound,
    /// Pruning Rule 5: a partial route that is not prime against an already
    /// seen homogeneous route.
    Prime,
    /// Not a numbered pruning rule: an expansion rejected because it would
    /// violate the regularity principle (including the Lemma 2 loop check).
    Regularity,
    /// Not a numbered pruning rule: an expansion rejected because the partial
    /// route itself already exceeds `∆` (the hard query constraint).
    ///
    /// The shortest-path runs a search makes stop at the remaining budget,
    /// so a door or terminal connection beyond it is never found and is not
    /// counted here.
    DistanceConstraint,
}

impl PruneRule {
    /// All rule variants in display order.
    pub const ALL: [PruneRule; 7] = [
        PruneRule::PartialRouteDistance,
        PruneRule::DoorDistance,
        PruneRule::PartitionDistance,
        PruneRule::KBound,
        PruneRule::Prime,
        PruneRule::Regularity,
        PruneRule::DistanceConstraint,
    ];

    /// Short label used in metric dumps.
    pub fn label(self) -> &'static str {
        match self {
            PruneRule::PartialRouteDistance => "rule1_partial_route_distance",
            PruneRule::DoorDistance => "rule2_door_distance",
            PruneRule::PartitionDistance => "rule3_partition_distance",
            PruneRule::KBound => "rule4_kbound",
            PruneRule::Prime => "rule5_prime",
            PruneRule::Regularity => "regularity",
            PruneRule::DistanceConstraint => "distance_constraint",
        }
    }

    fn index(self) -> usize {
        match self {
            PruneRule::PartialRouteDistance => 0,
            PruneRule::DoorDistance => 1,
            PruneRule::PartitionDistance => 2,
            PruneRule::KBound => 3,
            PruneRule::Prime => 4,
            PruneRule::Regularity => 5,
            PruneRule::DistanceConstraint => 6,
        }
    }
}

impl fmt::Display for PruneRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-rule pruning counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneStats {
    counts: [u64; 7],
}

impl PruneStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        PruneStats::default()
    }

    /// Records one firing of a rule.
    pub fn record(&mut self, rule: PruneRule) {
        self.counts[rule.index()] += 1;
    }

    /// Number of times a rule fired.
    pub fn count(&self, rule: PruneRule) -> u64 {
        self.counts[rule.index()]
    }

    /// Total prunings across all rules.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total prunings from the five numbered rules only.
    pub fn total_numbered(&self) -> u64 {
        PruneRule::ALL
            .iter()
            .filter(|r| !matches!(r, PruneRule::Regularity | PruneRule::DistanceConstraint))
            .map(|&r| self.count(r))
            .sum()
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &PruneStats) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

impl fmt::Display for PruneStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for rule in PruneRule::ALL {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", rule.label(), self.count(rule))?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_rule() {
        let mut s = PruneStats::new();
        s.record(PruneRule::Prime);
        s.record(PruneRule::Prime);
        s.record(PruneRule::KBound);
        s.record(PruneRule::Regularity);
        assert_eq!(s.count(PruneRule::Prime), 2);
        assert_eq!(s.count(PruneRule::KBound), 1);
        assert_eq!(s.count(PruneRule::PartialRouteDistance), 0);
        assert_eq!(s.total(), 4);
        assert_eq!(s.total_numbered(), 3);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = PruneStats::new();
        a.record(PruneRule::DoorDistance);
        let mut b = PruneStats::new();
        b.record(PruneRule::DoorDistance);
        b.record(PruneRule::PartitionDistance);
        a.merge(&b);
        assert_eq!(a.count(PruneRule::DoorDistance), 2);
        assert_eq!(a.count(PruneRule::PartitionDistance), 1);
    }

    #[test]
    fn labels_and_display() {
        for rule in PruneRule::ALL {
            assert!(!rule.label().is_empty());
            assert_eq!(rule.to_string(), rule.label());
        }
        let mut s = PruneStats::new();
        s.record(PruneRule::KBound);
        assert!(s.to_string().contains("rule4_kbound=1"));
    }
}
