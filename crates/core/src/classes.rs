//! The key-partition classes of one search: every distinct key-partition
//! sequence `KP(R)` the search meets, interned once under a [`ClassId`].
//!
//! Routes from `ps` are homogeneous (Definition 2) when they share their
//! tail and `KP(R)`, so a stamp names its sequence by a class id, and
//! `Hprime` keys a class by its tail and id.
//!
//! A class also holds what its routes' keyword coverage is. A partition
//! adds an i-word to `RW(R)` only if the i-word is a candidate, and then it
//! is a key partition; `v(ps)` and `v(pt)` are key partitions by
//! definition. So a route's best similarity per query keyword is the
//! maximum over the partitions of its `KP(R)`, and its relevance `ρ` and the
//! full-coverage test of Algorithm 5 line 11 depend on its class alone.
//! Both come from a [`CoverageTracker`] credited with the class's
//! partitions, so they equal a route's bit for bit.

use crate::context::PackedMap;
use indoor_keywords::CoverageTracker;
use indoor_space::PartitionId;

/// The id of a key-partition class in the class table of one search.
pub type ClassId = u32;

/// No class: the end of a chain of classes with one sequence hash.
const NO_CLASS: ClassId = ClassId::MAX;

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

/// The class table of one search. Nothing is removed before the search
/// ends.
#[derive(Debug)]
pub(crate) struct KpClasses {
    /// `|QW|`.
    num_keywords: usize,
    /// Every class's sequence, one after another: class `c` holds
    /// `partitions[starts[c]..starts[c + 1]]`.
    partitions: Vec<PartitionId>,
    starts: Vec<u32>,
    /// Per class, its best similarity for each query keyword, `|QW|` apiece.
    best: Vec<f64>,
    /// Per class, the relevance `ρ` of its routes.
    relevance: Vec<f64>,
    /// Per class, whether its routes cover every keyword with similarity 1.
    fully_covered: Vec<bool>,
    /// Per sequence hash, the newest class with that hash; each class links
    /// to the next older one in `same_hash`.
    by_hash: PackedMap<ClassId>,
    same_hash: Vec<ClassId>,
    /// `(class, partition)` → the class of the sequence
    /// [`push_key_partition`] makes.
    steps: PackedMap<ClassId>,
    /// The sequence being looked up.
    scratch: Vec<PartitionId>,
}

impl KpClasses {
    /// An empty table for a query of `num_keywords` keywords.
    pub(crate) fn new(num_keywords: usize) -> Self {
        KpClasses {
            num_keywords,
            partitions: Vec::new(),
            starts: vec![0],
            best: Vec::new(),
            relevance: Vec::new(),
            fully_covered: Vec::new(),
            by_hash: PackedMap::default(),
            same_hash: Vec::new(),
            steps: PackedMap::default(),
            scratch: Vec::new(),
        }
    }

    /// The class of the sequence `⟨v⟩`. `credit` adds `v`'s similarities
    /// to a tracker when the class is new.
    pub(crate) fn single(
        &mut self,
        v: PartitionId,
        credit: impl FnOnce(&mut CoverageTracker),
    ) -> ClassId {
        self.scratch.clear();
        self.scratch.push(v);
        self.intern_scratch(None, credit)
    }

    /// The class of `class`'s sequence after [`push_key_partition`] of `v`.
    /// `credit` adds `v`'s similarities to a tracker when the class is new.
    pub(crate) fn push(
        &mut self,
        class: ClassId,
        v: PartitionId,
        credit: impl FnOnce(&mut CoverageTracker),
    ) -> ClassId {
        let range = self.range(class);
        if self.partitions[range.clone()].last() == Some(&v) {
            return class;
        }
        let step = (u64::from(class) << 32) | u64::from(v.0);
        if let Some(&next) = self.steps.get(&step) {
            return next;
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.partitions[range]);
        push_key_partition(&mut self.scratch, v);
        // Another sequence may already have made this one: [A, B] and [B]
        // both give [B, A] after A, and they must be one class.
        let next = self.intern_scratch(Some(class), credit);
        self.steps.insert(step, next);
        next
    }

    /// The class of the sequence in `scratch`, made when no class holds it
    /// yet: its coverage is `parent`'s plus what `credit` adds.
    fn intern_scratch(
        &mut self,
        parent: Option<ClassId>,
        credit: impl FnOnce(&mut CoverageTracker),
    ) -> ClassId {
        let hash = self.scratch.iter().fold(self.scratch.len() as u64, |h, v| {
            (h.rotate_left(5) ^ u64::from(v.0)).wrapping_mul(0x517C_C1B7_2722_0A95)
        });
        let newest = self.by_hash.get(&hash).copied().unwrap_or(NO_CLASS);
        let mut at = newest;
        while at != NO_CLASS {
            if self.sequence(at) == self.scratch.as_slice() {
                return at;
            }
            at = self.same_hash[at as usize];
        }
        let mut coverage = CoverageTracker::new(self.num_keywords);
        if let Some(parent) = parent {
            coverage.add_similarities(self.best(parent));
        }
        credit(&mut coverage);
        let class = ClassId::try_from(self.relevance.len())
            .ok()
            .filter(|&id| id != NO_CLASS)
            .expect("a search holds fewer than 2^32 - 1 classes");
        self.partitions.extend_from_slice(&self.scratch);
        self.starts.push(
            u32::try_from(self.partitions.len()).expect("class sequences hold fewer than 2^32 ids"),
        );
        self.best.extend_from_slice(coverage.best_similarities());
        self.relevance.push(coverage.relevance());
        self.fully_covered.push(coverage.is_fully_covered());
        self.by_hash.insert(hash, class);
        self.same_hash.push(newest);
        class
    }

    fn range(&self, class: ClassId) -> std::ops::Range<usize> {
        let c = class as usize;
        self.starts[c] as usize..self.starts[c + 1] as usize
    }

    /// The key-partition sequence of `class`.
    pub(crate) fn sequence(&self, class: ClassId) -> &[PartitionId] {
        &self.partitions[self.range(class)]
    }

    /// The best similarity of `class`'s routes for each query keyword.
    pub(crate) fn best(&self, class: ClassId) -> &[f64] {
        let c = class as usize * self.num_keywords;
        &self.best[c..c + self.num_keywords]
    }

    /// The relevance `ρ` of `class`'s routes.
    pub(crate) fn relevance(&self, class: ClassId) -> f64 {
        self.relevance[class as usize]
    }

    /// Whether `class`'s routes cover every query keyword with similarity
    /// 1 (Algorithm 5 line 11).
    pub(crate) fn is_fully_covered(&self, class: ClassId) -> bool {
        self.fully_covered[class as usize]
    }

    /// Number of classes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.relevance.len()
    }

    /// Heap bytes of the live entries, for memory accounting.
    pub(crate) fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        self.partitions.len() * size_of::<PartitionId>()
            + self.starts.len() * size_of::<u32>()
            + (self.best.len() + self.relevance.len()) * size_of::<f64>()
            + self.fully_covered.len()
            + self.same_hash.len() * size_of::<ClassId>()
            + (self.by_hash.len() + self.steps.len()) * size_of::<(u64, ClassId)>()
            + self.scratch.capacity() * size_of::<PartitionId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The similarity rows of partitions 0–3 over two keywords, with
    /// repeats and zeros, so that different sets can tie.
    const ROWS: [[f64; 2]; 4] = [[0.0, 0.0], [0.5, 0.0], [1.0, 0.25], [0.5, 1.0]];

    fn credit(v: PartitionId) -> impl FnOnce(&mut CoverageTracker) {
        move |coverage| coverage.add_similarities(&ROWS[v.0 as usize])
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

    #[test]
    fn sequences_made_along_different_paths_are_one_class() {
        let (a, b) = (PartitionId(1), PartitionId(2));
        let mut classes = KpClasses::new(2);
        let ab = classes.single(a, credit(a));
        let ab = classes.push(ab, b, credit(b));
        let b_only = classes.single(b, credit(b));
        let ba = classes.push(b_only, a, credit(a));
        assert_eq!(classes.push(ab, a, credit(a)), ba);
        assert_eq!(classes.sequence(ba), [b, a]);
        assert_eq!(classes.push(ba, a, credit(a)), ba, "a is already last");
        assert_eq!(classes.len(), 4);
        assert_eq!(classes.best(ba), [1.0, 0.25]);
        assert!(!classes.is_fully_covered(ba));
        assert!(classes.estimated_bytes() > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random walks of pushes over four partitions: two class ids are
        /// equal exactly when the sequences `push_key_partition` builds are
        /// equal, and each class's similarities and `ρ` are those of a
        /// tracker credited with its partitions, bit for bit.
        #[test]
        fn classes_match_the_sequences_push_key_partition_builds(
            walks in proptest::collection::vec(
                (0u32..4, proptest::collection::vec(0u32..4, 0..8)),
                1..12,
            )
        ) {
            let mut classes = KpClasses::new(2);
            let mut seen: HashMap<Vec<PartitionId>, ClassId> = HashMap::new();
            for (first, pushes) in walks {
                let first = PartitionId(first);
                let mut sequence = vec![first];
                let mut class = classes.single(first, credit(first));
                prop_assert_eq!(*seen.entry(sequence.clone()).or_insert(class), class);
                for v in pushes.into_iter().map(PartitionId) {
                    push_key_partition(&mut sequence, v);
                    class = classes.push(class, v, credit(v));
                    prop_assert_eq!(classes.sequence(class), sequence.as_slice());
                    prop_assert_eq!(*seen.entry(sequence.clone()).or_insert(class), class);
                    let mut coverage = CoverageTracker::new(2);
                    for &u in &sequence {
                        coverage.add_similarities(&ROWS[u.0 as usize]);
                    }
                    let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(classes.best(class)), bits(coverage.best_similarities()));
                    prop_assert_eq!(classes.relevance(class).to_bits(), coverage.relevance().to_bits());
                    prop_assert_eq!(classes.is_fully_covered(class), coverage.is_fully_covered());
                }
            }
            // One class per distinct sequence met, and no two sequences
            // share a class.
            prop_assert_eq!(classes.len(), seen.len());
            let distinct: std::collections::HashSet<ClassId> = seen.values().copied().collect();
            prop_assert_eq!(distinct.len(), seen.len());
        }
    }
}
