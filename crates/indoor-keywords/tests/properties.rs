//! Property-based tests of the keyword substrate: Jaccard similarity axioms,
//! the candidate i-word set of Definition 4 (direct matches at similarity 1,
//! indirect matches above the threshold τ, and the association walk equal to
//! the vocabulary scan), and the keyword relevance of Definition 6 (range and
//! monotonicity), on randomly generated keyword directories.

use indoor_keywords::{
    jaccard, CandidateSet, CoverageTracker, KeywordDirectory, PreparedQuery, QueryKeywords,
    RelevanceModel, WordId, WordKind,
};
use indoor_space::PartitionId;
use proptest::prelude::*;
use std::collections::BTreeSet;

// -------------------------------------------------------------------
// Jaccard similarity
// -------------------------------------------------------------------

/// A word set as the mappings hold one: a sorted, duplicate-free `Vec`.
fn arb_word_set() -> impl Strategy<Value = Vec<WordId>> {
    proptest::collection::btree_set((0u32..40).prop_map(WordId), 0..12)
        .prop_map(|set| set.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn jaccard_axioms(a in arb_word_set(), b in arb_word_set()) {
        let s = jaccard(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((jaccard(&b, &a) - s).abs() < 1e-12, "symmetry");
        if !a.is_empty() {
            prop_assert!((jaccard(&a, &a) - 1.0).abs() < 1e-12, "identity");
        } else {
            prop_assert_eq!(jaccard(&a, &a), 0.0);
        }
        // s = 1 iff the non-empty sets are equal.
        if s == 1.0 {
            prop_assert_eq!(&a, &b);
        }
        // Disjoint sets score 0.
        if a.iter().all(|w| !b.contains(w)) {
            prop_assert_eq!(s, 0.0);
        }
    }
}

// -------------------------------------------------------------------
// Random keyword directories
// -------------------------------------------------------------------

/// Description of a random directory: a pool of t-word strings, one entry
/// per i-word with the indices of its t-words, and a partition count.
#[derive(Debug, Clone)]
struct DirectorySpec {
    /// For each i-word: the indices into the t-word pool it is tagged with.
    iwords: Vec<Vec<usize>>,
    /// Number of partitions receiving an i-word (cyclically).
    partitions: usize,
}

const TWORD_POOL: &[&str] = &[
    "coffee", "latte", "mocha", "phone", "laptop", "watch", "earphone", "pants", "coat", "shoes",
    "boots", "cash", "euro", "lotion", "shampoo", "noodle", "cookie", "printer",
];

fn arb_directory() -> impl Strategy<Value = DirectorySpec> {
    (
        proptest::collection::vec(
            proptest::collection::vec(0usize..TWORD_POOL.len(), 0..6),
            2..10,
        ),
        2usize..12,
    )
        .prop_map(|(iwords, partitions)| DirectorySpec { iwords, partitions })
}

fn build_directory(spec: &DirectorySpec) -> KeywordDirectory {
    let mut dir = KeywordDirectory::new();
    for (i, twords) in spec.iwords.iter().enumerate() {
        let iword = dir.add_iword(&format!("brand{i}")).unwrap();
        for &t in twords {
            dir.add_tword_for(iword, TWORD_POOL[t]);
        }
        // Assign the i-word to one or more partitions, cyclically.
        let v = PartitionId((i % spec.partitions) as u32);
        // A partition may already be named when several i-words map to the
        // same slot; skip silently in that case (P2I is many-to-one from the
        // partition side, one i-word per partition).
        let _ = dir.name_partition(v, iword);
    }
    dir
}

/// Query words mixing i-words, t-words and unknown words.
fn arb_query_words(num_iwords: usize) -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        prop_oneof![
            (0..num_iwords.max(1)).prop_map(|i| format!("brand{i}")),
            (0usize..TWORD_POOL.len()).prop_map(|t| TWORD_POOL[t].to_string()),
            Just("unknownword".to_string()),
        ],
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Definition 4: every candidate entry has similarity in (τ, 1]; a query
    /// word that is an i-word has exactly itself as candidate with score 1;
    /// a t-word's direct matching i-words score exactly 1.
    #[test]
    fn candidate_sets_respect_the_threshold_and_direct_matches(
        spec in arb_directory(),
        words in arb_query_words(8),
        tau in 0.05f64..0.6,
    ) {
        let dir = build_directory(&spec);
        let query = QueryKeywords::new(words.iter().map(String::as_str)).unwrap();
        let prepared = PreparedQuery::prepare(&query, &dir, tau).unwrap();
        prop_assert_eq!(prepared.len(), words.len());
        prop_assert!((prepared.tau() - tau).abs() < 1e-12);

        for (idx, raw) in words.iter().enumerate() {
            let (id, kind) = dir.classify(raw);
            match kind {
                WordKind::IWord => {
                    let iw = id.unwrap();
                    prop_assert_eq!(prepared.similarity(idx, iw), Some(1.0));
                    // No other candidate for an i-word query word.
                    for other in dir.vocab().iwords() {
                        if other != iw {
                            prop_assert_eq!(prepared.similarity(idx, other), None);
                        }
                    }
                }
                WordKind::TWord => {
                    let tw = id.unwrap();
                    for iw in dir.vocab().iwords() {
                        if let Some(s) = prepared.similarity(idx, iw) {
                            prop_assert!(s > tau - 1e-12, "candidate below threshold: {s} <= {tau}");
                            prop_assert!(s <= 1.0 + 1e-12);
                            prop_assert!(prepared.is_candidate_iword(iw));
                        }
                        // Direct matching i-words (t-word attached to them)
                        // must be candidates with similarity exactly 1.
                        if dir.twords_of(iw).contains(&tw) {
                            prop_assert_eq!(prepared.similarity(idx, iw), Some(1.0));
                        }
                    }
                }
                WordKind::Unknown => {
                    for iw in dir.vocab().iwords() {
                        prop_assert_eq!(prepared.similarity(idx, iw), None);
                    }
                }
            }
        }

        // The candidate union is exactly the i-words with some per-word entry.
        for iw in dir.vocab().iwords() {
            let in_union = prepared.candidate_iwords().contains(&iw);
            let in_some_word = (0..words.len()).any(|i| prepared.similarity(i, iw).is_some());
            prop_assert_eq!(in_union, in_some_word);
        }

        // Key partitions are exactly the partitions of candidate i-words,
        // sorted and duplicate-free.
        let key = prepared.key_partitions(&dir);
        prop_assert!(key.windows(2).all(|w| w[0] < w[1]));
        for v in (0..spec.partitions as u32).map(PartitionId) {
            let expected = dir
                .partition_iword(v)
                .map(|iw| prepared.is_candidate_iword(iw))
                .unwrap_or(false);
            prop_assert_eq!(key.contains(&v), expected);
        }
    }

    /// The association walk builds the scan's candidate set for every word
    /// of the vocabulary, with bit-identical similarities, and prepares the
    /// same query.
    #[test]
    fn association_walk_matches_the_vocabulary_scan(
        spec in arb_directory(),
        words in arb_query_words(8),
        tau in prop_oneof![Just(0.0), 0.0f64..1.0, Just(1.0)],
    ) {
        let dir = build_directory(&spec);
        let (vocab, mappings) = (dir.vocab(), dir.mappings());
        for w in vocab.iwords().chain(vocab.twords()) {
            let scan = CandidateSet::build(w, vocab, mappings, tau).unwrap();
            let walk = CandidateSet::by_association(w, vocab, mappings, tau).unwrap();
            prop_assert_eq!(&scan, &walk);
            for e in scan.entries() {
                let other = walk.similarity(e.iword).unwrap();
                prop_assert_eq!(e.similarity.to_bits(), other.to_bits());
            }
        }
        let query = QueryKeywords::new(words.iter().map(String::as_str)).unwrap();
        prop_assert_eq!(
            PreparedQuery::prepare(&query, &dir, tau).unwrap(),
            PreparedQuery::prepare_with(&query, &dir, tau, CandidateSet::by_association).unwrap()
        );
    }

    /// Definition 6: the relevance is 0 or in (1, |QW| + 1], grows weakly
    /// monotonically as more i-words are added to the route words, and the
    /// incremental CoverageTracker agrees with the batch computation.
    #[test]
    fn relevance_range_monotonicity_and_incremental_agreement(
        spec in arb_directory(),
        words in arb_query_words(8),
        tau in 0.05f64..0.6,
        route_iwords in proptest::collection::vec(0usize..10, 0..8),
    ) {
        let dir = build_directory(&spec);
        let query = QueryKeywords::new(words.iter().map(String::as_str)).unwrap();
        let prepared = PreparedQuery::prepare(&query, &dir, tau).unwrap();

        let all_iwords: Vec<WordId> = dir.vocab().iwords().collect();
        let route_words: Vec<WordId> = route_iwords
            .iter()
            .map(|&i| all_iwords[i % all_iwords.len()])
            .collect();

        let mut tracker = CoverageTracker::new(prepared.len());
        let mut previous = 0.0f64;
        let mut seen: BTreeSet<WordId> = BTreeSet::new();
        for &iw in &route_words {
            tracker.add_iword(&prepared, iw);
            seen.insert(iw);
            let incremental = tracker.relevance();
            let batch = RelevanceModel::relevance_of_words(&seen, &prepared);
            prop_assert!((incremental - batch).abs() < 1e-9,
                "incremental {incremental} vs batch {batch}");
            // Range of Definition 6: 0 when nothing is covered, otherwise in
            // (1, |QW| + 1].
            if incremental > 0.0 {
                prop_assert!(incremental > 1.0 - 1e-12);
                prop_assert!(incremental <= prepared.len() as f64 + 1.0 + 1e-9);
            }
            // Monotonicity: adding a word never decreases the relevance.
            prop_assert!(incremental + 1e-12 >= previous);
            previous = incremental;
        }
        prop_assert_eq!(tracker.covered_count() == prepared.len(), tracker.is_fully_covered());

        // Full coverage bound: covering every query word with direct matches
        // yields exactly |QW| + 1.
        if tracker.is_fully_covered()
            && tracker.best_similarities().iter().all(|&s| (s - 1.0).abs() < 1e-12)
        {
            prop_assert!((tracker.relevance() - (prepared.len() as f64 + 1.0)).abs() < 1e-9);
        }
    }

    /// The vocabulary keeps i-words and t-words disjoint no matter the
    /// construction order, and classification is consistent with membership.
    #[test]
    fn vocabularies_stay_disjoint(spec in arb_directory()) {
        let dir = build_directory(&spec);
        let iwords: BTreeSet<WordId> = dir.vocab().iwords().collect();
        let twords: BTreeSet<WordId> = dir.vocab().twords().collect();
        prop_assert!(iwords.intersection(&twords).next().is_none());
        for &iw in &iwords {
            prop_assert_eq!(dir.vocab().classify(iw), WordKind::IWord);
            let raw = dir.resolve(iw).unwrap().to_string();
            prop_assert_eq!(dir.lookup(&raw), Some(iw));
        }
        for &tw in &twords {
            prop_assert_eq!(dir.vocab().classify(tw), WordKind::TWord);
        }
        // Every named partition resolves to an existing i-word.
        for v in dir.mappings().named_partitions() {
            let iw = dir.partition_iword(v).unwrap();
            prop_assert!(iwords.contains(&iw));
            prop_assert!(dir.partitions_of(iw).contains(&v));
        }
    }
}
