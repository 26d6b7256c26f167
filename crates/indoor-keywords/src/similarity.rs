//! Jaccard similarity and the candidate i-word set `κ(wQ)` of Definition 4.

use crate::error::KeywordError;
use crate::intern::WordId;
use crate::mappings::KeywordMappings;
use crate::vocab::{Vocabulary, WordKind};
use crate::Result;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Jaccard similarity `|a ∩ b| / |a ∪ b|` between two word sets, each a
/// sorted, duplicate-free slice (the rows of [`KeywordMappings`]). Empty
/// union yields 0. The result is a ratio of two integer counts, so it does
/// not depend on how the sets are stored.
pub fn jaccard(a: &[WordId], b: &[WordId]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "`a` must be a set");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "`b` must be a set");
    let (mut i, mut j, mut inter) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// One entry of a candidate i-word set: a matching i-word and its similarity
/// score with the query keyword (`(wi, s)` in Definition 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateEntry {
    /// The matching i-word.
    pub iword: WordId,
    /// Similarity score in `(0, 1]`.
    pub similarity: f64,
}

/// The candidate i-word set `κ(wQ)` of one query keyword.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CandidateSet {
    /// The query keyword this set was derived for.
    pub query_word: WordId,
    /// Matching i-words with their similarity scores, keyed by i-word for
    /// O(log n) membership tests (`κ(wQ).Wi` lookups).
    entries: BTreeMap<WordId, f64>,
}

impl CandidateSet {
    /// Builds `κ(wQ)` for a query keyword per Definition 4 — the reference
    /// implementation, which scans the whole i-word vocabulary.
    ///
    /// * If `wQ` is an i-word the only candidate is `wQ` itself with score 1.
    /// * If `wQ` is a t-word, every direct matching i-word (`T2I(wQ)`) scores
    ///   1, and every indirect matching i-word scores its Jaccard similarity
    ///   between its own t-words and the union of t-words of the direct
    ///   matches; entries with similarity `≤ τ` are dropped ("to avoid long
    ///   tails").
    /// * Unknown words yield an empty candidate set (the query keyword simply
    ///   cannot be covered).
    pub fn build(
        query_word: WordId,
        vocab: &Vocabulary,
        mappings: &KeywordMappings,
        tau: f64,
    ) -> Result<Self> {
        Self::expand(query_word, vocab, mappings, tau, |_| vocab.iwords())
    }

    /// [`CandidateSet::build`] without the vocabulary scan: the indirect
    /// matches are looked for only among the i-words `T2I` reaches from the
    /// union `U` of the direct matches' t-words.
    ///
    /// Equivalence argument: an i-word `wi` outside the direct matches
    /// scores `jaccard(I2T(wi), U)`, which is 0 — never above `τ ≥ 0` —
    /// unless `I2T(wi)` shares a t-word with `U`. Associations are symmetric
    /// (`wi ∈ T2I(t) ⟺ t ∈ I2T(wi)`), so the i-words that do are exactly
    /// `⋃_{t ∈ U} T2I(t)`. Both paths score them with the same [`jaccard`]
    /// over the same rows, so entries and similarities match bit for bit.
    pub fn by_association(
        query_word: WordId,
        vocab: &Vocabulary,
        mappings: &KeywordMappings,
        tau: f64,
    ) -> Result<Self> {
        Self::expand(query_word, vocab, mappings, tau, |union| {
            let mut reached: Vec<WordId> = union
                .iter()
                .flat_map(|&tw| mappings.t2i(tw))
                .copied()
                .collect();
            reached.sort_unstable();
            reached.dedup();
            reached
        })
    }

    /// Definition 4, with the i-words to score as indirect matches drawn
    /// from `indirect(U)`. It must yield every i-word whose t-words meet
    /// `U`; any other i-word it yields scores 0 and is dropped.
    fn expand<I: IntoIterator<Item = WordId>>(
        query_word: WordId,
        vocab: &Vocabulary,
        mappings: &KeywordMappings,
        tau: f64,
        indirect: impl FnOnce(&[WordId]) -> I,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&tau) {
            return Err(KeywordError::InvalidThreshold(tau));
        }
        let mut entries = BTreeMap::new();
        match vocab.classify(query_word) {
            WordKind::IWord => {
                entries.insert(query_word, 1.0);
            }
            WordKind::TWord => {
                let direct = mappings.t2i(query_word);
                // Union of the t-words of each direct matching i-word.
                let mut union: Vec<WordId> = direct
                    .iter()
                    .flat_map(|&iw| mappings.i2t(iw))
                    .copied()
                    .collect();
                union.sort_unstable();
                union.dedup();
                for &iw in direct {
                    entries.insert(iw, 1.0);
                }
                // Indirect matches: any other i-word, scored by Jaccard
                // similarity between its t-words and the union.
                for iw in indirect(&union) {
                    if entries.contains_key(&iw) {
                        continue;
                    }
                    let s = jaccard(mappings.i2t(iw), &union);
                    if s > tau {
                        entries.insert(iw, s);
                    }
                }
            }
            WordKind::Unknown => {}
        }
        Ok(CandidateSet {
            query_word,
            entries,
        })
    }

    /// The matching i-words (`κ(wQ).Wi`).
    pub fn iwords(&self) -> impl Iterator<Item = WordId> + '_ {
        self.entries.keys().copied()
    }

    /// Similarity of a matching i-word, if present.
    pub fn similarity(&self, iword: WordId) -> Option<f64> {
        self.entries.get(&iword).copied()
    }

    /// Whether the i-word is a candidate match.
    pub fn contains(&self, iword: WordId) -> bool {
        self.entries.contains_key(&iword)
    }

    /// Number of candidate i-words.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the candidate set is empty (the query word can never be
    /// covered in this venue).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all `(i-word, similarity)` entries.
    pub fn entries(&self) -> impl Iterator<Item = CandidateEntry> + '_ {
        self.entries
            .iter()
            .map(|(&iword, &similarity)| CandidateEntry { iword, similarity })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the running example of §III (Example 4):
    ///   costa:     {coffee, drinks, macha}
    ///   apple:     {phone, mac, laptop, watch}
    ///   starbucks: {coffee, macha, latte, drinks}
    ///   samsung:   {phone, laptop, earphone}
    fn example_setup() -> (Vocabulary, KeywordMappings) {
        let mut v = Vocabulary::new();
        let mut m = KeywordMappings::new();
        let names = ["costa", "apple", "starbucks", "samsung"];
        let twords: [&[&str]; 4] = [
            &["coffee", "drinks", "macha"],
            &["phone", "mac", "laptop", "watch"],
            &["coffee", "macha", "latte", "drinks"],
            &["phone", "laptop", "earphone"],
        ];
        for (name, tws) in names.iter().zip(twords.iter()) {
            let iw = v.add_iword(name).unwrap();
            for t in tws.iter() {
                let (tw, _) = v.add_tword(t);
                m.associate(iw, tw);
            }
        }
        (v, m)
    }

    #[test]
    fn jaccard_basics() {
        let a = [WordId(1), WordId(2), WordId(3)];
        let b = [WordId(2), WordId(3), WordId(4)];
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-9);
        assert!((jaccard(&a, &a) - 1.0).abs() < 1e-9);
        assert_eq!(jaccard(&a, &[]), 0.0);
        assert_eq!(jaccard(&[], &[]), 0.0);
    }

    #[test]
    fn example_4_latte_candidates() {
        let (v, m) = example_setup();
        let latte = v.lookup("latte").unwrap();
        let set = CandidateSet::build(latte, &v, &m, 0.5).unwrap();
        // Direct match: starbucks with score 1. Indirect: costa with 3/4.
        let starbucks = v.lookup("starbucks").unwrap();
        let costa = v.lookup("costa").unwrap();
        assert_eq!(set.len(), 2);
        assert!((set.similarity(starbucks).unwrap() - 1.0).abs() < 1e-9);
        assert!((set.similarity(costa).unwrap() - 0.75).abs() < 1e-9);
        // apple and samsung share no t-word with the union: not candidates.
        assert!(!set.contains(v.lookup("apple").unwrap()));
        assert!(!set.contains(v.lookup("samsung").unwrap()));
    }

    #[test]
    fn example_4_apple_candidates() {
        let (v, m) = example_setup();
        let apple = v.lookup("apple").unwrap();
        let set = CandidateSet::build(apple, &v, &m, 0.5).unwrap();
        assert_eq!(set.len(), 1);
        assert!((set.similarity(apple).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(set.iwords().collect::<Vec<_>>(), vec![apple]);
    }

    #[test]
    fn threshold_drops_weak_indirect_matches() {
        let (v, m) = example_setup();
        let phone = v.lookup("phone").unwrap();
        // Direct: apple, samsung. Union = {phone, mac, laptop, watch, earphone}.
        // No other i-word shares a t-word, so candidates are just the two.
        let set = CandidateSet::build(phone, &v, &m, 0.05).unwrap();
        assert_eq!(set.len(), 2);
        // With coffee the direct matches are costa and starbucks; union =
        // {coffee, drinks, macha, latte}. costa itself is a direct match;
        // starbucks direct; no indirect survive τ = 0.9 anyway.
        let coffee = v.lookup("coffee").unwrap();
        let strict = CandidateSet::build(coffee, &v, &m, 0.9).unwrap();
        assert_eq!(strict.len(), 2);
        for e in strict.entries() {
            assert!((e.similarity - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn indirect_matches_appear_below_one() {
        let (v, m) = example_setup();
        let earphone = v.lookup("earphone").unwrap();
        // Direct: samsung. Union = {phone, laptop, earphone}.
        // apple = {phone, mac, laptop, watch} shares phone+laptop with the
        // union: jaccard = 2 / 5 = 0.4.
        let set = CandidateSet::build(earphone, &v, &m, 0.1).unwrap();
        let apple = v.lookup("apple").unwrap();
        let samsung = v.lookup("samsung").unwrap();
        assert!((set.similarity(samsung).unwrap() - 1.0).abs() < 1e-9);
        assert!((set.similarity(apple).unwrap() - 0.4).abs() < 1e-9);
        // A higher threshold prunes apple.
        let set = CandidateSet::build(earphone, &v, &m, 0.5).unwrap();
        assert!(!set.contains(apple));
    }

    #[test]
    fn unknown_word_and_invalid_threshold() {
        let (mut v, m) = example_setup();
        let unknown = v.add_tword("unrelated").0;
        let set = CandidateSet::build(unknown, &v, &m, 0.1).unwrap();
        assert!(set.is_empty());
        assert!(CandidateSet::build(unknown, &v, &m, 1.5).is_err());
        assert!(CandidateSet::build(unknown, &v, &m, -0.1).is_err());
    }

    #[test]
    fn association_walk_matches_the_vocabulary_scan() {
        let (mut v, mut m) = example_setup();
        // An i-word without t-words and a t-word without i-words.
        let bare = v.add_iword("bare-brand").unwrap();
        m.assign_partition(indoor_space::PartitionId(2), bare)
            .unwrap();
        v.add_tword("unrelated");
        let words: Vec<WordId> = v.iwords().chain(v.twords()).collect();
        assert_eq!(words.len(), 15);
        for &w in &words {
            for tau in [0.0, 0.05, 0.3, 0.5, 0.9, 1.0] {
                let scan = CandidateSet::build(w, &v, &m, tau).unwrap();
                let walk = CandidateSet::by_association(w, &v, &m, tau).unwrap();
                assert_eq!(scan, walk, "word {w:?} at tau {tau}");
                for e in scan.entries() {
                    let other = walk.similarity(e.iword).unwrap();
                    assert_eq!(e.similarity.to_bits(), other.to_bits());
                }
            }
        }
    }

    #[test]
    fn association_walk_rejects_thresholds_like_the_scan() {
        let (v, m) = example_setup();
        let latte = v.lookup("latte").unwrap();
        let apple = v.lookup("apple").unwrap();
        for w in [latte, apple] {
            for tau in [1.5, -0.1, f64::NAN] {
                assert!(matches!(
                    CandidateSet::by_association(w, &v, &m, tau),
                    Err(KeywordError::InvalidThreshold(_))
                ));
                assert!(CandidateSet::build(w, &v, &m, tau).is_err());
            }
        }
    }
}
