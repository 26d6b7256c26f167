//! Query keyword lists and their prepared (candidate-expanded) form.

use crate::directory::KeywordDirectory;
use crate::error::KeywordError;
use crate::intern::WordId;
use crate::mappings::KeywordMappings;
use crate::similarity::CandidateSet;
use crate::vocab::{Vocabulary, WordKind};
use crate::Result;
use indoor_space::PartitionId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The raw query keyword list `QW` as supplied by the user. Words are plain
/// strings; whether each is an i-word or a t-word is recognised automatically
/// against the venue vocabulary (§V-A1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct QueryKeywords {
    words: Vec<String>,
}

impl QueryKeywords {
    /// Creates a query keyword list. Fails on an empty list.
    pub fn new<I, S>(words: I) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let words: Vec<String> = words.into_iter().map(Into::into).collect();
        if words.is_empty() {
            return Err(KeywordError::EmptyQuery);
        }
        Ok(QueryKeywords { words })
    }

    /// The raw keyword strings.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// `|QW|`.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the list is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// One query keyword after preparation against a venue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreparedWord {
    /// Raw string as given by the user.
    pub raw: String,
    /// Interned id when the word exists in the venue vocabulary.
    pub id: Option<WordId>,
    /// Classification against the vocabulary.
    pub kind: WordKind,
    /// The candidate i-word set `κ(wQ)`; empty for unknown words.
    pub candidates: CandidateSet,
}

/// A query keyword list prepared against a venue: every keyword is classified
/// and expanded into its candidate i-word set (`K(QW)` in Example 4), and the
/// union of candidate i-words `Wci` (Algorithm 1 line 2) is precomputed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreparedQuery {
    words: Vec<PreparedWord>,
    all_candidates: BTreeSet<WordId>,
    tau: f64,
}

impl PreparedQuery {
    /// Prepares a query keyword list against a venue's keyword directory with
    /// similarity threshold `tau`, expanding each keyword with the reference
    /// [`CandidateSet::build`].
    pub fn prepare(query: &QueryKeywords, directory: &KeywordDirectory, tau: f64) -> Result<Self> {
        Self::prepare_with(query, directory, tau, CandidateSet::build)
    }

    /// [`PreparedQuery::prepare`] with the candidate builder given:
    /// [`CandidateSet::build`] or [`CandidateSet::by_association`], which
    /// produce equal sets. Only words found in the vocabulary reach the
    /// builder, which is where an invalid `tau` is rejected.
    pub fn prepare_with(
        query: &QueryKeywords,
        directory: &KeywordDirectory,
        tau: f64,
        candidates_of: impl Fn(WordId, &Vocabulary, &KeywordMappings, f64) -> Result<CandidateSet>,
    ) -> Result<Self> {
        let mut words = Vec::with_capacity(query.len());
        let mut all_candidates = BTreeSet::new();
        for raw in query.words() {
            let (id, kind) = directory.classify(raw);
            let candidates = match id {
                Some(word_id) => {
                    candidates_of(word_id, directory.vocab(), directory.mappings(), tau)?
                }
                None => CandidateSet::default(),
            };
            all_candidates.extend(candidates.iwords());
            words.push(PreparedWord {
                raw: raw.clone(),
                id,
                kind,
                candidates,
            });
        }
        Ok(PreparedQuery {
            words,
            all_candidates,
            tau,
        })
    }

    /// Number of query keywords `|QW|`.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the query has no keywords.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The similarity threshold the query was prepared with.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The prepared words in query order.
    pub fn words(&self) -> &[PreparedWord] {
        &self.words
    }

    /// The union of all candidate i-words, `Wci` of Algorithm 1 line 2.
    pub fn candidate_iwords(&self) -> &BTreeSet<WordId> {
        &self.all_candidates
    }

    /// Whether the i-word is a candidate match of any query keyword.
    pub fn is_candidate_iword(&self, iword: WordId) -> bool {
        self.all_candidates.contains(&iword)
    }

    /// The similarity of `iword` for the `idx`-th query keyword, if it is one
    /// of that keyword's candidates.
    pub fn similarity(&self, idx: usize, iword: WordId) -> Option<f64> {
        self.words.get(idx)?.candidates.similarity(iword)
    }

    /// The maximum possible keyword relevance, `|QW| + 1` (reached when every
    /// keyword matches an i-word with similarity 1; see Definition 6).
    pub fn max_relevance(&self) -> f64 {
        self.len() as f64 + 1.0
    }

    /// The key partitions of the query: every partition identified by any
    /// candidate i-word (`⋃_{wQ} I2P(κ(wQ).Wi)`, Algorithm 1 line 3 before the
    /// start/terminal adjustment).
    pub fn key_partitions(&self, directory: &KeywordDirectory) -> BTreeSet<PartitionId> {
        let mut out = BTreeSet::new();
        for &iw in &self.all_candidates {
            out.extend(directory.partitions_of(iw).iter().copied());
        }
        out
    }

    /// The key partitions that can cover the `idx`-th query keyword.
    pub fn key_partitions_for_word(
        &self,
        idx: usize,
        directory: &KeywordDirectory,
    ) -> BTreeSet<PartitionId> {
        let mut out = BTreeSet::new();
        if let Some(w) = self.words.get(idx) {
            for iw in w.candidates.iwords() {
                out.extend(directory.partitions_of(iw).iter().copied());
            }
        }
        out
    }

    /// Estimated heap size in bytes.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .words
                .iter()
                .map(|w| w.raw.capacity() + w.candidates.len() * 16 + 64)
                .sum::<usize>()
            + self.all_candidates.len() * std::mem::size_of::<WordId>() * 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_directory() -> KeywordDirectory {
        let mut dir = KeywordDirectory::new();
        let costa = dir.add_iword("costa").unwrap();
        let apple = dir.add_iword("apple").unwrap();
        let starbucks = dir.add_iword("starbucks").unwrap();
        let samsung = dir.add_iword("samsung").unwrap();
        for t in ["coffee", "drinks", "macha"] {
            dir.add_tword_for(costa, t);
        }
        for t in ["phone", "mac", "laptop", "watch"] {
            dir.add_tword_for(apple, t);
        }
        for t in ["coffee", "macha", "latte", "drinks"] {
            dir.add_tword_for(starbucks, t);
        }
        for t in ["phone", "laptop", "earphone"] {
            dir.add_tword_for(samsung, t);
        }
        dir.name_partition(PartitionId(3), costa).unwrap();
        dir.name_partition(PartitionId(10), apple).unwrap();
        dir.name_partition(PartitionId(7), starbucks).unwrap();
        dir.name_partition(PartitionId(12), samsung).unwrap();
        dir
    }

    #[test]
    fn empty_query_is_rejected() {
        assert!(matches!(
            QueryKeywords::new(Vec::<String>::new()),
            Err(KeywordError::EmptyQuery)
        ));
        let q = QueryKeywords::new(["latte"]).unwrap();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.words(), &["latte".to_string()]);
    }

    #[test]
    fn example_4_preparation() {
        let dir = example_directory();
        let q = QueryKeywords::new(["latte", "apple"]).unwrap();
        let prepared = PreparedQuery::prepare(&q, &dir, 0.5).unwrap();
        assert_eq!(prepared.len(), 2);
        assert!((prepared.tau() - 0.5).abs() < 1e-12);
        assert!((prepared.max_relevance() - 3.0).abs() < 1e-12);

        // κ(latte) = {(starbucks, 1), (costa, 0.75)}
        let starbucks = dir.lookup("starbucks").unwrap();
        let costa = dir.lookup("costa").unwrap();
        let apple = dir.lookup("apple").unwrap();
        assert_eq!(prepared.words()[0].kind, WordKind::TWord);
        assert!((prepared.similarity(0, starbucks).unwrap() - 1.0).abs() < 1e-9);
        assert!((prepared.similarity(0, costa).unwrap() - 0.75).abs() < 1e-9);
        assert!(prepared.similarity(0, apple).is_none());
        // κ(apple) = {(apple, 1)}
        assert_eq!(prepared.words()[1].kind, WordKind::IWord);
        assert!((prepared.similarity(1, apple).unwrap() - 1.0).abs() < 1e-9);

        // Wci = {starbucks, costa, apple}
        assert_eq!(prepared.candidate_iwords().len(), 3);
        assert!(prepared.is_candidate_iword(costa));
        assert!(!prepared.is_candidate_iword(dir.lookup("samsung").unwrap()));

        // Key partitions: v3 (costa), v7 (starbucks), v10 (apple).
        let keys = prepared.key_partitions(&dir);
        assert_eq!(
            keys,
            [PartitionId(3), PartitionId(7), PartitionId(10)]
                .into_iter()
                .collect()
        );
        let latte_keys = prepared.key_partitions_for_word(0, &dir);
        assert_eq!(latte_keys.len(), 2);
        assert!(prepared.key_partitions_for_word(5, &dir).is_empty());
        assert!(prepared.estimated_bytes() > 0);
    }

    #[test]
    fn unknown_words_yield_empty_candidates() {
        let dir = example_directory();
        let q = QueryKeywords::new(["nonexistent", "latte"]).unwrap();
        let prepared = PreparedQuery::prepare(&q, &dir, 0.1).unwrap();
        assert_eq!(prepared.words()[0].kind, WordKind::Unknown);
        assert!(prepared.words()[0].candidates.is_empty());
        assert!(prepared.words()[0].id.is_none());
        // The other word still works.
        assert!(!prepared.words()[1].candidates.is_empty());
    }
}
