//! Query keyword lists and their prepared (candidate-expanded) form.

use crate::directory::KeywordDirectory;
use crate::error::KeywordError;
use crate::intern::WordId;
use crate::similarity::{jaccard, CandidateSet};
use crate::vocab::WordKind;
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
///
/// Preparation does not expand the keyword's candidate i-word set `κ(wQ)`
/// (Definition 4): it keeps what evaluating one i-word against it needs,
/// the union `U` of a t-word's direct matches' t-words.
/// [`PreparedQuery::similarity`] then scores any i-word on demand, equal bit
/// for bit to the entry [`CandidateSet::build`] would give it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreparedWord {
    /// Raw string as given by the user.
    pub raw: String,
    /// Interned id when the word exists in the venue vocabulary.
    pub id: Option<WordId>,
    /// Classification against the vocabulary.
    pub kind: WordKind,
    /// For a t-word: the union `U` of the t-words of its direct matches
    /// `T2I(wQ)`, sorted. Empty otherwise.
    union: Vec<WordId>,
}

impl PreparedWord {
    /// The similarity of `iword`, whose t-words are `twords` (`I2T(iword)`),
    /// under Definition 4: 1 for the keyword itself or a direct match, the
    /// Jaccard similarity of `twords` and `U` when it exceeds `tau`, and no
    /// match otherwise. [`CandidateSet::build`] computes the same values.
    /// `iword` is a direct match exactly when `wQ ∈ I2T(iword)`: the
    /// directory keeps `I2T` and `T2I` transposes of each other.
    fn similarity(&self, iword: WordId, twords: &[WordId], tau: f64) -> Option<f64> {
        match (self.kind, self.id) {
            (WordKind::IWord, id) => (id == Some(iword)).then_some(1.0),
            (WordKind::TWord, Some(tword)) => {
                if twords.binary_search(&tword).is_ok() {
                    return Some(1.0);
                }
                let s = jaccard(twords, &self.union);
                (s > tau).then_some(s)
            }
            _ => None,
        }
    }
}

/// A query keyword list prepared against a venue: every keyword classified,
/// and a t-word's Definition-4 union `U` computed, so that the similarity of
/// any i-word can be evaluated when a search meets it. Preparation still
/// walks every direct match of a t-word, `O(|T2I(wQ)| · |I2T| · log |U|)`,
/// and does nothing per venue partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreparedQuery {
    words: Vec<PreparedWord>,
    tau: f64,
}

impl PreparedQuery {
    /// Prepares a query keyword list against a venue's keyword directory with
    /// similarity threshold `tau`. A `tau` outside `[0, 1]` is rejected
    /// when some keyword is in the vocabulary, as [`CandidateSet::build`]
    /// rejects it.
    pub fn prepare(query: &QueryKeywords, directory: &KeywordDirectory, tau: f64) -> Result<Self> {
        let mut words = Vec::with_capacity(query.len());
        for raw in query.words() {
            let (id, kind) = directory.classify(raw);
            if id.is_some() && !(0.0..=1.0).contains(&tau) {
                return Err(KeywordError::InvalidThreshold(tau));
            }
            // A t-word's direct matches hold hundreds of t-word
            // occurrences for a union of a dozen: each goes into the
            // sorted union by bisection.
            let mut union = Vec::new();
            if let (Some(tword), WordKind::TWord) = (id, kind) {
                for &iw in directory.mappings().t2i(tword) {
                    for &t in directory.twords_of(iw) {
                        if let Err(at) = union.binary_search(&t) {
                            union.insert(at, t);
                        }
                    }
                }
            }
            words.push(PreparedWord {
                raw: raw.clone(),
                id,
                kind,
                union,
            });
        }
        Ok(PreparedQuery { words, tau })
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

    /// The similarity of `iword` for the `idx`-th query keyword, if it is one
    /// of that keyword's candidates: the entry [`CandidateSet::build`] gives
    /// it, bit for bit.
    pub fn similarity(
        &self,
        directory: &KeywordDirectory,
        idx: usize,
        iword: WordId,
    ) -> Option<f64> {
        let twords = directory.twords_of(iword);
        self.words.get(idx)?.similarity(iword, twords, self.tau)
    }

    /// Appends the similarity of `iword` for every query keyword, in query
    /// order, to `out`: [`PreparedQuery::similarity`], with 0 for a keyword
    /// of which it is no candidate (every candidate scores above 0).
    pub fn push_similarities(
        &self,
        directory: &KeywordDirectory,
        iword: WordId,
        out: &mut Vec<f64>,
    ) {
        let twords = directory.twords_of(iword);
        out.extend(
            self.words
                .iter()
                .map(|w| w.similarity(iword, twords, self.tau).unwrap_or(0.0)),
        );
    }

    /// The candidate set `κ(wQ)` of the `idx`-th keyword, expanded on
    /// demand with [`CandidateSet::by_association`]. Searches never call
    /// it; it serves reports and tests.
    pub fn candidates(&self, directory: &KeywordDirectory, idx: usize) -> Result<CandidateSet> {
        match self.words.get(idx).and_then(|w| w.id) {
            Some(id) => {
                CandidateSet::by_association(id, directory.vocab(), directory.mappings(), self.tau)
            }
            None => Ok(CandidateSet::default()),
        }
    }

    /// The union of all candidate i-words, `Wci` of Algorithm 1 line 2,
    /// expanded on demand (see [`PreparedQuery::candidates`]).
    pub fn candidate_iwords(&self, directory: &KeywordDirectory) -> BTreeSet<WordId> {
        (0..self.len())
            .filter_map(|idx| self.candidates(directory, idx).ok())
            .flat_map(|set| set.iwords().collect::<Vec<_>>())
            .collect()
    }

    /// The maximum possible keyword relevance, `|QW| + 1` (reached when every
    /// keyword matches an i-word with similarity 1; see Definition 6).
    pub fn max_relevance(&self) -> f64 {
        self.len() as f64 + 1.0
    }

    /// The key partitions of the query over the whole venue, sorted and
    /// duplicate-free: every partition identified by any candidate i-word
    /// (the `I2P` rows of `Wci`, Algorithm 1 line 3 before the
    /// start/terminal adjustment). Expanded on demand; a search collects
    /// only the key partitions near its `∆`-ellipse.
    pub fn key_partitions(&self, directory: &KeywordDirectory) -> Vec<PartitionId> {
        let mut out: Vec<PartitionId> = self
            .candidate_iwords(directory)
            .iter()
            .flat_map(|&iw| directory.partitions_of(iw).iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Estimated heap size in bytes.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .words
                .iter()
                .map(|w| {
                    std::mem::size_of::<PreparedWord>()
                        + w.raw.capacity()
                        + w.union.capacity() * std::mem::size_of::<WordId>()
                })
                .sum::<usize>()
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
        assert!((prepared.similarity(&dir, 0, starbucks).unwrap() - 1.0).abs() < 1e-9);
        assert!((prepared.similarity(&dir, 0, costa).unwrap() - 0.75).abs() < 1e-9);
        assert!(prepared.similarity(&dir, 0, apple).is_none());
        // κ(apple) = {(apple, 1)}
        assert_eq!(prepared.words()[1].kind, WordKind::IWord);
        assert!((prepared.similarity(&dir, 1, apple).unwrap() - 1.0).abs() < 1e-9);
        let mut row = Vec::new();
        prepared.push_similarities(&dir, costa, &mut row);
        assert_eq!(row, [0.75, 0.0]);

        // Wci = {starbucks, costa, apple}
        assert_eq!(prepared.candidate_iwords(&dir).len(), 3);
        assert!(prepared.candidate_iwords(&dir).contains(&costa));
        assert!(!prepared
            .candidate_iwords(&dir)
            .contains(&dir.lookup("samsung").unwrap()));

        // Key partitions: v3 (costa), v7 (starbucks), v10 (apple).
        assert_eq!(
            prepared.key_partitions(&dir),
            [PartitionId(3), PartitionId(7), PartitionId(10)]
        );
        assert!(prepared.estimated_bytes() > 0);
    }

    #[test]
    fn unknown_words_yield_empty_candidates() {
        let dir = example_directory();
        let q = QueryKeywords::new(["nonexistent", "latte"]).unwrap();
        let prepared = PreparedQuery::prepare(&q, &dir, 0.1).unwrap();
        assert_eq!(prepared.words()[0].kind, WordKind::Unknown);
        assert!(prepared.candidates(&dir, 0).unwrap().is_empty());
        assert!(prepared.words()[0].id.is_none());
        // The other word still works.
        assert!(!prepared.candidates(&dir, 1).unwrap().is_empty());
    }
}
