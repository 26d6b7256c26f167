//! Route words `RW(R)` (Definition 5), keyword relevance `ρ_QW(R)`
//! (Definition 6), and the incremental [`CoverageTracker`] used by the search
//! engine.

use crate::directory::KeywordDirectory;
use crate::intern::WordId;
use crate::query::PreparedQuery;
use indoor_space::{IndoorSpace, Route, RouteItem};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Computes the route words `RW(R)` of Definition 5: the union of the i-words
/// of all partitions relevant to the route's items, where a door's relevant
/// partitions are `D2P@(door)` and a point's relevant partition is its host
/// partition.
pub fn route_words(
    route: &Route,
    space: &IndoorSpace,
    directory: &KeywordDirectory,
) -> BTreeSet<WordId> {
    let mut words = BTreeSet::new();
    let add_point = |p: &indoor_space::IndoorPoint, words: &mut BTreeSet<WordId>| {
        if let Ok(v) = space.host_partition(p) {
            if let Some(iw) = directory.partition_iword(v) {
                words.insert(iw);
            }
        }
    };
    match route.start() {
        RouteItem::Point(p) => add_point(p, &mut words),
        RouteItem::Door(d) => {
            for &v in space.d2p_leave(*d) {
                if let Some(iw) = directory.partition_iword(v) {
                    words.insert(iw);
                }
            }
        }
    }
    for &d in route.doors() {
        for &v in space.d2p_leave(d) {
            if let Some(iw) = directory.partition_iword(v) {
                words.insert(iw);
            }
        }
    }
    if let Some(t) = route.terminal() {
        match t {
            RouteItem::Point(p) => add_point(p, &mut words),
            RouteItem::Door(d) => {
                for &v in space.d2p_leave(*d) {
                    if let Some(iw) = directory.partition_iword(v) {
                        words.insert(iw);
                    }
                }
            }
        }
    }
    words
}

/// The keyword relevance model of Definition 6.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelevanceModel;

impl RelevanceModel {
    /// Computes `ρ_QW(R)` from the per-query-word best similarity scores
    /// (`best[i]` is `max_{w ∈ M(wQ_i, R)} s(w)` or 0 when the i-th keyword is
    /// not covered).
    ///
    /// `ρ = 0` when nothing is covered; otherwise
    /// `ρ = N + (Σ best over covered) / N`, with `N` the number of covered
    /// keywords. Range: `{0} ∪ (1, |QW| + 1]`.
    ///
    /// Counts and sums the covered keywords in one pass, in index order, so
    /// scoring a stamp allocates nothing.
    pub fn relevance_from_best(best: &[f64]) -> f64 {
        let (n, sum) = best
            .iter()
            .filter(|&&s| s > 0.0)
            .fold((0usize, 0.0), |(n, sum), &s| (n + 1, sum + s));
        if n == 0 {
            return 0.0;
        }
        n as f64 + sum / n as f64
    }

    /// Computes `ρ_QW(R)` directly from a set of route words.
    pub fn relevance_of_words(
        words: &BTreeSet<WordId>,
        query: &PreparedQuery,
        directory: &KeywordDirectory,
    ) -> f64 {
        let best: Vec<f64> = (0..query.len())
            .map(|idx| {
                words
                    .iter()
                    .filter_map(|&w| query.similarity(directory, idx, w))
                    .fold(0.0, f64::max)
            })
            .collect();
        Self::relevance_from_best(&best)
    }

    /// Computes `ρ_QW(R)` for a full route (convenience wrapper combining
    /// [`route_words`] and [`RelevanceModel::relevance_of_words`]).
    pub fn relevance_of_route(
        route: &Route,
        space: &IndoorSpace,
        directory: &KeywordDirectory,
        query: &PreparedQuery,
    ) -> f64 {
        let words = route_words(route, space, directory);
        Self::relevance_of_words(&words, query, directory)
    }
}

/// Incremental coverage state carried by every search stamp.
///
/// The tracker records, for each query keyword, the best similarity of any
/// matching i-word seen so far on the route. Adding the i-words encountered
/// when the route is extended keeps the keyword relevance up to date in
/// `O(|QW|)` per i-word instead of recomputing Definition 6 from scratch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageTracker {
    best: Vec<f64>,
}

impl CoverageTracker {
    /// A tracker for a query with `num_words` keywords, with nothing covered.
    pub fn new(num_words: usize) -> Self {
        CoverageTracker {
            best: vec![0.0; num_words],
        }
    }

    /// Registers an i-word seen on the route by its per-keyword
    /// similarities, as [`PreparedQuery::push_similarities`] lists them (0
    /// where it is no candidate): every query keyword it matches better
    /// than any earlier i-word takes its similarity.
    pub fn add_similarities(&mut self, similarities: &[f64]) {
        for (slot, &s) in self.best.iter_mut().zip(similarities) {
            if s > *slot {
                *slot = s;
            }
        }
    }

    /// Number of query keywords covered so far (`N_QW(R)`).
    pub fn covered_count(&self) -> usize {
        self.best.iter().filter(|&&s| s > 0.0).count()
    }

    /// Whether every query keyword is covered with the maximum similarity 1,
    /// i.e. `ρ(R) = |QW| + 1` — the condition of Algorithm 5 line 11.
    pub fn is_fully_covered(&self) -> bool {
        self.best.iter().all(|&s| (s - 1.0).abs() < 1e-12)
    }

    /// Whether the `idx`-th query keyword is covered.
    pub fn is_word_covered(&self, idx: usize) -> bool {
        self.best.get(idx).map(|&s| s > 0.0).unwrap_or(false)
    }

    /// Current keyword relevance `ρ` of the tracked route.
    pub fn relevance(&self) -> f64 {
        RelevanceModel::relevance_from_best(&self.best)
    }

    /// The per-keyword best similarities.
    pub fn best_similarities(&self) -> &[f64] {
        &self.best
    }

    /// Estimated heap size in bytes.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.best.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryKeywords;
    use indoor_space::PartitionId;

    fn example_directory() -> KeywordDirectory {
        let mut dir = KeywordDirectory::new();
        let costa = dir.add_iword("costa").unwrap();
        let apple = dir.add_iword("apple").unwrap();
        let starbucks = dir.add_iword("starbucks").unwrap();
        let samsung = dir.add_iword("samsung").unwrap();
        let zara = dir.add_iword("zara").unwrap();
        let oppo = dir.add_iword("oppo").unwrap();
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
        for t in ["pants", "sweater"] {
            dir.add_tword_for(zara, t);
        }
        for t in ["phone", "earphone"] {
            dir.add_tword_for(oppo, t);
        }
        for (v, w) in [
            (1u32, "zara"),
            (2, "oppo"),
            (3, "costa"),
            (7, "starbucks"),
            (10, "apple"),
            (12, "samsung"),
        ] {
            let id = dir.lookup(w).unwrap();
            dir.name_partition(PartitionId(v), id).unwrap();
        }
        dir
    }

    fn prepared(dir: &KeywordDirectory, words: &[&str]) -> PreparedQuery {
        let q = QueryKeywords::new(words.iter().copied()).unwrap();
        PreparedQuery::prepare(&q, dir, 0.5).unwrap()
    }

    #[test]
    fn relevance_from_best_matches_definition_6() {
        // Nothing covered.
        assert_eq!(RelevanceModel::relevance_from_best(&[0.0, 0.0]), 0.0);
        // One of two covered with similarity 0.75: 1 + 0.75/1 = 1.75 (Example 6, R1).
        assert!((RelevanceModel::relevance_from_best(&[0.75, 0.0]) - 1.75).abs() < 1e-9);
        // Both covered with similarity 1: 2 + 2/2 = 3 (Example 6, R2).
        assert!((RelevanceModel::relevance_from_best(&[1.0, 1.0]) - 3.0).abs() < 1e-9);
        // Range check: always in {0} ∪ (1, |QW|+1].
        let r = RelevanceModel::relevance_from_best(&[0.2, 0.0, 0.0]);
        assert!(r > 1.0 && r <= 4.0);
    }

    #[test]
    fn relevance_of_words_uses_max_similarity_per_keyword() {
        let dir = example_directory();
        let q = prepared(&dir, &["latte", "apple"]);
        // Route words {zara, oppo, costa}: latte covered by costa (0.75),
        // apple not covered => 1.75 (Example 6, route R1).
        let words: BTreeSet<WordId> = ["zara", "oppo", "costa"]
            .iter()
            .map(|w| dir.lookup(w).unwrap())
            .collect();
        assert!((RelevanceModel::relevance_of_words(&words, &q, &dir) - 1.75).abs() < 1e-9);
        // Route words {apple, starbucks, costa}: latte covered by starbucks
        // (1.0 beats costa's 0.75), apple covered => 3.0 (Example 6, route R2).
        let words: BTreeSet<WordId> = ["apple", "starbucks", "costa"]
            .iter()
            .map(|w| dir.lookup(w).unwrap())
            .collect();
        assert!((RelevanceModel::relevance_of_words(&words, &q, &dir) - 3.0).abs() < 1e-9);
    }

    /// Credits an i-word to a tracker through its similarity row, as a
    /// search does.
    fn credit(t: &mut CoverageTracker, q: &PreparedQuery, dir: &KeywordDirectory, word: &str) {
        let mut row = Vec::new();
        q.push_similarities(dir, dir.lookup(word).unwrap(), &mut row);
        t.add_similarities(&row);
    }

    #[test]
    fn tracker_is_incremental_and_monotone() {
        let dir = example_directory();
        let q = prepared(&dir, &["latte", "apple"]);
        let mut t = CoverageTracker::new(q.len());
        assert_eq!(t.relevance(), 0.0);
        assert_eq!(t.covered_count(), 0);
        assert!(!t.is_fully_covered());
        credit(&mut t, &q, &dir, "costa");
        assert!((t.relevance() - 1.75).abs() < 1e-9);
        assert!(t.is_word_covered(0));
        assert!(!t.is_word_covered(1));
        // Adding a better match for the same keyword improves it.
        credit(&mut t, &q, &dir, "starbucks");
        assert!((t.relevance() - 2.0).abs() < 1e-9);
        // Adding an unrelated i-word changes nothing.
        credit(&mut t, &q, &dir, "zara");
        assert!((t.relevance() - 2.0).abs() < 1e-9);
        credit(&mut t, &q, &dir, "apple");
        assert!((t.relevance() - 3.0).abs() < 1e-9);
        assert!(t.is_fully_covered());
        assert_eq!(t.covered_count(), 2);
        assert_eq!(t.best_similarities().len(), 2);
        assert!(t.estimated_bytes() > 0);
    }

    #[test]
    fn similarity_rows_match_the_batch_relevance() {
        let dir = example_directory();
        let q = prepared(&dir, &["latte", "apple"]);
        let words: BTreeSet<WordId> = ["apple", "starbucks", "costa"]
            .iter()
            .map(|w| dir.lookup(w).unwrap())
            .collect();
        let mut t = CoverageTracker::new(q.len());
        for w in ["costa", "starbucks", "apple"] {
            credit(&mut t, &q, &dir, w);
        }
        assert_eq!(t.best_similarities(), [1.0, 1.0]);
        assert!(
            (t.relevance() - RelevanceModel::relevance_of_words(&words, &q, &dir)).abs() < 1e-9
        );
    }

    #[test]
    fn out_of_range_word_index_is_not_covered() {
        let t = CoverageTracker::new(2);
        assert!(!t.is_word_covered(7));
    }
}
