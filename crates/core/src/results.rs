//! Top-k result maintenance, the `kbound`, and the homogeneous-rate metric
//! of §V-A4.

use crate::metrics::SearchMetrics;
use indoor_space::{DoorId, PartitionId, Route};
use serde::{Deserialize, Serialize};

/// One route in the result set, with the quantities of Definition 6/7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultRoute {
    /// The complete route from `ps` to `pt`.
    pub route: Route,
    /// Route distance `δ(R)`.
    pub distance: f64,
    /// Keyword relevance `ρ(R)`.
    pub relevance: f64,
    /// Ranking score `ψ(R)`.
    pub score: f64,
    /// Homogeneity key of the route: tail door and key-partition sequence.
    /// Two result routes with equal keys are homogeneous (Definition 2).
    pub homogeneity_key: (Option<DoorId>, Vec<PartitionId>),
}

/// The top-k result set of a search run.
///
/// When `enforce_prime` is set (all variants except ToE\P), homogeneous
/// routes replace each other so only the prime representative remains; when
/// it is not, homogeneous routes coexist and the
/// [`TopKResults::homogeneous_rate`] metric becomes meaningful (Fig. 16 and
/// Fig. 20 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopKResults {
    k: usize,
    enforce_prime: bool,
    entries: Vec<ResultRoute>,
}

impl TopKResults {
    /// Creates an empty result set for a given `k`. The set grows as routes
    /// arrive (never past `k + 1`), so a huge `k` costs nothing up front.
    pub fn new(k: usize, enforce_prime: bool) -> Self {
        TopKResults {
            k,
            enforce_prime,
            entries: Vec::new(),
        }
    }

    /// The `k` of the query.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The routes currently held, best score first.
    pub fn routes(&self) -> &[ResultRoute] {
        &self.entries
    }

    /// Number of routes currently held (≤ k).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no route has been found yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The best route, if any.
    pub fn best(&self) -> Option<&ResultRoute> {
        self.entries.first()
    }

    /// The current `kbound`: the k-th highest ranking score among the routes
    /// found so far, or 0 when fewer than `k` routes are known (Algorithm 1
    /// line 5 initialises it to 0).
    pub fn kbound(&self) -> f64 {
        if self.entries.len() >= self.k {
            self.entries[self.k - 1].score
        } else {
            0.0
        }
    }

    /// Offers a complete route to the result set. Returns `true` when the
    /// result set changed.
    pub fn offer(&mut self, candidate: ResultRoute) -> bool {
        if self.enforce_prime {
            // Replace an existing homogeneous route when the candidate is
            // prime against it (strictly shorter); otherwise reject the
            // candidate so the result set stays diverse.
            if let Some(pos) = self
                .entries
                .iter()
                .position(|e| e.homogeneity_key == candidate.homogeneity_key)
            {
                if candidate.distance < self.entries[pos].distance {
                    self.entries.remove(pos);
                } else {
                    return false;
                }
            }
        }
        // Reject candidates that cannot enter the top-k.
        if self.entries.len() >= self.k {
            let worst = self.entries.last().expect("non-empty").score;
            if candidate.score <= worst {
                return false;
            }
        }
        self.entries.push(candidate);
        self.entries.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    a.distance
                        .partial_cmp(&b.distance)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
        });
        self.entries.truncate(self.k);
        true
    }

    /// The fraction of returned routes that have at least one other
    /// homogeneous route in the result set (the homogeneous rate of §V-A4).
    /// Always 0 when prime enforcement is on.
    pub fn homogeneous_rate(&self) -> f64 {
        if self.entries.len() <= 1 {
            return 0.0;
        }
        let homogeneous = self
            .entries
            .iter()
            .enumerate()
            .filter(|(i, e)| {
                self.entries
                    .iter()
                    .enumerate()
                    .any(|(j, o)| *i != j && o.homogeneity_key == e.homogeneity_key)
            })
            .count();
        homogeneous as f64 / self.entries.len() as f64
    }

    /// Estimated heap size in bytes.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .entries
                .iter()
                .map(|e| {
                    e.route.estimated_bytes()
                        + e.homogeneity_key.1.capacity() * std::mem::size_of::<PartitionId>()
                        + std::mem::size_of::<ResultRoute>()
                })
                .sum::<usize>()
    }
}

/// The outcome of one search run: the result set plus the metrics, labelled
/// with the variant that produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// Label of the algorithm variant (Table III notation).
    pub label: String,
    /// The top-k routes.
    pub results: TopKResults,
    /// Search metrics.
    pub metrics: SearchMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::{FloorId, IndoorPoint};

    fn entry(score: f64, distance: f64, key_tail: u32, key_parts: &[u32]) -> ResultRoute {
        ResultRoute {
            route: Route::from_point(IndoorPoint::from_xy(0.0, 0.0, FloorId(0))),
            distance,
            relevance: 1.0,
            score,
            homogeneity_key: (
                Some(DoorId(key_tail)),
                key_parts.iter().map(|&p| PartitionId(p)).collect(),
            ),
        }
    }

    #[test]
    fn keeps_top_k_by_score() {
        let mut r = TopKResults::new(2, true);
        assert!(r.is_empty());
        assert_eq!(r.kbound(), 0.0);
        assert!(r.offer(entry(0.3, 10.0, 1, &[1])));
        assert_eq!(r.kbound(), 0.0, "kbound stays 0 until k routes are known");
        assert!(r.offer(entry(0.5, 12.0, 2, &[2])));
        assert!((r.kbound() - 0.3).abs() < 1e-12);
        // A better route evicts the worst.
        assert!(r.offer(entry(0.7, 20.0, 3, &[3])));
        assert_eq!(r.len(), 2);
        assert!((r.kbound() - 0.5).abs() < 1e-12);
        assert!((r.best().unwrap().score - 0.7).abs() < 1e-12);
        // A route worse than the current k-th is rejected.
        assert!(!r.offer(entry(0.2, 5.0, 4, &[4])));
        assert_eq!(r.k(), 2);
        assert!(r.estimated_bytes() > 0);
    }

    #[test]
    fn prime_enforcement_replaces_homogeneous_routes() {
        let mut r = TopKResults::new(3, true);
        assert!(r.offer(entry(0.6, 30.0, 1, &[1, 2])));
        // A homogeneous but longer route is rejected even though its score
        // would fit.
        assert!(!r.offer(entry(0.55, 35.0, 1, &[1, 2])));
        assert_eq!(r.len(), 1);
        // A homogeneous shorter (prime) route replaces the stored one.
        assert!(r.offer(entry(0.65, 25.0, 1, &[1, 2])));
        assert_eq!(r.len(), 1);
        assert!((r.best().unwrap().distance - 25.0).abs() < 1e-12);
        assert_eq!(r.homogeneous_rate(), 0.0);
    }

    #[test]
    fn without_prime_enforcement_homogeneous_routes_coexist() {
        let mut r = TopKResults::new(4, false);
        assert!(r.offer(entry(0.6, 30.0, 1, &[1, 2])));
        assert!(r.offer(entry(0.55, 35.0, 1, &[1, 2])));
        assert!(r.offer(entry(0.5, 40.0, 2, &[1, 3])));
        assert_eq!(r.len(), 3);
        // Two of the three routes are homogeneous with another one.
        assert!((r.homogeneous_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_huge_k_reserves_nothing_up_front() {
        // `k` comes straight from a request; sizing the set by it used to
        // overflow `k + 1` here and abort the process on allocation.
        let mut r = TopKResults::new(usize::MAX, true);
        assert_eq!(r.k(), usize::MAX);
        assert_eq!(r.kbound(), 0.0);
        assert!(r.offer(entry(0.3, 10.0, 1, &[1])));
        assert!(r.offer(entry(0.5, 12.0, 2, &[2])));
        assert_eq!(r.len(), 2);
        assert_eq!(r.kbound(), 0.0, "fewer than k routes are known");
    }

    #[test]
    fn homogeneous_rate_of_singletons_is_zero() {
        let mut r = TopKResults::new(4, false);
        assert_eq!(r.homogeneous_rate(), 0.0);
        r.offer(entry(0.6, 30.0, 1, &[1]));
        assert_eq!(r.homogeneous_rate(), 0.0);
    }
}
