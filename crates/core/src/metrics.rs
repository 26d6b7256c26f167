//! Search metrics: running time, memory accounting and search-effort
//! counters. These are the quantities the paper's experiments report
//! (running time per query instance and memory cost).

use crate::pruning::PruneStats;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// Metrics collected during one search run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchMetrics {
    /// Wall-clock running time of the search.
    #[serde(with = "duration_millis")]
    pub elapsed: Duration,
    /// Peak of the deterministic byte accounting of all live search state,
    /// the sum of:
    /// * the queue of fixed-size stamps;
    /// * the route tree the stamps name, one node per door a built child
    ///   added;
    /// * the key-partition classes (sequences, per-keyword similarities,
    ///   `ρ`, and the lookup and step tables);
    /// * the prime table `Hprime`, one key and distance per class;
    /// * the results, the visited-door verdicts `Dn`/`Df` and the door
    ///   bounds of Rule 1 (a door id twice per verdict, a door id and a
    ///   bound per bound), the keyword rows of the partitions met, and
    ///   KoE's routing set;
    /// * while KoE* expands a stamp, the door row it expands from.
    ///
    /// The venue and its index are shared, not search state, and are not
    /// counted. Neither is the per-thread scratch whose door and partition
    /// slots hold the verdicts, bounds and row offsets: it belongs to the
    /// thread and outlives the search, so only the entries a search wrote
    /// count. This is the reproduction's substitute for the paper's JVM
    /// heap measurements; relative comparisons between algorithms are
    /// meaningful.
    pub peak_memory_bytes: usize,
    /// Number of stamps popped from the priority queue and expanded.
    pub stamps_expanded: u64,
    /// Number of stamps generated by `find()` calls: every child that
    /// passes the distance constraint and Pruning Rules 1 and 4, including
    /// the children Pruning Rule 5 rejects before they are built.
    pub stamps_generated: u64,
    /// Number of complete routes that reached the terminal point and passed
    /// the query constraints.
    pub complete_routes: u64,
    /// Maximum length of the priority queue.
    pub queue_peak_len: usize,
    /// Number of single-source shortest-path computations performed. KoE's
    /// initial stamp makes one per leavable door of `v(ps)`, each settling
    /// the ellipse; a stamp at a door makes one that stops once it has
    /// popped the doors of its jumps, and a stamp without jumps one that
    /// stops at its own door, which counts too. For KoE* a stamp at a door
    /// adds one for its run without exclusions and one more when a path of
    /// that run breaks regularity.
    pub dijkstra_calls: u64,
    /// Number of shortest-path recomputations forced by failed regularity
    /// checks against KoE*'s runs without exclusions (KoE* only). Such a
    /// run settles only the doors within the remaining budget and inside
    /// the `∆`-ellipse; a target it leaves unsettled cannot be reached, or
    /// cannot reach `pt`, within `∆`, and is dropped without a
    /// recomputation and without a prune.
    pub precomputed_path_recomputations: u64,
    /// Per-rule pruning counters.
    pub prunes: PruneStats,
    /// Whether the expansion budget was exhausted before the queue drained
    /// (only possible for budgeted variants such as ToE\P).
    pub budget_exhausted: bool,
}

impl SearchMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        SearchMetrics::default()
    }

    /// Running time in milliseconds (the unit of the paper's figures).
    pub fn elapsed_millis(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3
    }

    /// Peak memory in mebibytes (the unit of the paper's figures).
    pub fn peak_memory_mb(&self) -> f64 {
        self.peak_memory_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Records a new live-memory observation, keeping the peak.
    pub fn observe_memory(&mut self, live_bytes: usize) {
        if live_bytes > self.peak_memory_bytes {
            self.peak_memory_bytes = live_bytes;
        }
    }

    /// Records a new queue length observation, keeping the peak.
    pub fn observe_queue_len(&mut self, len: usize) {
        if len > self.queue_peak_len {
            self.queue_peak_len = len;
        }
    }
}

impl fmt::Display for SearchMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} ms, {:.2} MB peak, {} expanded / {} generated stamps, {} complete routes, {} dijkstra calls, prunes: {}{}",
            self.elapsed_millis(),
            self.peak_memory_mb(),
            self.stamps_expanded,
            self.stamps_generated,
            self.complete_routes,
            self.dijkstra_calls,
            self.prunes,
            if self.budget_exhausted { " (budget exhausted)" } else { "" },
        )
    }
}

/// Serde helper storing `Duration` as float milliseconds for stable JSON
/// experiment reports.
mod duration_millis {
    use serde::{Deserialize, Error, Value};
    use std::time::Duration;

    pub fn serialize(d: &Duration) -> Value {
        Value::Float(d.as_secs_f64() * 1e3)
    }

    pub fn deserialize(v: &Value) -> Result<Duration, Error> {
        let millis = f64::deserialize(v)?;
        Ok(Duration::from_secs_f64((millis / 1e3).max(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::PruneRule;

    #[test]
    fn unit_conversions() {
        let mut m = SearchMetrics::new();
        m.elapsed = Duration::from_millis(150);
        m.peak_memory_bytes = 3 * 1024 * 1024;
        assert!((m.elapsed_millis() - 150.0).abs() < 1e-9);
        assert!((m.peak_memory_mb() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn peak_tracking() {
        let mut m = SearchMetrics::new();
        m.observe_memory(100);
        m.observe_memory(50);
        m.observe_memory(200);
        assert_eq!(m.peak_memory_bytes, 200);
        m.observe_queue_len(3);
        m.observe_queue_len(1);
        assert_eq!(m.queue_peak_len, 3);
    }

    #[test]
    fn display_and_serde_round_trip() {
        let mut m = SearchMetrics::new();
        m.elapsed = Duration::from_millis(42);
        m.stamps_expanded = 7;
        m.prunes.record(PruneRule::Prime);
        let text = m.to_string();
        assert!(text.contains("42.00 ms"));
        assert!(text.contains("rule5_prime=1"));
        let json = serde_json::to_string(&m).unwrap();
        let back: SearchMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stamps_expanded, 7);
        assert!((back.elapsed_millis() - 42.0).abs() < 1e-6);
    }
}
