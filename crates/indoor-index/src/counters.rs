//! Cumulative index-usage counters.
//!
//! Mirrors the reactor counter pattern from `ikrq-server`: cheap relaxed
//! atomics bumped on the query path, snapshotted for `/v1/stats`. The
//! counters live on the index (not in per-query `SearchMetrics`) so both
//! engine modes produce identical per-response metric bodies.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters for one venue's index.
#[derive(Debug, Default)]
pub struct IndexCounters {
    /// Queries whose keyword preparation went through the index engine's
    /// association walk.
    pub queries_accelerated: AtomicU64,
    /// Region detour bounds computed: one per region holding a partition
    /// of a query's routing set, when KoE builds that set with Rule 3 on.
    pub regions_tested: AtomicU64,
    /// Regions whose bound exceeded the distance constraint, so that their
    /// routing-set partitions were dropped without their own bounds.
    pub regions_pruned: AtomicU64,
    /// Routing-set partitions dropped by a failed region (work the scan
    /// path spends on per-partition bounds).
    pub candidates_pruned: AtomicU64,
}

impl IndexCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> IndexCounterSnapshot {
        IndexCounterSnapshot {
            queries_accelerated: self.queries_accelerated.load(Ordering::Relaxed),
            regions_tested: self.regions_tested.load(Ordering::Relaxed),
            regions_pruned: self.regions_pruned.load(Ordering::Relaxed),
            candidates_pruned: self.candidates_pruned.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time counter values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCounterSnapshot {
    /// See [`IndexCounters::queries_accelerated`].
    pub queries_accelerated: u64,
    /// See [`IndexCounters::regions_tested`].
    pub regions_tested: u64,
    /// See [`IndexCounters::regions_pruned`].
    pub regions_pruned: u64,
    /// See [`IndexCounters::candidates_pruned`].
    pub candidates_pruned: u64,
}

impl IndexCounterSnapshot {
    /// Elementwise sum, for aggregating across venues.
    pub fn add(&mut self, other: &IndexCounterSnapshot) {
        self.queries_accelerated += other.queries_accelerated;
        self.regions_tested += other.regions_tested;
        self.regions_pruned += other.regions_pruned;
        self.candidates_pruned += other.candidates_pruned;
    }
}
