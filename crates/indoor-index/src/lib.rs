//! # indoor-index — venue-scale query indexing
//!
//! The search engine's original candidate generation is linear in venue
//! size: `CandidateSet::build` scans the whole i-word vocabulary per query
//! keyword, and KoE's Rule-3 detour test evaluates every candidate
//! partition on its own. Both are fine at mall scale (≲150 partitions) and
//! collapse at airport/stadium scale (10⁴–10⁵ partitions). This crate
//! removes the linear scans behind APIs that keep query results
//! **byte-identical** to the scan path. (KoE*'s door-to-door paths are not
//! part of the index: each search computes the `∆`-bounded ones it needs,
//! see `ikrq-core`'s `koe` module.)
//!
//! ## Layout
//!
//! 1. **Keyword preparation** keeps no tables of its own.
//!    [`VenueIndex::prepare_query`] expands each query keyword with
//!    [`CandidateSet::by_association`], which walks the directory's own
//!    sorted `T2I`/`I2T` rows: it scores only the i-words sharing at least
//!    one t-word with the Definition-4 union — exactly the set the
//!    vocabulary scan keeps — so the produced [`CandidateSet`] is equal,
//!    entry for entry, to the scan-built one (cross-checked by tests in
//!    `indoor-keywords` and a mirrored proptest in `ikrq-core`).
//!
//! 2. **[`RegionIndex`]** — a coarse spatial containment layer in the
//!    QDR-Tree spirit: per-floor grid regions over the partition graph,
//!    each with (a) a bounding box *expanded to cover every member door
//!    position*, (b) the set of floors touched by any member door (stair
//!    doors touch two floors), (c) the member partition list, and (d) a
//!    keyword summary bitmap over the dense set of partition-naming
//!    i-words. When KoE builds a query's routing set, its Rule-3 detour
//!    test consults the region's lower bound first, computed once per
//!    region: when it already exceeds the distance constraint `delta`,
//!    every member partition is pruned in one test.
//!
//!    *Invariant (region bound soundness):* for every member partition `v`
//!    and points `ps`, `pt`,
//!    `region_detour_lower_bound(R, ps, pt) ≤ partition_detour_lower_bound(ps, v, pt)`.
//!    This holds because the region box contains every enter/leave door of
//!    every member, the region floor set contains every floor those doors
//!    touch, and intra-partition distances are non-negative — so the
//!    skeleton lower bound from a point to any member door dominates the
//!    point-to-region term, and the intra-partition leg dominates zero.
//!    Both space constructors reject NaN and negative distance overrides,
//!    so the last step holds for every venue. Region pruning therefore
//!    never changes results: a region prunes only when every one of its
//!    members would have been pruned individually by the same Rule-3
//!    comparison.
//!
//! ## When regions prune
//!
//! A region prunes (fails) for a query iff
//! `lb(ps, R) + lb(pt, R) > delta`, where `lb(p, R)` is the minimum over
//! (i) the planar distance from `p` to the region box when `p`'s floor is
//! in the region floor set, and (ii) stair-door routes
//! `|p, sd_a| + s2s(sd_a, sd_b) + |sd_b, box|` for every stair-door pair
//! bridging `p`'s floor to a region floor. KoE applies Rule 3 once per
//! query, when it builds its routing set: a failed region answers every
//! member test of that build from one verdict, and a passed region falls
//! through to the member's own bound, so prune decisions — and the
//! recorded prune metrics — match the scan path exactly.
//!
//! [`VenueIndex`] holds the region layer with cumulative observability
//! counters ([`IndexCounters`], surfaced on the server's `/v1/stats`) and
//! records its own build time and estimated heap footprint so benchmarks
//! and the stats endpoint can report index cost honestly.
//!
//! [`CandidateSet`]: indoor_keywords::CandidateSet
//! [`CandidateSet::by_association`]: indoor_keywords::CandidateSet::by_association

pub mod counters;
pub mod regions;

pub use counters::{IndexCounterSnapshot, IndexCounters};
pub use regions::{Region, RegionIndex};

use indoor_keywords::{
    CandidateSet, KeywordDirectory, PreparedQuery, QueryKeywords, Result as KeywordResult,
};
use indoor_space::IndoorSpace;
use std::time::Instant;

/// The per-venue query index: the spatial region layer, with build-time and
/// usage observability. One instance is owned by each index-accelerated
/// `IkrqEngine` and shared read-only across query threads (interior
/// mutability is confined to the atomic counters).
#[derive(Debug)]
pub struct VenueIndex {
    regions: RegionIndex,
    counters: IndexCounters,
    build_micros: u64,
    loaded_from_disk: bool,
}

impl VenueIndex {
    /// Builds the index for a venue. Build cost is `O(vocabulary +
    /// partitions + doors)` — no all-pairs products — and is recorded in
    /// [`VenueIndex::build_micros`].
    pub fn build(space: &IndoorSpace, directory: &KeywordDirectory) -> Self {
        let started = Instant::now();
        let regions = RegionIndex::build(space, directory);
        let build_micros = started.elapsed().as_micros() as u64;
        VenueIndex {
            regions,
            counters: IndexCounters::new(),
            build_micros,
            loaded_from_disk: false,
        }
    }

    /// Reassembles an index from persisted parts (the pre-built index
    /// section of a venue file). `build_micros` records the decode time —
    /// what acquiring the index actually cost this process — and
    /// [`VenueIndex::loaded_from_disk`] reports `true` so `/v1/stats` can
    /// distinguish loaded venues from freshly indexed ones.
    pub fn from_parts(regions: RegionIndex, build_micros: u64) -> Self {
        VenueIndex {
            regions,
            counters: IndexCounters::new(),
            build_micros,
            loaded_from_disk: true,
        }
    }

    /// Whether this index was decoded from a persisted section rather than
    /// built from the venue.
    pub fn loaded_from_disk(&self) -> bool {
        self.loaded_from_disk
    }

    /// The spatial region layer.
    pub fn regions(&self) -> &RegionIndex {
        &self.regions
    }

    /// Cumulative usage counters (shared, atomic).
    pub fn counters(&self) -> &IndexCounters {
        &self.counters
    }

    /// Wall-clock build time in microseconds.
    pub fn build_micros(&self) -> u64 {
        self.build_micros
    }

    /// Estimated heap footprint of the index structures in bytes.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.regions.estimated_bytes()
    }

    /// Prepares a query against the venue by walking the directory's
    /// keyword associations ([`CandidateSet::by_association`]) instead of
    /// scanning the vocabulary. The result is equal to
    /// [`PreparedQuery::prepare`] on the same inputs — same words, same
    /// candidate sets, same similarity scores, same error behaviour — which
    /// is what keeps index-mode search responses byte-identical to scan
    /// mode.
    pub fn prepare_query(
        &self,
        query: &QueryKeywords,
        directory: &KeywordDirectory,
        tau: f64,
    ) -> KeywordResult<PreparedQuery> {
        PreparedQuery::prepare_with(query, directory, tau, CandidateSet::by_association)
    }
}
