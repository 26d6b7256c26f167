//! # indoor-index — venue-scale query indexing
//!
//! The search engine's original candidate generation is linear in venue
//! size: `CandidateSet::build` scans the whole i-word vocabulary per query
//! keyword, and the KoE* distance cache (`PrecomputedPaths`) materialises
//! the full `O(doors²)` all-pairs matrix before the first query. Both are
//! fine at mall scale (≲150 partitions) and collapse at airport/stadium
//! scale (10⁴–10⁵ partitions). This crate provides the three structures
//! that remove the linear scans, behind APIs that keep query results
//! **byte-identical** to the scan path:
//!
//! ## Layout
//!
//! 1. **[`KeywordPostings`]** — an inverted keyword → partition index over
//!    interned [`WordId`]s. Three compact sorted tables (binary-searched,
//!    boxed-slice posting lists): i-word → partitions, t-word → i-words and
//!    i-word → t-words. Candidate generation for a query keyword walks only
//!    the i-words sharing at least one t-word with the Definition-4 union —
//!    exactly the set the vocabulary scan keeps after its intersection
//!    filter — so the produced [`CandidateSet`] is equal, entry for entry,
//!    to the scan-built one (cross-checked by tests and a mirrored
//!    proptest in `ikrq-core`).
//!
//! 2. **[`RegionIndex`]** — a coarse spatial containment layer in the
//!    QDR-Tree spirit: per-floor grid regions over the partition graph,
//!    each with (a) a bounding box *expanded to cover every member door
//!    position*, (b) the set of floors touched by any member door (stair
//!    doors touch two floors), (c) the member partition list, and (d) a
//!    keyword summary bitmap over the dense set of partition-naming
//!    i-words. KoE's Rule-3 detour test consults a cached per-region lower
//!    bound first: when the region bound already exceeds the distance
//!    constraint `delta`, every member partition is pruned in one test.
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
//! 3. **[`LazyDoorRows`]** — incremental replacement for the all-or-nothing
//!    all-pairs matrix: one [`DijkstraResult`] row per source door,
//!    materialised on first touch behind a [`OnceLock`]. Rows are computed
//!    by the same single-source Dijkstra (`ShortestPaths::from_door` with an
//!    empty exclusion set) that `DoorMatrix::build_with_paths` runs per
//!    source, so distances *and* reconstructed paths are value-identical to
//!    the eager matrix; KoE* on a large venue pays only for the rows its
//!    queries touch, keeping resident memory proportional to touched doors
//!    rather than `doors²`.
//!
//! ## When regions prune
//!
//! A region prunes (fails) for a query iff
//! `lb(ps, R) + lb(pt, R) > delta`, where `lb(p, R)` is the minimum over
//! (i) the planar distance from `p` to the region box when `p`'s floor is
//! in the region floor set, and (ii) stair-door routes
//! `|p, sd_a| + s2s(sd_a, sd_b) + |sd_b, box|` for every stair-door pair
//! bridging `p`'s floor to a region floor. Failed regions answer every
//! subsequent member test for the rest of the query from one cached flag;
//! passed regions fall through to the (per-query cached) member bound, so
//! prune decisions — and the recorded prune metrics — match the scan path
//! exactly.
//!
//! [`VenueIndex`] bundles the three with cumulative observability counters
//! ([`IndexCounters`], surfaced on the server's `/v1/stats`) and records
//! its own build time and estimated heap footprint so benchmarks and the
//! stats endpoint can report index cost honestly.
//!
//! [`WordId`]: indoor_keywords::WordId
//! [`CandidateSet`]: indoor_keywords::CandidateSet
//! [`DijkstraResult`]: indoor_space::DijkstraResult
//! [`OnceLock`]: std::sync::OnceLock

pub mod counters;
pub mod lazy;
pub mod postings;
pub mod regions;

pub use counters::{IndexCounterSnapshot, IndexCounters};
pub use lazy::{LazyDoorRows, RowCacheStats, DEFAULT_ROW_BYTES_BUDGET, MIN_ROWS_CAPACITY};
pub use postings::{KeywordPostings, PostingTable};
pub use regions::{Region, RegionIndex};

use indoor_keywords::{
    CandidateSet, KeywordDirectory, PreparedQuery, PreparedWord, QueryKeywords,
    Result as KeywordResult,
};
use indoor_space::IndoorSpace;
use std::time::Instant;

/// The per-venue query index: keyword posting lists plus the spatial region
/// layer, with build-time and usage observability. One instance is owned by
/// each index-accelerated `IkrqEngine` and shared read-only across query
/// threads (interior mutability is confined to the atomic counters).
#[derive(Debug)]
pub struct VenueIndex {
    postings: KeywordPostings,
    regions: RegionIndex,
    counters: IndexCounters,
    build_micros: u64,
    loaded_from_disk: bool,
}

impl VenueIndex {
    /// Builds the index for a venue. Build cost is `O(vocabulary +
    /// associations + partitions + doors)` — no all-pairs products — and is
    /// recorded in [`VenueIndex::build_micros`].
    pub fn build(space: &IndoorSpace, directory: &KeywordDirectory) -> Self {
        let started = Instant::now();
        let postings = KeywordPostings::build(directory);
        let regions = RegionIndex::build(space, directory);
        let build_micros = started.elapsed().as_micros() as u64;
        VenueIndex {
            postings,
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
    pub fn from_parts(postings: KeywordPostings, regions: RegionIndex, build_micros: u64) -> Self {
        VenueIndex {
            postings,
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

    /// The inverted keyword → partition tables.
    pub fn postings(&self) -> &KeywordPostings {
        &self.postings
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
        std::mem::size_of::<Self>()
            + self.postings.estimated_bytes()
            + self.regions.estimated_bytes()
    }

    /// Prepares a query against the venue through the posting lists instead
    /// of the vocabulary scan. The result is equal to
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
        let mut words = Vec::with_capacity(query.len());
        for raw in query.words() {
            let (id, kind) = directory.classify(raw);
            let candidates = match id {
                Some(word_id) => self.postings.candidate_set(word_id, kind, tau)?,
                None => CandidateSet::default(),
            };
            words.push(PreparedWord {
                raw: raw.clone(),
                id,
                kind,
                candidates,
            });
        }
        PreparedQuery::from_words(words, tau)
    }
}
