//! # indoor-index — the venue index section's region layer
//!
//! No query reads this crate's data. Both engines prepare keywords and
//! search alike: keyword preparation is [`PreparedQuery::prepare`], which
//! scores i-words on demand, and KoE's routing set holds only the key
//! partitions its first `∆`-ellipse-cut runs reach, so Pruning Rule 3
//! tests each of those on its own bound (see `ikrq-core`'s `koe` module).
//!
//! ## Layout
//!
//! 1. **Keyword preparation** keeps no tables of its own:
//!    [`VenueIndex::prepare_query`] is [`PreparedQuery::prepare`], kept
//!    for callers that prepare a query through the index.
//!
//! 2. **[`RegionIndex`]** — per-floor grid regions over the partition
//!    graph, each with (a) a bounding box *expanded to cover every member
//!    door position*, (b) the set of floors touched by any member door
//!    (stair doors touch two floors), (c) the member partition list, and
//!    (d) a keyword summary bitmap over the dense set of partition-naming
//!    i-words. The layer stays only as the venue file's persisted index
//!    section, which v2 files carry and the benchmark's load probe reads;
//!    it goes, with [`VenueIndex`] and the section, once nothing reads the
//!    section.
//!
//! [`VenueIndex`] holds the region layer and records its own build time
//! and estimated heap footprint, which `ikrq generate --save-indexed` and
//! the `scale` bench report. No engine `ikrq` serves holds one.
//!
//! [`PreparedQuery::prepare`]: indoor_keywords::PreparedQuery::prepare

pub mod regions;

pub use regions::{Region, RegionIndex};

use indoor_keywords::{KeywordDirectory, PreparedQuery, QueryKeywords, Result as KeywordResult};
use indoor_space::IndoorSpace;
use std::time::Instant;

/// The per-venue index: the spatial region layer, with its build time. One
/// instance is owned by each index-accelerated `IkrqEngine`; no search
/// reads it.
#[derive(Debug)]
pub struct VenueIndex {
    regions: RegionIndex,
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
            build_micros,
            loaded_from_disk: false,
        }
    }

    /// Reassembles an index from persisted parts (the pre-built index
    /// section of a venue file). `build_micros` records the decode time —
    /// what acquiring the index actually cost this process — and
    /// [`VenueIndex::loaded_from_disk`] reports `true`, which tells loaded
    /// indexes from freshly built ones.
    pub fn from_parts(regions: RegionIndex, build_micros: u64) -> Self {
        VenueIndex {
            regions,
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

    /// Wall-clock build time in microseconds.
    pub fn build_micros(&self) -> u64 {
        self.build_micros
    }

    /// Estimated heap footprint of the index structures in bytes.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.regions.estimated_bytes()
    }

    /// Prepares a query against the venue: [`PreparedQuery::prepare`], which
    /// both engines share, so index-mode keyword scores are scan mode's.
    pub fn prepare_query(
        &self,
        query: &QueryKeywords,
        directory: &KeywordDirectory,
        tau: f64,
    ) -> KeywordResult<PreparedQuery> {
        PreparedQuery::prepare(query, directory, tau)
    }
}
