//! # indoor-keywords
//!
//! The two-level indoor keyword substrate of the IKRQ paper (§III).
//!
//! The paper distinguishes **identity words** (i-words) — the semantic name
//! of a partition, e.g. `starbucks` — from **thematic words** (t-words) that
//! further describe an i-word, e.g. `coffee`, `latte`. Four mappings connect
//! partitions, i-words and t-words:
//!
//! * `P2I` — partition → its single i-word (many-to-one),
//! * `I2P` — i-word → the partitions it identifies (one-to-many),
//! * `I2T` — i-word → its t-words (many-to-many),
//! * `T2I` — t-word → the i-words it describes (many-to-many).
//!
//! On top of the mappings the crate implements:
//!
//! * the **candidate i-word set** `κ(wQ)` of Definition 4 with direct and
//!   indirect (Jaccard-similar) matches and the threshold `τ`,
//! * **route words** `RW(R)` of Definition 5 and the **keyword relevance**
//!   `ρ_QW(R)` of Definition 6, plus an incremental [`CoverageTracker`] the
//!   search engine uses to maintain relevance while expanding routes,
//! * a RAKE-style keyword **extraction** pipeline with TF-IDF ranking that
//!   substitutes the paper's web-crawled corpus preparation (§V-A1),
//! * a [`KeywordDirectory`] facade bundling vocabulary and mappings for a
//!   venue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod directory;
pub mod error;
pub mod extraction;
pub mod intern;
pub mod mappings;
pub mod query;
pub mod relevance;
pub mod similarity;
pub mod vocab;

pub use corpus::{Corpus, Document};
pub use directory::KeywordDirectory;
pub use error::KeywordError;
pub use extraction::{ExtractionConfig, ExtractionPipeline};
pub use intern::{Interner, WordId};
pub use mappings::KeywordMappings;
pub use query::{PreparedQuery, PreparedWord, QueryKeywords};
pub use relevance::{route_words, CoverageTracker, RelevanceModel};
pub use similarity::{jaccard, CandidateEntry, CandidateSet};
pub use vocab::{Vocabulary, WordKind};

/// Result alias for fallible keyword operations.
pub type Result<T> = std::result::Result<T, KeywordError>;

/// Commonly used types, re-exported for glob import.
pub mod prelude {
    pub use crate::{
        CandidateSet, Corpus, CoverageTracker, Document, ExtractionConfig, ExtractionPipeline,
        Interner, KeywordDirectory, KeywordError, KeywordMappings, PreparedQuery, QueryKeywords,
        RelevanceModel, Vocabulary, WordId, WordKind,
    };
}
