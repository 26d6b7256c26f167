//! # indoor-persist
//!
//! Persistence layer for the IKRQ reproduction: portable documents for
//! venues (indoor space + keyword directory), query workloads and search
//! results (full reference: `docs/PERSIST.md`).
//!
//! Venues travel in two forms:
//!
//! * **JSON** ([`json`]) — the human-readable interchange and source format,
//!   written by [`save_venue_json`];
//! * **binary, version 2** ([`binary`] + [`columnar`]) — a compact record
//!   body plus a checksummed *columnar section* holding the venue in exactly
//!   the flat shape the in-memory model stores it (dense partition/door
//!   columns, CSR adjacency, the derived door graph, the keyword string
//!   arena and sorted id maps), optionally followed by a pre-built
//!   [`index_section`]. [`encode_venue_columnar`] and
//!   [`save_venue_columnar`] are the only binary writers. Every binary
//!   read and write goes through one crate-private codec: one checked
//!   reader, one section framing for both sections, one kind-code table.
//!
//! [`load_venue_model`] and [`load_venue_model_file`] are the only venue
//! loaders. They pick the format from the content: a v2 file's columns are
//! adopted wholesale instead of replaying the builders, which is what makes
//! venue-scale cold start cheap; version 1 files (records only, no longer
//! written) and JSON documents are rebuilt.
//!
//! The central type is [`VenueDocument`]: a flat, string-based description of
//! a venue that can be captured from an in-memory model with
//! [`VenueDocument::from_venue`] and rebuilt with [`VenueDocument::build`].
//! Keywords are stored as strings (not interned ids) and topology as explicit
//! directional connection records, so documents are portable across processes
//! and may be edited by hand. In a v2 file the record body remains the source
//! of truth: the columnar section (like the pre-built index section) is
//! advisory, and any defect in it degrades the load to a record-body rebuild
//! — a venue file never fails to load because of its optional sections.
//!
//! ```
//! use indoor_persist::{VenueDocument, json};
//! use indoor_data::paper_example_venue;
//!
//! let example = paper_example_venue();
//! let doc = VenueDocument::from_venue(
//!     &example.venue.space,
//!     &example.venue.directory,
//!     10.0,
//!     Some("fig1".into()),
//! );
//! let text = json::to_json_string(&doc).unwrap();
//! let back: VenueDocument = json::from_json_str(&text).unwrap();
//! let (space, directory) = back.build().unwrap();
//! assert_eq!(space.num_partitions(), example.venue.space.num_partitions());
//! assert!(directory.lookup("starbucks").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
mod codec;
pub mod columnar;
pub mod document;
pub mod error;
pub mod index_section;
pub mod json;
pub mod workload;

pub use binary::{
    encode_venue_columnar, load_venue_model, load_venue_model_file, save_venue_columnar,
    LoadedVenue, COLUMNAR_FILE_VERSION,
};
pub use columnar::{COLUMNAR_FORMAT_VERSION, COLUMNAR_MAGIC};
pub use document::{
    ConnectionRecord, DoorRecord, FloorRecord, IntraOverrideRecord, KeywordRecord,
    LoopOverrideRecord, PartitionRecord, VenueDocument, FORMAT_VERSION,
};
pub use error::PersistError;
pub use index_section::{IndexSection, PrebuiltIndex, INDEX_FORMAT_VERSION, INDEX_MAGIC};
pub use json::save_venue_json;
pub use workload::{QueryRecord, ResultDocument, ResultRecord, WorkloadDocument};

/// Result alias for fallible persistence operations.
pub type Result<T> = std::result::Result<T, PersistError>;

/// Commonly used types, re-exported for glob import.
pub mod prelude {
    pub use crate::{PersistError, QueryRecord, ResultDocument, VenueDocument, WorkloadDocument};
}
