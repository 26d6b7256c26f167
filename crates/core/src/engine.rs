//! The [`IkrqEngine`] facade: owns a venue (space + keyword directory) and
//! answers IKRQ queries with any algorithm variant.

use crate::context::SearchContext;
use crate::framework::Search;
use crate::query::IkrqQuery;
use crate::request::ExecOptions;
use crate::results::SearchOutcome;
use crate::variants::VariantConfig;
use crate::Result;
use indoor_index::VenueIndex;
use indoor_keywords::KeywordDirectory;
use indoor_space::IndoorSpace;
use std::sync::Arc;

/// Whether an engine holds a venue index. No search reads the index, so
/// both modes run one search path and answer byte-identically. Scan holds
/// none and is what `ikrq` and [`crate::IkrqService::register_venue`]
/// serve; Accelerated builds one only because
/// `indoor_persist::binary::save_venue_columnar` persists it as the venue
/// file's index section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Build a [`VenueIndex`] at engine construction.
    #[default]
    Accelerated,
    /// Hold no index.
    Scan,
}

/// How the venue document this engine serves was turned into its in-memory
/// model, shaped for `/v1/stats`. `indoor_persist`'s venue loader fills it
/// in, and whoever builds the engine records it; engines built directly
/// from in-memory models have none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocumentStats {
    /// File format version the venue was loaded from (`2` columnar binary,
    /// `1` record binary, `0` JSON).
    pub format_version: u16,
    /// Whether the model was adopted from a columnar document section
    /// rather than rebuilt from records.
    pub adopted_columnar: bool,
    /// Microseconds spent decoding bytes into records or columns.
    pub decode_micros: u64,
    /// Microseconds spent turning the decoded form into the model.
    pub adopt_micros: u64,
    /// Why a columnar file fell back to the record rebuild, when it did.
    pub degraded: Option<String>,
}

/// The query engine for one venue.
///
/// The engine owns the immutable space model and keyword directory and the
/// optional venue index (built at construction in
/// [`IndexMode::Accelerated`], or adopted from a venue file), which no
/// search reads and only the venue file writer needs. Nothing else
/// outlives a query: KoE* computes its door-to-door paths inside each
/// search.
#[derive(Debug)]
pub struct IkrqEngine {
    space: IndoorSpace,
    directory: KeywordDirectory,
    index: Option<Arc<VenueIndex>>,
    /// How the venue document was loaded, when the engine came from one.
    document_stats: Option<DocumentStats>,
}

impl IkrqEngine {
    /// Creates an engine for a venue in the default mode,
    /// [`IndexMode::Accelerated`]: it builds the index that
    /// `indoor_persist::binary::save_venue_columnar` persists, which no
    /// search reads. A serving engine is built with [`IndexMode::Scan`].
    pub fn new(space: IndoorSpace, directory: KeywordDirectory) -> Self {
        Self::with_index_mode(space, directory, IndexMode::default())
    }

    /// Creates an engine with an explicit index mode. Both modes answer
    /// alike; [`IndexMode::Scan`] only skips building the index.
    pub fn with_index_mode(
        space: IndoorSpace,
        directory: KeywordDirectory,
        mode: IndexMode,
    ) -> Self {
        let index = match mode {
            IndexMode::Accelerated => Some(Arc::new(VenueIndex::build(&space, &directory))),
            IndexMode::Scan => None,
        };
        IkrqEngine {
            space,
            directory,
            index,
            document_stats: None,
        }
    }

    /// Creates an accelerated engine around an index that was loaded from a
    /// persisted venue file instead of built here. The caller is responsible
    /// for the binding discipline: the index must have been validated
    /// against this exact directory (see
    /// `indoor_persist::PrebuiltIndex::into_index`).
    pub fn with_prebuilt_index(
        space: IndoorSpace,
        directory: KeywordDirectory,
        index: VenueIndex,
    ) -> Self {
        IkrqEngine {
            space,
            directory,
            index: Some(Arc::new(index)),
            document_stats: None,
        }
    }

    /// Records how the venue document behind this engine was loaded, for
    /// `/v1/stats` observability. Called by the loader that built the
    /// engine; replaces any earlier record.
    pub fn set_document_stats(&mut self, stats: DocumentStats) {
        self.document_stats = Some(stats);
    }

    /// How the venue document was loaded, when the engine came from one.
    pub fn document_stats(&self) -> Option<&DocumentStats> {
        self.document_stats.as_ref()
    }

    /// The venue's space model.
    pub fn space(&self) -> &IndoorSpace {
        &self.space
    }

    /// The venue's keyword directory.
    pub fn directory(&self) -> &KeywordDirectory {
        &self.directory
    }

    /// The venue index, when the engine holds one.
    pub fn index(&self) -> Option<&VenueIndex> {
        self.index.as_deref()
    }

    /// Answers a query under per-request [`ExecOptions`] (variant, metrics
    /// detail, expansion budget). This is the engine-level entry point the
    /// service layer uses; multi-venue callers should go through
    /// [`crate::IkrqService`].
    pub fn execute(&self, query: &IkrqQuery, options: &ExecOptions) -> Result<SearchOutcome> {
        options.validate()?;
        let config = options.effective_variant();
        let ctx = SearchContext::prepare(&self.space, &self.directory, query)?;
        Ok(Search::new(&ctx, config, None).run())
    }

    /// Runs every variant of Table III on the same query, in the paper's
    /// order, returning one outcome per variant.
    pub fn search_all_variants(&self, query: &IkrqQuery) -> Result<Vec<SearchOutcome>> {
        VariantConfig::all_variants()
            .into_iter()
            .map(|config| self.execute(query, &ExecOptions::with_variant(config)))
            .collect()
    }
}
