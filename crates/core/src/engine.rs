//! The [`IkrqEngine`] facade: owns a venue (space + keyword directory) and
//! answers IKRQ queries with any algorithm variant.

use crate::context::SearchContext;
use crate::framework::Search;
use crate::precompute::PrecomputedPaths;
use crate::query::IkrqQuery;
use crate::request::ExecOptions;
use crate::results::SearchOutcome;
use crate::variants::VariantConfig;
use crate::Result;
use indoor_index::{IndexCounterSnapshot, VenueIndex};
use indoor_keywords::KeywordDirectory;
use indoor_space::IndoorSpace;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

/// Whether an engine answers queries through the venue index or the original
/// linear scans. Accelerated is the default; Scan is the `--index false`
/// fallback kept for cross-checking (the two produce byte-identical
/// results — the scan path is the executable specification of the index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Build a [`VenueIndex`] at engine construction and consult it for
    /// keyword candidate generation and KoE region pruning.
    #[default]
    Accelerated,
    /// Original behaviour: vocabulary scans and per-partition bounds.
    Scan,
}

impl IndexMode {
    /// Stable wire label, used by `/v1/stats` and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            IndexMode::Accelerated => "accelerated",
            IndexMode::Scan => "scan",
        }
    }
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

/// Point-in-time index observability for one engine, shaped for `/v1/stats`.
#[derive(Debug, Clone, Copy)]
pub struct IndexStats {
    /// Index build wall-clock time in microseconds (decode time when the
    /// index was loaded from a persisted section).
    pub build_micros: u64,
    /// Estimated index heap footprint in bytes.
    pub estimated_bytes: usize,
    /// Whether the index was loaded from a persisted venue file rather than
    /// built from the venue at engine construction.
    pub loaded_from_disk: bool,
    /// Cumulative usage counters since engine construction.
    pub counters: IndexCounterSnapshot,
}

/// The query engine for one venue.
///
/// The engine owns the immutable space model and keyword directory, the
/// optional venue index (built eagerly at construction in
/// [`IndexMode::Accelerated`], so its build time is a constructor-time cost
/// and not query jitter), and the per-door-row KoE* distance cache (created
/// on first use behind a [`OnceLock`]; individual rows materialise lazily).
#[derive(Debug)]
pub struct IkrqEngine {
    space: Arc<IndoorSpace>,
    directory: KeywordDirectory,
    index: Option<Arc<VenueIndex>>,
    precomputed: OnceLock<Arc<PrecomputedPaths>>,
    /// Explicit KoE* row-cache capacity (`--koe-rows-cap`); `None` sizes the
    /// cache from the default byte budget when the cache is first created.
    koe_rows_cap: Option<usize>,
    /// How the venue document was loaded, when the engine came from one.
    document_stats: Option<DocumentStats>,
}

impl IkrqEngine {
    /// Creates an engine for a venue with the default (index-accelerated)
    /// query path.
    pub fn new(space: IndoorSpace, directory: KeywordDirectory) -> Self {
        Self::with_index_mode(space, directory, IndexMode::default())
    }

    /// Creates an engine with an explicit index mode. [`IndexMode::Scan`]
    /// preserves the original linear-scan behaviour exactly.
    pub fn with_index_mode(
        space: IndoorSpace,
        directory: KeywordDirectory,
        mode: IndexMode,
    ) -> Self {
        let space = Arc::new(space);
        let index = match mode {
            IndexMode::Accelerated => Some(Arc::new(VenueIndex::build(&space, &directory))),
            IndexMode::Scan => None,
        };
        IkrqEngine {
            space,
            directory,
            index,
            precomputed: OnceLock::new(),
            koe_rows_cap: None,
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
            space: Arc::new(space),
            directory,
            index: Some(Arc::new(index)),
            precomputed: OnceLock::new(),
            koe_rows_cap: None,
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

    /// Sets an explicit KoE* row-cache capacity. Must be called before the
    /// first KoE* query creates the cache; later calls are ignored (the
    /// `OnceLock`ed cache keeps the capacity it was created with).
    pub fn set_koe_rows_cap(&mut self, capacity: usize) {
        self.koe_rows_cap = Some(capacity.max(1));
    }

    /// The KoE* row-cache capacity: the explicit override when set,
    /// otherwise the default budget-derived capacity for this venue.
    pub fn koe_rows_capacity(&self) -> usize {
        self.koe_rows_cap
            .unwrap_or_else(|| indoor_index::LazyDoorRows::default_capacity(self.space.num_doors()))
    }

    /// KoE* row-cache counters (capacity, resident rows, hits, misses,
    /// evictions). Reports an all-zero snapshot with the configured capacity
    /// before the first KoE* query creates the cache.
    pub fn koe_rows_stats(&self) -> indoor_index::RowCacheStats {
        match self.precomputed.get() {
            Some(p) => p.cache_stats(),
            None => indoor_index::RowCacheStats {
                capacity: self.koe_rows_capacity(),
                resident: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            },
        }
    }

    /// The venue's space model.
    pub fn space(&self) -> &IndoorSpace {
        &self.space
    }

    /// The venue's keyword directory.
    pub fn directory(&self) -> &KeywordDirectory {
        &self.directory
    }

    /// The engine's index mode.
    pub fn index_mode(&self) -> IndexMode {
        if self.index.is_some() {
            IndexMode::Accelerated
        } else {
            IndexMode::Scan
        }
    }

    /// The venue index, when the engine runs accelerated.
    pub fn index(&self) -> Option<&VenueIndex> {
        self.index.as_deref()
    }

    /// Index observability snapshot, when the engine runs accelerated.
    pub fn index_stats(&self) -> Option<IndexStats> {
        self.index.as_deref().map(|index| IndexStats {
            build_micros: index.build_micros(),
            estimated_bytes: index.estimated_bytes(),
            loaded_from_disk: index.loaded_from_disk(),
            counters: index.counters().snapshot(),
        })
    }

    /// Forces the KoE* row cache to materialise every door row now
    /// (otherwise rows materialise as KoE* queries touch them) and returns
    /// its memory footprint in bytes.
    pub fn prepare_precomputed_paths(&self) -> usize {
        self.precomputed_paths().warm()
    }

    /// Number of KoE* distance rows materialised so far (0 before any KoE*
    /// query touches the cache). The row cache is lazy, so this stays
    /// proportional to the doors actually visited unless the whole matrix is
    /// warmed with [`IkrqEngine::prepare_precomputed_paths`].
    pub fn precomputed_rows(&self) -> usize {
        self.precomputed.get().map_or(0, |p| p.materialized_rows())
    }

    /// Estimated heap footprint of the KoE* row cache in bytes.
    pub fn precomputed_bytes(&self) -> usize {
        self.precomputed.get().map_or(0, |p| p.estimated_bytes())
    }

    fn precomputed_paths(&self) -> Arc<PrecomputedPaths> {
        Arc::clone(self.precomputed.get_or_init(|| {
            let space = Arc::clone(&self.space);
            Arc::new(match self.koe_rows_cap {
                Some(cap) => PrecomputedPaths::with_capacity(space, cap),
                None => PrecomputedPaths::new(space),
            })
        }))
    }

    /// Answers a query under per-request [`ExecOptions`] (variant, metrics
    /// detail, expansion budget). This is the engine-level entry point the
    /// service layer uses; multi-venue callers should go through
    /// [`crate::IkrqService`].
    pub fn execute(&self, query: &IkrqQuery, options: &ExecOptions) -> Result<SearchOutcome> {
        options.validate()?;
        let config = options.effective_variant();
        let ctx = SearchContext::prepare_with_index(
            &self.space,
            &self.directory,
            self.index.as_deref(),
            query,
        )?;
        if let Some(index) = self.index.as_deref() {
            index
                .counters()
                .queries_accelerated
                .fetch_add(1, Ordering::Relaxed);
        }
        let precomputed = config
            .use_precomputed_paths
            .then(|| self.precomputed_paths());
        let search = Search::new(&ctx, config, precomputed.as_deref());
        Ok(search.run())
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
