//! # ikrq-core
//!
//! The Indoor Top-k Keyword-aware Routing Query engine — the primary
//! contribution of the reproduced paper (Feng et al., ICDE 2020).
//!
//! Given a start point `ps`, a terminal point `pt`, a distance constraint
//! `∆`, a query keyword list `QW` and `k`, an [`IkrqQuery`] asks for the `k`
//! *regular* and *prime* routes from `ps` to `pt` whose distance is at most
//! `∆` and whose ranking score
//!
//! ```text
//! ψ(R) = α · ρ(R) / (|QW| + 1) + (1 − α) · (∆ − δ(R)) / ∆
//! ```
//!
//! is maximal (Problem 1, Definition 7). The engine implements the paper's
//! unified search framework (Algorithm 1) with both expansion strategies:
//!
//! * **ToE** — topology-oriented expansion (Algorithm 2): expand door by door
//!   over the indoor topology;
//! * **KoE** — keyword-oriented expansion (Algorithm 6): jump directly to key
//!   partitions that cover still-uncovered query keywords;
//!
//! together with the five pruning rules of §IV-A, the prime-route machinery
//! of §II-B (Algorithms 3/4), the connect step (Algorithm 5), the ablation
//! variants of Table III (ToE\D, ToE\B, ToE\P, KoE\D, KoE\B, KoE*), and a
//! naive exhaustive baseline for correctness checking.
//!
//! # Serving queries
//!
//! The primary entry point is the service layer: an [`IkrqService`] hosts
//! any number of named venues and answers [`SearchRequest`] envelopes —
//! venue id + query + [`ExecOptions`] — one at a time or as a parallel
//! batch:
//!
//! ```
//! use ikrq_core::{IkrqService, SearchRequest, VariantConfig};
//! use indoor_keywords::QueryKeywords;
//!
//! let example = indoor_data::paper_example_venue();
//! let service = IkrqService::new();
//! service
//!     .register_venue(
//!         "fig1",
//!         example.venue.space.clone(),
//!         example.venue.directory.clone(),
//!     )
//!     .unwrap();
//!
//! let request = SearchRequest::builder("fig1")
//!     .from(example.ps)
//!     .to(example.pt)
//!     .delta(400.0)
//!     .keywords(QueryKeywords::new(["latte", "apple"]).unwrap())
//!     .k(3)
//!     .variant(VariantConfig::koe())
//!     .build()
//!     .unwrap();
//!
//! let response = service.search(&request).unwrap();
//! println!("{} routes in {:.2} ms", response.results.len(), response.timing.total_ms);
//!
//! // Throughput path: many requests fan out over all cores, results come
//! // back in request order.
//! let responses = service.search_batch(&[request.clone(), request]);
//! assert_eq!(responses.len(), 2);
//! ```
//!
//! Single-venue embedders can hold an [`IkrqEngine`] directly and call
//! [`IkrqEngine::execute`] with [`ExecOptions`]. (The deprecated one-shot
//! `IkrqEngine::search*` shims of 0.2 have been removed.) See
//! `examples/quickstart.rs` in the workspace root for a complete
//! walk-through, and the `ikrq-server` crate for the HTTP/JSON front end
//! that ships these envelopes over the wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod classes;
pub mod connect;
pub mod context;
pub mod engine;
pub mod error;
pub mod extensions;
pub mod framework;
pub mod koe;
pub mod metrics;
pub mod prime;
pub mod pruning;
pub mod query;
pub mod request;
pub mod results;
pub mod score;
pub mod scratch;
pub mod service;
pub mod stamp;
pub mod toe;
pub mod variants;

pub use baseline::ExhaustiveBaseline;
pub use cache::{CacheConfig, CacheStats, ResponseCache};
pub use context::SearchContext;
pub use engine::{DocumentStats, IkrqEngine, IndexMode};
pub use error::EngineError;
pub use extensions::{
    PopularityModel, PopularityRanked, RoutePopularity, SoftDeltaConfig, SoftOutcome, SoftRoute,
    UniformPopularity, VisitCountPopularity,
};
pub use metrics::SearchMetrics;
pub use prime::PrimeTable;
pub use pruning::{PruneRule, PruneStats};
pub use query::IkrqQuery;
pub use request::{
    ExecOptions, MetricsDetail, ResponseTiming, SearchRequest, SearchRequestBuilder,
    SearchResponse, VenueSummary, API_VERSION,
};
pub use results::{ResultRoute, SearchOutcome, TopKResults};
pub use score::RankingModel;
pub use service::{IkrqService, VenueRegistry};
pub use stamp::Stamp;
pub use variants::{AlgorithmKind, VariantConfig};

/// Result alias for fallible engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Commonly used types, re-exported for glob import.
pub mod prelude {
    pub use crate::{
        AlgorithmKind, ExecOptions, ExhaustiveBaseline, IkrqEngine, IkrqQuery, IkrqService,
        MetricsDetail, PruneRule, RankingModel, ResultRoute, SearchMetrics, SearchOutcome,
        SearchRequest, SearchRequestBuilder, SearchResponse, TopKResults, VariantConfig,
        VenueRegistry,
    };
}
