//! The v1 **search application**: route table, handlers, the sharded
//! response cache, and hot venue reload. This is the [`App`] the plain
//! [`crate::serve`] entry point mounts on the connection engine; the
//! engine itself (sockets, workers, admission, parking) lives in
//! [`crate::server`] and knows nothing about these routes.
//!
//! # Hot venue reload
//!
//! `POST /v1/admin/reload` with `{"venue": "<id>"}` re-builds a hosted
//! venue through the configured [`VenueReloader`] and swaps the new engine
//! in with [`ikrq_core::VenueRegistry::replace`] — an atomic in-place swap,
//! so concurrent searches never observe a missing venue, and a single
//! epoch bump orphans every cached response at once (the same mechanism
//! that keeps the cache correct across register/remove). Servers without a
//! reload source (the default; [`crate::serve`]) answer `400` — the route
//! exists but has nowhere to load venues from.

use crate::http::{Request, Response};
use crate::protocol::{classify_engine_error, ApiVersion, ErrorCode, ErrorDetail};
use crate::server::{error_response, method_not_allowed, route_v1, App, EngineView, ServerStats};
use ikrq_core::{
    CacheConfig, CacheStats, IkrqEngine, IkrqService, ResponseCache, SearchRequest, VenueSummary,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A source of freshly built venue engines for `POST /v1/admin/reload`:
/// given a hosted venue id, re-load its definition (typically from disk)
/// and build a new [`IkrqEngine`]. Errors are human-readable and travel
/// back to the caller in the error body.
pub type VenueReloader = Arc<dyn Fn(&str) -> Result<Arc<IkrqEngine>, String> + Send + Sync>;

/// The v1 search route table over an [`IkrqService`], with the response
/// cache and the optional reload source.
pub struct IkrqApp {
    service: Arc<IkrqService>,
    cache: ResponseCache,
    reloader: Option<VenueReloader>,
}

impl IkrqApp {
    /// An app serving `service` with a response cache sized by `cache`.
    pub fn new(service: Arc<IkrqService>, cache: CacheConfig) -> Self {
        IkrqApp {
            service,
            cache: ResponseCache::new(cache),
            reloader: None,
        }
    }

    /// Attaches a reload source, enabling `POST /v1/admin/reload`.
    pub fn with_reloader(mut self, reloader: VenueReloader) -> Self {
        self.reloader = Some(reloader);
        self
    }

    /// The hosted service (used by stats-style callers and tests).
    pub fn service(&self) -> &Arc<IkrqService> {
        &self.service
    }
}

impl App for IkrqApp {
    fn handle(&self, request: &Request, engine: &EngineView<'_>) -> Response {
        let rest = match route_v1(request) {
            Ok(rest) => rest,
            Err(response) => return response,
        };
        match (request.method.as_str(), rest.as_slice()) {
            ("GET", ["healthz"]) => self.healthz(),
            ("GET", ["venues"]) => self.venues(),
            ("GET", ["stats"]) => self.stats(engine),
            ("POST", ["search"]) => self.search(request),
            ("POST", ["search", "batch"]) => self.search_batch(request, engine),
            ("POST", ["admin", "reload"]) => self.admin_reload(request),
            (_, ["healthz"]) | (_, ["venues"]) | (_, ["stats"]) => {
                method_not_allowed(request, "GET")
            }
            (_, ["search"]) | (_, ["search", "batch"]) | (_, ["admin", "reload"]) => {
                method_not_allowed(request, "POST")
            }
            _ => error_response(
                ErrorCode::NotFound,
                format!("no route at `{}`", request.path),
            ),
        }
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

// ---------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------

#[derive(Serialize)]
struct HealthBody {
    api_version: u16,
    status: String,
    venues: usize,
}

#[derive(Serialize)]
struct VenuesBody {
    api_version: u16,
    epoch: u64,
    venues: Vec<VenueSummary>,
}

#[derive(Serialize)]
struct StatsBody {
    api_version: u16,
    epoch: u64,
    workers: usize,
    max_in_flight: usize,
    max_connections: usize,
    keep_alive: bool,
    /// Effective `RLIMIT_NOFILE` soft limit — the fd budget bounding how
    /// many connections this process can hold (0: unknown/no limit API).
    nofile_limit: u64,
    /// Venue-index observability, aggregated over the hosted venues.
    index: IndexBody,
    stats: ServerStats,
}

/// Aggregated venue-index observability (mirrors the reactor counters: one
/// snapshot per `/v1/stats` call, cumulative since engine construction).
#[derive(Serialize)]
struct IndexBody {
    /// `"accelerated"` when every hosted venue has an index, `"scan"` when
    /// none does, `"mixed"` otherwise (also `"scan"` with zero venues).
    mode: String,
    /// Venues answering through a venue index.
    venues_indexed: usize,
    /// Venues hosted in total.
    venues_total: usize,
    /// Summed index build time in microseconds.
    build_micros: u64,
    /// Summed estimated index heap bytes.
    estimated_bytes: usize,
    /// Queries answered through the index path.
    queries_accelerated: u64,
    /// Region bounds evaluated by Rule-3 pruning.
    regions_tested: u64,
    /// Regions whose bound exceeded ∆ (every member partition pruned).
    regions_pruned: u64,
    /// Routing-set partitions dropped by a failed region.
    candidates_pruned: u64,
    /// Venues whose index was loaded from a persisted venue file.
    venues_loaded_from_disk: usize,
    /// Per-venue index detail, in venue-id order.
    venues: Vec<VenueIndexBody>,
}

/// Per-venue index observability inside [`IndexBody`].
#[derive(Serialize)]
struct VenueIndexBody {
    id: String,
    /// `"accelerated"` or `"scan"`.
    mode: String,
    /// Whether the venue's index came from a persisted venue file.
    loaded_from_disk: bool,
    /// Index acquisition time in microseconds (build, or decode when
    /// loaded from disk).
    build_micros: u64,
    /// How the venue document behind this engine was loaded; `null` for
    /// engines built directly from in-memory models.
    document: Option<VenueDocumentBody>,
}

/// Per-venue document-load observability inside [`VenueIndexBody`].
#[derive(Serialize)]
struct VenueDocumentBody {
    /// File format version the venue was loaded from (`2` columnar binary,
    /// `1` record binary, `0` JSON).
    format_version: u16,
    /// Whether the model was adopted from a persisted columnar section
    /// rather than rebuilt from document records.
    adopted_columnar: bool,
    /// Milliseconds spent decoding bytes into records or columns.
    decode_ms: f64,
    /// Milliseconds spent turning the decoded form into the model.
    adopt_ms: f64,
    /// Why a columnar file fell back to the record rebuild, when it did.
    degraded: Option<String>,
}

#[derive(Deserialize)]
struct BatchBody {
    requests: Vec<SearchRequest>,
}

#[derive(Deserialize)]
struct ReloadBody {
    venue: String,
}

#[derive(Serialize)]
struct ReloadedBody {
    api_version: u16,
    /// The registry epoch *after* the swap — every response cached under
    /// an earlier epoch is now orphaned.
    epoch: u64,
    /// Summary of the venue as re-loaded.
    venue: VenueSummary,
}

impl IkrqApp {
    fn healthz(&self) -> Response {
        let body = HealthBody {
            api_version: ApiVersion::CURRENT.wire(),
            status: "ok".into(),
            venues: self.service.registry().len(),
        };
        Response::json(
            200,
            serde_json::to_string(&body).expect("health serializes"),
        )
    }

    fn venues(&self) -> Response {
        let registry = self.service.registry();
        let venues = registry
            .ids()
            .into_iter()
            .filter_map(|id| {
                registry.get(&id).map(|engine| VenueSummary {
                    id,
                    partitions: engine.space().num_partitions(),
                    doors: engine.space().num_doors(),
                })
            })
            .collect();
        let body = VenuesBody {
            api_version: ApiVersion::CURRENT.wire(),
            epoch: registry.epoch(),
            venues,
        };
        Response::json(200, serde_json::to_string(&body).expect("venues serialize"))
    }

    fn index_body(&self) -> IndexBody {
        let registry = self.service.registry();
        let mut body = IndexBody {
            mode: String::new(),
            venues_indexed: 0,
            venues_total: 0,
            build_micros: 0,
            estimated_bytes: 0,
            queries_accelerated: 0,
            regions_tested: 0,
            regions_pruned: 0,
            candidates_pruned: 0,
            venues_loaded_from_disk: 0,
            venues: Vec::new(),
        };
        let mut counters = ikrq_core::IndexStats {
            build_micros: 0,
            estimated_bytes: 0,
            loaded_from_disk: false,
            counters: Default::default(),
        };
        for id in registry.ids() {
            let Some(engine) = registry.get(&id) else {
                continue;
            };
            body.venues_total += 1;
            let stats = engine.index_stats();
            if let Some(stats) = &stats {
                body.venues_indexed += 1;
                counters.build_micros += stats.build_micros;
                counters.estimated_bytes += stats.estimated_bytes;
                counters.counters.add(&stats.counters);
                if stats.loaded_from_disk {
                    body.venues_loaded_from_disk += 1;
                }
            }
            body.venues.push(VenueIndexBody {
                id,
                mode: engine.index_mode().label().to_string(),
                loaded_from_disk: stats.as_ref().is_some_and(|s| s.loaded_from_disk),
                build_micros: stats.as_ref().map_or(0, |s| s.build_micros),
                document: engine.document_stats().map(|d| VenueDocumentBody {
                    format_version: d.format_version,
                    adopted_columnar: d.adopted_columnar,
                    decode_ms: d.decode_micros as f64 / 1e3,
                    adopt_ms: d.adopt_micros as f64 / 1e3,
                    degraded: d.degraded.clone(),
                }),
            });
        }
        body.mode = if body.venues_indexed == 0 {
            "scan".to_string()
        } else if body.venues_indexed == body.venues_total {
            "accelerated".to_string()
        } else {
            "mixed".to_string()
        };
        body.build_micros = counters.build_micros;
        body.estimated_bytes = counters.estimated_bytes;
        body.queries_accelerated = counters.counters.queries_accelerated;
        body.regions_tested = counters.counters.regions_tested;
        body.regions_pruned = counters.counters.regions_pruned;
        body.candidates_pruned = counters.counters.candidates_pruned;
        body
    }

    fn stats(&self, engine: &EngineView<'_>) -> Response {
        let body = StatsBody {
            api_version: ApiVersion::CURRENT.wire(),
            epoch: self.service.registry().epoch(),
            workers: engine.config.effective_workers(),
            max_in_flight: engine.max_in_flight,
            max_connections: engine.max_connections,
            keep_alive: engine.config.keep_alive,
            nofile_limit: engine.nofile_limit,
            index: self.index_body(),
            stats: engine.stats,
        };
        Response::json(200, serde_json::to_string(&body).expect("stats serialize"))
    }

    fn search(&self, request: &Request) -> Response {
        let body = match std::str::from_utf8(&request.body) {
            Ok(body) => body,
            Err(_) => return error_response(ErrorCode::InvalidJson, "body is not UTF-8"),
        };
        let search_request: SearchRequest = match serde_json::from_str(body) {
            Ok(request) => request,
            Err(error) => {
                return error_response(
                    ErrorCode::InvalidJson,
                    format!("body does not decode into a SearchRequest: {error}"),
                )
            }
        };
        let key = search_request.cache_key(self.service.registry().epoch());
        if let Some(cached) = self.cache.get(&key) {
            return Response::json(200, cached.as_ref()).with_header("x-ikrq-cache", "hit");
        }
        match self.service.search(&search_request) {
            Ok(response) => {
                let body = serde_json::to_string(&response).expect("responses serialize");
                self.cache.insert(key, body.as_str());
                Response::json(200, body).with_header("x-ikrq-cache", "miss")
            }
            Err(error) => error_response(classify_engine_error(&error), error.to_string()),
        }
    }

    // The batch response body is assembled by splicing pre-serialized JSON
    // fragments (cached bodies are stored as compact JSON, fresh responses
    // are serialized exactly once for both the cache and the reply), so
    // each `ok` entry is byte-identical to the single-request endpoint's
    // body. Wire shape, one slot per request in request order:
    //
    //     {"api_version":1,
    //      "responses":[{"ok":<SearchResponse>,"err":null},
    //                   {"ok":null,"err":{"code":"...","message":"..."}}],
    //      "cache_hits":N}

    fn search_batch(&self, request: &Request, engine: &EngineView<'_>) -> Response {
        let body = match std::str::from_utf8(&request.body) {
            Ok(body) => body,
            Err(_) => return error_response(ErrorCode::InvalidJson, "body is not UTF-8"),
        };
        let batch: BatchBody = match serde_json::from_str(body) {
            Ok(batch) => batch,
            Err(error) => {
                return error_response(
                    ErrorCode::InvalidJson,
                    format!("body does not decode into a batch envelope: {error}"),
                )
            }
        };
        if batch.requests.is_empty() {
            return error_response(ErrorCode::InvalidRequest, "batch contains no requests");
        }
        if batch.requests.len() > engine.config.max_batch_size {
            return error_response(
                ErrorCode::InvalidRequest,
                format!(
                    "batch of {} requests exceeds the limit of {}",
                    batch.requests.len(),
                    engine.config.max_batch_size
                ),
            );
        }

        let epoch = self.service.registry().epoch();
        let keys: Vec<String> = batch
            .requests
            .iter()
            .map(|request| request.cache_key(epoch))
            .collect();
        let cached: Vec<Option<Arc<str>>> = keys.iter().map(|key| self.cache.get(key)).collect();
        let misses: Vec<SearchRequest> = batch
            .requests
            .iter()
            .zip(&cached)
            .filter(|(_, hit)| hit.is_none())
            .map(|(request, _)| request.clone())
            .collect();
        let mut fresh = self.service.search_batch(&misses).into_iter();

        let mut entries: Vec<String> = Vec::with_capacity(batch.requests.len());
        let mut cache_hits = 0usize;
        for (key, cached) in keys.into_iter().zip(cached) {
            let entry = match cached {
                Some(body) => {
                    cache_hits += 1;
                    format!("{{\"ok\":{body},\"err\":null}}")
                }
                None => match fresh.next().expect("one fresh result per miss") {
                    Ok(response) => {
                        let body = serde_json::to_string(&response).expect("responses serialize");
                        self.cache.insert(key, body.as_str());
                        format!("{{\"ok\":{body},\"err\":null}}")
                    }
                    Err(error) => {
                        let detail = ErrorDetail {
                            code: classify_engine_error(&error).as_str().to_string(),
                            message: error.to_string(),
                        };
                        let detail = serde_json::to_string(&detail).expect("details serialize");
                        format!("{{\"ok\":null,\"err\":{detail}}}")
                    }
                },
            };
            entries.push(entry);
        }
        let body = format!(
            "{{\"api_version\":{},\"responses\":[{}],\"cache_hits\":{cache_hits}}}",
            ApiVersion::CURRENT.wire(),
            entries.join(",")
        );
        Response::json(200, body).with_header("x-ikrq-cache-hits", cache_hits.to_string())
    }

    fn admin_reload(&self, request: &Request) -> Response {
        let body = match std::str::from_utf8(&request.body) {
            Ok(body) => body,
            Err(_) => return error_response(ErrorCode::InvalidJson, "body is not UTF-8"),
        };
        let reload: ReloadBody = match serde_json::from_str(body) {
            Ok(reload) => reload,
            Err(error) => {
                return error_response(
                    ErrorCode::InvalidJson,
                    format!("body does not decode into a reload envelope: {error}"),
                )
            }
        };
        let Some(reloader) = &self.reloader else {
            return error_response(
                ErrorCode::InvalidRequest,
                "this server has no reload source configured",
            );
        };
        let registry = self.service.registry();
        if registry.get(&reload.venue).is_none() {
            return error_response(
                ErrorCode::UnknownVenue,
                format!("no venue `{}` is registered", reload.venue),
            );
        }
        let engine = match reloader(&reload.venue) {
            Ok(engine) => engine,
            Err(message) => {
                return error_response(
                    ErrorCode::InvalidRequest,
                    format!("reload of venue `{}` failed: {message}", reload.venue),
                )
            }
        };
        let summary = VenueSummary {
            id: reload.venue.clone(),
            partitions: engine.space().num_partitions(),
            doors: engine.space().num_doors(),
        };
        if let Err(error) = registry.replace(&reload.venue, engine) {
            // The venue vanished between the existence check and the swap
            // (a concurrent remove); report it as the addressing error.
            return error_response(classify_engine_error(&error), error.to_string());
        }
        let body = ReloadedBody {
            api_version: ApiVersion::CURRENT.wire(),
            epoch: registry.epoch(),
            venue: summary,
        };
        Response::json(
            200,
            serde_json::to_string(&body).expect("reload serializes"),
        )
    }
}
