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
    /// Per-venue load observability, in venue-id order.
    venues: Vec<VenueBody>,
    stats: ServerStats,
}

/// One hosted venue inside [`StatsBody`].
#[derive(Serialize)]
struct VenueBody {
    id: String,
    /// How the venue document behind this engine was loaded; `null` for
    /// engines built directly from in-memory models.
    document: Option<VenueDocumentBody>,
}

/// Per-venue document-load observability inside [`VenueBody`].
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

    fn venue_bodies(&self) -> Vec<VenueBody> {
        let registry = self.service.registry();
        registry
            .ids()
            .into_iter()
            .filter_map(|id| {
                let engine = registry.get(&id)?;
                let document = engine.document_stats().map(|d| VenueDocumentBody {
                    format_version: d.format_version,
                    adopted_columnar: d.adopted_columnar,
                    decode_ms: d.decode_micros as f64 / 1e3,
                    adopt_ms: d.adopt_micros as f64 / 1e3,
                    degraded: d.degraded.clone(),
                });
                Some(VenueBody { id, document })
            })
            .collect()
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
            venues: self.venue_bodies(),
            stats: engine.stats(),
        };
        Response::json(200, serde_json::to_string(&body).expect("stats serialize"))
    }

    /// A request's cache key under `epoch` and the cached body it finds.
    /// A disabled cache (capacity 0) cannot hit: the request is neither
    /// serialized into a key nor looked up, and only the miss is counted.
    fn look_up(&self, request: &SearchRequest, epoch: u64) -> (Option<String>, Option<Arc<str>>) {
        if self.cache.is_disabled() {
            self.cache.record_miss();
            return (None, None);
        }
        let key = request.cache_key(epoch);
        let cached = self.cache.get(&key);
        (Some(key), cached)
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
        let (key, cached) = self.look_up(&search_request, self.service.registry().epoch());
        if let Some(cached) = cached {
            return Response::json(200, cached.as_ref()).with_header("x-ikrq-cache", "hit");
        }
        match self.service.search(&search_request) {
            Ok(response) => {
                let body = serde_json::to_string(&response).expect("responses serialize");
                if let Some(key) = key {
                    self.cache.insert(key, body.as_str());
                }
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
        let (keys, cached): (Vec<Option<String>>, Vec<Option<Arc<str>>>) = batch
            .requests
            .iter()
            .map(|request| self.look_up(request, epoch))
            .unzip();
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
                        if let Some(key) = key {
                            self.cache.insert(key, body.as_str());
                        }
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
