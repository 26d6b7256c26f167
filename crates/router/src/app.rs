//! The router's route table: the [`App`] mounted on the same connection
//! engine `ikrq-server` uses, so the front tier inherits keep-alive,
//! admission control and the readiness reactor unchanged.
//!
//! Byte-identity discipline (the contract `tests/router_api.rs` pins):
//!
//! * `POST /v1/search` bodies are forwarded **verbatim** and the backend
//!   reply (status, body, cache header) is passed back verbatim — the
//!   router never re-serializes a search response.
//! * `POST /v1/search/batch` sub-batches re-serialize the *requests* (safe:
//!   responses depend only on the parsed values, and the sub-bodies are
//!   produced by the same `serde_json` the single process would use to
//!   parse them), but backend *response* entries are spliced as raw byte
//!   slices ([`crate::splice`]) — never parsed, never re-printed.
//! * The router's own errors (bad routes, bad JSON, empty/oversized
//!   batches) go through the very helpers the backend uses
//!   ([`error_response`], [`method_not_allowed`], [`route_v1`]), so their
//!   bodies match a single process byte-for-byte; a search body the router
//!   cannot even peek a venue id out of is forwarded to the first shard so
//!   the *backend's* canonical error comes back verbatim.

use crate::backend::{Cluster, ForwardError};
use crate::splice::{join_batch, split_batch};
use ikrq_server::server::{error_response, method_not_allowed, route_v1};
use ikrq_server::{ApiVersion, ServerStats};
use ikrq_server::{App, ClientReply, EngineView, ErrorCode, ErrorDetail, Request, Response};
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The routing [`App`]: consistent-hash placement, fan-out, failover.
pub struct RouterApp {
    cluster: Arc<Cluster>,
}

impl RouterApp {
    /// An app routing onto the given cluster.
    pub(crate) fn new(cluster: Arc<Cluster>) -> RouterApp {
        RouterApp { cluster }
    }
}

impl App for RouterApp {
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
}

// ---------------------------------------------------------------------
// Wire bodies
// ---------------------------------------------------------------------

#[derive(Serialize)]
struct RouterHealthBody {
    api_version: u16,
    /// `"ok"` while every backend is healthy, `"degraded"` otherwise. The
    /// router itself answers either way — a degraded cluster still serves
    /// every shard that has a live replica.
    status: String,
    shards: usize,
    backends_healthy: usize,
    backends_total: usize,
}

#[derive(Serialize)]
struct BackendStatsBody {
    addr: String,
    healthy: bool,
    consecutive_failures: u32,
    probes: u64,
    probe_failures: u64,
    forwarded: u64,
    forward_failures: u64,
}

#[derive(Serialize)]
struct ShardStatsBody {
    shard: String,
    backends: Vec<BackendStatsBody>,
}

#[derive(Serialize)]
struct RouterCountersBody {
    forwarded: u64,
    failovers: u64,
    rebalances: u64,
    backend_unavailable: u64,
    reloads: u64,
}

#[derive(Serialize)]
struct RouterStatsBody {
    api_version: u16,
    shards: Vec<ShardStatsBody>,
    router: RouterCountersBody,
    workers: usize,
    max_in_flight: usize,
    max_connections: usize,
    keep_alive: bool,
    nofile_limit: u64,
    stats: ServerStats,
}

/// The one field the router needs out of a search body.
#[derive(Deserialize)]
struct VenuePeek {
    venue: String,
}

#[derive(Deserialize)]
struct BatchBody {
    requests: Vec<ikrq_core::SearchRequest>,
}

/// The sub-batch body for one shard: the owned request slots re-serialized
/// into a batch envelope (the vendored serde derive has no generics, so
/// the envelope is assembled by hand from per-request serializations —
/// the same compact encoding `serde_json` would emit for the whole body).
fn sub_batch_body(requests: &[ikrq_core::SearchRequest], slots: &[usize]) -> String {
    let parts: Vec<String> = slots
        .iter()
        .map(|&slot| serde_json::to_string(&requests[slot]).expect("requests serialize"))
        .collect();
    format!("{{\"requests\":[{}]}}", parts.join(","))
}

#[derive(Deserialize)]
struct ReloadBody {
    venue: String,
}

/// One replica's view of a completed reload.
#[derive(Serialize)]
struct ReplicaReloadBody {
    backend: String,
    /// The backend's registry epoch after its swap (epochs are per-process;
    /// replicas of one shard advance independently).
    epoch: u64,
}

#[derive(Serialize)]
struct RouterReloadBody {
    api_version: u16,
    venue: String,
    shard: String,
    replicas: Vec<ReplicaReloadBody>,
}

#[derive(Deserialize)]
struct BackendReloadedPeek {
    epoch: u64,
}

#[derive(Deserialize)]
struct BackendVenuesPeek {
    epoch: u64,
    venues: Vec<VenueSummaryPeek>,
}

#[derive(Deserialize, Serialize)]
struct VenueSummaryPeek {
    id: String,
    partitions: usize,
    doors: usize,
}

#[derive(Serialize)]
struct ShardVenuesBody {
    shard: String,
    epoch: u64,
    venues: usize,
}

#[derive(Serialize)]
struct RouterVenuesBody {
    api_version: u16,
    venues: Vec<VenueSummaryPeek>,
    shards: Vec<ShardVenuesBody>,
}

// ---------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------

impl RouterApp {
    fn healthz(&self) -> Response {
        let mut healthy = 0usize;
        let mut total = 0usize;
        for shard in &self.cluster.shards {
            for backend in &shard.backends {
                total += 1;
                if backend.is_healthy() {
                    healthy += 1;
                }
            }
        }
        let body = RouterHealthBody {
            api_version: ApiVersion::CURRENT.wire(),
            status: if healthy == total { "ok" } else { "degraded" }.into(),
            shards: self.cluster.shards.len(),
            backends_healthy: healthy,
            backends_total: total,
        };
        Response::json(
            200,
            serde_json::to_string(&body).expect("health serializes"),
        )
    }

    fn stats(&self, engine: &EngineView<'_>) -> Response {
        let shards = self
            .cluster
            .shards
            .iter()
            .map(|shard| ShardStatsBody {
                shard: shard.name.clone(),
                backends: shard
                    .backends
                    .iter()
                    .map(|backend| BackendStatsBody {
                        addr: backend.addr.to_string(),
                        healthy: backend.is_healthy(),
                        consecutive_failures: backend.consecutive_failures(),
                        probes: backend.probes.load(Ordering::SeqCst),
                        probe_failures: backend.probe_failures.load(Ordering::SeqCst),
                        forwarded: backend.forwarded.load(Ordering::SeqCst),
                        forward_failures: backend.forward_failures.load(Ordering::SeqCst),
                    })
                    .collect(),
            })
            .collect();
        let counters = &self.cluster.counters;
        let body = RouterStatsBody {
            api_version: ApiVersion::CURRENT.wire(),
            shards,
            router: RouterCountersBody {
                forwarded: counters.forwarded.load(Ordering::SeqCst),
                failovers: counters.failovers.load(Ordering::SeqCst),
                rebalances: counters.rebalances.load(Ordering::SeqCst),
                backend_unavailable: counters.unavailable.load(Ordering::SeqCst),
                reloads: counters.reloads.load(Ordering::SeqCst),
            },
            workers: engine.config.effective_workers(),
            max_in_flight: engine.max_in_flight,
            max_connections: engine.max_connections,
            keep_alive: engine.config.keep_alive,
            nofile_limit: engine.nofile_limit,
            stats: engine.stats(),
        };
        Response::json(200, serde_json::to_string(&body).expect("stats serialize"))
    }

    /// Aggregates `GET /v1/venues` over one live replica per shard.
    fn venues(&self) -> Response {
        let mut venues: Vec<VenueSummaryPeek> = Vec::new();
        let mut shards: Vec<ShardVenuesBody> = Vec::new();
        for shard in &self.cluster.shards {
            let reply = match self.cluster.forward(shard, "GET", "/v1/venues", "") {
                Ok(reply) => reply,
                Err(error) => {
                    return error_response(
                        ErrorCode::BackendUnavailable,
                        error.message(&shard.name),
                    )
                }
            };
            if reply.status != 200 {
                return passthrough(&reply);
            }
            let peek: BackendVenuesPeek = match serde_json::from_str(&reply.body) {
                Ok(peek) => peek,
                Err(error) => {
                    return error_response(
                        ErrorCode::BackendUnavailable,
                        format!(
                            "backend of shard `{}` returned an unreadable venue list: {error}",
                            shard.name
                        ),
                    )
                }
            };
            // Every backend hosts every venue (replicas are symmetric and
            // shards are carved by the ring, not by registration), so only
            // the ring-owned subset is attributed to each shard.
            let owned: Vec<VenueSummaryPeek> = peek
                .venues
                .into_iter()
                .filter(|venue| self.cluster.ring.assign_name(&venue.id) == shard.name)
                .collect();
            shards.push(ShardVenuesBody {
                shard: shard.name.clone(),
                epoch: peek.epoch,
                venues: owned.len(),
            });
            venues.extend(owned);
        }
        venues.sort_by(|a, b| a.id.cmp(&b.id));
        let body = RouterVenuesBody {
            api_version: ApiVersion::CURRENT.wire(),
            venues,
            shards,
        };
        Response::json(200, serde_json::to_string(&body).expect("venues serialize"))
    }

    fn search(&self, request: &Request) -> Response {
        let body = match std::str::from_utf8(&request.body) {
            Ok(body) => body,
            Err(_) => return error_response(ErrorCode::InvalidJson, "body is not UTF-8"),
        };
        // Peek just the venue id. A body the peek cannot read is forwarded
        // anyway (to the first shard) so the backend's canonical error
        // bytes come back; the vendored serde ignores unknown fields, so
        // any body a backend would accept peeks successfully here.
        let shard = match serde_json::from_str::<VenuePeek>(body) {
            Ok(peek) => self.cluster.shard_for(&peek.venue),
            Err(_) => &self.cluster.shards[0],
        };
        match self.cluster.forward(shard, "POST", "/v1/search", body) {
            Ok(reply) => passthrough(&reply),
            Err(error) => error_response(ErrorCode::BackendUnavailable, error.message(&shard.name)),
        }
    }

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

        // Group request slots by owning shard, preserving request order
        // within each group so the spliced entries land back in their
        // original slots.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.cluster.shards.len()];
        for (slot, search) in batch.requests.iter().enumerate() {
            groups[self.cluster.ring.assign(&search.venue)].push(slot);
        }

        // Fan the non-empty sub-batches out concurrently, one thread per
        // shard (the engine's worker already holds this request; shard
        // count is small and bounded by configuration).
        let outcomes: Vec<Option<Result<ClientReply, ForwardError>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .iter()
                    .enumerate()
                    .map(|(shard_index, slots)| {
                        if slots.is_empty() {
                            return None;
                        }
                        let sub_body = sub_batch_body(&batch.requests, slots);
                        let shard = &self.cluster.shards[shard_index];
                        Some(scope.spawn(move || {
                            self.cluster
                                .forward(shard, "POST", "/v1/search/batch", &sub_body)
                        }))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.map(|h| h.join().expect("fan-out threads do not panic")))
                    .collect()
            });

        // Splice the per-shard replies back into request order.
        let mut entries: Vec<Option<String>> = vec![None; batch.requests.len()];
        let mut cache_hits = 0u64;
        for (shard_index, outcome) in outcomes.into_iter().enumerate() {
            let Some(outcome) = outcome else { continue };
            let shard = &self.cluster.shards[shard_index];
            match outcome {
                Ok(reply) if reply.status == 200 => {
                    let Some((slices, hits)) = split_batch(&reply.body) else {
                        return error_response(
                            ErrorCode::BackendUnavailable,
                            format!(
                                "backend of shard `{}` returned an unspliceable batch body",
                                shard.name
                            ),
                        );
                    };
                    if slices.len() != groups[shard_index].len() {
                        return error_response(
                            ErrorCode::BackendUnavailable,
                            format!(
                                "backend of shard `{}` answered {} of {} requests",
                                shard.name,
                                slices.len(),
                                groups[shard_index].len()
                            ),
                        );
                    }
                    cache_hits += hits;
                    for (&slot, slice) in groups[shard_index].iter().zip(slices) {
                        entries[slot] = Some(slice.to_string());
                    }
                }
                // A backend rejected the whole sub-batch (e.g. admission
                // shed it with 429): surface that reply as the combined
                // outcome rather than inventing per-entry errors the
                // single process would never produce.
                Ok(reply) => return passthrough(&reply),
                // The shard is unreachable: its slots become per-entry
                // `backend_unavailable` errors so the surviving venues'
                // answers still come back byte-identical.
                Err(error) => {
                    let detail = ErrorDetail {
                        code: ErrorCode::BackendUnavailable.as_str().to_string(),
                        message: error.message(&shard.name),
                    };
                    let detail = serde_json::to_string(&detail).expect("details serialize");
                    for &slot in &groups[shard_index] {
                        entries[slot] = Some(format!("{{\"ok\":null,\"err\":{detail}}}"));
                    }
                }
            }
        }
        let entries: Vec<String> = entries
            .into_iter()
            .map(|entry| entry.expect("every slot belongs to exactly one shard group"))
            .collect();
        Response::json(200, join_batch(&entries, cache_hits))
            .with_header("x-ikrq-cache-hits", cache_hits.to_string())
    }

    /// Fans a venue reload out to **every** replica of the owning shard
    /// (replicas are symmetric; all of them must swap in the new engine or
    /// they would serve diverging answers). Succeeds only when every
    /// replica reloads; a partial failure reports 503 naming the replicas
    /// that did not — the reload is idempotent, so the caller retries.
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
        let shard = self.cluster.shard_for(&reload.venue);
        let mut replicas = Vec::with_capacity(shard.backends.len());
        let mut failures: Vec<String> = Vec::new();
        for backend in &shard.backends {
            match self
                .cluster
                .forward_to_backend(backend, "POST", "/v1/admin/reload", body)
            {
                Ok(reply) if reply.status == 200 => {
                    let epoch = serde_json::from_str::<BackendReloadedPeek>(&reply.body)
                        .map(|peek| peek.epoch)
                        .unwrap_or(0);
                    replicas.push(ReplicaReloadBody {
                        backend: backend.addr.to_string(),
                        epoch,
                    });
                }
                // The backend answered but refused (unknown venue, no
                // reload source, reload error): every replica is symmetric,
                // so the first refusal is the authoritative answer —
                // forward it verbatim.
                Ok(reply) => return passthrough(&reply),
                Err(failure) => {
                    failures.push(format!("{} ({})", backend.addr, failure.error));
                }
            }
        }
        if !failures.is_empty() {
            self.cluster
                .counters
                .unavailable
                .fetch_add(1, Ordering::SeqCst);
            return error_response(
                ErrorCode::BackendUnavailable,
                format!(
                    "reload of venue `{}` did not reach every replica of shard `{}`: {}",
                    reload.venue,
                    shard.name,
                    failures.join(", ")
                ),
            );
        }
        self.cluster.counters.reloads.fetch_add(1, Ordering::SeqCst);
        let body = RouterReloadBody {
            api_version: ApiVersion::CURRENT.wire(),
            venue: reload.venue,
            shard: shard.name.clone(),
            replicas,
        };
        Response::json(
            200,
            serde_json::to_string(&body).expect("reload serializes"),
        )
    }
}

/// Relays a backend reply verbatim: status, body, and the cache headers
/// the protocol defines (`x-ikrq-cache`, `x-ikrq-cache-hits`). Hop-by-hop
/// headers (connection, content-length) are the router's own business and
/// are re-framed by the engine.
fn passthrough(reply: &ClientReply) -> Response {
    let mut response = Response::json(reply.status, reply.body.clone());
    for name in ["x-ikrq-cache", "x-ikrq-cache-hits", "allow", "retry-after"] {
        if let Some(value) = reply.header(name) {
            response = response.with_header(name, value);
        }
    }
    response
}
