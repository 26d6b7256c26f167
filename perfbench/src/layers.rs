//! Per-layer measurement from outside the layers: spans around calls into
//! their public functions.
//!
//! The traced replay re-runs a workload's request bodies in process through
//! the same calls the serving path makes — decode, cache lookup, context
//! preparation, search, encode, cache insert — with a [`Tracer`] span
//! around each, one root span per request. Keyword preparation is timed
//! again on its own after the root span closes. Probes outside the request
//! path (venue loads, index adoption, whole-venue Dijkstra, HTTP parsing)
//! record root spans with the request id [`PROBE`].

use crate::stats::median;
use crate::trace::{coverage, durations_ms, reduce, Tracer};
use ikrq_core::context::SearchContext;
use ikrq_core::framework::Search;
use ikrq_core::{
    CacheConfig, IkrqEngine, PruneRule, ResponseCache, ResponseTiming, SearchRequest,
    SearchResponse, VenueSummary, API_VERSION,
};
use indoor_persist::{binary, IndexSection};
use indoor_space::{DoorId, IndoorSpace, ShortestPaths};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Request id of spans that belong to no request.
pub const PROBE: u64 = u64::MAX;

/// Loads of a venue file timed by [`persist_probe`].
const LOAD_ROUNDS: usize = 3;
/// Source doors sampled for one full Dijkstra.
const DIJKSTRA_SAMPLES: usize = 8;

/// What the persistence and index layers cost on a venue file.
#[derive(Debug, Clone, Copy)]
pub struct PersistProbe {
    /// Median `binary::load_venue_model` time, milliseconds.
    pub load_ms: f64,
    /// Share of loads that adopted the columnar section undegraded.
    pub adopted_frac: f64,
    /// File size, MiB.
    pub file_mib: f64,
    /// Median `PrebuiltIndex::into_index` time, milliseconds.
    pub adopt_ms: f64,
}

/// Times [`LOAD_ROUNDS`] cold loads of a venue file (model decode + index
/// adoption) in spans and returns the engine the last one built.
pub fn persist_probe(
    path: &Path,
    tracer: &mut Tracer,
) -> std::io::Result<(PersistProbe, IkrqEngine)> {
    let bytes = std::fs::read(path)?;
    let mut adopted = 0usize;
    let mut engine = None;
    for _ in 0..LOAD_ROUNDS {
        drop(engine.take());
        let loaded = tracer
            .span("persist.load_venue_model", PROBE, |_| {
                binary::load_venue_model(&bytes)
            })
            .map_err(std::io::Error::other)?;
        adopted += usize::from(loaded.stats.adopted_columnar && loaded.stats.degraded.is_none());
        let IndexSection::Present(prebuilt) = loaded.index else {
            return Err(std::io::Error::other(
                "venue file carries no usable index section",
            ));
        };
        let index = tracer
            .span("index.into_index", PROBE, |_| {
                prebuilt.into_index(&loaded.directory)
            })
            .map_err(std::io::Error::other)?;
        engine = Some(IkrqEngine::with_prebuilt_index(
            loaded.space,
            loaded.directory,
            index,
        ));
    }
    // Earlier venues' probes share the tracer: take this file's rounds.
    let this_file = |name| {
        let all = durations_ms(tracer.spans(), name);
        median(&all[all.len() - LOAD_ROUNDS..])
    };
    let probe = PersistProbe {
        load_ms: this_file("persist.load_venue_model"),
        adopted_frac: adopted as f64 / LOAD_ROUNDS as f64,
        file_mib: bytes.len() as f64 / (1024.0 * 1024.0),
        adopt_ms: this_file("index.into_index"),
    };
    Ok((probe, engine.expect("at least one round ran")))
}

/// Median time of one whole-venue `ShortestPaths::from_door`, milliseconds,
/// over seeded source doors, each call in a span.
pub fn from_door_ms(space: &IndoorSpace, seed: u64, tracer: &mut Tracer) -> f64 {
    let paths = ShortestPaths::new(space);
    let none = HashSet::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1_57);
    for _ in 0..DIJKSTRA_SAMPLES {
        let door = DoorId(rng.gen_range(0..space.num_doors() as u32));
        tracer.span("space.from_door", PROBE, |_| {
            std::hint::black_box(paths.from_door(door, &none))
        });
    }
    median(&durations_ms(tracer.spans(), "space.from_door"))
}

/// Mean `HttpConnection::read_request` time per request over the wire bytes
/// of `requests` (`(path, body)`), microseconds. Each pass over the bytes is
/// one span.
pub fn http_parse_us(requests: &[(&str, String)], tracer: &mut Tracer) -> f64 {
    let mut wire = Vec::new();
    for (path, body) in requests {
        wire.extend_from_slice(
            format!(
                "POST {path} HTTP/1.1\r\nhost: 127.0.0.1:8080\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
    let started = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || started.elapsed().as_secs_f64() < 0.05 {
        tracer.span("http.read_request", PROBE, |_| {
            let mut connection = ikrq_server::HttpConnection::new(Cursor::new(&wire));
            for _ in requests {
                std::hint::black_box(
                    connection
                        .read_request(64 * 1024 * 1024)
                        .expect("benchmark requests parse"),
                );
            }
        });
        passes += 1;
    }
    let total_ms: f64 = durations_ms(tracer.spans(), "http.read_request")
        .iter()
        .sum();
    total_ms * 1e3 / (passes * requests.len()) as f64
}

/// Search effort summed over the replayed cache misses.
#[derive(Debug, Clone, Default)]
pub struct Effort {
    /// Searches run (cache misses).
    pub searches: u64,
    /// Summed `stamps_expanded`.
    pub stamps_expanded: u64,
    /// Summed `stamps_generated`.
    pub stamps_generated: u64,
    /// Summed firings of rules 1–5.
    pub rules: [u64; 5],
    /// Summed firings of every pruning counter.
    pub prunes: u64,
    /// Searches that exhausted their expansion budget.
    pub budget_exhausted: u64,
    /// Summed `queue_peak_len`.
    pub queue_peak_len: u64,
    /// Summed `peak_memory_bytes`.
    pub peak_memory_bytes: u64,
    /// Summed `dijkstra_calls`.
    pub dijkstra_calls: u64,
    /// Summed candidate-partition fraction of the prepared queries.
    pub candidate_frac: f64,
}

impl Effort {
    /// `total / searches` (0 without searches).
    pub fn per_search(&self, total: f64) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            total / self.searches as f64
        }
    }
}

/// Replays request bodies through the serving path's calls with a span
/// around each.
pub struct Replayer<'a> {
    engines: &'a HashMap<String, Arc<IkrqEngine>>,
    cache: ResponseCache,
    /// The tracer holding every span.
    pub tracer: Tracer,
    /// Search effort of the replayed misses.
    pub effort: Effort,
}

impl<'a> Replayer<'a> {
    /// A replayer over engines keyed by venue id that records into
    /// `tracer`, with a response cache sized like a default server's.
    pub fn new(engines: &'a HashMap<String, Arc<IkrqEngine>>, tracer: Tracer) -> Self {
        Replayer {
            engines,
            cache: ResponseCache::new(CacheConfig::default()),
            tracer,
            effort: Effort::default(),
        }
    }

    /// Replays one request body under a cache epoch and returns the
    /// deterministic bytes of the answer; `None` when the body does not
    /// decode or the search fails.
    pub fn replay(&mut self, id: u64, body: &str, epoch: u64) -> Option<String> {
        let engines = self.engines;
        let cache = &self.cache;
        let effort = &mut self.effort;
        let answer = self.tracer.span("request", id, |t| {
            let request: SearchRequest = t
                .span("core.decode", id, |_| serde_json::from_str(body))
                .ok()?;
            let (key, hit) = t.span("cache.lookup", id, |_| {
                let key = request.cache_key(epoch);
                let hit = cache.get(&key);
                (key, hit)
            });
            if let Some(hit) = hit {
                return Some(Err(hit));
            }
            let engine = engines.get(&request.venue)?;
            let (space, directory, index) = (engine.space(), engine.directory(), engine.index());
            let ctx = t
                .span("core.prepare", id, |_| {
                    SearchContext::prepare_with_index(space, directory, index, &request.query)
                })
                .ok()?;
            let variant = request.options.effective_variant();
            let outcome = t.span("core.search", id, |_| {
                Search::new(&ctx, variant, None).run()
            });
            let m = &outcome.metrics;
            effort.searches += 1;
            effort.stamps_expanded += m.stamps_expanded;
            effort.stamps_generated += m.stamps_generated;
            for (slot, rule) in [
                PruneRule::PartialRouteDistance,
                PruneRule::DoorDistance,
                PruneRule::PartitionDistance,
                PruneRule::KBound,
                PruneRule::Prime,
            ]
            .into_iter()
            .enumerate()
            {
                effort.rules[slot] += m.prunes.count(rule);
            }
            effort.prunes += m.prunes.total();
            effort.budget_exhausted += u64::from(m.budget_exhausted);
            effort.queue_peak_len += m.queue_peak_len as u64;
            effort.peak_memory_bytes += m.peak_memory_bytes as u64;
            effort.dijkstra_calls += m.dijkstra_calls;
            let (response, encoded) = t.span("core.encode", id, |_| {
                let response = SearchResponse {
                    api_version: API_VERSION,
                    venue: VenueSummary {
                        id: request.venue.clone(),
                        partitions: space.num_partitions(),
                        doors: space.num_doors(),
                    },
                    variant: outcome.label,
                    results: outcome.results,
                    metrics: Some(outcome.metrics),
                    timing: ResponseTiming::default(),
                };
                let encoded = serde_json::to_string(&response).expect("responses serialize");
                (response, encoded)
            });
            t.span("cache.insert", id, |_| cache.insert(key, encoded.as_str()));
            Some(Ok((response, request)))
        })?;
        // Measuring and checking are not part of the request, so they
        // happen after the root span closes. `core.prepare` repeats the
        // keyword preparation inside; timing it alone here, in a root span
        // of its own, lets the report subtract it without adding work to
        // the request.
        match answer {
            Ok((response, request)) => {
                let engine = engines.get(&request.venue)?;
                if let Some(index) = engine.index() {
                    let directory = engine.directory();
                    let prepared = self
                        .tracer
                        .span("index.prepare_query", id, |_| {
                            index.prepare_query(
                                &request.query.keywords,
                                directory,
                                request.query.tau,
                            )
                        })
                        .ok()?;
                    self.effort.candidate_frac += prepared.key_partitions(directory).len() as f64
                        / engine.space().num_partitions() as f64;
                }
                Some(response.deterministic_json())
            }
            Err(cached) => crate::check::served_deterministic(&cached),
        }
    }

    /// Untraced mean latency minus traced mean root span over the requests
    /// with exactly one root span and an untraced latency.
    fn gap_ms(&self, served: &HashMap<u64, f64>) -> f64 {
        let mut roots: HashMap<u64, Vec<f64>> = HashMap::new();
        for span in self.tracer.spans().iter().filter(|s| s.name == "request") {
            roots
                .entry(span.request)
                .or_default()
                .push(span.duration_ns() as f64 / 1e6);
        }
        let (untraced, traced): (Vec<f64>, Vec<f64>) = roots
            .iter()
            .filter(|(_, durations)| durations.len() == 1)
            .filter_map(|(id, durations)| Some((*served.get(id)?, durations[0])))
            .unzip();
        crate::stats::mean(&untraced) - crate::stats::mean(&traced)
    }

    /// Reduces the trace and the effort counters to per-layer metrics.
    /// `served` maps request ids to their untraced send-to-reply latency in
    /// milliseconds; `trace.gap_ms` compares the two over the requests both
    /// runs timed.
    pub fn metrics(&self, served: &HashMap<u64, f64>) -> Vec<(&'static str, f64, &'static str)> {
        let spans = self.tracer.spans();
        let layers = reduce(spans);
        let mean = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ms());
        let e = &self.effort;
        let per = |total: u64| e.per_search(total as f64);
        let coverage = coverage(spans, "request");
        vec![
            ("index.prepare_query_ms", mean("index.prepare_query"), "ms"),
            (
                "index.candidate_frac",
                e.per_search(e.candidate_frac),
                "ratio",
            ),
            (
                "core.prepare_ms",
                (mean("core.prepare") - mean("index.prepare_query")).max(0.0),
                "ms",
            ),
            ("core.search_ms", mean("core.search"), "ms"),
            ("core.encode_ms", mean("core.encode"), "ms"),
            (
                "core.stamps_expanded",
                per(e.stamps_expanded),
                "count/query",
            ),
            (
                "core.stamps_generated",
                per(e.stamps_generated),
                "count/query",
            ),
            (
                "core.prune_ratio",
                match e.prunes + e.stamps_generated {
                    0 => 0.0,
                    attempts => e.prunes as f64 / attempts as f64,
                },
                "ratio",
            ),
            ("core.prune.rule1", per(e.rules[0]), "count/query"),
            ("core.prune.rule2", per(e.rules[1]), "count/query"),
            ("core.prune.rule3", per(e.rules[2]), "count/query"),
            ("core.prune.rule4", per(e.rules[3]), "count/query"),
            ("core.prune.rule5", per(e.rules[4]), "count/query"),
            (
                "core.budget_exhausted_frac",
                per(e.budget_exhausted),
                "ratio",
            ),
            ("core.queue_peak_len", per(e.queue_peak_len), "count/query"),
            (
                "core.search_peak_mib",
                per(e.peak_memory_bytes) / (1024.0 * 1024.0),
                "MiB",
            ),
            ("space.dijkstra_calls", per(e.dijkstra_calls), "count/query"),
            ("trace.gap_ms", self.gap_ms(served), "ms"),
            (
                "trace.coverage_min",
                coverage.iter().copied().fold(1.0, f64::min),
                "ratio",
            ),
        ]
    }
}
