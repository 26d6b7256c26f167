//! Multi-venue query serving: the [`VenueRegistry`] and the [`IkrqService`].
//!
//! The service hosts many named venues (each an immutable
//! [`Arc<IkrqEngine>`], shared lock-free by every query thread) and answers
//! [`SearchRequest`] envelopes one at a time ([`IkrqService::search`]) or as
//! a parallel batch ([`IkrqService::search_batch`]). Batch execution fans
//! requests out over scoped threads and returns responses in request order,
//! so a batch is observationally identical to a sequential loop — just
//! faster on multi-core hosts.

use crate::engine::{IkrqEngine, IndexMode};
use crate::error::EngineError;
use crate::request::{
    MetricsDetail, ResponseTiming, SearchRequest, SearchResponse, VenueSummary, API_VERSION,
};
use crate::Result;
use indoor_keywords::KeywordDirectory;
use indoor_space::IndoorSpace;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// A concurrent map from venue ids to engines.
///
/// Registration is expected at startup / topology changes; lookups are the
/// hot path and only take the read lock briefly to clone an `Arc`.
///
/// The registry also keeps a monotonically increasing **epoch** that is
/// bumped by every successful [`VenueRegistry::register`] and
/// [`VenueRegistry::remove`]. Response caches embed the epoch in their keys
/// (see [`crate::SearchRequest::cache_key`]), so any topology change
/// instantly orphans every cached response without a purge pass.
#[derive(Debug, Default)]
pub struct VenueRegistry {
    venues: RwLock<BTreeMap<String, Arc<IkrqEngine>>>,
    epoch: AtomicU64,
}

impl VenueRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        VenueRegistry::default()
    }

    /// Registers an engine under an id. Rejects empty ids and duplicates.
    pub fn register(&self, id: impl Into<String>, engine: Arc<IkrqEngine>) -> Result<()> {
        let id = id.into();
        if id.trim().is_empty() {
            return Err(EngineError::InvalidRequest(
                "venue id must not be empty".into(),
            ));
        }
        let mut venues = self.venues.write().expect("registry lock");
        if venues.contains_key(&id) {
            return Err(EngineError::InvalidRequest(format!(
                "venue `{id}` is already registered"
            )));
        }
        venues.insert(id, engine);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Atomically swaps the engine under an already-registered id — the hot
    /// venue reload primitive. Unlike a `remove` + `register` pair there is
    /// no window where the venue is unregistered, so concurrent searches
    /// never observe a transient `unknown_venue`. The epoch is bumped once,
    /// orphaning every cached response keyed on the old topology. Returns
    /// the replaced engine; errors if the id was never registered (reload
    /// does not create venues).
    pub fn replace(&self, id: &str, engine: Arc<IkrqEngine>) -> Result<Arc<IkrqEngine>> {
        let mut venues = self.venues.write().expect("registry lock");
        let Some(slot) = venues.get_mut(id) else {
            return Err(EngineError::UnknownVenue(id.to_string()));
        };
        let previous = std::mem::replace(slot, engine);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(previous)
    }

    /// Removes a venue, returning its engine if it was registered.
    pub fn remove(&self, id: &str) -> Option<Arc<IkrqEngine>> {
        let removed = self.venues.write().expect("registry lock").remove(id);
        if removed.is_some() {
            self.epoch.fetch_add(1, Ordering::SeqCst);
        }
        removed
    }

    /// The current topology epoch: starts at 0 and increases on every
    /// successful registration or removal.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The engine hosting `id`, if registered.
    pub fn get(&self, id: &str) -> Option<Arc<IkrqEngine>> {
        self.venues.read().expect("registry lock").get(id).cloned()
    }

    /// All registered ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        self.venues
            .read()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect()
    }

    /// Number of registered venues.
    pub fn len(&self) -> usize {
        self.venues.read().expect("registry lock").len()
    }

    /// Whether no venue is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The multi-venue query service: the primary entry point of `ikrq-core`.
///
/// ```
/// use ikrq_core::{IkrqService, SearchRequest};
/// use indoor_keywords::QueryKeywords;
///
/// let example = indoor_data::paper_example_venue();
/// let service = IkrqService::new();
/// service
///     .register_venue("fig1", example.venue.space.clone(), example.venue.directory.clone())
///     .unwrap();
/// let request = SearchRequest::builder("fig1")
///     .from(example.ps)
///     .to(example.pt)
///     .delta(400.0)
///     .keywords(QueryKeywords::new(["latte", "apple"]).unwrap())
///     .k(3)
///     .build()
///     .unwrap();
/// let response = service.search(&request).unwrap();
/// assert!(!response.results.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct IkrqService {
    registry: VenueRegistry,
}

impl IkrqService {
    /// A service with an empty registry.
    pub fn new() -> Self {
        IkrqService::default()
    }

    /// A service hosting the venues of an existing registry.
    pub fn with_registry(registry: VenueRegistry) -> Self {
        IkrqService { registry }
    }

    /// The venue registry.
    pub fn registry(&self) -> &VenueRegistry {
        &self.registry
    }

    /// Builds an engine for a venue and registers it. The engine holds no
    /// venue index ([`IndexMode::Scan`]), which no search reads. Returns
    /// the engine so callers can e.g. read its venue model.
    pub fn register_venue(
        &self,
        id: impl Into<String>,
        space: IndoorSpace,
        directory: KeywordDirectory,
    ) -> Result<Arc<IkrqEngine>> {
        let engine = Arc::new(IkrqEngine::with_index_mode(
            space,
            directory,
            IndexMode::Scan,
        ));
        self.registry.register(id, Arc::clone(&engine))?;
        Ok(engine)
    }

    /// Registers an existing engine under an id.
    pub fn register_engine(&self, id: impl Into<String>, engine: Arc<IkrqEngine>) -> Result<()> {
        self.registry.register(id, engine)
    }

    /// The engine hosting a venue id.
    pub fn venue(&self, id: &str) -> Result<Arc<IkrqEngine>> {
        self.registry
            .get(id)
            .ok_or_else(|| EngineError::UnknownVenue(id.to_string()))
    }

    /// Ids of all hosted venues, sorted.
    pub fn venue_ids(&self) -> Vec<String> {
        self.registry.ids()
    }

    /// Answers one request.
    pub fn search(&self, request: &SearchRequest) -> Result<SearchResponse> {
        let started = Instant::now();
        request.validate()?;
        let engine = self.venue(&request.venue)?;
        let outcome = engine.execute(&request.query, &request.options)?;
        let search_ms = outcome.metrics.elapsed_millis();
        let metrics = match request.options.metrics {
            MetricsDetail::None => None,
            MetricsDetail::Timing => {
                let mut headline = crate::metrics::SearchMetrics::new();
                headline.elapsed = outcome.metrics.elapsed;
                headline.peak_memory_bytes = outcome.metrics.peak_memory_bytes;
                Some(headline)
            }
            MetricsDetail::Full => Some(outcome.metrics),
        };
        Ok(SearchResponse {
            api_version: API_VERSION,
            venue: VenueSummary {
                id: request.venue.clone(),
                partitions: engine.space().num_partitions(),
                doors: engine.space().num_doors(),
            },
            variant: outcome.label,
            results: outcome.results,
            metrics,
            timing: ResponseTiming {
                total_ms: started.elapsed().as_secs_f64() * 1e3,
                search_ms,
            },
        })
    }

    /// Answers a batch of requests in parallel, returning one result per
    /// request **in request order** regardless of completion order. This is
    /// the service's throughput primitive: requests fan out over scoped
    /// worker threads (one per available core, capped by the batch size) and
    /// each worker pulls the next unclaimed request.
    pub fn search_batch(&self, requests: &[SearchRequest]) -> Vec<Result<SearchResponse>> {
        if requests.is_empty() {
            return Vec::new();
        }
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(requests.len());
        if workers <= 1 {
            return requests
                .iter()
                .map(|request| self.search(request))
                .collect();
        }

        let next = std::sync::atomic::AtomicUsize::new(0);
        let completed: Mutex<Vec<(usize, Result<SearchResponse>)>> =
            Mutex::new(Vec::with_capacity(requests.len()));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if index >= requests.len() {
                        break;
                    }
                    let outcome = self.search(&requests[index]);
                    completed.lock().expect("batch lock").push((index, outcome));
                });
            }
        });

        let mut completed = completed.into_inner().expect("batch lock");
        completed.sort_by_key(|(index, _)| *index);
        debug_assert_eq!(completed.len(), requests.len());
        completed.into_iter().map(|(_, outcome)| outcome).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_rejects_empty_and_duplicate_ids() {
        let registry = VenueRegistry::new();
        assert!(registry.is_empty());
        assert_eq!(registry.epoch(), 0);
        let example = indoor_data::paper_example_venue();
        let engine = Arc::new(IkrqEngine::new(
            example.venue.space.clone(),
            example.venue.directory.clone(),
        ));
        assert!(matches!(
            registry.register("", Arc::clone(&engine)),
            Err(EngineError::InvalidRequest(_))
        ));
        assert_eq!(registry.epoch(), 0, "rejected registrations do not bump");
        registry.register("a", Arc::clone(&engine)).unwrap();
        assert_eq!(registry.epoch(), 1);
        assert!(matches!(
            registry.register("a", Arc::clone(&engine)),
            Err(EngineError::InvalidRequest(_))
        ));
        assert_eq!(registry.epoch(), 1);
        assert_eq!(registry.ids(), vec!["a".to_string()]);
        assert!(registry.get("a").is_some());
        assert!(registry.get("b").is_none());
        assert!(registry.remove("a").is_some());
        assert!(registry.is_empty());
        assert_eq!(registry.epoch(), 2);
        assert!(registry.remove("a").is_none());
        assert_eq!(registry.epoch(), 2, "no-op removals do not bump");
    }

    #[test]
    fn replace_swaps_in_place_and_bumps_epoch_once() {
        let registry = VenueRegistry::new();
        let example = indoor_data::paper_example_venue();
        let engine = || {
            Arc::new(IkrqEngine::new(
                example.venue.space.clone(),
                example.venue.directory.clone(),
            ))
        };
        assert!(matches!(
            registry.replace("a", engine()),
            Err(EngineError::UnknownVenue(id)) if id == "a"
        ));
        assert_eq!(registry.epoch(), 0, "failed replacements do not bump");
        let first = engine();
        registry.register("a", Arc::clone(&first)).unwrap();
        assert_eq!(registry.epoch(), 1);
        let replaced = registry.replace("a", engine()).unwrap();
        assert!(Arc::ptr_eq(&replaced, &first), "returns the old engine");
        assert_eq!(registry.epoch(), 2, "one bump, not remove+register's two");
        assert_eq!(registry.len(), 1, "no unregistered window side effects");
    }

    #[test]
    fn registered_venues_are_served_without_an_index() {
        let service = IkrqService::new();
        let example = indoor_data::paper_example_venue();
        let engine = service
            .register_venue(
                "fig1",
                example.venue.space.clone(),
                example.venue.directory.clone(),
            )
            .unwrap();
        assert!(engine.index().is_none());
        assert!(service.venue("fig1").unwrap().index().is_none());
    }

    #[test]
    fn unknown_venues_are_reported() {
        let service = IkrqService::new();
        let example = indoor_data::paper_example_venue();
        let request = SearchRequest::builder("ghost")
            .from(example.ps)
            .to(example.pt)
            .delta(400.0)
            .keywords(indoor_keywords::QueryKeywords::new(["latte"]).unwrap())
            .build()
            .unwrap();
        assert!(matches!(
            service.search(&request),
            Err(EngineError::UnknownVenue(id)) if id == "ghost"
        ));
    }
}
