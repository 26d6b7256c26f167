//! Sharded LRU response cache for the service/HTTP layer.
//!
//! A [`ResponseCache`] maps string keys (the server keys on a request's
//! deterministic JSON plus the registry's venue epoch, see
//! [`crate::SearchRequest::cache_key`]) to immutable response bodies
//! (`Arc<str>`). The map is split into N shards selected by key hash, so
//! concurrent readers on different shards never contend on the same lock,
//! and each shard evicts least-recently-used entries independently once it
//! reaches its capacity share.
//!
//! The cache itself is deliberately dumb about invalidation: staleness is
//! handled by *keying*, not purging. Every key embeds the venue epoch
//! ([`crate::VenueRegistry::epoch`]), which the registry bumps whenever a
//! venue is registered or removed; entries built under an old epoch can
//! never be hit again and age out through normal LRU eviction (or an
//! explicit [`ResponseCache::clear`]).

use serde::Serialize;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Sizing of a [`ResponseCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of independent shards (hash-on-key). Clamped to at least 1
    /// and at most `capacity`, so every shard holds at least one entry.
    pub shards: usize,
    /// Upper bound on cached entries across all shards (the effective
    /// total rounds down to a multiple of the shard count). **0 disables
    /// caching**: every lookup misses and nothing is retained.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 8,
            capacity: 4096,
        }
    }
}

/// Aggregated counters of a [`ResponseCache`] (summed over shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries written (first insertion or overwrite).
    pub insertions: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Total capacity across shards.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when nothing was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One LRU shard: entries plus a recency index. `tick` is a per-shard
/// logical clock; the entry with the smallest tick is the least recently
/// used one and `order` keeps ticks sorted, so lookup, insert and eviction
/// are all `O(log n)`.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<String, (u64, Arc<str>)>,
    order: BTreeMap<u64, String>,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl Shard {
    fn touch(&mut self, key: &str) {
        self.tick += 1;
        let fresh = self.tick;
        if let Some((tick, _)) = self.entries.get_mut(key) {
            let old = std::mem::replace(tick, fresh);
            // Move the key's String from the old recency slot to the new
            // one — no reallocation, single map lookup above.
            if let Some(name) = self.order.remove(&old) {
                self.order.insert(fresh, name);
            }
        }
    }

    fn evict_to(&mut self, capacity: usize) {
        while self.entries.len() > capacity {
            let Some((&oldest, _)) = self.order.iter().next() else {
                break;
            };
            let key = self.order.remove(&oldest).expect("index entry exists");
            self.entries.remove(&key);
            self.evictions += 1;
        }
    }
}

/// A sharded, thread-safe LRU map from request keys to response bodies.
///
/// ```
/// use ikrq_core::cache::{CacheConfig, ResponseCache};
///
/// let cache = ResponseCache::new(CacheConfig { shards: 2, capacity: 64 });
/// assert!(cache.get("k").is_none());
/// cache.insert("k", "{\"routes\":[]}");
/// assert_eq!(cache.get("k").as_deref(), Some("{\"routes\":[]}"));
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
}

impl ResponseCache {
    /// A cache with the given sharding and capacity. The shard count is
    /// clamped so every shard holds at least one entry, and per-shard
    /// capacities round *down*, so the total never exceeds the configured
    /// capacity (it may fall short by up to `shards - 1` entries when the
    /// division is not exact). Capacity 0 builds a disabled cache that
    /// retains nothing.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.clamp(1, config.capacity.max(1));
        ResponseCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: config.capacity / shards,
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Looks a key up, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        let value = shard.entries.get(key).map(|(_, value)| Arc::clone(value));
        match value {
            Some(value) => {
                shard.hits += 1;
                shard.touch(key);
                Some(value)
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Whether the cache retains nothing (capacity 0): every lookup would
    /// miss, so a caller may skip building the key and count the miss with
    /// [`ResponseCache::record_miss`] instead.
    pub fn is_disabled(&self) -> bool {
        self.capacity_per_shard == 0
    }

    /// Counts a lookup that missed without being made, on a disabled cache.
    pub fn record_miss(&self) {
        self.shards[0].lock().expect("cache shard lock").misses += 1;
    }

    /// Inserts (or overwrites) an entry, evicting the least recently used
    /// entries of the key's shard when it is full. A no-op on a disabled
    /// (capacity 0) cache.
    pub fn insert(&self, key: impl Into<String>, value: impl Into<Arc<str>>) {
        if self.capacity_per_shard == 0 {
            return;
        }
        let key = key.into();
        let value = value.into();
        let mut shard = self.shard(&key).lock().expect("cache shard lock");
        shard.tick += 1;
        let tick = shard.tick;
        if let Some((old, _)) = shard.entries.insert(key.clone(), (tick, value)) {
            shard.order.remove(&old);
        }
        shard.order.insert(tick, key);
        shard.insertions += 1;
        let capacity = self.capacity_per_shard;
        shard.evict_to(capacity);
    }

    /// Number of live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("cache shard lock").entries.len())
            .sum()
    }

    /// Whether the cache holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters survive; dropped entries count as
    /// evictions).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard lock");
            let dropped = shard.entries.len() as u64;
            shard.entries.clear();
            shard.order.clear();
            shard.evictions += dropped;
        }
    }

    /// Counters summed over all shards.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            capacity: self.capacity_per_shard * self.shards.len(),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard lock");
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.insertions += shard.insertions;
            stats.evictions += shard.evictions;
            stats.entries += shard.entries.len();
        }
        stats
    }
}

impl Default for ResponseCache {
    fn default() -> Self {
        ResponseCache::new(CacheConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_and_stats() {
        let cache = ResponseCache::new(CacheConfig {
            shards: 4,
            capacity: 16,
        });
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
        cache.insert("a", "1");
        cache.insert("b", "2");
        assert_eq!(cache.get("a").as_deref(), Some("1"));
        assert_eq!(cache.get("b").as_deref(), Some("2"));
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 2);
        assert_eq!(stats.entries, 2);
        assert!(stats.hit_rate() > 0.6 && stats.hit_rate() < 0.7);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn overwrites_do_not_grow_the_cache() {
        let cache = ResponseCache::new(CacheConfig {
            shards: 1,
            capacity: 8,
        });
        cache.insert("k", "old");
        cache.insert("k", "new");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("k").as_deref(), Some("new"));
        assert_eq!(cache.stats().insertions, 2);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn least_recently_used_entries_are_evicted_first() {
        // One shard so the LRU order is globally observable.
        let cache = ResponseCache::new(CacheConfig {
            shards: 1,
            capacity: 3,
        });
        cache.insert("a", "1");
        cache.insert("b", "2");
        cache.insert("c", "3");
        // Refresh `a`, making `b` the LRU entry.
        assert!(cache.get("a").is_some());
        cache.insert("d", "4");
        assert!(cache.get("b").is_none(), "LRU entry must be evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert!(cache.get("d").is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn clear_drops_everything_but_keeps_counters() {
        let cache = ResponseCache::new(CacheConfig {
            shards: 2,
            capacity: 8,
        });
        cache.insert("a", "1");
        cache.insert("b", "2");
        cache.clear();
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!(stats.insertions, 2);
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn concurrent_access_from_many_threads_is_consistent() {
        let cache = std::sync::Arc::new(ResponseCache::new(CacheConfig {
            shards: 4,
            capacity: 128,
        }));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let cache = std::sync::Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let key = format!("key-{}", (t * 50 + i) % 64);
                    cache.insert(key.clone(), format!("value-{}", i));
                    assert!(cache.get(&key).is_some());
                }
            }));
        }
        for handle in handles {
            handle.join().expect("cache worker");
        }
        let stats = cache.stats();
        assert_eq!(stats.insertions, 400);
        assert_eq!(stats.hits, 400);
        assert!(cache.len() <= 128);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = ResponseCache::new(CacheConfig {
            shards: 0,
            capacity: 0,
        });
        cache.insert("a", "1");
        assert!(cache.get("a").is_none(), "disabled caches retain nothing");
        assert!(cache.is_empty());
        assert_eq!(cache.stats().capacity, 0);
        assert_eq!(cache.stats().misses, 1);
        assert!(cache.is_disabled());
        cache.record_miss();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn degenerate_configs_are_clamped() {
        // More shards than entries: shard count shrinks, capacity holds.
        let narrow = ResponseCache::new(CacheConfig {
            shards: 8,
            capacity: 3,
        });
        assert_eq!(narrow.stats().capacity, 3);
        narrow.insert("a", "1");
        assert_eq!(narrow.get("a").as_deref(), Some("1"));
    }

    #[test]
    fn effective_capacity_never_exceeds_the_configured_bound() {
        // 10 entries over 8 shards: per-shard capacity rounds down, the
        // total must not overshoot the configured 10.
        let cache = ResponseCache::new(CacheConfig {
            shards: 8,
            capacity: 10,
        });
        assert!(cache.stats().capacity <= 10);
        for i in 0..100 {
            cache.insert(format!("k{i}"), "v");
        }
        assert!(cache.len() <= 10, "held {} entries", cache.len());
    }
}
