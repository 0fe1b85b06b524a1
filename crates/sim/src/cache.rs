//! A concurrent statement-shape cache: fingerprint → `Arc<V>`.
//!
//! The proxy's rewrite cache and the engine's parsed-statement cache are
//! both this type. Steady-state workloads execute a small set of statement
//! *shapes* with varying literals (TPC-C has a few dozen), keyed by the
//! literal-masked 128-bit fingerprint of `resildb_sql::scan_statement`.
//! Entries are immutable behind `Arc`; each shard's map sits behind a
//! mutex held only for the lookup/insert instant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::lru::LruMap;

/// Shards of a full-size cache. Small caches (capacity below
/// [`SHARDING_THRESHOLD`]) stay single-sharded so their LRU eviction order
/// is exact — sharding splits the capacity, which a 4-entry cache cannot
/// afford, while a 256-shape cache loses nothing.
const SHARDS: usize = 8;

/// Minimum total capacity before the cache spreads over [`SHARDS`] shards.
const SHARDING_THRESHOLD: usize = 64;

/// Point-in-time counters of a [`ShapeCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShapeCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found no admissible entry.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Statement shapes currently cached.
    pub entries: usize,
}

/// Concurrency-safe shape-fingerprint → `Arc<V>` cache, least-recently-used
/// eviction per shard. Sharded by fingerprint so hits from concurrent
/// sessions never serialize on one lock.
#[derive(Debug)]
pub struct ShapeCache<V> {
    shards: Vec<Mutex<LruMap<u128, Arc<V>>>>,
    enabled: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V> ShapeCache<V> {
    /// Creates a cache holding up to `capacity` shapes. Zero capacity
    /// disables it: every lookup misses, every insert is dropped.
    pub fn new(capacity: usize) -> Self {
        let shards = if capacity >= SHARDING_THRESHOLD {
            SHARDS
        } else {
            1
        };
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(LruMap::new(capacity.div_ceil(shards))))
                .collect(),
            enabled: capacity > 0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether lookups can ever succeed (capacity > 0). Lock-free: callers
    /// test it on every statement before fingerprinting.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn shard(&self, fingerprint: u128) -> &Mutex<LruMap<u128, Arc<V>>> {
        let h = (fingerprint as u64) ^ ((fingerprint >> 64) as u64);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Fetches the entry for `fingerprint` if present and `admits` accepts
    /// it — the caller's guard against fingerprint collisions, typically a
    /// literal-slot count. Counts a hit or a miss either way.
    pub fn lookup(&self, fingerprint: u128, admits: impl FnOnce(&V) -> bool) -> Option<Arc<V>> {
        let hit = {
            let mut map = self.shard(fingerprint).lock();
            map.get(&fingerprint).filter(|v| admits(v)).map(Arc::clone)
        };
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Stores `value` under `fingerprint`, evicting the least recently
    /// used shape of its shard if at capacity, and hands back the stored
    /// entry.
    pub fn insert(&self, fingerprint: u128, value: V) -> Arc<V> {
        let value = Arc::new(value);
        let evicted = self
            .shard(fingerprint)
            .lock()
            .insert(fingerprint, Arc::clone(&value));
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Current counters.
    pub fn stats(&self) -> ShapeCacheStats {
        ShapeCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = ShapeCache::new(4);
        assert!(cache.lookup(1, |_| true).is_none());
        cache.insert(1, "shape");
        assert!(cache.lookup(1, |_| true).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn eviction_is_counted() {
        let cache = ShapeCache::new(1);
        cache.insert(1, ());
        cache.insert(2, ());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(1, |()| true).is_none());
        assert!(cache.lookup(2, |()| true).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ShapeCache::new(0);
        assert!(!cache.enabled());
        cache.insert(1, ());
        assert!(cache.lookup(1, |()| true).is_none());
    }

    #[test]
    fn small_caches_stay_single_sharded() {
        assert_eq!(
            ShapeCache::<()>::new(SHARDING_THRESHOLD - 1).shards.len(),
            1
        );
        assert_eq!(
            ShapeCache::<()>::new(SHARDING_THRESHOLD).shards.len(),
            SHARDS
        );
    }
}
