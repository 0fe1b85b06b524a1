//! A generic bounded least-recently-used map.
//!
//! The one LRU of the workspace: [`ShapeCache`](crate::ShapeCache) shards
//! are `LruMap`s, and the [`BufferPool`](crate::BufferPool) is one keyed by
//! page whose value is the dirty bit.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A strict-LRU map holding at most `capacity` entries; capacity 0 disables
/// the map entirely (every `get` misses, every `insert` is dropped).
#[derive(Debug)]
pub struct LruMap<K, V> {
    capacity: usize,
    tick: u64,
    entries: HashMap<K, (u64, V)>,
    by_age: BTreeMap<u64, K>,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Creates a map bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            entries: HashMap::new(),
            by_age: BTreeMap::new(),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.get_mut(key).map(|v| &*v)
    }

    /// [`Self::get`] with the value handed out mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        self.by_age.remove(&entry.0);
        entry.0 = tick;
        self.by_age.insert(tick, key.clone());
        Some(&mut entry.1)
    }

    /// Inserts `key → value`, evicting the least-recently-used entry when
    /// full. Returns the entry evicted to make room, if any (replacing the
    /// value of a present key evicts nothing).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(old) = self.entries.insert(key.clone(), (tick, value)) {
            self.by_age.remove(&old.0);
            self.by_age.insert(tick, key);
            return None;
        }
        self.by_age.insert(tick, key);
        if self.entries.len() <= self.capacity {
            return None;
        }
        let (_, victim) = self.by_age.pop_first()?;
        let (_, value) = self.entries.remove(&victim)?;
        Some((victim, value))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.by_age.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_refreshes_recency() {
        let mut m = LruMap::new(2);
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.get(&"a"), Some(&1));
        assert_eq!(m.insert("c", 3), Some(("b", 2)), "b should be evicted");
        assert_eq!(m.get(&"b"), None);
        assert_eq!(m.get(&"a"), Some(&1));
        assert_eq!(m.get(&"c"), Some(&3));
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut m = LruMap::new(2);
        m.insert(1, "x");
        m.insert(2, "y");
        assert_eq!(m.insert(1, "z"), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&1), Some(&"z"));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut m = LruMap::new(0);
        assert_eq!(m.insert(1, 1), None);
        assert_eq!(m.get(&1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut m = LruMap::new(3);
        for i in 0..50 {
            m.insert(i, i);
            assert!(m.len() <= 3);
        }
        assert_eq!(m.capacity(), 3);
    }

    #[test]
    fn clear_empties() {
        let mut m = LruMap::new(4);
        m.insert(1, 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&1), None);
    }
}
