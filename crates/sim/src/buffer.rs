//! LRU buffer pool deciding which page accesses hit memory.

use crate::lru::LruMap;

/// Identifies one logical disk page: a table (or log segment) id plus a page
/// number within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// Owning object (table/index/segment) id.
    pub object: u32,
    /// Page number within the object.
    pub page: u64,
}

impl PageKey {
    /// Creates a key.
    pub const fn new(object: u32, page: u64) -> Self {
        Self { object, page }
    }
}

/// Outcome of one buffer-pool access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageAccess {
    /// Whether the page was already resident.
    pub hit: bool,
    /// Whether making room evicted a dirty page (costing a write-back).
    pub evicted_dirty: bool,
}

/// A strict-LRU page cache.
///
/// The pool tracks residency and dirtiness only — actual page *contents*
/// live in the engine's tables; this type exists purely so the cost model
/// can distinguish cache hits from disk reads, which is the mechanism behind
/// the paper's footprint-size axis (W=1 workloads fit in cache, W=10
/// workloads do not).
///
/// # Examples
///
/// ```
/// use resildb_sim::{BufferPool, PageKey};
///
/// let mut pool = BufferPool::new(2);
/// assert!(!pool.access(PageKey::new(0, 1), false).hit);
/// assert!(pool.access(PageKey::new(0, 1), false).hit);
/// ```
#[derive(Debug)]
pub struct BufferPool {
    /// Resident pages; the value is the dirty bit.
    pages: LruMap<PageKey, bool>,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        Self {
            pages: LruMap::new(capacity),
        }
    }

    /// Touches `key`, marking it dirty if `dirty`, and reports hit/eviction.
    pub fn access(&mut self, key: PageKey, dirty: bool) -> PageAccess {
        if let Some(resident_dirty) = self.pages.get_mut(&key) {
            *resident_dirty |= dirty;
            return PageAccess {
                hit: true,
                evicted_dirty: false,
            };
        }
        let evicted_dirty = if self.pages.capacity() == 0 {
            // Cache disabled: every access misses; dirty accesses pay the
            // write-back immediately.
            dirty
        } else {
            self.pages
                .insert(key, dirty)
                .is_some_and(|(_, evicted)| evicted)
        };
        PageAccess {
            hit: false,
            evicted_dirty,
        }
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Evicts everything (dirty pages are dropped without cost — callers
    /// flushing between benchmark phases account for that themselves).
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut pool = BufferPool::new(2);
        let (a, b, c) = (PageKey::new(0, 1), PageKey::new(0, 2), PageKey::new(0, 3));
        pool.access(a, false);
        pool.access(b, false);
        // Touch `a` so `b` is now the LRU victim.
        assert!(pool.access(a, false).hit);
        pool.access(c, false);
        assert!(pool.access(a, false).hit, "a should have survived");
        assert!(!pool.access(b, false).hit, "b should have been evicted");
    }

    #[test]
    fn dirty_eviction_is_reported_once() {
        let mut pool = BufferPool::new(1);
        pool.access(PageKey::new(0, 1), true);
        let acc = pool.access(PageKey::new(0, 2), false);
        assert!(acc.evicted_dirty);
        let acc2 = pool.access(PageKey::new(0, 3), false);
        assert!(!acc2.evicted_dirty, "clean page eviction is free");
    }

    #[test]
    fn redirtying_a_resident_page_sticks() {
        let mut pool = BufferPool::new(2);
        let a = PageKey::new(0, 1);
        pool.access(a, false);
        pool.access(a, true); // now dirty
        pool.access(PageKey::new(0, 2), false);
        let acc = pool.access(PageKey::new(0, 3), false); // evicts `a`
        assert!(acc.evicted_dirty);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut pool = BufferPool::new(0);
        let a = PageKey::new(0, 1);
        assert!(!pool.access(a, false).hit);
        assert!(!pool.access(a, false).hit);
        assert_eq!(pool.len(), 0);
        assert!(pool.access(a, true).evicted_dirty);
    }

    #[test]
    fn clear_empties_pool() {
        let mut pool = BufferPool::new(4);
        pool.access(PageKey::new(0, 1), true);
        assert!(!pool.is_empty());
        pool.clear();
        assert!(pool.is_empty());
        assert!(!pool.access(PageKey::new(0, 1), false).hit);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut pool = BufferPool::new(3);
        for i in 0..100 {
            pool.access(PageKey::new(0, i), i % 2 == 0);
            assert!(pool.len() <= 3);
        }
    }
}
