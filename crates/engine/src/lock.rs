//! Striped row-level exclusive locking with deadlock detection.
//!
//! Writers (and `SELECT ... FOR UPDATE`) take exclusive row locks held
//! until commit/rollback (strict two-phase locking). A DELETE and a
//! key-moving UPDATE also lock each primary-key value they free (and the
//! UPDATE the one it takes), and while any key lock is held an INSERT takes
//! its key's lock too, so a key an open transaction freed is not reused
//! before it ends: the INSERT waits, and fails if that transaction rolls
//! back. Readers run at
//! read-committed isolation without locks. Deadlocks are detected by cycle
//! search over the wait-for graph; the requesting transaction is the victim
//! and receives [`EngineError::Deadlock`].
//!
//! The resource→owner table is split over [`LOCK_STRIPES`] independently
//! locked stripes keyed by resource hash, so uncontended acquisitions on
//! different rows never serialize against each other; per-transaction
//! owned-sets are likewise sharded by transaction id. Only the *blocking*
//! path — an actual owner conflict — falls back to the single wait-for
//! graph mutex, whose condvar serializes waiters (DESIGN.md §9 covers the
//! lock ordering: waiting lock, then stripe lock, never the reverse).

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::{EngineError, Result};
use crate::row::RowId;
use crate::wal::InternalTxnId;

/// Stripes of the resource→owner table. Row accesses hash uniformly, so a
/// modest power of two keeps the uncontended fast path collision-free for
/// the thread counts the bench drives (≤ 16) without bloating the struct.
const LOCK_STRIPES: usize = 16;

/// Shards of the per-transaction owned-resource sets, keyed by transaction
/// id — concurrent transactions release in bulk without sharing a lock.
const OWNED_SHARDS: usize = 16;

/// A lockable resource.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ResourceId {
    /// One row of a table, named by the table's buffer-pool object id: a
    /// row lock neither copies nor hashes the table name.
    Row(u32, RowId),
    /// One primary-key value of a table (object id, encoded index key).
    Key(u32, Vec<u8>),
    /// A whole table (used by DDL).
    Table(String),
}

/// True when following wait-edges from `from` reaches `target`.
fn reaches(
    waits_for: &HashMap<InternalTxnId, InternalTxnId>,
    from: InternalTxnId,
    target: InternalTxnId,
) -> bool {
    let mut cur = from;
    let mut hops = 0;
    while let Some(&next) = waits_for.get(&cur) {
        if next == target {
            return true;
        }
        cur = next;
        hops += 1;
        if hops > waits_for.len() {
            return false; // defensive: malformed graph
        }
    }
    false
}

/// The lock manager shared by all sessions of a database.
#[derive(Debug)]
pub struct LockManager {
    /// Resource → owning transaction, striped by resource hash.
    stripes: Vec<Mutex<HashMap<ResourceId, InternalTxnId>>>,
    /// Transaction → resources it owns (for bulk release), sharded by
    /// transaction id.
    owned: Vec<Mutex<HashMap<InternalTxnId, HashSet<ResourceId>>>>,
    /// Waiter → the owner it waits on (single edge per waiter). This is
    /// the only global lock, taken exclusively on the blocking path.
    waiting: Mutex<HashMap<InternalTxnId, InternalTxnId>>,
    released: Condvar,
    /// [`ResourceId::Key`] locks held, over every transaction.
    key_locks: AtomicUsize,
}

impl Default for LockManager {
    fn default() -> Self {
        Self {
            stripes: (0..LOCK_STRIPES).map(|_| Mutex::default()).collect(),
            owned: (0..OWNED_SHARDS).map(|_| Mutex::default()).collect(),
            waiting: Mutex::default(),
            released: Condvar::new(),
            key_locks: AtomicUsize::new(0),
        }
    }
}

impl LockManager {
    /// Creates an empty manager.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn stripe(&self, res: &ResourceId) -> &Mutex<HashMap<ResourceId, InternalTxnId>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        res.hash(&mut h);
        &self.stripes[(h.finish() as usize) % self.stripes.len()]
    }

    fn owned_shard(
        &self,
        txn: InternalTxnId,
    ) -> &Mutex<HashMap<InternalTxnId, HashSet<ResourceId>>> {
        &self.owned[(txn.0 as usize) % self.owned.len()]
    }

    /// Acquires an exclusive lock on `res` for `txn`, blocking while another
    /// transaction holds it.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Deadlock`] when waiting would close a cycle in
    /// the wait-for graph (the caller must roll the transaction back), and
    /// after a generous timeout as a safety net.
    pub fn lock_exclusive(&self, txn: InternalTxnId, res: ResourceId) -> Result<()> {
        loop {
            // Fast path: one stripe lock, no global state touched.
            {
                let mut stripe = self.stripe(&res).lock();
                match stripe.get(&res) {
                    None => {
                        if matches!(res, ResourceId::Key(..)) {
                            self.key_locks.fetch_add(1, Ordering::SeqCst);
                        }
                        stripe.insert(res.clone(), txn);
                        drop(stripe);
                        // A transaction runs on one thread, so its own
                        // release_all cannot race this bookkeeping.
                        self.owned_shard(txn)
                            .lock()
                            .entry(txn)
                            .or_default()
                            .insert(res);
                        return Ok(());
                    }
                    Some(&owner) if owner == txn => return Ok(()),
                    Some(_) => {}
                }
            }
            // Blocking path: register a wait-for edge and sleep. The owner
            // is re-read under the waiting lock so a release between the
            // fast path and here cannot strand us (release_all clears the
            // stripe entry *before* taking the waiting lock to notify).
            let mut waiting = self.waiting.lock();
            let owner = match self.stripe(&res).lock().get(&res) {
                None => continue, // released meanwhile: retry the fast path
                Some(&owner) if owner == txn => return Ok(()),
                Some(&owner) => owner,
            };
            if reaches(&waiting, owner, txn) {
                return Err(EngineError::Deadlock);
            }
            waiting.insert(txn, owner);
            let timed_out = self
                .released
                .wait_for(&mut waiting, Duration::from_secs(10))
                .timed_out();
            waiting.remove(&txn);
            if timed_out {
                return Err(EngineError::Deadlock);
            }
        }
    }

    /// Releases every lock held by `txn` and wakes all waiters.
    pub fn release_all(&self, txn: InternalTxnId) {
        let resources = self.owned_shard(txn).lock().remove(&txn);
        if let Some(resources) = resources {
            for r in resources {
                self.stripe(&r).lock().remove(&r);
                if matches!(r, ResourceId::Key(..)) {
                    self.key_locks.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
        let mut waiting = self.waiting.lock();
        waiting.remove(&txn);
        drop(waiting);
        self.released.notify_all();
    }

    /// Whether any transaction holds a [`ResourceId::Key`] lock. A DELETE
    /// or key-moving UPDATE locks the keys it frees before it takes the
    /// table's write lock, so an INSERT that reads `false` under that lock
    /// knows no open transaction has freed its key.
    pub fn keys_locked(&self) -> bool {
        self.key_locks.load(Ordering::SeqCst) > 0
    }

    /// Number of locks currently held by `txn` (diagnostics).
    pub fn held_by(&self, txn: InternalTxnId) -> usize {
        self.owned_shard(txn)
            .lock()
            .get(&txn)
            .map_or(0, |s| s.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn row(id: u64) -> ResourceId {
        ResourceId::Row(7, RowId(id))
    }

    #[test]
    fn reentrant_lock_is_free() {
        let lm = LockManager::new();
        lm.lock_exclusive(InternalTxnId(1), row(1)).unwrap();
        lm.lock_exclusive(InternalTxnId(1), row(1)).unwrap();
        assert_eq!(lm.held_by(InternalTxnId(1)), 1);
    }

    #[test]
    fn release_unblocks_waiter() {
        let lm = LockManager::new();
        lm.lock_exclusive(InternalTxnId(1), row(1)).unwrap();
        let lm2 = Arc::clone(&lm);
        let handle = thread::spawn(move || lm2.lock_exclusive(InternalTxnId(2), row(1)));
        thread::sleep(Duration::from_millis(50));
        lm.release_all(InternalTxnId(1));
        handle.join().unwrap().unwrap();
        assert_eq!(lm.held_by(InternalTxnId(2)), 1);
    }

    #[test]
    fn two_party_deadlock_is_detected() {
        let lm = LockManager::new();
        lm.lock_exclusive(InternalTxnId(1), row(1)).unwrap();
        lm.lock_exclusive(InternalTxnId(2), row(2)).unwrap();
        let lm2 = Arc::clone(&lm);
        // txn 2 waits for row 1 (held by txn 1).
        let handle = thread::spawn(move || {
            let r = lm2.lock_exclusive(InternalTxnId(2), row(1));
            lm2.release_all(InternalTxnId(2));
            r
        });
        thread::sleep(Duration::from_millis(50));
        // txn 1 requesting row 2 closes the cycle and must fail fast.
        let err = lm.lock_exclusive(InternalTxnId(1), row(2)).unwrap_err();
        assert_eq!(err, EngineError::Deadlock);
        lm.release_all(InternalTxnId(1));
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn key_locks_are_counted_until_released() {
        let lm = LockManager::new();
        lm.lock_exclusive(InternalTxnId(1), row(1)).unwrap();
        assert!(!lm.keys_locked());
        let key = ResourceId::Key(7, vec![1]);
        lm.lock_exclusive(InternalTxnId(1), key.clone()).unwrap();
        lm.lock_exclusive(InternalTxnId(1), key).unwrap();
        assert!(lm.keys_locked());
        lm.release_all(InternalTxnId(1));
        assert!(!lm.keys_locked());
    }

    #[test]
    fn release_all_clears_everything() {
        let lm = LockManager::new();
        lm.lock_exclusive(InternalTxnId(1), row(1)).unwrap();
        lm.lock_exclusive(InternalTxnId(1), row(2)).unwrap();
        lm.release_all(InternalTxnId(1));
        assert_eq!(lm.held_by(InternalTxnId(1)), 0);
        // Another txn can take the rows immediately.
        lm.lock_exclusive(InternalTxnId(2), row(1)).unwrap();
    }

    #[test]
    fn table_and_row_locks_are_distinct_resources() {
        let lm = LockManager::new();
        lm.lock_exclusive(InternalTxnId(1), ResourceId::Table("t".into()))
            .unwrap();
        // A row in `t` is a separate resource in this manager.
        lm.lock_exclusive(InternalTxnId(2), row(1)).unwrap();
    }
}
