//! Sharded in-flight dependency store.
//!
//! One [`DepStore`] is shared by every connection of a tracking-proxy
//! factory (the proxy process of the paper). It is the factory-wide ledger
//! of *in-flight* tracked transactions: `begin` registers a proxy
//! transaction id, `commit` retires it as it writes its dependency record,
//! `abort` retires it without one. The per-transaction dependency *sets*
//! stay connection-local (a transaction runs on exactly one connection);
//! what the store adds is the cross-connection view — how many tracked
//! transactions are open right now, how many dependency records have been
//! written — plus the §3.3 bookkeeping invariant the concurrency stress
//! suite asserts: every committed transaction retires exactly the entry
//! its begin created, exactly once.
//!
//! The ledger is sharded by transaction-id hash so concurrent COMMITs on
//! different connections never serialize on one lock; time spent waiting
//! for a shard is recorded in the `proxy.trans_dep.shard_wait` histogram.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};
use resildb_sim::telemetry::names as span_names;
use resildb_sim::{MetricsSnapshot, Telemetry};

/// Shards of the in-flight ledger. Transaction ids are sequential, so the
/// modulo spreads consecutive transactions over distinct locks — exactly
/// the ids that commit concurrently.
const DEP_STORE_SHARDS: usize = 16;

/// State kept per in-flight tracked transaction. The per-transaction
/// dependency *sets* stay connection-local; the ledger only needs presence.
#[derive(Debug, Default, Clone, Copy)]
struct InFlight;

/// Factory-wide ledger of in-flight tracked transactions, sharded by
/// transaction-id hash (see module docs).
#[derive(Debug)]
pub struct DepStore {
    shards: Vec<Mutex<HashMap<i64, InFlight>>>,
    /// Dependency records written (one per committed tracked transaction).
    committed: AtomicU64,
    /// Transactions retired without a record.
    aborted: AtomicU64,
    /// Total dependencies harvested by committed transactions.
    harvested: AtomicU64,
}

impl Default for DepStore {
    fn default() -> Self {
        Self {
            shards: (0..DEP_STORE_SHARDS).map(|_| Mutex::default()).collect(),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            harvested: AtomicU64::new(0),
        }
    }
}

/// Point-in-time counters of a [`DepStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DepStoreStats {
    /// Tracked transactions currently open across all connections.
    pub inflight: usize,
    /// Committed transactions (each wrote exactly one dependency record).
    pub committed: u64,
    /// Transactions retired without a dependency record.
    pub aborted: u64,
    /// Total dependencies harvested by committed transactions.
    pub harvested: u64,
}

impl DepStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the shard for `trid`, recording the wait in the
    /// `proxy.trans_dep.shard_wait` histogram when telemetry is recording.
    fn shard(&self, trid: i64, telemetry: &Telemetry) -> MutexGuard<'_, HashMap<i64, InFlight>> {
        let mutex = &self.shards[(trid.unsigned_abs() as usize) % self.shards.len()];
        if !telemetry.is_enabled() {
            return mutex.lock();
        }
        let start = Instant::now();
        let guard = mutex.lock();
        telemetry.record_span_ns(
            span_names::PROXY_TRANS_DEP_SHARD_WAIT,
            start.elapsed().as_nanos() as u64,
        );
        guard
    }

    /// Registers a tracked transaction as in flight.
    pub fn begin(&self, trid: i64, telemetry: &Telemetry) {
        self.shard(trid, telemetry).insert(trid, InFlight);
    }

    /// Retires a transaction as it writes its dependency record. Returns
    /// whether the entry existed — `false` means a double commit or a
    /// commit without a begin, which the stress suite treats as a tracking
    /// bug.
    pub fn commit(&self, trid: i64, deps: usize, telemetry: &Telemetry) -> bool {
        let mut shard = self.shard(trid, telemetry);
        let existed = shard.remove(&trid).is_some();
        drop(shard);
        if existed {
            self.committed.fetch_add(1, Ordering::Relaxed);
            self.harvested.fetch_add(deps as u64, Ordering::Relaxed);
        }
        existed
    }

    /// Retires a transaction without a dependency record.
    pub fn abort(&self, trid: i64, telemetry: &Telemetry) {
        if self.shard(trid, telemetry).remove(&trid).is_some() {
            self.aborted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether any transaction that began *before* the id watermark is
    /// still in flight. Live repair raises its fence, snapshots the trid
    /// allocator as the watermark, and drains on this predicate: once it
    /// returns `false`, every transaction the pre-fence world admitted has
    /// committed or aborted, so the log analysis that follows sees a
    /// complete prefix.
    pub fn any_inflight_below(&self, watermark: i64) -> bool {
        self.shards
            .iter()
            .any(|s| s.lock().keys().any(|&trid| trid < watermark))
    }

    /// Current counters.
    pub fn stats(&self) -> DepStoreStats {
        DepStoreStats {
            inflight: self.shards.iter().map(|s| s.lock().len()).sum(),
            committed: self.committed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            harvested: self.harvested.load(Ordering::Relaxed),
        }
    }

    /// Folds the counters into `snap` under the `proxy.trans_dep.*`
    /// metric names.
    pub fn fold_metrics(&self, snap: &mut MetricsSnapshot) {
        let s = self.stats();
        snap.set_counter("proxy.trans_dep.committed", s.committed);
        snap.set_counter("proxy.trans_dep.aborted", s.aborted);
        snap.set_counter("proxy.trans_dep.harvested", s.harvested);
        snap.set_gauge("proxy.trans_dep.inflight", s.inflight as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_commit_retires_exactly_once() {
        let store = DepStore::new();
        let off = Telemetry::disabled();
        store.begin(7, &off);
        assert_eq!(store.stats().inflight, 1);
        assert!(store.commit(7, 3, &off), "first commit retires the entry");
        assert!(!store.commit(7, 3, &off), "second commit finds nothing");
        let s = store.stats();
        assert_eq!((s.inflight, s.committed, s.aborted), (0, 1, 0));
        assert_eq!(s.harvested, 3, "only the first commit counts its deps");
    }

    #[test]
    fn abort_leaves_no_record() {
        let store = DepStore::new();
        let off = Telemetry::disabled();
        store.begin(1, &off);
        store.abort(1, &off);
        let s = store.stats();
        assert_eq!((s.inflight, s.committed, s.aborted), (0, 0, 1));
        // Aborting an unknown transaction is harmless.
        store.abort(99, &off);
        assert_eq!(store.stats().aborted, 1);
    }

    #[test]
    fn inflight_watermark_sees_only_older_transactions() {
        let store = DepStore::new();
        let off = Telemetry::disabled();
        store.begin(3, &off);
        store.begin(8, &off);
        assert!(store.any_inflight_below(4), "txn 3 is below the watermark");
        assert!(!store.any_inflight_below(3), "3 itself is not below 3");
        store.commit(3, 0, &off);
        assert!(
            !store.any_inflight_below(4),
            "only txn 8 remains, above the watermark"
        );
        store.abort(8, &off);
        assert!(!store.any_inflight_below(i64::MAX));
    }

    #[test]
    fn shard_wait_histogram_records_under_telemetry() {
        let store = DepStore::new();
        let tel = Telemetry::recording();
        store.begin(5, &tel);
        store.commit(5, 0, &tel);
        let snap = tel.snapshot();
        let hist = snap
            .histogram(span_names::PROXY_TRANS_DEP_SHARD_WAIT)
            .expect("shard-wait histogram present");
        assert!(hist.count >= 2, "begin and commit both record a wait");
    }
}
