//! Sequenced group-commit WAL writer.
//!
//! Transactions stage their redo records locally while executing (paying
//! byte costs and failpoints per record via [`crate::wal::stage_check`]);
//! at commit they take a short *publication ticket* — the WAL mutex — to
//! append every staged record plus the commit record contiguously, then
//! join a *group force*: the first committer becomes the leader and pays
//! one [`SimContext::charge_log_force`] covering the log tail, while
//! concurrent committers whose commit LSN the in-flight force already
//! covers ride along for free. Under a single thread the protocol
//! degenerates to exactly one force per commit, so virtual-clock runs
//! remain deterministic and byte-identical to the pre-group-commit engine.
//!
//! Lock-contention observability: time spent waiting for the publication
//! ticket is recorded in the `engine.wal.group_commit_wait` histogram, and
//! time a follower spends waiting for the leader's force in
//! `engine.wal.group_force_wait` (DESIGN.md §9).

use std::time::Instant;

use parking_lot::{Condvar, Mutex, MutexGuard};
use resildb_sim::telemetry::names as span_names;
use resildb_sim::SimContext;

use crate::wal::{InternalTxnId, LogOp, Wal};

/// Force-pipeline state shared by all committers.
#[derive(Debug, Default)]
struct ForceState {
    /// Exclusive LSN bound covered by completed forces: every record with
    /// `lsn < forced_upto` is durable.
    forced_upto: u64,
    /// Whether a leader currently has a force in flight.
    forcing: bool,
}

/// The group-commit WAL writer shared by all sessions of a database.
#[derive(Debug, Default)]
pub(crate) struct GroupCommitWal {
    wal: Mutex<Wal>,
    force: Mutex<ForceState>,
    force_done: Condvar,
}

impl GroupCommitWal {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires the publication ticket (the WAL mutex), recording the wait
    /// in the `engine.wal.group_commit_wait` histogram when telemetry is
    /// recording.
    pub fn lock(&self, sim: &SimContext) -> MutexGuard<'_, Wal> {
        let telemetry = sim.telemetry();
        if !telemetry.is_enabled() {
            return self.wal.lock();
        }
        let start = Instant::now();
        let guard = self.wal.lock();
        telemetry.record_span_ns(
            span_names::ENGINE_GROUP_COMMIT_WAIT,
            start.elapsed().as_nanos() as u64,
        );
        guard
    }

    /// Raw access to the underlying log without wait accounting (restore,
    /// snapshot reads).
    pub fn lock_untimed(&self) -> MutexGuard<'_, Wal> {
        self.wal.lock()
    }

    /// Publishes a transaction's staged redo records followed by its
    /// commit record in one ticket hold, returning the commit record's LSN
    /// (the bound the subsequent [`Self::force_covering`] must reach).
    pub fn publish_commit(&self, txn: InternalTxnId, redo: Vec<LogOp>, sim: &SimContext) -> u64 {
        let mut wal = self.lock(sim);
        for op in redo {
            wal.publish(txn, op);
        }
        wal.publish(txn, LogOp::Commit).0
    }

    /// Forces the log far enough to cover `commit_lsn`, amortizing the
    /// force across concurrent committers: the first waiter leads and pays
    /// [`SimContext::charge_log_force`] for the whole log tail; committers
    /// whose record that force covers skip the charge. Followers record
    /// their wait in the `engine.wal.group_force_wait` histogram.
    pub fn force_covering(&self, commit_lsn: u64, sim: &SimContext) {
        let bound = commit_lsn + 1;
        let mut st = self.force.lock();
        if st.forced_upto >= bound {
            return;
        }
        let telemetry = sim.telemetry();
        let wait_start = (st.forcing && telemetry.is_enabled()).then(Instant::now);
        loop {
            if st.forced_upto >= bound {
                if let Some(start) = wait_start {
                    telemetry.record_span_ns(
                        span_names::ENGINE_GROUP_FORCE_WAIT,
                        start.elapsed().as_nanos() as u64,
                    );
                }
                return;
            }
            if st.forcing {
                self.force_done.wait(&mut st);
                continue;
            }
            // Become the leader: force everything published so far, which
            // must include our own record (it was published before we got
            // here), then hand the result to every waiter.
            let target = self.wal.lock().end_lsn();
            st.forcing = true;
            drop(st);
            sim.charge_log_force();
            st = self.force.lock();
            st.forced_upto = st.forced_upto.max(target);
            st.forcing = false;
            self.force_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn publish_n(wal: &GroupCommitWal, txn: u64, n: usize, sim: &SimContext) -> u64 {
        let redo = vec![LogOp::Abort; n.saturating_sub(1)]; // payload shape is irrelevant here
        wal.publish_commit(InternalTxnId(txn), redo, sim)
    }

    #[test]
    fn single_committer_forces_exactly_once() {
        let wal = GroupCommitWal::new();
        let sim = SimContext::free();
        let lsn = publish_n(&wal, 1, 3, &sim);
        wal.force_covering(lsn, &sim);
        assert_eq!(sim.stats().log_forces.get(), 1);
        // A second force over the same bound is already covered.
        wal.force_covering(lsn, &sim);
        assert_eq!(sim.stats().log_forces.get(), 1);
    }

    #[test]
    fn commit_records_are_contiguous_per_txn() {
        let wal = GroupCommitWal::new();
        let sim = SimContext::free();
        publish_n(&wal, 1, 3, &sim);
        publish_n(&wal, 2, 2, &sim);
        let records = wal.lock_untimed().records().to_vec();
        let txns: Vec<u64> = records.iter().map(|r| r.txn.0).collect();
        assert_eq!(txns, vec![1, 1, 1, 2, 2]);
        let lsns: Vec<u64> = records.iter().map(|r| r.lsn.0).collect();
        assert_eq!(lsns, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_committers_amortize_forces() {
        let wal = Arc::new(GroupCommitWal::new());
        let sim = SimContext::free();
        let threads = 8;
        let per_thread = 16;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let wal = Arc::clone(&wal);
                let sim = sim.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let lsn = publish_n(&wal, (t * per_thread + i + 1) as u64, 2, &sim);
                        wal.force_covering(lsn, &sim);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let commits = (threads * per_thread) as u64;
        let forces = sim.stats().log_forces.get();
        assert!(forces >= 1, "someone must have forced");
        assert!(
            forces <= commits,
            "group commit must never force more than once per commit ({forces} > {commits})"
        );
        // Every commit record must be covered by the final force bound.
        let end = wal.lock_untimed().end_lsn();
        assert_eq!(end, commits * 2);
    }
}

/// Schedule-perturbing stress tests (`--features shuttle_stress`).
///
/// A shuttle-style model checker is not available offline, so this shim
/// approximates schedule exploration the portable way: every iteration
/// runs the full commit protocol under a different deterministic seed,
/// and each worker injects seeded bursts of [`std::thread::yield_now`]
/// between the publication ticket and the force — the window where the
/// leader-election and cover-check logic can go wrong. The invariants
/// checked are the protocol's contract: a returned force covers the
/// caller's commit LSN, per-transaction records stay contiguous, and the
/// force count never exceeds the commit count.
#[cfg(all(test, feature = "shuttle_stress"))]
mod shuttle_stress_tests {
    use super::*;
    use std::sync::Arc;

    /// Deterministic xorshift — seeds replace a model checker's schedule
    /// enumeration, so a failing iteration reproduces by seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn perturb(rng: &mut Rng) {
        for _ in 0..(rng.next() % 4) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn seeded_interleavings_preserve_group_commit_invariants() {
        const THREADS: u64 = 6;
        const COMMITS_PER_THREAD: u64 = 8;
        const RECORDS_PER_COMMIT: u64 = 3;
        for seed in 1..=32u64 {
            let wal = Arc::new(GroupCommitWal::new());
            let sim = SimContext::free();
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let wal = Arc::clone(&wal);
                    let sim = sim.clone();
                    scope.spawn(move || {
                        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9).wrapping_add(t + 1));
                        for i in 0..COMMITS_PER_THREAD {
                            let txn = t * COMMITS_PER_THREAD + i + 1;
                            let redo = vec![LogOp::Abort; (RECORDS_PER_COMMIT - 1) as usize];
                            perturb(&mut rng);
                            let lsn = wal.publish_commit(InternalTxnId(txn), redo, &sim);
                            // The widest race window: between publication
                            // and joining the force group.
                            perturb(&mut rng);
                            wal.force_covering(lsn, &sim);
                            // The contract force_covering returns on: our
                            // commit record is durable.
                            assert!(
                                wal.force.lock().forced_upto > lsn,
                                "seed {seed}: force returned without covering lsn {lsn}"
                            );
                            perturb(&mut rng);
                        }
                    });
                }
            });
            let commits = THREADS * COMMITS_PER_THREAD;
            let wal_guard = wal.lock_untimed();
            assert_eq!(wal_guard.end_lsn(), commits * RECORDS_PER_COMMIT);
            // Per-transaction records stayed contiguous despite the
            // perturbed schedules: each txn's LSNs form an unbroken run.
            let records = wal_guard.records();
            let mut run_txn = None;
            let mut seen = std::collections::HashSet::new();
            for r in records {
                if run_txn != Some(r.txn) {
                    assert!(
                        seen.insert(r.txn),
                        "seed {seed}: txn {:?} records split across the log",
                        r.txn
                    );
                    run_txn = Some(r.txn);
                }
            }
            drop(wal_guard);
            let forces = sim.stats().log_forces.get();
            assert!(forces >= 1, "seed {seed}: someone must have forced");
            assert!(
                forces <= commits,
                "seed {seed}: {forces} forces for {commits} commits"
            );
            assert!(
                wal.force.lock().forced_upto >= commits * RECORDS_PER_COMMIT,
                "seed {seed}: final force bound leaves commit records uncovered"
            );
        }
    }
}
