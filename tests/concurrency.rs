//! Concurrency correctness under real OS threads.
//!
//! The thread-scaling work (striped row latches, group-committed WAL,
//! sharded statement/rewrite caches, sharded dependency store) is only
//! admissible if concurrency changes *nothing observable*: the tracked
//! database must end in byte-for-byte the state a serial execution
//! produces, and the paper's core bookkeeping invariant — every committed
//! transaction leaves exactly one `trans_dep` record — must hold no
//! matter how many sessions commit at once.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use resildb_core::{
    Connection, Database, Driver, Flavor, LinkProfile, NativeDriver, ResilientDb, Response,
    SimContext, Value,
};
use resildb_engine::{wal_codec, LogOp};

const THREADS: usize = 4;
const TXNS_PER_THREAD: usize = 12;

/// Deterministic workload for one worker: explicit transactions over a
/// disjoint id range (worker `t` owns ids `t*1000..`). Disjointness makes
/// the interleaving immaterial — any serial order must produce the same
/// final state — while the shared table still forces every worker through
/// the same lock stripes, WAL, and tracking tables.
fn workload(thread: usize) -> Vec<Vec<String>> {
    let base = (thread * 1000) as i64;
    (0..TXNS_PER_THREAD)
        .map(|i| {
            let id = base + i as i64;
            vec![
                format!(
                    "INSERT INTO accounts (id, owner, balance) VALUES ({id}, 'w{thread}', {})",
                    100 + (id % 37)
                ),
                // A read inside the transaction exercises dependency
                // harvesting concurrently with other sessions' writes.
                format!("SELECT balance FROM accounts WHERE id = {id}"),
                format!(
                    "UPDATE accounts SET balance = balance + {} WHERE id = {id}",
                    (id % 7) + 1
                ),
            ]
        })
        .collect()
}

fn run_txn(conn: &mut dyn Connection, stmts: &[String], commit: bool) {
    conn.execute("BEGIN").unwrap();
    for s in stmts {
        conn.execute(s).unwrap_or_else(|e| panic!("{s}: {e}"));
    }
    conn.execute(if commit { "COMMIT" } else { "ROLLBACK" })
        .unwrap();
}

fn rows_debug(conn: &mut dyn Connection, sql: &str) -> String {
    format!("{:?}", conn.execute(sql).unwrap())
}

const CREATE: &str =
    "CREATE TABLE accounts (id INTEGER PRIMARY KEY, owner VARCHAR(8), balance INTEGER)";
const FINAL_STATE: &str = "SELECT id, owner, balance FROM accounts ORDER BY id";

/// Four workers hammer one tracked database from four OS threads; the
/// client-visible final state must be byte-identical to the same
/// workloads run serially on an untracked reference database.
#[test]
fn threaded_final_state_matches_serial_byte_for_byte() {
    // Tracked database, shared by all workers.
    let rdb = Arc::new(ResilientDb::new(Flavor::Postgres).unwrap());
    rdb.connect().unwrap().execute(CREATE).unwrap();

    let barrier = Arc::new(Barrier::new(THREADS));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let rdb = Arc::clone(&rdb);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut conn = rdb.connect().unwrap();
                barrier.wait();
                for txn in workload(t) {
                    run_txn(&mut *conn, &txn, true);
                }
            });
        }
    });

    // Serial reference: same workloads, one untracked connection, worker
    // order — the disjoint ranges make any order equivalent.
    let raw_db = Database::in_memory(Flavor::Postgres);
    let mut raw = NativeDriver::new(raw_db, LinkProfile::local())
        .connect()
        .unwrap();
    raw.execute(CREATE).unwrap();
    for t in 0..THREADS {
        for txn in workload(t) {
            run_txn(&mut *raw, &txn, true);
        }
    }

    let expected = rows_debug(&mut *raw, FINAL_STATE);
    let got = rows_debug(&mut *rdb.connect().unwrap(), FINAL_STATE);
    assert_eq!(
        expected, got,
        "threaded tracked execution diverged from serial untracked execution"
    );
    // And through `SELECT *`, which additionally proves the hidden trid
    // column stays stripped under concurrency.
    let expected_star = rows_debug(&mut *raw, "SELECT * FROM accounts ORDER BY id");
    let got_star = rows_debug(
        &mut *rdb.connect().unwrap(),
        "SELECT * FROM accounts ORDER BY id",
    );
    assert_eq!(expected_star, got_star, "SELECT * diverged under threads");
}

/// Extracts the `tr_id` column of every `trans_dep` row via an untracked
/// connection (the proxy hides its own tables from tracked clients).
fn trans_dep_trids(rdb: &ResilientDb) -> Vec<i64> {
    let mut conn = rdb.connect_untracked().unwrap();
    match conn.execute("SELECT tr_id FROM trans_dep").unwrap() {
        Response::Rows(r) => r
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Int(i) => *i,
                other => panic!("non-integer tr_id: {other:?}"),
            })
            .collect(),
        other => panic!("expected rows, got {other:?}"),
    }
}

/// The bookkeeping invariant under concurrent commit: every committed
/// write transaction records exactly one `trans_dep` row with a distinct
/// trid, rolled-back transactions record none, and the shared dependency
/// store's counters agree with the table — even with eight sessions
/// committing through the group-commit path at once.
#[test]
fn every_committed_txn_has_exactly_one_dep_record() {
    const STRESS_THREADS: usize = 8;
    const COMMITS: usize = 10;
    const ROLLBACKS: usize = 3;

    let rdb = Arc::new(ResilientDb::new(Flavor::Postgres).unwrap());
    rdb.connect().unwrap().execute(CREATE).unwrap();

    let rows_before = trans_dep_trids(&rdb).len();
    let snap_before = rdb.metrics();
    let committed_before = snap_before.counter("proxy.trans_dep.committed");
    let aborted_before = snap_before.counter("proxy.trans_dep.aborted");

    let barrier = Arc::new(Barrier::new(STRESS_THREADS));
    std::thread::scope(|scope| {
        for t in 0..STRESS_THREADS {
            let rdb = Arc::clone(&rdb);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut conn = rdb.connect().unwrap();
                let base = (t * 10_000) as i64;
                barrier.wait();
                for i in 0..(COMMITS + ROLLBACKS) {
                    let id = base + i as i64;
                    let stmts = vec![
                        format!(
                            "INSERT INTO accounts (id, owner, balance) VALUES ({id}, 's{t}', {i})"
                        ),
                        format!("UPDATE accounts SET balance = balance + 1 WHERE id = {id}"),
                    ];
                    // Interleave rollbacks among the commits so aborted
                    // transactions run concurrently with committing ones.
                    run_txn(&mut *conn, &stmts, i % 4 != 3);
                }
            });
        }
    });

    // Each worker ran 13 transactions; i % 4 == 3 rolls back at
    // i ∈ {3, 7, 11} — 10 commits and 3 rollbacks per worker.
    let trids = trans_dep_trids(&rdb);
    let new_rows = trids.len() - rows_before;
    assert_eq!(
        new_rows,
        STRESS_THREADS * COMMITS,
        "every committed transaction must leave exactly one trans_dep row"
    );
    let distinct: HashSet<i64> = trids.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        trids.len(),
        "trids must be unique across concurrent sessions"
    );

    let snap = rdb.metrics();
    assert_eq!(
        snap.counter("proxy.trans_dep.committed") - committed_before,
        (STRESS_THREADS * COMMITS) as u64,
        "dependency-store commit counter must match the committed volume"
    );
    assert_eq!(
        snap.counter("proxy.trans_dep.aborted") - aborted_before,
        (STRESS_THREADS * ROLLBACKS) as u64,
        "dependency-store abort counter must match the rolled-back volume"
    );
    assert_eq!(
        snap.gauge("proxy.trans_dep.inflight"),
        Some(0.0),
        "no transaction may remain in flight after all sessions finish"
    );
}

/// Checks one saved log: every transaction that wrote `snap` appears whole
/// — all `rows` of its inserts and its commit record — and reopening the
/// log recovers exactly `rows` rows per such transaction. Returns how many
/// there were.
fn check_snapshot(log: &[u8], rows: usize) -> usize {
    let records = wal_codec::read_wal(log).unwrap();
    let mut inserts = HashMap::new();
    let mut committed = HashSet::new();
    for rec in &records {
        match &rec.op {
            LogOp::Insert { table, .. } if table == "snap" => {
                *inserts.entry(rec.txn).or_insert(0) += 1;
            }
            LogOp::Commit => {
                committed.insert(rec.txn);
            }
            _ => {}
        }
    }
    for (txn, n) in &inserts {
        assert_eq!(*n, rows, "{txn} saved with {n} of its {rows} rows");
        assert!(committed.contains(txn), "{txn} saved without its commit");
    }
    let reopened =
        Database::open_from_wal("snapshot", Flavor::Postgres, SimContext::free(), log).unwrap();
    assert_eq!(
        reopened.row_count("snap").unwrap(),
        (inserts.len() * rows) as u64,
        "recovered rows != committed transactions x rows per transaction"
    );
    inserts.len()
}

/// `save_wal` borrows the log under the WAL lock while sessions keep
/// committing: each saved log is a transaction-consistent snapshot, and
/// `open_from_wal` recovers exactly what it holds.
#[test]
fn saved_logs_are_transaction_consistent_under_concurrent_commits() {
    const WRITERS: usize = 2;
    const TXNS: usize = 60;
    const ROWS: usize = 3;

    let db = Database::in_memory(Flavor::Postgres);
    db.session()
        .execute_sql("CREATE TABLE snap (id INTEGER PRIMARY KEY, w INTEGER)")
        .unwrap();
    let (finished, saved) = (AtomicUsize::new(0), AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (db, finished, saved) = (&db, &finished, &saved);
            scope.spawn(move || {
                let mut s = db.session();
                for t in 0..TXNS {
                    // Pace the writers by the saver, so logs are saved
                    // while transactions are still being committed.
                    while saved.load(Ordering::SeqCst) < t / 10 {
                        std::thread::yield_now();
                    }
                    s.execute_sql("BEGIN").unwrap();
                    for r in 0..ROWS {
                        let id = (w * TXNS + t) * ROWS + r;
                        s.execute_sql(&format!("INSERT INTO snap (id, w) VALUES ({id}, {w})"))
                            .unwrap();
                    }
                    s.execute_sql("COMMIT").unwrap();
                }
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }
        loop {
            let done = finished.load(Ordering::SeqCst) == WRITERS;
            let mut log = Vec::new();
            db.save_wal(&mut log).unwrap();
            let txns = check_snapshot(&log, ROWS);
            saved.fetch_add(1, Ordering::SeqCst);
            if done {
                assert_eq!(txns, WRITERS * TXNS, "the final log lost transactions");
                break;
            }
        }
    });
}
