//! Durability: a tracked database saved to a WAL file and reopened in a
//! "new process" retains its data, its tracking state, and — crucially —
//! its repairability.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_core::{Database, Flavor, RepairError, ResilientDb, SimContext, Value};

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("resildb-{tag}-{}.wal", std::process::id()))
}

#[test]
fn save_and_reopen_preserves_data_and_counters() {
    let path = temp_path("basic");
    {
        let db = Database::in_memory(Flavor::Postgres);
        let mut s = db.session();
        s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(8))")
            .unwrap();
        s.execute_sql("INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        s.execute_sql("UPDATE t SET v = 'z' WHERE id = 2").unwrap();
        db.save_wal(std::fs::File::create(&path).unwrap()).unwrap();
    }
    let db = Database::open_from_wal(
        "reopened",
        Flavor::Postgres,
        SimContext::free(),
        &std::fs::read(&path).unwrap(),
    )
    .unwrap();
    let mut s = db.session();
    let r = s.query("SELECT id, v FROM t ORDER BY id").unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(1), Value::from("a")],
            vec![Value::Int(2), Value::from("z")],
        ]
    );
    // New activity continues with fresh ids and is itself recoverable.
    s.execute_sql("INSERT INTO t (id, v) VALUES (3, 'c')")
        .unwrap();
    db.simulate_crash_and_recover().unwrap();
    assert_eq!(db.row_count("t").unwrap(), 3);
    std::fs::remove_file(&path).ok();
}

#[test]
fn repair_still_works_after_reopen() {
    let path = temp_path("repair");
    {
        let rdb = ResilientDb::new(Flavor::Oracle).unwrap();
        let mut conn = rdb.connect().unwrap();
        conn.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT)")
            .unwrap();
        conn.execute("INSERT INTO acct (id, bal) VALUES (1, 100.0), (2, 50.0)")
            .unwrap();
        conn.execute("ANNOTATE attack").unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute("UPDATE acct SET bal = 1000000.0 WHERE id = 1")
            .unwrap();
        conn.execute("COMMIT").unwrap();
        conn.execute("UPDATE acct SET bal = bal + 1.0 WHERE id = 2")
            .unwrap();
        rdb.database()
            .save_wal(std::fs::File::create(&path).unwrap())
            .unwrap();
    }
    // "New process": reopen from the log and repair there.
    let db = Database::open_from_wal(
        "reopened",
        Flavor::Oracle,
        SimContext::free(),
        &std::fs::read(&path).unwrap(),
    )
    .unwrap();
    let tool = resildb_core::RepairController::new(db.clone());
    let analysis = tool.analyze().unwrap();
    let mut s = db.session();
    let attack = match s
        .query("SELECT tr_id FROM annot WHERE descr = 'attack'")
        .unwrap()
        .rows[0][0]
    {
        Value::Int(v) => v,
        ref other => panic!("{other:?}"),
    };
    let undo = analysis.undo_set(&[attack], &[]);
    tool.execute(
        &analysis,
        &resildb_core::RepairPlan::with_undo_set(&[attack], undo),
    )
    .unwrap();
    let r = s.query("SELECT bal FROM acct ORDER BY id").unwrap();
    assert_eq!(r.rows[0][0], Value::Float(100.0));
    assert_eq!(r.rows[1][0], Value::Float(51.0));
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_log_is_rejected_cleanly() {
    let db = Database::in_memory(Flavor::Postgres);
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t (id INTEGER)").unwrap();
    s.execute_sql("INSERT INTO t (id) VALUES (1)").unwrap();
    let mut buf = Vec::new();
    db.save_wal(&mut buf).unwrap();
    // Flip a byte deep inside the stream.
    let mid = buf.len() / 2;
    buf[mid] ^= 0xFF;
    let result = Database::open_from_wal("x", Flavor::Postgres, SimContext::free(), &buf[..]);
    assert!(result.is_err(), "corruption must not be silently accepted");
}

/// A connection through a fresh tracking proxy in front of `db`: its
/// proxy id sequence starts at 1 again.
fn fresh_proxy(db: &Database) -> Box<dyn resildb_core::Connection> {
    use resildb_core::{Driver, LinkProfile, ProxyConfig, TrackingProxy};
    let config = ProxyConfig::new(db.flavor());
    TrackingProxy::single_proxy(db.clone(), LinkProfile::local(), config)
        .connect()
        .unwrap()
}

/// Proxy ids restart at 1 in a proxy started over a reopened database, so
/// resumed traffic re-mints ids the log already holds. Repair cannot tell
/// whose effects such an id names: analysis refuses instead of repairing
/// the wrong transaction.
#[test]
fn resumed_traffic_that_reuses_transaction_ids_is_refused() {
    let path = temp_path("resume");
    {
        let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
        let mut conn = rdb.connect().unwrap();
        conn.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT)")
            .unwrap();
        conn.execute("INSERT INTO acct (id, bal) VALUES (1, 100.0), (2, 50.0)")
            .unwrap();
        conn.execute("UPDATE acct SET bal = 1000000.0 WHERE id = 1")
            .unwrap();
        rdb.database()
            .save_wal(std::fs::File::create(&path).unwrap())
            .unwrap();
    }
    let db = Database::open_from_wal(
        "reopened",
        Flavor::Postgres,
        SimContext::free(),
        &std::fs::read(&path).unwrap(),
    )
    .unwrap();
    let mut conn = fresh_proxy(&db);
    conn.execute("UPDATE acct SET bal = bal + 1.0 WHERE id = 2")
        .unwrap();
    conn.execute("UPDATE acct SET bal = bal + 2.0 WHERE id = 2")
        .unwrap();
    match resildb_core::RepairController::new(db).analyze() {
        Err(RepairError::DuplicateTrid {
            tr_id: 1,
            internal: [first, second],
        }) => assert!(first < second),
        other => panic!("expected a duplicate-id refusal for tr_id 1, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// Two proxies in front of one database mint the same ids.
#[test]
fn two_proxies_over_one_database_are_refused() {
    let rdb = ResilientDb::new(Flavor::Sybase).unwrap();
    let mut conn = rdb.connect().unwrap();
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    let mut second = fresh_proxy(rdb.database());
    second
        .execute("INSERT INTO t (id, v) VALUES (2, 2)")
        .unwrap();
    conn.execute("INSERT INTO t (id, v) VALUES (1, 1)").unwrap();
    let err = rdb.analyze().unwrap_err();
    assert!(
        matches!(err, RepairError::DuplicateTrid { tr_id: 1, .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("proxy transaction id 1"), "{err}");
}
