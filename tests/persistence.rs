//! Durability: a tracked database saved to a WAL file and reopened in a
//! "new process" retains its data, its tracking state, and — crucially —
//! its repairability.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_core::{Database, Flavor, ResilientDb, SimContext, Value};

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
