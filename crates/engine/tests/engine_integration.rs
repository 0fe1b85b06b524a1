//! End-to-end engine tests: SQL in, correct state and log out.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_engine::{introspect, Database, EngineError, ExecOutcome, Flavor, LogOp, Value};

fn db() -> Database {
    Database::in_memory(Flavor::Postgres)
}

fn setup_accounts(db: &Database) {
    let mut s = db.session();
    s.execute_sql(
        "CREATE TABLE account (id INTEGER PRIMARY KEY, owner VARCHAR(16), balance FLOAT)",
    )
    .unwrap();
    s.execute_sql(
        "INSERT INTO account (id, owner, balance) VALUES \
         (1, 'alice', 100.0), (2, 'bob', 50.0), (3, 'carol', 75.0)",
    )
    .unwrap();
}

#[test]
fn basic_crud_cycle() {
    let db = db();
    setup_accounts(&db);
    let mut s = db.session();

    let r = s
        .query("SELECT owner FROM account WHERE balance > 60 ORDER BY owner")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::from("alice")], vec![Value::from("carol")]]
    );

    assert_eq!(
        s.execute_sql("UPDATE account SET balance = balance - 10 WHERE id = 1")
            .unwrap(),
        ExecOutcome::Affected(1)
    );
    let r = s.query("SELECT balance FROM account WHERE id = 1").unwrap();
    assert_eq!(r.rows[0][0], Value::Float(90.0));

    assert_eq!(
        s.execute_sql("DELETE FROM account WHERE owner = 'bob'")
            .unwrap(),
        ExecOutcome::Affected(1)
    );
    assert_eq!(db.row_count("account").unwrap(), 2);
}

#[test]
fn explicit_transaction_commit_and_rollback() {
    let db = db();
    setup_accounts(&db);
    let mut s = db.session();

    s.execute_sql("BEGIN").unwrap();
    s.execute_sql("UPDATE account SET balance = 0.0 WHERE id = 1")
        .unwrap();
    s.execute_sql("ROLLBACK").unwrap();
    let r = s.query("SELECT balance FROM account WHERE id = 1").unwrap();
    assert_eq!(r.rows[0][0], Value::Float(100.0), "rollback must restore");

    s.execute_sql("BEGIN").unwrap();
    s.execute_sql("UPDATE account SET balance = 0.0 WHERE id = 1")
        .unwrap();
    s.execute_sql("COMMIT").unwrap();
    let r = s.query("SELECT balance FROM account WHERE id = 1").unwrap();
    assert_eq!(r.rows[0][0], Value::Float(0.0));
}

#[test]
fn rollback_restores_deletes_and_inserts() {
    let db = db();
    setup_accounts(&db);
    let mut s = db.session();
    s.execute_sql("BEGIN").unwrap();
    s.execute_sql("DELETE FROM account WHERE id = 2").unwrap();
    s.execute_sql("INSERT INTO account (id, owner, balance) VALUES (9, 'mallory', 1.0)")
        .unwrap();
    s.execute_sql("ROLLBACK").unwrap();
    assert_eq!(db.row_count("account").unwrap(), 3);
    let mut s = db.session();
    let r = s.query("SELECT owner FROM account WHERE id = 2").unwrap();
    assert_eq!(r.rows[0][0], Value::from("bob"));
    assert!(s
        .query("SELECT id FROM account WHERE id = 9")
        .unwrap()
        .rows
        .is_empty());
}

#[test]
fn txn_control_outside_transaction_errors() {
    let db = db();
    let mut s = db.session();
    assert!(matches!(
        s.execute_sql("COMMIT"),
        Err(EngineError::InvalidTransactionState(_))
    ));
    assert!(matches!(
        s.execute_sql("ROLLBACK"),
        Err(EngineError::InvalidTransactionState(_))
    ));
    s.execute_sql("BEGIN").unwrap();
    assert!(matches!(
        s.execute_sql("BEGIN"),
        Err(EngineError::InvalidTransactionState(_))
    ));
}

#[test]
fn joins_with_aliases() {
    let db = db();
    let mut s = db.session();
    s.execute_sql("CREATE TABLE w (w_id INTEGER PRIMARY KEY, w_name VARCHAR(8))")
        .unwrap();
    s.execute_sql("CREATE TABLE d (d_id INTEGER, d_w_id INTEGER, d_name VARCHAR(8), PRIMARY KEY (d_w_id, d_id))").unwrap();
    s.execute_sql("INSERT INTO w (w_id, w_name) VALUES (1, 'one'), (2, 'two')")
        .unwrap();
    s.execute_sql(
        "INSERT INTO d (d_id, d_w_id, d_name) VALUES (1, 1, 'd11'), (2, 1, 'd12'), (1, 2, 'd21')",
    )
    .unwrap();
    let r = s
        .query(
            "SELECT w.w_name, x.d_name FROM w, d x \
             WHERE w.w_id = x.d_w_id AND w.w_id = 1 ORDER BY x.d_id",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0], vec![Value::from("one"), Value::from("d11")]);
    assert_eq!(r.columns, vec!["w_name", "d_name"]);
}

#[test]
fn aggregates_and_group_by() {
    let db = db();
    setup_accounts(&db);
    let mut s = db.session();
    let r = s
        .query("SELECT COUNT(*), SUM(balance), MIN(owner) FROM account")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3));
    assert_eq!(r.rows[0][1], Value::Float(225.0));
    assert_eq!(r.rows[0][2], Value::from("alice"));

    s.execute_sql("CREATE TABLE sale (region VARCHAR(4), amt INTEGER)")
        .unwrap();
    s.execute_sql(
        "INSERT INTO sale (region, amt) VALUES ('e', 1), ('e', 2), ('w', 10), ('w', 20), ('w', 30)",
    )
    .unwrap();
    let r = s
        .query("SELECT region, SUM(amt), COUNT(*) FROM sale GROUP BY region ORDER BY region")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::from("e"), Value::Int(3), Value::Int(2)],
            vec![Value::from("w"), Value::Int(60), Value::Int(3)],
        ]
    );
}

#[test]
fn aggregate_over_empty_table() {
    let db = db();
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t (a INTEGER)").unwrap();
    let r = s.query("SELECT COUNT(*), SUM(a) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
    assert!(r.rows[0][1].is_null());
    // Grouped aggregate over empty input yields no rows.
    let r = s.query("SELECT a, COUNT(*) FROM t GROUP BY a").unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn wildcard_and_qualified_wildcard() {
    let db = db();
    setup_accounts(&db);
    let mut s = db.session();
    let r = s.query("SELECT * FROM account WHERE id = 1").unwrap();
    assert_eq!(r.columns, vec!["id", "owner", "balance"]);
    let r = s
        .query("SELECT account.* FROM account WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows[0].len(), 3);
}

#[test]
fn limit_and_order_desc() {
    let db = db();
    setup_accounts(&db);
    let mut s = db.session();
    let r = s
        .query("SELECT owner FROM account ORDER BY balance DESC LIMIT 2")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::from("alice")], vec![Value::from("carol")]]
    );
}

#[test]
fn ctid_pseudocolumn_lookup_on_postgres_flavor() {
    let db = db();
    setup_accounts(&db);
    let mut s = db.session();
    let r = s
        .query("SELECT ctid, owner FROM account WHERE id = 2")
        .unwrap();
    let Value::Int(ctid) = r.rows[0][0] else {
        panic!()
    };
    let r2 = s
        .query(&format!("SELECT owner FROM account WHERE ctid = {ctid}"))
        .unwrap();
    assert_eq!(r2.rows[0][0], Value::from("bob"));
    // Compensation-style update by ctid:
    s.execute_sql(&format!(
        "UPDATE account SET balance = 42.0 WHERE ctid = {ctid}"
    ))
    .unwrap();
    let r3 = s.query("SELECT balance FROM account WHERE id = 2").unwrap();
    assert_eq!(r3.rows[0][0], Value::Float(42.0));
}

#[test]
fn sybase_flavor_has_no_rowid_pseudocolumn() {
    let db = Database::in_memory(Flavor::Sybase);
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t (a INTEGER)").unwrap();
    s.execute_sql("INSERT INTO t (a) VALUES (1)").unwrap();
    assert!(matches!(
        s.query("SELECT ctid FROM t"),
        Err(EngineError::UnknownColumn(_))
    ));
    assert!(matches!(
        s.query("SELECT rowid FROM t"),
        Err(EngineError::UnknownColumn(_))
    ));
}

#[test]
fn wal_records_row_operations_with_locations() {
    let db = db();
    setup_accounts(&db);
    let mut s = db.session();
    s.execute_sql("BEGIN").unwrap();
    s.execute_sql("UPDATE account SET balance = 1.0 WHERE id = 1")
        .unwrap();
    s.execute_sql("DELETE FROM account WHERE id = 3").unwrap();
    s.execute_sql("COMMIT").unwrap();
    let wal = db.wal_records();
    let update = wal
        .iter()
        .find_map(|r| match &r.op {
            LogOp::Update {
                table,
                changed,
                before,
                after,
                ..
            } if table == "account" => Some((changed.clone(), before.clone(), after.clone())),
            _ => None,
        })
        .expect("update logged");
    assert_eq!(update.0, vec![2], "only balance changed");
    assert_eq!(update.1 .0[2], Value::Float(100.0));
    assert_eq!(update.2 .0[2], Value::Float(1.0));
    assert!(wal
        .iter()
        .any(|r| matches!(&r.op, LogOp::Delete { table, .. } if table == "account")));
    // The explicit txn ends with exactly one commit record.
    let commits = wal.iter().filter(|r| matches!(r.op, LogOp::Commit)).count();
    assert!(commits >= 2); // setup txns + explicit txn
}

#[test]
fn crash_recovery_replays_committed_and_skips_aborted() {
    let db = db();
    setup_accounts(&db);
    let mut s = db.session();
    // Committed change.
    s.execute_sql("UPDATE account SET balance = 7.0 WHERE id = 1")
        .unwrap();
    // Aborted change.
    s.execute_sql("BEGIN").unwrap();
    s.execute_sql("UPDATE account SET balance = 999.0 WHERE id = 2")
        .unwrap();
    s.execute_sql("INSERT INTO account (id, owner, balance) VALUES (4, 'eve', 0.0)")
        .unwrap();
    s.execute_sql("ROLLBACK").unwrap();
    drop(s);

    db.simulate_crash_and_recover().unwrap();

    let mut s = db.session();
    assert_eq!(
        s.query("SELECT balance FROM account WHERE id = 1")
            .unwrap()
            .rows[0][0],
        Value::Float(7.0)
    );
    assert_eq!(
        s.query("SELECT balance FROM account WHERE id = 2")
            .unwrap()
            .rows[0][0],
        Value::Float(50.0)
    );
    assert!(s
        .query("SELECT id FROM account WHERE id = 4")
        .unwrap()
        .rows
        .is_empty());
    assert_eq!(db.row_count("account").unwrap(), 3);
}

#[test]
fn recovery_preserves_row_ids() {
    let db = db();
    setup_accounts(&db);
    let before = db.snapshot_rows("account").unwrap();
    db.simulate_crash_and_recover().unwrap();
    let after = db.snapshot_rows("account").unwrap();
    assert_eq!(before, after);
}

#[test]
fn logminer_only_on_oracle_flavor() {
    let pg = Database::in_memory(Flavor::Postgres);
    assert!(matches!(
        introspect::logminer(&pg),
        Err(EngineError::Unsupported(_))
    ));
    let ora = Database::in_memory(Flavor::Oracle);
    assert!(introspect::logminer(&ora).unwrap().is_empty());
    assert!(matches!(
        introspect::waldump(&ora, |_| Ok(())),
        Err(EngineError::Unsupported(_))
    ));
    assert!(matches!(
        introspect::dbcc_log(&ora),
        Err(EngineError::Unsupported(_))
    ));
}

#[test]
fn logminer_redo_undo_sql_round_trip() {
    let db = Database::in_memory(Flavor::Oracle);
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(8))")
        .unwrap();
    s.execute_sql("INSERT INTO t (id, v) VALUES (1, 'x')")
        .unwrap();
    s.execute_sql("UPDATE t SET v = 'y' WHERE id = 1").unwrap();
    let rows = introspect::logminer(&db).unwrap();
    let upd = rows.iter().find(|r| r.operation == "UPDATE").unwrap();
    // Executing sql_undo restores the pre-update state.
    s.execute_sql(upd.sql_undo.as_ref().unwrap()).unwrap();
    assert_eq!(
        s.query("SELECT v FROM t WHERE id = 1").unwrap().rows[0][0],
        Value::from("x")
    );
    // And sql_redo re-applies it.
    s.execute_sql(upd.sql_redo.as_ref().unwrap()).unwrap();
    assert_eq!(
        s.query("SELECT v FROM t WHERE id = 1").unwrap().rows[0][0],
        Value::from("y")
    );
}

#[test]
fn dbcc_log_modify_carries_only_changed_attributes() {
    let db = Database::in_memory(Flavor::Sybase);
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t (a INTEGER, b VARCHAR(8), rid INTEGER IDENTITY)")
        .unwrap();
    s.execute_sql("INSERT INTO t (a, b) VALUES (1, 'x')")
        .unwrap();
    s.execute_sql("UPDATE t SET a = 2 WHERE a = 1").unwrap();
    let log = introspect::dbcc_log(&db).unwrap();
    let modify = log
        .iter()
        .find(|r| r.op == introspect::DbccOp::Modify)
        .unwrap();
    // Delta encoding: u16 col index + before + after for ONE column.
    let expected = 2 + 2 * (1 + 8);
    assert_eq!(modify.bytes.len(), expected);
    assert_eq!(u16::from_le_bytes([modify.bytes[0], modify.bytes[1]]), 0);
    // The full row (with identity) is recoverable via dbcc page.
    let raw = introspect::dbcc_page(&db, "t", modify.page, modify.offset, modify.len).unwrap();
    let schema = db.table("t").unwrap().read().schema().clone();
    let row = resildb_engine::decode_row(&schema, &raw).unwrap();
    assert_eq!(row.0[0], Value::Int(2));
    assert_eq!(
        row.0[2],
        Value::Int(1),
        "identity column recovered from page"
    );
}

#[test]
fn deadlock_victim_is_rolled_back() {
    use std::sync::Barrier;
    let db = db();
    setup_accounts(&db);
    let barrier = std::sync::Arc::new(Barrier::new(2));
    let db2 = db.clone();
    let b2 = std::sync::Arc::clone(&barrier);
    let handle = std::thread::spawn(move || {
        let mut s = db2.session();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("UPDATE account SET balance = 201.0 WHERE id = 2")
            .unwrap();
        b2.wait();
        // Now try to touch row 1 (other session holds it).
        let r = s.execute_sql("UPDATE account SET balance = 101.0 WHERE id = 1");
        if r.is_ok() {
            s.execute_sql("COMMIT").unwrap();
        }
        r.is_ok()
    });
    let mut s = db.session();
    s.execute_sql("BEGIN").unwrap();
    s.execute_sql("UPDATE account SET balance = 102.0 WHERE id = 1")
        .unwrap();
    barrier.wait();
    std::thread::sleep(std::time::Duration::from_millis(100));
    let mine = s.execute_sql("UPDATE account SET balance = 202.0 WHERE id = 2");
    let mine_ok = mine.is_ok();
    if mine_ok {
        s.execute_sql("COMMIT").unwrap();
    } else {
        assert_eq!(mine.unwrap_err(), EngineError::Deadlock);
        assert!(!s.in_transaction(), "victim auto-rolled-back");
    }
    let theirs_ok = handle.join().unwrap();
    assert!(
        mine_ok || theirs_ok,
        "at least one transaction must survive the deadlock"
    );
}

#[test]
fn select_for_update_blocks_conflicting_writer() {
    let db = db();
    setup_accounts(&db);
    let mut s1 = db.session();
    s1.execute_sql("BEGIN").unwrap();
    s1.query("SELECT * FROM account WHERE id = 1 FOR UPDATE")
        .unwrap();
    let db2 = db.clone();
    let handle = std::thread::spawn(move || {
        let mut s2 = db2.session();
        let start = std::time::Instant::now();
        s2.execute_sql("UPDATE account SET balance = 0.0 WHERE id = 1")
            .unwrap();
        start.elapsed()
    });
    std::thread::sleep(std::time::Duration::from_millis(120));
    s1.execute_sql("COMMIT").unwrap();
    let waited = handle.join().unwrap();
    assert!(
        waited >= std::time::Duration::from_millis(80),
        "writer should have blocked, waited only {waited:?}"
    );
}

#[test]
fn duplicate_key_error_in_autocommit_leaves_clean_state() {
    let db = db();
    setup_accounts(&db);
    let mut s = db.session();
    let err = s
        .execute_sql("INSERT INTO account (id, owner, balance) VALUES (1, 'dup', 0.0)")
        .unwrap_err();
    assert!(matches!(err, EngineError::DuplicateKey(_)));
    assert_eq!(db.row_count("account").unwrap(), 3);
    // Session still usable.
    assert_eq!(
        s.query("SELECT COUNT(*) FROM account").unwrap().rows[0][0],
        Value::Int(3)
    );
}

#[test]
fn multi_statement_error_in_explicit_txn_keeps_txn_open() {
    let db = db();
    setup_accounts(&db);
    let mut s = db.session();
    s.execute_sql("BEGIN").unwrap();
    s.execute_sql("UPDATE account SET balance = 5.0 WHERE id = 1")
        .unwrap();
    assert!(s.execute_sql("SELECT nope FROM account").is_err());
    assert!(s.in_transaction(), "non-deadlock errors keep the txn open");
    s.execute_sql("ROLLBACK").unwrap();
    let r = s.query("SELECT balance FROM account WHERE id = 1").unwrap();
    assert_eq!(r.rows[0][0], Value::Float(100.0));
}

#[test]
fn like_and_between_in_where() {
    let db = db();
    setup_accounts(&db);
    let mut s = db.session();
    let r = s
        .query("SELECT owner FROM account WHERE owner LIKE '%ol'")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::from("carol")]]);
    let r = s
        .query("SELECT id FROM account WHERE balance BETWEEN 50.0 AND 75.0 ORDER BY id")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn in_list_and_not_in() {
    let db = db();
    setup_accounts(&db);
    let mut s = db.session();
    let r = s
        .query("SELECT id FROM account WHERE id IN (1, 3) ORDER BY id")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
    let r = s
        .query("SELECT id FROM account WHERE id NOT IN (1, 3)")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn drop_table_removes_and_errors_afterwards() {
    let db = db();
    setup_accounts(&db);
    let mut s = db.session();
    s.execute_sql("DROP TABLE account").unwrap();
    assert!(matches!(
        s.query("SELECT * FROM account"),
        Err(EngineError::UnknownTable(_))
    ));
}

#[test]
fn sessions_share_one_database() {
    let db = db();
    setup_accounts(&db);
    let mut s1 = db.session();
    let mut s2 = db.session();
    s1.execute_sql("INSERT INTO account (id, owner, balance) VALUES (10, 'dan', 5.0)")
        .unwrap();
    let r = s2.query("SELECT owner FROM account WHERE id = 10").unwrap();
    assert_eq!(r.rows[0][0], Value::from("dan"));
}

#[test]
fn dropping_session_with_open_txn_rolls_back() {
    let db = db();
    setup_accounts(&db);
    {
        let mut s = db.session();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("DELETE FROM account WHERE id = 1").unwrap();
        // dropped without COMMIT
    }
    assert_eq!(db.row_count("account").unwrap(), 3);
}
