//! The bypass attack the paper's Figure 2 discussion warns about: a client
//! that connects with the standard driver, skipping the proxy, is not
//! tracked — its transactions cannot be identified or selectively rolled
//! back. These tests document that limitation and show the dual-proxy
//! deployment's tracking still covers proxied clients. A client that does
//! go through the proxy cannot write the tracking state itself: a forged
//! `trid` stamp and an erased dependency record are both refused, so
//! repair still reaches the attack's dependents.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_core::{Connection, Flavor, ProxyPlacement, ResilientDb, Value, WireError};

#[test]
fn bypassing_attacker_is_invisible_to_dependency_tracking() {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    let mut good = rdb.connect().unwrap();
    good.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    good.execute("INSERT INTO t (id, v) VALUES (1, 1)").unwrap();

    // The attacker uses a standard driver, bypassing the proxy.
    let mut evil = rdb.connect_untracked().unwrap();
    evil.execute("UPDATE t SET v = 666 WHERE id = 1").unwrap();

    let analysis = rdb.analyze().unwrap();
    // Only the legitimate transaction is tracked.
    assert_eq!(analysis.tracked_transactions().len(), 1);

    // The attacker's write IS in the log (it cannot hide from the WAL)…
    let updates = analysis
        .records
        .iter()
        .filter(|r| matches!(r.op, resildb_repair::RepairOp::Update { .. }))
        .count();
    assert_eq!(updates, 1);
    // …but it has no proxy id, so the selective-undo machinery cannot
    // address it: no correlation entry exists.
    let update_rec = analysis
        .records
        .iter()
        .find(|r| matches!(r.op, resildb_repair::RepairOp::Update { .. }))
        .unwrap();
    assert_eq!(
        analysis.correlation.proxy_id(update_rec.internal_txn),
        None,
        "bypass transaction must be uncorrelated"
    );
}

#[test]
fn bypass_write_does_not_break_later_tracking_or_repair() {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    let mut good = rdb.connect().unwrap();
    good.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    good.execute("INSERT INTO t (id, v) VALUES (1, 1)").unwrap();

    let mut evil = rdb.connect_untracked().unwrap();
    // The bypass write leaves the trid column untouched (it does not even
    // know about it), so the row still appears to be last written by the
    // loader transaction.
    evil.execute("UPDATE t SET v = 666 WHERE id = 1").unwrap();

    // A tracked attack afterwards is still fully repairable.
    good.execute("ANNOTATE attack").unwrap();
    good.execute("BEGIN").unwrap();
    good.execute("UPDATE t SET v = 777 WHERE id = 1").unwrap();
    good.execute("COMMIT").unwrap();
    let attack = rdb.txn_id_by_label("attack").unwrap().unwrap();
    rdb.repair(&[attack], &[]).unwrap();
    let mut s = rdb.database().session();
    let r = s.query("SELECT v FROM t WHERE id = 1").unwrap();
    // Repair restores the pre-attack image — which includes the bypass
    // write (the framework cannot distinguish it from legitimate data).
    assert_eq!(r.rows[0][0], Value::Int(666));
}

#[test]
fn dual_proxy_tracks_proxied_clients_end_to_end() {
    let rdb = ResilientDb::builder(Flavor::Sybase)
        .placement(ProxyPlacement::Dual)
        .build()
        .unwrap();
    let mut conn = rdb.connect().unwrap();
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    conn.execute("ANNOTATE attack").unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO t (id, v) VALUES (1, 666)")
        .unwrap();
    conn.execute("COMMIT").unwrap();
    let attack = rdb.txn_id_by_label("attack").unwrap().unwrap();
    let report = rdb.repair(&[attack], &[]).unwrap();
    assert_eq!(report.undo_set.len(), 1);
    assert_eq!(rdb.database().row_count("t").unwrap(), 0);
}

/// `account` holding (1, 100.0) and (2, 50.0), written through the proxy.
fn bank() -> (ResilientDb, Box<dyn Connection>) {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    let mut conn = rdb.connect().unwrap();
    conn.execute("CREATE TABLE account (id INTEGER PRIMARY KEY, balance FLOAT)")
        .unwrap();
    conn.execute("INSERT INTO account (id, balance) VALUES (1, 100.0)")
        .unwrap();
    conn.execute("INSERT INTO account (id, balance) VALUES (2, 50.0)")
        .unwrap();
    (rdb, conn)
}

/// Runs `stmts` as one transaction named `label`.
fn txn(conn: &mut dyn Connection, label: &str, stmts: &[&str]) {
    conn.execute(&format!("ANNOTATE {label}")).unwrap();
    conn.execute("BEGIN").unwrap();
    for sql in stmts {
        conn.execute(sql).unwrap();
    }
    conn.execute("COMMIT").unwrap();
}

/// Asserts that `sql` is refused before the DBMS, naming `code`.
fn assert_refused(conn: &mut dyn Connection, sql: &str, code: &str) {
    match conn.execute(sql) {
        Err(WireError::Protocol(msg)) => {
            assert!(
                msg.contains("refused") && msg.contains(code),
                "{sql}: {msg}"
            );
        }
        other => panic!("{sql} must be refused with {code}, got {other:?}"),
    }
}

/// The reader: reads the attacked row 1, then writes row 2 from it.
const READER: [&str; 2] = [
    "SELECT balance FROM account WHERE id = 1",
    "UPDATE account SET balance = 999.0 WHERE id = 2",
];

/// Repairs the `attack` transaction and asserts that the undo set reached
/// the reader, so both rows are back to their pre-attack balances.
fn assert_repair_reaches_the_reader(rdb: &ResilientDb) {
    let attack = rdb.txn_id_by_label("attack").unwrap().unwrap();
    let reader = rdb.txn_id_by_label("reader").unwrap().unwrap();
    let report = rdb.repair(&[attack], &[]).unwrap();
    assert!(report.undo_set.contains(&reader), "{:?}", report.undo_set);
    let mut s = rdb.database().session();
    let r = s
        .query("SELECT id, balance FROM account ORDER BY id")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(1), Value::Float(100.0)],
            vec![Value::Int(2), Value::Float(50.0)],
        ]
    );
}

#[test]
fn a_spoofed_trid_stamp_is_refused_and_repair_reaches_the_reader() {
    let (rdb, mut conn) = bank();
    conn.execute("ANNOTATE attack").unwrap();
    conn.execute("BEGIN").unwrap();
    // The attack tries to stamp its write with the loader's id, so that a
    // later reader would harvest a dependency on the loader instead.
    assert_refused(
        &mut *conn,
        "UPDATE account SET balance = 1000000.0, trid = 1 WHERE id = 1",
        "U-TRID-WRITE",
    );
    conn.execute("UPDATE account SET balance = 1000000.0 WHERE id = 1")
        .unwrap();
    conn.execute("COMMIT").unwrap();
    txn(&mut *conn, "reader", &READER);
    assert_repair_reaches_the_reader(&rdb);
}

#[test]
fn an_erased_dependency_record_is_refused_and_repair_reaches_the_reader() {
    let (rdb, mut conn) = bank();
    txn(
        &mut *conn,
        "attack",
        &["UPDATE account SET balance = 1000000.0 WHERE id = 1"],
    );
    txn(&mut *conn, "reader", &READER);
    let reader = rdb.txn_id_by_label("reader").unwrap().unwrap();
    // A later tracked transaction tries to erase the reader's record.
    conn.execute("BEGIN").unwrap();
    for table in ["trans_dep_prov", "trans_dep"] {
        assert_refused(
            &mut *conn,
            &format!("DELETE FROM {table} WHERE tr_id = {reader}"),
            "U-TRACKING-WRITE",
        );
    }
    conn.execute("COMMIT").unwrap();
    assert_repair_reaches_the_reader(&rdb);
}
