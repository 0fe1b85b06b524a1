//! TPC-C workloads run end-to-end, with and without the tracking proxy.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_engine::{Database, Flavor, Value};
use resildb_proxy::{prepare_database, ProxyConfig, TrackingProxy};
use resildb_tpcc::{Attack, AttackKind, Loader, Mix, MixKind, TpccConfig, TpccRunner, TxnKind};
use resildb_wire::{Connection, Driver, LinkProfile, NativeDriver};

fn raw_db() -> (Database, Box<dyn Connection>) {
    let db = Database::in_memory(Flavor::Postgres);
    let driver = NativeDriver::new(db.clone(), LinkProfile::local());
    let conn = driver.connect().unwrap();
    (db, conn)
}

fn tracked_db(flavor: Flavor) -> (Database, Box<dyn Connection>) {
    let db = Database::in_memory(flavor);
    let native = NativeDriver::new(db.clone(), LinkProfile::local());
    prepare_database(&mut *native.connect().unwrap()).unwrap();
    let driver =
        TrackingProxy::single_proxy(db.clone(), LinkProfile::local(), ProxyConfig::new(flavor));
    let conn = driver.connect().unwrap();
    (db, conn)
}

#[test]
fn every_transaction_kind_runs_without_proxy() {
    let (_db, mut conn) = raw_db();
    let cfg = TpccConfig::tiny();
    Loader::new(cfg.clone(), 3).load(&mut *conn).unwrap();
    let mut runner = TpccRunner::new(cfg, 11).without_annotations();
    for kind in [
        TxnKind::NewOrder,
        TxnKind::Payment,
        TxnKind::Delivery,
        TxnKind::OrderStatus,
        TxnKind::StockLevel,
    ] {
        runner
            .run(&mut *conn, kind)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    }
    assert_eq!(runner.stats.committed, 5);
}

#[test]
fn every_transaction_kind_runs_through_proxy_on_all_flavors() {
    for flavor in Flavor::ALL {
        let (db, mut conn) = tracked_db(flavor);
        let cfg = TpccConfig::tiny();
        Loader::new(cfg.clone(), 3).load(&mut *conn).unwrap();
        let mut runner = TpccRunner::new(cfg, 11);
        for kind in [
            TxnKind::NewOrder,
            TxnKind::Payment,
            TxnKind::Delivery,
            TxnKind::OrderStatus,
            TxnKind::StockLevel,
        ] {
            runner
                .run(&mut *conn, kind)
                .unwrap_or_else(|e| panic!("{flavor}/{kind:?}: {e}"));
        }
        // Every committed transaction left a dependency record.
        assert!(db.row_count("trans_dep").unwrap() > 0, "{flavor}");
        // Labels follow the paper's Figure 3 convention.
        let mut s = db.session();
        let r = s
            .query("SELECT descr FROM annot WHERE descr LIKE 'Order_%' LIMIT 1")
            .unwrap();
        assert!(!r.rows.is_empty(), "{flavor}: no Order_* annotation");
    }
}

#[test]
fn new_order_advances_district_counter_and_creates_rows() {
    let (db, mut conn) = raw_db();
    let cfg = TpccConfig::tiny();
    Loader::new(cfg.clone(), 3).load(&mut *conn).unwrap();
    let orders_before = db.row_count("orders").unwrap();
    let lines_before = db.row_count("order_line").unwrap();
    let mut runner = TpccRunner::new(cfg, 5).without_annotations();
    runner.new_order(&mut *conn).unwrap();
    assert_eq!(db.row_count("orders").unwrap(), orders_before + 1);
    assert!(db.row_count("order_line").unwrap() > lines_before);
}

#[test]
fn payment_moves_money() {
    let (db, mut conn) = raw_db();
    let cfg = TpccConfig::tiny();
    Loader::new(cfg.clone(), 3).load(&mut *conn).unwrap();
    let mut s = db.session();
    let before = match s
        .query("SELECT w_ytd FROM warehouse WHERE w_id = 1")
        .unwrap()
        .rows[0][0]
    {
        Value::Float(v) => v,
        ref other => panic!("{other:?}"),
    };
    let mut runner = TpccRunner::new(cfg, 5).without_annotations();
    runner.payment(&mut *conn).unwrap();
    let after = match s
        .query("SELECT w_ytd FROM warehouse WHERE w_id = 1")
        .unwrap()
        .rows[0][0]
    {
        Value::Float(v) => v,
        ref other => panic!("{other:?}"),
    };
    assert!(after > before, "w_ytd must grow: {before} -> {after}");
    assert_eq!(
        db.row_count("history").unwrap(),
        TpccConfig::tiny().total_customers() + 1
    );
}

#[test]
fn delivery_consumes_new_order_rows() {
    let (db, mut conn) = raw_db();
    let cfg = TpccConfig::tiny();
    Loader::new(cfg.clone(), 3).load(&mut *conn).unwrap();
    let before = db.row_count("new_order").unwrap();
    assert!(before > 0);
    let mut runner = TpccRunner::new(cfg, 5).without_annotations();
    runner.delivery(&mut *conn).unwrap();
    assert!(db.row_count("new_order").unwrap() < before);
}

#[test]
fn mixes_run_to_completion() {
    let (_db, mut conn) = raw_db();
    let cfg = TpccConfig::tiny();
    Loader::new(cfg.clone(), 3).load(&mut *conn).unwrap();
    let mut runner = TpccRunner::new(cfg, 5).without_annotations();
    let committed = Mix::read_intensive(10)
        .run(&mut runner, &mut *conn)
        .unwrap();
    assert_eq!(committed, 10);
    let committed = Mix::read_write(4).run(&mut runner, &mut *conn).unwrap();
    assert_eq!(committed, 20);
    let committed = Mix::of(MixKind::Standard, 1).run(&mut runner, &mut *conn);
    assert!(committed.is_ok());
}

#[test]
fn attack_then_repair_preserves_independent_work() {
    let (db, mut conn) = tracked_db(Flavor::Postgres);
    let cfg = TpccConfig::tiny();
    Loader::new(cfg.clone(), 3).load(&mut *conn).unwrap();

    // Pre-attack state of the victim.
    let mut s = db.session();
    let victim_before = s
        .query("SELECT c_balance FROM customer WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = 1")
        .unwrap()
        .rows[0][0]
        .clone();

    Attack {
        kind: AttackKind::BalanceCorruption,
        w_id: 1,
        d_id: 1,
        target_id: 1,
    }
    .execute(&mut *conn)
    .unwrap();

    // Post-attack legitimate activity.
    let mut runner = TpccRunner::new(cfg, 5);
    Mix::standard(30, 9).run(&mut runner, &mut *conn).unwrap();

    // Locate the attack transaction and repair.
    let attack_id = match s
        .query(&format!(
            "SELECT tr_id FROM annot WHERE descr = '{}'",
            resildb_tpcc::ATTACK_LABEL
        ))
        .unwrap()
        .rows
        .first()
        .map(|r| r[0].clone())
    {
        Some(Value::Int(v)) => v,
        other => panic!("attack not found: {other:?}"),
    };
    let tool = resildb_repair::RepairController::new(db.clone());
    let report = tool.repair(&[attack_id]).unwrap();
    assert!(report.undo_set.contains(&attack_id));
    assert!(
        report.saved > 0,
        "some transactions must survive: {report:?}"
    );

    let victim_after = s
        .query("SELECT c_balance FROM customer WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = 1")
        .unwrap()
        .rows[0][0]
        .clone();
    // The corruption itself is gone (the balance is no longer 999999).
    assert_ne!(victim_after, Value::Float(999_999.0));
    // If no surviving transaction touched the victim again, the balance is
    // exactly restored; otherwise it differs by legitimate activity only.
    let _ = victim_before;
}

/// An exact-count gate on the tracked path: one seeded stream, a fixed
/// count of each transaction kind, through the tracking proxy and through
/// the plain driver. The literals were observed, not derived: a change that
/// adds or removes a downstream statement or a logged byte moves them, and
/// has to edit this test on purpose.
#[test]
fn tracked_stream_costs_exact_statements_and_log_bytes() {
    /// (statements, log bytes, WAL records, engine statement-cache misses,
    /// proxy rewrite-cache misses, committed) for the stream after the load.
    fn run(db: &Database, conn: &mut dyn Connection) -> [u64; 6] {
        let cfg = TpccConfig::tiny();
        Loader::new(cfg.clone(), 3).load(conn).unwrap();
        let counts = |conn: &dyn Connection| {
            let stats = db.sim().stats();
            [
                stats.statements.get(),
                stats.log_bytes.get(),
                db.read_wal(|records| records.len() as u64),
                db.stmt_cache_stats().misses,
                conn.metrics().counter("proxy.rewrite_cache.misses"),
            ]
        };
        let before = counts(conn);
        let mut runner = TpccRunner::new(cfg, 11).without_annotations();
        for kind in TxnKind::ALL {
            for _ in 0..4 {
                runner.run(conn, kind).unwrap();
            }
        }
        let after = counts(conn);
        let [a, b, c, d, e] = std::array::from_fn(|i| after[i] - before[i]);
        [a, b, c, d, e, runner.stats.committed]
    }
    let (db, mut conn) = tracked_db(Flavor::Postgres);
    let tracked = run(&db, &mut *conn);
    let (db, mut conn) = raw_db();
    let plain = run(&db, &mut *conn);
    // Cold parses: a miss is a statement shape first seen in the stream
    // (an IN-list or VALUES length, or a statement the load never sent).
    // Payment's amount is masked: its four customer UPDATEs miss once.
    assert_eq!(
        tracked,
        [176, 37870, 133, 34, 30, 20],
        "tracked (statements, log bytes, WAL records, engine misses, proxy misses, committed)"
    );
    assert_eq!(
        plain,
        [154, 24307, 90, 30, 0, 20],
        "plain (statements, log bytes, WAL records, engine misses, proxy misses, committed)"
    );
    let per_txn = |tracked: u64, plain: u64| (tracked - plain) as f64 / 20.0;
    assert_eq!(
        per_txn(tracked[0], plain[0]),
        1.1,
        "extra statements per txn"
    );
    assert_eq!(
        per_txn(tracked[1], plain[1]),
        678.15,
        "extra log bytes per txn"
    );
}

/// A deterministic guard on the engine's access paths: a transaction whose
/// statements all name their rows by key must not look at many more row
/// images than it returns or writes. A lost path (Stock-Level's `IN` list
/// or `BETWEEN` range, Delivery's `ORDER BY .. LIMIT 1`) fails this count
/// on any host, with no wall-clock threshold involved.
#[test]
fn keyed_transactions_examine_few_rows_beyond_those_they_touch() {
    let (db, mut conn) = raw_db();
    let cfg = TpccConfig::scaled(2);
    Loader::new(cfg.clone(), 3).load(&mut *conn).unwrap();
    let mut runner = TpccRunner::new(cfg, 11).without_annotations();
    let stats = db.sim().stats();
    for kind in TxnKind::ALL {
        let (examined, touched) = (stats.rows_examined.get(), stats.rows_touched.get());
        for _ in 0..20 {
            runner.run(&mut *conn, kind).unwrap();
        }
        let examined = stats.rows_examined.get() - examined;
        let touched = stats.rows_touched.get() - touched;
        match kind {
            // An UPDATE/DELETE looks at a row twice: to find it, and again
            // under its row lock.
            TxnKind::NewOrder | TxnKind::Payment | TxnKind::Delivery | TxnKind::StockLevel => {
                assert!(
                    examined <= 2 * touched + 20,
                    "{kind:?}: {examined} rows examined for {touched} touched"
                );
            }
            // Walks a district's orders backwards to the customer's last:
            // `o_c_id` is not a key column.
            TxnKind::OrderStatus => {}
        }
    }
}
