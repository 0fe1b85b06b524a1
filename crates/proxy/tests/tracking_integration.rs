//! End-to-end tests of the tracking proxy against a live engine.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_engine::{Database, Flavor, Value};
use resildb_proxy::{prepare_database, ProxyConfig, TrackingProxy};
use resildb_wire::{Connection, Driver, LinkProfile, NativeDriver, WireError};

/// Creates a prepared database plus a tracking connection to it.
fn tracked(flavor: Flavor) -> (Database, Box<dyn Connection>) {
    tracked_with(ProxyConfig::new(flavor))
}

/// Like [`tracked`] but also records dependency rows for read-only
/// transactions (several tests observe trans_dep for pure readers).
fn tracked_readonly_deps(flavor: Flavor) -> (Database, Box<dyn Connection>) {
    let config = ProxyConfig::builder(flavor)
        .record_read_only_deps(true)
        .build();
    tracked_with(config)
}

fn tracked_with(config: ProxyConfig) -> (Database, Box<dyn Connection>) {
    let flavor = config.flavor;
    let db = Database::in_memory(flavor);
    let native = NativeDriver::new(db.clone(), LinkProfile::local());
    prepare_database(&mut *native.connect().unwrap()).unwrap();
    let driver = TrackingProxy::single_proxy(db.clone(), LinkProfile::local(), config);
    let conn = driver.connect().unwrap();
    (db, conn)
}

/// All dependency ids recorded for proxy transaction `trid`.
fn deps_of(db: &Database, trid: i64) -> Vec<i64> {
    let mut s = db.session();
    let r = s
        .query(&format!(
            "SELECT dep_tr_ids FROM trans_dep WHERE tr_id = {trid}"
        ))
        .unwrap();
    let mut deps = Vec::new();
    for row in r.rows {
        if let Value::Str(ids) = &row[0] {
            deps.extend(ids.split_whitespace().map(|t| t.parse::<i64>().unwrap()));
        }
    }
    deps.sort_unstable();
    deps
}

#[test]
fn tables_created_through_proxy_gain_trid() {
    let (db, mut conn) = tracked(Flavor::Postgres);
    conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
    let schema = db.table("t").unwrap().read().schema().clone();
    assert!(schema.has_column("trid"));
    assert!(!schema.has_column("rid"), "rid only on Sybase flavor");
}

#[test]
fn sybase_tables_also_gain_identity_rid() {
    let (db, mut conn) = tracked(Flavor::Sybase);
    conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
    let schema = db.table("t").unwrap().read().schema().clone();
    assert!(schema.has_column("trid"));
    assert!(schema.has_column("rid"));
    assert!(schema.identity_column().is_some());
}

#[test]
fn writes_stamp_trid_and_commit_records_dependencies() {
    let (db, mut conn) = tracked(Flavor::Postgres);
    conn.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT)")
        .unwrap();

    // Txn A: insert two rows.
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO acct (id, bal) VALUES (1, 10.0), (2, 20.0)")
        .unwrap();
    conn.execute("COMMIT").unwrap();

    // Txn B: read row 1, update row 2 — B depends on A via the read.
    conn.execute("BEGIN").unwrap();
    let r = conn.execute("SELECT bal FROM acct WHERE id = 1").unwrap();
    // Client sees no trid column.
    let rows = r.rows().unwrap();
    assert_eq!(rows.columns, vec!["bal"]);
    assert_eq!(rows.rows[0], vec![Value::Float(10.0)]);
    conn.execute("UPDATE acct SET bal = 99.0 WHERE id = 2")
        .unwrap();
    conn.execute("COMMIT").unwrap();

    // Find the two proxy txn ids from trans_dep.
    let mut s = db.session();
    let recs = s
        .query("SELECT tr_id, dep_tr_ids FROM trans_dep ORDER BY tr_id")
        .unwrap();
    assert_eq!(recs.rows.len(), 2);
    let Value::Int(a) = recs.rows[0][0] else {
        panic!()
    };
    let Value::Int(b) = recs.rows[1][0] else {
        panic!()
    };

    assert_eq!(deps_of(&db, a), Vec::<i64>::new(), "first txn has no deps");
    assert_eq!(deps_of(&db, b), vec![a], "reader depends on writer");

    // The stored rows carry the writer's trid.
    let r = s.query("SELECT trid FROM acct WHERE id = 2").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(b));
    let r = s.query("SELECT trid FROM acct WHERE id = 1").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(a));
}

#[test]
fn provenance_records_table_and_read_columns() {
    let (db, mut conn) = tracked(Flavor::Postgres);
    conn.execute("CREATE TABLE warehouse (w_id INTEGER PRIMARY KEY, w_tax FLOAT, w_ytd FLOAT)")
        .unwrap();
    conn.execute("INSERT INTO warehouse (w_id, w_tax, w_ytd) VALUES (1, 0.05, 0.0)")
        .unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute("SELECT w_tax FROM warehouse WHERE w_id = 1")
        .unwrap();
    conn.execute("UPDATE warehouse SET w_ytd = 1.0 WHERE w_id = 1")
        .unwrap();
    conn.execute("COMMIT").unwrap();

    let mut s = db.session();
    let prov = s
        .query("SELECT via_table, read_cols FROM trans_dep_prov")
        .unwrap();
    assert_eq!(prov.rows.len(), 1);
    assert_eq!(prov.rows[0][0], Value::from("warehouse"));
    let Value::Str(cols) = &prov.rows[0][1] else {
        panic!()
    };
    assert!(cols.contains("w_tax") && cols.contains("w_id"));
    assert!(
        !cols.contains("w_ytd"),
        "reader never touched w_ytd: {cols}"
    );
}

#[test]
fn autocommit_write_gets_its_own_tracked_transaction() {
    let (db, mut conn) = tracked(Flavor::Oracle);
    conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
    conn.execute("INSERT INTO t (a) VALUES (1)").unwrap();
    conn.execute("INSERT INTO t (a) VALUES (2)").unwrap();
    assert_eq!(db.row_count("trans_dep").unwrap(), 2);
    // Unannotated transactions get no annot row (client-supplied naming).
    assert_eq!(db.row_count("annot").unwrap(), 0);
    // Distinct proxy ids.
    let mut s = db.session();
    let r = s
        .query("SELECT COUNT(DISTINCT tr_id) FROM trans_dep")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
}

#[test]
fn rollback_discards_tracking_state() {
    let (db, mut conn) = tracked(Flavor::Postgres);
    conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO t (a) VALUES (1)").unwrap();
    conn.execute("ROLLBACK").unwrap();
    assert_eq!(db.row_count("t").unwrap(), 0);
    assert_eq!(
        db.row_count("trans_dep").unwrap(),
        0,
        "no record for aborted txn"
    );
}

#[test]
fn annotate_names_the_transaction() {
    let (db, mut conn) = tracked(Flavor::Postgres);
    conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
    conn.execute("ANNOTATE Payment_0_3_0_5").unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO t (a) VALUES (1)").unwrap();
    conn.execute("COMMIT").unwrap();
    let mut s = db.session();
    let r = s.query("SELECT descr FROM annot").unwrap();
    assert_eq!(r.rows[0][0], Value::from("Payment_0_3_0_5"));
}

#[test]
fn annotate_inside_transaction_applies_to_it() {
    let (db, mut conn) = tracked(Flavor::Postgres);
    conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute("ANNOTATE Deliv_0_1_7").unwrap();
    conn.execute("INSERT INTO t (a) VALUES (1)").unwrap();
    conn.execute("COMMIT").unwrap();
    let mut s = db.session();
    let r = s.query("SELECT descr FROM annot").unwrap();
    assert_eq!(r.rows[0][0], Value::from("Deliv_0_1_7"));
}

#[test]
fn aggregate_selects_pass_through_untracked() {
    let (db, mut conn) = tracked(Flavor::Postgres);
    conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
    conn.execute("INSERT INTO t (a) VALUES (1)").unwrap();
    conn.execute("BEGIN").unwrap();
    let r = conn.execute("SELECT SUM(a) FROM t").unwrap();
    assert_eq!(r.rows().unwrap().rows[0][0], Value::Int(1));
    conn.execute("INSERT INTO t (a) VALUES (9)").unwrap();
    conn.execute("COMMIT").unwrap();
    // The aggregate read produced no dependency (paper limitation).
    let mut s = db.session();
    let r = s
        .query("SELECT dep_tr_ids FROM trans_dep ORDER BY tr_id DESC LIMIT 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::from(""));
}

#[test]
fn dependency_on_deleted_then_read_rows_via_select() {
    let (db, mut conn) = tracked_readonly_deps(Flavor::Postgres);
    conn.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        .unwrap();
    conn.execute("INSERT INTO t (a, b) VALUES (1, 0)").unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute("SELECT b FROM t WHERE a = 1").unwrap();
    conn.execute("COMMIT").unwrap();
    // The reading txn recorded its dependency on the loader txn.
    let mut s = db.session();
    let r = s.query("SELECT COUNT(*) FROM trans_dep_prov").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    // Sanity: count of trans_dep rows equals committed tracked txns.
    assert_eq!(db.row_count("trans_dep").unwrap(), 2);
}

#[test]
fn wildcard_select_strips_trid_from_client_view() {
    let (_db, mut conn) = tracked(Flavor::Postgres);
    conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR(4))")
        .unwrap();
    conn.execute("INSERT INTO t (a, b) VALUES (1, 'x')")
        .unwrap();
    let r = conn.execute("SELECT * FROM t").unwrap();
    let rows = r.rows().unwrap();
    assert_eq!(rows.columns, vec!["a", "b"], "trid hidden from wildcard");
    assert_eq!(rows.rows[0].len(), 2);
}

#[test]
fn join_select_harvests_from_both_tables() {
    let (db, mut conn) = tracked_readonly_deps(Flavor::Postgres);
    conn.execute("CREATE TABLE t1 (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    conn.execute("CREATE TABLE t2 (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    conn.execute("INSERT INTO t1 (id, v) VALUES (1, 10)")
        .unwrap(); // txn X
    conn.execute("INSERT INTO t2 (id, v) VALUES (1, 20)")
        .unwrap(); // txn Y
    conn.execute("BEGIN").unwrap();
    conn.execute("SELECT t1.v, t2.v FROM t1, t2 WHERE t1.id = t2.id")
        .unwrap();
    conn.execute("COMMIT").unwrap();
    let mut s = db.session();
    let r = s
        .query("SELECT dep_tr_ids FROM trans_dep ORDER BY tr_id DESC LIMIT 1")
        .unwrap();
    let Value::Str(ids) = &r.rows[0][0] else {
        panic!()
    };
    assert_eq!(
        ids.split_whitespace().count(),
        2,
        "deps on both writers: {ids}"
    );
}

#[test]
fn tracking_disabled_reads_record_nothing() {
    let db = Database::in_memory(Flavor::Postgres);
    let native = NativeDriver::new(db.clone(), LinkProfile::local());
    prepare_database(&mut *native.connect().unwrap()).unwrap();
    let config = ProxyConfig::builder(Flavor::Postgres)
        .track_reads(false)
        .build();
    let driver = TrackingProxy::single_proxy(db.clone(), LinkProfile::local(), config);
    let mut conn = driver.connect().unwrap();
    conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
    conn.execute("INSERT INTO t (a) VALUES (1)").unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute("SELECT a FROM t").unwrap();
    conn.execute("INSERT INTO t (a) VALUES (2)").unwrap();
    conn.execute("COMMIT").unwrap();
    let mut s = db.session();
    let r = s
        .query("SELECT dep_tr_ids FROM trans_dep ORDER BY tr_id DESC LIMIT 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::from(""), "no read deps harvested");
}

#[test]
fn queries_on_tracking_tables_pass_through() {
    let (_db, mut conn) = tracked(Flavor::Postgres);
    conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
    conn.execute("INSERT INTO t (a) VALUES (1)").unwrap();
    // Reading trans_dep through the proxy must not try to harvest trid.
    let r = conn
        .execute("SELECT tr_id, dep_tr_ids FROM trans_dep")
        .unwrap();
    assert_eq!(r.rows().unwrap().rows.len(), 1);
}

#[test]
fn unparseable_sql_is_a_protocol_error() {
    let (_db, mut conn) = tracked(Flavor::Postgres);
    let err = conn.execute("FROBNICATE THE DATABASE").unwrap_err();
    assert!(matches!(err, WireError::Protocol(_)));
}

#[test]
fn trans_dep_insert_is_last_before_commit_in_wal() {
    let (db, mut conn) = tracked(Flavor::Postgres);
    conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO t (a) VALUES (1)").unwrap();
    conn.execute("COMMIT").unwrap();
    let wal = db.wal_records();
    // Find the commit of the tracked txn (the one whose txn also inserted
    // into trans_dep), then check the preceding row-op record.
    let mut last_table_before_commit = None;
    for rec in &wal {
        match &rec.op {
            resildb_engine::LogOp::Insert { table, .. } => {
                last_table_before_commit = Some(table.clone());
            }
            resildb_engine::LogOp::Commit => {
                if let Some(t) = &last_table_before_commit {
                    if t == "trans_dep" {
                        return; // property holds
                    }
                }
            }
            _ => {}
        }
    }
    panic!("no commit preceded by a trans_dep insert found");
}

#[test]
fn long_dependency_sets_split_across_rows() {
    let (db, mut conn) = tracked_readonly_deps(Flavor::Postgres);
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    // 120 separate writer transactions (enough that the space-separated
    // id list exceeds the 200-char column width).
    for i in 0..120 {
        conn.execute(&format!("INSERT INTO t (id, v) VALUES ({i}, {i})"))
            .unwrap();
    }
    // One reader that touches all 60 rows.
    conn.execute("BEGIN").unwrap();
    conn.execute("SELECT v FROM t").unwrap();
    conn.execute("COMMIT").unwrap();
    let mut s = db.session();
    let r = s
        .query("SELECT tr_id, dep_tr_ids FROM trans_dep ORDER BY tr_id DESC LIMIT 2")
        .unwrap();
    let Value::Int(reader) = r.rows[0][0] else {
        panic!()
    };
    let rows = s
        .query(&format!(
            "SELECT dep_tr_ids FROM trans_dep WHERE tr_id = {reader}"
        ))
        .unwrap();
    assert!(
        rows.rows.len() > 1,
        "long dep set must split; got {} row(s)",
        rows.rows.len()
    );
    let total: usize = rows
        .rows
        .iter()
        .map(|row| match &row[0] {
            Value::Str(s) => s.split_whitespace().count(),
            _ => 0,
        })
        .sum();
    assert_eq!(total, 120);
}

/// A tracking connection with the rewrite cache at `capacity` shapes
/// (`0` turns it off).
fn tracked_cache(capacity: usize) -> (Database, Box<dyn Connection>) {
    let config = ProxyConfig::builder(Flavor::Postgres)
        .rewrite_cache_capacity(capacity)
        .build();
    let (db, mut conn) = tracked_with(config);
    conn.execute("CREATE TABLE q (id INTEGER PRIMARY KEY, s VARCHAR(16))")
        .unwrap();
    (db, conn)
}

/// The scanner refuses any statement with a `?` byte, so one inside a
/// quoted literal sends the statement down the parse-as-sent path. Its
/// rewrite must still find exactly the trid slot, with the cache on or off.
#[test]
fn question_mark_inside_a_literal_is_text() {
    for capacity in [256, 0] {
        let (db, mut conn) = tracked_cache(capacity);
        let r = conn
            .execute("INSERT INTO q (id, s) VALUES (1, 'what?')")
            .unwrap();
        assert_eq!(format!("{r:?}"), "Affected(1)", "cache {capacity}");
        let r = conn.execute("UPDATE q SET s = '??' WHERE id = 1").unwrap();
        assert_eq!(format!("{r:?}"), "Affected(1)", "cache {capacity}");
        let r = conn.execute("SELECT s FROM q WHERE s <> 'who?'").unwrap();
        assert_eq!(r.rows().unwrap().rows, vec![vec![Value::from("??")]]);
        // Both writes were stamped and recorded.
        assert_eq!(db.row_count("trans_dep").unwrap(), 2, "cache {capacity}");
    }
}

/// A client `?` sent through plain `execute` reaches the DBMS unbound:
/// the proxy neither binds nor splices it, cache on or off.
#[test]
fn client_placeholders_reach_the_dbms_unbound() {
    for capacity in [256, 0] {
        let (db, mut conn) = tracked_cache(capacity);
        let r = conn.execute("SELECT s FROM q WHERE id = ?").unwrap();
        let rows = r.rows().unwrap();
        assert_eq!(rows.columns, vec!["s"]);
        assert!(rows.rows.is_empty());
        let err = conn
            .execute("INSERT INTO q (id, s) VALUES (?, 'x')")
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "database error: unsupported: unbound parameter ?0 \
             (parameters must be bound before execution)",
            "cache {capacity}"
        );
        // The implicit transaction around the failed write left nothing.
        assert_eq!(db.row_count("q").unwrap(), 0);
        assert_eq!(db.row_count("trans_dep").unwrap(), 0);
    }
}

/// Virtual-clock rewrite charges: a miss pays the full rewrite, a hit
/// the much smaller template replay.
#[test]
fn misses_and_hits_charge_their_own_rewrite_cost() {
    for (capacity, expected) in [(256, [66, 20, 21]), (0, [66, 65, 66])] {
        let (db, mut conn) = tracked_cache(capacity);
        conn.execute("INSERT INTO q (id, s) VALUES (1, 'a')")
            .unwrap();
        let clock = db.sim().clock();
        let charged = [
            "SELECT s FROM q WHERE id = 1",
            "SELECT s FROM q WHERE id = 2",
            "SELECT s FROM q WHERE id = 1",
        ]
        .map(|sql| {
            let before = clock.now().as_micros();
            conn.execute(sql).unwrap();
            clock.now().as_micros() - before
        });
        assert_eq!(charged, expected, "cache {capacity}");
    }
}

/// A read of a table whose name is wider than `trans_dep_prov.via_table`
/// (32 characters) commits, and its provenance names the table as
/// unknown rather than as a truncated name another table could have.
#[test]
fn a_read_of_a_long_named_table_commits_with_the_unknown_table_marker() {
    let (db, mut conn) = tracked(Flavor::Postgres);
    let long = "a_table_name_of_exactly_forty_characters";
    assert_eq!(long.len(), 40);
    conn.execute(&format!(
        "CREATE TABLE {long} (id INTEGER PRIMARY KEY, v INTEGER)"
    ))
    .unwrap();
    conn.execute(&format!("INSERT INTO {long} (id, v) VALUES (1, 10)"))
        .unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute(&format!("SELECT v FROM {long} WHERE id = 1"))
        .unwrap();
    conn.execute(&format!("UPDATE {long} SET v = 11 WHERE id = 1"))
        .unwrap();
    conn.execute("COMMIT").unwrap();

    let mut s = db.session();
    let ids = s
        .query("SELECT tr_id FROM trans_dep ORDER BY tr_id")
        .unwrap();
    let [Value::Int(writer), Value::Int(reader)] = [&ids.rows[0][0], &ids.rows[1][0]] else {
        panic!("two tracked transactions: {ids:?}")
    };
    assert_eq!(deps_of(&db, *reader), vec![*writer]);
    let prov = s
        .query("SELECT dep_tr_id, via_table, read_cols FROM trans_dep_prov")
        .unwrap();
    assert_eq!(
        prov.rows,
        vec![vec![
            Value::Int(*writer),
            Value::from(""),
            Value::from("v,id")
        ]]
    );
}
