//! Integration tests for the static trackability analyzer wired into the
//! proxy enforcement path, plus a differential property test checking the
//! analyzer's verdicts against what the dynamic tracker actually records.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use resildb_analyze::{
    is_tracking_column, profiles_from_groups, Analyzer, Granularity, TxnProfile,
};
use resildb_core::{EventKind, ResilientDb, Telemetry, TraceVerdict};
use resildb_engine::{Database, Flavor, Value};
use resildb_proxy::{
    prepare_database, EnforcementPolicy, ProxyConfig, TrackingGranularity, TrackingProxy,
    TRACKING_TABLES,
};
use resildb_repair::RepairOp;
use resildb_tpcc::{record_profiled_corpus, Loader, TpccConfig, TpccRunner, TxnKind};
use resildb_wire::{single_proxy, Connection, Driver, LinkProfile, NativeDriver, WireError};

/// A tracking proxy plus its runtime handle (for the enforcement
/// statistics) over a fresh database.
fn proxy_with(
    policy: EnforcementPolicy,
    read_only_deps: bool,
) -> (
    Database,
    Box<dyn Connection>,
    std::sync::Arc<resildb_proxy::ProxyRuntime>,
) {
    proxy_over(
        ProxyConfig::builder(Flavor::Postgres)
            .enforcement(policy)
            .record_read_only_deps(read_only_deps)
            .build(),
    )
}

/// A tracking proxy configured by `config`, plus its runtime handle, over
/// a fresh database of the configured flavor.
fn proxy_over(
    config: ProxyConfig,
) -> (
    Database,
    Box<dyn Connection>,
    std::sync::Arc<resildb_proxy::ProxyRuntime>,
) {
    let db = Database::in_memory(config.flavor);
    let native = NativeDriver::new(db.clone(), LinkProfile::local());
    prepare_database(&mut *native.connect().unwrap()).unwrap();
    let (factory, runtime) = TrackingProxy::new(config, db.sim().clone());
    let conn = single_proxy(db.clone(), LinkProfile::local(), factory)
        .connect()
        .unwrap();
    (db, conn, runtime)
}

#[test]
fn reject_policy_refuses_untracked_statements() {
    let (db, mut conn, runtime) = proxy_with(EnforcementPolicy::Reject, false);
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    conn.execute("INSERT INTO t (id, v) VALUES (1, 10)")
        .unwrap();

    // An aggregate read loses its row-level dependencies: refused before
    // it reaches the DBMS.
    let err = conn.execute("SELECT COUNT(v) FROM t").unwrap_err();
    match err {
        WireError::Protocol(msg) => {
            assert!(msg.contains("refused"), "{msg}");
            assert!(msg.contains("U-AGG"), "{msg}");
        }
        other => panic!("expected Protocol error, got {other:?}"),
    }

    // Trackable statements pass unharmed.
    let resp = conn.execute("SELECT v FROM t WHERE id = 1").unwrap();
    match resp {
        resildb_wire::Response::Rows(r) => assert_eq!(r.rows, vec![vec![Value::Int(10)]]),
        other => panic!("{other:?}"),
    }

    let snap = runtime.tracker_stats().snapshot();
    assert_eq!(snap.rejected, 1);
    assert_eq!(snap.untracked, 1);
    assert!(snap.sound >= 2, "{snap:?}");
    // The refused statement left no trace in the dependency tables.
    assert_eq!(db.row_count("trans_dep").unwrap(), 1); // the INSERT only
}

#[test]
fn reject_policy_applies_on_rewrite_cache_hits_too() {
    let (_db, mut conn, runtime) = proxy_with(EnforcementPolicy::Reject, false);
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    // Same statement shape twice: the second execution takes the cached
    // path and must still be refused via the memoised verdict.
    assert!(conn.execute("SELECT MAX(v) FROM t").is_err());
    assert!(conn.execute("SELECT MAX(v) FROM t").is_err());
    assert_eq!(runtime.tracker_stats().snapshot().rejected, 2);
}

#[test]
fn warn_policy_forwards_but_counts() {
    let (_db, mut conn, runtime) = proxy_with(EnforcementPolicy::Warn, false);
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    conn.execute("INSERT INTO t (id, v) VALUES (1, 10)")
        .unwrap();
    // Forwarded despite being untracked…
    conn.execute("SELECT COUNT(v) FROM t").unwrap();
    // …but the audit trail knows.
    let snap = runtime.tracker_stats().snapshot();
    assert_eq!(snap.untracked, 1);
    assert_eq!(snap.rejected, 0);
    assert!(snap.sound >= 2, "{snap:?}");
}

#[test]
fn allow_policy_counts_nothing() {
    let (_db, mut conn, runtime) = proxy_with(EnforcementPolicy::Allow, false);
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    conn.execute("INSERT INTO t (id, v) VALUES (1, 10)")
        .unwrap();
    conn.execute("SELECT COUNT(v) FROM t").unwrap();
    // The paper's behaviour: nothing classified, nothing counted.
    let snap = runtime.tracker_stats().snapshot();
    assert_eq!(
        (snap.sound, snap.degraded, snap.untracked, snap.rejected),
        (0, 0, 0, 0)
    );
}

const POLICIES: [EnforcementPolicy; 3] = [
    EnforcementPolicy::Allow,
    EnforcementPolicy::Warn,
    EnforcementPolicy::Reject,
];

/// Every shape of client write to tracking state, with the granularity it
/// is tried at and the reason code its refusal must name: tracking columns
/// of a user table `t(id, v)`, then each tracking table.
fn tamper_statements() -> Vec<(String, TrackingGranularity, &'static str)> {
    let row = TrackingGranularity::Row;
    let mut out = vec![
        (
            "INSERT INTO t (id, v, trid) VALUES (2, 20, 1)".to_string(),
            row,
            "U-TRID-WRITE",
        ),
        (
            "UPDATE t SET v = 11, trid = 1 WHERE id = 1".to_string(),
            row,
            "U-TRID-WRITE",
        ),
        (
            "UPDATE t SET v = 11, trid__v = 1 WHERE id = 1".to_string(),
            TrackingGranularity::Column,
            "U-TRID-WRITE",
        ),
        (
            "CREATE TABLE u (a INTEGER, trid INTEGER)".to_string(),
            row,
            "U-TRID-SHADOW",
        ),
    ];
    for table in TRACKING_TABLES {
        for sql in [
            format!("INSERT INTO {table} (tr_id) VALUES (99)"),
            format!("UPDATE {table} SET tr_id = 99 WHERE tr_id = 1"),
            format!("DELETE FROM {table} WHERE tr_id = 1"),
            format!("DROP TABLE {table}"),
        ] {
            out.push((sql, row, "U-TRACKING-WRITE"));
        }
    }
    out
}

/// The refusal matrix: under every policy, on first and repeated
/// execution, every write to tracking state is refused before the DBMS
/// (no WAL record), counted as rejected, flight-recorded as rejected and
/// never cached; its verdict is counted only where the policy classifies.
#[test]
fn writes_to_tracking_state_are_refused_under_every_policy() {
    for policy in POLICIES {
        for (sql, granularity, code) in tamper_statements() {
            let at = format!("{policy:?}, {granularity:?}: {sql}");
            let tel = Telemetry::recording();
            tel.flight().set_enabled(true);
            let (db, mut conn, runtime) = proxy_over(
                ProxyConfig::builder(Flavor::Postgres)
                    .enforcement(policy)
                    .granularity(granularity)
                    .telemetry(tel.clone())
                    .build(),
            );
            conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
                .unwrap();
            conn.execute("INSERT INTO t (id, v) VALUES (1, 10)")
                .unwrap();
            let wal = db.wal_records().len();
            let stats = runtime.tracker_stats().snapshot();
            let cached = runtime.rewrite_cache_stats().entries;
            tel.flight().clear();
            for run in ["first", "repeated"] {
                match conn.execute(&sql) {
                    Err(WireError::Protocol(msg)) => {
                        assert!(msg.contains("refused") && msg.contains(code), "{at}: {msg}");
                    }
                    other => panic!("{at}: {run} execution must be refused, got {other:?}"),
                }
            }
            assert_eq!(db.wal_records().len(), wal, "{at}: reached the DBMS");
            assert_eq!(runtime.rewrite_cache_stats().entries, cached, "{at}");
            let now = runtime.tracker_stats().snapshot();
            assert_eq!(now.rejected - stats.rejected, 2, "{at}");
            let classified = if policy == EnforcementPolicy::Allow {
                0
            } else {
                2
            };
            assert_eq!(now.untracked - stats.untracked, classified, "{at}");
            assert_eq!(now.sound + now.degraded, stats.sound + stats.degraded);
            let rejected = tel
                .flight()
                .snapshot()
                .events
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        EventKind::StmtRewrite {
                            cache_hit: false,
                            verdict: TraceVerdict::Rejected
                        }
                    )
                })
                .count();
            assert_eq!(rejected, 2, "{at}");
            // The connection is still usable, and the tracking state is
            // the proxy's alone: the user write commits with its record.
            conn.execute("INSERT INTO t (id, v) VALUES (3, 30)")
                .unwrap();
            assert_eq!(db.row_count("trans_dep").unwrap(), 2, "{at}");
        }
    }
}

/// The spoofed-stamp attack is refused on every flavor, with the engine's
/// row and log untouched.
#[test]
fn a_spoofed_stamp_is_refused_on_every_flavor() {
    for flavor in [Flavor::Postgres, Flavor::Oracle, Flavor::Sybase] {
        let rdb = ResilientDb::new(flavor).unwrap();
        let mut conn = rdb.connect().unwrap();
        conn.execute("CREATE TABLE account (id INTEGER PRIMARY KEY, balance FLOAT)")
            .unwrap();
        conn.execute("INSERT INTO account (id, balance) VALUES (1, 100.0)")
            .unwrap();
        let wal = rdb.database().wal_records().len();
        let err = conn
            .execute("UPDATE account SET balance = 1000000.0, trid = 1 WHERE id = 1")
            .unwrap_err();
        assert!(
            matches!(&err, WireError::Protocol(m) if m.contains("U-TRID-WRITE")),
            "{flavor:?}: {err}"
        );
        assert_eq!(rdb.database().wal_records().len(), wal, "{flavor:?}");
        let mut s = rdb.database().session();
        let r = s.query("SELECT balance FROM account WHERE id = 1").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Float(100.0)]], "{flavor:?}");
    }
}

/// Reads of the tracking tables are not writes: they pass even under
/// `Reject`, with the rows the tables hold.
#[test]
fn reads_of_the_tracking_tables_pass_under_reject() {
    let (db, mut conn, runtime) = proxy_with(EnforcementPolicy::Reject, false);
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    conn.execute("ANNOTATE writer").unwrap();
    conn.execute("INSERT INTO t (id, v) VALUES (1, 10)")
        .unwrap();
    for table in TRACKING_TABLES {
        for sql in [
            format!("SELECT tr_id FROM {table}"),
            format!("SELECT * FROM {table} WHERE tr_id > 0"),
        ] {
            let resp = conn.execute(&sql).unwrap();
            let rows = resp.rows().unwrap().rows.len() as u64;
            assert_eq!(rows, db.row_count(table).unwrap(), "{sql}");
        }
    }
    assert_eq!(db.row_count("trans_dep").unwrap(), 1);
    assert_eq!(runtime.tracker_stats().snapshot().rejected, 0);
}

/// A join of a user table with a tracking table harvests the user
/// table's trid alone, in either FROM order: the tracking table has no
/// trid, and reading it induces no dependency. The analyzer agrees at
/// both granularities.
#[test]
fn a_join_with_a_tracking_table_is_tracked_through_the_user_table() {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    let mut conn = rdb.connect().unwrap();
    conn.execute("CREATE TABLE account (id INTEGER PRIMARY KEY, balance INTEGER)")
        .unwrap();
    conn.execute("CREATE TABLE note (id INTEGER PRIMARY KEY)")
        .unwrap();
    conn.execute("ANNOTATE writer").unwrap();
    conn.execute("INSERT INTO account (id, balance) VALUES (1, 10)")
        .unwrap();
    let writer = rdb.txn_id_by_label("writer").unwrap().unwrap();
    for (i, from) in ["account a, trans_dep d", "trans_dep d, account a"]
        .into_iter()
        .enumerate()
    {
        let sql = format!(
            "SELECT a.balance, d.dep_tr_ids FROM {from} WHERE a.id = 1 AND d.tr_id = {writer}"
        );
        let label = format!("reader{i}");
        conn.execute(&format!("ANNOTATE {label}")).unwrap();
        conn.execute("BEGIN").unwrap();
        let resp = conn.execute(&sql).unwrap();
        let rows = &resp.rows().unwrap().rows;
        assert_eq!(
            rows,
            &[vec![Value::Int(10), Value::Str(String::new())]],
            "{sql}"
        );
        conn.execute(&format!("INSERT INTO note (id) VALUES ({i})"))
            .unwrap();
        conn.execute("COMMIT").unwrap();
        let reader = rdb.txn_id_by_label(&label).unwrap().unwrap();
        assert_eq!(deps_of(rdb.database(), reader), [writer], "{sql}");

        // A tracking-table binding with no columns read is no fallback.
        let sql = format!(
            "SELECT a.balance FROM {} WHERE a.id = 1",
            from.replace("trans_dep", "annot")
        );
        for granularity in [Granularity::Row, Granularity::Column] {
            let v = Analyzer::new(granularity).classify_sql(&sql);
            assert!(v.is_sound(), "{sql} at {granularity:?}: {v}");
        }
    }
}

/// Reader statement shapes spanning the verdict lattice.
#[derive(Debug, Clone)]
enum ReaderShape {
    /// `SELECT v FROM t WHERE id = k` — sound.
    Point,
    /// `SELECT id, v FROM t` — sound.
    Scan,
    /// `SELECT COUNT(v) FROM t` — untracked (U-AGG).
    Count,
    /// `SELECT MAX(v) FROM t` — untracked (U-AGG).
    Max,
    /// `SELECT DISTINCT v FROM t` — untracked (U-DISTINCT).
    Distinct,
}

impl ReaderShape {
    fn sql(&self, k: i64) -> String {
        match self {
            ReaderShape::Point => format!("SELECT v FROM t WHERE id = {k}"),
            ReaderShape::Scan => "SELECT id, v FROM t".into(),
            ReaderShape::Count => "SELECT COUNT(v) FROM t".into(),
            ReaderShape::Max => "SELECT MAX(v) FROM t".into(),
            ReaderShape::Distinct => "SELECT DISTINCT v FROM t".into(),
        }
    }
}

fn reader_shape() -> impl Strategy<Value = ReaderShape> {
    prop_oneof![
        Just(ReaderShape::Point),
        Just(ReaderShape::Scan),
        Just(ReaderShape::Count),
        Just(ReaderShape::Max),
        Just(ReaderShape::Distinct),
    ]
}

/// The proxy transaction id recorded in `annot` for `label`.
fn txn_id(db: &Database, label: &str) -> i64 {
    let mut s = db.session();
    match s
        .query(&format!("SELECT tr_id FROM annot WHERE descr = '{label}'"))
        .unwrap()
        .rows[0][0]
    {
        Value::Int(v) => v,
        ref other => panic!("{other:?}"),
    }
}

/// Every dependency recorded for `reader` (dep lists may span rows).
fn deps_of(db: &Database, reader: i64) -> Vec<i64> {
    let mut s = db.session();
    s.query(&format!(
        "SELECT dep_tr_ids FROM trans_dep WHERE tr_id = {reader}"
    ))
    .unwrap()
    .rows
    .iter()
    .flat_map(|row| match &row[0] {
        Value::Str(list) => list
            .split_whitespace()
            .map(|t| t.parse::<i64>().unwrap())
            .collect::<Vec<_>>(),
        other => panic!("{other:?}"),
    })
    .collect()
}

/// The TPC-C transaction class of a runner label (`Order_0_3_0_4` →
/// `NewOrder`), or `None` for unlabeled transactions (the loader).
fn class_of(label: &str) -> Option<&'static str> {
    let prefix = label.split('_').next()?;
    TxnKind::ALL
        .iter()
        .find(|k| k.label_prefix() == prefix)
        .map(|k| k.class_name())
}

/// Per-table dynamic write footprint harvested from the repair log.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct DynFootprint {
    inserts: bool,
    deletes: bool,
    updated: BTreeSet<String>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Static-vs-dynamic write-set agreement on the TPC-C corpus: the
    /// blast-radius analyzer's per-class write footprints must bound what
    /// a real tracked run of the *same deterministic workload* stamped in
    /// the engine log (static ⊇ dynamic for every class, every seed), and
    /// be *exact* for classes whose every statement the analyzer calls
    /// sound — over-approximation there would mean false conflict edges.
    #[test]
    fn static_write_sets_bound_dynamic_footprints(seed in 1u64..1000) {
        // Static side: profiles of the deterministic run for `seed`.
        let groups = record_profiled_corpus(1, seed);
        let profiles = profiles_from_groups(&groups);
        let by_class: BTreeMap<&str, &TxnProfile> =
            profiles.iter().map(|p| (p.name.as_str(), p)).collect();

        // Dynamic side: the same run, behind the tracking proxy.
        let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
        let cfg = TpccConfig::tiny();
        let mut conn = rdb.connect().unwrap();
        Loader::new(cfg.clone(), seed).load(&mut *conn).unwrap();
        let mut runner = TpccRunner::new(cfg, seed);
        for kind in TxnKind::ALL {
            runner.run(&mut *conn, kind).unwrap();
        }
        drop(conn);
        let analysis = rdb.analyze().unwrap();

        // Harvest per-class footprints from the log, skipping the proxy's
        // own bookkeeping tables and hidden tracking columns.
        let mut dynamic: BTreeMap<&str, BTreeMap<String, DynFootprint>> = BTreeMap::new();
        for rec in &analysis.records {
            if rec.table.is_empty()
                || resildb_proxy::TRACKING_TABLES.contains(&&*rec.table)
            {
                continue;
            }
            let Some(&trid) = analysis.correlation.proxy_of.get(&rec.internal_txn) else {
                continue;
            };
            let label = analysis.graph.label(trid);
            let Some(class) = class_of(&label) else {
                continue; // loader transaction
            };
            let fp = dynamic
                .entry(class)
                .or_default()
                .entry(rec.table.to_string())
                .or_default();
            match &rec.op {
                RepairOp::Insert { .. } => fp.inserts = true,
                RepairOp::Delete { .. } => fp.deletes = true,
                RepairOp::Update { .. } => fp.updated.extend(
                    rec.changed_columns()
                        .into_iter()
                        .filter(|c| !is_tracking_column(c)),
                ),
                _ => {}
            }
        }

        // Soundness: every dynamic write lies inside the static profile.
        for (class, tables) in &dynamic {
            let profile = by_class[class];
            for (table, fp) in tables {
                let stat = profile.writes.get(table).unwrap_or_else(|| {
                    panic!("{class} dynamically wrote {table}, statically never")
                });
                prop_assert!(!fp.inserts || stat.inserts, "{class}/{table}: insert escaped");
                prop_assert!(!fp.deletes || stat.deletes, "{class}/{table}: delete escaped");
                for col in &fp.updated {
                    prop_assert!(
                        stat.updated.as_ref().is_some_and(|u| u.contains(col)),
                        "{class} dynamically updated {table}.{col}, statically never"
                    );
                }
            }
        }

        // Exactness on all-sound classes: the statically claimed write
        // footprint was fully exercised — table set, insert/delete flags
        // and updated-column sets all match the log.
        let analyzer = Analyzer::new(Granularity::Row);
        for kind in TxnKind::ALL {
            let class = kind.class_name();
            let all_sound = groups
                .iter()
                .filter(|(name, _)| name == class)
                .flat_map(|(_, stmts)| stmts)
                .all(|sql| analyzer.classify_sql(sql).is_sound());
            if !all_sound {
                continue;
            }
            let profile = by_class[class];
            let empty = BTreeMap::new();
            let dyn_tables = dynamic.get(class).unwrap_or(&empty);
            prop_assert_eq!(
                profile.writes.keys().collect::<Vec<_>>(),
                dyn_tables.keys().collect::<Vec<_>>(),
                "{} writes different table sets statically vs dynamically",
                class
            );
            for (table, stat) in &profile.writes {
                let fp = &dyn_tables[table];
                prop_assert_eq!(
                    (stat.inserts, stat.deletes),
                    (fp.inserts, fp.deletes),
                    "{}/{} insert/delete shape mismatch",
                    class,
                    table
                );
                if let Some(cols) = stat.updated.as_ref().and_then(|u| u.columns()) {
                    prop_assert_eq!(
                        cols,
                        &fp.updated,
                        "{}/{} updated-column mismatch",
                        class,
                        table
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Differential check of the static verdict against the dynamic
    /// tracker: a statement the analyzer calls *sound* must yield the
    /// writer in the reader's recorded dependency set, and a statement it
    /// calls *untracked* must demonstrably lose that dependency.
    #[test]
    fn static_verdict_predicts_dynamic_dependency_capture(
        k in 1i64..50,
        shape in reader_shape(),
    ) {
        let (db, mut conn, _runtime) = proxy_with(EnforcementPolicy::Allow, true);
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)").unwrap();

        conn.execute("ANNOTATE writer").unwrap();
        conn.execute(&format!("INSERT INTO t (id, v) VALUES ({k}, {k})")).unwrap();

        let sql = shape.sql(k);
        conn.execute("ANNOTATE reader").unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute(&sql).unwrap();
        conn.execute("COMMIT").unwrap();

        let writer = txn_id(&db, "writer");
        let reader = txn_id(&db, "reader");
        let deps = deps_of(&db, reader);

        let verdict = Analyzer::new(Granularity::Row).classify_sql(&sql);
        if verdict.is_sound() {
            prop_assert!(
                deps.contains(&writer),
                "sound {sql:?} must capture writer {writer} in {deps:?}"
            );
        } else {
            prop_assert!(verdict.is_untracked(), "{sql:?} → {verdict}");
            prop_assert!(
                !deps.contains(&writer),
                "untracked {sql:?} should demonstrably miss writer {writer}, got {deps:?}"
            );
        }
    }
}
