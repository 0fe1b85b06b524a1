//! End-to-end repair scenarios: attack, analyze, selectively undo, verify.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod sql_oracle;

use std::collections::BTreeSet;

use resildb_engine::{Database, EngineError, Flavor, LogOp, Value};
use resildb_proxy::{prepare_database, ProxyConfig, TrackingProxy};
use resildb_repair::adapters::adapter_for;
use resildb_repair::{FalseDepRule, NamedRow, RepairController, RepairOp, RepairPlan};
use resildb_wire::{Connection, Driver, LinkProfile, NativeDriver};

struct Fixture {
    db: Database,
    conn: Box<dyn Connection>,
}

fn fixture(flavor: Flavor) -> Fixture {
    let db = Database::in_memory(flavor);
    let native = NativeDriver::new(db.clone(), LinkProfile::local());
    prepare_database(&mut *native.connect().unwrap()).unwrap();
    // Track read-only transactions too: several scenarios below assert on
    // the undo-set membership of pure readers (paper-literal behaviour).
    let config = ProxyConfig::builder(flavor)
        .record_read_only_deps(true)
        .build();
    let driver = TrackingProxy::single_proxy(db.clone(), LinkProfile::local(), config);
    let conn = driver.connect().unwrap();
    Fixture { db, conn }
}

impl Fixture {
    fn exec(&mut self, sql: &str) {
        self.conn
            .execute(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }

    /// Runs one annotated transaction consisting of `stmts`.
    fn txn(&mut self, name: &str, stmts: &[&str]) {
        self.exec(&format!("ANNOTATE {name}"));
        self.exec("BEGIN");
        for s in stmts {
            self.exec(s);
        }
        self.exec("COMMIT");
    }

    /// Proxy txn id by annotation name.
    fn txn_id(&self, name: &str) -> i64 {
        let mut s = self.db.session();
        let r = s
            .query(&format!("SELECT tr_id FROM annot WHERE descr = '{name}'"))
            .unwrap();
        match r.rows.first().map(|row| &row[0]) {
            Some(Value::Int(v)) => *v,
            other => panic!("txn {name} not found: {other:?}"),
        }
    }

    fn balance(&self, id: i64) -> Value {
        let mut s = self.db.session();
        let r = s
            .query(&format!("SELECT bal FROM acct WHERE id = {id}"))
            .unwrap();
        r.rows
            .first()
            .map(|row| row[0].clone())
            .unwrap_or(Value::Null)
    }
}

/// The canonical scenario, run on every flavor: a malicious update plus
/// dependent and independent activity, then selective undo.
fn selective_undo_scenario(flavor: Flavor) {
    let mut fx = fixture(flavor);
    fx.exec("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT)");
    fx.txn(
        "load",
        &["INSERT INTO acct (id, bal) VALUES (1, 100.0), (2, 50.0), (3, 75.0)"],
    );
    // The attack: inflate account 1.
    fx.txn("attack", &["UPDATE acct SET bal = 1000000.0 WHERE id = 1"]);
    // A dependent transaction: reads account 1, moves money to account 2.
    fx.txn(
        "dependent",
        &[
            "SELECT bal FROM acct WHERE id = 1",
            "UPDATE acct SET bal = bal + 10.0 WHERE id = 2",
        ],
    );
    // An independent transaction touching only account 3.
    fx.txn(
        "independent",
        &["UPDATE acct SET bal = bal - 5.0 WHERE id = 3"],
    );

    let attack = fx.txn_id("attack");
    let dependent = fx.txn_id("dependent");
    let independent = fx.txn_id("independent");

    let tool = RepairController::new(fx.db.clone());
    let analysis = tool.analyze().unwrap();
    let undo = analysis.undo_set(&[attack], &[]);
    assert!(undo.contains(&attack));
    assert!(
        undo.contains(&dependent),
        "reader of poisoned row is corrupted"
    );
    assert!(!undo.contains(&independent), "unrelated txn must be spared");

    let report = tool
        .execute(&analysis, &RepairPlan::with_undo_set(&[], undo.clone()))
        .unwrap();
    assert_eq!(report.undo_set, undo);

    // Attack effect gone, dependent effect gone, independent kept.
    assert_eq!(
        fx.balance(1),
        Value::Float(100.0),
        "{flavor}: attack undone"
    );
    assert_eq!(
        fx.balance(2),
        Value::Float(50.0),
        "{flavor}: dependent undone"
    );
    assert_eq!(
        fx.balance(3),
        Value::Float(70.0),
        "{flavor}: independent preserved"
    );
}

#[test]
fn selective_undo_on_postgres_flavor() {
    selective_undo_scenario(Flavor::Postgres);
}

#[test]
fn selective_undo_on_oracle_flavor() {
    selective_undo_scenario(Flavor::Oracle);
}

#[test]
fn selective_undo_on_sybase_flavor() {
    selective_undo_scenario(Flavor::Sybase);
}

/// Floats beyond the integer range restore exactly, and no infinity is ever
/// stored: compensating SQL (and the Oracle adapter's LogMiner SQL) writes
/// a large float with an exponent, so it re-parses as the float it was.
#[test]
fn large_floats_repair_and_overflow_is_refused_on_all_flavors() {
    for flavor in Flavor::ALL {
        let mut fx = fixture(flavor);
        fx.exec("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT)");
        fx.txn(
            "load",
            &["INSERT INTO acct (id, bal) VALUES (1, 1e20), (2, 1e308), (3, -2.5e18)"],
        );
        let err = fx
            .conn
            .execute("UPDATE acct SET bal = bal * 10.0 WHERE id = 2")
            .unwrap_err();
        assert!(
            err.to_string().contains("value out of range: overflow"),
            "{flavor}: {err}"
        );
        assert_eq!(
            fx.balance(2),
            Value::Float(1e308),
            "{flavor}: row unchanged"
        );
        fx.txn(
            "attack",
            &["UPDATE acct SET bal = 5.0 WHERE id = 1 OR id = 3"],
        );
        let attack = fx.txn_id("attack");
        let report = RepairController::new(fx.db.clone())
            .repair(&[attack])
            .unwrap_or_else(|e| panic!("{flavor}: {e}"));
        assert!(report.undo_set.contains(&attack), "{flavor}");
        assert_eq!(fx.balance(1), Value::Float(1e20), "{flavor}: restored");
        assert_eq!(fx.balance(3), Value::Float(-2.5e18), "{flavor}: restored");
    }
}

/// Inserted-then-updated-then-deleted rows exercise the row-id remapping.
fn insert_update_delete_chain(flavor: Flavor) {
    let mut fx = fixture(flavor);
    fx.exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(8))");
    fx.txn("legit", &["INSERT INTO t (id, v) VALUES (1, 'keep')"]);
    // Attack inserts a row...
    fx.txn("attack", &["INSERT INTO t (id, v) VALUES (2, 'evil')"]);
    // ...a dependent txn reads it and modifies it...
    fx.txn(
        "dep1",
        &[
            "SELECT v FROM t WHERE id = 2",
            "UPDATE t SET v = 'evil2' WHERE id = 2",
        ],
    );
    // ...another dependent deletes the legit row after reading the bad one.
    fx.txn(
        "dep2",
        &["SELECT v FROM t WHERE id = 2", "DELETE FROM t WHERE id = 1"],
    );

    let attack = fx.txn_id("attack");
    let tool = RepairController::new(fx.db.clone());
    let report = tool.repair(&[attack]).unwrap();
    assert_eq!(report.undo_set.len(), 3, "{flavor}: attack + 2 dependents");

    // Evil row gone; legit row restored (via compensating INSERT).
    let mut s = fx.db.session();
    let r = s.query("SELECT id, v FROM t ORDER BY id").unwrap();
    assert_eq!(r.rows.len(), 1, "{flavor}");
    assert_eq!(r.rows[0][0], Value::Int(1));
    assert_eq!(r.rows[0][1], Value::from("keep"));
}

#[test]
fn insert_update_delete_chain_on_postgres() {
    insert_update_delete_chain(Flavor::Postgres);
}

#[test]
fn insert_update_delete_chain_on_oracle() {
    insert_update_delete_chain(Flavor::Oracle);
}

#[test]
fn insert_update_delete_chain_on_sybase() {
    insert_update_delete_chain(Flavor::Sybase);
}

/// The Sybase §4.3 path specifically: a MODIFY record whose page offset is
/// invalidated by later deletes in the same page must still be resolved to
/// the right identity value.
#[test]
fn sybase_modify_offset_adjustment_with_later_deletes() {
    let mut fx = fixture(Flavor::Sybase);
    fx.exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
    // Several rows on one page.
    fx.txn(
        "load",
        &["INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30), (4, 40)"],
    );
    // Attack updates row 3 (MODIFY logged at its then-offset)...
    fx.txn("attack", &["UPDATE t SET v = 999 WHERE id = 3"]);
    // ...then an unrelated txn deletes rows 1 and 2, shifting row 3 left.
    fx.txn(
        "cleanup",
        &["DELETE FROM t WHERE id = 1", "DELETE FROM t WHERE id = 2"],
    );

    let attack = fx.txn_id("attack");
    let cleanup = fx.txn_id("cleanup");
    let tool = RepairController::new(fx.db.clone());
    let analysis = tool.analyze().unwrap();
    let undo = analysis.undo_set(&[attack], &[]);
    assert!(!undo.contains(&cleanup), "cleanup touched other rows only");
    tool.execute(&analysis, &RepairPlan::with_undo_set(&[], undo.clone()))
        .unwrap();

    let mut s = fx.db.session();
    let r = s.query("SELECT v FROM t WHERE id = 3").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(30), "attack on row 3 undone");
    assert!(s
        .query("SELECT v FROM t WHERE id = 1")
        .unwrap()
        .rows
        .is_empty());
}

/// The MODIFY row itself deleted later: its identity comes from the
/// DELETE record's full image (paper §4.3 step 2, second case).
#[test]
fn sybase_modify_of_row_deleted_later() {
    let mut fx = fixture(Flavor::Sybase);
    fx.exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
    fx.txn("load", &["INSERT INTO t (id, v) VALUES (1, 10), (2, 20)"]);
    fx.txn("attack", &["UPDATE t SET v = 666 WHERE id = 2"]);
    // Dependent deletes the very row the attack modified.
    fx.txn(
        "dep",
        &["SELECT v FROM t WHERE id = 2", "DELETE FROM t WHERE id = 2"],
    );
    let attack = fx.txn_id("attack");
    let tool = RepairController::new(fx.db.clone());
    let report = tool.repair(&[attack]).unwrap();
    assert_eq!(report.undo_set.len(), 2);
    let mut s = fx.db.session();
    let r = s.query("SELECT v FROM t WHERE id = 2").unwrap();
    assert_eq!(
        r.rows[0][0],
        Value::Int(20),
        "row restored to pre-attack value"
    );
}

#[test]
fn false_dependency_rule_shrinks_undo_set() {
    let mut fx = fixture(Flavor::Postgres);
    fx.exec("CREATE TABLE warehouse (w_id INTEGER PRIMARY KEY, w_tax FLOAT, w_ytd FLOAT)");
    fx.txn(
        "load",
        &["INSERT INTO warehouse (w_id, w_tax, w_ytd) VALUES (1, 0.05, 0.0)"],
    );
    // Attack bumps only the derivable w_ytd column.
    fx.txn(
        "attack",
        &["UPDATE warehouse SET w_ytd = w_ytd + 5000.0 WHERE w_id = 1"],
    );
    // A New-Order-like txn reads only w_tax from the same row.
    fx.txn("neworder", &["SELECT w_tax FROM warehouse WHERE w_id = 1"]);
    // An audit txn genuinely reads w_ytd.
    fx.txn("audit", &["SELECT w_ytd FROM warehouse WHERE w_id = 1"]);

    let attack = fx.txn_id("attack");
    let neworder = fx.txn_id("neworder");
    let audit = fx.txn_id("audit");

    let tool = RepairController::new(fx.db.clone());
    let analysis = tool.analyze().unwrap();

    let all = analysis.undo_set(&[attack], &[]);
    assert!(all.contains(&neworder) && all.contains(&audit));

    let rules = vec![FalseDepRule::IgnoreDerivedColumns {
        table: "warehouse".into(),
        columns: vec!["w_ytd".into()],
    }];
    let filtered = analysis.undo_set(&[attack], &rules);
    assert!(
        !filtered.contains(&neworder),
        "w_tax reader is a false dependent"
    );
    assert!(
        filtered.contains(&audit),
        "w_ytd reader is a true dependent"
    );
}

/// A read-column list too wide for `trans_dep_prov.read_cols` must be
/// recorded as unknown, not cut short: a truncated list that lost the
/// derived column would let the rule prune a true dependency.
#[test]
fn overflowing_read_column_list_keeps_the_dependency() {
    let mut fx = fixture(Flavor::Postgres);
    let wide: Vec<String> = (0..8)
        .map(|i| format!("attribute_number_{i}_of_the_wide_table"))
        .collect();
    let names = format!("{}, derived_total", wide.join(", "));
    assert!(names.len() > 200);
    fx.exec(&format!(
        "CREATE TABLE wide (id INTEGER PRIMARY KEY, {} FLOAT, derived_total FLOAT)",
        wide.join(" FLOAT, ")
    ));
    fx.txn(
        "load",
        &[&format!(
            "INSERT INTO wide (id, {names}) VALUES (1{})",
            ", 0.0".repeat(wide.len() + 1)
        )],
    );
    fx.txn(
        "attack",
        &["UPDATE wide SET derived_total = derived_total + 5000.0 WHERE id = 1"],
    );
    // Names every column; the derived one sits past the 200th character.
    fx.txn(
        "reader",
        &[&format!("SELECT {names} FROM wide WHERE id = 1")],
    );

    let analysis = RepairController::new(fx.db.clone()).analyze().unwrap();
    let rules = vec![FalseDepRule::IgnoreDerivedColumns {
        table: "wide".into(),
        columns: vec!["derived_total".into()],
    }];
    let undo = analysis.undo_set(&[fx.txn_id("attack")], &rules);
    assert!(
        undo.contains(&fx.txn_id("reader")),
        "the reader consumed derived_total: a true dependent"
    );
}

/// A writer changes the derived `wa.x` and the ordinary `wb.y`; a reader
/// reads `wa.z` and `wb.w` of those rows, in the order given. The rule on
/// `wa.x` must not prune the edge: the reader also read the writer through
/// `wb`, and provenance must cover every sighting, not only the first.
fn derived_writer_read_through_two_tables(wa_first: bool) {
    let mut fx = fixture(Flavor::Postgres);
    fx.exec("CREATE TABLE wa (id INTEGER PRIMARY KEY, x FLOAT, z FLOAT)");
    fx.exec("CREATE TABLE wb (id INTEGER PRIMARY KEY, y FLOAT, w FLOAT)");
    fx.txn(
        "load",
        &[
            "INSERT INTO wa (id, x, z) VALUES (1, 0.0, 0.0)",
            "INSERT INTO wb (id, y, w) VALUES (1, 0.0, 0.0)",
        ],
    );
    fx.txn(
        "attack",
        &[
            "UPDATE wa SET x = x + 5000.0 WHERE id = 1",
            "UPDATE wb SET y = 7.0 WHERE id = 1",
        ],
    );
    let (read_a, read_b) = (
        "SELECT z FROM wa WHERE id = 1",
        "SELECT w FROM wb WHERE id = 1",
    );
    let reads = if wa_first {
        [read_a, read_b]
    } else {
        [read_b, read_a]
    };
    fx.txn("reader", &reads);

    let analysis = RepairController::new(fx.db.clone()).analyze().unwrap();
    let rules = vec![FalseDepRule::IgnoreDerivedColumns {
        table: "wa".into(),
        columns: vec!["x".into()],
    }];
    let undo = analysis.undo_set(&[fx.txn_id("attack")], &rules);
    assert!(
        undo.contains(&fx.txn_id("reader")),
        "the reader read the writer's wb.y row (wa first: {wa_first})"
    );
}

#[test]
fn derived_rule_keeps_a_second_table_read_after_the_derived_one() {
    derived_writer_read_through_two_tables(true);
}

#[test]
fn derived_rule_keeps_a_second_table_read_before_the_derived_one() {
    derived_writer_read_through_two_tables(false);
}

/// Two reads of one row, of different columns, in one transaction: the
/// provenance is their union, so reading the derived column second still
/// makes the reader a true dependent.
#[test]
fn derived_rule_sees_every_column_a_reader_read() {
    let mut fx = fixture(Flavor::Postgres);
    fx.exec("CREATE TABLE warehouse (w_id INTEGER PRIMARY KEY, w_tax FLOAT, w_ytd FLOAT)");
    fx.txn(
        "load",
        &["INSERT INTO warehouse (w_id, w_tax, w_ytd) VALUES (1, 0.05, 0.0)"],
    );
    fx.txn(
        "attack",
        &["UPDATE warehouse SET w_ytd = w_ytd + 5000.0 WHERE w_id = 1"],
    );
    fx.txn(
        "reader",
        &[
            "SELECT w_tax FROM warehouse WHERE w_id = 1",
            "SELECT w_ytd FROM warehouse WHERE w_id = 1",
        ],
    );
    let analysis = RepairController::new(fx.db.clone()).analyze().unwrap();
    let rules = vec![FalseDepRule::IgnoreDerivedColumns {
        table: "warehouse".into(),
        columns: vec!["w_ytd".into()],
    }];
    let undo = analysis.undo_set(&[fx.txn_id("attack")], &rules);
    assert!(
        undo.contains(&fx.txn_id("reader")),
        "the reader's second statement read w_ytd"
    );
}

#[test]
fn repair_removes_tracking_rows_of_undone_transactions() {
    let mut fx = fixture(Flavor::Postgres);
    fx.exec("CREATE TABLE t (a INTEGER)");
    fx.txn("keep", &["INSERT INTO t (a) VALUES (1)"]);
    fx.txn("attack", &["INSERT INTO t (a) VALUES (666)"]);
    let attack = fx.txn_id("attack");
    let before = fx.db.row_count("trans_dep").unwrap();
    RepairController::new(fx.db.clone())
        .repair(&[attack])
        .unwrap();
    let after = fx.db.row_count("trans_dep").unwrap();
    assert_eq!(after, before - 1, "undone txn's trans_dep row removed");
    let mut s = fx.db.session();
    let r = s.query("SELECT a FROM t").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
}

/// Analysis reads the tracking tables from the log: once a repair's
/// committed compensation has deleted the undone transactions' tracking
/// rows, a fresh analysis no longer holds their read edges or labels, and
/// still equals the graph the SQL view of the tracking tables gives.
fn reanalysis_after_repair_retracts_undone_tracking_rows(flavor: Flavor) {
    let mut fx = fixture(flavor);
    fx.exec("CREATE TABLE t (a INTEGER)");
    fx.exec("CREATE TABLE r (a INTEGER)");
    fx.txn("keep", &["INSERT INTO t (a) VALUES (1)"]);
    fx.txn("attack", &["INSERT INTO t (a) VALUES (666)"]);
    fx.txn(
        "reader",
        &[
            "SELECT a FROM t WHERE a = 666",
            "INSERT INTO r (a) VALUES (7)",
        ],
    );
    let (keep, attack, reader) = (fx.txn_id("keep"), fx.txn_id("attack"), fx.txn_id("reader"));
    let tool = RepairController::new(fx.db.clone());
    let analysis = tool.analyze().unwrap();
    assert_eq!(analysis.graph.dependencies_of(reader), [attack].into());
    assert_eq!(analysis.graph.label(attack), "attack", "{flavor}");
    let plan = tool.plan(&analysis, &[attack]);
    assert_eq!(plan.undo_set, [attack, reader].into(), "{flavor}");
    tool.execute(&analysis, &plan).unwrap();

    let again = tool.analyze().unwrap();
    assert!(again.graph.dependencies_of(reader).is_empty(), "{flavor}");
    assert_eq!(
        again.graph.label(attack),
        format!("txn_{attack}"),
        "{flavor}"
    );
    assert_eq!(
        again.graph.label(reader),
        format!("txn_{reader}"),
        "{flavor}"
    );
    assert_eq!(again.graph.label(keep), "keep", "{flavor}");
    assert!(
        again.graph == sql_oracle::sql_graph_of(&fx.db, &again),
        "{flavor}: the fold differs from the SQL join"
    );
}

#[test]
fn reanalysis_after_repair_retracts_undone_tracking_rows_on_all_flavors() {
    for flavor in [Flavor::Postgres, Flavor::Oracle, Flavor::Sybase] {
        reanalysis_after_repair_retracts_undone_tracking_rows(flavor);
    }
}

#[test]
fn dot_export_labels_nodes_like_figure_3() {
    let mut fx = fixture(Flavor::Postgres);
    fx.exec("CREATE TABLE t (a INTEGER)");
    fx.txn("Order_0_3_0_4", &["INSERT INTO t (a) VALUES (1)"]);
    fx.txn(
        "Payment_0_3_0_5",
        &["SELECT a FROM t", "UPDATE t SET a = 2"],
    );
    let tool = RepairController::new(fx.db.clone());
    let analysis = tool.analyze().unwrap();
    let order = fx.txn_id("Order_0_3_0_4");
    let highlight: BTreeSet<i64> = [order].into_iter().collect();
    let dot = analysis.to_dot(&highlight);
    assert!(dot.contains("Order_0_3_0_4"));
    assert!(dot.contains("Payment_0_3_0_5"));
    assert!(dot.contains("->"), "at least one dependency edge: {dot}");
    assert!(dot.contains("fillcolor"), "attack node highlighted");
}

#[test]
fn log_reconstructed_update_dependency_without_select() {
    // T2 never SELECTs, it blind-updates the row T1 wrote: the dependency
    // exists only in the log (pre-image trid) — the paper's optimisation.
    let mut fx = fixture(Flavor::Postgres);
    fx.exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
    fx.txn("t1", &["INSERT INTO t (id, v) VALUES (1, 10)"]);
    fx.txn("t2", &["UPDATE t SET v = v + 1 WHERE id = 1"]);
    let t1 = fx.txn_id("t1");
    let t2 = fx.txn_id("t2");
    let analysis = RepairController::new(fx.db.clone()).analyze().unwrap();
    // trans_dep knows nothing...
    let mut s = fx.db.session();
    let r = s
        .query(&format!(
            "SELECT dep_tr_ids FROM trans_dep WHERE tr_id = {t2}"
        ))
        .unwrap();
    assert_eq!(r.rows[0][0], Value::from(""));
    // ...but the graph has the reconstructed edge.
    assert!(analysis.graph.dependencies_of(t2).contains(&t1));
    let undo = analysis.undo_set(&[t1], &[]);
    assert!(undo.contains(&t2));
}

#[test]
fn repairing_full_history_restores_empty_tables() {
    let mut fx = fixture(Flavor::Oracle);
    fx.exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
    fx.txn("a", &["INSERT INTO t (id, v) VALUES (1, 1)"]);
    fx.txn(
        "b",
        &[
            "UPDATE t SET v = 2 WHERE id = 1",
            "INSERT INTO t (id, v) VALUES (2, 2)",
        ],
    );
    fx.txn("c", &["DELETE FROM t WHERE id = 2"]);
    let a = fx.txn_id("a");
    let report = RepairController::new(fx.db.clone()).repair(&[a]).unwrap();
    assert_eq!(report.undo_set.len(), 3, "everything depends on the loader");
    assert_eq!(fx.db.row_count("t").unwrap(), 0);
    assert_eq!(report.saved, 0);
    assert_eq!(report.saved_percentage(), 0.0);
}

#[test]
fn what_if_analysis_with_ignore_table() {
    let mut fx = fixture(Flavor::Postgres);
    fx.exec("CREATE TABLE data (id INTEGER PRIMARY KEY, v INTEGER)");
    fx.exec("CREATE TABLE scratch (id INTEGER PRIMARY KEY, v INTEGER)");
    fx.txn(
        "attack",
        &[
            "INSERT INTO scratch (id, v) VALUES (1, 0)",
            "INSERT INTO data (id, v) VALUES (1, 0)",
        ],
    );
    fx.txn("via_scratch", &["SELECT v FROM scratch WHERE id = 1"]);
    fx.txn("via_data", &["SELECT v FROM data WHERE id = 1"]);
    let attack = fx.txn_id("attack");
    let via_scratch = fx.txn_id("via_scratch");
    let via_data = fx.txn_id("via_data");
    let analysis = RepairController::new(fx.db.clone()).analyze().unwrap();
    let rules = vec![FalseDepRule::IgnoreTable("scratch".into())];
    let undo = analysis.undo_set(&[attack], &rules);
    assert!(!undo.contains(&via_scratch));
    assert!(undo.contains(&via_data));
}

/// A read through a table named wider than the provenance column is
/// recorded against the unknown table, which no rule prunes: neither the
/// full name nor its 32-character prefix drops the edge.
#[test]
fn ignore_table_keeps_a_read_through_a_long_named_table() {
    let mut fx = fixture(Flavor::Postgres);
    let long = "a_table_name_of_exactly_forty_characters";
    fx.exec(&format!(
        "CREATE TABLE {long} (id INTEGER PRIMARY KEY, v INTEGER)"
    ));
    fx.exec("CREATE TABLE other (id INTEGER PRIMARY KEY, v INTEGER)");
    fx.txn(
        "writer",
        &[&format!("INSERT INTO {long} (id, v) VALUES (1, 10)")],
    );
    fx.txn(
        "reader",
        &[
            &format!("SELECT v FROM {long} WHERE id = 1"),
            "INSERT INTO other (id, v) VALUES (1, 10)",
        ],
    );
    let writer = fx.txn_id("writer");
    let reader = fx.txn_id("reader");
    let analysis = RepairController::new(fx.db.clone()).analyze().unwrap();
    for name in [long, &long[..32]] {
        let rules = vec![FalseDepRule::IgnoreTable(name.into())];
        assert!(
            analysis.undo_set(&[writer], &rules).contains(&reader),
            "IgnoreTable({name}) pruned a real read dependency"
        );
    }
}

/// Analysis alone (what-if sessions, `fig3`, `ResilientDb::analyze`) is
/// not an incident; the repair that follows gets its own `detected`
/// stamp and absorbs the attack noted before it.
#[test]
fn analysis_only_leaves_no_incident_behind() {
    use resildb_sim::IncidentPhase as P;
    let mut fx = fixture(Flavor::Postgres);
    fx.exec("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT)");
    fx.txn("load", &["INSERT INTO acct (id, bal) VALUES (1, 100.0)"]);
    fx.txn("attack", &["UPDATE acct SET bal = 1000000.0 WHERE id = 1"]);
    let controller = RepairController::new(fx.db.clone());
    let timeline = fx.db.sim().telemetry().timeline();

    controller.analyze().unwrap();
    assert!(
        timeline.snapshot().is_empty(),
        "analysis opened an incident"
    );
    assert_eq!(timeline.current(), None);

    timeline.note_attack();
    controller.repair(&[fx.txn_id("attack")]).unwrap();
    let incidents = timeline.snapshot();
    assert_eq!(incidents.len(), 1);
    let incident = &incidents[0];
    assert!(!incident.open);
    let phases: Vec<P> = incident.marks.iter().map(|m| m.phase).collect();
    assert_eq!(phases, [P::AttackCommitted, P::Detected, P::SweepComplete]);
    let p = incident.progress;
    assert_eq!((p.closure, p.total, p.compensated), (1, 1, 1));
}

/// A table dropped and re-created under the same name with its columns in
/// another order: every image must be named with the columns its table had
/// when the record was logged, not with the live table's.
fn images_are_named_with_the_schema_of_their_lsn(flavor: Flavor) {
    let mut fx = fixture(flavor);
    fx.exec("CREATE TABLE t (a INTEGER, b INTEGER)");
    fx.txn("first", &["INSERT INTO t (a, b) VALUES (1, 2)"]);
    fx.exec("DROP TABLE t");
    fx.exec("CREATE TABLE t (b INTEGER, a INTEGER, c INTEGER)");
    fx.txn("second", &["INSERT INTO t (b, a, c) VALUES (3, 4, 5)"]);

    let records = adapter_for(flavor).scan(&fx.db).unwrap();
    let inserts: Vec<&NamedRow> = records
        .iter()
        .filter(|r| &*r.table == "t")
        .filter_map(|r| match &r.op {
            RepairOp::Insert { row, .. } => Some(row),
            _ => None,
        })
        .collect();
    assert_eq!(inserts.len(), 2, "{flavor}");
    let (first, second) = (inserts[0], inserts[1]);
    assert_eq!(first.columns()[..2], ["a", "b"], "{flavor}");
    assert_eq!(first.get("a"), Some(&Value::Int(1)), "{flavor}");
    assert_eq!(first.get("b"), Some(&Value::Int(2)), "{flavor}");
    assert_eq!(first.get("c"), None, "{flavor}");
    assert_eq!(second.columns()[..3], ["b", "a", "c"], "{flavor}");
    assert_eq!(second.get("a"), Some(&Value::Int(4)), "{flavor}");
    assert_eq!(second.get("c"), Some(&Value::Int(5)), "{flavor}");
}

#[test]
fn images_are_named_with_the_schema_of_their_lsn_on_postgres() {
    images_are_named_with_the_schema_of_their_lsn(Flavor::Postgres);
}

#[test]
fn images_are_named_with_the_schema_of_their_lsn_on_oracle() {
    images_are_named_with_the_schema_of_their_lsn(Flavor::Oracle);
}

#[test]
fn images_are_named_with_the_schema_of_their_lsn_on_sybase() {
    images_are_named_with_the_schema_of_their_lsn(Flavor::Sybase);
}

/// A Sybase MODIFY whose table has since been dropped cannot be resolved
/// through `dbcc page` (the page now belongs to another incarnation): the
/// scan names the table and LSN instead of reading the wrong row.
#[test]
fn sybase_modify_of_a_dropped_table_is_a_named_error() {
    let mut fx = fixture(Flavor::Sybase);
    fx.exec("CREATE TABLE t (a INTEGER, b INTEGER)");
    fx.txn("load", &["INSERT INTO t (a, b) VALUES (1, 2)"]);
    fx.txn("modify", &["UPDATE t SET b = 3 WHERE a = 1"]);
    fx.exec("DROP TABLE t");
    fx.exec("CREATE TABLE t (a INTEGER, b INTEGER)");
    fx.txn("reload", &["INSERT INTO t (a, b) VALUES (1, 2)"]);

    let modify_lsn = fx
        .db
        .wal_records()
        .iter()
        .find(|r| matches!(&r.op, LogOp::Update { table, .. } if table == "t"))
        .map(|r| r.lsn.0)
        .unwrap();
    match adapter_for(Flavor::Sybase).scan(&fx.db) {
        Err(EngineError::UnknownTable(msg)) => {
            assert!(msg.starts_with("t "), "{msg}");
            assert!(msg.contains(&format!("lsn {modify_lsn}")), "{msg}");
        }
        other => panic!("expected a named unknown-table error, got {other:?}"),
    }
}
