//! Integration tests of the facade's client surface: one generic workload
//! over the engine session and every [`Connection`] [`ResilientDb`] hands
//! out, prepared statements where each surface supports them, and the
//! single [`ResilientDb::metrics`] snapshot covering proxy, engine,
//! simulation and repair layers.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_core::{
    telemetry::{export, to_prometheus},
    Connection, EngineError, Flavor, Literal, ResilientDb, Response, Value, WireError,
};

/// A small workload written once over an `execute` function: runs
/// identically over an embedded engine session, an untracked native
/// connection, and a tracked proxy connection.
fn generic_workload<E>(
    mut execute: impl FnMut(&str) -> Result<Response, E>,
    table: &str,
) -> Result<usize, E> {
    execute(&format!("CREATE TABLE {table} (a INTEGER, b TEXT)"))?;
    execute(&format!(
        "INSERT INTO {table} (a, b) VALUES (1, 'x'), (2, 'y')"
    ))?;
    for i in 0..4 {
        execute(&format!("UPDATE {table} SET b = 'z' WHERE a = {}", i % 2))?;
    }
    let resp = execute(&format!("SELECT a, b FROM {table} ORDER BY a"))?;
    Ok(resp.rows().unwrap().rows.len())
}

/// The workload over any connection the facade hands out.
fn connection_workload(conn: &mut dyn Connection, table: &str) -> Result<usize, WireError> {
    generic_workload(|sql| conn.execute(sql), table)
}

#[test]
fn generic_workload_runs_over_every_session_kind() {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();

    let mut engine = rdb.database().session();
    let via_engine = generic_workload(
        |sql| engine.execute_sql(sql).map(Response::from),
        "t_engine",
    );
    assert_eq!(via_engine.unwrap(), 2);

    let mut untracked = rdb.connect_untracked().unwrap();
    assert_eq!(
        connection_workload(untracked.as_mut(), "t_native").unwrap(),
        2
    );

    let mut tracked = rdb.connect().unwrap();
    assert_eq!(connection_workload(tracked.as_mut(), "t_proxy").unwrap(), 2);

    // The tracked run left dependency records; the others did not.
    assert!(rdb.database().row_count("trans_dep").unwrap() > 0);
}

#[test]
fn prepared_statements_work_where_supported() {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();

    // Engine sessions and native connections support preparation.
    let mut engine = rdb.database().session();
    engine.execute_sql("CREATE TABLE p (a INTEGER)").unwrap();
    let ins = engine.prepare("INSERT INTO p (a) VALUES (?)").unwrap();
    engine.execute_prepared(&ins, &[Literal::Int(5)]).unwrap();
    let r = engine.query("SELECT a FROM p").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(5)]]);

    let mut native = rdb.connect_untracked().unwrap();
    let h = native.prepare("SELECT a FROM p WHERE a = ?").unwrap();
    let resp = native.execute_prepared(h, &[Literal::Int(5)]).unwrap();
    assert_eq!(resp.rows().unwrap().rows.len(), 1);

    // The tracking proxy refuses: client-side preparation would bypass the
    // SQL rewriting the repair capability rests on.
    let mut tracked = rdb.connect().unwrap();
    assert!(matches!(
        tracked.prepare("SELECT a FROM p WHERE a = ?"),
        Err(WireError::Protocol(_))
    ));
}

#[test]
fn one_engine_error_surfaces_through_every_session() {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    let mut engine = rdb.database().session();
    let mut tracked = rdb.connect().unwrap();
    let engine_err = engine.execute_sql("SELECT * FROM missing").unwrap_err();
    let tracked_err = tracked.execute("SELECT * FROM missing").unwrap_err();
    // The engine's error reaches the client unchanged, wrapped once by the
    // wire layer, and neither is a retryable deadlock.
    assert!(matches!(engine_err, EngineError::UnknownTable(_)));
    assert_eq!(tracked_err, WireError::Db(engine_err));
    assert!(!tracked_err.is_retryable());
}

#[test]
fn one_metrics_call_covers_all_four_layers() {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    let mut conn = rdb.connect().unwrap();
    conn.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT)")
        .unwrap();
    conn.execute("INSERT INTO acct (id, bal) VALUES (1, 10.0), (2, 20.0)")
        .unwrap();

    conn.execute("ANNOTATE attack").unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute("UPDATE acct SET bal = 999.0 WHERE id = 1")
        .unwrap();
    conn.execute("COMMIT").unwrap();
    // Repeat a statement shape so the rewrite cache records hits.
    for _ in 0..3 {
        conn.execute("UPDATE acct SET bal = bal + 1.0 WHERE id = 2")
            .unwrap();
    }

    let attack = rdb.txn_id_by_label("attack").unwrap().expect("tracked");
    rdb.repair(&[attack], &[]).unwrap();

    let snap = rdb.metrics();
    // Proxy layer: the repeated shape must have hit the rewrite cache.
    assert!(snap.counter("proxy.rewrite_cache.hits") > 0);
    // Engine layer: commits were counted and execute spans timed.
    assert!(snap.counter("engine.commit.count") > 0);
    assert!(snap.histogram("engine.execute").unwrap().count > 0);
    // Simulation layer: statements flowed through the substrate.
    assert!(snap.counter("sim.statements") > 0);
    // Repair layer: at least one phase histogram is non-empty.
    let repair_observed = ["repair.log_scan", "repair.correlate", "repair.compensate"]
        .iter()
        .any(|name| snap.histogram(name).map(|h| h.count).unwrap_or(0) > 0);
    assert!(repair_observed, "no repair-phase histogram recorded");

    // The connection reports the same registry (plus proxy folds come
    // only from the facade, which holds the cache/stats handles).
    let via_conn = conn.metrics();
    assert_eq!(
        via_conn.counter("engine.commit.count"),
        snap.counter("engine.commit.count")
    );
}

#[test]
fn text_and_json_exporters_agree_on_the_same_snapshot() {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    let mut conn = rdb.connect().unwrap();
    connection_workload(conn.as_mut(), "t_export").unwrap();
    let snap = rdb.metrics();

    // The text exporter is Prometheus: each metric is introduced by a
    // HELP line naming it, and its sample follows the TYPE line.
    let text = to_prometheus(&snap);
    let json = export::to_json(&snap);
    let after_help = |help: String| {
        let (_, rest) = text
            .split_once(&help)
            .unwrap_or_else(|| panic!("text export missing {help:?}"));
        rest.lines().skip(1).map(str::to_string).collect::<Vec<_>>()
    };
    // Every counter appears in both renderings with the same value.
    for (name, value) in &snap.counters {
        let sample = &after_help(format!(" Counter {name}.\n"))[0];
        assert!(sample.ends_with(&format!("_total {value}")), "{sample}");
        assert!(
            json.contains(&format!("\"{name}\":{value}")),
            "json export missing {name}"
        );
    }
    for (name, h) in &snap.histograms {
        let lines = after_help(format!(" Latency histogram for {name} (nanoseconds).\n"));
        let count = lines.iter().find(|l| l.contains("_ns_count ")).unwrap();
        assert!(count.ends_with(&format!(" {}", h.count)), "{count}");
        assert!(json.contains(&format!("\"{name}\":{{\"count\":{}", h.count)));
    }
}

#[test]
fn disabling_telemetry_stops_recording() {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    let mut conn = rdb.connect().unwrap();
    conn.execute("CREATE TABLE q (a INTEGER)").unwrap();
    let before = rdb.metrics().histogram("engine.execute").unwrap().count;
    rdb.telemetry().set_enabled(false);
    conn.execute("INSERT INTO q (a) VALUES (1)").unwrap();
    let after = rdb.metrics().histogram("engine.execute").unwrap().count;
    assert_eq!(before, after, "disabled telemetry must not record spans");
}
