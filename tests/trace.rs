//! Whole-system tests of the flight recorder: transaction lifecycles are
//! captured exactly once, repair phases show up in the event window, a
//! capture round-trips through the forensic exporters into the
//! `resildb-trace` explorer, and the explorer never offers a damage
//! closure of its own.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::collections::BTreeSet;

use proptest::prelude::*;
use resildb_core::telemetry::trace::{to_chrome_trace, to_jsonl};
use resildb_core::{Flavor, ResilientDb, TraceExplorer, TraceSnapshot, WhatIfSession};
use resildb_repair::trace::parse_capture;

/// Runs `committed` committed transactions (each annotated `txn_<i>`) and
/// `aborted` rolled-back ones against a fresh instance; returns it.
fn run_mixed_workload(committed: usize, aborted: usize) -> ResilientDb {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    let mut conn = rdb.connect().unwrap();
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    for i in 0..committed {
        conn.execute(&format!("ANNOTATE txn_{i}")).unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute(&format!("INSERT INTO t (id, v) VALUES ({i}, {i})"))
            .unwrap();
        if i > 0 {
            conn.execute(&format!("SELECT v FROM t WHERE id = {}", i - 1))
                .unwrap();
        }
        conn.execute("COMMIT").unwrap();
    }
    for j in 0..aborted {
        conn.execute("BEGIN").unwrap();
        conn.execute(&format!("INSERT INTO t (id, v) VALUES ({}, 0)", 10_000 + j))
            .unwrap();
        conn.execute("ROLLBACK").unwrap();
    }
    drop(conn);
    rdb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The lifecycle invariant: every committed tracked transaction
    /// appears in the capture exactly once as TxnBegin and exactly once
    /// as Commit, with no Abort; every rollback contributes exactly one
    /// Abort.
    #[test]
    fn every_committed_txn_begins_and_commits_exactly_once(
        committed in 1usize..8,
        aborted in 0usize..4,
    ) {
        let rdb = run_mixed_workload(committed, aborted);
        let snap = rdb.flight_recorder().snapshot();
        prop_assert_eq!(snap.dropped, 0);
        for i in 0..committed {
            let trid = rdb
                .txn_id_by_label(&format!("txn_{i}"))
                .unwrap()
                .expect("committed txn tracked");
            prop_assert_eq!(snap.count_for(trid, "txn_begin"), 1, "txn {}", trid);
            prop_assert_eq!(snap.count_for(trid, "commit"), 1, "txn {}", trid);
            prop_assert_eq!(snap.count_for(trid, "abort"), 0, "txn {}", trid);
            // Begin precedes commit in tick order.
            let events = snap.events_for(trid);
            let begin_at = events.iter().position(|e| e.kind.name() == "txn_begin");
            let commit_at = events.iter().position(|e| e.kind.name() == "commit");
            prop_assert!(begin_at < commit_at);
        }
        let aborts = snap
            .events
            .iter()
            .filter(|e| e.kind.name() == "abort")
            .count();
        prop_assert_eq!(aborts, aborted);
        // Every commit in the window belongs to a distinct transaction.
        let mut committed_txns: Vec<i64> = snap
            .events
            .iter()
            .filter(|e| e.kind.name() == "commit")
            .map(|e| e.txn)
            .collect();
        let total = committed_txns.len();
        committed_txns.sort_unstable();
        committed_txns.dedup();
        prop_assert_eq!(committed_txns.len(), total);
    }
}

#[test]
fn capture_shows_rewrites_harvests_and_wal_commits() {
    let rdb = run_mixed_workload(3, 0);
    let snap = rdb.flight_recorder().snapshot();
    let names: Vec<&str> = snap.events.iter().map(|e| e.kind.name()).collect();
    for required in [
        "txn_begin",
        "stmt_rewrite",
        "dep_harvested",
        "trans_dep_insert",
        "commit",
        "wal_commit",
    ] {
        assert!(names.contains(&required), "missing {required}: {names:?}");
    }
    // txn_2 read txn_1's row: the harvest must be in the window.
    let t1 = rdb.txn_id_by_label("txn_1").unwrap().unwrap();
    let t2 = rdb.txn_id_by_label("txn_2").unwrap().unwrap();
    assert_eq!(snap.count_for(t2, "dep_harvested"), 1);
    let explorer = TraceExplorer::from_snapshot(snap);
    assert!(explorer
        .render_txn(t2)
        .contains(&format!("dep_harvested dep={t1} table=t")));
}

/// What `resildb-trace --txn` prints in place of a damage closure.
const NO_CLOSURE: &str = "damage closure: not available from a capture";

/// Exports the run's capture as JSONL, parses it back and renders
/// `txn` as `resildb-trace <capture> --txn <txn>` does.
fn render_from_capture(rdb: &ResilientDb, txn: i64) -> String {
    let events = parse_capture(&to_jsonl(&rdb.flight_recorder().snapshot())).unwrap();
    TraceExplorer::from_snapshot(TraceSnapshot::from_events(events)).render_txn(txn)
}

/// Damage that spreads through an UPDATE is a log dependency the proxy
/// never harvests online, so a capture cannot see it. The closure comes
/// from `Analysis` alone; the explorer says so instead of printing a
/// partial set.
#[test]
fn update_spread_damage_is_in_the_one_closure_and_not_guessed_from_a_capture() {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    let mut conn = rdb.connect().unwrap();
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    for (label, stmt) in [
        ("attack", "INSERT INTO t VALUES (1, 666)"),
        ("bump", "UPDATE t SET v = v + 1 WHERE id = 1"),
    ] {
        conn.execute(&format!("ANNOTATE {label}")).unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute(stmt).unwrap();
        conn.execute("COMMIT").unwrap();
    }
    drop(conn);
    let attack = rdb.txn_id_by_label("attack").unwrap().unwrap();
    let bump = rdb.txn_id_by_label("bump").unwrap().unwrap();
    let expected: BTreeSet<i64> = [attack, bump].into_iter().collect();

    let analysis = rdb.analyze().unwrap();
    let mut session = WhatIfSession::new(&analysis);
    session.add_initial(attack);
    assert_eq!(session.undo_set(), expected);

    assert_eq!(rdb.flight_recorder().snapshot().dropped, 0);
    let rendered = render_from_capture(&rdb, attack);
    assert!(rendered.contains(NO_CLOSURE), "{rendered}");
    assert!(!rendered.contains("taints"), "{rendered}");
    assert!(!rendered.contains("tainted by"), "{rendered}");

    assert_eq!(rdb.repair(&[attack], &[]).unwrap().undo_set, expected);
}

/// The acceptance scenario: attack → dependent transactions → repair,
/// with the capture exported, re-parsed, and explored for the attack's
/// timeline — exactly what `resildb-trace <capture> --txn <id>` prints.
#[test]
fn repair_scenario_round_trips_into_causal_chain() {
    let rdb = run_mixed_workload(4, 0);
    // txn_1 is the attack; txn_2 read txn_1's row, txn_3 read txn_2's.
    let attack = rdb.txn_id_by_label("txn_1").unwrap().unwrap();
    let t2 = rdb.txn_id_by_label("txn_2").unwrap().unwrap();
    let t3 = rdb.txn_id_by_label("txn_3").unwrap().unwrap();
    let report = rdb.repair(&[attack], &[]).unwrap();
    assert_eq!(report.undo_set, [attack, t2, t3].into_iter().collect());

    let snap = rdb.flight_recorder().snapshot();
    // Repair phases made it into the window.
    for required in ["log_scan", "correlate", "closure_computed", "compensated"] {
        assert!(
            snap.events.iter().any(|e| e.kind.name() == required),
            "missing {required}"
        );
    }
    // Each undone transaction got its own compensation tally.
    for txn in &report.undo_set {
        assert_eq!(snap.count_for(*txn, "compensated"), 1, "txn {txn}");
    }

    // Round-trip through both exporters, as `--trace-out` writes them.
    for export in [to_chrome_trace(&snap), to_jsonl(&snap)] {
        let events = parse_capture(&export).unwrap();
        assert_eq!(events, snap.events);
        let explorer = TraceExplorer::from_snapshot(TraceSnapshot::from_events(events));
        let rendered = explorer.render_txn(attack);
        // The per-transaction timeline, ending in its compensation.
        assert!(rendered.contains("txn_begin"));
        assert!(rendered.contains("commit"));
        assert!(rendered.contains("compensated statements="));
        assert!(rendered.contains(NO_CLOSURE));
    }
}

#[test]
fn flight_recorder_can_be_disabled_and_cleared() {
    let rdb = run_mixed_workload(2, 0);
    assert!(!rdb.flight_recorder().snapshot().events.is_empty());
    rdb.flight_recorder().clear();
    rdb.flight_recorder().set_enabled(false);
    let mut conn = rdb.connect().unwrap();
    conn.execute("INSERT INTO t (id, v) VALUES (500, 1)")
        .unwrap();
    drop(conn);
    assert!(rdb.flight_recorder().snapshot().events.is_empty());
}
