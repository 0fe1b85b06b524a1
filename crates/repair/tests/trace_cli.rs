//! The `resildb-trace` binary over a real capture: the three views it
//! has run, the closure flags it no longer has are usage errors, and
//! `--txn` says where a damage closure comes from instead of guessing one.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::{Command, Output};

use resildb_core::telemetry::trace::to_jsonl;
use resildb_core::{Flavor, ResilientDb};

/// Commits an attack and a transaction reading it, repairs the attack,
/// and writes the run's capture as JSONL; returns its path and the
/// attack's proxy transaction id.
fn write_capture() -> (String, i64) {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    let mut conn = rdb.connect().unwrap();
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    for (label, stmts) in [
        ("attack", &["INSERT INTO t (id, v) VALUES (1, 666)"][..]),
        (
            "reader",
            &[
                "SELECT v FROM t WHERE id = 1",
                "INSERT INTO t (id, v) VALUES (2, 1)",
            ][..],
        ),
    ] {
        conn.execute(&format!("ANNOTATE {label}")).unwrap();
        conn.execute("BEGIN").unwrap();
        for s in stmts {
            conn.execute(s).unwrap();
        }
        conn.execute("COMMIT").unwrap();
    }
    drop(conn);
    let attack = rdb.txn_id_by_label("attack").unwrap().unwrap();
    rdb.repair(&[attack], &[]).unwrap();
    let path = format!("{}/trace_cli.jsonl", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, to_jsonl(&rdb.flight_recorder().snapshot())).unwrap();
    (path, attack)
}

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_resildb-trace"))
        .args(args)
        .output()
        .expect("spawn resildb-trace")
}

#[test]
fn views_run_and_closure_flags_are_usage_errors() {
    let (capture, attack) = write_capture();
    let attack = attack.to_string();

    for args in [
        vec![capture.as_str(), "--dot"],
        vec![capture.as_str(), "--ignore-table", "x"],
    ] {
        let out = trace(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: resildb-trace"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }

    for args in [
        vec![capture.as_str(), "--list"],
        vec![capture.as_str(), "--txn", attack.as_str()],
        vec![capture.as_str(), "--repair"],
    ] {
        let out = trace(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let list = String::from_utf8(trace(&[&capture, "--list"]).stdout).unwrap();
    assert!(list.lines().any(|l| l == attack), "{list}");

    let txn = String::from_utf8(trace(&[&capture, "--txn", &attack]).stdout).unwrap();
    assert!(txn.starts_with(&format!("txn {attack} timeline:")), "{txn}");
    assert!(txn.contains("compensated statements="), "{txn}");
    assert!(
        txn.contains("damage closure: not available from a capture"),
        "{txn}"
    );
    assert!(txn.contains("WhatIfSession") && txn.contains("repair_console"));
    assert!(!txn.contains("taints"), "{txn}");

    let repair = String::from_utf8(trace(&[&capture, "--repair"]).stdout).unwrap();
    assert!(repair.contains("incident #"), "{repair}");
}
