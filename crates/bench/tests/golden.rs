//! Golden bytes of every JSON document the runtime side writes: the
//! metrics export, both flight-recorder capture formats, `/incidents`,
//! and the `--json-out` report of each bench binary. Inputs are fixed
//! (hand-built snapshots, or a seeded virtual-time run), so each
//! document must come out byte for byte as pinned here. The two
//! wall-clock runs (`fig4 --threads`, `mttr --live`) have run-dependent
//! numbers, so their pins mask every number to `0` and keep the rest.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

use resildb_core::telemetry::export::to_json;
use resildb_core::telemetry::trace::{
    to_chrome_trace, to_jsonl, EventKind, TraceEvent, TraceSnapshot, TraceVerdict,
};
use resildb_core::{HistogramSnapshot, MetricsSnapshot, Telemetry};

#[test]
fn metrics_json() {
    let mut snap = MetricsSnapshot::default();
    snap.set_counter("proxy.rewrite_cache.hits", 42);
    snap.set_counter("engine.commit.count", 7);
    snap.set_counter("odd \"name\"\\\n\u{1}é", u64::MAX);
    snap.set_gauge("sim.pool.hit_ratio", 0.96875);
    snap.set_gauge("g.nan", f64::NAN);
    snap.set_gauge("g.neg_inf", f64::NEG_INFINITY);
    snap.set_gauge("g.tiny", 1e-7);
    snap.set_gauge("g.huge", 1e21);
    snap.set_gauge("g.neg", -2.5);
    snap.set_histogram(
        "engine.execute",
        HistogramSnapshot {
            count: 10,
            sum_ns: 12_345,
            max_ns: 4_000,
            p50_ns: 1_023,
            p95_ns: 4_000,
            p99_ns: 4_000,
            ..Default::default()
        },
    );
    snap.set_histogram("empty", HistogramSnapshot::default());
    assert_eq!(
        to_json(&snap),
        "{\"counters\":{\"engine.commit.count\":7,\"odd \\\"name\\\"\\\\\\n\\u0001é\":18446744073709551615,\
         \"proxy.rewrite_cache.hits\":42},\
         \"gauges\":{\"g.huge\":1000000000000000000000,\"g.nan\":0,\"g.neg\":-2.5,\"g.neg_inf\":0,\
         \"g.tiny\":0.0000001,\"sim.pool.hit_ratio\":0.96875},\
         \"histograms\":{\"empty\":{\"count\":0,\"p50_ns\":0,\"p95_ns\":0,\"p99_ns\":0,\"max_ns\":0,\"sum_ns\":0},\
         \"engine.execute\":{\"count\":10,\"p50_ns\":1023,\"p95_ns\":4000,\"p99_ns\":4000,\"max_ns\":4000,\"sum_ns\":12345}}}"
    );
    assert_eq!(
        to_json(&MetricsSnapshot::default()),
        "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
    );
}

/// One event of every kind, with hostile text in the string fields.
fn every_kind() -> TraceSnapshot {
    let kinds = vec![
        EventKind::TxnBegin,
        EventKind::StmtRewrite {
            cache_hit: true,
            verdict: TraceVerdict::Sound,
        },
        EventKind::StmtRewrite {
            cache_hit: false,
            verdict: TraceVerdict::Rejected,
        },
        EventKind::DepHarvested {
            dep: -3,
            table: "stock".into(),
        },
        EventKind::TransDepInsert { deps: 2 },
        EventKind::Commit,
        EventKind::Abort,
        EventKind::WalCommit { internal: u64::MAX },
        EventKind::WalAbort { internal: 9 },
        EventKind::FaultHit {
            failpoint: "fp \"q\" \\ back\nline\t\u{1f}".into(),
        },
        EventKind::LogScan { records: 33_392 },
        EventKind::Correlate { pairs: 12 },
        EventKind::ClosureComputed {
            initial: 1,
            nodes: 709,
        },
        EventKind::Compensated { statements: 14 },
        EventKind::IncidentDetected { at_ns: 1_000 },
        EventKind::IncidentClosed,
        EventKind::SweepComplete { rounds: 2 },
        EventKind::FenceRaised { tables: 9 },
        EventKind::FenceShrunk {
            tables: 1,
            rows: 99,
        },
        EventKind::FenceExtended { rows: 4 },
        EventKind::FenceLifted,
    ];
    let events = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| TraceEvent {
            seq: 5 + i as u64,
            txn: if i < 7 { 77 } else { 0 },
            session: if i < 7 { 3 } else { 0 },
            kind,
        })
        .collect();
    TraceSnapshot {
        events,
        dropped: 5,
        capacity: 64,
    }
}

#[test]
fn trace_jsonl() {
    assert_eq!(
        to_jsonl(&every_kind()),
        r#"{"seq":5,"txn":77,"session":3,"event":"txn_begin"}
{"seq":6,"txn":77,"session":3,"event":"stmt_rewrite","cache_hit":true,"verdict":"sound"}
{"seq":7,"txn":77,"session":3,"event":"stmt_rewrite","cache_hit":false,"verdict":"rejected"}
{"seq":8,"txn":77,"session":3,"event":"dep_harvested","dep":-3,"table":"stock"}
{"seq":9,"txn":77,"session":3,"event":"trans_dep_insert","deps":2}
{"seq":10,"txn":77,"session":3,"event":"commit"}
{"seq":11,"txn":77,"session":3,"event":"abort"}
{"seq":12,"txn":0,"session":0,"event":"wal_commit","internal":18446744073709551615}
{"seq":13,"txn":0,"session":0,"event":"wal_abort","internal":9}
{"seq":14,"txn":0,"session":0,"event":"fault_hit","failpoint":"fp \"q\" \\ back\nline\t\u001f"}
{"seq":15,"txn":0,"session":0,"event":"log_scan","records":33392}
{"seq":16,"txn":0,"session":0,"event":"correlate","pairs":12}
{"seq":17,"txn":0,"session":0,"event":"closure_computed","initial":1,"nodes":709}
{"seq":18,"txn":0,"session":0,"event":"compensated","statements":14}
{"seq":19,"txn":0,"session":0,"event":"incident_detected","at_ns":1000}
{"seq":20,"txn":0,"session":0,"event":"incident_closed"}
{"seq":21,"txn":0,"session":0,"event":"sweep_complete","rounds":2}
{"seq":22,"txn":0,"session":0,"event":"fence_raised","tables":9}
{"seq":23,"txn":0,"session":0,"event":"fence_shrunk","tables":1,"rows":99}
{"seq":24,"txn":0,"session":0,"event":"fence_extended","rows":4}
{"seq":25,"txn":0,"session":0,"event":"fence_lifted"}
"#
    );
    let empty = TraceSnapshot::from_events(Vec::new());
    assert_eq!(to_jsonl(&empty), "");
}

#[test]
fn trace_chrome() {
    let expected = [
        r#"{"displayTimeUnit":"ms","traceEvents":["#,
        r#"{"name":"txn","cat":"resildb","ph":"B","ts":5,"pid":77,"tid":3,"args":{"event":"txn_begin"}},"#,
        r#"{"name":"stmt_rewrite","cat":"resildb","ph":"i","s":"g","ts":6,"pid":77,"tid":3,"args":{"event":"stmt_rewrite","cache_hit":true,"verdict":"sound"}},"#,
        r#"{"name":"stmt_rewrite","cat":"resildb","ph":"i","s":"g","ts":7,"pid":77,"tid":3,"args":{"event":"stmt_rewrite","cache_hit":false,"verdict":"rejected"}},"#,
        r#"{"name":"dep_harvested","cat":"resildb","ph":"i","s":"g","ts":8,"pid":77,"tid":3,"args":{"event":"dep_harvested","dep":-3,"table":"stock"}},"#,
        r#"{"name":"trans_dep_insert","cat":"resildb","ph":"i","s":"g","ts":9,"pid":77,"tid":3,"args":{"event":"trans_dep_insert","deps":2}},"#,
        r#"{"name":"txn","cat":"resildb","ph":"E","ts":10,"pid":77,"tid":3,"args":{"event":"commit"}},"#,
        r#"{"name":"txn","cat":"resildb","ph":"E","ts":11,"pid":77,"tid":3,"args":{"event":"abort"}},"#,
        r#"{"name":"wal_commit","cat":"resildb","ph":"i","s":"g","ts":12,"pid":0,"tid":0,"args":{"event":"wal_commit","internal":18446744073709551615}},"#,
        r#"{"name":"wal_abort","cat":"resildb","ph":"i","s":"g","ts":13,"pid":0,"tid":0,"args":{"event":"wal_abort","internal":9}},"#,
        r#"{"name":"fault_hit","cat":"resildb","ph":"i","s":"g","ts":14,"pid":0,"tid":0,"args":{"event":"fault_hit","failpoint":"fp \"q\" \\ back\nline\t\u001f"}},"#,
        r#"{"name":"log_scan","cat":"resildb","ph":"i","s":"g","ts":15,"pid":0,"tid":0,"args":{"event":"log_scan","records":33392}},"#,
        r#"{"name":"correlate","cat":"resildb","ph":"i","s":"g","ts":16,"pid":0,"tid":0,"args":{"event":"correlate","pairs":12}},"#,
        r#"{"name":"closure_computed","cat":"resildb","ph":"i","s":"g","ts":17,"pid":0,"tid":0,"args":{"event":"closure_computed","initial":1,"nodes":709}},"#,
        r#"{"name":"compensated","cat":"resildb","ph":"i","s":"g","ts":18,"pid":0,"tid":0,"args":{"event":"compensated","statements":14}},"#,
        r#"{"name":"incident_detected","cat":"resildb","ph":"i","s":"g","ts":19,"pid":0,"tid":0,"args":{"event":"incident_detected","at_ns":1000}},"#,
        r#"{"name":"incident_closed","cat":"resildb","ph":"i","s":"g","ts":20,"pid":0,"tid":0,"args":{"event":"incident_closed"}},"#,
        r#"{"name":"sweep_complete","cat":"resildb","ph":"i","s":"g","ts":21,"pid":0,"tid":0,"args":{"event":"sweep_complete","rounds":2}},"#,
        r#"{"name":"fence_raised","cat":"resildb","ph":"i","s":"g","ts":22,"pid":0,"tid":0,"args":{"event":"fence_raised","tables":9}},"#,
        r#"{"name":"fence_shrunk","cat":"resildb","ph":"i","s":"g","ts":23,"pid":0,"tid":0,"args":{"event":"fence_shrunk","tables":1,"rows":99}},"#,
        r#"{"name":"fence_extended","cat":"resildb","ph":"i","s":"g","ts":24,"pid":0,"tid":0,"args":{"event":"fence_extended","rows":4}},"#,
        r#"{"name":"fence_lifted","cat":"resildb","ph":"i","s":"g","ts":25,"pid":0,"tid":0,"args":{"event":"fence_lifted"}}"#,
        "]}\n",
    ];
    assert_eq!(to_chrome_trace(&every_kind()), expected.concat());
    assert_eq!(
        to_chrome_trace(&TraceSnapshot::from_events(Vec::new())),
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n"
    );
}

/// `/incidents` with one closed and one open incident. Detection stamps
/// far ahead of the incident clock make every later mark land exactly one
/// nanosecond after the previous one.
#[test]
fn incidents_json() {
    let tel = Telemetry::recording();
    assert_eq!(tel.timeline().to_json(), "{\"incidents\":[]}");
    const T1: u64 = 1_000_000_000_000_000;
    const T2: u64 = 2 * T1;
    for kind in [
        EventKind::IncidentDetected { at_ns: T1 },
        EventKind::ClosureComputed {
            initial: 1,
            nodes: 3,
        },
        EventKind::FenceRaised { tables: 2 },
        EventKind::FenceShrunk { tables: 0, rows: 5 },
        EventKind::Compensated { statements: 1 },
        EventKind::SweepComplete { rounds: 1 },
        EventKind::FenceLifted,
        EventKind::IncidentClosed,
        EventKind::IncidentDetected { at_ns: T2 },
        EventKind::FenceRaised { tables: 1 },
    ] {
        tel.repair_event(0, kind);
    }
    assert_eq!(
        tel.timeline().to_json(),
        "{\"incidents\":[\
         {\"id\":1,\"open\":false,\"marks\":[\
         {\"phase\":\"detected\",\"at_ns\":1000000000000000},\
         {\"phase\":\"fence_raised\",\"at_ns\":1000000000000001},\
         {\"phase\":\"quarantine_shrunk\",\"at_ns\":1000000000000002},\
         {\"phase\":\"sweep_complete\",\"at_ns\":1000000000000003},\
         {\"phase\":\"fence_lifted\",\"at_ns\":1000000000000004}],\
         \"decomposition\":{\"mttd_ns\":0,\"mttc_ns\":2,\"mttr_ns\":2,\"wall_ns\":4}},\
         {\"id\":2,\"open\":true,\"marks\":[\
         {\"phase\":\"detected\",\"at_ns\":2000000000000000},\
         {\"phase\":\"fence_raised\",\"at_ns\":2000000000000001}],\
         \"decomposition\":{\"mttd_ns\":0,\"mttc_ns\":1,\"mttr_ns\":0,\"wall_ns\":1}}]}"
    );
}

/// Runs bench binary `bin` with `args` plus `--json-out`, and returns the
/// report with the two provenance values that change every run (commit
/// and clock) replaced by `SHA` and `TIME`.
fn report(bin: &str, name: &str, args: &[&str]) -> String {
    let path = format!("{}/golden-{name}.json", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(bin)
        .args(args)
        .args(["--json-out", &path])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{name}: {out:?}");
    let doc = std::fs::read_to_string(&path).unwrap();
    let doc = replace_string_value(&doc, "git_sha", "SHA");
    replace_string_value(&doc, "timestamp_utc", "TIME")
}

fn replace_string_value(doc: &str, key: &str, with: &str) -> String {
    let open = format!("\"{key}\":\"");
    let start = doc.find(&open).unwrap_or_else(|| panic!("no {key}")) + open.len();
    let len = doc[start..].find('"').unwrap();
    format!("{}{with}{}", &doc[..start], &doc[start + len..])
}

/// The report without its `"metrics"` member, which [`metrics_json`]
/// pins: the header and results, as one JSON document.
fn without_metrics(doc: &str) -> String {
    let at = doc.find(",\"metrics\":{\"counters\":{").expect("metrics");
    assert!(doc.ends_with("}}}}\n"), "{doc}");
    format!("{}}}\n", &doc[..at])
}

/// Every JSON number outside strings replaced by `0`.
fn mask_numbers(doc: &str) -> String {
    let mut out = String::with_capacity(doc.len());
    let (mut in_string, mut escaped) = (false, false);
    let mut chars = doc.chars().peekable();
    while let Some(c) = chars.next() {
        if in_string {
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
            out.push(c);
        } else if c == '-' || c.is_ascii_digit() {
            while chars
                .peek()
                .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
            {
                chars.next();
            }
            out.push('0');
        } else {
            in_string = c == '"';
            out.push(c);
        }
    }
    out
}

#[test]
fn fig3_report() {
    let doc = report(env!("CARGO_BIN_EXE_fig3"), "fig3", &[]);
    assert_eq!(without_metrics(&doc), include_str!("golden/fig3.json"));
}

#[test]
fn fig4_report() {
    let doc = report(env!("CARGO_BIN_EXE_fig4"), "fig4", &["--quick"]);
    assert_eq!(without_metrics(&doc), include_str!("golden/fig4.json"));
}

#[test]
fn fig5_report() {
    let doc = report(env!("CARGO_BIN_EXE_fig5"), "fig5", &["--quick"]);
    assert_eq!(without_metrics(&doc), include_str!("golden/fig5.json"));
}

#[test]
fn mttr_report() {
    let doc = report(env!("CARGO_BIN_EXE_mttr"), "mttr", &["--quick"]);
    assert_eq!(without_metrics(&doc), include_str!("golden/mttr.json"));
}

#[test]
fn threads_report() {
    let args = ["--quick", "--threads", "2"];
    let doc = report(env!("CARGO_BIN_EXE_fig4"), "threads", &args);
    let masked = mask_numbers(&without_metrics(&doc));
    assert_eq!(masked, include_str!("golden/threads.json"));
}

/// Also the `RunMeta` block without a proxy configuration: live points
/// run on their own instance, so the probe never notes one.
#[test]
fn mttr_live_report() {
    let args = ["--live", "--quick"];
    let doc = report(env!("CARGO_BIN_EXE_mttr"), "mttr-live", &args);
    let masked = mask_numbers(&without_metrics(&doc));
    assert_eq!(masked, include_str!("golden/mttr-live.json"));
}
