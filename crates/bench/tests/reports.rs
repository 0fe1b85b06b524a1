//! The `--json-out` / `--trace-out` documents of the quick figures,
//! produced in-process and checked through the workspace's JSON reader:
//! the facts CI used to assert with inline scripts against the binaries'
//! output files.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;

use resildb_analyze::{parse_json, JsonValue};
use resildb_bench::fig4::{self, Scale};
use resildb_bench::json::{write_report, write_trace, Probe};
use resildb_bench::mttr::{self, lock_slot, ObserveSlot};
use resildb_bench::threads::{self, thread_counts};
use resildb_core::telemetry::{json::JsonWriter, to_prometheus};

/// Writes the report the way the binaries do and reads it back.
fn report(
    name: &str,
    bench: &str,
    results: impl FnOnce(&mut JsonWriter),
    probe: &Probe,
) -> JsonValue {
    let path = format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"));
    write_report(&path, bench, results, &probe.snapshot(), &probe.run_meta()).unwrap();
    let doc = parse_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(doc.get("bench").and_then(JsonValue::as_str), Some(bench));
    let meta = keys(at(&doc, &["meta"])).join(",");
    assert_eq!(meta, "git_sha,proxy_config,timestamp_utc");
    doc
}

/// The value at `path` below `v`.
fn at<'a>(v: &'a JsonValue, path: &[&str]) -> &'a JsonValue {
    path.iter().fold(v, |v, key| {
        v.get(key).unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
    })
}

fn keys(v: &JsonValue) -> Vec<&str> {
    v.as_object().unwrap().keys().map(String::as_str).collect()
}

fn num(v: &JsonValue, key: &str) -> f64 {
    match at(v, &[key]) {
        JsonValue::Number(n) => *n,
        other => panic!("{key}: expected a number, got {other:?}"),
    }
}

fn strings<'a>(items: &'a [JsonValue], path: &[&str]) -> BTreeSet<&'a str> {
    items
        .iter()
        .map(|e| at(e, path).as_str().unwrap())
        .collect()
}

fn metric_names<'a>(doc: &'a JsonValue, kinds: &[&str]) -> BTreeSet<&'a str> {
    kinds
        .iter()
        .flat_map(|k| keys(at(doc, &["metrics", k])))
        .collect()
}

#[test]
fn fig4_report_and_chrome_trace() {
    let probe = Probe::new();
    probe.enable_tracing();
    let cells = fig4::run(Scale::Quick, true, Some(&probe));
    let doc = report("fig4.json", "fig4", |w| fig4::write_json(w, &cells), &probe);
    let results = at(&doc, &["results"]).as_array().unwrap();
    assert_eq!(results.len(), 24);
    let cell_keys =
        "base_tps,flavor,large_footprint,networked,overhead_pct,proxy_tps,read_intensive";
    assert!(results.iter().all(|c| keys(c).join(",") == cell_keys));
    let names = metric_names(&doc, &["counters", "gauges", "histograms"]);
    for required in [
        "engine.execute",
        "engine.wal_append",
        "engine.commit",
        "proxy.rewrite",
        "proxy.rewrite_cache.hits",
        "engine.wal.group_commit_wait",
        "proxy.trans_dep.shard_wait",
        "telemetry.trace.dropped",
        "telemetry.trace.occupancy",
    ] {
        assert!(names.contains(required), "missing metric {required}");
    }
    let hist = keys(at(&doc, &["metrics", "histograms", "engine.execute"]));
    for q in ["p50_ns", "p95_ns", "p99_ns"] {
        assert!(hist.contains(&q), "missing {q}: {hist:?}");
    }

    // The capture is valid Chrome-trace JSON carrying the lifecycle events
    // and at least one begin/end span pair.
    let path = format!("{}/trace.json", env!("CARGO_TARGET_TMPDIR"));
    write_trace(&path, &probe.telemetry().flight().snapshot()).unwrap();
    let trace = parse_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let events = at(&trace, &["traceEvents"]).as_array().unwrap();
    assert!(!events.is_empty(), "empty traceEvents");
    let kinds = strings(events, &["args", "event"]);
    for required in [
        "txn_begin",
        "stmt_rewrite",
        "trans_dep_insert",
        "commit",
        "wal_commit",
    ] {
        assert!(
            kinds.contains(required),
            "missing event {required}: {kinds:?}"
        );
    }
    let phases = strings(events, &["ph"]);
    assert!(
        phases.contains("B") && phases.contains("E"),
        "no spans: {phases:?}"
    );
}

#[test]
fn thread_scaling_report() {
    let probe = Probe::new();
    let cells = threads::run(&thread_counts(4), Scale::Quick, Some(&probe));
    let doc = report(
        "threads.json",
        "fig4-threads",
        |w| threads::write_json(w, &cells),
        &probe,
    );
    let scaling = at(&doc, &["results", "scaling"]).as_array().unwrap();
    let base_tps = |threads: f64| {
        let cell = scaling.iter().find(|c| num(c, "threads") == threads);
        num(
            cell.unwrap_or_else(|| panic!("no {threads}-thread cell")),
            "base_tps",
        )
    };
    let (one, four) = (base_tps(1.0), base_tps(4.0));
    assert!(
        four > one,
        "4 threads ({four:.1} tps) must beat 1 ({one:.1} tps)"
    );
    let cell_keys = "base_scaling,base_tps,overhead_pct,proxy_tps,threads";
    assert!(scaling.iter().all(|c| keys(c).join(",") == cell_keys));
    let hists = metric_names(&doc, &["histograms"]);
    for key in ["engine.wal.group_commit_wait", "proxy.trans_dep.shard_wait"] {
        assert!(hists.contains(key), "missing contention histogram {key}");
    }
}

#[test]
fn live_repair_report_and_incident_timeline() {
    let probe = Probe::new();
    let slot = ObserveSlot::default();
    let points = mttr::run_live(&[30], Some(&probe), Some(&slot));
    let doc = report(
        "mttr-live.json",
        "mttr-live",
        |w| mttr::write_live_json(w, &points),
        &probe,
    );
    let results = at(&doc, &["results"]).as_array().unwrap();
    assert_eq!(results.len(), 1);
    for p in results {
        assert!(num(p, "attempted") > 0.0, "worker never ran: {p:?}");
        assert!(num(p, "availability") > 0.0, "nothing served: {p:?}");
        assert!(num(p, "fenced_tables") >= 1.0 && num(p, "undo_set") >= 1.0);

        // The decomposition sums to the wall time exactly; the marks cover
        // every phase and are strictly monotonic.
        let t = at(p, &["timeline"]);
        let ns = |key| at(t, &["decomposition", key]).as_u64().unwrap();
        assert_eq!(ns("mttd_ns") + ns("mttc_ns") + ns("mttr_ns"), ns("wall_ns"));
        let marks = at(t, &["marks"]).as_array().unwrap();
        let phases = strings(marks, &["phase"]);
        for required in [
            "attack_committed",
            "detected",
            "fence_raised",
            "quarantine_shrunk",
            "sweep_complete",
            "fence_lifted",
        ] {
            assert!(phases.contains(required), "missing {required}: {phases:?}");
        }
        let stamps: Vec<u64> = marks
            .iter()
            .map(|m| at(m, &["at_ns"]).as_u64().unwrap())
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{stamps:?}");
    }
    let names = metric_names(&doc, &["counters", "gauges"]);
    for key in [
        "proxy.fence.rejected",
        "proxy.fence.passed",
        "repair.live.fence_size",
    ] {
        assert!(names.contains(key), "missing fence telemetry key {key}");
    }
    let gauges = at(&doc, &["metrics", "gauges"]);
    assert_eq!(
        num(gauges, "repair.live.fence_size"),
        0.0,
        "fence not lifted"
    );

    // What the endpoint serves for the same instance: `/incidents` parses,
    // `/metrics` carries the engine, fence and repair-progress families.
    let rdb = lock_slot(&slot).take().expect("point published itself");
    let served = parse_json(&rdb.telemetry().timeline().to_json()).unwrap();
    assert_eq!(
        at(&served, &["incidents"]).as_array().map(<[_]>::len),
        Some(1)
    );
    let exposition = to_prometheus(&rdb.metrics());
    for required in [
        "resildb_engine_commit_count_total ",
        "resildb_repair_live_fence_size ",
        "resildb_repair_progress_phase ",
        "resildb_repair_progress_compensated ",
    ] {
        let found = exposition.lines().any(|l| l.starts_with(required));
        assert!(found, "missing {required}in /metrics");
    }
}
