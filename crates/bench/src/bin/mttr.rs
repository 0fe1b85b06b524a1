//! MTTR comparison: selective repair vs restore-backup-and-replay.
//! Pass `--quick` for a reduced grid; `--live` measures *online* repair
//! instead — clean traffic served while the sweep runs behind the
//! containment fence; `--json-out PATH` additionally emits a
//! machine-readable report; `--trace-out PATH` captures a
//! flight-recorder trace of the attack, analysis and repair (Chrome
//! Trace Event Format; `.jsonl` for JSONL). Explore captures with
//! `resildb-trace`.
//!
//! `--live --serve ADDR` (e.g. `127.0.0.1:9188`, `resildb-top`'s default)
//! additionally runs the observability endpoint while the points execute: `/metrics`
//! (Prometheus), `/health`, `/ready` (503 while a fence is up or a
//! repair is executing), `/incidents` (timeline JSON) and `/quit`.
//! Watch it live with `resildb-top`. The process keeps serving after
//! the sweep finishes until `/quit` is requested.

// Harness target: setup failures panic with context by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::sync::Arc;

use resildb_bench::json::{self, Probe};
use resildb_bench::mttr::{self, lock_slot, ObserveSlot};
use resildb_core::{MetricsServer, MetricsSnapshot, ServerRoutes};

/// Builds the endpoint routes over the shared observation slot. Before
/// a point installs itself the endpoint serves empty-but-valid data, so
/// a scraper can connect the moment the process is up.
fn observe_routes(slot: &Arc<ObserveSlot>) -> ServerRoutes {
    let metrics_slot = Arc::clone(slot);
    let ready_slot = Arc::clone(slot);
    let incidents_slot = Arc::clone(slot);
    ServerRoutes::new()
        .metrics(move || match &*lock_slot(&metrics_slot) {
            Some(rdb) => rdb.metrics(),
            None => MetricsSnapshot::default(),
        })
        .ready(move || match &*lock_slot(&ready_slot) {
            Some(rdb) => {
                !rdb.proxy_runtime().fence().is_active()
                    && rdb.telemetry().timeline().current().is_none()
            }
            None => true,
        })
        .incidents(move || match &*lock_slot(&incidents_slot) {
            Some(rdb) => rdb.telemetry().timeline().to_json(),
            None => "{\"incidents\":[]}".to_string(),
        })
        .allow_quit(true)
}

fn main() {
    let flags = json::flags_or_exit(
        &["--quick", "--live"],
        &["--json-out", "--trace-out", "--serve"],
    );
    let live = flags.has("--live");
    let grid: Vec<usize> = if flags.has("--quick") {
        vec![30]
    } else {
        vec![50, 100, 200, 400, 700]
    };
    let json_out = flags.value("--json-out");
    let serve = live.then(|| flags.value("--serve")).flatten();
    // Live points run on their own `ResilientDb` telemetry domain, which
    // the probe's flight recorder does not see: no capture under `--live`.
    let trace_out = (!live).then(|| flags.value("--trace-out")).flatten();
    let probe = (json_out.is_some() || trace_out.is_some()).then(Probe::new);
    if trace_out.is_some() {
        if let Some(probe) = &probe {
            probe.enable_tracing();
        }
    }
    // `serve` is only ever set under `--live`.
    let slot: Arc<ObserveSlot> = Arc::new(ObserveSlot::default());
    let mut server = serve.map(|addr| {
        let server =
            MetricsServer::serve(addr, observe_routes(&slot)).expect("bind metrics endpoint");
        println!("observability endpoint on http://{}/", server.addr());
        server
    });
    let (bench, results) = if live {
        let observe = server.as_ref().map(|_| &*slot);
        let points = mttr::run_live(&grid, probe.as_ref(), observe);
        print!("{}", mttr::render_live(&points));
        ("mttr-live", mttr::live_points_json(&points))
    } else {
        let points = mttr::run(&grid, probe.as_ref());
        print!("{}", mttr::render(&points));
        ("mttr", mttr::points_json(&points))
    };
    if let (Some(path), Some(probe)) = (json_out, &probe) {
        json::write_report(path, bench, &results, &probe.snapshot(), &probe.run_meta())
            .expect("write json report");
        println!("\nJSON report written to {path}");
    }
    if let (Some(path), Some(probe)) = (trace_out, &probe) {
        json::write_trace(path, &probe.telemetry().flight().snapshot())
            .expect("write trace capture");
        println!("trace capture written to {path}");
    }
    if let Some(server) = server.as_mut() {
        println!("serving until GET /quit on http://{}/", server.addr());
        server.join();
    }
}
