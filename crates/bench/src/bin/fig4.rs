//! Regenerates paper Figure 4: inter-transaction dependency tracking
//! overhead over the four panels. Pass `--quick` for a reduced run,
//! `--no-rewrite-cache` to disable the proxy's statement-template cache
//! (the ablation isolating what cached rewrites buy back),
//! `--json-out PATH` to also emit a machine-readable report (cells plus
//! per-stage telemetry histograms), and `--trace-out PATH` to capture a
//! flight-recorder trace of the run (Chrome Trace Event Format,
//! Perfetto-loadable; `.jsonl` for JSONL). Explore captures with
//! `resildb-trace`.
//!
//! `--threads N` switches to the wall-clock scaling mode instead: N OS
//! threads (measured at every power of two up to N) drive real
//! connections against one shared database with the simulator in
//! wall-clock mode, reporting base and tracked TPS scaling curves
//! (`--wall-clock` is implied and accepted as an explicit flag).

// Harness target: setup failures panic with context by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_bench::fig4::{self, render, run, Scale};
use resildb_bench::json::{self, Probe};
use resildb_bench::threads::{self, thread_counts};
use resildb_core::telemetry::json::JsonWriter;

fn main() {
    let flags = json::flags_or_exit(
        &["--quick", "--no-rewrite-cache", "--wall-clock"],
        &["--threads", "--json-out", "--trace-out"],
    );
    let scale = if flags.has("--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let rewrite_cache = !flags.has("--no-rewrite-cache");
    let threads = json::or_usage_exit(flags.positive("--threads"));
    let json_out = flags.value("--json-out");
    let trace_out = flags.value("--trace-out");
    let probe = (json_out.is_some() || trace_out.is_some()).then(Probe::new);
    if trace_out.is_some() {
        if let Some(probe) = &probe {
            probe.enable_tracing();
        }
    }

    let report = |bench: &str, results: &dyn Fn(&mut JsonWriter)| {
        if let (Some(path), Some(probe)) = (json_out, &probe) {
            json::write_report(path, bench, results, &probe.snapshot(), &probe.run_meta())
                .expect("write json report");
            println!("\nJSON report written to {path}");
        }
    };
    if let Some(n) = threads {
        // Threaded wall-clock mode (--wall-clock is implied).
        let cells = threads::run(&thread_counts(n as usize), scale, probe.as_ref());
        print!("{}", threads::render(&cells));
        report("fig4-threads", &|w| threads::write_json(w, &cells));
    } else {
        if !rewrite_cache {
            println!("(proxy statement-template rewrite cache DISABLED)");
        }
        let cells = run(scale, rewrite_cache, probe.as_ref());
        print!("{}", render(&cells));
        report("fig4", &|w| fig4::write_json(w, &cells));
    }
    if let (Some(path), Some(probe)) = (trace_out, &probe) {
        json::write_trace(path, &probe.telemetry().flight().snapshot())
            .expect("write trace capture");
        println!("trace capture written to {path}");
    }
}
