//! Regenerates paper Figure 3: prints the dependency-graph DOT to stdout.
//! Pipe through GraphViz (`fig3 | dot -Tpng -o fig3.png`) to render.
//! `--json-out PATH` additionally emits a machine-readable report.

// Harness target: setup failures panic with context by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_bench::json::{self, Probe};
use resildb_core::telemetry::json::JsonWriter;

fn main() {
    let flags = json::flags_or_exit(&[], &["--json-out"]);
    let json_out = flags.value("--json-out");
    let probe = json_out.map(|_| Probe::new());
    let dot = resildb_bench::fig3::render(probe.as_ref());
    print!("{dot}");
    if let (Some(path), Some(probe)) = (json_out, probe) {
        let edges = dot.matches("->").count();
        let results = |w: &mut JsonWriter| {
            w.object(|w| {
                w.field("dot_bytes", dot.len()).field("edges", edges);
            });
        };
        json::write_report(path, "fig3", results, &probe.snapshot(), &probe.run_meta())
            .expect("write json report");
        eprintln!("JSON report written to {path}");
    }
}
