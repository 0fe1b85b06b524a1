//! Regenerates paper Figure 3: prints the dependency-graph DOT to stdout.
//! Pipe through GraphViz (`fig3 | dot -Tpng -o fig3.png`) to render.
//! `--json-out PATH` additionally emits a machine-readable report.

// Harness target: setup failures panic with context by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_bench::json::{self, Probe};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_out = json::flag_value_or_exit(&args, "--json-out");
    let probe = json_out.as_ref().map(|_| Probe::new());
    let dot = resildb_bench::fig3::render(probe.as_ref());
    print!("{dot}");
    if let (Some(path), Some(probe)) = (json_out, probe) {
        let results = format!(
            "{{\"dot_bytes\":{},\"edges\":{}}}",
            dot.len(),
            dot.matches("->").count()
        );
        json::write_report(
            &path,
            "fig3",
            &results,
            &probe.snapshot(),
            &probe.run_meta(),
        )
        .expect("write json report");
        eprintln!("JSON report written to {path}");
    }
}
