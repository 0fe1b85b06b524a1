//! Regenerates paper Figure 5: rolled-back transaction counts and saved
//! percentages vs T_detect for W in {2, 5}, tracking all dependencies vs
//! discarding false (ytd-mediated) dependencies. `--quick` reduces the
//! T_detect grid; `--json-out PATH` additionally emits a
//! machine-readable report.

// Harness target: setup failures panic with context by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_bench::fig5::Point;
use resildb_bench::json::{self, Probe};
use resildb_core::telemetry::json::JsonWriter;

fn write_points(w: &mut JsonWriter, points: &[Point]) {
    w.array(|w| {
        for p in points {
            w.object(|w| {
                w.field("w", p.w)
                    .field("t_detect", p.t_detect)
                    .field("rolled_back_all", p.rolled_back_all)
                    .field("saved_pct_all", p.saved_pct_all)
                    .field("rolled_back_filtered", p.rolled_back_filtered)
                    .field("saved_pct_filtered", p.saved_pct_filtered);
            });
        }
    });
}

fn main() {
    let flags = json::flags_or_exit(&["--quick"], &["--json-out"]);
    let t_detects: Vec<usize> = if flags.has("--quick") {
        vec![20, 60]
    } else {
        vec![50, 100, 200, 300, 400, 500, 600, 700]
    };
    let json_out = flags.value("--json-out");
    let probe = json_out.map(|_| Probe::new());
    let points = resildb_bench::fig5::run(&[2, 5], &t_detects, probe.as_ref());
    print!("{}", resildb_bench::fig5::render(&points));
    if let (Some(path), Some(probe)) = (json_out, probe) {
        json::write_report(
            path,
            "fig5",
            |w| write_points(w, &points),
            &probe.snapshot(),
            &probe.run_meta(),
        )
        .expect("write json report");
        println!("\nJSON report written to {path}");
    }
}
