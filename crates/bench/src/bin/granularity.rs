//! Row- vs column-level tracking cost/accuracy comparison (paper §6).
//! Pass `--quick` for a reduced run.

// Harness target: setup failures panic with context by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]
fn main() {
    let quick = resildb_bench::json::flags_or_exit(&["--quick"], &[]).has("--quick");
    let t_detect = if quick { 40 } else { 150 };
    let cost = resildb_bench::granularity::run_cost_comparison(quick);
    let accuracy = resildb_bench::granularity::run_accuracy_comparison(t_detect);
    print!(
        "{}",
        resildb_bench::granularity::render(&cost, &accuracy, t_detect)
    );
}
