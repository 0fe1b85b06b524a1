//! Tracking-overhead ablation (paper §6 optimisation discussion).
//! Pass `--quick` for a reduced run.

// Harness target: setup failures panic with context by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]
fn main() {
    let quick = resildb_bench::json::flags_or_exit(&["--quick"], &[]).has("--quick");
    print!(
        "{}",
        resildb_bench::ablation::render(&resildb_bench::ablation::run(quick))
    );
}
