//! resildb's benchmark: a cost-model-free wall-clock measurement of the
//! tracked path (client → rewrite → wire → engine → WAL → `trans_dep`)
//! and of recovery (crash recovery and selective intrusion repair), with
//! layer attribution taken from the outside. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cli;
mod compare;
mod epoch;
mod pins;
mod run;
mod spec;
mod stats;
mod tape;
mod trace;

use std::path::Path;
use std::process::{Command as Process, ExitCode};
use std::time::Duration;

use resildb_analyze::{parse_json, JsonValue};

use crate::cli::Command;
use crate::run::{run_traced, run_untraced, Outcome};
use crate::spec::{Workload, WORKLOADS};

/// The benchmark's contract with the acceptance driver, compiled in so
/// that `compare` and the defaults can never drift from it.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn run_seconds() -> u64 {
    match parse_json(BENCHMARK_JSON)
        .ok()
        .and_then(|d| d.get("run_seconds").cloned())
    {
        Some(JsonValue::Number(s)) if s >= 1.0 => s as u64,
        _ => 15,
    }
}

fn one_run(w: &'static Workload, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let budget = Duration::from_secs(seconds);
    if traced {
        run_traced(w, seed, budget)
    } else {
        run_untraced(w, seed, budget)
    }
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Process::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Lines of Rust under `crates/` of the current directory — ROADMAP item
/// 3 tracks the workspace's size next to its speed. 0 outside a checkout.
fn workspace_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                workspace_lines(&path)
            } else if path.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&path).map_or(0, |s| s.lines().count() as u64)
            } else {
                0
            }
        })
        .sum()
}

fn meta_json(seed: u64, seconds: u64, repeat: usize) -> String {
    let sizes: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("\"{}\": {}", w.name, w.traffic.txns()))
        .collect();
    format!(
        "{{\"git_commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \"seed\": {seed}, \
         \"seconds\": {seconds}, \"repeat\": {repeat}, \"txns_per_epoch\": {{{}}}, \
         \"workspace_rust_lines\": {}}}",
        first_line_of("git", &["rev-parse", "HEAD"]),
        first_line_of("rustc", &["--version"]),
        std::thread::available_parallelism().map_or(0, usize::from),
        sizes.join(", "),
        workspace_lines(Path::new("crates")),
    )
}

/// `run` / `trace`: every workload, printed for people, optionally saved
/// for `compare`. Returns whether every run was correct.
fn all_workloads(
    traced: bool,
    seed: u64,
    seconds: u64,
    repeat: usize,
    out: Option<&str>,
) -> Result<bool, String> {
    let mut entries = Vec::new();
    let mut correct = true;
    let mut tps = std::collections::BTreeMap::new();
    for w in &WORKLOADS {
        for k in 0..repeat {
            let outcome = one_run(w, seed + k as u64, seconds, traced)?;
            print!("{}", outcome.table());
            correct &= outcome.correct();
            if let Some((_, v)) = outcome.metrics.iter().find(|(d, _)| d.name == "txn_per_s") {
                tps.entry(w.name).or_insert(*v);
            }
            entries.push(outcome.file_entry());
        }
    }
    if let (Some(t), Some(u)) = (tps.get("oltp_tracked"), tps.get("oltp_untracked")) {
        // Ungated: the paper's headline, derived from two gated numbers.
        println!(
            "derived.tracking_overhead_frac {:.4} (oltp_untracked {u:.1} txn/s ÷ oltp_tracked {t:.1} txn/s − 1)",
            u / t - 1.0
        );
    }
    if let Some(path) = out {
        let doc = format!(
            "{{\"meta\": {},\n \"runs\": [\n  {}\n ]}}\n",
            meta_json(seed, seconds, repeat),
            entries.join(",\n  ")
        );
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(correct)
}

fn dispatch(command: Command) -> Result<ExitCode, String> {
    match command {
        Command::Single {
            workload,
            seed,
            seconds,
            traced,
        } => {
            let outcome = one_run(workload, seed, seconds, traced)?;
            eprint!("{}", outcome.table());
            println!("{}", outcome.result_line());
            Ok(if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Command::All {
            traced,
            seed,
            seconds,
            repeat,
            out,
        } => Ok(
            if all_workloads(traced, seed, seconds, repeat, out.as_deref())? {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            },
        ),
        Command::Compare { a, b } => {
            let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let (report, code) = compare::compare(BENCHMARK_JSON, &read(&a)?, &read(&b)?)?;
            print!("{report}");
            Ok(ExitCode::from(code as u8))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args, run_seconds()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    dispatch(command).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
