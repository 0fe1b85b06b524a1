//! Flight-recorder capture explorer.
//!
//! Reads a capture produced by the flight recorder — JSONL (one event
//! per line) or Chrome Trace Event Format (as written by `--trace-out`,
//! Perfetto-loadable) — and answers the forensic questions the paper's
//! repair workflow starts from: what did a transaction do, who tainted
//! it, and whom does it taint.
//!
//! ```text
//! resildb-trace <capture> [OPTIONS]
//!
//!   <capture>            capture file (.jsonl or Chrome-trace JSON;
//!                        the format is sniffed from the content)
//!   --txn <id>           print the causal chain of one transaction:
//!                        its timeline, taint sources and damage closure
//!   --dot                emit forensic GraphViz DOT on stdout (with
//!                        --txn: that transaction red, its closure
//!                        orange; rule-pruned edges dashed gray)
//!   --ignore-table <t>   false-dependency rule: dismiss dependencies
//!                        mediated by table <t> (repeatable)
//!   --list               list every transaction in the capture
//!   --repair             print the repair/containment timeline (fence
//!                        raise/shrink/extend/lift and sweep phases)
//! ```
//!
//! With no option beyond the capture, prints a summary (window size,
//! drop count, per-kind histogram).
//!
//! Exit status: 0 on success, 2 on usage, I/O or parse errors.

use std::process::ExitCode;

use resildb_repair::trace::parse_capture;
use resildb_repair::{FalseDepRule, TraceExplorer};
use resildb_sim::TraceSnapshot;

struct Options {
    capture: String,
    txn: Option<i64>,
    dot: bool,
    list: bool,
    repair: bool,
    rules: Vec<FalseDepRule>,
}

fn usage() -> String {
    "usage: resildb-trace <capture> [--txn <id>] [--dot] [--ignore-table <t>] [--list] [--repair]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut capture = None;
    let mut opts = Options {
        capture: String::new(),
        txn: None,
        dot: false,
        list: false,
        repair: false,
        rules: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--txn" => {
                let v = it.next().ok_or_else(|| "--txn needs an id".to_string())?;
                opts.txn = Some(
                    v.parse::<i64>()
                        .map_err(|_| format!("invalid txn id `{v}`"))?,
                );
            }
            "--dot" => opts.dot = true,
            "--list" => opts.list = true,
            "--repair" => opts.repair = true,
            "--ignore-table" => {
                let t = it
                    .next()
                    .ok_or_else(|| "--ignore-table needs a table".to_string())?;
                opts.rules.push(FalseDepRule::IgnoreTable(t.clone()));
            }
            "--help" | "-h" => return Err(usage()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`\n{}", usage()))
            }
            file if capture.is_none() => capture = Some(file.to_string()),
            extra => return Err(format!("unexpected argument `{extra}`\n{}", usage())),
        }
    }
    opts.capture = capture.ok_or_else(usage)?;
    Ok(opts)
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = parse_args(args)?;
    let text = std::fs::read_to_string(&opts.capture)
        .map_err(|e| format!("cannot read {}: {e}", opts.capture))?;
    let events = parse_capture(&text).map_err(|e| format!("{}: {e}", opts.capture))?;
    let explorer = TraceExplorer::from_snapshot(TraceSnapshot::from_events(events));

    if opts.dot {
        print!("{}", explorer.to_dot(opts.txn, &opts.rules));
        return Ok(());
    }
    if opts.repair {
        print!("{}", explorer.repair_timeline());
        return Ok(());
    }
    if opts.list {
        for txn in explorer.transactions() {
            println!("{txn}");
        }
        return Ok(());
    }
    match opts.txn {
        Some(txn) => print!("{}", explorer.render_chain(txn)),
        None => print!("{}", explorer.summary()),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
