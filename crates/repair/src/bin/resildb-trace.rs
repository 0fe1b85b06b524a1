//! Flight-recorder capture explorer.
//!
//! Reads a capture produced by the flight recorder — JSONL (one event
//! per line) or Chrome Trace Event Format (as written by `--trace-out`,
//! Perfetto-loadable) — and answers what a capture is the source of
//! truth for: what a transaction did and in what order, and what repair
//! did. It gives no damage closure: a capture holds only the read
//! dependencies harvested online, so closures come from the log, through
//! `ResilientDb::analyze` with `WhatIfSession`, or `repair_console`.
//!
//! ```text
//! resildb-trace <capture> [OPTIONS]
//!
//!   <capture>            capture file (.jsonl or Chrome-trace JSON;
//!                        the format is sniffed from the content)
//!   --txn <id>           print the event timeline of one transaction
//!   --list               list every transaction in the capture
//!   --repair             print the repair/containment timeline (fence
//!                        raise/shrink/extend/lift and sweep phases)
//! ```
//!
//! With no option beyond the capture, prints a summary (window size,
//! earlier events missing from it, per-kind histogram).
//!
//! Exit status: 0 on success, 2 on usage, I/O or parse errors.

use std::process::ExitCode;

use resildb_repair::trace::parse_capture;
use resildb_repair::TraceExplorer;
use resildb_sim::TraceSnapshot;

struct Options {
    capture: String,
    txn: Option<i64>,
    list: bool,
    repair: bool,
}

fn usage() -> String {
    "usage: resildb-trace <capture> [--txn <id>] [--list] [--repair]".to_string()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut capture = None;
    let mut opts = Options {
        capture: String::new(),
        txn: None,
        list: false,
        repair: false,
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
            "--list" => opts.list = true,
            "--repair" => opts.repair = true,
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
        Some(txn) => print!("{}", explorer.render_txn(txn)),
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
