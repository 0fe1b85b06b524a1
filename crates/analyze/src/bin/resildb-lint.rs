//! Workload trackability linter.
//!
//! Classifies every statement of a SQL workload against the rewriting
//! proxy's soundness contract and reports coverage, reason histograms and
//! inferred derivable (false-dependency) columns. With no input files the
//! built-in TPC-C corpus is linted, which is what the CI coverage gate
//! runs.
//!
//! The `blast-radius` subcommand lifts the analysis from statements to
//! transaction profiles: it computes the static inter-profile conflict
//! graph and, per profile, the worst-case transitive damage closure a
//! compromise of that profile could cause (see DESIGN.md §11).
//!
//! ```text
//! resildb-lint [OPTIONS] [FILE...]
//!
//!   FILE                 workload file, one SQL statement per line
//!                        (blank lines and `--` comments ignored);
//!                        omitted = built-in TPC-C corpus
//!   --json               machine-readable JSON report on stdout
//!   --verbose            list every non-sound statement
//!   --granularity <g>    row (default) or column
//!   --min-coverage <f>   fail (exit 1) if sound coverage < f (0..=1)
//!   --baseline <file>    read the minimum coverage from a baseline file
//!                        (first non-comment line, a fraction in 0..=1)
//!
//! resildb-lint blast-radius [OPTIONS] [FILE...]
//!
//!   FILE                 workload file as above; transactions are grouped
//!                        at BEGIN/COMMIT boundaries. Omitted = built-in
//!                        TPC-C corpus with its five transaction classes.
//!   --json               machine-readable closure report on stdout
//!                        (also the CI baseline format)
//!   --dot                styled Graphviz conflict graph on stdout
//!   --seed <profile>     highlight <profile>'s damage closure in --dot
//!   --verbose            add per-profile footprints and the edge list
//!   --baseline <file>    gate closures against a JSON baseline: exit 1
//!                        on closure growth, exit 2 if the baseline is
//!                        missing or unparseable (never silently skipped)
//! ```
//!
//! Exit status: 0 on success, 1 when coverage falls below the requested
//! minimum or a closure grew beyond the baseline, 2 on usage or I/O
//! errors (including unreadable baselines).

use std::process::ExitCode;

use resildb_analyze::{group_transactions, Analyzer, BlastRadius, CoverageReport, Granularity};

struct Options {
    files: Vec<String>,
    json: bool,
    verbose: bool,
    granularity: Granularity,
    min_coverage: Option<f64>,
}

fn usage() -> String {
    "usage: resildb-lint [--json] [--verbose] [--granularity row|column] \
     [--min-coverage <0..1>] [--baseline <file>] [FILE...]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        json: false,
        verbose: false,
        granularity: Granularity::Row,
        min_coverage: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--verbose" | "-v" => opts.verbose = true,
            "--granularity" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--granularity needs a value".to_string())?;
                opts.granularity = match v.as_str() {
                    "row" => Granularity::Row,
                    "column" => Granularity::Column,
                    other => return Err(format!("unknown granularity `{other}`")),
                };
            }
            "--min-coverage" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--min-coverage needs a value".to_string())?;
                let f: f64 = v.parse().map_err(|_| format!("invalid coverage `{v}`"))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(format!("coverage `{v}` not in 0..=1"));
                }
                opts.min_coverage = Some(f);
            }
            "--baseline" => {
                let path = it
                    .next()
                    .ok_or_else(|| "--baseline needs a file".to_string())?;
                opts.min_coverage = Some(read_baseline(path)?);
            }
            "--help" | "-h" => return Err(usage()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`\n{}", usage()))
            }
            file => opts.files.push(file.to_string()),
        }
    }
    Ok(opts)
}

/// Reads a baseline file: the first line that is neither blank nor a `#`
/// comment must parse as a fraction in `0..=1`.
fn read_baseline(path: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: f64 = line
            .parse()
            .map_err(|_| format!("baseline {path}: invalid fraction `{line}`"))?;
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("baseline {path}: `{line}` not in 0..=1"));
        }
        return Ok(f);
    }
    Err(format!("baseline {path}: no coverage line found"))
}

/// Loads a workload file: one statement per line, blank lines and `--`
/// comment lines skipped, trailing `;` trimmed.
fn load_workload(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("--"))
        .map(|l| l.trim_end_matches(';').trim_end().to_string())
        .collect())
}

struct BlastOptions {
    files: Vec<String>,
    json: bool,
    dot: bool,
    seed: Option<String>,
    verbose: bool,
    baseline: Option<String>,
}

fn blast_usage() -> String {
    "usage: resildb-lint blast-radius [--json] [--dot] [--seed <profile>] \
     [--verbose] [--baseline <file>] [FILE...]"
        .to_string()
}

fn parse_blast_args(args: &[String]) -> Result<BlastOptions, String> {
    let mut opts = BlastOptions {
        files: Vec::new(),
        json: false,
        dot: false,
        seed: None,
        verbose: false,
        baseline: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--dot" => opts.dot = true,
            "--verbose" | "-v" => opts.verbose = true,
            "--seed" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--seed needs a profile".to_string())?;
                opts.seed = Some(v.clone());
            }
            "--baseline" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--baseline needs a file".to_string())?;
                opts.baseline = Some(v.clone());
            }
            "--help" | "-h" => return Err(blast_usage()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`\n{}", blast_usage()))
            }
            file => opts.files.push(file.to_string()),
        }
    }
    Ok(opts)
}

fn run_blast(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_blast_args(args)?;
    let (groups, corpus) = if opts.files.is_empty() {
        // Built-in corpus: the five TPC-C transaction classes, plus the
        // DDL so schema reconstruction and derivability inference work.
        (
            resildb_tpcc::profiled_corpus(),
            resildb_tpcc::statement_corpus(),
        )
    } else {
        let mut flat = Vec::new();
        for f in &opts.files {
            flat.extend(load_workload(f)?);
        }
        let (groups, _ambient) = group_transactions(&flat);
        (groups, flat)
    };
    if groups.is_empty() {
        return Err("no transactions found (BEGIN/COMMIT blocks or built-in corpus)".to_string());
    }
    let blast = BlastRadius::compute(&groups, &corpus);
    if let Some(seed) = &opts.seed {
        if blast.graph.profile(seed).is_none() {
            return Err(format!("--seed: no profile named `{seed}`"));
        }
    }
    if opts.dot {
        let seeds: std::collections::BTreeSet<String> = opts.seed.iter().cloned().collect();
        let closure = opts
            .seed
            .as_ref()
            .map(|s| blast.graph.closure(&[s.as_str()], true));
        print!("{}", blast.graph.to_dot(&seeds, closure.as_ref()));
    } else if opts.json {
        print!("{}", blast.render_json());
    } else {
        print!("{}", blast.render_text(opts.verbose));
    }
    if let Some(path) = &opts.baseline {
        // A missing or corrupt baseline must fail loudly (exit 2): a gate
        // that silently skips itself is worse than no gate.
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let verdict = blast
            .check_baseline(&text)
            .map_err(|e| format!("baseline {path}: {e}"))?;
        for w in &verdict.warnings {
            eprintln!("warning: {w}");
        }
        if !verdict.passed() {
            for e in &verdict.errors {
                eprintln!("FAIL: {e}");
            }
            eprintln!(
                "blast radius grew beyond {path}; review the new closure and regenerate \
                 the baseline with `resildb-lint blast-radius --json`"
            );
            return Ok(ExitCode::from(1));
        }
        eprintln!("OK: blast radius within baseline {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("blast-radius") {
        return run_blast(&args[1..]);
    }
    let opts = parse_args(args)?;
    let corpus: Vec<String> = if opts.files.is_empty() {
        resildb_tpcc::statement_corpus()
    } else {
        let mut all = Vec::new();
        for f in &opts.files {
            all.extend(load_workload(f)?);
        }
        all
    };
    let analyzer = Analyzer::new(opts.granularity);
    let report = CoverageReport::analyze(&analyzer, &corpus);
    if opts.json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text(opts.verbose));
    }
    if let Some(min) = opts.min_coverage {
        let got = report.sound_coverage();
        if got < min {
            eprintln!(
                "FAIL: sound coverage {:.2}% below required {:.2}%",
                got * 100.0,
                min * 100.0
            );
            return Ok(ExitCode::from(1));
        }
        eprintln!(
            "OK: sound coverage {:.2}% >= required {:.2}%",
            got * 100.0,
            min * 100.0
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
