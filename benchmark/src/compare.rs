//! `compare <a.json> <b.json>`: holds the runs of one result file against
//! another, metric by metric and workload by workload, with the direction
//! and regression bound `BENCHMARK.json` fixes for each end-to-end metric.
//!
//! This is the tool behind "two sets of runs of the same code agree": a
//! metric of `b` is a *regression* when its median is worse than `a`'s by
//! more than the bound; it is *unresolved* — neither cleared nor
//! condemned — when the run-to-run spread of either side exceeds the
//! bound, unless every run of `b` reads better than every run of `a`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use resildb_analyze::{parse_json, JsonValue};

use crate::stats::{median, spread};

/// Direction and bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of `a`'s median by which `b` may be worse.
    pub bound: f64,
}

/// Reads the end-to-end gates out of `BENCHMARK.json`.
pub fn gates_of(benchmark_json: &str) -> Result<Vec<Gate>, String> {
    let doc = parse_json(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("end_to_end entry lacks `{k}`"))
            };
            let bound = match m.get("bound") {
                Some(JsonValue::Number(b)) => *b,
                _ => return Err("end_to_end entry lacks `bound`".to_string()),
            };
            Ok(Gate {
                name: text("name")?.to_string(),
                higher_is_better: match text("better")? {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better = `{other}`")),
                },
                bound,
            })
        })
        .collect()
}

/// `(workload, metric) → one value per untraced run`, plus the number of
/// runs that reported failures.
#[derive(Debug, Default, PartialEq)]
pub struct ResultFile {
    /// Values by workload and metric.
    pub values: BTreeMap<(String, String), Vec<f64>>,
    /// Runs with `correct: false`.
    pub incorrect_runs: usize,
}

/// Parses a result file written by `run --out`.
pub fn parse_results(text: &str) -> Result<ResultFile, String> {
    let doc = parse_json(text)?;
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or("result file has no `runs` array")?;
    let mut file = ResultFile::default();
    for run in runs {
        if run.get("trace") != Some(&JsonValue::Number(0.0)) {
            continue; // per-layer metrics have no bound to hold them to
        }
        let workload = run
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("run without a workload")?;
        if run.get("correct") != Some(&JsonValue::Bool(true)) {
            file.incorrect_runs += 1;
        }
        let metrics = run
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or("run without metrics")?;
        for (name, m) in metrics {
            let Some(JsonValue::Number(v)) = m.get("value") else {
                return Err(format!("{workload}.{name} has no numeric value"));
            };
            file.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(*v);
        }
    }
    Ok(file)
}

/// What `compare` concluded about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b`'s median is worse by more than the bound.
    Regression,
    /// The spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

/// Judges one metric: `a` and `b` are the runs' values.
pub fn judge(gate: &Gate, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if gate.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let noisy = [a, b]
        .iter()
        .filter_map(|v| spread(v))
        .any(|s| s > gate.bound);
    let b_always_better = a.iter().all(|x| {
        b.iter()
            .all(|y| if gate.higher_is_better { y > x } else { y < x })
    });
    let verdict = if noisy && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > gate.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// Compares two result files; returns the report and the exit code:
/// 0 all within bounds, 1 a regression, 2 no regression but something
/// unresolved.
pub fn compare(benchmark_json: &str, a_text: &str, b_text: &str) -> Result<(String, i32), String> {
    let gates = gates_of(benchmark_json)?;
    let (a, b) = (parse_results(a_text)?, parse_results(b_text)?);
    let mut out = String::new();
    let (mut regressions, mut unresolved) = (0, 0);
    let _ = writeln!(
        out,
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "worse by", "bound"
    );
    for ((workload, metric), av) in &a.values {
        let Some(gate) = gates.iter().find(|g| &g.name == metric) else {
            continue;
        };
        let Some(bv) = b.values.get(&(workload.clone(), metric.clone())) else {
            let _ = writeln!(out, "{workload:<18} {metric:<20} missing from b");
            regressions += 1;
            continue;
        };
        let (verdict, worse_by) = judge(gate, av, bv);
        match verdict {
            Verdict::Ok => {}
            Verdict::Regression => regressions += 1,
            Verdict::Unresolved => unresolved += 1,
        }
        let _ = writeln!(
            out,
            "{workload:<18} {metric:<20} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
            median(av),
            median(bv),
            100.0 * worse_by,
            100.0 * gate.bound,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved (spread exceeds bound)",
            }
        );
    }
    for (name, file) in [("a", &a), ("b", &b)] {
        if file.incorrect_runs > 0 {
            let _ = writeln!(
                out,
                "{name}: {} run(s) failed their correctness gates",
                file.incorrect_runs
            );
            regressions += 1;
        }
    }
    let code = if regressions > 0 {
        1
    } else if unresolved > 0 {
        2
    } else {
        0
    };
    let _ = writeln!(
        out,
        "{regressions} regression(s), {unresolved} unresolved — exit {code}"
    );
    Ok((out, code))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "txn_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;

    fn file(tps: &[f64], setup: f64, correct: bool) -> String {
        let runs: Vec<String> = tps
            .iter()
            .map(|t| {
                format!(
                    r#"{{"workload": "w", "seed": 1, "trace": 0, "correct": {correct},
                        "metrics": {{"txn_per_s": {{"value": {t}, "unit": "1/s"}},
                                     "setup_s": {{"value": {setup}, "unit": "s"}}}}}}"#
                )
            })
            .collect();
        format!(r#"{{"meta": {{}}, "runs": [{}]}}"#, runs.join(","))
    }

    #[test]
    fn direction_and_bound_come_from_benchmark_json() {
        let gates = gates_of(BENCH).unwrap();
        assert_eq!(gates.len(), 2);
        assert!(gates[0].higher_is_better && !gates[1].higher_is_better);
        assert_eq!(gates[1].bound, 0.25);
        assert!(gates_of(crate::BENCHMARK_JSON).unwrap().len() >= 2);
    }

    #[test]
    fn equal_files_pass_and_a_slowdown_beyond_the_bound_fails() {
        let base = file(&[1000.0, 1010.0, 990.0, 1005.0], 1.0, true);
        let (_, code) = compare(BENCH, &base, &base).unwrap();
        assert_eq!(code, 0);
        // 8 % slower: inside the 10 % bound.
        let near = file(&[920.0, 930.0, 910.0, 925.0], 1.2, true);
        assert_eq!(compare(BENCH, &base, &near).unwrap().1, 0);
        // 15 % slower: a regression; faster is never one.
        let slow = file(&[850.0, 860.0, 840.0, 855.0], 1.0, true);
        let (report, code) = compare(BENCH, &base, &slow).unwrap();
        assert_eq!(code, 1, "{report}");
        assert!(report.contains("REGRESSION"));
        assert_eq!(compare(BENCH, &slow, &base).unwrap().1, 0);
        // Lower-is-better direction: set-up 30 % slower fails its 25 %.
        let heavy = file(&[1000.0, 1010.0, 990.0, 1005.0], 1.3, true);
        assert_eq!(compare(BENCH, &base, &heavy).unwrap().1, 1);
        // A run that failed its gates fails the comparison.
        let broken = file(&[1000.0, 1010.0, 990.0, 1005.0], 1.0, false);
        assert_eq!(compare(BENCH, &base, &broken).unwrap().1, 1);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_unless_b_always_wins() {
        let gate = &gates_of(BENCH).unwrap()[0];
        let noisy = [700.0, 1000.0, 1300.0, 900.0, 1100.0];
        assert_eq!(judge(gate, &noisy, &noisy).0, Verdict::Unresolved);
        let far_better = [2000.0, 2100.0, 2600.0, 1900.0];
        assert_eq!(judge(gate, &noisy, &far_better).0, Verdict::Ok);
        let steady = [1000.0, 1001.0, 999.0, 1000.5];
        assert_eq!(judge(gate, &steady, &steady).0, Verdict::Ok);
        // A single run per side has no spread to speak of.
        assert_eq!(judge(gate, &[1000.0], &[800.0]).0, Verdict::Regression);
        let (_, code) = compare(BENCH, &file(&noisy, 1.0, true), &file(&noisy, 1.0, true)).unwrap();
        assert_eq!(code, 2);
    }

    #[test]
    fn traced_runs_and_malformed_files_are_handled() {
        let traced = r#"{"runs": [{"workload": "w", "trace": 1, "correct": true,
            "metrics": {"engine.exec_ns": {"value": 1, "unit": "ns"}}}]}"#;
        assert_eq!(parse_results(traced).unwrap(), ResultFile::default());
        assert!(parse_results("{}").is_err());
        assert!(parse_results("not json").is_err());
    }
}
