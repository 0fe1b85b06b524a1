//! A run: epochs (or traced rounds) of one workload repeated until the
//! time budget is spent, folded into the metrics `BENCHMARK.json` names.
//!
//! The budget decides how many *samples* a run takes, never how much work
//! a sample is: every epoch is the same fixed transaction count. A timing
//! is reported from the run's *best* epoch; count metrics come from the
//! first epochs every run completes (`MIN_EPOCHS`), so one seed gives
//! bit-identical counts however many more epochs fit.
//!
//! Why the best epoch and not the median one: the noise of the shared host
//! this runs on is one-sided — a neighbour can only slow an epoch down —
//! and comes in stretches that outlast most of a run, so the median epoch
//! measures the neighbours while the fastest epoch comes closest to the
//! software's own cost. Over ten runs of ten seeds the best epoch's
//! spread was a half to a third of the median epoch's (README.md).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::epoch::{run_epoch, user_row_counts, Checks, Epoch, EpochOptions};
use crate::pins::PIN_SEED;
use crate::spec::{MetricDef, Recovery, Workload, END_TO_END, MIN_EPOCHS, PER_LAYER};
use crate::stats::{median, percentile, percentile_supported};
use crate::trace::{gates, layer_sample, run_round};

/// The seed of epoch `i` of a run. Runs of neighbouring `--seed`s share
/// no epoch seeds.
pub fn epoch_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// The `--seed`.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics).
    pub traced: bool,
    /// Epochs (untraced) or rounds (traced) completed.
    pub epochs: usize,
    /// Latency samples behind each per-epoch percentile.
    pub samples_per_epoch: usize,
    /// Every metric of the run's kind, in `BENCHMARK.json` order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Gate outcomes over all epochs.
    pub checks: Checks,
}

impl Outcome {
    /// Whether every gate of every epoch held.
    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty()
    }

    /// The metrics as a JSON object body: `"name": {"value": v, "unit": "u"}, …`.
    fn metrics_json(&self) -> String {
        let mut out = String::new();
        for (i, (def, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out
    }

    /// `"correct": …, "attempted": …, "failed": …, "metrics": {…}`.
    fn result_body(&self) -> String {
        format!(
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
            self.correct(),
            self.checks.attempted,
            self.checks.failures.len(),
            self.metrics_json()
        )
    }

    /// The one-line JSON result the acceptance driver reads from the last
    /// line of standard output.
    pub fn result_line(&self) -> String {
        format!("{{{}}}", self.result_body())
    }

    /// This run as one element of a result file's `runs` array.
    pub fn file_entry(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"epochs\": {}, {}}}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.epochs,
            self.result_body()
        )
    }

    /// A table for people: every metric by name and unit, the sample
    /// counts behind the percentiles, and `failed_frac`.
    pub fn table(&self) -> String {
        let unit = if self.traced { "rounds" } else { "epochs" };
        let mut out = format!(
            "== {} (seed {}, {} {unit}, {} latency samples per epoch)\n",
            self.workload, self.seed, self.epochs, self.samples_per_epoch
        );
        for (def, value) in &self.metrics {
            let _ = writeln!(out, "  {:<40} {:>16.4} {}", def.name, value, def.unit);
        }
        let _ = writeln!(
            out,
            "  {:<40} {:>16.6} frac ({} of {} operations)",
            "failed_frac",
            self.checks.failures.len() as f64 / self.checks.attempted.max(1) as f64,
            self.checks.failures.len(),
            self.checks.attempted
        );
        for f in &self.checks.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }
}

/// The end-to-end metrics of one epoch, in `END_TO_END` order.
fn end_to_end_sample(e: &Epoch) -> [f64; END_TO_END.len()] {
    let mut ns: Vec<u64> = e.latencies.iter().map(|(_, ns)| *ns).collect();
    ns.sort_unstable();
    [
        e.setup_s,
        e.txn_per_s(),
        percentile(&ns, 0.50) as f64 / 1e3,
        e.serve.log_bytes as f64 / e.committed as f64,
        e.recover_s,
    ]
}

/// Tracking must be transparent: the same seed through the plain driver
/// ends with the same number of rows in every user table. Checked on
/// the workloads whose recovery leaves the user tables alone.
fn twin_gate(w: &Workload, seed: u64, tracked: &Epoch) -> Result<Checks, String> {
    let mut checks = Checks::default();
    let twin = Workload {
        tracked: false,
        ..*w
    };
    let plain = run_epoch(&twin, seed, EpochOptions::default())?;
    let (a, b) = (user_row_counts(&tracked.db)?, user_row_counts(&plain.db)?);
    checks.gate(a == b, || {
        format!("tracked row counts {a:?} != untracked {b:?}")
    });
    Ok(checks)
}

fn within_budget(i: usize, start: Instant, budget: Duration) -> bool {
    i < MIN_EPOCHS || start.elapsed() < budget
}

/// The untraced run: every end-to-end metric of `w`.
///
/// # Errors
///
/// A workload statement failed (see [`run_epoch`]).
pub fn run_untraced(w: &'static Workload, seed: u64, budget: Duration) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut samples: Vec<[f64; END_TO_END.len()]> = Vec::new();
    let mut checks = Checks::default();
    let mut i = 0;
    while within_budget(i, start, budget) {
        let mut e = run_epoch(w, epoch_seed(seed, i), EpochOptions::default())?;
        if i == 0 && w.tracked && w.threads == 1 && w.recovery == Recovery::Crash {
            checks.absorb(twin_gate(w, epoch_seed(seed, i), &e)?);
        }
        samples.push(end_to_end_sample(&e));
        checks.absorb(std::mem::take(&mut e.checks));
        i += 1;
    }
    let metrics = END_TO_END
        .iter()
        .enumerate()
        .map(|(k, def)| {
            let column: Vec<f64> = samples.iter().map(|s| s[k]).collect();
            let value = if is_timing(def) {
                best(def, &column)
            } else {
                column[..MIN_EPOCHS].iter().sum::<f64>() / MIN_EPOCHS as f64
            };
            (*def, value)
        })
        .collect();
    finish(w, seed, false, samples.len(), metrics, checks)
}

/// The traced run: every per-layer metric of `w`.
///
/// # Errors
///
/// A workload statement failed (see [`run_epoch`]).
pub fn run_traced(w: &'static Workload, seed: u64, budget: Duration) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut checks = Checks::default();
    let mut i = 0;
    while within_budget(i, start, budget) {
        let es = epoch_seed(seed, i);
        let mut round = run_round(w, es)?;
        checks.absorb(gates(w, &round, es, seed == PIN_SEED && i == 0));
        for e in [
            Some(&mut round.plain),
            Some(&mut round.traced),
            round.telemetry.as_mut(),
        ]
        .into_iter()
        .flatten()
        {
            checks.absorb(std::mem::take(&mut e.checks));
        }
        samples.push(layer_sample(&round));
        i += 1;
    }
    // The four self times are reported from one round — the quietest, the
    // one with the shortest wall — so that they still sum to the wall
    // printed with them.
    let walls: Vec<f64> = samples.iter().map(|s| s["trace.wall_ns"]).collect();
    let quietest = (0..walls.len())
        .min_by(|&a, &b| walls[a].total_cmp(&walls[b]))
        .unwrap_or(0);
    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let column: Vec<f64> = samples.iter().map(|s| s[def.name]).collect();
            let value = if SUMMING.contains(&def.name) {
                column[quietest]
            } else if def.name.ends_with("overhead_frac") {
                // A ratio of two epochs' walls: either may be the noisy one.
                median(&column)
            } else if is_timing(def) {
                best(def, &column)
            } else {
                column[0]
            };
            (*def, value)
        })
        .collect();
    finish(w, seed, true, samples.len(), metrics, checks)
}

/// The per-layer metrics that must add up: the wall and its four parts.
const SUMMING: [&str; 5] = [
    "trace.wall_ns",
    "tpcc.self_ns",
    "proxy.self_ns",
    "wire.self_ns",
    "engine.exec_ns",
];

/// Whether a metric is read off a clock (best epoch) rather than counted
/// (first epochs only, exact).
fn is_timing(def: &MetricDef) -> bool {
    matches!(def.unit, "s" | "ns" | "us" | "1/s")
}

/// The best of `values` in the metric's own direction.
fn best(def: &MetricDef, values: &[f64]) -> f64 {
    let pick = if def.higher_is_better {
        f64::max
    } else {
        f64::min
    };
    values.iter().copied().reduce(pick).unwrap_or(f64::NAN)
}

fn finish(
    w: &'static Workload,
    seed: u64,
    traced: bool,
    epochs: usize,
    metrics: Vec<(MetricDef, f64)>,
    checks: Checks,
) -> Result<Outcome, String> {
    if let Some((def, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!(
            "{} measured a non-finite {}: {v}",
            w.name, def.name
        ));
    }
    let samples_per_epoch = w.traffic.txns();
    debug_assert!(percentile_supported(samples_per_epoch, 0.99));
    Ok(Outcome {
        workload: w.name,
        seed,
        traced,
        epochs,
        samples_per_epoch,
        metrics,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use resildb_analyze::{parse_json, JsonValue};

    #[test]
    fn every_workload_supports_the_percentiles_it_reports() {
        for w in &WORKLOADS {
            assert!(
                percentile_supported(w.traffic.txns(), 0.99),
                "{} has too few samples per epoch for a p99",
                w.name
            );
        }
    }

    #[test]
    fn epoch_seeds_of_neighbouring_runs_do_not_overlap() {
        let a: Vec<u64> = (0..100).map(|i| epoch_seed(1, i)).collect();
        let b: Vec<u64> = (0..100).map(|i| epoch_seed(2, i)).collect();
        assert!(a.iter().all(|s| !b.contains(s)));
        assert_eq!(epoch_seed(7, 0), epoch_seed(7, 0));
    }

    #[test]
    fn timings_take_the_best_epoch_and_counts_the_first_epochs() {
        let timing: Vec<&str> = END_TO_END
            .iter()
            .filter(|d| is_timing(d))
            .map(|d| d.name)
            .collect();
        assert_eq!(timing, ["setup_s", "txn_per_s", "txn_p50_us", "recover_s"]);
        let def = |n: &str| *PER_LAYER.iter().find(|d| d.name == n).unwrap();
        assert!(is_timing(&def("engine.exec_ns")));
        assert!(!is_timing(&def("trace.overhead_frac")));
        assert_eq!(best(&def("engine.exec_ns"), &[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(best(&END_TO_END[1], &[3.0, 1.0, 2.0]), 3.0);
        assert!(END_TO_END[1].higher_is_better && !END_TO_END[0].higher_is_better);
        assert!(!is_timing(&def("proxy.rewrite_cache_hit_ratio")));
        assert!(!is_timing(&def("repair.undo_set_size")));
        for name in SUMMING {
            def(name);
        }
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let outcome = Outcome {
            workload: "oltp_tracked",
            seed: 3,
            traced: false,
            epochs: 4,
            samples_per_epoch: 2_000,
            metrics: vec![(END_TO_END[0], 0.0251), (END_TO_END[1], 3412.75)],
            checks: Checks {
                attempted: 10,
                failures: vec!["x".into()],
            },
        };
        let doc = parse_json(&outcome.result_line()).unwrap();
        let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("failed"), Some(&JsonValue::Number(1.0)));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("txn_per_s").unwrap().get("value"),
            Some(&JsonValue::Number(3412.75))
        );
        assert_eq!(
            m.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        assert!(parse_json(&outcome.file_entry()).is_ok());
        assert!(outcome.table().contains("FAILED: x"));
    }
}
