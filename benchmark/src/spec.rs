//! What the benchmark runs and what it reports: the five workloads with
//! their fixed sizes, and the metric tables. `BENCHMARK.json` at the
//! repository root repeats the names, units and directions; a unit test
//! holds the two in step.

/// Buffer-pool pages of every database the benchmark opens: the whole
/// TPC-C population stays resident, so page accounting runs but never
/// evicts.
pub const POOL_PAGES: usize = 8_192;

/// TPC-C scale factor `W` (`TpccConfig::scaled`): two warehouses, one
/// per thread of the two-thread workload.
pub const WAREHOUSES: u32 = 2;

/// Epochs every run completes even when `--seconds` is shorter than one.
/// End-to-end count metrics are the mean over exactly these first epochs,
/// so they never depend on how many more the time budget happened to
/// admit: one seed, one value, bit for bit.
pub const MIN_EPOCHS: usize = 3;

/// The transaction stream of a workload's measured phase. Sizes are
/// fixed counts, never durations: per-transaction cost grows with the
/// history, so only equal work is comparable across commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// `n` transactions drawn from the standard TPC-C weights.
    Standard(usize),
    /// The paper's read/write mix (2 New-Order, 2 Payment, 1 Delivery per
    /// unit), `units` in total, split evenly across the threads.
    ReadWrite {
        /// Mix units over all threads.
        units: usize,
    },
    /// `n` read-only transactions: Stock-Level, Stock-Level, Order-Status,
    /// repeated.
    Reads(usize),
}

impl Traffic {
    /// Transactions the measured phase attempts, over all threads.
    pub fn txns(self) -> usize {
        match self {
            Traffic::Standard(n) | Traffic::Reads(n) => n,
            Traffic::ReadWrite { units } => units * 5,
        }
    }
}

/// What "recovering the database" means at the end of an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Crash recovery: `save_wal` → `open_from_wal` of the epoch's log.
    Crash,
    /// Intrusion recovery: quiesced `analyze → plan → execute` undoing
    /// the forged payment injected into the stream.
    Repair,
}

/// One benchmark workload. An *epoch* of it is: fresh database, schema,
/// load (+ `grow_txns` of history), then the fixed `traffic`, then the
/// `recovery`. A run repeats epochs with seeds `s, s+1, …` until its time
/// budget is spent, so every epoch sees the same history-growth regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Whether traffic flows through the tracking proxy.
    pub tracked: bool,
    /// Client threads (= connections). Never above 2: the sandbox has
    /// two cores.
    pub threads: usize,
    /// Standard-mix transactions run during set-up to grow the database.
    pub grow_txns: usize,
    /// The measured transaction stream.
    pub traffic: Traffic,
    /// Position in the stream before which the annotated forged payment
    /// is injected (repair workload only).
    pub attack_at: Option<usize>,
    /// What the epoch's recovery phase does.
    pub recovery: Recovery,
}

#[cfg(test)]
impl Workload {
    /// The same path with `1/by` of the work, for unit tests.
    pub fn scaled_down(&self, by: usize) -> Workload {
        Workload {
            grow_txns: self.grow_txns / by,
            attack_at: self.attack_at.map(|a| a / by),
            traffic: match self.traffic {
                Traffic::Standard(n) => Traffic::Standard(n / by),
                Traffic::Reads(n) => Traffic::Reads(n / by),
                Traffic::ReadWrite { units } => Traffic::ReadWrite { units: units / by },
            },
            ..*self
        }
    }
}

/// The five workloads. Why each exists is recorded next to its name in
/// `BENCHMARK.json` and at length in `README.md`.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "oltp_tracked",
        tracked: true,
        threads: 1,
        grow_txns: 0,
        traffic: Traffic::Standard(2_000),
        attack_at: None,
        recovery: Recovery::Crash,
    },
    Workload {
        name: "oltp_untracked",
        tracked: false,
        threads: 1,
        grow_txns: 0,
        traffic: Traffic::Standard(2_000),
        attack_at: None,
        recovery: Recovery::Crash,
    },
    Workload {
        name: "oltp_tracked_2t",
        tracked: true,
        threads: 2,
        grow_txns: 0,
        traffic: Traffic::ReadWrite { units: 400 },
        attack_at: None,
        recovery: Recovery::Crash,
    },
    Workload {
        name: "reads_tracked",
        tracked: true,
        threads: 1,
        grow_txns: 1_000,
        traffic: Traffic::Reads(1_000),
        attack_at: None,
        recovery: Recovery::Crash,
    },
    Workload {
        name: "repair",
        tracked: true,
        threads: 1,
        grow_txns: 0,
        traffic: Traffic::Standard(2_000),
        attack_at: Some(500),
        recovery: Recovery::Repair,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Name, unit and direction of a reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"better": "higher"` in `BENCHMARK.json`; otherwise lower is better.
    pub higher_is_better: bool,
}

/// A metric for which lower is better.
const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

/// A metric for which higher is better.
const fn up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The end-to-end metrics, printed by every untraced run of every
/// workload. All are defined — and non-zero — on all five workloads.
pub const END_TO_END: [MetricDef; 5] = [
    m("setup_s", "s"),
    up("txn_per_s", "1/s"),
    m("txn_p50_us", "us"),
    m("log_bytes_per_txn", "B"),
    m("recover_s", "s"),
];

/// The per-layer metrics, printed by every traced run. Layer = crate
/// name. A metric whose layer a workload does not exercise reads 0 there
/// (e.g. `proxy.self_ns` untracked, `repair.*` off the repair workload).
pub const PER_LAYER: [MetricDef; 57] = [
    m("trace.wall_ns", "ns"),
    m("trace.overhead_frac", "frac"),
    m("tpcc.self_ns", "ns"),
    m("tpcc.client_stmts_per_txn", "count"),
    m("tpcc.txn_p99_us", "us"),
    m("tpcc.new_order_p50_us", "us"),
    m("tpcc.payment_p50_us", "us"),
    m("tpcc.delivery_p50_us", "us"),
    m("tpcc.order_status_p50_us", "us"),
    m("tpcc.stock_level_p50_us", "us"),
    m("proxy.self_ns", "ns"),
    m("proxy.downstream_stmts_per_client_stmt", "count"),
    m("proxy.extra_stmts_per_txn", "count"),
    up("proxy.rewrite_cache_hit_ratio", "frac"),
    m("proxy.deps_per_txn", "count"),
    m("proxy.trans_dep_rows_per_txn", "count"),
    m("sql.scan_ns", "ns"),
    m("sql.parse_ns", "ns"),
    m("sql.parse_ns_per_stmt", "ns"),
    m("wire.self_ns", "ns"),
    m("wire.round_trips_per_txn", "count"),
    m("wire.bytes_per_txn", "B"),
    m("engine.exec_ns", "ns"),
    m("engine.exec_ns_per_stmt", "ns"),
    up("engine.stmt_cache_hit_ratio", "frac"),
    m("engine.rows_touched_per_txn", "count"),
    m("engine.wal_records_per_txn", "count"),
    m("engine.wal_bytes_per_txn", "B"),
    m("engine.log_forces_per_txn", "count"),
    m("engine.deadlock_retries_per_txn", "count"),
    m("engine.wal_save_ns", "ns"),
    m("engine.wal_bytes_saved", "B"),
    m("engine.wal_recover_ns", "ns"),
    up("sim.pool_hit_ratio", "frac"),
    m("sim.page_touches_per_txn", "count"),
    up("telemetry.recording_on_txn_per_s", "1/s"),
    m("telemetry.recording_overhead_frac", "frac"),
    m("telemetry.flight_dropped", "count"),
    m("repair.analyze_ns", "ns"),
    m("repair.log_scan_ns", "ns"),
    m("repair.log_records", "count"),
    m("repair.correlate_ns", "ns"),
    m("repair.graph_build_ns", "ns"),
    m("repair.closure_ns", "ns"),
    m("repair.compensate_ns", "ns"),
    m("repair.undo_set_size", "count"),
    m("repair.compensating_stmts", "count"),
    m("repair.tracked_total", "count"),
    up("repair.saved_frac", "frac"),
    m("repair.ns_per_log_record", "ns"),
    m("repair.ns_per_compensating_stmt", "ns"),
    m("tpcc.client_stmts", "count"),
    m("tpcc.committed_new_order", "count"),
    m("tpcc.committed_payment", "count"),
    m("tpcc.committed_delivery", "count"),
    m("tpcc.committed_order_status", "count"),
    m("tpcc.committed_stock_level", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use resildb_analyze::{parse_json, JsonValue};

    fn listed(list: &JsonValue) -> Vec<(String, String, bool)> {
        list.as_array()
            .expect("metric list")
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better") == "higher")
            })
            .collect()
    }

    fn defs(defs: &[MetricDef]) -> Vec<(String, String, bool)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.higher_is_better))
            .collect()
    }

    #[test]
    fn benchmark_json_agrees_with_the_tables_here() {
        let doc = parse_json(crate::BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(listed(doc.get("end_to_end").unwrap()), defs(&END_TO_END));
        assert_eq!(listed(doc.get("per_layer").unwrap()), defs(&PER_LAYER));
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn workloads_respect_the_two_core_limit_and_have_unique_names() {
        for w in &WORKLOADS {
            assert!((1..=2).contains(&w.threads), "{}", w.name);
            assert_eq!(workload(w.name), Some(w));
            if let Some(at) = w.attack_at {
                assert!(at < w.traffic.txns());
                assert_eq!(w.recovery, Recovery::Repair);
            }
        }
        assert_eq!(workload("nope"), None);
        assert_eq!(Traffic::ReadWrite { units: 400 }.txns(), 2_000);
    }
}
