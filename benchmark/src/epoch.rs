//! One epoch of one workload: set-up → fixed traffic → checks → recovery.
//!
//! Everything runs in this process with `CostModel::free()`, realtime
//! sleeping off, `LinkProfile::local()`, `Flavor::Postgres` and telemetry
//! off (unless the epoch is the telemetry probe): what the clock sees is
//! the software itself. All loops are closed — a client issues its next
//! statement when the previous one returns.

use std::collections::BTreeSet;
use std::sync::Barrier;
use std::time::Instant;

use resildb_core::{
    prepare_database, Connection, CostModel, Database, Driver, FalseDepRule, Flavor, ProxyConfig,
    RepairController, RepairOptions, SimContext, Telemetry, TrackingProxy, Value,
};
use resildb_engine::{Row, RowId};
use resildb_repair::{adapters::adapter_for, TxnCorrelation};
use resildb_tpcc::{
    Attack, AttackKind, Loader, Mix, TpccConfig, TpccRunner, TxnKind, ATTACK_LABEL, TPCC_TABLES,
};
use resildb_wire::InterceptDriver;

use crate::spec::{Recovery, Traffic, Workload, POOL_PAGES, WAREHOUSES};
use crate::tape::{self, elapsed_ns, Downstream, SharedTape, Tape, TimedConn};

/// The flavor every benchmark database emulates.
pub const FLAVOR: Flavor = Flavor::Postgres;

/// The forged payment the repair workload injects and undoes.
const ATTACK: Attack = Attack {
    kind: AttackKind::ForgedPayment,
    w_id: 1,
    d_id: 1,
    target_id: 1,
};

/// The victim customer's user-visible columns, read right before the
/// attack and again after repair.
const VICTIM_SQL: &str = "SELECT c_balance, c_ytd_payment, c_payment_cnt, c_delivery_cnt \
     FROM customer WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = 1";

/// How one epoch is instrumented.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochOptions {
    /// Record tapes at the client and downstream boundaries, and time
    /// the repair sub-phases.
    pub traced: bool,
    /// Run with `Telemetry::recording()` (and the flight recorder) wired
    /// through the simulation context and the proxy.
    pub telemetry: bool,
}

/// Outcome of the correctness gates of one epoch (or one run).
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted: transactions plus gate evaluations.
    pub attempted: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
}

impl Checks {
    /// Evaluates one gate.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Folds another set of outcomes into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Cumulative engine/simulation counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// WAL bytes appended (`SimStats.log_bytes`).
    pub log_bytes: u64,
    /// Log forces.
    pub log_forces: u64,
    /// Rows touched by statements.
    pub rows_touched: u64,
    /// Link round trips.
    pub round_trips: u64,
    /// Bytes carried over the link.
    pub network_bytes: u64,
    /// Buffer-pool hits.
    pub page_hits: u64,
    /// Buffer-pool misses.
    pub page_misses: u64,
    /// Parsed-statement cache hits.
    pub stmt_hits: u64,
    /// Parsed-statement cache misses.
    pub stmt_misses: u64,
}

impl Counters {
    fn of(db: &Database) -> Self {
        let s = db.sim().stats();
        let sc = db.stmt_cache_stats();
        Self {
            log_bytes: s.log_bytes.get(),
            log_forces: s.log_forces.get(),
            rows_touched: s.rows_touched.get(),
            round_trips: s.round_trips.get(),
            network_bytes: s.network_bytes.get(),
            page_hits: s.page_hits.get(),
            page_misses: s.page_misses.get(),
            stmt_hits: sc.hits,
            stmt_misses: sc.misses,
        }
    }

    fn since(self, earlier: Self) -> Self {
        Self {
            log_bytes: self.log_bytes - earlier.log_bytes,
            log_forces: self.log_forces - earlier.log_forces,
            rows_touched: self.rows_touched - earlier.rows_touched,
            round_trips: self.round_trips - earlier.round_trips,
            network_bytes: self.network_bytes - earlier.network_bytes,
            page_hits: self.page_hits - earlier.page_hits,
            page_misses: self.page_misses - earlier.page_misses,
            stmt_hits: self.stmt_hits - earlier.stmt_hits,
            stmt_misses: self.stmt_misses - earlier.stmt_misses,
        }
    }
}

/// What `trans_dep` holds at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransDep {
    /// Rows (long dependency sets spill onto several).
    pub rows: u64,
    /// Distinct `tr_id`s: tracked transactions on record.
    pub tr_ids: u64,
    /// Dependency ids over all rows.
    pub deps: u64,
}

impl TransDep {
    fn of(db: &Database) -> Result<Self, String> {
        let r = db
            .session()
            .query("SELECT tr_id, dep_tr_ids FROM trans_dep")
            .map_err(|e| format!("reading trans_dep: {e}"))?;
        let mut ids = BTreeSet::new();
        let mut deps = 0;
        for row in &r.rows {
            if let Value::Int(id) = row[0] {
                ids.insert(id);
            }
            if let Value::Str(s) = &row[1] {
                deps += s.split_whitespace().count() as u64;
            }
        }
        Ok(Self {
            rows: r.rows.len() as u64,
            tr_ids: ids.len() as u64,
            deps,
        })
    }
}

/// Timings and counts of the repair workload's recovery phase.
#[derive(Debug, Clone, Default)]
pub struct RepairDetail {
    /// `RepairController::analyze` (scan + correlate + graph build).
    pub analyze_ns: u64,
    /// `RepairController::plan` (the damage closure).
    pub plan_ns: u64,
    /// `RepairController::execute` (the compensation sweep).
    pub execute_ns: u64,
    /// Stand-alone `adapter.scan` (traced epochs only).
    pub log_scan_ns: u64,
    /// Stand-alone `TxnCorrelation::from_records` (traced epochs only).
    pub correlate_ns: u64,
    /// Normalized log records the analysis read.
    pub log_records: u64,
    /// Transactions rolled back.
    pub undo_set_size: u64,
    /// Compensating statements executed.
    pub compensating_stmts: u64,
    /// Tracked transactions at repair time.
    pub tracked_total: u64,
    /// Tracked transactions whose effects survived.
    pub saved: u64,
}

/// What one client thread measured.
#[derive(Debug)]
struct ThreadRun {
    latencies: Vec<(TxnKind, u64)>,
    committed: u64,
    deadlock_retries: u64,
    busy_ns: u64,
    victim_before: Option<Vec<Value>>,
}

/// Everything one epoch measured.
pub struct Epoch {
    /// Schema + load + history growth + proxy installation.
    pub setup_s: f64,
    /// Wall time of the measured traffic (barrier release → last join).
    pub serve_s: f64,
    /// Per-transaction client latency, by kind, over all threads.
    pub latencies: Vec<(TxnKind, u64)>,
    /// Transactions committed by the measured traffic.
    pub committed: u64,
    /// Deadlock victims retried.
    pub deadlock_retries: u64,
    /// Sum of the threads' own wall times (= `serve_s` single-threaded).
    pub busy_ns: u64,
    /// Counter deltas over the measured traffic.
    pub serve: Counters,
    /// `trans_dep` after set-up and after the traffic (tracked only).
    pub trans_dep: Option<(TransDep, TransDep)>,
    /// Rewrite-cache hits and misses over the whole epoch.
    pub rewrite_cache: (u64, u64),
    /// WAL records after set-up and after the traffic (traced only).
    pub wal_records: Option<(u64, u64)>,
    /// Recovery phase wall time: crash recovery or intrusion repair.
    pub recover_s: f64,
    /// `save_wal` (crash recovery only).
    pub wal_save_ns: u64,
    /// Bytes `save_wal` produced.
    pub wal_bytes_saved: u64,
    /// `open_from_wal` (crash recovery only).
    pub wal_recover_ns: u64,
    /// Repair timings and counts (repair workload only).
    pub repair: Option<RepairDetail>,
    /// Flight-recorder events dropped (telemetry epochs only).
    pub flight_dropped: u64,
    /// Client-boundary tapes, one per thread (traced only).
    pub client_tapes: Vec<Tape>,
    /// Downstream tapes in connection-opening order (traced only).
    pub downstream_tapes: Vec<Tape>,
    /// The database content right after the traffic, before recovery
    /// touches it — what the engine replay must reproduce (traced only).
    pub served_state: Option<DbState>,
    /// Gate outcomes.
    pub checks: Checks,
    /// The live database (after recovery), for the twin check.
    pub db: Database,
}

impl Epoch {
    /// Committed transactions per second of measured wall.
    pub fn txn_per_s(&self) -> f64 {
        self.committed as f64 / self.serve_s
    }

    /// Committed transactions of `kind`.
    pub fn committed_of(&self, kind: TxnKind) -> u64 {
        self.latencies.iter().filter(|(k, _)| *k == kind).count() as u64
    }
}

/// The transaction kinds each thread runs, in order.
fn streams(w: &Workload, mix_seed: u64) -> Vec<Vec<TxnKind>> {
    match w.traffic {
        Traffic::Standard(n) => vec![Mix::standard(n, mix_seed).kinds().to_vec()],
        Traffic::ReadWrite { units } => (0..w.threads)
            .map(|_| Mix::read_write(units / w.threads).kinds().to_vec())
            .collect(),
        // Two Stock-Levels per Order-Status, not one: with an even split
        // the median latency would sit in the gap between the two kinds'
        // modes and jump from run to run; at 2:1 it sits inside the
        // Stock-Level mode (the paper's read-intensive unit).
        Traffic::Reads(n) => vec![(0..n)
            .map(|i| {
                if i % 3 == 2 {
                    TxnKind::OrderStatus
                } else {
                    TxnKind::StockLevel
                }
            })
            .collect()],
    }
}

fn serve_thread(
    conn: &mut dyn Connection,
    runner: &mut TpccRunner,
    kinds: &[TxnKind],
    attack_at: Option<usize>,
    db: &Database,
    barrier: &Barrier,
) -> Result<ThreadRun, String> {
    let mut latencies = Vec::with_capacity(kinds.len());
    let mut victim_before = None;
    let committed_before = runner.stats.committed;
    let retries_before = runner.stats.deadlock_retries;
    barrier.wait();
    let start = Instant::now();
    for (i, &kind) in kinds.iter().enumerate() {
        if attack_at == Some(i) {
            let row = db.session().query(VICTIM_SQL).map_err(|e| e.to_string())?;
            victim_before = row.rows.into_iter().next();
            ATTACK
                .execute(conn)
                .map_err(|e| format!("attack failed: {e}"))?;
        }
        let t = Instant::now();
        runner
            .run(conn, kind)
            .map_err(|e| format!("{} #{i} failed: {e}", kind.class_name()))?;
        latencies.push((kind, elapsed_ns(t)));
    }
    Ok(ThreadRun {
        latencies,
        committed: runner.stats.committed - committed_before,
        deadlock_retries: runner.stats.deadlock_retries - retries_before,
        busy_ns: elapsed_ns(start),
        victim_before,
    })
}

/// The full content of a database: every table by name, every live row
/// by row id.
pub type DbState = Vec<(String, Vec<(RowId, Row)>)>;

/// Every table of `db`, sorted by name — the state two databases are
/// compared by.
pub fn full_state(db: &Database) -> Result<DbState, String> {
    let mut names = db.table_names();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let rows = db
                .snapshot_rows(&name)
                .map_err(|e| format!("snapshot of {name}: {e}"))?;
            Ok((name, rows))
        })
        .collect()
}

/// Names the first table on which two states differ.
pub fn first_difference(a: &DbState, b: &DbState) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} tables vs {}", a.len(), b.len()));
    }
    a.iter().zip(b).find_map(|((na, ra), (nb, rb))| {
        if na != nb {
            Some(format!("table {na} vs {nb}"))
        } else if ra != rb {
            Some(format!("table {na}: {} rows vs {}", ra.len(), rb.len()))
        } else {
            None
        }
    })
}

/// Live row counts of the TPC-C user tables.
pub fn user_row_counts(db: &Database) -> Result<Vec<(&'static str, u64)>, String> {
    TPCC_TABLES
        .iter()
        .map(|t| Ok((*t, db.row_count(t).map_err(|e| e.to_string())?)))
        .collect()
}

/// Runs one epoch of `w` with `epoch_seed`.
///
/// # Errors
///
/// A statement of the workload failed: the workloads are chosen so that
/// none does, so this is a broken program, not a measurement.
pub fn run_epoch(w: &Workload, epoch_seed: u64, opts: EpochOptions) -> Result<Epoch, String> {
    // The loader, the runners and the mix each draw from their own seed.
    let runner_seed = epoch_seed.wrapping_mul(31).wrapping_add(7);
    let mix_seed = epoch_seed.wrapping_add(1);
    let config = TpccConfig::scaled(WAREHOUSES);
    let mut checks = Checks::default();

    // ---- set-up -------------------------------------------------------
    let setup_start = Instant::now();
    let telemetry = opts.telemetry.then(|| {
        let t = Telemetry::recording();
        t.flight().set_enabled(true);
        t
    });
    let sim = match &telemetry {
        Some(t) => SimContext::with_telemetry(CostModel::free(), POOL_PAGES, t.clone()),
        None => SimContext::new(CostModel::free(), POOL_PAGES),
    };
    sim.set_realtime(false);
    let db = Database::new("bench", FLAVOR, sim.clone());
    let downstream = Downstream::new(db.clone(), opts.traced);
    let wire_err = |e: resildb_core::WireError| e.to_string();
    let driver: Box<dyn Driver> = if w.tracked {
        prepare_database(&mut *downstream.connect().map_err(wire_err)?).map_err(wire_err)?;
        let mut pc = ProxyConfig::builder(FLAVOR).record_read_only_deps(true);
        if let Some(t) = &telemetry {
            pc = pc.telemetry(t.clone());
        }
        let factory = TrackingProxy::factory_with_sim(pc.build(), sim);
        Box::new(InterceptDriver::new(downstream.clone(), factory))
    } else {
        Box::new(downstream.clone())
    };
    // One connection per thread. Traced and tracked, each is decorated
    // at the client boundary; traced and untracked, the downstream
    // decorator *is* the client boundary (there is no proxy between).
    let mut conns: Vec<Box<dyn Connection>> = Vec::new();
    let mut client_shared: Vec<SharedTape> = Vec::new();
    for _ in 0..w.threads {
        let conn = driver.connect().map_err(wire_err)?;
        if opts.traced && w.tracked {
            let (timed, tape) = TimedConn::new(conn);
            client_shared.push(tape);
            conns.push(Box::new(timed));
        } else {
            conns.push(conn);
        }
    }
    Loader::new(config.clone(), epoch_seed)
        .load(&mut *conns[0])
        .map_err(wire_err)?;
    let mut runners: Vec<TpccRunner> = (0..w.threads)
        .map(|t| {
            let mut r = TpccRunner::new(config.clone(), runner_seed.wrapping_add(t as u64));
            if !w.tracked {
                r = r.without_annotations();
            }
            if w.threads > 1 {
                r = r.with_home_warehouse(t as u32 + 1);
            }
            r
        })
        .collect();
    if w.grow_txns > 0 {
        Mix::standard(w.grow_txns, mix_seed.wrapping_add(1))
            .run(&mut runners[0], &mut *conns[0])
            .map_err(wire_err)?;
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let downstream_shared = downstream.tapes();
    client_shared.iter().for_each(tape::mark_measured);
    downstream_shared.iter().for_each(tape::mark_measured);
    let dep_before = w.tracked.then(|| TransDep::of(&db)).transpose()?;
    let wal_before = opts.traced.then(|| db.wal_records().len() as u64);
    let before = Counters::of(&db);

    // ---- measured traffic ----------------------------------------------
    let kinds = streams(w, mix_seed);
    let barrier = Barrier::new(w.threads + 1);
    let (serve_s, runs) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(runners.iter_mut())
            .zip(&kinds)
            .enumerate()
            .map(|(t, ((conn, runner), kinds))| {
                let (db, barrier) = (&db, &barrier);
                let attack_at = w.attack_at.filter(|_| t == 0);
                scope
                    .spawn(move || serve_thread(&mut **conn, runner, kinds, attack_at, db, barrier))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let runs: Vec<Result<ThreadRun, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        (start.elapsed().as_secs_f64(), runs)
    });
    let serve = Counters::of(&db).since(before);
    let mut runs: Vec<ThreadRun> = runs.into_iter().collect::<Result<_, _>>()?;
    let victim_before = runs.iter_mut().find_map(|r| r.victim_before.take());
    let wal_records = wal_before.map(|b| (b, db.wal_records().len() as u64));

    let committed: u64 = runs.iter().map(|r| r.committed).sum();
    let attempted_txns = w.traffic.txns() as u64;
    checks.attempted += attempted_txns;
    checks.gate(committed == attempted_txns, || {
        format!("{committed} of {attempted_txns} transactions committed")
    });
    let trans_dep = match dep_before {
        Some(b) => {
            let a = TransDep::of(&db)?;
            let expected = committed + u64::from(w.attack_at.is_some());
            checks.gate(a.tr_ids - b.tr_ids == expected, || {
                format!(
                    "trans_dep gained {} tr_ids for {expected} tracked commits",
                    a.tr_ids - b.tr_ids
                )
            });
            Some((b, a))
        }
        None => None,
    };
    let snap = conns[0].metrics();
    let rewrite_cache = (
        snap.counter("proxy.rewrite_cache.hits"),
        snap.counter("proxy.rewrite_cache.misses"),
    );
    drop(conns);

    // ---- recovery -------------------------------------------------------
    let mut epoch = Epoch {
        setup_s,
        serve_s,
        committed,
        deadlock_retries: runs.iter().map(|r| r.deadlock_retries).sum(),
        busy_ns: runs.iter().map(|r| r.busy_ns).sum(),
        latencies: runs.into_iter().flat_map(|r| r.latencies).collect(),
        serve,
        trans_dep,
        rewrite_cache,
        wal_records,
        recover_s: 0.0,
        wal_save_ns: 0,
        wal_bytes_saved: 0,
        wal_recover_ns: 0,
        repair: None,
        flight_dropped: telemetry.as_ref().map_or(0, |t| t.flight().dropped()),
        client_tapes: client_shared.iter().map(tape::take).collect(),
        downstream_tapes: downstream_shared.iter().map(tape::take).collect(),
        served_state: opts.traced.then(|| full_state(&db)).transpose()?,
        checks,
        db,
    };
    match w.recovery {
        Recovery::Crash => crash_recovery(&mut epoch)?,
        Recovery::Repair => intrusion_repair(&mut epoch, victim_before, opts.traced)?,
    }
    Ok(epoch)
}

/// `save_wal` → `open_from_wal`, then the recovered state must equal the
/// live one table for table, row for row.
fn crash_recovery(epoch: &mut Epoch) -> Result<(), String> {
    let start = Instant::now();
    let mut log = Vec::new();
    epoch
        .db
        .save_wal(&mut log)
        .map_err(|e| format!("save_wal: {e}"))?;
    epoch.wal_save_ns = elapsed_ns(start);
    epoch.wal_bytes_saved = log.len() as u64;
    let reopen = Instant::now();
    let recovered = Database::open_from_wal(
        "recovered",
        FLAVOR,
        SimContext::new(CostModel::free(), POOL_PAGES),
        log.as_slice(),
    )
    .map_err(|e| format!("open_from_wal: {e}"))?;
    epoch.wal_recover_ns = elapsed_ns(reopen);
    epoch.recover_s = start.elapsed().as_secs_f64();
    let diff = first_difference(&full_state(&epoch.db)?, &full_state(&recovered)?);
    epoch.checks.gate(diff.is_none(), || {
        format!(
            "recovered state differs from live state: {}",
            diff.unwrap_or_default()
        )
    });
    Ok(())
}

/// Quiesced `analyze → plan → execute` undoing the forged payment under
/// the paper's §5.3 `warehouse.w_ytd` false-dependency rule.
fn intrusion_repair(
    epoch: &mut Epoch,
    victim_before: Option<Vec<Value>>,
    traced: bool,
) -> Result<(), String> {
    let db = epoch.db.clone();
    let attack_id = match db
        .session()
        .query(&format!(
            "SELECT tr_id FROM annot WHERE descr = '{ATTACK_LABEL}'"
        ))
        .map_err(|e| e.to_string())?
        .rows
        .first()
        .map(|r| r[0].clone())
    {
        Some(Value::Int(id)) => id,
        other => return Err(format!("attack transaction not tracked: {other:?}")),
    };
    let mut detail = RepairDetail::default();
    if traced {
        // The sub-phases `analyze` runs internally, timed on their own
        // through the same public entry points it calls.
        let adapter = adapter_for(FLAVOR);
        let t = Instant::now();
        let records = adapter.scan(&db).map_err(|e| e.to_string())?;
        detail.log_scan_ns = elapsed_ns(t);
        let t = Instant::now();
        std::hint::black_box(TxnCorrelation::from_records(&records));
        detail.correlate_ns = elapsed_ns(t);
    }
    let options = RepairOptions::quiesced().rule(FalseDepRule::IgnoreDerivedColumns {
        table: "warehouse".into(),
        columns: vec!["w_ytd".into()],
    });
    let controller = RepairController::with_options(db.clone(), options);
    let start = Instant::now();
    let analysis = controller.analyze().map_err(|e| format!("analyze: {e}"))?;
    detail.analyze_ns = elapsed_ns(start);
    let t = Instant::now();
    let plan = controller.plan(&analysis, &[attack_id]);
    detail.plan_ns = elapsed_ns(t);
    let t = Instant::now();
    let report = controller
        .execute(&analysis, &plan)
        .map_err(|e| format!("execute: {e}"))?;
    detail.execute_ns = elapsed_ns(t);
    epoch.recover_s = start.elapsed().as_secs_f64();

    detail.log_records = analysis.records.len() as u64;
    detail.undo_set_size = report.undo_set.len() as u64;
    detail.compensating_stmts = report.outcome.statements.len() as u64;
    detail.tracked_total = report.tracked_total as u64;
    detail.saved = report.saved as u64;

    let checks = &mut epoch.checks;
    checks.gate(report.undo_set.contains(&attack_id), || {
        format!("attack transaction {attack_id} is not in the undo set")
    });
    checks.gate(
        report.saved + report.undo_set.len() == report.tracked_total,
        || {
            format!(
                "saved {} + undone {} != tracked {}",
                report.saved,
                report.undo_set.len(),
                report.tracked_total
            )
        },
    );
    let victim_after = db
        .session()
        .query(VICTIM_SQL)
        .map_err(|e| e.to_string())?
        .rows
        .into_iter()
        .next();
    checks.gate(
        victim_before.is_some() && victim_before == victim_after,
        || format!("forged row {victim_after:?} != pre-attack {victim_before:?}"),
    );
    epoch.repair = Some(detail);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    fn small(name: &str) -> Workload {
        workload(name).unwrap().scaled_down(20)
    }

    #[test]
    fn every_workload_runs_clean_at_small_scale() {
        for w in crate::spec::WORKLOADS {
            let w = small(w.name);
            let e = run_epoch(&w, 11, EpochOptions::default()).unwrap();
            assert!(e.checks.failures.is_empty(), "{}: {:?}", w.name, e.checks);
            assert_eq!(e.committed, w.traffic.txns() as u64, "{}", w.name);
            assert_eq!(e.latencies.len(), w.traffic.txns(), "{}", w.name);
            assert!(e.recover_s > 0.0 && e.setup_s > 0.0 && e.serve_s > 0.0);
            assert!(e.serve.log_bytes > 0, "{} writes no log", w.name);
            assert_eq!(e.trans_dep.is_some(), w.tracked);
            assert_eq!(e.repair.is_some(), w.recovery == Recovery::Repair);
        }
    }

    #[test]
    fn same_seed_gives_identical_tapes_and_counts_twice() {
        for name in ["oltp_tracked", "reads_tracked", "repair"] {
            let w = small(name);
            let opts = EpochOptions {
                traced: true,
                telemetry: false,
            };
            let a = run_epoch(&w, 5, opts).unwrap();
            let b = run_epoch(&w, 5, opts).unwrap();
            assert_eq!(a.client_tapes.len(), 1);
            assert_eq!(a.client_tapes[0].sql, b.client_tapes[0].sql, "{name}");
            let down = |e: &Epoch| -> Vec<String> {
                e.downstream_tapes
                    .iter()
                    .flat_map(|t| t.sql.clone())
                    .collect()
            };
            assert_eq!(down(&a), down(&b), "{name}");
            assert_eq!(a.serve, b.serve, "{name}");
            assert_eq!(a.trans_dep, b.trans_dep, "{name}");
            assert_eq!(a.wal_records, b.wal_records, "{name}");
            assert_eq!(a.rewrite_cache, b.rewrite_cache, "{name}");
            let c = run_epoch(&w, 6, opts).unwrap();
            assert_ne!(a.client_tapes[0].sql, c.client_tapes[0].sql, "{name}");
        }
    }

    #[test]
    fn tracked_and_untracked_streams_are_the_same_transactions() {
        let t = run_epoch(&small("oltp_tracked"), 3, EpochOptions::default()).unwrap();
        let u = run_epoch(&small("oltp_untracked"), 3, EpochOptions::default()).unwrap();
        assert_eq!(
            user_row_counts(&t.db).unwrap(),
            user_row_counts(&u.db).unwrap()
        );
        let kinds = |e: &Epoch| e.latencies.iter().map(|(k, _)| *k).collect::<Vec<_>>();
        assert_eq!(kinds(&t), kinds(&u));
    }

    #[test]
    fn gates_count_attempts_and_keep_failures() {
        let mut c = Checks::default();
        c.gate(true, || unreachable!());
        c.gate(false, || "broken".into());
        let mut all = Checks::default();
        all.absorb(c);
        assert_eq!(all.attempted, 2);
        assert_eq!(all.failures, vec!["broken".to_string()]);
    }

    #[test]
    fn state_comparison_names_the_differing_table() {
        let a: DbState = vec![("t".to_string(), vec![(RowId(1), Row(vec![Value::Int(1)]))])];
        let mut b = a.clone();
        assert_eq!(first_difference(&a, &b), None);
        b[0].1.push((RowId(2), Row(vec![Value::Int(2)])));
        assert!(first_difference(&a, &b).unwrap().contains("table t"));
        assert!(first_difference(&a, &Vec::new()).is_some());
    }
}
