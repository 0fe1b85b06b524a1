//! Scenario execution: track → attack → repair → clean replay, with the
//! oracle battery evaluated at the end.
//!
//! The harness runs a [`Scenario`] against a fresh [`ResilientDb`]
//! ("world A"): loads the scaled TPC-C footprint, executes the schedule
//! (optionally across real OS threads), disarms the fault plan, repairs
//! from the committed malicious transactions, and then builds a second
//! fresh instance ("world B") that replays only the clean survivors.
//! Every oracle in [`crate::oracle`] is then checked; a non-empty failure
//! list is a fuzzer finding.
//!
//! Per-transaction outcomes are *recorded, not assumed*: a scenario's
//! faults decide which transactions commit, and under `threads > 1` that
//! decision is scheduling-dependent — so the oracles compare against what
//! actually happened, never against the schedule's intent.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use parking_lot::Mutex;
use resildb_core::{Connection, ResilientDb, Response, TRACKING_TABLES};
use resildb_sim::telemetry::trace::to_jsonl;
use resildb_sim::TraceSnapshot;
use resildb_tpcc::{Loader, TPCC_TABLES};
use resildb_wire::WireError;

use crate::oracle;
use crate::scenario::{generate, tpcc_config, Scenario, ScenarioTxn};

/// What happened to one scheduled transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// COMMIT succeeded end-to-end.
    Committed,
    /// Any failure: statement error, disconnect, injected panic, rollback.
    Aborted,
}

/// Deliberately-injected harness bugs, used to prove the oracle battery
/// actually catches what it claims to catch (CI runs one and requires the
/// fuzzer to fail).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Canary {
    /// No canary: honest run.
    #[default]
    None,
    /// Omit the last committed malicious transaction from the repair's
    /// initial set — an incomplete damage closure, which the
    /// repair-equals-clean-replay oracle must flag.
    SkipFinalAttack,
}

/// Knobs for one run (everything else comes from the scenario).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads for the workload phase. 1 = deterministic schedule
    /// order; N > 1 = real concurrency (crash points are skipped).
    pub threads: usize,
    /// Injected harness bug, if any.
    pub canary: Canary,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            canary: Canary::None,
        }
    }
}

/// Everything a run produced: outcomes, oracle failures, forensics.
#[derive(Debug)]
pub struct RunReport {
    /// The generating seed.
    pub seed: u64,
    /// Per-schedule-index outcome.
    pub outcomes: Vec<Outcome>,
    /// Oracle failures; empty means the run passed.
    pub failures: Vec<String>,
    /// Labels of the transactions the repair undid.
    pub undo_labels: BTreeSet<String>,
    /// Flight-recorder capture (JSONL), kept when the run failed.
    pub capture: Option<String>,
}

impl RunReport {
    /// Whether every oracle held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    fn harness_error(seed: u64, msg: String) -> Self {
        Self {
            seed,
            outcomes: Vec::new(),
            failures: vec![msg],
            undo_labels: BTreeSet::new(),
            capture: None,
        }
    }
}

/// Generates and runs the scenario for `seed`.
pub fn run_seed(seed: u64, opts: &RunOptions) -> RunReport {
    run_scenario(&generate(seed), opts)
}

/// Injected `FaultAction::Panic` unwinds are caught and *expected*; the
/// default panic hook would still print a backtrace for each, drowning a
/// fuzz run's output. Installed once: swallows exactly those, delegates
/// everything else.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected panic at failpoint"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Runs an explicit scenario (the shrinker edits scenarios directly).
pub fn run_scenario(scenario: &Scenario, opts: &RunOptions) -> RunReport {
    silence_injected_panics();
    match try_run(scenario, opts) {
        Ok(report) => report,
        Err(e) => RunReport::harness_error(scenario.seed, format!("harness error: {e}")),
    }
}

/// Executes one scheduled transaction over a possibly-dead connection
/// slot, reconnecting as needed. Panics unwinding out of injected
/// failpoints are contained here; the connection is discarded after one
/// (its engine session rolls back on drop) and the transaction counts as
/// aborted.
fn exec_txn(
    rdb: &ResilientDb,
    conn: &mut Option<Box<dyn Connection>>,
    txn: &ScenarioTxn,
    index: usize,
    commit_order: &Mutex<Vec<usize>>,
) -> Outcome {
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), WireError> {
        if conn.is_none() {
            *conn = Some(rdb.connect()?);
        }
        let Some(c) = conn.as_mut() else {
            return Err(WireError::Protocol("connection slot empty".into()));
        };
        c.execute(&format!("ANNOTATE {}", txn.label))?;
        c.execute("BEGIN")?;
        for s in &txn.statements {
            c.execute(s)?;
        }
        // The lock is held *across* COMMIT so the recorded order is a valid
        // serialization order: a transaction that read this one's writes
        // acquires its row locks only after this engine commit released
        // them, hence reaches its own COMMIT — and this lock — later.
        // World B replays survivors in exactly this order.
        let mut order = commit_order.lock();
        c.execute("COMMIT")?;
        order.push(index);
        Ok(())
    }));
    match result {
        Ok(Ok(())) => Outcome::Committed,
        Ok(Err(e)) => {
            if matches!(e, WireError::ConnectionDropped) {
                *conn = None; // severed; a fresh one is made on demand
            } else if let Some(c) = conn.as_mut() {
                // Best-effort: close whatever transaction is still open on
                // either side. Harmless when the commit path already did.
                let _ = c.execute("ROLLBACK");
            }
            Outcome::Aborted
        }
        Err(_) => {
            *conn = None; // injected panic: discard the wedged connection
            Outcome::Aborted
        }
    }
}

/// Arms every fault event scheduled before transaction `i`.
fn arm_faults(rdb: &ResilientDb, scenario: &Scenario, i: usize) {
    for f in scenario.faults.iter().filter(|f| f.before_txn == i) {
        rdb.database()
            .sim()
            .faults()
            .arm(f.failpoint, f.action, f.trigger);
    }
}

fn run_workload(
    rdb: &Arc<ResilientDb>,
    scenario: &Scenario,
    opts: &RunOptions,
) -> Result<(Vec<Outcome>, Vec<usize>), String> {
    let n = scenario.txns.len();
    let commit_order = Mutex::new(Vec::with_capacity(n));
    if opts.threads <= 1 {
        let mut outcomes = vec![Outcome::Aborted; n];
        let mut conn: Option<Box<dyn Connection>> = None;
        for (i, txn) in scenario.txns.iter().enumerate() {
            if scenario.crash_before == Some(i) {
                conn = None; // crash severs every client
                rdb.database()
                    .simulate_crash_and_recover()
                    .map_err(|e| format!("crash-recovery failed: {e}"))?;
            }
            arm_faults(rdb, scenario, i);
            outcomes[i] = exec_txn(rdb, &mut conn, txn, i, &commit_order);
        }
        return Ok((outcomes, commit_order.into_inner()));
    }

    // Threaded: worker t owns schedule indices i ≡ t (mod threads), in
    // order. Crash points are skipped (in-place recovery cannot run under
    // concurrent sessions); everything else is identical.
    let outcomes = Mutex::new(vec![Outcome::Aborted; n]);
    let barrier = Barrier::new(opts.threads);
    std::thread::scope(|scope| {
        for t in 0..opts.threads {
            let (rdb, outcomes, barrier, commit_order) =
                (Arc::clone(rdb), &outcomes, &barrier, &commit_order);
            scope.spawn(move || {
                let mut conn: Option<Box<dyn Connection>> = None;
                barrier.wait();
                for (i, txn) in scenario
                    .txns
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % opts.threads == t)
                {
                    arm_faults(&rdb, scenario, i);
                    let o = exec_txn(&rdb, &mut conn, txn, i, commit_order);
                    outcomes.lock()[i] = o;
                }
            });
        }
    });
    Ok((outcomes.into_inner(), commit_order.into_inner()))
}

fn try_run(scenario: &Scenario, opts: &RunOptions) -> Result<RunReport, String> {
    let cfg = tpcc_config();

    // --- world A: track → attack -------------------------------------
    let rdb = Arc::new(ResilientDb::new(scenario.flavor).map_err(|e| e.to_string())?);
    {
        let mut conn = rdb.connect().map_err(|e| e.to_string())?;
        Loader::new(cfg.clone(), scenario.seed)
            .load(&mut *conn)
            .map_err(|e| format!("load failed: {e}"))?;
    }

    let (outcomes, commit_order) = run_workload(&rdb, scenario, opts)?;
    rdb.database().sim().faults().disarm_all();

    let mut failures: Vec<String> = Vec::new();

    // Capture the label → proxy-trid mapping NOW: a successful repair
    // compensates away the tracking rows (annot, trans_dep) of everything
    // it undoes — they were INSERTs inside the undone transaction — so
    // after repair the labels of undone transactions resolve to nothing.
    // Every committed write transaction must be resolvable here; a miss
    // is itself an oracle failure (an untraceable transaction).
    let mut label_trids: BTreeMap<String, i64> = BTreeMap::new();
    for (i, txn) in scenario.txns.iter().enumerate() {
        if outcomes[i] != Outcome::Committed || !txn.wrote {
            continue;
        }
        match rdb.txn_id_by_label(&txn.label) {
            Ok(Some(trid)) => {
                label_trids.insert(txn.label.clone(), trid);
            }
            Ok(None) => failures.push(format!(
                "committed write txn {} left no annot row (untraceable)",
                txn.label
            )),
            Err(e) => failures.push(format!("annot lookup failed for {}: {e}", txn.label)),
        }
    }

    // Committed malicious transactions form the repair's initial set.
    let mut initial: Vec<i64> = scenario
        .txns
        .iter()
        .enumerate()
        .filter(|(i, txn)| txn.malicious && outcomes[*i] == Outcome::Committed)
        .filter_map(|(_, txn)| label_trids.get(&txn.label).copied())
        .collect();
    if opts.canary == Canary::SkipFinalAttack {
        initial.pop(); // the injected bug: one attack goes unrepaired
    }

    // Analysis first (the dependency graph must be read before the
    // repair's own compensating writes enter the log), then repair.
    let mut undo_labels: BTreeSet<String> = BTreeSet::new();
    let mut analysis = None;
    if !initial.is_empty() {
        let a = rdb.analyze().map_err(|e| format!("analysis failed: {e}"))?;
        let closure = a.undo_set(&initial, &[]);
        for id in &closure {
            undo_labels.insert(a.graph.label(*id));
        }
        // Kept for the static-soundness oracle: the graph snapshot must
        // predate the repair's own compensating writes.
        analysis = Some(a);
        let report = scripted_repair(scenario, &rdb, &initial, |init| {
            rdb.repair(init, &[]).map_err(|e| e.to_string())
        })
        .map_err(|e| format!("repair failed: {e}"))?;
        failures.extend(oracle::one_closure(&closure, &report.undo_set));
    }

    // --- world B: clean replay (malicious elided, undo set elided) ----
    let rdb_b = ResilientDb::new(scenario.flavor).map_err(|e| e.to_string())?;
    {
        let mut conn = rdb_b.connect().map_err(|e| e.to_string())?;
        Loader::new(cfg, scenario.seed)
            .load(&mut *conn)
            .map_err(|e| format!("replay load failed: {e}"))?;
        // Replay in the recorded *commit* order — world A's serialization
        // order. Under threads it can differ from schedule order, and
        // replaying conflicting survivors out of order would diverge for
        // reasons that are not bugs.
        for &i in &commit_order {
            let txn = &scenario.txns[i];
            let survived = outcomes[i] == Outcome::Committed
                && !txn.malicious
                && !undo_labels.contains(&txn.label);
            if !survived {
                continue;
            }
            let replayed = (|| -> Result<(), WireError> {
                conn.execute(&format!("ANNOTATE {}", txn.label))?;
                conn.execute("BEGIN")?;
                for s in &txn.statements {
                    conn.execute(s)?;
                }
                conn.execute("COMMIT")?;
                Ok(())
            })();
            if let Err(e) = replayed {
                failures.push(format!("clean replay of {} failed: {e}", txn.label));
            }
        }
    }

    // --- oracles ------------------------------------------------------
    let flight: TraceSnapshot = rdb.flight_recorder().snapshot();
    if opts.threads <= 1 {
        // Full-state equality and the ground-truth closure both assume the
        // history is equivalent to the schedule order — true only when one
        // thread ran it. The engine is read-committed (readers take no
        // locks), so a threaded history need not match *any* serial replay.
        failures.extend(oracle::byte_equality(&rdb, &rdb_b));
        failures.extend(oracle::closure_matches_ground_truth(
            scenario,
            &outcomes,
            &undo_labels,
        ));
    }
    failures.extend(oracle::attack_eradicated(&rdb, &rdb_b));
    failures.extend(oracle::trans_dep_exactly_once(
        &rdb,
        scenario,
        &outcomes,
        &undo_labels,
        &label_trids,
    ));
    failures.extend(oracle::static_soundness(
        scenario,
        &outcomes,
        analysis.as_ref(),
        &initial,
        &undo_labels,
    ));
    failures.extend(oracle::inflight_drained(&rdb, "world A"));
    failures.extend(oracle::inflight_drained(&rdb_b, "world B"));
    failures.extend(oracle::flight_lifecycle(
        &flight,
        scenario,
        &outcomes,
        &label_trids,
    ));
    // Oracle 9: world A repairs quiesced, so its incidents must be
    // closed, strictly monotonic, decomposition-exact and fence-free.
    failures.extend(oracle::timeline_well_formed(
        "world A",
        &rdb.telemetry().timeline().snapshot(),
        false,
    ));
    // Oracle 8: live repair ≡ quiesced repair. Runs its own pair of
    // deterministic worlds, so it holds under `--threads N` too. A
    // harness-level breakage inside it is reported as a failure (not an
    // error) so the shrinker can minimize it like any other finding.
    if scenario.txns.iter().any(|t| t.malicious) {
        match live_vs_quiesced(scenario, opts.canary) {
            Ok(f) => failures.extend(f),
            Err(e) => failures.push(format!("live-repair harness error: {e}")),
        }
    }

    let capture = (!failures.is_empty()).then(|| to_jsonl(&flight));
    Ok(RunReport {
        seed: scenario.seed,
        outcomes,
        failures,
        undo_labels,
        capture,
    })
}

/// A deterministic world: the instance, its per-transaction outcomes,
/// and the proxy trids of its committed malicious transactions.
type World = (Arc<ResilientDb>, Vec<Outcome>, Vec<i64>);

/// Replays the full scenario single-threaded against a fresh default
/// instance, and returns the world together with its outcomes and the
/// proxy trids of its committed malicious transactions.
/// Single-threaded replay is deterministic, so two such worlds reach
/// byte-identical pre-repair states — trid columns included.
fn replay_deterministic(scenario: &Scenario) -> Result<World, String> {
    let rdb = Arc::new(ResilientDb::new(scenario.flavor).map_err(|e| e.to_string())?);
    {
        let mut conn = rdb.connect().map_err(|e| e.to_string())?;
        Loader::new(tpcc_config(), scenario.seed)
            .load(&mut *conn)
            .map_err(|e| format!("load failed: {e}"))?;
    }
    let opts = RunOptions {
        threads: 1,
        canary: Canary::None,
    };
    let (outcomes, _) = run_workload(&rdb, scenario, &opts)?;
    rdb.database().sim().faults().disarm_all();

    let mut initial = Vec::new();
    for (i, txn) in scenario.txns.iter().enumerate() {
        if !(txn.malicious && outcomes[i] == Outcome::Committed) {
            continue;
        }
        match rdb.txn_id_by_label(&txn.label) {
            Ok(Some(trid)) => initial.push(trid),
            Ok(None) => {
                return Err(format!("committed attack {} left no annot row", txn.label));
            }
            Err(e) => return Err(format!("annot lookup failed for {}: {e}", txn.label)),
        }
    }
    Ok((rdb, outcomes, initial))
}

/// Runs a repair attempt honoring the scenario's scripted repair-phase
/// fault — the one script, for world A and both worlds of oracle 8: with
/// a fault scheduled, the first attempt runs with it armed `Once` and is
/// expected to fail (rolling back cleanly — the equality oracle exposes
/// any leaked compensation, a live attempt must also drop its fence); the
/// retry after disarming must succeed.
fn scripted_repair<T>(
    scenario: &Scenario,
    rdb: &ResilientDb,
    initial: &[i64],
    attempt: impl Fn(&[i64]) -> Result<T, String>,
) -> Result<T, String> {
    let Some(site) = scenario.repair_fault else {
        return attempt(initial);
    };
    rdb.database().sim().faults().arm(
        site,
        resildb_sim::FaultAction::Error,
        resildb_sim::FaultTrigger::Once,
    );
    let first = attempt(initial);
    rdb.database().sim().faults().disarm_all();
    first.or_else(|_| attempt(initial).map_err(|e| format!("repair retry failed: {e}")))
}

/// Raw rows of `table` through an untracked connection — hidden `trid`
/// columns *included*, since the two deterministic worlds allocate
/// identical proxy transaction ids.
fn raw_table_rows(rdb: &ResilientDb, table: &str) -> Result<Vec<String>, String> {
    let mut conn = rdb
        .connect_untracked()
        .map_err(|e| format!("untracked connect failed: {e}"))?;
    match conn
        .execute(&format!("SELECT * FROM {table}"))
        .map_err(|e| format!("SELECT * FROM {table} failed: {e}"))?
    {
        Response::Rows(qr) => {
            let mut rows: Vec<String> = qr.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows.insert(0, format!("{:?}", qr.columns));
            Ok(rows)
        }
        other => Err(format!(
            "SELECT * FROM {table}: expected rows, got {other:?}"
        )),
    }
}

/// Oracle 8: **live repair ≡ quiesced repair**. Two more fresh worlds
/// replay the full scenario single-threaded (identical pre-repair states
/// by determinism). World Q repairs quiesced — the reference. World L
/// repairs *online*: containment fence up over the scenario's written
/// tables, shrunk to the closure's rows, while a probe thread keeps
/// reading a table no scheduled transaction ever writes. Checked:
///
/// - L's final state is byte-identical to Q's — raw rows of every TPC-C
///   table *and* the tracking tables, hidden trid columns included;
/// - no probe on the clean table (outside every fence, static or
///   dynamic) is ever refused;
/// - the live report actually fenced something and the fence was lifted
///   (`repair.live.fence_size` back to 0); oracle 9 checks the
///   `fence_raised`/`fence_lifted` lifecycle on the timeline, which the
///   flight recorder shares one feeder with.
///
/// The [`Canary::SkipFinalAttack`] bug is injected into world L's
/// initial set only (Q stays the correct reference), so a canary run
/// must trip the equality check — proving this oracle is alive.
fn live_vs_quiesced(scenario: &Scenario, canary: Canary) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();

    // Tables any scheduled transaction writes: a sound static fence
    // surface (damage spreads only through writes), whose complement
    // yields a provably-clean probe table.
    let written: BTreeSet<&str> = scenario
        .txns
        .iter()
        .flat_map(|t| {
            t.writes
                .iter()
                .chain(t.preimages.iter())
                .chain(t.deletes.iter())
        })
        .map(|r| r.table)
        .collect();
    let probe_table = TPCC_TABLES.iter().copied().find(|t| !written.contains(t));

    let (rdb_q, outcomes_q, initial_q) = replay_deterministic(scenario)?;
    if initial_q.is_empty() {
        return Ok(failures); // every attack aborted: nothing to repair
    }
    scripted_repair(scenario, &rdb_q, &initial_q, |init| {
        rdb_q
            .repair(init, &[])
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;

    let (rdb_l, outcomes_l, mut initial_l) = replay_deterministic(scenario)?;
    if outcomes_l != outcomes_q {
        return Err("deterministic replays diverged between live and quiesced worlds".into());
    }
    if canary == Canary::SkipFinalAttack {
        initial_l.pop();
    }

    let surface: Vec<String> = written.iter().map(|t| (*t).to_string()).collect();
    let probe_failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let repaired = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let repair_result = std::thread::scope(|scope| {
        if let Some(table) = probe_table {
            let (rdb_l, done, probe_failures) = (&rdb_l, &done, &probe_failures);
            scope.spawn(move || {
                let Ok(mut conn) = rdb_l.connect() else {
                    return;
                };
                while !done.load(Ordering::Relaxed) {
                    if let Err(e) = conn.execute(&format!("SELECT * FROM {table}")) {
                        let msg = e.to_string();
                        if msg.contains("containment fence") {
                            let mut pf = probe_failures.lock();
                            if pf.len() < 3 {
                                pf.push(format!(
                                    "live-repair: clean probe on {table} (a table no \
                                     scheduled txn writes) was refused: {msg}"
                                ));
                            }
                        }
                    }
                    std::thread::yield_now();
                }
            });
        }
        let result = scripted_repair(scenario, &rdb_l, &initial_l, |init| {
            let options = rdb_l
                .live_repair_options()
                .static_surface(surface.iter().cloned());
            rdb_l
                .repair_controller_with(options)
                .repair(init)
                .map_err(|e| e.to_string())?;
            repaired.store(true, Ordering::Relaxed);
            Ok(())
        });
        done.store(true, Ordering::Relaxed);
        result
    });
    repair_result?;
    failures.append(&mut probe_failures.into_inner());

    let incidents_l = rdb_l.telemetry().timeline().snapshot();
    if !repaired.into_inner() {
        failures.push("live-repair: live execute never succeeded".into());
    } else if incidents_l.last().map_or(0, |i| i.progress.fence_tables) == 0 {
        failures.push("live-repair: the incident says no table was ever fenced".into());
    }
    if rdb_l.metrics().gauge("repair.live.fence_size") != Some(0.0) {
        failures.push(
            "live-repair: fence not lifted (repair.live.fence_size != 0 after repair)".into(),
        );
    }
    // Oracle 9 on both repair styles: Q's incidents must be fence-free,
    // L's must each carry exactly one fence_raised/fence_lifted pair —
    // including the failed first attempt of a scripted repair fault,
    // whose fence the drop guard lifts on the error path.
    failures.extend(oracle::timeline_well_formed(
        "world Q",
        &rdb_q.telemetry().timeline().snapshot(),
        false,
    ));
    failures.extend(oracle::timeline_well_formed("world L", &incidents_l, true));

    for table in TPCC_TABLES
        .iter()
        .copied()
        .chain(TRACKING_TABLES.iter().copied())
    {
        match (raw_table_rows(&rdb_l, table), raw_table_rows(&rdb_q, table)) {
            (Ok(rl), Ok(rq)) => {
                if rl != rq {
                    let diff = rl
                        .iter()
                        .filter(|r| !rq.contains(r))
                        .chain(rq.iter().filter(|r| !rl.contains(r)))
                        .take(4)
                        .cloned()
                        .collect::<Vec<_>>()
                        .join(" | ");
                    failures.push(format!(
                        "live-repair: table {table} diverges between live and quiesced \
                         repair ({} vs {} rows; e.g. {diff})",
                        rl.len() - 1,
                        rq.len() - 1,
                    ));
                }
            }
            (Err(e), _) | (_, Err(e)) => failures.push(e),
        }
    }
    Ok(failures)
}
