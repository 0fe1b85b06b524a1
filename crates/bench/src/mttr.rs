//! Mean-time-to-repair comparison — the paper's motivating claim made
//! measurable: selective undo repairs a compromised database far faster
//! than the conventional procedure of restoring a backup and replaying
//! every legitimate transaction since (§1: "a time-consuming, error-prone
//! and labor-intensive process", even ignoring the human analysis time).
//!
//! Both alternatives run on the same virtual-time cost model:
//!
//! * **selective repair** — dependency analysis + the backward
//!   compensation sweep, on the live database;
//! * **restore & replay** — reload the last backup (the initial
//!   population) and re-run every legitimate transaction committed since,
//!   which is what a DBA without dependency tracking must do.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use resildb_core::telemetry::json::{JsonWriter, Scalar};
use resildb_core::{
    Driver as _, Flavor, IncidentProgress, IncidentRecord, IncidentTimeline, LinkProfile, Micros,
    ProxyConfig, ResilientDb, SimContext, WireError,
};
use resildb_tpcc::{Attack, AttackKind, Loader, Mix, TpccConfig, TpccRunner, ATTACK_LABEL};

use crate::json::Probe;
use crate::{costs, prepare, Setup};

/// One measured detection-latency point.
#[derive(Debug, Clone, PartialEq)]
pub struct MttrPoint {
    /// Transactions committed between intrusion and detection.
    pub t_detect: usize,
    /// Virtual time of dependency analysis + selective undo.
    pub selective_repair: Micros,
    /// Number of compensating statements the sweep executed.
    pub compensating_statements: usize,
    /// Virtual time of restoring the backup and replaying survivors.
    pub restore_and_replay: Micros,
}

impl MttrPoint {
    /// How many times faster selective repair is.
    pub fn speedup(&self) -> f64 {
        self.restore_and_replay.as_secs_f64() / self.selective_repair.as_secs_f64().max(1e-9)
    }
}

fn workload(
    runner: &mut TpccRunner,
    conn: &mut dyn resildb_core::Connection,
    t_detect: usize,
    timeline: &IncidentTimeline,
) {
    Mix::standard(25, 11).run(runner, conn).expect("warmup");
    Attack {
        kind: AttackKind::ForgedPayment,
        w_id: 1,
        d_id: 1,
        target_id: 1,
    }
    .execute(conn)
    .expect("attack");
    // Ground truth for the incident timeline: the driver knows exactly
    // when the attack committed, so MTTD can be measured rather than
    // assumed zero.
    timeline.note_attack();
    Mix::standard(t_detect, 12)
        .run(runner, conn)
        .expect("post-attack");
}

/// Runs one point, with an optional telemetry probe attached to the
/// tracked (world A) run — the repair sweep populates the `repair.*`
/// phase histograms.
pub fn run_point(t_detect: usize, probe: Option<&Probe>) -> MttrPoint {
    let config = TpccConfig::scaled(2);

    // --- world A: tracked database, attacked, selectively repaired -----
    let sim = crate::sim_context(
        costs::networked(),
        costs::POOL_PAGES,
        probe.map(Probe::telemetry),
    );
    let builder = ProxyConfig::builder(Flavor::Postgres).record_read_only_deps(true);
    let pc = Probe::proxy_config(probe, builder);
    let mut bench = prepare(
        Flavor::Postgres,
        Setup::Tracked,
        &config,
        sim,
        LinkProfile::lan(),
        Some(pc),
        5,
    )
    .expect("prepare");
    let mut runner = TpccRunner::new(config.clone(), 9);
    let timeline = bench.db.sim().telemetry().timeline();
    workload(&mut runner, &mut *bench.conn, t_detect, timeline);

    let tool = resildb_core::RepairController::new(bench.db.clone());
    let t0 = bench.db.sim().clock().now();
    let analysis = tool.analyze().expect("analyze");
    let attack = {
        let mut s = bench.db.session();
        match s
            .query(&format!(
                "SELECT tr_id FROM annot WHERE descr = '{ATTACK_LABEL}'"
            ))
            .expect("annot")
            .rows
            .first()
            .map(|r| r[0].clone())
        {
            Some(resildb_core::Value::Int(v)) => v,
            other => panic!("attack missing: {other:?}"),
        }
    };
    let undo = analysis.undo_set(&[attack], &crate::fig5::ytd_rules());
    let plan = resildb_core::RepairPlan::with_undo_set(&[attack], undo);
    let report = tool.execute(&analysis, &plan).expect("repair");
    let selective_repair = bench.db.sim().clock().now() - t0;
    if let Some(probe) = probe {
        probe.capture(bench.conn.metrics());
    }

    // --- world B: untracked database; restore backup + replay ----------
    // The DBA reloads the backup (initial population) and re-runs every
    // legitimate transaction (everything except the attack) by hand.
    let sim = SimContext::new(costs::networked(), costs::POOL_PAGES);
    let db = resildb_core::Database::new("restore", Flavor::Postgres, sim);
    let conn = &mut *resildb_core::NativeDriver::new(db.clone(), LinkProfile::lan())
        .connect()
        .expect("connect");
    let t0 = db.sim().clock().now();
    Loader::new(config.clone(), 5)
        .load(conn)
        .expect("restore backup");
    let mut replay = TpccRunner::new(config, 9).without_annotations();
    Mix::standard(25, 11)
        .run(&mut replay, conn)
        .expect("replay warmup");
    Mix::standard(t_detect, 12)
        .run(&mut replay, conn)
        .expect("replay rest");
    let restore_and_replay = db.sim().clock().now() - t0;

    MttrPoint {
        t_detect,
        selective_repair,
        compensating_statements: report.outcome.statements.len(),
        restore_and_replay,
    }
}

/// Runs the sweep with an optional telemetry probe shared across points.
pub fn run(t_detects: &[usize], probe: Option<&Probe>) -> Vec<MttrPoint> {
    t_detects.iter().map(|&t| run_point(t, probe)).collect()
}

/// Writes the points as the `results` array of the `--json-out` report.
pub fn write_json(w: &mut JsonWriter, points: &[MttrPoint]) {
    w.array(|w| {
        for p in points {
            w.object(|w| {
                w.field("t_detect", p.t_detect)
                    .field("selective_repair_us", p.selective_repair.as_micros())
                    .field("compensating_statements", p.compensating_statements)
                    .field("restore_and_replay_us", p.restore_and_replay.as_micros())
                    .field("speedup", p.speedup());
            });
        }
    });
}

/// Renders the comparison table.
pub fn render(points: &[MttrPoint]) -> String {
    let mut out = String::from(
        "MTTR: selective repair vs. restore-backup-and-replay (W=2, forged payment)\n\n",
    );
    out.push_str(&format!(
        "{:>9} {:>18} {:>14} {:>20} {:>9}\n",
        "T_detect", "selective repair", "comp. stmts", "restore and replay", "speedup"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>9} {:>18} {:>14} {:>20} {:>8.1}x\n",
            p.t_detect,
            p.selective_repair.to_string(),
            p.compensating_statements,
            p.restore_and_replay.to_string(),
            p.speedup()
        ));
    }
    out
}

/// One measured live-repair availability point: how much clean traffic
/// the database kept serving *while* the repair sweep ran behind the
/// containment fence — the number a quiesced repair pins at zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveMttrPoint {
    /// Transactions committed between intrusion and detection.
    pub t_detect: usize,
    /// Wall-clock duration of the live repair (fence raise → lift).
    pub repair_wall: std::time::Duration,
    /// Clean transactions attempted while the repair was in flight.
    pub attempted: usize,
    /// Of those, committed (served despite the repair).
    pub served: usize,
    /// Of those, refused by the containment fence.
    pub fenced: usize,
    /// Transactions the repair undid.
    pub undo_set: usize,
    /// The incident this point's repair recorded on its timeline —
    /// attack/detect/fence marks plus the MTTD/MTTC/MTTR decomposition.
    pub incident: Option<IncidentRecord>,
}

impl LiveMttrPoint {
    /// What the repair did to the fence: tables raised, rows fenced,
    /// extension rounds — the incident's folded progress.
    pub fn fence(&self) -> IncidentProgress {
        self.incident
            .as_ref()
            .map(|i| i.progress)
            .unwrap_or_default()
    }

    /// Fraction of in-repair transaction attempts that were served.
    pub fn availability(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.served as f64 / self.attempted as f64
        }
    }
}

/// Shared observation slot for the metrics endpoint: the live instance
/// being measured. `mttr --live --serve` installs each point here before
/// the repair starts, and the endpoint's route closures read whatever is
/// current.
pub type ObserveSlot = Mutex<Option<Arc<ResilientDb>>>;

/// Lock an [`ObserveSlot`], surviving a poisoned mutex (a panicking
/// bench point must not take the endpoint down with it).
pub fn lock_slot(slot: &ObserveSlot) -> std::sync::MutexGuard<'_, Option<Arc<ResilientDb>>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one live-availability point. The final metrics fold (including
/// the `proxy.fence.*` counters and the `repair.live.fence_size` gauge)
/// is captured into `probe`; the instance is published into `observe`
/// for a concurrently running metrics endpoint.
pub fn run_live_point(
    t_detect: usize,
    probe: Option<&Probe>,
    observe: Option<&ObserveSlot>,
) -> LiveMttrPoint {
    let config = TpccConfig::scaled(2);
    let rdb = Arc::new(ResilientDb::new(Flavor::Postgres).expect("build"));
    {
        let mut conn = rdb.connect().expect("connect");
        Loader::new(config.clone(), 5)
            .load(&mut *conn)
            .expect("load");
        let mut runner = TpccRunner::new(config.clone(), 9);
        workload(
            &mut runner,
            &mut *conn,
            t_detect,
            rdb.telemetry().timeline(),
        );
    }
    let attack = rdb
        .txn_id_by_label(ATTACK_LABEL)
        .expect("annot lookup")
        .expect("attack tracked");

    // A worker keeps submitting clean transactions throughout: reads on
    // `item` (the attack closure never touches it) alternating with
    // payments against warehouse 2 (the forged payment hits warehouse 1).
    // Only attempts made while the repair is in flight are counted.
    let in_repair = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let (attempted, served, fenced) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    // Publish before the repair starts so the endpoint can watch the
    // whole episode.
    let controller = rdb.repair_controller_with(rdb.live_repair_options());
    if let Some(slot) = observe {
        *lock_slot(slot) = Some(Arc::clone(&rdb));
    }
    let (wall, report) = std::thread::scope(|scope| {
        let (rdb_w, in_repair, done) = (&rdb, &in_repair, &done);
        let (attempted, served, fenced) = (&attempted, &served, &fenced);
        scope.spawn(move || {
            let Ok(mut conn) = rdb_w.connect() else {
                return;
            };
            let mut i = 0usize;
            while !done.load(Ordering::Relaxed) {
                i += 1;
                let stmt = if i.is_multiple_of(2) {
                    "SELECT i_price FROM item WHERE i_id = 1".to_string()
                } else {
                    "UPDATE warehouse SET w_ytd = w_ytd + 1.0 WHERE w_id = 2".to_string()
                };
                let result = (|| -> Result<(), WireError> {
                    conn.execute("BEGIN")?;
                    conn.execute(&stmt)?;
                    conn.execute("COMMIT")?;
                    Ok(())
                })();
                if result.is_err() {
                    let _ = conn.execute("ROLLBACK");
                }
                if !in_repair.load(Ordering::Relaxed) {
                    continue;
                }
                attempted.fetch_add(1, Ordering::Relaxed);
                match result {
                    Ok(()) => {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) if e.to_string().contains("containment fence") => {
                        fenced.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {}
                }
                std::thread::yield_now();
            }
        });
        let t0 = std::time::Instant::now();
        in_repair.store(true, Ordering::Relaxed);
        let report = controller.repair(&[attack]).expect("live repair");
        in_repair.store(false, Ordering::Relaxed);
        let wall = t0.elapsed();
        done.store(true, Ordering::Relaxed);
        (wall, report)
    });
    if let Some(probe) = probe {
        probe.capture(rdb.metrics());
    }

    LiveMttrPoint {
        t_detect,
        repair_wall: wall,
        attempted: attempted.into_inner(),
        served: served.into_inner(),
        fenced: fenced.into_inner(),
        undo_set: report.undo_set.len(),
        incident: rdb.telemetry().timeline().snapshot().pop(),
    }
}

/// Runs the live-availability sweep with an optional shared probe,
/// publishing each point into `observe` for a concurrently running
/// metrics endpoint.
pub fn run_live(
    t_detects: &[usize],
    probe: Option<&Probe>,
    observe: Option<&ObserveSlot>,
) -> Vec<LiveMttrPoint> {
    t_detects
        .iter()
        .map(|&t| run_live_point(t, probe, observe))
        .collect()
}

/// Writes the live points as the `results` array of the `--json-out`
/// report. Each point's `"timeline"` is its incident as `/incidents`
/// serves it ([`IncidentRecord::write_json`]), or `null`.
pub fn write_live_json(w: &mut JsonWriter, points: &[LiveMttrPoint]) {
    w.array(|w| {
        for p in points {
            let fence = p.fence();
            let repair_wall_us = u64::try_from(p.repair_wall.as_micros()).unwrap_or(u64::MAX);
            w.object(|w| {
                w.field("t_detect", p.t_detect)
                    .field("repair_wall_us", repair_wall_us)
                    .field("attempted", p.attempted)
                    .field("served", p.served)
                    .field("fenced", p.fenced)
                    .field("availability", p.availability())
                    .field("fenced_tables", fence.fence_tables)
                    .field("fenced_rows", fence.fence_rows)
                    .field("extension_rounds", fence.extension_rounds)
                    .field("undo_set", p.undo_set);
                match &p.incident {
                    Some(incident) => incident.write_json(w.key("timeline")),
                    None => {
                        w.field("timeline", Scalar::Null);
                    }
                }
            });
        }
    });
}

/// Renders the live-availability table.
pub fn render_live(points: &[LiveMttrPoint]) -> String {
    let mut out = String::from(
        "Live repair availability: clean traffic served during the sweep \
         (W=2, forged payment)\n\n",
    );
    out.push_str(&format!(
        "{:>9} {:>12} {:>10} {:>8} {:>8} {:>13} {:>11} {:>9} {:>6}\n",
        "T_detect",
        "repair (ms)",
        "attempted",
        "served",
        "fenced",
        "availability",
        "fence rows",
        "ext.rnds",
        "undo"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>9} {:>12.2} {:>10} {:>8} {:>8} {:>12.1}% {:>11} {:>9} {:>6}\n",
            p.t_detect,
            p.repair_wall.as_secs_f64() * 1e3,
            p.attempted,
            p.served,
            p.fenced,
            p.availability() * 100.0,
            p.fence().fence_rows,
            p.fence().extension_rounds,
            p.undo_set,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selective_repair_beats_restore_and_replay() {
        let p = run_point(30, None);
        assert!(
            p.speedup() > 1.0,
            "selective {} vs restore {}",
            p.selective_repair,
            p.restore_and_replay
        );
        assert!(p.compensating_statements > 0);
    }

    #[test]
    fn live_repair_serves_clean_traffic_mid_sweep() {
        // An observer with nothing but the instance — what the endpoint
        // has — polls the fold while the point runs.
        let slot = ObserveSlot::default();
        let finished = AtomicBool::new(false);
        let (p, seen_in_flight) = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut seen_in_flight = 0usize;
                while !finished.load(Ordering::Relaxed) {
                    let Some(rdb) = lock_slot(&slot).clone() else {
                        std::thread::yield_now();
                        continue;
                    };
                    // The incident opens before the fence goes up and
                    // closes after it lifts, so `/ready` cannot flap.
                    let fenced = rdb.proxy_runtime().fence().is_active();
                    let open = rdb.telemetry().timeline().current().is_some();
                    assert!(!fenced || open, "fence up outside an incident");
                    seen_in_flight += usize::from(open);
                    let snap = rdb.metrics();
                    let gauge = |name: &str| {
                        snap.gauge(&format!("repair.progress.{name}"))
                            .unwrap_or_else(|| panic!("metrics() lacks repair.progress.{name}"))
                    };
                    assert!(gauge("compensated") <= gauge("total"), "{snap:?}");
                }
                seen_in_flight
            });
            let p = run_live_point(20, None, Some(&slot));
            finished.store(true, Ordering::Relaxed);
            (p, poller.join().expect("poller"))
        });
        assert!(seen_in_flight > 0, "poller never saw the repair in flight");
        let rdb = lock_slot(&slot).take().expect("point published itself");
        assert_eq!(rdb.telemetry().timeline().current(), None);
        let done = rdb.metrics();
        assert_eq!(done.gauge("repair.progress.phase"), Some(0.0));
        assert_eq!(
            done.gauge("repair.progress.compensated"),
            Some(p.undo_set as f64)
        );
        assert!(p.attempted > 0, "worker never ran during repair: {p:?}");
        assert!(
            p.served > 0,
            "no clean transaction served during live repair: {p:?}"
        );
        assert!(p.fence().fence_tables >= 1);
        assert!(p.undo_set >= 1);

        // The point carries its incident timeline: closed, ground-truth
        // attack mark first, one fence pair, decomposition exact.
        let incident = p.incident.expect("live point records an incident");
        assert!(!incident.open, "incident left open: {incident:?}");
        use resildb_core::IncidentPhase;
        assert_eq!(
            incident.marks.first().map(|m| m.phase),
            Some(IncidentPhase::AttackCommitted)
        );
        assert_eq!(incident.count(IncidentPhase::FenceRaised), 1);
        assert_eq!(incident.count(IncidentPhase::FenceLifted), 1);
        let d = incident.decomposition();
        assert!(d.mttd_ns > 0, "attack→detect should take time: {d:?}");
        assert_eq!(d.mttd_ns + d.mttc_ns + d.mttr_ns, d.wall_ns);
    }
}
