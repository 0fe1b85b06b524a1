//! The traced run: per-layer attribution from the outside.
//!
//! One *round* is an untraced epoch, a traced epoch of the same seed
//! (tapes at the client and downstream boundaries), a replay of the
//! downstream tape that splits the downstream span between wire and
//! engine, and — on `oltp_tracked` — one more epoch with telemetry
//! recording on. A layer's self time is its span minus its children's, so
//! the parts sum to the traced wall by construction and the remainder
//! (`wire.self_ns`) is a named field, not a hidden one.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use resildb_core::{CostModel, Database, Driver, LinkProfile, NativeDriver, SimContext};
use resildb_sql::{parse_statement, scan_statement};
use resildb_tpcc::TxnKind;

use crate::epoch::{first_difference, full_state, run_epoch, Checks, Epoch, EpochOptions, FLAVOR};
use crate::pins::{pin, PIN_SEED};
use crate::spec::{Workload, POOL_PAGES};
use crate::stats::percentile;
use crate::tape::{elapsed_ns, fnv1a, Tape};

/// Self time of each layer of one traced epoch, in nanoseconds. Signed:
/// a negative remainder is a measurement fault the caller reports, not
/// something to clamp away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layers {
    /// Load generator: wall − client spans.
    pub tpcc_self: i64,
    /// Tracking proxy: client spans − downstream spans.
    pub proxy_self: i64,
    /// Wire: downstream spans − engine share. The remainder.
    pub wire_self: i64,
    /// Engine: the downstream spans' engine share, as the replay split it.
    pub engine_exec: i64,
}

#[cfg(test)]
impl Layers {
    /// The parts, summed — equal to the wall they were cut from.
    pub fn total(&self) -> i64 {
        self.tpcc_self + self.proxy_self + self.wire_self + self.engine_exec
    }
}

/// Cuts a traced wall into layer self times: each layer keeps its span
/// minus the span of the layer below it.
pub fn attribute(wall_ns: u64, client_ns: u64, downstream_ns: u64, engine_ns: u64) -> Layers {
    let s = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    Layers {
        tpcc_self: s(wall_ns) - s(client_ns),
        proxy_self: s(client_ns) - s(downstream_ns),
        wire_self: s(downstream_ns) - s(engine_ns),
        engine_exec: s(engine_ns),
    }
}

/// Outcome of replaying a downstream tape.
#[derive(Debug)]
pub struct Replay {
    /// The measured statements through a native connection (wire + engine).
    pub wire_and_engine_ns: u64,
    /// The same statements through `Session::execute_sql` (engine alone).
    pub engine_ns: u64,
    /// Why a replayed database differs from the live one, if one does.
    pub divergence: Option<String>,
}

impl Replay {
    /// The engine's share of a downstream span of `downstream_ns`.
    pub fn engine_share_of(&self, downstream_ns: u64) -> u64 {
        let share = self.engine_ns as f64 / self.wire_and_engine_ns.max(1) as f64;
        (downstream_ns as f64 * share).round() as u64
    }
}

/// Replays the downstream tapes of a single-threaded traced epoch on two
/// fresh databases at once: every statement goes through a native
/// connection on one and straight into `Session::execute_sql` on the
/// other, back to back, taking turns at going first. The ratio of the two
/// totals splits the live downstream span into engine and wire.
///
/// The obvious alternative — live spans minus a later engine-only replay —
/// subtracts two measurements taken seconds apart; on a shared host the
/// machine's speed drifts by more than the wire's whole share in that
/// time. Interleaved, both paths see the same machine.
pub fn replay(epoch: &Epoch) -> Result<Replay, String> {
    let fresh = |name: &str| {
        let sim = SimContext::new(CostModel::free(), POOL_PAGES);
        sim.set_realtime(false);
        Database::new(name, FLAVOR, sim)
    };
    let (wired_db, bare_db) = (fresh("replay-wire"), fresh("replay-engine"));
    let mut conn = NativeDriver::new(wired_db.clone(), LinkProfile::local())
        .connect()
        .map_err(|e| e.to_string())?;
    let mut session = bare_db.session();
    for tape in &epoch.downstream_tapes {
        for sql in &tape.sql[..tape.measured_from] {
            let diverged = |e: String| format!("replay of set-up diverged at `{sql}`: {e}");
            conn.execute(sql).map_err(|e| diverged(e.to_string()))?;
            session
                .execute_sql(sql)
                .map_err(|e| diverged(e.to_string()))?;
        }
    }
    let mut divergence = None;
    let (mut wired_ns, mut bare_ns) = (0u64, 0u64);
    let mut wire_first = true;
    for sql in epoch.downstream_tapes.iter().flat_map(Tape::measured_sql) {
        let mut wired = || {
            let t = Instant::now();
            let ok = black_box(conn.execute(black_box(sql))).is_ok();
            (elapsed_ns(t), ok)
        };
        let mut bare = || {
            let t = Instant::now();
            let ok = black_box(session.execute_sql(black_box(sql))).is_ok();
            (elapsed_ns(t), ok)
        };
        let ((w_ns, w_ok), (b_ns, b_ok)) = if wire_first {
            let w = wired();
            (w, bare())
        } else {
            let b = bare();
            (wired(), b)
        };
        wire_first = !wire_first;
        wired_ns += w_ns;
        bare_ns += b_ns;
        if !(w_ok && b_ok) {
            divergence.get_or_insert_with(|| format!("`{sql}` failed in replay"));
        }
    }
    if divergence.is_none() {
        let live = epoch
            .served_state
            .as_ref()
            .ok_or("replay needs a traced epoch")?;
        divergence = first_difference(live, &full_state(&wired_db)?)
            .or(first_difference(live, &full_state(&bare_db)?));
    }
    Ok(Replay {
        wire_and_engine_ns: wired_ns,
        engine_ns: bare_ns,
        divergence,
    })
}

/// One round of the traced run.
pub struct Round {
    /// The untraced epoch: the wall the tracing overhead is held against.
    pub plain: Epoch,
    /// The traced epoch of the same seed.
    pub traced: Epoch,
    /// Wire/engine replay (single-threaded workloads only: with two
    /// threads the commit order is not deterministic).
    pub replay: Option<Replay>,
    /// `scan_statement` over the measured client statements.
    pub scan_ns: u64,
    /// `parse_statement` over the measured downstream statements.
    pub parse_ns: u64,
    /// The telemetry-recording epoch (`oltp_tracked` only).
    pub telemetry: Option<Epoch>,
}

fn time_over<'a, T>(
    statements: impl Iterator<Item = &'a String>,
    mut f: impl FnMut(&'a str) -> T,
) -> u64 {
    let start = Instant::now();
    for sql in statements {
        black_box(f(black_box(sql.as_str())));
    }
    elapsed_ns(start)
}

impl Round {
    /// The tapes at the client boundary. Untracked there is no proxy, so
    /// the one decorator on the path serves as both boundaries.
    pub fn client_tapes(&self) -> &[Tape] {
        if self.traced.client_tapes.is_empty() {
            &self.traced.downstream_tapes
        } else {
            &self.traced.client_tapes
        }
    }

    /// Layer self times of the traced epoch. With two threads the walls
    /// and spans are summed busy time and engine + wire stay unsplit
    /// (reported under `engine.exec_ns`).
    pub fn layers(&self) -> Layers {
        let client: u64 = self.client_tapes().iter().map(Tape::measured_ns).sum();
        let downstream: u64 = self
            .traced
            .downstream_tapes
            .iter()
            .map(Tape::measured_ns)
            .sum();
        let engine = self
            .replay
            .as_ref()
            .map_or(downstream, |r| r.engine_share_of(downstream));
        attribute(self.traced.busy_ns, client, downstream, engine)
    }
}

/// Runs one round of `w` with `epoch_seed`.
pub fn run_round(w: &Workload, epoch_seed: u64) -> Result<Round, String> {
    let plain = run_epoch(w, epoch_seed, EpochOptions::default())?;
    let traced = run_epoch(
        w,
        epoch_seed,
        EpochOptions {
            traced: true,
            telemetry: false,
        },
    )?;
    let replay = if w.threads == 1 {
        Some(replay(&traced)?)
    } else {
        None
    };
    let telemetry = if w.name == "oltp_tracked" {
        Some(run_epoch(
            w,
            epoch_seed,
            EpochOptions {
                traced: false,
                telemetry: true,
            },
        )?)
    } else {
        None
    };
    let mut round = Round {
        plain,
        traced,
        replay,
        scan_ns: 0,
        parse_ns: 0,
        telemetry,
    };
    round.scan_ns = time_over(
        round.client_tapes().iter().flat_map(Tape::measured_sql),
        scan_statement,
    );
    round.parse_ns = time_over(
        round
            .traced
            .downstream_tapes
            .iter()
            .flat_map(Tape::measured_sql),
        parse_statement,
    );
    Ok(round)
}

/// The traced run's own gates: the attribution must be sane, the replay
/// must reproduce the live database, and the pinned seed must still
/// generate the pinned workload.
pub fn gates(w: &Workload, round: &Round, epoch_seed: u64, first_of_pinned: bool) -> Checks {
    let mut checks = Checks::default();
    let layers = round.layers();
    let wall = round.traced.busy_ns as f64;
    checks.gate(layers.tpcc_self >= 0 && layers.proxy_self >= 0, || {
        format!("negative self time: {layers:?}")
    });
    if let Some(replay) = &round.replay {
        checks.gate(replay.divergence.is_none(), || {
            format!(
                "replay of the downstream tape diverged from the live database: {}",
                replay.divergence.clone().unwrap_or_default()
            )
        });
        // Under the free cost model the wire is thinner than the replay
        // can resolve, so the remainder may dip just below zero.
        let share = layers.wire_self as f64 / wall;
        checks.gate((-0.02..=0.15).contains(&share), || {
            format!(
                "wire.self_ns is {:.1} % of the traced wall (valid: -2–15 %), seed {epoch_seed}",
                100.0 * share
            )
        });
    }
    if first_of_pinned {
        checks.absorb(pin_gates(w, round));
    }
    checks
}

/// Committed transactions by kind, in `TxnKind::ALL` order.
pub fn committed_by_kind(epoch: &Epoch) -> [u64; 5] {
    TxnKind::ALL.map(|k| epoch.committed_of(k))
}

fn pin_gates(w: &Workload, round: &Round) -> Checks {
    let mut checks = Checks::default();
    let Some(pin) = pin(w.name) else {
        checks.gate(false, || format!("no pin for workload {}", w.name));
        return checks;
    };
    let changed = |what: &str, pinned: String, seen: String| {
        format!(
            "workload or answers changed on {} (seed {PIN_SEED}): {what} pinned {pinned}, observed {seen}",
            w.name
        )
    };
    let tapes = round.client_tapes();
    let stmts: u64 = tapes.iter().map(|t| t.measured_sql().len() as u64).sum();
    checks.gate(stmts == pin.client_stmts, || {
        changed(
            "client_stmts",
            pin.client_stmts.to_string(),
            stmts.to_string(),
        )
    });
    let committed = committed_by_kind(&round.traced);
    checks.gate(committed == pin.committed, || {
        changed(
            "committed",
            format!("{:?}", pin.committed),
            format!("{committed:?}"),
        )
    });
    // A deadlock victim redraws its parameters, so a retried run is not
    // the pinned tape; the single-threaded workloads never retry.
    if round.traced.deadlock_retries == 0 {
        let fnv = fnv1a(tapes.iter().flat_map(|t| &t.sql));
        checks.gate(fnv == pin.tape_fnv, || {
            changed(
                "tape_fnv",
                format!("{:#018x}", pin.tape_fnv),
                format!("{fnv:#018x}"),
            )
        });
    }
    let (undo, comp) = round
        .traced
        .repair
        .as_ref()
        .map_or((0, 0), |r| (r.undo_set_size, r.compensating_stmts));
    checks.gate(
        (undo, comp) == (pin.undo_set_size, pin.compensating_stmts),
        || {
            changed(
                "(undo_set_size, compensating_stmts)",
                format!("{:?}", (pin.undo_set_size, pin.compensating_stmts)),
                format!("{:?}", (undo, comp)),
            )
        },
    );
    checks
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn kind_p50_us(epoch: &Epoch, kind: TxnKind) -> f64 {
    let mut ns: Vec<u64> = epoch
        .latencies
        .iter()
        .filter(|(k, _)| *k == kind)
        .map(|(_, ns)| *ns)
        .collect();
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    percentile(&ns, 0.5) as f64 / 1e3
}

fn txn_p99_us(epoch: &Epoch) -> f64 {
    let mut ns: Vec<u64> = epoch.latencies.iter().map(|(_, ns)| *ns).collect();
    ns.sort_unstable();
    percentile(&ns, 0.99) as f64 / 1e3
}

/// Every per-layer metric of one round, by name.
pub fn layer_sample(round: &Round) -> BTreeMap<&'static str, f64> {
    let (p, t) = (&round.plain, &round.traced);
    let layers = round.layers();
    let txns = p.committed;
    let client_stmts: u64 = round
        .client_tapes()
        .iter()
        .map(|t| t.measured_sql().len() as u64)
        .sum();
    let annotates: u64 = round
        .client_tapes()
        .iter()
        .flat_map(Tape::measured_sql)
        .filter(|s| s.starts_with("ANNOTATE "))
        .count() as u64;
    let downstream_stmts: u64 = t
        .downstream_tapes
        .iter()
        .map(|t| t.measured_sql().len() as u64)
        .sum();
    let tracked = p.trans_dep.is_some();
    let (dep_rows, deps) = p
        .trans_dep
        .map_or((0, 0), |(b, a)| (a.rows - b.rows, a.deps - b.deps));
    let (wal_before, wal_after) = t.wal_records.unwrap_or_default();
    let committed = committed_by_kind(p);

    let mut m = BTreeMap::new();
    m.insert("trace.wall_ns", t.busy_ns as f64);
    m.insert("trace.overhead_frac", t.serve_s / p.serve_s - 1.0);
    m.insert("tpcc.self_ns", layers.tpcc_self as f64);
    m.insert("tpcc.client_stmts_per_txn", ratio(client_stmts, txns));
    m.insert("tpcc.txn_p99_us", txn_p99_us(p));
    m.insert("tpcc.new_order_p50_us", kind_p50_us(p, TxnKind::NewOrder));
    m.insert("tpcc.payment_p50_us", kind_p50_us(p, TxnKind::Payment));
    m.insert("tpcc.delivery_p50_us", kind_p50_us(p, TxnKind::Delivery));
    m.insert(
        "tpcc.order_status_p50_us",
        kind_p50_us(p, TxnKind::OrderStatus),
    );
    m.insert(
        "tpcc.stock_level_p50_us",
        kind_p50_us(p, TxnKind::StockLevel),
    );
    m.insert("tpcc.client_stmts", client_stmts as f64);
    m.insert("tpcc.committed_new_order", committed[0] as f64);
    m.insert("tpcc.committed_payment", committed[1] as f64);
    m.insert("tpcc.committed_delivery", committed[2] as f64);
    m.insert("tpcc.committed_order_status", committed[3] as f64);
    m.insert("tpcc.committed_stock_level", committed[4] as f64);
    m.insert("proxy.self_ns", layers.proxy_self as f64);
    m.insert(
        "proxy.downstream_stmts_per_client_stmt",
        if tracked {
            ratio(downstream_stmts, client_stmts)
        } else {
            0.0
        },
    );
    m.insert(
        "proxy.extra_stmts_per_txn",
        if tracked {
            // ANNOTATE is a proxy pseudo-statement that never goes downstream.
            ratio(
                (downstream_stmts + annotates).saturating_sub(client_stmts),
                txns,
            )
        } else {
            0.0
        },
    );
    m.insert(
        "proxy.rewrite_cache_hit_ratio",
        ratio(p.rewrite_cache.0, p.rewrite_cache.0 + p.rewrite_cache.1),
    );
    m.insert("proxy.deps_per_txn", ratio(deps, txns));
    m.insert("proxy.trans_dep_rows_per_txn", ratio(dep_rows, txns));
    m.insert("sql.scan_ns", round.scan_ns as f64);
    m.insert("sql.parse_ns", round.parse_ns as f64);
    m.insert(
        "sql.parse_ns_per_stmt",
        ratio(round.parse_ns, downstream_stmts),
    );
    m.insert(
        "wire.self_ns",
        if round.replay.is_some() {
            layers.wire_self as f64
        } else {
            0.0
        },
    );
    m.insert("wire.round_trips_per_txn", ratio(p.serve.round_trips, txns));
    m.insert("wire.bytes_per_txn", ratio(p.serve.network_bytes, txns));
    m.insert("engine.exec_ns", layers.engine_exec as f64);
    m.insert(
        "engine.exec_ns_per_stmt",
        layers.engine_exec as f64 / downstream_stmts.max(1) as f64,
    );
    m.insert(
        "engine.stmt_cache_hit_ratio",
        ratio(p.serve.stmt_hits, p.serve.stmt_hits + p.serve.stmt_misses),
    );
    m.insert(
        "engine.rows_touched_per_txn",
        ratio(p.serve.rows_touched, txns),
    );
    m.insert(
        "engine.wal_records_per_txn",
        ratio(wal_after - wal_before, txns),
    );
    m.insert("engine.wal_bytes_per_txn", ratio(p.serve.log_bytes, txns));
    m.insert("engine.log_forces_per_txn", ratio(p.serve.log_forces, txns));
    m.insert(
        "engine.deadlock_retries_per_txn",
        ratio(p.deadlock_retries, txns),
    );
    m.insert("engine.wal_save_ns", p.wal_save_ns as f64);
    m.insert("engine.wal_bytes_saved", p.wal_bytes_saved as f64);
    m.insert("engine.wal_recover_ns", p.wal_recover_ns as f64);
    m.insert(
        "sim.pool_hit_ratio",
        ratio(p.serve.page_hits, p.serve.page_hits + p.serve.page_misses),
    );
    m.insert(
        "sim.page_touches_per_txn",
        ratio(p.serve.page_hits + p.serve.page_misses, txns),
    );
    let tel = round.telemetry.as_ref();
    m.insert(
        "telemetry.recording_on_txn_per_s",
        tel.map_or(0.0, Epoch::txn_per_s),
    );
    m.insert(
        "telemetry.recording_overhead_frac",
        tel.map_or(0.0, |e| e.serve_s / p.serve_s - 1.0),
    );
    m.insert(
        "telemetry.flight_dropped",
        tel.map_or(0.0, |e| e.flight_dropped as f64),
    );
    let plain_repair = p.repair.clone().unwrap_or_default();
    let traced_repair = t.repair.clone().unwrap_or_default();
    m.insert("repair.analyze_ns", plain_repair.analyze_ns as f64);
    m.insert("repair.log_scan_ns", traced_repair.log_scan_ns as f64);
    m.insert("repair.log_records", plain_repair.log_records as f64);
    m.insert("repair.correlate_ns", traced_repair.correlate_ns as f64);
    m.insert(
        "repair.graph_build_ns",
        traced_repair.analyze_ns as f64
            - traced_repair.log_scan_ns as f64
            - traced_repair.correlate_ns as f64,
    );
    m.insert("repair.closure_ns", plain_repair.plan_ns as f64);
    m.insert("repair.compensate_ns", plain_repair.execute_ns as f64);
    m.insert("repair.undo_set_size", plain_repair.undo_set_size as f64);
    m.insert(
        "repair.compensating_stmts",
        plain_repair.compensating_stmts as f64,
    );
    m.insert("repair.tracked_total", plain_repair.tracked_total as f64);
    m.insert(
        "repair.saved_frac",
        ratio(plain_repair.saved, plain_repair.tracked_total),
    );
    m.insert(
        "repair.ns_per_log_record",
        ratio(plain_repair.analyze_ns, plain_repair.log_records),
    );
    m.insert(
        "repair.ns_per_compensating_stmt",
        ratio(plain_repair.execute_ns, plain_repair.compensating_stmts),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, PER_LAYER};

    #[test]
    fn self_times_sum_to_the_wall_by_construction() {
        let l = attribute(1_000, 900, 700, 650);
        assert_eq!(
            l,
            Layers {
                tpcc_self: 100,
                proxy_self: 200,
                wire_self: 50,
                engine_exec: 650
            }
        );
        assert_eq!(l.total(), 1_000);
        // An engine share above the downstream span shows as a negative
        // remainder — reported, never clamped — and the sum still holds.
        let l = attribute(1_000, 900, 700, 800);
        assert_eq!(l.wire_self, -100);
        assert_eq!(l.total(), 1_000);
        // Untracked: one decorator is both boundaries, proxy self is 0.
        assert_eq!(attribute(500, 400, 400, 390).proxy_self, 0);
        // The replay's ratio, not its absolute time, splits the live span.
        let r = Replay {
            wire_and_engine_ns: 2_000,
            engine_ns: 1_800,
            divergence: None,
        };
        assert_eq!(r.engine_share_of(700), 630);
    }

    fn small(name: &str) -> Workload {
        workload(name).unwrap().scaled_down(10)
    }

    #[test]
    fn a_round_reports_every_per_layer_metric_and_replays_exactly() {
        for name in [
            "oltp_tracked",
            "oltp_untracked",
            "repair",
            "oltp_tracked_2t",
        ] {
            let w = small(name);
            let round = run_round(&w, 9).unwrap();
            let sample = layer_sample(&round);
            for def in PER_LAYER {
                let v = sample
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{name} lacks {}", def.name));
                assert!(v.is_finite(), "{name} {} = {v}", def.name);
            }
            assert_eq!(sample.len(), PER_LAYER.len());
            let layers = round.layers();
            assert_eq!(layers.total(), round.traced.busy_ns as i64, "{name}");
            if let Some(r) = &round.replay {
                assert_eq!(r.divergence, None, "{name}");
            }
            assert_eq!(round.replay.is_some(), w.threads == 1);
            if !w.tracked {
                assert_eq!(layers.proxy_self, 0);
                assert_eq!(sample["proxy.extra_stmts_per_txn"], 0.0);
            } else {
                assert!(sample["proxy.extra_stmts_per_txn"] > 0.0, "{name}");
                assert!(sample["proxy.trans_dep_rows_per_txn"] >= 1.0, "{name}");
            }
        }
    }

    #[test]
    fn count_metrics_repeat_exactly_for_one_seed() {
        let w = small("oltp_tracked");
        let a = layer_sample(&run_round(&w, 4).unwrap());
        let b = layer_sample(&run_round(&w, 4).unwrap());
        for def in PER_LAYER {
            if matches!(def.unit, "count" | "B") || def.name.ends_with("_ratio") {
                assert_eq!(a[def.name], b[def.name], "{}", def.name);
            }
        }
    }
}
