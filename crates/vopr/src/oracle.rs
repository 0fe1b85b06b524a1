//! The machine-verifiable invariants every run is checked against.
//!
//! Each oracle returns a list of human-readable failures (empty = held):
//!
//! 1. **Byte equality** (single-threaded runs) — after repair, world A's
//!    client-visible TPC-C state equals world B's, where B replayed only
//!    the clean survivors (committed, not malicious, not undone) in commit
//!    order. This is the paper's central promise, and the
//!    Ultraverse-style replay check of PAPERS.md. Threaded runs check the
//!    schedule-independent **attack eradicated** oracle instead.
//! 2. **Closure ground truth** (single-threaded runs) — the repair's undo
//!    set equals the closure the *generator* computes from its own
//!    read/write sets. Byte equality alone cannot see a missed closure
//!    member whose SQL happens to produce identical bytes; this oracle
//!    can. Oracle 2b, **one closure** (every thread mode): the undo set
//!    the controller compensated equals the pre-repair `Analysis`
//!    closure, the one every closure view (`WhatIfSession`,
//!    `repair_console`) shows, so oracle 2 checks what was compensated.
//! 3. **Exactly-one `trans_dep` row** per committed write transaction,
//!    none for aborted ones (§3.3's bookkeeping invariant).
//! 4. **Dependency ledger drains** — `proxy.trans_dep.inflight` is zero
//!    once every connection is gone, in both worlds.
//! 5. **Flight-recorder lifecycle** — each committed write transaction
//!    shows exactly one `txn_begin` and one `commit` and no `abort`.
//! 6. **Static blast-radius soundness** — every transaction the repair
//!    undid lies inside the static conflict-graph closure of the
//!    committed malicious profiles (DESIGN.md §11), checked both without
//!    rules and with the derivable-column false-dependency rules applied
//!    on both sides. Valid under any interleaving: the static graph is
//!    order-agnostic.
//! 9. **Incident-timeline well-formedness** — every incident the repair
//!    episode recorded is closed, its phase marks are strictly
//!    monotonic, its MTTD/MTTC/MTTR decomposition sums exactly to the
//!    incident's wall time, and containment fences pair up: a live
//!    incident has exactly one `fence_raised`/`fence_lifted` pair, a
//!    quiesced one has none.

use std::collections::{BTreeMap, BTreeSet};

use resildb_analyze::{profiles_from_groups, ConflictGraph};
use resildb_core::{
    infer_derivable_columns, parse_statement, Analysis, Connection, FalseDepRule, ResilientDb,
    Response, SchemaSnapshot, Value,
};
use resildb_sim::{IncidentPhase, IncidentRecord, TraceSnapshot};
use resildb_tpcc::TPCC_TABLES;

use crate::harness::Outcome;
use crate::scenario::{RowKey, Scenario};

/// Rows of `table` through `conn`, sorted, column header first — the
/// unit of table comparison. A tracked connection hides the trid columns,
/// an untracked one shows them. `ctx` opens a failed SELECT's message.
fn table_rows(conn: &mut dyn Connection, table: &str, ctx: &str) -> Result<Vec<String>, String> {
    match conn
        .execute(&format!("SELECT * FROM {table}"))
        .map_err(|e| format!("{ctx}SELECT * FROM {table} failed: {e}"))?
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

/// A connection for the oracles' reads: tracked (the client's view, trid
/// columns hidden) or untracked (trid columns shown).
fn oracle_conn(rdb: &ResilientDb, tracked: bool) -> Result<Box<dyn Connection>, String> {
    if tracked {
        (rdb.connect()).map_err(|e| format!("oracle connect failed: {e}"))
    } else {
        (rdb.connect_untracked()).map_err(|e| format!("untracked connect failed: {e}"))
    }
}

/// The table comparison of oracles 1 and 8: each of `tables` whose rows
/// differ between worlds `a` and `b`, as `{check}: table T diverges
/// between {worlds} (…)` with up to four differing rows.
pub(crate) fn diverging_tables<'t>(
    (check, worlds): (&str, &str),
    tables: impl IntoIterator<Item = &'t str>,
    (a, b): (&ResilientDb, &ResilientDb),
    tracked: bool,
) -> Vec<String> {
    let (mut ca, mut cb) = match (oracle_conn(a, tracked), oracle_conn(b, tracked)) {
        (Ok(ca), Ok(cb)) => (ca, cb),
        (Err(e), _) | (_, Err(e)) => return vec![e],
    };
    let ctx = if tracked { "oracle " } else { "" };
    let mut failures = Vec::new();
    for table in tables {
        match (
            table_rows(&mut *ca, table, ctx),
            table_rows(&mut *cb, table, ctx),
        ) {
            (Ok(ra), Ok(rb)) if ra != rb => {
                let diff = (ra.iter().filter(|r| !rb.contains(r)))
                    .chain(rb.iter().filter(|r| !ra.contains(r)))
                    .take(4)
                    .cloned()
                    .collect::<Vec<_>>()
                    .join(" | ");
                failures.push(format!(
                    "{check}: table {table} diverges between {worlds} \
                     ({} vs {} rows; e.g. {diff})",
                    ra.len() - 1,
                    rb.len() - 1,
                ));
            }
            (Err(e), _) | (_, Err(e)) => failures.push(e),
            _ => {}
        }
    }
    failures
}

/// Oracle 1: repaired world A byte-equals clean-replay world B on every
/// TPC-C table, through tracked connections (hidden columns stripped, so
/// the differing proxy txn ids of the two worlds are invisible — exactly
/// the client's view).
pub fn byte_equality(a: &ResilientDb, b: &ResilientDb) -> Vec<String> {
    let check = ("byte-equality", "repaired state and clean replay");
    diverging_tables(check, TPCC_TABLES, (a, b), true)
}

/// Oracle 1b: the attack is *eradicated* — valid under any interleaving,
/// so this is the state oracle for threaded runs, where byte equality
/// against a serial replay is unsound (the engine runs read-committed:
/// readers take no locks, so a concurrent history need not be equivalent
/// to any serial one).
///
/// Two schedule-independent facts about the generator's attack shapes:
/// - Malicious writes plant monetary values ≥ 999 999 (absolute overwrite
///   or +1 000 000 delta) in `warehouse.w_ytd`, `district.d_ytd` or
///   `customer.c_balance`. Legitimate TPC-C traffic moves those fields by
///   at most a few thousand, so any such value after repair — including
///   one a survivor stacked a legitimate delta onto — is surviving damage.
/// - Only malicious transactions ever *write* the `item` table, so after
///   repair it must byte-equal the clean replay's regardless of how the
///   legitimate workload interleaved.
pub fn attack_eradicated(a: &ResilientDb, b: &ResilientDb) -> Vec<String> {
    let mut failures = Vec::new();
    for (table, col) in [
        ("warehouse", "w_ytd"),
        ("district", "d_ytd"),
        ("customer", "c_balance"),
    ] {
        let poisoned = (|| -> Result<usize, String> {
            let mut conn = oracle_conn(a, true)?;
            match conn
                .execute(&format!("SELECT {col} FROM {table}"))
                .map_err(|e| format!("oracle SELECT {col} FROM {table} failed: {e}"))?
            {
                Response::Rows(qr) => Ok(qr
                    .rows
                    .iter()
                    .filter(|r| match r.first() {
                        Some(Value::Int(v)) => *v >= 999_999,
                        Some(Value::Float(v)) => *v >= 999_999.0,
                        _ => false,
                    })
                    .count()),
                other => Err(format!("SELECT {col}: expected rows, got {other:?}")),
            }
        })();
        match poisoned {
            Ok(0) => {}
            Ok(n) => failures.push(format!(
                "eradication: {n} {table}.{col} value(s) ≥ 999999 survived repair"
            )),
            Err(e) => failures.push(e),
        }
    }
    let item = |rdb| table_rows(&mut *oracle_conn(rdb, true)?, "item", "oracle ");
    match (item(a), item(b)) {
        (Ok(ra), Ok(rb)) if ra != rb => failures.push(
            "eradication: item table (written only by malicious txns) \
             diverges from clean replay"
                .into(),
        ),
        (Err(e), _) | (_, Err(e)) => failures.push(e),
        _ => {}
    }
    failures
}

/// The generator-side damage closure: forward taint propagation over the
/// committed schedule using the ground-truth row sets. A committed write
/// transaction is tainted if it is malicious, or if any row it read or
/// overwrote was last written by a tainted transaction. Read-only
/// transactions never enter the closure (they record no tracking rows and
/// have nothing to undo) — matching the repair tool's graph by design.
pub(crate) fn ground_truth_closure(scenario: &Scenario, outcomes: &[Outcome]) -> BTreeSet<String> {
    let mut last_writer: BTreeMap<RowKey, usize> = BTreeMap::new();
    let mut tainted: BTreeSet<usize> = BTreeSet::new();
    for (i, txn) in scenario.txns.iter().enumerate() {
        if outcomes[i] != Outcome::Committed {
            continue;
        }
        let mut taint = txn.malicious;
        for row in txn.reads.iter().chain(txn.preimages.iter()) {
            if let Some(w) = last_writer.get(row) {
                if tainted.contains(w) {
                    taint = true;
                }
            }
        }
        if taint && txn.wrote {
            tainted.insert(i);
        }
        for row in &txn.writes {
            last_writer.insert(row.clone(), i);
        }
        for row in &txn.deletes {
            last_writer.remove(row);
        }
    }
    tainted
        .into_iter()
        .map(|i| scenario.txns[i].label.clone())
        .collect()
}

/// Oracle 2: the repair's undo set equals the ground-truth closure.
/// Single-threaded runs only — under real threads the engine's row-lock
/// ordering (not the schedule order) decides who read whose write.
pub fn closure_matches_ground_truth(
    scenario: &Scenario,
    outcomes: &[Outcome],
    undo_labels: &BTreeSet<String>,
) -> Vec<String> {
    let expected = ground_truth_closure(scenario, outcomes);
    if expected == *undo_labels {
        return Vec::new();
    }
    let missed: Vec<_> = expected.difference(undo_labels).cloned().collect();
    let extra: Vec<_> = undo_labels.difference(&expected).cloned().collect();
    vec![format!(
        "closure: undo set diverges from ground truth \
         (missed: [{}], unexpected: [{}])",
        missed.join(", "),
        extra.join(", "),
    )]
}

/// Oracle 2b: the controller compensated exactly `closure`, the undo set
/// of the `Analysis` taken before the repair. Valid under any
/// interleaving: both sides read the same quiesced log.
pub fn one_closure(closure: &BTreeSet<i64>, compensated: &BTreeSet<i64>) -> Vec<String> {
    if closure == compensated {
        return Vec::new();
    }
    let missed: Vec<_> = closure.difference(compensated).collect();
    let extra: Vec<_> = compensated.difference(closure).collect();
    vec![format!(
        "one closure: the controller's undo set diverges from the analysis \
         closure every view shows (missed: {missed:?}, unexpected: {extra:?})"
    )]
}

/// Oracle 3: exactly-once dependency bookkeeping, checked post-repair.
///
/// - A committed write transaction the repair did *not* undo has exactly
///   one `trans_dep` row and its `annot` row intact.
/// - A committed write transaction the repair *did* undo has neither —
///   its tracking rows were INSERTs inside the undone transaction, and
///   the compensation sweep deletes them with everything else it wrote.
/// - Aborted and read-only transactions never have tracking rows.
///
/// `label_trids` is the label → proxy-trid mapping the harness captured
/// *before* repair (afterwards the undone labels resolve to nothing).
pub fn trans_dep_exactly_once(
    rdb: &ResilientDb,
    scenario: &Scenario,
    outcomes: &[Outcome],
    undo_labels: &BTreeSet<String>,
    label_trids: &BTreeMap<String, i64>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut counts: BTreeMap<i64, usize> = BTreeMap::new();
    let trids = (|| -> Result<Vec<i64>, String> {
        let mut conn = oracle_conn(rdb, false)?;
        match conn
            .execute("SELECT tr_id FROM trans_dep")
            .map_err(|e| format!("trans_dep scan failed: {e}"))?
        {
            Response::Rows(qr) => Ok(qr
                .rows
                .iter()
                .filter_map(|row| match row.first() {
                    Some(Value::Int(id)) => Some(*id),
                    _ => None,
                })
                .collect()),
            other => Err(format!("trans_dep scan: expected rows, got {other:?}")),
        }
    })();
    let trids = match trids {
        Ok(t) => t,
        Err(e) => return vec![e],
    };
    for id in &trids {
        *counts.entry(*id).or_insert(0) += 1;
    }

    for (i, txn) in scenario.txns.iter().enumerate() {
        let annot_now = match rdb.txn_id_by_label(&txn.label) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("annot lookup failed for {}: {e}", txn.label));
                continue;
            }
        };
        let committed_write = outcomes[i] == Outcome::Committed && txn.wrote;
        if !committed_write {
            if annot_now.is_some() {
                failures.push(format!(
                    "trans_dep: {} txn {} unexpectedly left tracking rows",
                    if outcomes[i] == Outcome::Committed {
                        "read-only"
                    } else {
                        "aborted"
                    },
                    txn.label
                ));
            }
            continue;
        }
        let Some(&trid) = label_trids.get(&txn.label) else {
            continue; // the harness already reported the missing annot row
        };
        let n = counts.get(&trid).copied().unwrap_or(0);
        if undo_labels.contains(&txn.label) {
            if annot_now.is_some() || n != 0 {
                failures.push(format!(
                    "trans_dep: repair left tracking rows for undone txn {} \
                     (trid {trid}: annot={}, trans_dep={n})",
                    txn.label,
                    annot_now.is_some(),
                ));
            }
        } else if annot_now != Some(trid) || n != 1 {
            failures.push(format!(
                "trans_dep: surviving committed txn {} (trid {trid}) has \
                 annot={annot_now:?} and {n} trans_dep record(s), want exactly 1 of each",
                txn.label
            ));
        }
    }
    failures
}

/// Oracle 6: static blast-radius soundness. The static analyzer promises
/// that its per-profile damage closure *over-approximates* any concrete
/// damage closure a compromise of that profile can cause. This oracle
/// machine-checks the promise against the run that just happened: every
/// label the repair actually undid must lie inside the static conflict
/// graph's closure of the committed malicious transactions' profiles,
/// where each committed transaction is its own profile (label = class).
///
/// Two inclusions are checked, matching the two pruning regimes:
/// - the rule-free repair closure (what the harness repairs with) against
///   the unpruned static closure, and
/// - the repair closure under [`FalseDepRule::from_derivable_columns`]
///   against the rule-pruned static closure, with *the same* derivable
///   set feeding both sides.
///
/// The seed set is the full committed-malicious label set regardless of
/// the `SkipFinalAttack` canary — a static bound computed from a superset
/// of the repair's initial set is still a valid upper bound, so the
/// canary cannot make this oracle fail spuriously.
pub fn static_soundness(
    scenario: &Scenario,
    outcomes: &[Outcome],
    analysis: Option<&Analysis>,
    initial: &[i64],
    undo_labels: &BTreeSet<String>,
) -> Vec<String> {
    let committed: Vec<(String, Vec<String>)> = scenario
        .txns
        .iter()
        .enumerate()
        .filter(|(i, _)| outcomes[*i] == Outcome::Committed)
        .map(|(_, t)| (t.label.clone(), t.statements.clone()))
        .collect();
    let seeds: Vec<&str> = scenario
        .txns
        .iter()
        .enumerate()
        .filter(|(i, t)| t.malicious && outcomes[*i] == Outcome::Committed)
        .map(|(_, t)| t.label.as_str())
        .collect();
    if seeds.is_empty() {
        // Nothing committed maliciously: the repair had nothing to undo.
        return Vec::new();
    }
    // The same inputs a pre-deployment run of the analyzer would see: the
    // schema DDL plus the workload's statements.
    let stmts: Vec<_> = resildb_tpcc::ddl_statements()
        .iter()
        .map(ToString::to_string)
        .chain(committed.iter().flat_map(|(_, ss)| ss.iter().cloned()))
        .filter_map(|sql| parse_statement(&sql).ok())
        .collect();
    let schema = SchemaSnapshot::from_statements(&stmts);
    let derivable = infer_derivable_columns(&stmts, Some(&schema));
    let graph = ConflictGraph::build(profiles_from_groups(&committed), &derivable);

    let mut failures = Vec::new();
    let bound = graph.closure(&seeds, false);
    for label in undo_labels {
        if !bound.contains(label) {
            failures.push(format!(
                "static-soundness: repair undid {label} but the unpruned static \
                 blast radius of [{}] excludes it",
                seeds.join(", ")
            ));
        }
    }
    if let Some(analysis) = analysis {
        let rules = FalseDepRule::from_derivable_columns(&derivable);
        let pruned_bound = graph.closure(&seeds, true);
        for id in analysis.undo_set(initial, &rules) {
            let label = analysis.graph.label(id);
            if !pruned_bound.contains(&label) {
                failures.push(format!(
                    "static-soundness: rule-pruned repair closure contains {label} \
                     but the rule-pruned static blast radius of [{}] excludes it",
                    seeds.join(", ")
                ));
            }
        }
    }
    failures
}

/// Oracle 4: the dependency ledger has drained once every workload
/// connection is gone — a nonzero gauge is a permanently-stuck entry.
pub fn inflight_drained(rdb: &ResilientDb, world: &str) -> Vec<String> {
    match rdb.metrics().gauge("proxy.trans_dep.inflight") {
        Some(0.0) => Vec::new(),
        Some(v) => vec![format!(
            "dep-store: {world} proxy.trans_dep.inflight = {v}, want 0 \
             (stuck ledger entry)"
        )],
        None => vec![format!("dep-store: {world} inflight gauge missing")],
    }
}

/// Oracle 5: the flight recorder shows exactly one `txn_begin` and one
/// `commit` — and no `abort` — for every committed write transaction.
/// Skipped when the ring wrapped (the window would lie about counts).
pub fn flight_lifecycle(
    flight: &TraceSnapshot,
    scenario: &Scenario,
    outcomes: &[Outcome],
    label_trids: &BTreeMap<String, i64>,
) -> Vec<String> {
    if flight.dropped > 0 {
        return Vec::new();
    }
    let mut failures = Vec::new();
    for (i, txn) in scenario.txns.iter().enumerate() {
        if outcomes[i] != Outcome::Committed || !txn.wrote {
            continue;
        }
        let Some(&trid) = label_trids.get(&txn.label) else {
            continue; // the harness already reported the missing annot row
        };
        let (begins, commits, aborts) = (
            flight.count_for(trid, "txn_begin"),
            flight.count_for(trid, "commit"),
            flight.count_for(trid, "abort"),
        );
        if (begins, commits, aborts) != (1, 1, 0) {
            failures.push(format!(
                "flight: committed txn {} (trid {trid}) has lifecycle \
                 begin={begins} commit={commits} abort={aborts}, want 1/1/0",
                txn.label
            ));
        }
    }
    failures
}

/// Oracle 9: incident-timeline well-formedness after a repair episode.
///
/// Every incident must be closed (the controller's close-on-drop guard
/// runs on success, error *and* unwind), its marks must be strictly
/// monotonic, and its MTTD/MTTC/MTTR decomposition must sum exactly to
/// its wall time (the decomposition is derived from the same marks, so a
/// mismatch means the arithmetic itself broke). Fence marks must pair:
/// with `live` each incident carries exactly one
/// `fence_raised`/`fence_lifted` pair (the drop guard lifts even when a
/// failpoint unwinds the sweep), and at least one incident was fenced;
/// without it no incident may carry fence marks at all.
pub fn timeline_well_formed(world: &str, incidents: &[IncidentRecord], live: bool) -> Vec<String> {
    let mut failures = Vec::new();
    let mut fenced = 0usize;
    for inc in incidents {
        if inc.open {
            failures.push(format!(
                "timeline: {world} incident #{} still open after repair",
                inc.id
            ));
        }
        if inc.marks.is_empty() {
            failures.push(format!(
                "timeline: {world} incident #{} has no marks",
                inc.id
            ));
            continue;
        }
        for w in inc.marks.windows(2) {
            if w[1].at_ns <= w[0].at_ns {
                failures.push(format!(
                    "timeline: {world} incident #{} marks not strictly monotonic \
                     ({} @{} then {} @{})",
                    inc.id,
                    w[0].phase.name(),
                    w[0].at_ns,
                    w[1].phase.name(),
                    w[1].at_ns,
                ));
            }
        }
        let d = inc.decomposition();
        if d.mttd_ns + d.mttc_ns + d.mttr_ns != d.wall_ns {
            failures.push(format!(
                "timeline: {world} incident #{} decomposition {}+{}+{} != wall {}",
                inc.id, d.mttd_ns, d.mttc_ns, d.mttr_ns, d.wall_ns
            ));
        }
        let raised = inc.count(IncidentPhase::FenceRaised);
        let lifted = inc.count(IncidentPhase::FenceLifted);
        if raised != lifted || raised > 1 {
            failures.push(format!(
                "timeline: {world} incident #{} has {raised} fence_raised / \
                 {lifted} fence_lifted marks, want one matched pair at most",
                inc.id
            ));
        }
        if !live && raised != 0 {
            failures.push(format!(
                "timeline: {world} incident #{} carries fence marks in a \
                 quiesced-only world",
                inc.id
            ));
        }
        if raised == 1 {
            fenced += 1;
        }
    }
    if live && !incidents.is_empty() && fenced == 0 {
        failures.push(format!(
            "timeline: {world} recorded {} incident(s) but none was ever fenced",
            incidents.len()
        ));
    }
    failures
}
