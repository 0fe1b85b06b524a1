//! The containment fence: the quarantine a live repair puts between
//! client traffic and the damage closure.
//!
//! The paper repairs offline with the database quiesced. The fence makes
//! repair concurrent with service instead: when an attack is flagged the
//! repair controller *raises* the fence over the attacker profile's
//! static blast-radius tables (known instantly, before any log analysis),
//! then *shrinks* it to row-level quarantine once the dependency analysis
//! has identified the dynamic closure, *extends* it if re-analysis grows
//! the closure mid-sweep, and *lifts* it when compensation commits.
//! Every tracked connection consults the fence on its statement path;
//! while it is down the check is one relaxed atomic load.
//!
//! A statement is blocked when it might touch quarantined data: it
//! references a wholly-fenced table, or a row-fenced table without a
//! provable primary-key disjointness (top-level `AND`ed `pk = literal`
//! equalities that miss every quarantined key). Anything unprovable is
//! blocked conservatively — soundness of the repair outranks
//! availability of one statement.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use resildb_engine::Value;
use resildb_sim::MetricsSnapshot;
use resildb_sql::{BinaryOp, Expr, Insert, Literal, Statement, UnaryOp};

use crate::config::FenceAction;

/// How long a [`FenceAction::Defer`]red statement waits for the fence to
/// shrink or lift before it is rejected after all.
pub const FENCE_DEFER_BUDGET: Duration = Duration::from_secs(2);

/// Separator joining the parts of a composite primary key into one
/// canonical string (a control character no SQL literal canonicalizes to).
const KEY_SEP: char = '\u{1}';

/// Canonical string form of one primary-key value, shared by the proxy
/// side (SQL literals out of client statements) and the repair side
/// (engine [`Value`]s out of log-record row images). `None` for NULL,
/// which never identifies a row.
pub fn canon_value(v: &Value) -> Option<String> {
    match v {
        Value::Int(i) => Some(i.to_string()),
        Value::Float(f) => Some(format!("{f}")),
        Value::Str(s) => Some(s.clone()),
        Value::Bool(b) => Some(b.to_string()),
        Value::Null => None,
    }
}

fn canon_literal(lit: &Literal) -> Option<String> {
    match lit {
        Literal::Int(i) => Some(i.to_string()),
        Literal::Float(f) => Some(format!("{f}")),
        Literal::Str(s) => Some(s.clone()),
        Literal::Bool(b) => Some(b.to_string()),
        Literal::Null => None,
    }
}

/// Joins canonical key parts (one per primary-key column, in key order)
/// into the composite form stored in [`RowFence::keys`].
pub fn composite_key<S: AsRef<str>>(parts: &[S]) -> String {
    let mut out = String::new();
    for (i, p) in parts.iter().enumerate() {
        if i > 0 {
            out.push(KEY_SEP);
        }
        out.push_str(p.as_ref());
    }
    out
}

/// Row-level quarantine over one table: which primary-key values are
/// fenced, and which columns form the key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowFence {
    /// Lower-cased primary-key column names, in key order.
    pub key_columns: Vec<String>,
    /// Canonical composite keys (see [`composite_key`]) of fenced rows.
    pub keys: HashSet<String>,
}

#[derive(Debug, Default)]
struct FenceState {
    /// Wholly-fenced tables (lower-cased): the static phase, and any
    /// table whose rows cannot be identified by primary key.
    tables: BTreeSet<String>,
    /// Row-fenced tables (lower-cased): the dynamic phase.
    rows: HashMap<String, RowFence>,
    /// Bumped on every raise/shrink/lift (forensics; deferred
    /// statements wake on the condvar, not by polling this).
    epoch: u64,
}

impl FenceState {
    fn size(&self) -> (usize, usize) {
        (
            self.tables.len(),
            self.rows.values().map(|r| r.keys.len()).sum(),
        )
    }
}

/// The outcome of presenting one statement to the fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceDecision {
    /// The statement provably misses the quarantine; let it through.
    Pass,
    /// The statement may touch quarantined data; refuse it (after the
    /// defer budget, under [`FenceAction::Defer`]).
    Reject,
}

/// Shared containment fence: one per tracking-proxy factory, consulted by
/// every connection, driven by the repair controller. See module docs.
#[derive(Debug, Default)]
pub struct Fence {
    /// Fast-path flag: when false (no repair in flight) the statement
    /// path pays one relaxed load and nothing else.
    active: AtomicBool,
    state: Mutex<FenceState>,
    /// Signalled on shrink/lift so deferred statements re-check.
    changed: Condvar,
    rejected: AtomicU64,
    deferred: AtomicU64,
    passed: AtomicU64,
}

/// Point-in-time counters of a [`Fence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FenceStats {
    /// Statements refused because they might touch quarantined data.
    pub rejected: u64,
    /// Statements that parked at least once under [`FenceAction::Defer`].
    pub deferred: u64,
    /// Statements admitted while a fence was up.
    pub passed: u64,
}

impl Fence {
    /// Creates an inactive fence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a fence is currently up (the statement-path fast check).
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Raises the fence over `tables` (the static blast-radius surface).
    /// Returns the number of wholly-fenced tables.
    pub fn raise<I: IntoIterator<Item = String>>(&self, tables: I) -> usize {
        let mut state = self.state.lock();
        state.tables = tables.into_iter().map(|t| t.to_lowercase()).collect();
        state.rows.clear();
        state.epoch += 1;
        let n = state.tables.len();
        self.active.store(true, Ordering::Release);
        n
    }

    /// Shrinks the fence to `tables` wholly fenced plus row-level
    /// quarantines `rows`, waking deferred statements to re-check.
    /// Returns (wholly-fenced tables, fenced rows).
    pub fn shrink(
        &self,
        tables: BTreeSet<String>,
        rows: HashMap<String, RowFence>,
    ) -> (usize, usize) {
        let mut state = self.state.lock();
        state.tables = tables.into_iter().map(|t| t.to_lowercase()).collect();
        state.rows = rows
            .into_iter()
            .map(|(t, r)| (t.to_lowercase(), r))
            .collect();
        state.epoch += 1;
        let size = state.size();
        drop(state);
        self.changed.notify_all();
        size
    }

    /// Lifts the fence (repair finished), waking deferred statements.
    pub fn lift(&self) {
        let mut state = self.state.lock();
        state.tables.clear();
        state.rows.clear();
        state.epoch += 1;
        self.active.store(false, Ordering::Release);
        drop(state);
        self.changed.notify_all();
    }

    /// Current fence extent: (wholly-fenced tables, fenced rows).
    pub(crate) fn size(&self) -> (usize, usize) {
        self.state.lock().size()
    }

    /// Current counters.
    pub fn stats(&self) -> FenceStats {
        FenceStats {
            rejected: self.rejected.load(Ordering::Relaxed),
            deferred: self.deferred.load(Ordering::Relaxed),
            passed: self.passed.load(Ordering::Relaxed),
        }
    }

    /// Folds the counters into `snap` under `proxy.fence.*`, plus the
    /// `repair.live.fence_size` gauge (tables + rows currently fenced).
    pub fn fold_metrics(&self, snap: &mut MetricsSnapshot) {
        let s = self.stats();
        snap.set_counter("proxy.fence.rejected", s.rejected);
        snap.set_counter("proxy.fence.deferred", s.deferred);
        snap.set_counter("proxy.fence.passed", s.passed);
        let (tables, rows) = self.size();
        snap.set_gauge("repair.live.fence_size", (tables + rows) as f64);
    }

    /// Presents `stmt` to the fence. Under [`FenceAction::Defer`] a
    /// blocked statement parks until the fence shrinks past it or lifts,
    /// up to [`FENCE_DEFER_BUDGET`]; under [`FenceAction::Reject`] it is
    /// refused immediately.
    pub fn admit(&self, stmt: &Statement, action: FenceAction) -> FenceDecision {
        let mut state = self.state.lock();
        if !self.is_active() || !blocked_by(&state, stmt) {
            self.passed.fetch_add(1, Ordering::Relaxed);
            return FenceDecision::Pass;
        }
        if action == FenceAction::Reject {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return FenceDecision::Reject;
        }
        self.deferred.fetch_add(1, Ordering::Relaxed);
        let deadline = Instant::now() + FENCE_DEFER_BUDGET;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let timed_out =
                remaining.is_zero() || { self.changed.wait_for(&mut state, remaining).timed_out() };
            if !self.is_active() || !blocked_by(&state, stmt) {
                self.passed.fetch_add(1, Ordering::Relaxed);
                return FenceDecision::Pass;
            }
            if timed_out {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return FenceDecision::Reject;
            }
        }
    }

    /// Non-blocking variant of [`Self::admit`]: would the fence block
    /// `stmt` right now? (Testing and diagnostics.)
    pub fn would_block(&self, stmt: &Statement) -> bool {
        self.is_active() && blocked_by(&self.state.lock(), stmt)
    }
}

/// Whether `stmt` may touch quarantined data under `state`.
fn blocked_by(state: &FenceState, stmt: &Statement) -> bool {
    if state.tables.is_empty() && state.rows.is_empty() {
        return false;
    }
    match stmt {
        Statement::Select(s) => {
            let single = s.from.len() == 1;
            s.from.iter().any(|t| {
                table_blocked(
                    state,
                    &t.name,
                    t.alias.as_deref(),
                    s.where_clause.as_ref(),
                    single,
                )
            })
        }
        Statement::Update(u) => table_blocked(state, &u.table, None, u.where_clause.as_ref(), true),
        Statement::Delete(d) => table_blocked(state, &d.table, None, d.where_clause.as_ref(), true),
        Statement::Insert(i) => insert_blocked(state, i),
        // Transaction control, DDL on unfenced tables, etc. pass; DDL on a
        // fenced table is blocked via referenced_tables.
        Statement::CreateTable(_) | Statement::DropTable(_) => stmt
            .referenced_tables()
            .iter()
            .any(|t| state.tables.contains(&t.to_lowercase())),
        _ => false,
    }
}

/// Whether touching `table` under `where_clause` may reach fenced rows.
fn table_blocked(
    state: &FenceState,
    table: &str,
    alias: Option<&str>,
    where_clause: Option<&Expr>,
    single_table: bool,
) -> bool {
    let lname = table.to_lowercase();
    if state.tables.contains(&lname) {
        return true;
    }
    let Some(fence) = state.rows.get(&lname) else {
        return false;
    };
    // Row-fenced: the statement passes only when every primary-key column
    // is pinned by a top-level equality and the resulting key is not
    // quarantined. Everything else could touch a fenced row.
    let Some(where_clause) = where_clause else {
        return true;
    };
    let mut eqs: HashMap<String, String> = HashMap::new();
    collect_equalities(where_clause, table, alias, single_table, &mut eqs);
    let mut parts: Vec<String> = Vec::with_capacity(fence.key_columns.len());
    for col in &fence.key_columns {
        match eqs.get(col) {
            Some(v) => parts.push(v.clone()),
            None => return true,
        }
    }
    fence.keys.contains(&composite_key(&parts))
}

/// Whether an INSERT may plant a row the fence quarantines (a client
/// re-creating a row the sweep is about to restore would collide with the
/// repair; everything else is a brand-new row and passes).
fn insert_blocked(state: &FenceState, ins: &Insert) -> bool {
    let lname = ins.table.to_lowercase();
    if state.tables.contains(&lname) {
        return true;
    }
    let Some(fence) = state.rows.get(&lname) else {
        return false;
    };
    if ins.columns.is_empty() {
        // Positional insert: key positions unknowable here — conservative.
        return true;
    }
    let mut positions: Vec<usize> = Vec::with_capacity(fence.key_columns.len());
    for col in &fence.key_columns {
        match ins.columns.iter().position(|c| c.eq_ignore_ascii_case(col)) {
            Some(p) => positions.push(p),
            None => return true, // key column defaulted: value unknowable
        }
    }
    for row in &ins.rows {
        let mut parts: Vec<String> = Vec::with_capacity(positions.len());
        for &p in &positions {
            match row.get(p).and_then(canon_expr) {
                Some(v) => parts.push(v),
                None => return true, // non-literal key expression
            }
        }
        if fence.keys.contains(&composite_key(&parts)) {
            return true;
        }
    }
    false
}

/// Canonicalizes a literal (possibly negated) key expression.
fn canon_expr(e: &Expr) -> Option<String> {
    match e {
        Expr::Literal(l) => canon_literal(l),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => match &**expr {
            Expr::Literal(Literal::Int(i)) => Some((-i).to_string()),
            Expr::Literal(Literal::Float(f)) => Some(format!("{}", -f)),
            _ => None,
        },
        _ => None,
    }
}

/// Collects `column = literal` facts from the top-level `AND` conjuncts
/// of a WHERE clause, keyed by lower-cased column name. Qualified columns
/// must match the table name or alias; unqualified columns are only
/// attributed when the statement references a single table.
fn collect_equalities(
    expr: &Expr,
    table: &str,
    alias: Option<&str>,
    single_table: bool,
    out: &mut HashMap<String, String>,
) {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            collect_equalities(left, table, alias, single_table, out);
            collect_equalities(right, table, alias, single_table, out);
        }
        Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } => {
            let (col, lit) = match (&**left, &**right) {
                (Expr::Column(c), rhs) => (c, rhs),
                (lhs, Expr::Column(c)) => (c, lhs),
                _ => return,
            };
            let qualified_ok = match &col.table {
                None => single_table,
                Some(q) => {
                    q.eq_ignore_ascii_case(table)
                        || alias.is_some_and(|a| q.eq_ignore_ascii_case(a))
                }
            };
            if qualified_ok {
                if let Some(v) = canon_expr(lit) {
                    out.insert(col.column.to_lowercase(), v);
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resildb_sql::parse_statement;

    fn stmt(sql: &str) -> Statement {
        parse_statement(sql).expect("test SQL parses")
    }

    fn row_fence(cols: &[&str], keys: &[&[&str]]) -> RowFence {
        RowFence {
            key_columns: cols.iter().map(|c| c.to_string()).collect(),
            keys: keys.iter().map(|k| composite_key(k)).collect(),
        }
    }

    #[test]
    fn inactive_fence_passes_everything() {
        let f = Fence::new();
        assert!(!f.is_active());
        assert!(!f.would_block(&stmt("UPDATE account SET b = 1 WHERE id = 1")));
    }

    #[test]
    fn static_phase_fences_whole_tables() {
        let f = Fence::new();
        let n = f.raise(vec!["Account".into(), "orders".into()]);
        assert_eq!(n, 2);
        assert!(f.is_active());
        assert!(f.would_block(&stmt("SELECT * FROM account WHERE id = 1")));
        assert!(f.would_block(&stmt("DELETE FROM ORDERS")));
        assert!(f.would_block(&stmt("INSERT INTO account (id) VALUES (99)")));
        assert!(!f.would_block(&stmt("SELECT * FROM customer WHERE id = 1")));
        assert_eq!(
            f.admit(
                &stmt("UPDATE account SET b = 1 WHERE id = 1"),
                FenceAction::Reject
            ),
            FenceDecision::Reject
        );
        assert_eq!(
            f.admit(&stmt("SELECT * FROM customer"), FenceAction::Reject),
            FenceDecision::Pass
        );
        let s = f.stats();
        assert_eq!((s.rejected, s.passed), (1, 1));
    }

    #[test]
    fn row_phase_passes_provably_disjoint_statements() {
        let f = Fence::new();
        f.raise(vec!["account".into()]);
        f.shrink(
            BTreeSet::new(),
            [("account".to_string(), row_fence(&["id"], &[&["7"], &["9"]]))]
                .into_iter()
                .collect(),
        );
        // Provably disjoint: pk pinned to a non-fenced key.
        assert!(!f.would_block(&stmt("SELECT * FROM account WHERE id = 1")));
        assert!(!f.would_block(&stmt("UPDATE account SET b = 0 WHERE id = 3 AND b > 1")));
        // Fenced key, commuted equality, or unprovable predicate: blocked.
        assert!(f.would_block(&stmt("SELECT * FROM account WHERE id = 7")));
        assert!(f.would_block(&stmt("SELECT * FROM account WHERE 9 = id")));
        assert!(f.would_block(&stmt("UPDATE account SET b = 0 WHERE b < 100")));
        assert!(f.would_block(&stmt("DELETE FROM account")));
        // OR disjunction cannot pin the key.
        assert!(f.would_block(&stmt("SELECT * FROM account WHERE id = 1 OR id = 7")));
    }

    #[test]
    fn composite_keys_need_every_column_pinned() {
        let f = Fence::new();
        f.raise(vec!["stock".into()]);
        f.shrink(
            BTreeSet::new(),
            [(
                "stock".to_string(),
                row_fence(&["w_id", "i_id"], &[&["1", "5"]]),
            )]
            .into_iter()
            .collect(),
        );
        assert!(!f.would_block(&stmt("SELECT * FROM stock WHERE w_id = 1 AND i_id = 6")));
        assert!(f.would_block(&stmt("SELECT * FROM stock WHERE w_id = 1 AND i_id = 5")));
        assert!(f.would_block(&stmt("SELECT * FROM stock WHERE w_id = 1")));
    }

    #[test]
    fn inserts_pass_unless_they_replant_a_fenced_key() {
        let f = Fence::new();
        f.raise(vec!["account".into()]);
        f.shrink(
            BTreeSet::new(),
            [("account".to_string(), row_fence(&["id"], &[&["7"]]))]
                .into_iter()
                .collect(),
        );
        assert!(!f.would_block(&stmt("INSERT INTO account (id, b) VALUES (8, 0)")));
        assert!(f.would_block(&stmt("INSERT INTO account (id, b) VALUES (7, 0)")));
        // Positional inserts and computed keys are conservative.
        assert!(f.would_block(&stmt("INSERT INTO account VALUES (8, 0)")));
    }

    #[test]
    fn deferred_statement_passes_once_the_fence_lifts() {
        use std::sync::Arc;
        let f = Arc::new(Fence::new());
        f.raise(vec!["account".into()]);
        let f2 = Arc::clone(&f);
        let waiter = std::thread::spawn(move || {
            f2.admit(
                &stmt("SELECT * FROM account WHERE id = 1"),
                FenceAction::Defer,
            )
        });
        // Give the waiter a moment to park, then lift.
        std::thread::sleep(Duration::from_millis(50));
        f.lift();
        assert_eq!(waiter.join().unwrap(), FenceDecision::Pass);
        let s = f.stats();
        assert_eq!((s.deferred, s.passed, s.rejected), (1, 1, 0));
    }

    #[test]
    fn deferred_statement_is_rejected_when_the_budget_expires() {
        let f = Fence::new();
        f.raise(vec!["account".into()]);
        let start = std::time::Instant::now();
        let decision = f.admit(
            &stmt("SELECT * FROM account WHERE id = 1"),
            FenceAction::Defer,
        );
        assert_eq!(decision, FenceDecision::Reject);
        assert!(
            start.elapsed() >= FENCE_DEFER_BUDGET,
            "rejected before the budget ran out"
        );
        let s = f.stats();
        assert_eq!((s.deferred, s.rejected, s.passed), (1, 1, 0));
    }

    #[test]
    fn metrics_fold_counters_and_gauge() {
        let f = Fence::new();
        f.raise(vec!["a".into(), "b".into()]);
        f.admit(&stmt("SELECT * FROM a"), FenceAction::Reject);
        f.admit(&stmt("SELECT * FROM c"), FenceAction::Reject);
        let mut snap = MetricsSnapshot::default();
        f.fold_metrics(&mut snap);
        assert_eq!(snap.counter("proxy.fence.rejected"), 1);
        assert_eq!(snap.counter("proxy.fence.passed"), 1);
        assert_eq!(snap.counter("proxy.fence.deferred"), 0);
        assert_eq!(snap.gauge("repair.live.fence_size"), Some(2.0));
    }

    #[test]
    fn value_and_literal_canonical_forms_agree() {
        assert_eq!(
            canon_value(&Value::Int(42)).as_deref(),
            canon_literal(&Literal::Int(42)).as_deref()
        );
        assert_eq!(
            canon_value(&Value::Str("x".into())).as_deref(),
            canon_literal(&Literal::Str("x".into())).as_deref()
        );
        assert_eq!(
            canon_value(&Value::Float(1.5)).as_deref(),
            canon_literal(&Literal::Float(1.5)).as_deref()
        );
        assert_eq!(canon_value(&Value::Null), None);
    }
}
