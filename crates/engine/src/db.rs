//! The database facade: sessions, transaction control, crash recovery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use resildb_sim::telemetry::names as span_names;
use resildb_sim::{failpoints, MetricsSnapshot, ShapeCache, SimContext};
use resildb_sql::{
    bind_statement, parse_span_literal, parse_template, scan_statement, Literal, Statement,
    StatementScan,
};

use crate::catalog::{Catalog, TableHandle};
use crate::error::{EngineError, Result};
use crate::exec::{exec_statement, ExecOutcome, QueryResult, StmtCtx, UndoAction};
use crate::flavor::Flavor;
use crate::group_commit::GroupCommitWal;
use crate::lock::LockManager;
use crate::row::{Row, RowId};
use crate::schema::TableSchema;
use crate::wal::{self, InternalTxnId, LogOp, LogRecord};

/// Statement shapes the engine keeps parsed (see
/// [`Database::stmt_cache_stats`]). Sized for TPC-C-like workloads, whose
/// working set is a few dozen shapes.
const STMT_CACHE_CAPACITY: usize = 256;

/// A parsed statement template cached by shape fingerprint: the literal
/// positions hold `?` parameters that are re-bound from the incoming text
/// on every hit.
#[derive(Debug)]
struct CachedStatement {
    template: Statement,
    params: usize,
}

/// Point-in-time counters of the engine's parsed-statement cache: `hits`
/// are statements served by binding a cached template (lex+parse skipped),
/// `misses` took the cold parse path despite being scannable.
pub use resildb_sim::ShapeCacheStats as StmtCacheStats;

#[derive(Debug)]
pub(crate) struct DbInner {
    name: String,
    flavor: Flavor,
    sim: SimContext,
    pub(crate) catalog: RwLock<Catalog>,
    pub(crate) wal: GroupCommitWal,
    locks: Arc<LockManager>,
    next_txn: AtomicU64,
    stmt_cache: ShapeCache<CachedStatement>,
}

/// An embedded DBMS emulating one of the paper's three flavors.
///
/// `Database` is a cheaply cloneable handle; all clones share state. Open a
/// [`Session`] to execute SQL.
///
/// # Examples
///
/// ```
/// use resildb_engine::{Database, Flavor};
///
/// # fn main() -> Result<(), resildb_engine::EngineError> {
/// let db = Database::in_memory(Flavor::Postgres);
/// let mut session = db.session();
/// session.execute_sql("CREATE TABLE account (id INTEGER PRIMARY KEY, balance FLOAT)")?;
/// session.execute_sql("INSERT INTO account (id, balance) VALUES (1, 50.0)")?;
/// let result = session.query("SELECT balance FROM account WHERE id = 1")?;
/// assert_eq!(result.rows[0][0], resildb_engine::Value::Float(50.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

impl Database {
    /// Creates a database charging costs to `sim`.
    pub fn new(name: impl Into<String>, flavor: Flavor, sim: SimContext) -> Self {
        Self {
            inner: Arc::new(DbInner {
                name: name.into(),
                flavor,
                sim,
                catalog: RwLock::new(Catalog::new()),
                wal: GroupCommitWal::new(),
                locks: LockManager::new(),
                next_txn: AtomicU64::new(1),
                stmt_cache: ShapeCache::new(STMT_CACHE_CAPACITY),
            }),
        }
    }

    /// Creates a cost-free in-memory database (functional testing).
    pub fn in_memory(flavor: Flavor) -> Self {
        Self::new("mem", flavor, SimContext::free())
    }

    /// The database name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The emulated DBMS flavor.
    pub fn flavor(&self) -> Flavor {
        self.inner.flavor
    }

    /// The simulation context costs are charged to.
    pub fn sim(&self) -> &SimContext {
        &self.inner.sim
    }

    /// Opens a new session.
    pub fn session(&self) -> Session {
        Session {
            db: self.clone(),
            txn: None,
        }
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.catalog.read().names()
    }

    /// Handle to a table (for introspection adapters).
    ///
    /// # Errors
    ///
    /// Unknown table.
    pub fn table(&self, name: &str) -> Result<TableHandle> {
        self.inner.catalog.read().get(name)
    }

    /// An owned copy of the full WAL (tests; readers borrow it through
    /// [`Self::read_wal`]).
    pub fn wal_records(&self) -> Vec<LogRecord> {
        self.read_wal(<[LogRecord]>::to_vec)
    }

    /// Runs `f` over the WAL where it lies, under the WAL lock: the one
    /// read path of every log reader. Committers wait while `f` runs, and
    /// `f` may take catalog and table locks (order: DESIGN.md §9).
    pub fn read_wal<R>(&self, f: impl FnOnce(&[LogRecord]) -> R) -> R {
        f(self.inner.wal.lock_untimed().records())
    }

    /// Live row count of `name`.
    ///
    /// # Errors
    ///
    /// Unknown table.
    pub fn row_count(&self, name: &str) -> Result<u64> {
        Ok(self.table(name)?.read().row_count())
    }

    /// Snapshot of all live rows of a table (testing/verification aid;
    /// charges no page reads).
    ///
    /// # Errors
    ///
    /// Unknown table.
    pub fn snapshot_rows(&self, name: &str) -> Result<Vec<(RowId, Row)>> {
        let handle = self.table(name)?;
        let table = handle.read();
        let free = SimContext::free();
        let mut rows = Vec::new();
        table.scan(&free, |rid, row| {
            rows.push((rid, row));
            Ok(())
        })?;
        rows.sort_by_key(|(rid, _)| *rid);
        Ok(rows)
    }

    fn alloc_txn(&self) -> InternalTxnId {
        InternalTxnId(self.inner.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    /// A metrics snapshot covering this engine and its simulation context:
    /// telemetry span histograms (`engine.*`, and — when a proxy shares
    /// the [`SimContext`] — `proxy.*`/`repair.*` too), parsed-statement
    /// cache counters, simulation charge counters and failpoint hits.
    pub fn metrics(&self) -> MetricsSnapshot {
        let sim = self.sim();
        let mut snap = sim.telemetry().snapshot();
        let sc = self.stmt_cache_stats();
        snap.set_counter("engine.stmt_cache.hits", sc.hits);
        snap.set_counter("engine.stmt_cache.misses", sc.misses);
        let stats = sim.stats();
        snap.set_counter("sim.page_hits", stats.page_hits.get());
        snap.set_counter("sim.page_misses", stats.page_misses.get());
        snap.set_counter("sim.pages_written", stats.pages_written.get());
        snap.set_counter("sim.log_bytes", stats.log_bytes.get());
        snap.set_counter("sim.log_forces", stats.log_forces.get());
        snap.set_counter("sim.statements", stats.statements.get());
        snap.set_counter("sim.rows_touched", stats.rows_touched.get());
        snap.set_counter("sim.rows_examined", stats.rows_examined.get());
        snap.set_counter("sim.round_trips", stats.round_trips.get());
        snap.set_counter("sim.network_bytes", stats.network_bytes.get());
        snap.set_counter("sim.injected_delays", stats.injected_delays.get());
        let hits = stats.page_hits.get();
        let total = hits + stats.page_misses.get();
        if total > 0 {
            snap.set_gauge("sim.pool.hit_ratio", hits as f64 / total as f64);
        }
        for (name, hits) in sim.faults().hit_counts() {
            snap.set_counter(&format!("fault.hits.{name}"), hits);
        }
        snap
    }

    /// Counters of the parsed-statement cache shared by all sessions.
    pub fn stmt_cache_stats(&self) -> StmtCacheStats {
        self.inner.stmt_cache.stats()
    }

    /// Parses `sql`, serving repeated statement shapes from the shared
    /// template cache. A hit re-binds the cached template with the literals
    /// scanned from the incoming text, producing the exact AST a cold parse
    /// would; unscannable text goes straight to the cold parser.
    fn parse_cached(&self, sql: &str) -> Result<Statement> {
        let Some(scan) = scan_statement(sql) else {
            return Ok(resildb_sql::parse_statement(sql)?);
        };
        let cache = &self.inner.stmt_cache;
        let hit = cache
            .lookup(scan.fingerprint, |e| e.params == scan.spans.len())
            .and_then(|entry| bind_scanned(&entry.template, sql, &scan));
        if let Some(stmt) = hit {
            return Ok(stmt);
        }
        let stmt = resildb_sql::parse_statement(sql)?;
        if let Some(template) = parse_template(sql, &scan) {
            let params = scan.spans.len();
            cache.insert(scan.fingerprint, CachedStatement { template, params });
        }
        Ok(stmt)
    }

    /// Writes the durable form of the WAL to `w` (see
    /// [`crate::wal_codec`]); together with [`Self::open_from_wal`] this
    /// persists the database — including the tracking tables, and with
    /// them the full repair capability — across process restarts. `w` is
    /// written under the WAL lock.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn save_wal<W: std::io::Write>(&self, w: W) -> Result<()> {
        self.read_wal(|records| crate::wal_codec::write_wal(records, w))
    }

    /// Reopens a database from the bytes of a durable log produced by
    /// [`Self::save_wal`]: the log is restored verbatim and replayed, and
    /// transaction-id/LSN sequences continue where they left off.
    ///
    /// # Errors
    ///
    /// Corrupt logs or replay failures.
    pub fn open_from_wal(
        name: impl Into<String>,
        flavor: Flavor,
        sim: SimContext,
        log: &[u8],
    ) -> Result<Self> {
        let records = crate::wal_codec::read_wal(log)?;
        let next_txn = records.iter().map(|rec| rec.txn.0 + 1).max().unwrap_or(1);
        let db = Database::new(name, flavor, sim);
        db.replay(&records)?;
        db.inner.wal.lock_untimed().restore(records);
        db.inner.next_txn.store(next_txn, Ordering::Relaxed);
        Ok(db)
    }

    /// Discards all in-memory table state and rebuilds it by replaying the
    /// WAL — the standard redo recovery a real DBMS performs after a crash.
    /// Only operations of committed transactions are reapplied; row ids are
    /// preserved, physical page offsets may differ.
    ///
    /// # Errors
    ///
    /// Propagates replay failures (which indicate WAL corruption — a bug).
    pub fn simulate_crash_and_recover(&self) -> Result<()> {
        self.read_wal(|records| self.replay(records))
    }

    /// Rebuilds the catalog and tables from `records`' committed writes.
    fn replay(&self, records: &[LogRecord]) -> Result<()> {
        let committed: std::collections::HashSet<InternalTxnId> = records
            .iter()
            .filter(|r| matches!(r.op, LogOp::Commit))
            .map(|r| r.txn)
            .collect();
        let mut catalog = self.inner.catalog.write();
        *catalog = Catalog::new();
        let free = SimContext::free();
        for rec in records {
            if !committed.contains(&rec.txn) {
                continue;
            }
            match &rec.op {
                LogOp::CreateTable { schema } => {
                    catalog.create_table(schema.clone())?;
                }
                LogOp::DropTable { name } => {
                    catalog.drop_table(name)?;
                }
                LogOp::Insert {
                    table, rowid, row, ..
                } => {
                    let handle = catalog.get(table)?;
                    handle.write().insert_with_rowid(*rowid, row, &free)?;
                }
                LogOp::Delete { table, rowid, .. } => {
                    let handle = catalog.get(table)?;
                    handle.write().delete(*rowid, &free)?;
                }
                LogOp::Update {
                    table,
                    rowid,
                    after,
                    ..
                } => {
                    let handle = catalog.get(table)?;
                    handle.write().rewrite_stored(*rowid, after, &free)?;
                }
                LogOp::Commit | LogOp::Abort => {}
            }
        }
        Ok(())
    }
}

/// Re-binds a cached template with the literal values scanned from `sql`.
/// `None` on any mismatch — the caller falls back to a cold parse.
fn bind_scanned(template: &Statement, sql: &str, scan: &StatementScan) -> Option<Statement> {
    let values: Option<Vec<Literal>> = (scan.spans.iter())
        .map(|span| parse_span_literal(sql, span))
        .collect();
    bind_statement(template, &values?).ok()
}

/// A statement parsed once via [`Session::prepare`] and executable many
/// times with different `?`-parameter bindings — the engine half of the
/// driver-level prepared-statement API.
///
/// Cloning is cheap (the parsed template is shared), and a prepared
/// statement may outlive the session that created it: it is bound to the
/// database, not the session.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    template: Arc<Statement>,
    params: u32,
}

impl PreparedStatement {
    /// The parsed template (placeholders included) — for diagnostics.
    pub fn statement(&self) -> &Statement {
        &self.template
    }
}

#[derive(Debug)]
struct TxnState {
    id: InternalTxnId,
    undo: Vec<UndoAction>,
    /// Redo records staged locally (costs and failpoints already paid via
    /// [`wal::stage_check`]); published contiguously at commit under the
    /// group-commit ticket, discarded on rollback.
    redo: Vec<LogOp>,
    explicit: bool,
}

/// One client connection to a [`Database`].
///
/// A session is single-threaded (`&mut self` for execution) and holds at
/// most one open transaction. Without an explicit `BEGIN`, every statement
/// runs in its own auto-committed transaction.
#[derive(Debug)]
pub struct Session {
    db: Database,
    txn: Option<TxnState>,
}

impl Session {
    /// The database this session talks to.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.as_ref().is_some_and(|t| t.explicit)
    }

    /// Parses and executes one SQL statement.
    ///
    /// # Errors
    ///
    /// Parse errors, execution errors, or [`EngineError::Deadlock`] (after
    /// which the transaction has been rolled back automatically).
    pub fn execute_sql(&mut self, sql: &str) -> Result<ExecOutcome> {
        let stmt = self.db.parse_cached(sql)?;
        self.execute(&stmt)
    }

    /// Parses `sql` (which may contain `?` placeholders) into a reusable
    /// [`PreparedStatement`], paying the parse cost once.
    ///
    /// # Errors
    ///
    /// Parse errors.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement> {
        let (stmt, params) = resildb_sql::parse_prepared(sql)?;
        Ok(PreparedStatement {
            template: Arc::new(stmt),
            params,
        })
    }

    /// Executes a prepared statement with `params` bound to its `?`
    /// placeholders in source order.
    ///
    /// # Errors
    ///
    /// [`EngineError::Constraint`] on a parameter-count mismatch, plus
    /// everything [`Self::execute_sql`] can return.
    pub fn execute_prepared(
        &mut self,
        prepared: &PreparedStatement,
        params: &[Literal],
    ) -> Result<ExecOutcome> {
        if params.len() != prepared.params as usize {
            return Err(EngineError::Constraint(format!(
                "prepared statement expects {} parameters, {} bound",
                prepared.params,
                params.len()
            )));
        }
        let stmt =
            bind_statement(&prepared.template, params).map_err(resildb_sql::ParseError::from)?;
        self.execute(&stmt)
    }

    /// Executes an already-parsed statement.
    ///
    /// # Errors
    ///
    /// See [`Self::execute_sql`].
    pub fn execute(&mut self, stmt: &Statement) -> Result<ExecOutcome> {
        let _span = self
            .db
            .sim()
            .telemetry()
            .owned_span(span_names::ENGINE_EXECUTE);
        match stmt {
            Statement::Begin => {
                if self.in_transaction() {
                    return Err(EngineError::InvalidTransactionState(
                        "BEGIN inside an open transaction".into(),
                    ));
                }
                self.txn = Some(TxnState {
                    id: self.db.alloc_txn(),
                    undo: Vec::new(),
                    redo: Vec::new(),
                    explicit: true,
                });
                Ok(ExecOutcome::TxnControl)
            }
            Statement::Commit => {
                if !self.in_transaction() {
                    return Err(EngineError::InvalidTransactionState(
                        "COMMIT without an open transaction".into(),
                    ));
                }
                self.commit_open()?;
                Ok(ExecOutcome::TxnControl)
            }
            Statement::Rollback => {
                if !self.in_transaction() {
                    return Err(EngineError::InvalidTransactionState(
                        "ROLLBACK without an open transaction".into(),
                    ));
                }
                self.rollback_open()?;
                Ok(ExecOutcome::TxnControl)
            }
            Statement::CreateTable(ct) => {
                let schema = TableSchema::from_create(ct)?;
                let ddl_txn = self.db.alloc_txn();
                self.db.inner.catalog.write().create_table(schema.clone())?;
                let logged = self.publish_ddl(
                    ddl_txn,
                    LogOp::CreateTable {
                        schema: schema.clone(),
                    },
                );
                if let Err(e) = logged {
                    // Unlogged DDL must not survive: take the catalog change
                    // back so memory and log agree.
                    let _ = self.db.inner.catalog.write().drop_table(&schema.name);
                    return Err(e);
                }
                Ok(ExecOutcome::Ddl)
            }
            Statement::DropTable(dt) => {
                let ddl_txn = self.db.alloc_txn();
                let dropped = self.db.inner.catalog.write().drop_table(&dt.name)?;
                let logged = self.publish_ddl(
                    ddl_txn,
                    LogOp::DropTable {
                        name: dt.name.to_ascii_lowercase(),
                    },
                );
                if let Err(e) = logged {
                    // Put the table back: the DROP was never made durable.
                    self.db.inner.catalog.write().restore_table(dropped);
                    return Err(e);
                }
                Ok(ExecOutcome::Ddl)
            }
            dml => self.execute_dml(dml),
        }
    }

    /// Convenience: executes `sql` and returns its rows.
    ///
    /// # Errors
    ///
    /// Execution errors, or [`EngineError::Type`]-class errors when the
    /// statement is not a query.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult> {
        match self.execute_sql(sql)? {
            ExecOutcome::Rows(r) => Ok(r),
            other => Err(EngineError::Internal(format!(
                "expected rows, statement produced {other:?}"
            ))),
        }
    }

    fn execute_dml(&mut self, stmt: &Statement) -> Result<ExecOutcome> {
        let implicit = self.txn.is_none();
        if implicit {
            self.txn = Some(TxnState {
                id: self.db.alloc_txn(),
                undo: Vec::new(),
                redo: Vec::new(),
                explicit: false,
            });
        }
        let result = {
            let Some(txn) = self.txn.as_mut() else {
                return Err(EngineError::Internal("transaction state missing".into()));
            };
            let mut ctx = StmtCtx {
                catalog: &self.db.inner.catalog,
                locks: &self.db.inner.locks,
                sim: &self.db.inner.sim,
                flavor: self.db.inner.flavor,
                txn: txn.id,
                undo: &mut txn.undo,
                redo: &mut txn.redo,
            };
            exec_statement(&mut ctx, stmt)
        };
        match result {
            Ok(outcome) => {
                if implicit {
                    self.commit_open()?;
                }
                Ok(outcome)
            }
            Err(e) => {
                if implicit || e == EngineError::Deadlock {
                    // Deadlock victims are rolled back by the engine, as in
                    // the real DBMSs; other errors in an explicit
                    // transaction leave it open for the client to decide.
                    let _ = self.rollback_open();
                }
                Err(e)
            }
        }
    }

    /// Publishes a self-committing DDL record plus its commit record via
    /// the group-commit writer, staging both first so costs and failpoints
    /// behave exactly like DML appends.
    fn publish_ddl(&self, ddl_txn: InternalTxnId, op: LogOp) -> Result<()> {
        wal::stage_check(&op, self.db.flavor(), None, self.db.sim())?;
        wal::stage_check(&LogOp::Commit, self.db.flavor(), None, self.db.sim())?;
        let lsn = self
            .db
            .inner
            .wal
            .publish_commit(ddl_txn, vec![op], self.db.sim());
        self.db.inner.wal.force_covering(lsn, self.db.sim());
        Ok(())
    }

    fn commit_open(&mut self) -> Result<()> {
        if self.txn.is_none() {
            return Ok(());
        }
        let _span = self
            .db
            .sim()
            .telemetry()
            .owned_span(span_names::ENGINE_COMMIT);
        // The fallible (and panic-capable: injected `FaultAction::Panic`)
        // steps run while the transaction still sits in `self.txn`. Taking
        // it out first would mean an unwind drops the undo chain — the
        // eagerly-applied writes would survive as if committed and the
        // transaction's locks would never be released (a torn mid-commit
        // state the scenario fuzzer caught). Left in place, an unwind is
        // safe: `Session::drop` rolls the open transaction back.
        if self.txn.as_ref().is_some_and(|t| !t.undo.is_empty()) {
            let logged = (|| -> Result<()> {
                if self
                    .db
                    .sim()
                    .fault_check(failpoints::ENGINE_WAL_COMMIT)
                    .is_some()
                {
                    return Err(EngineError::Injected(failpoints::ENGINE_WAL_COMMIT.into()));
                }
                wal::stage_check(&LogOp::Commit, self.db.flavor(), None, self.db.sim())
            })();
            if let Err(e) = logged {
                // A commit that cannot reach the log aborts, as in real
                // DBMSs: roll the transaction back so no unlogged writes
                // survive and the locks are released.
                let _ = self.rollback_open();
                return Err(e);
            }
        }
        let Some(mut txn) = self.txn.take() else {
            return Ok(());
        };
        if !txn.undo.is_empty() {
            // Everything below is failure-free: publish the staged redo
            // contiguously under the group-commit ticket, then join the
            // group force covering our commit record.
            let redo = std::mem::take(&mut txn.redo);
            let lsn = self
                .db
                .inner
                .wal
                .publish_commit(txn.id, redo, self.db.sim());
            self.db.inner.wal.force_covering(lsn, self.db.sim());
        }
        self.db.inner.locks.release_all(txn.id);
        let telemetry = self.db.sim().telemetry();
        telemetry.count(span_names::ENGINE_COMMIT_COUNT, 1);
        // Flight-record the WAL-side commit under the DBMS-internal id;
        // the repair tool's correlation step joins it to the proxy id.
        telemetry.flight().emit(
            0,
            0,
            resildb_sim::EventKind::WalCommit { internal: txn.id.0 },
        );
        Ok(())
    }

    fn rollback_open(&mut self) -> Result<()> {
        let Some(txn) = self.txn.take() else {
            return Ok(());
        };
        let catalog = self.db.inner.catalog.read();
        let sim = self.db.sim();
        let undo = |action: &UndoAction| -> Result<()> {
            match action {
                UndoAction::UnInsert { table, rowid } => {
                    catalog.get(table)?.write().delete(*rowid, sim)?;
                }
                UndoAction::ReInsert {
                    table,
                    rowid,
                    row,
                    loc,
                    after,
                } => {
                    catalog.get(table)?.write().restore_at(
                        *rowid,
                        row.clone(),
                        *loc,
                        *after,
                        sim,
                    )?;
                }
                UndoAction::UnUpdate {
                    table,
                    rowid,
                    before,
                } => {
                    catalog
                        .get(table)?
                        .write()
                        .rewrite_stored(*rowid, before, sim)?;
                }
            }
            Ok(())
        };
        // Every undo action runs even after one fails, and the locks are
        // released regardless; the first failure is reported at the end.
        let mut first_err = None;
        for action in txn.undo.iter().rev() {
            if let Err(e) = undo(action) {
                first_err.get_or_insert(e);
            }
        }
        drop(catalog);
        if !txn.undo.is_empty() {
            // The abort record is advisory — recovery treats transactions
            // without a commit record as aborted — so rollback must succeed
            // (and release its locks) even when the log is failing. The
            // staged redo is simply discarded: an aborted transaction's row
            // records never reach the shared log.
            if wal::stage_check(&LogOp::Abort, self.db.flavor(), None, self.db.sim()).is_ok() {
                self.db
                    .inner
                    .wal
                    .lock(self.db.sim())
                    .publish(txn.id, LogOp::Abort);
            }
        }
        self.db.inner.locks.release_all(txn.id);
        self.db.sim().telemetry().flight().emit(
            0,
            0,
            resildb_sim::EventKind::WalAbort { internal: txn.id.0 },
        );
        first_err.map_or(Ok(()), Err)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Best-effort cleanup; a panic here would abort during unwinding.
        if self.txn.is_some() {
            let _ = self.rollback_open();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    /// A rolled-back DELETE puts its row back between its surviving
    /// neighbours after another session compacted the page, and on another
    /// page after another session filled it; a rollback whose undo fails
    /// still runs every other undo action and releases every lock.
    #[test]
    fn rollback_survives_concurrent_page_compaction() {
        for flavor in [Flavor::Postgres, Flavor::Oracle, Flavor::Sybase] {
            let db = Database::in_memory(flavor);
            let (mut a, mut b) = (db.session(), db.session());
            a.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
                .unwrap();
            for id in 1..=4 {
                a.execute_sql(&format!("INSERT INTO t (id, v) VALUES ({id}, {id})"))
                    .unwrap();
            }
            // Physical order: a full scan walks the page front to back.
            let rows = |s: &mut Session| s.query("SELECT id, v FROM t").unwrap().rows;
            let int = |v: i64| Value::Int(v);

            // A's delete of 3 is undone after B compacted 1 away: 3 goes
            // back behind 2, not at its stale offset (behind 4).
            a.execute_sql("BEGIN").unwrap();
            a.execute_sql("DELETE FROM t WHERE id = 3").unwrap();
            b.execute_sql("DELETE FROM t WHERE id = 1").unwrap();
            a.execute_sql("ROLLBACK").unwrap();
            let ids: Vec<_> = rows(&mut a).into_iter().map(|r| r[0].clone()).collect();
            assert_eq!(ids, [int(2), int(3), int(4)], "{flavor:?}");

            // The stale offset now lies past the packed region.
            a.execute_sql("BEGIN").unwrap();
            a.execute_sql("DELETE FROM t WHERE id = 4").unwrap();
            b.execute_sql("BEGIN").unwrap();
            b.execute_sql("DELETE FROM t WHERE id = 2").unwrap();
            b.execute_sql("COMMIT").unwrap();
            a.execute_sql("ROLLBACK").unwrap();
            let ids: Vec<_> = rows(&mut a).into_iter().map(|r| r[0].clone()).collect();
            assert_eq!(ids, [int(3), int(4)], "{flavor:?}");

            // B re-uses the key A deleted, so undoing that delete fails;
            // the earlier delete is still undone and A's locks released.
            a.execute_sql("BEGIN").unwrap();
            a.execute_sql("DELETE FROM t WHERE id = 3").unwrap();
            a.execute_sql("DELETE FROM t WHERE id = 4").unwrap();
            let txn = a.txn.as_ref().unwrap().id;
            b.execute_sql("INSERT INTO t (id, v) VALUES (4, 40)")
                .unwrap();
            let err = a.execute_sql("ROLLBACK").unwrap_err();
            assert!(matches!(err, EngineError::DuplicateKey(_)), "{err:?}");
            assert_eq!(db.inner.locks.held_by(txn), 0, "{flavor:?}");
            assert_eq!(
                rows(&mut b),
                [vec![int(3), int(3)], vec![int(4), int(40)]],
                "{flavor:?}"
            );

            // `n` rows fill page 0 of `u` but for less than one row's width.
            a.execute_sql("CREATE TABLE u (id INTEGER PRIMARY KEY)")
                .unwrap();
            let pages = || db.table("u").unwrap().read().page_count();
            let mut n = 0;
            while pages() < 2 {
                n += 1;
                a.execute_sql(&format!("INSERT INTO u (id) VALUES ({n})"))
                    .unwrap();
            }
            a.execute_sql("DROP TABLE u").unwrap();
            a.execute_sql("CREATE TABLE u (id INTEGER PRIMARY KEY)")
                .unwrap();
            for id in 1..n {
                a.execute_sql(&format!("INSERT INTO u (id) VALUES ({id})"))
                    .unwrap();
            }
            // B's insert takes the space A's delete freed on the one page.
            a.execute_sql("BEGIN").unwrap();
            a.execute_sql("DELETE FROM u WHERE id = 1").unwrap();
            b.execute_sql(&format!("INSERT INTO u (id) VALUES ({n})"))
                .unwrap();
            assert_eq!(pages(), 1, "{flavor:?}");
            a.execute_sql("ROLLBACK").unwrap();
            assert_eq!(db.row_count("u").unwrap(), n as u64, "{flavor:?}");
        }
    }

    #[test]
    fn stmt_cache_hits_on_repeated_shapes() {
        let db = Database::in_memory(Flavor::Postgres);
        let mut s = db.session();
        s.execute_sql("CREATE TABLE t (a INTEGER)").unwrap();
        for i in 0..5 {
            s.execute_sql(&format!("INSERT INTO t (a) VALUES ({i})"))
                .unwrap();
        }
        let stats = db.stmt_cache_stats();
        assert_eq!(stats.misses, 1, "one cold parse per statement shape");
        assert_eq!(
            stats.hits, 4,
            "subsequent literal variants bind the template"
        );
        assert_eq!(db.row_count("t").unwrap(), 5);
    }

    #[test]
    fn cache_is_shared_across_sessions() {
        let db = Database::in_memory(Flavor::Postgres);
        db.session()
            .execute_sql("CREATE TABLE t (a INTEGER)")
            .unwrap();
        db.session()
            .execute_sql("INSERT INTO t (a) VALUES (1)")
            .unwrap();
        db.session()
            .execute_sql("INSERT INTO t (a) VALUES (2)")
            .unwrap();
        let stats = db.stmt_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn cached_execution_matches_cold() {
        let db = Database::in_memory(Flavor::Postgres);
        let mut s = db.session();
        s.execute_sql("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        for (a, b) in [(1, "x"), (2, "y"), (3, "z")] {
            s.execute_sql(&format!("INSERT INTO t (a, b) VALUES ({a}, '{b}')"))
                .unwrap();
        }
        // Warm the SELECT shape, then hit it with a different literal.
        let cold = s.query("SELECT b FROM t WHERE a = 1").unwrap();
        assert_eq!(cold.rows, vec![vec![Value::Str("x".into())]]);
        let warm = s.query("SELECT b FROM t WHERE a = 3").unwrap();
        assert_eq!(warm.rows, vec![vec![Value::Str("z".into())]]);
        assert!(db.stmt_cache_stats().hits >= 1);
    }

    #[test]
    fn negative_literals_are_not_mismatched_by_the_cache() {
        let db = Database::in_memory(Flavor::Postgres);
        let mut s = db.session();
        s.execute_sql("CREATE TABLE t (a INTEGER)").unwrap();
        s.execute_sql("INSERT INTO t (a) VALUES (5)").unwrap();
        s.execute_sql("INSERT INTO t (a) VALUES (-5)").unwrap();
        let rows = s.query("SELECT a FROM t WHERE a = -5").unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(-5)]]);
    }

    #[test]
    fn minus_operands_hit_the_cache_with_their_own_values() {
        let db = Database::in_memory(Flavor::Postgres);
        let mut s = db.session();
        s.execute_sql("CREATE TABLE t (a INTEGER PRIMARY KEY, b FLOAT)")
            .unwrap();
        s.execute_sql("INSERT INTO t (a, b) VALUES (1, 10.0)")
            .unwrap();
        let before = db.stmt_cache_stats();
        // One shape: a binary minus's operand, also when it is negative.
        for amount in ["2.5", "-1.5", "4"] {
            s.execute_sql(&format!("UPDATE t SET b = b - {amount} WHERE a = 1"))
                .unwrap();
        }
        let stats = db.stmt_cache_stats();
        assert_eq!(
            (stats.hits - before.hits, stats.misses - before.misses),
            (2, 1)
        );
        let rows = s.query("SELECT b FROM t WHERE a = 1").unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Float(5.0)]]);
        // `-(5.0)` folds to one literal cold: its template is refused.
        let rows = s.query("SELECT a FROM t WHERE b = -(-5.0)").unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn prepared_statements_bind_and_execute() {
        let db = Database::in_memory(Flavor::Postgres);
        let mut s = db.session();
        s.execute_sql("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        let ins = s.prepare("INSERT INTO t (a, b) VALUES (?, ?)").unwrap();
        for (a, b) in [(1, "x"), (2, "y")] {
            s.execute_prepared(&ins, &[Literal::Int(a), Literal::Str(b.into())])
                .unwrap();
        }
        let sel = s.prepare("SELECT b FROM t WHERE a = ?").unwrap();
        match s.execute_prepared(&sel, &[Literal::Int(2)]).unwrap() {
            ExecOutcome::Rows(r) => {
                assert_eq!(r.rows, vec![vec![Value::Str("y".into())]]);
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn prepared_arity_mismatch_is_a_constraint_error() {
        let db = Database::in_memory(Flavor::Postgres);
        let mut s = db.session();
        s.execute_sql("CREATE TABLE t (a INTEGER)").unwrap();
        let ins = s.prepare("INSERT INTO t (a) VALUES (?)").unwrap();
        assert!(matches!(
            s.execute_prepared(&ins, &[]),
            Err(EngineError::Constraint(_))
        ));
        assert!(matches!(
            s.execute_prepared(&ins, &[Literal::Int(1), Literal::Int(2)]),
            Err(EngineError::Constraint(_))
        ));
    }
}
