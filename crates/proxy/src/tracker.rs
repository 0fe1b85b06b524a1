//! The tracking interceptor: per-connection transaction state, harvesting,
//! and commit-time dependency recording.

use std::collections::{btree_map::Entry, BTreeMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use resildb_engine::{Database, EngineError, Value};
use resildb_sim::telemetry::names as span_names;
use resildb_sim::{
    failpoints, EventKind, InjectedFault, MetricsSnapshot, Micros, OwnedSpan, ShapeCache,
    SimContext, Telemetry, TraceVerdict,
};
use resildb_sql::{parse_statement, parse_template, scan_statement, LiteralSpan, StatementScan};
use resildb_wire::{
    single_proxy, Connection, InterceptDriver, Interceptor, InterceptorFactory, LinkProfile,
    NativeDriver, Response, WireError,
};

use resildb_analyze::{classify_statement, Verdict};

use crate::cache::{CachedShape, Plan, RewriteCacheStats};
use crate::config::{EnforcementPolicy, ProxyConfig};
use crate::depstore::DepStore;
use crate::fence::{Fence, FenceDecision};
use crate::rewrite::{is_tracking_column, HarvestSource, HARVEST_ALIAS_PREFIX, IDENTITY_COLUMN};

/// A proxy-generated transaction id. Distinct from the DBMS-internal id;
/// the repair tool correlates the two from the transaction log (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProxyTxnId(pub i64);

impl std::fmt::Display for ProxyTxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ptx:{}", self.0)
    }
}

/// Shared counters of the static-analysis enforcement layer: how many
/// statements of each verdict class the proxy saw, and how many it
/// refused. Verdicts are counted only when the policy is `Warn` or
/// `Reject`. Refusals are counted under every policy: a statement that
/// writes tracking state is refused even under `Allow` (the paper's
/// behaviour otherwise), and so is every untracked one under `Reject`.
#[derive(Debug, Default)]
pub struct TrackerStats {
    sound: AtomicU64,
    degraded: AtomicU64,
    untracked: AtomicU64,
    rejected: AtomicU64,
}

impl TrackerStats {
    fn count(&self, verdict: &Verdict) {
        let counter = match verdict {
            Verdict::Sound => &self.sound,
            Verdict::Degraded(_) => &self.degraded,
            Verdict::Untracked(_) => &self.untracked,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counters.
    pub fn snapshot(&self) -> TrackerStatsSnapshot {
        TrackerStatsSnapshot {
            sound: self.sound.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            untracked: self.untracked.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Folds the counters into `snap` under the `proxy.enforcement.*`
    /// metric names.
    pub fn fold_metrics(&self, snap: &mut MetricsSnapshot) {
        let s = self.snapshot();
        snap.set_counter("proxy.enforcement.sound", s.sound);
        snap.set_counter("proxy.enforcement.degraded", s.degraded);
        snap.set_counter("proxy.enforcement.untracked", s.untracked);
        snap.set_counter("proxy.enforcement.rejected", s.rejected);
    }
}

/// Point-in-time view of [`TrackerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrackerStatsSnapshot {
    /// Statements classified fully soundly tracked.
    pub sound: u64,
    /// Statements classified degraded (tracked, but coarser).
    pub degraded: u64,
    /// Statements classified untracked (dependencies lost).
    pub untracked: u64,
    /// Statements refused: writes to tracking state under every policy,
    /// and every other untracked statement under
    /// [`EnforcementPolicy::Reject`].
    pub rejected: u64,
}

/// Everything the connections of one proxy factory share — the proxy
/// process of the paper: the transaction-id and session-id allocators,
/// the rewrite cache, the enforcement counters, the in-flight dependency
/// ledger and the containment [`Fence`]. It is also the live-repair
/// control surface: the allocator gives the drain watermark, the ledger
/// says when every pre-fence transaction has finished (so the log
/// analysis that follows sees a complete prefix).
#[derive(Debug)]
pub struct ProxyRuntime {
    fence: Fence,
    counter: AtomicI64,
    sessions: AtomicU64,
    cache: ShapeCache<CachedShape>,
    stats: TrackerStats,
    deps: DepStore,
}

impl ProxyRuntime {
    /// The shared containment fence.
    pub fn fence(&self) -> &Fence {
        &self.fence
    }

    /// Counters of the shared statement-shape rewrite cache.
    pub fn rewrite_cache_stats(&self) -> RewriteCacheStats {
        self.cache.stats()
    }

    /// The shared enforcement (verdict and rejection) counters.
    pub fn tracker_stats(&self) -> &TrackerStats {
        &self.stats
    }

    /// The next transaction id the allocator would hand out. Every
    /// transaction that began before this call has a smaller id, so this
    /// is the drain watermark to pair with [`Self::any_inflight_below`].
    pub fn trid_watermark(&self) -> i64 {
        self.counter.load(Ordering::SeqCst)
    }

    /// Whether any transaction with an id below `watermark` is still in
    /// flight. Once this returns `false`, every transaction the pre-fence
    /// world admitted has committed or aborted.
    pub fn any_inflight_below(&self, watermark: i64) -> bool {
        self.deps.any_inflight_below(watermark)
    }

    /// Folds every proxy counter — rewrite cache, enforcement, dependency
    /// ledger, fence — into `snap`.
    pub fn fold_metrics(&self, snap: &mut MetricsSnapshot) {
        let cache = self.cache.stats();
        snap.set_counter("proxy.rewrite_cache.hits", cache.hits);
        snap.set_counter("proxy.rewrite_cache.misses", cache.misses);
        snap.set_counter("proxy.rewrite_cache.evictions", cache.evictions);
        snap.set_counter("proxy.rewrite_cache.entries", cache.entries as u64);
        self.stats.fold_metrics(snap);
        self.deps.fold_metrics(snap);
        self.fence.fold_metrics(snap);
    }
}

/// Constructors for tracking-proxy drivers.
///
/// The proxy id sequence is shared by every connection made through one
/// driver, mirroring the paper's single proxy process.
#[derive(Debug)]
pub struct TrackingProxy;

impl TrackingProxy {
    /// An [`InterceptorFactory`] running the tracker — hand it to
    /// `resildb_wire::single_proxy` (Figure 1) or `dual_proxy` (Figure 2)
    /// — plus the [`ProxyRuntime`] its connections share. The tracker's
    /// rewrite/harvest CPU is charged to `sim`.
    // `TrackingProxy` is a namespace of constructors, never a value.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        config: ProxyConfig,
        sim: SimContext,
    ) -> (Box<dyn InterceptorFactory>, Arc<ProxyRuntime>) {
        let runtime = Arc::new(ProxyRuntime {
            fence: Fence::new(),
            counter: AtomicI64::new(1),
            sessions: AtomicU64::new(1),
            cache: ShapeCache::new(config.rewrite_cache_capacity),
            stats: TrackerStats::default(),
            deps: DepStore::new(),
        });
        let shared = Arc::clone(&runtime);
        let factory = Box::new(move || {
            Box::new(Tracker {
                config: config.clone(),
                session: shared.sessions.fetch_add(1, Ordering::Relaxed),
                runtime: Arc::clone(&shared),
                txn: None,
                next_annotation: None,
                sim: sim.clone(),
            }) as Box<dyn Interceptor>
        });
        (factory, runtime)
    }

    /// [`Self::new`] without the runtime handle.
    pub fn factory_with_sim(config: ProxyConfig, sim: SimContext) -> Box<dyn InterceptorFactory> {
        Self::new(config, sim).0
    }

    /// Figure 1 deployment: client-side proxy driver over `link`.
    pub fn single_proxy(
        db: Database,
        link: LinkProfile,
        config: ProxyConfig,
    ) -> InterceptDriver<NativeDriver> {
        let sim = db.sim().clone();
        single_proxy(db, link, Self::factory_with_sim(config, sim))
    }
}

#[derive(Debug)]
struct TxnTrack {
    trid: i64,
    explicit: bool,
    /// Every dependency, with the index of its entry in `prov`.
    deps: BTreeMap<i64, Option<usize>>,
    /// (dep, via_table, read_cols): one entry per dependency, in the order
    /// first seen, widened by every later sighting ([`widen_provenance`]).
    prov: Vec<(i64, String, String)>,
    annotation: Option<String>,
    /// Whether the transaction executed any write statement; read-only
    /// transactions get no tracking record unless configured otherwise.
    wrote: bool,
}

impl TxnTrack {
    fn new(trid: i64, explicit: bool, annotation: Option<String>) -> Self {
        Self {
            trid,
            explicit,
            deps: BTreeMap::new(),
            prov: Vec::new(),
            annotation,
            wrote: false,
        }
    }
}

/// Width of `trans_dep_prov.read_cols`: a longer read-column list is
/// recorded as unknown (the empty string).
const READ_COLS_WIDTH: usize = 200;

/// Folds a later sighting of a dependency, read through `src`, into its
/// provenance entry `(dep, via_table, read_cols)`, so the entry covers
/// every read of that writer whatever their order. A read through a second
/// table turns the entry into the unknown-table marker (empty table and
/// columns), which no rule prunes; a read of the same table adds its
/// columns; a wildcard read, or a list grown past [`READ_COLS_WIDTH`],
/// leaves the columns unknown (empty).
fn widen_provenance(entry: &mut (i64, String, String), src: &HarvestSource) {
    let (_, table, cols) = entry;
    if table.is_empty() {
        return;
    }
    if *table != src.table {
        table.clear();
        cols.clear();
        return;
    }
    if cols.is_empty() {
        return;
    }
    if src.read_columns.is_empty() {
        cols.clear();
        return;
    }
    for c in &src.read_columns {
        if !cols.split(',').any(|known| known == c) {
            cols.push(',');
            cols.push_str(c);
        }
    }
    if cols.chars().count() > READ_COLS_WIDTH {
        cols.clear();
    }
}

/// Retires a transaction from the dependency ledger if the commit path
/// unwinds before reaching a regular retirement.
///
/// The commit-time tracking writes and the downstream COMMIT both
/// traverse failpoints that can panic ([`resildb_sim::FaultAction::Panic`]
/// on `proxy.*` or `engine.wal_commit`), and a panic skips every
/// statement after the failpoint — including the `DepStore` retirement.
/// Without this guard the ledger keeps the entry forever and the
/// `proxy.trans_dep.inflight` gauge leaks a permanently-stuck count. The
/// guard owns clones of the shared handles (no borrows of the tracker),
/// so `finish_txn` disarms it and retires explicitly; only an unwind
/// reaches its `Drop` armed.
struct RetireOnUnwind {
    runtime: Arc<ProxyRuntime>,
    tel: Telemetry,
    trid: i64,
    session: u64,
    armed: bool,
}

impl Drop for RetireOnUnwind {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.runtime.deps.abort(self.trid, &self.tel);
        self.tel
            .flight()
            .emit(self.trid, self.session, EventKind::Abort);
    }
}

struct Tracker {
    config: ProxyConfig,
    /// Flight-recorder session (connection) id, unique per proxy factory.
    session: u64,
    /// State shared across all connections of this proxy factory.
    runtime: Arc<ProxyRuntime>,
    txn: Option<TxnTrack>,
    /// Annotation staged by `ANNOTATE` before the transaction begins.
    next_annotation: Option<String>,
    /// Virtual clock to charge the proxy's own CPU costs to.
    sim: SimContext,
}

/// Virtual-clock CPU cost of intercepting, parsing and rewriting one
/// statement cold.
const REWRITE_CPU: Micros = Micros::new(50);

/// Virtual-clock CPU cost of replaying a cached rewrite (fingerprint hash +
/// literal splice). The cold/cached ratio models the measured speedup of
/// the template path over lex+parse+clone+print.
const REWRITE_CACHED_CPU: Micros = Micros::new(5);

/// Virtual-clock cost (nanoseconds) of harvesting and stripping the trid
/// columns of one result row.
const HARVEST_PER_ROW_NS: u64 = 1_000;

fn sql_str(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// Drops the columns flagged in `strip` from a result set.
fn strip_columns(qr: resildb_engine::QueryResult, strip: &[bool]) -> resildb_engine::QueryResult {
    let columns = qr
        .columns
        .iter()
        .zip(strip)
        .filter(|(_, s)| !**s)
        .map(|(c, _)| c.clone())
        .collect();
    let rows = qr
        .rows
        .into_iter()
        .map(|row| {
            row.into_iter()
                .zip(strip)
                .filter(|(_, s)| !**s)
                .map(|(v, _)| v)
                .collect()
        })
        .collect();
    resildb_engine::QueryResult { columns, rows }
}

impl Tracker {
    fn alloc_trid(&self) -> i64 {
        self.runtime.counter.fetch_add(1, Ordering::Relaxed)
    }

    /// The telemetry domain the tracker reports into: the domain named by
    /// the config when set, else the simulation context's domain.
    fn tel(&self) -> &Telemetry {
        self.config
            .telemetry
            .as_ref()
            .unwrap_or_else(|| self.sim.telemetry())
    }

    /// Starts a telemetry span (disabled by default, so this costs one
    /// relaxed atomic load on untelemetered deployments).
    fn tel_span(&self, name: &'static str) -> OwnedSpan {
        self.tel().owned_span(name)
    }

    /// Whether flight-recorder event tracing is live — the one relaxed
    /// load guarding every emission site, so callers can skip building
    /// event payloads (strings) on the disabled path.
    fn tracing(&self) -> bool {
        self.tel().flight().is_enabled()
    }

    /// Records one flight-recorder event, stamped with this connection's
    /// session id.
    fn trace(&self, txn: i64, kind: EventKind) {
        self.tel().flight().emit(txn, self.session, kind);
    }

    /// Records the statement-interception event: rewrite-cache outcome
    /// plus the enforcement verdict the statement got.
    fn trace_rewrite(&self, cache_hit: bool, verdict: Option<&Verdict>) {
        if !self.tracing() {
            return;
        }
        let verdict = match verdict {
            None => TraceVerdict::Unchecked,
            Some(Verdict::Sound) => TraceVerdict::Sound,
            Some(Verdict::Degraded(_)) => TraceVerdict::Degraded,
            Some(v @ Verdict::Untracked(_)) => {
                if v.tampers() || self.config.enforcement == EnforcementPolicy::Reject {
                    TraceVerdict::Rejected
                } else {
                    TraceVerdict::Untracked
                }
            }
        };
        let txn = self.txn.as_ref().map_or(0, |t| t.trid);
        self.trace(txn, EventKind::StmtRewrite { cache_hit, verdict });
    }

    /// Forgets the open transaction, flight-recording its abort and
    /// retiring it from the dependency ledger without a record.
    fn clear_txn(&mut self) {
        if let Some(t) = self.txn.take() {
            self.runtime.deps.abort(t.trid, self.tel());
            self.trace(t.trid, EventKind::Abort);
        }
    }

    /// Charges the interception/parsing/rewriting cost for one statement.
    fn charge_rewrite(&self) {
        self.sim.advance(REWRITE_CPU);
    }

    /// Charges the much smaller replay cost of a rewrite-cache hit
    /// (fingerprint hash + literal splice).
    fn charge_rewrite_cached(&self) {
        self.sim.advance(REWRITE_CACHED_CPU);
    }

    /// Charges the harvesting/stripping cost for `rows` result rows.
    fn charge_harvest(&self, rows: usize) {
        self.sim
            .advance(Micros::from_nanos(HARVEST_PER_ROW_NS * rows as u64));
    }

    /// Whether the finished transaction warrants tracking rows.
    fn should_record(&self, t: &TxnTrack) -> bool {
        self.config.record_deps_at_commit && (t.wrote || self.config.record_read_only_deps)
    }

    /// Evaluates a proxy failpoint against the shared fault plan.
    fn fault(&self, name: &str) -> Result<(), WireError> {
        match self.sim.fault_check(name) {
            None => Ok(()),
            Some(InjectedFault::Disconnect) => Err(WireError::ConnectionDropped),
            Some(InjectedFault::Error) => Err(WireError::Protocol(format!(
                "injected fault at failpoint {name}"
            ))),
            Some(InjectedFault::Delay(_)) => unreachable!("fault_check consumes delays"),
        }
    }

    /// Counts `verdict` and, under [`EnforcementPolicy::Reject`], refuses
    /// untracked statements before they reach the DBMS.
    fn enforce(&self, verdict: &Verdict) -> Result<(), WireError> {
        if verdict.is_untracked() && self.config.enforcement == EnforcementPolicy::Reject {
            return Err(self.refuse(verdict));
        }
        self.runtime.stats.count(verdict);
        Ok(())
    }

    /// Refuses the statement `verdict` classifies, before it reaches the
    /// DBMS: counts the verdict (not under [`EnforcementPolicy::Allow`])
    /// and the refusal, and names the reason codes in the error.
    fn refuse(&self, verdict: &Verdict) -> WireError {
        if self.config.enforcement != EnforcementPolicy::Allow {
            self.runtime.stats.count(verdict);
        }
        self.runtime.stats.rejected.fetch_add(1, Ordering::Relaxed);
        WireError::Protocol(format!(
            "statement refused by tracking enforcement policy: {verdict}"
        ))
    }

    /// Forgets the current transaction and rolls the downstream one back,
    /// so proxy and engine agree it is gone. The rollback is best-effort:
    /// on a dead connection or an engine-aborted transaction (deadlock)
    /// there is nothing left to roll back and the attempt fails harmlessly.
    fn abort_txn(&mut self, downstream: &mut dyn Connection) {
        self.clear_txn();
        let _ = downstream.execute("ROLLBACK");
    }

    /// Writes the provenance, annotation and (last) trans_dep rows for a
    /// finished transaction. Ordering matters: the paper's correlation rule
    /// is that the last log record before a COMMIT is an insert into
    /// `trans_dep`.
    fn write_tracking_rows(
        &self,
        t: &TxnTrack,
        downstream: &mut dyn Connection,
    ) -> Result<(), WireError> {
        let _span = self.tel_span(span_names::PROXY_TRANS_DEP_INSERT);
        if self.config.record_provenance && !t.prov.is_empty() {
            let tuples: Vec<String> = t
                .prov
                .iter()
                .map(|(dep, table, cols)| {
                    // A list wider than the column (200 chars) is written
                    // as the empty string — "read columns unknown", the
                    // wildcard convention. A truncated list would read as
                    // complete and let a false-dependency rule prune an
                    // edge whose derived column fell past the cut.
                    let cols = if cols.chars().count() > READ_COLS_WIDTH {
                        ""
                    } else {
                        cols
                    };
                    // Likewise a table name wider than `via_table` (32
                    // chars) is written as the unknown-table marker, which
                    // no rule prunes; a truncated name could be another
                    // table's.
                    let table = if table.chars().count() > 32 {
                        ""
                    } else {
                        table
                    };
                    format!(
                        "({}, {}, {}, {})",
                        t.trid,
                        dep,
                        sql_str(table),
                        sql_str(cols)
                    )
                })
                .collect();
            downstream.execute(&format!(
                "INSERT INTO trans_dep_prov (tr_id, dep_tr_id, via_table, read_cols) VALUES {}",
                tuples.join(", ")
            ))?;
        }
        // The annot table carries client-supplied symbolic names for graph
        // visualisation; unannotated transactions get no row (the graph
        // falls back to a generated `txn_<id>` label).
        if let Some(descr) = &t.annotation {
            downstream.execute(&format!(
                "INSERT INTO annot (tr_id, descr) VALUES ({}, {})",
                t.trid,
                sql_str(&descr.chars().take(64).collect::<String>())
            ))?;
        }
        // Space-separated dependency ids, split across rows at 200 chars
        // (the column's declared width).
        let ids: Vec<String> = t.deps.keys().map(i64::to_string).collect();
        let mut chunks: Vec<String> = Vec::new();
        let mut cur = String::new();
        for id in ids {
            if !cur.is_empty() && cur.len() + 1 + id.len() > 200 {
                chunks.push(std::mem::take(&mut cur));
            }
            if !cur.is_empty() {
                cur.push(' ');
            }
            cur.push_str(&id);
        }
        chunks.push(cur);
        let tuples: Vec<String> = chunks
            .iter()
            .map(|c| format!("({}, {})", t.trid, sql_str(c)))
            .collect();
        self.fault(failpoints::PROXY_BEFORE_TRANS_DEP_INSERT)?;
        downstream.execute(&format!(
            "INSERT INTO trans_dep (tr_id, dep_tr_ids) VALUES {}",
            tuples.join(", ")
        ))?;
        self.trace(
            t.trid,
            EventKind::TransDepInsert {
                deps: u32::try_from(t.deps.len()).unwrap_or(u32::MAX),
            },
        );
        self.fault(failpoints::PROXY_AFTER_TRANS_DEP_INSERT)?;
        Ok(())
    }

    /// Whether result column `name` belongs to the tracking layer and must
    /// be hidden from clients: harvest aliases, the `trid` stamp, the
    /// per-column `trid__*` stamps, and (only where the flavor needed the
    /// identity workaround) the injected `rid` column.
    fn is_hidden_column(&self, name: &str) -> bool {
        name.starts_with(HARVEST_ALIAS_PREFIX)
            || is_tracking_column(name)
                && (self.config.flavor.rowid_pseudocolumn().is_none()
                    || !name.eq_ignore_ascii_case(IDENTITY_COLUMN))
    }

    /// Strips tracking columns from a pass-through result (aggregate or
    /// DISTINCT selects, which are not rewritten but whose wildcards can
    /// still expose injected columns).
    fn strip_only(&self, resp: Response) -> Response {
        let Response::Rows(qr) = resp else {
            return resp;
        };
        let strip: Vec<bool> = qr
            .columns
            .iter()
            .map(|c| self.is_hidden_column(c))
            .collect();
        if !strip.iter().any(|s| *s) {
            return Response::Rows(qr);
        }
        Response::Rows(strip_columns(qr, &strip))
    }

    /// Removes harvested trid columns from a result, folding their values
    /// into the current transaction's dependency set.
    fn harvest_and_strip(
        &mut self,
        resp: Response,
        plan: &crate::rewrite::SelectRewrite,
    ) -> Result<Response, WireError> {
        let _span = self.tel_span(span_names::PROXY_HARVEST);
        self.fault(failpoints::PROXY_HARVEST)?;
        let Response::Rows(qr) = resp else {
            return Ok(resp);
        };
        self.charge_harvest(qr.rows.len());
        // Columns to strip: our harvest aliases plus any tracking column a
        // wildcard expansion leaked.
        let mut strip = vec![false; qr.columns.len()];
        let mut harvest_cols: Vec<(usize, usize)> = Vec::new(); // (col idx, plan idx)
        for (i, name) in qr.columns.iter().enumerate() {
            if let Some(k) = name.strip_prefix(HARVEST_ALIAS_PREFIX) {
                strip[i] = true;
                if let Ok(k) = k.parse::<usize>() {
                    harvest_cols.push((i, k));
                }
            } else if self.is_hidden_column(name) {
                strip[i] = true;
            }
        }
        let tracing = self.tracing();
        let mut harvested: Vec<(i64, i64, String)> = Vec::new();
        if let Some(txn) = &mut self.txn {
            for row in &qr.rows {
                for &(col, k) in &harvest_cols {
                    let Some(&Value::Int(v)) = row.get(col) else {
                        continue;
                    };
                    if v <= 0 || v == txn.trid {
                        continue;
                    }
                    let src = plan.harvested.get(k);
                    match txn.deps.entry(v) {
                        Entry::Vacant(slot) => {
                            if tracing {
                                harvested.push((
                                    txn.trid,
                                    v,
                                    src.map(|s| s.table.clone()).unwrap_or_default(),
                                ));
                            }
                            slot.insert(src.map(|src| {
                                txn.prov
                                    .push((v, src.table.clone(), src.read_columns.join(",")));
                                txn.prov.len() - 1
                            }));
                        }
                        Entry::Occupied(seen) => {
                            if let (Some(src), Some(i)) = (src, *seen.get()) {
                                widen_provenance(&mut txn.prov[i], src);
                            }
                        }
                    }
                }
            }
        }
        for (trid, dep, table) in harvested {
            self.trace(trid, EventKind::DepHarvested { dep, table });
        }
        Ok(Response::Rows(strip_columns(qr, &strip)))
    }

    /// Commits the finished transaction `t` — the one commit sequence,
    /// shared by an explicit `COMMIT` and the implicit transaction around
    /// an autocommit write. Tracking rows and COMMIT form one atomic unit
    /// (§3.3): if the dependency record cannot be written, or the COMMIT
    /// fails, nothing commits — and the engine's transaction, still open
    /// at that point, is rolled back so proxy and engine never diverge.
    fn finish_txn(
        &mut self,
        t: TxnTrack,
        downstream: &mut dyn Connection,
    ) -> Result<Response, WireError> {
        // A panic out of a failpoint or the engine commit would skip the
        // retirement below, so the guard covers the unwind.
        let mut guard = RetireOnUnwind {
            runtime: Arc::clone(&self.runtime),
            tel: self.tel().clone(),
            trid: t.trid,
            session: self.session,
            armed: true,
        };
        let committed = if self.should_record(&t) {
            self.write_tracking_rows(&t, downstream)
        } else {
            Ok(())
        }
        .and_then(|()| self.fault(failpoints::PROXY_BEFORE_COMMIT))
        .and_then(|()| downstream.execute("COMMIT"));
        guard.armed = false;
        match &committed {
            Ok(_) => {
                self.runtime.deps.commit(t.trid, t.deps.len(), self.tel());
                self.trace(t.trid, EventKind::Commit);
            }
            Err(_) => {
                self.runtime.deps.abort(t.trid, self.tel());
                self.trace(t.trid, EventKind::Abort);
                self.abort_txn(downstream);
            }
        }
        committed
    }

    /// Opens a tracked transaction — BEGIN downstream, then a fresh trid
    /// carrying the staged annotation, entered in the dependency ledger.
    /// The one opening sequence, shared by an explicit `BEGIN` and the
    /// implicit transaction around an autocommit write.
    fn begin_txn(
        &mut self,
        explicit: bool,
        downstream: &mut dyn Connection,
    ) -> Result<Response, WireError> {
        let resp = downstream.execute("BEGIN")?;
        let trid = self.alloc_trid();
        let annotation = self.next_annotation.take();
        self.txn = Some(TxnTrack::new(trid, explicit, annotation));
        self.runtime.deps.begin(trid, self.tel());
        self.trace(trid, EventKind::TxnBegin);
        Ok(resp)
    }

    /// Executes a write statement within the current transaction, opening
    /// (and afterwards committing) an implicit one when none is active.
    /// `make_sql` receives the current proxy transaction id for rewriting.
    fn execute_write(
        &mut self,
        downstream: &mut dyn Connection,
        make_sql: impl FnOnce(i64) -> String,
    ) -> Result<Response, WireError> {
        let implicit = self.txn.is_none();
        if implicit {
            self.begin_txn(false, downstream)?;
        }
        let Some(trid) = self.txn.as_ref().map(|t| t.trid) else {
            return Err(WireError::Protocol("transaction state missing".into()));
        };
        let result = downstream.execute(&make_sql(trid));
        match result {
            Ok(resp) => {
                if let Some(t) = &mut self.txn {
                    t.wrote = true;
                }
                if implicit {
                    let Some(t) = self.txn.take() else {
                        return Err(WireError::Protocol("transaction state missing".into()));
                    };
                    self.finish_txn(t, downstream)?;
                }
                Ok(resp)
            }
            Err(e) => {
                if matches!(
                    &e,
                    WireError::Db(EngineError::Deadlock) | WireError::ConnectionDropped
                ) {
                    // Engine already rolled the victim back (deadlock), or
                    // the server did when the connection died.
                    self.clear_txn();
                } else if implicit {
                    let _ = downstream.execute("ROLLBACK");
                    self.clear_txn();
                }
                Err(e)
            }
        }
    }

    /// The miss path: parses `sql` — as a template when the scanner
    /// admitted it — then classifies and plans it once. A statement that
    /// writes tracking state is refused here, under every policy, and never
    /// cached; any other template's plan is cached for every later
    /// statement of its shape.
    fn plan_statement(
        &self,
        sql: &str,
        scan: Option<&StatementScan>,
    ) -> Result<Arc<CachedShape>, WireError> {
        let _span = self.tel_span(span_names::PROXY_REWRITE);
        let (stmt, scan) = match scan.and_then(|scan| Some((parse_template(sql, scan)?, scan))) {
            Some((stmt, scan)) => (stmt, Some(scan)),
            None => (
                parse_statement(sql).map_err(|e| {
                    WireError::Protocol(format!("proxy cannot parse statement: {e}"))
                })?,
                None,
            ),
        };
        self.charge_rewrite();
        let verdict = classify_statement(&stmt, self.config.granularity.into());
        if verdict.tampers() {
            self.trace_rewrite(false, Some(&verdict));
            return Err(self.refuse(&verdict));
        }
        let literals = scan.map_or(0, |scan| scan.spans.len());
        let plan = Plan::new(&stmt, literals, &self.config).ok_or_else(|| {
            WireError::Protocol("proxy cannot template its rewrite of the statement".into())
        })?;
        let verdict = (self.config.enforcement != EnforcementPolicy::Allow).then_some(verdict);
        let shape = CachedShape { plan, verdict };
        Ok(match scan {
            Some(scan) => self.runtime.cache.insert(scan.fingerprint, shape),
            None => Arc::new(shape),
        })
    }

    /// The one executor: carries out `plan` for `sql`, whose masked
    /// literals are `spans`, whether the plan was just built or came from
    /// the cache.
    fn execute(
        &mut self,
        plan: &Plan,
        sql: &str,
        spans: &[LiteralSpan],
        downstream: &mut dyn Connection,
    ) -> Result<Response, WireError> {
        match plan {
            Plan::Ddl(None) => downstream.execute(sql),
            Plan::Ddl(Some(rewritten)) => downstream.execute(rewritten),
            Plan::Begin => {
                if self.txn.as_ref().is_some_and(|t| t.explicit) {
                    return Err(WireError::Db(EngineError::InvalidTransactionState(
                        "BEGIN inside an open transaction".into(),
                    )));
                }
                self.begin_txn(true, downstream)
            }
            Plan::Commit => match self.txn.take() {
                Some(t) => self.finish_txn(t, downstream),
                None => downstream.execute(sql), // let the DBMS complain
            },
            Plan::Rollback => {
                self.clear_txn();
                downstream.execute(sql)
            }
            Plan::Strip => {
                let resp = downstream.execute(sql)?;
                Ok(self.strip_only(resp))
            }
            Plan::Select { tmpl, harvest } => {
                let resp = downstream.execute(&tmpl.splice(sql, spans, 0))?;
                self.harvest_and_strip(resp, harvest)
            }
            Plan::Write { tmpl } => {
                self.execute_write(downstream, |trid| tmpl.splice(sql, spans, trid))
            }
            Plan::WriteRaw => self.execute_write(downstream, |_| sql.to_string()),
        }
    }
}

/// A connection dropped with a transaction still open must retire that
/// transaction from the factory-wide dependency ledger — the engine side
/// already rolls its session back on drop, and a ledger entry with no
/// surviving connection could never be retired by anyone else (the
/// `proxy.trans_dep.inflight` gauge would report a phantom transaction
/// forever).
impl Drop for Tracker {
    fn drop(&mut self) {
        self.clear_txn();
    }
}

impl Interceptor for Tracker {
    fn intercept(
        &mut self,
        sql: &str,
        downstream: &mut dyn Connection,
    ) -> Result<Response, WireError> {
        // Out-of-band annotation pseudo-command (proxy extension): names
        // the current (or next) transaction for the `annot` table. `get`
        // rather than byte slicing: position 9 of a multi-byte statement
        // need not be a char boundary.
        let trimmed = sql.trim();
        if trimmed
            .get(..9)
            .is_some_and(|p| p.eq_ignore_ascii_case("ANNOTATE "))
        {
            let name = trimmed[9..].trim().to_string();
            match &mut self.txn {
                Some(t) => t.annotation = Some(name),
                None => self.next_annotation = Some(name),
            }
            return Ok(Response::TxnControl);
        }

        let result = self.intercept_statement(sql, downstream);
        if matches!(result, Err(WireError::ConnectionDropped)) {
            // The server rolls an open transaction back when its peer
            // disappears; mirror that so the proxy never believes in a
            // transaction the engine no longer has.
            self.clear_txn();
        }
        result
    }

    fn fold_metrics(&self, snap: &mut MetricsSnapshot) {
        self.runtime.fold_metrics(snap);
    }
}

impl Tracker {
    /// Presents `sql` to the containment fence when one is up. Statements
    /// aimed at the proxy's own tracking tables are never fenced (fence
    /// membership is user tables only), and a statement the proxy cannot
    /// parse falls through — the regular path rejects it with a parse
    /// error anyway.
    fn check_fence(&self, sql: &str) -> Result<(), WireError> {
        let Ok(stmt) = parse_statement(sql) else {
            return Ok(());
        };
        match self.runtime.fence().admit(&stmt) {
            FenceDecision::Pass => Ok(()),
            FenceDecision::Reject => {
                let table = stmt
                    .referenced_tables()
                    .first()
                    .map_or_else(String::new, |t| format!(" on {t}"));
                Err(WireError::Protocol(format!(
                    "statement refused by containment fence{table}: data quarantined during live repair"
                )))
            }
        }
    }

    fn intercept_statement(
        &mut self,
        sql: &str,
        downstream: &mut dyn Connection,
    ) -> Result<Response, WireError> {
        self.fault(failpoints::PROXY_BEFORE_REWRITE)?;

        // Containment fast path: one atomic load while no repair is in
        // flight; the full parse-and-check only runs under a raised fence.
        if self.runtime.fence().is_active() {
            self.check_fence(sql)?;
        }

        // Template fast path: a statement whose shape is already planned is
        // served with a fingerprint lookup plus literal splice instead of
        // the full lex/parse/rewrite/print pipeline.
        let scan = if self.runtime.cache.enabled() {
            scan_statement(sql)
        } else {
            None
        };
        let hit = scan.as_ref().and_then(|scan| {
            let _span = self.tel_span(span_names::PROXY_CACHE_LOOKUP);
            self.runtime.cache.lookup(scan.fingerprint, |shape| {
                shape.plan.admits(scan.spans.len())
            })
        });
        let cache_hit = hit.is_some();
        let shape = match hit {
            Some(shape) => {
                self.charge_rewrite_cached();
                shape
            }
            None => self.plan_statement(sql, scan.as_ref())?,
        };
        self.trace_rewrite(cache_hit, shape.verdict.as_ref());
        // The verdict was computed once, when the shape was planned; on
        // hits enforcement costs one enum inspection.
        if let Some(v) = &shape.verdict {
            self.enforce(v)?;
        }
        let spans = scan.as_ref().map_or(&[][..], |scan| &scan.spans);
        self.execute(&shape.plan, sql, spans, downstream)
    }
}
