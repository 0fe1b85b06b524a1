//! The phased repair driver: `analyze() → plan() → execute()`.
//!
//! [`RepairController`] is the one entry point for repairing a database,
//! replacing the earlier `RepairTool::repair` / `repair_with_undo_set` /
//! free-standing `run_compensation` trio. The three phases separate what
//! the paper's interactive tool interleaves:
//!
//! * [`RepairController::analyze`] reads the transaction log and builds
//!   the dependency graph from it alone ([`Analysis`]);
//! * [`RepairController::plan`] computes the damage closure for an
//!   initial attack set under the controller's false-dependency rules
//!   ([`RepairPlan`] — its `undo_set` is open for interactive what-if
//!   adjustment before execution);
//! * [`RepairController::execute`] runs the compensation sweep, either
//!   **quiesced** (the paper's offline repair: the caller guarantees no
//!   concurrent traffic) or **live** ([`RepairMode::Live`]): the
//!   controller fences the static blast-radius surface through the
//!   proxy's [`resildb_proxy::Fence`], drains in-flight transactions,
//!   re-analyzes, shrinks the fence to the dynamic row-level closure,
//!   sweeps while clean traffic keeps flowing, and extends the fence if
//!   re-analysis grows the closure mid-sweep.
//!
//! Options are carried by the [`RepairOptions`] builder. Deterministic
//! tests inject failures at the repair failpoints by arming the database's
//! fault plan (`sim().faults()`), as every other failpoint is armed.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use resildb_engine::Database;
use resildb_proxy::{canon_value, composite_key, ProxyRuntime, RowFence};
use resildb_sim::telemetry::names as span_names;
use resildb_sim::{failpoints, EventKind};
use resildb_wire::{Connection, Driver, LinkProfile, NativeDriver, Response};

use crate::adapters::{adapter_for, LogAdapter};
use crate::compensate::{repair_fault, run_compensation, CompensationOutcome};
use crate::correlate::TxnCorrelation;
use crate::error::RepairError;
use crate::fold::dependency_graph;
use crate::graph::{DepGraph, FalseDepRule};
use crate::record::{NamedRow, RepairOp, RepairRecord, RowAddress};

/// Everything the analysis phase learns from the database and its log.
#[derive(Debug)]
pub struct Analysis {
    /// Normalized log records (LSN order).
    pub records: Vec<RepairRecord>,
    /// Proxy ↔ internal id mapping.
    pub correlation: TxnCorrelation,
    /// The full dependency graph: online read deps from the `trans_dep`
    /// and `trans_dep_prov` images in the log, write deps reconstructed
    /// from pre-image stamps, labels from the `annot` images.
    pub graph: DepGraph,
    /// Incident-clock stamp taken when this analysis began. Analysis
    /// alone leaves no incident behind; [`RepairController::execute`]
    /// opens one whose `detected` mark carries this stamp.
    pub detected_at_ns: u64,
}

impl Analysis {
    /// Computes the undo set for an initial attack set under the given
    /// false-dependency rules — the "what if" primitive the paper's
    /// interactive repair tool is built around.
    pub fn undo_set(&self, initial: &[i64], rules: &[FalseDepRule]) -> BTreeSet<i64> {
        self.graph.closure(initial, rules)
    }

    /// Renders the dependency graph as GraphViz DOT, highlighting
    /// `highlight` (paper Figure 3).
    pub fn to_dot(&self, highlight: &BTreeSet<i64>) -> String {
        self.graph.to_dot(highlight)
    }

    /// Every tracked (committed, correlated) proxy transaction id.
    pub fn tracked_transactions(&self) -> BTreeSet<i64> {
        self.correlation.internal_of.keys().copied().collect()
    }
}

/// Whether the compensation sweep runs against a quiesced database or
/// concurrently with client traffic behind a containment fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairMode {
    /// The paper's offline repair: the caller guarantees no concurrent
    /// traffic for the duration of [`RepairController::execute`].
    #[default]
    Quiesced,
    /// Online repair: fence the blast radius through the proxy, keep
    /// serving transactions that provably miss the quarantine, sweep in
    /// the background. Requires [`RepairOptions::live`].
    Live,
}

/// How long a live repair waits for pre-fence transactions to drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// How many fence-extension rounds a live repair tolerates before
/// concluding the closure is not converging.
const MAX_EXTENSION_ROUNDS: usize = 8;

/// Options for a [`RepairController`], built fluently:
///
/// ```ignore
/// let opts = RepairOptions::quiesced()
///     .rule(FalseDepRule::IgnoreTable("scratch".into()));
/// ```
///
/// The struct is `#[non_exhaustive]`: construct it through
/// [`RepairOptions::quiesced`] / [`RepairOptions::live`] so new knobs can
/// be added without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RepairOptions {
    /// Quiesced or live execution.
    pub mode: RepairMode,
    /// DBA-declared false-dependency rules applied to every closure the
    /// controller computes (paper §5.3).
    pub rules: Vec<FalseDepRule>,
    /// The static blast-radius surface a live repair fences before any
    /// log analysis. `None` means every user table (always sound); a
    /// profile-conflict analysis (DESIGN.md §11) can narrow it.
    pub static_surface: Option<Vec<String>>,
    /// The proxy runtime whose fence and in-flight ledger a live repair
    /// drives. Required for [`RepairMode::Live`].
    pub runtime: Option<Arc<ProxyRuntime>>,
}

impl Default for RepairOptions {
    fn default() -> Self {
        Self::quiesced()
    }
}

impl RepairOptions {
    /// Options for the paper's offline repair (no fence, no proxy).
    pub fn quiesced() -> Self {
        Self {
            mode: RepairMode::Quiesced,
            rules: Vec::new(),
            static_surface: None,
            runtime: None,
        }
    }

    /// Options for a live repair driving `runtime`'s fence: raised over
    /// the static table surface, shrunk to the closure's rows once the
    /// analysis behind it is fresh, extended if the closure grows, and
    /// lifted when the sweep commits. Every proxy connection on
    /// `runtime` rejects what the raised fence blocks.
    pub fn live(runtime: Arc<ProxyRuntime>) -> Self {
        Self {
            mode: RepairMode::Live,
            runtime: Some(runtime),
            ..Self::quiesced()
        }
    }

    /// Replaces the false-dependency rules.
    #[must_use]
    pub fn rules(mut self, rules: impl IntoIterator<Item = FalseDepRule>) -> Self {
        self.rules = rules.into_iter().collect();
        self
    }

    /// Adds one false-dependency rule.
    #[must_use]
    pub fn rule(mut self, rule: FalseDepRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Narrows the static fence surface of a live repair to `tables`
    /// (e.g. an attacker profile's static blast-radius closure). The
    /// surface must cover everything the attack could have touched;
    /// a too-narrow surface is caught by the extension loop but costs
    /// extra sweep rounds.
    #[must_use]
    pub fn static_surface(mut self, tables: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.static_surface = Some(tables.into_iter().map(Into::into).collect());
        self
    }
}

/// The undo set chosen for execution, open for interactive what-if
/// adjustment between [`RepairController::plan`] and
/// [`RepairController::execute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairPlan {
    /// The initial attack set the closure was seeded from.
    pub initial: Vec<i64>,
    /// The proxy transactions to undo. Starts as the closure of
    /// `initial` under the controller's rules; the DBA may add or remove
    /// members before execution (a live execute re-derives the closure
    /// post-fence and re-applies the manual delta).
    pub undo_set: BTreeSet<i64>,
}

impl RepairPlan {
    /// A plan with an explicitly chosen undo set (e.g. after interactive
    /// filtering).
    pub fn with_undo_set(initial: &[i64], undo_set: BTreeSet<i64>) -> Self {
        Self {
            initial: initial.to_vec(),
            undo_set,
        }
    }
}

/// Report of a completed repair. What a live execution did to the fence
/// (tables raised, rows fenced, extension rounds) is the incident's
/// `IncidentRecord.progress` on the telemetry timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// The proxy transactions rolled back.
    pub undo_set: BTreeSet<i64>,
    /// Total tracked transactions at repair time.
    pub tracked_total: usize,
    /// Tracked transactions whose effects survived.
    pub saved: usize,
    /// What the compensation sweep did.
    pub outcome: CompensationOutcome,
}

impl RepairReport {
    /// Percentage of tracked transactions preserved by the repair
    /// (the right-hand column of paper Figure 5).
    pub fn saved_percentage(&self) -> f64 {
        if self.tracked_total == 0 {
            100.0
        } else {
            100.0 * self.saved as f64 / self.tracked_total as f64
        }
    }
}

/// The phased repair driver for one database. See module docs.
pub struct RepairController {
    db: Database,
    adapter: Box<dyn LogAdapter>,
    options: RepairOptions,
}

impl std::fmt::Debug for RepairController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairController")
            .field("flavor", &self.db.flavor())
            .field("mode", &self.options.mode)
            .finish_non_exhaustive()
    }
}

impl RepairController {
    /// A quiesced-mode controller with default options and the adapter
    /// matching the database's flavor.
    pub fn new(db: Database) -> Self {
        Self::with_options(db, RepairOptions::default())
    }

    /// A controller with explicit options.
    pub fn with_options(db: Database, options: RepairOptions) -> Self {
        let adapter = adapter_for(db.flavor());
        Self {
            db,
            adapter,
            options,
        }
    }

    /// The options this controller executes under.
    pub fn options(&self) -> &RepairOptions {
        &self.options
    }

    /// Phase 1: reads the log and builds the dependency graph from it
    /// alone — the tracking tables' contents are folded from their own
    /// images in the log, so analysis issues no SQL.
    ///
    /// # Errors
    ///
    /// Log introspection failures, and [`RepairError::DuplicateTrid`]
    /// when one proxy transaction id committed twice.
    pub fn analyze(&self) -> Result<Analysis, RepairError> {
        let telemetry = self.db.sim().telemetry();
        let detected_at_ns = telemetry.incident_stamp();
        let records = {
            let _span = telemetry.span(span_names::REPAIR_LOG_SCAN);
            self.adapter.scan(&self.db)?
        };
        telemetry.repair_event(
            0,
            EventKind::LogScan {
                records: records.len() as u64,
            },
        );
        let correlation = {
            let _span = telemetry.span(span_names::REPAIR_CORRELATE);
            TxnCorrelation::from_records(&records)?
        };
        telemetry.repair_event(
            0,
            EventKind::Correlate {
                pairs: correlation.len() as u64,
            },
        );
        let graph = {
            let _span = telemetry.span(span_names::REPAIR_GRAPH_BUILD);
            dependency_graph(&records, &correlation)
        };
        Ok(Analysis {
            records,
            correlation,
            graph,
            detected_at_ns,
        })
    }

    /// Phase 2: computes the damage closure of `initial` under the
    /// controller's rules.
    pub fn plan(&self, analysis: &Analysis, initial: &[i64]) -> RepairPlan {
        let undo_set = {
            let _span = self.db.sim().telemetry().span(span_names::REPAIR_CLOSURE);
            analysis.undo_set(initial, &self.options.rules)
        };
        self.closure_computed(initial, undo_set.len());
        RepairPlan {
            initial: initial.to_vec(),
            undo_set,
        }
    }

    /// Phase 3: executes the compensation sweep for `plan`, in the mode
    /// the options select.
    ///
    /// # Errors
    ///
    /// Compensation failures; for live mode also a missing runtime, a
    /// drain timeout, or a closure that does not converge within the
    /// extension-round budget. The fence is always lifted on the way out.
    pub fn execute(
        &self,
        analysis: &Analysis,
        plan: &RepairPlan,
    ) -> Result<RepairReport, RepairError> {
        // The incident lives exactly as long as this call: it opens here,
        // `detected` when `analysis` began, and closes on every exit path
        // — success, error, or a panic unwinding out of a failpoint. For
        // live mode the `fence_lifted` event comes from the inner
        // `FenceLift` guard, which drops first.
        let telemetry = self.db.sim().telemetry();
        telemetry.repair_event(
            0,
            EventKind::IncidentDetected {
                at_ns: analysis.detected_at_ns,
            },
        );
        struct CloseIncident<'a>(&'a resildb_sim::Telemetry);
        impl Drop for CloseIncident<'_> {
            fn drop(&mut self) {
                self.0.repair_event(0, EventKind::IncidentClosed);
            }
        }
        let _close = CloseIncident(telemetry);
        // The plan may have been hand-edited since `plan()` computed it.
        self.closure_computed(&plan.initial, plan.undo_set.len());
        match self.options.mode {
            RepairMode::Quiesced => self.execute_quiesced(analysis, &plan.undo_set),
            RepairMode::Live => self.execute_live(analysis, plan),
        }
    }

    /// Reports a freshly established undo set of `nodes` transactions for
    /// `initial`.
    fn closure_computed(&self, initial: &[i64], nodes: usize) {
        self.db.sim().telemetry().repair_event(
            0,
            EventKind::ClosureComputed {
                initial: u32::try_from(initial.len()).unwrap_or(u32::MAX),
                nodes: u32::try_from(nodes).unwrap_or(u32::MAX),
            },
        );
    }

    /// Convenience: `analyze` → `plan(initial)` → `execute`.
    ///
    /// # Errors
    ///
    /// Any phase's failures.
    pub fn repair(&self, initial: &[i64]) -> Result<RepairReport, RepairError> {
        let analysis = self.analyze()?;
        let plan = self.plan(&analysis, initial);
        self.execute(&analysis, &plan)
    }

    /// The paper's offline sweep: one compensation transaction against a
    /// quiesced database.
    fn execute_quiesced(
        &self,
        analysis: &Analysis,
        undo_set: &BTreeSet<i64>,
    ) -> Result<RepairReport, RepairError> {
        let telemetry = self.db.sim().telemetry();
        let _span = telemetry.span(span_names::REPAIR_COMPENSATE);
        let undo_internal = internal_map(analysis, undo_set);
        let driver = NativeDriver::new(self.db.clone(), LinkProfile::local());
        let mut conn = driver.connect()?;
        let outcome = run_compensation(
            &self.db,
            conn.as_mut(),
            &analysis.records,
            &undo_internal,
            self.adapter.address_column(),
            &BTreeSet::new(),
        )?;
        telemetry.repair_event(0, EventKind::SweepComplete { rounds: 1 });
        Ok(build_report(analysis, undo_set.clone(), outcome))
    }

    /// Live repair: fence → drain → re-analyze → shrink → sweep →
    /// extend-until-converged → lift. The fence is lifted on every exit
    /// path, success or error.
    fn execute_live(
        &self,
        stale_analysis: &Analysis,
        plan: &RepairPlan,
    ) -> Result<RepairReport, RepairError> {
        let runtime = self.options.runtime.clone().ok_or_else(|| {
            RepairError::Analysis(
                "live repair requires a proxy runtime (build options with RepairOptions::live)"
                    .into(),
            )
        })?;
        let telemetry = self.db.sim().telemetry();
        let fence = runtime.fence();

        // 1. Raise the static fence: the blast-radius surface is known
        //    before any log analysis, so containment is instant.
        let surface: Vec<String> = match &self.options.static_surface {
            Some(tables) => tables.clone(),
            None => self
                .db
                .table_names()
                .into_iter()
                .filter(|t| !resildb_proxy::is_tracking_table(t))
                .collect(),
        };
        let tables = fence.raise(surface);
        telemetry.repair_event(
            0,
            EventKind::FenceRaised {
                tables: u32::try_from(tables).unwrap_or(u32::MAX),
            },
        );

        // Drop guard: the fence comes down on *every* exit — success,
        // error, or a panic unwinding out of a failpoint. A stuck fence
        // turns one failed repair into an indefinite outage.
        struct FenceLift<'a> {
            fence: &'a resildb_proxy::Fence,
            telemetry: &'a resildb_sim::Telemetry,
        }
        impl Drop for FenceLift<'_> {
            fn drop(&mut self) {
                self.fence.lift();
                self.telemetry.repair_event(0, EventKind::FenceLifted);
            }
        }
        let _lift = FenceLift { fence, telemetry };

        self.live_protocol(&runtime, stale_analysis, plan)
    }

    /// Everything between fence raise and fence lift.
    fn live_protocol(
        &self,
        runtime: &ProxyRuntime,
        stale_analysis: &Analysis,
        plan: &RepairPlan,
    ) -> Result<RepairReport, RepairError> {
        let telemetry = self.db.sim().telemetry();
        let fence = runtime.fence();

        // The DBA may have hand-adjusted the plan's undo set relative to
        // the closure its (pre-fence) analysis produced. Capture that
        // delta so it can be re-applied to every post-fence closure.
        let stale_closure = stale_analysis.undo_set(&plan.initial, &self.options.rules);
        let manual_removed: BTreeSet<i64> =
            stale_closure.difference(&plan.undo_set).copied().collect();
        let manual_added: BTreeSet<i64> =
            plan.undo_set.difference(&stale_closure).copied().collect();
        let adjust = |mut closure: BTreeSet<i64>| -> BTreeSet<i64> {
            closure.retain(|t| !manual_removed.contains(t));
            closure.extend(manual_added.iter().copied());
            closure
        };

        // 2. Drain: every transaction admitted before the fence went up
        //    must commit or abort before analysis, so the log prefix the
        //    closure is computed from is complete.
        let watermark = runtime.trid_watermark();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while runtime.any_inflight_below(watermark) {
            if Instant::now() >= deadline {
                return Err(RepairError::Analysis(
                    "live repair drain timed out: pre-fence transactions still in flight".into(),
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        // 3. Fresh analysis behind the fence, and the real closure.
        let mut analysis = self.analyze()?;
        let mut undo = adjust(analysis.undo_set(&plan.initial, &self.options.rules));
        self.closure_computed(&plan.initial, undo.len());

        // 4. Shrink from the static table surface to the dynamic
        //    row-level closure.
        repair_fault(&self.db, failpoints::REPAIR_LIVE_BEFORE_SHRINK)?;
        let (mut whole, mut rows) = self.fence_rows(&analysis, &undo)?;
        let (shrunk_tables, fenced_rows) = fence.shrink(whole.clone(), rows.clone());
        telemetry.repair_event(
            0,
            EventKind::FenceShrunk {
                tables: u32::try_from(shrunk_tables).unwrap_or(u32::MAX),
                rows: u32::try_from(fenced_rows).unwrap_or(u32::MAX),
            },
        );

        // 5. Sweep, then re-analyze until the closure stops growing. A
        //    correctly-sized static surface converges in one round; the
        //    loop is the safety net for a user-narrowed surface that
        //    missed a table the attack reached.
        let mut undone: BTreeSet<i64> = BTreeSet::new();
        let mut current: BTreeSet<i64> = undo.clone();
        let mut outcome = CompensationOutcome::default();
        let mut extension_rounds = 0usize;
        let driver = NativeDriver::new(self.db.clone(), LinkProfile::local());
        let mut conn = driver.connect()?;
        loop {
            if !current.is_empty() {
                let _span = telemetry.span(span_names::REPAIR_COMPENSATE);
                let undo_internal = internal_map(&analysis, &current);
                let round = run_compensation(
                    &self.db,
                    conn.as_mut(),
                    &analysis.records,
                    &undo_internal,
                    self.adapter.address_column(),
                    &undone,
                )?;
                merge_outcome(&mut outcome, round);
                undone.extend(current.iter().copied());
            }

            analysis = self.analyze()?;
            undo = adjust(analysis.undo_set(&plan.initial, &self.options.rules));
            let fresh: BTreeSet<i64> = undo.difference(&undone).copied().collect();
            // Compensation deletes the undone transactions' tracking
            // rows, so this closure no longer reaches them: report it
            // together with what earlier rounds already swept.
            self.closure_computed(&plan.initial, undone.len() + fresh.len());
            if fresh.is_empty() {
                telemetry.repair_event(
                    0,
                    EventKind::SweepComplete {
                        rounds: u32::try_from(extension_rounds + 1).unwrap_or(u32::MAX),
                    },
                );
                break;
            }
            extension_rounds += 1;
            if extension_rounds > MAX_EXTENSION_ROUNDS {
                return Err(RepairError::Analysis(format!(
                    "live repair closure still growing after {MAX_EXTENSION_ROUNDS} extension rounds"
                )));
            }
            // Extend the fence over the new members' rows before they
            // are swept.
            let (new_whole, new_rows) = self.fence_rows(&analysis, &fresh)?;
            let mut added_rows = 0usize;
            whole.extend(new_whole);
            for (table, rf) in new_rows {
                if whole.contains(&table) {
                    continue;
                }
                let entry = rows.entry(table).or_insert_with(|| RowFence {
                    key_columns: rf.key_columns.clone(),
                    keys: Default::default(),
                });
                let before = entry.keys.len();
                entry.keys.extend(rf.keys);
                added_rows += entry.keys.len() - before;
            }
            fence.shrink(whole.clone(), rows.clone());
            telemetry.repair_event(
                0,
                EventKind::FenceExtended {
                    rows: u32::try_from(added_rows).unwrap_or(u32::MAX),
                },
            );
            current = fresh;
        }

        repair_fault(&self.db, failpoints::REPAIR_LIVE_BEFORE_LIFT)?;
        Ok(build_report(&analysis, undone, outcome))
    }

    /// Computes the row-level quarantine for `undo`'s log records:
    /// per-table primary-key sets in the canonical form the proxy fence
    /// matches client statements against. A table falls back to a whole
    /// fence when it has no primary key or a record's key cannot be
    /// recovered.
    fn fence_rows(
        &self,
        analysis: &Analysis,
        undo: &BTreeSet<i64>,
    ) -> Result<(BTreeSet<String>, HashMap<String, RowFence>), RepairError> {
        let mut whole: BTreeSet<String> = BTreeSet::new();
        let mut rows: HashMap<String, RowFence> = HashMap::new();
        // table → lower-cased primary-key column names (empty = no pk).
        let mut pk_cache: HashMap<String, Vec<String>> = HashMap::new();
        let addr_col = self.adapter.address_column().column_name();
        let driver = NativeDriver::new(self.db.clone(), LinkProfile::local());
        let mut conn = driver.connect()?;

        for rec in &analysis.records {
            let Some(proxy) = analysis.correlation.proxy_id(rec.internal_txn) else {
                continue;
            };
            if !undo.contains(&proxy)
                || rec.table.is_empty()
                || resildb_proxy::is_tracking_table(&rec.table)
            {
                continue;
            }
            let table = rec.table.to_lowercase();
            if whole.contains(&table) {
                continue;
            }
            let pk = match pk_cache.get(&table) {
                Some(pk) => pk.clone(),
                None => {
                    let handle = self.db.table(&rec.table).map_err(RepairError::Engine)?;
                    let guard = handle.read();
                    let schema = guard.schema();
                    let pk: Vec<String> = schema
                        .primary_key
                        .iter()
                        .map(|&i| schema.columns[i].name.to_lowercase())
                        .collect();
                    pk_cache.insert(table.clone(), pk.clone());
                    pk
                }
            };
            if pk.is_empty() {
                whole.insert(table.clone());
                rows.remove(&table);
                continue;
            }
            let key = match &rec.op {
                RepairOp::Insert { row, .. } | RepairOp::Delete { row, .. } => {
                    key_from_image(row, &pk)
                }
                RepairOp::Update {
                    address,
                    before,
                    after,
                } => match key_from_image(after, &pk).or_else(|| key_from_image(before, &pk)) {
                    Some(k) => Some(k),
                    None => {
                        match key_by_address(conn.as_mut(), &rec.table, addr_col, address, &pk)? {
                            Some(k) => Some(k),
                            // The row was deleted later in the log; when
                            // that delete is also being undone, its full
                            // image carries the key — this record is
                            // covered. Otherwise the key is gone: fall
                            // back to fencing the whole table.
                            None if deleted_later(analysis, undo, rec, address) => None,
                            None => Some(String::new()),
                        }
                    }
                },
                RepairOp::Commit | RepairOp::Abort => continue,
            };
            match key {
                Some(k) if !k.is_empty() => {
                    rows.entry(table)
                        .or_insert_with(|| RowFence {
                            key_columns: pk.clone(),
                            keys: Default::default(),
                        })
                        .keys
                        .insert(k);
                }
                Some(_) => {
                    // Empty marker: key unrecoverable — fence the table.
                    whole.insert(table.clone());
                    rows.remove(&table);
                }
                None => {} // covered by a later record
            }
        }
        Ok((whole, rows))
    }
}

/// Whether a later undo-set record deletes the row `rec` addresses (its
/// full delete image then contributes the fence key).
fn deleted_later(
    analysis: &Analysis,
    undo: &BTreeSet<i64>,
    rec: &RepairRecord,
    address: &RowAddress,
) -> bool {
    analysis.records.iter().any(|r| {
        r.lsn > rec.lsn
            && r.table.eq_ignore_ascii_case(&rec.table)
            && matches!(&r.op, RepairOp::Delete { address: a, .. } if a == address)
            && analysis
                .correlation
                .proxy_id(r.internal_txn)
                .is_some_and(|p| undo.contains(&p))
    })
}

/// Extracts a canonical composite fence key from a full row image.
fn key_from_image(image: &NamedRow, pk: &[String]) -> Option<String> {
    let parts: Vec<String> = pk
        .iter()
        .map(|col| image.get(col).and_then(canon_value))
        .collect::<Option<Vec<_>>>()?;
    Some(composite_key(&parts))
}

/// Recovers the fence key of an updated row from the live database via
/// its row address (update records carry changed columns only, which
/// rarely include the key). `Ok(None)` when the row no longer exists.
fn key_by_address(
    conn: &mut dyn Connection,
    table: &str,
    addr_col: &str,
    address: &RowAddress,
    pk: &[String],
) -> Result<Option<String>, RepairError> {
    let sql = format!(
        "SELECT {} FROM {table} WHERE {addr_col} = {}",
        pk.join(", "),
        address.literal()
    );
    match conn.execute(&sql)? {
        Response::Rows(r) => match r.rows.first() {
            Some(row) => {
                let parts: Option<Vec<String>> = row.iter().map(canon_value).collect();
                Ok(parts.map(|p| composite_key(&p)))
            }
            None => Ok(None),
        },
        other => Err(RepairError::Analysis(format!(
            "fence key lookup produced {other:?}: {sql}"
        ))),
    }
}

/// Maps a proxy-level undo set to internal transaction ids.
fn internal_map(
    analysis: &Analysis,
    undo_set: &BTreeSet<i64>,
) -> HashMap<resildb_engine::InternalTxnId, i64> {
    let mut undo_internal = HashMap::new();
    for &proxy in undo_set {
        if let Some(internal) = analysis.correlation.internal_id(proxy) {
            undo_internal.insert(internal, proxy);
        }
    }
    undo_internal
}

fn build_report(
    analysis: &Analysis,
    undo_set: BTreeSet<i64>,
    outcome: CompensationOutcome,
) -> RepairReport {
    let tracked = analysis.tracked_transactions();
    let rolled_back = tracked.intersection(&undo_set).count();
    RepairReport {
        undo_set,
        tracked_total: tracked.len(),
        saved: tracked.len() - rolled_back,
        outcome,
    }
}

fn merge_outcome(total: &mut CompensationOutcome, round: CompensationOutcome) {
    total.statements.extend(round.statements);
    total.rows_deleted += round.rows_deleted;
    total.rows_reinserted += round.rows_reinserted;
    total.rows_restored += round.rows_restored;
}
