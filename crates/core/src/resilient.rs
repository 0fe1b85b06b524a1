//! The [`ResilientDb`] facade and its builder.

use std::sync::Arc;

use resildb_engine::{Database, Flavor, Value};
use resildb_proxy::{
    prepare_database, ProxyConfig, ProxyRuntime, TrackingGranularity, TrackingProxy,
};
use resildb_repair::{
    Analysis, FalseDepRule, RepairController, RepairError, RepairOptions, RepairReport,
};
use resildb_sim::{CostModel, MetricsSnapshot, SimContext, Telemetry};
use resildb_wire::{
    dual_proxy, single_proxy, Connection, Driver, LinkProfile, NativeDriver, WireError,
};

/// Where the tracking proxy sits (paper Figures 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProxyPlacement {
    /// Client-side single proxy (Figure 1): every statement — including
    /// the tracker's extra ones — crosses the client↔server link.
    #[default]
    Single,
    /// Client + server proxy pair (Figure 2): the tracker and its extra
    /// statements run on the server side over a local link.
    Dual,
}

/// Builder for [`ResilientDb`].
///
/// # Examples
///
/// ```
/// use resildb_core::{Flavor, LinkProfile, ProxyPlacement, ResilientDb};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rdb = ResilientDb::builder(Flavor::Sybase)
///     .client_link(LinkProfile::lan())
///     .placement(ProxyPlacement::Dual)
///     .build()?;
/// assert_eq!(rdb.database().flavor(), Flavor::Sybase);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ResilientDbBuilder {
    flavor: Flavor,
    link: LinkProfile,
    placement: ProxyPlacement,
    granularity: TrackingGranularity,
}

impl ResilientDbBuilder {
    fn new(flavor: Flavor) -> Self {
        Self {
            flavor,
            link: LinkProfile::local(),
            placement: ProxyPlacement::Single,
            granularity: TrackingGranularity::Row,
        }
    }

    /// Sets the client↔server link profile.
    pub fn client_link(mut self, link: LinkProfile) -> Self {
        self.link = link;
        self
    }

    /// Chooses the proxy deployment architecture.
    pub fn placement(mut self, placement: ProxyPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Selects row-level (paper) or column-level (§6 extension)
    /// dependency tracking.
    pub fn granularity(mut self, granularity: TrackingGranularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Creates the database, installs the tracking tables and builds the
    /// proxy driver.
    ///
    /// # Errors
    ///
    /// Setup SQL failures.
    pub fn build(self) -> Result<ResilientDb, WireError> {
        // The facade owns the full stack, so it turns telemetry on: one
        // recording domain shared by engine, wire, proxy and repair spans.
        let telemetry = Telemetry::recording();
        // The flight recorder starts disabled even on recording domains;
        // the facade turns it on so every instance gets a forensic event
        // window for free (one relaxed atomic + a ring slot per event).
        telemetry.flight().set_enabled(true);
        // Functional use: no simulated costs, unbounded buffer pool.
        let sim = SimContext::with_telemetry(CostModel::free(), usize::MAX, telemetry.clone());
        let db = Database::new("resildb", self.flavor, sim);
        let native = NativeDriver::new(db.clone(), LinkProfile::local());
        prepare_database(&mut *native.connect()?)?;
        let config = ProxyConfig::builder(self.flavor)
            .granularity(self.granularity)
            .telemetry(telemetry.clone())
            .build();
        let (factory, runtime) = TrackingProxy::new(config, db.sim().clone());
        let driver: Box<dyn Driver> = match self.placement {
            ProxyPlacement::Single => Box::new(single_proxy(db.clone(), self.link, factory)),
            ProxyPlacement::Dual => Box::new(dual_proxy(db.clone(), self.link, factory)),
        };
        Ok(ResilientDb {
            db,
            driver,
            telemetry,
            runtime,
        })
    }
}

/// An intrusion-resilient database: an emulated DBMS with the tracking
/// proxy in front and the repair tool attached.
pub struct ResilientDb {
    db: Database,
    driver: Box<dyn Driver>,
    telemetry: Telemetry,
    runtime: Arc<ProxyRuntime>,
}

impl std::fmt::Debug for ResilientDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientDb")
            .field("flavor", &self.db.flavor())
            .finish_non_exhaustive()
    }
}

impl ResilientDb {
    /// Starts a builder for `flavor`.
    pub fn builder(flavor: Flavor) -> ResilientDbBuilder {
        ResilientDbBuilder::new(flavor)
    }

    /// A cost-free single-proxy instance of `flavor` — the common case for
    /// functional use and examples.
    ///
    /// # Errors
    ///
    /// Setup SQL failures.
    pub fn new(flavor: Flavor) -> Result<Self, WireError> {
        Self::builder(flavor).build()
    }

    /// Opens a **tracked** connection (through the proxy).
    ///
    /// # Errors
    ///
    /// Driver failures.
    pub fn connect(&self) -> Result<Box<dyn Connection>, WireError> {
        self.driver.connect()
    }

    /// Opens a raw, untracked connection — what an attacker bypassing the
    /// client proxy would get (see the paper's Figure 2 discussion), and
    /// what administrative tooling uses.
    ///
    /// # Errors
    ///
    /// Driver failures.
    pub fn connect_untracked(&self) -> Result<Box<dyn Connection>, WireError> {
        NativeDriver::new(self.db.clone(), LinkProfile::local()).connect()
    }

    /// The underlying database handle.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The telemetry domain every layer of this instance records into.
    /// Recording is on by default; disable it with
    /// [`Telemetry::set_enabled`] to measure the instrumentation-free
    /// fast path.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// One metrics snapshot covering all four layers: proxy (rewrite
    /// cache, enforcement), engine (statement cache, commits, span
    /// histograms), simulation substrate (buffer pool, WAL, link), and
    /// repair (phase histograms). Render it with
    /// [`resildb_sim::telemetry::to_prometheus`] or
    /// [`resildb_sim::telemetry::export::to_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.db.metrics();
        self.runtime.fold_metrics(&mut snap);
        snap
    }

    /// The flight recorder every layer of this instance emits trace
    /// events into: transaction lifecycles, statement rewrites, harvested
    /// dependencies, WAL commits, fault hits and repair phases. Enabled
    /// by [`ResilientDbBuilder::build`]; snapshot it and render with
    /// [`resildb_sim::telemetry::trace::to_jsonl`] or
    /// [`resildb_sim::telemetry::trace::to_chrome_trace`], then explore
    /// the capture with `resildb-trace`.
    pub fn flight_recorder(&self) -> &resildb_sim::FlightRecorder {
        self.telemetry.flight()
    }

    /// A quiesced-mode repair controller for this database.
    pub fn repair_controller(&self) -> RepairController {
        RepairController::new(self.db.clone())
    }

    /// A repair controller with explicit [`RepairOptions`] (e.g.
    /// [`Self::live_repair_options`] for online repair).
    pub fn repair_controller_with(&self, options: RepairOptions) -> RepairController {
        RepairController::with_options(self.db.clone(), options)
    }

    /// Live-repair options wired to this instance's proxy runtime, whose
    /// connections reject what the repair's fence blocks; refine with the
    /// [`RepairOptions`] builder methods before passing to
    /// [`Self::repair_controller_with`].
    pub fn live_repair_options(&self) -> RepairOptions {
        RepairOptions::live(self.runtime.clone())
    }

    /// The proxy control surface (containment fence, transaction-id
    /// watermark, in-flight drain predicate) live repair drives.
    pub fn proxy_runtime(&self) -> &Arc<ProxyRuntime> {
        &self.runtime
    }

    /// Runs the analysis phase (log scan + dependency graph).
    ///
    /// # Errors
    ///
    /// See [`RepairController::analyze`].
    pub fn analyze(&self) -> Result<Analysis, RepairError> {
        self.repair_controller().analyze()
    }

    /// Full quiesced repair from an initial attack set under `rules`.
    ///
    /// # Errors
    ///
    /// See [`RepairController::repair`].
    pub fn repair(
        &self,
        initial: &[i64],
        rules: &[FalseDepRule],
    ) -> Result<RepairReport, RepairError> {
        RepairController::with_options(
            self.db.clone(),
            RepairOptions::quiesced().rules(rules.iter().cloned()),
        )
        .repair(initial)
    }

    /// Persists the database (data, tracking tables, full log) to `w`;
    /// see [`Database::save_wal`].
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn save_wal<W: std::io::Write>(&self, w: W) -> Result<(), resildb_engine::EngineError> {
        self.db.save_wal(w)
    }

    /// Looks up a proxy transaction id by its `ANNOTATE` label.
    ///
    /// # Errors
    ///
    /// Query failures.
    pub fn txn_id_by_label(&self, label: &str) -> Result<Option<i64>, WireError> {
        let mut s = self.db.session();
        let r = s
            .query(&format!(
                "SELECT tr_id FROM annot WHERE descr = '{}'",
                label.replace('\'', "''")
            ))
            .map_err(WireError::Db)?;
        Ok(match r.rows.first().map(|row| row[0].clone()) {
            Some(Value::Int(v)) => Some(v),
            _ => None,
        })
    }
}
