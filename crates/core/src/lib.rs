//! # resildb — a portable intrusion-resilience framework for DBMSs
//!
//! A Rust reproduction of *“A Portable Implementation Framework for
//! Intrusion-Resilient Database Management Systems”* (Smirnov & Chiueh,
//! DSN 2004). An intrusion-resilient DBMS can quickly repair the damage a
//! malicious or erroneous transaction caused **after** it committed, while
//! preserving the legitimate transactions that ran in between:
//!
//! * at run time, a SQL-rewriting proxy tracks inter-transaction
//!   dependencies without touching DBMS internals
//!   ([`resildb_proxy`]);
//! * at repair time, the transaction log is analyzed, the damage closure
//!   is computed (with DBA-guided false-dependency filtering), and exactly
//!   the corrupted transactions are rolled back with compensating
//!   statements ([`resildb_repair`]).
//!
//! This crate is the facade: [`ResilientDb`] wires an emulated DBMS
//! ([`resildb_engine`], with PostgreSQL/Oracle/Sybase-like [`Flavor`]s),
//! the proxy deployment of your choice and the repair tool together. Every
//! way of executing SQL — raw engine session, untracked native connection,
//! tracked proxy connection — implements the unified [`Session`] trait,
//! fails with the unified [`enum@Error`], and reports into one telemetry
//! domain surfaced by [`ResilientDb::metrics`].
//!
//! # Quickstart
//!
//! ```
//! use resildb_core::{Error, Flavor, ResilientDb};
//!
//! # fn main() -> Result<(), Error> {
//! let rdb = ResilientDb::new(Flavor::Postgres)?;
//! let mut conn = rdb.connect()?;
//! conn.execute("CREATE TABLE account (id INTEGER PRIMARY KEY, balance FLOAT)")?;
//! conn.execute("INSERT INTO account (id, balance) VALUES (1, 100.0), (2, 50.0)")?;
//!
//! // The attack: an already-committed malicious update.
//! conn.execute("ANNOTATE attack")?;
//! conn.execute("BEGIN")?;
//! conn.execute("UPDATE account SET balance = 1000000.0 WHERE id = 1")?;
//! conn.execute("COMMIT")?;
//!
//! // Later activity that never touches the poisoned row survives repair.
//! conn.execute("UPDATE account SET balance = balance + 1.0 WHERE id = 2")?;
//!
//! let attack = rdb.txn_id_by_label("attack")?.expect("attack tracked");
//! let report = rdb.repair(&[attack], &[])?;
//! assert!(report.undo_set.contains(&attack));
//!
//! let mut s = rdb.database().session();
//! let r = s.query("SELECT balance FROM account ORDER BY id")?;
//! assert_eq!(r.rows[0][0], resildb_core::Value::Float(100.0)); // attack undone
//! assert_eq!(r.rows[1][0], resildb_core::Value::Float(51.0));  // survivor kept
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod error;
mod resilient;
mod session;

pub use error::{Error, ErrorKind};
pub use resilient::{ProxyPlacement, ResilientDb, ResilientDbBuilder};
pub use session::Session;

// The framework's building blocks, re-exported for downstream users.
pub use resildb_analyze::{
    infer_derivable_columns, Analyzer, CoverageReport, DerivableColumn, SchemaSnapshot, Verdict,
};
pub use resildb_engine::{
    Database, EngineError, ExecOutcome, Flavor, PreparedStatement, QueryResult,
    Session as EngineSession, StmtCacheStats, Value,
};
pub use resildb_proxy::{
    prepare_database, EnforcementPolicy, Fence, FenceStats, ProxyConfig, ProxyConfigBuilder,
    ProxyRuntime, TrackerStats, TrackerStatsSnapshot, TrackingGranularity, TrackingProxy,
    TRACKING_TABLES,
};
pub use resildb_repair::adapters::adapter_for;
pub use resildb_repair::{
    detect, Analysis, AnomalyRule, DepGraph, Detection, FalseDepRule, RepairController,
    RepairError, RepairMode, RepairOptions, RepairPlan, RepairReport, TraceExplorer, WhatIfSession,
};
pub use resildb_sim::{
    failpoints, telemetry, CostModel, EventKind, FaultAction, FaultPlan, FaultTrigger,
    FlightRecorder, HistogramSnapshot, IncidentDecomposition, IncidentMark, IncidentPhase,
    IncidentProgress, IncidentRecord, IncidentTimeline, InjectedFault, MetricsServer,
    MetricsSnapshot, Micros, ServerRoutes, SimContext, Telemetry, TraceEvent, TraceSnapshot,
    TraceVerdict,
};
pub use resildb_sql::{parse_statement, Literal, Statement};
pub use resildb_wire::{
    Connection, Driver, LinkProfile, NativeDriver, Response, StatementHandle, WireError,
};
