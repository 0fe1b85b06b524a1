//! Inter-transaction dependency tracking by SQL interception and rewriting
//! — the run-time half of the DSN 2004 intrusion-resilience framework.
//!
//! The tracker is completely DBMS-independent: it understands only SQL
//! text, which is why the paper could port it unchanged across PostgreSQL,
//! Oracle and Sybase. The mechanism (paper §3.2 and Table 1):
//!
//! * every user table transparently gains a `trid INTEGER` column holding
//!   the proxy transaction id of the last writer ([`rewrite_create_table`]
//!   also injects a Sybase identity column where the flavor lacks a row-id
//!   pseudo-column);
//! * `SELECT`s are rewritten to additionally return each table's `trid`;
//!   the proxy harvests those values as the reading transaction's
//!   dependencies and strips them from the client-visible result;
//! * `UPDATE`/`INSERT` set `trid = curTrID`; `DELETE` passes through
//!   (update/delete-induced dependencies are reconstructed from the
//!   transaction log at repair time — an explicit run-time optimisation);
//! * at `COMMIT`, the dependency set is inserted into the `trans_dep`
//!   table (plus a symbolic name into `annot` and column-level provenance
//!   into `trans_dep_prov`), and only then is the commit forwarded, making
//!   the dependency record atomic with the transaction.
//!
//! # Examples
//!
//! ```
//! use resildb_engine::{Database, Flavor};
//! use resildb_proxy::{prepare_database, ProxyConfig, TrackingProxy};
//! use resildb_wire::{Connection, Driver, LinkProfile, NativeDriver};
//!
//! # fn main() -> Result<(), resildb_wire::WireError> {
//! let db = Database::in_memory(Flavor::Postgres);
//! let native = NativeDriver::new(db.clone(), LinkProfile::local());
//! prepare_database(&mut *native.connect()?)?;
//!
//! let driver = TrackingProxy::single_proxy(db.clone(), LinkProfile::local(),
//!     ProxyConfig::new(Flavor::Postgres));
//! let mut conn = driver.connect()?;
//! conn.execute("CREATE TABLE t (a INTEGER)")?; // gains a hidden trid column
//! conn.execute("BEGIN")?;
//! conn.execute("INSERT INTO t (a) VALUES (1)")?;
//! conn.execute("COMMIT")?;
//! // The dependency record is now in trans_dep:
//! assert_eq!(db.row_count("trans_dep").unwrap(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod cache;
mod config;
mod depstore;
mod fence;
mod rewrite;
mod setup;
mod tracker;

pub use cache::RewriteCacheStats;
pub use config::{EnforcementPolicy, ProxyConfig, ProxyConfigBuilder, TrackingGranularity};
pub use fence::{canon_value, composite_key, Fence, FenceDecision, FenceStats, RowFence};
pub use rewrite::{
    is_tracking_column, rewrite_create_table, rewrite_insert, rewrite_select, rewrite_update,
    HarvestSource, SelectOutcome, SelectRewrite, SelectSkip, COLUMN_TRID_PREFIX, IDENTITY_COLUMN,
    TRID_COLUMN,
};
pub use setup::{
    is_tracking_table, prepare_database, ANNOT_TABLE, PROV_TABLE, TRACKING_TABLES, TRANS_DEP_TABLE,
};
pub use tracker::{ProxyRuntime, ProxyTxnId, TrackerStats, TrackerStatsSnapshot, TrackingProxy};
