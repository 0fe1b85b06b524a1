//! Relational DBMS substrate for the resildb intrusion-resilience
//! framework.
//!
//! The DSN 2004 paper layers its tracking proxy and repair tool on top of
//! three commercial DBMSs (PostgreSQL, Oracle, Sybase ASE). This crate is
//! the substitute substrate: a single embedded relational engine whose
//! [`Flavor`] parameter reproduces the *differences that mattered to the
//! paper* —
//!
//! * the shape of logged UPDATE records (full before/after images vs.
//!   Sybase's modified-attributes-only `MODIFY` records),
//! * row addressability from SQL (`ctid`/`rowid` pseudo-columns vs. none),
//! * the log-introspection interface ([`introspect::logminer`],
//!   [`introspect::waldump`], [`introspect::dbcc_log`] +
//!   [`introspect::dbcc_page`]),
//! * the physical page behaviour the Sybase repair algorithm depends on
//!   (in-page row migration on delete, no cross-page migration).
//!
//! Everything else — SQL execution, strict-2PL row locking with deadlock
//! detection, per-row write-ahead logging, redo crash recovery — is shared,
//! exactly as the paper's portable framework assumes.
//!
//! Performance costs (page I/O, log appends and forces, CPU, network) are
//! charged to a [`resildb_sim::SimContext`] virtual clock so benchmarks are
//! deterministic.
//!
//! # Examples
//!
//! ```
//! use resildb_engine::{Database, Flavor, Value};
//!
//! # fn main() -> Result<(), resildb_engine::EngineError> {
//! let db = Database::in_memory(Flavor::Oracle);
//! let mut s = db.session();
//! s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(8))")?;
//! s.execute_sql("BEGIN")?;
//! s.execute_sql("INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b')")?;
//! s.execute_sql("UPDATE t SET v = 'z' WHERE id = 2")?;
//! s.execute_sql("COMMIT")?;
//! let r = s.query("SELECT v FROM t ORDER BY id DESC")?;
//! assert_eq!(r.rows[0][0], Value::from("z"));
//! // Oracle-flavor log introspection produces redo/undo SQL:
//! let miner = resildb_engine::introspect::logminer(&db)?;
//! assert!(miner.iter().any(|m| m.operation == "UPDATE"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod catalog;
mod db;
#[cfg(test)]
mod differential_tests;
mod error;
mod exec;
mod expr;
mod flavor;
mod group_commit;
mod lock;
mod page;
mod row;
mod schema;
mod table;
mod value;
mod wal;

pub mod introspect;
pub mod wal_codec;

pub use catalog::{Catalog, TableHandle};
pub use db::{Database, PreparedStatement, Session, StmtCacheStats};
pub use error::{EngineError, Result};
pub use exec::{ExecOutcome, QueryResult, UndoAction};
pub use expr::like_match;
pub use flavor::Flavor;
pub use lock::{LockManager, ResourceId};
pub use page::{Page, Slot, PAGE_SIZE};
pub use row::{decode_row, decode_value, encode_row, encode_value, Row, RowId};
pub use schema::{Column, TableSchema};
pub use table::{RowLocation, Table};
pub use value::{DataType, Value};
pub use wal::{InternalTxnId, LogOp, LogRecord, Lsn, Wal};
