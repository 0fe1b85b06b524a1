//! Per-flavor transaction-log introspection interfaces.
//!
//! This is where the paper's portability story gets concrete (§4): the
//! *tracking* side is identical across DBMSs, but every DBMS exposes its
//! transaction log differently, so each flavor gets its own adapter:
//!
//! * [`logminer`] — Oracle's `v$logmnr_contents` view: one row per log
//!   record, carrying ready-made `sql_redo`/`sql_undo` statements (§4.1);
//! * [`waldump`] — a reverse-engineered reader for the PostgreSQL WAL,
//!   exposing full before/after row images (§4.2);
//! * [`dbcc_log`]/[`dbcc_page`] — Sybase's `dbcc log` output, where
//!   `MODIFY` records carry only the changed attributes in raw binary, and
//!   the `dbcc page` command needed to recover full row contents (§4.3).
//!
//! Every reader walks the log where it lies ([`Database::read_wal`]) and
//! interprets a row image with the schema its table had at that LSN
//! ([`SchemaHistory`]), never with the live catalog's table of the same
//! name, which may be a later incarnation.
//!
//! Calling an adapter on the wrong flavor is an error — that mismatch is
//! exactly what forces real repair tools to be partly database-specific.

use std::collections::HashMap;

use crate::db::Database;
use crate::error::{EngineError, Result};
use crate::flavor::Flavor;
use crate::row::{encode_row, encode_value, Row, RowId};
use crate::schema::TableSchema;
use crate::table::RowLocation;
use crate::value::Value;
use crate::wal::{InternalTxnId, LogOp, LogRecord, Lsn};

/// Each table's schemas over the log, folded from the log's own
/// `CreateTable`/`DropTable` records — the log is self-describing, which is
/// how recovery rebuilds the catalog. A reader names or encodes a row image
/// with the schema in effect at the image's LSN.
#[derive(Debug, Clone, Default)]
pub struct SchemaHistory {
    /// table → `(lsn, schema)` in LSN order; `None` marks a drop.
    tables: HashMap<String, Vec<(Lsn, Option<TableSchema>)>>,
}

impl SchemaHistory {
    /// The history of the whole current log.
    pub fn of(db: &Database) -> Self {
        db.read_wal(|log| {
            let mut history = Self::default();
            log.iter().for_each(|rec| history.fold(rec));
            history
        })
    }

    /// Folds one record into the history (a no-op unless it is DDL).
    pub fn fold(&mut self, rec: &LogRecord) {
        let (name, schema) = match &rec.op {
            LogOp::CreateTable { schema } => (&schema.name, Some(schema.clone())),
            LogOp::DropTable { name } => (name, None),
            _ => return,
        };
        self.tables
            .entry(name.clone())
            .or_default()
            .push((rec.lsn, schema));
    }

    fn versions(&self, table: &str) -> &[(Lsn, Option<TableSchema>)] {
        self.tables.get(table).map_or(&[], Vec::as_slice)
    }

    /// The schema `table` had at `lsn`.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTable`] naming the table and LSN when no
    /// table of that name existed there.
    pub fn at(&self, table: &str, lsn: Lsn) -> Result<&TableSchema> {
        let versions = self.versions(table);
        let upto = versions.partition_point(|(at, _)| *at <= lsn);
        versions[..upto]
            .last()
            .and_then(|(_, schema)| schema.as_ref())
            .ok_or_else(|| EngineError::UnknownTable(format!("{table} at lsn {}", lsn.0)))
    }

    /// The LSN of the first DDL on `table` after `lsn`: where the
    /// incarnation a record at `lsn` belongs to ends (`None`: it is live).
    pub fn next_change(&self, table: &str, lsn: Lsn) -> Option<Lsn> {
        let versions = self.versions(table);
        let after = versions.partition_point(|(at, _)| *at <= lsn);
        versions.get(after).map(|(at, _)| *at)
    }
}

fn require_flavor(db: &Database, flavor: Flavor, what: &str) -> Result<()> {
    if db.flavor() == flavor {
        return Ok(());
    }
    Err(EngineError::Unsupported(format!(
        "{what}, database is {}",
        db.flavor()
    )))
}

/// One row of the Oracle-flavor `v$logmnr_contents` emulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LogMinerRow {
    /// System change number (our LSN).
    pub scn: Lsn,
    /// Internal transaction id (`XID`).
    pub xid: InternalTxnId,
    /// Operation name: `INSERT`, `DELETE`, `UPDATE`, `COMMIT`, `ROLLBACK`,
    /// `DDL`.
    pub operation: String,
    /// Affected table, when applicable.
    pub table_name: Option<String>,
    /// Row id the operation addressed.
    pub row_id: Option<RowId>,
    /// SQL that re-applies the change.
    pub sql_redo: Option<String>,
    /// SQL that reverses the change.
    pub sql_undo: Option<String>,
}

/// Builds the LogMiner view of the whole log.
///
/// # Errors
///
/// [`EngineError::Unsupported`] unless `db` is the Oracle flavor;
/// [`EngineError::UnknownTable`] for a row record whose table the log
/// never created.
pub fn logminer(db: &Database) -> Result<Vec<LogMinerRow>> {
    require_flavor(db, Flavor::Oracle, "LogMiner is an Oracle interface")?;
    db.read_wal(|log| {
        let mut schemas = SchemaHistory::default();
        let mut out = Vec::with_capacity(log.len());
        for rec in log {
            schemas.fold(rec);
            let (operation, row_id, sql_redo, sql_undo) = match &rec.op {
                LogOp::Insert {
                    table, rowid, row, ..
                } => (
                    "INSERT",
                    Some(*rowid),
                    Some(insert_sql(table, schemas.at(table, rec.lsn)?, row)),
                    Some(delete_sql(table, *rowid)),
                ),
                LogOp::Delete {
                    table, rowid, row, ..
                } => (
                    "DELETE",
                    Some(*rowid),
                    Some(delete_sql(table, *rowid)),
                    Some(insert_sql(table, schemas.at(table, rec.lsn)?, row)),
                ),
                LogOp::Update {
                    table,
                    rowid,
                    before,
                    after,
                    changed,
                    ..
                } => {
                    let schema = schemas.at(table, rec.lsn)?;
                    (
                        "UPDATE",
                        Some(*rowid),
                        Some(update_sql(table, schema, changed, after, *rowid)),
                        Some(update_sql(table, schema, changed, before, *rowid)),
                    )
                }
                LogOp::Commit => ("COMMIT", None, Some("COMMIT".into()), None),
                LogOp::Abort => ("ROLLBACK", None, Some("ROLLBACK".into()), None),
                LogOp::CreateTable { .. } | LogOp::DropTable { .. } => ("DDL", None, None, None),
            };
            out.push(LogMinerRow {
                scn: rec.lsn,
                xid: rec.txn,
                operation: operation.into(),
                table_name: rec.op.table().map(str::to_string),
                row_id,
                sql_redo,
                sql_undo,
            });
        }
        Ok(out)
    })
}

fn insert_sql(table: &str, schema: &TableSchema, row: &Row) -> String {
    let cols: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
    let vals: Vec<String> = row.values().iter().map(Value::to_sql_literal).collect();
    format!(
        "INSERT INTO {table} ({}) VALUES ({})",
        cols.join(", "),
        vals.join(", ")
    )
}

fn delete_sql(table: &str, rowid: RowId) -> String {
    format!("DELETE FROM {table} WHERE rowid = {}", rowid.0)
}

fn update_sql(
    table: &str,
    schema: &TableSchema,
    changed: &[usize],
    image: &Row,
    rowid: RowId,
) -> String {
    let sets: Vec<String> = changed
        .iter()
        .map(|&i| {
            let value = image.values()[i].to_sql_literal();
            format!("{} = {value}", schema.columns[i].name)
        })
        .collect();
    format!(
        "UPDATE {table} SET {} WHERE rowid = {}",
        sets.join(", "),
        rowid.0
    )
}

/// One record of the PostgreSQL-flavor WAL reader (the paper implemented
/// this as a reverse-engineered plugin; PostgreSQL logs complete before and
/// after images for each row operation), borrowed from the log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalDumpRecord<'a> {
    /// Log position.
    pub lsn: Lsn,
    /// Internal transaction id.
    pub txn: InternalTxnId,
    /// `INSERT` / `DELETE` / `UPDATE` / `COMMIT` / `ABORT` / `DDL`.
    pub op_name: &'static str,
    /// Affected table.
    pub table: Option<&'a str>,
    /// Affected row id (the `ctid` analogue).
    pub rowid: Option<RowId>,
    /// Full before-image (DELETE, UPDATE).
    pub before: Option<&'a Row>,
    /// Full after-image (INSERT, UPDATE).
    pub after: Option<&'a Row>,
    /// Physical location of the change.
    pub loc: Option<RowLocation>,
    /// The created table's schema (the `DDL` record of a CREATE TABLE:
    /// the WAL logs catalog changes like any other write).
    pub schema: Option<&'a TableSchema>,
}

/// Reads the PostgreSQL-flavor WAL, handing every record to `visit` in
/// LSN order, under the WAL lock; the first error `visit` returns stops
/// the read and is returned.
///
/// # Errors
///
/// [`EngineError::Unsupported`] unless `db` is the Postgres flavor, or
/// what `visit` returns.
pub fn waldump(
    db: &Database,
    mut visit: impl FnMut(WalDumpRecord<'_>) -> Result<()>,
) -> Result<()> {
    require_flavor(db, Flavor::Postgres, "waldump reads the PostgreSQL WAL")?;
    db.read_wal(|log| {
        for rec in log {
            let (op_name, rowid, before, after, loc) = match &rec.op {
                LogOp::Insert {
                    rowid, row, loc, ..
                } => ("INSERT", Some(*rowid), None, Some(row), Some(*loc)),
                LogOp::Delete {
                    rowid, row, loc, ..
                } => ("DELETE", Some(*rowid), Some(row), None, Some(*loc)),
                LogOp::Update {
                    rowid,
                    before,
                    after,
                    loc,
                    ..
                } => (
                    "UPDATE",
                    Some(*rowid),
                    Some(before),
                    Some(after),
                    Some(*loc),
                ),
                LogOp::Commit => ("COMMIT", None, None, None, None),
                LogOp::Abort => ("ABORT", None, None, None, None),
                LogOp::CreateTable { .. } | LogOp::DropTable { .. } => {
                    ("DDL", None, None, None, None)
                }
            };
            visit(WalDumpRecord {
                lsn: rec.lsn,
                txn: rec.txn,
                op_name,
                table: rec.op.table(),
                rowid,
                before,
                after,
                loc,
                schema: match &rec.op {
                    LogOp::CreateTable { schema } => Some(schema),
                    _ => None,
                },
            })?;
        }
        Ok(())
    })
}

/// Operation kind in a `dbcc log` record (Sybase names updates `MODIFY`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbccOp {
    /// Row insert — `bytes` holds the complete row image.
    Insert,
    /// Row delete — `bytes` holds the complete pre-delete image.
    Delete,
    /// In-place update — `bytes` holds only the modified attributes in the
    /// delta encoding described on [`dbcc_log`].
    Modify,
    /// `ENDXACT` commit marker.
    Commit,
    /// `ENDXACT` abort marker.
    Abort,
}

/// One record of the Sybase-flavor `dbcc log` output.
#[derive(Debug, Clone, PartialEq)]
pub struct DbccLogRecord {
    /// Log position.
    pub lsn: Lsn,
    /// Internal transaction id.
    pub txn: InternalTxnId,
    /// Operation kind.
    pub op: DbccOp,
    /// Affected table (empty for commit/abort markers).
    pub table: String,
    /// Page number of the change.
    pub page: u64,
    /// Byte offset within the page *at operation time*.
    pub offset: usize,
    /// Length of the affected row image.
    pub len: usize,
    /// Raw binary payload (see [`dbcc_log`]).
    pub bytes: Vec<u8>,
}

/// Reads the Sybase-flavor transaction log the way `dbcc log` exposes it.
///
/// INSERT/DELETE records carry the complete row image (as stored on the
/// page). `MODIFY` records carry **only the modified attributes**, encoded
/// as a sequence of `[col_index: u16 LE][before value][after value]` groups
/// where each value uses the tagged fixed-width encoding of
/// [`crate::row::encode_value`]. Notably the row-id/identity attribute is
/// absent from MODIFY records unless it was itself modified — reproducing
/// the problem §4.3 of the paper solves with `dbcc page` and offset
/// adjustment. Images are encoded with the schema of their LSN
/// ([`SchemaHistory::at`]).
///
/// # Errors
///
/// [`EngineError::Unsupported`] unless `db` is the Sybase flavor;
/// [`EngineError::UnknownTable`] for a row record whose table the log
/// never created.
pub fn dbcc_log(db: &Database) -> Result<Vec<DbccLogRecord>> {
    require_flavor(db, Flavor::Sybase, "dbcc log is a Sybase interface")?;
    db.read_wal(|log| {
        let mut schemas = SchemaHistory::default();
        let mut out = Vec::with_capacity(log.len());
        for rec in log {
            schemas.fold(rec);
            let (op, table, loc, bytes) = match &rec.op {
                LogOp::Insert {
                    table, row, loc, ..
                } => {
                    let bytes = encode_row(schemas.at(table, rec.lsn)?, row)?;
                    (DbccOp::Insert, table.as_str(), *loc, bytes)
                }
                LogOp::Delete {
                    table, row, loc, ..
                } => {
                    let bytes = encode_row(schemas.at(table, rec.lsn)?, row)?;
                    (DbccOp::Delete, table.as_str(), *loc, bytes)
                }
                LogOp::Update {
                    table,
                    before,
                    after,
                    changed,
                    loc,
                    ..
                } => {
                    let schema = schemas.at(table, rec.lsn)?;
                    let mut bytes = Vec::new();
                    for &i in changed {
                        bytes.extend_from_slice(&(i as u16).to_le_bytes());
                        encode_value(&mut bytes, schema.columns[i].ty, &before.values()[i])?;
                        encode_value(&mut bytes, schema.columns[i].ty, &after.values()[i])?;
                    }
                    (DbccOp::Modify, table.as_str(), *loc, bytes)
                }
                LogOp::Commit => (DbccOp::Commit, "", RowLocation::default(), Vec::new()),
                LogOp::Abort => (DbccOp::Abort, "", RowLocation::default(), Vec::new()),
                // dbcc log does not render DDL records usefully; skip them.
                LogOp::CreateTable { .. } | LogOp::DropTable { .. } => continue,
            };
            out.push(DbccLogRecord {
                lsn: rec.lsn,
                txn: rec.txn,
                op,
                table: table.to_string(),
                page: loc.page,
                offset: loc.offset,
                len: loc.len,
                bytes,
            });
        }
        Ok(out)
    })
}

/// Reads `len` raw bytes at `offset` of `page` in `table` — the `dbcc page`
/// primitive the §4.3 algorithm uses to recover full row contents.
///
/// # Errors
///
/// [`EngineError::Unsupported`] on non-Sybase flavors, unknown table, or an
/// out-of-bounds range (`EngineError::Internal`).
pub fn dbcc_page(
    db: &Database,
    table: &str,
    page: u64,
    offset: usize,
    len: usize,
) -> Result<Vec<u8>> {
    require_flavor(db, Flavor::Sybase, "dbcc page is a Sybase interface")?;
    let handle = db.table(table)?;
    let guard = handle.read();
    guard
        .read_page_bytes(page, offset, len)
        .map(<[u8]>::to_vec)
        .ok_or_else(|| {
            EngineError::Internal(format!(
                "dbcc page: range {offset}+{len} out of bounds on {table} page {page}"
            ))
        })
}
