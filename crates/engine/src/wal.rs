//! Write-ahead log with per-row records.
//!
//! Modern DBMSs log row operations individually — one record per affected
//! row, each carrying the operation type, the internal transaction id, the
//! affected table and the physical position (page + offset) of the change
//! (paper §3.3). This module reproduces that model. What *subset* of each
//! record a repair tool can actually see is flavor-specific and exposed via
//! [`crate::introspect`].

use resildb_sim::{failpoints, SimContext};

use crate::error::{EngineError, Result};
use crate::flavor::Flavor;
use crate::row::{Row, RowId};
use crate::schema::TableSchema;
use crate::table::RowLocation;

/// Log sequence number: position of a record in the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsn(pub u64);

/// Engine-internal transaction id. Distinct from the *proxy* transaction id
/// the tracking layer generates; correlating the two at repair time is part
/// of the paper's §3.3 mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InternalTxnId(pub u64);

impl std::fmt::Display for InternalTxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "itx:{}", self.0)
    }
}

/// Payload of one log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogOp {
    /// A row was inserted (full after-image logged by every flavor).
    Insert {
        /// Affected table.
        table: String,
        /// Row id assigned.
        rowid: RowId,
        /// Full row image.
        row: Row,
        /// Physical position at operation time.
        loc: RowLocation,
    },
    /// A row was deleted (full before-image logged by every flavor).
    Delete {
        /// Affected table.
        table: String,
        /// Row id removed.
        rowid: RowId,
        /// Full pre-delete image.
        row: Row,
        /// Physical position at operation time.
        loc: RowLocation,
    },
    /// A row was updated in place.
    Update {
        /// Affected table.
        table: String,
        /// Row id updated.
        rowid: RowId,
        /// Full pre-update image (the engine always retains it; whether a
        /// flavor *exposes* it is an introspection property).
        before: Row,
        /// Full post-update image.
        after: Row,
        /// Indices of columns whose value actually changed.
        changed: Vec<usize>,
        /// Physical position at operation time.
        loc: RowLocation,
    },
    /// DDL: table created (logged so crash recovery can rebuild the
    /// catalog).
    CreateTable {
        /// The new table's schema.
        schema: TableSchema,
    },
    /// DDL: table dropped.
    DropTable {
        /// Dropped table name.
        name: String,
    },
    /// Transaction committed.
    Commit,
    /// Transaction rolled back.
    Abort,
}

impl LogOp {
    /// The table this op touches, if any.
    pub fn table(&self) -> Option<&str> {
        match self {
            LogOp::Insert { table, .. }
            | LogOp::Delete { table, .. }
            | LogOp::Update { table, .. } => Some(table),
            LogOp::CreateTable { schema } => Some(&schema.name),
            LogOp::DropTable { name } => Some(name),
            _ => None,
        }
    }

    /// Bytes this record occupies in `flavor`'s physical log. The Sybase
    /// flavor logs only the modified attributes of an UPDATE; the others
    /// log full before/after images.
    pub(crate) fn logged_bytes(&self, flavor: Flavor, schema: Option<&TableSchema>) -> usize {
        const HEADER: usize = 32;
        match self {
            LogOp::Insert { .. } | LogOp::Delete { .. } => {
                HEADER + schema.map_or(64, |s| s.row_width())
            }
            LogOp::Update { changed, .. } => {
                if flavor.logs_update_deltas() {
                    let delta: usize = schema.map_or(changed.len() * 16, |s| {
                        changed
                            .iter()
                            .map(|&i| 3 + s.columns[i].ty.fixed_width())
                            .sum()
                    });
                    HEADER + 2 * delta
                } else {
                    HEADER + 2 * schema.map_or(64, |s| s.row_width())
                }
            }
            LogOp::CreateTable { .. } | LogOp::DropTable { .. } => HEADER + 64,
            LogOp::Commit | LogOp::Abort => HEADER,
        }
    }
}

/// One WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Position in the log.
    pub lsn: Lsn,
    /// Transaction that produced the record.
    pub txn: InternalTxnId,
    /// Payload.
    pub op: LogOp,
}

/// The in-memory write-ahead log.
#[derive(Debug, Default)]
pub struct Wal {
    records: Vec<LogRecord>,
    next_lsn: u64,
}

/// The statement-time half of a WAL append: runs the `engine.wal_append`
/// failpoint and charges the record's byte cost to `sim`, without touching
/// the shared log. Transactions call this once per staged record while they
/// still hold no WAL lock; the matching [`Wal::publish`] at commit is then
/// charge-free and failure-free, keeping the group-commit critical section
/// short.
///
/// # Errors
///
/// An injected error when the `engine.wal_append` failpoint fires (a full
/// log disk in miniature: nothing is charged and nothing will be written).
pub fn stage_check(
    op: &LogOp,
    flavor: Flavor,
    schema: Option<&TableSchema>,
    sim: &SimContext,
) -> Result<()> {
    let _span = sim
        .telemetry()
        .span(resildb_sim::telemetry::names::ENGINE_WAL_APPEND);
    if sim.fault_check(failpoints::ENGINE_WAL_APPEND).is_some() {
        return Err(EngineError::Injected(failpoints::ENGINE_WAL_APPEND.into()));
    }
    sim.charge_log_append(op.logged_bytes(flavor, schema));
    Ok(())
}

impl Wal {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an already-staged record (see [`stage_check`]), assigning
    /// the next LSN. Infallible and charge-free: all cost accounting and
    /// fault injection happened at stage time, so publication is just the
    /// sequencing step a group-commit writer performs under its ticket.
    pub fn publish(&mut self, txn: InternalTxnId, op: LogOp) -> Lsn {
        let lsn = Lsn(self.next_lsn);
        self.next_lsn += 1;
        self.records.push(LogRecord { lsn, txn, op });
        lsn
    }

    /// One past the highest assigned LSN — the bound a log force must reach
    /// to cover every published record.
    pub fn end_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// All records in LSN order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Replaces the log contents with `records` (used when reopening a
    /// database from a durable log); the next LSN continues after the
    /// highest restored one.
    pub fn restore(&mut self, records: Vec<LogRecord>) {
        self.next_lsn = records.iter().map(|r| r.lsn.0 + 1).max().unwrap_or(0);
        self.records = records;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn schema() -> TableSchema {
        let stmt =
            resildb_sql::parse_statement("CREATE TABLE t (a INTEGER, b VARCHAR(10))").unwrap();
        let resildb_sql::Statement::CreateTable(c) = stmt else {
            unreachable!()
        };
        TableSchema::from_create(&c).unwrap()
    }

    fn loc() -> RowLocation {
        RowLocation {
            page: 0,
            offset: 0,
            len: 10,
        }
    }

    #[test]
    fn lsns_are_sequential() {
        let mut wal = Wal::new();
        let a = wal.publish(InternalTxnId(1), LogOp::Commit);
        let b = wal.publish(InternalTxnId(2), LogOp::Commit);
        assert_eq!(a, Lsn(0));
        assert_eq!(b, Lsn(1));
        assert_eq!(wal.records().len(), 2);
    }

    #[test]
    fn sybase_update_logs_fewer_bytes_than_postgres() {
        let s = schema();
        let op = LogOp::Update {
            table: "t".into(),
            rowid: RowId(1),
            before: Row::new(vec![Value::Int(1), Value::from("a")]),
            after: Row::new(vec![Value::Int(2), Value::from("a")]),
            changed: vec![0],
            loc: loc(),
        };
        let sybase = op.logged_bytes(Flavor::Sybase, Some(&s));
        let postgres = op.logged_bytes(Flavor::Postgres, Some(&s));
        assert!(
            sybase < postgres,
            "delta logging ({sybase}) must beat full images ({postgres})"
        );
    }

    #[test]
    fn appends_charge_log_bytes() {
        let sim = SimContext::new(resildb_sim::CostModel::disk_bound_oltp(), 4);
        let op = LogOp::Insert {
            table: "t".into(),
            rowid: RowId(1),
            row: Row::new(vec![Value::Int(1), Value::from("x")]),
            loc: loc(),
        };
        stage_check(&op, Flavor::Oracle, Some(&schema()), &sim).unwrap();
        assert!(sim.stats().log_bytes.get() > 0);
    }

    #[test]
    fn op_table_extraction() {
        assert_eq!(LogOp::Commit.table(), None);
        assert_eq!(LogOp::DropTable { name: "x".into() }.table(), Some("x"));
    }
}
