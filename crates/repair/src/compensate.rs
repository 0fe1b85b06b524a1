//! Compensating-statement generation and execution (paper §3.3).
//!
//! The transaction log is walked from the end to the beginning; every
//! record belonging to the undo set is compensated immediately: a DELETE
//! for a logged INSERT, an INSERT for a logged DELETE, and an UPDATE
//! restoring the before-image for a logged UPDATE — each addressed to the
//! one affected row via the flavor's row address. Rows re-inserted during
//! repair receive fresh row ids, so an old→new id mapping is maintained
//! per table and discarded when the row's original INSERT is undone.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

use resildb_engine::{Database, InternalTxnId, Lsn, Value};
use resildb_sim::{failpoints, EventKind, InjectedFault};
use resildb_wire::{Connection, Response, WireError};

use crate::adapters::AddressColumn;
use crate::error::RepairError;
use crate::record::{NamedRow, RepairOp, RepairRecord, RowAddress};

/// One executed compensating statement, for audit.
#[derive(Debug, Clone, PartialEq)]
pub struct CompensatingStatement {
    /// The log record this compensates.
    pub lsn: Lsn,
    /// The undone (proxy) transaction.
    pub proxy_txn: i64,
    /// The SQL executed.
    pub sql: String,
}

/// Outcome of the compensation sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompensationOutcome {
    /// Statements executed, in execution order (reverse log order).
    pub statements: Vec<CompensatingStatement>,
    /// Rows deleted (compensating inserts).
    pub rows_deleted: u64,
    /// Rows re-inserted (compensating deletes).
    pub rows_reinserted: u64,
    /// Rows restored to their before-image (compensating updates).
    pub rows_restored: u64,
}

fn sql_literal(v: &Value) -> String {
    v.to_sql_literal()
}

/// Executes the backward compensation sweep over `records`.
///
/// `undo_internal` is the set of DBMS-internal transaction ids to undo
/// (already translated from the proxy-level undo set), with the proxy id
/// attached for reporting.
///
/// `skip_before` holds proxy transaction ids a *previous* sweep already
/// compensated (live repair's fence-extension rounds). A record whose
/// before-image was written by one of them is not restored: the row
/// already holds the older, repaired value, and restoring the image
/// would re-plant the very damage the first sweep removed.
///
/// # Errors
///
/// Propagates SQL failures and inconsistencies such as a compensating
/// statement affecting an unexpected number of rows. The sweep runs inside
/// one transaction: on any error the database is rolled back to its
/// pre-repair state — a half-applied repair is worse than no repair.
pub(crate) fn run_compensation(
    db: &Database,
    conn: &mut dyn Connection,
    records: &[RepairRecord],
    undo_internal: &HashMap<InternalTxnId, i64>,
    address: AddressColumn,
    skip_before: &std::collections::BTreeSet<i64>,
) -> Result<CompensationOutcome, RepairError> {
    conn.execute("BEGIN")?;
    let result =
        sweep(db, conn, records, undo_internal, address, skip_before).and_then(|outcome| {
            repair_fault(db, failpoints::REPAIR_BEFORE_COMMIT)?;
            conn.execute("COMMIT")?;
            Ok(outcome)
        });
    if result.is_err() {
        let _ = conn.execute("ROLLBACK");
    }
    if let Ok(outcome) = &result {
        // Report the per-transaction compensation tally — one event per
        // undone proxy transaction, only after the sweep's COMMIT (a
        // rolled-back repair compensated nothing). Transactions in the
        // undo set whose every record needed no statement (e.g. no-op
        // updates) still get a zero-count event.
        let mut per_txn: BTreeMap<i64, u32> =
            undo_internal.values().map(|&proxy| (proxy, 0)).collect();
        for stmt in &outcome.statements {
            if let Some(n) = per_txn.get_mut(&stmt.proxy_txn) {
                *n += 1;
            }
        }
        let telemetry = db.sim().telemetry();
        for (proxy, statements) in per_txn {
            telemetry.repair_event(proxy, EventKind::Compensated { statements });
        }
    }
    result
}

/// Maps an injected repair-layer fault to a [`RepairError`].
pub(crate) fn repair_fault(db: &Database, name: &str) -> Result<(), RepairError> {
    match db.sim().fault_check(name) {
        None => Ok(()),
        Some(InjectedFault::Disconnect) => Err(RepairError::Wire(WireError::ConnectionDropped)),
        Some(InjectedFault::Error) => Err(RepairError::Wire(WireError::Protocol(format!(
            "injected fault at failpoint {name}"
        )))),
        Some(InjectedFault::Delay(_)) => unreachable!("fault_check consumes delays"),
    }
}

fn sweep(
    db: &Database,
    conn: &mut dyn Connection,
    records: &[RepairRecord],
    undo_internal: &HashMap<InternalTxnId, i64>,
    address: AddressColumn,
    skip_before: &std::collections::BTreeSet<i64>,
) -> Result<CompensationOutcome, RepairError> {
    let mut outcome = CompensationOutcome::default();
    // Per-table old→new address remapping.
    let mut remap: HashMap<Arc<str>, HashMap<RowAddress, i64>> = HashMap::new();
    let addr_col = address.column_name();

    let current_addr =
        |remap: &HashMap<Arc<str>, HashMap<RowAddress, i64>>, table: &str, a: &RowAddress| {
            remap
                .get(table)
                .and_then(|m| m.get(a))
                .copied()
                .unwrap_or_else(|| a.literal())
        };

    let mut last = None;
    for rec in records.iter().rev() {
        // A transaction's records come in runs: look it up once per run.
        let proxy = match last {
            Some((txn, proxy)) if txn == rec.internal_txn => proxy,
            _ => {
                let proxy = undo_internal.get(&rec.internal_txn).copied();
                last = Some((rec.internal_txn, proxy));
                proxy
            }
        };
        let Some(proxy) = proxy else {
            continue;
        };
        // Extension-round rule (see run_compensation docs): a before-image
        // written by an already-compensated transaction must not be
        // restored or re-inserted — the sweep that undid its writer
        // already put the older value (or absence) in place.
        if rec.before_trid().is_some_and(|t| skip_before.contains(&t)) {
            continue;
        }
        if !outcome.statements.is_empty() {
            repair_fault(db, failpoints::REPAIR_MID_SWEEP)?;
        }
        match &rec.op {
            RepairOp::Insert { address: a, .. } => {
                let cur = current_addr(&remap, &rec.table, a);
                let sql = format!("DELETE FROM {} WHERE {addr_col} = {cur}", rec.table);
                let affected = execute_affected(conn, &sql)?;
                if affected != 1 {
                    return Err(RepairError::Analysis(format!(
                        "compensating delete touched {affected} rows (lsn {:?}): {sql}",
                        rec.lsn
                    )));
                }
                outcome.rows_deleted += 1;
                // The row's history is fully unwound: drop its mapping.
                if let Some(m) = remap.get_mut(&rec.table) {
                    m.remove(a);
                }
                outcome.statements.push(CompensatingStatement {
                    lsn: rec.lsn,
                    proxy_txn: proxy,
                    sql,
                });
            }
            RepairOp::Delete { address: a, row } => {
                let sql = insert_sql(&rec.table, row);
                execute_affected(conn, &sql)?;
                outcome.rows_reinserted += 1;
                // With pseudo addressing the re-inserted row has a fresh
                // row id that later (earlier-in-log) compensations must
                // use; identity addressing keeps the id because it is
                // ordinary column data.
                if matches!(address, AddressColumn::Pseudo(_)) {
                    let new_addr = discover_address(db, conn, &rec.table, row, addr_col)?;
                    remap
                        .entry(rec.table.clone())
                        .or_default()
                        .insert(*a, new_addr);
                }
                outcome.statements.push(CompensatingStatement {
                    lsn: rec.lsn,
                    proxy_txn: proxy,
                    sql,
                });
            }
            RepairOp::Update {
                address: a, before, ..
            } => {
                if before.is_empty() {
                    // The update changed no column values (e.g. a repeated
                    // in-transaction write): nothing to restore.
                    continue;
                }
                let cur = current_addr(&remap, &rec.table, a);
                let mut sql = format!("UPDATE {} SET ", rec.table);
                for (i, (c, v)) in before.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    let _ = write!(sql, "{sep}{c} = {}", sql_literal(v));
                }
                let _ = write!(sql, " WHERE {addr_col} = {cur}");
                let affected = execute_affected(conn, &sql)?;
                if affected != 1 {
                    return Err(RepairError::Analysis(format!(
                        "compensating update touched {affected} rows (lsn {:?}): {sql}",
                        rec.lsn
                    )));
                }
                outcome.rows_restored += 1;
                outcome.statements.push(CompensatingStatement {
                    lsn: rec.lsn,
                    proxy_txn: proxy,
                    sql,
                });
            }
            RepairOp::Commit | RepairOp::Abort => {}
        }
    }
    Ok(outcome)
}

fn execute_affected(conn: &mut dyn Connection, sql: &str) -> Result<u64, RepairError> {
    match conn.execute(sql)? {
        Response::Affected(n) => Ok(n),
        other => Err(RepairError::Analysis(format!(
            "compensating statement produced {other:?}: {sql}"
        ))),
    }
}

fn insert_sql(table: &str, row: &NamedRow) -> String {
    let cols: Vec<&str> = row.columns();
    let vals: Vec<String> = row.values().iter().map(sql_literal).collect();
    format!(
        "INSERT INTO {table} ({}) VALUES ({})",
        cols.join(", "),
        vals.join(", ")
    )
}

/// Finds the row id the DBMS gave a just re-inserted row, by matching the
/// table's primary key (or, lacking one, the full row image) and taking
/// the newest row id.
fn discover_address(
    db: &Database,
    conn: &mut dyn Connection,
    table: &str,
    row: &NamedRow,
    addr_col: &str,
) -> Result<i64, RepairError> {
    let handle = db.table(table).map_err(RepairError::Engine)?;
    let conds: Vec<String> = {
        let guard = handle.read();
        let schema = guard.schema();
        let match_cols: Vec<&str> = if schema.primary_key.is_empty() {
            row.iter()
                .filter(|(_, v)| !v.is_null())
                .map(|(c, _)| c)
                .collect()
        } else {
            schema
                .primary_key
                .iter()
                .map(|&i| schema.columns[i].name.as_str())
                .collect()
        };
        match_cols
            .iter()
            .filter_map(|c| row.get(c).map(|v| format!("{c} = {}", sql_literal(v))))
            .collect()
    };
    let sql = format!(
        "SELECT {addr_col} FROM {table} WHERE {} ORDER BY {addr_col} DESC LIMIT 1",
        conds.join(" AND ")
    );
    match conn.execute(&sql)? {
        Response::Rows(r) => match r.rows.first().and_then(|row| row.first()) {
            Some(Value::Int(v)) => Ok(*v),
            other => Err(RepairError::Analysis(format!(
                "could not rediscover re-inserted row in {table}: got {other:?}"
            ))),
        },
        other => Err(RepairError::Analysis(format!(
            "address discovery produced {other:?}"
        ))),
    }
}
