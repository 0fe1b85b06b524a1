//! Per-flavor log adapters: the only database-specific part of the repair
//! tool, exactly as the paper observes (§3.3: "the repair-time logic of an
//! intrusion-resilient DBMS is very database-specific").

use std::collections::HashMap;
use std::sync::Arc;

use resildb_engine::introspect::{self, DbccLogRecord, DbccOp, SchemaHistory};
use resildb_engine::{
    decode_row, decode_value, Database, EngineError, Flavor, Result, Row, RowId, TableSchema, Value,
};
use resildb_sql::{BinaryOp, Expr, Statement};

use crate::record::{NamedRow, RepairOp, RepairRecord, RowAddress};

/// How compensating statements address rows for a given flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressColumn {
    /// A row-id pseudo-column with this name (`ctid`/`rowid`).
    Pseudo(&'static str),
    /// The proxy-injected identity column with this name (`rid`).
    Identity(&'static str),
}

impl AddressColumn {
    /// The SQL column name used in WHERE clauses.
    pub fn column_name(&self) -> &'static str {
        match self {
            AddressColumn::Pseudo(n) | AddressColumn::Identity(n) => n,
        }
    }
}

/// A flavor-specific transaction-log reader producing normalized
/// [`RepairRecord`]s.
pub trait LogAdapter {
    /// Reads and normalizes the whole log.
    ///
    /// # Errors
    ///
    /// Introspection failures (wrong flavor, dropped tables, corrupt
    /// images).
    fn scan(&self, db: &Database) -> Result<Vec<RepairRecord>>;

    /// How rows are addressed on this flavor.
    fn address_column(&self) -> AddressColumn;
}

/// Picks the adapter matching `flavor`.
pub fn adapter_for(flavor: Flavor) -> Box<dyn LogAdapter> {
    match flavor {
        Flavor::Postgres => Box::new(PostgresAdapter),
        Flavor::Oracle => Box::new(OracleAdapter),
        Flavor::Sybase => Box::new(SybaseAdapter),
    }
}

// ---------------------------------------------------------------------
// PostgreSQL: full before/after images from the (reverse-engineered) WAL.
// ---------------------------------------------------------------------

/// Adapter over [`introspect::waldump`] (paper §4.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct PostgresAdapter;

/// A log-record field the adapter cannot proceed without.
fn require<T>(v: Option<T>, what: &str) -> Result<T> {
    v.ok_or_else(|| EngineError::Internal(format!("log record missing {what}")))
}

/// A column's position as an update image carries it.
fn position(i: usize) -> Result<u16> {
    u16::try_from(i).map_err(|_| EngineError::Internal(format!("column index {i} out of range")))
}

/// The table name and column list shared by every image a scan names
/// with one schema version, keyed by that version's address in the scan's
/// [`SchemaHistory`]: a new version gets new lists, never an edited one.
/// Commit and abort records share the empty names.
#[derive(Default)]
struct SharedNames {
    versions: HashMap<*const TableSchema, (Arc<str>, Arc<[String]>)>,
    none: (Arc<str>, Arc<[String]>),
}

impl SharedNames {
    fn of(&mut self, schema: &TableSchema) -> (Arc<str>, Arc<[String]>) {
        (self.versions.entry(std::ptr::from_ref(schema)))
            .or_insert_with(|| (schema.name.as_str().into(), schema.column_names().into()))
            .clone()
    }
}

impl LogAdapter for PostgresAdapter {
    fn scan(&self, db: &Database) -> Result<Vec<RepairRecord>> {
        // table → column list, folded from the log's own DDL records as
        // the scan passes them: each image is named with the schema in
        // effect at its LSN, and no catalog lookup happens under the WAL
        // lock. A CREATE installs a new list; images named before keep
        // the old one.
        let mut columns: HashMap<Arc<str>, Arc<[String]>> = HashMap::new();
        let no_table = Arc::<str>::default();
        let mut changed: Vec<u16> = Vec::new();
        // One record per log record at most (DDL yields none).
        let mut out = Vec::with_capacity(db.read_wal(<[_]>::len));
        introspect::waldump(db, |rec| {
            let (table, op) = match rec.op_name {
                "COMMIT" => (no_table.clone(), RepairOp::Commit),
                "ABORT" => (no_table.clone(), RepairOp::Abort),
                "DDL" => {
                    // A CREATE carries the new schema, a DROP only the name.
                    match rec.schema {
                        Some(schema) => columns
                            .insert(schema.name.as_str().into(), schema.column_names().into()),
                        None => columns.remove(require(rec.table, "table name")?),
                    };
                    return Ok(());
                }
                op_name => {
                    let name = require(rec.table, "table name")?;
                    let (table, names) = columns.get_key_value(name).ok_or_else(|| {
                        EngineError::UnknownTable(format!("{name} at lsn {}", rec.lsn.0))
                    })?;
                    let full = |image: Option<&Row>, what| -> Result<NamedRow> {
                        let values = require(image, what)?.values().to_vec();
                        Ok(NamedRow::full(names.clone(), values))
                    };
                    let address = RowAddress::Pseudo(require(rec.rowid, "rowid")?);
                    let op = match op_name {
                        "INSERT" => RepairOp::Insert {
                            address,
                            row: full(rec.after, "insert after image")?,
                        },
                        "DELETE" => RepairOp::Delete {
                            address,
                            row: full(rec.before, "delete before image")?,
                        },
                        _ => {
                            let before_full = require(rec.before, "update before image")?;
                            let after_full = require(rec.after, "update after image")?;
                            // Restrict to changed columns, the common
                            // denominator.
                            changed.clear();
                            let mut before = Vec::new();
                            let mut after = Vec::new();
                            let images = before_full.values().iter().zip(after_full.values());
                            for (i, (b, a)) in images.enumerate() {
                                if b != a {
                                    changed.push(position(i)?);
                                    before.push(b.clone());
                                    after.push(a.clone());
                                }
                            }
                            let positions: Arc<[u16]> = Arc::from(changed.as_slice());
                            RepairOp::Update {
                                address,
                                before: NamedRow::partial(names.clone(), positions.clone(), before),
                                after: NamedRow::partial(names.clone(), positions, after),
                            }
                        }
                    };
                    (table.clone(), op)
                }
            };
            out.push(RepairRecord {
                lsn: rec.lsn,
                internal_txn: rec.txn,
                table,
                op,
            });
            Ok(())
        })?;
        Ok(out)
    }

    fn address_column(&self) -> AddressColumn {
        AddressColumn::Pseudo("ctid")
    }
}

// ---------------------------------------------------------------------
// Oracle: parse LogMiner's sql_redo / sql_undo back into row images.
// ---------------------------------------------------------------------

/// Adapter over [`introspect::logminer`] (paper §4.1): recovers row images
/// by parsing the per-record redo/undo SQL.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleAdapter;

fn parse_stmt(sql: &str) -> Result<Statement> {
    resildb_sql::parse_statement(sql)
        .map_err(|e| EngineError::Internal(format!("unparseable LogMiner SQL {sql:?}: {e}")))
}

fn expr_value(e: &Expr) -> Result<Value> {
    match e {
        Expr::Literal(l) => Ok(Value::from_literal(l)),
        other => Err(EngineError::Internal(format!(
            "non-literal value in LogMiner SQL: {other:?}"
        ))),
    }
}

/// Extracts `N` from a `WHERE rowid = N` clause.
fn rowid_from_where(w: &Option<Expr>) -> Result<RowId> {
    if let Some(Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    }) = w
    {
        if let (Expr::Column(c), Expr::Literal(resildb_sql::Literal::Int(n))) = (&**left, &**right)
        {
            if c.column.eq_ignore_ascii_case("rowid") {
                return Ok(RowId(*n as u64));
            }
        }
    }
    Err(EngineError::Internal(format!(
        "LogMiner SQL lacks a rowid predicate: {w:?}"
    )))
}

/// Names the `(column, value)` pairs of a LogMiner statement with the
/// shared column list `names`: a full image when they cover the list in
/// order, else a partial one.
fn name_image<'e>(
    names: &Arc<[String]>,
    pairs: impl Iterator<Item = (&'e String, &'e Expr)>,
) -> Result<NamedRow> {
    let (mut positions, mut values) = (Vec::new(), Vec::new());
    for (col, e) in pairs {
        let i = (names.iter().position(|n| n.eq_ignore_ascii_case(col)))
            .ok_or_else(|| EngineError::Internal(format!("LogMiner SQL names column {col}")))?;
        positions.push(position(i)?);
        values.push(expr_value(e)?);
    }
    let in_order = (positions.iter())
        .enumerate()
        .all(|(i, &p)| usize::from(p) == i);
    Ok(if in_order && positions.len() == names.len() {
        NamedRow::full(names.clone(), values)
    } else {
        NamedRow::partial(names.clone(), positions.into(), values)
    })
}

/// The row image a LogMiner INSERT statement (`what`) writes.
fn inserted_image(sql: Option<&String>, what: &str, names: &Arc<[String]>) -> Result<NamedRow> {
    let Statement::Insert(ins) = parse_stmt(require(sql, what)?)? else {
        return Err(EngineError::Internal(format!("{what} is not an INSERT")));
    };
    name_image(names, ins.columns.iter().zip(&ins.rows[0]))
}

/// A LogMiner UPDATE statement (`what`): its row id and the values it sets.
fn update_image(
    sql: Option<&String>,
    what: &str,
    names: &Arc<[String]>,
) -> Result<(RowId, NamedRow)> {
    let Statement::Update(upd) = parse_stmt(require(sql, what)?)? else {
        return Err(EngineError::Internal(format!("{what} is not an UPDATE")));
    };
    let sets = upd.assignments.iter().map(|a| (&a.column, &a.value));
    Ok((
        rowid_from_where(&upd.where_clause)?,
        name_image(names, sets)?,
    ))
}

impl LogAdapter for OracleAdapter {
    fn scan(&self, db: &Database) -> Result<Vec<RepairRecord>> {
        let log = introspect::logminer(db)?;
        // Folded after the read, so it covers every record of `log`.
        let schemas = SchemaHistory::of(db);
        let mut shared = SharedNames::default();
        let mut out = Vec::with_capacity(log.len());
        for rec in &log {
            let (redo, undo) = (rec.sql_redo.as_ref(), rec.sql_undo.as_ref());
            let (table, names) = match (rec.operation.as_str(), &rec.table_name) {
                ("INSERT" | "DELETE" | "UPDATE", Some(table)) => {
                    shared.of(schemas.at(table, rec.scn)?)
                }
                _ => shared.none.clone(),
            };
            let op = match rec.operation.as_str() {
                "INSERT" => RepairOp::Insert {
                    address: RowAddress::Pseudo(require(rec.row_id, "insert rowid")?),
                    row: inserted_image(redo, "INSERT redo SQL", &names)?,
                },
                // The undo of a DELETE is the re-inserting INSERT.
                "DELETE" => RepairOp::Delete {
                    address: RowAddress::Pseudo(require(rec.row_id, "delete rowid")?),
                    row: inserted_image(undo, "DELETE undo SQL", &names)?,
                },
                "UPDATE" => {
                    let (rowid, after) = update_image(redo, "UPDATE redo SQL", &names)?;
                    let (_, before) = update_image(undo, "UPDATE undo SQL", &names)?;
                    RepairOp::Update {
                        address: RowAddress::Pseudo(rowid),
                        before,
                        after,
                    }
                }
                "COMMIT" => RepairOp::Commit,
                "ROLLBACK" => RepairOp::Abort,
                _ => continue, // DDL
            };
            out.push(RepairRecord {
                lsn: rec.scn,
                internal_txn: rec.xid,
                table,
                op,
            });
        }
        Ok(out)
    }

    fn address_column(&self) -> AddressColumn {
        AddressColumn::Pseudo("rowid")
    }
}

// ---------------------------------------------------------------------
// Sybase: dbcc log + dbcc page + the §4.3 offset-adjustment algorithm.
// ---------------------------------------------------------------------

/// Adapter over [`introspect::dbcc_log`]/[`introspect::dbcc_page`]
/// implementing the paper's §4.3 algorithm: `MODIFY` records lack the
/// identity attribute, so the full row is recovered from the page after
/// compensating for in-page row migration caused by later deletes.
#[derive(Debug, Clone, Copy, Default)]
pub struct SybaseAdapter;

/// Decodes a full-row `dbcc` image into a row named with `names`.
fn decode_full(schema: &TableSchema, names: &Arc<[String]>, bytes: &[u8]) -> Result<NamedRow> {
    Ok(NamedRow::full(names.clone(), decode_row(schema, bytes)?.0))
}

/// Decodes a MODIFY delta: `[col_idx u16][before][after]` groups.
fn decode_delta(
    schema: &TableSchema,
    names: &Arc<[String]>,
    bytes: &[u8],
) -> Result<(NamedRow, NamedRow)> {
    let mut pos = 0;
    let mut positions = Vec::new();
    let mut before = Vec::new();
    let mut after = Vec::new();
    while pos < bytes.len() {
        if pos + 2 > bytes.len() {
            return Err(EngineError::Internal("truncated dbcc delta".into()));
        }
        let idx = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]) as usize;
        pos += 2;
        let col = schema
            .columns
            .get(idx)
            .ok_or_else(|| EngineError::Internal(format!("dbcc delta references column {idx}")))?;
        let (b, used) = decode_value(&bytes[pos..], col.ty)?;
        pos += used;
        let (a, used) = decode_value(&bytes[pos..], col.ty)?;
        pos += used;
        positions.push(idx as u16);
        before.push(b);
        after.push(a);
    }
    let positions: Arc<[u16]> = positions.into();
    Ok((
        NamedRow::partial(names.clone(), positions.clone(), before),
        NamedRow::partial(names.clone(), positions, after),
    ))
}

fn identity_address(row: &NamedRow) -> Result<RowAddress> {
    match row.get(resildb_proxy::IDENTITY_COLUMN) {
        Some(Value::Int(v)) => Ok(RowAddress::Identity(*v)),
        other => Err(EngineError::Internal(format!(
            "row image lacks the identity column: {other:?}"
        ))),
    }
}

/// The positions of every `(table, page)`'s DELETE records in a `dbcc log`,
/// ascending: a MODIFY's offset adjustment visits only the later deletes
/// on its own page, not every later record.
struct PageDeletes<'a> {
    log: &'a [DbccLogRecord],
    by_page: HashMap<(&'a str, u64), Vec<usize>>,
}

impl<'a> PageDeletes<'a> {
    fn new(log: &'a [DbccLogRecord]) -> Self {
        let mut by_page: HashMap<(&str, u64), Vec<usize>> = HashMap::new();
        for (i, rd) in log.iter().enumerate() {
            if rd.op == DbccOp::Delete {
                by_page.entry((&rd.table, rd.page)).or_default().push(i);
            }
        }
        Self { log, by_page }
    }

    /// Paper §4.3, step 2: adjusts the page offset of the MODIFY at log
    /// position `i` for every later DELETE on the same page. Returns either
    /// the adjusted offset, or the full row image directly when a later
    /// DELETE removed the modified row itself (its log record carries the
    /// complete image).
    fn adjust(&self, i: usize) -> AdjustOutcome<'a> {
        let rm = &self.log[i];
        let deletes =
            (self.by_page.get(&(rm.table.as_str(), rm.page))).map_or(&[][..], Vec::as_slice);
        let mut off = rm.offset;
        for &j in &deletes[deletes.partition_point(|&j| j <= i)..] {
            let rd = &self.log[j];
            if rd.offset + rd.len <= off {
                // Delete strictly before us in the page: we migrated down.
                off -= rd.len;
            } else if rd.offset <= off && off < rd.offset + rd.len {
                // The delete removed the modified row itself; its record
                // holds the complete image.
                return AdjustOutcome::DeletedLater(rd);
            }
        }
        AdjustOutcome::Offset(off)
    }
}

#[derive(Debug, PartialEq)]
enum AdjustOutcome<'a> {
    Offset(usize),
    DeletedLater(&'a DbccLogRecord),
}

impl LogAdapter for SybaseAdapter {
    fn scan(&self, db: &Database) -> Result<Vec<RepairRecord>> {
        let log = introspect::dbcc_log(db)?;
        // Folded after the read, so it covers every record of `log`.
        let schemas = SchemaHistory::of(db);
        let deletes = PageDeletes::new(&log);
        let mut shared = SharedNames::default();
        let mut out = Vec::with_capacity(log.len());
        for (i, rec) in log.iter().enumerate() {
            let (table, names) = match rec.op {
                DbccOp::Commit | DbccOp::Abort => shared.none.clone(),
                _ => shared.of(schemas.at(&rec.table, rec.lsn)?),
            };
            let op = match rec.op {
                DbccOp::Insert => {
                    let row = decode_full(schemas.at(&rec.table, rec.lsn)?, &names, &rec.bytes)?;
                    RepairOp::Insert {
                        address: identity_address(&row)?,
                        row,
                    }
                }
                DbccOp::Delete => {
                    let row = decode_full(schemas.at(&rec.table, rec.lsn)?, &names, &rec.bytes)?;
                    RepairOp::Delete {
                        address: identity_address(&row)?,
                        row,
                    }
                }
                DbccOp::Modify => {
                    let schema = schemas.at(&rec.table, rec.lsn)?;
                    let (before, after) = decode_delta(schema, &names, &rec.bytes)?;
                    // Recover the identity attribute via the §4.3 offset
                    // adjustment + dbcc page. A later DELETE of the row
                    // before any DDL on its table carries the image; else
                    // only a table never dropped since has the row on a page.
                    let dropped = schemas.next_change(&rec.table, rec.lsn);
                    let full = match deletes.adjust(i) {
                        AdjustOutcome::DeletedLater(rd) if dropped.is_none_or(|d| rd.lsn < d) => {
                            decode_full(schema, &names, &rd.bytes)?
                        }
                        AdjustOutcome::Offset(off) if dropped.is_none() => {
                            let bytes =
                                introspect::dbcc_page(db, &rec.table, rec.page, off, rec.len)?;
                            decode_full(schema, &names, &bytes)?
                        }
                        _ => {
                            return Err(EngineError::UnknownTable(format!(
                                "{} as of the MODIFY at lsn {}: dropped since, so dbcc page \
                                 cannot recover the row",
                                rec.table, rec.lsn.0
                            )))
                        }
                    };
                    RepairOp::Update {
                        address: identity_address(&full)?,
                        before,
                        after,
                    }
                }
                DbccOp::Commit => RepairOp::Commit,
                DbccOp::Abort => RepairOp::Abort,
            };
            out.push(RepairRecord {
                lsn: rec.lsn,
                internal_txn: rec.txn,
                table,
                op,
            });
        }
        Ok(out)
    }

    fn address_column(&self) -> AddressColumn {
        AddressColumn::Identity(resildb_proxy::IDENTITY_COLUMN)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use resildb_engine::{InternalTxnId, Lsn};

    use super::*;

    /// The §4.3 step-2 walk as it was before [`PageDeletes`]: every later
    /// record of the log, filtered per record (quadratic over a scan). The
    /// reference the indexed walk is held to.
    fn adjust_modify_offset<'a>(
        rm: &DbccLogRecord,
        later: impl Iterator<Item = &'a DbccLogRecord>,
    ) -> AdjustOutcome<'a> {
        let mut off = rm.offset;
        for rd in later {
            if rd.op != DbccOp::Delete || rd.table != rm.table || rd.page != rm.page {
                continue;
            }
            if rd.offset + rd.len <= off {
                off -= rd.len;
            } else if rd.offset <= off && off < rd.offset + rd.len {
                return AdjustOutcome::DeletedLater(rd);
            }
        }
        AdjustOutcome::Offset(off)
    }

    /// xorshift64*: one `u64` from proptest expands into a whole history.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
        }
    }

    /// A `dbcc log` over two tables × two pages whose rows migrate down on
    /// delete, as the engine's pages do: inserts append, deletes close the
    /// gap, modifies log the slot's current offset — so later deletes land
    /// before, over and after a modified slot — and half the time a
    /// modify hits the slot the previous one did.
    fn page_history(seed: u64) -> Vec<DbccLogRecord> {
        use DbccOp::{Delete, Insert, Modify};
        let mut rng = Rng(seed | 1);
        let mut pages: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
        let mut last_modified = None;
        let mut log = Vec::new();
        for lsn in 0..40 + rng.below(80) as u64 {
            let key = (rng.below(2), rng.below(2) as u64);
            let slots = pages.entry(key).or_default();
            let op = match rng.below(5) {
                _ if slots.is_empty() => Insert,
                0 | 1 => Insert,
                2 | 3 => Modify,
                _ => Delete,
            };
            let slot = match (op, last_modified) {
                (Insert, _) => {
                    slots.push(8 + rng.below(24));
                    slots.len() - 1
                }
                (Modify, Some((k, s))) if k == key && s < slots.len() && rng.below(2) == 0 => s,
                _ => rng.below(slots.len()),
            };
            let (offset, len) = (slots[..slot].iter().sum(), slots[slot]);
            match op {
                Modify => last_modified = Some((key, slot)),
                Delete => drop(slots.remove(slot)),
                _ => {}
            }
            log.push(DbccLogRecord {
                lsn: Lsn(lsn),
                txn: InternalTxnId(lsn),
                op,
                table: ["t", "u"][key.0].to_string(),
                page: key.1,
                offset,
                len,
                bytes: Vec::new(),
            });
        }
        log
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn indexed_offset_adjustment_matches_the_reference(seed in any::<u64>()) {
            let log = page_history(seed);
            let deletes = PageDeletes::new(&log);
            for (i, rm) in log.iter().enumerate() {
                if rm.op == DbccOp::Modify {
                    prop_assert_eq!(
                        deletes.adjust(i),
                        adjust_modify_offset(rm, log[i + 1..].iter()),
                        "modify at position {}", i
                    );
                }
            }
        }
    }

    #[test]
    fn generated_histories_reach_both_outcomes() {
        let (mut moved, mut deleted) = (0, 0);
        for seed in 0..64 {
            let log = page_history(seed);
            let deletes = PageDeletes::new(&log);
            for (i, rm) in log.iter().enumerate() {
                match (rm.op, deletes.adjust(i)) {
                    (DbccOp::Modify, AdjustOutcome::Offset(off)) if off < rm.offset => moved += 1,
                    (DbccOp::Modify, AdjustOutcome::DeletedLater(_)) => deleted += 1,
                    _ => {}
                }
            }
        }
        assert!(moved > 0 && deleted > 0, "moved {moved}, deleted {deleted}");
    }
}
