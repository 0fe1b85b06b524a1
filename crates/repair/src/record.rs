//! Normalized repair records: the common denominator the three
//! flavor-specific log adapters produce.

use std::sync::Arc;

use resildb_engine::{InternalTxnId, Lsn, RowId, Value};

/// How a compensating statement can address the affected row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowAddress {
    /// Via the flavor's row-id pseudo-column (`ctid`/`rowid`).
    Pseudo(RowId),
    /// Via the proxy-injected `rid` identity column (Sybase flavor).
    Identity(i64),
}

impl RowAddress {
    /// The literal to compare the address column against.
    pub fn literal(&self) -> i64 {
        match self {
            RowAddress::Pseudo(rid) => rid.0 as i64,
            RowAddress::Identity(v) => *v,
        }
    }
}

/// A row image, or an update's changed columns, named with the column
/// list of its table's schema version at the image's LSN.
///
/// The list is shared: every image a scan names with one schema version
/// holds the same `Arc`, and a new schema version gets a new list instead
/// of editing the old one. A partial image carries the positions of its
/// values in that list rather than names of its own.
#[derive(Debug, Clone)]
pub struct NamedRow {
    columns: Arc<[String]>,
    /// Positions in `columns` of `values`; `None` for a full image, whose
    /// values follow `columns` one for one.
    positions: Option<Arc<[u16]>>,
    values: Vec<Value>,
}

impl NamedRow {
    /// A full image: `values[i]` is the value of `columns[i]`.
    pub(crate) fn full(columns: Arc<[String]>, values: Vec<Value>) -> Self {
        debug_assert_eq!(columns.len(), values.len());
        Self {
            columns,
            positions: None,
            values,
        }
    }

    /// A partial image: `values[i]` is the value of
    /// `columns[positions[i]]`.
    pub(crate) fn partial(
        columns: Arc<[String]>,
        positions: Arc<[u16]>,
        values: Vec<Value>,
    ) -> Self {
        debug_assert_eq!(positions.len(), values.len());
        Self {
            columns,
            positions: Some(positions),
            values,
        }
    }

    /// The `(column, value)` pairs, in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> + '_ {
        (0..self.values.len()).map(|i| (self.name(i), &self.values[i]))
    }

    fn name(&self, i: usize) -> &str {
        match &self.positions {
            Some(p) => &self.columns[usize::from(p[i])],
            None => &self.columns[i],
        }
    }

    /// Value of `col`, if present (case-insensitively).
    pub fn get(&self, col: &str) -> Option<&Value> {
        self.iter()
            .find(|(c, _)| c.eq_ignore_ascii_case(col))
            .map(|(_, v)| v)
    }

    /// Column names, in order.
    pub fn columns(&self) -> Vec<&str> {
        self.iter().map(|(c, _)| c).collect()
    }

    /// The values, in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The shared column list of the schema version this image is named
    /// with (every column of the table, not only this image's).
    pub fn schema_columns(&self) -> &Arc<[String]> {
        &self.columns
    }

    /// True when no columns are present.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl Default for NamedRow {
    fn default() -> Self {
        Self::full(Arc::from(Vec::new()), Vec::new())
    }
}

/// Images are equal when they name the same values the same way, whether
/// or not their column lists are shared.
impl PartialEq for NamedRow {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl FromIterator<(String, Value)> for NamedRow {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let (names, values): (Vec<String>, Vec<Value>) = iter.into_iter().unzip();
        Self::full(names.into(), values)
    }
}

/// The operation a repair record describes.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairOp {
    /// A row was inserted (`row` is the complete image).
    Insert {
        /// Address of the inserted row.
        address: RowAddress,
        /// Full image.
        row: NamedRow,
    },
    /// A row was deleted (`row` is the complete pre-delete image).
    Delete {
        /// Address the row had.
        address: RowAddress,
        /// Full pre-delete image.
        row: NamedRow,
    },
    /// A row was updated; `before`/`after` carry the **changed columns
    /// only** (that is all any of the three DBMS logs guarantees — Oracle
    /// LogMiner emits per-column SET lists, Sybase logs deltas).
    Update {
        /// Address of the updated row.
        address: RowAddress,
        /// Pre-images of the changed columns.
        before: NamedRow,
        /// Post-images of the changed columns.
        after: NamedRow,
    },
    /// Transaction committed.
    Commit,
    /// Transaction rolled back.
    Abort,
}

/// One normalized log record.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairRecord {
    /// Position in the log (orders the backward repair sweep).
    pub lsn: Lsn,
    /// DBMS-internal transaction id.
    pub internal_txn: InternalTxnId,
    /// Table the operation touched (empty for commit/abort), shared by
    /// every record of the scan that names the same table.
    pub table: Arc<str>,
    /// The operation.
    pub op: RepairOp,
}

impl RepairRecord {
    /// The pre-image `trid` value, for reconstructing update/delete
    /// dependencies (paper §3.3): the transaction whose write this
    /// operation overwrote or removed.
    pub fn before_trid(&self) -> Option<i64> {
        let row = match &self.op {
            RepairOp::Delete { row, .. } => row,
            RepairOp::Update { before, .. } => before,
            _ => return None,
        };
        match row.get("trid") {
            Some(Value::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// Columns this operation changed (for updates: the changed set; for
    /// inserts/deletes: every column).
    pub fn changed_columns(&self) -> Vec<String> {
        let row = match &self.op {
            RepairOp::Insert { row, .. } | RepairOp::Delete { row, .. } => row,
            RepairOp::Update { after, .. } => after,
            _ => return Vec::new(),
        };
        row.iter().map(|(c, _)| c.to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: RepairOp) -> RepairRecord {
        RepairRecord {
            lsn: Lsn(0),
            internal_txn: InternalTxnId(1),
            table: "t".into(),
            op,
        }
    }

    #[test]
    fn named_row_lookup_is_case_insensitive() {
        let row: NamedRow = [("A".to_string(), Value::Int(1))].into_iter().collect();
        assert_eq!(row.get("a"), Some(&Value::Int(1)));
        assert_eq!(row.get("b"), None);
    }

    #[test]
    fn before_trid_from_update_and_delete() {
        let before: NamedRow = [
            ("bal".to_string(), Value::Float(1.0)),
            ("trid".to_string(), Value::Int(7)),
        ]
        .into_iter()
        .collect();
        let upd = rec(RepairOp::Update {
            address: RowAddress::Pseudo(RowId(3)),
            before: before.clone(),
            after: NamedRow::default(),
        });
        assert_eq!(upd.before_trid(), Some(7));
        let del = rec(RepairOp::Delete {
            address: RowAddress::Identity(5),
            row: before,
        });
        assert_eq!(del.before_trid(), Some(7));
        let ins = rec(RepairOp::Insert {
            address: RowAddress::Pseudo(RowId(1)),
            row: NamedRow::default(),
        });
        assert_eq!(ins.before_trid(), None);
    }

    #[test]
    fn changed_columns_reflect_op_kind() {
        let after: NamedRow = [("bal".to_string(), Value::Float(2.0))]
            .into_iter()
            .collect();
        let upd = rec(RepairOp::Update {
            address: RowAddress::Pseudo(RowId(1)),
            before: NamedRow::default(),
            after,
        });
        assert_eq!(upd.changed_columns(), vec!["bal"]);
        assert!(rec(RepairOp::Commit).changed_columns().is_empty());
    }

    #[test]
    fn address_literals() {
        assert_eq!(RowAddress::Pseudo(RowId(9)).literal(), 9);
        assert_eq!(RowAddress::Identity(4).literal(), 4);
    }
}
