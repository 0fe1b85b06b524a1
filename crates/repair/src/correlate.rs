//! Proxy ↔ internal transaction-id correlation (paper §3.3).
//!
//! The proxy generates its own transaction ids because a DBMS's internal
//! ids are not portable. The correlation rule: the last row insert a
//! tracked transaction performs before committing is the proxy's insert
//! into `trans_dep`, whose `tr_id` attribute carries the proxy id — so
//! each `(internal txn, trans_dep insert)` pair read from the log yields
//! one mapping.

use std::collections::HashMap;

use resildb_engine::{InternalTxnId, Value};

use crate::error::RepairError;
use crate::record::{RepairOp, RepairRecord};

/// Bidirectional proxy/internal id mapping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnCorrelation {
    /// Internal → proxy.
    pub proxy_of: HashMap<InternalTxnId, i64>,
    /// Proxy → internal.
    pub internal_of: HashMap<i64, InternalTxnId>,
}

impl TxnCorrelation {
    /// Builds the correlation from a normalized log scan: for every
    /// transaction, the last `trans_dep` insert preceding its commit
    /// supplies the proxy id.
    ///
    /// # Errors
    ///
    /// [`RepairError::DuplicateTrid`] when one proxy id commits in two
    /// internal transactions. Several `trans_dep` rows in one transaction
    /// (a spilled dependency list) are fine.
    pub fn from_records(records: &[RepairRecord]) -> Result<Self, RepairError> {
        let mut last_trans_dep_insert: HashMap<InternalTxnId, i64> = HashMap::new();
        let mut out = TxnCorrelation::default();
        for rec in records {
            match &rec.op {
                RepairOp::Insert { row, .. }
                    if rec
                        .table
                        .eq_ignore_ascii_case(resildb_proxy::TRANS_DEP_TABLE) =>
                {
                    if let Some(Value::Int(tr_id)) = row.get("tr_id") {
                        last_trans_dep_insert.insert(rec.internal_txn, *tr_id);
                    }
                }
                RepairOp::Commit => {
                    if let Some(tr_id) = last_trans_dep_insert.remove(&rec.internal_txn) {
                        if let Some(first) = out.internal_of.insert(tr_id, rec.internal_txn) {
                            return Err(RepairError::DuplicateTrid {
                                tr_id,
                                internal: [first, rec.internal_txn],
                            });
                        }
                        out.proxy_of.insert(rec.internal_txn, tr_id);
                    }
                }
                RepairOp::Abort => {
                    last_trans_dep_insert.remove(&rec.internal_txn);
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// The proxy id of an internal transaction, if it was tracked.
    pub fn proxy_id(&self, internal: InternalTxnId) -> Option<i64> {
        self.proxy_of.get(&internal).copied()
    }

    /// The internal id of a proxy transaction, if it committed.
    pub fn internal_id(&self, proxy: i64) -> Option<InternalTxnId> {
        self.internal_of.get(&proxy).copied()
    }

    /// Number of correlated transactions.
    pub fn len(&self) -> usize {
        self.proxy_of.len()
    }

    /// True when nothing correlated.
    pub fn is_empty(&self) -> bool {
        self.proxy_of.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{NamedRow, RowAddress};
    use resildb_engine::{Lsn, RowId};

    fn trans_dep_insert(lsn: u64, txn: u64, tr_id: i64) -> RepairRecord {
        RepairRecord {
            lsn: Lsn(lsn),
            internal_txn: InternalTxnId(txn),
            table: "trans_dep".into(),
            op: RepairOp::Insert {
                address: RowAddress::Pseudo(RowId(lsn)),
                row: [
                    ("tr_id".to_string(), Value::Int(tr_id)),
                    ("dep_tr_ids".to_string(), Value::from("")),
                ]
                .into_iter()
                .collect(),
            },
        }
    }

    fn commit(lsn: u64, txn: u64) -> RepairRecord {
        RepairRecord {
            lsn: Lsn(lsn),
            internal_txn: InternalTxnId(txn),
            table: "".into(),
            op: RepairOp::Commit,
        }
    }

    fn abort(lsn: u64, txn: u64) -> RepairRecord {
        RepairRecord {
            lsn: Lsn(lsn),
            internal_txn: InternalTxnId(txn),
            table: "".into(),
            op: RepairOp::Abort,
        }
    }

    fn user_insert(lsn: u64, txn: u64) -> RepairRecord {
        RepairRecord {
            lsn: Lsn(lsn),
            internal_txn: InternalTxnId(txn),
            table: "acct".into(),
            op: RepairOp::Insert {
                address: RowAddress::Pseudo(RowId(lsn)),
                row: NamedRow::default(),
            },
        }
    }

    #[test]
    fn correlates_committed_tracked_transactions() {
        let records = vec![
            user_insert(0, 10),
            trans_dep_insert(1, 10, 101),
            commit(2, 10),
            user_insert(3, 11),
            trans_dep_insert(4, 11, 102),
            commit(5, 11),
        ];
        let c = TxnCorrelation::from_records(&records).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.proxy_id(InternalTxnId(10)), Some(101));
        assert_eq!(c.internal_id(102), Some(InternalTxnId(11)));
    }

    #[test]
    fn aborted_transactions_are_not_correlated() {
        let records = vec![trans_dep_insert(0, 10, 101), abort(1, 10)];
        let c = TxnCorrelation::from_records(&records).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn interleaved_transactions_correlate_independently() {
        let records = vec![
            trans_dep_insert(0, 10, 101),
            trans_dep_insert(1, 11, 102),
            commit(2, 11),
            commit(3, 10),
        ];
        let c = TxnCorrelation::from_records(&records).unwrap();
        assert_eq!(c.proxy_id(InternalTxnId(10)), Some(101));
        assert_eq!(c.proxy_id(InternalTxnId(11)), Some(102));
    }

    #[test]
    fn untracked_transactions_stay_unmapped() {
        let records = vec![user_insert(0, 10), commit(1, 10)];
        let c = TxnCorrelation::from_records(&records).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.proxy_id(InternalTxnId(10)), None);
    }

    #[test]
    fn one_proxy_id_committed_twice_is_refused() {
        let records = vec![
            trans_dep_insert(0, 10, 101),
            commit(1, 10),
            // Rolled back: no second commit of 101.
            trans_dep_insert(2, 12, 101),
            abort(3, 12),
            trans_dep_insert(4, 11, 101),
            commit(5, 11),
        ];
        assert_eq!(
            TxnCorrelation::from_records(&records),
            Err(RepairError::DuplicateTrid {
                tr_id: 101,
                internal: [InternalTxnId(10), InternalTxnId(11)],
            })
        );
        assert!(TxnCorrelation::from_records(&records[..4]).is_ok());
    }

    #[test]
    fn multi_row_trans_dep_inserts_use_the_last() {
        // A long dependency list spills into several trans_dep rows with
        // the same tr_id — any of them yields the same mapping.
        let records = vec![
            trans_dep_insert(0, 10, 101),
            trans_dep_insert(1, 10, 101),
            commit(2, 10),
        ];
        let c = TxnCorrelation::from_records(&records).unwrap();
        assert_eq!(c.proxy_id(InternalTxnId(10)), Some(101));
    }
}
