//! The dependency graph, folded from the scanned log alone (paper §3.3:
//! the repair tool works from the DBMS log).
//!
//! The tracking tables are read back from their own images in the log,
//! not through SQL. Each internal transaction's tracking writes are
//! staged until its COMMIT and dropped on its ABORT; a committed DELETE
//! retracts the row at its address, as live repair's sweep does for the
//! undone transactions' rows. So the rows the fold ends with are the rows
//! a `SELECT` on the tracking tables returns at the end of the log, in the
//! same order: row addresses grow with every insert, and a scan returns
//! the rows of these append-only tables in insertion order. (The tracking
//! tables are created once and never dropped, so an address names one row
//! of one table for the whole log.)
//!
//! Names are shared, never copied per record, column or edge: an edge's
//! table is its record's shared table name, and read-column lists are
//! interned per distinct raw text.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use resildb_engine::{InternalTxnId, Value};
use resildb_proxy::{
    is_tracking_column, is_tracking_table, ANNOT_TABLE, COLUMN_TRID_PREFIX, PROV_TABLE,
    TRANS_DEP_TABLE,
};

use crate::correlate::TxnCorrelation;
use crate::graph::{DepGraph, EdgeKind, EdgeProvenance};
use crate::record::{NamedRow, RepairOp, RepairRecord};

/// Builds the full dependency graph from a scan and its correlation: the
/// online read dependencies and labels the tracking tables hold, plus the
/// update/delete dependencies reconstructed from pre-image stamps, with
/// the writer column notes false-dependency rules evaluate.
pub(crate) fn dependency_graph(records: &[RepairRecord], correlation: &TxnCorrelation) -> DepGraph {
    let mut graph = DepGraph::new();
    let mut tracking = TrackingTables::default();
    // Tracking writes awaiting their transaction's COMMIT or ABORT. A
    // transaction's records precede its end, so this stays short.
    let mut staged: Vec<(InternalTxnId, &RepairRecord)> = Vec::new();
    // Per-column edges' one-column read lists, one per column name.
    let mut read_lists: HashMap<&str, Arc<[String]>> = HashMap::new();
    let mut last = None;
    for rec in records {
        match &rec.op {
            RepairOp::Commit => staged.retain(|&(txn, write)| {
                let mine = txn == rec.internal_txn;
                if mine {
                    tracking.apply(write);
                }
                !mine
            }),
            RepairOp::Abort => staged.retain(|&(txn, _)| txn != rec.internal_txn),
            _ if is_tracking_table(&rec.table) => staged.push((rec.internal_txn, rec)),
            _ => {
                // A transaction's records come in runs: look its proxy id
                // up once per run.
                let proxy = match last {
                    Some((txn, proxy)) if txn == rec.internal_txn => proxy,
                    _ => {
                        let proxy = correlation.proxy_id(rec.internal_txn);
                        last = Some((rec.internal_txn, proxy));
                        proxy
                    }
                };
                if let Some(proxy) = proxy {
                    write_deps(&mut graph, &mut read_lists, proxy, rec);
                }
            }
        }
    }
    tracking.read_deps(&mut graph);
    graph
}

/// The log-reconstructed part of the graph for one record of tracked
/// transaction `proxy`: its writer notes, and the dependency on whoever
/// wrote the row image it overwrote or removed.
fn write_deps<'a>(
    graph: &mut DepGraph,
    read_lists: &mut HashMap<&'a str, Arc<[String]>>,
    proxy: i64,
    rec: &'a RepairRecord,
) {
    let before = match &rec.op {
        RepairOp::Insert { .. } => {
            graph.note_writer_insert(proxy, &rec.table);
            return;
        }
        RepairOp::Update { before, after, .. } => {
            let columns = after.iter().map(|(c, _)| c);
            graph.note_writer_columns(
                proxy,
                &rec.table,
                columns.filter(|c| !is_tracking_column(c)),
            );
            before
        }
        RepairOp::Delete { row, .. } => row,
        RepairOp::Commit | RepairOp::Abort => return,
    };
    // Under column-level tracking the pre-image carries one
    // `trid__<col>` stamp per overwritten column, giving precise
    // per-column edges; otherwise fall back to the row `trid`.
    let mut column_edges = 0;
    for (name, value) in before.iter() {
        let (Some(col), Value::Int(dep)) = (name.strip_prefix(COLUMN_TRID_PREFIX), value) else {
            continue;
        };
        column_edges += 1;
        if *dep > 0 && *dep != proxy {
            let read_columns = (read_lists.entry(col))
                .or_insert_with(|| Arc::from([col.to_string()]))
                .clone();
            let kind = EdgeKind::Read { read_columns };
            let table = rec.table.clone();
            graph.add_edge(proxy, *dep, EdgeProvenance { table, kind });
        }
    }
    if column_edges == 0 {
        if let Some(dep) = rec.before_trid().filter(|&dep| dep > 0 && dep != proxy) {
            let table = rec.table.clone();
            let kind = EdgeKind::Write;
            graph.add_edge(proxy, dep, EdgeProvenance { table, kind });
        }
    }
}

/// One live tracking row: its insert image, then the after-images of any
/// committed updates of it, latest last.
struct TrackingRow<'a> {
    row: &'a NamedRow,
    updates: Vec<&'a NamedRow>,
}

impl<'a> TrackingRow<'a> {
    fn get(&self, col: &str) -> Option<&'a Value> {
        (self.updates.iter().rev())
            .find_map(|u| u.get(col))
            .or_else(|| self.row.get(col))
    }

    fn int(&self, col: &str) -> Option<i64> {
        match self.get(col) {
            Some(Value::Int(v)) => Some(*v),
            _ => None,
        }
    }

    fn str(&self, col: &str) -> Option<&'a str> {
        match self.get(col) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }
}

/// A tracking table's committed rows by row address.
type Rows<'a> = BTreeMap<i64, TrackingRow<'a>>;

/// The three tracking tables as the log leaves them.
#[derive(Default)]
struct TrackingTables<'a> {
    trans_dep: Rows<'a>,
    annot: Rows<'a>,
    prov: Rows<'a>,
}

impl<'a> TrackingTables<'a> {
    /// Applies one committed tracking write.
    fn apply(&mut self, rec: &'a RepairRecord) {
        let tables = [
            (TRANS_DEP_TABLE, &mut self.trans_dep),
            (ANNOT_TABLE, &mut self.annot),
            (PROV_TABLE, &mut self.prov),
        ];
        let Some((_, rows)) =
            (tables.into_iter()).find(|(name, _)| name.eq_ignore_ascii_case(&rec.table))
        else {
            return;
        };
        match &rec.op {
            RepairOp::Insert { address, row } => {
                let updates = Vec::new();
                rows.insert(address.literal(), TrackingRow { row, updates });
            }
            RepairOp::Delete { address, .. } => {
                rows.remove(&address.literal());
            }
            RepairOp::Update { address, after, .. } => {
                if let Some(live) = rows.get_mut(&address.literal()) {
                    live.updates.push(after);
                }
            }
            RepairOp::Commit | RepairOp::Abort => {}
        }
    }

    /// The online (read) dependencies: `trans_dep` joined with
    /// `trans_dep_prov` on `(tr_id, dep)`, each pair named in `trans_dep`
    /// taking every provenance row of the pair, or one unknown-table edge
    /// when it has none (no rule prunes it); then the `annot` labels.
    fn read_deps(&self, graph: &mut DepGraph) {
        // One provenance per distinct raw `(via_table, read_cols)` text;
        // a pair's provenance keeps its row order.
        let mut interned: HashMap<(&str, &str), EdgeProvenance> = HashMap::new();
        let mut prov: HashMap<(i64, i64), Vec<EdgeProvenance>> = HashMap::new();
        for row in self.prov.values() {
            let (Some(tr), Some(dep), Some(table), Some(cols)) = (
                row.int("tr_id"),
                row.int("dep_tr_id"),
                row.str("via_table"),
                row.str("read_cols"),
            ) else {
                continue;
            };
            let p = interned.entry((table, cols)).or_insert_with(|| {
                let read_columns = (cols.split(',').filter(|s| !s.is_empty()))
                    .map(str::to_string)
                    .collect();
                EdgeProvenance {
                    table: table.into(),
                    kind: EdgeKind::Read { read_columns },
                }
            });
            prov.entry((tr, dep)).or_default().push(p.clone());
        }
        let unknown = [EdgeProvenance {
            table: Arc::default(),
            kind: EdgeKind::Write,
        }];
        for row in self.trans_dep.values() {
            let (Some(tr), Some(deps)) = (row.int("tr_id"), row.str("dep_tr_ids")) else {
                continue;
            };
            for dep in deps.split_whitespace().filter_map(|d| d.parse().ok()) {
                for p in prov.get(&(tr, dep)).map_or(&unknown[..], Vec::as_slice) {
                    graph.add_edge(tr, dep, p.clone());
                }
            }
        }
        for row in self.annot.values() {
            if let (Some(tr), Some(descr)) = (row.int("tr_id"), row.str("descr")) {
                graph.set_label(tr, descr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use resildb_engine::Lsn;

    use super::*;
    use crate::record::RowAddress;

    fn rec(lsn: u64, txn: u64, table: &str, op: RepairOp) -> RepairRecord {
        RepairRecord {
            lsn: Lsn(lsn),
            internal_txn: InternalTxnId(txn),
            table: table.into(),
            op,
        }
    }

    fn row(cols: &[(&str, Value)]) -> NamedRow {
        cols.iter()
            .map(|(c, v)| (c.to_string(), v.clone()))
            .collect()
    }

    fn trans_dep(lsn: u64, txn: u64, address: i64, tr: i64, deps: &str) -> RepairRecord {
        let row = row(&[("tr_id", Value::Int(tr)), ("dep_tr_ids", deps.into())]);
        let address = RowAddress::Identity(address);
        rec(lsn, txn, "trans_dep", RepairOp::Insert { address, row })
    }

    fn end(lsn: u64, txn: u64, op: RepairOp) -> RepairRecord {
        rec(lsn, txn, "", op)
    }

    #[test]
    fn only_committed_tracking_writes_count() {
        let records = [
            trans_dep(0, 1, 1, 5, "1"),
            end(1, 1, RepairOp::Abort),
            trans_dep(2, 2, 2, 6, "2"),
            trans_dep(3, 3, 3, 7, "3"),
            end(4, 2, RepairOp::Commit),
        ];
        let graph = dependency_graph(&records, &TxnCorrelation::default());
        assert_eq!(graph.transactions(), [2, 6].into_iter().collect());
    }

    #[test]
    fn committed_deletes_retract_and_updates_patch() {
        let annot = |descr: &str| row(&[("tr_id", Value::Int(6)), ("descr", descr.into())]);
        let address = RowAddress::Identity(1);
        let records = [
            trans_dep(0, 1, 1, 6, "2"),
            rec(
                1,
                1,
                "annot",
                RepairOp::Insert {
                    address,
                    row: annot("a"),
                },
            ),
            end(2, 1, RepairOp::Commit),
            rec(
                3,
                2,
                "trans_dep",
                RepairOp::Delete {
                    address,
                    row: NamedRow::default(),
                },
            ),
            rec(
                4,
                2,
                "annot",
                RepairOp::Update {
                    address,
                    before: row(&[("descr", "a".into())]),
                    after: row(&[("descr", "b".into())]),
                },
            ),
            end(5, 2, RepairOp::Commit),
        ];
        let before = dependency_graph(&records[..3], &TxnCorrelation::default());
        assert_eq!(before.dependencies_of(6), [2].into_iter().collect());
        assert_eq!(before.label(6), "a");
        let after = dependency_graph(&records, &TxnCorrelation::default());
        assert!(after.dependencies_of(6).is_empty());
        assert_eq!(after.label(6), "b");
    }
}
