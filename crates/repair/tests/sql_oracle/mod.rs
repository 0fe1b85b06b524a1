//! The dependency graph as analysis built it when it still read the
//! tracking tables through SQL: the three `SELECT`s and the hash join
//! of `trans_dep` with `trans_dep_prov`, plus the write dependencies
//! reconstructed from the scanned log. Kept as the reference the log fold
//! is held to; production analysis reads only the log.

use std::collections::HashMap;
use std::sync::Arc;

use resildb_engine::{Database, Value};
use resildb_repair::{
    Analysis, DepGraph, EdgeKind, EdgeProvenance, RepairOp, RepairRecord, TxnCorrelation,
};

/// The graph the SQL view of `db`'s tracking tables and the log `records`
/// give, with edges added in the order the fold adds them: log-derived
/// first, then the join, then the labels.
pub fn sql_graph(
    db: &Database,
    records: &[RepairRecord],
    correlation: &TxnCorrelation,
) -> DepGraph {
    let mut graph = DepGraph::new();
    log_write_deps(&mut graph, records, correlation);

    // 1. Online (read) dependencies from trans_dep + provenance.
    let mut session = db.session();
    let prov_rows = session
        .query("SELECT tr_id, dep_tr_id, via_table, read_cols FROM trans_dep_prov")
        .unwrap();
    // (tr_id, dep_tr_id) → [(mediating table, columns read)], plus how
    // many trans_dep entries name the pair: the last one moves the
    // provenance into the graph, any earlier one copies it.
    type ProvMap = HashMap<(i64, i64), (Vec<(String, Vec<String>)>, usize)>;
    let mut prov: ProvMap = HashMap::new();
    for row in prov_rows.rows {
        if let Ok([Value::Int(tr), Value::Int(dep), Value::Str(table), Value::Str(cols)]) =
            <[Value; 4]>::try_from(row)
        {
            prov.entry((tr, dep)).or_default().0.push((
                table,
                cols.split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect(),
            ));
        }
    }
    let dep_rows = session
        .query("SELECT tr_id, dep_tr_ids FROM trans_dep")
        .unwrap();
    let pairs: Vec<(i64, i64)> = (dep_rows.rows.iter())
        .filter_map(|row| match (&row[0], &row[1]) {
            (Value::Int(tr), Value::Str(deps)) => Some((*tr, deps)),
            _ => None,
        })
        .flat_map(|(tr, deps)| {
            (deps.split_whitespace())
                .filter_map(move |dep| dep.parse::<i64>().ok().map(|dep| (tr, dep)))
        })
        .collect();
    for pair in &pairs {
        if let Some((_, uses)) = prov.get_mut(pair) {
            *uses += 1;
        }
    }
    for (tr, dep) in pairs {
        match prov.get_mut(&(tr, dep)) {
            Some((sources, uses)) => {
                *uses -= 1;
                let sources = if *uses == 0 {
                    std::mem::take(sources)
                } else {
                    sources.clone()
                };
                for (table, read_columns) in sources {
                    let kind = EdgeKind::Read {
                        read_columns: read_columns.into(),
                    };
                    let table = table.into();
                    graph.add_edge(tr, dep, EdgeProvenance { table, kind });
                }
            }
            None => {
                // No provenance recorded: keep the edge with an
                // unknown-table marker (it always survives rules).
                graph.add_edge(
                    tr,
                    dep,
                    EdgeProvenance {
                        table: Arc::from(""),
                        kind: EdgeKind::Write,
                    },
                );
            }
        }
    }

    // 2. Labels from annot.
    let annot_rows = session.query("SELECT tr_id, descr FROM annot").unwrap();
    for row in &annot_rows.rows {
        if let (Value::Int(tr), Value::Str(descr)) = (&row[0], &row[1]) {
            graph.set_label(*tr, descr.clone());
        }
    }
    graph
}

/// [`sql_graph`] of a fresh `analysis` of `db`.
pub fn sql_graph_of(db: &Database, analysis: &Analysis) -> DepGraph {
    sql_graph(db, &analysis.records, &analysis.correlation)
}

/// Log-reconstructed dependencies (updates/deletes) and writer column
/// notes for false-dependency evaluation.
fn log_write_deps(graph: &mut DepGraph, records: &[RepairRecord], correlation: &TxnCorrelation) {
    for rec in records {
        let Some(proxy) = correlation.proxy_id(rec.internal_txn) else {
            continue; // uncommitted or untracked transaction
        };
        if rec.table.is_empty() || resildb_proxy::is_tracking_table(&rec.table) {
            continue;
        }
        match &rec.op {
            RepairOp::Insert { .. } => graph.note_writer_insert(proxy, &rec.table),
            RepairOp::Update { after, .. } => graph.note_writer_columns(
                proxy,
                &rec.table,
                (after.iter().map(|(c, _)| c)).filter(|c| !resildb_proxy::is_tracking_column(c)),
            ),
            _ => {}
        }
        // Reconstruct the overwrite dependency from the pre-image. Under
        // column-level tracking the pre-image carries one `trid__<col>`
        // stamp per overwritten column, giving precise per-column edges;
        // otherwise fall back to the row `trid`.
        let before = match &rec.op {
            RepairOp::Update { before, .. } => Some(before),
            RepairOp::Delete { row, .. } => Some(row),
            _ => None,
        };
        if let Some(image) = before {
            let mut column_edges = 0;
            for (name, value) in image.iter() {
                let Some(col) = name.strip_prefix(resildb_proxy::COLUMN_TRID_PREFIX) else {
                    continue;
                };
                if let Value::Int(dep) = value {
                    column_edges += 1;
                    if *dep > 0 && *dep != proxy {
                        graph.add_edge(
                            proxy,
                            *dep,
                            EdgeProvenance {
                                table: rec.table.clone(),
                                kind: EdgeKind::Read {
                                    read_columns: vec![col.to_string()].into(),
                                },
                            },
                        );
                    }
                }
            }
            if column_edges == 0 {
                if let Some(dep) = rec.before_trid() {
                    if dep > 0 && dep != proxy {
                        graph.add_edge(
                            proxy,
                            dep,
                            EdgeProvenance {
                                table: rec.table.clone(),
                                kind: EdgeKind::Write,
                            },
                        );
                    }
                }
            }
        }
    }
}
