//! What a SELECT harvests: the one decision the rewriting proxy carries
//! out and the classifier judges.
//!
//! Paper Table 1 appends each FROM table's `trid` to a SELECT, so the
//! proxy can record the last writers of the rows read as the reader's
//! dependencies. [`select_harvest`] decides, once per statement, whether
//! anything is appended and what. The proxy's rewriter appends exactly the
//! returned list and forwards every other SELECT as sent;
//! [`crate::classify_statement`] derives `U-AGG`, `U-DISTINCT` and
//! `D-COL-FALLBACK` from the same result.

use resildb_sql::{ColumnRef, Select, SelectItem};

use crate::columns::{is_tracking_column, is_tracking_table, COLUMN_TRID_PREFIX, TRID_COLUMN};
use crate::verdict::{Granularity, Reason};

/// One stamp column a rewritten SELECT appends, with the provenance the
/// proxy records for the dependencies it yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarvestSource {
    /// FROM binding (alias, else table name) the stamp is read through.
    pub binding: String,
    /// Table whose stamp is harvested (lower-cased).
    pub table: String,
    /// The stamp column: `trid`, or `trid__<col>` at column granularity.
    pub stamp: String,
    /// Columns of that table the statement touches (projection and
    /// predicates; the one stamped column for a `trid__<col>` stamp): the
    /// provenance false-dependency filtering needs (paper §5.3).
    pub read_columns: Vec<String>,
}

/// What [`select_harvest`] decides for one SELECT. Every variant but
/// [`Harvest::Sources`] means "append nothing, forward as sent".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Harvest {
    /// No FROM clause (`SELECT 1`): reads no table, induces no dependency.
    NoFrom,
    /// Aggregate or `GROUP BY` ([`Reason::AggregateRead`]), DISTINCT
    /// ([`Reason::DistinctRead`]), or both: per-row stamps would change
    /// the result, so the read dependencies are lost (the paper's
    /// documented limitation).
    Lost(Vec<Reason>),
    /// Every FROM table is a tracking table: they carry no stamps, and
    /// reading them induces no dependency.
    TrackingTablesOnly,
    /// The stamp columns to append, in order: one per user-table binding,
    /// or at column granularity one per column it reads.
    Sources(Vec<HarvestSource>),
}

/// Whether the SELECT aggregates (an aggregate item or `GROUP BY`).
fn select_has_aggregate(sel: &Select) -> bool {
    !sel.group_by.is_empty()
        || sel.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        })
}

/// Columns of `binding` referenced anywhere in the statement (projection,
/// WHERE, ORDER BY), tracking columns excepted. Unqualified references are
/// attributed to every binding, which errs toward keeping dependencies.
fn columns_read_for(sel: &Select, binding: &str) -> Vec<String> {
    let mut cols: Vec<String> = Vec::new();
    let mut push = |c: &ColumnRef| {
        let attribute = match &c.table {
            Some(t) => t.eq_ignore_ascii_case(binding),
            None => true,
        };
        if attribute {
            let name = c.column.to_ascii_lowercase();
            if !is_tracking_column(&name) && !cols.contains(&name) {
                cols.push(name);
            }
        }
    };
    for item in &sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            for c in expr.referenced_columns() {
                push(&c);
            }
        }
    }
    if let Some(w) = &sel.where_clause {
        for c in w.referenced_columns() {
            push(&c);
        }
    }
    for ob in &sel.order_by {
        for c in ob.expr.referenced_columns() {
            push(&c);
        }
    }
    cols
}

/// What `sel` harvests in a deployment tracking at `granularity`. At
/// column granularity a binding whose read resolves no column (`SELECT *`)
/// harvests the row stamp: the column-granularity fallback.
pub fn select_harvest(sel: &Select, granularity: Granularity) -> Harvest {
    if sel.from.is_empty() {
        return Harvest::NoFrom;
    }
    let mut lost = Vec::new();
    if select_has_aggregate(sel) {
        lost.push(Reason::AggregateRead);
    }
    if sel.distinct {
        lost.push(Reason::DistinctRead);
    }
    if !lost.is_empty() {
        return Harvest::Lost(lost);
    }
    let mut sources = Vec::with_capacity(sel.from.len());
    for t in sel.from.iter().filter(|t| !is_tracking_table(&t.name)) {
        let binding = t.binding_name();
        let table = t.name.to_ascii_lowercase();
        let read_columns = columns_read_for(sel, binding);
        let source = |stamp: String, read_columns| HarvestSource {
            binding: binding.to_string(),
            table: table.clone(),
            stamp,
            read_columns,
        };
        if granularity == Granularity::Column && !read_columns.is_empty() {
            // The dependency is on each column's last writer, not the row's.
            sources.extend(
                (read_columns.iter())
                    .map(|c| source(format!("{COLUMN_TRID_PREFIX}{c}"), vec![c.clone()])),
            );
        } else {
            sources.push(source(TRID_COLUMN.to_string(), read_columns));
        }
    }
    if sources.is_empty() {
        Harvest::TrackingTablesOnly
    } else {
        Harvest::Sources(sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resildb_sql::{parse_statement, Statement};

    fn harvest(sql: &str, granularity: Granularity) -> Harvest {
        match parse_statement(sql).unwrap() {
            Statement::Select(sel) => select_harvest(&sel, granularity),
            _ => unreachable!(),
        }
    }

    #[test]
    fn skips_name_their_reason() {
        for g in [Granularity::Row, Granularity::Column] {
            assert_eq!(harvest("SELECT 1", g), Harvest::NoFrom);
            assert_eq!(
                harvest("SELECT DISTINCT COUNT(*) FROM t", g),
                Harvest::Lost(vec![Reason::AggregateRead, Reason::DistinctRead])
            );
            assert_eq!(
                harvest("SELECT COUNT(*) FROM trans_dep", g),
                Harvest::Lost(vec![Reason::AggregateRead])
            );
            assert_eq!(
                harvest("SELECT a.descr FROM annot a, trans_dep d", g),
                Harvest::TrackingTablesOnly
            );
        }
    }

    #[test]
    fn one_source_per_user_binding_or_column() {
        let sql = "SELECT a.balance, d.dep_tr_ids FROM trans_dep d, account a WHERE a.id = 1";
        let Harvest::Sources(row) = harvest(sql, Granularity::Row) else {
            panic!("a user-table binding is harvested");
        };
        assert_eq!(
            row,
            [HarvestSource {
                binding: "a".into(),
                table: "account".into(),
                stamp: "trid".into(),
                read_columns: vec!["balance".into(), "id".into()],
            }]
        );
        let Harvest::Sources(col) = harvest(sql, Granularity::Column) else {
            panic!("a user-table binding is harvested");
        };
        let stamps: Vec<_> = col
            .iter()
            .map(|s| (&*s.stamp, &s.read_columns[..]))
            .collect();
        assert_eq!(
            stamps,
            [
                ("trid__balance", &["balance".to_string()][..]),
                ("trid__id", &["id".to_string()][..])
            ]
        );
        // A read resolving no column falls back to the row stamp.
        let Harvest::Sources(fallback) = harvest("SELECT * FROM t", Granularity::Column) else {
            panic!("a user-table binding is harvested");
        };
        assert_eq!(fallback[0].stamp, "trid");
        assert!(fallback[0].read_columns.is_empty());
    }
}
