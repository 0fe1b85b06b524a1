//! Pure AST rewriting — the rules of paper Table 1.

use resildb_sql::{
    Assignment, ColumnDef, ColumnRef, CreateTable, Expr, Insert, Select, SelectItem, TypeName,
    Update,
};

use resildb_engine::Flavor;

use crate::config::TrackingGranularity;

// The tracking-column vocabulary is shared with the static analyzer and
// the repair tool; it lives in `resildb-analyze` (the lowest common layer)
// and is re-exported here for the proxy's historical public API.
use resildb_analyze::{columns_read_for, is_tracking_table, select_has_aggregate};
pub use resildb_analyze::{is_tracking_column, COLUMN_TRID_PREFIX, IDENTITY_COLUMN, TRID_COLUMN};

/// Prefix of the aliases given to harvested trid projection items, so the
/// tracker can strip them from results unambiguously.
pub(crate) const HARVEST_ALIAS_PREFIX: &str = "__trid";

/// What a rewritten SELECT will return beyond the client's projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectRewrite {
    /// For each appended harvest column, the (lower-cased) name of the
    /// table whose `trid` it carries, plus the columns of that table the
    /// statement references (projection + predicates) — the provenance
    /// needed for false-dependency filtering (paper §5.3).
    pub harvested: Vec<HarvestSource>,
}

/// Provenance of one harvested trid column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarvestSource {
    /// Table whose `trid` column is harvested.
    pub table: String,
    /// Columns of that table the original statement touches.
    pub read_columns: Vec<String>,
}

/// Why [`rewrite_select`] left a SELECT untouched. Distinguishing the
/// cases matters for soundness accounting: an aggregate or DISTINCT
/// passthrough *loses* read dependencies (the paper's documented
/// limitation), while a FROM-less select never had any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectSkip {
    /// Aggregate or `GROUP BY` query: per-row trids are meaningless under
    /// aggregation, so its reads go untracked.
    Aggregate,
    /// `SELECT DISTINCT`: appending trid columns would change which rows
    /// are duplicates, so its reads go untracked.
    Distinct,
    /// No FROM clause (`SELECT 1`): reads no table, nothing to track.
    NoFrom,
}

/// The outcome of [`rewrite_select`]: either a rewritten statement with
/// its harvest plan, or an explicit record of why the statement was passed
/// through unmodified. Earlier revisions returned `Option` here, which
/// made "rewritten dependencies" and "silently dropped dependencies"
/// indistinguishable to callers.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectOutcome {
    /// The SELECT was rewritten; harvest `plan` describes the appended
    /// trid columns.
    Rewritten {
        /// The rewritten statement.
        select: Select,
        /// Provenance of the appended harvest columns.
        plan: SelectRewrite,
    },
    /// The SELECT is forwarded as-is, for the recorded reason.
    Passthrough(SelectSkip),
}

impl SelectOutcome {
    /// The rewritten parts, for callers that only care about success.
    pub fn rewritten(self) -> Option<(Select, SelectRewrite)> {
        match self {
            SelectOutcome::Rewritten { select, plan } => Some((select, plan)),
            SelectOutcome::Passthrough(_) => None,
        }
    }
}

/// Rewrites a SELECT per Table 1: appends one `t.trid AS __tridN` item per
/// FROM-table, tracking tables excepted (they carry no trid, and reading
/// them induces no dependency). Aggregate/grouped and DISTINCT queries are
/// passed through with an explicit [`SelectSkip`], exactly as in the paper
/// — per-row trids are meaningless under aggregation, a documented source
/// of lost dependencies.
pub fn rewrite_select(sel: &Select, granularity: TrackingGranularity) -> SelectOutcome {
    if select_has_aggregate(sel) {
        return SelectOutcome::Passthrough(SelectSkip::Aggregate);
    }
    if sel.distinct {
        return SelectOutcome::Passthrough(SelectSkip::Distinct);
    }
    if sel.from.is_empty() {
        return SelectOutcome::Passthrough(SelectSkip::NoFrom);
    }
    let mut rewritten = sel.clone();
    let mut harvested = Vec::with_capacity(sel.from.len());
    let mut k = 0;
    let mut append =
        |rewritten: &mut Select, binding: &str, column: &str, source: HarvestSource| {
            rewritten.items.push(SelectItem::Expr {
                expr: Expr::Column(ColumnRef::qualified(
                    binding.to_string(),
                    column.to_string(),
                )),
                alias: Some(format!("{HARVEST_ALIAS_PREFIX}{k}")),
            });
            harvested.push(source);
            k += 1;
        };
    for t in sel.from.iter().filter(|t| !is_tracking_table(&t.name)) {
        let binding = t.binding_name().to_string();
        let table = t.name.to_ascii_lowercase();
        let read_columns = columns_read_for(sel, &binding);
        match granularity {
            TrackingGranularity::Row => append(
                &mut rewritten,
                &binding,
                TRID_COLUMN,
                HarvestSource {
                    table,
                    read_columns,
                },
            ),
            TrackingGranularity::Column if read_columns.is_empty() => {
                // Wildcard-style reads: fall back to the row stamp.
                append(
                    &mut rewritten,
                    &binding,
                    TRID_COLUMN,
                    HarvestSource {
                        table,
                        read_columns,
                    },
                )
            }
            TrackingGranularity::Column => {
                // One harvest per referenced column: the dependency is on
                // that column's last writer, not the row's.
                for col in &read_columns {
                    append(
                        &mut rewritten,
                        &binding,
                        &format!("{COLUMN_TRID_PREFIX}{col}"),
                        HarvestSource {
                            table: table.clone(),
                            read_columns: vec![col.clone()],
                        },
                    );
                }
            }
        }
    }
    SelectOutcome::Rewritten {
        select: rewritten,
        plan: SelectRewrite { harvested },
    }
}

/// Rewrites an UPDATE per Table 1: appends `trid = <trid_expr>` to the SET
/// list (after a `trid__<col>` stamp per assigned column at column
/// granularity). The stamp is an expression: the proxy plans with
/// `Expr::Param(TRID_PARAM)`, a splice slot for the current transaction
/// id; `Expr::int(n)` stamps `n`.
pub(crate) fn rewrite_update(
    upd: &Update,
    trid_expr: Expr,
    granularity: TrackingGranularity,
) -> Update {
    let mut rewritten = upd.clone();
    if granularity == TrackingGranularity::Column {
        // Stamp the per-column last-writer of every assigned column.
        rewritten
            .assignments
            .extend(upd.assignments.iter().map(|a| Assignment {
                column: format!("{COLUMN_TRID_PREFIX}{}", a.column.to_ascii_lowercase()),
                value: trid_expr.clone(),
            }));
    }
    rewritten.assignments.push(Assignment {
        column: TRID_COLUMN.to_string(),
        value: trid_expr,
    });
    rewritten
}

/// Rewrites an INSERT per Table 1: appends the `trid` column and
/// `<trid_expr>` (as in [`rewrite_update`]) to every VALUES tuple. Inserts
/// without a column list have the value appended positionally (the trid
/// column is always appended right after the client's columns by
/// [`rewrite_create_table`]); on flavors with an injected identity column
/// a NULL is appended for it so the engine auto-numbers.
pub(crate) fn rewrite_insert(
    ins: &Insert,
    trid_expr: Expr,
    flavor: Flavor,
    granularity: TrackingGranularity,
) -> Insert {
    let mut rewritten = ins.clone();
    if rewritten.columns.is_empty() {
        // Positional inserts cannot name the per-column stamps (the proxy
        // is schema-less); only the row stamp is appended. Column-level
        // deployments should use explicit column lists.
        for row in &mut rewritten.rows {
            row.push(trid_expr.clone());
            if flavor.rowid_pseudocolumn().is_none() {
                row.push(Expr::Literal(resildb_sql::Literal::Null));
            }
        }
    } else {
        if granularity == TrackingGranularity::Column {
            for col in &ins.columns {
                rewritten
                    .columns
                    .push(format!("{COLUMN_TRID_PREFIX}{}", col.to_ascii_lowercase()));
                for row in &mut rewritten.rows {
                    row.push(trid_expr.clone());
                }
            }
        }
        rewritten.columns.push(TRID_COLUMN.to_string());
        for row in &mut rewritten.rows {
            row.push(trid_expr.clone());
        }
    }
    rewritten
}

/// Rewrites CREATE TABLE: appends `trid INTEGER` (after one
/// `trid__<col> INTEGER` per column at column granularity), and on flavors
/// without a row-id pseudo-column also `rid INTEGER IDENTITY` (paper
/// §4.3's Sybase workaround). The proxy refuses a table that declares a
/// tracking column itself, so the injected names never collide.
pub(crate) fn rewrite_create_table(
    ct: &CreateTable,
    flavor: Flavor,
    granularity: TrackingGranularity,
) -> CreateTable {
    let mut rewritten = ct.clone();
    if granularity == TrackingGranularity::Column {
        rewritten.columns.extend(ct.columns.iter().map(|c| {
            let stamp = format!("{COLUMN_TRID_PREFIX}{}", c.name.to_ascii_lowercase());
            ColumnDef::new(stamp, TypeName::Integer)
        }));
    }
    rewritten
        .columns
        .push(ColumnDef::new(TRID_COLUMN, TypeName::Integer));
    if flavor.rowid_pseudocolumn().is_none() {
        let mut rid = ColumnDef::new(IDENTITY_COLUMN, TypeName::Integer);
        rid.identity = true;
        rewritten.columns.push(rid);
    }
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;
    use resildb_sql::{parse_statement, Statement};

    fn sel(sql: &str) -> Select {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            _ => unreachable!(),
        }
    }

    // ---- the exact rows of paper Table 1 -------------------------------

    #[test]
    fn table1_row1_multi_table_select() {
        let s = sel("SELECT t1.a1, t1.a2, t2.a3 FROM t1, t2 WHERE t1.x = t2.x");
        let (r, plan) = rewrite_select(&s, TrackingGranularity::Row)
            .rewritten()
            .unwrap();
        assert_eq!(
            r.to_string(),
            "SELECT t1.a1, t1.a2, t2.a3, t1.trid AS __trid0, t2.trid AS __trid1 \
             FROM t1, t2 WHERE t1.x = t2.x"
        );
        assert_eq!(plan.harvested.len(), 2);
        assert_eq!(plan.harvested[0].table, "t1");
        assert_eq!(plan.harvested[1].table, "t2");
    }

    #[test]
    fn table1_row2_single_table_select() {
        let s = sel("SELECT t.a FROM t WHERE c = 1");
        let (r, _) = rewrite_select(&s, TrackingGranularity::Row)
            .rewritten()
            .unwrap();
        assert_eq!(
            r.to_string(),
            "SELECT t.a, t.trid AS __trid0 FROM t WHERE c = 1"
        );
    }

    #[test]
    fn table1_row3_aggregate_select_unchanged() {
        let s = sel("SELECT SUM(t.a) FROM t WHERE c = 1 GROUP BY t.b");
        assert_eq!(
            rewrite_select(&s, TrackingGranularity::Row),
            SelectOutcome::Passthrough(SelectSkip::Aggregate),
            "aggregates are not rewritten"
        );
        // Plain aggregates without GROUP BY are also left alone.
        let s2 = sel("SELECT COUNT(*) FROM t");
        assert_eq!(
            rewrite_select(&s2, TrackingGranularity::Row),
            SelectOutcome::Passthrough(SelectSkip::Aggregate)
        );
    }

    #[test]
    fn table1_row4_update_gains_trid_assignment() {
        let Statement::Update(u) =
            parse_statement("UPDATE t SET a1 = 1, a2 = 'v' WHERE c = 1").unwrap()
        else {
            unreachable!()
        };
        let r = rewrite_update(&u, Expr::int(42), TrackingGranularity::Row);
        assert_eq!(
            r.to_string(),
            "UPDATE t SET a1 = 1, a2 = 'v', trid = 42 WHERE c = 1"
        );
    }

    #[test]
    fn table1_row5_insert_gains_trid_column() {
        let Statement::Insert(i) =
            parse_statement("INSERT INTO t (a1, a2) VALUES (1, 'v')").unwrap()
        else {
            unreachable!()
        };
        let r = rewrite_insert(
            &i,
            Expr::int(42),
            Flavor::Postgres,
            TrackingGranularity::Row,
        );
        assert_eq!(
            r.to_string(),
            "INSERT INTO t (a1, a2, trid) VALUES (1, 'v', 42)"
        );
    }

    // ---- additional behaviour ------------------------------------------

    #[test]
    fn select_with_alias_uses_alias_for_trid() {
        let s = sel("SELECT c.c_balance FROM customer c WHERE c.c_id = 7");
        let (r, plan) = rewrite_select(&s, TrackingGranularity::Row)
            .rewritten()
            .unwrap();
        assert!(r.to_string().contains("c.trid AS __trid0"));
        assert_eq!(plan.harvested[0].table, "customer");
    }

    #[test]
    fn provenance_captures_read_columns() {
        let s = sel("SELECT w.w_tax FROM warehouse w WHERE w.w_id = 3 ORDER BY w.w_name");
        let (_, plan) = rewrite_select(&s, TrackingGranularity::Row)
            .rewritten()
            .unwrap();
        assert_eq!(
            plan.harvested[0].read_columns,
            vec!["w_tax", "w_id", "w_name"]
        );
    }

    #[test]
    fn unqualified_columns_attributed_to_all_tables() {
        let s = sel("SELECT a FROM t1, t2 WHERE b = 1");
        let (_, plan) = rewrite_select(&s, TrackingGranularity::Row)
            .rewritten()
            .unwrap();
        assert_eq!(plan.harvested[0].read_columns, vec!["a", "b"]);
        assert_eq!(plan.harvested[1].read_columns, vec!["a", "b"]);
    }

    #[test]
    fn insert_without_column_list_appends_positionally() {
        let Statement::Insert(i) = parse_statement("INSERT INTO t VALUES (1, 'v')").unwrap() else {
            unreachable!()
        };
        let pg = rewrite_insert(&i, Expr::int(7), Flavor::Postgres, TrackingGranularity::Row);
        assert_eq!(pg.to_string(), "INSERT INTO t VALUES (1, 'v', 7)");
        let syb = rewrite_insert(&i, Expr::int(7), Flavor::Sybase, TrackingGranularity::Row);
        assert_eq!(syb.to_string(), "INSERT INTO t VALUES (1, 'v', 7, NULL)");
    }

    #[test]
    fn multi_row_insert_stamps_every_tuple() {
        let Statement::Insert(i) = parse_statement("INSERT INTO t (a) VALUES (1), (2)").unwrap()
        else {
            unreachable!()
        };
        let r = rewrite_insert(&i, Expr::int(9), Flavor::Oracle, TrackingGranularity::Row);
        assert_eq!(
            r.to_string(),
            "INSERT INTO t (a, trid) VALUES (1, 9), (2, 9)"
        );
    }

    #[test]
    fn create_table_gains_trid_and_sybase_identity() {
        let Statement::CreateTable(ct) =
            parse_statement("CREATE TABLE t (a INTEGER PRIMARY KEY)").unwrap()
        else {
            unreachable!()
        };
        let pg = rewrite_create_table(&ct, Flavor::Postgres, TrackingGranularity::Row);
        assert_eq!(
            pg.to_string(),
            "CREATE TABLE t (a INTEGER PRIMARY KEY, trid INTEGER)"
        );
        let syb = rewrite_create_table(&ct, Flavor::Sybase, TrackingGranularity::Row);
        assert_eq!(
            syb.to_string(),
            "CREATE TABLE t (a INTEGER PRIMARY KEY, trid INTEGER, rid INTEGER IDENTITY)"
        );
    }

    #[test]
    fn distinct_select_is_not_rewritten() {
        let s = sel("SELECT DISTINCT ol_i_id FROM order_line WHERE ol_w_id = 1");
        let out = rewrite_select(&s, TrackingGranularity::Row);
        assert_eq!(out, SelectOutcome::Passthrough(SelectSkip::Distinct));
    }

    #[test]
    fn select_without_from_is_not_rewritten() {
        let s = sel("SELECT 1");
        let out = rewrite_select(&s, TrackingGranularity::Row);
        assert_eq!(out, SelectOutcome::Passthrough(SelectSkip::NoFrom));
    }

    // ---- column-level tracking (§6 extension) --------------------------

    #[test]
    fn column_level_select_harvests_per_column_stamps() {
        let s = sel("SELECT w.w_tax FROM warehouse w WHERE w.w_id = 3");
        let (r, plan) = rewrite_select(&s, TrackingGranularity::Column)
            .rewritten()
            .unwrap();
        assert_eq!(
            r.to_string(),
            "SELECT w.w_tax, w.trid__w_tax AS __trid0, w.trid__w_id AS __trid1 FROM warehouse w WHERE w.w_id = 3"
        );
        assert_eq!(plan.harvested.len(), 2);
        assert_eq!(plan.harvested[0].read_columns, vec!["w_tax"]);
        assert_eq!(plan.harvested[1].read_columns, vec!["w_id"]);
    }

    #[test]
    fn column_level_wildcard_falls_back_to_row_stamp() {
        let s = sel("SELECT * FROM t");
        let (r, plan) = rewrite_select(&s, TrackingGranularity::Column)
            .rewritten()
            .unwrap();
        assert!(r.to_string().contains("t.trid AS __trid0"));
        assert_eq!(plan.harvested.len(), 1);
    }

    #[test]
    fn column_level_update_stamps_assigned_columns() {
        let Statement::Update(u) =
            parse_statement("UPDATE w SET w_ytd = w_ytd + 5 WHERE w_id = 1").unwrap()
        else {
            unreachable!()
        };
        let r = rewrite_update(&u, Expr::int(7), TrackingGranularity::Column);
        assert_eq!(
            r.to_string(),
            "UPDATE w SET w_ytd = w_ytd + 5, trid__w_ytd = 7, trid = 7 WHERE w_id = 1"
        );
    }

    #[test]
    fn column_level_insert_stamps_listed_columns() {
        let Statement::Insert(i) = parse_statement("INSERT INTO t (a, b) VALUES (1, 2)").unwrap()
        else {
            unreachable!()
        };
        let r = rewrite_insert(
            &i,
            Expr::int(5),
            Flavor::Postgres,
            TrackingGranularity::Column,
        );
        assert_eq!(
            r.to_string(),
            "INSERT INTO t (a, b, trid__a, trid__b, trid) VALUES (1, 2, 5, 5, 5)"
        );
    }

    #[test]
    fn column_level_create_table_adds_stamp_columns() {
        let Statement::CreateTable(ct) =
            parse_statement("CREATE TABLE t (a INTEGER PRIMARY KEY, b FLOAT)").unwrap()
        else {
            unreachable!()
        };
        let r = rewrite_create_table(&ct, Flavor::Postgres, TrackingGranularity::Column);
        assert_eq!(
            r.to_string(),
            "CREATE TABLE t (a INTEGER PRIMARY KEY, b FLOAT, trid__a INTEGER, trid__b INTEGER, trid INTEGER)"
        );
    }

    #[test]
    fn tracking_column_predicate() {
        assert!(is_tracking_column("trid"));
        assert!(is_tracking_column("TRID__w_ytd"));
        assert!(is_tracking_column("rid"));
        assert!(!is_tracking_column("w_ytd"));
        assert!(!is_tracking_column("trident"));
    }
}
