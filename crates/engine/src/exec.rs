//! Statement execution: SELECT/INSERT/UPDATE/DELETE over the catalog.
//!
//! Every read of a table — a SELECT's rows, the rows an UPDATE or DELETE
//! will touch, `FOR UPDATE` — goes **bind → plan → probe → filter on the
//! image → materialise survivors** (DESIGN.md §9): names are resolved once
//! per statement ([`bind`]), [`plan_access`] picks the narrowest
//! [`AccessPath`] the predicate allows, [`Table::walk`] follows it, the
//! whole predicate is evaluated against each borrowed row image
//! ([`ImageScope`] decodes only the columns it is asked for), and only a
//! row that passes is turned into values.

use std::collections::HashMap;
use std::ops::Bound;

use resildb_sim::SimContext;
use resildb_sql::{BinaryOp, Expr, Select, SelectItem, Statement};

use crate::catalog::{Catalog, TableHandle};
use crate::error::{EngineError, Result};
use crate::expr::{
    apply_binary, apply_unary, bind, eval, eval_const, is_aggregate_fn, Binding, BoundExpr,
    ColumnSlot, Scope,
};
use crate::flavor::Flavor;
use crate::lock::{LockManager, ResourceId};
use crate::row::{Row, RowId, RowView};
use crate::schema::TableSchema;
use crate::table::{encode_key_part, index_key, AccessPath, Table};
use crate::value::{DataType, Value};
use crate::wal::{stage_check, InternalTxnId, LogOp};

use parking_lot::RwLock;

/// Rows returned by a query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names (aliases respected).
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// The single value of a 1×1 result, if the shape matches.
    pub fn scalar(&self) -> Option<&Value> {
        match (&self.rows[..], self.rows.first()) {
            ([_], Some(row)) if row.len() == 1 => row.first(),
            _ => None,
        }
    }
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// A SELECT produced rows.
    Rows(QueryResult),
    /// A DML statement affected this many rows.
    Affected(u64),
    /// DDL completed.
    Ddl,
    /// BEGIN/COMMIT/ROLLBACK completed.
    TxnControl,
}

impl ExecOutcome {
    /// The query result, if this outcome carries rows.
    pub fn rows(&self) -> Option<&QueryResult> {
        match self {
            ExecOutcome::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// The affected-row count, if this was DML.
    pub fn affected(&self) -> Option<u64> {
        match self {
            ExecOutcome::Affected(n) => Some(*n),
            _ => None,
        }
    }
}

/// Inverse operations collected while a transaction runs, applied in
/// reverse order on rollback.
#[derive(Debug, Clone)]
pub enum UndoAction {
    /// Undo an insert: delete `rowid`.
    UnInsert {
        /// Table name.
        table: String,
        /// Row to remove.
        rowid: RowId,
    },
    /// Undo a delete: re-insert the saved image under its original id, at
    /// the physical slot it occupied ([`crate::Table::restore_at`]).
    /// Restoring the location matters: an aborted transaction publishes no
    /// log records, so any layout change it left behind would be invisible
    /// to the Sybase offset recovery of paper §4.3.
    ReInsert {
        /// Table name.
        table: String,
        /// Original row id.
        rowid: RowId,
        /// Saved pre-delete image.
        row: Row,
        /// Physical location the row occupied before the delete.
        loc: crate::table::RowLocation,
        /// The row that preceded it on its page, if any.
        after: Option<RowId>,
    },
    /// Undo an update: restore the before-image.
    UnUpdate {
        /// Table name.
        table: String,
        /// Updated row id.
        rowid: RowId,
        /// Saved pre-update image.
        before: Row,
    },
}

/// Everything a statement needs from the database.
pub(crate) struct StmtCtx<'a> {
    pub catalog: &'a RwLock<Catalog>,
    pub locks: &'a LockManager,
    pub sim: &'a SimContext,
    pub flavor: Flavor,
    pub txn: InternalTxnId,
    pub undo: &'a mut Vec<UndoAction>,
    /// Transaction-local redo staging: each record pays its byte cost and
    /// failpoint at statement time via [`stage_check`], then waits here for
    /// commit-time publication under the group-commit ticket.
    pub redo: &'a mut Vec<LogOp>,
}

/// One joined row: per binding, the row id and values.
type JoinedRow = Vec<(RowId, Row)>;

/// Scope over materialised rows, one per binding: a joined row, or the
/// single current row of an UPDATE/DELETE.
struct RowsScope<'a>(&'a [(RowId, Row)]);

impl Scope for RowsScope<'_> {
    fn value(&self, binding: usize, slot: ColumnSlot) -> Result<Value> {
        let (rid, row) = &self.0[binding];
        Ok(match slot {
            ColumnSlot::Column(i) => row.0[i].clone(),
            ColumnSlot::RowId => Value::Int(rid.0 as i64),
        })
    }
}

/// Scope over one stored row image of the table being walked (the only
/// binding its predicate can read): a column is decoded when asked for.
struct ImageScope<'a> {
    rid: RowId,
    view: RowView<'a>,
}

impl Scope for ImageScope<'_> {
    fn value(&self, _binding: usize, slot: ColumnSlot) -> Result<Value> {
        match slot {
            ColumnSlot::Column(i) => self.view.column(i),
            ColumnSlot::RowId => Ok(Value::Int(self.rid.0 as i64)),
        }
    }
}

/// Opens `table` under the name the statement uses for it.
fn open_table<'a>(
    catalog: &Catalog,
    table: &str,
    name: &'a str,
) -> Result<(TableHandle, Binding<'a>)> {
    let handle = catalog.get(table)?;
    let binding = {
        let table = handle.read();
        Binding {
            name,
            object_id: table.object_id(),
            schema: table.shared_schema(),
        }
    };
    Ok((handle, binding))
}

/// Binds a WHERE clause as its top-level AND conjuncts.
fn bind_conjuncts(
    where_clause: Option<&Expr>,
    bindings: &[Binding<'_>],
    flavor: Flavor,
) -> Result<Vec<BoundExpr>> {
    fn split<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
        if let Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } = expr
        {
            split(left, out);
            split(right, out);
        } else {
            out.push(expr);
        }
    }
    let mut conjuncts = Vec::new();
    if let Some(w) = where_clause {
        split(w, &mut conjuncts);
    }
    conjuncts
        .into_iter()
        .map(|c| bind(c, bindings, flavor))
        .collect()
}

/// Whether every conjunct is true of the scope's row (UNKNOWN is not).
fn passes(conjuncts: &[BoundExpr], scope: &dyn Scope) -> Result<bool> {
    for c in conjuncts {
        if !eval(c, scope)?.is_truthy() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// `column <op> literal`, written either way round, as seen from the column.
fn column_vs_literal(expr: &BoundExpr) -> Option<(ColumnSlot, BinaryOp, &Value)> {
    let BoundExpr::Binary { left, op, right } = expr else {
        return None;
    };
    match (&**left, &**right) {
        (BoundExpr::Column { slot, .. }, BoundExpr::Const(v)) => Some((*slot, *op, v)),
        (BoundExpr::Const(v), BoundExpr::Column { slot, .. }) => {
            let flipped = match op {
                BinaryOp::Lt => BinaryOp::Gt,
                BinaryOp::LtEq => BinaryOp::GtEq,
                BinaryOp::Gt => BinaryOp::Lt,
                BinaryOp::GtEq => BinaryOp::LtEq,
                other => *other,
            };
            Some((*slot, flipped, v))
        }
        _ => None,
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only: statements on this thread reach keyed tables by walking
    /// the *whole* primary-key index instead of the planned part of it, and
    /// never stop a walk early — the reference the differential tests hold
    /// the planner against. Same row order, every row examined.
    pub(crate) static WHOLE_INDEX_WALKS: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

fn whole_index_walks() -> bool {
    #[cfg(test)]
    return WHOLE_INDEX_WALKS.get();
    #[cfg(not(test))]
    false
}

/// How one table of a statement is read.
struct Plan<'a> {
    path: AccessPath<'a>,
    /// Leading key columns `path` pins by equality; a keyed walk yields
    /// rows ordered by the key columns after them.
    eq_cols: usize,
}

/// Plan: the narrowest access path `conjuncts` (all local to one table of
/// `schema`) allow. Only top-level `column <op> literal`, `BETWEEN` and
/// `IN` conjuncts are considered, and only with literals that have an exact
/// value of the column's type ([`Value::key_literal`]); anything else —
/// `a = 1.5` on an INTEGER key, an OR, an expression — is left to the
/// filter, which re-checks *every* conjunct on every row the path reaches:
/// all a path has to guarantee is that it misses no matching row.
///
/// Without equality on the first key column the statement scans the heap:
/// an unordered result must keep the order it always had, and that is
/// storage order there, key order everywhere else.
fn plan_access<'a>(conjuncts: &'a [BoundExpr], schema: &TableSchema) -> Plan<'a> {
    let compared = |column: usize| {
        conjuncts
            .iter()
            .filter_map(column_vs_literal)
            .filter(move |(slot, _, _)| *slot == ColumnSlot::Column(column))
    };
    for c in conjuncts {
        if let Some((ColumnSlot::RowId, BinaryOp::Eq, Value::Int(rid))) = column_vs_literal(c) {
            return Plan {
                path: AccessPath::RowId(RowId(*rid as u64)),
                eq_cols: 0,
            };
        }
    }
    let pk = &schema.primary_key;
    let mut key = Vec::new();
    let mut eq_cols = 0;
    for &column in pk {
        let ty = schema.columns[column].ty;
        let Some(v) = compared(column)
            .filter(|(_, op, _)| *op == BinaryOp::Eq)
            .find_map(|(_, _, v)| v.key_literal(ty))
        else {
            break;
        };
        encode_key_part(&v, &mut key);
        eq_cols += 1;
    }
    let path = if eq_cols == 0 {
        AccessPath::FullScan
    } else if whole_index_walks() {
        eq_cols = 0;
        AccessPath::Prefix(Vec::new())
    } else if eq_cols == pk.len() {
        AccessPath::Point(key)
    } else {
        next_column_path(conjuncts, schema, pk[eq_cols], key)
    };
    Plan { path, eq_cols }
}

/// The keyed path for an equality prefix `key` given what the conjuncts say
/// about the next key column: an `IN` set, range bounds, or nothing.
fn next_column_path<'a>(
    conjuncts: &'a [BoundExpr],
    schema: &TableSchema,
    column: usize,
    key: Vec<u8>,
) -> AccessPath<'a> {
    let ty = schema.columns[column].ty;
    // Floats serve equality only: -0.0 = 0.0 and NaN have no place in a
    // byte-ordered range.
    if ty == DataType::Float {
        return AccessPath::Prefix(key);
    }
    let (mut lo, mut hi) = (Bound::Unbounded, Bound::Unbounded);
    // The first bound found on each side narrows the path; any further one
    // is still applied by the filter.
    let bound = |side: &mut Bound<Value>, v: &Value, inclusive: bool| {
        if let (Bound::Unbounded, Some(v)) = (&*side, v.key_literal(ty)) {
            *side = if inclusive {
                Bound::Included(v)
            } else {
                Bound::Excluded(v)
            };
        }
    };
    for c in conjuncts {
        match c {
            BoundExpr::InSet {
                column: col,
                set,
                negated: false,
                ..
            } if *col == column => return AccessPath::In(key, set),
            BoundExpr::Between {
                expr,
                low,
                high,
                negated: false,
            } => {
                if let (
                    BoundExpr::Column {
                        slot: ColumnSlot::Column(col),
                        ..
                    },
                    BoundExpr::Const(l),
                    BoundExpr::Const(h),
                ) = (&**expr, &**low, &**high)
                {
                    if *col == column {
                        bound(&mut lo, l, true);
                        bound(&mut hi, h, true);
                    }
                }
            }
            _ => match column_vs_literal(c) {
                Some((ColumnSlot::Column(col), op, v)) if col == column => match op {
                    BinaryOp::Gt => bound(&mut lo, v, false),
                    BinaryOp::GtEq => bound(&mut lo, v, true),
                    BinaryOp::Lt => bound(&mut hi, v, false),
                    BinaryOp::LtEq => bound(&mut hi, v, true),
                    _ => {}
                },
                _ => {}
            },
        }
    }
    if matches!((&lo, &hi), (Bound::Unbounded, Bound::Unbounded)) {
        AccessPath::Prefix(key)
    } else {
        AccessPath::Range(key, lo, hi)
    }
}

/// Whether walking `plan` already yields rows in `order_by` order, so that
/// `LIMIT n` may stop after `n` survivors instead of sort-then-truncate:
/// `Some(reverse)` if so. A keyed walk is ordered by the key columns after
/// its equality prefix, ties in key order — which is what the stable sort
/// produces from the same rows when ascending. Descending, ties would come
/// out reversed, so the ordered columns must complete the key (no ties).
fn walk_order(
    plan: &Plan<'_>,
    order_by: &[(BoundExpr, bool)],
    schema: &TableSchema,
) -> Option<bool> {
    let Some((_, desc)) = order_by.first() else {
        return Some(false);
    };
    if whole_index_walks() {
        return None;
    }
    match plan.path {
        // At most one row.
        AccessPath::RowId(_) | AccessPath::Point(_) => return Some(false),
        AccessPath::FullScan => return None,
        AccessPath::Prefix(_) | AccessPath::In(..) | AccessPath::Range(..) => {}
    }
    let ordered = schema.primary_key.get(plan.eq_cols..)?;
    if order_by.len() > ordered.len() || (*desc && order_by.len() < ordered.len()) {
        return None;
    }
    for ((expr, d), &column) in order_by.iter().zip(ordered) {
        let on_column = matches!(
            expr,
            BoundExpr::Column { slot: ColumnSlot::Column(c), .. } if *c == column
        );
        // The sort compares floats numerically (and treats NaN as equal to
        // everything); the index compares their bytes.
        if !on_column || d != desc || schema.columns[column].ty == DataType::Float {
            return None;
        }
    }
    Some(*desc)
}

/// Probe and filter: walks `plan`'s path over `table` and hands `keep`
/// every row whose image passes all of `conjuncts`, until `keep` returns
/// `Ok(false)`. Runs under the caller's read latch on the table; nothing
/// here blocks.
fn filtered_walk(
    table: &Table,
    plan: Plan<'_>,
    reverse: bool,
    conjuncts: &[BoundExpr],
    sim: &SimContext,
    keep: &mut dyn FnMut(&ImageScope<'_>) -> Result<bool>,
) -> Result<()> {
    table.walk(plan.path, reverse, sim, &mut |rid, view| {
        let scope = ImageScope { rid, view };
        if passes(conjuncts, &scope)? {
            keep(&scope)
        } else {
            Ok(true)
        }
    })
}

/// Plans and walks one table, collecting what `keep` makes of every row
/// that passes the table's local `conjuncts`.
fn collect_matching<T>(
    handle: &TableHandle,
    binding: &Binding<'_>,
    conjuncts: &[BoundExpr],
    sim: &SimContext,
    mut keep: impl FnMut(&ImageScope<'_>) -> Result<T>,
) -> Result<Vec<T>> {
    let mut kept = Vec::new();
    filtered_walk(
        &handle.read(),
        plan_access(conjuncts, &binding.schema),
        false,
        conjuncts,
        sim,
        &mut |scope| {
            kept.push(keep(scope)?);
            Ok(true)
        },
    )?;
    Ok(kept)
}

/// Evaluates `expr` over a group of joined rows, computing aggregate calls
/// over the whole group and everything else against the group's first row.
fn eval_over_group(expr: &BoundExpr, group: &[JoinedRow]) -> Result<Value> {
    if !expr.contains_aggregate() {
        let Some(first) = group.first() else {
            return Ok(Value::Null);
        };
        return eval(expr, &RowsScope(first));
    }
    match expr {
        BoundExpr::Function {
            name,
            args,
            distinct,
            star,
        } if is_aggregate_fn(name) => compute_aggregate(name, args, *distinct, *star, group),
        BoundExpr::Binary { left, op, right } => {
            let l = eval_over_group(left, group)?;
            let r = eval_over_group(right, group)?;
            apply_binary(&l, *op, &r)
        }
        BoundExpr::Unary { op, expr } => apply_unary(*op, eval_over_group(expr, group)?),
        other => Err(EngineError::Unsupported(format!(
            "aggregate inside {other:?}"
        ))),
    }
}

fn compute_aggregate(
    name: &str,
    args: &[BoundExpr],
    distinct: bool,
    star: bool,
    group: &[JoinedRow],
) -> Result<Value> {
    if star {
        if name != "COUNT" {
            return Err(EngineError::Unsupported(format!("{name}(*)")));
        }
        return Ok(Value::Int(group.len() as i64));
    }
    let [arg] = args else {
        return Err(EngineError::Unsupported(format!(
            "{name} takes exactly one argument"
        )));
    };
    let mut values = Vec::with_capacity(group.len());
    for row in group {
        let v = eval(arg, &RowsScope(row))?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if distinct {
        let mut seen = std::collections::HashSet::new();
        values.retain(|v| seen.insert(v.to_sql_literal()));
    }
    match name {
        "COUNT" => Ok(Value::Int(values.len() as i64)),
        "SUM" | "AVG" => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let mut acc = Value::Int(0);
            for v in &values {
                acc = acc.add(v)?;
            }
            if name == "AVG" {
                acc.div(&Value::Float(values.len() as f64))
            } else {
                Ok(acc)
            }
        }
        "MIN" | "MAX" => {
            let mut best: Option<Value> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let ord = v
                            .sql_cmp(&b)?
                            .ok_or_else(|| EngineError::Type("NULL slipped into MIN/MAX".into()))?;
                        let take = if name == "MIN" {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        };
                        if take {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        _ => Err(EngineError::Unsupported(format!("aggregate {name}"))),
    }
}

/// Executes a DML/query statement.
pub(crate) fn exec_statement(ctx: &mut StmtCtx<'_>, stmt: &Statement) -> Result<ExecOutcome> {
    match stmt {
        Statement::Select(sel) => exec_select(ctx, sel).map(ExecOutcome::Rows),
        Statement::Insert(ins) => exec_insert(ctx, ins).map(ExecOutcome::Affected),
        Statement::Update(upd) => exec_update(ctx, upd).map(ExecOutcome::Affected),
        Statement::Delete(del) => exec_delete(ctx, del).map(ExecOutcome::Affected),
        other => Err(EngineError::Internal(format!(
            "exec_statement got non-DML {other:?}"
        ))),
    }
}

/// One produced row: its output values and its ORDER BY key.
type Produced = (Vec<Value>, Vec<Value>);

/// A SELECT with every name resolved.
struct BoundSelect {
    conjuncts: Vec<BoundExpr>,
    out_exprs: Vec<BoundExpr>,
    /// (sort expression, descending)
    order_by: Vec<(BoundExpr, bool)>,
    group_by: Vec<BoundExpr>,
    /// Whether output rows are computed per group rather than per row.
    aggregate: bool,
}

impl BoundSelect {
    /// The output row and sort key, each expression evaluated by `eval`.
    fn produce(&self, mut eval: impl FnMut(&BoundExpr) -> Result<Value>) -> Result<Produced> {
        let out = self
            .out_exprs
            .iter()
            .map(&mut eval)
            .collect::<Result<_>>()?;
        let sort_key = self
            .order_by
            .iter()
            .map(|(e, _)| eval(e))
            .collect::<Result<_>>()?;
        Ok((out, sort_key))
    }
}

fn exec_select(ctx: &mut StmtCtx<'_>, sel: &Select) -> Result<QueryResult> {
    // FROM-less SELECT: constant evaluation.
    if sel.from.is_empty() {
        let mut columns = Vec::new();
        let mut row = Vec::new();
        for (i, item) in sel.items.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(EngineError::Unsupported("wildcard without FROM".into()));
            };
            columns.push(alias.clone().unwrap_or_else(|| format!("col{}", i + 1)));
            row.push(eval_const(expr, ctx.flavor)?);
        }
        ctx.sim.charge_statement(1);
        return Ok(QueryResult {
            columns,
            rows: vec![row],
        });
    }

    let (handles, bindings): (Vec<TableHandle>, Vec<Binding<'_>>) = {
        let catalog = ctx.catalog.read();
        sel.from
            .iter()
            .map(|tr| open_table(&catalog, &tr.name, tr.binding_name()))
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .unzip()
    };

    // Bind: every name in the statement is resolved here, once — so a bad
    // reference is rejected even when no row is produced (matching real
    // DBMSs, which reject bad references regardless of data).
    let conjuncts = bind_conjuncts(sel.where_clause.as_ref(), &bindings, ctx.flavor)?;
    let mut out_columns: Vec<String> = Vec::new();
    let mut out_exprs: Vec<BoundExpr> = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                let only = match item {
                    SelectItem::QualifiedWildcard(t) => Some(
                        bindings
                            .iter()
                            .position(|b| b.name.eq_ignore_ascii_case(t))
                            .ok_or_else(|| EngineError::UnknownTable(t.to_ascii_lowercase()))?,
                    ),
                    _ => None,
                };
                for (binding, b) in bindings.iter().enumerate() {
                    if only.is_some_and(|o| o != binding) {
                        continue;
                    }
                    for (i, c) in b.schema.columns.iter().enumerate() {
                        out_columns.push(c.name.clone());
                        out_exprs.push(BoundExpr::Column {
                            binding,
                            slot: ColumnSlot::Column(i),
                        });
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                out_columns.push(alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column(c) => c.column.to_ascii_lowercase(),
                    other => other.to_string().to_ascii_lowercase(),
                }));
                out_exprs.push(bind(expr, &bindings, ctx.flavor)?);
            }
        }
    }
    let order_by = sel
        .order_by
        .iter()
        .map(|ob| Ok((bind(&ob.expr, &bindings, ctx.flavor)?, ob.desc)))
        .collect::<Result<Vec<(BoundExpr, bool)>>>()?;
    let group_by = sel
        .group_by
        .iter()
        .map(|g| bind(g, &bindings, ctx.flavor))
        .collect::<Result<Vec<BoundExpr>>>()?;
    let aggregate = !group_by.is_empty() || out_exprs.iter().any(BoundExpr::contains_aggregate);
    let mut bound = BoundSelect {
        conjuncts,
        out_exprs,
        order_by,
        group_by,
        aggregate,
    };

    let mut produced = match (handles.as_slice(), bindings.as_slice()) {
        ([handle], [binding]) if !bound.aggregate => {
            select_one_table(ctx, sel, handle, binding, &bound)?
        }
        _ => {
            let conjuncts = std::mem::take(&mut bound.conjuncts);
            select_joined(ctx, sel, &handles, &bindings, conjuncts, &bound)?
        }
    };

    // DISTINCT: deduplicate output rows (first occurrence wins, before
    // ordering, as SQL requires the sort keys to come from the projection).
    if sel.distinct {
        let mut seen = std::collections::HashSet::new();
        produced.retain(|(row, _)| {
            let key: Vec<String> = row.iter().map(Value::to_sql_literal).collect();
            seen.insert(key)
        });
    }

    // ORDER BY (stable: a walk that was already in order stays as it is).
    if !bound.order_by.is_empty() {
        produced.sort_by(|a, b| {
            for (i, (_, desc)) in bound.order_by.iter().enumerate() {
                let ord = a.1[i]
                    .sql_cmp(&b.1[i])
                    .unwrap_or(None)
                    .unwrap_or(std::cmp::Ordering::Equal);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    let mut rows: Vec<Vec<Value>> = produced.into_iter().map(|(r, _)| r).collect();
    if let Some(n) = sel.limit {
        rows.truncate(n as usize);
    }
    ctx.sim.charge_statement(rows.len());
    Ok(QueryResult {
        columns: out_columns,
        rows,
    })
}

/// The common case — one table, no aggregates: the projection and the sort
/// key are evaluated straight off each surviving row image, so a row is
/// never decoded beyond the columns the statement names, and a `LIMIT`
/// whose order the walk already has ([`walk_order`]) ends the walk.
fn select_one_table(
    ctx: &StmtCtx<'_>,
    sel: &Select,
    handle: &TableHandle,
    binding: &Binding<'_>,
    bound: &BoundSelect,
) -> Result<Vec<Produced>> {
    let plan = plan_access(&bound.conjuncts, &binding.schema);
    // DISTINCT drops rows after the walk and FOR UPDATE locks every
    // matching row, limit or not: both need the full walk.
    let stop_after = match sel.limit {
        Some(n) if !sel.distinct && !sel.for_update => {
            walk_order(&plan, &bound.order_by, &binding.schema).map(|reverse| (n as usize, reverse))
        }
        _ => None,
    };
    let mut produced: Vec<Produced> = Vec::new();
    let mut to_lock = Vec::new();
    filtered_walk(
        &handle.read(),
        plan,
        stop_after.is_some_and(|(_, reverse)| reverse),
        &bound.conjuncts,
        ctx.sim,
        &mut |scope| {
            if sel.for_update {
                to_lock.push(scope.rid);
            }
            produced.push(bound.produce(|e| eval(e, scope))?);
            Ok(stop_after.is_none_or(|(n, _)| produced.len() < n))
        },
    )?;
    // FOR UPDATE locks every participating row (after the latch is gone:
    // a row lock may block).
    for rid in to_lock {
        ctx.locks
            .lock_exclusive(ctx.txn, ResourceId::Row(binding.object_id, rid))?;
    }
    Ok(produced)
}

/// Joins and aggregates: each table's rows are fetched through its own
/// plan with the conjuncts local to it, then joined by nested loops, each
/// cross-table conjunct applied as soon as the tables it reads are bound.
fn select_joined(
    ctx: &StmtCtx<'_>,
    sel: &Select,
    handles: &[TableHandle],
    bindings: &[Binding<'_>],
    conjuncts: Vec<BoundExpr>,
    bound: &BoundSelect,
) -> Result<Vec<Produced>> {
    let mut local: Vec<Vec<BoundExpr>> = bindings.iter().map(|_| Vec::new()).collect();
    // (join depth at which every table it reads is bound, conjunct)
    let mut cross: Vec<(usize, BoundExpr)> = Vec::new();
    for c in conjuncts {
        match c.binding_span() {
            Some((lo, hi)) if lo == hi => local[lo].push(c),
            Some((_, hi)) => cross.push((hi, c)),
            None => cross.push((0, c)), // constant predicate
        }
    }
    let mut candidates: Vec<Vec<(RowId, Row)>> = Vec::with_capacity(bindings.len());
    for ((handle, binding), conjuncts) in handles.iter().zip(bindings).zip(&local) {
        candidates.push(collect_matching(
            handle,
            binding,
            conjuncts,
            ctx.sim,
            |scope| Ok((scope.rid, scope.view.to_row()?)),
        )?);
    }
    let mut joined: Vec<JoinedRow> = Vec::new();
    join_recurse(&candidates, &cross, &mut Vec::new(), &mut joined)?;

    // FOR UPDATE locks every participating row.
    if sel.for_update {
        for row in &joined {
            for (binding, (rid, _)) in bindings.iter().zip(row) {
                ctx.locks
                    .lock_exclusive(ctx.txn, ResourceId::Row(binding.object_id, *rid))?;
            }
        }
    }

    if !bound.aggregate {
        return joined
            .iter()
            .map(|row| bound.produce(|e| eval(e, &RowsScope(row))))
            .collect();
    }
    // Group rows.
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<JoinedRow>> = HashMap::new();
    if bound.group_by.is_empty() {
        order.push(String::new());
        groups.insert(String::new(), joined);
    } else {
        for row in joined {
            let scope = RowsScope(&row);
            let mut key = String::new();
            for g in &bound.group_by {
                key.push_str(&eval(g, &scope)?.to_sql_literal());
                key.push('\x1f');
            }
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(row);
        }
    }
    let mut produced: Vec<Produced> = Vec::new();
    for key in order {
        let group = &groups[&key];
        if group.is_empty() && !bound.group_by.is_empty() {
            continue;
        }
        produced.push(bound.produce(|e| eval_over_group(e, group))?);
    }
    Ok(produced)
}

fn join_recurse(
    candidates: &[Vec<(RowId, Row)>],
    cross: &[(usize, BoundExpr)],
    stack: &mut JoinedRow,
    out: &mut Vec<JoinedRow>,
) -> Result<()> {
    let depth = stack.len();
    if depth == candidates.len() {
        out.push(stack.clone());
        return Ok(());
    }
    'cand: for candidate in &candidates[depth] {
        stack.push(candidate.clone());
        for (at, c) in cross {
            if *at == depth && !eval(c, &RowsScope(stack))?.is_truthy() {
                stack.pop();
                continue 'cand;
            }
        }
        join_recurse(candidates, cross, stack, out)?;
        stack.pop();
    }
    Ok(())
}

fn exec_insert(ctx: &mut StmtCtx<'_>, ins: &resildb_sql::Insert) -> Result<u64> {
    let (handle, binding) = open_table(&ctx.catalog.read(), &ins.table, &ins.table)?;
    let schema = &*binding.schema;
    let columns = ins
        .columns
        .iter()
        .map(|c| schema.column_index(c))
        .collect::<Result<Vec<usize>>>()?;
    let mut affected = 0u64;
    for value_row in &ins.rows {
        let row = if ins.columns.is_empty() {
            if value_row.len() != schema.columns.len() {
                return Err(EngineError::Constraint(format!(
                    "INSERT supplies {} values for {} columns",
                    value_row.len(),
                    schema.columns.len()
                )));
            }
            let vals: Result<Vec<Value>> = value_row
                .iter()
                .map(|e| eval_const(e, ctx.flavor))
                .collect();
            Row(vals?)
        } else {
            if value_row.len() != ins.columns.len() {
                return Err(EngineError::Constraint(
                    "VALUES arity differs from column list".into(),
                ));
            }
            let mut vals = vec![Value::Null; schema.columns.len()];
            for (&idx, e) in columns.iter().zip(value_row) {
                vals[idx] = eval_const(e, ctx.flavor)?;
            }
            Row(vals)
        };
        // A key an open transaction freed is not reused before it ends:
        // while any key is locked, wait for this one's lock.
        let mut table = handle.write();
        if ctx.locks.keys_locked() {
            if let Some(key) = index_key(schema, &row)? {
                drop(table);
                ctx.locks
                    .lock_exclusive(ctx.txn, ResourceId::Key(binding.object_id, key))?;
                table = handle.write();
            }
        }
        let (rowid, stored, loc) = table.insert(row, ctx.sim)?;
        drop(table);
        ctx.locks
            .lock_exclusive(ctx.txn, ResourceId::Row(binding.object_id, rowid))?;
        // Undo entry first: the row is already in the table, so a failed
        // append must still be rolled back by the transaction's undo chain.
        ctx.undo.push(UndoAction::UnInsert {
            table: schema.name.clone(),
            rowid,
        });
        let op = LogOp::Insert {
            table: schema.name.clone(),
            rowid,
            row: stored,
            loc,
        };
        stage_check(&op, ctx.flavor, Some(schema), ctx.sim)?;
        ctx.redo.push(op);
        affected += 1;
    }
    ctx.sim.charge_statement(affected as usize);
    Ok(affected)
}

/// The ids of the rows an UPDATE/DELETE will touch. Each is re-read and
/// re-checked against `conjuncts` once its row lock is held.
fn matching_rowids(
    ctx: &StmtCtx<'_>,
    handle: &TableHandle,
    binding: &Binding<'_>,
    conjuncts: &[BoundExpr],
) -> Result<Vec<RowId>> {
    collect_matching(handle, binding, conjuncts, ctx.sim, |scope| Ok(scope.rid))
}

fn exec_update(ctx: &mut StmtCtx<'_>, upd: &resildb_sql::Update) -> Result<u64> {
    let (handle, binding) = open_table(&ctx.catalog.read(), &upd.table, &upd.table)?;
    let bindings = std::slice::from_ref(&binding);
    let schema = &*binding.schema;
    let conjuncts = bind_conjuncts(upd.where_clause.as_ref(), bindings, ctx.flavor)?;
    let assignments = upd
        .assignments
        .iter()
        .map(|a| {
            Ok((
                schema.column_index(&a.column)?,
                bind(&a.value, bindings, ctx.flavor)?,
            ))
        })
        .collect::<Result<Vec<(usize, BoundExpr)>>>()?;
    let moves_key = (assignments.iter()).any(|(idx, _)| schema.primary_key.contains(idx));
    let mut affected = 0u64;
    for rid in matching_rowids(ctx, &handle, &binding, &conjuncts)? {
        ctx.locks
            .lock_exclusive(ctx.txn, ResourceId::Row(binding.object_id, rid))?;
        let Some(current) = handle.read().get(rid, ctx.sim)? else {
            continue; // deleted concurrently
        };
        let current = [(rid, current)];
        let scope = RowsScope(&current);
        if !passes(&conjuncts, &scope)? {
            continue;
        }
        // Evaluate assignments against the pre-update image.
        let mut new_row = current[0].1.clone();
        for (idx, value) in &assignments {
            new_row.0[*idx] = eval(value, &scope)?;
        }
        // A key-moving UPDATE frees one key and takes another; both are
        // locked before the table's write lock is taken.
        if moves_key {
            let (old, new) = (
                index_key(schema, &current[0].1)?,
                index_key(schema, &new_row)?,
            );
            if old != new {
                for key in [old, new].into_iter().flatten() {
                    ctx.locks
                        .lock_exclusive(ctx.txn, ResourceId::Key(binding.object_id, key))?;
                }
            }
        }
        let Some((after, loc)) = handle
            .write()
            .update(rid, &current[0].1, new_row, ctx.sim)?
        else {
            continue;
        };
        let [(_, before)] = current;
        let changed: Vec<usize> = (0..schema.columns.len())
            .filter(|&i| before.0[i] != after.0[i])
            .collect();
        if changed.is_empty() {
            // No column value actually changed: count the row as affected
            // (SQL semantics) but log nothing — real DBMSs do not emit
            // no-op row images either.
            affected += 1;
            continue;
        }
        // Undo entry first so a failed append still rolls the in-place
        // update back.
        ctx.undo.push(UndoAction::UnUpdate {
            table: schema.name.clone(),
            rowid: rid,
            before: before.clone(),
        });
        let op = LogOp::Update {
            table: schema.name.clone(),
            rowid: rid,
            before,
            after,
            changed,
            loc,
        };
        stage_check(&op, ctx.flavor, Some(schema), ctx.sim)?;
        ctx.redo.push(op);
        affected += 1;
    }
    ctx.sim.charge_statement(affected as usize);
    Ok(affected)
}

fn exec_delete(ctx: &mut StmtCtx<'_>, del: &resildb_sql::Delete) -> Result<u64> {
    let (handle, binding) = open_table(&ctx.catalog.read(), &del.table, &del.table)?;
    let schema = &*binding.schema;
    let conjuncts = bind_conjuncts(
        del.where_clause.as_ref(),
        std::slice::from_ref(&binding),
        ctx.flavor,
    )?;
    let mut affected = 0u64;
    for rid in matching_rowids(ctx, &handle, &binding, &conjuncts)? {
        ctx.locks
            .lock_exclusive(ctx.txn, ResourceId::Row(binding.object_id, rid))?;
        let Some(current) = handle.read().get(rid, ctx.sim)? else {
            continue;
        };
        let current = [(rid, current)];
        if !passes(&conjuncts, &RowsScope(&current))? {
            continue;
        }
        // The freed key is locked before the table's write lock is taken
        // (see `LockManager::keys_locked`).
        if let Some(key) = index_key(schema, &current[0].1)? {
            ctx.locks
                .lock_exclusive(ctx.txn, ResourceId::Key(binding.object_id, key))?;
        }
        let mut table = handle.write();
        let Some((row, loc)) = table.delete(rid, ctx.sim)? else {
            continue;
        };
        let after = table.row_before(loc);
        drop(table);
        // Undo entry first so a failed append still re-inserts the row.
        ctx.undo.push(UndoAction::ReInsert {
            table: schema.name.clone(),
            rowid: rid,
            row: row.clone(),
            loc,
            after,
        });
        let op = LogOp::Delete {
            table: schema.name.clone(),
            rowid: rid,
            row,
            loc,
        };
        stage_check(&op, ctx.flavor, Some(schema), ctx.sim)?;
        ctx.redo.push(op);
        affected += 1;
    }
    ctx.sim.charge_statement(affected as usize);
    Ok(affected)
}
