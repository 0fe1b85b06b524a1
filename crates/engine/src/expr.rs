//! Scalar expressions: names are resolved once per statement ([`bind`]),
//! the bound form is evaluated once per row ([`eval`]) with SQL semantics.

use std::borrow::Cow;
use std::sync::Arc;

use resildb_sql::{BinaryOp, ColumnRef, Expr, UnaryOp};

use crate::error::{EngineError, Result};
use crate::flavor::Flavor;
use crate::schema::TableSchema;
use crate::value::{DataType, Value};

/// One table visible to a statement.
#[derive(Debug)]
pub(crate) struct Binding<'a> {
    /// The name the statement uses for it (alias or table name, as
    /// written; matched case-insensitively).
    pub name: &'a str,
    /// The table's object id: names it in row locks.
    pub object_id: u32,
    /// The table's schema, shared with the table.
    pub schema: Arc<TableSchema>,
}

/// What a resolved column reference reads from its binding's current row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColumnSlot {
    /// The schema column at this index.
    Column(usize),
    /// The flavor's row-id pseudo-column.
    RowId,
}

/// An [`Expr`] whose column references are resolved to `(binding, slot)`
/// and whose literals are values: evaluating it per row neither compares
/// nor allocates a name.
#[derive(Debug)]
pub(crate) enum BoundExpr {
    Const(Value),
    /// An unbound `?`: an error if it is ever evaluated.
    Param(u32),
    Column {
        binding: usize,
        slot: ColumnSlot,
    },
    Unary {
        op: UnaryOp,
        expr: Box<BoundExpr>,
    },
    Binary {
        left: Box<BoundExpr>,
        op: BinaryOp,
        right: Box<BoundExpr>,
    },
    Function {
        name: String,
        args: Vec<BoundExpr>,
        distinct: bool,
        star: bool,
    },
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    /// `column [NOT] IN (literals)` where every non-NULL literal has an
    /// exact value of the column's type ([`Value::key_literal`]): `set`
    /// holds those, sorted ([`Value::key_cmp`]) and de-duplicated, so a row
    /// is tested by binary search — and the access-path planner can probe
    /// the members in key order.
    InSet {
        binding: usize,
        column: usize,
        set: Vec<Value>,
        has_null: bool,
        negated: bool,
    },
    Between {
        expr: Box<BoundExpr>,
        low: Box<BoundExpr>,
        high: Box<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: Box<BoundExpr>,
        negated: bool,
    },
}

impl BoundExpr {
    /// Calls `f` on this node and every node below it.
    fn walk(&self, f: &mut dyn FnMut(&BoundExpr)) {
        f(self);
        match self {
            BoundExpr::Const(_)
            | BoundExpr::Param(_)
            | BoundExpr::Column { .. }
            | BoundExpr::InSet { .. } => {}
            BoundExpr::Unary { expr, .. } | BoundExpr::IsNull { expr, .. } => expr.walk(f),
            BoundExpr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            BoundExpr::Function { args, .. } => args.iter().for_each(|a| a.walk(f)),
            BoundExpr::InList { expr, list, .. } => {
                expr.walk(f);
                list.iter().for_each(|e| e.walk(f));
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            BoundExpr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
        }
    }

    /// True if the expression contains any aggregate function call.
    pub(crate) fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let BoundExpr::Function { name, .. } = e {
                found |= is_aggregate_fn(name);
            }
        });
        found
    }

    /// The lowest and highest binding index the expression reads, or
    /// `None` for a constant.
    pub(crate) fn binding_span(&self) -> Option<(usize, usize)> {
        let mut span: Option<(usize, usize)> = None;
        self.walk(&mut |e| {
            if let BoundExpr::Column { binding, .. } | BoundExpr::InSet { binding, .. } = e {
                let (lo, hi) = span.unwrap_or((*binding, *binding));
                span = Some((lo.min(*binding), hi.max(*binding)));
            }
        });
        span
    }
}

/// Aggregate function names.
pub(crate) fn is_aggregate_fn(name: &str) -> bool {
    matches!(name, "SUM" | "COUNT" | "MIN" | "MAX" | "AVG")
}

/// Resolves `col` against the statement's tables. An unqualified name that
/// no table declares may still be the flavor's row-id pseudo-column of a
/// single-table statement.
fn resolve(col: &ColumnRef, bindings: &[Binding<'_>], flavor: Flavor) -> Result<BoundExpr> {
    if bindings.is_empty() {
        return Err(EngineError::UnknownColumn(format!(
            "{col} (no columns in scope)"
        )));
    }
    let is_rowid = flavor
        .rowid_pseudocolumn()
        .is_some_and(|p| p.eq_ignore_ascii_case(&col.column));
    if let Some(tbl) = &col.table {
        let binding = bindings
            .iter()
            .position(|b| b.name.eq_ignore_ascii_case(tbl))
            .ok_or_else(|| EngineError::UnknownTable(tbl.to_ascii_lowercase()))?;
        let slot = match bindings[binding].schema.column_index(&col.column) {
            Ok(ci) => ColumnSlot::Column(ci),
            Err(_) if is_rowid => ColumnSlot::RowId,
            Err(_) => return Err(EngineError::UnknownColumn(col.to_string())),
        };
        return Ok(BoundExpr::Column { binding, slot });
    }
    let mut hits = bindings
        .iter()
        .enumerate()
        .filter_map(|(i, b)| Some((i, b.schema.column_index(&col.column).ok()?)));
    match (hits.next(), hits.next()) {
        (Some((binding, ci)), None) => Ok(BoundExpr::Column {
            binding,
            slot: ColumnSlot::Column(ci),
        }),
        (Some(_), Some(_)) => Err(EngineError::AmbiguousColumn(
            col.column.to_ascii_lowercase(),
        )),
        (None, _) if is_rowid && bindings.len() == 1 => Ok(BoundExpr::Column {
            binding: 0,
            slot: ColumnSlot::RowId,
        }),
        (None, _) => Err(EngineError::UnknownColumn(col.column.to_ascii_lowercase())),
    }
}

/// The sorted set behind `column IN (list)`, or `None` when some member is
/// not a literal with an exact value of the column's type (the list is then
/// evaluated member by member, which gives the comparison's own error).
/// Float columns are left out: a stored NaN must fail its comparisons.
fn literal_set(list: &[Expr], ty: DataType) -> Option<(Vec<Value>, bool)> {
    if ty == DataType::Float {
        return None;
    }
    let mut set = Vec::with_capacity(list.len());
    let mut has_null = false;
    for item in list {
        let Expr::Literal(l) = item else {
            return None;
        };
        match Value::from_literal(l) {
            Value::Null => has_null = true,
            v => set.push(v.key_literal(ty)?),
        }
    }
    set.sort_by(Value::key_cmp);
    set.dedup();
    Some((set, has_null))
}

/// Resolves every column reference of `expr` against `bindings`, once.
///
/// # Errors
///
/// Unknown table qualifier, unknown or ambiguous column.
pub(crate) fn bind(expr: &Expr, bindings: &[Binding<'_>], flavor: Flavor) -> Result<BoundExpr> {
    let sub = |e: &Expr| bind(e, bindings, flavor).map(Box::new);
    let all = |es: &[Expr]| {
        es.iter()
            .map(|e| bind(e, bindings, flavor))
            .collect::<Result<Vec<BoundExpr>>>()
    };
    Ok(match expr {
        Expr::Literal(l) => BoundExpr::Const(Value::from_literal(l)),
        Expr::Param(idx) => BoundExpr::Param(*idx),
        Expr::Column(c) => resolve(c, bindings, flavor)?,
        Expr::Unary { op, expr } => BoundExpr::Unary {
            op: *op,
            expr: sub(expr)?,
        },
        Expr::Binary { left, op, right } => BoundExpr::Binary {
            left: sub(left)?,
            op: *op,
            right: sub(right)?,
        },
        Expr::Function {
            name,
            args,
            distinct,
            star,
        } => BoundExpr::Function {
            name: name.clone(),
            args: all(args)?,
            distinct: *distinct,
            star: *star,
        },
        Expr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: sub(expr)?,
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = bind(expr, bindings, flavor)?;
            if let BoundExpr::Column {
                binding,
                slot: ColumnSlot::Column(column),
            } = needle
            {
                let ty = bindings[binding].schema.columns[column].ty;
                if let Some((set, has_null)) = literal_set(list, ty) {
                    return Ok(BoundExpr::InSet {
                        binding,
                        column,
                        set,
                        has_null,
                        negated: *negated,
                    });
                }
            }
            BoundExpr::InList {
                expr: Box::new(needle),
                list: all(list)?,
                negated: *negated,
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => BoundExpr::Between {
            expr: sub(expr)?,
            low: sub(low)?,
            high: sub(high)?,
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => BoundExpr::Like {
            expr: sub(expr)?,
            pattern: sub(pattern)?,
            negated: *negated,
        },
    })
}

/// The current row of each binding, as [`eval`] reads it.
pub(crate) trait Scope {
    /// The value of `slot` in `binding`'s current row.
    ///
    /// # Errors
    ///
    /// Undecodable row images.
    fn value(&self, binding: usize, slot: ColumnSlot) -> Result<Value>;
}

/// The scope of a constant context (`INSERT ... VALUES`, a `FROM`-less
/// `SELECT`): binding against no tables already rejected every column.
struct NoColumns;

impl Scope for NoColumns {
    fn value(&self, _: usize, _: ColumnSlot) -> Result<Value> {
        Err(EngineError::Internal("column in a constant context".into()))
    }
}

/// Evaluates `expr`, which may reference no column.
///
/// # Errors
///
/// Any column reference ([`EngineError::UnknownColumn`]), type errors.
pub(crate) fn eval_const(expr: &Expr, flavor: Flavor) -> Result<Value> {
    match bind(expr, &[], flavor)? {
        BoundExpr::Const(v) => Ok(v),
        bound => eval(&bound, &NoColumns),
    }
}

/// Evaluates an operand by reference when it is a constant, so comparing a
/// column against a literal copies no string.
fn operand<'a>(expr: &'a BoundExpr, scope: &dyn Scope) -> Result<Cow<'a, Value>> {
    match expr {
        BoundExpr::Const(v) => Ok(Cow::Borrowed(v)),
        other => eval(other, scope).map(Cow::Owned),
    }
}

/// Evaluates `expr` in `scope`.
///
/// Aggregate function calls are rejected here; the executor evaluates them
/// over row groups before scalar evaluation (see `exec`).
///
/// # Errors
///
/// Type errors, unsupported functions.
pub(crate) fn eval(expr: &BoundExpr, scope: &dyn Scope) -> Result<Value> {
    match expr {
        BoundExpr::Const(v) => Ok(v.clone()),
        BoundExpr::Param(idx) => Err(EngineError::Unsupported(format!(
            "unbound parameter ?{idx} (parameters must be bound before execution)"
        ))),
        BoundExpr::Column { binding, slot } => scope.value(*binding, *slot),
        BoundExpr::Unary { op, expr } => apply_unary(*op, eval(expr, scope)?),
        BoundExpr::Binary { left, op, right } => eval_binary(left, *op, right, scope),
        BoundExpr::IsNull { expr, negated } => {
            let v = eval(expr, scope)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = eval(expr, scope)?;
            if needle.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let v = operand(item, scope)?;
                if v.is_null() {
                    saw_null = true;
                    continue;
                }
                if needle.sql_cmp(&v)? == Some(std::cmp::Ordering::Equal) {
                    return Ok(Value::Bool(!*negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        BoundExpr::InSet {
            binding,
            column,
            set,
            has_null,
            negated,
        } => {
            let needle = scope.value(*binding, ColumnSlot::Column(*column))?;
            if needle.is_null() {
                return Ok(Value::Null);
            }
            if set.binary_search_by(|m| m.key_cmp(&needle)).is_ok() {
                Ok(Value::Bool(!*negated))
            } else if *has_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, scope)?;
            let lo = operand(low, scope)?;
            let hi = operand(high, scope)?;
            let (Some(cl), Some(ch)) = (v.sql_cmp(&lo)?, v.sql_cmp(&hi)?) else {
                return Ok(Value::Null);
            };
            let inside = cl != std::cmp::Ordering::Less && ch != std::cmp::Ordering::Greater;
            Ok(Value::Bool(inside != *negated))
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, scope)?;
            let p = operand(pattern, scope)?;
            match (&v, &*p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => Ok(Value::Bool(like_match(s, pat) != *negated)),
                _ => Err(EngineError::Type(format!(
                    "LIKE requires strings, got {v:?} LIKE {p:?}"
                ))),
            }
        }
        BoundExpr::Function { name, .. } => Err(EngineError::Unsupported(format!(
            "function {name} in scalar context"
        ))),
    }
}

fn eval_binary(
    left: &BoundExpr,
    op: BinaryOp,
    right: &BoundExpr,
    scope: &dyn Scope,
) -> Result<Value> {
    // Short-circuit logic with SQL three-valued semantics.
    match op {
        BinaryOp::And => {
            let l = eval(left, scope)?;
            if !l.is_null() && !l.is_truthy() {
                return Ok(Value::Bool(false));
            }
            let r = eval(right, scope)?;
            if !r.is_null() && !r.is_truthy() {
                return Ok(Value::Bool(false));
            }
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Bool(true))
        }
        BinaryOp::Or => {
            let l = eval(left, scope)?;
            if !l.is_null() && l.is_truthy() {
                return Ok(Value::Bool(true));
            }
            let r = eval(right, scope)?;
            if !r.is_null() && r.is_truthy() {
                return Ok(Value::Bool(true));
            }
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Bool(false))
        }
        _ => {
            let l = operand(left, scope)?;
            let r = operand(right, scope)?;
            apply_binary(&l, op, &r)
        }
    }
}

/// Applies a unary operator to a value (`NOT NULL` is `NULL`).
///
/// # Errors
///
/// Negating a non-number, integer overflow.
pub(crate) fn apply_unary(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Neg => v.neg(),
        UnaryOp::Not => Ok(match v {
            Value::Null => Value::Null,
            other => Value::Bool(!other.is_truthy()),
        }),
    }
}

/// Applies a non-logical binary operator to two values.
///
/// # Errors
///
/// Type errors; `AND`/`OR` (which short-circuit and are not applied to
/// values).
pub(crate) fn apply_binary(l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
    match op {
        BinaryOp::Add => l.add(r),
        BinaryOp::Sub => l.sub(r),
        BinaryOp::Mul => l.mul(r),
        BinaryOp::Div => l.div(r),
        BinaryOp::Mod => l.rem(r),
        BinaryOp::Concat => l.concat(r),
        BinaryOp::Eq
        | BinaryOp::Neq
        | BinaryOp::Lt
        | BinaryOp::LtEq
        | BinaryOp::Gt
        | BinaryOp::GtEq => {
            let Some(ord) = l.sql_cmp(r)? else {
                return Ok(Value::Null);
            };
            use std::cmp::Ordering::*;
            Ok(Value::Bool(match op {
                BinaryOp::Eq => ord == Equal,
                BinaryOp::Neq => ord != Equal,
                BinaryOp::Lt => ord == Less,
                BinaryOp::LtEq => ord != Greater,
                BinaryOp::Gt => ord == Greater,
                _ => ord != Less,
            }))
        }
        BinaryOp::And | BinaryOp::Or => Err(EngineError::Unsupported(
            "logical operator over aggregates".into(),
        )),
    }
}

/// SQL `LIKE` matching: `%` matches any run, `_` matches one character.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Try consuming 0..=len characters.
                (0..=s.len()).any(|k| rec(&s[k..], &p[1..]))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(&c) => s.first() == Some(&c) && rec(&s[1..], &p[1..]),
        }
    }
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    rec(&sc, &pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resildb_sql::{parse_statement, SelectItem, Statement};

    /// Evaluates the first projection of `SELECT <expr>` in an empty scope.
    fn eval_const(expr_sql: &str) -> Result<Value> {
        let stmt = parse_statement(&format!("SELECT {expr_sql}")).unwrap();
        let Statement::Select(sel) = stmt else {
            unreachable!()
        };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else {
            unreachable!()
        };
        super::eval_const(expr, Flavor::Postgres)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_const("1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(eval_const("(1 + 2) * 3").unwrap(), Value::Int(9));
        assert_eq!(eval_const("7 % 3").unwrap(), Value::Int(1));
        assert_eq!(eval_const("1 / 2").unwrap(), Value::Int(0));
        assert_eq!(eval_const("1.0 / 2").unwrap(), Value::Float(0.5));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(
            eval_const("1 < 2 AND 'a' = 'a'").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_const("1 > 2 OR FALSE").unwrap(), Value::Bool(false));
        assert_eq!(eval_const("NOT 1 = 2").unwrap(), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval_const("NULL AND TRUE").unwrap(), Value::Null);
        assert_eq!(eval_const("NULL AND FALSE").unwrap(), Value::Bool(false));
        assert_eq!(eval_const("NULL OR TRUE").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("NULL OR FALSE").unwrap(), Value::Null);
        assert_eq!(eval_const("NOT NULL").unwrap(), Value::Null);
        assert_eq!(eval_const("NULL = NULL").unwrap(), Value::Null);
        assert_eq!(eval_const("NULL IS NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("1 IS NOT NULL").unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_list_semantics() {
        assert_eq!(eval_const("2 IN (1, 2, 3)").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("5 IN (1, 2, 3)").unwrap(), Value::Bool(false));
        assert_eq!(eval_const("5 NOT IN (1, 2)").unwrap(), Value::Bool(true));
        // NULL in the list makes a non-match UNKNOWN, not false.
        assert_eq!(eval_const("5 IN (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_const("1 IN (1, NULL)").unwrap(), Value::Bool(true));
    }

    #[test]
    fn between_semantics() {
        assert_eq!(eval_const("2 BETWEEN 1 AND 3").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("0 BETWEEN 1 AND 3").unwrap(), Value::Bool(false));
        assert_eq!(
            eval_const("0 NOT BETWEEN 1 AND 3").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_const("NULL BETWEEN 1 AND 3").unwrap(), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("BARBARBAR", "BAR%"));
        assert!(like_match("abc", "a_c"));
        assert!(like_match("abc", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("a%c", "a%c"));
        assert!(like_match("xayc", "x%c"));
        assert_eq!(
            eval_const("'OUGHT' LIKE '%GH%'").unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn concat() {
        assert_eq!(eval_const("'a' || 1 || '-'").unwrap(), Value::from("a1-"));
    }

    #[test]
    fn unknown_column_in_empty_scope() {
        assert!(matches!(
            eval_const("some_col + 1"),
            Err(EngineError::UnknownColumn(_))
        ));
    }

    #[test]
    fn aggregate_in_scalar_context_is_unsupported() {
        assert!(matches!(
            eval_const("SUM(1)"),
            Err(EngineError::Unsupported(_))
        ));
    }
}
