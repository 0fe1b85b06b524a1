//! Abstract syntax tree for the resildb SQL dialect.
//!
//! The AST is deliberately value-oriented (`Clone`/`PartialEq` everywhere) so
//! that the tracking proxy can rewrite statements structurally — e.g. append
//! `trid` select items or `trid = <curTrID>` assignments — and re-serialise
//! them with the `Display` impls from [`crate::printer`].

/// A single SQL statement.
///
/// # Examples
///
/// ```
/// let stmt = resildb_sql::parse_statement("COMMIT")?;
/// assert_eq!(stmt, resildb_sql::Statement::Commit);
/// # Ok::<(), resildb_sql::ParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...`
    Select(Select),
    /// `INSERT INTO ...`
    Insert(Insert),
    /// `UPDATE ...`
    Update(Update),
    /// `DELETE FROM ...`
    Delete(Delete),
    /// `CREATE TABLE ...`
    CreateTable(CreateTable),
    /// `DROP TABLE ...`
    DropTable(DropTable),
    /// `BEGIN [TRANSACTION | WORK]`
    Begin,
    /// `COMMIT [TRANSACTION | WORK]`
    Commit,
    /// `ROLLBACK [TRANSACTION | WORK]`
    Rollback,
}

impl Statement {
    /// Returns the table names this statement references (FROM list, target
    /// table, etc.), in order of appearance. Used by the proxy to decide
    /// which tables need `trid` harvesting.
    pub fn referenced_tables(&self) -> Vec<&str> {
        match self {
            Statement::Select(s) => s.from.iter().map(|t| t.name.as_str()).collect(),
            Statement::Insert(i) => vec![i.table.as_str()],
            Statement::Update(u) => vec![u.table.as_str()],
            Statement::Delete(d) => vec![d.table.as_str()],
            Statement::CreateTable(c) => vec![c.name.as_str()],
            Statement::DropTable(d) => vec![d.name.as_str()],
            _ => Vec::new(),
        }
    }

    /// True for statements that can modify table data.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_)
        )
    }
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    /// `DISTINCT` qualifier on the projection.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// `FROM` list; joins are expressed through the `WHERE` clause
    /// (the pre-ANSI-join style used throughout the paper).
    pub from: Vec<TableRef>,
    /// Optional `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT n`.
    pub limit: Option<u64>,
    /// `FOR UPDATE` suffix (taken as a row-lock hint by the engine).
    pub for_update: bool,
}

/// One projection item of a `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// An expression with an optional `AS` alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output-column alias.
        alias: Option<String>,
    },
}

/// A table reference in a `FROM` list: `name [alias]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name as written.
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// Creates an unaliased reference.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            alias: None,
        }
    }

    /// The name other parts of the query use to refer to this table —
    /// the alias when present, otherwise the table name.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// One `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// Sort expression.
    pub expr: Expr,
    /// `false` = `ASC` (default), `true` = `DESC`.
    pub desc: bool,
}

/// An `INSERT` statement (multi-row `VALUES` supported).
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Explicit column list; empty means "all columns in schema order".
    pub columns: Vec<String>,
    /// One `Vec<Expr>` per `VALUES` tuple.
    pub rows: Vec<Vec<Expr>>,
}

/// An `UPDATE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// `SET` assignments in source order.
    pub assignments: Vec<Assignment>,
    /// Optional `WHERE` predicate.
    pub where_clause: Option<Expr>,
}

/// A single `column = expr` assignment in an `UPDATE`.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Assigned column name.
    pub column: String,
    /// Value expression.
    pub value: Expr,
}

/// A `DELETE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: String,
    /// Optional `WHERE` predicate.
    pub where_clause: Option<Expr>,
}

/// A `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// New table name.
    pub name: String,
    /// Column definitions in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Table-level `PRIMARY KEY (...)` columns (possibly empty).
    pub primary_key: Vec<String>,
}

/// One column definition inside `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: TypeName,
    /// `NOT NULL` constraint.
    pub not_null: bool,
    /// `IDENTITY` auto-numbering (the Sybase-style surrogate row id the
    /// paper's proxy injects when the DBMS lacks a row-ID attribute).
    pub identity: bool,
    /// Column-level `PRIMARY KEY`.
    pub primary_key: bool,
}

impl ColumnDef {
    /// Convenience constructor for a plain nullable column.
    pub fn new(name: impl Into<String>, ty: TypeName) -> Self {
        Self {
            name: name.into(),
            ty,
            not_null: false,
            identity: false,
            primary_key: false,
        }
    }
}

/// A declared SQL type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeName {
    /// `INTEGER` / `INT` / `BIGINT`
    Integer,
    /// `FLOAT` / `REAL` / `DOUBLE PRECISION`
    Float,
    /// `NUMERIC(p[,s])` / `DECIMAL(p[,s])` — stored as scaled integers.
    Numeric {
        /// Total digits.
        precision: u32,
        /// Digits after the decimal point.
        scale: u32,
    },
    /// `VARCHAR(n)` / `CHAR(n)` / `TEXT`
    Varchar(Option<u32>),
    /// `TIMESTAMP` (stored as an integer microsecond count).
    Timestamp,
}

/// A `DROP TABLE` statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropTable {
    /// Dropped table name.
    pub name: String,
}

/// A (possibly table-qualified) column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Optional qualifier (table name or alias).
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Creates an unqualified reference.
    pub fn unqualified(column: impl Into<String>) -> Self {
        Self {
            table: None,
            column: column.into(),
        }
    }

    /// Creates a qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        Self {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

/// A scalar literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `NULL`.
    Null,
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical `NOT`.
    Not,
}

/// A binary operator, ordered roughly by precedence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variants mirror SQL operators one-to-one
pub enum BinaryOp {
    Or,
    And,
    Eq,
    Neq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Concat,
}

impl BinaryOp {
    /// Returns the SQL spelling of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::Neq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Concat => "||",
        }
    }

    /// Binding strength used by both the parser and the printer, so that
    /// printed expressions re-parse with identical structure.
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::Neq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => 4,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Concat => 5,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 6,
        }
    }
}

/// Parameter index marking the proxy's transaction-id splice slot in a
/// cached statement template (see `Expr::Param`). Ordinary prepared-
/// statement parameters are numbered from zero and never reach this value.
pub const TRID_PARAM: u32 = u32::MAX;

/// A scalar or boolean expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal value.
    Literal(Literal),
    /// Positional parameter placeholder (`?`), bound before execution.
    /// [`TRID_PARAM`] marks the tracking proxy's transaction-id slot.
    Param(u32),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Function call, e.g. `SUM(x)` or `COUNT(*)`.
    Function {
        /// Upper-cased function name.
        name: String,
        /// Arguments; empty together with `star` for `COUNT(*)`.
        args: Vec<Expr>,
        /// `DISTINCT` qualifier inside the call.
        distinct: bool,
        /// True for `COUNT(*)`.
        star: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern expression.
        pattern: Box<Expr>,
        /// True for `NOT LIKE`.
        negated: bool,
    },
}

impl Expr {
    /// Shorthand for an integer literal expression.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }

    /// Shorthand for a string literal expression.
    pub fn str(v: impl Into<String>) -> Expr {
        Expr::Literal(Literal::Str(v.into()))
    }

    /// Shorthand for an unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::unqualified(name))
    }

    /// Shorthand for a qualified column reference.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::qualified(table, name))
    }

    /// Builds `self AND other`, treating either side being absent upstream.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op: BinaryOp::And,
            right: Box::new(other),
        }
    }

    /// Builds `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op: BinaryOp::Eq,
            right: Box::new(other),
        }
    }

    /// Walks the expression tree, invoking `f` on every node (pre-order).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) => {}
        }
    }

    /// [`Self::walk`] with mutable access: `f` may replace the node it is
    /// handed (the replacement's children are walked next).
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.walk_mut(f),
            Expr::Binary { left, right, .. } => {
                left.walk_mut(f);
                right.walk_mut(f);
            }
            Expr::Function { args, .. } => args.iter_mut().for_each(|a| a.walk_mut(f)),
            Expr::InList { expr, list, .. } => {
                expr.walk_mut(f);
                list.iter_mut().for_each(|e| e.walk_mut(f));
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk_mut(f);
                low.walk_mut(f);
                high.walk_mut(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk_mut(f);
                pattern.walk_mut(f);
            }
            Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) => {}
        }
    }

    /// Collects every column referenced anywhere in the expression.
    pub fn referenced_columns(&self) -> Vec<ColumnRef> {
        let mut cols = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column(c) = e {
                cols.push(c.clone());
            }
        });
        cols
    }

    /// True if the expression contains any aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if matches!(name.as_str(), "SUM" | "COUNT" | "MIN" | "MAX" | "AVG") {
                    found = true;
                }
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_tables_for_each_kind() {
        let sel = crate::parse_statement("SELECT a FROM t1, t2 x WHERE t1.id = x.id").unwrap();
        assert_eq!(sel.referenced_tables(), vec!["t1", "t2"]);
        let upd = crate::parse_statement("UPDATE w SET a = 1").unwrap();
        assert_eq!(upd.referenced_tables(), vec!["w"]);
        assert!(crate::parse_statement("COMMIT")
            .unwrap()
            .referenced_tables()
            .is_empty());
    }

    #[test]
    fn is_write_classification() {
        for (sql, w) in [
            ("SELECT 1", false),
            ("INSERT INTO t (a) VALUES (1)", true),
            ("UPDATE t SET a = 1", true),
            ("DELETE FROM t", true),
            ("BEGIN", false),
        ] {
            assert_eq!(crate::parse_statement(sql).unwrap().is_write(), w, "{sql}");
        }
    }

    #[test]
    fn binding_name_prefers_alias() {
        let t = TableRef {
            name: "warehouse".into(),
            alias: Some("w".into()),
        };
        assert_eq!(t.binding_name(), "w");
        assert_eq!(TableRef::new("t").binding_name(), "t");
    }

    #[test]
    fn expr_walk_visits_all_columns() {
        let e = Expr::col("a")
            .eq(Expr::int(1))
            .and(Expr::qcol("t", "b").eq(Expr::col("c")));
        let cols = e.referenced_columns();
        assert_eq!(cols.len(), 3);
        assert_eq!(cols[1], ColumnRef::qualified("t", "b"));
    }

    #[test]
    fn contains_aggregate_detects_nested() {
        let stmt = crate::parse_statement("SELECT 1 + SUM(x) FROM t").unwrap();
        let Statement::Select(sel) = stmt else {
            unreachable!()
        };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else {
            unreachable!()
        };
        assert!(expr.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn precedence_orders_or_below_and() {
        assert!(BinaryOp::Or.precedence() < BinaryOp::And.precedence());
        assert!(BinaryOp::And.precedence() < BinaryOp::Eq.precedence());
        assert!(BinaryOp::Add.precedence() < BinaryOp::Mul.precedence());
    }
}
