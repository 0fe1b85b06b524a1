//! `Display` implementations rendering the AST back to SQL text.
//!
//! The printer is precedence-aware: it inserts parentheses exactly where the
//! parser would otherwise re-associate, so `parse(print(ast)) == ast` holds
//! for every AST this crate can produce (verified by property tests). This
//! is the guarantee the paper's query-rewriting proxy relies on: it rewrites
//! the AST and sends the printed text to the real DBMS.

use std::fmt::{self, Display, Formatter, Write as _};

use crate::ast::*;
use crate::token::Keyword;

/// Whether `ident` lexes back as a single bare identifier token: plain
/// ASCII shape and not a keyword.
fn is_plain_ident(ident: &str) -> bool {
    let mut bytes = ident.bytes();
    let Some(first) = bytes.next() else {
        return false;
    };
    (first == b'_' || first.is_ascii_alphabetic())
        && bytes.all(|c| c == b'_' || c == b'$' || c.is_ascii_alphanumeric())
        && Keyword::from_ident(ident).is_none()
}

/// Writes an identifier, double-quoting it when it would not survive a
/// lex/parse round trip bare (non-ASCII names, punctuation, keyword
/// collisions). The lexer has no escape for `"` inside quoted identifiers,
/// so such names cannot be produced by parsing and are printed as-is.
fn write_ident(f: &mut Formatter<'_>, ident: &str) -> fmt::Result {
    if is_plain_ident(ident) || ident.contains('"') {
        f.write_str(ident)
    } else {
        write!(f, "\"{ident}\"")
    }
}

/// Escapes a string literal body (`'` doubled) and wraps it in quotes.
fn write_str_literal(f: &mut Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('\'')?;
    for c in s.chars() {
        if c == '\'' {
            f.write_str("''")?;
        } else {
            f.write_char(c)?;
        }
    }
    f.write_char('\'')
}

impl Display for Literal {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            // Every form re-lexes as a float with the same bits: a decimal
            // point, or from 1e15 up an exponent (bare digits there would
            // read back as an integer, out of range from 9.3e18).
            Literal::Float(v) if v.abs() >= 1e15 => write!(f, "{v:e}"),
            Literal::Float(v) if v.fract() == 0.0 => write!(f, "{v:.1}"),
            Literal::Float(v) => write!(f, "{v}"),
            Literal::Str(s) => write_str_literal(f, s),
            Literal::Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
            Literal::Null => f.write_str("NULL"),
        }
    }
}

impl Display for ColumnRef {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        if let Some(t) = &self.table {
            write_ident(f, t)?;
            f.write_char('.')?;
        }
        write_ident(f, &self.column)
    }
}

/// Effective binding strength of an already-built expression, mirroring the
/// parser's precedence levels. Atomic nodes get the maximum.
fn expr_prec(e: &Expr) -> u8 {
    match e {
        Expr::Binary { op, .. } => op.precedence(),
        Expr::Unary {
            op: UnaryOp::Not, ..
        } => 3,
        Expr::IsNull { .. } | Expr::InList { .. } | Expr::Between { .. } | Expr::Like { .. } => 3,
        Expr::Unary {
            op: UnaryOp::Neg, ..
        } => 7,
        Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) | Expr::Function { .. } => 8,
    }
}

fn is_postfix(e: &Expr) -> bool {
    matches!(
        e,
        Expr::IsNull { .. } | Expr::InList { .. } | Expr::Between { .. } | Expr::Like { .. }
    )
}

/// Writes `e`, parenthesised when its binding strength is below `min` —
/// except that postfix predicates may be exempted (they chain correctly as
/// left operands of further postfix predicates).
fn write_child(f: &mut Formatter<'_>, e: &Expr, min: u8, allow_postfix: bool) -> fmt::Result {
    let needs_parens = if is_postfix(e) {
        !allow_postfix
    } else {
        expr_prec(e) < min
    };
    if needs_parens {
        write!(f, "({e})")
    } else {
        write!(f, "{e}")
    }
}

impl Display for Expr {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(l) => write!(f, "{l}"),
            Expr::Param(_) => f.write_str("?"),
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => {
                f.write_str("NOT ")?;
                write_child(f, expr, 3, true)
            }
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => {
                f.write_char('-')?;
                // The parser applies unary minus to a primary only.
                if expr_prec(expr) == 8 {
                    write!(f, "{expr}")
                } else {
                    write!(f, "({expr})")
                }
            }
            Expr::Binary { left, op, right } => {
                // Left-associative: equal precedence fine on the left,
                // must be parenthesised on the right.
                let p = op.precedence();
                write_child(f, left, p, p <= 3)?;
                write!(f, " {} ", op.as_str())?;
                write_child(f, right, p + 1, false)?;
                Ok(())
            }
            Expr::Function {
                name,
                args,
                distinct,
                star,
            } => {
                write!(f, "{name}(")?;
                if *star {
                    f.write_char('*')?;
                } else {
                    if *distinct {
                        f.write_str("DISTINCT ")?;
                    }
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                }
                f.write_char(')')
            }
            Expr::IsNull { expr, negated } => {
                write_child(f, expr, 4, true)?;
                f.write_str(if *negated { " IS NOT NULL" } else { " IS NULL" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write_child(f, expr, 4, true)?;
                f.write_str(if *negated { " NOT IN (" } else { " IN (" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_char(')')
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                write_child(f, expr, 4, true)?;
                f.write_str(if *negated {
                    " NOT BETWEEN "
                } else {
                    " BETWEEN "
                })?;
                write_child(f, low, 4, false)?;
                f.write_str(" AND ")?;
                write_child(f, high, 4, false)
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                write_child(f, expr, 4, true)?;
                f.write_str(if *negated { " NOT LIKE " } else { " LIKE " })?;
                write_child(f, pattern, 5, false)
            }
        }
    }
}

impl Display for SelectItem {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_char('*'),
            SelectItem::QualifiedWildcard(t) => {
                write_ident(f, t)?;
                f.write_str(".*")
            }
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                if let Some(a) = alias {
                    f.write_str(" AS ")?;
                    write_ident(f, a)?;
                }
                Ok(())
            }
        }
    }
}

impl Display for TableRef {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        write_ident(f, &self.name)?;
        if let Some(a) = &self.alias {
            f.write_char(' ')?;
            write_ident(f, a)?;
        }
        Ok(())
    }
}

impl Display for Select {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        if !self.from.is_empty() {
            f.write_str(" FROM ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{t}")?;
            }
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, e) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{e}")?;
            }
        }
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}", o.expr)?;
                if o.desc {
                    f.write_str(" DESC")?;
                }
            }
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        if self.for_update {
            f.write_str(" FOR UPDATE")?;
        }
        Ok(())
    }
}

impl Display for Insert {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str("INSERT INTO ")?;
        write_ident(f, &self.table)?;
        if !self.columns.is_empty() {
            f.write_str(" (")?;
            for (i, c) in self.columns.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write_ident(f, c)?;
            }
            f.write_char(')')?;
        }
        f.write_str(" VALUES ")?;
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_char('(')?;
            for (j, e) in row.iter().enumerate() {
                if j > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{e}")?;
            }
            f.write_char(')')?;
        }
        Ok(())
    }
}

impl Display for Update {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str("UPDATE ")?;
        write_ident(f, &self.table)?;
        f.write_str(" SET ")?;
        for (i, a) in self.assignments.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write_ident(f, &a.column)?;
            write!(f, " = {}", a.value)?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

impl Display for Delete {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str("DELETE FROM ")?;
        write_ident(f, &self.table)?;
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

impl Display for TypeName {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            TypeName::Integer => f.write_str("INTEGER"),
            TypeName::Float => f.write_str("FLOAT"),
            TypeName::Numeric { precision, scale } => {
                write!(f, "NUMERIC({precision}, {scale})")
            }
            TypeName::Varchar(Some(n)) => write!(f, "VARCHAR({n})"),
            TypeName::Varchar(None) => f.write_str("TEXT"),
            TypeName::Timestamp => f.write_str("TIMESTAMP"),
        }
    }
}

impl Display for ColumnDef {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        write_ident(f, &self.name)?;
        write!(f, " {}", self.ty)?;
        if self.not_null {
            f.write_str(" NOT NULL")?;
        }
        if self.identity {
            f.write_str(" IDENTITY")?;
        }
        if self.primary_key {
            f.write_str(" PRIMARY KEY")?;
        }
        Ok(())
    }
}

impl Display for CreateTable {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str("CREATE TABLE ")?;
        write_ident(f, &self.name)?;
        f.write_str(" (")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{c}")?;
        }
        if !self.primary_key.is_empty() {
            f.write_str(", PRIMARY KEY (")?;
            for (i, c) in self.primary_key.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write_ident(f, c)?;
            }
            f.write_char(')')?;
        }
        f.write_char(')')
    }
}

impl Display for Statement {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Insert(s) => write!(f, "{s}"),
            Statement::Update(s) => write!(f, "{s}"),
            Statement::Delete(s) => write!(f, "{s}"),
            Statement::CreateTable(s) => write!(f, "{s}"),
            Statement::DropTable(d) => {
                f.write_str("DROP TABLE ")?;
                write_ident(f, &d.name)
            }
            Statement::Begin => f.write_str("BEGIN"),
            Statement::Commit => f.write_str("COMMIT"),
            Statement::Rollback => f.write_str("ROLLBACK"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_statement;

    /// Asserts that parsing, printing and re-parsing yields the same AST.
    fn round_trip(sql: &str) {
        let ast = parse_statement(sql).unwrap_or_else(|e| panic!("parse {sql:?}: {e}"));
        let printed = ast.to_string();
        let reparsed =
            parse_statement(&printed).unwrap_or_else(|e| panic!("reparse {printed:?}: {e}"));
        assert_eq!(
            ast, reparsed,
            "round-trip changed AST for {sql:?} -> {printed:?}"
        );
    }

    #[test]
    fn round_trips_statement_zoo() {
        for sql in [
            "SELECT 1",
            "SELECT *, t.* FROM t",
            "SELECT a, b AS c FROM t1, t2 x WHERE t1.id = x.id",
            "SELECT SUM(t.a) FROM t WHERE t.c > 0 GROUP BY t.b",
            "SELECT COUNT(*) FROM stock WHERE s_quantity < 10",
            "SELECT c_first FROM customer ORDER BY c_last DESC, c_first LIMIT 3 FOR UPDATE",
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
            "INSERT INTO t VALUES (1)",
            "UPDATE t SET a = a + 1, b = 'y' WHERE c BETWEEN 1 AND 5",
            "DELETE FROM t WHERE a IS NOT NULL",
            "CREATE TABLE t (a INTEGER NOT NULL PRIMARY KEY, b VARCHAR(10), c NUMERIC(12, 2), d INTEGER IDENTITY, PRIMARY KEY (a, b))",
            "DROP TABLE t",
            "BEGIN",
            "COMMIT",
            "ROLLBACK",
        ] {
            round_trip(sql);
        }
    }

    #[test]
    fn round_trips_tricky_expressions() {
        for sql in [
            "SELECT x FROM t WHERE a = 1 OR b = 2 AND c = 3",
            "SELECT x FROM t WHERE (a = 1 OR b = 2) AND c = 3",
            "SELECT x FROM t WHERE NOT (a = 1 OR b = 2)",
            "SELECT x FROM t WHERE NOT a = 1 AND b = 2",
            "SELECT x FROM t WHERE a NOT IN (1, 2, 3)",
            "SELECT x FROM t WHERE a BETWEEN 1 AND 5 AND b = 2",
            "SELECT x FROM t WHERE a NOT BETWEEN 1 + 1 AND 2 * 3",
            "SELECT x FROM t WHERE name LIKE 'BAR%'",
            "SELECT 1 + 2 * 3 - 4 / 2",
            "SELECT (1 + 2) * 3",
            "SELECT -(1 + 2)",
            "SELECT -x FROM t",
            "SELECT a || '-' || b FROM t",
            "SELECT x FROM t WHERE a % 2 = 0",
        ] {
            round_trip(sql);
        }
    }

    #[test]
    fn string_escaping_round_trips() {
        round_trip("SELECT 'it''s', '100%'");
    }

    #[test]
    fn quoted_identifiers_round_trip() {
        for sql in [
            "SELECT \"café\" FROM \"größe\"",
            "SELECT t.\"naïve col\" AS \"über\" FROM \"таблица\" t",
            "INSERT INTO \"señal\" (\"año\", b) VALUES (1, 2)",
            "UPDATE \"δ\" SET \"ε\" = 1 WHERE \"ζ\" > 0",
            "DELETE FROM \"façade\" WHERE \"état\" = 'x'",
            "CREATE TABLE \"crème\" (\"brûlée\" INTEGER, PRIMARY KEY (\"brûlée\"))",
            "DROP TABLE \"Łódź\"",
            "SELECT \"select\" FROM \"from\"", // keyword collisions
        ] {
            round_trip(sql);
        }
    }

    #[test]
    fn plain_identifiers_stay_unquoted() {
        let ast = parse_statement("SELECT \"plain\" FROM \"t\"").unwrap();
        // Quoting is canonicalised away when the name needs none.
        assert_eq!(ast.to_string(), "SELECT plain FROM t");
    }

    #[test]
    fn float_literals_keep_floatness() {
        let ast = parse_statement("SELECT 2.0").unwrap();
        let printed = ast.to_string();
        assert_eq!(printed, "SELECT 2.0");
        assert_eq!(parse_statement(&printed).unwrap(), ast);
    }

    #[test]
    fn canonical_text_examples() {
        let ast = parse_statement("select   a ,b from  t where a=1 and b<>2").unwrap();
        assert_eq!(ast.to_string(), "SELECT a, b FROM t WHERE a = 1 AND b <> 2");
    }

    #[test]
    fn update_with_trid_prints_like_paper_table1() {
        let ast = parse_statement("UPDATE t SET a1 = 1, a2 = 'v', trid = 42 WHERE c = 1").unwrap();
        assert_eq!(
            ast.to_string(),
            "UPDATE t SET a1 = 1, a2 = 'v', trid = 42 WHERE c = 1"
        );
    }
}
