//! SQL front-end for the resildb intrusion-resilient DBMS framework.
//!
//! This crate implements the SQL dialect shared by the [`resildb`
//! engine](https://docs.rs/resildb-engine), the transaction-dependency
//! tracking proxy and the repair tool. It covers the statement classes the
//! DSN 2004 paper's intercepting proxy needs to understand and rewrite:
//!
//! * `SELECT` with joins (`FROM` list + `WHERE`), aggregates, `GROUP BY`,
//!   `ORDER BY` and `LIMIT`;
//! * `INSERT`, `UPDATE`, `DELETE`;
//! * `CREATE TABLE` / `DROP TABLE` (the proxy intercepts `CREATE TABLE` to
//!   inject the `trid` tracking column);
//! * `BEGIN` / `COMMIT` / `ROLLBACK`.
//!
//! The AST is value-oriented and printable: every parsed statement can be
//! rendered back to SQL text with [`Statement`]'s `Display` impl, and the
//! rendered text re-parses to the same AST (a property the test-suite
//! verifies). This round-trip guarantee is what makes text-level query
//! rewriting — the heart of the paper's portable tracking mechanism — safe.
//!
//! # Examples
//!
//! ```
//! use resildb_sql::{parse_statement, Statement};
//!
//! # fn main() -> Result<(), resildb_sql::ParseError> {
//! let stmt = parse_statement("SELECT w_name, w_ytd FROM warehouse WHERE w_id = 3")?;
//! match &stmt {
//!     Statement::Select(sel) => assert_eq!(sel.from[0].name, "warehouse"),
//!     _ => unreachable!(),
//! }
//! // Round-trip: printing yields canonical SQL.
//! assert_eq!(
//!     stmt.to_string(),
//!     "SELECT w_name, w_ytd FROM warehouse WHERE w_id = 3"
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod ast;
mod error;
mod lexer;
mod parser;
mod printer;
mod rw;
mod template;
mod token;

pub use ast::{
    Assignment, BinaryOp, ColumnDef, ColumnRef, CreateTable, Delete, DropTable, Expr, Insert,
    Literal, OrderByItem, Select, SelectItem, Statement, TableRef, TypeName, UnaryOp, Update,
    TRID_PARAM,
};
pub use error::ParseError;
pub use lexer::{Lexer, LiteralKind};
pub use parser::Parser;
pub use rw::{statement_access, ColumnSet, StatementAccess, TableRead, TableWrite, WriteKind};
pub use template::{
    bind_statement, parse_span_literal, parse_template, scan_statement, BindError, LiteralSpan,
    SqlTemplate, StatementScan, TemplateSlot,
};
pub use token::{Keyword, Token};

/// Parses a single SQL statement (a trailing semicolon is permitted).
///
/// # Errors
///
/// Returns [`ParseError`] if the input is not a single well-formed statement
/// in the supported dialect.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), resildb_sql::ParseError> {
/// let stmt = resildb_sql::parse_statement("DELETE FROM new_order WHERE no_o_id = 7")?;
/// assert!(matches!(stmt, resildb_sql::Statement::Delete(_)));
/// # Ok(())
/// # }
/// ```
pub fn parse_statement(input: &str) -> Result<Statement, ParseError> {
    Parser::new(input)?.parse_single_statement()
}

/// Parses a semicolon-separated script into a list of statements.
///
/// Empty statements (stray semicolons) are skipped.
///
/// # Errors
///
/// Returns [`ParseError`] on the first malformed statement.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), resildb_sql::ParseError> {
/// let stmts = resildb_sql::parse_statements("BEGIN; COMMIT;")?;
/// assert_eq!(stmts.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_statements(input: &str) -> Result<Vec<Statement>, ParseError> {
    Parser::new(input)?.parse_statements()
}

/// Parses a single statement that may contain `?` parameter placeholders,
/// returning it together with the number of placeholders (numbered
/// left-to-right from zero in source order). Bind concrete values with
/// [`bind_statement`] before executing the statement.
///
/// # Errors
///
/// Returns [`ParseError`] if the input is not a single well-formed
/// statement in the supported dialect.
///
/// # Examples
///
/// ```
/// use resildb_sql::{bind_statement, parse_prepared, Literal};
///
/// # fn main() -> Result<(), resildb_sql::ParseError> {
/// let (stmt, params) = parse_prepared("SELECT a FROM t WHERE id = ? AND b < ?")?;
/// assert_eq!(params, 2);
/// let bound = bind_statement(&stmt, &[Literal::Int(7), Literal::Int(9)])?;
/// assert_eq!(bound.to_string(), "SELECT a FROM t WHERE id = 7 AND b < 9");
/// # Ok(())
/// # }
/// ```
pub fn parse_prepared(input: &str) -> Result<(Statement, u32), ParseError> {
    Parser::new(input)?.parse_single_with_param_count()
}
