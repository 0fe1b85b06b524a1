//! Recursive-descent parser for the resildb SQL dialect.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::Lexer;
use crate::token::{Keyword, Token};

/// A recursive-descent SQL parser over a pre-lexed token stream.
///
/// Most callers use the convenience functions [`crate::parse_statement`] and
/// [`crate::parse_statements`]; the parser type is exposed for incremental
/// use (e.g. parsing a statement and checking what input follows).
///
/// # Examples
///
/// ```
/// use resildb_sql::Parser;
///
/// # fn main() -> Result<(), resildb_sql::ParseError> {
/// let stmts = Parser::new("BEGIN; UPDATE t SET a = a + 1; COMMIT")?.parse_statements()?;
/// assert_eq!(stmts.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    next_param: u32,
}

impl Parser {
    /// Lexes `input` and prepares a parser over it.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if lexing fails.
    pub fn new(input: &str) -> Result<Self, ParseError> {
        Ok(Self::from_tokens(Lexer::new(input).tokenize()?))
    }

    /// Prepares a parser over an already-lexed token stream (must end with
    /// [`Token::Eof`]).
    pub fn from_tokens(tokens: Vec<(Token, usize)>) -> Self {
        Self {
            tokens,
            pos: 0,
            next_param: 0,
        }
    }

    /// Parses exactly one statement; trailing semicolons are allowed but any
    /// other trailing tokens are an error.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed or trailing input.
    pub fn parse_single_statement(self) -> Result<Statement, ParseError> {
        self.parse_single_with_param_count().map(|(stmt, _)| stmt)
    }

    /// Like [`Self::parse_single_statement`] but also reports how many `?`
    /// parameter placeholders the statement contains. Placeholders are
    /// numbered left-to-right from zero in source order.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed or trailing input.
    pub fn parse_single_with_param_count(mut self) -> Result<(Statement, u32), ParseError> {
        let stmt = self.parse_statement()?;
        while self.eat(&Token::Semicolon) {}
        self.expect(&Token::Eof)?;
        Ok((stmt, self.next_param))
    }

    /// Parses a semicolon-separated list of statements until end of input.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on the first malformed statement.
    pub fn parse_statements(mut self) -> Result<Vec<Statement>, ParseError> {
        let mut out = Vec::new();
        loop {
            while self.eat(&Token::Semicolon) {}
            if self.check(&Token::Eof) {
                return Ok(out);
            }
            out.push(self.parse_statement()?);
            if !self.check(&Token::Semicolon) && !self.check(&Token::Eof) {
                return Err(self.err_here("expected ';' between statements"));
            }
        }
    }

    // ---- token helpers -------------------------------------------------

    fn peek(&self) -> &Token {
        &self.tokens[self.pos].0
    }

    fn peek_offset(&self) -> usize {
        self.tokens[self.pos].1
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].0.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn check(&self, t: &Token) -> bool {
        self.peek() == t
    }

    fn check_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek(), Token::Keyword(k) if *k == kw)
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.check(t) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.check_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected {kw}, found {}", self.peek())))
        }
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.peek_offset())
    }

    /// Accepts an identifier; type-name keywords are also allowed as
    /// identifiers so column names like `text` work.
    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Token::Ident(s) => {
                self.advance();
                Ok(s)
            }
            Token::Keyword(k @ (Keyword::Key | Keyword::Text | Keyword::Work | Keyword::Of)) => {
                self.advance();
                Ok(k.as_str().to_ascii_lowercase())
            }
            other => Err(self.err_here(format!("expected identifier, found {other}"))),
        }
    }

    // ---- statements ----------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        match self.peek() {
            Token::Keyword(Keyword::Select) => self.parse_select().map(Statement::Select),
            Token::Keyword(Keyword::Insert) => self.parse_insert().map(Statement::Insert),
            Token::Keyword(Keyword::Update) => self.parse_update().map(Statement::Update),
            Token::Keyword(Keyword::Delete) => self.parse_delete().map(Statement::Delete),
            Token::Keyword(Keyword::Create) => {
                self.parse_create_table().map(Statement::CreateTable)
            }
            Token::Keyword(Keyword::Drop) => {
                self.advance();
                self.expect_kw(Keyword::Table)?;
                let name = self.ident()?;
                Ok(Statement::DropTable(DropTable { name }))
            }
            Token::Keyword(Keyword::Begin) => {
                self.advance();
                self.eat_kw(Keyword::Transaction);
                self.eat_kw(Keyword::Work);
                Ok(Statement::Begin)
            }
            Token::Keyword(Keyword::Commit) => {
                self.advance();
                self.eat_kw(Keyword::Transaction);
                self.eat_kw(Keyword::Work);
                Ok(Statement::Commit)
            }
            Token::Keyword(Keyword::Rollback) => {
                self.advance();
                self.eat_kw(Keyword::Transaction);
                self.eat_kw(Keyword::Work);
                Ok(Statement::Rollback)
            }
            other => Err(self.err_here(format!("expected statement, found {other}"))),
        }
    }

    fn parse_select(&mut self) -> Result<Select, ParseError> {
        self.expect_kw(Keyword::Select)?;
        let distinct = self.eat_kw(Keyword::Distinct);
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let mut select = Select {
            distinct,
            items,
            ..Select::default()
        };
        if self.eat_kw(Keyword::From) {
            loop {
                select.from.push(self.parse_table_ref()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw(Keyword::Where) {
            select.where_clause = Some(self.parse_expr()?);
        }
        if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            loop {
                select.group_by.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw(Keyword::Desc) {
                    true
                } else {
                    self.eat_kw(Keyword::Asc);
                    false
                };
                select.order_by.push(OrderByItem { expr, desc });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw(Keyword::Limit) {
            match self.advance() {
                Token::Int(n) if n >= 0 => select.limit = Some(n as u64),
                other => {
                    return Err(self.err_here(format!(
                        "expected non-negative integer after LIMIT, found {other}"
                    )))
                }
            }
        }
        if self.eat_kw(Keyword::For) {
            self.expect_kw(Keyword::Update)?;
            // Accept and ignore an `OF col` list (Oracle syntax).
            if self.eat_kw(Keyword::Of) {
                loop {
                    self.ident()?;
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            select.for_update = true;
        }
        Ok(select)
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `t.*`
        if let Token::Ident(name) = self.peek().clone() {
            if self.tokens.get(self.pos + 1).map(|t| &t.0) == Some(&Token::Dot)
                && self.tokens.get(self.pos + 2).map(|t| &t.0) == Some(&Token::Star)
            {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let name = self.ident()?;
        let alias = self.parse_optional_alias()?;
        Ok(TableRef { name, alias })
    }

    /// Parses an optional `AS alias` or bare-identifier alias.
    fn parse_optional_alias(&mut self) -> Result<Option<String>, ParseError> {
        if self.eat_kw(Keyword::As) || matches!(self.peek(), Token::Ident(_)) {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    fn parse_insert(&mut self) -> Result<Insert, ParseError> {
        self.expect_kw(Keyword::Insert)?;
        self.expect_kw(Keyword::Into)?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat(&Token::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        self.expect_kw(Keyword::Values)?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            rows.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Insert {
            table,
            columns,
            rows,
        })
    }

    fn parse_update(&mut self) -> Result<Update, ParseError> {
        self.expect_kw(Keyword::Update)?;
        let table = self.ident()?;
        self.expect_kw(Keyword::Set)?;
        let mut assignments = Vec::new();
        loop {
            let column = self.ident()?;
            self.expect(&Token::Eq)?;
            let value = self.parse_expr()?;
            assignments.push(Assignment { column, value });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Update {
            table,
            assignments,
            where_clause,
        })
    }

    fn parse_delete(&mut self) -> Result<Delete, ParseError> {
        self.expect_kw(Keyword::Delete)?;
        self.expect_kw(Keyword::From)?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Delete {
            table,
            where_clause,
        })
    }

    fn parse_create_table(&mut self) -> Result<CreateTable, ParseError> {
        self.expect_kw(Keyword::Create)?;
        self.expect_kw(Keyword::Table)?;
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.check_kw(Keyword::Primary) {
                self.advance();
                self.expect_kw(Keyword::Key)?;
                self.expect(&Token::LParen)?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            } else {
                columns.push(self.parse_column_def()?);
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(CreateTable {
            name,
            columns,
            primary_key,
        })
    }

    fn parse_column_def(&mut self) -> Result<ColumnDef, ParseError> {
        let name = self.ident()?;
        let ty = self.parse_type_name()?;
        let mut def = ColumnDef::new(name, ty);
        loop {
            if self.eat_kw(Keyword::Not) {
                self.expect_kw(Keyword::Null)?;
                def.not_null = true;
            } else if self.eat_kw(Keyword::Identity) {
                def.identity = true;
            } else if self.check_kw(Keyword::Primary) {
                self.advance();
                self.expect_kw(Keyword::Key)?;
                def.primary_key = true;
            } else {
                break;
            }
        }
        Ok(def)
    }

    fn parse_type_name(&mut self) -> Result<TypeName, ParseError> {
        let tok = self.advance();
        let Token::Keyword(kw) = tok else {
            return Err(self.err_here(format!("expected type name, found {tok}")));
        };
        match kw {
            Keyword::Integer | Keyword::Int | Keyword::Bigint => Ok(TypeName::Integer),
            Keyword::Float | Keyword::Real => Ok(TypeName::Float),
            Keyword::Double => {
                self.eat_kw(Keyword::Precision);
                Ok(TypeName::Float)
            }
            Keyword::Numeric | Keyword::Decimal => {
                let (mut precision, mut scale) = (18, 0);
                if self.eat(&Token::LParen) {
                    precision = self.expect_u32()?;
                    if self.eat(&Token::Comma) {
                        scale = self.expect_u32()?;
                    }
                    self.expect(&Token::RParen)?;
                }
                Ok(TypeName::Numeric { precision, scale })
            }
            Keyword::Varchar | Keyword::Char => {
                let mut len = None;
                if self.eat(&Token::LParen) {
                    len = Some(self.expect_u32()?);
                    self.expect(&Token::RParen)?;
                }
                Ok(TypeName::Varchar(len))
            }
            Keyword::Text => Ok(TypeName::Varchar(None)),
            Keyword::Timestamp => Ok(TypeName::Timestamp),
            other => Err(self.err_here(format!("expected type name, found {other}"))),
        }
    }

    fn expect_u32(&mut self) -> Result<u32, ParseError> {
        match self.advance() {
            Token::Int(n) if n >= 0 && n <= u32::MAX as i64 => Ok(n as u32),
            other => Err(self.err_here(format!("expected unsigned integer, found {other}"))),
        }
    }

    // ---- expressions (precedence climbing) -----------------------------

    /// Parses a full expression (lowest precedence: OR).
    pub(crate) fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_expr_at(1)
    }

    fn parse_expr_at(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            // Postfix predicates bind tighter than AND/OR but looser than
            // comparisons' operands; treat them at precedence 3.
            if min_prec <= 3 {
                if let Some(e) = self.try_parse_postfix(lhs.clone())? {
                    lhs = e;
                    continue;
                }
            }
            let Some(op) = self.peek_binary_op() else {
                return Ok(lhs);
            };
            let prec = op.precedence();
            if prec < min_prec {
                return Ok(lhs);
            }
            self.advance_binary_op(op);
            let rhs = self.parse_expr_at(prec + 1)?;
            lhs = Expr::Binary {
                left: Box::new(lhs),
                op,
                right: Box::new(rhs),
            };
        }
    }

    /// Attempts `IS [NOT] NULL`, `[NOT] IN`, `[NOT] BETWEEN`, `[NOT] LIKE`.
    fn try_parse_postfix(&mut self, lhs: Expr) -> Result<Option<Expr>, ParseError> {
        if self.eat_kw(Keyword::Is) {
            let negated = self.eat_kw(Keyword::Not);
            self.expect_kw(Keyword::Null)?;
            return Ok(Some(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            }));
        }
        let negated = if self.check_kw(Keyword::Not)
            && matches!(
                self.tokens.get(self.pos + 1).map(|t| &t.0),
                Some(Token::Keyword(
                    Keyword::In | Keyword::Between | Keyword::Like
                ))
            ) {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw(Keyword::In) {
            self.expect(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Some(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            }));
        }
        if self.eat_kw(Keyword::Between) {
            // Bounds parse above AND so the separating AND is not consumed.
            let low = self.parse_expr_at(4)?;
            self.expect_kw(Keyword::And)?;
            let high = self.parse_expr_at(4)?;
            return Ok(Some(Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            }));
        }
        if self.eat_kw(Keyword::Like) {
            let pattern = self.parse_expr_at(5)?;
            return Ok(Some(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pattern),
                negated,
            }));
        }
        if negated {
            return Err(self.err_here("expected IN, BETWEEN or LIKE after NOT"));
        }
        Ok(None)
    }

    fn peek_binary_op(&self) -> Option<BinaryOp> {
        Some(match self.peek() {
            Token::Keyword(Keyword::Or) => BinaryOp::Or,
            Token::Keyword(Keyword::And) => BinaryOp::And,
            Token::Eq => BinaryOp::Eq,
            Token::Neq => BinaryOp::Neq,
            Token::Lt => BinaryOp::Lt,
            Token::LtEq => BinaryOp::LtEq,
            Token::Gt => BinaryOp::Gt,
            Token::GtEq => BinaryOp::GtEq,
            Token::Plus => BinaryOp::Add,
            Token::Minus => BinaryOp::Sub,
            Token::Star => BinaryOp::Mul,
            Token::Slash => BinaryOp::Div,
            Token::Percent => BinaryOp::Mod,
            Token::Concat => BinaryOp::Concat,
            _ => return None,
        })
    }

    fn advance_binary_op(&mut self, _op: BinaryOp) {
        self.advance();
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw(Keyword::Not) {
            let expr = self.parse_expr_at(3)?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(expr),
            });
        }
        if self.eat(&Token::Minus) {
            let expr = self.parse_primary()?;
            // Fold `-<number>` into a negative literal so negative values
            // have one canonical AST form.
            return Ok(match expr {
                Expr::Literal(Literal::Int(v)) => Expr::Literal(Literal::Int(-v)),
                Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat(&Token::Plus) {
            return self.parse_primary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Token::Int(v) => {
                self.advance();
                Ok(Expr::Literal(Literal::Int(v)))
            }
            Token::Float(v) => {
                self.advance();
                Ok(Expr::Literal(Literal::Float(v)))
            }
            Token::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Literal::Str(s)))
            }
            Token::Question => {
                self.advance();
                let idx = self.next_param;
                self.next_param += 1;
                Ok(Expr::Param(idx))
            }
            Token::Keyword(Keyword::Null) => {
                self.advance();
                Ok(Expr::Literal(Literal::Null))
            }
            Token::Keyword(Keyword::True) => {
                self.advance();
                Ok(Expr::Literal(Literal::Bool(true)))
            }
            Token::Keyword(Keyword::False) => {
                self.advance();
                Ok(Expr::Literal(Literal::Bool(false)))
            }
            Token::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Keyword(k @ (Keyword::Key | Keyword::Text | Keyword::Work | Keyword::Of)) => {
                // Soft keywords usable as plain column names.
                self.advance();
                let name = k.as_str().to_ascii_lowercase();
                if self.eat(&Token::Dot) {
                    let column = self.ident()?;
                    return Ok(Expr::Column(ColumnRef::qualified(name, column)));
                }
                Ok(Expr::Column(ColumnRef::unqualified(name)))
            }
            Token::Ident(name) => {
                self.advance();
                // Function call?
                if self.check(&Token::LParen) {
                    return self.parse_function_call(name);
                }
                // Qualified column?
                if self.eat(&Token::Dot) {
                    let column = self.ident()?;
                    return Ok(Expr::Column(ColumnRef::qualified(name, column)));
                }
                Ok(Expr::Column(ColumnRef::unqualified(name)))
            }
            other => Err(self.err_here(format!("expected expression, found {other}"))),
        }
    }

    fn parse_function_call(&mut self, name: String) -> Result<Expr, ParseError> {
        self.expect(&Token::LParen)?;
        let name = name.to_ascii_uppercase();
        if self.eat(&Token::Star) {
            self.expect(&Token::RParen)?;
            return Ok(Expr::Function {
                name,
                args: Vec::new(),
                distinct: false,
                star: true,
            });
        }
        let distinct = self.eat_kw(Keyword::Distinct);
        let mut args = Vec::new();
        if !self.check(&Token::RParen) {
            loop {
                args.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Expr::Function {
            name,
            args,
            distinct,
            star: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_statement;

    fn sel(sql: &str) -> Select {
        match parse_statement(sql).expect("parse ok") {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn parses_select_with_everything() {
        let s = sel(
            "SELECT d.d_id, SUM(ol.ol_amount) AS total FROM district d, order_line ol \
             WHERE d.d_w_id = 1 AND ol.ol_d_id = d.d_id GROUP BY d.d_id \
             ORDER BY total DESC LIMIT 5 FOR UPDATE",
        );
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.len(), 2);
        assert!(s.where_clause.is_some());
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].desc);
        assert_eq!(s.limit, Some(5));
        assert!(s.for_update);
    }

    #[test]
    fn parses_table_1_paper_shapes() {
        // The exact statement shapes from paper Table 1.
        sel("SELECT t1.a1, t1.a2, t2.a3 FROM t1, t2 WHERE t1.x = t2.x");
        sel("SELECT t.trid FROM t WHERE c = 1");
        sel("SELECT SUM(t.a) FROM t WHERE t.c > 0 GROUP BY t.b");
        parse_statement("UPDATE t SET a1 = 1, a2 = 'x', trid = 42 WHERE c = 1").unwrap();
        parse_statement("INSERT INTO t (a1, a2, trid) VALUES (1, 'x', 42)").unwrap();
        parse_statement("COMMIT").unwrap();
    }

    #[test]
    fn wildcards() {
        let s = sel("SELECT *, t.* FROM t");
        assert_eq!(s.items[0], SelectItem::Wildcard);
        assert_eq!(s.items[1], SelectItem::QualifiedWildcard("t".into()));
    }

    #[test]
    fn implicit_alias_without_as() {
        let s = sel("SELECT c_balance bal FROM customer c");
        match &s.items[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("bal")),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.from[0].alias.as_deref(), Some("c"));
    }

    #[test]
    fn multi_row_insert() {
        let stmt = parse_statement("INSERT INTO t (a) VALUES (1), (2), (3)").unwrap();
        let Statement::Insert(i) = stmt else {
            unreachable!()
        };
        assert_eq!(i.rows.len(), 3);
    }

    #[test]
    fn insert_without_column_list() {
        let stmt = parse_statement("INSERT INTO t VALUES (1, 'a', NULL)").unwrap();
        let Statement::Insert(i) = stmt else {
            unreachable!()
        };
        assert!(i.columns.is_empty());
        assert_eq!(i.rows[0].len(), 3);
    }

    #[test]
    fn precedence_and_or() {
        // a = 1 OR b = 2 AND c = 3  ==>  a = 1 OR ((b = 2) AND (c = 3))
        let s = sel("SELECT x FROM t WHERE a = 1 OR b = 2 AND c = 3");
        let Expr::Binary { op, .. } = s.where_clause.as_ref().unwrap() else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Or);
    }

    #[test]
    fn precedence_arithmetic() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        let s = sel("SELECT 1 + 2 * 3");
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        let Expr::Binary { op, right, .. } = expr else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Add);
        assert!(matches!(
            **right,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn between_does_not_eat_outer_and() {
        let s = sel("SELECT x FROM t WHERE a BETWEEN 1 AND 5 AND b = 2");
        let Expr::Binary { op, left, .. } = s.where_clause.as_ref().unwrap() else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::And);
        assert!(matches!(**left, Expr::Between { .. }));
    }

    #[test]
    fn not_in_and_not_like() {
        let s = sel("SELECT x FROM t WHERE a NOT IN (1, 2) AND b NOT LIKE 'x%'");
        let w = s.where_clause.unwrap();
        let Expr::Binary { left, right, .. } = w else {
            panic!()
        };
        assert!(matches!(*left, Expr::InList { negated: true, .. }));
        assert!(matches!(*right, Expr::Like { negated: true, .. }));
    }

    #[test]
    fn is_null_and_is_not_null() {
        let s = sel("SELECT x FROM t WHERE a IS NULL AND b IS NOT NULL");
        let Expr::Binary { left, right, .. } = s.where_clause.unwrap() else {
            panic!()
        };
        assert!(matches!(*left, Expr::IsNull { negated: false, .. }));
        assert!(matches!(*right, Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn count_star_and_distinct() {
        let s = sel("SELECT COUNT(*), COUNT(DISTINCT s_i_id) FROM stock");
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        assert!(matches!(expr, Expr::Function { star: true, .. }));
        let SelectItem::Expr { expr, .. } = &s.items[1] else {
            panic!()
        };
        assert!(matches!(expr, Expr::Function { distinct: true, .. }));
    }

    #[test]
    fn create_table_full() {
        let stmt = parse_statement(
            "CREATE TABLE warehouse (w_id INTEGER NOT NULL PRIMARY KEY, \
             w_name VARCHAR(10), w_ytd NUMERIC(12,2), rid INTEGER IDENTITY, \
             PRIMARY KEY (w_id))",
        )
        .unwrap();
        let Statement::CreateTable(c) = stmt else {
            unreachable!()
        };
        assert_eq!(c.columns.len(), 4);
        assert!(c.columns[0].not_null && c.columns[0].primary_key);
        assert_eq!(c.columns[1].ty, TypeName::Varchar(Some(10)));
        assert_eq!(
            c.columns[2].ty,
            TypeName::Numeric {
                precision: 12,
                scale: 2
            }
        );
        assert!(c.columns[3].identity);
        assert_eq!(c.primary_key, vec!["w_id"]);
    }

    #[test]
    fn begin_commit_rollback_variants() {
        for sql in [
            "BEGIN",
            "BEGIN TRANSACTION",
            "BEGIN WORK",
            "COMMIT",
            "COMMIT WORK",
            "ROLLBACK",
            "ROLLBACK TRANSACTION",
        ] {
            parse_statement(sql).unwrap();
        }
    }

    #[test]
    fn trailing_garbage_is_error() {
        assert!(parse_statement("SELECT 1 SELECT 2").is_err());
    }

    #[test]
    fn missing_statement_separator_is_error() {
        let p = Parser::new("SELECT 1 SELECT 2").unwrap();
        assert!(p.parse_statements().is_err());
    }

    #[test]
    fn script_with_stray_semicolons() {
        let p = Parser::new(";;SELECT 1;;COMMIT;;").unwrap();
        assert_eq!(p.parse_statements().unwrap().len(), 2);
    }

    #[test]
    fn not_predicate() {
        let s = sel("SELECT x FROM t WHERE NOT a = 1");
        assert!(matches!(
            s.where_clause.unwrap(),
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
    }

    #[test]
    fn negative_numbers_fold_to_literals() {
        let s = sel("SELECT -3, -2.5, -x");
        assert!(matches!(
            &s.items[0],
            SelectItem::Expr {
                expr: Expr::Literal(Literal::Int(-3)),
                ..
            }
        ));
        assert!(matches!(
            &s.items[1],
            SelectItem::Expr {
                expr: Expr::Literal(Literal::Float(_)),
                ..
            }
        ));
        assert!(matches!(
            &s.items[2],
            SelectItem::Expr {
                expr: Expr::Unary {
                    op: UnaryOp::Neg,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn keywordish_identifiers_usable_as_columns() {
        parse_statement("SELECT key, text FROM t").unwrap();
    }

    #[test]
    fn error_reports_offset() {
        let err = parse_statement("SELECT FROM").unwrap_err();
        assert!(err.offset() >= 7, "offset was {}", err.offset());
    }

    #[test]
    fn for_update_of_columns_accepted() {
        let s = sel("SELECT s_quantity FROM stock WHERE s_i_id = 1 FOR UPDATE OF s_quantity");
        assert!(s.for_update);
    }
}
