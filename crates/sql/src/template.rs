//! Statement-template machinery for the rewrite cache.
//!
//! The tracking proxy rewrites every statement it forwards (paper Table 1).
//! Doing that work from scratch — lex, parse, clone, print — on every
//! statement is the dominant proxy CPU cost. This module lets the proxy do
//! the full rewrite **once per statement shape** and replay it with a hash
//! lookup plus a literal splice:
//!
//! 1. [`scan_statement`] folds the lexer's raw token stream (one
//!    allocation-light pass over the SQL) into a literal-masking
//!    [fingerprint](StatementScan::fingerprint) (same shape ⇒ same
//!    fingerprint, à la `pg_stat_statements`) and the byte spans of the
//!    maskable literals.
//! 2. On a cache miss, [`parse_template`] tokenizes the statement with those
//!    literals replaced by `?` placeholders, yielding a [`Statement`] whose
//!    [`Expr::Param`] nodes stand in for the literals. The proxy rewrites
//!    that AST as usual and captures the printed text as a [`SqlTemplate`].
//! 3. On a hit, [`SqlTemplate::splice`] copies the statement's own literal
//!    text (and the current transaction id) into the cached text — no
//!    parsing at all.
//!
//! Masking is deliberately conservative; see [`scan_statement`] for the
//! exact rules. Fingerprint, spans and tokens come from the one tokenizer in
//! [`crate::lexer`]; whenever the parser cannot accept a placeholder where a
//! literal stood, callers fall back to the cold path, so the cache can only
//! reproduce what the cold path would have produced.

use crate::ast::{Expr, Literal, SelectItem, Statement, TRID_PARAM};
use crate::error::ParseError;
use crate::lexer::{decode_literal, Lexer, LiteralKind, RawCursor, RawKind};
use crate::parser::Parser;
use crate::token::Token;
use std::fmt;

/// Byte span of one maskable literal in the raw SQL text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiteralSpan {
    /// Byte offset of the literal's first character.
    pub start: usize,
    /// Byte offset one past the literal's last character.
    pub end: usize,
    /// What the literal is.
    pub kind: LiteralKind,
}

impl LiteralSpan {
    /// The literal's source text within `raw`.
    pub fn text<'a>(&self, raw: &'a str) -> &'a str {
        &raw[self.start..self.end]
    }
}

/// Result of fingerprinting one statement: the shape hash plus the literal
/// spans that were masked out of it, in source order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatementScan {
    /// 128-bit shape fingerprint (two independent 64-bit FNV-1a variants).
    ///
    /// Not cryptographic: collisions are guarded against only by the
    /// slot-count check cached templates perform, which is adequate for the
    /// deterministic, non-adversarial workloads this framework simulates.
    pub fingerprint: u128,
    /// Maskable literals in source order. Statements with the same
    /// fingerprint have literals of possibly different values (and kinds)
    /// at the same token positions.
    pub spans: Vec<LiteralSpan>,
}

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Byte written between tokens so adjacent tokens hash distinctly.
const SEP: u8 = 0x1f;
/// Byte hashed in place of a masked literal.
const MASKED: u8 = 0x11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prev {
    Start,
    LimitKw,
    Minus,
    Other,
}

/// The two running FNV-1a states of a shape fingerprint.
struct ShapeHash(u64, u64);

impl ShapeHash {
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        self.1 = (self.1 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }
}

fn is_dml_verb(word: &[u8]) -> bool {
    word.eq_ignore_ascii_case(b"select")
        || word.eq_ignore_ascii_case(b"insert")
        || word.eq_ignore_ascii_case(b"update")
        || word.eq_ignore_ascii_case(b"delete")
}

/// Fingerprints `sql`, masking the literals a cached template can splice
/// back in: a fold over the lexer's raw token stream, hashing every
/// non-literal token's text (whitespace and comments are not tokens and
/// cannot change the parse). Returns `None` whenever the statement must
/// take the cold (full-parse) path instead:
///
/// * the first keyword is not `SELECT` / `INSERT` / `UPDATE` / `DELETE`
///   (DDL and transaction control are not worth caching);
/// * the text contains a `?` anywhere — template text marks splice slots
///   with `?`, so raw placeholders would be ambiguous;
/// * the text does not lex cleanly (the cold path must surface the error).
///
/// Masking rules — a literal is replaced by a placeholder **unless**:
///
/// * it is a number directly following the `LIMIT` keyword (the grammar
///   requires a plain integer there);
/// * it is a number directly following a `-` token — the parser folds
///   `-5` into a single negative literal, so masking would change the AST
///   shape the engine plans from (point lookups match `Expr::Literal`);
/// * integers longer than 18 digits (possible `i64` overflow) refuse the
///   whole statement so the cold path can report the range error.
pub fn scan_statement(sql: &str) -> Option<StatementScan> {
    let bytes = sql.as_bytes();
    if bytes.contains(&b'?') {
        return None;
    }
    let mut cursor = RawCursor::new(sql);
    let mut hash = ShapeHash(FNV_OFFSET_A, FNV_OFFSET_B);
    let mut spans = Vec::new();
    let mut prev = Prev::Start;
    while let Some(tok) = cursor.next_token().ok()? {
        let text = &bytes[tok.start..tok.end];
        hash.byte(SEP);
        let mut next = Prev::Other;
        match tok.kind {
            RawKind::Literal(kind) => {
                if kind == LiteralKind::Int && text.len() > 18 {
                    return None; // may overflow i64; let the cold path report it
                }
                if kind != LiteralKind::Str && matches!(prev, Prev::LimitKw | Prev::Minus) {
                    hash.bytes(text);
                } else {
                    hash.byte(MASKED);
                    spans.push(LiteralSpan {
                        start: tok.start,
                        end: tok.end,
                        kind,
                    });
                }
            }
            // The first byte names the two symbols that matter here: `!`
            // only starts `!=`, the same token as `<>` and hashed as it;
            // `-` makes a following number part of the shape.
            RawKind::Symbol => match text[0] {
                b'!' => hash.bytes(b"<>"),
                b'-' => {
                    hash.byte(b'-');
                    next = Prev::Minus;
                }
                _ => hash.bytes(text),
            },
            RawKind::Word => {
                if prev == Prev::Start && !is_dml_verb(text) {
                    return None;
                }
                hash.bytes(text);
                if text.eq_ignore_ascii_case(b"limit") {
                    next = Prev::LimitKw;
                }
            }
            RawKind::QuotedIdent => hash.bytes(text),
        }
        prev = next;
    }
    if prev == Prev::Start {
        return None; // empty statement
    }
    Some(StatementScan {
        fingerprint: (u128::from(hash.0) << 64) | u128::from(hash.1),
        spans,
    })
}

/// Parses `sql` with the literals in `scan.spans` (from
/// [`scan_statement`] of the same text) replaced by parameter
/// placeholders, producing the statement **template**: an AST identical to
/// the cold parse except that each masked literal is an [`Expr::Param`]
/// numbered by its source position (`Param(k)` ⇔ `scan.spans[k]`).
///
/// Spans and tokens come from one tokenizer, so each span starts exactly
/// at a literal token. Returns `None` when the statement does not parse,
/// or a placeholder lands where the grammar cannot accept one — callers
/// must then use the cold path.
pub fn parse_template(sql: &str, scan: &StatementScan) -> Option<Statement> {
    let mut tokens = Lexer::new(sql).tokenize().ok()?;
    let mut spans = scan.spans.iter().peekable();
    for (tok, off) in &mut tokens {
        if spans.next_if(|span| span.start == *off).is_some() {
            *tok = Token::Question;
        }
    }
    let (stmt, params) = Parser::from_tokens(tokens)
        .parse_single_with_param_count()
        .ok()?;
    (params as usize == scan.spans.len()).then_some(stmt)
}

/// Visits every expression node of `stmt`, clause by clause in **printed
/// order** — the order in which the `Display` impls emit them. The clause
/// order mirrors [`crate::printer`] exactly; within one expression,
/// pre-order traversal matches print order because every `Display` arm
/// emits its operands left-to-right.
fn walk_exprs_mut(stmt: &mut Statement, f: &mut impl FnMut(&mut Expr)) {
    match stmt {
        Statement::Select(s) => {
            let items = s.items.iter_mut().filter_map(|item| match item {
                SelectItem::Expr { expr, .. } => Some(expr),
                _ => None,
            });
            let order = s.order_by.iter_mut().map(|o| &mut o.expr);
            (items
                .chain(&mut s.where_clause)
                .chain(&mut s.group_by)
                .chain(order))
            .for_each(|e| e.walk_mut(f));
        }
        Statement::Insert(i) => i.rows.iter_mut().flatten().for_each(|e| e.walk_mut(f)),
        Statement::Update(u) => {
            let values = u.assignments.iter_mut().map(|a| &mut a.value);
            (values.chain(&mut u.where_clause)).for_each(|e| e.walk_mut(f));
        }
        Statement::Delete(d) => d.where_clause.iter_mut().for_each(|e| e.walk_mut(f)),
        _ => {}
    }
}

/// Lists the parameter indices of `stmt` in **printed order**: the k-th
/// `?` of the printed text stands for parameter `result[k]`. Takes `&mut`
/// only because the one clause walk hands it out; nothing is changed.
fn collect_params(stmt: &mut Statement) -> Vec<u32> {
    let mut out = Vec::new();
    walk_exprs_mut(stmt, &mut |e| {
        if let Expr::Param(i) = e {
            out.push(*i);
        }
    });
    out
}

/// What a `?` in a cached template's text stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateSlot {
    /// The k-th masked literal of the incoming statement
    /// (`scan.spans[k]` from [`scan_statement`]).
    Literal(usize),
    /// The proxy's current transaction id.
    Trid,
}

/// A fully rewritten statement captured as text with splice slots.
///
/// Built once on a cache miss from the printed rewrite of a template AST;
/// replayed on hits by [`Self::splice`], which costs one pass over the
/// text plus the literal copies — no lexing, parsing or printing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlTemplate {
    text: String,
    slots: Vec<(usize, TemplateSlot)>,
    literal_slots: usize,
}

impl SqlTemplate {
    /// Captures `text` (the printed rewrite, with `?` at every splice
    /// point) against `param_order`, the parameter each `?` stands for in
    /// printed order. [`TRID_PARAM`] is the trid slot, and a
    /// parameter below `literals` — the number of literals the statement
    /// was templated against ([`parse_template`]), `0` for a statement
    /// parsed as sent — is a literal slot. Any other `?` is the client's own
    /// placeholder and stays in the text.
    ///
    /// Slots are found with the tokenizer, so a `?` inside a string literal
    /// or a quoted identifier is text, never a slot. Returns `None` if
    /// `text` does not lex or its `?` tokens do not number
    /// `param_order.len()`.
    pub fn new(text: String, param_order: &[u32], literals: usize) -> Option<Self> {
        let mut slots = Vec::with_capacity(param_order.len());
        let mut literal_slots = 0usize;
        let mut order = param_order.iter();
        // No `?` byte, no `?` token: text without one skips the tokenizer
        // (a parse-as-sent SELECT on a cache miss).
        let scanned = if text.contains('?') {
            text.as_str()
        } else {
            ""
        };
        let mut cursor = RawCursor::new(scanned);
        while let Some(tok) = cursor.next_token().ok()? {
            if tok.kind != RawKind::Symbol || text.as_bytes()[tok.start] != b'?' {
                continue;
            }
            let slot = match *order.next()? {
                TRID_PARAM => TemplateSlot::Trid,
                k if (k as usize) < literals => {
                    literal_slots += 1;
                    TemplateSlot::Literal(k as usize)
                }
                _ => continue,
            };
            slots.push((tok.start, slot));
        }
        if order.next().is_some() {
            return None;
        }
        Some(Self {
            text,
            slots,
            literal_slots,
        })
    }

    /// Prints `stmt` and captures the text against its own parameters
    /// ([`Self::new`]).
    pub fn of(mut stmt: Statement, literals: usize) -> Option<Self> {
        let text = stmt.to_string();
        let order = collect_params(&mut stmt);
        Self::new(text, &order, literals)
    }

    /// Number of literal (non-trid) splice slots. A hit must check this
    /// equals the incoming scan's span count before splicing (fingerprint-
    /// collision and logic-drift guard).
    pub fn literal_slots(&self) -> usize {
        self.literal_slots
    }

    /// Renders the final SQL by copying each masked literal's source text
    /// from `raw` (per `spans`) and the decimal rendering of `trid` into
    /// the slots.
    ///
    /// Callers must have verified `spans.len() == self.literal_slots()`;
    /// out-of-range slots panic (indicating a missed verification).
    pub fn splice(&self, raw: &str, spans: &[LiteralSpan], trid: i64) -> String {
        let mut trid_buf = [0u8; 21];
        let trid_text = format_i64(trid, &mut trid_buf);
        let extra: usize = spans.iter().map(|s| s.end - s.start).sum();
        let mut out = String::with_capacity(self.text.len() + extra + trid_text.len());
        let mut at = 0usize;
        for &(off, slot) in &self.slots {
            out.push_str(&self.text[at..off]);
            match slot {
                TemplateSlot::Literal(k) => out.push_str(spans[k].text(raw)),
                TemplateSlot::Trid => out.push_str(trid_text),
            }
            at = off + 1; // skip the '?'
        }
        out.push_str(&self.text[at..]);
        out
    }
}

/// Renders an `i64` into a fixed buffer without allocating.
fn format_i64(v: i64, buf: &mut [u8; 21]) -> &str {
    let mut u = v.unsigned_abs();
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    if v < 0 {
        i -= 1;
        buf[i] = b'-';
    }
    // The buffer holds only ASCII digits and an optional sign.
    std::str::from_utf8(&buf[i..]).unwrap_or("0")
}

/// Parses the typed value of a masked literal from its source text with
/// the lexer's own literal decoder (including `''` unescaping).
/// Returns `None` for out-of-range values — callers fall back cold.
pub fn parse_span_literal(raw: &str, span: &LiteralSpan) -> Option<Literal> {
    decode_literal(span.kind, span.text(raw))
}

/// Error binding parameter values into a statement template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindError(String);

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bind error: {}", self.0)
    }
}

impl std::error::Error for BindError {}

impl From<BindError> for ParseError {
    fn from(e: BindError) -> Self {
        ParseError::new(e.0, 0)
    }
}

/// Substitutes `params[i]` for every `Param(i)` in `stmt`, producing the
/// statement the cold path would have parsed from the literal-bearing SQL.
///
/// # Errors
///
/// A parameter index with no bound value, or a [`TRID_PARAM`] slot (those
/// exist only in proxy-side templates, which splice text instead).
pub fn bind_statement(stmt: &Statement, params: &[Literal]) -> Result<Statement, BindError> {
    let mut out = stmt.clone();
    let mut unbound = None;
    walk_exprs_mut(&mut out, &mut |e| {
        if let Expr::Param(i) = *e {
            match params.get(i as usize) {
                Some(lit) if i != TRID_PARAM => *e = Expr::Literal(lit.clone()),
                _ => unbound = unbound.or(Some(i)),
            }
        }
    });
    match unbound {
        None => Ok(out),
        Some(TRID_PARAM) => Err(BindError("trid slot cannot be bound as a value".into())),
        Some(i) => Err(BindError(format!(
            "parameter ?{i} out of range ({} values bound)",
            params.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_statement;

    #[test]
    fn same_shape_same_fingerprint() {
        let a = scan_statement("SELECT a FROM t WHERE x = 1 AND y = 'foo'").unwrap();
        let b = scan_statement("SELECT a FROM t WHERE x = 942 AND y = 'bar''s'").unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.spans.len(), 2);
        assert_eq!(a.spans[0].kind, LiteralKind::Int);
        assert_eq!(a.spans[1].kind, LiteralKind::Str);
        assert_eq!(
            b.spans[1].text("SELECT a FROM t WHERE x = 942 AND y = 'bar''s'"),
            "'bar''s'"
        );
    }

    #[test]
    fn different_shape_different_fingerprint() {
        let a = scan_statement("SELECT a FROM t WHERE x = 1").unwrap();
        let b = scan_statement("SELECT a FROM t WHERE y = 1").unwrap();
        let c = scan_statement("SELECT a FROM t WHERE x > 1").unwrap();
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn whitespace_and_comments_do_not_change_fingerprint() {
        let a = scan_statement("SELECT a FROM t WHERE x = 1").unwrap();
        let b = scan_statement("SELECT  a /* hi */ FROM t -- c\n WHERE x = 2").unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn neq_spellings_share_fingerprint() {
        let a = scan_statement("SELECT a FROM t WHERE x <> 1").unwrap();
        let b = scan_statement("SELECT a FROM t WHERE x != 1").unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn limit_and_negative_numbers_stay_unmasked() {
        let scan = scan_statement("SELECT a FROM t WHERE x = -5 AND y = 3 LIMIT 7").unwrap();
        // Only the `3` is maskable.
        assert_eq!(scan.spans.len(), 1);
        assert_eq!(
            scan.spans[0].text("SELECT a FROM t WHERE x = -5 AND y = 3 LIMIT 7"),
            "3"
        );
        // Different LIMIT ⇒ different fingerprint (it is part of the shape).
        let other = scan_statement("SELECT a FROM t WHERE x = -5 AND y = 3 LIMIT 9").unwrap();
        assert_ne!(scan.fingerprint, other.fingerprint);
    }

    #[test]
    fn non_dml_and_placeholders_refuse_templating() {
        assert!(scan_statement("BEGIN").is_none());
        assert!(scan_statement("CREATE TABLE t (a INTEGER)").is_none());
        assert!(scan_statement("COMMIT").is_none());
        assert!(scan_statement("SELECT a FROM t WHERE x = ?").is_none());
        assert!(scan_statement("").is_none());
        assert!(scan_statement("SELECT 'unterminated").is_none());
        assert!(scan_statement("SELECT 99999999999999999999").is_none());
    }

    #[test]
    fn template_binds_back_to_cold_ast() {
        for sql in [
            "SELECT a, b FROM t WHERE x = 1 AND y = 'foo' ORDER BY a LIMIT 3",
            "SELECT COUNT(*) FROM stock WHERE s_quantity < 10",
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2.5, 'it''s')",
            "UPDATE t SET a = a + 1, b = 'y' WHERE c BETWEEN 1 AND 5",
            "DELETE FROM t WHERE a IN (1, 2, 3) AND b LIKE 'BAR%'",
            "SELECT a FROM t WHERE x = -5 AND y = 1e3",
        ] {
            let scan = scan_statement(sql).unwrap_or_else(|| panic!("scan {sql:?}"));
            let tmpl = parse_template(sql, &scan).unwrap_or_else(|| panic!("template {sql:?}"));
            let values: Vec<Literal> = scan
                .spans
                .iter()
                .map(|s| parse_span_literal(sql, s).unwrap())
                .collect();
            let bound = bind_statement(&tmpl, &values).unwrap();
            let cold = parse_statement(sql).unwrap();
            assert_eq!(bound, cold, "bind mismatch for {sql:?}");
        }
    }

    #[test]
    fn splice_reproduces_statement_text() {
        let sql = "SELECT a FROM t WHERE x = 42 AND y = 'v'";
        let scan = scan_statement(sql).unwrap();
        let tmpl_stmt = parse_template(sql, &scan).unwrap();
        assert_eq!(collect_params(&mut tmpl_stmt.clone()), vec![0, 1]);
        let tmpl = SqlTemplate::of(tmpl_stmt, scan.spans.len()).unwrap();
        assert_eq!(tmpl.literal_slots(), 2);
        let spliced = tmpl.splice(sql, &scan.spans, 0);
        assert_eq!(spliced, "SELECT a FROM t WHERE x = 42 AND y = 'v'");
        // A second statement of the same shape splices its own literals.
        let sql2 = "SELECT a FROM t WHERE x = 7 AND y = 'it''s'";
        let scan2 = scan_statement(sql2).unwrap();
        assert_eq!(scan.fingerprint, scan2.fingerprint);
        assert_eq!(tmpl.splice(sql2, &scan2.spans, 0), sql2);
    }

    #[test]
    fn splice_renders_trid_slot() {
        let tmpl = SqlTemplate::new(
            "UPDATE t SET a = ?, trid = ? WHERE c = ?".into(),
            &[0, TRID_PARAM, 1],
            2,
        )
        .unwrap();
        assert_eq!(tmpl.literal_slots(), 2);
        let sql = "UPDATE x SET a = 10 WHERE c = 20"; // spans below point here
        let spans = [
            LiteralSpan {
                start: 17,
                end: 19,
                kind: LiteralKind::Int,
            },
            LiteralSpan {
                start: 30,
                end: 32,
                kind: LiteralKind::Int,
            },
        ];
        assert_eq!(
            tmpl.splice(sql, &spans, 42),
            "UPDATE t SET a = 10, trid = 42 WHERE c = 20"
        );
    }

    #[test]
    fn template_new_rejects_count_mismatch() {
        assert!(SqlTemplate::new("SELECT ?".into(), &[], 0).is_none());
        assert!(SqlTemplate::new("SELECT 1".into(), &[0], 1).is_none());
    }

    #[test]
    fn quoted_question_marks_are_text_not_slots() {
        let tmpl = SqlTemplate::new(
            "INSERT INTO \"q?\" (id, s, trid) VALUES (1, 'what?', ?)".into(),
            &[TRID_PARAM],
            0,
        )
        .unwrap();
        assert_eq!(tmpl.literal_slots(), 0);
        assert_eq!(
            tmpl.splice("", &[], 7),
            "INSERT INTO \"q?\" (id, s, trid) VALUES (1, 'what?', 7)"
        );
    }

    #[test]
    fn client_placeholders_stay_in_the_text() {
        // Parsed as sent (no masked literals): the client's `?0` is not a
        // slot, so splicing needs no spans and leaves it for the DBMS.
        let tmpl = SqlTemplate::new(
            "INSERT INTO q (id, s, trid) VALUES (?, 'x', ?)".into(),
            &[0, TRID_PARAM],
            0,
        )
        .unwrap();
        assert_eq!(tmpl.literal_slots(), 0);
        assert_eq!(
            tmpl.splice("", &[], 7),
            "INSERT INTO q (id, s, trid) VALUES (?, 'x', 7)"
        );
    }

    #[test]
    fn collect_params_matches_print_order() {
        for sql in [
            "SELECT a + 1, b FROM t WHERE x = 2 AND y IN (3, 4) GROUP BY z ORDER BY w",
            "UPDATE t SET a = 1, b = 2 WHERE c = 3",
            "INSERT INTO t VALUES (1, 'a'), (2, 'b')",
            "DELETE FROM t WHERE a BETWEEN 1 AND 2 OR b LIKE 'x%'",
        ] {
            let scan = scan_statement(sql).unwrap();
            let tmpl = parse_template(sql, &scan).unwrap();
            // The printed text's k-th `?` must correspond to the k-th
            // collected parameter; we check by splicing the original
            // literals back and comparing against the cold print.
            let sql_tmpl = SqlTemplate::of(tmpl, scan.spans.len()).unwrap();
            let cold = parse_statement(sql).unwrap().to_string();
            assert_eq!(sql_tmpl.splice(sql, &scan.spans, 0), cold, "for {sql:?}");
        }
    }

    #[test]
    fn bind_rejects_missing_and_trid_params() {
        let stmt = parse_template(
            "SELECT a FROM t WHERE x = 1",
            &scan_statement("SELECT a FROM t WHERE x = 1").unwrap(),
        )
        .unwrap();
        assert!(bind_statement(&stmt, &[]).is_err());
        let trid_stmt = Statement::Select(crate::Select {
            items: vec![SelectItem::Expr {
                expr: Expr::Param(TRID_PARAM),
                alias: None,
            }],
            ..Default::default()
        });
        assert!(bind_statement(&trid_stmt, &[Literal::Int(1)]).is_err());
    }

    #[test]
    fn span_literals_parse_with_lexer_semantics() {
        let sql = "SELECT 1, 2.5, 1e3, 'it''s'";
        let scan = scan_statement(sql).unwrap();
        let vals: Vec<Literal> = scan
            .spans
            .iter()
            .map(|s| parse_span_literal(sql, s).unwrap())
            .collect();
        assert_eq!(
            vals,
            vec![
                Literal::Int(1),
                Literal::Float(2.5),
                Literal::Float(1000.0),
                Literal::Str("it's".into()),
            ]
        );
    }
}
