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

use crate::ast::{Expr, Literal, SelectItem, Statement, UnaryOp, TRID_PARAM};
use crate::error::ParseError;
use crate::lexer::{decode_literal, Lexer, LiteralKind, RawCursor, RawKind, RawToken};
use crate::parser::Parser;
use crate::token::{Keyword, Token};
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

/// What the previous token was, as far as masking the next one cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prev {
    Start,
    LimitKw,
    /// A prefix `-` set apart from what follows by trivia.
    Minus,
    /// A token that ends an operand: a literal, a quoted identifier or `)`.
    Operand,
    /// A word at this byte range: it ends an operand unless it is a keyword,
    /// which is looked up only if a `-` follows.
    Word(usize, usize),
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
/// * the text does not lex cleanly (the cold path must surface the error);
/// * an integer is longer than 18 digits (possible `i64` overflow), or a
///   float with an exponent or over 300 bytes is not finite, so the cold
///   path reports the range error.
///
/// Every number and string is masked, and a `-` is read by what precedes
/// it:
///
/// * after a token that ends an operand — a literal, a quoted identifier,
///   `)` or a word that is not a keyword — it is binary, and the operand
///   after it is masked like any other (`c_balance - 4840.30`);
/// * anywhere else it is a prefix: directly followed by a number, with no
///   trivia between, the two are one **signed** span (`= -5`), which the
///   parser would fold into one negative literal anyway; set apart by
///   trivia, the number stays part of the shape (`= - 5`).
///
/// A misread `-` costs a cache miss and never a different AST: see the
/// guard in [`parse_template`]. A number directly following the `LIMIT`
/// keyword is never masked (the grammar requires a plain integer there).
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
                if out_of_range(kind, &sql[tok.start..tok.end]) {
                    return None;
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
                next = Prev::Operand;
            }
            // The first byte names the symbols that matter here: `!` only
            // starts `!=`, the same token as `<>` and hashed as it; `)` ends
            // an operand; `-` is binary or a prefix.
            RawKind::Symbol => match text[0] {
                b'!' => hash.bytes(b"<>"),
                b')' => {
                    hash.byte(b')');
                    next = Prev::Operand;
                }
                b'-' if ends_operand(prev, sql) => hash.byte(b'-'),
                b'-' => {
                    // A digit right after the `-` starts the number token.
                    let number = match bytes.get(tok.end) {
                        Some(b) if b.is_ascii_digit() => cursor.next_token().ok()?,
                        _ => None,
                    };
                    match number {
                        Some(RawToken {
                            kind: RawKind::Literal(kind),
                            end,
                            ..
                        }) => {
                            if out_of_range(kind, &sql[tok.end..end]) {
                                return None;
                            }
                            hash.byte(MASKED);
                            spans.push(LiteralSpan {
                                start: tok.start,
                                end,
                                kind,
                            });
                            next = Prev::Operand;
                        }
                        _ => {
                            hash.byte(b'-');
                            next = Prev::Minus;
                        }
                    }
                }
                _ => hash.bytes(text),
            },
            RawKind::Word => {
                if prev == Prev::Start && !is_dml_verb(text) {
                    return None;
                }
                hash.bytes(text);
                next = if text.eq_ignore_ascii_case(b"limit") {
                    Prev::LimitKw
                } else {
                    Prev::Word(tok.start, tok.end)
                };
            }
            RawKind::QuotedIdent => {
                hash.bytes(text);
                next = Prev::Operand;
            }
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

/// Whether a `-` after `prev` is binary: `prev` ends an operand.
fn ends_operand(prev: Prev, sql: &str) -> bool {
    match prev {
        Prev::Operand => true,
        Prev::Word(start, end) => Keyword::from_ident(&sql[start..end]).is_none(),
        _ => false,
    }
}

/// Whether the number `text` may not decode, so the statement must take
/// the cold path to report it: an integer over 18 digits, or a float that
/// is not finite (checked only where it could overflow: with an exponent
/// or over 300 bytes).
fn out_of_range(kind: LiteralKind, text: &str) -> bool {
    match kind {
        LiteralKind::Int => text.len() > 18,
        LiteralKind::Float => {
            (text.len() > 300 || text.bytes().any(|b| b == b'e' || b == b'E'))
                && decode_literal(kind, text).is_none()
        }
        LiteralKind::Str => false,
    }
}

/// Parses `sql` with the literals in `scan.spans` (from
/// [`scan_statement`] of the same text) replaced by parameter
/// placeholders, producing the statement **template**: an AST identical to
/// the cold parse except that each masked literal is an [`Expr::Param`]
/// numbered by its source position (`Param(k)` ⇔ `scan.spans[k]`). A
/// signed span's `-` becomes the placeholder and its number is dropped.
///
/// Spans and tokens come from one tokenizer, so each span starts exactly
/// at a literal token or at a signed span's `-`. Returns `None` when the
/// statement does not parse, or a placeholder lands where the grammar
/// cannot accept one — callers must then use the cold path. That includes
/// a placeholder negated by a unary minus: the cold parse folds `-5` into
/// one literal, which `-?` bound with `5` could not reproduce, so a `-` the
/// scanner took for binary but the parser reads as a prefix costs a miss.
pub fn parse_template(sql: &str, scan: &StatementScan) -> Option<Statement> {
    let mut tokens = Lexer::new(sql).tokenize().ok()?;
    let mut spans = scan.spans.iter().peekable();
    let mut signed = false;
    tokens.retain_mut(|(tok, off)| {
        if std::mem::take(&mut signed) {
            return false; // the number of a signed span
        }
        if spans.next_if(|span| span.start == *off).is_some() {
            signed = *tok == Token::Minus;
            *tok = Token::Question;
        }
        true
    });
    let (mut stmt, params) = Parser::from_tokens(tokens)
        .parse_single_with_param_count()
        .ok()?;
    let mut negated_param = false;
    walk_exprs_mut(&mut stmt, &mut |e| {
        negated_param |= matches!(
            e,
            Expr::Unary { op: UnaryOp::Neg, expr } if matches!(**expr, Expr::Param(_))
        );
    });
    (params as usize == scan.spans.len() && !negated_param).then_some(stmt)
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
        let sql = "SELECT a FROM t WHERE x = -5 AND y = 3 LIMIT 7";
        let scan = scan_statement(sql).unwrap();
        // An adjacent `-5` is one signed span; the LIMIT count is shape.
        let texts: Vec<&str> = scan.spans.iter().map(|s| s.text(sql)).collect();
        assert_eq!(texts, ["-5", "3"]);
        // Different LIMIT ⇒ different fingerprint (it is part of the shape).
        let other = scan_statement("SELECT a FROM t WHERE x = -5 AND y = 3 LIMIT 9").unwrap();
        assert_ne!(scan.fingerprint, other.fingerprint);
        // A prefix `-` set apart by trivia keeps its number in the shape.
        for spaced in [
            "SELECT a FROM t WHERE x = - 5 AND y = 3",
            "SELECT a FROM t WHERE x = -/* c */5 AND y = 3",
        ] {
            let scan = scan_statement(spaced).unwrap();
            let texts: Vec<&str> = scan.spans.iter().map(|s| s.text(spaced)).collect();
            assert_eq!(texts, ["3"], "{spaced:?}");
        }
        assert_ne!(
            scan_statement("SELECT a FROM t WHERE x = - 5")
                .unwrap()
                .fingerprint,
            scan_statement("SELECT a FROM t WHERE x = - 6")
                .unwrap()
                .fingerprint
        );
    }

    /// Scans, templates, binds and splices `sql`, checking both caches'
    /// outputs against the cold path: the bound template equals the cold
    /// AST (the engine), and the template printed and spliced with the
    /// statement's own literal bytes is `spliced` (the proxy). `None` when
    /// the statement is not templated: it must then cost a miss.
    fn round_trip(sql: &str) -> Option<(u128, Vec<Literal>, String)> {
        let scan = scan_statement(sql)?;
        let tmpl = parse_template(sql, &scan)?;
        let values: Vec<Literal> = scan
            .spans
            .iter()
            .map(|s| parse_span_literal(sql, s).unwrap())
            .collect();
        let cold = parse_statement(sql).unwrap();
        assert_eq!(bind_statement(&tmpl, &values).unwrap(), cold, "{sql:?}");
        let text = SqlTemplate::of(tmpl, scan.spans.len()).unwrap();
        let spliced = text.splice(sql, &scan.spans, 0);
        assert_eq!(parse_statement(&spliced).unwrap(), cold, "{spliced:?}");
        Some((scan.fingerprint, values, spliced))
    }

    #[test]
    fn payment_amounts_share_one_shape_and_keep_their_bytes() {
        let payment = |amount: &str| {
            format!(
                "UPDATE customer SET c_balance = c_balance - {amount}, \
                 c_ytd_payment = c_ytd_payment + {amount}, c_payment_cnt = c_payment_cnt + 1 \
                 WHERE c_w_id = 1 AND c_d_id = 2 AND c_id = 3"
            )
        };
        let (a, b) = (payment("4840.30"), payment("12.05"));
        let (fa, _, sa) = round_trip(&a).unwrap();
        let (fb, _, sb) = round_trip(&b).unwrap();
        assert_eq!(fa, fb);
        assert_eq!(sa, a);
        assert_eq!(sb, b);
    }

    #[test]
    fn a_signed_literal_shares_the_shape_of_an_unsigned_one() {
        let (fa, va, _) = round_trip("SELECT a FROM t WHERE x = -5").unwrap();
        let (fb, vb, _) = round_trip("SELECT a FROM t WHERE x = 7").unwrap();
        assert_eq!(fa, fb);
        assert_eq!(va, [Literal::Int(-5)]);
        assert_eq!(vb, [Literal::Int(7)]);
        let (_, vf, _) = round_trip(
            "UPDATE t SET b = -0.0, c = (-2.5e3), d = -123456789012345678 WHERE e = -1e308",
        )
        .unwrap();
        assert_eq!(
            vf,
            [
                Literal::Float(-0.0),
                Literal::Float(-2500.0),
                Literal::Int(-123_456_789_012_345_678),
                Literal::Float(-1e308),
            ]
        );
        assert!(matches!(vf[0], Literal::Float(v) if v.is_sign_negative()));
    }

    #[test]
    fn binary_minus_masks_its_operand_after_every_operand_end() {
        for sql in [
            "SELECT a FROM t WHERE x - 5 > 0",
            "SELECT a FROM t WHERE x -5 > 0",
            "SELECT a FROM t WHERE 3 - 5 > x",
            "SELECT a FROM t WHERE 'a' - 5 > x",
            "SELECT a FROM t WHERE (x) - 5 > 0",
            "SELECT a FROM t WHERE \"x\" - 5 > 0",
            "SELECT a FROM t WHERE -5 - 5 > x",
        ] {
            let scan = scan_statement(sql).unwrap();
            let texts: Vec<&str> = scan.spans.iter().map(|s| s.text(sql)).collect();
            assert!(texts.contains(&"5"), "{sql:?}: {texts:?}");
            round_trip(sql).unwrap_or_else(|| panic!("not templated: {sql:?}"));
        }
    }

    #[test]
    fn a_negative_operand_of_binary_minus_keeps_its_space() {
        // `--` starts a comment: the spliced `-5` must not touch the `-`.
        let sql = "UPDATE customer SET c_balance = c_balance - -5 WHERE c_id = 1";
        let (_, values, spliced) = round_trip(sql).unwrap();
        assert_eq!(values, [Literal::Int(-5), Literal::Int(1)]);
        assert_eq!(spliced, sql);
        let (_, _, spliced) = round_trip("SELECT a - -5.5, b - - 5 FROM t").unwrap();
        assert_eq!(spliced, "SELECT a - -5.5, b - -5 FROM t");
    }

    #[test]
    fn a_keyword_before_minus_reads_as_the_cold_parse() {
        for sql in [
            "SELECT NULL - 5 FROM t",
            "SELECT TRUE - 1 FROM t",
            "UPDATE t SET key = key - 5 WHERE a = 1",
        ] {
            round_trip(sql).unwrap_or_else(|| panic!("not templated: {sql:?}"));
        }
        // Adjacent, the keyword's `-5` reads as signed: a miss, and the
        // cold parse decides.
        for sql in [
            "SELECT NULL -5 FROM t",
            "UPDATE t SET key = key -5 WHERE a = 1",
        ] {
            assert!(round_trip(sql).is_none(), "{sql:?}");
            assert!(parse_statement(sql).is_ok(), "{sql:?}");
        }
        let case = "SELECT CASE WHEN a = 1 THEN 2 END -5 FROM t";
        assert!(round_trip(case).is_none());
        assert!(parse_statement(case).is_err());
    }

    #[test]
    fn a_negated_placeholder_is_refused() {
        // `-(5)` folds to one literal cold; `-(?)` would bind `Neg(5)`.
        let sql = "SELECT a FROM t WHERE x = -(5)";
        let scan = scan_statement(sql).unwrap();
        assert_eq!(scan.spans.len(), 1);
        assert!(parse_template(sql, &scan).is_none());
        // A `-` misread as binary leaves `-?`: refused, never bound.
        let sql = "SELECT - 5";
        let misread = StatementScan {
            fingerprint: 0,
            spans: vec![LiteralSpan {
                start: 9,
                end: 10,
                kind: LiteralKind::Int,
            }],
        };
        assert_eq!(misread.spans[0].text(sql), "5");
        assert!(parse_template(sql, &misread).is_none());
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
        // Out of range, signed or not: the cold path reports it.
        assert!(scan_statement("SELECT a FROM t WHERE x = -1234567890123456789").is_none());
        assert!(scan_statement("SELECT a FROM t WHERE x - 1234567890123456789 > 0").is_none());
        assert!(scan_statement("SELECT a FROM t WHERE x = -1e400").is_none());
        assert!(scan_statement("SELECT a FROM t WHERE x = 1e400").is_none());
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
