//! Hand-written SQL lexer.
//!
//! Every scanning rule — trivia, numbers, strings, quoted identifiers,
//! operators — lives once, in [`RawCursor`], which yields `(kind, byte
//! range)` pairs without allocating. [`Lexer::tokenize`] materialises
//! [`Token`]s from that stream; [`crate::scan_statement`] folds the same
//! stream into a shape fingerprint plus literal spans. Token boundaries
//! therefore cannot differ between the parser and the statement caches.

use crate::ast::Literal;
use crate::error::ParseError;
use crate::token::{Keyword, Token};

/// Kind of a literal token: what [`crate::scan_statement`] masks and
/// [`crate::parse_span_literal`] decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiteralKind {
    /// Integer literal.
    Int,
    /// Floating-point literal (decimal point and/or exponent).
    Float,
    /// Single-quoted string literal (span includes the quotes).
    Str,
}

/// What the raw cursor saw; payloads are decoded from the byte range on
/// demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RawKind {
    /// Unquoted keyword or identifier.
    Word,
    /// `"..."` identifier (range includes the quotes).
    QuotedIdent,
    /// Number or string (a string's range includes its quotes).
    Literal(LiteralKind),
    /// Operator or punctuation, one or two bytes; [`symbol_token`] names it.
    Symbol,
}

/// Why the raw cursor stopped: a fixed message and the byte offset. `Copy`
/// and allocation-free, which keeps error construction out of the
/// fingerprint fold that runs on every statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RawError {
    message: &'static str,
    offset: usize,
}

const UNEXPECTED: &str = "unexpected character";

impl RawError {
    fn at(message: &'static str, offset: usize) -> Self {
        Self { message, offset }
    }

    /// The public error; an unexpected character is named by its byte.
    fn describe(self, input: &str) -> ParseError {
        match input.as_bytes().get(self.offset) {
            Some(&b) if self.message == UNEXPECTED => {
                ParseError::new(format!("{UNEXPECTED} {:?}", b as char), self.offset)
            }
            _ => ParseError::new(self.message, self.offset),
        }
    }
}

/// One token of the raw stream: its kind and byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RawToken {
    pub(crate) kind: RawKind,
    pub(crate) start: usize,
    pub(crate) end: usize,
}

/// The single tokenizer: a zero-allocation cursor over SQL text handling
/// `--` line comments, `/* */` block comments, single-quoted strings with
/// `''` escaping, and double-quoted identifiers.
#[derive(Debug)]
pub(crate) struct RawCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> RawCursor<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Self {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    /// Byte offset of the next unread character.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Scans the next token, or `None` at end of input.
    #[inline]
    pub(crate) fn next_token(&mut self) -> Result<Option<RawToken>, RawError> {
        self.skip_trivia()?;
        let start = self.pos;
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let kind = match c {
            b',' | b'(' | b')' | b';' | b'.' | b'*' | b'=' | b'+' | b'-' | b'/' | b'%' | b'?' => {
                self.symbol(1)
            }
            b'<' if matches!(self.peek_at(1), Some(b'=' | b'>')) => self.symbol(2),
            b'>' if self.peek_at(1) == Some(b'=') => self.symbol(2),
            b'<' | b'>' => self.symbol(1),
            b'!' if self.peek_at(1) == Some(b'=') => self.symbol(2),
            b'!' => return Err(RawError::at("expected '=' after '!'", start + 1)),
            b'|' if self.peek_at(1) == Some(b'|') => self.symbol(2),
            b'|' => return Err(RawError::at("expected '|' after '|'", start + 1)),
            b'\'' => self.scan_string()?,
            b'"' => self.scan_quoted_ident()?,
            b'0'..=b'9' => RawKind::Literal(self.scan_number()),
            c if c == b'_' || c.is_ascii_alphabetic() => {
                while matches!(self.peek(), Some(c) if c == b'_' || c == b'$' || c.is_ascii_alphanumeric())
                {
                    self.pos += 1;
                }
                RawKind::Word
            }
            _ => {
                return Err(RawError::at(UNEXPECTED, start));
            }
        };
        Ok(Some(RawToken {
            kind,
            start,
            end: self.pos,
        }))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, n: usize) -> Option<u8> {
        self.bytes.get(self.pos + n).copied()
    }

    fn symbol(&mut self, len: usize) -> RawKind {
        self.pos += len;
        RawKind::Symbol
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    #[inline]
    fn skip_trivia(&mut self) -> Result<(), RawError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => self.pos += 1,
                Some(b'-') if self.peek_at(1) == Some(b'-') => {
                    while let Some(c) = self.peek() {
                        self.pos += 1;
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.peek_at(1)) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                return Err(RawError::at("unterminated block comment", start));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Scans past a `'...'` string with `''` escapes. Bytewise: no byte of
    /// a multi-byte UTF-8 character equals `'`.
    #[inline]
    fn scan_string(&mut self) -> Result<RawKind, RawError> {
        let start = self.pos;
        self.pos += 1; // opening quote
        loop {
            match self.peek() {
                Some(b'\'') if self.peek_at(1) == Some(b'\'') => self.pos += 2,
                Some(b'\'') => {
                    self.pos += 1;
                    return Ok(RawKind::Literal(LiteralKind::Str));
                }
                Some(_) => self.pos += 1,
                None => return Err(RawError::at("unterminated string literal", start)),
            }
        }
    }

    #[inline]
    fn scan_quoted_ident(&mut self) -> Result<RawKind, RawError> {
        let start = self.pos;
        self.pos += 1;
        while let Some(c) = self.peek() {
            self.pos += 1;
            if c == b'"' {
                return Ok(RawKind::QuotedIdent);
            }
        }
        Err(RawError::at("unterminated quoted identifier", start))
    }

    /// Scans past a number: digits, an optional `.digits` fraction (a dot
    /// not followed by a digit is left for the next token), an optional
    /// exponent (likewise only when digits follow).
    #[inline]
    fn scan_number(&mut self) -> LiteralKind {
        let mut kind = LiteralKind::Int;
        self.skip_digits();
        if self.peek() == Some(b'.') && matches!(self.peek_at(1), Some(c) if c.is_ascii_digit()) {
            kind = LiteralKind::Float;
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            let look = if matches!(self.peek_at(1), Some(b'+' | b'-')) {
                2
            } else {
                1
            };
            if matches!(self.peek_at(look), Some(c) if c.is_ascii_digit()) {
                kind = LiteralKind::Float;
                self.pos += look + 1;
                self.skip_digits();
            }
        }
        kind
    }
}

/// Names a [`RawKind::Symbol`] from the one or two bytes the cursor
/// delimited.
fn symbol_token(text: &str) -> Token {
    match text {
        "," => Token::Comma,
        "(" => Token::LParen,
        ")" => Token::RParen,
        ";" => Token::Semicolon,
        "." => Token::Dot,
        "*" => Token::Star,
        "=" => Token::Eq,
        "+" => Token::Plus,
        "-" => Token::Minus,
        "/" => Token::Slash,
        "%" => Token::Percent,
        "?" => Token::Question,
        "<" => Token::Lt,
        "<=" => Token::LtEq,
        ">" => Token::Gt,
        ">=" => Token::GtEq,
        "||" => Token::Concat,
        // `<>` and `!=`: the only other spellings the cursor yields.
        _ => Token::Neq,
    }
}

/// Decodes a literal's typed value from its source text (`''` unescaped).
/// `None` for a value out of range — an integer beyond `i64`, a float that
/// rounds to an infinity — or text that is not a `kind` literal.
pub(crate) fn decode_literal(kind: LiteralKind, text: &str) -> Option<Literal> {
    match kind {
        LiteralKind::Int => text.parse().ok().map(Literal::Int),
        LiteralKind::Float => (text.parse().ok())
            .filter(|v: &f64| v.is_finite())
            .map(Literal::Float),
        LiteralKind::Str => {
            let body = text.strip_prefix('\'')?.strip_suffix('\'')?;
            Some(Literal::Str(body.replace("''", "'")))
        }
    }
}

/// Converts SQL text into a stream of [`Token`]s.
///
/// The lexer handles `--` line comments, `/* */` block comments,
/// single-quoted strings with `''` escaping, and double-quoted identifiers.
///
/// # Examples
///
/// ```
/// use resildb_sql::{Lexer, Token};
///
/// # fn main() -> Result<(), resildb_sql::ParseError> {
/// let tokens = Lexer::new("SELECT 1").tokenize()?;
/// assert_eq!(tokens.len(), 3); // SELECT, 1, <eof>
/// assert_eq!(tokens[1].0, Token::Int(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Lexer<'a> {
    input: &'a str,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `input`.
    pub fn new(input: &'a str) -> Self {
        Self { input }
    }

    /// Lexes the whole input, returning `(token, byte_offset)` pairs ending
    /// with [`Token::Eof`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on an unterminated string/comment, an
    /// unexpected character or an out-of-range number.
    pub fn tokenize(self) -> Result<Vec<(Token, usize)>, ParseError> {
        let mut cursor = RawCursor::new(self.input);
        let mut out = Vec::new();
        while let Some(raw) = cursor.next_token().map_err(|e| e.describe(self.input))? {
            let text = &self.input[raw.start..raw.end];
            let token = match raw.kind {
                RawKind::Symbol => symbol_token(text),
                RawKind::Word => match Keyword::from_ident(text) {
                    Some(kw) => Token::Keyword(kw),
                    None => Token::Ident(text.to_string()),
                },
                RawKind::QuotedIdent => Token::Ident(text[1..text.len() - 1].to_string()),
                RawKind::Literal(kind) => match decode_literal(kind, text) {
                    Some(Literal::Int(v)) => Token::Int(v),
                    Some(Literal::Float(v)) => Token::Float(v),
                    Some(Literal::Str(s)) => Token::Str(s),
                    // Only a number can fail: out of range.
                    _ => {
                        let what = if kind == LiteralKind::Int {
                            "integer"
                        } else {
                            "float"
                        };
                        return Err(ParseError::new(
                            format!("{what} literal out of range {text:?}"),
                            raw.start,
                        ));
                    }
                },
            };
            out.push((token, raw.start));
        }
        out.push((Token::Eof, cursor.pos()));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
        Lexer::new(input)
            .tokenize()
            .expect("lex ok")
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }

    #[test]
    fn lexes_simple_select() {
        let t = toks("SELECT a FROM t WHERE x = 1;");
        assert_eq!(
            t,
            vec![
                Token::Keyword(Keyword::Select),
                Token::Ident("a".into()),
                Token::Keyword(Keyword::From),
                Token::Ident("t".into()),
                Token::Keyword(Keyword::Where),
                Token::Ident("x".into()),
                Token::Eq,
                Token::Int(1),
                Token::Semicolon,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        let t = toks("<> != <= >= < > || + - * / %");
        assert_eq!(
            t,
            vec![
                Token::Neq,
                Token::Neq,
                Token::LtEq,
                Token::GtEq,
                Token::Lt,
                Token::Gt,
                Token::Concat,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::Percent,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn string_escaping_doubles_quotes() {
        let t = toks("'it''s'");
        assert_eq!(t, vec![Token::Str("it's".into()), Token::Eof]);
    }

    #[test]
    fn strings_preserve_unicode() {
        let t = toks("'naïve λ'");
        assert_eq!(t, vec![Token::Str("naïve λ".into()), Token::Eof]);
    }

    #[test]
    fn comments_are_skipped() {
        let t = toks("SELECT -- line comment\n 1 /* block\ncomment */ + 2");
        assert_eq!(
            t,
            vec![
                Token::Keyword(Keyword::Select),
                Token::Int(1),
                Token::Plus,
                Token::Int(2),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn numbers_int_and_float() {
        let t = toks("42 3.25 1e3 2.5E-2");
        assert_eq!(
            t,
            vec![
                Token::Int(42),
                Token::Float(3.25),
                Token::Float(1000.0),
                Token::Float(0.025),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn dot_after_integer_without_digits_is_separate() {
        // `t1.a` style qualification must not be eaten by number lexing.
        let t = toks("1.a");
        assert_eq!(
            t,
            vec![
                Token::Int(1),
                Token::Dot,
                Token::Ident("a".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn quoted_identifiers_keep_case() {
        let t = toks("\"Mixed Case\"");
        assert_eq!(t, vec![Token::Ident("Mixed Case".into()), Token::Eof]);
    }

    #[test]
    fn unterminated_string_errors() {
        let err = Lexer::new("'abc").tokenize().unwrap_err();
        assert!(err.message().contains("unterminated"));
    }

    #[test]
    fn unterminated_block_comment_errors() {
        let err = Lexer::new("/* abc").tokenize().unwrap_err();
        assert!(err.message().contains("unterminated block comment"));
    }

    #[test]
    fn dollar_allowed_inside_identifier() {
        // Oracle exposes views like v$logmnr_contents.
        let t = toks("v$logmnr_contents");
        assert_eq!(
            t,
            vec![Token::Ident("v$logmnr_contents".into()), Token::Eof]
        );
    }

    #[test]
    fn numbers_out_of_range_error() {
        let err = Lexer::new("SELECT 1e400").tokenize().unwrap_err();
        assert_eq!(err.message(), "float literal out of range \"1e400\"");
        let err = Lexer::new("SELECT 99999999999999999999")
            .tokenize()
            .unwrap_err();
        assert!(err.message().starts_with("integer literal out of range"));
        assert_eq!(toks("1e308"), vec![Token::Float(1e308), Token::Eof]);
    }

    #[test]
    fn unexpected_character_reports_offset() {
        let err = Lexer::new("SELECT ^").tokenize().unwrap_err();
        assert_eq!(err.offset(), 7);
    }
}
