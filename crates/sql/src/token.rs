//! Lexical tokens of the resildb SQL dialect.

use std::fmt;

/// Declares [`Keyword`] from one list of `Variant => "SPELLING"` pairs, so
/// the enum, the lookup and the canonical spelling cannot drift apart.
macro_rules! keywords {
    ($($name:ident => $text:literal,)*) => {
        /// A reserved word recognised by the lexer.
        ///
        /// Identifiers that match a keyword case-insensitively are lexed as
        /// [`Token::Keyword`]; everything else becomes [`Token::Ident`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)] // variants are self-describing SQL keywords
        pub enum Keyword {
            $($name,)*
        }

        impl Keyword {
            /// Looks up a keyword from an identifier, case-insensitively.
            pub fn from_ident(s: &str) -> Option<Keyword> {
                $(if s.eq_ignore_ascii_case($text) {
                    return Some(Keyword::$name);
                })*
                None
            }

            /// The canonical upper-case spelling of this keyword.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Keyword::$name => $text,)*
                }
            }
        }
    };
}

keywords! {
    Select => "SELECT",
    From => "FROM",
    Where => "WHERE",
    Group => "GROUP",
    Order => "ORDER",
    By => "BY",
    Asc => "ASC",
    Desc => "DESC",
    Limit => "LIMIT",
    Insert => "INSERT",
    Into => "INTO",
    Values => "VALUES",
    Update => "UPDATE",
    Set => "SET",
    Delete => "DELETE",
    Create => "CREATE",
    Drop => "DROP",
    Table => "TABLE",
    Primary => "PRIMARY",
    Key => "KEY",
    Not => "NOT",
    Null => "NULL",
    Identity => "IDENTITY",
    Default => "DEFAULT",
    And => "AND",
    Or => "OR",
    In => "IN",
    Between => "BETWEEN",
    Like => "LIKE",
    Is => "IS",
    As => "AS",
    Distinct => "DISTINCT",
    Begin => "BEGIN",
    Commit => "COMMIT",
    Rollback => "ROLLBACK",
    Transaction => "TRANSACTION",
    Work => "WORK",
    True => "TRUE",
    False => "FALSE",
    For => "FOR",
    Of => "OF",
    Integer => "INTEGER",
    Int => "INT",
    Bigint => "BIGINT",
    Float => "FLOAT",
    Real => "REAL",
    Double => "DOUBLE",
    Precision => "PRECISION",
    Numeric => "NUMERIC",
    Decimal => "DECIMAL",
    Varchar => "VARCHAR",
    Char => "CHAR",
    Text => "TEXT",
    Timestamp => "TIMESTAMP",
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single lexical token together with its spelling-relevant payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A reserved word such as `SELECT`.
    Keyword(Keyword),
    /// An unquoted identifier, stored in its original case.
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A floating-point literal.
    Float(f64),
    /// A single-quoted string literal (quotes and escapes resolved).
    Str(String),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semicolon,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `||`
    Concat,
    /// `?` — a positional parameter placeholder (prepared statements and
    /// cached statement templates).
    Question,
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Ident(s) => f.write_str(s),
            Token::Int(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Comma => f.write_str(","),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Semicolon => f.write_str(";"),
            Token::Dot => f.write_str("."),
            Token::Star => f.write_str("*"),
            Token::Eq => f.write_str("="),
            Token::Neq => f.write_str("<>"),
            Token::Lt => f.write_str("<"),
            Token::LtEq => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::GtEq => f.write_str(">="),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Slash => f.write_str("/"),
            Token::Percent => f.write_str("%"),
            Token::Concat => f.write_str("||"),
            Token::Question => f.write_str("?"),
            Token::Eof => f.write_str("<eof>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_is_case_insensitive() {
        assert_eq!(Keyword::from_ident("select"), Some(Keyword::Select));
        assert_eq!(Keyword::from_ident("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::from_ident("w_id"), None);
    }

    #[test]
    fn keyword_display_round_trips() {
        for kw in [Keyword::Select, Keyword::Between, Keyword::Varchar] {
            assert_eq!(Keyword::from_ident(kw.as_str()), Some(kw));
        }
    }

    #[test]
    fn token_display_is_never_empty() {
        let tokens = [
            Token::Keyword(Keyword::Commit),
            Token::Ident("abc".into()),
            Token::Int(0),
            Token::Str(String::new()),
            Token::Eof,
        ];
        for t in tokens {
            assert!(!t.to_string().is_empty());
        }
    }
}
