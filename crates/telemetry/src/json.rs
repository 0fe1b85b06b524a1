//! The one JSON writer of the telemetry and bench crates. [`JsonWriter`]
//! owns escaping, commas, nesting and number formatting, and takes typed
//! values only, so no caller can splice text that is not JSON.

use std::fmt::{self, Write as _};

/// One JSON leaf value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, written exactly.
    Int(i128),
    /// A float: `Display`, with NaN and ±infinity written as `0`.
    Float(f64),
    /// A string, escaped when written.
    Str(&'a str),
}

/// The unquoted, unescaped text of the value (`key=value` listings).
impl fmt::Display for Scalar<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Scalar::Null => f.write_str("null"),
            Scalar::Bool(b) => b.fmt(f),
            Scalar::Int(n) => n.fmt(f),
            Scalar::Float(x) => x.fmt(f),
            Scalar::Str(s) => f.write_str(s),
        }
    }
}

macro_rules! scalar_from {
    ($($t:ty => |$v:ident| $e:expr),*) => {$(
        impl<'a> From<$t> for Scalar<'a> {
            fn from($v: $t) -> Self { $e }
        }
    )*};
}
scalar_from!(bool => |v| Scalar::Bool(v), f64 => |v| Scalar::Float(v),
    &'a str => |v| Scalar::Str(v), i64 => |v| Scalar::Int(v.into()),
    u32 => |v| Scalar::Int(v.into()), u64 => |v| Scalar::Int(v.into()),
    usize => |v| Scalar::Int(v as i128));

impl<'a, T: Into<Scalar<'a>>> From<Option<T>> for Scalar<'a> {
    fn from(v: Option<T>) -> Self {
        v.map_or(Scalar::Null, Into::into)
    }
}

/// Builds one JSON document. Containers are written by closures, so
/// every one that is opened is closed; the writer places the commas.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or value follows a sibling.
    comma: bool,
}

impl JsonWriter {
    /// The document `f` writes (one value).
    pub fn render(f: impl FnOnce(&mut Self)) -> String {
        let mut w = Self::default();
        f(&mut w);
        w.out
    }

    /// Writes a leaf value (an array element, or a member after [`key`](Self::key)).
    pub fn value<'a>(&mut self, v: impl Into<Scalar<'a>>) -> &mut Self {
        self.sibling();
        match v.into() {
            Scalar::Str(s) => self.string(s),
            Scalar::Float(x) if !x.is_finite() => self.out.push('0'),
            other => self.out.push_str(&other.to_string()),
        }
        self
    }

    /// Writes an object member's key; its value is written next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sibling();
        self.string(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes an object member with a leaf value.
    pub fn field<'a>(&mut self, key: &str, v: impl Into<Scalar<'a>>) -> &mut Self {
        self.key(key).value(v)
    }

    /// Writes an object whose members `f` writes.
    pub fn object(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('{', '}', f)
    }

    /// Writes an array whose elements `f` writes.
    pub fn array(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('[', ']', f)
    }

    fn nest(&mut self, open: char, close: char, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.sibling();
        self.out.push(open);
        self.comma = false;
        f(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    fn sibling(&mut self) {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            let _ = match c {
                '"' => write!(self.out, "\\\""),
                '\\' => write!(self.out, "\\\\"),
                '\n' => write!(self.out, "\\n"),
                '\r' => write!(self.out, "\\r"),
                '\t' => write!(self.out, "\\t"),
                c if c < ' ' => write!(self.out, "\\u{:04x}", u32::from(c)),
                c => write!(self.out, "{c}"),
            };
        }
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commas_and_nesting() {
        let doc = JsonWriter::render(|w| {
            w.object(|w| {
                w.key("empty").object(|_| {});
                w.key("a").array(|w| {
                    w.array(|_| {}).object(|w| {
                        w.field("k", true);
                    });
                    w.value(-7_i64);
                });
                w.field("s", "x").field("none", Scalar::Null);
            });
        });
        assert_eq!(
            doc,
            r#"{"empty":{},"a":[[],{"k":true},-7],"s":"x","none":null}"#
        );
    }

    #[test]
    fn escapes_and_numbers() {
        let doc = JsonWriter::render(|w| {
            w.array(|w| {
                w.value("a\"b\\c\n\r\t\u{1}\u{7f}é😀");
                w.value(u64::MAX)
                    .value(1e21)
                    .value(1e-7)
                    .value(f64::INFINITY);
            });
        });
        assert_eq!(
            doc,
            "[\"a\\\"b\\\\c\\n\\r\\t\\u0001\u{7f}é😀\",18446744073709551615,\
             1000000000000000000000,0.0000001,0]"
        );
    }

    #[test]
    fn display_is_the_bare_text() {
        let shown: Vec<String> = [
            Scalar::Null,
            Scalar::from(true),
            Scalar::from(3_u32),
            Scalar::from(0.5),
            Scalar::from("a b"),
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(shown.join(","), "null,true,3,0.5,a b");
    }
}
