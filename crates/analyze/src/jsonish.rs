//! The workspace's one JSON reader.
//!
//! The workspace is dependency-free by policy, so machine-readable
//! artifacts are written with hand-rolled emitters and read back with
//! this recursive-descent parser: lint and blast-radius baselines,
//! flight-recorder captures, the `/incidents` document, benchmark result
//! files. It accepts the full JSON grammar — objects, arrays, strings
//! with `\uXXXX` escapes, numbers, booleans, null — and reports the byte
//! offset of the first violation otherwise, which is what lets
//! `resildb-lint` fail *loudly* on a corrupted baseline instead of
//! silently gating against garbage. Its inputs are operator-supplied
//! files, so nesting depth is bounded and the integer accessors never
//! round.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`; the baselines only carry counts).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, key-ordered.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member `key` of an object, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an integer, if it is one an `f64` holds exactly:
    /// integral and strictly inside ±2^53. `1.5`, `1e300` and ids past
    /// 2^53 (which the `f64` already rounded) are `None`, never a
    /// truncated neighbour.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(n) if n.fract() == 0.0 && n.abs() < EXACT_INT_BOUND => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// [`Self::as_i64`] restricted to non-negative values.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }
}

/// 2^53: below it every integer has its own `f64`.
const EXACT_INT_BOUND: f64 = 9_007_199_254_740_992.0;

/// Deepest container nesting accepted. The parser recurses once per
/// level and reads operator-supplied files, so the bound is what turns a
/// hostile `[[[[…` into an error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our exporters;
                            // map lone surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(format!(
                                "invalid escape `\\{}` at byte {}",
                                char::from(other),
                                self.pos
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so boundaries
                    // are valid); find its length from the leading byte.
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| (*b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse_json(
            r#"{"profiles": {"Payment": {"closure": ["Deliv", "Payment"], "n": 2.5}},
               "ok": true, "none": null, "neg": -3}"#,
        )
        .unwrap();
        let closure = v
            .get("profiles")
            .and_then(|p| p.get("Payment"))
            .and_then(|p| p.get("closure"))
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(closure[0].as_str(), Some("Deliv"));
        assert_eq!(v.get("neg"), Some(&JsonValue::Number(-3.0)));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse_json(r#""a\"b\\c\nAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nAé"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "tru", "{\"a\" 1}", "1 2", "", "\"unterminated"] {
            assert!(parse_json(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "0" + &"}".repeat(n);
        for n in [MAX_DEPTH - 1, MAX_DEPTH] {
            assert!(parse_json(&arrays(n)).is_ok(), "{n} arrays");
            assert!(parse_json(&objects(n)).is_ok(), "{n} objects");
        }
        assert_eq!(
            parse_json(&arrays(MAX_DEPTH + 1)).unwrap_err(),
            "nesting deeper than 128 at byte 128"
        );
        assert!(parse_json(&objects(MAX_DEPTH + 1)).is_err());
        // Hostile depth is an error, not a stack overflow.
        assert!(parse_json(&"[".repeat(200_000)).is_err());
        assert!(parse_json(&"{\"k\":".repeat(200_000)).is_err());
        // Siblings do not accumulate depth.
        assert!(parse_json(&format!("[{}]", vec!["[]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn integer_accessors_refuse_lossy_values() {
        let num = |text: &str| parse_json(text).unwrap();
        assert_eq!(num("42").as_u64(), Some(42));
        assert_eq!(num("-7").as_i64(), Some(-7));
        assert_eq!(num("-1").as_u64(), None);
        assert_eq!(num("1.5").as_u64(), None);
        assert_eq!(num("1.5").as_i64(), None);
        assert_eq!(num("1e300").as_i64(), None);
        assert_eq!(num("9007199254740991").as_u64(), Some((1 << 53) - 1));
        assert_eq!(num("9007199254740993").as_u64(), None);
        assert_eq!(num("-9007199254740993").as_i64(), None);
        assert_eq!(num("\"1\"").as_u64(), None);
        assert_eq!(num("true").as_bool(), Some(true));
        assert_eq!(num("1").as_bool(), None);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(
            parse_json("{}").unwrap(),
            JsonValue::Object(BTreeMap::new())
        );
        assert_eq!(parse_json("[]").unwrap(), JsonValue::Array(Vec::new()));
    }
}
