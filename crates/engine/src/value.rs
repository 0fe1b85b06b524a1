//! Runtime values and SQL comparison/arithmetic semantics.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{EngineError, Result};

/// The storage type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit signed integer (also backs `NUMERIC` and `TIMESTAMP`).
    Integer,
    /// 64-bit float.
    Float,
    /// Variable-length string with an optional declared maximum.
    Varchar(Option<u32>),
}

impl DataType {
    /// Maps a parsed SQL type to its storage type.
    pub fn from_type_name(t: &resildb_sql::TypeName) -> DataType {
        match t {
            resildb_sql::TypeName::Integer | resildb_sql::TypeName::Timestamp => DataType::Integer,
            // NUMERIC is stored as a float for simplicity; TPC-C money
            // amounts stay well within f64's exact-integer range.
            resildb_sql::TypeName::Float | resildb_sql::TypeName::Numeric { .. } => DataType::Float,
            resildb_sql::TypeName::Varchar(n) => DataType::Varchar(*n),
        }
    }

    /// The fixed on-page width (bytes) a value of this type occupies in the
    /// simulated page layout. Fixed widths keep in-place updates
    /// length-preserving, which matches Sybase's in-place `MODIFY`
    /// behaviour assumed by the paper's §4.3 offset algorithm.
    pub fn fixed_width(self) -> usize {
        match self {
            DataType::Integer | DataType::Float => 8,
            DataType::Varchar(Some(n)) => n as usize + 1, // length byte + padding
            DataType::Varchar(None) => 64,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Integer => f.write_str("INTEGER"),
            DataType::Float => f.write_str("FLOAT"),
            DataType::Varchar(Some(n)) => write!(f, "VARCHAR({n})"),
            DataType::Varchar(None) => f.write_str("TEXT"),
        }
    }
}

/// A runtime SQL value.
///
/// # Examples
///
/// ```
/// use resildb_engine::Value;
///
/// let sum = Value::Int(2).add(&Value::Float(0.5)).unwrap();
/// assert_eq!(sum, Value::Float(2.5));
/// assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean (result of predicates; storable too).
    Bool(bool),
    /// SQL NULL.
    Null,
}

impl Value {
    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interprets the value as a predicate outcome (SQL three-valued logic
    /// collapses UNKNOWN to false at the filter boundary).
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Null => false,
            _ => false,
        }
    }

    /// Converts a literal from the AST.
    pub fn from_literal(l: &resildb_sql::Literal) -> Value {
        match l {
            resildb_sql::Literal::Int(v) => Value::Int(*v),
            resildb_sql::Literal::Float(v) => Value::Float(*v),
            resildb_sql::Literal::Str(s) => Value::Str(s.clone()),
            resildb_sql::Literal::Bool(b) => Value::Bool(*b),
            resildb_sql::Literal::Null => Value::Null,
        }
    }

    /// Renders this value as a SQL literal (used when generating
    /// compensating statements and LogMiner-style redo/undo SQL).
    pub fn to_sql_literal(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Float(v) => resildb_sql::Literal::Float(*v).to_string(),
            Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Null => "NULL".to_string(),
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// SQL comparison: `None` when either side is NULL (UNKNOWN), numeric
    /// coercion between Int and Float, error on cross-kind comparison.
    pub fn sql_cmp(&self, other: &Value) -> Result<Option<Ordering>> {
        if self.is_null() || other.is_null() {
            return Ok(None);
        }
        let ord = match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x
                    .partial_cmp(&y)
                    .ok_or_else(|| EngineError::Type("NaN comparison".into()))?,
                _ => {
                    return Err(EngineError::Type(format!(
                        "cannot compare {a:?} with {b:?}"
                    )))
                }
            },
        };
        Ok(Some(ord))
    }

    fn arith(
        &self,
        other: &Value,
        int_op: impl Fn(i64, i64) -> Option<i64>,
        f_op: impl Fn(f64, f64) -> f64,
        name: &str,
    ) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => int_op(*a, *b)
                .map(Value::Int)
                .ok_or_else(|| EngineError::Type(format!("integer {name} overflow or /0"))),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                // An infinity or NaN is never stored: like PostgreSQL,
                // an overflowing float result is an error.
                (Some(x), Some(y)) => match f_op(x, y) {
                    v if v.is_finite() => Ok(Value::Float(v)),
                    _ => Err(EngineError::Type("value out of range: overflow".into())),
                },
                _ => Err(EngineError::Type(format!("cannot {name} {a:?} and {b:?}"))),
            },
        }
    }

    /// SQL `+` with NULL propagation and Int/Float coercion.
    pub fn add(&self, other: &Value) -> Result<Value> {
        self.arith(other, i64::checked_add, |a, b| a + b, "add")
    }

    /// SQL `-`.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        self.arith(other, i64::checked_sub, |a, b| a - b, "subtract")
    }

    /// SQL `*`.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        self.arith(other, i64::checked_mul, |a, b| a * b, "multiply")
    }

    /// SQL `/` (errors on division by zero).
    pub fn div(&self, other: &Value) -> Result<Value> {
        if matches!(other, Value::Int(0)) || matches!(other, Value::Float(f) if *f == 0.0) {
            return Err(EngineError::Type("division by zero".into()));
        }
        self.arith(other, i64::checked_div, |a, b| a / b, "divide")
    }

    /// SQL `%`.
    pub fn rem(&self, other: &Value) -> Result<Value> {
        if matches!(other, Value::Int(0)) || matches!(other, Value::Float(f) if *f == 0.0) {
            return Err(EngineError::Type("modulo by zero".into()));
        }
        self.arith(other, i64::checked_rem, |a, b| a % b, "mod")
    }

    /// SQL `||` string concatenation (NULL-propagating).
    pub fn concat(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        Ok(Value::Str(format!(
            "{}{}",
            self.to_plain_string(),
            other.to_plain_string()
        )))
    }

    /// Unary minus.
    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(v) => v
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| EngineError::Type("integer negation overflow".into())),
            Value::Float(v) => Ok(Value::Float(-v)),
            other => Err(EngineError::Type(format!("cannot negate {other:?}"))),
        }
    }

    /// Coerces this value to what column type `ty` stores; used on insert
    /// and update so stored data matches the schema.
    pub fn coerce_to(&self, ty: DataType) -> Result<Value> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Int(v), DataType::Integer) => Ok(Value::Int(*v)),
            (Value::Int(v), DataType::Float) => Ok(Value::Float(*v as f64)),
            (Value::Float(v), DataType::Float) => Ok(Value::Float(*v)),
            (Value::Float(v), DataType::Integer) if v.fract() == 0.0 => Ok(Value::Int(*v as i64)),
            (Value::Str(s), DataType::Varchar(limit)) => {
                if let Some(n) = limit {
                    if s.chars().count() > n as usize {
                        return Err(EngineError::Type(format!(
                            "string of length {} exceeds VARCHAR({n})",
                            s.chars().count()
                        )));
                    }
                }
                Ok(Value::Str(s.clone()))
            }
            (Value::Bool(b), DataType::Integer) => Ok(Value::Int(i64::from(*b))),
            (v, ty) => Err(EngineError::Type(format!("cannot store {v:?} as {ty}"))),
        }
    }

    /// This predicate literal as a value of column type `ty` that compares
    /// ([`Self::sql_cmp`]) against every stored value of the column exactly
    /// as the literal itself does — what an index probe or a sorted `IN`
    /// set may stand on. `None` when there is no such value (`1.5` or
    /// `'x'` against an `INTEGER`, a float too large to name one integer,
    /// `NULL`): the literal then stays with the row filter, which gives the
    /// comparison's own answer or error. Unlike [`Self::coerce_to`] this is
    /// never a store, so a string longer than its `VARCHAR(n)` is fine — it
    /// just matches nothing.
    pub(crate) fn key_literal(&self, ty: DataType) -> Option<Value> {
        /// Below this magnitude every integral f64 is exactly one i64.
        const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match (self, ty) {
            (Value::Int(v), DataType::Integer) => Some(Value::Int(*v)),
            (Value::Float(v), DataType::Integer) if v.fract() == 0.0 && v.abs() < EXACT => {
                Some(Value::Int(*v as i64))
            }
            (Value::Int(v), DataType::Float) => Some(Value::Float(*v as f64)),
            (Value::Float(v), DataType::Float) if !v.is_nan() => Some(Value::Float(*v)),
            (Value::Str(s), DataType::Varchar(_)) => Some(Value::Str(s.clone())),
            _ => None,
        }
    }

    /// Total order over values of one kind, as the primary-key index orders
    /// them; sorts and searches the `IN` sets built from
    /// [`Self::key_literal`] values.
    pub(crate) fn key_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) => 1,
                Value::Float(_) => 2,
                Value::Bool(_) => 3,
                Value::Str(_) => 4,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Plain (unquoted) textual form, used for concatenation and display.
    pub(crate) fn to_plain_string(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            other => other.to_sql_literal(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_plain_string())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_through_arithmetic() {
        assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(1).mul(&Value::Null).unwrap().is_null());
        assert!(Value::Null.concat(&Value::from("x")).unwrap().is_null());
        assert!(Value::Null.neg().unwrap().is_null());
    }

    #[test]
    fn numeric_coercion_in_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)).unwrap(),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)).unwrap(),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn null_comparison_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)).unwrap(), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null).unwrap(), None);
    }

    #[test]
    fn cross_kind_comparison_errors() {
        assert!(Value::Int(1).sql_cmp(&Value::from("x")).is_err());
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::Float(1.0).rem(&Value::Float(0.0)).is_err());
    }

    #[test]
    fn overflow_is_an_error_not_a_wrap() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
        assert!(Value::Int(i64::MIN).neg().is_err());
    }

    #[test]
    fn float_overflow_is_an_error_not_an_infinity() {
        let err = Value::Float(1e308).mul(&Value::Float(10.0)).unwrap_err();
        assert_eq!(
            err,
            EngineError::Type("value out of range: overflow".into())
        );
        assert!(Value::Float(f64::MAX).add(&Value::Int(i64::MAX)).is_ok());
        assert!(Value::Float(-f64::MAX)
            .sub(&Value::Float(f64::MAX))
            .is_err());
        assert!(Value::Float(1e300).div(&Value::Float(1e-300)).is_err());
    }

    #[test]
    fn sql_literal_rendering() {
        assert_eq!(Value::Int(3).to_sql_literal(), "3");
        assert_eq!(Value::Float(2.0).to_sql_literal(), "2.0");
        assert_eq!(Value::Float(1e20).to_sql_literal(), "1e20");
        assert_eq!(Value::Float(-1.5e15).to_sql_literal(), "-1.5e15");
        assert_eq!(Value::Float(999e12).to_sql_literal(), "999000000000000.0");
        assert_eq!(Value::from("o'clock").to_sql_literal(), "'o''clock'");
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
    }

    proptest::proptest! {
        /// Every finite float renders as SQL that parses back to the same
        /// bits: compensation and LogMiner SQL restore exactly what was
        /// stored.
        #[test]
        fn float_literals_parse_back_bit_for_bit(bits in proptest::prelude::any::<u64>()) {
            use resildb_sql::{Expr, Literal, SelectItem, Statement};
            // An all-ones exponent (infinity, NaN) loses its top bit.
            let v = match f64::from_bits(bits) {
                v if v.is_finite() => v,
                _ => f64::from_bits(bits & !(1 << 62)),
            };
            let sql = format!("SELECT {}", Value::Float(v).to_sql_literal());
            let parsed = match resildb_sql::parse_statement(&sql) {
                Ok(Statement::Select(select)) => match &select.items[..] {
                    [SelectItem::Expr {
                        expr: Expr::Literal(Literal::Float(p)),
                        ..
                    }] => Some(p.to_bits()),
                    _ => None,
                },
                _ => None,
            };
            proptest::prop_assert_eq!(parsed, Some(v.to_bits()), "{}", sql);
        }
    }

    #[test]
    fn coercion_respects_varchar_limit() {
        let ok = Value::from("abc").coerce_to(DataType::Varchar(Some(3)));
        assert!(ok.is_ok());
        let too_long = Value::from("abcd").coerce_to(DataType::Varchar(Some(3)));
        assert!(too_long.is_err());
    }

    #[test]
    fn coercion_int_float() {
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Value::Float(3.0).coerce_to(DataType::Integer).unwrap(),
            Value::Int(3)
        );
        assert!(Value::Float(3.5).coerce_to(DataType::Integer).is_err());
    }

    #[test]
    fn key_literals_compare_exactly_as_the_literal_does() {
        let big = 9_007_199_254_740_993_i64; // 2^53 + 1: not an f64
        let ints = [i64::MIN, -big, -2, -1, 0, 1, 2, 3, big, i64::MAX];
        let floats = [
            f64::NEG_INFINITY,
            -9_007_199_254_740_992.0,
            -1.5,
            -0.0,
            0.0,
            1.0,
            2.0,
            2.5,
            9_007_199_254_740_992.0,
            1e300,
            f64::INFINITY,
        ];
        let strs = ["", "a", "a\0", "ab", "toolongforthecolumn"];
        let mut literals: Vec<Value> = vec![Value::Null, Value::Bool(true)];
        literals.extend(ints.map(Value::Int));
        literals.extend(floats.map(Value::Float));
        literals.extend(strs.map(Value::from));
        let stored = |ty| -> Vec<Value> {
            match ty {
                DataType::Integer => ints.map(Value::Int).to_vec(),
                DataType::Float => floats.map(Value::Float).to_vec(),
                DataType::Varchar(_) => strs.map(Value::from).to_vec(),
            }
        };
        for ty in [
            DataType::Integer,
            DataType::Float,
            DataType::Varchar(Some(2)),
        ] {
            for lit in &literals {
                let Some(key) = lit.key_literal(ty) else {
                    continue;
                };
                for v in stored(ty) {
                    assert_eq!(
                        v.sql_cmp(&key).unwrap(),
                        v.sql_cmp(lit).unwrap(),
                        "{v:?} vs {lit:?} as {key:?}"
                    );
                }
            }
        }
        // What has no exact value of the type is left to the filter.
        assert_eq!(Value::Float(1.5).key_literal(DataType::Integer), None);
        assert_eq!(Value::Float(1e300).key_literal(DataType::Integer), None);
        assert_eq!(Value::from("x").key_literal(DataType::Integer), None);
        assert_eq!(Value::Int(1).key_literal(DataType::Varchar(None)), None);
        assert_eq!(Value::Null.key_literal(DataType::Integer), None);
        assert_eq!(
            Value::Float(2.0).key_literal(DataType::Integer),
            Some(Value::Int(2))
        );
    }

    #[test]
    fn fixed_widths_are_positive_and_stable() {
        assert_eq!(DataType::Integer.fixed_width(), 8);
        assert_eq!(DataType::Varchar(Some(10)).fixed_width(), 11);
        assert!(DataType::Varchar(None).fixed_width() > 0);
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(Value::Int(7).is_truthy());
    }
}
