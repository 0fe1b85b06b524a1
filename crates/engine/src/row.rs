//! Rows, row identifiers and the binary row encoding used by the simulated
//! page layout and the Sybase-flavor `dbcc` introspection.

use std::fmt;

use crate::error::{EngineError, Result};
use crate::schema::TableSchema;
use crate::value::{DataType, Value};

/// Engine-internal identifier of a stored row.
///
/// Every flavor has row identity internally; whether it is *exposed to SQL*
/// (Oracle `ROWID`, PostgreSQL `ctid`) is a [`crate::Flavor`] capability —
/// the Sybase-like flavor hides it, which is why the paper's proxy injects
/// an `IDENTITY` column there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rid:{}", self.0)
    }
}

/// A stored row: one [`Value`] per schema column.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row(pub Vec<Value>);

impl Row {
    /// Creates a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row(values)
    }

    /// The values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value at `idx`.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Row(iter.into_iter().collect())
    }
}

/// Encodes a row into the fixed-width binary page format.
///
/// Layout: a 4-byte row header (tag byte + 3 reserved), then per column a
/// 1-byte kind tag followed by the fixed-width payload from
/// [`DataType::fixed_width`]. VARCHAR payloads are length-prefixed and
/// zero-padded to the declared width.
///
/// # Errors
///
/// Returns an error when the row's arity differs from the schema's or a
/// string exceeds its declared width.
pub fn encode_row(schema: &TableSchema, row: &Row) -> Result<Vec<u8>> {
    if row.len() != schema.columns.len() {
        return Err(EngineError::Internal(format!(
            "row arity {} does not match schema {} of {}",
            row.len(),
            schema.columns.len(),
            schema.name
        )));
    }
    let mut out = Vec::with_capacity(schema.row_width());
    // 4-byte row header: magic tag + reserved bytes.
    out.extend_from_slice(&[0xA0, 0, 0, 0]);
    for (col, v) in schema.columns.iter().zip(row.values()) {
        encode_value(&mut out, col.ty, v)?;
    }
    Ok(out)
}

/// Encodes a single value into its tagged fixed-width form (1 tag byte +
/// [`DataType::fixed_width`] payload bytes). Exposed for the Sybase-flavor
/// `dbcc log` delta encoding, which repair tools must decode.
///
/// # Errors
///
/// Type mismatch or over-long string.
pub fn encode_value(out: &mut Vec<u8>, ty: DataType, v: &Value) -> Result<()> {
    match (ty, v) {
        (_, Value::Null) => {
            out.push(0);
            out.extend(std::iter::repeat_n(0, ty.fixed_width()));
            Ok(())
        }
        (DataType::Integer, Value::Int(x)) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
            Ok(())
        }
        (DataType::Float, Value::Float(x)) => {
            out.push(2);
            out.extend_from_slice(&x.to_le_bytes());
            Ok(())
        }
        (DataType::Varchar(_), Value::Str(s)) => {
            let width = ty.fixed_width();
            let bytes = s.as_bytes();
            if bytes.len() > width - 1 {
                return Err(EngineError::Type(format!(
                    "string too long for page slot ({} > {})",
                    bytes.len(),
                    width - 1
                )));
            }
            out.push(3);
            out.push(bytes.len() as u8);
            out.extend_from_slice(bytes);
            out.extend(std::iter::repeat_n(0, width - 1 - bytes.len()));
            Ok(())
        }
        (ty, v) => Err(EngineError::Type(format!(
            "cannot encode {v:?} into {ty} slot"
        ))),
    }
}

/// Decodes one tagged value of type `ty` from the front of `bytes`,
/// returning the value and the number of bytes consumed.
///
/// # Errors
///
/// Short buffer or malformed tag.
pub fn decode_value(bytes: &[u8], ty: DataType) -> Result<(Value, usize)> {
    let width = ty.fixed_width();
    if bytes.len() < 1 + width {
        return Err(EngineError::Internal(format!(
            "value image too short: {} < {}",
            bytes.len(),
            1 + width
        )));
    }
    let tag = bytes[0];
    let payload = &bytes[1..1 + width];
    let v = match (tag, ty) {
        (0, _) => Value::Null,
        (1, DataType::Integer) => {
            let mut b = [0u8; 8];
            b.copy_from_slice(&payload[..8]);
            Value::Int(i64::from_le_bytes(b))
        }
        (2, DataType::Float) => {
            let mut b = [0u8; 8];
            b.copy_from_slice(&payload[..8]);
            Value::Float(f64::from_le_bytes(b))
        }
        (3, DataType::Varchar(_)) => {
            let len = payload[0] as usize;
            let s = std::str::from_utf8(&payload[1..1 + len])
                .map_err(|_| EngineError::Internal("invalid UTF-8 in value image".into()))?;
            Value::Str(s.to_string())
        }
        (tag, ty) => {
            return Err(EngineError::Internal(format!(
                "bad value tag {tag} for {ty}"
            )))
        }
    };
    Ok((v, 1 + width))
}

/// A stored row image read in place: columns are decoded on demand, so a
/// predicate that looks at two columns of a twenty-column row pays for two.
/// Column offsets are schema-constant ([`TableSchema::column_offset`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowView<'a> {
    schema: &'a TableSchema,
    image: &'a [u8],
}

impl<'a> RowView<'a> {
    /// Wraps `image`, a row of `schema` as produced by [`encode_row`].
    ///
    /// # Errors
    ///
    /// Returns an error when the byte buffer is shorter than the schema's
    /// row width — which, during repair, indicates the reconstructed page
    /// offset was wrong.
    pub(crate) fn new(schema: &'a TableSchema, image: &'a [u8]) -> Result<Self> {
        if image.len() < schema.row_width() {
            return Err(EngineError::Internal(format!(
                "row image too short: {} < {}",
                image.len(),
                schema.row_width()
            )));
        }
        Ok(Self { schema, image })
    }

    /// Decodes column `idx`.
    ///
    /// # Errors
    ///
    /// Malformed tag or string bytes.
    pub(crate) fn column(self, idx: usize) -> Result<Value> {
        let col = &self.schema.columns[idx];
        decode_value(&self.image[self.schema.column_offset(idx)..], col.ty).map(|(v, _)| v)
    }

    /// Decodes every column.
    ///
    /// # Errors
    ///
    /// Malformed tag or string bytes.
    pub(crate) fn to_row(self) -> Result<Row> {
        (0..self.schema.columns.len())
            .map(|i| self.column(i))
            .collect::<Result<Vec<Value>>>()
            .map(Row)
    }
}

/// Decodes a row previously produced by [`encode_row`].
///
/// # Errors
///
/// Returns an error when the byte buffer is shorter than the schema's row
/// width or contains malformed tags — which, during repair, indicates the
/// reconstructed page offset was wrong.
pub fn decode_row(schema: &TableSchema, bytes: &[u8]) -> Result<Row> {
    RowView::new(schema, bytes)?.to_row()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        let stmt =
            resildb_sql::parse_statement("CREATE TABLE t (a INTEGER, b VARCHAR(6), c FLOAT)")
                .unwrap();
        let resildb_sql::Statement::CreateTable(c) = stmt else {
            unreachable!()
        };
        TableSchema::from_create(&c).unwrap()
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = schema();
        let row = Row::new(vec![Value::Int(-7), Value::from("hi"), Value::Float(2.5)]);
        let bytes = encode_row(&s, &row).unwrap();
        assert_eq!(decode_row(&s, &bytes).unwrap(), row);
    }

    #[test]
    fn nulls_round_trip() {
        let s = schema();
        let row = Row::new(vec![Value::Null, Value::Null, Value::Null]);
        let bytes = encode_row(&s, &row).unwrap();
        assert_eq!(decode_row(&s, &bytes).unwrap(), row);
    }

    #[test]
    fn arity_mismatch_is_error() {
        let s = schema();
        assert!(encode_row(&s, &Row::new(vec![Value::Int(1)])).is_err());
    }

    #[test]
    fn overlong_string_is_error() {
        let s = schema();
        let row = Row::new(vec![
            Value::Int(1),
            Value::from("toolongstring"),
            Value::Float(0.0),
        ]);
        assert!(encode_row(&s, &row).is_err());
    }

    #[test]
    fn short_buffer_is_error() {
        let s = schema();
        assert!(decode_row(&s, &[0; 4]).is_err());
    }

    #[test]
    fn rowid_display() {
        assert_eq!(RowId(42).to_string(), "rid:42");
    }
}
