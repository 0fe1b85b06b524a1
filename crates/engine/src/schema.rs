//! Table schemas.

use crate::error::{EngineError, Result};
use crate::value::DataType;

/// One column of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (stored lower-case; lookups are case-insensitive).
    pub name: String,
    /// Storage type.
    pub ty: DataType,
    /// `NOT NULL` constraint.
    pub not_null: bool,
    /// Auto-numbering identity column (Sybase-style surrogate row id).
    pub identity: bool,
}

impl Column {
    /// Creates a plain nullable column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Self {
            name: name.into().to_ascii_lowercase(),
            ty,
            not_null: false,
            identity: false,
        }
    }
}

/// Schema of one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (lower-cased).
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Indices (into `columns`) of the primary-key columns, in key order.
    pub primary_key: Vec<usize>,
    /// Byte offset of each column's kind tag inside a row image, plus the
    /// image's total width as the last entry. Row widths are
    /// schema-constant, so this is computed once in [`Self::from_create`]
    /// and lets a reader decode one column without walking the others.
    offsets: Vec<usize>,
}

impl TableSchema {
    /// Builds a schema from a parsed `CREATE TABLE`.
    ///
    /// # Errors
    ///
    /// Returns an error on duplicate column names or a primary-key
    /// reference to a missing column.
    pub fn from_create(stmt: &resildb_sql::CreateTable) -> Result<Self> {
        let mut columns = Vec::with_capacity(stmt.columns.len());
        let mut pk_from_cols = Vec::new();
        for (i, c) in stmt.columns.iter().enumerate() {
            let name = c.name.to_ascii_lowercase();
            if columns
                .iter()
                .any(|existing: &Column| existing.name == name)
            {
                return Err(EngineError::Constraint(format!(
                    "duplicate column {name} in table {}",
                    stmt.name
                )));
            }
            columns.push(Column {
                name,
                ty: DataType::from_type_name(&c.ty),
                not_null: c.not_null || c.primary_key,
                identity: c.identity,
            });
            if c.primary_key {
                pk_from_cols.push(i);
            }
        }
        // 4-byte row header, then per column a 1-byte kind tag plus the
        // type's fixed payload width (see `crate::row::encode_row`).
        let mut offsets = Vec::with_capacity(columns.len() + 1);
        let mut pos = 4;
        for c in &columns {
            offsets.push(pos);
            pos += 1 + c.ty.fixed_width();
        }
        offsets.push(pos);
        let mut schema = TableSchema {
            name: stmt.name.to_ascii_lowercase(),
            columns,
            primary_key: pk_from_cols,
            offsets,
        };
        if !stmt.primary_key.is_empty() {
            let mut pk = Vec::with_capacity(stmt.primary_key.len());
            for col in &stmt.primary_key {
                pk.push(schema.column_index(col)?);
            }
            schema.primary_key = pk;
        }
        for &i in &schema.primary_key {
            schema.columns[i].not_null = true;
        }
        Ok(schema)
    }

    /// Index of `name` (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownColumn`] when absent.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| EngineError::UnknownColumn(format!("{}.{name}", self.name)))
    }

    /// Whether the table declares a column called `name`.
    pub fn has_column(&self, name: &str) -> bool {
        self.column_index(name).is_ok()
    }

    /// Names of all columns, in order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// The fixed on-page row width in bytes (sum of column widths plus a
    /// small per-row header), used by the page layout and log-size
    /// accounting.
    pub fn row_width(&self) -> usize {
        self.offsets[self.columns.len()]
    }

    /// Byte offset of column `idx`'s kind tag inside a row image.
    pub(crate) fn column_offset(&self, idx: usize) -> usize {
        self.offsets[idx]
    }

    /// Index of the identity column, if any.
    pub fn identity_column(&self) -> Option<usize> {
        self.columns.iter().position(|c| c.identity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(sql: &str) -> TableSchema {
        let stmt = resildb_sql::parse_statement(sql).unwrap();
        let resildb_sql::Statement::CreateTable(c) = stmt else {
            panic!("not a create table");
        };
        TableSchema::from_create(&c).unwrap()
    }

    #[test]
    fn builds_from_create_with_table_level_pk() {
        let s = schema("CREATE TABLE t (A INTEGER, b VARCHAR(4), PRIMARY KEY (b, a))");
        assert_eq!(s.primary_key, vec![1, 0]);
        assert!(s.columns[0].not_null && s.columns[1].not_null);
        assert_eq!(s.column_index("a").unwrap(), 0);
    }

    #[test]
    fn column_level_pk_and_identity() {
        let s = schema("CREATE TABLE t (id INTEGER PRIMARY KEY, rid INTEGER IDENTITY)");
        assert_eq!(s.primary_key, vec![0]);
        assert_eq!(s.identity_column(), Some(1));
    }

    #[test]
    fn duplicate_column_is_error() {
        let stmt = resildb_sql::parse_statement("CREATE TABLE t (a INTEGER, A FLOAT)").unwrap();
        let resildb_sql::Statement::CreateTable(c) = stmt else {
            unreachable!()
        };
        assert!(TableSchema::from_create(&c).is_err());
    }

    #[test]
    fn pk_referencing_missing_column_is_error() {
        let stmt =
            resildb_sql::parse_statement("CREATE TABLE t (a INTEGER, PRIMARY KEY (zz))").unwrap();
        let resildb_sql::Statement::CreateTable(c) = stmt else {
            unreachable!()
        };
        assert!(TableSchema::from_create(&c).is_err());
    }

    #[test]
    fn lookups_are_case_insensitive() {
        let s = schema("CREATE TABLE t (W_YTD NUMERIC(12,2))");
        assert!(s.has_column("w_ytd"));
        assert!(s.has_column("W_Ytd"));
        assert!(!s.has_column("nope"));
    }

    #[test]
    fn row_width_is_schema_constant() {
        let s = schema("CREATE TABLE t (a INTEGER, b VARCHAR(10))");
        assert_eq!(s.row_width(), 4 + (1 + 8) + (1 + 11));
    }
}
