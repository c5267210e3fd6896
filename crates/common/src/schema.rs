//! Table schemas.
//!
//! A [`Schema`] is the per-table column catalog shared by all three stages of
//! the unified table: the L1-delta stores whole rows against it, the
//! L2-delta and main store keep one dictionary-encoded column per
//! [`ColumnDef`].

use crate::error::{HanaError, Result};
use crate::value::{DataType, Value};
use std::fmt;
use std::sync::Arc;

/// Identifier of a table within a [`Database`](https://docs.rs) catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Zero-based column position within a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId(pub u16);

impl ColumnId {
    /// The position as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ColumnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Definition of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name, unique within the table.
    pub name: String,
    /// Logical type.
    pub data_type: DataType,
    /// Whether NULL values are accepted.
    pub nullable: bool,
    /// Whether a uniqueness constraint is enforced (checked through the
    /// inverted indexes of all three stages, cf. paper §3.1).
    pub unique: bool,
}

impl ColumnDef {
    /// A nullable, non-unique column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            data_type,
            nullable: true,
            unique: false,
        }
    }

    /// Mark the column NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }

    /// Mark the column UNIQUE (implies NOT NULL, as in the paper's unique
    /// constraint checks which probe concrete values).
    pub fn unique(mut self) -> Self {
        self.unique = true;
        self.nullable = false;
        self
    }
}

/// An immutable, shareable table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Table name.
    pub name: String,
    columns: Arc<Vec<ColumnDef>>,
}

impl Schema {
    /// Build a schema; fails on duplicate column names or zero columns.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Result<Self> {
        let name = name.into();
        if columns.is_empty() {
            return Err(HanaError::Schema(format!("table {name} has no columns")));
        }
        if columns.len() > u16::MAX as usize {
            return Err(HanaError::Schema(format!(
                "table {name} has too many columns"
            )));
        }
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(HanaError::Schema(format!(
                    "duplicate column name {} in table {name}",
                    c.name
                )));
            }
        }
        Ok(Schema {
            name,
            columns: Arc::new(columns),
        })
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// All column definitions in positional order.
    #[inline]
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// The definition at `col`.
    #[inline]
    pub fn column(&self, col: ColumnId) -> &ColumnDef {
        &self.columns[col.idx()]
    }

    /// Resolve a column name to its id.
    pub fn column_id(&self, name: &str) -> Result<ColumnId> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .map(|i| ColumnId(i as u16))
            .ok_or_else(|| {
                HanaError::Schema(format!("unknown column {name} in table {}", self.name))
            })
    }

    /// Ids of all columns carrying a uniqueness constraint.
    pub fn unique_columns(&self) -> impl Iterator<Item = ColumnId> + '_ {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unique)
            .map(|(i, _)| ColumnId(i as u16))
    }

    /// True if the column at index `col` carries a uniqueness constraint —
    /// the columns whose main and L2 stages keep inverted indexes.
    #[inline]
    pub fn is_key(&self, col: usize) -> bool {
        self.columns[col].unique
    }

    /// Validate a full row against arity, types and nullability.
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.arity() {
            return Err(HanaError::Schema(format!(
                "row arity {} does not match table {} arity {}",
                row.len(),
                self.name,
                self.arity()
            )));
        }
        for (v, c) in row.iter().zip(self.columns.iter()) {
            self.check_value(v, c)?;
        }
        Ok(())
    }

    /// Validate a single cell against one column definition.
    pub fn check_value(&self, v: &Value, c: &ColumnDef) -> Result<()> {
        if v.is_null() {
            if !c.nullable {
                return Err(HanaError::Constraint(format!(
                    "column {} of table {} is NOT NULL",
                    c.name, self.name
                )));
            }
            return Ok(());
        }
        if !v.matches_type(c.data_type) {
            return Err(HanaError::Schema(format!(
                "value {v} has wrong type for column {} ({}) of table {}",
                c.name, c.data_type, self.name
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("city", DataType::Str),
                ColumnDef::new("amount", DataType::Double).not_null(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn resolves_columns_by_name() {
        let s = schema();
        assert_eq!(s.column_id("city").unwrap(), ColumnId(1));
        assert!(s.column_id("nope").is_err());
        assert_eq!(s.column(ColumnId(2)).name, "amount");
    }

    #[test]
    fn rejects_duplicate_columns() {
        let err = Schema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("a", DataType::Str),
            ],
        );
        assert!(err.is_err());
    }

    #[test]
    fn rejects_empty_schema() {
        assert!(Schema::new("t", vec![]).is_err());
    }

    #[test]
    fn unique_implies_not_null() {
        let s = schema();
        let unique: Vec<_> = s.unique_columns().collect();
        assert_eq!(unique, vec![ColumnId(0)]);
        assert!(!s.column(ColumnId(0)).nullable);
        assert!(s.is_key(0) && !s.is_key(1) && !s.is_key(2));
    }

    #[test]
    fn row_validation() {
        let s = schema();
        assert!(s
            .check_row(&[Value::Int(1), Value::str("Daily City"), Value::double(9.5)])
            .is_ok());
        // Wrong arity.
        assert!(s.check_row(&[Value::Int(1)]).is_err());
        // Type mismatch.
        assert!(s
            .check_row(&[Value::str("x"), Value::str("y"), Value::double(1.0)])
            .is_err());
        // NULL in NOT NULL column.
        assert!(s
            .check_row(&[Value::Int(1), Value::Null, Value::Null])
            .is_err());
        // NULL in nullable column is fine.
        assert!(s
            .check_row(&[Value::Int(1), Value::Null, Value::double(0.0)])
            .is_ok());
    }
}
