//! Table schemas.

use crate::error::TableError;
use crate::types::DataType;
use crate::Result;

/// A named, typed column slot in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (case-sensitive).
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// New field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field { name: name.into(), dtype }
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Schema from `(name, type)` pairs.
    pub fn new(fields: &[(&str, DataType)]) -> Self {
        Schema { fields: fields.iter().map(|(n, t)| Field::new(*n, *t)).collect() }
    }

    /// Schema from owned fields.
    pub fn from_fields(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field at position `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// All fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Position of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| TableError::ColumnNotFound(name.to_string()))
    }

    /// Type of the column named `name`.
    pub fn type_of(&self, name: &str) -> Result<DataType> {
        Ok(self.fields[self.index_of(name)?].dtype)
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// The first column name an earlier column already has, if any: a
    /// schema that repeats a name holds a column no name can reach, since
    /// [`Schema::index_of`] finds the first.
    pub fn repeated_name(&self) -> Option<&str> {
        let mut seen = std::collections::HashSet::new();
        self.fields.iter().map(|f| f.name.as_str()).find(|name| !seen.insert(*name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(&[
            ("country", DataType::Str),
            ("value", DataType::Float64),
            ("local_time", DataType::Timestamp),
        ])
    }

    #[test]
    fn index_of_finds_columns() {
        let s = sample();
        assert_eq!(s.index_of("country").unwrap(), 0);
        assert_eq!(s.index_of("local_time").unwrap(), 2);
    }

    #[test]
    fn index_of_missing_errors() {
        let s = sample();
        assert!(matches!(s.index_of("nope"), Err(TableError::ColumnNotFound(_))));
    }

    #[test]
    fn type_of() {
        let s = sample();
        assert_eq!(s.type_of("value").unwrap(), DataType::Float64);
        assert_eq!(s.type_of("country").unwrap(), DataType::Str);
    }

    #[test]
    fn names_in_order() {
        assert_eq!(sample().names(), vec!["country", "value", "local_time"]);
    }

    #[test]
    fn empty_schema() {
        let s = Schema::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
