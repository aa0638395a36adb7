//! Error types for the table engine.

use std::fmt;

use crate::types::DataType;

/// Errors produced by the table engine.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// A referenced column does not exist in the schema.
    ColumnNotFound(String),
    /// A value had the wrong type for the column it was pushed into or
    /// compared against.
    TypeMismatch {
        /// What the operation expected.
        expected: DataType,
        /// What it got instead.
        found: String,
    },
    /// A row had the wrong number of values for the schema.
    ArityMismatch {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of values supplied.
        found: usize,
    },
    /// An operation required a numeric column but the column is not numeric.
    NotNumeric(String),
    /// A scalar function was applied to an incompatible input
    /// (e.g. `YEAR` over a string column).
    InvalidFunctionInput {
        /// Function name.
        function: &'static str,
        /// Human-readable description of the offending input.
        input: String,
    },
    /// SQL tokenizer/parser error with byte position.
    Sql {
        /// Error message.
        message: String,
        /// Byte offset in the input statement, if known.
        position: Option<usize>,
    },
    /// CSV parse error.
    Csv {
        /// 1-based line number.
        line: usize,
        /// Error message.
        message: String,
    },
    /// A row count that row ids — `u32` in a join's joined rows, group
    /// indexes and strata runs — cannot address.
    RowIdOverflow {
        /// What has too many rows.
        what: &'static str,
        /// How many it has.
        rows: usize,
    },
    /// Any other invariant violation, with a description.
    Invalid(String),
}

impl TableError {
    /// Convenience constructor for SQL errors.
    pub fn sql(message: impl Into<String>, position: Option<usize>) -> Self {
        TableError::Sql { message: message.into(), position }
    }

    /// Convenience constructor for generic invariant errors.
    pub fn invalid(message: impl Into<String>) -> Self {
        TableError::Invalid(message.into())
    }
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::ColumnNotFound(name) => write!(f, "column not found: {name}"),
            TableError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            TableError::ArityMismatch { expected, found } => {
                write!(f, "row arity mismatch: schema has {expected} columns, row has {found}")
            }
            TableError::NotNumeric(name) => write!(f, "column is not numeric: {name}"),
            TableError::InvalidFunctionInput { function, input } => {
                write!(f, "invalid input for {function}: {input}")
            }
            TableError::Sql { message, position } => match position {
                Some(pos) => write!(f, "SQL error at byte {pos}: {message}"),
                None => write!(f, "SQL error: {message}"),
            },
            TableError::Csv { line, message } => write!(f, "CSV error on line {line}: {message}"),
            TableError::RowIdOverflow { what, rows } => {
                write!(f, "{what} has {rows} rows; row ids are 32-bit (at most {})", u32::MAX)
            }
            TableError::Invalid(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for TableError {}

/// Row ids are `u32` — in a join's joined rows, in a strata pass's runs — so
/// `rows`, the count of what they address, has to fit one.
pub(crate) fn check_row_ids(what: &'static str, rows: usize) -> crate::Result<()> {
    if u32::try_from(rows).is_err() {
        return Err(TableError::RowIdOverflow { what, rows });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_column_not_found() {
        let e = TableError::ColumnNotFound("gpa".into());
        assert_eq!(e.to_string(), "column not found: gpa");
    }

    #[test]
    fn display_sql_with_position() {
        let e = TableError::sql("unexpected token", Some(7));
        assert_eq!(e.to_string(), "SQL error at byte 7: unexpected token");
    }

    #[test]
    fn display_sql_without_position() {
        let e = TableError::sql("empty statement", None);
        assert_eq!(e.to_string(), "SQL error: empty statement");
    }

    #[test]
    fn display_arity() {
        let e = TableError::ArityMismatch { expected: 3, found: 2 };
        assert!(e.to_string().contains("schema has 3"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(TableError::NotNumeric("major".into()));
        assert!(e.to_string().contains("not numeric"));
    }
}
