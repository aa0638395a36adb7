//! Scalar value and data-type definitions.

use std::fmt;
use std::sync::Arc;

/// The type of a column or scalar value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE float.
    Float64,
    /// Dictionary-encoded UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Timestamp stored as seconds since the Unix epoch (UTC).
    Timestamp,
}

impl DataType {
    /// Whether values of this type can be aggregated numerically.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int64 | DataType::Float64 | DataType::Timestamp)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int64 => "INT64",
            DataType::Float64 => "FLOAT64",
            DataType::Str => "STR",
            DataType::Bool => "BOOL",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A dynamically typed scalar value.
///
/// `Value` is used at API boundaries (row construction, predicate literals,
/// group keys in results). Hot loops inside the engine operate on typed
/// column storage instead.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int64(i64),
    /// 64-bit IEEE float.
    Float64(f64),
    /// UTF-8 string (cheaply cloneable).
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
    /// Seconds since the Unix epoch.
    Timestamp(i64),
    /// Missing value.
    Null,
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The [`DataType`] of this value, if it is not null.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            Value::Null => None,
        }
    }

    /// Numeric view of the value, if it has one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int64(v) | Value::Timestamp(v) => Some(*v as f64),
            Value::Float64(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(_) | Value::Null => None,
        }
    }

    /// Integer view of the value, if it has one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(v) | Value::Timestamp(v) => Some(*v),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Int64(a), Int64(b)) | (Timestamp(a), Timestamp(b)) => a == b,
            (Float64(a), Float64(b)) => a.total_cmp(b) == std::cmp::Ordering::Equal,
            (Str(a), Str(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Null, Null) => true,
            // Numeric cross-type comparison: Int64 vs Float64.
            (Int64(a), Float64(b)) | (Float64(b), Int64(a)) => (*a as f64) == *b,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(t) => write!(f, "@{t}"),
            Value::Null => f.write_str("NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_numeric() {
        assert!(DataType::Int64.is_numeric());
        assert!(DataType::Float64.is_numeric());
        assert!(DataType::Timestamp.is_numeric());
        assert!(!DataType::Str.is_numeric());
        assert!(!DataType::Bool.is_numeric());
    }

    #[test]
    fn value_as_f64() {
        assert_eq!(Value::Int64(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float64(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn value_equality_cross_numeric() {
        assert_eq!(Value::Int64(3), Value::Float64(3.0));
        assert_ne!(Value::Int64(3), Value::Float64(3.5));
        assert_eq!(Value::str("a"), Value::str("a"));
        assert_ne!(Value::str("a"), Value::Int64(1));
    }

    #[test]
    fn value_float_total_order_eq() {
        assert_eq!(Value::Float64(f64::NAN), Value::Float64(f64::NAN));
        assert_ne!(Value::Float64(0.0), Value::Float64(-0.0));
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Int64(7).to_string(), "7");
        assert_eq!(Value::str("VN").to_string(), "VN");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Timestamp(60).to_string(), "@60");
    }

    #[test]
    fn value_from_impls() {
        assert_eq!(Value::from(1i64), Value::Int64(1));
        assert_eq!(Value::from(1.5f64), Value::Float64(1.5));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
