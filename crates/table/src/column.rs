//! Typed columnar storage.

use std::borrow::Cow;

use crate::dict::{check_first_occurrence, Dictionary, Recode};
use crate::error::TableError;
use crate::types::{DataType, Value};
use crate::Result;

/// A single column of a [`crate::Table`].
///
/// Strings are dictionary encoded: the column stores dense `u32` codes plus a
/// [`Dictionary`]. All other types are plain vectors.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Dictionary-encoded strings.
    Str {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// Code → string mapping.
        dict: Dictionary,
    },
    /// Epoch-second timestamps.
    Timestamp(Vec<i64>),
}

impl Column {
    /// An empty column of the given type.
    pub fn new(dtype: DataType) -> Self {
        match dtype {
            DataType::Int64 => Column::Int64(Vec::new()),
            DataType::Float64 => Column::Float64(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::Str => Column::Str { codes: Vec::new(), dict: Dictionary::new() },
            DataType::Timestamp => Column::Timestamp(Vec::new()),
        }
    }

    /// An empty column with pre-allocated row capacity.
    pub fn with_capacity(dtype: DataType, capacity: usize) -> Self {
        match dtype {
            DataType::Int64 => Column::Int64(Vec::with_capacity(capacity)),
            DataType::Float64 => Column::Float64(Vec::with_capacity(capacity)),
            DataType::Bool => Column::Bool(Vec::with_capacity(capacity)),
            DataType::Str => {
                Column::Str { codes: Vec::with_capacity(capacity), dict: Dictionary::new() }
            }
            DataType::Timestamp => Column::Timestamp(Vec::with_capacity(capacity)),
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Bool(_) => DataType::Bool,
            Column::Str { .. } => DataType::Str,
            Column::Timestamp(_) => DataType::Timestamp,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) | Column::Timestamp(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Str { codes, .. } => codes.len(),
        }
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate storage footprint in bytes — a pure function of the
    /// data (fixed per-element widths, dictionary string bytes), never of
    /// platform pointer sizes, so the value is snapshot-stable across
    /// machines. See [`crate::Table::approx_bytes`].
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Column::Int64(v) | Column::Timestamp(v) => 8 * v.len() as u64,
            Column::Float64(v) => 8 * v.len() as u64,
            Column::Bool(v) => v.len() as u64,
            Column::Str { codes, dict } => 4 * codes.len() as u64 + dict.approx_bytes(),
        }
    }

    /// Append one value. The value type must match the column type.
    pub fn push(&mut self, value: &Value) -> Result<()> {
        match (self, value) {
            (Column::Int64(v), Value::Int64(x)) => v.push(*x),
            (Column::Float64(v), Value::Float64(x)) => v.push(*x),
            (Column::Float64(v), Value::Int64(x)) => v.push(*x as f64),
            (Column::Bool(v), Value::Bool(x)) => v.push(*x),
            (Column::Str { codes, dict }, Value::Str(s)) => codes.push(dict.intern(s)),
            (Column::Timestamp(v), Value::Timestamp(x)) => v.push(*x),
            (Column::Timestamp(v), Value::Int64(x)) => v.push(*x),
            (col, v) => {
                return Err(TableError::TypeMismatch {
                    expected: col.data_type(),
                    found: format!("{v:?}"),
                })
            }
        }
        Ok(())
    }

    /// Append every row of `other` (same data type) onto this column.
    ///
    /// Fixed-width columns extend their backing vectors directly; string
    /// columns re-intern `other`'s values in row order — once per distinct
    /// code of `other`, not once per row — so the combined dictionary
    /// assigns codes in first-occurrence order over the concatenation:
    /// exactly the dictionary a fresh row-by-row build of the combined data
    /// would produce. [`Column::approx_bytes`] therefore stays a pure
    /// function of the data, independent of append history.
    pub fn extend_from(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Int64(v), Column::Int64(o)) => v.extend_from_slice(o),
            (Column::Float64(v), Column::Float64(o)) => v.extend_from_slice(o),
            (Column::Bool(v), Column::Bool(o)) => v.extend_from_slice(o),
            (Column::Timestamp(v), Column::Timestamp(o)) => v.extend_from_slice(o),
            (Column::Str { codes, dict }, Column::Str { codes: ocodes, dict: odict }) => {
                let mut recode = Recode::new(odict);
                codes.reserve(ocodes.len());
                codes.extend(ocodes.iter().map(|&c| recode.code(c, dict)));
            }
            (col, other) => {
                return Err(TableError::TypeMismatch {
                    expected: col.data_type(),
                    found: format!("{:?} column", other.data_type()),
                })
            }
        }
        Ok(())
    }

    /// The gather kernel for one column: a `dtype` column of `len` rows whose
    /// row `i` is row `at(i).1` of `parts[at(i).0]`. Fixed-width values are
    /// copied by one typed loop over the parts' slices; strings go through
    /// one [`Recode`] per part, so the output dictionary holds only what the
    /// output rows use, in their first-occurrence order — the column a
    /// row-by-row build of the same rows would produce, byte for byte. A
    /// part of another type is an error, never a panic.
    pub(crate) fn gather(
        dtype: DataType,
        parts: &[&Column],
        len: usize,
        at: impl Fn(usize) -> (usize, usize),
    ) -> Result<Column> {
        if let Some(other) = parts.iter().find(|part| part.data_type() != dtype) {
            return Err(TableError::TypeMismatch {
                expected: dtype,
                found: format!("{:?} column", other.data_type()),
            });
        }
        fn copied<T: Copy>(
            slices: Vec<&[T]>,
            len: usize,
            at: impl Fn(usize) -> (usize, usize),
        ) -> Vec<T> {
            let value = |i| {
                let (part, row) = at(i);
                slices[part][row]
            };
            (0..len).map(value).collect()
        }
        let i64s = || parts.iter().map(|part| part.i64_slice().expect("type checked")).collect();
        Ok(match dtype {
            DataType::Int64 => Column::Int64(copied(i64s(), len, at)),
            DataType::Timestamp => Column::Timestamp(copied(i64s(), len, at)),
            DataType::Float64 => {
                let slices = parts.iter().map(|part| part.f64_slice().expect("type checked"));
                Column::Float64(copied(slices.collect(), len, at))
            }
            DataType::Bool => {
                let slices = parts.iter().map(|part| match part {
                    Column::Bool(v) => v.as_slice(),
                    _ => unreachable!("type checked"),
                });
                Column::Bool(copied(slices.collect(), len, at))
            }
            DataType::Str => {
                let old: Vec<&[u32]> =
                    parts.iter().map(|part| part.str_codes().expect("type checked")).collect();
                let mut recodes: Vec<Recode<'_>> = parts
                    .iter()
                    .map(|part| Recode::new(part.dictionary().expect("type checked")))
                    .collect();
                let mut dict = Dictionary::new();
                let code = |i| {
                    let (part, row) = at(i);
                    recodes[part].code(old[part][row], &mut dict)
                };
                let codes = (0..len).map(code).collect();
                Column::Str { codes, dict }
            }
        })
    }

    /// This column with a string dictionary in first-occurrence order of
    /// its codes and no unused entry (see
    /// [`crate::dict::check_first_occurrence`]) — the column a row-by-row
    /// build of the same values gives. Borrowed when it already is; a
    /// string column that is not is recoded through `Column::gather`.
    pub fn canonical(&self) -> Cow<'_, Column> {
        match self {
            Column::Str { codes, dict } if check_first_occurrence(codes, dict.len()).is_err() => {
                let all = |row| (0, row);
                let recoded = Column::gather(DataType::Str, &[self], codes.len(), all);
                Cow::Owned(recoded.expect("a column gathers from itself"))
            }
            _ => Cow::Borrowed(self),
        }
    }

    /// `copies` back-to-back copies of this column. A string column keeps
    /// its dictionary — the first copy already uses every entry, in order —
    /// unless there is no first copy.
    pub(crate) fn repeat(&self, copies: usize) -> Column {
        match self {
            Column::Int64(v) => Column::Int64(v.repeat(copies)),
            Column::Timestamp(v) => Column::Timestamp(v.repeat(copies)),
            Column::Float64(v) => Column::Float64(v.repeat(copies)),
            Column::Bool(v) => Column::Bool(v.repeat(copies)),
            Column::Str { .. } if copies == 0 => Column::new(DataType::Str),
            Column::Str { codes, dict } => {
                Column::Str { codes: codes.repeat(copies), dict: dict.clone() }
            }
        }
    }

    /// The value at `row` as a dynamically typed [`Value`].
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int64(v) => Value::Int64(v[row]),
            Column::Float64(v) => Value::Float64(v[row]),
            Column::Bool(v) => Value::Bool(v[row]),
            Column::Str { codes, dict } => Value::Str(dict.get_arc(codes[row])),
            Column::Timestamp(v) => Value::Timestamp(v[row]),
        }
    }

    /// Numeric view of the value at `row`, if the column is numeric or bool.
    #[inline]
    pub fn f64_at(&self, row: usize) -> Option<f64> {
        match self {
            Column::Int64(v) | Column::Timestamp(v) => Some(v[row] as f64),
            Column::Float64(v) => Some(v[row]),
            Column::Bool(v) => Some(if v[row] { 1.0 } else { 0.0 }),
            Column::Str { .. } => None,
        }
    }

    /// Integer view of the value at `row`, if the column is integer-like.
    #[inline]
    pub fn i64_at(&self, row: usize) -> Option<i64> {
        match self {
            Column::Int64(v) | Column::Timestamp(v) => Some(v[row]),
            Column::Bool(v) => Some(i64::from(v[row])),
            _ => None,
        }
    }

    /// Dictionary code at `row`, for string columns.
    #[inline]
    pub fn str_code_at(&self, row: usize) -> Option<u32> {
        match self {
            Column::Str { codes, .. } => Some(codes[row]),
            _ => None,
        }
    }

    /// The dictionary, for string columns.
    pub fn dictionary(&self) -> Option<&Dictionary> {
        match self {
            Column::Str { dict, .. } => Some(dict),
            _ => None,
        }
    }

    /// The raw code slice, for string columns.
    pub fn str_codes(&self) -> Option<&[u32]> {
        match self {
            Column::Str { codes, .. } => Some(codes),
            _ => None,
        }
    }

    /// Raw i64 slice for `Int64`/`Timestamp` columns.
    pub fn i64_slice(&self) -> Option<&[i64]> {
        match self {
            Column::Int64(v) | Column::Timestamp(v) => Some(v),
            _ => None,
        }
    }

    /// Raw f64 slice for `Float64` columns.
    pub fn f64_slice(&self) -> Option<&[f64]> {
        match self {
            Column::Float64(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_int() {
        let mut c = Column::new(DataType::Int64);
        c.push(&Value::Int64(7)).unwrap();
        c.push(&Value::Int64(-3)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(1), Value::Int64(-3));
        assert_eq!(c.f64_at(0), Some(7.0));
        assert_eq!(c.i64_at(0), Some(7));
    }

    #[test]
    fn push_int_into_float_widens() {
        let mut c = Column::new(DataType::Float64);
        c.push(&Value::Int64(2)).unwrap();
        c.push(&Value::Float64(0.5)).unwrap();
        assert_eq!(c.f64_slice().unwrap(), &[2.0, 0.5]);
    }

    #[test]
    fn push_type_mismatch() {
        let mut c = Column::new(DataType::Int64);
        let err = c.push(&Value::str("x")).unwrap_err();
        assert!(matches!(err, TableError::TypeMismatch { expected: DataType::Int64, .. }));
    }

    #[test]
    fn string_dictionary_encoding() {
        let mut c = Column::new(DataType::Str);
        for s in ["US", "VN", "US", "US", "IN"] {
            c.push(&Value::str(s)).unwrap();
        }
        assert_eq!(c.str_codes().unwrap(), &[0, 1, 0, 0, 2]);
        assert_eq!(c.dictionary().unwrap().len(), 3);
        assert_eq!(c.value(4), Value::str("IN"));
        assert_eq!(c.str_code_at(2), Some(0));
        assert_eq!(c.f64_at(0), None);
    }

    #[test]
    fn timestamp_accepts_int() {
        let mut c = Column::new(DataType::Timestamp);
        c.push(&Value::Timestamp(100)).unwrap();
        c.push(&Value::Int64(200)).unwrap();
        assert_eq!(c.i64_slice().unwrap(), &[100, 200]);
        assert_eq!(c.value(0), Value::Timestamp(100));
    }

    #[test]
    fn bool_numeric_view() {
        let mut c = Column::new(DataType::Bool);
        c.push(&Value::Bool(true)).unwrap();
        c.push(&Value::Bool(false)).unwrap();
        assert_eq!(c.f64_at(0), Some(1.0));
        assert_eq!(c.f64_at(1), Some(0.0));
        assert_eq!(c.i64_at(0), Some(1));
    }

    #[test]
    fn canonical_recodes_only_a_dictionary_out_of_first_occurrence_order() {
        let mut c = Column::new(DataType::Str);
        for s in ["b", "a", "b"] {
            c.push(&Value::str(s)).unwrap();
        }
        assert!(matches!(c.canonical(), Cow::Borrowed(_)));

        // "z" unused, then "a" before "b": rows read b, a, b.
        let mut dict = Dictionary::new();
        for s in ["z", "a", "b"] {
            dict.intern(s);
        }
        let odd = Column::Str { codes: vec![2, 1, 2], dict };
        let Cow::Owned(fixed) = odd.canonical() else { panic!("recoded") };
        assert_eq!(fixed.str_codes(), c.str_codes());
        assert_eq!(fixed.approx_bytes(), c.approx_bytes());
        assert_eq!(
            (0..3).map(|r| fixed.value(r)).collect::<Vec<_>>(),
            [0, 1, 2].map(|r| c.value(r))
        );
    }

    #[test]
    fn with_capacity_empty() {
        let c = Column::with_capacity(DataType::Str, 128);
        assert!(c.is_empty());
        assert_eq!(c.data_type(), DataType::Str);
    }
}
