//! The [`Table`] container and its builder.

use crate::column::Column;
use crate::error::TableError;
use crate::schema::Schema;
use crate::types::{DataType, Value};
use crate::Result;

/// An immutable, in-memory, columnar table.
///
/// Built via [`TableBuilder`]; once built, the row count and column contents
/// never change, which lets samplers hold row ids (`usize`) into it safely.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
}

impl Table {
    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column at position `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The full row at `row` as dynamically typed values (for debugging and
    /// small examples, not hot paths).
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Approximate storage footprint in bytes, summed over the columns.
    ///
    /// A **pure function of the data** (fixed per-element widths plus
    /// dictionary string bytes — no platform pointer sizes, no allocator
    /// slack), so the value is identical on every machine. The engine's
    /// cache-economy accounting (bytes held, eviction ranks) is built on
    /// it and snapshotted into diffable counters.
    pub fn approx_bytes(&self) -> u64 {
        self.columns.iter().map(Column::approx_bytes).sum()
    }

    /// A new table containing `copies` back-to-back copies of this table
    /// (used to build the paper's `OpenAQ-25x` scale-up for timing runs),
    /// concatenated a column at a time.
    pub fn repeat(&self, copies: usize) -> Table {
        Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.repeat(copies)).collect(),
            num_rows: self.num_rows * copies,
        }
    }

    /// A new table with `batch`'s rows appended after this table's rows.
    ///
    /// `batch` must have an identical schema. The result is byte-identical
    /// to building one table from the concatenated row stream: fixed-width
    /// columns concatenate, and string dictionaries re-intern the batch in
    /// row order, preserving first-occurrence code order. Tables stay
    /// immutable — ingestion replaces a catalog entry with the extended
    /// table, so row ids held by existing samples never dangle.
    pub fn extended(&self, batch: &Table) -> Result<Table> {
        if self.schema != *batch.schema() {
            return Err(TableError::invalid(format!(
                "cannot append a batch with schema {:?} to a table with schema {:?}",
                batch.schema(),
                self.schema
            )));
        }
        let mut columns = self.columns.clone();
        for (col, other) in columns.iter_mut().zip(batch.columns()) {
            col.extend_from(other)?;
        }
        Ok(Table { schema: self.schema.clone(), columns, num_rows: self.num_rows + batch.num_rows })
    }

    /// A new table containing only the rows with ids in `rows` (in order):
    /// the gather kernel (`Table::gather`) over this one table, indexing
    /// its columns by `rows` directly. String dictionaries are rebuilt in
    /// first-occurrence order of the rows taken, so the result is the table
    /// a row-by-row build of those rows would produce. Panics on a row id
    /// out of range.
    pub fn take(&self, rows: &[usize]) -> Table {
        Table::gather(&self.schema, &[self], rows.len(), |i| (0, rows[i]))
            .expect("a table's columns match its own schema")
    }

    /// A table over columns built elsewhere, checked: one column per
    /// field of `schema`, each of the field's type and `num_rows` long. A
    /// table of no columns has `num_rows` rows all the same. A string
    /// column's codes are the caller's to keep within its dictionary.
    pub fn try_from_columns(
        schema: Schema,
        columns: Vec<Column>,
        num_rows: usize,
    ) -> Result<Table> {
        if columns.len() != schema.len() {
            return Err(TableError::ArityMismatch { expected: schema.len(), found: columns.len() });
        }
        for (field, column) in schema.fields().iter().zip(&columns) {
            if column.data_type() != field.dtype {
                return Err(TableError::TypeMismatch {
                    expected: field.dtype,
                    found: format!("{:?} column {:?}", column.data_type(), field.name),
                });
            }
            if column.len() != num_rows {
                return Err(TableError::invalid(format!(
                    "column {:?} holds {} rows, the table {num_rows}",
                    field.name,
                    column.len()
                )));
            }
        }
        Ok(Table { schema, columns, num_rows })
    }

    /// The one gather kernel: a `schema` table of `len` rows whose row `i`
    /// is row `at(i).1` of `parts[at(i).0]`, built a column at a time (see
    /// [`Column::gather`]) — no row is ever assembled. The caller vouches
    /// that every part has `schema`'s column count and that `at` stays in
    /// range; a part whose column types disagree with `schema` is an error.
    pub(crate) fn gather(
        schema: &Schema,
        parts: &[&Table],
        len: usize,
        at: impl Fn(usize) -> (usize, usize),
    ) -> Result<Table> {
        let columns = schema.fields().iter().enumerate().map(|(c, field)| {
            let sources: Vec<&Column> = parts.iter().map(|part| &part.columns[c]).collect();
            Column::gather(field.dtype, &sources, len, &at)
        });
        Table::try_from_columns(schema.clone(), columns.collect::<Result<_>>()?, len)
    }
}

/// Incremental builder for [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
}

impl TableBuilder {
    /// Builder for a schema given as `(name, type)` pairs.
    pub fn new(fields: &[(&str, DataType)]) -> Self {
        Self::from_schema(Schema::new(fields))
    }

    /// Builder for an existing schema.
    pub fn from_schema(schema: Schema) -> Self {
        let columns = schema.fields().iter().map(|f| Column::new(f.dtype)).collect();
        TableBuilder { schema, columns, num_rows: 0 }
    }

    /// Pre-allocate capacity for `rows` additional rows.
    pub fn reserve(&mut self, rows: usize) {
        let dtypes: Vec<DataType> = self.schema.fields().iter().map(|f| f.dtype).collect();
        for (col, dtype) in self.columns.iter_mut().zip(dtypes) {
            if col.is_empty() {
                *col = Column::with_capacity(dtype, rows);
            }
        }
    }

    /// Append one row. Values must match the schema positionally.
    pub fn push_row(&mut self, values: &[Value]) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(TableError::ArityMismatch {
                expected: self.columns.len(),
                found: values.len(),
            });
        }
        for (col, value) in self.columns.iter_mut().zip(values) {
            col.push(value)?;
        }
        self.num_rows += 1;
        Ok(())
    }

    /// Rows pushed so far.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Finish building.
    pub fn finish(self) -> Table {
        Table { schema: self.schema, columns: self.columns, num_rows: self.num_rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn student_table() -> Table {
        let mut b = TableBuilder::new(&[
            ("major", DataType::Str),
            ("gpa", DataType::Float64),
            ("age", DataType::Int64),
        ]);
        for (major, gpa, age) in
            [("CS", 3.4, 25), ("CS", 3.1, 22), ("Math", 3.8, 24), ("EE", 3.5, 21)]
        {
            b.push_row(&[Value::str(major), Value::Float64(gpa), Value::Int64(age)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn build_and_read() {
        let t = student_table();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.column_by_name("gpa").unwrap().f64_at(2), Some(3.8));
        assert_eq!(t.row(0), vec![Value::str("CS"), Value::Float64(3.4), Value::Int64(25)]);
    }

    #[test]
    fn approx_bytes_is_a_pure_function_of_the_data() {
        let t = student_table();
        // str: 4 codes × 4B + dict ("CS"+"Math"+"EE" = 8 string bytes +
        // 3 × 16B entry overhead) = 72; gpa: 4 × 8B; age: 4 × 8B.
        assert_eq!(t.approx_bytes(), 72 + 32 + 32);
        // Same data → same bytes, independent of build history.
        assert_eq!(t.take(&[0, 1, 2, 3]).approx_bytes(), t.approx_bytes());
        assert_eq!(TableBuilder::new(&[("a", DataType::Int64)]).finish().approx_bytes(), 0);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = TableBuilder::new(&[("a", DataType::Int64)]);
        let err = b.push_row(&[Value::Int64(1), Value::Int64(2)]).unwrap_err();
        assert!(matches!(err, TableError::ArityMismatch { expected: 1, found: 2 }));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut b = TableBuilder::new(&[("a", DataType::Int64)]);
        assert!(b.push_row(&[Value::str("no")]).is_err());
    }

    #[test]
    fn try_from_columns_checks_count_type_and_length() {
        let t = student_table();
        let rebuilt = Table::try_from_columns(t.schema().clone(), t.columns().to_vec(), 4).unwrap();
        assert_eq!(rebuilt.row(3), t.row(3));
        let cols = |n: usize| t.columns()[..n].to_vec();
        let err = Table::try_from_columns(t.schema().clone(), cols(2), 4).unwrap_err();
        assert!(matches!(err, TableError::ArityMismatch { expected: 3, found: 2 }));
        let swapped = vec![t.column(0).clone(), t.column(2).clone(), t.column(1).clone()];
        let err = Table::try_from_columns(t.schema().clone(), swapped, 4).unwrap_err();
        assert!(matches!(err, TableError::TypeMismatch { expected: DataType::Float64, .. }));
        assert!(Table::try_from_columns(t.schema().clone(), cols(3), 5).is_err());
        let empty = Table::try_from_columns(Schema::from_fields(vec![]), vec![], 7).unwrap();
        assert_eq!((empty.num_rows(), empty.num_columns()), (7, 0));
    }

    #[test]
    fn missing_column_lookup() {
        let t = student_table();
        assert!(t.column_by_name("nope").is_err());
    }

    #[test]
    fn repeat_scales_rows() {
        let t = student_table();
        let t3 = t.repeat(3);
        assert_eq!(t3.num_rows(), 12);
        assert_eq!(t3.row(4), t.row(0));
        assert_eq!(t3.row(11), t.row(3));
    }

    #[test]
    fn take_subset() {
        let t = student_table();
        let sub = t.take(&[2, 0]);
        assert_eq!(sub.num_rows(), 2);
        assert_eq!(sub.row(0), t.row(2));
        assert_eq!(sub.row(1), t.row(0));
    }

    #[test]
    fn reserve_then_build() {
        let mut b = TableBuilder::new(&[("x", DataType::Float64)]);
        b.reserve(1000);
        for i in 0..1000 {
            b.push_row(&[Value::Float64(i as f64)]).unwrap();
        }
        assert_eq!(b.num_rows(), 1000);
        let t = b.finish();
        assert_eq!(t.column(0).f64_at(999), Some(999.0));
    }
}
