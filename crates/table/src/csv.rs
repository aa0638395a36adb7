//! Minimal CSV reading for tables.
//!
//! Supports the RFC-4180 basics: comma separation, `"` quoting with `""`
//! escapes, and a header row. Good enough to load example data; not a
//! general-purpose CSV library.

use std::io::BufRead;

use crate::error::TableError;
use crate::schema::Schema;
use crate::table::{Table, TableBuilder};
use crate::types::{DataType, Value};
use crate::Result;

/// Split one CSV record into fields.
fn split_record(line: &str, line_no: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        current.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => current.push(other),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut current)),
                other => current.push(other),
            }
        }
    }
    if in_quotes {
        return Err(TableError::Csv { line: line_no, message: "unterminated quote".into() });
    }
    fields.push(current);
    Ok(fields)
}

/// Parse one field into a [`Value`] for a column of type `dtype`.
fn parse_value(field: &str, dtype: DataType, line_no: usize) -> Result<Value> {
    let err = |msg: String| TableError::Csv { line: line_no, message: msg };
    Ok(match dtype {
        DataType::Int64 => {
            Value::Int64(field.parse().map_err(|_| err(format!("bad int {field:?}")))?)
        }
        DataType::Float64 => {
            Value::Float64(field.parse().map_err(|_| err(format!("bad float {field:?}")))?)
        }
        DataType::Bool => match field {
            "true" | "TRUE" | "1" => Value::Bool(true),
            "false" | "FALSE" | "0" => Value::Bool(false),
            _ => return Err(err(format!("bad bool {field:?}"))),
        },
        DataType::Str => Value::str(field),
        DataType::Timestamp => {
            Value::Timestamp(field.parse().map_err(|_| err(format!("bad timestamp {field:?}")))?)
        }
    })
}

/// Read a table with a known schema from CSV with a header row.
///
/// The header must match the schema's column names exactly and in order,
/// and name no column twice.
pub fn read_table(reader: impl BufRead, schema: Schema) -> Result<Table> {
    let mut builder = TableBuilder::from_schema(schema.clone());
    let mut lines = reader.lines().enumerate();

    let (_, header) = lines
        .next()
        .ok_or_else(|| TableError::Csv { line: 1, message: "missing header".into() })?;
    let header =
        header.map_err(|e| TableError::Csv { line: 1, message: format!("io error: {e}") })?;
    let names = split_record(&header, 1)?;
    let expected = schema.names();
    if names != expected {
        return Err(TableError::Csv {
            line: 1,
            message: format!("header {names:?} does not match schema {expected:?}"),
        });
    }
    if let Some(name) = schema.repeated_name() {
        return Err(TableError::Csv {
            line: 1,
            message: format!("header repeats column {name:?}"),
        });
    }

    let mut row: Vec<Value> = Vec::with_capacity(schema.len());
    for (idx, line) in lines {
        let line_no = idx + 1;
        let line =
            line.map_err(|e| TableError::Csv { line: line_no, message: format!("io error: {e}") })?;
        if line.is_empty() {
            continue;
        }
        let fields = split_record(&line, line_no)?;
        if fields.len() != schema.len() {
            return Err(TableError::Csv {
                line: line_no,
                message: format!("expected {} fields, found {}", schema.len(), fields.len()),
            });
        }
        row.clear();
        for (field, f) in fields.iter().zip(schema.fields()) {
            row.push(parse_value(field, f.dtype, line_no)?);
        }
        builder.push_row(&row)?;
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn quote_field(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }

    /// Write a table to CSV with a header row: what the round trips read back.
    fn write_table(table: &Table, mut writer: impl Write) -> std::io::Result<()> {
        let names: Vec<String> = table.schema().names().iter().map(|s| quote_field(s)).collect();
        writeln!(writer, "{}", names.join(","))?;
        for row in 0..table.num_rows() {
            let fields: Vec<String> = table
                .columns()
                .iter()
                .map(|c| match c.value(row) {
                    Value::Str(s) => quote_field(&s),
                    other => other.to_string().trim_start_matches('@').to_string(),
                })
                .collect();
            writeln!(writer, "{}", fields.join(","))?;
        }
        Ok(())
    }

    fn schema() -> Schema {
        Schema::new(&[
            ("country", DataType::Str),
            ("value", DataType::Float64),
            ("n", DataType::Int64),
        ])
    }

    #[test]
    fn round_trip() {
        let csv = "country,value,n\nUS,1.5,3\nVN,0.25,-2\n\"A,B\",2.0,0\n";
        let t = read_table(csv.as_bytes(), schema()).unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.row(2)[0], Value::str("A,B"));
        let mut out = Vec::new();
        write_table(&t, &mut out).unwrap();
        let t2 = read_table(out.as_slice(), schema()).unwrap();
        assert_eq!(t2.num_rows(), 3);
        assert_eq!(t2.row(1)[1], Value::Float64(0.25));
    }

    #[test]
    fn quoted_quotes() {
        let csv = "country,value,n\n\"say \"\"hi\"\"\",1.0,1\n";
        let t = read_table(csv.as_bytes(), schema()).unwrap();
        assert_eq!(t.row(0)[0], Value::str("say \"hi\""));
    }

    #[test]
    fn header_mismatch_rejected() {
        let csv = "a,b,c\n";
        assert!(read_table(csv.as_bytes(), schema()).is_err());
    }

    /// A repeated name would register a column no statement can read.
    #[test]
    fn repeated_column_name_rejected() {
        let schema = Schema::new(&[("x", DataType::Float64), ("x", DataType::Str)]);
        let err = read_table("x,x\n1.0,a\n".as_bytes(), schema).unwrap_err();
        assert!(
            matches!(&err, TableError::Csv { line: 1, message } if message.contains("repeats column \"x\""))
        );
    }

    #[test]
    fn bad_field_count_rejected() {
        let csv = "country,value,n\nUS,1.0\n";
        let err = read_table(csv.as_bytes(), schema()).unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 2, .. }));
    }

    #[test]
    fn bad_number_rejected() {
        let csv = "country,value,n\nUS,xyz,1\n";
        assert!(read_table(csv.as_bytes(), schema()).is_err());
    }

    #[test]
    fn empty_lines_skipped() {
        let csv = "country,value,n\nUS,1.0,1\n\nVN,2.0,2\n";
        let t = read_table(csv.as_bytes(), schema()).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn timestamps_round_trip() {
        let schema = Schema::new(&[("t", DataType::Timestamp)]);
        let csv = "t\n1000\n-5\n";
        let t = read_table(csv.as_bytes(), schema.clone()).unwrap();
        let mut out = Vec::new();
        write_table(&t, &mut out).unwrap();
        let t2 = read_table(out.as_slice(), schema).unwrap();
        assert_eq!(t2.row(0)[0], Value::Timestamp(1000));
        assert_eq!(t2.row(1)[0], Value::Timestamp(-5));
    }
}
