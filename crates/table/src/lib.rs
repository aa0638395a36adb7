//! # cvopt-table
//!
//! A small, dependency-free, in-memory columnar table engine.
//!
//! This crate is the *substrate* for the [CVOPT](https://arxiv.org/abs/1909.02629)
//! group-by sampling library: it provides everything the sampling framework
//! needs from a database engine, without pulling in a full query engine:
//!
//! * typed columns ([`Column`]) with dictionary-encoded strings,
//! * a [`Table`] built via [`TableBuilder`], and one row space
//!   ([`RowSpace`]) over any [`ShardSet`] — a plain table, a
//!   [`ShardedTable`] layout, or remote readers — whose passes produce
//!   byte-identical results for any shard layout,
//! * predicate evaluation ([`Predicate`]) into [`Bitmap`]s,
//! * scalar expressions ([`ScalarExpr`]) including calendar functions
//!   (`YEAR`/`MONTH`/`HOUR`) over epoch-second timestamps,
//! * an exact group-by/aggregate executor ([`GroupByQuery`]) with
//!   `WITH CUBE` support, used both to produce ground truth for experiments
//!   and as the shared grouping machinery for stratified sampling,
//! * a SQL subset front-end ([`sql`], with a session-level execution
//!   context [`sql::Session`]) and CSV input ([`csv`]).
//!
//! ## Example
//!
//! ```
//! use cvopt_table::{TableBuilder, DataType, Value, sql};
//!
//! let mut b = TableBuilder::new(&[
//!     ("major", DataType::Str),
//!     ("gpa", DataType::Float64),
//! ]);
//! b.push_row(&[Value::str("CS"), Value::Float64(3.4)]).unwrap();
//! b.push_row(&[Value::str("CS"), Value::Float64(3.1)]).unwrap();
//! b.push_row(&[Value::str("EE"), Value::Float64(3.5)]).unwrap();
//! let table = b.finish();
//!
//! let result = sql::run(&table, "SELECT major, AVG(gpa) FROM t GROUP BY major").unwrap();
//! assert_eq!(result[0].num_groups(), 2);
//! ```

pub mod agg;
pub mod bitmap;
pub mod column;
pub mod csv;
pub mod cube;
pub mod dict;
pub mod error;
pub mod exec;
pub mod expr;
pub mod fxhash;
pub mod groupby;
pub mod join;
pub mod predicate;
pub mod query;
pub mod reader;
pub mod schema;
pub mod shard;
pub mod spans;
pub mod sql;
pub mod table;
pub mod time;
pub mod types;

pub use agg::{AggExpr, AggKind};
pub use bitmap::Bitmap;
pub use column::Column;
pub use cube::grouping_sets;
pub use dict::Dictionary;
pub use error::TableError;
pub use exec::{ExecOptions, RowRange};
pub use expr::{ArithOp, CaseWhen, ScalarExpr};
pub use groupby::{GroupIndex, KeyAtom};
pub use join::{hash_join, Join};
pub use predicate::{CmpOp, Predicate};
pub use query::{GroupByQuery, QueryResult};
pub use reader::{ColumnValues, LocalShard, RowSpace, ShardReader, ShardSet};
pub use schema::{Field, Schema};
pub use shard::{ShardSegment, ShardedTable};
pub use spans::Spans;
pub use table::{Table, TableBuilder};
pub use types::{DataType, Value};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TableError>;
