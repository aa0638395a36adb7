//! A SQL subset front-end.
//!
//! Supports exactly the query shape the paper's workload uses:
//!
//! ```sql
//! SELECT country, parameter, AVG(value), COUNT_IF(value > 0.5)
//! FROM openaq
//! WHERE HOUR(local_time) BETWEEN 0 AND 12 AND country = 'VN'
//! GROUP BY country, parameter WITH CUBE
//! ```
//!
//! Grammar (keywords are case-insensitive):
//!
//! ```text
//! statement  := [EXPLAIN] select
//! select     := SELECT item ("," item)* FROM ident [join] [WHERE pred]
//!               [GROUP BY expr ("," expr)* [WITH CUBE]]
//! join       := JOIN ident ON ident "." ident "=" ident "." ident
//! item       := agg [[AS] ident] | expr
//! agg        := (AVG|SUM|MIN|MAX|VAR|STD) "(" expr ")"
//!             | COUNT "(" ("*" | expr) ")"
//!             | COUNT_IF "(" expr cmp number ")"
//! expr       := term (("+" | "-") term)*
//! term       := factor (("*" | "/") factor)*
//! factor     := number | "-" number | "(" expr ")" | case
//!             | (YEAR|MONTH|DAY|HOUR) "(" ident ")" | ident
//! case       := CASE (WHEN expr cmp expr THEN expr)+ [ELSE expr] END
//! pred       := and_pred (OR and_pred)*
//! and_pred   := unary (AND unary)*
//! unary      := NOT unary | "(" pred ")" | comparison
//! comparison := expr cmp literal
//!             | expr BETWEEN literal AND literal
//!             | expr IN "(" literal ("," literal)* ")"
//! cmp        := "=" | "<>" | "!=" | "<" | "<=" | ">" | ">="
//! literal    := number | "-" number | "'" text "'" | TRUE | FALSE
//! ```
//!
//! `EXPLAIN` and `JOIN` are parsed here but need a catalog to resolve
//! table names against, so they execute only through an `Engine`
//! (`cvopt-core`); the table-level [`run`]/[`compile`] entry points
//! reject them with a clear error.

mod lexer;
mod parser;

pub use parser::{parse, parse_statement, JoinClause, SelectItem, SelectStmt, Statement};

use crate::exec::ExecOptions;
use crate::query::{GroupByQuery, QueryResult};
use crate::reader::RowSpace;
use crate::Result;

/// Parse `statement` and lower it to a [`GroupByQuery`].
///
/// The table name in `FROM` is not resolved here — execution binds against
/// whatever rows you pass to [`run`] or [`GroupByQuery::execute`].
pub fn compile(statement: &str) -> Result<GroupByQuery> {
    let stmt = parse(statement)?;
    if stmt.join.is_some() {
        return Err(crate::error::TableError::sql(
            "JOIN queries need a table catalog to resolve against; run them through an Engine",
            None,
        ));
    }
    stmt.into_query()
}

/// A session-level execution context for the SQL front-end: one
/// [`ExecOptions`] that governs every pass (index build, predicate scan,
/// aggregation) of every statement run through it, so embedders — the
/// serving layer carves its per-request worker budgets exactly this way —
/// control worker counts in one place instead of per call.
///
/// Results never depend on the thread count (the execution layer's
/// determinism contract), so the choice is purely a deployment concern.
///
/// ```
/// use cvopt_table::{sql, DataType, ExecOptions, TableBuilder, Value};
///
/// let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
/// b.push_row(&[Value::str("a"), Value::Float64(1.0)]).unwrap();
/// b.push_row(&[Value::str("a"), Value::Float64(3.0)]).unwrap();
/// let table = b.finish();
///
/// let session = sql::Session::with_exec(ExecOptions::new(2));
/// let results = session.run(&table, "SELECT g, AVG(x) FROM t GROUP BY g").unwrap();
/// assert_eq!(results[0].values[0][0], 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Session {
    exec: ExecOptions,
}

impl Session {
    /// A session with one worker per available core.
    pub fn new() -> Self {
        Session::default()
    }

    /// A session with explicit execution options.
    pub fn with_exec(exec: ExecOptions) -> Self {
        Session { exec }
    }

    /// The execution options every statement of this session runs under.
    pub fn exec(&self) -> &ExecOptions {
        &self.exec
    }

    /// Parse and execute `statement` against `rows` — a `&Table` or a
    /// [`ShardSet`](crate::reader::ShardSet), with bit-identical results
    /// for any layout of the same rows — under the session's execution
    /// options.
    pub fn run<'a>(
        &self,
        rows: impl Into<RowSpace<'a>>,
        statement: &str,
    ) -> Result<Vec<QueryResult>> {
        compile(statement)?.execute_with(rows, &self.exec)
    }
}

/// Parse and execute `statement` against `rows` with explicit execution
/// options (a one-statement [`Session`]).
pub fn run_with<'a>(
    rows: impl Into<RowSpace<'a>>,
    statement: &str,
    options: &ExecOptions,
) -> Result<Vec<QueryResult>> {
    Session::with_exec(options.clone()).run(rows, statement)
}

/// Parse and execute `statement` against `rows` (one worker per core).
pub fn run<'a>(rows: impl Into<RowSpace<'a>>, statement: &str) -> Result<Vec<QueryResult>> {
    Session::new().run(rows, statement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groupby::KeyAtom;
    use crate::reader::ShardSet;
    use crate::shard::ShardedTable;
    use crate::table::{Table, TableBuilder};
    use crate::types::{DataType, Value};

    fn table() -> Table {
        let mut b = TableBuilder::new(&[
            ("country", DataType::Str),
            ("parameter", DataType::Str),
            ("value", DataType::Float64),
        ]);
        let rows = [
            ("US", "co", 1.0),
            ("US", "co", 3.0),
            ("US", "bc", 0.5),
            ("VN", "co", 2.0),
            ("VN", "bc", 0.7),
        ];
        for (c, p, v) in rows {
            b.push_row(&[Value::str(c), Value::str(p), Value::Float64(v)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn end_to_end_avg() {
        let t = table();
        let r = run(&t, "SELECT country, AVG(value) FROM t GROUP BY country").unwrap();
        assert_eq!(r.len(), 1);
        let us = r[0].value(&[KeyAtom::from("US")], 0).unwrap();
        assert!((us - 1.5).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_where_and_alias() {
        let t = table();
        let r = run(
            &t,
            "SELECT country, SUM(value) AS total FROM t WHERE parameter = 'co' GROUP BY country",
        )
        .unwrap();
        assert_eq!(r[0].agg_names, vec!["total"]);
        assert_eq!(r[0].value(&[KeyAtom::from("US")], 0), Some(4.0));
        assert_eq!(r[0].value(&[KeyAtom::from("VN")], 0), Some(2.0));
    }

    #[test]
    fn end_to_end_cube() {
        let t = table();
        let r = run(
            &t,
            "SELECT country, parameter, SUM(value) FROM t GROUP BY country, parameter WITH CUBE",
        )
        .unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r[3].values[0][0], 7.2);
    }

    #[test]
    fn end_to_end_count_if() {
        let t = table();
        let r = run(&t, "SELECT country, COUNT_IF(value > 0.9) FROM t GROUP BY country").unwrap();
        assert_eq!(r[0].value(&[KeyAtom::from("US")], 0), Some(2.0));
        assert_eq!(r[0].value(&[KeyAtom::from("VN")], 0), Some(1.0));
    }

    #[test]
    fn run_with_matches_run_for_any_thread_count() {
        let t = table();
        let stmt = "SELECT country, AVG(value), COUNT(*) FROM t GROUP BY country";
        let default = run(&t, stmt).unwrap();
        for threads in [1, 2, 8] {
            let r = run_with(&t, stmt, &ExecOptions::new(threads)).unwrap();
            assert_eq!(r[0].keys, default[0].keys);
            assert_eq!(r[0].values, default[0].values);
        }
    }

    #[test]
    fn run_over_shards_matches_run() {
        let t = table();
        let st = ShardSet::from(ShardedTable::split(&t, 3).unwrap());
        let stmt = "SELECT country, AVG(value), COUNT(*) FROM t WHERE value > 0.4 GROUP BY country";
        let reference = run(&t, stmt).unwrap();
        let got = run(&st, stmt).unwrap();
        assert_eq!(got[0].keys, reference[0].keys);
        assert_eq!(got[0].values, reference[0].values);
    }

    #[test]
    fn session_matches_free_functions_for_any_thread_count() {
        let t = table();
        let st = ShardSet::from(ShardedTable::split(&t, 2).unwrap());
        let stmt = "SELECT country, AVG(value), COUNT(*) FROM t WHERE value > 0.4 GROUP BY country";
        let reference = run(&t, stmt).unwrap();
        for threads in [1usize, 3, 8] {
            let session = Session::with_exec(ExecOptions::new(threads));
            assert_eq!(session.exec().threads(), threads);
            let got = session.run(&t, stmt).unwrap();
            assert_eq!(got[0].keys, reference[0].keys);
            assert_eq!(got[0].values, reference[0].values);
            let sharded = session.run(&st, stmt).unwrap();
            assert_eq!(sharded[0].keys, reference[0].keys);
            assert_eq!(sharded[0].values, reference[0].values);
        }
    }

    #[test]
    fn full_table_no_group_by() {
        let t = table();
        let r = run(&t, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r[0].values[0][0], 5.0);
    }
}
