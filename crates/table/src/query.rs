//! Group-by query execution: one aggregation pass,
//! [`GroupByQuery::aggregate`], generic over the [`Accumulator`] it folds.
//!
//! [`GroupByQuery::execute`] runs it with [`AggState`] and unit weights and
//! computes exact answers (the experiments' ground truth); sample-based
//! estimators run the same pass with a weighted accumulator. The pass
//! accumulates per finest group and then *merges* the states through group
//! projections for cube grouping sets, so a `WITH CUBE` over k attributes
//! still scans the data once.

use crate::agg::{Accumulator, AggExpr, AggKind, AggState};
use crate::bitmap::Bitmap;
use crate::cube::grouping_sets;
use crate::exec::{self, ExecOptions};
use crate::expr::{BoundExpr, ScalarExpr};
use crate::fxhash::FxHashMap;
use crate::groupby::{GroupIndex, GroupProjection, KeyAtom};
use crate::predicate::Predicate;
use crate::reader::RowSpace;
use crate::Result;

/// A group-by query specification.
#[derive(Debug, Clone)]
pub struct GroupByQuery {
    /// Grouping expressions (empty for a full-table aggregate).
    pub group_by: Vec<ScalarExpr>,
    /// Aggregates to compute per group.
    pub aggregates: Vec<AggExpr>,
    /// Optional row filter applied before grouping.
    pub predicate: Option<Predicate>,
    /// Whether to expand `GROUP BY ... WITH CUBE`.
    pub cube: bool,
}

impl GroupByQuery {
    /// Query with the given grouping expressions and aggregates.
    pub fn new(group_by: Vec<ScalarExpr>, aggregates: Vec<AggExpr>) -> Self {
        GroupByQuery { group_by, aggregates, predicate: None, cube: false }
    }

    /// Add a predicate.
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = Some(predicate);
        self
    }

    /// Enable `WITH CUBE`.
    pub fn with_cube(mut self) -> Self {
        self.cube = true;
        self
    }

    /// The names of the columns this query reads, each once: grouping
    /// expressions, then the predicate, then aggregate inputs — the order
    /// [`GroupByQuery::execute_with`] binds them in. A table holding just
    /// these columns answers the query exactly as the full table does
    /// (`COUNT(*)` alone reads none: only the row count matters then).
    pub fn columns(&self) -> Vec<&str> {
        let mut names = Vec::new();
        for expr in &self.group_by {
            expr.collect_columns(&mut names);
        }
        if let Some(predicate) = &self.predicate {
            predicate.collect_columns(&mut names);
        }
        for expr in self.aggregates.iter().filter_map(|agg| agg.input.as_ref()) {
            expr.collect_columns(&mut names);
        }
        names
    }

    /// Execute exactly against `rows` — a `&Table` or a
    /// [`ShardSet`](crate::reader::ShardSet) — using one worker per
    /// available core (see [`GroupByQuery::execute_with`]).
    ///
    /// Returns one [`QueryResult`] per grouping set: a single result unless
    /// `cube` is set, in which case the sets follow [`grouping_sets`] order.
    pub fn execute<'a>(&self, rows: impl Into<RowSpace<'a>>) -> Result<Vec<QueryResult>> {
        self.execute_with(rows, &ExecOptions::default())
    }

    /// Execute with explicit execution options. The group-index build, the
    /// predicate scan, and the aggregation pass are all chunk-parallel, and
    /// shards may be local, remote, or mixed. Because aggregation partials
    /// are whole *global* partitions (each assembled from the shard
    /// segments covering it) merged in partition order, the results are
    /// **bit-identical to executing on the concatenated table** for any
    /// shard layout and thread count.
    pub fn execute_with<'a>(
        &self,
        rows: impl Into<RowSpace<'a>>,
        options: &ExecOptions,
    ) -> Result<Vec<QueryResult>> {
        let rows = rows.into();
        let index = rows.group_index(&self.group_by, options)?;
        let filters = match &self.predicate {
            Some(p) => Some(rows.predicate_bitmaps(p, options)?),
            None => None,
        };
        self.aggregate::<AggState>(&rows, &index, filters.as_deref(), |_| 1.0, options)
    }

    /// The aggregation pass, the only one there is: walk `rows` under the
    /// optional per-shard `filters`, fold one accumulator per (finest group
    /// of `index`, aggregate) per partition, merge the partials in
    /// partition order, project the merged states onto each grouping set
    /// and assemble one [`QueryResult`] per set. `index` and `filters` are
    /// this query's [`RowSpace::group_index`] and
    /// [`RowSpace::predicate_bitmaps`] over the same `rows`; `weight` maps a
    /// global row id to the weight its value is accumulated with.
    ///
    /// Partials are whole **global** partitions — each one walks the shard
    /// segments that cover it, reading values through that shard's bound
    /// expressions — so every partial's accumulation chain visits the same
    /// rows in the same order wherever shard boundaries fall, and the
    /// partition-order merge makes the result bit-identical to the
    /// single-table pass.
    pub fn aggregate<A: Accumulator>(
        &self,
        rows: &RowSpace<'_>,
        index: &GroupIndex,
        filters: Option<&[Bitmap]>,
        weight: impl Fn(usize) -> f64 + Sync,
        options: &ExecOptions,
    ) -> Result<Vec<QueryResult>> {
        let aggregates = &self.aggregates;
        let inputs: Vec<Option<ScalarExpr>> = aggregates.iter().map(|a| a.input.clone()).collect();
        let bound = rows.bind(&inputs, options)?;

        let fine = exec::fold_partitioned(
            rows.num_rows(),
            options,
            |_, range| {
                let mut states = vec![vec![A::default(); aggregates.len()]; index.num_groups()];
                for seg in rows.segments(range) {
                    let shard_bound = &bound[seg.shard];
                    // Global row id of shard-local row `r` is `r + delta`.
                    let delta = seg.global_start - seg.local.start;
                    let mut update_row = |local_row: usize| {
                        let row = local_row + delta;
                        let w = weight(row);
                        let group = &mut states[index.group_of(row) as usize];
                        for (slot, (agg, expr)) in
                            group.iter_mut().zip(aggregates.iter().zip(shard_bound))
                        {
                            if let Some(value) = row_value(agg, expr.as_ref(), local_row) {
                                slot.update(value, w);
                            }
                        }
                    };
                    match filters {
                        Some(bms) => {
                            for local_row in
                                bms[seg.shard].iter_ones_in(seg.local.start, seg.local.end)
                            {
                                update_row(local_row);
                            }
                        }
                        None => {
                            for local_row in seg.local.rows() {
                                update_row(local_row);
                            }
                        }
                    }
                }
                states
            },
            |acc, partial| exec::merge_state_tables(acc, partial, |a, b| a.merge(b)),
        );

        // Expand grouping sets and merge the finest-group states onto each.
        let sets: Vec<Vec<usize>> = if self.cube {
            grouping_sets(self.group_by.len())
        } else {
            vec![(0..self.group_by.len()).collect()]
        };
        let agg_names: Vec<String> = aggregates.iter().map(|a| a.alias.clone()).collect();
        let results = sets.iter().map(|dims| {
            let proj = index.project(dims);
            // Keep only groups with at least one accumulated row.
            let mut groups = Vec::new();
            for (cid, states) in coarsen(&proj, &fine, aggregates.len()).iter().enumerate() {
                let group_rows = states.iter().map(A::rows).max().unwrap_or(0);
                if group_rows == 0 {
                    continue;
                }
                let values =
                    states.iter().zip(aggregates).map(|(s, a)| s.finalize(a.kind)).collect();
                groups.push((proj.key(cid as u32).to_vec(), values, group_rows));
            }
            QueryResult::from_parts(proj.dim_names().to_vec(), agg_names.clone(), groups)
        });
        Ok(results.collect())
    }
}

/// The value row `row` feeds aggregate `agg`, read through the aggregate's
/// input `expr` bound against the shard `row` indexes; `None` when the row
/// does not contribute (a null input).
#[inline]
fn row_value(agg: &AggExpr, expr: Option<&BoundExpr<'_>>, row: usize) -> Option<f64> {
    match (agg.kind, expr) {
        (AggKind::Count, _) => Some(1.0),
        (AggKind::CountIf, Some(e)) => {
            let (op, threshold) = agg.condition.expect("COUNT_IF has a condition");
            let v = e.f64_at(row).unwrap_or(f64::NAN);
            Some(if op.evaluate_f64(v, threshold) { 1.0 } else { 0.0 })
        }
        (_, Some(e)) => e.f64_at(row),
        (_, None) => None,
    }
}

/// Merge finest-group accumulators (`fine[group][column]`, `width` columns)
/// onto the coarser grouping `proj`: `[coarse group][column]`.
pub fn coarsen<A: Accumulator>(
    proj: &GroupProjection,
    fine: &[Vec<A>],
    width: usize,
) -> Vec<Vec<A>> {
    let mut merged = vec![vec![A::default(); width]; proj.num_groups()];
    for (fine_gid, states) in fine.iter().enumerate() {
        let cid = proj.coarse_of(fine_gid as u32) as usize;
        for (slot, s) in merged[cid].iter_mut().zip(states) {
            slot.merge(s);
        }
    }
    merged
}

/// The result of one grouping set: a small column-oriented result table.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Names of the grouping dimensions of this set.
    pub grouping: Vec<String>,
    /// Aggregate output labels.
    pub agg_names: Vec<String>,
    /// Group keys, sorted.
    pub keys: Vec<Vec<KeyAtom>>,
    /// `values[group][aggregate]`.
    pub values: Vec<Vec<f64>>,
    /// Rows that contributed to each group (post-predicate).
    pub group_rows: Vec<u64>,
    key_index: FxHashMap<Vec<KeyAtom>, usize>,
}

impl QueryResult {
    /// Assemble a result from `(key, values, contributing rows)` triples;
    /// rows are sorted by key.
    pub fn from_parts(
        grouping: Vec<String>,
        agg_names: Vec<String>,
        mut rows: Vec<(Vec<KeyAtom>, Vec<f64>, u64)>,
    ) -> Self {
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        let mut result = QueryResult {
            grouping,
            agg_names,
            keys: Vec::with_capacity(rows.len()),
            values: Vec::with_capacity(rows.len()),
            group_rows: Vec::with_capacity(rows.len()),
            key_index: FxHashMap::default(),
        };
        for (key, values, nrows) in rows {
            result.key_index.insert(key.clone(), result.keys.len());
            result.keys.push(key);
            result.values.push(values);
            result.group_rows.push(nrows);
        }
        result
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }

    /// Number of aggregates.
    pub fn num_aggregates(&self) -> usize {
        self.agg_names.len()
    }

    /// Row index of `key`, if present.
    pub fn group_position(&self, key: &[KeyAtom]) -> Option<usize> {
        self.key_index.get(key).copied()
    }

    /// The value of aggregate `agg_idx` for group `key`, if present.
    pub fn value(&self, key: &[KeyAtom], agg_idx: usize) -> Option<f64> {
        self.group_position(key).map(|pos| self.values[pos][agg_idx])
    }

    /// Iterate `(key, values)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[KeyAtom], &[f64])> {
        self.keys.iter().map(|k| k.as_slice()).zip(self.values.iter().map(|v| v.as_slice()))
    }

    /// Render as an aligned text table (for examples and reports).
    pub fn to_text(&self) -> String {
        let mut header: Vec<String> = self.grouping.clone();
        header.extend(self.agg_names.iter().cloned());
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(self.keys.len());
        for (key, values) in self.iter() {
            let mut row: Vec<String> = key.iter().map(|a| a.to_string()).collect();
            row.extend(values.iter().map(|v| format!("{v:.4}")));
            rows.push(row);
        }
        render_text_table(&header, &rows)
    }
}

/// Align a header and rows into a text table.
pub fn render_text_table(header: &[String], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let emit_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            for _ in cell.len()..widths[i] {
                out.push(' ');
            }
        }
        out.push('\n');
    };
    emit_row(&mut out, header);
    let sep: Vec<String> = (0..ncols).map(|i| "-".repeat(widths[i])).collect();
    emit_row(&mut out, &sep);
    for row in rows {
        emit_row(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::reader::tests::layouts_of;
    use crate::shard::ShardedTable;
    use crate::table::{Table, TableBuilder};
    use crate::types::{DataType, Value};

    /// The paper's example Student table (Table 1).
    pub(crate) fn student_table() -> Table {
        let mut b = TableBuilder::new(&[
            ("id", DataType::Int64),
            ("age", DataType::Int64),
            ("gpa", DataType::Float64),
            ("sat", DataType::Int64),
            ("major", DataType::Str),
            ("college", DataType::Str),
        ]);
        let rows: [(i64, i64, f64, i64, &str, &str); 8] = [
            (1, 25, 3.4, 1250, "CS", "Science"),
            (2, 22, 3.1, 1280, "CS", "Science"),
            (3, 24, 3.8, 1230, "Math", "Science"),
            (4, 28, 3.6, 1270, "Math", "Science"),
            (5, 21, 3.5, 1210, "EE", "Engineering"),
            (6, 23, 3.2, 1260, "EE", "Engineering"),
            (7, 27, 3.7, 1220, "ME", "Engineering"),
            (8, 26, 3.3, 1230, "ME", "Engineering"),
        ];
        for (id, age, gpa, sat, major, college) in rows {
            b.push_row(&[
                Value::Int64(id),
                Value::Int64(age),
                Value::Float64(gpa),
                Value::Int64(sat),
                Value::str(major),
                Value::str(college),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn avg_gpa_by_major() {
        let t = student_table();
        let q = GroupByQuery::new(vec![ScalarExpr::col("major")], vec![AggExpr::avg("gpa")]);
        let r = &q.execute(&t).unwrap()[0];
        assert_eq!(r.num_groups(), 4);
        let cs = r.value(&[KeyAtom::from("CS")], 0).unwrap();
        assert!((cs - 3.25).abs() < 1e-12);
        let math = r.value(&[KeyAtom::from("Math")], 0).unwrap();
        assert!((math - 3.7).abs() < 1e-12);
    }

    #[test]
    fn multiple_aggregates() {
        let t = student_table();
        let q = GroupByQuery::new(
            vec![ScalarExpr::col("college")],
            vec![
                AggExpr::count(),
                AggExpr::sum("sat"),
                AggExpr::min("age"),
                AggExpr::max("age"),
                AggExpr::avg("age"),
            ],
        );
        let r = &q.execute(&t).unwrap()[0];
        let sci = r.group_position(&[KeyAtom::from("Science")]).unwrap();
        assert_eq!(r.values[sci][0], 4.0);
        assert_eq!(r.values[sci][1], 5030.0);
        assert_eq!(r.values[sci][2], 22.0);
        assert_eq!(r.values[sci][3], 28.0);
        assert!((r.values[sci][4] - 24.75).abs() < 1e-12);
    }

    #[test]
    fn predicate_filters_groups() {
        let t = student_table();
        let q = GroupByQuery::new(vec![ScalarExpr::col("major")], vec![AggExpr::avg("gpa")])
            .with_predicate(Predicate::cmp("college", CmpOp::Eq, "Science"));
        let r = &q.execute(&t).unwrap()[0];
        assert_eq!(r.num_groups(), 2); // EE/ME filtered out entirely
        assert!(r.value(&[KeyAtom::from("EE")], 0).is_none());
    }

    #[test]
    fn count_if() {
        let t = student_table();
        let q = GroupByQuery::new(
            vec![ScalarExpr::col("college")],
            vec![AggExpr::count_if("gpa", CmpOp::Gt, 3.45)],
        );
        let r = &q.execute(&t).unwrap()[0];
        // Science: 3.8, 3.6 → 2; Engineering: 3.5, 3.7 → 2.
        assert_eq!(r.value(&[KeyAtom::from("Science")], 0), Some(2.0));
        assert_eq!(r.value(&[KeyAtom::from("Engineering")], 0), Some(2.0));
    }

    #[test]
    fn full_table_aggregate() {
        let t = student_table();
        let q = GroupByQuery::new(vec![], vec![AggExpr::avg("gpa"), AggExpr::count()]);
        let r = &q.execute(&t).unwrap()[0];
        assert_eq!(r.num_groups(), 1);
        assert!((r.values[0][0] - 3.45).abs() < 1e-12);
        assert_eq!(r.values[0][1], 8.0);
    }

    #[test]
    fn cube_produces_all_grouping_sets() {
        let t = student_table();
        let q = GroupByQuery::new(
            vec![ScalarExpr::col("major"), ScalarExpr::col("college")],
            vec![AggExpr::sum("sat")],
        )
        .with_cube();
        let results = q.execute(&t).unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].grouping, vec!["major", "college"]);
        assert_eq!(results[0].num_groups(), 4);
        assert_eq!(results[1].grouping, vec!["major"]);
        assert_eq!(results[1].num_groups(), 4);
        assert_eq!(results[2].grouping, vec!["college"]);
        assert_eq!(results[2].num_groups(), 2);
        assert_eq!(results[3].grouping, Vec::<String>::new());
        assert_eq!(results[3].num_groups(), 1);
        // Totals agree across grouping sets.
        let full: f64 = results[3].values[0][0];
        let by_major: f64 = results[1].values.iter().map(|v| v[0]).sum();
        assert!((full - by_major).abs() < 1e-9);
    }

    #[test]
    fn cube_variance_merge_is_exact() {
        let t = student_table();
        let q = GroupByQuery::new(
            vec![ScalarExpr::col("major"), ScalarExpr::col("college")],
            vec![AggExpr::var("gpa")],
        )
        .with_cube();
        let results = q.execute(&t).unwrap();
        // Full-table variance from the cube's empty grouping set must match a
        // direct full-table query.
        let direct = GroupByQuery::new(vec![], vec![AggExpr::var("gpa")]);
        let direct_var = direct.execute(&t).unwrap()[0].values[0][0];
        let cube_var = results[3].values[0][0];
        assert!((direct_var - cube_var).abs() < 1e-12);
    }

    #[test]
    fn result_iter_sorted() {
        let t = student_table();
        let q = GroupByQuery::new(vec![ScalarExpr::col("major")], vec![AggExpr::count()]);
        let r = &q.execute(&t).unwrap()[0];
        let keys: Vec<String> = r.iter().map(|(k, _)| k[0].to_string()).collect();
        assert_eq!(keys, vec!["CS", "EE", "ME", "Math"]); // KeyAtom sort order
    }

    #[test]
    fn to_text_renders() {
        let t = student_table();
        let q = GroupByQuery::new(vec![ScalarExpr::col("college")], vec![AggExpr::count()]);
        let r = &q.execute(&t).unwrap()[0];
        let text = r.to_text();
        assert!(text.contains("college"));
        assert!(text.contains("Engineering"));
        assert!(text.contains("4.0000"));
    }

    #[test]
    fn sharded_execution_is_bit_identical_to_single_table() {
        let t = student_table();
        let queries = [
            GroupByQuery::new(
                vec![ScalarExpr::col("major")],
                vec![AggExpr::avg("gpa"), AggExpr::count(), AggExpr::var("sat")],
            ),
            GroupByQuery::new(vec![ScalarExpr::col("college")], vec![AggExpr::sum("sat")])
                .with_predicate(Predicate::cmp("gpa", CmpOp::Ge, 3.3)),
            GroupByQuery::new(
                vec![ScalarExpr::col("major"), ScalarExpr::col("college")],
                vec![AggExpr::avg("gpa")],
            )
            .with_cube(),
        ];
        for q in &queries {
            let reference = q.execute_with(&t, &ExecOptions::sequential()).unwrap();
            for num_shards in [1usize, 2, 3, 5] {
                // In-process shards, reader-backed shards, and a mix.
                for (kind, set) in layouts_of(&ShardedTable::split(&t, num_shards).unwrap()) {
                    for threads in [1usize, 4] {
                        let got = q.execute_with(&set, &ExecOptions::new(threads)).unwrap();
                        assert_eq!(got.len(), reference.len());
                        let at = format!("{kind} shards {num_shards}, threads {threads}");
                        for (g, r) in got.iter().zip(&reference) {
                            assert_eq!(g.keys, r.keys, "{at}");
                            assert_eq!(g.group_rows, r.group_rows);
                            for (a, b) in g.values.iter().zip(&r.values) {
                                for (x, y) in a.iter().zip(b) {
                                    assert_eq!(x.to_bits(), y.to_bits(), "{at}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn group_rows_tracks_predicate() {
        let t = student_table();
        let q = GroupByQuery::new(vec![ScalarExpr::col("college")], vec![AggExpr::avg("gpa")])
            .with_predicate(Predicate::cmp("gpa", CmpOp::Ge, 3.5));
        let r = &q.execute(&t).unwrap()[0];
        let sci = r.group_position(&[KeyAtom::from("Science")]).unwrap();
        assert_eq!(r.group_rows[sci], 2);
    }

    /// One name per `ScalarExpr` and `Predicate` variant — each reachable
    /// only through that variant — plus repeats, which are reported once.
    #[test]
    fn columns_names_every_column_read_once_in_bind_order() {
        use crate::expr::{ArithOp, CaseWhen};
        let col = ScalarExpr::col;
        let case = ScalarExpr::Case {
            whens: vec![CaseWhen {
                lhs: col("when_lhs"),
                op: CmpOp::Gt,
                rhs: col("when_rhs"),
                then: col("then"),
            }],
            otherwise: Some(Box::new(col("otherwise"))),
        };
        let predicate = Predicate::True
            .and(Predicate::cmp("cmp", CmpOp::Eq, "x"))
            .and(Predicate::between(col("between"), 1.0, 2.0).not())
            .or(Predicate::InList { expr: col("in_list"), values: vec![Value::Int64(1)] })
            .and(Predicate::cmp("plain", CmpOp::Ne, "y"));
        let q = GroupByQuery::new(
            vec![
                col("plain"),
                ScalarExpr::year("year"),
                ScalarExpr::month("month"),
                ScalarExpr::Day(Box::new(col("day"))),
                ScalarExpr::hour("hour"),
            ],
            vec![
                AggExpr::count(),
                AggExpr::over(AggKind::Sum, ScalarExpr::indicator("indicator", CmpOp::Gt, 1.0)),
                AggExpr::over(
                    AggKind::Avg,
                    ScalarExpr::binary(
                        ArithOp::Mul,
                        ScalarExpr::binary(ArithOp::Add, col("left"), ScalarExpr::lit(2.0)),
                        col("right"),
                    ),
                ),
                AggExpr::over(AggKind::Max, case),
                AggExpr::count_if("cmp", CmpOp::Lt, 3.0),
            ],
        )
        .with_predicate(predicate);
        let grouping = ["plain", "year", "month", "day", "hour"];
        // "plain" is read again here, and reported once.
        let predicate = ["cmp", "between", "in_list"];
        let inputs = ["indicator", "left", "right", "when_lhs", "when_rhs", "then", "otherwise"];
        assert_eq!(q.columns(), [&grouping[..], &predicate[..], &inputs[..]].concat());
        let count_only = GroupByQuery::new(vec![], vec![AggExpr::count()]);
        assert!(count_only.columns().is_empty(), "COUNT(*) reads no column");
    }
}
