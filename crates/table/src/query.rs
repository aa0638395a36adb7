//! Group-by query execution: one aggregation pass, generic over the
//! [`Accumulator`] it folds.
//!
//! The pass walks the rows one global partition at a time, in the grouping
//! module's one walk: each row's key takes a partition-local slot and, when
//! the predicate keeps the row, updates that slot's accumulators in the same
//! step, so interning and folding read every row once. Each partition's
//! state table is sized by the groups it saw; partitions merge keys and
//! states together, in partition order, through the ordered merge; and the
//! merged finest-group states are projected onto each grouping set, so a
//! `WITH CUBE` over k attributes still scans the data once. The full set —
//! a plain statement's only one — is the identity projection: it keeps the
//! fine ids and borrows the fine keys, so its read-out hashes and clones no
//! key, and clones only the key of a group that folded a row.
//!
//! [`GroupByQuery::execute`] runs it with [`AggState`] and unit weights over
//! packed dimension codes — with no group index — and computes exact answers
//! (the experiments' ground truth). Over shards behind readers each shard
//! runs the same per-partition function over the partitions it holds, and
//! its partials merge here in partition order.
//! Sample-based estimators run the same pass over a group index's ids
//! ([`GroupByQuery::aggregate`]) with a weighted accumulator.

use std::borrow::Cow;

use crate::agg::{Accumulator, AggExpr, AggKind, AggState};
use crate::bitmap::Bitmap;
use crate::cube::grouping_sets;
use crate::exec::{self, ExecOptions, RowRange};
use crate::expr::{BoundExpr, ScalarExpr};
use crate::groupby::{GroupIndex, GroupProjection, KeyAtom, LocalKeys, OrderedMerge, RowKeys};
use crate::predicate::Predicate;
use crate::reader::{Fold, RowSpace};
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

    /// Execute with explicit execution options. Over in-process rows — a
    /// table, or every shard of a set — the pass keys rows by their packed
    /// dimension codes and never builds a group index; when a shard is
    /// behind a reader every shard folds the partitions it holds whole and
    /// answers partials, with no per-row id or value crossing the boundary.
    /// The predicate scan and the aggregation pass are chunk-parallel.
    /// Because aggregation partials are whole *global* partitions (each
    /// assembled from the shard segments covering it) merged in partition
    /// order, the results are **bit-identical to executing on the
    /// concatenated table** for any shard layout and thread count.
    pub fn execute_with<'a>(
        &self,
        rows: impl Into<RowSpace<'a>>,
        options: &ExecOptions,
    ) -> Result<Vec<QueryResult>> {
        let rows = rows.into();
        let dim_names: Vec<String> = self.group_by.iter().map(ScalarExpr::display_name).collect();
        let Some(tables) = rows.local_tables() else {
            return self.execute_walked(&rows, &dim_names, options);
        };
        let keys = RowKeys::encode(&rows, &tables, &self.group_by, options)?;
        let filters = match &self.predicate {
            Some(p) => Some(rows.predicate_bitmaps(p, options)?),
            None => None,
        };
        self.fold::<AggState>(&rows, &keys, filters.as_deref(), |_| 1.0, options)
    }

    /// [`GroupByQuery::execute_with`] over a row space with a shard behind a
    /// reader: one walk per shard folds the partitions it holds, and the
    /// partials merge into the finest groups in partition order, exactly as
    /// the in-process pass merges its own.
    fn execute_walked(
        &self,
        rows: &RowSpace<'_>,
        dim_names: &[String],
        options: &ExecOptions,
    ) -> Result<Vec<QueryResult>> {
        let fold =
            Fold::Exact { predicate: self.predicate.clone(), aggregates: self.aggregates.clone() };
        rows.check_binds(&self.group_by, &fold)?;
        let walked = rows.walk(&self.group_by, &fold, options)?;
        let width = self.aggregates.len();
        let mut fine = vec![AggState::default(); walked.keys.len() * width];
        for (groups, states) in &walked.partials {
            for (slot, &group) in groups.iter().enumerate() {
                let cells = &states[slot * width..(slot + 1) * width];
                let acc = &mut fine[group as usize * width..][..width];
                acc.iter_mut().zip(cells).for_each(|(a, c)| a.merge(c));
            }
        }
        let group_keys: Vec<Cow<[KeyAtom]>> =
            walked.keys.iter().map(|key| Cow::Borrowed(key.as_slice())).collect();
        Ok(self.assemble(dim_names, &group_keys, &fine))
    }

    /// The aggregation pass over the ids of `index`, this query's
    /// [`RowSpace::group_index`] over `rows`: walk `rows` under the
    /// optional per-shard `filters` (this query's
    /// [`RowSpace::predicate_bitmaps`]), fold one accumulator per (group,
    /// aggregate) per partition, merge the partials in partition order,
    /// project the merged states onto each grouping set and assemble one
    /// [`QueryResult`] per set. `weight` maps a global row id to the weight
    /// its value is accumulated with.
    pub fn aggregate<A: Accumulator>(
        &self,
        rows: &RowSpace<'_>,
        index: &GroupIndex,
        filters: Option<&[Bitmap]>,
        weight: impl Fn(usize) -> f64 + Sync,
        options: &ExecOptions,
    ) -> Result<Vec<QueryResult>> {
        self.fold::<A>(rows, &RowKeys::of_index(index), filters, weight, options)
    }

    /// The pass itself, over any keys of `rows`. Every row takes a slot, so
    /// fine groups follow first occurrence over *all* rows — the order
    /// [`coarsen`] merges them in — but only rows the filters keep are
    /// folded.
    ///
    /// Partials are whole **global** partitions — each one walks the shard
    /// segments that cover it, reading values through that shard's bound
    /// expressions — so every (partition, group) accumulation chain visits
    /// the same rows in the same order wherever shard boundaries fall, and
    /// the partition-order merge makes the result bit-identical to the
    /// single-table pass.
    fn fold<A: Accumulator>(
        &self,
        rows: &RowSpace<'_>,
        keys: &RowKeys<'_>,
        filters: Option<&[Bitmap]>,
        weight: impl Fn(usize) -> f64 + Sync,
        options: &ExecOptions,
    ) -> Result<Vec<QueryResult>> {
        let aggregates = &self.aggregates;
        let width = aggregates.len();
        let inputs: Vec<Option<ScalarExpr>> = aggregates.iter().map(|a| a.input.clone()).collect();
        let bound = rows.bind(&inputs)?;

        // `fine[group * width + aggregate]`, groups in merged
        // (first-occurrence) order.
        let (merge, fine) = exec::fold_partitioned(
            rows.num_rows(),
            options,
            (OrderedMerge::<u64>::default(), Vec::<A>::new()),
            |_, range| fold_partition(rows, keys, range, aggregates, &bound, filters, &weight),
            |(merge, fine): &mut (OrderedMerge<u64>, Vec<A>),
             (local, states): (LocalKeys, Vec<A>)| {
                let known = merge.len();
                let translation = merge.push(local.partial());
                for (slot, &group) in translation.iter().enumerate() {
                    let cells = &states[slot * width..(slot + 1) * width];
                    if group as usize >= known {
                        // A group's first partial, in id order: merging into
                        // a default accumulator would copy it, so take it.
                        fine.extend_from_slice(cells);
                    } else {
                        let acc = &mut fine[group as usize * width..][..width];
                        acc.iter_mut().zip(cells).for_each(|(a, c)| a.merge(c));
                    }
                }
            },
        );
        let dim_names: Vec<String> = self.group_by.iter().map(ScalarExpr::display_name).collect();
        let group_keys: Vec<Cow<[KeyAtom]>> =
            merge.keys().iter().map(|&k| keys.decode(k)).collect();
        Ok(self.assemble(&dim_names, &group_keys, &fine))
    }

    /// Project the finest-group states onto each grouping set and read
    /// every set's groups out. A non-empty set keeps only groups with at
    /// least one accumulated row; the empty set answers exactly one row,
    /// as SQL does for an aggregate over no rows: `COUNT` and `COUNT_IF` 0,
    /// every other aggregate without a value (NaN).
    fn assemble<A: Accumulator>(
        &self,
        dim_names: &[String],
        group_keys: &[Cow<[KeyAtom]>],
        fine: &[A],
    ) -> Vec<QueryResult> {
        let aggregates = &self.aggregates;
        let width = aggregates.len();
        let fine_groups = || (0..group_keys.len()).map(|g| &fine[g * width..(g + 1) * width]);
        let sets: Vec<Vec<usize>> = if self.cube {
            grouping_sets(self.group_by.len())
        } else {
            vec![(0..self.group_by.len()).collect()]
        };
        let agg_names: Vec<String> = aggregates.iter().map(|a| a.alias.clone()).collect();
        let results = sets.iter().map(|dims| {
            let proj = GroupProjection::of(dim_names, group_keys, dims);
            let coarse = coarsen(&proj, fine_groups(), width);
            let mut groups = Vec::new();
            for cid in 0..proj.num_groups() {
                let states = &coarse[cid * width..(cid + 1) * width];
                let group_rows = states.iter().map(A::rows).max().unwrap_or(0);
                if group_rows == 0 {
                    continue;
                }
                let values =
                    states.iter().zip(aggregates).map(|(s, a)| s.finalize(a.kind)).collect();
                groups.push((proj.key(cid as u32).to_vec(), values, group_rows));
            }
            if dims.is_empty() && groups.is_empty() {
                let values = aggregates
                    .iter()
                    .map(|a| match a.kind {
                        AggKind::Count | AggKind::CountIf => 0.0,
                        _ => f64::NAN,
                    })
                    .collect();
                groups.push((Vec::new(), values, 0));
            }
            QueryResult::from_parts(proj.dim_names().to_vec(), agg_names.clone(), groups)
        });
        results.collect()
    }
}

/// One partition of the aggregation pass: walk `range` of `rows` under
/// `keys`, and fold every row the optional per-shard `filters` keep into its
/// slot's accumulators, `states[slot * width + aggregate]`. `bound` holds
/// the aggregates' inputs bound per shard, and `weight` maps a global row
/// id to its weight. Returns the partition's keys with the states. Both
/// sides of a statement over shards behind readers run it: a shard for the
/// partitions it holds whole, the coordinator for in-process rows and for a
/// partition that straddles a shard boundary.
pub(crate) fn fold_partition<A: Accumulator>(
    rows: &RowSpace<'_>,
    keys: &RowKeys<'_>,
    range: RowRange,
    aggregates: &[AggExpr],
    bound: &[Vec<Option<BoundExpr<'_>>>],
    filters: Option<&[Bitmap]>,
    weight: impl Fn(usize) -> f64,
) -> (LocalKeys, Vec<A>) {
    let width = aggregates.len();
    // `states[slot * width + aggregate]`, grown as slots appear inside room
    // for every slot the walk can hand out: a partial is never copied to
    // grow, and room the walk does not fill is never written.
    let mut states: Vec<A> = Vec::with_capacity(keys.max_slots(range) * width);
    let local = keys.walk(rows, range, |run, slots, seen| {
        states.resize(seen * width, A::default());
        // Global row id of shard-local row `r` is `r + delta`.
        let delta = run.global_start - run.local.start;
        let weight = |r: usize| weight(r + delta);
        // One aggregate at a time over the run: each (slot, aggregate) cell
        // still takes its rows in row order.
        for (a, (agg, expr)) in aggregates.iter().zip(&bound[run.shard]).enumerate() {
            let cells = &mut states[a..];
            let (start, end) = (run.local.start, run.local.end);
            match filters {
                Some(bms) => {
                    let kept = bms[run.shard].iter_ones_in(start, end);
                    let rows = kept.map(|r| (r, slots[r - start]));
                    fold_column(cells, width, rows, agg, expr.as_ref(), weight);
                }
                None => {
                    let rows = (start..end).zip(slots.iter().copied());
                    fold_column(cells, width, rows, agg, expr.as_ref(), weight);
                }
            }
        }
    });
    (local, states)
}

/// Fold aggregate `agg` over `rows` — each a shard-local row id with its
/// slot — into `cells`, where slot `s`'s cell is `cells[s * width]`. A row
/// feeds the value its input `expr` (bound against the row's shard) has
/// there, and none when the input has no value (a null). The match on the
/// aggregate and on the input's shape happens once per run, not per row: a
/// plain `Float64` input is read straight from its slice, which holds the
/// values `f64_at` returns.
#[inline]
fn fold_column<A: Accumulator>(
    cells: &mut [A],
    width: usize,
    rows: impl Iterator<Item = (usize, u32)>,
    agg: &AggExpr,
    expr: Option<&BoundExpr<'_>>,
    weight: impl Fn(usize) -> f64,
) {
    match (agg.kind, expr) {
        (AggKind::Count, _) => fold_rows(cells, width, rows, |_| Some(1.0), weight),
        (AggKind::CountIf, Some(e)) => {
            let (op, threshold) = agg.condition.expect("COUNT_IF has a condition");
            let hit = move |v: f64| Some(if op.evaluate_f64(v, threshold) { 1.0 } else { 0.0 });
            match e.f64_slice() {
                Some(values) => fold_rows(cells, width, rows, |r| hit(values[r]), weight),
                None => {
                    let value = |r| hit(e.f64_at(r).unwrap_or(f64::NAN));
                    fold_rows(cells, width, rows, value, weight)
                }
            }
        }
        (_, Some(e)) => match e.f64_slice() {
            Some(values) => fold_rows(cells, width, rows, |r| Some(values[r]), weight),
            None => fold_rows(cells, width, rows, |r| e.f64_at(r), weight),
        },
        (_, None) => {}
    }
}

/// The loop [`fold_column`] specialises, once per value source.
#[inline]
fn fold_rows<A: Accumulator>(
    cells: &mut [A],
    width: usize,
    rows: impl Iterator<Item = (usize, u32)>,
    value: impl Fn(usize) -> Option<f64>,
    weight: impl Fn(usize) -> f64,
) {
    for (row, slot) in rows {
        if let Some(v) = value(row) {
            cells[slot as usize * width].update(v, weight(row));
        }
    }
}

/// Merge finest-group accumulators (each fine group's `width` columns, in
/// fine-id order) onto the coarser grouping `proj`, into one flat buffer:
/// `[coarse group * width + column]`.
pub fn coarsen<'f, A: Accumulator + 'f>(
    proj: &GroupProjection<'_>,
    fine: impl IntoIterator<Item = &'f [A]>,
    width: usize,
) -> Vec<A> {
    let mut merged = vec![A::default(); proj.num_groups() * width];
    for (fine_gid, states) in fine.into_iter().enumerate() {
        let cid = proj.coarse_of(fine_gid as u32) as usize;
        let acc = &mut merged[cid * width..][..width];
        acc.iter_mut().zip(states).for_each(|(a, s)| a.merge(s));
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
    /// Group keys, sorted and unique: [`QueryResult::group_position`]
    /// binary-searches them.
    pub keys: Vec<Vec<KeyAtom>>,
    /// `values[group][aggregate]`.
    pub values: Vec<Vec<f64>>,
    /// Rows that contributed to each group (post-predicate).
    pub group_rows: Vec<u64>,
}

impl QueryResult {
    /// Assemble a result from `(key, values, contributing rows)` triples
    /// with distinct keys; rows are sorted by key.
    pub fn from_parts(
        grouping: Vec<String>,
        agg_names: Vec<String>,
        mut rows: Vec<(Vec<KeyAtom>, Vec<f64>, u64)>,
    ) -> Self {
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        debug_assert!(rows.windows(2).all(|w| w[0].0 != w[1].0), "duplicate group key");
        let mut result = QueryResult {
            grouping,
            agg_names,
            keys: Vec::with_capacity(rows.len()),
            values: Vec::with_capacity(rows.len()),
            group_rows: Vec::with_capacity(rows.len()),
        };
        for (key, values, nrows) in rows {
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
        self.keys.binary_search_by(|k| k.as_slice().cmp(key)).ok()
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
        // Absent keys: before the first, between two and after the last
        // sorted key, of the wrong arity, and the empty key.
        for absent in [&["AA"][..], &["Chem"], &["zz"], &["CS", "Science"], &[]] {
            let key: Vec<KeyAtom> = absent.iter().map(|&s| KeyAtom::from(s)).collect();
            assert_eq!(r.group_position(&key), None, "{absent:?}");
            assert_eq!(r.value(&key, 0), None, "{absent:?}");
        }
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
        // `dims = []`: the one group's key is empty, and no other key is
        // present.
        assert_eq!(r.group_position(&[]), Some(0));
        assert_eq!(r.value(&[], 1), Some(8.0));
        assert_eq!(r.value(&[KeyAtom::from("CS")], 0), None);
    }

    /// SQL answers an aggregate over no qualifying rows with one row:
    /// `COUNT` and `COUNT_IF` 0, everything else without a value. Only the
    /// empty grouping set does; a grouped set keeps dropping empty groups.
    #[test]
    fn empty_grouping_set_over_no_rows_answers_one_row() {
        let t = student_table();
        let none = Predicate::cmp("age", CmpOp::Gt, 100.0);
        let q = GroupByQuery::new(
            vec![],
            vec![
                AggExpr::count(),
                AggExpr::count_if("gpa", CmpOp::Gt, 0.0),
                AggExpr::sum("sat"),
                AggExpr::avg("gpa"),
                AggExpr::min("age"),
            ],
        );
        let empty = TableBuilder::from_schema(t.schema().clone()).finish();
        for (q, rows) in [(q.clone().with_predicate(none.clone()), &t), (q, &empty)] {
            let r = &q.execute(rows).unwrap()[0];
            assert_eq!((r.num_groups(), r.group_rows[0]), (1, 0));
            assert!(r.keys[0].is_empty());
            assert_eq!(&r.values[0][..2], &[0.0, 0.0]);
            assert!(r.values[0][2..].iter().all(|v| v.is_nan()), "{:?}", r.values[0]);
        }
        for stmt in
            ["SELECT COUNT(*) FROM t WHERE age > 100", "SELECT AVG(gpa) FROM t WHERE age > 100"]
        {
            assert_eq!(crate::sql::run(&t, stmt).unwrap()[0].num_groups(), 1, "{stmt}");
        }
        let cube = GroupByQuery::new(
            vec![ScalarExpr::col("major"), ScalarExpr::col("college")],
            vec![AggExpr::count()],
        )
        .with_predicate(none)
        .with_cube();
        let sizes: Vec<usize> = cube.execute(&t).unwrap().iter().map(|r| r.num_groups()).collect();
        assert_eq!(sizes, [0, 0, 0, 1]);
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
