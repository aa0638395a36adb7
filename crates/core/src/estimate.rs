//! Answering group-by queries from a weighted sample.
//!
//! There is no estimator loop here: the estimate is
//! [`GroupByQuery::aggregate`] — the pass the exact executor runs, over the
//! same packed keys — folding the [`WeightedCells`] family under the
//! sample's Horvitz–Thompson weights instead of the exact cells under unit
//! weights. Each aggregate kind folds only what it reads, plus the raw row
//! count the result's `group_rows` report:
//!
//! * `COUNT`    → `Σ w` ([`WeightedCount`]: rows and `Σ w`)
//! * `SUM`      → `Σ w·v`, read as the weighted mean times `Σ w`
//!   ([`WeightedMean`]: rows, `Σ w` and the weighted mean)
//! * `COUNT_IF` → `Σ w·1[cond]` ([`WeightedMean`] over 0/1 hits)
//! * `AVG`      → `Σ w·v / Σ w` (weighted ratio estimator; equals the
//!   paper's `y_a = Σ_c n_c·y_c / Σ_c n_c` when the sample is stratified
//!   and no predicate is applied) ([`WeightedMean`])
//! * `VAR`/`STD` → weighted population variance ([`WeightedAggState`], the
//!   full moments)
//! * `MIN`/`MAX` → sample min/max (not unbiased; documented) (the exact
//!   pass's [`MinCell`](cvopt_table::agg::MinCell) and
//!   [`MaxCell`](cvopt_table::agg::MaxCell), which skip a row of non-positive
//!   weight as every weighted cell does)
//!
//! Each field of each cell sees the operations the same field of a
//! [`WeightedAggState`] fed the same rows sees, in the same order, so every
//! estimate is the full state's, bit for bit. The family is defined beside
//! the exact one, in [`cvopt_table::agg`], where the pass's own tests run
//! both, and is re-exported here.
//!
//! Because sampled rows carry *all* attributes, the same sample answers
//! queries with new predicates or new groupings supplied at query time
//! (paper §6.3), including `WITH CUBE`. A statement's estimates and their
//! error bars ([`crate::confidence`]) are two read-outs over one
//! `SampleScan`: the sample's packed grouping keys and predicate bitmap,
//! built once. Neither writes a per-row group id.

pub use cvopt_table::agg::{WeightedAggState, WeightedCells, WeightedCount, WeightedMean};
use cvopt_table::exec::ExecOptions;
use cvopt_table::groupby::RowKeys;
use cvopt_table::{Bitmap, GroupByQuery, QueryResult, RowSpace};

use crate::sample::MaterializedSample;
use crate::Result;

/// What every pass answering `query` from `sample` reads: the sample's rows,
/// their packed keys under the query's grouping and the bitmap of its
/// predicate — built once, under `options`, and shared by the weighted pass
/// ([`SampleScan::estimate`]) and the confidence pass
/// (`SampleScan::confidence`, in [`crate::confidence`]).
pub(crate) struct SampleScan<'a> {
    pub(crate) sample: &'a MaterializedSample,
    pub(crate) query: &'a GroupByQuery,
    pub(crate) keys: RowKeys<'a>,
    /// The predicate's bitmap over the sample's one table (`None` without
    /// a predicate), in the per-shard form the aggregation pass takes.
    pub(crate) filter: Option<Vec<Bitmap>>,
    pub(crate) rows: RowSpace<'a>,
    options: ExecOptions,
}

impl<'a> SampleScan<'a> {
    pub(crate) fn new(
        sample: &'a MaterializedSample,
        query: &'a GroupByQuery,
        options: &ExecOptions,
    ) -> Result<Self> {
        let rows = RowSpace::from(&sample.table);
        let keys = options.span("encode", || {
            RowKeys::encode(&rows, &[&sample.table], &query.group_by, options)
        })?;
        let filter = match &query.predicate {
            Some(p) => Some(options.span("bitmap", || rows.predicate_bitmaps(p, options))?),
            None => None,
        };
        Ok(SampleScan { sample, query, keys, filter, rows, options: options.clone() })
    }

    /// The Horvitz–Thompson estimate: one [`QueryResult`] per grouping set.
    pub(crate) fn estimate(&self) -> Result<Vec<QueryResult>> {
        let weights = &self.sample.weights;
        Ok(self.query.aggregate::<WeightedCells>(
            &self.rows,
            &self.keys,
            self.filter.as_deref(),
            |row| weights[row],
            &self.options,
        )?)
    }
}

/// Estimate `query` from `sample`, one worker per available core (see
/// [`estimate_with`]).
///
/// Returns one [`QueryResult`] per grouping set (like
/// [`GroupByQuery::execute`]); groups with no sampled row are absent — the
/// evaluation layer scores them as 100% relative error, like the paper.
pub fn estimate(sample: &MaterializedSample, query: &GroupByQuery) -> Result<Vec<QueryResult>> {
    estimate_with(sample, query, &ExecOptions::default())
}

/// Estimate `query` from `sample` with explicit execution options. The
/// key encoding, the predicate scan, and the weighted accumulation all run
/// chunk-parallel; partials merge in partition order, so the estimate is
/// identical for any thread count.
pub fn estimate_with(
    sample: &MaterializedSample,
    query: &GroupByQuery,
    options: &ExecOptions,
) -> Result<Vec<QueryResult>> {
    SampleScan::new(sample, query, options)?.estimate()
}

/// Convenience: estimate one aggregate of a single-grouping-set query.
pub fn estimate_single(sample: &MaterializedSample, query: &GroupByQuery) -> Result<QueryResult> {
    let mut results = estimate(sample, query)?;
    Ok(results.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::stratified::StratifiedSample;
    use cvopt_table::agg::{Accumulator, AggKind, MaxCell, MinCell};
    use cvopt_table::{
        AggExpr as TAggExpr, CmpOp, DataType, GroupIndex, KeyAtom, Predicate, ScalarExpr, Table,
        TableBuilder, Value,
    };

    fn base_table() -> Table {
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        // Group a: 0..100 (mean 49.5); group b: 1000..1010 (mean 1004.5).
        for i in 0..100 {
            b.push_row(&[Value::str("a"), Value::Float64(i as f64)]).unwrap();
        }
        for i in 0..10 {
            b.push_row(&[Value::str("b"), Value::Float64(1000.0 + i as f64)]).unwrap();
        }
        b.finish()
    }

    fn full_sample(t: &Table) -> MaterializedSample {
        // A "sample" of everything with weight 1: estimates must be exact.
        let rows: Vec<u32> = (0..t.num_rows() as u32).collect();
        let weights = vec![1.0; t.num_rows()];
        MaterializedSample::from_rows(t, rows, weights)
    }

    #[test]
    fn full_sample_is_exact() {
        let t = base_table();
        let s = full_sample(&t);
        let q = GroupByQuery::new(
            vec![ScalarExpr::col("g")],
            vec![TAggExpr::avg("x"), TAggExpr::count(), TAggExpr::sum("x")],
        );
        let est = estimate_single(&s, &q).unwrap();
        let exact = &q.execute(&t).unwrap()[0];
        for (key, values) in exact.iter() {
            for (j, v) in values.iter().enumerate() {
                let e = est.value(key, j).unwrap();
                assert!((e - v).abs() < 1e-9, "agg {j} key {key:?}: {e} vs {v}");
            }
        }
    }

    proptest::proptest! {
        /// With every weight 1.0 over a whole table the weighted kernel *is*
        /// the exact executor: same keys and group rows, COUNT/MIN/MAX bit
        /// for bit, and the read-outs of the running mean (COUNT_IF, SUM,
        /// AVG) up to the rounding of West's recurrence vs Welford's.
        #[test]
        fn unit_weights_reproduce_the_exact_executor(
            rows in proptest::collection::vec((0u8..5, 0u8..3, -1e3f64..1e3), 1..300),
            threshold in -1e3f64..1e3,
        ) {
            let mut b = TableBuilder::new(&[
                ("g", DataType::Str),
                ("h", DataType::Int64),
                ("x", DataType::Float64),
            ]);
            for &(g, h, x) in &rows {
                b.push_row(&[Value::str(format!("g{g}")), Value::Int64(h as i64), Value::Float64(x)])
                    .unwrap();
            }
            let t = b.finish();
            let s = full_sample(&t);
            let aggregates = vec![
                TAggExpr::count(),
                TAggExpr::min("x"),
                TAggExpr::max("x"),
                TAggExpr::count_if("x", CmpOp::Gt, 0.0),
                TAggExpr::sum("x"),
                TAggExpr::avg("x"),
            ];
            let q = GroupByQuery::new(vec![ScalarExpr::col("g"), ScalarExpr::col("h")], aggregates)
                .with_predicate(Predicate::cmp("x", CmpOp::Lt, threshold))
                .with_cube();
            let est = estimate(&s, &q).unwrap();
            let exact = q.execute(&t).unwrap();
            proptest::prop_assert_eq!(est.len(), exact.len());
            for (e, x) in est.iter().zip(&exact) {
                proptest::prop_assert_eq!(&e.keys, &x.keys);
                proptest::prop_assert_eq!(&e.group_rows, &x.group_rows);
                for (ev, xv) in e.values.iter().zip(&x.values) {
                    for j in 0..3 {
                        proptest::prop_assert_eq!(ev[j].to_bits(), xv[j].to_bits(), "agg {}", j);
                    }
                    for j in 3..6 {
                        // Both NaN in the empty grouping set over no rows.
                        let tolerance = 1e-9 * xv[j].abs().max(1.0);
                        let close = (ev[j] - xv[j]).abs() <= tolerance;
                        proptest::prop_assert!(close || ev[j].is_nan() && xv[j].is_nan(), "agg {}", j);
                    }
                }
            }
        }
    }

    #[test]
    fn stratified_sample_count_sum_unbiased_shape() {
        let t = base_table();
        let idx = GroupIndex::build(&t, &[ScalarExpr::col("g")]).unwrap();
        let s = StratifiedSample::draw(&idx, &[20, 5], 11, &ExecOptions::default()).materialize(&t);
        let q = GroupByQuery::new(vec![ScalarExpr::col("g")], vec![TAggExpr::count()]);
        let est = estimate_single(&s, &q).unwrap();
        // COUNT estimates are exactly n_c for full strata (HT with n/s).
        assert!((est.value(&[KeyAtom::from("a")], 0).unwrap() - 100.0).abs() < 1e-9);
        assert!((est.value(&[KeyAtom::from("b")], 0).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn avg_within_reason() {
        let t = base_table();
        let idx = GroupIndex::build(&t, &[ScalarExpr::col("g")]).unwrap();
        let s = StratifiedSample::draw(&idx, &[50, 5], 13, &ExecOptions::default()).materialize(&t);
        let q = GroupByQuery::new(vec![ScalarExpr::col("g")], vec![TAggExpr::avg("x")]);
        let est = estimate_single(&s, &q).unwrap();
        let a = est.value(&[KeyAtom::from("a")], 0).unwrap();
        let b = est.value(&[KeyAtom::from("b")], 0).unwrap();
        assert!((a - 49.5).abs() < 15.0, "a estimate {a}");
        assert!((b - 1004.5).abs() < 5.0, "b estimate {b}");
    }

    #[test]
    fn predicate_applied_at_query_time() {
        let t = base_table();
        let s = full_sample(&t);
        let q = GroupByQuery::new(vec![ScalarExpr::col("g")], vec![TAggExpr::count()])
            .with_predicate(Predicate::cmp("x", CmpOp::Lt, 50.0));
        let est = estimate_single(&s, &q).unwrap();
        assert_eq!(est.value(&[KeyAtom::from("a")], 0), Some(50.0));
        assert!(est.value(&[KeyAtom::from("b")], 0).is_none());
    }

    /// The estimate of an aggregate over no qualifying rows is the exact
    /// answer's one row: `COUNT` 0, `AVG` without a value.
    #[test]
    fn empty_grouping_set_over_no_sampled_rows_answers_one_row() {
        let t = base_table();
        let q = GroupByQuery::new(vec![], vec![TAggExpr::count(), TAggExpr::avg("x")])
            .with_predicate(Predicate::cmp("x", CmpOp::Gt, 1e6));
        let est = estimate_single(&full_sample(&t), &q).unwrap();
        assert_eq!((est.num_groups(), est.group_rows[0], est.values[0][0]), (1, 0, 0.0));
        assert!(est.values[0][1].is_nan());
    }

    #[test]
    fn missing_group_absent() {
        let t = base_table();
        // Sample only group-a rows.
        let rows: Vec<u32> = (0..20).collect();
        let weights = vec![5.0; 20];
        let s = MaterializedSample::from_rows(&t, rows, weights);
        let q = GroupByQuery::new(vec![ScalarExpr::col("g")], vec![TAggExpr::avg("x")]);
        let est = estimate_single(&s, &q).unwrap();
        assert!(est.value(&[KeyAtom::from("b")], 0).is_none());
        assert_eq!(est.num_groups(), 1);
    }

    #[test]
    fn cube_estimation() {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("h", DataType::Str),
            ("x", DataType::Float64),
        ]);
        for i in 0..60 {
            let g = if i % 2 == 0 { "a" } else { "b" };
            let h = if i % 3 == 0 { "p" } else { "q" };
            b.push_row(&[Value::str(g), Value::str(h), Value::Float64(i as f64)]).unwrap();
        }
        let t = b.finish();
        let s = full_sample(&t);
        let q = GroupByQuery::new(
            vec![ScalarExpr::col("g"), ScalarExpr::col("h")],
            vec![TAggExpr::sum("x")],
        )
        .with_cube();
        let est = estimate(&s, &q).unwrap();
        let exact = q.execute(&t).unwrap();
        assert_eq!(est.len(), 4);
        for (e_set, x_set) in est.iter().zip(&exact) {
            assert_eq!(e_set.num_groups(), x_set.num_groups());
            for (key, values) in x_set.iter() {
                let got = e_set.value(key, 0).unwrap();
                assert!((got - values[0]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn count_if_weighted() {
        let t = base_table();
        let idx = GroupIndex::build(&t, &[ScalarExpr::col("g")]).unwrap();
        // Full stratum samples → exact.
        let s =
            StratifiedSample::draw(&idx, &[100, 10], 17, &ExecOptions::default()).materialize(&t);
        let q = GroupByQuery::new(
            vec![ScalarExpr::col("g")],
            vec![TAggExpr::count_if("x", CmpOp::Ge, 50.0)],
        );
        let est = estimate_single(&s, &q).unwrap();
        assert!((est.value(&[KeyAtom::from("a")], 0).unwrap() - 50.0).abs() < 1e-9);
        assert!((est.value(&[KeyAtom::from("b")], 0).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_state_merge_matches_sequential() {
        let values = [(1.0, 2.0), (3.0, 1.0), (5.0, 4.0), (2.0, 0.5), (8.0, 1.5)];
        let mut whole = WeightedAggState::default();
        for &(v, w) in &values {
            whole.update(v, w);
        }
        let mut left = WeightedAggState::default();
        let mut right = WeightedAggState::default();
        for &(v, w) in &values[..2] {
            left.update(v, w);
        }
        for &(v, w) in &values[2..] {
            right.update(v, w);
        }
        left.merge(&right);
        assert!((left.wsum - whole.wsum).abs() < 1e-12);
        assert!((left.mean - whole.mean).abs() < 1e-12);
        assert!((left.m2 - whole.m2).abs() < 1e-9);
        assert_eq!(left.rows, whole.rows);
    }

    /// `cell` and a full weighted state, each fed `rows[..split]` and
    /// `rows[split..]` as two partials merged in order and then into an
    /// empty state, read out every kind in `kinds` — and their rows — bit
    /// for bit alike.
    fn assert_reads_like_full_state<C: Accumulator>(
        kinds: &[AggKind],
        rows: &[(f64, f64)],
        split: usize,
    ) {
        fn merged<A: Accumulator>(rows: &[(f64, f64)], split: usize) -> A {
            let fold = |rows: &[(f64, f64)]| {
                let mut state = A::default();
                rows.iter().for_each(|&(v, w)| state.update(v, w));
                state
            };
            let (mut left, right) = (fold(&rows[..split]), fold(&rows[split..]));
            left.merge(&right);
            let mut whole = A::default();
            whole.merge(&left);
            whole
        }
        let full = merged::<WeightedAggState>(rows, split);
        let cell = merged::<C>(rows, split);
        assert_eq!(full.rows(), cell.rows());
        for &kind in kinds {
            let (want, got) = (full.finalize(kind), cell.finalize(kind));
            assert_eq!(want.to_bits(), got.to_bits(), "{kind:?}: {want} vs {got}");
        }
    }

    /// Every narrow weighted cell reads out its kinds as the full weighted
    /// state does, bit for bit — rows of zero and negative weight among
    /// the rows, and values with NaN, ±0 and ±∞.
    #[test]
    fn narrow_weighted_cells_read_out_the_full_states_bits() {
        let values = [3.5, -0.0, 0.0, f64::NAN, f64::INFINITY, -7.25, 1e6, -2.0, 0.125];
        let weights = [1.0, 2.5, 0.0, -1.0, 0.37, 13.0, 1.0, 4.0];
        for n in 0..=values.len() * 2 {
            let rows: Vec<(f64, f64)> = (0..n)
                .map(|i| (values[(i * 5) % values.len()], weights[(i * 3) % weights.len()]))
                .collect();
            for split in 0..=n {
                use AggKind::*;
                assert_reads_like_full_state::<WeightedCount>(&[Count], &rows, split);
                assert_reads_like_full_state::<WeightedMean>(&[Sum, CountIf, Avg], &rows, split);
                assert_reads_like_full_state::<MinCell>(&[Min], &rows, split);
                assert_reads_like_full_state::<MaxCell>(&[Max], &rows, split);
            }
        }
    }

    #[test]
    fn zero_weight_rows_ignored() {
        let mut s = WeightedAggState::default();
        s.update(5.0, 0.0);
        assert_eq!(s.rows, 0);
        s.update(5.0, -1.0);
        assert_eq!(s.rows, 0);
    }
}
