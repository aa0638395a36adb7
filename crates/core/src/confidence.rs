//! Per-group error estimates for stratified samples.
//!
//! The paper's whole optimization is about the *coefficient of variation* of
//! per-group estimates; this module closes the loop by estimating that CV
//! from the drawn sample itself, so a user can attach standard errors and
//! normal-approximation confidence intervals to every approximate answer.
//!
//! The math is classical stratified *domain estimation* (Cochran §5A): for
//! a group (domain) `d`, the AVG estimator is the ratio
//! `ŷ_d = Σ w_i y_i 1_d / Σ w_i 1_d`, and its linearized variance estimate
//! is
//!
//! ```text
//! V̂(ŷ_d) = (1/N̂_d²) · Σ_c  n_c (n_c − s_c) / s_c · S²_{z,c}
//! z_i = 1_d(i) · (y_i − ŷ_d)
//! ```
//!
//! where `S²_{z,c}` is the sample variance of `z` over *all* `s_c` sampled
//! rows of stratum `c` (zeros for out-of-domain rows). When the query's
//! grouping equals the stratification and there is no predicate, this
//! reduces to the paper's `CV[y_i] = (σ_i/μ_i)·√((n_i−s_i)/(n_i s_i))` with
//! plug-in sample moments.
//!
//! The pass (`SampleScan::confidence`) is the second read-out of a
//! statement's `SampleScan`: one sequential walk of the already-encoded
//! packed keys over the rows the already-built predicate bitmap keeps, as
//! the weighted pass walks them, gives each kept row its group — its key's
//! first-occurrence id over the kept rows — and the pass accumulates every
//! `AVG` aggregate of the statement side by side.
//!
//! Each aggregate keeps its `(stratum, group)` cells in a vector, in the
//! order its contributing rows first touch them, and sums every group's
//! variance in that order. The stratum id is dense and known in advance, so
//! a row finds its cell through its stratum's first cell; only a stratum
//! that meets a second group, which a grouping coarsening the
//! stratification never makes, falls back to a map. No float sum depends on
//! a hash layout or on slot ids: only on the sample's row order.

use cvopt_table::exec::ExecOptions;
use cvopt_table::expr::{BlockScratch, BoundExpr};
use cvopt_table::fxhash::FxHashMap;
use cvopt_table::{AggExpr, AggKind, GroupByQuery, KeyAtom, Predicate, RowRange, ScalarExpr};

use crate::error::CvError;
use crate::estimate::SampleScan;
use crate::sample::MaterializedSample;
use crate::Result;

/// An AVG estimate with estimated uncertainty.
#[derive(Debug, Clone)]
pub struct AvgEstimate {
    /// Group key.
    pub key: Vec<KeyAtom>,
    /// The weighted ratio estimate of the group mean.
    pub estimate: f64,
    /// Estimated standard error of `estimate`.
    pub std_error: f64,
    /// Estimated coefficient of variation (`std_error / |estimate|`).
    pub cv: f64,
    /// Sampled rows contributing to the group (post-predicate).
    pub sampled_rows: u64,
}

impl AvgEstimate {
    /// Normal-approximation confidence interval at the given z-score
    /// (1.96 for 95%, 1.645 for 90%).
    pub fn interval(&self, z: f64) -> (f64, f64) {
        (self.estimate - z * self.std_error, self.estimate + z * self.std_error)
    }

    /// The 95% interval.
    pub fn ci95(&self) -> (f64, f64) {
        self.interval(1.96)
    }
}

/// Confidence intervals for one `AVG` aggregate of an approximate answer.
///
/// The intervals come from the confidence pass, which reads the same packed
/// keys and predicate bitmap as the weighted pass but sums in plain row
/// order: its point estimates agree with the corresponding
/// [`QueryResult`](cvopt_table::QueryResult) values analytically but may
/// differ in the last float bits. Treat `estimates[i].estimate` as the
/// interval center and the `QueryResult` as the canonical point answer.
/// A group's variance adds its per-stratum terms in the order the group's
/// contributing rows first touch the strata, so every interval is a
/// function of the sample's row order alone: the same bits for any thread
/// count.
#[derive(Debug, Clone)]
pub struct AggConfidence {
    /// Index into the query's aggregate list (and into
    /// [`QueryResult::agg_names`](cvopt_table::QueryResult::agg_names)).
    pub agg_index: usize,
    /// Per-group estimates with standard errors, sorted by group key.
    pub estimates: Vec<AvgEstimate>,
}

/// Estimate `AVG(value)` per group of `group_by` from a *stratified* sample,
/// with standard errors. An optional predicate is applied at query time.
///
/// Errors if the sample carries no stratum structure (uniform or
/// measure-biased samples have no per-stratum variance decomposition).
pub fn estimate_avg_with_error(
    sample: &MaterializedSample,
    group_by: &[ScalarExpr],
    value: &ScalarExpr,
    predicate: Option<&Predicate>,
) -> Result<Vec<AvgEstimate>> {
    if !sample.is_stratified() {
        return Err(CvError::invalid(
            "error estimation requires a stratified sample (per-stratum n and s)",
        ));
    }
    let mut query =
        GroupByQuery::new(group_by.to_vec(), vec![AggExpr::over(AggKind::Avg, value.clone())]);
    query.predicate = predicate.cloned();
    let mut confidence = SampleScan::new(sample, &query, &ExecOptions::default())?.confidence()?;
    Ok(confidence.pop().expect("one AVG aggregate over a stratified sample").estimates)
}

/// Per (stratum, group) moments of one `AVG` input: matching count, Σy, Σy².
#[derive(Default, Clone, Copy)]
struct CellAcc {
    m: u64,
    sum: f64,
    sum2: f64,
}

/// A stratum's entry in [`Cells::first`] before any row touches it.
const UNTOUCHED: u32 = u32::MAX;

/// One `AVG` aggregate's `(stratum, group)` cells.
struct Cells {
    /// The cells in first-touch order — the order of the aggregate's
    /// contributing rows — each beside its `(stratum, group)`. The variance
    /// is summed in this order, so its float sums depend on the sample's
    /// row order alone.
    order: Vec<((u32, u32), CellAcc)>,
    /// Per stratum, the index of the first cell it opened ([`UNTOUCHED`]
    /// before that): the whole lookup while a stratum meets one group, as
    /// every stratum does when the grouping coarsens the stratification.
    first: Vec<u32>,
    /// `(stratum, group) → index` for every other cell, reached only when a
    /// stratum meets a second group. Looked up, never iterated.
    more: FxHashMap<(u32, u32), u32>,
}

impl Cells {
    fn new(strata: usize) -> Self {
        Cells { order: Vec::new(), first: vec![UNTOUCHED; strata], more: FxHashMap::default() }
    }

    /// The cell of stratum `c` and group `g`, opened at the end of the
    /// order on its first touch.
    fn get(&mut self, c: u32, g: u32) -> &mut CellAcc {
        let Cells { order, first, more } = self;
        let open = |order: &mut Vec<_>| {
            order.push(((c, g), CellAcc::default()));
            (order.len() - 1) as u32
        };
        let first = &mut first[c as usize];
        let i = if *first == UNTOUCHED {
            *first = open(order);
            *first
        } else if order[*first as usize].0 .1 == g {
            *first
        } else {
            *more.entry((c, g)).or_insert_with(|| open(order))
        };
        &mut order[i as usize].1
    }
}

/// What the confidence pass accumulates for one `AVG` aggregate.
struct AvgAcc<'a> {
    agg_index: usize,
    value: BoundExpr<'a>,
    /// Folded in row order; [`AvgAcc::finish`] sums them in first-touch
    /// order.
    cells: Cells,
    /// Per group, for the point estimate: Σw, Σw·y and the rows.
    totals: Vec<(f64, f64, u64)>,
}

impl AvgAcc<'_> {
    /// Point estimates and linearized standard errors, sorted by group key;
    /// `key(g)` is group `g`'s key.
    fn finish(
        self,
        sample: &MaterializedSample,
        key: impl Fn(usize) -> Vec<KeyAtom>,
    ) -> Vec<AvgEstimate> {
        let num_groups = self.totals.len();
        let estimates: Vec<f64> =
            self.totals.iter().map(|&(w, wy, _)| if w > 0.0 { wy / w } else { f64::NAN }).collect();

        // Variance: Σ_c n_c(n_c−s_c)/s_c · S²_{z,c} / N̂_d², each cell's
        // term added to its group's sum in cell order.
        let mut variance = vec![0.0f64; num_groups];
        for &((c, g), acc) in &self.cells.order {
            let stratum = &sample.strata[c as usize];
            let n_c = stratum.population as f64;
            let s_c = stratum.sampled as f64;
            if s_c < 2.0 || s_c >= n_c {
                continue; // fully sampled strata contribute no sampling error
            }
            let y_d = estimates[g as usize];
            // Σz and Σz² over all s_c rows (zeros outside the domain).
            let zsum = acc.sum - acc.m as f64 * y_d;
            let z2sum = acc.sum2 - 2.0 * y_d * acc.sum + acc.m as f64 * y_d * y_d;
            let mean_z = zsum / s_c;
            let s2_z = (z2sum - s_c * mean_z * mean_z).max(0.0) / (s_c - 1.0);
            variance[g as usize] += n_c * (n_c - s_c) / s_c * s2_z;
        }

        let mut out = Vec::with_capacity(num_groups);
        for (g, &(n_hat, _, rows)) in self.totals.iter().enumerate() {
            if rows == 0 {
                continue;
            }
            let std_error = if n_hat > 0.0 { (variance[g] / (n_hat * n_hat)).sqrt() } else { 0.0 };
            let estimate = estimates[g];
            out.push(AvgEstimate {
                key: key(g),
                estimate,
                std_error,
                cv: if estimate != 0.0 { std_error / estimate.abs() } else { f64::INFINITY },
                sampled_rows: rows,
            });
        }
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }
}

impl SampleScan<'_> {
    /// The confidence pass: per-group standard errors for every `AVG`
    /// aggregate of the scanned query, in **one** sequential walk of the
    /// packed keys over the rows the predicate keeps, in row order — the
    /// kept walk the weighted pass takes. A row's group is its walk slot,
    /// its key's first-occurrence id over the kept rows; the cells open in
    /// the order the aggregate's contributing rows first touch them, which
    /// fixes every float sum over them. Cube queries and non-stratified
    /// samples get none (the stratified domain estimator does not cover
    /// them); a failure on an eligible aggregate propagates rather than
    /// silently dropping the intervals.
    pub(crate) fn confidence(&self) -> Result<Vec<AggConfidence>> {
        let sample = self.sample;
        if self.query.cube || !sample.is_stratified() {
            return Ok(Vec::new());
        }
        let mut avgs = Vec::new();
        for (agg_index, agg) in self.query.aggregates.iter().enumerate() {
            if let (AggKind::Avg, Some(input)) = (agg.kind, &agg.input) {
                avgs.push(AvgAcc {
                    agg_index,
                    value: input.bind(&sample.table)?,
                    cells: Cells::new(sample.strata.len()),
                    totals: Vec::new(),
                });
            }
        }
        if avgs.is_empty() {
            return Ok(Vec::new());
        }
        // The sample is one table: a run's shard-local rows are global rows.
        // Each aggregate folds its own cells, so taking the aggregates one
        // at a time over a run, each over its block of values, folds every
        // cell in row order as a row-major walk does.
        let all = RowRange { start: 0, end: sample.len() };
        let mut scratch: Vec<BlockScratch> = avgs.iter().map(|acc| acc.value.scratch()).collect();
        let groups = self.keys.walk(&self.rows, all, self.filter.as_deref(), |run, slots, seen| {
            let start = run.local.start;
            for (acc, scratch) in avgs.iter_mut().zip(&mut scratch) {
                let AvgAcc { value, cells, totals, .. } = acc;
                totals.resize(seen, (0.0, 0.0, 0));
                let block = value.block(run.local, scratch);
                let mut visit = |row: usize| {
                    let Some(y) = block.get(row - start) else { return };
                    let (g, c, w) =
                        (slots[row - start], sample.row_stratum[row], sample.weights[row]);
                    let totals = &mut totals[g as usize];
                    totals.0 += w;
                    totals.1 += w * y;
                    totals.2 += 1;
                    let cell = cells.get(c, g);
                    cell.m += 1;
                    cell.sum += y;
                    cell.sum2 += y * y;
                };
                match &self.filter {
                    Some(bitmaps) => {
                        bitmaps[0].iter_ones_in(start, run.local.end).for_each(&mut visit)
                    }
                    None => run.local.rows().for_each(&mut visit),
                }
            }
        });
        let key = |g: usize| self.keys.decode(groups.keys()[g]).into_owned();
        let confidence = avgs.into_iter().map(|acc| AggConfidence {
            agg_index: acc.agg_index,
            estimates: acc.finish(sample, key),
        });
        Ok(confidence.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::CvOptSampler;
    use crate::spec::{QuerySpec, SamplingProblem};
    use cvopt_table::{CmpOp, DataType, Table, TableBuilder, Value};

    fn table() -> Table {
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        // Deterministic pseudo-noise values per group.
        let mut k = 1u64;
        for (name, count, mean, spread) in
            [("a", 4000usize, 50.0, 20.0), ("b", 800, 200.0, 5.0), ("c", 60, 10.0, 3.0)]
        {
            for _ in 0..count {
                k = k.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = ((k >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
                b.push_row(&[Value::str(name), Value::Float64(mean + u * 2.0 * spread)]).unwrap();
            }
        }
        b.finish()
    }

    fn sample(t: &Table, budget: usize, seed: u64) -> MaterializedSample {
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), budget);
        CvOptSampler::new(problem).with_seed(seed).sample(t).unwrap().sample
    }

    #[test]
    fn estimates_match_plain_estimator() {
        let t = table();
        let s = sample(&t, 400, 1);
        let with_err =
            estimate_avg_with_error(&s, &[ScalarExpr::col("g")], &ScalarExpr::col("x"), None)
                .unwrap();
        let query = cvopt_table::GroupByQuery::new(
            vec![ScalarExpr::col("g")],
            vec![cvopt_table::AggExpr::avg("x")],
        );
        let plain = crate::estimate::estimate_single(&s, &query).unwrap();
        assert_eq!(with_err.len(), plain.num_groups());
        for e in &with_err {
            let p = plain.value(&e.key, 0).unwrap();
            assert!((e.estimate - p).abs() < 1e-9, "{:?}: {} vs {}", e.key, e.estimate, p);
            assert!(e.std_error >= 0.0);
        }
    }

    /// A sample stratified by `(g, h)` answering a query grouped by `g`
    /// alone, under a predicate that drops each group's first-occurring
    /// rows: the groups' first occurrence over the kept rows is another
    /// order than over all rows, and the intervals must still name, count
    /// and center every group as the estimate does, with the standard error
    /// of a naive per-stratum reference.
    #[test]
    fn predicate_and_coarser_grouping_match_naive_reference() {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("h", DataType::Str),
            ("x", DataType::Float64),
        ]);
        // The first rows fix the strata's order; each group's first
        // stratum has h = "p".
        let lead = [("a", "p"), ("b", "p"), ("b", "q"), ("a", "q"), ("c", "p"), ("c", "q")];
        let mut k = 7u64;
        for i in 0..3000usize {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (g, h) = lead[if i < lead.len() { i } else { (k >> 40) as usize % lead.len() }];
            let u = (k >> 33) as f64 / (1u64 << 31) as f64;
            let mean = if h == "p" { 20.0 } else { 60.0 } + (g.as_bytes()[0] - b'a') as f64 * 15.0;
            b.push_row(&[Value::str(g), Value::str(h), Value::Float64(mean + u * 30.0)]).unwrap();
        }
        let t = b.finish();
        let spec = QuerySpec::group_by(&["g", "h"]).aggregate("x");
        let s = CvOptSampler::new(SamplingProblem::single(spec, 300))
            .with_seed(5)
            .sample(&t)
            .unwrap()
            .sample;
        let pred = Predicate::cmp("h", CmpOp::Ne, "p");
        let kept = pred.bind(&s.table).unwrap();
        let g = ScalarExpr::col("g").bind(&s.table).unwrap();
        let group = |row: usize| match g.value_at(row) {
            Value::Str(s) => vec![KeyAtom::Str(s)],
            other => panic!("{other:?}"),
        };
        let first_seen = |rows: &mut dyn Iterator<Item = usize>| {
            let mut order: Vec<Vec<KeyAtom>> = Vec::new();
            for key in rows.map(group) {
                if !order.contains(&key) {
                    order.push(key);
                }
            }
            order
        };
        let over_kept = first_seen(&mut (0..s.len()).filter(|&r| kept.matches(r)));
        assert_ne!(first_seen(&mut (0..s.len())), over_kept, "the predicate reorders groups");

        let ests = estimate_avg_with_error(
            &s,
            &[ScalarExpr::col("g")],
            &ScalarExpr::col("x"),
            Some(&pred),
        )
        .unwrap();
        let query = GroupByQuery::new(vec![ScalarExpr::col("g")], vec![AggExpr::avg("x")])
            .with_predicate(pred.clone());
        let plain = crate::estimate::estimate_single(&s, &query).unwrap();
        let keys: Vec<&Vec<KeyAtom>> = ests.iter().map(|e| &e.key).collect();
        assert_eq!(keys, plain.keys.iter().collect::<Vec<_>>());
        let x = ScalarExpr::col("x").bind(&s.table).unwrap();
        for (e, (&rows, values)) in ests.iter().zip(plain.group_rows.iter().zip(&plain.values)) {
            assert_eq!(e.sampled_rows, rows, "{:?}", e.key);
            assert!((e.estimate - values[0]).abs() <= 1e-12 * values[0].abs(), "{:?}", e.key);
            // Cochran's domain estimator, term by term.
            let in_domain = |r: usize| kept.matches(r) && group(r) == e.key;
            let domain: Vec<usize> = (0..s.len()).filter(|&r| in_domain(r)).collect();
            let n_hat: f64 = domain.iter().map(|&r| s.weights[r]).sum();
            let y_hat =
                domain.iter().map(|&r| s.weights[r] * x.f64_at(r).unwrap()).sum::<f64>() / n_hat;
            let mut variance = 0.0;
            for (c, stratum) in s.strata.iter().enumerate() {
                let (n_c, s_c) = (stratum.population as f64, stratum.sampled as f64);
                if s_c < 2.0 || s_c >= n_c {
                    continue;
                }
                let rows = (0..s.len()).filter(|&r| s.row_stratum[r] == c as u32);
                let z: Vec<f64> = rows
                    .map(|r| if in_domain(r) { x.f64_at(r).unwrap() - y_hat } else { 0.0 })
                    .collect();
                let mean = z.iter().sum::<f64>() / s_c;
                let s2 = z.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (s_c - 1.0);
                variance += n_c * (n_c - s_c) / s_c * s2;
            }
            let want = variance.sqrt() / n_hat;
            assert!(want > 0.0, "{:?}", e.key);
            assert!(
                (e.std_error - want).abs() <= 1e-12 * want,
                "{:?}: {} vs {want}",
                e.key,
                e.std_error
            );
        }
    }

    /// Five groups `g` × eight values of `h`, stratified by `(g, h)` below;
    /// `k` takes three values independently of both, and `z` is uniform on
    /// [0, 1). The strata's means and spreads differ, so a group's
    /// per-stratum terms differ in size and the order they are added in
    /// shows in the last bits.
    fn layered_table() -> Table {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("h", DataType::Str),
            ("k", DataType::Str),
            ("x", DataType::Float64),
            ("z", DataType::Float64),
        ]);
        let mut k = 11u64;
        let mut next = || {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            k >> 33
        };
        for _ in 0..6000 {
            let (gi, hi, ki) = (next() % 5, next() % 8, next() % 3);
            let u = next() as f64 / (1u64 << 31) as f64;
            let x = 10.0 + 7.0 * gi as f64 + 13.0 * hi as f64 + u * 3.0 * (1 + hi) as f64;
            let z = next() as f64 / (1u64 << 31) as f64;
            let (g, h, k) = (format!("g{gi}"), format!("h{hi}"), format!("k{ki}"));
            let row = [Value::str(&g), Value::str(&h), Value::str(&k), x.into(), z.into()];
            b.push_row(&row).unwrap();
        }
        b.finish()
    }

    /// One group of [`naive_intervals`]: its rows, estimate and standard
    /// error with the per-stratum terms added in first-touch order and in
    /// ascending stratum order, and the strata in first-touch order.
    struct NaiveGroup {
        key: Vec<KeyAtom>,
        rows: u64,
        estimate: f64,
        first_touch: f64,
        ascending: f64,
        strata: Vec<u32>,
    }

    /// Cochran's domain estimator of `AVG(value)` per group of `group`, one
    /// group at a time over the kept rows in row order, sorted by key.
    fn naive_intervals(
        s: &MaterializedSample,
        group: &ScalarExpr,
        value: &ScalarExpr,
        predicate: Option<&Predicate>,
    ) -> Vec<NaiveGroup> {
        let group = group.bind(&s.table).unwrap();
        let value = value.bind(&s.table).unwrap();
        let kept = predicate.map(|p| p.bind(&s.table).unwrap());
        let key_of = |r: usize| match group.value_at(r) {
            Value::Str(s) => vec![KeyAtom::Str(s)],
            other => panic!("{other:?}"),
        };
        let mut keys: Vec<Vec<KeyAtom>> = Vec::new();
        for key in (0..s.len()).map(key_of) {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys.sort();
        let mut out = Vec::new();
        for key in keys {
            let (mut w, mut wy, mut rows) = (0.0f64, 0.0f64, 0u64);
            // (stratum, m, Σy, Σy²) in first-touch order.
            let mut cells: Vec<(u32, u64, f64, f64)> = Vec::new();
            for r in 0..s.len() {
                if key_of(r) != key || !kept.as_ref().is_none_or(|p| p.matches(r)) {
                    continue;
                }
                let Some(y) = value.f64_at(r) else { continue };
                w += s.weights[r];
                wy += s.weights[r] * y;
                rows += 1;
                let c = s.row_stratum[r];
                let at = match cells.iter().position(|cell| cell.0 == c) {
                    Some(at) => at,
                    None => {
                        cells.push((c, 0, 0.0, 0.0));
                        cells.len() - 1
                    }
                };
                cells[at].1 += 1;
                cells[at].2 += y;
                cells[at].3 += y * y;
            }
            if rows == 0 {
                continue;
            }
            let estimate = wy / w;
            let term = |&(c, m, sum, sum2): &(u32, u64, f64, f64)| {
                let stratum = &s.strata[c as usize];
                let (n_c, s_c) = (stratum.population as f64, stratum.sampled as f64);
                if s_c < 2.0 || s_c >= n_c {
                    return None;
                }
                let zsum = sum - m as f64 * estimate;
                let z2sum = sum2 - 2.0 * estimate * sum + m as f64 * estimate * estimate;
                let mean_z = zsum / s_c;
                let s2_z = (z2sum - s_c * mean_z * mean_z).max(0.0) / (s_c - 1.0);
                Some(n_c * (n_c - s_c) / s_c * s2_z)
            };
            let std_error = |cells: &[(u32, u64, f64, f64)]| {
                let variance = cells.iter().filter_map(term).fold(0.0, |acc, t| acc + t);
                if w > 0.0 {
                    (variance / (w * w)).sqrt()
                } else {
                    0.0
                }
            };
            let first_touch = std_error(&cells);
            let strata = cells.iter().map(|cell| cell.0).collect();
            cells.sort_by_key(|cell| cell.0);
            let ascending = std_error(&cells);
            out.push(NaiveGroup { key, rows, estimate, first_touch, ascending, strata });
        }
        out
    }

    /// The intervals of a group spanning several strata (grouped by `g`), of
    /// strata meeting several groups (grouped by `k`, outside the
    /// stratification) and of an `AVG` whose input has no value on some
    /// kept rows, under predicates keeping none, some and all rows, at 1 and
    /// 4 threads: every standard error is the naive reference's with the
    /// per-stratum terms added in first-touch order, bit for bit, and within
    /// 1e-12 of the sum in ascending stratum order.
    #[test]
    fn standard_errors_sum_the_strata_in_first_touch_order() {
        use cvopt_table::expr::CaseWhen;
        let t = layered_table();
        let spec = QuerySpec::group_by(&["g", "h"]).aggregate("x");
        let s = CvOptSampler::new(SamplingProblem::single(spec, 600))
            .with_seed(9)
            .sample(&t)
            .unwrap()
            .sample;
        let x = ScalarExpr::col("x");
        // `x` where `z > 0.3`, no value elsewhere.
        let sparse = ScalarExpr::Case {
            whens: vec![CaseWhen {
                lhs: ScalarExpr::col("z"),
                op: CmpOp::Gt,
                rhs: ScalarExpr::lit(0.3),
                then: x.clone(),
            }],
            otherwise: None,
        };
        let predicates = [
            None,
            Some(Predicate::cmp("x", CmpOp::Lt, 0.0)),
            Some(Predicate::cmp("x", CmpOp::Gt, 60.0)),
            Some(Predicate::cmp("x", CmpOp::Gt, -1.0)),
        ];
        let (mut spanning, mut shared, mut reordered) = (false, false, false);
        for group in [ScalarExpr::col("g"), ScalarExpr::col("k")] {
            for predicate in &predicates {
                let mut query = GroupByQuery::new(
                    vec![group.clone()],
                    vec![
                        AggExpr::over(AggKind::Avg, x.clone()),
                        AggExpr::over(AggKind::Avg, sparse.clone()),
                    ],
                );
                query.predicate = predicate.clone();
                let naive: Vec<Vec<NaiveGroup>> = [&x, &sparse]
                    .map(|value| naive_intervals(&s, &group, value, predicate.as_ref()))
                    .into();
                let touched = |i: usize| naive[i].iter().map(|n| &n.strata).collect::<Vec<_>>();
                reordered |= touched(0) != touched(1);
                let mut strata_groups = vec![0usize; s.strata.len()];
                for n in &naive[0] {
                    spanning |= n.strata.len() > 1;
                    n.strata.iter().for_each(|&c| strata_groups[c as usize] += 1);
                }
                shared |= strata_groups.iter().any(|&groups| groups > 1);
                for threads in [1, 4] {
                    let options = ExecOptions::new(threads);
                    let got = SampleScan::new(&s, &query, &options).unwrap().confidence().unwrap();
                    assert_eq!(got.len(), 2);
                    for (agg, naive) in got.iter().zip(&naive) {
                        let at = format!(
                            "{group} {predicate:?} agg {} threads {threads}",
                            agg.agg_index
                        );
                        assert_eq!(agg.estimates.len(), naive.len(), "{at}");
                        for (e, n) in agg.estimates.iter().zip(naive) {
                            assert_eq!((&e.key, e.sampled_rows), (&n.key, n.rows), "{at}");
                            assert_eq!(
                                e.estimate.to_bits(),
                                n.estimate.to_bits(),
                                "{at} {:?}",
                                e.key
                            );
                            assert_eq!(
                                e.std_error.to_bits(),
                                n.first_touch.to_bits(),
                                "{at} {:?}: {} vs {}",
                                e.key,
                                e.std_error,
                                n.first_touch
                            );
                            assert!(
                                (e.std_error - n.ascending).abs() <= 1e-12 * n.ascending,
                                "{at} {:?}",
                                e.key
                            );
                        }
                    }
                }
            }
        }
        assert!(spanning, "some group spans several strata");
        assert!(shared, "some stratum meets several groups");
        assert!(reordered, "the two aggregates touch strata in different orders");
    }

    #[test]
    fn fully_sampled_stratum_has_zero_error() {
        let t = table();
        // Budget large enough that group c (60 rows) is fully sampled.
        let s = sample(&t, 2000, 2);
        let ests =
            estimate_avg_with_error(&s, &[ScalarExpr::col("g")], &ScalarExpr::col("x"), None)
                .unwrap();
        let c = ests.iter().find(|e| e.key[0].to_string() == "c").unwrap();
        if c.sampled_rows == 60 {
            assert_eq!(c.std_error, 0.0, "exhaustive stratum must have zero variance");
        }
    }

    #[test]
    fn ci_covers_truth_most_of_the_time() {
        let t = table();
        let truth_query = cvopt_table::GroupByQuery::new(
            vec![ScalarExpr::col("g")],
            vec![cvopt_table::AggExpr::avg("x")],
        );
        let truth = &truth_query.execute(&t).unwrap()[0];
        let runs = 400;
        let mut covered = 0u32;
        let mut total = 0u32;
        for seed in 0..runs {
            let s = sample(&t, 300, seed);
            let ests =
                estimate_avg_with_error(&s, &[ScalarExpr::col("g")], &ScalarExpr::col("x"), None)
                    .unwrap();
            for e in &ests {
                if e.std_error == 0.0 {
                    continue;
                }
                let (lo, hi) = e.ci95();
                let tv = truth.value(&e.key, 0).unwrap();
                total += 1;
                if tv >= lo && tv <= hi {
                    covered += 1;
                }
            }
        }
        let coverage = covered as f64 / total as f64;
        // Nominal 95%; the slack is for the normal approximation at small s.
        assert!(coverage >= 0.90, "coverage {coverage} over {total} intervals");
    }

    #[test]
    fn predicate_at_estimation_time() {
        let t = table();
        let s = sample(&t, 800, 3);
        let pred = Predicate::cmp("x", CmpOp::Gt, 0.0);
        let ests = estimate_avg_with_error(
            &s,
            &[ScalarExpr::col("g")],
            &ScalarExpr::col("x"),
            Some(&pred),
        )
        .unwrap();
        assert!(!ests.is_empty());
        for e in &ests {
            assert!(e.estimate.is_finite());
            assert!(e.cv.is_finite());
        }
    }

    #[test]
    fn rejects_unstratified_samples() {
        let t = table();
        let rows: Vec<u32> = (0..100).collect();
        let weights = vec![(t.num_rows() as f64) / 100.0; 100];
        let uniform = MaterializedSample::from_rows(&t, rows, weights);
        let err =
            estimate_avg_with_error(&uniform, &[ScalarExpr::col("g")], &ScalarExpr::col("x"), None)
                .unwrap_err();
        assert!(err.to_string().contains("stratified"));
    }

    #[test]
    fn interval_helpers() {
        let e = AvgEstimate {
            key: vec![KeyAtom::from("a")],
            estimate: 10.0,
            std_error: 1.0,
            cv: 0.1,
            sampled_rows: 5,
        };
        let (lo, hi) = e.ci95();
        assert!((lo - 8.04).abs() < 1e-9);
        assert!((hi - 11.96).abs() < 1e-9);
        let (lo90, hi90) = e.interval(1.645);
        assert!(lo90 > lo && hi90 < hi);
    }
}
