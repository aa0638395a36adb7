//! Incremental sample maintenance for ingesting tables.
//!
//! A [`Maintenance`] keeps, for one prepared sample in the engine's store, the
//! three artifacts the two-pass pipeline derives from the raw rows: the
//! finest-stratification [`GroupIndex`], every stratum's ascending row list
//! (what the draw reads), and the per-partition statistics partials (each
//! partition's slot states and the stratum of each slot). They come from one
//! strata pass over the index's ids — the row lists are its chains, the
//! partials its fold — and all are *mergeable under append*, at a cost of
//! the batch, through contracts the codebase already pins:
//!
//! - The group index merges by first-occurrence key order
//!   ([`GroupIndex::append`], the same ordered merge that joins partitions
//!   and shards): folding a batch-local index into the maintained one, in
//!   place, yields exactly the index a fresh build over the extended table
//!   would produce — old strata keep their ids, new strata take the next
//!   ids.
//! - A stratum's row list is its rows in ascending row order, and appended
//!   rows have the highest ids: pushing each batch row onto its stratum's
//!   list yields exactly the chain a fresh strata pass over the folded index
//!   would hold — without touching the rows already there. The lists cost
//!   4 bytes per table row per maintained sample.
//! - Statistics partials are whole **global** partitions (fixed 64Ki-row
//!   ranges anchored to the logical row space), so appending rows dirties
//!   only the partitions at or past `old_rows / CHUNK_ROWS`. Clean partials
//!   are replayed from the cache — old strata keep their ids, so a clean
//!   partial names the same strata it did — and the dirty tail is rescanned
//!   with the same partition kernel, keyed by the maintained index's ids
//!   ([`GroupIndex::partition_runs`]).
//!
//! Allocation then re-runs through the *same* code path a fresh preparation
//! uses, and the draw through the same per-stratum kernel
//! ([`StratifiedSample::draw_bucketed`]), over bit-identical inputs; the
//! reservoirs jump over the rows they do not keep and the gather copies
//! only the rows drawn, so what an append costs beyond the batch is the
//! sample, never the table. The upshot is the maintenance contract the
//! ingest CI pins:
//!
//! > After any sequence of appends, a maintained sample is **byte-identical
//! > to re-preparing from scratch** over the extended table — independent
//! > of how the row stream was split into batches, of thread count, and of
//! > shard layout — while only the appended tail of the table is ever
//! > rescanned.
//!
//! A maintained sample also keeps its sampling **rate** rather than its
//! absolute row budget: on append (or rotation) the problem's budget is
//! rescaled from the creation-time `(budget, rows)` pair to the current row
//! count, so the sample keeps matching the row-count-derived budgets the
//! engine's query planner produces. The rescaled budget is a pure function
//! of the creation state and the *current* row count — never of the batch
//! history — which keeps replayed ingest logs byte-identical for any batch
//! split.
//!
//! This is the only incremental path there is.

use cvopt_table::exec::{ExecOptions, CHUNK_ROWS};
use cvopt_table::{GroupIndex, RowSpace, ScalarExpr, Table};

use crate::error::CvError;
use crate::framework::{note_draw, CvOptOutcome, CvOptSampler};
use crate::sample::StratifiedSample;
use crate::spec::SamplingProblem;
use crate::stats::{self, Partial, StratumStatistics};
use crate::Result;

/// The state that keeps one durable prepared sample incrementally up to
/// date under append (see the module docs for the maintenance contract).
/// The sample's problem and outcome live on its store entry; every method
/// here takes the problem and returns the outcome that now answers it.
#[derive(Debug)]
pub(crate) struct Maintenance {
    /// Budget and row count at creation: the pinned sampling rate.
    base_budget: usize,
    base_rows: usize,
    strata_exprs: Vec<ScalarExpr>,
    /// Maintained finest-stratification index over the current rows.
    index: GroupIndex,
    /// `strata_rows[c]`: stratum `c`'s rows of `index`, ascending.
    strata_rows: Vec<Vec<u32>>,
    /// Cached per-partition statistics partials over the current rows.
    partials: Vec<Partial>,
}

impl Maintenance {
    /// Prepare `problem` over `rows` and capture the maintenance state.
    /// The outcome is bit-identical to [`CvOptSampler::sample`] with the
    /// same seed and options; this counts as one statistics pass and one
    /// draw, exactly like the fresh path.
    pub(crate) fn build(
        problem: &SamplingProblem,
        rows: &RowSpace<'_>,
        seed: u64,
        exec: &ExecOptions,
    ) -> Result<(Maintenance, CvOptOutcome)> {
        problem.validate()?;
        let strata_exprs = problem.finest_stratification();
        let index = rows.group_index(&strata_exprs, exec)?;
        let (strata, partials) = stats::partials(rows, &index, &problem.aggregate_columns(), exec)?;
        let strata_rows = (0..strata.num_strata())
            .map(|c| {
                let mut rows = Vec::with_capacity(strata.sizes()[c] as usize);
                strata.rows(c).for_each(|run| rows.extend_from_slice(run));
                rows
            })
            .collect();
        let state = Maintenance {
            base_budget: problem.budget,
            base_rows: rows.num_rows(),
            strata_exprs,
            index,
            strata_rows,
            partials,
        };
        let outcome = state.outcome(problem, rows, seed, exec)?;
        Ok((state, outcome))
    }

    /// Allocate and draw from the maintained index, row lists and partials,
    /// through the exact kernels a fresh [`CvOptSampler::sample`] runs.
    fn outcome(
        &self,
        problem: &SamplingProblem,
        rows: &RowSpace<'_>,
        seed: u64,
        exec: &ExecOptions,
    ) -> Result<CvOptOutcome> {
        let stats = StratumStatistics::from_partials(
            &self.index,
            &problem.aggregate_columns(),
            &self.partials,
        );
        let sampler = CvOptSampler::new(problem.clone()).with_seed(seed).with_exec(*exec);
        let index = &self.index;
        let keys = (0..index.num_groups() as u32).map(|g| index.key(g).to_vec()).collect();
        let plan =
            sampler.allocate(self.strata_exprs.clone(), keys, |d| index.project(d), stats)?;
        note_draw();
        let sample = StratifiedSample::draw_bucketed(
            &plan.strata_keys,
            index.sizes(),
            |c| std::iter::once(self.strata_rows[c].as_slice()),
            &plan.allocation.sizes,
            seed,
            exec,
        )
        .materialize_from(rows)?;
        Ok(CvOptOutcome { sample, plan })
    }

    /// The creation-time rate projected onto `rows` table rows: a pure
    /// function of `(base_budget, base_rows, rows)`, so replayed ingest
    /// logs rescale identically for any batch split.
    fn scaled_budget(&self, rows: usize) -> usize {
        if self.base_rows == 0 {
            return self.base_budget.max(1);
        }
        let scaled = rows as f64 * self.base_budget as f64 / self.base_rows as f64;
        (scaled.round() as usize).max(1)
    }

    /// Fold an appended batch into the maintained state. `rows` is the
    /// **already-extended** table whose last `batch.num_rows()` rows are
    /// the batch. Only the dirty partition tail is rescanned; no
    /// statistics pass is recorded. `problem`'s budget rescales to the new
    /// row count, and the returned outcome equals a fresh preparation of
    /// it over `rows`.
    pub(crate) fn apply_append(
        &mut self,
        problem: &mut SamplingProblem,
        rows: &RowSpace<'_>,
        batch: &Table,
        seed: u64,
        exec: &ExecOptions,
    ) -> Result<CvOptOutcome> {
        let old_rows = self.index.num_rows();
        let new_rows = rows.num_rows();
        if old_rows + batch.num_rows() != new_rows {
            return Err(CvError::invalid(format!(
                "maintained sample covers {old_rows} rows + batch of {} != table of {new_rows}",
                batch.num_rows()
            )));
        }

        // Batch-local index, folded in row order into the maintained one:
        // identical to rebuilding over the extended table.
        self.index.append(&GroupIndex::build_with(batch, &self.strata_exprs, exec)?)?;
        self.strata_rows.resize(self.index.num_groups(), Vec::new());
        for (row, &stratum) in self.index.row_groups().iter().enumerate().skip(old_rows) {
            self.strata_rows[stratum as usize].push(row as u32);
        }

        // Replay clean partials, rescan the dirty tail. Partition
        // boundaries are anchored to the global row space, so every
        // partition strictly before `old_rows / CHUNK_ROWS` is untouched
        // by the append.
        let columns = problem.aggregate_columns();
        let first_dirty = old_rows / CHUNK_ROWS;
        let tail = stats::tail_partials(rows, &self.index, &columns, exec, first_dirty)?;
        self.partials.truncate(first_dirty);
        self.partials.extend(tail);

        problem.budget = self.scaled_budget(new_rows);
        self.outcome(problem, rows, seed, exec)
    }

    /// Rebuild from scratch over `rows` (after a retention rotation,
    /// whose row drops invalidate cached partials wholesale). Costs a full
    /// statistics pass; `problem`'s budget rescales to the surviving row
    /// count at the pinned rate.
    pub(crate) fn rebuild(
        &mut self,
        problem: &mut SamplingProblem,
        rows: &RowSpace<'_>,
        seed: u64,
        exec: &ExecOptions,
    ) -> Result<CvOptOutcome> {
        problem.budget = self.scaled_budget(rows.num_rows());
        let (fresh, outcome) = Maintenance::build(problem, rows, seed, exec)?;
        self.strata_exprs = fresh.strata_exprs;
        self.index = fresh.index;
        self.strata_rows = fresh.strata_rows;
        self.partials = fresh.partials;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::QuerySpec;
    use cvopt_table::{DataType, ShardSet, ShardedTable, TableBuilder, Value};

    fn row_stream(n: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                vec![
                    Value::str(["a", "b", "c", "d"][i % 4]),
                    Value::Float64(((i as f64) * 0.61).sin() * 50.0 + (i % 13) as f64),
                    Value::Int64(i as i64),
                ]
            })
            .collect()
    }

    fn schema() -> Vec<(&'static str, DataType)> {
        vec![("g", DataType::Str), ("x", DataType::Float64), ("ts", DataType::Int64)]
    }

    fn table_of(rows: &[Vec<Value>]) -> Table {
        let mut b = TableBuilder::new(&schema());
        for row in rows {
            b.push_row(row).unwrap();
        }
        b.finish()
    }

    fn problem(budget: usize) -> SamplingProblem {
        SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), budget)
    }

    fn assert_outcomes_equal(a: &CvOptOutcome, b: &CvOptOutcome, what: &str) {
        assert_eq!(a.sample.origin, b.sample.origin, "{what}: origin rows");
        assert_eq!(a.sample.row_stratum, b.sample.row_stratum, "{what}: strata");
        let wa: Vec<u64> = a.sample.weights.iter().map(|w| w.to_bits()).collect();
        let wb: Vec<u64> = b.sample.weights.iter().map(|w| w.to_bits()).collect();
        assert_eq!(wa, wb, "{what}: weights");
        assert_eq!(a.plan.allocation.sizes, b.plan.allocation.sizes, "{what}: allocation");
        for (sa, sb) in a.plan.stats.states.iter().zip(&b.plan.stats.states) {
            for (ca, cb) in sa.iter().zip(sb) {
                assert_eq!(ca.mean.to_bits(), cb.mean.to_bits(), "{what}: stats mean");
                assert_eq!(ca.m2.to_bits(), cb.m2.to_bits(), "{what}: stats m2");
            }
        }
    }

    /// A sample under maintenance the way the store holds it: the problem
    /// and the outcome beside the state.
    struct Maintained {
        problem: SamplingProblem,
        state: Maintenance,
        outcome: CvOptOutcome,
        seed: u64,
        exec: ExecOptions,
    }

    impl Maintained {
        fn build(budget: usize, rows: &RowSpace<'_>, seed: u64, exec: ExecOptions) -> Self {
            let problem = problem(budget);
            let (state, outcome) = Maintenance::build(&problem, rows, seed, &exec).unwrap();
            Maintained { problem, state, outcome, seed, exec }
        }

        fn append(&mut self, rows: &RowSpace<'_>, batch: &Table) {
            self.outcome = self
                .state
                .apply_append(&mut self.problem, rows, batch, self.seed, &self.exec)
                .unwrap();
            self.assert_row_lists_current();
        }

        /// The kept row lists are the maintained index, bucketed.
        fn assert_row_lists_current(&self) {
            let index = &self.state.index;
            let mut want = vec![Vec::new(); index.num_groups()];
            for (row, &g) in index.row_groups().iter().enumerate() {
                want[g as usize].push(row as u32);
            }
            assert_eq!(self.state.strata_rows, want);
        }

        /// What a from-scratch preparation of the current problem draws.
        fn fresh<'a>(&self, rows: impl Into<RowSpace<'a>>) -> CvOptOutcome {
            CvOptSampler::new(self.problem.clone())
                .with_seed(self.seed)
                .with_exec(self.exec)
                .sample(rows)
                .unwrap()
        }
    }

    /// Appending in any batch split — an empty batch included — yields the
    /// same maintained outcome as re-preparing from scratch over the final
    /// table.
    #[test]
    fn append_matches_fresh_prepare_for_any_split() {
        let rows = row_stream(3000);
        let base = table_of(&rows[..1000]);
        for splits in [
            vec![1000, 3000],
            vec![1000, 1500, 2200, 3000],
            vec![1000, 1001, 3000],
            vec![1000, 1000, 3000, 3000],
        ] {
            let mut m = Maintained::build(50, &(&base).into(), 11, ExecOptions::new(2));
            let mut current = base.clone();
            for window in splits.windows(2) {
                let batch = table_of(&rows[window[0]..window[1]]);
                current = current.extended(&batch).unwrap();
                m.append(&(&current).into(), &batch);
            }
            assert_outcomes_equal(&m.outcome, &m.fresh(&table_of(&rows)), &format!("{splits:?}"));
            assert_eq!(m.problem.budget, 150, "rate 5% of 3000 rows");
        }
    }

    /// The same holds over a sharded layout, with the batch appended to the
    /// live (last) shard.
    #[test]
    fn sharded_append_matches_fresh_prepare() {
        let rows = row_stream(2400);
        let base = ShardSet::from(ShardedTable::split(&table_of(&rows[..1800]), 3).unwrap());
        let mut m = Maintained::build(90, &base.rows(), 4, ExecOptions::new(3));
        let mut current = base;
        for bounds in [(1800, 2000), (2000, 2400)] {
            let batch = table_of(&rows[bounds.0..bounds.1]);
            current = current.extended(&batch).unwrap();
            m.append(&current.rows(), &batch);
        }
        assert_outcomes_equal(&m.outcome, &m.fresh(&current), "sharded append");
    }

    /// Appends that introduce brand-new strata pad cached partials
    /// correctly: the maintained stats still match a full re-collect.
    #[test]
    fn append_with_new_strata_matches() {
        let base = table_of(&row_stream(500));
        let mut m = Maintained::build(40, &(&base).into(), 7, ExecOptions::sequential());
        // A batch whose group key was never seen before.
        let mut b = TableBuilder::new(&schema());
        for i in 0..200usize {
            b.push_row(&[
                Value::str("zz-new"),
                Value::Float64(1000.0 + i as f64),
                Value::Int64((500 + i) as i64),
            ])
            .unwrap();
        }
        let batch = b.finish();
        let current = base.extended(&batch).unwrap();
        m.append(&(&current).into(), &batch);
        assert_outcomes_equal(&m.outcome, &m.fresh(&current), "new-strata append");
        assert_eq!(m.outcome.plan.num_strata(), 5);
    }

    /// The maintained index itself, batch by batch: folding k batches in
    /// one at a time equals one build over the rows so far — row ids, key
    /// order, sizes — whether a batch brings new strata or none.
    #[test]
    fn folded_index_matches_build_over_concatenation() {
        let rows = row_stream(900);
        let mut current = table_of(&rows[..300]);
        let mut m = Maintained::build(30, &(&current).into(), 3, ExecOptions::new(2));
        let fresh_strata: Vec<Vec<Value>> = ["e", "a", "f", "e"]
            .iter()
            .map(|g| vec![Value::str(g), Value::Float64(1.0), Value::Int64(0)])
            .collect();
        for (batch, new_strata) in [
            (table_of(&rows[300..600]), 0),
            (table_of(&fresh_strata), 2),
            (table_of(&rows[600..900]), 0),
        ] {
            let before = m.state.index.num_groups();
            current = current.extended(&batch).unwrap();
            m.append(&(&current).into(), &batch);
            let built =
                GroupIndex::build_with(&current, &m.state.strata_exprs, &ExecOptions::sequential())
                    .unwrap();
            assert_eq!(m.state.index.num_groups(), before + new_strata);
            assert_eq!(m.state.index.row_groups(), built.row_groups());
            assert_eq!(m.state.index.sizes(), built.sizes());
            for g in 0..built.num_groups() as u32 {
                assert_eq!(m.state.index.key(g), built.key(g));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// **Batch-boundary invariance**: any partition of the same row
        /// stream into ingest batches yields a bit-identical maintained
        /// sample — the one a fresh preparation over the final table
        /// produces.
        #[test]
        fn maintenance_is_batch_boundary_invariant(
            cuts in proptest::collection::vec(1usize..1400, 0..6),
            seed in 0u64..32,
        ) {
            let rows = row_stream(2000);
            let base = table_of(&rows[..600]);
            let mut bounds: Vec<usize> = cuts.iter().map(|c| 600 + c).collect();
            bounds.push(600);
            bounds.push(2000);
            bounds.sort_unstable();
            bounds.dedup();
            let mut m = Maintained::build(30, &(&base).into(), seed, ExecOptions::new(2));
            let mut current = base;
            for window in bounds.windows(2) {
                let batch = table_of(&rows[window[0]..window[1]]);
                current = current.extended(&batch).unwrap();
                m.append(&(&current).into(), &batch);
            }
            let fresh = m.fresh(&current);
            proptest::prop_assert_eq!(&m.outcome.sample.origin, &fresh.sample.origin);
            let wa: Vec<u64> = m.outcome.sample.weights.iter().map(|w| w.to_bits()).collect();
            let wb: Vec<u64> = fresh.sample.weights.iter().map(|w| w.to_bits()).collect();
            proptest::prop_assert_eq!(wa, wb);
            proptest::prop_assert_eq!(
                &m.outcome.plan.allocation.sizes,
                &fresh.plan.allocation.sizes
            );
            proptest::prop_assert_eq!(m.problem.budget, 100, "5% of 2000 rows");
        }
    }

    /// Rebuild (post-rotation) rescales the budget from the pinned rate.
    #[test]
    fn rebuild_rescales_budget() {
        let rows = row_stream(1000);
        let mut m =
            Maintained::build(100, &(&table_of(&rows)).into(), 1, ExecOptions::sequential());
        let kept = table_of(&rows[600..]);
        m.outcome = m.state.rebuild(&mut m.problem, &(&kept).into(), m.seed, &m.exec).unwrap();
        assert_eq!(m.problem.budget, 40, "10% of the surviving 400 rows");
        assert_eq!(m.state.index.num_rows(), 400);
        m.assert_row_lists_current();
        assert_outcomes_equal(&m.outcome, &m.fresh(&kept), "rebuild");
    }
}
