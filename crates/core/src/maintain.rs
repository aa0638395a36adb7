//! Incremental sample maintenance for ingesting tables.
//!
//! A [`Maintenance`] keeps, for one prepared sample in the engine's store,
//! the strata pass that prepared it ([`CvOptSampler::sample`]'s, which the
//! cold path drops): the stratum keys, sizes and a key → stratum map, every
//! stratum's ascending row list (its chain of runs, copied), the
//! per-partition statistics partials, and the stratum ids of the rows of the
//! last, not-yet-full partition. All are *mergeable under append*, at a
//! cost of the batch, through contracts the codebase already pins:
//!
//! - Strata merge by first-occurrence key order ([`OrderedMerge`], the
//!   ordered merge that joins partitions and shards): the batch's own index,
//!   translated through the map, gives its rows the ids a fresh pass over
//!   the extended table would — old strata keep theirs, new ones take the
//!   next.
//! - Appended rows have the highest ids, so pushing each onto its stratum's
//!   ascending list yields exactly the chain a fresh pass would hold. The
//!   lists cost 4 bytes per table row per maintained sample, and no other
//!   per-row array is kept.
//! - Statistics partials are whole **global** partitions (fixed 64Ki-row
//!   ranges anchored to the logical row space), so appending rows dirties
//!   only the partitions at or past `old_rows / CHUNK_ROWS`. Clean partials
//!   are replayed — a clean partial names the same strata it did — and the
//!   dirty ones are re-bucketed by the id-keyed partition kernel from the
//!   kept tail ids (at most 64Ki) followed by the batch's.
//!
//! Allocation then re-runs through the *same* code path a fresh preparation
//! uses, and the draw through the same per-stratum kernel
//! (`StratifiedSample::draw_ordinals`), over bit-identical inputs; its
//! ordinals index the maintained row lists, and the gather copies only the
//! rows drawn, so what an append costs beyond the batch is the sample, never
//! the table. The upshot is the maintenance contract the
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
use cvopt_table::groupby::{GroupProjection, OrderedMerge};
use cvopt_table::{GroupIndex, KeyAtom, RowSpace, ScalarExpr, Table};

use crate::error::CvError;
use crate::framework::{note_draw, CvOptOutcome, CvOptSampler};
use crate::sample::StratifiedSample;
use crate::spec::SamplingProblem;
use crate::stats::{self, KeptPass, Partial, StratumStatistics};
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
    /// The strata of the current rows, in first-occurrence order: keys,
    /// sizes, and the map a batch's keys translate through.
    strata: OrderedMerge<Vec<KeyAtom>>,
    /// `strata_rows[c]`: stratum `c`'s rows, ascending.
    strata_rows: Vec<Vec<u32>>,
    /// Cached per-partition statistics partials over the current rows.
    partials: Vec<Partial>,
    /// The stratum of each row of the last partition while it is not full:
    /// the old rows a dirty-tail rescan reads.
    tail_ids: Vec<u32>,
    /// Rows covered.
    rows: usize,
}

impl Maintenance {
    /// Prepare `problem` over `rows` and capture the maintenance state: the
    /// cold path's one strata pass, kept. The outcome is
    /// [`CvOptSampler::sample`]'s with the same seed and options, and this
    /// counts as one statistics pass and one draw, exactly like it.
    pub(crate) fn build(
        problem: &SamplingProblem,
        rows: &RowSpace<'_>,
        seed: u64,
        exec: &ExecOptions,
    ) -> Result<(Maintenance, CvOptOutcome)> {
        let sampler = CvOptSampler::new(problem.clone()).with_seed(seed).with_exec(exec.clone());
        let (outcome, pass) = sampler.sample_keeping(rows, true)?;
        Ok((Maintenance::new(problem, pass.expect("the pass is kept")), outcome))
    }

    /// The state of `problem`'s sample from the strata pass that prepared
    /// it: the strata and every partition's partial.
    pub(crate) fn new(problem: &SamplingProblem, (pass, partials): KeptPass) -> Maintenance {
        let mut strata = OrderedMerge::default();
        strata.push(pass.keys().iter().cloned().zip(pass.sizes().iter().copied()));
        let strata_rows: Vec<Vec<u32>> = (0..pass.num_strata())
            .map(|c| {
                let mut rows = Vec::with_capacity(pass.sizes()[c] as usize);
                pass.rows(c).for_each(|run| rows.extend_from_slice(run));
                rows
            })
            .collect();
        let rows = pass.sizes().iter().sum::<u64>() as usize;
        let tail = rows / CHUNK_ROWS * CHUNK_ROWS;
        let mut tail_ids = vec![0; rows - tail];
        for (c, list) in (0u32..).zip(&strata_rows) {
            for &row in list.iter().rev().take_while(|&&row| row as usize >= tail) {
                tail_ids[row as usize - tail] = c;
            }
        }
        Maintenance {
            base_budget: problem.budget,
            base_rows: rows,
            strata_exprs: problem.finest_stratification(),
            strata,
            strata_rows,
            partials,
            tail_ids,
            rows,
        }
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
        let (old_rows, new_rows) = (self.rows, rows.num_rows());
        if old_rows + batch.num_rows() != new_rows {
            return Err(CvError::invalid(format!(
                "maintained sample covers {old_rows} rows + batch of {} != table of {new_rows}",
                batch.num_rows()
            )));
        }

        // The batch's own index, its keys translated through the ordered
        // merge: old strata keep their ids and new ones take the next, in
        // first-occurrence order — as a fresh pass over `rows` assigns them.
        // The stratum of every row from the last partition's start on is
        // then the kept tail's, followed by the batch's.
        let index = GroupIndex::build_with(batch, &self.strata_exprs, exec)?;
        let keys = (0..index.num_groups() as u32).map(|g| (index.key(g).to_vec(), index.size(g)));
        let translation = self.strata.push(keys);
        let mut ids = std::mem::take(&mut self.tail_ids);
        ids.extend(index.row_groups().iter().map(|&g| translation[g as usize]));

        // Replay clean partials, rescan the dirty tail. Partition
        // boundaries are anchored to the global row space, so every
        // partition strictly before `old_rows / CHUNK_ROWS` is untouched
        // by the append.
        let first_dirty = old_rows / CHUNK_ROWS;
        let from = first_dirty * CHUNK_ROWS;
        let columns = problem.aggregate_columns();
        let num_strata = self.strata.keys().len();
        let tail = stats::tail_partials(rows, &columns, exec, from, &ids, num_strata)?;
        self.partials.truncate(first_dirty);
        self.partials.extend(tail);

        // The rescan refused any row id past `u32::MAX`.
        self.strata_rows.resize(num_strata, Vec::new());
        for (row, &stratum) in (old_rows..new_rows).zip(&ids[old_rows - from..]) {
            self.strata_rows[stratum as usize].push(row as u32);
        }
        self.tail_ids = ids.split_off(new_rows / CHUNK_ROWS * CHUNK_ROWS - from);
        self.rows = new_rows;

        // Allocate and draw from the maintained strata, partials and row
        // lists, through the exact kernels a fresh preparation runs.
        problem.budget = self.scaled_budget(new_rows);
        let (keys, sizes) = (self.strata.keys(), self.strata.sizes());
        let stats = StratumStatistics::from_partials(sizes, &columns, &self.partials);
        let sampler = CvOptSampler::new(problem.clone()).with_seed(seed).with_exec(exec.clone());
        let names: Vec<String> = self.strata_exprs.iter().map(ScalarExpr::display_name).collect();
        let project = |dims: &[usize]| GroupProjection::of(&names, keys, dims);
        let plan = sampler.allocate(self.strata_exprs.clone(), keys.to_vec(), project, stats)?;
        note_draw();
        let ordinals = StratifiedSample::draw_ordinals(sizes, &plan.allocation.sizes, seed, exec);
        let lists = ordinals.iter().zip(&self.strata_rows);
        let picked = lists.map(|(ordinals, rows)| ordinals.iter().map(|&o| rows[o as usize]));
        let drawn = StratifiedSample::of_rows(keys, sizes, picked.map(Iterator::collect).collect());
        Ok(CvOptOutcome { sample: drawn.materialize_from(rows)?, plan })
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
        *self = Maintenance { base_budget: self.base_budget, base_rows: self.base_rows, ..fresh };
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::QuerySpec;
    use cvopt_table::agg::AggState;
    use cvopt_table::{DataType, ShardSet, ShardedTable, TableBuilder, Value};

    /// Four strata; row `CHUNK_ROWS`, which opens the second partition, is
    /// not in the first of them.
    fn row_stream(n: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                vec![
                    Value::str(["a", "b", "c", "d"][i * 7 / 5 % 4]),
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

    /// `table` in `shards` in-process shards.
    fn layout(table: &Table, shards: usize) -> ShardSet {
        ShardSet::from(ShardedTable::split(table, shards).unwrap())
    }

    /// Every layout the maintenance tests run under: the rows plain and in
    /// three shards, at one and two threads.
    fn layouts() -> [(usize, ExecOptions); 4] {
        [(1, 1), (1, 2), (3, 1), (3, 2)]
            .map(|(shards, threads)| (shards, ExecOptions::new(threads)))
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

    fn state_bits(states: &[AggState]) -> Vec<[u64; 6]> {
        let bits = |s: &AggState| {
            [
                s.count,
                s.sum.to_bits(),
                s.mean.to_bits(),
                s.m2.to_bits(),
                s.min.to_bits(),
                s.max.to_bits(),
            ]
        };
        states.iter().map(bits).collect()
    }

    /// A partial as each of its strata's states, in bits, by stratum: the
    /// id-keyed kernel lists a partition's strata ascending and the walk in
    /// first-occurrence order, and the merge is per stratum, so that order
    /// is no part of the contract.
    fn by_stratum((strata, states): &Partial, width: usize) -> Vec<(u32, Vec<[u64; 6]>)> {
        assert_eq!(states.len(), strata.len() * width, "one state per slot and column");
        let mut cells: Vec<_> =
            strata.iter().zip(states.chunks(width)).map(|(&c, s)| (c, state_bits(s))).collect();
        cells.sort_unstable_by_key(|&(c, _)| c);
        cells
    }

    /// A sample under maintenance the way the store holds it — the problem
    /// and the outcome beside the state — over the rows it covers.
    struct Maintained {
        problem: SamplingProblem,
        state: Maintenance,
        outcome: CvOptOutcome,
        rows: ShardSet,
        seed: u64,
        exec: ExecOptions,
    }

    impl Maintained {
        fn build(budget: usize, rows: ShardSet, seed: u64, exec: ExecOptions) -> Self {
            let problem = problem(budget);
            let (state, outcome) = Maintenance::build(&problem, &rows.rows(), seed, &exec).unwrap();
            let built = Maintained { problem, state, outcome, rows, seed, exec };
            built.assert_state_current();
            built
        }

        /// Append `batch` to the rows, fold it in, and check the state.
        fn append(&mut self, batch: &Table) {
            self.rows = self.rows.extended(batch).unwrap();
            self.outcome = self
                .state
                .apply_append(&mut self.problem, &self.rows.rows(), batch, self.seed, &self.exec)
                .unwrap();
            self.assert_state_current();
        }

        /// The whole maintained state is what a fresh strata pass over the
        /// current rows keeps: the strata's keys and sizes, every row list,
        /// the tail ids, and every partial's states, stratum by stratum, bit
        /// for bit.
        fn assert_state_current(&self) {
            let (state, rows) = (&self.state, self.rows.rows());
            let columns = self.problem.aggregate_columns();
            let exprs = &state.strata_exprs;
            let (_, (strata, partials)) =
                StratumStatistics::collect_strata(&rows, exprs, &columns, &self.exec, true)
                    .unwrap();
            assert_eq!(state.rows, rows.num_rows());
            assert_eq!(state.strata.keys(), strata.keys(), "keys");
            assert_eq!(state.strata.sizes(), strata.sizes(), "sizes");
            assert_eq!(state.strata_rows.len(), strata.num_strata());
            let mut stratum_of = vec![0u32; rows.num_rows()];
            for (c, list) in (0u32..).zip(&state.strata_rows) {
                let chain: Vec<u32> = strata.rows(c as usize).flatten().copied().collect();
                assert_eq!(list, &chain, "stratum {c}'s rows");
                chain.iter().for_each(|&row| stratum_of[row as usize] = c);
            }
            let tail = rows.num_rows() / CHUNK_ROWS * CHUNK_ROWS;
            assert_eq!(state.tail_ids, stratum_of[tail..], "tail ids");
            assert_eq!(state.partials.len(), partials.len(), "partitions");
            for (p, (kept, fresh)) in state.partials.iter().zip(&partials).enumerate() {
                let (kept, fresh) =
                    (by_stratum(kept, columns.len()), by_stratum(fresh, columns.len()));
                assert_eq!(kept, fresh, "partition {p}'s states");
            }
        }

        /// What a from-scratch preparation of the current problem draws.
        fn fresh(&self) -> CvOptOutcome {
            CvOptSampler::new(self.problem.clone())
                .with_seed(self.seed)
                .with_exec(self.exec.clone())
                .sample(&self.rows)
                .unwrap()
        }
    }

    /// Appending in any batch split — an empty batch included — yields the
    /// same maintained outcome as re-preparing from scratch over the final
    /// table, in every layout; so do splits around a partition boundary —
    /// batches that leave the last partition part-full, fill it exactly and
    /// open the next — and a build whose last partition is already open.
    #[test]
    fn append_matches_fresh_prepare_for_any_split() {
        let near = CHUNK_ROWS - 1056;
        let stream = row_stream(CHUNK_ROWS + 1984);
        for splits in [
            vec![1000, 3000],
            vec![1000, 1500, 2200, 3000],
            vec![1000, 1001, 3000],
            vec![1000, 1000, 3000, 3000],
            vec![near, CHUNK_ROWS - 16, CHUNK_ROWS, CHUNK_ROWS + 1984],
            vec![CHUNK_ROWS + 464, CHUNK_ROWS + 1984],
        ] {
            let (base, total) = (splits[0], *splits.last().unwrap());
            let base_table = table_of(&stream[..base]);
            let batches: Vec<Table> =
                splits.windows(2).map(|w| table_of(&stream[w[0]..w[1]])).collect();
            for (shards, exec) in layouts() {
                let what = format!("{splits:?}, {shards} shards, {exec:?}");
                let mut m = Maintained::build(base / 20, layout(&base_table, shards), 11, exec);
                for batch in &batches {
                    m.append(batch);
                }
                assert_outcomes_equal(&m.outcome, &m.fresh(), &what);
                assert_eq!(m.problem.budget, total / 20, "{what}: rate 5%");
            }
        }
    }

    /// The same holds over a sharded layout, with the batch appended to the
    /// live (last) shard.
    #[test]
    fn sharded_append_matches_fresh_prepare() {
        let rows = row_stream(2400);
        for threads in [1, 2, 3] {
            let base = layout(&table_of(&rows[..1800]), 3);
            let mut m = Maintained::build(90, base, 4, ExecOptions::new(threads));
            for bounds in [(1800, 2000), (2000, 2400)] {
                m.append(&table_of(&rows[bounds.0..bounds.1]));
            }
            assert_outcomes_equal(&m.outcome, &m.fresh(), &format!("threads {threads}"));
        }
    }

    /// Appends that introduce brand-new strata pad cached partials
    /// correctly: the maintained stats still match a full re-collect.
    #[test]
    fn append_with_new_strata_matches() {
        let base = layout(&table_of(&row_stream(500)), 1);
        let mut m = Maintained::build(40, base, 7, ExecOptions::sequential());
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
        m.append(&b.finish());
        assert_outcomes_equal(&m.outcome, &m.fresh(), "new-strata append");
        assert_eq!(m.outcome.plan.num_strata(), 5);
    }

    /// The maintained strata, batch by batch: folding k batches in one at a
    /// time keeps what one pass over the rows so far keeps — keys in first
    /// occurrence order, sizes, row lists, tail ids, partials — whether a
    /// batch brings new strata, old ones among them, or none.
    #[test]
    fn folded_strata_match_a_fresh_pass_over_concatenation() {
        let rows = row_stream(900);
        let base = layout(&table_of(&rows[..300]), 1);
        let mut m = Maintained::build(30, base, 3, ExecOptions::new(2));
        let fresh_strata: Vec<Vec<Value>> = ["e", "a", "f", "e"]
            .iter()
            .map(|g| vec![Value::str(g), Value::Float64(1.0), Value::Int64(0)])
            .collect();
        for (batch, new_strata) in [
            (table_of(&rows[300..600]), 0),
            (table_of(&fresh_strata), 2),
            (table_of(&rows[600..900]), 0),
        ] {
            let before = m.state.strata.keys().len();
            m.append(&batch);
            assert_eq!(m.state.strata.keys().len(), before + new_strata);
        }
        let new = [vec![KeyAtom::from("e")], vec![KeyAtom::from("f")]];
        assert_eq!(m.state.strata.keys()[4..], new, "new strata in first-occurrence order");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// **Batch-boundary invariance**: any partition of the same row
        /// stream into ingest batches yields a bit-identical maintained
        /// sample — the one a fresh preparation over the final table
        /// produces — and keeps the state a fresh pass keeps after every
        /// batch, in every layout.
        #[test]
        fn maintenance_is_batch_boundary_invariant(
            cuts in proptest::collection::vec(1usize..1400, 0..6),
            seed in 0u64..32,
        ) {
            let rows = row_stream(2000);
            let mut bounds: Vec<usize> = cuts.iter().map(|c| 600 + c).collect();
            bounds.push(600);
            bounds.push(2000);
            bounds.sort_unstable();
            bounds.dedup();
            for (shards, exec) in layouts() {
                let base = layout(&table_of(&rows[..600]), shards);
                let mut m = Maintained::build(30, base, seed, exec);
                for window in bounds.windows(2) {
                    m.append(&table_of(&rows[window[0]..window[1]]));
                }
                let fresh = m.fresh();
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
    }

    /// Rebuild (post-rotation) rescales the budget from the pinned rate.
    #[test]
    fn rebuild_rescales_budget() {
        let rows = row_stream(1000);
        let all = layout(&table_of(&rows), 1);
        let mut m = Maintained::build(100, all, 1, ExecOptions::sequential());
        m.rows = layout(&table_of(&rows[600..]), 1);
        m.outcome = m.state.rebuild(&mut m.problem, &m.rows.rows(), m.seed, &m.exec).unwrap();
        assert_eq!(m.problem.budget, 40, "10% of the surviving 400 rows");
        assert_eq!((m.state.base_budget, m.state.base_rows), (100, 1000), "the pinned rate");
        m.assert_state_current();
        assert_outcomes_equal(&m.outcome, &m.fresh(), "rebuild");
    }
}
