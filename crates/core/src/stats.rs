//! One-pass per-stratum statistics (the paper's "first pass").
//!
//! For each stratum of the finest stratification and each aggregation
//! column, we accumulate count/mean/M2 with Welford's algorithm. Because the
//! accumulators merge exactly, the statistics of any *coarser* group
//! `a = ∪ {c ∈ C(a)}` (the paper's `Π`-projections) are derived by merging —
//! no second scan.
//!
//! The pass is the table layer's strata pass ([`Strata`]): each global
//! partition's rows arrive counting-sorted by stratum, and its statistics
//! kernel ([`fold_runs`]) gathers every run's values densely and feeds them
//! to the lane-merge slice kernel ([`AggState::update_slice`]), into one
//! flat state table sized by the strata that partition saw — in process, or
//! on the shard that holds the partition. Partials merge into the stratum
//! table here in partition order, so the statistics are bit-identical for
//! any shard layout and thread count; the same strata then serve the draw.
//! A maintained sample keeps the pass's partials, merges them again after
//! an append, and recomputes only the partials of the partitions the append
//! dirtied, from the stratum ids of their rows (`tail_partials`).

use std::sync::atomic::{AtomicU64, Ordering};

use cvopt_table::agg::AggState;
use cvopt_table::exec::{self, ExecOptions};
use cvopt_table::groupby::{bind_columns, fold_runs, GroupProjection, Runs, Strata};
use cvopt_table::{GroupIndex, RowSpace, ScalarExpr};

use crate::spec::VarianceKind;
use crate::Result;

/// Process-wide count of statistics passes (every `collect*` entry point,
/// whatever engine or sampler triggered it). The counter is atomic so a
/// serving layer's `/stats` endpoint can read it live, while passes run on
/// other threads.
static TOTAL_PASSES: AtomicU64 = AtomicU64::new(0);

/// Statistics passes run by this process so far (all engines, all
/// samplers). Monotonic; never reset.
pub fn total_stats_passes() -> u64 {
    TOTAL_PASSES.load(Ordering::Relaxed)
}

/// Record one statistics pass. Called by every collector after its
/// column binding succeeds (failed preparations never scanned anything)
/// and before the scan itself, so a pass in flight is already visible to
/// live readers. A maintained sample is prepared by the same pass; its
/// *updates* rescan only the partitions an append dirtied and are
/// deliberately not counted as passes.
pub(crate) fn record_pass() {
    TOTAL_PASSES.fetch_add(1, Ordering::Relaxed);
}

/// One partition's statistics: the slot states of its runs, `width` per
/// slot, and the stratum of each slot.
pub(crate) type Partial = (Vec<u32>, Vec<AggState>);

/// A statistics pass kept whole: its strata, with their runs, and every
/// partition's partial, in partition order.
pub(crate) type KeptPass = (Strata, Vec<Partial>);

/// Merge one partition's slot states into the stratum table `acc`
/// (`acc[stratum][column]`, grown on demand) through `strata`, the stratum
/// of each slot. A stratum a partition lacks is left alone — the merge of a
/// default state is a no-op — and a stratum's first partial lands on a
/// default state, which merging copies bit for bit; so the partition-order
/// merge equals merging whole per-partition tables.
fn merge_partial(acc: &mut Vec<Vec<AggState>>, width: usize, strata: &[u32], states: &[AggState]) {
    for (slot, &c) in strata.iter().enumerate() {
        if acc.len() <= c as usize {
            acc.resize(c as usize + 1, vec![AggState::default(); width]);
        }
        let cells = &states[slot * width..(slot + 1) * width];
        acc[c as usize].iter_mut().zip(cells).for_each(|(a, s)| a.merge(s));
    }
}

/// The partials of the global partitions of `rows` from row `from` — a
/// partition start — on, whose rows from `from` on have the stratum ids
/// `ids`, each below `num_strata`: the same fold over the id-keyed
/// partition kernel ([`Runs::by_id`]). How sample maintenance rescans only
/// the partitions an append dirtied. A returned partial lists its strata
/// ascending, where a fresh pass over packed keys lists them by first
/// occurrence, but each stratum's states are bit-identical to that pass's —
/// and the merge is per stratum. Does not count a statistics pass.
pub(crate) fn tail_partials(
    rows: &RowSpace<'_>,
    columns: &[ScalarExpr],
    options: &ExecOptions,
    from: usize,
    ids: &[u32],
    num_strata: usize,
) -> Result<Vec<Partial>> {
    let bound = bind_columns(rows, columns)?;
    let partitions = exec::partition_rows(rows.num_rows());
    let tail: Vec<exec::RowRange> = partitions.into_iter().filter(|p| p.start >= from).collect();
    let partials = exec::run_indexed(tail.len(), options, |i| -> cvopt_table::Result<Partial> {
        let range = tail[i];
        let ids = &ids[range.start - from..range.end - from];
        let (strata, runs) = Runs::by_id(range.start, ids, num_strata)?;
        Ok((strata, fold_runs(rows, &bound, &runs)))
    });
    Ok(partials.into_iter().collect::<cvopt_table::Result<_>>()?)
}

/// Per-stratum, per-column statistics over a table.
#[derive(Debug, Clone)]
pub struct StratumStatistics {
    /// Names of the tracked aggregation columns, in order.
    pub column_names: Vec<String>,
    /// `states[stratum][column]`.
    pub states: Vec<Vec<AggState>>,
    /// Stratum populations (`n_c`), from the group index.
    pub populations: Vec<u64>,
}

impl StratumStatistics {
    /// Collect statistics over `rows` — a `&Table` or a
    /// [`ShardSet`](cvopt_table::ShardSet) whose shards are all in process;
    /// a set with a shard behind a reader is refused, naming it — given
    /// the group index ([`RowSpace::group_index`]) over the same logical
    /// rows: the strata pass keyed by the index's ids
    /// ([`Strata::of_index`]), folded by the vectorized per-partition
    /// kernel — every stratum's contiguous value run of a partition goes
    /// through the lane-merge slice kernel ([`AggState::update_slice`]).
    ///
    /// Partials are whole **global** partitions: boundaries are fixed by
    /// the row count alone (shard boundaries never move them), the lane
    /// schedule is fixed by the run contents, and partial accumulators
    /// merge in partition order, so the result is **bit-identical for any
    /// shard layout and any thread count** — and to the statistics
    /// [`CvOptSampler`](crate::CvOptSampler) collects over packed keys. It
    /// may differ from a single-chain scalar Welford loop (the tests'
    /// reference) in the last ulps of mean/M2; both are deterministic.
    pub fn collect_with<'a>(
        rows: impl Into<RowSpace<'a>>,
        index: &GroupIndex,
        columns: &[ScalarExpr],
        options: &ExecOptions,
    ) -> Result<Self> {
        let rows = rows.into();
        let bound = bind_columns(&rows, columns)?;
        record_pass();
        let mut states = Vec::new();
        Strata::of_index(
            index,
            options,
            |runs| fold_runs(&rows, &bound, runs),
            |strata, partial| merge_partial(&mut states, columns.len(), strata, &partial),
        )?;
        Ok(Self::from_table(columns, states, index.sizes().to_vec()))
    }

    /// The statistics pass over `rows` stratified by `exprs`: one strata
    /// pass ([`Strata::collect`]) folding the statistics kernel — in
    /// process, or pushed down to the shards behind readers. The strata
    /// come back for the draw, and — only when `keep` — with every
    /// partition's partial, for a maintained sample.
    pub(crate) fn collect_strata(
        rows: &RowSpace<'_>,
        exprs: &[ScalarExpr],
        columns: &[ScalarExpr],
        options: &ExecOptions,
        keep: bool,
    ) -> Result<(Self, KeptPass)> {
        let (mut states, mut kept) = (Vec::new(), Vec::new());
        let strata =
            Strata::collect(rows, exprs, columns, options, record_pass, |strata, partial| {
                merge_partial(&mut states, columns.len(), strata, &partial);
                if keep {
                    kept.push((strata.to_vec(), partial));
                }
            })?;
        let stats = Self::from_table(columns, states, strata.sizes().to_vec());
        Ok((stats, (strata, kept)))
    }

    /// Statistics from a merged stratum table; a stratum no partial
    /// reached keeps default states.
    fn from_table(
        columns: &[ScalarExpr],
        mut states: Vec<Vec<AggState>>,
        populations: Vec<u64>,
    ) -> Self {
        states.resize(populations.len(), vec![AggState::default(); columns.len()]);
        StratumStatistics {
            column_names: columns.iter().map(|c| c.display_name()).collect(),
            states,
            populations,
        }
    }

    /// Fold cached per-partition partials (see [`tail_partials`]) of strata
    /// sized `sizes`, in partition order, into the statistics a fresh pass
    /// over the same rows would produce: every stratum merges bit-identical
    /// states in the same partition order, so the result is
    /// **bit-identical to a full re-collect** — without touching a single
    /// row.
    pub(crate) fn from_partials(
        sizes: &[u64],
        columns: &[ScalarExpr],
        partials: &[Partial],
    ) -> Self {
        let mut states = Vec::new();
        for (strata, partial) in partials {
            merge_partial(&mut states, columns.len(), strata, partial);
        }
        Self::from_table(columns, states, sizes.to_vec())
    }

    /// Number of strata.
    pub fn num_strata(&self) -> usize {
        self.states.len()
    }

    /// Number of tracked columns.
    pub fn num_columns(&self) -> usize {
        self.column_names.len()
    }

    /// Population `n_c` of stratum `c`.
    pub fn population(&self, stratum: usize) -> u64 {
        self.populations[stratum]
    }

    /// Mean `μ_{c,ℓ}`.
    pub fn mean(&self, stratum: usize, column: usize) -> f64 {
        self.states[stratum][column].mean
    }

    /// Variance `σ²_{c,ℓ}` under the chosen estimator.
    pub fn variance(&self, stratum: usize, column: usize, kind: VarianceKind) -> f64 {
        match kind {
            VarianceKind::Sample => self.states[stratum][column].sample_variance(),
            VarianceKind::Population => self.states[stratum][column].population_variance(),
        }
    }

    /// Coefficient of variation `σ/μ` (infinite if the mean is zero but the
    /// variance is not; zero for constant-zero groups).
    pub fn cv(&self, stratum: usize, column: usize, kind: VarianceKind) -> f64 {
        let mean = self.mean(stratum, column);
        let sd = self.variance(stratum, column, kind).sqrt();
        if sd == 0.0 {
            0.0
        } else if mean == 0.0 {
            f64::INFINITY
        } else {
            sd / mean.abs()
        }
    }

    /// Merge stratum statistics onto a coarser grouping: returns one flat
    /// buffer of `[coarse group * num_columns + column]` accumulators (the
    /// statistics of the paper's groups `a ∈ A_i` derived from the finest
    /// strata).
    pub fn coarsen(&self, projection: &GroupProjection<'_>) -> Vec<AggState> {
        let width = self.num_columns();
        let mut merged = vec![AggState::default(); projection.num_groups() * width];
        for (fine, states) in self.states.iter().enumerate() {
            let coarse = projection.coarse_of(fine as u32) as usize;
            let acc = &mut merged[coarse * width..][..width];
            acc.iter_mut().zip(states).for_each(|(a, s)| a.merge(s));
        }
        merged
    }

    /// Coarse populations under a projection.
    pub fn coarsen_populations(&self, projection: &GroupProjection<'_>) -> Vec<u64> {
        let mut pops = vec![0u64; projection.num_groups()];
        for (fine_gid, &n) in self.populations.iter().enumerate() {
            pops[projection.coarse_of(fine_gid as u32) as usize] += n;
        }
        pops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvopt_table::{DataType, ShardSet, ShardedTable, Table, TableBuilder, Value};

    fn table() -> Table {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("h", DataType::Str),
            ("x", DataType::Float64),
            ("y", DataType::Float64),
        ]);
        let rows = [
            ("a", "p", 1.0, 10.0),
            ("a", "p", 3.0, 10.0),
            ("a", "q", 5.0, 20.0),
            ("b", "p", 100.0, 0.5),
            ("b", "q", 200.0, 1.5),
            ("b", "q", 300.0, 2.5),
        ];
        for (g, h, x, y) in rows {
            b.push_row(&[Value::str(g), Value::str(h), Value::Float64(x), Value::Float64(y)])
                .unwrap();
        }
        b.finish()
    }

    fn index(t: &Table) -> GroupIndex {
        GroupIndex::build(t, &[ScalarExpr::col("g"), ScalarExpr::col("h")]).unwrap()
    }

    fn collect(t: &Table, idx: &GroupIndex, columns: &[ScalarExpr]) -> StratumStatistics {
        StratumStatistics::collect_with(t, idx, columns, &ExecOptions::sequential()).unwrap()
    }

    /// The scalar reference: one Welford chain per stratum, fed in row
    /// order — no partitions, no lanes, no merges.
    fn scalar_reference(t: &Table, idx: &GroupIndex, columns: &[ScalarExpr]) -> StratumStatistics {
        let bound: Vec<_> = columns.iter().map(|c| c.bind(t).unwrap()).collect();
        let mut states = vec![vec![AggState::default(); columns.len()]; idx.num_groups()];
        for row in 0..t.num_rows() {
            for (slot, expr) in states[idx.group_of(row) as usize].iter_mut().zip(&bound) {
                if let Some(v) = expr.f64_at(row) {
                    slot.update(v);
                }
            }
        }
        StratumStatistics::from_table(columns, states, idx.sizes().to_vec())
    }

    #[test]
    fn collect_per_stratum() {
        let t = table();
        let idx = index(&t);
        let stats = collect(&t, &idx, &[ScalarExpr::col("x"), ScalarExpr::col("y")]);
        assert_eq!(stats.num_strata(), 4);
        assert_eq!(stats.num_columns(), 2);
        // Stratum (a,p): x values 1,3.
        let ap = (0..4)
            .find(|&g| {
                idx.key(g as u32)[0].to_string() == "a" && idx.key(g as u32)[1].to_string() == "p"
            })
            .unwrap();
        assert_eq!(stats.population(ap), 2);
        assert!((stats.mean(ap, 0) - 2.0).abs() < 1e-12);
        assert!((stats.variance(ap, 0, VarianceKind::Sample) - 2.0).abs() < 1e-12);
        assert!((stats.variance(ap, 0, VarianceKind::Population) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cv_edge_cases() {
        let t = table();
        let idx = index(&t);
        let stats = collect(&t, &idx, &[ScalarExpr::col("y")]);
        // Stratum (a,p) has constant y=10 → cv 0.
        let ap = (0..4)
            .find(|&g| {
                idx.key(g as u32)[0].to_string() == "a" && idx.key(g as u32)[1].to_string() == "p"
            })
            .unwrap();
        assert_eq!(stats.cv(ap, 0, VarianceKind::Sample), 0.0);
    }

    #[test]
    fn coarsen_matches_direct() {
        let t = table();
        let idx = index(&t);
        let stats = collect(&t, &idx, &[ScalarExpr::col("x")]);
        let proj = idx.project(&[0]);
        let coarse = stats.coarsen(&proj);
        let pops = stats.coarsen_populations(&proj);

        // Compare against a direct single-level index.
        let direct_idx = GroupIndex::build(&t, &[ScalarExpr::col("g")]).unwrap();
        let direct = scalar_reference(&t, &direct_idx, &[ScalarExpr::col("x")]);
        for cid in 0..proj.num_groups() {
            let key = proj.key(cid as u32);
            let dg = (0..direct_idx.num_groups() as u32)
                .find(|&g| direct_idx.key(g) == key)
                .unwrap() as usize;
            assert_eq!(pops[cid], direct.population(dg));
            assert!((coarse[cid].mean - direct.mean(dg, 0)).abs() < 1e-12);
            assert!(
                (coarse[cid].sample_variance() - direct.variance(dg, 0, VarianceKind::Sample))
                    .abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        // Build a bigger table so the parallel path actually splits.
        let mut b = TableBuilder::new(&[("g", DataType::Int64), ("x", DataType::Float64)]);
        for i in 0..20_000i64 {
            b.push_row(&[Value::Int64(i % 7), Value::Float64((i as f64).sin() * 100.0)]).unwrap();
        }
        let t = b.finish();
        let idx = GroupIndex::build(&t, &[ScalarExpr::col("g")]).unwrap();
        let cols = [ScalarExpr::col("x")];
        let seq = scalar_reference(&t, &idx, &cols);
        let par = StratumStatistics::collect_with(&t, &idx, &cols, &ExecOptions::new(4)).unwrap();
        for g in 0..idx.num_groups() {
            assert_eq!(seq.population(g), par.population(g));
            assert!((seq.mean(g, 0) - par.mean(g, 0)).abs() < 1e-9);
            assert!(
                (seq.variance(g, 0, VarianceKind::Sample)
                    - par.variance(g, 0, VarianceKind::Sample))
                .abs()
                    < 1e-6
            );
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // Spans multiple partitions, so partial merges actually happen; the
        // fixed partitioning must make rounding identical for any thread
        // count.
        let n = 2 * cvopt_table::exec::CHUNK_ROWS + 7777;
        let mut b = TableBuilder::new(&[("g", DataType::Int64), ("x", DataType::Float64)]);
        for i in 0..n as i64 {
            b.push_row(&[Value::Int64(i % 23), Value::Float64((i as f64 * 0.7).sin() * 1e3)])
                .unwrap();
        }
        let t = b.finish();
        let idx = GroupIndex::build(&t, &[ScalarExpr::col("g")]).unwrap();
        let cols = [ScalarExpr::col("x")];
        let reference =
            StratumStatistics::collect_with(&t, &idx, &cols, &ExecOptions::sequential()).unwrap();
        for threads in [2usize, 3, 8] {
            let par = StratumStatistics::collect_with(&t, &idx, &cols, &ExecOptions::new(threads))
                .unwrap();
            for g in 0..idx.num_groups() {
                assert_eq!(
                    par.mean(g, 0).to_bits(),
                    reference.mean(g, 0).to_bits(),
                    "mean differs at threads={threads}"
                );
                assert_eq!(
                    par.states[g][0].m2.to_bits(),
                    reference.states[g][0].m2.to_bits(),
                    "m2 differs at threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sharded_collect_is_bit_identical_for_any_layout() {
        // Float64 (dense gather) and Int64 (per-row evaluation) columns;
        // shard boundaries both inside and across partition boundaries,
        // plus an empty shard.
        let n = cvopt_table::exec::CHUNK_ROWS + 2345;
        let mut b = TableBuilder::new(&[
            ("g", DataType::Int64),
            ("x", DataType::Float64),
            ("i", DataType::Int64),
        ]);
        for i in 0..n as i64 {
            b.push_row(&[
                Value::Int64(i % 19),
                Value::Float64((i as f64 * 0.37).sin() * 1e3),
                Value::Int64(i % 101),
            ])
            .unwrap();
        }
        let t = b.finish();
        let cols = [ScalarExpr::col("x"), ScalarExpr::col("i")];
        let idx = GroupIndex::build_with(&t, &[ScalarExpr::col("g")], &ExecOptions::sequential())
            .unwrap();
        let reference =
            StratumStatistics::collect_with(&t, &idx, &cols, &ExecOptions::sequential()).unwrap();

        let empty = TableBuilder::from_schema(t.schema().clone()).finish();
        let layouts: Vec<ShardedTable> = vec![
            ShardedTable::split(&t, 1).unwrap(),
            ShardedTable::split(&t, 3).unwrap(),
            ShardedTable::from_tables(vec![
                t.take(&(0..777).collect::<Vec<_>>()),
                empty,
                t.take(&(777..n).collect::<Vec<_>>()),
            ])
            .unwrap(),
        ];
        for (layout, sharded) in layouts.into_iter().enumerate() {
            let sharded = ShardSet::from(sharded);
            let sidx =
                sharded.rows().group_index(&[ScalarExpr::col("g")], &ExecOptions::new(2)).unwrap();
            assert_eq!(sidx.row_groups(), idx.row_groups(), "layout {layout}");
            for threads in [1usize, 4] {
                let got = StratumStatistics::collect_with(
                    &sharded,
                    &sidx,
                    &cols,
                    &ExecOptions::new(threads),
                )
                .unwrap();
                assert_eq!(got.populations, reference.populations);
                for g in 0..idx.num_groups() {
                    for c in 0..cols.len() {
                        assert_eq!(
                            got.mean(g, c).to_bits(),
                            reference.mean(g, c).to_bits(),
                            "layout {layout}, threads {threads}, g {g}, c {c}: mean"
                        );
                        assert_eq!(
                            got.states[g][c].m2.to_bits(),
                            reference.states[g][c].m2.to_bits(),
                            "layout {layout}, threads {threads}, g {g}, c {c}: m2"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_small_table_falls_back() {
        let t = table();
        let idx = index(&t);
        let exec = ExecOptions::new(8);
        let stats =
            StratumStatistics::collect_with(&t, &idx, &[ScalarExpr::col("x")], &exec).unwrap();
        assert_eq!(stats.num_strata(), 4);
    }
}
