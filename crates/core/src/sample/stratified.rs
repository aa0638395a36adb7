//! Drawing a stratified sample for a computed allocation.
//!
//! The draw reads the rows of every stratum from a strata pass
//! ([`Strata`]): the partition runs the statistics pass already sorted, a
//! chain per stratum in partition order — the stratum's rows ascending, the
//! order a sequential scan would offer them. One kernel
//! (`StratifiedSample::draw_bucketed`) offers every stratum's chain, run by
//! run, to its reservoir, with its own RNG substream derived from the
//! caller's seed and the stratum id. Algorithm L jumps over the rows it does
//! not keep, across run boundaries as within a run, so the draw costs the
//! rows sampled, not the rows stored, and a chain draws exactly what its
//! concatenation would. A caller that keeps its own row lists — sample
//! maintenance holds them current under append — calls the kernel
//! directly.
//!
//! A stratum's sample depends only on `(seed, stratum)` and its row list,
//! making the drawn sample byte-identical for any thread count and any
//! shard layout of the rows behind it.

use cvopt_table::exec::{self, ExecOptions};
use cvopt_table::groupby::Strata;
use cvopt_table::{GroupIndex, KeyAtom, RowSpace, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::sample::materialized::MaterializedSample;
use crate::sample::reservoir::Reservoir;

/// Derive the RNG seed of one stratum's substream: the caller's seed XORed
/// with a SplitMix64-mixed stratum id, so neighbouring strata get
/// decorrelated streams.
fn substream_seed(seed: u64, stratum: u64) -> u64 {
    let mut state = stratum.wrapping_add(0x9E37_79B9_7F4A_7C15);
    seed ^ rand::split_mix_64(&mut state)
}

/// Metadata for one stratum of a drawn sample.
#[derive(Debug, Clone)]
pub struct StratumInfo {
    /// Group key of the stratum in the finest stratification.
    pub key: Vec<KeyAtom>,
    /// Rows in the stratum (`n_c`).
    pub population: u64,
    /// Rows sampled from the stratum (`s_c`).
    pub sampled: u64,
}

impl StratumInfo {
    /// Horvitz–Thompson expansion weight `n_c / s_c` for rows of this
    /// stratum (infinite if nothing was sampled — such strata contribute no
    /// rows, so the weight is never applied).
    pub fn weight(&self) -> f64 {
        if self.sampled == 0 {
            f64::INFINITY
        } else {
            self.population as f64 / self.sampled as f64
        }
    }
}

/// A stratified row sample: per-stratum row ids plus metadata.
#[derive(Debug, Clone)]
pub struct StratifiedSample {
    /// Per-stratum metadata, indexed by stratum id of the drawing index.
    pub strata: Vec<StratumInfo>,
    /// Sampled row ids per stratum.
    pub rows_per_stratum: Vec<Vec<u32>>,
}

impl StratifiedSample {
    /// Draw `allocation[c]` rows uniformly without replacement from each
    /// stratum `c` of `index` (the paper's second pass). Allocations above
    /// the stratum population are clamped.
    ///
    /// The rows are bucketed by the strata pass keyed by the index's ids
    /// ([`Strata::of_index`]), then drawn by
    /// `StratifiedSample::draw_bucketed`; the result depends only on
    /// `(index, allocation, seed)`, never on the thread count.
    pub fn draw(
        index: &GroupIndex,
        allocation: &[u64],
        seed: u64,
        options: &ExecOptions,
    ) -> StratifiedSample {
        let strata = Strata::of_index(index, options, |_| (), |_, ()| ())
            .expect("a group index's rows have u32 ids");
        Self::draw_strata(&strata, allocation, seed, options)
    }

    /// The draw over the runs of a strata pass.
    pub(crate) fn draw_strata(
        strata: &Strata,
        allocation: &[u64],
        seed: u64,
        options: &ExecOptions,
    ) -> StratifiedSample {
        let rows = |c| strata.rows(c);
        Self::draw_bucketed(strata.keys(), strata.sizes(), rows, allocation, seed, options)
    }

    /// The per-stratum draw kernel: stratum `c` has key `keys[c]` and
    /// `sizes[c]` rows, and `rows(c)` lists them in ascending row order as a
    /// chain of runs; each stratum's reservoir is offered its chain run by
    /// run from its own `seed`-derived RNG substream. Strata are drawn in
    /// parallel per `options`.
    pub(crate) fn draw_bucketed<'a, R: Iterator<Item = &'a [u32]>>(
        keys: &[Vec<KeyAtom>],
        sizes: &[u64],
        rows: impl Fn(usize) -> R + Sync,
        allocation: &[u64],
        seed: u64,
        options: &ExecOptions,
    ) -> StratifiedSample {
        assert_eq!(allocation.len(), keys.len(), "allocation must cover every stratum");
        let rows_per_stratum = exec::run_indexed(keys.len(), options, |c| {
            let population = sizes[c];
            let mut rng = StdRng::seed_from_u64(substream_seed(seed, c as u64));
            let mut reservoir = Reservoir::new(allocation[c].min(population) as usize);
            let mut offered = 0u64;
            for run in rows(c) {
                reservoir.offer_slice(run, &mut rng);
                offered += run.len() as u64;
            }
            assert_eq!(offered, population, "stratum {c}'s row list is stale");
            let mut sampled = reservoir.into_items();
            sampled.sort_unstable();
            sampled
        });

        let strata = rows_per_stratum
            .iter()
            .zip(keys.iter().zip(sizes))
            .map(|(rows, (key, &population))| StratumInfo {
                key: key.clone(),
                population,
                sampled: rows.len() as u64,
            })
            .collect();
        StratifiedSample { strata, rows_per_stratum }
    }

    /// Total sampled rows.
    pub fn total_sampled(&self) -> u64 {
        self.strata.iter().map(|s| s.sampled).sum()
    }

    /// Copy the sampled rows out of `table` into a self-contained
    /// [`MaterializedSample`] with per-row expansion weights
    /// ([`StratifiedSample::materialize_from`] over a one-shard row space,
    /// whose in-process gather cannot fail).
    pub fn materialize(&self, table: &Table) -> MaterializedSample {
        self.materialize_from(&table.into()).expect("in-process rows gather infallibly")
    }

    /// Gather the sampled (global) rows out of `rows`, stratum-major, into
    /// a self-contained [`MaterializedSample`]: each row is copied from the
    /// shard that owns it (one batched request per non-local shard). The
    /// sample is a standalone single [`Table`], identical for any layout of
    /// the same rows, so every estimator downstream is oblivious to
    /// sharding. Fallible because a remote gather can fail.
    pub fn materialize_from(&self, rows: &RowSpace<'_>) -> crate::Result<MaterializedSample> {
        let total = self.total_sampled() as usize;
        let mut origin = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        let mut row_stratum = Vec::with_capacity(total);
        for (c, sampled) in self.rows_per_stratum.iter().enumerate() {
            let w = self.strata[c].weight();
            for &r in sampled {
                origin.push(r);
                weights.push(w);
                row_stratum.push(c as u32);
            }
        }
        let rows_usize: Vec<usize> = origin.iter().map(|&r| r as usize).collect();
        Ok(MaterializedSample {
            table: rows.gather(&rows_usize)?,
            weights,
            origin,
            strata: self.strata.clone(),
            row_stratum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvopt_table::{DataType, ScalarExpr, TableBuilder, Value};

    fn table_and_index() -> (Table, GroupIndex) {
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        for i in 0..100 {
            b.push_row(&[Value::str("a"), Value::Float64(i as f64)]).unwrap();
        }
        for i in 0..10 {
            b.push_row(&[Value::str("b"), Value::Float64(1000.0 + i as f64)]).unwrap();
        }
        let t = b.finish();
        let idx = GroupIndex::build(&t, &[ScalarExpr::col("g")]).unwrap();
        (t, idx)
    }

    #[test]
    fn draw_respects_allocation() {
        let (_t, idx) = table_and_index();
        let s = StratifiedSample::draw(&idx, &[20, 5], 1, &ExecOptions::default());
        assert_eq!(s.strata[0].sampled, 20);
        assert_eq!(s.strata[1].sampled, 5);
        assert_eq!(s.total_sampled(), 25);
        // Sampled rows belong to the right stratum.
        assert!(s.rows_per_stratum[0].iter().all(|&r| r < 100));
        assert!(s.rows_per_stratum[1].iter().all(|&r| (100..110).contains(&r)));
    }

    #[test]
    fn allocation_clamped_to_population() {
        let (_t, idx) = table_and_index();
        let s = StratifiedSample::draw(&idx, &[20, 500], 2, &ExecOptions::default());
        assert_eq!(s.strata[1].sampled, 10);
        assert_eq!(s.strata[1].weight(), 1.0);
    }

    #[test]
    fn weights_are_expansion_factors() {
        let (_t, idx) = table_and_index();
        let s = StratifiedSample::draw(&idx, &[25, 5], 3, &ExecOptions::default());
        assert_eq!(s.strata[0].weight(), 4.0);
        assert_eq!(s.strata[1].weight(), 2.0);
    }

    #[test]
    fn zero_allocation_stratum() {
        let (_t, idx) = table_and_index();
        let s = StratifiedSample::draw(&idx, &[10, 0], 4, &ExecOptions::default());
        assert_eq!(s.strata[1].sampled, 0);
        assert!(s.rows_per_stratum[1].is_empty());
        assert_eq!(s.strata[1].weight(), f64::INFINITY);
    }

    #[test]
    fn materialize_builds_weighted_table() {
        let (t, idx) = table_and_index();
        let s = StratifiedSample::draw(&idx, &[50, 10], 5, &ExecOptions::default());
        let m = s.materialize(&t);
        assert_eq!(m.table.num_rows(), 60);
        assert_eq!(m.weights.len(), 60);
        assert_eq!(m.row_stratum.len(), 60);
        // Total weight reconstructs the population size.
        let total: f64 = m.weights.iter().sum();
        assert!((total - 110.0).abs() < 1e-9);
        // Weighted sum of an indicator for stratum b ≈ population of b.
        let b_weight: f64 = (0..60)
            .filter(|&i| m.table.column(0).value(i) == Value::str("b"))
            .map(|i| m.weights[i])
            .sum();
        assert!((b_weight - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sample_rows_are_distinct() {
        let (_t, idx) = table_and_index();
        let s = StratifiedSample::draw(&idx, &[60, 10], 6, &ExecOptions::default());
        let mut all: Vec<u32> = s.rows_per_stratum.concat();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn sharded_draw_is_byte_identical_to_unsharded() {
        use cvopt_table::{ShardSet, ShardedTable};
        let (t, idx) = table_and_index();
        let reference = StratifiedSample::draw(&idx, &[25, 5], 9, &ExecOptions::sequential());
        let m_ref = reference.materialize(&t);
        for num_shards in [1usize, 2, 4] {
            let st = ShardSet::from(ShardedTable::split(&t, num_shards).unwrap());
            let sidx =
                st.rows().group_index(&[ScalarExpr::col("g")], &ExecOptions::sequential()).unwrap();
            for threads in [1usize, 4] {
                let got = StratifiedSample::draw(&sidx, &[25, 5], 9, &ExecOptions::new(threads));
                assert_eq!(
                    got.rows_per_stratum, reference.rows_per_stratum,
                    "shards {num_shards}, threads {threads}"
                );
                // Materializing from the shards reproduces the same rows.
                let m = got.materialize_from(&st.rows()).unwrap();
                assert_eq!(m.origin, m_ref.origin);
                for row in 0..m.table.num_rows() {
                    assert_eq!(m.table.row(row), m_ref.table.row(row));
                }
            }
        }
    }

    /// The reference bucketing: each group's rows of `index`, ascending.
    fn buckets(index: &GroupIndex) -> (Vec<Vec<KeyAtom>>, Vec<Vec<u32>>) {
        let mut rows = vec![Vec::new(); index.num_groups()];
        for (row, &g) in index.row_groups().iter().enumerate() {
            rows[g as usize].push(row as u32);
        }
        let keys = (0..index.num_groups() as u32).map(|g| index.key(g).to_vec()).collect();
        (keys, rows)
    }

    #[test]
    fn draw_is_the_kernel_over_the_index_buckets() {
        let (_t, idx) = table_and_index();
        let (keys, buckets) = buckets(&idx);
        let sizes = idx.sizes();
        for (allocation, seed) in [([25, 5], 9), ([0, 10], 1), ([100, 500], 3)] {
            let exec = ExecOptions::new(2);
            let drawn = StratifiedSample::draw(&idx, &allocation, seed, &exec);
            let seq = ExecOptions::sequential();
            // One slice per stratum, and the same rows as a chain of runs.
            let whole = |c: usize| std::iter::once(buckets[c].as_slice());
            let chained = |c: usize| buckets[c].chunks(7);
            let kernel =
                StratifiedSample::draw_bucketed(&keys, sizes, whole, &allocation, seed, &seq);
            let chain =
                StratifiedSample::draw_bucketed(&keys, sizes, chained, &allocation, seed, &seq);
            assert_eq!(drawn.rows_per_stratum, kernel.rows_per_stratum);
            assert_eq!(chain.rows_per_stratum, kernel.rows_per_stratum);
        }
    }

    #[test]
    #[should_panic(expected = "row list is stale")]
    fn draw_bucketed_rejects_a_stale_row_list() {
        let (_t, idx) = table_and_index();
        let (keys, buckets) = buckets(&idx);
        let short = |c: usize| std::iter::once(&buckets[c][1..]);
        let exec = ExecOptions::sequential();
        StratifiedSample::draw_bucketed(&keys, idx.sizes(), short, &[5, 5], 1, &exec);
    }

    #[test]
    fn byte_identical_across_thread_counts() {
        // Many strata with skewed sizes: dynamic scheduling will interleave
        // them differently per run, but substream RNGs must make the output
        // independent of all that.
        let mut b = TableBuilder::new(&[("g", DataType::Int64)]);
        for i in 0..40_000i64 {
            b.push_row(&[Value::Int64(i % ((i % 37) + 1))]).unwrap();
        }
        let t = b.finish();
        let idx = GroupIndex::build(&t, &[ScalarExpr::col("g")]).unwrap();
        let allocation: Vec<u64> = idx.sizes().iter().map(|&n| (n / 10).max(1)).collect();
        let reference = StratifiedSample::draw(&idx, &allocation, 42, &ExecOptions::sequential());
        for threads in [2usize, 8] {
            let par = StratifiedSample::draw(&idx, &allocation, 42, &ExecOptions::new(threads));
            assert_eq!(par.rows_per_stratum, reference.rows_per_stratum);
        }
        // And a different seed draws a different sample.
        let other = StratifiedSample::draw(&idx, &allocation, 43, &ExecOptions::sequential());
        assert_ne!(other.rows_per_stratum, reference.rows_per_stratum);
    }
}
