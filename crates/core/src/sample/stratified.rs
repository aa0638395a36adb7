//! Drawing a stratified sample for a computed allocation.
//!
//! One kernel draws every sample (`StratifiedSample::draw_ordinals`): each
//! stratum's reservoir, with its own RNG substream derived from the caller's
//! seed and the stratum id, is offered the stratum's row *count*, and keeps
//! a set of ordinals — positions among the stratum's rows in row order.
//! Algorithm L never reads an item, so a stratum's sample depends only on
//! `(seed, stratum, n_c, s_c)`, and the draw costs the rows sampled, not the
//! rows stored. The sorted ordinals then resolve to rows where the rows
//! live: against a strata pass's chains of runs ([`Strata::pick`]) in
//! process, through one pick request per shard behind a reader, or against
//! the row lists sample maintenance keeps current under append. Ordinals
//! map monotonically onto a stratum's ascending rows, so every resolution
//! yields the rows a scan offering them in order would keep.
//!
//! The drawn sample is therefore byte-identical for any thread count and
//! any shard layout of the rows behind it.

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
    /// ([`Strata::of_index`]) and the drawn ordinals resolve against its
    /// runs; the result depends only on `(index, allocation, seed)`, never
    /// on the thread count.
    pub fn draw(
        index: &GroupIndex,
        allocation: &[u64],
        seed: u64,
        options: &ExecOptions,
    ) -> StratifiedSample {
        let strata = Strata::of_index(index, options, |_| (), |_, ()| ())
            .expect("a group index's rows have u32 ids");
        let ordinals = Self::draw_ordinals(strata.sizes(), allocation, seed, options);
        let rows = strata.resolve(&ordinals, options);
        Self::of_rows(strata.keys(), strata.sizes(), rows)
    }

    /// The draw kernel: stratum `c`, of `sizes[c]` rows, offers its count to
    /// a reservoir of `allocation[c]` (clamped to the population) from its
    /// own `seed`-derived RNG substream, and keeps that many ordinals,
    /// returned ascending. Strata are drawn in parallel per `options`.
    pub fn draw_ordinals(
        sizes: &[u64],
        allocation: &[u64],
        seed: u64,
        options: &ExecOptions,
    ) -> Vec<Vec<u32>> {
        assert_eq!(allocation.len(), sizes.len(), "allocation must cover every stratum");
        exec::run_indexed(sizes.len(), options, |c| {
            let mut rng = StdRng::seed_from_u64(substream_seed(seed, c as u64));
            let mut reservoir = Reservoir::new(allocation[c].min(sizes[c]) as usize);
            reservoir.offer_count(sizes[c], &mut rng);
            let mut ordinals = reservoir.into_items();
            ordinals.sort_unstable();
            ordinals
        })
    }

    /// The sample of `rows_per_stratum[c]` — rows drawn from stratum `c`,
    /// keyed `keys[c]`, of `sizes[c]` rows.
    pub(crate) fn of_rows(
        keys: &[Vec<KeyAtom>],
        sizes: &[u64],
        rows_per_stratum: Vec<Vec<u32>>,
    ) -> StratifiedSample {
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
    /// in-process shard that owns it. The sample is a standalone single
    /// [`Table`], identical for any layout of the same rows, so every
    /// estimator downstream is oblivious to sharding. Refuses a row space
    /// with a shard behind a reader ([`RowSpace::gather`]); such a sample's
    /// rows come back through the pass's pick instead.
    pub fn materialize_from(&self, rows: &RowSpace<'_>) -> crate::Result<MaterializedSample> {
        let all: Vec<usize> = self.rows_per_stratum.iter().flatten().map(|&r| r as usize).collect();
        Ok(self.materialize_with(rows.gather(&all)?))
    }

    /// The sample over `table`, which holds the sampled rows stratum-major,
    /// with per-row expansion weights.
    pub(crate) fn materialize_with(&self, table: Table) -> MaterializedSample {
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
        MaterializedSample { table, weights, origin, strata: self.strata.clone(), row_stratum }
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
    fn buckets(index: &GroupIndex) -> Vec<Vec<u32>> {
        let mut rows = vec![Vec::new(); index.num_groups()];
        for (row, &g) in index.row_groups().iter().enumerate() {
            rows[g as usize].push(row as u32);
        }
        rows
    }

    /// The draw over an index is the ordinal kernel with each stratum's
    /// ordinals resolved against its rows ascending.
    #[test]
    fn draw_is_the_kernel_over_the_index_buckets() {
        let (_t, idx) = table_and_index();
        let buckets = buckets(&idx);
        for (allocation, seed) in [([25, 5], 9), ([0, 10], 1), ([100, 500], 3)] {
            let exec = ExecOptions::new(2);
            let drawn = StratifiedSample::draw(&idx, &allocation, seed, &exec);
            let seq = ExecOptions::sequential();
            let ordinals = StratifiedSample::draw_ordinals(idx.sizes(), &allocation, seed, &seq);
            let resolved: Vec<Vec<u32>> = ordinals
                .iter()
                .zip(&buckets)
                .map(|(ordinals, rows)| ordinals.iter().map(|&o| rows[o as usize]).collect())
                .collect();
            assert_eq!(drawn.rows_per_stratum, resolved);
        }
    }

    /// Ordinals resolve only within their stratum's rows.
    #[test]
    #[should_panic(expected = "an ordinal past stratum 1")]
    fn resolve_rejects_an_ordinal_past_its_stratum() {
        let (_t, idx) = table_and_index();
        let exec = ExecOptions::sequential();
        let strata = Strata::of_index(&idx, &exec, |_| (), |_, ()| ()).unwrap();
        strata.resolve(&[vec![0], vec![3, 10]], &exec);
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
