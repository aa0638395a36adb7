//! Determinism under parallelism: the execution layer guarantees that
//! plans, group ids, and drawn samples are identical for every thread
//! count. These tests pin that guarantee for all three norms and for the
//! group-index build on random tables, for the two-phase scatter behind
//! the stratified draw, and for the lane-merge statistics kernels.
//!
//! CI runs this suite in a `threads: [1, 4]` matrix with `CVOPT_THREADS`
//! pinned; the pinned count is folded into every sweep below so the
//! scatter and kernels are exercised at that concurrency level on real
//! multi-core runners.

use proptest::prelude::*;

use cvopt_core::{CvOptSampler, ExecOptions, Norm, QuerySpec, SamplingProblem, StratifiedSample};
use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_table::agg::{AggState, LANES};
use cvopt_table::exec;
use cvopt_table::{DataType, GroupIndex, ScalarExpr, Table, TableBuilder, Value};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The standard sweep plus the CI matrix's pinned `CVOPT_THREADS` count.
fn thread_counts() -> Vec<usize> {
    let mut counts = THREAD_COUNTS.to_vec();
    if let Some(pinned) = std::env::var("CVOPT_THREADS").ok().and_then(|v| v.parse::<usize>().ok())
    {
        if !counts.contains(&pinned) {
            counts.push(pinned);
        }
    }
    counts
}

fn skewed_table() -> Table {
    generate_openaq(&OpenAqConfig::with_rows(20_000))
}

fn problem(norm: Norm) -> SamplingProblem {
    SamplingProblem::single(QuerySpec::group_by(&["country", "parameter"]).aggregate("value"), 400)
        .with_norm(norm)
}

/// Plans (statistics, betas, allocation) and samples (origin rows, weights)
/// must be identical across thread counts, bit for bit, for every norm.
#[test]
fn plan_and_sample_identical_across_threads() {
    let table = skewed_table();
    for norm in [Norm::L2, Norm::Lp(4.0), Norm::LInf] {
        let reference = CvOptSampler::new(problem(norm))
            .with_seed(7)
            .with_exec(ExecOptions::sequential())
            .sample(&table)
            .unwrap();
        for threads in thread_counts() {
            let outcome = CvOptSampler::new(problem(norm))
                .with_seed(7)
                .with_threads(threads)
                .sample(&table)
                .unwrap();
            // Plan: allocation and betas, bit-exact.
            assert_eq!(
                outcome.plan.allocation.sizes, reference.plan.allocation.sizes,
                "{norm:?}, threads {threads}: allocation differs"
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&outcome.plan.betas),
                bits(&reference.plan.betas),
                "{norm:?}, threads {threads}: betas differ"
            );
            // Statistics: populations and per-stratum means, bit-exact.
            assert_eq!(outcome.plan.stats.populations, reference.plan.stats.populations);
            for s in 0..outcome.plan.num_strata() {
                assert_eq!(
                    outcome.plan.stats.mean(s, 0).to_bits(),
                    reference.plan.stats.mean(s, 0).to_bits(),
                    "{norm:?}, threads {threads}: stratum {s} mean differs"
                );
            }
            // Sample: the exact same rows with the exact same weights.
            assert_eq!(
                outcome.sample.origin, reference.sample.origin,
                "{norm:?}, threads {threads}: drawn rows differ"
            );
            assert_eq!(bits(&outcome.sample.weights), bits(&reference.sample.weights));
        }
    }
}

/// Group ids assigned by the parallel build equal the sequential build's on
/// the standard dataset (all dimension kinds).
#[test]
fn group_ids_identical_across_threads() {
    let table = skewed_table();
    let exprs =
        [ScalarExpr::col("country"), ScalarExpr::col("parameter"), ScalarExpr::hour("local_time")];
    let reference = GroupIndex::build_with(&table, &exprs, &ExecOptions::sequential()).unwrap();
    for threads in thread_counts() {
        let index = GroupIndex::build_with(&table, &exprs, &ExecOptions::new(threads)).unwrap();
        assert_eq!(index.row_groups(), reference.row_groups(), "threads {threads}");
        assert_eq!(index.sizes(), reference.sizes());
        for g in 0..reference.num_groups() as u32 {
            assert_eq!(index.key(g), reference.key(g));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parallel `GroupIndex::build` matches sequential on random tables:
    /// same per-row group ids, same first-occurrence key order, same sizes.
    #[test]
    fn parallel_group_index_matches_sequential_on_random_tables(
        rows in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..400),
    ) {
        let mut b = TableBuilder::new(&[
            ("s", DataType::Str),
            ("i", DataType::Int64),
            ("j", DataType::Int64),
        ]);
        for (s, i, j) in &rows {
            b.push_row(&[
                Value::str(format!("k{}", s % 11)),
                Value::Int64((i % 13) as i64),
                Value::Int64((j % 5) as i64),
            ])
            .unwrap();
        }
        let table = b.finish();
        // Both the ≤2-dim packed path and the general path.
        for exprs in [
            vec![ScalarExpr::col("i")],
            vec![ScalarExpr::col("s"), ScalarExpr::col("i")],
            vec![ScalarExpr::col("s"), ScalarExpr::col("i"), ScalarExpr::col("j")],
        ] {
            let seq =
                GroupIndex::build_with(&table, &exprs, &ExecOptions::sequential()).unwrap();
            for threads in thread_counts().into_iter().filter(|&t| t > 1) {
                let par =
                    GroupIndex::build_with(&table, &exprs, &ExecOptions::new(threads))
                        .unwrap();
                prop_assert_eq!(par.row_groups(), seq.row_groups());
                prop_assert_eq!(par.sizes(), seq.sizes());
                prop_assert_eq!(par.num_groups(), seq.num_groups());
                for g in 0..seq.num_groups() as u32 {
                    prop_assert_eq!(par.key(g), seq.key(g));
                }
            }
        }
    }

    /// Seeded sampling is a pure function of `(table, problem, seed)` —
    /// never of the thread count — on random tables and budgets.
    #[test]
    fn sampling_thread_invariant_on_random_tables(
        rows in proptest::collection::vec((any::<u8>(), 0.5f64..1e3), 20..300),
        budget in 5usize..100,
        seed in any::<u64>(),
    ) {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("x", DataType::Float64),
        ]);
        for (g, x) in &rows {
            b.push_row(&[Value::str(format!("g{}", g % 6)), Value::Float64(*x)]).unwrap();
        }
        let table = b.finish();
        let spec = SamplingProblem::single(
            QuerySpec::group_by(&["g"]).aggregate("x"),
            budget,
        );
        let reference = CvOptSampler::new(spec.clone())
            .with_seed(seed)
            .with_threads(1)
            .sample(&table)
            .unwrap();
        for threads in thread_counts().into_iter().filter(|&t| t > 1) {
            let outcome = CvOptSampler::new(spec.clone())
                .with_seed(seed)
                .with_threads(threads)
                .sample(&table)
                .unwrap();
            prop_assert_eq!(&outcome.sample.origin, &reference.sample.origin);
            prop_assert_eq!(
                &outcome.plan.allocation.sizes,
                &reference.plan.allocation.sizes
            );
        }
    }
}

/// Deterministic pseudo-random stratum assignment (no RNG dependency).
fn random_strata(n: usize, num_strata: usize, seed: u64) -> Vec<u32> {
    let mut state = seed;
    (0..n)
        .map(|row| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(row as u64 | 1)
                .rotate_left(23);
            (state % num_strata as u64) as u32
        })
        .collect()
}

/// The two-phase parallel scatter equals the sequential stable counting
/// sort at the sizes where prefix/offset bugs hide: empty input, a single
/// row, and row counts that are not a multiple of the partition size.
#[test]
fn two_phase_scatter_matches_counting_sort_at_boundary_sizes() {
    for n in [0usize, 1, 65, exec::CHUNK_ROWS - 1, exec::CHUNK_ROWS + 1, 2 * exec::CHUNK_ROWS + 321]
    {
        let strata = random_strata(n, 11, 0xDECAF);
        let reference = exec::bucket_rows_sequential(&strata, 11);
        for threads in thread_counts() {
            let par = exec::bucket_rows(&strata, 11, &ExecOptions::new(threads));
            assert_eq!(par, reference, "n = {n}, threads = {threads}");
        }
    }
}

/// End to end through the draw: bucketing a real group index with the
/// scatter and running the per-stratum reservoirs yields bit-identical
/// samples for every thread count, including the CI-pinned one.
#[test]
fn stratified_draw_identical_across_threads_with_scatter() {
    let table = skewed_table();
    let index =
        GroupIndex::build(&table, &[ScalarExpr::col("country"), ScalarExpr::col("parameter")])
            .unwrap();
    let allocation: Vec<u64> = index.sizes().iter().map(|&n| (n / 8).max(1)).collect();
    let reference = StratifiedSample::draw(&index, &allocation, 99, &ExecOptions::sequential());
    for threads in thread_counts() {
        let par = StratifiedSample::draw(&index, &allocation, 99, &ExecOptions::new(threads));
        assert_eq!(par.rows_per_stratum, reference.rows_per_stratum, "threads {threads}");
    }
}

/// The optimized lane kernel matches its scalar reference with exact
/// `f64` equality on the deterministic lane-merge, on a buffer long enough
/// to exercise both the unrolled chunks and the remainder. This repeats
/// the `agg.rs` proptest contract on purpose: the CI determinism matrix
/// runs only this suite, and the kernel-exactness assertion must ride in
/// it.
#[test]
fn lane_kernel_matches_scalar_reference_bit_for_bit() {
    for len in [0usize, 1, 3, 4, 5, 1023, 100_003] {
        let values: Vec<f64> = (0..len).map(|i| (i as f64 * 0.61).sin() * 1e4).collect();
        let mut optimized = AggState::default();
        optimized.update_slice(&values);
        // The lane-merge contract, spelled with the public scalar pieces:
        // LANES plain accumulators fed round-robin, merged in lane order.
        let mut lanes = [AggState::default(); LANES];
        for (i, &v) in values.iter().enumerate() {
            lanes[i % LANES].update(v);
        }
        let mut reference = AggState::default();
        for lane in &lanes {
            reference.merge(lane);
        }
        assert_eq!(optimized.count, reference.count, "len {len}");
        assert_eq!(optimized.sum.to_bits(), reference.sum.to_bits(), "len {len}");
        assert_eq!(optimized.mean.to_bits(), reference.mean.to_bits(), "len {len}");
        assert_eq!(optimized.m2.to_bits(), reference.m2.to_bits(), "len {len}");
        assert_eq!(optimized.min.to_bits(), reference.min.to_bits(), "len {len}");
        assert_eq!(optimized.max.to_bits(), reference.max.to_bits(), "len {len}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two-phase scatter output equals the sequential counting sort for
    /// random stratum assignments spanning a partition boundary.
    #[test]
    fn two_phase_scatter_matches_counting_sort_random_strata(
        seed in any::<u64>(),
        num_strata in 1usize..60,
        extra in 0usize..200,
    ) {
        let n = exec::CHUNK_ROWS + extra;
        let strata = random_strata(n, num_strata, seed);
        let reference = exec::bucket_rows_sequential(&strata, num_strata);
        for threads in thread_counts().into_iter().filter(|&t| t > 1) {
            let par = exec::bucket_rows(&strata, num_strata, &ExecOptions::new(threads));
            prop_assert_eq!(&par, &reference, "threads = {}", threads);
        }
    }
}
