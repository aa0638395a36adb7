//! Determinism under parallelism: the execution layer guarantees that
//! plans, group ids, and drawn samples are identical for every thread
//! count. These tests pin that guarantee for all three norms and for the
//! group-index build on random tables, for the strata pass whose runs the
//! statistics fold and the stratified draw read — against a sequential
//! reference, over every shard layout — and for the lane-merge statistics
//! kernels.
//!
//! CI runs this suite in a `threads: [1, 4]` matrix with `CVOPT_THREADS`
//! pinned; the pinned count is folded into every sweep below so the
//! strata pass and kernels are exercised at that concurrency level on real
//! multi-core runners.

use std::sync::Arc;

use proptest::prelude::*;

use cvopt_core::{
    problem_for_query, CvOptSampler, ExecOptions, Norm, QuerySpec, SamplingProblem,
    StratifiedSample,
};
use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_net::{Peer, RemoteShard, Shardd};
use cvopt_table::agg::{AggState, LANES};
use cvopt_table::exec;
use cvopt_table::groupby::Strata;
use cvopt_table::{
    sql, DataType, GroupIndex, RowSpace, ScalarExpr, ShardReader, ShardSet, ShardedTable, Table,
    TableBuilder, Value,
};

mod common;
use common::strata::{bits, counting_sort, statistics, Opaque};

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

/// A strata pass that only buckets.
fn bucket(rows: &RowSpace<'_>, exprs: &[ScalarExpr], options: &ExecOptions) -> Strata {
    Strata::collect(rows, exprs, &[], options, || {}, |_, _| {}).unwrap()
}

/// `strata` lists the strata of `index` — and, when they hold their rows in
/// process, each as its rows ascending.
fn assert_chains(strata: &Strata, index: &GroupIndex, what: &str) {
    let want = counting_sort(index.row_groups(), index.num_groups());
    assert_eq!(strata.sizes(), index.sizes(), "{what}");
    assert_eq!(strata.num_strata(), index.num_groups(), "{what}");
    for (c, want) in want.iter().enumerate() {
        assert_eq!(strata.keys()[c], index.key(c as u32), "{what}: stratum {c}");
        if strata.in_process() {
            let got: Vec<u32> = strata.rows(c).flatten().copied().collect();
            assert_eq!(&got, want, "{what}: stratum {c}'s rows");
        }
    }
}

/// Bucket `strata` (one stratum id per row) both ways the pass is keyed —
/// packed codes and an index's ids — at every thread count.
fn check_runs(strata: &[u32], what: &str) {
    let mut b = TableBuilder::new(&[("g", DataType::Int64)]);
    for &c in strata {
        b.push_row(&[Value::Int64(i64::from(c))]).unwrap();
    }
    let table = b.finish();
    let exprs = [ScalarExpr::col("g")];
    let index = GroupIndex::build_with(&table, &exprs, &ExecOptions::sequential()).unwrap();
    for threads in thread_counts() {
        let options = ExecOptions::new(threads);
        let what = format!("{what}, threads {threads}");
        assert_chains(&bucket(&(&table).into(), &exprs, &options), &index, &what);
        let by_ids = Strata::of_index(&index, &options, |_| (), |_, ()| ()).unwrap();
        assert_chains(&by_ids, &index, &format!("{what}, ids"));
    }
}

/// The strata pass's runs equal the sequential stable counting sort at the
/// sizes where offset bugs hide: empty input, a single row, and row counts
/// that are not a multiple of the partition size.
#[test]
fn strata_runs_match_counting_sort_at_boundary_sizes() {
    for n in [0usize, 1, 65, exec::CHUNK_ROWS - 1, exec::CHUNK_ROWS + 1, 2 * exec::CHUNK_ROWS + 321]
    {
        check_runs(&random_strata(n, 11, 0xDECAF), &format!("n = {n}"));
    }
}

/// End to end through the draw: bucketing a real group index with the
/// strata pass and running the per-stratum reservoirs yields bit-identical
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

/// Rows of the layout sweep: three partitions, the last one partial.
const SWEEP_ROWS: usize = 2 * exec::CHUNK_ROWS + 777;

/// The sweep's table. `g` has a stratum on one row of the middle partition
/// only (`solo`) and one whose `x / d` never has a value (`nulls`, where
/// `d` is 0); `(h, k)` has a key bound of 300 × 300, above a partition's
/// rows, over about 600 strata.
fn sweep_table() -> Table {
    let mut b = TableBuilder::new(&[
        ("g", DataType::Str),
        ("h", DataType::Int64),
        ("k", DataType::Int64),
        ("j", DataType::Int64),
        ("x", DataType::Float64),
        ("d", DataType::Float64),
    ]);
    let picks = random_strata(SWEEP_ROWS, 1 << 20, 0x5EED);
    for (row, &pick) in picks.iter().enumerate() {
        let g = match pick % 8 {
            _ if row == exec::CHUNK_ROWS + 4321 => "solo".to_string(),
            7 => "nulls".to_string(),
            p => format!("g{p}"),
        };
        let h = i64::from(pick % 300);
        b.push_row(&[
            Value::str(g.as_str()),
            Value::Int64(h),
            Value::Int64((h + i64::from(pick >> 19 & 1)) % 300),
            Value::Int64(i64::from(pick >> 9) % 3),
            Value::Float64(1.0 + f64::from(pick % 997) * 0.37),
            Value::Float64(if g == "nulls" { 0.0 } else { 2.0 }),
        ])
        .unwrap();
    }
    b.finish()
}

/// A reader-backed set: every shard answers through the reader surface.
fn reader_backed(sharded: &ShardedTable) -> ShardSet {
    let readers = sharded.shards().iter().map(|t| Arc::new(Opaque::of(t.clone())) as _).collect();
    ShardSet::new(readers).unwrap()
}

/// The same layout with its shards behind the two shard servers `peers`.
fn behind(peers: &[Arc<Peer>], sharded: &ShardedTable) -> ShardSet {
    let readers: Vec<Arc<dyn ShardReader>> = sharded
        .shards()
        .iter()
        .enumerate()
        .map(|(s, shard)| {
            let peer = Arc::clone(&peers[s % peers.len()]);
            Arc::new(RemoteShard::register(peer, format!("sweep/{s}"), shard).unwrap()) as _
        })
        .collect();
    ShardSet::new(readers).unwrap()
}

/// The strata pass against the sequential reference, for a plain table, 3
/// in-process shards whose boundaries fall inside partitions, a layout with
/// an empty shard, reader-backed shards, and shards behind a pair of
/// in-process shard servers, at 1 and 4 threads: a hashed key space, a
/// cube, a stratum in one partition only and a stratum whose values are all
/// missing. Keys, sizes and runs equal the counting sort's; statistics equal
/// the gathering pass's bit for bit; the draw equals the one over the
/// reference index.
#[test]
fn strata_pass_matches_the_reference_for_every_layout() {
    let table = sweep_table();
    let take = |lo: usize, hi: usize| table.take(&(lo..hi).collect::<Vec<_>>());
    let empty = TableBuilder::from_schema(table.schema().clone()).finish();
    let three = ShardedTable::from_tables(vec![
        take(0, 40_000),
        take(40_000, 100_000),
        take(100_000, SWEEP_ROWS),
    ])
    .unwrap();
    let with_empty =
        ShardedTable::from_tables(vec![take(0, 70_000), empty, take(70_000, SWEEP_ROWS)]).unwrap();
    let mut servers =
        [Shardd::bind("127.0.0.1:0", 2).unwrap(), Shardd::bind("127.0.0.1:0", 2).unwrap()];
    let peers = servers.each_ref().map(|s| Arc::new(Peer::connect(s.addr().to_string()).unwrap()));
    let layouts = [
        ("plain", ShardSet::from(table.clone())),
        ("3 shards", ShardSet::from(three.clone())),
        ("empty shard", ShardSet::from(with_empty)),
        ("reader-backed", reader_backed(&three)),
        ("shardd pair", behind(&peers, &three)),
    ];
    let budget = SWEEP_ROWS / 50;
    for stmt in [
        "SELECT g, AVG(x / d) FROM t GROUP BY g",
        "SELECT h, k, SUM(x) FROM t GROUP BY h, k",
        "SELECT g, j, SUM(x), AVG(x) FROM t GROUP BY g, j WITH CUBE",
    ] {
        let problem = problem_for_query(&sql::compile(stmt).unwrap(), budget).unwrap();
        let (exprs, columns) = (problem.finest_stratification(), problem.aggregate_columns());
        let seq = ExecOptions::sequential();
        let index = GroupIndex::build_with(&table, &exprs, &seq).unwrap();
        let want = statistics(&table, &index, &columns);
        let sampler = CvOptSampler::new(problem).with_seed(7);
        let allocation =
            sampler.clone().with_exec(seq.clone()).plan(&table).unwrap().allocation.sizes;
        let drawn = StratifiedSample::draw(&index, &allocation, 7, &seq).rows_per_stratum;
        for (layout, set) in &layouts {
            for threads in [1usize, 4] {
                let what = format!("{stmt}: {layout}, threads {threads}");
                let options = ExecOptions::new(threads);
                assert_chains(&bucket(&set.rows(), &exprs, &options), &index, &what);
                let outcome = sampler.clone().with_exec(options).sample(set).unwrap();
                let plan = &outcome.plan;
                assert_eq!(plan.num_strata(), index.num_groups(), "{what}");
                assert_eq!(plan.stats.populations, index.sizes(), "{what}");
                for (c, (got, want)) in plan.stats.states.iter().zip(&want).enumerate() {
                    assert_eq!(plan.strata_keys[c], index.key(c as u32), "{what}");
                    let (got, want): (Vec<_>, Vec<_>) =
                        (got.iter().map(bits).collect(), want.iter().map(bits).collect());
                    assert_eq!(got, want, "{what}: stratum {c}'s statistics");
                }
                assert_eq!(plan.allocation.sizes, allocation, "{what}");
                let mut rows_per_stratum = vec![Vec::new(); index.num_groups()];
                for (&row, &c) in outcome.sample.origin.iter().zip(&outcome.sample.row_stratum) {
                    rows_per_stratum[c as usize].push(row);
                }
                assert_eq!(rows_per_stratum, drawn, "{what}: drawn rows");
            }
        }
    }
    for server in &mut servers {
        server.shutdown();
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

    /// The strata pass's runs equal the sequential counting sort for random
    /// stratum assignments spanning a partition boundary.
    #[test]
    fn strata_runs_match_counting_sort_random_strata(
        seed in any::<u64>(),
        num_strata in 1usize..60,
        extra in 0usize..200,
    ) {
        check_runs(&random_strata(exec::CHUNK_ROWS + extra, num_strata, seed), "random");
    }
}
