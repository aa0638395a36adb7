//! Sort-vs-hash group-by equivalence: the sort-based group index build is
//! an *implementation detail* — for any table, any dimension shape, any
//! thread count, and any shard layout it must produce **byte-identical**
//! output to the hash build (same per-row group ids, same first-occurrence
//! key order, same sizes). The planner may therefore switch strategies
//! freely without changing a single answer byte.
//!
//! CI runs this suite in the `CVOPT_THREADS` × `CVOPT_SHARDS` matrix with
//! both values pinned; the pinned counts are folded into every sweep.

use proptest::prelude::*;

use cvopt_core::{Engine, ExecOptions, QueryMode};
use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_table::{
    DataType, GroupIndex, GroupStrategy, QueryResult, ScalarExpr, ShardSet, ShardedTable, Table,
    TableBuilder, Value,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The standard thread sweep plus the CI matrix's pinned `CVOPT_THREADS`.
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

fn assert_identical(sort: &GroupIndex, hash: &GroupIndex, context: &str) {
    assert_eq!(sort.row_groups(), hash.row_groups(), "{context}: row groups");
    assert_eq!(sort.sizes(), hash.sizes(), "{context}: sizes");
    assert_eq!(sort.num_groups(), hash.num_groups(), "{context}: group count");
    for g in 0..hash.num_groups() as u32 {
        assert_eq!(sort.key(g), hash.key(g), "{context}: key of group {g}");
    }
}

/// The standard dataset, all dimension shapes: the sort build equals the
/// hash build bit for bit at every thread count.
#[test]
fn sort_build_matches_hash_build_on_openaq() {
    let table = generate_openaq(&OpenAqConfig::with_rows(20_000));
    let shapes: [Vec<ScalarExpr>; 4] = [
        vec![ScalarExpr::col("country")],
        vec![ScalarExpr::col("country"), ScalarExpr::col("parameter")],
        vec![ScalarExpr::col("country"), ScalarExpr::col("parameter"), ScalarExpr::col("unit")],
        vec![ScalarExpr::hour("local_time"), ScalarExpr::month("local_time")],
    ];
    for exprs in &shapes {
        for threads in thread_counts() {
            let options = ExecOptions::new(threads);
            let hash =
                GroupIndex::build_with_strategy(&table, exprs, &options, GroupStrategy::Hash)
                    .unwrap();
            let sort =
                GroupIndex::build_with_strategy(&table, exprs, &options, GroupStrategy::Sort)
                    .unwrap();
            assert_identical(&sort, &hash, &format!("{exprs:?}, threads {threads}"));
        }
    }
}

/// 2400 rows cycling through 200 keys: sparse for the whole table
/// (200 × 8 ≤ 2400, so the heuristic picks the hash build) but dense for
/// each shard of a 2- or 3-way split, which still sees all 200 keys over
/// 1200 or 800 rows (the heuristic picks the sort build).
fn dense_table() -> Table {
    let mut b = TableBuilder::new(&[("k", DataType::Str), ("v", DataType::Float64)]);
    for i in 0..2400usize {
        let v = ((i as f64) * 0.37).sin() * 40.0 + (i % 11) as f64;
        b.push_row(&[Value::str(format!("k{:03}", (i * 7) % 200)), Value::Float64(v)]).unwrap();
    }
    b.finish()
}

fn bits(result: &QueryResult) -> Vec<Vec<u64>> {
    result.values.iter().map(|row| row.iter().map(|v| v.to_bits()).collect()).collect()
}

/// The heuristic's own choice never changes a query answer — exact or
/// approximate: a plain registration builds its index by hash, a 3-shard
/// registration of the same rows builds every shard's index by sort, and
/// the answers are bit-equal.
#[test]
fn heuristic_strategy_never_changes_answer_bytes() {
    let table = dense_table();
    let sharded = ShardedTable::split(&table, 3).unwrap();
    let exprs = [ScalarExpr::col("k")];
    assert_eq!(GroupIndex::strategy_for(&table, &exprs).0, GroupStrategy::Hash);
    for shard in sharded.shards() {
        assert_eq!(GroupIndex::strategy_for(shard, &exprs).0, GroupStrategy::Sort);
    }
    let mut plain = Engine::new().with_seed(11).with_default_rate(0.5);
    plain.register("dense", table);
    let mut split = Engine::new().with_seed(11).with_default_rate(0.5);
    split.register("dense", sharded);
    for (sql, mode) in [
        ("SELECT k, SUM(v), COUNT(*) FROM dense GROUP BY k", QueryMode::Exact),
        ("SELECT k, AVG(v) FROM dense GROUP BY k", QueryMode::Approximate),
    ] {
        let a = plain.query(sql, mode).unwrap();
        let b = split.query(sql, mode).unwrap();
        // Reports summarize at table scale, where these keys are sparse.
        assert_eq!(a.report.group_by_strategy, "hash", "{mode:?}");
        assert!(a.report.group_by_reason.contains("sparse"), "{}", a.report.group_by_reason);
        assert_eq!(b.report.group_by_strategy, "hash", "{mode:?}");
        assert_eq!(a.results[0].keys, b.results[0].keys, "{mode:?} keys");
        assert_eq!(bits(&a.results[0]), bits(&b.results[0]), "{mode:?} values");
    }
}

/// The sharded build composes with the sort strategy: shard group indexes
/// built sorted merge to the same global index the hash build produces
/// over the whole table.
#[test]
fn sorted_build_is_invisible_to_sharded_grouping() {
    let table = dense_table();
    let exprs = [ScalarExpr::col("k")];
    for threads in thread_counts() {
        let options = ExecOptions::new(threads);
        let hash =
            GroupIndex::build_with_strategy(&table, &exprs, &options, GroupStrategy::Hash).unwrap();
        for shards in [2usize, 3] {
            let set = ShardSet::from(ShardedTable::split(&table, shards).unwrap());
            let merged = set.rows().group_index(&exprs, &options).unwrap();
            assert_identical(&merged, &hash, &format!("{shards} shards, threads {threads}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random tables, both the ≤2-dim packed sort path and the general
    /// lexicographic path, across the thread sweep: sort == hash, bit for
    /// bit.
    #[test]
    fn sort_build_matches_hash_build_on_random_tables(
        rows in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..400),
    ) {
        let mut b = TableBuilder::new(&[
            ("s", DataType::Str),
            ("i", DataType::Int64),
            ("j", DataType::Int64),
        ]);
        for (s, i, j) in &rows {
            b.push_row(&[
                Value::str(format!("k{}", s % 7)),
                Value::Int64((i % 17) as i64),
                Value::Int64((j % 3) as i64),
            ])
            .unwrap();
        }
        let table = b.finish();
        for exprs in [
            vec![ScalarExpr::col("i")],
            vec![ScalarExpr::col("s"), ScalarExpr::col("i")],
            vec![ScalarExpr::col("s"), ScalarExpr::col("i"), ScalarExpr::col("j")],
        ] {
            for threads in thread_counts() {
                let options = ExecOptions::new(threads);
                let hash = GroupIndex::build_with_strategy(
                    &table, &exprs, &options, GroupStrategy::Hash,
                ).unwrap();
                let sort = GroupIndex::build_with_strategy(
                    &table, &exprs, &options, GroupStrategy::Sort,
                ).unwrap();
                prop_assert_eq!(sort.row_groups(), hash.row_groups(), "threads {}", threads);
                prop_assert_eq!(sort.sizes(), hash.sizes());
                prop_assert_eq!(sort.num_groups(), hash.num_groups());
                for g in 0..hash.num_groups() as u32 {
                    prop_assert_eq!(sort.key(g), hash.key(g));
                }
            }
        }
    }
}

/// Partition-boundary sizes — where renumbering and merge bugs hide.
#[test]
fn sort_build_matches_hash_at_boundary_sizes() {
    use cvopt_table::exec::CHUNK_ROWS;
    for n in [0usize, 1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 321] {
        let mut b = TableBuilder::new(&[("g", DataType::Int64)]);
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            b.push_row(&[Value::Int64((state % 23) as i64)]).unwrap();
        }
        let table = b.finish();
        let exprs = [ScalarExpr::col("g")];
        for threads in thread_counts() {
            let options = ExecOptions::new(threads);
            let hash =
                GroupIndex::build_with_strategy(&table, &exprs, &options, GroupStrategy::Hash)
                    .unwrap();
            let sort =
                GroupIndex::build_with_strategy(&table, &exprs, &options, GroupStrategy::Sort)
                    .unwrap();
            assert_identical(&sort, &hash, &format!("n {n}, threads {threads}"));
        }
    }
}
