//! Group index == naive reference: for any table, any dimension shape, any
//! thread count, and any shard layout, [`GroupIndex`] must equal what one
//! pass over the rows with a map of key tuples assigns — the same per-row
//! group ids, the same first-occurrence key order, the same sizes. The
//! reference below shares nothing with the code under test: no dimension
//! codes, no packed keys, no partitions, no merge.
//!
//! CI runs this suite in the `CVOPT_THREADS` × `CVOPT_SHARDS` matrix with
//! both values pinned; the pinned counts are folded into every sweep.

use std::collections::HashMap;

use proptest::prelude::*;

use cvopt_core::{Engine, ExecOptions, QueryMode};
use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_table::exec::CHUNK_ROWS;
use cvopt_table::{
    DataType, GroupIndex, KeyAtom, QueryResult, ScalarExpr, ShardSet, ShardedTable, Table,
    TableBuilder, Value,
};

/// A standard sweep plus the CI matrix's pinned value of `var`.
fn swept(standard: &[usize], var: &str) -> Vec<usize> {
    let mut counts = standard.to_vec();
    if let Some(pinned) = std::env::var(var).ok().and_then(|v| v.parse::<usize>().ok()) {
        if pinned > 0 && !counts.contains(&pinned) {
            counts.push(pinned);
        }
    }
    counts
}

/// The reference: rows in order, each row's key tuple read value by value,
/// ids handed out at first occurrence. Returns (row ids, keys, sizes).
fn reference(table: &Table, exprs: &[ScalarExpr]) -> (Vec<u32>, Vec<Vec<KeyAtom>>, Vec<u64>) {
    let bound: Vec<_> = exprs.iter().map(|e| e.bind(table).unwrap()).collect();
    let (mut ids, mut keys, mut sizes) = (Vec::new(), Vec::new(), Vec::<u64>::new());
    let mut seen: HashMap<Vec<KeyAtom>, u32> = HashMap::new();
    for row in 0..table.num_rows() {
        let atom = |value| match value {
            Value::Str(s) => KeyAtom::Str(s),
            Value::Int64(v) | Value::Timestamp(v) => KeyAtom::Int(v),
            other => panic!("{other:?} is not a group key"),
        };
        let key: Vec<KeyAtom> = bound.iter().map(|b| atom(b.value_at(row))).collect();
        let id = *seen.entry(key.clone()).or_insert_with(|| {
            keys.push(key);
            sizes.push(0);
            keys.len() as u32 - 1
        });
        sizes[id as usize] += 1;
        ids.push(id);
    }
    (ids, keys, sizes)
}

/// `table` grouped by `exprs` equals the reference at every swept thread
/// count, built whole and merged from every swept shard split.
fn assert_matches_reference(table: &Table, exprs: &[ScalarExpr], context: &str) {
    let (ids, keys, sizes) = reference(table, exprs);
    let check = |index: GroupIndex, how: String| {
        assert_eq!(index.row_groups(), ids, "{context}, {how}: row groups");
        assert_eq!(index.sizes(), sizes, "{context}, {how}: sizes");
        let got: Vec<&[KeyAtom]> = (0..index.num_groups() as u32).map(|g| index.key(g)).collect();
        assert_eq!(got, keys, "{context}, {how}: keys");
    };
    for threads in swept(&[1, 2, 8], "CVOPT_THREADS") {
        let options = ExecOptions::new(threads);
        check(
            GroupIndex::build_with(table, exprs, &options).unwrap(),
            format!("{threads} threads"),
        );
        for shards in swept(&[2, 3], "CVOPT_SHARDS") {
            if shards > 1 && shards <= table.num_rows() {
                let set = ShardSet::from(ShardedTable::split(table, shards).unwrap());
                let merged = set.rows().group_index(exprs, &options).unwrap();
                check(merged, format!("{threads} threads, {shards} shards"));
            }
        }
    }
}

/// The standard dataset at every key arity from one to five dimensions.
#[test]
fn index_matches_reference_on_openaq() {
    let table = generate_openaq(&OpenAqConfig::with_rows(20_000));
    let five = [
        ScalarExpr::col("country"),
        ScalarExpr::col("parameter"),
        ScalarExpr::col("unit"),
        ScalarExpr::month("local_time"),
        ScalarExpr::hour("local_time"),
    ];
    for arity in 1..=5 {
        assert_matches_reference(&table, &five[..arity], &format!("{arity} dims"));
    }
    let calendar = [ScalarExpr::hour("local_time"), ScalarExpr::month("local_time")];
    assert_matches_reference(&table, &calendar, "hour, month");
}

/// 2400 rows cycling through 200 keys: every shard of a 2- or 3-way split
/// still sees all 200 keys, in a different first-occurrence order.
fn dense_table() -> Table {
    let mut b = TableBuilder::new(&[("k", DataType::Str), ("v", DataType::Float64)]);
    for i in 0..2400usize {
        let v = ((i as f64) * 0.37).sin() * 40.0 + (i % 11) as f64;
        b.push_row(&[Value::str(format!("k{:03}", (i * 7) % 200)), Value::Float64(v)]).unwrap();
    }
    b.finish()
}

#[test]
fn dense_keys_match_reference_across_shard_splits() {
    assert_matches_reference(&dense_table(), &[ScalarExpr::col("k")], "dense");
}

fn bits(result: &QueryResult) -> Vec<Vec<u64>> {
    result.values.iter().map(|row| row.iter().map(|v| v.to_bits()).collect()).collect()
}

/// A shard layout never changes a query answer — exact or approximate: a
/// plain registration and a 3-shard registration of the same rows answer
/// bit-equal through `Engine::query`.
#[test]
fn shard_layout_never_changes_answer_bytes() {
    let table = dense_table();
    let sharded = ShardedTable::split(&table, 3).unwrap();
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
        assert_eq!(a.results[0].keys, b.results[0].keys, "{mode:?} keys");
        assert_eq!(bits(&a.results[0]), bits(&b.results[0]), "{mode:?} values");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random tables at one, two and three dimensions.
    #[test]
    fn index_matches_reference_on_random_tables(
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
        let dims = [ScalarExpr::col("s"), ScalarExpr::col("i"), ScalarExpr::col("j")];
        assert_matches_reference(&table, &dims[1..2], "i");
        assert_matches_reference(&table, &dims[..2], "s, i");
        assert_matches_reference(&table, &dims, "s, i, j");
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Partition-boundary sizes — where merge bugs hide — the empty table
/// included, alone and beside a dimension with a single label.
#[test]
fn index_matches_reference_at_boundary_sizes() {
    for n in [0usize, 1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 321] {
        let mut b = TableBuilder::new(&[("g", DataType::Int64), ("one", DataType::Str)]);
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..n {
            let g = (xorshift(&mut state) % 23) as i64;
            b.push_row(&[Value::Int64(g), Value::str("only")]).unwrap();
        }
        let table = b.finish();
        assert_matches_reference(&table, &[ScalarExpr::col("g")], &format!("n {n}"));
        let with_constant = [ScalarExpr::col("one"), ScalarExpr::col("g")];
        assert_matches_reference(&table, &with_constant, &format!("n {n}, one label"));
    }
}

/// Five integer dimensions of ≈ 2¹⁴ distinct values each: the key space
/// (≈ 2⁷⁰) overflows a `u64`, so the index folds a four-dimension prefix
/// into dense ids before interning the fifth — over more than one
/// partition, so both stages also merge.
#[test]
fn overflowing_key_space_matches_reference() {
    let names = ["a", "b", "c", "d", "e"];
    let fields: Vec<(&str, DataType)> = names.iter().map(|&n| (n, DataType::Int64)).collect();
    let mut b = TableBuilder::new(&fields);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for i in 0..CHUNK_ROWS + 4_321 {
        // Every fifth row repeats an earlier one, often from another partition.
        let row = if i % 5 == 4 {
            rows[i / 2].clone()
        } else {
            let mut draw = || Value::Int64((xorshift(&mut state) >> 20) as i64 % 16_384);
            names.iter().map(|_| draw()).collect()
        };
        b.push_row(&row).unwrap();
        rows.push(row);
    }
    let table = b.finish();
    let exprs: Vec<ScalarExpr> = names.iter().map(|&n| ScalarExpr::col(n)).collect();
    assert_matches_reference(&table, &exprs, "overflow");
}
