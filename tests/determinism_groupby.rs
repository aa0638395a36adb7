//! Group index == naive reference: for any table, any dimension shape, any
//! thread count, and any shard layout, [`GroupIndex`] must equal what one
//! pass over the rows with a map of key tuples assigns — the same per-row
//! group ids, the same first-occurrence key order, the same sizes. The
//! reference below shares nothing with the code under test: no dimension
//! codes, no packed keys, no slot tables, no merge.
//!
//! Exact answers == naive reference, bit for bit: the answer contract is
//! restated the same way, from the reference ids — fine groups in
//! first-occurrence order over every row, each folded per global partition
//! in row order over the rows the predicate keeps, partitions merged in
//! order, fine groups merged onto each grouping set in id order.
//!
//! CI runs this suite in the `CVOPT_THREADS` × `CVOPT_SHARDS` matrix with
//! both values pinned; the pinned counts are folded into every sweep.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use cvopt_core::{Engine, ExecOptions, QueryMode};
use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_table::agg::AggState;
use cvopt_table::exec::CHUNK_ROWS;
use cvopt_table::{
    grouping_sets, AggExpr, CmpOp, DataType, GroupByQuery, GroupIndex, KeyAtom, Predicate,
    QueryResult, ScalarExpr, ShardSet, ShardedTable, Table, TableBuilder, Value,
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

/// Rows of one grouping set's answer: key, value bits, contributing rows.
type AnswerRows = Vec<(Vec<KeyAtom>, Vec<u64>, u64)>;

/// `SUM(value), COUNT(*), AVG(value)` by `exprs`, kept to `value > cut`
/// when a cut is given.
fn statement(exprs: &[ScalarExpr], value: &str, cut: Option<f64>, cube: bool) -> GroupByQuery {
    let aggregates = vec![AggExpr::sum(value), AggExpr::count(), AggExpr::avg(value)];
    let mut query = GroupByQuery::new(exprs.to_vec(), aggregates);
    query.predicate = cut.map(|cut| Predicate::cmp(value, CmpOp::Gt, cut));
    query.cube = cube;
    query
}

fn answer_rows(results: &[QueryResult]) -> Vec<AnswerRows> {
    let rows = |r: &QueryResult| -> AnswerRows {
        let bits = r.values.iter().map(|v| v.iter().map(|x| x.to_bits()).collect());
        r.keys.iter().cloned().zip(bits).zip(&r.group_rows).map(|((k, b), &n)| (k, b, n)).collect()
    };
    results.iter().map(rows).collect()
}

/// [`statement`]'s answer as the contract defines it, from the reference
/// ids: one `AggState` per fine group stands for the `SUM` and `AVG`
/// accumulators (they take the same values in the same order) and its count
/// for `COUNT(*)`. The empty grouping set answers one row even over no rows.
fn reference_answer(
    table: &Table,
    exprs: &[ScalarExpr],
    value: &str,
    cut: Option<f64>,
    cube: bool,
) -> Vec<AnswerRows> {
    let (ids, keys, _) = reference(table, exprs);
    let values = ScalarExpr::col(value).bind(table).unwrap();
    let mut fine = vec![AggState::default(); keys.len()];
    for start in (0..table.num_rows()).step_by(CHUNK_ROWS) {
        let mut partition: HashMap<u32, AggState> = HashMap::new();
        let end = table.num_rows().min(start + CHUNK_ROWS);
        for (row, &id) in (start..end).zip(&ids[start..end]) {
            let v = values.f64_at(row).unwrap();
            if cut.is_none_or(|cut| v > cut) {
                partition.entry(id).or_default().update(v);
            }
        }
        for (id, state) in partition {
            fine[id as usize].merge(&state);
        }
    }
    let sets = if cube { grouping_sets(exprs.len()) } else { vec![(0..exprs.len()).collect()] };
    let answer = |dims: &Vec<usize>| {
        let mut coarse: BTreeMap<Vec<KeyAtom>, AggState> = BTreeMap::new();
        for (key, state) in keys.iter().zip(&fine) {
            coarse.entry(dims.iter().map(|&d| key[d].clone()).collect()).or_default().merge(state);
        }
        let mut rows: AnswerRows = coarse
            .into_iter()
            .filter(|(_, s)| s.count > 0)
            .map(|(key, s)| (key, vec![s.sum, s.count as f64, s.mean], s.count))
            .map(|(key, v, n)| (key, v.iter().map(|x| x.to_bits()).collect(), n))
            .collect();
        if dims.is_empty() && rows.is_empty() {
            rows.push((Vec::new(), [f64::NAN, 0.0, f64::NAN].map(f64::to_bits).to_vec(), 0));
        }
        rows
    };
    sets.iter().map(answer).collect()
}

/// [`statement`] over `table` answers the reference bit for bit at every
/// swept thread count: over the table itself, every swept shard split, and
/// every layout in `layouts` (the same rows cut some other way).
fn assert_answers_match_reference(
    table: &Table,
    exprs: &[ScalarExpr],
    (value, cut, cube): (&str, Option<f64>, bool),
    layouts: &[ShardedTable],
    context: &str,
) {
    let want = reference_answer(table, exprs, value, cut, cube);
    let query = statement(exprs, value, cut, cube);
    let mut sets: Vec<(String, ShardSet)> = vec![("whole".into(), ShardSet::from(table.clone()))];
    for shards in swept(&[2, 3], "CVOPT_SHARDS") {
        if shards > 1 && shards <= table.num_rows() {
            let split = ShardedTable::split(table, shards).unwrap();
            sets.push((format!("{shards} shards"), ShardSet::from(split)));
        }
    }
    for (i, layout) in layouts.iter().enumerate() {
        sets.push((format!("layout {i} {:?}", layout.shard_rows()), layout.clone().into()));
    }
    for threads in swept(&[1, 4], "CVOPT_THREADS") {
        for (how, set) in &sets {
            let got = query.execute_with(set, &ExecOptions::new(threads)).unwrap();
            assert!(answer_rows(&got) == want, "{context}: {how}, {threads} threads");
        }
    }
}

/// The standard dataset at every key arity from one to five dimensions,
/// and the durable four-dimension stratification, whose key space
/// (countries × parameters × units × locations) is larger than any
/// partition: it takes the hash map, never the slot table. Under a
/// selective `value > cut` most of its fine groups fold no row, so the
/// identity read-out — a plain statement's set and a cube's full set — and
/// the cube's projected sets must skip exactly the empty ones.
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

    let durable: Vec<ScalarExpr> =
        ["country", "parameter", "unit", "location"].map(ScalarExpr::col).to_vec();
    let radices: Vec<usize> = ["country", "parameter", "unit", "location"]
        .iter()
        .map(|c| table.column_by_name(c).unwrap().dictionary().unwrap().len())
        .collect();
    assert!(radices.iter().product::<usize>() > CHUNK_ROWS, "{radices:?}");
    assert_matches_reference(&table, &durable, "durable");
    assert_answers_match_reference(&table, &durable, ("value", None, false), &[], "durable");

    let values = ScalarExpr::col("value").bind(&table).unwrap();
    let mut sorted: Vec<f64> = (0..table.num_rows()).map(|r| values.f64_at(r).unwrap()).collect();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted[sorted.len() * 99 / 100];
    let folded = reference_answer(&table, &durable, "value", Some(cut), false)[0].len();
    let fine = reference(&table, &durable).1.len();
    assert!(0 < folded && 2 * folded < fine, "{folded} of {fine} fine groups fold a row");
    for cube in [false, true] {
        let context = format!("durable, value > {cut}, cube {cube}");
        assert_answers_match_reference(&table, &durable, ("value", Some(cut), cube), &[], &context);
    }
}

/// A cube under a selective predicate: fine groups are interned from every
/// row, kept or not, so `coarsen` merges them in all-row first-occurrence
/// order. Interning only the kept rows would merge the same states in
/// another order and move the coarse sets' bits.
#[test]
fn cube_under_a_selective_predicate_matches_reference() {
    let table = generate_openaq(&OpenAqConfig::with_rows(3 * CHUNK_ROWS / 2));
    let dims = [ScalarExpr::col("country"), ScalarExpr::col("parameter")];
    for cut in [2.0, 40.0, f64::INFINITY] {
        let context = format!("value > {cut}");
        assert_answers_match_reference(&table, &dims, ("value", Some(cut), true), &[], &context);
    }
}

/// Two partitions and a short tail over string dimensions of 256, 256 and
/// 257 labels: `(a, b)`'s key space is exactly one partition's rows (the
/// slot table), `(a, c)`'s one more (the hash map), and a block of the whole
/// table on one worker takes the slot table for both. Every full partition
/// holds every `(a, b)` key. One extra layout cuts the rows inside a
/// partition on both sides of an empty shard.
#[test]
fn slot_table_boundary_matches_reference() {
    let n = 2 * CHUNK_ROWS + 123;
    let mut b = TableBuilder::new(&[
        ("a", DataType::Str),
        ("b", DataType::Str),
        ("c", DataType::Str),
        ("v", DataType::Float64),
    ]);
    for i in 0..n {
        b.push_row(&[
            Value::str(format!("a{:03}", i % 256)),
            Value::str(format!("b{:03}", (i / 256) % 256)),
            Value::str(format!("c{:03}", (i * 7 + i / 1000) % 257)),
            Value::Float64((i as f64 * 0.37).sin() * 100.0),
        ])
        .unwrap();
    }
    let table = b.finish();
    let piece = |lo: usize, hi: usize| table.take(&(lo..hi).collect::<Vec<_>>());
    let straddling = ShardedTable::from_tables(vec![
        piece(0, 1000),
        piece(0, 0),
        piece(1000, CHUNK_ROWS + 77),
        piece(CHUNK_ROWS + 77, n),
    ])
    .unwrap();
    for (dims, bound) in [(["a", "b"], CHUNK_ROWS), (["a", "c"], CHUNK_ROWS + 256)] {
        let exprs = dims.map(ScalarExpr::col);
        let context = format!("{dims:?}, key space {bound}");
        assert_matches_reference(&table, &exprs, &context);
        let (ids, _, sizes) = reference(&table, &exprs);
        let set = ShardSet::from(straddling.clone());
        let index = set.rows().group_index(&exprs, &ExecOptions::new(4)).unwrap();
        assert_eq!((index.row_groups(), index.sizes()), (&ids[..], &sizes[..]), "{context}");
        let layouts = [straddling.clone()];
        assert_answers_match_reference(&table, &exprs, ("v", None, false), &layouts, &context);
        assert_answers_match_reference(&table, &exprs, ("v", Some(50.0), true), &layouts, &context);
    }
}

/// Shards whose dictionaries list the same strings in different orders:
/// the second half of the rows cycles the keys backwards, so the second
/// shard's dictionary is the first one's reversed, and its codes must be
/// translated into one code space before a key is packed.
#[test]
fn reordered_shard_dictionaries_match_reference() {
    let (m, n) = (37usize, 3000usize);
    let mut b = TableBuilder::new(&[
        ("k", DataType::Str),
        ("g", DataType::Int64),
        ("v", DataType::Float64),
    ]);
    for i in 0..n {
        let k = if i < n / 2 { i % m } else { m - 1 - (i - n / 2) % m };
        let v = ((i as f64) * 0.61).cos() * 10.0;
        b.push_row(&[
            Value::str(format!("k{k:02}")),
            Value::Int64((i % 5) as i64),
            Value::Float64(v),
        ])
        .unwrap();
    }
    let table = b.finish();
    let halves = ShardedTable::split(&table, 2).unwrap();
    let dict = |s: usize| -> Vec<String> {
        let column = halves.shards()[s].column_by_name("k").unwrap();
        column.dictionary().unwrap().iter().map(|(_, s)| s.to_string()).collect()
    };
    let mut reversed = dict(1);
    reversed.reverse();
    assert_eq!(dict(0), reversed, "the halves list the same keys in opposite orders");
    let exprs = [ScalarExpr::col("k"), ScalarExpr::col("g")];
    assert_answers_match_reference(
        &table,
        &exprs,
        ("v", None, false),
        std::slice::from_ref(&halves),
        "k, g",
    );
    assert_answers_match_reference(&table, &exprs[..1], ("v", Some(0.0), true), &[halves], "k");
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
    let (table, k) = (dense_table(), [ScalarExpr::col("k")]);
    assert_matches_reference(&table, &k, "dense");
    assert_answers_match_reference(&table, &k, ("v", Some(5.0), false), &[], "dense");
}

/// `YEAR` and `MONTH` of timestamps from late 1968 into 1970 — negative
/// seconds, year ends, a span of days well under the row count, so they
/// pack through a day table — and of a handful of rows a century apart,
/// whose span is wider than the rows, so their values are interned: both
/// equal the reference, whole and across shard splits.
#[test]
fn date_parts_match_reference_either_side_of_the_day_table() {
    let start = cvopt_table::time::epoch_seconds(1968, 12, 25, 0, 0, 0);
    let table = |n: usize, step: i64| {
        let mut b = TableBuilder::new(&[
            ("t", DataType::Timestamp),
            ("g", DataType::Str),
            ("v", DataType::Float64),
        ]);
        for i in 0..n {
            b.push_row(&[
                Value::Timestamp(start + (i as i64 * 7919) % 400 * step + i as i64 % 86_400),
                Value::str(["a", "b", "c"][i % 3]),
                Value::Float64((i as f64 * 0.37).sin() * 10.0),
            ])
            .unwrap();
        }
        b.finish()
    };
    let dims = [ScalarExpr::col("g"), ScalarExpr::month("t"), ScalarExpr::year("t")];
    let days = table(5000, 86_400);
    assert_matches_reference(&days, &dims, "day table");
    assert_answers_match_reference(&days, &dims, ("v", Some(0.0), true), &[], "day table");
    let centuries = table(40, 86_400 * 365);
    assert_matches_reference(&centuries, &dims, "interned");
    assert_answers_match_reference(&centuries, &dims, ("v", None, false), &[], "interned");
}

/// AQ4 — country × month × year under `parameter = 'co'` — exactly and
/// sampled over 3 shards, bit-equal to the single table.
#[test]
fn aq4_over_three_shards_matches_the_single_table() {
    let table = generate_openaq(&OpenAqConfig::with_rows(40_000));
    let aq4 = "SELECT country, MONTH(local_time), YEAR(local_time), AVG(value) FROM openaq \
               WHERE parameter = 'co' GROUP BY country, MONTH(local_time), YEAR(local_time)";
    let mut plain = Engine::new().with_seed(5);
    plain.register("openaq", table.clone());
    let mut split = Engine::new().with_seed(5);
    split.register("openaq", ShardedTable::split(&table, 3).unwrap());
    for mode in [QueryMode::Exact, QueryMode::Approximate] {
        let (a, b) = (plain.query(aq4, mode).unwrap(), split.query(aq4, mode).unwrap());
        assert_eq!(a.results[0].keys, b.results[0].keys, "{mode:?} keys");
        assert_eq!(bits(&a.results[0]), bits(&b.results[0]), "{mode:?} values");
    }
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
