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
//! Sampled answers == the same reference, bit for bit: an estimate is that
//! pass over the sample's rows with the weighted accumulator and each row's
//! weight, so the reference restates it with the accumulator and the weight
//! as parameters.
//!
//! The reference folds one full `AggState` (exact) or `WeightedAggState`
//! (sampled) per (group, aggregate), while the engine folds only the narrow
//! cell each aggregate kind reads; the statements cover every kind, over
//! inputs with and without values, so each narrow cell is held to the full
//! state's bits.
//!
//! A statement without `WITH CUBE` keys and slots only the rows its
//! predicate keeps, so its fine groups follow first occurrence over the
//! kept rows; its answer is held, bit for bit, to two passes that slot
//! every row: the same statement `WITH CUBE`, whose first set is the full
//! grouping, and the exact fold of a shard behind a reader.
//!
//! The reference reads every value one row at a time — aggregate inputs
//! with `BoundExpr::f64_at`, the predicate with `BoundPredicate::matches` —
//! while the engine evaluates both a block at a time, so computed inputs
//! and compound predicates over NaN, ±0.0 and ±∞ hold the block kernels to
//! the row-at-a-time semantics.
//!
//! CI runs this suite in the `CVOPT_THREADS` × `CVOPT_SHARDS` matrix with
//! both values pinned; the pinned counts are folded into every sweep.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use proptest::prelude::*;

use cvopt_core::estimate::{estimate_with, WeightedAggState};
use cvopt_core::{Engine, ExecOptions, MaterializedSample, QueryMode};
use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_table::agg::{Accumulator, AggState};
use cvopt_table::exec::CHUNK_ROWS;
use cvopt_table::expr::BoundExpr;
use cvopt_table::{
    grouping_sets, AggExpr, AggKind, ArithOp, CaseWhen, CmpOp, DataType, GroupByQuery, GroupIndex,
    KeyAtom, LocalShard, Predicate, QueryResult, RowSpace, ScalarExpr, ShardReader, ShardSet,
    ShardedTable, Table, TableBuilder, Value,
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

/// `value` where it is positive; a row where it is not has no value.
fn positive(value: &str) -> ScalarExpr {
    let col = ScalarExpr::col(value);
    let when = CaseWhen { lhs: col.clone(), op: CmpOp::Gt, rhs: ScalarExpr::lit(0.0), then: col };
    ScalarExpr::Case { whens: vec![when], otherwise: None }
}

/// Every aggregate kind by `exprs` — `SUM`, `COUNT(*)`, `AVG`, `MIN` and
/// `VAR` of `value`, and `MAX`, `STD` and `COUNT_IF` of its nullable
/// [`positive`] part — kept to `value > cut` when a cut is given.
fn statement(exprs: &[ScalarExpr], (value, cut, cube): (&str, Option<f64>, bool)) -> GroupByQuery {
    let aggregates = vec![
        AggExpr::sum(value),
        AggExpr::count(),
        AggExpr::avg(value),
        AggExpr::min(value),
        AggExpr::over(AggKind::Max, positive(value)),
        AggExpr::var(value),
        AggExpr::over(AggKind::Std, positive(value)),
        AggExpr::count_if_over(positive(value), CmpOp::Lt, 1.0),
    ];
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

/// `query`'s answer as the contract defines it, from the reference ids,
/// accumulating row `r` with weight `weight(r)`: every row the predicate
/// `matches` feeds each aggregate the value its input's `f64_at` reads
/// there — none for a row without a value, 1 for `COUNT(*)`, and for
/// `COUNT_IF` the 0/1 hit of that value, a row without one compared as
/// NaN. The empty grouping set answers one row even over no rows.
fn reference_answer<A: Accumulator>(
    table: &Table,
    query: &GroupByQuery,
    weight: impl Fn(usize) -> f64,
) -> Vec<AnswerRows> {
    let (ids, keys, _) = reference(table, &query.group_by);
    let kept = query.predicate.as_ref().map(|p| p.bind(table).unwrap());
    let inputs: Vec<Option<BoundExpr>> = query
        .aggregates
        .iter()
        .map(|agg| agg.input.as_ref().map(|e| e.bind(table).unwrap()))
        .collect();
    let value = |agg: &AggExpr, input: &Option<BoundExpr>, row: usize| match agg.kind {
        AggKind::Count => Some(1.0),
        AggKind::CountIf => {
            let (op, threshold) = agg.condition.unwrap();
            let v = input.as_ref().unwrap().f64_at(row).unwrap_or(f64::NAN);
            Some(if op.evaluate_f64(v, threshold) { 1.0 } else { 0.0 })
        }
        _ => input.as_ref().unwrap().f64_at(row),
    };
    let width = query.aggregates.len();
    let mut fine = vec![vec![A::default(); width]; keys.len()];
    for start in (0..table.num_rows()).step_by(CHUNK_ROWS) {
        let mut partition: HashMap<u32, Vec<A>> = HashMap::new();
        let end = table.num_rows().min(start + CHUNK_ROWS);
        for (row, &id) in (start..end).zip(&ids[start..end]) {
            if kept.as_ref().is_some_and(|p| !p.matches(row)) {
                continue;
            }
            let states = partition.entry(id).or_insert_with(|| vec![A::default(); width]);
            for ((state, agg), input) in states.iter_mut().zip(&query.aggregates).zip(&inputs) {
                if let Some(v) = value(agg, input, row) {
                    state.update(v, weight(row));
                }
            }
        }
        for (id, states) in partition {
            fine[id as usize].iter_mut().zip(&states).for_each(|(f, s)| f.merge(s));
        }
    }
    let n_dims = query.group_by.len();
    let sets = if query.cube { grouping_sets(n_dims) } else { vec![(0..n_dims).collect()] };
    let answer = |dims: &Vec<usize>| {
        let mut coarse: BTreeMap<Vec<KeyAtom>, Vec<A>> = BTreeMap::new();
        for (key, states) in keys.iter().zip(&fine) {
            let key = dims.iter().map(|&d| key[d].clone()).collect();
            let merged = coarse.entry(key).or_insert_with(|| vec![A::default(); width]);
            merged.iter_mut().zip(states).for_each(|(m, s)| m.merge(s));
        }
        let finalize = |states: &[A]| -> Vec<u64> {
            let values = states.iter().zip(&query.aggregates);
            values.map(|(s, agg)| s.finalize(agg.kind).to_bits()).collect()
        };
        let mut rows: AnswerRows = coarse
            .into_iter()
            .map(|(key, states)| (key, finalize(&states), states.iter().map(A::rows).max()))
            .filter_map(|(key, values, rows)| rows.filter(|&n| n > 0).map(|n| (key, values, n)))
            .collect();
        if dims.is_empty() && rows.is_empty() {
            let none = query.aggregates.iter().map(|agg| match agg.kind {
                AggKind::Count | AggKind::CountIf => 0f64.to_bits(),
                _ => f64::NAN.to_bits(),
            });
            rows.push((Vec::new(), none.collect(), 0));
        }
        rows
    };
    sets.iter().map(answer).collect()
}

/// `query` over `table` answers the reference bit for bit at every swept
/// thread count: over the table itself, every swept shard split, and every
/// layout in `layouts` (the same rows cut some other way).
fn assert_answers_match_reference(
    table: &Table,
    query: &GroupByQuery,
    layouts: &[ShardedTable],
    context: &str,
) {
    let want = reference_answer::<AggState>(table, query, |_| 1.0);
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

/// Every row of `table`, weighted `1 + 0.37 · (row mod 13)`.
fn weighted_sample(table: &Table) -> MaterializedSample {
    let rows: Vec<u32> = (0..table.num_rows() as u32).collect();
    let weights = (0..table.num_rows()).map(|r| 1.0 + (r % 13) as f64 * 0.37).collect();
    MaterializedSample::from_rows(table, rows, weights)
}

/// `query` estimated from `sample` answers the reference over the sample's
/// rows, folding [`WeightedAggState`] under the sample's weights, bit for
/// bit at every swept thread count.
fn assert_estimates_match_reference(
    sample: &MaterializedSample,
    query: &GroupByQuery,
    context: &str,
) {
    let weight = |r: usize| sample.weights[r];
    let want = reference_answer::<WeightedAggState>(&sample.table, query, weight);
    for threads in swept(&[1, 2, 8], "CVOPT_THREADS") {
        let got = estimate_with(sample, query, &ExecOptions::new(threads)).unwrap();
        assert!(answer_rows(&got) == want, "{context}: estimated, {threads} threads");
    }
}

/// `query` — a statement without `WITH CUBE`, under a predicate, whose
/// pass keys and slots only the rows the predicate keeps — answers bit for
/// bit as when every row takes a slot: exactly at every swept thread count
/// and shard split, against the exact fold of a shard behind a reader and
/// the first set of the same statement `WITH CUBE`; and estimated from a
/// weighted sample, against that cube's. Returns the rows kept.
fn assert_kept_walk_answers_as_every_row_walk(
    table: &Table,
    query: &GroupByQuery,
    context: &str,
) -> usize {
    let predicate = query.predicate.as_ref().expect("a statement under a predicate");
    assert!(!query.cube, "{context}: a statement without WITH CUBE");
    let mut cube = query.clone();
    cube.cube = true;
    let full_set = |results: Vec<QueryResult>| answer_rows(&results[..1]).remove(0);
    let sequential = ExecOptions::sequential();
    let reader: Vec<Arc<dyn ShardReader>> = vec![Arc::new(LocalShard::new(table.clone()))];
    let behind_reader = ShardSet::new(reader).unwrap();
    let want = full_set(query.execute_with(&behind_reader, &sequential).unwrap());
    let whole = ShardSet::from(table.clone());
    let cube_answer = full_set(cube.execute_with(&whole, &sequential).unwrap());
    assert!(cube_answer == want, "{context}: WITH CUBE's full set");
    for threads in swept(&[1, 4], "CVOPT_THREADS") {
        let options = ExecOptions::new(threads);
        for shards in swept(&[1, 3], "CVOPT_SHARDS") {
            let set = match shards {
                1 => whole.clone(),
                _ => ShardSet::from(ShardedTable::split(table, shards).unwrap()),
            };
            let got = full_set(query.execute_with(&set, &options).unwrap());
            assert!(got == want, "{context}: {shards} shards, {threads} threads");
        }
    }
    let sample = weighted_sample(table);
    let want = full_set(estimate_with(&sample, &cube, &sequential).unwrap());
    for threads in swept(&[1, 4], "CVOPT_THREADS") {
        let got = full_set(estimate_with(&sample, query, &ExecOptions::new(threads)).unwrap());
        assert!(got == want, "{context}: estimated, {threads} threads");
    }
    RowSpace::from(table).predicate_bitmaps(predicate, &sequential).unwrap()[0].count_ones()
}

/// The corpus's statements without `WITH CUBE`, under predicates that keep
/// no row, some rows and every row, answer as when every row takes a slot
/// ([`assert_kept_walk_answers_as_every_row_walk`]): both cell families,
/// every aggregate kind, one to five dimensions, the durable key space that
/// takes the hash map, AQ4's calendar parts, dense keys, and computed
/// inputs under compound predicates over NaN, ±0.0 and ±∞.
#[test]
fn the_kept_walk_answers_as_the_every_row_walk() {
    let openaq = generate_openaq(&OpenAqConfig::with_rows(20_000));
    let n = openaq.num_rows();
    let durable: Vec<ScalarExpr> =
        ["country", "parameter", "unit", "location"].map(ScalarExpr::col).to_vec();
    let five = [
        ScalarExpr::col("country"),
        ScalarExpr::col("parameter"),
        ScalarExpr::col("unit"),
        ScalarExpr::month("local_time"),
        ScalarExpr::hour("local_time"),
    ];
    let values = ScalarExpr::col("value").bind(&openaq).unwrap();
    let mut sorted: Vec<f64> = (0..n).map(|r| values.f64_at(r).unwrap()).collect();
    sorted.sort_by(f64::total_cmp);
    for cut in [f64::INFINITY, sorted[n / 2], f64::NEG_INFINITY] {
        for exprs in [&durable[..], &five[..1], &five[..3], &five[..]] {
            let context = format!("{} dims, value > {cut}", exprs.len());
            let statement = statement(exprs, ("value", Some(cut), false));
            let kept = assert_kept_walk_answers_as_every_row_walk(&openaq, &statement, &context);
            let expected = match cut {
                f64::INFINITY => kept == 0,
                f64::NEG_INFINITY => kept == n,
                _ => 0 < kept && kept < n,
            };
            assert!(expected, "{context}: {kept} of {n} rows kept");
        }
    }
    let aq4 = "SELECT country, MONTH(local_time), YEAR(local_time), AVG(value) FROM openaq \
               WHERE parameter = 'co' GROUP BY country, MONTH(local_time), YEAR(local_time)";
    let aq4 = cvopt_table::sql::parse(aq4).and_then(|s| s.into_query()).unwrap();
    assert_kept_walk_answers_as_every_row_walk(&openaq, &aq4, "AQ4");

    let (dense, k) = (dense_table(), [ScalarExpr::col("k")]);
    for cut in [f64::INFINITY, 5.0, f64::NEG_INFINITY] {
        let statement = statement(&k, ("v", Some(cut), false));
        assert_kept_walk_answers_as_every_row_walk(&dense, &statement, &format!("dense, {cut}"));
    }

    let edge = edge_table();
    let predicates = [
        Predicate::cmp("g", CmpOp::Lt, "c"),
        Predicate::between(ScalarExpr::col("v"), -10.0, 25.0),
        Predicate::cmp("g", CmpOp::Eq, "b").or(Predicate::cmp("v", CmpOp::Gt, 10.0)).not(),
    ];
    for predicate in predicates {
        let context = format!("edge, {predicate:?}");
        let mut query = GroupByQuery::new(
            vec![ScalarExpr::col("g"), ScalarExpr::col("k")],
            computed_aggregates(),
        );
        query.predicate = Some(predicate);
        assert_kept_walk_answers_as_every_row_walk(&edge, &query, &context);
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
    assert_answers_match_reference(
        &table,
        &statement(&durable, ("value", None, false)),
        &[],
        "durable",
    );

    let values = ScalarExpr::col("value").bind(&table).unwrap();
    let mut sorted: Vec<f64> = (0..table.num_rows()).map(|r| values.f64_at(r).unwrap()).collect();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted[sorted.len() * 99 / 100];
    let shape = ("value", Some(cut), false);
    let folded =
        reference_answer::<AggState>(&table, &statement(&durable, shape), |_| 1.0)[0].len();
    let fine = reference(&table, &durable).1.len();
    assert!(0 < folded && 2 * folded < fine, "{folded} of {fine} fine groups fold a row");
    for cube in [false, true] {
        let context = format!("durable, value > {cut}, cube {cube}");
        assert_answers_match_reference(
            &table,
            &statement(&durable, ("value", Some(cut), cube)),
            &[],
            &context,
        );
    }

    let sample = weighted_sample(&table);
    for (cut, cube) in [(None, false), (Some(cut), false), (Some(cut), true)] {
        let context = format!("durable sample, cut {cut:?}, cube {cube}");
        assert_estimates_match_reference(
            &sample,
            &statement(&durable, ("value", cut, cube)),
            &context,
        );
    }
}

/// A weighted sample larger than one partition — every row of a
/// 1.5-partition table, at weights that are not 1 — answers the weighted
/// reference grouped by two columns, plain and as a cube, and as a cube
/// over the same columns in the other order, with and without a selective
/// cut.
#[test]
fn sampled_answers_match_weighted_reference() {
    let table = generate_openaq(&OpenAqConfig::with_rows(3 * CHUNK_ROWS / 2));
    let sample = weighted_sample(&table);
    let dims = [ScalarExpr::col("country"), ScalarExpr::col("parameter")];
    let reordered = [dims[1].clone(), dims[0].clone()];
    for cut in [None, Some(40.0)] {
        for (exprs, cube) in [(&dims, false), (&dims, true), (&reordered, true)] {
            let context = format!("{exprs:?}, cut {cut:?}, cube {cube}");
            assert_estimates_match_reference(
                &sample,
                &statement(exprs, ("value", cut, cube)),
                &context,
            );
        }
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
        assert_answers_match_reference(
            &table,
            &statement(&dims, ("value", Some(cut), true)),
            &[],
            &context,
        );
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
        assert_answers_match_reference(
            &table,
            &statement(&exprs, ("v", None, false)),
            &layouts,
            &context,
        );
        assert_answers_match_reference(
            &table,
            &statement(&exprs, ("v", Some(50.0), true)),
            &layouts,
            &context,
        );
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
        &statement(&exprs, ("v", None, false)),
        std::slice::from_ref(&halves),
        "k, g",
    );
    assert_answers_match_reference(
        &table,
        &statement(&exprs[..1], ("v", Some(0.0), true)),
        &[halves],
        "k",
    );
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
    assert_answers_match_reference(&table, &statement(&k, ("v", Some(5.0), false)), &[], "dense");
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
    assert_answers_match_reference(
        &days,
        &statement(&dims, ("v", Some(0.0), true)),
        &[],
        "day table",
    );
    let centuries = table(40, 86_400 * 365);
    assert_matches_reference(&centuries, &dims, "interned");
    assert_answers_match_reference(
        &centuries,
        &statement(&dims, ("v", None, false)),
        &[],
        "interned",
    );
}

/// A group whose every input has no value folds no row into any cell of a
/// statement over that input alone, so it is dropped — exactly and
/// sampled, whole and in shards — while its neighbours answer the
/// reference, every aggregate kind of them.
#[test]
fn a_group_without_a_value_is_dropped() {
    let mut b = TableBuilder::new(&[("g", DataType::Str), ("v", DataType::Float64)]);
    for i in 0..3000usize {
        let g = ["a", "b", "c"][i % 3];
        // Group `b` is never positive.
        let v = ((i as f64) * 0.37).sin() * 10.0;
        let v = if g == "b" { -v.abs() } else { v };
        b.push_row(&[Value::str(g), Value::Float64(v)]).unwrap();
    }
    let table = b.finish();
    let input = positive("v");
    let aggregates =
        [AggKind::Sum, AggKind::Avg, AggKind::Min, AggKind::Max, AggKind::Var, AggKind::Std];
    let aggregates = aggregates.map(|kind| AggExpr::over(kind, input.clone())).to_vec();
    let query = GroupByQuery::new(vec![ScalarExpr::col("g")], aggregates);
    let keys = |rows: &[AnswerRows]| -> Vec<Vec<KeyAtom>> {
        rows[0].iter().map(|(key, _, _)| key.clone()).collect()
    };
    let want = reference_answer::<AggState>(&table, &query, |_| 1.0);
    assert_eq!(keys(&want), [[KeyAtom::from("a")], [KeyAtom::from("c")]]);
    assert_answers_match_reference(&table, &query, &[], "no value in b");
    let sample = weighted_sample(&table);
    let weighted =
        reference_answer::<WeightedAggState>(&sample.table, &query, |r| sample.weights[r]);
    assert_eq!(keys(&weighted), keys(&want));
    assert_estimates_match_reference(&sample, &query, "no value in b, sampled");
    // Every kind over the same rows keeps `b`: `COUNT(*)` counts its rows.
    assert_answers_match_reference(
        &table,
        &statement(&[ScalarExpr::col("g")], ("v", None, true)),
        &[],
        "every kind",
    );
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

/// Rows of [`edge_table`]: one partition and a ragged tail, a multiple of
/// neither 64 nor 1,024.
const EDGE_ROWS: usize = CHUNK_ROWS + 1_037;

/// A table of every column type whose floats hold NaN, ±0.0 and ±∞ among
/// ordinary values: string and integer keys `g` and `k`, floats `v` and
/// `lat`, a divisor `z` holding ±0.0, integers `i`, timestamps `t` and
/// booleans `b`.
fn edge_table() -> Table {
    let special = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut b = TableBuilder::new(&[
        ("g", DataType::Str),
        ("k", DataType::Int64),
        ("v", DataType::Float64),
        ("lat", DataType::Float64),
        ("z", DataType::Float64),
        ("i", DataType::Int64),
        ("t", DataType::Timestamp),
        ("b", DataType::Bool),
    ]);
    let mut state = 0x0dd5_eed5_u64;
    for r in 0..EDGE_ROWS {
        let x = xorshift(&mut state);
        let v = match x % 19 {
            0 => special[(x >> 8) as usize % special.len()],
            _ => ((x >> 20) % 20_000) as f64 / 100.0 - 50.0,
        };
        let i = ((x >> 32) % 41) as i64 - 20;
        b.push_row(&[
            Value::str(["a", "b", "c", "d", "e"][(x >> 12) as usize % 5]),
            Value::Int64((r % 3) as i64),
            Value::Float64(v),
            Value::Float64(((x >> 40) % 12_000) as f64 / 100.0 - 60.0),
            Value::Float64([0.0, -0.0, 1.5, -2.0, 3.25][(x >> 16) as usize % 5]),
            Value::Int64(i),
            Value::Timestamp(1_000_000_000 + i * 40_000_000),
            Value::Bool(x & 1 == 1),
        ])
        .unwrap();
    }
    b.finish()
}

/// Aggregates over computed inputs: `v * lat + 1`, division by a column
/// holding zeros, a nested `CASE` without `ELSE`, a calendar part plus a
/// boolean, and `COUNT_IF` over computed inputs (one of them without a
/// value wherever `z` is zero).
fn computed_aggregates() -> Vec<AggExpr> {
    let c = ScalarExpr::col;
    let product_plus_one = ScalarExpr::binary(
        ArithOp::Add,
        ScalarExpr::binary(ArithOp::Mul, c("v"), c("lat")),
        ScalarExpr::lit(1.0),
    );
    let by_zeros = ScalarExpr::binary(ArithOp::Div, c("i"), c("z"));
    let nested = ScalarExpr::Case {
        whens: vec![CaseWhen {
            lhs: c("v"),
            op: CmpOp::Gt,
            rhs: ScalarExpr::lit(0.0),
            then: ScalarExpr::Case {
                whens: vec![CaseWhen {
                    lhs: c("i"),
                    op: CmpOp::Lt,
                    rhs: ScalarExpr::lit(10.0),
                    then: ScalarExpr::binary(ArithOp::Div, c("v"), c("z")),
                }],
                otherwise: None,
            },
        }],
        otherwise: None,
    };
    let year_plus_flag = ScalarExpr::binary(ArithOp::Add, ScalarExpr::year("t"), c("b"));
    vec![
        AggExpr::over(AggKind::Sum, product_plus_one),
        AggExpr::over(AggKind::Avg, by_zeros.clone()),
        AggExpr::over(AggKind::Sum, nested.clone()),
        AggExpr::over(AggKind::Max, nested),
        AggExpr::over(AggKind::Var, year_plus_flag),
        AggExpr::count_if_over(
            ScalarExpr::binary(ArithOp::Mul, c("v"), c("lat")),
            CmpOp::Gt,
            100.0,
        ),
        AggExpr::count_if_over(by_zeros, CmpOp::Ge, 0.0),
        AggExpr::count(),
    ]
}

/// Computed aggregate inputs, with no predicate and under each compound
/// predicate — text `<`, `IN` over dictionary codes and over numbers,
/// `BETWEEN`, `NOT (a OR b)`, `v / 3 + 1 > 2`, and any of them —
/// answer the row-at-a-time reference bit for bit, exactly over every swept
/// thread count and shard split, and estimated from a weighted sample.
#[test]
fn computed_inputs_and_compound_predicates_match_reference() {
    let table = edge_table();
    let sample = weighted_sample(&table);
    let v = || ScalarExpr::col("v");
    let text_lt = Predicate::cmp("g", CmpOp::Lt, "c");
    let in_codes = Predicate::InList {
        expr: ScalarExpr::col("g"),
        values: ["a", "d", "zz"].map(Value::str).to_vec(),
    };
    let in_numbers = Predicate::InList {
        expr: ScalarExpr::col("k"),
        values: vec![Value::Int64(0), Value::Int64(2)],
    };
    let between = Predicate::between(v(), -10.0, 25.0);
    let not_or = Predicate::cmp("g", CmpOp::Eq, "b").or(Predicate::cmp("v", CmpOp::Gt, 10.0)).not();
    let third = ScalarExpr::binary(
        ArithOp::Add,
        ScalarExpr::binary(ArithOp::Div, v(), ScalarExpr::lit(3.0)),
        ScalarExpr::lit(1.0),
    );
    let arithmetic = Predicate::cmp_expr(third, CmpOp::Gt, 2.0);
    let all = [&in_codes, &in_numbers, &between, &not_or, &arithmetic]
        .into_iter()
        .fold(text_lt.clone(), |p, q| p.or(q.clone()));
    let predicates =
        [None, Some(text_lt), Some(in_codes), Some(in_numbers), Some(between), Some(not_or)];
    let predicates = predicates.into_iter().chain([Some(arithmetic), Some(all)]);
    let dims = [ScalarExpr::col("g"), ScalarExpr::col("k")];
    for (i, predicate) in predicates.enumerate() {
        let mut query = GroupByQuery::new(dims.to_vec(), computed_aggregates());
        query.cube = i % 2 == 0;
        let context = format!("{predicate:?}, cube {}", query.cube);
        query.predicate = predicate;
        assert_answers_match_reference(&table, &query, &[], &context);
        assert_estimates_match_reference(&sample, &query, &context);
    }
}
