//! JOIN differential battery: every `fact JOIN dim` query through the
//! Engine must answer **byte-identically** to the same query over a
//! pre-joined table built by an independent nested-loop reference join —
//! for every thread count and shard layout in the CI matrix.
//!
//! CI runs this suite in the `CVOPT_THREADS` × `CVOPT_SHARDS` matrix; both
//! pinned values are folded into the sweeps below. The columnar store has
//! no null bitmap, so the "null key" cases of a classic join battery appear
//! here as their closest analogs: empty-string keys, fact keys missing
//! from the dimension side (dropped by the inner join), and duplicate
//! dimension keys (fan-out in dimension row order).

use proptest::prelude::*;

use cvopt_core::{Engine, ExecOptions, QueryMode};
use cvopt_table::{DataType, QueryResult, Schema, ShardedTable, Table, TableBuilder, Value};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const SHARD_COUNTS: [usize; 3] = [1, 3, 5];

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

/// The standard shard sweep plus the CI matrix's pinned `CVOPT_SHARDS`.
fn shard_counts() -> Vec<usize> {
    let mut counts = SHARD_COUNTS.to_vec();
    if let Some(pinned) = std::env::var("CVOPT_SHARDS").ok().and_then(|v| v.parse::<usize>().ok()) {
        if pinned > 0 && !counts.contains(&pinned) {
            counts.push(pinned);
        }
    }
    counts
}

/// Independent reference join: a nested loop over dynamically typed
/// values, sharing no code with `cvopt_table::hash_join`. Output rows in
/// fact-row order, duplicate dimension matches in dimension-row order —
/// the contract the hash join must reproduce.
fn nested_loop_join(fact: &Table, dim: &Table, fact_key: &str, dim_key: &str) -> Table {
    let fk = fact.schema().index_of(fact_key).unwrap();
    let dk = dim.schema().index_of(dim_key).unwrap();
    let mut fields = fact.schema().fields().to_vec();
    for (idx, field) in dim.schema().fields().iter().enumerate() {
        if idx != dk {
            fields.push(field.clone());
        }
    }
    let mut b = TableBuilder::from_schema(Schema::from_fields(fields));
    for fr in 0..fact.num_rows() {
        let key = fact.column(fk).value(fr);
        for dr in 0..dim.num_rows() {
            if dim.column(dk).value(dr) != key {
                continue;
            }
            let mut row: Vec<Value> = fact.row(fr);
            for (idx, column) in dim.columns().iter().enumerate() {
                if idx != dk {
                    row.push(column.value(dr));
                }
            }
            b.push_row(&row).unwrap();
        }
    }
    b.finish()
}

/// Fact side: stores × items with skewed quantities; `i7`/`i8` have no
/// dimension row, and every 37th row carries an empty-string key.
fn sales(rows: usize) -> Table {
    let mut b = TableBuilder::new(&[
        ("store", DataType::Str),
        ("item", DataType::Str),
        ("qty", DataType::Float64),
        ("units", DataType::Int64),
    ]);
    let mut state = 0x5eed_cafe_d00d_f00du64;
    for i in 0..rows {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let item = if i % 37 == 0 { String::new() } else { format!("i{}", state % 9) };
        b.push_row(&[
            Value::str(format!("s{}", i % 5)),
            Value::str(item),
            Value::Float64(((state % 97) as f64) / 3.0),
            Value::Int64((state % 11) as i64),
        ])
        .unwrap();
    }
    b.finish()
}

/// Dimension side: items `i0..i6` (7 and 8 deliberately missing), one
/// duplicated key (`i3` twice — fan-out), and no empty-string key.
fn items() -> Table {
    let mut b = TableBuilder::new(&[
        ("item", DataType::Str),
        ("category", DataType::Str),
        ("weight", DataType::Float64),
    ]);
    for i in 0..7 {
        b.push_row(&[
            Value::str(format!("i{i}")),
            Value::str(["food", "tools", "toys"][i % 3]),
            Value::Float64(1.0 + i as f64 / 2.0),
        ])
        .unwrap();
        if i == 3 {
            b.push_row(&[Value::str("i3"), Value::str("dup"), Value::Float64(9.5)]).unwrap();
        }
    }
    b.finish()
}

/// The join queries under differential test, each exercising a different
/// corner: plain aggregate, reversed ON sides + arithmetic, WHERE over a
/// fact column, CASE over a dimension column, COUNT_IF.
const JOIN_QUERIES: [(&str, &str); 5] = [
    (
        "SELECT category, SUM(qty) FROM sales JOIN items ON sales.item = items.item \
         GROUP BY category",
        "SELECT category, SUM(qty) FROM joined GROUP BY category",
    ),
    (
        "SELECT store, category, AVG(qty * weight) FROM sales \
         JOIN items ON items.item = sales.item GROUP BY store, category",
        "SELECT store, category, AVG(qty * weight) FROM joined GROUP BY store, category",
    ),
    (
        "SELECT category, COUNT(*) FROM sales JOIN items ON sales.item = items.item \
         WHERE qty > 10 GROUP BY category",
        "SELECT category, COUNT(*) FROM joined WHERE qty > 10 GROUP BY category",
    ),
    (
        "SELECT store, SUM(CASE WHEN weight > 2 THEN qty ELSE 0 END) FROM sales \
         JOIN items ON sales.item = items.item GROUP BY store",
        "SELECT store, SUM(CASE WHEN weight > 2 THEN qty ELSE 0 END) FROM joined \
         GROUP BY store",
    ),
    (
        "SELECT category, COUNT_IF(units > 5) FROM sales \
         JOIN items ON sales.item = items.item GROUP BY category",
        "SELECT category, COUNT_IF(units > 5) FROM joined GROUP BY category",
    ),
];

fn assert_bit_identical(got: &[QueryResult], want: &[QueryResult], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: result count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.keys, w.keys, "{context}: keys");
        assert_eq!(g.group_rows, w.group_rows, "{context}: group rows");
        let bits = |vs: &[Vec<f64>]| -> Vec<Vec<u64>> {
            vs.iter().map(|row| row.iter().map(|v| v.to_bits()).collect()).collect()
        };
        assert_eq!(bits(&g.values), bits(&w.values), "{context}: values");
    }
}

/// The battery: every join query, across the full thread × shard sweep,
/// answers bit-identically to the nested-loop reference over a pre-joined
/// table on a sequential unsharded engine.
#[test]
fn join_queries_match_prejoined_reference_across_matrix() {
    let fact = sales(4_000);
    let dim = items();
    let joined = nested_loop_join(&fact, &dim, "item", "item");
    assert!(joined.num_rows() > 0, "fixture must produce matches");

    let mut reference = Engine::new().with_seed(1).with_exec(ExecOptions::sequential());
    reference.register("joined", joined);

    for threads in thread_counts() {
        for shards in shard_counts() {
            let mut engine = Engine::new().with_seed(1).with_exec(ExecOptions::new(threads));
            if shards > 1 {
                engine.register("sales", ShardedTable::split(&fact, shards).unwrap());
            } else {
                engine.register("sales", fact.clone());
            }
            engine.register("items", dim.clone());
            for (join_sql, prejoined_sql) in JOIN_QUERIES {
                let got = engine.query(join_sql, QueryMode::Exact).unwrap();
                let want = reference.query(prejoined_sql, QueryMode::Exact).unwrap();
                assert_bit_identical(
                    &got.results,
                    &want.results,
                    &format!("threads {threads}, shards {shards}: {join_sql}"),
                );
                assert!(got.report.join.is_some(), "{join_sql}: report must name the join");
            }
        }
    }
}

/// Partition scale: the fact side spans four 64Ki partitions and its joined
/// rows — unmatched keys dropped, `i3` fanned out twice — three, cut at
/// other fact rows than the fact side's own. Float `SUM`/`AVG` round per
/// partition, so bit equality with the pre-joined reference holds only if
/// partitions are cut on *joined* rows for every thread count and shard
/// layout.
#[test]
fn joins_past_one_partition_match_prejoined_reference_across_matrix() {
    use cvopt_table::exec::CHUNK_ROWS;
    let fact = sales(3 * CHUNK_ROWS + 4_321);
    let dim = items();
    let joined = nested_loop_join(&fact, &dim, "item", "item");
    assert!(joined.num_rows() > 2 * CHUNK_ROWS, "joined rows must span three partitions");
    assert_ne!(joined.num_rows(), fact.num_rows(), "drops and fan-out must not cancel out");

    let queries = [
        (
            "SELECT store, category, SUM(qty), AVG(qty * weight), COUNT(*) FROM sales \
             JOIN items ON sales.item = items.item GROUP BY store, category",
            "SELECT store, category, SUM(qty), AVG(qty * weight), COUNT(*) FROM joined \
             GROUP BY store, category",
        ),
        (
            "SELECT category, AVG(qty), SUM(weight) FROM sales \
             JOIN items ON sales.item = items.item WHERE units > 3 GROUP BY category",
            "SELECT category, AVG(qty), SUM(weight) FROM joined WHERE units > 3 \
             GROUP BY category",
        ),
    ];
    assert_matrix_matches_reference(&fact, &dim, joined, &queries);
}

/// Answer `queries` — `(join statement, the same statement over the
/// pre-joined table)` pairs — over `fact JOIN dim` at every swept thread and
/// shard count, bit for bit against the nested-loop reference answered on a
/// sequential unsharded engine. `fact` registers as `sales`, `dim` as
/// `items`.
fn assert_matrix_matches_reference<Q: AsRef<str>>(
    fact: &Table,
    dim: &Table,
    joined: Table,
    queries: &[(Q, Q)],
) {
    let mut reference = Engine::new().with_seed(1).with_exec(ExecOptions::sequential());
    reference.register("joined", joined);
    let want: Vec<_> = queries
        .iter()
        .map(|(_, sql)| reference.query(sql.as_ref(), QueryMode::Exact).unwrap())
        .collect();
    for threads in thread_counts() {
        for shards in shard_counts() {
            let mut engine = Engine::new().with_seed(1).with_exec(ExecOptions::new(threads));
            if shards > 1 {
                engine.register("sales", ShardedTable::split(fact, shards).unwrap());
            } else {
                engine.register("sales", fact.clone());
            }
            engine.register("items", dim.clone());
            for ((join_sql, _), want) in queries.iter().zip(&want) {
                let join_sql = join_sql.as_ref();
                let got = engine.query(join_sql, QueryMode::Exact).unwrap();
                assert_bit_identical(
                    &got.results,
                    &want.results,
                    &format!("threads {threads}, shards {shards}: {join_sql}"),
                );
            }
        }
    }
}

/// Joined partitions are cut on joined rows, wherever fact rows and shards
/// fall. The fact side, in order:
///
/// 1. `CHUNK_ROWS - 1` rows matching once each;
/// 2. one row matching three dimension rows, joined rows `CHUNK_ROWS - 1`
///    to `CHUNK_ROWS + 1`: its fan-out straddles the first joined
///    partition boundary;
/// 3. `CHUNK_ROWS + 100` rows matching nothing — longer than a fact
///    partition, and covering a whole middle shard at 3 and 5 shards;
/// 4. `CHUNK_ROWS - 2` rows matching once each, so the join has exactly
///    `2 * CHUNK_ROWS` joined rows: two full partitions.
///
/// The statements include `WITH CUBE` under a `WHERE` on a dimension column,
/// and ordered string comparisons on a dimension column whose literal is
/// missing from a joined partition (`'fan'` is only the straddling row's
/// first match, in the first partition) or from the whole join (`'g'`).
#[test]
fn joined_partition_boundaries_match_prejoined_reference_across_matrix() {
    use cvopt_table::exec::CHUNK_ROWS;
    let mut b = TableBuilder::new(&[
        ("store", DataType::Str),
        ("item", DataType::Str),
        ("qty", DataType::Float64),
        ("row", DataType::Int64),
    ]);
    let (head, fan, unmatched, tail) = (CHUNK_ROWS - 1, 1, CHUNK_ROWS + 100, CHUNK_ROWS - 2);
    for i in 0..head + fan + unmatched + tail {
        let item = match i {
            i if i < head => ["a", "b", "c", "d"][i % 4],
            i if i < head + fan => "f",
            i if i < head + fan + unmatched => ["x", ""][i % 2],
            i => ["d", "c", "b", "a"][i % 4],
        };
        let qty = 1.0 / (1.0 + (i % 1_009) as f64) + (i % 7) as f64;
        let row = [Value::str(format!("s{}", i % 5)), Value::str(item), Value::Float64(qty)];
        b.push_row(&[&row[..], &[Value::Int64(i as i64)]].concat()).unwrap();
    }
    let fact = b.finish();
    let mut b = TableBuilder::new(&[
        ("item", DataType::Str),
        ("category", DataType::Str),
        ("weight", DataType::Float64),
    ]);
    let dim_rows = [
        ("a", "food", 1.0),
        ("f", "fan", 0.5),
        ("b", "tools", 2.5),
        ("f", "toys", 3.0),
        ("c", "toys", 1.75),
        ("d", "food", 0.25),
        ("f", "food", 2.0),
    ];
    for (item, category, weight) in dim_rows {
        b.push_row(&[Value::str(item), Value::str(category), Value::Float64(weight)]).unwrap();
    }
    let dim = b.finish();

    let joined = nested_loop_join(&fact, &dim, "item", "item");
    assert_eq!(joined.num_rows(), 2 * CHUNK_ROWS, "exactly two joined partitions");
    let fact_row = |joined_row| joined.column_by_name("row").unwrap().i64_at(joined_row);
    assert_eq!(fact_row(CHUNK_ROWS - 1), fact_row(CHUNK_ROWS + 1), "the fan-out straddles");
    assert_eq!(fact_row(CHUNK_ROWS), Some(head as i64));
    let category = |joined_row| joined.column_by_name("category").unwrap().value(joined_row);
    assert_eq!(category(CHUNK_ROWS - 1), Value::str("fan"));
    let fan_rows = (0..joined.num_rows()).filter(|&r| category(r) == Value::str("fan")).count();
    assert_eq!(fan_rows, 1, "'fan' is absent from the second joined partition");
    for shards in [3, 5] {
        let split = ShardedTable::split(&fact, shards).unwrap();
        let rows: Vec<usize> = split.shards().iter().map(Table::num_rows).collect();
        let starts: Vec<usize> =
            rows.iter().scan(0, |at, &n| Some(std::mem::replace(at, *at + n))).collect();
        let dry = (0..shards)
            .any(|s| starts[s] >= head + fan && starts[s] + rows[s] <= head + fan + unmatched);
        assert!(dry, "{shards} shards: a shard has no matching row");
    }

    const ON: &str = "FROM sales JOIN items ON sales.item = items.item";
    let statements = [
        (
            "SELECT store, category, SUM(qty), AVG(qty * weight), COUNT(*)",
            "GROUP BY store, category",
        ),
        ("SELECT COUNT(*), SUM(qty), MAX(row)", ""),
        (
            "SELECT store, category, SUM(qty), AVG(weight), COUNT(*)",
            "WHERE weight > 0.75 GROUP BY store, category WITH CUBE",
        ),
        (
            "SELECT store, category, SUM(qty), COUNT(*)",
            "WHERE category > 'fan' GROUP BY store, category",
        ),
        (
            "SELECT category, COUNT(*)",
            "WHERE category <= 'fan' OR category >= 'g' GROUP BY category",
        ),
    ];
    let queries: Vec<(String, String)> = statements
        .iter()
        .map(|(select, rest)| {
            (format!("{select} {ON} {rest}"), format!("{select} FROM joined {rest}"))
        })
        .collect();
    assert_matrix_matches_reference(&fact, &dim, joined, &queries);
}

/// `Int64` join keys past one joined partition: unmatched ids dropped, one
/// id fanned out twice, the key itself a grouping column.
#[test]
fn int_keys_past_one_partition_match_prejoined_reference_across_matrix() {
    use cvopt_table::exec::CHUNK_ROWS;
    let mut b = TableBuilder::new(&[
        ("store", DataType::Str),
        ("item_id", DataType::Int64),
        ("qty", DataType::Float64),
    ]);
    let mut state = 0x0dd_ba11_5eed_f00du64;
    for i in 0..2 * CHUNK_ROWS + 321 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        b.push_row(&[
            Value::str(format!("s{}", i % 3)),
            Value::Int64((state % 13) as i64),
            Value::Float64(((state % 997) as f64) / 7.0),
        ])
        .unwrap();
    }
    let fact = b.finish();
    // Ids 0..=9; 10..=12 are missing, and 4 appears twice.
    let mut b = TableBuilder::new(&[
        ("id", DataType::Int64),
        ("tier", DataType::Str),
        ("weight", DataType::Float64),
    ]);
    for id in (0..10).chain([4]) {
        let tier = ["low", "mid", "high"][id as usize % 3];
        b.push_row(&[Value::Int64(id), Value::str(tier), Value::Float64(1.0 + id as f64 / 4.0)])
            .unwrap();
    }
    let dim = b.finish();
    let joined = nested_loop_join(&fact, &dim, "item_id", "id");
    assert!(joined.num_rows() > CHUNK_ROWS, "joined rows must span two partitions");

    let queries = [
        (
            "SELECT tier, SUM(qty), AVG(qty * weight), COUNT(*) FROM sales \
             JOIN items ON sales.item_id = items.id GROUP BY tier",
            "SELECT tier, SUM(qty), AVG(qty * weight), COUNT(*) FROM joined GROUP BY tier",
        ),
        (
            "SELECT item_id, store, SUM(weight), AVG(qty) FROM sales \
             JOIN items ON items.id = sales.item_id WHERE qty > 20 GROUP BY item_id, store",
            "SELECT item_id, store, SUM(weight), AVG(qty) FROM joined WHERE qty > 20 \
             GROUP BY item_id, store",
        ),
    ];
    assert_matrix_matches_reference(&fact, &dim, joined, &queries);
}

/// The engine copies only the joined columns a statement reads. The edges
/// of "reads": no column at all, a column met only in `WHERE`, columns met
/// only inside a `CASE` arm — and the errors a narrower copy must not
/// change or hide.
#[test]
fn join_projection_edges_match_prejoined_reference() {
    let fact = sales(3_000);
    let dim = items();
    let joined = nested_loop_join(&fact, &dim, "item", "item");
    let joined_rows = joined.num_rows() as u64;
    let mut reference = Engine::new().with_seed(1).with_exec(ExecOptions::sequential());
    reference.register("joined", joined);
    let mut engine = Engine::new().with_seed(1).with_exec(ExecOptions::new(2));
    engine.register("sales", ShardedTable::split(&fact, 3).unwrap());
    engine.register("items", dim);

    const ON: &str = "FROM sales JOIN items ON sales.item = items.item";
    let cases = [
        // Zero columns read: the joined row count has to survive.
        ("SELECT COUNT(*)", ""),
        // `units` appears only in WHERE.
        ("SELECT category, COUNT(*)", "WHERE units > 5 GROUP BY category"),
        // `units` only in a CASE condition, `weight` only in its THEN arm,
        // `qty` only in its ELSE.
        (
            "SELECT store, SUM(CASE WHEN units > 5 THEN weight ELSE qty END)",
            "WHERE category <> 'dup' GROUP BY store",
        ),
    ];
    for (select, rest) in cases {
        let got = engine.query(&format!("{select} {ON} {rest}"), QueryMode::Exact).unwrap();
        let want =
            reference.query(&format!("{select} FROM joined {rest}"), QueryMode::Exact).unwrap();
        assert_bit_identical(&got.results, &want.results, select);
    }
    let count = engine.query(&format!("SELECT COUNT(*) {ON}"), QueryMode::Exact).unwrap();
    assert_eq!(count.results[0].group_rows, vec![joined_rows]);
    assert_eq!(count.results[0].values, vec![vec![joined_rows as f64]]);

    // An unknown column fails with the text a bind against the full joined
    // table gives, wherever the statement mentions it.
    for (select, rest) in [
        ("SELECT nope, SUM(qty)", "GROUP BY nope"),
        ("SELECT category, SUM(nope)", "GROUP BY category"),
        ("SELECT category, SUM(qty)", "WHERE nope > 1 GROUP BY category"),
        ("SELECT SUM(CASE WHEN qty > 1 THEN nope ELSE 0 END)", ""),
    ] {
        let got = engine.query(&format!("{select} {ON} {rest}"), QueryMode::Exact).unwrap_err();
        let want =
            reference.query(&format!("{select} FROM joined {rest}"), QueryMode::Exact).unwrap_err();
        assert_eq!(got.to_string(), want.to_string(), "{select}");
        assert!(got.to_string().contains("column not found: nope"), "{got}");
    }

    // A name on both sides is ambiguous whether or not the statement reads
    // it: `store` here is never mentioned.
    let mut b = TableBuilder::new(&[
        ("item", DataType::Str),
        ("category", DataType::Str),
        ("store", DataType::Str),
    ]);
    b.push_row(&[Value::str("i1"), Value::str("food"), Value::str("s0")]).unwrap();
    engine.register("clashing", b.finish());
    let err = engine
        .query(
            "SELECT category, SUM(qty) FROM sales JOIN clashing \
             ON sales.item = clashing.item GROUP BY category",
            QueryMode::Exact,
        )
        .unwrap_err();
    assert!(err.to_string().contains("column store exists on both sides"), "{err}");
}

/// A sharded dimension side answers exactly like an unsharded one.
#[test]
fn sharded_dimension_side_is_invisible() {
    let fact = sales(2_000);
    let dim = items();
    let sql = JOIN_QUERIES[0].0;

    let mut plain = Engine::new().with_seed(1);
    plain.register("sales", fact.clone());
    plain.register("items", dim.clone());
    let want = plain.query(sql, QueryMode::Exact).unwrap();

    let mut sharded = Engine::new().with_seed(1);
    sharded.register("sales", fact);
    sharded.register("items", ShardedTable::split(&dim, 3).unwrap());
    let got = sharded.query(sql, QueryMode::Exact).unwrap();
    assert_bit_identical(&got.results, &want.results, "sharded dim");
}

/// EXPLAIN over a join plans without executing, and the report carries the
/// join description.
#[test]
fn explain_join_reports_without_executing() {
    let mut engine = Engine::new().with_seed(1);
    engine.register("sales", sales(500));
    engine.register("items", items());
    let ans = engine
        .query(
            "EXPLAIN SELECT category, SUM(qty) FROM sales JOIN items \
             ON sales.item = items.item GROUP BY category",
            QueryMode::Auto,
        )
        .unwrap();
    assert!(ans.results.is_empty(), "EXPLAIN must not execute");
    assert_eq!(ans.report.join.as_deref(), Some("items ON sales.item = items.item"));
    assert_eq!(ans.report.mode, QueryMode::Exact, "joins answer exactly");
    let line = ans.report.to_line();
    assert!(line.contains("join items"), "{line}");
}

/// Join error paths are caught at plan time with informative messages.
#[test]
fn join_error_paths_are_informative() {
    let mut engine = Engine::new().with_seed(1);
    engine.register("sales", sales(500));
    engine.register("items", items());

    let sql = "SELECT category, SUM(qty) FROM sales JOIN items \
               ON sales.item = items.item GROUP BY category";
    let err = engine.query(sql, QueryMode::Approximate).unwrap_err();
    assert!(err.to_string().contains("exactly"), "{err}");

    let err = engine
        .query(
            "SELECT category, SUM(qty) FROM sales JOIN nope \
             ON sales.item = nope.item GROUP BY category",
            QueryMode::Exact,
        )
        .unwrap_err();
    assert!(err.to_string().to_lowercase().contains("table"), "{err}");

    // Auto mode answers joins exactly instead of erroring.
    let ans = engine.query(sql, QueryMode::Auto).unwrap();
    assert_eq!(ans.report.mode, QueryMode::Exact);
    assert_eq!(ans.report.reason, "join queries answer exactly");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fact/dim tables — keys with empty strings, keys missing from
    /// the dimension, duplicate dimension keys — joined through the Engine
    /// match the nested-loop reference over the pre-joined table, at every
    /// swept thread count and a shard split.
    #[test]
    fn random_joins_match_reference(
        fact_rows in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..200),
        dim_rows in proptest::collection::vec((0u8..10, any::<u8>()), 0..20),
    ) {
        let mut b = TableBuilder::new(&[("k", DataType::Str), ("v", DataType::Int64)]);
        for (k, v) in &fact_rows {
            // k % 16 > 9 yields keys no dimension row can carry; 0 maps to
            // the empty string.
            let key = match k % 16 {
                0 => String::new(),
                other => format!("k{other}"),
            };
            b.push_row(&[Value::str(key), Value::Int64(*v as i64)]).unwrap();
        }
        let fact = b.finish();
        let mut b = TableBuilder::new(&[("k", DataType::Str), ("w", DataType::Int64)]);
        for (k, w) in &dim_rows {
            // Dimension keys stay in k0..k9; repeats are genuine duplicate
            // keys and must fan out.
            b.push_row(&[Value::str(format!("k{k}")), Value::Int64(*w as i64)]).unwrap();
        }
        let dim = b.finish();

        let joined = nested_loop_join(&fact, &dim, "k", "k");
        let mut reference = Engine::new().with_seed(1).with_exec(ExecOptions::sequential());
        reference.register("joined", joined);
        let sql = "SELECT k, SUM(v), SUM(w), COUNT(*) FROM fact JOIN dim ON fact.k = dim.k \
                   GROUP BY k";
        let ref_sql = "SELECT k, SUM(v), SUM(w), COUNT(*) FROM joined GROUP BY k";
        // The join key collides on both sides; the dimension drops its copy,
        // so grouping by `k` resolves to the fact column either way.
        let want = match reference.query(ref_sql, QueryMode::Exact) {
            Ok(ans) => ans,
            // An all-unmatched fixture joins to zero rows; grouping an
            // empty table is still well-defined, so this must not happen.
            Err(e) => return Err(format!("reference: {e}")),
        };

        for threads in thread_counts() {
            let mut engine = Engine::new().with_seed(1).with_exec(ExecOptions::new(threads));
            engine.register("fact", fact.clone());
            engine.register("dim", dim.clone());
            let got = engine.query(sql, QueryMode::Exact).unwrap();
            prop_assert_eq!(&got.results.len(), &want.results.len());
            for (g, w) in got.results.iter().zip(&want.results) {
                prop_assert_eq!(&g.keys, &w.keys, "threads {}", threads);
                prop_assert_eq!(&g.values, &w.values, "threads {}", threads);
                prop_assert_eq!(&g.group_rows, &w.group_rows, "threads {}", threads);
            }
        }
        for shards in shard_counts().into_iter().filter(|&s| s > 1) {
            let mut engine = Engine::new().with_seed(1);
            match ShardedTable::split(&fact, shards) {
                Ok(sharded) => { engine.register("fact", sharded); }
                Err(_) => continue, // fewer rows than shards
            }
            engine.register("dim", dim.clone());
            let got = engine.query(sql, QueryMode::Exact).unwrap();
            for (g, w) in got.results.iter().zip(&want.results) {
                prop_assert_eq!(&g.keys, &w.keys, "shards {}", shards);
                prop_assert_eq!(&g.values, &w.values, "shards {}", shards);
            }
        }
    }
}
