//! A deterministic build-side hash join.
//!
//! [`hash_join`] materializes the inner equi-join of a fact table against a
//! (small) dimension table: the dimension side is hashed once per fact
//! shard, each shard is probed per fixed-size partition, and the match
//! lists are appended **in shard order, then partition order** — global
//! fact-row order — into one output table. The output is therefore
//! identical for any shard layout of the fact side and any thread count.
//!
//! The output is an ordinary [`Table`]: downstream grouping, sampling, and
//! their determinism contracts apply to it unchanged.

use crate::error::TableError;
use crate::exec::{self, ExecOptions, RowRange, CHUNK_ROWS};
use crate::fxhash::FxHashMap;
use crate::reader::RowSpace;
use crate::schema::Schema;
use crate::table::{Table, TableBuilder};
use crate::types::DataType;
use crate::Result;

/// Dimension rows per join key: the build side of the join. Row lists are
/// ascending, so a fact row's matches are emitted in dimension row order.
enum BuildSide {
    /// String keys, pre-translated to fact dictionary codes: entry `c`
    /// holds the dimension rows whose key equals fact dictionary entry `c`.
    ByFactCode(Vec<Vec<u32>>),
    /// Integer-like keys (Int64 / Timestamp).
    ByInt(FxHashMap<i64, Vec<u32>>),
}

fn build_side(fact: &Table, dim: &Table, fact_key: &str, dim_key: &str) -> Result<BuildSide> {
    let fact_col = fact.column_by_name(fact_key)?;
    let dim_col = dim.column_by_name(dim_key)?;
    let (ft, dt) = (fact_col.data_type(), dim_col.data_type());
    if ft != dt {
        return Err(TableError::invalid(format!(
            "join keys have different types: {fact_key} is {ft}, {dim_key} is {dt}"
        )));
    }
    match ft {
        DataType::Str => {
            // The two tables have independent dictionaries, so string keys
            // match by text. Group dimension rows by key text, then
            // translate once per fact dictionary entry — probing is then a
            // single indexed load per fact row.
            let dim_dict = dim_col.dictionary().expect("str column has a dictionary");
            let dim_codes = dim_col.str_codes().expect("str column has codes");
            let mut by_dim_code: Vec<Vec<u32>> = vec![Vec::new(); dim_dict.len()];
            for (row, &code) in dim_codes.iter().enumerate() {
                by_dim_code[code as usize].push(row as u32);
            }
            let fact_dict = fact_col.dictionary().expect("str column has a dictionary");
            let by_fact_code = (0..fact_dict.len() as u32)
                .map(|c| match dim_dict.code_of(fact_dict.get(c)) {
                    Some(d) => by_dim_code[d as usize].clone(),
                    None => Vec::new(),
                })
                .collect();
            Ok(BuildSide::ByFactCode(by_fact_code))
        }
        DataType::Int64 | DataType::Timestamp => {
            let mut by_key: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
            for row in 0..dim.num_rows() {
                if let Some(k) = dim_col.i64_at(row) {
                    by_key.entry(k).or_default().push(row as u32);
                }
            }
            Ok(BuildSide::ByInt(by_key))
        }
        other => Err(TableError::invalid(format!(
            "join keys of type {other} are not supported (use string or integer keys)"
        ))),
    }
}

impl BuildSide {
    /// Dimension rows matching fact row `row`, ascending. Empty when the
    /// fact key is missing or unmatched (inner join drops the row).
    fn matches<'a>(&'a self, fact_col: &crate::column::Column, row: usize) -> &'a [u32] {
        match self {
            BuildSide::ByFactCode(by_code) => {
                let code = fact_col.str_code_at(row).expect("str column has codes");
                &by_code[code as usize]
            }
            BuildSide::ByInt(by_key) => match fact_col.i64_at(row) {
                Some(k) => by_key.get(&k).map(Vec::as_slice).unwrap_or(&[]),
                None => &[],
            },
        }
    }
}

/// The joined output schema: every fact column, then every dimension
/// column except the join key. A name present on both sides is an error —
/// the output would be ambiguous.
fn joined_schema(fact: &Schema, dim: &Table, dim_key: &str) -> Result<Schema> {
    let mut fields = fact.fields().to_vec();
    for field in dim.schema().fields() {
        if field.name == dim_key {
            continue;
        }
        if fields.iter().any(|f| f.name == field.name) {
            return Err(TableError::invalid(format!(
                "column {} exists on both sides of the join; rename one before joining",
                field.name
            )));
        }
        fields.push(field.clone());
    }
    Ok(Schema::from_fields(fields))
}

/// Matched `(fact_row, dim_row)` pairs in global fact-row order: partitions
/// are probed in parallel and concatenated in partition order, so the
/// result is independent of the thread count.
fn probe(fact: &Table, fact_key: &str, side: &BuildSide, options: &ExecOptions) -> Vec<(u32, u32)> {
    let fact_col = fact.column_by_name(fact_key).expect("checked by build_side");
    let n = fact.num_rows();
    let scan = |range: RowRange| {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for row in range.rows() {
            for &dim_row in side.matches(fact_col, row) {
                pairs.push((row as u32, dim_row));
            }
        }
        pairs
    };
    if options.threads() <= 1 || n <= CHUNK_ROWS {
        scan(RowRange { start: 0, end: n })
    } else {
        exec::run_partitioned(
            n,
            options,
            |_, range| scan(range),
            |parts| {
                let mut all = Vec::with_capacity(parts.iter().map(Vec::len).sum());
                for part in parts {
                    all.extend(part);
                }
                all
            },
        )
    }
}

/// Materialize the inner equi-join `fact JOIN dim ON fact_key = dim_key`.
///
/// The fact side is a `&Table` or a [`ShardSet`](crate::reader::ShardSet)
/// whose shards are all in-process (a join reads whole rows, which only
/// local shards can lend). The dimension side is the build side; each fact
/// shard is probed per partition and its matches are appended, in shard
/// order, to one output table. Output rows appear in fact-row order, and a
/// fact row matching several dimension rows yields one output row per
/// match, in dimension row order — byte-identical output for any fact-side
/// shard layout and any thread count. String keys match by text (every
/// table's dictionary is independent); rows whose key is missing or
/// unmatched are dropped (inner join).
pub fn hash_join<'a>(
    fact: impl Into<RowSpace<'a>>,
    dim: &Table,
    fact_key: &str,
    dim_key: &str,
    options: &ExecOptions,
) -> Result<Table> {
    let fact = fact.into();
    let Some(shards) = fact.local_tables() else {
        return Err(TableError::invalid(
            "JOIN needs local rows; a fact-side shard is behind a non-local reader",
        ));
    };
    let schema = joined_schema(fact.schema(), dim, dim_key)?;
    let dim_key_idx = dim.schema().index_of(dim_key)?;
    let mut builder = TableBuilder::from_schema(schema);
    let mut values = Vec::with_capacity(fact.schema().len() + dim.num_columns() - 1);
    for shard in shards {
        // String keys translate through the shard's own dictionary, so the
        // build side is per shard.
        let side = build_side(shard, dim, fact_key, dim_key)?;
        let pairs = probe(shard, fact_key, &side, options);
        builder.reserve(pairs.len());
        for (fact_row, dim_row) in pairs {
            values.clear();
            values.extend(shard.row(fact_row as usize));
            for (idx, column) in dim.columns().iter().enumerate() {
                if idx != dim_key_idx {
                    values.push(column.value(dim_row as usize));
                }
            }
            builder.push_row(&values)?;
        }
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarExpr;
    use crate::reader::ShardSet;
    use crate::shard::ShardedTable;
    use crate::types::Value;

    fn fact() -> Table {
        let mut b = TableBuilder::new(&[
            ("k", DataType::Str),
            ("v", DataType::Float64),
            ("n", DataType::Int64),
        ]);
        let rows = [("a", 1.0, 1), ("b", 2.0, 2), ("zz", 3.0, 3), ("a", 4.0, 4), ("c", 5.0, 5)];
        for (k, v, n) in rows {
            b.push_row(&[Value::str(k), Value::Float64(v), Value::Int64(n)]).unwrap();
        }
        b.finish()
    }

    fn dim() -> Table {
        let mut b = TableBuilder::new(&[("dk", DataType::Str), ("region", DataType::Str)]);
        for (k, r) in [("b", "south"), ("a", "north"), ("c", "south"), ("d", "east")] {
            b.push_row(&[Value::str(k), Value::str(r)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn inner_join_drops_unmatched_and_keeps_fact_order() {
        let j = hash_join(&fact(), &dim(), "k", "dk", &ExecOptions::sequential()).unwrap();
        // "zz" has no dimension row; dimension key column is dropped.
        assert_eq!(j.schema().names(), vec!["k", "v", "n", "region"]);
        assert_eq!(j.num_rows(), 4);
        let regions: Vec<Value> = (0..4).map(|r| j.column(3).value(r)).collect();
        assert_eq!(
            regions,
            vec![
                Value::str("north"),
                Value::str("south"),
                Value::str("north"),
                Value::str("south")
            ]
        );
        let vs: Vec<Option<f64>> = (0..4).map(|r| j.column(1).f64_at(r)).collect();
        assert_eq!(vs, vec![Some(1.0), Some(2.0), Some(4.0), Some(5.0)]);
    }

    #[test]
    fn duplicate_dim_keys_fan_out_in_dim_row_order() {
        let mut b = TableBuilder::new(&[("dk", DataType::Str), ("tag", DataType::Int64)]);
        for (k, t) in [("a", 10), ("b", 20), ("a", 30)] {
            b.push_row(&[Value::str(k), Value::Int64(t)]).unwrap();
        }
        let d = b.finish();
        let j = hash_join(&fact(), &d, "k", "dk", &ExecOptions::sequential()).unwrap();
        // Fact rows a,b,a fan out in fact order, duplicates in dim row
        // order: a→(10,30), b→(20), a→(10,30). zz and c are unmatched.
        let pairs: Vec<(Option<i64>, Option<i64>)> =
            (0..j.num_rows()).map(|r| (j.column(2).i64_at(r), j.column(3).i64_at(r))).collect();
        assert_eq!(
            pairs,
            vec![
                (Some(1), Some(10)),
                (Some(1), Some(30)),
                (Some(2), Some(20)),
                (Some(4), Some(10)),
                (Some(4), Some(30)),
            ]
        );
    }

    #[test]
    fn int_keys_join() {
        let mut b = TableBuilder::new(&[("id", DataType::Int64), ("w", DataType::Float64)]);
        for (id, w) in [(2i64, 0.5), (1, 0.25)] {
            b.push_row(&[Value::Int64(id), Value::Float64(w)]).unwrap();
        }
        let d = b.finish();
        let j = hash_join(&fact(), &d, "n", "id", &ExecOptions::sequential()).unwrap();
        assert_eq!(j.num_rows(), 2); // n = 1 and n = 2 match
        assert_eq!(j.column(0).value(0), Value::str("a"));
        assert_eq!(j.column(3).f64_at(0), Some(0.25));
        assert_eq!(j.column(3).f64_at(1), Some(0.5));
    }

    #[test]
    fn key_type_mismatch_and_collisions_error() {
        let err = hash_join(&fact(), &dim(), "n", "dk", &ExecOptions::sequential()).unwrap_err();
        assert!(err.to_string().contains("different types"), "{err}");
        let mut b = TableBuilder::new(&[("dk", DataType::Str), ("v", DataType::Float64)]);
        b.push_row(&[Value::str("a"), Value::Float64(9.0)]).unwrap();
        let clash = b.finish();
        let err = hash_join(&fact(), &clash, "k", "dk", &ExecOptions::sequential()).unwrap_err();
        assert!(err.to_string().contains("both sides"), "{err}");
        let err = hash_join(&fact(), &dim(), "v", "dk", &ExecOptions::sequential()).unwrap_err();
        assert!(err.to_string().contains("different types"), "{err}");
    }

    #[test]
    fn float_keys_rejected() {
        let mut b = TableBuilder::new(&[("fk", DataType::Float64)]);
        b.push_row(&[Value::Float64(1.0)]).unwrap();
        let d = b.finish();
        let err = hash_join(&fact(), &d, "v", "fk", &ExecOptions::sequential()).unwrap_err();
        assert!(err.to_string().contains("not supported"), "{err}");
    }

    #[test]
    fn parallel_join_matches_sequential() {
        // Enough fact rows to span several partitions.
        let n = 2 * CHUNK_ROWS + 777;
        let mut b = TableBuilder::new(&[("k", DataType::Str), ("v", DataType::Float64)]);
        let mut state = 0xdeadbeefcafef00du64;
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            b.push_row(&[Value::str(format!("k{}", state % 101)), Value::Float64(1.0)]).unwrap();
        }
        let f = b.finish();
        let mut b = TableBuilder::new(&[("dk", DataType::Str), ("grp", DataType::Str)]);
        for i in 0..80 {
            // Keys k0..k79 exist (k80..k100 unmatched), with one duplicate.
            b.push_row(&[Value::str(format!("k{i}")), Value::str(format!("g{}", i % 7))]).unwrap();
            if i == 11 {
                b.push_row(&[Value::str("k11"), Value::str("dup")]).unwrap();
            }
        }
        let d = b.finish();
        let reference = hash_join(&f, &d, "k", "dk", &ExecOptions::sequential()).unwrap();
        for threads in [2usize, 8] {
            let got = hash_join(&f, &d, "k", "dk", &ExecOptions::new(threads)).unwrap();
            assert_eq!(got.num_rows(), reference.num_rows(), "threads {threads}");
            for c in 0..reference.num_columns() {
                for r in (0..reference.num_rows()).step_by(997) {
                    assert_eq!(got.column(c).value(r), reference.column(c).value(r));
                }
            }
        }
        // Sharded fact side: identical to the single-table join.
        for shards in [1usize, 3] {
            let sharded = ShardSet::from(ShardedTable::split(&f, shards).unwrap());
            let got = hash_join(&sharded, &d, "k", "dk", &ExecOptions::new(2)).unwrap();
            assert_eq!(got.num_rows(), reference.num_rows(), "shards {shards}");
            for r in (0..reference.num_rows()).step_by(991) {
                assert_eq!(got.row(r), reference.row(r));
            }
        }
    }

    #[test]
    fn fact_shards_behind_a_reader_cannot_join() {
        let sharded = ShardedTable::split(&fact(), 2).unwrap();
        for (kind, set) in crate::reader::tests::layouts_of(&sharded) {
            let joined = hash_join(&set, &dim(), "k", "dk", &ExecOptions::sequential());
            match kind {
                "local" => assert_eq!(joined.unwrap().num_rows(), 4),
                _ => assert!(joined.unwrap_err().to_string().contains("local rows"), "{kind}"),
            }
        }
    }

    #[test]
    fn joined_table_groups_like_prejoined() {
        let j = hash_join(&fact(), &dim(), "k", "dk", &ExecOptions::sequential()).unwrap();
        let gi = crate::groupby::GroupIndex::build(&j, &[ScalarExpr::col("region")]).unwrap();
        assert_eq!(gi.num_groups(), 2);
        assert_eq!(gi.sizes(), &[2, 2]);
    }

    #[test]
    fn empty_sides() {
        let empty_fact =
            TableBuilder::new(&[("k", DataType::Str), ("v", DataType::Float64)]).finish();
        let j = hash_join(&empty_fact, &dim(), "k", "dk", &ExecOptions::sequential()).unwrap();
        assert_eq!(j.num_rows(), 0);
        assert_eq!(j.schema().names(), vec!["k", "v", "region"]);
        let empty_dim = TableBuilder::new(&[("dk", DataType::Str)]).finish();
        let j = hash_join(&fact(), &empty_dim, "k", "dk", &ExecOptions::sequential()).unwrap();
        assert_eq!(j.num_rows(), 0);
    }
}
