//! A deterministic build-side hash join that copies only what is read.
//!
//! [`hash_join`] resolves the inner equi-join of a fact table against a
//! (small) dimension table to a **match list** — one *(fact shard, fact
//! row, dimension row)* triple per joined row — and stops there. The
//! dimension side is grouped by key once, each fact shard is probed per
//! fixed-size partition, and every partition writes its matches into its
//! own window of the one list, windows laid out **in shard order, then
//! partition order** — global fact-row order — so the list is identical
//! for any shard layout of the fact side and any thread count. No joined
//! row is ever assembled.
//!
//! The [`Join`] it returns borrows both sides. [`Join::project`] copies the
//! joined columns a statement names, and only those, into an ordinary
//! [`Table`] — a column at a time, through the gather kernel
//! (`Column::gather`) — and downstream grouping, sampling, and their
//! determinism contracts apply to that table unchanged.

use crate::column::Column;
use crate::dict::Dictionary;
use crate::error::{check_row_ids, TableError};
use crate::exec::{self, ExecOptions};
use crate::fxhash::FxHashMap;
use crate::reader::RowSpace;
use crate::schema::Schema;
use crate::table::Table;
use crate::Result;
use std::sync::Mutex;

/// Dimension rows per join key, grouped once per join: the build side. Row
/// lists are ascending, so a fact row's matches are emitted in dimension
/// row order.
enum BuildSide<'a> {
    /// String keys: list `d` holds the dimension rows whose key is entry
    /// `d` of the dimension's dictionary `dict`; one more list, the last,
    /// stays empty — every fact key the dimension lacks points at it.
    ByDimCode { rows: Vec<Vec<u32>>, dict: &'a Dictionary },
    /// Integer-like keys (Int64 / Timestamp).
    ByInt(FxHashMap<i64, Vec<u32>>),
}

fn build_side<'a>(
    fact_col: &Column,
    dim_col: &'a Column,
    fact_key: &str,
    dim_key: &str,
) -> Result<BuildSide<'a>> {
    let (ft, dt) = (fact_col.data_type(), dim_col.data_type());
    if ft != dt {
        return Err(TableError::invalid(format!(
            "join keys have different types: {fact_key} is {ft}, {dim_key} is {dt}"
        )));
    }
    check_row_ids("the dimension table", dim_col.len())?;
    match dim_col {
        Column::Str { codes, dict } => {
            let mut rows: Vec<Vec<u32>> = vec![Vec::new(); dict.len() + 1];
            for (row, &code) in codes.iter().enumerate() {
                rows[code as usize].push(row as u32);
            }
            Ok(BuildSide::ByDimCode { rows, dict })
        }
        Column::Int64(keys) | Column::Timestamp(keys) => {
            let mut by_key: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
            for (row, &key) in keys.iter().enumerate() {
                by_key.entry(key).or_default().push(row as u32);
            }
            Ok(BuildSide::ByInt(by_key))
        }
        Column::Float64(_) | Column::Bool(_) => Err(TableError::invalid(format!(
            "join keys of type {dt} are not supported (use string or integer keys)"
        ))),
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

/// One joined row: row `fact` of fact shard `shard` met dimension row `dim`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Match {
    shard: u32,
    fact: u32,
    dim: u32,
}

/// Append the matches of rows `0..n` of fact shard `shard` — row `r` matches
/// dimension rows `matches(r)` — to `out`, in fact-row order whatever the
/// thread count. Two partitioned passes: the first counts every partition's
/// matches, which sizes `out` for the shard at once and cuts the new tail
/// into one window per partition; the second has each partition write its
/// own window (the lock is never contended — it only lends the window to
/// one worker). No worker allocates and no list doubles its way up: lists
/// that grow, or per-partition lists concatenated afterwards, leave the
/// allocator holding every size they passed through.
fn scan<'s>(
    shard: usize,
    n: usize,
    options: &ExecOptions,
    matches: impl Fn(usize) -> &'s [u32] + Sync,
    out: &mut Vec<Match>,
) -> Result<()> {
    let count = |_, range: exec::RowRange| range.rows().map(|row| matches(row).len()).sum();
    let counts: Vec<usize> = exec::run_partitioned(n, options, count, |counts| counts);
    let old = out.len();
    let joined = old + counts.iter().sum::<usize>();
    check_row_ids("the joined row count", joined)?;
    out.reserve_exact(joined - old);
    out.resize(joined, Match::default());

    let mut tail = &mut out[old..];
    let windows: Vec<Mutex<&mut [Match]>> = counts
        .iter()
        .map(|&count| {
            let (window, rest) = std::mem::take(&mut tail).split_at_mut(count);
            tail = rest;
            Mutex::new(window)
        })
        .collect();
    let fill = |partition: usize, range: exec::RowRange| {
        let mut window = windows[partition].lock().expect("a window has one writer");
        let mut slots = window.iter_mut();
        for row in range.rows() {
            for &dim in matches(row) {
                let slot = slots.next().expect("the window was sized by the same walk");
                *slot = Match { shard: shard as u32, fact: row as u32, dim };
            }
        }
    };
    exec::run_partitioned(n, options, fill, |_| ());
    Ok(())
}

/// [`scan`] fact shard `shard` through its key column `keys`.
fn probe(
    shard: usize,
    keys: &Column,
    side: &BuildSide<'_>,
    options: &ExecOptions,
    out: &mut Vec<Match>,
) -> Result<()> {
    check_row_ids("a fact shard", keys.len())?;
    match side {
        BuildSide::ByDimCode { rows, dict } => {
            // Every table has a dictionary of its own, so string keys match
            // by text: one lookup per fact dictionary entry fills one flat
            // `fact code → dimension code` table, and probing a row is two
            // indexed loads.
            let unmatched = dict.len() as u32;
            let fact_dict = keys.dictionary().expect("key types checked by build_side");
            let dim_code: Vec<u32> =
                fact_dict.iter().map(|(_, key)| dict.code_of(key).unwrap_or(unmatched)).collect();
            let codes = keys.str_codes().expect("key types checked by build_side");
            let matches = |row| &rows[dim_code[codes[row] as usize] as usize][..];
            scan(shard, codes.len(), options, matches, out)
        }
        BuildSide::ByInt(by_key) => {
            let keys = keys.i64_slice().expect("key types checked by build_side");
            let matches = |row| by_key.get(&keys[row]).map_or(&[][..], Vec::as_slice);
            scan(shard, keys.len(), options, matches, out)
        }
    }
}

/// The inner equi-join of a fact side with a dimension table, resolved to
/// its match list and not copied anywhere yet: see [`hash_join`].
#[derive(Debug)]
pub struct Join<'a> {
    shards: Vec<&'a Table>,
    dim: &'a Table,
    /// Position of the join key among `dim`'s columns — the one dimension
    /// column `schema` leaves out.
    dim_key: usize,
    schema: Schema,
    /// Joined rows in output order: shard, then fact row, then dimension
    /// row.
    matches: Vec<Match>,
}

impl Join<'_> {
    /// Number of joined rows.
    pub fn num_rows(&self) -> usize {
        self.matches.len()
    }

    /// The joined schema: every fact column, then every dimension column
    /// except the join key.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The joined rows as a table of the joined columns `names`, in the
    /// order named — the only copy a join makes. Each column is gathered
    /// through the match list on its own (a fact column over the shards'
    /// columns, a dimension column over the dimension's), so a column that
    /// is not named costs nothing, and a table of no columns still has
    /// [`Join::num_rows`] rows. String dictionaries come out in
    /// first-occurrence order of the joined rows: the table is the one a
    /// row-by-row build of the same rows and columns would produce.
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let fact_width = self.shards[0].num_columns();
        let n = self.matches.len();
        let mut fields = Vec::with_capacity(names.len());
        let mut columns = Vec::with_capacity(names.len());
        for name in names {
            let idx = self.schema.index_of(name)?;
            let field = self.schema.field(idx);
            columns.push(if idx < fact_width {
                let parts: Vec<&Column> = self.shards.iter().map(|s| s.column(idx)).collect();
                Column::gather(field.dtype, &parts, n, |i| {
                    let m = self.matches[i];
                    (m.shard as usize, m.fact as usize)
                })?
            } else {
                // The joined schema skips the dimension's key column.
                let d = idx - fact_width;
                let source = self.dim.column(d + usize::from(d >= self.dim_key));
                Column::gather(field.dtype, &[source], n, |i| (0, self.matches[i].dim as usize))?
            });
            fields.push(field.clone());
        }
        Table::try_from_columns(Schema::from_fields(fields), columns, n)
    }
}

/// Resolve the inner equi-join `fact JOIN dim ON fact_key = dim_key`.
///
/// The fact side is a `&Table` or a [`ShardSet`](crate::reader::ShardSet)
/// whose shards are all in-process (a join reads rows in place, which only
/// local shards can lend). The dimension side is the build side; each fact
/// shard is probed per partition and its matches are appended, in shard
/// order, to one match list. Joined rows appear in fact-row order, and a
/// fact row matching several dimension rows yields one joined row per
/// match, in dimension row order — the same list for any fact-side shard
/// layout and any thread count. String keys match by text (every table's
/// dictionary is independent); rows whose key is missing or unmatched are
/// dropped (inner join). Nothing is copied until [`Join::project`] names
/// the columns to copy.
pub fn hash_join<'a>(
    fact: impl Into<RowSpace<'a>>,
    dim: &'a Table,
    fact_key: &str,
    dim_key: &str,
    options: &ExecOptions,
) -> Result<Join<'a>> {
    let fact = fact.into();
    let Some(shards) = fact.local_tables() else {
        return Err(TableError::invalid(
            "JOIN needs local rows; a fact-side shard is behind a non-local reader",
        ));
    };
    let schema = joined_schema(fact.schema(), dim, dim_key)?;
    let dim_key_idx = dim.schema().index_of(dim_key)?;
    let fact_key_idx = fact.schema().index_of(fact_key)?;
    let side =
        build_side(shards[0].column(fact_key_idx), dim.column(dim_key_idx), fact_key, dim_key)?;
    let mut matches: Vec<Match> = Vec::new();
    for (s, shard) in shards.iter().enumerate() {
        probe(s, shard.column(fact_key_idx), &side, options, &mut matches)?;
    }
    Ok(Join { shards, dim, dim_key: dim_key_idx, schema, matches })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::CHUNK_ROWS;
    use crate::expr::ScalarExpr;
    use crate::reader::tests::assert_same_storage;
    use crate::reader::ShardSet;
    use crate::shard::ShardedTable;
    use crate::table::TableBuilder;
    use crate::types::{DataType, Value};

    /// Every joined column — the table the row-wise join used to build.
    fn full(join: &Join<'_>) -> Table {
        join.project(&join.schema().names()).unwrap()
    }

    /// The join built the slow way: nested loop, one `Vec<Value>` per
    /// joined row through `TableBuilder`.
    fn rowwise(fact: &Table, dim: &Table, fact_key: &str, dim_key: &str) -> Table {
        let fk = fact.schema().index_of(fact_key).unwrap();
        let dk = dim.schema().index_of(dim_key).unwrap();
        let schema = joined_schema(fact.schema(), dim, dim_key).unwrap();
        let mut b = TableBuilder::from_schema(schema);
        for fr in 0..fact.num_rows() {
            for dr in 0..dim.num_rows() {
                if fact.column(fk).value(fr) != dim.column(dk).value(dr) {
                    continue;
                }
                let mut row = fact.row(fr);
                row.extend(
                    (0..dim.num_columns()).filter(|&c| c != dk).map(|c| dim.row(dr)[c].clone()),
                );
                b.push_row(&row).unwrap();
            }
        }
        b.finish()
    }

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
        let (f, d) = (fact(), dim());
        let j = hash_join(&f, &d, "k", "dk", &ExecOptions::sequential()).unwrap();
        // "zz" has no dimension row; dimension key column is dropped.
        assert_eq!(j.schema().names(), vec!["k", "v", "n", "region"]);
        assert_eq!(j.num_rows(), 4);
        let j = full(&j);
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
        assert_same_storage(&j, &rowwise(&f, &d, "k", "dk"), "full projection");
    }

    #[test]
    fn duplicate_dim_keys_fan_out_in_dim_row_order() {
        let mut b = TableBuilder::new(&[("dk", DataType::Str), ("tag", DataType::Int64)]);
        for (k, t) in [("a", 10), ("b", 20), ("a", 30)] {
            b.push_row(&[Value::str(k), Value::Int64(t)]).unwrap();
        }
        let (f, d) = (fact(), b.finish());
        let j = full(&hash_join(&f, &d, "k", "dk", &ExecOptions::sequential()).unwrap());
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
        // The key is the dimension's *second* column: the columns either
        // side of it keep their joined positions.
        let mut b = TableBuilder::new(&[
            ("w", DataType::Float64),
            ("id", DataType::Int64),
            ("tag", DataType::Str),
        ]);
        for (w, id, tag) in [(0.5, 2i64, "two"), (0.25, 1, "one")] {
            b.push_row(&[Value::Float64(w), Value::Int64(id), Value::str(tag)]).unwrap();
        }
        let (f, d) = (fact(), b.finish());
        let j = hash_join(&f, &d, "n", "id", &ExecOptions::sequential()).unwrap();
        assert_eq!(j.num_rows(), 2); // n = 1 and n = 2 match
        assert_eq!(j.schema().names(), vec!["k", "v", "n", "w", "tag"]);
        let j = full(&j);
        assert_eq!(j.column(0).value(0), Value::str("a"));
        assert_eq!(j.column(3).f64_at(0), Some(0.25));
        assert_eq!(j.column(3).f64_at(1), Some(0.5));
        assert_same_storage(&j, &rowwise(&f, &d, "n", "id"), "int keys");
    }

    #[test]
    fn project_copies_the_named_columns_and_nothing_else() {
        let (f, d) = (fact(), dim());
        let j = hash_join(&f, &d, "k", "dk", &ExecOptions::sequential()).unwrap();
        let all = full(&j);
        // Any subset, in the order named, dimension before fact included.
        let narrow = j.project(&["region", "v"]).unwrap();
        assert_eq!(narrow.schema().names(), vec!["region", "v"]);
        assert_eq!(
            narrow.approx_bytes(),
            all.column(3).approx_bytes() + all.column(1).approx_bytes()
        );
        for row in 0..all.num_rows() {
            assert_eq!(narrow.row(row), vec![all.column(3).value(row), all.column(1).value(row)]);
        }
        // No column at all still has the joined rows (`COUNT(*)`).
        let none = j.project(&[]).unwrap();
        assert_eq!((none.num_columns(), none.num_rows(), none.approx_bytes()), (0, 4, 0));
        // The dimension's key is not a joined column; neither is a typo.
        for missing in ["dk", "nope"] {
            let err = j.project(&["v", missing]).unwrap_err();
            assert_eq!(err, TableError::ColumnNotFound(missing.into()));
        }
    }

    #[test]
    fn key_type_mismatch_and_collisions_error() {
        let (f, d) = (fact(), dim());
        let err = hash_join(&f, &d, "n", "dk", &ExecOptions::sequential()).unwrap_err();
        assert!(err.to_string().contains("different types"), "{err}");
        let mut b = TableBuilder::new(&[("dk", DataType::Str), ("v", DataType::Float64)]);
        b.push_row(&[Value::str("a"), Value::Float64(9.0)]).unwrap();
        let clash = b.finish();
        let err = hash_join(&f, &clash, "k", "dk", &ExecOptions::sequential()).unwrap_err();
        assert!(err.to_string().contains("both sides"), "{err}");
        let err = hash_join(&f, &d, "v", "dk", &ExecOptions::sequential()).unwrap_err();
        assert!(err.to_string().contains("different types"), "{err}");
        for (fact_key, dim_key, missing) in [("nope", "dk", "nope"), ("k", "nope", "nope")] {
            let err = hash_join(&f, &d, fact_key, dim_key, &ExecOptions::sequential()).unwrap_err();
            assert_eq!(err, TableError::ColumnNotFound(missing.into()));
        }
    }

    #[test]
    fn float_keys_rejected() {
        let mut b = TableBuilder::new(&[("fk", DataType::Float64)]);
        b.push_row(&[Value::Float64(1.0)]).unwrap();
        let (f, d) = (fact(), b.finish());
        let err = hash_join(&f, &d, "v", "fk", &ExecOptions::sequential()).unwrap_err();
        assert!(err.to_string().contains("not supported"), "{err}");
    }

    #[test]
    fn row_counts_past_u32_are_an_error_not_a_truncation() {
        assert_eq!(check_row_ids("a fact shard", 0), Ok(()));
        assert_eq!(check_row_ids("a fact shard", u32::MAX as usize), Ok(()));
        #[cfg(target_pointer_width = "64")]
        {
            let rows = u32::MAX as usize + 1;
            let err = check_row_ids("the joined row count", rows).unwrap_err();
            assert_eq!(err, TableError::RowIdOverflow { what: "the joined row count", rows });
            let text = err.to_string();
            assert!(text.contains("the joined row count has 4294967296 rows"), "{text}");
        }
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
            assert_eq!(got.matches, reference.matches, "threads {threads}");
        }
        // Sharded fact side — every shard with a dictionary of its own —
        // joins to the single table's rows.
        let reference = full(&reference);
        for shards in [1usize, 3] {
            let sharded = ShardSet::from(ShardedTable::split(&f, shards).unwrap());
            let got = hash_join(&sharded, &d, "k", "dk", &ExecOptions::new(2)).unwrap();
            assert_same_storage(&full(&got), &reference, &format!("shards {shards}"));
        }
    }

    #[test]
    fn fact_shards_behind_a_reader_cannot_join() {
        let (sharded, d) = (ShardedTable::split(&fact(), 2).unwrap(), dim());
        for (kind, set) in crate::reader::tests::layouts_of(&sharded) {
            let joined = hash_join(&set, &d, "k", "dk", &ExecOptions::sequential());
            match kind {
                "local" => assert_eq!(joined.unwrap().num_rows(), 4),
                _ => assert!(joined.unwrap_err().to_string().contains("local rows"), "{kind}"),
            }
        }
    }

    #[test]
    fn joined_table_groups_like_prejoined() {
        let (f, d) = (fact(), dim());
        let j = hash_join(&f, &d, "k", "dk", &ExecOptions::sequential()).unwrap();
        let read = j.project(&["region"]).unwrap();
        let gi = crate::groupby::GroupIndex::build(&read, &[ScalarExpr::col("region")]).unwrap();
        assert_eq!(gi.num_groups(), 2);
        assert_eq!(gi.sizes(), &[2, 2]);
    }

    #[test]
    fn empty_sides() {
        let empty_fact =
            TableBuilder::new(&[("k", DataType::Str), ("v", DataType::Float64)]).finish();
        let (f, d) = (fact(), dim());
        let j = hash_join(&empty_fact, &d, "k", "dk", &ExecOptions::sequential()).unwrap();
        assert_eq!(j.num_rows(), 0);
        assert_eq!(j.schema().names(), vec!["k", "v", "region"]);
        assert_eq!(full(&j).num_rows(), 0);
        let empty_dim = TableBuilder::new(&[("dk", DataType::Str)]).finish();
        let j = hash_join(&f, &empty_dim, "k", "dk", &ExecOptions::sequential()).unwrap();
        assert_eq!(j.num_rows(), 0);
    }
}
