//! A deterministic build-side hash join that never holds its joined rows.
//!
//! [`hash_join`] groups the dimension side by key once, probes each fact
//! shard per fixed-size partition and keeps only how many joined rows each
//! fact partition yields — laid out **in shard order, then partition
//! order**, global fact-row order — so the joined row space is identical
//! for any shard layout of the fact side and any thread count. No match
//! list is kept and no joined row is assembled.
//!
//! The [`Join`] it returns borrows both sides. [`Join::project`] produces
//! the joined rows of one range on demand — it finds the fact partition
//! the range starts in, probes from there, and copies the joined columns a
//! statement names, and only those, into an ordinary [`Table`] a column at
//! a time through the gather kernel (`Column::gather`). An exact statement
//! ([`GroupByQuery::execute_join`](crate::GroupByQuery::execute_join))
//! produces, gathers and folds one joined partition at a time, so no buffer
//! the size of the join exists.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::column::Column;
use crate::dict::Dictionary;
use crate::error::{check_row_ids, TableError};
use crate::exec::{self, ExecOptions, RowRange};
use crate::fxhash::FxHashMap;
use crate::reader::RowSpace;
use crate::schema::Schema;
use crate::table::Table;
use crate::Result;

/// Process-wide bytes of the largest table [`Join::project`] has made.
static MAX_BYTES_GATHERED: AtomicU64 = AtomicU64::new(0);

/// Bytes of the largest table one [`Join::project`] call has returned in
/// this process so far: what a join statement holds of its joined rows at
/// once. Monotonic; never reset.
pub fn max_join_bytes_gathered() -> u64 {
    MAX_BYTES_GATHERED.load(Ordering::Relaxed)
}

/// Dimension rows per join key, grouped once per join: the build side. Row
/// lists are ascending, so a fact row's matches are emitted in dimension
/// row order.
#[derive(Debug)]
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

/// One fact shard's join keys, as the probe reads them.
#[derive(Debug)]
enum FactKeys<'a> {
    /// String keys: every row's dictionary code and, per code, the
    /// dimension dictionary code of the same text — the build side's empty
    /// last list when the dimension lacks it. Every table has a dictionary
    /// of its own, so string keys match by text, and probing a row is two
    /// indexed loads.
    Codes { codes: &'a [u32], dim_code: Vec<u32> },
    /// Integer-like keys.
    Ints(&'a [i64]),
}

fn fact_keys<'a>(keys: &'a Column, side: &BuildSide<'_>) -> Result<FactKeys<'a>> {
    check_row_ids("a fact shard", keys.len())?;
    Ok(match side {
        BuildSide::ByDimCode { dict, .. } => {
            let unmatched = dict.len() as u32;
            let fact_dict = keys.dictionary().expect("key types checked by build_side");
            let dim_code =
                fact_dict.iter().map(|(_, key)| dict.code_of(key).unwrap_or(unmatched)).collect();
            let codes = keys.str_codes().expect("key types checked by build_side");
            FactKeys::Codes { codes, dim_code }
        }
        BuildSide::ByInt(_) => {
            FactKeys::Ints(keys.i64_slice().expect("key types checked by build_side"))
        }
    })
}

/// One fact partition of the probe: rows `rows` of fact shard `shard`,
/// whose matches end at joined row `end` (the partitions before it, in
/// shard then partition order, yield the joined rows before its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FactPartition {
    shard: usize,
    rows: RowRange,
    end: usize,
}

/// Lay `(shard, rows, matches)` fact partitions — in shard order, then
/// partition order — end to end over the joined rows. Refused when the
/// joined rows would not fit a `u32` row id: before any joined row exists.
fn lay_out(
    counted: impl IntoIterator<Item = (usize, RowRange, usize)>,
) -> Result<Vec<FactPartition>> {
    let mut end = 0usize;
    let partitions: Vec<FactPartition> = counted
        .into_iter()
        .map(|(shard, rows, matches)| {
            end = end.saturating_add(matches);
            FactPartition { shard, rows, end }
        })
        .collect();
    check_row_ids("the joined row count", end)?;
    Ok(partitions)
}

/// One joined row: row `fact` of fact shard `shard` met dimension row `dim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Match {
    shard: u32,
    fact: u32,
    dim: u32,
}

/// The inner equi-join of a fact side with a dimension table: the build
/// side and each fact partition's match count, nothing per joined row. See
/// [`hash_join`].
#[derive(Debug)]
pub struct Join<'a> {
    shards: Vec<&'a Table>,
    dim: &'a Table,
    /// Position of the join key among `dim`'s columns — the one dimension
    /// column `schema` leaves out.
    dim_key: usize,
    schema: Schema,
    side: BuildSide<'a>,
    /// Per fact shard, its join keys.
    keys: Vec<FactKeys<'a>>,
    /// Every fact partition, in shard then partition order, with the
    /// joined row its matches end at.
    partitions: Vec<FactPartition>,
}

impl Join<'_> {
    /// Number of joined rows.
    pub fn num_rows(&self) -> usize {
        self.partitions.last().map_or(0, |p| p.end)
    }

    /// The joined schema: every fact column, then every dimension column
    /// except the join key.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Probe rows `rows` of fact shard `shard` in order, handing `visit`
    /// each row with the dimension rows it matches, in dimension row order,
    /// until `visit` returns `false`. The key type is matched once per call,
    /// not per row.
    fn probe(
        &self,
        shard: usize,
        rows: Range<usize>,
        mut visit: impl FnMut(usize, &[u32]) -> bool,
    ) {
        match (&self.side, &self.keys[shard]) {
            (BuildSide::ByDimCode { rows: lists, .. }, FactKeys::Codes { codes, dim_code }) => {
                for (row, &code) in rows.clone().zip(&codes[rows]) {
                    if !visit(row, &lists[dim_code[code as usize] as usize]) {
                        return;
                    }
                }
            }
            (BuildSide::ByInt(by_key), FactKeys::Ints(keys)) => {
                for (row, key) in rows.clone().zip(&keys[rows]) {
                    if !visit(row, by_key.get(key).map_or(&[], Vec::as_slice)) {
                        return;
                    }
                }
            }
            _ => unreachable!("fact keys are read as the build side keys them"),
        }
    }

    /// Write joined rows `range` to `out`, in joined order: find the fact
    /// partition `range.start` falls in by a binary search over the
    /// partitions' ends, probe from its first row, skip the matches before
    /// `range.start`, stop at `range.end`. A fact row's matches may fall
    /// either side of a range boundary.
    fn matches_in(&self, range: Range<usize>, out: &mut Vec<Match>) {
        let first = self.partitions.partition_point(|p| p.end <= range.start);
        let mut joined = first.checked_sub(1).map_or(0, |p| self.partitions[p].end);
        for partition in &self.partitions[first..] {
            if joined >= range.end {
                return;
            }
            let shard = partition.shard as u32;
            self.probe(partition.shard, partition.rows.rows(), |row, dims| {
                let fact = row as u32;
                match dims {
                    // The common case: one match, inside the range.
                    [dim] if joined >= range.start => out.push(Match { shard, fact, dim: *dim }),
                    _ => {
                        let skip = range.start.saturating_sub(joined).min(dims.len());
                        let take = range.end.saturating_sub(joined).min(dims.len());
                        out.extend(dims[skip..take].iter().map(|&dim| Match { shard, fact, dim }));
                    }
                }
                joined += dims.len();
                joined < range.end
            });
        }
    }

    /// Joined rows `range` as a table of the joined columns `names`, in the
    /// order named. The range's rows are resolved into a buffer of
    /// `range.len()` (shard, fact row, dimension row) triples; each named
    /// column is gathered through it on its own (a fact column over the
    /// shards' columns, a dimension column over the dimension's), so a
    /// column that is not named costs nothing, and a table of no columns
    /// still has `range.len()` rows. String dictionaries come out in
    /// first-occurrence order of the range's rows: the table is the one a
    /// row-by-row build of the same rows and columns would produce.
    /// `0..num_rows()` is every joined row; an exact statement
    /// ([`GroupByQuery::execute_join`](crate::GroupByQuery::execute_join))
    /// only ever asks for one [`CHUNK_ROWS`](exec::CHUNK_ROWS)-row joined
    /// partition.
    pub fn project(&self, names: &[&str], range: Range<usize>) -> Result<Table> {
        if range.start > range.end || range.end > self.num_rows() {
            return Err(TableError::invalid(format!(
                "joined rows {range:?} out of range for a join of {} rows",
                self.num_rows()
            )));
        }
        let mut matches = Vec::with_capacity(range.len());
        self.matches_in(range, &mut matches);
        let table = self.gather(names, &matches)?;
        MAX_BYTES_GATHERED.fetch_max(table.approx_bytes(), Ordering::Relaxed);
        Ok(table)
    }

    /// The joined columns `names` of the joined rows `matches`.
    fn gather(&self, names: &[&str], matches: &[Match]) -> Result<Table> {
        let fact_width = self.shards[0].num_columns();
        let n = matches.len();
        let mut fields = Vec::with_capacity(names.len());
        let mut columns = Vec::with_capacity(names.len());
        for name in names {
            let idx = self.schema.index_of(name)?;
            let field = self.schema.field(idx);
            columns.push(if idx < fact_width {
                let parts: Vec<&Column> = self.shards.iter().map(|s| s.column(idx)).collect();
                Column::gather(field.dtype, &parts, n, |i| {
                    (matches[i].shard as usize, matches[i].fact as usize)
                })?
            } else {
                // The joined schema skips the dimension's key column.
                let d = idx - fact_width;
                let source = self.dim.column(d + usize::from(d >= self.dim_key));
                Column::gather(field.dtype, &[source], n, |i| (0, matches[i].dim as usize))?
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
/// shard is probed per partition, in shard order, and each partition's
/// match count is kept. Joined rows appear in fact-row order, and a fact
/// row matching several dimension rows yields one joined row per match, in
/// dimension row order — the same rows for any fact-side shard layout and
/// any thread count. String keys match by text (every table's dictionary
/// is independent); rows whose key is missing or unmatched are dropped
/// (inner join). A join of more joined rows than a `u32` row id addresses
/// is refused here. Nothing is copied until [`Join::project`] names the
/// joined rows and columns to copy.
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
    let keys = shards
        .iter()
        .map(|shard| fact_keys(shard.column(fact_key_idx), &side))
        .collect::<Result<Vec<_>>>()?;
    let mut join =
        Join { shards, dim, dim_key: dim_key_idx, schema, side, keys, partitions: Vec::new() };
    let mut counted = Vec::new();
    for (s, shard) in join.shards.iter().enumerate() {
        let count = |_, rows: RowRange| {
            let mut matches = 0;
            join.probe(s, rows.rows(), |_, dims| {
                matches += dims.len();
                true
            });
            (s, rows, matches)
        };
        counted.extend(exec::run_partitioned(shard.num_rows(), options, count, |c| c));
    }
    join.partitions = lay_out(counted)?;
    Ok(join)
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
        join.project(&join.schema().names(), 0..join.num_rows()).unwrap()
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
        let narrow = j.project(&["region", "v"], 0..4).unwrap();
        assert_eq!(narrow.schema().names(), vec!["region", "v"]);
        assert_eq!(
            narrow.approx_bytes(),
            all.column(3).approx_bytes() + all.column(1).approx_bytes()
        );
        for row in 0..all.num_rows() {
            assert_eq!(narrow.row(row), vec![all.column(3).value(row), all.column(1).value(row)]);
        }
        // No column at all still has the joined rows (`COUNT(*)`).
        let none = j.project(&[], 0..4).unwrap();
        assert_eq!((none.num_columns(), none.num_rows(), none.approx_bytes()), (0, 4, 0));
        // Rows past the join are not joined rows.
        let err = j.project(&["v"], 2..5).unwrap_err();
        assert!(err.to_string().contains("out of range for a join of 4 rows"), "{err}");
        // The dimension's key is not a joined column; neither is a typo.
        for missing in ["dk", "nope"] {
            let err = j.project(&["v", missing], 0..4).unwrap_err();
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
            // `hash_join` lays its fact partitions out end to end before it
            // returns a `Join`: a join past the cap is refused there, before
            // any joined partition can be produced.
            let partition = RowRange { start: 0, end: CHUNK_ROWS };
            let at_cap = lay_out([(0, partition, u32::MAX as usize)]).unwrap();
            assert_eq!(at_cap[0].end, u32::MAX as usize);
            let past = lay_out([(0, partition, u32::MAX as usize), (1, partition, 1)]);
            assert_eq!(past.unwrap_err(), err);
        }
    }

    /// Joined rows cut anywhere — inside a fan-out, at and around partition
    /// boundaries, across fact shards — project to pieces whose rows,
    /// concatenated, are the whole range's rows, strings compared by text.
    #[test]
    fn projections_of_any_split_concatenate_to_the_whole() {
        let n = 2 * CHUNK_ROWS - 1000;
        let mut b = TableBuilder::new(&[("k", DataType::Str), ("v", DataType::Float64)]);
        for i in 0..n {
            b.push_row(&[Value::str(format!("k{}", i % 10)), Value::Float64(i as f64)]).unwrap();
        }
        let f = ShardSet::from(ShardedTable::split(&b.finish(), 3).unwrap());
        // k3 fans out four ways and k5 three; k7..k9 are unmatched.
        let mut b = TableBuilder::new(&[("dk", DataType::Str), ("grp", DataType::Str)]);
        for (k, copies) in [(0, 1), (1, 1), (2, 1), (3, 4), (4, 1), (5, 3), (6, 1)] {
            for c in 0..copies {
                b.push_row(&[Value::str(format!("k{k}")), Value::str(format!("g{k}.{c}"))])
                    .unwrap();
            }
        }
        let d = b.finish();
        let names = ["grp", "v", "k"];
        for threads in [1usize, 4] {
            let j = hash_join(&f, &d, "k", "dk", &ExecOptions::new(threads)).unwrap();
            let total = j.num_rows();
            assert!(total > 2 * CHUNK_ROWS, "{total}");
            let whole = j.project(&names, 0..total).unwrap();
            // Joined rows 3..7 are fact row 3's four matches: 5 cuts them.
            let boundaries = [0, 5, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 2, 2 * CHUNK_ROWS + 3];
            let strided: Vec<usize> = (0..total).step_by(9_999).collect();
            for cuts in [vec![0], boundaries.to_vec(), strided] {
                let mut row = 0;
                for (i, &start) in cuts.iter().enumerate() {
                    let end = cuts.get(i + 1).copied().unwrap_or(total);
                    let piece = j.project(&names, start..end).unwrap();
                    assert_eq!(piece.num_rows(), end - start);
                    for r in 0..piece.num_rows() {
                        assert_eq!(piece.row(r), whole.row(row), "row {row}, threads {threads}");
                        row += 1;
                    }
                }
                assert_eq!(row, total, "threads {threads}");
            }
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
        let reference_rows = full(&reference);
        for threads in [2usize, 8] {
            let got = hash_join(&f, &d, "k", "dk", &ExecOptions::new(threads)).unwrap();
            assert_eq!(got.partitions, reference.partitions, "threads {threads}");
            assert_same_storage(&full(&got), &reference_rows, &format!("threads {threads}"));
        }
        // Sharded fact side — every shard with a dictionary of its own —
        // joins to the single table's rows.
        let reference = reference_rows;
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
        let read = j.project(&["region"], 0..j.num_rows()).unwrap();
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
