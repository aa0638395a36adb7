//! The shard-pass surface, and the one row space every pass runs over.
//!
//! A shard answers a plan, not a row: [`ShardReader::walk`] folds the
//! partitions the shard holds and [`ShardReader::pick`] resolves a drawn
//! sample's ordinals to rows, so what crosses a shard boundary is keys,
//! per-partition partials and the sampled rows — plus, through
//! [`ShardReader::take_rows`], the rows of a partition that straddles a
//! shard boundary. [`LocalShard`] wraps an in-process [`Table`], and a
//! remote implementation answers the same questions over a wire. A
//! [`ShardSet`] is what every catalog table is: readers in shard order with
//! one logical row space (a plain table is a set of one [`LocalShard`]).
//!
//! *Where a shard's rows live* is known to this module alone. Every pass in
//! the workspace — group index, predicate bitmaps, statistics, exact
//! aggregation, gather, join — has one kernel, written against
//! [`RowSpace`]: a borrowed view that **lends** an in-process shard's
//! storage (the kernel reads its columns in place, under the caller's
//! execution options). A bare `&Table` is a one-shard row space, so the
//! single-table entry points run the same kernels at the same cost. When a
//! shard is behind a reader, the two passes a statement needs — the strata
//! pass with its statistics fold, and the exact fold — are pushed down to
//! the shards (the `pushdown` module): each shard runs the per-partition
//! kernel over every global partition it holds whole, and the coordinator
//! merges the partials. An ids-keyed entry point (a group index, predicate
//! bitmaps, bound expressions, a gather) needs every shard's rows in process
//! and refuses a set with a shard behind a reader, naming that shard.
//!
//! The determinism contract: every pass merges shard answers in **fixed
//! shard order** (global row order) and anchors float accumulation to
//! global partitions, so the result is byte-identical to the same pass over
//! the concatenated single table, for any layout, any mix of local and
//! remote readers, and any thread count. For that to hold, a reader must
//! answer each request exactly as `LocalShard` would: the same first-seen
//! key order, the same partition states bit for bit, the same picked rows.
//! Every remote answer is checked against the request before it is merged.

use std::borrow::Cow;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::error::{check_row_ids, TableError};
use crate::exec::{self, ExecOptions, RowRange};
use crate::expr::{BoundExpr, ScalarExpr};
use crate::groupby::GroupIndex;
use crate::predicate::Predicate;
use crate::schema::Schema;
use crate::shard::{ShardSegment, ShardedTable};
use crate::table::{Table, TableBuilder};
use crate::Result;

mod pushdown;

pub(crate) use pushdown::ShardKeys;
pub use pushdown::{Fold, Partitions, Pick, Picked, Walked, WalkedPartition};

/// Per-row values of one expression over a whole shard. `Dense` is the
/// contiguous-`f64`-column form (exactly when the expression exposes a
/// [`f64_slice`](crate::expr::BoundExpr::f64_slice)); `Sparse` carries the
/// per-row [`f64_at`](crate::expr::BoundExpr::f64_at) outputs, missing
/// values included. No pass ships these any more; the shard wire keeps a
/// frame of them for its codec throughput probe.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnValues {
    /// One value per row; the expression is a plain `Float64` column.
    Dense(Vec<f64>),
    /// One optional value per row (non-numeric rows are `None`).
    Sparse(Vec<Option<f64>>),
}

/// One shard's answers to the plan-level pass requests.
///
/// Implementations must be *deterministic mirrors* of [`LocalShard`]: for
/// the same shard contents, every method returns the identical value
/// (bit-equal floats included), because the coordinator's merges assume
/// shard answers are interchangeable with in-process ones.
pub trait ShardReader: std::fmt::Debug + Send + Sync {
    /// The shard's schema.
    fn schema(&self) -> &Schema;

    /// Number of rows the shard owns.
    fn num_rows(&self) -> usize;

    /// Human-readable location for error messages and `/explain`
    /// (e.g. `local` or `127.0.0.1:7000/t/0`).
    fn location(&self) -> String;

    /// Walk the shard — rows `first_row..` of a `total_rows`-row row space —
    /// keyed by `exprs`, and run `fold`'s per-partition kernel over every
    /// global partition the shard holds whole (see [`Walked`]).
    fn walk(
        &self,
        first_row: usize,
        total_rows: usize,
        exprs: &[ScalarExpr],
        fold: &Fold,
    ) -> Result<Walked>;

    /// Re-walk the shard keyed by `exprs` and return the rows each pick
    /// names, pick by pick (see [`Picked`]). Key ids are the ones a walk
    /// over the same rows answers.
    fn pick(&self, exprs: &[ScalarExpr], picks: &[Pick]) -> Result<Picked>;

    /// Copy the shard-local `rows`, in the given order, into a table: the
    /// fragment of a global partition that straddles a shard boundary,
    /// which the coordinator folds itself.
    fn take_rows(&self, rows: &[u32]) -> Result<Table>;

    /// The shard's rows, when they live in this process and can be lent to
    /// a pass in place. `None` (the default) means every pass goes through
    /// the requests above.
    fn local_table(&self) -> Option<&Table> {
        None
    }
}

/// An in-process [`ShardReader`] over an owned [`Table`] — the reference
/// implementation every other one must match bit for bit.
#[derive(Debug, Clone)]
pub struct LocalShard {
    table: Table,
}

impl LocalShard {
    /// Wrap an owned table.
    pub fn new(table: Table) -> LocalShard {
        LocalShard { table }
    }
}

impl ShardReader for LocalShard {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn num_rows(&self) -> usize {
        self.table.num_rows()
    }

    fn location(&self) -> String {
        "local".to_string()
    }

    // Sequential inside the shard: the shard level is where the coordinator
    // parallelizes, and both passes are thread-count invariant anyway.
    fn walk(
        &self,
        first_row: usize,
        total_rows: usize,
        exprs: &[ScalarExpr],
        fold: &Fold,
    ) -> Result<Walked> {
        let sequential = ExecOptions::sequential();
        pushdown::walk_table(&self.table, first_row, total_rows, exprs, fold, &sequential)
    }

    fn pick(&self, exprs: &[ScalarExpr], picks: &[Pick]) -> Result<Picked> {
        pushdown::pick_table(&self.table, exprs, picks, &ExecOptions::sequential())
    }

    fn take_rows(&self, rows: &[u32]) -> Result<Table> {
        let n = self.table.num_rows();
        if let Some(&bad) = rows.iter().find(|&&r| r as usize >= n) {
            return Err(TableError::invalid(format!(
                "take_rows row {bad} out of range for a {n}-row shard"
            )));
        }
        Table::gather(self.table.schema(), &[&self.table], rows.len(), |i| (0, rows[i] as usize))
    }

    fn local_table(&self) -> Option<&Table> {
        Some(&self.table)
    }
}

/// `offsets[s]` is the global row id of shard `s`'s first row;
/// `offsets[num_shards]` is the total row count — refused when row ids,
/// `u32` in a pass's runs and a pick's ordinals, cannot address it.
fn offsets_of(shard_rows: impl Iterator<Item = usize>) -> Result<Vec<usize>> {
    let mut offsets = vec![0];
    let mut total = 0usize;
    for rows in shard_rows {
        total = match total.checked_add(rows) {
            Some(sum) => check_row_ids("a shard set", sum).map(|()| sum)?,
            None => {
                return Err(TableError::RowIdOverflow { what: "a shard set", rows: usize::MAX })
            }
        };
        offsets.push(total);
    }
    Ok(offsets)
}

/// A set of [`ShardReader`]s with one logical row space (shard 0's rows
/// first, then shard 1's, …) — the one kind of table the catalog holds.
/// Passes run over its [`RowSpace`] ([`ShardSet::rows`]).
#[derive(Debug, Clone)]
pub struct ShardSet {
    readers: Vec<Arc<dyn ShardReader>>,
    offsets: Vec<usize>,
}

/// A plain table is a set of one in-process shard (the table moves in).
impl From<Table> for ShardSet {
    fn from(table: Table) -> ShardSet {
        ShardSet::new(vec![Arc::new(LocalShard::new(table))]).expect("one shard defines a schema")
    }
}

/// Every shard of the layout moves into its own in-process reader.
impl From<ShardedTable> for ShardSet {
    fn from(table: ShardedTable) -> ShardSet {
        let readers = table.into_shards().into_iter().map(|t| Arc::new(LocalShard::new(t)) as _);
        ShardSet::new(readers.collect()).expect("sharded table shards are schema-identical")
    }
}

impl ShardSet {
    /// Assemble a set from schema-identical readers (empty shards allowed;
    /// at least one reader required so the schema is defined). Refuses
    /// readers whose rows sum past `u32::MAX` — what row ids can address —
    /// with [`TableError::RowIdOverflow`], before any pass is asked of them.
    pub fn new(readers: Vec<Arc<dyn ShardReader>>) -> Result<ShardSet> {
        let Some(first) = readers.first() else {
            return Err(TableError::invalid("a shard set needs at least one shard"));
        };
        for (s, reader) in readers.iter().enumerate().skip(1) {
            if reader.schema() != first.schema() {
                return Err(TableError::invalid(format!(
                    "shard {s} ({}) schema differs from shard 0's ({})",
                    reader.location(),
                    first.location()
                )));
            }
        }
        let offsets = offsets_of(readers.iter().map(|r| r.num_rows()))?;
        Ok(ShardSet { readers, offsets })
    }

    /// The shared schema.
    pub fn schema(&self) -> &Schema {
        self.readers[0].schema()
    }

    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.readers.len()
    }

    /// Total logical rows across all shards.
    pub fn num_rows(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Reader for shard `s`.
    pub fn reader(&self, s: usize) -> &Arc<dyn ShardReader> {
        &self.readers[s]
    }

    /// All readers in shard order.
    pub fn readers(&self) -> &[Arc<dyn ShardReader>] {
        &self.readers
    }

    /// Global row id of shard `s`'s first row (and the total row count at
    /// index `num_shards`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Per-shard row counts, in shard order (the shard *layout*; folded
    /// into engine fingerprints so a re-layout is a different cache key).
    pub fn shard_rows(&self) -> Vec<usize> {
        self.readers.iter().map(|r| r.num_rows()).collect()
    }

    /// Per-shard locations, in shard order (for `/explain` and errors).
    pub fn locations(&self) -> Vec<String> {
        self.readers.iter().map(|r| r.location()).collect()
    }

    /// How many readers are not in-process; `None` when every shard's rows
    /// live here.
    pub fn remote_shards(&self) -> Option<usize> {
        let remote = self.readers.iter().filter(|r| r.local_table().is_none()).count();
        (remote > 0).then_some(remote)
    }

    /// The row space passes run over: in-process shards lent in place,
    /// every other shard behind its reader.
    pub fn rows(&self) -> RowSpace<'_> {
        let parts = self.readers.iter().map(|r| match r.local_table() {
            Some(table) => Part::Local(table),
            None => Part::Remote(r.as_ref()),
        });
        RowSpace { parts: parts.collect(), offsets: self.offsets.clone() }
    }

    /// Shard `s`'s in-process table, or why a row mutation cannot reach it.
    fn local_shard(&self, s: usize) -> Result<&Table> {
        self.readers[s].local_table().ok_or_else(|| {
            TableError::invalid(format!(
                "shard {s} ({}) is not in-process; re-register the table with its new rows",
                self.readers[s].location()
            ))
        })
    }

    /// A new set with `batch`'s rows appended after the set's rows — the
    /// append of an ingesting table, costing O(batch) whatever the table
    /// holds. The **live** shard is the last one while it has fewer than
    /// [`CHUNK_ROWS`](exec::CHUNK_ROWS) rows: the batch tops it up to that
    /// cap (the only rows ever copied besides the batch's own), where it is
    /// **sealed**, and the remainder rolls new in-process shards of at most
    /// the cap each. Every other reader is shared by `Arc`, never copied.
    /// The layout after an append is therefore a pure function of the
    /// registered layout and the number of rows appended — never of how the
    /// stream was split into batches (an empty batch changes nothing) — and
    /// the logical row stream is the old rows followed by the batch,
    /// identical to appending to the concatenated single table.
    pub fn extended(&self, batch: &Table) -> Result<ShardSet> {
        let last = self.num_shards() - 1;
        let live = self.local_shard(last)?;
        if self.schema() != batch.schema() {
            return Err(TableError::invalid(format!(
                "cannot append a batch with schema {:?} to a table with schema {:?}",
                batch.schema(),
                self.schema()
            )));
        }
        let n = batch.num_rows();
        let piece = |start: usize, end: usize| match (start, end) {
            (0, end) if end == n => Cow::Borrowed(batch),
            _ => Cow::Owned(batch.take(&(start..end).collect::<Vec<_>>())),
        };
        let mut readers = self.readers.clone();
        let topped = exec::CHUNK_ROWS.saturating_sub(live.num_rows()).min(n);
        if topped > 0 {
            readers[last] = Arc::new(LocalShard::new(live.extended(&piece(0, topped))?));
        }
        let mut start = topped;
        while start < n {
            let end = n.min(start + exec::CHUNK_ROWS);
            readers.push(Arc::new(LocalShard::new(piece(start, end).into_owned())));
            start = end;
        }
        ShardSet::new(readers)
    }

    /// A new set keeping only the rows `keep` selects (in global row
    /// order) — time-windowed retention. Each shard is compacted
    /// independently: a shard that keeps every row is shared, not copied,
    /// and shards left with zero rows are **dropped** from the layout (the
    /// "oldest shard falls off" of a rotation), except that the final
    /// layout always keeps at least one (possibly empty) shard so the
    /// schema stays defined.
    pub fn retained(&self, keep: impl Fn(usize) -> bool) -> Result<ShardSet> {
        let mut readers: Vec<Arc<dyn ShardReader>> = Vec::new();
        for (s, reader) in self.readers.iter().enumerate() {
            let shard = self.local_shard(s)?;
            let offset = self.offsets[s];
            let rows: Vec<usize> =
                (0..shard.num_rows()).filter(|&local| keep(offset + local)).collect();
            if rows.len() == shard.num_rows() {
                readers.push(Arc::clone(reader));
            } else if !rows.is_empty() {
                readers.push(Arc::new(LocalShard::new(shard.take(&rows))));
            }
        }
        if readers.is_empty() {
            let empty = TableBuilder::from_schema(self.schema().clone()).finish();
            readers.push(Arc::new(LocalShard::new(empty)));
        }
        ShardSet::new(readers)
    }
}

/// Where a pass reads one shard's rows from.
#[derive(Debug, Clone, Copy)]
enum Part<'a> {
    /// In-process storage, lent to the kernel in place.
    Local(&'a Table),
    /// A reader answering from elsewhere, through the pass surface.
    Remote(&'a dyn ShardReader),
}

impl Part<'_> {
    fn schema(&self) -> &Schema {
        match self {
            Part::Local(table) => table.schema(),
            Part::Remote(reader) => reader.schema(),
        }
    }
}

/// A borrowed view of one logical row space — a bare [`Table`] (one shard)
/// or a [`ShardSet`] — that every pass kernel reads through. In-process
/// shards are read in place; a shard behind a non-local reader is asked
/// for a pass's partials and picked rows, never for per-row ids or values.
#[derive(Debug, Clone)]
pub struct RowSpace<'a> {
    parts: Vec<Part<'a>>,
    offsets: Vec<usize>,
}

impl<'a> From<&'a Table> for RowSpace<'a> {
    fn from(table: &'a Table) -> Self {
        RowSpace { parts: vec![Part::Local(table)], offsets: vec![0, table.num_rows()] }
    }
}

impl<'a> From<&'a ShardSet> for RowSpace<'a> {
    fn from(set: &'a ShardSet) -> Self {
        set.rows()
    }
}

impl<'a> From<&RowSpace<'a>> for RowSpace<'a> {
    fn from(rows: &RowSpace<'a>) -> Self {
        rows.clone()
    }
}

impl<'a> RowSpace<'a> {
    /// The shared schema.
    pub fn schema(&self) -> &Schema {
        self.parts[0].schema()
    }

    /// Total logical rows across all shards.
    pub fn num_rows(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Whether any shard is behind a non-local reader.
    fn has_remote(&self) -> bool {
        self.parts.iter().any(|part| matches!(part, Part::Remote(_)))
    }

    /// Every shard's table, in shard order, when all of them are
    /// in-process; `None` as soon as one is not (passes that need local
    /// rows — JOIN, ingest, rotation — cannot run then).
    pub fn local_tables(&self) -> Option<Vec<&'a Table>> {
        self.parts
            .iter()
            .map(|part| match part {
                Part::Local(table) => Some(*table),
                Part::Remote(_) => None,
            })
            .collect()
    }

    /// The shard containing global `row`, and the row's shard-local id.
    pub fn locate(&self, row: usize) -> (usize, usize) {
        debug_assert!(row < self.num_rows(), "row {row} out of range");
        // The last shard *starting* at or before `row`. Empty shards share
        // their successor's offset, so this is never one of them: the
        // shard found also ends past `row`.
        let shard = self.offsets.partition_point(|&o| o <= row) - 1;
        (shard, row - self.offsets[shard])
    }

    /// The shard segments covering the global row range `[range.start,
    /// range.end)`, in shard order. Empty shards contribute no segment.
    pub fn segments(&self, range: RowRange) -> Vec<ShardSegment> {
        let mut out = Vec::new();
        for s in 0..self.parts.len() {
            let shard_start = self.offsets[s];
            let shard_end = self.offsets[s + 1];
            let start = range.start.max(shard_start);
            let end = range.end.min(shard_end);
            if start < end {
                out.push(ShardSegment {
                    shard: s,
                    local: RowRange { start: start - shard_start, end: end - shard_start },
                    global_start: start,
                });
            }
        }
        out
    }

    /// Run `work` once per shard and collect the answers in shard order.
    ///
    /// Parallelism lives at one level, chosen from what the layout shows:
    /// when shards outnumber workers — or any shard is behind a non-local
    /// reader, whose requests should all be in flight at once — one worker
    /// per shard, each running sequentially inside; otherwise (few big
    /// in-process shards, a plain table included) shards in order, each
    /// partition-parallel inside under the caller's options. Both levels
    /// are thread-count invariant, so the choice never changes a result.
    fn scatter<T: Send>(
        &self,
        options: &ExecOptions,
        work: impl Fn(usize, Part<'a>, &ExecOptions) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let per_shard = self.parts.len() >= options.threads() || self.has_remote();
        let sequential = ExecOptions::sequential();
        let (across, within) =
            if per_shard { (options, &sequential) } else { (&sequential, options) };
        exec::run_indexed(self.parts.len(), across, |s| work(s, self.parts[s], within))
            .into_iter()
            .collect()
    }

    /// A reader's answer failed validation.
    fn bad_answer(s: usize, reader: &dyn ShardReader, what: String) -> TableError {
        TableError::invalid(format!("shard {s} ({}) returned {what}", reader.location()))
    }

    /// Why an ids-keyed pass — `what` — cannot run: it needs every shard's
    /// rows in process, and the first shard behind a reader is named.
    fn behind_reader(&self, what: &str) -> TableError {
        let (s, reader) = (self.parts.iter().enumerate())
            .find_map(|(s, part)| match part {
                Part::Remote(reader) => Some((s, reader)),
                Part::Local(_) => None,
            })
            .expect("a row space with no shard behind a reader lends every shard");
        TableError::invalid(format!(
            "shard {s} ({}) is behind a reader: {what} needs every shard's rows in process",
            reader.location()
        ))
    }

    /// Build the group index over the logical row space: one walk over the
    /// whole row space, keyed in one code space (each shard's dictionary
    /// codes translated into a merged dictionary), so a partition that
    /// straddles a shard boundary is walked like any other. A group's id is
    /// assigned at its earliest occurrence across the concatenation, so the
    /// result — per-row group ids, first-occurrence key order, group sizes —
    /// is **identical to building over the concatenated single table**, for
    /// any shard layout and any thread count. Every shard must be
    /// in-process, except with no expressions: one group, no rows read.
    pub fn group_index(&self, exprs: &[ScalarExpr], options: &ExecOptions) -> Result<GroupIndex> {
        let dim_names: Vec<String> = exprs.iter().map(|e| e.display_name()).collect();
        let n = self.num_rows();
        if exprs.is_empty() {
            // One group, no shard round-trips needed.
            return GroupIndex::from_parts(dim_names, vec![0; n], vec![Vec::new()], vec![n as u64]);
        }
        match self.local_tables() {
            Some(tables) => GroupIndex::build_local(self, &tables, exprs, options),
            None => Err(self.behind_reader("a group index")),
        }
    }

    /// Evaluate `predicate` into one bitmap **per shard** (each indexed by
    /// shard-local row). Binding happens per shard, so string literals
    /// resolve against each shard's own dictionary; bit `r` of shard `s`'s
    /// bitmap equals bit `offsets[s] + r` of the bitmap the concatenated
    /// table would produce, for any layout and thread count (predicate
    /// evaluation is row-local, so this holds exactly). Every shard must be
    /// in-process.
    pub fn predicate_bitmaps(
        &self,
        predicate: &Predicate,
        options: &ExecOptions,
    ) -> Result<Vec<Bitmap>> {
        let tables = self.local_tables().ok_or_else(|| self.behind_reader("a predicate bitmap"))?;
        self.scatter(options, |s, _, within| {
            let table = tables[s];
            Ok(predicate.bind(table)?.eval_bitmap_with(table.num_rows(), within))
        })
    }

    /// Bind each expression against every shard, in place (outer index:
    /// shard; inner: expression; `None` entries pass through, for aggregates
    /// like `COUNT(*)` with no input): a kernel then reads each shard's
    /// columns directly. Every shard must be in-process.
    pub fn bind(&self, exprs: &[Option<ScalarExpr>]) -> Result<Vec<Vec<Option<BoundExpr<'a>>>>> {
        let tables = self.local_tables().ok_or_else(|| self.behind_reader("a bound expression"))?;
        let bound = tables.into_iter().map(|table| {
            exprs.iter().map(|e| e.as_ref().map(|e| e.bind(table)).transpose()).collect()
        });
        bound.collect()
    }

    /// Every row as one table, in global row order: the shard itself when
    /// the row space is a single in-process one, a gathered copy otherwise.
    /// Every shard must be in-process.
    pub fn to_table(&self) -> Result<Cow<'a, Table>> {
        if let [Part::Local(table)] = self.parts.as_slice() {
            return Ok(Cow::Borrowed(table));
        }
        self.gather(&(0..self.num_rows()).collect::<Vec<_>>()).map(Cow::Owned)
    }

    /// Copy the rows with global ids in `rows` (in the given order) into a
    /// standalone [`Table`] — identical to [`Table::take`] on the
    /// concatenated table, string dictionaries (first-occurrence order of
    /// the output rows) and [`Table::approx_bytes`] included. Every shard
    /// must be in-process.
    ///
    /// A single shard's columns are indexed by `rows` directly. Otherwise
    /// each requested row is resolved to *(shard, shard-local row)* once,
    /// and the gather kernel builds each output column with one typed loop
    /// over the shards' storage.
    pub fn gather(&self, rows: &[usize]) -> Result<Table> {
        let n = self.num_rows();
        if let Some(row) = rows.iter().find(|&&row| row >= n) {
            return Err(TableError::invalid(format!(
                "gather row {row} out of range for a {n}-row table"
            )));
        }
        let tables = self.local_tables().ok_or_else(|| self.behind_reader("a gather"))?;
        if let [table] = tables.as_slice() {
            return Ok(table.take(rows));
        }
        let source: Vec<(usize, usize)> = rows.iter().map(|&row| self.locate(row)).collect();
        Table::gather(self.schema(), &tables, rows.len(), |i| source[i])
    }

    /// Shard `s`'s local `rows`, taken through its reader: refused unless
    /// the batch has one row per id, under the set's schema.
    fn take_rows(&self, s: usize, reader: &dyn ShardReader, rows: &[u32]) -> Result<Table> {
        let table = reader.take_rows(rows)?;
        if table.num_rows() != rows.len() || table.schema() != self.schema() {
            let what = format!(
                "a mismatched gather batch ({} rows of {:?} for {} rows of {:?})",
                table.num_rows(),
                table.schema(),
                rows.len(),
                self.schema()
            );
            return Err(Self::bad_answer(s, reader, what));
        }
        Ok(table)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::agg::{AggExpr, AggKind, AggState, CellColumn, ExactCells};
    use crate::column::Column;
    use crate::exec::CHUNK_ROWS;
    use crate::types::{DataType, Value};
    use proptest::prelude::*;

    fn table(n: usize) -> Table {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("x", DataType::Float64),
            ("i", DataType::Int64),
        ]);
        for i in 0..n {
            b.push_row(&[
                Value::str(format!("g{}", i % 7)),
                Value::Float64((i as f64 * 0.37).sin()),
                Value::Int64((i % 11) as i64),
            ])
            .unwrap();
        }
        b.finish()
    }

    /// A reader that answers only through the reader surface — what a
    /// shard in another process looks like to the coordinator, minus the
    /// wire. Sets of these exercise the pushed-down half of every pass.
    #[derive(Debug)]
    pub(crate) struct Opaque(pub LocalShard);

    impl ShardReader for Opaque {
        fn schema(&self) -> &Schema {
            self.0.schema()
        }
        fn num_rows(&self) -> usize {
            self.0.num_rows()
        }
        fn location(&self) -> String {
            "opaque".to_string()
        }
        fn walk(
            &self,
            first_row: usize,
            total_rows: usize,
            exprs: &[ScalarExpr],
            fold: &Fold,
        ) -> Result<Walked> {
            self.0.walk(first_row, total_rows, exprs, fold)
        }
        fn pick(&self, exprs: &[ScalarExpr], picks: &[Pick]) -> Result<Picked> {
            self.0.pick(exprs, picks)
        }
        fn take_rows(&self, rows: &[u32]) -> Result<Table> {
            self.0.take_rows(rows)
        }
    }

    /// The same layout three ways: in-process shards, opaque readers, and
    /// a mix of the two.
    pub(crate) fn layouts_of(sharded: &ShardedTable) -> Vec<(&'static str, ShardSet)> {
        let readers = |opaque: fn(usize) -> bool| {
            let readers = sharded.shards().iter().enumerate().map(|(s, t)| {
                let shard = LocalShard::new(t.clone());
                if opaque(s) {
                    Arc::new(Opaque(shard)) as Arc<dyn ShardReader>
                } else {
                    Arc::new(shard) as _
                }
            });
            ShardSet::new(readers.collect()).unwrap()
        };
        vec![
            ("local", ShardSet::from(sharded.clone())),
            ("opaque", readers(|_| true)),
            ("mixed", readers(|s| s % 2 == 1)),
        ]
    }

    /// Uneven shards with an empty one in the middle.
    fn uneven(t: &Table) -> ShardedTable {
        let empty = TableBuilder::from_schema(t.schema().clone()).finish();
        let n = t.num_rows();
        ShardedTable::from_tables(vec![
            t.take(&(0..n / 5).collect::<Vec<_>>()),
            empty,
            t.take(&(n / 5..n).collect::<Vec<_>>()),
        ])
        .unwrap()
    }

    #[test]
    fn a_table_is_a_one_shard_row_space() {
        let t = table(10);
        let rows = RowSpace::from(&t);
        assert_eq!(rows.num_rows(), 10);
        assert_eq!(rows.schema(), t.schema());
        assert_eq!(rows.locate(7), (0, 7));
        let set = ShardSet::from(t.clone());
        assert_eq!(set.offsets(), &[0, 10]);
        assert_eq!(set.remote_shards(), None);
        assert_eq!(set.rows().local_tables().unwrap().len(), 1);
    }

    #[test]
    fn locate_skips_empty_shards() {
        let t = table(10);
        let empty = TableBuilder::from_schema(t.schema().clone()).finish();
        let set = ShardSet::from(
            ShardedTable::from_tables(vec![
                t.take(&[0, 1, 2]),
                empty.clone(),
                empty,
                t.take(&(3..10).collect::<Vec<_>>()),
            ])
            .unwrap(),
        );
        let rows = set.rows();
        assert_eq!(rows.num_rows(), 10);
        assert_eq!(set.offsets(), &[0, 3, 3, 3, 10]);
        assert_eq!(rows.locate(0), (0, 0));
        assert_eq!(rows.locate(2), (0, 2));
        assert_eq!(rows.locate(3), (3, 0));
        assert_eq!(rows.locate(9), (3, 6));
        // More shards than rows: trailing empty shards.
        let set = ShardSet::from(ShardedTable::split(&table(3), 5).unwrap());
        assert_eq!(set.shard_rows(), vec![1, 1, 1, 0, 0]);
        assert_eq!(set.rows().locate(2), (2, 0));
    }

    #[test]
    fn segments_cover_range_in_shard_order() {
        let set = ShardSet::from(ShardedTable::split(&table(100), 3).unwrap()); // 34, 33, 33
        let rows = set.rows();
        let segs = rows.segments(RowRange { start: 30, end: 70 });
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].shard, 0);
        assert_eq!(segs[0].local, RowRange { start: 30, end: 34 });
        assert_eq!(segs[0].global_start, 30);
        assert_eq!(segs[1].shard, 1);
        assert_eq!(segs[1].local, RowRange { start: 0, end: 33 });
        assert_eq!(segs[1].global_start, 34);
        assert_eq!(segs[2].shard, 2);
        assert_eq!(segs[2].local, RowRange { start: 0, end: 3 });
        assert_eq!(segs[2].global_start, 67);
        let covered: usize = segs.iter().map(ShardSegment::len).sum();
        assert_eq!(covered, 40);
        assert!(rows.segments(RowRange { start: 4, end: 4 }).is_empty());
        // An empty shard contributes no segment.
        let set = ShardSet::from(uneven(&table(500)));
        let segs = set.rows().segments(RowRange { start: 50, end: 321 });
        assert_eq!(segs.iter().map(|s| s.shard).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn segments_at_partition_scale() {
        // A shard range spanning several execution partitions still maps to
        // exactly one segment when it lies inside one shard.
        let t = table(2 * CHUNK_ROWS / 64); // keep the fixture fast
        let set = ShardSet::from(ShardedTable::split(&t, 2).unwrap());
        let segs = set.rows().segments(RowRange { start: 0, end: t.num_rows() });
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].global_start, 0);
        assert_eq!(segs[1].global_start, t.num_rows() / 2);
    }

    /// Behind a reader the shards answer walks, and their keys, sizes and
    /// partials merge to the single table's; an ids-keyed index over such a
    /// set is refused, naming the shard.
    #[test]
    fn group_index_matches_single_table_for_every_reader_kind() {
        use crate::groupby::Strata;
        let t = table(500);
        let exprs = [ScalarExpr::col("g"), ScalarExpr::col("i")];
        let reference = GroupIndex::build_with(&t, &exprs, &ExecOptions::sequential()).unwrap();
        for (kind, set) in layouts_of(&uneven(&t)) {
            for threads in [1usize, 4] {
                let options = ExecOptions::new(threads);
                let strata = Strata::collect(&set.rows(), &exprs, &[], &options, || {}, |_, _| {});
                let strata = strata.unwrap();
                assert_eq!(strata.sizes(), reference.sizes(), "{kind}, threads {threads}");
                for g in 0..reference.num_groups() as u32 {
                    assert_eq!(strata.keys()[g as usize], reference.key(g), "{kind}");
                }
                assert_eq!(strata.in_process(), kind == "local");
                match set.rows().group_index(&exprs, &options) {
                    Ok(got) => assert_eq!(got.row_groups(), reference.row_groups(), "{kind}"),
                    Err(err) => {
                        assert_ne!(kind, "local");
                        assert!(err.to_string().contains("(opaque) is behind a reader"), "{err}");
                    }
                }
            }
            // Empty expression list: one group, no shard round trips.
            let gi = set.rows().group_index(&[], &ExecOptions::sequential()).unwrap();
            assert_eq!(gi.num_groups(), 1);
            assert_eq!(gi.size(0), 500);
        }
    }

    /// A predicate over shards behind readers is evaluated by the shards'
    /// own walks: an exact statement under it answers as over the single
    /// table. In process the bitmaps match the concatenated table's bit for
    /// bit; behind a reader they are refused, naming the shard.
    #[test]
    fn predicate_bitmaps_match_single_table_for_every_reader_kind() {
        use crate::agg::AggExpr;
        use crate::predicate::CmpOp;
        use crate::query::GroupByQuery;
        let t = table(500);
        let pred = Predicate::cmp("x", CmpOp::Gt, 0.0);
        let reference = pred.bind(&t).unwrap().eval_bitmap(500);
        let query = GroupByQuery::new(vec![ScalarExpr::col("g")], vec![AggExpr::count()])
            .with_predicate(pred.clone());
        let counted = query.execute(&t).unwrap();
        for (kind, set) in layouts_of(&uneven(&t)) {
            let got = query.execute_with(&set, &ExecOptions::new(4)).unwrap();
            assert_eq!((&got[0].keys, &got[0].values), (&counted[0].keys, &counted[0].values));
            let Ok(got) = set.rows().predicate_bitmaps(&pred, &ExecOptions::new(4)) else {
                assert_ne!(kind, "local");
                continue;
            };
            assert_eq!(got.len(), 3);
            let ones: Vec<usize> = got
                .iter()
                .enumerate()
                .flat_map(|(s, bm)| bm.iter_ones().map(move |r| (s, r)))
                .map(|(s, r)| set.offsets()[s] + r)
                .collect();
            assert_eq!(ones, reference.iter_ones().collect::<Vec<_>>(), "{kind}");
        }
    }

    /// A walk's statistics states are the bound expressions' values of each
    /// key's rows, in row order, through the lane-merge slice kernel — for a
    /// plain `Float64` column and a computed integer one alike.
    #[test]
    fn walked_statistics_agree_with_bound_expressions() {
        let t = table(100);
        let shard = LocalShard::new(t.clone());
        let columns = vec![ScalarExpr::col("x"), ScalarExpr::col("i")];
        let walked = shard.walk(0, 100, &[ScalarExpr::col("g")], &Fold::Stats { columns }).unwrap();
        assert_eq!(walked.keys.len(), 7);
        let Partitions::Stats(partitions) = &walked.partitions else { panic!("moments") };
        let [partition] = partitions.as_slice() else { panic!("one whole partition") };
        let states = &partition.states;
        let bound =
            [ScalarExpr::col("x").bind(&t).unwrap(), ScalarExpr::col("i").bind(&t).unwrap()];
        for (slot, &key) in partition.slots.iter().enumerate() {
            let rows = (0..100).filter(|row| row % 7 == key as usize);
            for (c, expr) in bound.iter().enumerate() {
                let values: Vec<f64> = rows.clone().filter_map(|row| expr.f64_at(row)).collect();
                let mut want = AggState::default();
                want.update_slice(&values);
                let got = states[slot * 2 + c];
                assert_eq!((got.count, got.m2.to_bits()), (want.count, want.m2.to_bits()));
                assert_eq!(got.mean.to_bits(), want.mean.to_bits(), "key {key}, column {c}");
            }
        }
    }

    /// Bound in place, an expression reads the table's own bits; behind a
    /// reader, binding is refused, and the shard's exact fold reads the
    /// same bits: every aggregate answers bit for bit as in process.
    #[test]
    fn bound_values_read_the_same_bits_in_place_and_shipped() {
        use crate::agg::AggExpr;
        use crate::query::GroupByQuery;
        let t = table(200);
        let exprs = [Some(ScalarExpr::col("x")), None, Some(ScalarExpr::col("i"))];
        let reference = RowSpace::from(&t).bind(&exprs).unwrap();
        let aggregates = ["x", "i"]
            .into_iter()
            .flat_map(|c| [AggExpr::sum(c), AggExpr::min(c), AggExpr::max(c), AggExpr::var(c)]);
        let query = GroupByQuery::new(vec![ScalarExpr::col("g")], aggregates.collect());
        let want = query.execute(&t).unwrap();
        for (kind, set) in layouts_of(&uneven(&t)) {
            let rows = set.rows();
            let got = query.execute_with(&set, &ExecOptions::new(2)).unwrap();
            for (g, w) in got[0].values.iter().zip(&want[0].values) {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(g), bits(w), "{kind}");
            }
            let Ok(bound) = rows.bind(&exprs) else {
                assert_ne!(kind, "local");
                continue;
            };
            for row in 0..200 {
                let (s, local) = rows.locate(row);
                assert!(bound[s][1].is_none());
                for c in [0, 2] {
                    let (got, want) = (bound[s][c].as_ref().unwrap(), reference[0][c].as_ref());
                    assert_eq!(got.f64_at(local), want.unwrap().f64_at(row), "{kind}, row {row}");
                }
            }
            // A plain Float64 column stays sliceable wherever it lives.
            assert!(bound.iter().all(|shard| shard[0].as_ref().unwrap().f64_slice().is_some()));
            assert!(bound.iter().all(|shard| shard[2].as_ref().unwrap().f64_slice().is_none()));
        }
    }

    /// In process a gather is `take` on the concatenation; behind a reader
    /// it is refused, naming the shard.
    #[test]
    fn gather_matches_take_on_concatenation() {
        let t = table(200);
        let request = [199usize, 0, 40, 39, 150, 41];
        let taken = t.take(&request);
        for (kind, set) in layouts_of(&uneven(&t)) {
            assert!(set.rows().gather(&[500]).is_err());
            let got = match set.rows().gather(&request) {
                Ok(got) => got,
                Err(err) => {
                    assert_ne!(kind, "local");
                    assert!(err.to_string().contains("(opaque) is behind a reader: a gather"));
                    continue;
                }
            };
            assert_eq!((kind, got.num_rows()), ("local", taken.num_rows()));
            for i in 0..request.len() {
                assert_eq!(got.row(i), taken.row(i), "{kind}");
            }
        }
        let got = RowSpace::from(&t).gather(&request).unwrap();
        for i in 0..request.len() {
            assert_eq!(got.row(i), taken.row(i));
        }
        // One in-process shard is lent whole; anything else concatenates.
        assert!(matches!(RowSpace::from(&t).to_table().unwrap(), Cow::Borrowed(_)));
        let set = ShardSet::from(uneven(&t));
        let whole = set.rows().to_table().unwrap();
        assert!(matches!(whole, Cow::Owned(_)));
        assert_eq!((whole.num_rows(), whole.row(123)), (200, t.row(123)));
    }

    #[test]
    fn remote_shards_counts_readers_that_are_not_in_process() {
        let sharded = ShardedTable::split(&table(90), 3).unwrap();
        let counts: Vec<(&str, Option<usize>)> =
            layouts_of(&sharded).iter().map(|(kind, set)| (*kind, set.remote_shards())).collect();
        assert_eq!(counts, vec![("local", None), ("opaque", Some(3)), ("mixed", Some(1))]);
        for (kind, set) in layouts_of(&sharded) {
            assert_eq!(set.rows().local_tables().is_some(), kind == "local");
        }
    }

    #[test]
    fn extended_and_retained_share_untouched_readers() {
        let set = ShardSet::from(ShardedTable::split(&table(90), 3).unwrap());
        let grown = set.extended(&table(10)).unwrap();
        assert_eq!(grown.shard_rows(), vec![30, 30, 40]);
        assert!(Arc::ptr_eq(grown.reader(0), set.reader(0)));
        assert!(Arc::ptr_eq(grown.reader(1), set.reader(1)));
        assert!(!Arc::ptr_eq(grown.reader(2), set.reader(2)));
        let all = grown.rows().gather(&(0..100).collect::<Vec<_>>()).unwrap();
        assert_eq!(all.row(95), table(10).row(5));

        // Shard 0 ages out entirely, shard 1 partially, shard 2 not at all.
        let kept = grown.retained(|row| row >= 45).unwrap();
        assert_eq!(kept.shard_rows(), vec![15, 40]);
        assert!(Arc::ptr_eq(kept.reader(1), grown.reader(2)));
        assert_eq!(kept.rows().gather(&[0]).unwrap().row(0), all.row(45));
        // Dropping everything leaves one empty shard so the schema survives.
        let none = grown.retained(|_| false).unwrap();
        assert_eq!(none.shard_rows(), vec![0]);
        assert_eq!(none.schema(), set.schema());

        // Rows behind a non-local reader cannot be appended to or rotated.
        let (_, opaque) = layouts_of(&ShardedTable::split(&table(9), 3).unwrap()).remove(1);
        assert!(opaque.extended(&table(1)).is_err());
        assert!(opaque.retained(|_| true).is_err());
    }

    /// The live shard is topped up to the cap and sealed there; what is left
    /// of a batch rolls new shards. The layout depends on how many rows were
    /// appended, never on how they were batched.
    #[test]
    fn extended_seals_the_live_shard_at_the_cap() {
        let total = 100 + 2 * CHUNK_ROWS + 50;
        let full = table(total);
        let piece = |lo: usize, hi: usize| full.take(&(lo..hi).collect::<Vec<_>>());
        for cuts in [
            vec![total],
            // Fills the live shard exactly, then an empty batch arrives on it.
            vec![CHUNK_ROWS, CHUNK_ROWS, total],
            vec![107, 108, 2 * CHUNK_ROWS + 1, total],
        ] {
            let mut set = ShardSet::from(piece(0, 100));
            let mut at = 100;
            for cut in cuts.iter().copied() {
                let grown = set.extended(&piece(at, cut)).unwrap();
                // Every reader but the one that was live is shared.
                for s in 0..set.num_shards() - 1 {
                    assert!(Arc::ptr_eq(grown.reader(s), set.reader(s)), "{cuts:?}");
                }
                let live = set.reader(set.num_shards() - 1);
                let sealed = live.num_rows() == CHUNK_ROWS || cut == at;
                assert_eq!(Arc::ptr_eq(grown.reader(set.num_shards() - 1), live), sealed);
                (set, at) = (grown, cut);
            }
            assert_eq!(set.shard_rows(), vec![CHUNK_ROWS, CHUNK_ROWS, 150], "{cuts:?}");
            assert_same_storage(&set.rows().to_table().unwrap(), &full, &format!("{cuts:?}"));
        }
        // A registered shard already past the cap is sealed as it stands.
        let set = ShardSet::from(piece(0, CHUNK_ROWS + 5));
        let grown = set.extended(&piece(0, 3)).unwrap();
        assert_eq!(grown.shard_rows(), vec![CHUNK_ROWS + 5, 3]);
        assert!(Arc::ptr_eq(grown.reader(0), set.reader(0)));
        assert!(set.extended(&battery_part(0, 1, 0)).unwrap_err().to_string().contains("schema"));
    }

    #[test]
    fn new_rejects_schema_mismatch_and_emptiness() {
        let a = LocalShard::new(table(5));
        let mut b = TableBuilder::new(&[("other", DataType::Int64)]);
        b.push_row(&[Value::Int64(1)]).unwrap();
        let err =
            ShardSet::new(vec![Arc::new(a), Arc::new(LocalShard::new(b.finish()))]).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
        assert!(ShardSet::new(Vec::new()).is_err());
    }

    #[test]
    fn take_rows_validates_bounds() {
        let shard = LocalShard::new(table(10));
        assert!(shard.take_rows(&[0, 9]).is_ok());
        assert!(shard.take_rows(&[10]).is_err());
    }

    /// A reader whose answers are the wrong shape is a clean error that
    /// names the shard, never a misaligned merge or a panic.
    #[test]
    fn malformed_answers_are_rejected() {
        /// How a reader's answers go wrong.
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Fault {
            /// Claims one row more than it answers for.
            Short,
            /// Walks over a different dimension list.
            OtherDims,
            /// Gathers and picks the right number of rows under the right
            /// column names, with `x` as integers.
            WrongTypes,
            /// A slot names a key id past the key list.
            SlotPastKeys,
            /// The partition starts one row late.
            Misaligned,
            /// The partition is answered twice.
            Repeated,
            /// The partition starts past the shard.
            Outside,
            /// No partition is answered.
            Missing,
            /// One state short of slots × width, or one cell short of the
            /// slots in the first cell column.
            StateCount,
            /// The first cell column holds another kind's cells.
            CellKind,
            /// Moments answer an exact fold.
            OtherForm,
            /// The key sizes overcount the shard by one.
            Sizes,
            /// The key list names one key twice.
            KeyTwice,
            /// One picked row too few.
            PickedRows,
            /// A picked row id past the shard.
            RowPastShard,
            /// A pick's rows in descending order.
            Descending,
            /// Rows of other strata, in order, in place of the picked ones.
            OtherKeys,
        }
        /// `fault`'s change to where the partitions of a walk over `keys`
        /// keys sit, in either form.
        fn misplace<S: Clone>(fault: Fault, keys: u32, partitions: &mut Vec<WalkedPartition<S>>) {
            match fault {
                Fault::SlotPastKeys => partitions[0].slots[0] = keys,
                Fault::Misaligned => partitions[0].start += 1,
                Fault::Repeated => partitions.push(partitions[0].clone()),
                Fault::Outside => partitions[0].start = 1 << 16,
                Fault::Missing => partitions.clear(),
                _ => {}
            }
        }
        #[derive(Debug)]
        struct Bad {
            shard: LocalShard,
            fault: Fault,
        }
        impl ShardReader for Bad {
            fn schema(&self) -> &Schema {
                self.shard.schema()
            }
            fn num_rows(&self) -> usize {
                self.shard.num_rows() + usize::from(self.fault == Fault::Short)
            }
            fn location(&self) -> String {
                "bad".to_string()
            }
            fn walk(
                &self,
                first_row: usize,
                total_rows: usize,
                exprs: &[ScalarExpr],
                fold: &Fold,
            ) -> Result<Walked> {
                let total = total_rows - usize::from(self.fault == Fault::Short);
                let wide = [exprs, &[ScalarExpr::col("i")]].concat();
                let exprs = if self.fault == Fault::OtherDims { &wide } else { exprs };
                let mut walked = self.shard.walk(first_row, total, exprs, fold)?;
                let keys = walked.keys.len() as u32;
                match &mut walked.partitions {
                    Partitions::Stats(partitions) => {
                        misplace(self.fault, keys, partitions);
                        if self.fault == Fault::StateCount {
                            partitions[0].states.pop();
                        }
                    }
                    Partitions::Exact(partitions) => {
                        misplace(self.fault, keys, partitions);
                        let columns = &mut partitions[0].states;
                        match self.fault {
                            Fault::StateCount => {
                                let cells = columns[0].len();
                                columns[0].resize(cells - 1)
                            }
                            Fault::CellKind => {
                                let mut other = CellColumn::with_capacity(AggKind::Max, 0);
                                other.resize(columns[0].len());
                                columns[0] = other;
                            }
                            _ => {}
                        }
                    }
                }
                match self.fault {
                    Fault::OtherForm => walked.partitions = Partitions::Stats(Vec::new()),
                    Fault::Sizes => walked.sizes[0] += 1,
                    Fault::KeyTwice => walked.keys[1] = walked.keys[0].clone(),
                    _ => {}
                }
                Ok(walked)
            }
            fn pick(&self, exprs: &[ScalarExpr], picks: &[Pick]) -> Result<Picked> {
                let mut picked = self.shard.pick(exprs, picks)?;
                match self.fault {
                    Fault::WrongTypes => picked.table = self.take_rows(&picked.rows)?,
                    Fault::PickedRows => drop(picked.rows.pop()),
                    Fault::RowPastShard => picked.rows[0] = 99,
                    Fault::Descending => picked.rows.swap(0, 1),
                    Fault::OtherKeys => {
                        picked.rows = vec![1, 2];
                        picked.table = self.shard.take_rows(&picked.rows)?;
                    }
                    _ => {}
                }
                Ok(picked)
            }
            fn take_rows(&self, rows: &[u32]) -> Result<Table> {
                if self.fault != Fault::WrongTypes {
                    return self.shard.take_rows(&rows[1..]);
                }
                let mut lie = TableBuilder::new(&[
                    ("g", DataType::Str),
                    ("x", DataType::Int64),
                    ("i", DataType::Int64),
                ]);
                for &row in rows {
                    lie.push_row(&[Value::str("g0"), Value::Int64(1), Value::Int64(row as i64)])?;
                }
                Ok(lie.finish())
            }
        }
        // Alone in its set, so no merge would catch a wrong answer; its
        // twenty rows are one whole partition, `g0` at rows 0, 7 and 14.
        let set_of = |fault| {
            let bad = Bad { shard: LocalShard::new(table(20)), fault };
            ShardSet::new(vec![Arc::new(bad)]).unwrap()
        };
        let exec = ExecOptions::sequential();
        let strata = [ScalarExpr::col("g")];
        let fold = Fold::Stats { columns: vec![ScalarExpr::col("x")] };
        let walk = |fault| set_of(fault).rows().walk::<Vec<AggState>>(&strata, &fold, &exec).err();
        let exact = Fold::Exact { predicate: None, aggregates: vec![AggExpr::sum("x")] };
        for (fault, what) in [
            (Fault::StateCount, "6 SUM cells for 7 slots at row 0"),
            (Fault::CellKind, "cells of another kind for SUM at row 0"),
            (Fault::OtherForm, "a walk with moments for an exact fold"),
        ] {
            let set = set_of(fault);
            let err = set.rows().walk::<Vec<CellColumn<ExactCells>>>(&strata, &exact, &exec).err();
            let err = err.unwrap_or_else(|| panic!("{fault:?} was merged"));
            assert!(err.to_string().contains(what), "{fault:?}: {err}");
        }
        for (fault, what) in [
            (Fault::Short, "key sizes [3, 3, 3, 3, 3, 3, 2] for 21 rows"),
            (Fault::Sizes, "key sizes [4, 3, 3, 3, 3, 3, 2] for 20 rows"),
            (Fault::OtherDims, "key \"g0|0\" for 1 dimensions"),
            (Fault::SlotPastKeys, "a slot of key 7 of 7 at row 0"),
            (Fault::Misaligned, "a partition at row 1 where row 0 starts one"),
            (Fault::Outside, "a partition at row 65536 where row 0 starts one"),
            (Fault::Repeated, "2 partitions where it holds 1 whole"),
            (Fault::Missing, "0 partitions where it holds 1 whole"),
            (Fault::StateCount, "6 states for 7 slots of 1 at row 0"),
            (Fault::KeyTwice, "a walk with key \"g0\" twice"),
        ] {
            let err = walk(fault).unwrap_or_else(|| panic!("{fault:?} was merged")).to_string();
            assert!(err.starts_with("shard 0 (bad) returned "), "{fault:?}: {err}");
            assert!(err.contains(what), "{fault:?}: {err}");
        }

        // Two ordinals of `g0`: rows 0 and 14.
        let pick = |fault| {
            let set = set_of(fault);
            let rows = set.rows();
            let pass =
                crate::groupby::Strata::collect(&rows, &strata, &[], &exec, || {}, |_, _| {});
            let mut ordinals = vec![Vec::new(); 7];
            ordinals[0] = vec![0, 2];
            pass?.pick(&rows, &ordinals, &exec).map(|(picked, _)| picked)
        };
        for (fault, what) in [
            (Fault::WrongTypes, "a pick with rows of schema"),
            (Fault::PickedRows, "a pick with 2 rows and 1 ids for 2"),
            (Fault::RowPastShard, "a pick with row 99 of a 20-row shard"),
            (Fault::Descending, "a pick with rows 14 and 0 out of order for key 0"),
            (Fault::OtherKeys, "a pick with row 1 keyed \"g1\", not its stratum's \"g0\""),
        ] {
            let err = pick(fault).unwrap_err().to_string();
            assert!(err.starts_with("shard 0 (bad) returned "), "{fault:?}: {err}");
            assert!(err.contains(what), "{fault:?}: {err}");
        }

        // A fragment of the wrong length or types never reaches the fold:
        // the batch is refused, naming the shard — asked directly, and as
        // the first five rows' share of a partition straddling into a
        // second shard.
        let set = set_of(Fault::Short);
        let err = set.rows().take_rows(0, set.reader(0).as_ref(), &[0, 1]).unwrap_err();
        assert!(err.to_string().contains("(bad) returned a mismatched gather batch"), "{err}");
        let bad = Bad { shard: LocalShard::new(table(5)), fault: Fault::WrongTypes };
        let straddling = ShardSet::new(vec![Arc::new(bad), Arc::new(LocalShard::new(table(15)))]);
        let straddling = straddling.unwrap();
        let err = straddling.rows().walk::<Vec<AggState>>(&strata, &fold, &exec).err().unwrap();
        assert!(err.to_string().contains("(bad) returned a mismatched gather batch"), "{err}");
        let lie = Bad { shard: LocalShard::new(table(5)), fault: Fault::WrongTypes };
        let (honest, lie) = (table(5), lie.take_rows(&[0]).unwrap());
        let err = Table::gather(honest.schema(), &[&honest, &lie], 1, |_| (1, 0)).unwrap_err();
        assert!(matches!(err, TableError::TypeMismatch { expected: DataType::Float64, .. }));

        // Ids-keyed passes never ask: they need the rows in process.
        let set = set_of(Fault::Short);
        let rows = set.rows();
        let err = rows.group_index(&strata, &exec).unwrap_err();
        assert!(err.to_string().contains("shard 0 (bad) is behind a reader: a group index"));
        let err = rows.predicate_bitmaps(&Predicate::True, &exec).unwrap_err();
        assert!(err.to_string().contains("(bad) is behind a reader: a predicate bitmap"));
        let err = rows.bind(&[Some(ScalarExpr::col("x"))]).unwrap_err();
        assert!(err.to_string().contains("(bad) is behind a reader: a bound expression"));
        let err = rows.gather(&[0]).unwrap_err();
        assert!(err.to_string().contains("(bad) is behind a reader: a gather"));
    }

    /// Readers whose rows sum past what `u32` row ids address are refused
    /// when the set is assembled, before any of them is asked a question.
    #[test]
    fn new_refuses_rows_past_u32_max() {
        #[derive(Debug)]
        struct Huge(Schema);
        impl ShardReader for Huge {
            fn schema(&self) -> &Schema {
                &self.0
            }
            fn num_rows(&self) -> usize {
                u32::MAX as usize / 2 + 1
            }
            fn location(&self) -> String {
                "huge".to_string()
            }
            fn walk(&self, _: usize, _: usize, _: &[ScalarExpr], _: &Fold) -> Result<Walked> {
                panic!("asked to walk")
            }
            fn pick(&self, _: &[ScalarExpr], _: &[Pick]) -> Result<Picked> {
                panic!("asked to pick")
            }
            fn take_rows(&self, _: &[u32]) -> Result<Table> {
                panic!("asked for rows")
            }
        }
        let huge = Arc::new(Huge(table(0).schema().clone())) as Arc<dyn ShardReader>;
        assert!(ShardSet::new(vec![Arc::clone(&huge)]).is_ok());
        let err = ShardSet::new(vec![Arc::clone(&huge), huge]).unwrap_err();
        let rows = u32::MAX as usize + 1;
        assert_eq!(err, TableError::RowIdOverflow { what: "a shard set", rows });
        // A sum past `usize` itself is refused the same way.
        assert_eq!(
            offsets_of([u32::MAX as usize, usize::MAX].into_iter()).unwrap_err(),
            TableError::RowIdOverflow { what: "a shard set", rows: usize::MAX }
        );
    }

    /// The gather battery's fixture: one column of every type, and strings
    /// drawn from `POOL` in an order that differs per `part`, so sibling
    /// parts give the same string different dictionary codes.
    fn battery_part(part: usize, n: usize, salt: usize) -> Table {
        const POOL: [&str; 6] = ["us", "vn", "in", "de", "a-longer-string", ""];
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("x", DataType::Float64),
            ("i", DataType::Int64),
            ("ok", DataType::Bool),
            ("ts", DataType::Timestamp),
            ("h", DataType::Str),
        ]);
        for r in 0..n {
            b.push_row(&[
                Value::str(POOL[(r * (part + 1) + part + salt) % POOL.len()]),
                Value::Float64(((part * 100 + r) as f64 * 0.37).sin()),
                Value::Int64((part * 1000 + r) as i64),
                Value::Bool((r + part) % 3 == 1),
                Value::Timestamp(1_500_000_000 + (part * 100 + r) as i64),
                Value::str(POOL[(r / 2 + salt) % 4]),
            ])
            .unwrap();
        }
        b.finish()
    }

    /// The row-wise reference the column kernel replaced: every output row
    /// assembled as values and pushed through the builder.
    fn gather_rowwise(parts: &[Table], rows: &[usize]) -> Table {
        let mut b = TableBuilder::from_schema(parts[0].schema().clone());
        for &row in rows {
            let (mut part, mut local) = (0, row);
            while local >= parts[part].num_rows() {
                local -= parts[part].num_rows();
                part += 1;
            }
            b.push_row(&parts[part].row(local)).unwrap();
        }
        b.finish()
    }

    /// Equal storage, not just equal `row()`s: column bytes, dictionary
    /// contents in code order, and `approx_bytes`.
    pub(crate) fn assert_same_storage(got: &Table, want: &Table, what: &str) {
        assert_eq!(got.schema(), want.schema(), "{what}");
        assert_eq!(got.num_rows(), want.num_rows(), "{what}");
        assert_eq!(got.approx_bytes(), want.approx_bytes(), "{what}");
        for (c, (g, w)) in got.columns().iter().zip(want.columns()).enumerate() {
            let same = match (g, w) {
                (Column::Float64(g), Column::Float64(w)) => {
                    g.iter().map(|v| v.to_bits()).eq(w.iter().map(|v| v.to_bits()))
                }
                (Column::Bool(g), Column::Bool(w)) => g == w,
                (Column::Str { codes: g, dict: gd }, Column::Str { codes: w, dict: wd }) => {
                    g == w && gd.iter().eq(wd.iter())
                }
                (g, w) => g.data_type() == w.data_type() && g.i64_slice() == w.i64_slice(),
            };
            assert!(same, "{what}: column {c} differs: {g:?} vs {w:?}");
        }
    }

    /// `gather` against the row-wise reference in process; a layout with
    /// a shard behind a reader is refused, naming it.
    fn check_gather(parts: &[Table], rows: &[usize], what: &str) {
        let want = gather_rowwise(parts, rows);
        let sharded = ShardedTable::from_tables(parts.to_vec()).unwrap();
        for (kind, set) in layouts_of(&sharded) {
            match set.rows().gather(rows) {
                Ok(got) => assert_same_storage(&got, &want, &format!("{what}, {kind}")),
                Err(err) => {
                    assert_ne!(kind, "local", "{what}: {err}");
                    assert!(err.to_string().contains("(opaque) is behind a reader: a gather"));
                }
            }
        }
    }

    #[test]
    fn gather_battery_fixed_cases() {
        for sizes in [vec![9], vec![0, 4, 5], vec![3, 0, 2, 0, 0, 4, 1], vec![0, 0, 0]] {
            let parts: Vec<Table> =
                sizes.iter().enumerate().map(|(p, &n)| battery_part(p, n, 1)).collect();
            let n: usize = sizes.iter().sum();
            let what = format!("{sizes:?}");
            check_gather(&parts, &[], &what);
            check_gather(&parts, &(0..n).collect::<Vec<_>>(), &what);
            check_gather(&parts, &(0..n).rev().collect::<Vec<_>>(), &what);
            // Duplicates, shuffled, and most rows (and their strings) untouched.
            let some: Vec<usize> =
                if n == 0 { Vec::new() } else { (0..7).map(|i| (i * 5 + 3) % n).collect() };
            check_gather(&parts, &some, &what);
        }
        // `take` is the same kernel over one part: the dictionary holds only
        // what the taken rows use, in their order.
        let part = battery_part(2, 12, 0);
        let taken = part.take(&[7, 7, 2]);
        assert_same_storage(&taken, &gather_rowwise(&[part], &[7, 7, 2]), "take");
        assert_eq!(taken.column(0).dictionary().unwrap().len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `locate` inverts the offset layout for arbitrary (possibly
        /// empty) shard size lists.
        #[test]
        fn locate_inverts_offsets(sizes in proptest::collection::vec(0usize..20, 1..6)) {
            let total: usize = sizes.iter().sum();
            let t = table(total);
            let mut shards = Vec::new();
            let mut start = 0;
            for &len in &sizes {
                shards.push(t.take(&(start..start + len).collect::<Vec<_>>()));
                start += len;
            }
            let set = ShardSet::from(ShardedTable::from_tables(shards).unwrap());
            let rows = set.rows();
            for row in 0..total {
                let (s, local) = rows.locate(row);
                prop_assert_eq!(set.offsets()[s] + local, row);
                prop_assert!(local < set.reader(s).num_rows());
            }
        }

        /// The column kernel equals the row-wise reference — storage, not
        /// just values — for arbitrary part sizes (empty parts included) and
        /// arbitrary requests (duplicates, any order, empty); a layout with
        /// a stub-remote reader is refused.
        #[test]
        fn gather_equals_rowwise_reference(
            sizes in proptest::collection::vec(0usize..12, 1..8),
            picks in proptest::collection::vec(0usize..10_000, 0..40),
            salt in 0usize..6,
        ) {
            let parts: Vec<Table> =
                sizes.iter().enumerate().map(|(p, &n)| battery_part(p, n, salt)).collect();
            let total: usize = sizes.iter().sum();
            let rows: Vec<usize> =
                if total == 0 { Vec::new() } else { picks.iter().map(|p| p % total).collect() };
            check_gather(&parts, &rows, &format!("{sizes:?} {rows:?}"));
        }
    }
}
