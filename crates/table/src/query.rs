//! Group-by query execution: one aggregation pass, generic over the
//! family of [`Cells`] it folds.
//!
//! The pass walks the rows one global partition at a time, in the grouping
//! module's one walk. The predicate's bitmap is built first, and the walk
//! keys and slots only the rows it keeps: each kept row's key takes a
//! partition-local slot and updates that slot's cells in the same step, so
//! interning and folding read every kept row once and a selective
//! statement's cost follows what it keeps, not the table. A partition's
//! states are aggregate-major: one typed [`CellColumn`] per aggregate,
//! indexed by slot, holding only the cell its kind reads — a count for
//! `COUNT`, a count and a sum for `SUM` and `COUNT_IF`, a count and one
//! bound for `MIN` and `MAX`, a count and the Welford mean for `AVG`, the
//! full moments only for `VAR` and `STD` — so a run of rows writes one
//! contiguous array per aggregate. Each column is sized by the groups its
//! partition saw; partitions merge keys and cells together, in partition
//! order, through the ordered merge; and the merged finest-group cells are
//! projected onto each grouping set, so a `WITH CUBE` over k attributes
//! still scans the data once.
//!
//! The read-out touches only *live* fine groups — groups with a cell that
//! accumulated a row. A `WITH CUBE` statement slots every row even under a
//! predicate (its coarse cells merge fine cells in fine-id order, the first
//! occurrence over all rows), so it can merge fine groups no kept row
//! reached: the read-out lists the live ones, decodes only their keys
//! (counted by [`total_keys_decoded`]), projects them and coarsens their
//! cells, in fine-id order. A dead group's cells hold no row, and merging
//! such a cell changes nothing ([`Accumulator::merge`]), so the answer is
//! the one a read-out of every fine group gives, bit for bit. The full set
//! — a plain statement's only one — is the identity projection over the
//! live keys: it hashes and clones none of them.
//!
//! [`GroupByQuery::execute`] runs it with [`ExactCells`] and unit weights
//! over packed dimension codes and computes exact answers (the experiments'
//! ground truth): each cell field sees the operations an
//! [`AggState`](crate::agg::AggState) field would, in the same order, so
//! the answers are the full state's, bit for bit. Over shards behind
//! readers each shard runs the same per-partition function over the
//! partitions it holds, and its partials merge here in partition order. A
//! JOIN statement ([`GroupByQuery::execute_join`]) runs the same
//! per-partition function over each joined partition as the join produces
//! it, and merges the partials by key atoms in partition order.
//! Sample-based estimators run the same pass ([`GroupByQuery::aggregate`])
//! over the sample's packed keys with a weighted family. No answer builds a
//! group index.

use std::borrow::Cow;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::agg::{each_cells, Accumulator, AggExpr, AggKind, CellColumn, Cells, ExactCells};
use crate::bitmap::Bitmap;
use crate::cube::grouping_sets;
use crate::exec::{self, ExecOptions, RowRange};
use crate::expr::{Block, BlockScratch, BoundExpr, ScalarExpr};
use crate::groupby::{GroupProjection, KeyAtom, LocalKeys, OrderedMerge, RowKeys};
use crate::join::Join;
use crate::predicate::Predicate;
use crate::reader::{Fold, RowSpace};
use crate::Result;

/// One joined partition's partial: its keys decoded to key atoms, with
/// their row counts, in slot order, and one cell column per aggregate.
type JoinedPartial = (Vec<(Vec<KeyAtom>, u64)>, Vec<CellColumn<ExactCells>>);

/// Process-wide fine keys the read-out has decoded.
static KEYS_DECODED: AtomicU64 = AtomicU64::new(0);

/// Fine group keys the aggregation pass's read-out has decoded so far: one
/// per live fine group — a group with a cell that accumulated a row — of
/// every answer (a walk's or a JOIN's keys arrive decoded, and count as
/// read). Monotonic; never reset.
pub fn total_keys_decoded() -> u64 {
    KEYS_DECODED.load(Ordering::Relaxed)
}

/// Process-wide bytes of cells [`fold_partition`] has folded into.
static FOLD_STATE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Bytes of cells the aggregation pass has folded into for its
/// per-partition slot states, by this process so far: each partition holds
/// one cell per aggregate for every slot its walk hands out. Monotonic;
/// never reset.
pub fn total_fold_state_bytes() -> u64 {
    FOLD_STATE_BYTES.load(Ordering::Relaxed)
}

/// A group-by query specification.
#[derive(Debug, Clone)]
pub struct GroupByQuery {
    /// Grouping expressions (empty for a full-table aggregate).
    pub group_by: Vec<ScalarExpr>,
    /// Aggregates to compute per group.
    pub aggregates: Vec<AggExpr>,
    /// Optional row filter applied before grouping.
    pub predicate: Option<Predicate>,
    /// Whether to expand `GROUP BY ... WITH CUBE`.
    pub cube: bool,
}

impl GroupByQuery {
    /// Query with the given grouping expressions and aggregates.
    pub fn new(group_by: Vec<ScalarExpr>, aggregates: Vec<AggExpr>) -> Self {
        GroupByQuery { group_by, aggregates, predicate: None, cube: false }
    }

    /// Add a predicate.
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = Some(predicate);
        self
    }

    /// Enable `WITH CUBE`.
    pub fn with_cube(mut self) -> Self {
        self.cube = true;
        self
    }

    /// The names of the columns this query reads, each once: grouping
    /// expressions, then the predicate, then aggregate inputs — the order
    /// [`GroupByQuery::execute_with`] binds them in. A table holding just
    /// these columns answers the query exactly as the full table does
    /// (`COUNT(*)` alone reads none: only the row count matters then).
    pub fn columns(&self) -> Vec<&str> {
        let mut names = Vec::new();
        for expr in &self.group_by {
            expr.collect_columns(&mut names);
        }
        if let Some(predicate) = &self.predicate {
            predicate.collect_columns(&mut names);
        }
        for expr in self.aggregates.iter().filter_map(|agg| agg.input.as_ref()) {
            expr.collect_columns(&mut names);
        }
        names
    }

    /// Execute exactly against `rows` — a `&Table` or a
    /// [`ShardSet`](crate::reader::ShardSet) — using one worker per
    /// available core (see [`GroupByQuery::execute_with`]).
    ///
    /// Returns one [`QueryResult`] per grouping set: a single result unless
    /// `cube` is set, in which case the sets follow [`grouping_sets`] order.
    pub fn execute<'a>(&self, rows: impl Into<RowSpace<'a>>) -> Result<Vec<QueryResult>> {
        self.execute_with(rows, &ExecOptions::default())
    }

    /// Execute with explicit execution options. Over in-process rows — a
    /// table, or every shard of a set — the pass keys rows by their packed
    /// dimension codes and never builds a group index; when a shard is
    /// behind a reader every shard folds the partitions it holds whole and
    /// answers partials, with no per-row id or value crossing the boundary.
    /// The predicate scan and the aggregation pass are chunk-parallel.
    /// Because aggregation partials are whole *global* partitions (each
    /// assembled from the shard segments covering it) merged in partition
    /// order, the results are **bit-identical to executing on the
    /// concatenated table** for any shard layout and thread count.
    pub fn execute_with<'a>(
        &self,
        rows: impl Into<RowSpace<'a>>,
        options: &ExecOptions,
    ) -> Result<Vec<QueryResult>> {
        let rows = rows.into();
        let Some(tables) = rows.local_tables() else {
            return self.execute_walked(&rows, options);
        };
        let keys =
            options.span("encode", || RowKeys::encode(&rows, &tables, &self.group_by, options))?;
        let filters = match &self.predicate {
            Some(p) => Some(options.span("bitmap", || rows.predicate_bitmaps(p, options))?),
            None => None,
        };
        self.aggregate::<ExactCells>(&rows, &keys, filters.as_deref(), |_| 1.0, options)
    }

    /// [`GroupByQuery::execute_with`] over a row space with a shard behind a
    /// reader: one walk per shard folds the partitions it holds, and the
    /// partials merge into the finest groups in partition order, exactly as
    /// the in-process pass merges its own.
    fn execute_walked(
        &self,
        rows: &RowSpace<'_>,
        options: &ExecOptions,
    ) -> Result<Vec<QueryResult>> {
        let fold =
            Fold::Exact { predicate: self.predicate.clone(), aggregates: self.aggregates.clone() };
        rows.check_binds(&self.group_by, &fold)?;
        let walk = || rows.walk::<Vec<CellColumn<ExactCells>>>(&self.group_by, &fold, options);
        let walked = options.span("walk", walk)?;
        let fine = options.span("merge", || {
            let mut fine = columns::<ExactCells>(&self.aggregates, walked.keys.len());
            for (groups, states) in &walked.partials {
                fine.iter_mut().zip(states).for_each(|(acc, cells)| acc.merge_at(cells, groups));
            }
            fine
        });
        Ok(options
            .span("readout", || self.assemble(|g| Cow::Borrowed(walked.keys[g].as_slice()), &fine)))
    }

    /// Execute exactly over the joined rows of `join`, one joined partition
    /// at a time: each [`exec::CHUNK_ROWS`]-row partition is projected onto
    /// [`GroupByQuery::columns`] ([`Join::project`]), keyed, filtered and
    /// folded on its own, sequentially — the partition is the unit of
    /// parallelism — and its partial, keyed by decoded key atoms, merges in
    /// partition order exactly as [`GroupByQuery::aggregate`] merges its
    /// own. Every (partition, group) accumulation chain sees the same rows
    /// in the same order through the same kernel as over the whole joined
    /// table, so the answer is **bit-identical to executing on it**, for
    /// any thread count and fact-side shard layout; no buffer the size of
    /// the join is allocated.
    pub fn execute_join(&self, join: &Join<'_>, options: &ExecOptions) -> Result<Vec<QueryResult>> {
        let names = self.columns();
        let inputs: Vec<Option<ScalarExpr>> =
            self.aggregates.iter().map(|a| a.input.clone()).collect();
        let sequential = ExecOptions::sequential();
        let merged = exec::fold_partitioned(
            join.num_rows(),
            options,
            Ok((OrderedMerge::<Vec<KeyAtom>>::default(), columns(&self.aggregates, 0))),
            |_, range| -> Result<JoinedPartial> {
                let table = options.span("project", || join.project(&names, range.rows()))?;
                let (rows, tables) = (RowSpace::from(&table), [&table]);
                let keys = options.span("encode", || {
                    RowKeys::encode(&rows, &tables, &self.group_by, &sequential)
                })?;
                let bitmaps = match &self.predicate {
                    Some(p) => {
                        Some(options.span("bitmap", || rows.predicate_bitmaps(p, &sequential))?)
                    }
                    None => None,
                };
                let bound = rows.bind(&inputs)?;
                let all = RowRange { start: 0, end: table.num_rows() };
                let (local, states) = options.span("fold", || {
                    fold_partition(
                        &rows,
                        &keys,
                        all,
                        &self.aggregates,
                        &bound,
                        self.filter(bitmaps.as_deref()),
                        |_| 1.0,
                    )
                });
                let partial =
                    local.partial().map(|(key, size)| (keys.decode(key).into_owned(), size));
                Ok((partial.collect(), states))
            },
            |acc: &mut Result<_>, partial| {
                // The first failing partition's error, in partition order,
                // is the answer.
                let Ok((merge, fine)) = acc else { return };
                match partial {
                    Ok((keys, states)) => {
                        options.span("merge", || merge_partial(merge, fine, keys, &states))
                    }
                    Err(e) => *acc = Err(e),
                }
            },
        );
        let (merge, fine) = merged?;
        Ok(options.span("readout", || {
            self.assemble(|g| Cow::Borrowed(merge.keys()[g].as_slice()), &fine)
        }))
    }

    /// The aggregation pass over `keys`, this query's grouping
    /// ([`RowKeys::encode`]) over the in-process `rows`: walk `rows` under
    /// the optional per-shard `filters` (this query's
    /// [`RowSpace::predicate_bitmaps`]), fold one cell of the family `F` per
    /// (group, aggregate) per partition, merge the partials in partition
    /// order, project the merged cells onto each grouping set and assemble
    /// one [`QueryResult`] per set. `weight` maps a global row id to the
    /// weight its value is accumulated with. Only rows the filters keep are
    /// folded; without `WITH CUBE` only they are keyed and take a slot, so
    /// a selective predicate walks what it keeps, not the table. A cube
    /// statement slots every row: its fine groups follow first occurrence
    /// over *all* rows, the order a grouping set's projection merges them in.
    ///
    /// Partials are whole **global** partitions — each one walks the shard
    /// segments that cover it, reading values through that shard's bound
    /// expressions — so every (partition, group) accumulation chain visits
    /// the same rows in the same order wherever shard boundaries fall, and
    /// the partition-order merge makes the result bit-identical to the
    /// single-table pass.
    pub fn aggregate<F: Cells>(
        &self,
        rows: &RowSpace<'_>,
        keys: &RowKeys<'_>,
        filters: Option<&[Bitmap]>,
        weight: impl Fn(usize) -> f64 + Sync,
        options: &ExecOptions,
    ) -> Result<Vec<QueryResult>> {
        let filter = self.filter(filters);
        let (merge, fine) = self.fold_groups::<F>(rows, keys, filter, weight, options)?;
        Ok(options.span("readout", || self.assemble(|g| keys.decode(merge.keys()[g]), &fine)))
    }

    /// [`GroupByQuery::aggregate`] up to its read-out, under `filter`: the
    /// merged finest groups' packed keys, in merged (first-occurrence)
    /// order, and one column per aggregate whose cell `g` is fine group
    /// `g`'s.
    fn fold_groups<F: Cells>(
        &self,
        rows: &RowSpace<'_>,
        keys: &RowKeys<'_>,
        filter: Filter<'_>,
        weight: impl Fn(usize) -> f64 + Sync,
        options: &ExecOptions,
    ) -> Result<(OrderedMerge<u64>, Vec<CellColumn<F>>)> {
        let aggregates = &self.aggregates;
        let inputs: Vec<Option<ScalarExpr>> = aggregates.iter().map(|a| a.input.clone()).collect();
        let bound = rows.bind(&inputs)?;
        Ok(exec::fold_partitioned(
            rows.num_rows(),
            options,
            (OrderedMerge::<u64>::default(), columns(aggregates, 0)),
            |_, range| {
                options.span("fold", || {
                    fold_partition(rows, keys, range, aggregates, &bound, filter, &weight)
                })
            },
            |(merge, fine), (local, states): (LocalKeys, Vec<CellColumn<F>>)| {
                options.span("merge", || merge_partial(merge, fine, local.partial(), &states));
            },
        ))
    }

    /// How this statement's pass walks under the per-shard `filters`.
    /// Without `WITH CUBE` the walk keys and slots only the kept rows, and
    /// every bit of the answer is the one an all-rows walk gives: the
    /// read-out is the identity projection, each fine group's cells still
    /// merge its partitions' partials in partition order (a partition
    /// without a kept row of the group contributed an empty cell, whose
    /// merge changes nothing), and the answer is sorted by key. A cube
    /// statement's coarse cell merges fine cells in fine-id order, which
    /// first occurrence over the kept rows could reorder, so it slots every
    /// row.
    fn filter<'b>(&self, filters: Option<&'b [Bitmap]>) -> Filter<'b> {
        match filters {
            None => Filter::Every,
            Some(bitmaps) if self.cube => Filter::SlotEvery(bitmaps),
            Some(bitmaps) => Filter::SlotKept(bitmaps),
        }
    }

    /// Read every grouping set out of the finest-group cells `fine` — one
    /// column per aggregate, cell `g` fine group `g`'s, whose key is
    /// `key(g)`. Only live fine groups are read: their keys alone are
    /// decoded and projected onto each set, and their cells alone coarsened
    /// ([`coarsen`]), so every coarse group holds a row. A non-empty set
    /// answers its coarse groups; the empty set answers exactly one row, as
    /// SQL does for an aggregate over no rows: `COUNT` and `COUNT_IF` 0,
    /// every other aggregate without a value (NaN).
    fn assemble<'k, F: Cells>(
        &self,
        key: impl Fn(usize) -> Cow<'k, [KeyAtom]>,
        fine: &[CellColumn<F>],
    ) -> Vec<QueryResult> {
        let aggregates = &self.aggregates;
        let live = live_groups(fine);
        let live_keys: Vec<Cow<[KeyAtom]>> = live.iter().map(|&g| key(g as usize)).collect();
        KEYS_DECODED.fetch_add(live_keys.len() as u64, Ordering::Relaxed);
        let dim_names: Vec<String> = self.group_by.iter().map(ScalarExpr::display_name).collect();
        let sets: Vec<Vec<usize>> = if self.cube {
            grouping_sets(self.group_by.len())
        } else {
            vec![(0..self.group_by.len()).collect()]
        };
        let agg_names: Vec<String> = aggregates.iter().map(|a| a.alias.clone()).collect();
        let results = sets.iter().map(|dims| {
            let proj = GroupProjection::of(&dim_names, &live_keys, dims);
            let coarse = coarsen(&proj, fine, &live, aggregates);
            let mut groups: Vec<_> = (0..proj.num_groups())
                .map(|cid| {
                    let group_rows = coarse.iter().map(|column| column.rows(cid)).max();
                    let values = coarse.iter().zip(aggregates);
                    let values = values.map(|(c, a)| c.finalize(cid, a.kind)).collect();
                    (proj.key(cid as u32).to_vec(), values, group_rows.unwrap_or(0))
                })
                .collect();
            if dims.is_empty() && groups.is_empty() {
                let values = aggregates
                    .iter()
                    .map(|a| match a.kind {
                        AggKind::Count | AggKind::CountIf => 0.0,
                        _ => f64::NAN,
                    })
                    .collect();
                groups.push((Vec::new(), values, 0));
            }
            QueryResult::from_parts(proj.dim_names().to_vec(), agg_names.clone(), groups)
        });
        results.collect()
    }
}

/// One column of `len` empty cells per aggregate of `aggregates`.
fn columns<F: Cells>(aggregates: &[AggExpr], len: usize) -> Vec<CellColumn<F>> {
    let column = |agg: &AggExpr| {
        let mut column = CellColumn::with_capacity(agg.kind, len);
        column.resize(len);
        column
    };
    aggregates.iter().map(column).collect()
}

/// Merge one partition's partial into the merged groups, in partition
/// order: `partial` lists the partition's keys with their row counts in
/// slot order, and `states` holds their cells, one column per aggregate. A
/// group met for the first time takes its partial's cells as they are (a
/// merge into an empty cell copies it); a known group merges them into its
/// own.
fn merge_partial<K: Clone + Eq + Hash, F: Cells>(
    merge: &mut OrderedMerge<K>,
    fine: &mut [CellColumn<F>],
    partial: impl IntoIterator<Item = (K, u64)>,
    states: &[CellColumn<F>],
) {
    let translation = merge.push(partial);
    for (acc, cells) in fine.iter_mut().zip(states) {
        acc.resize(merge.len());
        acc.merge_at(cells, &translation);
    }
}

/// Which rows a partition of the aggregation pass folds, and which of them
/// its walk keys and slots.
#[derive(Clone, Copy)]
pub(crate) enum Filter<'b> {
    /// No predicate: every row is slotted and folded.
    Every,
    /// Key, slot and fold only the rows the per-shard bitmaps keep: fine
    /// groups follow first occurrence over the kept rows.
    SlotKept(&'b [Bitmap]),
    /// Slot every row and fold the rows the per-shard bitmaps keep: fine
    /// groups follow first occurrence over all rows.
    SlotEvery(&'b [Bitmap]),
}

/// One partition of the aggregation pass: walk `range` of `rows` under
/// `keys`, and fold every row `filter` keeps into its slot's cells, one
/// column per aggregate. Under [`Filter::SlotKept`] the walk keys and slots
/// only the kept rows, so the partition's keys, their sizes and its cells
/// cover only groups a kept row reached; under [`Filter::SlotEvery`] every
/// row takes a slot. `bound` holds the aggregates' inputs bound per shard,
/// each evaluated a run at a time into buffers allocated once per
/// partition, and `weight` maps a global row id to its weight. Returns the
/// partition's keys with the cell columns. Both sides of a statement over
/// shards behind readers run it, slotting every row: a shard for the
/// partitions it holds whole, the coordinator for in-process rows and for a
/// partition that straddles a shard boundary.
pub(crate) fn fold_partition<F: Cells>(
    rows: &RowSpace<'_>,
    keys: &RowKeys<'_>,
    range: RowRange,
    aggregates: &[AggExpr],
    bound: &[Vec<Option<BoundExpr<'_>>>],
    filter: Filter<'_>,
    weight: impl Fn(usize) -> f64,
) -> (LocalKeys, Vec<CellColumn<F>>) {
    let (walked, filters) = match filter {
        Filter::Every => (None, None),
        Filter::SlotKept(bitmaps) => (Some(bitmaps), Some(bitmaps)),
        Filter::SlotEvery(bitmaps) => (None, Some(bitmaps)),
    };
    // Each column grows as slots appear rather than reserving every slot the
    // walk could hand out (up to the partition's row count): that reserve is
    // one large chunk per aggregate whatever the grouping's cardinality, and
    // where the heap reuses such chunks makes resident memory vary from run
    // to run.
    let mut states: Vec<CellColumn<F>> = columns(aggregates, 0);
    // Each input's block buffers, allocated at its first run.
    let mut scratch: Vec<Option<BlockScratch>> = aggregates.iter().map(|_| None).collect();
    let local = keys.walk(rows, range, walked, |run, slots, seen| {
        states.iter_mut().for_each(|column| column.resize(seen));
        let (start, end) = (run.local.start, run.local.end);
        let kept = filters.map(|bms| &bms[run.shard]);
        if kept.is_some_and(|kept| kept.iter_ones_in(start, end).next().is_none()) {
            return;
        }
        // The run's row `i` is global row `run.global_start + i`.
        let weight = |i: usize| weight(run.global_start + i);
        // One aggregate at a time over the run: each (slot, aggregate) cell
        // still takes its rows in row order.
        let columns = aggregates.iter().zip(&bound[run.shard]).zip(&mut states);
        for (a, ((agg, expr), column)) in columns.enumerate() {
            let block = expr.as_ref().map(|e| {
                let scratch = scratch[a].get_or_insert_with(|| e.scratch());
                e.block(run.local, scratch)
            });
            match kept {
                Some(kept) => {
                    let rows = kept.iter_ones_in(start, end).map(|r| (r - start, slots[r - start]));
                    fold_column(column, rows, agg, block, weight);
                }
                None => {
                    let rows = slots.iter().copied().enumerate();
                    fold_column(column, rows, agg, block, weight);
                }
            }
        }
    });
    let held: usize = states.iter().map(|column| column.len() * column.cell_bytes()).sum();
    FOLD_STATE_BYTES.fetch_add(held as u64, Ordering::Relaxed);
    (local, states)
}

/// Fold aggregate `agg` over `rows` — each a row's index in the run with
/// its slot — into `column`, whose cell `s` is slot `s`'s. The match on the
/// column's cell type happens once per run, not per row.
#[inline]
fn fold_column<F: Cells>(
    column: &mut CellColumn<F>,
    rows: impl Iterator<Item = (usize, u32)>,
    agg: &AggExpr,
    block: Option<Block<'_>>,
    weight: impl Fn(usize) -> f64,
) {
    each_cells!(column, cells => fold_cells(cells, rows, agg, block, weight))
}

/// [`fold_column`] over one typed cell array. The run's `block` of the
/// input is the one value source: a row feeds the value it has there, and
/// none when it has no value (a null). `COUNT(*)` reads no input, and
/// `COUNT_IF` feeds every row a 0/1 hit, comparing a row without a value as
/// NaN. The match on the aggregate and on whether every row of the block
/// has a value happens once per run, not per row.
#[inline]
fn fold_cells<C: Accumulator>(
    cells: &mut [C],
    rows: impl Iterator<Item = (usize, u32)>,
    agg: &AggExpr,
    block: Option<Block<'_>>,
    weight: impl Fn(usize) -> f64,
) {
    match (agg.kind, block) {
        (AggKind::Count, _) => fold_rows(cells, rows, |_| Some(1.0), weight),
        (AggKind::CountIf, Some(b)) => {
            let (op, threshold) = agg.condition.expect("COUNT_IF has a condition");
            let hit = move |v: f64| Some(if op.evaluate_f64(v, threshold) { 1.0 } else { 0.0 });
            match b.valid {
                None => fold_rows(cells, rows, |i| hit(b.values[i]), weight),
                Some(_) => fold_rows(cells, rows, |i| hit(b.get(i).unwrap_or(f64::NAN)), weight),
            }
        }
        (_, Some(b)) => match b.valid {
            None => fold_rows(cells, rows, |i| Some(b.values[i]), weight),
            Some(_) => fold_rows(cells, rows, |i| b.get(i), weight),
        },
        (_, None) => {}
    }
}

/// The loop [`fold_cells`] specialises, once per value source.
#[inline]
fn fold_rows<C: Accumulator>(
    cells: &mut [C],
    rows: impl Iterator<Item = (usize, u32)>,
    value: impl Fn(usize) -> Option<f64>,
    weight: impl Fn(usize) -> f64,
) {
    for (row, slot) in rows {
        if let Some(v) = value(row) {
            cells[slot as usize].update(v, weight(row));
        }
    }
}

/// The live fine groups of `fine`, ascending: those with a cell, in any
/// aggregate's column, that accumulated a row.
fn live_groups<F: Cells>(fine: &[CellColumn<F>]) -> Vec<u32> {
    let mut live = vec![false; fine.first().map_or(0, CellColumn::len)];
    fine.iter().for_each(|column| column.mark_live(&mut live));
    (0..live.len() as u32).filter(|&g| live[g as usize]).collect()
}

/// Merge the live finest-group cells onto the coarser grouping `proj`.
/// `fine` holds one column per aggregate of `aggregates`, cell `g` fine
/// group `g`'s; `live` lists the live fine groups, ascending, and `proj`
/// projects their keys in that order. Returns one column per aggregate,
/// cell `c` coarse group `c`'s, each merging its live fine groups' cells
/// in fine-id order — the cells a merge of every fine group would change
/// it with, in the same order.
fn coarsen<F: Cells>(
    proj: &GroupProjection<'_>,
    fine: &[CellColumn<F>],
    live: &[u32],
    aggregates: &[AggExpr],
) -> Vec<CellColumn<F>> {
    let mut coarse = columns(aggregates, proj.num_groups());
    for (acc, cells) in coarse.iter_mut().zip(fine) {
        acc.merge_from(cells, live, proj.fine_to_coarse());
    }
    coarse
}

/// The result of one grouping set: a small column-oriented result table.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Names of the grouping dimensions of this set.
    pub grouping: Vec<String>,
    /// Aggregate output labels.
    pub agg_names: Vec<String>,
    /// Group keys, sorted and unique: [`QueryResult::group_position`]
    /// binary-searches them.
    pub keys: Vec<Vec<KeyAtom>>,
    /// `values[group][aggregate]`.
    pub values: Vec<Vec<f64>>,
    /// Rows that contributed to each group (post-predicate).
    pub group_rows: Vec<u64>,
}

impl QueryResult {
    /// Assemble a result from `(key, values, contributing rows)` triples
    /// with distinct keys; rows are sorted by key.
    pub fn from_parts(
        grouping: Vec<String>,
        agg_names: Vec<String>,
        mut rows: Vec<(Vec<KeyAtom>, Vec<f64>, u64)>,
    ) -> Self {
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        debug_assert!(rows.windows(2).all(|w| w[0].0 != w[1].0), "duplicate group key");
        let mut result = QueryResult {
            grouping,
            agg_names,
            keys: Vec::with_capacity(rows.len()),
            values: Vec::with_capacity(rows.len()),
            group_rows: Vec::with_capacity(rows.len()),
        };
        for (key, values, nrows) in rows {
            result.keys.push(key);
            result.values.push(values);
            result.group_rows.push(nrows);
        }
        result
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }

    /// Number of aggregates.
    pub fn num_aggregates(&self) -> usize {
        self.agg_names.len()
    }

    /// Row index of `key`, if present.
    pub fn group_position(&self, key: &[KeyAtom]) -> Option<usize> {
        self.keys.binary_search_by(|k| k.as_slice().cmp(key)).ok()
    }

    /// The value of aggregate `agg_idx` for group `key`, if present.
    pub fn value(&self, key: &[KeyAtom], agg_idx: usize) -> Option<f64> {
        self.group_position(key).map(|pos| self.values[pos][agg_idx])
    }

    /// Iterate `(key, values)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[KeyAtom], &[f64])> {
        self.keys.iter().map(|k| k.as_slice()).zip(self.values.iter().map(|v| v.as_slice()))
    }

    /// Render as an aligned text table (for examples and reports).
    pub fn to_text(&self) -> String {
        let mut header: Vec<String> = self.grouping.clone();
        header.extend(self.agg_names.iter().cloned());
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(self.keys.len());
        for (key, values) in self.iter() {
            let mut row: Vec<String> = key.iter().map(|a| a.to_string()).collect();
            row.extend(values.iter().map(|v| format!("{v:.4}")));
            rows.push(row);
        }
        render_text_table(&header, &rows)
    }
}

/// Align a header and rows into a text table.
pub fn render_text_table(header: &[String], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let emit_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            for _ in cell.len()..widths[i] {
                out.push(' ');
            }
        }
        out.push('\n');
    };
    emit_row(&mut out, header);
    let sep: Vec<String> = (0..ncols).map(|i| "-".repeat(widths[i])).collect();
    emit_row(&mut out, &sep);
    for row in rows {
        emit_row(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::reader::tests::layouts_of;
    use crate::shard::ShardedTable;
    use crate::table::{Table, TableBuilder};
    use crate::types::{DataType, Value};

    /// The paper's example Student table (Table 1).
    pub(crate) fn student_table() -> Table {
        let mut b = TableBuilder::new(&[
            ("id", DataType::Int64),
            ("age", DataType::Int64),
            ("gpa", DataType::Float64),
            ("sat", DataType::Int64),
            ("major", DataType::Str),
            ("college", DataType::Str),
        ]);
        let rows: [(i64, i64, f64, i64, &str, &str); 8] = [
            (1, 25, 3.4, 1250, "CS", "Science"),
            (2, 22, 3.1, 1280, "CS", "Science"),
            (3, 24, 3.8, 1230, "Math", "Science"),
            (4, 28, 3.6, 1270, "Math", "Science"),
            (5, 21, 3.5, 1210, "EE", "Engineering"),
            (6, 23, 3.2, 1260, "EE", "Engineering"),
            (7, 27, 3.7, 1220, "ME", "Engineering"),
            (8, 26, 3.3, 1230, "ME", "Engineering"),
        ];
        for (id, age, gpa, sat, major, college) in rows {
            b.push_row(&[
                Value::Int64(id),
                Value::Int64(age),
                Value::Float64(gpa),
                Value::Int64(sat),
                Value::str(major),
                Value::str(college),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn avg_gpa_by_major() {
        let t = student_table();
        let q = GroupByQuery::new(vec![ScalarExpr::col("major")], vec![AggExpr::avg("gpa")]);
        let r = &q.execute(&t).unwrap()[0];
        assert_eq!(r.num_groups(), 4);
        let cs = r.value(&[KeyAtom::from("CS")], 0).unwrap();
        assert!((cs - 3.25).abs() < 1e-12);
        let math = r.value(&[KeyAtom::from("Math")], 0).unwrap();
        assert!((math - 3.7).abs() < 1e-12);
        // Absent keys: before the first, between two and after the last
        // sorted key, of the wrong arity, and the empty key.
        for absent in [&["AA"][..], &["Chem"], &["zz"], &["CS", "Science"], &[]] {
            let key: Vec<KeyAtom> = absent.iter().map(|&s| KeyAtom::from(s)).collect();
            assert_eq!(r.group_position(&key), None, "{absent:?}");
            assert_eq!(r.value(&key, 0), None, "{absent:?}");
        }
    }

    #[test]
    fn multiple_aggregates() {
        let t = student_table();
        let q = GroupByQuery::new(
            vec![ScalarExpr::col("college")],
            vec![
                AggExpr::count(),
                AggExpr::sum("sat"),
                AggExpr::min("age"),
                AggExpr::max("age"),
                AggExpr::avg("age"),
            ],
        );
        let r = &q.execute(&t).unwrap()[0];
        let sci = r.group_position(&[KeyAtom::from("Science")]).unwrap();
        assert_eq!(r.values[sci][0], 4.0);
        assert_eq!(r.values[sci][1], 5030.0);
        assert_eq!(r.values[sci][2], 22.0);
        assert_eq!(r.values[sci][3], 28.0);
        assert!((r.values[sci][4] - 24.75).abs() < 1e-12);
    }

    #[test]
    fn predicate_filters_groups() {
        let t = student_table();
        let q = GroupByQuery::new(vec![ScalarExpr::col("major")], vec![AggExpr::avg("gpa")])
            .with_predicate(Predicate::cmp("college", CmpOp::Eq, "Science"));
        let r = &q.execute(&t).unwrap()[0];
        assert_eq!(r.num_groups(), 2); // EE/ME filtered out entirely
        assert!(r.value(&[KeyAtom::from("EE")], 0).is_none());
    }

    #[test]
    fn count_if() {
        let t = student_table();
        let q = GroupByQuery::new(
            vec![ScalarExpr::col("college")],
            vec![AggExpr::count_if("gpa", CmpOp::Gt, 3.45)],
        );
        let r = &q.execute(&t).unwrap()[0];
        // Science: 3.8, 3.6 → 2; Engineering: 3.5, 3.7 → 2.
        assert_eq!(r.value(&[KeyAtom::from("Science")], 0), Some(2.0));
        assert_eq!(r.value(&[KeyAtom::from("Engineering")], 0), Some(2.0));
    }

    #[test]
    fn full_table_aggregate() {
        let t = student_table();
        let q = GroupByQuery::new(vec![], vec![AggExpr::avg("gpa"), AggExpr::count()]);
        let r = &q.execute(&t).unwrap()[0];
        assert_eq!(r.num_groups(), 1);
        assert!((r.values[0][0] - 3.45).abs() < 1e-12);
        assert_eq!(r.values[0][1], 8.0);
        // `dims = []`: the one group's key is empty, and no other key is
        // present.
        assert_eq!(r.group_position(&[]), Some(0));
        assert_eq!(r.value(&[], 1), Some(8.0));
        assert_eq!(r.value(&[KeyAtom::from("CS")], 0), None);
    }

    /// SQL answers an aggregate over no qualifying rows with one row:
    /// `COUNT` and `COUNT_IF` 0, everything else without a value. Only the
    /// empty grouping set does; a grouped set keeps dropping empty groups.
    #[test]
    fn empty_grouping_set_over_no_rows_answers_one_row() {
        let t = student_table();
        let none = Predicate::cmp("age", CmpOp::Gt, 100.0);
        let q = GroupByQuery::new(
            vec![],
            vec![
                AggExpr::count(),
                AggExpr::count_if("gpa", CmpOp::Gt, 0.0),
                AggExpr::sum("sat"),
                AggExpr::avg("gpa"),
                AggExpr::min("age"),
            ],
        );
        let empty = TableBuilder::from_schema(t.schema().clone()).finish();
        for (q, rows) in [(q.clone().with_predicate(none.clone()), &t), (q, &empty)] {
            let r = &q.execute(rows).unwrap()[0];
            assert_eq!((r.num_groups(), r.group_rows[0]), (1, 0));
            assert!(r.keys[0].is_empty());
            assert_eq!(&r.values[0][..2], &[0.0, 0.0]);
            assert!(r.values[0][2..].iter().all(|v| v.is_nan()), "{:?}", r.values[0]);
        }
        for stmt in
            ["SELECT COUNT(*) FROM t WHERE age > 100", "SELECT AVG(gpa) FROM t WHERE age > 100"]
        {
            assert_eq!(crate::sql::run(&t, stmt).unwrap()[0].num_groups(), 1, "{stmt}");
        }
        let cube = GroupByQuery::new(
            vec![ScalarExpr::col("major"), ScalarExpr::col("college")],
            vec![AggExpr::count()],
        )
        .with_predicate(none)
        .with_cube();
        let sizes: Vec<usize> = cube.execute(&t).unwrap().iter().map(|r| r.num_groups()).collect();
        assert_eq!(sizes, [0, 0, 0, 1]);
    }

    #[test]
    fn cube_produces_all_grouping_sets() {
        let t = student_table();
        let q = GroupByQuery::new(
            vec![ScalarExpr::col("major"), ScalarExpr::col("college")],
            vec![AggExpr::sum("sat")],
        )
        .with_cube();
        let results = q.execute(&t).unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].grouping, vec!["major", "college"]);
        assert_eq!(results[0].num_groups(), 4);
        assert_eq!(results[1].grouping, vec!["major"]);
        assert_eq!(results[1].num_groups(), 4);
        assert_eq!(results[2].grouping, vec!["college"]);
        assert_eq!(results[2].num_groups(), 2);
        assert_eq!(results[3].grouping, Vec::<String>::new());
        assert_eq!(results[3].num_groups(), 1);
        // Totals agree across grouping sets.
        let full: f64 = results[3].values[0][0];
        let by_major: f64 = results[1].values.iter().map(|v| v[0]).sum();
        assert!((full - by_major).abs() < 1e-9);
    }

    #[test]
    fn cube_variance_merge_is_exact() {
        let t = student_table();
        let q = GroupByQuery::new(
            vec![ScalarExpr::col("major"), ScalarExpr::col("college")],
            vec![AggExpr::var("gpa")],
        )
        .with_cube();
        let results = q.execute(&t).unwrap();
        // Full-table variance from the cube's empty grouping set must match a
        // direct full-table query.
        let direct = GroupByQuery::new(vec![], vec![AggExpr::var("gpa")]);
        let direct_var = direct.execute(&t).unwrap()[0].values[0][0];
        let cube_var = results[3].values[0][0];
        assert!((direct_var - cube_var).abs() < 1e-12);
    }

    #[test]
    fn result_iter_sorted() {
        let t = student_table();
        let q = GroupByQuery::new(vec![ScalarExpr::col("major")], vec![AggExpr::count()]);
        let r = &q.execute(&t).unwrap()[0];
        let keys: Vec<String> = r.iter().map(|(k, _)| k[0].to_string()).collect();
        assert_eq!(keys, vec!["CS", "EE", "ME", "Math"]); // KeyAtom sort order
    }

    #[test]
    fn to_text_renders() {
        let t = student_table();
        let q = GroupByQuery::new(vec![ScalarExpr::col("college")], vec![AggExpr::count()]);
        let r = &q.execute(&t).unwrap()[0];
        let text = r.to_text();
        assert!(text.contains("college"));
        assert!(text.contains("Engineering"));
        assert!(text.contains("4.0000"));
    }

    #[test]
    fn sharded_execution_is_bit_identical_to_single_table() {
        let t = student_table();
        let queries = [
            GroupByQuery::new(
                vec![ScalarExpr::col("major")],
                vec![AggExpr::avg("gpa"), AggExpr::count(), AggExpr::var("sat")],
            ),
            GroupByQuery::new(vec![ScalarExpr::col("college")], vec![AggExpr::sum("sat")])
                .with_predicate(Predicate::cmp("gpa", CmpOp::Ge, 3.3)),
            GroupByQuery::new(
                vec![ScalarExpr::col("major"), ScalarExpr::col("college")],
                vec![AggExpr::avg("gpa")],
            )
            .with_cube(),
        ];
        for q in &queries {
            let reference = q.execute_with(&t, &ExecOptions::sequential()).unwrap();
            for num_shards in [1usize, 2, 3, 5] {
                // In-process shards, reader-backed shards, and a mix.
                for (kind, set) in layouts_of(&ShardedTable::split(&t, num_shards).unwrap()) {
                    for threads in [1usize, 4] {
                        let got = q.execute_with(&set, &ExecOptions::new(threads)).unwrap();
                        assert_eq!(got.len(), reference.len());
                        let at = format!("{kind} shards {num_shards}, threads {threads}");
                        for (g, r) in got.iter().zip(&reference) {
                            assert_eq!(g.keys, r.keys, "{at}");
                            assert_eq!(g.group_rows, r.group_rows);
                            for (a, b) in g.values.iter().zip(&r.values) {
                                for (x, y) in a.iter().zip(b) {
                                    assert_eq!(x.to_bits(), y.to_bits(), "{at}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn group_rows_tracks_predicate() {
        let t = student_table();
        let q = GroupByQuery::new(vec![ScalarExpr::col("college")], vec![AggExpr::avg("gpa")])
            .with_predicate(Predicate::cmp("gpa", CmpOp::Ge, 3.5));
        let r = &q.execute(&t).unwrap()[0];
        let sci = r.group_position(&[KeyAtom::from("Science")]).unwrap();
        assert_eq!(r.group_rows[sci], 2);
    }

    /// The read-out before it skipped dead groups: decode every fine key,
    /// project every fine group onto each set, coarsen every fine cell in
    /// fine-id order, and drop the coarse groups that hold no row.
    fn assemble_every<F: Cells>(
        q: &GroupByQuery,
        group_keys: &[Cow<[KeyAtom]>],
        fine: &[CellColumn<F>],
    ) -> Vec<QueryResult> {
        let dim_names: Vec<String> = q.group_by.iter().map(ScalarExpr::display_name).collect();
        let agg_names: Vec<String> = q.aggregates.iter().map(|a| a.alias.clone()).collect();
        let sets = grouping_sets(q.group_by.len());
        let results = sets.iter().map(|dims| {
            let proj = GroupProjection::of(&dim_names, group_keys, dims);
            let mut coarse = columns(&q.aggregates, proj.num_groups());
            for (acc, cells) in coarse.iter_mut().zip(fine) {
                acc.merge_at(cells, proj.fine_to_coarse());
            }
            let mut groups = Vec::new();
            for cid in 0..proj.num_groups() {
                let group_rows = coarse.iter().map(|column| column.rows(cid)).max().unwrap_or(0);
                if group_rows == 0 {
                    continue;
                }
                let values = coarse.iter().zip(&q.aggregates);
                let values = values.map(|(c, a)| c.finalize(cid, a.kind)).collect();
                groups.push((proj.key(cid as u32).to_vec(), values, group_rows));
            }
            QueryResult::from_parts(proj.dim_names().to_vec(), agg_names.clone(), groups)
        });
        results.collect()
    }

    /// A `WITH CUBE` statement whose predicate leaves fine groups dead reads
    /// out, in either family, what a read-out of every fine group does: the
    /// same keys, value bits and group rows. Fine group `(a, p)` is dead and
    /// met first, before the live `(a, q)` and `(a, r)` of the same coarse
    /// group `a`, so a read-out that merged `a`'s cells in another order, or
    /// took its first cell from a dead group, would show here; `p` holds
    /// dead groups only, so it must not be answered.
    #[test]
    fn the_live_readout_answers_as_a_readout_of_every_group() {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("h", DataType::Str),
            ("keep", DataType::Int64),
            ("x", DataType::Float64),
        ]);
        let edges = [
            ("a", "p", 0, 5.0),
            ("a", "q", 1, 0.1),
            ("a", "r", 1, -0.0),
            ("b", "p", 0, 1.0),
            ("b", "q", 1, f64::NAN),
            ("a", "q", 1, 0.7),
            ("c", "s", 1, f64::INFINITY),
            ("a", "r", 1, 1e300),
            ("c", "s", 1, f64::NEG_INFINITY),
            ("d", "t", 1, 0.0),
        ];
        let body = (0..300).map(|i: usize| {
            let (g, h) = (["a", "b", "c", "d"][i * 7 % 4], ["q", "r", "s", "t"][i * 5 % 4]);
            (g, h, !i.is_multiple_of(3) as i64, (i as f64 * 0.37).sin() * 1e3)
        });
        for (g, h, keep, x) in edges.into_iter().chain(body) {
            let row = [Value::str(g), Value::str(h), Value::Int64(keep), Value::Float64(x)];
            b.push_row(&row).unwrap();
        }
        let t = b.finish();
        let q = GroupByQuery::new(
            vec![ScalarExpr::col("g"), ScalarExpr::col("h")],
            vec![
                AggExpr::count(),
                AggExpr::sum("x"),
                AggExpr::avg("x"),
                AggExpr::min("x"),
                AggExpr::max("x"),
                AggExpr::var("x"),
                AggExpr::std("x"),
                AggExpr::count_if("x", CmpOp::Gt, 0.5),
            ],
        )
        .with_predicate(Predicate::cmp("keep", CmpOp::Eq, 1.0))
        .with_cube();
        check_live_readout::<ExactCells>(&q, &t, |_| 1.0);
        // A row of weight 0 folds into no weighted cell.
        check_live_readout::<crate::agg::WeightedCells>(&q, &t, |row| (row % 4) as f64 * 0.75);
    }

    fn check_live_readout<F: Cells>(
        q: &GroupByQuery,
        t: &Table,
        weight: impl Fn(usize) -> f64 + Sync,
    ) {
        let options = ExecOptions::default();
        let rows = RowSpace::from(t);
        let keys = RowKeys::encode(&rows, &[t], &q.group_by, &options).unwrap();
        let predicate = q.predicate.as_ref().unwrap();
        let filters = rows.predicate_bitmaps(predicate, &options).unwrap();
        let filter = q.filter(Some(&filters));
        let (merge, fine) = q.fold_groups::<F>(&rows, &keys, filter, weight, &options).unwrap();
        let every: Vec<Cow<[KeyAtom]>> = merge.keys().iter().map(|&k| keys.decode(k)).collect();
        let key = |atoms: &[&str]| atoms.iter().map(|&a| KeyAtom::from(a)).collect::<Vec<_>>();
        assert_eq!(every[..3], [key(&["a", "p"]), key(&["a", "q"]), key(&["a", "r"])]);
        let live = live_groups(&fine);
        assert_eq!(live[..2], [1, 2], "(a, p) is dead, (a, q) and (a, r) live");
        assert!(live.len() < every.len());

        let got = q.assemble(|g| keys.decode(merge.keys()[g]), &fine);
        let want = assemble_every(q, &every, &fine);
        assert_eq!(got.len(), want.len());
        for (got, want) in got.iter().zip(&want) {
            let at = format!("{:?}", want.grouping);
            assert_eq!(got.grouping, want.grouping);
            assert_eq!(got.keys, want.keys, "{at}");
            assert_eq!(got.group_rows, want.group_rows, "{at}");
            let bits = |r: &QueryResult| -> Vec<Vec<u64>> {
                r.values.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
            };
            assert_eq!(bits(got), bits(want), "{at}");
        }
        assert_eq!(want[2].grouping, ["h"]);
        assert_eq!(want[2].group_position(&key(&["p"])), None, "p holds dead groups only");
    }

    /// Each grouping set's keys, group rows and value bits.
    type SetBits = (Vec<String>, Vec<Vec<KeyAtom>>, Vec<u64>, Vec<Vec<u64>>);

    fn set_bits(results: &[QueryResult]) -> Vec<SetBits> {
        let bits = |values: &[Vec<f64>]| -> Vec<Vec<u64>> {
            values.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
        };
        let set = |r: &QueryResult| {
            (r.grouping.clone(), r.keys.clone(), r.group_rows.clone(), bits(&r.values))
        };
        results.iter().map(set).collect()
    }

    /// A `WITH CUBE` statement under a predicate answers as when every row
    /// takes a slot, in either family. Fine group `(a, p)` is dead and met
    /// first; `(a, q)` is met next, but its first kept row comes after those
    /// of `(a, r)` and `(a, u)`. Over every row the coarse group `a` merges
    /// `q`, `r`, `u` — 1e16, −1e16 and a small value, which survives —
    /// while slotting only the kept rows would merge `r`, `u`, `q` and round
    /// the small value away.
    #[test]
    fn a_cube_under_a_predicate_slots_every_row() {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("h", DataType::Str),
            ("keep", DataType::Int64),
            ("x", DataType::Float64),
        ]);
        let rows = [
            ("a", "p", 0, 5.0),
            ("a", "q", 0, 1.0),
            ("a", "r", 1, -1e16),
            ("a", "u", 1, 0.25),
            ("a", "q", 1, 1e16),
            ("b", "q", 1, 3.0),
        ];
        for (g, h, keep, x) in rows {
            let row = [Value::str(g), Value::str(h), Value::Int64(keep), Value::Float64(x)];
            b.push_row(&row).unwrap();
        }
        let t = b.finish();
        let q = GroupByQuery::new(
            vec![ScalarExpr::col("g"), ScalarExpr::col("h")],
            vec![AggExpr::sum("x"), AggExpr::avg("x"), AggExpr::count()],
        )
        .with_predicate(Predicate::cmp("keep", CmpOp::Eq, 1.0))
        .with_cube();
        check_cube_slots_every::<ExactCells>(&q, &t, |_| 1.0, 0.25);
        // Row 3's 0.25 at weight 2.
        check_cube_slots_every::<crate::agg::WeightedCells>(&q, &t, |row| [1.0, 2.0][row % 2], 0.5);
    }

    fn check_cube_slots_every<F: Cells>(
        q: &GroupByQuery,
        t: &Table,
        weight: impl Fn(usize) -> f64 + Sync + Copy,
        sum_of_a: f64,
    ) {
        let options = ExecOptions::default();
        let rows = RowSpace::from(t);
        let keys = RowKeys::encode(&rows, &[t], &q.group_by, &options).unwrap();
        let filters = rows.predicate_bitmaps(q.predicate.as_ref().unwrap(), &options).unwrap();
        let under = |filter| {
            let (merge, fine) = q.fold_groups::<F>(&rows, &keys, filter, weight, &options).unwrap();
            set_bits(&q.assemble(|g| keys.decode(merge.keys()[g]), &fine))
        };
        let got = q.aggregate::<F>(&rows, &keys, Some(&filters), weight, &options).unwrap();
        assert_eq!(got[1].grouping, ["g"]);
        assert_eq!(got[1].value(&[KeyAtom::from("a")], 0), Some(sum_of_a));
        let got = set_bits(&got);
        assert_eq!(got, under(Filter::SlotEvery(&filters)));
        let kept = under(Filter::SlotKept(&filters));
        assert_eq!(got[0], kept[0], "the full set is the identity projection");
        assert_ne!(got[1], kept[1], "merging (a, r), (a, u), (a, q) rounds the sum");
    }

    /// One name per `ScalarExpr` and `Predicate` variant — each reachable
    /// only through that variant — plus repeats, which are reported once.
    #[test]
    fn columns_names_every_column_read_once_in_bind_order() {
        use crate::expr::{ArithOp, CaseWhen};
        let col = ScalarExpr::col;
        let case = ScalarExpr::Case {
            whens: vec![CaseWhen {
                lhs: col("when_lhs"),
                op: CmpOp::Gt,
                rhs: col("when_rhs"),
                then: col("then"),
            }],
            otherwise: Some(Box::new(col("otherwise"))),
        };
        let predicate = Predicate::True
            .and(Predicate::cmp("cmp", CmpOp::Eq, "x"))
            .and(Predicate::between(col("between"), 1.0, 2.0).not())
            .or(Predicate::InList { expr: col("in_list"), values: vec![Value::Int64(1)] })
            .and(Predicate::cmp("plain", CmpOp::Ne, "y"));
        let q = GroupByQuery::new(
            vec![
                col("plain"),
                ScalarExpr::year("year"),
                ScalarExpr::month("month"),
                ScalarExpr::Day(Box::new(col("day"))),
                ScalarExpr::hour("hour"),
            ],
            vec![
                AggExpr::count(),
                AggExpr::over(AggKind::Sum, ScalarExpr::indicator("indicator", CmpOp::Gt, 1.0)),
                AggExpr::over(
                    AggKind::Avg,
                    ScalarExpr::binary(
                        ArithOp::Mul,
                        ScalarExpr::binary(ArithOp::Add, col("left"), ScalarExpr::lit(2.0)),
                        col("right"),
                    ),
                ),
                AggExpr::over(AggKind::Max, case),
                AggExpr::count_if("cmp", CmpOp::Lt, 3.0),
            ],
        )
        .with_predicate(predicate);
        let grouping = ["plain", "year", "month", "day", "hour"];
        // "plain" is read again here, and reported once.
        let predicate = ["cmp", "between", "in_list"];
        let inputs = ["indicator", "left", "right", "when_lhs", "when_rhs", "then", "otherwise"];
        assert_eq!(q.columns(), [&grouping[..], &predicate[..], &inputs[..]].concat());
        let count_only = GroupByQuery::new(vec![], vec![AggExpr::count()]);
        assert!(count_only.columns().is_empty(), "COUNT(*) reads no column");
    }
}
