//! Plan pushdown: the two plan-level requests a shard answers, and the
//! coordinator's merge of their answers.
//!
//! **Walk.** A shard keys its rows and runs the table layer's own
//! per-partition kernel — the statistics fold over a partition's strata
//! runs ([`fold_runs`]), full `AggState` moments per column, or the exact
//! fold of a group's kept rows, one narrow cell column per aggregate — over
//! every global [`CHUNK_ROWS`]-row partition it holds whole. It answers its
//! keys in first-occurrence order with their sizes, counted over all its
//! rows, and per whole partition the shard key of each slot and the slot
//! states ([`Walked`]). The coordinator merges the key lists in shard
//! order through the [`OrderedMerge`] — global first-occurrence order — and
//! the partials in global partition order, through the merges the
//! in-process passes run. A partition that straddles a shard boundary is
//! folded here by the same kernel, from its fragments' rows (`take_rows`).
//! Every (partition, key) state therefore comes from the same kernel over
//! the same rows in the same order as in process, so the merged result is
//! bit-identical to it.
//!
//! **Pick.** Algorithm L never reads an item, so a stratum's draw is a set
//! of *ordinals* that depends only on (seed, stratum, n_c, s_c). The
//! coordinator splits each stratum's sorted ordinals across the shards by
//! the shard-level sizes their walks answered; a shard re-walks its rows,
//! with no state kept from the walk, and returns the picked rows as a table
//! with their local ids ([`Picked`]). Ordinals map monotonically onto a
//! stratum's ascending rows, so the rows are the ones an in-process draw
//! picks, and the picked tables are the sample's gather.
//!
//! Every answer from a reader is checked against its request before it is
//! merged; a malformed one is an error that names the shard.

use std::borrow::Cow;

use crate::agg::{AggExpr, AggState, CellColumn, ExactCells};
use crate::bitmap::Bitmap;
use crate::error::{check_row_ids, TableError};
use crate::exec::{self, partition_rows, ExecOptions, RowRange, CHUNK_ROWS};
use crate::expr::{BoundExpr, ScalarExpr};
use crate::fxhash::FxHashMap;
use crate::groupby::{
    bind_columns, fold_runs, key_display, partition, KeyAtom, LocalKeys, OrderedMerge, RowKeys,
};
use crate::predicate::Predicate;
use crate::query::{fold_partition, Filter};
use crate::shard::ShardSegment;
use crate::table::{Table, TableBuilder};
use crate::Result;

use super::{Part, RowSpace};

/// What a walk folds, per partition and key.
#[derive(Debug, Clone)]
pub enum Fold {
    /// The statistics kernel ([`fold_runs`]): one state per column over each
    /// key's rows of the partition.
    Stats {
        /// The aggregation columns.
        columns: Vec<ScalarExpr>,
    },
    /// The exact kernel: one state per aggregate over each key's rows of the
    /// partition that the predicate keeps.
    Exact {
        /// The row filter, if any.
        predicate: Option<Predicate>,
        /// The aggregates.
        aggregates: Vec<AggExpr>,
    },
}

/// One global partition a shard holds whole, folded.
#[derive(Debug, Clone)]
pub struct WalkedPartition<S> {
    /// Global row id of the partition's first row.
    pub start: u64,
    /// The shard key of each of the partition's slots.
    pub slots: Vec<u32>,
    /// The slots' states.
    pub states: S,
}

/// Every global partition a shard holds whole, in order, each in the one
/// form the walk's fold leaves its slot states.
#[derive(Debug, Clone)]
pub enum Partitions {
    /// [`Fold::Stats`]: full moments, `states[slot * width + column]`.
    Stats(Vec<WalkedPartition<Vec<AggState>>>),
    /// [`Fold::Exact`]: one cell column per aggregate, cell `slot` each,
    /// holding only what its aggregate's kind reads.
    Exact(Vec<WalkedPartition<Vec<CellColumn<ExactCells>>>>),
}

/// A shard's answer to a walk: no per-row id or value, only keys and
/// partials.
#[derive(Debug, Clone)]
pub struct Walked {
    /// The shard's keys in first-occurrence order over all its rows — the
    /// shard key ids.
    pub keys: Vec<Vec<KeyAtom>>,
    /// Each key's rows in the shard.
    pub sizes: Vec<u64>,
    /// Every global partition the shard holds whole, in order.
    pub partitions: Partitions,
}

/// The slot states of one form of walk.
pub(crate) trait Form: Sized + Send {
    /// The partitions of a walk in this form; `None` for the other form's.
    fn take(partitions: Partitions) -> Option<Vec<WalkedPartition<Self>>>;
}

impl Form for Vec<AggState> {
    fn take(partitions: Partitions) -> Option<Vec<WalkedPartition<Self>>> {
        match partitions {
            Partitions::Stats(partitions) => Some(partitions),
            Partitions::Exact(_) => None,
        }
    }
}

impl Form for Vec<CellColumn<ExactCells>> {
    fn take(partitions: Partitions) -> Option<Vec<WalkedPartition<Self>>> {
        match partitions {
            Partitions::Exact(partitions) => Some(partitions),
            Partitions::Stats(_) => None,
        }
    }
}

/// The rows of one shard key a draw picked.
#[derive(Debug, Clone)]
pub struct Pick {
    /// The shard key, as the shard's walk numbers its keys.
    pub key: u32,
    /// Positions among the key's rows in row order, ascending.
    pub ordinals: Vec<u32>,
}

/// A shard's answer to a pick.
#[derive(Debug, Clone)]
pub struct Picked {
    /// The picked rows, pick by pick, each pick's rows ascending.
    pub table: Table,
    /// The shard-local id of each picked row.
    pub rows: Vec<u32>,
}

/// A walk's per-partition kernel, bound to the row space it reads.
enum Kernel<'a, 'f> {
    /// The statistics fold over each partition's strata runs.
    Stats(Vec<Vec<BoundExpr<'a>>>),
    /// The exact fold of each key's kept rows.
    Exact {
        aggregates: &'f [AggExpr],
        inputs: Vec<Vec<Option<BoundExpr<'a>>>>,
        filters: Option<Vec<Bitmap>>,
    },
}

impl<'a, 'f> Kernel<'a, 'f> {
    fn bind(rows: &RowSpace<'a>, fold: &'f Fold, options: &ExecOptions) -> Result<Self> {
        Ok(match fold {
            Fold::Stats { columns } => Kernel::Stats(bind_columns(rows, columns)?),
            Fold::Exact { predicate, aggregates } => {
                let inputs: Vec<Option<ScalarExpr>> =
                    aggregates.iter().map(|a| a.input.clone()).collect();
                let filters = match predicate {
                    Some(p) => Some(rows.predicate_bitmaps(p, options)?),
                    None => None,
                };
                Kernel::Exact { aggregates, inputs: rows.bind(&inputs)?, filters }
            }
        })
    }

    /// [`walk_pieces`] with this kernel's fold, its partitions in its form.
    fn walk(
        &self,
        rows: &RowSpace<'_>,
        keys: &RowKeys<'_>,
        pieces: &[(RowRange, Option<usize>)],
        options: &ExecOptions,
    ) -> (OrderedMerge<u64>, Partitions) {
        match self {
            Kernel::Stats(values) => {
                let (merged, partitions) = walk_pieces(rows, keys, pieces, options, |range| {
                    let (local, runs) = partition(keys, &rows.segments(range), range);
                    (local, fold_runs(rows, values, &runs))
                });
                (merged, Partitions::Stats(partitions))
            }
            Kernel::Exact { aggregates, inputs, filters } => {
                // The wire's fold carries no cube flag, so a shard slots every
                // row, as a cube statement's pass does.
                let filter = filters.as_deref().map_or(Filter::Every, Filter::SlotEvery);
                let (merged, partitions) = walk_pieces(rows, keys, pieces, options, |range| {
                    fold_partition(rows, keys, range, aggregates, inputs, filter, |_| 1.0)
                });
                (merged, Partitions::Exact(partitions))
            }
        }
    }
}

/// Walk the `pieces` of `rows` keyed by `keys`, each on its own, `fold`ing
/// those with a global start, and merge their keys in row order: the merge,
/// and per folded piece, in order, the merged key of each slot and the slot
/// states.
fn walk_pieces<S: Send>(
    rows: &RowSpace<'_>,
    keys: &RowKeys<'_>,
    pieces: &[(RowRange, Option<usize>)],
    options: &ExecOptions,
    fold: impl Fn(RowRange) -> (LocalKeys, S) + Sync,
) -> (OrderedMerge<u64>, Vec<WalkedPartition<S>>) {
    let walked = exec::run_indexed(pieces.len(), options, |i| match pieces[i] {
        (range, Some(_)) => {
            let (local, states) = fold(range);
            (local, Some(states))
        }
        (range, None) => (keys.walk(rows, range, None, |_, _, _| {}), None),
    });
    let mut merged = OrderedMerge::default();
    let mut partitions = Vec::new();
    for ((local, states), &(_, whole)) in walked.into_iter().zip(pieces) {
        let slots = merged.push(local.partial());
        if let (Some(start), Some(states)) = (whole, states) {
            partitions.push(WalkedPartition { start: start as u64, slots, states });
        }
    }
    (merged, partitions)
}

/// The global partitions of a `total_rows`-row space that meet the shard
/// rows `first_row..first_row + rows`, in order: each one's shard-local
/// range and, when the shard holds it whole, its global start.
fn pieces(first_row: usize, rows: usize, total_rows: usize) -> Vec<(RowRange, Option<usize>)> {
    let end = first_row + rows;
    let mut pieces = Vec::new();
    let mut at = first_row;
    while at < end {
        let start = at / CHUNK_ROWS * CHUNK_ROWS;
        let stop = (start + CHUNK_ROWS).min(total_rows);
        let piece_end = stop.min(end);
        let whole = (start >= first_row && stop <= end).then_some(start);
        pieces.push((RowRange { start: at - first_row, end: piece_end - first_row }, whole));
        at = piece_end;
    }
    pieces
}

/// Walk `table` — the rows `first_row..` of a `total_rows`-row space — keyed
/// by `exprs`: [`LocalShard`](super::LocalShard)'s answer, and the
/// coordinator's for an in-process shard of a set with another behind a
/// reader. Each partition piece is walked on its own, the whole ones through
/// `fold`'s kernel, and the pieces merge in row order: the keys a walk over
/// all the shard's rows hands out.
pub(crate) fn walk_table(
    table: &Table,
    first_row: usize,
    total_rows: usize,
    exprs: &[ScalarExpr],
    fold: &Fold,
    options: &ExecOptions,
) -> Result<Walked> {
    let n = table.num_rows();
    if first_row.checked_add(n).is_none_or(|end| end > total_rows) {
        return Err(TableError::invalid(format!(
            "a {n}-row shard cannot start at row {first_row} of {total_rows}"
        )));
    }
    check_row_ids("a walked row space", total_rows)?;
    let rows = RowSpace::from(table);
    let keys = RowKeys::encode(&rows, &[table], exprs, options)?;
    let kernel = Kernel::bind(&rows, fold, options)?;
    let (merged, partitions) =
        kernel.walk(&rows, &keys, &pieces(first_row, n, total_rows), options);
    let (packed, sizes) = merged.into_parts();
    let keys = packed.iter().map(|&key| keys.decode(key).into_owned()).collect();
    Ok(Walked { keys, sizes, partitions })
}

/// Answer picks over `table`, keyed by `exprs`: one walk over its rows,
/// counting each key's rows as they pass and keeping those at a pick's
/// ordinals. Refuses a key or an ordinal the table does not have, a key
/// picked twice, and ordinals that do not ascend.
pub(crate) fn pick_table(
    table: &Table,
    exprs: &[ScalarExpr],
    picks: &[Pick],
    options: &ExecOptions,
) -> Result<Picked> {
    let n = table.num_rows();
    // `pick_of[key]`: the pick naming the key. A key id is below the row
    // count, which bounds the table.
    let mut pick_of: Vec<Option<usize>> = Vec::new();
    for (p, pick) in picks.iter().enumerate() {
        let key = pick.key as usize;
        if key >= n {
            return Err(TableError::invalid(format!("a pick of key {key} in a {n}-row shard")));
        }
        if pick_of.len() <= key {
            pick_of.resize(key + 1, None);
        }
        if pick_of[key].replace(p).is_some() {
            return Err(TableError::invalid(format!("key {key} is picked twice")));
        }
        if pick.ordinals.windows(2).any(|w| w[0] >= w[1]) {
            return Err(TableError::invalid(format!("the ordinals of key {key} do not ascend")));
        }
    }
    // `gap[key]`: the key's rows still to pass before its next picked one;
    // `u32::MAX` once it has none left, and for a key not picked.
    let mut gap = vec![u32::MAX; pick_of.len()];
    for pick in picks {
        if let Some(&first) = pick.ordinals.first() {
            gap[pick.key as usize] = first;
        }
    }
    let rows = RowSpace::from(table);
    let keys = RowKeys::encode(&rows, &[table], exprs, options)?;
    let mut picked: Vec<Vec<u32>> =
        picks.iter().map(|p| Vec::with_capacity(p.ordinals.len())).collect();
    keys.walk(&rows, RowRange { start: 0, end: n }, None, |run, slots, _| {
        for (row, &slot) in run.local.rows().zip(slots) {
            let Some(left) = gap.get_mut(slot as usize) else { continue };
            match *left {
                u32::MAX => {}
                0 => {
                    let p = pick_of[slot as usize].expect("a key with a gap is picked");
                    let (got, ordinals) = (&mut picked[p], &picks[p].ordinals);
                    got.push(row as u32);
                    let next = ordinals.get(got.len());
                    *left = next.map_or(u32::MAX, |&next| next - ordinals[got.len() - 1] - 1);
                }
                _ => *left -= 1,
            }
        }
    });
    for (pick, got) in picks.iter().zip(&picked) {
        if let Some(ordinal) = pick.ordinals.get(got.len()) {
            return Err(TableError::invalid(format!(
                "key {} has no row at ordinal {ordinal}",
                pick.key
            )));
        }
    }
    let rows: Vec<u32> = picked.concat();
    let table = table.take(&rows.iter().map(|&row| row as usize).collect::<Vec<_>>());
    Ok(Picked { table, rows })
}

/// One shard's keys after the coordinator's merge.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardKeys {
    /// The merged key — the stratum — of each shard key.
    pub strata: Vec<u32>,
    /// The shard's rows of each of its keys.
    pub sizes: Vec<u64>,
}

/// A walk's answers merged over a row space, its slot states in form `S`.
pub(crate) struct Merged<S> {
    /// Keys over every row, in first-occurrence order.
    pub keys: Vec<Vec<KeyAtom>>,
    /// Rows per key.
    pub sizes: Vec<u64>,
    /// Per shard, in order, its keys after the merge.
    pub shards: Vec<ShardKeys>,
    /// Per global partition, in order: the merged key of each slot, and the
    /// slot states.
    pub partials: Vec<(Vec<u32>, S)>,
}

/// Whether `cells` are the exact fold of `aggregates` for `slots` slots: a
/// column per aggregate holding its kind's cells, a cell per slot. `Err`
/// says what they are instead.
fn check_cells(
    cells: &[CellColumn<ExactCells>],
    aggregates: &[AggExpr],
    slots: usize,
) -> std::result::Result<(), String> {
    if cells.len() != aggregates.len() {
        return Err(format!("{} cell columns for {} aggregates", cells.len(), aggregates.len()));
    }
    for (column, agg) in cells.iter().zip(aggregates) {
        if !column.folds(agg.kind) {
            return Err(format!("cells of another kind for {}", agg.kind.name()));
        }
        if column.len() != slots {
            return Err(format!("{} {} cells for {slots} slots", column.len(), agg.kind.name()));
        }
    }
    Ok(())
}

/// A walk's answer against the request: distinct keys as wide as the
/// dimensions, with sizes summing to the shard's rows; partitions in the
/// form `fold` leaves, one per whole partition the shard holds, in order,
/// each naming listed keys once with `fold`'s states for its slots.
fn check_walked(
    walked: &Walked,
    first_row: usize,
    rows: usize,
    total_rows: usize,
    dims: usize,
    fold: &Fold,
) -> std::result::Result<(), String> {
    let Walked { keys, sizes, partitions } = walked;
    if keys.len() != sizes.len() {
        return Err(format!("{} keys with {} sizes", keys.len(), sizes.len()));
    }
    if let Some(key) = keys.iter().find(|key| key.len() != dims) {
        return Err(format!("key {:?} for {dims} dimensions", key_display(key)));
    }
    let mut listed = FxHashMap::default();
    if let Some(key) = keys.iter().find(|key| listed.insert(key.as_slice(), ()).is_some()) {
        return Err(format!("key {:?} twice", key_display(key)));
    }
    let sum =
        sizes.iter().try_fold(0u64, |sum, &size| (size > 0).then(|| sum.checked_add(size))?);
    if sum != Some(rows as u64) {
        return Err(format!("key sizes {sizes:?} for {rows} rows"));
    }
    let whole: Vec<usize> =
        pieces(first_row, rows, total_rows).into_iter().filter_map(|(_, whole)| whole).collect();
    match (partitions, fold) {
        (Partitions::Stats(partitions), Fold::Stats { columns }) => {
            let width = columns.len();
            check_partitions(partitions, &whole, keys.len(), |states, slots| {
                match slots.checked_mul(width) == Some(states.len()) {
                    true => Ok(()),
                    false => Err(format!("{} states for {slots} slots of {width}", states.len())),
                }
            })
        }
        (Partitions::Exact(partitions), Fold::Exact { aggregates, .. }) => {
            check_partitions(partitions, &whole, keys.len(), |cells, slots| {
                check_cells(cells, aggregates, slots)
            })
        }
        (Partitions::Stats(_), _) => Err("moments for an exact fold".to_string()),
        (Partitions::Exact(_), _) => Err("cell columns for a statistics fold".to_string()),
    }
}

/// [`check_walked`]'s partitions: one per global start in `whole`, each
/// naming keys below `keys` once, with the states `check` accepts for its
/// slots.
fn check_partitions<S>(
    partitions: &[WalkedPartition<S>],
    whole: &[usize],
    keys: usize,
    check: impl Fn(&S, usize) -> std::result::Result<(), String>,
) -> std::result::Result<(), String> {
    if partitions.len() != whole.len() {
        return Err(format!(
            "{} partitions where it holds {} whole",
            partitions.len(),
            whole.len()
        ));
    }
    // `in_partition[key]`: the last partition a slot named the key in.
    let mut in_partition = vec![usize::MAX; keys];
    for (p, (partition, &start)) in partitions.iter().zip(whole).enumerate() {
        if partition.start != start as u64 {
            return Err(format!(
                "a partition at row {} where row {start} starts one",
                partition.start
            ));
        }
        check(&partition.states, partition.slots.len())
            .map_err(|what| format!("{what} at row {start}"))?;
        for &key in &partition.slots {
            match in_partition.get_mut(key as usize) {
                None => return Err(format!("a slot of key {key} of {keys} at row {start}")),
                Some(at) if *at == p => return Err(format!("key {key} twice at row {start}")),
                Some(at) => *at = p,
            }
        }
    }
    Ok(())
}

impl<'a> RowSpace<'a> {
    /// A row space over in-process `tables`, in order.
    fn of_tables(tables: &[&'a Table]) -> RowSpace<'a> {
        let mut offsets = vec![0];
        for table in tables {
            offsets.push(offsets[offsets.len() - 1] + table.num_rows());
        }
        RowSpace { parts: tables.iter().map(|&t| Part::Local(t)).collect(), offsets }
    }

    /// Bind `exprs` and what `fold` reads against an empty table of the
    /// schema: a missing column or a mistyped input is refused as it is in
    /// process, before any request goes out.
    pub(crate) fn check_binds(&self, exprs: &[ScalarExpr], fold: &Fold) -> Result<()> {
        let empty = TableBuilder::from_schema(self.schema().clone()).finish();
        let rows = RowSpace::from(&empty);
        let sequential = ExecOptions::sequential();
        RowKeys::encode(&rows, &[&empty], exprs, &sequential)?;
        Kernel::bind(&rows, fold, &sequential).map(drop)
    }

    /// Walk every shard keyed by `exprs` under `fold` — all in flight at
    /// once — and merge the answers: keys in shard order, partials in
    /// partition order, a partition that straddles a shard boundary folded
    /// here. An in-process shard answers in place; an empty one is not
    /// asked.
    pub(crate) fn walk<S: Form>(
        &self,
        exprs: &[ScalarExpr],
        fold: &Fold,
        options: &ExecOptions,
    ) -> Result<Merged<S>> {
        let total = self.num_rows();
        let answers = self.scatter(options, |s, part, within| {
            let (first, rows) = (self.offsets[s], self.offsets[s + 1] - self.offsets[s]);
            let Walked { keys, sizes, partitions } = match part {
                _ if rows == 0 => return Ok((Vec::new(), Vec::new(), Vec::new())),
                Part::Local(table) => walk_table(table, first, total, exprs, fold, within)?,
                Part::Remote(reader) => {
                    let walked = reader.walk(first, total, exprs, fold)?;
                    check_walked(&walked, first, rows, total, exprs.len(), fold).map_err(
                        |what| Self::bad_answer(s, reader, format!("a walk with {what}")),
                    )?;
                    walked
                }
            };
            let partitions = S::take(partitions).expect("checked: a walk in its fold's form");
            Ok((keys, sizes, partitions))
        })?;
        let mut merge = OrderedMerge::<Vec<KeyAtom>>::default();
        let mut shards = Vec::with_capacity(answers.len());
        let mut held = Vec::with_capacity(answers.len());
        for (keys, sizes, partitions) in answers {
            let strata = merge.push(keys.into_iter().zip(sizes.iter().copied()));
            shards.push(ShardKeys { strata, sizes });
            held.push(partitions.into_iter());
        }
        let mut straddling = self.fold_straddling(exprs, fold, &merge, options)?.into_iter();
        let partials = partition_rows(total).into_iter().filter(|range| !range.is_empty());
        let partials = partials
            .map(|range| match self.segments(range).as_slice() {
                [whole] => {
                    let partial =
                        held[whole.shard].next().expect("checked: a partial per partition");
                    let strata = &shards[whole.shard].strata;
                    (
                        partial.slots.iter().map(|&key| strata[key as usize]).collect(),
                        partial.states,
                    )
                }
                _ => straddling.next().expect("a fold per straddling partition"),
            })
            .collect();
        let (keys, sizes) = merge.into_parts();
        Ok(Merged { keys, sizes, shards, partials })
    }

    /// Fold every partition that straddles a shard boundary, in partition
    /// order: each fragment's rows come back through `take_rows` (an
    /// in-process shard's are copied), and the walk's kernel runs over them
    /// as one partition, its keys translated through `merge`. A fragment
    /// row whose key no shard listed is refused.
    fn fold_straddling<S: Form>(
        &self,
        exprs: &[ScalarExpr],
        fold: &Fold,
        merge: &OrderedMerge<Vec<KeyAtom>>,
        options: &ExecOptions,
    ) -> Result<Vec<(Vec<u32>, S)>> {
        let straddling: Vec<Vec<ShardSegment>> = partition_rows(self.num_rows())
            .into_iter()
            .map(|range| self.segments(range))
            .filter(|segments| segments.len() > 1)
            .collect();
        let fragments: Vec<ShardSegment> = straddling.iter().flatten().copied().collect();
        let tables = exec::run_indexed(fragments.len(), options, |i| {
            let ShardSegment { shard, local, .. } = fragments[i];
            match self.parts[shard] {
                Part::Local(table) => Ok(table.take(&local.rows().collect::<Vec<_>>())),
                Part::Remote(reader) => {
                    let rows: Vec<u32> = local.rows().map(|row| row as u32).collect();
                    self.take_rows(shard, reader, &rows)
                }
            }
        });
        let tables: Vec<Table> = tables.into_iter().collect::<Result<_>>()?;
        let mut tables = tables.iter();
        let sequential = ExecOptions::sequential();
        let fold_one = |segments: &Vec<ShardSegment>| {
            let parts: Vec<&Table> = tables.by_ref().take(segments.len()).collect();
            let rows = RowSpace::of_tables(&parts);
            let keys = RowKeys::encode(&rows, &parts, exprs, &sequential)?;
            // One piece, folded whole; its start is not read.
            let whole = [(RowRange { start: 0, end: rows.num_rows() }, Some(0))];
            let kernel = Kernel::bind(&rows, fold, &sequential)?;
            let (local, partitions) = kernel.walk(&rows, &keys, &whole, &sequential);
            let partition = S::take(partitions).and_then(|mut partitions| partitions.pop());
            let partition = partition.expect("a fold of the whole range in the fold's form");
            let strata = local.keys().iter().map(|&packed| {
                let key = keys.decode(packed);
                merge.id_of(key.as_ref()).ok_or_else(|| {
                    let shards: Vec<usize> = segments.iter().map(|seg| seg.shard).collect();
                    TableError::invalid(format!(
                        "shards {shards:?} returned rows from {} whose key {:?} none of them listed",
                        segments[0].global_start,
                        key_display(&key)
                    ))
                })
            });
            let strata: Vec<u32> = strata.collect::<Result<_>>()?;
            let slots = partition.slots.iter().map(|&slot| strata[slot as usize]).collect();
            Ok((slots, partition.states))
        };
        straddling.iter().map(fold_one).collect()
    }

    /// Each stratum `c`'s rows at `ordinals[c]`, in global row ids, and
    /// those rows copied stratum-major into one table: the ordinals split
    /// across the shards holding the stratum by their row counts in
    /// `shards` (in shard order, which is row order), and one pick asked of
    /// every shard that holds a picked row — all in flight at once. The
    /// picked tables are the gather: no further request is made.
    pub(crate) fn pick(
        &self,
        exprs: &[ScalarExpr],
        keys: &[Vec<KeyAtom>],
        shards: &[ShardKeys],
        ordinals: &[Vec<u32>],
        options: &ExecOptions,
    ) -> Result<(Vec<Vec<u32>>, Table)> {
        // Per stratum, the shards holding its rows: (shard, shard key, rows).
        let mut holders: Vec<Vec<(usize, u32, u64)>> = vec![Vec::new(); keys.len()];
        for (s, shard) in shards.iter().enumerate() {
            for (key, (&c, &size)) in (0u32..).zip(shard.strata.iter().zip(&shard.sizes)) {
                holders[c as usize].push((s, key, size));
            }
        }
        let mut requests: Vec<Vec<Pick>> = vec![Vec::new(); shards.len()];
        // Stratum-major: (stratum, shard, rows picked there).
        let mut layout: Vec<(usize, usize, usize)> = Vec::new();
        for (c, ordinals) in ordinals.iter().enumerate() {
            let (mut rest, mut first) = (ordinals.as_slice(), 0u64);
            for &(s, key, size) in &holders[c] {
                let mine = rest.partition_point(|&o| u64::from(o) < first + size);
                if mine > 0 {
                    let picked = rest[..mine].iter().map(|&o| (u64::from(o) - first) as u32);
                    requests[s].push(Pick { key, ordinals: picked.collect() });
                    layout.push((c, s, mine));
                }
                (rest, first) = (&rest[mine..], first + size);
            }
            assert!(rest.is_empty(), "an ordinal past stratum {c}'s {first} rows");
        }
        let answers = self.scatter(options, |s, part, within| {
            let picks = &requests[s];
            match part {
                _ if picks.is_empty() => Ok(None),
                Part::Local(table) => pick_table(table, exprs, picks, within).map(Some),
                Part::Remote(reader) => {
                    let picked = reader.pick(exprs, picks)?;
                    let strata = layout.iter().filter(|&&(_, at, _)| at == s);
                    let keys = strata.map(|&(c, _, _)| keys[c].as_slice()).collect::<Vec<_>>();
                    let rows = self.offsets[s + 1] - self.offsets[s];
                    self.check_picked(&picked, picks, &keys, rows, exprs).map_err(|what| {
                        Self::bad_answer(s, reader, format!("a pick with {what}"))
                    })?;
                    Ok(Some(picked))
                }
            }
        })?;

        let unread = TableBuilder::from_schema(self.schema().clone()).finish();
        let tables: Vec<&Table> =
            answers.iter().map(|picked| picked.as_ref().map_or(&unread, |p| &p.table)).collect();
        let mut next = vec![0usize; shards.len()];
        let mut source: Vec<(usize, usize)> = Vec::new();
        let mut rows_per_stratum: Vec<Vec<u32>> =
            ordinals.iter().map(|o| Vec::with_capacity(o.len())).collect();
        for &(c, s, count) in &layout {
            let picked = answers[s].as_ref().expect("a shard asked for rows answered");
            for at in next[s]..next[s] + count {
                source.push((s, at));
                rows_per_stratum[c].push((self.offsets[s] + picked.rows[at] as usize) as u32);
            }
            next[s] += count;
        }
        let table = Table::gather(self.schema(), &tables, source.len(), |i| source[i])?;
        Ok((rows_per_stratum, table))
    }

    /// A pick's answer against the `picks` asked of a `rows`-row shard, the
    /// stratum of each pick keyed `keys`: one row per ordinal under the
    /// set's schema, each a row of the shard, ascending within its pick, and
    /// keyed — evaluated on the returned rows — by its stratum's key.
    fn check_picked(
        &self,
        picked: &Picked,
        picks: &[Pick],
        keys: &[&[KeyAtom]],
        rows: usize,
        exprs: &[ScalarExpr],
    ) -> std::result::Result<(), String> {
        let wanted: usize = picks.iter().map(|pick| pick.ordinals.len()).sum();
        let (table, ids) = (&picked.table, &picked.rows);
        if table.num_rows() != wanted || ids.len() != wanted {
            return Err(format!("{} rows and {} ids for {wanted}", table.num_rows(), ids.len()));
        }
        if table.schema() != self.schema() {
            return Err(format!("rows of schema {:?}", table.schema()));
        }
        let mut at = 0;
        for pick in picks {
            let block = &ids[at..at + pick.ordinals.len()];
            if let Some(&row) = block.iter().find(|&&row| row as usize >= rows) {
                return Err(format!("row {row} of a {rows}-row shard"));
            }
            if let Some(w) = block.windows(2).find(|w| w[0] >= w[1]) {
                return Err(format!(
                    "rows {} and {} out of order for key {}",
                    w[0], w[1], pick.key
                ));
            }
            at += pick.ordinals.len();
        }
        let space = RowSpace::from(table);
        let sequential = ExecOptions::sequential();
        let encoded = RowKeys::encode(&space, &[table], exprs, &sequential)
            .map_err(|e| format!("rows whose keys do not evaluate: {e}"))?;
        let mut slots = Vec::with_capacity(wanted);
        let local = encoded.walk(&space, RowRange { start: 0, end: wanted }, None, |_, run, _| {
            slots.extend_from_slice(run);
        });
        let found: Vec<Cow<[KeyAtom]>> = local.keys().iter().map(|&k| encoded.decode(k)).collect();
        let stratum_of_row = picks
            .iter()
            .zip(keys)
            .flat_map(|(pick, &key)| std::iter::repeat_n(key, pick.ordinals.len()));
        for ((row, &slot), want) in ids.iter().zip(&slots).zip(stratum_of_row) {
            let got = found[slot as usize].as_ref();
            if got != want {
                let (got, want) = (key_display(got), key_display(want));
                return Err(format!("row {row} keyed {got:?}, not its stratum's {want:?}"));
            }
        }
        Ok(())
    }
}
