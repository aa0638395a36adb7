//! The strata pass: the one bucketing of a row space by stratum, which the
//! statistics fold and the stratified draw both read.
//!
//! For each global [`CHUNK_ROWS`](crate::exec::CHUNK_ROWS)-row partition the
//! walk gives every row a partition-local slot, and the partition's rows are
//! then counting-sorted by slot into [`Runs`] of global `u32` row ids, each
//! run in row order. Keyed by ids that are dense already — a group index's,
//! or the stratum ids a maintained sample keeps for the rows an append
//! dirties ([`Runs::by_id`]) — the rows counting-sort by id directly, with
//! no walk. The statistics kernel ([`fold_runs`]) consumes the runs while
//! they are still cache-resident, and only its partial, the runs and the
//! partition's translation table outlive the partition.
//! Partition keys merge in partition order through the ordered merge, so
//! strata take ids in first-occurrence order — the ids [`GroupIndex`]
//! assigns — and a stratum's rows are the chain of its runs in partition
//! order: its rows ascending, exactly as one sequential stable counting sort
//! over the row space lists them, for any shard layout and thread count.
//!
//! A draw picks each stratum's rows by *ordinal* — its position among the
//! stratum's rows, ascending — and [`Strata::pick`] resolves them where the
//! rows live: against the chains in process, and behind readers through one
//! pick request per shard, split by the shard-level stratum sizes the pass's
//! walks answered (see [`crate::reader`]'s plan pushdown).

use crate::agg::AggState;
use crate::error::check_row_ids;
use crate::exec::{self, ExecOptions, RowRange};
use crate::expr::{BoundExpr, ScalarExpr};
use crate::reader::{Fold, RowSpace, ShardKeys};
use crate::shard::ShardSegment;
use crate::table::Table;
use crate::Result;

use super::{GroupIndex, GroupProjection, KeyAtom, LocalKeys, OrderedMerge, RowKeys};

/// One partition's rows counting-sorted by slot: [`Runs::slot`]`(s)` lists
/// the global ids of the rows whose key took slot `s`, ascending. Slots are
/// the partition's distinct keys, so no run is empty.
#[derive(Debug)]
pub struct Runs {
    range: RowRange,
    /// Slot `s`'s run is `rows[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl Runs {
    /// The partition's global row range.
    pub fn range(&self) -> RowRange {
        self.range
    }

    /// Number of slots: the distinct keys of the partition.
    pub fn num_slots(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Slot `slot`'s global row ids, ascending.
    pub fn slot(&self, slot: usize) -> &[u32] {
        &self.rows[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// The rows from `first_row` on, one per entry of `ids` — their ids,
    /// each below `num_ids` — as a strata pass keyed by those ids partitions
    /// them: the id of each slot, ascending, and the runs. How a maintained
    /// sample re-buckets only the partitions an append dirtied. Refuses rows
    /// whose ids do not fit `u32`.
    pub fn by_id(first_row: usize, ids: &[u32], num_ids: usize) -> Result<(Vec<u32>, Runs)> {
        let range = RowRange { start: first_row, end: first_row + ids.len() };
        check_row_ids("a stratified row space", range.end)?;
        Ok(id_partition(ids, num_ids, range))
    }
}

/// The scatter of a stable counting sort: row `r` of `range` goes to
/// `cursor[key]` for its key `keys[r - range.start]`, which then advances.
fn scatter(range: RowRange, keys: &[u32], cursor: &mut [u32]) -> Vec<u32> {
    let mut rows = vec![0u32; keys.len()];
    for (row, &key) in range.rows().zip(keys) {
        let at = &mut cursor[key as usize];
        rows[*at as usize] = row as u32;
        *at += 1;
    }
    rows
}

/// The partition kernel over packed keys: walk `segments` — the rows of
/// `range` — and counting-sort the rows by the slots the walk handed out, in
/// first-occurrence order.
pub(crate) fn partition(
    keys: &RowKeys,
    segments: &[ShardSegment],
    range: RowRange,
) -> (LocalKeys, Runs) {
    let mut slots = Vec::with_capacity(range.len());
    let local = keys.walk_segments(segments, |_, run, _| slots.extend_from_slice(run));
    let mut offsets = Vec::with_capacity(local.sizes.len() + 1);
    let mut end = 0u32;
    offsets.push(end);
    for &size in &local.sizes {
        end += size as u32;
        offsets.push(end);
    }
    let mut cursor = offsets[..local.sizes.len()].to_vec();
    let rows = scatter(range, &slots, &mut cursor);
    (local, Runs { range, offsets, rows })
}

/// The partition kernel over dense ids — `ids` of the rows of `range`, each
/// below `num_ids`: the rows counting-sort by id directly, and the ids
/// present, ascending, are the slots — returned as the stratum of each slot.
fn id_partition(ids: &[u32], num_ids: usize, range: RowRange) -> (Vec<u32>, Runs) {
    // Counts per id, then where each present id's run starts.
    let mut cursor = vec![0u32; num_ids];
    for &id in ids {
        cursor[id as usize] += 1;
    }
    let (mut strata, mut offsets, mut end) = (Vec::new(), vec![0u32], 0u32);
    for (id, at) in (0u32..).zip(cursor.iter_mut()) {
        if *at > 0 {
            strata.push(id);
            (*at, end) = (end, end + *at);
            offsets.push(end);
        }
    }
    let rows = scatter(range, ids, &mut cursor);
    (strata, Runs { range, offsets, rows })
}

/// Bind the aggregation `columns` against every shard of `rows`
/// (`bound[shard][column]`), in place: what [`fold_runs`] reads. Every shard
/// must be in-process.
pub fn bind_columns<'a>(
    rows: &RowSpace<'a>,
    columns: &[ScalarExpr],
) -> Result<Vec<Vec<BoundExpr<'a>>>> {
    let exprs: Vec<Option<ScalarExpr>> = columns.iter().cloned().map(Some).collect();
    let bound = rows.bind(&exprs)?;
    Ok(bound.into_iter().map(|shard| shard.into_iter().flatten().collect()).collect())
}

/// The statistics kernel, a strata pass's fold: gather each slot's run of
/// values densely and push it through the lane-merge slice kernel
/// ([`AggState::update_slice`]), into `states[slot * columns + column]`.
/// Each run holds its stratum's rows of the partition in row order, so the
/// lane schedule is a function of the partition's values alone, never of
/// where shard boundaries fall. `bound` is [`bind_columns`] over `rows`.
pub fn fold_runs(rows: &RowSpace<'_>, bound: &[Vec<BoundExpr<'_>>], runs: &Runs) -> Vec<AggState> {
    let width = bound.first().map_or(0, Vec::len);
    let mut states = vec![AggState::default(); runs.num_slots() * width];
    let range = runs.range();
    if range.is_empty() || width == 0 {
        return states;
    }
    // A partition inside one shard — every partition of a plain table —
    // reads that shard's storage in place (`Float64` identity columns
    // straight from the column slice); its row `r` is the shard's
    // `r - delta`. One that straddles a shard boundary first lays its
    // values out in row order across the segments.
    let segments = rows.segments(range);
    let first = segments[0];
    let delta = first.global_start - first.local.start;
    let exprs = &bound[first.shard];
    let dense: Vec<Option<&[f64]>> = exprs.iter().map(|e| e.f64_slice()).collect();
    let straddling: Vec<Vec<Option<f64>>> = match segments.len() {
        1 => Vec::new(),
        _ => (0..width)
            .map(|c| {
                let values = segments.iter().flat_map(|seg| {
                    let expr = &bound[seg.shard][c];
                    seg.local.rows().map(move |r| expr.f64_at(r))
                });
                values.collect()
            })
            .collect(),
    };

    let mut buf: Vec<f64> = Vec::new();
    for slot in 0..runs.num_slots() {
        let run = runs.slot(slot).iter().map(|&r| r as usize);
        for (c, state) in states[slot * width..(slot + 1) * width].iter_mut().enumerate() {
            buf.clear();
            match (straddling.get(c), dense[c]) {
                (Some(values), _) => {
                    buf.extend(run.clone().filter_map(|r| values[r - range.start]))
                }
                (None, Some(values)) => buf.extend(run.clone().map(|r| values[r - delta])),
                (None, None) => buf.extend(run.clone().filter_map(|r| exprs[c].f64_at(r - delta))),
            }
            state.update_slice(&buf);
        }
    }
    states
}

/// The pass over `n` rows. Every partition goes through `partition`, then
/// `fold`; in partition order, `translate` names the stratum of each slot,
/// and `merge` receives that table with the fold's partial. Refuses a row
/// space whose row ids do not fit `u32` before touching a row.
fn pass<P: Send, T: Send>(
    n: usize,
    options: &ExecOptions,
    partition: impl Fn(RowRange) -> (P, Runs) + Sync,
    fold: impl Fn(&Runs) -> T + Sync,
    mut translate: impl FnMut(P) -> Vec<u32>,
    mut merge: impl FnMut(&[u32], T),
) -> Result<Vec<(Runs, Vec<u32>)>> {
    check_row_ids("a stratified row space", n)?;
    let map = |_, range| {
        let (slots, runs) = partition(range);
        let partial = fold(&runs);
        (slots, runs, partial)
    };
    Ok(exec::fold_partitioned(n, options, Vec::new(), map, |partitions, (slots, runs, partial)| {
        let strata = translate(slots);
        merge(&strata, partial);
        partitions.push((runs, strata));
    }))
}

/// A row space bucketed by stratum: the strata in first-occurrence order,
/// their keys and sizes, and where each stratum's rows are — a chain of
/// per-partition runs in process, or the shards behind readers that hold
/// them.
#[derive(Debug)]
pub struct Strata {
    dim_names: Vec<String>,
    keys: Vec<Vec<KeyAtom>>,
    sizes: Vec<u64>,
    rows: StrataRows,
}

/// Where a pass's strata find their rows.
#[derive(Debug)]
enum StrataRows {
    /// In process: per partition, in order, its runs; stratum `c`'s runs are
    /// `links[starts[c]..starts[c + 1]]`, as `(partition, slot)` pairs in
    /// partition order.
    Runs { partitions: Vec<Runs>, starts: Vec<usize>, links: Vec<(u32, u32)> },
    /// Behind readers: the stratification, and per shard the stratum of
    /// each of its keys with the key's rows there.
    Shards { exprs: Vec<ScalarExpr>, shards: Vec<ShardKeys> },
}

impl Strata {
    /// Bucket `rows` by `exprs`, keyed as the exact executor keys them, and
    /// fold the statistics kernel ([`fold_runs`]) of `columns` over every
    /// partition. When every shard is in-process the pass keys rows by
    /// packed dimension codes — no per-row group id is written — and keeps
    /// each partition's runs. When a shard is behind a reader it is one
    /// walk per shard (the plan pushdown of [`crate::reader`]): every shard
    /// folds the partitions it holds whole, and the strata keep only which
    /// shard holds how many of their rows.
    ///
    /// `bound` runs once the keys and the columns bind — in process — or
    /// once they bind against the schema, before the first walk goes out:
    /// in either case before any row is read, so a grouping or binding
    /// error is reported before it. `merge` then receives, in partition
    /// order, the stratum of each of the partition's slots and the slot
    /// states (`columns.len()` per slot).
    ///
    /// With no dimensions every row is in the one stratum with the empty
    /// key — which exists even over no rows, as in a group index.
    pub fn collect(
        rows: &RowSpace<'_>,
        exprs: &[ScalarExpr],
        columns: &[ScalarExpr],
        options: &ExecOptions,
        bound: impl FnOnce(),
        mut merge: impl FnMut(&[u32], Vec<AggState>),
    ) -> Result<Strata> {
        let dim_names = exprs.iter().map(ScalarExpr::display_name).collect();
        let Some(tables) = rows.local_tables() else {
            let fold = Fold::Stats { columns: columns.to_vec() };
            rows.check_binds(exprs, &fold)?;
            bound();
            let walked = rows.walk(exprs, &fold, options)?;
            for (strata, states) in walked.partials {
                merge(&strata, states);
            }
            let (keys, sizes) = with_empty_key(exprs, walked.keys, walked.sizes);
            let shards = StrataRows::Shards { exprs: exprs.to_vec(), shards: walked.shards };
            return Ok(Strata { dim_names, keys, sizes, rows: shards });
        };
        let keys = RowKeys::encode(rows, &tables, exprs, options)?;
        let values = bind_columns(rows, columns)?;
        bound();
        let mut merged = OrderedMerge::default();
        let partitions = pass(
            rows.num_rows(),
            options,
            |range| partition(&keys, &rows.segments(range), range),
            |runs| fold_runs(rows, &values, runs),
            |local: LocalKeys| merged.push(local.partial()),
            merge,
        )?;
        let (packed, sizes) = merged.into_parts();
        let strata_keys = packed.iter().map(|&key| keys.decode(key).into_owned()).collect();
        let (strata_keys, sizes) = with_empty_key(exprs, strata_keys, sizes);
        Ok(Strata::link(dim_names, strata_keys, sizes, partitions))
    }

    /// Bucket the rows of `index` by its ids, folding each partition's runs
    /// with `fold`: the in-process strata pass keyed by a group index
    /// already in hand. The strata are the index's groups.
    pub fn of_index<T: Send>(
        index: &GroupIndex,
        options: &ExecOptions,
        fold: impl Fn(&Runs) -> T + Sync,
        merge: impl FnMut(&[u32], T),
    ) -> Result<Strata> {
        let partitions = pass(
            index.num_rows(),
            options,
            |range| id_partition(&index.row_groups[range.rows()], index.num_groups(), range),
            fold,
            |strata| strata,
            merge,
        )?;
        let (names, keys, sizes) =
            (index.dim_names.clone(), index.group_keys.clone(), index.group_sizes.clone());
        Ok(Strata::link(names, keys, sizes, partitions))
    }

    /// Chain every stratum's runs — a counting sort of the partitions'
    /// slots by stratum, partition order kept — and drop the translation
    /// tables, which the chains replace.
    fn link(
        dim_names: Vec<String>,
        keys: Vec<Vec<KeyAtom>>,
        sizes: Vec<u64>,
        partitions: Vec<(Runs, Vec<u32>)>,
    ) -> Strata {
        let mut starts = vec![0usize; keys.len() + 1];
        for (_, strata) in &partitions {
            for &c in strata {
                starts[c as usize + 1] += 1;
            }
        }
        for c in 0..keys.len() {
            starts[c + 1] += starts[c];
        }
        let mut cursor = starts.clone();
        let mut links = vec![(0, 0); starts[keys.len()]];
        for (p, (_, strata)) in partitions.iter().enumerate() {
            for (slot, &c) in strata.iter().enumerate() {
                links[cursor[c as usize]] = (p as u32, slot as u32);
                cursor[c as usize] += 1;
            }
        }
        let partitions = partitions.into_iter().map(|(runs, _)| runs).collect();
        Strata { dim_names, keys, sizes, rows: StrataRows::Runs { partitions, starts, links } }
    }

    /// Number of strata.
    pub fn num_strata(&self) -> usize {
        self.keys.len()
    }

    /// Stratum keys, by stratum id.
    pub fn keys(&self) -> &[Vec<KeyAtom>] {
        &self.keys
    }

    /// Rows per stratum.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Project the strata onto a subset of dimensions, as
    /// [`GroupIndex::project`] does.
    pub fn project(&self, dims: &[usize]) -> GroupProjection<'_> {
        GroupProjection::of(&self.dim_names, &self.keys, dims)
    }

    /// Whether the strata hold their rows as chains of runs in process;
    /// `false` when the pass walked shards behind readers.
    pub fn in_process(&self) -> bool {
        matches!(self.rows, StrataRows::Runs { .. })
    }

    /// Stratum `stratum`'s rows, ascending, as its runs in partition order.
    /// Panics unless the strata are [in process](Strata::in_process).
    pub fn rows(&self, stratum: usize) -> impl Iterator<Item = &[u32]> + '_ {
        let StrataRows::Runs { partitions, starts, links } = &self.rows else {
            panic!("strata collected behind readers hold no rows in process");
        };
        let links = &links[starts[stratum]..starts[stratum + 1]];
        links.iter().map(|&(p, slot)| partitions[p as usize].slot(slot as usize))
    }

    /// The rows of each stratum `c` at `ordinals[c]` — positions among its
    /// rows, ascending — resolved against the chains, strata in parallel:
    /// the rows ascending too, since ordinals map monotonically onto a
    /// stratum's ascending rows. Panics unless the strata are
    /// [in process](Strata::in_process), or on an ordinal past its
    /// stratum's rows.
    pub fn resolve(&self, ordinals: &[Vec<u32>], options: &ExecOptions) -> Vec<Vec<u32>> {
        assert_eq!(ordinals.len(), self.num_strata(), "ordinals must cover every stratum");
        exec::run_indexed(ordinals.len(), options, |c| {
            let mut picked = Vec::with_capacity(ordinals[c].len());
            let mut wanted = ordinals[c].iter().map(|&o| o as usize).peekable();
            let mut first = 0;
            for run in self.rows(c) {
                while let Some(o) = wanted.next_if(|&o| o < first + run.len()) {
                    picked.push(run[o - first]);
                }
                first += run.len();
            }
            assert!(wanted.peek().is_none(), "an ordinal past stratum {c}'s {first} rows");
            picked
        })
    }

    /// The rows of each stratum `c` at `ordinals[c]` (see
    /// [`Strata::resolve`]) in global row ids, and those rows of `rows` —
    /// the row space this pass bucketed — copied stratum-major into one
    /// table, identical to [`RowSpace::gather`] of them. In process that is
    /// what it says; behind readers every shard that holds a picked row
    /// answers one pick request, and the picked rows it returns are the
    /// gather.
    pub fn pick(
        &self,
        rows: &RowSpace<'_>,
        ordinals: &[Vec<u32>],
        options: &ExecOptions,
    ) -> Result<(Vec<Vec<u32>>, Table)> {
        match &self.rows {
            StrataRows::Runs { .. } => {
                let picked = self.resolve(ordinals, options);
                let all: Vec<usize> = picked.iter().flatten().map(|&row| row as usize).collect();
                let table = rows.gather(&all)?;
                Ok((picked, table))
            }
            StrataRows::Shards { exprs, shards } => {
                rows.pick(exprs, &self.keys, shards, ordinals, options)
            }
        }
    }
}

/// The strata of no dimensions are the one stratum with the empty key, even
/// over no rows.
fn with_empty_key(
    exprs: &[ScalarExpr],
    mut keys: Vec<Vec<KeyAtom>>,
    mut sizes: Vec<u64>,
) -> (Vec<Vec<KeyAtom>>, Vec<u64>) {
    if exprs.is_empty() && keys.is_empty() {
        keys.push(Vec::new());
        sizes.push(0);
    }
    (keys, sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TableError;
    use crate::exec::CHUNK_ROWS;
    use crate::table::{Table, TableBuilder};
    use crate::types::{DataType, Value};

    /// Deterministic pseudo-random stratum per row.
    fn assignment(n: usize, num_strata: usize, seed: u64) -> Vec<i64> {
        let mut state = seed;
        (0..n)
            .map(|row| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(row as u64 | 1)
                    .rotate_left(17);
                (state % num_strata as u64) as i64
            })
            .collect()
    }

    fn table_of(strata: &[i64]) -> Table {
        let mut b = TableBuilder::new(&[("g", DataType::Int64)]);
        for &g in strata {
            b.push_row(&[Value::Int64(g)]).unwrap();
        }
        b.finish()
    }

    /// The chains of `strata` against the reference: stratum `c`'s rows are
    /// the rows `index` puts in group `c`, ascending.
    fn assert_chains(strata: &Strata, index: &GroupIndex, what: &str) {
        assert_eq!(strata.keys(), index.group_keys.as_slice(), "{what}");
        assert_eq!(strata.sizes(), index.sizes(), "{what}");
        let mut want = vec![Vec::new(); index.num_groups()];
        for (row, &g) in index.row_groups().iter().enumerate() {
            want[g as usize].push(row as u32);
        }
        for (c, want) in want.iter().enumerate() {
            assert_eq!(
                &strata.rows(c).flatten().copied().collect::<Vec<_>>(),
                want,
                "{what}: stratum {c}"
            );
        }
    }

    /// Both entries — packed codes and an index's ids — at every thread
    /// count, against the index.
    fn check(t: &Table, exprs: &[ScalarExpr], what: &str) {
        let index = GroupIndex::build_with(t, exprs, &ExecOptions::sequential()).unwrap();
        for threads in [1usize, 2, 8] {
            let options = ExecOptions::new(threads);
            let encoded = Strata::collect(&t.into(), exprs, &[], &options, || {}, |_, _| {});
            assert_chains(&encoded.unwrap(), &index, &format!("{what}, threads {threads}"));
            let by_ids = Strata::of_index(&index, &options, |_| (), |_, ()| ()).unwrap();
            assert_chains(&by_ids, &index, &format!("{what}, ids, threads {threads}"));
        }
    }

    /// A key bound above the partition's rows takes the hashed slot table;
    /// the chains are the same.
    #[test]
    fn runs_match_counting_sort_with_hashed_slots() {
        let n = CHUNK_ROWS + 999;
        let mut b = TableBuilder::new(&[("a", DataType::Int64), ("b", DataType::Int64)]);
        for (a, b2) in assignment(n, 300, 3).into_iter().zip(assignment(n, 301, 4)) {
            b.push_row(&[Value::Int64(a), Value::Int64(b2)]).unwrap();
        }
        let t = b.finish();
        let exprs = [ScalarExpr::col("a"), ScalarExpr::col("b")];
        let rows = RowSpace::from(&t);
        let keys = RowKeys::encode(&rows, &[&t], &exprs, &ExecOptions::sequential()).unwrap();
        assert!(keys.bound > CHUNK_ROWS as u64);
        check(&t, &exprs, "hashed");
    }

    /// A stratum present in one partition only has one run; the empty
    /// grouping has one stratum, over no rows too.
    #[test]
    fn strata_absent_from_a_partition_have_no_run_there() {
        let mut strata = assignment(2 * CHUNK_ROWS + 5, 3, 9);
        strata[CHUNK_ROWS + 10] = 99;
        let t = table_of(&strata);
        check(&t, &[ScalarExpr::col("g")], "one partition");
        let index = GroupIndex::build(&t, &[ScalarExpr::col("g")]).unwrap();
        let pass = Strata::of_index(&index, &ExecOptions::new(2), |_| (), |_, ()| ()).unwrap();
        let lone = pass.keys().iter().position(|k| k == &[KeyAtom::Int(99)]).unwrap();
        assert_eq!(pass.rows(lone).collect::<Vec<_>>(), [&[(CHUNK_ROWS + 10) as u32][..]]);
        for n in [0, 5] {
            check(&table_of(&assignment(n, 2, 1)), &[], &format!("no dimensions, {n} rows"));
        }
    }

    /// The fold sees each partition's runs, and `merge` receives its partial
    /// with the strata of its slots, in partition order.
    #[test]
    fn merge_sees_partitions_in_order() {
        let t = table_of(&assignment(3 * CHUNK_ROWS + 17, 5, 42));
        let index = GroupIndex::build(&t, &[ScalarExpr::col("g")]).unwrap();
        for threads in [1usize, 4] {
            let mut seen = Vec::new();
            let fold = |runs: &Runs| (runs.range().start, runs.num_slots());
            let strata = Strata::of_index(&index, &ExecOptions::new(threads), fold, |ids, got| {
                assert_eq!(ids.len(), got.1);
                seen.push(got.0);
            })
            .unwrap();
            assert_eq!(seen, [0, CHUNK_ROWS, 2 * CHUNK_ROWS, 3 * CHUNK_ROWS]);
            for c in 0..strata.num_strata() {
                let rows: Vec<u32> = strata.rows(c).flatten().copied().collect();
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "stratum {c} not in row order");
            }
        }
        // A range inside the rows re-bucketed alone from its ids: its slots
        // name those ids, ascending.
        let ids = &index.row_groups()[10..20];
        let (strata, runs) = Runs::by_id(10, ids, index.num_groups()).unwrap();
        assert_eq!(runs.range(), RowRange { start: 10, end: 20 });
        assert_eq!(strata.len(), runs.num_slots());
        assert!(strata.windows(2).all(|w| w[0] < w[1]));
        let mut listed = 0;
        for (slot, &c) in strata.iter().enumerate() {
            assert!(runs.slot(slot).iter().all(|&row| index.group_of(row as usize) == c));
            listed += runs.slot(slot).len();
        }
        assert_eq!(listed, 10);
    }

    /// Row ids are `u32`: a row space they cannot address is refused before
    /// any partition is walked.
    #[test]
    fn row_ids_that_do_not_fit_u32_are_refused() {
        let unwalked = |_| -> (Vec<u32>, Runs) { unreachable!("refused before walking") };
        for n in [u32::MAX as usize + 1, usize::MAX] {
            let options = ExecOptions::new(2);
            let err = pass(n, &options, unwalked, |_| (), |s| s, |_, ()| ()).unwrap_err();
            assert_eq!(err, TableError::RowIdOverflow { what: "a stratified row space", rows: n });
        }
        // The id-keyed kernel refuses a row past `u32::MAX`, and takes the
        // last row that fits.
        let last = Runs::by_id(u32::MAX as usize - 1, &[0], 1).unwrap();
        assert_eq!(last.1.slot(0), [u32::MAX - 1]);
        let far = Runs::by_id(u32::MAX as usize, &[0], 1).unwrap_err();
        let rows = u32::MAX as usize + 1;
        assert_eq!(far, TableError::RowIdOverflow { what: "a stratified row space", rows });
    }
}
