//! Grouping keys: the one partition walk every grouping pass runs.
//!
//! A [`GroupIndex`] assigns every row a dense group id for a list of grouping
//! expressions (the paper's "finest stratification" when the expressions are
//! the union of all group-by attribute sets), and can *project* those ids
//! onto any subset of the dimensions — the paper's `Π(c, A)` mapping from a
//! finest stratum `c` to the group of query `A` that contains it.
//!
//! Every row's key is a mixed-radix `u64` of dimension codes in **one code
//! space for the whole row space** (`RowKeys`): a string dimension lends
//! its dictionary codes — translated, shard by shard, into one merged
//! dictionary when the row space holds several in-process shards — `YEAR`
//! and `MONTH` of a timestamp whose span of days is at most the rows read
//! their code from a table over those days, any other dimension is interned
//! to dense codes first. The radix product is then the exact key-space
//! bound, known before the scan.
//!
//! One walk does the per-row work (`RowKeys::walk`): over a row range, in
//! row order, it maps each row's key — or, given a predicate's kept set,
//! only each kept row's, its key codes gathered at the kept offsets — to a
//! partition-local *slot*, through a flat `u32` table indexed by the key
//! when the bound is at most the rows walked and through a hash map
//! otherwise (a property of the data, not an option), and hands each run
//! of rows and their slots to its caller.
//! [`GroupIndex::build_with`] writes the slots as per-row ids; the
//! aggregation pass folds each slot's accumulators in place, for an exact
//! statement and for an answer from a sample alike; an answer's confidence
//! pass reads each sample row's slot as its group; and the strata pass
//! ([`Strata`]) counting-sorts each partition's rows by slot into runs that
//! the statistics fold and the stratified draw both read. Over in-process
//! rows, no statement — exact, cold or answered from a cached sample —
//! materialises a per-row id.
//!
//! [`OrderedMerge`] joins partial results in row order through translation
//! tables: the partitions of a walk, an ingest batch behind a maintained
//! sample's strata, the key lists of the shards behind readers, and (one
//! partial) the coarse keys of a projection onto anything but the identity,
//! which keeps the fine ids and borrows the fine keys. Group ids are
//! therefore in **first-occurrence order** however the rows were cut up —
//! the determinism contract every golden rests on.

use std::borrow::Cow;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::dict::Dictionary;
use crate::exec::{self, ExecOptions, RowRange, CHUNK_ROWS, RUN_ROWS};
use crate::expr::{BoundExpr, ScalarExpr};
use crate::fxhash::FxHashMap;
use crate::reader::RowSpace;
use crate::shard::ShardSegment;
use crate::table::Table;
use crate::Result;

mod strata;

pub(crate) use strata::partition;
pub use strata::{bind_columns, fold_runs, Runs, Strata};

/// One component of a group key. Unlike [`Value`](crate::Value), atoms are hashable and
/// totally ordered, because floats never appear in group keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyAtom {
    /// Integer component (also used for years, months, hours, bools).
    Int(i64),
    /// String component.
    Str(Arc<str>),
}

impl std::fmt::Display for KeyAtom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyAtom::Int(v) => write!(f, "{v}"),
            KeyAtom::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for KeyAtom {
    fn from(v: i64) -> Self {
        KeyAtom::Int(v)
    }
}

impl From<&str> for KeyAtom {
    fn from(s: &str) -> Self {
        KeyAtom::Str(Arc::from(s))
    }
}

/// Join key atoms with `|` for display.
pub fn key_display(key: &[KeyAtom]) -> String {
    let parts: Vec<String> = key.iter().map(|a| a.to_string()).collect();
    parts.join("|")
}

/// Process-wide bytes of per-row group ids produced so far.
static GROUP_ID_BYTES: AtomicU64 = AtomicU64::new(0);

/// Bytes of per-row group ids this process has produced so far: 4 per row
/// of every [`GroupIndex`] built, decoded or merged, whatever engine or
/// sampler asked for it. Monotonic; never reset. An exact statement over
/// in-process rows and an answer from a sample add nothing: they fold
/// without an index.
pub fn total_group_id_bytes() -> u64 {
    GROUP_ID_BYTES.load(Ordering::Relaxed)
}

fn note_group_ids(rows: usize) {
    GROUP_ID_BYTES.fetch_add(4 * rows as u64, Ordering::Relaxed);
}

/// Process-wide fine keys hashed by projections so far.
static KEYS_PROJECTED: AtomicU64 = AtomicU64::new(0);

/// Fine group keys this process has hashed to project them so far: one per
/// fine group of every [`GroupProjection`] but the identity, which hashes
/// none. Monotonic; never reset.
pub fn total_keys_projected() -> u64 {
    KEYS_PROJECTED.load(Ordering::Relaxed)
}

/// What one walk found: its distinct keys in first-occurrence order — slot
/// order — and each key's row count: the rows it walked, which under a kept
/// set are the kept rows alone.
#[derive(Debug, Default)]
pub struct LocalKeys {
    keys: Vec<u64>,
    sizes: Vec<u64>,
}

impl LocalKeys {
    /// The walk's packed keys, in slot order: [`RowKeys::decode`] reads
    /// each one's key atoms.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// These keys as an [`OrderedMerge`] partial.
    pub(crate) fn partial(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.keys.iter().copied().zip(self.sizes.iter().copied())
    }

    /// Append `key` as the next slot.
    fn push(&mut self, key: u64) -> u32 {
        self.keys.push(key);
        self.sizes.push(0);
        self.keys.len() as u32 - 1
    }
}

/// How a walk finds a key's slot. Both tables hand slots out in
/// first-occurrence order, so they give the same slots for the same rows.
trait SlotTable {
    fn slot(&mut self, key: u64, seen: &mut LocalKeys) -> u32;
}

/// Indexed by the key itself; holds `slot + 1`, 0 for a key not yet seen.
struct FlatSlots(Vec<u32>);

impl SlotTable for FlatSlots {
    #[inline]
    fn slot(&mut self, key: u64, seen: &mut LocalKeys) -> u32 {
        let entry = &mut self.0[key as usize];
        if *entry == 0 {
            *entry = seen.push(key) + 1;
        }
        *entry - 1
    }
}

/// For key spaces larger than the rows walked.
#[derive(Default)]
struct HashSlots(FxHashMap<u64, u32>);

impl SlotTable for HashSlots {
    #[inline]
    fn slot(&mut self, key: u64, seen: &mut LocalKeys) -> u32 {
        *self.0.entry(key).or_insert_with(|| seen.push(key))
    }
}

/// Where one column of a packed key reads its codes.
enum Codes<'k> {
    /// Per shard: the shard's dictionary codes and, when they are not
    /// already the column's code space, the table translating them into it.
    Shards(Vec<(&'k [u32], Option<Vec<u32>>)>),
    /// One code per global row.
    Rows(Vec<u32>),
    /// Per shard, each row's epoch seconds; the row's code is
    /// `codes[utc_day(seconds) - first_day]`.
    Days { shards: Vec<&'k [i64]>, first_day: i64, codes: Vec<u32> },
}

/// One column of a packed key: a code per row and, per code, the key atoms
/// it stands for — one atom for an encoded dimension, a key prefix after a
/// fold. The label count is the column's radix.
struct CodeColumn<'k> {
    codes: Codes<'k>,
    labels: Vec<Vec<KeyAtom>>,
}

impl CodeColumn<'_> {
    fn radix(&self) -> u64 {
        self.labels.len() as u64
    }

    /// `key = key · radix + code` for the rows of `run`, one per key: every
    /// row of the run, or only the run offsets `kept` lists.
    fn pack(&self, run: &ShardSegment, kept: Option<&[u32]>, keys: &mut [u64]) {
        let radix = self.radix();
        let local = run.local.start..run.local.end;
        match &self.codes {
            Codes::Shards(shards) => match &shards[run.shard] {
                (codes, None) => gather(keys, radix, kept, &codes[local], u64::from),
                (codes, Some(translation)) => {
                    let code = |code: u32| u64::from(translation[code as usize]);
                    gather(keys, radix, kept, &codes[local], code)
                }
            },
            Codes::Rows(codes) => {
                let codes = &codes[run.global_start..run.global_start + run.len()];
                gather(keys, radix, kept, codes, u64::from)
            }
            Codes::Days { shards, first_day, codes } => {
                let code =
                    |s: i64| u64::from(codes[(s.div_euclid(SECS_PER_DAY) - first_day) as usize]);
                gather(keys, radix, kept, &shards[run.shard][local], code)
            }
        }
    }
}

/// The one gather loop of [`CodeColumn::pack`]: `key = key · radix +
/// code(values[i])` for each row `i` of a run — every row, or only the
/// offsets `kept` lists, key `j` then being row `kept[j]`'s.
#[inline]
fn gather<T: Copy>(
    keys: &mut [u64],
    radix: u64,
    kept: Option<&[u32]>,
    values: &[T],
    code: impl Fn(T) -> u64,
) {
    match kept {
        None => {
            for (key, &value) in keys.iter_mut().zip(values) {
                *key = *key * radix + code(value);
            }
        }
        Some(kept) => {
            for (key, &at) in keys.iter_mut().zip(kept) {
                *key = *key * radix + code(values[at as usize]);
            }
        }
    }
}

/// The key atoms packed key `key` stands for, first column first.
fn decode(columns: &[CodeColumn], mut key: u64) -> Vec<KeyAtom> {
    let mut parts: Vec<&[KeyAtom]> = Vec::with_capacity(columns.len());
    for column in columns.iter().rev() {
        let radix = column.radix();
        parts.push(&column.labels[(key % radix) as usize]);
        key /= radix;
    }
    parts.into_iter().rev().flatten().cloned().collect()
}

/// What a walk reads each row's `u64` key from.
enum KeySource<'s, 'k> {
    /// Mixed-radix packed code columns; `bound` is their radix product.
    Packed { columns: &'s [CodeColumn<'k>], bound: u64 },
    /// One integer-like expression, bound per shard: its value is the key,
    /// and no bound is known before the scan.
    Values { expr: &'s ScalarExpr, values: &'s [BoundExpr<'k>] },
}

impl KeySource<'_, '_> {
    fn bound(&self) -> Option<u64> {
        match self {
            KeySource::Packed { bound, .. } => Some(*bound),
            KeySource::Values { .. } => None,
        }
    }

    /// The keys of the rows of `run`, one per entry of `keys`: every row of
    /// the run, or only the run offsets `kept` lists.
    fn fill(&self, run: &ShardSegment, kept: Option<&[u32]>, keys: &mut [u64]) -> Result<()> {
        match self {
            KeySource::Packed { columns, .. } => {
                keys.fill(0);
                for column in *columns {
                    column.pack(run, kept, keys);
                }
            }
            KeySource::Values { expr, values } => {
                let values = &values[run.shard];
                let start = run.local.start;
                let row = |i: usize| start + kept.map_or(i, |kept| kept[i] as usize);
                for (i, key) in keys.iter_mut().enumerate() {
                    *key = values.i64_at(row(i)).ok_or_else(|| dim_type_error(expr))? as u64;
                }
            }
        }
        Ok(())
    }
}

/// **The walk** — the only per-row key lookup there is. Visits the rows of
/// `segments` — one row range, in shard order — in row order, a run of at
/// most [`RUN_ROWS`] rows of one shard at a time, and gives each row the
/// slot of its key, local to this walk: the next slot at a key's first
/// occurrence. `visit` receives each run, its rows' slots, and how many
/// slots exist so far. Returns the walk's keys in slot order with their row
/// counts.
///
/// With a kept set — one bitmap per shard, over its local rows — the walk
/// lists each run's kept offsets and keys and slots only those rows: a
/// key's slot is then its first occurrence over the *kept* rows, a size
/// counts kept rows, a run without a kept row is skipped, and `visit`'s
/// slot at a row the set drops is unspecified.
///
/// The slot lookup is a flat table indexed by the key when the source's
/// bound is at most the rows walked — the table is then no larger than the
/// ids a walk writes — and a hash map otherwise. Slots are the same either
/// way.
fn walk(
    source: &KeySource,
    segments: &[ShardSegment],
    kept: Option<&[Bitmap]>,
    visit: impl FnMut(&ShardSegment, &[u32], usize),
) -> Result<LocalKeys> {
    let rows: usize = segments.iter().map(ShardSegment::len).sum();
    match source.bound() {
        Some(bound) if bound <= rows as u64 => {
            walk_with(FlatSlots(vec![0; bound as usize]), source, segments, kept, visit)
        }
        _ => walk_with(HashSlots::default(), source, segments, kept, visit),
    }
}

fn walk_with(
    mut table: impl SlotTable,
    source: &KeySource,
    segments: &[ShardSegment],
    kept: Option<&[Bitmap]>,
    mut visit: impl FnMut(&ShardSegment, &[u32], usize),
) -> Result<LocalKeys> {
    let mut seen = LocalKeys::default();
    let mut keys = [0u64; RUN_ROWS];
    let mut slots = [0u32; RUN_ROWS];
    let mut kept_at = [0u32; RUN_ROWS];
    for segment in segments {
        let bitmap = kept.map(|bitmaps| &bitmaps[segment.shard]);
        for local in segment.local.runs() {
            let run = ShardSegment {
                shard: segment.shard,
                local,
                global_start: segment.global_start + (local.start - segment.local.start),
            };
            // The run's kept offsets; `None` without a kept set, and for a
            // run that keeps every row.
            let at = match bitmap {
                None => None,
                Some(bitmap) => {
                    let mut n = 0;
                    for row in bitmap.iter_ones_in(local.start, local.end) {
                        kept_at[n] = (row - local.start) as u32;
                        n += 1;
                    }
                    if n == 0 {
                        continue;
                    }
                    (n < local.len()).then_some(&kept_at[..n])
                }
            };
            let keys = &mut keys[..at.map_or(local.len(), <[u32]>::len)];
            source.fill(&run, at, keys)?;
            let slots = &mut slots[..local.len()];
            match at {
                None => {
                    for (slot, &key) in slots.iter_mut().zip(keys.iter()) {
                        *slot = table.slot(key, &mut seen);
                        seen.sizes[*slot as usize] += 1;
                    }
                }
                Some(at) => {
                    for (&at, &key) in at.iter().zip(keys.iter()) {
                        let slot = table.slot(key, &mut seen);
                        slots[at as usize] = slot;
                        seen.sizes[slot as usize] += 1;
                    }
                }
            }
            visit(&run, slots, seen.keys.len());
        }
    }
    Ok(seen)
}

/// **The ordered merge** — the only builder of translation tables. Partials
/// arrive in row order, each listing its `(key, size)` pairs in local
/// first-occurrence order; a key's merged id is assigned at its earliest
/// partial, so concatenated local first-seen order becomes global
/// first-seen order: exactly what one walk over all rows assigns.
#[derive(Debug)]
pub struct OrderedMerge<K> {
    map: FxHashMap<K, u32>,
    keys: Vec<K>,
    sizes: Vec<u64>,
}

impl<K> Default for OrderedMerge<K> {
    fn default() -> Self {
        OrderedMerge { map: FxHashMap::default(), keys: Vec::new(), sizes: Vec::new() }
    }
}

impl<K: Clone + Eq + Hash> OrderedMerge<K> {
    /// Merge the next partial, returning the table that translates its
    /// local ids to merged ids. Keys first seen here take the next merged
    /// ids, in the partial's order.
    pub fn push(&mut self, partial: impl IntoIterator<Item = (K, u64)>) -> Vec<u32> {
        let mut translate = |(key, size): (K, u64)| {
            let id = match self.map.get(&key) {
                Some(&id) => id,
                None => {
                    let id = self.keys.len() as u32;
                    self.map.insert(key.clone(), id);
                    self.keys.push(key);
                    self.sizes.push(0);
                    id
                }
            };
            self.sizes[id as usize] += size;
            id
        };
        partial.into_iter().map(&mut translate).collect()
    }

    /// How many keys have been merged so far.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The merged id of `key`, if a partial has listed it.
    pub(crate) fn id_of<Q>(&self, key: &Q) -> Option<u32>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key).copied()
    }

    /// The merged keys and their sizes, in first-occurrence order.
    pub(crate) fn into_parts(self) -> (Vec<K>, Vec<u64>) {
        (self.keys, self.sizes)
    }

    /// The merged keys, in first-occurrence order.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Each merged key's summed size.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }
}

/// What interning yields: a dense id per row, the distinct keys in
/// first-occurrence order, and each key's row count.
struct Interned {
    ids: Vec<u32>,
    keys: Vec<u64>,
    sizes: Vec<u64>,
}

/// Intern every row of `rows`: [`walk`] each block — the whole row space
/// on one worker, [`CHUNK_ROWS`]-row partitions otherwise — writing each
/// row's slot as its id, an [`OrderedMerge`] of the blocks, and a second
/// parallel pass rewriting ids through the translation tables: identical to
/// one sequential walk for any thread count. The ids are written and
/// rewritten in the one buffer that is returned.
fn intern_rows(rows: &RowSpace, source: &KeySource, options: &ExecOptions) -> Result<Interned> {
    let n = rows.num_rows();
    let block = if options.threads() <= 1 { n.max(1) } else { CHUNK_ROWS };
    let mut ids = vec![0u32; n];
    let mut partials: Vec<LocalKeys> =
        exec::for_each_chunk_mut(&mut ids, block, options, |i, ids| {
            let start = i * block;
            let range = RowRange { start, end: start + ids.len() };
            walk(source, &rows.segments(range), None, |run, slots, _| {
                let at = run.global_start - start;
                ids[at..at + slots.len()].copy_from_slice(slots);
            })
        })
        .into_iter()
        .collect::<Result<_>>()?;
    if partials.len() <= 1 {
        let LocalKeys { keys, sizes } = partials.pop().unwrap_or_default();
        return Ok(Interned { ids, keys, sizes });
    }
    let mut merge = OrderedMerge::default();
    let translations: Vec<Vec<u32>> = partials.iter().map(|p| merge.push(p.partial())).collect();
    exec::for_each_chunk_mut(&mut ids, block, options, |i, ids| {
        for id in ids {
            *id = translations[i][*id as usize];
        }
    });
    Ok(Interned { ids, keys: merge.keys, sizes: merge.sizes })
}

fn dim_type_error(expr: &ScalarExpr) -> crate::error::TableError {
    crate::error::TableError::invalid(format!(
        "grouping expression {expr} is not integer-like or string"
    ))
}

/// One grouping dimension over in-process `tables` (the shards of `rows`,
/// in order), as a column of codes in one space for the whole row space.
/// `spans` holds the day spans of the timestamp columns earlier dimensions
/// of the same encoding read.
fn encode_dimension<'k, 'e>(
    rows: &RowSpace,
    tables: &[&'k Table],
    expr: &'e ScalarExpr,
    spans: &mut DaySpans<'e>,
    options: &ExecOptions,
) -> Result<CodeColumn<'k>> {
    let bound: Vec<BoundExpr<'k>> = tables.iter().map(|t| expr.bind(t)).collect::<Result<_>>()?;
    if bound.first().is_some_and(BoundExpr::is_plain_str) {
        // Dictionary codes are already dense distinct-value codes. The
        // merged space is shard 0's dictionary, then each later shard's
        // unseen strings in code order, at O(dictionary) per shard; a shard
        // whose codes already are that space reads them as they are.
        let dictionary = |b: &BoundExpr<'k>| b.column().dictionary().expect("plain str column");
        let mut merged: Cow<Dictionary> = Cow::Borrowed(dictionary(&bound[0]));
        let mut shards = Vec::with_capacity(bound.len());
        for (s, b) in bound.iter().enumerate() {
            let translation: Vec<u32> = match s {
                0 => Vec::new(),
                _ => dictionary(b)
                    .iter()
                    .map(|(_, v)| merged.code_of(v).unwrap_or_else(|| merged.to_mut().intern(v)))
                    .collect(),
            };
            let identity = translation.iter().zip(0u32..).all(|(&to, from)| to == from);
            let codes = b.column().str_codes().expect("plain str column");
            shards.push((codes, (!identity).then_some(translation)));
        }
        let labels = (0..merged.len() as u32).map(|c| vec![KeyAtom::Str(merged.get_arc(c))]);
        let labels = labels.collect();
        return Ok(CodeColumn { codes: Codes::Shards(shards), labels });
    }
    if let Some(column) = day_column(expr, &bound, rows.num_rows(), spans) {
        return Ok(column);
    }
    // Any other integer-like dimension: intern values to dense codes in
    // first-seen order — the same walk, keyed by the value.
    let interned = intern_rows(rows, &KeySource::Values { expr, values: &bound }, options)?;
    let labels = interned.keys.into_iter().map(|v| vec![KeyAtom::Int(v as i64)]).collect();
    Ok(CodeColumn { codes: Codes::Rows(interned.ids), labels })
}

const SECS_PER_DAY: i64 = 86_400;

/// `YEAR` or `MONTH` of a timestamp column, coded through a table over the
/// column's UTC days when the day span is at most `rows` — the walk's own
/// rule for a table indexed by the key. No per-row code is written, and the
/// civil conversion runs once per day of the span rather than once per row.
/// Codes follow each part's first appearance in ascending day order; group
/// ids follow the packed keys' first occurrence over the rows, as interning
/// gives them. `None` — intern values instead — for any other dimension or a
/// wider span.
fn day_column<'k, 'e>(
    expr: &'e ScalarExpr,
    bound: &[BoundExpr<'k>],
    rows: usize,
    spans: &mut DaySpans<'e>,
) -> Option<CodeColumn<'k>> {
    let (part, timestamp): (fn(i64) -> i64, _) = match expr {
        ScalarExpr::Year(of) => (|day| i64::from(crate::time::civil_from_days(day).0), of),
        ScalarExpr::Month(of) => (|day| i64::from(crate::time::civil_from_days(day).1), of),
        _ => return None,
    };
    let shards: Vec<&'k [i64]> =
        bound.iter().map(|b| b.column().i64_slice()).collect::<Option<_>>()?;
    let (low, high) = spans.of(timestamp, &shards);
    let (first_day, last_day) = (low.div_euclid(SECS_PER_DAY), high.div_euclid(SECS_PER_DAY));
    last_day.checked_sub(first_day).filter(|&width| (width as u64) < rows as u64)?;
    let mut labels: Vec<Vec<KeyAtom>> = Vec::new();
    let mut code_of: FxHashMap<i64, u32> = FxHashMap::default();
    let codes = (first_day..=last_day)
        .map(|day| {
            *code_of.entry(part(day)).or_insert_with_key(|&value| {
                labels.push(vec![KeyAtom::Int(value)]);
                labels.len() as u32 - 1
            })
        })
        .collect();
    let codes = Codes::Days { shards, first_day, codes };
    Some(CodeColumn { codes, labels })
}

/// The span of each timestamp column a `YEAR` or `MONTH` dimension reads —
/// its lowest and highest epoch seconds over every shard — keyed by the
/// expression the part is taken of, so that one encoding scans a column
/// once however many of its dimensions read it (`MONTH(t), YEAR(t)`).
#[derive(Default)]
struct DaySpans<'e>(Vec<(&'e ScalarExpr, (i64, i64))>);

impl<'e> DaySpans<'e> {
    /// The span of `timestamp`, whose values are `shards`.
    fn of(&mut self, timestamp: &'e ScalarExpr, shards: &[&[i64]]) -> (i64, i64) {
        if let Some(&(_, span)) = self.0.iter().find(|(seen, _)| *seen == timestamp) {
            return span;
        }
        let (mut low, mut high) = (i64::MAX, i64::MIN);
        for &seconds in shards.iter().copied().flatten() {
            low = low.min(seconds);
            high = high.max(seconds);
        }
        self.0.push((timestamp, (low, high)));
        (low, high)
    }
}

/// Every row's grouping key over one row space, packed into one `u64` code
/// space whose bound — the radix product — is known before any walk.
pub struct RowKeys<'k> {
    columns: Vec<CodeColumn<'k>>,
    bound: u64,
}

impl<'k> RowKeys<'k> {
    /// The keys of `exprs` over `rows`, whose shards are the in-process
    /// `tables`. When the radix product would overflow, the longest prefix
    /// that fits is interned first and its dense ids — at most `n` < 2³² of
    /// them — continue as one column: the same walk applied again.
    pub fn encode(
        rows: &RowSpace,
        tables: &[&'k Table],
        exprs: &[ScalarExpr],
        options: &ExecOptions,
    ) -> Result<RowKeys<'k>> {
        let mut spans = DaySpans::default();
        let mut columns: Vec<CodeColumn<'k>> = exprs
            .iter()
            .map(|expr| encode_dimension(rows, tables, expr, &mut spans, options))
            .collect::<Result<_>>()?;
        loop {
            let mut fit = 0;
            let mut bound = 1u64;
            while let Some(p) = columns.get(fit).and_then(|c| bound.checked_mul(c.radix())) {
                bound = p;
                fit += 1;
            }
            if fit == columns.len() {
                return Ok(RowKeys { columns, bound });
            }
            assert!(fit >= 2, "two u32 code spaces always fit a u64");
            let head = &columns[..fit];
            let folded = intern_rows(rows, &KeySource::Packed { columns: head, bound }, options)?;
            let labels = folded.keys.iter().map(|&key| decode(head, key)).collect();
            let column = CodeColumn { codes: Codes::Rows(folded.ids), labels };
            columns.splice(..fit, [column]);
        }
    }

    fn source(&self) -> KeySource<'_, 'k> {
        KeySource::Packed { columns: &self.columns, bound: self.bound }
    }

    /// Walk the rows `range` of `rows` — the row space these keys were
    /// encoded over — in row order, handing each run, its rows' slots and
    /// the slot count so far to `visit`: the module's one walk. Without a
    /// kept set every row takes a slot, and a row's slot is its key's
    /// first-occurrence id over every row. With one — `kept[s]` over shard
    /// `s`'s local rows, as [`RowSpace::predicate_bitmaps`] builds them —
    /// only the kept rows are keyed and slotted: a slot is then its key's
    /// first occurrence over the kept rows, the returned sizes count kept
    /// rows, and `visit` meets only runs that keep a row and reads slots only
    /// at kept offsets.
    pub fn walk(
        &self,
        rows: &RowSpace,
        range: RowRange,
        kept: Option<&[Bitmap]>,
        visit: impl FnMut(&ShardSegment, &[u32], usize),
    ) -> LocalKeys {
        self.walk_segments(&rows.segments(range), kept, visit)
    }

    /// [`walk`] the rows of `segments`.
    fn walk_segments(
        &self,
        segments: &[ShardSegment],
        kept: Option<&[Bitmap]>,
        visit: impl FnMut(&ShardSegment, &[u32], usize),
    ) -> LocalKeys {
        walk(&self.source(), segments, kept, visit).expect("code columns hold a key for every row")
    }

    /// The key atoms of packed key `key`, borrowed from the labels when one
    /// column holds the whole key (a single dimension).
    pub fn decode(&self, key: u64) -> Cow<'_, [KeyAtom]> {
        match self.columns.as_slice() {
            [column] => Cow::Borrowed(&column.labels[key as usize]),
            columns => Cow::Owned(decode(columns, key)),
        }
    }
}

/// Dense per-row group ids for a list of grouping expressions.
#[derive(Debug, Clone)]
pub struct GroupIndex {
    dim_names: Vec<String>,
    row_groups: Vec<u32>,
    group_keys: Vec<Vec<KeyAtom>>,
    group_sizes: Vec<u64>,
}

impl GroupIndex {
    /// Build the index over all rows of `table`, using one worker per
    /// available core (see [`GroupIndex::build_with`]).
    ///
    /// With an empty expression list every row maps to the single group with
    /// an empty key (a full-table aggregate).
    pub fn build(table: &Table, exprs: &[ScalarExpr]) -> Result<GroupIndex> {
        Self::build_with(table, exprs, &ExecOptions::default())
    }

    /// Build the index with explicit execution options: the one-shard case
    /// of [`RowSpace::group_index`].
    ///
    /// The parallel path walks 64Ki-row partitions and merges them **in row
    /// order**, so group ids follow first-occurrence order and the result is
    /// identical to the sequential build for any thread count.
    pub fn build_with(
        table: &Table,
        exprs: &[ScalarExpr],
        options: &ExecOptions,
    ) -> Result<GroupIndex> {
        RowSpace::from(table).group_index(exprs, options)
    }

    /// The index over `rows`, whose shards are the in-process `tables`: one
    /// walk over the whole row space, its slots written as ids.
    pub(crate) fn build_local(
        rows: &RowSpace,
        tables: &[&Table],
        exprs: &[ScalarExpr],
        options: &ExecOptions,
    ) -> Result<GroupIndex> {
        let keys = RowKeys::encode(rows, tables, exprs, options)?;
        let interned = intern_rows(rows, &keys.source(), options)?;
        let group_keys = interned.keys.iter().map(|&key| keys.decode(key).into_owned()).collect();
        note_group_ids(interned.ids.len());
        Ok(GroupIndex {
            dim_names: exprs.iter().map(ScalarExpr::display_name).collect(),
            row_groups: interned.ids,
            group_keys,
            group_sizes: interned.sizes,
        })
    }

    /// Reassemble an index from its parts, validating internal consistency:
    /// every accessor invariant (`group_of` in range, sizes equal to the
    /// per-group row counts, every key as wide as the dimension list) is
    /// checked here, so parts from outside the process can neither panic
    /// later nor bias a stratum's population.
    pub fn from_parts(
        dim_names: Vec<String>,
        row_groups: Vec<u32>,
        group_keys: Vec<Vec<KeyAtom>>,
        group_sizes: Vec<u64>,
    ) -> Result<GroupIndex> {
        let invalid = |what: String| Err(crate::error::TableError::invalid(what));
        if group_keys.len() != group_sizes.len() {
            return invalid(format!(
                "group index parts disagree: {} keys vs {} sizes",
                group_keys.len(),
                group_sizes.len()
            ));
        }
        if let Some(key) = group_keys.iter().find(|key| key.len() != dim_names.len()) {
            return invalid(format!(
                "group index parts hold key {:?} for {} dimensions",
                key_display(key),
                dim_names.len()
            ));
        }
        let mut counted = vec![0u64; group_keys.len()];
        for &g in &row_groups {
            match counted.get_mut(g as usize) {
                Some(count) => *count += 1,
                None => {
                    return invalid(format!(
                        "group index parts name group {g} but only {} groups exist",
                        group_keys.len()
                    ))
                }
            }
        }
        if let Some(g) = (0..counted.len()).find(|&g| counted[g] != group_sizes[g]) {
            return invalid(format!(
                "group index parts size group {g} at {} but {} rows name it",
                group_sizes[g], counted[g]
            ));
        }
        note_group_ids(row_groups.len());
        Ok(GroupIndex { dim_names, row_groups, group_keys, group_sizes })
    }

    /// Names of the grouping dimensions.
    pub fn dim_names(&self) -> &[String] {
        &self.dim_names
    }

    /// Number of dimensions.
    pub fn num_dims(&self) -> usize {
        self.dim_names.len()
    }

    /// Number of distinct groups.
    pub fn num_groups(&self) -> usize {
        self.group_keys.len()
    }

    /// Number of rows indexed.
    pub fn num_rows(&self) -> usize {
        self.row_groups.len()
    }

    /// Group id of `row`.
    #[inline]
    pub fn group_of(&self, row: usize) -> u32 {
        self.row_groups[row]
    }

    /// Per-row group ids.
    pub fn row_groups(&self) -> &[u32] {
        &self.row_groups
    }

    /// Key of group `gid`.
    pub fn key(&self, gid: u32) -> &[KeyAtom] {
        &self.group_keys[gid as usize]
    }

    /// Number of rows in group `gid` (unfiltered).
    pub fn size(&self, gid: u32) -> u64 {
        self.group_sizes[gid as usize]
    }

    /// Per-group sizes (unfiltered).
    pub fn sizes(&self) -> &[u64] {
        &self.group_sizes
    }

    /// Project groups onto a subset of dimensions (`dims` are indices into
    /// the dimension list, in the order the coarse grouping should use).
    ///
    /// Returns the `Π` mapping: for each fine group id, the coarse group id
    /// containing it, along with the coarse keys.
    pub fn project(&self, dims: &[usize]) -> GroupProjection<'_> {
        GroupProjection::of(&self.dim_names, &self.group_keys, dims)
    }
}

/// The result of projecting a [`GroupIndex`] onto a dimension subset. Its
/// coarse keys borrow the fine keys when the projection is the identity.
#[derive(Debug, Clone)]
pub struct GroupProjection<'k> {
    dim_names: Vec<String>,
    fine_to_coarse: Vec<u32>,
    coarse_keys: Vec<Cow<'k, [KeyAtom]>>,
}

impl<'k> GroupProjection<'k> {
    /// Project fine groups — `keys` over the dimensions `dim_names`, in
    /// fine-id order — onto `dims`: an [`OrderedMerge`] of one partial, the
    /// fine keys' projections, so coarse ids follow first occurrence too.
    /// Fine id `g` is `keys[g]`: the aggregation pass's read-out passes the
    /// keys of its live fine groups only (those that folded a row), in
    /// ascending fine-id order, so a coarse group is first met at its first
    /// live member.
    ///
    /// The identity — `dims` is `0..dim_names.len()`, every dimension in
    /// its own place — maps fine id `g` to `g` and borrows each fine key,
    /// hashing and cloning none: fine keys are distinct, so the merge would
    /// find exactly that. Any other list, a full-length reordering
    /// included, hashes one projected key per fine group (counted by
    /// [`total_keys_projected`]).
    pub fn of(
        dim_names: &[String],
        keys: &'k [impl AsRef<[KeyAtom]>],
        dims: &[usize],
    ) -> GroupProjection<'k> {
        assert!(dims.iter().all(|&d| d < dim_names.len()), "projection dim out of range");
        let coarse_names = dims.iter().map(|&d| dim_names[d].clone()).collect();
        if dims.iter().copied().eq(0..dim_names.len()) {
            return GroupProjection {
                dim_names: coarse_names,
                fine_to_coarse: (0..keys.len() as u32).collect(),
                coarse_keys: keys.iter().map(|key| Cow::Borrowed(key.as_ref())).collect(),
            };
        }
        KEYS_PROJECTED.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let projected = keys.iter().map(|key| {
            let key = key.as_ref();
            (Cow::Owned(dims.iter().map(|&d| key[d].clone()).collect()), 0)
        });
        let mut merge = OrderedMerge::default();
        GroupProjection {
            dim_names: coarse_names,
            fine_to_coarse: merge.push(projected),
            coarse_keys: merge.keys,
        }
    }

    /// Names of the coarse dimensions.
    pub fn dim_names(&self) -> &[String] {
        &self.dim_names
    }

    /// Number of coarse groups.
    pub fn num_groups(&self) -> usize {
        self.coarse_keys.len()
    }

    /// Coarse group id containing fine group `gid` (the paper's `Π(c, A)`).
    #[inline]
    pub fn coarse_of(&self, fine_gid: u32) -> u32 {
        self.fine_to_coarse[fine_gid as usize]
    }

    /// Mapping from every fine group to its coarse group.
    pub fn fine_to_coarse(&self) -> &[u32] {
        &self.fine_to_coarse
    }

    /// Key of coarse group `cid`.
    pub fn key(&self, cid: u32) -> &[KeyAtom] {
        &self.coarse_keys[cid as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, Predicate};
    use crate::reader::ShardSet;
    use crate::shard::ShardedTable;
    use crate::table::TableBuilder;
    use crate::time::epoch_seconds;
    use crate::types::{DataType, Value};

    fn table() -> Table {
        let mut b = TableBuilder::new(&[
            ("major", DataType::Str),
            ("year", DataType::Int64),
            ("t", DataType::Timestamp),
        ]);
        let rows = [
            ("CS", 1, 2017),
            ("CS", 2, 2017),
            ("EE", 1, 2018),
            ("CS", 1, 2018),
            ("EE", 2, 2017),
            ("EE", 1, 2018),
        ];
        for (m, y, ty) in rows {
            b.push_row(&[
                Value::str(m),
                Value::Int64(y),
                Value::Timestamp(epoch_seconds(ty, 1, 1, 0, 0, 0)),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn single_string_dim() {
        let t = table();
        let gi = GroupIndex::build(&t, &[ScalarExpr::col("major")]).unwrap();
        assert_eq!(gi.num_groups(), 2);
        assert_eq!(gi.key(0), &[KeyAtom::from("CS")]);
        assert_eq!(gi.key(1), &[KeyAtom::from("EE")]);
        assert_eq!(gi.sizes(), &[3, 3]);
        assert_eq!(gi.group_of(0), 0);
        assert_eq!(gi.group_of(2), 1);
    }

    #[test]
    fn single_int_dim() {
        let t = table();
        let gi = GroupIndex::build(&t, &[ScalarExpr::col("year")]).unwrap();
        assert_eq!(gi.num_groups(), 2);
        assert_eq!(gi.key(0), &[KeyAtom::Int(1)]);
        assert_eq!(gi.sizes(), &[4, 2]);
    }

    #[test]
    fn timestamp_year_dim() {
        let t = table();
        let gi = GroupIndex::build(&t, &[ScalarExpr::year("t")]).unwrap();
        assert_eq!(gi.num_groups(), 2);
        assert_eq!(gi.key(0), &[KeyAtom::Int(2017)]);
        assert_eq!(gi.sizes(), &[3, 3]);
    }

    #[test]
    fn two_dims_packed() {
        let t = table();
        let gi =
            GroupIndex::build(&t, &[ScalarExpr::col("major"), ScalarExpr::col("year")]).unwrap();
        assert_eq!(gi.num_groups(), 4);
        let keys: Vec<String> = (0..4).map(|g| key_display(gi.key(g))).collect();
        assert_eq!(keys, vec!["CS|1", "CS|2", "EE|1", "EE|2"]);
        assert_eq!(gi.sizes(), &[2, 1, 2, 1]);
    }

    #[test]
    fn three_dims_general_path() {
        let t = table();
        let gi = GroupIndex::build(
            &t,
            &[ScalarExpr::col("major"), ScalarExpr::col("year"), ScalarExpr::year("t")],
        )
        .unwrap();
        // Any arity packs into the same mixed-radix key as one or two.
        let keys: Vec<String> = (0..5).map(|g| key_display(gi.key(g))).collect();
        assert_eq!(keys, vec!["CS|1|2017", "CS|2|2017", "EE|1|2018", "CS|1|2018", "EE|2|2017"]);
        assert_eq!(gi.row_groups(), &[0, 1, 2, 3, 4, 2]);
        assert_eq!(gi.sizes(), &[1, 1, 2, 1, 1]);
    }

    #[test]
    fn empty_dims_full_table() {
        let t = table();
        let gi = GroupIndex::build(&t, &[]).unwrap();
        assert_eq!(gi.num_groups(), 1);
        assert!(gi.key(0).is_empty());
        assert_eq!(gi.size(0), 6);
        assert!(gi.row_groups().iter().all(|&g| g == 0));
    }

    #[test]
    fn projection_to_first_dim() {
        let t = table();
        let gi =
            GroupIndex::build(&t, &[ScalarExpr::col("major"), ScalarExpr::col("year")]).unwrap();
        let proj = gi.project(&[0]);
        assert_eq!(proj.num_groups(), 2);
        // Fine groups CS|1, CS|2 → CS; EE|1, EE|2 → EE.
        assert_eq!(proj.coarse_of(0), proj.coarse_of(1));
        assert_eq!(proj.coarse_of(2), proj.coarse_of(3));
        assert_ne!(proj.coarse_of(0), proj.coarse_of(2));
        assert_eq!(proj.key(proj.coarse_of(0)), &[KeyAtom::from("CS")]);
    }

    #[test]
    fn projection_to_empty_dims() {
        let t = table();
        let gi = GroupIndex::build(&t, &[ScalarExpr::col("major")]).unwrap();
        let proj = gi.project(&[]);
        assert_eq!(proj.num_groups(), 1);
        assert!(proj.fine_to_coarse().iter().all(|&c| c == 0));
    }

    #[test]
    fn projection_reorders_dims() {
        let t = table();
        let gi =
            GroupIndex::build(&t, &[ScalarExpr::col("major"), ScalarExpr::col("year")]).unwrap();
        let proj = gi.project(&[1, 0]);
        assert_eq!(proj.dim_names(), &["year".to_string(), "major".to_string()]);
        assert_eq!(proj.num_groups(), 4);
        assert_eq!(proj.key(proj.coarse_of(0)), &[KeyAtom::Int(1), KeyAtom::from("CS")]);
    }

    #[test]
    fn projection_identity() {
        let t = table();
        let gi =
            GroupIndex::build(&t, &[ScalarExpr::col("major"), ScalarExpr::col("year")]).unwrap();
        let proj = gi.project(&[0, 1]);
        assert_eq!(proj.dim_names(), gi.dim_names());
        assert_eq!(proj.num_groups(), gi.num_groups());
        for g in 0..gi.num_groups() as u32 {
            assert_eq!(proj.coarse_of(g), g);
            assert_eq!(proj.key(g), gi.key(g));
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // Enough rows to span several partitions, with int, string and
        // timestamp-function dimensions, so the partitioned dimension encoder
        // and tuple interner are exercised at every arity.
        let n = 3 * crate::exec::CHUNK_ROWS + 4321;
        let mut b = TableBuilder::new(&[
            ("s", DataType::Str),
            ("i", DataType::Int64),
            ("t", DataType::Timestamp),
        ]);
        let mut state = 88172645463325252u64;
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            b.push_row(&[
                Value::str(format!("s{}", state % 97)),
                Value::Int64((state >> 8) as i64 % 53),
                Value::Timestamp(epoch_seconds(2015 + (state % 7) as i32, 1, 1, 0, 0, 0)),
            ])
            .unwrap();
        }
        let t = b.finish();
        for exprs in [
            vec![ScalarExpr::col("i")],
            vec![ScalarExpr::col("s"), ScalarExpr::col("i")],
            vec![ScalarExpr::col("s"), ScalarExpr::col("i"), ScalarExpr::year("t")],
        ] {
            let seq = GroupIndex::build_with(&t, &exprs, &ExecOptions::sequential()).unwrap();
            for threads in [2usize, 8] {
                let par = GroupIndex::build_with(&t, &exprs, &ExecOptions::new(threads)).unwrap();
                assert_eq!(par.row_groups(), seq.row_groups(), "threads = {threads}");
                assert_eq!(par.sizes(), seq.sizes());
                assert_eq!(par.num_groups(), seq.num_groups());
                for g in 0..seq.num_groups() as u32 {
                    assert_eq!(par.key(g), seq.key(g));
                }
            }
        }
    }

    #[test]
    fn sharded_build_matches_unsharded() {
        use crate::reader::ShardSet;
        use crate::shard::ShardedTable;
        // Mixed dimension kinds, shard boundaries that split dictionary
        // value runs, and an empty shard in the middle.
        let n = 5000;
        let mut b = TableBuilder::new(&[("s", DataType::Str), ("i", DataType::Int64)]);
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            b.push_row(&[
                Value::str(format!("s{}", state % 31)),
                Value::Int64((state % 17) as i64),
            ])
            .unwrap();
        }
        let t = b.finish();
        let exprs = [ScalarExpr::col("s"), ScalarExpr::col("i")];
        let reference = GroupIndex::build_with(&t, &exprs, &ExecOptions::sequential()).unwrap();

        let empty = TableBuilder::from_schema(t.schema().clone()).finish();
        let sharded = ShardSet::from(
            ShardedTable::from_tables(vec![
                t.take(&(0..1234).collect::<Vec<_>>()),
                empty,
                t.take(&(1234..5000).collect::<Vec<_>>()),
            ])
            .unwrap(),
        );
        for threads in [1usize, 4] {
            let got = sharded.rows().group_index(&exprs, &ExecOptions::new(threads)).unwrap();
            assert_eq!(got.row_groups(), reference.row_groups(), "threads {threads}");
            assert_eq!(got.sizes(), reference.sizes());
            for g in 0..reference.num_groups() as u32 {
                assert_eq!(got.key(g), reference.key(g));
            }
        }

        // Empty expression list over a sharded layout: one group.
        let small = ShardSet::from(ShardedTable::split(&table(), 3).unwrap());
        let gi = small.rows().group_index(&[], &ExecOptions::sequential()).unwrap();
        assert_eq!(gi.num_groups(), 1);
        assert_eq!(gi.size(0), 6);
        assert!(gi.row_groups().iter().all(|&g| g == 0));
    }

    /// Over the same rows — several runs, one key space, every row or a kept
    /// set — the flat table and the hash map hand out the same slots, keys
    /// and sizes.
    #[test]
    fn flat_and_hashed_slots_agree() {
        let mut b = TableBuilder::new(&[("s", DataType::Str), ("i", DataType::Int64)]);
        for r in 0..3 * RUN_ROWS + 17 {
            b.push_row(&[Value::str(format!("s{}", r * 7 % 23)), Value::Int64((r % 5) as i64)])
                .unwrap();
        }
        let t = b.finish();
        let rows = RowSpace::from(&t);
        let tables = rows.local_tables().unwrap();
        let exprs = [ScalarExpr::col("s"), ScalarExpr::col("i")];
        let keys = RowKeys::encode(&rows, &tables, &exprs, &ExecOptions::sequential()).unwrap();
        assert_eq!(keys.bound, 23 * 5);
        let range = RowRange { start: 0, end: t.num_rows() };
        let segments = rows.segments(range);
        let third = [Bitmap::from_fn(t.num_rows(), |r| r % 3 == 1)];
        for kept in [None, Some(&third[..])] {
            // A kept walk's slot at a dropped row is unspecified: read the
            // kept rows' alone.
            let read = |slots: &mut Vec<u32>, run: &ShardSegment, s: &[u32]| match kept {
                None => slots.extend_from_slice(s),
                Some(kept) => slots.extend(
                    kept[0]
                        .iter_ones_in(run.local.start, run.local.end)
                        .map(|r| s[r - run.local.start]),
                ),
            };
            let (mut flat, mut hashed) = (Vec::new(), Vec::new());
            let table = FlatSlots(vec![0; keys.bound as usize]);
            let a = walk_with(table, &keys.source(), &segments, kept, |run, s, _| {
                read(&mut flat, run, s)
            });
            let b =
                walk_with(HashSlots::default(), &keys.source(), &segments, kept, |run, s, _| {
                    read(&mut hashed, run, s)
                });
            let (a, b) = (a.unwrap(), b.unwrap());
            assert_eq!((flat, &a.keys, &a.sizes), (hashed, &b.keys, &b.sizes));
            assert_eq!(a.keys.len(), 23 * 5);
            let walked = kept.map_or(t.num_rows(), |kept| kept[0].count_ones());
            assert_eq!(a.sizes.iter().sum::<u64>(), walked as u64);
        }
    }

    /// A kept walk keys and slots the kept rows as a walk over those rows
    /// alone does, whatever a column reads its codes from: dictionary codes
    /// as they are and translated across shards, interned per-row codes, and
    /// codes over days. Keys follow first occurrence over the kept rows,
    /// sizes count kept rows, and a kept set without a row walks nothing.
    #[test]
    fn a_kept_walk_slots_the_kept_rows_as_a_walk_over_them_alone() {
        let mut b = TableBuilder::new(&[
            ("s", DataType::Str),
            ("i", DataType::Int64),
            ("t", DataType::Timestamp),
        ]);
        let n = 2 * RUN_ROWS + 300;
        let mut state = 0x2545_f491u64;
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            b.push_row(&[
                Value::str(format!("s{}", state % 13)),
                Value::Int64((state % 1_000) as i64),
                Value::Timestamp(1_500_000_000 + (state % 900) as i64 * SECS_PER_DAY),
            ])
            .unwrap();
        }
        let t = b.finish();
        let set = ShardSet::from(ShardedTable::split(&t, 3).unwrap());
        let rows = set.rows();
        let tables = rows.local_tables().unwrap();
        let timestamp = || Box::new(ScalarExpr::col("t"));
        let exprs = [
            ScalarExpr::col("s"),
            ScalarExpr::col("i"),
            ScalarExpr::Year(timestamp()),
            ScalarExpr::Month(timestamp()),
        ];
        let options = ExecOptions::sequential();
        let keys = RowKeys::encode(&rows, &tables, &exprs, &options).unwrap();
        let codes = |column: &CodeColumn| match &column.codes {
            Codes::Shards(shards) if shards.iter().any(|(_, t)| t.is_some()) => "translated",
            Codes::Shards(_) => "shards",
            Codes::Rows(_) => "rows",
            Codes::Days { .. } => "days",
        };
        let read: Vec<&str> = keys.columns.iter().map(codes).collect();
        assert_eq!(read, ["translated", "rows", "days", "days"]);
        let all = RowRange { start: 0, end: n };
        for (threshold, walked) in [(1_000, 0), (500, 1_184), (-1, n)] {
            let predicate = Predicate::cmp("i", CmpOp::Gt, threshold);
            let kept = rows.predicate_bitmaps(&predicate, &options).unwrap();
            let mut slots = Vec::new();
            let got = keys.walk(&rows, all, Some(&kept), |run, run_slots, _| {
                let (start, end) = (run.local.start, run.local.end);
                assert!(kept[run.shard].iter_ones_in(start, end).next().is_some());
                let at = kept[run.shard].iter_ones_in(start, end);
                slots.extend(at.map(|r| run_slots[r - start]));
            });
            // The kept rows alone, as one table, walked whole.
            let whole = RowSpace::from(&t).predicate_bitmaps(&predicate, &options).unwrap();
            let alone = t.take(&whole[0].iter_ones().collect::<Vec<_>>());
            assert_eq!(alone.num_rows(), walked);
            let alone_rows = RowSpace::from(&alone);
            let reference = RowKeys::encode(&alone_rows, &[&alone], &exprs, &options).unwrap();
            let mut want = Vec::new();
            let local =
                reference.walk(&alone_rows, RowRange { start: 0, end: walked }, None, |_, s, _| {
                    want.extend_from_slice(s)
                });
            assert_eq!(slots, want, "threshold {threshold}");
            let decoded = |keys: &RowKeys, local: &LocalKeys| -> Vec<Vec<KeyAtom>> {
                local.keys().iter().map(|&key| keys.decode(key).into_owned()).collect()
            };
            assert_eq!(decoded(&keys, &got), decoded(&reference, &local));
            assert_eq!(got.sizes, local.sizes);
        }
    }

    /// `YEAR` and `MONTH` read a table over the column's days exactly when
    /// the day span is at most the rows walked — before 1970 as after — and
    /// key the rows as interning their values does; a wider span, and any
    /// plain integer column, interns. A null timestamp never reaches either:
    /// a table refuses it, and a date part of a string column is refused at
    /// bind, as before.
    #[test]
    fn day_tables_code_date_parts_whose_span_fits_the_rows() {
        let t = |rows: &[(i64, i64)]| {
            let mut b = TableBuilder::new(&[
                ("t", DataType::Timestamp),
                ("i", DataType::Int64),
                ("s", DataType::Str),
            ]);
            for (r, &(day, i)) in rows.iter().enumerate() {
                let secs = day * SECS_PER_DAY + (r as i64 * 7919) % SECS_PER_DAY;
                b.push_row(&[Value::Timestamp(secs), Value::Int64(i), Value::str("x")]).unwrap();
            }
            b.finish()
        };
        let day = |y, m, d| crate::time::days_from_civil(y, m, d);
        // 1969-12-30 ..= 1970-01-02 over four rows: the day span fits
        // exactly. The values -10 ..= -7 (-9 missing) would fit too, but a
        // plain column interns.
        let fits = t(&[
            (day(1970, 1, 2), -7),
            (day(1969, 12, 30), -10),
            (day(1970, 1, 1), -7),
            (day(1969, 12, 31), -8),
        ]);
        // A day span one wider than its three rows.
        let wide = t(&[(day(1969, 12, 30), 1), (day(1970, 1, 2), 4), (day(1970, 1, 1), 1)]);
        for (table, coded) in [(&fits, true), (&wide, false)] {
            let rows = RowSpace::from(table);
            for expr in [ScalarExpr::year("t"), ScalarExpr::month("t"), ScalarExpr::col("i")] {
                let exprs = [expr.clone()];
                let keys = RowKeys::encode(&rows, &[table], &exprs, &ExecOptions::new(2)).unwrap();
                let days = matches!(keys.columns[0].codes, Codes::Days { .. });
                let date_part = !matches!(expr, ScalarExpr::Column(_));
                assert_eq!(days, coded && date_part, "{expr}");
                let index = GroupIndex::build(table, &exprs).unwrap();
                let bound = expr.bind(table).unwrap();
                let mut firsts: Vec<Vec<KeyAtom>> = Vec::new();
                for row in 0..table.num_rows() {
                    let key = vec![KeyAtom::Int(bound.i64_at(row).unwrap())];
                    if !firsts.contains(&key) {
                        firsts.push(key.clone());
                    }
                    assert_eq!(index.key(index.group_of(row)), key.as_slice(), "{expr}");
                }
                let keys: Vec<&[KeyAtom]> =
                    (0..index.num_groups() as u32).map(|g| index.key(g)).collect();
                assert_eq!(keys, firsts, "{expr}: first-occurrence order");
            }
        }
        let mut b = TableBuilder::new(&[("t", DataType::Timestamp)]);
        let null = b.push_row(&[Value::Null]).unwrap_err();
        assert!(matches!(null, crate::error::TableError::TypeMismatch { .. }), "{null}");
        let err = GroupIndex::build(&fits, &[ScalarExpr::year("s")]).unwrap_err();
        assert!(matches!(err, crate::error::TableError::InvalidFunctionInput { .. }), "{err}");
    }

    #[test]
    fn key_display_joins() {
        assert_eq!(key_display(&[KeyAtom::from("VN"), KeyAtom::Int(2018)]), "VN|2018");
        assert_eq!(key_display(&[]), "");
    }

    #[test]
    fn build_edge_cases() {
        // Empty table, an all-equal-keys table, and a one-label dimension
        // (radix 1) beside a wider one.
        let empty = TableBuilder::new(&[("s", DataType::Str)]).finish();
        let gi = GroupIndex::build(&empty, &[ScalarExpr::col("s")]).unwrap();
        assert_eq!(gi.num_groups(), 0);
        assert!(gi.row_groups().is_empty());

        let mut b = TableBuilder::new(&[("s", DataType::Str), ("i", DataType::Int64)]);
        for i in 0..100 {
            b.push_row(&[Value::str("only"), Value::Int64(i % 3)]).unwrap();
        }
        let t = b.finish();
        let gi = GroupIndex::build_with(&t, &[ScalarExpr::col("s")], &ExecOptions::new(4)).unwrap();
        assert_eq!(gi.num_groups(), 1);
        assert_eq!(gi.size(0), 100);
        let gi = GroupIndex::build(&t, &[ScalarExpr::col("s"), ScalarExpr::col("i")]).unwrap();
        let keys: Vec<String> = (0..3).map(|g| key_display(gi.key(g))).collect();
        assert_eq!(keys, vec!["only|0", "only|1", "only|2"]);
        assert_eq!(gi.sizes(), &[34, 33, 33]);
    }

    #[test]
    fn forged_parts_are_rejected() {
        let names = || vec!["a".to_string(), "b".to_string()];
        let key = |a: i64, b: i64| vec![KeyAtom::Int(a), KeyAtom::Int(b)];
        let ok =
            GroupIndex::from_parts(names(), vec![0, 1, 0], vec![key(1, 1), key(1, 2)], vec![2, 1]);
        assert_eq!(ok.unwrap().sizes(), &[2, 1]);
        for (rows, keys, sizes, what) in [
            (vec![0, 1, 0], vec![key(1, 1), key(1, 2)], vec![2, 2], "size"),
            (vec![0, 1, 0], vec![key(1, 1), vec![KeyAtom::Int(1)]], vec![2, 1], "dimensions"),
            (vec![0, 2, 0], vec![key(1, 1), key(1, 2)], vec![2, 1], "name group 2"),
            (vec![0, 1, 0], vec![key(1, 1), key(1, 2)], vec![3], "keys vs"),
        ] {
            let err = GroupIndex::from_parts(names(), rows, keys, sizes).unwrap_err();
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
    }
}
