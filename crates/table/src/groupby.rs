//! Grouping-key encoding shared by the exact executor and the samplers.
//!
//! A [`GroupIndex`] assigns every row a dense group id for a list of grouping
//! expressions (the paper's "finest stratification" when the expressions are
//! the union of all group-by attribute sets), and can *project* those ids
//! onto any subset of the dimensions — the paper's `Π(c, A)` mapping from a
//! finest stratum `c` to the group of query `A` that contains it.
//!
//! Two functions do all of it, at different key types. `intern` scans rows
//! in order and hands each distinct key the next dense id at its first
//! occurrence: `i64` values when encoding a dimension, mixed-radix packed
//! `u64` code tuples when grouping. `merge_ordered` joins partial results in
//! row order through translation tables: the partitions of a parallel scan,
//! the shards of a row space, an ingest batch behind a maintained index,
//! and (one partial) the coarse keys of a projection. Group ids are therefore
//! in **first-occurrence order** however the rows were cut up — the
//! determinism contract every golden rests on.

use std::borrow::Cow;
use std::hash::Hash;
use std::sync::Arc;

use crate::exec::{self, ExecOptions, CHUNK_ROWS};
use crate::expr::ScalarExpr;
use crate::fxhash::FxHashMap;
use crate::table::Table;
use crate::types::Value;
use crate::Result;

/// One component of a group key. Unlike [`Value`], atoms are hashable and
/// totally ordered, because floats never appear in group keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyAtom {
    /// Integer component (also used for years, months, hours, bools).
    Int(i64),
    /// String component.
    Str(Arc<str>),
}

impl KeyAtom {
    /// Convert to a dynamic [`Value`].
    pub fn to_value(&self) -> Value {
        match self {
            KeyAtom::Int(v) => Value::Int64(*v),
            KeyAtom::Str(s) => Value::Str(Arc::clone(s)),
        }
    }
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

/// What interning yields: a dense id per row, the distinct keys in
/// first-occurrence order, and each key's row count.
struct Interned<K> {
    ids: Vec<u32>,
    keys: Vec<K>,
    sizes: Vec<u64>,
}

/// **The interning kernel** — the only per-row map insert in this module.
/// Walks the rows from `first_row` on in row order, one per slot of `ids`,
/// and writes each row's dense id there: a distinct `key_at(row)` takes the
/// next id at its first occurrence (ids are local to the walk). Returns the
/// distinct keys in that order and their row counts.
fn intern<K: Copy + Eq + Hash>(
    first_row: usize,
    ids: &mut [u32],
    key_at: impl Fn(usize) -> Result<K>,
) -> Result<(Vec<K>, Vec<u64>)> {
    let mut map: FxHashMap<K, u32> = FxHashMap::default();
    let (mut keys, mut sizes) = (Vec::new(), Vec::new());
    for (slot, row) in ids.iter_mut().zip(first_row..) {
        let key = key_at(row)?;
        let next = keys.len() as u32;
        let id = *map.entry(key).or_insert_with(|| {
            keys.push(key);
            sizes.push(0);
            next
        });
        sizes[id as usize] += 1;
        *slot = id;
    }
    Ok((keys, sizes))
}

/// What [`merge_ordered`] yields: per partial, the table translating its
/// local ids to merged ids; the merged keys in first-occurrence order; and
/// their summed sizes.
struct Merged<K> {
    translations: Vec<Vec<u32>>,
    keys: Vec<K>,
    sizes: Vec<u64>,
}

/// **The ordered merge** — the only builder of translation tables. Each
/// partial lists its `(key, size)` pairs in local first-occurrence order;
/// walking the partials **in row order** assigns a key's merged id at its
/// earliest partial, so concatenated local first-seen order becomes global
/// first-seen order: exactly what one [`intern`] over all rows assigns.
fn merge_ordered<K, P>(partials: impl IntoIterator<Item = P>) -> Merged<K>
where
    K: Clone + Eq + Hash,
    P: IntoIterator<Item = (K, u64)>,
{
    let mut map: FxHashMap<K, u32> = FxHashMap::default();
    let mut keys: Vec<K> = Vec::new();
    let mut sizes: Vec<u64> = Vec::new();
    let mut translate = |(key, size): (K, u64)| {
        let id = match map.get(&key) {
            Some(&id) => id,
            None => {
                let id = keys.len() as u32;
                map.insert(key.clone(), id);
                keys.push(key);
                sizes.push(0);
                id
            }
        };
        sizes[id as usize] += size;
        id
    };
    let translations = partials
        .into_iter()
        .map(|partial| partial.into_iter().map(&mut translate).collect())
        .collect();
    Merged { translations, keys, sizes }
}

/// Intern all `n` rows: [`intern`] per 64Ki-row partition, [`merge_ordered`]
/// over the partitions, and a second parallel pass rewriting per-row ids
/// through the translation tables — identical to one sequential scan for
/// any thread count. One partition (or one worker) is that scan. The ids
/// are written and rewritten in the one buffer that is returned, so a build
/// allocates per-row memory once however the rows were cut up.
fn intern_rows<K: Copy + Eq + Hash + Send + Sync>(
    n: usize,
    options: &ExecOptions,
    key_at: impl Fn(usize) -> Result<K> + Sync,
) -> Result<Interned<K>> {
    let block = if options.threads() <= 1 { n.max(1) } else { CHUNK_ROWS };
    let mut ids = vec![0u32; n];
    let mut partials: Vec<(Vec<K>, Vec<u64>)> =
        exec::for_each_chunk_mut(&mut ids, block, options, |i, ids| {
            intern(i * block, ids, &key_at)
        })
        .into_iter()
        .collect::<Result<_>>()?;
    if partials.len() <= 1 {
        let (keys, sizes) = partials.pop().unwrap_or_default();
        return Ok(Interned { ids, keys, sizes });
    }
    let merged = merge_ordered(
        partials.iter().map(|(keys, sizes)| keys.iter().copied().zip(sizes.iter().copied())),
    );
    exec::for_each_chunk_mut(&mut ids, block, options, |i, ids| {
        for id in ids {
            *id = merged.translations[i][*id as usize];
        }
    });
    Ok(Interned { ids, keys: merged.keys, sizes: merged.sizes })
}

/// One column of a packed key: a dense `u32` code per row and, per code, the
/// key atoms it stands for — one atom for an encoded dimension, a whole key
/// prefix after a fold (see [`intern_tuples`]). The label count is the
/// column's radix. A string dimension lends its dictionary codes; every
/// other column owns the ids an [`intern_rows`] produced.
struct CodeColumn<'a> {
    codes: Cow<'a, [u32]>,
    labels: Vec<Vec<KeyAtom>>,
}

fn dim_type_error(expr: &ScalarExpr) -> crate::error::TableError {
    crate::error::TableError::invalid(format!(
        "grouping expression {expr} is not integer-like or string"
    ))
}

fn encode_dimension<'a>(
    table: &'a Table,
    expr: &ScalarExpr,
    options: &ExecOptions,
) -> Result<CodeColumn<'a>> {
    let bound = expr.bind(table)?;
    if bound.is_plain_str() {
        // Dictionary codes are already dense distinct-value codes.
        let codes = Cow::Borrowed(bound.column().str_codes().expect("plain str column"));
        let dict = bound.column().dictionary().expect("plain str column");
        let labels = (0..dict.len() as u32).map(|c| vec![KeyAtom::Str(dict.get_arc(c))]).collect();
        return Ok(CodeColumn { codes, labels });
    }
    // Integer-like dimension: intern values to dense codes in first-seen
    // order.
    let interned = intern_rows(table.num_rows(), options, |row| {
        bound.i64_at(row).ok_or_else(|| dim_type_error(expr))
    })?;
    let labels = interned.keys.into_iter().map(|v| vec![KeyAtom::Int(v)]).collect();
    Ok(CodeColumn { codes: Cow::Owned(interned.ids), labels })
}

/// Intern the rows' code tuples: every tuple is packed into one mixed-radix
/// `u64` (radix = each column's label count, so the radix product is the
/// exact key-space bound) and handed to [`intern_rows`]. When the product
/// would overflow, the longest prefix that fits is interned first and its
/// dense ids — at most `n` < 2³² of them — continue as one column: the same
/// kernel applied again. Returns the group column (per-row group ids, group
/// keys) and the group sizes.
fn intern_tuples<'a>(
    mut columns: Vec<CodeColumn<'a>>,
    n: usize,
    options: &ExecOptions,
) -> Result<(CodeColumn<'a>, Vec<u64>)> {
    loop {
        let mut fit = 0;
        let mut product = 1u64;
        while let Some(p) =
            columns.get(fit).and_then(|c| product.checked_mul(c.labels.len() as u64))
        {
            product = p;
            fit += 1;
        }
        assert!(fit >= 2 || fit == columns.len(), "two u32 code spaces always fit a u64");
        let head = &columns[..fit];
        let packed = intern_rows(n, options, |row| {
            Ok(head.iter().fold(0, |key, c| key * c.labels.len() as u64 + u64::from(c.codes[row])))
        })?;
        let labels = packed
            .keys
            .iter()
            .map(|&key| {
                let mut rest = key;
                let mut atoms: Vec<&[KeyAtom]> = Vec::with_capacity(fit);
                for column in head.iter().rev() {
                    let radix = column.labels.len() as u64;
                    atoms.push(&column.labels[(rest % radix) as usize]);
                    rest /= radix;
                }
                atoms.into_iter().rev().flatten().cloned().collect()
            })
            .collect();
        let groups = CodeColumn { codes: Cow::Owned(packed.ids), labels };
        if fit == columns.len() {
            return Ok((groups, packed.sizes));
        }
        columns.splice(..fit, [groups]);
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

    /// Build the index with explicit execution options.
    ///
    /// The parallel path interns group keys per partition and merges the
    /// partitions **in row order**, so group ids follow first-occurrence
    /// order and the result is identical to the sequential build for any
    /// thread count.
    pub fn build_with(
        table: &Table,
        exprs: &[ScalarExpr],
        options: &ExecOptions,
    ) -> Result<GroupIndex> {
        let dim_names = exprs.iter().map(|e| e.display_name()).collect();
        let n = table.num_rows();
        if exprs.is_empty() {
            return Ok(GroupIndex {
                dim_names,
                row_groups: vec![0; n],
                group_keys: vec![Vec::new()],
                group_sizes: vec![n as u64],
            });
        }
        let dims =
            exprs.iter().map(|e| encode_dimension(table, e, options)).collect::<Result<_>>()?;
        let (groups, group_sizes) = intern_tuples(dims, n, options)?;
        Ok(GroupIndex {
            dim_names,
            row_groups: groups.codes.into_owned(),
            group_keys: groups.labels,
            group_sizes,
        })
    }

    /// This index as a [`merge_ordered`] partial.
    fn partial(&self) -> impl Iterator<Item = (&[KeyAtom], u64)> {
        self.group_keys.iter().map(Vec::as_slice).zip(self.group_sizes.iter().copied())
    }

    /// Fold `batch` — an index over the rows that directly follow this
    /// one's, stratified by the same dimensions — into this index, in
    /// O(groups + batch rows): old rows keep their ids, old groups keep
    /// theirs, groups first seen in the batch take the next ids. The result
    /// is **identical to building one index over the concatenated rows**.
    pub fn append(&mut self, batch: &GroupIndex) -> Result<()> {
        if batch.dim_names != self.dim_names {
            return Err(crate::error::TableError::invalid(format!(
                "appended index stratifies by {:?}, this one by {:?}",
                batch.dim_names, self.dim_names
            )));
        }
        let Merged { translations, keys, sizes } = merge_ordered([self.partial(), batch.partial()]);
        let new_keys: Vec<Vec<KeyAtom>> =
            keys[self.group_keys.len()..].iter().map(|key| key.to_vec()).collect();
        self.group_keys.extend(new_keys);
        self.group_sizes = sizes;
        self.row_groups.extend(batch.row_groups.iter().map(|&g| translations[1][g as usize]));
        Ok(())
    }

    /// Merge independently-built indexes over consecutive row blocks into
    /// one index over their concatenation — the merge behind
    /// [`RowSpace::group_index`](crate::reader::RowSpace::group_index).
    ///
    /// `locals` are indexes over consecutive blocks of the combined row
    /// space, in row order; every local must stratify by the same
    /// dimensions. Because group ids follow first-occurrence order, the
    /// result is **identical to building one index over the concatenated
    /// rows** (see [`GroupIndex::append`]).
    pub fn merge_locals(locals: &[GroupIndex]) -> Result<GroupIndex> {
        let Some((first, rest)) = locals.split_first() else {
            return Err(crate::error::TableError::invalid(
                "merge_locals needs at least one local index",
            ));
        };
        let mut merged = first.clone();
        merged.row_groups.reserve(rest.iter().map(GroupIndex::num_rows).sum());
        for local in rest {
            merged.append(local)?;
        }
        Ok(merged)
    }

    /// Reassemble an index from its parts, validating internal consistency.
    /// This is the decode side of shipping a scatter window over the wire;
    /// every accessor invariant (`group_of` in range, sizes equal to the
    /// per-group row counts, every key as wide as the dimension list) is
    /// checked here so a corrupt or forged frame can neither panic later
    /// nor bias a stratum's population.
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
    /// containing it, along with the coarse keys — a `merge_ordered` of
    /// one partial, the fine groups' projected keys.
    pub fn project(&self, dims: &[usize]) -> GroupProjection {
        assert!(dims.iter().all(|&d| d < self.num_dims()), "projection dim out of range");
        let projected = self.partial().map(|(key, size)| {
            (dims.iter().map(|&d| key[d].clone()).collect::<Vec<KeyAtom>>(), size)
        });
        let Merged { mut translations, keys, .. } = merge_ordered([projected]);
        let dim_names = dims.iter().map(|&d| self.dim_names[d].clone()).collect();
        GroupProjection {
            dim_names,
            fine_to_coarse: translations.swap_remove(0),
            coarse_keys: keys,
        }
    }
}

/// The result of projecting a [`GroupIndex`] onto a dimension subset.
#[derive(Debug, Clone)]
pub struct GroupProjection {
    dim_names: Vec<String>,
    fine_to_coarse: Vec<u32>,
    coarse_keys: Vec<Vec<KeyAtom>>,
}

impl GroupProjection {
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
