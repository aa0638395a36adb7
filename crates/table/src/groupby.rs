//! Grouping-key encoding shared by the exact executor and the samplers.
//!
//! A [`GroupIndex`] assigns every row a dense group id for a list of grouping
//! expressions (the paper's "finest stratification" when the expressions are
//! the union of all group-by attribute sets), and can *project* those ids
//! onto any subset of the dimensions — the paper's `Π(c, A)` mapping from a
//! finest stratum `c` to the group of query `A` that contains it.

use std::sync::Arc;

use crate::exec::{self, ExecOptions, RowRange, CHUNK_ROWS};
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

/// How a [`GroupIndex`] interns row key tuples into dense group ids.
///
/// Both strategies produce **byte-identical indexes** — per-row group ids,
/// first-occurrence key order, group sizes — so the choice is purely a
/// performance decision and never observable in query results. The hash
/// build interns tuples through a hash map in row order; the sort build
/// sorts row ids by key tuple and walks runs, which touches memory
/// sequentially and wins when the key count approaches the row count
/// (each hash insert would miss cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupStrategy {
    /// Intern key tuples through a hash map in row order.
    Hash,
    /// Sort row ids by key tuple and walk runs, then renumber runs into
    /// first-occurrence order.
    Sort,
}

impl GroupStrategy {
    /// Stable lower-case name, used in `EXPLAIN` output.
    pub fn name(&self) -> &'static str {
        match self {
            GroupStrategy::Hash => "hash",
            GroupStrategy::Sort => "sort",
        }
    }
}

impl std::fmt::Display for GroupStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Metadata-only estimate of the number of distinct key tuples for
/// grouping `table` by `exprs` — no row scan, just dictionary sizes and
/// the ranges of calendar functions. `None` when any dimension's
/// cardinality can't be bounded without scanning (plain integer or
/// computed dimensions).
pub fn estimate_keys(table: &Table, exprs: &[ScalarExpr]) -> Option<u64> {
    let mut product: u64 = 1;
    for expr in exprs {
        let per_dim = match expr {
            ScalarExpr::Column(name) => {
                let column = table.column_by_name(name).ok()?;
                match column.dictionary() {
                    Some(dict) => (dict.len() as u64).max(1),
                    None => return None,
                }
            }
            ScalarExpr::Month(_) => 12,
            ScalarExpr::Day(_) => 31,
            ScalarExpr::Hour(_) => 24,
            ScalarExpr::Indicator { .. } => 2,
            ScalarExpr::Literal(_) => 1,
            _ => return None,
        };
        product = product.saturating_mul(per_dim);
    }
    Some(product)
}

/// Pick a [`GroupStrategy`] from row count and the (optional) key
/// estimate, returning the choice and a human-readable reason — exactly
/// what `EXPLAIN` reports. Sort wins when keys are dense relative to rows
/// (more than one key per 8 rows): run-walking then beats per-row hash
/// inserts that mostly miss cache. Results are identical either way;
/// [`GroupIndex::build_with_strategy`] is how tests pin both paths against
/// each other.
pub fn choose_strategy(rows: usize, key_estimate: Option<u64>) -> (GroupStrategy, String) {
    match key_estimate {
        None => (GroupStrategy::Hash, "key cardinality not known from metadata; hash build".into()),
        Some(keys) => {
            if keys as u128 * 8 > rows as u128 {
                (GroupStrategy::Sort, format!("≈{keys} keys over {rows} rows (dense); sort build"))
            } else {
                (GroupStrategy::Hash, format!("≈{keys} keys over {rows} rows (sparse); hash build"))
            }
        }
    }
}

/// Per-dimension encoding: dense `u32` code per row plus code → atom labels.
struct DimCodes {
    codes: Vec<u32>,
    labels: Vec<KeyAtom>,
}

/// What an interning kernel produces for a row range: per-row group ids
/// (local to the range), group code tuples in first-occurrence order, and
/// group sizes.
type InternOut = (Vec<u32>, Vec<Vec<u32>>, Vec<u64>);

/// An interning kernel: [`GroupIndex::intern_rows`] or
/// [`GroupIndex::intern_rows_sorted`], which produce identical output.
type InternKernel = fn(&[DimCodes], RowRange) -> InternOut;

fn dim_type_error(expr: &ScalarExpr) -> crate::error::TableError {
    crate::error::TableError::invalid(format!(
        "grouping expression {expr} is not integer-like or string"
    ))
}

fn encode_dimension(table: &Table, expr: &ScalarExpr, options: &ExecOptions) -> Result<DimCodes> {
    let bound = expr.bind(table)?;
    let n = table.num_rows();
    if bound.is_plain_str() {
        // Dictionary codes are already dense distinct-value codes.
        let codes = bound.column().str_codes().expect("plain str column").to_vec();
        let dict = bound.column().dictionary().expect("plain str column");
        let labels = (0..dict.len() as u32).map(|c| KeyAtom::Str(dict.get_arc(c))).collect();
        return Ok(DimCodes { codes, labels });
    }
    if options.threads() <= 1 || n <= CHUNK_ROWS {
        // Integer-like dimension: intern values to dense codes in
        // first-seen order.
        let mut map: FxHashMap<i64, u32> = FxHashMap::default();
        let mut labels = Vec::new();
        let mut codes = Vec::with_capacity(n);
        for row in 0..n {
            let v = bound.i64_at(row).ok_or_else(|| dim_type_error(expr))?;
            let next = labels.len() as u32;
            let code = *map.entry(v).or_insert_with(|| {
                labels.push(KeyAtom::Int(v));
                next
            });
            codes.push(code);
        }
        return Ok(DimCodes { codes, labels });
    }

    // Parallel path: per-partition interning, then an ordered merge that
    // reproduces the sequential first-seen code order exactly (a value's
    // global code is assigned at its earliest partition, and partitions are
    // merged in row order).
    let partials: Result<Vec<(Vec<u32>, Vec<i64>)>> = exec::run_partitioned(
        n,
        options,
        |_, range: RowRange| {
            let mut map: FxHashMap<i64, u32> = FxHashMap::default();
            let mut local_labels: Vec<i64> = Vec::new();
            let mut local_codes = Vec::with_capacity(range.len());
            for row in range.rows() {
                let v = bound.i64_at(row).ok_or_else(|| dim_type_error(expr))?;
                let next = local_labels.len() as u32;
                let code = *map.entry(v).or_insert_with(|| {
                    local_labels.push(v);
                    next
                });
                local_codes.push(code);
            }
            Ok((local_codes, local_labels))
        },
        |parts| parts.into_iter().collect(),
    );
    let partials = partials?;

    let mut global: FxHashMap<i64, u32> = FxHashMap::default();
    let mut labels: Vec<KeyAtom> = Vec::new();
    let translations: Vec<Vec<u32>> = partials
        .iter()
        .map(|(_, local_labels)| {
            local_labels
                .iter()
                .map(|&v| {
                    let next = labels.len() as u32;
                    *global.entry(v).or_insert_with(|| {
                        labels.push(KeyAtom::Int(v));
                        next
                    })
                })
                .collect()
        })
        .collect();

    let mut codes = vec![0u32; n];
    exec::for_each_chunk_mut(&mut codes, CHUNK_ROWS, options, |i, out| {
        for (slot, &local) in out.iter_mut().zip(&partials[i].0) {
            *slot = translations[i][local as usize];
        }
    });
    Ok(DimCodes { codes, labels })
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
        let (strategy, _) = Self::strategy_for(table, exprs);
        Self::build_with_strategy(table, exprs, options, strategy)
    }

    /// The [`GroupStrategy`] (and its reason) that [`GroupIndex::build_with`]
    /// will use for this table and dimension list — what `EXPLAIN` reports.
    pub fn strategy_for(table: &Table, exprs: &[ScalarExpr]) -> (GroupStrategy, String) {
        choose_strategy(table.num_rows(), estimate_keys(table, exprs))
    }

    /// Build the index with an explicit interning strategy (see
    /// [`GroupIndex::build_with`] for the determinism contract, which holds
    /// for either strategy).
    pub fn build_with_strategy(
        table: &Table,
        exprs: &[ScalarExpr],
        options: &ExecOptions,
        strategy: GroupStrategy,
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
        let dims: Vec<DimCodes> =
            exprs.iter().map(|e| encode_dimension(table, e, options)).collect::<Result<_>>()?;

        let intern: InternKernel = match strategy {
            GroupStrategy::Hash => Self::intern_rows,
            GroupStrategy::Sort => Self::intern_rows_sorted,
        };
        let (row_groups, group_codes, group_sizes) = if options.threads() <= 1 || n <= CHUNK_ROWS {
            intern(&dims, RowRange { start: 0, end: n })
        } else {
            Self::intern_rows_partitioned(&dims, n, options, intern)
        };

        let group_keys = group_codes
            .iter()
            .map(|codes| {
                codes
                    .iter()
                    .zip(&dims)
                    .map(|(&c, d)| d.labels[c as usize].clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        Ok(GroupIndex { dim_names, row_groups, group_keys, group_sizes })
    }

    /// Merge shard-local indexes **in shard order** into one index over the
    /// concatenated row space. Shard-local first-seen order concatenated
    /// over shards equals global first-seen order, so the result is
    /// identical to building over the concatenated single table. The merge
    /// behind [`RowSpace::group_index`](crate::reader::RowSpace::group_index)
    /// and [`GroupIndex::merge_locals`].
    pub(crate) fn merge_shard_locals(
        dim_names: Vec<String>,
        locals: &[GroupIndex],
        n: usize,
    ) -> GroupIndex {
        let mut intern: FxHashMap<Vec<KeyAtom>, u32> = FxHashMap::default();
        let mut group_keys: Vec<Vec<KeyAtom>> = Vec::new();
        let mut group_sizes: Vec<u64> = Vec::new();
        let translations: Vec<Vec<u32>> = locals
            .iter()
            .map(|local| {
                (0..local.num_groups() as u32)
                    .map(|g| {
                        let key = local.key(g);
                        let gid = match intern.get(key) {
                            Some(&gid) => gid,
                            None => {
                                let gid = group_keys.len() as u32;
                                intern.insert(key.to_vec(), gid);
                                group_keys.push(key.to_vec());
                                group_sizes.push(0);
                                gid
                            }
                        };
                        group_sizes[gid as usize] += local.size(g);
                        gid
                    })
                    .collect()
            })
            .collect();

        let mut row_groups = Vec::with_capacity(n);
        for (local, translation) in locals.iter().zip(&translations) {
            row_groups.extend(local.row_groups().iter().map(|&g| translation[g as usize]));
        }
        GroupIndex { dim_names, row_groups, group_keys, group_sizes }
    }

    /// Merge independently-built indexes over consecutive row blocks into
    /// one index over their concatenation — the public face of the ordered
    /// merge behind [`RowSpace::group_index`](crate::reader::RowSpace::group_index),
    /// used by incremental ingestion to fold a batch-local index into a table's maintained
    /// index without rescanning old rows.
    ///
    /// `locals` are indexes over consecutive blocks of the combined row
    /// space, in row order; every local must stratify by the same
    /// dimensions. Because group ids follow first-occurrence order, the
    /// result is **identical to building one index over the concatenated
    /// rows**: old groups keep their ids, groups first seen in a later
    /// block take the next ids.
    pub fn merge_locals(locals: &[GroupIndex]) -> Result<GroupIndex> {
        let Some(first) = locals.first() else {
            return Err(crate::error::TableError::invalid(
                "merge_locals needs at least one local index",
            ));
        };
        for (i, local) in locals.iter().enumerate().skip(1) {
            if local.dim_names != first.dim_names {
                return Err(crate::error::TableError::invalid(format!(
                    "local index {i} stratifies by {:?}, local 0 by {:?}",
                    local.dim_names, first.dim_names
                )));
            }
        }
        let n = locals.iter().map(|l| l.row_groups.len()).sum();
        Ok(Self::merge_shard_locals(first.dim_names.clone(), locals, n))
    }

    /// Reassemble an index from its parts, validating internal consistency.
    /// This is the decode side of shipping a scatter window over the wire;
    /// every accessor invariant (`group_of` in range, keys and sizes
    /// aligned) is checked here so a corrupt frame cannot panic later.
    pub fn from_parts(
        dim_names: Vec<String>,
        row_groups: Vec<u32>,
        group_keys: Vec<Vec<KeyAtom>>,
        group_sizes: Vec<u64>,
    ) -> Result<GroupIndex> {
        if group_keys.len() != group_sizes.len() {
            return Err(crate::error::TableError::invalid(format!(
                "group index parts disagree: {} keys vs {} sizes",
                group_keys.len(),
                group_sizes.len()
            )));
        }
        let num_groups = group_keys.len() as u32;
        if let Some(&g) = row_groups.iter().find(|&&g| g >= num_groups) {
            return Err(crate::error::TableError::invalid(format!(
                "group index parts name group {g} but only {num_groups} groups exist"
            )));
        }
        Ok(GroupIndex { dim_names, row_groups, group_keys, group_sizes })
    }

    /// Intern the rows of `range` against `dims`: per-row group ids (local
    /// to the range), group code tuples in first-occurrence order, and
    /// group sizes.
    fn intern_rows(dims: &[DimCodes], range: RowRange) -> InternOut {
        let mut row_groups = Vec::with_capacity(range.len());
        let mut group_codes: Vec<Vec<u32>> = Vec::new();
        let mut group_sizes: Vec<u64> = Vec::new();

        if dims.len() <= 2 {
            // Fast path: pack up to two codes into a u64 key.
            let mut intern: FxHashMap<u64, u32> = FxHashMap::default();
            for row in range.rows() {
                let packed = if dims.len() == 1 {
                    u64::from(dims[0].codes[row])
                } else {
                    (u64::from(dims[0].codes[row]) << 32) | u64::from(dims[1].codes[row])
                };
                let next = group_codes.len() as u32;
                let gid = *intern.entry(packed).or_insert_with(|| {
                    group_codes.push(dims.iter().map(|d| d.codes[row]).collect());
                    group_sizes.push(0);
                    next
                });
                group_sizes[gid as usize] += 1;
                row_groups.push(gid);
            }
        } else {
            let mut intern: FxHashMap<Box<[u32]>, u32> = FxHashMap::default();
            let mut scratch: Vec<u32> = Vec::with_capacity(dims.len());
            for row in range.rows() {
                scratch.clear();
                scratch.extend(dims.iter().map(|d| d.codes[row]));
                let gid = match intern.get(scratch.as_slice()) {
                    Some(&gid) => gid,
                    None => {
                        let gid = group_codes.len() as u32;
                        intern.insert(scratch.clone().into_boxed_slice(), gid);
                        group_codes.push(scratch.clone());
                        group_sizes.push(0);
                        gid
                    }
                };
                group_sizes[gid as usize] += 1;
                row_groups.push(gid);
            }
        }
        (row_groups, group_codes, group_sizes)
    }

    /// Sort-based interning of `range` against `dims`: identical output to
    /// [`Self::intern_rows`] — group ids in first-occurrence order — but
    /// computed by sorting row ids by key tuple, walking runs of equal
    /// keys, and renumbering the runs by their earliest row.
    fn intern_rows_sorted(dims: &[DimCodes], range: RowRange) -> InternOut {
        let len = range.len();
        let base = range.start;
        // Run id per local row, plus (first local row, size) per run, in
        // sorted-key order.
        let mut run_of = vec![0u32; len];
        let mut runs: Vec<(u32, u64)> = Vec::new();

        if dims.len() <= 2 {
            let packed = |row: usize| {
                if dims.len() == 1 {
                    u64::from(dims[0].codes[row])
                } else {
                    (u64::from(dims[0].codes[row]) << 32) | u64::from(dims[1].codes[row])
                }
            };
            let mut order: Vec<(u64, u32)> =
                range.rows().map(|row| (packed(row), (row - base) as u32)).collect();
            order.sort_unstable();
            let mut prev: Option<u64> = None;
            for &(key, local) in &order {
                if prev != Some(key) {
                    runs.push((local, 0));
                    prev = Some(key);
                }
                let r = runs.len() - 1;
                runs[r].1 += 1;
                run_of[local as usize] = r as u32;
            }
        } else {
            let tuple = |row: usize| dims.iter().map(|d| d.codes[row]).collect::<Vec<u32>>();
            let mut order: Vec<u32> = (0..len as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                let (a, b) = (a as usize + base, b as usize + base);
                dims.iter()
                    .map(|d| d.codes[a].cmp(&d.codes[b]))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            let mut prev: Option<Vec<u32>> = None;
            for &local in &order {
                let key = tuple(local as usize + base);
                if prev.as_ref() != Some(&key) {
                    runs.push((local, 0));
                    prev = Some(key);
                }
                let r = runs.len() - 1;
                runs[r].1 += 1;
                run_of[local as usize] = r as u32;
            }
        }

        // Renumber runs into first-occurrence order. Within a run the sort
        // is ascending by row, so a run's recorded first row is its
        // earliest, and ordering runs by it reproduces the hash build's
        // group id assignment exactly.
        let mut perm: Vec<u32> = (0..runs.len() as u32).collect();
        perm.sort_unstable_by_key(|&r| runs[r as usize].0);
        let mut gid_of_run = vec![0u32; runs.len()];
        for (gid, &r) in perm.iter().enumerate() {
            gid_of_run[r as usize] = gid as u32;
        }

        let row_groups: Vec<u32> = run_of.iter().map(|&r| gid_of_run[r as usize]).collect();
        let group_codes: Vec<Vec<u32>> = perm
            .iter()
            .map(|&r| {
                let first = runs[r as usize].0 as usize + base;
                dims.iter().map(|d| d.codes[first]).collect()
            })
            .collect();
        let group_sizes: Vec<u64> = perm.iter().map(|&r| runs[r as usize].1).collect();
        (row_groups, group_codes, group_sizes)
    }

    /// Partitioned interning with a deterministic merge. Each partition
    /// interns locally with the strategy's kernel ([`Self::intern_rows`] or
    /// [`Self::intern_rows_sorted`], which produce identical output);
    /// partitions are then merged in row order, so a group's global id is
    /// assigned at its earliest occurrence — identical to the sequential
    /// scan — and per-row ids are rewritten through the per-partition
    /// translation tables in a second parallel pass.
    fn intern_rows_partitioned(
        dims: &[DimCodes],
        n: usize,
        options: &ExecOptions,
        intern_kernel: InternKernel,
    ) -> InternOut {
        let partials =
            exec::run_partitioned(n, options, |_, range| intern_kernel(dims, range), |parts| parts);

        let mut intern: FxHashMap<Box<[u32]>, u32> = FxHashMap::default();
        let mut group_codes: Vec<Vec<u32>> = Vec::new();
        let mut group_sizes: Vec<u64> = Vec::new();
        let translations: Vec<Vec<u32>> = partials
            .iter()
            .map(|(_, local_codes, local_sizes)| {
                local_codes
                    .iter()
                    .zip(local_sizes)
                    .map(|(codes, &size)| {
                        let gid = match intern.get(codes.as_slice()) {
                            Some(&gid) => gid,
                            None => {
                                let gid = group_codes.len() as u32;
                                intern.insert(codes.clone().into_boxed_slice(), gid);
                                group_codes.push(codes.clone());
                                group_sizes.push(0);
                                gid
                            }
                        };
                        group_sizes[gid as usize] += size;
                        gid
                    })
                    .collect()
            })
            .collect();

        let mut row_groups = vec![0u32; n];
        exec::for_each_chunk_mut(&mut row_groups, CHUNK_ROWS, options, |i, out| {
            for (slot, &local) in out.iter_mut().zip(&partials[i].0) {
                *slot = translations[i][local as usize];
            }
        });
        (row_groups, group_codes, group_sizes)
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
    pub fn project(&self, dims: &[usize]) -> GroupProjection {
        assert!(dims.iter().all(|&d| d < self.num_dims()), "projection dim out of range");
        let mut intern: FxHashMap<Vec<KeyAtom>, u32> = FxHashMap::default();
        let mut coarse_keys: Vec<Vec<KeyAtom>> = Vec::new();
        let mut fine_to_coarse = Vec::with_capacity(self.num_groups());
        for key in &self.group_keys {
            let sub: Vec<KeyAtom> = dims.iter().map(|&d| key[d].clone()).collect();
            let next = coarse_keys.len() as u32;
            let cid = *intern.entry(sub.clone()).or_insert_with(|| {
                coarse_keys.push(sub);
                next
            });
            fine_to_coarse.push(cid);
        }
        let dim_names = dims.iter().map(|&d| self.dim_names[d].clone()).collect();
        GroupProjection { dim_names, fine_to_coarse, coarse_keys }
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
        assert_eq!(gi.num_groups(), 5);
        let total: u64 = gi.sizes().iter().sum();
        assert_eq!(total, 6);
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
        // timestamp-function dimensions, so both the packed and general
        // interning paths and the parallel dimension encoder are exercised.
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
    fn sorted_build_matches_hash_build() {
        // Same matrix as parallel_build_matches_sequential, but pinning the
        // sort-based interner against the hash interner: the two strategies
        // must produce byte-identical indexes for every dimension shape and
        // thread count.
        let n = 2 * crate::exec::CHUNK_ROWS + 999;
        let mut b = TableBuilder::new(&[
            ("s", DataType::Str),
            ("i", DataType::Int64),
            ("t", DataType::Timestamp),
        ]);
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            b.push_row(&[
                Value::str(format!("s{}", state % 61)),
                Value::Int64((state >> 5) as i64 % 37),
                Value::Timestamp(epoch_seconds(2015 + (state % 5) as i32, 1, 1, 0, 0, 0)),
            ])
            .unwrap();
        }
        let t = b.finish();
        for exprs in [
            vec![ScalarExpr::col("s")],
            vec![ScalarExpr::col("s"), ScalarExpr::col("i")],
            vec![ScalarExpr::col("s"), ScalarExpr::col("i"), ScalarExpr::year("t")],
        ] {
            for threads in [1usize, 2, 8] {
                let opts = ExecOptions::new(threads);
                let hash = GroupIndex::build_with_strategy(&t, &exprs, &opts, GroupStrategy::Hash)
                    .unwrap();
                let sort = GroupIndex::build_with_strategy(&t, &exprs, &opts, GroupStrategy::Sort)
                    .unwrap();
                assert_eq!(sort.row_groups(), hash.row_groups(), "threads = {threads}");
                assert_eq!(sort.sizes(), hash.sizes());
                for g in 0..hash.num_groups() as u32 {
                    assert_eq!(sort.key(g), hash.key(g));
                }
            }
        }
    }

    #[test]
    fn sorted_build_edge_cases() {
        // Empty table, single row, and an all-equal-keys table.
        let empty = TableBuilder::new(&[("s", DataType::Str)]).finish();
        let by_sort = |t: &Table, threads| {
            let options = ExecOptions::new(threads);
            GroupIndex::build_with_strategy(
                t,
                &[ScalarExpr::col("s")],
                &options,
                GroupStrategy::Sort,
            )
            .unwrap()
        };
        let gi = by_sort(&empty, 1);
        assert_eq!(gi.num_groups(), 0);
        assert!(gi.row_groups().is_empty());

        let mut b = TableBuilder::new(&[("s", DataType::Str)]);
        for _ in 0..100 {
            b.push_row(&[Value::str("only")]).unwrap();
        }
        let t = b.finish();
        let gi = by_sort(&t, 4);
        assert_eq!(gi.num_groups(), 1);
        assert_eq!(gi.size(0), 100);
    }

    #[test]
    fn estimate_keys_from_metadata() {
        let t = table(); // major: 2 dict entries; year: Int64; t: Timestamp
        assert_eq!(estimate_keys(&t, &[ScalarExpr::col("major")]), Some(2));
        assert_eq!(estimate_keys(&t, &[ScalarExpr::col("year")]), None);
        assert_eq!(
            estimate_keys(&t, &[ScalarExpr::col("major"), ScalarExpr::month("t")]),
            Some(24)
        );
        assert_eq!(estimate_keys(&t, &[ScalarExpr::hour("t")]), Some(24));
        assert_eq!(estimate_keys(&t, &[]), Some(1));
        assert_eq!(estimate_keys(&t, &[ScalarExpr::year("t")]), None);
    }

    #[test]
    fn strategy_heuristic_prefers_sort_for_dense_keys() {
        let (s, reason) = choose_strategy(1000, Some(2));
        assert_eq!(s, GroupStrategy::Hash);
        assert!(reason.contains("sparse"), "{reason}");
        let (s, reason) = choose_strategy(1000, Some(500));
        assert_eq!(s, GroupStrategy::Sort);
        assert!(reason.contains("dense"), "{reason}");
        let (s, reason) = choose_strategy(1000, None);
        assert_eq!(s, GroupStrategy::Hash);
        assert!(reason.contains("not known"), "{reason}");
        assert_eq!(GroupStrategy::Hash.name(), "hash");
        assert_eq!(GroupStrategy::Sort.to_string(), "sort");
    }
}
