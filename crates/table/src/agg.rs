//! Aggregate functions and the cells that fold them.
//!
//! The aggregation pass folds one cell per (group, aggregate), and each
//! aggregate kind folds only what it reads ([`Cells`]): the exact pass's
//! [`ExactCells`] are a count for `COUNT` ([`CountCell`]), a count and a
//! sum for `SUM` and `COUNT_IF` ([`SumCell`]), a count and one bound for
//! `MIN` and `MAX` ([`MinCell`], [`MaxCell`]), a count and the Welford
//! mean for `AVG` ([`MeanCell`]), and the full moments only for `VAR` and
//! `STD` ([`AggState`]). A pass stores them aggregate-major, one typed
//! [`CellColumn`] per aggregate indexed by slot. Every cell keeps the raw
//! row count the result's `group_rows` and the rule dropping empty groups
//! read, and each field sees the operations and order the same field of an
//! `AggState` sees, so a narrow cell answers the full state's bits. The
//! estimator's [`WeightedCells`] split the same way under Horvitz–Thompson
//! weights, mirroring [`WeightedAggState`].
//!
//! [`AggState`] is also the statistics pass's state: CVOPT's allocation
//! reads each stratum's mean and variance, and its lane-merge slice kernel
//! ([`AggState::update_slice`]) folds a stratum's values a run at a time.

use crate::expr::ScalarExpr;
use crate::predicate::CmpOp;

mod weighted;
pub use weighted::{WeightedAggState, WeightedCells, WeightedCount, WeightedMean};

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// `COUNT(*)` / `COUNT(col)` — number of rows.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `AVG(col)`.
    Avg,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `VAR(col)` — sample variance (n−1 denominator).
    Var,
    /// `STD(col)` — sample standard deviation.
    Std,
    /// `COUNT_IF(col OP threshold)` — number of rows whose value matches.
    CountIf,
}

impl AggKind {
    /// SQL-ish name.
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Count => "COUNT",
            AggKind::Sum => "SUM",
            AggKind::Avg => "AVG",
            AggKind::Min => "MIN",
            AggKind::Max => "MAX",
            AggKind::Var => "VAR",
            AggKind::Std => "STD",
            AggKind::CountIf => "COUNT_IF",
        }
    }
}

/// One aggregate in a query's select list.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// Which function.
    pub kind: AggKind,
    /// Input expression (`None` only for `COUNT(*)`).
    pub input: Option<ScalarExpr>,
    /// For [`AggKind::CountIf`]: the comparison applied to the input value.
    pub condition: Option<(CmpOp, f64)>,
    /// Output column label.
    pub alias: String,
}

impl AggExpr {
    fn new(kind: AggKind, input: Option<ScalarExpr>, condition: Option<(CmpOp, f64)>) -> Self {
        let alias = match (&input, kind) {
            (None, _) => format!("{}(*)", kind.name()),
            (Some(e), AggKind::CountIf) => {
                let (op, th) = condition.expect("COUNT_IF requires a condition");
                format!("COUNT_IF({} {} {})", e.display_name(), op, th)
            }
            (Some(e), _) => format!("{}({})", kind.name(), e.display_name()),
        };
        AggExpr { kind, input, condition, alias }
    }

    /// `COUNT(*)`.
    pub fn count() -> Self {
        Self::new(AggKind::Count, None, None)
    }

    /// `SUM(col)`.
    pub fn sum(col: impl Into<String>) -> Self {
        Self::new(AggKind::Sum, Some(ScalarExpr::col(col)), None)
    }

    /// `AVG(col)`.
    pub fn avg(col: impl Into<String>) -> Self {
        Self::new(AggKind::Avg, Some(ScalarExpr::col(col)), None)
    }

    /// `MIN(col)`.
    pub fn min(col: impl Into<String>) -> Self {
        Self::new(AggKind::Min, Some(ScalarExpr::col(col)), None)
    }

    /// `MAX(col)`.
    pub fn max(col: impl Into<String>) -> Self {
        Self::new(AggKind::Max, Some(ScalarExpr::col(col)), None)
    }

    /// `VAR(col)` (sample variance).
    pub fn var(col: impl Into<String>) -> Self {
        Self::new(AggKind::Var, Some(ScalarExpr::col(col)), None)
    }

    /// `STD(col)` (sample standard deviation).
    pub fn std(col: impl Into<String>) -> Self {
        Self::new(AggKind::Std, Some(ScalarExpr::col(col)), None)
    }

    /// `COUNT_IF(col OP threshold)`.
    pub fn count_if(col: impl Into<String>, op: CmpOp, threshold: f64) -> Self {
        Self::new(AggKind::CountIf, Some(ScalarExpr::col(col)), Some((op, threshold)))
    }

    /// An aggregate over an arbitrary scalar expression
    /// (`SUM(price * quantity)`, `AVG(CASE … END)`, …). `COUNT_IF` takes
    /// its condition through [`AggExpr::count_if_over`].
    pub fn over(kind: AggKind, expr: ScalarExpr) -> Self {
        debug_assert!(kind != AggKind::CountIf, "use count_if_over for COUNT_IF");
        Self::new(kind, Some(expr), None)
    }

    /// `COUNT_IF(expr OP threshold)` over an arbitrary scalar expression.
    pub fn count_if_over(expr: ScalarExpr, op: CmpOp, threshold: f64) -> Self {
        Self::new(AggKind::CountIf, Some(expr), Some((op, threshold)))
    }

    /// Override the output label.
    pub fn with_alias(mut self, alias: impl Into<String>) -> Self {
        self.alias = alias.into();
        self
    }
}

/// One cell of the aggregation pass
/// ([`GroupByQuery::execute_with`](crate::GroupByQuery::execute_with),
/// [`GroupByQuery::aggregate`](crate::GroupByQuery::aggregate)): what one
/// aggregate folds for one group. Each aggregate kind folds its own cell
/// type, named by a [`Cells`] family.
pub trait Accumulator: Copy + Default + Send + Sync + std::fmt::Debug {
    /// Accumulate one row's value; `weight` is how many table rows the row
    /// stands for (1 for a table row itself).
    fn update(&mut self, value: f64, weight: f64);
    /// Merge another accumulator into this one, exactly. Two cases are
    /// contract, bit for bit, in every cell type of both families:
    /// - merging a cell that accumulated no row (`other.rows() == 0`)
    ///   leaves `self` unchanged, so a read-out may skip every group that
    ///   folded no row;
    /// - merging into a cell that accumulated no row copies `other`, so the
    ///   pass takes a group's first partial as is.
    fn merge(&mut self, other: &Self);
    /// Rows accumulated so far (raw, not weighted).
    fn rows(&self) -> u64;
    /// The aggregate `kind` as this accumulator holds it.
    fn value(&self, kind: AggKind) -> f64;
    /// Read out the aggregate `kind`: its [`value`](Accumulator::value),
    /// a NaN read as the one `f64::NAN`. Rust leaves the sign and payload
    /// of a NaN that arithmetic produces to the compiler, so two builds of
    /// one fold — or a narrow cell and the full state it mirrors — may hold
    /// different NaNs; their answers do not.
    fn finalize(&self, kind: AggKind) -> f64 {
        let value = self.value(kind);
        if value.is_nan() {
            f64::NAN
        } else {
            value
        }
    }
}

/// The cell each aggregate kind folds, for one pass. The pass is
/// monomorphised over the family: [`ExactCells`] fed unit weights is the
/// exact executor, a Horvitz–Thompson family fed sample weights is the
/// estimator — same walk, same partition-order merge, same result assembly.
/// A cell holds only what its kind reads, plus the raw row count that
/// [`QueryResult::group_rows`](crate::QueryResult::group_rows) and the rule
/// dropping empty groups read.
pub trait Cells: 'static {
    /// `COUNT`.
    type Count: Accumulator;
    /// `SUM` and `COUNT_IF` (whose input is a 0/1 hit).
    type Sum: Accumulator;
    /// `MIN`.
    type Min: Accumulator;
    /// `MAX`.
    type Max: Accumulator;
    /// `AVG`.
    type Avg: Accumulator;
    /// `VAR` and `STD`: the full moments.
    type Moments: Accumulator;
}

/// The exact pass's cells. Each field of each cell sees the operations the
/// same field of an [`AggState`] fed the same rows sees, in the same order,
/// so every answer is the one a full `AggState` would read out, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExactCells;

impl Cells for ExactCells {
    type Count = CountCell;
    type Sum = SumCell;
    type Min = MinCell;
    type Max = MaxCell;
    type Avg = MeanCell;
    type Moments = AggState;
}

/// Exact `COUNT`: a count only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountCell {
    /// Rows counted.
    pub count: u64,
}

impl Accumulator for CountCell {
    #[inline]
    fn update(&mut self, _value: f64, _unit: f64) {
        self.count += 1;
    }

    fn merge(&mut self, other: &Self) {
        self.count += other.count;
    }

    fn rows(&self) -> u64 {
        self.count
    }

    fn value(&self, _kind: AggKind) -> f64 {
        self.count as f64
    }
}

/// Exact `SUM` and `COUNT_IF`: the count and the sum.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SumCell {
    /// Values accumulated.
    pub count: u64,
    /// Their sum.
    pub sum: f64,
}

impl Accumulator for SumCell {
    #[inline]
    fn update(&mut self, value: f64, _unit: f64) {
        self.count += 1;
        self.sum += value;
    }

    fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    fn rows(&self) -> u64 {
        self.count
    }

    fn value(&self, _kind: AggKind) -> f64 {
        self.sum
    }
}

/// `MIN`, exact and weighted: the rows and the least value. A row of
/// non-positive weight is ignored, as every weighted cell ignores it; a
/// table row weighs 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinCell {
    /// Rows accumulated.
    pub count: u64,
    /// The least of them.
    pub min: f64,
}

impl Default for MinCell {
    fn default() -> Self {
        MinCell { count: 0, min: f64::INFINITY }
    }
}

impl Accumulator for MinCell {
    #[inline]
    fn update(&mut self, value: f64, weight: f64) {
        if weight <= 0.0 {
            return;
        }
        self.count += 1;
        if value < self.min {
            self.min = value;
        }
    }

    fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
    }

    fn rows(&self) -> u64 {
        self.count
    }

    fn value(&self, _kind: AggKind) -> f64 {
        self.min
    }
}

/// `MAX`, exact and weighted: the rows and the greatest value, a row of
/// non-positive weight ignored as in [`MinCell`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxCell {
    /// Rows accumulated.
    pub count: u64,
    /// The greatest of them.
    pub max: f64,
}

impl Default for MaxCell {
    fn default() -> Self {
        MaxCell { count: 0, max: f64::NEG_INFINITY }
    }
}

impl Accumulator for MaxCell {
    #[inline]
    fn update(&mut self, value: f64, weight: f64) {
        if weight <= 0.0 {
            return;
        }
        self.count += 1;
        if value > self.max {
            self.max = value;
        }
    }

    fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    fn rows(&self) -> u64 {
        self.count
    }

    fn value(&self, _kind: AggKind) -> f64 {
        self.max
    }
}

/// Exact `AVG`: the count and the Welford running mean — the update and
/// the Chan merge of [`AggState`]'s `mean`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MeanCell {
    /// Values accumulated.
    pub count: u64,
    /// Their running mean.
    pub mean: f64,
}

impl Accumulator for MeanCell {
    #[inline]
    fn update(&mut self, value: f64, _unit: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
    }

    fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.count += other.count;
    }

    fn rows(&self) -> u64 {
        self.count
    }

    fn value(&self, _kind: AggKind) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }
}

/// One aggregate's cells, one per slot or group: the typed column of the
/// cell its kind folds under the family `F`.
#[derive(Debug, Clone)]
pub enum CellColumn<F: Cells> {
    /// `COUNT` cells.
    Count(Vec<F::Count>),
    /// `SUM` and `COUNT_IF` cells.
    Sum(Vec<F::Sum>),
    /// `MIN` cells.
    Min(Vec<F::Min>),
    /// `MAX` cells.
    Max(Vec<F::Max>),
    /// `AVG` cells.
    Avg(Vec<F::Avg>),
    /// `VAR` and `STD` cells.
    Moments(Vec<F::Moments>),
}

/// `$body` over the typed cell vector `$cells` of `$column`, whatever its
/// variant.
macro_rules! each_cells {
    ($column:expr, $cells:ident => $body:expr) => {
        match $column {
            $crate::agg::CellColumn::Count($cells) => $body,
            $crate::agg::CellColumn::Sum($cells) => $body,
            $crate::agg::CellColumn::Min($cells) => $body,
            $crate::agg::CellColumn::Max($cells) => $body,
            $crate::agg::CellColumn::Avg($cells) => $body,
            $crate::agg::CellColumn::Moments($cells) => $body,
        }
    };
}
pub(crate) use each_cells;

impl<F: Cells> CellColumn<F> {
    /// An empty column of the cells `kind` folds, with room for `capacity`.
    pub(crate) fn with_capacity(kind: AggKind, capacity: usize) -> Self {
        match kind {
            AggKind::Count => CellColumn::Count(Vec::with_capacity(capacity)),
            AggKind::Sum | AggKind::CountIf => CellColumn::Sum(Vec::with_capacity(capacity)),
            AggKind::Min => CellColumn::Min(Vec::with_capacity(capacity)),
            AggKind::Max => CellColumn::Max(Vec::with_capacity(capacity)),
            AggKind::Avg => CellColumn::Avg(Vec::with_capacity(capacity)),
            AggKind::Var | AggKind::Std => CellColumn::Moments(Vec::with_capacity(capacity)),
        }
    }

    /// Whether this column holds the cells `kind` folds.
    pub(crate) fn folds(&self, kind: AggKind) -> bool {
        let want = CellColumn::<F>::with_capacity(kind, 0);
        std::mem::discriminant(self) == std::mem::discriminant(&want)
    }

    /// Bytes of one cell.
    pub(crate) fn cell_bytes(&self) -> usize {
        each_cells!(self, cells => cell_size(cells))
    }

    /// Cells in the column.
    pub(crate) fn len(&self) -> usize {
        each_cells!(self, cells => cells.len())
    }

    /// Grow (or cut) the column to `len` cells, new ones empty.
    pub(crate) fn resize(&mut self, len: usize) {
        each_cells!(self, cells => cells.resize(len, Default::default()))
    }

    /// Rows cell `at` accumulated.
    pub(crate) fn rows(&self, at: usize) -> u64 {
        each_cells!(self, cells => cells[at].rows())
    }

    /// Cell `at` read out as the aggregate `kind`.
    pub(crate) fn finalize(&self, at: usize, kind: AggKind) -> f64 {
        each_cells!(self, cells => cells[at].finalize(kind))
    }

    /// Set `live[at]` for every cell `at` that accumulated a row.
    pub(crate) fn mark_live(&self, live: &mut [bool]) {
        each_cells!(self, cells => {
            cells.iter().zip(live).for_each(|(cell, live)| *live |= cell.rows() > 0)
        })
    }

    /// Merge `other`'s cell `i` into this column's cell `into[i]`, for
    /// every `i` in order.
    ///
    /// # Panics
    /// If the columns hold different cells, or a target is out of range.
    pub(crate) fn merge_at(&mut self, other: &Self, into: &[u32]) {
        self.merge_pairs(other, (0..other.len()).zip(into.iter().copied()))
    }

    /// Merge `other`'s cell `from[i]` into this column's cell `into[i]`,
    /// for every `i` in order.
    ///
    /// # Panics
    /// As [`CellColumn::merge_at`], or if a source is out of range.
    pub(crate) fn merge_from(&mut self, other: &Self, from: &[u32], into: &[u32]) {
        self.merge_pairs(other, from.iter().map(|&g| g as usize).zip(into.iter().copied()))
    }

    /// Merge `other`'s cell `from` into this column's cell `at`, for every
    /// `(from, at)` of `pairs` in order.
    fn merge_pairs(&mut self, other: &Self, pairs: impl Iterator<Item = (usize, u32)>) {
        fn merge<C: Accumulator>(
            acc: &mut [C],
            cells: &[C],
            pairs: impl Iterator<Item = (usize, u32)>,
        ) {
            for (from, at) in pairs {
                acc[at as usize].merge(&cells[from]);
            }
        }
        match (self, other) {
            (CellColumn::Count(a), CellColumn::Count(b)) => merge(a, b, pairs),
            (CellColumn::Sum(a), CellColumn::Sum(b)) => merge(a, b, pairs),
            (CellColumn::Min(a), CellColumn::Min(b)) => merge(a, b, pairs),
            (CellColumn::Max(a), CellColumn::Max(b)) => merge(a, b, pairs),
            (CellColumn::Avg(a), CellColumn::Avg(b)) => merge(a, b, pairs),
            (CellColumn::Moments(a), CellColumn::Moments(b)) => merge(a, b, pairs),
            _ => panic!("merging cells of another aggregate kind"),
        }
    }
}

/// Bytes of one of `cells`.
fn cell_size<C>(_cells: &[C]) -> usize {
    std::mem::size_of::<C>()
}

/// Independent accumulator chains used by the slice kernels
/// ([`AggState::update_slice`]): lane `j` consumes elements
/// `j, j + LANES, j + 2·LANES, …` and the lanes merge in ascending order,
/// a fixed schedule that makes the kernels deterministic.
pub const LANES: usize = 4;

/// Streaming accumulator covering every [`AggKind`].
///
/// Uses Welford's algorithm for mean/variance so that `merge` (needed when
/// coarsening cube grouping sets) is exact.
#[derive(Debug, Clone, Copy)]
pub struct AggState {
    /// Number of accumulated values.
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Running mean.
    pub mean: f64,
    /// Sum of squared deviations from the mean.
    pub m2: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Default for AggState {
    fn default() -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl AggState {
    /// Accumulate one value.
    #[inline]
    pub fn update(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Accumulate a contiguous slice of values through [`LANES`]
    /// independent accumulator chains, merged in lane order.
    ///
    /// Lane `j` consumes `values[j], values[j + LANES], …` with the exact
    /// scalar [`AggState::update`] recurrence, and the lanes are merged
    /// into `self` in ascending lane order — so the result is a pure
    /// function of `values` (never of chunking or thread count) and is
    /// **bit-identical** to [`LANES`] plain accumulators fed round-robin
    /// and merged in lane order. The independent chains break the loop-carried dependency of scalar
    /// Welford, letting the autovectorizer keep [`LANES`] accumulators in
    /// vector registers.
    ///
    /// Note the lane-merged result may differ from feeding `values` one by
    /// one through [`AggState::update`] in the last ulps of `mean`/`m2`
    /// (different, equally valid, rounding); both orders are deterministic.
    #[inline]
    pub fn update_slice(&mut self, values: &[f64]) {
        let mut count = [0u64; LANES];
        let mut sum = [0.0f64; LANES];
        let mut mean = [0.0f64; LANES];
        let mut m2 = [0.0f64; LANES];
        let mut min = [f64::INFINITY; LANES];
        let mut max = [f64::NEG_INFINITY; LANES];

        let mut chunks = values.chunks_exact(LANES);
        for chunk in &mut chunks {
            for j in 0..LANES {
                let v = chunk[j];
                count[j] += 1;
                sum[j] += v;
                let delta = v - mean[j];
                mean[j] += delta / count[j] as f64;
                m2[j] += delta * (v - mean[j]);
                if v < min[j] {
                    min[j] = v;
                }
                if v > max[j] {
                    max[j] = v;
                }
            }
        }
        for (j, &v) in chunks.remainder().iter().enumerate() {
            count[j] += 1;
            sum[j] += v;
            let delta = v - mean[j];
            mean[j] += delta / count[j] as f64;
            m2[j] += delta * (v - mean[j]);
            if v < min[j] {
                min[j] = v;
            }
            if v > max[j] {
                max[j] = v;
            }
        }

        for j in 0..LANES {
            self.merge(&AggState {
                count: count[j],
                sum: sum[j],
                mean: mean[j],
                m2: m2[j],
                min: min[j],
                max: max[j],
            });
        }
    }

    /// Scalar reference implementation of the [`AggState::update_slice`]
    /// lane-merge contract: [`LANES`] plain accumulators fed round-robin,
    /// merged in lane order. Kept so tests can assert the optimized kernel
    /// matches it with exact `f64` equality.
    #[cfg(test)]
    pub fn update_slice_reference(&mut self, values: &[f64]) {
        let mut lanes = [AggState::default(); LANES];
        for (i, &v) in values.iter().enumerate() {
            lanes[i % LANES].update(v);
        }
        for lane in &lanes {
            self.merge(lane);
        }
    }

    /// Merge another accumulator into this one (parallel/Chan merge).
    pub fn merge(&mut self, other: &AggState) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Sample variance (n−1 denominator); 0 for fewer than 2 values.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count as f64 - 1.0)
        }
    }

    /// Population variance (n denominator); 0 for empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }
}

impl Accumulator for AggState {
    #[inline]
    fn update(&mut self, value: f64, _unit: f64) {
        AggState::update(self, value);
    }

    fn merge(&mut self, other: &Self) {
        AggState::merge(self, other);
    }

    fn rows(&self) -> u64 {
        self.count
    }

    /// The given aggregate kind.
    ///
    /// `CountIf` inputs are accumulated as 0/1 indicators, so its result is
    /// the `sum`.
    fn value(&self, kind: AggKind) -> f64 {
        match kind {
            AggKind::Count => self.count as f64,
            AggKind::Sum | AggKind::CountIf => self.sum,
            AggKind::Avg => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.mean
                }
            }
            AggKind::Min => self.min,
            AggKind::Max => self.max,
            AggKind::Var => self.sample_variance(),
            AggKind::Std => self.sample_variance().sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_aliases() {
        assert_eq!(AggExpr::count().alias, "COUNT(*)");
        assert_eq!(AggExpr::avg("gpa").alias, "AVG(gpa)");
        assert_eq!(AggExpr::count_if("value", CmpOp::Gt, 0.04).alias, "COUNT_IF(value > 0.04)");
        assert_eq!(AggExpr::sum("x").with_alias("agg1").alias, "agg1");
    }

    #[test]
    fn state_basic_stats() {
        let mut s = AggState::default();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.update(v);
        }
        assert_eq!(s.count, 8);
        assert_eq!(s.finalize(AggKind::Sum), 40.0);
        assert_eq!(s.finalize(AggKind::Avg), 5.0);
        assert_eq!(s.finalize(AggKind::Min), 2.0);
        assert_eq!(s.finalize(AggKind::Max), 9.0);
        // Population variance of this classic sequence is 4.
        assert!((s.population_variance() - 4.0).abs() < 1e-12);
        assert!((s.finalize(AggKind::Var) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_state_finalize() {
        let s = AggState::default();
        assert_eq!(s.finalize(AggKind::Count), 0.0);
        assert_eq!(s.finalize(AggKind::Sum), 0.0);
        assert!(s.finalize(AggKind::Avg).is_nan());
        assert_eq!(s.finalize(AggKind::Var), 0.0);
    }

    #[test]
    fn single_value_variance_zero() {
        let mut s = AggState::default();
        s.update(5.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
    }

    #[test]
    fn merge_empty_cases() {
        let mut a = AggState::default();
        let b = AggState::default();
        a.merge(&b);
        assert_eq!(a.count, 0);
        let mut c = AggState::default();
        c.update(1.0);
        let mut d = AggState::default();
        d.merge(&c);
        assert_eq!(d.count, 1);
        assert_eq!(d.mean, 1.0);
    }

    /// `cell` and a full state, each fed `xs[..split]` and `xs[split..]` as
    /// two partials merged in order and then into an empty state, read out
    /// every kind in `kinds` — and their rows — bit for bit alike.
    fn assert_reads_like_full_state<C: Accumulator>(kinds: &[AggKind], xs: &[f64], split: usize) {
        fn fold<A: Accumulator>(values: &[f64]) -> A {
            let mut state = A::default();
            values.iter().for_each(|&v| state.update(v, 1.0));
            state
        }
        fn merged<A: Accumulator>(xs: &[f64], split: usize) -> A {
            let (mut left, right) = (fold::<A>(&xs[..split]), fold::<A>(&xs[split..]));
            left.merge(&right);
            let mut whole = A::default();
            whole.merge(&left);
            whole
        }
        let (full, cell) = (merged::<AggState>(xs, split), merged::<C>(xs, split));
        assert_eq!(full.rows(), cell.rows());
        for &kind in kinds {
            let (want, got) = (full.finalize(kind), cell.finalize(kind));
            assert_eq!(want.to_bits(), got.to_bits(), "{kind:?}: {want} vs {got}");
        }
    }

    /// [`Accumulator::merge`]'s contract, in every cell type of both
    /// families, over values and weights at the edges: merging a cell that
    /// accumulated no row leaves the target's bits as they were, and merging
    /// into a cell that accumulated no row copies the source's bits.
    #[test]
    fn merging_a_cell_without_rows_changes_nothing_and_into_one_copies() {
        fn check<C: Accumulator>(bits: impl Fn(&C) -> Vec<u64>) {
            let values =
                [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5, -2.25];
            // A row of non-positive weight folds into no weighted cell.
            let weights = [1.0, 0.5, 3.0, 0.0, -1.0];
            let mut cells = vec![C::default()];
            for &v in &values {
                for &w in &weights {
                    let mut one = C::default();
                    one.update(v, w);
                    cells.push(one);
                    for &u in &values {
                        let mut two = one;
                        two.update(u, 1.0);
                        cells.push(two);
                    }
                }
            }
            let empty: Vec<C> = cells.iter().copied().filter(|c| c.rows() == 0).collect();
            for cell in &cells {
                for none in &empty {
                    let mut unchanged = *cell;
                    unchanged.merge(none);
                    assert_eq!(bits(&unchanged), bits(cell), "{cell:?} merged {none:?}");
                    let mut copy = *none;
                    copy.merge(cell);
                    assert_eq!(bits(&copy), bits(cell), "{none:?} merged {cell:?}");
                }
            }
        }
        let f = f64::to_bits;
        check::<CountCell>(|c| vec![c.count]);
        check::<SumCell>(|c| vec![c.count, f(c.sum)]);
        check::<MinCell>(|c| vec![c.count, f(c.min)]);
        check::<MaxCell>(|c| vec![c.count, f(c.max)]);
        check::<MeanCell>(|c| vec![c.count, f(c.mean)]);
        check::<AggState>(|c| vec![c.count, f(c.sum), f(c.mean), f(c.m2), f(c.min), f(c.max)]);
        check::<WeightedCount>(|c| vec![c.rows, f(c.wsum)]);
        check::<WeightedMean>(|c| vec![c.rows, f(c.wsum), f(c.mean)]);
        check::<WeightedAggState>(|c| {
            vec![c.rows, f(c.wsum), f(c.mean), f(c.m2), f(c.min), f(c.max)]
        });
    }

    #[test]
    fn a_nan_answer_reads_as_the_one_nan() {
        let mut sum = SumCell::default();
        for v in [f64::INFINITY, f64::NEG_INFINITY, -f64::NAN] {
            sum.update(v, 1.0);
        }
        assert!(sum.sum.is_nan());
        assert_eq!(sum.finalize(AggKind::Sum).to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn cell_columns_hold_their_kinds_cells() {
        use AggKind::*;
        for (kind, bytes) in [
            (Count, 8),
            (Sum, 16),
            (CountIf, 16),
            (Min, 16),
            (Max, 16),
            (Avg, 16),
            (Var, 48),
            (Std, 48),
        ] {
            let column = CellColumn::<ExactCells>::with_capacity(kind, 4);
            assert!(column.folds(kind) && column.len() == 0, "{kind:?}");
            assert_eq!(column.cell_bytes(), bytes, "{kind:?}");
        }
        assert!(!CellColumn::<ExactCells>::with_capacity(Sum, 0).folds(Avg));
        assert!(CellColumn::<ExactCells>::with_capacity(Var, 0).folds(Std));

        // Cells 0 and 2 merge into group 1, cell 1 into group 0.
        let mut fine = CellColumn::<ExactCells>::with_capacity(Sum, 3);
        fine.resize(3);
        let CellColumn::Sum(cells) = &mut fine else { unreachable!() };
        for (cell, v) in cells.iter_mut().zip([1.0, 2.0, 4.0]) {
            cell.update(v, 1.0);
        }
        let mut coarse = CellColumn::<ExactCells>::with_capacity(Sum, 2);
        coarse.resize(2);
        coarse.merge_at(&fine, &[1, 0, 1]);
        assert_eq!((coarse.finalize(0, Sum), coarse.rows(0)), (2.0, 1));
        assert_eq!((coarse.finalize(1, Sum), coarse.rows(1)), (5.0, 2));
    }

    proptest! {
        /// Every narrow exact cell reads out its kinds as the full state
        /// does, bit for bit, over values with NaN, ±0 and ±∞ among them.
        #[test]
        fn narrow_cells_read_out_the_full_states_bits(
            picks in proptest::collection::vec((0usize..10, -1e6f64..1e6), 0..60),
            split in 0usize..60,
        ) {
            // Mostly plain values, with NaN, ±0 and ±∞ among them.
            let special = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            let xs: Vec<f64> =
                picks.iter().map(|&(pick, v)| special.get(pick).copied().unwrap_or(v)).collect();
            let split = split.min(xs.len());
            assert_reads_like_full_state::<CountCell>(&[AggKind::Count], &xs, split);
            assert_reads_like_full_state::<SumCell>(&[AggKind::Sum, AggKind::CountIf], &xs, split);
            assert_reads_like_full_state::<MinCell>(&[AggKind::Min], &xs, split);
            assert_reads_like_full_state::<MaxCell>(&[AggKind::Max], &xs, split);
            assert_reads_like_full_state::<MeanCell>(&[AggKind::Avg], &xs, split);
        }

        #[test]
        fn merge_matches_sequential(xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
                                    split in 0usize..200) {
            let split = split.min(xs.len());
            let mut whole = AggState::default();
            for &v in &xs { whole.update(v); }
            let mut left = AggState::default();
            for &v in &xs[..split] { left.update(v); }
            let mut right = AggState::default();
            for &v in &xs[split..] { right.update(v); }
            left.merge(&right);
            prop_assert_eq!(left.count, whole.count);
            prop_assert!((left.sum - whole.sum).abs() <= 1e-6 * (1.0 + whole.sum.abs()));
            prop_assert!((left.mean - whole.mean).abs() <= 1e-6 * (1.0 + whole.mean.abs()));
            prop_assert!((left.m2 - whole.m2).abs() <= 1e-4 * (1.0 + whole.m2.abs()));
            prop_assert_eq!(left.min, whole.min);
            prop_assert_eq!(left.max, whole.max);
        }

        /// The optimized lane kernel is bit-identical to its scalar
        /// reference — every field, exact `f64` equality — for any slice
        /// length (including remainders shorter than a chunk) and any
        /// non-empty starting state.
        #[test]
        fn lane_kernel_matches_scalar_reference_exactly(
            xs in proptest::collection::vec(-1e6f64..1e6, 0..300),
            prefix in proptest::collection::vec(-1e6f64..1e6, 0..4),
        ) {
            let mut optimized = AggState::default();
            let mut reference = AggState::default();
            for &v in &prefix {
                optimized.update(v);
                reference.update(v);
            }
            optimized.update_slice(&xs);
            reference.update_slice_reference(&xs);
            prop_assert_eq!(optimized.count, reference.count);
            prop_assert_eq!(optimized.sum.to_bits(), reference.sum.to_bits());
            prop_assert_eq!(optimized.mean.to_bits(), reference.mean.to_bits());
            prop_assert_eq!(optimized.m2.to_bits(), reference.m2.to_bits());
            prop_assert_eq!(optimized.min.to_bits(), reference.min.to_bits());
            prop_assert_eq!(optimized.max.to_bits(), reference.max.to_bits());
        }

        /// The lane kernel stays a faithful accumulator: close to the pure
        /// scalar chain and exact on count/min/max.
        #[test]
        fn lane_kernel_close_to_scalar_chain(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..300),
        ) {
            let mut lanes = AggState::default();
            lanes.update_slice(&xs);
            let mut scalar = AggState::default();
            for &v in &xs { scalar.update(v); }
            prop_assert_eq!(lanes.count, scalar.count);
            prop_assert_eq!(lanes.min.to_bits(), scalar.min.to_bits());
            prop_assert_eq!(lanes.max.to_bits(), scalar.max.to_bits());
            prop_assert!((lanes.sum - scalar.sum).abs() <= 1e-6 * (1.0 + scalar.sum.abs()));
            prop_assert!((lanes.mean - scalar.mean).abs() <= 1e-6 * (1.0 + scalar.mean.abs()));
            prop_assert!((lanes.m2 - scalar.m2).abs() <= 1e-4 * (1.0 + scalar.m2.abs()));
        }

        #[test]
        fn variance_nonnegative(xs in proptest::collection::vec(-1e3f64..1e3, 0..100)) {
            let mut s = AggState::default();
            for &v in &xs { s.update(v); }
            prop_assert!(s.sample_variance() >= -1e-9);
            prop_assert!(s.population_variance() >= -1e-9);
        }
    }
}
