//! The estimator's cells: the [`Cells`] family a sample's answer folds
//! under its Horvitz–Thompson weights. It is the exact family's split,
//! weighted: every cell keeps the raw row count, ignores a row of
//! non-positive weight, and each of its fields sees the operations the same
//! field of a [`WeightedAggState`] fed the same rows sees, in the same
//! order. The estimator's crate monomorphises the pass over this family,
//! so the methods the pass calls per cell are `#[inline]`: without it they
//! could not be inlined across the crate boundary.

use super::{Accumulator, AggKind, Cells, MaxCell, MinCell};

/// The estimate's cells: the exact family's split, weighted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WeightedCells;

impl Cells for WeightedCells {
    type Count = WeightedCount;
    type Sum = WeightedMean;
    type Min = MinCell;
    type Max = MaxCell;
    type Avg = WeightedMean;
    type Moments = WeightedAggState;
}

/// Weighted `COUNT`: the rows and their weight.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeightedCount {
    /// Raw (unweighted) number of contributing sample rows.
    pub rows: u64,
    /// Σ w.
    pub wsum: f64,
}

impl Accumulator for WeightedCount {
    /// Count a row of weight `w`; rows of non-positive weight are ignored.
    #[inline]
    fn update(&mut self, _v: f64, w: f64) {
        if w <= 0.0 {
            return;
        }
        self.rows += 1;
        self.wsum += w;
    }

    #[inline]
    fn merge(&mut self, other: &WeightedCount) {
        if other.rows == 0 {
            return;
        }
        if self.rows == 0 {
            *self = *other;
            return;
        }
        self.wsum += other.wsum;
        self.rows += other.rows;
    }

    #[inline]
    fn rows(&self) -> u64 {
        self.rows
    }

    fn value(&self, _kind: AggKind) -> f64 {
        self.wsum
    }
}

/// Weighted `SUM`, `COUNT_IF` and `AVG`: the rows, their weight and West's
/// weighted running mean. `SUM` reads `mean · Σ w`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeightedMean {
    /// Raw (unweighted) number of contributing sample rows.
    pub rows: u64,
    /// Σ w.
    pub wsum: f64,
    /// Weighted mean of values.
    pub mean: f64,
}

impl Accumulator for WeightedMean {
    /// Accumulate a value with weight `w`; rows of non-positive weight are
    /// ignored.
    #[inline]
    fn update(&mut self, v: f64, w: f64) {
        if w <= 0.0 {
            return;
        }
        self.rows += 1;
        self.wsum += w;
        let delta = v - self.mean;
        self.mean += delta * w / self.wsum;
    }

    #[inline]
    fn merge(&mut self, other: &WeightedMean) {
        if other.rows == 0 {
            return;
        }
        if self.rows == 0 {
            *self = *other;
            return;
        }
        let w2 = other.wsum;
        let total = self.wsum + w2;
        let delta = other.mean - self.mean;
        self.mean += delta * w2 / total;
        self.wsum = total;
        self.rows += other.rows;
    }

    #[inline]
    fn rows(&self) -> u64 {
        self.rows
    }

    fn value(&self, kind: AggKind) -> f64 {
        match kind {
            AggKind::Avg if self.wsum == 0.0 => f64::NAN,
            AggKind::Avg => self.mean,
            _ => self.mean * self.wsum,
        }
    }
}

/// Weighted streaming accumulator over every moment: the `VAR` and `STD`
/// cell (West's incremental algorithm for the weighted mean/variance so
/// merges stay exact).
#[derive(Debug, Clone, Copy)]
pub struct WeightedAggState {
    /// Σ w.
    pub wsum: f64,
    /// Weighted mean of values.
    pub mean: f64,
    /// Weighted sum of squared deviations.
    pub m2: f64,
    /// Raw (unweighted) number of contributing sample rows.
    pub rows: u64,
    /// Minimum raw value.
    pub min: f64,
    /// Maximum raw value.
    pub max: f64,
}

impl Default for WeightedAggState {
    fn default() -> Self {
        WeightedAggState {
            wsum: 0.0,
            mean: 0.0,
            m2: 0.0,
            rows: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Accumulator for WeightedAggState {
    /// Accumulate a value with weight `w`; rows of non-positive weight are
    /// ignored.
    #[inline]
    fn update(&mut self, v: f64, w: f64) {
        if w <= 0.0 {
            return;
        }
        self.rows += 1;
        self.wsum += w;
        let delta = v - self.mean;
        self.mean += delta * w / self.wsum;
        self.m2 += w * delta * (v - self.mean);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    #[inline]
    fn merge(&mut self, other: &WeightedAggState) {
        if other.rows == 0 {
            return;
        }
        if self.rows == 0 {
            *self = *other;
            return;
        }
        let w1 = self.wsum;
        let w2 = other.wsum;
        let total = w1 + w2;
        let delta = other.mean - self.mean;
        self.mean += delta * w2 / total;
        self.m2 += other.m2 + delta * delta * w1 * w2 / total;
        self.wsum = total;
        self.rows += other.rows;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    #[inline]
    fn rows(&self) -> u64 {
        self.rows
    }

    fn value(&self, kind: AggKind) -> f64 {
        match kind {
            AggKind::Count => self.wsum,
            // CountIf inputs are 0/1 indicators, so the weighted sum is the
            // estimated matching count.
            AggKind::Sum | AggKind::CountIf => self.weighted_sum(),
            AggKind::Avg => {
                if self.wsum == 0.0 {
                    f64::NAN
                } else {
                    self.mean
                }
            }
            AggKind::Min => self.min,
            AggKind::Max => self.max,
            AggKind::Var => self.variance(),
            AggKind::Std => self.variance().sqrt(),
        }
    }
}

impl WeightedAggState {
    /// Weighted sum `Σ w·v`.
    pub fn weighted_sum(&self) -> f64 {
        self.mean * self.wsum
    }

    /// Weighted (population-style) variance.
    pub fn variance(&self) -> f64 {
        if self.wsum == 0.0 {
            0.0
        } else {
            self.m2 / self.wsum
        }
    }
}
