//! A self-contained, weighted sample: the artifact every sampling method
//! (CVOPT and all baselines) produces, and the input to [`crate::estimate`].

use cvopt_table::Table;

use crate::sample::stratified::StratumInfo;

/// Sampled rows copied out of the base table, each carrying a
/// Horvitz–Thompson expansion weight.
///
/// * Stratified methods set `weights[i] = n_c/s_c` for the row's stratum.
/// * Uniform sampling sets `weights[i] = N/M`.
/// * Measure-biased sampling (Sample+Seek) sets `weights[i] ∝ 1/v_i`.
///
/// Any estimator of the form `Σ_g f(value) → Σ_{sampled} w·f(value)` is then
/// unbiased for extensive aggregates (COUNT/SUM) and consistent for ratios
/// (AVG).
#[derive(Debug, Clone)]
pub struct MaterializedSample {
    /// The sampled rows as a standalone table (same schema as the base).
    pub table: Table,
    /// Per-row expansion weight.
    pub weights: Vec<f64>,
    /// Original row ids in the base table.
    pub origin: Vec<u32>,
    /// Stratum metadata when the sample is stratified (else empty).
    pub strata: Vec<StratumInfo>,
    /// Stratum id per sampled row when stratified (else empty).
    pub row_stratum: Vec<u32>,
}

impl MaterializedSample {
    /// Build a non-stratified weighted sample from explicit rows + weights.
    pub fn from_rows(base: &Table, rows: Vec<u32>, weights: Vec<f64>) -> Self {
        assert_eq!(rows.len(), weights.len(), "one weight per row");
        let rows_usize: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
        MaterializedSample {
            table: base.take(&rows_usize),
            weights,
            origin: rows,
            strata: Vec::new(),
            row_stratum: Vec::new(),
        }
    }

    /// Build a uniform sample (every row weight `N/M`).
    pub fn uniform(base: &Table, rows: Vec<u32>) -> Self {
        let n = base.num_rows() as f64;
        let m = rows.len() as f64;
        let w = if m == 0.0 { 0.0 } else { n / m };
        let weights = vec![w; rows.len()];
        Self::from_rows(base, rows, weights)
    }

    /// Number of sampled rows.
    pub fn len(&self) -> usize {
        self.table.num_rows()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of weights (estimates the base-table row count).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Whether this sample carries stratum structure.
    pub fn is_stratified(&self) -> bool {
        !self.strata.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvopt_table::{DataType, TableBuilder, Value};

    fn base() -> Table {
        let mut b = TableBuilder::new(&[("x", DataType::Float64)]);
        for i in 0..50 {
            b.push_row(&[Value::Float64(i as f64)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn uniform_weights() {
        let t = base();
        let s = MaterializedSample::uniform(&t, vec![0, 10, 20, 30, 40]);
        assert_eq!(s.len(), 5);
        assert!(s.weights.iter().all(|&w| (w - 10.0).abs() < 1e-12));
        assert!((s.total_weight() - 50.0).abs() < 1e-9);
        assert!(!s.is_stratified());
    }

    #[test]
    fn empty_uniform() {
        let t = base();
        let s = MaterializedSample::uniform(&t, vec![]);
        assert!(s.is_empty());
        assert_eq!(s.total_weight(), 0.0);
    }

    #[test]
    fn from_rows_copies_values() {
        let t = base();
        let s = MaterializedSample::from_rows(&t, vec![7, 3], vec![2.0, 5.0]);
        assert_eq!(s.table.column(0).f64_at(0), Some(7.0));
        assert_eq!(s.table.column(0).f64_at(1), Some(3.0));
        assert_eq!(s.origin, vec![7, 3]);
    }

    #[test]
    #[should_panic(expected = "one weight per row")]
    fn mismatched_weights_panic() {
        let t = base();
        let _ = MaterializedSample::from_rows(&t, vec![1, 2], vec![1.0]);
    }
}
