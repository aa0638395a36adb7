//! The generic experiment runner: draw samples over several seeds, answer
//! queries, and aggregate error statistics per method.

use cvopt_baselines::SamplingMethod;
use cvopt_core::{estimate, MaterializedSample, SamplingProblem};
use cvopt_table::Table;

use crate::metrics::{relative_errors_all, ErrorSummary};
use crate::queries::PaperQuery;

/// Aggregated error statistics for one method on one evaluation target.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// Method display name.
    pub method: String,
    /// Mean over repetitions of the per-repetition maximum error.
    pub max_error: f64,
    /// Mean over repetitions of the per-repetition mean error.
    pub mean_error: f64,
    /// Mean over repetitions of the per-repetition median error.
    pub median_error: f64,
    /// All per-(group, aggregate) errors pooled across repetitions
    /// (for percentile plots like the paper's Fig. 6).
    pub pooled_errors: Vec<f64>,
}

impl MethodOutcome {
    /// Combine per-repetition error vectors.
    pub fn from_reps(method: &str, reps: Vec<Vec<f64>>) -> MethodOutcome {
        let n = reps.len().max(1) as f64;
        let mut max_acc = 0.0;
        let mut mean_acc = 0.0;
        let mut median_acc = 0.0;
        let mut pooled = Vec::new();
        for errors in &reps {
            let s = ErrorSummary::from_errors(errors);
            max_acc += s.max;
            mean_acc += s.mean;
            median_acc += s.median;
            pooled.extend_from_slice(errors);
        }
        MethodOutcome {
            method: method.to_string(),
            max_error: max_acc / n,
            mean_error: mean_acc / n,
            median_error: median_acc / n,
            pooled_errors: pooled,
        }
    }
}

/// Draw `reps` independent samples of `method` for `problem`.
pub fn draw_samples(
    table: &Table,
    method: &dyn SamplingMethod,
    problem: &SamplingProblem,
    reps: u64,
) -> cvopt_core::Result<Vec<MaterializedSample>> {
    (0..reps).map(|seed| method.draw(table, problem, seed)).collect()
}

/// Per-repetition error vectors for one paper query under one method.
///
/// `budget` is the sample size in rows; the sampling problem is derived from
/// the query's specs.
pub fn errors_per_rep(
    table: &Table,
    method: &dyn SamplingMethod,
    pq: &PaperQuery,
    budget: usize,
    reps: u64,
) -> cvopt_core::Result<Vec<Vec<f64>>> {
    let truth = pq.query.execute(table)?;
    let problem = SamplingProblem::multi(pq.specs.clone(), budget);
    let samples = draw_samples(table, method, &problem, reps)?;
    samples
        .iter()
        .map(|sample| {
            let est = estimate::estimate(sample, &pq.query)?;
            Ok(relative_errors_all(&truth, &est, 0.0))
        })
        .collect()
}

/// Full pipeline for one paper query across a method line-up.
pub fn evaluate_methods(
    table: &Table,
    methods: &[Box<dyn SamplingMethod>],
    pq: &PaperQuery,
    budget: usize,
    reps: u64,
) -> cvopt_core::Result<Vec<MethodOutcome>> {
    methods
        .iter()
        .map(|m| {
            let errs = errors_per_rep(table, m.as_ref(), pq, budget, reps)?;
            Ok(MethodOutcome::from_reps(m.name(), errs))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;
    use crate::scale::{EvalData, Scale};
    use cvopt_baselines::{CvOptL2, Uniform};

    #[test]
    fn outcome_aggregation() {
        let o = MethodOutcome::from_reps("X", vec![vec![0.1, 0.3], vec![0.2, 0.4]]);
        assert_eq!(o.method, "X");
        assert!((o.max_error - 0.35).abs() < 1e-12); // (0.3 + 0.4)/2
        assert!((o.mean_error - 0.25).abs() < 1e-12);
        assert_eq!(o.pooled_errors.len(), 4);
    }

    #[test]
    fn cvopt_beats_uniform_on_b2_max_error() {
        let data = EvalData::generate(&Scale::small());
        let pq = queries::b2();
        let budget = 1_000;
        let uni = MethodOutcome::from_reps(
            "Uniform",
            errors_per_rep(&data.bikes, &Uniform, &pq, budget, 3).unwrap(),
        );
        let cv = MethodOutcome::from_reps(
            "CVOPT",
            errors_per_rep(&data.bikes, &CvOptL2::default(), &pq, budget, 3).unwrap(),
        );
        assert!(
            cv.max_error < uni.max_error,
            "CVOPT max {} vs Uniform max {}",
            cv.max_error,
            uni.max_error
        );
    }

    #[test]
    fn evaluate_methods_runs_lineup() {
        let data = EvalData::generate(&Scale::small());
        let pq = queries::aq3();
        let methods = cvopt_baselines::figure_methods();
        let outcomes = evaluate_methods(&data.openaq, &methods, &pq, 2_000, 2).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|o| o.max_error.is_finite()));
    }
}
