//! Ablations of CVOPT design choices not isolated in the paper:
//!
//! * **capping** — the box-constrained re-solve (`s_i ≤ n_i` with water
//!   filling) vs naively clamping the closed-form Lemma-1 solution and
//!   discarding the excess (what RL effectively does);
//! * **variance** — sample (n−1) vs population (n) variance in the β's;
//! * **minalloc** — sensitivity to the per-stratum minimum sample size;
//! * **lpnorm** — the paper's §8 future-work item: error percentiles under
//!   ℓp allocation for p between 1 and ∞.

use cvopt_baselines::SamplingMethod;
use cvopt_core::alloc::{compute_betas, lemma1_closed_form};
use cvopt_core::sample::StratifiedSample;
use cvopt_core::{
    CvOptSampler, MaterializedSample, Norm, SamplingProblem, StratumStatistics, VarianceKind,
};
use cvopt_table::{ExecOptions, GroupIndex, Table};

use crate::queries;
use crate::report::{pct, pct2, Report};
use crate::runner::{errors_per_rep, MethodOutcome};
use crate::scale::{EvalData, Scale};

/// CVOPT with the closed-form allocation naively clamped to stratum sizes:
/// excess over `n_c` is discarded instead of re-solved (budget wasted).
#[derive(Debug, Clone, Copy, Default)]
struct NaiveClampCvOpt;

impl SamplingMethod for NaiveClampCvOpt {
    fn name(&self) -> &'static str {
        "CVOPT-naive-clamp"
    }

    fn draw(
        &self,
        table: &Table,
        problem: &SamplingProblem,
        seed: u64,
    ) -> cvopt_core::Result<MaterializedSample> {
        problem.validate()?;
        let exprs = problem.finest_stratification();
        let index = GroupIndex::build(table, &exprs)?;
        let exec = ExecOptions::default();
        let stats =
            StratumStatistics::collect_with(table, &index, &problem.aggregate_columns(), &exec)?;
        let betas = compute_betas(problem, &index, &stats)?;
        let targets = lemma1_closed_form(&betas, problem.budget as u64);
        let sizes: Vec<u64> =
            targets.iter().zip(index.sizes()).map(|(&x, &n)| (x.round() as u64).min(n)).collect();
        Ok(StratifiedSample::draw(&index, &sizes, seed, &exec).materialize(table))
    }
}

/// Ablation 1: does the box-constrained re-solve matter on data with tiny
/// groups? (AQ3, OpenAQ.)
pub fn run_capping(scale: &Scale) -> cvopt_core::Result<Report> {
    let data = EvalData::generate(scale);
    let pq = queries::aq3();
    let budget = scale.openaq_budget();

    let mut report = Report::new(
        "ablation_capping",
        "Box-constrained re-solve vs naive clamp of the closed form (AQ3)",
        vec!["Variant".into(), "Max err".into(), "Avg err".into(), "Sample rows".into()],
    );
    let methods: Vec<Box<dyn SamplingMethod>> =
        vec![Box::new(cvopt_baselines::CvOptL2::default()), Box::new(NaiveClampCvOpt)];
    for m in &methods {
        let outcome = MethodOutcome::from_reps(
            m.name(),
            errors_per_rep(&data.openaq, m.as_ref(), &pq, budget, scale.reps)?,
        );
        let problem = SamplingProblem::multi(pq.specs.clone(), budget);
        let drawn = m.draw(&data.openaq, &problem, 0)?.len();
        report.push_row(vec![
            m.name().to_string(),
            pct(outcome.max_error),
            pct2(outcome.mean_error),
            drawn.to_string(),
        ]);
    }
    report.note("naive clamp discards budget capped away at small strata (the RL failure mode)");
    Ok(report)
}

/// Ablation 2: sample vs population variance in the allocation.
pub fn run_variance(scale: &Scale) -> cvopt_core::Result<Report> {
    let data = EvalData::generate(scale);
    let mut report = Report::new(
        "ablation_variance",
        "Sample (n-1) vs population (n) variance in the beta coefficients",
        vec!["Query".into(), "Variance".into(), "Max err".into(), "Avg err".into()],
    );
    for (pq, table, budget) in [
        (queries::aq3(), &data.openaq, scale.openaq_budget()),
        (queries::b2(), &data.bikes, scale.bikes_budget()),
    ] {
        for kind in [VarianceKind::Sample, VarianceKind::Population] {
            let truth = pq.query.execute(table)?;
            let problem = SamplingProblem::multi(pq.specs.clone(), budget).with_variance(kind);
            let mut reps_errors = Vec::new();
            for seed in 0..scale.reps {
                let outcome = CvOptSampler::new(problem.clone()).with_seed(seed).sample(table)?;
                let est = cvopt_core::estimate::estimate(&outcome.sample, &pq.query)?;
                reps_errors.push(crate::metrics::relative_errors_all(&truth, &est, 0.0));
            }
            let o = MethodOutcome::from_reps("CVOPT", reps_errors);
            report.push_row(vec![
                pq.id.to_string(),
                format!("{kind:?}"),
                pct(o.max_error),
                pct2(o.mean_error),
            ]);
        }
    }
    report.note("expected: negligible difference — the estimators differ by n/(n-1) per stratum");
    Ok(report)
}

/// Ablation 3: sensitivity to the per-stratum minimum sample size.
pub fn run_minalloc(scale: &Scale) -> cvopt_core::Result<Report> {
    let data = EvalData::generate(scale);
    let pq = queries::aq3();
    let budget = scale.openaq_budget();
    let truth = pq.query.execute(&data.openaq)?;

    let mut report = Report::new(
        "ablation_minalloc",
        "Sensitivity to the per-stratum minimum sample size (AQ3)",
        vec!["min/stratum".into(), "Max err".into(), "Avg err".into()],
    );
    for min in [0u64, 1, 2, 4] {
        let problem = SamplingProblem::multi(pq.specs.clone(), budget).with_min_per_stratum(min);
        let mut reps_errors = Vec::new();
        for seed in 0..scale.reps {
            let outcome =
                CvOptSampler::new(problem.clone()).with_seed(seed).sample(&data.openaq)?;
            let est = cvopt_core::estimate::estimate(&outcome.sample, &pq.query)?;
            reps_errors.push(crate::metrics::relative_errors_all(&truth, &est, 0.0));
        }
        let o = MethodOutcome::from_reps("CVOPT", reps_errors);
        report.push_row(vec![min.to_string(), pct(o.max_error), pct2(o.mean_error)]);
    }
    report.note("min = 0 risks missing groups (max err → 100%); large minimums dilute the optimum");
    Ok(report)
}

/// Ablation 4: ℓp-norm allocation for p ∈ {1, 2, 4, ∞} (AQ3): larger p
/// trades average error for a lower maximum, interpolating between the
/// paper's two norms.
pub fn run_lpnorm(scale: &Scale) -> cvopt_core::Result<Report> {
    let data = EvalData::generate(scale);
    let pq = queries::aq3();
    let budget = scale.openaq_budget();
    let truth = pq.query.execute(&data.openaq)?;

    let mut report = Report::new(
        "ablation_lpnorm",
        "lp-norm allocation sweep on AQ3 (paper section 8 future work)",
        vec![
            "Norm".into(),
            "p10".into(),
            "Median".into(),
            "p90".into(),
            "Max err".into(),
            "Avg err".into(),
        ],
    );
    let norms: [(String, Norm); 5] = [
        ("L1".into(), Norm::Lp(1.0)),
        ("L2".into(), Norm::L2),
        ("L4".into(), Norm::Lp(4.0)),
        ("L16".into(), Norm::Lp(16.0)),
        ("L-inf".into(), Norm::LInf),
    ];
    for (label, norm) in norms {
        let problem = SamplingProblem::multi(pq.specs.clone(), budget).with_norm(norm);
        let mut reps_errors = Vec::new();
        for seed in 0..scale.reps {
            let outcome =
                CvOptSampler::new(problem.clone()).with_seed(seed).sample(&data.openaq)?;
            let est = cvopt_core::estimate::estimate(&outcome.sample, &pq.query)?;
            reps_errors.push(crate::metrics::relative_errors_all(&truth, &est, 0.0));
        }
        let o = MethodOutcome::from_reps(&label, reps_errors);
        report.push_row(vec![
            label,
            pct(crate::metrics::percentile(&o.pooled_errors, 0.1)),
            pct(crate::metrics::percentile(&o.pooled_errors, 0.5)),
            pct(crate::metrics::percentile(&o.pooled_errors, 0.9)),
            pct(o.max_error),
            pct2(o.mean_error),
        ]);
    }
    report.note("expected: low percentiles degrade and the max improves as p grows toward inf");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_pct(cell: &str) -> f64 {
        cell.trim_end_matches('%').parse().unwrap()
    }

    #[test]
    fn capping_report_shows_waste() {
        let report = run_capping(&Scale::small()).unwrap();
        assert_eq!(report.rows.len(), 2);
        let full: u64 = report.rows[0][3].parse().unwrap();
        let clamped: u64 = report.rows[1][3].parse().unwrap();
        assert!(clamped <= full, "naive clamp must not exceed the re-solve: {clamped} vs {full}");
    }

    #[test]
    fn variance_ablation_runs() {
        let report = run_variance(&Scale::small()).unwrap();
        assert_eq!(report.rows.len(), 4);
        // Sample vs population variance should land within a small factor.
        let a = parse_pct(&report.rows[0][3]);
        let b = parse_pct(&report.rows[1][3]);
        assert!((a - b).abs() <= (a.max(b)).max(0.5), "{a} vs {b}");
    }

    #[test]
    fn minalloc_zero_risky() {
        let report = run_minalloc(&Scale::small()).unwrap();
        assert_eq!(report.rows.len(), 4);
    }

    #[test]
    fn lpnorm_sweep_runs() {
        let report = run_lpnorm(&Scale::small()).unwrap();
        assert_eq!(report.rows.len(), 5);
        assert!(report.rows.iter().all(|r| r[4].ends_with('%')));
    }
}
