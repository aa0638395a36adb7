//! CVOPT wrapped behind the common [`SamplingMethod`] interface.

use cvopt_core::{CvOptSampler, ExecOptions, MaterializedSample, Norm, Result, SamplingProblem};
use cvopt_table::Table;

use crate::SamplingMethod;

/// CVOPT with the ℓ2 norm (the paper's headline method).
#[derive(Debug, Clone, Default)]
pub struct CvOptL2 {
    /// Execution options for both passes (default: all cores).
    pub exec: ExecOptions,
}

impl SamplingMethod for CvOptL2 {
    fn name(&self) -> &'static str {
        "CVOPT"
    }

    fn draw(
        &self,
        table: &Table,
        problem: &SamplingProblem,
        seed: u64,
    ) -> Result<MaterializedSample> {
        let problem = problem.clone().with_norm(Norm::L2);
        let sampler = CvOptSampler::new(problem).with_seed(seed).with_exec(self.exec.clone());
        Ok(sampler.sample(table)?.sample)
    }
}

/// CVOPT-INF: the ℓ∞ (minimax) variant of paper §5.
#[derive(Debug, Clone, Default)]
pub struct CvOptLInf {
    /// Execution options for both passes (default: all cores).
    pub exec: ExecOptions,
}

impl SamplingMethod for CvOptLInf {
    fn name(&self) -> &'static str {
        "CVOPT-INF"
    }

    fn draw(
        &self,
        table: &Table,
        problem: &SamplingProblem,
        seed: u64,
    ) -> Result<MaterializedSample> {
        let problem = problem.clone().with_norm(Norm::LInf);
        let sampler = CvOptSampler::new(problem).with_seed(seed).with_exec(self.exec.clone());
        Ok(sampler.sample(table)?.sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::skewed_table;
    use cvopt_core::QuerySpec;

    #[test]
    fn l2_wrapper_draws_budget() {
        let t = skewed_table();
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 300);
        let s = CvOptL2::default().draw(&t, &problem, 1).unwrap();
        assert_eq!(s.len(), 300);
        assert!(s.is_stratified());
    }

    #[test]
    fn linf_wrapper_draws() {
        let t = skewed_table();
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 300);
        let s = CvOptLInf::default().draw(&t, &problem, 1).unwrap();
        assert!(s.len() <= 300);
        assert!(!s.is_empty());
    }

    #[test]
    fn wrapper_overrides_norm() {
        // Even if the problem says LInf, the L2 wrapper forces L2 (and
        // vice versa) so method line-ups stay consistent.
        let t = skewed_table();
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 200)
            .with_norm(Norm::LInf);
        let s = CvOptL2::default().draw(&t, &problem, 1).unwrap();
        assert_eq!(s.len(), 200);
    }
}
