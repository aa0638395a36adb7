//! The Rösch–Lehner heuristic (EDBT 2009).
//!
//! RL allocates sample sizes proportionally to each group's coefficient of
//! variation, *without* taking group size into account — the paper's §6.1
//! explicitly discusses the consequence: on real data with small groups, RL
//! can allocate a group more rows than it has. We reproduce that behaviour
//! faithfully: the per-group target is `M·cv_i/Σcv_j`, and groups simply
//! cannot yield more than `n_i` rows, so the excess budget is *wasted* (no
//! redistribution) — this is the gap CVOPT's capped re-solve closes, and the
//! `ablation_capping` experiment quantifies it.
//!
//! For multiple aggregates the group CV is averaged over the aggregation
//! columns; for multiple groupings RL stratifies hierarchically on the
//! finest stratification (its "hierarchical partitioning").

use cvopt_core::sample::StratifiedSample;
use cvopt_core::stats::StratumStatistics;
use cvopt_core::{MaterializedSample, Result, SamplingProblem};
use cvopt_table::{ExecOptions, GroupIndex, Table};

use crate::SamplingMethod;

/// The RL sampler.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoschLehner;

impl RoschLehner {
    /// The RL allocation: `s_i = round(M·cv_i/Σcv)`, clamped to `n_i`
    /// afterwards (no redistribution — the documented flaw).
    pub fn allocation(stats: &StratumStatistics, problem: &SamplingProblem) -> Vec<u64> {
        let r = stats.num_strata();
        let ncols = stats.num_columns();
        let mut cvs = vec![0.0f64; r];
        for (i, cv_slot) in cvs.iter_mut().enumerate() {
            let mut acc = 0.0;
            for j in 0..ncols {
                let cv = stats.cv(i, j, problem.variance);
                if cv.is_finite() {
                    acc += cv;
                }
            }
            *cv_slot = acc / ncols as f64;
        }
        let total_cv: f64 = cvs.iter().sum();
        if total_cv == 0.0 {
            // Degenerate: all groups constant. Fall back to equal split.
            let each = (problem.budget as u64) / r.max(1) as u64;
            return stats.populations.iter().map(|&n| each.min(n)).collect();
        }
        cvs.iter()
            .zip(&stats.populations)
            .map(|(&cv, &n)| {
                let target = (problem.budget as f64 * cv / total_cv).round() as u64;
                target.min(n)
            })
            .collect()
    }
}

impl SamplingMethod for RoschLehner {
    fn name(&self) -> &'static str {
        "RL"
    }

    fn draw(
        &self,
        table: &Table,
        problem: &SamplingProblem,
        seed: u64,
    ) -> Result<MaterializedSample> {
        problem.validate()?;
        let exprs = problem.finest_stratification();
        let index = GroupIndex::build(table, &exprs)?;
        let exec = ExecOptions::default();
        let stats =
            StratumStatistics::collect_with(table, &index, &problem.aggregate_columns(), &exec)?;
        let sizes = Self::allocation(&stats, problem);
        let drawn = StratifiedSample::draw(&index, &sizes, seed, &exec);
        Ok(drawn.materialize(table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::skewed_table;
    use cvopt_core::QuerySpec;

    #[test]
    fn allocation_proportional_to_cv_ignores_size() {
        use cvopt_table::{DataType, TableBuilder, Value};
        // Two groups with identical value distribution but 10x different
        // sizes: RL must allocate them (nearly) the same.
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        for i in 0..1000 {
            b.push_row(&[Value::str("big"), Value::Float64(10.0 + (i % 10) as f64)]).unwrap();
        }
        for i in 0..100 {
            b.push_row(&[Value::str("small"), Value::Float64(10.0 + (i % 10) as f64)]).unwrap();
        }
        let t = b.finish();
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 100);
        let s = RoschLehner.draw(&t, &problem, 1).unwrap();
        let sizes: Vec<u64> = s.strata.iter().map(|st| st.sampled).collect();
        assert!(
            (sizes[0] as i64 - sizes[1] as i64).abs() <= 2,
            "RL should ignore group size: {sizes:?}"
        );
    }

    #[test]
    fn budget_wasted_on_small_high_cv_groups() {
        let t = skewed_table();
        // "tiny" has by far the largest CV but only 8 rows; RL's target for
        // it exceeds 8, and the excess is NOT redistributed.
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 400);
        let s = RoschLehner.draw(&t, &problem, 1).unwrap();
        let tiny = s.strata.iter().find(|st| st.key[0].to_string() == "tiny").unwrap();
        assert_eq!(tiny.sampled, 8);
        assert!(s.len() < 400, "RL wasted budget should leave the sample short: got {}", s.len());
    }

    #[test]
    fn constant_groups_fall_back_to_equal() {
        use cvopt_table::{DataType, TableBuilder, Value};
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        for i in 0..60 {
            let g = if i % 2 == 0 { "a" } else { "b" };
            b.push_row(&[Value::str(g), Value::Float64(5.0)]).unwrap();
        }
        let t = b.finish();
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 10);
        let s = RoschLehner.draw(&t, &problem, 1).unwrap();
        let sizes: Vec<u64> = s.strata.iter().map(|st| st.sampled).collect();
        assert_eq!(sizes, vec![5, 5]);
    }
}
