//! The high-level CVOPT API: plan + draw in two passes.
//!
//! ```
//! use cvopt_core::{CvOptSampler, QuerySpec, SamplingProblem};
//! use cvopt_table::{DataType, TableBuilder, Value};
//!
//! let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
//! for i in 0..1000 {
//!     let g = if i % 10 == 0 { "rare" } else { "common" };
//!     b.push_row(&[Value::str(g), Value::Float64((i % 97) as f64 + 1.0)]).unwrap();
//! }
//! let table = b.finish();
//!
//! let problem = SamplingProblem::single(
//!     QuerySpec::group_by(&["g"]).aggregate("x"),
//!     100,
//! );
//! let outcome = CvOptSampler::new(problem).with_seed(7).sample(&table).unwrap();
//! assert_eq!(outcome.sample.len(), 100);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use cvopt_table::exec::ExecOptions;
use cvopt_table::groupby::GroupProjection;
use cvopt_table::{KeyAtom, RowSpace, ScalarExpr, Table};

use crate::alloc::cvopt::strata_betas;
use crate::alloc::{linf_allocation, lp_allocation, sqrt_allocation, Allocation};
use crate::error::CvError;
use crate::sample::{MaterializedSample, StratifiedSample};
use crate::spec::{Norm, SamplingProblem};
use crate::stats::{KeptPass, StratumStatistics};
use crate::Result;

/// Process-wide count of stratified draws (pass 2 of every `sample*`
/// call). Atomic so a serving layer's `/stats` endpoint can read it live.
static TOTAL_DRAWS: AtomicU64 = AtomicU64::new(0);

/// Stratified draws run by this process so far (all engines, all
/// samplers). Monotonic; never reset.
pub fn total_draws() -> u64 {
    TOTAL_DRAWS.load(Ordering::Relaxed)
}

/// Process-wide count of draws the sampling algebra made unnecessary: each
/// time an engine answers a query by re-aggregating a cached sample whose
/// problem *subsumes* the requested one, the statistics pass + draw that
/// would have run is counted here instead of in [`total_draws`].
static DRAWS_AVOIDED: AtomicU64 = AtomicU64::new(0);

/// Draws avoided by sample reuse in this process so far (all engines).
/// Monotonic; never reset. `total_draws() + total_draws_avoided()` is the
/// work a reuse-blind engine would have done.
pub fn total_draws_avoided() -> u64 {
    DRAWS_AVOIDED.load(Ordering::Relaxed)
}

/// Credit one avoided preparation (called by the engine's reuse planner).
pub(crate) fn note_draw_avoided() {
    DRAWS_AVOIDED.fetch_add(1, Ordering::Relaxed);
}

/// Record one stratified draw ([`CvOptSampler::sample`] and the
/// incremental-maintenance path, whose draws run outside it).
pub(crate) fn note_draw() {
    TOTAL_DRAWS.fetch_add(1, Ordering::Relaxed);
}

/// The planning artifacts of a CVOPT run (paper's "first pass" output).
#[derive(Debug, Clone)]
pub struct CvOptPlan {
    /// Finest-stratification expressions.
    pub strata_exprs: Vec<ScalarExpr>,
    /// Stratum keys, by stratum id.
    pub strata_keys: Vec<Vec<KeyAtom>>,
    /// Per-stratum statistics.
    pub stats: StratumStatistics,
    /// The β (or α) coefficients driving the allocation (empty for ℓ∞).
    pub betas: Vec<f64>,
    /// The solved allocation.
    pub allocation: Allocation,
}

impl CvOptPlan {
    /// Number of strata.
    pub fn num_strata(&self) -> usize {
        self.strata_keys.len()
    }
}

/// A drawn CVOPT sample plus its plan.
#[derive(Debug, Clone)]
pub struct CvOptOutcome {
    /// The weighted sample, ready for [`crate::estimate::estimate`].
    pub sample: MaterializedSample,
    /// The plan that produced it.
    pub plan: CvOptPlan,
}

/// Two-pass CVOPT sampler: statistics + allocation, then reservoir draw.
///
/// Every per-row pass (group-index build, statistics, the stratified draw)
/// runs on the shared chunk-parallel execution layer. By default the
/// sampler uses one worker per available core; because the execution layer
/// is deterministic, the plan and the drawn sample are identical for any
/// thread count.
#[derive(Debug, Clone)]
pub struct CvOptSampler {
    problem: SamplingProblem,
    seed: u64,
    exec: ExecOptions,
}

impl CvOptSampler {
    /// Sampler for `problem`, parallel over all available cores.
    pub fn new(problem: SamplingProblem) -> Self {
        CvOptSampler { problem, seed: 0, exec: ExecOptions::default() }
    }

    /// Set the RNG seed (default 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the worker-thread count for every pass. `with_threads(1)` is the
    /// explicit sequential escape hatch; the default is one worker per
    /// available core. The output never depends on this setting.
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_exec(ExecOptions::new(threads))
    }

    /// Set the full execution options.
    pub fn with_exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// The execution options in effect.
    pub fn exec(&self) -> &ExecOptions {
        &self.exec
    }

    /// The problem this sampler solves.
    pub fn problem(&self) -> &SamplingProblem {
        &self.problem
    }

    /// Pass 1 only: statistics and allocation, over `rows` — a `&Table` or
    /// a [`ShardSet`](cvopt_table::ShardSet) (shards local, remote, or
    /// mixed). The plan is bit-identical for any layout of the same rows.
    pub fn plan<'a>(&self, rows: impl Into<RowSpace<'a>>) -> Result<CvOptPlan> {
        Ok(self.plan_with_strata(&rows.into(), false)?.0)
    }

    /// Passes 1 and 2: plan, then draw and materialize the sample. The
    /// statistics pass buckets the rows by stratum once, and the draw's
    /// ordinals resolve against the same runs — or, behind readers, through
    /// one pick per shard; the outcome (plan, sampled rows, weights) is
    /// **byte-identical to sampling the concatenated table with the same
    /// seed**, for any shard layout and thread count.
    pub fn sample<'a>(&self, rows: impl Into<RowSpace<'a>>) -> Result<CvOptOutcome> {
        Ok(self.sample_keeping(&rows.into(), false)?.0)
    }

    /// [`CvOptSampler::sample`], handing back — when `keep` — its strata
    /// pass: the strata with their runs and every partition's statistics
    /// partial, what a maintained sample is made of (only ever kept over
    /// rows in process). The draw's ordinals resolve where the rows live
    /// ([`Strata::pick`](cvopt_table::groupby::Strata::pick)), which also
    /// copies the sampled rows out.
    pub(crate) fn sample_keeping(
        &self,
        rows: &RowSpace<'_>,
        keep: bool,
    ) -> Result<(CvOptOutcome, Option<KeptPass>)> {
        let (plan, pass) = self.plan_with_strata(rows, keep)?;
        let strata = &pass.0;
        note_draw();
        let sizes = strata.sizes();
        let ordinals =
            StratifiedSample::draw_ordinals(sizes, &plan.allocation.sizes, self.seed, &self.exec);
        let (picked, table) = strata.pick(rows, &ordinals, &self.exec)?;
        let sample =
            StratifiedSample::of_rows(strata.keys(), sizes, picked).materialize_with(table);
        Ok((CvOptOutcome { sample, plan }, keep.then_some(pass)))
    }

    fn plan_with_strata(&self, rows: &RowSpace<'_>, keep: bool) -> Result<(CvOptPlan, KeptPass)> {
        self.problem.validate()?;
        let strata_exprs = self.problem.finest_stratification();
        let columns = self.problem.aggregate_columns();
        let (stats, pass) =
            StratumStatistics::collect_strata(rows, &strata_exprs, &columns, &self.exec, keep)?;
        let (strata, keys) = (&pass.0, pass.0.keys().to_vec());
        let plan = self.allocate(strata_exprs, keys, |dims| strata.project(dims), stats)?;
        Ok((plan, pass))
    }

    /// The allocation back half of planning: solve the problem's norm for
    /// the collected statistics of the strata keyed `strata_keys`, whose
    /// projections onto a query's dimensions `project` gives. Crate-visible
    /// so the incremental-maintenance path can re-run the identical
    /// allocation over incrementally merged statistics.
    pub(crate) fn allocate<'k>(
        &self,
        strata_exprs: Vec<ScalarExpr>,
        strata_keys: Vec<Vec<KeyAtom>>,
        project: impl Fn(&[usize]) -> GroupProjection<'k>,
        stats: StratumStatistics,
    ) -> Result<CvOptPlan> {
        let names: Vec<String> = strata_exprs.iter().map(ScalarExpr::display_name).collect();
        let (betas, allocation) = match self.problem.norm {
            Norm::L2 => {
                let betas = strata_betas(&self.problem, &names, &project, &stats)?;
                let allocation = sqrt_allocation(
                    &betas,
                    &stats.populations,
                    self.problem.budget as u64,
                    self.problem.min_per_stratum,
                );
                (betas, allocation)
            }
            Norm::Lp(p) => {
                // Rejected by `SamplingProblem::validate()` above; keep a
                // debug check so internal callers bypassing validation fail
                // loudly in test builds.
                debug_assert!(p > 0.0 && p.is_finite(), "Lp norm requires finite p > 0, got {p}");
                let betas = strata_betas(&self.problem, &names, &project, &stats)?;
                let allocation = lp_allocation(
                    &betas,
                    &stats.populations,
                    self.problem.budget as u64,
                    self.problem.min_per_stratum,
                    p,
                );
                (betas, allocation)
            }
            Norm::LInf => {
                if !self.problem.is_sasg() {
                    return Err(CvError::LInfUnsupported {
                        reason: format!(
                            "{} queries with {} aggregates; the l-infinity analysis \
                             (paper section 5) covers one query with one aggregate",
                            self.problem.queries.len(),
                            self.problem.queries.iter().map(|q| q.aggregates.len()).sum::<usize>()
                        ),
                    });
                }
                let allocation = linf_allocation(
                    &stats,
                    0,
                    self.problem.budget as u64,
                    self.problem.min_per_stratum,
                    self.problem.variance,
                )?;
                (Vec::new(), allocation)
            }
        };

        Ok(CvOptPlan { strata_exprs, strata_keys, stats, betas, allocation })
    }
}

/// Budget (in rows) corresponding to a sampling rate of `rate` on `table`
/// (e.g. `0.01` for the paper's 1% samples). Rounds to nearest, min 1.
///
/// Errors with [`CvError::Invalid`] when `rate` is outside `(0, 1]` (every
/// neighboring spec-construction API reports bad input as a `Result` rather
/// than panicking).
pub fn budget_for_rate(table: &Table, rate: f64) -> Result<usize> {
    budget_for_rows(table.num_rows(), rate)
}

/// [`budget_for_rate`] from a raw row count (used by the engine, whose
/// catalog tables may be sharded).
pub fn budget_for_rows(num_rows: usize, rate: f64) -> Result<usize> {
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(CvError::invalid(format!("sampling rate must be in (0, 1], got {rate}")));
    }
    Ok(((num_rows as f64 * rate).round() as usize).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::QuerySpec;
    use cvopt_table::{DataType, TableBuilder, Value};

    fn table() -> Table {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("h", DataType::Str),
            ("x", DataType::Float64),
            ("y", DataType::Float64),
        ]);
        for i in 0..2000i64 {
            let g = match i % 20 {
                0 => "rare",
                1..=5 => "mid",
                _ => "common",
            };
            let h = if i % 3 == 0 { "p" } else { "q" };
            let x = 10.0 + (i % 13) as f64 * if g == "rare" { 10.0 } else { 1.0 };
            let y = 100.0 + (i % 7) as f64;
            b.push_row(&[Value::str(g), Value::str(h), Value::Float64(x), Value::Float64(y)])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn sasg_end_to_end() {
        let t = table();
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 200);
        let outcome = CvOptSampler::new(problem).with_seed(1).sample(&t).unwrap();
        assert_eq!(outcome.sample.len(), 200);
        assert_eq!(outcome.plan.num_strata(), 3);
        assert_eq!(outcome.plan.allocation.total(), 200);
        // "rare" has the largest per-value spread relative to its mean; with
        // the n-capping it should still be sampled heavily relative to size.
        let plan = &outcome.plan;
        let rare_id = plan.strata_keys.iter().position(|k| k == &[KeyAtom::from("rare")]).unwrap();
        let rare = plan.allocation.sizes[rare_id];
        assert!(rare >= 10, "rare stratum got {rare}");
    }

    #[test]
    fn mamg_end_to_end() {
        let t = table();
        let q1 = QuerySpec::group_by(&["g"]).aggregate("x");
        let q2 = QuerySpec::group_by(&["h"]).aggregate("y");
        let problem = SamplingProblem::multi(vec![q1, q2], 300);
        let outcome = CvOptSampler::new(problem).with_seed(2).sample(&t).unwrap();
        // Finest stratification is (g, h): 6 strata.
        assert_eq!(outcome.plan.num_strata(), 6);
        assert_eq!(outcome.sample.len(), 300);
        assert!(outcome.sample.is_stratified());
    }

    #[test]
    fn linf_end_to_end() {
        let t = table();
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 200)
            .with_norm(Norm::LInf);
        let outcome = CvOptSampler::new(problem).with_seed(3).sample(&t).unwrap();
        assert!(outcome.sample.len() <= 200);
        assert!(outcome.plan.betas.is_empty());
    }

    #[test]
    fn linf_rejects_multi() {
        let t = table();
        let q1 = QuerySpec::group_by(&["g"]).aggregate("x").aggregate("y");
        let problem = SamplingProblem::single(q1, 100).with_norm(Norm::LInf);
        let err = CvOptSampler::new(problem).sample(&t).unwrap_err();
        assert!(matches!(err, CvError::LInfUnsupported { .. }));
    }

    #[test]
    fn deterministic_with_seed() {
        let t = table();
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 100);
        let a = CvOptSampler::new(problem.clone()).with_seed(9).sample(&t).unwrap();
        let b = CvOptSampler::new(problem).with_seed(9).sample(&t).unwrap();
        assert_eq!(a.sample.origin, b.sample.origin);
    }

    #[test]
    fn plan_only_matches_sample_plan() {
        let t = table();
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 150);
        let sampler = CvOptSampler::new(problem);
        let plan = sampler.plan(&t).unwrap();
        let outcome = sampler.sample(&t).unwrap();
        assert_eq!(plan.allocation.sizes, outcome.plan.allocation.sizes);
    }

    #[test]
    fn lp_norm_end_to_end() {
        let t = table();
        let spec = QuerySpec::group_by(&["g"]).aggregate("x");
        let p2 =
            CvOptSampler::new(SamplingProblem::single(spec.clone(), 200).with_norm(Norm::Lp(2.0)))
                .plan(&t)
                .unwrap();
        let l2 = CvOptSampler::new(SamplingProblem::single(spec.clone(), 200)).plan(&t).unwrap();
        assert_eq!(p2.allocation.sizes, l2.allocation.sizes, "Lp(2) must equal L2");
        // With a budget small enough that no population cap binds, a large p
        // must shift allocation toward the high-β stratum relative to l2.
        let small_l2 =
            CvOptSampler::new(SamplingProblem::single(spec.clone(), 60)).plan(&t).unwrap();
        let small_p8 =
            CvOptSampler::new(SamplingProblem::single(spec.clone(), 60).with_norm(Norm::Lp(8.0)))
                .plan(&t)
                .unwrap();
        assert_ne!(small_p8.allocation.sizes, small_l2.allocation.sizes, "Lp(8) should differ");
        let hi = small_l2
            .betas
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        assert!(small_p8.allocation.sizes[hi] > small_l2.allocation.sizes[hi]);
        let bad =
            CvOptSampler::new(SamplingProblem::single(spec, 200).with_norm(Norm::Lp(f64::NAN)))
                .plan(&t);
        assert!(bad.is_err());
    }

    #[test]
    fn budget_for_rate_rounds() {
        let t = table();
        assert_eq!(budget_for_rate(&t, 0.01).unwrap(), 20);
        assert_eq!(budget_for_rate(&t, 1.0).unwrap(), 2000);
        assert_eq!(budget_for_rate(&t, 0.0001).unwrap(), 1);
    }

    #[test]
    fn budget_for_rate_rejects_bad_rate() {
        let t = table();
        for rate in [1.5, 0.0, -0.2, f64::NAN] {
            let err = budget_for_rate(&t, rate).unwrap_err();
            assert!(matches!(err, CvError::Invalid(_)), "rate {rate}: {err}");
        }
    }

    #[test]
    fn default_exec_is_auto_parallel() {
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 50);
        let sampler = CvOptSampler::new(problem);
        let auto = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(sampler.exec().threads(), auto, "new() must default to all cores");
        assert_eq!(sampler.clone().with_threads(1).exec().threads(), 1);
        assert_eq!(sampler.with_threads(0).exec().threads(), 1, "0 clamps to sequential");
    }

    #[test]
    fn parallel_stats_equivalent_plan() {
        let t = table();
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 150);
        let p1 = CvOptSampler::new(problem.clone()).with_threads(1).plan(&t).unwrap();
        let p4 = CvOptSampler::new(problem).with_threads(4).plan(&t).unwrap();
        assert_eq!(p1.allocation.sizes, p4.allocation.sizes);
    }
}
