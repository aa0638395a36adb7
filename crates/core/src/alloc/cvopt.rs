//! CVOPT's ℓ2-optimal allocation: the β coefficients of Theorems 1–2 and
//! Lemmas 2–3 (and their k-query, multi-column generalization from §4.2).
//!
//! For the finest stratification `C = ∪ A_i`, stratum `c` receives a sample
//! size proportional to `√β_c` where
//!
//! ```text
//! β_c = n_c² · Σ_i  (1 / n²_{Π(c,A_i)}) · Σ_{ℓ∈L_i}  w_{Π(c,A_i),ℓ} · σ²_{c,ℓ} / μ²_{Π(c,A_i),ℓ}
//! ```
//!
//! with `n_c, σ²_{c,ℓ}` per-stratum statistics and `n_a, μ_{a,ℓ}` statistics
//! of the *query group* `a = Π(c, A_i)` containing the stratum. The SASG and
//! MASG formulas are exactly this expression when every query groups by all
//! of `C` (so `Π` is the identity and the `n` factors cancel).

use cvopt_table::groupby::GroupProjection;
use cvopt_table::GroupIndex;

use crate::error::CvError;
use crate::spec::SamplingProblem;
#[cfg(test)]
use crate::spec::VarianceKind;
use crate::stats::StratumStatistics;
use crate::Result;

/// Compute the per-stratum β coefficients for `problem`.
///
/// `index` must be the finest-stratification group index (built over
/// [`SamplingProblem::finest_stratification`]) and `stats` the statistics
/// over [`SamplingProblem::aggregate_columns`].
pub fn compute_betas(
    problem: &SamplingProblem,
    index: &GroupIndex,
    stats: &StratumStatistics,
) -> Result<Vec<f64>> {
    strata_betas(problem, index.dim_names(), |dims| index.project(dims), stats)
}

/// [`compute_betas`] for the strata `stats` describes, stratified by the
/// dimensions `strata_names`: `project` maps them onto a query's
/// dimensions, as [`GroupIndex::project`] does.
pub(crate) fn strata_betas<'k>(
    problem: &SamplingProblem,
    strata_names: &[String],
    project: impl Fn(&[usize]) -> GroupProjection<'k>,
    stats: &StratumStatistics,
) -> Result<Vec<f64>> {
    problem.validate()?;
    let mut betas = vec![0.0f64; stats.num_strata()];
    let width = stats.num_columns();

    for query in &problem.queries {
        // Positions of this query's group-by dims within the stratification.
        let dims: Vec<usize> = query
            .group_by
            .iter()
            .map(|e| {
                let name = e.display_name();
                strata_names.iter().position(|s| *s == name).ok_or_else(|| {
                    CvError::invalid(format!(
                        "query group-by {name} missing from stratification {strata_names:?}"
                    ))
                })
            })
            .collect::<Result<_>>()?;
        let proj = project(&dims);
        let coarse = stats.coarsen(&proj);
        let coarse_pops = stats.coarsen_populations(&proj);

        for agg in &query.aggregates {
            let col_name = agg.column.display_name();
            let col = stats.column_names.iter().position(|c| *c == col_name).ok_or_else(|| {
                CvError::invalid(format!("column {col_name} missing from statistics"))
            })?;

            // Per coarse group: w / (n_a² μ_a²), with zero-mean detection.
            let mut group_factor = vec![0.0f64; proj.num_groups()];
            for (a, factor) in group_factor.iter_mut().enumerate() {
                let mu = coarse[a * width + col].mean;
                let n_a = coarse_pops[a] as f64;
                let w = agg.weight_for(proj.key(a as u32));
                if mu == 0.0 {
                    // Legal only if every stratum of this group is constant
                    // (σ² = 0); flagged below when a non-zero σ hits it.
                    *factor = f64::NAN;
                } else {
                    *factor = w / (n_a * n_a * mu * mu);
                }
            }

            for (c, beta) in betas.iter_mut().enumerate() {
                let sigma2 = stats.variance(c, col, problem.variance);
                if sigma2 == 0.0 {
                    continue;
                }
                let a = proj.coarse_of(c as u32) as usize;
                let factor = group_factor[a];
                if factor.is_nan() {
                    return Err(CvError::ZeroMeanGroup {
                        group: cvopt_table::groupby::key_display(proj.key(a as u32)),
                        column: col_name.clone(),
                    });
                }
                let n_c = stats.population(c) as f64;
                *beta += n_c * n_c * factor * sigma2;
            }
        }
    }
    Ok(betas)
}

/// Theorem 1 (SASG): `α_i = w_i σ_i² / μ_i²` per group, computed directly:
/// the parity reference the general [`compute_betas`] reduces to when the
/// problem is SASG.
#[cfg(test)]
pub(crate) fn sasg_alphas(
    stats: &StratumStatistics,
    column: usize,
    weights: &[f64],
    variance: VarianceKind,
) -> Result<Vec<f64>> {
    let r = stats.num_strata();
    assert_eq!(weights.len(), r, "one weight per group");
    let mut alphas = Vec::with_capacity(r);
    for (i, &w) in weights.iter().enumerate() {
        let mu = stats.mean(i, column);
        let sigma2 = stats.variance(i, column, variance);
        if sigma2 == 0.0 {
            alphas.push(0.0);
            continue;
        }
        if mu == 0.0 {
            return Err(CvError::ZeroMeanGroup {
                group: format!("stratum {i}"),
                column: stats.column_names[column].clone(),
            });
        }
        alphas.push(w * sigma2 / (mu * mu));
    }
    Ok(alphas)
}

/// Theorem 2 (MASG): `α_i = Σ_j w_{i,j} σ_{i,j}² / μ_{i,j}²` per group.
#[cfg(test)]
pub(crate) fn masg_alphas(
    stats: &StratumStatistics,
    columns: &[usize],
    weights: &[Vec<f64>],
    variance: VarianceKind,
) -> Result<Vec<f64>> {
    let r = stats.num_strata();
    let mut alphas = vec![0.0f64; r];
    for (&col, w) in columns.iter().zip(weights) {
        let partial = sasg_alphas(stats, col, w, variance)?;
        for (a, p) in alphas.iter_mut().zip(partial) {
            *a += p;
        }
    }
    Ok(alphas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::QuerySpec;
    use cvopt_table::{DataType, ExecOptions, ScalarExpr, Table, TableBuilder, Value};

    /// Two groups with equal means but very different spreads: the paper's
    /// motivating example — group 1 must receive more samples.
    fn two_group_table() -> Table {
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        // Group "hi": mean 10, large spread. Group "lo": mean 10, tiny spread.
        let hi = [2.0, 18.0, 4.0, 16.0, 6.0, 14.0, 8.0, 12.0];
        let lo = [9.9, 10.1, 9.95, 10.05, 10.0, 10.0, 9.9, 10.1];
        for v in hi {
            b.push_row(&[Value::str("hi"), Value::Float64(v)]).unwrap();
        }
        for v in lo {
            b.push_row(&[Value::str("lo"), Value::Float64(v)]).unwrap();
        }
        b.finish()
    }

    fn setup(t: &Table, problem: &SamplingProblem) -> (GroupIndex, StratumStatistics) {
        let exprs = problem.finest_stratification();
        let index = GroupIndex::build(t, &exprs).unwrap();
        let stats = collect(t, &index, &problem.aggregate_columns());
        (index, stats)
    }

    fn collect(t: &Table, index: &GroupIndex, columns: &[ScalarExpr]) -> StratumStatistics {
        StratumStatistics::collect_with(t, index, columns, &ExecOptions::sequential()).unwrap()
    }

    #[test]
    fn sasg_favors_high_variance_group() {
        let t = two_group_table();
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 8);
        let (index, stats) = setup(&t, &problem);
        let betas = compute_betas(&problem, &index, &stats).unwrap();
        assert_eq!(betas.len(), 2);
        // "hi" has much larger σ/μ.
        assert!(betas[0] > 100.0 * betas[1], "betas {betas:?}");
    }

    #[test]
    fn general_reduces_to_sasg_formula() {
        let t = two_group_table();
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 8);
        let (index, stats) = setup(&t, &problem);
        let general = compute_betas(&problem, &index, &stats).unwrap();
        let direct = sasg_alphas(&stats, 0, &[1.0, 1.0], VarianceKind::Sample).unwrap();
        for (g, d) in general.iter().zip(&direct) {
            assert!((g - d).abs() < 1e-12 * (1.0 + d.abs()), "general {g} direct {d}");
        }
        let _ = index;
    }

    #[test]
    fn general_reduces_to_masg_formula() {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("x", DataType::Float64),
            ("y", DataType::Float64),
        ]);
        for i in 0..40 {
            let g = if i % 2 == 0 { "a" } else { "b" };
            b.push_row(&[
                Value::str(g),
                Value::Float64(10.0 + (i as f64) * 0.5),
                Value::Float64(100.0 + ((i * 7) % 13) as f64),
            ])
            .unwrap();
        }
        let t = b.finish();
        let problem =
            SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x").aggregate("y"), 10);
        let (index, stats) = setup(&t, &problem);
        let general = compute_betas(&problem, &index, &stats).unwrap();
        let direct =
            masg_alphas(&stats, &[0, 1], &[vec![1.0; 2], vec![1.0; 2]], VarianceKind::Sample)
                .unwrap();
        for (g, d) in general.iter().zip(&direct) {
            assert!((g - d).abs() < 1e-10 * (1.0 + d.abs()));
        }
        let _ = index;
    }

    /// Lemma 2's worked example from the paper: β_{m,y} =
    /// n²_{m,y} σ²_{m,y} [1/(n²_{m,*} μ²_{m,*}) + 1/(n²_{*,y} μ²_{*,y})].
    #[test]
    fn samg_matches_lemma2_example() {
        let mut b = TableBuilder::new(&[
            ("major", DataType::Str),
            ("year", DataType::Int64),
            ("gpa", DataType::Float64),
        ]);
        let rows = [
            ("CS", 1, 3.0),
            ("CS", 1, 3.6),
            ("CS", 2, 2.8),
            ("EE", 1, 3.9),
            ("EE", 2, 3.1),
            ("EE", 2, 3.3),
            ("EE", 2, 2.5),
        ];
        for (m, y, g) in rows {
            b.push_row(&[Value::str(m), Value::Int64(y), Value::Float64(g)]).unwrap();
        }
        let t = b.finish();
        let q1 = QuerySpec::group_by(&["major"]).aggregate("gpa");
        let q2 = QuerySpec::group_by(&["year"]).aggregate("gpa");
        let problem = SamplingProblem::multi(vec![q1, q2], 5);
        let (index, stats) = setup(&t, &problem);
        let betas = compute_betas(&problem, &index, &stats).unwrap();

        // Hand-compute for each (major, year) stratum.
        let major_idx = GroupIndex::build(&t, &[ScalarExpr::col("major")]).unwrap();
        let major_stats = collect(&t, &major_idx, &[ScalarExpr::col("gpa")]);
        let year_idx = GroupIndex::build(&t, &[ScalarExpr::col("year")]).unwrap();
        let year_stats = collect(&t, &year_idx, &[ScalarExpr::col("gpa")]);

        for (c, beta) in betas.iter().enumerate() {
            let key = index.key(c as u32);
            let m_gid = (0..major_idx.num_groups() as u32)
                .find(|&g| major_idx.key(g)[0] == key[0])
                .unwrap() as usize;
            let y_gid = (0..year_idx.num_groups() as u32)
                .find(|&g| year_idx.key(g)[0] == key[1])
                .unwrap() as usize;
            let n_c = stats.population(c) as f64;
            let sigma2 = stats.variance(c, 0, VarianceKind::Sample);
            let term_m = 1.0
                / ((major_stats.population(m_gid) as f64).powi(2)
                    * major_stats.mean(m_gid, 0).powi(2));
            let term_y = 1.0
                / ((year_stats.population(y_gid) as f64).powi(2)
                    * year_stats.mean(y_gid, 0).powi(2));
            let expected = n_c * n_c * sigma2 * (term_m + term_y);
            assert!(
                (beta - expected).abs() < 1e-10 * (1.0 + expected.abs()),
                "stratum {c}: got {} want {expected}",
                beta
            );
        }
    }

    #[test]
    fn weights_scale_betas() {
        let t = two_group_table();
        let base = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 8);
        let (index, stats) = setup(&t, &base);
        let b1 = compute_betas(&base, &index, &stats).unwrap();

        let weighted = SamplingProblem::single(
            QuerySpec::group_by(&["g"])
                .aggregate_column(crate::spec::AggColumn::new("x").with_weight(4.0)),
            8,
        );
        let b4 = compute_betas(&weighted, &index, &stats).unwrap();
        for (a, b) in b1.iter().zip(&b4) {
            assert!((b - 4.0 * a).abs() < 1e-10 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn per_group_weight_override() {
        let t = two_group_table();
        let spec = QuerySpec::group_by(&["g"]).aggregate_column(
            crate::spec::AggColumn::new("x").with_group_weight(vec!["hi".into()], 9.0),
        );
        let problem = SamplingProblem::single(spec, 8);
        let (index, stats) = setup(&t, &problem);
        let betas = compute_betas(&problem, &index, &stats).unwrap();
        let plain = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 8);
        let base = compute_betas(&plain, &index, &stats).unwrap();
        assert!((betas[0] - 9.0 * base[0]).abs() < 1e-10 * (1.0 + base[0].abs()));
        assert!((betas[1] - base[1]).abs() < 1e-12 * (1.0 + base[1].abs()));
    }

    #[test]
    fn zero_mean_group_rejected() {
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        b.push_row(&[Value::str("z"), Value::Float64(-1.0)]).unwrap();
        b.push_row(&[Value::str("z"), Value::Float64(1.0)]).unwrap();
        let t = b.finish();
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 2);
        let (index, stats) = setup(&t, &problem);
        let err = compute_betas(&problem, &index, &stats).unwrap_err();
        assert!(matches!(err, CvError::ZeroMeanGroup { .. }));
    }

    #[test]
    fn constant_zero_group_allowed() {
        // A group whose values are all exactly zero has σ=0 and contributes
        // nothing — no error even though its mean is zero.
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        b.push_row(&[Value::str("z"), Value::Float64(0.0)]).unwrap();
        b.push_row(&[Value::str("z"), Value::Float64(0.0)]).unwrap();
        b.push_row(&[Value::str("p"), Value::Float64(1.0)]).unwrap();
        b.push_row(&[Value::str("p"), Value::Float64(3.0)]).unwrap();
        let t = b.finish();
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 2);
        let (index, stats) = setup(&t, &problem);
        let betas = compute_betas(&problem, &index, &stats).unwrap();
        // "z" stratum is index 0 (first seen).
        assert_eq!(betas[0], 0.0);
        assert!(betas[1] > 0.0);
    }
}
