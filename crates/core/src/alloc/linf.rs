//! CVOPT-INF: the ℓ∞ (minimax) allocation of paper §5.
//!
//! Minimizes `max_i CV[y_i]` for a single aggregate / single group-by.
//! Lemma 4 shows the optimum equalizes all CVs; substituting the stratified
//! CV expression gives `x_i/(n_i − x_i) ∝ d_i` with `d_i = (σ_i/μ_i)²/n_i`,
//! i.e. `x_i = n_i·(q·d_i/D)/(1 + q·d_i/D)` for a scalar `q`. The paper
//! binary-searches the largest integer `q ∈ [0, n]` keeping `Σ x_i ≤ M`.

use crate::alloc::solver::Allocation;
use crate::error::CvError;
use crate::spec::VarianceKind;
use crate::stats::StratumStatistics;
use crate::Result;

/// Compute the CVOPT-INF allocation for a single aggregation column.
///
/// * `stats` — per-group statistics where strata coincide with groups.
/// * `column` — index of the aggregation column within `stats`.
/// * `budget` — total sample rows `M`.
/// * `min_per_stratum` — best-effort floor, applied after the ℓ∞ solve.
pub fn linf_allocation(
    stats: &StratumStatistics,
    column: usize,
    budget: u64,
    min_per_stratum: u64,
    variance: VarianceKind,
) -> Result<Allocation> {
    let r = stats.num_strata();
    if r == 0 {
        return Ok(Allocation { sizes: Vec::new(), continuous: Vec::new() });
    }
    let total_pop: u64 = stats.populations.iter().sum();
    if budget >= total_pop {
        let sizes = stats.populations.clone();
        let continuous = sizes.iter().map(|&s| s as f64).collect();
        return Ok(Allocation { sizes, continuous });
    }

    // d_i = (σ_i/μ_i)² / n_i  (paper Eq. 2). Groups with σ = 0 need no
    // samples for the minimax objective; they are handled by the floor.
    let mut d = Vec::with_capacity(r);
    for i in 0..r {
        let sigma2 = stats.variance(i, column, variance);
        let mu = stats.mean(i, column);
        let n_i = stats.population(i) as f64;
        if sigma2 == 0.0 {
            d.push(0.0);
        } else if mu == 0.0 {
            return Err(CvError::ZeroMeanGroup {
                group: format!("stratum {i}"),
                column: stats.column_names[column].clone(),
            });
        } else {
            d.push(sigma2 / (mu * mu) / n_i);
        }
    }
    let dsum: f64 = d.iter().sum();
    if dsum == 0.0 {
        // All groups constant: any allocation is CV-optimal; spread the
        // budget proportional to population (and let the floor do its work).
        let mut xs: Vec<f64> = stats
            .populations
            .iter()
            .map(|&n| budget as f64 * n as f64 / total_pop as f64)
            .collect();
        let sizes = finalize(&mut xs, stats, budget, min_per_stratum);
        return Ok(Allocation { sizes, continuous: xs });
    }

    let total_x = |q: f64| -> f64 {
        d.iter()
            .zip(&stats.populations)
            .map(|(&di, &ni)| {
                let ratio = q * di / dsum;
                ni as f64 * ratio / (1.0 + ratio)
            })
            .sum()
    };

    // Binary search the largest integer q in [0, total_pop] with Σx ≤ M.
    let (mut lo, mut hi) = (0u64, total_pop);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if total_x(mid as f64) <= budget as f64 {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let q = lo.max(1);

    let mut xs: Vec<f64> = d
        .iter()
        .zip(&stats.populations)
        .map(|(&di, &ni)| {
            let ratio = q as f64 * di / dsum;
            ni as f64 * ratio / (1.0 + ratio)
        })
        .collect();
    let sizes = finalize(&mut xs, stats, budget, min_per_stratum);
    Ok(Allocation { sizes, continuous: xs })
}

/// Scale `xs` to the budget, round up (the paper uses `ceil`), then apply
/// population caps and the per-stratum floor.
fn finalize(
    xs: &mut [f64],
    stats: &StratumStatistics,
    budget: u64,
    min_per_stratum: u64,
) -> Vec<u64> {
    let xsum: f64 = xs.iter().sum();
    let mut sizes: Vec<u64> = if xsum <= 0.0 {
        vec![0; xs.len()]
    } else {
        xs.iter()
            .zip(&stats.populations)
            .map(|(&x, &n)| {
                let s = (x / xsum * budget as f64).ceil() as u64;
                s.min(n)
            })
            .collect()
    };
    for (s, &n) in sizes.iter_mut().zip(&stats.populations) {
        *s = (*s).max(min_per_stratum.min(n));
    }
    // ceil + floors can overshoot M slightly; trim from the largest strata,
    // never below their floor.
    let mut total: u64 = sizes.iter().sum();
    while total > budget {
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        order.sort_by(|&a, &b| sizes[b].cmp(&sizes[a]).then_with(|| a.cmp(&b)));
        let mut progressed = false;
        for &i in &order {
            if total == budget {
                break;
            }
            let floor = min_per_stratum.min(stats.populations[i]);
            if sizes[i] > floor {
                sizes[i] -= 1;
                total -= 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    sizes
}

/// The achieved per-group CV for an allocation:
/// `CV_i = (σ_i/μ_i)·sqrt((n_i − s_i)/(n_i·s_i))` — used by tests and the
/// ℓ2-vs-ℓ∞ experiments (paper Fig. 6).
pub fn achieved_cvs(
    stats: &StratumStatistics,
    column: usize,
    sizes: &[u64],
    variance: VarianceKind,
) -> Vec<f64> {
    (0..stats.num_strata())
        .map(|i| {
            let n = stats.population(i) as f64;
            let s = sizes[i] as f64;
            let mu = stats.mean(i, column);
            let sigma2 = stats.variance(i, column, variance);
            if sigma2 == 0.0 {
                0.0
            } else if s == 0.0 {
                f64::INFINITY
            } else {
                (sigma2 / (mu * mu) * (n - s) / (n * s)).sqrt()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::cvopt::sasg_alphas;
    use crate::alloc::solver::sqrt_allocation;
    use cvopt_table::{DataType, ExecOptions, GroupIndex, ScalarExpr, Table, TableBuilder, Value};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn skewed_table() -> Table {
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        // Groups with very different sizes, means, and spreads.
        let specs: [(&str, usize, f64, f64); 4] = [
            ("tiny", 12, 50.0, 40.0),
            ("small", 150, 10.0, 1.0),
            ("mid", 2_000, 100.0, 60.0),
            ("big", 10_000, 5.0, 0.5),
        ];
        for (name, count, mean, spread) in specs {
            for _ in 0..count {
                let v: f64 = mean + (rng.random::<f64>() - 0.5) * 2.0 * spread;
                b.push_row(&[Value::str(name), Value::Float64(v.max(0.01))]).unwrap();
            }
        }
        b.finish()
    }

    fn stats(t: &Table) -> StratumStatistics {
        let idx = GroupIndex::build(t, &[ScalarExpr::col("g")]).unwrap();
        let columns = [ScalarExpr::col("x")];
        StratumStatistics::collect_with(t, &idx, &columns, &ExecOptions::sequential()).unwrap()
    }

    #[test]
    fn respects_budget_and_caps() {
        let t = skewed_table();
        let s = stats(&t);
        let alloc = linf_allocation(&s, 0, 600, 1, VarianceKind::Sample).unwrap();
        assert!(alloc.total() <= 600);
        for (sz, &n) in alloc.sizes.iter().zip(&s.populations) {
            assert!(*sz <= n);
            assert!(*sz >= 1);
        }
    }

    #[test]
    fn equalizes_cvs_better_than_l2() {
        let t = skewed_table();
        let s = stats(&t);
        let budget = 600;
        let linf = linf_allocation(&s, 0, budget, 1, VarianceKind::Sample).unwrap();
        let alphas = sasg_alphas(&s, 0, &[1.0; 4], VarianceKind::Sample).unwrap();
        let l2 = sqrt_allocation(&alphas, &s.populations, budget, 1);

        let cvs_inf = achieved_cvs(&s, 0, &linf.sizes, VarianceKind::Sample);
        let cvs_l2 = achieved_cvs(&s, 0, &l2.sizes, VarianceKind::Sample);
        let max_inf = cvs_inf.iter().cloned().fold(0.0f64, f64::max);
        let max_l2 = cvs_l2.iter().cloned().fold(0.0f64, f64::max);
        // The paper's Fig. 6: l∞ has a lower (or equal) max CV.
        assert!(max_inf <= max_l2 * 1.02, "linf max {max_inf} should not exceed l2 max {max_l2}");
        // And the non-zero CVs should be near-equal for l∞.
        let nonzero: Vec<f64> = cvs_inf.iter().copied().filter(|&c| c > 0.0).collect();
        let lo = nonzero.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = nonzero.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi / lo < 1.6, "l-inf CVs spread too wide: {cvs_inf:?}");
    }

    #[test]
    fn l2_beats_linf_on_l2_objective() {
        let t = skewed_table();
        let s = stats(&t);
        let budget = 600;
        let linf = linf_allocation(&s, 0, budget, 1, VarianceKind::Sample).unwrap();
        let alphas = sasg_alphas(&s, 0, &[1.0; 4], VarianceKind::Sample).unwrap();
        let l2 = sqrt_allocation(&alphas, &s.populations, budget, 1);
        let sum_sq = |cvs: &[f64]| cvs.iter().map(|c| c * c).sum::<f64>();
        let obj_l2 = sum_sq(&achieved_cvs(&s, 0, &l2.sizes, VarianceKind::Sample));
        let obj_inf = sum_sq(&achieved_cvs(&s, 0, &linf.sizes, VarianceKind::Sample));
        assert!(obj_l2 <= obj_inf * 1.02, "l2 {obj_l2} vs linf {obj_inf}");
    }

    #[test]
    fn budget_covers_population() {
        let t = skewed_table();
        let s = stats(&t);
        let alloc = linf_allocation(&s, 0, 1_000_000, 1, VarianceKind::Sample).unwrap();
        assert_eq!(alloc.sizes, s.populations);
    }

    #[test]
    fn all_constant_groups_fall_back() {
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        for _ in 0..10 {
            b.push_row(&[Value::str("a"), Value::Float64(5.0)]).unwrap();
            b.push_row(&[Value::str("b"), Value::Float64(7.0)]).unwrap();
        }
        let t = b.finish();
        let s = stats(&t);
        let alloc = linf_allocation(&s, 0, 6, 1, VarianceKind::Sample).unwrap();
        assert!(alloc.total() <= 6);
        assert!(alloc.sizes.iter().all(|&x| x >= 1));
    }

    #[test]
    fn empty_stats() {
        let s = StratumStatistics {
            column_names: vec!["x".into()],
            states: vec![],
            populations: vec![],
        };
        let alloc = linf_allocation(&s, 0, 10, 1, VarianceKind::Sample).unwrap();
        assert!(alloc.sizes.is_empty());
    }
}
