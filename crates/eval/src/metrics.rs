//! Relative-error metrics between exact and estimated query results.

use cvopt_table::QueryResult;

/// Per-(aggregate, group) relative errors of `estimate` against `truth`.
///
/// The error for a group present in the truth but *missing from the
/// estimate* is 1.0 (100%) — the convention behind the paper's "Uniform has
/// largest error of 100%, as some groups are absent" (§6.1).
///
/// `floor` guards division for derived answers whose true value can be
/// arbitrarily close to zero (e.g. AQ1's year-over-year deltas): the error
/// is `|est − truth| / max(|truth|, floor)`. Plain queries use `floor = 0`.
pub fn relative_errors(truth: &QueryResult, estimate: &QueryResult, floor: f64) -> Vec<Vec<f64>> {
    let mut per_agg = vec![Vec::with_capacity(truth.num_groups()); truth.num_aggregates()];
    for (key, true_values) in truth.iter() {
        for (agg, &t) in true_values.iter().enumerate() {
            let err = match estimate.value(key, agg) {
                Some(e) => {
                    let denom = t.abs().max(floor);
                    if denom == 0.0 {
                        // True value is exactly zero and no floor: score 0
                        // for an exact hit, 1 otherwise.
                        if e == 0.0 {
                            0.0
                        } else {
                            1.0
                        }
                    } else {
                        (e - t).abs() / denom
                    }
                }
                None => 1.0,
            };
            per_agg[agg].push(err);
        }
    }
    per_agg
}

/// Flatten multi-grouping-set (cube) comparisons into one error vector.
pub fn relative_errors_all(
    truth: &[QueryResult],
    estimates: &[QueryResult],
    floor: f64,
) -> Vec<f64> {
    assert_eq!(truth.len(), estimates.len(), "grouping-set count mismatch");
    let mut all = Vec::new();
    for (t, e) in truth.iter().zip(estimates) {
        for agg_errors in relative_errors(t, e, floor) {
            all.extend(agg_errors);
        }
    }
    all
}

/// Summary statistics over a set of relative errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSummary {
    /// Largest error.
    pub max: f64,
    /// Mean error.
    pub mean: f64,
    /// Median error.
    pub median: f64,
    /// Number of (group, aggregate) answers scored.
    pub count: usize,
}

impl ErrorSummary {
    /// Compute from raw errors. Returns a zero summary for empty input.
    pub fn from_errors(errors: &[f64]) -> ErrorSummary {
        if errors.is_empty() {
            return ErrorSummary { max: 0.0, mean: 0.0, median: 0.0, count: 0 };
        }
        let mut sorted: Vec<f64> = errors.to_vec();
        sorted.sort_by(f64::total_cmp);
        ErrorSummary {
            max: *sorted.last().expect("non-empty"),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            median: percentile_of_sorted(&sorted, 0.5),
            count: sorted.len(),
        }
    }
}

/// The `p`-th percentile (0 ≤ p ≤ 1) of raw errors, by linear interpolation.
pub fn percentile(errors: &[f64], p: f64) -> f64 {
    if errors.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = errors.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted(&sorted, p)
}

fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let p = p.clamp(0.0, 1.0);
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvopt_table::groupby::KeyAtom;

    fn result(rows: Vec<(&str, Vec<f64>)>, aggs: usize) -> QueryResult {
        let agg_names = (0..aggs).map(|i| format!("a{i}")).collect();
        QueryResult::from_parts(
            vec!["g".into()],
            agg_names,
            rows.into_iter().map(|(k, v)| (vec![KeyAtom::from(k)], v, 1)).collect(),
        )
    }

    #[test]
    fn per_group_errors() {
        let truth = result(vec![("a", vec![10.0]), ("b", vec![100.0])], 1);
        let est = result(vec![("a", vec![11.0]), ("b", vec![90.0])], 1);
        let errs = relative_errors(&truth, &est, 0.0);
        assert_eq!(errs.len(), 1);
        assert!((errs[0][0] - 0.1).abs() < 1e-12);
        assert!((errs[0][1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn missing_group_scores_one() {
        let truth = result(vec![("a", vec![10.0]), ("b", vec![100.0])], 1);
        let est = result(vec![("a", vec![10.0])], 1);
        let errs = relative_errors(&truth, &est, 0.0);
        assert_eq!(errs[0], vec![0.0, 1.0]);
    }

    #[test]
    fn floor_guards_small_truth() {
        let truth = result(vec![("a", vec![0.001])], 1);
        let est = result(vec![("a", vec![0.101])], 1);
        let raw = relative_errors(&truth, &est, 0.0);
        assert!(raw[0][0] > 50.0);
        let floored = relative_errors(&truth, &est, 1.0);
        assert!((floored[0][0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn exact_zero_truth() {
        let truth = result(vec![("a", vec![0.0])], 1);
        let exact = result(vec![("a", vec![0.0])], 1);
        let wrong = result(vec![("a", vec![5.0])], 1);
        assert_eq!(relative_errors(&truth, &exact, 0.0)[0], vec![0.0]);
        assert_eq!(relative_errors(&truth, &wrong, 0.0)[0], vec![1.0]);
    }

    #[test]
    fn multi_aggregate_errors() {
        let truth = result(vec![("a", vec![10.0, 20.0])], 2);
        let est = result(vec![("a", vec![12.0, 20.0])], 2);
        let errs = relative_errors(&truth, &est, 0.0);
        assert!((errs[0][0] - 0.2).abs() < 1e-12);
        assert_eq!(errs[1], vec![0.0]);
    }

    #[test]
    fn summary_stats() {
        let s = ErrorSummary::from_errors(&[0.1, 0.4, 0.2, 0.3]);
        assert_eq!(s.max, 0.4);
        assert!((s.mean - 0.25).abs() < 1e-12);
        assert!((s.median - 0.25).abs() < 1e-12);
        assert_eq!(s.count, 4);
    }

    #[test]
    fn summary_empty() {
        let s = ErrorSummary::from_errors(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn percentiles() {
        let errs: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        assert!((percentile(&errs, 0.0) - 0.01).abs() < 1e-12);
        assert!((percentile(&errs, 1.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&errs, 0.5) - 0.505).abs() < 1e-9);
        assert!((percentile(&errs, 0.9) - 0.901).abs() < 0.01);
    }

    #[test]
    fn cube_flatten() {
        let t1 = result(vec![("a", vec![10.0])], 1);
        let e1 = result(vec![("a", vec![15.0])], 1);
        let t2 = result(vec![("x", vec![4.0])], 1);
        let e2 = result(vec![("x", vec![2.0])], 1);
        let all = relative_errors_all(&[t1, t2], &[e1, e2], 0.0);
        assert_eq!(all.len(), 2);
        assert!((all[0] - 0.5).abs() < 1e-12);
        assert!((all[1] - 0.5).abs() < 1e-12);
    }
}
