//! `benchmark compare A.json B.json`: apply the bounds of `BENCHMARK.json`
//! to two sets of runs, per (workload, end-to-end metric).
//!
//! A is the parent, B the change. `worse` means B's median is worse than
//! A's by more than the metric's bound. `improved` follows the
//! ten-alternating-pairs rule: B wins at least nine tenths of the pairs
//! (ties count for neither side) and the medians differ by more than A's
//! own inter-quartile distance. `unresolved` means the run-to-run spread
//! exceeds the bound, so "no worse" cannot be told from "worse".

use std::collections::BTreeMap;
use std::process::ExitCode;

use cvopt_serve::Json;

use crate::harness::median;

/// Pairs the improvement rule needs.
const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so spreads read the same as the
/// driver's. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (data.len(), data.len() + 1);
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance; zero when fewer than two runs leave it unknown.
pub fn iqr(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    pub verdict: Verdict,
    pub median_a: f64,
    pub median_b: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sides' inter-quartile distance over its median.
    pub spread: f64,
    pub wins: usize,
    pub pairs: usize,
}

/// Judge one (workload, metric) pair from each side's runs, in run order.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Judgement {
    let (median_a, median_b) = (median(a), median(b));
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let scale = median_a.abs().max(f64::MIN_POSITIVE);
    let worse_by = sign * (median_b - median_a) / scale;
    let spread = (iqr(a) / scale).max(iqr(b) / median_b.abs().max(f64::MIN_POSITIVE));

    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| sign * (*y - *x) < 0.0).count();
    let clear_win = pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && (median_b - median_a).abs() > iqr(a)
        && worse_by < 0.0;

    let verdict = if worse_by > bound {
        // A difference inside the noise is not yet a regression.
        if spread > bound && worse_by <= spread {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if clear_win {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Judgement { verdict, median_a, median_b, worse_by, spread, wins, pairs }
}

/// `name → (higher is better, bound)` for the end-to-end metrics.
fn load_bounds(path: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or(format!("{path}: no end_to_end array"))?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => {
                    Ok((name.to_string(), better == "higher", bound))
                }
                _ => Err(format!("{path}: an end_to_end metric lacks name, better or bound")),
            }
        })
        .collect()
}

/// The untraced runs of a results file: `workload → metric → values` in run
/// order, plus failed and attempted operations per workload.
type Runs = BTreeMap<String, (BTreeMap<String, Vec<f64>>, u64, u64)>;

fn load_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let records = json.as_array().ok_or(format!("{path}: expected an array of runs"))?;
    let mut runs = Runs::new();
    for record in records {
        if record.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload = record.get("workload").and_then(Json::as_str);
        let result = record.get("result");
        let (Some(workload), Some(result)) = (workload, result) else {
            return Err(format!("{path}: a run lacks its workload or result"));
        };
        let entry = runs.entry(workload.to_string()).or_default();
        entry.1 += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        entry.2 += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Object(metrics)) = result.get("metrics") {
            for (name, metric) in metrics {
                if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                    entry.0.entry(name.clone()).or_default().push(value);
                }
            }
        }
    }
    Ok(runs)
}

pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bounds" => match it.next() {
                Some(path) => bounds_path = path.clone(),
                None => {
                    eprintln!("--bounds needs a path");
                    return ExitCode::from(2);
                }
            },
            path => files.push(path.to_string()),
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        eprintln!("usage: benchmark compare A.json B.json [--bounds BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let loaded = load_bounds(&bounds_path)
        .and_then(|bounds| Ok((bounds, load_runs(a_path)?, load_runs(b_path)?)));
    let (bounds, a, b) = match loaded {
        Ok(loaded) => loaded,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };

    let mut any_worse = false;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "change", "spread", "wins"
    );
    for (workload, (a_metrics, a_failed, a_attempted)) in &a {
        let Some((b_metrics, b_failed, b_attempted)) = b.get(workload) else {
            println!("{workload:<16} missing from {b_path}");
            any_worse = true;
            continue;
        };
        for (metric, higher, bound) in &bounds {
            let (Some(a_values), Some(b_values)) = (a_metrics.get(metric), b_metrics.get(metric))
            else {
                continue;
            };
            let j = judge(a_values, b_values, *higher, *bound);
            any_worse |= j.verdict == Verdict::Worse;
            println!(
                "{workload:<16} {metric:<18} {:>14.4} {:>14.4} {:>+8.2}% {:>8.2}% {:>4}/{:<2}  {}",
                j.median_a,
                j.median_b,
                (j.median_b - j.median_a) / j.median_a.abs().max(f64::MIN_POSITIVE) * 100.0,
                j.spread * 100.0,
                j.wins,
                j.pairs,
                j.verdict.label()
            );
        }
        // Any increase in the share of failed operations is a regression.
        let share = |failed: u64, attempted: u64| failed as f64 / attempted.max(1) as f64;
        let (fa, fb) = (share(*a_failed, *a_attempted), share(*b_failed, *b_attempted));
        let verdict = if fb > fa { Verdict::Worse } else { Verdict::Unchanged };
        any_worse |= verdict == Verdict::Worse;
        println!(
            "{workload:<16} {:<18} {fa:>14.6} {fb:>14.6} {:>9} {:>9} {:>7}  {}",
            "failed_share",
            "",
            "",
            "",
            verdict.label()
        );
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten runs around `centre`, ±`half_width` apart at the extremes.
    fn runs(centre: f64, half_width: f64) -> Vec<f64> {
        (0..10).map(|i| centre + half_width * (i as f64 - 4.5) / 4.5).collect()
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr(&[5.0]), 0.0);
    }

    #[test]
    fn same_commit_twice_is_unchanged() {
        let j = judge(&runs(100.0, 1.0), &runs(100.4, 1.0), false, 0.10);
        assert_eq!(j.verdict, Verdict::Unchanged);
        assert_eq!(j.pairs, 10);
    }

    #[test]
    fn a_regression_beyond_the_bound_is_worse_in_either_direction() {
        let slower = judge(&runs(100.0, 1.0), &runs(115.0, 1.0), false, 0.10);
        assert_eq!(slower.verdict, Verdict::Worse);
        assert!((slower.worse_by - 0.15).abs() < 1e-9);
        let fewer_ops = judge(&runs(50.0, 0.5), &runs(40.0, 0.5), true, 0.10);
        assert_eq!(fewer_ops.verdict, Verdict::Worse);
        let within = judge(&runs(100.0, 1.0), &runs(108.0, 1.0), false, 0.10);
        assert_eq!(within.verdict, Verdict::Unchanged);
    }

    #[test]
    fn improvement_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread() {
        let faster = judge(&runs(100.0, 1.0), &runs(90.0, 1.0), false, 0.10);
        assert_eq!((faster.verdict, faster.wins), (Verdict::Improved, 10));
        let more_ops = judge(&runs(50.0, 0.5), &runs(60.0, 0.5), true, 0.10);
        assert_eq!(more_ops.verdict, Verdict::Improved);
        // Better median, but the gap is inside the parent's own spread.
        let noisy = judge(&runs(100.0, 6.0), &runs(98.0, 6.0), false, 0.10);
        assert_eq!(noisy.verdict, Verdict::Unchanged);
        // Too few pairs to claim anything.
        let few = judge(&[100.0, 100.1, 99.9], &[90.0, 90.1, 89.9], false, 0.10);
        assert_eq!(few.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = judge(&runs(100.0, 20.0), &runs(103.0, 20.0), false, 0.10);
        assert_eq!(noisy.verdict, Verdict::Unresolved);
        // A loss inside that noise is not yet a regression ...
        let inside = judge(&runs(100.0, 20.0), &runs(112.0, 20.0), false, 0.10);
        assert_eq!(inside.verdict, Verdict::Unresolved);
        // ... one far outside it is.
        let outside = judge(&runs(100.0, 20.0), &runs(160.0, 20.0), false, 0.10);
        assert_eq!(outside.verdict, Verdict::Worse);
    }

    #[test]
    fn a_single_run_per_side_still_compares_medians() {
        assert_eq!(judge(&[10.0], &[10.5], false, 0.10).verdict, Verdict::Unchanged);
        assert_eq!(judge(&[10.0], &[12.0], false, 0.10).verdict, Verdict::Worse);
    }
}
