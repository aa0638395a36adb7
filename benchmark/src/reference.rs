//! The correctness reference: a naive single-threaded `HashMap` group-by,
//! and the comparisons that turn an engine answer into pass / fail / error
//! terms. It shares the crates' expression evaluator (`ScalarExpr::bind`)
//! and nothing of their grouping, partitioning, merging or sampling.

use std::collections::HashMap;

use cvopt_core::QueryAnswer;
use cvopt_serve::Json;
use cvopt_table::{grouping_sets, AggKind, GroupByQuery, KeyAtom, QueryResult, Table};

/// Exact answers must agree with the reference to this relative tolerance.
pub const EXACT_TOLERANCE: f64 = 1e-9;
/// Denominator floor of a relative error.
pub const REL_ERR_FLOOR: f64 = 1e-9;
/// An approximate answer whose mean relative error exceeds this is worse
/// than not answering (a missing group scores exactly 1.0) and fails.
pub const ERROR_CEILING: f64 = 1.0;

const MAX_DIMS: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Acc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Acc {
    const EMPTY: Acc = Acc { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY };

    fn update(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &Acc) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn finalize(&self, kind: AggKind) -> f64 {
        match kind {
            AggKind::Count => self.count as f64,
            AggKind::Sum | AggKind::CountIf => self.sum,
            AggKind::Avg if self.count == 0 => f64::NAN,
            AggKind::Avg => self.sum / self.count as f64,
            AggKind::Min => self.min,
            AggKind::Max => self.max,
            AggKind::Var | AggKind::Std => {
                panic!("the reference group-by has no variance; keep VAR/STD out of the workloads")
            }
        }
    }
}

/// One grouping set of a reference answer.
#[derive(Debug)]
pub struct RefSet {
    pub grouping: Vec<String>,
    /// key → (one value per aggregate, contributing rows).
    pub groups: HashMap<Vec<KeyAtom>, (Vec<f64>, u64)>,
}

/// The reference answer to one statement: one set per grouping set.
#[derive(Debug)]
pub struct RefAnswer {
    pub sets: Vec<RefSet>,
}

/// Answer `query` over `table` the slow, obvious way: one pass, one
/// `HashMap` from key tuple to accumulators, rows in table order.
pub fn group_by(table: &Table, query: &GroupByQuery) -> RefAnswer {
    let dims = query.group_by.len();
    assert!(dims <= MAX_DIMS, "reference group-by handles at most {MAX_DIMS} dimensions");
    let keys: Vec<_> =
        query.group_by.iter().map(|e| e.bind(table).expect("bind group-by")).collect();
    let inputs: Vec<_> = query
        .aggregates
        .iter()
        .map(|a| a.input.as_ref().map(|e| e.bind(table).expect("bind aggregate input")))
        .collect();
    let filter = query.predicate.as_ref().map(|p| p.bind(table).expect("bind predicate"));

    // Finest groups in first-occurrence order, so roll-ups add in a fixed
    // order and the reference repeats to the last bit.
    let mut slot_of: HashMap<[i64; MAX_DIMS], usize> = HashMap::new();
    let mut codes: Vec<[i64; MAX_DIMS]> = Vec::new();
    let mut accs: Vec<Vec<Acc>> = Vec::new();
    for row in 0..table.num_rows() {
        if filter.as_ref().is_some_and(|f| !f.matches(row)) {
            continue;
        }
        let mut code = [0i64; MAX_DIMS];
        for (slot, key) in code.iter_mut().zip(&keys) {
            *slot = match key.str_code_at(row) {
                Some(c) => i64::from(c),
                None => key.i64_at(row).expect("group key is a string or an integer"),
            };
        }
        let slot = *slot_of.entry(code).or_insert_with(|| {
            codes.push(code);
            accs.push(vec![Acc::EMPTY; inputs.len()]);
            codes.len() - 1
        });
        for ((acc, agg), input) in accs[slot].iter_mut().zip(&query.aggregates).zip(&inputs) {
            match (agg.kind, input) {
                (AggKind::Count, _) => acc.update(1.0),
                (AggKind::CountIf, Some(e)) => {
                    let (op, threshold) = agg.condition.expect("COUNT_IF carries a condition");
                    let v = e.f64_at(row).unwrap_or(f64::NAN);
                    acc.update(if op.evaluate_f64(v, threshold) { 1.0 } else { 0.0 });
                }
                (_, Some(e)) => {
                    if let Some(v) = e.f64_at(row) {
                        acc.update(v);
                    }
                }
                (_, None) => {}
            }
        }
    }

    let atom = |dim: usize, code: i64| -> KeyAtom {
        if keys[dim].is_plain_str() {
            let dict = keys[dim].column().dictionary().expect("string column has a dictionary");
            KeyAtom::Str(dict.get_arc(code as u32))
        } else {
            KeyAtom::Int(code)
        }
    };
    let sets = if query.cube { grouping_sets(dims) } else { vec![(0..dims).collect()] };
    let sets = sets
        .into_iter()
        .map(|set| {
            let mut slot_of: HashMap<Vec<i64>, usize> = HashMap::new();
            let mut merged: Vec<(Vec<i64>, Vec<Acc>)> = Vec::new();
            for (code, fine) in codes.iter().zip(&accs) {
                let coarse: Vec<i64> = set.iter().map(|&d| code[d]).collect();
                let slot = *slot_of.entry(coarse.clone()).or_insert_with(|| {
                    merged.push((coarse, vec![Acc::EMPTY; inputs.len()]));
                    merged.len() - 1
                });
                for (into, from) in merged[slot].1.iter_mut().zip(fine) {
                    into.merge(from);
                }
            }
            let groups = merged
                .into_iter()
                .filter_map(|(coarse, accs)| {
                    let rows = accs.iter().map(|a| a.count).max().unwrap_or(0);
                    (rows > 0).then(|| {
                        let key = set.iter().zip(&coarse).map(|(&d, &c)| atom(d, c)).collect();
                        let values =
                            accs.iter().zip(&query.aggregates).map(|(a, g)| a.finalize(g.kind));
                        (key, (values.collect(), rows))
                    })
                })
                .collect();
            let grouping = set.iter().map(|&d| query.group_by[d].display_name()).collect();
            RefSet { grouping, groups }
        })
        .collect();
    RefAnswer { sets }
}

fn close(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || (a - b).abs() <= EXACT_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

fn matching_set<'a>(got: &QueryResult, want: &'a RefAnswer) -> Result<&'a RefSet, String> {
    want.sets
        .iter()
        .find(|s| s.grouping == got.grouping)
        .ok_or_else(|| format!("unexpected grouping set {:?}", got.grouping))
}

/// An exact answer must be the reference: same grouping sets, same groups,
/// same contributing rows, values within [`EXACT_TOLERANCE`].
pub fn check_exact(got: &[QueryResult], want: &RefAnswer) -> Result<(), String> {
    if got.len() != want.sets.len() {
        return Err(format!("{} grouping sets, reference has {}", got.len(), want.sets.len()));
    }
    for result in got {
        let set = matching_set(result, want)?;
        if result.num_groups() != set.groups.len() {
            return Err(format!(
                "{:?}: {} groups, reference has {}",
                result.grouping,
                result.num_groups(),
                set.groups.len()
            ));
        }
        for ((key, values), &rows) in result.iter().zip(&result.group_rows) {
            let Some((want_values, want_rows)) = set.groups.get(key) else {
                return Err(format!(
                    "{:?}: group {key:?} is not in the reference",
                    result.grouping
                ));
            };
            if rows != *want_rows {
                return Err(format!("group {key:?}: {rows} rows, reference has {want_rows}"));
            }
            for (got_v, want_v) in values.iter().zip(want_values) {
                if !close(*got_v, *want_v) {
                    return Err(format!("group {key:?}: {got_v} != reference {want_v}"));
                }
            }
        }
    }
    Ok(())
}

/// Relative error of every (group, aggregate) of the reference under the
/// estimate `got`: `|est − exact| / max(|exact|, floor)`, 1.0 for a group
/// the estimate lacks.
///
/// Fails when the estimate invents a group, when `complete` is set and a
/// reference group is missing (statements without a `WHERE` clause group
/// on their own strata, so every group holds at least one sampled row),
/// or when the mean error exceeds [`ERROR_CEILING`].
pub fn check_approx(
    got: &[QueryResult],
    want: &RefAnswer,
    complete: bool,
) -> Result<Vec<f64>, String> {
    if got.len() != want.sets.len() {
        return Err(format!("{} grouping sets, reference has {}", got.len(), want.sets.len()));
    }
    let mut terms = Vec::new();
    for result in got {
        let set = matching_set(result, want)?;
        if let Some(phantom) = result.keys.iter().find(|k| !set.groups.contains_key(*k)) {
            return Err(format!(
                "{:?}: estimated group {phantom:?} does not exist",
                result.grouping
            ));
        }
        for (key, (values, _)) in &set.groups {
            let present = result.group_position(key).is_some();
            if complete && !present {
                return Err(format!("{:?}: group {key:?} is missing", result.grouping));
            }
            for (agg, &exact) in values.iter().enumerate() {
                terms.push(match result.value(key, agg) {
                    Some(est) => (est - exact).abs() / exact.abs().max(REL_ERR_FLOOR),
                    None => 1.0,
                });
            }
        }
    }
    // Group maps iterate in arbitrary order; sort so sums over the terms
    // repeat exactly.
    terms.sort_by(f64::total_cmp);
    let mean = terms.iter().sum::<f64>() / terms.len().max(1) as f64;
    if mean > ERROR_CEILING {
        return Err(format!("mean relative error {mean:.3} exceeds the ceiling {ERROR_CEILING}"));
    }
    Ok(terms)
}

/// The part of an answer's JSON that must not depend on where the rows
/// live: results and confidence intervals. (The plan report names the
/// layout, so it differs by design.)
pub fn answer_bytes(answer: &QueryAnswer) -> String {
    let json = cvopt_serve::api::answer_json(answer);
    let mut out = String::new();
    for part in ["results", "confidence"] {
        json.get(part).unwrap_or(&Json::Null).write(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvopt_table::{sql, DataType, ExecOptions, TableBuilder, Value};

    /// g ∈ {a, b}, h ∈ {1, 2}; x chosen so every sum is easy to check.
    fn hand_made() -> Table {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("h", DataType::Int64),
            ("x", DataType::Float64),
        ]);
        for (g, h, x) in [
            ("a", 1, 1.0),
            ("a", 1, 3.0),
            ("a", 2, 5.0),
            ("b", 1, 10.0),
            ("b", 2, 20.0),
            ("b", 2, 60.0),
        ] {
            b.push_row(&[Value::str(g), Value::Int64(h), Value::Float64(x)]).unwrap();
        }
        b.finish()
    }

    fn value(answer: &RefAnswer, set: usize, key: &[KeyAtom], agg: usize) -> f64 {
        answer.sets[set].groups[key].0[agg]
    }

    #[test]
    fn reference_group_by_on_a_hand_made_table() {
        let table = hand_made();
        let query = sql::compile(
            "SELECT g, SUM(x), AVG(x), COUNT(*), COUNT_IF(x > 4), MIN(x), MAX(x) FROM t GROUP BY g",
        )
        .unwrap();
        let answer = group_by(&table, &query);
        assert_eq!(answer.sets.len(), 1);
        let a = [KeyAtom::from("a")];
        let b = [KeyAtom::from("b")];
        assert_eq!(answer.sets[0].groups[&a[..]].0, vec![9.0, 3.0, 3.0, 1.0, 1.0, 5.0]);
        assert_eq!(answer.sets[0].groups[&b[..]].0, vec![90.0, 30.0, 3.0, 3.0, 10.0, 60.0]);
        assert_eq!(answer.sets[0].groups[&b[..]].1, 3);
    }

    #[test]
    fn reference_applies_predicates_and_rolls_up_cubes() {
        let table = hand_made();
        let query = sql::compile("SELECT g, h, SUM(x) FROM t WHERE x < 50 GROUP BY g, h WITH CUBE")
            .unwrap();
        let answer = group_by(&table, &query);
        let groupings: Vec<_> = answer.sets.iter().map(|s| s.grouping.join(",")).collect();
        assert_eq!(groupings, ["g,h", "g", "h", ""]);
        assert_eq!(value(&answer, 0, &[KeyAtom::from("b"), KeyAtom::Int(2)], 0), 20.0);
        assert_eq!(value(&answer, 1, &[KeyAtom::from("a")], 0), 9.0);
        assert_eq!(value(&answer, 2, &[KeyAtom::Int(1)], 0), 14.0);
        assert_eq!(value(&answer, 3, &[], 0), 39.0);
    }

    #[test]
    fn the_exact_executor_agrees_with_the_reference_and_a_wrong_answer_does_not() {
        let table = hand_made();
        let query =
            sql::compile("SELECT g, h, SUM(x), AVG(x) FROM t GROUP BY g, h WITH CUBE").unwrap();
        let want = group_by(&table, &query);
        let got = query.execute_with(&table, &ExecOptions::new(2)).unwrap();
        check_exact(&got, &want).unwrap();

        let other =
            sql::compile("SELECT g, h, SUM(x), MAX(x) FROM t GROUP BY g, h WITH CUBE").unwrap();
        let wrong = other.execute_with(&table, &ExecOptions::new(2)).unwrap();
        assert!(check_exact(&wrong, &want).is_err());
        assert!(check_exact(&got[..1], &want).is_err(), "a missing grouping set must fail");
    }

    #[test]
    fn approximate_checks_score_missing_groups_and_reject_phantoms() {
        let table = hand_made();
        let query = sql::compile("SELECT g, SUM(x) FROM t GROUP BY g").unwrap();
        let want = group_by(&table, &query);
        let exact = query.execute_with(&table, &ExecOptions::new(1)).unwrap();
        assert_eq!(check_approx(&exact, &want, true).unwrap(), vec![0.0, 0.0]);

        // Only group "a", 10% high: one term 0.1, one missing group at 1.0.
        let partial = vec![QueryResult::from_parts(
            vec!["g".into()],
            vec!["SUM(x)".into()],
            vec![(vec![KeyAtom::from("a")], vec![9.9], 3)],
        )];
        let terms = check_approx(&partial, &want, false).unwrap();
        assert!((terms[0] - 0.1).abs() < 1e-12 && terms[1] == 1.0, "{terms:?}");
        assert!(
            check_approx(&partial, &want, true).is_err(),
            "complete answers may not lack groups"
        );

        let phantom = vec![QueryResult::from_parts(
            vec!["g".into()],
            vec!["SUM(x)".into()],
            vec![(vec![KeyAtom::from("zz")], vec![1.0], 1)],
        )];
        assert!(check_approx(&phantom, &want, false).is_err());

        let wild = vec![QueryResult::from_parts(
            vec!["g".into()],
            vec!["SUM(x)".into()],
            vec![
                (vec![KeyAtom::from("a")], vec![900.0], 3),
                (vec![KeyAtom::from("b")], vec![9.0], 3),
            ],
        )];
        assert!(check_approx(&wild, &want, true).is_err(), "mean error above the ceiling fails");
    }
}
