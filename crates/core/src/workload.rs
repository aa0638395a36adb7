//! Workload-driven weights (paper §4.3).
//!
//! A workload is a multiset of group-by queries (e.g. from a warehouse's
//! periodic-query log). Each query *stratifies its aggregation columns into
//! aggregation groups* — pairs of (aggregation column, group-by value
//! assignment) restricted to groups that actually match the query's
//! predicate. The frequency of each aggregation group across the workload
//! becomes its weight in the CVOPT optimization.
//!
//! Note: the paper's Table 3 lists frequency 25 for the `(age, major=*)`
//! groups, which is not reproducible from Table 2's stated repeats
//! (A=20, B=10, C=15): only query A produces those groups, giving 20. We
//! implement the defined semantics (sum of repeats of producing queries) and
//! document the discrepancy here.

use cvopt_table::{AggExpr, GroupByQuery, Predicate, ScalarExpr, Table};

use crate::spec::{AggColumn, QuerySpec};
use crate::Result;

/// One query pattern in a workload, with its observed frequency.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    /// Group-by expressions.
    pub group_by: Vec<ScalarExpr>,
    /// Aggregated columns.
    pub agg_columns: Vec<ScalarExpr>,
    /// Optional predicate (restricts which aggregation groups the query
    /// produces).
    pub predicate: Option<Predicate>,
    /// Number of occurrences in the workload.
    pub repeats: u64,
}

impl WorkloadQuery {
    /// Query grouping by `group_by` columns and averaging `agg_columns`.
    pub fn new(group_by: &[&str], agg_columns: &[&str], repeats: u64) -> Self {
        WorkloadQuery {
            group_by: group_by.iter().map(|c| ScalarExpr::col(*c)).collect(),
            agg_columns: agg_columns.iter().map(|c| ScalarExpr::col(*c)).collect(),
            predicate: None,
            repeats,
        }
    }

    /// Attach a predicate.
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = Some(predicate);
        self
    }
}

/// A workload: query patterns plus frequencies.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// The query patterns.
    pub queries: Vec<WorkloadQuery>,
}

impl Workload {
    /// Empty workload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a query pattern.
    pub fn push(&mut self, query: WorkloadQuery) -> &mut Self {
        self.queries.push(query);
        self
    }

    /// Deduce aggregation groups and their frequencies against `table`, and
    /// emit weighted [`QuerySpec`]s for the CVOPT planner.
    ///
    /// Queries with the same group-by signature are merged: their columns'
    /// per-group weights are the summed frequencies of every workload query
    /// producing that aggregation group. Groups never requested get weight 0
    /// (they are still covered by the planner's per-stratum minimum).
    pub fn derive_specs(&self, table: &Table) -> Result<Vec<QuerySpec>> {
        // signature -> (group_by exprs, column name -> AggColumn builder)
        let mut order: Vec<String> = Vec::new();
        let mut specs: Vec<QuerySpec> = Vec::new();

        for wq in &self.queries {
            let signature: Vec<String> = wq.group_by.iter().map(|e| e.display_name()).collect();
            let sig_key = signature.join("\u{1}");
            let spec_idx = match order.iter().position(|s| *s == sig_key) {
                Some(i) => i,
                None => {
                    order.push(sig_key);
                    specs.push(QuerySpec { group_by: wq.group_by.clone(), aggregates: Vec::new() });
                    specs.len() - 1
                }
            };

            // Which groups does this query produce? Those with a row under
            // its predicate; without one, every group the exact `COUNT(*)`
            // answers, the empty grouping's one row over no rows included.
            let mut count = GroupByQuery::new(wq.group_by.clone(), vec![AggExpr::count()]);
            count.predicate = wq.predicate.clone();
            let counted = count.execute(table)?.remove(0);
            let produced = || {
                let counts = counted.keys.iter().zip(&counted.group_rows);
                counts.filter(|&(_, &rows)| rows > 0 || wq.predicate.is_none()).map(|(key, _)| key)
            };

            for col in &wq.agg_columns {
                let col_name = col.display_name();
                let spec = &mut specs[spec_idx];
                let agg_idx = match spec
                    .aggregates
                    .iter()
                    .position(|a| a.column.display_name() == col_name)
                {
                    Some(i) => i,
                    None => {
                        spec.aggregates.push(AggColumn::from_expr(col.clone()).with_weight(0.0));
                        spec.aggregates.len() - 1
                    }
                };
                let agg = &mut spec.aggregates[agg_idx];
                for key in produced() {
                    *agg.group_weights.entry(key.clone()).or_insert(0.0) += wq.repeats as f64;
                }
            }
        }
        Ok(specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvopt_table::{CmpOp, DataType, KeyAtom, TableBuilder, Value};

    /// The paper's Student table (Table 1).
    fn student_table() -> Table {
        let mut b = TableBuilder::new(&[
            ("age", DataType::Int64),
            ("gpa", DataType::Float64),
            ("sat", DataType::Int64),
            ("major", DataType::Str),
            ("college", DataType::Str),
        ]);
        let rows: [(i64, f64, i64, &str, &str); 8] = [
            (25, 3.4, 1250, "CS", "Science"),
            (22, 3.1, 1280, "CS", "Science"),
            (24, 3.8, 1230, "Math", "Science"),
            (28, 3.6, 1270, "Math", "Science"),
            (21, 3.5, 1210, "EE", "Engineering"),
            (23, 3.2, 1260, "EE", "Engineering"),
            (27, 3.7, 1220, "ME", "Engineering"),
            (26, 3.3, 1230, "ME", "Engineering"),
        ];
        for (age, gpa, sat, major, college) in rows {
            b.push_row(&[
                Value::Int64(age),
                Value::Float64(gpa),
                Value::Int64(sat),
                Value::str(major),
                Value::str(college),
            ])
            .unwrap();
        }
        b.finish()
    }

    /// The paper's example workload (Table 2): A×20, B×10, C×15.
    fn paper_workload() -> Workload {
        let mut w = Workload::new();
        w.push(WorkloadQuery::new(&["major"], &["age", "gpa"], 20));
        w.push(WorkloadQuery::new(&["college"], &["age", "sat"], 10));
        w.push(WorkloadQuery::new(&["major"], &["gpa"], 15).with_predicate(Predicate::cmp(
            "college",
            CmpOp::Eq,
            "Science",
        )));
        w
    }

    #[test]
    fn paper_example_weights() {
        let t = student_table();
        let specs = paper_workload().derive_specs(&t).unwrap();
        assert_eq!(specs.len(), 2, "two distinct group-by signatures");

        // Signature 1: GROUP BY major, columns age and gpa.
        let major = &specs[0];
        assert_eq!(major.aggregates.len(), 2);
        let age = &major.aggregates[0];
        assert_eq!(age.column.display_name(), "age");
        // (age, major=X) produced only by query A → weight 20.
        // (The paper's Table 3 prints 25 here; see module docs.)
        for m in ["CS", "Math", "EE", "ME"] {
            assert_eq!(age.weight_for(&[KeyAtom::from(m)]), 20.0, "age/{m}");
        }
        let gpa = &major.aggregates[1];
        // (gpa, major=CS/Math) from A (20) + C (15, predicate keeps Science
        // majors only) = 35; EE/ME only from A = 20.
        assert_eq!(gpa.weight_for(&[KeyAtom::from("CS")]), 35.0);
        assert_eq!(gpa.weight_for(&[KeyAtom::from("Math")]), 35.0);
        assert_eq!(gpa.weight_for(&[KeyAtom::from("EE")]), 20.0);
        assert_eq!(gpa.weight_for(&[KeyAtom::from("ME")]), 20.0);

        // Signature 2: GROUP BY college, columns age and sat → weight 10.
        let college = &specs[1];
        for agg in &college.aggregates {
            for c in ["Science", "Engineering"] {
                assert_eq!(agg.weight_for(&[KeyAtom::from(c)]), 10.0);
            }
        }
    }

    #[test]
    fn unrequested_groups_weight_zero() {
        let t = student_table();
        let mut w = Workload::new();
        w.push(WorkloadQuery::new(&["major"], &["gpa"], 5).with_predicate(Predicate::cmp(
            "college",
            CmpOp::Eq,
            "Science",
        )));
        let specs = w.derive_specs(&t).unwrap();
        let gpa = &specs[0].aggregates[0];
        assert_eq!(gpa.weight_for(&[KeyAtom::from("CS")]), 5.0);
        // EE never matches the predicate → falls back to base weight 0.
        assert_eq!(gpa.weight_for(&[KeyAtom::from("EE")]), 0.0);
    }

    /// Over no rows, a query with a predicate produces no group; one
    /// without produces the full-table aggregate's one row, as the grouping
    /// over the table has it, and no other.
    #[test]
    fn groups_over_no_rows() {
        let t = student_table();
        let empty = TableBuilder::from_schema(t.schema().clone()).finish();
        let none = Predicate::cmp("age", CmpOp::Gt, 100.0);
        for (table, predicate) in [(&empty, None), (&empty, Some(&none)), (&t, Some(&none))] {
            for group_by in [&[][..], &["major"]] {
                let mut query = WorkloadQuery::new(group_by, &["gpa"], 3);
                query.predicate = predicate.cloned();
                let specs = Workload { queries: vec![query] }.derive_specs(table).unwrap();
                let weights = &specs[0].aggregates[0].group_weights;
                let context = format!("{group_by:?} {predicate:?}");
                match (group_by.is_empty(), predicate) {
                    (true, None) => assert_eq!(weights.get(&Vec::new()), Some(&3.0), "{context}"),
                    _ => assert!(weights.is_empty(), "{context}"),
                }
            }
        }
    }

    #[test]
    fn empty_workload() {
        let t = student_table();
        let specs = Workload::new().derive_specs(&t).unwrap();
        assert!(specs.is_empty());
    }
}
