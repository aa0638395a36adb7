//! Predicate AST and evaluation.
//!
//! Predicates are resolved against a table once ([`Predicate::bind`]) and can
//! then be evaluated row-at-a-time or in bulk into a [`Bitmap`]. String
//! comparisons are resolved to dictionary codes at bind time, so the per-row
//! work for `country = 'VN'` is a single integer compare.

use crate::bitmap::Bitmap;
use crate::error::TableError;
use crate::expr::{BoundExpr, ScalarExpr};
use crate::table::Table;
use crate::types::Value;
use crate::Result;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply to an ordering between left and right.
    #[inline]
    pub fn evaluate(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// Apply to two floats (total order).
    #[inline]
    pub fn evaluate_f64(self, left: f64, right: f64) -> bool {
        self.evaluate(left.total_cmp(&right))
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A filter predicate over table rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (no filtering).
    True,
    /// `expr OP literal`.
    Cmp {
        /// Left-hand expression.
        expr: ScalarExpr,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand literal.
        value: Value,
    },
    /// `expr BETWEEN low AND high` (inclusive).
    Between {
        /// Tested expression.
        expr: ScalarExpr,
        /// Inclusive lower bound.
        low: Value,
        /// Inclusive upper bound.
        high: Value,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// Tested expression.
        expr: ScalarExpr,
        /// Allowed values.
        values: Vec<Value>,
    },
    /// Logical conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Logical disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Logical negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column OP literal` convenience constructor.
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate::Cmp { expr: ScalarExpr::col(column), op, value: value.into() }
    }

    /// `expr OP literal` convenience constructor.
    pub fn cmp_expr(expr: ScalarExpr, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate::Cmp { expr, op, value: value.into() }
    }

    /// `expr BETWEEN low AND high` convenience constructor.
    pub fn between(expr: ScalarExpr, low: impl Into<Value>, high: impl Into<Value>) -> Self {
        Predicate::Between { expr, low: low.into(), high: high.into() }
    }

    /// `self AND other`.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Append the name of every column this predicate reads to `names`,
    /// each once, in the order [`Predicate::bind`] resolves them (see
    /// `ScalarExpr::collect_columns`; the match is exhaustive the same way).
    pub(crate) fn collect_columns<'p>(&'p self, names: &mut Vec<&'p str>) {
        match self {
            Predicate::True => {}
            Predicate::Cmp { expr, op: _, value: _ }
            | Predicate::Between { expr, low: _, high: _ }
            | Predicate::InList { expr, values: _ } => expr.collect_columns(names),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(names);
                b.collect_columns(names);
            }
            Predicate::Not(a) => a.collect_columns(names),
        }
    }

    /// Resolve column names and string literals against `table`.
    pub fn bind<'t>(&self, table: &'t Table) -> Result<BoundPredicate<'t>> {
        let node = self.bind_node(table)?;
        Ok(BoundPredicate { node })
    }

    fn bind_node<'t>(&self, table: &'t Table) -> Result<Node<'t>> {
        Ok(match self {
            Predicate::True => Node::True,
            Predicate::Cmp { expr, op, value } => {
                let bound = expr.bind(table)?;
                let rhs = Rhs::bind(&bound, value)?;
                Node::Cmp { expr: bound, op: *op, rhs }
            }
            Predicate::Between { expr, low, high } => {
                let bound = expr.bind(table)?;
                let low = as_f64(low)?;
                let high = as_f64(high)?;
                Node::Between { expr: bound, low, high }
            }
            Predicate::InList { expr, values } => {
                let bound = expr.bind(table)?;
                if bound.is_plain_str() {
                    // Resolve to dictionary codes; strings absent from the
                    // dictionary can never match and are dropped.
                    let dict = bound.column().dictionary().expect("plain str column");
                    let mut codes = Vec::with_capacity(values.len());
                    for v in values {
                        let s = v.as_str().ok_or_else(|| {
                            TableError::invalid(
                                "IN list over a string column needs string literals",
                            )
                        })?;
                        if let Some(code) = dict.code_of(s) {
                            codes.push(code);
                        }
                    }
                    codes.sort_unstable();
                    Node::InCodes { expr: bound, codes }
                } else {
                    let mut nums = Vec::with_capacity(values.len());
                    for v in values {
                        nums.push(as_f64(v)?);
                    }
                    Node::InNumbers { expr: bound, values: nums }
                }
            }
            Predicate::And(a, b) => {
                Node::And(Box::new(a.bind_node(table)?), Box::new(b.bind_node(table)?))
            }
            Predicate::Or(a, b) => {
                Node::Or(Box::new(a.bind_node(table)?), Box::new(b.bind_node(table)?))
            }
            Predicate::Not(a) => Node::Not(Box::new(a.bind_node(table)?)),
        })
    }
}

/// SQL-flavored rendering: atoms print as `expr OP literal` (string
/// literals single-quoted), conjunction/disjunction operands are
/// parenthesized when they are themselves compound, so the output
/// round-trips the tree shape unambiguously. Used by plan reports and the
/// engine's query log to describe predicate *shapes*.
impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn literal(v: &Value) -> String {
            match v {
                Value::Str(s) => format!("'{s}'"),
                other => other.to_string(),
            }
        }
        fn operand(p: &Predicate) -> String {
            match p {
                Predicate::And(..) | Predicate::Or(..) => format!("({p})"),
                _ => p.to_string(),
            }
        }
        match self {
            Predicate::True => f.write_str("TRUE"),
            Predicate::Cmp { expr, op, value } => {
                write!(f, "{expr} {op} {}", literal(value))
            }
            Predicate::Between { expr, low, high } => {
                write!(f, "{expr} BETWEEN {} AND {}", literal(low), literal(high))
            }
            Predicate::InList { expr, values } => {
                let list: Vec<String> = values.iter().map(literal).collect();
                write!(f, "{expr} IN ({})", list.join(", "))
            }
            Predicate::And(a, b) => write!(f, "{} AND {}", operand(a), operand(b)),
            Predicate::Or(a, b) => write!(f, "{} OR {}", operand(a), operand(b)),
            Predicate::Not(a) => write!(f, "NOT {}", operand(a)),
        }
    }
}

fn as_f64(v: &Value) -> Result<f64> {
    v.as_f64().ok_or_else(|| TableError::invalid(format!("expected a numeric literal, got {v:?}")))
}

#[derive(Debug, Clone)]
enum Rhs {
    /// Numeric comparison value.
    Number(f64),
    /// Dictionary code of a string literal present in the column dictionary.
    Code(u32),
    /// String literal absent from the dictionary: `=` never matches, `<>`
    /// always matches.
    MissingString,
}

impl Rhs {
    fn bind(expr: &BoundExpr<'_>, value: &Value) -> Result<Rhs> {
        if expr.is_plain_str() {
            let s = value.as_str().ok_or_else(|| {
                TableError::invalid(format!(
                    "comparison of a string column against non-string literal {value:?}"
                ))
            })?;
            let dict = expr.column().dictionary().expect("plain str column");
            Ok(match dict.code_of(s) {
                Some(code) => Rhs::Code(code),
                None => Rhs::MissingString,
            })
        } else {
            Ok(Rhs::Number(as_f64(value)?))
        }
    }
}

#[derive(Debug, Clone)]
enum Node<'t> {
    True,
    Cmp { expr: BoundExpr<'t>, op: CmpOp, rhs: Rhs },
    Between { expr: BoundExpr<'t>, low: f64, high: f64 },
    InCodes { expr: BoundExpr<'t>, codes: Vec<u32> },
    InNumbers { expr: BoundExpr<'t>, values: Vec<f64> },
    And(Box<Node<'t>>, Box<Node<'t>>),
    Or(Box<Node<'t>>, Box<Node<'t>>),
    Not(Box<Node<'t>>),
}

/// A predicate resolved against a concrete table.
#[derive(Debug, Clone)]
pub struct BoundPredicate<'t> {
    node: Node<'t>,
}

impl BoundPredicate<'_> {
    /// Evaluate at a single row.
    #[inline]
    pub fn matches(&self, row: usize) -> bool {
        Self::eval(&self.node, row)
    }

    /// Evaluate over all `num_rows` rows into a bitmap.
    pub fn eval_bitmap(&self, num_rows: usize) -> Bitmap {
        Bitmap::from_fn(num_rows, |row| self.matches(row))
    }

    /// Evaluate into a bitmap with chunk-parallel execution; identical
    /// output to [`BoundPredicate::eval_bitmap`] for any thread count.
    pub fn eval_bitmap_with(&self, num_rows: usize, options: &crate::exec::ExecOptions) -> Bitmap {
        Bitmap::from_fn_with(num_rows, options, |row| self.matches(row))
    }

    fn eval(node: &Node<'_>, row: usize) -> bool {
        match node {
            Node::True => true,
            Node::Cmp { expr, op, rhs } => match rhs {
                Rhs::Number(n) => match expr.f64_at(row) {
                    Some(v) => op.evaluate_f64(v, *n),
                    None => false,
                },
                Rhs::Code(code) => {
                    let actual = expr.str_code_at(row).expect("bound to str column");
                    match op {
                        CmpOp::Eq => actual == *code,
                        CmpOp::Ne => actual != *code,
                        // Ordered comparison on strings compares the text.
                        _ => {
                            let dict = expr.column().dictionary().expect("str column");
                            op.evaluate(dict.get(actual).cmp(dict.get(*code)))
                        }
                    }
                }
                Rhs::MissingString => matches!(op, CmpOp::Ne),
            },
            Node::Between { expr, low, high } => match expr.f64_at(row) {
                Some(v) => v >= *low && v <= *high,
                None => false,
            },
            Node::InCodes { expr, codes } => {
                let actual = expr.str_code_at(row).expect("bound to str column");
                codes.binary_search(&actual).is_ok()
            }
            Node::InNumbers { expr, values } => match expr.f64_at(row) {
                Some(v) => values.contains(&v),
                None => false,
            },
            Node::And(a, b) => Self::eval(a, row) && Self::eval(b, row),
            Node::Or(a, b) => Self::eval(a, row) || Self::eval(b, row),
            Node::Not(a) => !Self::eval(a, row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::time::epoch_seconds;
    use crate::types::DataType;

    fn table() -> Table {
        let mut b = TableBuilder::new(&[
            ("country", DataType::Str),
            ("value", DataType::Float64),
            ("t", DataType::Timestamp),
        ]);
        let rows = [
            ("US", 0.5, epoch_seconds(2017, 1, 1, 8, 0, 0)),
            ("VN", 1.5, epoch_seconds(2018, 6, 1, 14, 0, 0)),
            ("VN", 0.1, epoch_seconds(2018, 7, 1, 22, 0, 0)),
            ("IN", 2.5, epoch_seconds(2017, 2, 1, 2, 0, 0)),
        ];
        for (c, v, t) in rows {
            b.push_row(&[Value::str(c), Value::Float64(v), Value::Timestamp(t)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn numeric_cmp() {
        let t = table();
        let p = Predicate::cmp("value", CmpOp::Gt, 0.5).bind(&t).unwrap();
        let bm = p.eval_bitmap(t.num_rows());
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn sharded_bitmaps_match_concatenated() {
        let t = table();
        // A split whose second shard's dictionary lacks "US": per-shard
        // binding must still evaluate string predicates correctly.
        let st = crate::shard::ShardedTable::from_tables(vec![t.take(&[0, 1]), t.take(&[2, 3])])
            .unwrap();
        let st = crate::reader::ShardSet::from(st);
        for pred in [
            Predicate::cmp("country", CmpOp::Eq, "US"),
            Predicate::cmp("value", CmpOp::Gt, 0.5),
            Predicate::cmp("country", CmpOp::Ne, "ZZ"),
        ] {
            let global = pred.bind(&t).unwrap().eval_bitmap(t.num_rows());
            let per_shard = st
                .rows()
                .predicate_bitmaps(&pred, &crate::exec::ExecOptions::sequential())
                .unwrap();
            assert_eq!(per_shard.len(), 2);
            let mut ones = Vec::new();
            for (s, bm) in per_shard.iter().enumerate() {
                ones.extend(bm.iter_ones().map(|r| st.offsets()[s] + r));
            }
            assert_eq!(ones, global.iter_ones().collect::<Vec<_>>(), "{pred:?}");
        }
    }

    #[test]
    fn string_eq_and_ne() {
        let t = table();
        let eq = Predicate::cmp("country", CmpOp::Eq, "VN").bind(&t).unwrap();
        assert_eq!(eq.eval_bitmap(4).iter_ones().collect::<Vec<_>>(), vec![1, 2]);
        let ne = Predicate::cmp("country", CmpOp::Ne, "VN").bind(&t).unwrap();
        assert_eq!(ne.eval_bitmap(4).iter_ones().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn string_missing_literal() {
        let t = table();
        let eq = Predicate::cmp("country", CmpOp::Eq, "ZZ").bind(&t).unwrap();
        assert_eq!(eq.eval_bitmap(4).count_ones(), 0);
        let ne = Predicate::cmp("country", CmpOp::Ne, "ZZ").bind(&t).unwrap();
        assert_eq!(ne.eval_bitmap(4).count_ones(), 4);
    }

    #[test]
    fn string_ordered_cmp() {
        let t = table();
        // "IN" < "US" < "VN" lexicographically.
        let p = Predicate::cmp("country", CmpOp::Lt, "US").bind(&t).unwrap();
        assert_eq!(p.eval_bitmap(4).iter_ones().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn between_on_hour() {
        let t = table();
        let p = Predicate::between(ScalarExpr::hour("t"), 0i64, 12i64).bind(&t).unwrap();
        // hours: 8, 14, 22, 2 → rows 0 and 3.
        assert_eq!(p.eval_bitmap(4).iter_ones().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn year_filter() {
        let t = table();
        let p = Predicate::cmp_expr(ScalarExpr::year("t"), CmpOp::Eq, 2018i64).bind(&t).unwrap();
        assert_eq!(p.eval_bitmap(4).iter_ones().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn in_list_strings() {
        let t = table();
        let p = Predicate::InList {
            expr: ScalarExpr::col("country"),
            values: vec![Value::str("US"), Value::str("IN"), Value::str("ZZ")],
        }
        .bind(&t)
        .unwrap();
        assert_eq!(p.eval_bitmap(4).iter_ones().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn in_list_numbers() {
        let t = table();
        let p = Predicate::InList {
            expr: ScalarExpr::col("value"),
            values: vec![Value::Float64(0.5), Value::Float64(2.5)],
        }
        .bind(&t)
        .unwrap();
        assert_eq!(p.eval_bitmap(4).iter_ones().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn and_or_not() {
        let t = table();
        let vn = Predicate::cmp("country", CmpOp::Eq, "VN");
        let big = Predicate::cmp("value", CmpOp::Gt, 1.0);
        let p = vn.clone().and(big.clone()).bind(&t).unwrap();
        assert_eq!(p.eval_bitmap(4).iter_ones().collect::<Vec<_>>(), vec![1]);
        let p = vn.clone().or(big).bind(&t).unwrap();
        assert_eq!(p.eval_bitmap(4).iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);
        let p = vn.not().bind(&t).unwrap();
        assert_eq!(p.eval_bitmap(4).iter_ones().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn display_renders_sql_shape() {
        let vn = Predicate::cmp("country", CmpOp::Eq, "VN");
        let big = Predicate::cmp("value", CmpOp::Gt, 1.0);
        assert_eq!(vn.to_string(), "country = 'VN'");
        assert_eq!(vn.clone().and(big.clone()).to_string(), "country = 'VN' AND value > 1");
        assert_eq!(
            vn.clone().and(big.clone().or(vn.clone())).to_string(),
            "country = 'VN' AND (value > 1 OR country = 'VN')"
        );
        assert_eq!(
            Predicate::between(ScalarExpr::hour("t"), 0i64, 12i64).to_string(),
            "HOUR(t) BETWEEN 0 AND 12"
        );
        assert_eq!(
            Predicate::InList {
                expr: ScalarExpr::col("country"),
                values: vec![Value::str("US"), Value::str("IN")],
            }
            .to_string(),
            "country IN ('US', 'IN')"
        );
        assert_eq!(Predicate::True.to_string(), "TRUE");
        assert_eq!(vn.not().to_string(), "NOT country = 'VN'");
    }

    #[test]
    fn true_matches_all() {
        let t = table();
        let p = Predicate::True.bind(&t).unwrap();
        assert_eq!(p.eval_bitmap(4).count_ones(), 4);
    }

    #[test]
    fn string_vs_number_literal_rejected() {
        let t = table();
        assert!(Predicate::cmp("country", CmpOp::Eq, 5i64).bind(&t).is_err());
        assert!(Predicate::cmp("value", CmpOp::Eq, "x").bind(&t).is_err());
    }
}
