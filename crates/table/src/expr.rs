//! Scalar expressions: column references, calendar functions, arithmetic,
//! and `CASE`.

use std::fmt;

use crate::column::Column;
use crate::error::TableError;
use crate::predicate::CmpOp;
use crate::table::Table;
use crate::time;
use crate::types::{DataType, Value};
use crate::Result;

/// Arithmetic operators for [`ScalarExpr::Binary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

/// One `WHEN lhs OP rhs THEN then` arm of a [`ScalarExpr::Case`].
/// Conditions are numeric comparisons; an arm whose condition can't be
/// evaluated at a row (missing value) simply doesn't match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseWhen {
    /// Left side of the arm's comparison.
    pub lhs: ScalarExpr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right side of the arm's comparison.
    pub rhs: ScalarExpr,
    /// Value of the expression when this arm matches first.
    pub then: ScalarExpr,
}

/// A scalar expression evaluated per row.
///
/// Expressions cover column references, the calendar extractors the
/// paper's queries need (`YEAR`, `MONTH`, `HOUR` over epoch-second
/// timestamps), 0/1 indicator expressions (`IND(col > t)`, which let the
/// sampling framework treat `COUNT_IF` aggregates as ordinary value
/// columns), numeric literals, the four arithmetic operators, and
/// `CASE WHEN` over numeric comparisons. Literal and threshold floats are
/// stored as IEEE-754 bits so the type stays `Eq`/hashable (expression
/// display names feed sample fingerprints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScalarExpr {
    /// A column referenced by name.
    Column(String),
    /// A numeric literal (`f64::to_bits` of the value).
    Literal(u64),
    /// `YEAR(expr)` — calendar year of a timestamp expression.
    Year(Box<ScalarExpr>),
    /// `MONTH(expr)` — month (1–12) of a timestamp expression.
    Month(Box<ScalarExpr>),
    /// `DAY(expr)` — day of month (1–31) of a timestamp expression.
    Day(Box<ScalarExpr>),
    /// `HOUR(expr)` — hour of day (0–23) of a timestamp expression.
    Hour(Box<ScalarExpr>),
    /// `IND(col OP t)` — 1 if the comparison holds, else 0. The threshold is
    /// stored as IEEE-754 bits so the type stays `Eq`/hashable.
    Indicator {
        /// Compared column (a plain column reference).
        input: Box<ScalarExpr>,
        /// Comparison operator.
        op: CmpOp,
        /// `f64::to_bits` of the threshold.
        threshold_bits: u64,
    },
    /// `left OP right` arithmetic over numeric expressions.
    Binary {
        /// Arithmetic operator.
        op: ArithOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// `CASE WHEN … THEN … [ELSE …] END`. Arms match in order; with no
    /// matching arm and no `ELSE`, the expression has no value at the row
    /// (the row is skipped by aggregates and fails predicates, like SQL
    /// `NULL`).
    Case {
        /// `WHEN` arms, tried in order.
        whens: Vec<CaseWhen>,
        /// `ELSE` value, if present.
        otherwise: Option<Box<ScalarExpr>>,
    },
}

impl ScalarExpr {
    /// Shorthand for a column reference.
    pub fn col(name: impl Into<String>) -> Self {
        ScalarExpr::Column(name.into())
    }

    /// Shorthand for a numeric literal.
    pub fn lit(value: f64) -> Self {
        ScalarExpr::Literal(value.to_bits())
    }

    /// `left OP right` shorthand.
    pub fn binary(op: ArithOp, left: ScalarExpr, right: ScalarExpr) -> Self {
        ScalarExpr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    /// `YEAR(col)` shorthand.
    pub fn year(name: impl Into<String>) -> Self {
        ScalarExpr::Year(Box::new(ScalarExpr::col(name)))
    }

    /// `MONTH(col)` shorthand.
    pub fn month(name: impl Into<String>) -> Self {
        ScalarExpr::Month(Box::new(ScalarExpr::col(name)))
    }

    /// `HOUR(col)` shorthand.
    pub fn hour(name: impl Into<String>) -> Self {
        ScalarExpr::Hour(Box::new(ScalarExpr::col(name)))
    }

    /// `IND(col OP threshold)` shorthand: a 0/1 indicator column.
    pub fn indicator(name: impl Into<String>, op: CmpOp, threshold: f64) -> Self {
        ScalarExpr::Indicator {
            input: Box::new(ScalarExpr::col(name)),
            op,
            threshold_bits: threshold.to_bits(),
        }
    }

    /// A short display name, used for result column labels (and, through
    /// them, sample fingerprints — two expressions with equal display
    /// names are treated as the same).
    pub fn display_name(&self) -> String {
        match self {
            ScalarExpr::Column(name) => name.clone(),
            ScalarExpr::Literal(bits) => format!("{}", f64::from_bits(*bits)),
            ScalarExpr::Year(inner) => format!("YEAR({})", inner.display_name()),
            ScalarExpr::Month(inner) => format!("MONTH({})", inner.display_name()),
            ScalarExpr::Day(inner) => format!("DAY({})", inner.display_name()),
            ScalarExpr::Hour(inner) => format!("HOUR({})", inner.display_name()),
            ScalarExpr::Indicator { input, op, threshold_bits } => {
                format!("IND({} {} {})", input.display_name(), op, f64::from_bits(*threshold_bits))
            }
            ScalarExpr::Binary { op, left, right } => {
                format!("({} {} {})", left.display_name(), op, right.display_name())
            }
            ScalarExpr::Case { whens, otherwise } => {
                let mut s = String::from("CASE");
                for w in whens {
                    s.push_str(&format!(
                        " WHEN {} {} {} THEN {}",
                        w.lhs.display_name(),
                        w.op,
                        w.rhs.display_name(),
                        w.then.display_name()
                    ));
                }
                if let Some(e) = otherwise {
                    s.push_str(&format!(" ELSE {}", e.display_name()));
                }
                s.push_str(" END");
                s
            }
        }
    }

    /// Append the name of every column this expression reads to `names`,
    /// each once, in the order [`ScalarExpr::bind`] resolves them. The
    /// matches name every variant and every field, so an expression form
    /// added later cannot compile without saying which columns it reads.
    pub(crate) fn collect_columns<'e>(&'e self, names: &mut Vec<&'e str>) {
        match self {
            ScalarExpr::Column(name) => {
                if !names.contains(&name.as_str()) {
                    names.push(name);
                }
            }
            ScalarExpr::Literal(_) => {}
            ScalarExpr::Year(inner)
            | ScalarExpr::Month(inner)
            | ScalarExpr::Day(inner)
            | ScalarExpr::Hour(inner) => inner.collect_columns(names),
            ScalarExpr::Indicator { input, op: _, threshold_bits: _ } => {
                input.collect_columns(names)
            }
            ScalarExpr::Binary { op: _, left, right } => {
                left.collect_columns(names);
                right.collect_columns(names);
            }
            ScalarExpr::Case { whens, otherwise } => {
                for CaseWhen { lhs, op: _, rhs, then } in whens {
                    lhs.collect_columns(names);
                    rhs.collect_columns(names);
                    then.collect_columns(names);
                }
                if let Some(otherwise) = otherwise {
                    otherwise.collect_columns(names);
                }
            }
        }
    }

    /// Bind this expression against a table, producing an evaluator that can
    /// be applied per row without further name resolution.
    pub fn bind<'t>(&self, table: &'t Table) -> Result<BoundExpr<'t>> {
        match self {
            ScalarExpr::Column(name) => {
                let column = table.column_by_name(name)?;
                Ok(BoundExpr { kind: BoundKind::Leaf { column, func: TimeFunc::Identity } })
            }
            ScalarExpr::Literal(bits) => {
                Ok(BoundExpr { kind: BoundKind::Literal(f64::from_bits(*bits)) })
            }
            ScalarExpr::Year(inner) => Self::bind_time(inner, table, TimeFunc::Year, "YEAR"),
            ScalarExpr::Month(inner) => Self::bind_time(inner, table, TimeFunc::Month, "MONTH"),
            ScalarExpr::Day(inner) => Self::bind_time(inner, table, TimeFunc::Day, "DAY"),
            ScalarExpr::Hour(inner) => Self::bind_time(inner, table, TimeFunc::Hour, "HOUR"),
            ScalarExpr::Indicator { input, op, threshold_bits } => {
                let ScalarExpr::Column(col_name) = input.as_ref() else {
                    return Err(TableError::InvalidFunctionInput {
                        function: "IND",
                        input: "nested expressions are not supported".into(),
                    });
                };
                let column = table.column_by_name(col_name)?;
                if !column.data_type().is_numeric() {
                    return Err(TableError::InvalidFunctionInput {
                        function: "IND",
                        input: format!("column {col_name} has type {}", column.data_type()),
                    });
                }
                Ok(BoundExpr {
                    kind: BoundKind::Leaf {
                        column,
                        func: TimeFunc::Indicator {
                            op: *op,
                            threshold: f64::from_bits(*threshold_bits),
                        },
                    },
                })
            }
            ScalarExpr::Binary { op, left, right } => {
                let left = Self::bind_numeric(left, table, "arithmetic")?;
                let right = Self::bind_numeric(right, table, "arithmetic")?;
                Ok(BoundExpr {
                    kind: BoundKind::Binary {
                        op: *op,
                        left: Box::new(left),
                        right: Box::new(right),
                    },
                })
            }
            ScalarExpr::Case { whens, otherwise } => {
                let whens = whens
                    .iter()
                    .map(|w| {
                        Ok(BoundWhen {
                            lhs: Self::bind_numeric(&w.lhs, table, "CASE")?,
                            op: w.op,
                            rhs: Self::bind_numeric(&w.rhs, table, "CASE")?,
                            then: Self::bind_numeric(&w.then, table, "CASE")?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                let otherwise = otherwise
                    .as_ref()
                    .map(|e| Self::bind_numeric(e, table, "CASE").map(Box::new))
                    .transpose()?;
                Ok(BoundExpr { kind: BoundKind::Case { whens, otherwise } })
            }
        }
    }

    /// Bind a sub-expression that must be numeric (arithmetic operands,
    /// `CASE` conditions and branches): a string column here is a type
    /// error at bind time, not a silent `NULL` at evaluation time.
    fn bind_numeric<'t>(
        expr: &ScalarExpr,
        table: &'t Table,
        function: &'static str,
    ) -> Result<BoundExpr<'t>> {
        let bound = expr.bind(table)?;
        if bound.is_plain_str() {
            return Err(TableError::InvalidFunctionInput {
                function,
                input: format!("{} is a string column", expr.display_name()),
            });
        }
        Ok(bound)
    }

    fn bind_time<'t>(
        inner: &ScalarExpr,
        table: &'t Table,
        func: TimeFunc,
        name: &'static str,
    ) -> Result<BoundExpr<'t>> {
        let ScalarExpr::Column(col_name) = inner else {
            return Err(TableError::InvalidFunctionInput {
                function: name,
                input: "nested expressions are not supported".into(),
            });
        };
        let column = table.column_by_name(col_name)?;
        if !matches!(column.data_type(), DataType::Timestamp | DataType::Int64) {
            return Err(TableError::InvalidFunctionInput {
                function: name,
                input: format!("column {col_name} has type {}", column.data_type()),
            });
        }
        Ok(BoundExpr { kind: BoundKind::Leaf { column, func } })
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_name())
    }
}

#[derive(Debug, Clone, Copy)]
enum TimeFunc {
    Identity,
    Year,
    Month,
    Day,
    Hour,
    Indicator { op: CmpOp, threshold: f64 },
}

#[derive(Debug, Clone)]
struct BoundWhen<'t> {
    lhs: BoundExpr<'t>,
    op: CmpOp,
    rhs: BoundExpr<'t>,
    then: BoundExpr<'t>,
}

#[derive(Debug, Clone)]
enum BoundKind<'t> {
    Leaf { column: &'t Column, func: TimeFunc },
    Literal(f64),
    Binary { op: ArithOp, left: Box<BoundExpr<'t>>, right: Box<BoundExpr<'t>> },
    Case { whens: Vec<BoundWhen<'t>>, otherwise: Option<Box<BoundExpr<'t>>> },
}

/// A [`ScalarExpr`] bound to a concrete table (see
/// [`RowSpace::bind`](crate::reader::RowSpace::bind) for a row space of
/// several).
///
/// Evaluation is total and never panics: division by zero, integer
/// overflow, and a `CASE` with no matching arm all evaluate to "no value"
/// (`None`), which predicates treat as false and aggregates skip.
#[derive(Debug, Clone)]
pub struct BoundExpr<'t> {
    kind: BoundKind<'t>,
}

impl<'t> BoundExpr<'t> {
    /// Evaluate at `row` as a dynamic [`Value`]. Computed expressions
    /// (arithmetic, `CASE`) evaluate as floats; a row where they have no
    /// value yields `Float64(NaN)`.
    pub fn value_at(&self, row: usize) -> Value {
        match &self.kind {
            BoundKind::Leaf { column, func } => match func {
                TimeFunc::Identity => column.value(row),
                TimeFunc::Year => Value::Int64(time::year_of(self.raw(row))),
                TimeFunc::Month => Value::Int64(time::month_of(self.raw(row))),
                TimeFunc::Day => Value::Int64(time::day_of(self.raw(row))),
                TimeFunc::Hour => Value::Int64(time::hour_of(self.raw(row))),
                TimeFunc::Indicator { .. } => {
                    Value::Int64(self.i64_at(row).expect("indicator over numeric column"))
                }
            },
            _ => Value::Float64(self.f64_at(row).unwrap_or(f64::NAN)),
        }
    }

    /// Evaluate at `row` as a float, if the expression has a numeric value
    /// there.
    #[inline]
    pub fn f64_at(&self, row: usize) -> Option<f64> {
        match &self.kind {
            BoundKind::Leaf { column, func } => match *func {
                TimeFunc::Identity => column.f64_at(row),
                TimeFunc::Year => Some(time::year_of(self.raw(row)) as f64),
                TimeFunc::Month => Some(time::month_of(self.raw(row)) as f64),
                TimeFunc::Day => Some(time::day_of(self.raw(row)) as f64),
                TimeFunc::Hour => Some(time::hour_of(self.raw(row)) as f64),
                TimeFunc::Indicator { op, threshold } => {
                    let v = column.f64_at(row)?;
                    Some(if op.evaluate_f64(v, threshold) { 1.0 } else { 0.0 })
                }
            },
            BoundKind::Literal(v) => Some(*v),
            BoundKind::Binary { op, left, right } => {
                let l = left.f64_at(row)?;
                let r = right.f64_at(row)?;
                match op {
                    ArithOp::Add => Some(l + r),
                    ArithOp::Sub => Some(l - r),
                    ArithOp::Mul => Some(l * r),
                    // Division by zero has no value, rather than ±inf/NaN
                    // leaking into group keys and accumulators.
                    ArithOp::Div => (r != 0.0).then(|| l / r),
                }
            }
            BoundKind::Case { whens, otherwise } => {
                for w in whens {
                    if let (Some(l), Some(r)) = (w.lhs.f64_at(row), w.rhs.f64_at(row)) {
                        if w.op.evaluate_f64(l, r) {
                            return w.then.f64_at(row);
                        }
                    }
                }
                otherwise.as_ref().and_then(|e| e.f64_at(row))
            }
        }
    }

    /// Evaluate at `row` as an integer, if the expression is integer-like
    /// there. Arithmetic is checked (`+ - *` over integer operands;
    /// overflow and `/` have no integer value), so grouping by a computed
    /// key never silently wraps.
    #[inline]
    pub fn i64_at(&self, row: usize) -> Option<i64> {
        match &self.kind {
            BoundKind::Leaf { column, func } => match *func {
                TimeFunc::Identity => column.i64_at(row),
                TimeFunc::Year => Some(time::year_of(self.raw(row))),
                TimeFunc::Month => Some(time::month_of(self.raw(row))),
                TimeFunc::Day => Some(time::day_of(self.raw(row))),
                TimeFunc::Hour => Some(time::hour_of(self.raw(row))),
                TimeFunc::Indicator { op, threshold } => {
                    let v = column.f64_at(row)?;
                    Some(i64::from(op.evaluate_f64(v, threshold)))
                }
            },
            BoundKind::Literal(v) => {
                (v.fract() == 0.0 && *v >= i64::MIN as f64 && *v <= i64::MAX as f64)
                    .then_some(*v as i64)
            }
            BoundKind::Binary { op, left, right } => {
                let l = left.i64_at(row)?;
                let r = right.i64_at(row)?;
                match op {
                    ArithOp::Add => l.checked_add(r),
                    ArithOp::Sub => l.checked_sub(r),
                    ArithOp::Mul => l.checked_mul(r),
                    ArithOp::Div => None,
                }
            }
            BoundKind::Case { whens, otherwise } => {
                for w in whens {
                    if let (Some(l), Some(r)) = (w.lhs.f64_at(row), w.rhs.f64_at(row)) {
                        if w.op.evaluate_f64(l, r) {
                            return w.then.i64_at(row);
                        }
                    }
                }
                otherwise.as_ref().and_then(|e| e.i64_at(row))
            }
        }
    }

    /// Dictionary code at `row`, if this is a plain string column reference.
    #[inline]
    pub fn str_code_at(&self, row: usize) -> Option<u32> {
        match &self.kind {
            BoundKind::Leaf { column, func: TimeFunc::Identity } => column.str_code_at(row),
            _ => None,
        }
    }

    /// The whole column as a dense `f64` slice, when this expression is
    /// the identity over a `Float64` column — the gather fast path of the
    /// vectorized statistics kernels (no per-row dispatch, no `Option`).
    #[inline]
    pub fn f64_slice(&self) -> Option<&[f64]> {
        match &self.kind {
            BoundKind::Leaf { column, func: TimeFunc::Identity } => column.f64_slice(),
            _ => None,
        }
    }

    /// The underlying column. Only meaningful for plain column references
    /// (check [`BoundExpr::is_plain_str`] first); panics on computed
    /// expressions, which have no single underlying column.
    pub fn column(&self) -> &'t Column {
        match &self.kind {
            BoundKind::Leaf { column, .. } => column,
            _ => panic!("column() on a computed expression"),
        }
    }

    /// Whether this bound expression is a bare string column (usable as
    /// pre-encoded group codes).
    pub fn is_plain_str(&self) -> bool {
        matches!(
            &self.kind,
            BoundKind::Leaf { column: Column::Str { .. }, func: TimeFunc::Identity }
        )
    }

    #[inline]
    fn raw(&self, row: usize) -> i64 {
        match &self.kind {
            BoundKind::Leaf { column, .. } => {
                column.i64_at(row).expect("bind() verified integer-like input")
            }
            _ => unreachable!("raw() is a leaf helper"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::time::epoch_seconds;

    fn table() -> Table {
        let mut b = TableBuilder::new(&[
            ("country", DataType::Str),
            ("value", DataType::Float64),
            ("local_time", DataType::Timestamp),
        ]);
        b.push_row(&[
            Value::str("US"),
            Value::Float64(0.5),
            Value::Timestamp(epoch_seconds(2017, 3, 9, 13, 0, 0)),
        ])
        .unwrap();
        b.push_row(&[
            Value::str("VN"),
            Value::Float64(1.5),
            Value::Timestamp(epoch_seconds(2018, 11, 2, 4, 30, 0)),
        ])
        .unwrap();
        b.finish()
    }

    #[test]
    fn column_ref() {
        let t = table();
        let e = ScalarExpr::col("value").bind(&t).unwrap();
        assert_eq!(e.f64_at(1), Some(1.5));
        assert_eq!(e.value_at(0), Value::Float64(0.5));
    }

    #[test]
    fn year_month_hour() {
        let t = table();
        let y = ScalarExpr::year("local_time").bind(&t).unwrap();
        let m = ScalarExpr::month("local_time").bind(&t).unwrap();
        let h = ScalarExpr::hour("local_time").bind(&t).unwrap();
        assert_eq!(y.i64_at(0), Some(2017));
        assert_eq!(y.i64_at(1), Some(2018));
        assert_eq!(m.i64_at(1), Some(11));
        assert_eq!(h.i64_at(0), Some(13));
        assert_eq!(y.value_at(0), Value::Int64(2017));
    }

    #[test]
    fn year_over_string_rejected() {
        let t = table();
        let err = ScalarExpr::year("country").bind(&t).unwrap_err();
        assert!(matches!(err, TableError::InvalidFunctionInput { function: "YEAR", .. }));
    }

    #[test]
    fn str_code_passthrough() {
        let t = table();
        let e = ScalarExpr::col("country").bind(&t).unwrap();
        assert!(e.is_plain_str());
        assert_eq!(e.str_code_at(0), Some(0));
        assert_eq!(e.str_code_at(1), Some(1));
        let y = ScalarExpr::year("local_time").bind(&t).unwrap();
        assert!(!y.is_plain_str());
        assert_eq!(y.str_code_at(0), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(ScalarExpr::col("x").display_name(), "x");
        assert_eq!(ScalarExpr::year("t").display_name(), "YEAR(t)");
        assert_eq!(ScalarExpr::hour("t").to_string(), "HOUR(t)");
        assert_eq!(ScalarExpr::lit(2.5).display_name(), "2.5");
        assert_eq!(
            ScalarExpr::binary(ArithOp::Mul, ScalarExpr::col("x"), ScalarExpr::lit(2.0))
                .display_name(),
            "(x * 2)"
        );
        assert_eq!(
            ScalarExpr::Case {
                whens: vec![CaseWhen {
                    lhs: ScalarExpr::col("x"),
                    op: CmpOp::Gt,
                    rhs: ScalarExpr::lit(1.0),
                    then: ScalarExpr::lit(10.0),
                }],
                otherwise: Some(Box::new(ScalarExpr::lit(0.0))),
            }
            .display_name(),
            "CASE WHEN x > 1 THEN 10 ELSE 0 END"
        );
    }

    #[test]
    fn missing_column() {
        let t = table();
        assert!(ScalarExpr::col("nope").bind(&t).is_err());
    }

    #[test]
    fn indicator_evaluates() {
        let t = table();
        let e = ScalarExpr::indicator("value", CmpOp::Gt, 1.0).bind(&t).unwrap();
        assert_eq!(e.f64_at(0), Some(0.0)); // value 0.5
        assert_eq!(e.f64_at(1), Some(1.0)); // value 1.5
        assert_eq!(e.i64_at(1), Some(1));
        assert_eq!(e.value_at(0), Value::Int64(0));
    }

    #[test]
    fn indicator_display_and_eq() {
        let a = ScalarExpr::indicator("value", CmpOp::Gt, 0.04);
        assert_eq!(a.display_name(), "IND(value > 0.04)");
        let b = ScalarExpr::indicator("value", CmpOp::Gt, 0.04);
        assert_eq!(a, b);
        assert_ne!(a, ScalarExpr::indicator("value", CmpOp::Gt, 0.05));
    }

    #[test]
    fn indicator_over_string_rejected() {
        let t = table();
        assert!(ScalarExpr::indicator("country", CmpOp::Gt, 1.0).bind(&t).is_err());
    }

    #[test]
    fn arithmetic_evaluates() {
        let t = table();
        let e = ScalarExpr::binary(
            ArithOp::Add,
            ScalarExpr::binary(ArithOp::Mul, ScalarExpr::col("value"), ScalarExpr::lit(2.0)),
            ScalarExpr::lit(1.0),
        )
        .bind(&t)
        .unwrap();
        assert_eq!(e.f64_at(0), Some(2.0)); // 0.5 * 2 + 1
        assert_eq!(e.f64_at(1), Some(4.0)); // 1.5 * 2 + 1
    }

    #[test]
    fn division_by_zero_has_no_value() {
        let t = table();
        let e = ScalarExpr::binary(ArithOp::Div, ScalarExpr::col("value"), ScalarExpr::lit(0.0))
            .bind(&t)
            .unwrap();
        assert_eq!(e.f64_at(0), None);
        assert!(matches!(e.value_at(0), Value::Float64(v) if v.is_nan()));
    }

    #[test]
    fn integer_arithmetic_is_checked() {
        let mut b = TableBuilder::new(&[("n", DataType::Int64)]);
        b.push_row(&[Value::Int64(i64::MAX)]).unwrap();
        b.push_row(&[Value::Int64(3)]).unwrap();
        let t = b.finish();
        let e = ScalarExpr::binary(ArithOp::Add, ScalarExpr::col("n"), ScalarExpr::lit(1.0))
            .bind(&t)
            .unwrap();
        assert_eq!(e.i64_at(0), None, "overflow has no integer value");
        assert_eq!(e.i64_at(1), Some(4));
    }

    #[test]
    fn case_evaluates_arms_in_order() {
        let t = table();
        let e = ScalarExpr::Case {
            whens: vec![
                CaseWhen {
                    lhs: ScalarExpr::col("value"),
                    op: CmpOp::Gt,
                    rhs: ScalarExpr::lit(1.0),
                    then: ScalarExpr::lit(100.0),
                },
                CaseWhen {
                    lhs: ScalarExpr::col("value"),
                    op: CmpOp::Gt,
                    rhs: ScalarExpr::lit(0.0),
                    then: ScalarExpr::col("value"),
                },
            ],
            otherwise: None,
        }
        .bind(&t)
        .unwrap();
        assert_eq!(e.f64_at(0), Some(0.5)); // second arm
        assert_eq!(e.f64_at(1), Some(100.0)); // first arm wins
    }

    #[test]
    fn case_without_else_has_no_value() {
        let t = table();
        let e = ScalarExpr::Case {
            whens: vec![CaseWhen {
                lhs: ScalarExpr::col("value"),
                op: CmpOp::Gt,
                rhs: ScalarExpr::lit(100.0),
                then: ScalarExpr::lit(1.0),
            }],
            otherwise: None,
        }
        .bind(&t)
        .unwrap();
        assert_eq!(e.f64_at(0), None);
    }

    #[test]
    fn arithmetic_over_string_rejected() {
        let t = table();
        let e = ScalarExpr::binary(ArithOp::Add, ScalarExpr::col("country"), ScalarExpr::lit(1.0));
        assert!(e.bind(&t).is_err());
        let c = ScalarExpr::Case {
            whens: vec![CaseWhen {
                lhs: ScalarExpr::col("country"),
                op: CmpOp::Eq,
                rhs: ScalarExpr::lit(1.0),
                then: ScalarExpr::lit(1.0),
            }],
            otherwise: None,
        };
        assert!(c.bind(&t).is_err());
    }
}
