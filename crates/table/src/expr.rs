//! Scalar expressions: column references, calendar functions, arithmetic,
//! and `CASE`.
//!
//! A [`ScalarExpr`] binds against a table into a [`BoundExpr`], which
//! evaluates two ways with the same result, bit for bit. One row at a time,
//! [`BoundExpr::f64_at`] walks the tree: it is the single-row API, and the
//! oracle the tests hold the other way to. A block at a time,
//! [`BoundExpr::block`] evaluates a run of at most [`RUN_ROWS`] rows node by
//! node over whole slices, into per-node buffers ([`BlockScratch`])
//! allocated once per fold: the tree is walked once per run, not once per
//! row, and a plain `Float64` column is lent in place. Every bulk path —
//! exact and sampled aggregation, the statistics fold, predicate bitmaps,
//! the confidence pass — reads blocks.
//!
//! Comparisons (`CASE` arms, `IND`) use [`CmpOp::evaluate_f64`]'s total
//! order, and a row where either side has no value fails them. No
//! arithmetic is fused: `a * b + c` rounds twice, both ways.

use std::fmt;

use crate::bitmap::{fill_ones, pack_words};
use crate::column::Column;
use crate::error::TableError;
use crate::exec::{RowRange, RUN_ROWS};
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
                Ok(BoundExpr::new(BoundKind::Leaf { column, func: TimeFunc::Identity }))
            }
            ScalarExpr::Literal(bits) => {
                Ok(BoundExpr::new(BoundKind::Literal(f64::from_bits(*bits))))
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
                Ok(BoundExpr::new(BoundKind::Leaf {
                    column,
                    func: TimeFunc::Indicator {
                        op: *op,
                        threshold: f64::from_bits(*threshold_bits),
                    },
                }))
            }
            ScalarExpr::Binary { op, left, right } => {
                let left = Self::bind_numeric(left, table, "arithmetic")?;
                let right = Self::bind_numeric(right, table, "arithmetic")?;
                Ok(BoundExpr::new(BoundKind::Binary {
                    op: *op,
                    left: Box::new(left),
                    right: Box::new(right),
                }))
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
                Ok(BoundExpr::new(BoundKind::Case { whens, otherwise }))
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
        Ok(BoundExpr::new(BoundKind::Leaf { column, func }))
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
    /// Nodes in the tree rooted here: the scratch a block of it takes.
    nodes: usize,
}

impl<'t> BoundExpr<'t> {
    fn new(kind: BoundKind<'t>) -> Self {
        let children = match &kind {
            BoundKind::Leaf { .. } | BoundKind::Literal(_) => 0,
            BoundKind::Binary { left, right, .. } => left.nodes + right.nodes,
            BoundKind::Case { whens, otherwise } => {
                let arms: usize =
                    whens.iter().map(|w| w.lhs.nodes + w.rhs.nodes + w.then.nodes).sum();
                arms + otherwise.as_ref().map_or(0, |e| e.nodes)
            }
        };
        BoundExpr { kind, nodes: 1 + children }
    }

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
            // `i64::MAX as f64` rounds up to 2^63, which no `i64` holds.
            BoundKind::Literal(v) => {
                (v.fract() == 0.0 && *v >= i64::MIN as f64 && *v < i64::MAX as f64)
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

    /// Buffers for [`BoundExpr::block`] over this expression, or over any
    /// binding of the same [`ScalarExpr`]: one run per node of the tree.
    pub fn scratch(&self) -> BlockScratch {
        let node = || NodeScratch { values: vec![0.0; RUN_ROWS], valid: [0; RUN_WORDS] };
        BlockScratch { nodes: (0..self.nodes).map(|_| node()).collect() }
    }

    /// Evaluate the rows of `run` — at most [`RUN_ROWS`] — as one block,
    /// into `scratch` (from [`BoundExpr::scratch`]): the block's row `i` is
    /// [`BoundExpr::f64_at`]`(run.start + i)`, bit for bit. A plain
    /// `Float64` column is its own slice, every other node is computed over
    /// whole slices into its own buffer.
    pub fn block<'s>(&'s self, run: RowRange, scratch: &'s mut BlockScratch) -> Block<'s> {
        assert!(run.len() <= RUN_ROWS, "a block covers at most one run");
        assert!(scratch.nodes.len() >= self.nodes, "scratch from a smaller expression");
        self.eval_block(run.start, run.len(), &mut scratch.nodes)
    }

    /// [`BoundExpr::block`] of rows `start..start + len`: this node's buffer
    /// is `nodes[0]`, and its children's follow in preorder.
    fn eval_block<'s>(
        &'s self,
        start: usize,
        len: usize,
        nodes: &'s mut [NodeScratch],
    ) -> Block<'s> {
        let (node, children) = nodes.split_first_mut().expect("one buffer per node");
        let words = len.div_ceil(64);
        let out = &mut node.values[..len];
        match &self.kind {
            BoundKind::Leaf { column, func } => match *func {
                TimeFunc::Identity => match column {
                    Column::Float64(values) => {
                        return Block { values: &values[start..start + len], valid: None }
                    }
                    // A string has no numeric value.
                    Column::Str { .. } => {
                        node.valid[..words].fill(0);
                        let valid = Some(&node.valid[..words]);
                        return Block { values: &node.values[..len], valid };
                    }
                    _ => column_f64s(column, start, out),
                },
                TimeFunc::Year => calendar(column, start, out, time::year_of),
                TimeFunc::Month => calendar(column, start, out, time::month_of),
                TimeFunc::Day => calendar(column, start, out, time::day_of),
                TimeFunc::Hour => calendar(column, start, out, time::hour_of),
                TimeFunc::Indicator { op, threshold } => {
                    column_f64s(column, start, out);
                    for v in out.iter_mut() {
                        *v = if op.evaluate_f64(*v, threshold) { 1.0 } else { 0.0 };
                    }
                }
            },
            BoundKind::Literal(v) => out.fill(*v),
            BoundKind::Binary { op, left, right } => {
                let (left_nodes, right_nodes) = children.split_at_mut(left.nodes);
                let l = left.eval_block(start, len, left_nodes);
                let r = right.eval_block(start, len, right_nodes);
                let (lv, rv) = (&l.values[..len], &r.values[..len]);
                let rows = out.iter_mut().zip(lv.iter().zip(rv));
                match op {
                    ArithOp::Add => rows.for_each(|(o, (a, b))| *o = a + b),
                    ArithOp::Sub => rows.for_each(|(o, (a, b))| *o = a - b),
                    ArithOp::Mul => rows.for_each(|(o, (a, b))| *o = a * b),
                    ArithOp::Div => rows.for_each(|(o, (a, b))| *o = a / b),
                }
                let divides = *op == ArithOp::Div;
                if !divides && l.valid.is_none() && r.valid.is_none() {
                    return Block { values: &node.values[..len], valid: None };
                }
                let valid = &mut node.valid[..words];
                if divides {
                    // Division by zero has no value, as in `f64_at`.
                    pack_words(valid, len, |i| rv[i] != 0.0);
                } else {
                    fill_ones(valid, len);
                }
                and_valid(valid, l.valid);
                and_valid(valid, r.valid);
                return Block { values: &node.values[..len], valid: Some(&node.valid[..words]) };
            }
            BoundKind::Case { whens, otherwise } => {
                let else_nodes = otherwise.as_ref().map_or(0, |e| e.nodes);
                let (mut arms, else_nodes) = children.split_at_mut(children.len() - else_nodes);
                let valid = &mut node.valid[..words];
                valid.fill(0);
                // The rows no earlier arm's condition held at.
                let mut open = [0u64; RUN_WORDS];
                fill_ones(&mut open, len);
                let open = &mut open[..words];
                let mut taken = [0u64; RUN_WORDS];
                let taken = &mut taken[..words];
                for w in whens {
                    let (lhs, rest) = std::mem::take(&mut arms).split_at_mut(w.lhs.nodes);
                    let (rhs, rest) = rest.split_at_mut(w.rhs.nodes);
                    let (then, rest) = rest.split_at_mut(w.then.nodes);
                    arms = rest;
                    if open.iter().all(|&o| o == 0) {
                        break;
                    }
                    let l = w.lhs.eval_block(start, len, lhs);
                    let r = w.rhs.eval_block(start, len, rhs);
                    w.op.evaluate_words(taken, len, |i| l.values[i], |i| r.values[i]);
                    and_valid(taken, l.valid);
                    and_valid(taken, r.valid);
                    // The arm takes the open rows its condition holds at, and
                    // gives them its `THEN`, value or not.
                    for (t, o) in taken.iter_mut().zip(open.iter_mut()) {
                        (*t, *o) = (*t & *o, *o & !*t);
                    }
                    if taken.iter().any(|&t| t != 0) {
                        select(out, valid, taken, w.then.eval_block(start, len, then));
                    }
                }
                if let Some(otherwise) = otherwise {
                    if open.iter().any(|&o| o != 0) {
                        select(out, valid, open, otherwise.eval_block(start, len, else_nodes));
                    }
                }
                return Block { values: &node.values[..len], valid: Some(&node.valid[..words]) };
            }
        }
        Block { values: &node.values[..len], valid: None }
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

/// Words of a run's validity mask.
pub(crate) const RUN_WORDS: usize = RUN_ROWS / 64;

/// An expression's values over one run of rows, as [`BoundExpr::block`]
/// evaluates them: the run's row `i` has the value `values[i]` when bit
/// `i % 64` of `valid[i / 64]` is set — every row has one when `valid` is
/// `None` — and no value otherwise, whatever `values[i]` holds.
#[derive(Debug, Clone, Copy)]
pub struct Block<'s> {
    /// One value per row of the run.
    pub values: &'s [f64],
    /// Which rows have a value, 64 rows a word, with no bit set past the
    /// run; `None` when every row has one.
    pub valid: Option<&'s [u64]>,
}

impl Block<'_> {
    /// The run's row `i`, as [`BoundExpr::f64_at`] reads it.
    #[inline]
    pub fn get(&self, i: usize) -> Option<f64> {
        match self.valid {
            Some(valid) if (valid[i / 64] >> (i % 64)) & 1 == 0 => None,
            _ => Some(self.values[i]),
        }
    }
}

/// The buffers [`BoundExpr::block`] evaluates into: one run's values and
/// validity per node of the tree, in preorder. Allocated once per fold
/// ([`BoundExpr::scratch`]) and reused by every run it evaluates.
#[derive(Debug)]
pub struct BlockScratch {
    nodes: Vec<NodeScratch>,
}

#[derive(Debug)]
struct NodeScratch {
    values: Vec<f64>,
    valid: [u64; RUN_WORDS],
}

/// Rows `start..start + out.len()` of a column with numeric values, as
/// [`Column::f64_at`] reads them, into `out`.
fn column_f64s(column: &Column, start: usize, out: &mut [f64]) {
    let rows = start..start + out.len();
    match column {
        Column::Int64(v) | Column::Timestamp(v) => {
            out.iter_mut().zip(&v[rows]).for_each(|(o, &x)| *o = x as f64)
        }
        Column::Float64(v) => out.copy_from_slice(&v[rows]),
        Column::Bool(v) => {
            out.iter_mut().zip(&v[rows]).for_each(|(o, &b)| *o = if b { 1.0 } else { 0.0 })
        }
        Column::Str { .. } => unreachable!("a string column has no numeric value"),
    }
}

/// `part` of the timestamps at rows `start..start + out.len()` of an
/// integer-like column, into `out`.
fn calendar(column: &Column, start: usize, out: &mut [f64], part: fn(i64) -> i64) {
    let raw = column.i64_slice().expect("bind() verified integer-like input");
    let raw = &raw[start..start + out.len()];
    for (o, &secs) in out.iter_mut().zip(raw) {
        *o = part(secs) as f64;
    }
}

/// Clear the bits of `words` for rows without a value in `valid`.
pub(crate) fn and_valid(words: &mut [u64], valid: Option<&[u64]>) {
    if let Some(valid) = valid {
        words.iter_mut().zip(valid).for_each(|(w, v)| *w &= v);
    }
}

/// Give the rows `rows` marks the values of `block` and its validity.
fn select(values: &mut [f64], valid: &mut [u64], rows: &[u64], block: Block<'_>) {
    for (w, &mask) in rows.iter().enumerate() {
        valid[w] |= mask & block.valid.map_or(u64::MAX, |v| v[w]);
        let mut bits = mask;
        while bits != 0 {
            let i = w * 64 + bits.trailing_zeros() as usize;
            values[i] = block.values[i];
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::time::epoch_seconds;
    use proptest::prelude::*;

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

    #[test]
    fn literal_integers_stop_below_two_to_the_63() {
        let t = table();
        let at = |v: f64| ScalarExpr::lit(v).bind(&t).unwrap().i64_at(0);
        let two63 = 2f64.powi(63);
        assert_eq!(at(two63), None, "2^63 is past i64::MAX");
        assert_eq!(at(-two63), Some(i64::MIN));
        assert_eq!(at(two63 - 1024.0), Some(i64::MAX - 1023));
        assert_eq!(at(-two63 - 2048.0), None);
        assert_eq!(at(2.5), None);
    }

    /// A value for row `r` of [`edge_table`]: the special floats often, an
    /// ordinary one otherwise.
    fn edge_value(r: usize, salt: usize) -> f64 {
        const SPECIAL: [f64; 6] = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 3.0];
        let h = (r * 2_654_435_761 + salt * 40_503) % 1_000_003;
        match h % 4 {
            0 => SPECIAL[h / 4 % SPECIAL.len()],
            _ => ((h % 2_000) as f64 - 1_000.0) / 8.0,
        }
    }

    /// `n` rows over every column type: floats `f` and `g` holding NaN,
    /// ±0.0 and ±∞ (so `/ g` divides by zero), integers `i`, timestamps `t`,
    /// booleans `b` and strings `s`.
    pub(crate) fn edge_table(n: usize) -> Table {
        let mut b = TableBuilder::new(&[
            ("f", DataType::Float64),
            ("g", DataType::Float64),
            ("i", DataType::Int64),
            ("t", DataType::Timestamp),
            ("b", DataType::Bool),
            ("s", DataType::Str),
        ]);
        for r in 0..n {
            let i = (r as i64 * 7_919) % 2_003 - 1_000;
            b.push_row(&[
                Value::Float64(edge_value(r, 1)),
                Value::Float64(edge_value(r, 2)),
                Value::Int64(i),
                Value::Timestamp(epoch_seconds(1969, 12, 1, 0, 0, 0) + i * 86_399),
                Value::Bool(r % 3 == 0),
                Value::str(["VN", "IN", "US", "BR", "ZA"][r * 7 % 5]),
            ])
            .unwrap();
        }
        b.finish()
    }

    /// The next number of an xorshift stream.
    pub(crate) fn next(state: &mut u64) -> usize {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as usize
    }

    /// A numeric literal of the kind [`edge_table`] holds.
    pub(crate) fn random_literal(state: &mut u64) -> f64 {
        edge_value(next(state) % 997, 3)
    }

    /// A random operator.
    pub(crate) fn random_op(state: &mut u64) -> CmpOp {
        [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][next(state) % 6]
    }

    /// A random numeric expression over [`edge_table`], at most `depth`
    /// levels of arithmetic and `CASE` deep.
    pub(crate) fn random_expr(state: &mut u64, depth: u32) -> ScalarExpr {
        let forms = if depth == 0 { 4 } else { 7 };
        match next(state) % forms {
            0 => ScalarExpr::col(["f", "g", "i", "t", "b"][next(state) % 5]),
            1 => ScalarExpr::lit(random_literal(state)),
            2 => {
                let column = ScalarExpr::col(["t", "i"][next(state) % 2]);
                let inner = Box::new(column);
                match next(state) % 4 {
                    0 => ScalarExpr::Year(inner),
                    1 => ScalarExpr::Month(inner),
                    2 => ScalarExpr::Day(inner),
                    _ => ScalarExpr::Hour(inner),
                }
            }
            3 => {
                let column = ["f", "g", "i", "t"][next(state) % 4];
                ScalarExpr::indicator(column, random_op(state), random_literal(state))
            }
            4 | 5 => {
                let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][next(state) % 4];
                let left = random_expr(state, depth - 1);
                ScalarExpr::binary(op, left, random_expr(state, depth - 1))
            }
            _ => {
                let whens = (0..1 + next(state) % 2)
                    .map(|_| CaseWhen {
                        lhs: random_expr(state, depth - 1),
                        op: random_op(state),
                        rhs: random_expr(state, depth - 1),
                        then: random_expr(state, depth - 1),
                    })
                    .collect();
                let otherwise =
                    next(state).is_multiple_of(2).then(|| Box::new(random_expr(state, depth - 1)));
                ScalarExpr::Case { whens, otherwise }
            }
        }
    }

    /// Bits of a row's value, so NaN compares equal to itself.
    fn bits(v: Option<f64>) -> Option<u64> {
        v.map(f64::to_bits)
    }

    #[test]
    fn blocks_match_rows_on_fixed_shapes() {
        let t = edge_table(3 * RUN_ROWS + 77);
        let product_plus_one = ScalarExpr::binary(
            ArithOp::Add,
            ScalarExpr::binary(ArithOp::Mul, ScalarExpr::col("f"), ScalarExpr::col("g")),
            ScalarExpr::lit(1.0),
        );
        let nested_case_without_else = ScalarExpr::Case {
            whens: vec![CaseWhen {
                lhs: ScalarExpr::col("f"),
                op: CmpOp::Gt,
                rhs: ScalarExpr::lit(0.0),
                then: ScalarExpr::Case {
                    whens: vec![CaseWhen {
                        lhs: ScalarExpr::col("g"),
                        op: CmpOp::Lt,
                        rhs: ScalarExpr::lit(10.0),
                        then: ScalarExpr::binary(
                            ArithOp::Div,
                            ScalarExpr::col("f"),
                            ScalarExpr::col("g"),
                        ),
                    }],
                    otherwise: None,
                },
            }],
            otherwise: None,
        };
        for expr in [
            ScalarExpr::col("f"),
            ScalarExpr::col("s"),
            ScalarExpr::col("b"),
            ScalarExpr::year("t"),
            ScalarExpr::binary(ArithOp::Div, ScalarExpr::col("i"), ScalarExpr::col("g")),
            product_plus_one,
            nested_case_without_else,
        ] {
            let bound = expr.bind(&t).unwrap();
            let mut scratch = bound.scratch();
            for run in (RowRange { start: 0, end: t.num_rows() }).runs() {
                let block = bound.block(run, &mut scratch);
                for (i, row) in run.rows().enumerate() {
                    assert_eq!(bits(block.get(i)), bits(bound.f64_at(row)), "{expr}, row {row}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For random trees, the block equals `f64_at` row by row, bit for
        /// bit, over every run of the table and at random run offsets and
        /// tail lengths, one scratch reused throughout.
        #[test]
        fn blocks_match_rows_on_random_trees(seed in any::<u64>()) {
            let t = edge_table(2 * RUN_ROWS + 333);
            let mut state = seed | 1;
            let expr = random_expr(&mut state, 3);
            let bound = expr.bind(&t).unwrap();
            let mut scratch = bound.scratch();
            let n = t.num_rows();
            let mut runs: Vec<RowRange> = (RowRange { start: 0, end: n }).runs().collect();
            for _ in 0..8 {
                let start = next(&mut state) % n;
                let len = next(&mut state) % RUN_ROWS.min(n - start) + 1;
                runs.push(RowRange { start, end: start + len });
            }
            for run in runs {
                let block = bound.block(run, &mut scratch);
                prop_assert_eq!(block.values.len(), run.len());
                for (i, row) in run.rows().enumerate() {
                    let (got, want) = (bits(block.get(i)), bits(bound.f64_at(row)));
                    prop_assert_eq!(got, want, "{expr}, row {row}");
                }
            }
        }
    }
}
