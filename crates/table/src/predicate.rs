//! Predicate AST and evaluation.
//!
//! Predicates are resolved against a table once ([`Predicate::bind`]) and can
//! then be evaluated one row at a time ([`BoundPredicate::matches`], the
//! single-row API and the test oracle) or in bulk into a [`Bitmap`], one
//! 64-row word at a time over runs of [`RUN_ROWS`](exec::RUN_ROWS) rows.
//! String comparisons are resolved against the column dictionary at bind
//! time: `=` and `<>` compare the code slice with one code, and ordered
//! comparisons and `IN ('…')` read a truth table with one entry per
//! dictionary code. Numeric comparisons, `BETWEEN` and `IN` run over the
//! expression's block ([`BoundExpr::block`]), and `AND`, `OR` and `NOT` are
//! word operations.
//!
//! Every numeric comparison — `=`, `<`, `IN`, `BETWEEN` alike — is
//! [`CmpOp::evaluate_f64`]: a total order with NaN above +∞ and −0 below +0.
//! A row where the expression has no value fails every comparison.

use crate::bitmap::{fill_ones, pack_words, Bitmap};
use crate::error::TableError;
use crate::exec::{self, ExecOptions, RowRange, CHUNK_ROWS};
use crate::expr::{and_valid, BlockScratch, BoundExpr, ScalarExpr, RUN_WORDS};
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

    /// Apply to two floats (total order: NaN above +∞, −0 below +0). The
    /// one numeric comparator: every comparison of a predicate, `CASE`
    /// arm, `IND` and `COUNT_IF` goes through it.
    #[inline]
    pub fn evaluate_f64(self, left: f64, right: f64) -> bool {
        self.evaluate(left.total_cmp(&right))
    }

    /// [`CmpOp::evaluate_f64`] of `left(i)` against `right(i)` for every
    /// `i` below `len`, packed 64 rows a word into `words`, bits past `len`
    /// zero. The operator is matched once per call, not once per row.
    #[inline]
    pub(crate) fn evaluate_words(
        self,
        words: &mut [u64],
        len: usize,
        left: impl Fn(usize) -> f64,
        right: impl Fn(usize) -> f64,
    ) {
        let (l, r) = (&left, &right);
        match self {
            CmpOp::Eq => pack_words(words, len, |i| CmpOp::Eq.evaluate_f64(l(i), r(i))),
            CmpOp::Ne => pack_words(words, len, |i| CmpOp::Ne.evaluate_f64(l(i), r(i))),
            CmpOp::Lt => pack_words(words, len, |i| CmpOp::Lt.evaluate_f64(l(i), r(i))),
            CmpOp::Le => pack_words(words, len, |i| CmpOp::Le.evaluate_f64(l(i), r(i))),
            CmpOp::Gt => pack_words(words, len, |i| CmpOp::Gt.evaluate_f64(l(i), r(i))),
            CmpOp::Ge => pack_words(words, len, |i| CmpOp::Ge.evaluate_f64(l(i), r(i))),
        }
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
                let rhs = Rhs::bind(&bound, *op, value)?;
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
                    let mut member = vec![false; dict.len()];
                    codes.iter().for_each(|&code| member[code as usize] = true);
                    Node::InCodes { expr: bound, codes, member }
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
    /// `=` or `<>` against a string literal present in the column
    /// dictionary: its code.
    Code(u32),
    /// `=` or `<>` against a string literal absent from the dictionary: `=`
    /// never matches, `<>` always matches.
    MissingString,
    /// An ordered comparison (`<`, `<=`, `>`, `>=`) against a string
    /// literal: whether it holds at each code of the dictionary, decided by
    /// comparing texts, so a literal absent from the dictionary still sorts
    /// among the strings that are present.
    Holds(Vec<bool>),
}

impl Rhs {
    fn bind(expr: &BoundExpr<'_>, op: CmpOp, value: &Value) -> Result<Rhs> {
        if expr.is_plain_str() {
            let s = value.as_str().ok_or_else(|| {
                TableError::invalid(format!(
                    "comparison of a string column against non-string literal {value:?}"
                ))
            })?;
            let dict = expr.column().dictionary().expect("plain str column");
            Ok(match (op, dict.code_of(s)) {
                (CmpOp::Eq | CmpOp::Ne, Some(code)) => Rhs::Code(code),
                (CmpOp::Eq | CmpOp::Ne, None) => Rhs::MissingString,
                _ => Rhs::Holds(dict.iter().map(|(_, text)| op.evaluate(text.cmp(s))).collect()),
            })
        } else {
            Ok(Rhs::Number(as_f64(value)?))
        }
    }
}

/// A bound predicate's tree. `InCodes` is `IN` over a string column: the
/// listed codes, ascending, and whether each code of the dictionary is one
/// of them.
#[derive(Debug, Clone)]
enum Node<'t> {
    True,
    Cmp { expr: BoundExpr<'t>, op: CmpOp, rhs: Rhs },
    Between { expr: BoundExpr<'t>, low: f64, high: f64 },
    InCodes { expr: BoundExpr<'t>, codes: Vec<u32>, member: Vec<bool> },
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

    /// Evaluate over all `num_rows` rows into a bitmap: the sequential case
    /// of [`BoundPredicate::eval_bitmap_with`].
    pub fn eval_bitmap(&self, num_rows: usize) -> Bitmap {
        self.eval_bitmap_with(num_rows, &ExecOptions::sequential())
    }

    /// Evaluate over all `num_rows` rows into a bitmap, chunk-parallel: bit
    /// `r` is [`BoundPredicate::matches`]`(r)`. Each worker fills the words
    /// of whole [`CHUNK_ROWS`]-row partitions, a run of
    /// [`RUN_ROWS`](exec::RUN_ROWS) rows at a time with buffers allocated
    /// once per partition, so the bitmap is the same for any thread count.
    pub fn eval_bitmap_with(&self, num_rows: usize, options: &ExecOptions) -> Bitmap {
        let mut words = vec![0u64; num_rows.div_ceil(64)];
        exec::for_each_chunk_mut(&mut words, CHUNK_ROWS / 64, options, |chunk, words| {
            let mut scratch = Scratch::of(&self.node);
            let start = chunk * CHUNK_ROWS;
            let partition = RowRange { start, end: num_rows.min(start + CHUNK_ROWS) };
            for (run, out) in partition.runs().zip(words.chunks_mut(RUN_WORDS)) {
                Self::eval_words(&self.node, &mut scratch, run, out);
            }
        });
        Bitmap::from_words(words, num_rows).expect("one word per 64 rows")
    }

    /// The word kernel: `node` over the rows of `run` into `out`, one word
    /// per 64 rows, bits past the run zero.
    fn eval_words(node: &Node<'_>, scratch: &mut Scratch, run: RowRange, out: &mut [u64]) {
        let len = run.len();
        match node {
            Node::True => fill_ones(out, len),
            Node::Cmp { expr, op, rhs: Rhs::Number(n) } => {
                let block = expr.block(run, scratch.block());
                op.evaluate_words(out, len, |i| block.values[i], |_| *n);
                and_valid(out, block.valid);
            }
            Node::Cmp { expr, op, rhs: Rhs::Code(code) } => {
                let codes = &str_codes(expr)[run.rows()];
                match op {
                    CmpOp::Eq => pack_words(out, len, |i| codes[i] == *code),
                    _ => pack_words(out, len, |i| codes[i] != *code),
                }
            }
            Node::Cmp { expr, rhs: Rhs::Holds(holds), .. } => {
                let codes = &str_codes(expr)[run.rows()];
                pack_words(out, len, |i| holds[codes[i] as usize]);
            }
            Node::Cmp { op, rhs: Rhs::MissingString, .. } => match op {
                CmpOp::Ne => fill_ones(out, len),
                _ => out.fill(0),
            },
            Node::Between { expr, low, high } => {
                let block = expr.block(run, scratch.block());
                let v = block.values;
                let within = |i: usize| {
                    CmpOp::Ge.evaluate_f64(v[i], *low) && CmpOp::Le.evaluate_f64(v[i], *high)
                };
                pack_words(out, len, within);
                and_valid(out, block.valid);
            }
            Node::InCodes { expr, member, .. } => {
                let codes = &str_codes(expr)[run.rows()];
                pack_words(out, len, |i| member[codes[i] as usize]);
            }
            Node::InNumbers { expr, values } => {
                let block = expr.block(run, scratch.block());
                let v = block.values;
                pack_words(out, len, |i| values.iter().any(|&x| CmpOp::Eq.evaluate_f64(v[i], x)));
                and_valid(out, block.valid);
            }
            Node::And(a, b) | Node::Or(a, b) => {
                let [left, right] = scratch.children.as_mut_slice() else {
                    unreachable!("a binary node has two children")
                };
                Self::eval_words(a, left, run, out);
                let other = &mut scratch.words[..out.len()];
                if matches!(node, Node::And(..)) {
                    if out.iter().any(|&w| w != 0) {
                        Self::eval_words(b, right, run, other);
                        out.iter_mut().zip(other.iter()).for_each(|(o, w)| *o &= w);
                    }
                } else {
                    Self::eval_words(b, right, run, other);
                    out.iter_mut().zip(other.iter()).for_each(|(o, w)| *o |= w);
                }
            }
            Node::Not(a) => {
                Self::eval_words(a, &mut scratch.children[0], run, out);
                let all = &mut scratch.words[..out.len()];
                fill_ones(all, len);
                out.iter_mut().zip(all.iter()).for_each(|(o, w)| *o ^= w);
            }
        }
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
                    (actual == *code) == matches!(op, CmpOp::Eq)
                }
                Rhs::MissingString => matches!(op, CmpOp::Ne),
                Rhs::Holds(holds) => {
                    holds[expr.str_code_at(row).expect("bound to str column") as usize]
                }
            },
            Node::Between { expr, low, high } => match expr.f64_at(row) {
                Some(v) => CmpOp::Ge.evaluate_f64(v, *low) && CmpOp::Le.evaluate_f64(v, *high),
                None => false,
            },
            Node::InCodes { expr, codes, .. } => {
                let actual = expr.str_code_at(row).expect("bound to str column");
                codes.binary_search(&actual).is_ok()
            }
            Node::InNumbers { expr, values } => match expr.f64_at(row) {
                Some(v) => values.iter().any(|&x| CmpOp::Eq.evaluate_f64(v, x)),
                None => false,
            },
            Node::And(a, b) => Self::eval(a, row) && Self::eval(b, row),
            Node::Or(a, b) => Self::eval(a, row) || Self::eval(b, row),
            Node::Not(a) => !Self::eval(a, row),
        }
    }
}

/// The code slice of a node over a string column.
fn str_codes<'t>(expr: &BoundExpr<'t>) -> &'t [u32] {
    expr.column().str_codes().expect("bound to str column")
}

/// The word kernel's buffers for one [`Node`], shaped as its tree: an
/// expression's block scratch, and a run of words for the second operand
/// of `AND` and `OR` and the mask of `NOT`.
#[derive(Debug)]
struct Scratch {
    expr: Option<BlockScratch>,
    words: [u64; RUN_WORDS],
    children: Vec<Scratch>,
}

impl Scratch {
    fn of(node: &Node<'_>) -> Scratch {
        let (expr, children) = match node {
            Node::Cmp { expr, rhs: Rhs::Number(_), .. }
            | Node::Between { expr, .. }
            | Node::InNumbers { expr, .. } => (Some(expr.scratch()), Vec::new()),
            Node::True | Node::Cmp { .. } | Node::InCodes { .. } => (None, Vec::new()),
            Node::And(a, b) | Node::Or(a, b) => (None, vec![Scratch::of(a), Scratch::of(b)]),
            Node::Not(a) => (None, vec![Scratch::of(a)]),
        };
        Scratch { expr, words: [0; RUN_WORDS], children }
    }

    /// The block scratch of a node over a numeric expression.
    fn block(&mut self) -> &mut BlockScratch {
        self.expr.as_mut().expect("a numeric node has block scratch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::tests::{edge_table, next, random_expr, random_literal, random_op};
    use crate::table::TableBuilder;
    use crate::time::epoch_seconds;
    use crate::types::DataType;
    use proptest::prelude::*;

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
            Predicate::cmp("country", CmpOp::Lt, "US"),
            Predicate::cmp("country", CmpOp::Ge, "UZ"),
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
        // An ordered comparison sorts the absent literal among the texts:
        // "IN" < "UZ" < "VN" and "US" < "UZ".
        let ordered = |op, s: &str| {
            let bound = Predicate::cmp("country", op, s).bind(&t).unwrap();
            let rows: Vec<usize> = bound.eval_bitmap(4).iter_ones().collect();
            assert_eq!(rows, (0..4).filter(|&r| bound.matches(r)).collect::<Vec<_>>());
            rows
        };
        assert_eq!(ordered(CmpOp::Lt, "UZ"), [0, 3]);
        assert_eq!(ordered(CmpOp::Le, "UZ"), [0, 3]);
        assert_eq!(ordered(CmpOp::Gt, "UZ"), [1, 2]);
        assert_eq!(ordered(CmpOp::Ge, "UZ"), [1, 2]);
        assert_eq!(ordered(CmpOp::Lt, "ZZ"), [0, 1, 2, 3]);
        assert_eq!(ordered(CmpOp::Gt, "ZZ"), Vec::<usize>::new());
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

    /// One float column over `[-0.0, 0.0, NaN, 5, +inf]`.
    fn signed_zeros_and_nan() -> Table {
        let mut b = TableBuilder::new(&[("v", DataType::Float64)]);
        for v in [-0.0, 0.0, f64::NAN, 5.0, f64::INFINITY] {
            b.push_row(&[Value::Float64(v)]).unwrap();
        }
        b.finish()
    }

    /// `=`, `IN`, `BETWEEN`, `>` and `>= AND <=` share one total order:
    /// −0 is below +0, and NaN is above +∞.
    #[test]
    fn numeric_forms_share_one_comparator() {
        let t = signed_zeros_and_nan();
        let v = || ScalarExpr::col("v");
        let kept = |p: Predicate| {
            let bound = p.bind(&t).unwrap();
            let rows: Vec<usize> = bound.eval_bitmap(5).iter_ones().collect();
            let oracle: Vec<usize> = (0..5).filter(|&r| bound.matches(r)).collect();
            assert_eq!(rows, oracle, "{p}");
            rows
        };
        assert_eq!(kept(Predicate::cmp("v", CmpOp::Eq, 0.0)), [1]);
        let in_zero = Predicate::InList { expr: v(), values: vec![Value::Float64(0.0)] };
        assert_eq!(kept(in_zero), [1]);
        assert_eq!(kept(Predicate::between(v(), 0.0, 5.0)), [1, 3]);
        assert_eq!(kept(Predicate::cmp("v", CmpOp::Gt, 0.0)), [2, 3, 4]);
        let ge_and_le =
            Predicate::cmp("v", CmpOp::Ge, 0.0).and(Predicate::cmp("v", CmpOp::Le, 5.0));
        assert_eq!(kept(ge_and_le), [1, 3]);
    }

    /// A random predicate over [`edge_table`]: numeric comparisons,
    /// `BETWEEN` and `IN` over random expressions, string comparisons and
    /// `IN` lists (literals present in the dictionary and absent), under
    /// `AND`, `OR` and `NOT`.
    fn random_predicate(state: &mut u64, depth: u32) -> Predicate {
        let forms = if depth == 0 { 5 } else { 8 };
        let text = |state: &mut u64| {
            Value::str(["VN", "IN", "US", "BR", "ZA", "AA", "ZZ"][next(state) % 7])
        };
        match next(state) % forms {
            0 => {
                Predicate::cmp_expr(random_expr(state, 2), random_op(state), random_literal(state))
            }
            1 => Predicate::between(
                random_expr(state, 1),
                random_literal(state),
                random_literal(state),
            ),
            2 => {
                let expr = random_expr(state, 1);
                let values =
                    (0..1 + next(state) % 3).map(|_| Value::Float64(random_literal(state)));
                Predicate::InList { expr, values: values.collect() }
            }
            3 => Predicate::cmp("s", random_op(state), text(state)),
            4 => {
                let values = (0..1 + next(state) % 3).map(|_| text(state)).collect();
                Predicate::InList { expr: ScalarExpr::col("s"), values }
            }
            5 => random_predicate(state, depth - 1).and(random_predicate(state, depth - 1)),
            6 => random_predicate(state, depth - 1).or(random_predicate(state, depth - 1)),
            _ => random_predicate(state, depth - 1).not(),
        }
    }

    /// The word kernel over `run` of `bound`, as a list of the rows it keeps.
    fn kernel_rows(bound: &BoundPredicate<'_>, run: RowRange) -> Vec<usize> {
        let mut scratch = Scratch::of(&bound.node);
        let mut words = vec![0u64; run.len().div_ceil(64)];
        BoundPredicate::eval_words(&bound.node, &mut scratch, run, &mut words);
        let bitmap = Bitmap::from_words(words.clone(), run.len()).unwrap();
        assert_eq!(bitmap.words(), &words[..], "no bit past the run");
        bitmap.iter_ones().map(|i| run.start + i).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For random predicates, the word bitmap equals `matches` row by
        /// row: over the whole table, and at random run offsets and tail
        /// lengths.
        #[test]
        fn words_match_rows_on_random_predicates(seed in any::<u64>()) {
            let t = edge_table(2 * exec::RUN_ROWS + 333);
            let mut state = seed | 1;
            let predicate = random_predicate(&mut state, 3);
            let bound = predicate.bind(&t).unwrap();
            let n = t.num_rows();
            let oracle: Vec<usize> = (0..n).filter(|&r| bound.matches(r)).collect();
            let got: Vec<usize> = bound.eval_bitmap(n).iter_ones().collect();
            prop_assert_eq!(&got, &oracle, "{predicate}");
            for _ in 0..8 {
                let start = next(&mut state) % n;
                let len = next(&mut state) % exec::RUN_ROWS.min(n - start) + 1;
                let run = RowRange { start, end: start + len };
                let want: Vec<usize> = run.rows().filter(|&r| bound.matches(r)).collect();
                prop_assert_eq!(kernel_rows(&bound, run), want, "{predicate}, {run:?}");
            }
        }
    }

    /// The chunk split of the word kernel: a table of two partitions and a
    /// tail gives the same bitmap at every worker count, the default one
    /// (`CVOPT_THREADS`, when set) included.
    #[test]
    fn word_kernel_is_the_same_at_any_thread_count() {
        let t = edge_table(2 * CHUNK_ROWS + 777);
        let mut state = 0x5eed_u64;
        for _ in 0..4 {
            let predicate = random_predicate(&mut state, 2);
            let bound = predicate.bind(&t).unwrap();
            let sequential = bound.eval_bitmap(t.num_rows());
            for options in [ExecOptions::new(2), ExecOptions::new(8), ExecOptions::default()] {
                let parallel = bound.eval_bitmap_with(t.num_rows(), &options);
                assert_eq!(parallel, sequential, "{predicate}, {options:?}");
            }
        }
    }
}
