//! Recursive-descent parser for the SQL subset.

use super::lexer::{tokenize, Token, TokenKind};
use crate::agg::{AggExpr, AggKind};
use crate::error::TableError;
use crate::expr::{ArithOp, CaseWhen, ScalarExpr};
use crate::predicate::{CmpOp, Predicate};
use crate::query::GroupByQuery;
use crate::types::Value;
use crate::Result;

/// Maximum nesting depth for expressions and predicates. Deeply nested
/// hostile input returns an error instead of exhausting the stack.
const MAX_DEPTH: usize = 64;

/// A parsed statement: a query, or a request to explain one.
#[derive(Debug, Clone)]
pub enum Statement {
    /// `SELECT …` — execute the query.
    Select(SelectStmt),
    /// `EXPLAIN SELECT …` — plan the query and report, without executing.
    Explain(SelectStmt),
}

/// The `JOIN dim ON fact.k = dim.k` clause of a [`SelectStmt`]: an inner
/// equi-join against a second (dimension) table. The `ON` sides must be
/// qualified with the two table names; everything else in the statement
/// uses bare column names against the joined schema.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Joined (dimension) table name.
    pub table: String,
    /// Join key column on the `FROM` (fact) table.
    pub fact_key: String,
    /// Join key column on the joined (dimension) table.
    pub dim_key: String,
}

/// A parsed `SELECT` statement.
#[derive(Debug, Clone)]
pub struct SelectStmt {
    /// Items in the select list, in order.
    pub items: Vec<SelectItem>,
    /// Table name from `FROM` (informational; execution binds to a `Table`).
    pub table: String,
    /// `JOIN … ON …` clause, if present.
    pub join: Option<JoinClause>,
    /// `WHERE` predicate.
    pub predicate: Option<Predicate>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<ScalarExpr>,
    /// `WITH CUBE` flag.
    pub cube: bool,
}

/// One item in a select list.
#[derive(Debug, Clone)]
pub enum SelectItem {
    /// A plain grouping expression (must also appear in `GROUP BY`).
    Scalar(ScalarExpr),
    /// An aggregate.
    Agg(AggExpr),
}

impl SelectStmt {
    /// Lower to an executable [`GroupByQuery`].
    ///
    /// Validates that every scalar select item appears in the `GROUP BY`
    /// list (standard SQL grouping rule). A `JOIN` clause is not part of
    /// the produced query — callers that support joins (the engine)
    /// resolve the join first and run the query over the joined columns it
    /// reads ([`GroupByQuery::columns`]).
    pub fn into_query(self) -> Result<GroupByQuery> {
        let mut aggregates = Vec::new();
        for item in &self.items {
            match item {
                SelectItem::Scalar(expr) => {
                    if !self.group_by.contains(expr) {
                        return Err(TableError::sql(
                            format!("selected column {expr} does not appear in GROUP BY"),
                            None,
                        ));
                    }
                }
                SelectItem::Agg(agg) => aggregates.push(agg.clone()),
            }
        }
        if aggregates.is_empty() {
            return Err(TableError::sql("query has no aggregate in the select list", None));
        }
        let mut q = GroupByQuery::new(self.group_by, aggregates);
        q.predicate = self.predicate;
        q.cube = self.cube;
        Ok(q)
    }
}

/// Parse a statement, `EXPLAIN` included.
pub fn parse_statement(input: &str) -> Result<Statement> {
    let run = || -> Result<Statement> {
        let tokens = tokenize(input)?;
        let mut p = Parser { tokens, pos: 0, depth: 0 };
        let explain = p.eat_keyword("EXPLAIN");
        let stmt = p.select()?;
        p.expect_eof()?;
        Ok(if explain { Statement::Explain(stmt) } else { Statement::Select(stmt) })
    };
    run().map_err(|e| with_snippet(e, input))
}

/// Parse a plain `SELECT` statement. `EXPLAIN` is rejected here — it
/// needs an engine catalog to plan against; use [`parse_statement`].
pub fn parse(input: &str) -> Result<SelectStmt> {
    match parse_statement(input)? {
        Statement::Select(stmt) => Ok(stmt),
        Statement::Explain(_) => Err(with_snippet(
            TableError::sql("EXPLAIN requires an engine catalog to plan against", Some(0)),
            input,
        )),
    }
}

/// Attach a source snippet to a positioned SQL error, so the message
/// points at the offending characters, not just a byte offset.
fn with_snippet(err: TableError, input: &str) -> TableError {
    let TableError::Sql { message, position: Some(pos) } = &err else {
        return err;
    };
    if *pos >= input.len() {
        return TableError::Sql {
            message: format!("{message} (at end of statement)"),
            position: Some(*pos),
        };
    }
    // Snip forward from the error position to a char boundary ≤ 24 bytes.
    let mut end = (*pos + 24).min(input.len());
    while !input.is_char_boundary(end) {
        end -= 1;
    }
    let ellipsis = if end < input.len() { "…" } else { "" };
    TableError::Sql {
        message: format!("{message} near \"{}{ellipsis}\"", &input[*pos..end]),
        position: Some(*pos),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_pos(&self) -> usize {
        self.tokens[self.pos].pos
    }

    fn advance(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn error(&self, message: impl Into<String>) -> TableError {
        TableError::sql(message, Some(self.peek_pos()))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        if self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error(format!("trailing input: {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.advance() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    /// `table.column` — only the `JOIN … ON` clause uses qualified names.
    fn qualified(&mut self) -> Result<(String, String)> {
        let table = self.ident()?;
        self.expect(&TokenKind::Dot, ". (ON sides must be qualified: table.column)")?;
        let column = self.ident()?;
        Ok((table, column))
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let mut items = vec![self.select_item()?];
        while matches!(self.peek(), TokenKind::Comma) {
            self.advance();
            items.push(self.select_item()?);
        }
        self.expect_keyword("FROM")?;
        let table = self.ident()?;
        let join = if self.eat_keyword("JOIN") { Some(self.join_clause(&table)?) } else { None };
        let predicate = if self.eat_keyword("WHERE") { Some(self.predicate()?) } else { None };
        let mut group_by = Vec::new();
        let mut cube = false;
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.expr()?);
            while matches!(self.peek(), TokenKind::Comma) {
                self.advance();
                group_by.push(self.expr()?);
            }
            if self.eat_keyword("WITH") {
                self.expect_keyword("CUBE")?;
                cube = true;
            }
        }
        Ok(SelectStmt { items, table, join, predicate, group_by, cube })
    }

    fn join_clause(&mut self, fact: &str) -> Result<JoinClause> {
        let dim = self.ident()?;
        if dim.eq_ignore_ascii_case(fact) {
            return Err(self.error(format!("self-join of {fact} is not supported")));
        }
        self.expect_keyword("ON")?;
        let left_pos = self.peek_pos();
        let (lq, lc) = self.qualified()?;
        self.expect(&TokenKind::Eq, "= (the join is an equi-join)")?;
        let right_pos = self.peek_pos();
        let (rq, rc) = self.qualified()?;
        let side = |qualifier: &str, pos: usize| -> Result<bool> {
            if qualifier.eq_ignore_ascii_case(fact) {
                Ok(true)
            } else if qualifier.eq_ignore_ascii_case(&dim) {
                Ok(false)
            } else {
                Err(TableError::sql(
                    format!("ON qualifier {qualifier} names neither {fact} nor {dim}"),
                    Some(pos),
                ))
            }
        };
        let (fact_key, dim_key) = match (side(&lq, left_pos)?, side(&rq, right_pos)?) {
            (true, false) => (lc, rc),
            (false, true) => (rc, lc),
            _ => {
                return Err(TableError::sql(
                    format!("ON must compare one {fact} column with one {dim} column"),
                    Some(left_pos),
                ))
            }
        };
        Ok(JoinClause { table: dim, fact_key, dim_key })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let item = match self.peek().clone() {
            TokenKind::Ident(name) if is_agg_fn(&name) => SelectItem::Agg(self.aggregate()?),
            _ => SelectItem::Scalar(self.expr()?),
        };
        // Optional [AS] alias.
        let item = if self.eat_keyword("AS") {
            let alias = self.ident()?;
            match item {
                SelectItem::Agg(a) => SelectItem::Agg(a.with_alias(alias)),
                SelectItem::Scalar(_) => {
                    return Err(self.error("aliases are only supported on aggregates"))
                }
            }
        } else if let (SelectItem::Agg(a), TokenKind::Ident(alias)) = (&item, self.peek().clone()) {
            // Bare alias (`SUM(x) total`), but keywords terminate the item.
            if is_clause_keyword(&alias) {
                item
            } else {
                self.advance();
                SelectItem::Agg(a.clone().with_alias(alias))
            }
        } else {
            item
        };
        Ok(item)
    }

    fn aggregate(&mut self) -> Result<AggExpr> {
        let name = self.ident()?.to_ascii_uppercase();
        self.expect(&TokenKind::LParen, "(")?;
        let agg = match name.as_str() {
            "COUNT" => {
                if matches!(self.peek(), TokenKind::Star) {
                    self.advance();
                    AggExpr::count()
                } else {
                    // COUNT(col) counts rows; inputs here are never null.
                    let _ = self.expr()?;
                    AggExpr::count()
                }
            }
            "COUNT_IF" => {
                let expr = self.expr()?;
                let op = self.cmp_op()?;
                let threshold = self.signed_number("COUNT_IF needs a numeric bound")?;
                AggExpr::count_if_over(expr, op, threshold)
            }
            "AVG" | "SUM" | "MIN" | "MAX" | "VAR" | "STD" => {
                let expr = self.expr()?;
                let kind = match name.as_str() {
                    "AVG" => AggKind::Avg,
                    "SUM" => AggKind::Sum,
                    "MIN" => AggKind::Min,
                    "MAX" => AggKind::Max,
                    "VAR" => AggKind::Var,
                    _ => AggKind::Std,
                };
                AggExpr::over(kind, expr)
            }
            other => return Err(self.error(format!("unknown aggregate function {other}"))),
        };
        self.expect(&TokenKind::RParen, ")")?;
        Ok(agg)
    }

    /// `expr := term (('+' | '-') term)*` — standard precedence climbing.
    fn expr(&mut self) -> Result<ScalarExpr> {
        self.enter()?;
        let result = (|| {
            let mut left = self.term()?;
            loop {
                let op = match self.peek() {
                    TokenKind::Plus => ArithOp::Add,
                    TokenKind::Minus => ArithOp::Sub,
                    _ => break,
                };
                self.advance();
                let right = self.term()?;
                left = ScalarExpr::binary(op, left, right);
            }
            Ok(left)
        })();
        self.depth -= 1;
        result
    }

    /// `term := factor (('*' | '/') factor)*`.
    fn term(&mut self) -> Result<ScalarExpr> {
        let mut left = self.factor()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => ArithOp::Mul,
                TokenKind::Slash => ArithOp::Div,
                _ => break,
            };
            self.advance();
            let right = self.factor()?;
            left = ScalarExpr::binary(op, left, right);
        }
        Ok(left)
    }

    /// `factor := number | '-' number | '(' expr ')' | CASE … END
    ///          | YEAR|MONTH|DAY|HOUR '(' ident ')' | ident`.
    fn factor(&mut self) -> Result<ScalarExpr> {
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.advance();
                Ok(ScalarExpr::lit(n))
            }
            TokenKind::Minus => {
                // Unary minus folds into a numeric literal only; `-col`
                // would be ambiguous with the (unsupported) unary negate.
                self.advance();
                match self.advance() {
                    TokenKind::Number(n) => Ok(ScalarExpr::lit(-n)),
                    other => {
                        Err(self
                            .error(format!("'-' must precede a numeric literal, got {other:?}")))
                    }
                }
            }
            TokenKind::LParen => {
                self.advance();
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen, ")")?;
                Ok(inner)
            }
            TokenKind::Ident(name) if name.eq_ignore_ascii_case("CASE") => self.case(),
            TokenKind::Ident(name) => {
                self.advance();
                let upper = name.to_ascii_uppercase();
                if matches!(upper.as_str(), "YEAR" | "MONTH" | "DAY" | "HOUR")
                    && matches!(self.peek(), TokenKind::LParen)
                {
                    self.advance();
                    let inner = Box::new(ScalarExpr::Column(self.ident()?));
                    self.expect(&TokenKind::RParen, ")")?;
                    return Ok(match upper.as_str() {
                        "YEAR" => ScalarExpr::Year(inner),
                        "MONTH" => ScalarExpr::Month(inner),
                        "DAY" => ScalarExpr::Day(inner),
                        _ => ScalarExpr::Hour(inner),
                    });
                }
                if matches!(self.peek(), TokenKind::Dot) {
                    return Err(self
                        .error("qualified names are only supported in JOIN ON; use bare columns"));
                }
                Ok(ScalarExpr::Column(name))
            }
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }

    /// `CASE (WHEN expr OP expr THEN expr)+ [ELSE expr] END`.
    fn case(&mut self) -> Result<ScalarExpr> {
        self.enter()?;
        let result = (|| {
            self.expect_keyword("CASE")?;
            let mut whens = Vec::new();
            while self.eat_keyword("WHEN") {
                let lhs = self.expr()?;
                let op = self.cmp_op()?;
                let rhs = self.expr()?;
                self.expect_keyword("THEN")?;
                let then = self.expr()?;
                whens.push(CaseWhen { lhs, op, rhs, then });
            }
            if whens.is_empty() {
                return Err(self.error("CASE needs at least one WHEN arm"));
            }
            let otherwise =
                if self.eat_keyword("ELSE") { Some(Box::new(self.expr()?)) } else { None };
            self.expect_keyword("END")?;
            Ok(ScalarExpr::Case { whens, otherwise })
        })();
        self.depth -= 1;
        result
    }

    /// Bump the nesting depth, erroring once hostile input nests past
    /// [`MAX_DEPTH`] (the caller decrements on the way out).
    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn cmp_op(&mut self) -> Result<CmpOp> {
        let op = match self.advance() {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            other => return Err(self.error(format!("expected comparison operator, got {other:?}"))),
        };
        Ok(op)
    }

    /// A numeric literal with optional leading `-`.
    fn signed_number(&mut self, what: &str) -> Result<f64> {
        let neg = matches!(self.peek(), TokenKind::Minus);
        if neg {
            self.advance();
        }
        match self.advance() {
            TokenKind::Number(n) => Ok(if neg { -n } else { n }),
            other => Err(self.error(format!("{what}, got {other:?}"))),
        }
    }

    fn literal(&mut self) -> Result<Value> {
        match self.peek().clone() {
            TokenKind::Minus => Ok(Value::Float64(self.signed_number("expected a number")?)),
            _ => match self.advance() {
                TokenKind::Number(n) => Ok(Value::Float64(n)),
                TokenKind::Str(s) => Ok(Value::str(s)),
                TokenKind::Ident(s) if s.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
                TokenKind::Ident(s) if s.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
                other => Err(self.error(format!("expected literal, got {other:?}"))),
            },
        }
    }

    fn predicate(&mut self) -> Result<Predicate> {
        self.enter()?;
        let result = (|| {
            let mut left = self.and_predicate()?;
            while self.eat_keyword("OR") {
                let right = self.and_predicate()?;
                left = left.or(right);
            }
            Ok(left)
        })();
        self.depth -= 1;
        result
    }

    fn and_predicate(&mut self) -> Result<Predicate> {
        let mut left = self.unary_predicate()?;
        while self.eat_keyword("AND") {
            let right = self.unary_predicate()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn unary_predicate(&mut self) -> Result<Predicate> {
        self.enter()?;
        let result = (|| {
            if self.eat_keyword("NOT") {
                return Ok(self.unary_predicate()?.not());
            }
            if matches!(self.peek(), TokenKind::LParen) {
                // `(` is ambiguous: a grouped predicate or a parenthesized
                // arithmetic expression (`(x + 1) > 2`). Try the predicate
                // reading first; on failure, rewind and read a comparison.
                let save = self.pos;
                self.advance();
                if let Ok(inner) = self.predicate() {
                    if matches!(self.peek(), TokenKind::RParen) {
                        self.advance();
                        return Ok(inner);
                    }
                }
                self.pos = save;
            }
            let expr = self.expr()?;
            if self.eat_keyword("BETWEEN") {
                let low = self.literal()?;
                self.expect_keyword("AND")?;
                let high = self.literal()?;
                return Ok(Predicate::Between { expr, low, high });
            }
            if self.eat_keyword("IN") {
                self.expect(&TokenKind::LParen, "(")?;
                let mut values = vec![self.literal()?];
                while matches!(self.peek(), TokenKind::Comma) {
                    self.advance();
                    values.push(self.literal()?);
                }
                self.expect(&TokenKind::RParen, ")")?;
                return Ok(Predicate::InList { expr, values });
            }
            let op = self.cmp_op()?;
            let value = self.literal()?;
            Ok(Predicate::Cmp { expr, op, value })
        })();
        self.depth -= 1;
        result
    }
}

fn is_agg_fn(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "AVG" | "SUM" | "COUNT" | "COUNT_IF" | "MIN" | "MAX" | "VAR" | "STD"
    )
}

fn is_clause_keyword(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "FROM" | "WHERE" | "GROUP" | "WITH" | "AS" | "JOIN" | "ON"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggKind;

    #[test]
    fn parse_simple() {
        let s = parse("SELECT major, AVG(gpa) FROM Student GROUP BY major").unwrap();
        assert_eq!(s.table, "Student");
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.group_by, vec![ScalarExpr::col("major")]);
        assert!(!s.cube);
        let q = s.into_query().unwrap();
        assert_eq!(q.aggregates.len(), 1);
        assert_eq!(q.aggregates[0].kind, AggKind::Avg);
    }

    #[test]
    fn parse_where_between_function() {
        let s = parse(
            "SELECT country, AVG(value) FROM OpenAQ \
             WHERE HOUR(local_time) BETWEEN 0 AND 12 GROUP BY country",
        )
        .unwrap();
        match s.predicate.unwrap() {
            Predicate::Between { expr, .. } => assert_eq!(expr, ScalarExpr::hour("local_time")),
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn parse_cube() {
        let s = parse(
            "SELECT country, parameter, SUM(value) FROM OpenAQ \
             GROUP BY country, parameter WITH CUBE",
        )
        .unwrap();
        assert!(s.cube);
        assert_eq!(s.group_by.len(), 2);
    }

    #[test]
    fn parse_count_variants() {
        let s = parse("SELECT COUNT(*), COUNT(value) FROM t").unwrap();
        let q = s.into_query().unwrap();
        assert_eq!(q.aggregates.len(), 2);
        assert!(q.aggregates.iter().all(|a| a.kind == AggKind::Count));
    }

    #[test]
    fn parse_count_if() {
        let s = parse("SELECT parameter, COUNT_IF(value > 0.5) FROM t GROUP BY parameter").unwrap();
        let q = s.into_query().unwrap();
        assert_eq!(q.aggregates[0].kind, AggKind::CountIf);
        assert_eq!(q.aggregates[0].condition, Some((CmpOp::Gt, 0.5)));
    }

    #[test]
    fn parse_aliases() {
        let s = parse("SELECT x, SUM(v) AS agg1, AVG(v) agg2 FROM t GROUP BY x").unwrap();
        let q = s.into_query().unwrap();
        assert_eq!(q.aggregates[0].alias, "agg1");
        assert_eq!(q.aggregates[1].alias, "agg2");
    }

    #[test]
    fn parse_and_or_not_parens() {
        let s =
            parse("SELECT c, AVG(v) FROM t WHERE NOT (c = 'x' OR v < 3) AND v <= 10 GROUP BY c")
                .unwrap();
        assert!(matches!(s.predicate.unwrap(), Predicate::And(_, _)));
    }

    #[test]
    fn parse_in_list() {
        let s = parse("SELECT c, AVG(v) FROM t WHERE c IN ('a','b') GROUP BY c").unwrap();
        match s.predicate.unwrap() {
            Predicate::InList { values, .. } => assert_eq!(values.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_year_group_by() {
        let s = parse("SELECT YEAR(t), AVG(v) FROM tab GROUP BY YEAR(t)").unwrap();
        assert_eq!(s.group_by, vec![ScalarExpr::year("t")]);
        assert!(s.into_query().is_ok());
    }

    #[test]
    fn parse_arithmetic_projection() {
        let s = parse("SELECT g, AVG(price * qty + 1) FROM t GROUP BY g").unwrap();
        let q = s.into_query().unwrap();
        assert_eq!(q.aggregates[0].alias, "AVG(((price * qty) + 1))");
        assert_eq!(
            q.aggregates[0].input,
            Some(ScalarExpr::binary(
                ArithOp::Add,
                ScalarExpr::binary(ArithOp::Mul, ScalarExpr::col("price"), ScalarExpr::col("qty")),
                ScalarExpr::lit(1.0),
            ))
        );
    }

    #[test]
    fn arithmetic_precedence_and_parens() {
        let s = parse("SELECT SUM(a + b * c) FROM t").unwrap();
        let SelectItem::Agg(agg) = &s.items[0] else { panic!() };
        assert_eq!(agg.input.as_ref().unwrap().display_name(), "(a + (b * c))");
        let s = parse("SELECT SUM((a + b) * c) FROM t").unwrap();
        let SelectItem::Agg(agg) = &s.items[0] else { panic!() };
        assert_eq!(agg.input.as_ref().unwrap().display_name(), "((a + b) * c)");
        let s = parse("SELECT SUM(a - -2) FROM t").unwrap();
        let SelectItem::Agg(agg) = &s.items[0] else { panic!() };
        assert_eq!(agg.input.as_ref().unwrap().display_name(), "(a - -2)");
    }

    #[test]
    fn parse_case_expression() {
        let s = parse(
            "SELECT g, SUM(CASE WHEN v > 10 THEN v ELSE 0 END) FROM t \
             WHERE CASE WHEN v > 0 THEN 1 ELSE 0 END = 1 GROUP BY g",
        )
        .unwrap();
        let SelectItem::Agg(agg) = &s.items[1] else { panic!() };
        assert_eq!(agg.alias, "SUM(CASE WHEN v > 10 THEN v ELSE 0 END)");
        assert!(matches!(
            agg.input,
            Some(ScalarExpr::Case { ref whens, otherwise: Some(_) }) if whens.len() == 1
        ));
        assert!(s.predicate.is_some());
    }

    #[test]
    fn parse_arithmetic_in_predicate_and_group_by() {
        let s =
            parse("SELECT v / 10, COUNT(*) FROM t WHERE (v + 1) * 2 > 6 GROUP BY v / 10").unwrap();
        assert_eq!(s.group_by[0].display_name(), "(v / 10)");
        match s.predicate.unwrap() {
            Predicate::Cmp { expr, .. } => assert_eq!(expr.display_name(), "((v + 1) * 2)"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_explain() {
        let s = parse_statement("EXPLAIN SELECT g, AVG(v) FROM t GROUP BY g").unwrap();
        let Statement::Explain(inner) = s else { panic!("expected Explain") };
        assert_eq!(inner.table, "t");
        // Plain parse() rejects EXPLAIN with a clean error, not a panic.
        let err = parse("EXPLAIN SELECT g, AVG(v) FROM t GROUP BY g").unwrap_err();
        assert!(err.to_string().contains("EXPLAIN"), "{err}");
    }

    #[test]
    fn parse_join() {
        let s = parse("SELECT region, SUM(v) FROM fact JOIN dim ON fact.k = dim.k GROUP BY region")
            .unwrap();
        let join = s.join.unwrap();
        assert_eq!(join.table, "dim");
        assert_eq!(join.fact_key, "k");
        assert_eq!(join.dim_key, "k");
    }

    #[test]
    fn parse_join_sides_in_either_order() {
        let s = parse("SELECT SUM(v) FROM fact JOIN dim ON dim.dk = fact.fk").unwrap();
        let join = s.join.unwrap();
        assert_eq!(join.fact_key, "fk");
        assert_eq!(join.dim_key, "dk");
    }

    #[test]
    fn join_rejects_bad_on_clauses() {
        for (sql, needle) in [
            ("SELECT SUM(v) FROM f JOIN d ON f.k = x.k", "names neither"),
            ("SELECT SUM(v) FROM f JOIN d ON f.k = f.k2", "one f column with one d column"),
            ("SELECT SUM(v) FROM f JOIN d ON k = d.k", "qualified"),
            ("SELECT SUM(v) FROM f JOIN f ON f.k = f.k", "self-join"),
            ("SELECT SUM(v) FROM f JOIN d ON f.k < d.k", "equi-join"),
            ("SELECT SUM(f.v) FROM f JOIN d ON f.k = d.k", "bare columns"),
        ] {
            let err = parse(sql).unwrap_err();
            assert!(err.to_string().contains(needle), "{sql} -> {err}");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let deep = format!("SELECT SUM({}x{}) FROM t", "(".repeat(500), ")".repeat(500));
        let err = parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        let deep_not = format!("SELECT SUM(v) FROM t WHERE {}v > 1", "NOT ".repeat(500));
        assert!(parse(&deep_not).is_err());
    }

    #[test]
    fn rejects_scalar_not_in_group_by() {
        let s = parse("SELECT major, AVG(gpa) FROM t GROUP BY college").unwrap();
        assert!(s.into_query().is_err());
    }

    #[test]
    fn rejects_no_aggregate() {
        let s = parse("SELECT major FROM t GROUP BY major").unwrap();
        assert!(s.into_query().is_err());
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(parse("SELECT AVG(x) FROM t GROUP BY y zzz qqq").is_err());
    }

    #[test]
    fn rejects_missing_from() {
        assert!(parse("SELECT AVG(x)").is_err());
    }

    #[test]
    fn error_carries_position() {
        let err = parse("SELECT AVG(x) FRM t").unwrap_err();
        match err {
            TableError::Sql { position, .. } => assert!(position.is_some()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_carries_snippet() {
        let err = parse("SELECT AVG(x) FROM t WHERRE v > 1").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("near \"WHERRE v > 1\""), "{msg}");
        let err = parse("SELECT AVG(x) FROM").unwrap_err();
        assert!(err.to_string().contains("at end of statement"), "{}", err);
    }
}
