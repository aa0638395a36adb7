//! The statement path: compile, plan, answer. One derivation
//! ([`Engine::plan_statement`]) sits behind both [`Engine::query`] and
//! [`Engine::explain_mode`], so `EXPLAIN` reports exactly what `query`
//! will do.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use cvopt_table::exec::{partition_rows, ExecOptions};
use cvopt_table::{hash_join, sql, GroupByQuery, QueryResult};

use super::catalog::CatalogEntry;
use super::store::Reusable;
use super::{Engine, QueryMode};
use crate::confidence::AggConfidence;
use crate::error::CvError;
use crate::framework::{budget_for_rows, note_draw_avoided};
use crate::spec::{conjunction_atoms, AggColumn, QuerySpec, SamplingProblem};
use crate::Result;

/// How an approximate answer relates to the prepared-sample cache: not at
/// all, an exact fingerprint hit, or a **derived** answer re-aggregated
/// from a cached sample whose problem subsumes the requested one (see
/// [`SamplingProblem::subsumes`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ReuseInfo {
    /// No cached sample was involved (exact plans, and approximate misses
    /// that drew a fresh sample).
    #[default]
    None,
    /// The statement's derived problem was cached under exactly this
    /// layout-folded fingerprint.
    Exact {
        /// The matching cache fingerprint (same value as
        /// [`ExplainReport::fingerprint`]).
        fingerprint: u64,
    },
    /// The answer was re-aggregated from a cached sample prepared for a
    /// *different* (subsuming) problem — no statistics pass, no draw.
    Derived {
        /// Fingerprint of the cached sample actually answering.
        source_fingerprint: u64,
        /// Group-by columns the source sample stratifies on beyond the
        /// requested ones (the groups the estimator merged away).
        coarsened_groups: Vec<String>,
        /// Conjunction atoms of the statement's predicate, applied at
        /// estimation time rather than baked into the sample. Engine
        /// samples are drawn unfiltered, so every requested atom lands
        /// here.
        dropped_predicates: Vec<String>,
    },
}

/// A structured plan report: what [`Engine::query`] did (or, via
/// [`Engine::explain`], would do) for a statement.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Catalog name the `FROM` clause resolved to.
    pub table: String,
    /// Rows in the base table.
    pub table_rows: usize,
    /// The mode actually chosen (never [`QueryMode::Auto`]).
    pub mode: QueryMode,
    /// Why that mode was chosen — `"mode requested"` when the caller fixed
    /// it, otherwise the Auto rule that fired (threshold, cached sample,
    /// reusable sample, or no estimable aggregate).
    pub reason: &'static str,
    /// For `JOIN` statements: the resolved join, rendered as
    /// `"dim ON fact.key = dim.key"`. `None` for single-table statements.
    pub join: Option<String>,
    /// How the answer relates to the prepared-sample cache. `Derived`
    /// means the sampling algebra answered from a subsuming cached sample;
    /// `cache_hit` stays `Some(false)` in that case (the exact fingerprint
    /// was *not* cached).
    pub reuse: ReuseInfo,
    /// For approximate plans: whether the prepared sample was already
    /// cached. `None` for exact plans.
    pub cache_hit: Option<bool>,
    /// For approximate plans: the problem fingerprint keying the cache.
    pub fingerprint: Option<u64>,
    /// For approximate plans: the allocated row budget.
    pub budget: Option<usize>,
    /// Strata in the prepared sample (known only once a plan exists, i.e.
    /// on cache hits and after execution).
    pub strata: Option<usize>,
    /// Rows actually drawn into the sample (same availability as `strata`).
    pub sample_rows: Option<usize>,
    /// Partitions a base-table scan splits into under the session-level
    /// execution options (global row space; shard boundaries never move
    /// partition boundaries).
    pub partitions: usize,
    /// Worker threads of the session-level execution options.
    pub threads: usize,
    /// Shard count when the `FROM` table declared a shard layout; `None`
    /// for a plain table.
    pub shards: Option<usize>,
    /// Per-shard partition counts (shard-local passes such as a reader's
    /// index build partition each shard by its own row count). Same
    /// availability as `shards`.
    pub shard_partitions: Option<Vec<usize>>,
    /// How many of the `FROM` table's shards answer from outside this
    /// process (`remote_shards` of its
    /// [`CatalogTable`](super::CatalogTable)); `None` when every shard is
    /// in-process. The **only** report field that distinguishes a remote
    /// layout from the identical local one.
    pub remote_shards: Option<usize>,
}

impl ExplainReport {
    /// The table-shaped half of a report — what the `FROM` table looks
    /// like under the session's execution options — with the sample-shaped
    /// half unset. Every plan starts here.
    fn for_table(
        from: &CatalogEntry,
        exec: &ExecOptions,
        (mode, reason): (QueryMode, &'static str),
    ) -> ExplainReport {
        let table_rows = from.table.num_rows();
        ExplainReport {
            table: from.name.clone(),
            table_rows,
            mode,
            reason,
            join: None,
            reuse: ReuseInfo::None,
            cache_hit: None,
            fingerprint: None,
            budget: None,
            strata: None,
            sample_rows: None,
            partitions: partition_rows(table_rows).len(),
            threads: exec.threads(),
            shards: from.table.num_shards(),
            shard_partitions: from.table.shard_partitions(),
            remote_shards: from.table.remote_shards(),
        }
    }

    /// One-line rendering for logs and examples.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "{:?} on {} ({} rows, {} partitions, {} threads)",
            self.mode, self.table, self.table_rows, self.partitions, self.threads
        );
        if let Some(shards) = self.shards {
            line.push_str(&format!(", {shards} shards"));
            if self.remote_shards.is_some() {
                line.push_str(" (remote)");
            }
        }
        if let Some(hit) = self.cache_hit {
            line.push_str(if hit { ", cache HIT" } else { ", cache MISS" });
        }
        if let ReuseInfo::Derived { source_fingerprint, .. } = &self.reuse {
            line.push_str(&format!(", reused {source_fingerprint:#018x}"));
        }
        if let Some(budget) = self.budget {
            line.push_str(&format!(", budget {budget}"));
        }
        if let Some(strata) = self.strata {
            line.push_str(&format!(", {strata} strata"));
        }
        if let Some(rows) = self.sample_rows {
            line.push_str(&format!(", {rows} sampled"));
        }
        if let Some(join) = &self.join {
            line.push_str(&format!(", join {join}"));
        }
        line.push_str(&format!(" [{}]", self.reason));
        line
    }
}

/// An answered query: results plus the plan report and, for approximate
/// `AVG` aggregates, per-group confidence intervals.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// One result per grouping set (a single entry unless `WITH CUBE`).
    pub results: Vec<QueryResult>,
    /// What the engine did to produce them.
    pub report: ExplainReport,
    /// Confidence intervals for `AVG` aggregates (approximate,
    /// non-cube answers over stratified samples only; empty otherwise).
    pub confidence: Vec<AggConfidence>,
}

/// Derive the [`SamplingProblem`] the engine prepares for `query`: group by
/// the query's grouping expressions (expanded per cube subset when `WITH
/// CUBE`), aggregating every distinct value column the query touches, with
/// the given row budget.
///
/// Errors when the query has no value aggregate (e.g. `COUNT(*)` only) —
/// there is nothing to optimize a sample for, so such queries stay exact.
pub fn problem_for_query(query: &GroupByQuery, budget: usize) -> Result<SamplingProblem> {
    let mut spec = QuerySpec::group_by_exprs(query.group_by.clone());
    for agg in &query.aggregates {
        if let Some(input) = &agg.input {
            if !spec.aggregates.iter().any(|a| a.column.display_name() == input.display_name()) {
                spec = spec.aggregate_column(AggColumn::from_expr(input.clone()));
            }
        }
    }
    if spec.aggregates.is_empty() {
        return Err(CvError::invalid(
            "query has no value aggregate to optimize a sample for; run it exactly",
        ));
    }
    let specs = if query.cube { spec.cube() } else { vec![spec] };
    Ok(SamplingProblem::multi(specs, budget))
}

/// A planned statement: the compiled query, the catalog entry its `FROM`
/// resolved to, the pre-execution plan report, and what execution needs
/// beyond them — computed once here and threaded through, never
/// recomputed or re-resolved.
struct PlannedStatement<'e> {
    from: &'e CatalogEntry,
    query: GroupByQuery,
    report: ExplainReport,
    /// For approximate plans: the derived sampling problem and its
    /// layout-folded cache fingerprint.
    sample: Option<(SamplingProblem, u64)>,
    /// For `JOIN` statements: the clause to resolve at execution time and
    /// the dimension entry it names (join plans are always exact
    /// and never touch the sample store).
    join: Option<(sql::JoinClause, &'e CatalogEntry)>,
    /// The subsuming sample the reuse planner matched at plan time, if any.
    reuse: Option<Reusable>,
}

impl Engine {
    /// Compile `statement`, resolve its `FROM` table against the catalog,
    /// and answer it in `mode`. Approximate answers estimate from the
    /// prepared sample for the statement's derived problem (preparing it on
    /// first use, serving it from the cache afterwards) and attach
    /// per-group confidence intervals for `AVG` aggregates.
    /// `EXPLAIN SELECT …` statements plan but never execute: the answer
    /// carries the report with empty results. `JOIN` statements resolve the
    /// join to its build side and per-partition match counts (fact side
    /// probed per partition, in shard order), then answer exactly one joined
    /// partition at a time: each is produced, gathered onto the joined
    /// columns the statement reads — [`GroupByQuery::columns`], nothing
    /// else — and folded ([`GroupByQuery::execute_join`]), so no joined
    /// table or match list is ever whole.
    pub fn query(&self, statement: &str, mode: QueryMode) -> Result<QueryAnswer> {
        let (planned, is_explain) = self.plan_statement(statement, mode)?;
        let PlannedStatement { from, query, mut report, sample, join, reuse } = planned;
        if is_explain {
            return Ok(QueryAnswer { results: Vec::new(), report, confidence: Vec::new() });
        }
        if let Some((join, dim)) = join {
            // The fact side joins per shard in shard order (global row
            // order), so the joined rows — and therefore the partitions cut
            // on them and the answer bytes — are identical for any shard
            // layout and any thread count. A dimension table spread over
            // several shards is first concatenated into one.
            let dim = dim.table.set.rows().to_table()?;
            let joined = self.exec.span("join", || {
                hash_join(&from.table.set, &dim, &join.fact_key, &join.dim_key, &self.exec)
            })?;
            let results = query.execute_join(&joined, &self.exec)?;
            return Ok(QueryAnswer { results, report, confidence: Vec::new() });
        }
        let Some((problem, fingerprint)) = sample else {
            let results = query.execute_with(&from.table.set, &self.exec)?;
            return Ok(QueryAnswer { results, report, confidence: Vec::new() });
        };
        let handle = match reuse {
            Some(source) => {
                // Derived answer: re-aggregate the subsuming cached sample
                // the planner captured. This *is* the handle-estimate call
                // a direct user of that sample would make, so the bytes are
                // identical by construction; no statistics pass, no draw.
                self.reuse_hits.fetch_add(1, Ordering::Relaxed);
                self.draws_avoided.fetch_add(1, Ordering::Relaxed);
                note_draw_avoided();
                self.handle(from, source.source_fingerprint, true, source.outcome)
            }
            None => {
                let handle = self.prepare_keyed(from, problem.clone(), fingerprint, false)?;
                // The plan's probe was advisory; the prepare just run is
                // what actually happened.
                report.cache_hit = Some(handle.is_cache_hit());
                report.reuse = if handle.is_cache_hit() {
                    ReuseInfo::Exact { fingerprint }
                } else {
                    ReuseInfo::None
                };
                handle
            }
        };
        let reused = matches!(report.reuse, ReuseInfo::Derived { .. });
        from.log_query(&problem, fingerprint, &query, reused);
        let (results, confidence) = handle.answer(&query)?;
        report.strata = Some(handle.plan().num_strata());
        report.sample_rows = Some(handle.sample().len());
        Ok(QueryAnswer { results, report, confidence })
    }

    /// Report what [`Engine::query`] would do for `statement` in `mode`,
    /// without scanning, sampling, or mutating the cache. Strata and sample
    /// rows are filled in only when the plan is already cached.
    pub fn explain(&self, statement: &str) -> Result<ExplainReport> {
        self.explain_mode(statement, QueryMode::Auto)
    }

    /// [`Engine::explain`] with an explicit mode. Accepts both plain
    /// `SELECT`s and `EXPLAIN SELECT …` (the report is the same).
    pub fn explain_mode(&self, statement: &str, mode: QueryMode) -> Result<ExplainReport> {
        Ok(self.plan_statement(statement, mode)?.0.report)
    }

    /// The one derivation path behind [`Engine::query`] and
    /// [`Engine::explain_mode`]: compile, resolve, derive the problem,
    /// probe the store *and the reuse planner*, and only then route. Auto
    /// consults the durable sample set **before** the size threshold, so a
    /// cached or subsuming prepared sample flips a small-table query to the
    /// approximate path (the report's `reason` says which rule fired).
    /// Never scans, samples, or mutates beyond cache bookkeeping atomics.
    /// The `bool` is whether the statement was an `EXPLAIN`.
    fn plan_statement(
        &self,
        statement: &str,
        mode: QueryMode,
    ) -> Result<(PlannedStatement<'_>, bool)> {
        let (mut stmt, is_explain) = match sql::parse_statement(statement)? {
            sql::Statement::Select(stmt) => (stmt, false),
            sql::Statement::Explain(stmt) => (stmt, true),
        };
        let (table, join) = (std::mem::take(&mut stmt.table), stmt.join.take());
        let query = stmt.into_query()?;
        let from = self.resolve(&table)?;
        let planned = match join {
            Some(join) => self.plan_join(from, join, query, mode)?,
            None => self.plan_select(from, query, mode)?,
        };
        Ok((planned, is_explain))
    }

    /// Plan a single-table `SELECT` through the sampling planner.
    fn plan_select<'e>(
        &self,
        from: &'e CatalogEntry,
        query: GroupByQuery,
        mode: QueryMode,
    ) -> Result<PlannedStatement<'e>> {
        let table_rows = from.table.num_rows();
        let estimable = query.aggregates.iter().any(|a| a.input.is_some());
        // Derive the problem up front for every potentially-approximate
        // plan. The one place the spec fingerprint is computed: `query`
        // threads it through to `prepare_keyed`, so a cache miss never
        // canonicalizes the problem twice.
        let mut derived: Option<(SamplingProblem, u64)> = None;
        if mode == QueryMode::Approximate || (mode == QueryMode::Auto && estimable) {
            let budget = budget_for_rows(table_rows, self.default_rate)?;
            let problem = problem_for_query(&query, budget)?;
            let fingerprint = from.table.layout_fingerprint(problem.fingerprint());
            derived = Some((problem, fingerprint));
        }
        // Probe before routing. Every *decision* here — Auto's flip and
        // whether the answer derives from a subsuming sample — depends
        // only on **durable** entries (explicitly prepared or
        // re-optimized): which query-drawn entries happen to be cached is
        // a race under concurrent traffic, and the repo's contract is that
        // answer bytes and chosen modes never are. The probe result itself
        // still prefills the advisory `cache_hit` for EXPLAIN.
        let cached =
            derived.as_ref().and_then(|(p, fp)| self.store.probe(&from.key, *fp, p, false));
        let durable_hit = cached.as_ref().is_some_and(|(_, durable)| *durable);
        let reusable = if durable_hit {
            // A durable exact hit always wins; `Derived` is reserved for
            // answers from a *different* problem's sample.
            None
        } else {
            derived.as_ref().and_then(|(p, _)| self.store.find_reusable(&from.key, p))
        };
        let routed = match mode {
            QueryMode::Exact | QueryMode::Approximate => (mode, "mode requested"),
            QueryMode::Auto => {
                if !estimable {
                    (QueryMode::Exact, "no value aggregate to estimate")
                } else if durable_hit {
                    (QueryMode::Approximate, "prepared sample matches exactly")
                } else if reusable.is_some() {
                    (QueryMode::Approximate, "prepared sample subsumes the problem")
                } else if table_rows >= self.auto_threshold {
                    (QueryMode::Approximate, "table at or above the auto threshold")
                } else {
                    (QueryMode::Exact, "table below the auto threshold")
                }
            }
        };
        let mut report = ExplainReport::for_table(from, &self.exec, routed);
        let mut sample = None;
        let mut reuse = None;
        if report.mode == QueryMode::Approximate {
            let (problem, fingerprint) = derived.expect("approximate plans derive a problem");
            report.fingerprint = Some(fingerprint);
            report.budget = Some(problem.budget);
            // For derived plans strata and sample rows describe the
            // *source* sample — the one that will answer.
            let mut answering = cached.map(|(outcome, _)| outcome);
            if let Some((source, coarsened_groups)) = reusable {
                // The derived answer wins over any non-durable exact entry
                // (whose presence is timing-dependent): `cache_hit` stays
                // false because the statement's own fingerprint does not
                // answer it.
                report.cache_hit = Some(false);
                report.reuse = ReuseInfo::Derived {
                    source_fingerprint: source.source_fingerprint,
                    coarsened_groups,
                    dropped_predicates: query
                        .predicate
                        .as_ref()
                        .and_then(conjunction_atoms)
                        .map(|atoms| atoms.iter().map(|a| a.to_string()).collect())
                        .unwrap_or_else(|| query.predicate.iter().map(|p| p.to_string()).collect()),
                };
                answering = Some(Arc::clone(&source.outcome));
                reuse = Some(source);
            } else {
                report.cache_hit = Some(answering.is_some());
                if answering.is_some() {
                    report.reuse = ReuseInfo::Exact { fingerprint };
                }
            }
            if let Some(outcome) = answering {
                report.strata = Some(outcome.plan.num_strata());
                report.sample_rows = Some(outcome.sample.len());
            }
            sample = Some((problem, fingerprint));
        }
        Ok(PlannedStatement { from, query, report, sample, join: None, reuse })
    }

    /// Plan a `JOIN` statement: always exact (the sampling algebra has no
    /// join rule), never cached, in-process shards only. The join itself
    /// runs at execution time ([`Engine::query`]); a plan only names it.
    fn plan_join<'e>(
        &'e self,
        fact: &'e CatalogEntry,
        join: sql::JoinClause,
        query: GroupByQuery,
        mode: QueryMode,
    ) -> Result<PlannedStatement<'e>> {
        let dim = self.resolve(&join.table)?;
        if fact.table.remote_shards().is_some() || dim.table.remote_shards().is_some() {
            return Err(CvError::invalid(format!(
                "JOIN needs local rows on both sides; a remote table cannot be joined \
                 (fact {}, dim {})",
                fact.name, dim.name
            )));
        }
        let reason = match mode {
            QueryMode::Approximate => {
                return Err(CvError::invalid(
                    "JOIN queries answer exactly; approximate mode is not supported over joins",
                ))
            }
            QueryMode::Exact => "mode requested",
            QueryMode::Auto => "join queries answer exactly",
        };
        let mut report = ExplainReport::for_table(fact, &self.exec, (QueryMode::Exact, reason));
        report.join = Some(format!(
            "{dim} ON {fact}.{} = {dim}.{}",
            join.fact_key,
            join.dim_key,
            fact = fact.name,
            dim = dim.name
        ));
        Ok(PlannedStatement {
            from: fact,
            query,
            report,
            sample: None,
            join: Some((join, dim)),
            reuse: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{assert_same_bits, table};
    use super::*;
    use crate::confidence::estimate_avg_with_error;
    use crate::estimate::estimate_with;
    use crate::framework::budget_for_rate;
    use cvopt_table::{DataType, ShardedTable, TableBuilder, Value};

    #[test]
    fn exact_matches_direct_execution() {
        let mut e = Engine::new();
        let t = table(2000);
        e.register("t", t.clone());
        let sql_text = "SELECT g, AVG(x), COUNT(*) FROM t GROUP BY g";
        let ans = e.query(sql_text, QueryMode::Exact).unwrap();
        let direct = sql::run(&t, sql_text).unwrap();
        assert_eq!(ans.results[0].keys, direct[0].keys);
        assert_eq!(ans.results[0].values, direct[0].values);
        assert_eq!(ans.report.mode, QueryMode::Exact);
        assert_eq!(ans.report.cache_hit, None);
        assert_eq!(e.stats_passes(), 0);
    }

    #[test]
    fn explain_statement_plans_without_executing() {
        let mut e = Engine::new();
        e.register("t", table(2000));
        let ans = e.query("EXPLAIN SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Exact).unwrap();
        assert!(ans.results.is_empty());
        assert!(ans.confidence.is_empty());
        assert_eq!(ans.report.table, "t");
        assert_eq!(e.stats_passes(), 0, "EXPLAIN must not sample");
        // explain_mode accepts both spellings and agrees with itself.
        let plain = e.explain_mode("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Exact).unwrap();
        let explained =
            e.explain_mode("EXPLAIN SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Exact).unwrap();
        assert_eq!(plain.to_line(), explained.to_line());
    }

    #[test]
    fn join_matches_direct_hash_join() {
        let mut e = Engine::new();
        let t = table(2000);
        e.register("t", t.clone());
        let mut b = TableBuilder::new(&[("k", DataType::Str), ("tier", DataType::Str)]);
        for (k, tier) in [("rare", "low"), ("mid", "low"), ("common", "high")] {
            b.push_row(&[Value::str(k), Value::str(tier)]).unwrap();
        }
        let dim = b.finish();
        e.register("tiers", dim.clone());
        let ans = e
            .query(
                "SELECT tier, AVG(x), COUNT(*) FROM t JOIN tiers ON t.g = tiers.k GROUP BY tier",
                QueryMode::Exact,
            )
            .unwrap();
        let joined = hash_join(&t, &dim, "g", "k", &ExecOptions::sequential()).unwrap();
        let joined = joined.project(&joined.schema().names(), 0..joined.num_rows()).unwrap();
        let direct =
            sql::run(&joined, "SELECT tier, AVG(x), COUNT(*) FROM j GROUP BY tier").unwrap();
        assert_eq!(ans.results[0].keys, direct[0].keys);
        assert_eq!(ans.results[0].values, direct[0].values);
        assert_eq!(ans.report.join.as_deref(), Some("tiers ON t.g = tiers.k"));
        assert!(ans.report.to_line().contains("join tiers"), "{}", ans.report.to_line());
        assert_eq!(e.stats_passes(), 0, "exact joins never sample");
    }

    #[test]
    fn second_query_hits_cache_and_new_predicate_reuses_sample() {
        let mut e = Engine::new().with_seed(1);
        e.register("t", table(5000));
        let a = e.query("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Approximate).unwrap();
        assert_eq!(a.report.cache_hit, Some(false));
        assert_eq!(e.stats_passes(), 1);
        // Same derived problem, new predicate: the grouping and value
        // columns are unchanged, so the fingerprint matches and the cached
        // sample answers it without a second statistics pass.
        let b = e
            .query("SELECT g, AVG(x) FROM t WHERE h = 'p' GROUP BY g", QueryMode::Approximate)
            .unwrap();
        assert_eq!(b.report.cache_hit, Some(true));
        assert_eq!(e.stats_passes(), 1);
        assert!(b.results[0].num_groups() > 0);
    }

    #[test]
    fn auto_mode_routes_by_size_and_shape() {
        let mut e = Engine::new().with_auto_threshold(1000);
        e.register("small", table(100));
        e.register("big", table(2000));
        let small = e.query("SELECT g, AVG(x) FROM small GROUP BY g", QueryMode::Auto).unwrap();
        assert_eq!(small.report.mode, QueryMode::Exact);
        let big = e.query("SELECT g, AVG(x) FROM big GROUP BY g", QueryMode::Auto).unwrap();
        assert_eq!(big.report.mode, QueryMode::Approximate);
        // COUNT(*)-only queries have nothing to optimize a sample for.
        let count_only =
            e.query("SELECT g, COUNT(*) FROM big GROUP BY g", QueryMode::Auto).unwrap();
        assert_eq!(count_only.report.mode, QueryMode::Exact);
    }

    #[test]
    fn approximate_count_only_errors() {
        let mut e = Engine::new();
        e.register("t", table(500));
        let err =
            e.query("SELECT g, COUNT(*) FROM t GROUP BY g", QueryMode::Approximate).unwrap_err();
        assert!(err.to_string().contains("exact"), "{err}");
    }

    #[test]
    fn explain_reports_without_mutating() {
        let mut e = Engine::new().with_seed(2).with_auto_threshold(1000);
        e.register("t", table(3000));
        let sql_text = "SELECT g, AVG(x) FROM t GROUP BY g";
        let before = e.explain(sql_text).unwrap();
        assert_eq!(before.mode, QueryMode::Approximate);
        assert_eq!(before.cache_hit, Some(false));
        assert!(before.strata.is_none(), "no plan exists yet");
        assert_eq!(before.partitions, 1);
        assert_eq!(e.stats_passes(), 0, "explain must not sample");

        let _ = e.query(sql_text, QueryMode::Approximate).unwrap();
        let after = e.explain(sql_text).unwrap();
        assert_eq!(after.cache_hit, Some(true));
        assert_eq!(after.strata, Some(3));
        assert_eq!(after.budget, Some(30));
        assert!(after.to_line().contains("cache HIT"), "{}", after.to_line());

        let exact = e.explain_mode(sql_text, QueryMode::Exact).unwrap();
        assert_eq!(exact.mode, QueryMode::Exact);
        assert_eq!(exact.cache_hit, None);
    }

    #[test]
    fn confidence_attached_for_avg() {
        let mut e = Engine::new().with_seed(4).with_default_rate(0.1);
        e.register("t", table(5000));
        let ans =
            e.query("SELECT g, AVG(x), SUM(x) FROM t GROUP BY g", QueryMode::Approximate).unwrap();
        assert_eq!(ans.confidence.len(), 1);
        let conf = &ans.confidence[0];
        assert_eq!(conf.agg_index, 0);
        assert_eq!(conf.estimates.len(), ans.results[0].num_groups());
        for est in &conf.estimates {
            let point = ans.results[0].value(&est.key, 0).unwrap();
            assert!((est.estimate - point).abs() < 1e-9);
            let (lo, hi) = est.ci95();
            assert!(lo <= est.estimate && est.estimate <= hi);
        }
    }

    #[test]
    fn fused_answer_is_bit_identical_to_the_standalone_estimators() {
        // Two AVG aggregates, a predicate on a non-grouping column, a
        // string + date-part group-by: the one-scan answer must equal
        // `estimate_with` plus one standalone confidence pass per aggregate.
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("ts", DataType::Timestamp),
            ("x", DataType::Float64),
            ("y", DataType::Float64),
            ("z", DataType::Float64),
        ]);
        for i in 0..6000i64 {
            let g = ["a", "b", "c"][(i % 7 % 3) as usize];
            let x = ((i as f64) * 0.37).sin() * 40.0 + (i % 11) as f64;
            let y = ((i as f64) * 0.11).cos() * 5.0 + (i % 5) as f64;
            b.push_row(&[
                Value::str(g),
                Value::Timestamp(1_500_000_000 + i * 7_200),
                Value::Float64(x),
                Value::Float64(y),
                Value::Float64((i % 10) as f64),
            ])
            .unwrap();
        }
        let t = b.finish();
        let sql_text =
            "SELECT g, MONTH(ts), AVG(x), SUM(x), AVG(y) FROM t WHERE z >= 3 GROUP BY g, MONTH(ts)";
        let query = sql::compile(sql_text).unwrap();
        for threads in [1usize, 4] {
            let mut e = Engine::new()
                .with_seed(6)
                .with_default_rate(0.1)
                .with_exec(ExecOptions::new(threads));
            e.register("t", t.clone());
            let ans = e.query(sql_text, QueryMode::Approximate).unwrap();
            let problem = problem_for_query(&query, ans.report.budget.unwrap()).unwrap();
            let handle = e.prepare("t", problem).unwrap();
            assert!(handle.is_cache_hit(), "the sample the statement drew");

            let results = estimate_with(handle.sample(), &query, e.exec()).unwrap();
            assert_same_bits(&ans.results, &results);
            assert_eq!(ans.results[0].group_rows, results[0].group_rows);

            assert_eq!(ans.confidence.iter().map(|c| c.agg_index).collect::<Vec<_>>(), [0, 2]);
            for conf in &ans.confidence {
                let input = query.aggregates[conf.agg_index].input.as_ref().unwrap();
                let alone = estimate_avg_with_error(
                    handle.sample(),
                    &query.group_by,
                    input,
                    query.predicate.as_ref(),
                )
                .unwrap();
                assert_eq!(conf.estimates.len(), alone.len());
                assert!(alone.iter().any(|e| e.std_error > 0.0), "intervals are not vacuous");
                for (got, want) in conf.estimates.iter().zip(&alone) {
                    assert_eq!(got.key, want.key);
                    assert_eq!(got.sampled_rows, want.sampled_rows);
                    assert_eq!(got.estimate.to_bits(), want.estimate.to_bits());
                    assert_eq!(got.std_error.to_bits(), want.std_error.to_bits());
                    assert_eq!(got.cv.to_bits(), want.cv.to_bits());
                }
            }
        }
    }

    #[test]
    fn sharded_explain_reports_layout() {
        let mut e = Engine::new().with_auto_threshold(1000);
        let t = table(3000);
        e.register("t", ShardedTable::split(&t, 3).unwrap());
        let report = e.explain("SELECT g, AVG(x) FROM t GROUP BY g").unwrap();
        assert_eq!(report.shards, Some(3));
        assert_eq!(report.shard_partitions, Some(vec![1, 1, 1]));
        assert_eq!(report.table_rows, 3000);
        assert!(report.to_line().contains("3 shards"), "{}", report.to_line());
        // Single-table registrations report no shard layout.
        let mut plain = Engine::new();
        plain.register("t", t);
        let report = plain.explain_mode("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Exact);
        let report = report.unwrap();
        assert_eq!(report.shards, None);
        assert_eq!(report.shard_partitions, None);
    }

    #[test]
    fn derived_reuse_is_bit_identical_to_direct_reaggregation() {
        let mut e = Engine::new().with_seed(9);
        e.register("t", table(4000));
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g", "h"]).aggregate("x"), 400);
        let handle = e.prepare("t", problem).unwrap();
        assert_eq!(e.stats_passes(), 1);

        // Coarser grouping + a predicate the sample was never planned for:
        // the reuse planner answers from the prepared sample, drawing
        // nothing.
        let sql_text = "SELECT g, AVG(x), SUM(x) FROM t WHERE h = 'p' GROUP BY g";
        let ans = e.query(sql_text, QueryMode::Approximate).unwrap();
        assert_eq!(e.stats_passes(), 1, "no new draw");
        assert_eq!(e.reuse_hits(), 1);
        assert_eq!(e.draws_avoided(), 1);
        assert_eq!(ans.report.cache_hit, Some(false));
        match &ans.report.reuse {
            ReuseInfo::Derived { source_fingerprint, coarsened_groups, dropped_predicates } => {
                assert_eq!(*source_fingerprint, handle.fingerprint());
                assert_eq!(coarsened_groups, &["h".to_string()]);
                assert_eq!(dropped_predicates, &["h = 'p'".to_string()]);
            }
            other => panic!("expected a derived answer, got {other:?}"),
        }
        assert!(ans.report.to_line().contains("reused"), "{}", ans.report.to_line());

        // The contract: byte-identical to calling `estimate` on the same
        // cached sample directly.
        let query = sql::compile(sql_text).unwrap();
        let direct = handle.estimate(&query).unwrap();
        assert_same_bits(&ans.results, &direct);

        // Confidence intervals ride along, computed over the source sample.
        assert_eq!(ans.confidence.len(), 1);
    }

    #[test]
    fn query_drawn_samples_are_not_reuse_candidates() {
        let mut e = Engine::new().with_seed(3);
        e.register("t", table(4000));
        // The fine sample exists in the cache, but only because a query
        // drew it — the reuse planner must not see it.
        let fine =
            e.query("SELECT g, h, AVG(x) FROM t GROUP BY g, h", QueryMode::Approximate).unwrap();
        assert_eq!(fine.report.cache_hit, Some(false));
        let coarse = e.query("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Approximate).unwrap();
        assert_eq!(coarse.report.reuse, ReuseInfo::None);
        assert_eq!(e.stats_passes(), 2, "coarse query draws its own sample");
        assert_eq!(e.reuse_hits(), 0);
    }

    #[test]
    fn exact_cache_hit_reports_exact_reuse() {
        let mut e = Engine::new().with_seed(3);
        e.register("t", table(4000));
        let sql_text = "SELECT g, AVG(x) FROM t GROUP BY g";
        let first = e.query(sql_text, QueryMode::Approximate).unwrap();
        assert_eq!(first.report.reuse, ReuseInfo::None);
        let second = e.query(sql_text, QueryMode::Approximate).unwrap();
        let fingerprint = second.report.fingerprint.unwrap();
        assert_eq!(second.report.reuse, ReuseInfo::Exact { fingerprint });
        assert_eq!(e.reuse_hits(), 0, "exact hits are cache hits, not algebra reuse");
    }

    #[test]
    fn auto_flips_to_approximate_for_prepared_samples() {
        // 4000 rows is far below the threshold, so Auto would go exact on
        // an empty engine.
        let mut e = Engine::new().with_seed(11).with_auto_threshold(1_000_000);
        e.register("t", table(4000));
        let cold = e.query("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Auto).unwrap();
        assert_eq!(cold.report.mode, QueryMode::Exact);
        assert_eq!(cold.report.reason, "table below the auto threshold");

        let problem = SamplingProblem::single(QuerySpec::group_by(&["g", "h"]).aggregate("x"), 400);
        e.prepare("t", problem).unwrap();

        // Subsumed problem: the durable sample flips Auto to approximate.
        let warm = e.query("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Auto).unwrap();
        assert_eq!(warm.report.mode, QueryMode::Approximate);
        assert_eq!(warm.report.reason, "prepared sample subsumes the problem");
        assert!(matches!(warm.report.reuse, ReuseInfo::Derived { .. }));
        assert_eq!(e.stats_passes(), 1, "the flip costs no draw");

        // A statement with nothing to estimate stays exact regardless.
        let count_only = e.query("SELECT g, COUNT(*) FROM t GROUP BY g", QueryMode::Auto).unwrap();
        assert_eq!(count_only.report.mode, QueryMode::Exact);
        assert_eq!(count_only.report.reason, "no value aggregate to estimate");
    }

    #[test]
    fn auto_flips_on_exact_durable_hit_with_reason() {
        let mut e = Engine::new().with_seed(11).with_auto_threshold(1_000_000);
        let t = table(4000);
        e.register("t", t.clone());
        // Prepare exactly the problem the statement derives.
        let query = sql::compile("SELECT g, AVG(x) FROM t GROUP BY g").unwrap();
        let budget = budget_for_rate(&t, 0.01).unwrap();
        let problem = problem_for_query(&query, budget).unwrap();
        e.prepare("t", problem).unwrap();

        let warm = e.query("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Auto).unwrap();
        assert_eq!(warm.report.mode, QueryMode::Approximate);
        assert_eq!(warm.report.reason, "prepared sample matches exactly");
        assert_eq!(warm.report.cache_hit, Some(true));
        let fingerprint = warm.report.fingerprint.unwrap();
        assert_eq!(warm.report.reuse, ReuseInfo::Exact { fingerprint });
        assert_eq!(e.stats_passes(), 1);
    }
}
