//! The long-lived serving API: a table catalog, a prepared-sample cache,
//! and one SQL entry point that answers queries exactly or approximately.
//!
//! Module map (one owner per decision): `catalog` — who the tables are,
//! one entry per name; `store` — what samples exist, their bytes, eviction
//! and upkeep (lock order: store entries → pending runs); `plan` — the
//! statement path behind `query` and `explain`; `ingest` — the passes that
//! change a table's rows.
//!
//! The paper's central economy (§6.3) is that one stratified sample —
//! because sampled rows carry *all* attributes — keeps answering later
//! queries with new predicates and new groupings. [`Engine`] turns that
//! into an API: samples are prepared once per `(table, problem)` and served
//! from a cache keyed by the problem's canonical fingerprint
//! ([`SamplingProblem::fingerprint`]), so repeat queries never re-scan the
//! base table.
//!
//! * [`Engine::register`] — add a table to the catalog: a
//!   [`Table`](cvopt_table::Table), a
//!   [`ShardedTable`](cvopt_table::ShardedTable) layout, or a
//!   [`ShardSet`](cvopt_table::ShardSet) of readers (local, remote, or
//!   mixed). Each becomes the same thing — a [`CatalogTable`] holding a
//!   `ShardSet` — and SQL `FROM` names resolve against it
//!   (case-insensitive).
//! * [`Engine::prepare`] — plan + draw a CVOPT sample for a problem, or
//!   return the cached one; yields a [`SampleHandle`]. Explicitly prepared
//!   samples become **reuse candidates**: later queries whose derived
//!   problem is [subsumed](SamplingProblem::subsumes) by one are answered
//!   by re-aggregating it instead of drawing (see [`ReuseInfo`]).
//! * [`Engine::query`] — compile SQL and answer it in
//!   [`QueryMode::Exact`], [`QueryMode::Approximate`] (HT estimation over
//!   the prepared sample, with per-group confidence intervals for `AVG`
//!   aggregates), or [`QueryMode::Auto`].
//! * [`Engine::explain`] — a structured plan report (chosen mode, the
//!   reason for it, cache hit/miss, reuse provenance, strata, partitions,
//!   budget) without executing anything.
//! * [`Engine::reoptimize`] — consolidate the per-table query log into one
//!   workload-tuned sample that subsumes the observed mix.
//!
//! ```
//! use cvopt_core::{Engine, QueryMode};
//! use cvopt_table::{DataType, TableBuilder, Value};
//!
//! let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
//! for i in 0..4000u32 {
//!     let g = ["a", "b", "c"][(i % 3) as usize];
//!     b.push_row(&[Value::str(g), Value::Float64((i % 37) as f64)]).unwrap();
//! }
//!
//! let mut engine = Engine::new().with_seed(7);
//! engine.register("events", b.finish());
//!
//! let sql = "SELECT g, AVG(x) FROM events GROUP BY g";
//! let exact = engine.query(sql, QueryMode::Exact).unwrap();
//! let approx = engine.query(sql, QueryMode::Approximate).unwrap();
//! assert_eq!(exact.results[0].num_groups(), approx.results[0].num_groups());
//! // The second approximate query is served from the prepared-sample cache.
//! let again = engine.query(sql, QueryMode::Approximate).unwrap();
//! assert_eq!(again.report.cache_hit, Some(true));
//! assert_eq!(engine.stats_passes(), 1);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cvopt_table::exec::ExecOptions;

use crate::framework::{CvOptOutcome, CvOptSampler};
use crate::maintain::Maintenance;
use crate::spec::SamplingProblem;
use crate::Result;

mod catalog;
mod ingest;
mod plan;
mod store;

pub use crate::confidence::AggConfidence;
use catalog::CatalogEntry;
pub use catalog::{CatalogTable, QueryLogEntry, ReoptimizeReport};
pub use ingest::{IngestReport, RotateReport};
pub use plan::{problem_for_query, ExplainReport, QueryAnswer, ReuseInfo};
use store::SampleStore;
pub use store::{eviction_rank, SampleHandle};

/// How [`Engine::query`] answers a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Scan the base table with the exact executor.
    Exact,
    /// Estimate from a prepared CVOPT sample (preparing one on first use).
    Approximate,
    /// Approximate when the table is large enough and the query is
    /// estimable (has at least one value aggregate); exact otherwise.
    #[default]
    Auto,
}

/// A long-lived session: catalog + prepared-sample cache + execution
/// options. The recommended entry point for serving workloads;
/// [`CvOptSampler`] remains the low-level one-shot two-pass primitive.
///
/// # Concurrency
///
/// Registration ([`Engine::register`], [`Engine::drop_table`]) takes
/// `&mut self`; everything else — [`Engine::query`], [`Engine::prepare`],
/// [`Engine::explain`], the counters — takes `&self` and is safe to call
/// from many threads at once (the cache and the counters use interior
/// mutability). A serving layer therefore wraps the engine in an
/// `RwLock<Engine>` where queries share a **read** lock — cache hits and
/// even cache misses never contend on the catalog — and only table
/// registration takes the write lock. Concurrent misses for the same
/// problem coalesce onto one sampling run (see [`Engine::prepare`]).
#[derive(Debug)]
pub struct Engine {
    /// Everything kept per table except its samples, keyed by the
    /// lowercased name.
    catalog: HashMap<String, CatalogEntry>,
    /// Every prepared sample of every table.
    store: SampleStore,
    exec: ExecOptions,
    seed: u64,
    default_rate: f64,
    auto_threshold: usize,
    stats_passes: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Approximate answers derived from a subsuming cached sample.
    reuse_hits: AtomicU64,
    /// Sample preparations (statistics pass + draw) the reuse planner
    /// avoided. Currently bumps in lockstep with `reuse_hits`; kept
    /// separate so batched reuse can diverge without a counter rename.
    draws_avoided: AtomicU64,
    /// Rows appended through [`Engine::ingest`].
    ingested_rows: AtomicU64,
    /// Batches accepted by [`Engine::ingest`].
    ingest_batches: AtomicU64,
    /// Retention rotations run by [`Engine::rotate`].
    rotations: AtomicU64,
    /// Rows dropped by retention rotations.
    rows_retired: AtomicU64,
}

impl Engine {
    /// An empty engine: default execution options (one worker per core),
    /// seed 0, 1% default sampling rate, and a 50 000-row auto threshold.
    pub fn new() -> Self {
        Engine {
            catalog: HashMap::new(),
            store: SampleStore::default(),
            exec: ExecOptions::default(),
            seed: 0,
            default_rate: 0.01,
            auto_threshold: 50_000,
            stats_passes: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            reuse_hits: AtomicU64::new(0),
            draws_avoided: AtomicU64::new(0),
            ingested_rows: AtomicU64::new(0),
            ingest_batches: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
            rows_retired: AtomicU64::new(0),
        }
    }

    /// Bound the prepared-sample cache to approximately `budget` bytes
    /// (`None`, the default, is unbounded). When an insert pushes the held
    /// bytes over the budget, entries are evicted in ascending
    /// [`eviction_rank`] order — cheapest-to-re-earn first, LRU tie-break —
    /// until the cache fits. Entries with an in-flight coalesced miss are
    /// never evicted. Eviction changes *when* sampling work happens, never
    /// *what* a query answers: samples are pure functions of
    /// `(table, problem, seed)`, so a re-prepared sample is bit-identical
    /// to the evicted one. An evicted sample takes its maintenance state
    /// with it: ingest does no further work for it.
    pub fn with_cache_bytes(mut self, budget: Option<u64>) -> Self {
        self.store.budget = budget;
        self
    }

    /// Set the RNG seed used when preparing samples (default 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the session-level execution options; they govern every pass the
    /// engine runs (sampling, exact execution, estimation).
    pub fn with_exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// Set the sampling rate used when [`Engine::query`] derives a problem
    /// from a SQL statement (default 0.01, the paper's 1%).
    pub fn with_default_rate(mut self, rate: f64) -> Self {
        self.default_rate = rate;
        self
    }

    /// Set the row count at or above which [`QueryMode::Auto`] chooses the
    /// approximate path (default 50 000).
    pub fn with_auto_threshold(mut self, rows: usize) -> Self {
        self.auto_threshold = rows;
        self
    }

    /// The session-level execution options.
    pub fn exec(&self) -> &ExecOptions {
        &self.exec
    }

    /// The seed samples are prepared with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// How many statistics passes (fresh sample preparations) the engine
    /// has run. Cache hits do not increment this. Readable while other
    /// threads are querying (the counter is atomic), which is how a
    /// serving layer proves a cached answer cost zero scans.
    pub fn stats_passes(&self) -> u64 {
        self.stats_passes.load(Ordering::Relaxed)
    }

    /// How many [`Engine::prepare`] calls (including the ones implied by
    /// approximate [`Engine::query`]) were served from the cache — either
    /// a cached sample or an in-flight run they coalesced onto.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// How many [`Engine::prepare`] calls ran a fresh statistics pass and
    /// draw. `cache_hits() + cache_misses()` counts every prepared-sample
    /// lookup; failed preparations count as misses.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// How many approximate queries the sampling algebra answered from a
    /// *subsuming* cached sample (a [`ReuseInfo::Derived`] answer). These
    /// are neither cache hits nor misses: the exact fingerprint was not
    /// cached, and no preparation ran.
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits.load(Ordering::Relaxed)
    }

    /// Sample preparations (statistics pass + draw) the reuse planner
    /// avoided by answering from a subsuming cached sample.
    pub fn draws_avoided(&self) -> u64 {
        self.draws_avoided.load(Ordering::Relaxed)
    }

    /// Number of prepared samples currently cached.
    pub fn cached_samples(&self) -> usize {
        self.store.len()
    }

    /// The configured cache byte budget (`None` = unbounded).
    pub fn cache_budget(&self) -> Option<u64> {
        self.store.budget
    }

    /// Approximate bytes currently held by cached samples (see
    /// [`Table::approx_bytes`](cvopt_table::Table::approx_bytes) — a pure
    /// function of the cached data, identical on every platform).
    pub fn cache_bytes_held(&self) -> u64 {
        self.store.bytes_held()
    }

    /// Cache entries evicted so far to stay under the byte budget.
    pub fn cache_evictions(&self) -> u64 {
        self.store.evictions()
    }

    /// Rows appended through [`Engine::ingest`] over the engine's lifetime.
    pub fn ingested_rows(&self) -> u64 {
        self.ingested_rows.load(Ordering::Relaxed)
    }

    /// Batches accepted by [`Engine::ingest`].
    pub fn ingest_batches(&self) -> u64 {
        self.ingest_batches.load(Ordering::Relaxed)
    }

    /// Retention rotations run by [`Engine::rotate`].
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }

    /// Rows dropped by retention rotations.
    pub fn rows_retired(&self) -> u64 {
        self.rows_retired.load(Ordering::Relaxed)
    }

    /// Durable samples currently under incremental maintenance.
    pub fn maintained_samples(&self) -> usize {
        self.store.maintained()
    }

    /// Prepare (or fetch from cache) a CVOPT sample of `table` for
    /// `problem`. Validation happens up front, so invalid specs fail fast
    /// before any scan; a cache hit costs no table scan at all and takes
    /// only a read lock on the cache. A hit requires structural equality
    /// of the problem, not just a matching fingerprint, so hash collisions
    /// can never serve a wrong sample.
    ///
    /// Concurrent misses for the same `(table, problem)` **coalesce**:
    /// exactly one caller runs the statistics pass and the draw, the rest
    /// block on the in-flight run and share its outcome (reported as cache
    /// hits — they cost no scan of their own).
    ///
    /// Explicitly prepared samples are **durable reuse candidates**: later
    /// queries whose derived problem is subsumed by this one (see
    /// [`SamplingProblem::subsumes`]) are answered by re-aggregating it.
    /// Samples a query draws for itself are *not* candidates — the cache's
    /// contents under concurrent queries depend on timing, and restricting
    /// the reusable set to explicitly managed samples is what keeps reuse
    /// decisions pure functions of (catalog, reusable set, problem).
    pub fn prepare(&self, table: &str, problem: SamplingProblem) -> Result<SampleHandle> {
        let from = self.resolve(table)?;
        let fingerprint = from.table.layout_fingerprint(problem.fingerprint());
        self.prepare_keyed(from, problem, fingerprint, true)
    }

    /// The keyed back half of [`Engine::prepare`]. `fingerprint` must
    /// already be layout-folded — callers that derived it during planning
    /// pass it through instead of recomputing. `durable` marks the entry
    /// (published or exact-hit) as a reuse candidate; explicit prepares and
    /// the re-optimizer pass `true`, the query path `false`.
    fn prepare_keyed(
        &self,
        from: &CatalogEntry,
        problem: SamplingProblem,
        fingerprint: u64,
        durable: bool,
    ) -> Result<SampleHandle> {
        // Validation happens before any probe or scan, so invalid specs
        // fail fast and can never occupy a pending slot.
        problem.validate()?;
        let prepared = self.store.get_or_prepare(&from.key, fingerprint, problem, durable, |p| {
            self.draw(from, p, durable)
        });
        // A caller that coalesced onto another's run, or found the sample
        // held, cost no scan of its own: a hit. Failures count as misses.
        let drew_here = prepared.as_ref().map_or(true, |(_, fresh)| *fresh);
        let counter = if drew_here { &self.cache_misses } else { &self.cache_hits };
        counter.fetch_add(1, Ordering::Relaxed);
        let (outcome, _) = prepared?;
        Ok(self.handle(from, fingerprint, !drew_here, outcome))
    }

    /// Run the two-pass sampler for a problem the store does not hold. A
    /// *durable* preparation over a windowed table keeps the sampler's
    /// strata pass as its [`Maintenance`] state, so later
    /// [`Engine::ingest`] calls can fold batches in without a rescan; any
    /// other drops it.
    fn draw(
        &self,
        from: &CatalogEntry,
        problem: &SamplingProblem,
        durable: bool,
    ) -> Result<(CvOptOutcome, Option<Maintenance>)> {
        let sampler =
            CvOptSampler::new(problem.clone()).with_seed(self.seed).with_exec(self.exec.clone());
        let keep = durable && from.window.is_some();
        let (outcome, pass) = sampler.sample_keeping(&from.table.set.rows(), keep)?;
        self.stats_passes.fetch_add(1, Ordering::Relaxed);
        Ok((outcome, pass.map(|pass| Maintenance::new(problem, pass))))
    }

    fn handle(
        &self,
        from: &CatalogEntry,
        fingerprint: u64,
        cache_hit: bool,
        outcome: Arc<CvOptOutcome>,
    ) -> SampleHandle {
        SampleHandle {
            table: from.name.clone(),
            fingerprint,
            cache_hit,
            exec: self.exec.clone(),
            outcome,
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// Tables and comparisons the engine's test modules share.
#[cfg(test)]
mod fixtures {
    use cvopt_table::{DataType, QueryResult, Table, TableBuilder, Value};

    pub(super) fn table(rows: usize) -> Table {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("h", DataType::Str),
            ("x", DataType::Float64),
        ]);
        for i in 0..rows {
            let g = match i % 20 {
                0 => "rare",
                1..=5 => "mid",
                _ => "common",
            };
            let h = if i % 3 == 0 { "p" } else { "q" };
            let x = 10.0 + (i % 13) as f64 * if g == "rare" { 10.0 } else { 1.0 };
            b.push_row(&[Value::str(g), Value::str(h), Value::Float64(x)]).unwrap();
        }
        b.finish()
    }

    /// `(g, x, ts)` rows with `ts = offset + row`, for windowed tables.
    pub(super) fn ts_table(offset: usize, rows: usize) -> Table {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("x", DataType::Float64),
            ("ts", DataType::Int64),
        ]);
        for i in offset..offset + rows {
            let g = ["a", "b", "c", "d"][i % 4];
            let x = ((i as f64) * 0.37).sin() * 40.0 + (i % 11) as f64;
            b.push_row(&[Value::str(g), Value::Float64(x), Value::Int64(i as i64)]).unwrap();
        }
        b.finish()
    }

    /// Bit-compare two result sets (keys and every f64 payload).
    pub(super) fn assert_same_bits(a: &[QueryResult], b: &[QueryResult]) {
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(b) {
            assert_eq!(ra.keys, rb.keys);
            for (va, vb) in ra.values.iter().zip(&rb.values) {
                for (x, y) in va.iter().zip(vb) {
                    assert_eq!(x.to_bits(), y.to_bits(), "answers must be bit-identical");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{assert_same_bits, table};
    use super::*;
    use crate::estimate::estimate_with;
    use crate::framework::budget_for_rate;
    use crate::spec::QuerySpec;
    use cvopt_table::{sql, KeyAtom, ShardedTable};

    /// An answer from a sample opens the estimate's stages and then the
    /// confidence pass's, and answers the same bits with and without a log.
    #[test]
    fn an_answer_from_a_sample_opens_its_stages() {
        let stmt = "SELECT g, AVG(x) FROM t WHERE x > 0 GROUP BY g";
        let spans = std::sync::Arc::new(cvopt_table::Spans::new());
        let engine = |exec: ExecOptions| {
            let mut e = Engine::new().with_seed(3).with_exec(exec);
            e.register("t", table(2000));
            e
        };
        let (traced, plain) = (
            engine(ExecOptions::sequential().with_spans(spans.clone())),
            engine(ExecOptions::sequential()),
        );
        traced.query(stmt, QueryMode::Approximate).unwrap();
        spans.clear();
        let got = traced.query(stmt, QueryMode::Approximate).unwrap();
        let names: Vec<&str> = spans.stages().iter().map(|stage| stage.name).collect();
        assert_eq!(names, ["encode", "bitmap", "fold", "merge", "readout", "confidence"]);
        let want = plain.query(stmt, QueryMode::Approximate).unwrap();
        assert_same_bits(&got.results, &want.results);
        assert_eq!(format!("{:?}", got.confidence), format!("{:?}", want.confidence));
        assert!(!got.confidence.is_empty());
    }

    #[test]
    fn prepare_caches_by_fingerprint() {
        let mut e = Engine::new().with_seed(3);
        e.register("t", table(2000));
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 200);
        let first = e.prepare("t", problem.clone()).unwrap();
        assert!(!first.is_cache_hit());
        assert_eq!(e.stats_passes(), 1);
        let second = e.prepare("T", problem.clone()).unwrap();
        assert!(second.is_cache_hit());
        assert_eq!(e.stats_passes(), 1);
        assert_eq!(first.fingerprint(), second.fingerprint());
        assert_eq!(first.sample().origin, second.sample().origin);
        // A different problem is a different cache entry.
        let other = e
            .prepare("t", SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 300))
            .unwrap();
        assert!(!other.is_cache_hit());
        assert_eq!(e.cached_samples(), 2);
    }

    #[test]
    fn prepare_fails_fast_on_invalid_spec() {
        let mut e = Engine::new();
        e.register("t", table(100));
        let bad = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 50)
            .with_norm(crate::Norm::Lp(f64::NAN));
        assert!(e.prepare("t", bad).is_err());
        assert_eq!(e.stats_passes(), 0, "invalid specs must not scan");
    }

    #[test]
    fn approximate_is_bit_identical_to_fresh_sampler() {
        let seed = 42;
        let mut e = Engine::new().with_seed(seed);
        let t = table(5000);
        e.register("t", t.clone());
        let sql_text = "SELECT g, AVG(x), SUM(x) FROM t GROUP BY g";
        let ans = e.query(sql_text, QueryMode::Approximate).unwrap();

        let query = sql::compile(sql_text).unwrap();
        let budget = budget_for_rate(&t, 0.01).unwrap();
        let problem = problem_for_query(&query, budget).unwrap();
        let outcome = CvOptSampler::new(problem).with_seed(seed).sample(&t).unwrap();
        let fresh = estimate_with(&outcome.sample, &query, e.exec()).unwrap();
        assert_same_bits(&ans.results, &fresh);
    }

    #[test]
    fn sharded_registration_answers_bit_identically() {
        let t = table(5000);
        let mut single = Engine::new().with_seed(11);
        single.register("t", t.clone());
        let mut sharded = Engine::new().with_seed(11);
        sharded.register("t", ShardedTable::split(&t, 3).unwrap());
        let sql_text = "SELECT g, AVG(x), SUM(x) FROM t WHERE h = 'p' GROUP BY g";
        for mode in [QueryMode::Exact, QueryMode::Approximate] {
            let a = single.query(sql_text, mode).unwrap();
            let b = sharded.query(sql_text, mode).unwrap();
            assert_same_bits(&a.results, &b.results);
        }
    }

    #[test]
    fn concurrent_identical_prepares_coalesce_into_one_pass() {
        let mut e = Engine::new().with_seed(8);
        e.register("t", table(6000));
        let e = std::sync::Arc::new(e);
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 300);
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let e = std::sync::Arc::clone(&e);
                let problem = problem.clone();
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    e.prepare("t", problem).unwrap()
                })
            })
            .collect();
        let results: Vec<SampleHandle> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(e.stats_passes(), 1, "concurrent misses must coalesce into one pass");
        assert_eq!(e.cache_misses(), 1);
        assert_eq!(e.cache_hits(), 7);
        assert_eq!(results.iter().filter(|h| !h.is_cache_hit()).count(), 1);
        let origin = &results[0].sample().origin;
        for h in &results {
            assert_eq!(&h.sample().origin, origin, "all callers share one outcome");
        }
        // The coalesced outcome is the cached outcome.
        let again = e.prepare("t", problem.clone()).unwrap();
        assert!(again.is_cache_hit());
        assert_eq!(&again.sample().origin, origin);
    }

    #[test]
    fn concurrent_distinct_queries_share_the_engine() {
        let mut e = Engine::new().with_seed(5);
        e.register("t", table(6000));
        let e = std::sync::Arc::new(e);
        let statements = [
            "SELECT g, AVG(x) FROM t GROUP BY g",
            "SELECT h, AVG(x) FROM t GROUP BY h",
            "SELECT g, h, SUM(x) FROM t GROUP BY g, h",
            "SELECT g, AVG(x) FROM t WHERE h = 'p' GROUP BY g",
        ];
        let handles: Vec<_> = statements
            .iter()
            .map(|&sql| {
                let e = std::sync::Arc::clone(&e);
                std::thread::spawn(move || e.query(sql, QueryMode::Approximate).unwrap())
            })
            .collect();
        let concurrent: Vec<QueryAnswer> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Each answer is bit-identical to a sequential engine's answer —
        // preparation order cannot matter because samples are pure
        // functions of (table, problem, seed).
        let mut seq = Engine::new().with_seed(5);
        seq.register("t", table(6000));
        for (sql, got) in statements.iter().zip(&concurrent) {
            let want = seq.query(sql, QueryMode::Approximate).unwrap();
            assert_same_bits(&got.results, &want.results);
        }
        // Statements 1 and 4 share a derived problem (same grouping and
        // value column), so the engine ran 3 passes, not 4.
        assert_eq!(e.stats_passes(), 3);
    }

    #[test]
    fn failed_preparation_retries_and_counts_as_miss() {
        let mut e = Engine::new();
        e.register("t", table(500));
        // A problem over a column that does not exist fails during the
        // scan, not validation — the pending slot must be retired so a
        // later prepare retries instead of reusing a poisoned run.
        let bad = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("nope"), 50);
        assert!(e.prepare("t", bad.clone()).is_err());
        assert!(e.prepare("t", bad).is_err());
        assert_eq!(e.cache_misses(), 2);
        assert_eq!(e.cache_hits(), 0);
        let good = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 50);
        assert!(e.prepare("t", good).is_ok());
    }

    #[test]
    fn handle_estimates_new_grouping() {
        let mut e = Engine::new().with_seed(5);
        e.register("t", table(4000));
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g", "h"]).aggregate("x"), 400);
        let handle = e.prepare("t", problem).unwrap();
        // Coarser grouping than the sample was planned for.
        let query = sql::compile("SELECT h, AVG(x) FROM t GROUP BY h").unwrap();
        let est = handle.estimate(&query).unwrap();
        assert_eq!(est[0].num_groups(), 2);
        assert!(est[0].value(&[KeyAtom::from("p")], 0).is_some());
    }
}
