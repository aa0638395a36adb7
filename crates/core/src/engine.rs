//! The long-lived serving API: a table catalog, a prepared-sample cache,
//! and one SQL entry point that answers queries exactly or approximately.
//!
//! The paper's central economy (§6.3) is that one stratified sample —
//! because sampled rows carry *all* attributes — keeps answering later
//! queries with new predicates and new groupings. [`Engine`] turns that
//! into an API: samples are prepared once per `(table, problem)` and served
//! from a cache keyed by the problem's canonical fingerprint
//! ([`SamplingProblem::fingerprint`]), so repeat queries never re-scan the
//! base table.
//!
//! * [`Engine::register`] — add a table to the catalog: a [`Table`], a
//!   [`ShardedTable`] layout, or a [`ShardSet`] of readers (local, remote,
//!   or mixed). Each becomes the same thing — a [`CatalogTable`] holding a
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

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use cvopt_table::exec::{partition_rows, ExecOptions};
use cvopt_table::groupby::{choose_strategy, estimate_keys};
use cvopt_table::{
    hash_join, sql, AggKind, GroupByQuery, GroupStrategy, QueryResult, ScalarExpr, ShardSet,
    ShardedTable, Table,
};

use crate::confidence::{estimate_avg_with_error, AvgEstimate};
use crate::error::CvError;
use crate::estimate::estimate_with;
use crate::framework::{budget_for_rows, note_draw_avoided, CvOptOutcome, CvOptPlan, CvOptSampler};
use crate::maintain::MaintainedSample;
use crate::sample::MaterializedSample;
use crate::spec::{AggColumn, Fingerprinter, QuerySpec, SamplingProblem};
use crate::Result;

/// A catalog entry. Every table is a [`ShardSet`] — a plain [`Table`] is a
/// set of one in-process shard — and every pass runs over it the same way,
/// with byte-identical answers for any layout and any mix of local and
/// remote readers. The entry adds the single reporting fact execution
/// cannot derive: whether the caller *declared* a shard layout. A plain
/// table reports no shards and folds no layout into fingerprints; a
/// [`ShardedTable`] or a directly registered [`ShardSet`] reports its shard
/// count — a 1-shard layout included.
#[derive(Debug, Clone)]
pub struct CatalogTable {
    set: ShardSet,
    declared_layout: bool,
}

/// A plain table: one in-process shard, no declared layout (the table moves
/// into its reader).
impl From<Table> for CatalogTable {
    fn from(table: Table) -> Self {
        CatalogTable { set: table.into(), declared_layout: false }
    }
}

/// A declared layout of in-process shards (each moves into its reader).
impl From<ShardedTable> for CatalogTable {
    fn from(table: ShardedTable) -> Self {
        CatalogTable { set: table.into(), declared_layout: true }
    }
}

/// A declared layout of arbitrary readers — local, remote, or mixed.
impl From<ShardSet> for CatalogTable {
    fn from(set: ShardSet) -> Self {
        CatalogTable { set, declared_layout: true }
    }
}

impl CatalogTable {
    /// The shard set every pass over this table runs on.
    pub fn set(&self) -> &ShardSet {
        &self.set
    }

    /// Total logical rows.
    pub fn num_rows(&self) -> usize {
        self.set.num_rows()
    }

    /// Shard count of a declared layout, `None` for a plain table.
    pub fn num_shards(&self) -> Option<usize> {
        self.declared_layout.then(|| self.set.num_shards())
    }

    /// How many shards answer from outside this process (`None` when every
    /// shard's rows live here) — the `/explain` topology marker.
    pub fn remote_shards(&self) -> Option<usize> {
        self.set.remote_shards()
    }

    /// Per-shard partition counts of a declared layout (shard-local passes
    /// partition each shard by its own row count); `None` for a plain table.
    fn shard_partitions(&self) -> Option<Vec<usize>> {
        self.declared_layout
            .then(|| self.set.shard_rows().iter().map(|&rows| partition_rows(rows).len()).collect())
    }

    /// The same entry over a mutated set (ingest, rotation): what the
    /// caller declared at registration is kept.
    fn with_set(&self, set: ShardSet) -> CatalogTable {
        CatalogTable { set, declared_layout: self.declared_layout }
    }

    /// Fold the declared shard layout into `base` so cache keys distinguish
    /// a table from a re-sharded version of itself: byte-identical results
    /// make that distinction unnecessary for correctness of *answers*, but
    /// plan reports (shard counts, per-shard partitions) hang off the cache
    /// key and must never describe a stale layout. A plain table folds to
    /// `base` itself.
    ///
    /// Where the shards live never enters the fold: it never changes the
    /// answer bytes, so it must not change the cache key either — a sample
    /// prepared over in-process shards is exactly the sample a remote
    /// layout of the same shape would prepare.
    ///
    /// Public so reuse tests can pin the converse: two catalog entries
    /// with different shard layouts fold the same problem to different
    /// keys, so the reuse planner can never match across layouts.
    pub fn layout_fingerprint(&self, base: u64) -> u64 {
        if !self.declared_layout {
            return base;
        }
        let shard_rows = self.set.shard_rows();
        let mut fp = Fingerprinter::new();
        fp.write_tag(b'S');
        fp.write_u64(base);
        fp.write_u64(shard_rows.len() as u64);
        for rows in shard_rows {
            fp.write_u64(rows as u64);
        }
        fp.finish()
    }
}

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

/// A prepared sample checked out of the engine cache.
///
/// The handle shares the cached [`CvOptOutcome`]; answering queries through
/// it never re-scans the base table.
#[derive(Debug, Clone)]
pub struct SampleHandle {
    table: String,
    fingerprint: u64,
    cache_hit: bool,
    exec: ExecOptions,
    outcome: Arc<CvOptOutcome>,
}

impl SampleHandle {
    /// Catalog name of the table the sample was drawn from.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The cache key: the problem's canonical fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether this handle was served from the cache (no statistics pass).
    pub fn is_cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// The materialized weighted sample.
    pub fn sample(&self) -> &MaterializedSample {
        &self.outcome.sample
    }

    /// The plan (statistics + allocation) that produced the sample.
    pub fn plan(&self) -> &CvOptPlan {
        &self.outcome.plan
    }

    /// Answer `query` from the prepared sample by Horvitz–Thompson
    /// estimation, under the engine's execution options. The query may
    /// carry predicates and groupings the sample was never planned for
    /// (paper §6.3).
    pub fn estimate(&self, query: &GroupByQuery) -> Result<Vec<QueryResult>> {
        estimate_with(&self.outcome.sample, query, &self.exec)
    }
}

/// Confidence intervals for one `AVG` aggregate of an approximate answer.
///
/// The intervals come from the stratified domain estimator of
/// [`crate::confidence`], which runs its own pass over the sample: its
/// point estimates agree with the corresponding [`QueryResult`] values
/// analytically but may differ in the last float bits (different
/// accumulation order). Treat `estimates[i].estimate` as the interval
/// center and the `QueryResult` as the canonical point answer.
#[derive(Debug, Clone)]
pub struct AggConfidence {
    /// Index into the query's aggregate list (and into
    /// [`QueryResult::agg_names`]).
    pub agg_index: usize,
    /// Per-group estimates with standard errors, sorted by group key.
    pub estimates: Vec<AvgEstimate>,
}

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
    /// How the group index will intern keys: `"hash"` or `"sort"` (see
    /// [`GroupStrategy`]). The strategies produce byte-identical results;
    /// this reports the planner's performance choice.
    pub group_by_strategy: &'static str,
    /// Why that strategy was chosen (metadata key estimate vs row count,
    /// `CVOPT_GROUP_STRATEGY` override, shards behind remote readers, …).
    pub group_by_reason: String,
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
    /// Per-shard partition counts (shard-local passes such as the index
    /// build and the draw's scatter partition each shard by its own row
    /// count). Same availability as `shards`.
    pub shard_partitions: Option<Vec<usize>>,
    /// How many of the `FROM` table's shards answer from outside this
    /// process (`remote_shards` of its [`CatalogTable`]); `None` when every
    /// shard is in-process. The **only** report field that distinguishes a
    /// remote layout from the identical local one.
    pub remote_shards: Option<usize>,
}

impl ExplainReport {
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
        line.push_str(&format!(", group-by {}", self.group_by_strategy));
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

/// One prepared sample plus the problem it was prepared for. The problem
/// is kept so a fingerprint collision is detected by structural equality
/// and costs only a redundant preparation, never a wrong answer.
///
/// The economy fields feed eviction: `bytes` is what the entry costs to
/// hold, `passes_saved` is what it has earned (each cache hit is one
/// statistics pass + draw the engine did not re-run), and `last_used`
/// breaks ties LRU-wise. The atomics are bumped under the cache **read**
/// lock, so hits never serialize.
#[derive(Debug)]
struct CachedSample {
    problem: SamplingProblem,
    outcome: Arc<CvOptOutcome>,
    /// Approximate bytes held by the outcome (pure function of the data).
    bytes: u64,
    /// Statistics passes this entry has saved (cache hits served).
    passes_saved: AtomicU64,
    /// Logical clock stamp of the most recent use.
    last_used: AtomicU64,
    /// Whether the reuse planner may answer *other* problems from this
    /// entry. Only entries published (or later exact-hit) by an explicit
    /// [`Engine::prepare`] or [`Engine::reoptimize`] are reusable: those
    /// operations are application-serialized, so the reusable set — unlike
    /// the full cache under concurrent queries — changes at well-defined
    /// points, keeping every reuse decision a pure function of
    /// (catalog, reusable set, problem) and never of query timing.
    reusable: AtomicBool,
}

/// The eviction rank of a cache entry: entries are evicted in ascending
/// order of `(bytes × passes-saved, last-used stamp)`.
///
/// The product is the sampling-algebra view of a cached sample's worth —
/// the re-draw work it has saved, weighted by what it costs to hold — so
/// an entry that never earned a hit (`passes_saved == 0`) ranks at zero
/// and goes first, and among equals the least-recently-used entry goes
/// first. The rank is a **pure function** of the three inputs (pinned by a
/// property test), which is what makes eviction order — and therefore the
/// `cache_evictions` counter — deterministic for a serialized workload.
pub fn eviction_rank(bytes: u64, passes_saved: u64, last_used: u64) -> (u128, u64) {
    ((bytes as u128) * (passes_saved as u128), last_used)
}

/// Approximate bytes a cached [`CvOptOutcome`] holds: the materialized
/// sample (columns, weights, origins, stratum ids) plus flat per-stratum
/// charges for the plan. Pure function of the data — fixed per-element
/// widths, never `size_of` — so the `cache_bytes_held` counter is
/// identical on every platform and safe to snapshot into bench diffs.
fn outcome_bytes(outcome: &CvOptOutcome) -> u64 {
    /// Flat charge per stratum for plan metadata (key, statistics,
    /// allocation slot).
    const STRATUM_OVERHEAD: u64 = 64;
    let sample = &outcome.sample;
    let rows = sample.len() as u64;
    sample.table.approx_bytes()
        + 8 * rows // weights
        + 4 * rows // origin row ids
        + 4 * sample.row_stratum.len() as u64
        + outcome.plan.num_strata() as u64 * STRATUM_OVERHEAD
        + 8 * outcome.plan.betas.len() as u64
}

/// One in-flight sample preparation that concurrent cache misses for the
/// same `(table, fingerprint, problem)` coalesce onto: exactly one caller
/// runs the statistics pass and the draw (inside the cell's
/// `get_or_init`), every other caller blocks on the cell and shares the
/// outcome. The `bool` is `true` when the value came from a fresh scan
/// (as opposed to a cache entry that appeared while we were queueing).
#[derive(Debug)]
struct PendingRun {
    problem: SamplingProblem,
    cell: OnceLock<Result<(Arc<CvOptOutcome>, bool)>>,
}

/// The cache key: lowercased catalog name + layout-folded problem
/// fingerprint.
type CacheKey = (String, u64);

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
    tables: HashMap<String, (String, CatalogTable)>,
    /// Declared retention window columns, keyed like `tables`. A table
    /// with a window column supports [`Engine::rotate`] and marks its
    /// durable samples for incremental maintenance under ingest.
    windows: HashMap<String, String>,
    /// Incrementally maintained durable samples, keyed like `tables`.
    /// `RwLock` because creation happens on the `&self` prepare path.
    maintained: RwLock<HashMap<String, Vec<MaintainedSample>>>,
    cache: RwLock<HashMap<CacheKey, Vec<CachedSample>>>,
    pending: Mutex<HashMap<CacheKey, Vec<Arc<PendingRun>>>>,
    exec: ExecOptions,
    seed: u64,
    default_rate: f64,
    auto_threshold: usize,
    /// Byte budget for the prepared-sample cache; `None` is unbounded.
    cache_budget: Option<u64>,
    /// Approximate bytes currently held by cached samples.
    cache_bytes: AtomicU64,
    /// Entries evicted to stay under the budget.
    cache_evictions: AtomicU64,
    /// Logical clock for LRU stamps (bumped on every hit and insert).
    cache_clock: AtomicU64,
    stats_passes: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Approximate answers derived from a subsuming cached sample.
    reuse_hits: AtomicU64,
    /// Sample preparations (statistics pass + draw) the reuse planner
    /// avoided. Currently bumps in lockstep with `reuse_hits`; kept
    /// separate so batched reuse can diverge without a counter rename.
    draws_avoided: AtomicU64,
    /// Per-table bounded ring of observed approximate-query shapes,
    /// feeding [`Engine::reoptimize`]. Keyed by lowercased catalog name.
    query_log: Mutex<HashMap<String, VecDeque<QueryLogEntry>>>,
    /// Rows appended through [`Engine::ingest`].
    ingested_rows: AtomicU64,
    /// Batches accepted by [`Engine::ingest`].
    ingest_batches: AtomicU64,
    /// Retention rotations run by [`Engine::rotate`].
    rotations: AtomicU64,
    /// Rows dropped by retention rotations.
    rows_retired: AtomicU64,
}

/// At most this many maintained samples are kept per table; past the cap
/// the oldest is demoted to a plain cached sample (still correct, no
/// longer incrementally maintained).
const MAINTAINED_CAP: usize = 8;

/// Entries kept per table in the query log ring.
const QUERY_LOG_CAP: usize = 256;

/// One observed approximate query: the canonical shape of the problem the
/// engine derived for it. [`Engine::reoptimize`] consolidates these into a
/// single workload-tuned sample.
#[derive(Debug, Clone)]
pub struct QueryLogEntry {
    /// Layout-folded fingerprint of the derived problem (the cache key).
    pub fingerprint: u64,
    /// Row budget of the derived problem.
    pub budget: usize,
    /// Display names of the problem's finest stratification columns.
    pub group_by: Vec<String>,
    /// Display names of the aggregated value columns.
    pub aggregates: Vec<String>,
    /// SQL shape of the statement's predicate, if any (estimation-time
    /// filter; engine samples are drawn unfiltered).
    pub predicate: Option<String>,
    /// The query specs of the derived problem, kept verbatim so the
    /// re-optimizer can consolidate without re-deriving from SQL.
    pub specs: Vec<QuerySpec>,
    /// Whether the answer came from the sampling algebra (a derived reuse
    /// of a subsuming cached sample) rather than this problem's own sample.
    pub reused: bool,
}

/// What one [`Engine::ingest`] call did.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Catalog name of the table appended to.
    pub table: String,
    /// Rows in the accepted batch.
    pub rows: usize,
    /// Rows in the table after the append.
    pub total_rows: usize,
    /// Maintained samples brought up to date (and republished) in-place.
    pub maintained: usize,
}

/// What one [`Engine::rotate`] retention pass did.
#[derive(Debug, Clone)]
pub struct RotateReport {
    /// Catalog name of the rotated table.
    pub table: String,
    /// Rows dropped (window value below the cutoff).
    pub retired: usize,
    /// Rows surviving the rotation.
    pub remaining: usize,
    /// Maintained samples rebuilt over the surviving rows.
    pub maintained: usize,
}

/// Per-row keep decisions for a retention cutoff: `true` where the window
/// column (an `INT64`/`TIMESTAMP` column validated at registration) is at
/// or past `cutoff`.
fn keep_mask(table: &Table, window: &str, cutoff: i64) -> Result<Vec<bool>> {
    let idx = table.schema().index_of(window)?;
    match table.column(idx) {
        cvopt_table::Column::Int64(v) | cvopt_table::Column::Timestamp(v) => {
            Ok(v.iter().map(|&t| t >= cutoff).collect())
        }
        other => Err(CvError::invalid(format!(
            "window column '{window}' must be INT64 or TIMESTAMP, found {:?}",
            other.data_type()
        ))),
    }
}

/// What [`Engine::reoptimize`] did for one table.
#[derive(Debug, Clone)]
pub struct ReoptimizeReport {
    /// Catalog name of the re-optimized table.
    pub table: String,
    /// Query-log entries consolidated (the ring's current length).
    pub logged: usize,
    /// Distinct problem fingerprints among them.
    pub distinct_shapes: usize,
    /// Budget of the consolidated sample (max over logged budgets).
    pub budget: usize,
    /// Layout-folded fingerprint of the consolidated problem.
    pub fingerprint: u64,
    /// Whether the consolidated sample was already cached (re-optimizing
    /// an unchanged workload is idempotent and costs nothing).
    pub cache_hit: bool,
    /// Strata in the consolidated sample.
    pub strata: usize,
    /// Rows drawn into it.
    pub sample_rows: usize,
}

/// The shared front half of [`Engine::query`] and [`Engine::explain_mode`]:
/// the compiled query, the pre-execution plan report, and (for approximate
/// plans) the derived sampling problem with its layout-folded cache
/// fingerprint — computed once here and threaded through, never
/// recomputed. Keeping one derivation path guarantees EXPLAIN reports
/// exactly what `query` will do.
struct PlannedStatement {
    query: GroupByQuery,
    report: ExplainReport,
    problem: Option<SamplingProblem>,
    fingerprint: Option<u64>,
    /// For `JOIN` statements: the clause to materialize at execution time
    /// (join plans are always exact and never touch the sample cache).
    join: Option<sql::JoinClause>,
    /// When the reuse planner matched a subsuming cached sample at plan
    /// time, the captured source — `query` answers from exactly this
    /// outcome, so the decision probed and the sample answered can never
    /// diverge (eviction or publication in between notwithstanding).
    reuse: Option<ReusePlan>,
}

/// A reuse decision captured at plan time: the subsuming cached sample
/// and the provenance the report describes it with.
struct ReusePlan {
    source_fingerprint: u64,
    outcome: Arc<CvOptOutcome>,
}

impl Engine {
    /// An empty engine: default execution options (one worker per core),
    /// seed 0, 1% default sampling rate, and a 50 000-row auto threshold.
    pub fn new() -> Self {
        Engine {
            tables: HashMap::new(),
            windows: HashMap::new(),
            maintained: RwLock::new(HashMap::new()),
            cache: RwLock::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            exec: ExecOptions::default(),
            seed: 0,
            default_rate: 0.01,
            auto_threshold: 50_000,
            cache_budget: None,
            cache_bytes: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            cache_clock: AtomicU64::new(0),
            stats_passes: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            reuse_hits: AtomicU64::new(0),
            draws_avoided: AtomicU64::new(0),
            query_log: Mutex::new(HashMap::new()),
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
    /// to the evicted one.
    pub fn with_cache_bytes(mut self, budget: Option<u64>) -> Self {
        self.cache_budget = budget;
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
        self.cache.read().unwrap_or_else(|e| e.into_inner()).values().map(Vec::len).sum()
    }

    /// The configured cache byte budget (`None` = unbounded).
    pub fn cache_budget(&self) -> Option<u64> {
        self.cache_budget
    }

    /// Approximate bytes currently held by cached samples (see
    /// [`Table::approx_bytes`](cvopt_table::Table::approx_bytes) — a pure
    /// function of the cached data, identical on every platform).
    pub fn cache_bytes_held(&self) -> u64 {
        self.cache_bytes.load(Ordering::Relaxed)
    }

    /// Cache entries evicted so far to stay under the byte budget.
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions.load(Ordering::Relaxed)
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
        self.maintained.read().unwrap_or_else(|e| e.into_inner()).values().map(Vec::len).sum()
    }

    /// The declared retention window column of `name`, if any.
    pub fn window_column(&self, name: &str) -> Option<&str> {
        self.windows.get(&name.to_ascii_lowercase()).map(String::as_str)
    }

    /// Register (or replace) a catalog table. SQL `FROM` names resolve to
    /// it case-insensitively.
    ///
    /// A [`Table`], a [`ShardedTable`], or a [`ShardSet`] converts
    /// implicitly (tables move into their readers — nothing is copied).
    /// All of them answer every query byte-identically — the choice is
    /// purely a deployment concern — and cache keys fold in a declared
    /// shard layout, so re-registering under a new layout can never serve a
    /// plan report describing the old one.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        table: impl Into<CatalogTable>,
    ) -> &mut Self {
        let name = name.into();
        let key = name.to_ascii_lowercase();
        // Samples drawn from a replaced table are stale, and so are logged
        // workload shapes (their budgets tracked the old row count).
        // `&mut self` guarantees no query (and so no pending run) is in
        // flight.
        self.forget_table_samples(&key);
        self.query_log.get_mut().unwrap_or_else(|e| e.into_inner()).remove(&key);
        self.windows.remove(&key);
        self.maintained.get_mut().unwrap_or_else(|e| e.into_inner()).remove(&key);
        self.tables.insert(key, (name, table.into()));
        self
    }

    /// Register (or replace) a catalog table that **ingests**: `window`
    /// names a time-ordered `INT64`/`TIMESTAMP` column the table is
    /// retained by. A windowed table additionally supports
    /// [`Engine::rotate`] (drop rows older than a cutoff), and its durable
    /// prepared samples are **incrementally maintained** under
    /// [`Engine::ingest`] instead of being invalidated — each append folds
    /// into the maintained index and statistics, and the refreshed sample
    /// is byte-identical to re-preparing from scratch.
    ///
    /// A set with remote shards cannot be windowed here: those rows live at
    /// the shard servers, which own append and retention (the `cvopt-net`
    /// append/rotate passes).
    pub fn register_windowed(
        &mut self,
        name: impl Into<String>,
        table: impl Into<CatalogTable>,
        window: &str,
    ) -> Result<&mut Self> {
        let table = table.into();
        if table.remote_shards().is_some() {
            return Err(CvError::invalid(
                "remote shard sets cannot declare a window column; retention runs at the \
                 shard servers",
            ));
        }
        let dtype = table.set.schema().type_of(window)?;
        if !matches!(dtype, cvopt_table::DataType::Int64 | cvopt_table::DataType::Timestamp) {
            return Err(CvError::invalid(format!(
                "window column '{window}' must be INT64 or TIMESTAMP, found {dtype:?}"
            )));
        }
        let name = name.into();
        let key = name.to_ascii_lowercase();
        self.register(name, table);
        self.windows.insert(key, window.to_string());
        Ok(self)
    }

    /// Remove a table, every sample prepared from it, and its query log.
    pub fn drop_table(&mut self, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        self.forget_table_samples(&key);
        self.query_log.get_mut().unwrap_or_else(|e| e.into_inner()).remove(&key);
        self.windows.remove(&key);
        self.maintained.get_mut().unwrap_or_else(|e| e.into_inner()).remove(&key);
        self.tables.remove(&key).is_some()
    }

    /// Append a batch of rows to a registered **local** table (sharded
    /// layouts append into their live — last — shard; earlier shards are
    /// shared with the previous layout, not copied).
    ///
    /// Sample upkeep is the point of the pass: cached samples of the table
    /// are *never left stale*. Non-maintained entries are invalidated
    /// outright; the table's maintained samples (durable preparations on a
    /// windowed table) fold the batch into their index and statistics and
    /// are republished — each refreshed sample is byte-identical to
    /// re-preparing from scratch over the extended table, for any split of
    /// the same row stream into batches (see [`Engine::register_windowed`]).
    ///
    /// Remote tables reject the call: their rows live at the shard servers,
    /// which own the wire-level append pass.
    pub fn ingest(&mut self, name: &str, batch: &Table) -> Result<IngestReport> {
        let key = name.to_ascii_lowercase();
        let (display, extended) = {
            let (display, table) = self.resolve(name)?;
            if table.remote_shards().is_some() {
                return Err(CvError::invalid(format!(
                    "table '{display}' answers from remote shards; append through the shard \
                     servers and re-register"
                )));
            }
            (display.to_string(), table.with_set(table.set.extended(batch)?))
        };
        self.tables.insert(key.clone(), (display.clone(), extended));
        self.forget_table_samples(&key);
        let maintained = self.update_maintained(&key, Some(batch));
        self.ingested_rows.fetch_add(batch.num_rows() as u64, Ordering::Relaxed);
        self.ingest_batches.fetch_add(1, Ordering::Relaxed);
        let total_rows = self.tables.get(&key).map(|(_, t)| t.num_rows()).unwrap_or(0);
        self.enforce_budget();
        Ok(IngestReport { table: display, rows: batch.num_rows(), total_rows, maintained })
    }

    /// Drop rows whose window-column value is **below** `cutoff` from a
    /// windowed table — the retention rotation. Sharded layouts compact
    /// shard by shard, so a shard whose rows all age out falls off the
    /// layout entirely. Maintained samples rebuild over the surviving rows
    /// (their budgets rescale to the pinned sampling rate); all other
    /// cached samples are invalidated.
    pub fn rotate(&mut self, name: &str, cutoff: i64) -> Result<RotateReport> {
        let key = name.to_ascii_lowercase();
        let window = self.windows.get(&key).cloned().ok_or_else(|| {
            CvError::invalid(format!(
                "table '{name}' has no window column; register it with `register_windowed`"
            ))
        })?;
        let (display, rotated, before) = {
            let (display, table) = self.resolve(name)?;
            let Some(shards) = table.set.rows().local_tables() else {
                return Err(CvError::invalid(format!(
                    "table '{display}' answers from remote shards; rotate at the shard \
                     servers and re-register"
                )));
            };
            let mut keep = Vec::with_capacity(table.num_rows());
            for shard in shards {
                keep.extend(keep_mask(shard, &window, cutoff)?);
            }
            let rotated = table.with_set(table.set.retained(|i| keep[i])?);
            (display.to_string(), rotated, table.num_rows())
        };
        let remaining = rotated.num_rows();
        let retired = before - remaining;
        self.tables.insert(key.clone(), (display.clone(), rotated));
        self.forget_table_samples(&key);
        let maintained = self.update_maintained(&key, None);
        self.rotations.fetch_add(1, Ordering::Relaxed);
        self.rows_retired.fetch_add(retired as u64, Ordering::Relaxed);
        self.enforce_budget();
        Ok(RotateReport { table: display, retired, remaining, maintained })
    }

    /// Bring the table's maintained samples up to date after a catalog
    /// mutation — fold in `batch` (ingest) or rebuild from scratch (`None`,
    /// rotation) — and republish each as a durable cached sample under the
    /// post-mutation layout fingerprint. Entries that fail to update (e.g.
    /// a batch that breaks their invariants) are dropped, never served
    /// stale. Returns how many maintained samples survive.
    fn update_maintained(&mut self, key: &str, batch: Option<&Table>) -> usize {
        let Some((_, base)) = self.tables.get(key) else { return 0 };
        let rows = base.set.rows();
        let seed = self.seed;
        let exec = self.exec;
        let maintained_map = self.maintained.get_mut().unwrap_or_else(|e| e.into_inner());
        let Some(entries) = maintained_map.get_mut(key) else { return 0 };
        let mut rebuilds = 0u64;
        entries.retain_mut(|m| match batch {
            Some(b) => m.apply_append(&rows, b, seed, &exec).is_ok(),
            // A rebuild re-scans the retained rows — a full statistics
            // pass, and the engine's gauge must say so.
            None => {
                let ok = m.rebuild(&rows, seed, &exec).is_ok();
                rebuilds += ok as u64;
                ok
            }
        });
        self.stats_passes.fetch_add(rebuilds, Ordering::Relaxed);
        let republish: Vec<(u64, SamplingProblem, Arc<CvOptOutcome>)> = entries
            .iter()
            .map(|m| {
                let fp = base.layout_fingerprint(m.problem().fingerprint());
                (fp, m.problem().clone(), Arc::clone(m.outcome()))
            })
            .collect();
        let count = entries.len();
        let cache = self.cache.get_mut().unwrap_or_else(|e| e.into_inner());
        for (fp, problem, outcome) in republish {
            let bucket = cache.entry((key.to_string(), fp)).or_default();
            if bucket.iter().any(|e| e.problem == problem) {
                continue;
            }
            let bytes = outcome_bytes(&outcome);
            let stamp = self.cache_clock.fetch_add(1, Ordering::Relaxed) + 1;
            bucket.push(CachedSample {
                problem,
                outcome,
                bytes,
                passes_saved: AtomicU64::new(0),
                last_used: AtomicU64::new(stamp),
                reusable: AtomicBool::new(true),
            });
            self.cache_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        count
    }

    /// Drop every cached sample of table `key`, keeping the held-bytes
    /// gauge honest. Invalidation, not eviction: the eviction counter
    /// tracks only budget pressure.
    fn forget_table_samples(&mut self, key: &str) {
        let cache = self.cache.get_mut().unwrap_or_else(|e| e.into_inner());
        let mut freed = 0u64;
        cache.retain(|(t, _), bucket| {
            if t == key {
                freed += bucket.iter().map(|e| e.bytes).sum::<u64>();
                false
            } else {
                true
            }
        });
        self.cache_bytes.fetch_sub(freed, Ordering::Relaxed);
    }

    /// Evict until the cache fits the configured byte budget. Keys with an
    /// in-flight coalesced run are protected: evicting under a leader
    /// mid-publish would let the same problem occupy two generations of
    /// bytes and double-count evictions.
    ///
    /// Lock order is cache → pending, matching every other path (no path
    /// takes the cache lock while holding the pending lock), so this
    /// cannot deadlock.
    fn enforce_budget(&self) {
        let Some(budget) = self.cache_budget else { return };
        if self.cache_bytes.load(Ordering::Relaxed) <= budget {
            return;
        }
        let mut cache = self.cache.write().unwrap_or_else(|e| e.into_inner());
        let protected: HashSet<CacheKey> = {
            let pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            pending.keys().cloned().collect()
        };
        Self::enforce_budget_locked(
            &mut cache,
            &protected,
            budget,
            &self.cache_bytes,
            &self.cache_evictions,
        );
    }

    /// The eviction loop proper, factored over explicit state so tests can
    /// drive it with a hand-built cache and protected set. Repeatedly
    /// removes the unprotected entry with the smallest [`eviction_rank`]
    /// until the held bytes fit `budget` (or only protected entries
    /// remain), debiting `cache_bytes` and crediting `cache_evictions` per
    /// eviction.
    fn enforce_budget_locked(
        cache: &mut HashMap<CacheKey, Vec<CachedSample>>,
        protected: &HashSet<CacheKey>,
        budget: u64,
        cache_bytes: &AtomicU64,
        cache_evictions: &AtomicU64,
    ) {
        while cache_bytes.load(Ordering::Relaxed) > budget {
            let mut victim: Option<((u128, u64), CacheKey, usize)> = None;
            for (key, bucket) in cache.iter() {
                if protected.contains(key) {
                    continue;
                }
                for (idx, entry) in bucket.iter().enumerate() {
                    let rank = eviction_rank(
                        entry.bytes,
                        entry.passes_saved.load(Ordering::Relaxed),
                        entry.last_used.load(Ordering::Relaxed),
                    );
                    if victim.as_ref().is_none_or(|(best, _, _)| rank < *best) {
                        victim = Some((rank, key.clone(), idx));
                    }
                }
            }
            let Some((_, key, idx)) = victim else { break };
            let bucket = cache.get_mut(&key).expect("victim key present");
            let evicted = bucket.remove(idx);
            if bucket.is_empty() {
                cache.remove(&key);
            }
            cache_bytes.fetch_sub(evicted.bytes, Ordering::Relaxed);
            cache_evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Registered table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.values().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Look up a catalog entry (case-insensitive).
    pub fn catalog_table(&self, name: &str) -> Option<&CatalogTable> {
        self.tables.get(&name.to_ascii_lowercase()).map(|(_, t)| t)
    }

    /// The table behind a *plain* registration (case-insensitive). Entries
    /// that declared a shard layout return `None`; reach their shards
    /// through [`Engine::catalog_table`].
    pub fn table(&self, name: &str) -> Option<&Table> {
        let entry = self.catalog_table(name).filter(|t| !t.declared_layout)?;
        entry.set.reader(0).local_table()
    }

    fn resolve(&self, name: &str) -> Result<(&str, &CatalogTable)> {
        self.tables.get(&name.to_ascii_lowercase()).map(|(n, t)| (n.as_str(), t)).ok_or_else(|| {
            let known =
                self.table_names().iter().map(|s| s.to_string()).collect::<Vec<_>>().join(", ");
            CvError::invalid(format!("table '{name}' is not registered (catalog: [{known}])"))
        })
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
        let (catalog_name, base) = self.resolve(table)?;
        let fingerprint = base.layout_fingerprint(problem.fingerprint());
        self.prepare_keyed(catalog_name, base, problem, fingerprint, true)
    }

    /// The keyed back half of [`Engine::prepare`]: probe the cache under a
    /// read lock, otherwise coalesce onto (or become) the pending run for
    /// this key. `fingerprint` must already be layout-folded — callers that
    /// derived it during planning pass it through instead of recomputing.
    /// `durable` marks the entry (published or exact-hit) as a reuse
    /// candidate; explicit prepares and the re-optimizer pass `true`, the
    /// query path `false`.
    fn prepare_keyed(
        &self,
        catalog_name: &str,
        base: &CatalogTable,
        problem: SamplingProblem,
        fingerprint: u64,
        durable: bool,
    ) -> Result<SampleHandle> {
        // Validation happens before any probe or scan, so invalid specs
        // fail fast and can never occupy a pending slot.
        problem.validate()?;
        let key: CacheKey = (catalog_name.to_ascii_lowercase(), fingerprint);
        if let Some((outcome, _)) = self.cached_outcome(&key, &problem, durable) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(self.handle(catalog_name, fingerprint, true, outcome));
        }

        // Miss: join the pending run for this exact problem, creating it
        // if we are first. Structural equality guards the (astronomically
        // unlikely) fingerprint collision exactly as the cache does.
        let run = {
            let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            let bucket = pending.entry(key.clone()).or_default();
            match bucket.iter().find(|r| r.problem == problem) {
                Some(run) => Arc::clone(run),
                None => {
                    let run =
                        Arc::new(PendingRun { problem: problem.clone(), cell: OnceLock::new() });
                    bucket.push(Arc::clone(&run));
                    run
                }
            }
        };
        let mut ran_here = false;
        let result = run.cell.get_or_init(|| {
            ran_here = true;
            // The cache may have been filled between our probe and this
            // run becoming the key's pending entry; a fresh scan would be
            // wasted work, so re-probe before scanning.
            if let Some((outcome, _)) = self.cached_outcome(&key, &run.problem, durable) {
                return Ok((outcome, false));
            }
            self.sample_uncached_keyed(&key.0, base, &run.problem, durable)
                .map(|outcome| (outcome, true))
        });
        if ran_here {
            // Leader duties: publish the outcome, then retire the pending
            // entry (in that order, so a late arrival always finds one of
            // the two).
            let mut published = false;
            if let Ok((outcome, true)) = result {
                let bytes = outcome_bytes(outcome);
                let mut cache = self.cache.write().unwrap_or_else(|e| e.into_inner());
                let bucket = cache.entry(key.clone()).or_default();
                if !bucket.iter().any(|e| e.problem == problem) {
                    bucket.push(CachedSample {
                        problem: problem.clone(),
                        outcome: Arc::clone(outcome),
                        bytes,
                        passes_saved: AtomicU64::new(0),
                        last_used: AtomicU64::new(self.tick()),
                        reusable: AtomicBool::new(durable),
                    });
                    self.cache_bytes.fetch_add(bytes, Ordering::Relaxed);
                    published = true;
                }
            }
            {
                let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(bucket) = pending.get_mut(&key) {
                    bucket.retain(|r| !Arc::ptr_eq(r, &run));
                    if bucket.is_empty() {
                        pending.remove(&key);
                    }
                }
            }
            // Budget pass runs after the pending entry is retired, so a
            // zero/tiny budget can evict even the entry just published —
            // late coalescers read the outcome from the run cell, never
            // the cache, so this costs nothing but a future re-prepare.
            if published {
                self.enforce_budget();
            }
        }
        match result {
            Ok((outcome, fresh)) => {
                let fresh_here = ran_here && *fresh;
                if fresh_here {
                    self.cache_misses.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                }
                Ok(self.handle(catalog_name, fingerprint, !fresh_here, Arc::clone(outcome)))
            }
            Err(e) => {
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
                Err(e.clone())
            }
        }
    }

    /// Next LRU stamp. Stamps start at 1 and are unique (atomic counter),
    /// so no two entries ever tie on `last_used`.
    fn tick(&self) -> u64 {
        self.cache_clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Probe the cache (read lock only) for a structurally equal problem.
    /// A hit credits the entry one saved statistics pass and freshens its
    /// LRU stamp — both atomics, so hits never serialize on the write
    /// lock. `mark_reusable` upgrades the entry to a reuse candidate: an
    /// explicit prepare that exact-hits a query-drawn entry adopts it into
    /// the durable set.
    /// Returns the outcome plus whether the entry is (now) a durable reuse
    /// candidate — the planner's Auto decision may only depend on the
    /// durable bit, never on mere presence.
    fn cached_outcome(
        &self,
        key: &CacheKey,
        problem: &SamplingProblem,
        mark_reusable: bool,
    ) -> Option<(Arc<CvOptOutcome>, bool)> {
        let cache = self.cache.read().unwrap_or_else(|e| e.into_inner());
        let entry = cache.get(key)?.iter().find(|e| &e.problem == problem)?;
        entry.passes_saved.fetch_add(1, Ordering::Relaxed);
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        if mark_reusable {
            entry.reusable.store(true, Ordering::Relaxed);
        }
        let durable = mark_reusable || entry.reusable.load(Ordering::Relaxed);
        Some((Arc::clone(&entry.outcome), durable))
    }

    /// The reuse planner: scan the table's cached samples for a **durable**
    /// entry whose problem subsumes `problem` under the current layout.
    /// Candidates are ranked by `(budget desc, fingerprint asc)` — a total,
    /// timing-free order — so which sample answers is a pure function of
    /// the reusable set. Returns the captured outcome plus the groups the
    /// estimator will merge away.
    fn find_reusable(
        &self,
        table_key: &str,
        base: &CatalogTable,
        problem: &SamplingProblem,
    ) -> Option<(ReusePlan, Vec<String>)> {
        let requested: HashSet<String> =
            problem.finest_stratification().iter().map(|e| e.display_name()).collect();
        let cache = self.cache.read().unwrap_or_else(|e| e.into_inner());
        let mut best: Option<(usize, u64, &CachedSample)> = None;
        for ((name, folded), bucket) in cache.iter() {
            if name != table_key {
                continue;
            }
            for entry in bucket {
                if !entry.reusable.load(Ordering::Relaxed) {
                    continue;
                }
                // Never match across layouts: the stored key folds the
                // shard layout, so an entry from a superseded layout (which
                // registration invalidates anyway) re-folds differently.
                if base.layout_fingerprint(entry.problem.fingerprint()) != *folded {
                    continue;
                }
                if !entry.problem.subsumes(problem) {
                    continue;
                }
                let rank = (entry.problem.budget, *folded);
                let better = match &best {
                    None => true,
                    Some((b, fp, _)) => rank.0 > *b || (rank.0 == *b && rank.1 < *fp),
                };
                if better {
                    best = Some((rank.0, rank.1, entry));
                }
            }
        }
        let (_, source_fingerprint, entry) = best?;
        // A derived answer is a use: it earns the source its keep exactly
        // like an exact hit would.
        entry.passes_saved.fetch_add(1, Ordering::Relaxed);
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        let coarsened: Vec<String> = entry
            .problem
            .finest_stratification()
            .iter()
            .map(|e| e.display_name())
            .filter(|name| !requested.contains(name))
            .collect();
        Some((ReusePlan { source_fingerprint, outcome: Arc::clone(&entry.outcome) }, coarsened))
    }

    /// [`Engine::sample_uncached`], plus the maintenance hook: a *durable*
    /// preparation over a windowed table is built through
    /// [`MaintainedSample::build`] — byte-identical to the plain two-pass
    /// path, but capturing the index and statistics partials so later
    /// [`Engine::ingest`] calls can fold batches in without a rescan.
    fn sample_uncached_keyed(
        &self,
        table_key: &str,
        base: &CatalogTable,
        problem: &SamplingProblem,
        durable: bool,
    ) -> Result<Arc<CvOptOutcome>> {
        if durable && self.windows.contains_key(table_key) {
            let rows = base.set.rows();
            let m = MaintainedSample::build(problem.clone(), &rows, self.seed, &self.exec)?;
            self.stats_passes.fetch_add(1, Ordering::Relaxed);
            let outcome = Arc::clone(m.outcome());
            let mut maintained = self.maintained.write().unwrap_or_else(|e| e.into_inner());
            let entries = maintained.entry(table_key.to_string()).or_default();
            entries.retain(|e| e.problem() != problem);
            entries.push(m);
            if entries.len() > MAINTAINED_CAP {
                entries.remove(0);
            }
            return Ok(outcome);
        }
        self.sample_uncached(base, problem)
    }

    /// Run the two-pass sampler for a problem that is not cached.
    fn sample_uncached(
        &self,
        base: &CatalogTable,
        problem: &SamplingProblem,
    ) -> Result<Arc<CvOptOutcome>> {
        let sampler = CvOptSampler::new(problem.clone()).with_seed(self.seed).with_exec(self.exec);
        let outcome = sampler.sample(&base.set)?;
        self.stats_passes.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(outcome))
    }

    fn handle(
        &self,
        catalog_name: &str,
        fingerprint: u64,
        cache_hit: bool,
        outcome: Arc<CvOptOutcome>,
    ) -> SampleHandle {
        SampleHandle {
            table: catalog_name.to_string(),
            fingerprint,
            cache_hit,
            exec: self.exec,
            outcome,
        }
    }

    /// Compile `statement`, resolve its `FROM` table against the catalog,
    /// and answer it in `mode`. Approximate answers estimate from the
    /// prepared sample for the statement's derived problem (preparing it on
    /// first use, serving it from the cache afterwards) and attach
    /// per-group confidence intervals for `AVG` aggregates.
    /// `EXPLAIN SELECT …` statements plan but never execute: the answer
    /// carries the report with empty results. `JOIN` statements materialize
    /// the join (fact side probed per partition, shard outputs concatenated
    /// in shard order) and answer exactly over the joined table.
    pub fn query(&self, statement: &str, mode: QueryMode) -> Result<QueryAnswer> {
        let (planned, is_explain) = self.plan_statement(statement, mode)?;
        let PlannedStatement { query, mut report, problem, fingerprint, reuse, join } = planned;
        if is_explain {
            return Ok(QueryAnswer { results: Vec::new(), report, confidence: Vec::new() });
        }
        if let Some(join) = join {
            let results = self.execute_join(&report.table, &join, &query)?;
            return Ok(QueryAnswer { results, report, confidence: Vec::new() });
        }
        let (catalog_name, base) = self.resolve(&report.table)?;
        match report.mode {
            QueryMode::Exact => {
                let results = query.execute_with(&base.set, &self.exec)?;
                Ok(QueryAnswer { results, report, confidence: Vec::new() })
            }
            _ => {
                let problem = problem.expect("approximate plans carry a problem");
                let fingerprint = fingerprint.expect("approximate plans carry a fingerprint");
                let handle = match reuse {
                    Some(plan) => {
                        // Derived answer: re-aggregate the subsuming cached
                        // sample the planner captured. This *is* the
                        // handle-estimate call a direct user of that sample
                        // would make, so the bytes are identical by
                        // construction; no statistics pass, no draw.
                        self.reuse_hits.fetch_add(1, Ordering::Relaxed);
                        self.draws_avoided.fetch_add(1, Ordering::Relaxed);
                        note_draw_avoided();
                        self.handle(catalog_name, plan.source_fingerprint, true, plan.outcome)
                    }
                    None => {
                        let handle = self.prepare_keyed(
                            catalog_name,
                            base,
                            problem.clone(),
                            fingerprint,
                            false,
                        )?;
                        // The plan's probe was advisory; the prepare just
                        // run is what actually happened.
                        report.cache_hit = Some(handle.is_cache_hit());
                        report.reuse = if handle.is_cache_hit() {
                            ReuseInfo::Exact { fingerprint }
                        } else {
                            ReuseInfo::None
                        };
                        handle
                    }
                };
                self.log_query(
                    &report.table,
                    &problem,
                    fingerprint,
                    &query,
                    matches!(report.reuse, ReuseInfo::Derived { .. }),
                );
                let results = handle.estimate(&query)?;
                let confidence = self.confidence_for(&handle, &query)?;
                report.strata = Some(handle.plan().num_strata());
                report.sample_rows = Some(handle.sample().len());
                Ok(QueryAnswer { results, report, confidence })
            }
        }
    }

    /// Append the executed approximate query's shape to the table's
    /// bounded log ring (oldest entries fall off past [`QUERY_LOG_CAP`]).
    fn log_query(
        &self,
        table: &str,
        problem: &SamplingProblem,
        fingerprint: u64,
        query: &GroupByQuery,
        reused: bool,
    ) {
        let entry = QueryLogEntry {
            fingerprint,
            budget: problem.budget,
            group_by: problem.finest_stratification().iter().map(|e| e.display_name()).collect(),
            aggregates: problem.aggregate_columns().iter().map(|e| e.display_name()).collect(),
            predicate: query.predicate.as_ref().map(|p| p.to_string()),
            specs: problem.queries.clone(),
            reused,
        };
        let mut log = self.query_log.lock().unwrap_or_else(|e| e.into_inner());
        let ring = log.entry(table.to_ascii_lowercase()).or_default();
        if ring.len() == QUERY_LOG_CAP {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// The table's current query log, oldest first. A snapshot: the ring
    /// keeps filling behind it.
    pub fn query_log(&self, table: &str) -> Vec<QueryLogEntry> {
        let log = self.query_log.lock().unwrap_or_else(|e| e.into_inner());
        log.get(&table.to_ascii_lowercase())
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Consolidate the table's query log into **one** workload-tuned
    /// sample and prepare it as a durable reuse candidate.
    ///
    /// Logged shapes are grouped by problem fingerprint; the consolidated
    /// [`SamplingProblem::multi`] carries every logged spec with its
    /// aggregate weights scaled by the shape's observed frequency — hot
    /// shapes pull the CVOPT allocation toward the strata that serve them,
    /// while per-stratum variance enters through the statistics pass as
    /// usual — under the *maximum* logged budget. The consolidated problem
    /// therefore [subsumes](SamplingProblem::subsumes) every logged one:
    /// once prepared, any recurrence of a logged shape (and anything those
    /// shapes subsume) is answered without a draw.
    ///
    /// Pure function of the log snapshot (shapes are folded in fingerprint
    /// order, not arrival order), so re-optimizing an unchanged workload is
    /// idempotent: the second call exact-hits the cache. Returns `Ok(None)`
    /// when the table has no logged queries. Callable from a maintenance
    /// thread — it takes `&self` and coalesces with concurrent queries like
    /// any other preparation.
    pub fn reoptimize(&self, table: &str) -> Result<Option<ReoptimizeReport>> {
        let (catalog_name, base) = self.resolve(table)?;
        let entries = self.query_log(catalog_name);
        if entries.is_empty() {
            return Ok(None);
        }
        let mut counts: HashMap<u64, (u64, &QueryLogEntry)> = HashMap::new();
        for entry in &entries {
            counts.entry(entry.fingerprint).and_modify(|(n, _)| *n += 1).or_insert((1, entry));
        }
        let mut shapes: Vec<u64> = counts.keys().copied().collect();
        shapes.sort_unstable();
        let mut specs = Vec::new();
        let mut budget = 0usize;
        for fp in &shapes {
            let (count, entry) = counts[fp];
            budget = budget.max(entry.budget);
            for spec in &entry.specs {
                let mut spec = spec.clone();
                for agg in &mut spec.aggregates {
                    agg.weight *= count as f64;
                }
                specs.push(spec);
            }
        }
        let problem = SamplingProblem::multi(specs, budget);
        let fingerprint = base.layout_fingerprint(problem.fingerprint());
        let handle = self.prepare_keyed(catalog_name, base, problem, fingerprint, true)?;
        Ok(Some(ReoptimizeReport {
            table: catalog_name.to_string(),
            logged: entries.len(),
            distinct_shapes: shapes.len(),
            budget,
            fingerprint,
            cache_hit: handle.is_cache_hit(),
            strata: handle.plan().num_strata(),
            sample_rows: handle.sample().len(),
        }))
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
    /// probe the cache *and the reuse planner*, and only then route. Auto
    /// consults the durable sample set **before** the size threshold, so a
    /// cached or subsuming prepared sample flips a small-table query to the
    /// approximate path (the report's `reason` says which rule fired).
    /// Never scans, samples, or mutates beyond cache bookkeeping atomics.
    fn plan_statement(&self, statement: &str, mode: QueryMode) -> Result<(PlannedStatement, bool)> {
        let (stmt, is_explain) = match sql::parse_statement(statement)? {
            sql::Statement::Select(stmt) => (stmt, false),
            sql::Statement::Explain(stmt) => (stmt, true),
        };
        Ok((self.plan_select(stmt, mode)?, is_explain))
    }

    /// Plan one parsed `SELECT`. `JOIN` statements branch off to
    /// [`Engine::plan_join`]; everything else follows the sampling planner.
    fn plan_select(&self, stmt: sql::SelectStmt, mode: QueryMode) -> Result<PlannedStatement> {
        let from = stmt.table.clone();
        let join = stmt.join.clone();
        let query = stmt.into_query()?;
        if let Some(join) = join {
            return self.plan_join(&from, join, query, mode);
        }
        let (catalog_name, base) = self.resolve(&from)?;
        let table_rows = base.num_rows();
        let estimable = query.aggregates.iter().any(|a| a.input.is_some());
        // Derive the problem up front for every potentially-approximate
        // plan. The one place the spec fingerprint is computed: `query`
        // threads it through to `prepare_keyed`, so a cache miss never
        // canonicalizes the problem twice.
        let mut derived: Option<(SamplingProblem, u64, usize)> = None;
        if mode == QueryMode::Approximate || (mode == QueryMode::Auto && estimable) {
            let budget = budget_for_rows(table_rows, self.default_rate)?;
            let problem = problem_for_query(&query, budget)?;
            let fingerprint = base.layout_fingerprint(problem.fingerprint());
            derived = Some((problem, fingerprint, budget));
        }
        // Probe before routing. Every *decision* here — Auto's flip and
        // whether the answer derives from a subsuming sample — depends
        // only on **durable** entries (explicitly prepared or
        // re-optimized): which query-drawn entries happen to be cached is
        // a race under concurrent traffic, and the repo's contract is that
        // answer bytes and chosen modes never are. The probe result itself
        // still prefills the advisory `cache_hit` for EXPLAIN.
        let table_key = catalog_name.to_ascii_lowercase();
        let cached = derived
            .as_ref()
            .and_then(|(p, fp, _)| self.cached_outcome(&(table_key.clone(), *fp), p, false));
        let durable_hit = cached.as_ref().is_some_and(|(_, durable)| *durable);
        let reusable = if durable_hit {
            // A durable exact hit always wins; `Derived` is reserved for
            // answers from a *different* problem's sample.
            None
        } else {
            derived.as_ref().and_then(|(p, _, _)| self.find_reusable(&table_key, base, p))
        };
        let (chosen, reason) = match mode {
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
        let (strategy, group_by_reason) = Self::plan_group_strategy(base, &query.group_by);
        let mut report = ExplainReport {
            table: catalog_name.to_string(),
            table_rows,
            mode: chosen,
            reason,
            join: None,
            group_by_strategy: strategy.name(),
            group_by_reason,
            reuse: ReuseInfo::None,
            cache_hit: None,
            fingerprint: None,
            budget: None,
            strata: None,
            sample_rows: None,
            partitions: partition_rows(table_rows).len(),
            threads: self.exec.threads(),
            shards: base.num_shards(),
            shard_partitions: base.shard_partitions(),
            remote_shards: base.remote_shards(),
        };
        let mut problem = None;
        let mut planned_fingerprint = None;
        let mut reuse_plan = None;
        if chosen == QueryMode::Approximate {
            let (problem_derived, fingerprint, budget) =
                derived.expect("approximate plans derive a problem");
            report.fingerprint = Some(fingerprint);
            report.budget = Some(budget);
            if let Some((plan, coarsened)) = reusable {
                // The derived answer wins over any non-durable exact entry
                // (whose presence is timing-dependent): `cache_hit` stays
                // false because the statement's own fingerprint does not
                // answer it.
                report.cache_hit = Some(false);
                report.reuse = ReuseInfo::Derived {
                    source_fingerprint: plan.source_fingerprint,
                    coarsened_groups: coarsened,
                    dropped_predicates: query
                        .predicate
                        .as_ref()
                        .and_then(crate::spec::conjunction_atoms)
                        .map(|atoms| atoms.iter().map(|a| a.to_string()).collect())
                        .unwrap_or_else(|| query.predicate.iter().map(|p| p.to_string()).collect()),
                };
                // For derived plans these describe the *source* sample —
                // the one that will answer.
                report.strata = Some(plan.outcome.plan.num_strata());
                report.sample_rows = Some(plan.outcome.sample.len());
                reuse_plan = Some(plan);
            } else {
                match cached {
                    Some((outcome, _)) => {
                        report.cache_hit = Some(true);
                        report.reuse = ReuseInfo::Exact { fingerprint };
                        report.strata = Some(outcome.plan.num_strata());
                        report.sample_rows = Some(outcome.sample.len());
                    }
                    None => report.cache_hit = Some(false),
                }
            }
            problem = Some(problem_derived);
            planned_fingerprint = Some(fingerprint);
        }
        Ok(PlannedStatement {
            query,
            report,
            problem,
            fingerprint: planned_fingerprint,
            reuse: reuse_plan,
            join: None,
        })
    }

    /// The group-index interning strategy the execution layer will choose
    /// for `group_by` over `base`, with its reason — reported by `EXPLAIN`.
    /// Shards build their indexes independently, so the report summarizes
    /// at table scale with the widest per-shard key estimate (for a plain
    /// table, its own); shards behind a remote reader choose on their side
    /// of the wire.
    fn plan_group_strategy(
        base: &CatalogTable,
        group_by: &[ScalarExpr],
    ) -> (GroupStrategy, String) {
        if group_by.is_empty() {
            return (GroupStrategy::Hash, "no grouping dimensions".into());
        }
        let Some(shards) = base.set.rows().local_tables() else {
            let (strategy, _) = choose_strategy(base.num_rows(), None);
            let reason = "remote shards intern on the serving side; hash build unless forced";
            return (strategy, reason.into());
        };
        let mut estimate = Some(0u64);
        for shard in shards {
            estimate = estimate.zip(estimate_keys(shard, group_by)).map(|(acc, e)| acc.max(e));
            if estimate.is_none() {
                break;
            }
        }
        choose_strategy(base.num_rows(), estimate)
    }

    /// Plan a `JOIN` statement: always exact (the sampling algebra has no
    /// join rule), never cached, in-process shards only. The joined table is
    /// materialized at execution time; the key estimate for the group
    /// strategy is therefore unavailable at plan time and the heuristic
    /// falls back to the hash build (`CVOPT_GROUP_STRATEGY` still forces).
    fn plan_join(
        &self,
        from: &str,
        join: sql::JoinClause,
        query: GroupByQuery,
        mode: QueryMode,
    ) -> Result<PlannedStatement> {
        let (fact_name, fact) = self.resolve(from)?;
        let (dim_name, dim) = self.resolve(&join.table)?;
        if fact.remote_shards().is_some() || dim.remote_shards().is_some() {
            return Err(CvError::invalid(format!(
                "JOIN needs local rows on both sides; a remote table cannot be joined \
                 (fact {fact_name}, dim {dim_name})"
            )));
        }
        if mode == QueryMode::Approximate {
            return Err(CvError::invalid(
                "JOIN queries answer exactly; approximate mode is not supported over joins",
            ));
        }
        let reason = match mode {
            QueryMode::Exact => "mode requested",
            _ => "join queries answer exactly",
        };
        let (strategy, group_by_reason) = if query.group_by.is_empty() {
            (GroupStrategy::Hash, "no grouping dimensions".to_string())
        } else {
            choose_strategy(fact.num_rows(), None)
        };
        let table_rows = fact.num_rows();
        let report = ExplainReport {
            table: fact_name.to_string(),
            table_rows,
            mode: QueryMode::Exact,
            reason,
            join: Some(format!(
                "{dim_name} ON {fact_name}.{} = {dim_name}.{}",
                join.fact_key, join.dim_key
            )),
            group_by_strategy: strategy.name(),
            group_by_reason,
            reuse: ReuseInfo::None,
            cache_hit: None,
            fingerprint: None,
            budget: None,
            strata: None,
            sample_rows: None,
            partitions: partition_rows(table_rows).len(),
            threads: self.exec.threads(),
            shards: fact.num_shards(),
            shard_partitions: fact.shard_partitions(),
            remote_shards: None,
        };
        Ok(PlannedStatement {
            query,
            report,
            problem: None,
            fingerprint: None,
            reuse: None,
            join: Some(join),
        })
    }

    /// Materialize the join and answer `query` over its output. The fact
    /// side joins per shard in shard order (global row order), so the
    /// output — and therefore the answer bytes — is identical for any
    /// shard layout and any thread count. A dimension table spread over
    /// several shards is first concatenated into one.
    fn execute_join(
        &self,
        fact_name: &str,
        join: &sql::JoinClause,
        query: &GroupByQuery,
    ) -> Result<Vec<QueryResult>> {
        let (_, fact) = self.resolve(fact_name)?;
        let (_, dim) = self.resolve(&join.table)?;
        let dim = dim.set.rows().to_table()?;
        let joined = hash_join(&fact.set, &dim, &join.fact_key, &join.dim_key, &self.exec)?;
        Ok(query.execute_with(&joined, &self.exec)?)
    }

    /// Confidence intervals for the query's `AVG` aggregates. Cube queries
    /// and non-stratified samples are skipped (the stratified domain
    /// estimator of [`crate::confidence`] does not cover them); a failure
    /// on an eligible aggregate propagates rather than silently dropping
    /// the intervals.
    fn confidence_for(
        &self,
        handle: &SampleHandle,
        query: &GroupByQuery,
    ) -> Result<Vec<AggConfidence>> {
        if query.cube || !handle.sample().is_stratified() {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        for (agg_index, agg) in query.aggregates.iter().enumerate() {
            if agg.kind != AggKind::Avg {
                continue;
            }
            let Some(input) = &agg.input else { continue };
            let estimates = estimate_avg_with_error(
                handle.sample(),
                &query.group_by,
                input,
                query.predicate.as_ref(),
            )?;
            out.push(AggConfidence { agg_index, estimates });
        }
        Ok(out)
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::budget_for_rate;
    use cvopt_table::{DataType, KeyAtom, TableBuilder, Value};

    fn table(rows: usize) -> Table {
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

    #[test]
    fn catalog_register_resolve_drop() {
        let mut e = Engine::new();
        e.register("Events", table(100));
        assert!(e.table("events").is_some());
        assert!(e.table("EVENTS").is_some());
        assert_eq!(e.table_names(), vec!["Events"]);
        assert!(e.drop_table("events"));
        assert!(!e.drop_table("events"));
        assert!(e.table("events").is_none());
    }

    #[test]
    fn unknown_table_is_informative() {
        let mut e = Engine::new();
        e.register("bikes", table(50));
        let err = e.query("SELECT g, AVG(x) FROM nope GROUP BY g", QueryMode::Exact).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("nope") && msg.contains("bikes"), "{msg}");
    }

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
        assert_eq!(ans.report.group_by_strategy, "hash");
        assert!(!ans.report.group_by_reason.is_empty());
        assert_eq!(e.stats_passes(), 0, "EXPLAIN must not sample");
        // explain_mode accepts both spellings and agrees with itself.
        let plain = e.explain_mode("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Exact).unwrap();
        let explained =
            e.explain_mode("EXPLAIN SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Exact).unwrap();
        assert_eq!(plain.group_by_strategy, explained.group_by_strategy);
        assert_eq!(plain.to_line(), explained.to_line());
        assert!(plain.to_line().contains("group-by hash"), "{}", plain.to_line());
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
        let direct =
            sql::run(&joined, "SELECT tier, AVG(x), COUNT(*) FROM j GROUP BY tier").unwrap();
        assert_eq!(ans.results[0].keys, direct[0].keys);
        assert_eq!(ans.results[0].values, direct[0].values);
        assert_eq!(ans.report.join.as_deref(), Some("tiers ON t.g = tiers.k"));
        assert!(ans.report.to_line().contains("join tiers"), "{}", ans.report.to_line());
        assert_eq!(e.stats_passes(), 0, "exact joins never sample");
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
        assert_eq!(ans.results[0].keys, fresh[0].keys);
        for (a, b) in ans.results[0].values.iter().zip(&fresh[0].values) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "estimates must be bit-identical");
            }
        }
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
    fn register_table_invalidates_stale_samples() {
        let mut e = Engine::new();
        e.register("t", table(2000));
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 100);
        let _ = e.prepare("t", problem.clone()).unwrap();
        assert_eq!(e.cached_samples(), 1);
        e.register("t", table(3000));
        assert_eq!(e.cached_samples(), 0, "replacing a table must drop its samples");
        let handle = e.prepare("t", problem).unwrap();
        assert!(!handle.is_cache_hit());
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
            assert_eq!(a.results[0].keys, b.results[0].keys, "{mode:?}");
            for (x, y) in a.results[0].values.iter().zip(&b.results[0].values) {
                for (u, v) in x.iter().zip(y) {
                    assert_eq!(u.to_bits(), v.to_bits(), "{mode:?}: values must be bit-identical");
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
    fn cache_fingerprint_folds_shard_layout() {
        let t = table(4000);
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 200);
        let mut two = Engine::new().with_seed(1);
        two.register("t", ShardedTable::split(&t, 2).unwrap());
        let mut three = Engine::new().with_seed(1);
        three.register("t", ShardedTable::split(&t, 3).unwrap());
        let mut plain = Engine::new().with_seed(1);
        plain.register("t", t);
        let fp_two = two.prepare("t", problem.clone()).unwrap().fingerprint();
        let fp_three = three.prepare("t", problem.clone()).unwrap().fingerprint();
        let fp_plain = plain.prepare("t", problem.clone()).unwrap().fingerprint();
        assert_ne!(fp_two, fp_three, "layouts must key the cache differently");
        assert_ne!(fp_two, fp_plain);
        // Within one engine, the layout-folded key still hits the cache.
        let again = two.prepare("t", problem).unwrap();
        assert!(again.is_cache_hit());
        assert_eq!(again.fingerprint(), fp_two);
        // ... and the samples themselves are bit-identical across layouts.
        assert_eq!(two.stats_passes(), 1);
    }

    #[test]
    fn re_registering_sharded_table_drops_samples() {
        let t = table(2000);
        let mut e = Engine::new();
        e.register("t", ShardedTable::split(&t, 2).unwrap());
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 100);
        let _ = e.prepare("t", problem.clone()).unwrap();
        assert_eq!(e.cached_samples(), 1);
        e.register("t", ShardedTable::split(&t, 4).unwrap());
        assert_eq!(e.cached_samples(), 0, "re-sharding must drop stale samples");
        assert!(!e.prepare("t", problem).unwrap().is_cache_hit());
    }

    #[test]
    fn catalog_accessors_distinguish_kinds() {
        let t = table(100);
        let mut e = Engine::new();
        e.register("plain", t.clone());
        e.register("shard", ShardedTable::split(&t, 2).unwrap());
        assert!(e.table("plain").is_some());
        assert!(e.table("shard").is_none(), "sharded entries are not single tables");
        assert_eq!(e.catalog_table("plain").unwrap().num_shards(), None);
        assert_eq!(e.catalog_table("plain").unwrap().set().num_shards(), 1);
        assert_eq!(e.catalog_table("shard").unwrap().num_shards(), Some(2));
        assert_eq!(e.catalog_table("shard").unwrap().remote_shards(), None);
        assert_eq!(e.table_names(), vec!["plain", "shard"]);
        // A declared one-shard layout is still a layout.
        e.register("one", ShardedTable::split(&t, 1).unwrap());
        assert!(e.table("one").is_none());
        assert_eq!(e.catalog_table("one").unwrap().num_shards(), Some(1));
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
            assert_eq!(got.results[0].keys, want.results[0].keys, "{sql}");
            for (a, b) in got.results[0].values.iter().zip(&want.results[0].values) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{sql}");
                }
            }
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

    // ---- cache economy ----------------------------------------------------

    /// A hand-built cache entry for driving `enforce_budget_locked`
    /// directly (the outcome payload is irrelevant to eviction — only the
    /// accounted `bytes` matter).
    fn economy_entry(
        outcome: &Arc<CvOptOutcome>,
        budget: usize,
        bytes: u64,
        passes: u64,
        used: u64,
    ) -> CachedSample {
        CachedSample {
            problem: SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), budget),
            outcome: Arc::clone(outcome),
            bytes,
            passes_saved: AtomicU64::new(passes),
            last_used: AtomicU64::new(used),
            reusable: AtomicBool::new(false),
        }
    }

    fn small_outcome() -> Arc<CvOptOutcome> {
        let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 50);
        Arc::new(CvOptSampler::new(problem).with_seed(1).sample(&table(500)).unwrap())
    }

    #[test]
    fn unbounded_cache_never_evicts_and_accounts_bytes() {
        let mut e = Engine::new().with_seed(2);
        e.register("t", table(3000));
        assert_eq!(e.cache_bytes_held(), 0);
        e.query("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Approximate).unwrap();
        let after_one = e.cache_bytes_held();
        assert!(after_one > 0);
        e.query("SELECT h, AVG(x) FROM t GROUP BY h", QueryMode::Approximate).unwrap();
        assert!(e.cache_bytes_held() > after_one);
        assert_eq!(e.cache_evictions(), 0);
        assert_eq!(e.cache_budget(), None);
    }

    #[test]
    fn zero_budget_evicts_every_entry_but_answers_identically() {
        let run = |budget: Option<u64>| {
            let mut e = Engine::new().with_seed(9).with_cache_bytes(budget);
            e.register("t", table(3000));
            let sql_text = "SELECT g, AVG(x) FROM t GROUP BY g";
            let a = e.query(sql_text, QueryMode::Approximate).unwrap();
            let b = e.query(sql_text, QueryMode::Approximate).unwrap();
            (a, b, e.stats_passes(), e.cache_evictions(), e.cache_bytes_held())
        };
        let (ua, ub, upasses, uevict, _) = run(None);
        let (za, zb, zpasses, zevict, zheld) = run(Some(0));
        // Budget 0: every published entry is immediately evicted, so the
        // repeat re-prepares; unbounded reuses the cached sample.
        assert_eq!((upasses, uevict), (1, 0));
        assert_eq!((zpasses, zevict), (2, 2));
        assert_eq!(zheld, 0);
        // Eviction moves work, never answers: results are bit-identical
        // across budgets (and the repeat matches the first run).
        for (x, y) in [(&ua, &za), (&ub, &zb), (&za, &zb)] {
            assert_eq!(x.results[0].keys, y.results[0].keys);
            for (vx, vy) in x.results[0].values.iter().zip(&y.results[0].values) {
                for (a, b) in vx.iter().zip(vy) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn tiny_budget_evicts_the_unearned_entry_first() {
        let mut e = Engine::new().with_seed(4);
        e.register("t", table(3000));
        let hot = "SELECT g, AVG(x) FROM t GROUP BY g";
        e.query(hot, QueryMode::Approximate).unwrap();
        let one_entry = e.cache_bytes_held();
        // Earn the entry some saved passes, then give the cache room for
        // exactly one entry and insert a second problem.
        e.query(hot, QueryMode::Approximate).unwrap();
        e.query(hot, QueryMode::Approximate).unwrap();
        let e = {
            // Rebuild with a budget (builder consumes self); replay.
            let mut e2 = Engine::new().with_seed(4).with_cache_bytes(Some(one_entry));
            e2.register("t", table(3000));
            e2.query(hot, QueryMode::Approximate).unwrap();
            e2.query(hot, QueryMode::Approximate).unwrap();
            e2.query(hot, QueryMode::Approximate).unwrap();
            e2
        };
        e.query("SELECT h, AVG(x) FROM t GROUP BY h", QueryMode::Approximate).unwrap();
        // The fresh entry (zero passes saved → rank 0) is the victim, not
        // the hot one it displaced past the budget.
        assert_eq!(e.cache_evictions(), 1);
        assert!(e.cache_bytes_held() <= one_entry);
        let again = e.query(hot, QueryMode::Approximate).unwrap();
        assert_eq!(again.report.cache_hit, Some(true), "hot entry must survive");
    }

    #[test]
    fn replacing_or_dropping_a_table_frees_its_bytes_without_evictions() {
        let mut e = Engine::new().with_seed(6);
        e.register("t", table(2000));
        e.query("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Approximate).unwrap();
        assert!(e.cache_bytes_held() > 0);
        e.register("t", table(2000));
        assert_eq!(e.cache_bytes_held(), 0, "replacement invalidates the samples");
        assert_eq!(e.cache_evictions(), 0, "invalidation is not eviction");
        e.query("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Approximate).unwrap();
        assert!(e.drop_table("t"));
        assert_eq!(e.cache_bytes_held(), 0);
    }

    #[test]
    fn eviction_order_is_rank_then_lru() {
        let outcome = small_outcome();
        let mut cache: HashMap<CacheKey, Vec<CachedSample>> = HashMap::new();
        // Ranks: a = 100×0 = 0, b = 100×1 = 100, c = 100×2 = 200; d ties
        // b's product with an older stamp.
        cache.insert(("t".into(), 1), vec![economy_entry(&outcome, 50, 100, 0, 4)]);
        cache.insert(("t".into(), 2), vec![economy_entry(&outcome, 51, 100, 1, 3)]);
        cache.insert(("t".into(), 3), vec![economy_entry(&outcome, 52, 100, 2, 2)]);
        cache.insert(("t".into(), 4), vec![economy_entry(&outcome, 53, 100, 1, 1)]);
        let bytes = AtomicU64::new(400);
        let evictions = AtomicU64::new(0);
        Engine::enforce_budget_locked(&mut cache, &HashSet::new(), 150, &bytes, &evictions);
        // 400 → evict rank-0 (key 1) → 300 → evict the LRU of the rank-100
        // tie (key 4, stamp 1) → 200 → evict the younger rank-100 (key 2)
        // → 100 ≤ 150, stop. The rank-200 entry survives.
        assert_eq!(evictions.load(Ordering::Relaxed), 3);
        assert_eq!(bytes.load(Ordering::Relaxed), 100);
        assert_eq!(cache.keys().collect::<Vec<_>>(), vec![&("t".to_string(), 3)]);
    }

    #[test]
    fn in_flight_keys_are_never_evicted() {
        let outcome = small_outcome();
        let mut cache: HashMap<CacheKey, Vec<CachedSample>> = HashMap::new();
        // The protected entry has the *lowest* rank — the one eviction
        // would otherwise take first.
        cache.insert(("t".into(), 1), vec![economy_entry(&outcome, 50, 100, 0, 1)]);
        cache.insert(("t".into(), 2), vec![economy_entry(&outcome, 51, 100, 5, 2)]);
        let protected: HashSet<CacheKey> = [("t".to_string(), 1)].into();
        let bytes = AtomicU64::new(200);
        let evictions = AtomicU64::new(0);
        Engine::enforce_budget_locked(&mut cache, &protected, 0, &bytes, &evictions);
        // Only the unprotected entry goes; the loop then stops even though
        // the protected entry still exceeds the budget.
        assert_eq!(evictions.load(Ordering::Relaxed), 1);
        assert_eq!(bytes.load(Ordering::Relaxed), 100);
        assert!(cache.contains_key(&("t".to_string(), 1)));
        assert!(!cache.contains_key(&("t".to_string(), 2)));
    }

    proptest::proptest! {
        /// The eviction rank is a pure function of (bytes, passes-saved,
        /// last-used): recomputing never disagrees, ordering is exactly
        /// "product first, stamp second", and the product never saturates
        /// or wraps (u128 holds any u64×u64).
        #[test]
        fn eviction_rank_is_pure_and_orders_by_product_then_lru(
            bytes_a in 0u64..=u64::MAX, passes_a in 0u64..=u64::MAX, used_a in 0u64..=u64::MAX,
            bytes_b in 0u64..=u64::MAX, passes_b in 0u64..=u64::MAX, used_b in 0u64..=u64::MAX,
        ) {
            let a = eviction_rank(bytes_a, passes_a, used_a);
            let b = eviction_rank(bytes_b, passes_b, used_b);
            proptest::prop_assert_eq!(a, eviction_rank(bytes_a, passes_a, used_a));
            proptest::prop_assert_eq!(a.0, (bytes_a as u128) * (passes_a as u128));
            let by_product = (bytes_a as u128 * passes_a as u128)
                .cmp(&(bytes_b as u128 * passes_b as u128));
            let expected = by_product.then(used_a.cmp(&used_b));
            proptest::prop_assert_eq!(a.cmp(&b), expected);
        }
    }

    // ---- sample reuse ------------------------------------------------------

    /// Bit-compare two result sets (keys and every f64 payload).
    fn assert_same_bits(a: &[QueryResult], b: &[QueryResult]) {
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(b) {
            assert_eq!(ra.keys, rb.keys);
            for (va, vb) in ra.values.iter().zip(&rb.values) {
                for (x, y) in va.iter().zip(vb) {
                    assert_eq!(x.to_bits(), y.to_bits(), "reused answer must be bit-identical");
                }
            }
        }
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

    #[test]
    fn query_log_is_bounded_and_records_shapes() {
        let mut e = Engine::new().with_seed(2);
        e.register("t", table(3000));
        for _ in 0..(QUERY_LOG_CAP + 10) {
            e.query("SELECT g, AVG(x) FROM t WHERE h = 'p' GROUP BY g", QueryMode::Approximate)
                .unwrap();
        }
        let log = e.query_log("t");
        assert_eq!(log.len(), QUERY_LOG_CAP);
        assert_eq!(e.stats_passes(), 1, "one draw, the rest cache hits");
        let entry = &log[0];
        assert_eq!(entry.group_by, vec!["g".to_string()]);
        assert_eq!(entry.aggregates, vec!["x".to_string()]);
        assert_eq!(entry.predicate.as_deref(), Some("h = 'p'"));
        assert!(!entry.reused);
        // Exact queries and other tables never log here.
        e.query("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Exact).unwrap();
        assert_eq!(e.query_log("t").len(), QUERY_LOG_CAP);
        assert!(e.query_log("missing").is_empty());
    }

    #[test]
    fn reoptimize_consolidates_the_log_and_serves_future_shapes() {
        let mut e = Engine::new().with_seed(21);
        e.register("t", table(4000));
        assert!(e.reoptimize("t").unwrap().is_none(), "empty log consolidates nothing");

        // Observed workload: two shapes, one hot.
        e.query("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Approximate).unwrap();
        e.query("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Approximate).unwrap();
        e.query("SELECT h, AVG(x) FROM t GROUP BY h", QueryMode::Approximate).unwrap();
        assert_eq!(e.stats_passes(), 2);

        let report = e.reoptimize("t").unwrap().expect("log is non-empty");
        assert_eq!(report.logged, 3);
        assert_eq!(report.distinct_shapes, 2);
        assert!(!report.cache_hit, "the consolidated sample is new");
        assert_eq!(e.stats_passes(), 3);

        // Idempotent: an unchanged workload re-optimizes to a cache hit.
        let again = e.reoptimize("t").unwrap().unwrap();
        assert_eq!(again.fingerprint, report.fingerprint);
        assert!(again.cache_hit);
        assert_eq!(e.stats_passes(), 3);

        // A shape covered by the union — never queried before — derives
        // (and is itself logged, so the workload has now changed).
        let both =
            e.query("SELECT g, h, AVG(x) FROM t GROUP BY g, h", QueryMode::Approximate).unwrap();
        assert!(matches!(both.report.reuse, ReuseInfo::Derived { .. }), "{:?}", both.report.reuse);
        assert_eq!(e.stats_passes(), 3, "no draw for the derived answer");
        assert_eq!(e.reuse_hits(), 1);
        assert!(e.query_log("t").last().unwrap().reused);

        // Re-registering the table clears the log with the samples.
        e.register("t", table(4000));
        assert!(e.query_log("t").is_empty());
        assert!(e.reoptimize("t").unwrap().is_none());
    }

    /// `(g, x, ts)` rows with `ts = offset + row`, for windowed tables.
    fn ts_table(offset: usize, rows: usize) -> Table {
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

    /// Regression (stale-cache rule): a query's cached sample must never
    /// survive an append unrefreshed — the second answer reflects the new
    /// rows.
    #[test]
    fn ingest_invalidates_stale_query_cache() {
        let sql_text = "SELECT g, SUM(x), COUNT(*) FROM t GROUP BY g";
        let mut e = Engine::new().with_seed(9).with_auto_threshold(1);
        e.register("t", ts_table(0, 3000));
        let before = e.query(sql_text, QueryMode::Approximate).unwrap();
        assert!(e.cached_samples() > 0);

        let report = e.ingest("t", &ts_table(3000, 2000)).unwrap();
        assert_eq!((report.rows, report.total_rows), (2000, 5000));
        assert_eq!(e.ingested_rows(), 2000);
        assert_eq!(e.ingest_batches(), 1);

        let after = e.query(sql_text, QueryMode::Approximate).unwrap();
        assert_ne!(before.results[0].values, after.results[0].values, "answer must move");
        // The post-ingest answer is exactly what a fresh engine over the
        // extended table produces — not merely non-stale, but canonical.
        let mut fresh = Engine::new().with_seed(9).with_auto_threshold(1);
        fresh.register("t", ts_table(0, 5000));
        let canonical = fresh.query(sql_text, QueryMode::Approximate).unwrap();
        assert_eq!(after.results[0].keys, canonical.results[0].keys);
        assert_eq!(after.results[0].values, canonical.results[0].values);
    }

    /// Durable samples on a windowed table are maintained through ingest:
    /// the refreshed cache entry is byte-identical to a fresh preparation
    /// over the extended table, served without a new statistics pass.
    #[test]
    fn windowed_ingest_maintains_durable_samples() {
        let mut e = Engine::new().with_seed(5);
        e.register_windowed("t", ts_table(0, 2000), "ts").unwrap();
        assert_eq!(e.window_column("T"), Some("ts"));
        let spec = QuerySpec::group_by(&["g"]).aggregate("x");
        e.prepare("t", SamplingProblem::single(spec.clone(), 20)).unwrap();
        assert_eq!((e.maintained_samples(), e.stats_passes()), (1, 1));

        let report = e.ingest("t", &ts_table(2000, 1000)).unwrap();
        assert_eq!(report.maintained, 1);
        // The maintained sample rescaled its budget with the table (1% of
        // 3000 rows) and republished; serving it is a cache hit.
        let handle = e.prepare("t", SamplingProblem::single(spec.clone(), 30)).unwrap();
        assert!(handle.is_cache_hit());
        assert_eq!(e.stats_passes(), 1, "maintenance rescans only the tail, not a full pass");

        let mut fresh = Engine::new().with_seed(5);
        fresh.register("t", ts_table(0, 3000));
        let canonical = fresh.prepare("t", SamplingProblem::single(spec, 30)).unwrap();
        assert_eq!(handle.sample().origin, canonical.sample().origin);
        assert_eq!(handle.sample().weights, canonical.sample().weights);
    }

    /// Rotation drops rows below the cutoff, rebuilds maintained samples
    /// over the survivors, and keeps sharded layouts compacting shard by
    /// shard.
    #[test]
    fn rotate_retires_rows_below_cutoff() {
        let mut e = Engine::new().with_seed(2);
        let sharded = ShardedTable::split(&ts_table(0, 3000), 3).unwrap();
        e.register_windowed("t", sharded, "ts").unwrap();
        e.prepare("t", SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 30))
            .unwrap();

        let report = e.rotate("t", 1000).unwrap();
        assert_eq!((report.retired, report.remaining), (1000, 2000));
        assert_eq!((e.rotations(), e.rows_retired()), (1, 1000));
        assert_eq!(report.maintained, 1, "maintained sample rebuilt over survivors");
        // The oldest shard aged out entirely: 3000/3 = 1000 rows per shard.
        assert_eq!(e.catalog_table("t").unwrap().num_shards(), Some(2));

        let ans = e.query("SELECT COUNT(*) AS n FROM t", QueryMode::Exact).unwrap();
        assert_eq!(format!("{:?}", ans.results[0].values[0][0]), format!("{:?}", 2000.0_f64));

        // Rotating a table with no declared window is an error.
        let mut plain = Engine::new();
        plain.register("p", ts_table(0, 100));
        assert!(plain.rotate("p", 10).is_err());
        assert!(plain.ingest("missing", &ts_table(0, 1)).is_err());
    }

    /// A window column must exist and be integer-ordered.
    #[test]
    fn register_windowed_validates_column() {
        let mut e = Engine::new();
        assert!(e.register_windowed("t", ts_table(0, 10), "nope").is_err());
        assert!(e.register_windowed("t", ts_table(0, 10), "x").is_err(), "FLOAT64 rejected");
        assert!(e.register_windowed("t", ts_table(0, 10), "ts").is_ok());
        // Re-registering without a window clears the declaration.
        e.register("t", ts_table(0, 10));
        assert_eq!(e.window_column("t"), None);
    }

    /// Ingest rebuilds only the live (last) shard: the readers of earlier
    /// shards are the very same ones the previous layout held.
    #[test]
    fn ingest_shares_untouched_shard_readers() {
        let mut e = Engine::new().with_seed(3);
        let sharded = ShardedTable::split(&ts_table(0, 3000), 3).unwrap();
        e.register_windowed("t", sharded, "ts").unwrap();
        let before = e.catalog_table("t").unwrap().set().readers().to_vec();
        e.ingest("t", &ts_table(3000, 500)).unwrap();
        let after = e.catalog_table("t").unwrap().set();
        assert_eq!(after.shard_rows(), vec![1000, 1000, 1500]);
        assert!(Arc::ptr_eq(after.reader(0), &before[0]));
        assert!(Arc::ptr_eq(after.reader(1), &before[1]));
        assert!(!Arc::ptr_eq(after.reader(2), &before[2]));
        assert_eq!(e.catalog_table("t").unwrap().num_shards(), Some(3), "still a declared layout");
    }
}
