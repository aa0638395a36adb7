//! The catalog: who the tables are. One [`CatalogEntry`] per registered
//! name holds everything the engine keeps for a table *other than its
//! samples* — the display name, the [`CatalogTable`], the declared window
//! column, and the query-log ring [`Engine::reoptimize`] consolidates.
//! Registering replaces the entry and dropping removes it; nothing else
//! has to be remembered.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use cvopt_table::exec::partition_rows;
use cvopt_table::{DataType, GroupByQuery, ShardSet, ShardedTable, Table};

use super::Engine;
use crate::error::CvError;
use crate::spec::{Fingerprinter, QuerySpec, SamplingProblem};
use crate::Result;

/// A catalog table. Every table is a [`ShardSet`] — a plain [`Table`] is a
/// set of one in-process shard — and every pass runs over it the same way,
/// with byte-identical answers for any layout and any mix of local and
/// remote readers. The entry adds the single reporting fact execution
/// cannot derive: whether the caller *declared* a shard layout. A plain
/// table reports no shards and folds no layout into fingerprints; a
/// [`ShardedTable`] or a directly registered [`ShardSet`] reports its shard
/// count — a 1-shard layout included.
#[derive(Debug, Clone)]
pub struct CatalogTable {
    pub(super) set: ShardSet,
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
    pub(super) fn shard_partitions(&self) -> Option<Vec<usize>> {
        self.declared_layout
            .then(|| self.set.shard_rows().iter().map(|&rows| partition_rows(rows).len()).collect())
    }

    /// The same entry over a mutated set (ingest, rotation): what the
    /// caller declared at registration is kept.
    pub(super) fn with_set(&self, set: ShardSet) -> CatalogTable {
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

/// The catalog key of a table name: names resolve case-insensitively, and
/// this is the one place that rule is spelled.
fn table_key(name: &str) -> String {
    name.to_ascii_lowercase()
}

/// What the catalog holds for one registered name.
#[derive(Debug)]
pub(super) struct CatalogEntry {
    /// The entry's key in the catalog map, and its samples' key in the
    /// store.
    pub(super) key: String,
    /// The name as registered (what reports and errors show).
    pub(super) name: String,
    pub(super) table: CatalogTable,
    /// The declared retention window column. A windowed table supports
    /// [`Engine::rotate`], and its durable samples are maintained under
    /// [`Engine::ingest`] instead of being invalidated.
    pub(super) window: Option<String>,
    /// Bounded ring of observed approximate-query shapes. A `Mutex`
    /// because queries log through `&self`.
    query_log: Mutex<VecDeque<QueryLogEntry>>,
}

impl CatalogEntry {
    /// Append an executed approximate query's shape to the log ring
    /// (oldest entries fall off past [`QUERY_LOG_CAP`]).
    pub(super) fn log_query(
        &self,
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
        let mut ring = self.query_log.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == QUERY_LOG_CAP {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// The log ring's current contents, oldest first.
    fn logged(&self) -> Vec<QueryLogEntry> {
        self.query_log.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned().collect()
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

impl Engine {
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
        self.install(name.into(), table.into(), None);
        self
    }

    /// Register (or replace) a catalog table that **ingests**: `window`
    /// names a time-ordered `INT64`/`TIMESTAMP` column the table is
    /// retained by. A windowed table additionally supports
    /// [`Engine::rotate`] (drop rows older than a cutoff), and its durable
    /// prepared samples are **incrementally maintained** under
    /// [`Engine::ingest`] instead of being invalidated — each append folds
    /// into the maintained strata and statistics, and the refreshed sample
    /// is byte-identical to re-preparing from scratch.
    ///
    /// A set with remote shards cannot be windowed: those rows live at the
    /// shard servers, and such a table changes only by being registered
    /// again with its new rows.
    pub fn register_windowed(
        &mut self,
        name: impl Into<String>,
        table: impl Into<CatalogTable>,
        window: &str,
    ) -> Result<&mut Self> {
        let table = table.into();
        if table.remote_shards().is_some() {
            return Err(CvError::invalid(
                "remote shard sets cannot declare a window column; re-register the table \
                 with its new rows",
            ));
        }
        let dtype = table.set.schema().type_of(window)?;
        if !matches!(dtype, DataType::Int64 | DataType::Timestamp) {
            return Err(CvError::invalid(format!(
                "window column '{window}' must be INT64 or TIMESTAMP, found {dtype:?}"
            )));
        }
        self.install(name.into(), table, Some(window.to_string()));
        Ok(self)
    }

    /// Put a fresh entry under `name`. Whatever the old entry held goes
    /// with it — its window declaration, and its logged workload shapes
    /// (their budgets tracked the old row count) — and so do the samples
    /// drawn from the old rows. `&mut self` guarantees no query (and so no
    /// pending run) is in flight.
    fn install(&mut self, name: String, table: CatalogTable, window: Option<String>) {
        let key = table_key(&name);
        self.store.clear_table(&key);
        let entry =
            CatalogEntry { key: key.clone(), name, table, window, query_log: Mutex::default() };
        self.catalog.insert(key, entry);
    }

    /// Remove a table, every sample prepared from it, and its query log.
    pub fn drop_table(&mut self, name: &str) -> bool {
        let key = table_key(name);
        self.store.clear_table(&key);
        self.catalog.remove(&key).is_some()
    }

    /// Registered table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.catalog.values().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names
    }

    fn entry(&self, name: &str) -> Option<&CatalogEntry> {
        self.catalog.get(&table_key(name))
    }

    /// Look up a catalog entry (case-insensitive).
    pub fn catalog_table(&self, name: &str) -> Option<&CatalogTable> {
        self.entry(name).map(|e| &e.table)
    }

    /// The table behind a *plain* registration (case-insensitive), while it
    /// is still the one table that was registered. Entries that declared a
    /// shard layout return `None`, and so does a plain table that
    /// [`Engine::ingest`] has since rolled past its first shard (its rows
    /// are then a chain of sealed shards, not one `Table`); reach either
    /// kind's rows through [`Engine::catalog_table`].
    pub fn table(&self, name: &str) -> Option<&Table> {
        let table = self.catalog_table(name).filter(|t| !t.declared_layout)?;
        match table.set.readers() {
            [only] => only.local_table(),
            _ => None,
        }
    }

    /// The declared retention window column of `name`, if any.
    pub fn window_column(&self, name: &str) -> Option<&str> {
        self.entry(name)?.window.as_deref()
    }

    /// The entry `name` resolves to, or an error listing the catalog.
    pub(super) fn resolve(&self, name: &str) -> Result<&CatalogEntry> {
        self.entry(name).ok_or_else(|| {
            let known = self.table_names().join(", ");
            CvError::invalid(format!("table '{name}' is not registered (catalog: [{known}])"))
        })
    }

    /// The table's current query log, oldest first. A snapshot: the ring
    /// keeps filling behind it.
    pub fn query_log(&self, table: &str) -> Vec<QueryLogEntry> {
        self.entry(table).map(CatalogEntry::logged).unwrap_or_default()
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
        let entry = self.resolve(table)?;
        let entries = entry.logged();
        if entries.is_empty() {
            return Ok(None);
        }
        let mut counts: HashMap<u64, (u64, &QueryLogEntry)> = HashMap::new();
        for logged in &entries {
            counts.entry(logged.fingerprint).and_modify(|(n, _)| *n += 1).or_insert((1, logged));
        }
        let mut shapes: Vec<u64> = counts.keys().copied().collect();
        shapes.sort_unstable();
        let mut specs = Vec::new();
        let mut budget = 0usize;
        for fp in &shapes {
            let (count, logged) = counts[fp];
            budget = budget.max(logged.budget);
            for spec in &logged.specs {
                let mut spec = spec.clone();
                for agg in &mut spec.aggregates {
                    agg.weight *= count as f64;
                }
                specs.push(spec);
            }
        }
        let problem = SamplingProblem::multi(specs, budget);
        let fingerprint = entry.table.layout_fingerprint(problem.fingerprint());
        let handle = self.prepare_keyed(entry, problem, fingerprint, true)?;
        Ok(Some(ReoptimizeReport {
            table: entry.name.clone(),
            logged: entries.len(),
            distinct_shapes: shapes.len(),
            budget,
            fingerprint,
            cache_hit: handle.is_cache_hit(),
            strata: handle.plan().num_strata(),
            sample_rows: handle.sample().len(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{table, ts_table};
    use super::super::{QueryMode, ReuseInfo};
    use super::*;

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

    /// Replacing a table — with new rows, or the same rows re-sharded —
    /// drops the samples prepared from the old registration.
    #[test]
    fn re_registering_a_table_drops_its_samples() {
        let t = table(2000);
        let split = |n| CatalogTable::from(ShardedTable::split(&t, n).unwrap());
        for (before, after) in [(t.clone().into(), table(3000).into()), (split(2), split(4))] {
            let mut e = Engine::new();
            e.register("t", before);
            let problem = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 100);
            e.prepare("t", problem.clone()).unwrap();
            assert_eq!(e.cached_samples(), 1);
            e.register("t", after);
            assert_eq!(e.cached_samples(), 0, "replacing a table must drop its samples");
            assert!(!e.prepare("t", problem).unwrap().is_cache_hit());
        }
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
}
