//! [`SharedEngine`]: one [`Engine`] behind an `Arc<RwLock>`, shared by
//! every worker thread.
//!
//! The lock split mirrors the engine's own concurrency design
//! (see [`cvopt_core::engine`]): every query path takes the **read** lock —
//! including cache *misses*, because the prepared-sample cache uses
//! interior mutability and coalesces concurrent misses internally — so
//! queries never serialize behind each other. Only catalog mutation
//! (registering or dropping a table) takes the write lock, briefly, after
//! the table has already been built.

use std::sync::{Arc, RwLock, RwLockReadGuard};

use cvopt_core::{
    CatalogTable, Engine, ExplainReport, IngestReport, QueryAnswer, QueryMode, ReoptimizeReport,
    RotateReport,
};
use cvopt_table::Table;

/// A thread-safe handle to one long-lived [`Engine`].
///
/// Cloning is cheap (an `Arc` bump); all clones see the same catalog,
/// cache, and counters.
#[derive(Debug, Clone)]
pub struct SharedEngine {
    inner: Arc<RwLock<Engine>>,
}

/// A point-in-time copy of the engine's counters.
///
/// Taken under the read lock, which excludes catalog mutation but *not*
/// concurrent queries (they share the read lock and advance the atomic
/// counters through interior mutability) — so under load the snapshot is
/// approximate: a query in flight may have bumped `stats_passes` but not
/// yet its hit/miss counter. Each value is exact once the engine is
/// quiescent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounters {
    /// Prepared-sample lookups served from the cache (or an in-flight
    /// coalesced run).
    pub cache_hits: u64,
    /// Prepared-sample lookups that ran a fresh statistics pass + draw.
    pub cache_misses: u64,
    /// Approximate answers derived from a *subsuming* cached sample (the
    /// sampling algebra; neither a hit nor a miss).
    pub reuse_hits: u64,
    /// Sample preparations the reuse planner avoided.
    pub draws_avoided: u64,
    /// Fresh sample preparations (statistics passes) this engine ran.
    pub stats_passes: u64,
    /// Samples currently held in the cache.
    pub cached_samples: u64,
    /// Entries evicted to keep the cache under its byte budget.
    pub cache_evictions: u64,
    /// Approximate bytes held by cached samples (a pure function of the
    /// cached data — identical on every platform).
    pub cache_bytes_held: u64,
    /// Tables currently registered in the catalog.
    pub tables: u64,
    /// Rows appended through the ingest path.
    pub ingested_rows: u64,
    /// Batches accepted by the ingest path.
    pub ingest_batches: u64,
    /// Durable samples currently under incremental maintenance.
    pub maintained_samples: u64,
    /// Retention rotations run.
    pub rotations: u64,
    /// Rows dropped by retention rotations.
    pub rows_retired: u64,
}

impl SharedEngine {
    /// Wrap `engine` for shared use.
    pub fn new(engine: Engine) -> Self {
        SharedEngine { inner: Arc::new(RwLock::new(engine)) }
    }

    /// Answer one SQL statement (read lock; see [`Engine::query`]).
    pub fn query(&self, statement: &str, mode: QueryMode) -> cvopt_core::Result<QueryAnswer> {
        self.read().query(statement, mode)
    }

    /// Report the plan for one statement (read lock; see
    /// [`Engine::explain_mode`]).
    pub fn explain(&self, statement: &str, mode: QueryMode) -> cvopt_core::Result<ExplainReport> {
        self.read().explain_mode(statement, mode)
    }

    /// Register (or replace) a catalog table — a `Table`, a `ShardedTable`,
    /// or a `ShardSet` (write lock). Mirrors [`Engine::register`].
    pub fn register(&self, name: &str, table: impl Into<CatalogTable>) {
        self.write().register(name, table);
    }

    /// Register (or replace) a windowed table — a retention window column
    /// plus incremental maintenance of its durable samples under ingest
    /// (write lock). Mirrors [`Engine::register_windowed`].
    pub fn register_windowed(
        &self,
        name: &str,
        table: impl Into<CatalogTable>,
        window: &str,
    ) -> cvopt_core::Result<()> {
        self.write().register_windowed(name, table, window).map(|_| ())
    }

    /// Append a row batch to a registered local table (write lock; see
    /// [`Engine::ingest`] — maintained samples are refreshed, everything
    /// else invalidated, never served stale).
    pub fn ingest(&self, name: &str, batch: &Table) -> cvopt_core::Result<IngestReport> {
        self.write().ingest(name, batch)
    }

    /// Drop rows below `cutoff` from a windowed table (write lock; see
    /// [`Engine::rotate`]).
    pub fn rotate(&self, name: &str, cutoff: i64) -> cvopt_core::Result<RotateReport> {
        self.write().rotate(name, cutoff)
    }

    /// Consolidate `table`'s query log into one durable reuse-candidate
    /// sample (read lock — it coalesces with in-flight queries like any
    /// preparation; see [`Engine::reoptimize`]).
    pub fn reoptimize(&self, table: &str) -> cvopt_core::Result<Option<ReoptimizeReport>> {
        self.read().reoptimize(table)
    }

    /// Registered table names, sorted (read lock).
    pub fn table_names(&self) -> Vec<String> {
        self.read().table_names().iter().map(|s| s.to_string()).collect()
    }

    /// A consistent snapshot of the engine counters (read lock).
    pub fn counters(&self) -> EngineCounters {
        let engine = self.read();
        EngineCounters {
            cache_hits: engine.cache_hits(),
            cache_misses: engine.cache_misses(),
            reuse_hits: engine.reuse_hits(),
            draws_avoided: engine.draws_avoided(),
            stats_passes: engine.stats_passes(),
            cached_samples: engine.cached_samples() as u64,
            cache_evictions: engine.cache_evictions(),
            cache_bytes_held: engine.cache_bytes_held(),
            tables: engine.table_names().len() as u64,
            ingested_rows: engine.ingested_rows(),
            ingest_batches: engine.ingest_batches(),
            maintained_samples: engine.maintained_samples() as u64,
            rotations: engine.rotations(),
            rows_retired: engine.rows_retired(),
        }
    }

    /// Run `f` under the read lock, for engine APIs not wrapped above.
    pub fn with_engine<T>(&self, f: impl FnOnce(&Engine) -> T) -> T {
        f(&self.read())
    }

    /// The read guard. A worker that panicked mid-request poisons the
    /// lock; the engine's interior state stays consistent (its own locks
    /// recover the same way), so we recover rather than wedging the
    /// server.
    fn read(&self) -> RwLockReadGuard<'_, Engine> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Engine> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvopt_table::{DataType, TableBuilder, Value};

    fn table(rows: usize) -> Table {
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        for i in 0..rows {
            let g = ["a", "b", "c"][i % 3];
            b.push_row(&[Value::str(g), Value::Float64((i % 17) as f64)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn clones_share_catalog_cache_and_counters() {
        let shared = SharedEngine::new(Engine::new().with_seed(3));
        let clone = shared.clone();
        shared.register("t", table(4000));
        assert_eq!(clone.table_names(), vec!["t".to_string()]);

        let sql = "SELECT g, AVG(x) FROM t GROUP BY g";
        let a = clone.query(sql, QueryMode::Approximate).unwrap();
        assert_eq!(a.report.cache_hit, Some(false));
        let b = shared.query(sql, QueryMode::Approximate).unwrap();
        assert_eq!(b.report.cache_hit, Some(true));

        let counters = shared.counters();
        assert_eq!(counters.cache_hits, 1);
        assert_eq!(counters.cache_misses, 1);
        assert_eq!(counters.stats_passes, 1);
        assert_eq!(counters.cached_samples, 1);
        assert_eq!(counters.tables, 1);
        assert_eq!(shared.with_engine(|e| e.seed()), 3);
    }

    #[test]
    fn explain_does_not_mutate() {
        let shared = SharedEngine::new(Engine::new().with_auto_threshold(100));
        shared.register("t", table(2000));
        let report = shared.explain("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Auto).unwrap();
        assert_eq!(report.mode, QueryMode::Approximate);
        assert_eq!(report.cache_hit, Some(false));
        assert_eq!(shared.counters().stats_passes, 0);
    }
}
