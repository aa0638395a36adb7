//! Ingestion and retention: the two passes that change a registered
//! table's rows. Both end in the same step — swap the table in, carry its
//! samples across through the store, enforce the byte budget.

use std::sync::atomic::Ordering;

use cvopt_table::{Column, Table};

use super::catalog::CatalogTable;
use super::Engine;
use crate::error::CvError;
use crate::Result;

/// What one [`Engine::ingest`] call did.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Catalog name of the table appended to.
    pub table: String,
    /// Rows in the accepted batch.
    pub rows: usize,
    /// Rows in the table after the append.
    pub total_rows: usize,
    /// Maintained samples brought up to date in place.
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
        Column::Int64(v) | Column::Timestamp(v) => Ok(v.iter().map(|&t| t >= cutoff).collect()),
        other => Err(CvError::invalid(format!(
            "window column '{window}' must be INT64 or TIMESTAMP, found {:?}",
            other.data_type()
        ))),
    }
}

impl Engine {
    /// Append a batch of rows to a registered **local** table, at a cost of
    /// the batch, not the table. The rows go into the table's live — last —
    /// shard until it holds `CHUNK_ROWS` (64Ki) rows, where it is sealed,
    /// and roll new shards from there
    /// ([`ShardSet::extended`](cvopt_table::ShardSet::extended)); every
    /// sealed shard is shared with the previous layout, never copied. A
    /// plain table stays a plain table — nothing it reports (fingerprints,
    /// `EXPLAIN`) can see the shards behind it — and a declared layout
    /// grows one shard per 64Ki rows appended; either way the layout
    /// depends on the rows that arrived, never on how they were batched.
    ///
    /// Sample upkeep is the point of the pass: cached samples of the table
    /// are *never left stale*. Plain entries are invalidated outright; the
    /// table's maintained samples (durable preparations on a windowed
    /// table) fold the batch into their strata, row lists and statistics
    /// and redraw from those — work proportional to the batch and the
    /// sample, with no pass over the rows already there. Each refreshed
    /// sample is byte-identical to re-preparing from scratch over the
    /// extended table, for any split of the same row stream into batches
    /// (see [`Engine::register_windowed`]).
    ///
    /// Remote tables reject the call: their rows live at the shard servers,
    /// and such a table changes only by being registered again with its new
    /// rows.
    pub fn ingest(&mut self, name: &str, batch: &Table) -> Result<IngestReport> {
        let entry = self.resolve(name)?;
        if entry.table.remote_shards().is_some() {
            return Err(CvError::invalid(format!(
                "table '{}' answers from remote shards; re-register the table with its new rows",
                entry.name
            )));
        }
        let (key, table) = (entry.key.clone(), entry.name.clone());
        let extended = entry.table.with_set(entry.table.set.extended(batch)?);
        let total_rows = extended.num_rows();
        let maintained = self.swap_table(&key, extended, Some(batch));
        self.ingested_rows.fetch_add(batch.num_rows() as u64, Ordering::Relaxed);
        self.ingest_batches.fetch_add(1, Ordering::Relaxed);
        Ok(IngestReport { table, rows: batch.num_rows(), total_rows, maintained })
    }

    /// Drop rows whose window-column value is **below** `cutoff` from a
    /// windowed table — the retention rotation. Sharded layouts compact
    /// shard by shard, so a shard whose rows all age out falls off the
    /// layout entirely. Maintained samples rebuild over the surviving rows
    /// (their budgets rescale to the pinned sampling rate); all other
    /// cached samples are invalidated.
    pub fn rotate(&mut self, name: &str, cutoff: i64) -> Result<RotateReport> {
        let entry = self.resolve(name)?;
        let Some(window) = &entry.window else {
            return Err(CvError::invalid(format!(
                "table '{name}' has no window column; register it with `register_windowed`"
            )));
        };
        let Some(shards) = entry.table.set.rows().local_tables() else {
            return Err(CvError::invalid(format!(
                "table '{}' answers from remote shards; re-register the table with its new rows",
                entry.name
            )));
        };
        let mut keep = Vec::with_capacity(entry.table.num_rows());
        for shard in shards {
            keep.extend(keep_mask(shard, window, cutoff)?);
        }
        let (key, table) = (entry.key.clone(), entry.name.clone());
        let rotated = entry.table.with_set(entry.table.set.retained(|i| keep[i])?);
        let remaining = rotated.num_rows();
        let retired = keep.len() - remaining;
        let maintained = self.swap_table(&key, rotated, None);
        self.rotations.fetch_add(1, Ordering::Relaxed);
        self.rows_retired.fetch_add(retired as u64, Ordering::Relaxed);
        Ok(RotateReport { table, retired, remaining, maintained })
    }

    /// The shared back half of [`Engine::ingest`] and [`Engine::rotate`]:
    /// put `table` in the entry at `key`, bring the store's samples of it
    /// up to date — fold in `batch` (ingest) or rebuild from scratch
    /// (`None`, rotation) — and enforce the byte budget. Returns how many
    /// maintained samples survive.
    fn swap_table(&mut self, key: &str, table: CatalogTable, batch: Option<&Table>) -> usize {
        let entry = self.catalog.get_mut(key).expect("resolved by the caller");
        entry.table = table;
        let rows = entry.table.set.rows();
        let (seed, exec) = (self.seed, self.exec.clone());
        let mut rebuilds = 0;
        let maintained =
            self.store.refresh_table(key, &entry.table, |problem, state| match batch {
                Some(batch) => state.apply_append(problem, &rows, batch, seed, &exec),
                // A rebuild re-scans the retained rows — a full statistics
                // pass, and the engine's gauge must say so.
                None => state.rebuild(problem, &rows, seed, &exec).inspect(|_| rebuilds += 1),
            });
        self.stats_passes.fetch_add(rebuilds, Ordering::Relaxed);
        self.store.enforce_budget();
        maintained
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::ts_table;
    use super::super::QueryMode;
    use super::*;
    use crate::spec::{QuerySpec, SamplingProblem};
    use cvopt_table::ShardedTable;
    use std::sync::Arc;

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

    /// Regression: a maintained sample used to live twice — in the cache
    /// and in a separate maintained map — so evicting it freed nothing and
    /// every ingest re-drew, republished and re-evicted a sample no query
    /// could reach. Evicting the one entry now retires its upkeep too.
    #[test]
    fn evicted_sample_takes_its_maintenance_along() {
        let mut e = Engine::new().with_seed(5).with_cache_bytes(Some(0));
        e.register_windowed("t", ts_table(0, 2000), "ts").unwrap();
        e.prepare("t", SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 20))
            .unwrap();
        assert_eq!((e.cached_samples(), e.maintained_samples(), e.cache_evictions()), (0, 0, 1));
        for batch in 0..3 {
            let report = e.ingest("t", &ts_table(2000 + 500 * batch, 500)).unwrap();
            assert_eq!(report.maintained, 0, "nothing is held, so nothing is maintained");
        }
        assert_eq!((e.cache_evictions(), e.stats_passes()), (1, 1));
        assert_eq!((e.cached_samples(), e.cache_bytes_held(), e.maintained_samples()), (0, 0, 0));
    }
}
