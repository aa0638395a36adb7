//! The sample store: what samples exist. Every prepared sample of every
//! table lives here exactly once — the paper's warehouse case (§4.3/§6.3)
//! with a provenance of `(table, problem)` — together with the in-flight
//! preparations concurrent misses coalesce onto, the bytes gauge, the byte
//! budget and the eviction that enforces it. A durable sample of a windowed
//! table additionally carries its [`Maintenance`] state *on the entry*, so
//! evicting or invalidating the sample retires its upkeep with it.
//!
//! The store is the only code that builds a [`CachedSample`] and the only
//! code that moves the bytes gauge; after every change it re-checks (debug
//! builds) that the gauge equals a recount of its entries.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockWriteGuard};

use cvopt_table::exec::ExecOptions;
use cvopt_table::{GroupByQuery, QueryResult};

use super::catalog::CatalogTable;
use crate::confidence::AggConfidence;
use crate::estimate::{estimate_with, SampleScan};
use crate::framework::{CvOptOutcome, CvOptPlan};
use crate::maintain::Maintenance;
use crate::sample::MaterializedSample;
use crate::spec::SamplingProblem;
use crate::Result;

/// A prepared sample checked out of the engine cache.
///
/// The handle shares the cached [`CvOptOutcome`]; answering queries through
/// it never re-scans the base table.
#[derive(Debug, Clone)]
pub struct SampleHandle {
    pub(super) table: String,
    pub(super) fingerprint: u64,
    pub(super) cache_hit: bool,
    pub(super) exec: ExecOptions,
    pub(super) outcome: Arc<CvOptOutcome>,
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

    /// Answer `query` from the prepared sample under the engine's execution
    /// options: Horvitz–Thompson estimates, plus per-group confidence
    /// intervals for its `AVG` aggregates (non-cube queries over stratified
    /// samples; empty otherwise). The sample's packed keys and predicate
    /// bitmap are built once and read by both passes. The query may carry
    /// predicates and groupings the sample was never planned for (paper
    /// §6.3).
    pub fn answer(&self, query: &GroupByQuery) -> Result<(Vec<QueryResult>, Vec<AggConfidence>)> {
        let scan = SampleScan::new(&self.outcome.sample, query, &self.exec)?;
        let estimates = scan.estimate()?;
        Ok((estimates, self.exec.span("confidence", || scan.confidence())?))
    }

    /// The estimates of [`SampleHandle::answer`] alone.
    pub fn estimate(&self, query: &GroupByQuery) -> Result<Vec<QueryResult>> {
        estimate_with(&self.outcome.sample, query, &self.exec)
    }
}

/// One prepared sample plus the problem it was prepared for. The problem
/// is kept so a fingerprint collision is detected by structural equality
/// and costs only a redundant preparation, never a wrong answer.
///
/// The economy fields feed eviction: `bytes` is what the entry costs to
/// hold, `passes_saved` is what it has earned (each cache hit is one
/// statistics pass + draw the engine did not re-run), and `last_used`
/// breaks ties LRU-wise. The atomics are bumped under the store's **read**
/// lock, so hits never serialize.
#[derive(Debug)]
struct CachedSample {
    problem: SamplingProblem,
    outcome: Arc<CvOptOutcome>,
    /// Approximate bytes held by the outcome (pure function of the data).
    bytes: u64,
    /// The clock stamp the entry was inserted under: its age among the
    /// table's samples, whatever hits it has served since.
    inserted: u64,
    /// Statistics passes this entry has saved (cache hits served).
    passes_saved: AtomicU64,
    /// Logical clock stamp of the most recent use.
    last_used: AtomicU64,
    /// Whether the reuse planner may answer *other* problems from this
    /// entry. Only entries published (or later exact-hit) by an explicit
    /// [`Engine::prepare`](super::Engine::prepare) or
    /// [`Engine::reoptimize`](super::Engine::reoptimize) are reusable:
    /// those operations are application-serialized, so the reusable set —
    /// unlike the full cache under concurrent queries — changes at
    /// well-defined points, keeping every reuse decision a pure function of
    /// (catalog, reusable set, problem) and never of query timing.
    reusable: AtomicBool,
    /// For a durable sample of a windowed table: the state that lets
    /// ingest fold a batch in without a rescan. `None` once demoted past
    /// [`MAINTAINED_CAP`] — the sample then serves until the next ingest
    /// invalidates it like any other.
    maintenance: Option<Maintenance>,
}

impl CachedSample {
    fn new(
        problem: SamplingProblem,
        outcome: Arc<CvOptOutcome>,
        stamp: u64,
        durable: bool,
        maintenance: Option<Maintenance>,
    ) -> CachedSample {
        CachedSample {
            problem,
            bytes: outcome_bytes(&outcome),
            outcome,
            inserted: stamp,
            passes_saved: AtomicU64::new(0),
            last_used: AtomicU64::new(stamp),
            reusable: AtomicBool::new(durable),
            maintenance,
        }
    }

    /// Record a use: one saved statistics pass, and a fresh LRU stamp.
    fn touch(&self, stamp: u64) {
        self.passes_saved.fetch_add(1, Ordering::Relaxed);
        self.last_used.store(stamp, Ordering::Relaxed);
    }
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

/// A subsuming durable sample the reuse planner captured at plan time:
/// the query answers from exactly this outcome, so the decision probed and
/// the sample answered can never diverge (eviction or publication in
/// between notwithstanding).
pub(super) struct Reusable {
    /// Layout-folded fingerprint of the sample actually answering.
    pub(super) source_fingerprint: u64,
    pub(super) outcome: Arc<CvOptOutcome>,
}

/// At most this many samples per table carry maintenance state — the
/// bound on the work one ingest does. Past the cap the oldest is demoted
/// to a plain cached sample (still correct, no longer incrementally
/// maintained).
const MAINTAINED_CAP: usize = 8;

/// One table's samples: layout-folded problem fingerprint → the (almost
/// always single) samples prepared under it.
type TableSamples = HashMap<u64, Vec<CachedSample>>;

/// What in-flight preparations are keyed by: catalog key + fingerprint.
type RunKey = (String, u64);

/// What every prepared sample is kept in; see the module docs.
#[derive(Debug, Default)]
pub(super) struct SampleStore {
    /// Keyed by the table's catalog key.
    entries: RwLock<HashMap<String, TableSamples>>,
    /// In-flight preparations.
    pending: Mutex<HashMap<RunKey, Vec<Arc<PendingRun>>>>,
    /// Byte budget; `None` is unbounded.
    pub(super) budget: Option<u64>,
    /// Approximate bytes currently held. Moves only under the `entries`
    /// write lock.
    bytes: AtomicU64,
    /// Entries evicted to stay under the budget.
    evictions: AtomicU64,
    /// Logical clock for LRU stamps (bumped on every hit and insert).
    clock: AtomicU64,
}

impl SampleStore {
    /// Number of samples currently held.
    pub(super) fn len(&self) -> usize {
        self.count(|_| true)
    }

    /// Number of samples currently carrying maintenance state.
    pub(super) fn maintained(&self) -> usize {
        self.count(|e| e.maintenance.is_some())
    }

    fn count(&self, which: impl Fn(&CachedSample) -> bool) -> usize {
        let entries = self.entries.read().unwrap_or_else(|e| e.into_inner());
        entries.values().flat_map(HashMap::values).flatten().filter(|e| which(e)).count()
    }

    /// Approximate bytes currently held.
    pub(super) fn bytes_held(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Entries evicted so far to stay under the byte budget.
    pub(super) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Next LRU stamp. Stamps start at 1 and are unique (atomic counter),
    /// so no two entries ever tie on `last_used`.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, TableSamples>> {
        self.entries.write().unwrap_or_else(|e| e.into_inner())
    }

    /// What the gauge must read: the sum of every held entry's `bytes`.
    fn recount(entries: &HashMap<String, TableSamples>) -> u64 {
        entries.values().flat_map(HashMap::values).flatten().map(|e| e.bytes).sum()
    }

    /// The store's invariant, checked under the write lock after every
    /// insert, removal, eviction and per-table clear.
    fn check(&self, entries: &HashMap<String, TableSamples>) {
        debug_assert_eq!(self.bytes_held(), Self::recount(entries), "bytes gauge drifted");
    }

    /// Probe (read lock only) for a structurally equal problem. A hit
    /// credits the entry one saved statistics pass and freshens its LRU
    /// stamp — both atomics, so hits never serialize on the write lock.
    /// `mark_reusable` upgrades the entry to a reuse candidate: an explicit
    /// prepare that exact-hits a query-drawn entry adopts it into the
    /// durable set. Returns the outcome plus whether the entry is (now) a
    /// durable reuse candidate — the planner's Auto decision may only
    /// depend on the durable bit, never on mere presence.
    pub(super) fn probe(
        &self,
        table: &str,
        fingerprint: u64,
        problem: &SamplingProblem,
        mark_reusable: bool,
    ) -> Option<(Arc<CvOptOutcome>, bool)> {
        let entries = self.entries.read().unwrap_or_else(|e| e.into_inner());
        let entry =
            entries.get(table)?.get(&fingerprint)?.iter().find(|e| &e.problem == problem)?;
        entry.touch(self.tick());
        if mark_reusable {
            entry.reusable.store(true, Ordering::Relaxed);
        }
        let durable = mark_reusable || entry.reusable.load(Ordering::Relaxed);
        Some((Arc::clone(&entry.outcome), durable))
    }

    /// The reuse planner: scan the table's samples for a **durable** entry
    /// whose problem subsumes `problem`. Every sample held for a table is
    /// of its current shard layout — registering clears them, ingest and
    /// rotation re-key them — so a match can never cross layouts.
    /// Candidates are ranked by `(budget desc, fingerprint asc)` — a total,
    /// timing-free order — so which sample answers is a pure function of
    /// the reusable set. Returns the captured sample plus the group-by
    /// columns it stratifies on beyond the requested ones (the groups the
    /// estimator will merge away).
    pub(super) fn find_reusable(
        &self,
        table: &str,
        problem: &SamplingProblem,
    ) -> Option<(Reusable, Vec<String>)> {
        let entries = self.entries.read().unwrap_or_else(|e| e.into_inner());
        let mut best: Option<(usize, u64, &CachedSample)> = None;
        for (folded, bucket) in entries.get(table)? {
            for entry in bucket {
                if !entry.reusable.load(Ordering::Relaxed) {
                    continue;
                }
                if !entry.problem.subsumes(problem) {
                    continue;
                }
                let budget = entry.problem.budget;
                let better = match &best {
                    None => true,
                    Some((b, fp, _)) => budget > *b || (budget == *b && folded < fp),
                };
                if better {
                    best = Some((budget, *folded, entry));
                }
            }
        }
        let (_, source_fingerprint, entry) = best?;
        // A derived answer is a use: it earns the source its keep exactly
        // like an exact hit would.
        entry.touch(self.tick());
        let requested: HashSet<String> =
            problem.finest_stratification().iter().map(|e| e.display_name()).collect();
        let coarsened_groups = entry
            .problem
            .finest_stratification()
            .iter()
            .map(|e| e.display_name())
            .filter(|name| !requested.contains(name))
            .collect();
        Some((
            Reusable { source_fingerprint, outcome: Arc::clone(&entry.outcome) },
            coarsened_groups,
        ))
    }

    /// The sample for `(table, fingerprint, problem)`: the held one, or the
    /// one `draw` produces — published before this returns. The `bool` is
    /// `true` for the one caller whose `draw` ran: concurrent misses join
    /// the pending run for their exact problem (structural equality guards
    /// the astronomically unlikely fingerprint collision exactly as it does
    /// for held samples) and share its outcome. `durable` marks the entry
    /// (published or exact-hit) as a reuse candidate.
    pub(super) fn get_or_prepare(
        &self,
        table: &str,
        fingerprint: u64,
        problem: SamplingProblem,
        durable: bool,
        draw: impl FnOnce(&SamplingProblem) -> Result<(CvOptOutcome, Option<Maintenance>)>,
    ) -> Result<(Arc<CvOptOutcome>, bool)> {
        if let Some((outcome, _)) = self.probe(table, fingerprint, &problem, durable) {
            return Ok((outcome, false));
        }
        let key: RunKey = (table.to_string(), fingerprint);
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
        let mut maintenance = None;
        let result = run.cell.get_or_init(|| {
            ran_here = true;
            // The store may have been filled between our probe and this
            // run becoming the key's pending entry; a fresh scan would be
            // wasted work, so re-probe before scanning.
            if let Some((outcome, _)) = self.probe(table, fingerprint, &run.problem, durable) {
                return Ok((outcome, false));
            }
            let (outcome, state) = draw(&run.problem)?;
            maintenance = state;
            Ok((Arc::new(outcome), true))
        });
        if ran_here {
            // Leader duties: publish the outcome, then retire the pending
            // entry (in that order, so a late arrival always finds one of
            // the two).
            let published = match result {
                Ok((outcome, true)) => self.insert(
                    table,
                    fingerprint,
                    problem,
                    Arc::clone(outcome),
                    durable,
                    maintenance,
                ),
                _ => false,
            };
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
            // the store, so this costs nothing but a future re-prepare.
            if published {
                self.enforce_budget();
            }
        }
        match result {
            Ok((outcome, fresh)) => Ok((Arc::clone(outcome), ran_here && *fresh)),
            Err(e) => Err(e.clone()),
        }
    }

    /// The one way a sample enters the store. Returns `false` (and holds
    /// nothing new) when a structurally equal problem is already there.
    /// Inserting a maintained sample past [`MAINTAINED_CAP`] demotes the
    /// table's oldest maintained one.
    fn insert(
        &self,
        table: &str,
        fingerprint: u64,
        problem: SamplingProblem,
        outcome: Arc<CvOptOutcome>,
        durable: bool,
        maintenance: Option<Maintenance>,
    ) -> bool {
        let mut entries = self.write();
        let samples = entries.entry(table.to_string()).or_default();
        let bucket = samples.entry(fingerprint).or_default();
        if bucket.iter().any(|e| e.problem == problem) {
            return false;
        }
        let maintained = maintenance.is_some();
        let entry = CachedSample::new(problem, outcome, self.tick(), durable, maintenance);
        self.bytes.fetch_add(entry.bytes, Ordering::Relaxed);
        bucket.push(entry);
        if maintained {
            let held: Vec<&mut CachedSample> =
                samples.values_mut().flatten().filter(|e| e.maintenance.is_some()).collect();
            if held.len() > MAINTAINED_CAP {
                let oldest = held.into_iter().min_by_key(|e| e.inserted).expect("non-empty");
                oldest.maintenance = None;
            }
        }
        self.check(&entries);
        true
    }

    /// Drop every sample of `table`. Invalidation, not eviction: the
    /// eviction counter tracks only budget pressure.
    pub(super) fn clear_table(&self, table: &str) {
        self.take_table(table);
    }

    /// Remove and return every sample of `table`, keeping the gauge honest.
    fn take_table(&self, table: &str) -> Vec<CachedSample> {
        let mut entries = self.write();
        let taken: Vec<CachedSample> =
            entries.remove(table).into_iter().flat_map(HashMap::into_values).flatten().collect();
        self.bytes.fetch_sub(taken.iter().map(|e| e.bytes).sum(), Ordering::Relaxed);
        self.check(&entries);
        taken
    }

    /// Carry `table`'s samples across a swap of its rows (ingest,
    /// rotation): cached samples are *never left stale*. Plain samples are
    /// invalidated outright; each maintained one is brought up to date by
    /// `update` — which rewrites the problem's budget and returns the
    /// outcome that now answers it — and re-enters the store under the
    /// post-swap layout fingerprint, oldest first. A sample whose update
    /// fails (e.g. a batch that breaks its invariants) is dropped, never
    /// served stale. Returns how many samples were carried across.
    pub(super) fn refresh_table(
        &self,
        table: &str,
        base: &CatalogTable,
        mut update: impl FnMut(&mut SamplingProblem, &mut Maintenance) -> Result<CvOptOutcome>,
    ) -> usize {
        let mut stale = self.take_table(table);
        stale.sort_by_key(|e| e.inserted);
        let mut carried = 0;
        for CachedSample { mut problem, maintenance, .. } in stale {
            let Some(mut state) = maintenance else { continue };
            let Ok(outcome) = update(&mut problem, &mut state) else { continue };
            let fingerprint = base.layout_fingerprint(problem.fingerprint());
            let outcome = Arc::new(outcome);
            carried +=
                self.insert(table, fingerprint, problem, outcome, true, Some(state)) as usize;
        }
        carried
    }

    /// Evict until the store fits the configured byte budget: repeatedly
    /// remove the entry with the smallest [`eviction_rank`] until the held
    /// bytes fit (or only protected entries remain). Keys with an in-flight
    /// coalesced run are protected: evicting under a leader mid-publish
    /// would let the same problem occupy two generations of bytes and
    /// double-count evictions.
    pub(super) fn enforce_budget(&self) {
        let Some(budget) = self.budget else { return };
        if self.bytes_held() <= budget {
            return;
        }
        let mut entries = self.write();
        let pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        let protected: HashSet<(&str, u64)> =
            pending.keys().map(|(table, fp)| (table.as_str(), *fp)).collect();
        while self.bytes_held() > budget {
            let mut victim: Option<((u128, u64), &String, u64, usize)> = None;
            for (table, samples) in entries.iter() {
                for (fingerprint, bucket) in samples {
                    if protected.contains(&(table.as_str(), *fingerprint)) {
                        continue;
                    }
                    for (idx, entry) in bucket.iter().enumerate() {
                        let rank = eviction_rank(
                            entry.bytes,
                            entry.passes_saved.load(Ordering::Relaxed),
                            entry.last_used.load(Ordering::Relaxed),
                        );
                        if victim.as_ref().is_none_or(|(best, ..)| rank < *best) {
                            victim = Some((rank, table, *fingerprint, idx));
                        }
                    }
                }
            }
            let Some((_, table, fingerprint, idx)) = victim else { break };
            let table = table.clone();
            let samples = entries.get_mut(&table).expect("victim table present");
            let bucket = samples.get_mut(&fingerprint).expect("victim bucket present");
            let evicted = bucket.remove(idx);
            if bucket.is_empty() {
                samples.remove(&fingerprint);
            }
            self.bytes.fetch_sub(evicted.bytes, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.check(&entries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{assert_same_bits, table, ts_table};
    use super::super::{Engine, QueryMode};
    use super::*;
    use crate::framework::CvOptSampler;
    use crate::spec::QuerySpec;

    /// A store under `budget` holding hand-built entries of table `t`,
    /// one per `(fingerprint, bytes, passes_saved, last_used)` — the
    /// outcome payload is irrelevant to eviction, only the accounted bytes
    /// matter — with the gauge set to match.
    fn economy_store(budget: u64, entries: &[(u64, u64, u64, u64)]) -> SampleStore {
        let spec = QuerySpec::group_by(&["g"]).aggregate("x");
        let problem = SamplingProblem::single(spec, 50);
        let outcome = CvOptSampler::new(problem.clone()).with_seed(1).sample(&table(500)).unwrap();
        let outcome = Arc::new(outcome);
        let store = SampleStore { budget: Some(budget), ..SampleStore::default() };
        let mut samples = TableSamples::new();
        for &(fingerprint, bytes, passes, used) in entries {
            let mut entry =
                CachedSample::new(problem.clone(), Arc::clone(&outcome), used, false, None);
            entry.bytes = bytes;
            entry.passes_saved = AtomicU64::new(passes);
            store.bytes.fetch_add(bytes, Ordering::Relaxed);
            samples.insert(fingerprint, vec![entry]);
        }
        store.write().insert("t".into(), samples);
        store
    }

    fn held_fingerprints(store: &SampleStore) -> Vec<u64> {
        let mut held: Vec<u64> = store.write()["t"].keys().copied().collect();
        held.sort_unstable();
        held
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
            assert_same_bits(&x.results, &y.results);
        }
    }

    #[test]
    fn tiny_budget_evicts_the_unearned_entry_first() {
        let hot = "SELECT g, AVG(x) FROM t GROUP BY g";
        let engine = |budget| {
            let mut e = Engine::new().with_seed(4).with_cache_bytes(budget);
            e.register("t", table(3000));
            e.query(hot, QueryMode::Approximate).unwrap();
            e
        };
        let one_entry = engine(None).cache_bytes_held();
        // Give the cache room for exactly one entry, earn that entry some
        // saved passes, and insert a second problem.
        let e = engine(Some(one_entry));
        e.query(hot, QueryMode::Approximate).unwrap();
        e.query(hot, QueryMode::Approximate).unwrap();
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
        // Ranks: 1 = 100×0 = 0, 2 = 100×1 = 100, 3 = 100×2 = 200; 4 ties
        // 2's product with an older stamp.
        let store =
            economy_store(150, &[(1, 100, 0, 4), (2, 100, 1, 3), (3, 100, 2, 2), (4, 100, 1, 1)]);
        store.enforce_budget();
        // 400 → evict rank-0 (1) → 300 → evict the LRU of the rank-100 tie
        // (4, stamp 1) → 200 → evict the younger rank-100 (2) → 100 ≤ 150,
        // stop. The rank-200 entry survives.
        assert_eq!((store.evictions(), store.bytes_held()), (3, 100));
        assert_eq!(held_fingerprints(&store), vec![3]);
    }

    #[test]
    fn in_flight_keys_are_never_evicted() {
        // The protected entry has the *lowest* rank — the one eviction
        // would otherwise take first.
        let store = economy_store(0, &[(1, 100, 0, 1), (2, 100, 5, 2)]);
        store.pending.lock().unwrap().insert(("t".into(), 1), Vec::new());
        store.enforce_budget();
        // Only the unprotected entry goes; the loop then stops even though
        // the protected entry still exceeds the budget.
        assert_eq!((store.evictions(), store.bytes_held()), (1, 100));
        assert_eq!(held_fingerprints(&store), vec![1]);
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

    /// The bytes gauge equals a recount of the held entries after every
    /// step of a table's life, and ends at zero.
    #[test]
    fn bytes_gauge_matches_a_recount_through_a_tables_life() {
        let gauge_is_exact = |e: &Engine, step: &str| {
            assert_eq!(e.cache_bytes_held(), SampleStore::recount(&e.store.write()), "{step}");
        };
        let mut e = Engine::new().with_seed(3);
        e.register_windowed("t", ts_table(0, 3000), "ts").unwrap();
        let prepared = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), 60);
        e.prepare("t", prepared).unwrap();
        gauge_is_exact(&e, "prepare");
        e.query("SELECT g, AVG(ts) FROM t GROUP BY g", QueryMode::Approximate).unwrap();
        assert_eq!(e.cached_samples(), 2, "a new value column draws its own sample");
        gauge_is_exact(&e, "query");
        e.query("SELECT g, AVG(x) FROM t WHERE ts > 100 GROUP BY g", QueryMode::Approximate)
            .unwrap();
        assert_eq!(e.reuse_hits(), 1, "the smaller budget derives from the prepared sample");
        gauge_is_exact(&e, "derived reuse");
        e.ingest("t", &ts_table(3000, 500)).unwrap();
        assert_eq!(e.cached_samples(), 1, "the maintained sample alone crosses the ingest");
        gauge_is_exact(&e, "ingest");
        e.rotate("t", 1000).unwrap();
        gauge_is_exact(&e, "rotate");
        assert!(e.cache_bytes_held() > 0);
        e.register("t", ts_table(0, 100));
        gauge_is_exact(&e, "re-register");
        e.query("SELECT g, AVG(x) FROM t GROUP BY g", QueryMode::Approximate).unwrap();
        gauge_is_exact(&e, "query after re-register");
        assert!(e.drop_table("t"));
        assert_eq!((e.cache_bytes_held(), e.cached_samples()), (0, 0));
    }

    /// `MAINTAINED_CAP` bounds ingest work by demotion: past the cap the
    /// oldest sample loses its maintenance state but keeps serving, until
    /// the next ingest invalidates it like any unmaintained sample.
    #[test]
    fn past_the_cap_the_oldest_sample_is_demoted_not_dropped() {
        let mut e = Engine::new().with_seed(3);
        e.register_windowed("t", ts_table(0, 2000), "ts").unwrap();
        let problem =
            |budget| SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), budget);
        for budget in 20..30 {
            e.prepare("t", problem(budget)).unwrap();
        }
        assert_eq!((e.cached_samples(), e.maintained_samples()), (10, MAINTAINED_CAP));
        assert!(e.prepare("t", problem(20)).unwrap().is_cache_hit(), "demoted, still served");
        let report = e.ingest("t", &ts_table(2000, 1000)).unwrap();
        assert_eq!(report.maintained, MAINTAINED_CAP);
        assert_eq!((e.cached_samples(), e.maintained_samples()), (8, 8));
        // The two oldest (budgets 20, 21) were the ones demoted: the
        // survivors are 22..30 rescaled by 3000/2000.
        assert!(!e.prepare("t", problem(30)).unwrap().is_cache_hit());
        assert!(e.prepare("t", problem(33)).unwrap().is_cache_hit());
    }
}
