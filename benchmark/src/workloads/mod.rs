//! The five workloads. Later issues refer to them by these names.

pub mod cold_sample;
pub mod exact_scan;
pub mod ingest_maintain;
pub mod remote_cold;
pub mod serve_cached;

use cvopt_core::{CvError, Engine, QueryAnswer, QueryMode};
use cvopt_datagen::{generate_bikes, generate_openaq, BikesConfig, OpenAqConfig};
use cvopt_table::{sql, GroupByQuery, Table};

use crate::harness::{exec, mix, Scale};
use crate::reference::{self, RefAnswer};
use crate::statements::Statement;

pub const NAMES: [&str; 5] =
    ["cold_sample", "exact_scan", "serve_cached", "remote_cold", "ingest_maintain"];

/// Round number of the untimed warm-up round.
pub const WARMUP_ROUND: u64 = u64::MAX;

/// Generator seeds are fixed: `--seed` never reaches the data.
pub fn openaq(scale: &Scale) -> Table {
    generate_openaq(&OpenAqConfig::with_rows(scale.openaq_rows))
}

pub fn bikes(scale: &Scale) -> Table {
    generate_bikes(&BikesConfig::with_rows(scale.bikes_rows))
}

/// A fresh engine with the benchmark's fixed execution options, the engine
/// seed of `round`, and the sampling rate `rate`.
pub fn engine_for(seed: u64, round: u64, rate: f64) -> Engine {
    Engine::new().with_seed(mix(seed, round)).with_exec(exec()).with_default_rate(rate)
}

/// Lower a statement to its query; a `JOIN` clause is dropped here and
/// resolved by whoever supplies the table.
pub fn compile(statement: &Statement) -> GroupByQuery {
    sql::parse(statement.sql)
        .and_then(|s| s.into_query())
        .unwrap_or_else(|e| panic!("statement {} does not compile: {e}", statement.id))
}

/// A statement with the reference answer it is judged against.
#[derive(Debug)]
pub struct Checked {
    pub stmt: Statement,
    pub query: GroupByQuery,
    pub reference: RefAnswer,
}

impl Checked {
    /// `table` holds the rows the statement's `FROM` (and `JOIN`) resolve to.
    pub fn new(stmt: Statement, table: &Table) -> Checked {
        let query = compile(&stmt);
        let reference = reference::group_by(table, &query);
        Checked { stmt, query, reference }
    }

    /// Judge an engine answer: exact answers must be the reference;
    /// approximate ones yield their relative-error terms.
    pub fn judge(&self, answer: &Result<QueryAnswer, CvError>) -> Result<Vec<f64>, String> {
        self.judge_as(self.stmt.mode, answer)
    }

    /// [`Checked::judge`] for an answer produced in `mode` rather than the
    /// statement's own.
    pub fn judge_as(
        &self,
        mode: QueryMode,
        answer: &Result<QueryAnswer, CvError>,
    ) -> Result<Vec<f64>, String> {
        let answer = answer.as_ref().map_err(|e| e.to_string())?;
        match mode {
            QueryMode::Exact => {
                reference::check_exact(&answer.results, &self.reference).map(|()| Vec::new())
            }
            // Without a WHERE clause a statement groups on its own strata,
            // each of which holds at least one sampled row.
            _ => reference::check_approx(
                &answer.results,
                &self.reference,
                self.query.predicate.is_none(),
            ),
        }
    }
}

/// The engine counters the per-layer report carries: four monotonic counts
/// and one gauge (bytes held by cached samples).
pub fn counters_of(engine: &Engine) -> [u64; 5] {
    [
        engine.cache_hits(),
        engine.cache_misses(),
        engine.reuse_hits(),
        engine.stats_passes(),
        engine.cache_bytes_held(),
    ]
}

/// Fold a retired engine's counters into a running total; the gauge keeps
/// its latest value.
pub fn add_counters(into: &mut [u64; 5], from: [u64; 5]) {
    for (a, b) in into.iter_mut().zip(from).take(4) {
        *a += b;
    }
    into[4] = from[4];
}
