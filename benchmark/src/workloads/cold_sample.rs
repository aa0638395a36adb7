//! `cold_sample`: eleven approximate statements with pairwise-distinct
//! problems on a fresh engine per round, so every operation is a cache miss
//! and the group index → statistics pass → allocation → draw → estimate
//! pipeline does nearly all the work. The paper's "precompute" cost and the
//! user's first-query latency; also carries the accuracy metrics.

use cvopt_core::Engine;
use cvopt_table::Table;

use super::{add_counters, bikes, counters_of, engine_for, openaq, Checked};
use crate::harness::{shuffled, Recorder, Scale, Workload};
use crate::statements::COLD_SAMPLE;

#[derive(Debug)]
pub struct ColdSample {
    pub openaq: Table,
    pub bikes: Table,
    pub statements: Vec<Checked>,
    order: Vec<usize>,
    seed: u64,
    rate: f64,
    counters: [u64; 5],
}

impl ColdSample {
    pub fn from_tables(openaq: Table, bikes: Table, seed: u64, rate: f64) -> ColdSample {
        ColdSample {
            openaq,
            bikes,
            statements: Vec::new(),
            order: Vec::new(),
            seed,
            rate,
            counters: [0; 5],
        }
    }

    /// The table a statement's `FROM` names.
    pub fn table_of(&self, sql: &str) -> &Table {
        if sql.contains("FROM bikes") {
            &self.bikes
        } else {
            &self.openaq
        }
    }

    /// A fresh engine over both tables, seeded for `round`.
    pub fn fresh_engine(&self, round: u64) -> Engine {
        let mut engine = engine_for(self.seed, round, self.rate);
        engine.register("openaq", self.openaq.clone());
        engine.register("bikes", self.bikes.clone());
        engine
    }
}

impl Workload for ColdSample {
    const ACCURACY_ROUNDS: u64 = 16;

    fn setup(scale: &Scale, seed: u64) -> Self {
        ColdSample::from_tables(openaq(scale), bikes(scale), seed, scale.sample_rate)
    }

    fn prepare(&mut self, _warm: &mut Recorder) {
        self.statements =
            COLD_SAMPLE.iter().map(|s| Checked::new(*s, self.table_of(s.sql))).collect();
        self.order = shuffled(COLD_SAMPLE.len(), self.seed);
    }

    fn round(&mut self, round: u64, rec: &mut Recorder) {
        // Registration is not the workload: a new engine is only how the
        // cache is emptied.
        let engine = rec.untimed(|| self.fresh_engine(round));
        for &i in &self.order {
            let stmt = &self.statements[i];
            rec.call(
                "core.engine.query",
                i,
                true,
                || engine.query(stmt.stmt.sql, stmt.stmt.mode),
                |answer| stmt.judge(answer),
            );
        }
        let (misses, expected) = (engine.cache_misses(), self.statements.len() as u64);
        rec.invariant("cold_sample.all_miss", misses == expected, || {
            format!("{misses} cache misses in a round of {expected} statements")
        });
        add_counters(&mut self.counters, counters_of(&engine));
        rec.untimed(|| drop(engine));
    }

    fn engine_counters(&self) -> [u64; 5] {
        self.counters
    }
}
