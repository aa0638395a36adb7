//! `exact_scan`: nine exact statements — five OpenAQ shapes, an expression
//! aggregate, a JOIN, and two shapes against a 3-shard registration. It
//! uses the group-by, predicate and execution layers the *other* way:
//! grouping and aggregating every row instead of stratifying, with the
//! statistics, allocation and sampling layers idle.

use cvopt_core::{Engine, QueryMode};
use cvopt_datagen::openaq::country_code;
use cvopt_table::{DataType, ShardedTable, Table, TableBuilder, Value};

use super::{counters_of, engine_for, openaq, Checked};
use crate::harness::{shuffled, Recorder, Scale, Workload};
use crate::reference::answer_bytes;
use crate::statements::{Statement, EXACT_SCAN, EXACT_SHAPES};

/// Shards of the `openaq3` registration.
pub const SHARDS: usize = 3;
const COUNTRIES: usize = 38;
const REGIONS: usize = 6;

fn region_of(country: usize) -> String {
    format!("R{}", country % REGIONS)
}

/// The 38-row dimension the JOIN statement resolves against.
pub fn regions() -> Table {
    let mut b = TableBuilder::new(&[("country", DataType::Str), ("region", DataType::Str)]);
    for c in 0..COUNTRIES {
        b.push_row(&[Value::str(country_code(c)), Value::str(region_of(c))])
            .expect("dimension row");
    }
    b.finish()
}

/// The JOIN's output built the slow way — each fact row's region looked up
/// by country text — keeping only the columns the JOIN statement reads.
fn naive_join(fact: &Table) -> Table {
    let regions: std::collections::HashMap<String, String> =
        (0..COUNTRIES).map(|c| (country_code(c), region_of(c))).collect();
    let mut b = TableBuilder::new(&[("region", DataType::Str), ("value", DataType::Float64)]);
    b.reserve(fact.num_rows());
    let country = fact.column_by_name("country").expect("fact has a country column");
    let value = fact.column_by_name("value").expect("fact has a value column");
    for row in 0..fact.num_rows() {
        if let Some(region) = country.value(row).as_str().and_then(|c| regions.get(c)) {
            b.push_row(&[Value::str(region), value.value(row)]).expect("joined row");
        }
    }
    b.finish()
}

#[derive(Debug)]
pub struct ExactScan {
    pub engine: Engine,
    pub statements: Vec<Checked>,
    order: Vec<usize>,
    seed: u64,
    rate: f64,
}

impl ExactScan {
    pub fn openaq(&self) -> &Table {
        self.engine.table("openaq").expect("openaq is registered as a single table")
    }
}

impl Workload for ExactScan {
    /// Its error metrics come from `finish`, which answers the shapes
    /// approximately on this many freshly seeded engines.
    const ACCURACY_ROUNDS: u64 = 5;

    fn setup(scale: &Scale, seed: u64) -> Self {
        let table = openaq(scale);
        let sharded = ShardedTable::split(&table, SHARDS).expect("split into shards");
        let mut engine = engine_for(seed, 0, scale.sample_rate);
        engine.register("openaq", table);
        engine.register("openaq3", sharded);
        engine.register("regions", regions());
        ExactScan {
            engine,
            statements: Vec::new(),
            order: Vec::new(),
            seed,
            rate: scale.sample_rate,
        }
    }

    fn prepare(&mut self, warm: &mut Recorder) {
        let joined = naive_join(self.openaq());
        self.statements = EXACT_SCAN
            .iter()
            .map(|s| {
                let table = if s.sql.contains(" JOIN ") { &joined } else { self.openaq() };
                Checked::new(*s, table)
            })
            .collect();
        self.order = shuffled(EXACT_SCAN.len(), self.seed);

        // One table, two registrations: the answer bytes may not differ.
        let by_id = |id: &str| -> Statement {
            *EXACT_SCAN.iter().find(|s| s.id == id).expect("statement id")
        };
        for (single, sharded) in [("AQ2", "AQ2@3shards"), ("AQ4", "AQ4@3shards")] {
            let answers = [single, sharded].map(|id| {
                self.engine.query(by_id(id).sql, QueryMode::Exact).map(|a| answer_bytes(&a))
            });
            let same = matches!(&answers, [Ok(a), Ok(b)] if a == b);
            warm.invariant("exact_scan.layout_identity", same, || {
                format!("{single} differs between the single and the {SHARDS}-shard registration")
            });
        }
    }

    fn round(&mut self, _round: u64, rec: &mut Recorder) {
        for &i in &self.order {
            let stmt = &self.statements[i];
            rec.call(
                "core.engine.query",
                i,
                true,
                || self.engine.query(stmt.stmt.sql, stmt.stmt.mode),
                |answer| stmt.judge(answer),
            );
        }
    }

    /// The exact path has no error to report, so the two error metrics
    /// state what the same five OpenAQ shapes lose when answered
    /// approximately at the default rate — once, outside the window.
    fn finish(&mut self, rec: &mut Recorder) {
        rec.scoring = true;
        for round in 0..Self::ACCURACY_ROUNDS {
            let mut engine = engine_for(self.seed, round, self.rate);
            engine.register("openaq", self.openaq().clone());
            for (i, shape) in EXACT_SHAPES.iter().enumerate() {
                let stmt =
                    self.statements.iter().find(|s| s.stmt == *shape).expect("shape is listed");
                let answer = engine.query(shape.sql, QueryMode::Approximate);
                let verdict = stmt.judge_as(QueryMode::Approximate, &answer);
                rec.judge("exact_scan.approximate_twin", i, verdict);
            }
        }
        rec.scoring = false;
    }

    fn engine_counters(&self) -> [u64; 5] {
        counters_of(&self.engine)
    }
}
