//! Per-stage time of the exact statements and of the answers a cached
//! sample serves, read from the engine's own spans
//! ([`cvopt_table::spans`]).
//!
//! Two tables. The first registers a generated OpenAQ table of [`ROWS`]
//! rows, the same rows in three shards (`openaq3`) and a 38-row region
//! dimension, and answers nine exact statements — five OpenAQ shapes, an
//! expression aggregate, a JOIN and two shapes over the shards — at
//! [`THREADS`] threads. The second prepares one durable sample of the same
//! rows, stratified by [`DURABLE_GROUP_BY`] with the value columns
//! [`DURABLE_AGGREGATES`] at rate [`DURABLE_RATE`], and answers five
//! approximate statements from it — one whose derived problem is the
//! sample's own, four the reuse planner derives from it — at
//! [`SERVING_THREADS`] thread, the budget a server gives one request.
//!
//! Each statement runs [`REPS`] times. Each table prints, per statement,
//! the median wall-clock of `Engine::query` and the median of each stage
//! the statement opened, in milliseconds; its last row sums every column
//! over the statements. A statement that opens a stage its table has no
//! column for panics, so the tables follow the engine's spans.
//!
//! A stage workers run (`fold`, and a JOIN partition's stages) is summed
//! over workers, so at more than one thread it can exceed the wall-clock.
//!
//! ```text
//! cargo run --release -p cvopt-bench --bin stages
//! ```

use std::sync::Arc;
use std::time::Instant;

use cvopt_core::{
    budget_for_rows, Engine, ExecOptions, QueryMode, QuerySpec, SamplingProblem, ShardedTable,
};
use cvopt_datagen::openaq::country_code;
use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_table::{DataType, Spans, Table, TableBuilder, Value};

/// Rows of the generated OpenAQ table.
const ROWS: usize = 1 << 20;

/// Runs of each statement; each column is their median.
const REPS: usize = 21;

/// Worker threads of the engine's execution options.
const THREADS: usize = 2;

/// The statements, by id.
const STATEMENTS: [(&str, &str); 9] = [
    (
        "AQ2",
        "SELECT country, parameter, unit, SUM(value) AS agg1, COUNT(*) AS agg2 \
         FROM openaq GROUP BY country, parameter, unit",
    ),
    (
        "AQ4",
        "SELECT country, MONTH(local_time), YEAR(local_time), AVG(value) FROM openaq \
         WHERE parameter = 'co' GROUP BY country, MONTH(local_time), YEAR(local_time)",
    ),
    (
        "AQ6",
        "SELECT parameter, unit, COUNT_IF(value > 0.5) AS count FROM openaq \
         WHERE country = 'C02' GROUP BY parameter, unit",
    ),
    (
        "AQ7",
        "SELECT country, parameter, SUM(value) FROM openaq GROUP BY country, parameter WITH CUBE",
    ),
    ("by_location", "SELECT location, AVG(value) FROM openaq GROUP BY location"),
    (
        "case_arith",
        "SELECT country, SUM(CASE WHEN value > 1 THEN value * 2 ELSE 0 END) AS hot, \
         AVG(value * latitude + 1) AS mixed FROM openaq GROUP BY country",
    ),
    (
        "join_regions",
        "SELECT region, SUM(value), COUNT(*) FROM openaq \
         JOIN regions ON openaq.country = regions.country GROUP BY region",
    ),
    (
        "AQ2@3shards",
        "SELECT country, parameter, unit, SUM(value) AS agg1, COUNT(*) AS agg2 \
         FROM openaq3 GROUP BY country, parameter, unit",
    ),
    (
        "AQ4@3shards",
        "SELECT country, MONTH(local_time), YEAR(local_time), AVG(value) FROM openaq3 \
         WHERE parameter = 'co' GROUP BY country, MONTH(local_time), YEAR(local_time)",
    ),
];

/// The exact table's columns, in print order; a statement that never opens
/// a stage shows `-` there. No shard here is behind a reader, so none opens
/// `walk`.
const STAGES: [&str; 7] = ["encode", "bitmap", "join", "project", "fold", "merge", "readout"];

/// The durable sample's stratification and value columns.
const DURABLE_GROUP_BY: [&str; 4] = ["country", "parameter", "unit", "location"];
const DURABLE_AGGREGATES: [&str; 2] = ["value", "latitude"];

/// The durable sample's rate, and the engine's default rate, so the first
/// serving statement's derived problem is the sample's own.
const DURABLE_RATE: f64 = 0.125;

/// Worker threads of the serving engine's execution options.
const SERVING_THREADS: usize = 1;

/// The statements answered from the durable sample, by id.
const SERVING: [(&str, &str); 5] = [
    (
        "exact_hit",
        "SELECT country, parameter, unit, location, SUM(value), SUM(latitude) FROM openaq \
         WHERE country = 'C02' GROUP BY country, parameter, unit, location",
    ),
    ("by_country", "SELECT country, AVG(value) FROM openaq GROUP BY country"),
    (
        "by_country_parameter",
        "SELECT country, parameter, SUM(value), COUNT(*) FROM openaq GROUP BY country, parameter",
    ),
    (
        "predicate",
        "SELECT parameter, unit, AVG(value) FROM openaq WHERE country = 'C02' \
         GROUP BY parameter, unit",
    ),
    ("two_aggregates", "SELECT location, AVG(value), AVG(latitude) FROM openaq GROUP BY location"),
];

/// The serving table's columns, in print order.
const SERVING_STAGES: [&str; 6] = ["encode", "bitmap", "fold", "merge", "readout", "confidence"];

/// The 38-row dimension: country `c` is in region `R{c % 6}`.
fn regions() -> Table {
    let mut b = TableBuilder::new(&[("country", DataType::Str), ("region", DataType::Str)]);
    for c in 0..38 {
        b.push_row(&[Value::str(country_code(c)), Value::str(format!("R{}", c % 6))])
            .expect("dimension row");
    }
    b.finish()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let table = generate_openaq(&OpenAqConfig::with_rows(ROWS));
    let spans = Arc::new(Spans::new());

    let exec = ExecOptions::new(THREADS).with_spans(spans.clone());
    let mut engine = Engine::new().with_seed(7).with_exec(exec);
    engine.register("openaq3", ShardedTable::split(&table, 3).expect("split into shards"));
    engine.register("openaq", table.clone());
    engine.register("regions", regions());
    println!("exact: {ROWS} rows, {THREADS} threads, median of {REPS} runs, ms");
    print_table(&engine, &spans, &STATEMENTS, &STAGES, QueryMode::Exact);

    let exec = ExecOptions::new(SERVING_THREADS).with_spans(spans.clone());
    let mut engine = Engine::new().with_seed(7).with_exec(exec).with_default_rate(DURABLE_RATE);
    engine.register("openaq", table);
    let spec = DURABLE_AGGREGATES
        .iter()
        .fold(QuerySpec::group_by(&DURABLE_GROUP_BY), |spec, &column| spec.aggregate(column));
    let budget = budget_for_rows(ROWS, DURABLE_RATE).expect("valid rate");
    engine.prepare("openaq", SamplingProblem::single(spec, budget)).expect("durable sample");
    println!();
    println!(
        "served from a durable sample (rate {DURABLE_RATE}): {ROWS} rows, \
         {SERVING_THREADS} thread, median of {REPS} runs, ms"
    );
    print_table(&engine, &spans, &SERVING, &SERVING_STAGES, QueryMode::Approximate);
}

/// Answer each of `statements` [`REPS`] times under `mode` and print one row
/// per statement — its median wall-clock and the median of each of `stages`
/// — and a last row summing every column.
fn print_table(
    engine: &Engine,
    spans: &Spans,
    statements: &[(&str, &str)],
    stages: &[&str],
    mode: QueryMode,
) {
    let header: Vec<String> = ["total"].iter().chain(stages).map(|s| format!("{s:>12}")).collect();
    println!("{:>22}{}", "statement", header.join(""));
    let mut sums = vec![0.0; stages.len() + 1];
    for &(id, sql) in statements {
        let mut total = Vec::with_capacity(REPS);
        let mut per_stage = vec![Vec::with_capacity(REPS); stages.len()];
        let mut opened = vec![false; stages.len()];
        for _ in 0..REPS {
            spans.clear();
            let start = Instant::now();
            engine.query(sql, mode).unwrap_or_else(|e| panic!("{id}: {e}"));
            total.push(start.elapsed().as_secs_f64() * 1e3);
            let recorded = spans.stages();
            for (s, name) in stages.iter().enumerate() {
                let stage = recorded.iter().find(|stage| stage.name == *name);
                opened[s] |= stage.is_some();
                per_stage[s].push(stage.map_or(0.0, |stage| stage.elapsed.as_secs_f64() * 1e3));
            }
            if let Some(stage) = recorded.iter().find(|stage| !stages.contains(&stage.name)) {
                panic!("{id} opened stage {:?}, which has no column", stage.name);
            }
        }
        let mut line = format!("{id:>22}");
        let total = median(total);
        sums[0] += total;
        line += &format!("{total:>12.2}");
        for (s, times) in per_stage.into_iter().enumerate() {
            let ms = median(times);
            sums[s + 1] += ms;
            line += &if opened[s] { format!("{ms:>12.2}") } else { format!("{:>12}", "-") };
        }
        println!("{line}");
    }
    let sums: Vec<String> = sums.iter().map(|ms| format!("{ms:>12.2}")).collect();
    println!("{:>22}{}", "all", sums.join(""));
}
