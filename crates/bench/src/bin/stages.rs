//! Per-stage time of the exact statements, read from the engine's own
//! spans ([`cvopt_table::spans`]).
//!
//! Registers a generated OpenAQ table of [`ROWS`] rows, the same
//! rows in three shards (`openaq3`) and a 38-row region dimension, attaches
//! a [`Spans`] log to the engine's execution options, and answers nine
//! exact statements — five OpenAQ shapes, an expression aggregate, a JOIN
//! and two shapes over the shards — [`REPS`] times each, at [`THREADS`]
//! threads. It prints, per
//! statement, the median wall-clock of `Engine::query` and the median of
//! each stage the statement opened, in milliseconds; the last row sums
//! every column over the statements.
//!
//! A stage workers run (`fold`, and a JOIN partition's stages) is summed
//! over workers, so at more than one thread it can exceed the wall-clock.
//!
//! ```text
//! cargo run --release -p cvopt-bench --bin stages
//! ```

use std::sync::Arc;
use std::time::Instant;

use cvopt_core::{Engine, ExecOptions, QueryMode, ShardedTable};
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

/// The columns, in print order; a statement that never opens a stage shows
/// `-` there. No shard here is behind a reader, so none opens `walk`.
const STAGES: [&str; 7] = ["encode", "bitmap", "join", "project", "fold", "merge", "readout"];

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
    let (rows, reps, threads) = (ROWS, REPS, THREADS);
    let table = generate_openaq(&OpenAqConfig::with_rows(rows));
    let spans = Arc::new(Spans::new());
    let exec = ExecOptions::new(threads).with_spans(spans.clone());
    let mut engine = Engine::new().with_seed(7).with_exec(exec);
    engine.register("openaq3", ShardedTable::split(&table, 3).expect("split into shards"));
    engine.register("openaq", table);
    engine.register("regions", regions());

    println!("{rows} rows, {threads} threads, median of {reps} runs, ms");
    let header: Vec<String> =
        ["statement", "total"].iter().chain(&STAGES).map(|s| format!("{s:>12}")).collect();
    println!("{}", header.join(""));
    let mut sums = vec![0.0; STAGES.len() + 1];
    for (id, sql) in STATEMENTS {
        let mut total = Vec::with_capacity(reps);
        let mut per_stage = vec![Vec::with_capacity(reps); STAGES.len()];
        let mut opened = [false; STAGES.len()];
        for _ in 0..reps {
            spans.clear();
            let start = Instant::now();
            engine.query(sql, QueryMode::Exact).unwrap_or_else(|e| panic!("{id}: {e}"));
            total.push(start.elapsed().as_secs_f64() * 1e3);
            let stages = spans.stages();
            for (s, name) in STAGES.iter().enumerate() {
                let stage = stages.iter().find(|stage| stage.name == *name);
                opened[s] |= stage.is_some();
                per_stage[s].push(stage.map_or(0.0, |stage| stage.elapsed.as_secs_f64() * 1e3));
            }
            if let Some(stage) = stages.iter().find(|stage| !STAGES.contains(&stage.name)) {
                panic!("{id} opened stage {:?}, which has no column", stage.name);
            }
        }
        let mut line = format!("{id:>12}");
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
    println!("{:>12}{}", "all", sums.join(""));
}
