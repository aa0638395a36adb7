//! Streaming ingest: a windowed table whose workload-tuned sample is
//! **maintained** as batches arrive — the engine's one incremental path.
//! Two queries log a workload, `reoptimize` consolidates it into one
//! durable sample, every `ingest` folds its batch into that sample without
//! another statistics pass, and `rotate` retires the oldest rows.
//!
//! Run with: `cargo run --release --example streaming`

use cvopt_core::{Engine, QueryMode};
use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_table::time::epoch_seconds;

const BASE_ROWS: usize = 200_000;
const BATCH_ROWS: usize = 5_000;
const BATCHES: usize = 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = generate_openaq(&OpenAqConfig::with_rows(BASE_ROWS));
    // The stream: a second draw of the same generator, cut into batches.
    let stream = generate_openaq(&OpenAqConfig {
        rows: BATCH_ROWS * BATCHES,
        seed: 0xB47C4,
        ..OpenAqConfig::default()
    });

    let mut engine = Engine::new().with_seed(5);
    engine.register_windowed("openaq", base, "local_time")?;

    let by_country = "SELECT country, AVG(value) FROM openaq GROUP BY country";
    let by_parameter =
        "SELECT country, parameter, AVG(value) FROM openaq GROUP BY country, parameter";
    for statement in [by_country, by_parameter] {
        let answer = engine.query(statement, QueryMode::Approximate)?;
        println!("cold:   {}", answer.report.to_line());
    }
    let tuned = engine.reoptimize("openaq")?.expect("two statements were logged");
    println!(
        "tuned:  {} logged statements -> one durable sample, {} strata, {} rows",
        tuned.logged, tuned.strata, tuned.sample_rows
    );

    let passes_before = engine.stats_passes();
    for b in 0..BATCHES {
        let rows: Vec<usize> = (b * BATCH_ROWS..(b + 1) * BATCH_ROWS).collect();
        let report = engine.ingest("openaq", &stream.take(&rows))?;
        if (b + 1) % 5 == 0 {
            println!(
                "ingest: batch {:>2} -> {} rows, {} maintained samples",
                b + 1,
                report.total_rows,
                report.maintained
            );
        }
    }
    println!(
        "statistics passes across {BATCHES} ingests: {passes_before} -> {}",
        engine.stats_passes()
    );

    // The maintained sample answers over the extended table: no new draw.
    let answer = engine.query(by_country, QueryMode::Approximate)?;
    println!("warm:   {}", answer.report.to_line());
    let truth = engine.query(by_country, QueryMode::Exact)?;
    let (mut mean, mut worst) = (0.0f64, 0.0f64);
    for (key, exact) in truth.results[0].iter() {
        let estimate = answer.results[0].value(key, 0).unwrap_or(f64::NAN);
        let err = ((estimate - exact[0]) / exact[0]).abs();
        mean += err;
        worst = worst.max(err);
    }
    let groups = truth.results[0].num_groups();
    println!(
        "AVG(value) per country after ingest: mean err {:.2}%, max err {:.2}% over {groups} groups",
        100.0 * mean / groups as f64,
        100.0 * worst,
    );

    let rotated = engine.rotate("openaq", epoch_seconds(2016, 1, 1, 0, 0, 0))?;
    println!(
        "rotate: retired {} rows, {} remain, {} maintained samples rebuilt",
        rotated.retired, rotated.remaining, rotated.maintained
    );
    Ok(())
}
