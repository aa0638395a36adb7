//! `ingest_maintain`: a windowed OpenAQ base with three durable samples;
//! per round forty `Engine::ingest` batches, the three approximate
//! statements read back after every tenth batch, and one `Engine::rotate`.
//! Writes beside reads: the incremental use (`core.maintain`) of the same
//! group-index / statistics / draw layers `cold_sample` uses from scratch,
//! so a from-scratch gain that costs the incremental path — or an ingest
//! gain that slows post-ingest reads — shows.

use cvopt_core::{budget_for_rows, problem_for_query, Engine, IngestReport, RotateReport};
use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_table::time::epoch_seconds;
use cvopt_table::{Column, Table};

use super::{add_counters, compile, counters_of, engine_for, Checked, WARMUP_ROUND};
use crate::harness::{Recorder, Scale, Workload};
use crate::statements::INGEST_READS;

/// Generator seed of the ingested stream (the base keeps the default).
const STREAM_SEED: u64 = 0xB47C4;
/// Reads happen after every `batches / READ_POINTS`-th batch.
const READ_POINTS: usize = 4;
const WINDOW_COLUMN: &str = "local_time";

#[derive(Debug)]
pub struct IngestMaintain {
    pub base: Table,
    pub batches: Vec<Table>,
    /// The engine of the next round, built ahead (set-up builds the first).
    next_engine: Option<Engine>,
    /// `reads[p][s]`: statement `s` judged against the table as of read
    /// point `p`.
    reads: Vec<Vec<Checked>>,
    /// Rows with `local_time` at or past this survive the rotation.
    pub cutoff: i64,
    /// Rows the rotation retires from the fully ingested table.
    pub retired: usize,
    seed: u64,
    rate: f64,
    counters: [u64; 5],
}

impl IngestMaintain {
    /// Register the base as a windowed table and prepare the three durable
    /// samples that ingest will maintain.
    pub fn build_engine(&self, round: u64) -> Engine {
        let mut engine = engine_for(self.seed, round, self.rate);
        engine
            .register_windowed("openaq", self.base.clone(), WINDOW_COLUMN)
            .expect("local_time is a timestamp");
        let budget = budget_for_rows(self.base.num_rows(), self.rate).expect("valid rate");
        for stmt in &INGEST_READS {
            let problem = problem_for_query(&compile(stmt), budget).expect("estimable statement");
            engine.prepare("openaq", problem).expect("durable sample");
        }
        engine
    }

    pub fn read_every(&self) -> usize {
        (self.batches.len() / READ_POINTS).max(1)
    }
}

impl Workload for IngestMaintain {
    const ACCURACY_ROUNDS: u64 = 5;

    fn setup(scale: &Scale, seed: u64) -> Self {
        let base = generate_openaq(&OpenAqConfig::with_rows(scale.ingest_base_rows));
        let stream = generate_openaq(&OpenAqConfig {
            rows: scale.ingest_batch_rows * scale.ingest_batches,
            seed: STREAM_SEED,
            ..OpenAqConfig::default()
        });
        let batches = (0..scale.ingest_batches)
            .map(|b| {
                let start = b * scale.ingest_batch_rows;
                stream.take(&(start..start + scale.ingest_batch_rows).collect::<Vec<_>>())
            })
            .collect();
        let mut w = IngestMaintain {
            base,
            batches,
            next_engine: None,
            reads: Vec::new(),
            cutoff: epoch_seconds(2016, 1, 1, 0, 0, 0),
            retired: 0,
            seed,
            rate: scale.sample_rate,
            counters: [0; 5],
        };
        w.next_engine = Some(w.build_engine(WARMUP_ROUND));
        w
    }

    fn prepare(&mut self, _warm: &mut Recorder) {
        // Every round replays the same stream, so the table at each read
        // point — and with it the reference — is the same in every round.
        let every = self.read_every();
        let mut table = self.base.clone();
        for (b, batch) in self.batches.iter().enumerate() {
            table = table.extended(batch).expect("batches share the base schema");
            if (b + 1) % every == 0 {
                self.reads.push(INGEST_READS.iter().map(|s| Checked::new(*s, &table)).collect());
            }
        }
        let Ok(Column::Timestamp(times)) = table.column_by_name(WINDOW_COLUMN) else {
            panic!("{WINDOW_COLUMN} is a timestamp column");
        };
        self.retired = times.iter().filter(|&&t| t < self.cutoff).count();
    }

    fn round(&mut self, round: u64, rec: &mut Recorder) {
        let mut engine = match self.next_engine.take() {
            Some(engine) => engine,
            None => rec.untimed(|| self.build_engine(round)),
        };
        let every = self.read_every();
        let samples = INGEST_READS.len();
        let mut rows = self.base.num_rows();
        for (b, batch) in self.batches.iter().enumerate() {
            rows += batch.num_rows();
            rec.call(
                "core.maintain.ingest",
                0,
                true,
                || engine.ingest("openaq", batch),
                |report| match report {
                    Ok(IngestReport { total_rows, maintained, .. })
                        if *total_rows == rows && *maintained == samples =>
                    {
                        Ok(Vec::new())
                    }
                    Ok(report) => {
                        Err(format!("unexpected {report:?}, table should hold {rows} rows"))
                    }
                    Err(e) => Err(e.to_string()),
                },
            );
            if (b + 1) % every == 0 {
                for (s, stmt) in self.reads[(b + 1) / every - 1].iter().enumerate() {
                    rec.call(
                        "core.maintain.read_after_ingest",
                        s,
                        false,
                        || engine.query(stmt.stmt.sql, stmt.stmt.mode),
                        |answer| stmt.judge(answer),
                    );
                }
            }
        }
        let retired = self.retired;
        rec.call(
            "core.maintain.rotate",
            0,
            false,
            || engine.rotate("openaq", self.cutoff),
            |report| match report {
                Ok(RotateReport { retired: r, maintained, .. })
                    if *r == retired && *maintained == samples =>
                {
                    Ok(Vec::new())
                }
                Ok(report) => Err(format!("unexpected {report:?}, {retired} rows should retire")),
                Err(e) => Err(e.to_string()),
            },
        );
        add_counters(&mut self.counters, counters_of(&engine));
        rec.untimed(|| drop(engine));
    }

    fn engine_counters(&self) -> [u64; 5] {
        self.counters
    }
}
