//! Per-stage wall-clock spans: where a statement's time went.
//!
//! A [`Spans`] log rides in [`ExecOptions`](crate::exec::ExecOptions). With
//! no log attached, [`ExecOptions::span`](crate::exec::ExecOptions::span)
//! is one `None` check around the stage; with one, it times the stage and
//! adds the elapsed time to that stage's total. Nothing a span records
//! reaches an answer, so answers and response bytes are the same with and
//! without a log.
//!
//! The stages the aggregation pass opens, in the order a statement meets
//! them:
//!
//! | stage        | what it times                                                      |
//! |--------------|--------------------------------------------------------------------|
//! | `encode`     | `RowKeys::encode`: the statement's packed grouping keys            |
//! | `bitmap`     | the predicate bitmap                                               |
//! | `join`       | a JOIN's hash join (opened by the engine)                          |
//! | `project`    | a JOIN's projection of one joined partition                        |
//! | `walk`       | the walks of shards behind readers, their answers merged           |
//! | `fold`       | one partition's fold into its slot states                          |
//! | `merge`      | the partition-order merge of one partial into the groups           |
//! | `readout`    | the projection onto each grouping set and the result assembly      |
//! | `confidence` | an answer's confidence pass over its sample (opened by the engine) |
//!
//! A stage that workers run — `fold`, and a JOIN partition's `encode`,
//! `bitmap` and `project` — records each partition's time, so its total is
//! the time summed over workers, which exceeds wall-clock on more than one
//! thread.

use std::sync::Mutex;
use std::time::Duration;

/// One stage's total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// The stage's name.
    pub name: &'static str,
    /// Time spent in it, summed over every span.
    pub elapsed: Duration,
}

/// A log of per-stage totals, shared by every worker of the statements it
/// is attached to.
#[derive(Debug, Default)]
pub struct Spans {
    stages: Mutex<Vec<Stage>>,
}

impl Spans {
    /// An empty log.
    pub fn new() -> Self {
        Spans::default()
    }

    /// Add one span of `elapsed` to stage `name`.
    pub(crate) fn record(&self, name: &'static str, elapsed: Duration) {
        let mut stages = self.stages.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        match stages.iter_mut().find(|stage| stage.name == name) {
            Some(stage) => stage.elapsed += elapsed,
            None => stages.push(Stage { name, elapsed }),
        }
    }

    /// Every stage recorded so far, in the order each was first recorded.
    pub fn stages(&self) -> Vec<Stage> {
        self.stages.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).clone()
    }

    /// Forget every stage: the next statement starts from an empty log.
    pub fn clear(&self) {
        self.stages.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecOptions;
    use crate::{sql, DataType, TableBuilder, Value};
    use std::sync::Arc;

    fn stage_names(spans: &Spans) -> Vec<&'static str> {
        spans.stages().iter().map(|stage| stage.name).collect()
    }

    #[test]
    fn stages_total_in_first_recorded_order() {
        let spans = Spans::new();
        spans.record("fold", Duration::from_micros(3));
        spans.record("merge", Duration::from_micros(1));
        spans.record("fold", Duration::from_micros(4));
        assert_eq!(stage_names(&spans), ["fold", "merge"]);
        assert_eq!(spans.stages()[0].elapsed, Duration::from_micros(7));
        spans.clear();
        assert!(spans.stages().is_empty());
    }

    /// A statement opens its stages on the attached log, and answers the
    /// same bits with and without one.
    #[test]
    fn an_exact_statement_opens_its_stages_and_answers_the_same() {
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        for i in 0..100 {
            b.push_row(&[Value::str(["a", "b", "c"][i % 3]), Value::Float64(i as f64)]).unwrap();
        }
        let table = b.finish();
        let stmt = "SELECT g, AVG(x), COUNT(*) FROM t WHERE x > 10 GROUP BY g";
        let plain = sql::run_with(&table, stmt, &ExecOptions::sequential()).unwrap();
        let spans = Arc::new(Spans::new());
        let traced = ExecOptions::sequential().with_spans(spans.clone());
        let got = sql::run_with(&table, stmt, &traced).unwrap();
        assert_eq!(format!("{got:?}"), format!("{plain:?}"));
        assert_eq!(stage_names(&spans), ["encode", "bitmap", "fold", "merge", "readout"]);
        assert!(ExecOptions::sequential().spans().is_none());
    }
}
