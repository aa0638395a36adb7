//! The fixed load shape, the closed measuring loop, and the arithmetic that
//! turns its samples into metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cvopt_core::ExecOptions;

use crate::trace::Tracer;

/// Engine worker threads, client connections and shard servers: a constant,
/// not the core count, so numbers compare across machines.
pub const BENCH_THREADS: usize = 2;

pub fn exec() -> ExecOptions {
    ExecOptions::new(BENCH_THREADS)
}

/// Input sizes of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub openaq_rows: usize,
    pub bikes_rows: usize,
    /// Sampling rate of every engine but `serve_cached`'s: the paper's 1 %.
    /// The smoke scale raises it so budgets still cover the stratum counts.
    pub sample_rate: f64,
    /// Sampling rate of the `serve_cached` engine, which sizes its durable
    /// sample. The four-column stratification has ~65 K strata at full
    /// scale; a budget below the stratum count (the default 1 % is ~10 K
    /// rows) would leave exact groups without a single sampled row.
    pub durable_rate: f64,
    pub ingest_base_rows: usize,
    pub ingest_batch_rows: usize,
    pub ingest_batches: usize,
    /// A window stays open until it holds this many primary operations.
    pub min_primary_ops: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

pub const FULL: Scale = Scale {
    openaq_rows: 1_048_576,
    bikes_rows: 524_288,
    sample_rate: 0.01,
    durable_rate: 0.125,
    ingest_base_rows: 400_000,
    ingest_batch_rows: 5_000,
    ingest_batches: 40,
    min_primary_ops: 200,
    setup_repeats: 3,
};

/// `--quick`: a smoke run, one round of everything in a few seconds.
pub const QUICK: Scale = Scale {
    openaq_rows: 20_480,
    bikes_rows: 10_240,
    sample_rate: 0.25,
    durable_rate: 1.0,
    ingest_base_rows: 8_000,
    ingest_batch_rows: 500,
    ingest_batches: 8,
    min_primary_ops: 1,
    setup_repeats: 1,
};

/// SplitMix64: derives per-round engine seeds and the statement order from
/// `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates over `0..n`, driven by `seed`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
    }
    order
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples a tail percentile needs so that at least ten lie beyond it.
pub fn samples_needed(p: f64) -> usize {
    (10.0 / (1.0 - p)).ceil() as usize
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Operations judged so far, and why the failed ones failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the operator.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one attempted operation; `why` is set when it failed.
    pub fn count(&mut self, name: &str, why: Option<String>) {
        self.attempted += 1;
        if let Some(why) = why {
            self.failed += 1;
            self.failures.push(format!("{name}: {why}"));
            self.failures.truncate(5);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
    }
}

/// What one measuring window collected.
#[derive(Debug)]
pub struct Recorder {
    started: Instant,
    untimed: Duration,
    /// Latency of every primary operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Every call completed (primary or not).
    pub calls: u64,
    pub tally: Tally,
    /// Whether approximate answers of the current round feed the error
    /// metrics.
    pub scoring: bool,
    /// Relative-error terms of the scored rounds: all of them, and their
    /// sum and count per statement.
    pub err_terms: Vec<f64>,
    pub stmt_errs: BTreeMap<usize, (f64, usize)>,
    pub tracer: Option<Tracer>,
    next_op: u64,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        let started = Instant::now();
        Recorder {
            started,
            untimed: Duration::ZERO,
            latencies_ms: Vec::new(),
            calls: 0,
            tally: Tally::default(),
            scoring: false,
            err_terms: Vec::new(),
            stmt_errs: BTreeMap::new(),
            tracer: traced.then(Tracer::new),
            next_op: 0,
        }
    }

    /// Window length so far: wall time minus the untimed sections.
    pub fn measured(&self) -> Duration {
        self.started.elapsed().saturating_sub(self.untimed)
    }

    /// Work that is not part of the workload (rebuilding an engine between
    /// rounds, checking an answer): excluded from the window length.
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.untimed += t.elapsed();
        out
    }

    /// One closed-loop call on behalf of statement `stmt`: time `f`, then
    /// (untimed) judge its output. `check` returns the relative-error terms
    /// of an approximate answer (empty for anything else) or why the
    /// operation failed.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        stmt: usize,
        primary: bool,
        f: impl FnOnce() -> T,
        check: impl FnOnce(&T) -> Result<Vec<f64>, String>,
    ) {
        let op = self.next_op;
        self.next_op += 1;
        let t = Instant::now();
        let out = match &mut self.tracer {
            Some(tracer) => tracer.span(name, op, |_| f()),
            None => f(),
        };
        let elapsed = t.elapsed();
        self.calls += 1;
        if primary {
            self.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        }
        let verdict = self.untimed(|| check(&out));
        self.judge(name, stmt, verdict);
    }

    /// Count one attempted operation of statement `stmt` and its verdict.
    pub fn judge(&mut self, name: &str, stmt: usize, verdict: Result<Vec<f64>, String>) {
        match verdict {
            Ok(terms) => {
                self.tally.count(name, None);
                if self.scoring && !terms.is_empty() {
                    let entry = self.stmt_errs.entry(stmt).or_default();
                    entry.0 += terms.iter().sum::<f64>();
                    entry.1 += terms.len();
                    self.err_terms.extend(terms);
                }
            }
            Err(why) => self.tally.count(name, Some(why)),
        }
    }

    /// A condition that must hold after a round; a violation counts as one
    /// failed operation.
    pub fn invariant(&mut self, name: &str, holds: bool, why: impl FnOnce() -> String) {
        if !holds {
            self.judge(name, 0, Err(why()));
        }
    }

    /// Fold in what a client thread recorded during a round.
    pub fn absorb(&mut self, other: Recorder) {
        self.latencies_ms.extend(other.latencies_ms);
        // Keeps operation ids of later rounds clear of this thread's.
        self.next_op += other.calls;
        self.calls += other.calls;
        self.tally.absorb(other.tally);
        if let (Some(mine), Some(theirs)) = (&mut self.tracer, other.tracer) {
            mine.absorb(theirs);
        }
    }

    /// A recorder for a client thread of this window, tracing if it does.
    pub fn for_thread(&self, thread: u64) -> Recorder {
        let mut rec = Recorder::new(self.tracer.is_some());
        // The thread tag keeps operation ids unique across threads.
        rec.next_op = (thread + 1) << 40 | self.next_op;
        rec
    }
}

/// A workload: builds its inputs, then answers whole rounds of a fixed
/// statement list, each caller waiting for its reply (a closed loop).
pub trait Workload: Sized {
    /// Measured rounds whose approximate answers feed the two error
    /// metrics: a fixed count no window can fall short of (200 primary
    /// operations ÷ primaries per round), so the metrics repeat exactly for
    /// a seed, and as many as that allows, so they vary little across seeds.
    const ACCURACY_ROUNDS: u64;
    /// Data generation, registration, server start, durable prepares. The
    /// seed reaches engines only (as their seed), never the generators.
    fn setup(scale: &Scale, seed: u64) -> Self;
    /// Untimed: fix the statement order from the seed, compute references,
    /// and run the checks that need no timing (their verdicts go to `warm`).
    fn prepare(&mut self, warm: &mut Recorder);
    /// One whole round. `round` selects the engine seed; the warm-up round
    /// passes `u64::MAX`.
    fn round(&mut self, round: u64, rec: &mut Recorder);
    /// Untimed work after the window closes (error metrics not taken from
    /// the measured rounds themselves).
    fn finish(&mut self, _rec: &mut Recorder) {}
    /// Engine counters `(cache_hits, cache_misses, reuse_hits, stats_passes,
    /// cache_bytes_held)` as of now, summed over the engines used so far.
    fn engine_counters(&self) -> [u64; 5];
}

/// The result of one window.
#[derive(Debug)]
pub struct WindowResult {
    pub rec: Recorder,
    pub rounds: u64,
    pub seconds: f64,
    /// Calls per second of each round.
    pub round_rates: Vec<f64>,
}

/// Whole rounds until `seconds` of measured time have passed and the window
/// holds `min_primary_ops` primary operations.
pub fn window<W: Workload>(
    w: &mut W,
    first_round: u64,
    seconds: f64,
    min_primary_ops: usize,
    traced: bool,
) -> WindowResult {
    let mut rec = Recorder::new(traced);
    let mut rounds = 0;
    let mut round_rates = Vec::new();
    loop {
        rec.scoring = first_round + rounds < W::ACCURACY_ROUNDS;
        let (calls, started) = (rec.calls, rec.measured());
        w.round(first_round + rounds, &mut rec);
        round_rates.push((rec.calls - calls) as f64 / (rec.measured() - started).as_secs_f64());
        rounds += 1;
        if rec.measured().as_secs_f64() >= seconds && rec.latencies_ms.len() >= min_primary_ops {
            break;
        }
    }
    let seconds = rec.measured().as_secs_f64();
    WindowResult { rec, rounds, seconds, round_rates }
}

/// Median and the tail percentile of the primary-operation latencies.
pub fn latency_summary(latencies_ms: &[f64]) -> (f64, f64) {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    (percentile(&sorted, 0.5), percentile(&sorted, 0.95))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn the_tail_percentile_has_ten_samples_beyond_it() {
        assert_eq!(samples_needed(0.95), 200);
        assert_eq!(samples_needed(0.99), 1000);
        assert!(FULL.min_primary_ops >= samples_needed(0.95));
        let v: Vec<f64> = (1..=FULL.min_primary_ops).map(|i| i as f64).collect();
        let p95 = percentile(&v, 0.95);
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn shuffles_are_permutations_fixed_by_the_seed() {
        let a = shuffled(11, 42);
        assert_eq!(a, shuffled(11, 42));
        assert_ne!(a, shuffled(11, 43));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn untimed_sections_do_not_count_towards_the_window() {
        let mut rec = Recorder::new(false);
        rec.untimed(|| std::thread::sleep(Duration::from_millis(30)));
        assert!(rec.measured() < Duration::from_millis(25), "{:?}", rec.measured());
        rec.scoring = true;
        rec.call("op", 3, true, || 1, |_| Ok(vec![0.5, 0.1]));
        rec.call("op", 3, true, || 1, |_| Ok(vec![0.3]));
        rec.call("op", 4, false, || 2, |_| Err("wrong".into()));
        assert_eq!((rec.calls, rec.tally.attempted, rec.tally.failed), (3, 3, 1));
        assert_eq!(rec.latencies_ms.len(), 2);
        assert_eq!(rec.err_terms, vec![0.5, 0.1, 0.3]);
        assert!((rec.stmt_errs[&3].0 - 0.9).abs() < 1e-12 && rec.stmt_errs[&3].1 == 3);
        assert_eq!(rec.tally.failures, vec!["op: wrong".to_string()]);
    }
}
