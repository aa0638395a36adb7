//! Deterministic chunked-parallel execution.
//!
//! Every per-row hot path in the workspace — the grouping walk behind the
//! group index, exact and estimated group-by scans and the strata pass
//! (whose runs the statistics fold and the stratified draw read), predicate
//! evaluation, the join probe — runs through this module's drivers. A
//! partition writes only what it owns: its own partial, or its own disjoint
//! block of an output, handed out by safe slice splitting. The design
//! invariant is **thread-count independence**: results are bit-identical
//! whatever `threads` is, because
//!
//! 1. work is split into *partitions* whose boundaries depend only on the
//!    input size (fixed [`CHUNK_ROWS`]-row chunks), never on the thread
//!    count — threads merely pull partitions from a shared queue; and
//! 2. per-partition results are reduced **in partition order**, so even
//!    non-associative float accumulation rounds identically every run.
//!
//! This is the partitioned hash-aggregation layout (per-thread state, one
//! ordered merge) that the group-by literature recommends for exactly this
//! workload, with determinism layered on top so that seeded sampling is
//! reproducible on any machine.
//!
//! Partition boundaries are multiples of 64, so bitmap producers can write
//! whole words without synchronization.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::spans::Spans;

/// Rows per partition (2^16, a multiple of 64). Chosen so a partition's
/// working set stays cache-friendly while keeping per-partition overhead
/// negligible; on a 1M-row table this yields 16 partitions.
pub const CHUNK_ROWS: usize = 1 << 16;

/// Rows per run: the unit a partition is walked and evaluated in, a block
/// at a time (a multiple of 64 that divides [`CHUNK_ROWS`]), so a run's
/// keys, slots and expression values stay in the first-level cache.
pub const RUN_ROWS: usize = 1024;

/// Thread-count options for the partitioned drivers.
///
/// The default is one thread per available core
/// (`std::thread::available_parallelism`). Because results never depend on
/// the thread count, callers choose purely on deployment grounds:
/// [`ExecOptions::sequential`] for embedding in an outer parallel
/// scheduler, explicit counts for benchmarking, a per-request slice of a
/// server-wide budget for serving.
///
/// ```
/// use cvopt_table::exec::ExecOptions;
/// use cvopt_table::{sql, DataType, TableBuilder, Value};
///
/// let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
/// for i in 0..500u32 {
///     b.push_row(&[Value::str(["a", "b"][(i % 2) as usize]), Value::Float64(i as f64)]).unwrap();
/// }
/// let table = b.finish();
///
/// let stmt = "SELECT g, AVG(x) FROM t GROUP BY g";
/// let sequential = sql::run_with(&table, stmt, &ExecOptions::sequential()).unwrap();
/// for threads in [2, 8] {
///     let parallel = sql::run_with(&table, stmt, &ExecOptions::new(threads)).unwrap();
///     // Bit-identical for any worker count: partials merge in partition
///     // order, so even float rounding is the same.
///     assert_eq!(parallel[0].values, sequential[0].values);
/// }
/// ```
///
/// A [`Spans`] log attached with [`ExecOptions::with_spans`] receives the
/// per-stage time of every pass run under these options; it never changes
/// what a pass computes.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    threads: usize,
    spans: Option<Arc<Spans>>,
}

impl ExecOptions {
    /// Exactly `threads` worker threads (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ExecOptions { threads: threads.max(1), spans: None }
    }

    /// One worker per available core, unless the `CVOPT_THREADS`
    /// environment variable overrides the count (CI pins it to exercise
    /// fixed concurrency levels; results are identical either way).
    ///
    /// An unparsable, empty, or zero override is **not** silently ignored:
    /// it logs one warning per process and falls back to the core count.
    pub fn auto() -> Self {
        if let Ok(raw) = std::env::var("CVOPT_THREADS") {
            match parse_threads_override(&raw) {
                Ok(threads) => return ExecOptions::new(threads),
                Err(reason) => {
                    static WARNED: std::sync::Once = std::sync::Once::new();
                    WARNED.call_once(|| {
                        eprintln!(
                            "warning: ignoring CVOPT_THREADS={raw:?} ({reason}); \
                             falling back to one worker per available core"
                        );
                    });
                }
            }
        }
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ExecOptions::new(threads)
    }

    /// Single-threaded execution (same results, no thread spawns).
    pub fn sequential() -> Self {
        ExecOptions::new(1)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Record the time of every stage run under these options in `spans`.
    pub fn with_spans(mut self, spans: Arc<Spans>) -> Self {
        self.spans = Some(spans);
        self
    }

    /// The attached span log, if any.
    pub fn spans(&self) -> Option<&Spans> {
        self.spans.as_deref()
    }

    /// Run `f` as one span of stage `name`: timed into the attached log, or
    /// just run when there is none.
    #[inline]
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(spans) = &self.spans else { return f() };
        let start = Instant::now();
        let out = f();
        spans.record(name, start.elapsed());
        out
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions::auto()
    }
}

/// Validate a `CVOPT_THREADS` override value. Zero is rejected alongside
/// garbage: an explicit "no workers" request has no sensible meaning, and
/// clamping it to 1 silently would hide a misconfigured environment.
fn parse_threads_override(raw: &str) -> std::result::Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("value is empty".to_string());
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err("thread count must be at least 1".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("'{trimmed}' is not a positive integer")),
    }
}

/// A half-open row interval `[start, end)` processed by one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRange {
    /// First row of the partition.
    pub start: usize,
    /// One past the last row.
    pub end: usize,
}

impl RowRange {
    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range covers no rows.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Iterate the rows of the range.
    pub fn rows(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// The range cut into consecutive runs of at most [`RUN_ROWS`] rows, in
    /// order: runs of a range that starts on a multiple of 64 start on one
    /// too.
    pub fn runs(self) -> impl Iterator<Item = RowRange> {
        (self.start..self.end)
            .step_by(RUN_ROWS)
            .map(move |start| RowRange { start, end: self.end.min(start + RUN_ROWS) })
    }
}

/// Split `n_rows` into fixed-size partitions. Depends only on `n_rows` —
/// never on the thread count — which is what makes every driver below
/// deterministic.
pub fn partition_rows(n_rows: usize) -> Vec<RowRange> {
    if n_rows == 0 {
        return vec![RowRange { start: 0, end: 0 }];
    }
    (0..n_rows.div_ceil(CHUNK_ROWS))
        .map(|i| RowRange { start: i * CHUNK_ROWS, end: ((i + 1) * CHUNK_ROWS).min(n_rows) })
        .collect()
}

/// The scatter-gather driver: run `map` over every partition of
/// `0..n_rows` (in parallel, work-stealing over a shared queue), then hand
/// the per-partition results — **in partition order** — to `reduce`.
///
/// `map` receives `(partition_index, range)`. Fallible maps simply return
/// `Result` and let `reduce` collect.
pub fn run_partitioned<T, U, M, R>(n_rows: usize, options: &ExecOptions, map: M, reduce: R) -> U
where
    T: Send,
    M: Fn(usize, RowRange) -> T + Sync,
    R: FnOnce(Vec<T>) -> U,
{
    let partitions = partition_rows(n_rows);
    reduce(run_queue(partitions.len(), options, |i| map(i, partitions[i])))
}

/// Like [`run_partitioned`], but folds each partial into an accumulator
/// **in partition order** as partials arrive, instead of materializing all
/// of them first. Use this when a partial is heavy (a whole per-group state
/// table): peak memory is O(threads + reorder skew) partials rather than
/// O(partitions).
///
/// Returns `init` folded with every partial, partition 0 first. The fold
/// sequence is identical for any thread count, so float accumulation
/// rounds identically.
pub fn fold_partitioned<T, U, M, F>(
    n_rows: usize,
    options: &ExecOptions,
    init: U,
    map: M,
    mut fold: F,
) -> U
where
    T: Send,
    M: Fn(usize, RowRange) -> T + Sync,
    F: FnMut(&mut U, T),
{
    let partitions = partition_rows(n_rows);
    let n = partitions.len();
    let threads = options.threads().min(n);
    let mut acc = init;
    if threads <= 1 || n <= 1 {
        for (i, &range) in partitions.iter().enumerate() {
            fold(&mut acc, map(i, range));
        }
        return acc;
    }

    let next = AtomicUsize::new(0);
    // Bounded channel: backpressure keeps at most O(threads) partials in
    // flight even when workers outpace the merging consumer, enforcing the
    // memory bound this driver exists for.
    let (sender, receiver) = std::sync::mpsc::sync_channel::<(usize, T)>(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let sender = sender.clone();
            scope.spawn(|| {
                let sender = sender;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if sender.send((i, map(i, partitions[i]))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(sender);

        // Fold strictly in partition order; out-of-order arrivals wait in a
        // reorder buffer whose size is bounded by scheduling skew.
        let mut pending: std::collections::BTreeMap<usize, T> = std::collections::BTreeMap::new();
        let mut expected = 0usize;
        for (i, partial) in receiver {
            pending.insert(i, partial);
            while let Some(partial) = pending.remove(&expected) {
                fold(&mut acc, partial);
                expected += 1;
            }
        }
        assert_eq!(expected, n, "every partition folded exactly once");
        acc
    })
}

/// Run `work` for every index in `0..n_items` with dynamic scheduling and
/// return the results in index order. This is the driver for *item*-grained
/// parallelism (one stratum, one dimension, one query) where per-item cost
/// is uneven; determinism holds because each item's result depends only on
/// its index.
pub fn run_indexed<T, W>(n_items: usize, options: &ExecOptions, work: W) -> Vec<T>
where
    T: Send,
    W: Fn(usize) -> T + Sync,
{
    run_queue(n_items, options, work)
}

/// Shared work-queue executor: `work(i)` for `i in 0..n_items`, results in
/// index order.
fn run_queue<T, W>(n_items: usize, options: &ExecOptions, work: W) -> Vec<T>
where
    T: Send,
    W: Fn(usize) -> T + Sync,
{
    let threads = options.threads().min(n_items.max(1));
    if threads <= 1 || n_items <= 1 {
        return (0..n_items).map(work).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n_items);
    slots.resize_with(n_items, || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| {
                let mut produced: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_items {
                        break;
                    }
                    produced.push((i, work(i)));
                }
                produced
            }));
        }
        for handle in handles {
            for (i, value) in handle.join().expect("exec worker panicked") {
                slots[i] = Some(value);
            }
        }
    });

    slots.into_iter().map(|s| s.expect("every work item produced a result")).collect()
}

/// Mutate `data` in parallel, split into `chunk`-element blocks: `f` is
/// called with `(block_index, block)` for each disjoint block, and what it
/// returns comes back **in block order**. Blocks are distributed
/// round-robin over the workers; because each block is touched by exactly
/// one closure invocation, no synchronization is needed.
///
/// Used where each output element belongs to exactly one partition:
/// interning per-row ids in place, remapping them, filling bitmap words.
pub fn for_each_chunk_mut<T, R, F>(
    data: &mut [T],
    chunk: usize,
    options: &ExecOptions,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let n_blocks = data.len().div_ceil(chunk);
    let threads = options.threads().min(n_blocks.max(1));
    if threads <= 1 || n_blocks <= 1 {
        return data.chunks_mut(chunk).enumerate().map(|(i, block)| f(i, block)).collect();
    }

    let mut per_worker: Vec<Vec<(usize, &mut [T])>> = Vec::new();
    per_worker.resize_with(threads, Vec::new);
    for (i, block) in data.chunks_mut(chunk).enumerate() {
        per_worker[i % threads].push((i, block));
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n_blocks);
    slots.resize_with(n_blocks, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_worker
            .into_iter()
            .map(|assigned| {
                scope.spawn(|| {
                    assigned.into_iter().map(|(i, block)| (i, f(i, block))).collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("exec worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every block produced a result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_override_accepts_positive_integers() {
        assert_eq!(parse_threads_override("1"), Ok(1));
        assert_eq!(parse_threads_override("8"), Ok(8));
        assert_eq!(parse_threads_override(" 4 "), Ok(4), "whitespace is trimmed");
    }

    #[test]
    fn threads_override_rejects_zero() {
        let err = parse_threads_override("0").unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn threads_override_rejects_garbage() {
        let err = parse_threads_override("abc").unwrap_err();
        assert!(err.contains("abc"), "{err}");
        assert!(parse_threads_override("-3").is_err());
        assert!(parse_threads_override("1.5").is_err());
    }

    #[test]
    fn threads_override_rejects_empty() {
        let err = parse_threads_override("").unwrap_err();
        assert!(err.contains("empty"), "{err}");
        assert!(parse_threads_override("   ").is_err());
    }

    #[test]
    fn partitions_cover_exactly() {
        for n in [0usize, 1, 63, 64, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 1_000_000] {
            let parts = partition_rows(n);
            assert_eq!(parts[0].start, 0);
            assert_eq!(parts.last().unwrap().end, n);
            for w in parts.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                // All boundaries are word-aligned for bitmap writers.
                assert_eq!(w[0].end % 64, 0);
            }
            let total: usize = parts.iter().map(|r| r.len()).sum();
            assert_eq!(total, n);
        }
    }

    #[test]
    fn reduce_sees_partition_order() {
        let n = 3 * CHUNK_ROWS + 17;
        for threads in [1, 2, 8] {
            let options = ExecOptions::new(threads);
            let order = run_partitioned(n, &options, |i, r| (i, r.start), |parts| parts);
            let expected: Vec<(usize, usize)> = (0..4).map(|i| (i, i * CHUNK_ROWS)).collect();
            assert_eq!(order, expected, "threads = {threads}");
        }
    }

    #[test]
    fn partitioned_sum_is_thread_count_independent() {
        // Non-associative float accumulation: the canonical case where
        // naive parallel reduction varies with the thread count.
        let n = 2 * CHUNK_ROWS + 999;
        let value = |row: usize| 1.0f64 / (1.0 + row as f64);
        let sum_with = |threads: usize| {
            run_partitioned(
                n,
                &ExecOptions::new(threads),
                |_, r| r.rows().map(value).sum::<f64>(),
                |parts| parts.into_iter().fold(0.0f64, |a, b| a + b),
            )
        };
        let reference = sum_with(1);
        for threads in [2, 3, 8, 64] {
            let got = sum_with(threads);
            assert_eq!(got.to_bits(), reference.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn fold_matches_run_for_any_thread_count() {
        let n = 5 * CHUNK_ROWS + 321;
        let value = |row: usize| 1.0f64 / (1.0 + row as f64);
        let via_run = run_partitioned(
            n,
            &ExecOptions::sequential(),
            |_, r| r.rows().map(value).sum::<f64>(),
            |parts| parts.into_iter().fold(0.0f64, |a, b| a + b),
        );
        for threads in [1usize, 2, 3, 8] {
            let via_fold = fold_partitioned(
                n,
                &ExecOptions::new(threads),
                0.0f64,
                |_, r| r.rows().map(value).sum::<f64>(),
                |acc, part| *acc += part,
            );
            assert_eq!(via_fold.to_bits(), via_run.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn fold_applies_in_partition_order() {
        let n = 4 * CHUNK_ROWS;
        for threads in [1usize, 2, 8] {
            let order = fold_partitioned(
                n,
                &ExecOptions::new(threads),
                Vec::new(),
                |i, _| vec![i],
                |acc, part| acc.extend(part),
            );
            assert_eq!(order, vec![0, 1, 2, 3], "threads = {threads}");
        }
    }

    #[test]
    fn run_indexed_orders_results() {
        for threads in [1, 4] {
            let got = run_indexed(100, &ExecOptions::new(threads), |i| i * i);
            let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn run_indexed_empty() {
        let got: Vec<u32> = run_indexed(0, &ExecOptions::new(4), |_| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn chunked_mut_touches_every_element_once() {
        for threads in [1, 3, 8] {
            let mut data = vec![0u32; 10 * 1000 + 123];
            let lens =
                for_each_chunk_mut(&mut data, 1000, &ExecOptions::new(threads), |i, block| {
                    for (j, v) in block.iter_mut().enumerate() {
                        *v += (i * 1000 + j) as u32 + 1;
                    }
                    (i, block.len())
                });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
            let expected: Vec<_> = (0..11).map(|i| (i, if i < 10 { 1000 } else { 123 })).collect();
            assert_eq!(lens, expected, "results come back in block order");
        }
    }

    #[test]
    fn zero_rows_single_empty_partition() {
        let parts = partition_rows(0);
        assert_eq!(parts.len(), 1);
        assert!(parts[0].is_empty());
        let out = run_partitioned(0, &ExecOptions::auto(), |_, r| r.len(), |p| p);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn options_clamp_and_default() {
        assert_eq!(ExecOptions::new(0).threads(), 1);
        assert_eq!(ExecOptions::sequential().threads(), 1);
        assert!(ExecOptions::default().threads() >= 1);
    }

    #[test]
    fn errors_propagate_through_reduce() {
        let result: Result<Vec<usize>, String> = run_partitioned(
            3 * CHUNK_ROWS,
            &ExecOptions::new(2),
            |i, r| if i == 1 { Err(format!("partition {i}")) } else { Ok(r.len()) },
            |parts| parts.into_iter().collect(),
        );
        assert_eq!(result.unwrap_err(), "partition 1");
    }
}
