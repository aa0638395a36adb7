//! # cvopt-bench
//!
//! Three binaries and no timing code: [`reproduce`](../src/bin/reproduce.rs)
//! regenerates every table and figure of the paper (see `DESIGN.md` §4 for
//! the experiment index and `EXPERIMENTS.md` for recorded outputs);
//! `counters` records the deterministic counters of a canned workload into
//! `BENCH_counters.json`; `bench_diff` gates a PR on them. Wall-clock
//! numbers come from the standalone `benchmark/` package only.

/// Sizes the counter workload shares.
pub mod fixtures {
    /// Rows of the large plan-shape fixture (spans 16 partitions of the
    /// execution layer).
    pub const SCALING_ROWS: usize = 1_048_576;
}
