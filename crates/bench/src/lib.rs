//! # cvopt-bench
//!
//! Two binaries and no timing code: [`reproduce`](../src/bin/reproduce.rs)
//! regenerates every table and figure of the paper (`reproduce --help`
//! lists the experiment ids); `counters` records the deterministic
//! counters of canned workloads — the seeded serving [`mix`] among them —
//! into `BENCH_counters.json`, which CI regenerates and gates with
//! `git diff`. Wall-clock numbers come from the standalone `benchmark/`
//! package only.

pub mod mix;

/// Sizes the counter workload shares.
pub mod fixtures {
    /// Rows of the large plan-shape fixture (spans 16 partitions of the
    /// execution layer).
    pub const SCALING_ROWS: usize = 1_048_576;
}
