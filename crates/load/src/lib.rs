//! # cvopt-load
//!
//! The deterministic serving-*counter* harness for the CVOPT serving
//! layer: a seeded workload mix (cache-hot, cache-cold, and exact
//! statements over the OpenAQ fixture), a worker pool driving persistent
//! [`cvopt_serve::Client`] connections, and a snapshot writer that records
//! the run into `BENCH_serving.json`. Serving *latency* is measured by
//! `benchmark/`'s `serve_cached` workload, not here.
//!
//! Every snapshot row is a counter — statistics passes, cache
//! hits/misses/evictions, bytes held, keep-alive reuses, client connects —
//! and a pure function of the seeded schedule: the engine coalesces
//! concurrent misses, so even under a racing worker pool the totals are
//! fixed. CI regenerates the committed file and fails on any `git diff`.
//!
//! The `cvopt-load` binary ties the pieces together: it spawns an
//! in-process [`cvopt_serve::Server`], seeds the engine's query log with
//! the hot/cold statements, consolidates the log through `POST
//! /reoptimize`, replays the full schedule concurrently (the derived pool
//! is answered by the reuse planner — `draws_avoided` stays above zero by
//! construction), then runs a sequential phase against a tiny cache budget
//! (deterministic evictions) and a streaming-ingest phase, and writes the
//! snapshot. See the README's "Serving" section for usage.

#![warn(missing_docs)]

pub mod mix;
pub mod report;
pub mod runner;

pub use mix::{expected, schedule, seeding, Class, Expected, Statement};
pub use report::{snapshot_json, write_snapshot, Row};
pub use runner::{run, RunConfig, RunReport};
