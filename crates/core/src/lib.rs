//! # cvopt-core
//!
//! A faithful implementation of **CVOPT** — the query- and data-driven
//! stratified sampling framework of *"Random Sampling for Group-By Queries"*
//! (Nguyen, Shih, Parvathaneni, Xu, Srivastava, Tirthapura; ICDE 2020,
//! [arXiv:1909.02629](https://arxiv.org/abs/1909.02629)).
//!
//! Given a table, a set of group-by queries, and a row budget `M`, CVOPT
//! builds a stratified random sample whose per-stratum sizes *provably
//! minimize* the ℓ2 (or ℓ∞) norm of the coefficients of variation of all
//! per-group estimates.
//!
//! ## Pipeline
//!
//! 1. **Spec** ([`SamplingProblem`], [`QuerySpec`]) — which queries must the
//!    sample answer, with what weights, under which norm.
//! 2. **Statistics** ([`stats::StratumStatistics`]) — one pass computing
//!    `(n_c, μ_{c,ℓ}, σ²_{c,ℓ})` per finest stratum.
//! 3. **Allocation** ([`alloc`]) — the β coefficients of the paper's
//!    Theorems 1–2 / Lemmas 2–3 and the box-constrained √β-proportional
//!    solve (or the ℓ∞ binary search of §5).
//! 4. **Draw** ([`sample`]) — per-stratum reservoir sampling in a second
//!    pass, materialized with Horvitz–Thompson weights.
//! 5. **Estimate** ([`estimate`], [`confidence`]) — answer (possibly
//!    *new*) group-by queries, with predicates supplied at query time,
//!    from the sample: the exact executor's one aggregation pass
//!    ([`cvopt_table::GroupByQuery::aggregate`]) run with a weighted
//!    accumulator, plus one confidence pass for the error bars of every
//!    `AVG`, both over packed keys and a predicate bitmap built once.
//!
//! For serving workloads, the recommended entry point is the long-lived
//! [`Engine`] (see [`engine`]): a table catalog, a prepared-sample cache
//! keyed by canonical problem fingerprints ([`SamplingProblem::fingerprint`]
//! — structurally equal problems hash equal, so repeat queries are
//! zero-scan cache hits), and a unified exact/approximate SQL front-end
//! ([`Engine::query`] with [`QueryMode`]). The engine is safe to share
//! across threads (`&self` queries, coalesced cache misses); the
//! `cvopt-serve` crate wraps it in an HTTP server. The one-call low-level
//! primitive is [`CvOptSampler`]:
//!
//! ```
//! use cvopt_core::{budget_for_rate, CvOptSampler, QuerySpec, SamplingProblem};
//! use cvopt_core::estimate::estimate_single;
//! use cvopt_table::{sql, DataType, TableBuilder, Value};
//!
//! // A toy table: sensor values grouped by country.
//! let mut b = TableBuilder::new(&[("country", DataType::Str), ("value", DataType::Float64)]);
//! for i in 0..5000u32 {
//!     let c = ["US", "VN", "IN"][(i % 3) as usize];
//!     b.push_row(&[Value::str(c), Value::Float64(1.0 + (i % 101) as f64)]).unwrap();
//! }
//! let table = b.finish();
//!
//! // Build a 2% CVOPT sample optimized for AVG(value) GROUP BY country.
//! let problem = SamplingProblem::single(
//!     QuerySpec::group_by(&["country"]).aggregate("value"),
//!     budget_for_rate(&table, 0.02).unwrap(),
//! );
//! let outcome = CvOptSampler::new(problem).with_seed(42).sample(&table).unwrap();
//!
//! // Approximate the query from the sample.
//! let query = sql::compile("SELECT country, AVG(value) FROM t GROUP BY country").unwrap();
//! let approx = estimate_single(&outcome.sample, &query).unwrap();
//! assert_eq!(approx.num_groups(), 3);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod confidence;
pub mod engine;
pub mod error;
pub mod estimate;
pub mod framework;
pub(crate) mod maintain;
pub mod sample;
pub mod spec;
pub mod stats;
pub mod workload;

pub use alloc::{
    compute_betas, linf_allocation, lp_allocation, proportional_allocation, sqrt_allocation,
    Allocation,
};
pub use confidence::{estimate_avg_with_error, AvgEstimate};
pub use cvopt_table::exec::ExecOptions;
pub use cvopt_table::{LocalShard, RowSpace, ShardReader, ShardSet, ShardedTable};
pub use engine::{
    problem_for_query, AggConfidence, CatalogTable, Engine, ExplainReport, IngestReport,
    QueryAnswer, QueryLogEntry, QueryMode, ReoptimizeReport, ReuseInfo, RotateReport, SampleHandle,
};
pub use error::CvError;
pub use framework::{
    budget_for_rate, budget_for_rows, total_draws, total_draws_avoided, CvOptOutcome, CvOptPlan,
    CvOptSampler,
};
pub use sample::{MaterializedSample, Reservoir, StratifiedSample};
pub use spec::{
    conjunction_atoms, predicate_subsumes, AggColumn, Fingerprinter, Norm, QuerySpec,
    SamplingProblem, VarianceKind,
};
pub use stats::{total_stats_passes, StratumStatistics};
pub use workload::{Workload, WorkloadQuery};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CvError>;
