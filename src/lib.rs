//! # cvopt
//!
//! Umbrella crate for the CVOPT workspace — a Rust implementation of
//! *"Random Sampling for Group-By Queries"* (Nguyen et al., ICDE 2020)
//! grown into a parallel sampling system.
//!
//! Each member crate is re-exported under a short alias so downstream code
//! can depend on one crate:
//!
//! * [`table`] — columnar table engine, exact group-by executor, and the
//!   deterministic chunked-parallel execution layer ([`table::exec`]).
//! * [`core`] — the CVOPT sampler: statistics, allocation, stratified
//!   draw, estimation, incremental maintenance.
//! * [`serve`] — the HTTP serving layer: a shared engine behind a
//!   threaded accept-loop → bounded-queue → worker-pool pipeline.
//! * [`baselines`] — competing samplers (Uniform, CS, RL, Sample+Seek).
//! * [`datagen`] — seeded synthetic datasets (OpenAQ-like, bike-share).
//! * [`eval`] — the paper's experiment harness.

pub use cvopt_baselines as baselines;
pub use cvopt_core as core;
pub use cvopt_datagen as datagen;
pub use cvopt_eval as eval;
pub use cvopt_serve as serve;
pub use cvopt_table as table;

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_work() {
        use crate::table::{DataType, TableBuilder, Value};
        let mut b = TableBuilder::new(&[("g", DataType::Str)]);
        b.push_row(&[Value::str("x")]).unwrap();
        assert_eq!(b.finish().num_rows(), 1);
    }
}
