//! # cvopt-datagen
//!
//! Seeded synthetic datasets standing in for the paper's two real-world
//! corpora (OpenAQ air quality and Divvy bike-share logs), plus the paper's
//! 8-row `Student` example.
//!
//! The generators are deterministic given a seed and reproduce the
//! statistical structure the experiments depend on — Zipf-skewed group
//! volumes, heterogeneous per-group means/variances, small groups,
//! missing-data conventions — without shipping hundreds of gigabytes.

pub mod bikes;
pub mod noise;
pub mod openaq;
pub mod student;
pub mod zipf;

pub use bikes::{generate as generate_bikes, BikesConfig};
pub use openaq::{generate as generate_openaq, OpenAqConfig};
pub use student::student_table;
pub use zipf::Zipf;
