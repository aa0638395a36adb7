//! One module per reproduced paper table/figure, plus ablations.
//!
//! Each `run(scale)` regenerates the rows/series the paper reports and
//! returns a [`Report`]. The `reproduce` binary in
//! `cvopt-bench` drives these.

pub mod ablations;
pub mod figure1;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod figure6;
pub mod table4;
pub mod table5;
pub mod table6;

use crate::report::Report;
use crate::scale::Scale;

/// Ids of all experiments, in paper order.
pub const ALL_IDS: [&str; 13] = [
    "figure1",
    "table4",
    "figure2",
    "figure3",
    "figure4",
    "table5",
    "figure5",
    "table6",
    "figure6",
    "ablation-capping",
    "ablation-variance",
    "ablation-minalloc",
    "ablation-lpnorm",
];

/// Run one experiment by id.
pub fn run_by_id(id: &str, scale: &Scale) -> cvopt_core::Result<Report> {
    match id {
        "figure1" => figure1::run(scale),
        "table4" => table4::run(scale),
        "figure2" => figure2::run(scale),
        "figure3" => figure3::run(scale),
        "figure4" => figure4::run(scale),
        "table5" => table5::run(scale),
        "figure5" => figure5::run(scale),
        "table6" => table6::run(scale),
        "figure6" => figure6::run(scale),
        "ablation-capping" => ablations::run_capping(scale),
        "ablation-variance" => ablations::run_variance(scale),
        "ablation-minalloc" => ablations::run_minalloc(scale),
        "ablation-lpnorm" => ablations::run_lpnorm(scale),
        other => Err(cvopt_core::CvError::invalid(format!(
            "unknown experiment id {other}; known: {ALL_IDS:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_rejected() {
        assert!(run_by_id("figure99", &Scale::small()).is_err());
    }
}
