//! Sample-size allocation: the optimization core of CVOPT.
//!
//! * [`solver`] — the Lemma-1 `√α`-proportional solver with box constraints
//!   and integer rounding.
//! * [`cvopt`] — the β coefficients of Theorems 1–2 / Lemmas 2–3 (ℓ2 norm).
//! * [`linf`] — the CVOPT-INF minimax allocation (ℓ∞ norm, paper §5).
//! * [`lp`] — generalized ℓp allocation (the paper's §8 future-work item).

pub mod cvopt;
pub mod linf;
pub mod lp;
pub mod solver;

pub use cvopt::compute_betas;
pub use linf::{achieved_cvs, linf_allocation};
pub use lp::lp_allocation;
pub use solver::{
    lemma1_closed_form, objective, proportional_allocation, sqrt_allocation, Allocation,
};
