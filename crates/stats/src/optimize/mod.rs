//! Derivative-free optimization and root finding.
//!
//! Three workhorses, each chosen for a specific job in the estimation
//! pipeline:
//!
//! * [`golden_section`] — robust 1-D minimization on a bracket; used for the
//!   outer profile-likelihood search over the Weibull location `μ`.
//! * [`nelder_mead`] — N-D simplex minimization; used by the least-squares
//!   CDF fit (Figure 1).
//! * [`bisect_newton`] — safeguarded scalar root finder; used for the inner
//!   Weibull shape equation.

mod golden;
mod nelder;
mod roots;

pub use golden::{golden_section, GoldenResult};
pub use nelder::{nelder_mead, NelderMeadOptions, NelderMeadResult};
pub use roots::{bisect_newton, RootResult};
