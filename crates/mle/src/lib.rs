//! # mpe-mle — maximum-likelihood estimation for the generalized Weibull
//!
//! Implements the estimation theory of Sections 2.2 and 3.2 of the paper:
//! fitting the generalized reversed Weibull
//! `G(x; α, β, μ) = exp(−β(μ−x)^α)` to a sample of block maxima by maximum
//! likelihood, in the *non-regular* setting analysed by Smith
//! (Biometrika 72, 1985): the location parameter `μ` is the endpoint of the
//! support, so classical regularity fails — but for true shape `α > 2` the
//! MLE is consistent and asymptotically normal, which is what makes the
//! paper's confidence machinery (Theorems 3–6) valid.
//!
//! The fit is computed by **profile likelihood**:
//!
//! 1. For a candidate endpoint `μ` greater than every observation, the
//!    transformed data `y_i = μ − x_i` follow a *standard two-parameter
//!    Weibull*, whose MLE `(α̂(μ), β̂(μ))` is a classic solved problem
//!    ([`weibull2`]) — a monotone scalar shape equation plus a closed-form
//!    scale.
//! 2. The outer problem maximizes the profiled mean log-likelihood
//!    `ℓ*(μ)` over a bracket above the sample maximum ([`profile`]).
//!
//! [`lsq`] provides the least-mean-squares CDF fit the paper uses for
//! Figure 1 (and dismisses, correctly, as less stable than MLE for small
//! samples — a claim you can reproduce with the `ablation_estimator`
//! experiment).
//!
//! ## Example
//!
//! ```
//! use mpe_evt::ReversedWeibull;
//! use mpe_mle::profile::fit_reversed_weibull;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), mpe_mle::MleError> {
//! let truth = ReversedWeibull::new(4.0, 1.0, 10.0).unwrap();
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
//! let sample = truth.sample_n(&mut rng, 400);
//!
//! let fit = fit_reversed_weibull(&sample)?;
//! // The fitted endpoint is the maximum-power estimate:
//! assert!((fit.distribution.mu() - 10.0).abs() < 0.3);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod gumbel;
pub mod lsq;
pub mod pot;
pub mod profile;
pub mod weibull2;

pub use error::MleError;
pub use gumbel::{fit_gumbel, GumbelFit};
pub use lsq::lsq_fit_reversed_weibull;
pub use pot::{fit_pot, PotFit};
pub use profile::{
    fit_reversed_weibull, fit_reversed_weibull_traced, fit_reversed_weibull_with, FitOptions,
    WeibullFit,
};
pub use weibull2::{fit_weibull2, Weibull2Fit};
