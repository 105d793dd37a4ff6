//! # mpe-evt — the asymptotic theory of extreme order statistics
//!
//! Implements the probabilistic machinery of Section II of
//! *"Maximum Power Estimation Using the Limiting Distributions of Extreme
//! Order Statistics"* (Qiu, Wu, Pedram — DAC 1998):
//!
//! * the paper's generalized Weibull `G(x; α, β, μ) = exp(−β(μ−x)^α)`
//!   (Eqn 2.16) — the reversed-Weibull limiting law of maxima with a
//!   finite right endpoint — whose location `μ` *is* the population
//!   maximum ([`ReversedWeibull`]);
//! * the [`Gumbel`] law and the moment tail-index estimator ([`domain`])
//!   that the limiting-law ablation tests the Weibull assumption against;
//! * the tail-equivalence quantile used by the finite-population estimator
//!   of the paper's Section 3.4 ([`tail`]) and return levels
//!   ([`return_level`]).
//!
//! All distributions implement
//! [`mpe_stats::dist::ContinuousDistribution`], so they plug into the
//! goodness-of-fit and fitting tools of `mpe-stats` directly.
//!
//! ## Example: max-stability of the reversed Weibull
//!
//! ```
//! use mpe_evt::ReversedWeibull;
//! use mpe_stats::dist::ContinuousDistribution;
//!
//! # fn main() -> Result<(), mpe_evt::EvtError> {
//! let g = ReversedWeibull::new(3.0, 1.0, 10.0)?;
//! assert_eq!(g.cdf(11.0), 1.0); // right endpoint is the maximum
//!
//! // The maximum of 30 draws follows the same law with β scaled by 30:
//! let g30 = g.maximum_of(30);
//! assert!((g30.cdf(9.5) - g.cdf(9.5).powi(30)).abs() < 1e-12);
//! assert_eq!(g30.mu(), g.mu()); // ... and the same endpoint
//! # Ok(())
//! # }
//! ```

pub mod domain;
pub mod error;
pub mod gumbel;
pub mod return_level;
pub mod tail;
pub mod weibull;

pub use error::EvtError;
pub use gumbel::Gumbel;
pub use weibull::ReversedWeibull;
