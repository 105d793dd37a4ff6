//! # mpe-stats — numerical and statistical substrate
//!
//! Self-contained numerical foundations for the `maxpower` workspace:
//! special functions, classic continuous distributions with cumulative
//! distribution functions *and* their inverses, descriptive statistics,
//! empirical distributions, goodness-of-fit testing and the optimizers
//! the likelihood fits use.
//!
//! Everything is pure `f64` math with no external numerical dependencies, so
//! results are reproducible across platforms. Random sampling helpers accept
//! any [`rand::Rng`], keeping determinism in the caller's hands.
//!
//! ## Example
//!
//! ```
//! use mpe_stats::dist::{ContinuousDistribution, Normal, StudentT};
//!
//! # fn main() -> Result<(), mpe_stats::StatsError> {
//! let z = Normal::standard();
//! // 95% two-sided critical point of the standard normal:
//! let u = z.inverse_cdf(0.975)?;
//! assert!((u - 1.959964).abs() < 1e-5);
//!
//! // Student-t critical point used by the paper's Theorem 6 interval:
//! let t = StudentT::new(9.0)?;
//! let t90 = t.inverse_cdf(0.95)?;
//! assert!((t90 - 1.833113).abs() < 1e-5);
//! # Ok(())
//! # }
//! ```

pub mod descriptive;
pub mod dist;
pub mod ecdf;
pub mod error;
pub mod histogram;
pub mod ks;
pub mod optimize;
pub mod sample;
pub mod special;

pub use descriptive::Summary;
pub use dist::{ChiSquared, ContinuousDistribution, Normal, StudentT};
pub use ecdf::Ecdf;
pub use error::StatsError;
pub use histogram::Histogram;
pub use ks::{ks_statistic, ks_test, KsResult};
