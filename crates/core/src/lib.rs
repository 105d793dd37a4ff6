//! # maxpower — statistical maximum power estimation
//!
//! A Rust implementation of
//! *"Maximum Power Estimation Using the Limiting Distributions of Extreme
//! Order Statistics"* (Qinru Qiu, Qing Wu, Massoud Pedram — DAC 1998),
//! together with every substrate it needs: a gate-level power simulator,
//! circuit generators, extreme-value distributions and a non-regular
//! Weibull MLE.
//!
//! ## The method in one paragraph
//!
//! Cycle power for a random input vector pair is a bounded random variable,
//! so the maxima of power samples follow (asymptotically) a **reversed
//! Weibull** law whose location parameter `μ` *is* the maximum power. Draw
//! `m = 10` samples of `n = 30` simulated vector pairs, fit `(α, β, μ)` by
//! maximum likelihood → one **hyper-sample** estimate (300 simulations).
//! Hyper-samples are approximately normal around the true maximum, so a
//! Student-t interval over `k` of them gives a confidence interval; keep
//! adding hyper-samples until the interval half-width falls below the
//! requested relative error `ε` at confidence `l`. Typical cost: ~2500
//! vector pairs for ε = 5 %, l = 90 % — versus tens of thousands for naive
//! random search.
//!
//! ## Quickstart
//!
//! ```
//! use mpe_netlist::{generate, Iscas85};
//! use mpe_sim::{DelayModel, PowerConfig};
//! use mpe_vectors::PairGenerator;
//! use maxpower::{EstimationConfig, EstimatorBuilder, RunOptions, SimulatorSource};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. The circuit under analysis (here: a generated ISCAS85 stand-in).
//! let circuit = generate(Iscas85::C432, 7)?;
//!
//! // 2. A power source: fresh random vector pairs, simulated on demand.
//! let source = SimulatorSource::new(
//!     &circuit,
//!     PairGenerator::Uniform,
//!     DelayModel::Unit,
//!     PowerConfig::default(),
//! );
//!
//! // 3. Estimate to 5% error at 90% confidence (the paper's setting).
//! //    Like the paper's experiments (§3.4), we target the maximum of a
//! //    finite population of vector pairs; the estimator then reports the
//! //    (1 − 1/|V|) quantile of the fitted Weibull, which is both what the
//! //    ground truth means and substantially more stable than the raw
//! //    endpoint estimate.
//! let config = EstimationConfig {
//!     finite_population: Some(160_000),
//!     ..EstimationConfig::default()
//! };
//! let session = EstimatorBuilder::new(config).build();
//! let estimate = session.run(&source, RunOptions::default().seeded(42))?;
//!
//! println!(
//!     "max power ≈ {:.3} mW ± {:.1}% ({} vector pairs simulated)",
//!     estimate.estimate_mw,
//!     100.0 * estimate.relative_error,
//!     estimate.units_used
//! );
//! # Ok(())
//! # }
//! ```
//!
//! Hyper-samples are i.i.d., so the session parallelizes them: add
//! `.workers(NonZeroUsize::new(4).unwrap())` to the options and the same
//! seed yields a *bit-identical* estimate, checkpoint sequence and
//! convergence history — only faster. See the `session` module docs.

pub mod average;
pub mod checkpoint;
pub mod config;
pub(crate) mod engine;
pub mod error;
pub mod estimator;
pub mod execute;
pub mod fault;
pub mod health;
pub mod hyper;
pub mod quantile_baseline;
pub mod report;
pub mod serve;
pub mod session;
pub mod source;
pub mod srs;
pub mod supervise;
pub mod sweep;

pub use average::{estimate_average_power, AveragePowerEstimate};
pub use checkpoint::{config_fingerprint, Checkpoint, CHECKPOINT_VERSION};
pub use config::{EstimationConfig, SamplePolicy};
pub use error::{AppError, FailureKind, MaxPowerError};
pub use estimator::{EstimateHistoryEntry, MaxPowerEstimate};
pub use execute::{execute, Execution, Hooks};
pub use fault::{FaultConfig, FaultInjectingSource, FaultStats};
pub use health::{EstimatorKind, HyperHealth, RunHealth, RunStatus};
pub use hyper::{generate_hyper_sample, HyperSample, HyperSampleContext};
pub use quantile_baseline::{quantile_baseline_estimate, QuantileEstimate};
pub use report::{CounterValue, EstimateReport, JobProvenance, PhaseTiming, TelemetrySummary};
pub use serve::jobs::{JobSpec, Metric};
pub use session::{EstimatorBuilder, RunOptions, Session};

// Re-exported so downstream users can drive telemetry without naming the
// `mpe-telemetry` crate directly.
pub use mpe_telemetry as telemetry;
pub use source::{
    FnSource, LaneStats, PopulationSource, PowerSource, PowerSourceFactory, SimulatorSource,
};
pub use srs::{srs_max_estimate, srs_theoretical_units, SrsEstimate};
pub use supervise::{CancelToken, RunBudget, StopReason};
pub use sweep::{sweep_activity, SweepPoint};
