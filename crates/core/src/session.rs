//! The session-based run API: one builder, one handle, one options
//! struct — the single way to drive the estimation engine (the pre-0.6
//! `MaxPowerEstimator` method family is gone).
//!
//! ```
//! use maxpower::{EstimatorBuilder, EstimationConfig, FnSource, RunOptions};
//! use std::num::NonZeroUsize;
//!
//! # fn main() -> Result<(), maxpower::MaxPowerError> {
//! let source = FnSource::new(|rng: &mut dyn rand::RngCore| {
//!     use rand::Rng;
//!     let u: f64 = rng.gen_range(1e-12..1.0f64);
//!     10.0 - (-u.ln()).powf(1.0 / 3.0)
//! });
//! let session = EstimatorBuilder::new(EstimationConfig::default()).build();
//! // Same seed, any worker count: bit-identical results.
//! let opts = RunOptions::default()
//!     .seeded(42)
//!     .workers(NonZeroUsize::new(2).unwrap());
//! let estimate = session.run(&source, opts)?;
//! assert!(estimate.status.met_target());
//! # Ok(())
//! # }
//! ```
//!
//! A session always runs in derived-RNG mode: hyper-sample `k` draws from
//! a private stream seeded from `(master seed, k)`, which is what makes
//! checkpoint/resume and the parallel engine bit-identical to a
//! single-threaded run.

use std::num::NonZeroUsize;

use mpe_telemetry::Telemetry;

use crate::checkpoint::{Checkpoint, CheckpointHook};
use crate::config::EstimationConfig;
use crate::engine::{self, Workers};
use crate::error::MaxPowerError;
use crate::estimator::MaxPowerEstimate;
use crate::source::{PowerSource, PowerSourceFactory};
use crate::supervise::{CancelToken, RunBudget, Supervision};

/// Builds a [`Session`].
#[derive(Debug, Clone)]
pub struct EstimatorBuilder {
    config: EstimationConfig,
    telemetry: Telemetry,
}

impl EstimatorBuilder {
    /// Starts a builder for the given configuration (telemetry disabled —
    /// instrumentation costs nothing until opted into).
    pub fn new(config: EstimationConfig) -> Self {
        EstimatorBuilder {
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: runs emit phase spans, work counters
    /// and convergence gauges through it (parallel runs additionally stamp
    /// worker-lane attributes and per-worker counters). The handle never
    /// touches the estimation RNG, so results are bit-identical with
    /// telemetry enabled or disabled.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Session {
        Session {
            config: self.config,
            telemetry: self.telemetry,
        }
    }
}

/// A configured estimation session: run it against any power source, any
/// number of times, with per-run execution options.
#[derive(Debug, Clone)]
pub struct Session {
    config: EstimationConfig,
    telemetry: Telemetry,
}

/// Per-run execution options: master seed, worker count, the checkpoint
/// hooks, and run supervision (cancellation and budgets). Start from
/// [`RunOptions::default`] (seed 0, one worker, no checkpointing, no
/// supervision) and chain the builder methods.
#[derive(Default)]
pub struct RunOptions<'a> {
    workers: Option<NonZeroUsize>,
    pub(crate) seed: u64,
    pub(crate) resume: Option<&'a Checkpoint>,
    pub(crate) save: Option<CheckpointHook<'a>>,
    cancel: Option<CancelToken>,
    budget: RunBudget,
}

impl<'a> RunOptions<'a> {
    /// Sets the master seed. Hyper-sample `k` draws from a private stream
    /// derived from `(seed, k)`; the same seed reproduces the run exactly,
    /// for any worker count.
    #[must_use]
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker count (default 1). With more than one worker the
    /// source factory spawns one source per worker and hyper-samples are
    /// generated concurrently — committed in index order, so the result is
    /// bit-identical to a single-worker run with the same seed.
    #[must_use]
    pub fn workers(mut self, workers: NonZeroUsize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Resumes from a checkpoint written by an earlier run with the same
    /// configuration and seed (any worker count).
    #[must_use]
    pub fn resume(mut self, checkpoint: &'a Checkpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Invokes `save` with a fresh, sealed [`Checkpoint`] after every
    /// committed hyper-sample; persist it wherever is convenient. (The
    /// `mpe` CLI and daemon instead save through a
    /// [`CheckpointWriter`](crate::checkpoint::CheckpointWriter), which
    /// asks for at most one rolling checkpoint per second.) Without a hook
    /// the engine builds no checkpoints at all.
    #[must_use]
    pub fn save_with<'b>(self, save: &'b mut dyn FnMut(&Checkpoint)) -> RunOptions<'b>
    where
        'a: 'b,
    {
        self.checkpoint_hook(CheckpointHook::EveryCommit(save))
    }

    /// Saves checkpoints through `hook`, which decides when one is due.
    pub(crate) fn checkpoint_hook<'b>(self, hook: CheckpointHook<'b>) -> RunOptions<'b>
    where
        'a: 'b,
    {
        // Narrowed to the hook's lifetime, so options built outside a
        // thread scope can take a hook that lives inside it.
        RunOptions {
            save: Some(hook),
            workers: self.workers,
            seed: self.seed,
            resume: self.resume,
            cancel: self.cancel,
            budget: self.budget,
        }
    }

    /// Attaches a cancellation token: trip it (from any thread, or a
    /// signal handler) and the run stops gracefully at the next
    /// cancellation point, returning the committed prefix as a valid
    /// partial estimate tagged
    /// [`RunStatus::Interrupted`](crate::RunStatus::Interrupted). Resuming
    /// that estimate's checkpoint reproduces the uninterrupted run
    /// bit-identically.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Bounds the run with a [`RunBudget`]: wall-clock deadline,
    /// committed-hyper-sample budget, and/or the parallel stall watchdog's
    /// heartbeat timeout. An exceeded deadline or spent budget ends the
    /// run exactly like a cancellation, with the reason recorded in the
    /// status.
    #[must_use]
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The configured worker count.
    pub fn worker_count(&self) -> usize {
        self.workers.map_or(1, NonZeroUsize::get)
    }

    /// The supervision bundle handed to the engine.
    pub(crate) fn supervision(&self) -> Supervision {
        Supervision {
            cancel: self.cancel.clone(),
            budget: self.budget,
        }
    }
}

impl Session {
    /// The configuration.
    pub fn config(&self) -> &EstimationConfig {
        &self.config
    }

    /// The attached telemetry handle (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Runs the iterative procedure (paper Figure 4), spawning one source
    /// per worker from `factory`.
    ///
    /// Every `Clone + Send` [`PowerSource`] is its own factory, so plain
    /// sources can be passed by reference. Results are bit-identical for
    /// any worker count under the same seed; a run that reaches the
    /// hyper-sample cap returns its partial estimate with
    /// [`RunStatus::BudgetExhausted`](crate::RunStatus::BudgetExhausted)
    /// rather than an error (use
    /// [`MaxPowerEstimate::into_converged`] for the strict contract).
    ///
    /// # Errors
    ///
    /// * [`MaxPowerError::InvalidConfig`] — bad configuration;
    /// * [`MaxPowerError::CheckpointMismatch`] — a resume checkpoint from a
    ///   different configuration, seed or schema version;
    /// * source spawn and simulation failures, as filtered by the
    ///   configured [`SamplePolicy`](crate::SamplePolicy) (a degenerate
    ///   MLE is not an error: the fallback ladder estimates instead);
    /// * [`MaxPowerError::Panicked`] — a hyper-sample that panicked on
    ///   every retry;
    /// * [`MaxPowerError::Interrupted`] — a supervision stop with fewer
    ///   than two committed hyper-samples.
    pub fn run<F: PowerSourceFactory>(
        &self,
        factory: &F,
        opts: RunOptions<'_>,
    ) -> Result<MaxPowerEstimate, MaxPowerError> {
        let workers = opts.worker_count();
        if workers == 1 {
            let mut source = factory.spawn_source(0)?;
            return engine::run(self, opts, Workers::Inline(&mut source));
        }
        let mut sources: Vec<Box<dyn PowerSource + Send + '_>> = Vec::with_capacity(workers);
        for w in 0..workers {
            sources.push(Box::new(factory.spawn_source(w)?));
        }
        engine::run(self, opts, Workers::Threads(sources))
    }

    /// Runs against a caller-owned source — the adapter for sources that
    /// cannot be spawned per worker (non-`Clone` closures, or a fault
    /// injector whose ledger the caller wants to inspect afterwards).
    ///
    /// Single-threaded by construction: the derived-RNG semantics (and so
    /// the estimate for a given seed) match [`Session::run`] with one
    /// worker exactly.
    ///
    /// # Errors
    ///
    /// * [`MaxPowerError::InvalidConfig`] — when `opts` asks for more than
    ///   one worker, a shared `&mut` source cannot be parallelized;
    /// * everything [`Session::run`] can raise.
    pub fn run_source(
        &self,
        source: &mut dyn PowerSource,
        opts: RunOptions<'_>,
    ) -> Result<MaxPowerEstimate, MaxPowerError> {
        if opts.worker_count() > 1 {
            return Err(MaxPowerError::InvalidConfig {
                message: format!(
                    "run_source is single-threaded (workers = {} requested); \
                     pass a PowerSourceFactory to Session::run for parallel execution",
                    opts.worker_count()
                ),
            });
        }
        engine::run(self, opts, Workers::Inline(source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FnSource;
    use rand::{Rng, RngCore};

    fn weibull_source() -> FnSource<impl FnMut(&mut dyn RngCore) -> f64 + Clone> {
        FnSource::new(|rng: &mut dyn RngCore| {
            let u: f64 = rng.gen_range(1e-12..1.0f64);
            10.0 - (-u.ln()).powf(1.0 / 3.0)
        })
    }

    #[test]
    fn run_source_rejects_multiple_workers() {
        let session = EstimatorBuilder::new(EstimationConfig::default()).build();
        let mut source = weibull_source();
        let err = session.run_source(
            &mut source,
            RunOptions::default().workers(NonZeroUsize::new(4).unwrap()),
        );
        assert!(matches!(err, Err(MaxPowerError::InvalidConfig { .. })));
    }

    #[test]
    fn run_source_matches_single_worker_factory_run() {
        let session = EstimatorBuilder::new(EstimationConfig::default()).build();
        let by_factory = session
            .run(&weibull_source(), RunOptions::default().seeded(7))
            .unwrap();
        let mut source = weibull_source();
        let by_ref = session
            .run_source(&mut source, RunOptions::default().seeded(7))
            .unwrap();
        assert_eq!(
            format!("{by_factory:?}"),
            format!("{by_ref:?}"),
            "factory and &mut paths must share the derived-RNG schedule"
        );
    }

    #[test]
    fn default_options_are_seed_zero_one_worker() {
        let opts = RunOptions::default();
        assert_eq!(opts.worker_count(), 1);
        assert_eq!(opts.seed, 0);
        assert!(opts.resume.is_none());
        assert!(opts.save.is_none());
        assert!(opts.cancel.is_none());
        assert!(opts.budget.is_unlimited());
    }
}
