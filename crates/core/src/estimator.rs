//! The iterative estimation procedure — the paper's Figure 4 and
//! Theorems 5–6.
//!
//! Hyper-samples `P̂_{i,MAX}` are (approximately) normal around the true
//! maximum `ω(F)` with variance `σ_μ²/m`. The engine accumulates them,
//! forms the Student-t confidence interval
//! `P̄ ± t_{l,k−1}·s/√k` (Eqn 3.8), and stops when the relative half-width
//! `t·s/(√k·P̄)` falls below the requested `ε` — delivering, for the first
//! time among maximum-power estimators, *any* user-specified error and
//! confidence level.
//!
//! This module owns the result vocabulary ([`MaxPowerEstimate`],
//! [`EstimateHistoryEntry`]); runs are driven through the session API
//! ([`EstimatorBuilder`](crate::EstimatorBuilder) →
//! [`Session::run`](crate::Session::run)).
//!
//! Two robustness departures from the idealized loop:
//!
//! * Hitting the hyper-sample cap is **not an error**: the run returns its
//!   best partial estimate tagged [`RunStatus::BudgetExhausted`]. Callers
//!   that require convergence use
//!   [`MaxPowerEstimate::into_converged`].
//! * When the running mean is within 1e-9 mW of zero the relative
//!   criterion divides by ≈0 and can never fire; the stopping rule
//!   switches to an absolute half-width of 1e-6 mW and flags
//!   [`RunHealth::zero_mean_guard`].

use crate::error::MaxPowerError;
use crate::health::{FitDiagnostics, RunHealth, RunStatus};

/// One row of the convergence history: the state after each hyper-sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateHistoryEntry {
    /// Hyper-samples accumulated so far (`k`).
    pub k: usize,
    /// Running mean estimate `P̄` (mW).
    pub mean_mw: f64,
    /// Relative half-width of the t-interval (undefined before `k = 2` and
    /// under the zero-mean guard; reported as infinity there).
    pub relative_half_width: f64,
    /// Cumulative vector pairs consumed.
    pub units_used: usize,
}

/// The final estimate with its confidence statement and health record.
#[derive(Debug, Clone)]
pub struct MaxPowerEstimate {
    /// The maximum-power estimate `P̄` (mW).
    pub estimate_mw: f64,
    /// The confidence interval at the configured level (mW).
    pub confidence_interval: (f64, f64),
    /// Achieved relative half-width (`≤ ε` when converged; infinite under
    /// the zero-mean guard).
    pub relative_error: f64,
    /// The configured confidence level.
    pub confidence: f64,
    /// Hyper-samples consumed (`k`).
    pub hyper_samples: usize,
    /// Total vector pairs simulated — the paper's efficiency metric.
    pub units_used: usize,
    /// Largest single unit power observed anywhere in the run (a hard
    /// lower bound on the true maximum).
    pub observed_max_mw: f64,
    /// How the run ended: converged, degraded-but-converged, or capped.
    pub status: RunStatus,
    /// Aggregated fault/fallback/guard counters for the whole run.
    pub health: RunHealth,
    /// Per-iteration convergence history.
    pub history: Vec<EstimateHistoryEntry>,
    /// The individual hyper-sample estimates.
    pub hyper_estimates: Vec<f64>,
    /// Per-hyper-sample estimator audit trail (parallel to
    /// [`hyper_estimates`](Self::hyper_estimates)): the rung that produced
    /// each estimate, its reason code and goodness-of-fit summaries.
    pub fit_diagnostics: Vec<FitDiagnostics>,
}

impl MaxPowerEstimate {
    /// Converts a capped run into the classic [`MaxPowerError::NotConverged`]
    /// error, for callers that require the error/confidence contract to
    /// have been met. Converged and degraded-but-converged runs pass
    /// through unchanged.
    ///
    /// # Errors
    ///
    /// [`MaxPowerError::NotConverged`] carrying the full partial result
    /// when the run ended [`RunStatus::BudgetExhausted`].
    pub fn into_converged(self) -> Result<MaxPowerEstimate, MaxPowerError> {
        if self.status.met_target() {
            Ok(self)
        } else {
            Err(MaxPowerError::NotConverged {
                estimate_mw: self.estimate_mw,
                achieved_relative_error: self.relative_error,
                hyper_samples: self.hyper_samples,
                observed_max_mw: self.observed_max_mw,
                units_used: self.units_used,
                history: self.history,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    // End-to-end coverage of the estimation loop through the session API:
    // convergence, coverage, budgets, guards, and the derived-RNG
    // checkpoint/resume contract.

    use super::*;
    use crate::config::EstimationConfig;
    use crate::engine::derive_seed;
    use crate::health::EstimatorKind;
    use crate::session::{EstimatorBuilder, RunOptions, Session};
    use crate::source::FnSource;
    use rand::{Rng, RngCore};

    fn weibull_source(
        alpha: f64,
        beta: f64,
        mu: f64,
    ) -> FnSource<impl FnMut(&mut dyn RngCore) -> f64 + Clone + Send> {
        FnSource::new(move |rng: &mut dyn RngCore| {
            let u: f64 = rng.gen_range(1e-12..1.0f64);
            mu - (-u.ln() / beta).powf(1.0 / alpha)
        })
    }

    fn session() -> Session {
        EstimatorBuilder::new(EstimationConfig::default()).build()
    }

    #[test]
    fn converges_on_smooth_bounded_source() {
        let source = weibull_source(3.0, 1.0, 10.0);
        let r = session()
            .run(&source, RunOptions::default().seeded(1))
            .unwrap();
        assert_eq!(r.status, RunStatus::Converged);
        assert!(r.health.is_clean());
        assert!(r.relative_error <= 0.05);
        assert!(
            (r.estimate_mw - 10.0).abs() / 10.0 < 0.10,
            "{}",
            r.estimate_mw
        );
        assert!(r.hyper_samples >= 2);
        assert_eq!(r.units_used, 300 * r.hyper_samples);
        assert_eq!(r.history.len(), r.hyper_samples);
        assert_eq!(r.hyper_estimates.len(), r.hyper_samples);
        assert_eq!(r.fit_diagnostics.len(), r.hyper_samples);
        assert!(r
            .fit_diagnostics
            .iter()
            .all(|d| d.rung == EstimatorKind::Mle));
        assert!(r.confidence_interval.0 <= r.estimate_mw);
        assert!(r.confidence_interval.1 >= r.estimate_mw);
        assert!(r.observed_max_mw <= 10.0);
    }

    #[test]
    fn point_estimate_within_epsilon_in_most_runs() {
        // Repeat the full procedure many times; the point estimate should
        // land within ε = 5 % of the truth (endpoint 10) in most runs.
        // This checks the point estimate only, not whether the reported
        // interval covers the truth at the configured confidence.
        let mut hits = 0;
        let runs = 40;
        for seed in 0..runs {
            let source = weibull_source(3.0, 1.0, 10.0);
            let r = session()
                .run(&source, RunOptions::default().seeded(100 + seed))
                .unwrap();
            // Success criterion from the paper's tables: relative error of
            // the point estimate within the target band.
            if (r.estimate_mw - 10.0).abs() / 10.0 <= 0.05 {
                hits += 1;
            }
        }
        assert!(
            hits as f64 / runs as f64 >= 0.75,
            "only {hits}/{runs} runs within 5%"
        );
    }

    #[test]
    fn history_units_monotone() {
        let source = weibull_source(4.0, 2.0, 5.0);
        let r = session()
            .run(&source, RunOptions::default().seeded(2))
            .unwrap();
        for w in r.history.windows(2) {
            assert!(w[1].units_used > w[0].units_used);
            assert_eq!(w[1].k, w[0].k + 1);
        }
    }

    #[test]
    fn respects_max_hyper_samples() {
        // An extremely noisy source that cannot converge at a vanishing
        // error target with a tiny cap: the partial estimate comes back
        // BudgetExhausted, and into_converged recovers the strict
        // NotConverged contract with the full partial result attached.
        let source = FnSource::new(|rng: &mut dyn RngCore| {
            let r = rng;
            r.gen::<f64>().powf(0.2) * 100.0
        });
        let config = EstimationConfig {
            relative_error: 1e-12,
            max_hyper_samples: 3,
            ..EstimationConfig::default()
        };
        let session = EstimatorBuilder::new(config).build();
        let r = session
            .run(&source, RunOptions::default().seeded(3))
            .unwrap();
        assert_eq!(r.status, RunStatus::BudgetExhausted);
        assert!(!r.status.met_target());
        assert_eq!(r.hyper_samples, 3);
        match r.into_converged() {
            Err(MaxPowerError::NotConverged {
                hyper_samples,
                observed_max_mw,
                units_used,
                history,
                ..
            }) => {
                assert_eq!(hyper_samples, 3);
                assert!(observed_max_mw > 0.0);
                assert_eq!(units_used, 900);
                assert_eq!(history.len(), 3);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_rejected_before_sampling() {
        let config = EstimationConfig {
            confidence: 2.0,
            ..EstimationConfig::default()
        };
        let session = EstimatorBuilder::new(config).build();
        let source = FnSource::new(|_: &mut dyn RngCore| 1.0);
        assert!(matches!(
            session.run(&source, RunOptions::default().seeded(4)),
            Err(MaxPowerError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn finite_population_size_picked_up_from_source() {
        // With a declared finite population the estimator should generally
        // report slightly lower values than the raw-endpoint variant.
        let run = |pop: Option<u64>, seed: u64| {
            let mut source = weibull_source(3.0, 1.0, 10.0);
            if let Some(v) = pop {
                source = source.with_population_size(v);
            }
            session()
                .run(&source, RunOptions::default().seeded(seed))
                .unwrap()
                .estimate_mw
        };
        // Average over some seeds to compare the two estimators stably.
        let mean_inf: f64 = (0..10).map(|s| run(None, 50 + s)).sum::<f64>() / 10.0;
        let mean_fin: f64 = (0..10).map(|s| run(Some(1_000), 50 + s)).sum::<f64>() / 10.0;
        assert!(mean_fin <= mean_inf + 1e-9);
    }

    #[test]
    fn tighter_epsilon_costs_more_units() {
        let run = |eps: f64| {
            let source = weibull_source(3.0, 1.0, 10.0);
            let config = EstimationConfig {
                relative_error: eps,
                max_hyper_samples: 2_000,
                ..EstimationConfig::default()
            };
            EstimatorBuilder::new(config)
                .build()
                .run(&source, RunOptions::default().seeded(9))
                .unwrap()
                .units_used
        };
        let loose = run(0.10);
        let tight = run(0.005);
        assert!(tight > loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn zero_mean_guard_switches_to_absolute_criterion() {
        // A source symmetric around 0: the running mean hovers at ~0 where
        // the relative criterion divides by ≈0 and can never fire. The
        // guard switches to the absolute criterion so the run still ends,
        // and the switch is recorded in the health record.
        let source = FnSource::new(|rng: &mut dyn RngCore| {
            let r = rng;
            r.gen::<f64>() * 2e-10 - 1e-10
        });
        let config = EstimationConfig {
            max_hyper_samples: 50,
            ..EstimationConfig::default()
        };
        let r = EstimatorBuilder::new(config)
            .build()
            .run(&source, RunOptions::default().seeded(11))
            .unwrap();
        assert!(r.health.zero_mean_guard);
        assert!(
            r.status.met_target(),
            "guard should let the run stop: {r:?}"
        );
        let width = r.confidence_interval.1 - r.confidence_interval.0;
        assert!(width <= 2e-6, "width {width}");
    }

    #[test]
    fn seeded_runs_reproduce_and_derive_distinct_streams() {
        let run = |seed: u64| {
            let source = weibull_source(3.0, 1.0, 10.0);
            let mut saves = 0usize;
            let mut save = |_: &crate::checkpoint::Checkpoint| saves += 1;
            let r = session()
                .run(
                    &source,
                    RunOptions::default().seeded(seed).save_with(&mut save),
                )
                .unwrap();
            (r.estimate_mw, r.hyper_samples, saves)
        };
        let (a_est, a_k, a_saves) = run(7);
        let (b_est, b_k, b_saves) = run(7);
        assert_eq!(a_est, b_est);
        assert_eq!(a_k, b_k);
        assert_eq!(a_saves, a_k, "one checkpoint per hyper-sample");
        assert_eq!(b_saves, b_k);
        let (c_est, _, _) = run(8);
        assert_ne!(a_est, c_est, "different master seeds give different runs");
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }

    #[test]
    fn resume_from_any_checkpoint_matches_uninterrupted_run() {
        let source = weibull_source(3.0, 1.0, 10.0);
        // Uninterrupted run, recording every checkpoint.
        let mut checkpoints = Vec::new();
        let mut record = |cp: &crate::checkpoint::Checkpoint| checkpoints.push(cp.clone());
        let full = session()
            .run(
                &source,
                RunOptions::default().seeded(21).save_with(&mut record),
            )
            .unwrap();
        assert!(full.hyper_samples >= 2);
        // "Kill" the run after each prefix and resume: identical results.
        for cp in &checkpoints {
            let resumed = session()
                .run(&source, RunOptions::default().seeded(21).resume(cp))
                .unwrap();
            assert_eq!(resumed.estimate_mw, full.estimate_mw);
            assert_eq!(resumed.hyper_samples, full.hyper_samples);
            assert_eq!(resumed.units_used, full.units_used);
            assert_eq!(resumed.hyper_estimates, full.hyper_estimates);
            assert_eq!(resumed.status, full.status);
        }
        // Resuming from the final checkpoint returns without new draws.
        let last = checkpoints.last().unwrap();
        let mut extra_saves = 0usize;
        let mut count = |_: &crate::checkpoint::Checkpoint| extra_saves += 1;
        let resumed = session()
            .run(
                &source,
                RunOptions::default()
                    .seeded(21)
                    .resume(last)
                    .save_with(&mut count),
            )
            .unwrap();
        assert_eq!(extra_saves, 0);
        assert_eq!(resumed.estimate_mw, full.estimate_mw);
    }

    #[test]
    fn resume_rejects_wrong_seed_or_config() {
        let source = weibull_source(3.0, 1.0, 10.0);
        let mut checkpoints = Vec::new();
        let mut record = |cp: &crate::checkpoint::Checkpoint| checkpoints.push(cp.clone());
        session()
            .run(
                &source,
                RunOptions::default().seeded(5).save_with(&mut record),
            )
            .unwrap();
        let cp = checkpoints.first().unwrap();
        // Wrong seed.
        assert!(matches!(
            session().run(&source, RunOptions::default().seeded(6).resume(cp)),
            Err(MaxPowerError::CheckpointMismatch { .. })
        ));
        // Wrong config.
        let config = EstimationConfig {
            relative_error: 0.01,
            ..EstimationConfig::default()
        };
        let strict = EstimatorBuilder::new(config).build();
        assert!(matches!(
            strict.run(&source, RunOptions::default().seeded(5).resume(cp)),
            Err(MaxPowerError::CheckpointMismatch { .. })
        ));
    }
}
