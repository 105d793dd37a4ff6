//! Hyper-sample generation — the paper's Figure 3, hardened for
//! deployment.
//!
//! One hyper-sample is one full MLE-based estimate of the maximum power:
//!
//! 1. draw `m` samples of `n` units each from the power source;
//! 2. take each sample's maximum `p_{i,MAX}` (Eqn 3.1);
//! 3. fit the generalized reversed Weibull to the `m` maxima by profile
//!    maximum likelihood;
//! 4. the estimate is the fitted endpoint `μ̂` — or, for a finite
//!    population `|V|`, the `(1 − 1/|V|)` quantile of the fitted Weibull
//!    (the "finite population estimator" of §3.4).
//!
//! Around that idealized loop this module adds the resilience layer:
//!
//! * every draw goes through the configured
//!   [`SamplePolicy`], which decides what a source
//!   error or an invalid reading (NaN, ±∞, below
//!   [`min_reading_mw`](crate::EstimationConfig::min_reading_mw)) does —
//!   fail fast, skip, or retry;
//! * a degenerate set of sample maxima is detected *before* the MLE is
//!   attempted, and a provably constant source (every raw draw identical)
//!   bails out after a single sample instead of burning the full retry
//!   budget on fits that cannot succeed;
//! * retries of a degenerate MLE charge an exponentially growing share of
//!   [`mle_retry_budget`](crate::EstimationConfig::mle_retry_budget) so the
//!   engine gives up in logarithmically many attempts;
//! * when the MLE never converges, [`FallbackPolicy::Degrade`] walks the
//!   estimator ladder — POT/GPD endpoint over the raw draws, then the
//!   distribution-free empirical quantile — and records which rung
//!   produced the estimate in [`HyperSample::estimator`].

use rand::RngCore;

use mpe_evt::tail::finite_population_maximum;
use mpe_mle::pot::fit_pot;
use mpe_mle::profile::{fit_reversed_weibull, fit_reversed_weibull_traced, WeibullFit};
use mpe_mle::MleError;
use mpe_telemetry::{names, SpanKind, Telemetry};

use mpe_stats::dist::ContinuousDistribution;
use mpe_stats::ks::ks_statistic;

use crate::config::{BiasCorrection, EstimationConfig, FallbackPolicy, SamplePolicy};
use crate::error::MaxPowerError;
use crate::health::{EstimatorKind, FitDiagnostics, FitReasonCode, HyperHealth};
use crate::source::PowerSource;

/// Empirical quantile above which the POT fallback fits its GPD
/// (it keeps the top 10 % of the raw draws as excesses).
const POT_FALLBACK_QUANTILE: f64 = 0.9;

/// One hyper-sample: a single maximum-power estimate
/// (the paper's `P̂_{i,MAX}`).
#[derive(Debug, Clone)]
pub struct HyperSample {
    /// The estimate (mW): `μ̂`, or the finite-population quantile when
    /// [`EstimationConfig::finite_population`] is set; for fallback
    /// estimators, the POT endpoint or the empirical quantile. Never below
    /// [`observed_max`](Self::observed_max).
    pub estimate_mw: f64,
    /// Which rung of the estimator ladder produced
    /// [`estimate_mw`](Self::estimate_mw).
    pub estimator: EstimatorKind,
    /// The underlying Weibull fit (shape, scale, endpoint, likelihood).
    /// `None` when a fallback estimator produced the estimate.
    pub fit: Option<WeibullFit>,
    /// The sample maxima of the last attempt (`m` values).
    pub sample_maxima: Vec<f64>,
    /// Largest single unit power observed while building this hyper-sample
    /// (a free lower bound on the maximum).
    pub observed_max: f64,
    /// Valid readings consumed (`n × m` per attempt, plus any discarded
    /// readings under [`SamplePolicy::Skip`]/[`SamplePolicy::Retry`]).
    pub units_used: usize,
    /// Fault counters for this hyper-sample.
    pub health: HyperHealth,
    /// Audit record for the fit that produced
    /// [`estimate_mw`](Self::estimate_mw): rung, reason code, and
    /// goodness-of-fit summaries. Computed whether or not telemetry is
    /// enabled, so traced and untraced runs stay bit-identical.
    pub diagnostics: FitDiagnostics,
}

/// Draws one sample of `n` *usable* readings from the source via the
/// batched [`PowerSource::sample_batch`] interface, applying the configured
/// [`SamplePolicy`] to errors and invalid readings. Valid readings are
/// appended to `out` in draw order.
///
/// The fill is greedy: each round requests exactly the readings still
/// missing, validates the returned readings in order, and repeats until the
/// sample is full. Because [`PowerSource::sample_batch`] consumes the RNG
/// exactly as the same number of consecutive `sample` calls would, the
/// sequence of underlying draws — and therefore the committed results — is
/// byte-identical to the former one-reading-at-a-time loop for every
/// policy. (On a policy-exhaustion error a batch may have drawn a few
/// readings past the point where the scalar loop stopped, but errors abort
/// the whole hyper-sample, so no result depends on the RNG state there.)
///
/// Accounting contract: `units_used` counts every `Ok` reading the source
/// produced — including invalid ones a policy discards — because each cost
/// a simulation. Errored calls consume no unit; they are tallied in
/// `health.source_errors` when survived. The `consecutive` retry counter
/// counts failures since the last valid reading, exactly as the per-draw
/// loop did (it reset the counter at each new position, i.e. after each
/// valid reading).
#[allow(clippy::too_many_arguments)]
fn draw_sample(
    source: &mut dyn PowerSource,
    config: &EstimationConfig,
    rng: &mut dyn RngCore,
    health: &mut HyperHealth,
    units_used: &mut usize,
    n: usize,
    out: &mut Vec<f64>,
    batch_buf: &mut Vec<f64>,
    batches: &mut u64,
) -> Result<(), MaxPowerError> {
    let mut valid = 0usize;
    let mut consecutive = 0usize;
    while valid < n {
        batch_buf.clear();
        *batches += 1;
        let batch_result = source.sample_batch(rng, n - valid, batch_buf);
        for &p in batch_buf.iter() {
            *units_used += 1;
            if p.is_finite() && p >= config.min_reading_mw {
                out.push(p);
                valid += 1;
                consecutive = 0;
                continue;
            }
            match config.sample_policy {
                SamplePolicy::Fail => return Err(MaxPowerError::InvalidReading { value_mw: p }),
                SamplePolicy::Skip { max_discarded } => {
                    health.samples_discarded += 1;
                    let count = health.samples_discarded + health.source_errors;
                    if count > max_discarded {
                        return Err(MaxPowerError::SamplePolicyExhausted {
                            policy: "skip",
                            count,
                            limit: max_discarded,
                        });
                    }
                }
                SamplePolicy::Retry { max_attempts } => {
                    health.samples_discarded += 1;
                    health.sample_retries += 1;
                    consecutive += 1;
                    if consecutive > max_attempts {
                        return Err(MaxPowerError::SamplePolicyExhausted {
                            policy: "retry",
                            count: consecutive,
                            limit: max_attempts,
                        });
                    }
                }
            }
        }
        if let Err(e) = batch_result {
            match config.sample_policy {
                SamplePolicy::Fail => return Err(e),
                SamplePolicy::Skip { max_discarded } => {
                    health.source_errors += 1;
                    let count = health.samples_discarded + health.source_errors;
                    if count > max_discarded {
                        return Err(MaxPowerError::SamplePolicyExhausted {
                            policy: "skip",
                            count,
                            limit: max_discarded,
                        });
                    }
                }
                SamplePolicy::Retry { max_attempts } => {
                    health.source_errors += 1;
                    health.sample_retries += 1;
                    consecutive += 1;
                    if consecutive > max_attempts {
                        // Propagate the source's own error: the caller sees
                        // *why* the source kept failing, not just that the
                        // policy gave up.
                        return Err(e);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Everything hyper-sample generation needs besides the source and the
/// RNG: the configuration and an optional telemetry handle.
///
/// One entry point for traced and untraced generation — a context with a
/// disabled handle (the [`HyperSampleContext::new`] default) is the
/// untraced path, and the handle never touches the RNG either way, so
/// enabling telemetry cannot change the estimate.
#[derive(Debug, Clone)]
pub struct HyperSampleContext<'a> {
    config: &'a EstimationConfig,
    telemetry: Telemetry,
    cancel: Option<crate::supervise::CancelToken>,
}

impl<'a> HyperSampleContext<'a> {
    /// A context with telemetry disabled.
    pub fn new(config: &'a EstimationConfig) -> Self {
        HyperSampleContext {
            config,
            telemetry: Telemetry::disabled(),
            cancel: None,
        }
    }

    /// Attaches a telemetry handle: each attempt's draw loop runs inside a
    /// `simulate` span with exact [`names::VECTOR_PAIRS_SIMULATED`] deltas,
    /// MLE fits run inside `fit` spans, successful fits publish the
    /// `hyper_mu_mw`/`hyper_alpha`/`hyper_beta` gauges, and the fallback
    /// ladder runs inside a `fallback` span.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a cancellation token: generation checks it between the
    /// `m` samples of the hyper-sample and, when tripped, abandons the
    /// hyper-sample with
    /// [`MaxPowerError::Interrupted`]
    /// (which the engine turns into a graceful partial result). An
    /// abandoned hyper-sample is re-derived bit-identically on resume, so
    /// cancellation never perturbs determinism.
    #[must_use]
    pub fn with_cancel(mut self, cancel: crate::supervise::CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The estimation configuration.
    pub fn config(&self) -> &EstimationConfig {
        self.config
    }

    /// The telemetry handle (disabled unless attached).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

/// Emits the telemetry deltas accumulated in `health` since the given
/// baseline. Called once per attempt so counters land near the work that
/// caused them, without threading the handle through [`draw_reading`].
fn emit_health_deltas(telemetry: &Telemetry, health: &HyperHealth, baseline: &HyperHealth) {
    telemetry.counter(
        names::SAMPLES_DISCARDED,
        (health.samples_discarded - baseline.samples_discarded) as u64,
    );
    telemetry.counter(
        names::SOURCE_ERRORS,
        (health.source_errors - baseline.source_errors) as u64,
    );
    telemetry.counter(
        names::SAMPLE_RETRIES,
        (health.sample_retries - baseline.sample_retries) as u64,
    );
}

/// Generates one hyper-sample from the source (paper Figure 3), degrading
/// gracefully per the configured policies.
///
/// The context carries the configuration and (optionally) a telemetry
/// handle — see [`HyperSampleContext`] for what a traced run emits.
///
/// # Errors
///
/// * propagates source/simulation failures per
///   [`EstimationConfig::sample_policy`] (immediately under
///   [`SamplePolicy::Fail`], after the tolerance is exhausted otherwise);
/// * [`MaxPowerError::HyperSampleFailed`] if the MLE stays degenerate
///   through the retry budget *and*
///   [`FallbackPolicy::ErrorOut`] is configured — under the default
///   [`FallbackPolicy::Degrade`] a fallback estimate is returned instead.
pub fn generate_hyper_sample(
    source: &mut dyn PowerSource,
    ctx: &HyperSampleContext<'_>,
    rng: &mut dyn RngCore,
) -> Result<HyperSample, MaxPowerError> {
    let config = ctx.config;
    let telemetry = &ctx.telemetry;
    let n = config.sample_size;
    let m = config.samples_per_hyper;
    let mut units_used = 0usize;
    let mut health = HyperHealth::default();
    // All valid readings across attempts, pooled for the fallback ladder.
    let mut all_draws: Vec<f64> = Vec::with_capacity(n * m);
    let mut observed_max = f64::NEG_INFINITY;
    let mut attempts = 0usize;
    // Retry charge in units of one hyper-sample's cost; attempt k costs
    // 2^(k-1), so the budget is exhausted after ~log2(budget) attempts.
    let mut charged = 0usize;

    let mut sample_buf: Vec<f64> = Vec::with_capacity(n);
    let mut batch_buf: Vec<f64> = Vec::with_capacity(n);

    let (cause, last_maxima, fail_reason) = loop {
        // Draw m samples of size n (each through the batched source
        // interface); record each sample's maximum.
        let mut maxima = Vec::with_capacity(m);
        let mut first_draw: Option<f64> = None;
        let mut constant = true;
        let units_before = units_used;
        let health_before = health;
        let mut batches = 0u64;
        {
            let _simulate = telemetry.span(SpanKind::Simulate);
            for _ in 0..m {
                // Cooperative cancellation point: a hyper-sample is 300
                // simulations in the paper's setting, so checking between
                // its m samples bounds stop latency at one sample (~n
                // simulations) without touching the RNG stream.
                if let Some(token) = &ctx.cancel {
                    if token.is_cancelled() {
                        // Units drawn before the stop are still spent.
                        telemetry.counter(
                            names::VECTOR_PAIRS_SIMULATED,
                            (units_used - units_before) as u64,
                        );
                        telemetry.counter(names::SAMPLE_BATCHES, batches);
                        return Err(MaxPowerError::Interrupted {
                            reason: crate::supervise::StopReason::Cancelled,
                            hyper_samples: 0,
                        });
                    }
                }
                sample_buf.clear();
                draw_sample(
                    source,
                    config,
                    rng,
                    &mut health,
                    &mut units_used,
                    n,
                    &mut sample_buf,
                    &mut batch_buf,
                    &mut batches,
                )
                .inspect_err(|_| {
                    // Units drawn before the failure are still spent.
                    telemetry.counter(
                        names::VECTOR_PAIRS_SIMULATED,
                        (units_used - units_before) as u64,
                    );
                    telemetry.counter(names::SAMPLE_BATCHES, batches);
                })?;
                let mut sample_max = f64::NEG_INFINITY;
                for &p in sample_buf.iter() {
                    match first_draw {
                        None => first_draw = Some(p),
                        Some(f0) => {
                            if p != f0 {
                                constant = false;
                            }
                        }
                    }
                    all_draws.push(p);
                    sample_max = sample_max.max(p);
                }
                observed_max = observed_max.max(sample_max);
                maxima.push(sample_max);
            }
        }
        telemetry.counter(
            names::VECTOR_PAIRS_SIMULATED,
            (units_used - units_before) as u64,
        );
        telemetry.counter(names::SAMPLE_BATCHES, batches);
        emit_health_deltas(telemetry, &health, &health_before);
        attempts += 1;
        if attempts > 1 {
            telemetry.counter(names::MLE_RETRIES, 1);
        }
        charged = charged.saturating_add(1usize << (attempts - 1).min(63));

        // Degeneracy pre-check: identical sample maxima give the reversed-
        // Weibull likelihood no interior maximum, so don't pay for a fit
        // that must fail.
        let degenerate = maxima.windows(2).all(|w| w[0] == w[1]);
        let failure: MleError = if degenerate {
            health.degenerate_bailout = true;
            telemetry.counter(names::DEGENERATE_BAILOUTS, 1);
            MleError::DegenerateSample {
                reason: "all sample maxima identical",
            }
        } else {
            match fit_reversed_weibull_traced(&maxima, telemetry) {
                Ok(fit) => {
                    health.mle_retries = attempts - 1;
                    telemetry.gauge(names::HYPER_MU, fit.distribution.mu());
                    telemetry.gauge(names::HYPER_ALPHA, fit.distribution.alpha());
                    telemetry.gauge(names::HYPER_BETA, fit.distribution.beta());
                    let plain = point_estimate(&fit, config);
                    let estimate_mw = match config.bias_correction {
                        BiasCorrection::None => plain,
                        BiasCorrection::Jackknife => jackknife(&maxima, plain, config),
                    };
                    // The observed maximum is a hard lower bound on ω(F);
                    // the estimator never reports below what it has seen.
                    let estimate_mw = estimate_mw.max(observed_max);
                    let diagnostics = FitDiagnostics {
                        rung: EstimatorKind::Mle,
                        reason: FitReasonCode::Converged,
                        log_likelihood: Some(fit.mean_log_likelihood),
                        ks_distance: ks_statistic(&maxima, |x| fit.distribution.cdf(x)).ok(),
                        tail_shape: Some(fit.distribution.alpha()),
                    };
                    return Ok(HyperSample {
                        estimate_mw,
                        estimator: EstimatorKind::Mle,
                        fit: Some(fit),
                        sample_maxima: maxima,
                        observed_max,
                        units_used,
                        health,
                        diagnostics,
                    });
                }
                Err(e) => e,
            }
        };
        if constant {
            // Every raw draw identical: fresh draws cannot un-degenerate
            // the maxima, so retrying would only burn the budget.
            health.degenerate_bailout = true;
            break (failure, maxima, FitReasonCode::ConstantSource);
        }
        if charged >= config.mle_retry_budget {
            let reason = fit_reason(&failure);
            break (failure, maxima, reason);
        }
    };
    health.mle_retries = attempts - 1;
    match config.fallback {
        FallbackPolicy::ErrorOut => Err(MaxPowerError::HyperSampleFailed { cause, attempts }),
        FallbackPolicy::Degrade => {
            let _fallback = telemetry.span(SpanKind::Fallback);
            let degraded = degraded_hyper_sample(
                all_draws,
                last_maxima,
                observed_max,
                units_used,
                health,
                config,
                fail_reason,
            );
            telemetry.counter(
                match degraded.estimator {
                    EstimatorKind::Pot => names::FALLBACK_POT,
                    _ => names::FALLBACK_QUANTILE,
                },
                1,
            );
            Ok(degraded)
        }
    }
}

/// Maps the final MLE failure to the audit-trail reason code recorded in
/// [`FitDiagnostics`]. The constant-source case is decided by the caller
/// (it is a property of the raw draws, not of the fit error).
fn fit_reason(cause: &MleError) -> FitReasonCode {
    match cause {
        MleError::DegenerateSample { .. } => FitReasonCode::DegenerateMaxima,
        MleError::InsufficientData { .. } => FitReasonCode::InsufficientData,
        MleError::NoConvergence { .. } => FitReasonCode::NoConvergence,
        // Numeric / distribution-construction failures have no dedicated
        // code: they are optimizer-didn't-produce-a-usable-fit outcomes.
        MleError::Numeric(_) | MleError::Evt(_) => FitReasonCode::NoConvergence,
    }
}

/// Walks the fallback ladder over the pooled raw draws: POT/GPD endpoint,
/// then the distribution-free empirical quantile. Always succeeds — the
/// quantile rung is defined for any non-empty draw set. `reason` records
/// why the MLE rung failed; it is carried verbatim into the diagnostics of
/// whichever rung produces the estimate.
fn degraded_hyper_sample(
    all_draws: Vec<f64>,
    sample_maxima: Vec<f64>,
    observed_max: f64,
    units_used: usize,
    health: HyperHealth,
    config: &EstimationConfig,
    reason: FitReasonCode,
) -> HyperSample {
    // Rung 2: peaks-over-threshold. Tied *maxima* don't imply tied
    // excesses, so the GPD often still fits where the Weibull could not.
    // The endpoint is accepted only when it is finite and consistent with
    // the data (at or above the observed maximum).
    if let Ok(pot) = fit_pot(&all_draws, POT_FALLBACK_QUANTILE) {
        if let Some(endpoint) = pot.endpoint() {
            if endpoint.is_finite() && endpoint >= observed_max {
                let diagnostics = FitDiagnostics {
                    rung: EstimatorKind::Pot,
                    reason,
                    log_likelihood: Some(pot.mean_log_likelihood),
                    ks_distance: None,
                    tail_shape: Some(pot.gpd.xi()),
                };
                return HyperSample {
                    estimate_mw: endpoint,
                    estimator: EstimatorKind::Pot,
                    fit: None,
                    sample_maxima,
                    observed_max,
                    units_used,
                    health,
                    diagnostics,
                };
            }
        }
    }
    // Rung 3: empirical quantile at the finite-population level (or the
    // sample maximum for an infinite population). No extrapolation beyond
    // the data — a pure lower bound, but always defined.
    let q = match config.finite_population {
        Some(v) => 1.0 - 1.0 / v as f64,
        None => 1.0,
    };
    let estimate_mw = empirical_quantile(&all_draws, q).max(observed_max);
    HyperSample {
        estimate_mw,
        estimator: EstimatorKind::Quantile,
        fit: None,
        sample_maxima,
        observed_max,
        units_used,
        health,
        diagnostics: FitDiagnostics {
            rung: EstimatorKind::Quantile,
            reason,
            log_likelihood: None,
            ks_distance: None,
            tail_shape: None,
        },
    }
}

/// Type-7 interpolated empirical quantile (the same convention as the
/// quantile-baseline estimator). `data` must be non-empty and finite.
fn empirical_quantile(data: &[f64], q: f64) -> f64 {
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("valid readings are finite"));
    let h = q.clamp(0.0, 1.0) * (sorted.len() as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// The point estimate implied by a fit under the configuration's
/// population model (paper §3.4 for finite populations; raw `μ̂` otherwise).
fn point_estimate(fit: &WeibullFit, config: &EstimationConfig) -> f64 {
    match config.finite_population {
        // block_size = 1 is the paper's literal §3.4 estimator: the
        // (1 − 1/|V|) quantile of the fitted Weibull. The block-aware level
        // (1 − 1/|V|)^n is theoretically the exact image of the population
        // maximum, but its shallower extrapolation inherits the fitted
        // tail's downward bias; empirically (see the estimator ablation)
        // the paper's variant is the better-centred estimator, exactly as
        // the authors report.
        Some(v) => finite_population_maximum(&fit.distribution, v, 1)
            .expect("population size validated >= 2"),
        None => fit.mu_hat(),
    }
}

/// Delete-one jackknife: `θ_J = m·θ̂ − (m−1)·mean(θ̂₋ᵢ)`. Requires every
/// leave-one-out refit to succeed; otherwise returns the plain estimate
/// (jackknife with missing replicates would itself be biased).
fn jackknife(maxima: &[f64], plain: f64, config: &EstimationConfig) -> f64 {
    let m = maxima.len();
    let mut loo_sum = 0.0;
    let mut loo = Vec::with_capacity(m - 1);
    for skip in 0..m {
        loo.clear();
        loo.extend(
            maxima
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, &x)| x),
        );
        match fit_reversed_weibull(&loo) {
            Ok(fit) => loo_sum += point_estimate(&fit, config),
            Err(_) => return plain,
        }
    }
    let m = m as f64;
    m * plain - (m - 1.0) * (loo_sum / m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FnSource;
    use mpe_evt::ReversedWeibull;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn weibull_source(alpha: f64, beta: f64, mu: f64) -> impl FnMut(&mut dyn RngCore) -> f64 {
        move |rng: &mut dyn RngCore| {
            let r = rng;
            let u: f64 = r.gen_range(1e-12..1.0f64);
            mu - (-u.ln() / beta).powf(1.0 / alpha)
        }
    }

    #[test]
    fn hyper_sample_estimates_endpoint() {
        // Parent with endpoint 10 and smooth tail (alpha 3): maxima of 30
        // concentrate near 10; the hyper-sample estimate should land close.
        let mut source = FnSource::new(weibull_source(3.0, 1.0, 10.0));
        let config = EstimationConfig::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut errs = Vec::new();
        for _ in 0..20 {
            let h = generate_hyper_sample(&mut source, &HyperSampleContext::new(&config), &mut rng)
                .unwrap();
            assert_eq!(h.units_used, 300);
            assert_eq!(h.sample_maxima.len(), 10);
            assert_eq!(h.estimator, EstimatorKind::Mle);
            assert!(h.fit.is_some());
            assert_eq!(h.health, HyperHealth::default());
            assert!(h.estimate_mw >= h.observed_max);
            errs.push((h.estimate_mw - 10.0).abs());
        }
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = errs[errs.len() / 2];
        assert!(median < 0.5, "median endpoint error {median}");
    }

    #[test]
    fn finite_population_estimate_below_mu_hat() {
        let mut rng = SmallRng::seed_from_u64(2);
        // Build identical draws for two configs by re-seeding.
        let mut run = |finite: Option<u64>| {
            let mut source = FnSource::new(weibull_source(3.0, 1.0, 10.0));
            let config = EstimationConfig {
                finite_population: finite,
                ..EstimationConfig::default()
            };
            let mut local_rng = SmallRng::seed_from_u64(77);
            let _ = &mut rng;
            generate_hyper_sample(
                &mut source,
                &HyperSampleContext::new(&config),
                &mut local_rng,
            )
            .unwrap()
        };
        let infinite = run(None);
        let finite = run(Some(10_000));
        // Same draws, so same fit; the finite-population quantile is below
        // the endpoint (unless clamped by the observed max).
        assert!(finite.estimate_mw <= infinite.estimate_mw);
    }

    #[test]
    fn constant_source_bails_after_one_attempt_under_error_out() {
        // Constant power: every draw identical, so the pre-check proves no
        // amount of retrying can help — exactly one attempt is spent
        // (the seed burned MLE_RETRIES × n × m = 1500 draws here).
        let mut source = FnSource::new(|_: &mut dyn RngCore| 5.0);
        let config = EstimationConfig {
            fallback: FallbackPolicy::ErrorOut,
            ..EstimationConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let err = generate_hyper_sample(&mut source, &HyperSampleContext::new(&config), &mut rng);
        assert!(matches!(
            err,
            Err(MaxPowerError::HyperSampleFailed { attempts: 1, .. })
        ));
    }

    #[test]
    fn constant_source_degrades_to_quantile() {
        // Under the default Degrade policy the same source yields the
        // empirical-quantile fallback: estimate = the constant itself,
        // after a single attempt's worth of draws.
        let mut source = FnSource::new(|_: &mut dyn RngCore| 5.0);
        let config = EstimationConfig::default();
        let mut rng = SmallRng::seed_from_u64(3);
        let h = generate_hyper_sample(&mut source, &HyperSampleContext::new(&config), &mut rng)
            .unwrap();
        assert_eq!(h.estimate_mw, 5.0);
        assert_eq!(h.estimator, EstimatorKind::Quantile);
        assert!(h.fit.is_none());
        assert_eq!(h.units_used, 300);
        assert!(h.health.degenerate_bailout);
        assert_eq!(h.health.mle_retries, 0);
    }

    #[test]
    fn units_used_accounts_retries() {
        // Degenerate-but-not-constant first attempt (every sample of 30
        // contains a 5.0, so all maxima tie, but raw draws vary): the
        // pre-check skips the doomed fit, the retry loop draws again, and
        // the second attempt succeeds with all units counted.
        let truth = ReversedWeibull::new(3.0, 1.0, 10.0).unwrap();
        let mut calls = 0usize;
        let mut source = FnSource::new(move |rng: &mut dyn RngCore| {
            calls += 1;
            if calls <= 300 {
                if calls.is_multiple_of(2) {
                    5.0
                } else {
                    1.0
                }
            } else {
                let r = rng;
                let u: f64 = r.gen_range(1e-12..1.0f64);
                truth.mu() - (-u.ln()).powf(1.0 / truth.alpha())
            }
        });
        let config = EstimationConfig::default();
        let mut rng = SmallRng::seed_from_u64(4);
        let h = generate_hyper_sample(&mut source, &HyperSampleContext::new(&config), &mut rng)
            .unwrap();
        assert_eq!(h.units_used, 600);
        assert_eq!(h.estimator, EstimatorKind::Mle);
        assert_eq!(h.health.mle_retries, 1);
        assert!(h.health.degenerate_bailout);
    }

    #[test]
    fn retry_budget_is_exponential() {
        // Maxima degenerate forever but draws vary: the exponential charge
        // (1+2+4+8 = 15) stops the loop after 4 attempts under the default
        // budget of 15 hyper-sample costs.
        let run = |budget: usize| {
            let mut toggle = false;
            let mut source = FnSource::new(move |_: &mut dyn RngCore| {
                toggle = !toggle;
                if toggle {
                    1.0
                } else {
                    5.0
                }
            });
            let config = EstimationConfig {
                fallback: FallbackPolicy::ErrorOut,
                mle_retry_budget: budget,
                ..EstimationConfig::default()
            };
            let mut rng = SmallRng::seed_from_u64(5);
            generate_hyper_sample(&mut source, &HyperSampleContext::new(&config), &mut rng)
        };
        match run(15) {
            Err(MaxPowerError::HyperSampleFailed { attempts, .. }) => assert_eq!(attempts, 4),
            other => panic!("expected HyperSampleFailed, got {other:?}"),
        }
        match run(1) {
            Err(MaxPowerError::HyperSampleFailed { attempts, .. }) => assert_eq!(attempts, 1),
            other => panic!("expected HyperSampleFailed, got {other:?}"),
        }
    }

    #[test]
    fn nan_reading_fails_fast_under_fail_policy() {
        let mut calls = 0usize;
        let mut source = FnSource::new(move |rng: &mut dyn RngCore| {
            calls += 1;
            if calls == 10 {
                f64::NAN
            } else {
                let r = rng;
                r.gen::<f64>()
            }
        });
        let config = EstimationConfig::default();
        let mut rng = SmallRng::seed_from_u64(6);
        let err = generate_hyper_sample(&mut source, &HyperSampleContext::new(&config), &mut rng);
        match err {
            Err(MaxPowerError::InvalidReading { value_mw }) => assert!(value_mw.is_nan()),
            other => panic!("expected InvalidReading, got {other:?}"),
        }
    }

    #[test]
    fn skip_policy_discards_and_accounts() {
        // Every 7th reading is NaN; Skip discards them, draws replacements,
        // and counts each discarded reading as a consumed unit.
        let mut calls = 0usize;
        let mut source = FnSource::new(move |rng: &mut dyn RngCore| {
            calls += 1;
            if calls.is_multiple_of(7) {
                f64::NAN
            } else {
                let r = rng;
                5.0 + r.gen::<f64>()
            }
        });
        let config = EstimationConfig {
            sample_policy: SamplePolicy::Skip {
                max_discarded: 1000,
            },
            ..EstimationConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(7);
        let h = generate_hyper_sample(&mut source, &HyperSampleContext::new(&config), &mut rng)
            .unwrap();
        assert!(h.health.samples_discarded > 0);
        assert_eq!(h.units_used, 300 + h.health.samples_discarded);
        assert!(h.sample_maxima.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn skip_policy_exhausts_at_cap() {
        let mut source = FnSource::new(|_: &mut dyn RngCore| f64::NAN);
        let config = EstimationConfig {
            sample_policy: SamplePolicy::Skip { max_discarded: 5 },
            ..EstimationConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(8);
        let err = generate_hyper_sample(&mut source, &HyperSampleContext::new(&config), &mut rng);
        assert!(matches!(
            err,
            Err(MaxPowerError::SamplePolicyExhausted {
                policy: "skip",
                count: 6,
                limit: 5,
            })
        ));
    }

    #[test]
    fn min_reading_floor_rejects_negatives() {
        let mut calls = 0usize;
        let mut source = FnSource::new(move |rng: &mut dyn RngCore| {
            calls += 1;
            if calls.is_multiple_of(11) {
                -3.0
            } else {
                let r = rng;
                5.0 + r.gen::<f64>()
            }
        });
        let config = EstimationConfig {
            min_reading_mw: 0.0,
            sample_policy: SamplePolicy::Retry { max_attempts: 3 },
            ..EstimationConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(9);
        let h = generate_hyper_sample(&mut source, &HyperSampleContext::new(&config), &mut rng)
            .unwrap();
        assert!(h.health.samples_discarded > 0);
        assert_eq!(h.health.sample_retries, h.health.samples_discarded);
        assert!(h.sample_maxima.iter().all(|&x| x >= 0.0));
        assert_eq!(h.units_used, 300 + h.health.samples_discarded);
    }

    #[test]
    fn jackknife_runs_and_stays_sane() {
        // The jackknife's bias-variance tradeoff is data-dependent (it
        // helps on the gate-level power populations of the estimator
        // ablation, hurts on some synthetic parents), so the unit test
        // checks the mechanical contract only: finite estimates that never
        // fall below the observed maximum, on the same draws as the plain
        // estimator.
        use crate::config::BiasCorrection;
        let run = |correction: BiasCorrection| -> Vec<HyperSample> {
            let mut source = FnSource::new(weibull_source(3.0, 1.0, 10.0));
            let config = EstimationConfig {
                bias_correction: correction,
                ..EstimationConfig::default()
            };
            let mut rng = SmallRng::seed_from_u64(9);
            (0..10)
                .map(|_| {
                    generate_hyper_sample(&mut source, &HyperSampleContext::new(&config), &mut rng)
                        .unwrap()
                })
                .collect()
        };
        let plain = run(BiasCorrection::None);
        let jack = run(BiasCorrection::Jackknife);
        for (p, j) in plain.iter().zip(&jack) {
            assert!(j.estimate_mw.is_finite());
            assert!(j.estimate_mw >= j.observed_max);
            // Same RNG stream, same draws: the underlying fits agree.
            assert_eq!(p.sample_maxima, j.sample_maxima);
        }
        // The correction actually does something on at least one replicate.
        assert!(plain
            .iter()
            .zip(&jack)
            .any(|(p, j)| (p.estimate_mw - j.estimate_mw).abs() > 1e-9));
    }

    #[test]
    fn estimate_never_below_observed_max() {
        // Heavy-discrete source where MLE could undershoot: clamping to the
        // observed max keeps the estimate sane.
        let mut source = FnSource::new(|rng: &mut dyn RngCore| {
            let r = rng;
            let u: f64 = r.gen();
            if u > 0.999 {
                100.0
            } else {
                u
            }
        });
        let config = EstimationConfig::default();
        let mut rng = SmallRng::seed_from_u64(5);
        if let Ok(h) =
            generate_hyper_sample(&mut source, &HyperSampleContext::new(&config), &mut rng)
        {
            assert!(h.estimate_mw >= h.observed_max);
        }
    }

    #[test]
    fn empirical_quantile_matches_convention() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(empirical_quantile(&data, 0.0), 1.0);
        assert_eq!(empirical_quantile(&data, 0.5), 3.0);
        assert_eq!(empirical_quantile(&data, 1.0), 5.0);
        assert_eq!(empirical_quantile(&data, 0.25), 2.0);
    }
}
