//! Profile-likelihood MLE for the three-parameter reversed Weibull
//! (the paper's §3.2, after Smith 1985).

use crate::error::MleError;
use crate::weibull2::{fit_weibull2_in, Weibull2Fit};
use mpe_evt::ReversedWeibull;
use mpe_stats::optimize::golden_section;
use std::cell::RefCell;

/// Tuning knobs for [`fit_reversed_weibull_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitOptions {
    /// Lower edge of the endpoint search, as a fraction of the sample range
    /// above the sample maximum. Keeping this strictly positive avoids the
    /// non-regular likelihood spike at `μ ↓ max xᵢ` that Smith's analysis
    /// warns about for shapes below 1.
    pub mu_lower_fraction: f64,
    /// Upper edge of the endpoint search, as a multiple of the sample range
    /// above the sample maximum.
    pub mu_upper_fraction: f64,
    /// Number of coarse grid probes of the profile likelihood before the
    /// golden-section refinement (guards against non-unimodal profiles).
    pub grid_points: usize,
    /// Relative tolerance of the golden-section refinement.
    pub tolerance: f64,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            mu_lower_fraction: 1e-4,
            mu_upper_fraction: 4.0,
            grid_points: 48,
            tolerance: 1e-10,
        }
    }
}

/// A fitted three-parameter reversed Weibull with fit diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct WeibullFit {
    /// The fitted distribution; `distribution.mu()` is the estimated
    /// endpoint — for power data, **the maximum-power estimate `μ̂`**.
    pub distribution: ReversedWeibull,
    /// Mean log-likelihood at the optimum (the paper's `L_m`, Eqn 2.17).
    pub mean_log_likelihood: f64,
    /// Number of observations used.
    pub sample_size: usize,
    /// The largest observation (hard lower bound for `μ̂`).
    pub sample_max: f64,
}

impl WeibullFit {
    /// The endpoint estimate `μ̂` — the paper's estimator of the maximum.
    pub fn mu_hat(&self) -> f64 {
        self.distribution.mu()
    }
}

/// The buffers one fit reuses for every probe: `y_i = μ − x_i` and `ln y_i`.
#[derive(Default)]
struct Scratch {
    y: Vec<f64>,
    ln_y: Vec<f64>,
}

impl Scratch {
    /// The inner two-parameter Weibull MLE on `y_i = mu − x_i`.
    fn fit_at(&mut self, data: &[f64], mu: f64) -> Result<Weibull2Fit, MleError> {
        self.y.clear();
        self.y.extend(data.iter().map(|&x| mu - x));
        fit_weibull2_in(&self.y, &mut self.ln_y)
    }

    /// Profiled mean log-likelihood at a candidate endpoint `mu`;
    /// `f64::NEG_INFINITY` where the inner fit is infeasible (some `y_i ≤ 0`).
    fn profile_mll(&mut self, data: &[f64], mu: f64) -> f64 {
        match self.fit_at(data, mu) {
            Ok(fit) => fit.mean_log_likelihood,
            Err(_) => f64::NEG_INFINITY,
        }
    }
}

/// Fits the generalized reversed Weibull `G(x; α, β, μ)` to `data` by
/// profile maximum likelihood with default [`FitOptions`].
///
/// In the paper's pipeline `data` is a set of `m` sample maxima `p_{i,MAX}`
/// (blocks of `n = 30` simulated vector pairs); the fitted `μ̂` estimates the
/// maximum power `ω(F)`.
///
/// # Errors
///
/// * [`MleError::InsufficientData`] — fewer than 5 observations;
/// * [`MleError::DegenerateSample`] — zero sample range or non-finite data;
/// * [`MleError::NoConvergence`] — no feasible profile point was found.
pub fn fit_reversed_weibull(data: &[f64]) -> Result<WeibullFit, MleError> {
    fit_reversed_weibull_with(data, &FitOptions::default())
}

/// [`fit_reversed_weibull`] instrumented with telemetry: wraps the fit in
/// a `fit` span and counts every profile-likelihood evaluation (grid scan
/// plus golden-section refinement) into
/// [`mpe_telemetry::names::MLE_GRID_PROBES`]. With a disabled handle this
/// is exactly [`fit_reversed_weibull`].
///
/// # Errors
///
/// Same as [`fit_reversed_weibull`].
pub fn fit_reversed_weibull_traced(
    data: &[f64],
    telemetry: &mpe_telemetry::Telemetry,
) -> Result<WeibullFit, MleError> {
    let _span = telemetry.span(mpe_telemetry::SpanKind::Fit);
    let probes = std::cell::Cell::new(0u64);
    let result = fit_inner(data, &FitOptions::default(), &probes);
    telemetry.counter(mpe_telemetry::names::MLE_GRID_PROBES, probes.get());
    result
}

/// [`fit_reversed_weibull`] with explicit [`FitOptions`].
///
/// # Errors
///
/// Same as [`fit_reversed_weibull`], plus
/// [`MleError::DegenerateSample`] for inconsistent options.
pub fn fit_reversed_weibull_with(data: &[f64], opts: &FitOptions) -> Result<WeibullFit, MleError> {
    fit_inner(data, opts, &std::cell::Cell::new(0))
}

fn fit_inner(
    data: &[f64],
    opts: &FitOptions,
    probes: &std::cell::Cell<u64>,
) -> Result<WeibullFit, MleError> {
    let m = data.len();
    if m < 5 {
        return Err(MleError::InsufficientData { needed: 5, got: m });
    }
    if data.iter().any(|v| !v.is_finite()) {
        return Err(MleError::DegenerateSample {
            reason: "data must be finite",
        });
    }
    if !(opts.mu_lower_fraction > 0.0
        && opts.mu_upper_fraction > opts.mu_lower_fraction
        && opts.grid_points >= 4
        && opts.tolerance > 0.0)
    {
        return Err(MleError::DegenerateSample {
            reason: "invalid fit options",
        });
    }
    let x_max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let x_min = data.iter().cloned().fold(f64::INFINITY, f64::min);
    let range = x_max - x_min;
    if range <= 0.0 {
        return Err(MleError::DegenerateSample {
            reason: "zero sample range",
        });
    }

    // Coarse scan: log-spaced offsets μ − x_max ∈ [lo·range, hi·range].
    // The profile is usually unimodal but can develop a boundary spike for
    // shapes < 1; scanning first makes the refinement bracket trustworthy.
    let ln_lo = opts.mu_lower_fraction.ln();
    let ln_hi = opts.mu_upper_fraction.ln();
    let scratch = RefCell::new(Scratch::default());
    let mut best_j = 0usize;
    let mut best_ll = f64::NEG_INFINITY;
    let offsets: Vec<f64> = (0..opts.grid_points)
        .map(|j| {
            let t = j as f64 / (opts.grid_points - 1) as f64;
            range * (ln_lo + t * (ln_hi - ln_lo)).exp()
        })
        .collect();
    for (j, &off) in offsets.iter().enumerate() {
        probes.set(probes.get() + 1);
        let ll = scratch.borrow_mut().profile_mll(data, x_max + off);
        if ll > best_ll {
            best_ll = ll;
            best_j = j;
        }
    }
    if best_ll == f64::NEG_INFINITY {
        return Err(MleError::NoConvergence {
            stage: "profile grid scan",
        });
    }

    // Refine inside the bracket formed by the grid neighbours of the best
    // probe (clamped at the scan edges).
    let lo = x_max + offsets[best_j.saturating_sub(1)];
    let hi = x_max + offsets[(best_j + 1).min(offsets.len() - 1)];
    let mu_hat = if hi > lo {
        let res = golden_section(
            |mu| {
                probes.set(probes.get() + 1);
                -scratch.borrow_mut().profile_mll(data, mu)
            },
            lo,
            hi,
            opts.tolerance,
        )
        .map_err(|_| MleError::NoConvergence {
            stage: "profile refinement",
        })?;
        res.x
    } else {
        x_max + offsets[best_j]
    };

    // Final inner fit at the refined endpoint.
    let inner = scratch.into_inner().fit_at(data, mu_hat)?;
    let distribution = ReversedWeibull::new(inner.alpha, inner.beta, mu_hat)?;
    Ok(WeibullFit {
        distribution,
        mean_log_likelihood: inner.mean_log_likelihood,
        sample_size: m,
        sample_max: x_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fit_sampled(alpha: f64, beta: f64, mu: f64, n: usize, seed: u64) -> WeibullFit {
        let truth = ReversedWeibull::new(alpha, beta, mu).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let data = truth.sample_n(&mut rng, n);
        fit_reversed_weibull(&data).unwrap()
    }

    #[test]
    fn recovers_parameters_large_sample() {
        let fit = fit_sampled(4.0, 1.0, 10.0, 5_000, 1);
        assert!((fit.distribution.alpha() - 4.0).abs() < 0.3, "{fit:?}");
        assert!((fit.distribution.mu() - 10.0).abs() < 0.1, "{fit:?}");
        assert!(fit.distribution.alpha() > 2.0);
    }

    #[test]
    fn recovers_endpoint_moderate_sample() {
        // m = 10 as in the paper's hyper-samples (noisier, wider tolerance)
        let mut errs = Vec::new();
        for seed in 0..20 {
            let truth = ReversedWeibull::new(5.0, 1.0, 10.0).unwrap();
            let mut rng = SmallRng::seed_from_u64(100 + seed);
            let data = truth.sample_n(&mut rng, 10);
            if let Ok(fit) = fit_reversed_weibull(&data) {
                errs.push((fit.mu_hat() - 10.0).abs());
            }
        }
        assert!(errs.len() >= 15, "most small-sample fits should succeed");
        let median = {
            let mut e = errs.clone();
            e.sort_by(|a, b| a.partial_cmp(b).unwrap());
            e[e.len() / 2]
        };
        // True sd of the sample is β^{-1/α}·√(...) ≈ 0.2; μ̂ should land well
        // within a few sd of the truth for most runs.
        assert!(median < 1.0, "median endpoint error {median}");
    }

    #[test]
    fn mu_hat_always_above_sample_max() {
        for seed in 0..10 {
            let fit = fit_sampled(3.0, 2.0, 5.0, 50, 200 + seed);
            assert!(fit.mu_hat() > fit.sample_max);
        }
    }

    #[test]
    fn likelihood_at_fit_beats_neighbours() {
        let truth = ReversedWeibull::new(4.0, 1.0, 0.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let data = truth.sample_n(&mut rng, 500);
        let fit = fit_reversed_weibull(&data).unwrap();
        let ll = fit.distribution.mean_log_likelihood(&data);
        assert!((ll - fit.mean_log_likelihood).abs() < 1e-9);
        // Perturbed distributions must not beat the MLE
        for (da, db, dm) in [
            (0.5, 0.0, 0.0),
            (-0.5, 0.0, 0.0),
            (0.0, 0.3, 0.0),
            (0.0, 0.0, 0.5),
        ] {
            let perturbed = ReversedWeibull::new(
                fit.distribution.alpha() + da,
                fit.distribution.beta() + db,
                fit.distribution.mu() + dm,
            )
            .unwrap();
            assert!(ll >= perturbed.mean_log_likelihood(&data) - 1e-9);
        }
    }

    #[test]
    fn shape_matches_parent_tail_exponent() {
        // The limiting Weibull shape equals the parent's tail exponent a
        // (1 − F(ω − t) ~ c·t^a). Use a = 3 so Smith's α > 2 regularity
        // holds — mirroring the paper's observation that power data always
        // lands in this regime.
        let mut rng = SmallRng::seed_from_u64(11);
        let mut maxima = Vec::new();
        for _ in 0..400 {
            // Parent X = 1 − U^{1/3}: F(x) = 1 − (1−x)^3 on [0,1], a = 3.
            let mx = (0..30)
                .map(|_| {
                    let u: f64 = rand::Rng::gen(&mut rng);
                    1.0 - u.powf(1.0 / 3.0)
                })
                .fold(f64::NEG_INFINITY, f64::max);
            maxima.push(mx);
        }
        let fit = fit_reversed_weibull(&maxima).unwrap();
        let alpha = fit.distribution.alpha();
        assert!(alpha > 2.0, "alpha = {alpha}");
        assert!(
            (fit.distribution.alpha() - 3.0).abs() < 1.0,
            "alpha = {}",
            fit.distribution.alpha()
        );
        assert!(fit.mu_hat() <= 1.2, "endpoint near 1, got {}", fit.mu_hat());
        assert!(fit.mu_hat() > 0.95);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(fit_reversed_weibull(&[1.0, 2.0]).is_err());
        assert!(fit_reversed_weibull(&[3.0; 10]).is_err());
        assert!(fit_reversed_weibull(&[1.0, 2.0, f64::NAN, 3.0, 4.0]).is_err());
    }

    #[test]
    fn invalid_options_rejected() {
        let data: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let opts = FitOptions {
            mu_lower_fraction: 0.0,
            ..FitOptions::default()
        };
        assert!(fit_reversed_weibull_with(&data, &opts).is_err());
        let opts = FitOptions {
            grid_points: 2,
            ..FitOptions::default()
        };
        assert!(fit_reversed_weibull_with(&data, &opts).is_err());
    }

    #[test]
    fn traced_fit_matches_plain_and_counts_probes() {
        let truth = ReversedWeibull::new(3.0, 1.0, 2.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(31);
        let data = truth.sample_n(&mut rng, 100);
        let plain = fit_reversed_weibull(&data).unwrap();
        let telemetry = mpe_telemetry::Telemetry::enabled();
        let traced = fit_reversed_weibull_traced(&data, &telemetry).unwrap();
        assert_eq!(plain.distribution, traced.distribution);
        let snap = telemetry.snapshot();
        assert!(
            snap.counter(mpe_telemetry::names::MLE_GRID_PROBES)
                >= FitOptions::default().grid_points as u64,
            "at least the grid scan must be counted"
        );
        assert_eq!(snap.phase(mpe_telemetry::SpanKind::Fit).count, 1);
        // A disabled handle changes nothing and records nothing.
        let disabled = mpe_telemetry::Telemetry::disabled();
        let quiet = fit_reversed_weibull_traced(&data, &disabled).unwrap();
        assert_eq!(quiet.distribution, plain.distribution);
    }

    #[test]
    fn deterministic_given_same_data() {
        let truth = ReversedWeibull::new(3.0, 1.0, 2.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(31);
        let data = truth.sample_n(&mut rng, 100);
        let f1 = fit_reversed_weibull(&data).unwrap();
        let f2 = fit_reversed_weibull(&data).unwrap();
        assert_eq!(f1.distribution, f2.distribution);
    }
}
