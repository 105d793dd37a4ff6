//! The order-statistics quantile baseline — the prior art of the paper's
//! references \[9\] (Hill/Teng/Kang) and \[10\] (Ding/Wu/Hsieh/Pedram), which
//! estimate maximum power as a **high quantile** of the power distribution
//! from a random sample.
//!
//! The paper's claim to beat: "The theory of order statistics has been
//! applied in \[9\]\[10\] to estimate maximum power by estimating the high
//! quantile point. The efficiency is however as low as the random vector
//! generation technique." This module implements the distribution-free
//! quantile estimator with its exact binomial confidence machinery so the
//! `ablation_quantile_baseline` experiment can score that claim.

use rand::RngCore;

use mpe_stats::descriptive::quantile;
use mpe_stats::dist::{ContinuousDistribution, Normal};

use crate::error::MaxPowerError;
use crate::source::PowerSource;

/// Result of a quantile-baseline estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileEstimate {
    /// The estimated `q`-quantile of the power distribution (mW).
    pub estimate_mw: f64,
    /// Distribution-free confidence interval from order statistics.
    pub confidence_interval: (f64, f64),
    /// The quantile targeted.
    pub quantile: f64,
    /// Units sampled.
    pub units_used: usize,
}

/// Estimates the `q`-quantile of the unit-power distribution from `units`
/// i.i.d. draws, with the classic distribution-free CI: the order
/// statistics `X_{(l)}, X_{(u)}` whose indices bracket `n·q` by the normal
/// approximation to the binomial, `l,u = n·q ∓ z·√(n·q(1−q))`.
///
/// To target a finite population's maximum, \[9\]/\[10\]-style usage sets
/// `q = 1 − 1/|V|` — which is exactly why the method struggles: resolving
/// that quantile *without a parametric tail model* needs on the order of
/// `|V|` samples (the CI endpoints collapse onto the sample maximum long
/// before then, visible in the returned interval).
///
/// # Errors
///
/// Returns [`MaxPowerError::InvalidConfig`] for `q ∉ (0, 1)`, a confidence
/// outside `(0, 1)`, or fewer than 20 units; propagates source failures.
pub fn quantile_baseline_estimate(
    source: &mut dyn PowerSource,
    q: f64,
    confidence: f64,
    units: usize,
    rng: &mut dyn RngCore,
) -> Result<QuantileEstimate, MaxPowerError> {
    if !(q > 0.0 && q < 1.0) {
        return Err(MaxPowerError::InvalidConfig {
            message: format!("quantile must be in (0, 1), got {q}"),
        });
    }
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(MaxPowerError::InvalidConfig {
            message: format!("confidence must be in (0, 1), got {confidence}"),
        });
    }
    if units < 20 {
        return Err(MaxPowerError::InvalidConfig {
            message: "quantile baseline needs at least 20 units".to_string(),
        });
    }
    let mut sample = Vec::with_capacity(units);
    for _ in 0..units {
        sample.push(source.sample(rng)?);
    }
    // Point estimate: type-7 interpolated quantile.
    let estimate = quantile(&sample, q).map_err(MaxPowerError::from)?;
    sample.sort_by(|a, b| a.partial_cmp(b).expect("finite powers"));
    let n = units as f64;

    // Distribution-free CI via the binomial normal approximation.
    let z = Normal::standard()
        .inverse_cdf(0.5 + confidence / 2.0)
        .map_err(MaxPowerError::from)?;
    let spread = z * (n * q * (1.0 - q)).sqrt();
    let l = ((n * q - spread).floor().max(0.0)) as usize;
    let u = ((n * q + spread).ceil() as usize).min(units - 1);
    Ok(QuantileEstimate {
        estimate_mw: estimate,
        confidence_interval: (sample[l], sample[u]),
        quantile: q,
        units_used: units,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FnSource;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn uniform_source() -> FnSource<impl FnMut(&mut dyn RngCore) -> f64> {
        FnSource::new(|rng: &mut dyn RngCore| {
            let r = rng;
            r.gen::<f64>() * 10.0
        })
    }

    #[test]
    fn estimates_median_and_tail_quantiles() {
        let mut source = uniform_source();
        let mut rng = SmallRng::seed_from_u64(1);
        for (q, truth) in [(0.5, 5.0), (0.9, 9.0), (0.99, 9.9)] {
            let est = quantile_baseline_estimate(&mut source, q, 0.9, 20_000, &mut rng).unwrap();
            assert!(
                (est.estimate_mw - truth).abs() < 0.15,
                "q={q}: {} vs {truth}",
                est.estimate_mw
            );
            assert!(est.confidence_interval.0 <= est.estimate_mw);
            assert!(est.confidence_interval.1 >= est.estimate_mw);
        }
    }

    #[test]
    fn ci_covers_truth_at_nominal_rate() {
        let mut hits = 0;
        let runs = 100;
        for seed in 0..runs {
            let mut source = uniform_source();
            let mut rng = SmallRng::seed_from_u64(100 + seed);
            let est = quantile_baseline_estimate(&mut source, 0.9, 0.9, 500, &mut rng).unwrap();
            if est.confidence_interval.0 <= 9.0 && 9.0 <= est.confidence_interval.1 {
                hits += 1;
            }
        }
        assert!((82..=98).contains(&hits), "coverage {hits}/100");
    }

    #[test]
    fn deep_quantile_ci_collapses_to_sample_max() {
        // The paper's efficiency argument: at q = 1 − 1/|V| with far fewer
        // than |V| samples, the upper CI endpoint IS the sample maximum —
        // the method degenerates to random search.
        let mut source = uniform_source();
        let mut rng = SmallRng::seed_from_u64(7);
        let est =
            quantile_baseline_estimate(&mut source, 1.0 - 1.0 / 160_000.0, 0.9, 2_500, &mut rng)
                .unwrap();
        // With n·(1−q) ≈ 0.016 expected exceedances, the point estimate and
        // upper bound sit at the extreme order statistics.
        assert!(est.estimate_mw > 9.95);
        assert_eq!(est.units_used, 2_500);
    }

    #[test]
    fn validation() {
        let mut source = uniform_source();
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(quantile_baseline_estimate(&mut source, 0.0, 0.9, 100, &mut rng).is_err());
        assert!(quantile_baseline_estimate(&mut source, 1.0, 0.9, 100, &mut rng).is_err());
        assert!(quantile_baseline_estimate(&mut source, 0.5, 1.0, 100, &mut rng).is_err());
        assert!(quantile_baseline_estimate(&mut source, 0.5, 0.9, 10, &mut rng).is_err());
    }
}
