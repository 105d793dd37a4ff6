//! Gumbel maximum-likelihood fit — the alternative limiting law.
//!
//! Used by the limit-law ablation to give Gumbel its best shot (MLE rather
//! than moments) when competing with the Weibull fit, making the §3.1
//! domain argument a fair fight.

use crate::error::MleError;
use mpe_evt::Gumbel;
use mpe_stats::optimize::bisect_newton;

/// Result of a Gumbel maximum-likelihood fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GumbelFit {
    /// The fitted distribution.
    pub distribution: Gumbel,
    /// Mean log-likelihood at the optimum.
    pub mean_log_likelihood: f64,
}

/// Fits a Gumbel distribution by maximum likelihood.
///
/// The scale `σ̂` solves the classic fixed-point equation
///
/// `σ = x̄ − Σ xᵢ e^{−xᵢ/σ} / Σ e^{−xᵢ/σ}`
///
/// (monotone, solved by safeguarded Newton/bisection); the location then
/// follows in closed form: `μ̂ = −σ̂·ln( (1/m) Σ e^{−xᵢ/σ̂} )`.
///
/// # Errors
///
/// * [`MleError::InsufficientData`] — fewer than 3 observations;
/// * [`MleError::DegenerateSample`] — zero sample spread;
/// * [`MleError::NoConvergence`] — the scale equation failed to bracket.
///
/// # Example
///
/// ```
/// use mpe_evt::Gumbel;
/// use mpe_mle::gumbel::fit_gumbel;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), mpe_mle::MleError> {
/// let truth = Gumbel::new(5.0, 2.0).unwrap();
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let data: Vec<f64> = (0..5000).map(|_| truth.sample(&mut rng)).collect();
/// let fit = fit_gumbel(&data)?;
/// assert!((fit.distribution.mu() - 5.0).abs() < 0.1);
/// assert!((fit.distribution.sigma() - 2.0).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
pub fn fit_gumbel(data: &[f64]) -> Result<GumbelFit, MleError> {
    let m = data.len();
    if m < 3 {
        return Err(MleError::InsufficientData { needed: 3, got: m });
    }
    if data.iter().any(|v| !v.is_finite()) {
        return Err(MleError::DegenerateSample {
            reason: "data must be finite",
        });
    }
    let mean = data.iter().sum::<f64>() / m as f64;
    let sd = (data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / m as f64).sqrt();
    if sd <= 0.0 {
        return Err(MleError::DegenerateSample {
            reason: "zero sample spread",
        });
    }

    // Residual of the scale equation, shifted data for stability.
    let g = |sigma: f64| -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for &x in data {
            let w = (-(x - mean) / sigma).exp();
            num += x * w;
            den += w;
        }
        sigma - (mean - num / den)
    };
    // Numerical derivative is ample: g is smooth and near-linear.
    let gdg = |sigma: f64| -> (f64, f64) {
        let h = 1e-6 * sigma.max(1e-9);
        (g(sigma), (g(sigma + h) - g(sigma - h)) / (2.0 * h))
    };
    // Moment estimate brackets the root comfortably.
    let sigma0 = sd * 6.0f64.sqrt() / std::f64::consts::PI;
    let mut lo = sigma0 / 20.0;
    let mut hi = sigma0 * 20.0;
    let mut glo = g(lo);
    let mut grow = 0;
    while glo > 0.0 {
        lo /= 4.0;
        grow += 1;
        if grow > 30 {
            return Err(MleError::NoConvergence {
                stage: "gumbel scale lower bracket",
            });
        }
        glo = g(lo);
    }
    let mut ghi = g(hi);
    grow = 0;
    while ghi < 0.0 {
        hi *= 4.0;
        grow += 1;
        if grow > 30 {
            return Err(MleError::NoConvergence {
                stage: "gumbel scale upper bracket",
            });
        }
        ghi = g(hi);
    }
    let root =
        bisect_newton(gdg, (lo, glo), (hi, ghi), 1e-12).map_err(|_| MleError::NoConvergence {
            stage: "gumbel scale equation",
        })?;
    let sigma = root.x;
    let mean_exp = data
        .iter()
        .map(|&x| (-(x - mean) / sigma).exp())
        .sum::<f64>()
        / m as f64;
    let mu = mean - sigma * mean_exp.ln();
    let distribution = Gumbel::new(mu, sigma)?;
    // Mean log-likelihood: ln f = −ln σ − z − e^{−z}, z = (x−μ)/σ.
    let mll = data
        .iter()
        .map(|&x| {
            let z = (x - mu) / sigma;
            -sigma.ln() - z - (-z).exp()
        })
        .sum::<f64>()
        / m as f64;
    Ok(GumbelFit {
        distribution,
        mean_log_likelihood: mll,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn recovers_parameters() {
        let truth = Gumbel::new(-2.0, 0.7).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let data: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = fit_gumbel(&data).unwrap();
        assert!((fit.distribution.mu() + 2.0).abs() < 0.02, "{fit:?}");
        assert!((fit.distribution.sigma() - 0.7).abs() < 0.02, "{fit:?}");
    }

    #[test]
    fn beats_moment_fit_in_likelihood() {
        let truth = Gumbel::new(3.0, 1.5).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let data: Vec<f64> = (0..500).map(|_| truth.sample(&mut rng)).collect();
        let mle = fit_gumbel(&data).unwrap();
        let moments = Gumbel::fit_moments(&data).unwrap();
        let mll = |g: &Gumbel| -> f64 {
            data.iter()
                .map(|&x| {
                    let z = (x - g.mu()) / g.sigma();
                    -g.sigma().ln() - z - (-z).exp()
                })
                .sum::<f64>()
                / data.len() as f64
        };
        assert!(mll(&mle.distribution) >= mll(&moments) - 1e-12);
        assert!((mle.mean_log_likelihood - mll(&mle.distribution)).abs() < 1e-10);
    }

    #[test]
    fn small_sample_works() {
        let truth = Gumbel::new(0.0, 1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let data: Vec<f64> = (0..10).map(|_| truth.sample(&mut rng)).collect();
        let fit = fit_gumbel(&data).unwrap();
        assert!(fit.distribution.sigma() > 0.0);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(fit_gumbel(&[1.0, 2.0]).is_err());
        assert!(fit_gumbel(&[3.0; 10]).is_err());
        assert!(fit_gumbel(&[1.0, f64::NAN, 2.0]).is_err());
    }
}
