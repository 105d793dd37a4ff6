//! Two-parameter Weibull MLE on positive data — the inner problem of the
//! profile-likelihood fit.
//!
//! For `y_1, …, y_m > 0` with density
//! `f(y) = α β y^{α−1} exp(−β y^α)` (so `β = λ^{−α}` against the usual
//! scale-`λ` convention), the log-likelihood is
//!
//! `ℓ(α, β) = m ln α + m ln β + (α−1) Σ ln y_i − β Σ y_i^α`.
//!
//! Setting `∂ℓ/∂β = 0` gives the closed form `β̂(α) = m / Σ y_i^α`;
//! substituting back leaves the classic **shape equation**
//!
//! `g(α) = Σ y_i^α ln y_i / Σ y_i^α − 1/α − (1/m) Σ ln y_i = 0`,
//!
//! whose left side is strictly increasing in `α`, so a bracketed
//! Newton/bisection solve is globally convergent.

use crate::error::MleError;
use mpe_stats::optimize::bisect_newton;

/// Result of a two-parameter Weibull maximum-likelihood fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull2Fit {
    /// Shape `α̂`.
    pub alpha: f64,
    /// Rate-style scale `β̂` (density `αβ y^{α−1} e^{−β y^α}`).
    pub beta: f64,
    /// Mean log-likelihood at the optimum.
    pub mean_log_likelihood: f64,
}

/// Numerically safe `ln` for strictly positive data (guards the optimizer
/// against denormal `y` produced when the profile search probes `μ` just
/// above the sample maximum).
fn safe_ln(y: f64) -> f64 {
    y.max(1e-300).ln()
}

/// Fits a two-parameter Weibull to strictly positive data by maximum
/// likelihood.
///
/// # Errors
///
/// * [`MleError::InsufficientData`] — fewer than 3 observations;
/// * [`MleError::DegenerateSample`] — any `y ≤ 0`, all values identical
///   (the shape equation then has no finite root), or `Σ y_i^α̂` so small or
///   large that `β̂` or the log-likelihood is not finite;
/// * [`MleError::NoConvergence`] — the root solve failed (pathological data).
///
/// # Example
///
/// ```
/// use mpe_mle::weibull2::fit_weibull2;
/// # fn main() -> Result<(), mpe_mle::MleError> {
/// // Exponential data (Weibull with α = 1, β = rate)
/// let y: Vec<f64> = (1..200).map(|i| -f64::ln(i as f64 / 200.0)).collect();
/// let fit = fit_weibull2(&y)?;
/// assert!((fit.alpha - 1.0).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
pub fn fit_weibull2(y: &[f64]) -> Result<Weibull2Fit, MleError> {
    fit_weibull2_in(y, &mut Vec::with_capacity(y.len()))
}

/// `(Σp, Σp·l, Σp·l²)` with `p = y_i^α` and `l = ln y_i`: one pass yields
/// the shape residual, its derivative and, at the root, `β̂`.
fn power_sums(y: &[f64], ln_y: &[f64], alpha: f64) -> (f64, f64, f64) {
    let (mut s, mut sl, mut sll) = (0.0, 0.0, 0.0);
    for (&v, &l) in y.iter().zip(ln_y) {
        let p = v.powf(alpha);
        s += p;
        sl += p * l;
        sll += p * l * l;
    }
    (s, sl, sll)
}

/// What the upper bracket-end sign proof needs of the data and `l_i = ln y_i`.
struct BracketSigns {
    y_max: f64,
    /// `max l = ln max y_i`, `max |l_i|` and `mean l`.
    max_ln: f64,
    max_abs_ln: f64,
    mean_ln: f64,
    /// A residual within `margin` of zero has no decided sign. It sits far
    /// above the rounding error of either computation: the recursive-sum
    /// bound `m·ε·max|l|`, and a few thousand `ε` from the squarings below.
    margin: f64,
}

impl BracketSigns {
    fn new(y: &[f64], ln_y: &[f64], mean_ln: f64) -> Self {
        let y_max = y.iter().copied().fold(0.0, f64::max);
        let max_abs_ln = ln_y.iter().map(|l| l.abs()).fold(0.0, f64::max);
        BracketSigns {
            y_max,
            max_ln: safe_ln(y_max),
            max_abs_ln,
            mean_ln,
            margin: (1e-9 + 16.0 * y.len() as f64 * f64::EPSILON) * (1.0 + max_abs_ln),
        }
    }

    /// The sign of the shape residual at the upper bracket end
    /// `alpha = 10·4^grow`.
    ///
    /// The weights `w_i = (y_i/y_max)^alpha ≤ 1` come from squaring (`r²`,
    /// `r⁴`, `r⁸·r²`, then `^4` per growth step), and
    /// `g = max l − Σw(max l − l)/Σw − 1/alpha − mean l` is, to rounding,
    /// the residual a [`power_sums`] pass gives. Its sign is that pass's
    /// sign when
    /// * `alpha·max|l| < 600`: every `y_i^alpha` is then finite and normal,
    ///   so the pass has no overflowed or underflowed `Σp` (and no `NaN`
    ///   residual) to reproduce; and each weight's relative error from the
    ///   squarings, about `alpha·ε`, moves the weighted mean of
    ///   `max l − l ≤ 2·max|l|` by a few thousand `ε` at most;
    /// * `|g|` clears the margin.
    fn at_upper(&self, y: &[f64], ln_y: &[f64], alpha: f64, grow: u32) -> Option<f64> {
        if alpha * self.max_abs_ln >= 600.0 {
            return None;
        }
        let (mut sw, mut swd) = (0.0, 0.0);
        for (&v, &l) in y.iter().zip(ln_y) {
            let r = v / self.y_max;
            let r2 = r * r;
            let r4 = r2 * r2;
            let mut w = r4 * r4 * r2;
            for _ in 0..grow {
                let w2 = w * w;
                w = w2 * w2;
            }
            sw += w;
            swd += w * (self.max_ln - l);
        }
        let g = self.max_ln - swd / sw - 1.0 / alpha - self.mean_ln;
        (g.abs() > self.margin).then_some(g.signum())
    }
}

/// [`fit_weibull2`] with a caller-owned buffer for `ln y_i`, which it fills
/// once; the profile search reuses one buffer for every probe of a fit.
pub(crate) fn fit_weibull2_in(y: &[f64], ln_y: &mut Vec<f64>) -> Result<Weibull2Fit, MleError> {
    let m = y.len();
    if m < 3 {
        return Err(MleError::InsufficientData { needed: 3, got: m });
    }
    if y.iter().any(|&v| !(v.is_finite() && v > 0.0)) {
        return Err(MleError::DegenerateSample {
            reason: "all observations must be strictly positive and finite",
        });
    }
    ln_y.clear();
    ln_y.extend(y.iter().map(|&v| safe_ln(v)));
    let ln_y = &ln_y[..];
    let mean_ln: f64 = ln_y.iter().sum::<f64>() / m as f64;
    let spread = ln_y
        .iter()
        .map(|&l| (l - mean_ln).abs())
        .fold(0.0, f64::max);
    if spread < 1e-12 {
        return Err(MleError::DegenerateSample {
            reason: "all observations identical; shape is unbounded",
        });
    }

    // Shape equation residual g(α) = Σp·l/Σp − 1/α − mean ln y and its
    // derivative, from one pass; `last` keeps (α, Σp) of the latest pass,
    // so the root's Σp gives β̂ without another pass.
    let mut last = (f64::NAN, 0.0);
    let mut shape = |alpha: f64| -> (f64, f64) {
        let (s, sl, sll) = power_sums(y, ln_y, alpha);
        last = (alpha, s);
        // d/dα [Σp·l/Σp] = (Σp·l² · Σp − (Σp·l)²)/ (Σp)² ; plus 1/α²
        let dg = (sll * s - sl * sl) / (s * s) + 1.0 / (alpha * alpha);
        (sl / s - 1.0 / alpha - mean_ln, dg)
    };

    // Bracket the root: g is increasing, and for large α,
    // g → max ln y − mean ln y > 0. Grow the upper bound until the sign
    // flips. `bisect_newton` reads the bracket ends' residuals only through
    // their signs, so an end whose sign is proven costs no pass.
    //
    // The lower end's sign is always proven: at α = 10⁻³ every weight y^α
    // lies in [0.475, 2.03] and `safe_ln` keeps ln y in [−690.8, 709.8], so
    // the Σp-weighted mean of ln y exceeds its plain mean by at most
    // 1400.6·(√4.27 − 1)/(√4.27 + 1) ≈ 487 < 1000 = 1/α, and g(10⁻³) < 0.
    let signs = BracketSigns::new(y, ln_y, mean_ln);
    let lo = 1e-3;
    let g_lo = -1.0;
    let mut hi = 10.0;
    let mut grow = 0;
    let mut g_hi = signs
        .at_upper(y, ln_y, hi, grow)
        .unwrap_or_else(|| shape(hi).0);
    while g_hi < 0.0 {
        hi *= 4.0;
        grow += 1;
        if grow > 40 {
            return Err(MleError::NoConvergence {
                stage: "weibull2 shape bracket",
            });
        }
        g_hi = signs
            .at_upper(y, ln_y, hi, grow)
            .unwrap_or_else(|| shape(hi).0);
    }
    let root = bisect_newton(&mut shape, (lo, g_lo), (hi, g_hi), 1e-12).map_err(|_| {
        MleError::NoConvergence {
            stage: "weibull2 shape equation",
        }
    })?;
    let alpha = root.x;
    // A bracket end that is itself the root may not be the latest pass.
    let sum_pow = if last.0 == alpha {
        last.1
    } else {
        power_sums(y, ln_y, alpha).0
    };
    let beta = m as f64 / sum_pow;
    let mll = alpha.ln() + beta.ln() + (alpha - 1.0) * mean_ln - beta * sum_pow / m as f64;
    if !(beta.is_finite() && mll.is_finite()) {
        return Err(MleError::DegenerateSample {
            reason: "sum of y^alpha under- or overflows; the scale is not representable",
        });
    }
    Ok(Weibull2Fit {
        alpha,
        beta,
        mean_log_likelihood: mll,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Inverse-CDF sampler for the (α, β) parameterization used here:
    /// `Y = (−ln U / β)^{1/α}`.
    fn sample_weibull(rng: &mut SmallRng, alpha: f64, beta: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(1e-12..1.0);
                (-u.ln() / beta).powf(1.0 / alpha)
            })
            .collect()
    }

    #[test]
    fn recovers_exponential() {
        let mut rng = SmallRng::seed_from_u64(1);
        let y = sample_weibull(&mut rng, 1.0, 2.0, 20_000);
        let fit = fit_weibull2(&y).unwrap();
        assert!((fit.alpha - 1.0).abs() < 0.03, "alpha {}", fit.alpha);
        assert!((fit.beta - 2.0).abs() < 0.1, "beta {}", fit.beta);
    }

    #[test]
    fn recovers_steep_shape() {
        let mut rng = SmallRng::seed_from_u64(2);
        let y = sample_weibull(&mut rng, 5.0, 0.7, 20_000);
        let fit = fit_weibull2(&y).unwrap();
        assert!((fit.alpha - 5.0).abs() < 0.15, "alpha {}", fit.alpha);
        assert!((fit.beta - 0.7).abs() < 0.1, "beta {}", fit.beta);
    }

    #[test]
    fn recovers_shallow_shape() {
        let mut rng = SmallRng::seed_from_u64(3);
        let y = sample_weibull(&mut rng, 0.5, 1.0, 20_000);
        let fit = fit_weibull2(&y).unwrap();
        assert!((fit.alpha - 0.5).abs() < 0.02, "alpha {}", fit.alpha);
    }

    #[test]
    fn small_sample_still_fits() {
        let mut rng = SmallRng::seed_from_u64(4);
        let y = sample_weibull(&mut rng, 3.0, 1.0, 10);
        let fit = fit_weibull2(&y).unwrap();
        assert!(fit.alpha > 0.5 && fit.alpha < 20.0);
        assert!(fit.beta > 0.0);
    }

    #[test]
    fn likelihood_is_maximal_at_fit() {
        let mut rng = SmallRng::seed_from_u64(5);
        let y = sample_weibull(&mut rng, 2.0, 1.0, 1000);
        let fit = fit_weibull2(&y).unwrap();
        let mll = |alpha: f64, beta: f64| {
            let m = y.len() as f64;
            let sum_ln: f64 = y.iter().map(|v| v.ln()).sum();
            let sum_pow: f64 = y.iter().map(|v| v.powf(alpha)).sum();
            alpha.ln() + beta.ln() + (alpha - 1.0) * sum_ln / m - beta * sum_pow / m
        };
        let at_fit = mll(fit.alpha, fit.beta);
        assert!((at_fit - fit.mean_log_likelihood).abs() < 1e-10);
        for (da, db) in [(0.1, 0.0), (-0.1, 0.0), (0.0, 0.1), (0.0, -0.05)] {
            assert!(at_fit >= mll(fit.alpha + da, fit.beta + db));
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(fit_weibull2(&[1.0, 2.0]).is_err());
        assert!(fit_weibull2(&[1.0, -1.0, 2.0]).is_err());
        assert!(fit_weibull2(&[1.0, 0.0, 2.0]).is_err());
        assert!(fit_weibull2(&[2.0, 2.0, 2.0, 2.0]).is_err());
        assert!(fit_weibull2(&[1.0, f64::INFINITY, 2.0]).is_err());
    }

    #[test]
    fn handles_tiny_values() {
        // Tiny but representable: Σ y^α ≈ 1e-256, so the fit stays finite.
        let y = vec![1e-160, 2e-160, 3e-160, 5e-160, 8e-160];
        let fit = fit_weibull2(&y).unwrap();
        assert!(fit.alpha.is_finite() && fit.alpha > 0.0);
        assert!(fit.beta.is_finite() && fit.beta > 0.0);
        assert!(fit.mean_log_likelihood.is_finite());
        // Near the denormal range Σ y^α underflows and β̂ = m/Σ y^α would be
        // +∞ with a NaN log-likelihood: that must be an error, not an `Ok`.
        let y = vec![1e-200, 2e-200, 3e-200, 5e-200, 8e-200];
        assert!(matches!(
            fit_weibull2(&y),
            Err(MleError::DegenerateSample { .. })
        ));
    }

    #[test]
    fn handles_mixed_scales() {
        let y = vec![1e-6, 1e-3, 1.0, 10.0, 100.0, 1000.0];
        let fit = fit_weibull2(&y).unwrap();
        assert!(fit.alpha > 0.0 && fit.alpha < 1.0); // huge spread => small shape
    }
}
