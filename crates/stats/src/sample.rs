//! Random sampling helpers.
//!
//! `rand` 0.8 without `rand_distr` only provides uniform sampling; this
//! module adds the handful of samplers the workspace needs, all taking an
//! explicit [`Rng`] so callers control seeding and reproducibility.

use rand::Rng;

/// Draws one standard-normal variate via the Box–Muller transform.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use mpe_stats::sample::standard_normal;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let z = standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 which would take ln(0).
    let u1: f64 = loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a normal variate with the given mean and standard deviation.
///
/// # Panics
///
/// Panics if `sd < 0`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    assert!(sd >= 0.0, "sd must be non-negative");
    mean + sd * standard_normal(rng)
}

/// Draws one variate from the paper's generalized (reversed) Weibull
/// `G(x; α, β, μ) = exp(−β(μ−x)^α)` by CDF inversion:
/// `x = μ − (−ln U / β)^{1/α}` for uniform `U`.
///
/// # Panics
///
/// Panics if `alpha <= 0` or `beta <= 0`.
pub fn reversed_weibull<R: Rng + ?Sized>(rng: &mut R, alpha: f64, beta: f64, mu: f64) -> f64 {
    assert!(alpha > 0.0 && beta > 0.0, "alpha and beta must be positive");
    let u: f64 = loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            break u;
        }
    };
    mu - (-u.ln() / beta).powf(1.0 / alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_scaling() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += normal(&mut rng, 5.0, 2.0);
        }
        assert!((sum / n as f64 - 5.0).abs() < 0.05);
    }

    #[test]
    fn reversed_weibull_bounded_by_mu() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = reversed_weibull(&mut rng, 3.0, 2.0, 10.0);
            assert!(x <= 10.0);
        }
    }

    #[test]
    fn reversed_weibull_cdf_matches() {
        // Empirical CDF at a point vs analytic G
        let (alpha, beta, mu) = (2.5, 1.3, 4.0);
        let mut rng = SmallRng::seed_from_u64(9);
        let x0 = 3.0;
        let analytic = (-beta * (mu - x0_f(x0)).powf(alpha)).exp();
        fn x0_f(x: f64) -> f64 {
            x
        }
        let n = 100_000;
        let mut cnt = 0;
        for _ in 0..n {
            if reversed_weibull(&mut rng, alpha, beta, mu) <= x0 {
                cnt += 1;
            }
        }
        let emp = cnt as f64 / n as f64;
        assert!((emp - analytic).abs() < 0.01, "{emp} vs {analytic}");
    }
}
