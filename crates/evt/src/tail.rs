//! Tail equivalence and the finite-population quantile (paper §3.4).

use crate::error::EvtError;
use crate::weibull::ReversedWeibull;

/// The finite-population maximum estimator of the paper's Section 3.4.
///
/// A finite population `V` is viewed as a size-`|V|` random sample from the
/// assumed continuous parent `F`; if exactly one unit attains the maximum,
/// that maximum is (in expectation) the `(1 − 1/|V|)` quantile of `F`. The
/// Weibull we fit is the law of **block maxima**, `G = Fⁿ` for block size
/// `n`, so the population maximum corresponds to the
/// `(1 − 1/|V|)ⁿ ≈ 1 − n/|V|` quantile of the *fitted* distribution:
///
/// `G(F⁻¹(1 − 1/|V|)) = (1 − 1/|V|)ⁿ`.
///
/// This is the precise form of the paper's tail-equivalence argument: the
/// raw endpoint `μ̂` (the 100 % quantile) systematically overshoots a finite
/// population's maximum, while this quantile estimator is unbiased — and,
/// because it extrapolates `n×` less deeply into the unobserved tail, it is
/// also markedly more stable than evaluating at `1 − 1/|V|` directly.
///
/// Pass `block_size = 1` to reproduce the paper's literal
/// "(1 − 1/|V|) quantile of the Weibull" wording (used by the estimator
/// ablation bench).
///
/// # Errors
///
/// Returns [`EvtError::InvalidParameter`] if `population_size < 2` or
/// `block_size == 0`.
///
/// # Example
///
/// ```
/// use mpe_evt::{ReversedWeibull, tail::finite_population_maximum};
/// # fn main() -> Result<(), mpe_evt::EvtError> {
/// let fitted = ReversedWeibull::new(3.0, 1.0, 10.0)?;
/// let est = finite_population_maximum(&fitted, 160_000, 30)?;
/// assert!(est < 10.0);                     // strictly below μ̂ ...
/// assert!(est > fitted.quantile(0.99)?);   // ... but deep in the tail
/// # Ok(())
/// # }
/// ```
pub fn finite_population_maximum(
    fitted: &ReversedWeibull,
    population_size: u64,
    block_size: usize,
) -> Result<f64, EvtError> {
    if population_size < 2 {
        return Err(EvtError::invalid(
            "population_size",
            ">= 2",
            population_size as f64,
        ));
    }
    if block_size == 0 {
        return Err(EvtError::invalid("block_size", ">= 1", 0.0));
    }
    // Level of the fitted G: q = (1 − 1/|V|)^n, evaluated in log space so
    // huge |V| stays exact: −ln q = −n·ln(1 − 1/|V|).
    let v = population_size as f64;
    let neg_ln_q = -(block_size as f64) * (-1.0 / v).ln_1p(); // > 0
    Ok(fitted.mu() - (neg_ln_q / fitted.beta()).powf(1.0 / fitted.alpha()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_population_below_endpoint() {
        let w = ReversedWeibull::new(2.5, 1.0, 7.0).unwrap();
        let est = finite_population_maximum(&w, 1000, 30).unwrap();
        assert!(est < 7.0);
        // matches the (1 − 1/|V|)^n quantile of the fitted block-maxima law
        let direct = w.quantile((1.0f64 - 1.0 / 1000.0).powi(30)).unwrap();
        assert!((est - direct).abs() < 1e-10);
    }

    #[test]
    fn block_size_one_is_papers_literal_variant() {
        let w = ReversedWeibull::new(2.5, 1.0, 7.0).unwrap();
        let est = finite_population_maximum(&w, 1000, 1).unwrap();
        let direct = w.quantile(1.0 - 1.0 / 1000.0).unwrap();
        assert!((est - direct).abs() < 1e-10);
        // deeper extrapolation than the block-aware variant
        let block = finite_population_maximum(&w, 1000, 30).unwrap();
        assert!(est > block);
    }

    #[test]
    fn zero_block_size_rejected() {
        let w = ReversedWeibull::new(2.5, 1.0, 7.0).unwrap();
        assert!(finite_population_maximum(&w, 1000, 0).is_err());
    }

    #[test]
    fn larger_population_closer_to_endpoint() {
        let w = ReversedWeibull::new(3.0, 2.0, 5.0).unwrap();
        let e1 = finite_population_maximum(&w, 1_000, 30).unwrap();
        let e2 = finite_population_maximum(&w, 1_000_000, 30).unwrap();
        assert!(e2 > e1);
        assert!(e2 < 5.0);
    }

    #[test]
    fn huge_population_numerically_stable() {
        let w = ReversedWeibull::new(3.0, 2.0, 5.0).unwrap();
        let e = finite_population_maximum(&w, u64::MAX / 2, 30).unwrap();
        assert!(e < 5.0 && e > 4.0);
    }

    #[test]
    fn tiny_population_rejected() {
        let w = ReversedWeibull::new(3.0, 2.0, 5.0).unwrap();
        assert!(finite_population_maximum(&w, 1, 30).is_err());
    }
}
