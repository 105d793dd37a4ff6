//! The domain of attraction of a sample's maximum, read from its tail
//! (the paper's Theorems 1 and 2).

use crate::error::EvtError;

/// The moment estimator of the extreme-value index `ξ`
/// (Dekkers, Einmahl, de Haan 1989), using the top `n^{2/3}` order
/// statistics.
///
/// Positive estimates indicate heavy (Fréchet) tails, near-zero Gumbel,
/// negative a finite endpoint (Weibull). The limiting-law ablation bench
/// reports it per circuit.
///
/// # Errors
///
/// Returns [`EvtError::InsufficientData`] for samples smaller than 16.
pub fn moment_tail_index(data: &[f64]) -> Result<f64, EvtError> {
    if data.len() < 16 {
        return Err(EvtError::InsufficientData {
            needed: 16,
            got: data.len(),
        });
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in tail index input"));
    let n = sorted.len();
    let k = (n as f64).powf(2.0 / 3.0) as usize;
    let k = k.clamp(4, n - 1);
    // Shift so the k+1 largest values are strictly positive (the estimator
    // needs logs of ratios; shifting by the min preserves the tail index).
    let x_k1 = sorted[n - 1 - k]; // the (k+1)-th largest
    let shift = if x_k1 <= 0.0 { -x_k1 + 1.0 } else { 0.0 };
    let base = (x_k1 + shift).ln();
    let mut m1 = 0.0;
    let mut m2 = 0.0;
    for &x in &sorted[n - k..] {
        let d = (x + shift).ln() - base;
        m1 += d;
        m2 += d * d;
    }
    m1 /= k as f64;
    m2 /= k as f64;
    if m2 <= 0.0 {
        // All top values identical — a hard bound: strongly Weibull.
        return Ok(-1.0);
    }
    Ok(m1 + 1.0 - 0.5 / (1.0 - m1 * m1 / m2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gumbel, ReversedWeibull};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The sign of ξ̂ outside this band names the domain of attraction:
    /// positive Fréchet, negative Weibull, inside it Gumbel. The moment
    /// estimator's noise at these sample sizes keeps genuine Gumbel
    /// samples (ξ = 0) inside ±0.2.
    const BAND: f64 = 0.2;

    #[test]
    fn classify_heavy_tail_as_frechet() {
        // Pareto(α = 1): ξ = 1.
        let mut rng = SmallRng::seed_from_u64(3);
        let data: Vec<f64> = (0..20_000)
            .map(|_| rng.gen_range(1e-12f64..1.0).recip())
            .collect();
        let xi = moment_tail_index(&data).unwrap();
        assert!(xi > BAND, "{xi}");
    }

    #[test]
    fn classify_bounded_sample_as_weibull() {
        let w = ReversedWeibull::new(1.0, 1.0, 5.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let data = w.sample_n(&mut rng, 20_000);
        let xi = moment_tail_index(&data).unwrap();
        assert!(xi < -BAND, "{xi}");
    }

    #[test]
    fn classify_light_tail_as_gumbel() {
        let g = Gumbel::new(0.0, 1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let data: Vec<f64> = (0..20_000).map(|_| g.sample(&mut rng)).collect();
        let xi = moment_tail_index(&data).unwrap();
        assert!(xi.abs() <= BAND, "{xi}");
    }

    #[test]
    fn classify_insufficient_data() {
        assert!(moment_tail_index(&[1.0, 2.0]).is_err());
    }
}
