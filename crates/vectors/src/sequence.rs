//! Temporally correlated vector *sequences* — beyond the paper's
//! independent-pair model.
//!
//! Real workloads are streams, not i.i.d. pairs: consecutive vectors are
//! correlated (a counter increments, a bus holds). A lag-1 Markov model per
//! input line captures the first-order structure: each line holds its value
//! with probability `1 − activity` and flips with probability `activity`
//! each cycle. Consecutive vectors of such a stream form vector pairs whose
//! *marginal* law equals [`PairGenerator::Activity`](crate::PairGenerator::Activity) — so populations built
//! from streams are directly comparable with the paper's category I.2 —
//! while the stream view also supports windowed analyses (sustained power
//! over k consecutive cycles, etc.).

use rand::Rng;

use crate::error::VectorsError;
use crate::pair::VectorPair;

/// A lag-1 Markov stream of input vectors with per-line flip probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovStream {
    activity: Vec<f64>,
    state: Vec<bool>,
}

impl MarkovStream {
    /// Creates a stream of `width` lines, all with the same per-cycle flip
    /// probability, started from a uniformly random state.
    ///
    /// # Errors
    ///
    /// Returns [`VectorsError::InvalidProbability`] if
    /// `activity ∉ [0, 1]`, and [`VectorsError::WidthMismatch`] for a zero
    /// width.
    pub fn uniform<R: Rng + ?Sized>(
        rng: &mut R,
        width: usize,
        activity: f64,
    ) -> Result<MarkovStream, VectorsError> {
        MarkovStream::with_activities(rng, vec![activity; width])
    }

    /// Creates a stream with per-line flip probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`VectorsError::InvalidProbability`] for any probability
    /// outside `[0, 1]` and [`VectorsError::WidthMismatch`] for an empty
    /// vector.
    fn with_activities<R: Rng + ?Sized>(
        rng: &mut R,
        activity: Vec<f64>,
    ) -> Result<MarkovStream, VectorsError> {
        if activity.is_empty() {
            return Err(VectorsError::WidthMismatch {
                expected: 1,
                got: 0,
            });
        }
        for &p in &activity {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(VectorsError::InvalidProbability {
                    what: "activity",
                    value: p,
                });
            }
        }
        let state = (0..activity.len()).map(|_| rng.gen()).collect();
        Ok(MarkovStream { activity, state })
    }

    /// Input width.
    pub fn width(&self) -> usize {
        self.activity.len()
    }

    /// The current vector.
    pub fn current(&self) -> &[bool] {
        &self.state
    }

    /// Advances one cycle and returns the new vector.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> &[bool] {
        for (bit, &p) in self.state.iter_mut().zip(&self.activity) {
            if rng.gen_bool(p) {
                *bit = !*bit;
            }
        }
        &self.state
    }

    /// Advances one cycle and returns the `(previous, new)` transition as a
    /// [`VectorPair`] — the unit the power simulator consumes.
    fn step_pair<R: Rng + ?Sized>(&mut self, rng: &mut R) -> VectorPair {
        let before = self.state.clone();
        self.step(rng);
        VectorPair::new(before, self.state.clone())
    }

    /// Generates `cycles` consecutive transitions.
    pub fn pairs<R: Rng + ?Sized>(&mut self, rng: &mut R, cycles: usize) -> Vec<VectorPair> {
        (0..cycles).map(|_| self.step_pair(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn marginal_activity_matches_parameter() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut stream = MarkovStream::uniform(&mut rng, 64, 0.3).unwrap();
        let pairs = stream.pairs(&mut rng, 5_000);
        let mean: f64 =
            pairs.iter().map(|p| p.switching_activity()).sum::<f64>() / pairs.len() as f64;
        assert!((mean - 0.3).abs() < 0.01, "{mean}");
    }

    #[test]
    fn consecutive_pairs_share_state() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut stream = MarkovStream::uniform(&mut rng, 16, 0.5).unwrap();
        let a = stream.step_pair(&mut rng);
        let b = stream.step_pair(&mut rng);
        assert_eq!(a.v2, b.v1, "the stream is a chain, not i.i.d. pairs");
    }

    #[test]
    fn frozen_and_toggling_lines() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut acts = vec![0.0; 8];
        acts[0] = 1.0; // line 0 toggles every cycle
        let mut stream = MarkovStream::with_activities(&mut rng, acts).unwrap();
        let first = stream.current().to_vec();
        for cycle in 1..=10 {
            let v = stream.step(&mut rng).to_vec();
            assert_eq!(v[0], first[0] ^ (cycle % 2 == 1));
            assert_eq!(&v[1..], &first[1..]);
        }
    }

    #[test]
    fn per_line_rates_respected() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut acts = vec![0.1; 32];
        acts[5] = 0.9;
        let mut stream = MarkovStream::with_activities(&mut rng, acts).unwrap();
        let cycles = 20_000;
        let mut flips5 = 0u32;
        let mut flips_other = 0u32;
        for _ in 0..cycles {
            let p = stream.step_pair(&mut rng);
            if p.v1[5] != p.v2[5] {
                flips5 += 1;
            }
            if p.v1[7] != p.v2[7] {
                flips_other += 1;
            }
        }
        assert!((flips5 as f64 / cycles as f64 - 0.9).abs() < 0.02);
        assert!((flips_other as f64 / cycles as f64 - 0.1).abs() < 0.02);
    }

    #[test]
    fn validation() {
        let mut rng = SmallRng::seed_from_u64(5);
        assert!(MarkovStream::uniform(&mut rng, 4, 1.5).is_err());
        assert!(MarkovStream::uniform(&mut rng, 0, 0.5).is_err());
        assert!(MarkovStream::with_activities(&mut rng, vec![0.5, f64::NAN]).is_err());
    }
}
