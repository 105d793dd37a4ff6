//! The vector pair — one unit of the paper's population.

/// An input vector pair `(v1, v2)`: the circuit settles at `v1`, then `v2`
/// is applied for the measured cycle.
///
/// The default is the empty pair, a buffer for
/// [`PairGenerator::generate_into`](crate::PairGenerator::generate_into)
/// to fill.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct VectorPair {
    /// The settling vector.
    pub v1: Vec<bool>,
    /// The active-cycle vector.
    pub v2: Vec<bool>,
}

impl VectorPair {
    /// Creates a pair.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different widths.
    pub fn new(v1: Vec<bool>, v2: Vec<bool>) -> Self {
        assert_eq!(v1.len(), v2.len(), "vector widths must match");
        VectorPair { v1, v2 }
    }

    /// Input width.
    pub fn width(&self) -> usize {
        self.v1.len()
    }

    /// Number of input lines that change between `v1` and `v2`.
    pub fn hamming_distance(&self) -> usize {
        self.v1.iter().zip(&self.v2).filter(|(a, b)| a != b).count()
    }

    /// Average switching activity: the fraction of input lines that change,
    /// `hamming_distance / width` — the quantity the paper's population
    /// constraints are phrased in.
    pub fn switching_activity(&self) -> f64 {
        if self.v1.is_empty() {
            0.0
        } else {
            self.hamming_distance() as f64 / self.width() as f64
        }
    }

    /// Borrowed view `(v1, v2)` for simulator calls.
    pub fn as_slices(&self) -> (&[bool], &[bool]) {
        (&self.v1, &self.v2)
    }
}

/// Populations of `VectorPair`s feed the batch simulator directly — no
/// intermediate `(Vec<bool>, Vec<bool>)` clone of the whole population.
impl mpe_sim::PopulationPair for VectorPair {
    fn before(&self) -> &[bool] {
        &self.v1
    }

    fn after(&self) -> &[bool] {
        &self.v2
    }
}

impl From<(Vec<bool>, Vec<bool>)> for VectorPair {
    fn from((v1, v2): (Vec<bool>, Vec<bool>)) -> Self {
        VectorPair::new(v1, v2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_computation() {
        let p = VectorPair::new(
            vec![true, false, true, false],
            vec![true, true, false, false],
        );
        assert_eq!(p.hamming_distance(), 2);
        assert_eq!(p.switching_activity(), 0.5);
        assert_eq!(p.width(), 4);
    }

    #[test]
    fn identical_vectors_zero_activity() {
        let p = VectorPair::new(vec![true; 8], vec![true; 8]);
        assert_eq!(p.switching_activity(), 0.0);
    }

    #[test]
    fn full_flip_unit_activity() {
        let p = VectorPair::new(vec![false; 8], vec![true; 8]);
        assert_eq!(p.switching_activity(), 1.0);
    }

    #[test]
    #[should_panic(expected = "widths must match")]
    fn width_mismatch_panics() {
        VectorPair::new(vec![true], vec![true, false]);
    }

    #[test]
    fn conversions() {
        let p: VectorPair = (vec![true], vec![false]).into();
        let (a, b) = p.as_slices();
        assert_eq!(a, &[true]);
        assert_eq!(b, &[false]);
    }
}
