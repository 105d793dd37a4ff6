//! Fixed-width histograms.

use crate::error::StatsError;

/// A fixed-width histogram over a closed interval.
///
/// Used by the Figure 2 experiment to print its density series.
///
/// # Example
///
/// ```
/// use mpe_stats::Histogram;
/// # fn main() -> Result<(), mpe_stats::StatsError> {
/// let mut h = Histogram::new(0.0, 10.0, 5)?;
/// for x in [1.0, 1.5, 9.9, 5.0] {
///     h.add(x);
/// }
/// assert_eq!(h.counts()[0], 2); // [0,2)
/// assert_eq!(h.counts()[4], 1); // [8,10]
/// assert_eq!(h.total(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    outliers: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins on `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidArgument`] if `lo >= hi`, either bound is
    /// not finite, or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(StatsError::invalid("lo/hi", "finite and lo < hi", hi - lo));
        }
        if bins == 0 {
            return Err(StatsError::invalid("bins", "bins >= 1", 0.0));
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            outliers: 0,
        })
    }

    /// Builds a histogram covering exactly the data range.
    ///
    /// # Errors
    ///
    /// Propagates construction errors; additionally fails on an empty slice.
    pub fn from_data(data: &[f64], bins: usize) -> Result<Self, StatsError> {
        if data.is_empty() {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Degenerate all-equal samples get a tiny symmetric widening.
        let (lo, hi) = if lo == hi {
            (lo - 0.5, hi + 0.5)
        } else {
            (lo, hi)
        };
        let mut h = Histogram::new(lo, hi, bins)?;
        for &x in data {
            h.add(x);
        }
        Ok(h)
    }

    /// Adds one observation. Values outside `[lo, hi]` are counted as
    /// outliers and excluded from the bins; the final bin is closed on the
    /// right so `hi` itself lands in it.
    pub fn add(&mut self, x: f64) {
        if x < self.lo || x > self.hi || x.is_nan() {
            self.outliers += 1;
            return;
        }
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let mut idx = ((x - self.lo) / w) as usize;
        if idx >= self.counts.len() {
            idx = self.counts.len() - 1;
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total in-range observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations that fell outside `[lo, hi]` (or were NaN).
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Bin width.
    fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Center x-coordinate of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a bin index.
    fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Density estimate per bin: `count / (total · width)`, forming a
    /// piecewise-constant PDF estimate that integrates to 1 over `[lo, hi]`.
    fn densities(&self) -> Vec<f64> {
        let denom = self.total as f64 * self.bin_width();
        self.counts
            .iter()
            .map(|&c| if denom > 0.0 { c as f64 / denom } else { 0.0 })
            .collect()
    }

    /// `(bin_center, density)` pairs — a plot-ready series.
    pub fn density_series(&self) -> Vec<(f64, f64)> {
        self.densities()
            .into_iter()
            .enumerate()
            .map(|(i, d)| (self.bin_center(i), d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_assignment_edges() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(0.0); // first bin
        h.add(0.5); // second bin (left-closed)
        h.add(1.0); // final bin right-closed
        assert_eq!(h.counts(), &[1, 2]);
        assert_eq!(h.total(), 3);
        assert_eq!(h.outliers(), 0);
    }

    #[test]
    fn outliers_counted() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.add(-0.1);
        h.add(1.1);
        h.add(f64::NAN);
        assert_eq!(h.total(), 0);
        assert_eq!(h.outliers(), 3);
    }

    #[test]
    fn density_integrates_to_one() {
        let data: Vec<f64> = (0..1000).map(|i| (i % 97) as f64 / 97.0).collect();
        let h = Histogram::from_data(&data, 10).unwrap();
        let integral: f64 = h.densities().iter().sum::<f64>() * h.bin_width();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_data_degenerate_sample() {
        let h = Histogram::from_data(&[2.0, 2.0, 2.0], 3).unwrap();
        assert_eq!(h.total(), 3);
        assert_eq!(h.outliers(), 0);
    }

    #[test]
    fn construction_errors() {
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(2.0, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::from_data(&[], 4).is_err());
    }

    #[test]
    fn centers_and_width() {
        let h = Histogram::new(0.0, 10.0, 5).unwrap();
        assert_eq!(h.bin_width(), 2.0);
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_center(4), 9.0);
        assert_eq!(h.counts().len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bin_center_bounds() {
        Histogram::new(0.0, 1.0, 2).unwrap().bin_center(2);
    }

    #[test]
    fn density_series_pairs() {
        let mut h = Histogram::new(0.0, 4.0, 4).unwrap();
        for x in [0.5, 1.5, 2.5, 3.5] {
            h.add(x);
        }
        let s = h.density_series();
        assert_eq!(s.len(), 4);
        for (i, (x, d)) in s.iter().enumerate() {
            assert_eq!(*x, 0.5 + i as f64);
            assert!((d - 0.25).abs() < 1e-12);
        }
    }
}
