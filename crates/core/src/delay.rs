//! Maximum circuit delay estimation — the extension the paper's conclusion
//! proposes ("the generality of this approach makes it applicable to other
//! fields of VLSI design automation; for example, longest path delay
//! estimation").
//!
//! The settle time of a vector pair — how long the event-driven simulation
//! takes to quiesce after the second vector is applied — is, like cycle
//! power, a bounded random variable over the vector-pair space. Its right
//! endpoint is the circuit's *exercisable* critical delay (the static
//! topological critical path is an upper bound that false paths may make
//! unreachable). The identical extreme-order-statistics machinery estimates
//! it: just swap the metric.

use rand::RngCore;

use mpe_netlist::Circuit;
use mpe_sim::{DelayModel, PowerConfig, PowerSimulator};
use mpe_vectors::{PairGenerator, VectorPair};

use crate::error::MaxPowerError;
use crate::source::PowerSource;

/// A [`PowerSource`] whose "power" is the circuit's settle time (in delay
/// units) for a random vector pair — feeding the maximum-delay problem
/// through the unchanged estimator.
///
/// # Example
///
/// ```
/// use maxpower::{delay::DelaySource, EstimationConfig, EstimatorBuilder, RunOptions};
/// use mpe_netlist::{generate, Iscas85};
/// use mpe_sim::DelayModel;
/// use mpe_vectors::PairGenerator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = generate(Iscas85::C432, 7)?;
/// let source = DelaySource::new(&circuit, PairGenerator::Uniform, DelayModel::Unit);
/// let config = EstimationConfig {
///     finite_population: Some(100_000),
///     max_hyper_samples: 500,
///     ..EstimationConfig::default()
/// };
/// let session = EstimatorBuilder::new(config).build();
/// let estimate = session.run(&source, RunOptions::default().seeded(1))?;
/// // Under the unit-delay model the settle time is bounded by the depth.
/// assert!(estimate.estimate_mw <= circuit.depth() as f64 + 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DelaySource<'c> {
    simulator: PowerSimulator<'c>,
    generator: PairGenerator,
    width: usize,
    simulated: u64,
    /// The pair each draw overwrites.
    pair: VectorPair,
}

impl<'c> DelaySource<'c> {
    /// Creates a delay source over fresh random pairs from `generator`.
    pub fn new(circuit: &'c Circuit, generator: PairGenerator, delay: DelayModel) -> Self {
        DelaySource {
            simulator: PowerSimulator::new(circuit, delay, PowerConfig::default()),
            width: circuit.num_inputs(),
            generator,
            simulated: 0,
            pair: VectorPair::default(),
        }
    }

    /// Vector pairs simulated so far.
    pub fn simulated(&self) -> u64 {
        self.simulated
    }
}

impl PowerSource for DelaySource<'_> {
    fn sample(&mut self, rng: &mut dyn RngCore) -> Result<f64, MaxPowerError> {
        let pair = &mut self.pair;
        self.generator.generate_into(rng, self.width, pair);
        self.simulated += 1;
        let report = self
            .simulator
            .cycle_report(&pair.v1, &pair.v2)
            .map_err(MaxPowerError::from)?;
        // Jitter-free discrete metrics stall the continuous-distribution
        // machinery (ties make sample maxima degenerate); dithering within
        // one time quantum preserves the ordering and the endpoint while
        // restoring continuity. This mirrors how measurement noise enters
        // real silicon delay data.
        let dither: f64 = {
            let mut bytes = [0u8; 4];
            rng.fill_bytes(&mut bytes);
            u32::from_le_bytes(bytes) as f64 / u32::MAX as f64
        };
        Ok(report.settle_time as f64 + dither)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{EstimatorBuilder, RunOptions};
    use crate::EstimationConfig;
    use mpe_netlist::{generate, Iscas85};

    #[test]
    fn estimates_delay_bounded_by_depth() {
        let circuit = generate(Iscas85::C880, 5).unwrap();
        let mut source = DelaySource::new(&circuit, PairGenerator::Uniform, DelayModel::Unit);
        let config = EstimationConfig {
            finite_population: Some(100_000),
            max_hyper_samples: 500,
            ..EstimationConfig::default()
        };
        let session = EstimatorBuilder::new(config).build();
        let est = session
            .run_source(&mut source, RunOptions::default().seeded(3))
            .expect("delay estimation converges");
        // Under unit delay the settle time cannot exceed the logic depth
        // (each level adds one unit); dither adds at most 1.
        assert!(est.estimate_mw <= circuit.depth() as f64 + 1.0);
        assert!(est.estimate_mw > 1.0, "some path longer than one level");
        assert_eq!(est.units_used as u64, source.simulated());
    }

    #[test]
    fn observed_delay_close_to_estimate() {
        // Each individual hyper-sample is clamped to its own observed
        // maximum, but the final estimate is the *mean* of hyper-samples
        // (the paper's procedure), so it may sit slightly below the global
        // observed maximum — never far below it though.
        let circuit = generate(Iscas85::C432, 5).unwrap();
        let source = DelaySource::new(&circuit, PairGenerator::Uniform, DelayModel::Unit);
        let config = EstimationConfig {
            finite_population: Some(100_000),
            max_hyper_samples: 500,
            ..EstimationConfig::default()
        };
        let session = EstimatorBuilder::new(config).build();
        if let Ok(est) = session.run(&source, RunOptions::default().seeded(4)) {
            assert!(est.observed_max_mw > 0.0);
            assert!(
                est.estimate_mw >= 0.8 * est.observed_max_mw,
                "estimate {} far below observed {}",
                est.estimate_mw,
                est.observed_max_mw
            );
        }
    }

    #[test]
    fn fanout_delay_yields_longer_estimates_than_unit() {
        let circuit = generate(Iscas85::C1355, 5).unwrap();
        let run = |model: DelayModel| -> f64 {
            let source = DelaySource::new(&circuit, PairGenerator::Uniform, model);
            let config = EstimationConfig {
                finite_population: Some(50_000),
                max_hyper_samples: 500,
                ..EstimationConfig::default()
            };
            let session = EstimatorBuilder::new(config).build();
            session
                .run(&source, RunOptions::default().seeded(5))
                .map(|e| e.estimate_mw)
                .unwrap_or(f64::NAN)
        };
        let unit = run(DelayModel::Unit);
        let fanout = run(DelayModel::fanout_default());
        if unit.is_finite() && fanout.is_finite() {
            assert!(fanout > unit, "fanout {fanout} vs unit {unit}");
        }
    }
}
