//! Finite, fully pre-simulated vector-pair populations.

use rand::Rng;

use mpe_netlist::Circuit;
use mpe_sim::{simulate_population_kernel, DelayModel, KernelMode, PowerConfig};

use crate::error::VectorsError;
use crate::generate::PairGenerator;
use crate::pair::VectorPair;

/// A finite population `V` of vector pairs with every unit's power
/// pre-computed — the experimental substrate of the paper's Section IV.
///
/// Building a population performs the "simulate the whole population with
/// PowerMill" step: it yields the ground-truth **actual maximum power**
/// (the quantity estimates are judged against) and the *qualified unit
/// fraction* `Y` (units within ε of the maximum) that drives the paper's
/// SRS cost analysis `x = log(0.1)/log(1−Y)`.
///
/// Sampling *units* (powers) from the population with replacement mirrors
/// the paper's convention that `|V|` is effectively infinite because pairs
/// may repeat.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    generator: PairGenerator,
    pairs: Vec<VectorPair>,
    powers: Vec<f64>,
    actual_max: f64,
    delay: DelayModel,
    seed: u64,
}

impl Population {
    /// Generates `size` vector pairs from `generator` and simulates all of
    /// them under `delay`/`config`, using `threads` workers (0 = auto).
    ///
    /// Deterministic given `(circuit, generator, size, delay, config, seed)`.
    ///
    /// # Errors
    ///
    /// * [`VectorsError::EmptyPopulation`] — `size == 0`;
    /// * generator validation errors;
    /// * [`VectorsError::Sim`] — simulation failure.
    pub fn build(
        circuit: &Circuit,
        generator: &PairGenerator,
        size: usize,
        delay: DelayModel,
        config: PowerConfig,
        seed: u64,
        threads: usize,
    ) -> Result<Population, VectorsError> {
        Self::build_with_kernel(
            circuit,
            generator,
            size,
            delay,
            config,
            seed,
            threads,
            KernelMode::Auto,
        )
    }

    /// [`Population::build`] with an explicit simulation [`KernelMode`].
    ///
    /// Every kernel yields bit-identical powers (and therefore an identical
    /// population); the parameter exists for A/B benchmarking and as an
    /// escape hatch. The generated pairs are handed to the simulator by
    /// borrow — the population is never cloned into an intermediate buffer.
    ///
    /// # Errors
    ///
    /// As [`Population::build`].
    #[allow(clippy::too_many_arguments)] // the explicit variant behind build's defaults
    pub fn build_with_kernel(
        circuit: &Circuit,
        generator: &PairGenerator,
        size: usize,
        delay: DelayModel,
        config: PowerConfig,
        seed: u64,
        threads: usize,
        kernel: KernelMode,
    ) -> Result<Population, VectorsError> {
        if size == 0 {
            return Err(VectorsError::EmptyPopulation);
        }
        let width = circuit.num_inputs();
        generator.validate(width)?;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        use rand::SeedableRng;
        let pairs = generator.generate_many(&mut rng, width, size);
        let powers = simulate_population_kernel(
            circuit,
            &pairs,
            delay,
            config,
            &mpe_netlist::CapacitanceModel::default(),
            threads,
            kernel,
        )?;
        let actual_max = powers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Ok(Population {
            generator: generator.clone(),
            pairs,
            powers,
            actual_max,
            delay,
            seed,
        })
    }

    /// The law the pairs were drawn from.
    pub fn generator(&self) -> &PairGenerator {
        &self.generator
    }

    /// The delay model used for the ground-truth simulation.
    pub fn delay_model(&self) -> DelayModel {
        self.delay
    }

    /// The seed the population was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `|V|` — the number of units.
    pub fn size(&self) -> usize {
        self.powers.len()
    }

    /// The vector pairs.
    pub fn pairs(&self) -> &[VectorPair] {
        &self.pairs
    }

    /// All unit powers (mW), indexed like [`Population::pairs`].
    pub fn powers(&self) -> &[f64] {
        &self.powers
    }

    /// The ground-truth maximum power of the population (mW) — the paper's
    /// "actual maximum power" column.
    pub fn actual_max_power(&self) -> f64 {
        self.actual_max
    }

    /// The fraction `Y` of "qualified units" whose power is within
    /// `rel_tol` (e.g. 0.05) of the actual maximum — the efficiency metric
    /// of the paper's Tables 1, 3 and 4.
    pub fn qualified_fraction(&self, rel_tol: f64) -> f64 {
        let threshold = self.actual_max * (1.0 - rel_tol);
        let count = self.powers.iter().filter(|&&p| p >= threshold).count();
        count as f64 / self.powers.len() as f64
    }

    /// The theoretical number of simple-random-sampling units needed to hit
    /// a qualified unit with probability `confidence` (the paper's
    /// `x = log(1−confidence)/log(1−Y)`, with `confidence = 0.9` in Table 1).
    ///
    /// Returns `f64::INFINITY` if no unit qualifies.
    pub fn srs_theoretical_units(&self, rel_tol: f64, confidence: f64) -> f64 {
        let y = self.qualified_fraction(rel_tol);
        if y <= 0.0 {
            return f64::INFINITY;
        }
        if y >= 1.0 {
            return 1.0;
        }
        (1.0 - confidence).ln() / (1.0 - y).ln()
    }

    /// Draws one unit power uniformly **with replacement** (the paper's
    /// infinite-population convention).
    pub fn sample_power<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.powers[rng.gen_range(0..self.powers.len())]
    }

    /// Draws `n` unit powers with replacement.
    pub fn sample_powers<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample_power(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpe_netlist::{generate, Iscas85};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_population() -> Population {
        let c = generate(Iscas85::C432, 7).unwrap();
        Population::build(
            &c,
            &PairGenerator::Uniform,
            1_000,
            DelayModel::Zero,
            PowerConfig::default(),
            1,
            0,
        )
        .unwrap()
    }

    #[test]
    fn build_basic_invariants() {
        let p = small_population();
        assert_eq!(p.size(), 1_000);
        assert_eq!(p.pairs().len(), 1_000);
        assert_eq!(p.powers().len(), 1_000);
        assert!(p.actual_max_power() > 0.0);
        assert!(p.powers().iter().all(|&x| x <= p.actual_max_power()));
        assert_eq!(p.seed(), 1);
        assert_eq!(p.delay_model(), DelayModel::Zero);
    }

    #[test]
    fn deterministic_given_seed() {
        let c = generate(Iscas85::C432, 7).unwrap();
        let build = |seed| {
            Population::build(
                &c,
                &PairGenerator::Uniform,
                200,
                DelayModel::Zero,
                PowerConfig::default(),
                seed,
                0,
            )
            .unwrap()
        };
        assert_eq!(build(5), build(5));
        assert_ne!(build(5), build(6));
    }

    #[test]
    fn kernels_build_identical_populations() {
        let c = generate(Iscas85::C432, 7).unwrap();
        let build = |kernel| {
            Population::build_with_kernel(
                &c,
                &PairGenerator::Uniform,
                150,
                DelayModel::Unit,
                PowerConfig::default(),
                4,
                2,
                kernel,
            )
            .unwrap()
        };
        let scalar = build(KernelMode::Scalar);
        for kernel in [KernelMode::Auto, KernelMode::Packed, KernelMode::Packed128] {
            assert_eq!(scalar, build(kernel), "{kernel} population diverged");
        }
    }

    #[test]
    fn qualified_fraction_sane() {
        let p = small_population();
        let y5 = p.qualified_fraction(0.05);
        let y20 = p.qualified_fraction(0.20);
        assert!(y5 > 0.0, "max itself always qualifies");
        assert!(y20 >= y5, "wider tolerance admits more units");
        assert!(y20 <= 1.0);
        assert_eq!(p.qualified_fraction(1.0), 1.0);
    }

    #[test]
    fn srs_theoretical_units_formula() {
        let p = small_population();
        let y = p.qualified_fraction(0.05);
        let x = p.srs_theoretical_units(0.05, 0.9);
        let expect = (0.1f64).ln() / (1.0 - y).ln();
        assert!((x - expect).abs() < 1e-9);
        assert!(x >= 1.0);
    }

    #[test]
    fn sampling_with_replacement_in_range() {
        let p = small_population();
        let mut rng = SmallRng::seed_from_u64(3);
        let sample = p.sample_powers(&mut rng, 5_000);
        assert_eq!(sample.len(), 5_000);
        for s in &sample {
            assert!(*s >= 0.0 && *s <= p.actual_max_power());
        }
        // With replacement over 1000 units, 5000 draws must repeat.
        let mut sorted = sample.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        assert!(sorted.len() <= 1_000);
    }

    #[test]
    fn zero_size_rejected() {
        let c = generate(Iscas85::C432, 7).unwrap();
        assert!(matches!(
            Population::build(
                &c,
                &PairGenerator::Uniform,
                0,
                DelayModel::Zero,
                PowerConfig::default(),
                1,
                0
            ),
            Err(VectorsError::EmptyPopulation)
        ));
    }

    #[test]
    fn invalid_generator_rejected() {
        let c = generate(Iscas85::C432, 7).unwrap();
        assert!(Population::build(
            &c,
            &PairGenerator::Activity { activity: 2.0 },
            10,
            DelayModel::Zero,
            PowerConfig::default(),
            1,
            0
        )
        .is_err());
    }

    #[test]
    fn high_activity_population_has_higher_max_than_low() {
        let c = generate(Iscas85::C880, 2).unwrap();
        let build = |gen: PairGenerator| {
            Population::build(
                &c,
                &gen,
                2_000,
                DelayModel::Unit,
                PowerConfig::default(),
                9,
                0,
            )
            .unwrap()
        };
        let high = build(PairGenerator::Activity { activity: 0.7 });
        let low = build(PairGenerator::Activity { activity: 0.3 });
        // Mean power certainly higher under higher input activity.
        let mean = |p: &Population| p.powers().iter().sum::<f64>() / p.size() as f64;
        assert!(mean(&high) > mean(&low));
    }
}
