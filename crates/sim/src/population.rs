//! Whole-population batch simulation — the "pre-simulate everything"
//! step of the paper's experimental setup.
//!
//! The paper builds finite populations of 160,000 (Tables 1–2) or 80,000
//! (Tables 3–4) vector pairs and simulates *all* of them with PowerMill to
//! obtain the ground-truth maximum. This module is that step, multithreaded
//! with scoped threads: each worker owns a simulator over the shared
//! circuit and fills a disjoint chunk of the output.
//!
//! Per worker the population is settled through the bit-parallel
//! [`PackedSimulator`] by default ([`KernelMode::Auto`]): the worker's chunk
//! is cut into `Block::LANES`-wide words and each word is simulated in one
//! sweep, bit-identical to the scalar per-pair loop. Under a whole-number
//! capacitance table (the default [`CapacitanceModel`]'s) every partial
//! sum of the scalar kernel is an exact integer, so the packed kernel
//! counts toggles per capacitance class and multiplies out once per word;
//! any other table is added lane by lane in the scalar order (see
//! `crates/sim/src/lane_sums.rs`). [`KernelMode::Scalar`] restores the
//! original loop for A/B timing.

use std::sync::atomic::{AtomicBool, Ordering};

use mpe_netlist::{Block, CapacitanceModel, Circuit};

use crate::delay::DelayModel;
use crate::engine::{CycleReport, PowerSimulator};
use crate::error::SimError;
use crate::packed::{KernelMode, PackedSimulator};
use crate::power::PowerConfig;

/// A borrowed view of one vector pair `(v1, v2)`.
///
/// The population entry points are generic over this trait so callers can
/// hand over whatever they already hold — owned tuples, slice tuples, or a
/// caller-defined pair struct — without cloning into an intermediate
/// buffer (`mpe-vectors` implements it for its `VectorPair`).
pub trait PopulationPair {
    /// The initial input vector `v1`.
    fn before(&self) -> &[bool];
    /// The final input vector `v2`.
    fn after(&self) -> &[bool];
}

impl PopulationPair for (Vec<bool>, Vec<bool>) {
    fn before(&self) -> &[bool] {
        &self.0
    }

    fn after(&self) -> &[bool] {
        &self.1
    }
}

impl PopulationPair for (&[bool], &[bool]) {
    fn before(&self) -> &[bool] {
        self.0
    }

    fn after(&self) -> &[bool] {
        self.1
    }
}

impl<P: PopulationPair> PopulationPair for &P {
    fn before(&self) -> &[bool] {
        (*self).before()
    }

    fn after(&self) -> &[bool] {
        (*self).after()
    }
}

/// Simulates the cycle power of every vector pair, in parallel.
///
/// `pairs` is a slice of anything implementing [`PopulationPair`] (e.g.
/// `(v1, v2)` tuples); the result is indexed identically. `threads = 0`
/// selects the available parallelism. Runs the packed kernel
/// ([`KernelMode::Auto`]); readings are bit-identical to scalar.
///
/// # Errors
///
/// Returns the first [`SimError`] encountered (wrong vector widths).
///
/// # Example
///
/// ```
/// use mpe_netlist::{generate, Iscas85};
/// use mpe_sim::{simulate_population, DelayModel, PowerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = generate(Iscas85::C432, 7)?;
/// let w = circuit.num_inputs();
/// let pairs: Vec<(Vec<bool>, Vec<bool>)> = (0..100)
///     .map(|i| {
///         let v1: Vec<bool> = (0..w).map(|b| (i + b) % 2 == 0).collect();
///         let v2: Vec<bool> = (0..w).map(|b| (i + b) % 3 == 0).collect();
///         (v1, v2)
///     })
///     .collect();
/// let powers = simulate_population(&circuit, &pairs, DelayModel::Unit, PowerConfig::default(), 0)?;
/// assert_eq!(powers.len(), 100);
/// # Ok(())
/// # }
/// ```
pub fn simulate_population<P: PopulationPair + Sync>(
    circuit: &Circuit,
    pairs: &[P],
    delay: DelayModel,
    config: PowerConfig,
    threads: usize,
) -> Result<Vec<f64>, SimError> {
    simulate_population_kernel(
        circuit,
        pairs,
        delay,
        config,
        &CapacitanceModel::default(),
        threads,
        KernelMode::Auto,
    )
}

/// The fully explicit population entry point: capacitance model, thread
/// count and simulation kernel.
///
/// Every kernel produces bit-identical powers; [`KernelMode::Scalar`]
/// exists for A/B benchmarking (`trace_breakdown --population-smoke`) and
/// as a fallback switch.
///
/// # Errors
///
/// Returns the first [`SimError`] encountered. On an error, the remaining
/// workers bail out at their next pair (scalar) or lane word (packed)
/// instead of finishing their chunks.
#[allow(clippy::too_many_arguments)] // the explicit variant behind `simulate_population`
pub fn simulate_population_kernel<P: PopulationPair + Sync>(
    circuit: &Circuit,
    pairs: &[P],
    delay: DelayModel,
    config: PowerConfig,
    cap_model: &CapacitanceModel,
    threads: usize,
    kernel: KernelMode,
) -> Result<Vec<f64>, SimError> {
    if pairs.is_empty() {
        return Ok(Vec::new());
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .min(pairs.len());
    let kernel = kernel.resolve(delay);

    let mut powers = vec![0.0f64; pairs.len()];
    if threads <= 1 {
        let sim = PowerSimulator::with_capacitance(circuit, delay, config, cap_model);
        let poison = AtomicBool::new(false);
        run_chunk(&sim, kernel, pairs, &mut powers, &poison)?;
        return Ok(powers);
    }

    let chunk_size = pairs.len().div_ceil(threads);
    let mut first_error: Option<SimError> = None;
    // Flipped by the first failing worker; the others poll it per pair /
    // per lane word and bail instead of finishing their chunks.
    let poison = AtomicBool::new(false);
    {
        let error_slot = std::sync::Mutex::new(&mut first_error);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for (out_chunk, in_chunk) in powers.chunks_mut(chunk_size).zip(pairs.chunks(chunk_size))
            {
                let error_slot = &error_slot;
                let poison = &poison;
                let cap_model = &*cap_model;
                handles.push(scope.spawn(move || {
                    let sim = PowerSimulator::with_capacitance(circuit, delay, config, cap_model);
                    if let Err(e) = run_chunk(&sim, kernel, in_chunk, out_chunk, poison) {
                        poison.store(true, Ordering::Relaxed);
                        let mut guard = error_slot.lock().expect("error mutex poisoned");
                        if guard.is_none() {
                            **guard = Some(e);
                        }
                    }
                }));
            }
            // Join every handle: an unjoined panicked thread would re-panic
            // out of the scope with a generic message.
            let joined: Vec<_> = handles.into_iter().map(|handle| handle.join()).collect();
            assert!(
                joined.iter().all(Result::is_ok),
                "population simulation worker panicked"
            );
        });
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok(powers),
    }
}

/// Settles one worker's chunk with the resolved kernel. Returns early (Ok)
/// as soon as `poison` flips — some other worker already holds the error.
fn run_chunk<P: PopulationPair>(
    sim: &PowerSimulator<'_>,
    kernel: KernelMode,
    pairs: &[P],
    out: &mut [f64],
    poison: &AtomicBool,
) -> Result<(), SimError> {
    match kernel {
        KernelMode::Scalar => {
            for (slot, pair) in out.iter_mut().zip(pairs) {
                if poison.load(Ordering::Relaxed) {
                    return Ok(());
                }
                *slot = sim.cycle_power(pair.before(), pair.after())?;
            }
            Ok(())
        }
        KernelMode::Packed => packed_chunk::<u64, P>(sim, pairs, out, poison),
        KernelMode::Packed128 => packed_chunk::<u128, P>(sim, pairs, out, poison),
        KernelMode::Auto => unreachable!("KernelMode::resolve never returns Auto"),
    }
}

/// Packed worker body: one word-level sweep per `B::LANES` pairs. The
/// trailing partial word runs with its spare lanes masked off.
fn packed_chunk<B: Block, P: PopulationPair>(
    sim: &PowerSimulator<'_>,
    pairs: &[P],
    out: &mut [f64],
    poison: &AtomicBool,
) -> Result<(), SimError> {
    let packed: PackedSimulator<B> = PackedSimulator::new(sim);
    let mut reports: Vec<CycleReport> = Vec::with_capacity(B::LANES);
    for (out_word, in_word) in out.chunks_mut(B::LANES).zip(pairs.chunks(B::LANES)) {
        if poison.load(Ordering::Relaxed) {
            return Ok(());
        }
        reports.clear();
        packed.cycle_reports_batch(in_word, &mut reports)?;
        for (slot, report) in out_word.iter_mut().zip(&reports) {
            *slot = report.power_mw;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpe_netlist::{generate, Iscas85};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_pairs(width: usize, count: usize, seed: u64) -> Vec<(Vec<bool>, Vec<bool>)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let v1: Vec<bool> = (0..width).map(|_| rng.gen()).collect();
                let v2: Vec<bool> = (0..width).map(|_| rng.gen()).collect();
                (v1, v2)
            })
            .collect()
    }

    fn with_kernel(
        circuit: &Circuit,
        pairs: &[(Vec<bool>, Vec<bool>)],
        delay: DelayModel,
        threads: usize,
        kernel: KernelMode,
    ) -> Result<Vec<f64>, SimError> {
        simulate_population_kernel(
            circuit,
            pairs,
            delay,
            PowerConfig::default(),
            &CapacitanceModel::default(),
            threads,
            kernel,
        )
    }

    #[test]
    fn parallel_matches_sequential() {
        let c = generate(Iscas85::C432, 11).unwrap();
        let pairs = random_pairs(c.num_inputs(), 500, 1);
        let seq =
            simulate_population(&c, &pairs, DelayModel::Unit, PowerConfig::default(), 1).unwrap();
        let par =
            simulate_population(&c, &pairs, DelayModel::Unit, PowerConfig::default(), 4).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_population_ok() {
        let c = generate(Iscas85::C432, 11).unwrap();
        let empty: [(Vec<bool>, Vec<bool>); 0] = [];
        let powers =
            simulate_population(&c, &empty, DelayModel::Zero, PowerConfig::default(), 0).unwrap();
        assert!(powers.is_empty());
    }

    #[test]
    fn borrowed_slice_pairs_match_owned() {
        let c = generate(Iscas85::C432, 11).unwrap();
        let pairs = random_pairs(c.num_inputs(), 100, 7);
        let owned =
            simulate_population(&c, &pairs, DelayModel::Unit, PowerConfig::default(), 2).unwrap();
        let borrowed: Vec<_> = pairs
            .iter()
            .map(|(v1, v2)| (v1.as_slice(), v2.as_slice()))
            .collect();
        let sliced =
            simulate_population(&c, &borrowed, DelayModel::Unit, PowerConfig::default(), 2)
                .unwrap();
        assert_eq!(owned, sliced);
    }

    #[test]
    fn every_kernel_is_bit_identical() {
        let c = generate(Iscas85::C880, 13).unwrap();
        // 171 = 2 full u64 words + a partial word; also a partial u128 word.
        let pairs = random_pairs(c.num_inputs(), 171, 9);
        for delay in [
            DelayModel::Zero,
            DelayModel::Unit,
            DelayModel::fanout_default(),
        ] {
            let scalar = with_kernel(&c, &pairs, delay, 2, KernelMode::Scalar).unwrap();
            for kernel in [KernelMode::Auto, KernelMode::Packed, KernelMode::Packed128] {
                let packed = with_kernel(&c, &pairs, delay, 2, kernel).unwrap();
                assert_eq!(scalar, packed, "{kernel} diverged under {delay:?}");
            }
        }
    }

    #[test]
    fn width_error_propagates_from_worker() {
        let c = generate(Iscas85::C432, 11).unwrap();
        let mut pairs = random_pairs(c.num_inputs(), 50, 2);
        pairs[25].0.pop(); // corrupt one pair
        let err = simulate_population(&c, &pairs, DelayModel::Unit, PowerConfig::default(), 4);
        assert!(matches!(err, Err(SimError::WidthMismatch { .. })));
    }

    #[test]
    fn width_error_propagates_from_every_kernel() {
        let c = generate(Iscas85::C432, 11).unwrap();
        let mut pairs = random_pairs(c.num_inputs(), 200, 6);
        pairs[130].1.push(true); // corrupt one pair
        for kernel in [
            KernelMode::Scalar,
            KernelMode::Packed,
            KernelMode::Packed128,
        ] {
            for threads in [1, 4] {
                let err = with_kernel(&c, &pairs, DelayModel::Zero, threads, kernel);
                assert!(
                    matches!(err, Err(SimError::WidthMismatch { .. })),
                    "{kernel} x{threads} missed the width error"
                );
            }
        }
    }

    #[test]
    fn power_distribution_is_bounded_and_positive() {
        let c = generate(Iscas85::C880, 5).unwrap();
        let pairs = random_pairs(c.num_inputs(), 300, 3);
        let powers = simulate_population(
            &c,
            &pairs,
            DelayModel::fanout_default(),
            PowerConfig::default(),
            0,
        )
        .unwrap();
        let max = powers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min >= 0.0);
        assert!(max > min); // non-degenerate distribution
                            // Bounded by total capacitance switching twice.
        let cap_bound = mpe_netlist::CapacitanceModel::default().total_capacitance(&c);
        assert!(max <= PowerConfig::default().power_mw(4.0 * cap_bound));
    }

    #[test]
    fn zero_threads_auto_selects() {
        let c = generate(Iscas85::C432, 11).unwrap();
        let pairs = random_pairs(c.num_inputs(), 64, 4);
        let p =
            simulate_population(&c, &pairs, DelayModel::Zero, PowerConfig::default(), 0).unwrap();
        assert_eq!(p.len(), 64);
    }
}
