//! Power sources: where unit powers come from.
//!
//! The estimation engine only needs "give me the power of one random unit
//! of the population". Three providers cover the paper's setups and testing:
//!
//! * [`SimulatorSource`] — draws a fresh vector pair from a
//!   [`PairGenerator`] and simulates it on demand. This is the *real*
//!   deployment mode: no pre-simulation, the estimator drives the simulator
//!   directly (the paper's Figure 4 flow).
//! * [`PopulationSource`] — samples (with replacement) from a pre-simulated
//!   [`Population`]; the paper's experimental setup, where the ground truth
//!   is known and estimates can be scored.
//! * [`FnSource`] — wraps a closure; used by tests to feed analytically
//!   known distributions through the full pipeline.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use mpe_netlist::Circuit;
use mpe_sim::{CycleReport, DelayModel, KernelMode, PackedSimulator, PowerConfig, PowerSimulator};
use mpe_vectors::{PairGenerator, Population, VectorPair};

use crate::error::MaxPowerError;

/// A supplier of unit powers (mW) for the estimation engine.
///
/// Implementations must return *independent identically distributed* draws
/// from the population law — the one statistical assumption the method
/// rests on.
pub trait PowerSource {
    /// Draws the power of one random unit.
    ///
    /// # Errors
    ///
    /// Implementations may fail on simulation errors.
    fn sample(&mut self, rng: &mut dyn RngCore) -> Result<f64, MaxPowerError>;

    /// Draws `count` unit powers, appending them to `out`.
    ///
    /// The default implementation loops [`PowerSource::sample`], so every
    /// source keeps its exact per-draw semantics (RNG consumption order,
    /// fault-injection decisions, dithering) unless it deliberately
    /// overrides the batch. Overrides must consume the RNG in the same
    /// order as `count` consecutive `sample` calls would — the estimation
    /// engine relies on this to keep batched and scalar runs bit-identical.
    ///
    /// # Errors
    ///
    /// On failure, readings drawn before the error remain appended to
    /// `out`; the caller accounts for them before handling the error.
    fn sample_batch(
        &mut self,
        rng: &mut dyn RngCore,
        count: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), MaxPowerError> {
        for _ in 0..count {
            out.push(self.sample(rng)?);
        }
        Ok(())
    }

    /// The population size `|V|`, when the source represents a finite
    /// population (used by the finite-population estimator, paper §3.4).
    fn population_size(&self) -> Option<u64> {
        None
    }

    /// Called by the derived-RNG engine immediately before hyper-sample `k`
    /// is generated — on whichever worker will generate it.
    ///
    /// Stateless sources ignore this (the default). Sources carrying their
    /// own randomness (e.g. fault injectors) reseed from `k` here so their
    /// auxiliary streams depend only on the hyper-sample index, keeping
    /// runs bit-identical for any worker count. The legacy caller-RNG
    /// stream mode never calls this hook.
    fn begin_hyper_sample(&mut self, _k: u64) {}

    /// How many upcoming hyper-sample indices this source wants announced
    /// through [`PowerSource::plan_hyper_samples`] — its speculation
    /// window, sized so pending hyper-samples can fill a whole lane word.
    /// `0` (the default) disables cross-hyper-sample lane batching;
    /// `sample_size` is the configured `n` per statistical sample.
    fn plan_lookahead(&self, _sample_size: usize) -> usize {
        0
    }

    /// Announces the hyper-sample indices this worker will generate after
    /// the current one (ascending, each strictly greater than every index
    /// already begun on this source), along with the master seed their
    /// private streams derive from and the expected readings per
    /// hyper-sample (`n × m`).
    ///
    /// A batching source may use the announcement to *prefetch*: draw the
    /// upcoming indices' vector pairs from their own derived streams and
    /// pack them into the spare lanes of the current hyper-sample's
    /// word-level sweeps. Prefetched readings are bit-identical to the ones
    /// the future hyper-sample would simulate itself, so estimates are
    /// unaffected. Stateless sources ignore this (the default).
    fn plan_hyper_samples(&mut self, _master_seed: u64, _upcoming: &[u64], _expected_units: usize) {
    }

    /// Cumulative lane-occupancy statistics of the source's batch path,
    /// when it runs one (see [`LaneStats`]). The engine publishes deltas as
    /// telemetry counters.
    fn lane_stats(&self) -> Option<LaneStats> {
        None
    }
}

/// Cumulative lane-occupancy statistics of a packed batch path: how many
/// word-level sweeps ran, how many lanes carried a real vector pair, and
/// the total lane capacity of those sweeps. `slots_filled / slots_capacity`
/// is the occupancy — ~`n/LANES` (23% at n=30 on 128 lanes) without
/// cross-hyper-sample batching, ~100% with it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Word-level sweeps performed.
    pub words_swept: u64,
    /// Lanes that carried a vector pair across those sweeps.
    pub slots_filled: u64,
    /// Total lane capacity of those sweeps (`words_swept × LANES`).
    pub slots_capacity: u64,
}

impl LaneStats {
    /// Fraction of lane capacity that carried real work (0 when no sweep
    /// has run yet).
    pub fn occupancy(&self) -> f64 {
        if self.slots_capacity == 0 {
            0.0
        } else {
            self.slots_filled as f64 / self.slots_capacity as f64
        }
    }
}

/// Spawns one independent [`PowerSource`] per worker for the parallel
/// engine.
///
/// Every `Clone + Send` source is automatically its own factory (each
/// worker gets a clone), so `Session::run(&source, …)` works out of the
/// box for [`SimulatorSource`], [`PopulationSource`] and cloneable
/// [`FnSource`]s. Implement the trait directly when per-worker setup is
/// heavier than a clone (opening files, connecting to an external
/// simulator, …).
///
/// Sources are spawned on the coordinating thread before any worker
/// starts, so neither the factory nor the sources need `Sync`.
pub trait PowerSourceFactory {
    /// The per-worker source type.
    type Source: PowerSource + Send;

    /// Creates the source for worker `worker` (0-based).
    ///
    /// # Errors
    ///
    /// Implementations may fail on resource setup.
    fn spawn_source(&self, worker: usize) -> Result<Self::Source, MaxPowerError>;
}

impl<S: PowerSource + Clone + Send> PowerSourceFactory for S {
    type Source = S;

    fn spawn_source(&self, _worker: usize) -> Result<S, MaxPowerError> {
        Ok(self.clone())
    }
}

/// The resolved lane-word width of a [`SimulatorSource`]'s batch path.
///
/// The lane width is a *type* parameter of [`PackedSimulator`], so the
/// runtime [`KernelMode`] choice is dispatched once here instead of on
/// every batch.
#[derive(Debug, Clone)]
enum PackedKernel {
    /// Scalar per-pair simulation (no lane words).
    Scalar,
    /// 64 lanes per sweep (`Auto` under zero and fanout delay).
    Lanes64(PackedSimulator<u64>),
    /// 128 lanes per sweep (`Auto` under unit delay).
    Lanes128(PackedSimulator<u128>),
}

/// Speculative prefetch state for one announced hyper-sample `k`.
///
/// The plan's RNG is seeded exactly like the private stream the engine
/// will hand `k`'s generation (`derive_seed(master_seed, k)`), and the
/// generator is deterministic, so the i-th pair drawn here *is* the i-th
/// pair `k` would draw itself — which is what makes serving cached
/// readings bit-identical to simulating on demand.
#[derive(Debug, Clone)]
struct LanePlan {
    k: u64,
    /// Shadow of `k`'s derived stream, advanced one `generate` per
    /// prefetched reading.
    rng: SmallRng,
    /// Prefetched readings, in draw order.
    cache: VecDeque<f64>,
    /// Pairs ever drawn from `rng` (capped at the expected units so a
    /// stopped run wastes at most one hyper-sample's worth of prefetch).
    prefetched: usize,
}

/// Cross-hyper-sample lane batching state of a [`SimulatorSource`].
///
/// The estimator requests at most `n` (≈30) readings per draw, filling 30
/// of 64/128 lanes per sweep. Spare lanes cost nothing extra to settle —
/// sweep cost is per *word*, not per lane — so the batcher pads every
/// partial word with pairs from announced future hyper-samples and banks
/// their readings; when those hyper-samples begin, they are served from
/// the bank instead of sweeping again.
#[derive(Debug, Clone)]
struct LaneBatcher {
    master_seed: u64,
    /// Speculation cap per pending hyper-sample, in readings (`n × m`).
    depth: usize,
    /// Pending plans, ascending by `k`.
    plans: VecDeque<LanePlan>,
    /// Bank for the hyper-sample currently being generated.
    active: VecDeque<f64>,
    /// Highest index ever begun — guards against planning finished work.
    last_begun: Option<u64>,
    stats: LaneStats,
}

impl LaneBatcher {
    fn new(master_seed: u64, depth: usize) -> Self {
        LaneBatcher {
            master_seed,
            depth,
            plans: VecDeque::new(),
            active: VecDeque::new(),
            last_begun: None,
            stats: LaneStats::default(),
        }
    }

    /// Registers upcoming indices (idempotent; already-begun indices are
    /// ignored).
    fn plan(&mut self, upcoming: &[u64], depth: usize) {
        self.depth = depth;
        for &k in upcoming {
            if self.last_begun.is_some_and(|begun| k <= begun) {
                continue;
            }
            if self.plans.iter().any(|p| p.k == k) {
                continue;
            }
            let pos = self.plans.partition_point(|p| p.k < k);
            self.plans.insert(
                pos,
                LanePlan {
                    k,
                    rng: SmallRng::seed_from_u64(crate::engine::derive_seed(
                        self.master_seed,
                        k as usize,
                    )),
                    cache: VecDeque::new(),
                    prefetched: 0,
                },
            );
        }
    }

    /// Switches the bank to hyper-sample `k` and prunes plans that can no
    /// longer activate.
    fn activate(&mut self, k: u64) {
        self.active.clear();
        if self.last_begun.is_some_and(|begun| k <= begun) {
            // Going backwards: a requeued index after a worker panic, or a
            // reused source starting a fresh run. Speculative state may not
            // match this stream position — drop all of it (correct, merely
            // unbatched, until planning resumes past the high-water mark).
            self.plans.clear();
        }
        self.last_begun = Some(self.last_begun.map_or(k, |begun| begun.max(k)));
        if let Some(pos) = self.plans.iter().position(|p| p.k == k) {
            if let Some(plan) = self.plans.remove(pos) {
                self.active = plan.cache;
            }
        }
        // Plans at or below the index now beginning can never activate.
        self.plans.retain(|p| p.k > k);
    }
}

/// On-demand simulation source: generator + simulator, no pre-computation.
///
/// Supports the scalar per-pair engine and the bit-parallel
/// [`PackedSimulator`] in both lane widths (see [`KernelMode`]), which
/// [`SimulatorSource::sample_batch`] uses to settle up to 64 or 128 pairs
/// per word-level sweep — under *every* delay model, timing included. All
/// kernels produce the scalar kernel's capacitance sums bit for bit (an
/// exact integer sum for whole-number capacitances, the scalar addition
/// order otherwise), so their readings are bit-identical; batching draws
/// all the batch's vector pairs from the RNG *before* simulating (the
/// simulator consumes no randomness), so the RNG stream is identical too.
/// Kernel choice therefore never changes an estimate, only its cost.
#[derive(Debug, Clone)]
pub struct SimulatorSource<'c> {
    simulator: PowerSimulator<'c>,
    generator: PairGenerator,
    width: usize,
    simulated: u64,
    packed: PackedKernel,
    pair_buf: Vec<VectorPair>,
    report_buf: Vec<CycleReport>,
    batcher: Option<LaneBatcher>,
    single_buf: Vec<f64>,
}

impl<'c> SimulatorSource<'c> {
    /// Creates a source that simulates fresh pairs from `generator` on the
    /// given circuit, with [`KernelMode::Auto`] kernel selection (the
    /// 128-lane packed kernel for unit delay, 64 lanes otherwise).
    pub fn new(
        circuit: &'c Circuit,
        generator: PairGenerator,
        delay: DelayModel,
        config: PowerConfig,
    ) -> Self {
        let simulator = PowerSimulator::new(circuit, delay, config);
        let packed = Self::build_kernel(&simulator, KernelMode::Auto);
        SimulatorSource {
            simulator,
            width: circuit.num_inputs(),
            generator,
            simulated: 0,
            packed,
            pair_buf: Vec::new(),
            report_buf: Vec::new(),
            batcher: None,
            single_buf: Vec::new(),
        }
    }

    fn build_kernel(simulator: &PowerSimulator<'_>, kernel: KernelMode) -> PackedKernel {
        match kernel.resolve(simulator.delay_model()) {
            KernelMode::Packed => PackedKernel::Lanes64(PackedSimulator::new(simulator)),
            KernelMode::Packed128 => PackedKernel::Lanes128(PackedSimulator::new(simulator)),
            KernelMode::Auto | KernelMode::Scalar => PackedKernel::Scalar,
        }
    }

    /// Selects the simulation kernel. Every [`KernelMode`] is valid for
    /// every delay model.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        // The kernel in place is kept when it is the one asked for:
        // building it again would only repeat `new`'s work.
        if kernel.resolve(self.simulator.delay_model()) != self.kernel() {
            self.packed = Self::build_kernel(&self.simulator, kernel);
        }
        // Prefetched readings belong to the old kernel's lane geometry;
        // they are bit-identical anyway, but a scalar kernel must not
        // serve a speculative bank at all.
        self.batcher = None;
        self
    }

    /// The kernel the batch path actually runs (`Auto` already resolved
    /// against the delay model).
    pub fn kernel(&self) -> KernelMode {
        match self.packed {
            PackedKernel::Lanes64(_) => KernelMode::Packed,
            PackedKernel::Lanes128(_) => KernelMode::Packed128,
            PackedKernel::Scalar => KernelMode::Scalar,
        }
    }

    /// Vector pairs simulated so far (the paper's cost metric).
    pub fn simulated(&self) -> u64 {
        self.simulated
    }

    /// The lane width of the resolved kernel (`None` for scalar).
    fn lane_width(&self) -> Option<usize> {
        match self.packed {
            PackedKernel::Lanes64(_) => Some(64),
            PackedKernel::Lanes128(_) => Some(128),
            PackedKernel::Scalar => None,
        }
    }

    /// The lane-batched fill: serves banked readings first (advancing the
    /// caller's RNG exactly as fresh draws would), then settles the
    /// remainder in word-level sweeps whose spare lanes carry prefetch for
    /// the announced future hyper-samples.
    fn batched_fill(
        &mut self,
        rng: &mut dyn RngCore,
        count: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), MaxPowerError> {
        let width = self.width;
        let lanes = self
            .lane_width()
            .expect("batched_fill requires a packed kernel");
        let batcher = self
            .batcher
            .as_mut()
            .expect("batched_fill requires announced hyper-samples");
        let depth = batcher.depth;

        // 1. Serve banked readings. Each replaces exactly one
        // generate+simulate, so the caller's RNG advances by one generate
        // per reading to stay on the canonical per-k stream.
        let served = batcher.active.len().min(count);
        for _ in 0..served {
            let _ = self.generator.generate(rng, width);
            let reading = batcher.active.pop_front().expect("length checked");
            out.push(reading);
        }
        let fresh = count - served;
        if fresh == 0 {
            return Ok(());
        }

        // 2. The current hyper-sample's remaining pairs...
        self.pair_buf.clear();
        for _ in 0..fresh {
            self.pair_buf.push(self.generator.generate(rng, width));
        }
        // 3. ...padded to a full final word with pairs prefetched for the
        // pending hyper-samples, each drawn from its own shadow stream.
        let spare = (lanes - self.pair_buf.len() % lanes) % lanes;
        let mut filler: Vec<(usize, usize)> = Vec::new();
        let mut padded = 0usize;
        for (idx, plan) in batcher.plans.iter_mut().enumerate() {
            if padded == spare {
                break;
            }
            let take = depth.saturating_sub(plan.prefetched).min(spare - padded);
            if take == 0 {
                continue;
            }
            for _ in 0..take {
                self.pair_buf
                    .push(self.generator.generate(&mut plan.rng, width));
            }
            plan.prefetched += take;
            padded += take;
            filler.push((idx, take));
        }

        // 4. One packed sweep settles everything.
        let refs: Vec<(&[bool], &[bool])> =
            self.pair_buf.iter().map(VectorPair::as_slices).collect();
        self.report_buf.clear();
        let swept = match &self.packed {
            PackedKernel::Lanes64(packed) => packed
                .cycle_reports_batch(&refs, &mut self.report_buf)
                .map_err(MaxPowerError::from),
            PackedKernel::Lanes128(packed) => packed
                .cycle_reports_batch(&refs, &mut self.report_buf)
                .map_err(MaxPowerError::from),
            PackedKernel::Scalar => unreachable!("lane_width checked above"),
        };
        if let Err(e) = swept {
            // Prefetch was in flight when the sweep failed: the touched
            // plans' shadow streams advanced past readings that were never
            // banked, so serving them later would desynchronize. Poison
            // those plans — a cleared bank and a capped prefetch just mean
            // those hyper-samples simulate everything themselves.
            for (idx, _take) in filler {
                if let Some(plan) = batcher.plans.get_mut(idx) {
                    plan.cache.clear();
                    plan.prefetched = depth;
                }
            }
            return Err(e);
        }

        let total = self.pair_buf.len();
        self.simulated += total as u64;
        let words = total.div_ceil(lanes) as u64;
        batcher.stats.words_swept += words;
        batcher.stats.slots_filled += total as u64;
        batcher.stats.slots_capacity += words * lanes as u64;

        // 5. Scatter: the current hyper-sample's readings to the caller,
        // the prefetched readings into their plans' banks.
        out.extend(self.report_buf[..fresh].iter().map(|r| r.power_mw));
        let mut offset = fresh;
        for (idx, take) in filler {
            if let Some(plan) = batcher.plans.get_mut(idx) {
                plan.cache.extend(
                    self.report_buf[offset..offset + take]
                        .iter()
                        .map(|r| r.power_mw),
                );
            }
            offset += take;
        }
        Ok(())
    }
}

impl PowerSource for SimulatorSource<'_> {
    fn sample(&mut self, rng: &mut dyn RngCore) -> Result<f64, MaxPowerError> {
        if self.batcher.is_some() {
            // Per-draw callers (e.g. a fault injector wrapping this
            // source) go through the batcher too, so banked readings are
            // served and spare lanes still fill with prefetch.
            let mut one = std::mem::take(&mut self.single_buf);
            one.clear();
            let filled = self.batched_fill(rng, 1, &mut one);
            let reading = one.pop();
            self.single_buf = one;
            filled?;
            return Ok(reading.expect("batched_fill(1) yields exactly one reading"));
        }
        let pair = self.generator.generate(rng, self.width);
        self.simulated += 1;
        self.simulator
            .cycle_power(&pair.v1, &pair.v2)
            .map_err(MaxPowerError::from)
    }

    fn sample_batch(
        &mut self,
        rng: &mut dyn RngCore,
        count: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), MaxPowerError> {
        if matches!(self.packed, PackedKernel::Scalar) {
            // Scalar kernel: the default interleaved generate/simulate loop
            // (identical RNG order, reusing the simulator's scratch).
            for _ in 0..count {
                out.push(self.sample(rng)?);
            }
            return Ok(());
        }
        if self.batcher.is_some() {
            return self.batched_fill(rng, count, out);
        }
        // Draw the whole batch's vectors first — the simulator consumes no
        // randomness, so this is the same RNG stream as interleaving.
        self.pair_buf.clear();
        for _ in 0..count {
            self.pair_buf.push(self.generator.generate(rng, self.width));
        }
        let refs: Vec<(&[bool], &[bool])> = self.pair_buf.iter().map(|p| p.as_slices()).collect();
        self.report_buf.clear();
        match &self.packed {
            PackedKernel::Scalar => unreachable!("scalar path returned above"),
            PackedKernel::Lanes64(packed) => packed
                .cycle_reports_batch(&refs, &mut self.report_buf)
                .map_err(MaxPowerError::from)?,
            PackedKernel::Lanes128(packed) => packed
                .cycle_reports_batch(&refs, &mut self.report_buf)
                .map_err(MaxPowerError::from)?,
        }
        self.simulated += count as u64;
        out.extend(self.report_buf.iter().map(|r| r.power_mw));
        Ok(())
    }

    fn begin_hyper_sample(&mut self, k: u64) {
        if let Some(batcher) = self.batcher.as_mut() {
            batcher.activate(k);
        }
    }

    fn plan_lookahead(&self, sample_size: usize) -> usize {
        // Enough pending hyper-samples that the spare lanes of every sweep
        // (LANES − n of them) always have prefetch to carry:
        // lookahead × n×m ≥ (LANES − n) × m, rounded up with margin.
        match self.lane_width() {
            Some(lanes) if sample_size > 0 => lanes.div_ceil(sample_size),
            _ => 0,
        }
    }

    fn plan_hyper_samples(&mut self, master_seed: u64, upcoming: &[u64], expected_units: usize) {
        if self.lane_width().is_none() {
            return;
        }
        let batcher = self
            .batcher
            .get_or_insert_with(|| LaneBatcher::new(master_seed, expected_units));
        if batcher.master_seed != master_seed {
            // A reused source on a different run: stale speculation would
            // serve the wrong streams. Start over (stats survive — they
            // describe sweeps that really happened).
            let stats = batcher.stats;
            *batcher = LaneBatcher::new(master_seed, expected_units);
            batcher.stats = stats;
        }
        batcher.plan(upcoming, expected_units);
    }

    /// `None` until the engine has announced upcoming hyper-samples via
    /// [`PowerSource::plan_hyper_samples`].
    fn lane_stats(&self) -> Option<LaneStats> {
        self.batcher.as_ref().map(|b| b.stats)
    }
}

/// Pre-simulated population source (the paper's experimental mode).
#[derive(Debug, Clone)]
pub struct PopulationSource<'p> {
    population: &'p Population,
}

impl<'p> PopulationSource<'p> {
    /// Wraps a population.
    pub fn new(population: &'p Population) -> Self {
        PopulationSource { population }
    }

    /// The wrapped population.
    pub fn population(&self) -> &Population {
        self.population
    }
}

impl PowerSource for PopulationSource<'_> {
    fn sample(&mut self, rng: &mut dyn RngCore) -> Result<f64, MaxPowerError> {
        Ok(self.population.sample_power(rng))
    }

    fn sample_batch(
        &mut self,
        rng: &mut dyn RngCore,
        count: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), MaxPowerError> {
        // Pre-simulated powers are a table lookup: batching just skips the
        // per-draw dynamic dispatch. Draw order matches `sample` exactly.
        out.reserve(count);
        for _ in 0..count {
            out.push(self.population.sample_power(rng));
        }
        Ok(())
    }

    fn population_size(&self) -> Option<u64> {
        Some(self.population.size() as u64)
    }
}

/// Closure-backed source for tests and synthetic studies.
#[derive(Debug, Clone)]
pub struct FnSource<F> {
    f: F,
    population_size: Option<u64>,
}

impl<F> FnSource<F>
where
    F: FnMut(&mut dyn RngCore) -> f64,
{
    /// Wraps a closure producing i.i.d. draws.
    pub fn new(f: F) -> Self {
        FnSource {
            f,
            population_size: None,
        }
    }

    /// Declares a finite population size for the finite-population
    /// estimator path.
    pub fn with_population_size(mut self, size: u64) -> Self {
        self.population_size = Some(size);
        self
    }
}

impl<F> PowerSource for FnSource<F>
where
    F: FnMut(&mut dyn RngCore) -> f64,
{
    fn sample(&mut self, rng: &mut dyn RngCore) -> Result<f64, MaxPowerError> {
        Ok((self.f)(rng))
    }

    fn population_size(&self) -> Option<u64> {
        self.population_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpe_netlist::{generate, Iscas85};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn simulator_source_counts_units() {
        let c = generate(Iscas85::C432, 7).unwrap();
        let mut s = SimulatorSource::new(
            &c,
            PairGenerator::Uniform,
            DelayModel::Zero,
            PowerConfig::default(),
        );
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            let p = s.sample(&mut rng).unwrap();
            assert!(p >= 0.0);
        }
        assert_eq!(s.simulated(), 10);
        assert_eq!(s.population_size(), None);
    }

    #[test]
    fn population_source_reports_size() {
        let c = generate(Iscas85::C432, 7).unwrap();
        let pop = Population::build(
            &c,
            &PairGenerator::Uniform,
            500,
            DelayModel::Zero,
            PowerConfig::default(),
            3,
            0,
        )
        .unwrap();
        let mut s = PopulationSource::new(&pop);
        assert_eq!(s.population_size(), Some(500));
        let mut rng = SmallRng::seed_from_u64(2);
        let p = s.sample(&mut rng).unwrap();
        assert!(p <= pop.actual_max_power());
        assert_eq!(s.population().size(), 500);
    }

    #[test]
    fn fn_source_passes_through() {
        let mut s = FnSource::new(|rng: &mut dyn RngCore| {
            let mut buf = [0u8; 4];
            rng.fill_bytes(&mut buf);
            buf[0] as f64
        })
        .with_population_size(42);
        assert_eq!(s.population_size(), Some(42));
        let mut rng = SmallRng::seed_from_u64(3);
        let v = s.sample(&mut rng).unwrap();
        assert!((0.0..=255.0).contains(&v));
    }

    #[test]
    fn trait_object_usable() {
        let mut s = FnSource::new(|rng: &mut dyn RngCore| rng.gen::<f64>());
        let src: &mut dyn PowerSource = &mut s;
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(src.sample(&mut rng).unwrap() <= 1.0);
    }
}
