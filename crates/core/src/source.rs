//! Power sources: where unit powers come from.
//!
//! The estimation engine only needs "give me the power of one random unit
//! of the population". Three providers cover the paper's setups and testing:
//!
//! * [`SimulatorSource`] — draws a fresh vector pair from a
//!   [`PairGenerator`] and simulates it on demand. This is the *real*
//!   deployment mode: no pre-simulation, the estimator drives the simulator
//!   directly (the paper's Figure 4 flow). Its reading is the pair's cycle
//!   power or, through [`SimulatorSource::settle_time`], its settle time.
//! * [`PopulationSource`] — samples (with replacement) from a pre-simulated
//!   [`Population`]; the paper's experimental setup, where the ground truth
//!   is known and estimates can be scored.
//! * [`FnSource`] — wraps a closure; used by tests to feed analytically
//!   known distributions through the full pipeline.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use mpe_netlist::Circuit;
use mpe_sim::{
    CycleReport, DelayModel, KernelMode, PackedSimulator, PopulationPair, PowerConfig,
    PowerSimulator,
};
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
    /// runs bit-identical for any worker count.
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

impl PackedKernel {
    /// The lane width (`None` for scalar).
    fn lanes(&self) -> Option<usize> {
        match self {
            PackedKernel::Lanes64(_) => Some(64),
            PackedKernel::Lanes128(_) => Some(128),
            PackedKernel::Scalar => None,
        }
    }

    /// Settles `pairs` in word-level sweeps, appending one report per pair.
    fn sweep<P: PopulationPair>(
        &self,
        pairs: &[P],
        out: &mut Vec<CycleReport>,
    ) -> Result<(), MaxPowerError> {
        match self {
            PackedKernel::Lanes64(packed) => packed.cycle_reports_batch(pairs, out),
            PackedKernel::Lanes128(packed) => packed.cycle_reports_batch(pairs, out),
            PackedKernel::Scalar => unreachable!("the scalar kernel has no sweep"),
        }
        .map_err(MaxPowerError::from)
    }
}

/// What a [`SimulatorSource`] reads off a simulated pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reading {
    /// Cycle power in mW (the paper's metric).
    Power,
    /// Settle time in delay units, plus a dither in `[0, 1]` drawn right
    /// after the pair (see [`SimulatorSource::settle_time`]).
    SettleTime,
}

/// One reading's randomness: its vector pair and, for the settle-time
/// reading, the dither drawn after it.
#[derive(Debug, Clone, Default)]
struct Draw {
    pair: VectorPair,
    dither: f64,
}

impl PopulationPair for Draw {
    fn before(&self) -> &[bool] {
        &self.pair.v1
    }

    fn after(&self) -> &[bool] {
        &self.pair.v2
    }
}

/// How a [`SimulatorSource`] draws a reading's randomness and reads the
/// simulated pair.
#[derive(Debug, Clone)]
struct Sampler {
    generator: PairGenerator,
    width: usize,
    reading: Reading,
}

impl Sampler {
    /// Overwrites `draw` with the next reading's randomness from `rng`:
    /// the pair, then, for the settle-time reading, four bytes of dither.
    /// Every path (scalar, packed, prefetch, banked re-draw) draws in this
    /// one order, so they all walk the same stream.
    fn draw<R: RngCore + ?Sized>(&self, rng: &mut R, draw: &mut Draw) {
        self.generator
            .generate_into(rng, self.width, &mut draw.pair);
        if self.reading == Reading::SettleTime {
            let mut bytes = [0u8; 4];
            rng.fill_bytes(&mut bytes);
            draw.dither = u32::from_le_bytes(bytes) as f64 / u32::MAX as f64;
        }
    }

    /// Draws `count` readings' randomness into `draws[used..used + count]`
    /// and returns the new used count. The draws already there are
    /// overwritten in place, so a buffer that is reused across batches
    /// stops allocating once it has reached its high-water mark.
    fn draw_many<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        draws: &mut Vec<Draw>,
        used: usize,
        count: usize,
    ) -> usize {
        let end = used + count;
        if draws.len() < end {
            draws.resize_with(end, Draw::default);
        }
        for draw in &mut draws[used..end] {
            self.draw(rng, draw);
        }
        end
    }

    /// The reading of a simulated pair.
    fn read(&self, report: &CycleReport, draw: &Draw) -> f64 {
        match self.reading {
            Reading::Power => report.power_mw,
            // Jitter-free discrete metrics stall the continuous-distribution
            // machinery (ties make sample maxima degenerate); dithering
            // within one time quantum preserves the ordering and the
            // endpoint while restoring continuity, as measurement noise
            // does in real silicon delay data.
            Reading::SettleTime => report.settle_time as f64 + draw.dither,
        }
    }
}

/// Speculative prefetch state for one announced hyper-sample `k`.
///
/// The plan's RNG is seeded exactly like the private stream the engine
/// will hand `k`'s generation (`derive_seed(master_seed, k)`), and the
/// generator is deterministic, so the i-th draw here *is* the i-th draw
/// `k` would make itself — which is what makes serving cached readings
/// bit-identical to simulating on demand.
#[derive(Debug, Clone)]
struct LanePlan {
    k: u64,
    /// Shadow of `k`'s derived stream, advanced one draw per prefetched
    /// reading.
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
    /// `(plan index, readings)` of the current sweep's prefetch, kept
    /// across sweeps so padding allocates nothing.
    filler: Vec<(usize, usize)>,
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
            filler: Vec::new(),
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
/// Each reading is one fresh vector pair, simulated: its cycle power
/// ([`SimulatorSource::new`]) or its settle time
/// ([`SimulatorSource::settle_time`]). Both readings run on the scalar
/// per-pair engine and on the bit-parallel [`PackedSimulator`] in both
/// lane widths (see [`KernelMode`]), which
/// [`SimulatorSource::sample_batch`] uses to settle up to 64 or 128 pairs
/// per word-level sweep — under *every* delay model, timing included. All
/// kernels report the scalar kernel's capacitance sums and settle times
/// bit for bit (an exact integer sum for whole-number capacitances, the
/// scalar addition order otherwise), so their readings are bit-identical;
/// batching draws all the batch's randomness from the RNG *before*
/// simulating (the simulator consumes none), so the RNG stream is
/// identical too. Kernel choice therefore never changes an estimate, only
/// its cost.
///
/// Pairs are drawn with [`PairGenerator::generate_into`] into buffers the
/// source keeps: the batch path overwrites its draw buffer in place, and
/// the scalar path and the banked re-draws overwrite one scratch draw, so
/// a steady-state draw allocates no pair. Uniform bits reach the generator
/// a block at a time through [`RngCore::fill_u32`], one dynamic call per
/// block of the caller's `&mut dyn RngCore` rather than one per bit. On a
/// small circuit (C432 under zero delay) drawing a pair costs about as
/// much as settling it in a 64-lane sweep, so the draw matters.
#[derive(Debug, Clone)]
pub struct SimulatorSource<'c> {
    simulator: PowerSimulator<'c>,
    sampler: Sampler,
    simulated: u64,
    packed: PackedKernel,
    /// Draws of the current sweep, overwritten in place batch after batch
    /// (see [`Sampler::draw_many`]).
    draws: Vec<Draw>,
    /// The one draw the scalar path and banked re-draws overwrite.
    scratch: Draw,
    report_buf: Vec<CycleReport>,
    batcher: Option<LaneBatcher>,
    single_buf: Vec<f64>,
}

impl<'c> SimulatorSource<'c> {
    /// Creates a source that simulates fresh pairs from `generator` on the
    /// given circuit and reads their cycle power, with
    /// [`KernelMode::Auto`] kernel selection (the 128-lane packed kernel
    /// for unit delay, 64 lanes otherwise).
    pub fn new(
        circuit: &'c Circuit,
        generator: PairGenerator,
        delay: DelayModel,
        config: PowerConfig,
    ) -> Self {
        Self::from_reading(circuit, generator, delay, config, Reading::Power)
    }

    /// Creates a source whose reading is the circuit's settle time (in
    /// delay units) for a random vector pair: maximum circuit delay
    /// estimation, the extension the paper's conclusion proposes ("for
    /// example, longest path delay estimation").
    ///
    /// The settle time of a pair — how long the event-driven simulation
    /// takes to quiesce after the second vector is applied — is, like
    /// cycle power, a bounded random variable over the vector-pair space.
    /// Its right endpoint is the circuit's *exercisable* critical delay
    /// (the static topological critical path is an upper bound that false
    /// paths may make unreachable), so the unchanged estimator estimates
    /// it. Each reading is the settle time plus a dither in `[0, 1]`, drawn
    /// from the same stream right after its pair: a discrete metric's ties
    /// would make sample maxima degenerate. Kernel selection is as for
    /// [`SimulatorSource::new`].
    ///
    /// # Example
    ///
    /// ```
    /// use maxpower::{EstimationConfig, EstimatorBuilder, RunOptions, SimulatorSource};
    /// use mpe_netlist::{generate, Iscas85};
    /// use mpe_sim::DelayModel;
    /// use mpe_vectors::PairGenerator;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let circuit = generate(Iscas85::C432, 7)?;
    /// let source = SimulatorSource::settle_time(&circuit, PairGenerator::Uniform, DelayModel::Unit);
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
    pub fn settle_time(circuit: &'c Circuit, generator: PairGenerator, delay: DelayModel) -> Self {
        Self::from_reading(
            circuit,
            generator,
            delay,
            PowerConfig::default(),
            Reading::SettleTime,
        )
    }

    fn from_reading(
        circuit: &'c Circuit,
        generator: PairGenerator,
        delay: DelayModel,
        config: PowerConfig,
        reading: Reading,
    ) -> Self {
        let simulator = PowerSimulator::new(circuit, delay, config);
        let packed = Self::build_kernel(&simulator, KernelMode::Auto);
        SimulatorSource {
            simulator,
            sampler: Sampler {
                generator,
                width: circuit.num_inputs(),
                reading,
            },
            simulated: 0,
            packed,
            draws: Vec::new(),
            scratch: Draw::default(),
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
    /// every delay model and both readings.
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

    /// The packed fill: serves banked readings first (advancing the
    /// caller's RNG exactly as fresh draws would), then settles the
    /// remainder in word-level sweeps. Once hyper-samples are announced,
    /// the spare lanes of the final word carry prefetch for them; before
    /// that, nothing is banked or planned and the sweep holds the
    /// caller's pairs alone.
    fn batched_fill(
        &mut self,
        rng: &mut dyn RngCore,
        count: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), MaxPowerError> {
        let lanes = self
            .packed
            .lanes()
            .expect("batched_fill requires a packed kernel");
        let mut batcher = self.batcher.as_mut();

        // 1. Serve banked readings. Each replaces exactly one
        // draw+simulate, so the caller's RNG advances by one draw per
        // reading (into a scratch draw that is then dropped) to stay on
        // the canonical per-k stream.
        let mut served = 0;
        if let Some(batcher) = batcher.as_deref_mut() {
            served = batcher.active.len().min(count);
            for reading in batcher.active.drain(..served) {
                self.sampler.draw(rng, &mut self.scratch);
                out.push(reading);
            }
        }
        let fresh = count - served;
        if fresh == 0 {
            return Ok(());
        }

        // 2. The current hyper-sample's remaining draws...
        let mut used = self.sampler.draw_many(rng, &mut self.draws, 0, fresh);
        // 3. ...padded to a full final word with draws prefetched for the
        // pending hyper-samples, each from its own shadow stream.
        if let Some(batcher) = batcher.as_deref_mut() {
            batcher.filler.clear();
            let spare = (lanes - used % lanes) % lanes;
            let mut padded = 0usize;
            for (idx, plan) in batcher.plans.iter_mut().enumerate() {
                if padded == spare {
                    break;
                }
                let take = batcher
                    .depth
                    .saturating_sub(plan.prefetched)
                    .min(spare - padded);
                if take == 0 {
                    continue;
                }
                used = self
                    .sampler
                    .draw_many(&mut plan.rng, &mut self.draws, used, take);
                plan.prefetched += take;
                padded += take;
                batcher.filler.push((idx, take));
            }
        }

        // 4. One packed sweep settles everything.
        self.report_buf.clear();
        let swept = self.packed.sweep(&self.draws[..used], &mut self.report_buf);
        if let Err(e) = swept {
            // Prefetch was in flight when the sweep failed: the touched
            // plans' shadow streams advanced past readings that were never
            // banked, so serving them later would desynchronize. Poison
            // those plans — a cleared bank and a capped prefetch just mean
            // those hyper-samples simulate everything themselves.
            if let Some(batcher) = batcher {
                for &(idx, _take) in &batcher.filler {
                    if let Some(plan) = batcher.plans.get_mut(idx) {
                        plan.cache.clear();
                        plan.prefetched = batcher.depth;
                    }
                }
            }
            return Err(e);
        }
        self.simulated += used as u64;

        // 5. Scatter: the current hyper-sample's readings to the caller,
        // the prefetched readings into their plans' banks.
        let read = |i: usize| self.sampler.read(&self.report_buf[i], &self.draws[i]);
        out.extend((0..fresh).map(read));
        if let Some(batcher) = batcher {
            let words = used.div_ceil(lanes) as u64;
            batcher.stats.words_swept += words;
            batcher.stats.slots_filled += used as u64;
            batcher.stats.slots_capacity += words * lanes as u64;
            let mut offset = fresh;
            for &(idx, take) in &batcher.filler {
                if let Some(plan) = batcher.plans.get_mut(idx) {
                    plan.cache.extend((offset..offset + take).map(read));
                }
                offset += take;
            }
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
        let draw = &mut self.scratch;
        self.sampler.draw(rng, draw);
        self.simulated += 1;
        let report = self
            .simulator
            .cycle_report(&draw.pair.v1, &draw.pair.v2)
            .map_err(MaxPowerError::from)?;
        Ok(self.sampler.read(&report, draw))
    }

    fn sample_batch(
        &mut self,
        rng: &mut dyn RngCore,
        count: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), MaxPowerError> {
        if matches!(self.packed, PackedKernel::Scalar) {
            // Scalar kernel: the default interleaved draw/simulate loop
            // (identical RNG order, reusing the simulator's scratch).
            for _ in 0..count {
                out.push(self.sample(rng)?);
            }
            return Ok(());
        }
        self.batched_fill(rng, count, out)
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
        match self.packed.lanes() {
            Some(lanes) if sample_size > 0 => lanes.div_ceil(sample_size),
            _ => 0,
        }
    }

    fn plan_hyper_samples(&mut self, master_seed: u64, upcoming: &[u64], expected_units: usize) {
        if self.packed.lanes().is_none() {
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
    use crate::session::{EstimatorBuilder, RunOptions};
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

    fn delay_config(population: u64) -> crate::EstimationConfig {
        crate::EstimationConfig {
            finite_population: Some(population),
            max_hyper_samples: 500,
            ..crate::EstimationConfig::default()
        }
    }

    /// A settle-time source on the scalar kernel, which simulates exactly
    /// the pairs the estimate uses (no speculative prefetch).
    fn scalar_delay(circuit: &Circuit, delay: DelayModel) -> SimulatorSource<'_> {
        SimulatorSource::settle_time(circuit, PairGenerator::Uniform, delay)
            .with_kernel(KernelMode::Scalar)
    }

    #[test]
    fn estimates_delay_bounded_by_depth() {
        let circuit = generate(Iscas85::C880, 5).unwrap();
        let mut source = scalar_delay(&circuit, DelayModel::Unit);
        let session = EstimatorBuilder::new(delay_config(100_000)).build();
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
        let mut source = scalar_delay(&circuit, DelayModel::Unit);
        let session = EstimatorBuilder::new(delay_config(100_000)).build();
        if let Ok(est) = session.run_source(&mut source, RunOptions::default().seeded(4)) {
            assert!(est.observed_max_mw > 0.0);
            assert!(
                est.estimate_mw >= 0.8 * est.observed_max_mw,
                "estimate {} far below observed {}",
                est.estimate_mw,
                est.observed_max_mw
            );
            assert_eq!(est.units_used as u64, source.simulated());
        }
    }

    #[test]
    fn fanout_delay_yields_longer_estimates_than_unit() {
        let circuit = generate(Iscas85::C1355, 5).unwrap();
        let run = |model: DelayModel| -> f64 {
            let mut source = scalar_delay(&circuit, model);
            let session = EstimatorBuilder::new(delay_config(50_000)).build();
            session
                .run_source(&mut source, RunOptions::default().seeded(5))
                .map(|e| {
                    assert_eq!(e.units_used as u64, source.simulated());
                    e.estimate_mw
                })
                .unwrap_or(f64::NAN)
        };
        let unit = run(DelayModel::Unit);
        let fanout = run(DelayModel::fanout_default());
        if unit.is_finite() && fanout.is_finite() {
            assert!(fanout > unit, "fanout {fanout} vs unit {unit}");
        }
    }

    #[test]
    fn trait_object_usable() {
        let mut s = FnSource::new(|rng: &mut dyn RngCore| rng.gen::<f64>());
        let src: &mut dyn PowerSource = &mut s;
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(src.sample(&mut rng).unwrap() <= 1.0);
    }
}
