//! Bit-parallel batch simulation: a full lane word of vector pairs per
//! word-level sweep.
//!
//! [`PackedSimulator`] wraps a [`PowerSimulator`]'s kernel with
//! [`mpe_netlist::PackedEvaluator`]'s word-level evaluation: each node
//! value is a [`Block`] whose bit `l` is the node's value for pair `l` of
//! the batch. The lane width is a type parameter — `PackedSimulator<u64>`
//! settles 64 assignments per sweep, `PackedSimulator<u128>` 128 — and
//! every delay model is supported:
//!
//! * **zero-delay**: one pass settles all "before" states, a second all
//!   "after" states, and each node's difference mask is counted into the
//!   word's per-lane toggle and capacitance sums;
//! * **unit / fanout delay**: the per-lane event kernel (`packed_event`)
//!   replays the scalar time-wheel with a pending-lane mask per
//!   `(time, node)`, so glitch-accurate simulation also settles a whole
//!   word of assignments per wheel drain.
//!
//! **Bit-identity contract:** for every lane and every delay model,
//! `power_mw`, `switched_cap_ff`, `toggles`, `events` and `settle_time`
//! are bit-identical to the scalar [`PowerSimulator::cycle_report`]'s,
//! not merely approximately equal. The capacitance sum is the one field
//! whose f64 rounding could depend on order. [`PackedSimulator::new`]
//! classifies the table once: whole-number caps within the exact bound
//! are summed as integers a mask at a time, since there the scalar f64
//! sum is exact too; any other table is added lane by lane in the scalar
//! order (see `crates/sim/src/lane_sums.rs`). The estimation layers rely
//! on this to make kernel choice pure provenance.

use std::cell::RefCell;

use mpe_netlist::{Block, PackedEvaluator};

use crate::delay::DelayModel;
use crate::engine::{CycleReport, PowerSimulator};
use crate::error::SimError;
use crate::lane_sums::{CapTable, ClassScratch, ClassSum, LaneSums, LaneWalk};
use crate::packed_event::{cycle_reports_event, EventScratch};
use crate::population::PopulationPair;
use crate::power::PowerConfig;

/// Which simulation kernel the estimation path should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// A packed kernel chosen per delay model by [`KernelMode::resolve`]:
    /// 128-lane words for unit delay, 64-lane words otherwise. Every
    /// delay model is supported, so `Auto` always resolves to a packed
    /// kernel.
    #[default]
    Auto,
    /// Always the scalar per-pair kernel.
    Scalar,
    /// The bit-parallel kernel with 64-bit lane words.
    Packed,
    /// The bit-parallel kernel with 128-bit lane words.
    Packed128,
}

impl KernelMode {
    /// Parses a CLI-style kernel name.
    pub fn parse(s: &str) -> Option<KernelMode> {
        match s {
            "auto" => Some(KernelMode::Auto),
            "scalar" => Some(KernelMode::Scalar),
            "packed" => Some(KernelMode::Packed),
            "packed128" => Some(KernelMode::Packed128),
            _ => None,
        }
    }

    /// The canonical name of this mode.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelMode::Auto => "auto",
            KernelMode::Scalar => "scalar",
            KernelMode::Packed => "packed",
            KernelMode::Packed128 => "packed128",
        }
    }

    /// Resolves `Auto` against a delay model. Both packed widths
    /// implement every delay model bit-identically, so the choice is
    /// speed alone: under unit delay 128-lane words beat 64 on every
    /// measured circuit and on the unit-delay benchmark workloads; zero
    /// delay, whose two-sweep path is fastest at 64 lanes, and
    /// fanout-proportional delay, which no benchmark workload measures
    /// end to end, keep 64.
    pub fn resolve(self, delay: DelayModel) -> KernelMode {
        match (self, delay) {
            (KernelMode::Auto, DelayModel::Unit) => KernelMode::Packed128,
            (KernelMode::Auto, _) => KernelMode::Packed,
            (other, _) => other,
        }
    }

    /// Lane count of the kernel, if it is a packed one (`None` for
    /// `Auto`/`Scalar`).
    pub fn lanes(self) -> Option<usize> {
        match self {
            KernelMode::Packed => Some(<u64 as Block>::LANES),
            KernelMode::Packed128 => Some(<u128 as Block>::LANES),
            KernelMode::Auto | KernelMode::Scalar => None,
        }
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Reusable word-level working memory.
#[derive(Debug, Clone, Default)]
struct PackedScratch<B> {
    words_before: Vec<B>,
    words_after: Vec<B>,
    word: WordScratch<B>,
    classes: ClassScratch<B>,
}

/// Working memory of the delay-model kernels.
#[derive(Debug, Clone, Default)]
struct WordScratch<B> {
    vals_before: Vec<B>,
    vals_after: Vec<B>,
    event: EventScratch<B>,
}

/// A bit-parallel batch simulator over lane words of type `B`.
///
/// Built from a [`PowerSimulator`]; owns its CSR-flattened netlist,
/// capacitance and delay tables, so it has no borrow of the source
/// simulator. Use [`PackedSimulator::cycle_reports_batch`] to simulate any
/// number of pairs; they are processed in chunks of `B::LANES` (64 for the
/// default `u64`, 128 for `u128`).
#[derive(Debug, Clone)]
pub struct PackedSimulator<B: Block = u64> {
    evaluator: PackedEvaluator,
    caps: CapTable,
    config: PowerConfig,
    delay: DelayModel,
    delays: Vec<u64>,
    max_delay: u64,
    budget: usize,
    scratch: RefCell<PackedScratch<B>>,
}

impl<B: Block> PackedSimulator<B> {
    /// Builds the packed kernel from a scalar simulator, inheriting its
    /// delay model, capacitance table and power configuration.
    pub fn new(sim: &PowerSimulator<'_>) -> PackedSimulator<B> {
        let budget = sim.event_budget();
        // A lane toggles at most once per event plus once per input flip
        // (zero delay: once per node), so `budget + n` bounds its toggles.
        let max_toggles = budget.saturating_add(sim.circuit().num_nodes());
        PackedSimulator {
            evaluator: PackedEvaluator::new(sim.circuit()),
            caps: CapTable::new(sim.caps(), max_toggles),
            config: sim.config(),
            delay: sim.delay_model(),
            delays: sim.delays().to_vec(),
            max_delay: sim.max_delay(),
            budget,
            scratch: RefCell::new(PackedScratch::default()),
        }
    }

    /// Number of primary inputs of the underlying circuit.
    pub fn num_inputs(&self) -> usize {
        self.evaluator.num_inputs()
    }

    /// Number of assignment lanes settled per word-level sweep.
    pub fn lanes(&self) -> usize {
        B::LANES
    }

    /// Simulates every `(v1, v2)` pair, appending one [`CycleReport`] per
    /// pair to `out` in order. The pairs are anything implementing
    /// [`PopulationPair`] (slice or owned tuples, `mpe-vectors`'
    /// `VectorPair`, a caller's own struct), so callers hand over what
    /// they hold without building a slice view per batch. Batches of up
    /// to `B::LANES` pairs share each word-level sweep; a partial final
    /// chunk simply leaves the spare lanes unused.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WidthMismatch`] if any vector's width differs
    /// from the circuit's primary input count (reports for chunks before
    /// the offending one are already appended), and propagates
    /// [`SimError::EventBudgetExhausted`] from the timing kernel.
    pub fn cycle_reports_batch<P: PopulationPair>(
        &self,
        pairs: &[P],
        out: &mut Vec<CycleReport>,
    ) -> Result<(), SimError> {
        let width = self.evaluator.num_inputs();
        let mut scratch = self.scratch.borrow_mut();
        let PackedScratch {
            ref mut words_before,
            ref mut words_after,
            ref mut word,
            ref mut classes,
        } = *scratch;
        words_before.resize(width, B::ZERO);
        words_after.resize(width, B::ZERO);

        for chunk in pairs.chunks(B::LANES) {
            for (lane, pair) in chunk.iter().enumerate() {
                let (v1, v2) = (pair.before(), pair.after());
                if v1.len() != width {
                    return Err(SimError::WidthMismatch {
                        expected: width,
                        got: v1.len(),
                    });
                }
                if v2.len() != width {
                    return Err(SimError::WidthMismatch {
                        expected: width,
                        got: v2.len(),
                    });
                }
                self.evaluator.pack_lane(words_before, lane, v1);
                self.evaluator.pack_lane(words_after, lane, v2);
            }
            let lanes = chunk.len();
            match &self.caps {
                CapTable::Classes(table) => {
                    let sums = ClassSum::<B>::new(table, classes);
                    self.simulate_word(sums, words_before, words_after, word, lanes, out)?;
                }
                CapTable::Walk(caps) => {
                    let sums = LaneWalk::new(caps);
                    self.simulate_word(sums, words_before, words_after, word, lanes, out)?;
                }
            }
        }
        Ok(())
    }

    /// Simulates one packed word under the delay model, summing its
    /// toggles and capacitance through `sums`.
    fn simulate_word<S: LaneSums<B>>(
        &self,
        sums: S,
        words_before: &[B],
        words_after: &[B],
        word: &mut WordScratch<B>,
        lanes: usize,
        out: &mut Vec<CycleReport>,
    ) -> Result<(), SimError> {
        match self.delay {
            DelayModel::Zero => {
                self.zero_delay_chunk(sums, words_before, words_after, word, lanes, out);
                Ok(())
            }
            DelayModel::Unit | DelayModel::FanoutProportional { .. } => cycle_reports_event(
                &self.evaluator,
                sums,
                &self.delays,
                self.max_delay,
                self.budget,
                self.config,
                &mut word.event,
                words_before,
                words_after,
                lanes,
                out,
            ),
        }
    }

    /// The zero-delay fast path: two topological sweeps settle the whole
    /// word, then each node's difference mask goes to `sums`.
    fn zero_delay_chunk<S: LaneSums<B>>(
        &self,
        mut sums: S,
        words_before: &[B],
        words_after: &[B],
        word: &mut WordScratch<B>,
        lanes: usize,
        out: &mut Vec<CycleReport>,
    ) {
        let n = self.evaluator.num_nodes();
        let WordScratch {
            vals_before,
            vals_after,
            ..
        } = word;
        self.evaluator.evaluate_packed(words_before, vals_before);
        self.evaluator.evaluate_packed(words_after, vals_after);

        // Each lane sees its changed nodes in topological order, the
        // scalar zero-delay kernel's order: a lane walk repeats its f64
        // additions exactly, and a whole-number table's class counts give
        // the same exact integer sum (see `crate::lane_sums`).
        let active = B::low_mask(lanes);
        for i in 0..n {
            let diff = (vals_before[i] ^ vals_after[i]) & active;
            if !diff.is_zero() {
                sums.add(i, diff);
            }
        }
        sums.flush();
        for lane in 0..lanes {
            let (cap, toggles) = sums.lane(lane);
            out.push(CycleReport {
                power_mw: self.config.power_mw(cap),
                switched_cap_ff: cap,
                toggles,
                events: 0,
                settle_time: 0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpe_netlist::{generate, Iscas85};

    fn pairs_for(width: usize, count: usize, seed: u64) -> Vec<(Vec<bool>, Vec<bool>)> {
        // Deterministic pseudo-random pairs from an LCG (no RNG dep needed).
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut bit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) & 1 != 0
        };
        (0..count)
            .map(|_| {
                let v1: Vec<bool> = (0..width).map(|_| bit()).collect();
                let v2: Vec<bool> = (0..width).map(|_| bit()).collect();
                (v1, v2)
            })
            .collect()
    }

    fn scalar_reports(
        sim: &PowerSimulator<'_>,
        pairs: &[(Vec<bool>, Vec<bool>)],
    ) -> Vec<CycleReport> {
        pairs
            .iter()
            .map(|(v1, v2)| sim.cycle_report(v1, v2).unwrap())
            .collect()
    }

    /// Every field equal, and `power_mw` / `switched_cap_ff` equal as bits.
    fn assert_bitwise_eq(scalar: &[CycleReport], packed: &[CycleReport]) {
        assert_eq!(scalar.len(), packed.len());
        for (i, (s, p)) in scalar.iter().zip(packed).enumerate() {
            assert_eq!(s, p, "pair {i}");
            assert_eq!(
                s.power_mw.to_bits(),
                p.power_mw.to_bits(),
                "pair {i} power bits"
            );
            assert_eq!(
                s.switched_cap_ff.to_bits(),
                p.switched_cap_ff.to_bits(),
                "pair {i} cap bits"
            );
        }
    }

    fn assert_matches_scalar_on<B: Block>(
        circuit: Iscas85,
        delay: DelayModel,
        count: usize,
        seed: u64,
    ) {
        let c = generate(circuit, 7).unwrap();
        let sim = PowerSimulator::new(&c, delay, crate::PowerConfig::default());
        let packed: PackedSimulator<B> = PackedSimulator::new(&sim);
        let pairs = pairs_for(c.num_inputs(), count, seed);
        let mut reports = Vec::new();
        packed.cycle_reports_batch(&pairs, &mut reports).unwrap();
        assert_bitwise_eq(&scalar_reports(&sim, &pairs), &reports);
    }

    fn assert_matches_scalar<B: Block>(delay: DelayModel, count: usize, seed: u64) {
        assert_matches_scalar_on::<B>(Iscas85::C432, delay, count, seed);
    }

    #[test]
    fn packed_matches_scalar_bitwise_on_c432() {
        // 130 pairs: two full u64 words plus a partial final word of 2.
        assert_matches_scalar::<u64>(DelayModel::Zero, 130, 42);
    }

    #[test]
    fn packed128_matches_scalar_bitwise_on_c432() {
        // 130 pairs: one full u128 word plus a partial final word of 2.
        assert_matches_scalar::<u128>(DelayModel::Zero, 130, 42);
    }

    #[test]
    fn packed_matches_scalar_under_unit_delay() {
        assert_matches_scalar::<u64>(DelayModel::Unit, 130, 11);
    }

    #[test]
    fn packed128_matches_scalar_under_unit_delay() {
        assert_matches_scalar::<u128>(DelayModel::Unit, 130, 11);
    }

    #[test]
    fn packed_matches_scalar_under_fanout_delay() {
        assert_matches_scalar::<u64>(DelayModel::fanout_default(), 70, 23);
    }

    #[test]
    fn packed128_matches_scalar_under_fanout_delay() {
        assert_matches_scalar::<u128>(DelayModel::fanout_default(), 140, 23);
    }

    #[test]
    fn packed_matches_scalar_on_c6288_unit_delay() {
        // The glitch-heavy multiplier drives thousands of events per lane,
        // far past the 255 adds at which the lane counters flush their
        // bytes. 130 pairs: two full u64 words plus a partial word of 2.
        assert_matches_scalar_on::<u64>(Iscas85::C6288, DelayModel::Unit, 130, 17);
    }

    #[test]
    fn packed128_matches_scalar_on_c6288_unit_delay() {
        // 260 pairs: two full u128 words plus a partial word of 4.
        assert_matches_scalar_on::<u128>(Iscas85::C6288, DelayModel::Unit, 260, 17);
    }

    /// Sets the event budget to one below, then exactly at, the batch's
    /// largest scalar event count: the first must fail, the second match
    /// the scalar kernel, and the scratch must stay clean for later batches.
    fn assert_budget_boundary<B: Block>() {
        let c = generate(Iscas85::C432, 7).unwrap();
        let sim = PowerSimulator::new(&c, DelayModel::Unit, crate::PowerConfig::default());
        let mut packed: PackedSimulator<B> = PackedSimulator::new(&sim);
        let default_budget = packed.budget;
        let pairs = pairs_for(c.num_inputs(), 130, 29);
        let scalar = scalar_reports(&sim, &pairs);
        let max_events = scalar.iter().map(|r| r.events).max().unwrap() as usize;

        let tight = max_events - 1;
        packed.budget = tight;
        let mut out = Vec::new();
        let err = packed.cycle_reports_batch(&pairs, &mut out);
        assert!(
            matches!(err, Err(SimError::EventBudgetExhausted { budget }) if budget == tight),
            "{err:?}"
        );

        packed.budget = max_events;
        let mut reports = Vec::new();
        packed.cycle_reports_batch(&pairs, &mut reports).unwrap();
        assert_bitwise_eq(&scalar, &reports);

        // Fail once more, then a different batch under the default budget
        // must see none of the abandoned word's pending lanes.
        packed.budget = tight;
        assert!(packed.cycle_reports_batch(&pairs, &mut out).is_err());
        packed.budget = default_budget;
        let next = pairs_for(c.num_inputs(), 130, 31);
        let mut reports = Vec::new();
        packed.cycle_reports_batch(&next, &mut reports).unwrap();
        assert_bitwise_eq(&scalar_reports(&sim, &next), &reports);
    }

    #[test]
    fn packed_event_budget_boundary_is_exact() {
        assert_budget_boundary::<u64>();
    }

    #[test]
    fn packed128_event_budget_boundary_is_exact() {
        assert_budget_boundary::<u128>();
    }

    #[test]
    fn default_model_sums_every_profile_by_class() {
        // The bit-identity tests pass on either path, so only this pins
        // the default model's tables to the class counter.
        for circuit in Iscas85::all() {
            let c = generate(circuit, 7).unwrap();
            for delay in [
                DelayModel::Zero,
                DelayModel::Unit,
                DelayModel::fanout_default(),
            ] {
                let sim = PowerSimulator::new(&c, delay, crate::PowerConfig::default());
                let packed: PackedSimulator<u128> = PackedSimulator::new(&sim);
                assert!(
                    matches!(packed.caps, CapTable::Classes(_)),
                    "{circuit} under {delay} walks the lanes"
                );
            }
        }
    }

    #[test]
    fn fractional_caps_walk_the_lanes() {
        let c = generate(Iscas85::C432, 7).unwrap();
        let model = mpe_netlist::CapacitanceModel {
            per_fanout_cap: 2.7,
            ..mpe_netlist::CapacitanceModel::default()
        };
        let sim = PowerSimulator::with_capacitance(
            &c,
            DelayModel::Unit,
            crate::PowerConfig::default(),
            &model,
        );
        let packed: PackedSimulator = PackedSimulator::new(&sim);
        assert!(matches!(packed.caps, CapTable::Walk(_)));
        let pairs = pairs_for(c.num_inputs(), 70, 5);
        let mut reports = Vec::new();
        packed.cycle_reports_batch(&pairs, &mut reports).unwrap();
        assert_bitwise_eq(&scalar_reports(&sim, &pairs), &reports);
    }

    #[test]
    fn width_mismatch_detected() {
        let c = generate(Iscas85::C432, 7).unwrap();
        let sim = PowerSimulator::new(&c, DelayModel::Zero, crate::PowerConfig::default());
        let packed: PackedSimulator = PackedSimulator::new(&sim);
        let short = vec![true; c.num_inputs() - 1];
        let full = vec![true; c.num_inputs()];
        let mut out = Vec::new();
        let err = packed.cycle_reports_batch(&[(short.as_slice(), full.as_slice())], &mut out);
        assert!(matches!(err, Err(SimError::WidthMismatch { .. })));
    }

    #[test]
    fn empty_batch_is_noop() {
        let c = generate(Iscas85::C432, 7).unwrap();
        let sim = PowerSimulator::new(&c, DelayModel::Zero, crate::PowerConfig::default());
        let packed: PackedSimulator = PackedSimulator::new(&sim);
        let mut out = Vec::new();
        let none: [(Vec<bool>, Vec<bool>); 0] = [];
        packed.cycle_reports_batch(&none, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn event_scratch_reuse_is_clean_across_batches() {
        // Two timing batches through the same simulator must not leak
        // pending state from the first into the second.
        let c = generate(Iscas85::C432, 7).unwrap();
        let sim = PowerSimulator::new(&c, DelayModel::Unit, crate::PowerConfig::default());
        let packed: PackedSimulator = PackedSimulator::new(&sim);
        let pairs = pairs_for(c.num_inputs(), 10, 3);
        let mut first = Vec::new();
        packed.cycle_reports_batch(&pairs, &mut first).unwrap();
        let mut second = Vec::new();
        packed.cycle_reports_batch(&pairs, &mut second).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn kernel_mode_parse_and_resolve() {
        assert_eq!(KernelMode::parse("auto"), Some(KernelMode::Auto));
        assert_eq!(KernelMode::parse("scalar"), Some(KernelMode::Scalar));
        assert_eq!(KernelMode::parse("packed"), Some(KernelMode::Packed));
        assert_eq!(KernelMode::parse("packed128"), Some(KernelMode::Packed128));
        assert_eq!(KernelMode::parse("fast"), None);
        // Auto resolves to a packed kernel for every delay model: 128
        // lanes for unit delay, 64 for zero and fanout delay.
        assert_eq!(
            KernelMode::Auto.resolve(DelayModel::Zero),
            KernelMode::Packed
        );
        assert_eq!(
            KernelMode::Auto.resolve(DelayModel::Unit),
            KernelMode::Packed128
        );
        assert_eq!(
            KernelMode::Auto.resolve(DelayModel::fanout_default()),
            KernelMode::Packed
        );
        assert_eq!(
            KernelMode::Scalar.resolve(DelayModel::Zero),
            KernelMode::Scalar
        );
        assert_eq!(
            KernelMode::Packed128.resolve(DelayModel::Unit),
            KernelMode::Packed128
        );
        // An explicit width is never overridden.
        assert_eq!(
            KernelMode::Packed.resolve(DelayModel::Unit),
            KernelMode::Packed
        );
        assert_eq!(KernelMode::Packed.to_string(), "packed");
        assert_eq!(KernelMode::Packed128.to_string(), "packed128");
        assert_eq!(KernelMode::Packed.lanes(), Some(64));
        assert_eq!(KernelMode::Packed128.lanes(), Some(128));
        assert_eq!(KernelMode::Scalar.lanes(), None);
        assert_eq!(KernelMode::Auto.lanes(), None);
    }
}
