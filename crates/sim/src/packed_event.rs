//! Timing-aware bit-parallel simulation: the scalar engine's bucketed
//! time-wheel married to **per-lane event words**.
//!
//! The zero-delay packed kernel settles a whole word of assignments with
//! two topological sweeps; under a timing model the evaluation *order* is
//! part of the semantics (glitches), so this module keeps the scalar
//! event kernel's exact schedule — a modular time-wheel of
//! `max_delay + 1` slots, same-time evaluations in ascending node order —
//! but replaces the per-node "is scheduled" marker with a [`Block`] of
//! pending lanes per `(wheel slot, node)`. One gate re-evaluation then
//! serves every lane whose fan-in changed at that instant: the gate is
//! evaluated word-wide once, and the lane mask picks out which lanes the
//! result applies to.
//!
//! **The wheel is a bitmap per slot.** Where the scalar wheel keeps a
//! node list per slot and sorts it before draining, each slot here holds
//! one bit per node. Draining scans the slot's words from low to high and
//! peels each word's bits lowest first, which visits the pending nodes in
//! ascending order with no sort. The current slot is carried beside
//! `now`, so neither a step nor a schedule divides by the wheel length.
//!
//! **Per-lane bookkeeping a word at a time.** `events` is a count, so a
//! bit-sliced [`SlicedCounter`] adds a whole drained mask at once, through
//! a carry-save adder tree every sixteen masks (see [`crate::lane_sums`]).
//! `settle_time` is the last step in which a lane changed,
//! so the changes of a step are OR-ed into one mask and stamped with
//! `now` once when the step ends. Each changed mask goes to the word's
//! [`LaneSums`], which counts the toggles and sums `switched_cap_ff`. Of
//! the report fields only that `f64` sum could depend on the order of
//! its updates. For a whole-number capacitance table within the exact
//! bound it does not: every partial sum is an exact integer, so the
//! changed masks are counted per capacitance class and multiplied out at
//! word end. Any other table keeps the scalar (time, node) order by
//! adding `caps[node]` one lane at a time (see [`crate::lane_sums`]).
//! A gate of one or two inputs is re-evaluated by one branch-free formula
//! of [`eval_node`], whatever its kind.
//!
//! **Bit-identity contract:** for each lane, the sequence of (time, node)
//! evaluations and the toggle decisions are exactly those of
//! [`PowerSimulator::cycle_report`] on that lane's vector pair, and the
//! capacitance sum equals its f64 sum — `power_mw`, `switched_cap_ff`,
//! `toggles`, `events` *and* `settle_time` are all bit-identical, not
//! approximately equal. Two facts carry the proof:
//!
//! 1. all schedules of a node for time `t` originate while the wheel
//!    drains slot `t − delay(node)`, so per-lane coalescing by mask OR
//!    deduplicates exactly the `(node, time)` pairs the scalar marker
//!    does; and
//! 2. lanes never interact — every update is masked by the lanes that
//!    actually have the event, so lane `l` of the live-value words always
//!    equals the scalar kernel's value array for pair `l`.
//!
//! [`PowerSimulator::cycle_report`]: crate::engine::PowerSimulator::cycle_report

use mpe_netlist::{packed::eval_node, Block, GateKind, PackedEvaluator};

use crate::engine::CycleReport;
use crate::error::SimError;
use crate::lane_sums::{LaneSums, SlicedCounter, MAX_LANES};
use crate::power::PowerConfig;

/// Reusable working memory of the packed event kernel.
///
/// `masks` and `bits` are kept all-zero between calls: every drained
/// entry is cleared as it is processed, and the error path unwinds
/// whatever is still pending — so the (potentially large) dense arrays
/// are never re-zeroed wholesale.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventScratch<B> {
    /// Live node values, one lane per assignment.
    values: Vec<B>,
    /// Dense per-`(slot, node)` pending-lane masks: `masks[slot * n + node]`.
    masks: Vec<B>,
    /// Per-slot bitmaps of the nodes with a non-zero pending mask, one
    /// bit per node and `n.div_ceil(64)` words per slot: bit `node % 64`
    /// of `bits[slot * words + node / 64]`. Scanning a slot's words low to
    /// high and peeling each word's bits lowest first visits its nodes in
    /// ascending order, the scalar wheel's same-time order, with no sort.
    bits: Vec<u64>,
}

/// Schedules a re-evaluation of `node` in wheel slot `slot` for the lanes
/// in `mask`.
#[inline]
fn schedule<B: Block>(
    scratch: &mut EventScratch<B>,
    n: usize,
    words: usize,
    slot: usize,
    node: u32,
    mask: B,
    pending: &mut usize,
) {
    let node = node as usize;
    let entry = &mut scratch.masks[slot * n + node];
    if entry.is_zero() {
        scratch.bits[slot * words + node / 64] |= 1 << (node % 64);
        *pending += 1;
    }
    *entry |= mask;
}

/// Restores the all-zero `masks` and `bits` invariant after an early
/// error. A word taken out of its bitmap for draining must be put back
/// first, with the bits not yet peeled.
fn clear_pending<B: Block>(
    scratch: &mut EventScratch<B>,
    n: usize,
    words: usize,
    wheel_len: usize,
) {
    let EventScratch {
        ref mut masks,
        ref mut bits,
        ..
    } = *scratch;
    for (slot, slot_bits) in bits[..wheel_len * words]
        .chunks_exact_mut(words)
        .enumerate()
    {
        for (w, word) in slot_bits.iter_mut().enumerate() {
            let mut rest = std::mem::take(word);
            while rest != 0 {
                let node = w * 64 + rest.trailing_zeros() as usize;
                masks[slot * n + node] = B::ZERO;
                rest &= rest - 1;
            }
        }
    }
}

/// Simulates one word of vector pairs under a timing delay model,
/// appending one [`CycleReport`] per used lane to `out` in lane order.
///
/// `words_before` / `words_after` hold the packed "before" and "after"
/// input vectors; `lanes` is the number of lanes actually packed (idle
/// lanes of a partial final word are masked off and never produce
/// events). `delays` is the per-node delay table (each ≥ 1), `max_delay`
/// its maximum, and `budget` the per-lane event budget. `sums` must be
/// empty; it receives every toggle of the word.
///
/// # Errors
///
/// Returns [`SimError::EventBudgetExhausted`] if any lane exceeds
/// `budget` distinct `(node, time)` evaluations — same defensive bound as
/// the scalar kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cycle_reports_event<B: Block, S: LaneSums<B>>(
    evaluator: &PackedEvaluator,
    mut sums: S,
    delays: &[u64],
    max_delay: u64,
    budget: usize,
    config: PowerConfig,
    scratch: &mut EventScratch<B>,
    words_before: &[B],
    words_after: &[B],
    lanes: usize,
    out: &mut Vec<CycleReport>,
) -> Result<(), SimError> {
    let n = evaluator.num_nodes();
    let words = n.div_ceil(64);
    let wheel_len = (max_delay + 1) as usize;
    if scratch.bits.len() < wheel_len * words {
        scratch.bits.resize(wheel_len * words, 0);
    }
    if scratch.masks.len() < wheel_len * n {
        scratch.masks.resize(wheel_len * n, B::ZERO);
    }

    // Settle the circuit at the "before" vectors across all lanes — the
    // same zero-delay steady state the scalar kernel starts from.
    evaluator.evaluate_packed(words_before, &mut scratch.values);

    let active = B::low_mask(lanes);
    let mut events = SlicedCounter::<B>::ZERO;
    let mut event_totals = [0u64; MAX_LANES];
    let mut settle = [0u64; MAX_LANES];
    let mut pending = 0usize;
    // Every drain adds at most one event to each lane, so no lane can
    // exceed the budget while the word's drain count has not.
    let mut drains = 0usize;

    // Apply the "after" vectors at t = 0 in input-declaration order:
    // input flips toggle immediately and schedule their fanouts. Time 0
    // is slot 0, and every delay is below `wheel_len`.
    for (j, &id) in evaluator.input_ids().iter().enumerate() {
        let i = id as usize;
        let diff = (scratch.values[i] ^ words_after[j]) & active;
        if diff.is_zero() {
            continue;
        }
        scratch.values[i] ^= diff;
        sums.add(i, diff);
        for &f in evaluator.fanout_of(i) {
            let at = delays[f as usize] as usize;
            schedule(scratch, n, words, at, f, diff, &mut pending);
        }
    }

    // `slot` is `now % wheel_len`, carried along instead of divided out.
    let mut now = 0u64;
    let mut slot = 0usize;
    while pending > 0 {
        now += 1;
        slot += 1;
        if slot == wheel_len {
            slot = 0;
        }
        // Lanes with a toggle at `now`; their settle time is `now`.
        let mut step_changed = B::ZERO;
        // Ascending node order within a time step — observable per lane
        // through glitch counts (and, for the lane walk, the f64 addition
        // sequence), exactly as in the scalar wheel. New schedules land at
        // `now + d` with `1 <= d <= max_delay`, never back onto `slot`, so
        // each word is taken whole before its bits are peeled.
        for w in 0..words {
            let mut word = std::mem::take(&mut scratch.bits[slot * words + w]);
            while word != 0 {
                let node = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                pending -= 1;
                let mask = std::mem::replace(&mut scratch.masks[slot * n + node], B::ZERO);
                // One event per lane per (node, time), the scalar kernel's
                // coalesced count.
                if events.add(mask) {
                    events.fold_into(&mut event_totals);
                }
                drains += 1;
                if drains > budget {
                    events.fold_into(&mut event_totals);
                    if event_totals[..lanes].iter().any(|&e| e as usize > budget) {
                        scratch.bits[slot * words + w] = word;
                        clear_pending(scratch, n, words, wheel_len);
                        // Leaves the word's counters zero for the next word.
                        sums.flush();
                        return Err(SimError::EventBudgetExhausted { budget });
                    }
                }
                // Inputs have no fan-in, so no fanout list schedules one.
                debug_assert_ne!(evaluator.kind(node), GateKind::Input);
                let new_word = eval_node(evaluator, node, &scratch.values);
                let changed = (new_word ^ scratch.values[node]) & mask;
                if changed.is_zero() {
                    continue;
                }
                scratch.values[node] ^= changed;
                sums.add(node, changed);
                step_changed |= changed;
                for &f in evaluator.fanout_of(node) {
                    let mut at = slot + delays[f as usize] as usize;
                    if at >= wheel_len {
                        at -= wheel_len;
                    }
                    schedule(scratch, n, words, at, f, changed, &mut pending);
                }
            }
        }
        // `now` is monotone, so assignment implements `max`.
        while !step_changed.is_zero() {
            settle[step_changed.trailing_zeros() as usize] = now;
            step_changed = step_changed.clear_lowest();
        }
    }

    events.fold_into(&mut event_totals);
    sums.flush();
    let lane_fields = event_totals.iter().zip(&settle).take(lanes);
    for (lane, (&events, &settle_time)) in lane_fields.enumerate() {
        let (cap, toggles) = sums.lane(lane);
        out.push(CycleReport {
            power_mw: config.power_mw(cap),
            switched_cap_ff: cap,
            toggles,
            events,
            settle_time,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use mpe_netlist::{generate, Circuit, Iscas85};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::delay::DelayModel;
    use crate::engine::PowerSimulator;
    use crate::lane_sums::{CapClasses, CapTable, ClassScratch, ClassSum, LaneWalk};
    use crate::trace::Waveform;

    fn pair(rng: &mut SmallRng, width: usize) -> (Vec<bool>, Vec<bool>) {
        let mut vector = || (0..width).map(|_| rng.gen()).collect();
        (vector(), vector())
    }

    /// The scalar kernel's drain sequence for one pair's waveform: the
    /// distinct `(time, node)` evaluations in wheel order. Every
    /// transition at `t` schedules each fanout `f` at `t + delay(f)`.
    fn evaluations(sim: &PowerSimulator<'_>, c: &Circuit, wave: &Waveform) -> Vec<(u64, usize)> {
        let mut set = BTreeSet::new();
        for tr in wave.transitions() {
            for &f in c.fanouts(tr.node) {
                set.insert((tr.time + sim.delays()[f.index()], f.index()));
            }
        }
        set.into_iter().collect()
    }

    /// How a test word sums its capacitance: by class, in counters that
    /// persist across words as the packed simulator's do, or by the lane
    /// walk.
    enum Sums {
        Classes(CapClasses, ClassScratch<u64>),
        Walk,
    }

    impl Sums {
        fn classes(sim: &PowerSimulator<'_>) -> Sums {
            let max_toggles = sim.event_budget() + sim.circuit().num_nodes();
            match CapTable::new(sim.caps(), max_toggles) {
                CapTable::Classes(classes) => Sums::Classes(classes, ClassScratch::default()),
                CapTable::Walk(_) => panic!("the default model's caps must build classes"),
            }
        }
    }

    /// Runs one word through the event kernel, packing `pairs` into its
    /// low lanes.
    fn run_word(
        sim: &PowerSimulator<'_>,
        evaluator: &PackedEvaluator,
        scratch: &mut EventScratch<u64>,
        sums: &mut Sums,
        pairs: &[(Vec<bool>, Vec<bool>)],
        budget: usize,
    ) -> Result<Vec<CycleReport>, SimError> {
        match sums {
            Sums::Classes(classes, counters) => {
                let sums = ClassSum::new(classes, counters);
                run_word_with(sums, sim, evaluator, scratch, pairs, budget)
            }
            Sums::Walk => {
                let sums = LaneWalk::new(sim.caps());
                run_word_with(sums, sim, evaluator, scratch, pairs, budget)
            }
        }
    }

    fn run_word_with<S: LaneSums<u64>>(
        sums: S,
        sim: &PowerSimulator<'_>,
        evaluator: &PackedEvaluator,
        scratch: &mut EventScratch<u64>,
        pairs: &[(Vec<bool>, Vec<bool>)],
        budget: usize,
    ) -> Result<Vec<CycleReport>, SimError> {
        let width = evaluator.num_inputs();
        let mut before = vec![0u64; width];
        let mut after = vec![0u64; width];
        for (lane, (v1, v2)) in pairs.iter().enumerate() {
            evaluator.pack_lane(&mut before, lane, v1);
            evaluator.pack_lane(&mut after, lane, v2);
        }
        let mut out = Vec::new();
        cycle_reports_event(
            evaluator,
            sums,
            sim.delays(),
            sim.max_delay(),
            budget,
            sim.config(),
            scratch,
            &before,
            &after,
            pairs.len(),
            &mut out,
        )?;
        Ok(out)
    }

    fn assert_scratch_clean(scratch: &EventScratch<u64>, sums: &Sums, when: &str) {
        assert!(
            scratch.masks.iter().all(|m| m.is_zero()),
            "mask left set {when}"
        );
        assert!(
            scratch.bits.iter().all(|&w| w == 0),
            "bitmap word left set {when}"
        );
        if let Sums::Classes(_, counters) = sums {
            assert!(counters.is_zero(), "class counter left set {when}");
        }
    }

    /// A fresh word of 64 distinct pairs matches the scalar kernel bit for
    /// bit and leaves the scratch all-zero.
    fn assert_next_word_matches_scalar(
        sim: &PowerSimulator<'_>,
        evaluator: &PackedEvaluator,
        scratch: &mut EventScratch<u64>,
        sums: &mut Sums,
        rng: &mut SmallRng,
    ) {
        let pairs: Vec<_> = (0..64).map(|_| pair(rng, evaluator.num_inputs())).collect();
        let reports = run_word(sim, evaluator, scratch, sums, &pairs, sim.event_budget()).unwrap();
        for ((v1, v2), got) in pairs.iter().zip(&reports) {
            let want = sim.cycle_report(v1, v2).unwrap();
            assert_eq!(got, &want);
            assert_eq!(got.power_mw.to_bits(), want.power_mw.to_bits());
            assert_eq!(
                got.switched_cap_ff.to_bits(),
                want.switched_cap_ff.to_bits()
            );
        }
        assert_scratch_clean(scratch, sums, "after a successful word");
    }

    /// `EventBudgetExhausted` fired in the middle of a C6288 step — with
    /// the drained word part-peeled, later words of the same slot still
    /// pending and the other slot already holding next-step schedules —
    /// leaves every mask, bitmap word and class counter zero, and the next
    /// words match the scalar kernel, through the class sums as well as
    /// the lane walk.
    #[test]
    fn budget_error_mid_step_clears_every_slot() {
        let c = generate(Iscas85::C6288, 7).unwrap();
        let sim = PowerSimulator::new(&c, DelayModel::Unit, crate::PowerConfig::default());
        let evaluator = PackedEvaluator::new(&c);
        let mut rng = SmallRng::seed_from_u64(6288);
        let (v1, v2) = pair(&mut rng, c.num_inputs());
        let wave = Waveform::capture(&c, &v1, &v2, DelayModel::Unit).unwrap();
        let evals = evaluations(&sim, &c, &wave);
        assert_eq!(
            evals.len() as u64,
            sim.cycle_report(&v1, &v2).unwrap().events
        );

        // Transitions at `t` of nodes below the drained one have already
        // scheduled their fanouts into the other slot (unit delay).
        let fires = (0..evals.len())
            .find(|&k| {
                let (t, node) = evals[k];
                let later = &evals[k + 1..];
                let same_word = later.iter().any(|&(u, m)| u == t && m / 64 == node / 64);
                let later_word = later.iter().any(|&(u, m)| u == t && m / 64 > node / 64);
                let other_slot = wave.transitions().iter().any(|tr| {
                    tr.time == t && tr.node.index() < node && !c.fanouts(tr.node).is_empty()
                });
                same_word && later_word && other_slot
            })
            .expect("C6288 pair with a mid-step drain");

        // Every lane holds the same pair, so each lane's event count is the
        // drain count and the budget check fires at drain `fires + 1`.
        let same: Vec<_> = (0..64).map(|_| (v1.clone(), v2.clone())).collect();
        for mut sums in [Sums::Walk, Sums::classes(&sim)] {
            let mut scratch = EventScratch::default();
            let err = run_word(&sim, &evaluator, &mut scratch, &mut sums, &same, fires);
            assert!(
                matches!(err, Err(SimError::EventBudgetExhausted { budget }) if budget == fires),
                "{err:?}"
            );
            assert_scratch_clean(&scratch, &sums, "after the budget error");
            for _ in 0..2 {
                assert_next_word_matches_scalar(
                    &sim,
                    &evaluator,
                    &mut scratch,
                    &mut sums,
                    &mut rng,
                );
            }

            // The exact budget succeeds on the same word.
            let reports = run_word(
                &sim,
                &evaluator,
                &mut scratch,
                &mut sums,
                &same,
                evals.len(),
            )
            .unwrap();
            assert!(reports.iter().all(|r| r.events == evals.len() as u64));
            assert_scratch_clean(&scratch, &sums, "after the exact budget");
        }
    }
}
