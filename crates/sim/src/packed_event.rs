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
//! **Per-lane bookkeeping a word at a time.** `events` is a count, so a
//! [`LaneCounter`] adds a whole drained mask at once, eight lanes per
//! table lookup. `settle_time` is the last step in which a lane changed,
//! so the changes of a step are OR-ed into one mask and stamped with
//! `now` once when the step ends. Each changed mask goes to the word's
//! [`LaneSums`], which counts the toggles and sums `switched_cap_ff`. Of
//! the report fields only that `f64` sum could depend on the order of
//! its updates. For a whole-number capacitance table within the exact
//! bound it does not: every partial sum is an exact integer, so the
//! changed masks are counted per capacitance class and multiplied out at
//! word end. Any other table keeps the scalar (time, node) order by
//! adding `caps[node]` one lane at a time (see [`crate::lane_sums`]).
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
use crate::lane_sums::{LaneCounter, LaneSums, MAX_LANES};
use crate::power::PowerConfig;

/// Reusable working memory of the packed event kernel.
///
/// `masks` is kept all-zero between calls: every drained entry is cleared
/// as it is processed, and the error path unwinds whatever is still
/// pending — so the (potentially large) dense array is never re-zeroed
/// wholesale.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventScratch<B> {
    /// Live node values, one lane per assignment.
    values: Vec<B>,
    /// Dense per-`(slot, node)` pending-lane masks: `masks[slot * n + node]`.
    masks: Vec<B>,
    /// Per-slot list of nodes with a non-zero pending mask in that slot.
    slot_nodes: Vec<Vec<u32>>,
}

/// Schedules a re-evaluation of `node` at `time` for the lanes in `mask`.
#[inline]
fn schedule<B: Block>(
    scratch: &mut EventScratch<B>,
    n: usize,
    wheel_len: usize,
    node: u32,
    time: u64,
    mask: B,
    pending: &mut usize,
) {
    let slot = (time % wheel_len as u64) as usize;
    let entry = &mut scratch.masks[slot * n + node as usize];
    if entry.is_zero() {
        scratch.slot_nodes[slot].push(node);
        *pending += 1;
    }
    *entry |= mask;
}

/// Restores the all-zero `masks` invariant after an early error.
fn clear_pending<B: Block>(scratch: &mut EventScratch<B>, n: usize) {
    let EventScratch {
        ref mut masks,
        ref mut slot_nodes,
        ..
    } = *scratch;
    for (slot, nodes) in slot_nodes.iter_mut().enumerate() {
        for &node in nodes.iter() {
            masks[slot * n + node as usize] = B::ZERO;
        }
        nodes.clear();
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
    let wheel_len = (max_delay + 1) as usize;
    if scratch.slot_nodes.len() < wheel_len {
        scratch.slot_nodes.resize(wheel_len, Vec::new());
    }
    if scratch.masks.len() < wheel_len * n {
        scratch.masks.resize(wheel_len * n, B::ZERO);
    }

    // Settle the circuit at the "before" vectors across all lanes — the
    // same zero-delay steady state the scalar kernel starts from.
    evaluator.evaluate_packed(words_before, &mut scratch.values);

    let active = B::low_mask(lanes);
    let mut events = LaneCounter::new();
    let mut settle = [0u64; MAX_LANES];
    let mut pending = 0usize;
    // Every drain adds at most one event to each lane, so no lane can
    // exceed the budget while the word's drain count has not.
    let mut drains = 0usize;

    // Apply the "after" vectors at t = 0 in input-declaration order:
    // input flips toggle immediately and schedule their fanouts.
    for (j, &id) in evaluator.input_ids().iter().enumerate() {
        let i = id as usize;
        let diff = (scratch.values[i] ^ words_after[j]) & active;
        if diff.is_zero() {
            continue;
        }
        scratch.values[i] ^= diff;
        sums.add(i, diff);
        for &f in evaluator.fanout_of(i) {
            let time = delays[f as usize];
            schedule(scratch, n, wheel_len, f, time, diff, &mut pending);
        }
    }

    let mut now = 0u64;
    while pending > 0 {
        now += 1;
        let slot = (now % wheel_len as u64) as usize;
        if scratch.slot_nodes[slot].is_empty() {
            continue;
        }
        // Ascending node order within a time step — observable per lane
        // through glitch counts (and, for the lane walk, the f64 addition
        // sequence), exactly as in the scalar wheel.
        scratch.slot_nodes[slot].sort_unstable();
        // Lanes with a toggle at `now`; their settle time is `now`.
        let mut step_changed = B::ZERO;
        // New schedules land at `now + d` with `1 <= d <= max_delay`,
        // never back onto `slot`, so indexed iteration over a stable
        // bucket is safe while other buckets grow.
        let mut idx = 0;
        while idx < scratch.slot_nodes[slot].len() {
            let node = scratch.slot_nodes[slot][idx] as usize;
            idx += 1;
            pending -= 1;
            let mask = scratch.masks[slot * n + node];
            scratch.masks[slot * n + node] = B::ZERO;
            // One event per lane per (node, time), the scalar kernel's
            // coalesced count.
            events.add(mask);
            drains += 1;
            if drains > budget {
                events.flush::<B>();
                if events.totals[..lanes].iter().any(|&e| e as usize > budget) {
                    clear_pending(scratch, n);
                    return Err(SimError::EventBudgetExhausted { budget });
                }
            }
            if evaluator.kind(node) == GateKind::Input {
                continue;
            }
            let new_word = eval_node(evaluator, node, &scratch.values);
            let changed = (new_word ^ scratch.values[node]) & mask;
            if changed.is_zero() {
                continue;
            }
            scratch.values[node] ^= changed;
            sums.add(node, changed);
            step_changed |= changed;
            for &f in evaluator.fanout_of(node) {
                let time = now + delays[f as usize];
                schedule(scratch, n, wheel_len, f, time, changed, &mut pending);
            }
        }
        scratch.slot_nodes[slot].clear();
        // `now` is monotone, so assignment implements `max`.
        while !step_changed.is_zero() {
            settle[step_changed.trailing_zeros() as usize] = now;
            step_changed = step_changed.clear_lowest();
        }
    }

    events.flush::<B>();
    sums.flush();
    let lane_fields = events.totals.iter().zip(&settle).take(lanes);
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
