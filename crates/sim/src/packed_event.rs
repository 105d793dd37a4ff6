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
//! **Per-lane bookkeeping a word at a time.** Of a lane's report fields
//! only `switched_cap_ff` depends on the order of its updates: it is an
//! `f64` sum, so each lane still adds `caps[node]` one lane at a time in
//! the scalar (time, node) order. `events` and `toggles` are counts, so a
//! [`LaneCounter`] adds a whole drained or changed mask at once, eight
//! lanes per table lookup; and `settle_time` is the last step in which a
//! lane changed, so the changes of a step are OR-ed into one mask and
//! stamped with `now` once when the step ends.
//!
//! **Bit-identity contract:** for each lane, the sequence of (time, node)
//! evaluations, the toggle decisions, and therefore the f64 capacitance
//! additions are exactly those of [`PowerSimulator::cycle_report`] on that
//! lane's vector pair — `power_mw`, `switched_cap_ff`, `toggles`,
//! `events` *and* `settle_time` are all bit-identical, not approximately
//! equal. Two facts carry the proof:
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
use crate::power::PowerConfig;

/// Upper bound on [`Block::LANES`] across all supported widths (`u128`
/// today); sizes the per-lane accumulator arrays.
pub(crate) const MAX_LANES: usize = 128;

/// `SPREAD[b]` holds bit `i` of `b` as byte `i`: eight one-byte 0/1
/// counters, so adding `SPREAD[mask.byte(k)]` to a `u64` counts lanes
/// `8k..8k + 8` of `mask` at once.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            table[b] |= ((b as u64 >> i) & 1) << (8 * i);
            i += 1;
        }
        b += 1;
    }
    table
};

/// Exact per-lane counts fed one lane mask at a time.
///
/// Byte `i` of `bytes[k]` counts lane `8k + i` since the last flush. A
/// byte can take 255 adds before it would overflow, so every 255th add
/// flushes the bytes into `totals`; read `totals` only after a
/// [`LaneCounter::flush`].
struct LaneCounter {
    bytes: [u64; MAX_LANES / 8],
    adds: u32,
    totals: [u64; MAX_LANES],
}

impl LaneCounter {
    fn new() -> LaneCounter {
        LaneCounter {
            bytes: [0; MAX_LANES / 8],
            adds: 0,
            totals: [0; MAX_LANES],
        }
    }

    /// Adds one to every lane set in `mask`.
    #[inline]
    fn add<B: Block>(&mut self, mask: B) {
        for (k, acc) in self.bytes[..B::LANES / 8].iter_mut().enumerate() {
            *acc += SPREAD[mask.byte(k) as usize];
        }
        self.adds += 1;
        if self.adds == u32::from(u8::MAX) {
            self.flush::<B>();
        }
    }

    /// Moves the byte counts into `totals`.
    fn flush<B: Block>(&mut self) {
        let lanes = self.totals[..B::LANES].chunks_exact_mut(8);
        for (acc, totals) in self.bytes.iter_mut().zip(lanes) {
            for (i, total) in totals.iter_mut().enumerate() {
                *total += (*acc >> (8 * i)) & 0xff;
            }
            *acc = 0;
        }
        self.adds = 0;
    }
}

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
/// its maximum, and `budget` the per-lane event budget.
///
/// # Errors
///
/// Returns [`SimError::EventBudgetExhausted`] if any lane exceeds
/// `budget` distinct `(node, time)` evaluations — same defensive bound as
/// the scalar kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cycle_reports_event<B: Block>(
    evaluator: &PackedEvaluator,
    caps: &[f64],
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
    let mut cap = [0.0f64; MAX_LANES];
    let mut toggles = LaneCounter::new();
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
        toggles.add(diff);
        let mut d = diff;
        while !d.is_zero() {
            let lane = d.trailing_zeros() as usize;
            d = d.clear_lowest();
            cap[lane] += caps[i];
        }
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
        // through glitch counts and the f64 addition sequence, exactly as
        // in the scalar wheel.
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
            toggles.add(changed);
            step_changed |= changed;
            let mut c = changed;
            while !c.is_zero() {
                let lane = c.trailing_zeros() as usize;
                c = c.clear_lowest();
                cap[lane] += caps[node];
            }
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
    toggles.flush::<B>();
    for lane in 0..lanes {
        out.push(CycleReport {
            power_mw: config.power_mw(cap[lane]),
            switched_cap_ff: cap[lane],
            toggles: toggles.totals[lane],
            events: events.totals[lane],
            settle_time: settle[lane],
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_places_bit_i_in_byte_i() {
        for (b, spread) in SPREAD.iter().enumerate() {
            for i in 0..8 {
                assert_eq!((spread >> (8 * i)) & 0xff, (b as u64 >> i) & 1);
            }
        }
    }

    fn counts_past_byte_overflow<B: Block>() {
        // Lane 0 in every add, lane LANES-1 in every other: both pass 255
        // several times, so a missed flush would wrap a byte.
        let every = B::lane_mask(0);
        let alternate = B::lane_mask(B::LANES - 1);
        let mut counter = LaneCounter::new();
        for i in 0..1000 {
            counter.add(if i % 2 == 0 { every | alternate } else { every });
        }
        counter.flush::<B>();
        assert_eq!(counter.totals[0], 1000);
        assert_eq!(counter.totals[B::LANES - 1], 500);
        assert_eq!(counter.totals[..B::LANES].iter().sum::<u64>(), 1500);
    }

    #[test]
    fn lane_counter_is_exact_past_byte_overflow() {
        counts_past_byte_overflow::<u64>();
        counts_past_byte_overflow::<u128>();
    }
}
