//! Per-lane sums of a packed word, fed one lane mask at a time.
//!
//! Both packed kernels report, per lane, the number of output toggles and
//! the switched capacitance Σ `caps[node]` over those toggles. The scalar
//! kernel adds the capacitances as `f64` in its (time, node) order, and
//! the packed kernels must reproduce that sum bit for bit.
//!
//! **Whole-number tables are summed a mask at a time.** When every node
//! capacitance is a finite, non-negative whole number of fF, and the
//! largest times the most toggles a lane can make stays below 2⁵³, every
//! partial sum of the scalar kernel is an integer below 2⁵³ and so exact:
//! its result is the integer Σ value·count, whatever the order. The
//! default [`CapacitanceModel`] gives such tables (the generated ISCAS-85
//! profiles have 4 to 58 distinct values, the largest 107 fF). There,
//! [`CapClasses`] groups the nodes by capacitance value and [`ClassSum`]
//! counts each changed mask into its node's class with byte-sliced
//! counters, eight lanes per table lookup; the counts are folded into
//! per-lane integer toggles and capacitance every 255 adds per class and
//! at word end.
//!
//! **Any other table walks the lanes.** [`LaneWalk`] adds `caps[node]` to
//! each changed lane one lane at a time, in the order the kernel visits
//! them — the scalar order — so a non-integral or out-of-bound table is
//! still bit-identical, only slower. The table alone picks the path, once,
//! in [`CapTable::new`].
//!
//! [`CapacitanceModel`]: mpe_netlist::CapacitanceModel

use std::marker::PhantomData;

use mpe_netlist::Block;

/// Upper bound on [`Block::LANES`] across all supported widths (`u128`
/// today); sizes the per-lane accumulator arrays.
pub(crate) const MAX_LANES: usize = 128;

/// Integers of magnitude up to 2⁵³ are exact in an `f64`.
const EXACT_LIMIT: u64 = 1 << 53;

/// Capacitances below this many fF find their class through a dense
/// value-indexed table (the default model's stay below 200); larger ones
/// by binary search.
const DENSE_VALUES: u64 = 1 << 16;

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

/// Adds one to byte `i` of `acc[k]` for every lane `8k + i` set in `mask`.
#[inline]
fn spread_add<B: Block>(acc: &mut [u64], mask: B) {
    for (k, acc) in acc[..B::LANES / 8].iter_mut().enumerate() {
        *acc += SPREAD[mask.byte(k) as usize];
    }
}

/// Exact per-lane counts fed one lane mask at a time.
///
/// Byte `i` of `bytes[k]` counts lane `8k + i` since the last flush. A
/// byte can take 255 adds before it would overflow, so every 255th add
/// flushes the bytes into `totals`; read `totals` only after a
/// [`LaneCounter::flush`].
pub(crate) struct LaneCounter {
    bytes: [u64; MAX_LANES / 8],
    adds: u32,
    pub(crate) totals: [u64; MAX_LANES],
}

impl LaneCounter {
    pub(crate) fn new() -> LaneCounter {
        LaneCounter {
            bytes: [0; MAX_LANES / 8],
            adds: 0,
            totals: [0; MAX_LANES],
        }
    }

    /// Adds one to every lane set in `mask`.
    #[inline]
    pub(crate) fn add<B: Block>(&mut self, mask: B) {
        spread_add(&mut self.bytes, mask);
        self.adds += 1;
        if self.adds == u32::from(u8::MAX) {
            self.flush::<B>();
        }
    }

    /// Moves the byte counts into `totals`.
    pub(crate) fn flush<B: Block>(&mut self) {
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

/// Nodes grouped by whole-number capacitance: `values[class_of[node]]`
/// is `caps[node]` in fF.
#[derive(Debug, Clone)]
pub(crate) struct CapClasses {
    class_of: Vec<u32>,
    values: Vec<u64>,
}

impl CapClasses {
    /// Groups `caps` by value, or `None` unless every cap is a finite,
    /// non-negative whole number and `max(caps) × max_toggles < 2⁵³`, so
    /// that every partial sum of at most `max_toggles` of them is exact.
    fn new(caps: &[f64], max_toggles: usize) -> Option<CapClasses> {
        // `c >= 0.0` also rejects NaN; -0.0 passes as 0, which leaves a sum
        // that starts at +0.0 unchanged. Converting through `i64` takes one
        // instruction on x86-64, `u64` a branch.
        let whole = |c: f64| c >= 0.0 && c < EXACT_LIMIT as f64 && c as i64 as f64 == c;
        let femtofarads = |c: f64| c as i64 as u64;
        let mut max = 0.0f64;
        for &c in caps {
            if !whole(c) {
                return None;
            }
            max = max.max(c);
        }
        let max = femtofarads(max);
        if u128::from(max) * max_toggles as u128 >= u128::from(EXACT_LIMIT) {
            return None;
        }
        let mut values = Vec::new();
        let class_of = if max < DENSE_VALUES {
            let mut index = vec![u32::MAX; max as usize + 1];
            caps.iter()
                .map(|&c| {
                    let class = &mut index[femtofarads(c) as usize];
                    if *class == u32::MAX {
                        *class = values.len() as u32;
                        values.push(femtofarads(c));
                    }
                    *class
                })
                .collect()
        } else {
            values = caps.iter().map(|&c| femtofarads(c)).collect();
            values.sort_unstable();
            values.dedup();
            caps.iter()
                .map(|&c| {
                    values
                        .binary_search(&femtofarads(c))
                        .expect("every value has a class") as u32
                })
                .collect()
        };
        Some(CapClasses { class_of, values })
    }

    /// Number of distinct capacitance values.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }
}

/// A packed kernel's capacitance table, in the form that decides how a
/// word's switched capacitance is summed.
#[derive(Debug, Clone)]
pub(crate) enum CapTable {
    /// Whole-number caps with exact sums: counted a mask at a time.
    Classes(CapClasses),
    /// Any other caps: added one lane at a time, in the kernel's order.
    Walk(Vec<f64>),
}

impl CapTable {
    /// Classifies `caps` for a kernel in which a lane toggles at most
    /// `max_toggles` times per pair.
    pub(crate) fn new(caps: &[f64], max_toggles: usize) -> CapTable {
        match CapClasses::new(caps, max_toggles) {
            Some(classes) => CapTable::Classes(classes),
            None => CapTable::Walk(caps.to_vec()),
        }
    }
}

/// Per-lane toggles and switched capacitance of one word.
///
/// Feed every toggle of the word through [`LaneSums::add`] in the
/// kernel's (time, node) order, then [`LaneSums::flush`] once before
/// reading [`LaneSums::lane`].
pub(crate) trait LaneSums<B: Block> {
    /// Counts one toggle of `node` in every lane set in `mask`.
    fn add(&mut self, node: usize, mask: B);

    /// Folds every pending count into the per-lane totals.
    fn flush(&mut self);

    /// `(switched_cap_ff, toggles)` of `lane`, valid after a flush.
    fn lane(&self, lane: usize) -> (f64, u64);
}

/// Reusable byte counters of [`ClassSum`], `B::LANES / 8` words per class.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassScratch {
    bytes: Vec<u64>,
    adds: Vec<u32>,
}

/// Toggle counts per capacitance class, folded into exact integer sums.
pub(crate) struct ClassSum<'a, B> {
    classes: &'a CapClasses,
    /// Byte-sliced lane counts of class `c` in
    /// `bytes[c * B::LANES / 8..(c + 1) * B::LANES / 8]`.
    bytes: &'a mut [u64],
    /// Adds per class since its last fold.
    adds: &'a mut [u32],
    toggles: [u64; MAX_LANES],
    cap: [u64; MAX_LANES],
    lanes: PhantomData<B>,
}

impl<'a, B: Block> ClassSum<'a, B> {
    /// An all-zero sum over `classes`, counting in `scratch`.
    pub(crate) fn new(classes: &'a CapClasses, scratch: &'a mut ClassScratch) -> ClassSum<'a, B> {
        let words = classes.len() * (B::LANES / 8);
        scratch.bytes.clear();
        scratch.bytes.resize(words, 0);
        scratch.adds.clear();
        scratch.adds.resize(classes.len(), 0);
        ClassSum {
            classes,
            bytes: &mut scratch.bytes,
            adds: &mut scratch.adds,
            toggles: [0; MAX_LANES],
            cap: [0; MAX_LANES],
            lanes: PhantomData,
        }
    }

    /// Folds class `class`'s byte counts into `toggles` and `cap`.
    fn fold(&mut self, class: usize) {
        let stride = B::LANES / 8;
        let value = self.classes.values[class];
        let bytes = &mut self.bytes[class * stride..(class + 1) * stride];
        for (k, acc) in bytes.iter_mut().enumerate() {
            let acc = std::mem::take(acc);
            for i in 0..8 {
                let count = (acc >> (8 * i)) & 0xff;
                self.toggles[8 * k + i] += count;
                self.cap[8 * k + i] += value * count;
            }
        }
        self.adds[class] = 0;
    }
}

impl<B: Block> LaneSums<B> for ClassSum<'_, B> {
    #[inline]
    fn add(&mut self, node: usize, mask: B) {
        let class = self.classes.class_of[node] as usize;
        let stride = B::LANES / 8;
        spread_add(&mut self.bytes[class * stride..], mask);
        self.adds[class] += 1;
        if self.adds[class] == u32::from(u8::MAX) {
            self.fold(class);
        }
    }

    fn flush(&mut self) {
        for class in 0..self.classes.len() {
            if self.adds[class] > 0 {
                self.fold(class);
            }
        }
    }

    fn lane(&self, lane: usize) -> (f64, u64) {
        // Below 2⁵³ by construction of the classes, so the conversion is
        // exact and equals the scalar kernel's f64 sum.
        (self.cap[lane] as f64, self.toggles[lane])
    }
}

/// The fallback sum: `caps[node]` added to each changed lane in turn.
pub(crate) struct LaneWalk<'a> {
    caps: &'a [f64],
    cap: [f64; MAX_LANES],
    toggles: LaneCounter,
}

impl<'a> LaneWalk<'a> {
    pub(crate) fn new(caps: &'a [f64]) -> LaneWalk<'a> {
        LaneWalk {
            caps,
            cap: [0.0; MAX_LANES],
            toggles: LaneCounter::new(),
        }
    }
}

impl<B: Block> LaneSums<B> for LaneWalk<'_> {
    #[inline]
    fn add(&mut self, node: usize, mask: B) {
        self.toggles.add(mask);
        let mut m = mask;
        while !m.is_zero() {
            self.cap[m.trailing_zeros() as usize] += self.caps[node];
            m = m.clear_lowest();
        }
    }

    fn flush(&mut self) {
        self.toggles.flush::<B>();
    }

    fn lane(&self, lane: usize) -> (f64, u64) {
        (self.cap[lane], self.toggles.totals[lane])
    }
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

    /// Feeds the same masks to both sums and checks they agree exactly,
    /// with some classes passing 255 adds.
    fn class_sum_matches_walk<B: Block>() {
        let caps = [8.0, 0.0, 107.0, 8.0, 33.0];
        let CapTable::Classes(classes) = CapTable::new(&caps, 10_000) else {
            panic!("whole-number caps must build classes");
        };
        assert_eq!(classes.len(), 4);
        let mut scratch = ClassScratch::default();
        let mut exact = ClassSum::<B>::new(&classes, &mut scratch);
        let mut walk = LaneWalk::new(&caps);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let node = if step % 3 == 0 {
                2
            } else {
                (state >> 60) as usize % 5
            };
            let mut mask = B::ZERO;
            for lane in 0..B::LANES {
                if (state >> (lane % 61)) & 1 == 1 && lane % 3 != 1 {
                    mask |= B::lane_mask(lane);
                }
            }
            exact.add(node, mask);
            walk.add(node, mask);
        }
        LaneSums::<B>::flush(&mut exact);
        LaneSums::<B>::flush(&mut walk);
        for lane in 0..B::LANES {
            let (cap, toggles) = LaneSums::<B>::lane(&exact, lane);
            let (want_cap, want_toggles) = LaneSums::<B>::lane(&walk, lane);
            assert_eq!(toggles, want_toggles, "lane {lane}");
            assert_eq!(cap.to_bits(), want_cap.to_bits(), "lane {lane}");
        }
    }

    #[test]
    fn class_sum_matches_lane_walk_in_both_widths() {
        class_sum_matches_walk::<u64>();
        class_sum_matches_walk::<u128>();
    }

    #[test]
    fn classes_map_every_node_to_its_value() {
        // Small values take the dense index, a large one the sorted search.
        for caps in [
            &[8.0, 0.0, 107.0, 8.0, 33.0, 0.0][..],
            &[70_000.0, 5.0, 70_000.0, 1e9, 5.0][..],
        ] {
            let classes = CapClasses::new(caps, 10).expect("whole caps");
            let mut distinct = caps.to_vec();
            distinct.sort_by(f64::total_cmp);
            distinct.dedup();
            assert_eq!(classes.len(), distinct.len());
            for (node, &cap) in caps.iter().enumerate() {
                let class = classes.class_of[node] as usize;
                assert_eq!(classes.values[class] as f64, cap, "node {node}");
            }
        }
    }

    #[test]
    fn classes_need_whole_caps_within_the_exact_bound() {
        let classes = |caps: &[f64], max_toggles| CapClasses::new(caps, max_toggles);
        assert!(classes(&[0.0, 5.0, 107.0], 1_000_000).is_some());
        assert!(classes(&[-0.0, 5.0], 10).is_some());
        assert!(classes(&[], 10).is_some());
        // Non-integral, negative, NaN and infinite caps walk the lanes.
        assert!(classes(&[5.0, 0.1], 10).is_none());
        assert!(classes(&[5.0, -1.0], 10).is_none());
        assert!(classes(&[f64::NAN], 10).is_none());
        assert!(classes(&[f64::INFINITY], 10).is_none());
        // max × toggles must stay below 2⁵³: 2⁴³ × 2¹⁰ is the first miss.
        let big = (1u64 << 43) as f64;
        assert!(classes(&[big - 1.0], 1 << 10).is_some());
        assert!(classes(&[big], 1 << 10).is_none());
        assert!(classes(&[big], (1 << 10) - 1).is_some());
        assert!(classes(&[EXACT_LIMIT as f64], 1).is_none());
    }
}
