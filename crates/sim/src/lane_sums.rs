//! Per-lane sums of a packed word, fed one lane mask at a time.
//!
//! Both packed kernels report, per lane, the number of output toggles and
//! the switched capacitance Σ `caps[node]` over those toggles; the event
//! kernel also counts each lane's events. The scalar kernel adds the
//! capacitances as `f64` in its (time, node) order, and the packed kernels
//! must reproduce that sum bit for bit.
//!
//! **Lanes are counted bit-sliced.** A [`SlicedCounter`] keeps plane `i`
//! of every lane's count in one word: bit `l` of `planes[i]` is bit `i`
//! of lane `l`'s count. Masks are buffered sixteen at a time and added
//! through a Harley–Seal carry-save adder tree — fifteen word-wide
//! full adders, whose carry out of bit 4 ripples into planes 4–7 — so a
//! mask costs about one word operation per plane, however many of its
//! lanes are set. Before any count could reach 256, and at word end, the
//! planes are folded into per-lane integer totals. This one counter
//! serves the event counts, each capacitance class and the lane walk's
//! toggles.
//!
//! **Whole-number tables are summed a mask at a time.** When every node
//! capacitance is a finite, non-negative whole number of fF, and the
//! largest times the most toggles a lane can make stays below 2⁵³, every
//! partial sum of the scalar kernel is an integer below 2⁵³ and so exact:
//! its result is the integer Σ value·count, whatever the order. The
//! default [`CapacitanceModel`] gives such tables (the generated ISCAS-85
//! profiles have 4 to 58 distinct values, the largest 107 fF). There,
//! [`CapClasses`] groups the nodes by capacitance value and [`ClassSum`]
//! counts each changed mask into its node's class; a fold adds each
//! lane's class count to its toggles and count × value to its
//! capacitance.
//!
//! **Any other table walks the lanes.** [`LaneWalk`] adds `caps[node]` to
//! each changed lane one lane at a time, in the order the kernel visits
//! them — the scalar order — so a non-integral or out-of-bound table is
//! still bit-identical, only slower. The table alone picks the path, once,
//! in [`CapTable::new`].
//!
//! [`CapacitanceModel`]: mpe_netlist::CapacitanceModel

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

/// Masks a [`SlicedCounter`] buffers before one carry-save block add.
const BLOCK: usize = 16;

/// Bit planes of a [`SlicedCounter`]: per-lane counts up to 255.
const PLANES: usize = 8;

/// Blocks a [`SlicedCounter`] takes between folds. Fifteen full blocks
/// count at most 240 per lane, and a flush adds at most fifteen buffered
/// masks on top, so every count stays within a byte.
const BLOCKS_PER_FOLD: u32 = 15;

/// `SPREAD[b]` holds bit `i` of `b` as byte `i`: eight one-byte 0/1
/// counters. Unslicing a byte of lanes `8k..8k + 8` of plane `p` is
/// `SPREAD[planes[p].byte(k)] << p`; a buffered mask adds
/// `SPREAD[mask.byte(k)]`.
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

/// One carry-save (full) adder per lane: `(carry, sum)` of `a + b + c`.
#[inline(always)]
fn csa<B: Block>(a: B, b: B, c: B) -> (B, B) {
    let u = a ^ b;
    ((a & b) | (u & c), u ^ c)
}

/// Adds `a + b` into the plane `sum` and returns the carry into the next
/// plane.
#[inline(always)]
fn add_into<B: Block>(sum: &mut B, a: B, b: B) -> B {
    let (carry, s) = csa(*sum, a, b);
    *sum = s;
    carry
}

/// Exact per-lane counts of a stream of lane masks, bit-sliced.
///
/// [`SlicedCounter::add`] buffers a mask; every sixteenth goes through
/// the carry-save tree into `planes`. Once `add` returns `true` the counts
/// must be folded out with [`SlicedCounter::fold`] before the next add.
/// A folded counter is all-zero again, so a counter can persist between
/// words without being re-zeroed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlicedCounter<B> {
    /// `planes[i]` holds bit `i` of every lane's count.
    planes: [B; PLANES],
    /// The masks of the block being filled; `pending[..len]` are live.
    pending: [B; BLOCK],
    len: u32,
    /// Blocks added into `planes` since the last fold.
    blocks: u32,
}

impl<B: Block> SlicedCounter<B> {
    /// A counter at zero.
    pub(crate) const ZERO: SlicedCounter<B> = SlicedCounter {
        planes: [B::ZERO; PLANES],
        pending: [B::ZERO; BLOCK],
        len: 0,
        blocks: 0,
    };

    /// Adds one to every lane set in `mask`. Returns `true` when the
    /// counter must be folded before the next add.
    #[inline]
    pub(crate) fn add(&mut self, mask: B) -> bool {
        self.pending[self.len as usize % BLOCK] = mask;
        self.len += 1;
        if self.len < BLOCK as u32 {
            return false;
        }
        self.add_block();
        self.len = 0;
        self.blocks += 1;
        self.blocks == BLOCKS_PER_FOLD
    }

    /// True when some mask has been added since the last fold.
    #[inline]
    pub(crate) fn is_dirty(&self) -> bool {
        self.len > 0 || self.blocks > 0
    }

    /// Adds the sixteen buffered masks into the planes: a Harley–Seal
    /// tree of fifteen carry-save adders keeps planes 0–3 as its running
    /// ones, twos, fours and eights and yields a carry of weight 16,
    /// which ripples through planes 4–7.
    #[inline(never)]
    fn add_block(&mut self) {
        let d = &self.pending;
        let [mut ones, mut twos, mut fours, mut eights, ..] = self.planes;
        let mut quad = |i: usize| {
            let twos_a = add_into(&mut ones, d[i], d[i + 1]);
            let twos_b = add_into(&mut ones, d[i + 2], d[i + 3]);
            add_into(&mut twos, twos_a, twos_b)
        };
        let (fours_a, fours_b) = (quad(0), quad(4));
        let (fours_c, fours_d) = (quad(8), quad(12));
        let eights_a = add_into(&mut fours, fours_a, fours_b);
        let eights_b = add_into(&mut fours, fours_c, fours_d);
        let mut carry = add_into(&mut eights, eights_a, eights_b);
        self.planes[..4].copy_from_slice(&[ones, twos, fours, eights]);
        for plane in &mut self.planes[4..] {
            let next = *plane & carry;
            *plane ^= carry;
            carry = next;
        }
        debug_assert!(carry.is_zero(), "a lane count passed 255");
    }

    /// Adds every lane's count since the last fold to `totals[lane]` and
    /// zeroes the counter. Out of line, so the rare fold leaves one copy
    /// per width rather than an unrolled unslice at every call site.
    #[inline(never)]
    pub(crate) fn fold_into(&mut self, totals: &mut [u64; MAX_LANES]) {
        self.fold(|lane, count| totals[lane] += count);
    }

    /// Calls `f(lane, count)` for every lane below `B::LANES` with its
    /// count since the last fold, buffered masks included, and zeroes the
    /// counter.
    pub(crate) fn fold(&mut self, mut f: impl FnMut(usize, u64)) {
        let buffered = &self.pending[..self.len as usize];
        let sliced = self.blocks > 0;
        for k in 0..B::LANES / 8 {
            let mut bytes = 0u64;
            if sliced {
                for (i, plane) in self.planes.iter().enumerate() {
                    bytes += SPREAD[plane.byte(k) as usize] << i;
                }
            }
            for mask in buffered {
                bytes += SPREAD[mask.byte(k) as usize];
            }
            for i in 0..8 {
                f(8 * k + i, (bytes >> (8 * i)) & 0xff);
            }
        }
        if sliced {
            self.planes = [B::ZERO; PLANES];
        }
        self.len = 0;
        self.blocks = 0;
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

    /// Folds every pending count into the per-lane totals, leaving every
    /// counter zero — also when a word ends early on an error.
    fn flush(&mut self);

    /// `(switched_cap_ff, toggles)` of `lane`, valid after a flush.
    fn lane(&self, lane: usize) -> (f64, u64);
}

/// The per-class counters of [`ClassSum`], one per capacitance class.
/// They stay zero between words, so a word starts without re-zeroing them.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassScratch<B> {
    counters: Vec<SlicedCounter<B>>,
}

impl<B: Block> ClassScratch<B> {
    /// True when every class counter is zero, as between words.
    pub(crate) fn is_zero(&self) -> bool {
        self.counters.iter().all(|c| !c.is_dirty())
    }
}

/// Toggle counts per capacitance class, folded into exact integer sums.
pub(crate) struct ClassSum<'a, B> {
    classes: &'a CapClasses,
    /// Lane counts of class `c` in `counters[c]`, all zero at word start.
    counters: &'a mut [SlicedCounter<B>],
    toggles: [u64; MAX_LANES],
    cap: [u64; MAX_LANES],
}

impl<'a, B: Block> ClassSum<'a, B> {
    /// An all-zero sum over `classes`, counting in `scratch`.
    pub(crate) fn new(
        classes: &'a CapClasses,
        scratch: &'a mut ClassScratch<B>,
    ) -> ClassSum<'a, B> {
        scratch.counters.resize(classes.len(), SlicedCounter::ZERO);
        debug_assert!(
            scratch.is_zero(),
            "class counters left dirty by an earlier word"
        );
        ClassSum {
            classes,
            counters: &mut scratch.counters,
            toggles: [0; MAX_LANES],
            cap: [0; MAX_LANES],
        }
    }

    /// Folds class `class`'s counts into `toggles` and `cap`.
    #[inline(never)]
    fn fold(&mut self, class: usize) {
        let value = self.classes.values[class];
        let (toggles, cap) = (&mut self.toggles, &mut self.cap);
        self.counters[class].fold(|lane, count| {
            toggles[lane] += count;
            cap[lane] += value * count;
        });
    }
}

impl<B: Block> LaneSums<B> for ClassSum<'_, B> {
    #[inline]
    fn add(&mut self, node: usize, mask: B) {
        let class = self.classes.class_of[node] as usize;
        if self.counters[class].add(mask) {
            self.fold(class);
        }
    }

    fn flush(&mut self) {
        for class in 0..self.classes.len() {
            if self.counters[class].is_dirty() {
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
pub(crate) struct LaneWalk<'a, B> {
    caps: &'a [f64],
    cap: [f64; MAX_LANES],
    counter: SlicedCounter<B>,
    toggles: [u64; MAX_LANES],
}

impl<'a, B: Block> LaneWalk<'a, B> {
    pub(crate) fn new(caps: &'a [f64]) -> LaneWalk<'a, B> {
        LaneWalk {
            caps,
            cap: [0.0; MAX_LANES],
            counter: SlicedCounter::ZERO,
            toggles: [0; MAX_LANES],
        }
    }
}

impl<B: Block> LaneSums<B> for LaneWalk<'_, B> {
    #[inline]
    fn add(&mut self, node: usize, mask: B) {
        if self.counter.add(mask) {
            self.flush();
        }
        let mut m = mask;
        while !m.is_zero() {
            self.cap[m.trailing_zeros() as usize] += self.caps[node];
            m = m.clear_lowest();
        }
    }

    fn flush(&mut self) {
        self.counter.fold_into(&mut self.toggles);
    }

    fn lane(&self, lane: usize) -> (f64, u64) {
        (self.cap[lane], self.toggles[lane])
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::SmallRng;
    use rand::{check, Rng};

    use super::*;

    #[test]
    fn spread_places_bit_i_in_byte_i() {
        for (b, spread) in SPREAD.iter().enumerate() {
            for i in 0..8 {
                assert_eq!((spread >> (8 * i)) & 0xff, (b as u64 >> i) & 1);
            }
        }
    }

    /// A random mask of `B`: each lane set with probability `density`.
    fn random_mask<B: Block>(rng: &mut SmallRng, density: f64) -> B {
        let mut mask = B::ZERO;
        for lane in 0..B::LANES {
            if rng.gen_bool(density) {
                mask |= B::lane_mask(lane);
            }
        }
        mask
    }

    /// Adds `adds` random masks to a counter, folding when it asks and at
    /// random mid-stream points (as the event budget check does), and
    /// checks the totals against a naive per-lane count at every fold.
    fn sliced_counter_matches_naive<B: Block>(rng: &mut SmallRng) {
        // Lengths around the 16-mask block edge, the 240-mask fold edge
        // and the 255 a byte holds, plus any length up to four folds.
        let adds = match rng.gen_range(0..4) {
            0 => rng.gen_range(0..40),
            1 => rng.gen_range(230..270),
            2 => rng.gen_range(470..500),
            _ => rng.gen_range(0..1000),
        };
        // Sparse like a drained mask, dense, or every lane every time.
        let density = match rng.gen_range(0..3) {
            0 => rng.gen_range(0.0..0.15),
            1 => rng.gen_range(0.5..0.95),
            _ => 1.0,
        };
        let flush_every = match rng.gen_range(0..3) {
            0 => usize::MAX,
            _ => rng.gen_range(1..300),
        };
        let mut counter = SlicedCounter::<B>::ZERO;
        let mut totals = [0u64; MAX_LANES];
        let mut naive = [0u64; MAX_LANES];
        fn fold_and_compare<B: Block>(
            counter: &mut SlicedCounter<B>,
            totals: &mut [u64; MAX_LANES],
            naive: &[u64],
        ) {
            counter.fold_into(totals);
            assert!(!counter.is_dirty());
            assert!(counter.planes.iter().all(|p| p.is_zero()));
            assert_eq!(&totals[..B::LANES], naive);
        }
        for i in 0..adds {
            let mask = random_mask::<B>(rng, density);
            for (lane, count) in naive[..B::LANES].iter_mut().enumerate() {
                *count += u64::from(mask.get(lane));
            }
            if counter.add(mask) {
                fold_and_compare(&mut counter, &mut totals, &naive[..B::LANES]);
            }
            if (i + 1) % flush_every == 0 {
                fold_and_compare(&mut counter, &mut totals, &naive[..B::LANES]);
            }
        }
        fold_and_compare(&mut counter, &mut totals, &naive[..B::LANES]);
    }

    #[test]
    fn sliced_counter_is_exact_in_both_widths() {
        check(96, |rng| {
            sliced_counter_matches_naive::<u64>(rng);
            sliced_counter_matches_naive::<u128>(rng);
        });
    }

    fn counts_past_byte_overflow<B: Block>() {
        // Lane 0 in every add, lane LANES-1 in every other: both pass 255
        // several times, so a missed fold would carry out of plane 7.
        let every = B::lane_mask(0);
        let alternate = B::lane_mask(B::LANES - 1);
        let mut counter = SlicedCounter::ZERO;
        let mut totals = [0u64; MAX_LANES];
        for i in 0..1000 {
            if counter.add(if i % 2 == 0 { every | alternate } else { every }) {
                counter.fold_into(&mut totals);
            }
        }
        counter.fold_into(&mut totals);
        assert_eq!(totals[0], 1000);
        assert_eq!(totals[B::LANES - 1], 500);
        assert_eq!(totals.iter().sum::<u64>(), 1500);
    }

    #[test]
    fn lane_counter_is_exact_past_byte_overflow() {
        counts_past_byte_overflow::<u64>();
        counts_past_byte_overflow::<u128>();
    }

    #[test]
    fn sliced_counter_asks_to_fold_before_a_count_reaches_256() {
        // All-ones masks: every lane counts every add, so the first fold
        // request comes at 240 adds and a flush then may add 15 more.
        let mut counter = SlicedCounter::<u128>::ZERO;
        let asks: Vec<bool> = (0..255).map(|_| counter.add(u128::MAX)).collect();
        assert_eq!(asks.iter().position(|&a| a), Some(239));
        let mut totals = [0u64; MAX_LANES];
        counter.fold_into(&mut totals);
        assert_eq!(totals, [255; MAX_LANES]);
    }

    /// Feeds the same masks to both sums and checks they agree exactly
    /// with each other and with a naive toggle count, with some classes
    /// passing several folds. The second word reuses the class counters
    /// the first one left zero.
    fn class_sum_matches_walk<B: Block>() {
        let caps = [8.0, 0.0, 107.0, 8.0, 33.0];
        let CapTable::Classes(classes) = CapTable::new(&caps, 10_000) else {
            panic!("whole-number caps must build classes");
        };
        assert_eq!(classes.len(), 4);
        let mut scratch = ClassScratch::default();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for steps in [2000, 700] {
            let mut exact = ClassSum::<B>::new(&classes, &mut scratch);
            let mut walk = LaneWalk::<B>::new(&caps);
            let mut naive = [0u64; MAX_LANES];
            for step in 0..steps {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let node = if step % 3 == 0 {
                    2
                } else {
                    (state >> 60) as usize % 5
                };
                let mut mask = B::ZERO;
                for (lane, count) in naive[..B::LANES].iter_mut().enumerate() {
                    if (state >> (lane % 61)) & 1 == 1 && lane % 3 != 1 {
                        mask |= B::lane_mask(lane);
                        *count += 1;
                    }
                }
                exact.add(node, mask);
                walk.add(node, mask);
            }
            exact.flush();
            walk.flush();
            for (lane, &want_toggles) in naive[..B::LANES].iter().enumerate() {
                let (cap, toggles) = exact.lane(lane);
                let (want_cap, walk_toggles) = walk.lane(lane);
                assert_eq!(toggles, want_toggles, "lane {lane}");
                assert_eq!(walk_toggles, want_toggles, "lane {lane}");
                assert_eq!(cap.to_bits(), want_cap.to_bits(), "lane {lane}");
            }
        }
        assert!(scratch.is_zero());
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
