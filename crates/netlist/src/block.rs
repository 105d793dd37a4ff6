//! The lane-word abstraction behind the bit-parallel evaluators.
//!
//! A [`Block`] is one machine word holding one boolean per **lane**: bit
//! `l` is the value of some signal under input assignment `l`. Every
//! word-level kernel in the workspace ([`crate::PackedEvaluator`],
//! `mpe_sim::PackedSimulator`) is generic over this trait, so the lane
//! width is a type parameter instead of a hard-coded `u64`: `u64` gives 64
//! assignments per sweep, `u128` gives 128, and a future SIMD vector type
//! only has to implement this trait to slot in.
//!
//! All operations are plain bitwise ops; lanes never interact. The trait
//! is deliberately minimal — exactly the operations the kernels need, so a
//! new width cannot accidentally depend on integer arithmetic that a SIMD
//! type would lack.

use std::fmt::Debug;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// One word of packed boolean lanes.
pub trait Block:
    Copy
    + Eq
    + Debug
    + Default
    + Send
    + Sync
    + 'static
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + BitAndAssign
    + BitOrAssign
    + BitXorAssign
{
    /// Number of assignment lanes this word carries.
    const LANES: usize;

    /// All lanes false.
    const ZERO: Self;

    /// All lanes true.
    const ONES: Self;

    /// A word with only bit `lane` set.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= Self::LANES`.
    fn lane_mask(lane: usize) -> Self;

    /// A word with the lowest `count` lanes set (`count <= Self::LANES`;
    /// `count == Self::LANES` yields [`Block::ONES`]). Used to mask off the
    /// idle lanes of a partial final word.
    fn low_mask(count: usize) -> Self;

    /// The boolean in lane `lane`.
    fn get(self, lane: usize) -> bool;

    /// Index of the lowest set lane (`Self::LANES as u32` when zero).
    fn trailing_zeros(self) -> u32;

    /// Clears the lowest set lane (`x & (x - 1)`), for peeling set lanes
    /// off a difference word.
    fn clear_lowest(self) -> Self;

    /// True when no lane is set.
    fn is_zero(self) -> bool;

    /// Lanes `8k..8k + 8` as one byte, lane `8k` in bit 0
    /// (`k < Self::LANES / 8`). Lets per-lane counters take a whole word
    /// a byte at a time instead of peeling it lane by lane.
    fn byte(self, k: usize) -> u8;
}

macro_rules! impl_block_for_uint {
    ($($t:ty),*) => {$(
        impl Block for $t {
            const LANES: usize = <$t>::BITS as usize;
            const ZERO: Self = 0;
            const ONES: Self = !0;

            #[inline]
            fn lane_mask(lane: usize) -> Self {
                assert!(lane < Self::LANES, "lane {lane} out of range");
                1 << lane
            }

            #[inline]
            fn low_mask(count: usize) -> Self {
                assert!(count <= Self::LANES, "lane count {count} out of range");
                if count == Self::LANES {
                    Self::ONES
                } else {
                    (1 << count) - 1
                }
            }

            #[inline]
            fn get(self, lane: usize) -> bool {
                (self >> lane) & 1 != 0
            }

            #[inline]
            fn trailing_zeros(self) -> u32 {
                <$t>::trailing_zeros(self)
            }

            #[inline]
            fn clear_lowest(self) -> Self {
                self & self.wrapping_sub(1)
            }

            #[inline]
            fn is_zero(self) -> bool {
                self == 0
            }

            #[inline]
            fn byte(self, k: usize) -> u8 {
                (self >> (8 * k)) as u8
            }
        }
    )*};
}

impl_block_for_uint!(u64, u128);

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<B: Block>() {
        assert!(B::ZERO.is_zero());
        assert!(!B::ONES.is_zero());
        assert_eq!(B::low_mask(B::LANES), B::ONES);
        assert_eq!(B::low_mask(0), B::ZERO);
        for lane in [0, 1, B::LANES / 2, B::LANES - 1] {
            let m = B::lane_mask(lane);
            assert!(m.get(lane));
            assert_eq!(m.trailing_zeros() as usize, lane);
            assert!(m.clear_lowest().is_zero());
            assert!(!B::low_mask(lane).get(lane));
            assert!(B::low_mask(lane + 1).get(lane));
            assert!(!(B::ONES ^ m).get(lane));
            assert_eq!(m.byte(lane / 8), 1 << (lane % 8));
        }
        // Bytes tile the word: lane `l` is bit `l % 8` of byte `l / 8`.
        let w = B::lane_mask(0) | B::lane_mask(9) | B::lane_mask(B::LANES - 1);
        let bytes: Vec<u8> = (0..B::LANES / 8).map(|k| w.byte(k)).collect();
        assert_eq!(bytes[0], 1);
        assert_eq!(bytes[1], 2);
        assert_eq!(bytes[B::LANES / 8 - 1], 0x80);
        assert_eq!(bytes.iter().map(|b| b.count_ones()).sum::<u32>(), 3);
        // Peeling ONES visits every lane exactly once, in ascending order.
        let mut w = B::ONES;
        let mut seen = 0usize;
        while !w.is_zero() {
            assert_eq!(w.trailing_zeros() as usize, seen);
            w = w.clear_lowest();
            seen += 1;
        }
        assert_eq!(seen, B::LANES);
    }

    #[test]
    fn u64_block_semantics() {
        exercise::<u64>();
        assert_eq!(<u64 as Block>::LANES, 64);
    }

    #[test]
    fn u128_block_semantics() {
        exercise::<u128>();
        assert_eq!(<u128 as Block>::LANES, 128);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lane_mask_rejects_out_of_range() {
        let _ = <u64 as Block>::lane_mask(64);
    }
}
