//! The workspace's random number generator, reached by every crate as
//! `rand`: the `rand` 0.8 API subset the estimator uses, with the same
//! algorithms as that crate — `SmallRng` is xoshiro256++, seeded through
//! the PCG32 expansion of `SeedableRng::seed_from_u64`; `gen::<f64>`
//! takes the top 53 bits; integer `gen_range` uses the widening-multiply
//! rejection sampler; `gen_bool` is the 64-bit Bernoulli threshold. The
//! benchmark crate's `tests/rand_streams.rs` pins these streams to the
//! published values, so every committed estimate, report and checkpoint
//! is reproducible from a seed alone.
//!
//! One method extends the subset: [`RngCore::fill_u32`] draws a block of
//! `next_u32` values. Its default is the `next_u32` loop, so it keeps every
//! generator's stream; it exists so that a caller holding
//! `&mut dyn RngCore` pays one dynamic call per block, not per value.
//!
//! [`check`] is the seeded case loop the property tests run on.

mod check;

pub use check::{case_seed, check};

use std::fmt;

/// Error type of [`RngCore::try_fill_bytes`] (never produced here).
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("random number generator error")
    }
}

impl std::error::Error for Error {}

/// The core of a random number generator.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }

    /// Fills `dest` with the next `dest.len()` values of the
    /// [`RngCore::next_u32`] stream, in order.
    ///
    /// Not part of `rand` 0.8. The default is the `next_u32` loop, so every
    /// generator keeps its stream; through `&mut dyn RngCore` it draws a
    /// whole block for one dynamic call instead of one per value.
    fn fill_u32(&mut self, dest: &mut [u32]) {
        for word in dest {
            *word = self.next_u32();
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn fill_u32(&mut self, dest: &mut [u32]) {
        (**self).fill_u32(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn fill_u32(&mut self, dest: &mut [u32]) {
        (**self).fill_u32(dest)
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with PCG32, as `rand_core` 0.6
    /// does.
    fn seed_from_u64(mut state: u64) -> Self {
        fn pcg32(state: &mut u64) -> [u8; 4] {
            const MUL: u64 = 6_364_136_223_846_793_005;
            const INC: u64 = 11_634_580_027_462_260_723;
            *state = state.wrapping_mul(MUL).wrapping_add(INC);
            let s = *state;
            let xorshifted = (((s >> 18) ^ s) >> 27) as u32;
            let rot = (s >> 59) as u32;
            xorshifted.rotate_right(rot).to_le_bytes()
        }
        let mut seed = Self::Seed::default();
        let mut chunks = seed.as_mut().chunks_exact_mut(4);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&pcg32(&mut state));
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let n = rem.len();
            rem.copy_from_slice(&pcg32(&mut state)[..n]);
        }
        Self::from_seed(seed)
    }

    fn from_rng<R: RngCore>(mut rng: R) -> Result<Self, Error> {
        let mut seed = Self::Seed::default();
        rng.try_fill_bytes(seed.as_mut())?;
        Ok(Self::from_seed(seed))
    }
}

fn fill_bytes_via_next<R: RngCore + ?Sized>(rng: &mut R, dest: &mut [u8]) {
    let mut chunks = dest.chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let rem = chunks.into_remainder();
    let n = rem.len();
    if n > 4 {
        rem.copy_from_slice(&rng.next_u64().to_le_bytes()[..n]);
    } else if n > 0 {
        rem.copy_from_slice(&rng.next_u32().to_le_bytes()[..n]);
    }
}

pub mod rngs {
    //! Concrete generators.

    use super::{fill_bytes_via_next, RngCore, SeedableRng};

    /// xoshiro256++: small, fast, not cryptographic.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SmallRng {
        fn splitmix(mut state: u64) -> Self {
            const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(PHI);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            if seed.iter().all(|&b| b == 0) {
                return SmallRng::splitmix(0);
            }
            let mut s = [0u64; 4];
            for (word, bytes) in s.iter_mut().zip(seed.chunks_exact(8)) {
                let mut le = [0u8; 8];
                le.copy_from_slice(bytes);
                *word = u64::from_le_bytes(le);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            fill_bytes_via_next(self, dest)
        }
    }
}

pub mod distributions {
    //! `Standard` sampling and uniform ranges.

    use super::Rng;

    /// Types that produce values of `T` from a generator.
    pub trait Distribution<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The default distribution of each primitive type.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    impl Distribution<bool> for Standard {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            (rng.next_u32() as i32) < 0
        }
    }

    impl Distribution<f64> for Standard {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    macro_rules! standard_int {
        ($($ty:ty => $next:ident),*) => {$(
            impl Distribution<$ty> for Standard {
                #[inline]
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $ty {
                    rng.$next() as $ty
                }
            }
        )*};
    }
    standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
                  usize => next_u64, i8 => next_u32, i16 => next_u32, i32 => next_u32,
                  i64 => next_u64, isize => next_u64);

    pub mod uniform {
        //! Single-shot uniform sampling over ranges.

        use super::super::Rng;
        use std::cmp::Ordering;
        use std::ops::{Range, RangeInclusive};

        /// Types `gen_range` can sample.
        pub trait SampleUniform: Sized {
            fn sample_single<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
            fn sample_single_inclusive<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R)
                -> Self;
        }

        /// Range types `gen_range` accepts.
        pub trait SampleRange<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
            fn is_empty(&self) -> bool;
        }

        impl<T: SampleUniform + PartialOrd> SampleRange<T> for Range<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                T::sample_single(self.start, self.end, rng)
            }
            fn is_empty(&self) -> bool {
                !matches!(self.start.partial_cmp(&self.end), Some(Ordering::Less))
            }
        }

        impl<T: SampleUniform + PartialOrd> SampleRange<T> for RangeInclusive<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                let (low, high) = self.into_inner();
                T::sample_single_inclusive(low, high, rng)
            }
            fn is_empty(&self) -> bool {
                !matches!(
                    self.start().partial_cmp(self.end()),
                    Some(Ordering::Less | Ordering::Equal)
                )
            }
        }

        macro_rules! uniform_int {
            ($($ty:ty, $unsigned:ty, $large:ty, $wide:ty, $next:ident);*) => {$(
                impl SampleUniform for $ty {
                    fn sample_single<R: Rng + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                        assert!(low < high, "gen_range: low >= high");
                        Self::sample_single_inclusive(low, high - 1, rng)
                    }

                    fn sample_single_inclusive<R: Rng + ?Sized>(
                        low: $ty,
                        high: $ty,
                        rng: &mut R,
                    ) -> $ty {
                        assert!(low <= high, "gen_range: low > high");
                        let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned as $large;
                        if range == 0 {
                            return rng.$next() as $ty;
                        }
                        let zone = if <$unsigned>::MAX as u64 <= u16::MAX as u64 {
                            let ints_to_reject = (<$large>::MAX - range + 1) % range;
                            <$large>::MAX - ints_to_reject
                        } else {
                            (range << range.leading_zeros()).wrapping_sub(1)
                        };
                        loop {
                            let v = rng.$next() as $large;
                            let wide = (v as $wide) * (range as $wide);
                            let hi = (wide >> <$large>::BITS) as $large;
                            let lo = wide as $large;
                            if lo <= zone {
                                return low.wrapping_add(hi as $ty);
                            }
                        }
                    }
                }
            )*};
        }
        uniform_int!(u8, u8, u32, u64, next_u32; u16, u16, u32, u64, next_u32;
                     u32, u32, u32, u64, next_u32; u64, u64, u64, u128, next_u64;
                     usize, usize, u64, u128, next_u64; i32, u32, u32, u64, next_u32;
                     i64, u64, u64, u128, next_u64; isize, usize, u64, u128, next_u64);

        impl SampleUniform for f64 {
            fn sample_single<R: Rng + ?Sized>(low: f64, high: f64, rng: &mut R) -> f64 {
                assert!(low < high, "gen_range: low >= high");
                let scale = high - low;
                assert!(scale.is_finite(), "gen_range: range overflow");
                loop {
                    // A value in [1, 2) from the top 52 bits, shifted to [0, 1).
                    let bits = rng.next_u64() >> 12;
                    let value0_1 = f64::from_bits((1023u64 << 52) | bits) - 1.0;
                    let res = value0_1 * scale + low;
                    if res < high {
                        return res;
                    }
                }
            }

            fn sample_single_inclusive<R: Rng + ?Sized>(low: f64, high: f64, rng: &mut R) -> f64 {
                assert!(low <= high, "gen_range: low > high");
                let scale = high - low;
                let bits = rng.next_u64() >> 12;
                let value0_1 = f64::from_bits((1023u64 << 52) | bits) - 1.0;
                (value0_1 * scale + low).min(high)
            }
        }
    }

    pub use uniform::{SampleRange, SampleUniform};
}

use distributions::{Distribution, SampleRange, Standard};

/// Convenience methods over any [`RngCore`].
pub trait Rng: RngCore {
    #[inline]
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        assert!(!range.is_empty(), "cannot sample empty range");
        range.sample_single(self)
    }

    /// `true` with probability `p` (the 64-bit Bernoulli threshold).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "p={p:?} is outside range [0.0, 1.0]"
        );
        if p == 1.0 {
            return true;
        }
        let p_int = (p * 2.0 * (1u64 << 63) as f64) as u64;
        self.next_u64() < p_int
    }

    fn sample<T, D: Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }

    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
