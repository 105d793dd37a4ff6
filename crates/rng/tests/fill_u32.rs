//! `fill_u32` is the `next_u32` stream: the same values in the same order,
//! leaving the generator where as many `next_u32` calls would, through
//! every way the workspace hands a generator on.

use mpe_rng::rngs::SmallRng;
use mpe_rng::{RngCore, SeedableRng};

const LENGTHS: [usize; 6] = [0, 1, 63, 64, 65, 1_000];

/// The first `len` `next_u32` values from seed 5, then the next `next_u64`.
fn reference(len: usize) -> (Vec<u32>, u64) {
    let mut rng = SmallRng::seed_from_u64(5);
    let words = (0..len).map(|_| rng.next_u32()).collect();
    (words, rng.next_u64())
}

/// Fills `len` values through `rng`, then reads the next `next_u64`.
fn filled(mut rng: impl RngCore, len: usize) -> (Vec<u32>, u64) {
    let mut words = vec![0u32; len];
    rng.fill_u32(&mut words);
    (words, rng.next_u64())
}

#[test]
fn small_rng_fill_is_the_next_u32_stream() {
    for len in LENGTHS {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut words = vec![0u32; len];
        rng.fill_u32(&mut words);
        assert_eq!((words, rng.next_u64()), reference(len), "length {len}");
    }
}

#[test]
fn dyn_rng_core_fill_is_the_next_u32_stream() {
    for len in LENGTHS {
        let mut small = SmallRng::seed_from_u64(5);
        let rng: &mut dyn RngCore = &mut small;
        assert_eq!(filled(rng, len), reference(len), "length {len}");
    }
}

#[test]
fn nested_reference_fill_is_the_next_u32_stream() {
    for len in LENGTHS {
        let mut small = SmallRng::seed_from_u64(5);
        let mut inner = &mut small;
        let rng: &mut &mut SmallRng = &mut inner;
        assert_eq!(filled(rng, len), reference(len), "length {len}");
    }
}

#[test]
fn boxed_dyn_fill_is_the_next_u32_stream() {
    for len in LENGTHS {
        let rng: Box<dyn RngCore> = Box::new(SmallRng::seed_from_u64(5));
        assert_eq!(filled(rng, len), reference(len), "length {len}");
    }
}
