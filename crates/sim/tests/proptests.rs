//! Property-based tests for the simulation engine.

use mpe_netlist::generator::random_dag;
use mpe_netlist::{generate, CapacitanceModel, Iscas85};
use mpe_sim::{CycleReport, DelayModel, PackedSimulator, PowerConfig, PowerSimulator};
use rand::rngs::SmallRng;
use rand::{check, Rng, SeedableRng};

fn random_vector(rng: &mut SmallRng, width: usize) -> Vec<bool> {
    (0..width).map(|_| rng.gen()).collect()
}

/// Power is non-negative, zero for identical vectors, and symmetric in
/// switched capacitance for (v1, v2) vs (v2, v1) under zero delay
/// (steady-state differences are symmetric).
#[test]
fn zero_delay_symmetry() {
    check(48, |rng| {
        let seed = rng.gen_range(0u64..300);
        let vec_seed = rng.gen_range(0u64..1000);
        let c = random_dag("s", 8, 3, 40, 8, seed).unwrap();
        let sim = PowerSimulator::new(&c, DelayModel::Zero, PowerConfig::default());
        let mut rng = SmallRng::seed_from_u64(vec_seed);
        let v1 = random_vector(&mut rng, 8);
        let v2 = random_vector(&mut rng, 8);
        let fwd = sim.cycle_power(&v1, &v2).unwrap();
        let back = sim.cycle_power(&v2, &v1).unwrap();
        assert!(fwd >= 0.0);
        assert!((fwd - back).abs() < 1e-12);
        assert_eq!(sim.cycle_power(&v1, &v1).unwrap(), 0.0);
    });
}

/// Under every delay model the event-driven switched capacitance is at
/// least the zero-delay value (glitches only add transitions) and the
/// report is internally consistent.
#[test]
fn event_driven_dominates_zero_delay() {
    check(48, |rng| {
        let seed = rng.gen_range(0u64..200);
        let vec_seed = rng.gen_range(0u64..500);
        let c = random_dag("d", 10, 3, 60, 10, seed).unwrap();
        let mut rng = SmallRng::seed_from_u64(vec_seed);
        let v1 = random_vector(&mut rng, 10);
        let v2 = random_vector(&mut rng, 10);
        let zero = PowerSimulator::new(&c, DelayModel::Zero, PowerConfig::default());
        let rz = zero.cycle_report(&v1, &v2).unwrap();
        for model in [DelayModel::Unit, DelayModel::fanout_default()] {
            let sim = PowerSimulator::new(&c, model, PowerConfig::default());
            let re = sim.cycle_report(&v1, &v2).unwrap();
            assert!(re.switched_cap_ff >= rz.switched_cap_ff - 1e-9);
            assert!(re.toggles >= rz.toggles);
            assert!(re.power_mw >= 0.0);
            // Power and capacitance are consistent through the config.
            let expect = PowerConfig::default().power_mw(re.switched_cap_ff);
            assert!((re.power_mw - expect).abs() < 1e-9);
        }
    });
}

/// Determinism: the same pair yields the same report every time.
#[test]
fn simulation_deterministic() {
    check(48, |rng| {
        let seed = rng.gen_range(0u64..200);
        let c = random_dag("det", 6, 2, 30, 6, seed).unwrap();
        let sim = PowerSimulator::new(&c, DelayModel::fanout_default(), PowerConfig::default());
        let mut rng = SmallRng::seed_from_u64(seed);
        let v1 = random_vector(&mut rng, 6);
        let v2 = random_vector(&mut rng, 6);
        let a = sim.cycle_report(&v1, &v2).unwrap();
        let b = sim.cycle_report(&v1, &v2).unwrap();
        assert_eq!(a, b);
    });
}

/// The bit-parallel packed kernels — in both lane widths — are
/// bit-identical to the scalar kernel for every circuit, every delay
/// model (including randomly parameterised inertial fanout delays),
/// and every batch size. Batches of 1..150 exercise partial final
/// words in both widths: u64 sees full + partial words, u128 sees
/// purely partial words below 128 pairs.
#[test]
fn packed_kernels_match_scalar_in_both_widths() {
    check(48, |rng| {
        let seed = rng.gen_range(0u64..120);
        let vec_seed = rng.gen_range(0u64..500);
        let batch = rng.gen_range(1usize..150);
        let model_idx = rng.gen_range(0usize..4);
        let base = rng.gen_range(1u32..4);
        let per_fanout = rng.gen_range(0u32..3);
        let model = match model_idx {
            0 => DelayModel::Zero,
            1 => DelayModel::Unit,
            2 => DelayModel::fanout_default(),
            _ => DelayModel::FanoutProportional { base, per_fanout },
        };
        let c = random_dag("p", 9, 3, 50, 9, seed).unwrap();
        let sim = PowerSimulator::new(&c, model, PowerConfig::default());
        let mut rng = SmallRng::seed_from_u64(vec_seed);
        let pairs: Vec<(Vec<bool>, Vec<bool>)> = (0..batch)
            .map(|_| (random_vector(&mut rng, 9), random_vector(&mut rng, 9)))
            .collect();
        assert_packed_match_scalar(&sim, &pairs, &model.to_string());
    });
}

/// The packed event kernel keeps one bitmap word per 64 nodes in each
/// wheel slot, so circuits of 63, 64 and 65 nodes and of 127, 128 and
/// 129 nodes put the last node on either side of a word boundary. Unit
/// delay gives a two-slot wheel, fanout delay a wheel of many slots, and
/// every batch is a full 128-lane word plus a partial final word of 1,
/// 63, 65 or 127 lanes (in 64-lane words: 1, 63, 1 and 63).
#[test]
fn packed_kernel_matches_scalar_at_bitmap_word_edges() {
    check(4, |rng| {
        for nodes in [63usize, 64, 65, 127, 128, 129] {
            let inputs = rng.gen_range(4usize..12);
            let seed = rng.gen_range(0u64..1000);
            let c = random_dag("edge", inputs, 3, nodes - inputs, 8, seed).unwrap();
            assert_eq!(c.num_nodes(), nodes);
            for model in [DelayModel::Unit, DelayModel::fanout_default()] {
                let sim = PowerSimulator::new(&c, model, PowerConfig::default());
                for last in [1usize, 63, 65, 127] {
                    let pairs: Vec<(Vec<bool>, Vec<bool>)> = (0..128 + last)
                        .map(|_| (random_vector(rng, inputs), random_vector(rng, inputs)))
                        .collect();
                    let case = format!("{nodes} nodes, {model}, last word of {last}");
                    assert_packed_match_scalar(&sim, &pairs, &case);
                }
            }
        }
    });
}

/// The packed event kernel on the glitch-heavy C6288 multiplier: dozens
/// of bitmap words per slot, thousands of drains per word, under unit and
/// fanout delay, with partial final words of 1, 63, 65 and 127 lanes.
#[test]
fn packed_kernel_matches_scalar_on_c6288() {
    let c = generate(Iscas85::C6288, 7).unwrap();
    let mut rng = SmallRng::seed_from_u64(6288);
    let width = c.num_inputs();
    for model in [DelayModel::Unit, DelayModel::fanout_default()] {
        let sim = PowerSimulator::new(&c, model, PowerConfig::default());
        for last in [1usize, 63, 65, 127] {
            let pairs: Vec<(Vec<bool>, Vec<bool>)> = (0..last)
                .map(|_| {
                    (
                        random_vector(&mut rng, width),
                        random_vector(&mut rng, width),
                    )
                })
                .collect();
            assert_packed_match_scalar(&sim, &pairs, &format!("C6288, {model}, {last} pairs"));
        }
    }
}

/// Simulates `pairs` through both packed widths and checks every report
/// against the scalar kernel's, bit for bit.
fn assert_packed_match_scalar(
    sim: &PowerSimulator<'_>,
    pairs: &[(Vec<bool>, Vec<bool>)],
    case: &str,
) {
    let packed64: PackedSimulator<u64> = PackedSimulator::new(sim);
    let packed128: PackedSimulator<u128> = PackedSimulator::new(sim);
    let mut reports64 = Vec::new();
    packed64.cycle_reports_batch(pairs, &mut reports64).unwrap();
    let mut reports128: Vec<CycleReport> = Vec::new();
    packed128
        .cycle_reports_batch(pairs, &mut reports128)
        .unwrap();
    assert_eq!(reports64.len(), pairs.len());
    assert_eq!(reports128.len(), pairs.len());
    for (i, (v1, v2)) in pairs.iter().enumerate() {
        let want = sim.cycle_report(v1, v2).unwrap();
        for got in [&reports64[i], &reports128[i]] {
            // Full report equality: toggles, events and settle_time
            // must match the scalar event kernel exactly.
            assert_eq!(got, &want, "pair {i} under {case}");
            assert_eq!(
                got.switched_cap_ff.to_bits(),
                want.switched_cap_ff.to_bits(),
                "cap {} vs {} under {case}",
                got.switched_cap_ff,
                want.switched_cap_ff
            );
            assert_eq!(
                got.power_mw.to_bits(),
                want.power_mw.to_bits(),
                "power {} vs {} under {case}",
                got.power_mw,
                want.power_mw
            );
        }
    }
}

/// A random capacitance model of one of the three kinds the packed
/// kernels tell apart, with its name:
///
/// * whole numbers of fF, summed exactly per capacitance class;
/// * fractional fF, added lane by lane in the scalar order;
/// * whole numbers near 2⁵¹ fF, so that a few toggles already sum past
///   2⁵³ and the scalar f64 sum rounds in an order-dependent way: only
///   the lane walk reproduces it, and the exact bound must pick it.
fn random_cap_model(rng: &mut SmallRng) -> (CapacitanceModel, &'static str) {
    match rng.gen_range(0..3) {
        0 => {
            let mut whole = || f64::from(rng.gen_range(0u32..200));
            let model = CapacitanceModel {
                unit_gate_cap: whole(),
                per_fanin_cap: whole(),
                per_fanout_cap: whole(),
                output_pin_cap: whole(),
            };
            (model, "whole")
        }
        1 => {
            let mut fraction = || [0.1, 0.3, 2.7, 5.0][rng.gen_range(0..4)];
            let model = CapacitanceModel {
                unit_gate_cap: fraction(),
                per_fanin_cap: fraction(),
                per_fanout_cap: fraction(),
                output_pin_cap: fraction(),
            };
            (model, "fractional")
        }
        _ => {
            let big = (1u64 << 51) as f64;
            let model = CapacitanceModel {
                unit_gate_cap: big + f64::from(2 * rng.gen_range(0u32..1000) + 1),
                per_fanin_cap: f64::from(2 * rng.gen_range(0u32..1000) + 1),
                per_fanout_cap: f64::from(rng.gen_range(0u32..1000)),
                output_pin_cap: f64::from(rng.gen_range(0u32..1000)),
            };
            (model, "past 2^53")
        }
    }
}

/// The packed kernels stay bit-identical to the scalar kernel under a
/// caller's capacitance model, on either summation path: the class
/// counter for whole-number tables within the exact bound, the lane walk
/// for fractional tables and for whole-number tables whose sums can pass
/// 2⁵³. Random DAGs, every delay model, and batches with partial words.
#[test]
fn packed_kernels_match_scalar_under_custom_capacitance() {
    check(48, |rng| {
        let seed = rng.gen_range(0u64..120);
        let vec_seed = rng.gen_range(0u64..500);
        let batch = rng.gen_range(1usize..150);
        let model = match rng.gen_range(0usize..4) {
            0 => DelayModel::Zero,
            1 => DelayModel::Unit,
            2 => DelayModel::fanout_default(),
            _ => DelayModel::FanoutProportional {
                base: rng.gen_range(1u32..4),
                per_fanout: rng.gen_range(0u32..3),
            },
        };
        let (cap_model, cap_kind) = random_cap_model(rng);
        let c = random_dag("cap", 9, 3, 50, 9, seed).unwrap();
        let sim = PowerSimulator::with_capacitance(&c, model, PowerConfig::default(), &cap_model);
        let mut rng = SmallRng::seed_from_u64(vec_seed);
        let pairs: Vec<(Vec<bool>, Vec<bool>)> = (0..batch)
            .map(|_| (random_vector(&mut rng, 9), random_vector(&mut rng, 9)))
            .collect();
        assert_packed_match_scalar(&sim, &pairs, &format!("{model}, {cap_kind} caps"));
    });
}

/// Voltage/frequency scaling acts exactly quadratically/linearly.
#[test]
fn electrical_scaling() {
    check(48, |rng| {
        let seed = rng.gen_range(0u64..100);
        let vdd = rng.gen_range(0.5f64..5.0);
        let f = rng.gen_range(1.0e6f64..1.0e9);
        let c = random_dag("e", 6, 2, 25, 5, seed).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let v1 = random_vector(&mut rng, 6);
        let v2 = random_vector(&mut rng, 6);
        let base = PowerSimulator::new(
            &c,
            DelayModel::Unit,
            PowerConfig {
                vdd: 1.0,
                clock_hz: 1.0e6,
            },
        );
        let scaled = PowerSimulator::new(&c, DelayModel::Unit, PowerConfig { vdd, clock_hz: f });
        let p0 = base.cycle_power(&v1, &v2).unwrap();
        let p1 = scaled.cycle_power(&v1, &v2).unwrap();
        let expect = p0 * vdd * vdd * (f / 1.0e6);
        assert!(
            (p1 - expect).abs() < 1e-9 * expect.max(1.0),
            "{p1} vs {expect}"
        );
    });
}
