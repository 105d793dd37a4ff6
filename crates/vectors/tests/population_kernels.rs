//! Property-based equivalence of the population simulation kernels: for
//! any circuit, population size (including partial final lane words) and
//! delay model, the packed 64- and 128-lane builds must be bit-identical
//! to the scalar build — same powers, same maximum, same qualified
//! fraction — under the default capacitance model and under a
//! fractional one.

use mpe_netlist::generator::random_dag;
use mpe_netlist::CapacitanceModel;
use mpe_sim::{simulate_population_kernel, DelayModel, KernelMode, PowerConfig};
use mpe_vectors::{PairGenerator, Population};
use rand::rngs::SmallRng;
use rand::{check, Rng, SeedableRng};

fn delay_models() -> [DelayModel; 4] {
    [
        DelayModel::Zero,
        DelayModel::Unit,
        DelayModel::fanout_default(),
        DelayModel::FanoutProportional {
            base: 1,
            per_fanout: 2,
        },
    ]
}

/// Packed population builds are bit-identical to scalar builds for
/// sizes that leave the final 64- and 128-lane word partially filled.
#[test]
fn packed_builds_match_scalar() {
    check(12, |rng| {
        let circuit_seed = rng.gen_range(0u64..50);
        let pop_seed = rng.gen_range(0u64..100);
        let size = rng.gen_range(1usize..150);
        let circuit = random_dag("pk", 8, 3, 40, 8, circuit_seed).unwrap();
        for delay in delay_models() {
            let build = |kernel: KernelMode| {
                Population::build_with_kernel(
                    &circuit,
                    &PairGenerator::Uniform,
                    size,
                    delay,
                    PowerConfig::default(),
                    pop_seed,
                    1,
                    kernel,
                )
                .unwrap()
            };
            let scalar = build(KernelMode::Scalar);
            for kernel in [KernelMode::Packed, KernelMode::Packed128] {
                let packed = build(kernel);
                assert_eq!(&scalar, &packed, "{:?} diverged under {:?}", kernel, delay);
                assert_eq!(scalar.powers().len(), size);
                assert!(scalar
                    .powers()
                    .iter()
                    .zip(packed.powers())
                    .all(|(s, p)| s.to_bits() == p.to_bits()));
                assert_eq!(
                    scalar.actual_max_power().to_bits(),
                    packed.actual_max_power().to_bits()
                );
                assert_eq!(
                    scalar.qualified_fraction(0.05).to_bits(),
                    packed.qualified_fraction(0.05).to_bits()
                );
            }
        }
    });
}

/// A fractional capacitance table sends the packed kernels down the
/// lane-by-lane sum instead of the whole-number class counts; the swept
/// powers must still equal the scalar sweep's bit for bit.
#[test]
fn packed_sweeps_match_scalar_under_fractional_capacitance() {
    let cap_model = CapacitanceModel {
        unit_gate_cap: 7.3,
        per_fanin_cap: 0.1,
        per_fanout_cap: 2.7,
        output_pin_cap: 19.9,
    };
    check(4, |rng| {
        let circuit_seed = rng.gen_range(0u64..50);
        let size = rng.gen_range(1usize..150);
        let circuit = random_dag("fc", 8, 3, 40, 8, circuit_seed).unwrap();
        let mut pair_rng = SmallRng::seed_from_u64(rng.gen_range(0u64..100));
        let pairs = PairGenerator::Uniform.generate_many(&mut pair_rng, circuit.num_inputs(), size);
        for delay in delay_models() {
            let sweep = |kernel: KernelMode| {
                simulate_population_kernel(
                    &circuit,
                    &pairs,
                    delay,
                    PowerConfig::default(),
                    &cap_model,
                    1,
                    kernel,
                )
                .unwrap()
            };
            let scalar = sweep(KernelMode::Scalar);
            for kernel in [KernelMode::Packed, KernelMode::Packed128] {
                let packed = sweep(kernel);
                assert_eq!(packed.len(), size);
                assert!(
                    scalar
                        .iter()
                        .zip(&packed)
                        .all(|(s, p)| s.to_bits() == p.to_bits()),
                    "{kernel} diverged under {delay:?}"
                );
            }
        }
    });
}
