//! Determinism acceptance suite for the parallel execution engine: the
//! same `(config, seed)` must produce byte-identical estimates, checkpoint
//! sequences and history for **every** worker count, and a run interrupted
//! mid-parallel must resume to the identical result under a different
//! worker count.

use std::num::NonZeroUsize;

use maxpower::telemetry::{names, Telemetry};
use maxpower::{
    Checkpoint, EstimationConfig, EstimatorBuilder, FaultConfig, FaultInjectingSource, FnSource,
    RunOptions, SamplePolicy, SimulatorSource,
};
use mpe_netlist::{generate, Iscas85};
use mpe_sim::{DelayModel, KernelMode, PowerConfig};
use mpe_vectors::PairGenerator;
use rand::{Rng, RngCore};

fn weibull_source() -> FnSource<impl FnMut(&mut dyn RngCore) -> f64 + Clone + Send> {
    FnSource::new(|rng: &mut dyn RngCore| {
        let u: f64 = rng.gen_range(1e-12..1.0f64);
        10.0 - (-u.ln()).powf(1.0 / 3.0)
    })
}

fn workers(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("non-zero worker count")
}

/// The acceptance criterion verbatim: workers 1, 2 and 8 produce
/// byte-identical estimates (every field, compared through `Debug`, which
/// formats the full history and health records).
#[test]
fn worker_counts_1_2_8_are_bit_identical() {
    let session = EstimatorBuilder::new(EstimationConfig::default()).build();
    let source = weibull_source();
    let reference = format!(
        "{:?}",
        session
            .run(&source, RunOptions::default().seeded(42))
            .expect("sequential run converges")
    );
    for n in [2usize, 8] {
        let parallel = format!(
            "{:?}",
            session
                .run(
                    &source,
                    RunOptions::default().seeded(42).workers(workers(n)),
                )
                .expect("parallel run converges")
        );
        assert_eq!(reference, parallel, "workers {n} diverged from workers 1");
    }
}

/// The same on a real gate-level simulation source: the paper's deployment
/// flow parallelized must not change a single bit of the answer.
#[test]
fn circuit_run_is_bit_identical_across_worker_counts() {
    let circuit = generate(Iscas85::C432, 7).expect("circuit generates");
    let source = SimulatorSource::new(
        &circuit,
        PairGenerator::Uniform,
        DelayModel::Zero,
        PowerConfig::default(),
    );
    let config = EstimationConfig {
        relative_error: 0.10,
        min_reading_mw: 0.0,
        ..EstimationConfig::default()
    };
    let session = EstimatorBuilder::new(config).build();
    let sequential = session
        .run(&source, RunOptions::default().seeded(11))
        .expect("sequential run converges");
    let parallel = session
        .run(
            &source,
            RunOptions::default().seeded(11).workers(workers(4)),
        )
        .expect("parallel run converges");
    assert_eq!(format!("{sequential:?}"), format!("{parallel:?}"));
}

/// The checkpoint *sequence* — not just the final estimate — is identical
/// under parallel execution: speculative hyper-samples beyond the stopping
/// point are discarded, never committed, never checkpointed.
#[test]
fn checkpoint_sequence_is_identical_across_worker_counts() {
    let session = EstimatorBuilder::new(EstimationConfig::default()).build();
    let source = weibull_source();
    let record = |n: usize| {
        let mut cps: Vec<Checkpoint> = Vec::new();
        let mut save = |cp: &Checkpoint| cps.push(cp.clone());
        session
            .run(
                &source,
                RunOptions::default()
                    .seeded(7)
                    .workers(workers(n))
                    .save_with(&mut save),
            )
            .expect("run converges");
        cps
    };
    let sequential = record(1);
    let parallel = record(4);
    assert!(!sequential.is_empty());
    assert_eq!(sequential, parallel, "checkpoint sequences diverged");
}

/// A run killed mid-parallel and resumed under a *different* worker count
/// still lands on the uninterrupted run's exact result: the checkpoint
/// carries no execution-shape state, only committed statistics.
#[test]
fn mid_parallel_checkpoint_resumes_under_different_worker_count() {
    let session = EstimatorBuilder::new(EstimationConfig::default()).build();
    let source = weibull_source();

    let mut cps: Vec<Checkpoint> = Vec::new();
    let mut save = |cp: &Checkpoint| cps.push(cp.clone());
    let full = session
        .run(
            &source,
            RunOptions::default()
                .seeded(21)
                .workers(workers(4))
                .save_with(&mut save),
        )
        .expect("parallel reference run converges");
    assert!(cps.len() >= 2, "need a mid-run checkpoint to resume from");
    let mid = &cps[cps.len() / 2];

    for n in [1usize, 2, 8] {
        let resumed = session
            .run(
                &source,
                RunOptions::default()
                    .seeded(21)
                    .workers(workers(n))
                    .resume(mid),
            )
            .expect("resumed run converges");
        assert_eq!(
            format!("{full:?}"),
            format!("{resumed:?}"),
            "resume under {n} workers diverged"
        );
    }
}

/// The two session entry points — the factory path and the caller-owned
/// `&mut` source path — share the derived-RNG schedule: migrating a
/// caller between them cannot change its numbers.
#[test]
fn run_source_matches_factory_run() {
    let config = EstimationConfig::default();
    let session = EstimatorBuilder::new(config).build();
    let mut source = weibull_source();
    let by_ref = session
        .run_source(&mut source, RunOptions::default().seeded(5))
        .expect("run_source converges");
    let by_factory = session
        .run(&weibull_source(), RunOptions::default().seeded(5))
        .expect("session run converges");
    assert_eq!(format!("{by_ref:?}"), format!("{by_factory:?}"));
}

/// Fault injection composes with parallelism: the injector reseeds its
/// fault stream per hyper-sample index, so the fault schedule — and with
/// it the estimate and health ledger — is identical for any worker count.
#[test]
fn fault_injected_parallel_run_is_deterministic() {
    let faults = FaultConfig {
        seed: 13,
        error_rate: 0.05,
        nan_rate: 0.01,
        ..FaultConfig::default()
    };
    let factory = FaultInjectingSource::new(weibull_source(), faults).expect("valid fault mix");
    let config = EstimationConfig {
        sample_policy: SamplePolicy::Skip {
            max_discarded: 10_000,
        },
        ..EstimationConfig::default()
    };
    let session = EstimatorBuilder::new(config).build();
    let sequential = session
        .run(&factory, RunOptions::default().seeded(3))
        .expect("sequential faulted run converges");
    let parallel = session
        .run(
            &factory,
            RunOptions::default().seeded(3).workers(workers(3)),
        )
        .expect("parallel faulted run converges");
    assert_eq!(format!("{sequential:?}"), format!("{parallel:?}"));
    assert!(
        sequential.health.source_errors > 0 || sequential.health.samples_discarded > 0,
        "fault mix never fired — the test is vacuous"
    );
}

/// Kernel selection is pure provenance: the bit-parallel packed kernels
/// (both lane widths) and the scalar kernel produce byte-identical
/// estimates, health ledgers *and checkpoint sequences* for workers 1, 2
/// and 8 — under the zero-delay fast path *and* the glitch-accurate
/// timing path. A kernel switch can change cost, never a committed bit.
#[test]
fn packed_and_scalar_kernels_are_bit_identical_across_worker_counts() {
    let circuit = generate(Iscas85::C432, 7).expect("circuit generates");
    let config = EstimationConfig {
        relative_error: 0.10,
        min_reading_mw: 0.0,
        ..EstimationConfig::default()
    };
    let session = EstimatorBuilder::new(config).build();
    let run = |kernel: KernelMode, n: usize, delay: DelayModel| {
        let source = SimulatorSource::new(
            &circuit,
            PairGenerator::Uniform,
            delay,
            PowerConfig::default(),
        )
        .with_kernel(kernel);
        let mut cps: Vec<Checkpoint> = Vec::new();
        let mut save = |cp: &Checkpoint| cps.push(cp.clone());
        let est = session
            .run(
                &source,
                RunOptions::default()
                    .seeded(11)
                    .workers(workers(n))
                    .save_with(&mut save),
            )
            .expect("run converges");
        (format!("{est:?}"), cps)
    };
    for delay in [DelayModel::Zero, DelayModel::Unit] {
        let (reference, reference_cps) = run(KernelMode::Scalar, 1, delay);
        assert!(!reference_cps.is_empty());
        for n in [1usize, 2, 8] {
            for kernel in [
                KernelMode::Scalar,
                KernelMode::Packed,
                KernelMode::Packed128,
            ] {
                let (est, cps) = run(kernel, n, delay);
                assert_eq!(
                    reference, est,
                    "{kernel} kernel, {n} workers diverged under {delay}"
                );
                assert_eq!(
                    reference_cps, cps,
                    "{kernel} kernel, {n} workers: checkpoint sequence diverged under {delay}"
                );
            }
        }
    }
}

/// Fault injection composes with kernel selection: the injector makes its
/// fault decision per draw, which forces the per-draw sampling path, and
/// the inner kernel's readings are bit-identical either way — so faulted
/// runs match across kernels and worker counts, health ledger included.
#[test]
fn fault_injected_runs_match_across_kernels() {
    let circuit = generate(Iscas85::C432, 7).expect("circuit generates");
    let faults = FaultConfig {
        seed: 13,
        error_rate: 0.05,
        nan_rate: 0.01,
        ..FaultConfig::default()
    };
    let config = EstimationConfig {
        relative_error: 0.10,
        min_reading_mw: 0.0,
        sample_policy: SamplePolicy::Skip {
            max_discarded: 10_000,
        },
        ..EstimationConfig::default()
    };
    let session = EstimatorBuilder::new(config).build();
    let run = |kernel: KernelMode, n: usize| {
        let inner = SimulatorSource::new(
            &circuit,
            PairGenerator::Uniform,
            DelayModel::Zero,
            PowerConfig::default(),
        )
        .with_kernel(kernel);
        let factory = FaultInjectingSource::new(inner, faults).expect("valid fault mix");
        format!(
            "{:?}",
            session
                .run(
                    &factory,
                    RunOptions::default().seeded(3).workers(workers(n)),
                )
                .expect("faulted run converges")
        )
    };
    let reference = run(KernelMode::Scalar, 1);
    for n in [1usize, 2, 8] {
        for kernel in [KernelMode::Packed, KernelMode::Packed128] {
            assert_eq!(
                reference,
                run(kernel, n),
                "{kernel} kernel, {n} workers diverged under fault injection"
            );
        }
    }
}

/// Parallel runs attribute their work to per-worker telemetry lanes; the
/// committed accounting stays identical while the per-worker counters sum
/// to at least the committed hyper-samples (speculative work included).
#[test]
fn parallel_telemetry_attributes_work_to_worker_lanes() {
    let telemetry = Telemetry::enabled();
    let session = EstimatorBuilder::new(EstimationConfig::default())
        .telemetry(telemetry.clone())
        .build();
    let est = session
        .run(
            &weibull_source(),
            RunOptions::default().seeded(9).workers(workers(3)),
        )
        .expect("parallel run converges");
    telemetry.flush();
    let snap = telemetry.snapshot();
    let per_worker: u64 = (0..3)
        .map(|w| snap.counter(&names::worker_hyper_samples(w)))
        .sum();
    assert!(
        per_worker >= est.hyper_samples as u64,
        "workers generated {per_worker} hyper-samples, committed {}",
        est.hyper_samples
    );
    // Committed accounting is execution-independent even with telemetry on.
    assert_eq!(snap.counter(names::HYPER_SAMPLES), est.hyper_samples as u64);
}

/// Everything above compares runs *within one build*, so a change to the
/// pair streams that every kernel and worker count shared would pass it.
/// These constants pin three simulator-driven estimates across commits:
/// `(estimate bits, units used, hyper-samples)` at ε = 0.15, seed 42. A
/// change that moves them on purpose regenerates them and says so.
#[test]
fn simulator_estimates_match_pinned_bits() {
    let config = EstimationConfig {
        relative_error: 0.15,
        ..EstimationConfig::default()
    };
    let session = EstimatorBuilder::new(config).build();
    let c432 = generate(Iscas85::C432, 7).expect("circuit generates");
    let c880 = generate(Iscas85::C880, 7).expect("circuit generates");
    let zero_uniform = SimulatorSource::new(
        &c432,
        PairGenerator::Uniform,
        DelayModel::Zero,
        PowerConfig::default(),
    );
    let unit_activity = SimulatorSource::new(
        &c880,
        PairGenerator::Activity { activity: 0.3 },
        DelayModel::Unit,
        PowerConfig::default(),
    );
    // `Auto` resolves to the lane widths these pins were taken with, so
    // the lane-batched prefetch path runs in both.
    assert_eq!(zero_uniform.kernel(), KernelMode::Packed);
    assert_eq!(unit_activity.kernel(), KernelMode::Packed128);
    let delay = SimulatorSource::settle_time(&c432, PairGenerator::Uniform, DelayModel::Unit);
    // The delay pin was taken on the scalar kernel; `Auto` runs it on
    // 128-lane words with prefetch, dither included.
    assert_eq!(delay.kernel(), KernelMode::Packed128);
    let options = || RunOptions::default().seeded(42);
    let runs = [
        ("C432 zero uniform", session.run(&zero_uniform, options())),
        (
            "C880 unit activity 0.3",
            session.run(&unit_activity, options()),
        ),
        ("C432 unit delay", session.run(&delay, options())),
    ];
    let got: Vec<(&str, u64, usize, usize)> = runs
        .into_iter()
        .map(|(name, est)| {
            let est = est.unwrap_or_else(|e| panic!("{name}: {e}"));
            (
                name,
                est.estimate_mw.to_bits(),
                est.units_used,
                est.hyper_samples,
            )
        })
        .collect();
    let pinned: [(&str, u64, usize, usize); 3] = [
        ("C432 zero uniform", 0x3fdc_cc3d_3f97_a99b, 600, 2),
        ("C880 unit activity 0.3", 0x3ff1_7b7f_b195_6608, 600, 2),
        ("C432 unit delay", 0x4031_d890_6137_0a70, 600, 2),
    ];
    assert_eq!(got, pinned, "pinned simulator estimates: {got:#x?}");
}

/// The settle-time reading is as kernel-blind as power: each reading draws
/// its pair and then its dither from one stream, on the scalar path, in a
/// packed sweep, in prefetch and in a banked re-draw alike. So every
/// kernel and worker count gives the same estimate bits, units and
/// hyper-sample count. Eight hyper-samples make the prefetch bank some of
/// a later hyper-sample's readings but not all, so its fresh draws follow
/// banked re-draws on the caller's stream.
#[test]
fn settle_time_estimates_match_across_kernels_and_workers() {
    let config = EstimationConfig {
        relative_error: 0.15,
        min_hyper_samples: 8,
        ..EstimationConfig::default()
    };
    let session = EstimatorBuilder::new(config).build();
    let c432 = generate(Iscas85::C432, 7).expect("circuit generates");
    let c880 = generate(Iscas85::C880, 7).expect("circuit generates");
    let cases = [
        (&c432, PairGenerator::Uniform, DelayModel::Unit),
        (
            &c880,
            PairGenerator::Activity { activity: 0.3 },
            DelayModel::fanout_default(),
        ),
    ];
    for (circuit, generator, delay) in cases {
        let run = |kernel: KernelMode, n: usize| {
            let source =
                SimulatorSource::settle_time(circuit, generator.clone(), delay).with_kernel(kernel);
            let est = session
                .run(
                    &source,
                    RunOptions::default().seeded(42).workers(workers(n)),
                )
                .unwrap_or_else(|e| panic!("{} {delay}: {e}", circuit.name()));
            (est.estimate_mw.to_bits(), est.units_used, est.hyper_samples)
        };
        let reference = run(KernelMode::Scalar, 1);
        for n in [1usize, 4] {
            for kernel in [
                KernelMode::Scalar,
                KernelMode::Packed,
                KernelMode::Packed128,
            ] {
                assert_eq!(
                    reference,
                    run(kernel, n),
                    "{} {delay}: {kernel} kernel, {n} workers diverged",
                    circuit.name()
                );
            }
        }
    }
}
