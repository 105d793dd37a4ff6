//! Resilience tests: the estimation engine against hostile power sources —
//! injected transient errors, NaN/∞/negative readings, dead sources — and
//! the checkpoint/resume contract under interruption.

use maxpower::{
    Checkpoint, EstimationConfig, EstimatorBuilder, EstimatorKind, FaultConfig,
    FaultInjectingSource, FnSource, MaxPowerError, PowerSource, RunOptions, RunStatus,
    SamplePolicy, SimulatorSource,
};
use mpe_netlist::{generate, Iscas85};
use mpe_sim::{DelayModel, PowerConfig};
use mpe_vectors::PairGenerator;
use rand::{Rng, RngCore};

fn weibull_source(alpha: f64, beta: f64, mu: f64) -> impl FnMut(&mut dyn RngCore) -> f64 {
    move |rng: &mut dyn RngCore| {
        let r = rng;
        let u: f64 = r.gen_range(1e-12..1.0f64);
        mu - (-u.ln() / beta).powf(1.0 / alpha)
    }
}

/// The headline integration scenario: a real gate-level simulation source
/// wrapped in a fault injector (10 % transient errors, 1 % NaN readings),
/// estimated under the Skip policy. The run must converge cleanly, and the
/// engine's health record must account for every injected fault, cross-
/// checked against the injector's own ground-truth ledger.
#[test]
fn fault_injected_circuit_run_converges_with_exact_accounting() {
    let circuit = generate(Iscas85::C432, 7).expect("circuit generates");
    let inner = SimulatorSource::new(
        &circuit,
        PairGenerator::Uniform,
        DelayModel::Zero,
        PowerConfig::default(),
    );
    let faults = FaultConfig {
        seed: 99,
        error_rate: 0.10,
        nan_rate: 0.01,
        ..FaultConfig::default()
    };
    let mut source = FaultInjectingSource::new(inner, faults).expect("valid fault mix");

    let config = EstimationConfig {
        relative_error: 0.10,
        sample_policy: SamplePolicy::Skip {
            max_discarded: 10_000,
        },
        min_reading_mw: 0.0,
        ..EstimationConfig::default()
    };
    let r = EstimatorBuilder::new(config)
        .build()
        .run_source(&mut source, RunOptions::default().seeded(5))
        .expect("run survives the fault mix");

    // Despite ~11% of calls being faulted, the run converges without
    // touching the fallback ladder.
    assert_eq!(r.status, RunStatus::Converged);
    assert!(r.relative_error <= 0.10);
    assert!(r.estimate_mw > 0.0 && r.estimate_mw.is_finite());
    assert!(r
        .fit_diagnostics
        .iter()
        .all(|d| d.rung == EstimatorKind::Mle));

    // Exact units accounting: every Ok reading costs one unit (including
    // the NaNs the Skip policy discards); errored calls cost nothing.
    let attempts = r.hyper_samples + r.health.mle_retries;
    assert_eq!(
        r.units_used,
        300 * attempts + r.health.samples_discarded,
        "units must count valid + discarded readings exactly"
    );

    // Cross-check against the injector's ground-truth ledger: the engine
    // saw (and survived) every fault the wrapper injected.
    let stats = *source.stats();
    assert!(stats.errors > 0, "error faults never fired");
    assert!(stats.nans > 0, "nan faults never fired");
    assert_eq!(r.health.source_errors, stats.errors + stats.stalls);
    assert_eq!(r.health.samples_discarded, stats.nans);
    assert_eq!(stats.infs + stats.negatives + stats.corruptions, 0);
    assert_eq!(r.units_used, stats.clean + stats.nans);
}

/// The same estimate with and without fault injection should agree: the
/// Skip policy replaces faulted draws with fresh i.i.d. ones, so faults
/// cost units but not accuracy.
#[test]
fn fault_injection_does_not_bias_the_estimate() {
    let run = |faulted: bool| {
        let inner = FnSource::new(weibull_source(3.0, 1.0, 10.0));
        let faults = FaultConfig {
            seed: 13,
            error_rate: if faulted { 0.10 } else { 0.0 },
            nan_rate: if faulted { 0.02 } else { 0.0 },
            ..FaultConfig::default()
        };
        let mut source = FaultInjectingSource::new(inner, faults).unwrap();
        let config = EstimationConfig {
            sample_policy: SamplePolicy::Skip {
                max_discarded: 10_000,
            },
            ..EstimationConfig::default()
        };
        EstimatorBuilder::new(config)
            .build()
            .run_source(&mut source, RunOptions::default().seeded(21))
            .unwrap()
    };
    let clean = run(false);
    let faulted = run(true);
    assert_eq!(clean.status, RunStatus::Converged);
    assert_eq!(faulted.status, RunStatus::Converged);
    // Both land near the true endpoint 10; fault injection shifts the RNG
    // stream so the estimates differ, but not the truth they target.
    assert!((clean.estimate_mw - 10.0).abs() / 10.0 < 0.10);
    assert!((faulted.estimate_mw - 10.0).abs() / 10.0 < 0.10);
}

#[test]
fn nan_source_fails_fast_under_default_policy() {
    let mut calls = 0usize;
    let mut source = FnSource::new(move |rng: &mut dyn RngCore| {
        calls += 1;
        if calls == 50 {
            f64::NAN
        } else {
            let r = rng;
            5.0 + r.gen::<f64>()
        }
    });
    let session = EstimatorBuilder::new(EstimationConfig::default()).build();
    match session.run_source(&mut source, RunOptions::default().seeded(1)) {
        Err(MaxPowerError::InvalidReading { value_mw }) => assert!(value_mw.is_nan()),
        other => panic!("expected InvalidReading, got {other:?}"),
    }
}

#[test]
fn infinite_reading_fails_fast_under_default_policy() {
    let mut calls = 0usize;
    let mut source = FnSource::new(move |rng: &mut dyn RngCore| {
        calls += 1;
        if calls == 50 {
            f64::INFINITY
        } else {
            let r = rng;
            5.0 + r.gen::<f64>()
        }
    });
    let session = EstimatorBuilder::new(EstimationConfig::default()).build();
    match session.run_source(&mut source, RunOptions::default().seeded(2)) {
        Err(MaxPowerError::InvalidReading { value_mw }) => {
            assert_eq!(value_mw, f64::INFINITY)
        }
        other => panic!("expected InvalidReading, got {other:?}"),
    }
}

/// Negative readings are only invalid below the configured floor: the
/// default `-∞` floor accepts them (the estimator is shift-equivariant),
/// while a physical deployment's `0.0` floor rejects them.
#[test]
fn negative_readings_gated_by_min_reading_floor() {
    // A parent shifted fully negative: endpoint −5, every draw < 0.
    let make = || FnSource::new(weibull_source(3.0, 1.0, -5.0));

    let mut source = make();
    let session = EstimatorBuilder::new(EstimationConfig::default()).build();
    let r = session
        .run_source(&mut source, RunOptions::default().seeded(3))
        .expect("negatives valid by default");
    assert!(r.status.met_target());
    assert!((r.estimate_mw - (-5.0)).abs() < 0.5, "{}", r.estimate_mw);

    let mut source = make();
    let config = EstimationConfig {
        min_reading_mw: 0.0,
        ..EstimationConfig::default()
    };
    let session = EstimatorBuilder::new(config).build();
    match session.run_source(&mut source, RunOptions::default().seeded(3)) {
        Err(MaxPowerError::InvalidReading { value_mw }) => assert!(value_mw < 0.0),
        other => panic!("expected InvalidReading, got {other:?}"),
    }
}

#[test]
fn intermittent_errors_survive_retry_policy() {
    let inner = FnSource::new(weibull_source(3.0, 1.0, 10.0));
    let faults = FaultConfig {
        seed: 4,
        error_rate: 0.20,
        ..FaultConfig::default()
    };
    let mut source = FaultInjectingSource::new(inner, faults).unwrap();
    let config = EstimationConfig {
        sample_policy: SamplePolicy::Retry { max_attempts: 10 },
        ..EstimationConfig::default()
    };
    let r = EstimatorBuilder::new(config)
        .build()
        .run_source(&mut source, RunOptions::default().seeded(4))
        .expect("retry policy rides out a 20% error rate");
    assert_eq!(r.status, RunStatus::Converged);
    assert!(r.health.source_errors > 0);
    assert!(r.health.sample_retries >= r.health.source_errors);
    // Errored calls consume no units: only valid readings are charged.
    let attempts = r.hyper_samples + r.health.mle_retries;
    assert_eq!(r.units_used, 300 * attempts + r.health.samples_discarded);
    assert_eq!(r.health.source_errors, source.stats().errors);
}

#[test]
fn dead_source_exhausts_retry_policy_with_its_own_error() {
    let inner = FnSource::new(|_: &mut dyn RngCore| 5.0);
    let faults = FaultConfig {
        seed: 5,
        error_rate: 1.0, // the source never answers
        ..FaultConfig::default()
    };
    let mut source = FaultInjectingSource::new(inner, faults).unwrap();
    let config = EstimationConfig {
        sample_policy: SamplePolicy::Retry { max_attempts: 3 },
        ..EstimationConfig::default()
    };
    let session = EstimatorBuilder::new(config).build();
    // The propagated error is the source's own, not a policy wrapper.
    match session.run_source(&mut source, RunOptions::default().seeded(5)) {
        Err(MaxPowerError::Source { message }) => {
            assert!(message.contains("injected"), "{message}")
        }
        other => panic!("expected Source error, got {other:?}"),
    }
}

#[test]
fn garbage_source_exhausts_skip_policy_cap() {
    let mut source = FnSource::new(|_: &mut dyn RngCore| f64::NAN);
    let config = EstimationConfig {
        sample_policy: SamplePolicy::Skip { max_discarded: 50 },
        ..EstimationConfig::default()
    };
    let session = EstimatorBuilder::new(config).build();
    match session.run_source(&mut source, RunOptions::default().seeded(6)) {
        Err(MaxPowerError::SamplePolicyExhausted {
            policy,
            count,
            limit,
        }) => {
            assert_eq!(policy, "skip");
            assert_eq!(limit, 50);
            assert_eq!(count, 51);
        }
        other => panic!("expected SamplePolicyExhausted, got {other:?}"),
    }
}

/// A run killed after any number of hyper-samples and resumed from its
/// last checkpoint must produce results bit-identical to the run that was
/// never interrupted — on a real gate-level simulation source.
#[test]
fn killed_and_resumed_circuit_run_matches_uninterrupted() {
    let circuit = generate(Iscas85::C432, 7).expect("circuit generates");
    let make_source = || {
        SimulatorSource::new(
            &circuit,
            PairGenerator::Uniform,
            DelayModel::Zero,
            PowerConfig::default(),
        )
    };
    let config = EstimationConfig {
        relative_error: 0.10,
        min_reading_mw: 0.0,
        ..EstimationConfig::default()
    };
    let session = EstimatorBuilder::new(config).build();

    // The uninterrupted reference run, recording every checkpoint.
    let mut checkpoints = Vec::new();
    let mut source = make_source();
    let mut record = |cp: &Checkpoint| checkpoints.push(cp.clone());
    let full = session
        .run_source(
            &mut source,
            RunOptions::default().seeded(42).save_with(&mut record),
        )
        .expect("reference run converges");
    assert!(full.hyper_samples >= 2);
    assert_eq!(checkpoints.len(), full.hyper_samples);

    // "Kill" the run after the first hyper-sample and resume: the tail of
    // the run is regenerated from per-index derived RNG streams, so the
    // final estimate is bit-identical.
    let cp = &checkpoints[0];
    let mut source = make_source();
    let resumed = session
        .run_source(&mut source, RunOptions::default().seeded(42).resume(cp))
        .expect("resumed run converges");
    assert_eq!(resumed.estimate_mw, full.estimate_mw);
    assert_eq!(resumed.confidence_interval, full.confidence_interval);
    assert_eq!(resumed.hyper_samples, full.hyper_samples);
    assert_eq!(resumed.units_used, full.units_used);
    assert_eq!(resumed.hyper_estimates, full.hyper_estimates);
    assert_eq!(resumed.status, full.status);
    // The resumed run only simulated the tail it was missing — plus, with
    // cross-hyper-sample lane batching, whatever spare-lane prefetch was
    // still banked (for hyper-samples beyond the stopping index) when the
    // run stopped. That speculation is bounded by the planning window:
    // lookahead plans × n×m readings each.
    let tail = full.units_used - checkpoints[0].units_used;
    let simulated = source.simulated() as usize;
    assert!(simulated >= tail, "resumed run under-simulated its tail");
    let config = EstimationConfig::default();
    let window = config.sample_size * config.samples_per_hyper;
    let lookahead = source.plan_lookahead(config.sample_size);
    assert!(
        simulated - tail <= lookahead * window,
        "speculative overshoot {} exceeds the planning window",
        simulated - tail
    );
}
