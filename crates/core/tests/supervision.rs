//! Supervision acceptance suite: cooperative cancellation, run budgets and
//! worker panic recovery must never change a single bit of the estimate.
//!
//! The load-bearing invariant throughout: hyper-sample `k` is a pure
//! function of `(config, master seed, k)`, so a run that is cancelled,
//! budget-capped or panic-requeued and then resumed/retried lands on
//! exactly the numbers the undisturbed run produces.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use maxpower::{
    CancelToken, Checkpoint, EstimationConfig, EstimatorBuilder, FnSource, MaxPowerError,
    PowerSource, RunBudget, RunOptions, RunStatus, Session, StopReason,
};
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

fn session() -> Session {
    EstimatorBuilder::new(EstimationConfig::default()).build()
}

/// A run cancelled after `trip_after` committed hyper-samples (for any
/// worker count) returns a valid `Interrupted` partial result whose final
/// checkpoint resumes to the uninterrupted run's exact bytes.
#[test]
fn cancelled_run_resumes_bit_identically() {
    // At least 5 hyper-samples, so the run is always long enough to cancel
    // after 2 and still have work left to resume.
    let session = EstimatorBuilder::new(EstimationConfig {
        min_hyper_samples: 5,
        ..EstimationConfig::default()
    })
    .build();
    let source = weibull_source();
    let full = session
        .run(&source, RunOptions::default().seeded(42))
        .expect("reference run converges");
    assert!(
        full.hyper_samples > 3,
        "need a run long enough to cancel mid-flight (got {})",
        full.hyper_samples
    );

    for n in [1usize, 3] {
        let token = CancelToken::new();
        let hook_token = token.clone();
        let trip_after = 2usize;
        let mut committed = 0usize;
        let mut last: Option<Checkpoint> = None;
        let mut save = |cp: &Checkpoint| {
            committed += 1;
            if committed >= trip_after {
                hook_token.cancel();
            }
            last = Some(cp.clone());
        };
        let partial = session
            .run(
                &source,
                RunOptions::default()
                    .seeded(42)
                    .workers(workers(n))
                    .cancel_token(token)
                    .save_with(&mut save),
            )
            .expect("cancellation with a committed prefix yields a partial estimate");
        assert!(
            matches!(
                partial.status,
                RunStatus::Interrupted {
                    reason: StopReason::Cancelled
                }
            ),
            "workers {n}: expected Interrupted(Cancelled), got {:?}",
            partial.status
        );
        // The supervisor is checked after every commit, so the stop lands
        // right after the commit that tripped the token, at any worker
        // count.
        assert_eq!(partial.hyper_samples, trip_after, "workers {n}");
        assert!(
            partial.hyper_samples < full.hyper_samples,
            "workers {n}: cancellation must land before the natural stop"
        );

        // The final checkpoint covers exactly the committed prefix…
        let cp = last.expect("a final checkpoint was saved");
        assert_eq!(cp.hyper_samples(), partial.hyper_samples);
        // …and resuming it (single- or multi-worker) replays the rest of
        // the uninterrupted run bit-for-bit.
        for resume_workers in [1usize, 2] {
            let resumed = session
                .run(
                    &source,
                    RunOptions::default()
                        .seeded(42)
                        .workers(workers(resume_workers))
                        .resume(&cp),
                )
                .expect("resumed run converges");
            assert_eq!(
                format!("{full:?}"),
                format!("{resumed:?}"),
                "cancel at k={} under {n} workers, resume under {resume_workers}: diverged",
                partial.hyper_samples
            );
        }
    }
}

/// The hyper-sample budget counts *this segment's* commits: a run stops at
/// exactly the budget for any worker count, and the resumed remainder
/// completes to the uninterrupted result.
#[test]
fn hyper_sample_budget_stops_and_resumes_exactly() {
    let session = session();
    let source = weibull_source();
    let full = session
        .run(&source, RunOptions::default().seeded(7))
        .expect("reference run converges");
    assert!(full.hyper_samples > 2);

    let mut last: Option<Checkpoint> = None;
    let mut save = |cp: &Checkpoint| last = Some(cp.clone());
    let partial = session
        .run(
            &source,
            RunOptions::default()
                .seeded(7)
                .budget(RunBudget::none().with_max_hyper_samples(2))
                .save_with(&mut save),
        )
        .expect("budgeted run yields a partial estimate");
    assert_eq!(partial.hyper_samples, 2, "one-worker budget is exact");
    assert!(matches!(
        partial.status,
        RunStatus::Interrupted {
            reason: StopReason::HyperSampleBudget
        }
    ));

    let cp = last.expect("checkpoint saved at the budget boundary");
    let resumed = session
        .run(&source, RunOptions::default().seeded(7).resume(&cp))
        .expect("resumed run converges");
    assert_eq!(format!("{full:?}"), format!("{resumed:?}"));

    // Parallel: buffered hyper-samples past the budget are never
    // committed, so the stop is just as exact.
    let mut last: Option<Checkpoint> = None;
    let mut save = |cp: &Checkpoint| last = Some(cp.clone());
    let partial = session
        .run(
            &source,
            RunOptions::default()
                .seeded(7)
                .workers(workers(3))
                .budget(RunBudget::none().with_max_hyper_samples(2))
                .save_with(&mut save),
        )
        .expect("budgeted parallel run yields a partial estimate");
    assert_eq!(partial.hyper_samples, 2, "parallel budget is exact");
    assert!(matches!(
        partial.status,
        RunStatus::Interrupted {
            reason: StopReason::HyperSampleBudget
        }
    ));
    let cp = last.expect("checkpoint saved");
    let resumed = session
        .run(&source, RunOptions::default().seeded(7).resume(&cp))
        .expect("resumed run converges");
    assert_eq!(format!("{full:?}"), format!("{resumed:?}"));
}

/// A deadline that has already expired interrupts before the first
/// hyper-sample: with fewer than two committed there is no valid partial
/// estimate, so the run surfaces the typed error instead.
#[test]
fn expired_deadline_interrupts_before_any_work() {
    let session = session();
    let result = session.run(
        &weibull_source(),
        RunOptions::default()
            .seeded(1)
            .budget(RunBudget::none().with_deadline(Duration::ZERO)),
    );
    match result {
        Err(MaxPowerError::Interrupted {
            reason: StopReason::DeadlineExceeded,
            hyper_samples,
        }) => assert_eq!(hyper_samples, 0),
        other => unreachable!("expected a deadline interruption, got {other:?}"),
    }
}

/// Wraps a source and panics exactly once, the first time hyper-sample
/// `target_k` is generated (on whichever worker picks it up). The shared
/// `fired` flag makes the requeued retry — and every clone — sail through.
#[derive(Clone)]
struct PanicOnce<S> {
    inner: S,
    target_k: u64,
    current_k: u64,
    fired: Arc<AtomicBool>,
}

impl<S> PanicOnce<S> {
    fn new(inner: S, target_k: u64) -> Self {
        PanicOnce {
            inner,
            target_k,
            current_k: u64::MAX,
            fired: Arc::new(AtomicBool::new(false)),
        }
    }
}

impl<S: PowerSource> PowerSource for PanicOnce<S> {
    fn sample(&mut self, rng: &mut dyn RngCore) -> Result<f64, MaxPowerError> {
        if self.current_k == self.target_k && !self.fired.swap(true, Ordering::SeqCst) {
            panic!("injected fault in hyper-sample {}", self.current_k);
        }
        self.inner.sample(rng)
    }

    fn begin_hyper_sample(&mut self, k: u64) {
        self.current_k = k;
        self.inner.begin_hyper_sample(k);
    }
}

/// Like [`PanicOnce`] but unconditional: every attempt at `target_k`
/// panics, modelling a deterministic bug that requeueing cannot outrun.
#[derive(Clone)]
struct PanicAlways<S> {
    inner: S,
    target_k: u64,
    current_k: u64,
}

impl<S: PowerSource> PowerSource for PanicAlways<S> {
    fn sample(&mut self, rng: &mut dyn RngCore) -> Result<f64, MaxPowerError> {
        if self.current_k == self.target_k {
            panic!("deterministic fault in hyper-sample {}", self.current_k);
        }
        self.inner.sample(rng)
    }

    fn begin_hyper_sample(&mut self, k: u64) {
        self.current_k = k;
        self.inner.begin_hyper_sample(k);
    }
}

/// The acceptance criterion verbatim: a worker panic mid-run is recovered
/// transparently — the estimate matches the panic-free run on every
/// statistical field, and the restart is recorded in `RunHealth`.
#[test]
fn worker_panic_is_recovered_bit_identically() {
    let session = session();
    let clean = session
        .run(
            &weibull_source(),
            RunOptions::default().seeded(13).workers(workers(3)),
        )
        .expect("panic-free run converges");

    let source = PanicOnce::new(weibull_source(), 1);
    let fired = source.fired.clone();
    let recovered = session
        .run(
            &source,
            RunOptions::default().seeded(13).workers(workers(3)),
        )
        .expect("panicking run recovers");

    assert!(fired.load(Ordering::SeqCst), "the injected panic fired");
    assert_eq!(clean.estimate_mw.to_bits(), recovered.estimate_mw.to_bits());
    assert_eq!(
        clean.observed_max_mw.to_bits(),
        recovered.observed_max_mw.to_bits()
    );
    assert_eq!(clean.hyper_samples, recovered.hyper_samples);
    assert_eq!(clean.units_used, recovered.units_used);
    assert_eq!(clean.hyper_estimates, recovered.hyper_estimates);
    assert_eq!(
        format!("{:?}", clean.history),
        format!("{:?}", recovered.history)
    );
    assert_eq!(clean.status, recovered.status);
    // The only permitted difference: the restart is on the record.
    assert_eq!(recovered.health.worker_restarts, 1);
    assert_eq!(clean.health.worker_restarts, 0);
}

/// A hyper-sample that panics on every attempt escalates to the typed
/// [`MaxPowerError::Panicked`] hard error instead of looping forever.
#[test]
fn deterministic_panic_escalates_to_hard_error() {
    let session = session();
    let source = PanicAlways {
        inner: weibull_source(),
        target_k: 1,
        current_k: u64::MAX,
    };
    let result = session.run(
        &source,
        RunOptions::default().seeded(13).workers(workers(4)),
    );
    match result {
        Err(MaxPowerError::Panicked { context, panics }) => {
            assert!(
                context.contains("hyper-sample 1"),
                "context names the poisoned index: {context}"
            );
            assert!(panics >= 2, "multiple requeue attempts recorded: {panics}");
        }
        other => unreachable!("expected escalation to Panicked, got {other:?}"),
    }
}

/// A panic during generation is caught at one worker too: with no worker
/// left to regenerate the index, the run ends with the typed error instead
/// of unwinding out of the session.
#[test]
fn single_worker_panic_is_a_typed_error() {
    let session = session();
    let mut source = PanicAlways {
        inner: weibull_source(),
        target_k: 1,
        current_k: u64::MAX,
    };
    let by_factory = session.run(&source, RunOptions::default().seeded(13));
    let by_ref = session.run_source(&mut source, RunOptions::default().seeded(13));
    for (path, result) in [("run", by_factory), ("run_source", by_ref)] {
        match result {
            Err(MaxPowerError::Panicked { context, panics }) => {
                assert!(
                    context.contains("hyper-sample 1"),
                    "{path}: context names the poisoned index: {context}"
                );
                assert_eq!(panics, 1, "{path}: the only worker retired");
            }
            other => unreachable!("{path}: expected Panicked, got {other:?}"),
        }
    }
}

/// Wraps a source and sleeps once at `target_k`, long enough for the
/// stall watchdog to notice.
#[derive(Clone)]
struct SlowOnce<S> {
    inner: S,
    target_k: u64,
    current_k: u64,
    slept: Arc<AtomicBool>,
}

impl<S: PowerSource> PowerSource for SlowOnce<S> {
    fn sample(&mut self, rng: &mut dyn RngCore) -> Result<f64, MaxPowerError> {
        if self.current_k == self.target_k && !self.slept.swap(true, Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(400));
        }
        self.inner.sample(rng)
    }

    fn begin_hyper_sample(&mut self, k: u64) {
        self.current_k = k;
        self.inner.begin_hyper_sample(k);
    }
}

/// The stall watchdog is observability only: a wedged worker is reported
/// in `RunHealth` but the estimate is byte-identical to the healthy run.
#[test]
fn stall_watchdog_reports_without_changing_the_estimate() {
    let session = session();
    let clean = session
        .run(
            &weibull_source(),
            RunOptions::default().seeded(29).workers(workers(2)),
        )
        .expect("reference run converges");

    let source = SlowOnce {
        inner: weibull_source(),
        target_k: 1,
        current_k: u64::MAX,
        slept: Arc::new(AtomicBool::new(false)),
    };
    let watched = session
        .run(
            &source,
            RunOptions::default()
                .seeded(29)
                .workers(workers(2))
                .budget(RunBudget::none().with_stall_timeout(Duration::from_millis(50))),
        )
        .expect("stalled run still converges");

    assert!(
        watched.health.worker_stalls >= 1,
        "the 400 ms sleep against a 50 ms heartbeat timeout must be flagged"
    );
    assert_eq!(clean.estimate_mw.to_bits(), watched.estimate_mw.to_bits());
    assert_eq!(clean.hyper_samples, watched.hyper_samples);
    assert_eq!(clean.units_used, watched.units_used);
}

/// Supervision plumbing that is wired but never triggered costs nothing:
/// same bytes as a run with no supervision at all.
#[test]
fn untriggered_supervision_is_bit_identical_to_none() {
    let session = session();
    let source = weibull_source();
    let plain = session
        .run(&source, RunOptions::default().seeded(5).workers(workers(2)))
        .expect("plain run converges");
    let supervised = session
        .run(
            &source,
            RunOptions::default()
                .seeded(5)
                .workers(workers(2))
                .cancel_token(CancelToken::new())
                .budget(
                    RunBudget::none()
                        .with_deadline(Duration::from_secs(3600))
                        .with_max_hyper_samples(1_000_000),
                ),
        )
        .expect("supervised run converges");
    assert_eq!(format!("{plain:?}"), format!("{supervised:?}"));
}
