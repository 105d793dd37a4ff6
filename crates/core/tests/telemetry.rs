//! Telemetry integration: the instrumented pipeline against the
//! acceptance contract — trace validity, exact unit accounting, monotone
//! convergence gauges, bit-identical estimates with telemetry on or off,
//! and cumulative metrics across checkpoint/resume.

use maxpower::telemetry::{
    diff_summaries, names, replay, JsonlSink, SharedBuffer, SpanKind, SubscriberSink, Telemetry,
};
use maxpower::{
    Checkpoint, EstimateReport, EstimationConfig, EstimatorBuilder, FnSource, RunOptions,
    RunStatus, SimulatorSource, TelemetrySummary,
};
use mpe_netlist::{generate, Iscas85};
use mpe_sim::{DelayModel, KernelMode, PowerConfig};
use mpe_vectors::PairGenerator;
use rand::{Rng, RngCore};

fn weibull_source(alpha: f64, beta: f64, mu: f64) -> impl FnMut(&mut dyn RngCore) -> f64 + Clone {
    move |rng: &mut dyn RngCore| {
        let u: f64 = rng.gen_range(1e-12..1.0f64);
        mu - (-u.ln() / beta).powf(1.0 / alpha)
    }
}

fn traced_run(seed: u64) -> (maxpower::MaxPowerEstimate, Telemetry, SharedBuffer) {
    let telemetry = Telemetry::enabled();
    let buf = SharedBuffer::new();
    telemetry.add_sink(Box::new(JsonlSink::new(buf.clone())));
    let source = FnSource::new(weibull_source(3.0, 1.0, 10.0));
    let session = EstimatorBuilder::new(EstimationConfig::default())
        .telemetry(telemetry.clone())
        .build();
    let estimate = session
        .run(&source, RunOptions::default().seeded(seed))
        .expect("run converges");
    telemetry.flush();
    (estimate, telemetry, buf)
}

/// The emitted JSONL trace must be schema-valid with correctly nested
/// spans, and its per-phase counts must match the estimate's own account
/// of the run.
#[test]
fn trace_is_schema_valid_with_correctly_nested_spans() {
    let (estimate, _telemetry, buf) = traced_run(42);
    assert_eq!(estimate.status, RunStatus::Converged);

    let text = buf.contents();
    let summary = replay(text.lines()).expect("trace must replay cleanly");
    assert!(summary.events > 0);
    // run > hyper_sample > simulate/fit.
    assert!(summary.max_depth >= 3, "depth {}", summary.max_depth);
    assert_eq!(summary.metrics.phase(SpanKind::Run).count, 1);
    assert_eq!(
        summary.metrics.phase(SpanKind::HyperSample).count,
        estimate.hyper_samples as u64
    );
    // One simulate + at least one fit span per hyper-sample attempt.
    let attempts = (estimate.hyper_samples + estimate.health.mle_retries) as u64;
    assert_eq!(summary.metrics.phase(SpanKind::Simulate).count, attempts);
    assert!(summary.metrics.phase(SpanKind::Fit).count >= estimate.hyper_samples as u64);
    // The trace and the in-memory registry agree event for event.
    let live = _telemetry.snapshot();
    assert_eq!(
        summary.metrics.counter(names::VECTOR_PAIRS_SIMULATED),
        live.counter(names::VECTOR_PAIRS_SIMULATED)
    );
}

/// Acceptance: the `vector_pairs_simulated` counter equals the
/// estimator's reported unit cost exactly — not approximately.
#[test]
fn vector_pairs_counter_equals_units_used_exactly() {
    for seed in [1u64, 7, 42, 1234] {
        let (estimate, telemetry, _buf) = traced_run(seed);
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter(names::VECTOR_PAIRS_SIMULATED),
            estimate.units_used as u64,
            "seed {seed}: counter must equal units_used"
        );
        assert_eq!(
            snap.counter(names::HYPER_SAMPLES),
            estimate.hyper_samples as u64
        );
    }
}

/// Acceptance: for a fixed-seed run the CI half-width gauge series is
/// monotone non-increasing in k — the convergence signal the progress
/// line and the paper's stopping rule are built on.
#[test]
fn ci_half_width_series_is_monotone_for_fixed_seed() {
    let (estimate, telemetry, _buf) = traced_run(42);
    let snap = telemetry.snapshot();
    let widths = snap.gauge_series(names::CI_HALF_WIDTH_MW);
    // Emitted once per iteration from k = 2 on.
    assert_eq!(widths.len(), estimate.hyper_samples - 1);
    assert!(
        widths.windows(2).all(|w| w[1] <= w[0]),
        "half-width series must shrink monotonically: {widths:?}"
    );
    // The relative series ends below the configured target.
    let rel = snap.gauge_series(names::CI_RELATIVE_HALF_WIDTH);
    let last = rel.last().copied().expect("series non-empty");
    assert!(last <= EstimationConfig::default().relative_error);
}

/// Acceptance: telemetry must never perturb the estimation — a fixed-seed
/// run yields bit-identical results with telemetry enabled or disabled.
#[test]
fn telemetry_does_not_perturb_the_estimate() {
    let run = |telemetry: Telemetry| {
        let source = FnSource::new(weibull_source(3.0, 1.0, 10.0));
        let session = EstimatorBuilder::new(EstimationConfig::default())
            .telemetry(telemetry)
            .build();
        session
            .run(&source, RunOptions::default().seeded(42))
            .expect("run converges")
    };
    let silent = run(Telemetry::disabled());
    let traced = run(Telemetry::enabled());
    assert_eq!(silent.estimate_mw.to_bits(), traced.estimate_mw.to_bits());
    assert_eq!(silent.units_used, traced.units_used);
    assert_eq!(silent.hyper_samples, traced.hyper_samples);
    assert_eq!(
        silent.relative_error.to_bits(),
        traced.relative_error.to_bits()
    );
}

/// Satellite: a consumer tailing the bounded subscriber ring that never
/// polls must not stall the estimation loop — the producer evicts the
/// oldest events (counted as drops) and the run completes with the exact
/// result a silent run produces.
#[test]
fn stalled_subscriber_never_blocks_the_run() {
    let run = |telemetry: Telemetry| {
        let source = FnSource::new(weibull_source(3.0, 1.0, 10.0));
        let session = EstimatorBuilder::new(EstimationConfig::default())
            .telemetry(telemetry)
            .build();
        session
            .run(&source, RunOptions::default().seeded(42))
            .expect("run converges")
    };
    let silent = run(Telemetry::disabled());

    // A deliberately tiny ring with a subscriber that never drains it: a
    // worst-case stalled consumer. The run must still finish promptly.
    let (sink, hub) = SubscriberSink::bounded(8);
    let _stalled = hub.subscribe();
    let telemetry = Telemetry::enabled();
    telemetry.add_sink(Box::new(sink));
    let watched = run(telemetry);
    hub.close();

    assert_eq!(silent.estimate_mw.to_bits(), watched.estimate_mw.to_bits());
    assert_eq!(silent.units_used, watched.units_used);
    assert_eq!(silent.hyper_samples, watched.hyper_samples);
    assert!(
        hub.dropped() > 0,
        "an 8-slot ring under a full run must have evicted events"
    );
}

/// Tentpole acceptance: the per-hyper-sample audit trail in the trace
/// matches the estimate's own `fit_diagnostics` — one `fit_diag` event
/// per committed hyper-sample, in index order, same rung and reason.
#[test]
fn fit_diag_events_mirror_the_estimates_audit_trail() {
    let (estimate, _telemetry, buf) = traced_run(42);
    let text = buf.contents();
    let summary = replay(text.lines()).expect("trace must replay cleanly");

    assert_eq!(estimate.fit_diagnostics.len(), estimate.hyper_samples);
    assert_eq!(summary.fit_diags.len(), estimate.hyper_samples);
    for (k, (event, diag)) in summary
        .fit_diags
        .iter()
        .zip(&estimate.fit_diagnostics)
        .enumerate()
    {
        assert_eq!(event.k, k as u64, "audit events must be in index order");
        assert_eq!(event.rung, diag.rung.label());
        assert_eq!(event.reason, diag.reason.label());
        assert_eq!(
            event.log_likelihood.map(f64::to_bits),
            diag.log_likelihood.map(f64::to_bits)
        );
        assert_eq!(
            event.ks_distance.map(f64::to_bits),
            diag.ks_distance.map(f64::to_bits)
        );
        assert_eq!(
            event.tail_shape.map(f64::to_bits),
            diag.tail_shape.map(f64::to_bits)
        );
    }
}

/// Tentpole acceptance: replaying the JSONL trace alone reproduces the
/// report's telemetry block exactly — phase counts, totals, counters and
/// duration quantiles — so `mpe trace summarize` is as authoritative as
/// the report it never saw.
#[test]
fn trace_replay_reproduces_the_reports_telemetry_block() {
    let (estimate, telemetry, buf) = traced_run(42);
    let report =
        EstimateReport::new("weibull", "max_power_mw", &estimate).with_telemetry(&telemetry);
    let from_report = report.telemetry.expect("report carries telemetry");

    let text = buf.contents();
    let summary = replay(text.lines()).expect("trace must replay cleanly");
    let from_trace = TelemetrySummary::from_snapshot(&summary.metrics);

    assert_eq!(from_trace.phases, from_report.phases);
    assert_eq!(from_trace.quantiles, from_report.quantiles);
    for counter in &from_report.counters {
        assert_eq!(
            from_trace.counter(&counter.name),
            counter.value,
            "counter `{}` must replay from the trace alone",
            counter.name
        );
    }
}

/// Tentpole acceptance: two fixed-seed runs drift-diff clean — every
/// counter, gauge sample and audit event agrees bitwise (timings are
/// expected to differ and are excluded by `diff_summaries`).
#[test]
fn same_seed_traces_diff_with_zero_drift() {
    let (_, _, buf_a) = traced_run(42);
    let (_, _, buf_b) = traced_run(42);
    let a = replay(buf_a.contents().lines()).expect("trace a replays");
    let b = replay(buf_b.contents().lines()).expect("trace b replays");
    let drift = diff_summaries(&a, &b);
    assert!(drift.is_empty(), "unexpected drift: {drift:?}");
}

/// Satellite: a run interrupted at a checkpoint and resumed with a fresh
/// telemetry handle must report *cumulative* counters and phase counts —
/// identical in total to the uninterrupted run's.
#[test]
fn resumed_run_telemetry_accumulates_across_segments() {
    let config = EstimationConfig::default();
    let master_seed = 21;

    // Uninterrupted reference run.
    let full_telemetry = Telemetry::enabled();
    let source = FnSource::new(weibull_source(3.0, 1.0, 10.0));
    let full = EstimatorBuilder::new(config)
        .telemetry(full_telemetry.clone())
        .build()
        .run(&source, RunOptions::default().seeded(master_seed))
        .expect("reference run converges");

    // Interrupted run: capture the checkpoint written after k = 2.
    let first_telemetry = Telemetry::enabled();
    let source = FnSource::new(weibull_source(3.0, 1.0, 10.0));
    let mut at_two: Option<Checkpoint> = None;
    let mut save = |cp: &Checkpoint| {
        if cp.hyper_samples() == 2 {
            at_two = Some(cp.clone());
        }
    };
    EstimatorBuilder::new(config)
        .telemetry(first_telemetry.clone())
        .build()
        .run(
            &source,
            RunOptions::default()
                .seeded(master_seed)
                .save_with(&mut save),
        )
        .expect("first segment converges");
    let cp = at_two.expect("checkpoint at k = 2 captured");
    let summary = cp.telemetry.as_ref().expect("checkpoint carries telemetry");
    assert!(summary.counter(names::VECTOR_PAIRS_SIMULATED) > 0);

    // Resumed segment with a *fresh* telemetry handle.
    let resumed_telemetry = Telemetry::enabled();
    let source = FnSource::new(weibull_source(3.0, 1.0, 10.0));
    let resumed = EstimatorBuilder::new(config)
        .telemetry(resumed_telemetry.clone())
        .build()
        .run(
            &source,
            RunOptions::default().seeded(master_seed).resume(&cp),
        )
        .expect("resumed run converges");

    // The estimate itself is bit-identical (existing contract) …
    assert_eq!(full.estimate_mw.to_bits(), resumed.estimate_mw.to_bits());
    assert_eq!(full.units_used, resumed.units_used);

    // … and so is the cumulative telemetry: baseline (segment one, via the
    // checkpoint) plus the resumed segment equals the uninterrupted run.
    let full_snap = full_telemetry.snapshot();
    let resumed_snap = resumed_telemetry.snapshot();
    for name in [
        names::VECTOR_PAIRS_SIMULATED,
        names::HYPER_SAMPLES,
        names::MLE_RETRIES,
    ] {
        assert_eq!(
            resumed_snap.counter(name),
            full_snap.counter(name),
            "counter `{name}` must accumulate across resume"
        );
    }
    assert_eq!(
        resumed_snap.counter(names::VECTOR_PAIRS_SIMULATED),
        resumed.units_used as u64
    );
    assert_eq!(
        resumed_snap.phase(SpanKind::HyperSample).count,
        full_snap.phase(SpanKind::HyperSample).count,
        "hyper-sample span counts must accumulate across resume"
    );
    // Phase *durations* carry over too: the resumed registry already held
    // segment one's simulate time before the new segment added its own.
    assert!(
        resumed_snap.phase(SpanKind::Simulate).total_ns
            >= summary
                .phases
                .iter()
                .find(|p| p.phase == SpanKind::Simulate.label())
                .map_or(0, |p| p.total_ns),
    );
}

/// Acceptance for cross-hyper-sample lane batching: a packed source keeps
/// its sweep lanes ≥90% occupied (the unbatched baseline is n/LANES ≈ 47%
/// at n = 30 on 64 lanes), sequentially and under a worker pool, while a
/// scalar source emits no lane counters at all.
#[test]
fn packed_sources_fill_their_lanes() {
    let circuit = generate(Iscas85::C432, 7).expect("circuit generates");
    let config = EstimationConfig {
        relative_error: 0.10,
        min_reading_mw: 0.0,
        ..EstimationConfig::default()
    };
    let run = |kernel: KernelMode, workers: usize| {
        let telemetry = Telemetry::enabled();
        let source = SimulatorSource::new(
            &circuit,
            PairGenerator::Uniform,
            DelayModel::Zero,
            PowerConfig::default(),
        )
        .with_kernel(kernel);
        let session = EstimatorBuilder::new(config)
            .telemetry(telemetry.clone())
            .build();
        let mut opts = RunOptions::default().seeded(11);
        if workers > 1 {
            opts = opts.workers(std::num::NonZeroUsize::new(workers).expect("non-zero"));
        }
        session.run(&source, opts).expect("run converges");
        telemetry.flush();
        let snap = telemetry.snapshot();
        (
            snap.counter(maxpower::telemetry::names::LANE_WORDS_SWEPT),
            snap.counter(maxpower::telemetry::names::LANE_SLOTS_FILLED),
            snap.counter(maxpower::telemetry::names::LANE_SLOTS_CAPACITY),
        )
    };

    for workers in [1usize, 4] {
        let (words, filled, capacity) = run(KernelMode::Packed, workers);
        assert!(words > 0, "packed run must sweep lane words");
        assert!(capacity > 0);
        let occupancy = filled as f64 / capacity as f64;
        assert!(
            occupancy >= 0.90,
            "{workers} worker(s): lane occupancy {occupancy:.3} below 0.90 \
             (filled {filled} / capacity {capacity})"
        );
    }

    let (words, filled, capacity) = run(KernelMode::Scalar, 1);
    assert_eq!(
        (words, filled, capacity),
        (0, 0, 0),
        "scalar sources must not emit lane telemetry"
    );
}
