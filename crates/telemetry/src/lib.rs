//! Zero-dependency structured tracing, convergence metrics and profiling
//! hooks for the maximum-power estimation pipeline.
//!
//! The centrepiece is the [`Telemetry`] handle: a cheaply clonable,
//! thread-safe event bus. A default ([`Telemetry::disabled`]) handle is a
//! no-op — every emit short-circuits on one `Option` check — so
//! instrumented library code costs essentially nothing unless the caller
//! opted in with [`Telemetry::enabled`].
//!
//! Events are typed ([`EventRecord`]): span start/end pairs carrying
//! monotonic timing for pipeline phases ([`SpanKind`]), monotone counters
//! (work performed: vector pairs simulated, MLE retries, fault
//! injections…), and gauges (convergence state: running mean, CI
//! half-width…). Every event is fanned out to attached [`EventSink`]s
//! (JSONL trace file, live progress line) and folded into the built-in
//! [`MetricsRegistry`] for end-of-run exposition.
//!
//! Design notes:
//!
//! * **Push-only, pull-free.** Producers fire events and move on; there is
//!   no poll loop, background thread, or channel. Aggregation happens
//!   inline in the registry, so dropping the handle loses nothing.
//! * **Never perturbs the estimation.** The handle owns no RNG and sink
//!   I/O errors are latched, not propagated: a fixed-seed run produces
//!   bit-identical estimates with telemetry on or off.
//! * **Zero external dependencies.** The workspace's one JSON codec
//!   ([`json`]) lives here, so the JSONL wire format (see [`event`]) and
//!   every crate above share it; CI enforces an empty dependency list.

pub mod event;
pub mod json;
pub mod registry;
pub mod replay;
pub mod sink;
pub mod subscribe;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use event::{EventKind, EventRecord, SpanKind, TRACE_SCHEMA_MIN_VERSION, TRACE_SCHEMA_VERSION};
pub use registry::{LogHistogram, MetricsRegistry, MetricsSnapshot, PhaseStat, DURATION_QUANTILES};
pub use replay::{diff_summaries, replay, FitDiagEvent, TraceError, TraceSummary};
pub use sink::{EventSink, JsonlSink, ProgressSink, SharedBuffer};
pub use subscribe::{
    forward, Batch, ForwardHandle, Subscriber, SubscriberHub, SubscriberSink,
    DEFAULT_SUBSCRIBER_CAPACITY,
};

/// Canonical counter and gauge names emitted by the instrumented pipeline.
///
/// Keeping them in one place makes the wire format greppable and lets
/// sinks (e.g. the progress line) match on them without stringly-typed
/// drift.
pub mod names {
    /// Counter: Monte-Carlo unit cost — one per `(vector pair, sample)`
    /// simulation drawn from the power source. Exactly equals the
    /// estimator's reported `units_used`.
    pub const VECTOR_PAIRS_SIMULATED: &str = "vector_pairs_simulated";
    /// Counter: batched draw requests issued to the power source — one per
    /// `sample_batch` call the hyper-sample loop makes (a full sample per
    /// call in the common case, smaller top-up batches after discards).
    pub const SAMPLE_BATCHES: &str = "sample_batches";
    /// Counter: completed hyper-samples (one per outer iteration `k`).
    pub const HYPER_SAMPLES: &str = "hyper_samples";
    /// Counter: word-level sweeps run by the estimator's packed batch
    /// path (cross-hyper-sample lane batching).
    pub const LANE_WORDS_SWEPT: &str = "lane_words_swept";
    /// Counter: lanes of those sweeps that carried a real vector pair.
    /// `lane_slots_filled / lane_slots_capacity` is the lane occupancy
    /// (~`n/LANES` without batching, ~1.0 with it).
    pub const LANE_SLOTS_FILLED: &str = "lane_slots_filled";
    /// Counter: total lane capacity of those sweeps (`sweeps × LANES`).
    pub const LANE_SLOTS_CAPACITY: &str = "lane_slots_capacity";
    /// Counter: MLE fit attempts beyond the first within one hyper-sample.
    pub const MLE_RETRIES: &str = "mle_retries";
    /// Counter: likelihood-profile grid probes evaluated inside the MLE.
    pub const MLE_GRID_PROBES: &str = "mle_grid_probes";
    /// Counter: fallbacks that landed on the empirical-quantile rung.
    pub const FALLBACK_QUANTILE: &str = "fallback_quantile";
    /// Counter: readings drawn but discarded by the sample policy.
    pub const SAMPLES_DISCARDED: &str = "samples_discarded";
    /// Counter: power-source read errors observed (before policy).
    pub const SOURCE_ERRORS: &str = "source_errors";
    /// Counter: per-reading retries charged by `SamplePolicy::Retry`.
    pub const SAMPLE_RETRIES: &str = "sample_retries";
    /// Counter: hyper-sample attempts abandoned for degenerate batches.
    pub const DEGENERATE_BAILOUTS: &str = "degenerate_bailouts";
    /// Counter: checkpoints written to disk.
    pub const CHECKPOINT_SAVES: &str = "checkpoint_saves";
    /// Counter: injected faults surfaced as source errors.
    pub const FAULT_ERRORS: &str = "fault_errors";
    /// Counter: injected stalls (delayed readings).
    pub const FAULT_STALLS: &str = "fault_stalls";
    /// Counter: injected NaN readings.
    pub const FAULT_NANS: &str = "fault_nans";
    /// Counter: injected infinite readings.
    pub const FAULT_INFS: &str = "fault_infs";
    /// Counter: injected negative-power readings.
    pub const FAULT_NEGATIVES: &str = "fault_negatives";
    /// Counter: injected multiplicative corruptions.
    pub const FAULT_CORRUPTIONS: &str = "fault_corruptions";
    /// Gauge: fitted location (endpoint) of the latest hyper-sample, mW.
    pub const HYPER_MU: &str = "hyper_mu_mw";
    /// Gauge: fitted scale of the latest hyper-sample.
    pub const HYPER_ALPHA: &str = "hyper_alpha";
    /// Gauge: fitted shape of the latest hyper-sample.
    pub const HYPER_BETA: &str = "hyper_beta";
    /// Gauge: running mean of the per-hyper-sample estimates, mW.
    pub const RUNNING_MEAN_MW: &str = "running_mean_mw";
    /// Gauge: Student-t confidence-interval half-width, mW.
    pub const CI_HALF_WIDTH_MW: &str = "ci_half_width_mw";
    /// Gauge: half-width relative to the running mean (stopping metric).
    pub const CI_RELATIVE_HALF_WIDTH: &str = "ci_relative_half_width";

    /// Counter: parallel-worker panics caught and recovered by requeueing
    /// the affected hyper-sample on a healthy worker.
    pub const WORKER_PANICS: &str = "worker_panics";
    /// Counter: workers flagged by the stall watchdog (heartbeat older
    /// than the configured timeout).
    pub const WORKER_STALLS: &str = "worker_stalls";

    /// Counter name for hyper-samples generated by one worker of the
    /// parallel execution engine (e.g. `worker_2_hyper_samples`). Unlike
    /// [`HYPER_SAMPLES`] — which counts *committed* hyper-samples in
    /// deterministic order — per-worker counters include speculative
    /// hyper-samples discarded at the stopping point, so their sum may
    /// exceed [`HYPER_SAMPLES`].
    #[must_use]
    pub fn worker_hyper_samples(worker: usize) -> String {
        format!("worker_{worker}_hyper_samples")
    }

    /// Gauge name for one worker's liveness heartbeat (e.g.
    /// `worker_2_heartbeat_ms`): milliseconds since the run started,
    /// stamped by the worker at the top of each hyper-sample. The stall
    /// watchdog compares it against the configured timeout.
    #[must_use]
    pub fn worker_heartbeat(worker: usize) -> String {
        format!("worker_{worker}_heartbeat_ms")
    }
}

struct Inner {
    /// Event timestamps are nanoseconds since this per-handle epoch.
    epoch: Instant,
    seq: AtomicU64,
    next_span: AtomicU64,
    registry: MetricsRegistry,
    sinks: Mutex<Vec<Box<dyn EventSink>>>,
}

/// Handle to the telemetry event bus.
///
/// Clones share one bus. The [`Default`]/[`Telemetry::disabled`] handle is
/// inert: all emit methods return immediately without locking.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    /// Worker lane stamped onto every event emitted through this handle
    /// (see [`Telemetry::for_worker`]).
    worker: Option<u64>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// An inert handle: every emit is a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry {
            inner: None,
            worker: None,
        }
    }

    /// A live handle with an empty sink list; events still aggregate into
    /// the built-in [`MetricsRegistry`].
    #[must_use]
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                next_span: AtomicU64::new(0),
                registry: MetricsRegistry::new(),
                sinks: Mutex::new(Vec::new()),
            })),
            worker: None,
        }
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle sharing this bus whose every event carries `worker` as its
    /// lane attribute. The parallel execution engine hands one such handle
    /// to each worker thread, so interleaved spans in a trace can be
    /// untangled per lane (and [`replay()`] validates nesting lane by lane).
    #[must_use]
    pub fn for_worker(&self, worker: u64) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            worker: Some(worker),
        }
    }

    /// The worker lane this handle stamps onto events, if any.
    #[must_use]
    pub fn worker(&self) -> Option<u64> {
        self.worker
    }

    /// Attaches a sink. No-op on a disabled handle.
    pub fn add_sink(&self, sink: Box<dyn EventSink>) {
        if let Some(inner) = &self.inner {
            inner
                .sinks
                .lock()
                .expect("telemetry sinks poisoned")
                .push(sink);
        }
    }

    fn emit(&self, kind: EventKind) {
        if let Some(inner) = &self.inner {
            let record = EventRecord {
                seq: inner.seq.fetch_add(1, Ordering::Relaxed),
                t_ns: inner.epoch.elapsed().as_nanos() as u64,
                worker: self.worker,
                kind,
            };
            inner.registry.record(&record);
            let mut sinks = inner.sinks.lock().expect("telemetry sinks poisoned");
            for sink in sinks.iter_mut() {
                sink.emit(&record);
            }
        }
    }

    /// Adds `delta` to a monotone counter. Zero deltas are suppressed so
    /// traces stay free of no-op noise.
    pub fn counter(&self, name: &str, delta: u64) {
        if self.inner.is_some() && delta > 0 {
            self.emit(EventKind::Counter {
                name: name.to_string(),
                delta,
            });
        }
    }

    /// Sets a gauge to its latest value (also appended to the gauge's
    /// series in the registry).
    pub fn gauge(&self, name: &str, value: f64) {
        if self.inner.is_some() {
            self.emit(EventKind::Gauge {
                name: name.to_string(),
                value,
            });
        }
    }

    /// Emits a per-hyper-sample estimator audit record (see
    /// [`EventKind::FitDiag`]). The rung and reason arrive as plain labels
    /// because this crate cannot depend on the estimator's typed enums.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_diag(
        &self,
        k: u64,
        rung: &str,
        reason: &str,
        log_likelihood: Option<f64>,
        ks_distance: Option<f64>,
        tail_shape: Option<f64>,
    ) {
        if self.inner.is_some() {
            self.emit(EventKind::FitDiag {
                k,
                rung: rung.to_string(),
                reason: reason.to_string(),
                log_likelihood,
                ks_distance,
                tail_shape,
            });
        }
    }

    /// Opens a timed span; the returned guard emits the matching
    /// `span_end` (with monotonic elapsed time) when dropped.
    #[must_use]
    pub fn span(&self, kind: SpanKind) -> SpanGuard {
        match &self.inner {
            None => SpanGuard {
                telemetry: Telemetry::disabled(),
                kind,
                id: 0,
                started: None,
            },
            Some(inner) => {
                let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
                self.emit(EventKind::SpanStart { span: kind, id });
                SpanGuard {
                    telemetry: self.clone(),
                    kind,
                    id,
                    started: Some(Instant::now()),
                }
            }
        }
    }

    /// Snapshot of the aggregated metrics. Empty on a disabled handle.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.registry.snapshot(),
            None => MetricsRegistry::new().snapshot(),
        }
    }

    /// Prometheus-style text exposition of the aggregated metrics.
    #[must_use]
    pub fn render_exposition(&self) -> String {
        match &self.inner {
            Some(inner) => inner.registry.render_exposition(),
            None => MetricsRegistry::new().render_exposition(),
        }
    }

    /// Fixed-width human summary table of the aggregated metrics.
    #[must_use]
    pub fn render_summary(&self) -> String {
        match &self.inner {
            Some(inner) => inner.registry.render_summary(),
            None => MetricsRegistry::new().render_summary(),
        }
    }

    /// Seeds the registry with counter totals and phase durations from a
    /// previous (checkpointed) run so post-resume summaries are
    /// cumulative. Baseline values do not pass through sinks: a resumed
    /// trace file only carries this run's events.
    pub fn restore_baseline<C, P>(&self, counters: C, phases: P)
    where
        C: IntoIterator<Item = (String, u64)>,
        P: IntoIterator<Item = (SpanKind, u64, u64)>,
    {
        if let Some(inner) = &self.inner {
            inner.registry.restore_baseline(
                counters,
                phases.into_iter().map(|(kind, count, total_ns)| {
                    (kind.label().to_string(), PhaseStat { count, total_ns })
                }),
            );
        }
    }

    /// Flushes all attached sinks.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            let mut sinks = inner.sinks.lock().expect("telemetry sinks poisoned");
            for sink in sinks.iter_mut() {
                sink.flush_sink();
            }
        }
    }
}

/// RAII guard for a timed span. Dropping it emits the `span_end` event.
pub struct SpanGuard {
    telemetry: Telemetry,
    kind: SpanKind,
    id: u64,
    started: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            self.telemetry.emit(EventKind::SpanEnd {
                span: self.kind,
                id: self.id,
                elapsed_ns: started.elapsed().as_nanos() as u64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter(names::HYPER_SAMPLES, 5);
        t.gauge(names::RUNNING_MEAN_MW, 1.0);
        drop(t.span(SpanKind::Run));
        let snap = t.snapshot();
        assert_eq!(snap.counter(names::HYPER_SAMPLES), 0);
        assert!(snap.gauge(names::RUNNING_MEAN_MW).is_none());
        assert_eq!(snap.phase(SpanKind::Run).count, 0);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn events_reach_registry_and_sinks() {
        let t = Telemetry::enabled();
        let buf = SharedBuffer::new();
        t.add_sink(Box::new(JsonlSink::new(buf.clone())));
        {
            let _run = t.span(SpanKind::Run);
            t.counter(names::VECTOR_PAIRS_SIMULATED, 300);
            t.gauge(names::RUNNING_MEAN_MW, 9.25);
        }
        t.flush();
        let snap = t.snapshot();
        assert_eq!(snap.counter(names::VECTOR_PAIRS_SIMULATED), 300);
        assert_eq!(snap.gauge(names::RUNNING_MEAN_MW), Some(9.25));
        assert_eq!(snap.phase(SpanKind::Run).count, 1);
        let text = buf.contents();
        let summary = replay(text.lines()).expect("trace must replay");
        assert_eq!(summary.events, 4);
        assert_eq!(summary.metrics.counter(names::VECTOR_PAIRS_SIMULATED), 300);
    }

    #[test]
    fn zero_delta_counters_are_suppressed() {
        let t = Telemetry::enabled();
        let buf = SharedBuffer::new();
        t.add_sink(Box::new(JsonlSink::new(buf.clone())));
        t.counter(names::MLE_RETRIES, 0);
        t.flush();
        assert!(buf.contents().is_empty());
    }

    #[test]
    fn clones_share_the_bus() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.counter(names::HYPER_SAMPLES, 2);
        assert_eq!(t.snapshot().counter(names::HYPER_SAMPLES), 2);
    }

    #[test]
    fn spans_nest_in_emitted_trace() {
        let t = Telemetry::enabled();
        let buf = SharedBuffer::new();
        t.add_sink(Box::new(JsonlSink::new(buf.clone())));
        {
            let _run = t.span(SpanKind::Run);
            for _ in 0..3 {
                let _hyper = t.span(SpanKind::HyperSample);
                let _fit = t.span(SpanKind::Fit);
            }
        }
        t.flush();
        let text = buf.contents();
        let summary = replay(text.lines()).expect("nested spans must validate");
        assert_eq!(summary.max_depth, 3);
        assert_eq!(summary.metrics.phase(SpanKind::HyperSample).count, 3);
        assert_eq!(summary.metrics.phase(SpanKind::Fit).count, 3);
    }

    #[test]
    fn restore_baseline_accumulates() {
        let t = Telemetry::enabled();
        t.restore_baseline(
            [(names::VECTOR_PAIRS_SIMULATED.to_string(), 600)],
            [(SpanKind::HyperSample, 2, 1_000)],
        );
        t.counter(names::VECTOR_PAIRS_SIMULATED, 300);
        let snap = t.snapshot();
        assert_eq!(snap.counter(names::VECTOR_PAIRS_SIMULATED), 900);
        assert_eq!(snap.phase(SpanKind::HyperSample).count, 2);
        assert_eq!(snap.phase(SpanKind::HyperSample).total_ns, 1_000);
    }

    #[test]
    fn worker_handles_tag_events_and_share_the_bus() {
        let t = Telemetry::enabled();
        let buf = SharedBuffer::new();
        t.add_sink(Box::new(JsonlSink::new(buf.clone())));
        assert_eq!(t.worker(), None);
        let w = t.for_worker(3);
        assert_eq!(w.worker(), Some(3));
        {
            let _run = t.span(SpanKind::Run);
            let _hyper = w.span(SpanKind::HyperSample);
            w.counter(names::VECTOR_PAIRS_SIMULATED, 300);
        }
        t.flush();
        // Shared bus: both handles' events aggregate together.
        assert_eq!(t.snapshot().counter(names::VECTOR_PAIRS_SIMULATED), 300);
        let text = buf.contents();
        let records: Vec<EventRecord> = text
            .lines()
            .map(|l| EventRecord::parse_json_line(l).expect(l))
            .collect();
        assert_eq!(records.len(), 5);
        let workers: Vec<Option<u64>> = records.iter().map(|r| r.worker).collect();
        assert!(workers.contains(&Some(3)) && workers.contains(&None));
        replay(text.lines()).expect("worker-tagged trace must replay");
    }

    #[test]
    fn concurrent_emitters_are_safe_and_lossless() {
        let t = Telemetry::enabled();
        let buf = SharedBuffer::new();
        t.add_sink(Box::new(JsonlSink::new(buf.clone())));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    for _ in 0..250 {
                        t.counter(names::VECTOR_PAIRS_SIMULATED, 1);
                    }
                });
            }
        });
        t.flush();
        assert_eq!(t.snapshot().counter(names::VECTOR_PAIRS_SIMULATED), 1_000);
        assert_eq!(buf.contents().lines().count(), 1_000);
    }
}
