//! Serializable estimation reports — stable JSON for downstream tooling
//! (regression tracking, dashboards, flow integration).
//!
//! The in-memory result types borrow nothing but carry non-serializable
//! internals (fit objects); [`EstimateReport`] is the flattened, versioned
//! exchange format.

use crate::estimator::MaxPowerEstimate;
use crate::health::{EstimatorKind, FitDiagnostics, RunHealth, RunStatus};
use crate::serve::json::{self, Decode, Encode, Fields, Json, JsonWriter};
use mpe_telemetry::{MetricsSnapshot, SpanKind, Telemetry};

/// Format version written into every report, bumped on breaking changes.
///
/// v2 added the resilience fields: `status`, `health` and
/// `hyper_estimators`. v3 added the optional `telemetry` block (phase
/// timings and work counters). v4 added the execution fields: `workers`
/// (defaulting to 1 when absent) and the optional `wall_ms`. v5 added the
/// benchmark-provenance fields: the optional `kernel` (which simulation
/// kernel produced the readings) and `host_parallelism`. v6 added the
/// run-supervision vocabulary: `status` gains the
/// `Interrupted { reason }` variant (cancellation, deadline, hyper-sample
/// budget) and `health` gains the `worker_restarts` / `worker_stalls`
/// counters (defaulting to 0 when absent); v2–v5 reports still parse.
/// v7 added the introspection layer: the per-hyper-sample
/// `fit_diagnostics` audit trail, per-phase latency `quantiles` inside the
/// telemetry block, and `health.irregular_fits` — all defaulting to empty
/// or 0, so v2–v6 reports still parse.
/// v8 extended the kernel provenance: `kernel` may now also be
/// `"packed128"`, and the optional `kernel_lanes` records the lane width
/// of packed kernels (64/128; absent for scalar runs and pre-v8 reports,
/// which still parse).
/// v9 added the optional `job` provenance block ([`JobProvenance`]): job
/// id, submission time and queue wait, populated by `mpe serve` and absent
/// (`null`/missing) for CLI runs — v8 and earlier reports still parse.
pub const REPORT_VERSION: u32 = 9;

/// Wall-clock attribution for one pipeline phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase label (a [`SpanKind`] wire label: `"run"`, `"simulate"`, …).
    pub phase: String,
    /// Completed spans of this phase.
    pub count: u64,
    /// Total time spent inside the phase, nanoseconds (monotonic clock).
    pub total_ns: u64,
}

/// One named work counter's end-of-run total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterValue {
    /// Counter name (see `mpe_telemetry::names`).
    pub name: String,
    /// Cumulative total.
    pub value: u64,
}

/// Latency quantiles for one pipeline phase, from the log-bucketed
/// histograms ([`mpe_telemetry::LogHistogram`]). Nanosecond integers keep
/// the struct `Eq` and the JSON exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseQuantiles {
    /// Phase label (a [`SpanKind`] wire label).
    pub phase: String,
    /// Median span duration (ns).
    pub p50_ns: u64,
    /// 95th-percentile span duration (ns).
    pub p95_ns: u64,
    /// 99th-percentile span duration (ns).
    pub p99_ns: u64,
}

/// The telemetry block embedded in reports (and checkpoints): where the
/// run spent its time and how much work each stage performed. Gauges are
/// point-in-time values and deliberately excluded — the report's own
/// estimate fields carry the final ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Per-phase wall-clock totals, in pipeline order.
    pub phases: Vec<PhaseTiming>,
    /// Counter totals, sorted by name.
    pub counters: Vec<CounterValue>,
    /// Per-phase latency quantiles (p50/p95/p99, the
    /// [`mpe_telemetry::DURATION_QUANTILES`] set), in pipeline order.
    /// Empty in blocks written before schema v7 and for phases with no
    /// completed spans.
    pub quantiles: Vec<PhaseQuantiles>,
}

impl TelemetrySummary {
    /// Extracts the durable parts of a metrics snapshot.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> Self {
        TelemetrySummary {
            phases: SpanKind::ALL
                .iter()
                .map(|&kind| (kind, snapshot.phase(kind)))
                .filter(|(_, stat)| stat.count > 0)
                .map(|(kind, stat)| PhaseTiming {
                    phase: kind.label().to_string(),
                    count: stat.count,
                    total_ns: stat.total_ns,
                })
                .collect(),
            counters: snapshot
                .counters
                .iter()
                .map(|(name, value)| CounterValue {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
            quantiles: SpanKind::ALL
                .iter()
                .filter_map(|&kind| {
                    snapshot
                        .phase_quantiles_ns(kind)
                        .map(|(p50, p95, p99)| PhaseQuantiles {
                            phase: kind.label().to_string(),
                            p50_ns: p50,
                            p95_ns: p95,
                            p99_ns: p99,
                        })
                })
                .collect(),
        }
    }

    /// The durable parts of an enabled handle's metrics; `None` on a
    /// disabled handle.
    pub fn of(telemetry: &Telemetry) -> Option<Self> {
        telemetry
            .is_enabled()
            .then(|| Self::from_snapshot(&telemetry.snapshot()))
    }

    /// The total of one counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Re-seeds a telemetry handle with these totals so a resumed run's
    /// summaries accumulate on top of the checkpointed work.
    pub fn restore_into(&self, telemetry: &mpe_telemetry::Telemetry) {
        telemetry.restore_baseline(
            self.counters.iter().map(|c| (c.name.clone(), c.value)),
            self.phases.iter().filter_map(|p| {
                SpanKind::from_label(&p.phase).map(|kind| (kind, p.count, p.total_ns))
            }),
        );
    }
}

/// A flattened, JSON-serializable view of a [`MaxPowerEstimate`].
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateReport {
    /// Format version ([`REPORT_VERSION`]).
    pub version: u32,
    /// What was estimated (free-form, e.g. the circuit name).
    pub subject: String,
    /// The metric estimated (`"max_power_mw"`, `"max_delay_units"`, …).
    pub metric: String,
    /// The point estimate.
    pub estimate: f64,
    /// Lower edge of the confidence interval.
    pub ci_low: f64,
    /// Upper edge of the confidence interval.
    pub ci_high: f64,
    /// Achieved relative half-width.
    pub relative_error: f64,
    /// Confidence level of the interval.
    pub confidence: f64,
    /// Hyper-samples consumed.
    pub hyper_samples: usize,
    /// Simulated units consumed.
    pub units_used: usize,
    /// Largest single observation (hard lower bound on the maximum).
    pub observed_max: f64,
    /// How the run ended (converged / degraded / budget-exhausted).
    pub status: RunStatus,
    /// Fault, fallback and guard counters for the whole run.
    pub health: RunHealth,
    /// Per-hyper-sample estimates, for audit/debugging.
    pub hyper_estimates: Vec<f64>,
    /// Which estimator produced each hyper-sample (parallel to
    /// `hyper_estimates`): the `rung` of each `fit_diagnostics` record.
    pub hyper_estimators: Vec<EstimatorKind>,
    /// Per-hyper-sample estimator audit trail (parallel to
    /// `hyper_estimates`, v7): rung, typed reason code and goodness-of-fit
    /// summaries. Empty in pre-v7 reports.
    pub fit_diagnostics: Vec<FitDiagnostics>,
    /// Phase timings and work counters for the run, when telemetry was
    /// enabled. Absent (`null`/missing) otherwise; v2 reports parse with
    /// the block absent.
    pub telemetry: Option<TelemetrySummary>,
    /// Worker threads the run executed on (v4; reads as 1 from older
    /// reports). Execution metadata only — the estimate fields above are
    /// bit-identical for any worker count under the same seed.
    pub workers: usize,
    /// Wall-clock duration of the run in milliseconds, when the producer
    /// measured it (v4; the `mpe` CLI always does).
    pub wall_ms: Option<f64>,
    /// Simulation kernel that produced the power readings (`"scalar"`,
    /// `"packed"` or `"packed128"`, v5/v8). Provenance only: the kernels
    /// are bit-identical, so two reports differing in this field still
    /// describe the same estimate. Absent for non-simulator sources and
    /// pre-v5 reports.
    pub kernel: Option<String>,
    /// Lane width of the packed kernel behind the readings (64 or 128,
    /// v8). Absent for scalar runs, non-simulator sources and pre-v8
    /// reports. Provenance only, like `kernel`.
    pub kernel_lanes: Option<usize>,
    /// `std::thread::available_parallelism()` on the producing host (v5).
    /// Benchmark provenance for interpreting `wall_ms` and `workers`.
    pub host_parallelism: Option<usize>,
    /// Job provenance when the estimate was produced by `mpe serve` (v9).
    /// Absent for CLI runs and pre-v9 reports, which still parse. Pure
    /// metadata, like `wall_ms` — two reports differing only here describe
    /// the same estimate.
    pub job: Option<JobProvenance>,
}

/// Provenance of a server-produced estimate: which job it was, when it was
/// submitted, and how long it sat in the queue before a runner picked it
/// up (v9).
#[derive(Debug, Clone, PartialEq)]
pub struct JobProvenance {
    /// Server-assigned job id (e.g. `"j000042"`).
    pub job_id: String,
    /// Submission wall-clock time, milliseconds since the Unix epoch.
    pub submitted_unix_ms: u64,
    /// Time the job spent queued before execution began, milliseconds.
    pub queue_wait_ms: f64,
}

impl EstimateReport {
    /// Builds a report from an estimate.
    pub fn new(subject: &str, metric: &str, estimate: &MaxPowerEstimate) -> Self {
        EstimateReport {
            version: REPORT_VERSION,
            subject: subject.to_string(),
            metric: metric.to_string(),
            estimate: estimate.estimate_mw,
            ci_low: estimate.confidence_interval.0,
            ci_high: estimate.confidence_interval.1,
            relative_error: estimate.relative_error,
            confidence: estimate.confidence,
            hyper_samples: estimate.hyper_samples,
            units_used: estimate.units_used,
            observed_max: estimate.observed_max_mw,
            status: estimate.status,
            health: estimate.health,
            hyper_estimates: estimate.hyper_estimates.clone(),
            hyper_estimators: estimate.fit_diagnostics.iter().map(|d| d.rung).collect(),
            fit_diagnostics: estimate.fit_diagnostics.clone(),
            telemetry: None,
            workers: 1,
            wall_ms: None,
            kernel: None,
            kernel_lanes: None,
            host_parallelism: None,
            job: None,
        }
    }

    /// Attaches the telemetry block read from `telemetry`'s metrics (none
    /// from a disabled handle).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = TelemetrySummary::of(telemetry);
        self
    }

    /// Records how the run was executed: worker count and (optionally) the
    /// measured wall-clock time. Pure metadata — two reports differing only
    /// in these fields describe the same estimate.
    #[must_use]
    pub fn with_execution(mut self, workers: usize, wall_ms: Option<f64>) -> Self {
        self.workers = workers;
        self.wall_ms = wall_ms;
        self
    }

    /// Records benchmark provenance: the simulation kernel behind the
    /// readings, its lane width (for packed kernels) and the producing
    /// host's available parallelism. Like
    /// [`EstimateReport::with_execution`], pure metadata.
    #[must_use]
    pub fn with_kernel(
        mut self,
        kernel: &str,
        kernel_lanes: Option<usize>,
        host_parallelism: Option<usize>,
    ) -> Self {
        self.kernel = Some(kernel.to_string());
        self.kernel_lanes = kernel_lanes;
        self.host_parallelism = host_parallelism;
        self
    }

    /// Attaches server job provenance (v9). Like
    /// [`EstimateReport::with_execution`], pure metadata: the estimate
    /// fields are untouched, so a served report differs from the same
    /// seed/config CLI report only in this block (and `wall_ms`).
    #[must_use]
    pub fn with_job(mut self, job: JobProvenance) -> Self {
        self.job = Some(job);
        self
    }

    /// Serializes to pretty JSON: fields in declaration order, non-finite
    /// floats as `null`, and the provenance options (`wall_ms`, `kernel`,
    /// `kernel_lanes`, `host_parallelism`, `job`) omitted when `None`.
    pub fn to_json(&self) -> String {
        json::to_string_pretty(self)
    }

    /// Parses a report from JSON. Fields added after v2 read with their
    /// defaults when absent (empty `fit_diagnostics`, no `telemetry`,
    /// `workers` 1, no provenance); unknown fields are ignored.
    ///
    /// # Errors
    ///
    /// A description of the syntax error or the first missing or
    /// ill-typed field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        json::from_str(text)
    }
}

impl From<&MaxPowerEstimate> for EstimateReport {
    fn from(estimate: &MaxPowerEstimate) -> Self {
        EstimateReport::new("unnamed", "max_power_mw", estimate)
    }
}

impl Encode for PhaseTiming {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("phase", &self.phase);
        w.field("count", &self.count);
        w.field("total_ns", &self.total_ns);
        w.end_object();
    }
}

impl Decode for PhaseTiming {
    fn decode(value: &Json) -> Result<Self, String> {
        let f = Fields::of(value)?;
        Ok(PhaseTiming {
            phase: f.req("phase")?,
            count: f.req("count")?,
            total_ns: f.req("total_ns")?,
        })
    }
}

impl Encode for CounterValue {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("name", &self.name);
        w.field("value", &self.value);
        w.end_object();
    }
}

impl Decode for CounterValue {
    fn decode(value: &Json) -> Result<Self, String> {
        let f = Fields::of(value)?;
        Ok(CounterValue {
            name: f.req("name")?,
            value: f.req("value")?,
        })
    }
}

impl Encode for PhaseQuantiles {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("phase", &self.phase);
        w.field("p50_ns", &self.p50_ns);
        w.field("p95_ns", &self.p95_ns);
        w.field("p99_ns", &self.p99_ns);
        w.end_object();
    }
}

impl Decode for PhaseQuantiles {
    fn decode(value: &Json) -> Result<Self, String> {
        let f = Fields::of(value)?;
        Ok(PhaseQuantiles {
            phase: f.req("phase")?,
            p50_ns: f.req("p50_ns")?,
            p95_ns: f.req("p95_ns")?,
            p99_ns: f.req("p99_ns")?,
        })
    }
}

impl Encode for TelemetrySummary {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("phases", &self.phases);
        w.field("counters", &self.counters);
        w.field("quantiles", &self.quantiles);
        w.end_object();
    }
}

impl Decode for TelemetrySummary {
    fn decode(value: &Json) -> Result<Self, String> {
        let f = Fields::of(value)?;
        Ok(TelemetrySummary {
            phases: f.req("phases")?,
            counters: f.req("counters")?,
            quantiles: f.or("quantiles", Vec::new())?,
        })
    }
}

impl Encode for JobProvenance {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("job_id", &self.job_id);
        w.field("submitted_unix_ms", &self.submitted_unix_ms);
        w.field("queue_wait_ms", &self.queue_wait_ms);
        w.end_object();
    }
}

impl Decode for JobProvenance {
    fn decode(value: &Json) -> Result<Self, String> {
        let f = Fields::of(value)?;
        Ok(JobProvenance {
            job_id: f.req("job_id")?,
            submitted_unix_ms: f.req("submitted_unix_ms")?,
            queue_wait_ms: f.req("queue_wait_ms")?,
        })
    }
}

impl Encode for EstimateReport {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("version", &self.version);
        w.field("subject", &self.subject);
        w.field("metric", &self.metric);
        w.field("estimate", &self.estimate);
        w.field("ci_low", &self.ci_low);
        w.field("ci_high", &self.ci_high);
        w.field("relative_error", &self.relative_error);
        w.field("confidence", &self.confidence);
        w.field("hyper_samples", &self.hyper_samples);
        w.field("units_used", &self.units_used);
        w.field("observed_max", &self.observed_max);
        w.field("status", &self.status);
        w.field("health", &self.health);
        w.field("hyper_estimates", &self.hyper_estimates);
        w.field("hyper_estimators", &self.hyper_estimators);
        w.field("fit_diagnostics", &self.fit_diagnostics);
        w.field("telemetry", &self.telemetry);
        w.field("workers", &self.workers);
        if let Some(wall_ms) = &self.wall_ms {
            w.field("wall_ms", wall_ms);
        }
        if let Some(kernel) = &self.kernel {
            w.field("kernel", kernel);
        }
        if let Some(lanes) = &self.kernel_lanes {
            w.field("kernel_lanes", lanes);
        }
        if let Some(parallelism) = &self.host_parallelism {
            w.field("host_parallelism", parallelism);
        }
        if let Some(job) = &self.job {
            w.field("job", job);
        }
        w.end_object();
    }
}

impl Decode for EstimateReport {
    fn decode(value: &Json) -> Result<Self, String> {
        let f = Fields::of(value)?;
        Ok(EstimateReport {
            version: f.req("version")?,
            subject: f.req("subject")?,
            metric: f.req("metric")?,
            estimate: f.req("estimate")?,
            ci_low: f.req("ci_low")?,
            ci_high: f.req("ci_high")?,
            relative_error: f.req("relative_error")?,
            confidence: f.req("confidence")?,
            hyper_samples: f.req("hyper_samples")?,
            units_used: f.req("units_used")?,
            observed_max: f.req("observed_max")?,
            status: f.req("status")?,
            health: f.req("health")?,
            hyper_estimates: f.req("hyper_estimates")?,
            hyper_estimators: f.req("hyper_estimators")?,
            fit_diagnostics: f.or("fit_diagnostics", Vec::new())?,
            telemetry: f.or("telemetry", None)?,
            workers: f.or("workers", 1)?,
            wall_ms: f.or("wall_ms", None)?,
            kernel: f.or("kernel", None)?,
            kernel_lanes: f.or("kernel_lanes", None)?,
            host_parallelism: f.or("host_parallelism", None)?,
            job: f.or("job", None)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EstimateHistoryEntry;

    fn sample_estimate() -> MaxPowerEstimate {
        MaxPowerEstimate {
            estimate_mw: 10.5,
            confidence_interval: (10.0, 11.0),
            relative_error: 0.047,
            confidence: 0.9,
            hyper_samples: 8,
            units_used: 2400,
            observed_max_mw: 10.1,
            status: RunStatus::Degraded {
                fallback: EstimatorKind::Quantile,
            },
            health: RunHealth {
                quantile_fallbacks: 1,
                source_errors: 3,
                ..RunHealth::default()
            },
            history: vec![EstimateHistoryEntry {
                k: 1,
                mean_mw: 10.2,
                relative_half_width: f64::INFINITY,
                units_used: 300,
            }],
            hyper_estimates: vec![10.2, 10.8],
            fit_diagnostics: vec![
                FitDiagnostics {
                    rung: EstimatorKind::Mle,
                    reason: crate::health::FitReasonCode::Converged,
                    log_likelihood: Some(-0.8),
                    ks_distance: Some(0.11),
                    tail_shape: Some(2.9),
                },
                FitDiagnostics {
                    rung: EstimatorKind::Quantile,
                    reason: crate::health::FitReasonCode::DegenerateMaxima,
                    log_likelihood: None,
                    ks_distance: None,
                    tail_shape: None,
                },
            ],
        }
    }

    #[test]
    fn roundtrip_json() {
        let telemetry = mpe_telemetry::Telemetry::enabled();
        telemetry.counter(mpe_telemetry::names::VECTOR_PAIRS_SIMULATED, 2400);
        let report = EstimateReport::new("C3540", "max_power_mw", &sample_estimate())
            .with_telemetry(&telemetry);
        let json = report.to_json();
        assert!(json.contains("\"subject\": \"C3540\""));
        let back = EstimateReport::from_json(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn telemetry_summary_captures_phases_and_counters() {
        let telemetry = mpe_telemetry::Telemetry::enabled();
        {
            let _run = telemetry.span(SpanKind::Run);
            telemetry.counter(mpe_telemetry::names::VECTOR_PAIRS_SIMULATED, 300);
        }
        let summary = TelemetrySummary::from_snapshot(&telemetry.snapshot());
        assert_eq!(
            summary.counter(mpe_telemetry::names::VECTOR_PAIRS_SIMULATED),
            300
        );
        assert_eq!(summary.counter("missing"), 0);
        assert_eq!(summary.phases.len(), 1);
        assert_eq!(summary.phases[0].phase, "run");
        assert_eq!(summary.phases[0].count, 1);
        // The completed span also lands in the duration histogram, so the
        // block carries its quantile row.
        assert_eq!(summary.quantiles.len(), 1);
        assert_eq!(summary.quantiles[0].phase, "run");
        assert!(summary.quantiles[0].p50_ns <= summary.quantiles[0].p99_ns);

        // Restoring into a fresh handle carries the totals forward.
        let resumed = mpe_telemetry::Telemetry::enabled();
        summary.restore_into(&resumed);
        resumed.counter(mpe_telemetry::names::VECTOR_PAIRS_SIMULATED, 100);
        let snap = resumed.snapshot();
        assert_eq!(
            snap.counter(mpe_telemetry::names::VECTOR_PAIRS_SIMULATED),
            400
        );
        assert_eq!(snap.phase(SpanKind::Run).count, 1);
    }

    #[test]
    fn version_stamped() {
        let report: EstimateReport = (&sample_estimate()).into();
        assert_eq!(report.version, REPORT_VERSION);
        assert_eq!(report.metric, "max_power_mw");
        // Execution metadata defaults: single worker, no wall clock.
        assert_eq!(report.workers, 1);
        assert_eq!(report.wall_ms, None);
    }

    #[test]
    fn with_execution_records_metadata_only() {
        let est = sample_estimate();
        let plain = EstimateReport::new("x", "max_power_mw", &est);
        let parallel = EstimateReport::new("x", "max_power_mw", &est).with_execution(8, Some(12.5));
        assert_eq!(parallel.workers, 8);
        assert_eq!(parallel.wall_ms, Some(12.5));
        // Every estimate-bearing field is untouched by execution metadata.
        assert_eq!(parallel.estimate, plain.estimate);
        assert_eq!(parallel.hyper_estimates, plain.hyper_estimates);
        assert_eq!(parallel.units_used, plain.units_used);
        assert_eq!(parallel.status, plain.status);
    }

    #[test]
    fn with_kernel_records_provenance_only() {
        let est = sample_estimate();
        let plain = EstimateReport::new("x", "max_power_mw", &est);
        let packed =
            EstimateReport::new("x", "max_power_mw", &est).with_kernel("packed", Some(64), Some(4));
        assert_eq!(packed.kernel.as_deref(), Some("packed"));
        assert_eq!(packed.kernel_lanes, Some(64));
        assert_eq!(packed.host_parallelism, Some(4));
        let wide = EstimateReport::new("x", "max_power_mw", &est).with_kernel(
            "packed128",
            Some(128),
            None,
        );
        assert_eq!(wide.kernel.as_deref(), Some("packed128"));
        assert_eq!(wide.kernel_lanes, Some(128));
        assert_eq!(plain.kernel, None);
        assert_eq!(plain.kernel_lanes, None);
        assert_eq!(plain.host_parallelism, None);
        // The estimate itself is untouched by provenance metadata.
        assert_eq!(packed.estimate, plain.estimate);
        assert_eq!(packed.hyper_estimates, plain.hyper_estimates);
        assert_eq!(packed.status, plain.status);
    }

    #[test]
    fn with_job_records_provenance_only_and_roundtrips() {
        let est = sample_estimate();
        let plain = EstimateReport::new("x", "max_power_mw", &est);
        assert_eq!(plain.job, None);
        let served = EstimateReport::new("x", "max_power_mw", &est).with_job(JobProvenance {
            job_id: "j000007".into(),
            submitted_unix_ms: 1_700_000_000_123,
            queue_wait_ms: 41.5,
        });
        let job = served.job.as_ref().expect("job block attached");
        assert_eq!(job.job_id, "j000007");
        assert_eq!(job.queue_wait_ms, 41.5);
        // Pure metadata: the estimate fields are untouched.
        assert_eq!(served.estimate, plain.estimate);
        assert_eq!(served.hyper_estimates, plain.hyper_estimates);
        assert_eq!(served.status, plain.status);
        let back = EstimateReport::from_json(&served.to_json()).expect("served report parses");
        assert_eq!(served, back);
    }

    #[test]
    fn v8_reports_without_job_block_still_parse() {
        // A v9 writer omits `job` for CLI runs, which is byte-wise what a
        // v8 writer produced — so one serialization covers both readers.
        let report = EstimateReport::new("x", "max_power_mw", &sample_estimate());
        let json = report.to_json();
        assert!(!json.contains("\"job\""), "CLI reports must omit the block");
        let back = EstimateReport::from_json(&json).expect("CLI report parses");
        assert_eq!(back.job, None);
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(EstimateReport::from_json("{not json").is_err());
        assert!(EstimateReport::from_json("{}").is_err()); // missing fields
    }

    #[test]
    fn fields_flattened_correctly() {
        let est = sample_estimate();
        let report = EstimateReport::new("x", "max_power_mw", &est);
        assert_eq!(report.estimate, est.estimate_mw);
        assert_eq!(report.ci_low, est.confidence_interval.0);
        assert_eq!(report.ci_high, est.confidence_interval.1);
        assert_eq!(report.units_used, 2400);
        assert_eq!(report.hyper_estimates.len(), 2);
        assert_eq!(
            report.hyper_estimators,
            [EstimatorKind::Mle, EstimatorKind::Quantile]
        );
        assert_eq!(report.fit_diagnostics.len(), 2);
        assert_eq!(
            report.fit_diagnostics[0].reason,
            crate::health::FitReasonCode::Converged
        );
        assert_eq!(
            report.status,
            RunStatus::Degraded {
                fallback: EstimatorKind::Quantile
            }
        );
        assert_eq!(report.health.source_errors, 3);
    }
}
