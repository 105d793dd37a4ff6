//! Trace replay: parse a JSONL trace back into events, validate its
//! invariants, and aggregate a per-phase time breakdown.
//!
//! This is the read side of [`JsonlSink`](crate::JsonlSink), used by the
//! `trace_breakdown` bench binary (attributing a benchmark regression to a
//! pipeline phase) and by CI (asserting every emitted line is
//! schema-valid and spans nest correctly).

use std::collections::BTreeMap;

use crate::event::{EventKind, EventRecord, SpanKind};
use crate::registry::{MetricsRegistry, MetricsSnapshot};

/// A validation failure, with the 1-based line number where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number in the trace (0 for end-of-trace errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "trace invalid: {}", self.message)
        } else {
            write!(f, "trace line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TraceError {}

/// One `fit_diag` audit event recovered from a trace (schema v2).
#[derive(Debug, Clone, PartialEq)]
pub struct FitDiagEvent {
    /// Hyper-sample index.
    pub k: u64,
    /// Estimator rung label (`mle` or `quantile`).
    pub rung: String,
    /// Typed reason code label.
    pub reason: String,
    /// Mean log-likelihood at the fit optimum, when a fit exists.
    pub log_likelihood: Option<f64>,
    /// KS distance of the batch maxima vs the fitted distribution.
    pub ks_distance: Option<f64>,
    /// Fitted tail shape.
    pub tail_shape: Option<f64>,
}

/// The validated, aggregated view of one trace.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Events parsed.
    pub events: usize,
    /// Deepest span nesting observed.
    pub max_depth: usize,
    /// Everything re-aggregated into a metrics snapshot (per-phase
    /// durations, counter totals, gauge series).
    pub metrics: MetricsSnapshot,
    /// The estimator audit trail, in trace order (empty for v1 traces).
    pub fit_diags: Vec<FitDiagEvent>,
}

impl TraceSummary {
    /// Per-phase share of the `run` phase's total time, in pipeline order.
    /// Phases nest, so shares can exceed 100 % in sum; each one answers
    /// "how much of the run was spent inside this phase".
    pub fn phase_shares(&self) -> Vec<(SpanKind, f64)> {
        let run_ns = self.metrics.phase(SpanKind::Run).total_ns;
        SpanKind::ALL
            .iter()
            .filter(|k| self.metrics.phase(**k).count > 0)
            .map(|&k| {
                let share = if run_ns == 0 {
                    0.0
                } else {
                    self.metrics.phase(k).total_ns as f64 / run_ns as f64
                };
                (k, share)
            })
            .collect()
    }
}

/// Parses and validates a whole trace.
///
/// Checked invariants:
///
/// * every line parses under the current schema version;
/// * `seq` is strictly increasing;
/// * every `span_end` matches an open `span_start` with the same id *and*
///   kind, and ends are properly nested (LIFO) **within each worker
///   lane** — each thread of the pipeline is sequential, but events of
///   different lanes (the optional `worker` attribute; absent means the
///   coordinator lane) may interleave freely in a parallel run's trace;
/// * no span is left open at end of trace.
///
/// [`TraceSummary::max_depth`] is the deepest nesting observed in any
/// single lane.
///
/// # Errors
///
/// The first [`TraceError`] encountered.
pub fn replay<'a, I>(lines: I) -> Result<TraceSummary, TraceError>
where
    I: IntoIterator<Item = &'a str>,
{
    let registry = MetricsRegistry::new();
    // One LIFO stack of open spans per lane (`None` = coordinator lane).
    let mut open: BTreeMap<Option<u64>, Vec<(SpanKind, u64)>> = BTreeMap::new();
    let mut seen_ids: BTreeMap<u64, SpanKind> = BTreeMap::new();
    let mut last_seq: Option<u64> = None;
    let mut events = 0usize;
    let mut max_depth = 0usize;
    let mut fit_diags = Vec::new();

    for (idx, line) in lines.into_iter().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let record = EventRecord::parse_json_line(line).map_err(|message| TraceError {
            line: lineno,
            message,
        })?;
        if let Some(prev) = last_seq {
            if record.seq <= prev {
                return Err(TraceError {
                    line: lineno,
                    message: format!("seq {} not greater than previous {prev}", record.seq),
                });
            }
        }
        last_seq = Some(record.seq);
        match &record.kind {
            EventKind::SpanStart { span, id } => {
                if seen_ids.insert(*id, *span).is_some() {
                    return Err(TraceError {
                        line: lineno,
                        message: format!("span id {id} started twice"),
                    });
                }
                let lane = open.entry(record.worker).or_default();
                lane.push((*span, *id));
                max_depth = max_depth.max(lane.len());
            }
            EventKind::SpanEnd { span, id, .. } => {
                let lane = open.entry(record.worker).or_default();
                match lane.pop() {
                    Some((open_span, open_id)) if open_span == *span && open_id == *id => {}
                    Some((open_span, open_id)) => {
                        return Err(TraceError {
                            line: lineno,
                            message: format!(
                                "span_end {}#{id} does not match innermost open span {}#{open_id}",
                                span.label(),
                                open_span.label()
                            ),
                        });
                    }
                    None => {
                        return Err(TraceError {
                            line: lineno,
                            message: format!("span_end {}#{id} with no open span", span.label()),
                        });
                    }
                }
            }
            EventKind::FitDiag {
                k,
                rung,
                reason,
                log_likelihood,
                ks_distance,
                tail_shape,
            } => {
                fit_diags.push(FitDiagEvent {
                    k: *k,
                    rung: rung.clone(),
                    reason: reason.clone(),
                    log_likelihood: *log_likelihood,
                    ks_distance: *ks_distance,
                    tail_shape: *tail_shape,
                });
            }
            EventKind::Counter { .. } | EventKind::Gauge { .. } => {}
        }
        registry.record(&record);
        events += 1;
    }
    if let Some((span, id)) = open.values().find_map(|lane| lane.last()) {
        return Err(TraceError {
            line: 0,
            message: format!("span {}#{id} never ended", span.label()),
        });
    }
    Ok(TraceSummary {
        events,
        max_depth,
        metrics: registry.snapshot(),
        fit_diags,
    })
}

/// Compares the **deterministic** content of two traces: counter totals,
/// per-phase span counts, gauge series values and the fit-diagnostics
/// audit trail. Wall-clock fields (`t_ns`, span durations) are expressly
/// ignored — two fixed-seed runs of the same build must diff clean even
/// though their timings differ, and a trace diffed against itself is
/// always empty.
///
/// Returns one human-readable line per divergence (empty = zero drift).
#[must_use]
pub fn diff_summaries(a: &TraceSummary, b: &TraceSummary) -> Vec<String> {
    let mut drift = Vec::new();

    let counter_names: std::collections::BTreeSet<&String> = a
        .metrics
        .counters
        .iter()
        .chain(&b.metrics.counters)
        .map(|(n, _)| n)
        .collect();
    for name in counter_names {
        let (va, vb) = (a.metrics.counter(name), b.metrics.counter(name));
        if va != vb {
            drift.push(format!("counter {name}: {va} != {vb}"));
        }
    }

    for kind in SpanKind::ALL {
        let (ca, cb) = (a.metrics.phase(kind).count, b.metrics.phase(kind).count);
        if ca != cb {
            drift.push(format!("phase {} span count: {ca} != {cb}", kind.label()));
        }
    }

    let gauge_names: std::collections::BTreeSet<&String> = a
        .metrics
        .series
        .iter()
        .chain(&b.metrics.series)
        .map(|(n, _)| n)
        .collect();
    for name in gauge_names {
        // Heartbeat gauges are wall-clock measurements, not estimator
        // state; they legitimately differ between identical runs.
        if name.contains("heartbeat") {
            continue;
        }
        let (sa, sb) = (a.metrics.gauge_series(name), b.metrics.gauge_series(name));
        if sa.len() != sb.len() {
            drift.push(format!(
                "gauge {name} series length: {} != {}",
                sa.len(),
                sb.len()
            ));
        } else if let Some(i) = (0..sa.len()).find(|&i| sa[i].to_bits() != sb[i].to_bits()) {
            drift.push(format!("gauge {name}[{i}]: {:?} != {:?}", sa[i], sb[i]));
        }
    }

    if a.fit_diags.len() != b.fit_diags.len() {
        drift.push(format!(
            "fit_diag count: {} != {}",
            a.fit_diags.len(),
            b.fit_diags.len()
        ));
    } else if let Some(i) = (0..a.fit_diags.len()).find(|&i| a.fit_diags[i] != b.fit_diags[i]) {
        drift.push(format!(
            "fit_diag[{i}]: {:?} != {:?}",
            a.fit_diags[i], b.fit_diags[i]
        ));
    }

    drift
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TRACE_SCHEMA_VERSION;

    fn line(seq: u64, body: &str) -> String {
        format!("{{\"v\":{TRACE_SCHEMA_VERSION},\"seq\":{seq},\"t_ns\":{seq},{body}}}")
    }

    #[test]
    fn valid_trace_replays() {
        let lines = [
            line(0, "\"type\":\"span_start\",\"span\":\"run\",\"id\":0"),
            line(
                1,
                "\"type\":\"span_start\",\"span\":\"hyper_sample\",\"id\":1",
            ),
            line(
                2,
                "\"type\":\"counter\",\"name\":\"vector_pairs_simulated\",\"delta\":300",
            ),
            line(
                3,
                "\"type\":\"span_end\",\"span\":\"hyper_sample\",\"id\":1,\"elapsed_ns\":50",
            ),
            line(
                4,
                "\"type\":\"gauge\",\"name\":\"running_mean_mw\",\"value\":9.5",
            ),
            line(
                5,
                "\"type\":\"span_end\",\"span\":\"run\",\"id\":0,\"elapsed_ns\":100",
            ),
            String::new(), // blank lines tolerated
        ];
        let summary = replay(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(summary.events, 6);
        assert_eq!(summary.max_depth, 2);
        assert_eq!(summary.metrics.counter("vector_pairs_simulated"), 300);
        assert_eq!(summary.metrics.phase(SpanKind::Run).total_ns, 100);
        let shares = summary.phase_shares();
        assert_eq!(shares[0].0, SpanKind::Run);
        assert!((shares[0].1 - 1.0).abs() < 1e-12);
        assert!((shares[1].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unmatched_end_rejected() {
        let lines = [line(
            0,
            "\"type\":\"span_end\",\"span\":\"run\",\"id\":0,\"elapsed_ns\":1",
        )];
        let err = replay(lines.iter().map(String::as_str)).unwrap_err();
        assert!(err.message.contains("no open span"), "{err}");
        assert_eq!(err.line, 1);
    }

    #[test]
    fn crossed_spans_rejected() {
        let lines = [
            line(0, "\"type\":\"span_start\",\"span\":\"run\",\"id\":0"),
            line(1, "\"type\":\"span_start\",\"span\":\"fit\",\"id\":1"),
            line(
                2,
                "\"type\":\"span_end\",\"span\":\"run\",\"id\":0,\"elapsed_ns\":1",
            ),
        ];
        let err = replay(lines.iter().map(String::as_str)).unwrap_err();
        assert!(err.message.contains("does not match"), "{err}");
    }

    #[test]
    fn interleaved_worker_lanes_validate() {
        // Two workers' hyper-sample spans cross each other in trace order,
        // but each lane nests on its own — valid for a parallel run.
        let lines = [
            line(0, "\"type\":\"span_start\",\"span\":\"run\",\"id\":0"),
            line(
                1,
                "\"type\":\"span_start\",\"span\":\"hyper_sample\",\"id\":1,\"worker\":0",
            ),
            line(
                2,
                "\"type\":\"span_start\",\"span\":\"hyper_sample\",\"id\":2,\"worker\":1",
            ),
            line(
                3,
                "\"type\":\"span_start\",\"span\":\"fit\",\"id\":3,\"worker\":0",
            ),
            line(
                4,
                "\"type\":\"span_end\",\"span\":\"fit\",\"id\":3,\"elapsed_ns\":5,\"worker\":0",
            ),
            line(
                5,
                "\"type\":\"span_end\",\"span\":\"hyper_sample\",\"id\":1,\"elapsed_ns\":9,\"worker\":0",
            ),
            line(
                6,
                "\"type\":\"span_end\",\"span\":\"hyper_sample\",\"id\":2,\"elapsed_ns\":9,\"worker\":1",
            ),
            line(
                7,
                "\"type\":\"span_end\",\"span\":\"run\",\"id\":0,\"elapsed_ns\":20",
            ),
        ];
        let summary = replay(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(summary.events, 8);
        // Deepest single lane: worker 0's hyper_sample + fit.
        assert_eq!(summary.max_depth, 2);
        assert_eq!(summary.metrics.phase(SpanKind::HyperSample).count, 2);
    }

    #[test]
    fn crossed_spans_within_one_lane_rejected() {
        let lines = [
            line(
                0,
                "\"type\":\"span_start\",\"span\":\"hyper_sample\",\"id\":0,\"worker\":3",
            ),
            line(
                1,
                "\"type\":\"span_start\",\"span\":\"fit\",\"id\":1,\"worker\":3",
            ),
            line(
                2,
                "\"type\":\"span_end\",\"span\":\"hyper_sample\",\"id\":0,\"elapsed_ns\":1,\"worker\":3",
            ),
        ];
        let err = replay(lines.iter().map(String::as_str)).unwrap_err();
        assert!(err.message.contains("does not match"), "{err}");
    }

    #[test]
    fn dangling_span_rejected() {
        let lines = [line(0, "\"type\":\"span_start\",\"span\":\"run\",\"id\":0")];
        let err = replay(lines.iter().map(String::as_str)).unwrap_err();
        assert!(err.message.contains("never ended"), "{err}");
        assert_eq!(err.line, 0);
    }

    #[test]
    fn non_monotone_seq_rejected() {
        let lines = [
            line(5, "\"type\":\"counter\",\"name\":\"c\",\"delta\":1"),
            line(5, "\"type\":\"counter\",\"name\":\"c\",\"delta\":1"),
        ];
        let err = replay(lines.iter().map(String::as_str)).unwrap_err();
        assert!(err.message.contains("seq"), "{err}");
    }

    #[test]
    fn duplicate_span_id_rejected() {
        let lines = [
            line(0, "\"type\":\"span_start\",\"span\":\"run\",\"id\":0"),
            line(
                1,
                "\"type\":\"span_end\",\"span\":\"run\",\"id\":0,\"elapsed_ns\":1",
            ),
            line(2, "\"type\":\"span_start\",\"span\":\"run\",\"id\":0"),
        ];
        let err = replay(lines.iter().map(String::as_str)).unwrap_err();
        assert!(err.message.contains("started twice"), "{err}");
    }

    #[test]
    fn fit_diag_events_collect_into_audit_trail() {
        let lines = [
            line(
                0,
                "\"type\":\"fit_diag\",\"k\":0,\"rung\":\"mle\",\"reason\":\"converged\",\
                 \"log_likelihood\":-1.5,\"ks_distance\":0.2,\"tail_shape\":3.1",
            ),
            line(
                1,
                "\"type\":\"fit_diag\",\"k\":1,\"rung\":\"quantile\",\"reason\":\"no_convergence\"",
            ),
        ];
        let summary = replay(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(summary.fit_diags.len(), 2);
        assert_eq!(summary.fit_diags[0].rung, "mle");
        assert_eq!(summary.fit_diags[0].tail_shape, Some(3.1));
        assert_eq!(summary.fit_diags[1].rung, "quantile");
        assert_eq!(summary.fit_diags[1].ks_distance, None);
    }

    #[test]
    fn self_diff_is_zero_drift() {
        let lines = [
            line(0, "\"type\":\"span_start\",\"span\":\"run\",\"id\":0"),
            line(1, "\"type\":\"counter\",\"name\":\"c\",\"delta\":7"),
            line(
                2,
                "\"type\":\"gauge\",\"name\":\"running_mean_mw\",\"value\":9.5",
            ),
            line(
                3,
                "\"type\":\"fit_diag\",\"k\":0,\"rung\":\"mle\",\"reason\":\"converged\"",
            ),
            line(
                4,
                "\"type\":\"span_end\",\"span\":\"run\",\"id\":0,\"elapsed_ns\":100",
            ),
        ];
        let summary = replay(lines.iter().map(String::as_str)).unwrap();
        assert!(diff_summaries(&summary, &summary).is_empty());
    }

    #[test]
    fn diff_ignores_timings_but_catches_value_drift() {
        let base = [
            line(0, "\"type\":\"span_start\",\"span\":\"run\",\"id\":0"),
            line(1, "\"type\":\"counter\",\"name\":\"c\",\"delta\":7"),
            line(
                2,
                "\"type\":\"span_end\",\"span\":\"run\",\"id\":0,\"elapsed_ns\":100",
            ),
        ];
        // Same deterministic content, wildly different timings.
        let slower = [
            format!(
                "{{\"v\":{TRACE_SCHEMA_VERSION},\"seq\":0,\"t_ns\":999,\
                 \"type\":\"span_start\",\"span\":\"run\",\"id\":0}}"
            ),
            format!(
                "{{\"v\":{TRACE_SCHEMA_VERSION},\"seq\":1,\"t_ns\":1999,\
                 \"type\":\"counter\",\"name\":\"c\",\"delta\":7}}"
            ),
            format!(
                "{{\"v\":{TRACE_SCHEMA_VERSION},\"seq\":2,\"t_ns\":2999,\
                 \"type\":\"span_end\",\"span\":\"run\",\"id\":0,\"elapsed_ns\":12345}}"
            ),
        ];
        let a = replay(base.iter().map(String::as_str)).unwrap();
        let b = replay(slower.iter().map(String::as_str)).unwrap();
        assert!(diff_summaries(&a, &b).is_empty());

        // A diverging counter is caught.
        let diverged = [
            line(0, "\"type\":\"span_start\",\"span\":\"run\",\"id\":0"),
            line(1, "\"type\":\"counter\",\"name\":\"c\",\"delta\":8"),
            line(
                2,
                "\"type\":\"span_end\",\"span\":\"run\",\"id\":0,\"elapsed_ns\":100",
            ),
        ];
        let c = replay(diverged.iter().map(String::as_str)).unwrap();
        let drift = diff_summaries(&a, &c);
        assert_eq!(drift.len(), 1);
        assert!(drift[0].contains("counter c"), "{}", drift[0]);
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let lines = [
            line(0, "\"type\":\"counter\",\"name\":\"c\",\"delta\":1"),
            "garbage".to_string(),
        ];
        let err = replay(lines.iter().map(String::as_str)).unwrap_err();
        assert_eq!(err.line, 2);
    }
}
