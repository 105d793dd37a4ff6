//! Typed telemetry events and their JSONL wire format.
//!
//! One event is one line of JSON, written and read by the workspace codec
//! ([`crate::json`]). The schema is flat — string, integer and float
//! fields only — so any JSON tool (`jq`, `serde_json`) can consume the
//! trace too. Integers are exact over the full `u64` range.
//!
//! Example lines:
//!
//! ```json
//! {"v":1,"seq":0,"t_ns":1201,"type":"span_start","span":"run","id":0}
//! {"v":1,"seq":5,"t_ns":90412,"type":"counter","name":"vector_pairs_simulated","delta":300}
//! {"v":1,"seq":6,"t_ns":90533,"type":"gauge","name":"running_mean_mw","value":9.87}
//! {"v":1,"seq":9,"t_ns":120985,"type":"span_end","span":"run","id":0,"elapsed_ns":119784}
//! ```
//!
//! Non-finite gauge values (the relative half-width is `+∞` before
//! `k = 2`) are encoded as JSON `null` and decoded back to
//! [`f64::INFINITY`].
//!
//! Schema history:
//!
//! * **v1** — span/counter/gauge events, optional `worker` lane field.
//! * **v2** — adds the `fit_diag` event (per-hyper-sample estimator audit
//!   trail: rung, reason code, log-likelihood, KS distance, tail shape).
//!   v1 traces still parse; new traces are stamped v2.

use crate::json::{self, Decode, Encode, Fields, Json, JsonWriter};

/// Version stamped into every trace line; bumped when new event types are
/// added. The parser accepts every version back to
/// [`TRACE_SCHEMA_MIN_VERSION`].
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// Oldest trace schema version the parser still accepts.
pub const TRACE_SCHEMA_MIN_VERSION: u32 = 1;

/// The instrumented phases of the estimation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One whole estimation run (one `Session::run`).
    Run,
    /// One hyper-sample (draw + fit + possible fallback).
    HyperSample,
    /// Drawing readings from the power source (simulation time).
    Simulate,
    /// The reversed-Weibull profile MLE.
    Fit,
    /// The degraded-mode fallback to the empirical quantile.
    Fallback,
    /// Persisting a checkpoint.
    Checkpoint,
}

impl SpanKind {
    /// All kinds, in display order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Run,
        SpanKind::HyperSample,
        SpanKind::Simulate,
        SpanKind::Fit,
        SpanKind::Fallback,
        SpanKind::Checkpoint,
    ];

    /// The stable wire label of this span kind.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::HyperSample => "hyper_sample",
            SpanKind::Simulate => "simulate",
            SpanKind::Fit => "fit",
            SpanKind::Fallback => "fallback",
            SpanKind::Checkpoint => "checkpoint",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(label: &str) -> Option<SpanKind> {
        SpanKind::ALL.iter().copied().find(|k| k.label() == label)
    }
}

/// The payload of one telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A phase began. `id` pairs it with its [`SpanEnd`](EventKind::SpanEnd).
    SpanStart {
        /// The phase.
        span: SpanKind,
        /// Unique (per run) span id.
        id: u64,
    },
    /// A phase ended.
    SpanEnd {
        /// The phase.
        span: SpanKind,
        /// Id of the matching [`SpanStart`](EventKind::SpanStart).
        id: u64,
        /// Monotonic duration of the span in nanoseconds.
        elapsed_ns: u64,
    },
    /// A monotone counter increased by `delta`.
    Counter {
        /// Counter name (stable, snake_case).
        name: String,
        /// Increment (counters never decrease).
        delta: u64,
    },
    /// An instantaneous measurement.
    Gauge {
        /// Gauge name (stable, snake_case).
        name: String,
        /// The measured value.
        value: f64,
    },
    /// Per-hyper-sample estimator audit record (schema v2): which rung of
    /// the estimator ladder produced hyper-sample `k`, why, and how well
    /// the Weibull fit matched the batch. The rung and reason are plain
    /// strings on the wire (this crate is dependency-free and cannot know
    /// the estimator's typed enums); the diagnostics are optional because
    /// fallback rungs have no Weibull fit to report.
    FitDiag {
        /// Hyper-sample index (0-based commit order).
        k: u64,
        /// Estimator rung label (`mle` or `quantile`).
        rung: String,
        /// Typed reason code label (e.g. `converged`, `degenerate_maxima`).
        reason: String,
        /// Mean log-likelihood at the fit optimum, when a fit exists.
        log_likelihood: Option<f64>,
        /// Kolmogorov–Smirnov distance of the batch maxima vs the fitted
        /// distribution, when a fit exists.
        ks_distance: Option<f64>,
        /// Fitted Weibull tail shape `α̂` (MLE rung only).
        tail_shape: Option<f64>,
    },
}

/// One event as emitted to sinks: payload plus sequencing metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Monotonically increasing sequence number (0-based, per handle).
    pub seq: u64,
    /// Nanoseconds since the telemetry handle's epoch (monotonic clock).
    pub t_ns: u64,
    /// Worker lane that emitted the event (`None` for the coordinator /
    /// single-threaded pipeline). Stamped by worker-scoped handles from
    /// [`Telemetry::for_worker`](crate::Telemetry::for_worker); spans from
    /// different lanes may interleave in the trace but each lane nests on
    /// its own. Encoded as an optional `"worker"` field, so v1 consumers
    /// that ignore unknown fields keep working.
    pub worker: Option<u64>,
    /// The event payload.
    pub kind: EventKind,
}

impl EventRecord {
    /// Encodes this record as one line of JSON (no trailing newline).
    pub fn to_json_line(&self) -> String {
        json::to_string(self)
    }

    /// Parses one trace line back into an [`EventRecord`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem: malformed
    /// JSON, a wrong schema version, or missing/mistyped fields.
    pub fn parse_json_line(line: &str) -> Result<EventRecord, String> {
        json::from_str(line)
    }
}

impl Encode for EventRecord {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("v", &TRACE_SCHEMA_VERSION);
        w.field("seq", &self.seq);
        w.field("t_ns", &self.t_ns);
        match &self.kind {
            EventKind::SpanStart { span, id } => {
                w.field("type", "span_start");
                w.field("span", span.label());
                w.field("id", id);
            }
            EventKind::SpanEnd {
                span,
                id,
                elapsed_ns,
            } => {
                w.field("type", "span_end");
                w.field("span", span.label());
                w.field("id", id);
                w.field("elapsed_ns", elapsed_ns);
            }
            EventKind::Counter { name, delta } => {
                w.field("type", "counter");
                w.field("name", name);
                w.field("delta", delta);
            }
            EventKind::Gauge { name, value } => {
                w.field("type", "gauge");
                w.field("name", name);
                w.field("value", value);
            }
            EventKind::FitDiag {
                k,
                rung,
                reason,
                log_likelihood,
                ks_distance,
                tail_shape,
            } => {
                w.field("type", "fit_diag");
                w.field("k", k);
                w.field("rung", rung);
                w.field("reason", reason);
                // Absent diagnostics are omitted entirely (not `null`), so
                // every field that is present carries a real number.
                for (key, value) in [
                    ("log_likelihood", log_likelihood),
                    ("ks_distance", ks_distance),
                    ("tail_shape", tail_shape),
                ] {
                    if let Some(v) = value {
                        w.field(key, v);
                    }
                }
            }
        }
        if let Some(worker) = &self.worker {
            w.field("worker", worker);
        }
        w.end_object();
    }
}

impl Decode for EventRecord {
    fn decode(value: &Json) -> Result<Self, String> {
        let fields = Fields::of(value)?;
        let v: u64 = fields.req("v")?;
        if !(u64::from(TRACE_SCHEMA_MIN_VERSION)..=u64::from(TRACE_SCHEMA_VERSION)).contains(&v) {
            return Err(format!(
                "trace schema version {v} outside supported range \
                 {TRACE_SCHEMA_MIN_VERSION}..={TRACE_SCHEMA_VERSION}"
            ));
        }
        let seq = fields.req("seq")?;
        let t_ns = fields.req("t_ns")?;
        let worker = fields.or("worker", None)?;
        let span = || -> Result<SpanKind, String> {
            let label: String = fields.req("span")?;
            SpanKind::from_label(&label).ok_or_else(|| format!("unknown span kind `{label}`"))
        };
        let kind = match fields.req::<String>("type")?.as_str() {
            "span_start" => EventKind::SpanStart {
                span: span()?,
                id: fields.req("id")?,
            },
            "span_end" => EventKind::SpanEnd {
                span: span()?,
                id: fields.req("id")?,
                elapsed_ns: fields.req("elapsed_ns")?,
            },
            "counter" => EventKind::Counter {
                name: fields.req("name")?,
                delta: fields.req("delta")?,
            },
            // The member must be present; a `null` one is a non-finite
            // gauge, which reads back as `+∞` (not the NaN a bare `f64`
            // member decodes to).
            "gauge" => EventKind::Gauge {
                name: fields.req("name")?,
                value: fields.req::<Option<f64>>("value")?.unwrap_or(f64::INFINITY),
            },
            // Optional diagnostics: absent or `null` → `None`.
            "fit_diag" => EventKind::FitDiag {
                k: fields.req("k")?,
                rung: fields.req("rung")?,
                reason: fields.req("reason")?,
                log_likelihood: fields.or("log_likelihood", None)?,
                ks_distance: fields.or("ks_distance", None)?,
                tail_shape: fields.or("tail_shape", None)?,
            },
            other => return Err(format!("unknown event type `{other}`")),
        };
        Ok(EventRecord {
            seq,
            t_ns,
            worker,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_labels_roundtrip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(SpanKind::from_label("nope"), None);
    }

    #[test]
    fn events_roundtrip_through_jsonl() {
        let records = [
            EventRecord {
                seq: 0,
                t_ns: 12,
                worker: None,
                kind: EventKind::SpanStart {
                    span: SpanKind::Run,
                    id: 0,
                },
            },
            EventRecord {
                seq: 1,
                t_ns: 99,
                worker: None,
                kind: EventKind::Counter {
                    name: "vector_pairs_simulated".to_string(),
                    delta: 300,
                },
            },
            EventRecord {
                seq: 2,
                t_ns: 100,
                worker: None,
                kind: EventKind::Gauge {
                    name: "running_mean_mw".to_string(),
                    value: 9.875,
                },
            },
            EventRecord {
                seq: 3,
                t_ns: 110,
                worker: None,
                kind: EventKind::SpanEnd {
                    span: SpanKind::Run,
                    id: 0,
                    elapsed_ns: 98,
                },
            },
            // Integers stay exact beyond 2⁵³, where an f64 would round.
            EventRecord {
                seq: 4,
                t_ns: (1 << 53) + 1,
                worker: None,
                kind: EventKind::Counter {
                    name: "hyper_samples".to_string(),
                    delta: 1,
                },
            },
        ];
        for r in &records {
            let line = r.to_json_line();
            assert!(line.contains("\"v\":2"), "{line}");
            let back = EventRecord::parse_json_line(&line).expect(&line);
            assert_eq!(&back, r);
        }
    }

    #[test]
    fn fit_diag_roundtrips_with_and_without_diagnostics() {
        let full = EventRecord {
            seq: 8,
            t_ns: 400,
            worker: Some(1),
            kind: EventKind::FitDiag {
                k: 3,
                rung: "mle".to_string(),
                reason: "converged".to_string(),
                log_likelihood: Some(-1.25),
                ks_distance: Some(0.1875),
                tail_shape: Some(3.5),
            },
        };
        let line = full.to_json_line();
        assert!(line.contains("\"type\":\"fit_diag\""), "{line}");
        assert!(line.contains("\"ks_distance\":0.1875"), "{line}");
        assert_eq!(EventRecord::parse_json_line(&line).unwrap(), full);

        // A fallback rung has no fit: the optional fields are omitted.
        let bare = EventRecord {
            seq: 9,
            t_ns: 500,
            worker: None,
            kind: EventKind::FitDiag {
                k: 4,
                rung: "quantile".to_string(),
                reason: "no_convergence".to_string(),
                log_likelihood: None,
                ks_distance: None,
                tail_shape: None,
            },
        };
        let line = bare.to_json_line();
        assert!(!line.contains("log_likelihood"), "{line}");
        assert!(!line.contains("null"), "{line}");
        assert_eq!(EventRecord::parse_json_line(&line).unwrap(), bare);
    }

    #[test]
    fn v1_trace_lines_still_parse() {
        let line = "{\"v\":1,\"seq\":0,\"t_ns\":0,\"type\":\"counter\",\"name\":\"c\",\"delta\":1}";
        let back = EventRecord::parse_json_line(line).unwrap();
        assert_eq!(
            back.kind,
            EventKind::Counter {
                name: "c".to_string(),
                delta: 1
            }
        );
    }

    #[test]
    fn non_finite_gauge_encodes_as_null() {
        let r = EventRecord {
            seq: 7,
            t_ns: 1,
            worker: None,
            kind: EventKind::Gauge {
                name: "ci_relative_half_width".to_string(),
                value: f64::INFINITY,
            },
        };
        let line = r.to_json_line();
        assert!(line.contains("\"value\":null"), "{line}");
        let back = EventRecord::parse_json_line(&line).unwrap();
        match back.kind {
            EventKind::Gauge { value, .. } => assert_eq!(value, f64::INFINITY),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn gauge_values_roundtrip_bit_exactly() {
        for v in [0.0, -1.5, 1.0 / 3.0, 1e-300, 123_456_789.123_456] {
            let r = EventRecord {
                seq: 0,
                t_ns: 0,
                worker: None,
                kind: EventKind::Gauge {
                    name: "g".to_string(),
                    value: v,
                },
            };
            match EventRecord::parse_json_line(&r.to_json_line())
                .unwrap()
                .kind
            {
                EventKind::Gauge { value, .. } => assert_eq!(value.to_bits(), v.to_bits()),
                other => panic!("wrong kind: {other:?}"),
            }
        }
    }

    #[test]
    fn worker_attribute_roundtrips_and_stays_optional() {
        let r = EventRecord {
            seq: 4,
            t_ns: 9,
            worker: Some(2),
            kind: EventKind::SpanStart {
                span: SpanKind::HyperSample,
                id: 11,
            },
        };
        let line = r.to_json_line();
        assert!(line.contains("\"worker\":2"), "{line}");
        assert_eq!(EventRecord::parse_json_line(&line).unwrap(), r);
        // Untagged lines (all pre-existing traces) parse to `None`.
        let plain =
            "{\"v\":1,\"seq\":0,\"t_ns\":0,\"type\":\"span_start\",\"span\":\"run\",\"id\":0}";
        assert_eq!(EventRecord::parse_json_line(plain).unwrap().worker, None);
        // A mistyped worker field is rejected.
        let bad = "{\"v\":1,\"seq\":0,\"t_ns\":0,\"type\":\"counter\",\"name\":\"c\",\"delta\":1,\"worker\":\"x\"}";
        assert!(EventRecord::parse_json_line(bad).is_err());
    }

    #[test]
    fn string_escapes_survive() {
        let r = EventRecord {
            seq: 0,
            t_ns: 0,
            worker: None,
            kind: EventKind::Counter {
                name: "weird \"name\"\\with\nescapes".to_string(),
                delta: 1,
            },
        };
        let back = EventRecord::parse_json_line(&r.to_json_line()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(EventRecord::parse_json_line("not json").is_err());
        assert!(EventRecord::parse_json_line("{}").is_err());
        assert!(EventRecord::parse_json_line("{\"v\":1}").is_err());
        // Wrong schema version.
        let line =
            "{\"v\":999,\"seq\":0,\"t_ns\":0,\"type\":\"counter\",\"name\":\"x\",\"delta\":1}";
        let err = EventRecord::parse_json_line(line).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
        // Unknown span.
        let line =
            "{\"v\":1,\"seq\":0,\"t_ns\":0,\"type\":\"span_start\",\"span\":\"warp\",\"id\":0}";
        assert!(EventRecord::parse_json_line(line).is_err());
        // Trailing garbage.
        assert!(EventRecord::parse_json_line("{\"v\":1} extra").is_err());
    }
}
