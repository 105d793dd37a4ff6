//! Error type for the estimation engine.

use std::fmt;

use mpe_sim::SimError;
use mpe_stats::StatsError;

use crate::estimator::EstimateHistoryEntry;
use crate::serve::json::{Encode, JsonWriter};
use crate::supervise::StopReason;

/// Error raised by the maximum-power estimation engine.
#[derive(Debug, Clone, PartialEq)]
pub enum MaxPowerError {
    /// The configuration was internally inconsistent.
    InvalidConfig {
        /// Explanation.
        message: String,
    },
    /// The iterative procedure hit its hyper-sample cap without meeting the
    /// requested error/confidence target. The partial result is included so
    /// callers can decide whether it is good enough — not just the point
    /// estimate but the observed maximum (a hard lower bound on the true
    /// maximum), the units spent, and the full convergence history.
    ///
    /// Note that [`Session::run`](crate::Session::run) no longer *raises*
    /// this for a capped run (it returns the partial estimate with
    /// [`RunStatus::BudgetExhausted`](crate::RunStatus)); the variant
    /// remains for callers that require convergence, e.g. the
    /// average-power estimator.
    NotConverged {
        /// Best estimate at the cap (mW).
        estimate_mw: f64,
        /// Relative half-width achieved.
        achieved_relative_error: f64,
        /// Hyper-samples consumed.
        hyper_samples: usize,
        /// Largest reading observed before giving up (mW) — a certain
        /// lower bound on the quantity being estimated.
        observed_max_mw: f64,
        /// Vector pairs (or samples) consumed before giving up.
        units_used: usize,
        /// Per-iteration convergence trace, for diagnosing *why* the run
        /// stalled (oscillating mean, slowly shrinking interval, …).
        history: Vec<EstimateHistoryEntry>,
    },
    /// A power source failed transiently (an injected fault, a crashed
    /// simulator process, a stalled measurement past its deadline).
    Source {
        /// Explanation from the source.
        message: String,
    },
    /// The source returned a reading the engine cannot use — NaN, ±∞, or
    /// below [`EstimationConfig::min_reading_mw`](crate::EstimationConfig)
    /// — while [`SamplePolicy::Fail`](crate::SamplePolicy) was in force.
    InvalidReading {
        /// The offending reading (mW).
        value_mw: f64,
    },
    /// A [`SamplePolicy`](crate::SamplePolicy) ran out of tolerance while
    /// generating a single hyper-sample.
    SamplePolicyExhausted {
        /// The policy that gave up (`"skip"` or `"retry"`).
        policy: &'static str,
        /// Failures/discards counted when the cap was exceeded.
        count: usize,
        /// The configured cap.
        limit: usize,
    },
    /// A checkpoint could not be resumed (version, config or seed
    /// mismatch, or corrupt contents).
    CheckpointMismatch {
        /// Explanation.
        message: String,
    },
    /// Run supervision stopped the run before it had committed enough
    /// hyper-samples (fewer than two) to form any interval — there is no
    /// valid partial estimate to return. With two or more committed the
    /// engine returns the partial estimate tagged
    /// [`RunStatus::Interrupted`](crate::RunStatus::Interrupted) instead
    /// of raising this.
    Interrupted {
        /// What stopped the run.
        reason: StopReason,
        /// Hyper-samples committed before the stop.
        hyper_samples: usize,
    },
    /// A worker panicked repeatedly on the same hyper-sample index: the
    /// panic is deterministic (hyper-samples are pure functions of config,
    /// seed and index), so requeueing cannot help and the run fails hard.
    Panicked {
        /// Where the panic happened, including the panic message.
        context: String,
        /// Panics observed for this unit of work before escalating.
        panics: usize,
    },
    /// A simulation call inside a power source failed.
    Sim(SimError),
    /// A statistical routine failed.
    Stats(StatsError),
}

impl fmt::Display for MaxPowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaxPowerError::InvalidConfig { message } => {
                write!(f, "invalid estimation config: {message}")
            }
            MaxPowerError::NotConverged {
                estimate_mw,
                achieved_relative_error,
                hyper_samples,
                observed_max_mw,
                units_used,
                ..
            } => write!(
                f,
                "estimation did not converge after {hyper_samples} hyper-samples \
                 (best {estimate_mw:.4} mW at ±{:.2}%; observed max {observed_max_mw:.4} mW \
                 after {units_used} units)",
                100.0 * achieved_relative_error
            ),
            MaxPowerError::Source { message } => {
                write!(f, "power source failure: {message}")
            }
            MaxPowerError::InvalidReading { value_mw } => {
                write!(
                    f,
                    "power source returned an unusable reading: {value_mw} mW"
                )
            }
            MaxPowerError::SamplePolicyExhausted {
                policy,
                count,
                limit,
            } => write!(
                f,
                "sample policy '{policy}' exhausted: {count} failures against a cap of {limit} \
                 in one hyper-sample"
            ),
            MaxPowerError::CheckpointMismatch { message } => {
                write!(f, "checkpoint cannot be resumed: {message}")
            }
            MaxPowerError::Interrupted {
                reason,
                hyper_samples,
            } => write!(
                f,
                "run interrupted ({reason}) after {hyper_samples} committed hyper-samples — \
                 too few for a partial estimate"
            ),
            MaxPowerError::Panicked { context, panics } => {
                write!(f, "estimation panicked ({panics} time(s)): {context}")
            }
            MaxPowerError::Sim(e) => write!(f, "simulation failure: {e}"),
            MaxPowerError::Stats(e) => write!(f, "statistics failure: {e}"),
        }
    }
}

impl std::error::Error for MaxPowerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MaxPowerError::Sim(e) => Some(e),
            MaxPowerError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for MaxPowerError {
    fn from(e: SimError) -> Self {
        MaxPowerError::Sim(e)
    }
}

impl From<StatsError> for MaxPowerError {
    fn from(e: StatsError) -> Self {
        MaxPowerError::Stats(e)
    }
}

/// Coarse failure classification shared by every `mpe` surface.
///
/// The CLI maps a kind to its process exit code and the HTTP server maps
/// the *same* kind to a status line, so a given failure is reported
/// consistently no matter how the engine was invoked. The exit codes are
/// 2 for a bad invocation and 1 for everything else; `NotFound` and `Busy`
/// only arise over HTTP but still carry a CLI mapping for completeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The request itself was malformed: unknown flag, unparseable value,
    /// invalid configuration. Retrying without changing the request cannot
    /// succeed.
    Usage,
    /// The referenced resource (a job id) does not exist.
    NotFound,
    /// The server is at capacity; the request was rejected before any work
    /// was done and may be retried later.
    Busy,
    /// The run was accepted but failed while executing.
    Runtime,
}

impl FailureKind {
    /// Process exit code the CLI uses for this kind.
    pub fn exit_code(self) -> u8 {
        match self {
            FailureKind::Usage => 2,
            FailureKind::NotFound | FailureKind::Busy | FailureKind::Runtime => 1,
        }
    }

    /// HTTP status code and reason phrase for this kind.
    pub fn http_status(self) -> (u16, &'static str) {
        match self {
            FailureKind::Usage => (400, "Bad Request"),
            FailureKind::NotFound => (404, "Not Found"),
            FailureKind::Busy => (429, "Too Many Requests"),
            FailureKind::Runtime => (500, "Internal Server Error"),
        }
    }

    /// Stable lowercase label used in both CLI stderr and HTTP bodies.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Usage => "usage",
            FailureKind::NotFound => "not_found",
            FailureKind::Busy => "busy",
            FailureKind::Runtime => "runtime",
        }
    }
}

/// A classified, renderable failure: the one error shape every `mpe`
/// surface reports. The CLI prints [`Display`](std::fmt::Display) to
/// stderr and exits with [`FailureKind::exit_code`]; the server sends
/// [`AppError::to_json_body`] with [`FailureKind::http_status`]. Both
/// carry the same `kind` label and message, so a failure looks the same
/// in a terminal and in an HTTP client.
#[derive(Debug, Clone, PartialEq)]
pub struct AppError {
    /// Classification driving exit code / HTTP status.
    pub kind: FailureKind,
    /// Human-readable explanation.
    pub message: String,
}

impl AppError {
    /// A [`FailureKind::Usage`] error.
    pub fn usage(message: impl Into<String>) -> Self {
        AppError {
            kind: FailureKind::Usage,
            message: message.into(),
        }
    }

    /// A [`FailureKind::NotFound`] error.
    pub fn not_found(message: impl Into<String>) -> Self {
        AppError {
            kind: FailureKind::NotFound,
            message: message.into(),
        }
    }

    /// A [`FailureKind::Busy`] error.
    pub fn busy(message: impl Into<String>) -> Self {
        AppError {
            kind: FailureKind::Busy,
            message: message.into(),
        }
    }

    /// A [`FailureKind::Runtime`] error.
    pub fn runtime(message: impl Into<String>) -> Self {
        AppError {
            kind: FailureKind::Runtime,
            message: message.into(),
        }
    }

    /// The structured JSON body served over HTTP, identical in content to
    /// the CLI stderr rendering: `{"error":{"kind":…,"message":…}}`.
    pub fn to_json_body(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.field("error", self);
        w.end_object();
        w.finish() + "\n"
    }
}

/// `{"kind":…,"message":…}` — the error object inside HTTP bodies, job
/// status documents and spool records.
impl Encode for AppError {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("kind", self.kind.label());
        w.field("message", &self.message);
        w.end_object();
    }
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]: {}", self.kind.label(), self.message)
    }
}

impl std::error::Error for AppError {}

impl From<MaxPowerError> for AppError {
    fn from(e: MaxPowerError) -> Self {
        let kind = match e {
            MaxPowerError::InvalidConfig { .. } => FailureKind::Usage,
            _ => FailureKind::Runtime,
        };
        AppError {
            kind,
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = MaxPowerError::InvalidConfig {
            message: "n too small".into(),
        };
        assert!(e.to_string().contains("n too small"));
        let e = MaxPowerError::NotConverged {
            estimate_mw: 5.0,
            achieved_relative_error: 0.07,
            hyper_samples: 30,
            observed_max_mw: 4.2,
            units_used: 9000,
            history: Vec::new(),
        };
        assert!(e.to_string().contains("30"));
        assert!(e.to_string().contains("7.00%"));
        assert!(e.to_string().contains("4.2"));
        assert!(e.to_string().contains("9000"));
        let e = MaxPowerError::Source {
            message: "injected transient fault".into(),
        };
        assert!(e.to_string().contains("injected transient fault"));
        let e = MaxPowerError::InvalidReading { value_mw: f64::NAN };
        assert!(e.to_string().contains("NaN"));
        let e = MaxPowerError::SamplePolicyExhausted {
            policy: "skip",
            count: 11,
            limit: 10,
        };
        assert!(e.to_string().contains("skip"));
        assert!(e.to_string().contains("11"));
        let e = MaxPowerError::CheckpointMismatch {
            message: "seed differs".into(),
        };
        assert!(e.to_string().contains("seed differs"));
        let e = MaxPowerError::Interrupted {
            reason: StopReason::DeadlineExceeded,
            hyper_samples: 1,
        };
        assert!(e.to_string().contains("deadline exceeded"));
        assert!(e.to_string().contains("1 committed"));
        let e = MaxPowerError::Panicked {
            context: "hyper-sample 4: index overflow".into(),
            panics: 3,
        };
        assert!(e.to_string().contains("hyper-sample 4"));
        assert!(e.to_string().contains("3 time(s)"));
    }

    #[test]
    fn failure_kinds_map_to_stable_exit_codes_and_statuses() {
        assert_eq!(FailureKind::Usage.exit_code(), 2);
        assert_eq!(FailureKind::Runtime.exit_code(), 1);
        assert_eq!(FailureKind::Usage.http_status().0, 400);
        assert_eq!(FailureKind::NotFound.http_status().0, 404);
        assert_eq!(FailureKind::Busy.http_status().0, 429);
        assert_eq!(FailureKind::Runtime.http_status().0, 500);
    }

    #[test]
    fn app_error_renders_identically_structured_text_and_json() {
        let e = AppError::usage("unknown flag '--frobnicate'");
        assert_eq!(e.to_string(), "error[usage]: unknown flag '--frobnicate'");
        assert_eq!(
            e.to_json_body(),
            "{\"error\":{\"kind\":\"usage\",\"message\":\"unknown flag '--frobnicate'\"}}\n"
        );
    }

    #[test]
    fn app_error_json_body_escapes_quotes_and_control_bytes() {
        let e = AppError::runtime("a \"quoted\"\nline\tand \\slash\u{1}");
        let body = e.to_json_body();
        assert!(body.contains("a \\\"quoted\\\"\\nline\\tand \\\\slash\\u0001"));
    }

    #[test]
    fn engine_errors_classify_config_as_usage_and_rest_as_runtime() {
        let e: AppError = MaxPowerError::InvalidConfig {
            message: "n too small".into(),
        }
        .into();
        assert_eq!(e.kind, FailureKind::Usage);
        assert!(e.message.contains("n too small"));
        let e: AppError = MaxPowerError::Source {
            message: "boom".into(),
        }
        .into();
        assert_eq!(e.kind, FailureKind::Runtime);
    }

    #[test]
    fn conversions() {
        let e: MaxPowerError = SimError::WidthMismatch {
            expected: 3,
            got: 1,
        }
        .into();
        assert!(matches!(e, MaxPowerError::Sim(_)));
        let e: MaxPowerError = StatsError::invalid("p", "0<p<1", 2.0).into();
        assert!(matches!(e, MaxPowerError::Stats(_)));
    }
}
