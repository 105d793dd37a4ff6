//! Run supervision: cooperative cancellation, run budgets, and the stop
//! vocabulary shared by the execution engine, the CLI and reports.
//!
//! A long gate-level estimation is an unattended batch job: it must be
//! stoppable (Ctrl-C, orchestrator SIGTERM), bounded (wall-clock deadline,
//! hyper-sample budget) and observable when it wedges. This module holds
//! the pieces the rest of the crate threads through
//! [`RunOptions`](crate::RunOptions):
//!
//! * [`CancelToken`] — a cheaply clonable, async-signal-safe stop flag.
//!   Cancellation is *cooperative*: the engine checks it between
//!   hyper-samples and between the individual samples inside one, finishes
//!   the committed prefix, saves a final checkpoint, and returns a valid
//!   partial estimate tagged
//!   [`RunStatus::Interrupted`](crate::RunStatus::Interrupted).
//! * [`RunBudget`] — wall-clock deadline, committed-hyper-sample budget,
//!   and the stall watchdog's per-worker heartbeat timeout.
//! * [`StopReason`] — why a supervised run stopped early; carried in the
//!   report (`status: Interrupted { reason }`) so downstream tooling can
//!   tell an operator's Ctrl-C from an expired deadline.
//!
//! Because a stop only ever truncates the committed prefix of the
//! deterministic hyper-sample sequence, resuming an interrupted run from
//! its checkpoint reproduces the uninterrupted run **bit-identically** —
//! the same guarantee the parallel engine gives for worker counts.

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a supervised run stopped before its statistical stopping rule (or
/// the hyper-sample cap) fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// [`CancelToken::cancel`] was called — an operator interrupt
    /// (SIGINT/SIGTERM in the CLI) or a programmatic stop.
    Cancelled,
    /// The [`RunBudget::deadline`] wall-clock budget expired.
    DeadlineExceeded,
    /// The [`RunBudget::max_hyper_samples`] budget for this run segment
    /// was spent.
    HyperSampleBudget,
}

impl StopReason {
    /// Short lowercase label for reports and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            StopReason::Cancelled => "cancelled",
            StopReason::DeadlineExceeded => "deadline exceeded",
            StopReason::HyperSampleBudget => "hyper-sample budget spent",
        }
    }
}

crate::health::unit_variants!(StopReason {
    Cancelled,
    DeadlineExceeded,
    HyperSampleBudget,
});

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A cooperative cancellation handle: clone it freely, trip it once.
///
/// The flag is a single atomic, so [`CancelToken::cancel`] is
/// async-signal-safe — the `mpe` CLI calls it straight from its
/// SIGINT/SIGTERM handler. Once cancelled a token stays cancelled; create
/// a fresh token per run if runs must be cancellable independently.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests a graceful stop. Safe to call from any thread or from a
    /// signal handler; idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether a stop has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// Resource budget for one run segment. The default is unlimited — every
/// field `None` — so supervision costs nothing unless opted into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock budget, measured from the moment the run starts. When it
    /// expires the run stops gracefully with
    /// [`StopReason::DeadlineExceeded`]; a hyper-sample already in flight
    /// is completed (and committed) first.
    pub deadline: Option<Duration>,
    /// Hyper-samples this run segment may *commit* (resumed work does not
    /// count against it, so "run 50 more, then checkpoint" composes).
    /// Distinct from
    /// [`EstimationConfig::max_hyper_samples`](crate::EstimationConfig::max_hyper_samples),
    /// which is a statistical cap on the whole estimate and reports
    /// [`RunStatus::BudgetExhausted`](crate::RunStatus::BudgetExhausted).
    pub max_hyper_samples: Option<usize>,
    /// Stall watchdog: a parallel worker whose heartbeat is older than
    /// this is reported in
    /// [`RunHealth::worker_stalls`](crate::RunHealth::worker_stalls) (and
    /// on the telemetry bus). Detection is timing-dependent by nature, so
    /// enabling the watchdog makes the *health ledger* — never the
    /// estimate — execution-dependent. Ignored by single-worker runs.
    pub stall_timeout: Option<Duration>,
}

impl RunBudget {
    /// An unlimited budget (the default).
    pub fn none() -> Self {
        RunBudget::default()
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the committed-hyper-sample budget for this run segment.
    #[must_use]
    pub fn with_max_hyper_samples(mut self, n: usize) -> Self {
        self.max_hyper_samples = Some(n);
        self
    }

    /// Sets the parallel stall watchdog's heartbeat timeout.
    #[must_use]
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = Some(timeout);
        self
    }

    /// Whether every budget dimension is unlimited.
    pub fn is_unlimited(&self) -> bool {
        *self == RunBudget::default()
    }
}

/// The supervision inputs a run carries: the caller's cancel token and
/// budget, bundled so engine signatures stay stable as supervision grows.
#[derive(Debug, Clone, Default)]
pub(crate) struct Supervision {
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) budget: RunBudget,
}

/// Engine-side supervisor: evaluates the stop conditions against the live
/// run. One per run segment; the deadline clock starts at construction.
pub(crate) struct Supervisor {
    cancel: Option<CancelToken>,
    budget: RunBudget,
    started: Instant,
    committed_at_start: usize,
}

impl Supervisor {
    pub(crate) fn new(supervision: &Supervision, committed_at_start: usize) -> Self {
        Supervisor {
            cancel: supervision.cancel.clone(),
            budget: supervision.budget,
            started: Instant::now(),
            committed_at_start,
        }
    }

    /// Whether any stop condition can ever fire — when false the engine
    /// skips supervision entirely and runs exactly the unsupervised path.
    pub(crate) fn is_active(&self) -> bool {
        self.cancel.is_some()
            || self.budget.deadline.is_some()
            || self.budget.max_hyper_samples.is_some()
    }

    /// The configured stall watchdog timeout, if any.
    pub(crate) fn stall_timeout(&self) -> Option<Duration> {
        self.budget.stall_timeout
    }

    /// Evaluates the stop conditions given the currently committed
    /// hyper-sample count. Cancellation outranks the budgets (it is the
    /// explicit operator action).
    pub(crate) fn check(&self, committed: usize) -> Option<StopReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if self.started.elapsed() >= deadline {
                return Some(StopReason::DeadlineExceeded);
            }
        }
        if let Some(max) = self.budget.max_hyper_samples {
            if committed.saturating_sub(self.committed_at_start) >= max {
                return Some(StopReason::HyperSampleBudget);
            }
        }
        None
    }
}

/// Renders a `catch_unwind` payload as text: the `&str`/`String` panic
/// messages the standard macros produce, or a placeholder for exotic
/// payloads.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_trips_once_and_clones_share_state() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        token.cancel(); // idempotent
        assert!(clone.is_cancelled());
    }

    #[test]
    fn unlimited_budget_never_stops() {
        let supervision = Supervision::default();
        let supervisor = Supervisor::new(&supervision, 0);
        assert!(!supervisor.is_active());
        assert_eq!(supervisor.check(1_000_000), None);
    }

    #[test]
    fn cancellation_outranks_budgets() {
        let token = CancelToken::new();
        let supervision = Supervision {
            cancel: Some(token.clone()),
            budget: RunBudget::none().with_max_hyper_samples(0),
        };
        let supervisor = Supervisor::new(&supervision, 0);
        assert_eq!(supervisor.check(5), Some(StopReason::HyperSampleBudget));
        token.cancel();
        assert_eq!(supervisor.check(5), Some(StopReason::Cancelled));
    }

    #[test]
    fn hyper_sample_budget_counts_this_segment_only() {
        let supervision = Supervision {
            cancel: None,
            budget: RunBudget::none().with_max_hyper_samples(3),
        };
        // Resumed at 10 committed: the budget buys 3 *more*.
        let supervisor = Supervisor::new(&supervision, 10);
        assert_eq!(supervisor.check(10), None);
        assert_eq!(supervisor.check(12), None);
        assert_eq!(supervisor.check(13), Some(StopReason::HyperSampleBudget));
    }

    #[test]
    fn zero_deadline_fires_immediately() {
        let supervision = Supervision {
            cancel: None,
            budget: RunBudget::none().with_deadline(Duration::ZERO),
        };
        let supervisor = Supervisor::new(&supervision, 0);
        assert_eq!(supervisor.check(0), Some(StopReason::DeadlineExceeded));
    }

    #[test]
    fn budget_builder_and_labels() {
        let budget = RunBudget::none()
            .with_deadline(Duration::from_secs(60))
            .with_max_hyper_samples(50)
            .with_stall_timeout(Duration::from_secs(5));
        assert!(!budget.is_unlimited());
        assert!(RunBudget::none().is_unlimited());
        assert_eq!(StopReason::Cancelled.label(), "cancelled");
        assert_eq!(
            StopReason::DeadlineExceeded.to_string(),
            "deadline exceeded"
        );
        assert_eq!(
            StopReason::HyperSampleBudget.label(),
            "hyper-sample budget spent"
        );
    }

    #[test]
    fn panic_messages_render() {
        let payload: Box<dyn Any + Send> = Box::new("boom");
        assert_eq!(panic_message(payload.as_ref()), "boom");
        let payload: Box<dyn Any + Send> = Box::new(String::from("formatted boom"));
        assert_eq!(panic_message(payload.as_ref()), "formatted boom");
        let payload: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
    }
}
