//! Run-health vocabulary: which estimator produced each number, how the
//! run ended, and what the engine had to survive to get there.
//!
//! The paper's Figure 4 loop assumes every simulation succeeds and every
//! MLE converges. In deployment neither holds: power oracles fail
//! transiently, return garbage (NaN, ±∞, negative "power"), and
//! pathological circuits produce near-degenerate sample maxima on which
//! the reversed-Weibull likelihood has no interior maximum. The types in
//! this module make those events *observable* instead of fatal: every
//! [`MaxPowerEstimate`](crate::MaxPowerEstimate) carries a [`RunStatus`]
//! and a [`RunHealth`] so callers can distinguish a pristine converged run
//! from one that limped home on fallback estimators.

use crate::serve::json::{Decode, Encode, Fields, Json, JsonWriter};
use crate::supervise::StopReason;

/// Implements [`Encode`] and [`Decode`] for a fieldless enum, spelling
/// each variant as its name.
macro_rules! unit_variants {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::serve::json::Encode for $ty {
            fn encode(&self, w: &mut $crate::serve::json::JsonWriter) {
                w.str(match self {
                    $($ty::$variant => stringify!($variant),)+
                });
            }
        }

        impl $crate::serve::json::Decode for $ty {
            fn decode(value: &$crate::serve::json::Json) -> Result<Self, String> {
                match value.as_str() {
                    $(Some(stringify!($variant)) => Ok($ty::$variant),)+
                    _ => Err(format!(
                        concat!("expected a ", stringify!($ty), " variant, found {:?}"),
                        value
                    )),
                }
            }
        }
    };
}
pub(crate) use unit_variants;

/// Which estimator produced a hyper-sample estimate.
///
/// The engine degrades along a fixed two-rung ladder, from the paper's
/// estimator to a weaker but always-defined one:
///
/// 1. [`Mle`](EstimatorKind::Mle) — profile maximum likelihood on the
///    reversed Weibull (the paper's §3.2; unbiased in the limit, needs a
///    non-degenerate spread of sample maxima);
/// 2. [`Quantile`](EstimatorKind::Quantile) — the distribution-free
///    empirical quantile of the raw draws (always defined; no
///    extrapolation beyond the observed maximum).
///
/// Records naming the peaks-over-threshold rung that 0.24.0 and earlier
/// had between the two (`"Pot"`) are refused at parse time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EstimatorKind {
    /// Reversed-Weibull profile MLE (the paper's estimator).
    Mle,
    /// Empirical-quantile fallback (last rung of the ladder).
    Quantile,
}

unit_variants!(EstimatorKind { Mle, Quantile });

impl EstimatorKind {
    /// Short lowercase label for reports and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            EstimatorKind::Mle => "mle",
            EstimatorKind::Quantile => "quantile",
        }
    }
}

/// Why a hyper-sample landed on its estimator rung — the typed half of the
/// per-hyper-sample audit trail (report schema v7).
///
/// [`Converged`](FitReasonCode::Converged) is the happy path; every other
/// code names the *final* MLE failure that pushed the hyper-sample down
/// the fallback ladder (or cut the retry loop short).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitReasonCode {
    /// The reversed-Weibull profile MLE converged.
    Converged,
    /// The sample maxima were (near-)degenerate: zero spread, so the
    /// likelihood has no interior maximum.
    DegenerateMaxima,
    /// The degeneracy pre-check proved the source constant — retrying
    /// could never help.
    ConstantSource,
    /// The likelihood optimizer failed to converge.
    NoConvergence,
    /// Too few usable observations reached the fit.
    InsufficientData,
}

unit_variants!(FitReasonCode {
    Converged,
    DegenerateMaxima,
    ConstantSource,
    NoConvergence,
    InsufficientData,
});

impl FitReasonCode {
    /// Short snake_case label for reports, traces and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            FitReasonCode::Converged => "converged",
            FitReasonCode::DegenerateMaxima => "degenerate_maxima",
            FitReasonCode::ConstantSource => "constant_source",
            FitReasonCode::NoConvergence => "no_convergence",
            FitReasonCode::InsufficientData => "insufficient_data",
        }
    }
}

/// Per-hyper-sample estimator audit record: which rung produced the
/// estimate, why, and how well the fit matched the batch. Computed for
/// every hyper-sample regardless of telemetry state (it feeds the report
/// and checkpoint, which must be bit-identical with telemetry on or off).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitDiagnostics {
    /// The estimator rung that produced this hyper-sample's estimate.
    pub rung: EstimatorKind,
    /// Why the hyper-sample landed on that rung.
    pub reason: FitReasonCode,
    /// Mean log-likelihood at the fit optimum (`None` for the
    /// quantile rung, which fits nothing).
    pub log_likelihood: Option<f64>,
    /// Kolmogorov–Smirnov distance of the batch maxima against the fitted
    /// reversed Weibull (`None` when there is no Weibull fit).
    pub ks_distance: Option<f64>,
    /// Fitted Weibull shape `α̂` for the MLE rung (Smith regularity needs
    /// `α̂ > 2`); `None` for the quantile rung.
    pub tail_shape: Option<f64>,
}

impl FitDiagnostics {
    /// Whether this record describes an MLE fit violating Smith's
    /// `α > 2` regularity condition (CIs lose their asymptotic
    /// justification there).
    pub fn is_irregular_mle(&self) -> bool {
        self.rung == EstimatorKind::Mle && self.tail_shape.is_some_and(|a| a <= 2.0)
    }
}

/// How an estimation run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The stopping rule fired: the confidence interval met the requested
    /// relative (or, under the zero-mean guard, absolute) error, and every
    /// hyper-sample came from the primary MLE estimator.
    Converged,
    /// The hyper-sample cap was reached before the stopping rule fired.
    /// The estimate is the best available partial result; its achieved
    /// error is in [`MaxPowerEstimate::relative_error`](crate::MaxPowerEstimate).
    BudgetExhausted,
    /// At least one hyper-sample came from a fallback estimator. The
    /// stopping rule may still have fired — check
    /// [`RunHealth`] for how much of the run degraded.
    Degraded {
        /// The *weakest* estimator that contributed (the deepest rung of
        /// the ladder reached anywhere in the run).
        fallback: EstimatorKind,
    },
    /// Run supervision stopped the run before the stopping rule fired: an
    /// operator cancellation, an expired wall-clock deadline, or a spent
    /// hyper-sample budget. The estimate is the valid partial result over
    /// the committed prefix; resuming from its checkpoint continues the
    /// run bit-identically. Schema v6.
    Interrupted {
        /// What stopped the run.
        reason: StopReason,
    },
}

impl Encode for FitDiagnostics {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("rung", &self.rung);
        w.field("reason", &self.reason);
        w.field("log_likelihood", &self.log_likelihood);
        w.field("ks_distance", &self.ks_distance);
        w.field("tail_shape", &self.tail_shape);
        w.end_object();
    }
}

impl Decode for FitDiagnostics {
    fn decode(value: &Json) -> Result<Self, String> {
        let f = Fields::of(value)?;
        Ok(FitDiagnostics {
            rung: f.req("rung")?,
            reason: f.req("reason")?,
            log_likelihood: f.or("log_likelihood", None)?,
            ks_distance: f.or("ks_distance", None)?,
            tail_shape: f.or("tail_shape", None)?,
        })
    }
}

/// Fieldless variants are their names; the others are externally tagged,
/// e.g. `{"Degraded": {"fallback": "Quantile"}}`.
impl Encode for RunStatus {
    fn encode(&self, w: &mut JsonWriter) {
        fn tagged(w: &mut JsonWriter, tag: &str, key: &str, value: &dyn Encode) {
            w.begin_object();
            w.key(tag);
            w.begin_object();
            w.field(key, value);
            w.end_object();
            w.end_object();
        }
        match self {
            RunStatus::Converged => w.str("Converged"),
            RunStatus::BudgetExhausted => w.str("BudgetExhausted"),
            RunStatus::Degraded { fallback } => tagged(w, "Degraded", "fallback", fallback),
            RunStatus::Interrupted { reason } => tagged(w, "Interrupted", "reason", reason),
        }
    }
}

impl Decode for RunStatus {
    fn decode(value: &Json) -> Result<Self, String> {
        match value.as_str() {
            Some("Converged") => return Ok(RunStatus::Converged),
            Some("BudgetExhausted") => return Ok(RunStatus::BudgetExhausted),
            _ => {}
        }
        if let Some(inner) = value.get("Degraded") {
            return Ok(RunStatus::Degraded {
                fallback: Fields::of(inner)?.req("fallback")?,
            });
        }
        if let Some(inner) = value.get("Interrupted") {
            return Ok(RunStatus::Interrupted {
                reason: Fields::of(inner)?.req("reason")?,
            });
        }
        Err(format!("expected a RunStatus variant, found {value:?}"))
    }
}

impl RunStatus {
    /// Whether the stopping rule's error target was met (regardless of
    /// which estimators contributed).
    pub fn met_target(self) -> bool {
        !matches!(
            self,
            RunStatus::BudgetExhausted | RunStatus::Interrupted { .. }
        )
    }
}

/// Fault/robustness counters for a single hyper-sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HyperHealth {
    /// Readings the source *returned* but the policy discarded
    /// (NaN, ±∞, negative power).
    pub samples_discarded: usize,
    /// Source calls that returned an error and were survived
    /// (skipped or retried per the [`SamplePolicy`](crate::SamplePolicy)).
    pub source_errors: usize,
    /// Immediate redraws performed under
    /// [`SamplePolicy::Retry`](crate::SamplePolicy::Retry).
    pub sample_retries: usize,
    /// Fresh-draw retries of a degenerate MLE.
    pub mle_retries: usize,
    /// Whether the degeneracy pre-check (all sample maxima identical, or
    /// the source provably constant) cut the retry loop short.
    pub degenerate_bailout: bool,
}

/// Aggregated fault/robustness counters for a whole estimation run,
/// attached to every [`MaxPowerEstimate`](crate::MaxPowerEstimate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunHealth {
    /// Total readings discarded across all hyper-samples.
    pub samples_discarded: usize,
    /// Total source errors survived.
    pub source_errors: usize,
    /// Total immediate sample retries.
    pub sample_retries: usize,
    /// Total degenerate-MLE retries.
    pub mle_retries: usize,
    /// Hyper-samples whose retry loop was cut short by the degeneracy
    /// pre-check.
    pub degenerate_bailouts: usize,
    /// Always 0: the peaks-over-threshold rung this counted was removed
    /// in 0.25.0. The field and its JSON key stay so every report keeps
    /// the 0.24.0 bytes (no report schema bump).
    pub pot_fallbacks: usize,
    /// Hyper-samples estimated by the empirical-quantile fallback.
    pub quantile_fallbacks: usize,
    /// Whether the stopping rule ever switched to the absolute-width
    /// criterion because the running mean was indistinguishable from zero
    /// (the relative half-width is undefined there).
    pub zero_mean_guard: bool,
    /// Parallel worker panics that were recovered by re-deriving the
    /// panicked hyper-sample on a healthy worker (schema v6; absent in
    /// older records and defaults to 0).
    pub worker_restarts: usize,
    /// Parallel workers flagged by the stall watchdog as having gone
    /// longer than the configured heartbeat timeout without progress
    /// (schema v6). Timing-dependent observability — never affects the
    /// estimate.
    pub worker_stalls: usize,
    /// MLE fits whose fitted shape violated Smith's `α > 2` regularity
    /// condition (schema v7). Diagnostic only: the estimate is still the
    /// paper's MLE and the run is not considered faulty — see
    /// [`is_clean`](Self::is_clean).
    pub irregular_fits: usize,
}

impl Encode for RunHealth {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("samples_discarded", &self.samples_discarded);
        w.field("source_errors", &self.source_errors);
        w.field("sample_retries", &self.sample_retries);
        w.field("mle_retries", &self.mle_retries);
        w.field("degenerate_bailouts", &self.degenerate_bailouts);
        w.field("pot_fallbacks", &self.pot_fallbacks);
        w.field("quantile_fallbacks", &self.quantile_fallbacks);
        w.field("zero_mean_guard", &self.zero_mean_guard);
        w.field("worker_restarts", &self.worker_restarts);
        w.field("worker_stalls", &self.worker_stalls);
        w.field("irregular_fits", &self.irregular_fits);
        w.end_object();
    }
}

impl Decode for RunHealth {
    fn decode(value: &Json) -> Result<Self, String> {
        let f = Fields::of(value)?;
        Ok(RunHealth {
            samples_discarded: f.req("samples_discarded")?,
            source_errors: f.req("source_errors")?,
            sample_retries: f.req("sample_retries")?,
            mle_retries: f.req("mle_retries")?,
            degenerate_bailouts: f.req("degenerate_bailouts")?,
            pot_fallbacks: f.req("pot_fallbacks")?,
            quantile_fallbacks: f.req("quantile_fallbacks")?,
            zero_mean_guard: f.req("zero_mean_guard")?,
            worker_restarts: f.or("worker_restarts", 0)?,
            worker_stalls: f.or("worker_stalls", 0)?,
            irregular_fits: f.or("irregular_fits", 0)?,
        })
    }
}

impl RunHealth {
    /// Folds one hyper-sample's health (and the rung that produced its
    /// estimate, [`FitDiagnostics::rung`]) into the run-level aggregate.
    pub fn absorb(&mut self, hyper: &HyperHealth, rung: EstimatorKind) {
        self.samples_discarded += hyper.samples_discarded;
        self.source_errors += hyper.source_errors;
        self.sample_retries += hyper.sample_retries;
        self.mle_retries += hyper.mle_retries;
        if hyper.degenerate_bailout {
            self.degenerate_bailouts += 1;
        }
        match rung {
            EstimatorKind::Mle => {}
            EstimatorKind::Quantile => self.quantile_fallbacks += 1,
        }
    }

    /// Whether the run saw no faults, no fallbacks and no guard switches —
    /// i.e. it behaved exactly like the paper's idealized procedure.
    /// Irregular (`α ≤ 2`) MLE fits are excluded: they are a property of
    /// the circuit's power tail, not of anything going wrong in the run.
    pub fn is_clean(&self) -> bool {
        RunHealth {
            irregular_fits: 0,
            ..*self
        } == RunHealth::default()
    }

    /// The weakest (deepest-ladder) estimator that contributed, if any
    /// fallback was taken.
    fn deepest_fallback(&self) -> Option<EstimatorKind> {
        (self.quantile_fallbacks > 0).then_some(EstimatorKind::Quantile)
    }

    /// The [`RunStatus`] implied by this health record and whether the
    /// stopping rule fired. Missing the error target outranks degradation:
    /// a capped run reports [`RunStatus::BudgetExhausted`] even if
    /// fallbacks also fired (the fallback counts stay visible here).
    pub fn status(&self, met_target: bool) -> RunStatus {
        if !met_target {
            return RunStatus::BudgetExhausted;
        }
        match self.deepest_fallback() {
            Some(fallback) => RunStatus::Degraded { fallback },
            None => RunStatus::Converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::json;

    #[test]
    fn clean_health_is_clean() {
        let h = RunHealth::default();
        assert!(h.is_clean());
        assert_eq!(h.deepest_fallback(), None);
        assert_eq!(h.status(true), RunStatus::Converged);
        assert_eq!(h.status(false), RunStatus::BudgetExhausted);
    }

    #[test]
    fn absorb_accumulates_and_ranks_fallbacks() {
        let mut run = RunHealth::default();
        let hyper = HyperHealth {
            samples_discarded: 3,
            source_errors: 2,
            sample_retries: 1,
            mle_retries: 4,
            degenerate_bailout: true,
        };
        run.absorb(&hyper, EstimatorKind::Mle);
        run.absorb(&hyper, EstimatorKind::Quantile);
        run.absorb(&hyper, EstimatorKind::Mle);
        assert_eq!(run.samples_discarded, 9);
        assert_eq!(run.source_errors, 6);
        assert_eq!(run.sample_retries, 3);
        assert_eq!(run.mle_retries, 12);
        assert_eq!(run.degenerate_bailouts, 3);
        assert_eq!(run.pot_fallbacks, 0);
        assert_eq!(run.quantile_fallbacks, 1);
        assert!(!run.is_clean());
        // One quantile fallback among MLE fits degrades the whole run.
        assert_eq!(run.deepest_fallback(), Some(EstimatorKind::Quantile));
        assert_eq!(
            run.status(true),
            RunStatus::Degraded {
                fallback: EstimatorKind::Quantile
            }
        );
        // A capped run is BudgetExhausted even when fallbacks fired.
        assert_eq!(run.status(false), RunStatus::BudgetExhausted);
    }

    #[test]
    fn empty_run_health_stays_converged_regardless_of_absorb_count() {
        // An "empty" run (no hyper-samples absorbed) and a run of clean
        // MLE hyper-samples are indistinguishable: both clean, no
        // fallback, converged when the target was met.
        let mut run = RunHealth::default();
        for _ in 0..5 {
            run.absorb(&HyperHealth::default(), EstimatorKind::Mle);
        }
        assert!(run.is_clean());
        assert_eq!(run.deepest_fallback(), None);
        assert_eq!(run.status(true), RunStatus::Converged);
    }

    #[test]
    fn all_degraded_run_reports_deepest_rung_only() {
        // Every hyper-sample fell back to the quantile rung, the deepest.
        let mut run = RunHealth::default();
        for _ in 0..4 {
            run.absorb(&HyperHealth::default(), EstimatorKind::Quantile);
        }
        assert_eq!(run.pot_fallbacks, 0);
        assert_eq!(run.quantile_fallbacks, 4);
        assert_eq!(run.deepest_fallback(), Some(EstimatorKind::Quantile));
        assert_eq!(
            run.status(true),
            RunStatus::Degraded {
                fallback: EstimatorKind::Quantile
            }
        );
        // Fallbacks alone don't make the run unhealthy-clean: the ledger
        // records them, so the run is not "clean".
        assert!(!run.is_clean());
    }

    #[test]
    fn mixed_estimator_kinds_rank_quantile_in_any_order() {
        // Deepest-rung ranking must not depend on absorb order.
        let mut a = RunHealth::default();
        a.absorb(&HyperHealth::default(), EstimatorKind::Quantile);
        a.absorb(&HyperHealth::default(), EstimatorKind::Mle);
        let mut b = RunHealth::default();
        b.absorb(&HyperHealth::default(), EstimatorKind::Mle);
        b.absorb(&HyperHealth::default(), EstimatorKind::Quantile);
        assert_eq!(a, b);
        assert_eq!(a.deepest_fallback(), Some(EstimatorKind::Quantile));
        assert_eq!(b.deepest_fallback(), Some(EstimatorKind::Quantile));
    }

    #[test]
    fn faulty_but_mle_only_run_is_dirty_yet_not_degraded() {
        // Survived faults mark the run unclean without implying a
        // fallback: status stays Converged when every estimate was MLE.
        let mut run = RunHealth::default();
        run.absorb(
            &HyperHealth {
                source_errors: 7,
                samples_discarded: 2,
                ..HyperHealth::default()
            },
            EstimatorKind::Mle,
        );
        assert!(!run.is_clean());
        assert_eq!(run.deepest_fallback(), None);
        assert_eq!(run.status(true), RunStatus::Converged);
    }

    #[test]
    fn status_met_target() {
        assert!(RunStatus::Converged.met_target());
        assert!(!RunStatus::BudgetExhausted.met_target());
        assert!(RunStatus::Degraded {
            fallback: EstimatorKind::Quantile
        }
        .met_target());
        assert!(!RunStatus::Interrupted {
            reason: StopReason::Cancelled
        }
        .met_target());
    }

    #[test]
    fn worker_incidents_mark_health_dirty_without_degrading_status() {
        // A recovered panic or a flagged stall dirties the ledger but does
        // not imply a fallback estimator: status stays Converged.
        let run = RunHealth {
            worker_restarts: 1,
            ..RunHealth::default()
        };
        assert!(!run.is_clean());
        assert_eq!(run.deepest_fallback(), None);
        assert_eq!(run.status(true), RunStatus::Converged);
        let run = RunHealth {
            worker_stalls: 2,
            ..RunHealth::default()
        };
        assert!(!run.is_clean());
        assert_eq!(run.status(true), RunStatus::Converged);
    }

    #[test]
    fn json_roundtrip() {
        for status in [
            RunStatus::Converged,
            RunStatus::BudgetExhausted,
            RunStatus::Degraded {
                fallback: EstimatorKind::Quantile,
            },
            RunStatus::Interrupted {
                reason: StopReason::DeadlineExceeded,
            },
        ] {
            let text = json::to_string(&status);
            assert_eq!(json::from_str::<RunStatus>(&text), Ok(status), "{text}");
        }
        assert_eq!(
            json::to_string(&RunStatus::Degraded {
                fallback: EstimatorKind::Quantile
            }),
            r#"{"Degraded":{"fallback":"Quantile"}}"#
        );
        let health = RunHealth {
            samples_discarded: 1,
            zero_mean_guard: true,
            ..RunHealth::default()
        };
        let back: RunHealth = json::from_str(&json::to_string(&health)).expect("roundtrips");
        assert_eq!(health, back);
        assert!(json::from_str::<RunStatus>(r#"{"Collapsed":{}}"#).is_err());
        assert!(json::from_str::<EstimatorKind>(r#""Bogus""#).is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(EstimatorKind::Mle.label(), "mle");
        assert_eq!(EstimatorKind::Quantile.label(), "quantile");
        assert_eq!(FitReasonCode::Converged.label(), "converged");
        assert_eq!(FitReasonCode::DegenerateMaxima.label(), "degenerate_maxima");
    }

    #[test]
    fn irregular_fits_stay_clean_but_are_counted() {
        // An α ≤ 2 fit is a property of the circuit, not a fault: the run
        // is still "clean", but the count survives serialization.
        let run = RunHealth {
            irregular_fits: 3,
            ..RunHealth::default()
        };
        assert!(run.is_clean());
        assert_eq!(run.deepest_fallback(), None);
        assert_eq!(run.status(true), RunStatus::Converged);
        let dirty = RunHealth {
            irregular_fits: 3,
            mle_retries: 1,
            ..RunHealth::default()
        };
        assert!(!dirty.is_clean());
    }

    #[test]
    fn fit_diagnostics_regularity_check() {
        let regular = FitDiagnostics {
            rung: EstimatorKind::Mle,
            reason: FitReasonCode::Converged,
            log_likelihood: Some(-1.0),
            ks_distance: Some(0.2),
            tail_shape: Some(3.5),
        };
        assert!(!regular.is_irregular_mle());
        let irregular = FitDiagnostics {
            tail_shape: Some(1.5),
            ..regular
        };
        assert!(irregular.is_irregular_mle());
        // A small shape on the quantile rung is not an *MLE* regularity
        // violation.
        let quantile = FitDiagnostics {
            rung: EstimatorKind::Quantile,
            reason: FitReasonCode::NoConvergence,
            tail_shape: Some(1.5),
            ..regular
        };
        assert!(!quantile.is_irregular_mle());
        // An MLE fit that recorded no shape is not flagged either.
        let shapeless = FitDiagnostics {
            tail_shape: None,
            ..regular
        };
        assert!(!shapeless.is_irregular_mle());
    }
}
