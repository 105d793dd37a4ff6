//! Estimation configuration.

use crate::error::MaxPowerError;

/// Parameters of the iterative maximum-power estimation procedure.
///
/// The defaults are exactly the paper's operating point: sample size
/// `n = 30` (where Figure 1 shows the Weibull approximation has converged),
/// `m = 10` samples per hyper-sample (where Figure 2 shows the estimator is
/// normal), 90 % confidence and 5 % relative error.
///
/// # Example
///
/// ```
/// use maxpower::EstimationConfig;
/// let cfg = EstimationConfig::default();
/// assert_eq!(cfg.sample_size, 30);
/// assert_eq!(cfg.samples_per_hyper, 10);
/// assert_eq!(cfg.units_per_hyper_sample(), 300);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimationConfig {
    /// Units per sample (`n`). The paper fixes 30: large enough for the
    /// Weibull limit, small enough to stay cheap.
    pub sample_size: usize,
    /// Samples per hyper-sample (`m`). The paper fixes 10: enough for the
    /// estimator's asymptotic normality to kick in.
    pub samples_per_hyper: usize,
    /// Confidence level `l ∈ (0, 1)` of the stopping rule (paper: 0.90).
    pub confidence: f64,
    /// Target relative error `ε > 0` of the stopping rule (paper: 0.05).
    pub relative_error: f64,
    /// Minimum hyper-samples before the stopping rule may fire (at least 2,
    /// since the sample variance `s²` needs two points).
    pub min_hyper_samples: usize,
    /// Hard cap on hyper-samples; exceeding it yields
    /// [`MaxPowerError::NotConverged`].
    pub max_hyper_samples: usize,
    /// When estimating a *finite* population's maximum, its size `|V|`:
    /// the estimator reports the `(1 − 1/|V|)` quantile of the fitted
    /// Weibull instead of the raw endpoint `μ̂` (paper §3.4). `None` means
    /// an infinite population (category I.1 over the full vector space).
    pub finite_population: Option<u64>,
    /// How a hyper-sample reacts to a failing or garbage-emitting power
    /// source (transient errors, NaN/±∞ readings, readings below
    /// [`min_reading_mw`](Self::min_reading_mw)). The paper assumes every
    /// simulation succeeds; deployments against flaky oracles should pick
    /// [`SamplePolicy::Skip`] or [`SamplePolicy::Retry`].
    pub sample_policy: SamplePolicy,
    /// Smallest physically plausible reading: finite readings below this
    /// are handled per [`sample_policy`](Self::sample_policy). The default
    /// `-∞` accepts any finite reading (preserving the estimator's shift
    /// equivariance for synthetic parents); power deployments set `0.0`.
    pub min_reading_mw: f64,
}

/// Reaction of hyper-sample generation to source failures and invalid
/// readings (NaN, ±∞, or below [`EstimationConfig::min_reading_mw`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplePolicy {
    /// Propagate the first failure / invalid reading as an error (the
    /// seed behaviour for source errors; invalid readings previously
    /// leaked into the maxima silently).
    #[default]
    Fail,
    /// Discard the offending draw and draw again, up to a per-hyper-sample
    /// cap on discarded draws plus survived errors; exceeding the cap
    /// raises [`MaxPowerError::SamplePolicyExhausted`](crate::MaxPowerError).
    Skip {
        /// Maximum discarded readings + survived source errors per
        /// hyper-sample.
        max_discarded: usize,
    },
    /// Retry the draw immediately, tolerating up to `max_attempts`
    /// *consecutive* failures before propagating the last error.
    Retry {
        /// Consecutive failures tolerated before giving up.
        max_attempts: usize,
    },
}

impl SamplePolicy {
    /// Parses the deployment-surface spelling shared by the CLI's
    /// `--sample-policy` flag and the job API's `sample_policy` field:
    /// `fail`, `skip[:CAP]` (default cap 1000) or `retry[:N]` (default 8).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the unrecognised policy or
    /// cap.
    pub fn parse(v: &str) -> Result<SamplePolicy, String> {
        let cap = |n: &str, what: &str| -> Result<usize, String> {
            n.parse()
                .map_err(|_| format!("sample policy `{what}` expects a numeric cap, got `{n}`"))
        };
        match v.split_once(':') {
            None => match v {
                "fail" => Ok(SamplePolicy::Fail),
                "skip" => Ok(SamplePolicy::Skip {
                    max_discarded: 1000,
                }),
                "retry" => Ok(SamplePolicy::Retry { max_attempts: 8 }),
                other => Err(format!("unknown sample policy `{other}`")),
            },
            Some(("skip", n)) => Ok(SamplePolicy::Skip {
                max_discarded: cap(n, "skip")?,
            }),
            Some(("retry", n)) => Ok(SamplePolicy::Retry {
                max_attempts: cap(n, "retry")?,
            }),
            Some((other, _)) => Err(format!("unknown sample policy `{other}`")),
        }
    }

    /// The canonical spelling [`parse`](Self::parse) accepts back —
    /// `parse(label()) == self` — used by the serve spool to persist
    /// job specs.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SamplePolicy::Fail => "fail".to_string(),
            SamplePolicy::Skip { max_discarded } => format!("skip:{max_discarded}"),
            SamplePolicy::Retry { max_attempts } => format!("retry:{max_attempts}"),
        }
    }
}

impl Default for EstimationConfig {
    fn default() -> Self {
        EstimationConfig {
            sample_size: 30,
            samples_per_hyper: 10,
            confidence: 0.90,
            relative_error: 0.05,
            min_hyper_samples: 2,
            max_hyper_samples: 200,
            finite_population: None,
            sample_policy: SamplePolicy::Fail,
            min_reading_mw: f64::NEG_INFINITY,
        }
    }
}

impl EstimationConfig {
    /// Vector pairs consumed by one hyper-sample (`n × m`; 300 by default).
    pub fn units_per_hyper_sample(&self) -> usize {
        self.sample_size * self.samples_per_hyper
    }

    /// The configuration both deployment front ends — the `mpe` CLI and
    /// the `mpe serve` job API — build from their user-facing knobs.
    ///
    /// Centralised so the two surfaces cannot drift: a served job with
    /// the same knobs as a CLI invocation must produce a byte-identical
    /// report, which starts with an identical configuration. Compared to
    /// [`EstimationConfig::default`] this raises `max_hyper_samples` to
    /// 500 (deployments prefer a late answer over none) and floors
    /// readings at `0.0` (power and delay are physically non-negative).
    #[must_use]
    pub fn for_deployment(
        relative_error: f64,
        confidence: f64,
        finite_population: Option<u64>,
        sample_policy: SamplePolicy,
    ) -> EstimationConfig {
        EstimationConfig {
            relative_error,
            confidence,
            finite_population,
            max_hyper_samples: 500,
            sample_policy,
            min_reading_mw: 0.0,
            ..EstimationConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MaxPowerError::InvalidConfig`] describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), MaxPowerError> {
        let fail = |message: &str| {
            Err(MaxPowerError::InvalidConfig {
                message: message.to_string(),
            })
        };
        if self.sample_size < 2 {
            return fail("sample_size must be at least 2");
        }
        if self.samples_per_hyper < 5 {
            return fail("samples_per_hyper must be at least 5 for a stable MLE");
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return fail("confidence must be in (0, 1)");
        }
        if !(self.relative_error > 0.0 && self.relative_error < 1.0) {
            return fail("relative_error must be in (0, 1)");
        }
        if self.min_hyper_samples < 2 {
            return fail("min_hyper_samples must be at least 2 (variance needs two points)");
        }
        if self.max_hyper_samples < self.min_hyper_samples {
            return fail("max_hyper_samples must be >= min_hyper_samples");
        }
        if let Some(v) = self.finite_population {
            if v < 2 {
                return fail("finite_population must be at least 2");
            }
        }
        match self.sample_policy {
            SamplePolicy::Fail => {}
            SamplePolicy::Skip { max_discarded } => {
                if max_discarded == 0 {
                    return fail("SamplePolicy::Skip requires max_discarded >= 1");
                }
            }
            SamplePolicy::Retry { max_attempts } => {
                if max_attempts == 0 {
                    return fail("SamplePolicy::Retry requires max_attempts >= 1");
                }
            }
        }
        if self.min_reading_mw.is_nan() {
            return fail("min_reading_mw must not be NaN");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_papers_operating_point() {
        let c = EstimationConfig::default();
        assert_eq!(c.sample_size, 30);
        assert_eq!(c.samples_per_hyper, 10);
        assert_eq!(c.confidence, 0.90);
        assert_eq!(c.relative_error, 0.05);
        assert_eq!(c.units_per_hyper_sample(), 300);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_each_field() {
        let base = EstimationConfig::default();
        let mut c = base;
        c.sample_size = 1;
        assert!(c.validate().is_err());
        let mut c = base;
        c.samples_per_hyper = 3;
        assert!(c.validate().is_err());
        let mut c = base;
        c.confidence = 1.0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.relative_error = 0.0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.min_hyper_samples = 1;
        assert!(c.validate().is_err());
        let mut c = base;
        c.max_hyper_samples = 1;
        assert!(c.validate().is_err());
        let mut c = base;
        c.finite_population = Some(1);
        assert!(c.validate().is_err());
        let mut c = base;
        c.finite_population = Some(160_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_resilience_fields() {
        let base = EstimationConfig::default();
        let mut c = base;
        c.sample_policy = SamplePolicy::Skip { max_discarded: 0 };
        assert!(c.validate().is_err());
        let mut c = base;
        c.sample_policy = SamplePolicy::Retry { max_attempts: 0 };
        assert!(c.validate().is_err());
        let mut c = base;
        c.min_reading_mw = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = base;
        c.sample_policy = SamplePolicy::Retry { max_attempts: 8 };
        c.min_reading_mw = 0.0;
        assert!(c.validate().is_ok());
    }
}
