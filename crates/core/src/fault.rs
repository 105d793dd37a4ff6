//! Fault injection for power sources.
//!
//! [`FaultInjectingSource`] wraps any [`PowerSource`] and perturbs its
//! behaviour from an *independent* seeded RNG: transient errors, stalls
//! surfaced as deadline errors, NaN/∞/negative readings, and silent value
//! corruption. Because the fault stream has its own RNG, the same wrapper
//! seed injects the same fault sequence regardless of how the estimation
//! RNG is consumed — which makes resilience tests reproducible and lets a
//! run's [`RunHealth`](crate::RunHealth) be checked against the injector's
//! own [`FaultStats`] ledger, fault for fault.
//!
//! ```
//! use maxpower::{FaultConfig, FaultInjectingSource, FnSource, PowerSource};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let inner = FnSource::new(|rng: &mut dyn rand::RngCore| {
//!     use rand::Rng;
//!     5.0 + rng.gen::<f64>()
//! });
//! let cfg = FaultConfig {
//!     seed: 7,
//!     error_rate: 0.10,
//!     nan_rate: 0.01,
//!     ..FaultConfig::default()
//! };
//! let mut source = FaultInjectingSource::new(inner, cfg).unwrap();
//! let mut rng = SmallRng::seed_from_u64(1);
//! let mut errors = 0;
//! for _ in 0..1000 {
//!     if source.sample(&mut rng).is_err() {
//!         errors += 1;
//!     }
//! }
//! assert_eq!(errors, source.stats().errors + source.stats().stalls);
//! ```

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::error::MaxPowerError;
use crate::source::PowerSource;

/// Fault mix injected by a [`FaultInjectingSource`].
///
/// Each rate is the per-call probability of that fault; at most one fault
/// fires per call (a single uniform roll is compared against cumulative
/// thresholds, so the rates must sum to at most 1). Faults are drawn
/// *before* the inner source is consulted for error/stall faults — a
/// faulted call never touches the inner source, mimicking a simulator
/// process that died before producing a vector — and *after* it for
/// reading faults (NaN/∞/negative/corrupt), which perturb a real reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the injector's private RNG.
    pub seed: u64,
    /// Probability of a transient error (`MaxPowerError::Source`).
    pub error_rate: f64,
    /// Probability of a stall surfaced as a deadline-exceeded error.
    /// Stalls are modelled as errors rather than real delays so tests
    /// stay fast; a production wrapper would time the inner call out.
    pub stall_rate: f64,
    /// Probability the reading is replaced by NaN.
    pub nan_rate: f64,
    /// Probability the reading is replaced by `+∞`.
    pub inf_rate: f64,
    /// Probability the reading is replaced by a strictly negative value
    /// (`-(|p| + 1)`).
    pub negative_rate: f64,
    /// Probability the reading is silently scaled by
    /// [`corrupt_scale`](Self::corrupt_scale) — a plausible-looking but
    /// wrong value, the nastiest fault class because no policy can detect
    /// it from the reading alone.
    pub corrupt_rate: f64,
    /// Multiplier applied by a corruption fault.
    pub corrupt_scale: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            error_rate: 0.0,
            stall_rate: 0.0,
            nan_rate: 0.0,
            inf_rate: 0.0,
            negative_rate: 0.0,
            corrupt_rate: 0.0,
            corrupt_scale: 1e3,
        }
    }
}

impl FaultConfig {
    /// Validates the fault mix.
    ///
    /// # Errors
    ///
    /// Returns [`MaxPowerError::InvalidConfig`] when any rate is outside
    /// `[0, 1]`, the rates sum past 1, or the corruption scale is not
    /// finite.
    pub fn validate(&self) -> Result<(), MaxPowerError> {
        let fail = |message: String| Err(MaxPowerError::InvalidConfig { message });
        let rates = [
            ("error_rate", self.error_rate),
            ("stall_rate", self.stall_rate),
            ("nan_rate", self.nan_rate),
            ("inf_rate", self.inf_rate),
            ("negative_rate", self.negative_rate),
            ("corrupt_rate", self.corrupt_rate),
        ];
        for (name, rate) in rates {
            if !(0.0..=1.0).contains(&rate) {
                return fail(format!("{name} must be in [0, 1], got {rate}"));
            }
        }
        let total: f64 = rates.iter().map(|(_, r)| r).sum();
        if total > 1.0 {
            return fail(format!("fault rates must sum to at most 1, got {total}"));
        }
        if !self.corrupt_scale.is_finite() {
            return fail(format!(
                "corrupt_scale must be finite, got {}",
                self.corrupt_scale
            ));
        }
        Ok(())
    }
}

/// Ground-truth ledger of every fault a [`FaultInjectingSource`] injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Calls that returned an injected transient error.
    pub errors: usize,
    /// Calls that returned an injected stall (deadline) error.
    pub stalls: usize,
    /// Readings replaced by NaN.
    pub nans: usize,
    /// Readings replaced by `+∞`.
    pub infs: usize,
    /// Readings replaced by a negative value.
    pub negatives: usize,
    /// Readings silently corrupted.
    pub corruptions: usize,
    /// Calls that passed through untouched.
    pub clean: usize,
}

/// Decorator that injects faults into an inner [`PowerSource`].
///
/// The injector draws from its own [`SmallRng`] (seeded by
/// [`FaultConfig::seed`]), never from the estimation RNG passed to
/// `sample`, so the fault sequence is a pure function of the wrapper seed
/// and the call index. Inner-source errors (if any) pass through
/// untouched and are *not* counted as injected faults.
#[derive(Debug, Clone)]
pub struct FaultInjectingSource<S> {
    inner: S,
    config: FaultConfig,
    rng: SmallRng,
    stats: FaultStats,
    telemetry: mpe_telemetry::Telemetry,
}

impl<S: PowerSource> FaultInjectingSource<S> {
    /// Wraps `inner` with the given fault mix.
    ///
    /// # Errors
    ///
    /// Returns [`MaxPowerError::InvalidConfig`] when `config` is invalid.
    pub fn new(inner: S, config: FaultConfig) -> Result<Self, MaxPowerError> {
        config.validate()?;
        Ok(FaultInjectingSource {
            inner,
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            stats: FaultStats::default(),
            telemetry: mpe_telemetry::Telemetry::disabled(),
        })
    }

    /// Attaches a telemetry handle: every injected fault is counted by
    /// kind (`fault_errors`, `fault_stalls`, `fault_nans`, …) as it fires,
    /// so a trace can be cross-checked against the [`FaultStats`] ledger.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: mpe_telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The fault ledger so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The configured fault mix.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the decorator, discarding the ledger.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn unit_roll(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl<S: PowerSource> PowerSource for FaultInjectingSource<S> {
    fn sample(&mut self, rng: &mut dyn RngCore) -> Result<f64, MaxPowerError> {
        let c = self.config;
        let roll = self.unit_roll();
        // Pre-call faults: the inner source is never reached.
        let mut edge = c.error_rate;
        if roll < edge {
            self.stats.errors += 1;
            self.telemetry
                .counter(mpe_telemetry::names::FAULT_ERRORS, 1);
            return Err(MaxPowerError::Source {
                message: "injected transient source error".to_string(),
            });
        }
        edge += c.stall_rate;
        if roll < edge {
            self.stats.stalls += 1;
            self.telemetry
                .counter(mpe_telemetry::names::FAULT_STALLS, 1);
            return Err(MaxPowerError::Source {
                message: "injected stall: source exceeded its deadline".to_string(),
            });
        }
        // Real inner call; inner errors pass through uncounted.
        let p = self.inner.sample(rng)?;
        // Post-call reading faults.
        edge += c.nan_rate;
        if roll < edge {
            self.stats.nans += 1;
            self.telemetry.counter(mpe_telemetry::names::FAULT_NANS, 1);
            return Ok(f64::NAN);
        }
        edge += c.inf_rate;
        if roll < edge {
            self.stats.infs += 1;
            self.telemetry.counter(mpe_telemetry::names::FAULT_INFS, 1);
            return Ok(f64::INFINITY);
        }
        edge += c.negative_rate;
        if roll < edge {
            self.stats.negatives += 1;
            self.telemetry
                .counter(mpe_telemetry::names::FAULT_NEGATIVES, 1);
            return Ok(-(p.abs() + 1.0));
        }
        edge += c.corrupt_rate;
        if roll < edge {
            self.stats.corruptions += 1;
            self.telemetry
                .counter(mpe_telemetry::names::FAULT_CORRUPTIONS, 1);
            return Ok(p * c.corrupt_scale);
        }
        self.stats.clean += 1;
        Ok(p)
    }

    fn population_size(&self) -> Option<u64> {
        self.inner.population_size()
    }

    /// Reseeds the private fault RNG from the wrapper seed and the
    /// hyper-sample index, making the fault stream a pure function of
    /// `(seed, k)` — so a parallel run injects exactly the same faults into
    /// hyper-sample `k` no matter which worker draws it, and a resumed run
    /// replays the same faults the interrupted run saw.
    fn begin_hyper_sample(&mut self, k: u64) {
        self.rng =
            SmallRng::seed_from_u64(crate::engine::derive_seed(self.config.seed, k as usize));
        self.inner.begin_hyper_sample(k);
    }

    // Lane batching happens below the fault layer: faults are decided per
    // draw here, while the wrapped source banks and serves prefetched
    // readings — the two streams never interact, so forwarding the planning
    // hooks keeps fault-injected runs batched *and* bit-identical.
    fn plan_lookahead(&self, sample_size: usize) -> usize {
        self.inner.plan_lookahead(sample_size)
    }

    fn plan_hyper_samples(&mut self, master_seed: u64, upcoming: &[u64], expected_units: usize) {
        self.inner
            .plan_hyper_samples(master_seed, upcoming, expected_units);
    }

    fn lane_stats(&self) -> Option<crate::source::LaneStats> {
        self.inner.lane_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FnSource;
    use rand::SeedableRng;

    fn constant_five() -> FnSource<impl FnMut(&mut dyn RngCore) -> f64> {
        FnSource::new(|_rng: &mut dyn RngCore| 5.0)
    }

    #[test]
    fn rejects_bad_config() {
        let bad = FaultConfig {
            error_rate: 1.5,
            ..FaultConfig::default()
        };
        assert!(FaultInjectingSource::new(constant_five(), bad).is_err());
        let bad = FaultConfig {
            error_rate: 0.6,
            nan_rate: 0.6,
            ..FaultConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultConfig {
            corrupt_scale: f64::INFINITY,
            ..FaultConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn zero_rates_pass_through_untouched() {
        let mut s = FaultInjectingSource::new(constant_five(), FaultConfig::default()).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng).unwrap(), 5.0);
        }
        assert_eq!(
            *s.stats(),
            FaultStats {
                clean: 100,
                ..FaultStats::default()
            }
        );
    }

    #[test]
    fn ledger_accounts_every_call() {
        let cfg = FaultConfig {
            seed: 42,
            error_rate: 0.1,
            stall_rate: 0.05,
            nan_rate: 0.05,
            inf_rate: 0.05,
            negative_rate: 0.05,
            corrupt_rate: 0.05,
            corrupt_scale: 100.0,
        };
        let mut s = FaultInjectingSource::new(constant_five(), cfg).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let calls = 2000;
        let (mut errs, mut nans, mut infs, mut negs, mut corrupt, mut clean) = (0, 0, 0, 0, 0, 0);
        for _ in 0..calls {
            match s.sample(&mut rng) {
                Err(MaxPowerError::Source { .. }) => errs += 1,
                Err(other) => panic!("unexpected error: {other}"),
                Ok(p) if p.is_nan() => nans += 1,
                Ok(p) if p == f64::INFINITY => infs += 1,
                Ok(p) if p < 0.0 => negs += 1,
                Ok(500.0) => corrupt += 1,
                Ok(p) => {
                    assert_eq!(p, 5.0);
                    clean += 1;
                }
            }
        }
        let st = *s.stats();
        assert_eq!(errs, st.errors + st.stalls);
        assert_eq!(nans, st.nans);
        assert_eq!(infs, st.infs);
        assert_eq!(negs, st.negatives);
        assert_eq!(corrupt, st.corruptions);
        assert_eq!(clean, st.clean);
        // With a 35 % total fault rate over 2000 calls, faults certainly fired.
        assert!(clean < calls, "fault mix never fired");
    }

    #[test]
    fn fault_stream_is_deterministic_in_wrapper_seed() {
        let cfg = FaultConfig {
            seed: 9,
            error_rate: 0.2,
            nan_rate: 0.1,
            ..FaultConfig::default()
        };
        let run = |est_seed: u64| {
            let mut s = FaultInjectingSource::new(constant_five(), cfg).unwrap();
            let mut rng = SmallRng::seed_from_u64(est_seed);
            let pattern: Vec<u8> = (0..200)
                .map(|_| match s.sample(&mut rng) {
                    Err(_) => 2,
                    Ok(p) if p.is_nan() => 1,
                    Ok(_) => 0,
                })
                .collect();
            pattern
        };
        // Same wrapper seed, different estimation seeds: identical faults.
        assert_eq!(run(1), run(999));
    }

    #[test]
    fn telemetry_counters_match_the_ledger() {
        let cfg = FaultConfig {
            seed: 42,
            error_rate: 0.1,
            stall_rate: 0.05,
            nan_rate: 0.05,
            inf_rate: 0.05,
            negative_rate: 0.05,
            corrupt_rate: 0.05,
            corrupt_scale: 100.0,
        };
        let telemetry = mpe_telemetry::Telemetry::enabled();
        let mut s = FaultInjectingSource::new(constant_five(), cfg)
            .unwrap()
            .with_telemetry(telemetry.clone());
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..2000 {
            let _ = s.sample(&mut rng);
        }
        let st = *s.stats();
        assert!(st.clean < 2000);
        let snap = telemetry.snapshot();
        use mpe_telemetry::names;
        assert_eq!(snap.counter(names::FAULT_ERRORS), st.errors as u64);
        assert_eq!(snap.counter(names::FAULT_STALLS), st.stalls as u64);
        assert_eq!(snap.counter(names::FAULT_NANS), st.nans as u64);
        assert_eq!(snap.counter(names::FAULT_INFS), st.infs as u64);
        assert_eq!(snap.counter(names::FAULT_NEGATIVES), st.negatives as u64);
        assert_eq!(
            snap.counter(names::FAULT_CORRUPTIONS),
            st.corruptions as u64
        );
    }

    #[test]
    fn passes_population_size_through() {
        let s = FaultInjectingSource::new(constant_five(), FaultConfig::default()).unwrap();
        assert_eq!(s.population_size(), constant_five().population_size());
    }
}
