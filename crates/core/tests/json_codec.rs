//! The JSON codec's compatibility contract, pinned to files: the exact
//! bytes of a full report and a sealed checkpoint, round trips through
//! every optional field, and legacy documents that predate later fields.
//!
//! A change to `golden/*.json` is a change to the wire format every
//! downstream reader, resumed checkpoint and spooled daemon job depends on.

use maxpower::health::{FitDiagnostics, FitReasonCode};
use maxpower::report::PhaseQuantiles;
use maxpower::{
    Checkpoint, CounterValue, EstimateHistoryEntry, EstimateReport, EstimatorKind, JobProvenance,
    PhaseTiming, RunHealth, RunStatus, StopReason, TelemetrySummary, CHECKPOINT_VERSION,
};

const GOLDEN_REPORT: &str = include_str!("golden/report.json");
const GOLDEN_CHECKPOINT: &str = include_str!("golden/checkpoint.json");

fn telemetry() -> TelemetrySummary {
    TelemetrySummary {
        phases: vec![
            PhaseTiming {
                phase: "run".into(),
                count: 1,
                total_ns: 81_234_567,
            },
            PhaseTiming {
                phase: "fit".into(),
                count: 12,
                total_ns: 4_000_001,
            },
        ],
        counters: vec![CounterValue {
            name: "vector_pairs_simulated".into(),
            value: 3_600,
        }],
        quantiles: vec![PhaseQuantiles {
            phase: "fit".into(),
            p50_ns: 262_144,
            p95_ns: 524_288,
            p99_ns: 1_048_576,
        }],
    }
}

fn diagnostics() -> Vec<FitDiagnostics> {
    vec![
        FitDiagnostics {
            rung: EstimatorKind::Mle,
            reason: FitReasonCode::Converged,
            log_likelihood: Some(-0.8125),
            ks_distance: Some(0.1171875),
            tail_shape: Some(2.9),
        },
        FitDiagnostics {
            rung: EstimatorKind::Quantile,
            reason: FitReasonCode::DegenerateMaxima,
            log_likelihood: None,
            ks_distance: None,
            tail_shape: Some(-1e-7),
        },
    ]
}

/// A served report with every optional field present.
fn full_report() -> EstimateReport {
    EstimateReport {
        version: 9,
        subject: "C432 \"golden\"".into(),
        metric: "max_power_mw".into(),
        estimate: 12.345678901234567,
        ci_low: 11.5,
        ci_high: 13.191357802469134,
        relative_error: 0.068_5,
        confidence: 0.9,
        hyper_samples: 2,
        units_used: 3_600,
        observed_max: 12.0,
        status: RunStatus::Degraded {
            fallback: EstimatorKind::Quantile,
        },
        health: RunHealth {
            samples_discarded: 3,
            source_errors: 1,
            quantile_fallbacks: 1,
            zero_mean_guard: true,
            worker_restarts: 2,
            irregular_fits: 1,
            ..RunHealth::default()
        },
        hyper_estimates: vec![12.5, 12.191357802469134],
        hyper_estimators: vec![EstimatorKind::Mle, EstimatorKind::Quantile],
        fit_diagnostics: diagnostics(),
        telemetry: Some(telemetry()),
        workers: 4,
        wall_ms: Some(81.234567),
        kernel: Some("packed128".into()),
        kernel_lanes: Some(128),
        host_parallelism: Some(2),
        job: Some(JobProvenance {
            job_id: "j000042".into(),
            submitted_unix_ms: 1_700_000_000_123,
            queue_wait_ms: 0.25,
        }),
    }
}

/// A CLI report: every optional field absent.
fn bare_report() -> EstimateReport {
    EstimateReport {
        status: RunStatus::Interrupted {
            reason: StopReason::HyperSampleBudget,
        },
        fit_diagnostics: Vec::new(),
        telemetry: None,
        workers: 1,
        wall_ms: None,
        kernel: None,
        kernel_lanes: None,
        host_parallelism: None,
        job: None,
        ..full_report()
    }
}

/// A sealed checkpoint whose fingerprint, seed and checksum all need the
/// full `u64` range.
fn sealed_checkpoint() -> Checkpoint {
    let mut cp = Checkpoint {
        version: CHECKPOINT_VERSION,
        config_fingerprint: 0xcbf2_9ce4_8422_2325,
        master_seed: u64::MAX,
        hyper_estimates: vec![12.5, 12.191357802469134],
        fit_diagnostics: diagnostics(),
        history: vec![
            EstimateHistoryEntry {
                k: 1,
                mean_mw: 12.5,
                relative_half_width: f64::INFINITY,
                units_used: 1_800,
            },
            EstimateHistoryEntry {
                k: 2,
                mean_mw: 12.345678901234567,
                relative_half_width: 0.068_5,
                units_used: 3_600,
            },
        ],
        units_used: 3_600,
        observed_max_mw: Some(12.0),
        health: RunHealth {
            quantile_fallbacks: 1,
            ..RunHealth::default()
        },
        telemetry: Some(telemetry()),
        checksum: None,
    };
    cp.seal();
    cp
}

#[test]
fn full_report_bytes_are_pinned() {
    let report = full_report();
    assert_eq!(report.to_json(), GOLDEN_REPORT.trim_end());
    assert_eq!(EstimateReport::from_json(GOLDEN_REPORT), Ok(report));
}

#[test]
fn sealed_checkpoint_bytes_are_pinned() {
    let cp = sealed_checkpoint();
    assert!(
        cp.checksum.is_some_and(|c| c > 1 << 53),
        "{:?}",
        cp.checksum
    );
    assert_eq!(cp.to_json(), GOLDEN_CHECKPOINT.trim_end());
    let back = Checkpoint::from_json(GOLDEN_CHECKPOINT).expect("golden checkpoint verifies");
    assert_eq!(back, cp);
    assert!(back.verify(0xcbf2_9ce4_8422_2325, u64::MAX).is_ok());
    assert!(GOLDEN_CHECKPOINT.contains("\"master_seed\": 18446744073709551615"));
}

#[test]
fn optional_fields_are_skipped_when_absent_and_roundtrip_either_way() {
    let bare = bare_report();
    let text = bare.to_json();
    for skipped in [
        "wall_ms",
        "kernel",
        "kernel_lanes",
        "host_parallelism",
        "job",
    ] {
        assert!(
            !text.contains(&format!("\"{skipped}\"")),
            "{skipped}: {text}"
        );
    }
    assert!(text.contains("\"telemetry\": null"), "{text}");
    assert!(text.contains("\"fit_diagnostics\": []"), "{text}");
    assert_eq!(EstimateReport::from_json(&text), Ok(bare));
    let full = full_report();
    assert_eq!(EstimateReport::from_json(&full.to_json()), Ok(full));

    let mut cp = sealed_checkpoint();
    cp.telemetry = None;
    cp.observed_max_mw = None;
    cp.seal();
    let text = cp.to_json();
    assert!(text.contains("\"observed_max_mw\": null"), "{text}");
    assert_eq!(Checkpoint::from_json(&text), Ok(cp));
}

#[test]
fn non_finite_floats_are_written_as_null() {
    let report = EstimateReport {
        relative_error: f64::INFINITY,
        ci_high: f64::NAN,
        hyper_estimates: vec![1.5, f64::NEG_INFINITY],
        ..bare_report()
    };
    let text = report.to_json();
    assert!(text.contains("\"relative_error\": null"), "{text}");
    assert!(text.contains("\"ci_high\": null"), "{text}");
    assert!(text.contains("    1.5,\n    null\n"), "{text}");
    // null reads back as NaN: the value is gone, the document still parses.
    let back = EstimateReport::from_json(&text).expect("report with nulls parses");
    assert!(back.relative_error.is_nan() && back.ci_high.is_nan());
    assert!(back.hyper_estimates[1].is_nan());
    assert_eq!(back.hyper_estimates[0], 1.5);
}

#[test]
fn legacy_report_without_optional_fields_reads_with_defaults() {
    let legacy = r#"{
      "version": 9, "subject": "C17", "metric": "max_power_mw",
      "estimate": 2.5, "ci_low": 2.0, "ci_high": 3.0,
      "relative_error": 0.2, "confidence": 0.9,
      "hyper_samples": 1, "units_used": 300, "observed_max": 2.25,
      "status": "Converged",
      "health": {
        "samples_discarded": 0, "source_errors": 0, "sample_retries": 0,
        "mle_retries": 0, "degenerate_bailouts": 0, "pot_fallbacks": 0,
        "quantile_fallbacks": 0, "zero_mean_guard": false
      },
      "hyper_estimates": [2.5],
      "hyper_estimators": ["Mle"],
      "written_by_a_future_version": {"ignored": [1, 2, 3]}
    }"#;
    let report = EstimateReport::from_json(legacy).expect("legacy report parses");
    assert!(report.fit_diagnostics.is_empty());
    assert_eq!(report.telemetry, None);
    assert_eq!(report.workers, 1);
    assert_eq!(report.wall_ms, None);
    assert_eq!(report.kernel, None);
    assert_eq!(report.kernel_lanes, None);
    assert_eq!(report.host_parallelism, None);
    assert_eq!(report.job, None);
    assert_eq!(report.health, RunHealth::default());
    assert_eq!(report.status, RunStatus::Converged);

    let missing = legacy.replace("\"hyper_estimators\": [\"Mle\"],", "");
    let err = EstimateReport::from_json(&missing).expect_err("required field missing");
    assert!(err.contains("hyper_estimators"), "{err}");
}

/// The sealed checkpoint 0.25.0 wrote (schema v3, with the
/// `hyper_estimators` key v4 dropped): the previous golden file.
const V3_CHECKPOINT: &str = r#"{
  "version": 3,
  "config_fingerprint": 14695981039346656037,
  "master_seed": 18446744073709551615,
  "hyper_estimates": [
    12.5,
    12.191357802469135
  ],
  "hyper_estimators": [
    "Mle",
    "Quantile"
  ],
  "fit_diagnostics": [
    {
      "rung": "Mle",
      "reason": "Converged",
      "log_likelihood": -0.8125,
      "ks_distance": 0.1171875,
      "tail_shape": 2.9
    },
    {
      "rung": "Quantile",
      "reason": "DegenerateMaxima",
      "log_likelihood": null,
      "ks_distance": null,
      "tail_shape": -1e-7
    }
  ],
  "history": [
    {
      "k": 1,
      "mean_mw": 12.5,
      "relative_half_width": null,
      "units_used": 1800
    },
    {
      "k": 2,
      "mean_mw": 12.345678901234567,
      "relative_half_width": 0.0685,
      "units_used": 3600
    }
  ],
  "units_used": 3600,
  "observed_max_mw": 12.0,
  "health": {
    "samples_discarded": 0,
    "source_errors": 0,
    "sample_retries": 0,
    "mle_retries": 0,
    "degenerate_bailouts": 0,
    "pot_fallbacks": 0,
    "quantile_fallbacks": 1,
    "zero_mean_guard": false,
    "worker_restarts": 0,
    "worker_stalls": 0,
    "irregular_fits": 0
  },
  "telemetry": {
    "phases": [
      {
        "phase": "run",
        "count": 1,
        "total_ns": 81234567
      },
      {
        "phase": "fit",
        "count": 12,
        "total_ns": 4000001
      }
    ],
    "counters": [
      {
        "name": "vector_pairs_simulated",
        "value": 3600
      }
    ],
    "quantiles": [
      {
        "phase": "fit",
        "p50_ns": 262144,
        "p95_ns": 524288,
        "p99_ns": 1048576
      }
    ]
  },
  "checksum": 1337102820354352182
}"#;

#[test]
fn v3_checkpoint_is_refused_by_its_version() {
    let err = Checkpoint::from_json(V3_CHECKPOINT)
        .expect_err("a v3 record is refused")
        .to_string();
    assert!(
        err.contains("version 3") && err.contains("supported 4"),
        "{err}"
    );
    assert!(!err.contains("checksum"), "{err}");
}

#[test]
fn unsealed_and_short_diagnostics_checkpoints_are_refused() {
    let mut unsealed = sealed_checkpoint();
    unsealed.checksum = None;
    let text = unsealed.to_json();
    assert!(text.contains("\"checksum\": null"), "{text}");
    let err = Checkpoint::from_json(&text)
        .expect_err("unsealed")
        .to_string();
    assert!(err.contains("unsealed"), "{err}");

    // Every key the writer emits is required.
    for key in [
        "fit_diagnostics",
        "telemetry",
        "observed_max_mw",
        "checksum",
    ] {
        // Renamed, the key reads as absent (unknown keys are ignored).
        let text = GOLDEN_CHECKPOINT.replacen(&format!("\"{key}\":"), "\"renamed\":", 1);
        let err = Checkpoint::from_json(&text).expect_err(key).to_string();
        assert!(err.contains(&format!("missing field `{key}`")), "{err}");
    }

    // A diagnostics trail shorter than the estimates is a mismatch, not
    // padded, even when sealed over.
    let mut short = sealed_checkpoint();
    short.fit_diagnostics.pop();
    short.seal();
    let back = Checkpoint::from_json(&short.to_json()).expect("the seal holds");
    let err = back
        .verify(0xcbf2_9ce4_8422_2325, u64::MAX)
        .expect_err("short trail")
        .to_string();
    assert!(err.contains("2 estimates, 1 fit diagnostics"), "{err}");
}

/// `text` with the first `from` after `anchor` replaced by `to`.
fn replace_after(text: &str, anchor: &str, from: &str, to: &str) -> String {
    let at = text.find(anchor).expect("anchor present") + anchor.len();
    let (head, tail) = text.split_at(at);
    assert!(tail.contains(from), "{from} after {anchor}");
    format!("{head}{}", tail.replacen(from, to, 1))
}

/// The peaks-over-threshold rung is gone from the ladder: a report naming
/// it anywhere a rung appears is refused, and the error names the rung.
#[test]
fn report_naming_the_removed_pot_rung_is_refused() {
    for anchor in ["\"fallback\": ", "\"hyper_estimators\": ", "\"rung\": "] {
        let text = replace_after(GOLDEN_REPORT, anchor, "\"Quantile\"", "\"Pot\"");
        let err = EstimateReport::from_json(&text).expect_err("Pot rung refused");
        assert!(
            err.contains("EstimatorKind") && err.contains("\"Pot\""),
            "{anchor}: {err}"
        );
    }
}

#[test]
fn checkpoint_naming_the_removed_pot_rung_is_refused() {
    let text = replace_after(GOLDEN_CHECKPOINT, "\"rung\": ", "\"Quantile\"", "\"Pot\"");
    let err = Checkpoint::from_json(&text)
        .expect_err("Pot rung refused")
        .to_string();
    assert!(
        err.contains("EstimatorKind") && err.contains("\"Pot\""),
        "{err}"
    );
    // A v3 checkpoint whose only hyper-sample came from the POT rung is
    // refused by its version before any rung is read.
    let legacy = r#"{
      "version": 3, "config_fingerprint": 18446744073709551557,
      "master_seed": 42, "hyper_estimates": [2.5], "hyper_estimators": ["Pot"],
      "history": [{"k": 1, "mean_mw": 2.5, "relative_half_width": null, "units_used": 300}],
      "units_used": 300, "observed_max_mw": 2.25,
      "health": {
        "samples_discarded": 0, "source_errors": 0, "sample_retries": 0,
        "mle_retries": 0, "degenerate_bailouts": 0, "pot_fallbacks": 1,
        "quantile_fallbacks": 0, "zero_mean_guard": false
      }
    }"#;
    let err = Checkpoint::from_json(legacy)
        .expect_err("v3 refused")
        .to_string();
    assert!(err.contains("version 3"), "{err}");
}
