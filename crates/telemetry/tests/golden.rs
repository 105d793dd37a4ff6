//! Golden-file tests for the two human-facing renderings of the metrics
//! registry — the Prometheus-style text exposition and the summary table —
//! and for the JSONL trace wire format. All are rendered from fixed,
//! hand-written events (explicit `elapsed_ns`, no clocks), so the expected
//! output is byte-stable.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mpe-telemetry --test golden
//! ```

use mpe_telemetry::{names, EventKind, EventRecord, MetricsRegistry, SpanKind};

/// Builds the registry state every golden rendering starts from: one run
/// span, three hyper-sample spans with distinct durations (so the
/// quantile columns are non-trivial), work counters and a gauge.
fn fixture_registry() -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    let mut seq = 0;
    let mut record = |kind: EventKind| {
        registry.record(&EventRecord {
            seq,
            t_ns: seq * 1_000,
            worker: None,
            kind,
        });
        seq += 1;
    };

    record(EventKind::Counter {
        name: names::VECTOR_PAIRS_SIMULATED.to_string(),
        delta: 2_700,
    });
    record(EventKind::Counter {
        name: names::HYPER_SAMPLES.to_string(),
        delta: 3,
    });
    record(EventKind::Gauge {
        name: names::CI_RELATIVE_HALF_WIDTH.to_string(),
        value: 0.125,
    });
    for (id, elapsed_ns) in [(1u64, 40_000u64), (2, 55_000), (3, 250_000)] {
        record(EventKind::SpanStart {
            span: SpanKind::HyperSample,
            id,
        });
        record(EventKind::SpanEnd {
            span: SpanKind::HyperSample,
            id,
            elapsed_ns,
        });
    }
    record(EventKind::SpanEnd {
        span: SpanKind::Run,
        id: 0,
        elapsed_ns: 400_000,
    });
    registry
}

/// Compares a rendering against its golden file, rewriting the file
/// instead when `UPDATE_GOLDEN` is set.
fn assert_matches_golden(rendered: &str, golden_path: &str, golden: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/{golden_path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, rendered).expect("golden file is writable");
        return;
    }
    assert_eq!(
        rendered, golden,
        "rendering drifted from tests/{golden_path}; \
         run with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn exposition_matches_golden_file() {
    assert_matches_golden(
        &fixture_registry().render_exposition(),
        "golden/exposition.txt",
        include_str!("golden/exposition.txt"),
    );
}

#[test]
fn summary_table_matches_golden_file() {
    assert_matches_golden(
        &fixture_registry().render_summary(),
        "golden/summary.txt",
        include_str!("golden/summary.txt"),
    );
}

/// One trace line per event kind, covering a `worker` stamp, a non-finite
/// gauge, `fit_diag` with and without diagnostics, and a name that needs
/// every kind of string escape.
fn fixture_trace() -> Vec<EventRecord> {
    let kinds = [
        EventKind::SpanStart {
            span: SpanKind::HyperSample,
            id: 3,
        },
        EventKind::Counter {
            name: "quote\" backslash\\ newline\n tab\t ctrl\u{1}".to_string(),
            delta: 300,
        },
        EventKind::Gauge {
            name: names::CI_RELATIVE_HALF_WIDTH.to_string(),
            value: f64::INFINITY,
        },
        EventKind::Gauge {
            name: names::RUNNING_MEAN_MW.to_string(),
            value: 9.875,
        },
        EventKind::FitDiag {
            k: 1,
            rung: "mle".to_string(),
            reason: "converged".to_string(),
            log_likelihood: Some(-1.25),
            ks_distance: Some(0.1875),
            tail_shape: Some(3.5),
        },
        EventKind::FitDiag {
            k: 2,
            rung: "quantile".to_string(),
            reason: "no_convergence".to_string(),
            log_likelihood: None,
            ks_distance: None,
            tail_shape: None,
        },
        EventKind::SpanEnd {
            span: SpanKind::HyperSample,
            id: 3,
            elapsed_ns: 55_000,
        },
    ];
    kinds
        .into_iter()
        .zip(0u64..)
        .map(|(kind, seq)| EventRecord {
            seq,
            t_ns: 1_000 * seq + 7,
            worker: (seq == 0 || seq == 4 || seq == 6).then_some(2),
            kind,
        })
        .collect()
}

#[test]
fn trace_lines_match_golden_file() {
    let rendered: String = fixture_trace()
        .iter()
        .map(|r| r.to_json_line() + "\n")
        .collect();
    assert_matches_golden(
        &rendered,
        "golden/trace.jsonl",
        include_str!("golden/trace.jsonl"),
    );
    for (line, record) in rendered.lines().zip(fixture_trace()) {
        assert_eq!(
            EventRecord::parse_json_line(line).as_ref(),
            Ok(&record),
            "{line}"
        );
    }
}
