//! End-to-end tests of the `mpe` command-line tool, driving the real
//! binary through `std::process`.

use std::process::Command;

fn mpe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpe"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = mpe().args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_lists_subcommands() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    for word in [
        "estimate",
        "average",
        "delay",
        "trace",
        "generate",
        "--epsilon",
    ] {
        assert!(stdout.contains(word), "help missing `{word}`");
    }
}

#[test]
fn no_args_fails_with_usage() {
    let out = mpe().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_flags_and_commands_rejected() {
    let (ok, _, stderr) = run(&["estimate", "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("--frobnicate"));
    let (ok, _, stderr) = run(&["frob"]);
    assert!(!ok);
    assert!(stderr.contains("frob"));
    let (ok, _, stderr) = run(&["estimate"]);
    assert!(!ok);
    assert!(stderr.contains("--circuit"));
}

#[test]
fn info_reports_structure() {
    let (ok, stdout, _) = run(&["info", "--circuit", "C432"]);
    assert!(ok);
    assert!(stdout.contains("36 inputs"));
    assert!(stdout.contains("160 gates"));
}

#[test]
fn generate_output_reparses() {
    let (ok, stdout, _) = run(&["generate", "--circuit", "C432"]);
    assert!(ok);
    let circuit = mpe_netlist::bench_format::parse(&stdout, "C432").expect("own output parses");
    assert_eq!(circuit.num_inputs(), 36);
    assert_eq!(circuit.num_gates(), 160);
}

#[test]
fn estimate_json_is_valid_report() {
    let (ok, stdout, _) = run(&[
        "estimate",
        "--circuit",
        "C432",
        "--epsilon",
        "0.15",
        "--json",
    ]);
    assert!(ok);
    let report = maxpower::EstimateReport::from_json(&stdout).expect("valid JSON report");
    assert_eq!(report.subject, "C432");
    assert_eq!(report.metric, "max_power_mw");
    assert!(report.estimate > 0.0);
    assert!(report.units_used >= 600);
}

#[test]
fn checkpointed_estimate_resumes_to_identical_result() {
    let dir = std::env::temp_dir().join("mpe_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("c432.ckpt");
    let path = path.to_str().expect("utf8 path");
    // A stale checkpoint or backup from another build would be recovered
    // by the first run and refused for its config fingerprint.
    for stale in [path.to_string(), format!("{path}.bak")] {
        let _ = std::fs::remove_file(stale);
    }
    let args = [
        "estimate",
        "--circuit",
        "C432",
        "--epsilon",
        "0.15",
        "--json",
        "--checkpoint",
        path,
    ];
    // First run: converges and leaves its final checkpoint behind.
    let (ok, first, stderr) = run(&args);
    assert!(ok, "{stderr}");
    assert!(
        std::path::Path::new(path).exists(),
        "checkpoint file written"
    );
    // Second run: resumes from the completed checkpoint — no new
    // simulation, identical result.
    let (ok, second, stderr) = run(&args);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("resuming from checkpoint"), "{stderr}");
    let a = maxpower::EstimateReport::from_json(&first).expect("valid report");
    let b = maxpower::EstimateReport::from_json(&second).expect("valid report");
    assert_eq!(a.estimate, b.estimate);
    assert_eq!(a.units_used, b.units_used);
    for stale in [path.to_string(), format!("{path}.bak")] {
        let _ = std::fs::remove_file(stale);
    }
}

#[test]
fn hyper_budget_interrupts_and_resume_completes_identically() {
    let dir = std::env::temp_dir().join("mpe_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("c432_budget.ckpt");
    let path = path.to_str().expect("utf8 path");
    for stale in [path.to_string(), format!("{path}.bak")] {
        let _ = std::fs::remove_file(stale);
    }
    let filtered = |stdout: &str| {
        stdout
            .lines()
            .filter(|l| !l.starts_with("execution:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let base = ["estimate", "--circuit", "C432", "--epsilon", "0.15"];

    // The uninterrupted reference.
    let (ok, reference, stderr) = run(&base);
    assert!(ok, "{stderr}");

    // Budget-capped run: exits cleanly with a partial result and a
    // checksum-valid checkpoint.
    let (ok, _, stderr) =
        run(&[&base[..], &["--hyper-budget", "2", "--checkpoint", path]].concat());
    assert!(ok, "{stderr}");
    assert!(stderr.contains("INTERRUPTED"), "{stderr}");
    assert!(stderr.contains("hyper-sample budget"), "{stderr}");
    let cp = maxpower::Checkpoint::from_json(
        &std::fs::read_to_string(path).expect("checkpoint written"),
    )
    .expect("checkpoint is checksum-valid");
    assert!(cp.hyper_samples() >= 2);

    // Resuming without the budget completes to the reference bytes.
    let (ok, resumed, stderr) = run(&[&base[..], &["--checkpoint", path]].concat());
    assert!(ok, "{stderr}");
    assert!(stderr.contains("resuming from checkpoint"), "{stderr}");
    assert_eq!(filtered(&reference), filtered(&resumed));
    for stale in [path.to_string(), format!("{path}.bak")] {
        let _ = std::fs::remove_file(stale);
    }
}

#[test]
fn checkpoint_from_another_seed_is_refused_and_left_untouched() {
    let dir = std::env::temp_dir().join("mpe_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("c432_seed.ckpt");
    let path = path.to_str().expect("utf8 path");
    let backup = format!("{path}.bak");
    for stale in [path, &backup] {
        let _ = std::fs::remove_file(stale);
    }
    let base = ["estimate", "--circuit", "C432", "--epsilon", "0.15"];
    let (ok, _, stderr) = run(&[&base[..], &["--seed", "42", "--checkpoint", path]].concat());
    assert!(ok, "{stderr}");
    let read = |p: &str| std::fs::read(p).ok();
    let before = (read(path), read(&backup));
    assert!(before.0.is_some(), "checkpoint written");

    let out = mpe()
        .args(base)
        .args(["--seed", "43", "--checkpoint", path])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("master seed 42 != requested 43"),
        "{stderr}"
    );
    // Nothing was resumed, so nothing may claim it was.
    assert!(!stderr.contains("resuming from checkpoint"), "{stderr}");
    assert_eq!(
        (read(path), read(&backup)),
        before,
        "checkpoint files changed"
    );
    for stale in [path, &backup] {
        let _ = std::fs::remove_file(stale);
    }
}

/// `text`, a checkpoint this build wrote, in the v3 layout of 0.25.0 and
/// earlier: version 3, with each hyper-sample's rung also listed under
/// `hyper_estimators`.
fn as_v3_checkpoint(text: &str) -> String {
    let cp = maxpower::Checkpoint::from_json(text).expect("a valid checkpoint");
    let rungs: Vec<_> = cp.fit_diagnostics.iter().map(|d| d.rung).collect();
    let rungs = maxpower::serve::json::to_string(&rungs);
    text.replacen("\"version\": 4,", "\"version\": 3,", 1)
        .replacen(
            "  \"fit_diagnostics\":",
            &format!("  \"hyper_estimators\": {rungs},\n  \"fit_diagnostics\":"),
            1,
        )
}

#[test]
fn v3_checkpoint_is_refused_by_version_and_left_untouched() {
    let dir = std::env::temp_dir().join("mpe_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("c432_v3.ckpt");
    let path = path.to_str().expect("utf8 path");
    let backup = format!("{path}.bak");
    for stale in [path, &backup] {
        let _ = std::fs::remove_file(stale);
    }
    let base = ["estimate", "--circuit", "C432", "--epsilon", "0.15"];
    let (ok, _, stderr) =
        run(&[&base[..], &["--hyper-budget", "2", "--checkpoint", path]].concat());
    assert!(ok, "{stderr}");
    let v3 = as_v3_checkpoint(&std::fs::read_to_string(path).expect("checkpoint written"));
    assert!(
        v3.contains("\"hyper_estimators\": [\"Mle\",\"Mle\"]"),
        "{v3}"
    );
    for file in [path, &backup] {
        std::fs::write(file, &v3).expect("v3 checkpoint written");
    }

    let out = mpe()
        .args(base)
        .args(["--checkpoint", path])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("checkpoint version 3 != supported 4"),
        "{stderr}"
    );
    assert!(!stderr.contains("resuming from checkpoint"), "{stderr}");
    for file in [path, &backup] {
        assert_eq!(
            std::fs::read_to_string(file).expect("still there"),
            v3,
            "{file} changed"
        );
    }
    for stale in [path, &backup] {
        let _ = std::fs::remove_file(stale);
    }
}

#[test]
fn unwritable_checkpoint_warns_but_still_reports() {
    let dir = std::env::temp_dir().join("mpe_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let missing = dir.join("no-such-dir");
    let _ = std::fs::remove_dir_all(&missing);
    let path = missing.join("c432.ckpt");
    let (ok, stdout, stderr) = run(&[
        "estimate",
        "--circuit",
        "C432",
        "--epsilon",
        "0.15",
        "--checkpoint",
        path.to_str().expect("utf8 path"),
    ]);
    assert!(ok, "{stderr}");
    assert!(!stdout.is_empty());
    assert!(stderr.contains("status: converged"), "{stderr}");
    assert!(
        stderr.contains("warning: failed to persist checkpoint"),
        "{stderr}"
    );
}

#[test]
fn sample_policy_flag_parses() {
    let (ok, stdout, stderr) = run(&[
        "estimate",
        "--circuit",
        "C432",
        "--epsilon",
        "0.15",
        "--sample-policy",
        "skip:500",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("max_power_mw"), "{stdout}");
    // Status/health diagnostics go to stderr; stdout carries the result.
    assert!(stderr.contains("status:"), "{stderr}");
    assert!(!stdout.contains("status:"), "{stdout}");
    let (ok, _, stderr) = run(&["estimate", "--circuit", "C432", "--sample-policy", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("bogus"), "{stderr}");
}

#[test]
fn trace_file_and_metrics_flags_produce_valid_observability_output() {
    let dir = std::env::temp_dir().join("mpe_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("c432_trace.jsonl");
    let _ = std::fs::remove_file(&path);
    let (ok, stdout, stderr) = run(&[
        "estimate",
        "--circuit",
        "C432",
        "--epsilon",
        "0.15",
        "--trace-file",
        path.to_str().expect("utf8 path"),
        "--metrics",
        "--progress",
    ]);
    assert!(ok, "{stderr}");
    // The live progress line repainted on stderr.
    assert!(stderr.contains("k="), "{stderr}");

    // Every trace line is schema-valid and spans nest correctly.
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let summary = maxpower::telemetry::replay(text.lines()).expect("trace replays cleanly");
    assert!(summary.events > 0);
    assert_eq!(
        summary
            .metrics
            .phase(maxpower::telemetry::SpanKind::Run)
            .count,
        1
    );

    // The metrics exposition lands on stdout (no --json) and agrees with
    // the trace on the unit cost.
    assert!(
        stdout.contains("mpe_vector_pairs_simulated_total"),
        "{stdout}"
    );
    let exposed: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("mpe_vector_pairs_simulated_total "))
        .expect("exposition line present")
        .trim()
        .parse()
        .expect("counter value parses");
    assert_eq!(
        exposed,
        summary
            .metrics
            .counter(maxpower::telemetry::names::VECTOR_PAIRS_SIMULATED)
    );
    // The human summary table goes to stderr, keeping stdout parseable.
    assert!(stderr.contains("phase"), "{stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn json_with_telemetry_keeps_stdout_machine_readable() {
    let (ok, stdout, stderr) = run(&[
        "estimate",
        "--circuit",
        "C432",
        "--epsilon",
        "0.15",
        "--json",
        "--metrics",
    ]);
    assert!(ok, "{stderr}");
    // stdout is exactly one JSON report; the exposition moved to stderr.
    let report = maxpower::EstimateReport::from_json(&stdout).expect("valid JSON report");
    assert_eq!(report.subject, "C432");
    assert!(
        stderr.contains("mpe_vector_pairs_simulated_total"),
        "{stderr}"
    );
}

#[test]
fn bench_file_loading_works() {
    let dir = std::env::temp_dir().join("mpe_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tiny.bench");
    std::fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
        .expect("write netlist");
    let (ok, stdout, _) = run(&["info", "--bench", path.to_str().expect("utf8 path")]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("2 inputs"));
    assert!(stdout.contains("1 gates"));
}

#[test]
fn verilog_loading_works() {
    let dir = std::env::temp_dir().join("mpe_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tiny.v");
    std::fs::write(
        &path,
        "module tiny (a, b, y);\n input a, b;\n output y;\n nand g (y, a, b);\nendmodule\n",
    )
    .expect("write netlist");
    let (ok, stdout, _) = run(&["info", "--verilog", path.to_str().expect("utf8 path")]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("2 inputs"));
}

#[test]
fn trace_emits_vcd() {
    let (ok, stdout, stderr) = run(&["trace", "--circuit", "C432"]);
    assert!(ok);
    assert!(stdout.contains("$enddefinitions $end"));
    assert!(stdout.contains("$dumpvars"));
    assert!(stderr.contains("transitions"));
}

#[test]
fn out_of_domain_estimation_parameters_are_usage_errors() {
    // Spec mistakes exit 2, like flag-parse errors, and name the violated
    // constraint — the same message `POST /jobs` returns as a 400.
    for (args, needle) in [
        (
            &["estimate", "--epsilon", "2"][..],
            "relative_error must be in (0, 1)",
        ),
        (
            &["estimate", "--confidence", "1.5"],
            "confidence must be in (0, 1)",
        ),
        (
            &["estimate", "--population", "1"],
            "finite_population must be at least 2",
        ),
        (&["estimate", "--activity", "1.5"], "activity=1.5"),
        (
            &["estimate", "--json", "--live", "ndjson"],
            "cannot be combined with --json",
        ),
        (
            &["estimate", "--deadline", "1e300"],
            "non-negative number of seconds",
        ),
        (
            &["average", "--epsilon", "5"],
            "relative_error must be in (0, 1)",
        ),
    ] {
        let out = mpe()
            .args(&args[..1])
            .args(["--circuit", "C432"])
            .args(&args[1..])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("error[usage]"), "{stderr}");
        assert!(stderr.contains(needle), "{stderr}");
    }
}

#[test]
fn conflicting_circuit_flags_are_usage_errors() {
    // Rejected while parsing, before any file is read, so the named
    // netlists need not exist.
    for (command, flags, pair) in [
        (
            "info",
            ["--circuit", "C880", "--bench", "c432.bench"],
            "`--circuit` and `--bench`",
        ),
        (
            "estimate",
            ["--circuit", "C432", "--verilog", "c432.v"],
            "`--circuit` and `--verilog`",
        ),
        (
            "generate",
            ["--bench", "c432.bench", "--verilog", "c432.v"],
            "`--bench` and `--verilog`",
        ),
    ] {
        let out = mpe()
            .arg(command)
            .args(flags)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command} {flags:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error[usage]: {pair} are mutually exclusive")),
            "{stderr}"
        );
    }
}

#[test]
fn delay_json_is_identical_across_kernels() {
    // The settle-time reading runs on every kernel, bit for bit: the
    // reports differ only in the kernel provenance and the wall time.
    let report = |kernel: &str| -> String {
        let (ok, stdout, stderr) = run(&[
            "delay",
            "--circuit",
            "C432",
            "--epsilon",
            "0.2",
            "--kernel",
            kernel,
            "--json",
        ]);
        assert!(ok, "--kernel {kernel}: {stderr}");
        stdout
            .lines()
            .filter(|l| !l.contains("\"kernel") && !l.contains("\"wall_ms\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let scalar = report("scalar");
    assert!(scalar.contains("max_delay_units"), "{scalar}");
    for kernel in ["auto", "packed", "packed128"] {
        assert_eq!(
            scalar,
            report(kernel),
            "--kernel {kernel} diverged from scalar"
        );
    }
    // A bogus kernel name is a flag-parse error.
    let out = mpe()
        .args(["delay", "--circuit", "C432", "--kernel", "frob"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("frob"));
}

#[test]
fn packed128_kernel_estimate_matches_scalar() {
    let result_lines = |kernel: &str| -> String {
        let (ok, stdout, stderr) = run(&[
            "estimate",
            "--circuit",
            "C432",
            "--epsilon",
            "0.2",
            "--seed",
            "7",
            "--kernel",
            kernel,
        ]);
        assert!(ok, "{stderr}");
        stdout
            .lines()
            .filter(|l| !l.starts_with("execution:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let scalar = result_lines("scalar");
    assert!(scalar.contains("max_power_mw"), "{scalar}");
    for kernel in ["packed", "packed128"] {
        assert_eq!(
            scalar,
            result_lines(kernel),
            "--kernel {kernel} diverged from scalar"
        );
    }
}

#[test]
fn workers_zero_rejected_and_oversubscription_warns() {
    let (ok, _, stderr) = run(&["estimate", "--circuit", "C432", "--workers", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--workers"), "{stderr}");
    assert!(stderr.contains("positive"), "{stderr}");

    // Requesting far more workers than the host has cores still succeeds,
    // with a warning on stderr.
    let (ok, _, stderr) = run(&[
        "estimate",
        "--circuit",
        "C432",
        "--epsilon",
        "0.25",
        "--seed",
        "42",
        "--workers",
        "512",
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("512"), "{stderr}");
}

#[test]
fn estimate_is_bit_identical_across_worker_counts() {
    let result_lines = |workers: &str| -> String {
        let (ok, stdout, stderr) = run(&[
            "estimate",
            "--circuit",
            "C432",
            "--epsilon",
            "0.15",
            "--seed",
            "42",
            "--workers",
            workers,
        ]);
        assert!(ok, "{stderr}");
        // The execution line carries wall-clock time, which legitimately
        // varies run to run; everything else must be byte-identical.
        stdout
            .lines()
            .filter(|l| !l.starts_with("execution:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let sequential = result_lines("1");
    assert!(sequential.contains("max_power_mw"), "{sequential}");
    for n in ["2", "8"] {
        assert_eq!(
            sequential,
            result_lines(n),
            "--workers {n} diverged from --workers 1"
        );
    }
}
