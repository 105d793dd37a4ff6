//! End-to-end tests of `mpe serve`, driving the real daemon binary over
//! real TCP with a hand-rolled HTTP/1.1 client (no extra dependencies).
//!
//! Covered here (and mirrored by the `serve` CI job with `curl`):
//!
//! * boot → submit → stream events → fetch report, with the served report
//!   **byte-identical** to `mpe estimate --json` for the same parameters
//!   once the volatile provenance fields (`wall_ms`, `job`) are stripped;
//! * bounded-queue backpressure: a full queue refuses submissions with
//!   HTTP 429 and a structured error body;
//! * crash-safe spooling: a SIGKILLed daemon restarted on the same spool
//!   re-runs the lost job to completion, also when its checkpoint is
//!   garbage or from another seed;
//! * one failure surface: a bad request gets the same error kind and
//!   message from `POST /jobs` as from the CLI.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use maxpower::telemetry::replay;
use maxpower::EstimateReport;

fn mpe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpe"))
}

/// One `GET`/`POST` exchange against the daemon; returns `(status, body)`.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("daemon accepts connections");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request writes");
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .expect("daemon answers and closes");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// A running daemon process, killed on drop so a failing test never
/// leaks it.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(dir: &Path, extra: &[&str]) -> Daemon {
        let addr_file = dir.join("addr.txt");
        let _ = std::fs::remove_file(&addr_file);
        let child = mpe()
            .arg("serve")
            .args(["--addr-file", addr_file.to_str().expect("utf-8 path")])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        // The daemon writes the file atomically once it is listening.
        let deadline = Instant::now() + Duration::from_secs(20);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                break text.trim().to_string();
            }
            assert!(
                Instant::now() < deadline,
                "daemon never announced its address"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        Daemon { child, addr }
    }

    fn get(&self, path: &str) -> (u16, String) {
        http(&self.addr, "GET", path, "")
    }

    fn post(&self, path: &str, body: &str) -> (u16, String) {
        http(&self.addr, "POST", path, body)
    }

    /// Polls `GET /jobs/:id` until its status matches, failing loudly on
    /// timeout or a terminal mismatch (`done` awaited, `failed` seen).
    fn await_status(&self, id: &str, want: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (status, body) = self.get(&format!("/jobs/{id}"));
            assert_eq!(status, 200, "{body}");
            if body.contains(&format!("\"status\":\"{want}\"")) {
                return body;
            }
            for terminal in ["done", "failed", "cancelled"] {
                assert!(
                    terminal == want || !body.contains(&format!("\"status\":\"{terminal}\"")),
                    "job {id} reached `{terminal}` while waiting for `{want}`: {body}"
                );
            }
            assert!(
                Instant::now() < deadline,
                "job {id} never reached `{want}`: {body}"
            );
            std::thread::sleep(Duration::from_millis(30));
        }
    }

    /// Graceful stop via the API; asserts a clean exit.
    fn shutdown(mut self) {
        let (status, _) = self.post("/shutdown", "");
        assert_eq!(status, 200);
        let code = self.child.wait().expect("daemon exits");
        assert!(code.success(), "daemon exit status: {code}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mpe_serve_test").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Strips the fields that legitimately differ between a served and a CLI
/// run of the same spec — wall-clock and job provenance — and returns the
/// canonical re-serialization. Everything else must match exactly.
fn normalized(report: &str) -> String {
    let mut parsed = EstimateReport::from_json(report).expect("report parses");
    parsed.wall_ms = None;
    parsed.job = None;
    parsed.to_json()
}

/// `mpe estimate --json` for C432 at ε = 0.2 under `seed`: the reference
/// every served report is compared against.
fn cli_report(seed: &str) -> String {
    cli_json(&[
        "estimate",
        "--circuit",
        "C432",
        "--epsilon",
        "0.2",
        "--seed",
        seed,
    ])
}

/// The `--json` report of a CLI run with `args`.
fn cli_json(args: &[&str]) -> String {
    let out = mpe().args(args).arg("--json").output().expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 report")
}

#[test]
fn served_report_is_byte_identical_to_the_cli() {
    let dir = temp_dir("byte_identity");
    let daemon = Daemon::start(&dir, &[]);

    let (status, body) = daemon.post("/jobs", r#"{"circuit":"C432","epsilon":0.2,"seed":42}"#);
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"id\":\"j000001\""), "{body}");

    // The event stream replays as a valid schema-v2 trace: the ring is
    // far larger than this run's event count, so nothing was dropped and
    // the late subscriber still sees the full history.
    let mut stream = TcpStream::connect(&daemon.addr).expect("daemon accepts");
    write!(
        stream,
        "GET /jobs/j000001/events HTTP/1.1\r\nHost: test\r\n\r\n"
    )
    .expect("request writes");
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .expect("stream ends when the job finishes");
    let events = text.split_once("\r\n\r\n").expect("headers present").1;
    assert!(events.lines().count() > 0, "no events streamed");
    let summary = replay(events.lines()).expect("streamed events form a valid trace");
    assert!(summary.events > 0);

    let status_body = daemon.await_status("j000001", "done");
    assert!(status_body.contains("\"queue_wait_ms\":"), "{status_body}");

    let (status, served) = daemon.get("/jobs/j000001/report");
    assert_eq!(status, 200);

    assert_eq!(
        normalized(&served),
        normalized(&cli_report("42")),
        "served and CLI reports must be byte-identical up to wall_ms/job"
    );
    let parsed = EstimateReport::from_json(&served).expect("served report parses");
    let job = parsed.job.expect("served report carries job provenance");
    assert_eq!(job.job_id, "j000001");

    daemon.shutdown();
}

#[test]
fn full_queue_refuses_submissions_with_429() {
    let dir = temp_dir("backpressure");
    let daemon = Daemon::start(&dir, &["--runners", "1", "--queue-depth", "1"]);

    // A slow spec: tight epsilon keeps the single runner busy while the
    // queue fills behind it.
    let slow = r#"{"circuit":"C880","epsilon":0.0005}"#;
    let (status, body) = daemon.post("/jobs", slow);
    assert_eq!(status, 202, "{body}");
    daemon.await_status("j000001", "running");
    let (status, body) = daemon.post("/jobs", slow);
    assert_eq!(status, 202, "queued job: {body}");
    let (status, body) = daemon.post("/jobs", slow);
    assert_eq!(status, 429, "expected backpressure, got: {body}");
    assert!(body.contains("\"kind\":\"busy\""), "{body}");
    assert!(body.contains("queue is full"), "{body}");

    // Cancelling drains the backlog: the queued job settles without
    // running, the running one stops gracefully.
    let (status, body) = daemon.post("/jobs/j000002/cancel", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"cancelled\""), "{body}");
    let (status, _) = daemon.post("/jobs/j000001/cancel", "");
    assert_eq!(status, 200);
    daemon.await_status("j000001", "cancelled");

    let (status, body) = daemon.get("/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"cancelled\":2"), "{body}");

    daemon.shutdown();
}

#[test]
fn killed_daemon_resumes_spooled_jobs_on_restart() {
    let dir = temp_dir("resume");
    let spool = dir.join("spool");
    let spool_arg = spool.to_str().expect("utf-8 path").to_string();

    let first = Daemon::start(&dir, &["--spool", &spool_arg]);
    let (status, body) = first.post("/jobs", r#"{"circuit":"C432","epsilon":0.2,"seed":42}"#);
    assert_eq!(status, 202, "{body}");
    // The spec is spooled synchronously with the 202, so killing the
    // daemon at any point after it must not lose the job.
    assert!(spool.join("j000001.spec.json").exists());
    drop(first); // SIGKILL — no drain, no terminal spool record.

    let second = Daemon::start(&dir, &["--spool", &spool_arg]);
    let body = second.await_status("j000001", "done");
    assert!(body.contains("\"report\":"), "{body}");
    let (status, served) = second.get("/jobs/j000001/report");
    assert_eq!(status, 200);

    // Determinism: the re-run lands on the same report the CLI produces.
    assert_eq!(normalized(&served), normalized(&cli_report("42")));

    // A new submission continues the id sequence past the recovered job.
    let (status, body) = second.post("/jobs", r#"{"circuit":"C432","epsilon":0.2}"#);
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"id\":\"j000002\""), "{body}");
    second.await_status("j000002", "done");

    second.shutdown();
}

/// Seeds span the full `u64` range on both fronts: the spec parser keeps
/// integers above 2⁵³ exact, so the daemon runs the very seed the CLI does.
#[test]
fn full_range_seed_matches_the_cli() {
    let dir = temp_dir("full_range_seed");
    let daemon = Daemon::start(&dir, &[]);
    let seed = u64::MAX.to_string();
    let (status, body) = daemon.post(
        "/jobs",
        &format!(r#"{{"circuit":"C432","epsilon":0.2,"seed":{seed}}}"#),
    );
    assert_eq!(status, 202, "{body}");
    daemon.await_status("j000001", "done");
    let (status, served) = daemon.get("/jobs/j000001/report");
    assert_eq!(status, 200);
    assert_eq!(normalized(&served), normalized(&cli_report(&seed)));
    daemon.shutdown();
}

/// A spec beyond the defaults — delay metric, fanout delays, biased
/// activity, infinite population, a skip policy and two workers — serves
/// the same report as `mpe delay` with the same flags.
#[test]
fn non_default_spec_matches_the_cli() {
    let dir = temp_dir("non_default_spec");
    let daemon = Daemon::start(&dir, &[]);
    let (status, body) = daemon.post(
        "/jobs",
        r#"{"circuit":"C432","metric":"delay","delay_model":"fanout","activity":0.3,
            "population":0,"sample_policy":"skip:50","workers":2,"epsilon":0.2,"seed":42}"#,
    );
    assert_eq!(status, 202, "{body}");
    daemon.await_status("j000001", "done");
    let (status, served) = daemon.get("/jobs/j000001/report");
    assert_eq!(status, 200);
    let cli = cli_json(&[
        "delay",
        "--circuit",
        "C432",
        "--delay-model",
        "fanout",
        "--activity",
        "0.3",
        "--population",
        "0",
        "--sample-policy",
        "skip:50",
        "--workers",
        "2",
        "--epsilon",
        "0.2",
        "--seed",
        "42",
    ]);
    assert!(cli.contains("\"metric\": \"max_delay_units\""), "{cli}");
    assert_eq!(normalized(&served), normalized(&cli));
    daemon.shutdown();
}

/// The same bad request is refused with the same error kind and message
/// on both fronts: HTTP 400 ↔ exit 2.
#[test]
fn bad_requests_fail_alike_on_both_fronts() {
    let dir = temp_dir("bad_requests");
    let daemon = Daemon::start(&dir, &[]);
    for (body, args) in [
        (
            r#"{"circuit":"C432","epsilon":2}"#,
            &["estimate", "--epsilon", "2"][..],
        ),
        (
            r#"{"circuit":"C432","confidence":1.5}"#,
            &["estimate", "--confidence", "1.5"],
        ),
        (
            r#"{"circuit":"C432","population":1}"#,
            &["estimate", "--population", "1"],
        ),
        (
            r#"{"circuit":"C432","activity":1.5}"#,
            &["estimate", "--activity", "1.5"],
        ),
        (
            r#"{"circuit":"C432","sample_policy":"skip:x"}"#,
            &["estimate", "--sample-policy", "skip:x"],
        ),
        (
            r#"{"circuit":"C432","kernel":"frob"}"#,
            &["estimate", "--kernel", "frob"],
        ),
        (
            r#"{"circuit":"C432","delay_model":"fast"}"#,
            &["estimate", "--delay-model", "fast"],
        ),
        (r#"{"circuit":"C9999"}"#, &["estimate"]),
    ] {
        let (status, served) = daemon.post("/jobs", body);
        let error = maxpower::serve::json::parse(&served).expect("error body parses");
        let field = |key: &str| {
            error
                .get("error")
                .and_then(|e| e.get(key))
                .and_then(|v| v.as_str())
                .unwrap_or_else(|| panic!("{body}: no error.{key} in {served}"))
                .to_string()
        };
        let (kind, message) = (field("kind"), field("message"));
        // The CLI names the same circuit the request body does.
        let request = maxpower::serve::json::parse(body).expect("request parses");
        let circuit = request
            .get("circuit")
            .and_then(|v| v.as_str())
            .expect("every row names a circuit");
        let out = mpe()
            .args(&args[..1])
            .args(["--circuit", circuit])
            .args(&args[1..])
            .output()
            .expect("cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(status, 400, "{body}: {served}");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error[{kind}]: {message}\n")),
            "{args:?} printed\n{stderr}\nbut {body} got {served}"
        );
    }
    daemon.shutdown();
}

/// A spool checkpoint the daemon cannot use — garbage bytes, or a valid
/// checkpoint from another seed — costs the job its head start, never its
/// result: after a restart both jobs finish with the CLI's report.
#[test]
fn unusable_spool_checkpoints_rerun_to_the_cli_report() {
    let dir = temp_dir("unusable_checkpoints");
    let spool = dir.join("spool");
    std::fs::create_dir_all(&spool).expect("spool dir");
    for id in ["j000001", "j000002", "j000003"] {
        std::fs::write(
            spool.join(format!("{id}.spec.json")),
            format!(
                r#"{{"id":"{id}","submitted_unix_ms":0,"spec":{{"circuit":"C432","epsilon":0.2,"seed":42}}}}"#
            ),
        )
        .expect("spool spec written");
    }
    std::fs::write(spool.join("j000001.ckpt"), "{not a checkpoint").expect("garbage written");
    let other_seed = spool.join("j000002.ckpt");
    cli_json(&[
        "estimate",
        "--circuit",
        "C432",
        "--epsilon",
        "0.2",
        "--seed",
        "7",
        "--checkpoint",
        other_seed.to_str().expect("utf-8 path"),
    ]);
    let text = std::fs::read_to_string(&other_seed).expect("checkpoint written");
    let cp = maxpower::Checkpoint::from_json(&text).expect("a valid checkpoint");
    assert_eq!(cp.master_seed, 7);
    // A checkpoint of the job's own seed in the v3 layout of 0.25.0 and
    // earlier (version 3, rungs also under `hyper_estimators`): refused by
    // its version.
    let v3 = spool.join("j000003.ckpt");
    cli_json(&[
        "estimate",
        "--circuit",
        "C432",
        "--epsilon",
        "0.2",
        "--seed",
        "42",
        "--hyper-budget",
        "2",
        "--checkpoint",
        v3.to_str().expect("utf-8 path"),
    ]);
    let text = std::fs::read_to_string(&v3).expect("checkpoint written");
    let text = text
        .replacen("\"version\": 4,", "\"version\": 3,", 1)
        .replacen(
            "  \"fit_diagnostics\":",
            "  \"hyper_estimators\": [\"Mle\", \"Mle\"],\n  \"fit_diagnostics\":",
            1,
        );
    let err = maxpower::Checkpoint::from_json(&text).expect_err("v3 refused");
    assert!(err.to_string().contains("version 3"), "{err}");
    std::fs::write(&v3, text).expect("v3 checkpoint written");

    let spool_arg = spool.to_str().expect("utf-8 path");
    let daemon = Daemon::start(&dir, &["--spool", spool_arg]);
    let reference = normalized(&cli_report("42"));
    for id in ["j000001", "j000002", "j000003"] {
        daemon.await_status(id, "done");
        let (status, served) = daemon.get(&format!("/jobs/{id}/report"));
        assert_eq!(status, 200);
        assert_eq!(normalized(&served), reference, "job {id}");
    }
    daemon.shutdown();
}
