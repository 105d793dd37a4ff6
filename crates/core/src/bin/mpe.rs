//! `mpe` — the maximum power estimation command-line tool.
//!
//! Subcommands:
//!
//! * `estimate` — maximum power to a given error/confidence (the paper's
//!   headline flow);
//! * `average`  — average power (Monte-Carlo companion estimator);
//! * `delay`    — maximum exercisable circuit delay (the paper's proposed
//!   extension);
//! * `info`     — circuit structure report;
//! * `trace`    — capture one vector pair's waveform as a VCD on stdout,
//!   or analyze a JSONL run trace (`trace summarize|diff|export-convergence`);
//! * `generate` — emit a synthetic ISCAS85 stand-in as `.bench` text;
//! * `serve`    — a long-lived estimation daemon with an HTTP/JSON job API
//!   (see `maxpower::serve`).
//!
//! Circuits come from `--circuit <ISCAS85 name>` (deterministic synthetic
//! stand-in) or `--bench <file>` (a real netlist). Run `mpe help` for all
//! flags.

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Duration;

use maxpower::checkpoint::{backup_path, load_with_recovery, save_atomic, CheckpointSource};
use maxpower::serve::{Server, ServerConfig};
use maxpower::telemetry::{
    diff_summaries, forward, names, replay, ForwardHandle, JsonlSink, ProgressSink, SpanKind,
    SubscriberSink, Telemetry, TraceSummary, DEFAULT_SUBSCRIBER_CAPACITY,
};
use maxpower::{
    estimate_average_power, execute, AppError, Checkpoint, Hooks, JobSpec, Metric, RunBudget,
    RunStatus, SamplePolicy, SimulatorSource,
};
use mpe_netlist::{bench_format, generate, Circuit, Iscas85};
use mpe_sim::{DelayModel, KernelMode, PowerConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const HELP: &str = "\
mpe — statistical maximum power estimation (Qiu/Wu/Pedram, DAC 1998)

USAGE:
    mpe <estimate|average|delay|info|trace|generate|serve> [flags]

CIRCUIT SELECTION (all subcommands):
    --circuit NAME      ISCAS85 profile (C432, C880, ..., C7552), synthetic stand-in
    --bench FILE        parse a real .bench netlist instead
    --verilog FILE      parse a structural Verilog netlist instead
    --gen-seed S        seed for the synthetic stand-in (default 7)

ESTIMATION (estimate / delay):
    --epsilon E         target relative error (default 0.05)
    --confidence L      confidence level (default 0.90)
    --population V      finite vector-pair space size (default 160000; 0 = infinite)
    --seed S            estimation RNG seed (default 42)
    --workers N         worker threads for hyper-sample generation (default 1);
                        results are bit-identical for every N
    --delay-model M     zero | unit | fanout (default unit)
    --kernel K          auto | scalar | packed | packed128 simulation kernel
                        (default auto = packed128 for unit delay, packed
                        otherwise; the packed kernels settle 64 or 128 vector
                        pairs per word-level sweep under every delay model
                        and are bit-identical to scalar)
    --activity A        per-line input switching activity in [0,1] (default: uniform pairs)
    --json              print the result as JSON instead of text

RESILIENCE (estimate / delay):
    --sample-policy P   fail | skip[:CAP] | retry[:N] — reaction to source errors and
                        invalid readings (default fail; skip cap 1000, retry cap 8)
    --checkpoint FILE   save estimator state after every hyper-sample (atomic
                        write + fsync, previous generation rotated to FILE.bak,
                        content-checksummed) and resume from FILE if it exists
                        (same seed + config required; falls back to FILE.bak
                        when FILE is torn or corrupt)

SUPERVISION (estimate / delay):
    --deadline SECS     wall-clock budget; on expiry the run stops gracefully with
                        a valid partial result (status INTERRUPTED)
    --hyper-budget N    stop gracefully after committing N more hyper-samples
    --stall-timeout S   flag parallel workers whose heartbeat is older than S
                        seconds (observability only; the estimate is unaffected)
    Ctrl-C / SIGTERM    first signal stops gracefully (commits the in-flight
                        prefix, saves the final checkpoint); a second aborts

OBSERVABILITY (estimate / delay):
    --trace-file FILE   write a structured JSONL event trace (schema v2) to FILE
    --metrics           print Prometheus-style metrics after the run, including
                        per-phase latency histograms and p50/p95/p99 (on stdout,
                        or stderr when --json so stdout stays machine-readable)
    --progress          live convergence progress line on stderr (fed through a
                        bounded subscriber buffer; a slow terminal can never
                        stall the run — overflow events are counted and dropped)
    --live MODE         stream run events live on stdout; MODE must be `ndjson`
                        (one schema-v2 JSON event per line). Incompatible with
                        --json. The drop count is reported on stderr.

AVERAGE (average):
    same flags; --epsilon defaults to 0.02

SERVING (serve):
    --addr A:P          bind address (default 127.0.0.1:0 = ephemeral port)
    --addr-file FILE    write the bound address to FILE once listening
    --runners N         estimation runner threads (default 2)
    --http-threads N    HTTP worker threads (default 4)
    --queue-depth N     bounded job queue; beyond it submissions get 429 (default 16)
    --spool DIR         crash-safe job state: specs, rolling checkpoints and
                        reports persist here; a restarted daemon re-registers
                        finished jobs and resumes unfinished ones
    Endpoints: POST /jobs, GET /jobs/:id[/report|/events], POST /jobs/:id/cancel,
    GET /healthz, GET /stats, POST /shutdown. SIGTERM drains gracefully.

TRACE (trace):
    --seed S            seed for the random vector pair (default 42)
    --delay-model M     zero | unit | fanout (default unit)

TRACE ANALYSIS (trace summarize|diff|export-convergence):
    trace summarize FILE        validate a JSONL run trace (schema v1/v2) and
                                print phase totals, latency quantiles, counters
                                and the estimator audit trail
    trace diff A B              compare the deterministic content of two traces
                                (counters, span counts, gauges, audit trail);
                                timings are ignored; exits non-zero on drift
    trace export-convergence F  emit the convergence history as CSV on stdout

EXAMPLES:
    mpe estimate --circuit C3540
    mpe estimate --bench c880.bench --activity 0.3 --epsilon 0.03 --json
    mpe estimate --circuit C7552 --checkpoint c7552.ckpt --sample-policy skip
    mpe delay --circuit C6288
    mpe estimate --circuit C432 --trace-file c432.jsonl --metrics --progress
    mpe estimate --circuit C432 --live ndjson > events.jsonl
    mpe trace summarize c432.jsonl
    mpe trace diff run_a.jsonl run_b.jsonl
    mpe generate --circuit C432 > c432_standin.bench
    mpe serve --addr 127.0.0.1:8080 --spool /var/lib/mpe/spool
";

/// Every human-facing status, warning and diagnostic line goes through
/// this one helper, onto **stderr** — stdout carries only machine output
/// (`--json` reports, metrics expositions, VCD dumps, `.bench` text) and
/// the headline result lines.
macro_rules! status {
    ($($arg:tt)*) => {
        eprintln!($($arg)*)
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            // `AppError`'s Display (`error[kind]: message`) and exit-code
            // mapping are the same structured failure surface `mpe serve`
            // renders as HTTP status + JSON body, so a failure reads the
            // same in a terminal and in a client.
            status!("{err}");
            ExitCode::from(err.kind.exit_code())
        }
    }
}

/// Dispatches and classifies every failure as an [`AppError`]: flag-parse
/// and spec mistakes exit 2, unsupported combinations exit 3, runtime
/// failures exit 1 — the exact codes `FailureKind::exit_code` defines.
fn run(args: &[String]) -> Result<(), AppError> {
    let Some(command) = args.first() else {
        eprintln!("{HELP}");
        return Err(AppError::usage("a subcommand is required"));
    };
    // The trace-analysis family takes positional arguments, which the flag
    // parser would reject; dispatch on the verb before parsing. A bare
    // `mpe trace --circuit ...` still reaches the legacy VCD capture.
    if command == "trace" {
        if let Some(verb @ ("summarize" | "diff" | "export-convergence")) =
            args.get(1).map(String::as_str)
        {
            return run_trace_tool(verb, &args[2..]).map_err(|e| AppError::runtime(e.to_string()));
        }
        // A bare word that isn't a known verb is a typo'd subcommand; a
        // flag (or nothing) falls through to the legacy VCD capture.
        if let Some(got) = args.get(1).filter(|a| !a.starts_with('-')) {
            return Err(AppError::usage(format!(
                "unknown trace subcommand `{got}` \
                 (supported: summarize, diff, export-convergence; \
                 `trace --circuit ...` captures a VCD waveform)"
            )));
        }
    }
    // The daemon has its own flag set; dispatch before the one-shot parser.
    if command == "serve" {
        return run_serve(&args[1..]);
    }
    let mut flags = Flags::parse(command, &args[1..]).map_err(|msg| {
        status!("{HELP}");
        AppError::usage(msg)
    })?;
    // The spec is checked by the validation `POST /jobs` runs, before any
    // circuit is built or simulated: unsupported metric/kernel
    // combinations exit 3, out-of-domain parameters 2 — both distinct
    // from runtime failures (1).
    if matches!(command.as_str(), "estimate" | "delay" | "average") {
        flags.spec.validate_parameters()?;
    }
    let result = match command.as_str() {
        "estimate" | "delay" => run_estimate(&mut flags),
        "average" => run_average(&mut flags),
        "info" => run_info(&mut flags),
        "trace" => run_trace(&mut flags),
        "generate" => run_generate(&mut flags),
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        other => {
            return Err(AppError::usage(format!("unknown subcommand `{other}`")));
        }
    };
    result.map_err(|e| AppError::runtime(e.to_string()))
}

/// The one-shot subcommands' flags: the request itself as a [`JobSpec`]
/// (the type `POST /jobs` parses into, with the same defaults), plus what
/// only the CLI has — netlist files, output and supervision.
#[derive(Debug, Default)]
struct Flags {
    spec: JobSpec,
    bench_path: Option<String>,
    verilog_path: Option<String>,
    json: bool,
    checkpoint: Option<String>,
    budget: RunBudget,
    trace_file: Option<String>,
    metrics: bool,
    progress: bool,
    live: bool,
}

impl Flags {
    fn parse(command: &str, args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        match command {
            "delay" => flags.spec.metric = Metric::Delay,
            "average" => flags.spec.epsilon = 0.02,
            _ => {}
        }
        let spec = &mut flags.spec;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--circuit" => {
                    let name = value()?;
                    spec.circuit = Some(
                        Iscas85::from_name(name)
                            .ok_or_else(|| format!("unknown circuit `{name}`"))?,
                    );
                }
                "--bench" => flags.bench_path = Some(value()?.to_string()),
                "--verilog" => flags.verilog_path = Some(value()?.to_string()),
                "--gen-seed" => spec.gen_seed = parse_num(value()?, "--gen-seed")?,
                "--epsilon" => spec.epsilon = parse_num(value()?, "--epsilon")?,
                "--confidence" => spec.confidence = parse_num(value()?, "--confidence")?,
                "--population" => spec.population = parse_num(value()?, "--population")?,
                "--seed" => spec.seed = parse_num(value()?, "--seed")?,
                "--workers" => {
                    let n: usize = parse_num(value()?, "--workers")?;
                    spec.workers = NonZeroUsize::new(n).ok_or_else(|| {
                        "--workers expects a positive integer, got `0`".to_string()
                    })?;
                }
                "--delay-model" => {
                    let name = value()?;
                    spec.delay_model = DelayModel::parse(name)
                        .ok_or_else(|| format!("unknown delay model `{name}`"))?;
                }
                "--kernel" => {
                    let name = value()?;
                    spec.kernel = KernelMode::parse(name)
                        .ok_or_else(|| format!("unknown kernel `{name}`"))?;
                }
                "--activity" => spec.activity = Some(parse_num(value()?, "--activity")?),
                "--json" => flags.json = true,
                // `SamplePolicy::parse` is shared with the job API, so
                // `--sample-policy` and the spec's `sample_policy` field
                // accept the same spellings with the same diagnostics.
                "--sample-policy" => spec.sample_policy = SamplePolicy::parse(value()?)?,
                "--checkpoint" => flags.checkpoint = Some(value()?.to_string()),
                "--deadline" => {
                    flags.budget.deadline = Some(parse_seconds(value()?, "--deadline")?);
                }
                "--hyper-budget" => {
                    flags.budget.max_hyper_samples = Some(parse_num(value()?, "--hyper-budget")?);
                }
                "--stall-timeout" => {
                    flags.budget.stall_timeout = Some(parse_seconds(value()?, "--stall-timeout")?);
                }
                "--trace-file" => flags.trace_file = Some(value()?.to_string()),
                "--metrics" => flags.metrics = true,
                "--progress" => flags.progress = true,
                "--live" => match value()? {
                    "ndjson" => flags.live = true,
                    other => {
                        return Err(format!("unknown --live mode `{other}` (supported: ndjson)"))
                    }
                },
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        let sources: Vec<&str> = [
            ("--circuit", spec.circuit.is_some()),
            ("--bench", flags.bench_path.is_some()),
            ("--verilog", flags.verilog_path.is_some()),
        ]
        .into_iter()
        .filter_map(|(flag, given)| given.then_some(flag))
        .collect();
        if let [first, second, ..] = sources[..] {
            return Err(format!("`{first}` and `{second}` are mutually exclusive"));
        }
        if flags.live && flags.json {
            return Err(
                "--live ndjson streams events on stdout and cannot be combined with --json \
                 (use --trace-file to capture events alongside a JSON report)"
                    .to_string(),
            );
        }
        Ok(flags)
    }

    /// Builds the circuit the flags name. A `--bench` netlist is read into
    /// the spec first, under the file stem as its subject name, exactly as
    /// a client would submit it inline.
    fn load_circuit(&mut self) -> Result<Circuit, Box<dyn std::error::Error>> {
        if let Some(path) = &self.verilog_path {
            let text = std::fs::read_to_string(path)?;
            return Ok(mpe_netlist::verilog::parse(&text)?);
        }
        if let Some(path) = &self.bench_path {
            let stem = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("netlist");
            self.spec.name = Some(stem.to_string());
            self.spec.bench = Some(std::fs::read_to_string(path)?);
        }
        match (&self.spec.bench, self.spec.circuit) {
            (Some(text), _) => Ok(bench_format::parse(
                text,
                self.spec.name.as_deref().unwrap_or("netlist"),
            )?),
            (None, Some(which)) => Ok(generate(which, self.spec.gen_seed)?),
            (None, None) => Err("select a circuit with --circuit, --bench or --verilog".into()),
        }
    }

    /// Builds the telemetry handle implied by the observability flags:
    /// disabled (zero overhead, bit-identical estimates) unless at least
    /// one of `--trace-file`, `--metrics`, `--progress`, `--live` was
    /// given.
    ///
    /// Live consumers (`--progress`, `--live ndjson`) are never wired as
    /// direct sinks: they tail a bounded [`SubscriberSink`] ring on their
    /// own threads, so a stalled terminal or blocked stdout pipe drops
    /// events (counted) instead of stalling the estimation loop.
    fn telemetry(&self) -> Result<(Telemetry, TelemetryPipes), Box<dyn std::error::Error>> {
        if self.trace_file.is_none() && !self.metrics && !self.progress && !self.live {
            return Ok((Telemetry::disabled(), TelemetryPipes::none()));
        }
        let telemetry = Telemetry::enabled();
        if let Some(path) = &self.trace_file {
            let sink = JsonlSink::create(path)
                .map_err(|e| format!("cannot create trace file `{path}`: {e}"))?;
            telemetry.add_sink(Box::new(sink));
        }
        let mut pipes = TelemetryPipes::none();
        if self.progress || self.live {
            let (sink, hub) = SubscriberSink::bounded(DEFAULT_SUBSCRIBER_CAPACITY);
            let mut forwards = Vec::new();
            if self.progress {
                forwards.push(forward(hub.subscribe(), Box::new(ProgressSink::stderr())));
            }
            if self.live {
                forwards.push(forward(
                    hub.subscribe(),
                    Box::new(JsonlSink::new(std::io::stdout())),
                ));
            }
            telemetry.add_sink(Box::new(sink));
            pipes = TelemetryPipes {
                hub: Some(hub),
                forwards,
                live: self.live,
            };
        }
        Ok((telemetry, pipes))
    }
}

/// The live consumers tailing the run's bounded subscriber ring (progress
/// line, NDJSON stream) and the hub that feeds them. `finish` closes the
/// stream, joins the forwarder threads and reports the drop accounting —
/// the run itself never waits on a consumer.
struct TelemetryPipes {
    hub: Option<maxpower::telemetry::SubscriberHub>,
    forwards: Vec<ForwardHandle>,
    live: bool,
}

impl TelemetryPipes {
    fn none() -> Self {
        TelemetryPipes {
            hub: None,
            forwards: Vec::new(),
            live: false,
        }
    }

    /// Ends the live stream: closes the hub (waking any blocked
    /// forwarder), drains what is still buffered, and reports how many
    /// events each consumer missed to the bounded buffer.
    fn finish(self) {
        let Some(hub) = self.hub else { return };
        hub.close();
        let mut forwarded = 0u64;
        let mut dropped = 0u64;
        for handle in self.forwards {
            let (f, d) = handle.join();
            forwarded += f;
            dropped += d;
        }
        if self.live {
            status!("live stream: {forwarded} events forwarded, {dropped} dropped");
        } else if dropped > 0 {
            status!(
                "note: {dropped} telemetry events dropped by the bounded \
                 progress buffer (the run was not slowed down)"
            );
        }
    }
}

/// First `SIGINT`/`SIGTERM` trips the run's [`CancelToken`](maxpower::CancelToken) — the engine
/// commits the in-flight prefix, writes a final checkpoint and reports
/// `status: INTERRUPTED`. A second signal aborts immediately with the
/// conventional `128 + SIGINT` exit code.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;

    use maxpower::CancelToken;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(code: i32) -> !;
    }

    static TOKEN: OnceLock<CancelToken> = OnceLock::new();
    static SIGNALS_SEEN: AtomicUsize = AtomicUsize::new(0);

    // Only async-signal-safe operations are allowed here: atomic stores
    // (tripping the token) and `_exit`. No allocation, no printing.
    extern "C" fn handle(_signum: i32) {
        if SIGNALS_SEEN.fetch_add(1, Ordering::AcqRel) == 0 {
            if let Some(token) = TOKEN.get() {
                token.cancel();
            }
        } else {
            unsafe { _exit(130) }
        }
    }

    /// Installs the handlers (idempotent) and returns the shared token.
    pub fn install() -> CancelToken {
        let token = TOKEN.get_or_init(CancelToken::new).clone();
        unsafe {
            signal(SIGINT, handle as extern "C" fn(i32) as usize);
            signal(SIGTERM, handle as extern "C" fn(i32) as usize);
        }
        token
    }
}

/// Signal handling is unix-only; elsewhere the token is still wired up so
/// `--deadline` / `--hyper-budget` behave identically.
#[cfg(not(unix))]
mod signals {
    use maxpower::CancelToken;

    pub fn install() -> CancelToken {
        CancelToken::new()
    }
}

/// Loads `--checkpoint FILE` strictly: a file that neither it nor its
/// `.bak` rotation can rescue is an error, and a backup recovery is
/// reported. `None` when neither file exists (a fresh run).
fn load_checkpoint(path: &str) -> Result<Option<Checkpoint>, Box<dyn std::error::Error>> {
    Ok(match load_with_recovery(path, Checkpoint::from_json)? {
        Some((cp, CheckpointSource::Primary)) => Some(cp),
        Some((cp, CheckpointSource::Backup)) => {
            status!(
                "warning: checkpoint `{path}` is missing or corrupt; \
                 recovered from backup `{}`",
                backup_path(path)
            );
            Some(cp)
        }
        None => None,
    })
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag} expects a number, got `{s}`"))
}

/// Parses a duration flag: a finite, non-negative number of seconds that
/// a `Duration` can hold.
fn parse_seconds(s: &str, flag: &str) -> Result<Duration, String> {
    Duration::try_from_secs_f64(parse_num(s, flag)?)
        .map_err(|_| format!("{flag} expects a non-negative number of seconds, got `{s}`"))
}

/// `estimate` and `delay`: one supervised [`execute()`] under the signal
/// handler, with crash-safe checkpoint/resume when `--checkpoint` is set.
fn run_estimate(flags: &mut Flags) -> Result<(), Box<dyn std::error::Error>> {
    let circuit = flags.load_circuit()?;
    let (telemetry, pipes) = flags.telemetry()?;

    let workers = flags.spec.workers.get();
    if let Ok(available) = std::thread::available_parallelism() {
        if workers > available.get() {
            status!(
                "warning: --workers {workers} exceeds the {} available hardware threads; \
                 results are identical but the extra workers only add overhead",
                available.get()
            );
        }
    }

    let path = flags.checkpoint.as_deref();
    let resume = path.map(load_checkpoint).transpose()?.flatten();
    let run = execute(
        &circuit,
        &flags.spec,
        Hooks {
            telemetry: telemetry.clone(),
            cancel: signals::install(),
            budget: flags.budget,
            resume: resume.as_ref(),
            checkpoint: path,
        },
    )?;
    if let (Some(path), Some(cp)) = (path, &resume) {
        status!(
            "resuming from checkpoint `{path}` at {} hyper-samples",
            cp.hyper_samples()
        );
    }
    if let (Some(path), Some(e)) = (path, &run.checkpoint_error) {
        status!("warning: failed to persist checkpoint to `{path}`: {e}");
    }
    // The live consumers drain before other output: `finish` closes the
    // subscriber hub and joins the forwarder threads.
    pipes.finish();

    if flags.json {
        let mut report = run.report;
        if telemetry.is_enabled() {
            report = report.with_telemetry(&telemetry.snapshot());
        }
        println!("{}", report.to_json());
    } else {
        let (estimate, report) = (&run.estimate, &run.report);
        let kernel = report
            .kernel
            .as_deref()
            .expect("execute records the kernel");
        let wall_ms = report.wall_ms.expect("execute records the wall time");
        let unit = match flags.spec.metric {
            Metric::Power => "mW",
            Metric::Delay => "delay units",
        };
        // Under --live, stdout is the NDJSON stream; the headline result
        // moves to stderr with the rest of the human-facing lines.
        let result = |line: String| {
            if flags.live {
                status!("{line}");
            } else {
                println!("{line}");
            }
        };
        result(format!(
            "{} {} ≈ {:.4} {unit} ±{:.1}% at {:.0}% confidence",
            circuit.name(),
            report.metric,
            estimate.estimate_mw,
            100.0 * estimate.relative_error,
            100.0 * estimate.confidence,
        ));
        result(format!(
            "cost: {} vector pairs, {} hyper-samples; largest observation {:.4} {unit}",
            estimate.units_used, estimate.hyper_samples, estimate.observed_max_mw,
        ));
        result(format!(
            "execution: {workers} worker{} in {:.2} s wall ({kernel} kernel)",
            if workers == 1 { "" } else { "s" },
            wall_ms / 1e3,
        ));
        match estimate.status {
            RunStatus::Converged => status!("status: converged"),
            RunStatus::BudgetExhausted => {
                status!("status: BUDGET EXHAUSTED — partial result, target error not met")
            }
            RunStatus::Degraded { fallback } => status!(
                "status: degraded — deepest fallback estimator: {}",
                fallback.label()
            ),
            RunStatus::Interrupted { reason } => status!(
                "status: INTERRUPTED ({reason}) — valid partial result over {} \
                 hyper-samples; rerun with --checkpoint to continue",
                estimate.hyper_samples
            ),
        }
        let h = estimate.health;
        if !h.is_clean() {
            status!(
                "health: {} source errors survived, {} readings discarded, \
                 {} sample retries, {} MLE retries, {} degenerate bailouts, \
                 {} POT fallbacks, {} quantile fallbacks, \
                 {} worker restarts, {} worker stalls{}",
                h.source_errors,
                h.samples_discarded,
                h.sample_retries,
                h.mle_retries,
                h.degenerate_bailouts,
                h.pot_fallbacks,
                h.quantile_fallbacks,
                h.worker_restarts,
                h.worker_stalls,
                if h.zero_mean_guard {
                    "; zero-mean guard active"
                } else {
                    ""
                },
            );
        }
        if h.irregular_fits > 0 {
            status!(
                "audit: {} MLE fit(s) violate Smith's α > 2 regularity condition; \
                 the CI's asymptotic justification is weakened there",
                h.irregular_fits
            );
        }
    }

    if flags.metrics {
        status!("{}", telemetry.render_summary());
        // The exposition is machine output: stdout normally, stderr when
        // --json or --live already owns stdout.
        if flags.json || flags.live {
            eprint!("{}", telemetry.render_exposition());
        } else {
            print!("{}", telemetry.render_exposition());
        }
    }
    Ok(())
}

fn run_average(flags: &mut Flags) -> Result<(), Box<dyn std::error::Error>> {
    let circuit = flags.load_circuit()?;
    let spec = &flags.spec;
    let mut source = SimulatorSource::new(
        &circuit,
        spec.generator()?,
        spec.delay_model,
        PowerConfig::default(),
    );
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let est = estimate_average_power(
        &mut source,
        spec.epsilon,
        spec.confidence,
        100,
        5_000_000,
        &mut rng,
    )?;
    println!(
        "{} average power ≈ {:.4} mW ±{:.1}% at {:.0}% confidence ({} simulations)",
        circuit.name(),
        est.mean_mw,
        100.0 * est.relative_error,
        100.0 * spec.confidence,
        est.units_used,
    );
    Ok(())
}

fn run_info(flags: &mut Flags) -> Result<(), Box<dyn std::error::Error>> {
    let circuit = flags.load_circuit()?;
    let stats = circuit.stats();
    println!("{}: {}", circuit.name(), stats);
    let mut kinds: Vec<_> = stats.kind_histogram.iter().collect();
    kinds.sort_by_key(|(k, _)| k.bench_keyword());
    for (kind, count) in kinds {
        println!("  {:<5} {count}", kind.bench_keyword());
    }
    let cap = mpe_netlist::CapacitanceModel::default().total_capacitance(&circuit);
    println!("  total switched-capacitance bound: {cap:.0} fF");
    Ok(())
}

fn run_trace(flags: &mut Flags) -> Result<(), Box<dyn std::error::Error>> {
    let circuit = flags.load_circuit()?;
    let spec = &flags.spec;
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let p1 = spec.generator()?.generate(&mut rng, circuit.num_inputs());
    let wave = mpe_sim::Waveform::capture(&circuit, &p1.v1, &p1.v2, spec.delay_model)?;
    status!(
        "traced 1 vector pair: {} transitions, settle time {} units; glitchiest nodes:",
        wave.transitions().len(),
        wave.settle_time()
    );
    for (node, count) in wave.glitchiest(5) {
        status!("  {:<10} {count} transitions", circuit.node_name(node));
    }
    print!("{}", wave.to_vcd(&circuit));
    Ok(())
}

fn run_generate(flags: &mut Flags) -> Result<(), Box<dyn std::error::Error>> {
    let circuit = flags.load_circuit()?;
    print!("{}", bench_format::write(&circuit));
    Ok(())
}

/// The `mpe serve` flag set (distinct from the one-shot [`Flags`]).
struct ServeFlags {
    config: ServerConfig,
    addr_file: Option<String>,
}

impl ServeFlags {
    fn parse(args: &[String]) -> Result<ServeFlags, AppError> {
        let mut config = ServerConfig::default();
        let mut addr_file = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| AppError::usage(format!("missing value for {flag}")))
            };
            match flag.as_str() {
                "--addr" => config.addr = value()?.to_string(),
                "--addr-file" => addr_file = Some(value()?.to_string()),
                "--runners" => {
                    config.runners = parse_num(value()?, "--runners").map_err(AppError::usage)?;
                    if config.runners == 0 {
                        return Err(AppError::usage(
                            "--runners expects a positive integer, got `0`",
                        ));
                    }
                }
                "--http-threads" => {
                    config.http_threads =
                        parse_num(value()?, "--http-threads").map_err(AppError::usage)?;
                }
                "--queue-depth" => {
                    config.queue_depth =
                        parse_num(value()?, "--queue-depth").map_err(AppError::usage)?;
                }
                "--spool" => config.spool = Some(value()?.into()),
                other => {
                    return Err(AppError::usage(format!(
                        "unknown serve flag `{other}` (see `mpe help`)"
                    )));
                }
            }
        }
        Ok(ServeFlags { config, addr_file })
    }
}

/// Boots the daemon and serves until SIGTERM/SIGINT (graceful drain:
/// running jobs stop with valid partial results and final checkpoints)
/// or `POST /shutdown`.
fn run_serve(args: &[String]) -> Result<(), AppError> {
    let flags = ServeFlags::parse(args)?;
    let runners = flags.config.runners;
    let queue_depth = flags.config.queue_depth;
    let spool = flags.config.spool.clone();
    let server = Server::bind(flags.config, signals::install())?;
    let addr = server.local_addr()?;
    status!(
        "mpe serve: listening on http://{addr} \
         ({runners} runners, queue depth {queue_depth}, spool: {})",
        spool
            .as_deref()
            .map_or_else(|| "disabled".to_string(), |p| p.display().to_string()),
    );
    if let Some(path) = &flags.addr_file {
        // Atomic so a supervisor polling the file never reads a torn
        // address; ephemeral ports make this the only reliable handoff.
        save_atomic(path, &format!("{addr}\n"))
            .map_err(|e| AppError::runtime(format!("cannot write --addr-file `{path}`: {e}")))?;
    }
    server.run()?;
    status!("mpe serve: drained and stopped");
    Ok(())
}

/// Reads and validates a JSONL run trace (schema v1 or v2).
fn load_trace(path: &str) -> Result<TraceSummary, Box<dyn std::error::Error>> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
    replay(text.lines()).map_err(|e| format!("trace `{path}` invalid — {e}").into())
}

/// The `mpe trace summarize|diff|export-convergence` family: offline
/// analysis of JSONL run traces, sharing the replay/validation layer with
/// CI and the benchmark tooling.
fn run_trace_tool(verb: &str, args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    match verb {
        "summarize" => {
            let [path] = args else {
                return Err("usage: mpe trace summarize <trace.jsonl>".into());
            };
            let summary = load_trace(path)?;
            print_trace_summary(path, &summary);
            Ok(())
        }
        "diff" => {
            let [a, b] = args else {
                return Err("usage: mpe trace diff <a.jsonl> <b.jsonl>".into());
            };
            let sa = load_trace(a)?;
            let sb = load_trace(b)?;
            let drift = diff_summaries(&sa, &sb);
            if drift.is_empty() {
                println!("zero drift: the traces' deterministic content is identical");
                println!(
                    "({} vs {} events; timings and heartbeats excluded by design)",
                    sa.events, sb.events
                );
                Ok(())
            } else {
                for line in &drift {
                    println!("drift: {line}");
                }
                Err(format!("{} divergence(s) between `{a}` and `{b}`", drift.len()).into())
            }
        }
        "export-convergence" => {
            let [path] = args else {
                return Err("usage: mpe trace export-convergence <trace.jsonl>".into());
            };
            let summary = load_trace(path)?;
            let means = summary.metrics.gauge_series(names::RUNNING_MEAN_MW);
            if means.is_empty() {
                return Err(format!(
                    "trace `{path}` carries no `{}` gauge — was the run traced with telemetry?",
                    names::RUNNING_MEAN_MW
                )
                .into());
            }
            let widths = summary.metrics.gauge_series(names::CI_RELATIVE_HALF_WIDTH);
            println!("k,mean_mw,relative_half_width");
            for (i, mean) in means.iter().enumerate() {
                // Infinite widths (before k = 2) print as `inf`, which
                // spreadsheet tools tolerate better than an empty cell.
                let width = widths.get(i).copied().unwrap_or(f64::INFINITY);
                println!("{},{mean},{width}", i + 1);
            }
            Ok(())
        }
        _ => unreachable!("dispatch guarantees a known verb"),
    }
}

/// Renders a trace summary: phase totals (matching the report's telemetry
/// block), latency quantiles, counters and the estimator audit trail.
fn print_trace_summary(path: &str, summary: &TraceSummary) {
    println!(
        "trace `{path}`: {} events, max span depth {}",
        summary.events, summary.max_depth
    );
    println!(
        "{:<14} {:>8} {:>14} {:>12} {:>12} {:>12}",
        "phase", "count", "total_ns", "p50_ns", "p95_ns", "p99_ns"
    );
    for kind in SpanKind::ALL {
        let stat = summary.metrics.phase(kind);
        if stat.count == 0 {
            continue;
        }
        let (p50, p95, p99) = summary
            .metrics
            .phase_quantiles_ns(kind)
            .unwrap_or((0, 0, 0));
        println!(
            "{:<14} {:>8} {:>14} {:>12} {:>12} {:>12}",
            kind.label(),
            stat.count,
            stat.total_ns,
            p50,
            p95,
            p99
        );
    }
    if !summary.metrics.counters.is_empty() {
        println!("counters:");
        for (name, value) in &summary.metrics.counters {
            println!("  {name:<32} {value}");
        }
    }
    if summary.fit_diags.is_empty() {
        println!("audit trail: none (schema v1 trace, or telemetry-off run)");
    } else {
        let count_rung = |rung: &str| summary.fit_diags.iter().filter(|d| d.rung == rung).count();
        let irregular = summary
            .fit_diags
            .iter()
            .filter(|d| d.rung == "mle" && d.tail_shape.is_some_and(|a| a <= 2.0))
            .count();
        println!(
            "audit trail: {} fits (mle {}, pot {}, quantile {}); {} irregular (α ≤ 2)",
            summary.fit_diags.len(),
            count_rung("mle"),
            count_rung("pot"),
            count_rung("quantile"),
            irregular
        );
        for diag in &summary.fit_diags {
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.4}"),
                None => "-".to_string(),
            };
            println!(
                "  k={:<5} rung={:<8} reason={:<18} log_lik={:>10} ks={:>8} tail={:>8}",
                diag.k,
                diag.rung,
                diag.reason,
                fmt(diag.log_likelihood),
                fmt(diag.ks_distance),
                fmt(diag.tail_shape)
            );
        }
    }
}
