//! Job specs, job lifecycle state and the bounded job engine behind
//! `mpe serve`.
//!
//! A [`JobSpec`] is the one request type: `mpe estimate` parses its flags
//! into one and `POST /jobs` parses its body into one, and both run it
//! through [`execute`](crate::execute()), so a served report is
//! byte-identical to the CLI's for the same spec (modulo the
//! declared-volatile `wall_ms` and the server-only `job` provenance
//! block).
//!
//! The engine is a bounded FIFO queue in front of a fixed pool of runner
//! threads. Submission is admission-controlled: a full queue refuses the
//! job with a busy-class error (HTTP 429) instead of buffering without
//! limit. Each job carries its own [`CancelToken`], a bounded
//! [`SubscriberSink`] ring feeding the `/events` stream, and — when a
//! spool directory is configured — a crash-safe on-disk record (spec,
//! rolling checkpoint, terminal report) that lets a restarted daemon
//! resume unfinished jobs where they stopped. A job's rolling checkpoint
//! is saved at most once a second and never for its final state: a
//! finished job ends on its terminal record, and its checkpoint files are
//! deleted once that record is written.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use mpe_netlist::Iscas85;
use mpe_sim::{DelayModel, KernelMode};
use mpe_vectors::PairGenerator;

use crate::checkpoint::{backup_path, load_with_recovery, save_atomic};
use crate::config::{EstimationConfig, SamplePolicy};
use crate::error::{AppError, MaxPowerError};
use crate::execute::{execute_job, Hooks};
use crate::report::JobProvenance;
use crate::serve::cache::CircuitCache;
use crate::serve::json::{self, Encode, Json, JsonWriter};
use crate::supervise::{CancelToken, RunBudget};
use crate::telemetry::{SubscriberHub, SubscriberSink, Telemetry, DEFAULT_SUBSCRIBER_CAPACITY};
use crate::Checkpoint;

/// Which extreme statistic a job estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Maximum power (the paper's headline flow).
    Power,
    /// Maximum exercisable circuit delay (the paper's extension).
    Delay,
}

/// One estimation request: the `mpe estimate`/`mpe delay` flags and the
/// `POST /jobs` fields, with one set of defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// ISCAS85 profile for the synthetic stand-in (`--circuit`).
    pub circuit: Option<Iscas85>,
    /// Inline `.bench` netlist text (the `--bench` analogue; the API has
    /// no filesystem access to the client, so the text travels inline).
    pub bench: Option<String>,
    /// Subject name for an inline netlist (the CLI uses the file stem;
    /// default `netlist`).
    pub name: Option<String>,
    /// Synthetic-generator seed (`--gen-seed`, default 7).
    pub gen_seed: u64,
    /// `power` or `delay` (default `power`).
    pub metric: Metric,
    /// Target relative error (`--epsilon`, default 0.05).
    pub epsilon: f64,
    /// Confidence level (`--confidence`, default 0.90).
    pub confidence: f64,
    /// Finite vector-pair space size; 0 means infinite (`--population`,
    /// default 160000).
    pub population: u64,
    /// Estimation RNG seed (`--seed`, default 42).
    pub seed: u64,
    /// Worker threads (`--workers`, default 1; bit-identical for any N).
    pub workers: NonZeroUsize,
    /// `zero` | `unit` | `fanout` (`--delay-model`, default `unit`).
    pub delay_model: DelayModel,
    /// `auto` | `scalar` | `packed` | `packed128` (`--kernel`).
    pub kernel: KernelMode,
    /// Per-line input switching activity (`--activity`; default uniform).
    pub activity: Option<f64>,
    /// `fail` | `skip[:CAP]` | `retry[:N]` (`--sample-policy`).
    pub sample_policy: SamplePolicy,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            circuit: None,
            bench: None,
            name: None,
            gen_seed: 7,
            metric: Metric::Power,
            epsilon: 0.05,
            confidence: 0.90,
            population: 160_000,
            seed: 42,
            workers: NonZeroUsize::MIN,
            delay_model: DelayModel::Unit,
            kernel: KernelMode::Auto,
            activity: None,
            sample_policy: SamplePolicy::Fail,
        }
    }
}

impl JobSpec {
    /// Parses a request body into a spec, strictly: unknown fields are
    /// usage errors (a typo'd knob silently falling back to its default
    /// would waste a whole estimation run).
    ///
    /// # Errors
    ///
    /// Usage-class [`AppError`]s naming the offending field.
    pub fn from_json(doc: &Json) -> Result<JobSpec, AppError> {
        const KNOWN: [&str; 14] = [
            "circuit",
            "bench",
            "name",
            "gen_seed",
            "metric",
            "epsilon",
            "confidence",
            "population",
            "seed",
            "workers",
            "delay_model",
            "kernel",
            "activity",
            "sample_policy",
        ];
        if !matches!(doc, Json::Obj(_)) {
            return Err(AppError::usage("job spec must be a JSON object"));
        }
        for key in doc.keys() {
            if !KNOWN.contains(&key) {
                return Err(AppError::usage(format!(
                    "unknown job spec field `{key}` (supported: {})",
                    KNOWN.join(", ")
                )));
            }
        }
        let str_field = |key: &str| -> Result<Option<&str>, AppError> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(Some)
                    .ok_or_else(|| AppError::usage(format!("field `{key}` must be a string"))),
            }
        };
        let u64_field = |key: &str, default: u64| -> Result<u64, AppError> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => v.as_u64().ok_or_else(|| {
                    AppError::usage(format!("field `{key}` must be a non-negative integer"))
                }),
            }
        };
        let f64_field = |key: &str, default: f64| -> Result<f64, AppError> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| AppError::usage(format!("field `{key}` must be a number"))),
            }
        };
        let defaults = JobSpec::default();
        let mut spec = JobSpec {
            circuit: match str_field("circuit")? {
                Some(name) => Some(
                    Iscas85::from_name(name)
                        .ok_or_else(|| AppError::usage(format!("unknown circuit `{name}`")))?,
                ),
                None => None,
            },
            bench: str_field("bench")?.map(str::to_string),
            name: str_field("name")?.map(str::to_string),
            gen_seed: u64_field("gen_seed", defaults.gen_seed)?,
            metric: match str_field("metric")? {
                None | Some("power") => Metric::Power,
                Some("delay") => Metric::Delay,
                Some(other) => {
                    return Err(AppError::usage(format!(
                        "unknown metric `{other}` (supported: power, delay)"
                    )))
                }
            },
            epsilon: f64_field("epsilon", defaults.epsilon)?,
            confidence: f64_field("confidence", defaults.confidence)?,
            population: u64_field("population", defaults.population)?,
            seed: u64_field("seed", defaults.seed)?,
            workers: NonZeroUsize::MIN,
            delay_model: match str_field("delay_model")? {
                None => defaults.delay_model,
                Some(name) => DelayModel::parse(name)
                    .ok_or_else(|| AppError::usage(format!("unknown delay model `{name}`")))?,
            },
            kernel: match str_field("kernel")? {
                None => defaults.kernel,
                Some(name) => KernelMode::parse(name)
                    .ok_or_else(|| AppError::usage(format!("unknown kernel `{name}`")))?,
            },
            activity: match doc.get("activity") {
                None => None,
                Some(v) => Some(
                    v.as_f64()
                        .ok_or_else(|| AppError::usage("field `activity` must be a number"))?,
                ),
            },
            sample_policy: match str_field("sample_policy")? {
                None => defaults.sample_policy,
                Some(text) => SamplePolicy::parse(text).map_err(AppError::usage)?,
            },
        };
        let workers = u64_field("workers", 1)?;
        spec.workers = usize::try_from(workers)
            .ok()
            .and_then(NonZeroUsize::new)
            .ok_or_else(|| AppError::usage("field `workers` must be a positive integer"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Cross-field validation, shared by submission and spool recovery.
    ///
    /// # Errors
    ///
    /// Usage-class for a missing/ambiguous circuit, and everything
    /// [`validate_parameters`](Self::validate_parameters) rejects.
    pub fn validate(&self) -> Result<(), AppError> {
        match (&self.circuit, &self.bench) {
            (None, None) => {
                return Err(AppError::usage(
                    "select a circuit with `circuit` (ISCAS85 name) or `bench` (netlist text)",
                ))
            }
            (Some(_), Some(_)) => {
                return Err(AppError::usage(
                    "`circuit` and `bench` are mutually exclusive",
                ))
            }
            _ => {}
        }
        self.validate_parameters()
    }

    /// Validates everything but the circuit choice, which the CLI checks
    /// over its own flags (a `--verilog` netlist has no spec field).
    ///
    /// # Errors
    ///
    /// Usage-class for an invalid activity or an estimation parameter
    /// (`epsilon`, `confidence`, `population`) outside
    /// [`EstimationConfig::validate`]'s domain.
    pub fn validate_parameters(&self) -> Result<(), AppError> {
        self.estimation_config()
            .validate()
            .map_err(|e| AppError::usage(e.to_string()))?;
        self.generator().map(|_| ())
    }

    /// The vector-pair generator this spec implies: uniform pairs, or
    /// per-line switching at `activity`.
    ///
    /// # Errors
    ///
    /// Usage-class for an out-of-range activity.
    pub fn generator(&self) -> Result<PairGenerator, AppError> {
        match self.activity {
            Some(activity) => {
                let g = PairGenerator::Activity { activity };
                g.validate(1).map_err(|e| AppError::usage(e.to_string()))?;
                Ok(g)
            }
            None => Ok(PairGenerator::Uniform),
        }
    }

    /// The estimation configuration this spec implies (the deployment
    /// defaults of [`EstimationConfig::for_deployment`]).
    #[must_use]
    pub fn estimation_config(&self) -> EstimationConfig {
        EstimationConfig::for_deployment(
            self.epsilon,
            self.confidence,
            if self.population == 0 {
                None
            } else {
                Some(self.population)
            },
            self.sample_policy,
        )
    }

    /// Serialises the spec in the spelling [`from_json`](Self::from_json)
    /// accepts, for the crash-safe spool.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Encode for JobSpec {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        if let Some(profile) = &self.circuit {
            w.field("circuit", &profile.to_string());
        }
        if let Some(text) = &self.bench {
            w.field("bench", text);
        }
        if let Some(name) = &self.name {
            w.field("name", name);
        }
        w.field("gen_seed", &self.gen_seed);
        w.field(
            "metric",
            match self.metric {
                Metric::Power => "power",
                Metric::Delay => "delay",
            },
        );
        w.field("epsilon", &self.epsilon);
        w.field("confidence", &self.confidence);
        w.field("population", &self.population);
        w.field("seed", &self.seed);
        w.field("workers", &self.workers.get());
        w.field("delay_model", self.delay_model.as_str());
        w.field("kernel", self.kernel.as_str());
        if let Some(activity) = &self.activity {
            w.field("activity", activity);
        }
        w.field("sample_policy", &self.sample_policy.label());
        w.end_object();
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug)]
pub enum JobPhase {
    /// Waiting in the bounded queue.
    Queued,
    /// Executing on a runner thread.
    Running,
    /// Finished with a report (the raw `EstimateReport::to_json` bytes).
    Done {
        /// The report, byte-identical to the CLI's for the same spec.
        report_json: String,
    },
    /// Finished with an error.
    Failed {
        /// What went wrong, in the unified CLI/server error shape.
        error: AppError,
    },
    /// Cancelled; a job caught mid-run still yields its valid partial
    /// report (`status: INTERRUPTED`), a queued one yields none.
    Cancelled {
        /// The partial report, if the run had started.
        report_json: Option<String>,
    },
}

impl JobPhase {
    /// The wire label used in status responses and spool records.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done { .. } => "done",
            JobPhase::Failed { .. } => "failed",
            JobPhase::Cancelled { .. } => "cancelled",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobPhase::Done { .. } | JobPhase::Failed { .. } | JobPhase::Cancelled { .. }
        )
    }
}

struct JobState {
    phase: JobPhase,
    /// The producer half of the event ring, handed to the runner's
    /// telemetry when the job starts.
    sink: Option<SubscriberSink>,
    queue_wait_ms: Option<f64>,
}

/// One submitted job: immutable identity plus mutex-guarded lifecycle
/// state. Shared between the HTTP workers and the runner pool.
pub struct Job {
    /// Stable identifier (`j000001`, …), dense in submission order.
    pub id: String,
    /// The parameters this job runs with.
    pub spec: JobSpec,
    /// Submission wall-clock time (Unix milliseconds) — survives daemon
    /// restarts via the spool, so provenance is stable.
    pub submitted_unix_ms: u64,
    submitted_at: Instant,
    /// Trips a graceful stop: the engine commits the in-flight prefix
    /// and returns a valid partial result.
    pub cancel: CancelToken,
    /// Consumer side of the event ring feeding `/jobs/:id/events`.
    pub hub: SubscriberHub,
    state: Mutex<JobState>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("status", &self.status_label())
            .finish_non_exhaustive()
    }
}

impl Job {
    fn new(id: String, spec: JobSpec, submitted_unix_ms: u64) -> Job {
        let (sink, hub) = SubscriberSink::bounded(DEFAULT_SUBSCRIBER_CAPACITY);
        Job {
            id,
            spec,
            submitted_unix_ms,
            submitted_at: Instant::now(),
            cancel: CancelToken::new(),
            hub,
            state: Mutex::new(JobState {
                phase: JobPhase::Queued,
                sink: Some(sink),
                queue_wait_ms: None,
            }),
        }
    }

    fn recovered_terminal(
        id: String,
        spec: JobSpec,
        submitted_unix_ms: u64,
        phase: JobPhase,
    ) -> Job {
        let job = Job::new(id, spec, submitted_unix_ms);
        {
            let mut st = job.state.lock().expect("job state poisoned");
            st.phase = phase;
            st.sink = None;
        }
        // No events will ever flow for a recovered terminal job; close
        // the ring so `/events` consumers see an immediate end-of-stream.
        job.hub.close();
        job
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobState> {
        self.state.lock().expect("job state poisoned")
    }

    /// The status document returned by `GET /jobs/:id`: lifecycle label,
    /// provenance, and — once terminal — the report or error, with the
    /// report JSON embedded verbatim.
    #[must_use]
    pub fn status_json(&self) -> String {
        let st = self.lock();
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.field("id", &self.id);
        w.field("status", st.phase.label());
        w.field("submitted_unix_ms", &self.submitted_unix_ms);
        w.field("queue_wait_ms", &st.queue_wait_ms);
        w.key("report");
        match &st.phase {
            JobPhase::Done { report_json }
            | JobPhase::Cancelled {
                report_json: Some(report_json),
            } => w.raw(report_json),
            _ => w.null(),
        }
        let error = match &st.phase {
            JobPhase::Failed { error } => Some(error),
            _ => None,
        };
        w.field("error", &error);
        w.end_object();
        w.finish() + "\n"
    }

    /// The raw report bytes, if the job produced a report (done, or
    /// cancelled mid-run with a valid partial result).
    #[must_use]
    pub fn report_json(&self) -> Option<String> {
        match &self.lock().phase {
            JobPhase::Done { report_json } => Some(report_json.clone()),
            JobPhase::Cancelled {
                report_json: Some(report_json),
            } => Some(report_json.clone()),
            _ => None,
        }
    }

    /// The current lifecycle label.
    #[must_use]
    pub fn status_label(&self) -> &'static str {
        self.lock().phase.label()
    }
}

struct QueueState {
    queue: VecDeque<Arc<Job>>,
    open: bool,
    running: usize,
}

struct EngineShared {
    queue: Mutex<QueueState>,
    work: Condvar,
    jobs: Mutex<Vec<Arc<Job>>>,
    next_id: AtomicU64,
    queue_capacity: usize,
    cache: CircuitCache,
    spool: Option<PathBuf>,
}

/// The bounded job queue plus its runner pool.
pub struct JobEngine {
    shared: Arc<EngineShared>,
    runners: Mutex<Vec<JoinHandle<()>>>,
}

fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

impl JobEngine {
    /// Boots the engine: recovers any spooled jobs (terminal ones are
    /// re-registered with their stored reports; unfinished ones re-enter
    /// the queue and resume from their last checkpoint), then starts
    /// `runners` worker threads.
    ///
    /// # Errors
    ///
    /// Runtime-class [`AppError`] when the spool directory cannot be
    /// created or scanned.
    pub fn start(
        runners: usize,
        queue_capacity: usize,
        spool: Option<PathBuf>,
    ) -> Result<JobEngine, AppError> {
        let shared = Arc::new(EngineShared {
            queue: Mutex::new(QueueState {
                queue: VecDeque::new(),
                open: true,
                running: 0,
            }),
            work: Condvar::new(),
            jobs: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            queue_capacity: queue_capacity.max(1),
            cache: CircuitCache::new(),
            spool,
        });
        shared.recover_spool()?;
        let engine = JobEngine {
            shared: Arc::clone(&shared),
            runners: Mutex::new(Vec::new()),
        };
        let mut handles = engine.runners.lock().expect("runner registry poisoned");
        for i in 0..runners.max(1) {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mpe-runner-{i}"))
                    .spawn(move || runner_loop(&shared))
                    .map_err(|e| AppError::runtime(format!("cannot spawn runner: {e}")))?,
            );
        }
        drop(handles);
        Ok(engine)
    }

    /// Admits a job or refuses it with backpressure.
    ///
    /// # Errors
    ///
    /// Usage-class for an invalid spec, busy-class (HTTP
    /// 429) when the queue is at capacity, runtime-class when the spool
    /// cannot persist the spec or the engine is shutting down.
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<Job>, AppError> {
        spec.validate()?;
        // Resolve the circuit up front: a bad inline netlist fails the
        // submission (not the run, minutes later), and the parse+pack
        // work lands in the shared cache before the runner needs it.
        self.shared.resolve_circuit(&spec)?;
        let job = {
            let mut q = self.shared.queue.lock().expect("job queue poisoned");
            if !q.open {
                return Err(AppError::runtime("server is shutting down"));
            }
            if q.queue.len() >= self.shared.queue_capacity {
                return Err(AppError::busy(format!(
                    "job queue is full ({} queued, capacity {}); retry after a job finishes",
                    q.queue.len(),
                    self.shared.queue_capacity
                )));
            }
            let id = format!(
                "j{:06}",
                self.shared.next_id.fetch_add(1, Ordering::Relaxed)
            );
            let job = Arc::new(Job::new(id, spec, unix_ms_now()));
            self.shared.spool_spec(&job)?;
            q.queue.push_back(Arc::clone(&job));
            job
        };
        self.shared
            .jobs
            .lock()
            .expect("job registry poisoned")
            .push(Arc::clone(&job));
        self.shared.work.notify_one();
        Ok(job)
    }

    /// Looks a job up by id.
    #[must_use]
    pub fn job(&self, id: &str) -> Option<Arc<Job>> {
        self.shared
            .jobs
            .lock()
            .expect("job registry poisoned")
            .iter()
            .find(|j| j.id == id)
            .cloned()
    }

    /// Requests cancellation: trips the job's token (a running job stops
    /// gracefully with a valid partial result) and finalises it
    /// immediately if it was still queued.
    ///
    /// # Errors
    ///
    /// Not-found-class for an unknown id.
    pub fn cancel(&self, id: &str) -> Result<Arc<Job>, AppError> {
        let job = self
            .job(id)
            .ok_or_else(|| AppError::not_found(format!("no such job `{id}`")))?;
        job.cancel.cancel();
        // A queued job never reaches a runner's finalisation path in
        // bounded time; settle it here. (The runner also skips cancelled
        // jobs it pops, so the queue entry becomes a no-op.)
        let still_queued = matches!(job.lock().phase, JobPhase::Queued);
        if still_queued {
            self.shared
                .finish(&job, JobPhase::Cancelled { report_json: None });
        }
        Ok(job)
    }

    /// The `/stats` document: lifecycle counts, queue occupancy and
    /// circuit-cache accounting.
    #[must_use]
    pub fn stats_json(&self) -> String {
        let jobs = self.shared.jobs.lock().expect("job registry poisoned");
        let mut counts = [0usize; 5];
        for job in jobs.iter() {
            let slot = match &job.lock().phase {
                JobPhase::Queued => 0,
                JobPhase::Running => 1,
                JobPhase::Done { .. } => 2,
                JobPhase::Failed { .. } => 3,
                JobPhase::Cancelled { .. } => 4,
            };
            counts[slot] += 1;
        }
        drop(jobs);
        let (entries, hits, misses) = self.shared.cache.stats();
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("jobs");
        w.begin_object();
        for (label, count) in ["queued", "running", "done", "failed", "cancelled"]
            .iter()
            .zip(counts)
        {
            w.field(label, &count);
        }
        w.end_object();
        w.field("queue_capacity", &self.shared.queue_capacity);
        w.key("circuit_cache");
        w.begin_object();
        w.field("entries", &entries);
        w.field("hits", &hits);
        w.field("misses", &misses);
        w.end_object();
        w.end_object();
        w.finish() + "\n"
    }

    /// Graceful shutdown: refuses new work, cancels queued jobs, trips
    /// running jobs' tokens (they stop gracefully and spool their partial
    /// reports) and joins the runner pool.
    pub fn shutdown(&self) {
        let drained: Vec<Arc<Job>> = {
            let mut q = self.shared.queue.lock().expect("job queue poisoned");
            q.open = false;
            q.queue.drain(..).collect()
        };
        self.shared.work.notify_all();
        for job in drained {
            job.cancel.cancel();
            self.shared
                .finish(&job, JobPhase::Cancelled { report_json: None });
        }
        for job in self
            .shared
            .jobs
            .lock()
            .expect("job registry poisoned")
            .iter()
        {
            if !job.lock().phase.is_terminal() {
                job.cancel.cancel();
            }
        }
        let handles: Vec<JoinHandle<()>> = self
            .runners
            .lock()
            .expect("runner registry poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl EngineShared {
    fn resolve_circuit(&self, spec: &JobSpec) -> Result<Arc<mpe_netlist::Circuit>, AppError> {
        match (&spec.circuit, &spec.bench) {
            (Some(profile), None) => self.cache.generated(*profile, spec.gen_seed),
            (None, Some(text)) => self
                .cache
                .bench(spec.name.as_deref().unwrap_or("netlist"), text),
            // validate() has already rejected the other combinations.
            _ => Err(AppError::usage(
                "select a circuit with `circuit` or `bench`",
            )),
        }
    }

    fn spool_file(&self, id: &str, suffix: &str) -> Option<PathBuf> {
        self.spool
            .as_ref()
            .map(|dir| dir.join(format!("{id}.{suffix}")))
    }

    fn spool_spec(&self, job: &Job) -> Result<(), AppError> {
        let Some(path) = self.spool_file(&job.id, "spec.json") else {
            return Ok(());
        };
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.field("id", &job.id);
        w.field("submitted_unix_ms", &job.submitted_unix_ms);
        w.field("spec", &job.spec);
        w.end_object();
        let record = w.finish() + "\n";
        save_atomic(&path.to_string_lossy(), &record)
            .map_err(|e| AppError::runtime(format!("cannot spool job spec: {e}")))
    }

    /// Finalises a job: records the terminal phase, persists the outcome
    /// to the spool and closes the event stream.
    fn finish(&self, job: &Job, phase: JobPhase) {
        {
            let mut st = job.lock();
            // First terminal transition wins (cancel racing the runner).
            if st.phase.is_terminal() {
                return;
            }
            st.phase = phase;
        }
        self.spool_outcome(job);
        job.hub.close();
    }

    fn spool_outcome(&self, job: &Job) {
        let Some(dir) = &self.spool else { return };
        let st = job.lock();
        let (report, error) = match &st.phase {
            JobPhase::Done { report_json } => (Some(report_json.clone()), None),
            JobPhase::Cancelled { report_json } => (report_json.clone(), None),
            JobPhase::Failed { error } => (None, Some(error.clone())),
            JobPhase::Queued | JobPhase::Running => return,
        };
        let label = st.phase.label();
        drop(st);
        if let Some(report) = report {
            let path = dir.join(format!("{}.report.json", job.id));
            // Spool writes are best-effort: a full disk must not take the
            // in-memory result down with it.
            let _ = save_atomic(&path.to_string_lossy(), &report);
        }
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.field("id", &job.id);
        w.field("status", label);
        w.field("error", &error);
        w.end_object();
        let record = w.finish() + "\n";
        let path = dir.join(format!("{}.result.json", job.id));
        if save_atomic(&path.to_string_lossy(), &record).is_ok() {
            // Recovery takes a terminal job from this record and never
            // reads its checkpoint again.
            if let Some(ckpt) = self.spool_file(&job.id, "ckpt") {
                let ckpt = ckpt.to_string_lossy().into_owned();
                let _ = std::fs::remove_file(backup_path(&ckpt));
                let _ = std::fs::remove_file(ckpt);
            }
        }
    }

    /// Rebuilds the job registry from a spool directory: jobs with a
    /// terminal record come back as-is (report included); the rest
    /// re-enter the queue and will resume from their checkpoints.
    fn recover_spool(&self) -> Result<(), AppError> {
        let Some(dir) = self.spool.clone() else {
            return Ok(());
        };
        std::fs::create_dir_all(&dir).map_err(|e| {
            AppError::runtime(format!("cannot create spool `{}`: {e}", dir.display()))
        })?;
        let mut specs: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| AppError::runtime(format!("cannot read spool `{}`: {e}", dir.display())))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".spec.json"))
            })
            .collect();
        specs.sort();
        let mut max_id = 0u64;
        for path in specs {
            let Some((job, finished)) = recover_one(&dir, &path) else {
                continue;
            };
            if let Some(n) = job.id.strip_prefix('j').and_then(|n| n.parse::<u64>().ok()) {
                max_id = max_id.max(n);
            }
            let job = Arc::new(job);
            self.jobs
                .lock()
                .expect("job registry poisoned")
                .push(Arc::clone(&job));
            if !finished {
                self.queue
                    .lock()
                    .expect("job queue poisoned")
                    .queue
                    .push_back(job);
            }
        }
        self.next_id.store(max_id + 1, Ordering::Relaxed);
        Ok(())
    }
}

/// Reads one spooled job back; `None` (skip, keep serving) when the
/// record is unreadable. The bool says whether the job was terminal.
fn recover_one(dir: &Path, spec_path: &Path) -> Option<(Job, bool)> {
    let text = std::fs::read_to_string(spec_path).ok()?;
    let doc = json::parse(&text).ok()?;
    let id = doc.get("id")?.as_str()?.to_string();
    let submitted = doc.get("submitted_unix_ms").and_then(Json::as_u64)?;
    let spec = JobSpec::from_json(doc.get("spec")?).ok()?;
    let result_path = dir.join(format!("{id}.result.json"));
    let Ok(result_text) = std::fs::read_to_string(&result_path) else {
        return Some((Job::new(id, spec, submitted), false));
    };
    let result = json::parse(&result_text).ok()?;
    let report = std::fs::read_to_string(dir.join(format!("{id}.report.json"))).ok();
    let phase = match result.get("status").and_then(Json::as_str) {
        Some("done") => JobPhase::Done {
            report_json: report?,
        },
        Some("cancelled") => JobPhase::Cancelled {
            report_json: report,
        },
        Some("failed") => JobPhase::Failed {
            error: AppError::runtime(
                result
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("job failed before the daemon restarted"),
            ),
        },
        // An unknown/missing terminal status: treat as unfinished and
        // rerun — determinism makes the rerun land on the same report.
        _ => return Some((Job::new(id, spec, submitted), false)),
    };
    Some((Job::recovered_terminal(id, spec, submitted, phase), true))
}

fn runner_loop(shared: &Arc<EngineShared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("job queue poisoned");
            loop {
                if let Some(job) = q.queue.pop_front() {
                    q.running += 1;
                    break job;
                }
                if !q.open {
                    return;
                }
                q = shared.work.wait(q).expect("job queue poisoned");
            }
        };
        run_one(shared, &job);
        shared.queue.lock().expect("job queue poisoned").running -= 1;
    }
}

fn run_one(shared: &EngineShared, job: &Arc<Job>) {
    if job.cancel.is_cancelled() {
        shared.finish(job, JobPhase::Cancelled { report_json: None });
        return;
    }
    let queue_wait_ms = 1e3 * job.submitted_at.elapsed().as_secs_f64();
    let sink = {
        let mut st = job.lock();
        st.phase = JobPhase::Running;
        st.queue_wait_ms = Some(queue_wait_ms);
        st.sink.take()
    };
    let outcome = run_job(shared, job, queue_wait_ms, sink);
    let cancelled = job.cancel.is_cancelled();
    let phase = match (outcome, cancelled) {
        (Ok(report_json), false) => JobPhase::Done { report_json },
        (Ok(report_json), true) => JobPhase::Cancelled {
            report_json: Some(report_json),
        },
        (Err(_), true) => JobPhase::Cancelled { report_json: None },
        (Err(error), false) => JobPhase::Failed { error },
    };
    shared.finish(job, phase);
}

/// Runs one job and returns its report JSON. The spool checkpoint is
/// best-effort: a torn or unparseable one, or one the engine refuses
/// (older daemon, edited spool), degrades to a fresh run, which
/// determinism lands on the identical result.
fn run_job(
    shared: &EngineShared,
    job: &Arc<Job>,
    queue_wait_ms: f64,
    sink: Option<SubscriberSink>,
) -> Result<String, AppError> {
    let circuit = shared.resolve_circuit(&job.spec)?;
    let telemetry = Telemetry::enabled();
    if let Some(sink) = sink {
        telemetry.add_sink(Box::new(sink));
    }
    let ckpt = shared
        .spool_file(&job.id, "ckpt")
        .map(|p| p.to_string_lossy().into_owned());
    let resume = ckpt
        .as_deref()
        .and_then(|path| {
            load_with_recovery(path, Checkpoint::from_json)
                .ok()
                .flatten()
        })
        .map(|(cp, _)| cp);
    let hooks = |resume| Hooks {
        telemetry: telemetry.clone(),
        cancel: job.cancel.clone(),
        budget: RunBudget::none(),
        resume,
        checkpoint: ckpt.as_deref(),
    };
    // No final checkpoint: the terminal record written as the job ends
    // replaces it, and a crash before that record reruns the job from its
    // last rolling checkpoint (or from scratch) to the same report.
    let execute = |resume| execute_job(&circuit, &job.spec, hooks(resume), false);
    let run = match execute(resume.as_ref()) {
        Err(MaxPowerError::CheckpointMismatch { .. }) => execute(None),
        run => run,
    }?;
    // No telemetry block: the daemon's always-on event ring is a
    // transport detail, and attaching the snapshot would break
    // byte-identity with a plain CLI run.
    let report = run.report.with_job(JobProvenance {
        job_id: job.id.clone(),
        submitted_unix_ms: job.submitted_unix_ms,
        queue_wait_ms,
    });
    Ok(report.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::json;

    fn spec_from(text: &str) -> Result<JobSpec, AppError> {
        JobSpec::from_json(&json::parse(text).expect("test body parses"))
    }

    #[test]
    fn spec_defaults_are_pinned() {
        let spec = spec_from(r#"{"circuit":"C432"}"#).expect("minimal spec parses");
        assert_eq!(
            spec,
            JobSpec {
                circuit: Some(Iscas85::C432),
                ..JobSpec::default()
            }
        );
        assert_eq!(spec.gen_seed, 7);
        assert_eq!(spec.epsilon, 0.05);
        assert_eq!(spec.confidence, 0.90);
        assert_eq!(spec.population, 160_000);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.workers.get(), 1);
        assert_eq!(spec.delay_model, DelayModel::Unit);
        assert_eq!(spec.kernel, KernelMode::Auto);
        assert_eq!(spec.sample_policy, SamplePolicy::Fail);
        let config = spec.estimation_config();
        assert_eq!(config.relative_error, 0.05);
        assert_eq!(config.finite_population, Some(160_000));
        assert_eq!(config.max_hyper_samples, 500);
        assert_eq!(config.min_reading_mw, 0.0);
    }

    #[test]
    fn spec_rejects_unknown_fields_and_bad_values() {
        for (body, needle) in [
            (r#"{"circuit":"C432","epsilonn":0.1}"#, "epsilonn"),
            (r#"{"circuit":"C9999"}"#, "C9999"),
            (r#"{}"#, "circuit"),
            (r#"{"circuit":"C432","bench":"x"}"#, "mutually exclusive"),
            (r#"{"circuit":"C432","workers":0}"#, "workers"),
            (r#"{"circuit":"C432","metric":"area"}"#, "area"),
            (r#"{"circuit":"C432","sample_policy":"bogus"}"#, "bogus"),
            (r#"{"circuit":"C432","activity":1.5}"#, "activity"),
            (r#"{"circuit":"C432","epsilon":2}"#, "relative_error"),
            (r#"{"circuit":"C432","confidence":1.5}"#, "confidence"),
            (r#"{"circuit":"C432","population":1}"#, "finite_population"),
        ] {
            let err = spec_from(body).expect_err(body);
            assert!(
                err.to_string().contains(needle),
                "`{body}` → `{err}` (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn delay_metric_accepts_every_kernel() {
        for kernel in ["auto", "scalar", "packed", "packed128"] {
            let body = format!(r#"{{"circuit":"C432","metric":"delay","kernel":"{kernel}"}}"#);
            let spec = spec_from(&body).expect("delay spec parses");
            assert_eq!(spec.metric, Metric::Delay);
            assert_eq!(
                spec.kernel,
                KernelMode::parse(kernel).expect("known kernel")
            );
            spec.validate()
                .expect("every kernel serves the delay metric");
        }
    }

    #[test]
    fn spec_roundtrips_through_its_spool_spelling() {
        let spec = spec_from(
            r#"{"circuit":"C880","metric":"delay","epsilon":0.1,"confidence":0.95,
                "population":0,"seed":9,"workers":4,"delay_model":"fanout",
                "kernel":"scalar","activity":0.3,"sample_policy":"skip:50"}"#,
        )
        .expect("full spec parses");
        let back = spec_from(&spec.to_json()).expect("spool spelling parses");
        assert_eq!(spec, back);
        let bench = spec_from(r#"{"bench":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n","name":"t"}"#)
            .expect("bench spec parses");
        assert_eq!(bench, spec_from(&bench.to_json()).expect("roundtrips"));
    }

    #[test]
    fn queue_full_submission_is_refused_with_busy() {
        // One runner, capacity 1: the runner takes the first job, the
        // second fills the queue, the third must bounce with 429.
        let engine = JobEngine::start(1, 1, None).expect("engine starts");
        let slow = spec_from(r#"{"circuit":"C432","epsilon":0.0001}"#).expect("spec");
        let first = engine.submit(slow.clone()).expect("first admitted");
        // Wait until the runner has actually claimed the first job so the
        // queue is empty for the second.
        for _ in 0..500 {
            if first.status_label() != "queued" {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let _second = engine.submit(slow.clone()).expect("second queues");
        let err = engine.submit(slow).expect_err("third refused");
        assert_eq!(err.kind.http_status().0, 429);
        assert!(err.to_string().contains("queue is full"));
        // Cancel everything so shutdown is quick.
        for id in ["j000001", "j000002"] {
            engine.cancel(id).expect("cancel known job");
        }
        engine.shutdown();
    }

    #[test]
    fn cancelled_queued_job_finalises_without_running() {
        let engine = JobEngine::start(1, 4, None).expect("engine starts");
        let slow = spec_from(r#"{"circuit":"C432","epsilon":0.0001}"#).expect("spec");
        let _running = engine.submit(slow.clone()).expect("first admitted");
        let queued = engine.submit(slow).expect("second queues");
        let cancelled = engine.cancel(&queued.id).expect("cancel succeeds");
        assert_eq!(cancelled.status_label(), "cancelled");
        assert!(cancelled.report_json().is_none());
        // The event stream ends immediately for a job that never ran.
        assert!(queued.hub.subscribe().wait().is_none());
        assert!(engine.cancel("j999999").is_err());
        engine.cancel("j000001").expect("cancel the running job");
        engine.shutdown();
    }

    #[test]
    fn finished_job_spool_holds_only_spec_report_and_result() {
        let dir = std::env::temp_dir().join(format!("mpe-spool-hygiene-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("spool dir");
        // Stale checkpoint files under the id the job will get: unusable,
        // so the job runs from scratch, and gone once it is done.
        std::fs::write(dir.join("j000001.ckpt"), "{not a checkpoint").expect("ckpt");
        std::fs::write(dir.join("j000001.ckpt.bak"), "{not either").expect("ckpt.bak");
        let engine = JobEngine::start(1, 4, Some(dir.clone())).expect("engine starts");
        let spec = spec_from(r#"{"circuit":"C432","epsilon":0.2}"#).expect("spec");
        let job = engine.submit(spec).expect("admitted");
        let mut sub = job.hub.subscribe();
        while sub.wait().is_some() {}
        assert_eq!(job.status_label(), "done");
        engine.shutdown();
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .expect("spool readable")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(
            files,
            [
                "j000001.report.json",
                "j000001.result.json",
                "j000001.spec.json"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_job_reports_done_with_provenance() {
        let engine = JobEngine::start(2, 8, None).expect("engine starts");
        let spec = spec_from(r#"{"circuit":"C432","epsilon":0.2}"#).expect("spec");
        let job = engine.submit(spec).expect("admitted");
        let mut sub = job.hub.subscribe();
        let mut events = 0usize;
        while let Some(batch) = sub.wait() {
            events += batch.events.len();
        }
        // The hub closes only on finalisation, so the job is terminal.
        assert_eq!(job.status_label(), "done");
        assert!(events > 0, "a run must emit telemetry events");
        let status = job.status_json();
        assert!(status.contains("\"status\":\"done\""), "{status}");
        assert!(status.contains("\"queue_wait_ms\":"), "{status}");
        assert!(job.report_json().is_some());
        let (_, hits, misses) = engine.shared.cache.stats();
        assert_eq!((hits, misses), (1, 1), "submit warms, runner hits");
        engine.shutdown();
    }
}
