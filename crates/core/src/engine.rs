//! The execution engine behind [`Session`](crate::session::Session): the
//! paper's Figure 4 loop — draw a hyper-sample, fold it into the
//! t-interval, stop when the interval is tight enough — run the same way
//! at every worker count.
//!
//! [`Worker::step`] claims an index (retry queue, then the worker's own
//! claimed indices, then an atomic counter), announces the next
//! [`plan_lookahead`](crate::PowerSource::plan_lookahead) indices it will
//! generate, and generates the claimed one under `catch_unwind`.
//! [`Coordinator::absorb`] buffers each result, commits in index order
//! through the [`Committer`], and after **every** commit evaluates the
//! stopping rule and then the supervisor, so a stop leaves exactly the
//! committed prefix. With one worker the calling thread alternates the
//! two, with no thread and no channel; with more, each worker runs on a
//! scoped thread and sends its events over a bounded channel.
//!
//! # Determinism model
//!
//! Hyper-samples are i.i.d. (the paper's one statistical assumption), and
//! hyper-sample `k` draws from a private stream seeded
//! by `derive_seed(master_seed, k)` after the source's
//! [`begin_hyper_sample`](crate::PowerSource::begin_hyper_sample) hook has
//! reset any per-index source state. Generation of hyper-sample `k` is
//! therefore a pure function of `(config, master_seed, k)` — it does not
//! matter *which thread* computes it, only that results are **committed in
//! index order**, so the estimate, the convergence history, the checkpoint
//! sequence and the stopping decision are bit-identical for any worker
//! count.
//!
//! Pool workers race ahead of the stopping rule by design; hyper-samples
//! beyond the stopping index are discarded without being committed. The
//! committed accounting (`units_used`, history, checkpoints) is
//! unaffected; telemetry, which records work *actually performed*, does
//! count the speculative draws on the worker lanes that performed them.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use mpe_stats::dist::StudentT;
use mpe_telemetry::{names, SpanKind, Telemetry};

use crate::checkpoint::{config_fingerprint, Checkpoint, CheckpointHook, CHECKPOINT_VERSION};
use crate::config::EstimationConfig;
use crate::error::MaxPowerError;
use crate::estimator::{EstimateHistoryEntry, MaxPowerEstimate};
use crate::health::{RunHealth, RunStatus};
use crate::hyper::{generate_hyper_sample, HyperSample, HyperSampleContext};
use crate::session::{RunOptions, Session};
use crate::source::{LaneStats, PowerSource};
use crate::supervise::{panic_message, StopReason, Supervisor};

/// Deterministic panics (hyper-sample `k` is a pure function of config,
/// seed and index) cannot be fixed by requeueing: after this many panics
/// on the *same* index the run fails hard with
/// [`MaxPowerError::Panicked`].
const MAX_PANICS_PER_INDEX: usize = 3;

/// Coordinator wake-up period of a threaded run while supervision or the
/// stall watchdog is active: the latency bound on noticing a
/// cancellation/deadline with no worker results arriving. Unsupervised and
/// single-worker runs never tick.
const SUPERVISION_TICK: Duration = Duration::from_millis(100);

/// Zero-mean guard: when `|P̄|` is at or below this floor (mW) the relative
/// half-width `t·s/(√k·|P̄|)` divides by ≈0 and can never fire, so the
/// stopping rule switches to the absolute criterion [`ABSOLUTE_ERROR_MW`]
/// and flags [`RunHealth::zero_mean_guard`].
const MEAN_FLOOR_MW: f64 = 1e-9;

/// Absolute half-width (mW) the stopping rule accepts while the zero-mean
/// guard is active.
const ABSOLUTE_ERROR_MW: f64 = 1e-6;

/// The t-interval around the running mean, evaluated against both stopping
/// criteria.
struct IntervalStats {
    mean: f64,
    half: f64,
    relative: f64,
    met: bool,
}

/// Derives the seed of hyper-sample `k`'s private RNG stream from the
/// master seed (splitmix-style odd multiplier keeps the streams distinct).
pub(crate) fn derive_seed(master_seed: u64, k: usize) -> u64 {
    master_seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Computes the t-interval for the current estimates (`None` before
/// `k = 2`, where the sample variance is undefined), deciding the stopping
/// criterion and flagging the zero-mean guard.
fn interval(
    config: &EstimationConfig,
    estimates: &[f64],
    health: &mut RunHealth,
) -> Result<Option<IntervalStats>, MaxPowerError> {
    let k = estimates.len();
    if k < 2 {
        return Ok(None);
    }
    let mean = estimates.iter().sum::<f64>() / k as f64;
    let s2 = estimates.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (k as f64 - 1.0);
    let t = StudentT::new((k - 1) as f64)?.two_sided_critical(config.confidence)?;
    let half = t * s2.sqrt() / (k as f64).sqrt();
    let (relative, met) = if mean.abs() <= MEAN_FLOOR_MW {
        // Relative width is undefined at a (near-)zero mean; fall back
        // to the absolute criterion and record that we did.
        health.zero_mean_guard = true;
        (f64::INFINITY, half <= ABSOLUTE_ERROR_MW)
    } else {
        let relative = half / mean.abs();
        (relative, relative <= config.relative_error)
    };
    Ok(Some(IntervalStats {
        mean,
        half,
        relative,
        met,
    }))
}

/// Moves the committed record `st` into the estimate with interval `s`.
fn finish(
    config: &EstimationConfig,
    st: Checkpoint,
    s: &IntervalStats,
    met_target: bool,
    interrupted: Option<StopReason>,
) -> MaxPowerEstimate {
    let status = match interrupted {
        Some(reason) => RunStatus::Interrupted { reason },
        None => st.health.status(met_target),
    };
    MaxPowerEstimate {
        estimate_mw: s.mean,
        confidence_interval: (s.mean - s.half, s.mean + s.half),
        relative_error: s.relative,
        confidence: config.confidence,
        hyper_samples: st.hyper_estimates.len(),
        units_used: st.units_used,
        observed_max_mw: st.observed_max_mw.unwrap_or(f64::NEG_INFINITY),
        status,
        health: st.health,
        history: st.history,
        hyper_estimates: st.hyper_estimates,
        fit_diagnostics: st.fit_diagnostics,
    }
}

/// The single place hyper-samples enter the run: absorbs each one into the
/// committed record in index order, records history/telemetry/checkpoints,
/// and evaluates the stopping rule.
///
/// A checkpoint is built only when the hook says it is due: after a
/// commit, and once more as the run ends on any path with commits not yet
/// saved.
struct Committer<'a> {
    /// Resolved configuration (finite population already picked up).
    config: EstimationConfig,
    telemetry: &'a Telemetry,
    /// The committed record. Its envelope (version, config fingerprint,
    /// master seed) is fixed when the run starts; a save attaches the
    /// telemetry summary to a copy and seals it.
    state: Checkpoint,
    /// The checkpoint hook; `None` skips building checkpoints at all.
    hook: Option<CheckpointHook<'a>>,
    /// Whether commits were made since the last saved checkpoint.
    unsaved: bool,
}

impl Committer<'_> {
    /// The t-interval of the committed estimates.
    fn interval(&mut self) -> Result<Option<IntervalStats>, MaxPowerError> {
        interval(
            &self.config,
            &self.state.hyper_estimates,
            &mut self.state.health,
        )
    }

    /// Evaluates the stopping rule on the current state and its interval
    /// `stats`: `Some(estimate)` when the run is over (target met, or the
    /// hyper-sample cap reached), `None` when another hyper-sample is
    /// needed. Called before the first draw too, so a resumed run that
    /// already satisfies its target returns without drawing.
    fn decide(&mut self, stats: Option<IntervalStats>) -> Option<MaxPowerEstimate> {
        let k = self.state.hyper_estimates.len();
        let s = stats?;
        let met = k >= self.config.min_hyper_samples && s.met;
        if !(met || k >= self.config.max_hyper_samples) {
            return None;
        }
        self.save_last();
        self.telemetry.flush();
        let st = std::mem::take(&mut self.state);
        Some(finish(&self.config, st, &s, met, None))
    }

    /// Ends the run early on a supervision stop: the committed prefix
    /// becomes a valid partial estimate tagged
    /// [`RunStatus::Interrupted`]. With fewer than two committed
    /// hyper-samples no interval exists, so there is nothing to return and
    /// the stop surfaces as [`MaxPowerError::Interrupted`].
    fn finish_interrupted(
        &mut self,
        reason: StopReason,
    ) -> Result<MaxPowerEstimate, MaxPowerError> {
        self.save_last();
        match self.interval()? {
            Some(s) => {
                self.telemetry.flush();
                let st = std::mem::take(&mut self.state);
                Ok(finish(&self.config, st, &s, false, Some(reason)))
            }
            None => Err(MaxPowerError::Interrupted {
                reason,
                hyper_samples: self.state.hyper_estimates.len(),
            }),
        }
    }

    /// Absorbs hyper-sample `k` (which must be the next index) into the
    /// committed record: accounting, health, convergence gauges, the history
    /// entry, and a checkpoint save when one is due. Returns the new
    /// interval for the stopping rule.
    fn commit(&mut self, hyper: HyperSample) -> Result<Option<IntervalStats>, MaxPowerError> {
        let st = &mut self.state;
        // The one fallible step runs first, so an error leaves the
        // committed state whole for the final checkpoint.
        st.hyper_estimates.push(hyper.estimate_mw);
        let stats = match interval(&self.config, &st.hyper_estimates, &mut st.health) {
            Ok(stats) => stats,
            Err(e) => {
                st.hyper_estimates.pop();
                return Err(e);
            }
        };
        let k = st.hyper_estimates.len();
        st.units_used += hyper.units_used;
        let seen = st
            .observed_max_mw
            .map_or(hyper.observed_max, |m| m.max(hyper.observed_max));
        // JSON cannot hold a non-finite maximum, and the sealed record must
        // read back as written.
        st.observed_max_mw = Some(seen).filter(|m| m.is_finite());
        st.health.absorb(&hyper.health, hyper.diagnostics.rung);
        if hyper.diagnostics.is_irregular_mle() {
            st.health.irregular_fits += 1;
        }
        // Audit-trail event for the *committed* hyper-sample, emitted on
        // the commit path so the trace records them in index order
        // regardless of worker count (speculative fits beyond the stopping
        // index never appear).
        let diag = hyper.diagnostics;
        self.telemetry.fit_diag(
            (k - 1) as u64,
            diag.rung.label(),
            diag.reason.label(),
            diag.log_likelihood,
            diag.ks_distance,
            diag.tail_shape,
        );
        st.fit_diagnostics.push(diag);
        self.telemetry.counter(names::HYPER_SAMPLES, 1);

        let (mean, relative_half_width) = match &stats {
            Some(s) => (s.mean, s.relative),
            None => (
                st.hyper_estimates.iter().sum::<f64>() / k as f64,
                f64::INFINITY,
            ),
        };
        self.telemetry.gauge(names::RUNNING_MEAN_MW, mean);
        if let Some(s) = &stats {
            self.telemetry.gauge(names::CI_HALF_WIDTH_MW, s.half);
        }
        // Emitted every iteration (infinite before k = 2) — the progress
        // sink repaints on this gauge, the last one per iteration.
        self.telemetry
            .gauge(names::CI_RELATIVE_HALF_WIDTH, relative_half_width);
        st.history.push(EstimateHistoryEntry {
            k,
            mean_mw: mean,
            relative_half_width,
            units_used: st.units_used,
        });
        self.unsaved = true;
        if self.hook.as_ref().is_some_and(|hook| hook.due(false)) {
            self.save();
        }
        Ok(stats)
    }

    /// Saves the final state when commits are unsaved and the hook wants
    /// it. Called on every path that ends a run, before the state moves
    /// into the estimate.
    fn save_last(&mut self) {
        if self.unsaved && self.hook.as_ref().is_some_and(|hook| hook.due(true)) {
            self.save();
        }
    }

    /// Seals and hands the hook a copy of the committed record: a clone of
    /// the whole prefix and a hash of its rendering, so it runs only when
    /// the hook says one is due.
    fn save(&mut self) {
        let Some(hook) = self.hook.as_mut() else {
            return;
        };
        let _cp_span = self.telemetry.span(SpanKind::Checkpoint);
        let mut cp = self.state.clone();
        cp.telemetry = crate::report::TelemetrySummary::of(self.telemetry);
        // The telemetry block is part of the sealed payload.
        cp.seal();
        hook.save(&cp);
        self.telemetry.counter(names::CHECKPOINT_SAVES, 1);
        self.unsaved = false;
    }

    /// Next hyper-sample index to generate.
    fn next_k(&self) -> usize {
        self.state.hyper_estimates.len()
    }
}

/// Where a run's hyper-samples are generated.
pub(crate) enum Workers<'a> {
    /// On the calling thread, from one source: no thread, no channel.
    Inline(&'a mut dyn PowerSource),
    /// On one scoped thread per source.
    Threads(Vec<Box<dyn PowerSource + Send + 'a>>),
}

type Outcome = Result<MaxPowerEstimate, MaxPowerError>;

/// Runs the iterative procedure (paper Figure 4) for `session` to its end:
/// the stopping rule, a supervision stop, or an error. Validates the
/// configuration, takes the finite population from the sources if unset,
/// and verifies the resume checkpoint first.
pub(crate) fn run(session: &Session, opts: RunOptions<'_>, workers: Workers<'_>) -> Outcome {
    let (population, worker_count) = match &workers {
        Workers::Inline(source) => (source.population_size(), 1),
        Workers::Threads(sources) => (
            sources.first().and_then(|s| s.population_size()),
            sources.len(),
        ),
    };
    let telemetry = session.telemetry();
    session.config().validate()?;
    let mut config = *session.config();
    if config.finite_population.is_none() {
        config.finite_population = population;
    }
    let fingerprint = config_fingerprint(&config);
    let state = match opts.resume {
        Some(cp) => {
            cp.verify(fingerprint, opts.seed)?;
            // Carry the earlier segments' phase durations and counters
            // forward so post-resume telemetry reports the whole run.
            if let Some(summary) = &cp.telemetry {
                summary.restore_into(telemetry);
            }
            cp.clone()
        }
        None => Checkpoint {
            version: CHECKPOINT_VERSION,
            config_fingerprint: fingerprint,
            master_seed: opts.seed,
            ..Checkpoint::default()
        },
    };
    let committed = state.hyper_estimates.len();
    let supervision = opts.supervision();
    let mut ctx = HyperSampleContext::new(&config);
    if let Some(token) = &supervision.cancel {
        ctx = ctx.with_cancel(token.clone());
    }
    let shared = Shared {
        ctx,
        master_seed: opts.seed,
        next_k: AtomicUsize::new(committed),
        retry: Mutex::new(VecDeque::new()),
        heartbeats: (0..worker_count).map(|_| AtomicU64::new(0)).collect(),
        started: Instant::now(),
    };
    let mut coordinator = Coordinator {
        committer: Committer {
            config,
            telemetry,
            state,
            hook: opts.save.map(CheckpointHook::narrow),
            unsaved: false,
        },
        supervisor: Supervisor::new(&supervision, committed),
        shared: &shared,
        buffer: BTreeMap::new(),
        panics_by_index: HashMap::new(),
        last_panic_context: None,
        // A lone worker's heartbeat only moves between the hyper-samples
        // it commits, so the watchdog needs a second worker to watch.
        stall_timeout: supervision
            .budget
            .stall_timeout
            .filter(|_| worker_count > 1),
        stall_flagged: vec![false; worker_count],
    };

    let _run_span = telemetry.span(SpanKind::Run);
    // A resumed run that already satisfies its target (or is stopped
    // before its first draw) returns without generating anything.
    let stats = coordinator.committer.interval()?;
    if let Some(outcome) = coordinator.settle(stats) {
        return outcome;
    }
    let outcome = match workers {
        Workers::Inline(source) => {
            let mut worker = Worker::new(0, source, telemetry.clone(), None, &shared);
            loop {
                let event = worker.step(&shared);
                let retired = event.retires();
                if let Some(outcome) = coordinator.absorb(event) {
                    break outcome;
                }
                if retired {
                    break Err(coordinator.all_workers_exited());
                }
            }
        }
        Workers::Threads(sources) => run_threads(&mut coordinator, sources),
    };
    // A failed run still holds its committed prefix: save it as the
    // final state (an estimate saved its own before taking the state).
    if outcome.is_err() {
        coordinator.committer.save_last();
    }
    outcome
}

/// The threaded driver: one scoped thread per source runs
/// [`Worker::step`] and sends each event over a bounded channel; this
/// thread feeds them to the coordinator, with a [`SUPERVISION_TICK`]
/// timeout standing in as a tick when supervision or the stall watchdog
/// is on.
fn run_threads(
    coordinator: &mut Coordinator<'_, '_>,
    sources: Vec<Box<dyn PowerSource + Send + '_>>,
) -> Outcome {
    let shared = coordinator.shared;
    let telemetry = coordinator.committer.telemetry;
    let ticking = coordinator.supervisor.is_active() || coordinator.stall_timeout.is_some();
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::sync_channel::<Event>(sources.len().saturating_mul(2));
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(sources.len());
        for (w, mut source) in sources.into_iter().enumerate() {
            let tx = tx.clone();
            let stop = &stop;
            let worker_telemetry = telemetry.for_worker(w as u64);
            handles.push(scope.spawn(move || {
                let counter = Some(names::worker_hyper_samples(w));
                let mut worker = Worker::new(w, &mut *source, worker_telemetry, counter, shared);
                while !stop.load(Ordering::Acquire) {
                    let event = worker.step(shared);
                    let retired = event.retires();
                    // A send fails only after the coordinator finished and
                    // dropped the receiver — normal shutdown.
                    if tx.send(event).is_err() || retired {
                        break;
                    }
                }
            }));
        }
        drop(tx);

        let outcome = loop {
            let received = if ticking {
                match rx.recv_timeout(SUPERVISION_TICK) {
                    Ok(event) => Some(event),
                    Err(RecvTimeoutError::Timeout) => Some(Event::Tick),
                    Err(RecvTimeoutError::Disconnected) => None,
                }
            } else {
                rx.recv().ok()
            };
            // Every worker exited without a stopping decision: each taken
            // index was sent before its worker broke, so every worker
            // panic-retired, or this is a bug. Fail loudly either way.
            let Some(event) = received else {
                break Err(coordinator.all_workers_exited());
            };
            if let Some(outcome) = coordinator.absorb(event) {
                break outcome;
            }
        };
        // Unblock and retire the workers: any sender blocked on the bounded
        // channel errors out once the receiver drops.
        stop.store(true, Ordering::Release);
        drop(rx);
        // Join every worker explicitly: a panic that escaped its
        // `catch_unwind` (outside hyper-sample generation) surfaces as an
        // error here instead of re-panicking out of the scope.
        let joined: Vec<_> = handles.into_iter().map(|handle| handle.join()).collect();
        if joined.iter().any(Result::is_err) {
            return Err(MaxPowerError::Source {
                message: "a parallel estimation worker panicked".to_string(),
            });
        }
        outcome
    })
}

/// What the workers share with each other and with the coordinator.
struct Shared<'a> {
    /// The resolved configuration and cancel token; each worker adds its
    /// own telemetry handle.
    ctx: HyperSampleContext<'a>,
    master_seed: u64,
    /// The lowest index no worker has claimed yet.
    next_k: AtomicUsize,
    /// Indices handed back by panicked workers, claimed before fresh ones.
    retry: Mutex<VecDeque<usize>>,
    /// Per-worker liveness stamps (ms since `started`), read by the stall
    /// watchdog.
    heartbeats: Vec<AtomicU64>,
    started: Instant,
}

impl Shared<'_> {
    fn retry_queue(&self) -> MutexGuard<'_, VecDeque<usize>> {
        self.retry
            .lock()
            .expect("no code panics while holding the retry queue")
    }
}

/// One message from a worker to the coordinator.
enum Event {
    /// Hyper-sample `k` was generated (or failed with an engine error).
    Done {
        k: usize,
        result: Result<HyperSample, MaxPowerError>,
    },
    /// The worker panicked while generating hyper-sample `k` and retired.
    /// The coordinator requeues `k` for a healthy worker — hyper-samples
    /// are pure functions of `(config, seed, k)`, so the re-derived result
    /// is bit-identical to what the panicked worker would have produced.
    Panicked { k: usize, context: String },
    /// No worker result arrived within [`SUPERVISION_TICK`].
    Tick,
}

impl Event {
    /// Whether the worker that produced this event stops: after a panic
    /// (its source may be poisoned) or an engine error (which ends the run
    /// unless the stopping index lies before it).
    fn retires(&self) -> bool {
        !matches!(self, Event::Done { result: Ok(_), .. })
    }
}

/// One worker: a source and the indices it has claimed ahead. The same
/// body runs on the calling thread (one worker) and on every pool thread.
struct Worker<'a, 's> {
    id: usize,
    source: &'s mut dyn PowerSource,
    ctx: HyperSampleContext<'a>,
    /// `worker{id}_hyper_samples` on a pool thread; the inline worker
    /// counts nothing beyond the run's own counters.
    counter: Option<String>,
    /// How many indices past the current one the source wants announced.
    lookahead: usize,
    /// Claimed indices not yet generated, ascending.
    claimed: VecDeque<usize>,
    lane_seen: LaneStats,
}

impl<'a, 's> Worker<'a, 's> {
    fn new(
        id: usize,
        source: &'s mut dyn PowerSource,
        telemetry: Telemetry,
        counter: Option<String>,
        shared: &Shared<'a>,
    ) -> Self {
        Worker {
            id,
            lookahead: source.plan_lookahead(shared.ctx.config().sample_size),
            source,
            ctx: shared.ctx.clone().with_telemetry(telemetry),
            counter,
            claimed: VecDeque::new(),
            lane_seen: LaneStats::default(),
        }
    }

    /// Claims an index (retry queue, then this worker's claimed indices,
    /// then the shared counter), announces the next `lookahead` indices
    /// this worker will generate, and generates the claimed one under
    /// `catch_unwind` on its own derived stream.
    fn step(&mut self, shared: &Shared<'_>) -> Event {
        let beat = shared.started.elapsed().as_millis() as u64;
        shared.heartbeats[self.id].store(beat, Ordering::Relaxed);
        let requeued = shared.retry_queue().pop_front();
        // Keep `lookahead` indices claimed beyond the one generated now, so
        // the source can prefetch them into this one's spare lanes.
        let window = self.lookahead + usize::from(requeued.is_none());
        if self.claimed.len() < window {
            let more = window - self.claimed.len();
            let base = shared.next_k.fetch_add(more, Ordering::Relaxed);
            self.claimed.extend(base..base + more);
        }
        let k = match requeued {
            Some(k) => k,
            None => self
                .claimed
                .pop_front()
                .expect("the window holds the next index"),
        };
        if !self.claimed.is_empty() {
            let upcoming: Vec<u64> = self.claimed.iter().map(|&i| i as u64).collect();
            let config = shared.ctx.config();
            let expected_units = config.sample_size.saturating_mul(config.samples_per_hyper);
            self.source
                .plan_hyper_samples(shared.master_seed, &upcoming, expected_units);
        }

        let telemetry = self.ctx.telemetry();
        let generated = catch_unwind(AssertUnwindSafe(|| {
            let _hyper_span = telemetry.span(SpanKind::HyperSample);
            self.source.begin_hyper_sample(k as u64);
            let mut rng = SmallRng::seed_from_u64(derive_seed(shared.master_seed, k));
            generate_hyper_sample(&mut *self.source, &self.ctx, &mut rng)
        }));
        match generated {
            Ok(result) => {
                if let Some(counter) = &self.counter {
                    telemetry.counter(counter, 1);
                }
                publish_lane_stats(telemetry, self.source.lane_stats(), &mut self.lane_seen);
                Event::Done { k, result }
            }
            Err(payload) => {
                // The source may be mid-mutation, so this worker retires.
                // Its claimed indices go back too: no other worker would
                // reach them (the coordinator requeues only `k` itself).
                shared.retry_queue().extend(self.claimed.drain(..));
                telemetry.counter(names::WORKER_PANICS, 1);
                Event::Panicked {
                    k,
                    context: format!(
                        "hyper-sample {k} panicked on worker {}: {}",
                        self.id,
                        panic_message(payload.as_ref())
                    ),
                }
            }
        }
    }
}

/// Publishes the delta between the source's cumulative lane-occupancy
/// stats and the last published snapshot as telemetry counters. No-op for
/// sources without a batch path, or when nothing new was swept.
fn publish_lane_stats(telemetry: &Telemetry, stats: Option<LaneStats>, seen: &mut LaneStats) {
    let Some(stats) = stats else { return };
    if stats.words_swept > seen.words_swept {
        telemetry.counter(
            names::LANE_WORDS_SWEPT,
            stats.words_swept - seen.words_swept,
        );
        telemetry.counter(
            names::LANE_SLOTS_FILLED,
            stats.slots_filled - seen.slots_filled,
        );
        telemetry.counter(
            names::LANE_SLOTS_CAPACITY,
            stats.slots_capacity - seen.slots_capacity,
        );
    }
    *seen = stats;
}

/// Folds worker events into the run: a reorder buffer feeds the
/// [`Committer`] strictly in index order, and after every commit the
/// stopping rule and then the supervisor decide whether the run is over.
struct Coordinator<'a, 's> {
    committer: Committer<'a>,
    supervisor: Supervisor,
    shared: &'s Shared<'s>,
    buffer: BTreeMap<usize, Result<HyperSample, MaxPowerError>>,
    panics_by_index: HashMap<usize, usize>,
    last_panic_context: Option<String>,
    /// The stall watchdog's heartbeat timeout (threaded runs only).
    stall_timeout: Option<Duration>,
    stall_flagged: Vec<bool>,
}

impl Coordinator<'_, '_> {
    /// Absorbs one event; `Some` when the run is over. An event that
    /// commits nothing (a tick, a panic, an out-of-order result) still
    /// checks the supervisor, so a stop is seen while a slow index holds
    /// the commits up.
    fn absorb(&mut self, event: Event) -> Option<Outcome> {
        self.watch_stalls();
        match event {
            Event::Done { k, result } => {
                self.buffer.insert(k, result);
                if self.buffer.contains_key(&self.committer.next_k()) {
                    return self.commit_ready();
                }
            }
            Event::Panicked { k, context } => {
                let count = self.panics_by_index.entry(k).or_insert(0);
                *count += 1;
                if *count >= MAX_PANICS_PER_INDEX {
                    // Deterministic panic: every retry hit it too.
                    let panics = *count;
                    return Some(Err(MaxPowerError::Panicked { context, panics }));
                }
                // The index is re-derived on a healthy worker, so only the
                // health ledger records the restart.
                self.committer.state.health.worker_restarts += 1;
                self.last_panic_context = Some(context);
                self.shared.retry_queue().push_back(k);
            }
            Event::Tick => {}
        }
        self.check_supervisor()
    }

    /// Commits the buffered run of consecutive indices, settling after
    /// each one.
    fn commit_ready(&mut self) -> Option<Outcome> {
        while let Some(result) = self.buffer.remove(&self.committer.next_k()) {
            let outcome = match result {
                Ok(hyper) => match self.committer.commit(hyper) {
                    Ok(stats) => self.settle(stats),
                    Err(e) => Some(Err(e)),
                },
                // A worker observed the cancellation mid-generation: the
                // stop it is, not a failure. The abandoned hyper-sample is
                // re-derived identically on resume.
                Err(MaxPowerError::Interrupted { reason, .. }) => {
                    Some(self.committer.finish_interrupted(reason))
                }
                Err(e) => Some(Err(e)),
            };
            if outcome.is_some() {
                return outcome;
            }
        }
        None
    }

    /// The stopping rule on the committed interval `stats`, then the
    /// supervisor: run before the first draw and after every commit, so a
    /// stop leaves exactly the committed prefix.
    fn settle(&mut self, stats: Option<IntervalStats>) -> Option<Outcome> {
        match self.committer.decide(stats) {
            Some(estimate) => Some(Ok(estimate)),
            None => self.check_supervisor(),
        }
    }

    fn check_supervisor(&mut self) -> Option<Outcome> {
        if !self.supervisor.is_active() {
            return None;
        }
        let reason = self.supervisor.check(self.committer.next_k())?;
        Some(self.committer.finish_interrupted(reason))
    }

    /// The stall watchdog: flags, once per worker, a heartbeat older than
    /// the configured timeout.
    fn watch_stalls(&mut self) {
        let Some(timeout) = self.stall_timeout else {
            return;
        };
        let now_ms = self.shared.started.elapsed().as_millis() as u64;
        let timeout_ms = timeout.as_millis() as u64;
        for (w, hb) in self.shared.heartbeats.iter().enumerate() {
            let hb_ms = hb.load(Ordering::Relaxed);
            if !self.stall_flagged[w] && now_ms.saturating_sub(hb_ms) > timeout_ms {
                // Flagged once per worker: a wedged worker is an incident,
                // not a per-tick event.
                self.stall_flagged[w] = true;
                self.committer.state.health.worker_stalls += 1;
                let telemetry = self.committer.telemetry;
                telemetry.counter(names::WORKER_STALLS, 1);
                telemetry.gauge(&names::worker_heartbeat(w), hb_ms as f64);
            }
        }
    }

    /// The error for a run whose workers all exited without reaching a
    /// stopping decision. When panics were seen, every worker retired
    /// through the panic path and none was left to regenerate the
    /// requeued indices — report that instead of the generic source error.
    fn all_workers_exited(&mut self) -> MaxPowerError {
        let panics: usize = self.panics_by_index.values().sum();
        if panics > 0 {
            MaxPowerError::Panicked {
                context: self
                    .last_panic_context
                    .take()
                    .unwrap_or_else(|| "every worker retired after a panic".to_string()),
                panics,
            }
        } else {
            MaxPowerError::Source {
                message: "workers exited without reaching a stopping decision".to_string(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_distinct() {
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
        // The k-th stream is stable: resuming re-derives the same seed.
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }
}
