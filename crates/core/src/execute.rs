//! The one execution path behind both deployment fronts.
//!
//! `mpe estimate`/`mpe delay` parse their flags into a [`JobSpec`] and
//! `POST /jobs` parses its body into one; both then call [`execute`],
//! which builds the session and one simulator source (reading power or
//! settle time), runs it under the front's supervision and assembles the [`EstimateReport`]. A served
//! report is therefore byte-identical to the CLI's for the same spec by
//! construction, up to what each front adds afterwards (the CLI's
//! telemetry block, the daemon's job provenance and the volatile
//! `wall_ms`).

use std::num::NonZeroUsize;
use std::time::Instant;

use mpe_netlist::Circuit;
use mpe_sim::PowerConfig;
use mpe_telemetry::Telemetry;

use crate::checkpoint::{Checkpoint, CheckpointHook, CheckpointWriter};
use crate::error::MaxPowerError;
use crate::estimator::MaxPowerEstimate;
use crate::report::EstimateReport;
use crate::serve::jobs::{JobSpec, Metric};
use crate::session::{EstimatorBuilder, RunOptions, Session};
use crate::source::{PowerSourceFactory, SimulatorSource};
use crate::supervise::{CancelToken, RunBudget};

/// How one run is observed and supervised: everything about a run that
/// is not part of the request. Each front fills in its own.
pub struct Hooks<'a> {
    /// The handle the session emits through (a disabled handle costs
    /// nothing and leaves the estimate bit-identical).
    pub telemetry: Telemetry,
    /// Trips a graceful stop with a valid partial result.
    pub cancel: CancelToken,
    /// Deadline, hyper-sample budget and stall watchdog.
    pub budget: RunBudget,
    /// A checkpoint the front has already loaded; the run resumes from it
    /// or fails with [`MaxPowerError::CheckpointMismatch`].
    pub resume: Option<&'a Checkpoint>,
    /// Where to save checkpoints, on a latest-wins [`CheckpointWriter`]:
    /// a rolling one at most once per second of run time, and the run's
    /// final state before [`execute`] returns, on every exit path.
    pub checkpoint: Option<&'a str>,
}

/// What one run produced.
#[derive(Debug)]
pub struct Execution {
    /// The estimate itself.
    pub estimate: MaxPowerEstimate,
    /// The report both fronts serialise, without telemetry or job
    /// provenance.
    pub report: EstimateReport,
    /// The first error met saving a checkpoint, if any. Saving is
    /// best-effort: the estimate stands either way.
    pub checkpoint_error: Option<std::io::Error>,
}

/// Runs `spec` on `circuit`: the estimation configuration, vector-pair
/// generator, source and kernel all come from the spec.
///
/// # Errors
///
/// [`MaxPowerError::InvalidConfig`] for an out-of-domain activity or
/// estimation parameter (fronts reject both earlier, with
/// [`JobSpec::validate_parameters`]), and everything [`Session::run`] can
/// raise.
pub fn execute(
    circuit: &Circuit,
    spec: &JobSpec,
    hooks: Hooks<'_>,
) -> Result<Execution, MaxPowerError> {
    execute_job(circuit, spec, hooks, true)
}

/// [`execute`], saving the run's final checkpoint only when `save_last`:
/// the daemon passes `false`, because a served job that finishes is
/// recovered from its terminal record and never from its checkpoint.
pub(crate) fn execute_job(
    circuit: &Circuit,
    spec: &JobSpec,
    hooks: Hooks<'_>,
    save_last: bool,
) -> Result<Execution, MaxPowerError> {
    let generator = spec
        .generator()
        .map_err(|e| MaxPowerError::InvalidConfig { message: e.message })?;
    let session = EstimatorBuilder::new(spec.estimation_config())
        .telemetry(hooks.telemetry.clone())
        .build();
    let started = Instant::now();
    let (source, metric) = match spec.metric {
        Metric::Power => (
            SimulatorSource::new(circuit, generator, spec.delay_model, PowerConfig::default()),
            "max_power_mw",
        ),
        Metric::Delay => (
            SimulatorSource::settle_time(circuit, generator, spec.delay_model),
            "max_delay_units",
        ),
    };
    let source = source.with_kernel(spec.kernel);
    let kernel = source.kernel();
    let (estimate, checkpoint_error) = run(&session, &source, spec, &hooks, save_last)?;
    let wall_ms = 1e3 * started.elapsed().as_secs_f64();
    // The run span's `span_end` is emitted as the estimator returns;
    // flushing makes every sink complete before the report is assembled.
    hooks.telemetry.flush();
    let host_parallelism = std::thread::available_parallelism()
        .ok()
        .map(NonZeroUsize::get);
    let report = EstimateReport::new(circuit.name(), metric, &estimate)
        .with_execution(spec.workers.get(), Some(wall_ms))
        .with_kernel(kernel.as_str(), kernel.lanes(), host_parallelism);
    Ok(Execution {
        estimate,
        report,
        checkpoint_error,
    })
}

fn run<F: PowerSourceFactory>(
    session: &Session,
    factory: &F,
    spec: &JobSpec,
    hooks: &Hooks<'_>,
    save_last: bool,
) -> Result<(MaxPowerEstimate, Option<std::io::Error>), MaxPowerError> {
    let mut opts = RunOptions::default()
        .seeded(spec.seed)
        .workers(spec.workers)
        .cancel_token(hooks.cancel.clone())
        .budget(hooks.budget);
    if let Some(cp) = hooks.resume {
        opts = opts.resume(cp);
    }
    let Some(path) = hooks.checkpoint else {
        return Ok((session.run(factory, opts)?, None));
    };
    std::thread::scope(|scope| {
        let mut writer = CheckpointWriter::spawn(scope, path);
        if !save_last {
            writer = writer.without_final();
        }
        let outcome = session.run(
            factory,
            opts.checkpoint_hook(CheckpointHook::Writer(&writer)),
        );
        let saved = writer.finish();
        Ok((outcome?, saved.err()))
    })
}
