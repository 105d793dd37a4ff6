//! Checkpoint/resume for long estimation runs.
//!
//! A gate-level run can spend hours inside the simulator; losing the whole
//! run to a crash at hyper-sample 180 of 200 is unacceptable in a CI or
//! overnight setting. A [`Checkpoint`] serializes the *estimator* state —
//! the accumulated hyper-sample estimates, their provenance, the
//! convergence history, the unit ledger and the [`RunHealth`] counters —
//! at a committed hyper-sample, so a killed run resumes from there instead
//! of from scratch. The engine builds one only when its crate-private
//! `CheckpointHook` says it is due: a library hook sees every commit,
//! [`CheckpointWriter`] at most one rolling save per second plus the
//! final state.
//!
//! Determinism contract: resumed runs reproduce the uninterrupted run
//! *exactly* when driven through
//! [`Session::run`](crate::Session::run) with
//! [`RunOptions::resume`](crate::RunOptions::resume),
//! because the engine derives an independent RNG stream per
//! hyper-sample index from the master seed (the underlying generator's
//! internal state never needs to be serialized). The checkpoint pins the
//! master seed and a fingerprint of the effective configuration; resuming
//! against a different seed or config is refused with
//! [`MaxPowerError::CheckpointMismatch`].
//!
//! The checkpoint is also the engine's live record of the committed run:
//! a save seals a copy of it, and a resume continues from the verified
//! record itself. JSON has no infinity, so an infinite relative
//! half-width (before `k = 2`, or under the zero-mean guard) is written as
//! `null` and reads back as infinity; the observed maximum is `None` until
//! the first commit.
//!
//! ## Crash safety
//!
//! Checkpoints exist precisely because processes die, so the writer must
//! survive dying mid-write itself. [`save_atomic`] implements
//! write-to-temp → fsync → rotate-previous-to-`.bak` → rename, so the
//! checkpoint path always holds either the previous complete checkpoint
//! or the new complete checkpoint, never a torn mix. Every checkpoint
//! carries a content checksum (sealed at save time);
//! [`Checkpoint::from_json`] rejects records that carry none or whose
//! payload no longer matches it, and [`load_with_recovery`] falls back to
//! the `.bak` rotation when the primary is missing, torn or corrupt.
//! [`CheckpointWriter`] moves those saves off the committing thread,
//! coalesces them (latest wins) and asks for a rolling save at most once
//! per second of run time: a crash may cost about a second of progress
//! plus one commit, never a torn or out-of-order file.

use std::cell::Cell;
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use crate::config::EstimationConfig;
use crate::error::MaxPowerError;
use crate::estimator::EstimateHistoryEntry;
use crate::health::{FitDiagnostics, RunHealth};
use crate::report::TelemetrySummary;
use crate::serve::json::{self, Decode, Encode, Fields, Json, JsonWriter};

/// Shortest run time between two rolling saves of a [`CheckpointWriter`].
/// Each save is a durable write (encode, fsync, two renames), which costs
/// more than a whole hyper-sample of a small circuit.
const ROLLING_INTERVAL: Duration = Duration::from_secs(1);

/// Where the engine hands its checkpoints, and when it builds one.
/// Building one clones the committed prefix, summarises the telemetry and
/// seals the payload, so the engine asks [`CheckpointHook::due`] first.
pub(crate) enum CheckpointHook<'a> {
    /// A library caller's closure
    /// ([`RunOptions::save_with`](crate::RunOptions::save_with)): it sees
    /// every commit.
    EveryCommit(&'a mut dyn FnMut(&Checkpoint)),
    /// The CLI's and daemon's writer, with its rolling cadence.
    Writer(&'a CheckpointWriter<'a>),
}

impl<'a> CheckpointHook<'a> {
    /// The same hook for a shorter borrow (a `&mut` hook's lifetime only
    /// narrows by rebuilding it).
    pub(crate) fn narrow<'b>(self) -> CheckpointHook<'b>
    where
        'a: 'b,
    {
        match self {
            CheckpointHook::EveryCommit(save) => CheckpointHook::EveryCommit(save),
            CheckpointHook::Writer(writer) => CheckpointHook::Writer(writer),
        }
    }

    /// Whether to save the committed state now: after a commit
    /// (`last == false`), or as the run ends on any path with commits not
    /// yet saved (`last == true`).
    pub(crate) fn due(&self, last: bool) -> bool {
        match self {
            CheckpointHook::EveryCommit(_) => true,
            CheckpointHook::Writer(writer) => writer.due_at(last, Instant::now()),
        }
    }

    /// Takes a fresh, sealed checkpoint.
    pub(crate) fn save(&mut self, checkpoint: &Checkpoint) {
        match self {
            CheckpointHook::EveryCommit(save) => save(checkpoint),
            CheckpointHook::Writer(writer) => {
                writer.offer(checkpoint);
                writer.last_offer.set(Instant::now());
            }
        }
    }
}

/// Version of the checkpoint schema; bumped on incompatible change.
///
/// v2 added the `telemetry` block, v3 the content `checksum` and the
/// `fit_diagnostics` audit trail. v4 (0.26.0) dropped `hyper_estimators`,
/// since each hyper-sample's rung is in its diagnostics record: every key
/// the writer emits is required on read, and an unsealed record is
/// refused. [`Checkpoint::from_json`] checks the version first, so an
/// older record is refused by its version number.
pub const CHECKPOINT_VERSION: u32 = 4;

/// The estimator state after a completed hyper-sample: the engine's live
/// record of the committed run, and the file it resumes from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Fingerprint of the *effective* configuration (after the source's
    /// population size is folded in); resuming under a different
    /// configuration is refused.
    pub config_fingerprint: u64,
    /// The master seed the per-hyper-sample RNG streams derive from.
    pub master_seed: u64,
    /// Completed hyper-sample estimates (mW).
    pub hyper_estimates: Vec<f64>,
    /// Per-hyper-sample estimator audit records (parallel to
    /// `hyper_estimates`): the rung that produced each estimate, why, and
    /// how well the fit matched.
    pub fit_diagnostics: Vec<FitDiagnostics>,
    /// Convergence history, one row per completed hyper-sample.
    pub history: Vec<EstimateHistoryEntry>,
    /// Units consumed so far.
    pub units_used: usize,
    /// Largest reading observed so far (mW); `None` encodes "none yet".
    pub observed_max_mw: Option<f64>,
    /// Aggregated fault counters so far.
    pub health: RunHealth,
    /// Cumulative telemetry (phase durations, work counters) across all
    /// run segments so far; absent when the run had telemetry disabled.
    pub telemetry: Option<TelemetrySummary>,
    /// Content checksum over every other field (FNV-1a of the canonical
    /// rendering), sealed at save time; a record without one is refused.
    /// The engine's live record does not keep it current: each save seals
    /// a copy.
    pub checksum: Option<u64>,
}

impl Checkpoint {
    /// Completed hyper-samples in this checkpoint.
    pub fn hyper_samples(&self) -> usize {
        self.hyper_estimates.len()
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        json::to_string_pretty(self)
    }

    /// Parses a checkpoint from JSON and validates its version, then its
    /// content checksum.
    ///
    /// # Errors
    ///
    /// [`MaxPowerError::CheckpointMismatch`] on malformed input, another
    /// schema version, or a record that is unsealed or whose payload no
    /// longer matches its checksum (disk corruption, manual edits).
    pub fn from_json(s: &str) -> Result<Checkpoint, MaxPowerError> {
        let malformed = |e: String| MaxPowerError::CheckpointMismatch {
            message: format!("malformed checkpoint JSON: {e}"),
        };
        let value = json::parse(s).map_err(malformed)?;
        check_version(
            Fields::of(&value)
                .and_then(|f| f.req("version"))
                .map_err(malformed)?,
        )?;
        let cp = Checkpoint::decode(&value).map_err(malformed)?;
        cp.check_integrity()?;
        Ok(cp)
    }

    /// The content checksum over every field except `checksum` itself:
    /// FNV-1a of a canonical textual rendering, so it is independent of
    /// the serialization format (and of JSON field order / whitespace).
    fn payload_checksum(&self) -> u64 {
        let canonical = format!(
            "{}|{}|{}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}",
            self.version,
            self.config_fingerprint,
            self.master_seed,
            self.hyper_estimates,
            self.fit_diagnostics,
            self.history,
            self.units_used,
            self.observed_max_mw,
            self.health,
            self.telemetry,
        );
        fnv1a(canonical.bytes())
    }

    /// Stamps the content checksum. Called by the engine on every
    /// checkpoint it emits; call it after any manual mutation.
    pub fn seal(&mut self) {
        self.checksum = Some(self.payload_checksum());
    }

    /// Validates the content checksum.
    ///
    /// # Errors
    ///
    /// [`MaxPowerError::CheckpointMismatch`] when the record is unsealed or
    /// its payload does not match the sealed checksum.
    fn check_integrity(&self) -> Result<(), MaxPowerError> {
        match self.checksum {
            None => Err(MaxPowerError::CheckpointMismatch {
                message: "unsealed checkpoint: it carries no content checksum".to_string(),
            }),
            Some(stored) if stored != self.payload_checksum() => {
                Err(MaxPowerError::CheckpointMismatch {
                    message: format!(
                        "content checksum mismatch: stored {stored:#018x}, computed {:#018x} \
                         (checkpoint corrupted on disk or edited by hand)",
                        self.payload_checksum()
                    ),
                })
            }
            _ => Ok(()),
        }
    }

    /// Checks that this checkpoint can resume a run with the given
    /// effective-config fingerprint and master seed, and that it is
    /// internally consistent.
    ///
    /// # Errors
    ///
    /// [`MaxPowerError::CheckpointMismatch`] naming the first violation.
    pub fn verify(&self, config_fingerprint: u64, master_seed: u64) -> Result<(), MaxPowerError> {
        let fail = |message: String| Err(MaxPowerError::CheckpointMismatch { message });
        check_version(self.version)?;
        if self.config_fingerprint != config_fingerprint {
            return fail(format!(
                "config fingerprint {:#018x} != current {:#018x} \
                 (the run was checkpointed under a different configuration)",
                self.config_fingerprint, config_fingerprint
            ));
        }
        if self.master_seed != master_seed {
            return fail(format!(
                "master seed {} != requested {master_seed} \
                 (resuming under a different seed would break determinism)",
                self.master_seed
            ));
        }
        let k = self.hyper_estimates.len();
        if self.fit_diagnostics.len() != k || self.history.len() != k {
            return fail(format!(
                "inconsistent lengths: {k} estimates, {} fit diagnostics, {} history rows",
                self.fit_diagnostics.len(),
                self.history.len()
            ));
        }
        if self.hyper_estimates.iter().any(|e| !e.is_finite()) {
            return fail("non-finite hyper-sample estimate".to_string());
        }
        self.check_integrity()?;
        Ok(())
    }
}

/// Refuses a checkpoint of another schema version.
fn check_version(version: u32) -> Result<(), MaxPowerError> {
    if version == CHECKPOINT_VERSION {
        return Ok(());
    }
    Err(MaxPowerError::CheckpointMismatch {
        message: format!(
            "checkpoint version {version} != supported {CHECKPOINT_VERSION} \
             (written by another release; the run starts over)"
        ),
    })
}

/// An infinite relative half-width is written as `null` (as every
/// non-finite float is) and reads back as infinity.
impl Encode for EstimateHistoryEntry {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("k", &self.k);
        w.field("mean_mw", &self.mean_mw);
        w.field("relative_half_width", &self.relative_half_width);
        w.field("units_used", &self.units_used);
        w.end_object();
    }
}

impl Decode for EstimateHistoryEntry {
    fn decode(value: &Json) -> Result<Self, String> {
        let f = Fields::of(value)?;
        Ok(EstimateHistoryEntry {
            k: f.req("k")?,
            mean_mw: f.req("mean_mw")?,
            relative_half_width: f
                .req::<Option<f64>>("relative_half_width")?
                .unwrap_or(f64::INFINITY),
            units_used: f.req("units_used")?,
        })
    }
}

impl Encode for Checkpoint {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("version", &self.version);
        w.field("config_fingerprint", &self.config_fingerprint);
        w.field("master_seed", &self.master_seed);
        w.field("hyper_estimates", &self.hyper_estimates);
        w.field("fit_diagnostics", &self.fit_diagnostics);
        w.field("history", &self.history);
        w.field("units_used", &self.units_used);
        w.field("observed_max_mw", &self.observed_max_mw);
        w.field("health", &self.health);
        w.field("telemetry", &self.telemetry);
        w.field("checksum", &self.checksum);
        w.end_object();
    }
}

/// Every key the writer emits is required.
impl Decode for Checkpoint {
    fn decode(value: &Json) -> Result<Self, String> {
        let f = Fields::of(value)?;
        Ok(Checkpoint {
            version: f.req("version")?,
            config_fingerprint: f.req("config_fingerprint")?,
            master_seed: f.req("master_seed")?,
            hyper_estimates: f.req("hyper_estimates")?,
            fit_diagnostics: f.req("fit_diagnostics")?,
            history: f.req("history")?,
            units_used: f.req("units_used")?,
            observed_max_mw: f.req("observed_max_mw")?,
            health: f.req("health")?,
            telemetry: f.req("telemetry")?,
            checksum: f.req("checksum")?,
        })
    }
}

/// FNV-1a over a byte stream (the shared primitive behind
/// [`config_fingerprint`], [`Checkpoint::payload_checksum`] and the
/// daemon's key for inline netlists): cheap and dependency-free.
pub(crate) fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a fingerprint of a configuration's canonical (`Debug`) rendering.
/// Stable for a given build of the library; any field change — including
/// policy or budget changes that alter the draw sequence — changes it.
pub fn config_fingerprint(config: &EstimationConfig) -> u64 {
    fnv1a(format!("{config:?}").bytes())
}

/// Where [`load_with_recovery`] found a usable checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointSource {
    /// The primary path held a valid record.
    Primary,
    /// The primary was missing, torn or corrupt; the `.bak` rotation was
    /// used instead.
    Backup,
}

/// The `.bak` rotation path for a checkpoint path.
pub fn backup_path(path: &str) -> String {
    format!("{path}.bak")
}

/// Writes `contents` to `path` crash-safely: temp file in the same
/// directory → `write_all` → `fsync` → rotate any existing `path` to
/// [`backup_path`] → rename the temp over `path`. A crash at any point
/// leaves either the old complete file (at `path` or its `.bak`) or the
/// new complete file — never a torn mix under `path`.
///
/// # Errors
///
/// Any I/O error from the underlying filesystem operations.
pub fn save_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
    }
    if std::fs::metadata(path).is_ok() {
        std::fs::rename(path, backup_path(path))?;
    }
    std::fs::rename(&tmp, path)
}

/// A latest-wins checkpoint writer on its own scoped thread.
///
/// A synchronous [`save_atomic`] (encode, write, fsync, two renames) on
/// the committing thread would make the run wait on the disk.
/// [`CheckpointWriter::offer`] instead replaces a single pending slot and
/// returns at once; the writer thread encodes and saves only the newest
/// pending checkpoint, so a burst of offers coalesces into one write.
/// Every file it writes still goes through [`save_atomic`], so the path
/// always holds a complete, sealed checkpoint, never a torn or
/// out-of-order one.
///
/// As the engine's hook, the writer asks for a rolling checkpoint at most
/// once per second of run time (the first commit a second or more after
/// the previous save, or after the writer started) and for the final
/// state of the run, so after a crash the file is about a second plus one
/// commit behind. The daemon's writer skips the final state: a served job
/// that finishes is recovered from its terminal record, never from its
/// checkpoint.
///
/// Dropping the writer without [`CheckpointWriter::finish`] still lets
/// the thread save the last offer and stop, so the enclosing
/// [`std::thread::scope`] always joins it.
pub struct CheckpointWriter<'scope> {
    slot: Arc<WriterSlot>,
    thread: Option<ScopedJoinHandle<'scope, std::io::Result<()>>>,
    /// When the engine last saved through it (or the writer started).
    last_offer: Cell<Instant>,
    /// Whether the run's final state is saved.
    save_last: bool,
}

#[derive(Default)]
struct WriterSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Default)]
struct SlotState {
    pending: Option<Checkpoint>,
    closed: bool,
}

impl WriterSlot {
    /// Every update of the slot is a single assignment, so the state is
    /// valid even after a panic elsewhere poisoned the mutex.
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_one();
    }

    /// The writer thread: saves the newest pending checkpoint until the
    /// slot is closed and empty. Keeps writing after a failed save (a
    /// later one may succeed) and returns the first error.
    fn drain(&self, path: &str) -> std::io::Result<()> {
        let mut first_error = None;
        loop {
            let checkpoint = {
                let mut st = self.lock();
                loop {
                    if let Some(cp) = st.pending.take() {
                        break cp;
                    }
                    if st.closed {
                        return first_error.map_or(Ok(()), Err);
                    }
                    st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            if let Err(e) = save_atomic(path, &checkpoint.to_json()) {
                first_error.get_or_insert(e);
            }
        }
    }
}

impl<'scope> CheckpointWriter<'scope> {
    /// Starts the writer thread for `path` inside `scope`.
    ///
    /// # Panics
    ///
    /// When the operating system cannot spawn a thread.
    pub fn spawn(scope: &'scope Scope<'scope, '_>, path: &'scope str) -> Self {
        let slot = Arc::new(WriterSlot::default());
        let thread = {
            let slot = Arc::clone(&slot);
            std::thread::Builder::new()
                .name("mpe-checkpoint".to_string())
                .spawn_scoped(scope, move || slot.drain(path))
                .expect("spawn checkpoint writer thread")
        };
        CheckpointWriter {
            slot,
            thread: Some(thread),
            last_offer: Cell::new(Instant::now()),
            save_last: true,
        }
    }

    /// Leaves the run's final state unsaved: for a daemon job, whose
    /// terminal record replaces it.
    pub(crate) fn without_final(mut self) -> Self {
        self.save_last = false;
        self
    }

    /// [`CheckpointHook::due`] at time `now`.
    fn due_at(&self, last: bool, now: Instant) -> bool {
        if last {
            self.save_last
        } else {
            now.saturating_duration_since(self.last_offer.get()) >= ROLLING_INTERVAL
        }
    }

    /// Makes `checkpoint` the next one to save, replacing any older
    /// checkpoint still waiting. Never waits on I/O.
    pub fn offer(&self, checkpoint: &Checkpoint) {
        let newer = checkpoint.clone();
        self.slot.lock().pending = Some(newer);
        self.slot.ready.notify_one();
    }

    /// Saves the last offered checkpoint, stops the writer thread and
    /// returns the first I/O error any save met.
    ///
    /// # Errors
    ///
    /// The first error from [`save_atomic`] on any offered checkpoint.
    ///
    /// # Panics
    ///
    /// When the writer thread panicked.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.slot.close();
        self.thread
            .take()
            .expect("writer thread is joined only here")
            .join()
            .expect("checkpoint writer thread panicked")
    }
}

impl Drop for CheckpointWriter<'_> {
    fn drop(&mut self) {
        self.slot.close();
    }
}

/// Loads the most recent usable checkpoint from `path`, falling back to
/// its `.bak` rotation when the primary is missing or fails `parse`
/// (torn write, disk corruption, checksum mismatch).
///
/// Generic over the parse step so callers can layer their own validation;
/// the engine passes [`Checkpoint::from_json`].
///
/// Returns `Ok(None)` when neither file exists (a fresh run), and
/// `Ok(Some((value, source)))` naming which file was used otherwise.
///
/// # Errors
///
/// When the primary is unreadable/corrupt *and* the backup cannot rescue
/// it, the **primary's** error is propagated (it names the configured
/// path, which is what the operator needs to inspect).
pub fn load_with_recovery<T>(
    path: &str,
    mut parse: impl FnMut(&str) -> Result<T, MaxPowerError>,
) -> Result<Option<(T, CheckpointSource)>, MaxPowerError> {
    let read = |p: &str| -> Result<Option<String>, MaxPowerError> {
        match std::fs::read_to_string(p) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(MaxPowerError::CheckpointMismatch {
                message: format!("cannot read checkpoint `{p}`: {e}"),
            }),
        }
    };
    let backup = backup_path(path);
    match read(path)? {
        Some(text) => match parse(&text) {
            Ok(value) => Ok(Some((value, CheckpointSource::Primary))),
            Err(primary_err) => match read(&backup)? {
                Some(backup_text) => match parse(&backup_text) {
                    Ok(value) => Ok(Some((value, CheckpointSource::Backup))),
                    Err(_) => Err(primary_err),
                },
                None => Err(primary_err),
            },
        },
        None => match read(&backup)? {
            Some(backup_text) => {
                parse(&backup_text).map(|value| Some((value, CheckpointSource::Backup)))
            }
            None => Ok(None),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::health::{EstimatorKind, FitReasonCode};

    /// A sealed two-hyper-sample checkpoint.
    fn sample_checkpoint() -> Checkpoint {
        let mut cp = Checkpoint {
            version: CHECKPOINT_VERSION,
            config_fingerprint: 42,
            master_seed: 7,
            hyper_estimates: vec![10.1, 10.3],
            fit_diagnostics: vec![
                FitDiagnostics {
                    rung: EstimatorKind::Mle,
                    reason: FitReasonCode::Converged,
                    log_likelihood: Some(-1.25),
                    ks_distance: Some(0.08),
                    tail_shape: Some(3.1),
                },
                FitDiagnostics {
                    rung: EstimatorKind::Quantile,
                    reason: FitReasonCode::NoConvergence,
                    log_likelihood: None,
                    ks_distance: None,
                    tail_shape: None,
                },
            ],
            history: vec![
                EstimateHistoryEntry {
                    k: 1,
                    mean_mw: 10.1,
                    relative_half_width: f64::INFINITY,
                    units_used: 300,
                },
                EstimateHistoryEntry {
                    k: 2,
                    mean_mw: 10.2,
                    relative_half_width: 0.06,
                    units_used: 600,
                },
            ],
            units_used: 600,
            observed_max_mw: Some(9.9),
            health: RunHealth::default(),
            telemetry: None,
            checksum: None,
        };
        cp.seal();
        cp
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let cp = sample_checkpoint();
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(cp, back);
    }

    #[test]
    fn malformed_json_is_a_mismatch() {
        assert!(matches!(
            Checkpoint::from_json("{not json"),
            Err(MaxPowerError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn verify_accepts_matching_state() {
        let cp = sample_checkpoint();
        assert!(cp.verify(42, 7).is_ok());
    }

    #[test]
    fn verify_rejects_mismatches() {
        let cp = sample_checkpoint();
        assert!(cp.verify(43, 7).is_err());
        assert!(cp.verify(42, 8).is_err());
        let mut bad = sample_checkpoint();
        bad.version = CHECKPOINT_VERSION + 1;
        assert!(bad.verify(42, 7).is_err());
        let mut bad = sample_checkpoint();
        bad.history.pop();
        bad.seal();
        assert!(bad.verify(42, 7).is_err());
        let mut bad = sample_checkpoint();
        bad.hyper_estimates[0] = f64::NAN;
        assert!(bad.verify(42, 7).is_err());
    }

    #[test]
    fn history_entries_roundtrip_infinities() {
        let live = EstimateHistoryEntry {
            k: 1,
            mean_mw: 5.0,
            relative_half_width: f64::INFINITY,
            units_used: 300,
        };
        let stored = json::to_string(&live);
        assert!(stored.contains("\"relative_half_width\":null"), "{stored}");
        let restored: EstimateHistoryEntry = json::from_str(&stored).expect("parses");
        assert_eq!(restored, live);
        let missing = stored.replace("\"relative_half_width\":null,", "");
        assert!(json::from_str::<EstimateHistoryEntry>(&missing).is_err());
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = EstimationConfig::default();
        let mut b = a;
        b.relative_error = 0.01;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a));
    }

    #[test]
    fn fingerprint_is_pinned() {
        // A checkpoint resumes only under the fingerprint it was written
        // with, so any change to these values makes every saved checkpoint
        // unresumable: change them only alongside a release note saying so.
        assert_eq!(
            config_fingerprint(&EstimationConfig::default()),
            0x97ba_ba99_d547_2cef
        );
        let deployment =
            EstimationConfig::for_deployment(0.05, 0.90, None, crate::config::SamplePolicy::Fail);
        assert_eq!(config_fingerprint(&deployment), 0x31cc_665e_731f_8d84);
    }

    #[test]
    fn seal_and_checksum_detect_payload_tampering() {
        let cp = sample_checkpoint();
        assert!(cp.checksum.is_some());
        assert!(cp.check_integrity().is_ok());
        assert!(cp.verify(42, 7).is_ok());

        // Any payload mutation after sealing is caught...
        let mut tampered = cp.clone();
        tampered.units_used += 1;
        assert!(matches!(
            tampered.check_integrity(),
            Err(MaxPowerError::CheckpointMismatch { .. })
        ));
        assert!(tampered.verify(42, 7).is_err());

        // ...including float-level bit flips in the estimates.
        let mut flipped = cp.clone();
        flipped.hyper_estimates[0] = f64::from_bits(flipped.hyper_estimates[0].to_bits() ^ 1);
        assert!(flipped.check_integrity().is_err());

        // Re-sealing after a mutation restores integrity.
        tampered.seal();
        assert!(tampered.check_integrity().is_ok());
    }

    #[test]
    fn unsealed_records_and_short_diagnostics_are_refused() {
        let mut unsealed = sample_checkpoint();
        unsealed.checksum = None;
        let err = unsealed.verify(42, 7).expect_err("unsealed").to_string();
        assert!(err.contains("unsealed"), "{err}");
        assert!(Checkpoint::from_json(&unsealed.to_json()).is_err());

        // A diagnostics trail shorter than the estimates is a mismatch,
        // however it is sealed.
        let mut short = sample_checkpoint();
        short.fit_diagnostics.pop();
        short.seal();
        let err = short.verify(42, 7).expect_err("short trail").to_string();
        assert!(err.contains("1 fit diagnostics"), "{err}");
    }

    #[test]
    fn checksum_is_format_independent_but_payload_sensitive() {
        let mut a = sample_checkpoint();
        let mut b = sample_checkpoint();
        assert_eq!(a.payload_checksum(), b.payload_checksum());
        // The checksum field itself is excluded from the digest.
        a.checksum = None;
        assert_eq!(a.payload_checksum(), b.payload_checksum());
        b.master_seed ^= 1;
        assert_ne!(a.payload_checksum(), b.payload_checksum());
    }

    /// Unique scratch path for filesystem tests (no tempfile dep).
    fn scratch(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("mpe-checkpoint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    /// Parse step used by the recovery tests: accepts strings starting
    /// with "good", rejects everything else — a stand-in for checksum
    /// validation that keeps the tests about file rotation only.
    fn parse_good(s: &str) -> Result<String, MaxPowerError> {
        if s.starts_with("good") {
            Ok(s.to_string())
        } else {
            Err(MaxPowerError::CheckpointMismatch {
                message: format!("not a good checkpoint: {s:?}"),
            })
        }
    }

    #[test]
    fn load_with_recovery_missing_files_is_a_fresh_run() {
        let path = scratch("never-written.json");
        let loaded = load_with_recovery(&path, parse_good).expect("no files is not an error");
        assert!(loaded.is_none());
    }

    #[test]
    fn save_atomic_rotates_backup_and_survives_torn_primary() {
        let path = scratch("torn-primary.json");
        save_atomic(&path, "good-generation-1").expect("first save");
        save_atomic(&path, "good-generation-2").expect("second save");
        // Second save rotated the first generation into the backup.
        assert_eq!(
            std::fs::read_to_string(backup_path(&path)).expect("backup exists"),
            "good-generation-1"
        );
        let (value, source) = load_with_recovery(&path, parse_good)
            .expect("load")
            .expect("present");
        assert_eq!(
            (value.as_str(), source),
            ("good-generation-2", CheckpointSource::Primary)
        );

        // Tear the primary (as a crash mid-write outside save_atomic, or
        // disk corruption, would): recovery falls back to the backup.
        std::fs::write(&path, "go").expect("truncate primary");
        let (value, source) = load_with_recovery(&path, parse_good)
            .expect("recovered")
            .expect("present");
        assert_eq!(
            (value.as_str(), source),
            ("good-generation-1", CheckpointSource::Backup)
        );

        // Primary gone entirely → still recovered from backup.
        std::fs::remove_file(&path).expect("remove primary");
        let (value, source) = load_with_recovery(&path, parse_good)
            .expect("recovered")
            .expect("present");
        assert_eq!(
            (value.as_str(), source),
            ("good-generation-1", CheckpointSource::Backup)
        );
    }

    #[test]
    fn load_with_recovery_propagates_primary_error_when_backup_is_bad_too() {
        let path = scratch("both-corrupt.json");
        std::fs::write(&path, "corrupt primary").expect("write primary");
        std::fs::write(backup_path(&path), "corrupt backup").expect("write backup");
        let err = load_with_recovery(&path, parse_good).expect_err("both corrupt");
        // The error is the primary's, naming its contents.
        assert!(err.to_string().contains("corrupt primary"));
    }

    /// The sealed sample checkpoint, stamped with generation `units`.
    fn generation(units: usize) -> Checkpoint {
        let mut cp = sample_checkpoint();
        cp.units_used = units;
        cp.seal();
        cp
    }

    #[test]
    fn checkpoint_writer_never_moves_the_file_backwards() {
        let path = scratch("writer-burst.json");
        for stale in [path.clone(), backup_path(&path)] {
            let _ = std::fs::remove_file(stale);
        }
        let last = 200;
        let done = std::sync::atomic::AtomicBool::new(false);
        let newest_read = std::thread::scope(|scope| {
            // Reads the file throughout the burst: every read must be a
            // complete, sealed checkpoint no older than the previous one.
            let reader = scope.spawn(|| {
                let mut newest = 0;
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    let Ok(text) = std::fs::read_to_string(&path) else {
                        continue;
                    };
                    let cp = Checkpoint::from_json(&text).expect("complete, sealed checkpoint");
                    assert!(
                        cp.units_used >= newest,
                        "generation {} on disk after {newest}",
                        cp.units_used
                    );
                    newest = cp.units_used;
                }
                newest
            });
            let writer = CheckpointWriter::spawn(scope, &path);
            for units in 1..=last {
                writer.offer(&generation(units));
            }
            writer.finish().expect("every save succeeds");
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            reader.join().expect("reader thread")
        });
        assert!(newest_read <= last);

        // finish() flushed the last offer.
        let on_disk =
            Checkpoint::from_json(&std::fs::read_to_string(&path).expect("saved")).expect("parses");
        assert!(on_disk.check_integrity().is_ok());
        assert_eq!(on_disk, generation(last));
    }

    #[test]
    fn writer_asks_for_a_rolling_save_at_most_once_a_second() {
        let path = scratch("cadence.json");
        let _ = std::fs::remove_file(&path);
        std::thread::scope(|scope| {
            let writer = CheckpointWriter::spawn(scope, &path);
            let started = writer.last_offer.get();
            let just_before = started + ROLLING_INTERVAL - Duration::from_millis(1);
            assert!(!writer.due_at(false, started));
            assert!(
                !writer.due_at(false, just_before),
                "no save before the interval"
            );
            assert!(writer.due_at(false, started + ROLLING_INTERVAL));
            // A save restarts the interval.
            CheckpointHook::Writer(&writer).save(&generation(1));
            let saved = writer.last_offer.get();
            assert!(saved >= started);
            assert!(!writer.due_at(false, saved));
            assert!(writer.due_at(false, saved + ROLLING_INTERVAL));
            writer.finish().expect("the save succeeds");
        });
        let on_disk =
            Checkpoint::from_json(&std::fs::read_to_string(&path).expect("saved")).expect("parses");
        assert_eq!(on_disk, generation(1));
    }

    #[test]
    fn writer_saves_the_final_state_unless_built_without_it() {
        let path = scratch("final.json");
        std::thread::scope(|scope| {
            let cli = CheckpointWriter::spawn(scope, &path);
            let now = cli.last_offer.get();
            assert!(cli.due_at(true, now), "the CLI saves the final state");
            let daemon = cli.without_final();
            assert!(!daemon.due_at(true, now), "the daemon does not");
            assert!(!daemon.due_at(true, now + 2 * ROLLING_INTERVAL));
            assert!(daemon.due_at(false, now + ROLLING_INTERVAL));
            daemon.finish().expect("nothing to save");
        });
    }

    #[test]
    fn library_hooks_see_every_commit() {
        let mut seen = 0usize;
        let mut count = |_: &Checkpoint| seen += 1;
        let mut hook = CheckpointHook::EveryCommit(&mut count);
        assert!(hook.due(false) && hook.due(true));
        hook.save(&generation(1));
        assert_eq!(seen, 1);
    }

    #[test]
    fn checkpoint_writer_reports_the_first_save_error() {
        let path = scratch("no-such-dir/writer.json");
        let result = std::thread::scope(|scope| {
            let writer = CheckpointWriter::spawn(scope, &path);
            writer.offer(&generation(1));
            writer.offer(&generation(2));
            writer.finish()
        });
        let err = result.expect_err("a missing directory cannot be written");
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn bit_flipped_checkpoint_json_is_rejected_and_recovered() {
        // Full-stack version of the recovery story: a sealed checkpoint
        // saved twice, primary corrupted by a single flipped digit,
        // resume falls back to the backup generation.
        let cp = sample_checkpoint();
        let path = scratch("bit-flip.json");
        let mut older = cp.clone();
        older.units_used = 300;
        older.seal();
        save_atomic(&path, &older.to_json()).expect("save older");
        save_atomic(&path, &cp.to_json()).expect("save newer");

        // Flip one digit of the units ledger in the primary file.
        let text = std::fs::read_to_string(&path).expect("read primary");
        let corrupted = text.replacen("600", "601", 1);
        assert_ne!(text, corrupted, "expected the payload to contain 600");
        std::fs::write(&path, corrupted).expect("corrupt primary");

        let (recovered, source) = load_with_recovery(&path, Checkpoint::from_json)
            .expect("recovered")
            .expect("present");
        assert_eq!(source, CheckpointSource::Backup);
        assert_eq!(recovered, older);
    }
}
