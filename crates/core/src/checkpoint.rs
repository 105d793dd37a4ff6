//! Checkpoint/resume for long estimation runs.
//!
//! A gate-level run can spend hours inside the simulator; losing the whole
//! run to a crash at hyper-sample 180 of 200 is unacceptable in a CI or
//! overnight setting. A [`Checkpoint`] serializes the *estimator* state —
//! the accumulated hyper-sample estimates, their provenance, the
//! convergence history, the unit ledger and the [`RunHealth`] counters —
//! after every hyper-sample, so a killed run resumes from the last
//! completed iteration instead of from scratch.
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
//! Non-finite values (`±∞` relative half-widths before `k = 2`, the
//! `-∞` initial observed maximum) cannot survive a JSON round-trip, so the
//! serialized form stores them as `None` and the engine restores the
//! sentinels on load.
//!
//! ## Crash safety
//!
//! Checkpoints exist precisely because processes die, so the writer must
//! survive dying mid-write itself. [`save_atomic`] implements
//! write-to-temp → fsync → rotate-previous-to-`.bak` → rename, so the
//! checkpoint path always holds either the previous complete checkpoint
//! or the new complete checkpoint, never a torn mix. Every checkpoint
//! carries a content checksum (sealed at save time);
//! [`Checkpoint::from_json`] rejects records whose payload no longer
//! matches it, and [`load_with_recovery`] falls back to the `.bak`
//! rotation when the primary is missing, torn or corrupt.
//! [`CheckpointWriter`] moves those saves off the committing thread and
//! coalesces them, latest wins: a crash may cost a few commits of
//! progress, never a torn or out-of-order file.

use std::io::Write;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};

use crate::config::EstimationConfig;
use crate::error::MaxPowerError;
use crate::estimator::EstimateHistoryEntry;
use crate::health::{EstimatorKind, FitDiagnostics, RunHealth};
use crate::report::TelemetrySummary;
use crate::serve::json::{self, Decode, Encode, Fields, Json, JsonWriter};

/// Version of the checkpoint schema; bumped on incompatible change.
///
/// v2 added the optional `telemetry` block (cumulative per-phase durations
/// and work counters), so a resumed run's telemetry reflects total work
/// across segments rather than just the final one. v3 added the content
/// `checksum` (and the run-supervision counters inside `health`): every
/// checkpoint written by this version is sealed, and resume rejects
/// records whose payload was corrupted on disk.
///
/// The per-hyper-sample `fit_diagnostics` audit trail is an *additive*
/// v3 extension: it defaults to empty on load (the engine pads missing
/// records with [`FitDiagnostics::unknown`]) and joins the sealed payload
/// only when present, so records written before the field existed still
/// verify.
pub const CHECKPOINT_VERSION: u32 = 3;

/// One serialized row of the convergence history.
///
/// `relative_half_width` is `None` where the live value is non-finite
/// (before `k = 2`, or under the zero-mean guard).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointHistoryEntry {
    /// Hyper-samples accumulated (`k`).
    pub k: usize,
    /// Running mean estimate (mW).
    pub mean_mw: f64,
    /// Relative half-width; `None` encodes "undefined/infinite".
    pub relative_half_width: Option<f64>,
    /// Cumulative units consumed.
    pub units_used: usize,
}

impl From<&EstimateHistoryEntry> for CheckpointHistoryEntry {
    fn from(e: &EstimateHistoryEntry) -> Self {
        CheckpointHistoryEntry {
            k: e.k,
            mean_mw: e.mean_mw,
            relative_half_width: e
                .relative_half_width
                .is_finite()
                .then_some(e.relative_half_width),
            units_used: e.units_used,
        }
    }
}

impl From<&CheckpointHistoryEntry> for EstimateHistoryEntry {
    fn from(e: &CheckpointHistoryEntry) -> Self {
        EstimateHistoryEntry {
            k: e.k,
            mean_mw: e.mean_mw,
            relative_half_width: e.relative_half_width.unwrap_or(f64::INFINITY),
            units_used: e.units_used,
        }
    }
}

/// Serialized estimator state after a completed hyper-sample.
#[derive(Debug, Clone, PartialEq)]
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
    /// Which estimator produced each hyper-sample.
    pub hyper_estimators: Vec<EstimatorKind>,
    /// Per-hyper-sample estimator audit records (parallel to
    /// `hyper_estimates`). Empty in records written before the audit trail
    /// existed; the engine pads with [`FitDiagnostics::unknown`] on resume.
    pub fit_diagnostics: Vec<FitDiagnostics>,
    /// Convergence history, one row per completed hyper-sample.
    pub history: Vec<CheckpointHistoryEntry>,
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
    /// rendering). Sealed at
    /// save time; `None` marks a hand-built or legacy record, which is
    /// accepted unchecked.
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

    /// Parses a checkpoint from JSON and validates its content checksum.
    ///
    /// # Errors
    ///
    /// [`MaxPowerError::CheckpointMismatch`] on malformed input or when a
    /// sealed record's payload no longer matches its checksum (disk
    /// corruption, manual edits).
    pub fn from_json(s: &str) -> Result<Checkpoint, MaxPowerError> {
        let cp: Checkpoint = json::from_str(s).map_err(|e| MaxPowerError::CheckpointMismatch {
            message: format!("malformed checkpoint JSON: {e}"),
        })?;
        cp.check_integrity()?;
        Ok(cp)
    }

    /// The content checksum over every field except `checksum` itself:
    /// FNV-1a of a canonical textual rendering, so it is independent of
    /// the serialization format (and of JSON field order / whitespace).
    fn payload_checksum(&self) -> u64 {
        let mut canonical = format!(
            "{}|{}|{}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}",
            self.version,
            self.config_fingerprint,
            self.master_seed,
            self.hyper_estimates,
            self.hyper_estimators,
            self.history,
            self.units_used,
            self.observed_max_mw,
            self.health,
            self.telemetry,
        );
        // The audit trail joins the sealed payload only when present, so
        // checkpoints sealed before the field existed (which deserialize
        // with an empty vec) still match their stored checksum.
        if !self.fit_diagnostics.is_empty() {
            canonical.push_str(&format!("|{:?}", self.fit_diagnostics));
        }
        fnv1a(canonical.bytes())
    }

    /// Stamps the content checksum. Called by the engine on every
    /// checkpoint it emits; call it after any manual mutation.
    pub fn seal(&mut self) {
        self.checksum = Some(self.payload_checksum());
    }

    /// Validates the content checksum, if the record carries one.
    ///
    /// # Errors
    ///
    /// [`MaxPowerError::CheckpointMismatch`] when the payload does not
    /// match the sealed checksum.
    fn check_integrity(&self) -> Result<(), MaxPowerError> {
        match self.checksum {
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
        if self.version != CHECKPOINT_VERSION {
            return fail(format!(
                "checkpoint version {} != supported {CHECKPOINT_VERSION}",
                self.version
            ));
        }
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
        if self.hyper_estimators.len() != k || self.history.len() != k {
            return fail(format!(
                "inconsistent lengths: {k} estimates, {} estimators, {} history rows",
                self.hyper_estimators.len(),
                self.history.len()
            ));
        }
        // Empty means "written before the audit trail existed" (padded on
        // resume); any other length mismatch is corruption.
        if !self.fit_diagnostics.is_empty() && self.fit_diagnostics.len() != k {
            return fail(format!(
                "inconsistent lengths: {k} estimates, {} fit diagnostics",
                self.fit_diagnostics.len()
            ));
        }
        if self.hyper_estimates.iter().any(|e| !e.is_finite()) {
            return fail("non-finite hyper-sample estimate".to_string());
        }
        self.check_integrity()?;
        Ok(())
    }
}

impl Encode for CheckpointHistoryEntry {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("k", &self.k);
        w.field("mean_mw", &self.mean_mw);
        w.field("relative_half_width", &self.relative_half_width);
        w.field("units_used", &self.units_used);
        w.end_object();
    }
}

impl Decode for CheckpointHistoryEntry {
    fn decode(value: &Json) -> Result<Self, String> {
        let f = Fields::of(value)?;
        Ok(CheckpointHistoryEntry {
            k: f.req("k")?,
            mean_mw: f.req("mean_mw")?,
            relative_half_width: f.or("relative_half_width", None)?,
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
        w.field("hyper_estimators", &self.hyper_estimators);
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

/// Absent `fit_diagnostics` reads as empty, absent `telemetry` and
/// `checksum` as `None` (records written before those fields existed).
impl Decode for Checkpoint {
    fn decode(value: &Json) -> Result<Self, String> {
        let f = Fields::of(value)?;
        Ok(Checkpoint {
            version: f.req("version")?,
            config_fingerprint: f.req("config_fingerprint")?,
            master_seed: f.req("master_seed")?,
            hyper_estimates: f.req("hyper_estimates")?,
            hyper_estimators: f.req("hyper_estimators")?,
            fit_diagnostics: f.or("fit_diagnostics", Vec::new())?,
            history: f.req("history")?,
            units_used: f.req("units_used")?,
            observed_max_mw: f.or("observed_max_mw", None)?,
            health: f.req("health")?,
            telemetry: f.or("telemetry", None)?,
            checksum: f.or("checksum", None)?,
        })
    }
}

/// FNV-1a over a byte stream (the shared primitive behind
/// [`config_fingerprint`] and [`Checkpoint::payload_checksum`]).
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
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
/// The engine emits a checkpoint after every committed hyper-sample, and
/// a synchronous [`save_atomic`] (encode, write, fsync, two renames) on
/// the committing thread would make the run wait on the disk every time.
/// [`CheckpointWriter::offer`] instead replaces a single pending slot and
/// returns at once; the writer thread encodes and saves only the newest
/// pending checkpoint, so a burst of commits coalesces into one write.
/// Every file it writes still goes through [`save_atomic`], so the path
/// always holds a complete, sealed checkpoint: after a crash it may be a
/// few commits behind the run, never torn or out of order.
///
/// Dropping the writer without [`CheckpointWriter::finish`] still lets
/// the thread save the last offer and stop, so the enclosing
/// [`std::thread::scope`] always joins it.
pub struct CheckpointWriter<'scope> {
    slot: Arc<WriterSlot>,
    thread: Option<ScopedJoinHandle<'scope, std::io::Result<()>>>,
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

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            config_fingerprint: 42,
            master_seed: 7,
            hyper_estimates: vec![10.1, 10.3],
            hyper_estimators: vec![EstimatorKind::Mle, EstimatorKind::Mle],
            fit_diagnostics: vec![
                crate::health::FitDiagnostics {
                    rung: EstimatorKind::Mle,
                    reason: crate::health::FitReasonCode::Converged,
                    log_likelihood: Some(-1.25),
                    ks_distance: Some(0.08),
                    tail_shape: Some(3.1),
                },
                crate::health::FitDiagnostics::unknown(EstimatorKind::Mle),
            ],
            history: vec![
                CheckpointHistoryEntry {
                    k: 1,
                    mean_mw: 10.1,
                    relative_half_width: None,
                    units_used: 300,
                },
                CheckpointHistoryEntry {
                    k: 2,
                    mean_mw: 10.2,
                    relative_half_width: Some(0.06),
                    units_used: 600,
                },
            ],
            units_used: 600,
            observed_max_mw: Some(9.9),
            health: RunHealth::default(),
            telemetry: None,
            checksum: None,
        }
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
        bad.hyper_estimators.pop();
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
        let stored = CheckpointHistoryEntry::from(&live);
        assert_eq!(stored.relative_half_width, None);
        let restored = EstimateHistoryEntry::from(&stored);
        assert_eq!(restored.relative_half_width, f64::INFINITY);
        assert_eq!(restored.k, live.k);
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
    fn seal_and_checksum_detect_payload_tampering() {
        let mut cp = sample_checkpoint();
        cp.seal();
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

        // Unsealed (legacy/hand-built) records pass unchecked.
        let legacy = sample_checkpoint();
        assert_eq!(legacy.checksum, None);
        assert!(legacy.check_integrity().is_ok());

        // Re-sealing after a mutation restores integrity.
        tampered.seal();
        assert!(tampered.check_integrity().is_ok());
    }

    #[test]
    fn legacy_records_without_diagnostics_keep_their_checksum() {
        // A record sealed before the audit trail existed deserializes with
        // an empty `fit_diagnostics`; the checksum must be unchanged by
        // the field's introduction, and verify() must accept the record.
        let mut legacy = sample_checkpoint();
        legacy.fit_diagnostics.clear();
        legacy.seal();
        let sealed = legacy.checksum;
        assert!(legacy.check_integrity().is_ok());
        assert!(legacy.verify(42, 7).is_ok());
        // Adding diagnostics *does* change the payload...
        let full = sample_checkpoint();
        assert_ne!(sealed, Some(full.payload_checksum()));
        // ...and a partial trail (wrong length) is corruption.
        let mut bad = sample_checkpoint();
        bad.fit_diagnostics.pop();
        bad.seal();
        assert!(bad.verify(42, 7).is_err());
    }

    #[test]
    fn checksum_is_format_independent_but_payload_sensitive() {
        let mut a = sample_checkpoint();
        let mut b = sample_checkpoint();
        assert_eq!(a.payload_checksum(), b.payload_checksum());
        // The checksum field itself is excluded from the digest.
        a.seal();
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
        let mut cp = sample_checkpoint();
        cp.seal();
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
