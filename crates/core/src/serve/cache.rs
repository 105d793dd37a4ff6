//! The shared circuit cache: parse + topological sort + CSR adjacency
//! packing happen once per distinct circuit, not once per job.
//!
//! Jobs reference circuits either by ISCAS85 profile name (deterministic
//! synthetic stand-in, keyed by `(name, generator seed)`) or by inline
//! `.bench` text (keyed by a content hash plus the subject name, since
//! the name flows into the report). Both map to an `Arc<Circuit>` that
//! concurrent runners share; `Circuit` is immutable after construction,
//! so no per-job copy is ever needed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mpe_netlist::{bench_format, generate, Circuit, Iscas85};

use crate::checkpoint::fnv1a;
use crate::error::AppError;

/// How a job names its circuit, normalised to a cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CircuitRef {
    /// A synthetic ISCAS85 stand-in: `generate(profile, gen_seed)`.
    Generated {
        /// Which profile.
        profile: Iscas85,
        /// Generator seed (the CLI's `--gen-seed`, default 7).
        gen_seed: u64,
    },
    /// Inline `.bench` netlist text.
    Bench {
        /// Subject name used in the report (the CLI uses the file stem).
        name: String,
        /// FNV-1a digest of the netlist text: plenty for a cache that also
        /// keys on the subject name (a collision costs a wrong cache hit
        /// on attacker-supplied text; this daemon trusts its submitters —
        /// see DESIGN §12).
        digest: u64,
    },
}

/// A concurrency-safe, grow-only map from [`CircuitRef`] to the packed
/// circuit, with hit/miss accounting for `/stats`.
///
/// Construction happens *outside* the lock — two racing misses may both
/// build, and the loser's work is discarded in favour of the first
/// insert, keeping every job for one key on the same `Arc`.
#[derive(Debug, Default)]
pub struct CircuitCache {
    entries: Mutex<HashMap<CircuitRef, Arc<Circuit>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CircuitCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> CircuitCache {
        CircuitCache::default()
    }

    /// Resolves a generated circuit through the cache.
    ///
    /// # Errors
    ///
    /// Generation failures surface as runtime-class [`AppError`]s.
    pub fn generated(&self, profile: Iscas85, gen_seed: u64) -> Result<Arc<Circuit>, AppError> {
        let key = CircuitRef::Generated { profile, gen_seed };
        self.get_or_build(key, || {
            generate(profile, gen_seed)
                .map_err(|e| AppError::runtime(format!("cannot generate circuit: {e}")))
        })
    }

    /// Resolves an inline `.bench` netlist through the cache.
    ///
    /// # Errors
    ///
    /// Parse failures surface as usage-class [`AppError`]s (the caller
    /// supplied the text).
    pub fn bench(&self, name: &str, text: &str) -> Result<Arc<Circuit>, AppError> {
        let key = CircuitRef::Bench {
            name: name.to_string(),
            digest: fnv1a(text.bytes()),
        };
        self.get_or_build(key, || {
            bench_format::parse(text, name)
                .map_err(|e| AppError::usage(format!("invalid bench netlist: {e}")))
        })
    }

    fn get_or_build(
        &self,
        key: CircuitRef,
        build: impl FnOnce() -> Result<Circuit, AppError>,
    ) -> Result<Arc<Circuit>, AppError> {
        if let Some(hit) = self
            .entries
            .lock()
            .expect("circuit cache poisoned")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build()?);
        let mut entries = self.entries.lock().expect("circuit cache poisoned");
        Ok(Arc::clone(entries.entry(key).or_insert_with(|| built)))
    }

    /// `(entries, hits, misses)` for the `/stats` endpoint.
    #[must_use]
    pub fn stats(&self) -> (usize, u64, u64) {
        let entries = self.entries.lock().expect("circuit cache poisoned").len();
        (
            entries,
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_circuits_are_shared_not_rebuilt() {
        let cache = CircuitCache::new();
        let a = cache.generated(Iscas85::C432, 7).expect("generates");
        let b = cache.generated(Iscas85::C432, 7).expect("second lookup");
        assert!(Arc::ptr_eq(&a, &b), "same key must share one circuit");
        let c = cache.generated(Iscas85::C432, 8).expect("other seed");
        assert!(!Arc::ptr_eq(&a, &c), "different seed is a different entry");
        let (entries, hits, misses) = cache.stats();
        assert_eq!((entries, hits, misses), (2, 1, 2));
    }

    #[test]
    fn bench_text_is_keyed_by_content_and_name() {
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
        let cache = CircuitCache::new();
        let a = cache.bench("tiny", text).expect("parses");
        let b = cache.bench("tiny", text).expect("hit");
        assert!(Arc::ptr_eq(&a, &b));
        // The same text under a different subject name is a distinct
        // entry: the name is part of the report.
        let c = cache.bench("other", text).expect("other name");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.name(), "other");
        // Parse errors are usage-class and are not cached.
        let err = cache.bench("bad", "y = FROB(a)\n").expect_err("rejects");
        assert_eq!(err.kind.http_status().0, 400);
    }
}
