//! # secreta-store
//!
//! A content-addressed, persistent store of anonymization runs, plus
//! the write-ahead event journal that makes SECRETA's experiment
//! sweeps resumable and observable.
//!
//! The paper's workflow is experiment-heavy: evaluating one method or
//! comparing several expands into a grid of (configuration × sweep
//! point × seed) runs, and typical sessions re-run most of that grid
//! with one knob changed. This crate gives those runs durable
//! identity:
//!
//! * [`key`] — cache-key derivation: a run is addressed by the SHA-256
//!   of its canonicalized configuration, session-input digest, seed,
//!   sweep point and schema version;
//! * [`manifest`] — the per-run record ([`RunManifest`]): indicators,
//!   phase timings and provenance, round-tripping byte-identically
//!   through JSON;
//! * [`store`] — the on-disk layout ([`RunStore`]): crash-atomic puts
//!   via staging + rename, listing, prefix resolution, gc;
//! * [`journal`] — the JSONL write-ahead journal ([`Journal`]): intent
//!   records written before a sweep runs (making `runs resume`
//!   possible after a crash) and per-job observability events;
//! * [`lease`] — crash-safe job leases ([`LeaseSet`]) for distributed
//!   sweeps: atomic claims, TTL-based stale reclaim, and epoch/token
//!   fencing that rejects a reclaimed worker's late writes;
//! * [`sha`] — a dependency-free SHA-256 and a digest [`io::Write`]
//!   sink ([`sha::DigestWriter`]) for hashing session inputs through
//!   the existing writers.
//!
//! The crate deliberately sits *below* the experimentation framework:
//! it depends only on `secreta-metrics` (for the anonymized-table and
//! indicator models) and `secreta-obsv` (for the run profile stored in
//! manifests) so any layer — core orchestrator, CLI, plotting — can
//! read stored runs without dragging in the algorithms.
//!
//! [`io::Write`]: std::io::Write

#![deny(missing_docs)]

pub mod journal;
pub mod key;
pub mod lease;
pub mod lock;
pub mod manifest;
mod procinfo;
pub mod retry;
pub mod sha;
pub mod store;

pub use journal::{
    find_sweep, read_events, read_events_checked, resumable_sweeps, unfinished_sweeps, Journal,
    JournalEvent, SweepRecord, TornTail,
};
pub use key::{canonical_json, canonicalize, run_key, RunKey, STORE_SCHEMA_VERSION};
pub use lease::{backoff_ms, fnv1a, mint_token, ClaimOutcome, LeaseGuard, LeaseRecord, LeaseSet};
pub use lock::{StoreLock, LOCK_FILE};
pub use manifest::RunManifest;
pub use retry::RetryPolicy;
pub use sha::{sha256_hex, DigestWriter, Sha256};
pub use store::{FsckReport, JobRecord, RunStore, StoreError, StoredRun};
