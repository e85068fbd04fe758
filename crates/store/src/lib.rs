//! `ion-store` — content-addressed analysis store with salsa-style
//! incremental re-analysis and a batch serving front-end.
//!
//! ION's diagnosis is a pure function of `(trace, issue context,
//! parameters, model)`; this crate makes the pipeline stop paying for
//! work whose inputs did not change. Every pipeline artifact lives in a
//! content-addressed object store under one `--store` directory, and
//! every stage is memoized under a dependency key — a digest of that
//! stage's true inputs, in the spirit of salsa's dependency-keyed
//! memoization for compilers:
//!
//! * `trace/<digest>/meta/<table codec>-<schema fingerprint>` →
//!   per-module table digests + derived parameters (memoizes Darshan
//!   decode + extraction), with the table bytes in per-module
//!   `trace/<digest>/table/<module>/<version>` artifacts in the
//!   extractor's chunk codec, each digested by the hash of its bytes;
//! * `diag/<id>/<model>/<input fingerprint>` → one diagnosis (memoizes
//!   a model run), where the fingerprint folds the parameters, the
//!   per-module table digests the issue maps to, and the context's
//!   *statement* fingerprint (whitespace-inert);
//! * `memo/<id>/<trace digest>/<model>` → the analysis' recorded
//!   dependency set ([`memo::IssueMemo`]) — which knowledge statements
//!   it consulted, at which revisions;
//! * `summary/<digest of diagnosis texts + model>` → the global summary.
//!
//! Lookups run a red-green revalidation pass over the memo instead of
//! comparing one monolithic key: equal inputs are *green* (serve the
//! cached diagnosis without touching table bytes); a context edit that
//! leaves every consulted statement's revision unchanged — whitespace,
//! comments, templates of rules that never fired — is *backdated* (the
//! old diagnosis is rebound under the new fingerprint, still no model
//! run); only a dirty consulted input goes *red* and re-runs the model.
//! Re-analyzing an unchanged trace therefore performs zero extractions
//! and zero model runs; editing one knowledge statement re-runs exactly
//! the issues that consulted it.
//!
//! Layered storage: a byte-capped in-memory LRU ([`lru::ByteLru`]) over
//! atomic-rename on-disk objects and a versioned manifest ([`disk`]),
//! with singleflight deduplication ([`singleflight`]) so concurrent
//! identical requests — the batch front-end ([`batch`]) analyzing
//! duplicate traces, say — share one computation. All layers emit
//! `ion-obs` metrics (`store.hit` / `store.miss` / `store.evict` /
//! `store.recompute.*`) and spans, so cache behavior is provable from a
//! metrics snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod digest;
pub mod disk;
pub mod driver;
pub mod lru;
pub mod memo;
pub mod singleflight;
pub mod store;

pub use batch::{analyze_dir, analyze_dir_with, BatchReport};
pub use digest::{digest_bytes, Digest};
pub use driver::StoredPipeline;
pub use store::{GcReport, Store};

use std::fmt;

/// Errors from the store and its drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O operation failed.
    Io {
        /// What the store was doing.
        action: String,
        /// The path involved.
        path: String,
        /// The underlying error text.
        message: String,
    },
    /// On-disk state failed validation (bad framing, hash mismatch…).
    Corrupt(String),
    /// The manifest was written by an unsupported format version.
    Version {
        /// Version found on disk.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A pipeline stage failed (undecodable trace, empty batch…).
    Pipeline(String),
    /// A memoized computation failed (stringified through singleflight).
    Compute(String),
    /// The analysis was cancelled before completing (typed so callers can
    /// classify the terminal state without parsing message text).
    Cancelled,
    /// The analysis exceeded its execution deadline.
    Deadlined,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                action,
                path,
                message,
            } => write!(f, "cannot {action} {path}: {message}"),
            StoreError::Corrupt(msg) => write!(f, "store corruption: {msg}"),
            StoreError::Version { found, supported } => write!(
                f,
                "manifest version v{found} is newer than supported v{supported}"
            ),
            StoreError::Pipeline(msg) => f.write_str(msg),
            StoreError::Compute(msg) => f.write_str(msg),
            StoreError::Cancelled => f.write_str("analysis cancelled"),
            StoreError::Deadlined => f.write_str("analysis deadlined"),
        }
    }
}

impl std::error::Error for StoreError {}
