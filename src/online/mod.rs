//! Online adaptive learning: the subsystem that turns `hdface serve`
//! from a static inference server into a continually-learning one.
//!
//! The paper's central learning property — adaptive single-pass
//! updates that keep absorbing new samples without saturating
//! (PAPER.md §1.4, the OnlineHD-style similarity-weighted rule) —
//! only pays off operationally if the *serving* model can learn.
//! This module closes that loop with three cooperating pieces:
//!
//! * [`registry`] — a versioned, checksummed model store on disk:
//!   immutable `HDP1` files (each carrying the `HDI1` golden-checksum
//!   trailer) plus a crash-safe manifest recording parent hash,
//!   sample counts, gate accuracies and lifecycle status. Maintained
//!   from the CLI via `hdface model ls/publish/rollback/promote`.
//! * [`trainer`] — a background thread owning a private
//!   float-accumulator copy of the class vectors. `POST /feedback`
//!   enqueues labeled samples into a bounded queue; the trainer
//!   applies the paper's update rule in deterministic arrival order,
//!   periodically snapshots a candidate, skips one whose class words
//!   equal the live model's, and gates the promotion of any other on
//!   a held-out shadow eval ("no worse than current").
//! * [`swap`] — atomic hot-swap: a promoted candidate is installed
//!   into the live [`IntegrityGuard`] through the same
//!   `Arc<ModelState>` exchange the scrubber uses (fresh replicas
//!   *and* fresh golden checksums in one pointer swap), so in-flight
//!   requests finish on the old version and the next request sees the
//!   new one — zero downtime, bit-deterministic given the same
//!   feedback sequence.
//!
//! ```text
//! POST /feedback ─► bounded queue ─► trainer thread (shadow HdClassifier)
//!                                        │ every snapshot_every samples
//!                                        ▼
//!                               quantize candidate k
//!                                        │ classes == live? → skip:
//!                                        │ nothing published or swapped
//!                                        │ gate: Hamming accuracy on
//!                                        ▼       held-out shadow set
//!                        ┌── candidate ≥ live ──┐
//!                        ▼                      ▼
//!                 registry publish        registry publish
//!                 (status=promoted)       (status=rejected)
//!                        │                      │
//!                        ▼                      ▼
//!            IntegrityGuard::install     shadow resets to live
//!            (atomic Arc hot-swap)
//! ```
//!
//! [`IntegrityGuard`]: crate::integrity::IntegrityGuard

// The online subsystem runs on live-serving threads: no unwraps that
// could turn a recoverable condition into a thread death (see
// `crate::sync` and DESIGN.md §15).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod registry;
pub mod swap;
pub mod trainer;

pub use registry::{ModelRegistry, PublishMeta, RegistryError, VersionRecord, VersionStatus};
pub use swap::{ActiveModel, ModelSwitch};
pub use trainer::{FeedbackSample, OnlineConfig, OnlineCounters, OnlineState};
