//! # pper-journal
//!
//! Durable lifecycle layer for the pipeline: an append-only, length-prefixed
//! and checksummed event log per job, written through a pluggable
//! [`JournalStore`], plus the dead-letter view derived from it.
//!
//! A real MapReduce deployment survives process death because everything
//! that matters is on stable storage: the job's configuration, which tasks
//! finished, the checkpoints, and which tasks burned their attempt budget.
//! This crate is that storage layer for the simulated runtime:
//!
//! * [`frame`] — the on-disk record framing: a magic/version header followed
//!   by `[u32 len][u32 crc32][payload]` records. Recovery parses the longest
//!   valid prefix and reports (never panics on) torn tails or corruption.
//! * [`event`] — the [`JournalEvent`] schema and its hand-rolled binary
//!   codec. Virtual costs are encoded as `f64::to_bits`, so a decode is
//!   bit-identical to what was written.
//! * [`store`] — the [`JournalStore`] trait with an in-memory
//!   implementation for tests ([`MemStore`]) and a file-per-job
//!   implementation for real runs ([`FileStore`]).
//! * [`journal`] — the [`JobJournal`] writer, which owns the sync policy
//!   (a record is acknowledged once a sync covers it: every 128 KiB, and
//!   whenever the runner asks; with an optional kill-after-N-events crash
//!   hook for conformance harnesses),
//!   [`recover`], and the [`JournalState`] fold that reduces an event
//!   stream to "where was this job, how far had each reduce task's
//!   checkpoint cuts got, and what is in its dead-letter queue".
//!
//! The crate is deliberately dependency-light and panic-free in production
//! paths: a corrupt journal yields a [`JournalError`] or a truncated
//! recovery, never an abort (`pper-lint`'s `panic_path` rule covers every
//! file here).

#![forbid(unsafe_code)]

pub mod event;
pub mod frame;
pub mod journal;
pub mod store;

pub use event::{AttemptFailure, JournalEvent, TaskClass};
pub use frame::{RecoveryReport, MAGIC};
pub use journal::{recover, DlqEntry, JobJournal, JournalState, RecoveredJournal, TaskProgress};
pub use store::{FileStore, JournalStore, MemStore};

/// Everything that can go wrong reading or writing a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The backing store failed (I/O error, unwritable directory, ...).
    Store(String),
    /// A typed storage fault from the VFS layer. Unlike [`Store`], the
    /// class (transient / permanent / corrupt, plus a disk-full marker) is
    /// machine-readable, so recovery policies can branch on it.
    ///
    /// [`Store`]: JournalError::Store
    Fault(pper_vfs::IoFault),
    /// No journal exists for the requested job id.
    NotFound(String),
    /// A job id contains characters the store cannot map to a file name.
    BadJobId(String),
    /// The journal's header is missing or not a pper journal's.
    BadHeader(String),
    /// A pper journal of a format version this build does not read. There
    /// is one reader; an old job is finished with the build that started it.
    UnsupportedVersion {
        /// Version byte of the log.
        found: u8,
        /// The version this build reads and writes.
        supported: u8,
    },
    /// A record failed to decode even though its checksum matched — a
    /// schema mismatch, not bit rot.
    BadEvent(String),
    /// The journal ends in a state the caller cannot proceed from (e.g.
    /// resuming a job whose log has no `JobStarted`).
    BadState(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Store(m) => write!(f, "journal store error: {m}"),
            JournalError::Fault(fault) => write!(f, "journal storage fault: {fault}"),
            JournalError::NotFound(job) => write!(f, "no journal for job '{job}'"),
            JournalError::BadJobId(job) => write!(
                f,
                "job id '{job}' is not storable (use letters, digits, '.', '_', '-')"
            ),
            JournalError::BadHeader(m) => write!(f, "bad journal header: {m}"),
            JournalError::UnsupportedVersion { found, supported } => write!(
                f,
                "journal format version {found} is not supported (this build reads version \
                 {supported}); finish the job with the build that started it"
            ),
            JournalError::BadEvent(m) => write!(f, "undecodable journal event: {m}"),
            JournalError::BadState(m) => write!(f, "journal state error: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<pper_vfs::IoFault> for JournalError {
    fn from(fault: pper_vfs::IoFault) -> Self {
        JournalError::Fault(fault)
    }
}
