//! Persistence: paged virtual files, REDO log, savepoints, recovery.
//!
//! Paper §3.2 (Fig 5): the main-memory database stays durable through
//! *"a combination of temporary REDO logs and save pointing"*:
//!
//! * **REDO logging happens only once, when data first enters the system** —
//!   an L1 insert/update/delete or an L2 bulk load — plus commit/abort
//!   records. Data movement during merges is *not* logged; only a merge
//!   *event* record keeps the log interpretable ("the event of the merge is
//!   written to the log to ensure a consistent database state after
//!   restart").
//! * **Savepoints** write consistent images of every table (L1 rows, L2
//!   rows, main parts) through a page-based [`PageStore`] organized in
//!   [`VirtualFile`]s ("a virtual file concept with visible page limits of
//!   configurable size", adapted from SAP MaxDB). After a savepoint the
//!   REDO log is truncated.
//! * **Recovery** loads the newest valid savepoint manifest and replays the
//!   (possibly torn) log tail.
//!
//! Stamps of transactions still in flight at savepoint time are persisted as
//! raw marks; the post-savepoint log contains their commit/abort records, so
//! replay resolves them — anything still unresolved after replay belongs to
//! a transaction that never committed and is treated as aborted.
//!
//! Failure behaviour is first-class: every physical I/O site consults a
//! [`FaultInjector`] (see [`fault`]), failures feed a [`Health`] tracker
//! that can flip the instance into read-only degraded mode, and the
//! crash-everywhere harness (`tests/crash_matrix.rs` at the workspace root)
//! brute-forces recovery correctness by killing a scripted workload at every
//! single I/O operation.
//!
//! On-disk **integrity** is end-to-end (see [`integrity`]): every persisted
//! artifact — page, log record, savepoint manifest, table image — carries a
//! versioned, salted CRC32C envelope verified on every read; detected
//! corruption surfaces as `HanaError::Corruption` (never as wrong data),
//! feeds the same [`Health`] tracker, and is exercised bit-by-bit by the
//! corruption matrix (`tests/corruption_matrix.rs`). A background scrub
//! ([`store::Persistence::scrub_tick`]) finds rot while the redundancy to
//! recover from it still exists.

// A panic on the durability path is a crash a user sees; every fallible I/O
// site must propagate a HanaError instead. Test code may unwrap freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod fault;
pub mod group;
pub mod image;
pub mod integrity;
pub mod log;
pub mod page;
pub mod store;
pub mod vfile;

pub use codec::{crc32, Decoder, Encoder};
pub use fault::{
    FailureSite, FaultAction, FaultErrorKind, FaultInjector, FaultOutcome, FaultPolicy, Health,
    HealthStats, IoOp, DEFAULT_DEGRADED_THRESHOLD,
};
pub use group::{GroupCommit, LogStats};
pub use image::{DeltaImage, PartImage, RowImage, TableImage, ZoneImage};
pub use integrity::{
    crc32c, envelope_crc, open_envelope, seal, ArtifactKind, Crc32c, EnvelopeError, IntegrityState,
    IntegrityStats, ENVELOPE_HEADER, ENVELOPE_MAGIC, ENVELOPE_VERSION,
};
pub use log::{LogRecord, LogTail, RedoLog, NO_EPOCH};
pub use page::{PageId, PageStore, DEFAULT_PAGE_SIZE};
pub use store::{PageAccounting, Persistence, RecoveredState, ScrubTick};
pub use vfile::VirtualFile;
