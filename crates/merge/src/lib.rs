//! The record-lifecycle merge engine (paper §3.1 and §4).
//!
//! Two transformations move records through the unified table:
//!
//! * [`l1_to_l2::l1_to_l2_merge`] — the incremental row→column pivot of
//!   Fig 6: settled L1 slots are appended column-by-column to the L2-delta
//!   (dictionary lookup, then value-vector append), then the caller
//!   atomically publishes the new L2 rows and truncates the L1 prefix.
//! * the **delta-to-main merges** of §4, all of which consume a *closed*
//!   L2-delta and the current main and produce a new [`MainStore`]:
//!   - [`classic::classic_merge`] (§4.1, Fig 7) — merge dictionaries with
//!     mapping tables, recode the old main, append the delta rows;
//!   - [`resort::resort_merge`] (§4.2, Fig 8) — additionally re-sorts the
//!     rows for cross-column compression, producing the row-position
//!     mapping table;
//!   - [`partial::partial_merge`] (§4.3, Figs 9–10) — leaves the passive
//!     main untouched and rebuilds only the active main, whose dictionary
//!     continues the passive encoding at `n + 1`.
//!
//! [`policy`] holds the cost-based scheduling decisions and [`daemon`] the
//! asynchronous background merger ("asynchronously propagate individual
//! records through the system without interfering with currently running
//! database operations").
//!
//! The per-column work of every delta-to-main merge fans out over a bounded
//! worker pool ([`parallel`]), controlled by [`MergeInput::parallel`] and
//! surfaced through [`classic::MergeMetrics`]; the result is bit-identical
//! to the serial path.
//!
//! A merge whose input still contains stamps of in-flight transactions
//! fails with a retryable [`HanaError::Merge`] — mirroring the paper's "if a
//! merge fails, the system still operates with the new L2-delta and retries
//! the merge".
//!
//! [`MainStore`]: hana_store::MainStore
//! [`HanaError::Merge`]: hana_common::HanaError::Merge

pub mod classic;
pub mod daemon;
pub mod l1_to_l2;
pub mod parallel;
pub mod partial;
pub mod policy;
pub mod resort;
mod survivors;

pub use classic::{classic_merge, DeltaMergeOutcome, MergeMetrics};
pub use daemon::{DaemonStats, MergeDaemon, MergeTarget};
pub use l1_to_l2::{l1_to_l2_merge, L1MergeOutcome};
pub use parallel::{effective_workers, map_indexed};
pub use partial::partial_merge;
pub use policy::{decide_delta_merge, decide_l1_merge, MergeDecision};
pub use resort::{resort_merge, ResortOutcome};
pub use survivors::{MergeInput, RowMap};
