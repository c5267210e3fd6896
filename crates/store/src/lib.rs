//! Column-format stages of the unified table.
//!
//! * [`L2Delta`] — the intermediate stage: column layout, **unsorted**
//!   per-column dictionaries, append-only value vectors, growable inverted
//!   indexes, MVCC stamps per row. A delta-to-main merge *closes* the
//!   current L2-delta and the table opens a fresh one (paper §3.1).
//! * [`MainPart`] / [`MainStore`] — the read-optimized stage: sorted
//!   dictionaries, bit-packed & compressed value indexes, CSR inverted
//!   indexes. A [`MainStore`] is a chain of parts implementing §4.3's
//!   partial merge: earlier (passive) parts own dictionary codes
//!   `0..n`, the active part continues at `n+1`-style offsets, and its
//!   value index may reference passive codes.
//! * [`HistoryStore`] — storage behind "historic" tables: superseded
//!   versions move here instead of being garbage collected, serving the
//!   paper's time-travel queries.

pub mod history;
pub mod l2delta;
pub mod mainstore;

pub use history::{HistoricVersion, HistoryStore};
pub use l2delta::{L2Delta, L2View, L2_NULL_CODE};
pub use mainstore::{MainColumn, MainColumnData, MainPart, MainStore, PartHit, VisBitmap};
