//! The SAP-HANA-style **unified table**: one logical table served by three
//! physical representations with asynchronous record propagation.
//!
//! This crate is the paper's primary contribution assembled from the
//! substrate crates:
//!
//! * writes enter the row-format **L1-delta** (`hana-rowstore`);
//! * the background lifecycle merges settled rows into the column-format
//!   **L2-delta** and eventually into the compressed **main**
//!   (`hana-store`, `hana-merge`);
//! * every statement reads through a [`TableRead`] view that pins the
//!   structures + row-count fences it may see, so merges never disturb
//!   running operations (§3.1's non-interference guarantee);
//! * MVCC snapshots and write conflicts come from `hana-txn`; durability
//!   (REDO on first entry, savepoints, recovery) from `hana-persist`;
//! * [`Database`] is the catalog + transaction + persistence façade.
//!
//! ```
//! use hana_core::Database;
//! use hana_common::{ColumnDef, DataType, Schema, TableConfig, Value};
//! use hana_txn::IsolationLevel;
//!
//! let db = Database::in_memory();
//! let schema = Schema::new(
//!     "sales",
//!     vec![
//!         ColumnDef::new("id", DataType::Int).unique(),
//!         ColumnDef::new("city", DataType::Str),
//!     ],
//! )
//! .unwrap();
//! let table = db.create_table(schema, TableConfig::default()).unwrap();
//! let mut txn = db.begin(IsolationLevel::Transaction);
//! table
//!     .insert(&txn, vec![Value::Int(1), Value::str("Los Gatos")])
//!     .unwrap();
//! db.commit(&mut txn).unwrap();
//!
//! let reader = db.begin(IsolationLevel::Transaction);
//! let read = table.read(&reader);
//! let rows = read.point(1, &Value::str("Los Gatos")).unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

pub mod batch;
pub mod database;
pub mod filter;
pub mod gc;
pub mod governor;
pub mod lifecycle;
pub mod loc;
pub mod partition;
pub mod read;
pub(crate) mod scan;
pub mod scrub;
pub mod snapshot_image;
pub mod table;
pub mod write;

pub use batch::{BatchCol, BatchColumn, BatchSpec, ColumnBatch, ColumnData, DictView};
pub use database::Database;
pub use filter::{ColumnPredicate, ScanStats, ScanWork};
pub use gc::{GcShared, GcStats, TableGc};
pub use governor::{ResourceGovernor, ScanPermit};
// The scan pool's fan-out, for the engine layer's partition-parallel nodes.
pub use hana_merge::{effective_workers, map_indexed};
pub use lifecycle::StageStats;
pub use loc::Loc;
pub use partition::PartitionedTable;
pub use read::{TableRead, VisibleRow};
pub use scrub::Scrubber;
pub use table::UnifiedTable;
