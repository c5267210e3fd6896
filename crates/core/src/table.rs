//! The unified table structure: state, construction, low-level accessors.
//!
//! The write paths live in [`crate::write`], the read views in
//! [`crate::read`], the record-lifecycle machinery in [`crate::lifecycle`],
//! and savepoint image conversion in [`crate::snapshot_image`].
//!
//! ## Locking protocol
//!
//! * `fence` (database-wide): writers shared, savepoint exclusive — the
//!   savepoint must see no write between image building and log truncation.
//! * `state`: writers and readers take it shared for the duration of one
//!   operation / view capture; merge *publications* take it exclusively for
//!   a constant-time window (pointer swap + bounded reconciliation — never
//!   per-column or per-row-set work). Both the delta-to-main build and the
//!   L1→L2 copy stream run without any lock: the former against a frozen
//!   L2 + immutable main, the latter against an L1 snapshot and the open
//!   L2's unpublished tail.
//! * End-stamp writes that land in the frozen L2 or the main while a
//!   delta-to-main merge is building are recorded in `pending_ends` with the
//!   closed version's location; the merge drains them off-line against the
//!   finished build (placing each by its rank among the survivors, see
//!   [`hana_merge::RowMap`]) and re-applies only the residue at publication
//!   — no deletion can be lost to the structure swap. End stamps landing in
//!   L1 slots while an L1→L2 copy runs are likewise queued in
//!   `pending_l1_ends` and, as the correctness anchor, every moved slot's
//!   end stamp is re-read under the exclusive lock before the publication
//!   (writers stamp ends inside `state.read()` sections, so those stores
//!   happen-before our `state.write()`).
//! * Both replays copy uncommitted-writer *marks* into a structure no GC
//!   sweep sees until publication, so while either merge runs the table's
//!   sweep lowers its trim cutoff to the commit clock at the merge's start
//!   (`delta_merge_since` / `l1_merge_since`; see [`crate::gc`]).
//! * `l1_merge_lock` serializes L1→L2 merges against each other and against
//!   bulk loads (the only two producers of open-L2 rows); it is *not* held
//!   across the delta-to-main merge, which instead hands the open L2 off by
//!   generation: freezing swaps in a new open L2, and an in-flight L1→L2
//!   run detects the generation change at publication time and abandons
//!   (its unpublished appends die with the frozen L2 once merged away).
//!
//! Lock order: `fence` → `l1_merge_lock`/`delta_merge_lock` → `state` →
//! store internals. Never acquire `state` twice on one call path.

use crate::loc::Loc;
use hana_common::{Result, RowId, Schema, TableConfig, TableId, Timestamp, Value};
use hana_persist::Persistence;
use hana_rowstore::L1Delta;
use hana_store::{HistoryStore, L2Delta, MainStore};
use hana_txn::{LockTable, TxnManager};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The value of `delta_merge_since` / `l1_merge_since` while no such merge
/// runs.
pub(crate) const NOT_MERGING: Timestamp = Timestamp::MAX;

/// Structure versions guarded by the state lock.
pub(crate) struct TableState {
    /// The open L2-delta accepting the L1 merge stream and bulk loads.
    pub l2: Arc<L2Delta>,
    /// A closed L2-delta currently being merged into the main, if any.
    pub l2_frozen: Option<Arc<L2Delta>>,
    /// The main chain.
    pub main: Arc<MainStore>,
}

/// One table of the database, managed through the record life cycle.
pub struct UnifiedTable {
    pub(crate) id: TableId,
    pub(crate) schema: Schema,
    pub(crate) config: TableConfig,
    pub(crate) mgr: Arc<TxnManager>,
    pub(crate) persist: Option<Arc<Persistence>>,
    pub(crate) fence: Arc<RwLock<()>>,
    pub(crate) l1: L1Delta,
    pub(crate) state: RwLock<TableState>,
    pub(crate) locks: LockTable,
    pub(crate) history: Option<HistoryStore>,
    pub(crate) next_row_id: AtomicU64,
    pub(crate) next_gen: AtomicU64,
    /// Serializes L1→L2 merges.
    pub(crate) l1_merge_lock: Mutex<()>,
    /// Serializes delta-to-main merges.
    pub(crate) delta_merge_lock: Mutex<()>,
    /// Commit clock when the running delta-to-main merge froze its L2, from
    /// then until publication or failure; [`NOT_MERGING`] otherwise.
    pub(crate) delta_merge_since: AtomicU64,
    /// `(location of the closed version, end stamp)` writes raced against
    /// the running delta-to-main merge (see module docs).
    pub(crate) pending_ends: Mutex<Vec<(Loc, Timestamp)>>,
    /// Commit clock when the running L1→L2 merge started copying its
    /// snapshot off-lock, until it publishes or abandons; [`NOT_MERGING`]
    /// otherwise.
    pub(crate) l1_merge_since: AtomicU64,
    /// `(L1 logical position, end stamp)` writes raced against the running
    /// L1→L2 copy (fast-path queue; see module docs).
    pub(crate) pending_l1_ends: Mutex<Vec<(u64, Timestamp)>>,
    /// Metrics of the most recent delta-to-main merge.
    pub(crate) last_merge_metrics: Mutex<Option<hana_merge::MergeMetrics>>,
    /// Longest time any merge held the writers' `state` lock exclusively
    /// (ns) — the F7c "writer-observed stall" instrument: on the
    /// non-blocking protocol this stays constant-time regardless of table
    /// size.
    pub(crate) publication_stall_ns: AtomicU64,
    /// Sum + count of those exclusive holds, for a preemption-robust mean
    /// (a single mid-hold descheduling inflates the max by a scheduler
    /// quantum on small machines).
    pub(crate) publication_stall_total_ns: AtomicU64,
    pub(crate) publication_stall_events: AtomicU64,
    /// Background-GC bookkeeping (watermark of the last cycle, per-part
    /// end-version highwater) — see [`crate::gc`].
    pub(crate) gc_state: Mutex<crate::gc::TableGcState>,
    /// Database-wide interference governor (admission, fan-out clamping,
    /// commit priority) — see [`crate::governor`]. Standalone tables get
    /// a private governor with the default configuration.
    pub(crate) governor: Arc<crate::governor::ResourceGovernor>,
}

impl UnifiedTable {
    /// Create an empty table (used by [`crate::database::Database`]; tests
    /// may call it directly for a standalone table).
    pub fn create(
        id: TableId,
        schema: Schema,
        config: TableConfig,
        mgr: Arc<TxnManager>,
        persist: Option<Arc<Persistence>>,
        fence: Arc<RwLock<()>>,
        governor: Arc<crate::governor::ResourceGovernor>,
    ) -> Arc<Self> {
        let l2 = Arc::new(L2Delta::new(schema.clone(), 0));
        Arc::new(UnifiedTable {
            id,
            history: config.historic.then(HistoryStore::new),
            schema: schema.clone(),
            config,
            mgr,
            persist,
            fence,
            l1: L1Delta::new(schema.unique_columns().map(|c| c.idx())),
            state: RwLock::new(TableState {
                l2,
                l2_frozen: None,
                main: Arc::new(MainStore::empty(schema)),
            }),
            locks: LockTable::new(),
            next_row_id: AtomicU64::new(0),
            next_gen: AtomicU64::new(1),
            l1_merge_lock: Mutex::new(()),
            delta_merge_lock: Mutex::new(()),
            delta_merge_since: AtomicU64::new(NOT_MERGING),
            pending_ends: Mutex::new(Vec::new()),
            l1_merge_since: AtomicU64::new(NOT_MERGING),
            pending_l1_ends: Mutex::new(Vec::new()),
            last_merge_metrics: Mutex::new(None),
            publication_stall_ns: AtomicU64::new(0),
            publication_stall_total_ns: AtomicU64::new(0),
            publication_stall_events: AtomicU64::new(0),
            gc_state: Mutex::new(crate::gc::TableGcState::default()),
            governor,
        })
    }

    /// A standalone in-memory table with its own fence and a private
    /// default-configured governor (convenience for tests and benches).
    pub fn standalone(schema: Schema, config: TableConfig, mgr: Arc<TxnManager>) -> Arc<Self> {
        Self::create(
            TableId(0),
            schema,
            config,
            mgr,
            None,
            Arc::new(RwLock::new(())),
            crate::governor::ResourceGovernor::new(hana_common::GovernorConfig::default()),
        )
    }

    /// The interference governor this table schedules its scans through.
    pub fn governor(&self) -> &Arc<crate::governor::ResourceGovernor> {
        &self.governor
    }

    /// The table's catalog id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The lifecycle configuration.
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    /// The owning transaction manager.
    pub fn txn_manager(&self) -> &Arc<TxnManager> {
        &self.mgr
    }

    /// The history store, for historic tables.
    pub fn history(&self) -> Option<&HistoryStore> {
        self.history.as_ref()
    }

    /// Longest observed exclusive hold of the writers' lock by any merge
    /// publication, in nanoseconds (0 if no merge ran yet).
    pub fn max_publication_stall_ns(&self) -> u64 {
        self.publication_stall_ns.load(Ordering::Relaxed)
    }

    /// Sum of all exclusive holds across merge publications, in nanoseconds.
    pub fn total_publication_stall_ns(&self) -> u64 {
        self.publication_stall_total_ns.load(Ordering::Relaxed)
    }

    /// Mean exclusive hold across all merge publications, in nanoseconds.
    pub fn mean_publication_stall_ns(&self) -> u64 {
        let n = self.publication_stall_events.load(Ordering::Relaxed);
        if n == 0 {
            return 0;
        }
        self.publication_stall_total_ns.load(Ordering::Relaxed) / n
    }

    /// Zero the stall instruments — benchmarks call this to scope the
    /// measurement to a quiesced window.
    pub fn reset_publication_stall(&self) {
        self.publication_stall_ns.store(0, Ordering::Relaxed);
        self.publication_stall_total_ns.store(0, Ordering::Relaxed);
        self.publication_stall_events.store(0, Ordering::Relaxed);
    }

    /// Record one exclusive-section duration (called by the merge paths).
    pub(crate) fn note_publication_stall(&self, held_for: std::time::Duration) {
        let ns = held_for.as_nanos() as u64;
        self.publication_stall_ns.fetch_max(ns, Ordering::Relaxed);
        self.publication_stall_total_ns
            .fetch_add(ns, Ordering::Relaxed);
        self.publication_stall_events
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Release this transaction's row locks (called by
    /// [`Database::commit`](crate::Database::commit) / abort).
    pub fn finish_txn(&self, txn: hana_common::TxnId) {
        self.locks.release_all(txn);
    }

    /// Encodings of `col`'s compressed code vectors across the main chain,
    /// in chain order (introspection for tests and benches asserting scan
    /// coverage per encoding).
    pub fn main_encodings(&self, col: usize) -> Vec<hana_column::Encoding> {
        let state = self.state.read();
        state
            .main
            .parts()
            .iter()
            .map(|p| p.code_vector(col).encoding())
            .collect()
    }

    pub(crate) fn alloc_row_id(&self) -> RowId {
        RowId(self.next_row_id.fetch_add(1, Ordering::SeqCst))
    }

    pub(crate) fn alloc_row_id_block(&self, n: u64) -> RowId {
        RowId(self.next_row_id.fetch_add(n, Ordering::SeqCst))
    }

    pub(crate) fn alloc_generation(&self) -> u64 {
        self.next_gen.fetch_add(1, Ordering::SeqCst)
    }

    /// Resolve `(row_id, begin, end, values)` at a location, against the
    /// given state (the caller holds the state lock).
    pub(crate) fn version_at_locked(
        &self,
        state: &TableState,
        loc: Loc,
    ) -> Option<(RowId, Timestamp, Timestamp, Vec<Value>)> {
        match loc {
            Loc::L1(pos) => self
                .l1
                .with_slot(pos, |s| (s.row_id, s.begin(), s.end(), s.values.to_vec())),
            Loc::L2 { gen, pos } => {
                let l2 = self.l2_by_gen(state, gen)?;
                Some((l2.row_id(pos), l2.begin(pos), l2.end(pos), l2.row(pos)))
            }
            Loc::Main { part_gen, pos } => {
                let (pi, part) = state
                    .main
                    .parts()
                    .iter()
                    .enumerate()
                    .find(|(_, p)| p.generation() == part_gen)?;
                let hit = hana_store::PartHit { part: pi, pos };
                Some((
                    part.row_id(pos),
                    part.begin(pos),
                    part.end(pos),
                    state.main.row_at(hit),
                ))
            }
        }
    }

    fn l2_by_gen<'a>(&self, state: &'a TableState, gen: u64) -> Option<&'a Arc<L2Delta>> {
        if state.l2.generation() == gen {
            Some(&state.l2)
        } else {
            state.l2_frozen.as_ref().filter(|f| f.generation() == gen)
        }
    }

    /// Write an end stamp at a location (caller holds the state lock, which
    /// guarantees the location is current). Records the write for merge
    /// reconciliation when a merge is building.
    pub(crate) fn store_end_locked(&self, state: &TableState, loc: Loc, ts: Timestamp) {
        let delta_merging = || self.delta_merge_since.load(Ordering::Acquire) != NOT_MERGING;
        match loc {
            Loc::L1(pos) => {
                self.l1.with_slot(pos, |s| s.store_end(ts));
                if self.l1_merge_since.load(Ordering::Acquire) != NOT_MERGING {
                    self.pending_l1_ends.lock().push((pos, ts));
                }
            }
            Loc::L2 { gen, pos } => {
                let frozen = state
                    .l2_frozen
                    .as_ref()
                    .is_some_and(|f| f.generation() == gen);
                if let Some(l2) = self.l2_by_gen(state, gen) {
                    l2.store_end(pos, ts);
                }
                if frozen && delta_merging() {
                    self.pending_ends.lock().push((loc, ts));
                }
            }
            Loc::Main { part_gen, pos } => {
                if let Some(p) = state
                    .main
                    .parts()
                    .iter()
                    .find(|p| p.generation() == part_gen)
                {
                    p.store_end(pos, ts);
                    if delta_merging() {
                        self.pending_ends.lock().push((loc, ts));
                    }
                }
            }
        }
    }

    /// All physical version coordinates whose `col` equals `v`, against the
    /// given state. Every stage routes a key column through its index (the
    /// L1's key tables, the L2 and main inverted indexes) and walks any
    /// other column.
    pub(crate) fn versions_by_value_locked(
        &self,
        state: &TableState,
        col: usize,
        v: &Value,
    ) -> Vec<Loc> {
        let mut out: Vec<Loc> = self
            .l1
            .snapshot()
            .positions_eq(col, v)
            .into_iter()
            .map(Loc::L1)
            .collect();
        if let Some(f) = &state.l2_frozen {
            // Published fence, not physical length: an abandoned L1→L2 run
            // may have appended unpublished rows past it.
            let fence = f.published_len();
            for pos in f.positions_eq(col, v, fence) {
                out.push(Loc::L2 {
                    gen: f.generation(),
                    pos,
                });
            }
        }
        {
            let fence = state.l2.published_len();
            for pos in state.l2.positions_eq(col, v, fence) {
                out.push(Loc::L2 {
                    gen: state.l2.generation(),
                    pos,
                });
            }
        }
        for hit in state.main.positions_eq(col, v) {
            out.push(Loc::Main {
                part_gen: state.main.parts()[hit.part].generation(),
                pos: hit.pos,
            });
        }
        out
    }

    /// Log a REDO record if the table is durable. Routed through
    /// [`Persistence::append_record`] so repeated device failures feed the
    /// health tracker and degraded (read-only) mode rejects the write
    /// before it mutates in-memory state.
    pub(crate) fn redo(&self, rec: &hana_persist::LogRecord) -> Result<()> {
        if let Some(p) = &self.persist {
            p.append_record(rec)?;
        }
        Ok(())
    }
}
