//! Background MVCC garbage collection.
//!
//! Merges reclaim *rows* (superseded versions leave the structures when a
//! merge rebuilds them); this module reclaims everything merges cannot:
//!
//! * **Mark resolution** — begin/end stamps written by finished
//!   transactions are rewritten from `TXN_MARK | id` to their settled
//!   timestamps (commit ts, or `COMMIT_TS_MAX` for an aborted deleter), so
//!   readers stop paying commit-table lookups and — crucially — so the
//!   commit table itself can shrink. Main parts are swept by their
//!   end-write log: only the end stamps written since the last sweep, plus
//!   the ones it left open.
//! * **Transaction-table trimming** — the [`TxnManager`]'s commit table and
//!   aborted set grow with every finished transaction; once no stamp
//!   anywhere references an entry, it is dropped. This is what keeps a
//!   days-long churn run's memory flat.
//! * **Visibility-bitmap cache eviction** — cached `(part, snapshot)`
//!   bitmaps whose snapshot fell below the MVCC low-watermark can never be
//!   used again and are evicted without waiting for cache-pressure
//!   replacement.
//! * **Accounting** — dead row versions (end ≤ watermark, awaiting their
//!   reclaiming merge) and dead dictionary codes in the L2-delta are
//!   counted and surfaced through [`GcStats`], mirroring
//!   [`DaemonStats`](hana_merge::DaemonStats).
//!
//! ## Safety of trimming the commit table
//!
//! Dropping an entry makes its id resolve as *aborted* (unknown ⇒ aborted),
//! so an entry may only be dropped when no stamp still carries its mark.
//! Each table's sweep reports the marks it could **not** rewrite
//! (`referenced`); the trim runs only against the union over *all* catalog
//! tables, with a commit-timestamp cutoff captured before the oldest sweep
//! started (any transaction committing mid-sweep lands above the cutoff, so
//! marks a sweep raced past stay resolvable).
//!
//! **Pinned views.** A sweep sees only the current structures, but a read
//! view keeps the ones it pinned: an L1 snapshot whose slots an L1→L2 merge
//! has since moved on, a main a delta merge has since replaced. Their marks
//! are never rewritten, and a trimmed entry would make a view pinned before
//! the swap resolve a committed insert as aborted (a lost row) or a
//! committed delete as aborted (a revived row). So every candidate carries
//! the begin epoch read after the sweep that first found it captured its
//! structures, and it is dropped only from the second cycle on, and only
//! once every transaction that began before that epoch has finished — the
//! views that can still reach a copy of the mark died with them. A view is
//! protected while its transaction runs; a detached `Snapshot::at` view is
//! not. Aborted-set entries need neither rule: an unknown id already
//! resolves as aborted, so dropping one can never change a resolution.
//!
//! **The merge floor.** Both merges replay end stamps that raced their
//! build as *marks* into a structure no sweep sees before publication: the
//! delta-to-main merge into its new main, the L1→L2 merge into the open
//! L2's unpublished tail. A sweep meanwhile settles the same mark in the
//! old structure and stops listing the transaction, and two trims later
//! the entry would be gone — so at publication the copied mark would
//! resolve as *aborted* and the deletion would be lost. While a merge
//! runs, the table's sweep therefore reports `watermark_start` no later
//! than the commit clock at the merge's start (the earliest start when
//! both run). Every transaction whose mark a merge can copy wrote it after
//! that start and so commits after it, above the cutoff, and stays
//! resolvable until a sweep that starts after publication sees the new
//! structure.
//!
//! ## Scheduling
//!
//! [`TableGc`] implements [`MergeTarget`], so the [`MergeDaemon`] drives it
//! with the same per-target claim/backoff machinery as the merges — one
//! target per table (and per partition shard: shards are first-class
//! catalog tables), so collecting one partition never stalls a sibling.
//! `maybe_merge` always returns `Ok(false)`: GC cycles are invisible to the
//! daemon's merge counters and never arm its failure backoff.
//!
//! [`MergeDaemon`]: hana_merge::MergeDaemon

use crate::table::UnifiedTable;
use hana_column::Pos;
use hana_common::{Timestamp, TxnId, COMMIT_TS_MAX};
use hana_merge::MergeTarget;
use hana_store::{L2Delta, MainPart};
use hana_txn::{Resolution, TxnManager};
use parking_lot::Mutex;
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-main-part sweep memo, keyed by part generation.
#[derive(Default)]
struct PartMemo {
    /// End-write log index swept up to.
    cursor: u64,
    /// Positions whose end mark was still in flight, or whose settling
    /// compare-exchange lost to a racing writer: revisited next cycle.
    open: Vec<Pos>,
    /// Transactions of begin-stamp marks (immutable in a built part): must
    /// stay resolvable for the part's whole lifetime.
    begin_refs: Vec<u64>,
}

/// Per-table GC bookkeeping, stored on the [`UnifiedTable`].
#[derive(Default)]
pub struct TableGcState {
    parts: FxHashMap<u64, PartMemo>,
}

/// What one table sweep observed (input to the database-wide trim).
pub struct SweepReport {
    /// MVCC watermark captured *before* the sweep touched any stamp,
    /// lowered to the merge floor while a merge runs (see the module docs).
    pub watermark_start: Timestamp,
    /// [`TxnManager::begin_epoch`] read after the sweep captured the
    /// structures it walks (see the module docs).
    pub epoch: u64,
    /// Transaction ids still carried by some mark this sweep could not
    /// rewrite (in-flight writers, lost CAS races, immutable main begins).
    pub referenced: FxHashSet<u64>,
    /// Marks rewritten to settled timestamps.
    pub marks_resolved: u64,
    /// Main-part end stamps examined: the end-write log written since the
    /// previous sweep plus the positions it left open — never the whole
    /// part.
    pub end_stamps_visited: u64,
    /// Vis-cache entries evicted below the watermark.
    pub vis_evicted: u64,
    /// Superseded/aborted versions awaiting their reclaiming merge.
    pub dead_versions: u64,
    /// L2 dictionary codes no live row references (reclaimed by the next
    /// delta-to-main merge's filtered dictionary build).
    pub dead_dict_codes: u64,
}

impl SweepReport {
    fn empty(watermark_start: Timestamp) -> Self {
        SweepReport {
            watermark_start,
            epoch: 0,
            referenced: FxHashSet::default(),
            marks_resolved: 0,
            end_stamps_visited: 0,
            vis_evicted: 0,
            dead_versions: 0,
            dead_dict_codes: 0,
        }
    }
}

/// Monotonic GC counters (shared by every [`TableGc`] of a database).
#[derive(Default)]
struct GcCounters {
    cycles: AtomicU64,
    marks_resolved: AtomicU64,
    txn_entries_trimmed: AtomicU64,
    vis_entries_evicted: AtomicU64,
    dead_versions: AtomicU64,
    dead_dict_codes: AtomicU64,
    last_watermark: AtomicU64,
}

/// Snapshot of the garbage collector's aggregate statistics, surfaced like
/// [`DaemonStats`](hana_merge::DaemonStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Completed table sweeps.
    pub cycles: u64,
    /// Begin/end stamps rewritten from marks to settled timestamps.
    pub marks_resolved: u64,
    /// Commit-table + aborted-set entries dropped.
    pub txn_entries_trimmed: u64,
    /// Visibility-bitmap cache entries evicted below the watermark.
    pub vis_entries_evicted: u64,
    /// Latest observed count of dead versions awaiting merge reclaim.
    pub dead_versions: u64,
    /// Latest observed count of dead L2 dictionary codes.
    pub dead_dict_codes: u64,
    /// Watermark of the most recent sweep.
    pub last_watermark: u64,
}

struct GcSharedInner {
    /// Latest sweep per table id (trim requires one from every table):
    /// watermark, epoch and referenced ids.
    reports: FxHashMap<u32, (Timestamp, u64, FxHashSet<u64>)>,
    /// Tables that must report before a trim may run.
    registered: FxHashSet<u32>,
    /// Commit-table candidates of earlier trims, with the epoch of the
    /// cycle that first found each (see [`TxnManager::trim_finished`]).
    pending: FxHashMap<u64, u64>,
}

/// Database-wide GC state: counters plus the cross-table trim aggregator.
pub struct GcShared {
    counters: GcCounters,
    inner: Mutex<GcSharedInner>,
}

impl GcShared {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(GcShared {
            counters: GcCounters::default(),
            inner: Mutex::new(GcSharedInner {
                reports: FxHashMap::default(),
                registered: FxHashSet::default(),
                pending: FxHashMap::default(),
            }),
        })
    }

    pub(crate) fn register_table(&self, id: u32) {
        self.inner.lock().registered.insert(id);
    }

    /// Current aggregate statistics.
    pub fn stats(&self) -> GcStats {
        GcStats {
            cycles: self.counters.cycles.load(Ordering::Relaxed),
            marks_resolved: self.counters.marks_resolved.load(Ordering::Relaxed),
            txn_entries_trimmed: self.counters.txn_entries_trimmed.load(Ordering::Relaxed),
            vis_entries_evicted: self.counters.vis_entries_evicted.load(Ordering::Relaxed),
            dead_versions: self.counters.dead_versions.load(Ordering::Relaxed),
            dead_dict_codes: self.counters.dead_dict_codes.load(Ordering::Relaxed),
            last_watermark: self.counters.last_watermark.load(Ordering::Relaxed),
        }
    }

    /// Deposit one table's sweep and, when every registered table has
    /// reported, run the transaction-table trim.
    fn absorb(&self, mgr: &TxnManager, table: u32, report: SweepReport) {
        self.counters.cycles.fetch_add(1, Ordering::Relaxed);
        self.counters
            .marks_resolved
            .fetch_add(report.marks_resolved, Ordering::Relaxed);
        self.counters
            .vis_entries_evicted
            .fetch_add(report.vis_evicted, Ordering::Relaxed);
        self.counters
            .dead_versions
            .store(report.dead_versions, Ordering::Relaxed);
        self.counters
            .dead_dict_codes
            .store(report.dead_dict_codes, Ordering::Relaxed);
        self.counters
            .last_watermark
            .store(report.watermark_start, Ordering::Relaxed);

        let mut inner = self.inner.lock();
        inner.reports.insert(
            table,
            (report.watermark_start, report.epoch, report.referenced),
        );
        if !inner
            .registered
            .iter()
            .all(|id| inner.reports.contains_key(id))
        {
            return;
        }
        let mut referenced: FxHashSet<u64> = FxHashSet::default();
        let mut committed_before = Timestamp::MAX;
        let mut epoch = 0;
        for id in &inner.registered {
            let (wm, ep, refs) = &inner.reports[id];
            committed_before = committed_before.min(*wm);
            epoch = epoch.max(*ep);
            referenced.extend(refs.iter().copied());
        }
        let mut pending = std::mem::take(&mut inner.pending);
        let removed = mgr.trim_finished(&referenced, committed_before, epoch, &mut pending);
        inner.pending = pending;
        self.counters
            .txn_entries_trimmed
            .fetch_add(removed as u64, Ordering::Relaxed);
    }
}

/// Outcome of resolving one stamp against the transaction manager.
enum MarkFate {
    /// Not a mark, or settled already.
    Settled,
    /// Rewrite to this timestamp (commit ts, or `COMMIT_TS_MAX` for an
    /// aborted end stamp).
    Rewrite(Timestamp),
    /// Leave the mark of this transaction in place (still running, or an
    /// aborted begin).
    Keep(u64),
}

fn end_fate(mgr: &TxnManager, ts: Timestamp) -> MarkFate {
    match TxnId::from_mark(ts) {
        None => MarkFate::Settled,
        Some(writer) => match mgr.resolve_mark(writer) {
            Resolution::Committed(cts) => MarkFate::Rewrite(cts),
            Resolution::Aborted => MarkFate::Rewrite(COMMIT_TS_MAX),
            Resolution::Uncommitted(_) => MarkFate::Keep(writer.0),
        },
    }
}

fn begin_fate(mgr: &TxnManager, ts: Timestamp) -> MarkFate {
    match TxnId::from_mark(ts) {
        None => MarkFate::Settled,
        Some(writer) => match mgr.resolve_mark(writer) {
            Resolution::Committed(cts) => MarkFate::Rewrite(cts),
            // An aborted begin stays a mark (the row is garbage a merge
            // will drop); unknown ids resolve as aborted, so the entry
            // needs no protection.
            Resolution::Aborted | Resolution::Uncommitted(_) => MarkFate::Keep(writer.0),
        },
    }
}

/// Settle the end stamps of main `part` that can have changed since the
/// last sweep: its end-write log past `memo.cursor` plus `memo.open` —
/// work proportional to the deletions since, not to the part. Marks still
/// in flight (their transactions stay `referenced`) and rewrites that lost
/// their compare-exchange to a racing writer stay open for the next cycle.
/// `before_rewrite` runs between reading a stamp and rewriting it (tests
/// race a writer into that window).
fn settle_part_ends(
    mgr: &TxnManager,
    part: &MainPart,
    memo: &mut PartMemo,
    rep: &mut SweepReport,
    before_rewrite: impl Fn(Pos),
) {
    let fresh = part.ends_since(memo.cursor);
    memo.cursor += fresh.len() as u64;
    let mut todo = std::mem::take(&mut memo.open);
    todo.extend(fresh);
    todo.sort_unstable();
    todo.dedup();
    for pos in todo {
        rep.end_stamps_visited += 1;
        let end = part.end(pos);
        match end_fate(mgr, end) {
            MarkFate::Settled => {}
            MarkFate::Rewrite(settled) => {
                before_rewrite(pos);
                if part.resolve_end(pos, end, settled) {
                    rep.marks_resolved += 1;
                } else {
                    memo.open.push(pos);
                }
            }
            MarkFate::Keep(txn) => {
                memo.open.push(pos);
                rep.referenced.insert(txn);
            }
        }
    }
}

impl UnifiedTable {
    /// One GC sweep over every stage of this table. Resolves marks, evicts
    /// stale visibility-cache entries, and reports what the database-wide
    /// transaction-table trim needs. Safe to run concurrently with writers
    /// and merges: every rewrite is a compare-exchange that loses to any
    /// racing real store.
    pub fn gc_sweep(&self) -> SweepReport {
        // The merge floor: a running merge may copy marks of transactions
        // committing after its start into a structure this sweep cannot
        // see yet (see the module docs).
        let watermark_start = self
            .mgr
            .watermark()
            .min(self.delta_merge_since.load(Ordering::SeqCst))
            .min(self.l1_merge_since.load(Ordering::SeqCst));
        let mut rep = SweepReport::empty(watermark_start);

        // L1 slots.
        let snap = self.l1.snapshot();
        for (_, slot) in snap.iter() {
            let begin = slot.begin();
            match begin_fate(&self.mgr, begin) {
                MarkFate::Rewrite(cts) => {
                    if slot.resolve_begin(begin, cts) {
                        rep.marks_resolved += 1;
                    }
                }
                MarkFate::Settled | MarkFate::Keep(_) => {}
            }
            let end = slot.end();
            match end_fate(&self.mgr, end) {
                MarkFate::Rewrite(settled) => {
                    if slot.resolve_end(end, settled) {
                        rep.marks_resolved += 1;
                        if settled <= watermark_start {
                            rep.dead_versions += 1;
                        }
                    }
                }
                MarkFate::Settled => {
                    if end <= watermark_start {
                        rep.dead_versions += 1;
                    }
                }
                MarkFate::Keep(_) => {}
            }
        }

        // L2 deltas (open and frozen) and the main chain, captured under a
        // brief shared state hold; the sweep itself runs lock-free against
        // the shared structures.
        let (l2, frozen, main) = {
            let state = self.state.read();
            (
                Arc::clone(&state.l2),
                state.l2_frozen.clone(),
                Arc::clone(&state.main),
            )
        };
        rep.epoch = self.mgr.begin_epoch();
        self.sweep_l2(&l2, watermark_start, &mut rep);
        if let Some(f) = &frozen {
            self.sweep_l2(f, watermark_start, &mut rep);
        }

        let mut gc_state = self.gc_state.lock();
        let live_gens: FxHashSet<u64> = main.parts().iter().map(|p| p.generation()).collect();
        gc_state.parts.retain(|gen, _| live_gens.contains(gen));
        for part in main.parts() {
            rep.vis_evicted += part.evict_visibility_below(watermark_start) as u64;
            let memo = gc_state
                .parts
                .entry(part.generation())
                .or_insert_with(|| PartMemo {
                    // Begin stamps of a built part are immutable; marks there
                    // (from recovery images taken mid-transaction) pin their
                    // txn entries for the part's lifetime.
                    begin_refs: if part.begins_marked() {
                        (0..part.len() as Pos)
                            .filter_map(|pos| TxnId::from_mark(part.begin(pos)).map(|t| t.0))
                            .collect()
                    } else {
                        Vec::new()
                    },
                    ..PartMemo::default()
                });
            rep.referenced.extend(memo.begin_refs.iter().copied());
            settle_part_ends(&self.mgr, part, memo, &mut rep, |_| {});
        }
        rep
    }

    /// Sweep one L2-delta's published rows: resolve begin/end marks, count
    /// dead versions and dead dictionary codes.
    fn sweep_l2(&self, l2: &L2Delta, watermark: Timestamp, rep: &mut SweepReport) {
        let fence = l2.published_len();
        let arity = self.schema.arity();
        let mut live = vec![false; fence as usize];
        for pos in 0..fence {
            let begin = l2.begin(pos);
            let mut begin_live = true;
            match begin_fate(&self.mgr, begin) {
                MarkFate::Rewrite(cts) => {
                    if l2.resolve_begin(pos, begin, cts) {
                        rep.marks_resolved += 1;
                    }
                }
                MarkFate::Settled => {}
                MarkFate::Keep(_) => {
                    // Aborted insert: the row is garbage. (An uncommitted
                    // insert is conservatively treated as live.)
                    if matches!(
                        self.mgr.resolve_mark(TxnId::from_mark(begin).unwrap()),
                        Resolution::Aborted
                    ) {
                        begin_live = false;
                        rep.dead_versions += 1;
                    }
                }
            }
            let end = l2.end(pos);
            let settled_end = match end_fate(&self.mgr, end) {
                MarkFate::Rewrite(settled) => {
                    if l2.resolve_end(pos, end, settled) {
                        rep.marks_resolved += 1;
                    }
                    settled
                }
                MarkFate::Settled => end,
                MarkFate::Keep(_) => COMMIT_TS_MAX,
            };
            let dead = settled_end <= watermark;
            if dead && begin_live {
                rep.dead_versions += 1;
            }
            live[pos as usize] = begin_live && !dead;
        }
        // Dictionary codes no live row references: left behind by updates/
        // deletes, reclaimed when the next delta merge filters the dict.
        for col in 0..arity {
            rep.dead_dict_codes += l2.with_column(col, fence, |dict, codes| {
                let mut used = vec![false; dict.len()];
                for (pos, &code) in codes.iter().enumerate() {
                    if live[pos] && code != hana_store::L2_NULL_CODE {
                        used[code as usize] = true;
                    }
                }
                used.iter().filter(|u| !**u).count() as u64
            });
        }
    }
}

/// One table's (or partition shard's) GC driver: a [`MergeTarget`] the
/// merge daemon schedules alongside the merges with the same per-target
/// claim/backoff isolation.
pub struct TableGc {
    table: Arc<UnifiedTable>,
    shared: Arc<GcShared>,
    /// Minimum gap between sweeps of this table (the daemon may tick far
    /// faster than a sweep is worth).
    min_gap: Duration,
    last_run: Mutex<Option<Instant>>,
}

impl TableGc {
    /// Wrap `table` for registration with the merge daemon.
    pub fn new(table: Arc<UnifiedTable>, shared: Arc<GcShared>) -> Arc<Self> {
        Self::with_min_gap(table, shared, Duration::from_millis(25))
    }

    /// [`TableGc::new`] with an explicit sweep throttle (tests).
    pub fn with_min_gap(
        table: Arc<UnifiedTable>,
        shared: Arc<GcShared>,
        min_gap: Duration,
    ) -> Arc<Self> {
        shared.register_table(table.id().0);
        Arc::new(TableGc {
            table,
            shared,
            min_gap,
            last_run: Mutex::new(None),
        })
    }
}

impl MergeTarget for TableGc {
    fn maybe_merge(&self) -> hana_common::Result<bool> {
        {
            let mut last = self.last_run.lock();
            if let Some(t) = *last {
                if t.elapsed() < self.min_gap {
                    return Ok(false);
                }
            }
            *last = Some(Instant::now());
        }
        let report = self.table.gc_sweep();
        self.shared
            .absorb(self.table.txn_manager(), self.table.id().0, report);
        // Never count as a merge, never arm the daemon's failure backoff.
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::stamped_part;
    use hana_txn::IsolationLevel;

    /// One sweep of `part`'s end stamps, as `gc_sweep` runs it.
    fn sweep(mgr: &TxnManager, part: &MainPart, memo: &mut PartMemo) -> SweepReport {
        let mut rep = SweepReport::empty(mgr.watermark());
        settle_part_ends(mgr, part, memo, &mut rep, |_| {});
        rep
    }

    #[test]
    fn sweeps_visit_only_the_end_writes_since_the_last() {
        const ROWS: usize = 100_000;
        let mgr = TxnManager::new();
        let part = stamped_part(0, vec![1; ROWS], vec![COMMIT_TS_MAX; ROWS]);
        let mut memo = PartMemo::default();
        assert_eq!(sweep(&mgr, &part, &mut memo).end_stamps_visited, 0);
        let mut writer = mgr.begin(IsolationLevel::Transaction);
        for k in 0..50u32 {
            part.store_end(k * 1_999, writer.id().mark());
        }
        // In flight: all 50 visited, none settled, all left open.
        let rep = sweep(&mgr, &part, &mut memo);
        assert_eq!((rep.end_stamps_visited, rep.marks_resolved), (50, 0));
        assert_eq!(memo.open.len(), 50);
        writer.commit().unwrap();
        // Two more writes: the sweep visits them plus the open ones, never
        // the other ~100k stamps.
        let other = mgr.begin(IsolationLevel::Transaction);
        part.store_end(5, other.id().mark());
        part.store_end(6, other.id().mark());
        let open_before = memo.open.len() as u64;
        let rep = sweep(&mgr, &part, &mut memo);
        assert!(rep.end_stamps_visited <= 2 + open_before);
        assert_eq!(rep.end_stamps_visited, 52);
        assert_eq!(rep.marks_resolved, 50);
        assert_eq!(memo.open, vec![5, 6]);
        drop(other); // aborts: the closes reopen
        let rep = sweep(&mgr, &part, &mut memo);
        assert_eq!((rep.end_stamps_visited, rep.marks_resolved), (2, 2));
        assert_eq!(part.end(5), COMMIT_TS_MAX);
        // Nothing written since: nothing visited.
        assert_eq!(sweep(&mgr, &part, &mut memo).end_stamps_visited, 0);
    }

    #[test]
    fn in_flight_mark_stays_referenced_and_resolves_once() {
        let mgr = TxnManager::new();
        let part = stamped_part(0, vec![1; 10], vec![COMMIT_TS_MAX; 10]);
        let mut memo = PartMemo::default();
        let mut writer = mgr.begin(IsolationLevel::Transaction);
        part.store_end(4, writer.id().mark());
        for _ in 0..2 {
            let rep = sweep(&mgr, &part, &mut memo);
            assert!(rep.referenced.contains(&writer.id().0));
            assert_eq!(rep.marks_resolved, 0);
            assert_eq!(rep.end_stamps_visited, 1);
        }
        let cts = writer.commit().unwrap();
        let rep = sweep(&mgr, &part, &mut memo);
        assert_eq!(rep.marks_resolved, 1);
        assert!(rep.referenced.is_empty());
        assert_eq!(part.end(4), cts);
        let rep = sweep(&mgr, &part, &mut memo);
        assert_eq!((rep.end_stamps_visited, rep.marks_resolved), (0, 0));
    }

    #[test]
    fn lost_rewrite_is_revisited() {
        let mgr = TxnManager::new();
        let part = stamped_part(0, vec![1; 10], vec![COMMIT_TS_MAX; 10]);
        let mut memo = PartMemo::default();
        let mut first = mgr.begin(IsolationLevel::Transaction);
        part.store_end(2, first.id().mark());
        first.abort().unwrap();
        // A second writer closes the reopened row between the sweep's read
        // of the aborted mark and its compare-exchange.
        let mut second = mgr.begin(IsolationLevel::Transaction);
        let mut rep = SweepReport::empty(mgr.watermark());
        settle_part_ends(&mgr, &part, &mut memo, &mut rep, |pos| {
            part.store_end(pos, second.id().mark())
        });
        assert_eq!(rep.marks_resolved, 0, "the rewrite lost its race");
        assert_eq!(memo.open, vec![2]);
        let rep = sweep(&mgr, &part, &mut memo);
        assert_eq!(rep.end_stamps_visited, 1, "open and logged: visited once");
        assert!(rep.referenced.contains(&second.id().0));
        let cts = second.commit().unwrap();
        assert_eq!(sweep(&mgr, &part, &mut memo).marks_resolved, 1);
        assert_eq!(part.end(2), cts);
    }

    /// A delta merge replays a deletion that raced its build into the new
    /// main as a mark. GC cycles that run before publication settle the
    /// same mark in the old main; the merge floor keeps the writer's
    /// commit-table entry until the new main is swept, so after publication
    /// the copied mark still resolves as committed.
    #[test]
    fn trims_during_a_merge_keep_the_marks_it_copies() {
        use hana_common::{ColumnDef, ColumnId, DataType, Schema, TableConfig, Value};
        use hana_merge::MergeDecision;
        use std::sync::mpsc::channel;

        let mgr = TxnManager::new();
        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("v", DataType::Int),
            ],
        )
        .unwrap();
        let table = UnifiedTable::standalone(schema, TableConfig::default(), Arc::clone(&mgr));
        let mut load = mgr.begin(IsolationLevel::Transaction);
        for i in 0..10 {
            table
                .insert(&load, vec![Value::Int(i), Value::Int(0)])
                .unwrap();
        }
        load.commit().unwrap();
        table.force_full_merge().unwrap();
        let shared = GcShared::new();
        shared.register_table(table.id().0);

        let (paused, wait_paused) = channel();
        let (release, wait_release) = channel::<()>();
        let t = &table;
        std::thread::scope(|s| {
            let merge = s.spawn(move || {
                t.merge_delta_with(MergeDecision::Classic, move || {
                    paused.send(()).unwrap();
                    wait_release.recv().unwrap();
                })
            });
            wait_paused.recv().unwrap();
            // Close a main-resident version while the merge waits between
            // its off-line drain and its publication.
            let mut writer = mgr.begin(IsolationLevel::Transaction);
            t.update_where(
                &writer,
                ColumnId(0),
                &Value::Int(3),
                &[(ColumnId(1), Value::Int(1))],
            )
            .unwrap();
            writer.commit().unwrap();
            t.finish_txn(writer.id());
            for _ in 0..3 {
                let report = t.gc_sweep();
                shared.absorb(&mgr, t.id().0, report);
            }
            release.send(()).unwrap();
            merge.join().unwrap().unwrap();
        });

        let reader = mgr.begin(IsolationLevel::Transaction);
        let read = table.read(&reader);
        assert_eq!(read.point(0, &Value::Int(3)).unwrap().len(), 1);
        assert_eq!(read.count(), 10);
    }

    /// A view pinned before a full merge keeps the L1 slot the merge moved
    /// on and the main it replaced, both carrying marks no sweep rewrites:
    /// an update's new version (begin mark) and a delete (end mark). GC
    /// cycles meanwhile must keep both writers' commit entries while the
    /// view's transaction runs, or the view would lose the updated row's
    /// new version, revive its old one and revive the deleted row. Once it
    /// finishes, the entries go.
    #[test]
    fn trims_keep_the_marks_a_pinned_view_still_reads() {
        use hana_common::{ColumnDef, ColumnId, DataType, Schema, TableConfig, Value};
        use hana_txn::TxnState;

        let mgr = TxnManager::new();
        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("v", DataType::Int),
            ],
        )
        .unwrap();
        let table = UnifiedTable::standalone(schema, TableConfig::default(), Arc::clone(&mgr));
        let mut load = mgr.begin(IsolationLevel::Transaction);
        for i in 0..10 {
            table
                .insert(&load, vec![Value::Int(i), Value::Int(0)])
                .unwrap();
        }
        load.commit().unwrap();
        table.force_full_merge().unwrap();
        let shared = GcShared::new();
        shared.register_table(table.id().0);
        let cycle = || {
            let report = table.gc_sweep();
            shared.absorb(&mgr, table.id().0, report);
        };

        let mut updater = mgr.begin(IsolationLevel::Transaction);
        let set = [(ColumnId(1), Value::Int(1))];
        table
            .update_where(&updater, ColumnId(0), &Value::Int(3), &set)
            .unwrap();
        updater.commit().unwrap();
        let mut deleter = mgr.begin(IsolationLevel::Transaction);
        table
            .delete_where(&deleter, ColumnId(0), &Value::Int(5))
            .unwrap();
        deleter.commit().unwrap();
        for w in [&updater, &deleter] {
            table.finish_txn(w.id());
        }

        let mut reader = mgr.begin(IsolationLevel::Transaction);
        let view = table.read(&reader);
        table.force_full_merge().unwrap();
        for _ in 0..3 {
            cycle();
        }
        for w in [&updater, &deleter] {
            assert!(matches!(mgr.state_of(w.id()), TxnState::Committed(_)));
        }
        assert_eq!(view.count(), 9);
        let row3 = view.point(0, &Value::Int(3)).unwrap();
        assert_eq!(row3, vec![vec![Value::Int(3), Value::Int(1)]]);
        assert!(view.point(0, &Value::Int(5)).unwrap().is_empty());

        drop(view);
        reader.commit().unwrap();
        cycle();
        cycle();
        assert_eq!(
            mgr.finished_counts(),
            (0, 0),
            "the entries go once the view is done"
        );
    }

    #[test]
    fn initial_marks_settle_without_a_full_walk() {
        const ROWS: usize = 100_000;
        let mgr = TxnManager::new();
        let mut committed = mgr.begin(IsolationLevel::Transaction);
        let (id, mark) = (committed.id().0, committed.id().mark());
        let cts = committed.commit().unwrap();
        // A recovery image: a begin mark, three end marks, two settled ends.
        let mut begins = vec![1; ROWS];
        begins[10] = mark;
        let mut ends = vec![COMMIT_TS_MAX; ROWS];
        for pos in [20, 30_000, 99_999] {
            ends[pos] = mark;
        }
        ends[40] = 1;
        ends[50] = 1;
        let part = stamped_part(0, begins, ends);
        let table = crate::table::UnifiedTable::standalone(
            hana_common::Schema::new(
                "t",
                vec![hana_common::ColumnDef::new(
                    "id",
                    hana_common::DataType::Int,
                )],
            )
            .unwrap(),
            hana_common::TableConfig::default(),
            Arc::clone(&mgr),
        );
        table.state.write().main = Arc::new(hana_store::MainStore::from_parts(
            table.schema.clone(),
            vec![Arc::new(part)],
        ));
        let rep = table.gc_sweep();
        assert_eq!(rep.end_stamps_visited, 5);
        assert_eq!(rep.marks_resolved, 3);
        assert!(rep.referenced.contains(&id), "begin marks pin their txn");
        let main = Arc::clone(&table.state.read().main);
        assert_eq!(main.parts()[0].end(30_000), cts);
        assert_eq!(table.gc_sweep().end_stamps_visited, 0);
    }
}
