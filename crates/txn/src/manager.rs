//! The central transaction manager.

use crate::snapshot::{IsolationLevel, Snapshot};
use hana_common::{HanaError, Result, TableId, Timestamp, TxnId};
use parking_lot::Mutex;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Running; its writes are visible only to itself.
    Active,
    /// Committed at a concrete timestamp.
    Committed(Timestamp),
    /// Rolled back; its writes are invisible to everyone.
    Aborted,
}

/// How a marked stamp resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Plain committed timestamp.
    Committed(Timestamp),
    /// Written by a still-running transaction.
    Uncommitted(TxnId),
    /// Written by an aborted transaction.
    Aborted,
}

#[derive(Default)]
struct Inner {
    /// Active transactions → their begin snapshot timestamp.
    active: FxHashMap<u64, Timestamp>,
    /// Commit table: txn id → commit timestamp.
    commits: FxHashMap<u64, Timestamp>,
    /// Aborted transaction ids.
    aborted: FxHashSet<u64>,
    /// Multiset of snapshot timestamps currently pinned by active
    /// transactions (drives the GC watermark).
    pinned: BTreeMap<Timestamp, usize>,
}

/// MVCC transaction manager: clock, active set, commit table, watermark.
pub struct TxnManager {
    /// Commit clock; the value is the timestamp of the latest commit.
    clock: AtomicU64,
    next_txn: AtomicU64,
    inner: Mutex<Inner>,
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager {
            clock: AtomicU64::new(1),
            next_txn: AtomicU64::new(1),
            inner: Mutex::new(Inner::default()),
        }
    }
}

impl TxnManager {
    /// A fresh manager with clock at 1.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Current value of the commit clock.
    pub fn now(&self) -> Timestamp {
        self.clock.load(Ordering::SeqCst)
    }

    /// Advance the clock to at least `ts` (used by recovery to resume past
    /// the highest replayed commit timestamp).
    pub fn advance_clock_to(&self, ts: Timestamp) {
        self.clock.fetch_max(ts, Ordering::SeqCst);
    }

    /// Begin a transaction under the given isolation level.
    pub fn begin(self: &Arc<Self>, level: IsolationLevel) -> Transaction {
        let id = self.next_txn.fetch_add(1, Ordering::SeqCst);
        // The clock is read under the lock that pins it: read before, a
        // commit and a `watermark()` could pass the snapshot while it is
        // not pinned yet, and a merge would drop versions it still sees.
        let begin_ts = {
            let mut inner = self.inner.lock();
            let begin_ts = self.now();
            inner.active.insert(id, begin_ts);
            *inner.pinned.entry(begin_ts).or_insert(0) += 1;
            begin_ts
        };
        Transaction {
            mgr: Arc::clone(self),
            id: TxnId(id),
            begin_ts,
            level,
            finished: false,
            touched: Mutex::new(Vec::new()),
        }
    }

    /// Commit `txn`, returning its commit timestamp.
    ///
    /// Ordering matters for snapshot stability: the commit-table entry must
    /// be visible *before* the clock reaches `cts`. Otherwise a reader whose
    /// snapshot equals `cts` could resolve one of the transaction's marks as
    /// "uncommitted" (old version still live) and, a moment later, another
    /// as "committed at cts ≤ ts" (new version visible) — seeing both
    /// versions of one record. Publishing the entry under the lock and only
    /// then advancing the clock makes the transition atomic for readers.
    pub fn commit(&self, txn: &mut Transaction) -> Result<Timestamp> {
        if txn.finished {
            return Err(HanaError::Txn(format!("{} already finished", txn.id)));
        }
        let mut inner = self.inner.lock();
        let cts = self.clock.load(Ordering::SeqCst) + 1;
        inner.active.remove(&txn.id.0);
        inner.commits.insert(txn.id.0, cts);
        Self::unpin(&mut inner, txn.begin_ts);
        // Clock advance last, still under the lock (serializes cts values).
        self.clock.store(cts, Ordering::SeqCst);
        drop(inner);
        txn.finished = true;
        Ok(cts)
    }

    /// Abort `txn`; its stamps resolve to [`Resolution::Aborted`] from now on.
    pub fn abort(&self, txn: &mut Transaction) -> Result<()> {
        if txn.finished {
            return Err(HanaError::Txn(format!("{} already finished", txn.id)));
        }
        let mut inner = self.inner.lock();
        inner.active.remove(&txn.id.0);
        inner.aborted.insert(txn.id.0);
        Self::unpin(&mut inner, txn.begin_ts);
        txn.finished = true;
        Ok(())
    }

    fn unpin(inner: &mut Inner, ts: Timestamp) {
        if let Some(n) = inner.pinned.get_mut(&ts) {
            *n -= 1;
            if *n == 0 {
                inner.pinned.remove(&ts);
            }
        }
    }

    /// Resolve a transaction's state.
    pub fn state_of(&self, txn: TxnId) -> TxnState {
        let inner = self.inner.lock();
        if inner.active.contains_key(&txn.0) {
            TxnState::Active
        } else if let Some(&cts) = inner.commits.get(&txn.0) {
            TxnState::Committed(cts)
        } else if inner.aborted.contains(&txn.0) {
            TxnState::Aborted
        } else {
            // Unknown ids are treated as aborted: they can only come from
            // stamps of a crashed, never-committed writer.
            TxnState::Aborted
        }
    }

    /// Resolve a begin/end stamp that carries the [`TXN_MARK`] bit.
    ///
    /// [`TXN_MARK`]: hana_common::TXN_MARK
    pub fn resolve_mark(&self, txn: TxnId) -> Resolution {
        match self.state_of(txn) {
            TxnState::Active => Resolution::Uncommitted(txn),
            TxnState::Committed(ts) => Resolution::Committed(ts),
            TxnState::Aborted => Resolution::Aborted,
        }
    }

    /// The oldest snapshot timestamp still pinned by an active transaction,
    /// or the current clock when none are active. Versions that ended before
    /// this watermark can never be seen again and may be garbage-collected
    /// by a merge.
    pub fn watermark(&self) -> Timestamp {
        let inner = self.inner.lock();
        inner
            .pinned
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.now())
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.inner.lock().active.len()
    }

    /// `(commit-table entries, aborted-set entries)` — the finished-txn
    /// bookkeeping that [`trim_finished`](Self::trim_finished) bounds.
    pub fn finished_counts(&self) -> (usize, usize) {
        let inner = self.inner.lock();
        (inner.commits.len(), inner.aborted.len())
    }

    /// The begin epoch: every transaction that began before this call has
    /// an id below the returned value.
    pub fn begin_epoch(&self) -> u64 {
        self.next_txn.load(Ordering::SeqCst)
    }

    /// Drop finished-transaction bookkeeping that no stamp can need anymore.
    ///
    /// The GC calls this after a mark-resolution sweep:
    ///
    /// * `referenced` — txn ids still carried by *some* unresolved mark in
    ///   any store; their entries must survive.
    /// * `committed_before` — only commit entries with `cts <=
    ///   committed_before` are candidates. The caller passes a timestamp
    ///   captured *before* its sweep started, so any transaction that
    ///   committed mid-sweep (and whose fresh marks the sweep may have
    ///   missed) stays resolvable.
    /// * `epoch` — the [`begin_epoch`](Self::begin_epoch) read after the
    ///   sweep captured the structures it walked. A candidate's marks can
    ///   survive only in structures a merge replaced before that capture,
    ///   and only a read view pinned by a transaction that began before it
    ///   can still reach them.
    /// * `pending` — the candidates of earlier cycles, each with the epoch
    ///   of the cycle that first found it. A commit entry is removed only
    ///   if it was pending and is still a candidate, and every transaction
    ///   that began before its epoch has finished. The map is then
    ///   replaced by this cycle's candidates (keeping their first epochs).
    ///
    /// Unreferenced *aborted* ids are removed immediately: an unknown id
    /// resolves to `Aborted` anyway, so dropping the entry never changes a
    /// resolution. Returns the number of entries removed.
    pub fn trim_finished(
        &self,
        referenced: &FxHashSet<u64>,
        committed_before: Timestamp,
        epoch: u64,
        pending: &mut FxHashMap<u64, u64>,
    ) -> usize {
        let mut inner = self.inner.lock();
        let before = inner.commits.len() + inner.aborted.len();
        inner.aborted.retain(|id| referenced.contains(id));
        let oldest_active = inner
            .active
            .keys()
            .copied()
            .min()
            .unwrap_or_else(|| self.begin_epoch());
        let mut next = FxHashMap::default();
        inner.commits.retain(|id, &mut cts| {
            if cts > committed_before || referenced.contains(id) {
                return true;
            }
            match pending.get(id) {
                Some(&first) if first <= oldest_active => false,
                first => {
                    next.insert(*id, first.copied().unwrap_or(epoch));
                    true
                }
            }
        });
        *pending = next;
        before - (inner.commits.len() + inner.aborted.len())
    }
}

/// A client transaction handle.
///
/// Dropping an unfinished transaction aborts it (write safety by default).
pub struct Transaction {
    mgr: Arc<TxnManager>,
    id: TxnId,
    begin_ts: Timestamp,
    level: IsolationLevel,
    finished: bool,
    /// Tables this transaction wrote (or locked rows in), recorded by the
    /// storage layer so commit/abort visit only these instead of the whole
    /// catalog. Interior mutability: write paths hold `&Transaction`.
    touched: Mutex<Vec<TableId>>,
}

impl Transaction {
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The snapshot timestamp taken at begin.
    pub fn begin_ts(&self) -> Timestamp {
        self.begin_ts
    }

    /// The isolation level.
    pub fn level(&self) -> IsolationLevel {
        self.level
    }

    /// True once committed or aborted.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The snapshot a new statement should read under.
    ///
    /// Transaction-level SI always returns the begin snapshot; statement-
    /// level SI returns a fresh snapshot at the current clock, seeing all
    /// commits so far.
    pub fn read_snapshot(&self) -> Snapshot {
        let ts = match self.level {
            IsolationLevel::Transaction => self.begin_ts,
            IsolationLevel::Statement => self.mgr.now(),
        };
        Snapshot::for_txn(ts, self.id)
    }

    /// Record that this transaction touched `table` (wrote a row or
    /// acquired a row lock there). Idempotent; the set stays tiny for OLTP
    /// transactions, so a linear dedup beats hashing.
    pub fn note_table(&self, table: TableId) {
        let mut touched = self.touched.lock();
        if !touched.contains(&table) {
            touched.push(table);
        }
    }

    /// The tables recorded by [`note_table`](Self::note_table), in first-
    /// touch order.
    pub fn touched_tables(&self) -> Vec<TableId> {
        self.touched.lock().clone()
    }

    /// Commit via the owning manager.
    pub fn commit(&mut self) -> Result<Timestamp> {
        let mgr = Arc::clone(&self.mgr);
        mgr.commit(self)
    }

    /// Abort via the owning manager.
    pub fn abort(&mut self) -> Result<()> {
        let mgr = Arc::clone(&self.mgr);
        mgr.abort(self)
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_advances_clock_and_commit_table() {
        let mgr = TxnManager::new();
        let t0 = mgr.now();
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        let id = txn.id();
        assert_eq!(mgr.state_of(id), TxnState::Active);
        let cts = txn.commit().unwrap();
        assert!(cts > t0);
        assert_eq!(mgr.now(), cts);
        assert_eq!(mgr.state_of(id), TxnState::Committed(cts));
        assert_eq!(mgr.resolve_mark(id), Resolution::Committed(cts));
    }

    #[test]
    fn abort_is_remembered() {
        let mgr = TxnManager::new();
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        let id = txn.id();
        txn.abort().unwrap();
        assert_eq!(mgr.state_of(id), TxnState::Aborted);
        assert_eq!(mgr.resolve_mark(id), Resolution::Aborted);
    }

    #[test]
    fn double_finish_rejected() {
        let mgr = TxnManager::new();
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        txn.commit().unwrap();
        assert!(txn.commit().is_err());
        assert!(txn.abort().is_err());
    }

    #[test]
    fn drop_aborts() {
        let mgr = TxnManager::new();
        let id = {
            let txn = mgr.begin(IsolationLevel::Transaction);
            txn.id()
        };
        assert_eq!(mgr.state_of(id), TxnState::Aborted);
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn unknown_txn_resolves_aborted() {
        let mgr = TxnManager::new();
        assert_eq!(mgr.state_of(TxnId(999)), TxnState::Aborted);
    }

    #[test]
    fn statement_si_sees_later_commits_transaction_si_does_not() {
        let mgr = TxnManager::new();
        let stmt_txn = mgr.begin(IsolationLevel::Statement);
        let txn_txn = mgr.begin(IsolationLevel::Transaction);
        let snap_before_t = txn_txn.read_snapshot();
        let snap_before_s = stmt_txn.read_snapshot();
        // A third transaction commits in between.
        let mut writer = mgr.begin(IsolationLevel::Transaction);
        let cts = writer.commit().unwrap();
        let snap_after_t = txn_txn.read_snapshot();
        let snap_after_s = stmt_txn.read_snapshot();
        // Transaction-level snapshots are frozen.
        assert_eq!(snap_before_t.ts(), snap_after_t.ts());
        assert!(snap_after_t.ts() < cts);
        // Statement-level snapshots advance.
        assert!(snap_after_s.ts() >= cts);
        assert!(snap_before_s.ts() < snap_after_s.ts());
    }

    #[test]
    fn watermark_tracks_oldest_active() {
        let mgr = TxnManager::new();
        let old = mgr.begin(IsolationLevel::Transaction);
        let w0 = mgr.watermark();
        assert_eq!(w0, old.begin_ts());
        // New commits move the clock but not the watermark.
        let mut w = mgr.begin(IsolationLevel::Transaction);
        w.commit().unwrap();
        assert_eq!(mgr.watermark(), w0);
        drop(old);
        // With nothing active, watermark follows the clock.
        assert_eq!(mgr.watermark(), mgr.now());
    }

    #[test]
    fn touched_tables_dedup_in_touch_order() {
        let mgr = TxnManager::new();
        let txn = mgr.begin(IsolationLevel::Transaction);
        assert!(txn.touched_tables().is_empty());
        txn.note_table(TableId(3));
        txn.note_table(TableId(1));
        txn.note_table(TableId(3));
        assert_eq!(txn.touched_tables(), vec![TableId(3), TableId(1)]);
    }

    #[test]
    fn advance_clock_for_recovery() {
        let mgr = TxnManager::new();
        mgr.advance_clock_to(500);
        assert_eq!(mgr.now(), 500);
        mgr.advance_clock_to(100); // never goes backwards
        assert_eq!(mgr.now(), 500);
    }
}
