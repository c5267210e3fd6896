//! Write paths: insert, update, delete, bulk load.
//!
//! All writes enter the L1-delta (except bulk loads, which "may directly go
//! into the L2-delta, bypassing the L1-delta"). Updates and deletes close
//! the current version wherever it lives and — for updates — write the new
//! version into the L1, restarting the record's life cycle. REDO records are
//! written exactly at first appearance (§3.2).

use crate::loc::Loc;
use crate::table::{TableState, UnifiedTable};
use hana_common::{ColumnId, HanaError, Result, RowId, Value, COMMIT_TS_MAX};
use hana_persist::LogRecord;
use hana_txn::{version_visible, write_allowed, Snapshot, Transaction, WriteCheck};

impl UnifiedTable {
    /// Insert a new row. Uniqueness is validated against all three stages
    /// through their dictionaries/inverted indexes (§3.1's "efficient
    /// validations of uniqueness constraints").
    pub fn insert(&self, txn: &Transaction, row: Vec<Value>) -> Result<RowId> {
        self.schema.check_row(&row)?;
        let _f = self.fence.read();
        // Record the touch up front: even a failed write may leave a row
        // lock behind, and commit/abort only release locks on noted tables.
        txn.note_table(self.id);
        let state = self.state.read();
        let snap = txn.read_snapshot();
        self.check_unique(&state, &snap, txn, &row, None)?;
        let row_id = self.alloc_row_id();
        self.redo(&LogRecord::InsertL1 {
            table: self.id,
            row_id,
            txn: txn.id(),
            row: row.clone(),
        })?;
        self.l1.insert(row_id, row, txn.id().mark());
        Ok(row_id)
    }

    /// Bulk load rows directly into the L2-delta (the paper's special
    /// treatment "for efficient bulk insertions"). One REDO record covers
    /// the whole batch. Returns the first assigned row id; the batch
    /// occupies consecutive ids.
    pub fn bulk_load(&self, txn: &Transaction, rows: Vec<Vec<Value>>) -> Result<RowId> {
        for row in &rows {
            self.schema.check_row(row)?;
        }
        let _f = self.fence.read();
        txn.note_table(self.id);
        // Bulk loads and L1→L2 merges are the only producers of open-L2
        // rows; taking `l1_merge_lock` first (lock order: fence →
        // l1_merge_lock → state) keeps `publish_all` exact for both.
        let _l1m = self.l1_merge_lock.lock();
        let state = self.state.read();
        let snap = txn.read_snapshot();
        // Uniqueness: against existing data and within the batch.
        let unique_cols: Vec<ColumnId> = self.schema.unique_columns().collect();
        for col in &unique_cols {
            let mut seen = rustc_hash::FxHashSet::default();
            for row in &rows {
                let v = &row[col.idx()];
                if !seen.insert(v.clone()) {
                    return Err(HanaError::Constraint(format!(
                        "duplicate key {v} within bulk load batch"
                    )));
                }
            }
        }
        for row in &rows {
            self.check_unique(&state, &snap, txn, row, None)?;
        }
        let first = self.alloc_row_id_block(rows.len() as u64);
        self.redo(&LogRecord::BulkLoadL2 {
            table: self.id,
            first_row_id: first,
            txn: txn.id(),
            rows: rows.clone(),
        })?;
        let batch: Vec<(RowId, Vec<Value>, u64, u64)> = rows
            .into_iter()
            .enumerate()
            .map(|(k, row)| {
                (
                    RowId(first.0 + k as u64),
                    row,
                    txn.id().mark(),
                    COMMIT_TS_MAX,
                )
            })
            .collect();
        state.l2.append_batch(&batch)?;
        state.l2.publish_all();
        Ok(first)
    }

    /// Update the (single) visible row whose `key_col` equals `key`,
    /// applying all `(column, value)` assignments. The update closes the
    /// current version and writes a new version into the L1-delta.
    pub fn update_where(
        &self,
        txn: &Transaction,
        key_col: ColumnId,
        key: &Value,
        updates: &[(ColumnId, Value)],
    ) -> Result<RowId> {
        for (col, v) in updates {
            self.schema.check_value(v, self.schema.column(*col))?;
        }
        let _f = self.fence.read();
        txn.note_table(self.id);
        let state = self.state.read();
        let snap = txn.read_snapshot();
        let (loc, row_id, old_row) = self.current_version(&state, &snap, txn, key_col, key)?;
        let mut new_row = old_row;
        for (col, v) in updates {
            new_row[col.idx()] = v.clone();
        }
        // Re-check uniqueness for changed unique columns, ignoring this row.
        self.check_unique(&state, &snap, txn, &new_row, Some(row_id))?;
        self.redo(&LogRecord::Delete {
            table: self.id,
            row_id,
            txn: txn.id(),
        })?;
        self.redo(&LogRecord::InsertL1 {
            table: self.id,
            row_id,
            txn: txn.id(),
            row: new_row.clone(),
        })?;
        self.store_end_locked(&state, loc, txn.id().mark());
        #[cfg(debug_assertions)]
        {
            let (_, _, end, _) = self
                .version_at_locked(&state, loc)
                .expect("closed version must still be addressable");
            debug_assert_eq!(end, txn.id().mark(), "end stamp must stick at {loc:?}");
        }
        self.l1.insert(row_id, new_row, txn.id().mark());
        Ok(row_id)
    }

    /// Delete the visible row whose `key_col` equals `key`.
    pub fn delete_where(&self, txn: &Transaction, key_col: ColumnId, key: &Value) -> Result<RowId> {
        let _f = self.fence.read();
        txn.note_table(self.id);
        let state = self.state.read();
        let snap = txn.read_snapshot();
        let (loc, row_id, _) = self.current_version(&state, &snap, txn, key_col, key)?;
        self.redo(&LogRecord::Delete {
            table: self.id,
            row_id,
            txn: txn.id(),
        })?;
        self.store_end_locked(&state, loc, txn.id().mark());
        Ok(row_id)
    }

    /// Find the visible current version matching `key_col = key`, acquire
    /// its row write lock, and admit the write (first-writer-wins).
    fn current_version(
        &self,
        state: &TableState,
        snap: &Snapshot,
        txn: &Transaction,
        key_col: ColumnId,
        key: &Value,
    ) -> Result<(Loc, RowId, Vec<Value>)> {
        // A NULL key equals nothing, in every stage: it never enters an L2
        // or main dictionary, so only the L1's plain values could match it.
        let candidates = match key.is_null() {
            true => Vec::new(),
            false => self.versions_by_value_locked(state, key_col.idx(), key),
        };
        let mut found: Option<(Loc, RowId, u64, u64, Vec<Value>)> = None;
        for loc in candidates {
            let Some((row_id, begin, end, values)) = self.version_at_locked(state, loc) else {
                continue;
            };
            if version_visible(&self.mgr, snap, begin, end) {
                if found.is_some() {
                    return Err(HanaError::Constraint(format!(
                        "predicate {key} matches more than one visible row in {}",
                        self.schema.name
                    )));
                }
                found = Some((loc, row_id, begin, end, values));
            }
        }
        let Some((loc, row_id, _, _, values)) = found else {
            return Err(HanaError::NotFound(format!(
                "no visible row with {} = {key} in {}",
                self.schema.column(key_col).name,
                self.schema.name
            )));
        };
        self.locks.try_lock(row_id, txn.id())?;
        // Re-read the stamps AFTER taking the row lock: between the
        // visibility check and the lock acquisition another transaction may
        // have closed this version, committed and released its lock.
        // Admitting the write on the stale pre-lock stamps would overwrite
        // that committed deletion (lost update / duplicate visibility).
        let Some((_, begin, end, _)) = self.version_at_locked(state, loc) else {
            return Err(HanaError::WriteConflict(format!(
                "row with {} = {key} moved during lock acquisition",
                self.schema.column(key_col).name
            )));
        };
        match write_allowed(&self.mgr, snap, txn.id(), begin, end) {
            WriteCheck::Ok => Ok((loc, row_id, values)),
            WriteCheck::AlreadyDead => Err(HanaError::NotFound(format!(
                "row with {} = {key} is gone",
                self.schema.column(key_col).name
            ))),
            WriteCheck::ConflictUncommitted(t) => Err(HanaError::WriteConflict(format!(
                "row is being written by {t}"
            ))),
            WriteCheck::ConflictCommitted(ts) => Err(HanaError::WriteConflict(format!(
                "row version committed at {ts}, after this snapshot"
            ))),
        }
    }

    /// Uniqueness check for every unique column of `row`, skipping versions
    /// of `ignore_row` (the row being updated). A *visible* duplicate is a
    /// constraint violation; an uncommitted duplicate by another in-flight
    /// transaction is a (retryable) write conflict.
    fn check_unique(
        &self,
        state: &TableState,
        snap: &Snapshot,
        txn: &Transaction,
        row: &[Value],
        ignore_row: Option<RowId>,
    ) -> Result<()> {
        for col in self.schema.unique_columns() {
            let v = &row[col.idx()];
            for loc in self.versions_by_value_locked(state, col.idx(), v) {
                let Some((row_id, begin, end, _)) = self.version_at_locked(state, loc) else {
                    continue;
                };
                if ignore_row == Some(row_id) {
                    continue;
                }
                if version_visible(&self.mgr, snap, begin, end) {
                    return Err(HanaError::Constraint(format!(
                        "duplicate key {v} for unique column {} of {}",
                        self.schema.column(col).name,
                        self.schema.name
                    )));
                }
                // Not visible — but is it a live insert of another txn?
                if end == COMMIT_TS_MAX {
                    if let Some(writer) = hana_common::TxnId::from_mark(begin) {
                        if writer != txn.id()
                            && matches!(
                                self.mgr.resolve_mark(writer),
                                hana_txn::Resolution::Uncommitted(_)
                            )
                        {
                            return Err(HanaError::WriteConflict(format!(
                                "key {v} is being inserted by {writer}"
                            )));
                        }
                        // Committed after our snapshot: also a conflict under SI.
                        if writer != txn.id() {
                            if let hana_txn::Resolution::Committed(cts) =
                                self.mgr.resolve_mark(writer)
                            {
                                if cts > snap.ts() {
                                    return Err(HanaError::WriteConflict(format!(
                                        "key {v} was inserted at {cts}, after this snapshot"
                                    )));
                                }
                            }
                        }
                    } else if begin > snap.ts() {
                        return Err(HanaError::WriteConflict(format!(
                            "key {v} was inserted at {begin}, after this snapshot"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}
