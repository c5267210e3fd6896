//! The L1-to-L2 merge (paper §3, Fig 6).
//!
//! "Rows of the L1-delta are split into their corresponding columnar values
//! and column-by-column inserted into the L2-delta structure. … In a third
//! step, the propagated entries are removed from the L1-delta." The
//! transition is *incremental*: it never reorganizes the L2-delta, and it
//! stops at the first L1 slot still carrying an in-flight transaction's
//! stamp, so running transactions are never disturbed.
//!
//! This function performs the copy (phases 1+2) and reports what the caller
//! must publish atomically (phase 3): advance the L2 reader fence and
//! truncate the L1 prefix under the table lock, so every reader sees each
//! row in exactly one stage. Side effects that must not happen twice — in
//! particular history archival for historic tables — are *deferred* into the
//! outcome: a run may be abandoned (e.g. the target L2 got frozen while the
//! copy ran off-lock), and only the caller knows whether publication
//! actually happened.

use hana_column::Pos;
use hana_common::{Result, RowId, Timestamp, TxnId, COMMIT_TS_MAX};
use hana_rowstore::L1Delta;
use hana_store::{HistoricVersion, L2Delta};
use hana_txn::{Resolution, TxnManager};

/// Report of one L1→L2 merge run.
#[derive(Debug, Default)]
pub struct L1MergeOutcome {
    /// `(row id, old L1 logical position, new L2 position)` per moved row.
    pub moved: Vec<(RowId, u64, Pos)>,
    /// Row ids of versions dropped as garbage (or aborted inserts).
    pub dropped: Vec<(RowId, u64)>,
    /// Advance the L1 fence to this logical position (exclusive).
    pub truncate_upto: u64,
    /// True if the run stopped early at an unsettled slot.
    pub blocked: bool,
    /// Garbage versions of a historic table, to be archived by the caller
    /// *iff* this run publishes (never on an abandoned run).
    pub historic: Vec<HistoricVersion>,
}

fn resolve(mgr: &TxnManager, ts: Timestamp, is_begin: bool) -> Option<Option<Timestamp>> {
    // Outer None = unsettled (stop); inner None = aborted begin (garbage).
    match TxnId::from_mark(ts) {
        None => Some(Some(ts)),
        Some(writer) => match mgr.resolve_mark(writer) {
            Resolution::Committed(cts) => Some(Some(cts)),
            Resolution::Aborted => Some(if is_begin { None } else { Some(COMMIT_TS_MAX) }),
            Resolution::Uncommitted(_) => None,
        },
    }
}

/// Copy the longest settled L1 prefix (at most `max_rows` slots) into the
/// L2-delta. The caller must afterwards — under its table lock — call
/// `l2.publish_all()` and `l1.truncate_prefix(outcome.truncate_upto)` and
/// update its row-id index from `outcome.moved`.
pub fn l1_to_l2_merge(
    l1: &L1Delta,
    l2: &L2Delta,
    mgr: &TxnManager,
    collect_history: bool,
    max_rows: usize,
) -> Result<L1MergeOutcome> {
    let snap = l1.snapshot();
    let watermark = mgr.watermark();
    let mut outcome = L1MergeOutcome {
        truncate_upto: snap.start,
        ..Default::default()
    };
    let mut batch: Vec<(RowId, Vec<hana_common::Value>, Timestamp, Timestamp)> = Vec::new();
    let mut batch_positions: Vec<u64> = Vec::new();

    'walk: for pos in snap.start..snap.end {
        if batch.len() + outcome.dropped.len() >= max_rows {
            break;
        }
        let Some(slot) = snap.slot(pos) else {
            break;
        };
        let begin = match resolve(mgr, slot.begin(), true) {
            None => {
                outcome.blocked = true;
                break 'walk;
            }
            Some(b) => b,
        };
        let end = match resolve(mgr, slot.end(), false) {
            None => {
                outcome.blocked = true;
                break 'walk;
            }
            Some(e) => e.expect("end never drops"),
        };
        outcome.truncate_upto = pos + 1;
        let Some(begin) = begin else {
            // Aborted insert: disappears.
            outcome.dropped.push((slot.row_id, pos));
            continue;
        };
        if end <= watermark {
            // Dead to every live and future snapshot.
            if collect_history {
                outcome.historic.push(HistoricVersion {
                    row_id: slot.row_id,
                    begin,
                    end,
                    values: slot.values.to_vec(),
                });
            }
            outcome.dropped.push((slot.row_id, pos));
            continue;
        }
        batch.push((slot.row_id, slot.values.to_vec(), begin, end));
        batch_positions.push(pos);
    }

    if !batch.is_empty() {
        // Phase 1+2 of Fig 6: dictionary reservation + columnar append.
        let first = l2.append_batch(&batch)?;
        outcome.moved = batch
            .iter()
            .zip(&batch_positions)
            .enumerate()
            .map(|(k, ((row_id, _, _, _), &l1_pos))| (*row_id, l1_pos, first + k as Pos))
            .collect();
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::{ColumnDef, DataType, Schema, Value};
    use hana_store::HistoryStore;
    use hana_txn::IsolationLevel;

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("city", DataType::Str),
            ],
        )
        .unwrap()
    }

    fn fill_l1(l1: &L1Delta, mgr: &std::sync::Arc<TxnManager>, n: u64) {
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for i in 0..n {
            l1.insert(
                RowId(i),
                vec![Value::Int(i as i64), Value::str(format!("c{}", i % 3))],
                txn.id().mark(),
            );
        }
        txn.commit().unwrap();
    }

    #[test]
    fn moves_settled_prefix_and_reports_mapping() {
        let mgr = TxnManager::new();
        let l1 = L1Delta::new([0]);
        let l2 = L2Delta::new(schema(), 0);
        fill_l1(&l1, &mgr, 10);
        let out = l1_to_l2_merge(&l1, &l2, &mgr, false, usize::MAX).unwrap();
        assert_eq!(out.moved.len(), 10);
        assert_eq!(out.truncate_upto, 10);
        assert!(!out.blocked);
        // Stamps resolved to real commit timestamps.
        assert!(hana_common::timestamp::is_committed_stamp(l2.begin(0)));
        // Values pivoted intact.
        for (row_id, l1_pos, l2_pos) in &out.moved {
            assert_eq!(l2.row_id(*l2_pos), *row_id);
            assert_eq!(l2.value(*l2_pos, 0), Value::Int(*l1_pos as i64));
        }
        // Caller-side publication protocol.
        assert_eq!(l2.published_len(), 0);
        l2.publish_all();
        l1.truncate_prefix(out.truncate_upto);
        assert_eq!(l2.published_len(), 10);
        assert_eq!(l1.len(), 0);
    }

    #[test]
    fn stops_at_uncommitted_slot() {
        let mgr = TxnManager::new();
        let l1 = L1Delta::new([0]);
        let l2 = L2Delta::new(schema(), 0);
        fill_l1(&l1, &mgr, 3);
        // An in-flight insert in the middle of the stream.
        let open = mgr.begin(IsolationLevel::Transaction);
        l1.insert(
            RowId(100),
            vec![Value::Int(100), Value::str("x")],
            open.id().mark(),
        );
        fill_l1(&l1, &mgr, 2); // settled rows behind it
        let out = l1_to_l2_merge(&l1, &l2, &mgr, false, usize::MAX).unwrap();
        assert!(out.blocked);
        assert_eq!(out.moved.len(), 3);
        assert_eq!(out.truncate_upto, 3);
        l2.publish_all();
        l1.truncate_prefix(out.truncate_upto);
        // After the blocker resolves, the rest moves.
        drop(open); // abort it instead
        let out2 = l1_to_l2_merge(&l1, &l2, &mgr, false, usize::MAX).unwrap();
        assert!(!out2.blocked);
        assert_eq!(out2.moved.len(), 2);
        // The aborted insert was dropped.
        assert_eq!(out2.dropped.len(), 1);
        assert_eq!(out2.dropped[0].0, RowId(100));
    }

    #[test]
    fn respects_max_rows() {
        let mgr = TxnManager::new();
        let l1 = L1Delta::new([0]);
        let l2 = L2Delta::new(schema(), 0);
        fill_l1(&l1, &mgr, 10);
        let out = l1_to_l2_merge(&l1, &l2, &mgr, false, 4).unwrap();
        assert_eq!(out.moved.len(), 4);
        assert_eq!(out.truncate_upto, 4);
    }

    #[test]
    fn garbage_goes_to_history_for_historic_tables() {
        let mgr = TxnManager::new();
        let l1 = L1Delta::new([0]);
        let l2 = L2Delta::new(schema(), 0);
        let history = HistoryStore::new();
        // Insert and delete within committed transactions.
        let mut t1 = mgr.begin(IsolationLevel::Transaction);
        l1.insert(
            RowId(0),
            vec![Value::Int(0), Value::str("old")],
            t1.id().mark(),
        );
        t1.commit().unwrap();
        let mut t2 = mgr.begin(IsolationLevel::Transaction);
        l1.with_slot(0, |s| s.store_end(t2.id().mark())).unwrap();
        t2.commit().unwrap();
        // No active snapshots ⇒ watermark is current ⇒ the version is garbage.
        let out = l1_to_l2_merge(&l1, &l2, &mgr, true, usize::MAX).unwrap();
        assert_eq!(out.moved.len(), 0);
        assert_eq!(out.dropped.len(), 1);
        // Archival is deferred to the caller's publication step.
        assert_eq!(history.len(), 0);
        assert_eq!(out.historic.len(), 1);
        for v in out.historic {
            history.push(v);
        }
        let v = &history.history_of(RowId(0))[0];
        assert_eq!(v.values[1], Value::str("old"));
    }

    #[test]
    fn deleted_but_still_visible_rows_move_with_stamp() {
        let mgr = TxnManager::new();
        let l1 = L1Delta::new([0]);
        let l2 = L2Delta::new(schema(), 0);
        // Hold an old snapshot so the watermark stays behind.
        let pin = mgr.begin(IsolationLevel::Transaction);
        let mut t1 = mgr.begin(IsolationLevel::Transaction);
        l1.insert(
            RowId(0),
            vec![Value::Int(0), Value::str("a")],
            t1.id().mark(),
        );
        t1.commit().unwrap();
        let mut t2 = mgr.begin(IsolationLevel::Transaction);
        l1.with_slot(0, |s| s.store_end(t2.id().mark())).unwrap();
        let del_ts = t2.commit().unwrap();
        let out = l1_to_l2_merge(&l1, &l2, &mgr, false, usize::MAX).unwrap();
        assert_eq!(out.moved.len(), 1);
        assert_eq!(l2.end(0), del_ts);
        drop(pin);
    }

    #[test]
    fn incremental_cost_is_independent_of_l2_size() {
        // Structural check (the timing claim is the Fig 6 bench): merging k
        // rows into a large L2 appends exactly k rows and reuses the
        // existing dictionary.
        let mgr = TxnManager::new();
        let l1 = L1Delta::new([0]);
        let l2 = L2Delta::new(schema(), 0);
        fill_l1(&l1, &mgr, 1000);
        l1_to_l2_merge(&l1, &l2, &mgr, false, usize::MAX).unwrap();
        l1.truncate_prefix(1000);
        let dict_before = l2.with_column(1, 1000, |d, _| d.len());
        fill_l1(&l1, &mgr, 10);
        let out = l1_to_l2_merge(&l1, &l2, &mgr, false, usize::MAX).unwrap();
        assert_eq!(out.moved.len(), 10);
        assert_eq!(l2.len(), 1010);
        // Dictionary unchanged (same 3 cities), no reorganization.
        assert_eq!(l2.with_column(1, 1010, |d, _| d.len()), dict_before);
    }
}
