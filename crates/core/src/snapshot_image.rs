//! Conversion between a live [`UnifiedTable`] and its savepoint
//! [`TableImage`], plus log replay helpers.
//!
//! Imaging resolves the stamps of *finished* transactions (their commit
//! records are about to be truncated with the log); stamps of transactions
//! still in flight stay as marks — their fate is decided by commit/abort
//! records in the post-savepoint log, or by their absence (crash = abort).

use crate::table::UnifiedTable;
use hana_column::{ZoneEntry, ZoneMap};
use hana_common::{Result, RowId, Timestamp, TxnId, COMMIT_TS_MAX};
use hana_persist::{DeltaImage, PartImage, RowImage, TableImage, ZoneImage};
use hana_store::{HistoricVersion, L2Delta, MainColumnData, MainPart, MainStore};
use hana_txn::Resolution;
use std::sync::Arc;

impl UnifiedTable {
    /// Resolve a stamp for imaging: finished transactions become concrete
    /// timestamps; in-flight marks are kept. Returns `None` for an aborted
    /// *begin* (the version is garbage and is not imaged).
    fn image_stamp(&self, ts: Timestamp, is_begin: bool) -> Option<Timestamp> {
        match TxnId::from_mark(ts) {
            None => Some(ts),
            Some(writer) => match self.mgr.resolve_mark(writer) {
                Resolution::Committed(cts) => Some(cts),
                Resolution::Uncommitted(_) => Some(ts), // keep the mark
                Resolution::Aborted => {
                    if is_begin {
                        None
                    } else {
                        Some(COMMIT_TS_MAX)
                    }
                }
            },
        }
    }

    /// Build the savepoint image. The caller (the database savepoint) holds
    /// the write fence; this takes the state lock shared to exclude merge
    /// publications.
    pub fn to_image(&self) -> TableImage {
        let state = self.state.read();
        let mut l1_rows = Vec::with_capacity(self.l1.len());
        for (_, slot) in self.l1.snapshot().iter() {
            let Some(begin) = self.image_stamp(slot.begin(), true) else {
                continue;
            };
            let end = self
                .image_stamp(slot.end(), false)
                .expect("end never drops");
            l1_rows.push(RowImage {
                row_id: slot.row_id,
                begin,
                end,
                values: slot.values.to_vec(),
            });
        }
        // Frozen rows (if a merge is mid-build) fold into the open delta's
        // image; recovery rebuilds one open L2 and re-merges later. Only
        // *published* rows enter the image: an in-flight L1→L2 copy's
        // unpublished tail is still represented by its L1 slots above
        // (truncation and publication are atomic under `state.write()`,
        // which this shared hold excludes).
        let mut l2_rows = Vec::new();
        let mut dump_l2 = |l2: &L2Delta| {
            for pos in 0..l2.published_len() {
                let Some(begin) = self.image_stamp(l2.begin(pos), true) else {
                    continue;
                };
                let end = self
                    .image_stamp(l2.end(pos), false)
                    .expect("end never drops");
                l2_rows.push(RowImage {
                    row_id: l2.row_id(pos),
                    begin,
                    end,
                    values: l2.row(pos),
                });
            }
        };
        if let Some(frozen) = &state.l2_frozen {
            dump_l2(frozen);
        }
        dump_l2(&state.l2);

        let main_parts = state
            .main
            .parts()
            .iter()
            .map(|p| {
                let columns = (0..self.schema.arity())
                    .map(|c| {
                        let dict_vals: Vec<_> = p.dict(c).iter().collect();
                        (dict_vals, p.base(c), p.codes_decoded(c))
                    })
                    .collect();
                let zones = (0..self.schema.arity())
                    .map(|c| {
                        let zm = p.zone_map(c);
                        ZoneImage {
                            part: zone_entry_to_image(zm.part()),
                            chunks: zm
                                .chunks()
                                .iter()
                                .copied()
                                .map(zone_entry_to_image)
                                .collect(),
                        }
                    })
                    .collect();
                let n = p.len();
                PartImage {
                    generation: p.generation(),
                    columns,
                    zones,
                    row_ids: p.row_ids().collect(),
                    begins: (0..n as u32).map(|pos| p.begin(pos)).collect(),
                    ends: (0..n as u32)
                        .map(|pos| self.image_stamp(p.end(pos), false).unwrap())
                        .collect(),
                }
            })
            .collect();

        let history = self
            .history
            .as_ref()
            .map(|h| {
                h.all_versions()
                    .into_iter()
                    .map(|v| RowImage {
                        row_id: v.row_id,
                        begin: v.begin,
                        end: v.end,
                        values: v.values,
                    })
                    .collect()
            })
            .unwrap_or_default();

        TableImage {
            table_id: self.id.0,
            schema: self.schema.clone(),
            config: self.config.clone(),
            next_row_id: self.next_row_id.load(std::sync::atomic::Ordering::SeqCst),
            next_generation: self.next_gen.load(std::sync::atomic::Ordering::SeqCst),
            l1_rows,
            l2: DeltaImage {
                generation: state.l2.generation(),
                rows: l2_rows,
            },
            main_parts,
            passive_count: state.main.passive_parts().len(),
            history,
        }
    }

    /// Rebuild a table from its savepoint image. `resolve` maps a marked
    /// stamp to a replayed outcome: `Some(cts)` if that transaction's commit
    /// record is in the post-savepoint log, `None` otherwise (treat as
    /// aborted).
    pub fn load_image(
        &self,
        image: &TableImage,
        resolve: &dyn Fn(TxnId) -> Option<Timestamp>,
    ) -> Result<()> {
        let fix = |ts: Timestamp, is_begin: bool| -> Option<Timestamp> {
            match TxnId::from_mark(ts) {
                None => Some(ts),
                Some(writer) => match resolve(writer) {
                    Some(cts) => Some(cts),
                    None => {
                        if is_begin {
                            None
                        } else {
                            Some(COMMIT_TS_MAX)
                        }
                    }
                },
            }
        };

        self.next_row_id
            .store(image.next_row_id, std::sync::atomic::Ordering::SeqCst);
        self.next_gen.store(
            image.next_generation.max(1),
            std::sync::atomic::Ordering::SeqCst,
        );

        // L1 rows.
        for r in &image.l1_rows {
            let Some(begin) = fix(r.begin, true) else {
                continue;
            };
            let end = fix(r.end, false).unwrap();
            let pos = self.l1.insert(r.row_id, r.values.clone(), begin);
            if end != COMMIT_TS_MAX {
                self.l1.with_slot(pos, |s| s.store_end(end));
            }
        }

        let mut state = self.state.write();

        // L2 rows (append order reproduces the unsorted dictionaries).
        let l2 = Arc::new(L2Delta::new(self.schema.clone(), image.l2.generation));
        let batch: Vec<(RowId, Vec<hana_common::Value>, Timestamp, Timestamp)> = image
            .l2
            .rows
            .iter()
            .filter_map(|r| {
                let begin = fix(r.begin, true)?;
                let end = fix(r.end, false).unwrap();
                Some((r.row_id, r.values.clone(), begin, end))
            })
            .collect();
        if !batch.is_empty() {
            l2.append_batch(&batch)?;
        }
        l2.publish_all();
        state.l2 = l2;

        // Main parts.
        let parts: Vec<Arc<MainPart>> = image
            .main_parts
            .iter()
            .map(|p| {
                let columns = p
                    .columns
                    .iter()
                    .map(|(dict_vals, base, codes)| MainColumnData {
                        dict: hana_dict::SortedDict::from_sorted_values(dict_vals.clone()),
                        base: *base,
                        codes: codes.clone(),
                    })
                    .collect();
                let ends = p.ends.iter().map(|&e| fix(e, false).unwrap()).collect();
                // Reload persisted zone maps instead of recomputing; images
                // without them (column-count mismatch) fall back to a build.
                let zones = (p.zones.len() == p.columns.len()).then(|| {
                    p.zones
                        .iter()
                        .map(|z| {
                            ZoneMap::from_entries(
                                zone_entry_from_image(z.part),
                                z.chunks
                                    .iter()
                                    .copied()
                                    .map(zone_entry_from_image)
                                    .collect(),
                            )
                        })
                        .collect()
                });
                Arc::new(MainPart::build_with_zones(
                    p.generation,
                    &self.schema,
                    columns,
                    p.row_ids.clone(),
                    p.begins.clone(),
                    ends,
                    self.config.block_size,
                    zones,
                ))
            })
            .collect();
        state.main = Arc::new(MainStore::with_active(
            self.schema.clone(),
            parts,
            image.passive_count,
        ));
        drop(state);

        // History.
        if let Some(h) = &self.history {
            for r in &image.history {
                h.push(HistoricVersion {
                    row_id: r.row_id,
                    begin: r.begin,
                    end: r.end,
                    values: r.values.clone(),
                });
            }
        }
        Ok(())
    }
}

fn zone_entry_to_image(z: ZoneEntry) -> (u32, u32, bool) {
    (z.min, z.max, z.has_nulls)
}

fn zone_entry_from_image((min, max, has_nulls): (u32, u32, bool)) -> ZoneEntry {
    ZoneEntry {
        min,
        max,
        has_nulls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::{ColumnDef, DataType, Schema, TableConfig, Value};
    use hana_merge::MergeDecision;
    use hana_txn::{IsolationLevel, TxnManager};

    fn table() -> (Arc<TxnManager>, Arc<UnifiedTable>) {
        let mgr = TxnManager::new();
        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("city", DataType::Str),
            ],
        )
        .unwrap();
        let t = UnifiedTable::standalone(schema, TableConfig::small(), Arc::clone(&mgr));
        (mgr, t)
    }

    #[test]
    fn image_round_trip_across_all_stages() {
        let (mgr, t) = table();
        // Rows in main, L2 and L1.
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for i in 0..6 {
            t.insert(&txn, vec![Value::Int(i), Value::str(format!("c{i}"))])
                .unwrap();
        }
        txn.commit().unwrap();
        t.drain_l1().unwrap();
        t.merge_delta_as(MergeDecision::Classic).unwrap();
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for i in 6..9 {
            t.insert(&txn, vec![Value::Int(i), Value::str(format!("c{i}"))])
                .unwrap();
        }
        txn.commit().unwrap();
        t.drain_l1().unwrap();
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        t.insert(&txn, vec![Value::Int(9), Value::str("c9")])
            .unwrap();
        txn.commit().unwrap();

        let img = t.to_image();
        assert_eq!(img.l1_rows.len(), 1);
        assert_eq!(img.l2.rows.len(), 3);
        assert_eq!(img.main_parts.len(), 1);
        // Zone maps are imaged per column: 6 main rows, ids 0..=5 → codes
        // 0..=5 with no NULLs.
        assert_eq!(img.main_parts[0].zones.len(), 2);
        assert_eq!(img.main_parts[0].zones[0].part, (0, 5, false));
        assert_eq!(img.main_parts[0].zones[0].chunks.len(), 1);

        // Rebuild into a fresh table (recovery advances the clock past the
        // recovered commit stamps, mirrored here).
        let (mgr2, t2) = table();
        mgr2.advance_clock_to(mgr.now());
        t2.load_image(&img, &|_| None).unwrap();
        let r = mgr2.begin(IsolationLevel::Transaction);
        let read = t2.read(&r);
        assert_eq!(read.count(), 10);
        for i in [0i64, 5, 7, 9] {
            assert_eq!(read.point(0, &Value::Int(i)).unwrap().len(), 1, "id {i}");
        }
        assert_eq!(t2.stage_stats().main_rows, 6);
        // The recovered main carries the persisted zone maps: a filtered
        // scan prunes out-of-span ranges without touching a row.
        let (rows, st) = t2
            .read(&r)
            .scan_filtered(
                &[crate::ColumnPredicate::Range(
                    0,
                    std::ops::Bound::Included(Value::Int(1000)),
                    std::ops::Bound::Excluded(Value::Int(2000)),
                )],
                None,
            )
            .unwrap();
        assert!(rows.is_empty());
        assert_eq!(st.parts_pruned, 1);
        assert_eq!(st.zone_pruned_rows, 6);
    }

    #[test]
    fn inflight_marks_resolved_by_replay_map() {
        let (mgr, t) = table();
        let open = mgr.begin(IsolationLevel::Transaction);
        t.insert(&open, vec![Value::Int(1), Value::str("pending")])
            .unwrap();
        let img = t.to_image();
        // The image keeps the mark.
        assert!(hana_common::TxnId::from_mark(img.l1_rows[0].begin).is_some());

        // Replay says: that txn committed at ts 77.
        let id = open.id();
        let (mgr2, t2) = table();
        t2.load_image(&img, &|w| (w == id).then_some(77)).unwrap();
        let r = hana_txn::Snapshot::at(100);
        assert_eq!(t2.read_at(r).count(), 1);
        // Replay says: never committed → invisible, not even loaded.
        let (_mgr3, t3) = table();
        t3.load_image(&img, &|_| None).unwrap();
        assert_eq!(t3.read_at(hana_txn::Snapshot::at(100)).count(), 0);
        let _ = mgr2;
    }

    #[test]
    fn finished_txn_stamps_resolved_at_imaging() {
        let (mgr, t) = table();
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        t.insert(&txn, vec![Value::Int(1), Value::str("a")])
            .unwrap();
        let cts = txn.commit().unwrap();
        let img = t.to_image();
        assert_eq!(img.l1_rows[0].begin, cts);
    }
}
