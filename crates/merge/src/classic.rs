//! The classic delta-to-main merge (§4.1, Fig 7).
//!
//! Phase 1 merges each column's dictionaries into a new sorted dictionary
//! with the two position-mapping tables (including the paper's subset/append
//! fast paths, see [`hana_dict::merge`]). Phase 2 builds the new value
//! index: old main codes are recoded through the mapping table "with the
//! same or an increased number of bits", and the L2-delta's entries are
//! appended at the end. The result is a single-part [`MainStore`].
//!
//! Each column worker packs the column it merged (code vector, zone map,
//! and a key column's inverted index) before taking the next, so at most
//! one raw code vector per worker is alive at a time.

use crate::parallel::{effective_workers, map_indexed};
use crate::survivors::{collect_survivors, MergeInput, Origin, RowMap, Survivors};
use hana_common::{Result, RowId, Value};
use hana_dict::merge::{merge_dicts_filtered, DROPPED};
use hana_dict::{Code, MergeKind, SortedDict};
use hana_store::{HistoryStore, L2Delta, MainColumn, MainColumnData, MainPart, MainStore};
use hana_txn::TxnManager;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lightweight per-merge measurements, carried on every
/// [`DeltaMergeOutcome`] and aggregated by the merge daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeMetrics {
    /// Wall-clock time of the merge (survivor analysis through assembly).
    pub duration: Duration,
    /// Rows entering the merge (old main + physical L2 rows).
    pub rows_in: usize,
    /// Surviving rows written to the new structure.
    pub rows_out: usize,
    /// Columns rebuilt by this merge.
    pub columns: usize,
    /// Worker threads the per-column fan-out ran with (1 = serial path).
    pub parallel_workers: usize,
}

/// Result of a delta-to-main merge.
pub struct DeltaMergeOutcome {
    /// The replacement main chain.
    pub new_main: MainStore,
    /// Surviving rows that came from the old main.
    pub from_main: usize,
    /// Surviving rows that came from the L2-delta.
    pub from_l2: usize,
    /// Row ids of versions discarded (garbage or aborted).
    pub dropped: Vec<RowId>,
    /// Which dictionary-merge path each column took (classic merge of a
    /// single-part main only; `General` otherwise).
    pub dict_paths: Vec<MergeKind>,
    /// Where the merged rows landed in the part this merge built (the last
    /// part of `new_main`).
    pub row_map: RowMap,
    /// Timing and shape of this merge.
    pub metrics: MergeMetrics,
}

impl std::fmt::Debug for DeltaMergeOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaMergeOutcome")
            .field("rows", &self.new_main.total_rows())
            .field("parts", &self.new_main.parts().len())
            .field("from_main", &self.from_main)
            .field("from_l2", &self.from_l2)
            .field("dropped", &self.dropped.len())
            .field("dict_paths", &self.dict_paths)
            .field("metrics", &self.metrics)
            .finish()
    }
}

/// Worker threads for the per-column work of `input`.
pub(crate) fn column_workers(input: &MergeInput<'_>) -> usize {
    effective_workers(input.parallel).min(input.l2.schema().arity().max(1))
}

/// One merged column in survivor (input) order, before packing: its new
/// sorted dictionary and global codes, and the dictionary-merge path taken.
/// Shared between the classic and re-sorting merges.
pub(crate) fn merge_column(
    input: &MergeInput<'_>,
    survivors: &Survivors,
    col: usize,
) -> (MainColumnData, MergeKind) {
    let (dict, codes, kind) = if input.main.parts().len() <= 1 {
        merge_one_column_fast(input, survivors, col)
    } else {
        merge_one_column_general(input, survivors, col)
    };
    let data = MainColumnData {
        dict,
        base: 0,
        codes,
    };
    (data, kind)
}

/// Fig-7 path: one old main part (or none) ⇒ dictionary merge with mapping
/// tables and code translation, no value materialization. The L2 codes are
/// read in place, under one borrow of the delta.
fn merge_one_column_fast(
    input: &MergeInput<'_>,
    survivors: &Survivors,
    col: usize,
) -> (SortedDict, Vec<Code>, MergeKind) {
    let empty = SortedDict::empty();
    let part = input.main.parts().first();
    let main_dict = part.map(|p| p.dict(col)).unwrap_or(&empty);
    let main_null = main_dict.len() as Code;
    let main_code = |pos| part.expect("main origin implies a part").code_at(pos, col);
    let fence = input.l2.published_len();
    input.l2.with_column(col, fence, |l2_dict, l2_codes| {
        // Liveness flags per dictionary code.
        let mut main_used = vec![false; main_dict.len()];
        let mut l2_used = vec![false; l2_dict.len()];
        for origin in survivors.origins(input.main) {
            match origin {
                Origin::Main(hit) => {
                    let c = main_code(hit.pos);
                    if c < main_null {
                        main_used[c as usize] = true;
                    }
                }
                Origin::L2(pos) => {
                    let c = l2_codes[pos as usize];
                    if c != hana_store::L2_NULL_CODE {
                        l2_used[c as usize] = true;
                    }
                }
            }
        }
        let merged = merge_dicts_filtered(main_dict, Some(&main_used), l2_dict, Some(&l2_used));
        let new_null = merged.dict.len() as Code;
        let mut new_codes = Vec::with_capacity(survivors.len());
        new_codes.extend(survivors.origins(input.main).map(|origin| {
            let (c, null, map) = match origin {
                Origin::Main(hit) => (main_code(hit.pos), main_null, &merged.main_map),
                Origin::L2(pos) => (
                    l2_codes[pos as usize],
                    hana_store::L2_NULL_CODE,
                    &merged.delta_map,
                ),
            };
            if c == null {
                new_null
            } else {
                let m = map[c as usize];
                debug_assert_ne!(m, DROPPED, "surviving code must map");
                m
            }
        }));
        (merged.dict, new_codes, merged.kind)
    })
}

/// Consolidation path: a multi-part chain is merged by materializing values
/// (used by the full merge that collapses passive + active mains).
fn merge_one_column_general(
    input: &MergeInput<'_>,
    survivors: &Survivors,
    col: usize,
) -> (SortedDict, Vec<Code>, MergeKind) {
    let values = survivors.values(input, col);
    let dict = SortedDict::from_values(values.iter().filter(|v| !v.is_null()).cloned().collect());
    let null = dict.len() as Code;
    let codes = values
        .iter()
        .map(|v| {
            if v.is_null() {
                null
            } else {
                dict.code_of(v).expect("value just entered the dictionary")
            }
        })
        .collect();
    (dict, codes, MergeKind::General)
}

/// Assemble a merge's outcome: the survivors' row vectors and the finished
/// `columns` become one new part, which `chain` places into the new main
/// chain; `order` is the re-sorting merge's new position per survivor.
pub(crate) fn finish_merge(
    input: &MergeInput<'_>,
    survivors: Survivors,
    columns: Vec<MainColumn>,
    dict_paths: Vec<MergeKind>,
    order: Option<Vec<u32>>,
    started: Instant,
    chain: impl FnOnce(MainPart) -> MainStore,
) -> DeltaMergeOutcome {
    let Survivors {
        keep,
        first_part,
        l2_start,
        row_ids,
        begins,
        ends,
        dropped,
        from_main,
        from_l2,
    } = survivors;
    let (rows_in, rows_out) = (keep.len(), row_ids.len());
    let mut start = 0;
    let main_parts = input.main.parts()[first_part..]
        .iter()
        .map(|p| {
            start += p.len();
            (p.generation(), start - p.len())
        })
        .collect();
    let row_map = RowMap::new(keep, main_parts, l2_start, order);
    let part = MainPart::from_columns(input.generation, columns, row_ids, begins, ends);
    DeltaMergeOutcome {
        new_main: chain(part),
        from_main,
        from_l2,
        dropped,
        dict_paths,
        row_map,
        metrics: MergeMetrics {
            duration: started.elapsed(),
            rows_in,
            rows_out,
            columns: input.l2.schema().arity(),
            parallel_workers: column_workers(input),
        },
    }
}

/// Run a classic merge: old main chain + closed L2-delta → one new main part.
pub fn classic_merge(
    input: &MergeInput<'_>,
    mgr: &TxnManager,
    history: Option<&HistoryStore>,
) -> Result<DeltaMergeOutcome> {
    debug_assert!(input.l2.is_closed(), "merge consumes a closed L2-delta");
    let started = Instant::now();
    let survivors = collect_survivors(input, mgr, history, 0)?;
    let arity = input.l2.schema().arity();
    let (columns, paths) = map_indexed(arity, column_workers(input), |col| {
        let (data, kind) = merge_column(input, &survivors, col);
        (input.build_column(col, data), kind)
    })
    .into_iter()
    .unzip();
    Ok(finish_merge(
        input,
        survivors,
        columns,
        paths,
        None,
        started,
        |part| MainStore::from_parts(input.l2.schema().clone(), vec![Arc::new(part)]),
    ))
}

/// Convenience used by tests and benches: an open, filled L2-delta built
/// from raw committed rows.
pub fn l2_from_rows(
    schema: hana_common::Schema,
    generation: u64,
    rows: &[(RowId, Vec<Value>)],
    begin: hana_common::Timestamp,
) -> L2Delta {
    let l2 = L2Delta::new(schema, generation);
    let batch: Vec<_> = rows
        .iter()
        .map(|(id, r)| (*id, r.clone(), begin, hana_common::COMMIT_TS_MAX))
        .collect();
    l2.append_batch(&batch).expect("open delta accepts appends");
    l2.publish_all();
    l2
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::{ColumnDef, DataType, Schema, COMMIT_TS_MAX};
    use hana_store::PartHit;

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

    fn row(id: i64, city: &str) -> (RowId, Vec<Value>) {
        (RowId(id as u64), vec![Value::Int(id), Value::str(city)])
    }

    fn input<'a>(main: &'a MainStore, l2: &'a L2Delta) -> MergeInput<'a> {
        MergeInput {
            main,
            l2,
            watermark: 1_000,
            block_size: 64,
            generation: 1,
            parallel: 1,
        }
    }

    #[test]
    fn first_merge_from_empty_main() {
        let mgr = TxnManager::new();
        let main = MainStore::empty(schema());
        let l2 = l2_from_rows(
            schema(),
            0,
            &[row(3, "Los Gatos"), row(1, "Campbell"), row(2, "Los Gatos")],
            5,
        );
        l2.close();
        let out = classic_merge(&input(&main, &l2), &mgr, None).unwrap();
        assert_eq!(out.from_l2, 3);
        assert_eq!(out.from_main, 0);
        let m = &out.new_main;
        assert_eq!(m.total_rows(), 3);
        // Sorted dictionary: Campbell=0, Los Gatos=1.
        assert_eq!(m.parts()[0].dict(1).value_of(0), Value::str("Campbell"));
        let hits = m.positions_eq(1, &Value::str("Los Gatos"));
        assert_eq!(hits.len(), 2);
        // Rows keep arrival order; values round-trip.
        assert_eq!(
            m.row_at(PartHit { part: 0, pos: 0 }),
            vec![Value::Int(3), Value::str("Los Gatos")]
        );
    }

    #[test]
    fn fig7_merge_combines_and_appends() {
        let mgr = TxnManager::new();
        // Old main with sorted cities.
        let main = {
            let main0 = MainStore::empty(schema());
            let l2 = l2_from_rows(
                schema(),
                0,
                &[
                    row(1, "Daily City"),
                    row(2, "Los Gatos"),
                    row(3, "Saratoga"),
                ],
                5,
            );
            l2.close();
            classic_merge(&input(&main0, &l2), &mgr, None)
                .unwrap()
                .new_main
        };
        // Delta: "Los Gatos" (shared) and "Campbell" (new, sorts first).
        let l2 = l2_from_rows(schema(), 1, &[row(4, "Los Gatos"), row(5, "Campbell")], 6);
        l2.close();
        let out = classic_merge(&input(&main, &l2), &mgr, None).unwrap();
        assert_eq!(out.dict_paths[1], MergeKind::General);
        let m = &out.new_main;
        assert_eq!(m.total_rows(), 5);
        let dict = m.parts()[0].dict(1);
        assert_eq!(
            (0..dict.len() as Code)
                .map(|c| dict.value_of(c))
                .collect::<Vec<_>>(),
            ["Campbell", "Daily City", "Los Gatos", "Saratoga"]
                .map(Value::str)
                .to_vec()
        );
        // Old main rows first, delta rows appended at the end.
        assert_eq!(m.parts()[0].row_id(3), RowId(4));
        assert_eq!(m.parts()[0].row_id(4), RowId(5));
        // Both "Los Gatos" rows land on the same new code.
        let hits = m.positions_eq(1, &Value::str("Los Gatos"));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn subset_fast_path_detected() {
        let mgr = TxnManager::new();
        let main = {
            let main0 = MainStore::empty(schema());
            let l2 = l2_from_rows(schema(), 0, &[row(1, "a"), row(2, "b"), row(3, "c")], 5);
            l2.close();
            classic_merge(&input(&main0, &l2), &mgr, None)
                .unwrap()
                .new_main
        };
        let l2 = l2_from_rows(schema(), 1, &[row(4, "b")], 6);
        l2.close();
        let out = classic_merge(&input(&main, &l2), &mgr, None).unwrap();
        // City dictionary: delta ⊆ main.
        assert_eq!(out.dict_paths[1], MergeKind::DeltaSubset);
        // Id dictionary: 4 > 3 ⇒ append path.
        assert_eq!(out.dict_paths[0], MergeKind::DeltaAppend);
    }

    #[test]
    fn garbage_versions_are_discarded() {
        let mgr = TxnManager::new();
        let main = MainStore::empty(schema());
        let l2 = l2_from_rows(
            schema(),
            0,
            &[row(1, "keep"), row(2, "dead"), row(3, "keep2")],
            5,
        );
        // Row 2 deleted at ts 10, watermark 1000 ⇒ garbage.
        l2.store_end(1, 10);
        l2.close();
        let out = classic_merge(&input(&main, &l2), &mgr, None).unwrap();
        assert_eq!(out.from_l2, 2);
        assert_eq!(out.dropped, vec![RowId(2)]);
        let m = &out.new_main;
        assert_eq!(m.total_rows(), 2);
        assert!(m.positions_eq(1, &Value::str("dead")).is_empty());
        // The dictionary contains only valid entries.
        assert_eq!(m.parts()[0].dict(1).len(), 2);
    }

    #[test]
    fn deletions_after_watermark_survive_with_stamp() {
        let mgr = TxnManager::new();
        let main = MainStore::empty(schema());
        let l2 = l2_from_rows(schema(), 0, &[row(1, "a")], 5);
        l2.store_end(0, 2_000); // after watermark
        l2.close();
        let out = classic_merge(&input(&main, &l2), &mgr, None).unwrap();
        assert_eq!(out.new_main.total_rows(), 1);
        assert_eq!(out.new_main.parts()[0].end(0), 2_000);
    }

    #[test]
    fn historic_tables_archive_garbage() {
        let mgr = TxnManager::new();
        let history = HistoryStore::new();
        let main = MainStore::empty(schema());
        let l2 = l2_from_rows(schema(), 0, &[row(1, "old")], 5);
        l2.store_end(0, 10);
        l2.close();
        let out = classic_merge(&input(&main, &l2), &mgr, Some(&history)).unwrap();
        assert_eq!(out.new_main.total_rows(), 0);
        assert_eq!(history.len(), 1);
        let v = history.version_as_of(RowId(1), 7).unwrap();
        assert_eq!(v.values[1], Value::str("old"));
        assert_eq!((v.begin, v.end), (5, 10));
    }

    #[test]
    fn in_flight_stamps_fail_retryably() {
        let mgr = TxnManager::new();
        let txn = mgr.begin(hana_txn::IsolationLevel::Transaction);
        let main = MainStore::empty(schema());
        let l2 = L2Delta::new(schema(), 0);
        l2.append_row(
            RowId(1),
            &[Value::Int(1), Value::str("x")],
            txn.id().mark(),
            COMMIT_TS_MAX,
        )
        .unwrap();
        l2.publish_all();
        l2.close();
        let err = classic_merge(&input(&main, &l2), &mgr, None).unwrap_err();
        assert!(err.is_retryable());
    }

    #[test]
    fn aborted_inserts_vanish() {
        let mgr = TxnManager::new();
        let mut txn = mgr.begin(hana_txn::IsolationLevel::Transaction);
        let main = MainStore::empty(schema());
        let l2 = L2Delta::new(schema(), 0);
        l2.append_row(
            RowId(1),
            &[Value::Int(1), Value::str("x")],
            txn.id().mark(),
            COMMIT_TS_MAX,
        )
        .unwrap();
        l2.publish_all();
        txn.abort().unwrap();
        l2.close();
        let out = classic_merge(&input(&main, &l2), &mgr, None).unwrap();
        assert_eq!(out.new_main.total_rows(), 0);
        assert_eq!(out.dropped, vec![RowId(1)]);
    }

    #[test]
    fn nulls_survive_the_merge() {
        let mgr = TxnManager::new();
        let main = MainStore::empty(schema());
        let l2 = L2Delta::new(schema(), 0);
        l2.append_row(RowId(1), &[Value::Int(1), Value::Null], 5, COMMIT_TS_MAX)
            .unwrap();
        l2.append_row(
            RowId(2),
            &[Value::Int(2), Value::str("x")],
            5,
            COMMIT_TS_MAX,
        )
        .unwrap();
        l2.publish_all();
        l2.close();
        let out = classic_merge(&input(&main, &l2), &mgr, None).unwrap();
        let m = &out.new_main;
        assert_eq!(m.value_at(PartHit { part: 0, pos: 0 }, 1), Value::Null);
        let part = &m.parts()[0];
        assert_eq!(part.positions_of_code(1, part.null_code(1)).as_ref(), &[0]);
        assert_eq!(m.parts()[0].dict(1).len(), 1);
    }
}
