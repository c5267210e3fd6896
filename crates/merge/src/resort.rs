//! The re-sorting merge (§4.2, Fig 8).
//!
//! "An extended version of the merge aims at reorganizing the content of the
//! full table to yield a data layout which provides higher compression
//! potential with respect to the data distribution of ALL columns." Because
//! the main uses positional addressing, re-sorting one column permutes every
//! column; the merge therefore produces the **row position mapping table**
//! of Fig 8 alongside the dictionary mapping tables.
//!
//! Sort-order selection follows the paper's "based on statistics from main
//! and L2-delta structures": columns are ordered by ascending cardinality
//! (fewest distinct values first — maximizing run lengths for RLE/cluster
//! encoding), and rows are sorted lexicographically under that column order.

use crate::classic::{column_workers, finish_merge, merge_column, DeltaMergeOutcome};
use crate::parallel::map_indexed;
use crate::survivors::{collect_survivors, MergeInput};
use hana_common::Result;
use hana_store::{HistoryStore, MainColumnData, MainStore};
use hana_txn::TxnManager;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// Outcome of a re-sorting merge. Fig 8's row position mapping table is
/// the outcome's [`row_map`](DeltaMergeOutcome::row_map): it maps every
/// surviving input row (old main rows first, then L2 rows) to its position
/// in the rebuilt main.
pub struct ResortOutcome {
    /// The regular merge outcome (new main, counts, drops, row map).
    pub merge: DeltaMergeOutcome,
    /// Column order used as the sort key (indexes into the schema).
    pub sort_columns: Vec<usize>,
}

/// Choose the sort column order from column statistics.
fn choose_sort_order(columns: &[MainColumnData]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..columns.len()).collect();
    order.sort_by_key(|&c| (columns[c].dict.len(), c));
    order
}

fn apply_permutation<T: Copy>(data: &[T], perm: &[u32]) -> Vec<T> {
    perm.iter().map(|&old| data[old as usize]).collect()
}

/// Run a re-sorting merge.
pub fn resort_merge(
    input: &MergeInput<'_>,
    mgr: &TxnManager,
    history: Option<&HistoryStore>,
) -> Result<ResortOutcome> {
    debug_assert!(input.l2.is_closed(), "merge consumes a closed L2-delta");
    let started = Instant::now();
    let mut survivors = collect_survivors(input, mgr, history, 0)?;
    // The sort looks at several columns at once, so every column's codes
    // stay unpacked until the permutation is known.
    let arity = input.l2.schema().arity();
    let workers = column_workers(input);
    let (columns, paths): (Vec<MainColumnData>, Vec<_>) =
        map_indexed(arity, workers, |col| merge_column(input, &survivors, col))
            .into_iter()
            .unzip();
    let sort_columns = choose_sort_order(&columns);

    // perm[new] = old survivor index, sorted lexicographically by the chosen
    // column order. Sorted-dictionary codes are order-preserving, so
    // comparing codes compares values.
    let n = survivors.len();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.sort_by(|&a, &b| {
        for &c in &sort_columns {
            let col = &columns[c].codes;
            match col[a as usize].cmp(&col[b as usize]) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        a.cmp(&b) // stable tiebreak on arrival order
    });

    // Invert: row_mapping[old] = new.
    let mut row_mapping = vec![0u32; n];
    for (new, &old) in perm.iter().enumerate() {
        row_mapping[old as usize] = new as u32;
    }

    // Permute and pack every column (fanned out like the rebuild: each
    // column's permutation is independent) and the row metadata.
    let unpacked: Vec<Mutex<Option<MainColumnData>>> =
        columns.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let columns = map_indexed(arity, workers, |c| {
        let mut data = unpacked[c].lock().take().expect("each column packs once");
        data.codes = apply_permutation(&data.codes, &perm);
        input.build_column(c, data)
    });
    survivors.row_ids = apply_permutation(&survivors.row_ids, &perm);
    survivors.begins = apply_permutation(&survivors.begins, &perm);
    survivors.ends = apply_permutation(&survivors.ends, &perm);
    let merge = finish_merge(
        input,
        survivors,
        columns,
        paths,
        Some(row_mapping),
        started,
        |part| MainStore::from_parts(input.l2.schema().clone(), vec![Arc::new(part)]),
    );
    Ok(ResortOutcome {
        merge,
        sort_columns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::l2_from_rows;
    use hana_common::{ColumnDef, DataType, RowId, Schema, Value};
    use hana_store::{MainStore, PartHit};

    fn schema() -> Schema {
        Schema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("city", DataType::Str),
                ColumnDef::new("prod", DataType::Str),
            ],
        )
        .unwrap()
    }

    fn build_l2(rows: &[(i64, &str, &str)]) -> hana_store::L2Delta {
        let rows: Vec<(RowId, Vec<Value>)> = rows
            .iter()
            .map(|&(id, city, prod)| {
                (
                    RowId(id as u64),
                    vec![Value::Int(id), Value::str(city), Value::str(prod)],
                )
            })
            .collect();
        let l2 = l2_from_rows(schema(), 0, &rows, 5);
        l2.close();
        l2
    }

    #[test]
    fn rows_are_reordered_and_mapping_inverts() {
        let mgr = TxnManager::new();
        let main = MainStore::empty(schema());
        let l2 = build_l2(&[(1, "B", "x"), (2, "A", "y"), (3, "B", "x"), (4, "A", "x")]);
        let input = MergeInput {
            main: &main,
            l2: &l2,
            watermark: 100,
            block_size: 64,
            generation: 1,
            parallel: 2,
        };
        let out = resort_merge(&input, &mgr, None).unwrap();
        let m = &out.merge.new_main;
        assert_eq!(m.total_rows(), 4);
        // Sort key: city (2 distinct) before prod (2) before id (4) — by
        // cardinality with index tiebreak city < prod.
        assert_eq!(out.sort_columns[0], 1);
        // All "A" rows precede all "B" rows after the merge.
        let cities: Vec<Value> = (0..4)
            .map(|p| m.value_at(PartHit { part: 0, pos: p }, 1))
            .collect();
        assert_eq!(cities, ["A", "A", "B", "B"].map(Value::str).to_vec());
        // The mapping tracks every row: old row 1 (id=2, city A, prod y)
        // must be found at its mapped position with intact values.
        for (old, &(id, city, prod)) in [
            (1i64, "B", "x"),
            (2, "A", "y"),
            (3, "B", "x"),
            (4, "A", "x"),
        ]
        .iter()
        .enumerate()
        {
            let new = out.merge.row_map.l2_pos(old as u32).unwrap();
            let row = m.row_at(PartHit { part: 0, pos: new });
            assert_eq!(
                row,
                vec![Value::Int(id), Value::str(city), Value::str(prod)]
            );
        }
    }

    #[test]
    fn resort_improves_compression_on_shuffled_low_cardinality_data() {
        let mgr = TxnManager::new();
        let main = MainStore::empty(schema());
        // 2000 rows, city cycles through 4 values in a shuffled pattern.
        let cities = ["W", "X", "Y", "Z"];
        let rows: Vec<(i64, &str, &str)> = (0..2000)
            .map(|i| (i, cities[((i * 7919) % 4) as usize], "p"))
            .collect();
        let input_l2 = build_l2(&rows);
        let input = MergeInput {
            main: &main,
            l2: &input_l2,
            watermark: 100,
            block_size: 64,
            generation: 1,
            parallel: 2,
        };
        let classic = crate::classic::classic_merge(&input, &mgr, None).unwrap();
        let l2b = build_l2(&rows);
        let input_b = MergeInput {
            main: &main,
            l2: &l2b,
            watermark: 100,
            block_size: 64,
            generation: 1,
            parallel: 2,
        };
        let resorted = resort_merge(&input_b, &mgr, None).unwrap();
        let classic_bytes = classic.new_main.data_bytes();
        let resort_bytes = resorted.merge.new_main.data_bytes();
        assert!(
            resort_bytes < classic_bytes,
            "re-sorting should compress better: {resort_bytes} vs {classic_bytes}"
        );
        // Same logical content either way.
        assert_eq!(
            resorted.merge.new_main.total_rows(),
            classic.new_main.total_rows()
        );
    }

    #[test]
    fn single_row_table() {
        let mgr = TxnManager::new();
        let main = MainStore::empty(schema());
        let l2 = build_l2(&[(1, "A", "p")]);
        let input = MergeInput {
            main: &main,
            l2: &l2,
            watermark: 100,
            block_size: 64,
            generation: 1,
            parallel: 2,
        };
        let out = resort_merge(&input, &mgr, None).unwrap();
        assert_eq!(out.merge.row_map.l2_pos(0), Some(0));
        assert_eq!(out.merge.new_main.total_rows(), 1);
    }
}
