//! The partial merge (§4.3, Figs 9–10).
//!
//! "The core idea of the partial merge is to split the main into two (or
//! even more) independent main structures": the *passive* main stays
//! untouched; only the *active* main takes part in the merge with the
//! L2-delta. The new active dictionary "starts with a dictionary position
//! value of n + 1" (here: a per-column `base` offset past the passive
//! dictionaries) and "only holds new values not yet present in the passive
//! main's dictionary"; the active value index "may exhibit encoding values
//! of the passive main".
//!
//! The cost is `O(|old active| + |L2|)` instead of `O(|main| + |L2|)` — the
//! saving Fig 9's scheduling argument relies on, measured by the Fig-9
//! bench.

use crate::classic::{column_workers, finish_merge, DeltaMergeOutcome};
use crate::parallel::map_indexed;
use crate::survivors::{collect_survivors, MergeInput};
use hana_common::{Result, Value};
use hana_dict::{Code, MergeKind, SortedDict};
use hana_store::{HistoryStore, MainColumnData, MainPart, MainStore};
use hana_txn::TxnManager;
use std::sync::Arc;
use std::time::Instant;

/// Run a partial merge: rebuild only the active main from (old active ∪ L2).
pub fn partial_merge(
    input: &MergeInput<'_>,
    mgr: &TxnManager,
    history: Option<&HistoryStore>,
) -> Result<DeltaMergeOutcome> {
    debug_assert!(input.l2.is_closed(), "merge consumes a closed L2-delta");
    let started = Instant::now();
    let passive: Vec<Arc<MainPart>> = input.main.passive_parts().to_vec();
    let passive_count = passive.len();
    // Only the active part's rows re-enter the merge.
    let survivors = collect_survivors(input, mgr, history, passive_count)?;

    let arity = input.l2.schema().arity();
    let columns = map_indexed(arity, column_workers(input), |col| {
        // Global base past all passive dictionaries — the paper's `n + 1`.
        let base: Code = passive.iter().map(|p| p.dict(col).len() as Code).sum();

        // Values of surviving rows; those already in a passive dictionary
        // keep their passive code, the rest form the new active dictionary.
        let values = survivors.values(input, col);
        let passive_code = |v: &Value| -> Option<Code> {
            for p in &passive {
                if let Some(local) = p.dict(col).code_of(v) {
                    return Some(p.base(col) + local);
                }
            }
            None
        };
        let new_values: Vec<Value> = values
            .iter()
            .filter(|v| !v.is_null() && passive_code(v).is_none())
            .cloned()
            .collect();
        let dict = SortedDict::from_values(new_values);
        let null_code = base + dict.len() as Code;
        let codes: Vec<Code> = values
            .iter()
            .map(|v| {
                if v.is_null() {
                    null_code
                } else if let Some(c) = passive_code(v) {
                    c
                } else {
                    base + dict
                        .code_of(v)
                        .expect("value entered the active dictionary")
                }
            })
            .collect();
        input.build_column(col, MainColumnData { dict, base, codes })
    });

    Ok(finish_merge(
        input,
        survivors,
        columns,
        vec![MergeKind::General; arity],
        None,
        started,
        |active| {
            let mut parts = passive;
            parts.push(Arc::new(active));
            MainStore::with_active(input.l2.schema().clone(), parts, passive_count)
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::{classic_merge, l2_from_rows};
    use hana_common::{ColumnDef, DataType, RowId, Schema};

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

    fn l2_of(gen: u64, rows: &[(i64, &str)]) -> hana_store::L2Delta {
        let rows: Vec<(RowId, Vec<Value>)> = rows
            .iter()
            .map(|&(id, c)| (RowId(id as u64), vec![Value::Int(id), Value::str(c)]))
            .collect();
        let l2 = l2_from_rows(schema(), gen, &rows, 5);
        l2.close();
        l2
    }

    fn mk_input<'a>(
        main: &'a MainStore,
        l2: &'a hana_store::L2Delta,
        generation: u64,
    ) -> MergeInput<'a> {
        MergeInput {
            main,
            l2,
            watermark: 1_000,
            block_size: 64,
            generation,
            parallel: 2,
        }
    }

    /// passive via classic, then two successive partial merges.
    #[test]
    fn chain_grows_and_queries_span_parts() {
        let mgr = TxnManager::new();
        // Bootstrap a passive main.
        let main0 = MainStore::empty(schema());
        let l2a = l2_of(0, &[(1, "Campbell"), (2, "Daily City"), (3, "Los Gatos")]);
        let passive = classic_merge(&mk_input(&main0, &l2a, 1), &mgr, None)
            .unwrap()
            .new_main;
        assert_eq!(passive.passive_parts().len(), 1);
        assert!(passive.active_part().is_none());

        // Partial merge 1: one repeated value (passive code) + one new.
        let l2b = l2_of(1, &[(4, "Campbell"), (5, "Los Altos")]);
        let m1 = partial_merge(&mk_input(&passive, &l2b, 2), &mgr, None)
            .unwrap()
            .new_main;
        assert_eq!(m1.passive_parts().len(), 1);
        let active = m1.active_part().unwrap();
        assert_eq!(active.len(), 2);
        // Active dictionary holds only the genuinely new value.
        assert_eq!(active.dict(1).len(), 1);
        assert_eq!(active.dict(1).value_of(0), Value::str("Los Altos"));
        // Its base continues the passive encoding.
        assert_eq!(active.base(1), 3);
        // The active value index references the passive code for Campbell.
        assert_eq!(active.code_at(0, 1), 0);

        // Point query on a passive-owned value finds hits in both parts.
        let hits = m1.positions_eq(1, &Value::str("Campbell"));
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].part, 0);
        assert_eq!(hits[1].part, 1);

        // Partial merge 2: active shrinks/grows, passive untouched (same Arc).
        let passive_ptr = Arc::as_ptr(&m1.passive_parts()[0]);
        let l2c = l2_of(2, &[(6, "Saratoga")]);
        let m2 = partial_merge(&mk_input(&m1, &l2c, 3), &mgr, None)
            .unwrap()
            .new_main;
        assert_eq!(Arc::as_ptr(&m2.passive_parts()[0]), passive_ptr);
        let active2 = m2.active_part().unwrap();
        assert_eq!(active2.len(), 3); // 4, 5, 6
        assert_eq!(active2.dict(1).len(), 2); // Los Altos, Saratoga
    }

    #[test]
    fn partial_merge_on_empty_main_builds_first_active() {
        let mgr = TxnManager::new();
        let main = MainStore::empty(schema());
        let l2 = l2_of(0, &[(1, "a")]);
        let out = partial_merge(&mk_input(&main, &l2, 1), &mgr, None).unwrap();
        assert_eq!(out.new_main.passive_parts().len(), 0);
        assert_eq!(out.new_main.active_rows(), 1);
        assert_eq!(out.new_main.total_rows(), 1);
    }

    #[test]
    fn garbage_in_active_is_collected_passive_untouched() {
        let mgr = TxnManager::new();
        let main0 = MainStore::empty(schema());
        let l2a = l2_of(0, &[(1, "keep")]);
        let passive = classic_merge(&mk_input(&main0, &l2a, 1), &mgr, None)
            .unwrap()
            .new_main;
        let l2b = l2_of(1, &[(2, "dead")]);
        l2b.store_end(0, 10); // dead before watermark
        let m = partial_merge(&mk_input(&passive, &l2b, 2), &mgr, None).unwrap();
        assert_eq!(m.new_main.active_rows(), 0);
        assert_eq!(m.dropped, vec![RowId(2)]);
        assert_eq!(m.new_main.total_rows(), 1);
    }

    /// "The optimization strategy may be deployed as a classical merge
    /// scheme by setting the maximal size of the active main to 0 forcing a
    /// (classical) full merge in every step" — consolidation via classic
    /// over the chain.
    #[test]
    fn consolidation_collapses_the_chain() {
        let mgr = TxnManager::new();
        let main0 = MainStore::empty(schema());
        let l2a = l2_of(0, &[(1, "b"), (2, "d")]);
        let passive = classic_merge(&mk_input(&main0, &l2a, 1), &mgr, None)
            .unwrap()
            .new_main;
        let l2b = l2_of(1, &[(3, "a"), (4, "c")]);
        let chained = partial_merge(&mk_input(&passive, &l2b, 2), &mgr, None)
            .unwrap()
            .new_main;
        assert_eq!(chained.parts().len(), 2);
        // Full merge with an empty delta consolidates to one sorted part.
        let empty = l2_of(2, &[]);
        let consolidated = classic_merge(&mk_input(&chained, &empty, 3), &mgr, None)
            .unwrap()
            .new_main;
        assert_eq!(consolidated.parts().len(), 1);
        assert_eq!(consolidated.total_rows(), 4);
        let dict = consolidated.parts()[0].dict(1);
        assert_eq!(
            (0..4u32).map(|c| dict.value_of(c)).collect::<Vec<_>>(),
            ["a", "b", "c", "d"].map(Value::str).to_vec()
        );
        // All rows queryable.
        for (v, n) in [("a", 1), ("b", 1), ("c", 1), ("d", 1)] {
            assert_eq!(consolidated.positions_eq(1, &Value::str(v)).len(), n);
        }
    }
}
