//! Cost-based merge scheduling.
//!
//! "Merges into the active main and especially full merges to create a new
//! main structure are scheduled with a very low frequency. The merge of L1-
//! to L2-delta, in contrast, can be performed incrementally" (§4.4) —
//! L1 merges trigger on a small row threshold, delta-to-main merges on a
//! large one, and the *strategy* for the latter is picked here:
//! [`MergeDecision::Partial`] while the active main stays below the
//! configured fraction of the table, consolidating [`MergeDecision::Consolidate`]
//! (a full classic merge over the chain) once it outgrows it — "the major
//! advantage of the concept is to delay a full merge".

use hana_common::{MergeStrategy, TableConfig};
use hana_store::MainStore;

/// What the scheduler decided for a delta-to-main merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeDecision {
    /// Below threshold: no merge now.
    NotYet,
    /// Full classic merge (§4.1).
    Classic,
    /// Full re-sorting merge (§4.2).
    ReSorting,
    /// Partial merge into the active main (§4.3).
    Partial,
    /// Consolidating full merge collapsing passive+active into one part.
    Consolidate,
}

/// Should the L1-delta be merged into the L2-delta?
pub fn decide_l1_merge(cfg: &TableConfig, l1_rows: usize) -> bool {
    l1_rows >= cfg.l1_max_rows
}

/// Decide how (and whether) to merge the L2-delta into the main.
pub fn decide_delta_merge(cfg: &TableConfig, main: &MainStore, l2_rows: usize) -> MergeDecision {
    if l2_rows < cfg.l2_max_rows {
        return MergeDecision::NotYet;
    }
    let total = main.total_rows() + l2_rows;
    let active_after = main.active_rows() + l2_rows;
    let over_fraction =
        total > 0 && (active_after as f64) > cfg.active_main_max_fraction * total as f64;
    match cfg.merge_strategy {
        MergeStrategy::Classic => MergeDecision::Classic,
        MergeStrategy::ReSorting => MergeDecision::ReSorting,
        MergeStrategy::Partial => {
            if over_fraction && !main.passive_parts().is_empty() {
                MergeDecision::Consolidate
            } else {
                MergeDecision::Partial
            }
        }
        MergeStrategy::Auto => {
            if main.is_empty() {
                // First merge: build the initial (passive) main outright.
                MergeDecision::Classic
            } else if over_fraction {
                MergeDecision::Consolidate
            } else {
                MergeDecision::Partial
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::{ColumnDef, DataType, Schema};

    fn schema() -> Schema {
        Schema::new("t", vec![ColumnDef::new("x", DataType::Int)]).unwrap()
    }

    fn cfg(strategy: MergeStrategy) -> TableConfig {
        TableConfig {
            l1_max_rows: 10,
            l2_max_rows: 100,
            merge_strategy: strategy,
            active_main_max_fraction: 0.25,
            ..TableConfig::default()
        }
    }

    #[test]
    fn l1_threshold() {
        let c = cfg(MergeStrategy::Auto);
        assert!(!decide_l1_merge(&c, 9));
        assert!(decide_l1_merge(&c, 10));
    }

    #[test]
    fn below_threshold_no_merge() {
        let c = cfg(MergeStrategy::Auto);
        let main = MainStore::empty(schema());
        assert_eq!(decide_delta_merge(&c, &main, 99), MergeDecision::NotYet);
    }

    #[test]
    fn explicit_strategies_respected() {
        let main = MainStore::empty(schema());
        assert_eq!(
            decide_delta_merge(&cfg(MergeStrategy::Classic), &main, 100),
            MergeDecision::Classic
        );
        assert_eq!(
            decide_delta_merge(&cfg(MergeStrategy::ReSorting), &main, 100),
            MergeDecision::ReSorting
        );
        assert_eq!(
            decide_delta_merge(&cfg(MergeStrategy::Partial), &main, 100),
            MergeDecision::Partial
        );
    }

    #[test]
    fn auto_bootstraps_with_classic_then_goes_partial() {
        let c = cfg(MergeStrategy::Auto);
        let empty = MainStore::empty(schema());
        assert_eq!(decide_delta_merge(&c, &empty, 100), MergeDecision::Classic);
        // A large passive main with a small delta: partial.
        let main = fake_main(10_000, 0);
        assert_eq!(decide_delta_merge(&c, &main, 100), MergeDecision::Partial);
    }

    #[test]
    fn auto_consolidates_when_active_outgrows_fraction() {
        let c = cfg(MergeStrategy::Auto);
        // Passive 1000, active 400 ⇒ with 100 more the active fraction is
        // 500/1500 = 0.33 > 0.25 ⇒ consolidate.
        let main = fake_main(1000, 400);
        assert_eq!(
            decide_delta_merge(&c, &main, 100),
            MergeDecision::Consolidate
        );
    }

    /// Build a main with `passive` rows in part 0 and optionally `active`
    /// rows in an active part, values disjoint between parts.
    fn fake_main(passive: usize, active: usize) -> MainStore {
        use hana_common::{RowId, Value, COMMIT_TS_MAX};
        use hana_dict::SortedDict;
        use hana_store::{MainColumnData, MainPart};
        use std::sync::Arc;
        let mk = |n: usize, offset: i64, base: u32, gen: u64| {
            let dict =
                SortedDict::from_values((0..n as i64).map(|i| Value::Int(i + offset)).collect());
            let codes: Vec<u32> = (0..n as u32).map(|i| i + base).collect();
            Arc::new(MainPart::build(
                gen,
                &schema(),
                vec![MainColumnData { dict, base, codes }],
                (0..n as u64).map(|i| RowId(i + offset as u64)).collect(),
                vec![1; n],
                vec![COMMIT_TS_MAX; n],
                64,
            ))
        };
        let mut parts = vec![mk(passive, 0, 0, 0)];
        if active > 0 {
            parts.push(mk(active, 1_000_000, passive as u32, 1));
        }
        MainStore::with_active(schema(), parts, 1)
    }
}
