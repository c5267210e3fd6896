//! End-to-end record-lifecycle tests spanning core + merge + store crates.

use hana_common::{ColumnDef, ColumnId, DataType, MergeStrategy, Schema, TableConfig, Value};
use hana_core::{Database, UnifiedTable};
use hana_merge::MergeDecision;
use hana_txn::IsolationLevel;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(
        "t",
        vec![
            ColumnDef::new("id", DataType::Int).unique(),
            ColumnDef::new("city", DataType::Str),
            ColumnDef::new("amount", DataType::Int),
        ],
    )
    .unwrap()
}

fn insert_range(db: &Arc<Database>, t: &Arc<UnifiedTable>, lo: i64, hi: i64) {
    let mut txn = db.begin(IsolationLevel::Transaction);
    for i in lo..hi {
        t.insert(
            &txn,
            vec![
                Value::Int(i),
                Value::str(format!("city{}", i % 7)),
                Value::Int(i * 10),
            ],
        )
        .unwrap();
    }
    db.commit(&mut txn).unwrap();
}

/// Every row remains point-queryable, aggregable and countable while being
/// pushed through every stage and every merge flavour.
#[test]
fn queries_stable_across_whole_lifecycle() {
    for strategy in [
        MergeStrategy::Classic,
        MergeStrategy::ReSorting,
        MergeStrategy::Partial,
        MergeStrategy::Auto,
    ] {
        let db = Database::in_memory();
        let cfg = TableConfig {
            l1_max_rows: 50,
            l2_max_rows: 200,
            merge_strategy: strategy,
            active_main_max_fraction: 0.3,
            ..TableConfig::default()
        };
        let t = db.create_table(schema(), cfg).unwrap();
        for round in 0..5 {
            insert_range(&db, &t, round * 300, (round + 1) * 300);
            while t.maybe_merge_once().unwrap() {}
            let r = db.begin(IsolationLevel::Transaction);
            let read = t.read(&r);
            let expected = ((round + 1) * 300) as usize;
            assert_eq!(read.count(), expected, "{strategy:?} round {round}");
            let (c, s) = read.aggregate_numeric(2).unwrap();
            assert_eq!(c as usize, expected);
            let n = (round + 1) * 300;
            assert_eq!(s, (0..n).map(|i| (i * 10) as f64).sum::<f64>());
            for probe in [0, n / 2, n - 1] {
                assert_eq!(
                    read.point(0, &Value::Int(probe)).unwrap().len(),
                    1,
                    "{strategy:?} probe {probe}"
                );
            }
        }
    }
}

/// Updates hitting rows in every stage are never lost by merges.
#[test]
fn updates_survive_merges_in_every_stage() {
    let db = Database::in_memory();
    let t = db
        .create_table(
            schema(),
            TableConfig::small().with_l1_max(20).with_l2_max(60),
        )
        .unwrap();
    insert_range(&db, &t, 0, 100);
    t.drain_l1().unwrap();
    t.merge_delta_as(MergeDecision::Classic).unwrap(); // 100 rows in main
    insert_range(&db, &t, 100, 150);
    t.drain_l1().unwrap(); // 50 rows in L2
    insert_range(&db, &t, 150, 170); // 20 rows in L1

    // Update one row per stage.
    let mut txn = db.begin(IsolationLevel::Transaction);
    for id in [5i64, 120, 160] {
        t.update_where(
            &txn,
            ColumnId(0),
            &Value::Int(id),
            &[(ColumnId(2), Value::Int(-1))],
        )
        .unwrap();
    }
    db.commit(&mut txn).unwrap();

    // Full merge everything and verify.
    t.force_full_merge().unwrap();
    let r = db.begin(IsolationLevel::Transaction);
    let read = t.read(&r);
    assert_eq!(read.count(), 170);
    for id in [5i64, 120, 160] {
        let rows = read.point(0, &Value::Int(id)).unwrap();
        assert_eq!(rows.len(), 1, "id {id}");
        assert_eq!(rows[0][2], Value::Int(-1), "id {id}");
    }
    // Untouched neighbours unchanged.
    assert_eq!(read.point(0, &Value::Int(6)).unwrap()[0][2], Value::Int(60));
}

/// The unique constraint holds across stages: a key deleted from the main
/// can be reinserted; a live key can't be duplicated from any stage.
#[test]
fn unique_constraint_across_stages() {
    let db = Database::in_memory();
    let t = db.create_table(schema(), TableConfig::small()).unwrap();
    insert_range(&db, &t, 0, 30);
    t.force_full_merge().unwrap();

    // Duplicate of a main-resident key: rejected.
    let txn = db.begin(IsolationLevel::Transaction);
    let err = t
        .insert(&txn, vec![Value::Int(5), Value::str("x"), Value::Int(0)])
        .unwrap_err();
    assert!(matches!(err, hana_common::HanaError::Constraint(_)));
    drop(txn);

    // Delete then reinsert the same key.
    let mut txn = db.begin(IsolationLevel::Transaction);
    t.delete_where(&txn, ColumnId(0), &Value::Int(5)).unwrap();
    db.commit(&mut txn).unwrap();
    let mut txn = db.begin(IsolationLevel::Transaction);
    t.insert(
        &txn,
        vec![Value::Int(5), Value::str("again"), Value::Int(1)],
    )
    .unwrap();
    db.commit(&mut txn).unwrap();
    let r = db.begin(IsolationLevel::Transaction);
    let rows = t.read(&r).point(0, &Value::Int(5)).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][1], Value::str("again"));
}

/// Bulk loads bypass the L1 and are immediately visible and mergeable.
#[test]
fn bulk_load_bypasses_l1() {
    let db = Database::in_memory();
    let t = db.create_table(schema(), TableConfig::small()).unwrap();
    let mut txn = db.begin(IsolationLevel::Transaction);
    let rows: Vec<Vec<Value>> = (0..500)
        .map(|i| vec![Value::Int(i), Value::str("bulk"), Value::Int(i)])
        .collect();
    t.bulk_load(&txn, rows).unwrap();
    db.commit(&mut txn).unwrap();
    let s = t.stage_stats();
    assert_eq!(s.l1_rows, 0, "bulk load must not touch the L1");
    assert_eq!(s.l2_rows, 500);
    let r = db.begin(IsolationLevel::Transaction);
    assert_eq!(t.read(&r).count(), 500);
    t.merge_delta_as(MergeDecision::Classic).unwrap();
    let r = db.begin(IsolationLevel::Transaction);
    assert_eq!(t.read(&r).count(), 500);
    assert_eq!(t.stage_stats().main_rows, 500);
}

/// A long-running reader pinned before a cascade of merges keeps its exact
/// view (paper §4.1's old-version retention).
#[test]
fn long_reader_survives_merge_cascade() {
    let db = Database::in_memory();
    let t = db.create_table(schema(), TableConfig::small()).unwrap();
    insert_range(&db, &t, 0, 200);
    let reader = db.begin(IsolationLevel::Transaction);
    let view = t.read(&reader);

    // Churn: merges, updates, deletes, more merges.
    t.drain_l1().unwrap();
    t.merge_delta_as(MergeDecision::Classic).unwrap();
    let mut txn = db.begin(IsolationLevel::Transaction);
    for i in 0..100 {
        t.delete_where(&txn, ColumnId(0), &Value::Int(i)).unwrap();
    }
    db.commit(&mut txn).unwrap();
    insert_range(&db, &t, 200, 400);
    t.force_full_merge().unwrap();

    // The pinned view is untouched.
    assert_eq!(view.count(), 200);
    let (c, _) = view.aggregate_numeric(2).unwrap();
    assert_eq!(c, 200);
    assert_eq!(view.point(0, &Value::Int(50)).unwrap().len(), 1);
    // A fresh view sees the churned state: 200 - 100 + 200.
    let r = db.begin(IsolationLevel::Transaction);
    assert_eq!(t.read(&r).count(), 300);
}

/// Partitioned tables route and merge independently.
#[test]
fn partitioned_lifecycle() {
    use hana_core::partition::PartitionedTable;
    let mgr = hana_txn::TxnManager::new();
    let pt = PartitionedTable::new(
        schema(),
        ColumnId(0),
        4,
        TableConfig::small(),
        Arc::clone(&mgr),
    )
    .unwrap();
    let mut txn = mgr.begin(IsolationLevel::Transaction);
    for i in 0..400 {
        pt.insert(&txn, vec![Value::Int(i), Value::str("p"), Value::Int(1)])
            .unwrap();
    }
    txn.commit().unwrap();
    while pt.maybe_merge_all().unwrap() {}
    let snap = hana_txn::Snapshot::at(mgr.now());
    let read = pt.read_at(snap);
    assert_eq!(read.collect_rows().len(), 400);
    let (c, s) = read.aggregate_numeric(2).unwrap();
    assert_eq!((c, s), (400, 400.0));
    // Rows merged somewhere down the pipeline in each partition.
    let merged: usize = pt
        .partitions()
        .iter()
        .map(|p| p.stage_stats().main_rows)
        .sum();
    assert!(merged > 0);
}
