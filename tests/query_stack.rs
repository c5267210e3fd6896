//! The full query stack: calc graphs (the star join among them) and the
//! text and graph engines over tables whose rows are spread across all
//! lifecycle stages.

use hana_calc::graph::PipeOp;
use hana_calc::{optimize, AggFunc, Executor, Expr, Predicate, Query};
use hana_common::{TableConfig, Value};
use hana_core::Database;
use hana_engines::{GraphEngine, TextIndex};
use hana_txn::{IsolationLevel, Snapshot};
use hana_workload::olap::ALL_QUERIES;
use hana_workload::sales::{fact_cols, SalesDataset};
use hana_workload::{DataGen, OlapRunner};
use std::sync::Arc;

/// Load a dataset and deliberately leave rows in all three stages.
fn staged_dataset(db: &Arc<Database>) -> SalesDataset {
    let ds = SalesDataset::load(
        db,
        TableConfig::small().with_l1_max(64).with_l2_max(256),
        2_000,
        100,
        40,
        5,
    )
    .unwrap();
    ds.settle().unwrap(); // 2000 rows in main
                          // 300 more through OLTP → L2, 50 more → L1.
    let mut gen = DataGen::new(17);
    let mut txn = db.begin(IsolationLevel::Transaction);
    for i in 2_000..2_300 {
        ds.sales
            .insert(
                &txn,
                hana_workload::SalesSchema::fact_row(&mut gen, i, 100, 40),
            )
            .unwrap();
    }
    db.commit(&mut txn).unwrap();
    ds.sales.drain_l1().unwrap();
    let mut txn = db.begin(IsolationLevel::Transaction);
    for i in 2_300..2_350 {
        ds.sales
            .insert(
                &txn,
                hana_workload::SalesSchema::fact_row(&mut gen, i, 100, 40),
            )
            .unwrap();
    }
    db.commit(&mut txn).unwrap();
    ds
}

#[test]
fn calc_results_independent_of_stage_distribution() {
    // The same logical data, one copy fully merged, one staged across
    // L1/L2/main, must answer every OLAP query identically.
    let db1 = Database::in_memory();
    let staged = staged_dataset(&db1);
    let db2 = Database::in_memory();
    let settled = staged_dataset(&db2);
    settled.sales.force_full_merge().unwrap();
    let (l1, l2, main) = {
        let s = staged.sales.stage_stats();
        (s.l1_rows, s.l2_rows, s.main_rows)
    };
    assert!(
        l1 > 0 && l2 > 0 && main > 0,
        "stages are populated: {l1}/{l2}/{main}"
    );
    assert_eq!(settled.sales.stage_stats().main_rows, 2_350);

    for &q in ALL_QUERIES {
        let a = OlapRunner::new(Snapshot::at(db1.txn_manager().now()))
            .run_unified(&staged.sales, q)
            .unwrap();
        let b = OlapRunner::new(Snapshot::at(db2.txn_manager().now()))
            .run_unified(&settled.sales, q)
            .unwrap();
        assert_eq!(a.rows, b.rows, "{q:?}");
    }
}

#[test]
fn optimizer_preserves_semantics_and_uses_indexes() {
    let db = Database::in_memory();
    let ds = staged_dataset(&db);
    let snap = Snapshot::at(db.txn_manager().now());

    let build = || {
        Query::scan(Arc::clone(&ds.sales))
            .filter(Predicate::Eq(fact_cols::CITY, Value::str("Los Gatos")))
            .filter(Predicate::Gt(fact_cols::AMOUNT, Value::Int(100)))
            .project(vec![
                ("order", Expr::col(fact_cols::ORDER_ID)),
                (
                    "weighted",
                    Expr::col(fact_cols::AMOUNT).mul(Expr::col(fact_cols::QUANTITY)),
                ),
            ])
            .aggregate(vec![], vec![(AggFunc::Count, 0), (AggFunc::Sum, 1)])
            .compile()
    };
    let mut unopt_ex = Executor::new(snap);
    let unopt = unopt_ex.run(&build()).unwrap();
    let mut g = build();
    let rewrites = optimize(&mut g);
    assert!(rewrites > 0);
    let mut opt_ex = Executor::new(snap);
    let opt = opt_ex.run(&g).unwrap();
    assert_eq!(unopt.rows, opt.rows);
    // The optimized plan used the index path, the naive one did not.
    assert_eq!(opt_ex.stats().indexed_scans, 1);
    assert_eq!(unopt_ex.stats().indexed_scans, 0);
}

#[test]
fn split_combine_equals_serial_on_staged_table() {
    let db = Database::in_memory();
    let ds = staged_dataset(&db);
    let snap = Snapshot::at(db.txn_manager().now());
    let serial = Query::scan(Arc::clone(&ds.sales))
        .aggregate(
            vec![fact_cols::CITY],
            vec![(AggFunc::Count, 0), (AggFunc::Sum, fact_cols::AMOUNT)],
        )
        .compile();
    let parallel = Query::scan(Arc::clone(&ds.sales))
        .split_combine(
            8,
            fact_cols::CITY,
            vec![PipeOp::PartialAggregate {
                group_by: vec![fact_cols::CITY],
                aggs: vec![(AggFunc::Count, 0), (AggFunc::Sum, fact_cols::AMOUNT)],
            }],
        )
        .compile();
    let a = Executor::new(snap).run(&serial).unwrap();
    let b = Executor::new(snap).run(&parallel).unwrap();
    assert_eq!(a.rows, b.rows);
}

/// The §2.2 star join is a calc-graph join under an aggregate, folded over
/// the fact table's column batches.
#[test]
fn star_join_over_staged_fact_table() {
    let db = Database::in_memory();
    let ds = staged_dataset(&db);
    let snap = Snapshot::at(db.txn_manager().now());
    // Join output: the fact columns, then products(id, category, price).
    let category = ds.sales.schema().arity() + 1;
    let mut g = Query::scan(Arc::clone(&ds.sales))
        .join(
            Query::scan(Arc::clone(&ds.products)),
            fact_cols::PRODUCT_ID,
            0,
        )
        .aggregate(
            vec![category],
            vec![(AggFunc::Count, 0), (AggFunc::Sum, fact_cols::AMOUNT)],
        )
        .compile();
    optimize(&mut g);
    let mut ex = Executor::new(snap);
    let res = ex.run(&g).unwrap();
    assert_eq!(ex.stats().full_scans, 0, "the join was materialized");
    // Every fact row references a product (ids 0..40 generated, all exist).
    let matching: i64 = res.rows.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert_eq!(matching, 2_350);
    let by_cat: f64 = res.rows.iter().map(|r| r[2].as_numeric().unwrap()).sum();
    let (_, direct_sum) = {
        let r = db.begin(IsolationLevel::Transaction);
        ds.sales
            .read(&r)
            .aggregate_numeric(fact_cols::AMOUNT)
            .unwrap()
    };
    assert!((by_cat - direct_sum).abs() < 1e-6);
}

#[test]
fn text_engine_over_unified_table() {
    let db = Database::in_memory();
    let ds = staged_dataset(&db);
    // Index the city column as text.
    let idx = TextIndex::build(
        &ds.sales,
        fact_cols::CITY,
        Snapshot::at(db.txn_manager().now()),
    )
    .unwrap();
    assert_eq!(idx.doc_count(), 2_350);
    let hits = idx.search_and("los gatos", 10_000);
    let r = db.begin(IsolationLevel::Transaction);
    let direct = ds
        .sales
        .read(&r)
        .point(fact_cols::CITY, &Value::str("Los Gatos"))
        .unwrap();
    assert_eq!(hits.len(), direct.len());
    // Fuzzy search finds it despite a typo.
    assert!(!idx.search_fuzzy("gatoz", 0.3, 10).is_empty());
}

#[test]
fn graph_engine_over_unified_table() {
    let db = Database::in_memory();
    // Build a small social graph as an edge table.
    let schema = hana_common::Schema::new(
        "edges",
        vec![
            hana_common::ColumnDef::new("src", hana_common::DataType::Int),
            hana_common::ColumnDef::new("dst", hana_common::DataType::Int),
        ],
    )
    .unwrap();
    let t = db.create_table(schema, TableConfig::small()).unwrap();
    let mut txn = db.begin(IsolationLevel::Transaction);
    for i in 0..100i64 {
        t.insert(&txn, vec![Value::Int(i), Value::Int((i + 1) % 100)])
            .unwrap();
    }
    db.commit(&mut txn).unwrap();
    t.force_full_merge().unwrap(); // engine reads from the main store
    let g =
        GraphEngine::from_edge_table(&t, Snapshot::at(db.txn_manager().now()), 0, 1, None).unwrap();
    assert_eq!(g.edge_count(), 100);
    let reach = g.bfs(&Value::Int(0), 10);
    assert_eq!(reach.len(), 11);
    let (cost, path) = g.shortest_path(&Value::Int(0), &Value::Int(5)).unwrap();
    assert_eq!(cost, 5.0);
    assert_eq!(path.len(), 6);
}
