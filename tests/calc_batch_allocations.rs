//! The batch executor allocates per batch and per group, never per row.
//!
//! A counting global allocator (this test binary only) measures one
//! statement at a time over a 100k-row fact table settled in main: a
//! filtered, projected aggregate (the shape of the benchmark's Q5) and a
//! filtered join-aggregate against a 1 000-row dimension (Q6). The batch
//! folds must stay far below one allocation per scanned row — no
//! `VisibleRow`, no `Vec<Value>` per row — while the same plans forced
//! through the row executor allocate several times per row.

use hana_calc::{AggFunc, Executor, Expr, Predicate, Query};
use hana_common::{ColumnDef, DataType, Schema, TableConfig, Value};
use hana_core::{Database, UnifiedTable};
use hana_txn::{IsolationLevel, Snapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a side effect that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: i64 = 100_000;
const CUSTOMERS: i64 = 1_000;
const CITIES: [&str; 8] = [
    "Campbell",
    "Cupertino",
    "Los Gatos",
    "Milpitas",
    "Palo Alto",
    "San Jose",
    "Saratoga",
    "Sunnyvale",
];

fn tables(db: &Arc<Database>) -> (Arc<UnifiedTable>, Arc<UnifiedTable>) {
    let sales = Schema::new(
        "sales",
        vec![
            ColumnDef::new("order_id", DataType::Int).unique(),
            ColumnDef::new("customer_id", DataType::Int),
            ColumnDef::new("city", DataType::Str),
            ColumnDef::new("amount", DataType::Int),
            ColumnDef::new("quantity", DataType::Int),
        ],
    )
    .unwrap();
    let customers = Schema::new(
        "customers",
        vec![
            ColumnDef::new("id", DataType::Int).unique(),
            ColumnDef::new("city", DataType::Str),
        ],
    )
    .unwrap();
    let sales = db.create_table(sales, TableConfig::default()).unwrap();
    let customers = db.create_table(customers, TableConfig::default()).unwrap();
    let mut txn = db.begin(IsolationLevel::Transaction);
    let rows = (0..ROWS)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int((i * 7919) % CUSTOMERS),
                Value::str(CITIES[(i % 8) as usize]),
                Value::Int((i * 37) % 10_000),
                Value::Int(1 + i % 5),
            ]
        })
        .collect();
    sales.bulk_load(&txn, rows).unwrap();
    let rows = (0..CUSTOMERS)
        .map(|i| vec![Value::Int(i), Value::str(CITIES[(i % 7) as usize])])
        .collect();
    customers.bulk_load(&txn, rows).unwrap();
    db.commit(&mut txn).unwrap();
    sales.force_full_merge().unwrap();
    customers.force_full_merge().unwrap();
    (sales, customers)
}

/// Allocations of one execution of `q` (optimized), with its result size.
fn allocations(q: Query, snapshot: Snapshot) -> (u64, usize) {
    let mut g = q.compile();
    hana_calc::optimize(&mut g);
    let mut ex = Executor::new(snapshot);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let rs = ex.run(&g).unwrap();
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (spent, rs.rows.len())
}

#[test]
fn folds_allocate_per_batch_and_group_not_per_row() {
    let db = Database::in_memory();
    let (sales, customers) = tables(&db);
    let snapshot = Snapshot::at(db.txn_manager().now());
    let los_gatos = || Predicate::Eq(2, Value::str("Los Gatos"));
    let filtered = |rows: bool| {
        let scan = Query::scan(Arc::clone(&sales));
        let scan = if rows {
            scan.custom("rows", Arc::new(Ok))
        } else {
            scan
        };
        scan.filter(Predicate::Between(3, Value::Int(2_000), Value::Int(6_000)))
            .project(vec![("weighted", Expr::col(3).mul(Expr::col(4)))])
            .aggregate(vec![], vec![(AggFunc::Sum, 0)])
    };
    let joined = |rows: bool| {
        let scan = Query::scan(Arc::clone(&sales));
        let scan = if rows {
            scan.custom("rows", Arc::new(Ok))
        } else {
            scan
        };
        scan.filter(los_gatos())
            .join(Query::scan(Arc::clone(&customers)), 1, 0)
            .aggregate(vec![5 + 1], vec![(AggFunc::Sum, 3), (AggFunc::Count, 0)])
    };
    // 7 scan chunks, at most 7 groups: a few hundred allocations. The bound
    // leaves room for thread spawns and allocator-internal variation and is
    // still 50x below one allocation per scanned row.
    let bound = ROWS as u64 / 50;
    let (fold, groups) = allocations(filtered(false), snapshot);
    assert_eq!(groups, 1);
    assert!(fold < bound, "filtered aggregate allocated {fold} times");
    let (fold, groups) = allocations(joined(false), snapshot);
    assert_eq!(groups, 7);
    // The join additionally touches each of the 1 000 dimension rows once.
    assert!(
        fold < bound + CUSTOMERS as u64,
        "join-aggregate allocated {fold} times"
    );
    // The row executor over the same plans: several allocations per row.
    let (rows, _) = allocations(filtered(true), snapshot);
    assert!(rows > ROWS as u64, "row path allocated only {rows} times");
    let (rows, _) = allocations(joined(true), snapshot);
    assert!(
        rows > ROWS as u64 / 8,
        "row path allocated only {rows} times"
    );
}
