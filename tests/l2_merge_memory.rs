//! What loading and settling a table costs in memory.
//!
//! A counting global allocator (this test binary only) tracks live heap
//! bytes and their peak while a `sales`-shaped table — the benchmark's fact
//! table at a tenth of its size: 8 columns, a unique order key, 1 000
//! customers, 100 products, 16 cities, amounts up to 10 000 — is bulk
//! loaded into the L2-delta and then settled by a classic merge.
//!
//! * The L2-delta holds every dictionary value once (a code-keyed hash
//!   table, not a value-keyed map) and chains an inverted index through
//!   one link per row of the key column only (no heap block per key).
//!   Measured at 100k rows: 249.4 B/row with a value-keyed map beside the
//!   values and a list per key, 134.1 B/row with one chain per column,
//!   105.7 B/row with the key's chain alone (bound: +5 %).
//! * A settled main holds its column data, the key column's inverted
//!   index, record ids packed at the width of their span, and two stamps
//!   per row: 60.3 B/row live at 100k rows, 93 B/row when every column
//!   carried an index and every row a plain `u64` id (bound: +5 %), and
//!   `StageStats::main_bytes` counts what the allocator sees, within 2 %.
//! * The classic merge keeps no per-row scratch beyond a survivor bitmap:
//!   survivors' ids and stamps go straight into the new part, L2 codes are
//!   read in place, and each column is packed as soon as it is merged.
//!   Measured on a 200k-row L2 with one column worker, peak live bytes
//!   beyond the L2 and the finished main: 84.5 B/row with a 48-byte
//!   survivor record per row and an all-columns code matrix, 4.1 B/row
//!   without. With the main's non-key indexes gone the finished main is
//!   smaller than the merge's peak of the key column's pass (its value
//!   dictionary, codes and histogram): 9.9 B/row, and 26.3 B/row while
//!   that histogram was a hash map.
//! * `StageStats::l2_bytes` counts what the allocator sees, within 20 %.

use hana_common::{ColumnDef, DataType, MergeConfig, Schema, TableConfig, Value};
use hana_core::UnifiedTable;
use hana_merge::MergeDecision;
use hana_txn::{IsolationLevel, TxnManager};
use parking_lot::Mutex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are a side effect that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counters are process-wide: one measurement at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const CITIES: [&str; 16] = [
    "Campbell",
    "Cupertino",
    "Daly City",
    "Fremont",
    "Gilroy",
    "Los Altos",
    "Los Gatos",
    "Milpitas",
    "Morgan Hill",
    "Mountain View",
    "Palo Alto",
    "San Jose",
    "San Mateo",
    "Santa Clara",
    "Saratoga",
    "Sunnyvale",
];
const CURRENCIES: [&str; 5] = ["USD", "EUR", "KRW", "GBP", "JPY"];

fn sales_table(cfg: TableConfig) -> (Arc<TxnManager>, Arc<UnifiedTable>) {
    let schema = Schema::new(
        "sales",
        vec![
            ColumnDef::new("order_id", DataType::Int).unique(),
            ColumnDef::new("customer_id", DataType::Int),
            ColumnDef::new("product_id", DataType::Int),
            ColumnDef::new("city", DataType::Str),
            ColumnDef::new("amount", DataType::Int),
            ColumnDef::new("quantity", DataType::Int),
            ColumnDef::new("currency", DataType::Str),
            ColumnDef::new("status", DataType::Int),
        ],
    )
    .unwrap();
    let mgr = TxnManager::new();
    let table = UnifiedTable::standalone(schema, cfg, Arc::clone(&mgr));
    (mgr, table)
}

/// `rows` sales rows from a fixed xorshift stream.
fn sales_rows(rows: usize) -> Vec<Vec<Value>> {
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut below = |n: u64| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % n) as i64
    };
    (0..rows as i64)
        .map(|order| {
            vec![
                Value::Int(order),
                Value::Int(below(1_000)),
                Value::Int(below(100)),
                Value::str(CITIES[below(16) as usize]),
                Value::Int(1 + below(10_000)),
                Value::Int(1 + below(20)),
                Value::str(CURRENCIES[below(5) as usize]),
                Value::Int(0),
            ]
        })
        .collect()
}

/// Bulk load `rows` rows in one committed transaction; returns the live
/// bytes the load left behind.
fn bulk_load(mgr: &Arc<TxnManager>, table: &UnifiedTable, rows: usize) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    let mut txn = mgr.begin(IsolationLevel::Transaction);
    table.bulk_load(&txn, sales_rows(rows)).unwrap();
    txn.commit().unwrap();
    drop(txn);
    LIVE.load(Ordering::Relaxed) - before
}

#[test]
fn bulk_loaded_l2_is_lean_and_accounted() {
    const ROWS: usize = 100_000;
    let _one = SERIAL.lock();
    let (mgr, table) = sales_table(TableConfig::default());
    let live = bulk_load(&mgr, &table, ROWS);
    let stats = table.stage_stats();
    assert_eq!(stats.l2_rows, ROWS);
    let per_row = live as f64 / ROWS as f64;
    eprintln!("L2: {per_row:.1} B/row live, l2_bytes {} B", stats.l2_bytes);
    assert!(per_row <= 111.0, "L2 holds {per_row:.1} B/row");
    let reported = stats.l2_bytes as f64 / live as f64;
    assert!(
        (0.8..=1.2).contains(&reported),
        "l2_bytes reports {} B against {live} B live",
        stats.l2_bytes
    );
}

#[test]
fn settled_main_costs_its_data() {
    const ROWS: usize = 100_000;
    let _one = SERIAL.lock();
    let (mgr, table) = sales_table(TableConfig::default());
    let before = LIVE.load(Ordering::Relaxed);
    bulk_load(&mgr, &table, ROWS);
    table.merge_delta_as(MergeDecision::Classic).unwrap();
    let live = LIVE.load(Ordering::Relaxed) - before;
    let stats = table.stage_stats();
    assert_eq!((stats.main_rows, stats.l2_rows), (ROWS, 0));
    let per_row = live as f64 / ROWS as f64;
    let data = stats.main_data_bytes as f64 / ROWS as f64;
    eprintln!(
        "main: {per_row:.1} B/row live, main_bytes {:.1} B/row, data {data:.1} B/row",
        stats.main_bytes as f64 / ROWS as f64
    );
    assert!(per_row <= 63.0, "settled table holds {per_row:.1} B/row");
    let reported = stats.main_bytes as f64 / live as f64;
    assert!(
        (0.98..=1.02).contains(&reported),
        "main_bytes reports {} B against {live} B live",
        stats.main_bytes
    );
}

#[test]
fn classic_merge_needs_no_per_row_scratch() {
    const ROWS: usize = 200_000;
    let _one = SERIAL.lock();
    let cfg = TableConfig {
        merge: MergeConfig::default().with_column_parallelism(1),
        ..TableConfig::default()
    };
    let (mgr, table) = sales_table(cfg);
    let before = LIVE.load(Ordering::Relaxed);
    let l2 = bulk_load(&mgr, &table, ROWS);
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    table.merge_delta_as(MergeDecision::Classic).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let main = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(table.stage_stats().main_rows, ROWS);
    assert_eq!(table.last_merge_metrics().unwrap().parallel_workers, 1);
    let extra = peak.saturating_sub(l2 + main) as f64 / ROWS as f64;
    eprintln!("merge: {extra:.1} B/row above L2 {l2} B and main {main} B");
    assert!(
        extra < 20.0,
        "merge peaked {extra:.1} B/row above its L2 ({l2} B) and new main ({main} B)"
    );
}
