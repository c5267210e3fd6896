//! Parallel scan ≡ serial scan.
//!
//! Two tables receive identical operation streams; one scans serially
//! (`ScanConfig::serial()`), the other with a 4-way fan-out. Every read
//! surface — full scans, projections, counts, point/range lookups and the
//! columnar aggregates — must agree row-for-row and bit-for-bit, across
//! all four main encodings, under MVCC edge cases (uncommitted writer
//! marks, own-writes, deletions exactly at the snapshot boundary) and with
//! the visibility-bitmap cache both cold and warm.

use hana_column::Encoding;
use hana_common::{
    ColumnDef, ColumnId, DataType, HanaError, ScanConfig, Schema, TableConfig, Value,
};
use hana_core::{Database, UnifiedTable};
use hana_merge::MergeDecision;
use hana_txn::{IsolationLevel, Snapshot};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(
        "t",
        vec![
            ColumnDef::new("k", DataType::Int).unique(),
            ColumnDef::new("g", DataType::Int),
            ColumnDef::new("v", DataType::Double),
        ],
    )
    .unwrap()
}

fn config(scan_parallelism: usize) -> TableConfig {
    let mut cfg = TableConfig::small()
        .with_l1_max(8)
        .with_l2_max(24)
        .with_scan(ScanConfig::default().with_scan_parallelism(scan_parallelism));
    cfg.block_size = 64;
    cfg
}

type DbTable = (Arc<Database>, Arc<UnifiedTable>);

/// One serially-scanning and one parallel-scanning table, each in its own
/// database so identical op streams produce identical timestamps.
fn pair() -> (DbTable, DbTable) {
    let serial_db = Database::in_memory();
    let serial_t = serial_db.create_table(schema(), config(1)).unwrap();
    let par_db = Database::in_memory();
    let par_t = par_db.create_table(schema(), config(4)).unwrap();
    ((serial_db, serial_t), (par_db, par_t))
}

/// Compare every read surface of the two tables under the given snapshots.
fn assert_reads_match(
    serial: &hana_core::TableRead,
    parallel: &hana_core::TableRead,
    probe: &[i64],
) {
    // Full scan: same rows in the same order.
    let a: Vec<Vec<Value>> = serial
        .collect_rows()
        .into_iter()
        .map(|r| r.values)
        .collect();
    let b: Vec<Vec<Value>> = parallel
        .collect_rows()
        .into_iter()
        .map(|r| r.values)
        .collect();
    assert_eq!(a, b, "full scan rows/order diverge");
    // Count without materialization.
    assert_eq!(serial.count(), parallel.count());
    assert_eq!(serial.count(), a.len());
    // Late materialization narrows to the projected columns.
    let pa: Vec<Vec<Value>> = serial
        .project(&[2, 0])
        .unwrap()
        .into_iter()
        .map(|r| r.values)
        .collect();
    let pb: Vec<Vec<Value>> = parallel
        .project(&[2, 0])
        .unwrap()
        .into_iter()
        .map(|r| r.values)
        .collect();
    assert_eq!(pa, pb, "projected scan diverges");
    let expect: Vec<Vec<Value>> = a.iter().map(|r| vec![r[2].clone(), r[0].clone()]).collect();
    assert_eq!(pa, expect, "projection disagrees with the full scan");
    // Columnar aggregates must be bit-identical (fixed chunk plan).
    let (ca, sa) = serial.aggregate_numeric(2).unwrap();
    let (cb, sb) = parallel.aggregate_numeric(2).unwrap();
    assert_eq!(ca, cb);
    assert_eq!(sa.to_bits(), sb.to_bits(), "float accumulation diverged");
    assert_eq!(
        serial.group_aggregate(1, 2).unwrap(),
        parallel.group_aggregate(1, 2).unwrap()
    );
    // Compiled code-domain filtered scans: parallel ≡ serial bit-for-bit,
    // including the pruning counters (the chunk plan, not the worker count,
    // decides what runs).
    for preds in [
        vec![hana_core::ColumnPredicate::Range(
            0,
            std::ops::Bound::Included(Value::Int(5)),
            std::ops::Bound::Excluded(Value::Int(25)),
        )],
        vec![
            hana_core::ColumnPredicate::Range(
                0,
                std::ops::Bound::Included(Value::Int(0)),
                std::ops::Bound::Excluded(Value::Int(10_000)),
            ),
            hana_core::ColumnPredicate::Eq(1, Value::Int(3)),
        ],
        vec![hana_core::ColumnPredicate::IsNull(1)],
    ] {
        let (fa, sta) = serial.scan_filtered(&preds, None).unwrap();
        let (fb, stb) = parallel.scan_filtered(&preds, None).unwrap();
        assert_eq!(fa, fb, "compiled filtered scan diverges: {preds:?}");
        assert_eq!(
            sta.work(),
            stb.work(),
            "filtered scan work counters diverge: {preds:?}"
        );
    }
    // Point and range lookups.
    for k in probe {
        assert_eq!(
            serial.point(0, &Value::Int(*k)).unwrap(),
            parallel.point(0, &Value::Int(*k)).unwrap()
        );
    }
    assert_eq!(
        serial
            .range(
                0,
                std::ops::Bound::Included(&Value::Int(5)),
                std::ops::Bound::Excluded(&Value::Int(25)),
            )
            .unwrap(),
        parallel
            .range(
                0,
                std::ops::Bound::Included(&Value::Int(5)),
                std::ops::Bound::Excluded(&Value::Int(25)),
            )
            .unwrap()
    );
}

fn assert_tables_match(
    (serial_db, serial_t): &(Arc<Database>, Arc<UnifiedTable>),
    (par_db, par_t): &(Arc<Database>, Arc<UnifiedTable>),
    probe: &[i64],
) {
    let rs = serial_db.begin(IsolationLevel::Transaction);
    let rp = par_db.begin(IsolationLevel::Transaction);
    assert_reads_match(&serial_t.read(&rs), &par_t.read(&rp), probe);
}

// ---------------------------------------------------------------------------
// Encoding coverage: data shapes steering the compression chooser.
// ---------------------------------------------------------------------------

enum Shape {
    /// High-entropy group values → bit packing.
    HighEntropy,
    /// Long sorted runs → RLE.
    SortedRuns,
    /// One dominant value with rare exceptions → sparse.
    Dominant,
    /// Block-aligned uniform blocks with noisy exceptions → cluster.
    Blocky,
}

impl Shape {
    fn group(&self, i: i64) -> i64 {
        match self {
            Shape::HighEntropy => (i * 7919) % 509,
            Shape::SortedRuns => i / 100,
            Shape::Dominant => {
                if i % 331 == 0 {
                    i
                } else {
                    0
                }
            }
            // Blocks of 64 (the configured block size); every 4th block
            // alternates two values so RLE explodes while most blocks stay
            // single-valued.
            Shape::Blocky => {
                let block = i / 64;
                if block % 4 == 0 {
                    block * 2 + (i % 2)
                } else {
                    block * 2
                }
            }
        }
    }

    fn expected(&self) -> Encoding {
        match self {
            Shape::HighEntropy => Encoding::BitPacked,
            Shape::SortedRuns => Encoding::Rle,
            Shape::Dominant => Encoding::Sparse,
            Shape::Blocky => Encoding::Cluster,
        }
    }
}

/// Load `n` rows of `shape` into both tables in two batches with a classic
/// then a partial merge, so the main chain holds two parts (two scan
/// chunks) and a handful of freshly inserted L1/L2 rows on top.
fn load_shape(
    serial: &(Arc<Database>, Arc<UnifiedTable>),
    parallel: &(Arc<Database>, Arc<UnifiedTable>),
    shape: &Shape,
    n: i64,
) {
    for (db, t) in [serial, parallel] {
        let insert = |lo: i64, hi: i64| {
            let mut txn = db.begin(IsolationLevel::Transaction);
            for i in lo..hi {
                t.insert(
                    &txn,
                    vec![
                        Value::Int(i),
                        Value::Int(shape.group(i)),
                        Value::double(i as f64 * 0.25),
                    ],
                )
                .unwrap();
            }
            db.commit(&mut txn).unwrap();
        };
        insert(0, n / 2);
        t.drain_l1().unwrap();
        t.merge_delta_as(MergeDecision::Classic).unwrap();
        insert(n / 2, n);
        t.drain_l1().unwrap();
        t.merge_delta_as(MergeDecision::Partial).unwrap();
        // A few rows stay in the deltas so every storage tier is scanned.
        insert(n, n + 5);
    }
}

#[test]
fn parallel_matches_serial_across_all_main_encodings() {
    let mut seen = BTreeSet::new();
    for shape in [
        Shape::HighEntropy,
        Shape::SortedRuns,
        Shape::Dominant,
        Shape::Blocky,
    ] {
        let (serial, parallel) = pair();
        load_shape(&serial, &parallel, &shape, 2048);
        let encodings = parallel.1.main_encodings(1);
        assert!(
            encodings.contains(&shape.expected()),
            "shape expected {:?} in the chain, found {encodings:?}",
            shape.expected()
        );
        assert_eq!(serial.1.main_encodings(1), encodings);
        seen.extend(encodings.iter().map(|e| format!("{e:?}")));
        assert_tables_match(&serial, &parallel, &[0, 7, 100, 2047, 5000]);
    }
    for enc in [
        Encoding::BitPacked,
        Encoding::Rle,
        Encoding::Sparse,
        Encoding::Cluster,
    ] {
        assert!(seen.contains(&format!("{enc:?}")), "never scanned {enc:?}");
    }
}

#[test]
fn multi_chunk_part_matches_serial() {
    // One part larger than a scan chunk (16·1024 rows), so the fan-out
    // splits within the part, not just across parts.
    let (serial, parallel) = pair();
    for (db, t) in [&serial, &parallel] {
        let mut txn = db.begin(IsolationLevel::Transaction);
        for i in 0..20_000i64 {
            t.insert(
                &txn,
                vec![
                    Value::Int(i),
                    Value::Int(i % 13),
                    Value::double(i as f64 * 0.5),
                ],
            )
            .unwrap();
        }
        db.commit(&mut txn).unwrap();
        t.drain_l1().unwrap();
        t.merge_delta_as(MergeDecision::Classic).unwrap();
    }
    assert_tables_match(&serial, &parallel, &[0, 9_999, 19_999]);
}

// ---------------------------------------------------------------------------
// MVCC edges.
// ---------------------------------------------------------------------------

#[test]
fn uncommitted_marks_and_own_writes_match() {
    let (serial, parallel) = pair();
    load_shape(&serial, &parallel, &Shape::SortedRuns, 256);
    // On each database: an open transaction deletes a main-resident row,
    // updates another and inserts a new one — all uncommitted, leaving txn
    // marks in the main's stamp vectors.
    let mut writers = Vec::new();
    for (db, t) in [&serial, &parallel] {
        let w = db.begin(IsolationLevel::Transaction);
        t.delete_where(&w, ColumnId(0), &Value::Int(10)).unwrap();
        t.update_where(
            &w,
            ColumnId(0),
            &Value::Int(20),
            &[(ColumnId(1), Value::Int(-1))],
        )
        .unwrap();
        t.insert(
            &w,
            vec![Value::Int(9_000), Value::Int(9), Value::double(9.0)],
        )
        .unwrap();
        writers.push(w);
    }
    // Own-writes: each writer sees its delete/update/insert.
    let own_serial = serial.1.read(&writers[0]);
    let own_parallel = parallel.1.read(&writers[1]);
    assert_reads_match(&own_serial, &own_parallel, &[10, 20, 9_000]);
    assert!(own_serial.point(0, &Value::Int(10)).unwrap().is_empty());
    assert_eq!(own_serial.point(0, &Value::Int(9_000)).unwrap().len(), 1);
    // Other readers see none of it.
    assert_tables_match(&serial, &parallel, &[10, 20, 9_000]);
    let rs = serial.0.begin(IsolationLevel::Transaction);
    let read = serial.1.read(&rs);
    assert_eq!(read.point(0, &Value::Int(10)).unwrap().len(), 1);
    assert!(read.point(0, &Value::Int(9_000)).unwrap().is_empty());
    for mut w in writers {
        w.abort().unwrap();
    }
    assert_tables_match(&serial, &parallel, &[10, 20, 9_000]);
}

#[test]
fn deletion_at_snapshot_boundary_matches() {
    let (serial, parallel) = pair();
    load_shape(&serial, &parallel, &Shape::HighEntropy, 128);
    let before = serial.0.txn_manager().now();
    assert_eq!(before, parallel.0.txn_manager().now());
    for (db, t) in [&serial, &parallel] {
        let mut d = db.begin(IsolationLevel::Transaction);
        t.delete_where(&d, ColumnId(0), &Value::Int(64)).unwrap();
        db.commit(&mut d).unwrap();
    }
    let after = serial.0.txn_manager().now();
    // Walk every timestamp across the deletion — including the commit
    // timestamp itself — and require identical visibility.
    let mut visibilities = BTreeSet::new();
    for ts in before..=after {
        let rs = serial.1.read_at(Snapshot::at(ts));
        let rp = parallel.1.read_at(Snapshot::at(ts));
        assert_reads_match(&rs, &rp, &[63, 64, 65]);
        visibilities.insert(rs.point(0, &Value::Int(64)).unwrap().len());
    }
    // The walk really crossed the boundary: both states observed.
    assert_eq!(visibilities, BTreeSet::from([0, 1]));
}

// ---------------------------------------------------------------------------
// Visibility-bitmap cache: cold vs warm.
// ---------------------------------------------------------------------------

#[test]
fn bitmap_cache_cold_and_warm_agree() {
    let (serial, parallel) = pair();
    load_shape(&serial, &parallel, &Shape::SortedRuns, 512);
    // A committed delete forces per-row visibility bitmaps on the main.
    for (db, t) in [&serial, &parallel] {
        let mut d = db.begin(IsolationLevel::Transaction);
        t.delete_where(&d, ColumnId(0), &Value::Int(100)).unwrap();
        db.commit(&mut d).unwrap();
    }
    let ts = serial.0.txn_manager().now();
    // Cold: the first scan of the statement computes and caches bitmaps
    // (stats are per read view, so check them after exactly one scan).
    let cold_s = serial.1.read_at(Snapshot::at(ts));
    let cold_p = parallel.1.read_at(Snapshot::at(ts));
    let cold_rows = cold_p.collect_rows().len();
    assert_eq!(cold_s.collect_rows().len(), cold_rows);
    let (h, m) = cold_p.vis_cache_stats();
    assert_eq!(h, 0, "first scan of a fresh snapshot cannot hit the cache");
    assert!(m >= 1, "a delete-bearing part must miss at least once");
    assert_reads_match(&cold_s, &cold_p, &[99, 100, 101]);
    // Warm: fresh statements under the same snapshot reuse the bitmaps.
    let warm_s = serial.1.read_at(Snapshot::at(ts));
    let warm_p = parallel.1.read_at(Snapshot::at(ts));
    assert_eq!(
        warm_p.collect_rows().len(),
        cold_rows,
        "cache changed the result"
    );
    let (h, m) = warm_p.vis_cache_stats();
    assert!(h >= 1, "warm statement should reuse cached bitmaps");
    assert_eq!(m, 0, "warm statement rebuilt a bitmap");
    assert_reads_match(&warm_s, &warm_p, &[99, 100, 101]);
}

// ---------------------------------------------------------------------------
// Property test: random op/merge interleavings.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
    MergeL1,
    MergeClassic,
    MergeResort,
    MergePartial,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0i64..48, -100i64..100).prop_map(|(k, v)| Op::Insert(k, v)),
        3 => (0i64..48, -100i64..100).prop_map(|(k, v)| Op::Update(k, v)),
        2 => (0i64..48).prop_map(Op::Delete),
        1 => Just(Op::MergeL1),
        1 => Just(Op::MergeClassic),
        1 => Just(Op::MergeResort),
        1 => Just(Op::MergePartial),
    ]
}

fn apply(db: &Arc<Database>, t: &Arc<UnifiedTable>, op: &Op) {
    match op {
        Op::Insert(k, v) => {
            let mut txn = db.begin(IsolationLevel::Transaction);
            match t.insert(
                &txn,
                vec![
                    Value::Int(*k),
                    Value::Int(*v),
                    Value::double(*v as f64 * 0.5),
                ],
            ) {
                Ok(_) => {
                    db.commit(&mut txn).unwrap();
                }
                Err(HanaError::Constraint(_)) => db.abort(&mut txn).unwrap(),
                Err(e) => panic!("unexpected {e}"),
            }
        }
        Op::Update(k, v) => {
            let mut txn = db.begin(IsolationLevel::Transaction);
            match t.update_where(
                &txn,
                ColumnId(0),
                &Value::Int(*k),
                &[(ColumnId(1), Value::Int(*v))],
            ) {
                Ok(_) => {
                    db.commit(&mut txn).unwrap();
                }
                Err(HanaError::NotFound(_)) => db.abort(&mut txn).unwrap(),
                Err(e) => panic!("unexpected {e}"),
            }
        }
        Op::Delete(k) => {
            let mut txn = db.begin(IsolationLevel::Transaction);
            match t.delete_where(&txn, ColumnId(0), &Value::Int(*k)) {
                Ok(_) => {
                    db.commit(&mut txn).unwrap();
                }
                Err(HanaError::NotFound(_)) => db.abort(&mut txn).unwrap(),
                Err(e) => panic!("unexpected {e}"),
            }
        }
        Op::MergeL1 => {
            t.drain_l1().unwrap();
        }
        Op::MergeClassic => t.merge_delta_as(MergeDecision::Classic).unwrap(),
        Op::MergeResort => t.merge_delta_as(MergeDecision::ReSorting).unwrap(),
        Op::MergePartial => t.merge_delta_as(MergeDecision::Partial).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serial and 4-way parallel tables agree on every read surface after
    /// arbitrary committed op/merge interleavings, both with a cold and a
    /// warm visibility cache, and under an uncommitted trailing writer.
    #[test]
    fn parallel_scan_equals_serial_scan(
        ops in prop::collection::vec(op_strategy(), 1..80),
        trailing_delete in 0i64..48,
    ) {
        let (serial, parallel) = pair();
        for op in &ops {
            apply(&serial.0, &serial.1, op);
            apply(&parallel.0, &parallel.1, op);
        }
        let probe: Vec<i64> = (0..48).collect();
        // Cold, then warm (same snapshot → cached bitmaps on both sides).
        assert_tables_match(&serial, &parallel, &probe);
        assert_tables_match(&serial, &parallel, &probe);
        // An uncommitted writer leaves txn marks; own-writes and foreign
        // reads must still agree between the two tables.
        let mut writers = Vec::new();
        for (db, t) in [&serial, &parallel] {
            let w = db.begin(IsolationLevel::Transaction);
            let _ = t.delete_where(&w, ColumnId(0), &Value::Int(trailing_delete));
            writers.push(w);
        }
        assert_reads_match(
            &serial.1.read(&writers[0]),
            &parallel.1.read(&writers[1]),
            &probe,
        );
        assert_tables_match(&serial, &parallel, &probe);
        for mut w in writers {
            w.abort().unwrap();
        }
    }
}
