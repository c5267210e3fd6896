//! Sustained-update churn soak (repro `F7c`'s correctness companion):
//! a fixed working set takes a large number of updates from concurrent
//! writers while the merge daemon and the background MVCC garbage
//! collector cycle underneath.
//!
//! What must hold for memory to stay flat under churn:
//!
//! * live-row accounting stays exact (every snapshot sees exactly the
//!   working set; the update counter column sums to the commit count);
//! * physical row versions are bounded (merges reclaim superseded
//!   versions faster than writers mint them);
//! * the transaction manager's commit table is bounded (the GC trims
//!   entries once no stamp references them) — without GC it grows by one
//!   entry per committed update, which is exactly the leak this test
//!   exists to catch;
//! * per-write latency stays bounded while merges publish (the
//!   non-blocking pipeline's constant-time swap).
//!
//! A second phase churns a settled ~100k-row main instead, so that delta
//! merges build for longer than a GC cycle and race the commit-table trim.
//!
//! `CHURN_UPDATES` scales the run: per-push CI uses the default (~60k),
//! nightly runs ≥1M (see `nightly.yml`); the settled-main phase takes a
//! quarter of it.

use hana_common::{
    ColumnDef, ColumnId, DataType, MergeConfig, MergeStrategy, PartitionConfig, Schema,
    TableConfig, Value,
};
use hana_core::Database;
use hana_txn::IsolationLevel;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WRITERS: usize = 4;
const WORKING_SET: i64 = 2_048;

fn updates_budget() -> usize {
    std::env::var("CHURN_UPDATES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60_000)
}

fn schema() -> Schema {
    Schema::new(
        "churn",
        vec![
            ColumnDef::new("id", DataType::Int).unique(),
            ColumnDef::new("hits", DataType::Int).not_null(),
        ],
    )
    .unwrap()
}

fn p99_micros(latencies: &mut [u64]) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    latencies[(latencies.len() - 1) * 99 / 100]
}

/// ≥`CHURN_UPDATES` committed updates over a fixed working set with merges
/// and GC cycling: flat live-row accounting, bounded physical versions,
/// bounded txn table, bounded p99 write latency.
#[test]
fn churn_fixed_working_set_flat_memory() {
    let budget = updates_budget();
    let db = Database::in_memory();
    let cfg = TableConfig {
        l1_max_rows: 256,
        l2_max_rows: 4_096,
        ..TableConfig::default()
    };
    let table = db.create_table(schema(), cfg).unwrap();
    let mut txn = db.begin(IsolationLevel::Transaction);
    let rows: Vec<Vec<Value>> = (0..WORKING_SET)
        .map(|i| vec![Value::Int(i), Value::Int(0)])
        .collect();
    table.bulk_load(&txn, rows).unwrap();
    db.commit(&mut txn).unwrap();

    db.enable_gc();
    db.start_merge_daemon(Duration::from_millis(1));

    let committed = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let max_physical = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for w in 0..WRITERS as u64 {
            let db = Arc::clone(&db);
            let table = Arc::clone(&table);
            let committed = Arc::clone(&committed);
            let latencies = Arc::clone(&latencies);
            scope.spawn(move || {
                let mut seed = w.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
                let mut next = || {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed
                };
                let mut local = Vec::new();
                while committed.load(Ordering::Relaxed) < budget {
                    let key = (next() % WORKING_SET as u64) as i64;
                    let start = Instant::now();
                    let mut txn = db.begin(IsolationLevel::Transaction);
                    let result = (|| -> hana_common::Result<()> {
                        let read = table.read(&txn);
                        let row = read.point(0, &Value::Int(key))?;
                        let hits = row[0][1].as_int().unwrap();
                        table.update_where(
                            &txn,
                            ColumnId(0),
                            &Value::Int(key),
                            &[(ColumnId(1), Value::Int(hits + 1))],
                        )?;
                        Ok(())
                    })();
                    match result {
                        Ok(()) => {
                            db.commit(&mut txn).unwrap();
                            local.push(start.elapsed().as_micros() as u64);
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            let _ = db.abort(&mut txn);
                        }
                    }
                }
                latencies.lock().extend(local);
            });
        }
        // Monitor: physical row versions across all stages must stay
        // bounded — merges reclaim superseded versions continuously, so
        // total physical stays a small multiple of the working set even
        // after budget >> WORKING_SET updates.
        {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            let max_physical = Arc::clone(&max_physical);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let s = table.stage_stats();
                    let total = s.l1_rows + s.l2_rows + s.l2_frozen_rows + s.main_rows;
                    max_physical.fetch_max(total, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        while committed.load(Ordering::Relaxed) < budget {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
    });

    let updates = committed.load(Ordering::Relaxed);
    assert!(updates >= budget, "budget met: {updates} >= {budget}");

    // Live-row accounting is exact: the working set never grows or
    // shrinks, and the hit counters sum to the number of commits (every
    // successful read-modify-write added exactly 1; conflicting writers
    // aborted).
    let r = db.begin(IsolationLevel::Transaction);
    let read = table.read(&r);
    let (count, sum) = read.aggregate_numeric(1).unwrap();
    assert_eq!(count as i64, WORKING_SET, "working set drifted");
    assert_eq!(sum as u64 as usize, updates, "lost or duplicated update");
    drop(r);

    // Physical versions stayed bounded: with budget/WORKING_SET ≈ 30x
    // churn (quick) an unreclaimed history would be ~budget rows; the
    // bound below only holds if merges kept folding garbage out.
    let peak = max_physical.load(Ordering::Relaxed);
    assert!(
        peak < 16 * WORKING_SET as usize,
        "physical row versions grew unboundedly: peak {peak}"
    );

    // Let the GC settle the tail: with no writers left, every mark is
    // resolvable and every commit-table entry drops below the watermark,
    // so the trim must shrink the table to a bounded residue.
    let deadline = Instant::now() + Duration::from_secs(20);
    let bounded = loop {
        db.nudge_merges();
        std::thread::sleep(Duration::from_millis(60));
        let (commits, aborted) = table.txn_manager().finished_counts();
        if commits + aborted < 2_048 {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
    };
    let (commits, aborted) = table.txn_manager().finished_counts();
    assert!(
        bounded,
        "txn table not trimmed: {commits} commits + {aborted} aborted after {updates} updates"
    );

    let gc = db.gc_stats().expect("gc enabled");
    assert!(gc.cycles > 0, "gc never cycled: {gc:?}");
    assert!(gc.marks_resolved > 0, "gc resolved no marks: {gc:?}");
    assert!(gc.txn_entries_trimmed > 0, "gc trimmed nothing: {gc:?}");
    assert!(gc.last_watermark > 0, "watermark never advanced: {gc:?}");

    db.stop_merge_daemon();

    let p99 = p99_micros(&mut latencies.lock());
    // Lenient CI bound — the repro's F7c section measures the real
    // stall numbers; this only catches a reintroduced writer-blocking
    // publication (which shows up as multi-second p99 under churn).
    assert!(
        p99 < 2_000_000,
        "p99 write latency unbounded under merge churn: {p99}us"
    );

    // And the table still settles to exactly the working set.
    table.force_full_merge().unwrap();
    let s = table.stage_stats();
    assert_eq!(s.main_rows as i64, WORKING_SET, "full merge settles: {s:?}");
}

/// Updates of main-resident keys while classic delta merges rebuild a
/// ~100k-row, 8-column main (one column worker) and the GC trims the commit
/// table. Each merge builds for longer than two GC cycles, so deletions it
/// replays into its unpublished main as marks race the trim of their
/// writers' commit-table entries (the merge floor in `hana_core::gc`): a
/// lost entry resolves the copied mark as aborted and revives the old
/// version next to the new one. Every snapshot must see exactly the
/// settled rows, no point read may return two versions of a key, and no
/// update may fail on "more than one visible row".
#[test]
fn churn_over_a_settled_main_races_merges_and_gc() {
    const MAIN_ROWS: i64 = 100_000;
    let budget = updates_budget() / 4;
    let db = Database::in_memory();
    let cfg = TableConfig {
        l1_max_rows: 256,
        l2_max_rows: 2_048,
        merge_strategy: MergeStrategy::Classic,
        merge: MergeConfig::default().with_column_parallelism(1),
        ..TableConfig::default()
    };
    let mut cols = schema().columns().to_vec();
    for name in ["customer", "product", "amount", "quantity"] {
        cols.push(ColumnDef::new(name, DataType::Int));
    }
    for name in ["city", "currency"] {
        cols.push(ColumnDef::new(name, DataType::Str));
    }
    let table = db
        .create_table(Schema::new("sales", cols).unwrap(), cfg)
        .unwrap();
    let mut txn = db.begin(IsolationLevel::Transaction);
    let rows: Vec<Vec<Value>> = (0..MAIN_ROWS)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(0),
                Value::Int(i % 10_000),
                Value::Int(i % 1_000),
                Value::Int(i * 7 % 10_000),
                Value::Int(i % 20),
                Value::str(format!("city{}", i % 16)),
                Value::str(format!("cur{}", i % 5)),
            ]
        })
        .collect();
    table.bulk_load(&txn, rows).unwrap();
    db.commit(&mut txn).unwrap();
    table.force_full_merge().unwrap();
    let settled = table.last_merge_metrics();

    db.enable_gc();
    db.start_merge_daemon(Duration::from_millis(1));

    let committed = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let anomalies: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..WRITERS as u64 {
            let (db, table, committed, anomalies) = (&db, &table, &committed, &anomalies);
            scope.spawn(move || {
                let mut seed = w.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(13);
                let mut next = || {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed
                };
                while committed.load(Ordering::Relaxed) < budget {
                    let key = Value::Int((next() % MAIN_ROWS as u64) as i64);
                    let mut txn = db.begin(IsolationLevel::Transaction);
                    let result = (|| -> hana_common::Result<()> {
                        let row = table.read(&txn).point(0, &key)?;
                        if row.len() != 1 {
                            anomalies
                                .lock()
                                .push(format!("point {key} saw {} versions", row.len()));
                            return Ok(());
                        }
                        let hits = row[0][1].as_int().unwrap();
                        table.update_where(
                            &txn,
                            ColumnId(0),
                            &key,
                            &[(ColumnId(1), Value::Int(hits + 1))],
                        )?;
                        Ok(())
                    })();
                    match result {
                        Ok(()) => {
                            db.commit(&mut txn).unwrap();
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            if e.to_string().contains("more than one visible row") {
                                anomalies.lock().push(format!("update {key}: {e}"));
                            }
                            let _ = db.abort(&mut txn);
                        }
                    }
                }
            });
        }
        // Every snapshot sees exactly the settled rows.
        let (db, table, stop, anomalies) = (&db, &table, &stop, &anomalies);
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let r = db.begin(IsolationLevel::Transaction);
                let count = table.read(&r).count();
                if count != MAIN_ROWS as usize {
                    anomalies
                        .lock()
                        .push(format!("snapshot {} saw {count} rows", r.begin_ts()));
                }
            }
        });
        while committed.load(Ordering::Relaxed) < budget {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
    });
    db.stop_merge_daemon();

    let anomalies = anomalies.into_inner();
    assert!(
        anomalies.is_empty(),
        "{} anomalies, first: {:?}",
        anomalies.len(),
        &anomalies[..anomalies.len().min(5)]
    );
    assert_ne!(
        table.last_merge_metrics(),
        settled,
        "no delta merge published during the churn"
    );
    let gc = db.gc_stats().expect("gc enabled");
    assert!(gc.txn_entries_trimmed > 0, "gc trimmed nothing: {gc:?}");
    let r = db.begin(IsolationLevel::Transaction);
    let (count, sum) = table.read(&r).aggregate_numeric(1).unwrap();
    assert_eq!(count as i64, MAIN_ROWS, "rows drifted");
    assert_eq!(
        sum as usize,
        committed.load(Ordering::Relaxed),
        "lost or duplicated update"
    );
}

/// The background integrity scrub rides the merge daemon under durable
/// write churn: it must complete verification passes over the live pages
/// without stalling writers (the governor defers its ticks while OLTP is
/// hot, exactly like merges), must raise zero false corruption alarms on a
/// healthy store, and the database must still recover cleanly afterwards.
#[test]
fn scrub_under_durable_churn_never_stalls_writers() {
    let dir = tempfile::tempdir().unwrap();
    let db = Database::open(dir.path()).unwrap();
    let cfg = TableConfig {
        l1_max_rows: 256,
        l2_max_rows: 4_096,
        ..TableConfig::default()
    };
    let table = db.create_table(schema(), cfg).unwrap();
    let mut txn = db.begin(IsolationLevel::Transaction);
    let rows: Vec<Vec<Value>> = (0..WORKING_SET)
        .map(|i| vec![Value::Int(i), Value::Int(0)])
        .collect();
    table.bulk_load(&txn, rows).unwrap();
    db.commit(&mut txn).unwrap();
    // A savepoint gives the scrub a live on-disk surface to verify.
    db.savepoint().unwrap();

    db.enable_gc();
    db.enable_scrub(hana_common::ScrubConfig::default());
    db.start_merge_daemon(Duration::from_millis(1));

    let committed = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|scope| {
        for w in 0..WRITERS as u64 {
            let db = Arc::clone(&db);
            let table = Arc::clone(&table);
            let committed = Arc::clone(&committed);
            let stop = Arc::clone(&stop);
            let latencies = Arc::clone(&latencies);
            scope.spawn(move || {
                let mut seed = w.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
                let mut next = || {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed
                };
                let mut local = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let key = (next() % WORKING_SET as u64) as i64;
                    let start = Instant::now();
                    let mut txn = db.begin(IsolationLevel::Transaction);
                    let result = (|| -> hana_common::Result<()> {
                        let read = table.read(&txn);
                        let row = read.point(0, &Value::Int(key))?;
                        let hits = row[0][1].as_int().unwrap();
                        table.update_where(
                            &txn,
                            ColumnId(0),
                            &Value::Int(key),
                            &[(ColumnId(1), Value::Int(hits + 1))],
                        )?;
                        Ok(())
                    })();
                    match result {
                        Ok(()) => {
                            db.commit(&mut txn).unwrap();
                            local.push(start.elapsed().as_micros() as u64);
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            let _ = db.abort(&mut txn);
                        }
                    }
                }
                latencies.lock().extend(local);
            });
        }
        // Churn the on-disk pages under the scrub's feet: each savepoint
        // releases the previous generation's pages and writes new ones.
        let deadline = Instant::now() + Duration::from_secs(3);
        let mut savepoints = 0;
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(300));
            db.savepoint().unwrap();
            savepoints += 1;
        }
        assert!(savepoints >= 3, "soak too short to churn pages");
        stop.store(true, Ordering::Relaxed);
    });
    db.stop_merge_daemon();

    let commits = committed.load(Ordering::Relaxed);
    assert!(
        commits > 200,
        "writers starved under scrub: {commits} commits"
    );
    let p99 = p99_micros(&mut latencies.lock());
    assert!(p99 < 2_000_000, "p99 write latency under scrub: {p99}us");

    // The scrub made progress and found nothing wrong with a healthy disk.
    let stats = db.integrity_stats().expect("durable database");
    assert!(
        stats.scrub_passes >= 1,
        "scrub never completed a pass: {stats:?}"
    );
    assert!(stats.scrub_pages_scanned > 0, "{stats:?}");
    assert_eq!(
        stats.scrub_corruptions, 0,
        "false corruption alarm: {stats:?}"
    );
    let health = db.health_stats().expect("durable database");
    assert!(!health.read_only, "healthy store degraded: {health:?}");
    assert_eq!(health.corruptions, 0, "{health:?}");

    // The governor treated scrub ticks like any background pass while the
    // writers kept it hot: deferrals must have advanced.
    let gov = db.governor_stats();
    assert!(
        gov.merge_deferrals > 0,
        "no background pass was ever deferred while OLTP was hot: {gov:?}"
    );

    // And the churned+scrubbed database still recovers to exact state.
    let expected = {
        let r = db.begin(IsolationLevel::Transaction);
        let (count, sum) = table.read(&r).aggregate_numeric(1).unwrap();
        (count, sum)
    };
    db.savepoint().unwrap();
    drop(table);
    drop(db);
    let db = Database::open(dir.path()).unwrap();
    let table = db.table("churn").unwrap();
    let r = db.begin(IsolationLevel::Transaction);
    let (count, sum) = table.read(&r).aggregate_numeric(1).unwrap();
    assert_eq!((count, sum), expected, "recovery drifted after scrub soak");
}

/// GC runs per partition shard (one daemon target each): hammering one
/// shard's sweep never stalls writes routed to its siblings.
#[test]
fn partition_gc_fairness() {
    let db = Database::in_memory();
    let pt = db
        .create_partitioned_table(
            schema(),
            TableConfig {
                l1_max_rows: 128,
                l2_max_rows: 1_024,
                ..TableConfig::default()
            },
            PartitionConfig {
                partitions: 4,
                hash_column: 0,
            },
        )
        .unwrap();
    let mut txn = db.begin(IsolationLevel::Transaction);
    for i in 0..512i64 {
        pt.insert(&txn, vec![Value::Int(i), Value::Int(0)]).unwrap();
    }
    db.commit(&mut txn).unwrap();
    db.enable_gc();
    db.start_merge_daemon(Duration::from_millis(1));

    let victim = Arc::clone(&pt.partitions()[0]);
    let stop = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(AtomicUsize::new(0));
    let worst = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        // Saturate shard 0 with back-to-back sweeps (far beyond the
        // daemon's own 25ms-throttled cadence).
        {
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = victim.gc_sweep();
                }
            });
        }
        // Writers spread over every key: updates routed to shards 1..3
        // must keep landing with bounded latency.
        for w in 0..2u64 {
            let db = Arc::clone(&db);
            let pt = Arc::clone(&pt);
            let stop = Arc::clone(&stop);
            let writes = Arc::clone(&writes);
            let worst = Arc::clone(&worst);
            scope.spawn(move || {
                let mut k = w as i64;
                while !stop.load(Ordering::Relaxed) {
                    k = (k + 7) % 512;
                    let start = Instant::now();
                    let mut txn = db.begin(IsolationLevel::Transaction);
                    let snap = txn.read_snapshot();
                    let ok = (|| -> hana_common::Result<()> {
                        let row = pt.point(snap, &Value::Int(k))?;
                        let hits = row[0][1].as_int().unwrap();
                        pt.update_where(
                            &txn,
                            &Value::Int(k),
                            &[(ColumnId(1), Value::Int(hits + 1))],
                        )?;
                        Ok(())
                    })();
                    match ok {
                        Ok(()) => {
                            db.commit(&mut txn).unwrap();
                            writes.fetch_add(1, Ordering::Relaxed);
                            worst
                                .fetch_max(start.elapsed().as_micros() as usize, Ordering::Relaxed);
                        }
                        Err(_) => {
                            let _ = db.abort(&mut txn);
                        }
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
    });
    db.stop_merge_daemon();

    let n = writes.load(Ordering::Relaxed);
    let w = worst.load(Ordering::Relaxed);
    assert!(
        n > 100,
        "writers starved by a sibling shard's GC: {n} writes"
    );
    assert!(
        w < 2_000_000,
        "write stalled {w}us behind one shard's GC sweep"
    );
    // The per-shard sweeps + the daemon-driven ones all land in the
    // shared counters.
    let gc = db.gc_stats().expect("gc enabled");
    assert!(gc.cycles > 0);
}
