//! The crash-everywhere harness.
//!
//! A scripted, deterministic workload walks one table through the whole
//! record life cycle — L1 inserts, L1→L2 merge, L2→main merge, savepoints,
//! commits, an abort, an uncommitted straggler. A dry run counts every
//! physical I/O operation the workload issues; the matrix then replays the
//! identical workload once per crash point, arming the fault injector to
//! kill the instance at exactly that operation, reopens the directory and
//! asserts the recovery contract:
//!
//! * the database always reopens (some valid manifest survives),
//! * every transaction whose `commit()` returned `Ok` is fully visible,
//! * every other row (failed commit, uncommitted, aborted) is invisible —
//!   no transaction is ever torn,
//! * the table exists if and only if `create_table` returned `Ok`,
//! * page accounting balances (no page leaked, none double-freed),
//! * the reopened database accepts new writes and a savepoint, and those
//!   survive a second reopen.
//!
//! The matrix samples up to [`MAX_POINTS`] crash points with an even
//! stride (always including the first and last operation) plus every
//! operation of each savepoint (image pages, the file directory, the
//! superblock flip, the log rotation); set `CRASH_MATRIX_FULL=1` to
//! exhaust every single point.

use hana_common::{ColumnDef, DataType, Result, Schema, TableConfig, Value};
use hana_core::Database;
use hana_merge::MergeDecision;
use hana_persist::{FaultInjector, FaultPolicy};
use hana_txn::IsolationLevel;
use std::sync::Arc;

/// Sampling cap for the default (CI-quick) profile.
const MAX_POINTS: u64 = 64;

fn schema() -> Schema {
    Schema::new(
        "t",
        vec![
            ColumnDef::new("id", DataType::Int).unique(),
            ColumnDef::new("v", DataType::Str),
        ],
    )
    .unwrap()
}

fn row(id: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::str(format!("v{id}"))]
}

/// What the scripted run managed to get acknowledged before the crash.
#[derive(Default, Debug)]
struct Progress {
    table_created: bool,
    /// Row-id ranges `[lo, hi)` whose commit returned `Ok`.
    committed: Vec<(i64, i64)>,
    savepoints: u64,
    /// I/O-operation ranges the workload's savepoints spanned.
    savepoint_ops: Vec<std::ops::Range<u64>>,
}

/// Insert `[lo, hi)` in one transaction and commit it. Only a returned
/// `Ok` counts as a durability promise.
fn commit_batch(db: &Arc<Database>, lo: i64, hi: i64) -> Result<()> {
    let t = db.table("t")?;
    let mut txn = db.begin(IsolationLevel::Transaction);
    for id in lo..hi {
        t.insert(&txn, row(id))?;
    }
    db.commit(&mut txn)?;
    Ok(())
}

/// `db.savepoint()`, recording the I/O operations it spanned.
fn savepoint(db: &Arc<Database>, progress: &mut Progress) -> Result<()> {
    let injector = db.persistence().expect("durable database").injector();
    let start = injector.ops();
    let result = db.savepoint();
    progress.savepoint_ops.push(start..injector.ops());
    result?;
    progress.savepoints += 1;
    Ok(())
}

/// The deterministic workload: every step that can fail returns early, so
/// `progress` records exactly the acknowledgements that happened. Serial
/// commit mode keeps the I/O-operation sequence identical across runs
/// (no timing-dependent group-commit batching).
fn run_workload(db: &Arc<Database>, progress: &mut Progress) -> Result<()> {
    db.set_commit_config(hana_common::CommitConfig::serial());
    let t = db.create_table(schema(), TableConfig::small())?;
    progress.table_created = true;

    commit_batch(db, 0, 8)?;
    progress.committed.push((0, 8));
    t.drain_l1()?;

    commit_batch(db, 8, 16)?;
    progress.committed.push((8, 16));
    t.merge_delta_as(MergeDecision::Classic)?;

    savepoint(db, progress)?;

    commit_batch(db, 16, 24)?;
    progress.committed.push((16, 24));
    t.drain_l1()?;

    // An aborted transaction: must be invisible forever.
    let mut ab = db.begin(IsolationLevel::Transaction);
    t.insert(&ab, row(2000))?;
    db.abort(&mut ab)?;

    // Second savepoint: flips to the other superblock slot, so recovery
    // exercises manifest alternation (the previous manifest must stay
    // valid until the new one is durable).
    savepoint(db, progress)?;

    commit_batch(db, 24, 32)?;
    progress.committed.push((24, 32));

    // An uncommitted straggler at "crash" time.
    let zombie = db.begin(IsolationLevel::Transaction);
    for id in 1000..1003 {
        t.insert(&zombie, row(id))?;
    }
    std::mem::forget(zombie);
    Ok(())
}

/// Reopen after the crash and check the whole recovery contract.
fn assert_recovery_contract(dir: &std::path::Path, progress: &Progress, point: u64) {
    let db = Database::open(dir).unwrap_or_else(|e| {
        panic!("crash point {point}: recovery must always succeed: {e} ({progress:?})")
    });

    match db.table("t") {
        Ok(t) => {
            let r = db.begin(IsolationLevel::Transaction);
            let read = t.read(&r);
            let mut expected = 0usize;
            for &(lo, hi) in &progress.committed {
                expected += (hi - lo) as usize;
                for id in lo..hi {
                    let hits = read.point(0, &Value::Int(id)).unwrap();
                    assert_eq!(
                        hits.len(),
                        1,
                        "crash point {point}: committed row {id} lost ({progress:?})"
                    );
                    assert_eq!(hits[0][1], Value::str(format!("v{id}")));
                }
            }
            assert_eq!(
                read.count(),
                expected,
                "crash point {point}: phantom rows beyond the committed set ({progress:?})"
            );
            // Uncommitted / aborted work must have vanished.
            for id in [1000i64, 1001, 1002, 2000] {
                assert!(
                    read.point(0, &Value::Int(id)).unwrap().is_empty(),
                    "crash point {point}: non-committed row {id} visible"
                );
            }
        }
        Err(_) => {
            assert!(
                !progress.table_created,
                "crash point {point}: create_table acknowledged but table lost"
            );
            assert!(
                progress.committed.is_empty(),
                "crash point {point}: commits acknowledged without a table"
            );
        }
    }

    // No page leaked, none double-freed: the free list reconstructed on
    // open must account for every allocated page not referenced by the
    // recovered manifest.
    let p = db.persistence().expect("durable database");
    let acct = p.page_accounting();
    assert_eq!(
        acct.allocated,
        2 + acct.free + acct.live,
        "crash point {point}: page accounting out of balance {acct:?}"
    );
    assert_eq!(p.pages().double_frees(), 0, "crash point {point}");

    // Degraded-mode flags must not leak into a freshly recovered instance.
    assert!(
        !p.health_stats().read_only,
        "crash point {point}: recovered instance must start healthy"
    );

    // The recovered database keeps working: new write, savepoint, reopen.
    let t = match db.table("t") {
        Ok(t) => t,
        Err(_) => db.create_table(schema(), TableConfig::small()).unwrap(),
    };
    let mut txn = db.begin(IsolationLevel::Transaction);
    t.insert(&txn, row(5000)).unwrap();
    db.commit(&mut txn)
        .unwrap_or_else(|e| panic!("crash point {point}: post-recovery commit failed: {e}"));
    db.savepoint()
        .unwrap_or_else(|e| panic!("crash point {point}: post-recovery savepoint failed: {e}"));
    drop(db);

    let db = Database::open(dir).unwrap();
    let t = db.table("t").unwrap();
    let r = db.begin(IsolationLevel::Transaction);
    assert_eq!(
        t.read(&r).point(0, &Value::Int(5000)).unwrap().len(),
        1,
        "crash point {point}: post-recovery write lost on second reopen"
    );
}

// ---------------------------------------------------------------------------
// Partitioned-table crash matrix: the same crash-everywhere discipline
// against a hash-partitioned table. Recovery must regroup every shard
// (committed rows visible through routed point lookups, uncommitted rows
// invisible in every partition) and keep the global page free list
// balanced.
// ---------------------------------------------------------------------------

/// Sampling cap for the partitioned matrix (its workload issues more I/O
/// per run — three shards' images per savepoint).
const P_MAX_POINTS: u64 = 32;

fn pschema() -> Schema {
    Schema::new(
        "p",
        vec![
            ColumnDef::new("id", DataType::Int).unique(),
            ColumnDef::new("v", DataType::Str),
        ],
    )
    .unwrap()
}

fn commit_pbatch(
    db: &Arc<Database>,
    pt: &Arc<hana_core::PartitionedTable>,
    lo: i64,
    hi: i64,
) -> Result<()> {
    let mut txn = db.begin(IsolationLevel::Transaction);
    for id in lo..hi {
        pt.insert(&txn, row(id))?;
    }
    db.commit(&mut txn)?;
    Ok(())
}

/// The deterministic partitioned workload: batches across all shards,
/// per-partition merges, savepoints, an abort and an uncommitted
/// straggler.
fn run_partitioned_workload(db: &Arc<Database>, progress: &mut Progress) -> Result<()> {
    db.set_commit_config(hana_common::CommitConfig::serial());
    let pt = db.create_partitioned_table(
        pschema(),
        TableConfig::small(),
        hana_common::PartitionConfig::new(3, 0),
    )?;
    progress.table_created = true;

    commit_pbatch(db, &pt, 0, 8)?;
    progress.committed.push((0, 8));
    // Merge only partition 0: shards advance through the lifecycle
    // independently, so recovery sees mixed per-partition stages.
    pt.partitions()[0].drain_l1()?;

    commit_pbatch(db, &pt, 8, 16)?;
    progress.committed.push((8, 16));
    pt.partitions()[1].drain_l1()?;
    pt.partitions()[1].merge_delta_as(MergeDecision::Classic)?;

    db.savepoint()?;
    progress.savepoints += 1;

    commit_pbatch(db, &pt, 16, 24)?;
    progress.committed.push((16, 24));
    for p in pt.partitions() {
        p.drain_l1()?;
    }

    // An aborted transaction: must be invisible in every partition.
    let mut ab = db.begin(IsolationLevel::Transaction);
    pt.insert(&ab, row(2000))?;
    db.abort(&mut ab)?;

    db.savepoint()?;
    progress.savepoints += 1;

    commit_pbatch(db, &pt, 24, 32)?;
    progress.committed.push((24, 32));

    // Uncommitted stragglers, spread over the shards by hash.
    let zombie = db.begin(IsolationLevel::Transaction);
    for id in 1000..1003 {
        pt.insert(&zombie, row(id))?;
    }
    std::mem::forget(zombie);
    Ok(())
}

/// Reopen after the crash and check the partitioned recovery contract.
fn assert_partitioned_recovery(dir: &std::path::Path, progress: &Progress, point: u64) {
    let db = Database::open(dir).unwrap_or_else(|e| {
        panic!("crash point {point}: recovery must always succeed: {e} ({progress:?})")
    });

    match db.partitioned_table("p") {
        Ok(pt) => {
            assert_eq!(
                pt.partition_count(),
                3,
                "crash point {point}: recovery lost a partition"
            );
            let r = db.begin(IsolationLevel::Transaction);
            let snap = r.read_snapshot();
            let read = pt.read_at(snap);
            let mut expected = 0usize;
            for &(lo, hi) in &progress.committed {
                expected += (hi - lo) as usize;
                for id in lo..hi {
                    let hits = pt.point(snap, &Value::Int(id)).unwrap();
                    assert_eq!(
                        hits.len(),
                        1,
                        "crash point {point}: committed row {id} lost ({progress:?})"
                    );
                    assert_eq!(hits[0][1], Value::str(format!("v{id}")));
                }
            }
            assert_eq!(
                read.count(),
                expected,
                "crash point {point}: phantom rows beyond the committed set ({progress:?})"
            );
            for id in [1000i64, 1001, 1002, 2000] {
                assert!(
                    pt.point(snap, &Value::Int(id)).unwrap().is_empty(),
                    "crash point {point}: non-committed row {id} visible"
                );
            }
            // Every shard holds only rows that hash to it.
            for (i, part) in pt.partitions().iter().enumerate() {
                for vrow in part.read_at(snap).collect_rows() {
                    assert_eq!(
                        pt.route_index(&vrow.values[0]),
                        i,
                        "crash point {point}: row in the wrong partition"
                    );
                }
            }
            // The recovered group keeps accepting routed writes.
            let mut txn = db.begin(IsolationLevel::Transaction);
            pt.insert(&txn, row(5000)).unwrap();
            db.commit(&mut txn).unwrap_or_else(|e| {
                panic!("crash point {point}: post-recovery commit failed: {e}")
            });
        }
        Err(_) => {
            // A torn create: never acknowledged, never committed into.
            assert!(
                !progress.table_created,
                "crash point {point}: create acknowledged but group lost"
            );
            assert!(
                progress.committed.is_empty(),
                "crash point {point}: commits acknowledged without a group"
            );
        }
    }

    // Page accounting balances across all shards' structures.
    let p = db.persistence().expect("durable database");
    let acct = p.page_accounting();
    assert_eq!(
        acct.allocated,
        2 + acct.free + acct.live,
        "crash point {point}: page accounting out of balance {acct:?}"
    );
    assert_eq!(p.pages().double_frees(), 0, "crash point {point}");

    db.savepoint()
        .unwrap_or_else(|e| panic!("crash point {point}: post-recovery savepoint failed: {e}"));
    drop(db);

    // Second reopen: the group and the post-recovery write both survive.
    let db = Database::open(dir).unwrap();
    if progress.table_created {
        let pt = db.partitioned_table("p").unwrap();
        let r = db.begin(IsolationLevel::Transaction);
        assert_eq!(
            pt.point(r.read_snapshot(), &Value::Int(5000))
                .unwrap()
                .len(),
            1,
            "crash point {point}: post-recovery write lost on second reopen"
        );
    }
}

#[test]
fn partitioned_crash_matrix_recovers_every_partition() {
    let dry = tempfile::tempdir().unwrap();
    let injector = FaultInjector::new();
    {
        let db = Database::open_with_injector(dry.path(), Arc::clone(&injector)).unwrap();
        let mut progress = Progress::default();
        run_partitioned_workload(&db, &mut progress).expect("dry run must not fail");
        assert_eq!(progress.committed.len(), 4);
        assert_eq!(progress.savepoints, 2);
    }
    let total_ops = injector.ops();
    assert!(
        total_ops > 40,
        "workload too small to be a meaningful matrix: {total_ops} ops"
    );

    let full = std::env::var("CRASH_MATRIX_FULL").is_ok_and(|v| v == "1");
    let stride = if full {
        1
    } else {
        (total_ops / P_MAX_POINTS).max(1)
    };
    let mut points: Vec<u64> = (0..total_ops).step_by(stride as usize).collect();
    if points.last() != Some(&(total_ops - 1)) {
        points.push(total_ops - 1);
    }

    for &point in &points {
        let dir = tempfile::tempdir().unwrap();
        let injector = FaultInjector::new();
        injector.arm(FaultPolicy::crash_at(point));
        let mut progress = Progress::default();
        if let Ok(db) = Database::open_with_injector(dir.path(), Arc::clone(&injector)) {
            let res = run_partitioned_workload(&db, &mut progress);
            assert!(
                res.is_err(),
                "crash point {point}: injector must have killed the workload"
            );
        }
        assert!(injector.crashed(), "crash point {point}: crash never fired");
        assert_partitioned_recovery(dir.path(), &progress, point);
    }
}

// ---------------------------------------------------------------------------
// Publication-window crashes: the non-blocking merge pipeline builds the
// new main / the L2 tail fully off to the side and publishes with a pure
// in-memory swap (`Arc` store / `publish_all`) that performs NO I/O. The
// only durable trace of a merge is its best-effort `MergeEvent` record,
// which recovery ignores: rows are replayed from their first-appearance
// records into the stage the savepoint image last captured. A crash
// anywhere between "off-side build complete" and "publication swap" is
// therefore durable-state-identical to a crash at the surrounding I/O
// operations — so a matrix over a merge-dense workload (below) covers the
// window exhaustively for both merge kinds. The recovery contract then
// proves the half-built structures are invisible (row counts exact) and
// their pages freed (page accounting balances).
// ---------------------------------------------------------------------------

/// Merge-dense workload: both merge kinds fire between every batch, so the
/// sampled crash points bracket each off-side build and publication.
fn run_merge_window_workload(db: &Arc<Database>, progress: &mut Progress) -> Result<()> {
    db.set_commit_config(hana_common::CommitConfig::serial());
    let t = db.create_table(schema(), TableConfig::small())?;
    progress.table_created = true;

    commit_batch(db, 0, 8)?;
    progress.committed.push((0, 8));
    t.drain_l1()?; // L1→L2: off-side copy, constant-time publish

    commit_batch(db, 8, 16)?;
    progress.committed.push((8, 16));
    t.drain_l1()?;
    t.merge_delta_as(MergeDecision::Classic)?; // delta→main: off-side build, swap

    db.savepoint()?;
    progress.savepoints += 1;

    commit_batch(db, 16, 24)?;
    progress.committed.push((16, 24));
    t.drain_l1()?;
    t.merge_delta_as(MergeDecision::Classic)?;

    commit_batch(db, 24, 32)?;
    progress.committed.push((24, 32));
    Ok(())
}

#[test]
fn merge_publication_window_crashes_recover() {
    let dry = tempfile::tempdir().unwrap();
    let injector = FaultInjector::new();
    {
        let db = Database::open_with_injector(dry.path(), Arc::clone(&injector)).unwrap();
        let mut progress = Progress::default();
        run_merge_window_workload(&db, &mut progress).expect("dry run must not fail");
        assert_eq!(progress.committed.len(), 4);
    }
    let total_ops = injector.ops();
    assert!(total_ops > 40, "workload too small: {total_ops} ops");

    let full = std::env::var("CRASH_MATRIX_FULL").is_ok_and(|v| v == "1");
    let stride = if full {
        1
    } else {
        (total_ops / MAX_POINTS).max(1)
    };
    let mut points: Vec<u64> = (0..total_ops).step_by(stride as usize).collect();
    if points.last() != Some(&(total_ops - 1)) {
        points.push(total_ops - 1);
    }

    for &point in &points {
        let dir = tempfile::tempdir().unwrap();
        let injector = FaultInjector::new();
        injector.arm(FaultPolicy::crash_at(point));
        let mut progress = Progress::default();
        if let Ok(db) = Database::open_with_injector(dir.path(), Arc::clone(&injector)) {
            // Merge events are best-effort (errors swallowed), so the
            // workload may survive a few ops past the crash point — but it
            // always ends on durable commits, which must fail.
            let res = run_merge_window_workload(&db, &mut progress);
            assert!(
                res.is_err(),
                "crash point {point}: injector must have killed the workload"
            );
        }
        assert!(injector.crashed(), "crash point {point}: crash never fired");
        assert_recovery_contract(dir.path(), &progress, point);
    }
}

#[test]
fn crash_everywhere_recovery_holds_at_every_io_operation() {
    // Dry run: count the I/O operations of one full workload.
    let dry = tempfile::tempdir().unwrap();
    let injector = FaultInjector::new();
    let mut dry_progress = Progress::default();
    {
        let db = Database::open_with_injector(dry.path(), Arc::clone(&injector)).unwrap();
        run_workload(&db, &mut dry_progress).expect("dry run must not fail");
        assert_eq!(dry_progress.committed.len(), 4);
        assert_eq!(dry_progress.savepoints, 2);
    }
    let total_ops = injector.ops();
    assert!(
        total_ops > 40,
        "workload too small to be a meaningful matrix: {total_ops} ops"
    );

    let full = std::env::var("CRASH_MATRIX_FULL").is_ok_and(|v| v == "1");
    let stride = if full {
        1
    } else {
        (total_ops / MAX_POINTS).max(1)
    };
    let mut points: Vec<u64> = (0..total_ops).step_by(stride as usize).collect();
    if points.last() != Some(&(total_ops - 1)) {
        points.push(total_ops - 1);
    }
    for ops in &dry_progress.savepoint_ops {
        points.extend(ops.clone());
    }
    points.sort_unstable();
    points.dedup();

    for &point in &points {
        let dir = tempfile::tempdir().unwrap();
        let injector = FaultInjector::new();
        injector.arm(FaultPolicy::crash_at(point));
        let mut progress = Progress::default();
        // The open itself performs injector-checked I/O, so an early crash
        // point may already kill it — that is a valid crash too.
        if let Ok(db) = Database::open_with_injector(dir.path(), Arc::clone(&injector)) {
            let res = run_workload(&db, &mut progress);
            assert!(
                res.is_err(),
                "crash point {point}: injector must have killed the workload"
            );
        }
        assert!(injector.crashed(), "crash point {point}: crash never fired");
        assert_recovery_contract(dir.path(), &progress, point);
    }
}
