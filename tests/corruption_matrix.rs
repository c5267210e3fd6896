//! The bit-flip corruption matrix: every persisted artifact class crossed
//! with every interesting byte region, one flipped bit per case.
//!
//! Fixture history (built once, files kept in memory, restored per case):
//!
//! * savepoint **v1**: keys 0..40 = `a{i}`
//! * savepoint **v2**: keys 0..20 updated to `b{i}`, keys 40..50 inserted
//! * **tail**: one post-savepoint transaction inserting keys 50..55 (lives
//!   only in the REDO log)
//!
//! After flipping one bit in `data.pages` or `redo.log`, reopening the
//! database must land in exactly one of:
//!
//! * the full state (**v2+tail**) — the flip hit dead bytes or a clean
//!   torn-tail region (truncated, all its transactions lost whole);
//! * exactly **v2** — the log was detectably unusable but stale-safe
//!   (epoch mismatch ⇒ ignored), or its tail tore at a transaction edge;
//! * exactly **v1** — the newest savepoint failed verification and
//!   recovery fell back to the previous generation;
//! * `HanaError::Corruption` — no consistent state survives, so the open
//!   **fails closed**.
//!
//! Serving damaged or chimeric rows is never acceptable; the assertion is
//! exact-set equality against the recorded snapshots.
//!
//! Per-push this samples the matrix; `CORRUPTION_MATRIX_FULL=1` (nightly)
//! sweeps every live page, every offset class, every bit.

use hana_common::{ColumnDef, ColumnId, DataType, HanaError, Schema, TableConfig, Value};
use hana_core::Database;
use hana_persist::DEFAULT_PAGE_SIZE;
use hana_txn::IsolationLevel;
use std::collections::BTreeMap;
use std::sync::Arc;

type Rows = BTreeMap<i64, String>;

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

fn rows_of(db: &Arc<Database>) -> Rows {
    let t = db.table("t").unwrap();
    let r = db.begin(IsolationLevel::Transaction);
    t.read(&r)
        .collect_rows()
        .into_iter()
        .map(|vr| match (&vr.values[0], &vr.values[1]) {
            (Value::Int(k), Value::Str(s)) => (*k, s.to_string()),
            other => panic!("unexpected row shape {other:?}"),
        })
        .collect()
}

/// The pristine fixture: raw file bytes plus the three consistent states
/// a recovery is allowed to land in and the live-page corruption surface.
struct Fixture {
    pages: Vec<u8>,
    log: Vec<u8>,
    v1: Rows,
    v2: Rows,
    v2_tail: Rows,
    live_pages: Vec<u64>,
    /// The newest savepoint's file-directory pages (part of `live_pages`).
    directory_pages: Vec<u64>,
}

fn build_fixture() -> Fixture {
    let dir = tempfile::tempdir().unwrap();
    let (v1, v2, v2_tail, live_pages, directory_pages) = {
        let db = Database::open(dir.path()).unwrap();
        let t = db.create_table(schema(), TableConfig::small()).unwrap();

        let mut txn = db.begin(IsolationLevel::Transaction);
        for i in 0..40 {
            t.insert(&txn, vec![Value::Int(i), Value::str(format!("a{i}"))])
                .unwrap();
        }
        db.commit(&mut txn).unwrap();
        // Push rows through the lifecycle so the savepoint images cover
        // more than the L1-delta.
        t.force_full_merge().unwrap();
        assert_eq!(db.savepoint().unwrap(), 1);
        let v1 = rows_of(&db);

        let mut txn = db.begin(IsolationLevel::Transaction);
        for i in 0..20 {
            t.update_where(
                &txn,
                ColumnId(0),
                &Value::Int(i),
                &[(ColumnId(1), Value::str(format!("b{i}")))],
            )
            .unwrap();
        }
        for i in 40..50 {
            t.insert(&txn, vec![Value::Int(i), Value::str(format!("a{i}"))])
                .unwrap();
        }
        db.commit(&mut txn).unwrap();
        assert_eq!(db.savepoint().unwrap(), 2);
        let v2 = rows_of(&db);

        // Exactly ONE tail transaction: a torn log then recovers to v2 or
        // v2+tail, never to a mid-tail hybrid.
        let mut txn = db.begin(IsolationLevel::Transaction);
        for i in 50..55 {
            t.insert(&txn, vec![Value::Int(i), Value::str(format!("c{i}"))])
                .unwrap();
        }
        db.commit(&mut txn).unwrap();
        let v2_tail = rows_of(&db);

        let persistence = db.persistence().unwrap();
        let live_pages = persistence.live_page_ids();
        assert!(!live_pages.is_empty(), "fixture must have live image pages");
        let directory_pages = persistence.directory_page_ids();
        assert!(
            !directory_pages.is_empty(),
            "fixture must list images in a directory"
        );
        (v1, v2, v2_tail, live_pages, directory_pages)
    };
    assert_ne!(v1, v2);
    assert_ne!(v2, v2_tail);
    Fixture {
        pages: std::fs::read(dir.path().join("data.pages")).unwrap(),
        log: std::fs::read(dir.path().join("redo.log")).unwrap(),
        v1,
        v2,
        v2_tail,
        live_pages,
        directory_pages,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Outcome {
    FullState,
    ExactV2,
    ExactV1,
    FailedClosed,
}

/// Restore the pristine files, flip one bit in one of them, reopen, and
/// classify the result. Panics on anything outside the acceptable set.
fn run_case(fx: &Fixture, file: &str, offset: usize, bit: u8) -> Outcome {
    let dir = tempfile::tempdir().unwrap();
    let mut pages = fx.pages.clone();
    let mut log = fx.log.clone();
    match file {
        "data.pages" => pages[offset] ^= 1 << bit,
        "redo.log" => log[offset] ^= 1 << bit,
        other => panic!("unknown file {other}"),
    }
    std::fs::write(dir.path().join("data.pages"), &pages).unwrap();
    std::fs::write(dir.path().join("redo.log"), &log).unwrap();

    let ctx = format!("{file} offset {offset} bit {bit}");
    match Database::open(dir.path()) {
        Ok(db) => {
            let rows = rows_of(&db);
            if rows == fx.v2_tail {
                Outcome::FullState
            } else if rows == fx.v2 {
                Outcome::ExactV2
            } else if rows == fx.v1 {
                Outcome::ExactV1
            } else {
                panic!(
                    "{ctx}: recovered to a state that is none of v1/v2/v2+tail \
                     ({} rows) — corrupt rows may have been served",
                    rows.len()
                );
            }
        }
        Err(HanaError::Corruption(_)) => Outcome::FailedClosed,
        Err(e) => panic!("{ctx}: failed with a non-corruption error: {e}"),
    }
}

/// Offsets within one page: envelope header bytes (magic, version, kind,
/// flags, length, CRC) and the first payload bytes.
fn page_offsets(base: usize, full: bool) -> Vec<usize> {
    let rel: &[usize] = if full {
        &[0, 1, 2, 3, 4, 5, 8, 11, 12, 13, 40]
    } else {
        &[0, 8, 12]
    };
    rel.iter().map(|r| base + r).collect()
}

#[test]
fn bit_flip_matrix_never_serves_corrupt_rows() {
    let full = std::env::var("CORRUPTION_MATRIX_FULL").is_ok_and(|v| v == "1");
    let fx = build_fixture();
    let bits: Vec<u8> = if full { (0..8).collect() } else { vec![0, 7] };

    // Page-artifact targets: both superblock slots (manifests) and the
    // live pages — table images and the file directory listing them.
    // Sampled mode takes the slots, the first and last live page and the
    // directory's first page; full mode takes every live page.
    let mut page_targets: Vec<u64> = vec![0, 1];
    if full {
        page_targets.extend(fx.live_pages.iter().copied());
    } else {
        page_targets.push(*fx.live_pages.first().unwrap());
        page_targets.push(*fx.live_pages.last().unwrap());
        page_targets.push(fx.directory_pages[0]);
        page_targets.sort_unstable();
        page_targets.dedup();
    }

    let mut cases: Vec<(&str, usize, u8)> = Vec::new();
    for &pid in &page_targets {
        for off in page_offsets(pid as usize * DEFAULT_PAGE_SIZE, full) {
            assert!(off < fx.pages.len(), "page {pid} offset out of file");
            for &b in &bits {
                cases.push(("data.pages", off, b));
            }
        }
    }
    // Log targets: header magic, header epoch, first frame's length / CRC /
    // payload, a mid-file byte and the final byte.
    let llen = fx.log.len();
    assert!(llen > 28, "fixture log must contain the tail transaction");
    let mut log_offsets = vec![0, 8, 16, 20, 24, llen / 2, llen - 1];
    if full {
        log_offsets.extend([1, 7, 9, 15, 17, 21, 25, llen / 3, llen - 2]);
    }
    log_offsets.sort_unstable();
    log_offsets.dedup();
    for off in log_offsets {
        for &b in &bits {
            cases.push(("redo.log", off, b));
        }
    }

    let mut seen: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (file, off, bit) in &cases {
        let outcome = run_case(&fx, file, *off, *bit);
        let key = match outcome {
            Outcome::FullState => "full",
            Outcome::ExactV2 => "v2",
            Outcome::ExactV1 => "v1",
            Outcome::FailedClosed => "corruption",
        };
        *seen.entry(key).or_default() += 1;
    }
    println!(
        "corruption matrix: {} cases ({}) -> {:?}",
        cases.len(),
        if full { "full" } else { "sampled" },
        seen
    );

    // The matrix must exercise both recovery paths: redundancy fallback
    // (older savepoint generation) and the fail-closed refusal.
    assert!(
        seen.contains_key("v1"),
        "no case fell back to the previous savepoint generation"
    );
    assert!(
        seen.contains_key("corruption"),
        "no case failed closed with HanaError::Corruption"
    );
}

/// Pin the headline fallback path: damaging the newest manifest page
/// recovers the previous savepoint exactly, and the reopened database is
/// fully writable afterwards.
#[test]
fn newest_manifest_damage_falls_back_one_generation() {
    let fx = build_fixture();
    // Savepoint v2 lives in slot 0 (version % 2).
    assert_eq!(
        run_case(&fx, "data.pages", 12, 0),
        Outcome::ExactV1,
        "flipping the newest manifest's first payload bit must fall back to v1"
    );
}

/// Pin the fail-closed path: a complete log record whose checksum no
/// longer matches must refuse recovery with the named error (a torn tail
/// would truncate; rot must not).
#[test]
fn mid_log_rot_refuses_to_open_with_named_error() {
    let fx = build_fixture();
    let dir = tempfile::tempdir().unwrap();
    let mut log = fx.log.clone();
    let off = 24; // first frame's payload
    log[off] ^= 0x10;
    std::fs::write(dir.path().join("data.pages"), &fx.pages).unwrap();
    std::fs::write(dir.path().join("redo.log"), &log).unwrap();
    let err = match Database::open(dir.path()) {
        Ok(_) => panic!("a database with mid-log rot must not open"),
        Err(e) => e,
    };
    match err {
        HanaError::Corruption(m) => {
            assert!(m.contains("checksum"), "message should name the cause: {m}")
        }
        other => panic!("expected HanaError::Corruption, got {other}"),
    }
}
