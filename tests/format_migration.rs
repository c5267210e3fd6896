//! Pre-checksum on-disk formats are not read: a database written in them
//! must fail closed with `HanaError::Corruption` — not open as empty, not
//! serve rows — and must be left byte-for-byte as it was.
//!
//! The fixture is built byte-by-byte in the legacy layout this repo used
//! before the integrity envelope landed:
//!
//! * pages: `[len u32][crc32 u32][payload]`, zero-padded to the page size;
//! * superblock slot: the manifest wrapped in `[crc32][bytes]` framing
//!   inside a legacy page;
//! * table-image blobs: raw encoded bytes (no envelope) chunked across
//!   pages;
//! * REDO log: `HANALOG1` magic, per-record CRC over the payload alone.

use hana_common::{
    ColumnDef, CommitConfig, DataType, GovernorConfig, HanaError, Schema, TableConfig, Value,
};
use hana_core::Database;
use hana_persist::{crc32, Encoder, DEFAULT_PAGE_SIZE};
use hana_txn::IsolationLevel;

const LEGACY_PAGE_HEADER: usize = 8;

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

/// One page in the pre-envelope format: `[len][crc32(payload)][payload]`.
fn legacy_page(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= DEFAULT_PAGE_SIZE - LEGACY_PAGE_HEADER);
    let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
    buf[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    buf[4..8].copy_from_slice(&crc32(payload).to_le_bytes());
    buf[8..8 + payload.len()].copy_from_slice(payload);
    buf
}

/// Write a complete legacy-format database into `dir`: savepoint version 1
/// holding one table image, an empty `HANALOG1` log at epoch 1.
fn build_legacy_fixture(dir: &std::path::Path, rows: i64) {
    // Produce the image bytes with current code (the encoding of
    // TableImage itself is unchanged; only the wrapping moved from raw
    // bytes to an envelope).
    let src = Database::in_memory();
    let t = src.create_table(schema(), TableConfig::small()).unwrap();
    let mut txn = src.begin(IsolationLevel::Transaction);
    for i in 0..rows {
        t.insert(&txn, vec![Value::Int(i), Value::str(format!("v{i}"))])
            .unwrap();
    }
    src.commit(&mut txn).unwrap();
    let mut e = Encoder::new();
    t.to_image().encode(&mut e);
    let blob = e.into_bytes(); // raw: pre-checksum images had no envelope

    // Chunk the blob across pages 2.. at the legacy payload capacity.
    let cap = DEFAULT_PAGE_SIZE - LEGACY_PAGE_HEADER;
    let mut image_pages = Vec::new();
    let mut page_ids = Vec::new();
    for (i, chunk) in blob.chunks(cap).enumerate() {
        image_pages.push(legacy_page(chunk));
        page_ids.push(2 + i as u64);
    }

    // The manifest: version 1, a clock safely above every imaged commit
    // timestamp, default configs, one virtual file.
    let version: u64 = 1;
    let mut m = Encoder::new();
    m.u64(version);
    m.u64(1_000); // clock
    let cc = CommitConfig::default();
    m.bool(cc.group_commit);
    m.u64(cc.max_batch as u64);
    m.u64(cc.max_wait_us);
    let gc = GovernorConfig::default();
    m.bool(gc.enabled);
    m.u64(gc.max_concurrent_scans as u64);
    m.u64(gc.scan_queue_timeout_ms);
    m.u64(gc.oltp_p99_budget_us);
    m.u64(gc.min_scan_parallelism as u64);
    m.u32(1); // one virtual file
    m.u64(blob.len() as u64);
    m.u32(page_ids.len() as u32);
    for p in &page_ids {
        m.u64(*p);
    }
    let manifest = m.into_bytes();

    // Legacy manifests ride `[crc32][bytes]` framing inside their page.
    let mut f = Encoder::new();
    f.u32(crc32(&manifest));
    f.bytes(&manifest);
    let slot_payload = f.into_bytes();

    // Slot = version % 2 = 1; slot 0 stays unwritten (all zeroes).
    let mut pages_file = vec![0u8; DEFAULT_PAGE_SIZE];
    pages_file.extend_from_slice(&legacy_page(&slot_payload));
    for p in &image_pages {
        pages_file.extend_from_slice(p);
    }
    std::fs::write(dir.join("data.pages"), &pages_file).unwrap();

    // An empty legacy log whose epoch matches the manifest version.
    let mut log = Vec::with_capacity(16);
    log.extend_from_slice(b"HANALOG1");
    log.extend_from_slice(&version.to_le_bytes());
    std::fs::write(dir.join("redo.log"), &log).unwrap();
}

/// Every file of the database directory, by name.
fn files(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    out.sort();
    out
}

#[test]
fn legacy_database_fails_closed_and_is_left_untouched() {
    let dir = tempfile::tempdir().unwrap();
    build_legacy_fixture(dir.path(), 30);
    let before = files(dir.path());
    let err = match Database::open(dir.path()) {
        Ok(_) => panic!("a pre-checksum database must not open"),
        Err(e) => e,
    };
    assert!(
        matches!(err, HanaError::Corruption(_)),
        "expected fail-closed corruption error, got: {err}"
    );
    assert!(
        files(dir.path()) == before,
        "a refused open must not modify the directory"
    );
}

/// A damaged legacy fixture fails closed the same way: never an empty
/// database, never a half-loaded table.
#[test]
fn damaged_legacy_manifest_fails_closed_not_garbage() {
    let dir = tempfile::tempdir().unwrap();
    build_legacy_fixture(dir.path(), 10);
    let mut pages = std::fs::read(dir.path().join("data.pages")).unwrap();
    // Zap the legacy manifest's framing CRC inside slot 1.
    pages[DEFAULT_PAGE_SIZE + LEGACY_PAGE_HEADER] ^= 0xFF;
    std::fs::write(dir.path().join("data.pages"), &pages).unwrap();
    let err = match Database::open(dir.path()) {
        Ok(_) => panic!("a damaged legacy database must not open"),
        Err(e) => e,
    };
    assert!(
        matches!(err, HanaError::Corruption(_)),
        "expected fail-closed corruption error, got: {err}"
    );
}
