//! The REDO log.
//!
//! "Logging for the REDO purpose is performed only once when new data is
//! entering the system, either within the L1-delta or for bulk inserts
//! within the L2-delta" (§3.2). Record kinds mirror exactly that protocol:
//! first-appearance data records, commit/abort records, and the data-free
//! merge *event* record. Records are framed `[len][crc][payload]`; replay
//! stops cleanly at a torn tail.
//!
//! ## Durability protocol
//!
//! Data records are *buffered* at first appearance; only transaction
//! outcomes force them to disk. Both **commit and abort** records are
//! retired through the group-commit pipeline ([`crate::group`]): the call
//! returns only once the record — and, because the log is strictly
//! append-ordered, every record sequenced before it — is fsynced. Aborts
//! flush for the same reason commits do: once `abort()` returns, a restart
//! must keep resolving that transaction's marks as rolled back instead of
//! re-deciding its fate from a log that ends mid-transaction. Recovery
//! treats transactions with neither outcome record as aborted, so a torn
//! tail can only ever *shrink* the committed set, never tear one
//! transaction's effects apart.
//!
//! ## Epochs
//!
//! The file starts with a 16-byte header: magic plus the **epoch** — the
//! savepoint version the log's records apply on top of. A savepoint doesn't
//! truncate the log in place; it *rotates* it ([`RedoLog::rotate`]): a fresh
//! header with the new epoch is written to a side file, fsynced, and
//! atomically renamed over the old log. Recovery replays records only when
//! the log's epoch matches the recovered manifest's version. This closes a
//! real crash window the in-place truncate had: dying between the superblock
//! flip and the truncate used to leave the *old* log paired with the *new*
//! manifest, and replay would re-apply rows already captured in the images.
//!
//! ## Failure containment
//!
//! An injected fault on [`flush`](Self::flush) fires *before* any byte
//! reaches the file, so the buffer survives and a later healthy flush
//! retires the same records — transient device hiccups are retryable. A
//! genuine partial write or fsync failure leaves the on-disk suffix
//! unknowable, so the log **wedges**: every later append/flush fails until a
//! successful [`rotate`](Self::rotate) re-establishes a known-good file.
//! Wedging is deliberate — retrying an fsync after it failed once silently
//! drops writes on most kernels, and appending after a partial frame would
//! bury every later record behind garbage.

use crate::codec::{Decoder, Encoder};
use crate::fault::{torn_error, FaultInjector, FaultOutcome, IoOp};
use crate::image::{decode_config, decode_schema, encode_config, encode_schema};
use crate::integrity::{envelope_crc, ArtifactKind, IntegrityState};
use hana_common::{
    HanaError, Result, RowId, Schema, TableConfig, TableId, Timestamp, TxnId, Value,
};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic of log files: each frame's CRC32C is salted with the log epoch and
/// covers the frame length (the [`crate::integrity`] envelope checksum), so
/// a record from another epoch or with a resized payload can never verify.
/// Pre-checksum `HANALOG1` files fail the magic check and are not read.
const LOG_MAGIC: [u8; 8] = *b"HANALOG2";

/// Header bytes: magic + epoch (u64 LE).
const LOG_HEADER: u64 = 16;

/// Epoch reported for a log whose header is unreadable — never matches a
/// manifest version, so no record of such a file is ever replayed.
pub const NO_EPOCH: u64 = u64::MAX;

/// One REDO record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A row's first appearance via the L1-delta (insert, or the new version
    /// written by an update).
    InsertL1 {
        /// Target table.
        table: TableId,
        /// Stable record id assigned on entry.
        row_id: RowId,
        /// Writing transaction.
        txn: TxnId,
        /// Full row payload.
        row: Vec<Value>,
    },
    /// A batch of rows entering directly through the L2-delta (bulk load,
    /// "bypassing the L1-delta").
    BulkLoadL2 {
        /// Target table.
        table: TableId,
        /// Row id of the first row; the batch occupies consecutive ids.
        first_row_id: RowId,
        /// Loading transaction.
        txn: TxnId,
        /// The loaded rows.
        rows: Vec<Vec<Value>>,
    },
    /// Logical deletion (also logged for the superseded version on update).
    Delete {
        /// Target table.
        table: TableId,
        /// The record whose current version is closed.
        row_id: RowId,
        /// Deleting transaction.
        txn: TxnId,
    },
    /// Transaction commit with its timestamp.
    Commit {
        /// The committing transaction.
        txn: TxnId,
        /// Its commit timestamp.
        ts: Timestamp,
    },
    /// Transaction abort.
    Abort {
        /// The aborting transaction.
        txn: TxnId,
    },
    /// DDL: a table was created (schema + lifecycle config).
    CreateTable {
        /// Assigned catalog id.
        table: TableId,
        /// The table schema.
        schema: Schema,
        /// Lifecycle configuration.
        config: TableConfig,
    },
    /// A merge happened — no data, just the event ("the event of the merge
    /// is written to the log").
    MergeEvent {
        /// Affected table.
        table: TableId,
        /// 0 = L1→L2, 1 = delta-to-main.
        kind: u8,
        /// Generation of the L2-delta involved.
        l2_generation: u64,
    },
}

impl LogRecord {
    fn encode(&self, e: &mut Encoder) {
        match self {
            LogRecord::InsertL1 {
                table,
                row_id,
                txn,
                row,
            } => {
                e.u8(1);
                e.u32(table.0);
                e.u64(row_id.0);
                e.u64(txn.0);
                e.u32(row.len() as u32);
                for v in row {
                    e.value(v);
                }
            }
            LogRecord::BulkLoadL2 {
                table,
                first_row_id,
                txn,
                rows,
            } => {
                e.u8(2);
                e.u32(table.0);
                e.u64(first_row_id.0);
                e.u64(txn.0);
                e.u32(rows.len() as u32);
                for row in rows {
                    e.u32(row.len() as u32);
                    for v in row {
                        e.value(v);
                    }
                }
            }
            LogRecord::Delete { table, row_id, txn } => {
                e.u8(3);
                e.u32(table.0);
                e.u64(row_id.0);
                e.u64(txn.0);
            }
            LogRecord::Commit { txn, ts } => {
                e.u8(4);
                e.u64(txn.0);
                e.u64(*ts);
            }
            LogRecord::Abort { txn } => {
                e.u8(5);
                e.u64(txn.0);
            }
            LogRecord::CreateTable {
                table,
                schema,
                config,
            } => {
                e.u8(7);
                e.u32(table.0);
                encode_schema(e, schema);
                encode_config(e, config);
            }
            LogRecord::MergeEvent {
                table,
                kind,
                l2_generation,
            } => {
                e.u8(6);
                e.u32(table.0);
                e.u8(*kind);
                e.u64(*l2_generation);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<LogRecord> {
        Ok(match d.u8()? {
            1 => {
                let table = TableId(d.u32()?);
                let row_id = RowId(d.u64()?);
                let txn = TxnId(d.u64()?);
                let n = d.u32()? as usize;
                let mut row = Vec::with_capacity(n);
                for _ in 0..n {
                    row.push(d.value()?);
                }
                LogRecord::InsertL1 {
                    table,
                    row_id,
                    txn,
                    row,
                }
            }
            2 => {
                let table = TableId(d.u32()?);
                let first_row_id = RowId(d.u64()?);
                let txn = TxnId(d.u64()?);
                let n = d.u32()? as usize;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let m = d.u32()? as usize;
                    let mut row = Vec::with_capacity(m);
                    for _ in 0..m {
                        row.push(d.value()?);
                    }
                    rows.push(row);
                }
                LogRecord::BulkLoadL2 {
                    table,
                    first_row_id,
                    txn,
                    rows,
                }
            }
            3 => LogRecord::Delete {
                table: TableId(d.u32()?),
                row_id: RowId(d.u64()?),
                txn: TxnId(d.u64()?),
            },
            4 => LogRecord::Commit {
                txn: TxnId(d.u64()?),
                ts: d.u64()?,
            },
            5 => LogRecord::Abort {
                txn: TxnId(d.u64()?),
            },
            6 => LogRecord::MergeEvent {
                table: TableId(d.u32()?),
                kind: d.u8()?,
                l2_generation: d.u64()?,
            },
            7 => LogRecord::CreateTable {
                table: TableId(d.u32()?),
                schema: decode_schema(d)?,
                config: decode_config(d)?,
            },
            t => return Err(HanaError::Persist(format!("unknown log record tag {t}"))),
        })
    }
}

fn header_bytes(epoch: u64) -> [u8; LOG_HEADER as usize] {
    let mut h = [0u8; LOG_HEADER as usize];
    h[..8].copy_from_slice(&LOG_MAGIC);
    h[8..].copy_from_slice(&epoch.to_le_bytes());
    h
}

/// How the record region of a log file ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogTail {
    /// The region ends exactly at a frame boundary — a clean shutdown.
    Clean,
    /// An *incomplete* trailing frame: the signature of a crash mid-write.
    /// Torn writes only ever produce prefixes (and a torn flush wedges the
    /// log), so an incomplete frame is always safe to truncate — the
    /// record's transaction never got a durable outcome.
    Torn,
    /// A **complete** frame whose checksum failed (or that was undecodable
    /// despite a valid checksum). A tear cannot produce this — the frame's
    /// every byte is present — so it is bit rot, and replay must refuse to
    /// proceed rather than silently drop this record and everything after
    /// it.
    Corrupt {
        /// Byte offset of the bad frame within the record region.
        offset: usize,
        /// What failed.
        reason: String,
    },
}

/// The per-frame checksum: the envelope CRC32C salted with the log epoch
/// (also covering the frame length).
fn frame_crc(epoch: u64, payload: &[u8]) -> u32 {
    envelope_crc(ArtifactKind::LogRecord, epoch, payload)
}

/// Parse the record region of a log file: the intact records, the byte
/// length of the valid prefix (relative to the region start), and how the
/// region ends — distinguishing a clean torn tail from mid-log corruption.
fn scan_records(data: &[u8], epoch: u64) -> (Vec<LogRecord>, usize, LogTail) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= data.len() {
        let len =
            u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]) as usize;
        let crc = u32::from_le_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]]);
        if pos + 8 + len > data.len() {
            return (out, pos, LogTail::Torn); // incomplete frame
        }
        let payload = &data[pos + 8..pos + 8 + len];
        if frame_crc(epoch, payload) != crc {
            let reason = format!("checksum mismatch in complete record frame {}", out.len());
            return (
                out,
                pos,
                LogTail::Corrupt {
                    offset: pos,
                    reason,
                },
            );
        }
        match LogRecord::decode(&mut Decoder::new(payload)) {
            Ok(rec) => out.push(rec),
            Err(e) => {
                let reason = format!(
                    "record frame {} verified its checksum but failed to decode ({e})",
                    out.len()
                );
                return (
                    out,
                    pos,
                    LogTail::Corrupt {
                        offset: pos,
                        reason,
                    },
                );
            }
        }
        pos += 8 + len;
    }
    let tail = if pos == data.len() {
        LogTail::Clean
    } else {
        LogTail::Torn
    };
    (out, pos, tail)
}

fn corrupt_log_error(path: &Path, offset: usize, reason: &str) -> HanaError {
    HanaError::Corruption(format!(
        "REDO log {}: {reason} at byte offset {offset} of the record region; \
         a torn tail would be truncated, but a complete frame with a bad \
         checksum is on-disk corruption — refusing to replay garbage",
        path.display()
    ))
}

struct LogInner {
    file: File,
    /// Records framed but not yet flushed. The log owns its buffer (no
    /// `BufWriter`) so that nothing can reach the file outside an explicit
    /// [`RedoLog::flush`] — the fault injector sees every byte.
    buf: Vec<u8>,
    epoch: u64,
    /// Set after a genuine partial write / failed fsync: the on-disk suffix
    /// is unknowable, so appends and flushes fail until the next rotation.
    wedged: Option<String>,
}

/// Append-only, checksummed, epoch-headered REDO log file.
pub struct RedoLog {
    path: PathBuf,
    inner: Mutex<LogInner>,
    injector: Arc<FaultInjector>,
    integrity: Arc<IntegrityState>,
}

impl RedoLog {
    /// Open (or create) the log at `path`.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with_injector(path, FaultInjector::new())
    }

    /// Open with an explicit fault injector (shared with the rest of the
    /// persistence instance).
    pub fn open_with_injector(path: &Path, injector: Arc<FaultInjector>) -> Result<Self> {
        Self::open_full(path, injector, Arc::new(IntegrityState::new()))
    }

    /// Open with explicit fault-injection and integrity accounting.
    ///
    /// A torn tail left by a crash is truncated away here, so post-recovery
    /// appends land after the last intact record instead of behind garbage.
    /// A **complete** frame with a bad checksum is a different animal: it
    /// cannot come from a tear, so the open fails closed with
    /// [`HanaError::Corruption`] instead of silently dropping records.
    pub fn open_full(
        path: &Path,
        injector: Arc<FaultInjector>,
        integrity: Arc<IntegrityState>,
    ) -> Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let epoch = if len < LOG_HEADER {
            // New (or torn-at-birth) file: stamp epoch 0. Durable with the
            // first flush; a crash before that reads back as an empty
            // epoch-0 log either way.
            file.set_len(0)?;
            file.write_all(&header_bytes(0))?;
            0
        } else {
            let mut hdr = [0u8; LOG_HEADER as usize];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut hdr)?;
            if hdr[..8] != LOG_MAGIC {
                // A sized file without the log magic was damaged, written
                // before the checksummed format, or never a log; all are
                // fail-closed (truncating it could silently discard
                // committed records).
                integrity.note_log_corruption();
                return Err(HanaError::Corruption(format!(
                    "{} is not a REDO log (bad magic)",
                    path.display()
                )));
            }
            let epoch = u64::from_le_bytes([
                hdr[8], hdr[9], hdr[10], hdr[11], hdr[12], hdr[13], hdr[14], hdr[15],
            ]);
            // Truncate a clean torn tail before appending; refuse mid-log
            // corruption outright.
            let mut data = Vec::with_capacity((len - LOG_HEADER) as usize);
            file.read_to_end(&mut data)?;
            let (records, valid, tail) = scan_records(&data, epoch);
            if let LogTail::Corrupt { offset, reason } = tail {
                integrity.note_log_corruption();
                return Err(corrupt_log_error(path, offset, &reason));
            }
            integrity.note_log_records_verified(records.len() as u64);
            if (valid as u64) < len - LOG_HEADER {
                file.set_len(LOG_HEADER + valid as u64)?;
            }
            file.seek(SeekFrom::End(0))?;
            epoch
        };
        Ok(RedoLog {
            path: path.to_path_buf(),
            inner: Mutex::new(LogInner {
                file,
                buf: Vec::new(),
                epoch,
                wedged: None,
            }),
            injector,
            integrity,
        })
    }

    /// The fault injector every log operation consults.
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// The integrity accounting scan-time verification lands in.
    pub fn integrity(&self) -> &Arc<IntegrityState> {
        &self.integrity
    }

    /// The epoch in the current file's header (the savepoint version its
    /// records apply on top of).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// True when a partial write / failed fsync has wedged the log (see
    /// module docs); only [`rotate`](Self::rotate) clears it.
    pub fn is_wedged(&self) -> bool {
        self.inner.lock().wedged.is_some()
    }

    /// Explicitly wedge the log. The savepoint uses this when the new
    /// manifest may already be durable but the log rotation failed: any
    /// record appended to the stale-epoch file would be silently ignored by
    /// recovery, so failing loudly until a rotation succeeds is the only
    /// honest behaviour.
    pub fn wedge(&self, reason: &str) {
        self.inner.lock().wedged = Some(reason.into());
    }

    fn wedged_error(msg: &str) -> HanaError {
        HanaError::Persist(format!(
            "REDO log is wedged after an earlier I/O failure ({msg}); \
             a successful savepoint (log rotation) is required to resume"
        ))
    }

    /// Append one record (buffered; call [`flush`](Self::flush) to force it
    /// to the OS, as commit does).
    pub fn append(&self, rec: &LogRecord) -> Result<()> {
        let mut inner = self.inner.lock();
        if let Some(msg) = &inner.wedged {
            return Err(Self::wedged_error(msg));
        }
        let outcome = self.injector.check(IoOp::LogAppend)?;
        let mut e = Encoder::new();
        rec.encode(&mut e);
        let payload = e.into_bytes();
        let crc = frame_crc(inner.epoch, &payload);
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(&payload);
        match outcome {
            FaultOutcome::Torn { keep } => {
                // Power loss mid-append: only a frame prefix is buffered.
                // The injector is now in the crashed state, so this prefix
                // can never be flushed by this instance.
                let keep = keep.min(frame.len());
                inner.buf.extend_from_slice(&frame[..keep]);
                Err(torn_error())
            }
            FaultOutcome::FlipBit { bit } => {
                // Silent bit rot: the damaged frame is buffered and the
                // append "succeeds". Only replay-time verification can
                // catch it.
                let byte = (bit as usize / 8) % frame.len();
                frame[byte] ^= 1 << (bit % 8);
                inner.buf.extend_from_slice(&frame);
                Ok(())
            }
            _ => {
                inner.buf.extend_from_slice(&frame);
                Ok(())
            }
        }
    }

    /// Flush buffered records and fsync.
    ///
    /// On an injected error nothing reaches the file and the buffer
    /// survives — a later flush retries the same records. On a genuine
    /// partial write or fsync failure the log wedges (see module docs).
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        if let Some(msg) = &inner.wedged {
            return Err(Self::wedged_error(msg));
        }
        let mut flip: Option<u64> = None;
        match self.injector.check(IoOp::LogSync) {
            Ok(FaultOutcome::Proceed) | Ok(FaultOutcome::Stale) => {}
            Ok(FaultOutcome::FlipBit { bit }) => flip = Some(bit),
            Ok(FaultOutcome::Torn { keep }) => {
                // Power loss mid-flush: a prefix of the buffered bytes
                // reaches the file. The instance is dead (crashed injector);
                // wedge so no late caller trusts this handle again.
                let keep = keep.min(inner.buf.len());
                let torn: Vec<u8> = inner.buf[..keep].to_vec();
                let _ = inner.file.write_all(&torn);
                inner.buf.clear();
                inner.wedged = Some("torn flush".into());
                return Err(torn_error());
            }
            Err(e) => return Err(e),
        }
        if !inner.buf.is_empty() {
            let mut buf = std::mem::take(&mut inner.buf);
            if let Some(bit) = flip {
                // Silent bit rot between buffer and platter: the flush
                // still reports success.
                let byte = (bit as usize / 8) % buf.len();
                buf[byte] ^= 1 << (bit % 8);
            }
            if let Err(e) = inner.file.write_all(&buf) {
                inner.wedged = Some(format!("partial log write: {e}"));
                return Err(e.into());
            }
        }
        if let Err(e) = inner.file.sync_data() {
            inner.wedged = Some(format!("log fsync failed: {e}"));
            return Err(e.into());
        }
        Ok(())
    }

    /// Record bytes durable in the log file (header excluded; call after a
    /// flush).
    pub fn len_bytes(&self) -> Result<u64> {
        Ok(std::fs::metadata(&self.path)?
            .len()
            .saturating_sub(LOG_HEADER))
    }

    /// Rotate to a fresh, empty log with `epoch` in its header (after a
    /// completed savepoint). The new file is written beside the old one,
    /// fsynced, then atomically renamed into place — at no instant does the
    /// path hold a half-truncated log. Buffered-but-unflushed records are
    /// discarded (their data is covered by the savepoint images; their
    /// transactions never got a durable outcome). A successful rotation
    /// also clears the wedged state.
    pub fn rotate(&self, epoch: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        if let FaultOutcome::Torn { .. } = self.injector.check(IoOp::LogRotate)? {
            return Err(torn_error());
        }
        let tmp = self.path.with_extension("log.new");
        let mut f = File::create(&tmp)?;
        f.write_all(&header_bytes(epoch))?;
        f.sync_data()?;
        std::fs::rename(&tmp, &self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        inner.file = file;
        inner.buf.clear();
        inner.epoch = epoch;
        inner.wedged = None;
        Ok(())
    }

    /// Read all intact records from a log file, truncating the view at a
    /// clean torn tail (the crash-recovery contract) but **failing** with
    /// [`HanaError::Corruption`] on a complete frame with a bad checksum.
    /// Epoch-blind — see [`read_all_with_epoch`](Self::read_all_with_epoch)
    /// for recovery.
    pub fn read_all(path: &Path) -> Result<Vec<LogRecord>> {
        Ok(Self::read_all_with_epoch(path)?.1)
    }

    /// Read a log file's epoch and intact records. A missing or shorter-
    /// than-header file reads as an empty epoch-0 log (the state a freshly
    /// created log crashes into); a wrong magic reads as [`NO_EPOCH`] so
    /// its bytes are never replayed; mid-log corruption (a complete frame
    /// failing its checksum — impossible for a torn write to produce) is a
    /// hard [`HanaError::Corruption`]: replaying the prefix would silently
    /// drop committed transactions.
    pub fn read_all_with_epoch(path: &Path) -> Result<(u64, Vec<LogRecord>)> {
        let mut data = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut data)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, Vec::new())),
            Err(e) => return Err(e.into()),
        }
        if (data.len() as u64) < LOG_HEADER {
            return Ok((0, Vec::new()));
        }
        if data[..8] != LOG_MAGIC {
            return Ok((NO_EPOCH, Vec::new()));
        }
        let epoch = u64::from_le_bytes([
            data[8], data[9], data[10], data[11], data[12], data[13], data[14], data[15],
        ]);
        let (records, _, tail) = scan_records(&data[LOG_HEADER as usize..], epoch);
        if let LogTail::Corrupt { offset, reason } = tail {
            return Err(corrupt_log_error(path, offset, &reason));
        }
        Ok((epoch, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultErrorKind, FaultPolicy};
    use tempfile::tempdir;

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::InsertL1 {
                table: TableId(1),
                row_id: RowId(10),
                txn: TxnId(3),
                row: vec![Value::Int(7), Value::str("x"), Value::Null],
            },
            LogRecord::BulkLoadL2 {
                table: TableId(1),
                first_row_id: RowId(11),
                txn: TxnId(3),
                rows: vec![vec![Value::Int(1)], vec![Value::double(2.5)]],
            },
            LogRecord::Delete {
                table: TableId(1),
                row_id: RowId(10),
                txn: TxnId(4),
            },
            LogRecord::Commit {
                txn: TxnId(3),
                ts: 99,
            },
            LogRecord::Abort { txn: TxnId(4) },
            LogRecord::MergeEvent {
                table: TableId(1),
                kind: 1,
                l2_generation: 5,
            },
            LogRecord::CreateTable {
                table: TableId(2),
                schema: hana_common::Schema::new(
                    "t2",
                    vec![hana_common::ColumnDef::new("x", hana_common::DataType::Int).unique()],
                )
                .unwrap(),
                config: TableConfig::small(),
            },
        ]
    }

    #[test]
    fn append_flush_read_round_trip() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("redo.log");
        let log = RedoLog::open(&path).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        log.flush().unwrap();
        let got = RedoLog::read_all(&path).unwrap();
        assert_eq!(got, sample_records());
        assert_eq!(log.epoch(), 0);
    }

    #[test]
    fn missing_file_reads_empty() {
        let dir = tempdir().unwrap();
        let got = RedoLog::read_all(&dir.path().join("nope.log")).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn torn_tail_is_ignored() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("redo.log");
        let log = RedoLog::open(&path).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        log.flush().unwrap();
        // Simulate a crash mid-write: append half a frame.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[200, 0, 0, 0, 1, 2]).unwrap();
        }
        let got = RedoLog::read_all(&path).unwrap();
        assert_eq!(got, sample_records());
    }

    #[test]
    fn reopen_truncates_torn_tail_before_appending() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("redo.log");
        let log = RedoLog::open(&path).unwrap();
        log.append(&sample_records()[3]).unwrap();
        log.flush().unwrap();
        drop(log);
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[200, 0, 0, 0, 1, 2]).unwrap(); // torn frame
        }
        // Reopen and keep writing: the new record must be readable (i.e. it
        // landed after the last intact record, not after the garbage).
        let log = RedoLog::open(&path).unwrap();
        log.append(&sample_records()[4]).unwrap();
        log.flush().unwrap();
        let got = RedoLog::read_all(&path).unwrap();
        assert_eq!(
            got,
            vec![sample_records()[3].clone(), sample_records()[4].clone()]
        );
    }

    #[test]
    fn corrupt_record_refuses_replay() {
        // PR 10 contract change: a *complete* frame with a bad checksum is
        // bit rot, not a torn tail — replay refuses to proceed (fails
        // closed with the named Corruption error) instead of silently
        // dropping the record and everything after it.
        let dir = tempdir().unwrap();
        let path = dir.path().join("redo.log");
        let log = RedoLog::open(&path).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        log.flush().unwrap();
        // Flip a byte inside the last record's payload.
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 2] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let err = RedoLog::read_all(&path).unwrap_err();
        assert!(matches!(err, HanaError::Corruption(_)), "{err}");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // Reopening for append refuses too — and counts the detection.
        let integrity = Arc::new(IntegrityState::new());
        let err = RedoLog::open_full(&path, FaultInjector::new(), Arc::clone(&integrity))
            .err()
            .unwrap();
        assert!(matches!(err, HanaError::Corruption(_)), "{err}");
        assert_eq!(integrity.stats().log_corruptions, 1);
    }

    #[test]
    fn corrupt_mid_log_record_refuses_replay() {
        // Corruption in the *middle* (not the last frame) is equally fatal.
        let dir = tempdir().unwrap();
        let path = dir.path().join("redo.log");
        let log = RedoLog::open(&path).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        log.flush().unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[LOG_HEADER as usize + 10] ^= 0x01; // first record's payload
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            RedoLog::read_all(&path),
            Err(HanaError::Corruption(_))
        ));
    }

    #[test]
    fn injected_flush_bit_flip_is_caught_at_replay() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("redo.log");
        let log = RedoLog::open(&path).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        log.injector()
            .arm(FaultPolicy::flip_bit(IoOp::LogSync, 0, 200));
        log.flush().unwrap(); // silent corruption: the flush "succeeds"
        assert!(!log.is_wedged());
        assert!(matches!(
            RedoLog::read_all(&path),
            Err(HanaError::Corruption(_))
        ));
    }

    #[test]
    fn epoch_salt_binds_records_to_their_log() {
        // Splice an (intact, checksummed) record region from an epoch-0 log
        // into an epoch-1 header: every frame must fail verification — the
        // epoch salt prevents a stale log's records from replaying under a
        // different epoch even if the header bytes are confused.
        let dir = tempdir().unwrap();
        let path = dir.path().join("redo.log");
        let log = RedoLog::open(&path).unwrap();
        log.append(&sample_records()[3]).unwrap();
        log.flush().unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[8..16].copy_from_slice(&1u64.to_le_bytes()); // epoch 0 → 1
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            RedoLog::read_all(&path),
            Err(HanaError::Corruption(_))
        ));
    }

    #[test]
    fn pre_checksum_log_is_refused() {
        // A `HANALOG1` file (frames with a plain CRC32 of the payload) is not
        // read: the open fails closed, and recovery never replays it.
        let dir = tempdir().unwrap();
        let path = dir.path().join("redo.log");
        let mut e = Encoder::new();
        sample_records()[3].encode(&mut e);
        let payload = e.into_bytes();
        let mut raw = Vec::new();
        raw.extend_from_slice(b"HANALOG1");
        raw.extend_from_slice(&5u64.to_le_bytes()); // epoch 5
        raw.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        raw.extend_from_slice(&crate::crc32(&payload).to_le_bytes());
        raw.extend_from_slice(&payload);
        std::fs::write(&path, &raw).unwrap();

        assert!(matches!(
            RedoLog::open(&path),
            Err(HanaError::Corruption(_))
        ));
        let (epoch, recs) = RedoLog::read_all_with_epoch(&path).unwrap();
        assert_eq!((epoch, recs.len()), (NO_EPOCH, 0));
        assert_eq!(std::fs::read(&path).unwrap(), raw, "the file is untouched");
    }

    #[test]
    fn rotate_clears_and_log_stays_usable() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("redo.log");
        let log = RedoLog::open(&path).unwrap();
        log.append(&sample_records()[0]).unwrap();
        log.flush().unwrap();
        assert!(log.len_bytes().unwrap() > 0);
        log.rotate(1).unwrap();
        assert_eq!(log.len_bytes().unwrap(), 0);
        assert_eq!(log.epoch(), 1);
        log.append(&sample_records()[3]).unwrap();
        log.flush().unwrap();
        let (epoch, got) = RedoLog::read_all_with_epoch(&path).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(got, vec![sample_records()[3].clone()]);
        // Reopen picks the rotated epoch back up.
        drop(log);
        let log = RedoLog::open(&path).unwrap();
        assert_eq!(log.epoch(), 1);
    }

    #[test]
    fn bad_magic_reads_as_no_epoch() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("redo.log");
        std::fs::write(&path, vec![0xABu8; 64]).unwrap();
        let (epoch, recs) = RedoLog::read_all_with_epoch(&path).unwrap();
        assert_eq!(epoch, NO_EPOCH);
        assert!(recs.is_empty());
        assert!(RedoLog::open(&path).is_err(), "refuses to append to it");
    }

    #[test]
    fn injected_flush_failure_is_retryable() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("redo.log");
        let log = RedoLog::open(&path).unwrap();
        log.append(&sample_records()[3]).unwrap();
        log.injector()
            .arm(FaultPolicy::fail_nth(IoOp::LogSync, 0, FaultErrorKind::Eio));
        assert!(log.flush().is_err());
        assert!(!log.is_wedged(), "injected faults fire before any byte");
        // The buffer survived: a healthy retry lands the same record.
        log.flush().unwrap();
        assert_eq!(
            RedoLog::read_all(&path).unwrap(),
            vec![sample_records()[3].clone()]
        );
    }

    #[test]
    fn torn_flush_wedges_until_rotation() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("redo.log");
        let log = RedoLog::open(&path).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        log.injector().arm(FaultPolicy::torn(IoOp::LogSync, 0, 5));
        assert!(log.flush().is_err());
        assert!(log.is_wedged());
        log.injector().disarm();
        assert!(log.append(&sample_records()[3]).is_err());
        assert!(log.flush().is_err());
        // The torn prefix parses as an empty log (frame incomplete).
        assert!(RedoLog::read_all(&path).unwrap().is_empty());
        // Rotation re-establishes a usable log.
        log.rotate(1).unwrap();
        assert!(!log.is_wedged());
        log.append(&sample_records()[3]).unwrap();
        log.flush().unwrap();
        assert_eq!(RedoLog::read_all(&path).unwrap().len(), 1);
    }

    #[test]
    fn merge_event_is_small() {
        // The merge logs an event, not the data (§3.2): the record must be
        // tiny regardless of how much data moved.
        let mut e = Encoder::new();
        LogRecord::MergeEvent {
            table: TableId(1),
            kind: 0,
            l2_generation: 123,
        }
        .encode(&mut e);
        assert!(e.len() < 32);
    }
}
