//! On-disk integrity: CRC32C, the checksummed artifact envelope, and
//! corruption accounting.
//!
//! Every artifact the persistence layer writes — pages, REDO records,
//! savepoint manifests, table-image blobs — is wrapped in one versioned
//! **envelope** so that a flipped bit anywhere (header, payload, or the
//! checksum itself) is *detected* on read instead of being decoded as valid
//! data and served to queries:
//!
//! ```text
//!  offset  size  field
//!  ------  ----  -----------------------------------------------
//!       0     1  magic (0xC7)
//!       1     1  format version (1)
//!       2     1  artifact kind (ArtifactKind tag)
//!       3     1  flags (0; reserved)
//!       4     4  payload length, u32 LE
//!       8     4  CRC32C, u32 LE
//!      12     n  payload
//! ```
//!
//! The CRC is computed over the caller-supplied 8-byte **salt** (which is
//! *not* stored — both sides must agree on it out of band), the header
//! prefix bytes `[magic, version, kind, flags, len]`, and the payload. The
//! salt binds an artifact to its *location or generation*: pages use their
//! page id (so a stale or misdirected read of some *other* valid page still
//! fails), image blobs use their manifest version (so a freed-and-stale
//! blob can never satisfy a newer manifest), and log records use the log
//! epoch. Savepoint manifests ride their page's envelope — the superblock
//! slot *is* the page id, so the same salt already binds them.
//!
//! CRC32C (Castagnoli, reflected polynomial `0x82F63B78`) is implemented
//! in-repo with a table-driven slicing-by-8 kernel — 8 bytes per step, four
//! table lookups per 32-bit half — because the container is offline and no
//! checksum dependency may be added. The classic check value pins the
//! polynomial: `crc32c(b"123456789") == 0xE3069283`.
//!
//! A pre-envelope artifact fails the magic check and reports
//! [`EnvelopeError::NotEnvelope`]. No reader falls back to an older format:
//! anything that is not a valid envelope surfaces as
//! [`HanaError::Corruption`], so a database written before the envelope
//! fails closed instead of opening.

use hana_common::HanaError;
use parking_lot::Mutex;
use rustc_hash::FxHashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// First byte of every enveloped artifact.
pub const ENVELOPE_MAGIC: u8 = 0xC7;

/// Current envelope format version.
pub const ENVELOPE_VERSION: u8 = 1;

/// Envelope header bytes preceding the payload.
pub const ENVELOPE_HEADER: usize = 12;

/// What kind of persisted artifact an envelope wraps. The kind byte is
/// covered by the CRC *and* checked explicitly, so a valid page envelope
/// read where a manifest was expected is rejected as corruption rather
/// than mis-parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// One fixed-size page of the page store.
    Page,
    /// One framed REDO log record.
    LogRecord,
    /// A savepoint manifest in a superblock slot.
    Manifest,
    /// A table-image blob inside a virtual file.
    TableImage,
}

impl ArtifactKind {
    /// Every kind, for exhaustive round-trip tests.
    pub const ALL: [ArtifactKind; 4] = [
        ArtifactKind::Page,
        ArtifactKind::LogRecord,
        ArtifactKind::Manifest,
        ArtifactKind::TableImage,
    ];

    /// The on-disk tag byte.
    pub fn tag(self) -> u8 {
        match self {
            ArtifactKind::Page => 1,
            ArtifactKind::LogRecord => 2,
            ArtifactKind::Manifest => 3,
            ArtifactKind::TableImage => 4,
        }
    }

    /// Human-readable name for error messages and stats.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Page => "page",
            ArtifactKind::LogRecord => "log record",
            ArtifactKind::Manifest => "savepoint manifest",
            ArtifactKind::TableImage => "table image",
        }
    }
}

/// Slicing-by-8 lookup tables for the Castagnoli polynomial, built once.
fn crc32c_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for i in 0..256u32 {
            let mut c = i;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0x82F6_3B78 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            t[0][i as usize] = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Streaming CRC32C state (Castagnoli), for checksums computed over
/// discontiguous parts (salt + header + payload) without concatenating.
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// Fresh state.
    pub fn new() -> Self {
        Crc32c { state: !0 }
    }

    /// Fold `data` into the running checksum, 8 bytes per step.
    pub fn update(&mut self, data: &[u8]) {
        let t = crc32c_tables();
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in chunks.by_ref() {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Finish and return the checksum.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32C (Castagnoli) over `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finalize()
}

/// The envelope checksum: CRC32C over salt (8 LE bytes, not stored), the
/// header prefix, and the payload.
pub fn envelope_crc(kind: ArtifactKind, salt: u64, payload: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(&[ENVELOPE_MAGIC, ENVELOPE_VERSION, kind.tag(), 0]);
    c.update(&salt.to_le_bytes());
    c.update(&(payload.len() as u32).to_le_bytes());
    c.update(payload);
    c.finalize()
}

/// Wrap `payload` in a checksummed envelope of `kind`, bound to `salt`.
pub fn seal(kind: ArtifactKind, salt: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEADER + payload.len());
    out.extend_from_slice(&[ENVELOPE_MAGIC, ENVELOPE_VERSION, kind.tag(), 0]);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&envelope_crc(kind, salt, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Why an envelope failed to open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The bytes don't start with the envelope magic — a pre-checksum
    /// artifact, or garbage.
    NotEnvelope,
    /// The bytes claim to be an envelope but fail validation (bad version,
    /// wrong kind, out-of-bounds length, or checksum mismatch).
    Corrupt(String),
}

/// Verify and unwrap an envelope of `kind` bound to `salt`. `bytes` may
/// carry trailing padding (pages are fixed-size); only the header plus
/// `len` payload bytes are interpreted.
pub fn open_envelope(kind: ArtifactKind, salt: u64, bytes: &[u8]) -> Result<&[u8], EnvelopeError> {
    if bytes.len() < ENVELOPE_HEADER || bytes[0] != ENVELOPE_MAGIC {
        return Err(EnvelopeError::NotEnvelope);
    }
    if bytes[1] != ENVELOPE_VERSION {
        return Err(EnvelopeError::Corrupt(format!(
            "unsupported envelope version {}",
            bytes[1]
        )));
    }
    if bytes[2] != kind.tag() {
        return Err(EnvelopeError::Corrupt(format!(
            "artifact kind mismatch: expected {} (tag {}), found tag {}",
            kind.name(),
            kind.tag(),
            bytes[2]
        )));
    }
    // The CRC is recomputed with the *expected* header constants, so a
    // damaged flags byte must be rejected explicitly or its flip would be
    // invisible to the checksum comparison.
    if bytes[3] != 0 {
        return Err(EnvelopeError::Corrupt(format!(
            "unsupported envelope flags {:#x}",
            bytes[3]
        )));
    }
    let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    if ENVELOPE_HEADER + len > bytes.len() {
        return Err(EnvelopeError::Corrupt(format!(
            "payload length {len} exceeds the {} available bytes",
            bytes.len() - ENVELOPE_HEADER
        )));
    }
    let stored = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let payload = &bytes[ENVELOPE_HEADER..ENVELOPE_HEADER + len];
    if envelope_crc(kind, salt, payload) != stored {
        return Err(EnvelopeError::Corrupt("checksum mismatch (crc32c)".into()));
    }
    Ok(payload)
}

/// Convert an envelope failure into the named database error.
pub fn corruption_error(kind: ArtifactKind, what: &str, detail: &str) -> HanaError {
    HanaError::Corruption(format!("{} {what}: {detail}", kind.name()))
}

/// Point-in-time snapshot of one instance's integrity counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Page envelopes verified successfully on read.
    pub pages_verified: u64,
    /// Page reads that failed checksum/format validation.
    pub pages_corrupt: u64,
    /// Pages currently quarantined after a checksum failure (reads
    /// fast-fail until the page is rewritten).
    pub pages_quarantined: u64,
    /// Log records whose frame checksum verified on scan/replay.
    pub log_records_verified: u64,
    /// Mid-log checksum mismatches (complete frame, bad CRC — bit rot, as
    /// opposed to a clean torn tail).
    pub log_corruptions: u64,
    /// Savepoint manifests that failed validation.
    pub manifests_corrupt: u64,
    /// Table-image blobs whose envelope verified.
    pub images_verified: u64,
    /// Table-image blobs that failed validation.
    pub images_corrupt: u64,
    /// Completed background scrub passes over the page store.
    pub scrub_passes: u64,
    /// Pages re-verified by the scrub daemon.
    pub scrub_pages_scanned: u64,
    /// Corruption detections attributable to the scrub daemon.
    pub scrub_corruptions: u64,
}

impl IntegrityStats {
    /// Total corruption detections across artifact classes.
    pub fn total_corruptions(&self) -> u64 {
        self.pages_corrupt + self.log_corruptions + self.manifests_corrupt + self.images_corrupt
    }
}

/// Shared integrity accounting for one persistence instance: verification
/// and corruption counters per artifact class, plus the per-page
/// quarantine set. Threaded through [`PageStore`](crate::PageStore) and
/// [`RedoLog`](crate::RedoLog) so every read-side verification lands in
/// one place.
#[derive(Default)]
pub struct IntegrityState {
    pages_verified: AtomicU64,
    pages_corrupt: AtomicU64,
    log_records_verified: AtomicU64,
    log_corruptions: AtomicU64,
    manifests_corrupt: AtomicU64,
    images_verified: AtomicU64,
    images_corrupt: AtomicU64,
    scrub_passes: AtomicU64,
    scrub_pages_scanned: AtomicU64,
    scrub_corruptions: AtomicU64,
    quarantined: Mutex<FxHashSet<u64>>,
}

impl IntegrityState {
    /// Fresh, all-zero state.
    pub fn new() -> Self {
        Self::default()
    }

    /// A page read verified its envelope.
    pub fn note_page_verified(&self) {
        self.pages_verified.fetch_add(1, Ordering::Relaxed);
    }

    /// A page failed validation: count it and quarantine the page so later
    /// reads fast-fail instead of re-verifying known-bad bytes.
    pub fn note_page_corrupt(&self, page: u64) {
        self.pages_corrupt.fetch_add(1, Ordering::Relaxed);
        self.quarantined.lock().insert(page);
    }

    /// True when `page` is quarantined.
    pub fn is_quarantined(&self, page: u64) -> bool {
        self.quarantined.lock().contains(&page)
    }

    /// Lift the quarantine (the page was rewritten with fresh contents).
    pub fn clear_quarantine(&self, page: u64) {
        self.quarantined.lock().remove(&page);
    }

    /// Log records that passed frame verification.
    pub fn note_log_records_verified(&self, n: u64) {
        self.log_records_verified.fetch_add(n, Ordering::Relaxed);
    }

    /// A complete log frame failed its checksum (mid-log corruption).
    pub fn note_log_corruption(&self) {
        self.log_corruptions.fetch_add(1, Ordering::Relaxed);
    }

    /// A savepoint manifest failed validation.
    pub fn note_manifest_corrupt(&self) {
        self.manifests_corrupt.fetch_add(1, Ordering::Relaxed);
    }

    /// A table-image blob verified.
    pub fn note_image_verified(&self) {
        self.images_verified.fetch_add(1, Ordering::Relaxed);
    }

    /// A table-image blob failed validation.
    pub fn note_image_corrupt(&self) {
        self.images_corrupt.fetch_add(1, Ordering::Relaxed);
    }

    /// Account one scrub batch; `completed_pass` marks a full cycle over
    /// the page store.
    pub fn note_scrub_batch(&self, scanned: u64, corrupt: u64, completed_pass: bool) {
        self.scrub_pages_scanned
            .fetch_add(scanned, Ordering::Relaxed);
        self.scrub_corruptions.fetch_add(corrupt, Ordering::Relaxed);
        if completed_pass {
            self.scrub_passes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> IntegrityStats {
        IntegrityStats {
            pages_verified: self.pages_verified.load(Ordering::Relaxed),
            pages_corrupt: self.pages_corrupt.load(Ordering::Relaxed),
            pages_quarantined: self.quarantined.lock().len() as u64,
            log_records_verified: self.log_records_verified.load(Ordering::Relaxed),
            log_corruptions: self.log_corruptions.load(Ordering::Relaxed),
            manifests_corrupt: self.manifests_corrupt.load(Ordering::Relaxed),
            images_verified: self.images_verified.load(Ordering::Relaxed),
            images_corrupt: self.images_corrupt.load(Ordering::Relaxed),
            scrub_passes: self.scrub_passes.load(Ordering::Relaxed),
            scrub_pages_scanned: self.scrub_pages_scanned.load(Ordering::Relaxed),
            scrub_corruptions: self.scrub_corruptions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_check_value() {
        // The canonical Castagnoli check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn crc32c_streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 13) as u8).collect();
        for split in [0, 1, 3, 7, 8, 9, 63, 512, 1024] {
            let mut c = Crc32c::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), crc32c(&data), "split at {split}");
        }
    }

    #[test]
    fn seal_open_round_trip_all_kinds() {
        for kind in ArtifactKind::ALL {
            let sealed = seal(kind, 42, b"hello integrity");
            assert_eq!(
                open_envelope(kind, 42, &sealed).unwrap(),
                b"hello integrity"
            );
            // Trailing padding (as pages have) is ignored.
            let mut padded = sealed.clone();
            padded.resize(padded.len() + 100, 0);
            assert_eq!(
                open_envelope(kind, 42, &padded).unwrap(),
                b"hello integrity"
            );
        }
    }

    #[test]
    fn wrong_salt_is_corruption() {
        let sealed = seal(ArtifactKind::Page, 7, b"payload");
        assert!(matches!(
            open_envelope(ArtifactKind::Page, 8, &sealed),
            Err(EnvelopeError::Corrupt(_))
        ));
    }

    #[test]
    fn wrong_kind_is_corruption() {
        let sealed = seal(ArtifactKind::Page, 7, b"payload");
        assert!(matches!(
            open_envelope(ArtifactKind::Manifest, 7, &sealed),
            Err(EnvelopeError::Corrupt(_))
        ));
    }

    #[test]
    fn legacy_bytes_are_not_an_envelope() {
        assert_eq!(
            open_envelope(ArtifactKind::Page, 0, b"plain old bytes"),
            Err(EnvelopeError::NotEnvelope)
        );
        assert_eq!(
            open_envelope(ArtifactKind::Page, 0, b""),
            Err(EnvelopeError::NotEnvelope)
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let sealed = seal(ArtifactKind::LogRecord, 3, b"exact payload bytes");
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut damaged = sealed.clone();
                damaged[byte] ^= 1 << bit;
                assert!(
                    open_envelope(ArtifactKind::LogRecord, 3, &damaged).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn quarantine_round_trip() {
        let s = IntegrityState::new();
        assert!(!s.is_quarantined(9));
        s.note_page_corrupt(9);
        assert!(s.is_quarantined(9));
        assert_eq!(s.stats().pages_corrupt, 1);
        assert_eq!(s.stats().pages_quarantined, 1);
        s.clear_quarantine(9);
        assert!(!s.is_quarantined(9));
        assert_eq!(s.stats().pages_quarantined, 0);
    }
}
