//! The page store: fixed-size pages in one data file.
//!
//! The persistence layer "is based on a virtual file concept with visible
//! page limits of configurable size" (§2.2). [`PageStore`] provides the page
//! substrate: allocate, write, read, free. The first two pages are reserved
//! as the alternating superblock slots used by the savepoint manifest.
//!
//! Every page is wrapped in the checksummed [`integrity`](crate::integrity)
//! envelope with the **page id as salt**, so a read verifies not only that
//! the bytes are undamaged (CRC32C) but that they belong to *this* page — a
//! stale or misdirected read of some other valid page fails too. A page
//! that fails verification — pre-envelope formats included, which are not
//! read — is **quarantined**: later reads fast-fail with
//! [`HanaError::Corruption`] until the page is rewritten. An all-zero page
//! is *unwritten* (no write reached it; the file grew past it), not
//! damaged: it reads as an empty payload.
//!
//! Every physical operation consults the store's [`FaultInjector`] first, so
//! the crash-everywhere harness can fail or tear any page write, read, or
//! fsync deterministically — and the corruption matrix can flip single bits
//! or serve stale reads silently. The free list guards against double-frees
//! and is reconstructible from a manifest via [`PageStore::reset_free_list`],
//! which is how reopening a database reclaims pages orphaned by a crashed
//! savepoint.

use crate::fault::{torn_error, FaultInjector, FaultOutcome, IoOp};
use crate::integrity::{self, ArtifactKind, EnvelopeError, IntegrityState, ENVELOPE_HEADER};
use hana_common::{HanaError, Result};
use parking_lot::Mutex;
use rustc_hash::FxHashSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default page size in bytes.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Identifier of one page within the store's data file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

#[derive(Default)]
struct FreeList {
    /// Allocation order (LIFO reuse).
    list: Vec<PageId>,
    /// Membership set: the double-free guard.
    members: FxHashSet<u64>,
}

impl FreeList {
    fn push(&mut self, page: PageId) -> bool {
        if !self.members.insert(page.0) {
            return false; // already free: double-free attempt
        }
        self.list.push(page);
        true
    }

    fn pop(&mut self) -> Option<PageId> {
        let p = self.list.pop()?;
        self.members.remove(&p.0);
        Some(p)
    }
}

/// A file of fixed-size, checksummed pages with a free list.
pub struct PageStore {
    file: Mutex<File>,
    page_size: usize,
    next_page: AtomicU64,
    free: Mutex<FreeList>,
    injector: Arc<FaultInjector>,
    integrity: Arc<IntegrityState>,
    double_frees: AtomicU64,
}

impl PageStore {
    /// Open (or create) the page file at `path`.
    pub fn open(path: &Path, page_size: usize) -> Result<Self> {
        Self::open_with_injector(path, page_size, FaultInjector::new())
    }

    /// Open with an explicit fault injector (shared with the rest of the
    /// persistence instance).
    pub fn open_with_injector(
        path: &Path,
        page_size: usize,
        injector: Arc<FaultInjector>,
    ) -> Result<Self> {
        Self::open_full(path, page_size, injector, Arc::new(IntegrityState::new()))
    }

    /// Open with explicit fault-injection *and* integrity accounting
    /// (both shared with the rest of the persistence instance).
    pub fn open_full(
        path: &Path,
        page_size: usize,
        injector: Arc<FaultInjector>,
        integrity: Arc<IntegrityState>,
    ) -> Result<Self> {
        assert!(page_size > ENVELOPE_HEADER + 16, "page size too small");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let existing_pages = len.div_ceil(page_size as u64);
        Ok(PageStore {
            file: Mutex::new(file),
            page_size,
            // Pages 0 and 1 are superblock slots.
            next_page: AtomicU64::new(existing_pages.max(2)),
            free: Mutex::new(FreeList::default()),
            injector,
            integrity,
            double_frees: AtomicU64::new(0),
        })
    }

    /// The fault injector every physical operation consults.
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// The integrity accounting every read-side verification lands in.
    pub fn integrity(&self) -> &Arc<IntegrityState> {
        &self.integrity
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Usable payload bytes per page (envelope header excluded).
    pub fn payload_size(&self) -> usize {
        self.page_size - ENVELOPE_HEADER
    }

    /// Number of pages ever allocated (including the superblock slots).
    pub fn allocated_pages(&self) -> u64 {
        self.next_page.load(Ordering::SeqCst)
    }

    /// Pages currently on the free list.
    pub fn free_pages(&self) -> u64 {
        self.free.lock().list.len() as u64
    }

    /// Double-free attempts caught (each one a bug in the caller; the page
    /// stays free exactly once).
    pub fn double_frees(&self) -> u64 {
        self.double_frees.load(Ordering::SeqCst)
    }

    /// Allocate a page (reusing freed pages first).
    pub fn alloc(&self) -> PageId {
        if let Some(p) = self.free.lock().pop() {
            return p;
        }
        PageId(self.next_page.fetch_add(1, Ordering::SeqCst))
    }

    /// Return a page to the free list. Double-frees and superblock pages are
    /// rejected and counted — a page can be handed out again at most once,
    /// so a buggy caller can corrupt its own bookkeeping but never cause two
    /// live blobs to share a page.
    pub fn free(&self, page: PageId) {
        if page.0 < 2 || !self.free.lock().push(page) {
            self.double_frees.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Replace the free list wholesale. Used at open time to reclaim every
    /// page the recovered manifest does not reference (pages orphaned by a
    /// savepoint that crashed mid-write would otherwise leak forever).
    pub fn reset_free_list(&self, pages: Vec<PageId>) {
        let mut free = self.free.lock();
        free.list.clear();
        free.members.clear();
        for p in pages {
            if p.0 >= 2 {
                free.push(p);
            }
        }
    }

    /// Write `payload` (≤ [`payload_size`](Self::payload_size)) to `page`.
    pub fn write_page(&self, page: PageId, payload: &[u8]) -> Result<()> {
        if payload.len() > self.payload_size() {
            return Err(HanaError::Persist(format!(
                "payload of {} bytes exceeds page capacity {}",
                payload.len(),
                self.payload_size()
            )));
        }
        let outcome = self.injector.check(IoOp::PageWrite)?;
        let mut buf = integrity::seal(ArtifactKind::Page, page.0, payload);
        let sealed_len = buf.len();
        buf.resize(self.page_size, 0);
        if let FaultOutcome::FlipBit { bit } = outcome {
            // Silent bit rot on the write path: flip one bit of the sealed
            // bytes (header or payload — padding would go undetected).
            let byte = (bit as usize / 8) % sealed_len;
            buf[byte] ^= 1 << (bit % 8);
        }
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(page.0 * self.page_size as u64))?;
        match outcome {
            FaultOutcome::Torn { keep } => {
                // Power loss mid-write: only a prefix reaches the file.
                let keep = keep.min(buf.len());
                f.write_all(&buf[..keep])?;
                Err(torn_error())
            }
            // Proceed — and FlipBit/Stale, which *succeed* silently; the
            // damage (if any) is already in `buf`.
            _ => {
                f.write_all(&buf)?;
                // Fresh contents lift any quarantine from earlier damage.
                self.integrity.clear_quarantine(page.0);
                Ok(())
            }
        }
    }

    /// Read and verify the payload of `page` against its checksummed
    /// envelope (salted with the page id). An all-zero page was never
    /// written and reads as an empty payload; any other page that does not
    /// verify is quarantined and reported as [`HanaError::Corruption`].
    pub fn read_page(&self, page: PageId) -> Result<Vec<u8>> {
        if self.integrity.is_quarantined(page.0) {
            return Err(HanaError::Corruption(format!(
                "corrupt page {}: quarantined after an earlier checksum failure \
                 (a rewrite clears it)",
                page.0
            )));
        }
        let outcome = self.injector.check(IoOp::PageRead)?;
        if let FaultOutcome::Torn { .. } = outcome {
            return Err(torn_error()); // torn "reads" just fail
        }
        // A stale read silently serves another (valid!) page's bytes; only
        // the page-id salt in the envelope CRC can catch it.
        let physical = match outcome {
            FaultOutcome::Stale => PageId(if page.0 == 2 { 3 } else { 2 }),
            _ => page,
        };
        let mut buf = vec![0u8; self.page_size];
        {
            let mut f = self.file.lock();
            f.seek(SeekFrom::Start(physical.0 * self.page_size as u64))?;
            f.read_exact(&mut buf)?;
        }
        if let FaultOutcome::FlipBit { bit } = outcome {
            let byte = (bit as usize / 8) % buf.len();
            buf[byte] ^= 1 << (bit % 8);
        }
        if buf.iter().all(|&b| b == 0) {
            return Ok(Vec::new());
        }
        let detail = match integrity::open_envelope(ArtifactKind::Page, page.0, &buf) {
            Ok(payload) => {
                self.integrity.note_page_verified();
                return Ok(payload.to_vec());
            }
            Err(EnvelopeError::NotEnvelope) => "no page envelope".to_string(),
            Err(EnvelopeError::Corrupt(detail)) => detail,
        };
        self.integrity.note_page_corrupt(page.0);
        Err(HanaError::Corruption(format!(
            "corrupt page {}: {detail}",
            page.0
        )))
    }

    /// Flush all dirty pages to stable storage.
    pub fn sync(&self) -> Result<()> {
        if let FaultOutcome::Torn { .. } = self.injector.check(IoOp::PageSync)? {
            return Err(torn_error());
        }
        self.file.lock().sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultErrorKind, FaultPolicy};
    use tempfile::tempdir;

    fn store() -> (tempfile::TempDir, PageStore) {
        let dir = tempdir().unwrap();
        let s = PageStore::open(&dir.path().join("data.pages"), 256).unwrap();
        (dir, s)
    }

    #[test]
    fn write_read_round_trip() {
        let (_d, s) = store();
        let p = s.alloc();
        assert!(p.0 >= 2);
        s.write_page(p, b"hello pages").unwrap();
        assert_eq!(s.read_page(p).unwrap(), b"hello pages");
    }

    #[test]
    fn oversized_payload_rejected() {
        let (_d, s) = store();
        let p = s.alloc();
        let big = vec![0u8; s.payload_size() + 1];
        assert!(s.write_page(p, &big).is_err());
        // Exactly full is fine.
        let full = vec![7u8; s.payload_size()];
        s.write_page(p, &full).unwrap();
        assert_eq!(s.read_page(p).unwrap(), full);
    }

    #[test]
    fn free_list_reuses_pages() {
        let (_d, s) = store();
        let a = s.alloc();
        let b = s.alloc();
        assert_ne!(a, b);
        s.free(a);
        assert_eq!(s.free_pages(), 1);
        assert_eq!(s.alloc(), a);
        assert_eq!(s.free_pages(), 0);
    }

    #[test]
    fn double_free_is_caught() {
        let (_d, s) = store();
        let a = s.alloc();
        s.free(a);
        s.free(a); // counted + ignored: the page stays free exactly once
        assert_eq!(s.double_frees(), 1);
        assert_eq!(s.free_pages(), 1);
        assert_eq!(s.alloc(), a);
        assert_ne!(s.alloc(), a, "page must not be handed out twice");
    }

    #[test]
    fn reset_free_list_reclaims_orphans() {
        let (_d, s) = store();
        let a = s.alloc();
        let b = s.alloc();
        s.write_page(a, b"a").unwrap();
        s.write_page(b, b"b").unwrap();
        // Pretend only `b` is referenced by the manifest: `a` is orphaned.
        s.reset_free_list(vec![a, PageId(0)]); // superblock filtered out
        assert_eq!(s.free_pages(), 1);
        assert_eq!(s.alloc(), a);
    }

    #[test]
    fn injected_write_fault_fails_cleanly() {
        let (_d, s) = store();
        let p = s.alloc();
        s.injector().arm(FaultPolicy::fail_nth(
            IoOp::PageWrite,
            0,
            FaultErrorKind::Eio,
        ));
        assert!(s.write_page(p, b"x").is_err());
        // Transient: next write succeeds and the page is intact.
        s.write_page(p, b"x").unwrap();
        assert_eq!(s.read_page(p).unwrap(), b"x");
    }

    #[test]
    fn torn_page_write_fails_crc_on_read() {
        let (_d, s) = store();
        let p = s.alloc();
        s.write_page(p, b"old-contents").unwrap();
        s.injector().arm(FaultPolicy::torn(IoOp::PageWrite, 0, 10));
        assert!(s.write_page(p, b"new-contents").is_err());
        s.injector().disarm();
        // The torn page is detected as corrupt, not silently half-read.
        let err = s.read_page(p).unwrap_err();
        assert!(err.to_string().contains("corrupt page"), "{err}");
    }

    #[test]
    fn corruption_detected() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("data.pages");
        let s = PageStore::open(&path, 256).unwrap();
        let p = s.alloc();
        s.write_page(p, b"precious data").unwrap();
        s.sync().unwrap();
        drop(s);
        // Flip a payload byte on disk.
        let mut raw = std::fs::read(&path).unwrap();
        let off = p.0 as usize * 256 + ENVELOPE_HEADER + 2;
        raw[off] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let s = PageStore::open(&path, 256).unwrap();
        let err = s.read_page(p).unwrap_err();
        assert!(err.to_string().contains("checksum"));
        assert!(matches!(err, HanaError::Corruption(_)), "{err}");
        // The page is quarantined: the next read fast-fails the same way,
        // and the corruption is counted once.
        let err2 = s.read_page(p).unwrap_err();
        assert!(err2.to_string().contains("quarantined"), "{err2}");
        assert_eq!(s.integrity().stats().pages_corrupt, 1);
        // A rewrite clears the quarantine.
        s.write_page(p, b"fresh data").unwrap();
        assert_eq!(s.read_page(p).unwrap(), b"fresh data");
    }

    #[test]
    fn injected_bit_flip_on_write_is_detected_on_read() {
        let (_d, s) = store();
        let p = s.alloc();
        s.injector()
            .arm(FaultPolicy::flip_bit(IoOp::PageWrite, 0, 100));
        s.write_page(p, b"silently damaged").unwrap(); // write "succeeds"
        s.injector().disarm();
        let err = s.read_page(p).unwrap_err();
        assert!(matches!(err, HanaError::Corruption(_)), "{err}");
    }

    #[test]
    fn injected_bit_flip_on_read_is_detected_and_transient() {
        let (_d, s) = store();
        let p = s.alloc();
        s.write_page(p, b"good bytes").unwrap();
        s.injector()
            .arm(FaultPolicy::flip_bit(IoOp::PageRead, 0, 40));
        let err = s.read_page(p).unwrap_err();
        assert!(matches!(err, HanaError::Corruption(_)), "{err}");
        // The *disk* is fine — but the page was quarantined by the detected
        // read; a rewrite (or explicit clear) restores service.
        s.integrity().clear_quarantine(p.0);
        assert_eq!(s.read_page(p).unwrap(), b"good bytes");
    }

    #[test]
    fn stale_read_caught_by_page_id_salt() {
        let (_d, s) = store();
        let a = s.alloc();
        let b = s.alloc();
        s.write_page(a, b"page a").unwrap();
        s.write_page(b, b"page b").unwrap();
        // The next read of `b` silently serves page `a`'s (valid!) bytes.
        s.injector().arm(FaultPolicy::stale_read(0));
        let err = s.read_page(b).unwrap_err();
        assert!(
            matches!(err, HanaError::Corruption(_)),
            "a stale read of another valid page must not verify: {err}"
        );
    }

    #[test]
    fn pre_envelope_page_is_corruption() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("data.pages");
        let page_size = 256usize;
        // A pre-envelope page at index 2: `[len u32][crc32 u32][payload]`.
        let payload = b"written by a pre-envelope build";
        let mut raw = vec![0u8; page_size * 3];
        let off = page_size * 2;
        raw[off..off + 4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        raw[off + 4..off + 8].copy_from_slice(&crate::crc32(payload).to_le_bytes());
        raw[off + 8..off + 8 + payload.len()].copy_from_slice(payload);
        std::fs::write(&path, &raw).unwrap();
        let s = PageStore::open(&path, page_size).unwrap();
        let err = s.read_page(PageId(2)).unwrap_err();
        assert!(matches!(err, HanaError::Corruption(_)), "{err}");
        assert_eq!(s.integrity().stats().pages_corrupt, 1);
        // Page 1 was never written (the file grew past it): unwritten, not
        // corrupt, however often it is read.
        for _ in 0..3 {
            assert_eq!(s.read_page(PageId(1)).unwrap(), Vec::<u8>::new());
        }
        assert_eq!(s.integrity().stats().pages_corrupt, 1);
        assert!(!s.integrity().is_quarantined(1));
    }

    #[test]
    fn reopen_preserves_allocation_frontier() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("data.pages");
        let (a, b);
        {
            let s = PageStore::open(&path, 256).unwrap();
            a = s.alloc();
            b = s.alloc();
            s.write_page(a, b"a").unwrap();
            s.write_page(b, b"b").unwrap();
            s.sync().unwrap();
        }
        let s = PageStore::open(&path, 256).unwrap();
        let c = s.alloc();
        assert!(c > b);
        assert_eq!(s.read_page(a).unwrap(), b"a");
        let _ = c;
    }
}
