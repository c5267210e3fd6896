//! Virtual files: arbitrarily long blobs over the page store.
//!
//! A [`VirtualFile`] is an ordered list of page ids holding one logical
//! blob — the "virtual file concept" the persistence layer is built on.
//! Savepoint images are written as virtual files; the manifest records their
//! page lists.

use crate::codec::{Decoder, Encoder};
use crate::page::{PageId, PageStore};
use hana_common::{HanaError, Result};

/// Marker of the delta-varint page-list encoding. A descriptor without it
/// (the explicit `u32` count + `u64` ids list that came before) is
/// rejected.
const DELTA_LIST: u32 = u32::MAX;

fn put_varint(e: &mut Encoder, mut v: u64) {
    while v >= 0x80 {
        e.u8((v as u8) | 0x80);
        v >>= 7;
    }
    e.u8(v as u8);
}

fn get_varint(d: &mut Decoder<'_>) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = d.u8()?;
        if shift >= 64 {
            return Err(HanaError::Persist("varint overflows u64".into()));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// An ordered chain of pages holding one blob.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VirtualFile {
    /// Pages in order.
    pub pages: Vec<PageId>,
    /// Total blob length in bytes.
    pub len: u64,
}

impl VirtualFile {
    /// Write `blob` across freshly allocated pages. All-or-nothing: if any
    /// page write fails, every page allocated so far (including the one that
    /// failed) is returned to the free list before the error propagates.
    pub fn write(store: &PageStore, blob: &[u8]) -> Result<VirtualFile> {
        let cap = store.payload_size();
        let mut pages = Vec::with_capacity(blob.len().div_ceil(cap));
        for chunk in blob.chunks(cap.max(1)) {
            let p = store.alloc();
            if let Err(e) = store.write_page(p, chunk) {
                store.free(p);
                for &q in &pages {
                    store.free(q);
                }
                return Err(e);
            }
            pages.push(p);
        }
        Ok(VirtualFile {
            pages,
            len: blob.len() as u64,
        })
    }

    /// Read the blob back.
    pub fn read(&self, store: &PageStore) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.len as usize);
        for &p in &self.pages {
            out.extend_from_slice(&store.read_page(p)?);
        }
        if out.len() as u64 != self.len {
            return Err(hana_common::HanaError::Persist(format!(
                "virtual file length mismatch: expected {}, read {}",
                self.len,
                out.len()
            )));
        }
        Ok(out)
    }

    /// Release all pages back to the store's free list.
    pub fn release(&self, store: &PageStore) {
        for &p in &self.pages {
            store.free(p);
        }
    }

    /// Encode the page list (for manifests) as zigzag-varint deltas
    /// between consecutive page ids. The manifest must fit one superblock
    /// page, so the explicit 8-bytes-per-page list capped a savepoint's
    /// image size; consecutive allocations (ascending fresh pages, or a
    /// LIFO free-list run descending) delta to ±1 and cost one byte each,
    /// lifting that cap by ~8x even for fully fragmented page sets.
    pub fn encode(&self, e: &mut Encoder) {
        e.u64(self.len);
        e.u32(DELTA_LIST);
        put_varint(e, self.pages.len() as u64);
        let mut prev = 0i64;
        for p in &self.pages {
            let id = p.0 as i64;
            put_varint(e, zigzag(id.wrapping_sub(prev)));
            prev = id;
        }
    }

    /// Decode a page list in the delta-varint form above.
    pub fn decode(d: &mut Decoder<'_>) -> Result<VirtualFile> {
        let len = d.u64()?;
        if d.u32()? != DELTA_LIST {
            return Err(HanaError::Persist(
                "virtual file page list is not delta-encoded".into(),
            ));
        }
        let n = get_varint(d)? as usize;
        let mut pages = Vec::with_capacity(n.min(d.remaining()));
        let mut prev = 0i64;
        for _ in 0..n {
            prev = prev.wrapping_add(unzigzag(get_varint(d)?));
            if prev < 0 {
                return Err(HanaError::Persist(format!(
                    "virtual file delta list decodes to negative page id {prev}"
                )));
            }
            pages.push(PageId(prev as u64));
        }
        Ok(VirtualFile { pages, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::tempdir;

    #[test]
    fn multi_page_blob_round_trip() {
        let dir = tempdir().unwrap();
        let store = PageStore::open(&dir.path().join("p"), 128).unwrap();
        let blob: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let vf = VirtualFile::write(&store, &blob).unwrap();
        assert!(vf.pages.len() > 1);
        assert_eq!(vf.read(&store).unwrap(), blob);
    }

    #[test]
    fn empty_blob() {
        let dir = tempdir().unwrap();
        let store = PageStore::open(&dir.path().join("p"), 128).unwrap();
        let vf = VirtualFile::write(&store, &[]).unwrap();
        assert!(vf.pages.is_empty());
        assert_eq!(vf.read(&store).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn encode_decode_manifest_entry() {
        let vf = VirtualFile {
            pages: vec![PageId(5), PageId(9), PageId(2)],
            len: 300,
        };
        let mut e = Encoder::new();
        vf.encode(&mut e);
        let bytes = e.into_bytes();
        let got = VirtualFile::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(got, vf);
    }

    #[test]
    fn delta_list_round_trips_hostile_shapes() {
        let shapes: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            (0..4000).collect(),      // ascending fresh allocations
            (0..500).rev().collect(), // descending LIFO reuse
            vec![7, 3, 900_000_000_000, 1, 2, 4096], // scattered with a huge jump
        ];
        for ids in shapes {
            let vf = VirtualFile {
                pages: ids.iter().copied().map(PageId).collect(),
                len: ids.len() as u64 * 17,
            };
            let mut e = Encoder::new();
            vf.encode(&mut e);
            let bytes = e.into_bytes();
            let got = VirtualFile::decode(&mut Decoder::new(&bytes)).unwrap();
            assert_eq!(got, vf);
        }
    }

    #[test]
    fn delta_list_is_compact_for_contiguous_pages() {
        let vf = VirtualFile {
            pages: (100..1100).map(PageId).collect(),
            len: 4_000_000,
        };
        let mut e = Encoder::new();
        vf.encode(&mut e);
        // 1000 contiguous ids delta to +1 each (1 byte); the explicit list
        // would need 8000 bytes and overflow a 4 KiB manifest page.
        assert!(
            e.len() < 1100,
            "contiguous page list must stay near 1 byte/page, got {}",
            e.len()
        );
    }

    #[test]
    fn rejects_explicit_page_list() {
        // The pre-delta format: u64 len, u32 count, n x u64 ids.
        let mut e = Encoder::new();
        e.u64(300);
        e.u32(3);
        for id in [5u64, 9, 2] {
            e.u64(id);
        }
        let bytes = e.into_bytes();
        assert!(VirtualFile::decode(&mut Decoder::new(&bytes)).is_err());
    }

    #[test]
    fn failed_write_releases_every_allocated_page() {
        use crate::fault::{FaultErrorKind, FaultPolicy, IoOp};
        let dir = tempdir().unwrap();
        let store = PageStore::open(&dir.path().join("p"), 128).unwrap();
        let blob = vec![5u8; 1000]; // spans several pages
                                    // Fail the 4th page write of the blob.
        store.injector().arm(FaultPolicy::fail_nth(
            IoOp::PageWrite,
            3,
            FaultErrorKind::Enospc,
        ));
        let before = store.allocated_pages();
        assert!(VirtualFile::write(&store, &blob).is_err());
        // Everything allocated during the failed write is free again.
        assert_eq!(
            store.allocated_pages() - before,
            store.free_pages(),
            "mid-blob failure must not leak pages"
        );
        assert_eq!(store.double_frees(), 0);
        // The store remains fully usable.
        store.injector().disarm();
        let vf = VirtualFile::write(&store, &blob).unwrap();
        assert_eq!(vf.read(&store).unwrap(), blob);
    }

    #[test]
    fn release_recycles_pages() {
        let dir = tempdir().unwrap();
        let store = PageStore::open(&dir.path().join("p"), 128).unwrap();
        let vf = VirtualFile::write(&store, &vec![1u8; 500]).unwrap();
        let first_pages = vf.pages.clone();
        vf.release(&store);
        let vf2 = VirtualFile::write(&store, &vec![2u8; 500]).unwrap();
        // Reuses the freed pages (in some order).
        let mut a = first_pages;
        let mut b = vf2.pages.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
