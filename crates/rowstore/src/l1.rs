//! The L1-delta: segmented, write-optimized row store.
//!
//! Layout: slots live in fixed-size [`Segment`]s behind `Arc`s. A snapshot
//! clones the segment pointer list (≤ ~100 `Arc` bumps at the paper's
//! 100k-row ceiling) plus a `[start, end)` logical-position fence. The L1→L2
//! merge *logically* truncates a prefix by advancing `merged_upto`; segments
//! are physically dropped only once wholly below that point, so snapshots
//! taken before the merge keep reading their slots — the paper's "running
//! operations either see the full L1-delta and the old end-of-delta border
//! or the truncated version".
//!
//! Slot values are immutable once published; only the `(begin, end)` MVCC
//! stamps are atomic. An *update* therefore writes a new version slot and
//! closes the old one — the L1's "field update" fast path is the cheap
//! construction of that new version from the old one.

use crate::Row;
use hana_common::{RowId, Timestamp, COMMIT_TS_MAX};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Slots per segment.
const SEGMENT_CAP: usize = 1024;

/// One MVCC row version.
#[derive(Debug)]
pub struct Slot {
    /// Stable logical record id.
    pub row_id: RowId,
    begin: AtomicU64,
    end: AtomicU64,
    /// The row payload (immutable once published).
    pub values: Box<[hana_common::Value]>,
}

impl Slot {
    /// Current begin stamp.
    #[inline]
    pub fn begin(&self) -> Timestamp {
        self.begin.load(Ordering::Acquire)
    }

    /// Current end stamp (`COMMIT_TS_MAX` = live).
    #[inline]
    pub fn end(&self) -> Timestamp {
        self.end.load(Ordering::Acquire)
    }

    /// Overwrite the end stamp (delete / supersede / rollback-restore).
    #[inline]
    pub fn store_end(&self, ts: Timestamp) {
        self.end.store(ts, Ordering::Release);
    }

    /// Overwrite the begin stamp (used by recovery replay).
    #[inline]
    pub fn store_begin(&self, ts: Timestamp) {
        self.begin.store(ts, Ordering::Release);
    }

    /// Resolve a begin-stamp mark to its committed value (GC sweep); a
    /// racing rewrite wins via compare-exchange.
    #[inline]
    pub fn resolve_begin(&self, old_mark: Timestamp, resolved: Timestamp) -> bool {
        self.begin
            .compare_exchange(old_mark, resolved, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Resolve an end-stamp mark to its settled value (GC sweep); a racing
    /// deleter always wins via compare-exchange.
    #[inline]
    pub fn resolve_end(&self, old_mark: Timestamp, resolved: Timestamp) -> bool {
        self.end
            .compare_exchange(old_mark, resolved, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }
}

/// A fixed-capacity run of slots. `len` only grows; published slots are
/// never moved, so readers holding the `Arc<Segment>` need no lock.
#[derive(Debug)]
pub struct Segment {
    slots: boxcar_like::FixedVec,
    /// Logical position of `slots[0]`.
    first_pos: u64,
}

/// Minimal append-only fixed vector: interior mutability restricted to the
/// single writer (the L1's write lock), readers gated by the atomic `len`.
mod boxcar_like {
    use super::{Slot, SEGMENT_CAP};
    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub struct FixedVec {
        data: Box<[UnsafeCell<MaybeUninit<Slot>>]>,
        len: AtomicUsize,
    }

    // SAFETY: slots are written once by the single writer holding the L1
    // write lock, then published by the release-store on `len`; readers only
    // access indexes below the acquire-loaded `len`, after publication.
    unsafe impl Sync for FixedVec {}
    unsafe impl Send for FixedVec {}

    impl std::fmt::Debug for FixedVec {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("FixedVec")
                .field("len", &self.len())
                .finish()
        }
    }

    impl FixedVec {
        pub fn new() -> Self {
            let data = (0..SEGMENT_CAP)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect();
            FixedVec {
                data,
                len: AtomicUsize::new(0),
            }
        }

        pub fn len(&self) -> usize {
            self.len.load(Ordering::Acquire)
        }

        /// Append under the L1 write lock. Returns the slot index.
        pub fn push(&self, slot: Slot) -> usize {
            let i = self.len.load(Ordering::Relaxed);
            assert!(i < SEGMENT_CAP, "segment overflow");
            // SAFETY: single writer (exclusive L1 lock); index unpublished.
            unsafe { (*self.data[i].get()).write(slot) };
            self.len.store(i + 1, Ordering::Release);
            i
        }

        pub fn get(&self, i: usize) -> Option<&Slot> {
            if i >= self.len() {
                return None;
            }
            // SAFETY: i < len ⇒ initialized and published.
            Some(unsafe { (*self.data[i].get()).assume_init_ref() })
        }
    }

    impl Drop for FixedVec {
        fn drop(&mut self) {
            let n = self.len();
            for cell in &mut self.data[..n] {
                // SAFETY: first `n` entries are initialized; exclusive access.
                unsafe { cell.get_mut().assume_init_drop() };
            }
        }
    }
}

impl Segment {
    fn new(first_pos: u64) -> Self {
        Segment {
            slots: boxcar_like::FixedVec::new(),
            first_pos,
        }
    }

    /// Slot by logical position, if it lies in this segment and is published.
    pub fn slot_at(&self, pos: u64) -> Option<&Slot> {
        if pos < self.first_pos {
            return None;
        }
        self.slots.get((pos - self.first_pos) as usize)
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// A settled (fully committed/aborted-resolved) slot extracted for merging.
#[derive(Debug, Clone)]
pub struct SettledSlot {
    /// Logical L1 position the slot occupied.
    pub pos: u64,
    /// Stable record id.
    pub row_id: RowId,
    /// Resolved begin stamp (a real commit timestamp).
    pub begin: Timestamp,
    /// Resolved end stamp (a commit timestamp or `COMMIT_TS_MAX`).
    pub end: Timestamp,
    /// Row payload.
    pub values: Row,
}

/// The write-optimized first stage of the unified table.
#[derive(Debug)]
pub struct L1Delta {
    segments: RwLock<Vec<Arc<Segment>>>,
    /// Logical position the next insert receives.
    next_pos: AtomicU64,
    /// Everything below this logical position has been merged away.
    merged_upto: AtomicU64,
    /// Approximate live bytes (for the Fig-11 footprint accounting).
    bytes: AtomicUsize,
}

impl Default for L1Delta {
    fn default() -> Self {
        Self::new()
    }
}

impl L1Delta {
    /// An empty L1-delta.
    pub fn new() -> Self {
        L1Delta {
            segments: RwLock::new(Vec::new()),
            next_pos: AtomicU64::new(0),
            merged_upto: AtomicU64::new(0),
            bytes: AtomicUsize::new(0),
        }
    }

    /// Insert a new version; returns its logical position.
    pub fn insert(&self, row_id: RowId, values: Row, begin: Timestamp) -> u64 {
        let mut segs = self.segments.write();
        let pos = self.next_pos.load(Ordering::Relaxed);
        let need_new = match segs.last() {
            None => true,
            Some(s) => s.len() >= SEGMENT_CAP,
        };
        if need_new {
            segs.push(Arc::new(Segment::new(pos)));
        }
        let seg = segs.last().unwrap();
        let size: usize = values.iter().map(|v| v.heap_size()).sum();
        seg.slots.push(Slot {
            row_id,
            begin: AtomicU64::new(begin),
            end: AtomicU64::new(COMMIT_TS_MAX),
            values: values.into_boxed_slice(),
        });
        self.next_pos.store(pos + 1, Ordering::Release);
        self.bytes.fetch_add(size + 48, Ordering::Relaxed);
        pos
    }

    /// Run `f` on the slot at logical position `pos` (even if already merged
    /// away logically, as long as its segment is still materialized).
    pub fn with_slot<R>(&self, pos: u64, f: impl FnOnce(&Slot) -> R) -> Option<R> {
        let segs = self.segments.read();
        let seg = Self::find_segment(&segs, pos)?;
        let seg = Arc::clone(seg);
        drop(segs);
        seg.slot_at(pos).map(f)
    }

    fn find_segment(segs: &[Arc<Segment>], pos: u64) -> Option<&Arc<Segment>> {
        let i = segs.partition_point(|s| s.first_pos <= pos);
        i.checked_sub(1)
            .map(|i| &segs[i])
            .filter(|s| pos >= s.first_pos && pos < s.first_pos + SEGMENT_CAP as u64)
    }

    /// Logical position past the last slot.
    pub fn high_pos(&self) -> u64 {
        self.next_pos.load(Ordering::Acquire)
    }

    /// Logical position of the first unmerged slot.
    pub fn low_pos(&self) -> u64 {
        self.merged_upto.load(Ordering::Acquire)
    }

    /// Number of unmerged slots (live + dead versions).
    pub fn len(&self) -> usize {
        (self.high_pos() - self.low_pos()) as usize
    }

    /// True if no unmerged slots remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes held (upper bound: truncated segments are deducted
    /// when physically dropped).
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Capture a consistent read view `[low, high)`.
    pub fn snapshot(&self) -> L1Snapshot {
        // Order matters: fences first, then the pointer list, so a reader
        // never fences past segments it did not capture.
        let segs = self.segments.read();
        let start = self.low_pos();
        let end = self.high_pos();
        L1Snapshot {
            segments: segs.clone(),
            start,
            end,
        }
    }

    /// Advance the merge fence to `upto` and physically drop wholly-merged
    /// segments (snapshots holding their `Arc`s keep them alive).
    pub fn truncate_prefix(&self, upto: u64) {
        let mut segs = self.segments.write();
        let cur = self.merged_upto.load(Ordering::Relaxed);
        assert!(upto >= cur && upto <= self.next_pos.load(Ordering::Relaxed));
        self.merged_upto.store(upto, Ordering::Release);
        let mut freed = 0usize;
        segs.retain(|s| {
            let fully_merged = s.first_pos + s.len() as u64 <= upto && s.len() == SEGMENT_CAP;
            if fully_merged {
                for i in 0..s.len() {
                    if let Some(slot) = s.slots.get(i) {
                        freed += slot.values.iter().map(|v| v.heap_size()).sum::<usize>() + 48;
                    }
                }
            }
            !fully_merged
        });
        if freed > 0 {
            self.bytes.fetch_sub(
                freed.min(self.bytes.load(Ordering::Relaxed)),
                Ordering::Relaxed,
            );
        }
    }
}

/// A consistent point-in-time view over the L1-delta.
#[derive(Debug, Clone)]
pub struct L1Snapshot {
    segments: Vec<Arc<Segment>>,
    /// First logical position visible to this snapshot.
    pub start: u64,
    /// One past the last logical position visible.
    pub end: u64,
}

impl L1Snapshot {
    /// Number of slots in view.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The slot at logical position `pos`, if within the fence.
    pub fn slot(&self, pos: u64) -> Option<&Slot> {
        if pos < self.start || pos >= self.end {
            return None;
        }
        L1Delta::find_segment(&self.segments, pos)?.slot_at(pos)
    }

    /// Iterate `(logical position, slot)` over the fenced range, segment by
    /// segment: each segment contributes its overlap with `[start, end)`
    /// through direct slot indexing, so the walk never searches the segment
    /// list per position.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Slot)> + '_ {
        self.segments.iter().flat_map(move |seg| {
            let lo = self.start.max(seg.first_pos);
            let hi = self.end.min(seg.first_pos + seg.len() as u64);
            (lo..hi).filter_map(move |p| seg.slot_at(p).map(|s| (p, s)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::Value;

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::str(format!("v{i}"))]
    }

    #[test]
    fn insert_and_read_back() {
        let l1 = L1Delta::new();
        for i in 0..10 {
            let pos = l1.insert(RowId(i as u64), row(i), 5);
            assert_eq!(pos, i as u64);
        }
        assert_eq!(l1.len(), 10);
        l1.with_slot(3, |s| {
            assert_eq!(s.row_id, RowId(3));
            assert_eq!(s.values[0], Value::Int(3));
            assert_eq!(s.begin(), 5);
            assert_eq!(s.end(), COMMIT_TS_MAX);
        })
        .unwrap();
        assert!(l1.with_slot(99, |_| ()).is_none());
    }

    #[test]
    fn spans_multiple_segments() {
        let l1 = L1Delta::new();
        let n = SEGMENT_CAP as u64 * 2 + 100;
        for i in 0..n {
            l1.insert(RowId(i), vec![Value::Int(i as i64)], 1);
        }
        assert_eq!(l1.len(), n as usize);
        for probe in [0, SEGMENT_CAP as u64 - 1, SEGMENT_CAP as u64, n - 1] {
            l1.with_slot(probe, |s| assert_eq!(s.values[0], Value::Int(probe as i64)))
                .unwrap();
        }
    }

    #[test]
    fn snapshot_fences_out_later_inserts() {
        let l1 = L1Delta::new();
        for i in 0..5 {
            l1.insert(RowId(i), row(i as i64), 1);
        }
        let snap = l1.snapshot();
        for i in 5..10 {
            l1.insert(RowId(i), row(i as i64), 1);
        }
        assert_eq!(snap.len(), 5);
        assert!(snap.slot(4).is_some());
        assert!(snap.slot(5).is_none());
        assert_eq!(l1.snapshot().len(), 10);
    }

    #[test]
    fn truncate_prefix_moves_fence_and_preserves_old_snapshots() {
        let l1 = L1Delta::new();
        let n = SEGMENT_CAP as u64 + 200;
        for i in 0..n {
            l1.insert(RowId(i), vec![Value::Int(i as i64)], 1);
        }
        let old = l1.snapshot();
        l1.truncate_prefix(SEGMENT_CAP as u64 + 10);
        // New snapshots start at the fence.
        let new = l1.snapshot();
        assert_eq!(new.start, SEGMENT_CAP as u64 + 10);
        assert!(new.slot(5).is_none());
        // The old snapshot still reads the physically dropped segment.
        assert_eq!(old.slot(5).unwrap().values[0], Value::Int(5));
        assert_eq!(old.iter().count(), n as usize);
    }

    #[test]
    fn iter_walks_segments_within_the_fence() {
        let l1 = L1Delta::new();
        let n = SEGMENT_CAP as u64 * 2 + 300;
        for i in 0..n {
            l1.insert(RowId(i), vec![Value::Int(i as i64)], 1);
        }
        // Three segments; the fence starts mid-segment after a truncation
        // that dropped the first segment physically, and ends before later
        // inserts.
        let cut = SEGMENT_CAP as u64 + 17;
        l1.truncate_prefix(cut);
        let snap = l1.snapshot();
        for i in n..n + 50 {
            l1.insert(RowId(i), vec![Value::Int(i as i64)], 1);
        }
        let seen: Vec<u64> = snap.iter().map(|(p, _)| p).collect();
        assert_eq!(seen, (cut..n).collect::<Vec<_>>());
        for (p, s) in snap.iter() {
            assert_eq!(s.values[0], Value::Int(p as i64));
            assert_eq!(snap.slot(p).unwrap().row_id, s.row_id);
        }
        assert_eq!(L1Delta::new().snapshot().iter().count(), 0);
    }

    #[test]
    fn end_stamp_updates_visible_through_snapshots() {
        let l1 = L1Delta::new();
        l1.insert(RowId(0), row(0), 1);
        let snap = l1.snapshot();
        l1.with_slot(0, |s| s.store_end(9)).unwrap();
        // Stamps are shared (atomics), not copied: the snapshot sees it.
        assert_eq!(snap.slot(0).unwrap().end(), 9);
    }

    #[test]
    fn bytes_accounting_moves() {
        let l1 = L1Delta::new();
        assert_eq!(l1.approx_bytes(), 0);
        for i in 0..(SEGMENT_CAP as u64 * 2) {
            l1.insert(RowId(i), row(i as i64), 1);
        }
        let full = l1.approx_bytes();
        assert!(full > 0);
        l1.truncate_prefix(SEGMENT_CAP as u64 * 2);
        assert!(l1.approx_bytes() < full);
    }

    #[test]
    fn concurrent_insert_and_snapshot() {
        let l1 = Arc::new(L1Delta::new());
        let writer = {
            let l1 = Arc::clone(&l1);
            std::thread::spawn(move || {
                for i in 0..5000u64 {
                    l1.insert(RowId(i), vec![Value::Int(i as i64)], 1);
                }
            })
        };
        // Readers continuously snapshot; every fenced slot must be readable
        // and consistent.
        for _ in 0..50 {
            let snap = l1.snapshot();
            for (p, s) in snap.iter() {
                assert_eq!(s.values[0], Value::Int(p as i64));
            }
        }
        writer.join().unwrap();
        assert_eq!(l1.snapshot().len(), 5000);
    }
}
