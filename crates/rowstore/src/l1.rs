//! The L1-delta: segmented, write-optimized row store.
//!
//! Layout: slots live in fixed-size [`Segment`]s behind `Arc`s, listed in a
//! shared, copy-on-write pointer list that changes only when a segment
//! opens or is dropped. A snapshot clones that list's `Arc` plus a
//! `[start, end)` logical-position fence. The L1→L2
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
//!
//! Every run of `GROUP_SEGMENTS` consecutive segments shares one
//! `KeyTable` per key column (the schema's `unique` columns), so a key
//! lookup — the uniqueness probe, the version an update closes, a point
//! read — probes one table per 16 384 slots instead of comparing the key
//! against every slot. The tables live and die with their segments' `Arc`s:
//! truncation needs no bookkeeping, and a snapshot pinned before an L1→L2
//! merge still finds its keys.

use crate::Row;
use hana_common::{RowId, Timestamp, Value, COMMIT_TS_MAX};
use parking_lot::RwLock;
use rustc_hash::FxHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Slots per segment.
const SEGMENT_CAP: usize = 1024;

/// Consecutive segments that share one set of key tables. A lookup probes
/// one table per group, so at the paper's 100k-row L1 it probes 7 tables,
/// not 98 (each probe is about one cache miss).
const GROUP_SEGMENTS: usize = 16;

/// Slots one key group covers.
const GROUP_SLOTS: usize = GROUP_SEGMENTS * SEGMENT_CAP;

/// Entries per key table: a table is at most half full.
const KEY_TABLE_LEN: usize = 2 * GROUP_SLOTS;

/// The low half of a key-table entry is the slot's index in its group + 1
/// (0 = empty); the high half is a tag of the value's hash, so a probe
/// reads a slot's value only when the tags agree.
const INDEX_MASK: u32 = 0xFFFF;
const _: () = assert!(GROUP_SLOTS < INDEX_MASK as usize);

/// Bytes one key table holds: 8 per slot of its group.
const KEY_TABLE_BYTES: usize = KEY_TABLE_LEN * std::mem::size_of::<AtomicU32>();

/// The hash a key table files `v` under.
fn hash_of(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

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
    /// The key tables this segment shares with the rest of its group.
    group: Arc<KeyGroup>,
}

/// The key tables of up to `GROUP_SEGMENTS` consecutive segments.
struct KeyGroup {
    /// Logical position of the group's first slot.
    first_pos: u64,
    /// One table per key column, in the order of [`L1Delta`]'s `keys`,
    /// back to back.
    entries: Box<[AtomicU32]>,
}

impl std::fmt::Debug for KeyGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyGroup")
            .field("first_pos", &self.first_pos)
            .finish_non_exhaustive()
    }
}

impl KeyGroup {
    fn new(first_pos: u64, keys: usize) -> Self {
        let entries = (0..keys * KEY_TABLE_LEN).map(|_| AtomicU32::new(0));
        KeyGroup {
            first_pos,
            entries: entries.collect(),
        }
    }

    /// The table of the `k`-th key column.
    fn table(&self, k: usize) -> KeyTable<'_> {
        KeyTable(&self.entries[k * KEY_TABLE_LEN..][..KEY_TABLE_LEN])
    }

    fn bytes(&self) -> usize {
        self.entries.len() / KEY_TABLE_LEN * KEY_TABLE_BYTES
    }
}

/// Open-addressing hash of one key column's values to slot indexes within
/// a key group (linear probing, never more than half full).
///
/// The L1's single appender files a slot's entry *before* the stores that
/// publish the slot (the segment's `len`, then the L1's next position),
/// and an entry is never moved or removed. A prober loads the fence first
/// and ignores entries at or past it: every entry below the fence is then
/// visible to it, and so is every entry that lies ahead of one on its
/// probe sequence (it was filed earlier), so a probe never stops at a gap
/// a published key fills.
struct KeyTable<'a>(&'a [AtomicU32]);

impl KeyTable<'_> {
    /// The tag `hash` leaves in an entry's high half.
    fn tag(hash: u64) -> u32 {
        ((hash >> 48) as u32) << 16
    }

    /// File group index `i` under `hash` (the appender, before publishing).
    fn insert(&self, hash: u64, i: usize) {
        let mut e = hash as usize % KEY_TABLE_LEN;
        while self.0[e].load(Ordering::Relaxed) != 0 {
            e = (e + 1) % KEY_TABLE_LEN;
        }
        self.0[e].store(Self::tag(hash) | (i as u32 + 1), Ordering::Relaxed);
    }

    /// Call `hit` with every group index below `fence` filed under a hash
    /// whose tag matches `hash`'s. A value's entries lie on its probe
    /// sequence in filing order, so one value's hits come ascending.
    fn probe(&self, hash: u64, fence: u64, mut hit: impl FnMut(u64)) {
        let tag = Self::tag(hash);
        let mut e = hash as usize % KEY_TABLE_LEN;
        loop {
            let entry = self.0[e].load(Ordering::Relaxed);
            if entry == 0 {
                return;
            }
            let i = (entry & INDEX_MASK) as u64 - 1;
            if entry & !INDEX_MASK == tag && i < fence {
                hit(i);
            }
            e = (e + 1) % KEY_TABLE_LEN;
        }
    }
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

    #[cfg(test)]
    thread_local! {
        /// Runs on the appending thread right after `push`'s `len` store:
        /// a test stands in for a prober that loaded `len` at that instant.
        pub static AFTER_LEN_STORE: std::cell::RefCell<Option<Box<dyn Fn()>>> =
            const { std::cell::RefCell::new(None) };
    }

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
            #[cfg(test)]
            AFTER_LEN_STORE.with(|hook| {
                if let Some(probe) = hook.borrow().as_ref() {
                    probe();
                }
            });
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
    fn new(first_pos: u64, group: Arc<KeyGroup>) -> Self {
        Segment {
            slots: boxcar_like::FixedVec::new(),
            first_pos,
            group,
        }
    }

    /// Append under the L1 write lock: file the slot in its group's table
    /// of every key column in `keys`, then publish it.
    fn push(&self, keys: &[usize], slot: Slot) {
        let i = (self.first_pos - self.group.first_pos) as usize + self.slots.len();
        for (k, &col) in keys.iter().enumerate() {
            self.group.table(k).insert(hash_of(&slot.values[col]), i);
        }
        self.slots.push(slot);
    }

    /// True if this is the last segment its group will hold.
    fn ends_group(&self) -> bool {
        self.first_pos + SEGMENT_CAP as u64 == self.group.first_pos + GROUP_SLOTS as u64
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
    /// The key columns every key group indexes.
    keys: Arc<[usize]>,
    /// Replaced, never mutated, when a segment opens or is dropped.
    segments: RwLock<Arc<Vec<Arc<Segment>>>>,
    /// Logical position the next insert receives.
    next_pos: AtomicU64,
    /// Everything below this logical position has been merged away.
    merged_upto: AtomicU64,
    /// Approximate live bytes (for the Fig-11 footprint accounting).
    bytes: AtomicUsize,
}

impl L1Delta {
    /// An empty L1-delta whose segments index the `keys` columns.
    pub fn new(keys: impl IntoIterator<Item = usize>) -> Self {
        L1Delta {
            keys: keys.into_iter().collect(),
            segments: RwLock::new(Arc::new(Vec::new())),
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
        let mut size: usize = values.iter().map(|v| v.heap_size()).sum::<usize>() + 48;
        if need_new {
            let group = match segs.last() {
                Some(s) if !s.ends_group() => Arc::clone(&s.group),
                _ => {
                    let group = KeyGroup::new(pos, self.keys.len());
                    size += group.bytes();
                    Arc::new(group)
                }
            };
            let mut list = Vec::with_capacity(segs.len() + 1);
            list.extend(segs.iter().cloned());
            list.push(Arc::new(Segment::new(pos, group)));
            *segs = Arc::new(list);
        }
        segs.last().unwrap().push(
            &self.keys,
            Slot {
                row_id,
                begin: AtomicU64::new(begin),
                end: AtomicU64::new(COMMIT_TS_MAX),
                values: values.into_boxed_slice(),
            },
        );
        self.next_pos.store(pos + 1, Ordering::Release);
        self.bytes.fetch_add(size, Ordering::Relaxed);
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

    /// Index of the segment that holds `pos`, at most `segs.len()`: the
    /// segments are contiguous, `SEGMENT_CAP` positions apart.
    fn segment_index(segs: &[Arc<Segment>], pos: u64) -> usize {
        let first = segs.first().map_or(0, |s| s.first_pos);
        let i = (pos.saturating_sub(first) / SEGMENT_CAP as u64) as usize;
        i.min(segs.len())
    }

    fn find_segment(segs: &[Arc<Segment>], pos: u64) -> Option<&Arc<Segment>> {
        segs.get(Self::segment_index(segs, pos))
            .filter(|s| pos >= s.first_pos)
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

    /// Approximate bytes held, key tables included (upper bound: truncated
    /// segments are deducted when physically dropped).
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
            keys: Arc::clone(&self.keys),
            segments: Arc::clone(&segs),
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
        // All segments but the last are full, so the wholly merged ones
        // form a prefix. A group's tables go with the last of its segments.
        let dropped = segs
            .iter()
            .take_while(|s| s.first_pos + s.len() as u64 <= upto && s.len() == SEGMENT_CAP)
            .count();
        if dropped == 0 {
            return;
        }
        let mut freed = 0usize;
        for (k, s) in segs[..dropped].iter().enumerate() {
            for i in 0..s.len() {
                if let Some(slot) = s.slots.get(i) {
                    freed += slot.values.iter().map(|v| v.heap_size()).sum::<usize>() + 48;
                }
            }
            let next = segs.get(k + 1).map(|n| Arc::as_ptr(&n.group));
            if next != Some(Arc::as_ptr(&s.group)) {
                freed += s.group.bytes();
            }
        }
        *segs = Arc::new(segs[dropped..].to_vec());
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
    keys: Arc<[usize]>,
    segments: Arc<Vec<Arc<Segment>>>,
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

    /// True if `col` is a key column, whose lookups [`Self::positions_eq`]
    /// serves from the key tables.
    pub fn has_index(&self, col: usize) -> bool {
        self.keys.contains(&col)
    }

    /// The segments that hold a position within the fence.
    fn fenced_segments(&self) -> impl Iterator<Item = &Arc<Segment>> + '_ {
        let segs = &self.segments[L1Delta::segment_index(&self.segments, self.start)..];
        segs.iter().take_while(|s| s.first_pos < self.end)
    }

    /// Logical positions within the fence whose `col` equals `v`,
    /// ascending: through the key tables for a key column, by walking the
    /// slots for any other.
    pub fn positions_eq(&self, col: usize, v: &Value) -> Vec<u64> {
        let Some(k) = self.keys.iter().position(|&c| c == col) else {
            return self
                .iter()
                .filter(|(_, s)| s.values[col] == *v)
                .map(|(p, _)| p)
                .collect();
        };
        let hash = hash_of(v);
        let mut out = Vec::new();
        // One probe per group: from each group's first fenced segment, skip
        // to the segment past the group.
        let mut i = L1Delta::segment_index(&self.segments, self.start);
        while let Some(seg) = self.segments.get(i).filter(|s| s.first_pos < self.end) {
            let group = &seg.group;
            let fence = self.end - group.first_pos;
            group.table(k).probe(hash, fence, |at| {
                let pos = group.first_pos + at;
                let slot = self.slot(pos);
                if slot.is_some_and(|s| s.values[col] == *v) {
                    out.push(pos);
                }
            });
            i = L1Delta::segment_index(&self.segments, group.first_pos + GROUP_SLOTS as u64);
        }
        out
    }

    /// Iterate `(logical position, slot)` over the fenced range, segment by
    /// segment: each segment contributes its overlap with `[start, end)`
    /// through direct slot indexing, so the walk never searches the segment
    /// list per position.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Slot)> + '_ {
        self.fenced_segments().flat_map(move |seg| {
            let lo = self.start.max(seg.first_pos);
            let hi = self.end.min(seg.first_pos + seg.len() as u64);
            (lo..hi).filter_map(move |p| seg.slot_at(p).map(|s| (p, s)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::str(format!("v{i}"))]
    }

    #[test]
    fn insert_and_read_back() {
        let l1 = L1Delta::new([0]);
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
        let l1 = L1Delta::new([0]);
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
        let l1 = L1Delta::new([0]);
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
        let l1 = L1Delta::new([0]);
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
        let l1 = L1Delta::new([0]);
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
        assert_eq!(L1Delta::new([0]).snapshot().iter().count(), 0);
    }

    #[test]
    fn end_stamp_updates_visible_through_snapshots() {
        let l1 = L1Delta::new([0]);
        l1.insert(RowId(0), row(0), 1);
        let snap = l1.snapshot();
        l1.with_slot(0, |s| s.store_end(9)).unwrap();
        // Stamps are shared (atomics), not copied: the snapshot sees it.
        assert_eq!(snap.slot(0).unwrap().end(), 9);
    }

    #[test]
    fn bytes_accounting_moves() {
        let l1 = L1Delta::new([0]);
        assert_eq!(l1.approx_bytes(), 0);
        for i in 0..(SEGMENT_CAP as u64 * 2) {
            l1.insert(RowId(i), row(i as i64), 1);
        }
        let full = l1.approx_bytes();
        assert!(full > 0);
        l1.truncate_prefix(SEGMENT_CAP as u64 * 2);
        assert!(l1.approx_bytes() < full);
    }

    /// Each group of 16 segments carries one 128 KiB key table per key
    /// column — 8 B per slot per key column at full occupancy — charged
    /// when the group's first segment opens and freed with its last.
    #[test]
    fn key_tables_cost_128_kib_per_group_and_key() {
        assert_eq!(KEY_TABLE_BYTES, 128 << 10);
        assert_eq!(KEY_TABLE_BYTES / GROUP_SLOTS, 8);
        let fill = |keys: &[usize], n: u64| {
            let l1 = L1Delta::new(keys.iter().copied());
            for i in 0..n {
                l1.insert(RowId(i), vec![Value::Int(i as i64), Value::Int(0)], 1);
            }
            l1
        };
        let extra = |keys: &L1Delta, none: &L1Delta| keys.approx_bytes() - none.approx_bytes();
        let (none, two) = (fill(&[], 1), fill(&[0, 1], 1));
        assert_eq!(extra(&two, &none), 2 * KEY_TABLE_BYTES);
        // The slot that opens the second group pays for its tables.
        let n = GROUP_SLOTS as u64 + 1;
        let (none, two) = (fill(&[], n), fill(&[0, 1], n));
        assert_eq!(extra(&two, &none), 2 * 2 * KEY_TABLE_BYTES);
        // Dropping part of a group keeps its tables; dropping its last
        // segment frees them.
        for l1 in [&none, &two] {
            l1.truncate_prefix(4 * SEGMENT_CAP as u64);
        }
        assert_eq!(extra(&two, &none), 2 * 2 * KEY_TABLE_BYTES);
        for l1 in [&none, &two] {
            l1.truncate_prefix(GROUP_SLOTS as u64);
        }
        assert_eq!(extra(&two, &none), 2 * KEY_TABLE_BYTES);
        // A truncation that empties the segment list mid-group frees the
        // group too.
        let n = 2 * SEGMENT_CAP as u64;
        let (none, two) = (fill(&[], n), fill(&[0, 1], n));
        for l1 in [&none, &two] {
            l1.truncate_prefix(n);
        }
        assert_eq!(extra(&two, &none), 0);
    }

    /// Values whose key-table probes start at the same entry, so their
    /// chains interleave.
    fn colliding_keys(n: usize) -> Vec<Value> {
        let start = |v: &Value| hash_of(v) as usize % KEY_TABLE_LEN;
        let target = start(&Value::Int(0));
        (0..)
            .map(Value::Int)
            .filter(|v| start(v) == target)
            .take(n)
            .collect()
    }

    /// One step of [`key_lookups_equal_a_walk_of_the_fence`].
    #[derive(Debug, Clone)]
    enum Step {
        /// Append this many rows, keys drawn from the domain by the seed.
        Append(usize, u64),
        /// Truncate this share (in 1/8ths) of the unmerged slots.
        Truncate(u64),
        /// Pin a snapshot.
        Pin,
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let step = (0u8..10, 1usize..3_000, any::<u64>()).prop_map(|(kind, n, seed)| match kind {
            0..=5 => Step::Append(n, seed),
            6 | 7 => Step::Truncate(seed % 9),
            _ => Step::Pin,
        });
        prop::collection::vec(step, 1..24)
    }

    /// Every key lookup through a snapshot's key tables equals a walk of
    /// its fence — the column index and a non-key column alike.
    fn assert_lookups_equal_walks(snap: &L1Snapshot, domain: &[Value]) {
        assert!(snap.has_index(0) && !snap.has_index(1));
        for col in [0, 1] {
            let mut walk: std::collections::HashMap<&Value, Vec<u64>> = Default::default();
            for (p, s) in snap.iter() {
                walk.entry(&s.values[col]).or_default().push(p);
            }
            for v in domain {
                let want = walk.get(v).cloned().unwrap_or_default();
                assert_eq!(snap.positions_eq(col, v), want, "col {col} = {v}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn key_lookups_equal_a_walk_of_the_fence(steps in steps()) {
            // Duplicates (a small range), chain collisions, strings and
            // NULL, over appends that roll over segments and key groups.
            let mut domain: Vec<Value> = (0..24).map(Value::Int).collect();
            domain.extend(colliding_keys(6));
            domain.extend(["a", "b", "ab"].map(Value::str));
            domain.push(Value::Null);
            let l1 = L1Delta::new([0]);
            let mut pinned = vec![l1.snapshot()];
            for step in steps {
                match step {
                    Step::Append(n, seed) => {
                        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                        for _ in 0..n {
                            let v = domain[rng.gen_range(0..domain.len())].clone();
                            let pos = l1.high_pos();
                            let other = domain[rng.gen_range(0..domain.len())].clone();
                            l1.insert(RowId(pos), vec![v, other], 1);
                        }
                    }
                    Step::Truncate(eighths) => {
                        let upto = l1.low_pos() + l1.len() as u64 * eighths / 8;
                        l1.truncate_prefix(upto);
                    }
                    Step::Pin => pinned.push(l1.snapshot()),
                }
            }
            pinned.push(l1.snapshot());
            for snap in &pinned {
                assert_lookups_equal_walks(snap, &domain);
            }
        }
    }

    /// A prober that loads a segment's `len` the instant the appender
    /// stores it finds the slot it publishes: the entry was filed first.
    #[test]
    fn a_slot_is_filed_before_its_len_store() {
        let group = Arc::new(KeyGroup::new(0, 1));
        let seg = Arc::new(Segment::new(0, Arc::clone(&group)));
        let found = Arc::new(AtomicUsize::new(0));
        let prober = {
            let (seg, found) = (Arc::downgrade(&seg), Arc::clone(&found));
            move || {
                let seg = seg.upgrade().unwrap();
                let newest = seg.len() as u64 - 1;
                let key = &seg.slot_at(newest).unwrap().values[0];
                let mut filed = false;
                seg.group.table(0).probe(hash_of(key), newest + 1, |i| {
                    filed |= i == newest;
                });
                assert!(filed, "slot {newest} published before it was filed");
                found.fetch_add(1, Ordering::Relaxed);
            }
        };
        boxcar_like::AFTER_LEN_STORE.with(|hook| *hook.borrow_mut() = Some(Box::new(prober)));
        for i in 0..SEGMENT_CAP as u64 {
            let slot = Slot {
                row_id: RowId(i),
                begin: AtomicU64::new(1),
                end: AtomicU64::new(COMMIT_TS_MAX),
                values: vec![Value::Int(i as i64 % 100)].into_boxed_slice(),
            };
            seg.push(&[0], slot);
        }
        boxcar_like::AFTER_LEN_STORE.with(|hook| *hook.borrow_mut() = None);
        assert_eq!(found.load(Ordering::Relaxed), SEGMENT_CAP);
    }

    /// An appender against probers: a key whose insert returned before a
    /// probe began is found, through a fresh snapshot and through the
    /// segment the appender is still filling (its group's table probed
    /// lock-free, fenced by the segment's own `len`).
    #[test]
    fn probers_find_every_key_an_appender_published() {
        const N: u64 = GROUP_SLOTS as u64 + 3 * SEGMENT_CAP as u64 + 100;
        let l1 = Arc::new(L1Delta::new([0]));
        let done = Arc::new(AtomicU64::new(0));
        let probers: Vec<_> = (0..2)
            .map(|t| {
                let (l1, done) = (Arc::clone(&l1), Arc::clone(&done));
                std::thread::spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(t);
                    let mut probes = 0u64;
                    loop {
                        let d = done.load(Ordering::Acquire);
                        if d > 0 {
                            let snap = l1.snapshot();
                            for k in [d - 1, rng.gen_range(0..d)] {
                                let found = snap.positions_eq(0, &Value::Int(k as i64 % 500));
                                assert!(found.contains(&k), "key of slot {k} lost");
                            }
                            let seg = Arc::clone(snap.segments.last().unwrap());
                            let n = seg.len();
                            let key = seg.slots.get(n - 1).unwrap().values[0].clone();
                            let newest = seg.first_pos + n as u64 - 1;
                            let group = &seg.group;
                            let mut filed = false;
                            let fence = newest + 1 - group.first_pos;
                            group.table(0).probe(hash_of(&key), fence, |i| {
                                filed |= group.first_pos + i == newest;
                            });
                            assert!(filed, "published slot {newest} unfiled");
                            probes += 1;
                        }
                        if d == N {
                            return probes;
                        }
                    }
                })
            })
            .collect();
        for i in 0..N {
            // Keys repeat every 500 rows, so chains hold duplicates.
            l1.insert(RowId(i), vec![Value::Int(i as i64 % 500)], 1);
            done.store(i + 1, Ordering::Release);
        }
        for p in probers {
            assert!(p.join().unwrap() > 0);
        }
    }

    #[test]
    fn concurrent_insert_and_snapshot() {
        let l1 = Arc::new(L1Delta::new([0]));
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
