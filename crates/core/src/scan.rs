//! Chunk planning and visibility resolution for parallel main scans.
//!
//! The main chain is split into fixed-size row chunks (`SCAN_CHUNK_ROWS`)
//! that never cross a part boundary. Workers claim chunks through
//! [`hana_merge::map_indexed`] and the caller reassembles per-chunk output
//! strictly in chunk order, so a parallel scan is bit-identical to the
//! serial one: the chunk boundaries — not the worker count — determine
//! every accumulation order.
//!
//! Per-part visibility is resolved *before* the fan-out into a
//! [`PartVisibility`]: either the wholly-visible summary
//! ([`MainPart::fully_visible_at`](hana_store::MainPart::fully_visible_at))
//! or a shared per-snapshot bitmap, so workers never touch the transaction
//! manager.

use hana_column::{Bitmap, Pos};
use hana_common::TxnId;
use hana_store::{MainPart, VisBitmap};
use hana_txn::{version_visible, Snapshot, TxnManager};
use std::sync::Arc;

/// Rows per scan chunk. Fixed (not derived from the worker count) so the
/// per-chunk partial results — and therefore floating-point accumulation
/// order — are independent of the parallelism degree. Tied to the zone-map
/// granularity so scan chunk `k` of a part is exactly zone `k` of its
/// per-column [`hana_column::ZoneMap`]s.
pub(crate) const SCAN_CHUNK_ROWS: usize = hana_column::ZONE_CHUNK_ROWS;

/// One unit of parallel scan work: a position range within a single part.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanChunk {
    /// Part index within the main chain.
    pub part: usize,
    /// First row position (inclusive).
    pub start: Pos,
    /// One past the last row position.
    pub end: Pos,
}

/// Split every part of the chain into `SCAN_CHUNK_ROWS`-sized chunks, in
/// chain order.
pub(crate) fn plan_chunks(parts: &[Arc<MainPart>]) -> Vec<ScanChunk> {
    let mut chunks = Vec::new();
    for (pi, part) in parts.iter().enumerate() {
        let len = part.len();
        let mut start = 0usize;
        while start < len {
            let end = (start + SCAN_CHUNK_ROWS).min(len);
            chunks.push(ScanChunk {
                part: pi,
                start: start as Pos,
                end: end as Pos,
            });
            start = end;
        }
    }
    chunks
}

/// Resolved visibility of one main part under one snapshot.
pub(crate) enum PartVisibility {
    /// Every row of the part is visible — no per-row checks at all.
    All,
    /// Per-row visibility bitmap (cached on the part when possible).
    Filtered(Arc<VisBitmap>),
}

/// How [`PartVisibility::resolve`] answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// The wholly-visible summary: no bitmap involved.
    Summary,
    /// A cached bitmap of this snapshot, advanced over the end writes
    /// since it was taken.
    Hit,
    /// Built from every stamp of the part.
    Miss,
}

/// Visibility of main row `pos` under `snap`, and whether an
/// uncommitted-writer mark took part in deciding it (the answer then
/// depends on the reader's identity).
fn row_visibility(mgr: &TxnManager, snap: &Snapshot, part: &MainPart, pos: Pos) -> (bool, bool) {
    let (begin, end) = (part.begin(pos), part.end(pos));
    let marked = TxnId::from_mark(begin).is_some() || TxnId::from_mark(end).is_some();
    (version_visible(mgr, snap, begin, end), marked)
}

impl PartVisibility {
    /// Resolve `part` under `snap`: the wholly-visible summary when it
    /// applies; else the part's cached bitmap for this snapshot, advanced by
    /// re-evaluating only the positions of its end-write log written since
    /// the bitmap was taken (an unchanged result shares the bitmap, a
    /// changed one copies and patches it); else a bitmap built from every
    /// stamp. A bitmap is cached for later statements unless the snapshot
    /// lies ahead of the clock (time travel), where a later commit could
    /// still slide under it.
    pub(crate) fn resolve(mgr: &TxnManager, snap: &Snapshot, part: &MainPart) -> (Self, Lookup) {
        let ts = snap.ts();
        if part.fully_visible_at(ts) {
            return (PartVisibility::All, Lookup::Summary);
        }
        let (entry, lookup) = match part.cached_visibility(ts, snap.txn()) {
            Some(cached) => {
                let moved = part.ends_since(cached.end_version);
                if moved.is_empty() {
                    return (PartVisibility::Filtered(cached), Lookup::Hit);
                }
                let mut txn_sensitive = cached.txn_sensitive;
                let mut patched: Option<Bitmap> = None;
                for &pos in &moved {
                    let (visible, marked) = row_visibility(mgr, snap, part, pos);
                    txn_sensitive |= marked;
                    let bits = patched.as_ref().unwrap_or(cached.visible.as_ref());
                    if bits.get(pos as usize) != visible {
                        let bits = patched.get_or_insert_with(|| Bitmap::clone(&cached.visible));
                        if visible {
                            bits.set(pos as usize);
                        } else {
                            bits.clear(pos as usize);
                        }
                    }
                }
                let entry = VisBitmap {
                    ts,
                    txn: snap.txn(),
                    txn_sensitive,
                    end_version: cached.end_version + moved.len() as u64,
                    visible: patched.map_or_else(|| Arc::clone(&cached.visible), Arc::new),
                };
                (entry, Lookup::Hit)
            }
            None => {
                // Capture the end version *before* reading any stamp: an end
                // write racing the walk lands past it and is re-evaluated by
                // the next advance.
                let end_version = part.end_version();
                let mut visible = Bitmap::zeros(part.len());
                let mut txn_sensitive = false;
                for pos in 0..part.len() as Pos {
                    let (vis, marked) = row_visibility(mgr, snap, part, pos);
                    txn_sensitive |= marked;
                    if vis {
                        visible.set(pos as usize);
                    }
                }
                let entry = VisBitmap {
                    ts,
                    txn: snap.txn(),
                    txn_sensitive,
                    end_version,
                    visible: Arc::new(visible),
                };
                (entry, Lookup::Miss)
            }
        };
        let entry = Arc::new(entry);
        if ts <= mgr.now() {
            part.store_visibility(Arc::clone(&entry), mgr.watermark());
        }
        (PartVisibility::Filtered(entry), lookup)
    }

    /// Visible rows within the whole part (`part_len` = the part's length).
    pub fn visible_rows(&self, part_len: usize) -> usize {
        match self {
            PartVisibility::All => part_len,
            PartVisibility::Filtered(b) => b.visible.count_ones(),
        }
    }

    /// AND a window-relative hit bitmap (bit `k` = part position
    /// `start + k`) against this visibility resolution, word-wise — the
    /// visibility-AND step of a filtered scan. Fully-visible parts cost
    /// nothing; filtered parts resolve 64 rows per instruction instead of a
    /// per-hit branch.
    pub fn mask_hits(&self, hits: &mut hana_column::Bitmap, start: Pos) {
        match self {
            PartVisibility::All => {}
            PartVisibility::Filtered(b) => hits.and_offset(&b.visible, start as usize),
        }
    }
}

/// A one-column main part over rows `0..begins.len()` with the given
/// stamps (unit tests of the visibility and GC paths).
#[cfg(test)]
pub(crate) fn stamped_part(
    generation: u64,
    begins: Vec<hana_common::Timestamp>,
    ends: Vec<hana_common::Timestamp>,
) -> MainPart {
    use hana_common::{ColumnDef, DataType, RowId, Schema, Value};
    let n = begins.len();
    let schema = Schema::new("t", vec![ColumnDef::new("id", DataType::Int).unique()]).unwrap();
    MainPart::build(
        generation,
        &schema,
        vec![hana_store::MainColumnData {
            dict: hana_dict::SortedDict::from_values((0..n as i64).map(Value::Int).collect()),
            base: 0,
            codes: (0..n as hana_dict::Code).collect(),
        }],
        (0..n as u64).map(RowId).collect(),
        begins,
        ends,
        64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::{Timestamp, COMMIT_TS_MAX};
    use hana_txn::{IsolationLevel, Resolution, Transaction};
    use proptest::prelude::*;

    /// One step of the differential test below.
    #[derive(Debug, Clone)]
    enum Op {
        /// The transaction in slot `.0` deletes (or, equally for the main
        /// part, updates away) row `.1 % len` if it may.
        Close(usize, u32),
        Commit(usize),
        Abort(usize),
        /// GC mark resolution over every end stamp.
        Gc,
        /// A merge republishes the part: built from the stamps as they were
        /// `.0` end writes ago, then those writes replayed as pending ends.
        Rebuild(usize),
        /// The detached snapshot moves to the current clock.
        Refresh,
        /// A statement under slot 0's, slot 1's or the detached snapshot.
        Read(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0usize..2, any::<u32>()).prop_map(|(s, p)| Op::Close(s, p)),
            1 => (0usize..2).prop_map(Op::Commit),
            1 => (0usize..2).prop_map(Op::Abort),
            1 => Just(Op::Gc),
            1 => (0usize..4).prop_map(Op::Rebuild),
            1 => Just(Op::Refresh),
            5 => (0usize..3).prop_map(Op::Read),
        ]
    }

    /// The part's visibility recomputed from raw stamps.
    fn oracle(mgr: &TxnManager, snap: &Snapshot, part: &MainPart) -> Vec<bool> {
        (0..part.len() as Pos)
            .map(|p| version_visible(mgr, snap, part.begin(p), part.end(p)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// An advanced (or shared, or patched) cached bitmap always equals
        /// the bitmap rebuilt from raw stamps, across two writers' deletes,
        /// commits and aborts (aborted ends reopen), GC mark resolution,
        /// pending-end replay onto a rebuilt part, and statements of both
        /// writers plus a detached snapshot — starting from a clean merged
        /// part or a recovery image carrying begin and end marks.
        #[test]
        fn advanced_bitmaps_equal_raw_stamps(
            len in 1usize..150,
            image in any::<bool>(),
            seeds in prop::collection::vec(0u8..8, 150..151),
            ops in prop::collection::vec(op(), 1..80),
        ) {
            let mgr = TxnManager::new();
            let mut committed = mgr.begin(IsolationLevel::Transaction);
            let mut aborted = mgr.begin(IsolationLevel::Transaction);
            let (cm, am) = (committed.id().mark(), aborted.id().mark());
            committed.commit().unwrap();
            aborted.abort().unwrap();
            let (begins, ends): (Vec<Timestamp>, Vec<Timestamp>) = (0..len)
                .map(|i| match (image, seeds[i]) {
                    (false, _) => (1, COMMIT_TS_MAX),
                    (true, 0) => (cm, COMMIT_TS_MAX),
                    (true, 1) => (am, COMMIT_TS_MAX),
                    (true, 2) => (1, cm),
                    (true, 3) => (1, am),
                    (true, 4) => (1, 1),
                    (true, _) => (1, COMMIT_TS_MAX),
                })
                .unzip();
            let mut generation = 0;
            let mut part = stamped_part(generation, begins.clone(), ends);
            // Every end write on the current part: (position, stamp before).
            let mut writes: Vec<(Pos, Timestamp)> = Vec::new();
            let mut slots: Vec<Transaction> =
                (0..2).map(|_| mgr.begin(IsolationLevel::Transaction)).collect();
            let mut detached = Snapshot::at(mgr.now());
            for op in ops {
                match op {
                    Op::Close(s, p) => {
                        let pos = p % len as u32;
                        let snap = slots[s].read_snapshot();
                        let end = part.end(pos);
                        let open = end == COMMIT_TS_MAX
                            || TxnId::from_mark(end)
                                .is_some_and(|w| mgr.resolve_mark(w) == Resolution::Aborted);
                        if open && version_visible(&mgr, &snap, part.begin(pos), end) {
                            writes.push((pos, end));
                            part.store_end(pos, slots[s].id().mark());
                        }
                    }
                    Op::Commit(s) => {
                        slots[s].commit().unwrap();
                        slots[s] = mgr.begin(IsolationLevel::Transaction);
                    }
                    Op::Abort(s) => {
                        slots[s].abort().unwrap();
                        slots[s] = mgr.begin(IsolationLevel::Transaction);
                    }
                    Op::Gc => {
                        for pos in 0..len as Pos {
                            let end = part.end(pos);
                            let settled = match TxnId::from_mark(end).map(|w| mgr.resolve_mark(w)) {
                                Some(Resolution::Committed(cts)) => cts,
                                Some(Resolution::Aborted) => COMMIT_TS_MAX,
                                _ => continue,
                            };
                            part.resolve_end(pos, end, settled);
                        }
                    }
                    Op::Rebuild(lag) => {
                        let lag = lag.min(writes.len());
                        let replay: Vec<(Pos, Timestamp)> = writes[writes.len() - lag..]
                            .iter()
                            .map(|&(pos, _)| (pos, part.end(pos)))
                            .collect();
                        let mut ends: Vec<Timestamp> =
                            (0..len as Pos).map(|p| part.end(p)).collect();
                        for &(pos, before) in writes[writes.len() - lag..].iter().rev() {
                            ends[pos as usize] = before;
                        }
                        generation += 1;
                        part = stamped_part(generation, begins.clone(), ends);
                        writes.clear();
                        for (pos, ts) in replay {
                            writes.push((pos, part.end(pos)));
                            part.store_end(pos, ts);
                        }
                    }
                    Op::Refresh => detached = Snapshot::at(mgr.now()),
                    Op::Read(who) => {
                        let snap = match who {
                            2 => detached,
                            s => slots[s].read_snapshot(),
                        };
                        let (vis, _) = PartVisibility::resolve(&mgr, &snap, &part);
                        let mut hits = Bitmap::zeros(len);
                        hits.set_range(0, len);
                        vis.mask_hits(&mut hits, 0);
                        let got: Vec<bool> = (0..len).map(|p| hits.get(p)).collect();
                        prop_assert_eq!(got, oracle(&mgr, &snap, &part));
                    }
                }
            }
        }
    }

    /// Two statements of one snapshot around another writer's delete: the
    /// second advances the first's bitmap — one position re-evaluated, the
    /// bitmap shared, not copied, because the bit did not change.
    #[test]
    fn unchanged_advance_shares_the_bitmap() {
        let mgr = TxnManager::new();
        let part = stamped_part(0, vec![1; 100], vec![COMMIT_TS_MAX; 100]);
        part.store_end(3, 1); // defeat the wholly-visible summary
        let reader_txn = mgr.begin(IsolationLevel::Transaction);
        let reader = reader_txn.read_snapshot();
        let (first, lookup) = PartVisibility::resolve(&mgr, &reader, &part);
        assert_eq!(lookup, Lookup::Miss);
        let writer = mgr.begin(IsolationLevel::Transaction);
        part.store_end(7, writer.id().mark());
        let (second, lookup) = PartVisibility::resolve(&mgr, &reader, &part);
        assert_eq!(lookup, Lookup::Hit);
        let (PartVisibility::Filtered(a), PartVisibility::Filtered(b)) = (first, second) else {
            panic!("a part with deletions resolves to bitmaps");
        };
        assert!(Arc::ptr_eq(&a.visible, &b.visible));
        assert_eq!(b.end_version, a.end_version + 1);
        assert!(
            b.txn_sensitive,
            "the writer's mark was seen while advancing"
        );
    }
}
