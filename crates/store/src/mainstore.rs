//! The main store: read-optimized, compressed, chain of parts.
//!
//! A [`MainStore`] holds one or more immutable [`MainPart`]s. With a single
//! part this is the classic main of §4.1. With several parts it implements
//! the **partial merge** layout of §4.3: part 0 (and possibly more) are
//! *passive* mains whose dictionaries own global codes `base..base+n`; the
//! last part is the *active* main whose dictionary "starts with a dictionary
//! position value of n + 1" — represented here by a per-column `base`
//! offset — and whose value index "also may exhibit encoding values of the
//! passive main making the active main dictionary dependent on the passive
//! main dictionary".
//!
//! Per column a part stores a sorted (front-coded for strings) dictionary
//! and a compressed code vector ([`CodeVector`]). A column with a
//! uniqueness constraint also carries a CSR inverted index over global
//! codes: the paper provides the main's inverted indexes "in order to
//! implement efficient validations of uniqueness constraints" (§3.1), and
//! every other column answers an equality through its code vector's
//! kernels and zone maps. Rows carry a record id (frame-of-reference packed,
//! see [`FrameVec`]), an immutable committed `begin` stamp and an atomic
//! `end` stamp (deletions of merged rows happen in place; the merge
//! garbage-collects them later).
//!
//! NULLs are encoded as the part-local code `base + dict.len()` — one past
//! the part's own values, so no dictionary-derived code range ever matches
//! it.

use hana_column::{Bitmap, CodeStats, CodeVector, FrameVec, InvertedIndex, Pos, ZoneMap};
use hana_common::{is_committed_stamp, RowId, Schema, Timestamp, TxnId, Value, COMMIT_TS_MAX};
use hana_dict::{Code, SortedDict};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-snapshot visibility bitmap for one main part.
///
/// Computed by the read path and cached on the part (see
/// [`MainPart::cached_visibility`]); bit `i` set means row `i` of the part
/// is visible at snapshot timestamp [`ts`](VisBitmap::ts) as of end-write
/// log index [`end_version`](VisBitmap::end_version). A later statement of
/// the same snapshot *advances* the entry instead of rebuilding it: only
/// the positions in [`MainPart::ends_since`]`(end_version)` can have
/// changed. When any uncommitted-writer mark influenced the bits
/// ([`txn_sensitive`](VisBitmap::txn_sensitive)) the entry serves only the
/// same reader transaction.
#[derive(Debug)]
pub struct VisBitmap {
    /// Snapshot commit timestamp the bitmap was computed for.
    pub ts: Timestamp,
    /// Reader transaction of the computing snapshot (`None` for detached
    /// snapshots). Only consulted when `txn_sensitive`.
    pub txn: Option<TxnId>,
    /// True if an uncommitted-writer mark was encountered while resolving
    /// stamps: own-writes make the result depend on the reader's identity.
    pub txn_sensitive: bool,
    /// The part's [`end_version`](MainPart::end_version) captured *before*
    /// the stamps were read: end writes at this log index or later may not
    /// be reflected yet.
    pub end_version: u64,
    /// Bit set = row visible at `ts`. Shared between the versions of an
    /// entry that advancing left unchanged.
    pub visible: Arc<Bitmap>,
}

/// Cached visibility bitmaps kept per part: one per live `(ts, txn)`
/// snapshot, least recently used evicted first (the watermark eviction in
/// [`MainPart::store_visibility`] keeps the list short anyway).
const VIS_CACHE_CAP: usize = 8;

/// One cache slot: the entry plus the tick of its last lookup or store.
struct CachedVis {
    entry: Arc<VisBitmap>,
    last_use: u64,
}

/// The per-part visibility cache (see [`VIS_CACHE_CAP`]).
#[derive(Default)]
struct VisCache {
    slots: Vec<CachedVis>,
    /// Use counter driving least-recently-used eviction.
    tick: u64,
}

/// True if `a` makes `b` redundant: same snapshot timestamp, at least as
/// new, and serving every reader `b` serves.
fn supersedes(a: &VisBitmap, b: &VisBitmap) -> bool {
    a.ts == b.ts
        && a.end_version >= b.end_version
        && (a.txn == b.txn || !(a.txn_sensitive || b.txn_sensitive))
}

/// Builder input for one column of one part.
#[derive(Debug, Clone)]
pub struct MainColumnData {
    /// Values owned by this part (sorted, unique, disjoint from earlier
    /// parts' dictionaries).
    pub dict: SortedDict,
    /// Global code of this part's first own dictionary entry.
    pub base: Code,
    /// Global codes per row; may reference earlier parts (`< base`); NULL is
    /// `base + dict.len()`.
    pub codes: Vec<Code>,
}

/// One finished column of a part: dictionary, compressed code vector, zone
/// map and, on a key column, the inverted index. Building one from
/// [`MainColumnData`] consumes the raw code vector, so a merge that finishes
/// each column as soon as it is merged holds one raw vector per worker, not
/// per column.
pub struct MainColumn {
    dict: SortedDict,
    base: Code,
    codes: CodeVector,
    /// Global code → positions; present on a key column only.
    index: Option<InvertedIndex>,
    /// Per-part + per-16Ki-chunk min/max code spans (see
    /// [`hana_column::zonemap`]); built at merge time, persisted in
    /// savepoint images.
    zones: ZoneMap,
}

impl MainColumn {
    /// Pack `data` for a part: choose the code vector's encoding (blocks of
    /// `block_size` for the cluster encoding), take `zones` or compute the
    /// zone map, and build the inverted index if the column is a `key`
    /// ([`Schema::is_key`]).
    pub fn build(
        data: MainColumnData,
        block_size: usize,
        zones: Option<ZoneMap>,
        key: bool,
    ) -> Self {
        let null_code = data.base + data.dict.len() as Code;
        let stats = CodeStats::compute(&data.codes);
        debug_assert!(stats.max_code <= null_code);
        let index =
            key.then(|| InvertedIndex::build(data.codes.iter().copied(), null_code as usize + 1));
        let zones = zones.unwrap_or_else(|| ZoneMap::build(&data.codes, null_code));
        MainColumn {
            codes: CodeVector::choose(&data.codes, &stats, block_size),
            dict: data.dict,
            base: data.base,
            index,
            zones,
        }
    }
}

/// One immutable main structure (a passive or active main).
pub struct MainPart {
    generation: u64,
    columns: Vec<MainColumn>,
    /// Record ids, packed against the part's smallest id.
    row_ids: FrameVec,
    begins: Vec<Timestamp>,
    ends: Vec<AtomicU64>,
    /// Largest committed begin stamp at build time (0 when empty; only
    /// meaningful while `begins_marked` is false).
    max_begin: Timestamp,
    /// True if any begin stamp was still an uncommitted-writer mark at
    /// build time (possible for recovery images taken mid-transaction).
    begins_marked: bool,
    /// Append-only end-write log: the position of every
    /// [`store_end`](MainPart::store_end), in order, seeded at build with
    /// the positions whose end was already set. A row is closed at most
    /// once per writer (only an aborted close can be retried), so the log
    /// stays within the part's row count plus its aborted closes.
    end_log: Mutex<Vec<Pos>>,
    /// `end_log.len()`, readable without the lock: the end version.
    end_writes: AtomicU64,
    /// Cached per-snapshot visibility bitmaps (see [`VisBitmap`]).
    vis_cache: Mutex<VisCache>,
}

/// A `(part index, row position)` coordinate within a [`MainStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartHit {
    /// Index of the part within the store's chain.
    pub part: usize,
    /// Row position within that part.
    pub pos: Pos,
}

impl MainPart {
    /// Build a part of a `schema` table from raw column data and MVCC
    /// stamps (the schema's key columns get inverted indexes).
    ///
    /// # Panics
    /// Panics if column/stamp lengths disagree.
    pub fn build(
        generation: u64,
        schema: &Schema,
        columns: Vec<MainColumnData>,
        row_ids: Vec<RowId>,
        begins: Vec<Timestamp>,
        ends: Vec<Timestamp>,
        block_size: usize,
    ) -> Self {
        Self::build_with_zones(
            generation, schema, columns, row_ids, begins, ends, block_size, None,
        )
    }

    /// [`MainPart::build`] with optionally precomputed zone maps (one per
    /// column) — recovery decode passes the persisted maps so they are not
    /// recomputed from the code vectors.
    ///
    /// # Panics
    /// Panics if column/stamp lengths disagree or `zones` has the wrong
    /// arity.
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_zones(
        generation: u64,
        schema: &Schema,
        columns: Vec<MainColumnData>,
        row_ids: Vec<RowId>,
        begins: Vec<Timestamp>,
        ends: Vec<Timestamp>,
        block_size: usize,
        zones: Option<Vec<ZoneMap>>,
    ) -> Self {
        if let Some(z) = &zones {
            assert_eq!(z.len(), columns.len(), "zone map arity mismatch");
        }
        let mut zones = zones.map(|z| z.into_iter());
        let columns = columns
            .into_iter()
            .enumerate()
            .map(|(col, c)| {
                let zones = zones
                    .as_mut()
                    .map(|it| it.next().expect("zone map arity checked above"));
                MainColumn::build(c, block_size, zones, schema.is_key(col))
            })
            .collect();
        Self::from_columns(generation, columns, row_ids, begins, ends)
    }

    /// A part from finished columns and its rows' MVCC stamps.
    ///
    /// # Panics
    /// Panics if column/stamp lengths disagree.
    pub fn from_columns(
        generation: u64,
        columns: Vec<MainColumn>,
        row_ids: Vec<RowId>,
        begins: Vec<Timestamp>,
        ends: Vec<Timestamp>,
    ) -> Self {
        let n = row_ids.len();
        assert_eq!(begins.len(), n);
        assert_eq!(ends.len(), n);
        for c in &columns {
            assert_eq!(c.codes.len(), n, "column length mismatch");
        }
        let mut max_begin = 0;
        let mut begins_marked = false;
        for &b in &begins {
            if is_committed_stamp(b) {
                max_begin = max_begin.max(b);
            } else {
                begins_marked = true;
            }
        }
        let end_log: Vec<Pos> = (0..n as Pos)
            .filter(|&pos| ends[pos as usize] != COMMIT_TS_MAX)
            .collect();
        MainPart {
            generation,
            columns,
            row_ids: FrameVec::from_values(row_ids.iter().map(|id| id.0)),
            begins,
            ends: ends.into_iter().map(AtomicU64::new).collect(),
            max_begin,
            begins_marked,
            end_writes: AtomicU64::new(end_log.len() as u64),
            end_log: Mutex::new(end_log),
            vis_cache: Mutex::new(VisCache::default()),
        }
    }

    /// Generation tag (monotonic per table across merges).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.begins.len()
    }

    /// True if the part holds no rows.
    pub fn is_empty(&self) -> bool {
        self.begins.is_empty()
    }

    /// Stable record id at `pos` (one value unpacked).
    pub fn row_id(&self, pos: Pos) -> RowId {
        RowId(self.row_ids.get(pos as usize))
    }

    /// All record ids, in position order.
    pub fn row_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        self.row_ids.iter().map(RowId)
    }

    /// Committed begin stamp at `pos`.
    pub fn begin(&self, pos: Pos) -> Timestamp {
        self.begins[pos as usize]
    }

    /// End stamp at `pos` (`COMMIT_TS_MAX` = live).
    pub fn end(&self, pos: Pos) -> Timestamp {
        self.ends[pos as usize].load(Ordering::Acquire)
    }

    /// Overwrite the end stamp (post-merge deletion of a main-resident row).
    ///
    /// This is the single choke point for end-stamp mutation: under the
    /// log lock it appends `pos` to the end-write log, stores the stamp and
    /// only then publishes the new end version, so a reader that loads the
    /// version (Acquire) sees every stamp the log covers up to it.
    pub fn store_end(&self, pos: Pos, ts: Timestamp) {
        let mut log = self.end_log.lock();
        log.push(pos);
        self.ends[pos as usize].store(ts, Ordering::Release);
        self.end_writes.store(log.len() as u64, Ordering::Release);
    }

    /// Resolve an end-stamp *mark* to its settled value without logging it
    /// (GC mark resolution). The rewrite races real deleters, so it only
    /// lands if the stamp still holds `old_mark`; a settled value is
    /// semantically identical to the mark it replaces for every snapshot
    /// that can still read it (readers resolved the mark to the same
    /// timestamp via the commit table), which is why cached visibility
    /// bitmaps need not revisit the position.
    ///
    /// Returns true if the rewrite landed.
    pub fn resolve_end(&self, pos: Pos, old_mark: Timestamp, resolved: Timestamp) -> bool {
        self.ends[pos as usize]
            .compare_exchange(old_mark, resolved, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Evict cached visibility bitmaps for snapshots older than the MVCC
    /// watermark (no live or future reader can use them). Returns the
    /// number of entries dropped.
    pub fn evict_visibility_below(&self, watermark: Timestamp) -> usize {
        let slots = &mut self.vis_cache.lock().slots;
        let before = slots.len();
        slots.retain(|s| s.entry.ts >= watermark);
        before - slots.len()
    }

    /// Number of cached visibility bitmaps (GC accounting).
    pub fn vis_cache_len(&self) -> usize {
        self.vis_cache.lock().slots.len()
    }

    /// True when every row of this part is visible to *any* snapshot at
    /// commit timestamp `ts`: no begin marks, an empty end-write log (no
    /// row has ever carried a deletion stamp), and every begin ≤ `ts`. Such
    /// parts need no per-row `version_visible` resolution at all.
    pub fn fully_visible_at(&self, ts: Timestamp) -> bool {
        !self.begins_marked && self.end_version() == 0 && self.max_begin <= ts
    }

    /// True if any begin stamp was still an uncommitted-writer mark at
    /// build time. Begin stamps are immutable (plain `Vec`), so the GC must
    /// keep such marks' transactions resolvable until a merge rebuilds the
    /// part.
    pub fn begins_marked(&self) -> bool {
        self.begins_marked
    }

    /// The end version: the length of the end-write log. Capture it
    /// *before* reading stamps when building a [`VisBitmap`].
    pub fn end_version(&self) -> u64 {
        self.end_writes.load(Ordering::Acquire)
    }

    /// The end-write log from index `version` on: every position whose end
    /// stamp was stored since a reader captured `end_version() ==
    /// version`. An entry advanced over them is at version `version +
    /// len`, and the stamps it reads afterwards are at least that new.
    pub fn ends_since(&self, version: u64) -> Vec<Pos> {
        let log = self.end_log.lock();
        log.get(version as usize..).unwrap_or_default().to_vec()
    }

    /// The newest cached visibility bitmap snapshot `ts` read by `txn` may
    /// start from: one computed for exactly `(ts, txn)`, or for `ts` by any
    /// reader when no uncommitted-writer mark influenced it. It may predate
    /// later end writes; the caller advances it over
    /// [`ends_since`](Self::ends_since)`(entry.end_version)`. A lookup
    /// counts as a use for eviction.
    pub fn cached_visibility(&self, ts: Timestamp, txn: Option<TxnId>) -> Option<Arc<VisBitmap>> {
        let mut cache = self.vis_cache.lock();
        cache.tick += 1;
        let tick = cache.tick;
        let slot = cache
            .slots
            .iter_mut()
            .filter(|s| s.entry.ts == ts && (s.entry.txn == txn || !s.entry.txn_sensitive))
            .max_by_key(|s| (s.entry.end_version, s.entry.txn == txn))?;
        slot.last_use = tick;
        Some(Arc::clone(&slot.entry))
    }

    /// Insert a computed or advanced visibility bitmap: it replaces the
    /// entries it supersedes (same `ts`, not newer, serving no reader it
    /// doesn't), so the cache keeps one entry per `(ts, txn)`. Entries for
    /// snapshots the watermark has passed go too, and beyond
    /// [`VIS_CACHE_CAP`] the least recently used one.
    pub fn store_visibility(&self, entry: Arc<VisBitmap>, watermark: Timestamp) {
        let mut cache = self.vis_cache.lock();
        if cache.slots.iter().any(|s| supersedes(&s.entry, &entry)) {
            return;
        }
        cache
            .slots
            .retain(|s| s.entry.ts >= watermark && !supersedes(&entry, &s.entry));
        if cache.slots.len() >= VIS_CACHE_CAP {
            let lru = (0..cache.slots.len())
                .min_by_key(|&i| cache.slots[i].last_use)
                .expect("a full cache has slots");
            cache.slots.swap_remove(lru);
        }
        cache.tick += 1;
        let last_use = cache.tick;
        cache.slots.push(CachedVis { entry, last_use });
    }

    /// This part's NULL sentinel for `col`.
    pub fn null_code(&self, col: usize) -> Code {
        self.columns[col].base + self.columns[col].dict.len() as Code
    }

    /// Raw global code at `(pos, col)`.
    pub fn code_at(&self, pos: Pos, col: usize) -> Code {
        self.columns[col].codes.get(pos as usize)
    }

    /// The part-owned dictionary of `col`.
    pub fn dict(&self, col: usize) -> &SortedDict {
        &self.columns[col].dict
    }

    /// Global code offset of `col`'s dictionary.
    pub fn base(&self, col: usize) -> Code {
        self.columns[col].base
    }

    /// Decode the full (global) code vector of `col`.
    pub fn codes_decoded(&self, col: usize) -> Vec<Code> {
        self.columns[col].codes.to_codes()
    }

    /// The compressed code vector of `col` (for encoding introspection).
    pub fn code_vector(&self, col: usize) -> &CodeVector {
        &self.columns[col].codes
    }

    /// Min/max zone maps of `col` (whole part + per-16Ki-chunk entries).
    pub fn zone_map(&self, col: usize) -> &ZoneMap {
        &self.columns[col].zones
    }

    /// True if `col` carries an inverted index (a key column).
    pub fn has_index(&self, col: usize) -> bool {
        self.columns[col].index.is_some()
    }

    /// Positions within this part whose `col` carries global `code`, in
    /// ascending order: the inverted index's list on a key column, a scan of
    /// the code vector on any other.
    pub fn positions_of_code(&self, col: usize, code: Code) -> Cow<'_, [Pos]> {
        let column = &self.columns[col];
        match &column.index {
            Some(index) => Cow::Borrowed(index.positions(code)),
            None => {
                let mut out = Vec::new();
                column.codes.scan_eq(code, &mut out);
                Cow::Owned(out)
            }
        }
    }

    /// Heap bytes this part holds: [`data_bytes`](Self::data_bytes), the key
    /// columns' inverted indexes, the packed record ids and both stamp
    /// vectors.
    pub fn approx_bytes(&self) -> usize {
        let indexes: usize = self
            .columns
            .iter()
            .filter_map(|c| c.index.as_ref())
            .map(InvertedIndex::heap_size)
            .sum();
        let stamps = self.begins.capacity() * std::mem::size_of::<Timestamp>()
            + self.ends.capacity() * std::mem::size_of::<AtomicU64>();
        self.data_bytes() + indexes + self.row_ids.heap_size() + stamps
    }

    /// The column data alone — dictionaries and code vectors, without
    /// indexes, record ids or stamps (the compression-ratio figure).
    pub fn data_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| c.dict.heap_size() + c.codes.heap_size())
            .sum()
    }
}

/// The read-optimized stage: a chain of main parts.
#[derive(Clone)]
pub struct MainStore {
    schema: Schema,
    parts: Vec<Arc<MainPart>>,
    /// Number of leading *passive* parts. When `< parts.len()` the last part
    /// is the §4.3 *active* main that the next partial merge will rebuild;
    /// when equal, there is no active main yet (a partial merge starts one
    /// "with an empty active main").
    passive_count: usize,
}

impl MainStore {
    /// An empty main (no parts).
    pub fn empty(schema: Schema) -> Self {
        MainStore {
            schema,
            parts: Vec::new(),
            passive_count: 0,
        }
    }

    /// Build from an explicit part chain, all passive (bases must stack
    /// consistently — checked with debug assertions).
    pub fn from_parts(schema: Schema, parts: Vec<Arc<MainPart>>) -> Self {
        let n = parts.len();
        Self::with_active(schema, parts, n)
    }

    /// Build from a part chain whose first `passive_count` parts are
    /// passive; any part beyond them is the active main.
    pub fn with_active(schema: Schema, parts: Vec<Arc<MainPart>>, passive_count: usize) -> Self {
        assert!(passive_count <= parts.len());
        assert!(parts.len() - passive_count <= 1, "at most one active part");
        #[cfg(debug_assertions)]
        {
            for col in 0..schema.arity() {
                let mut expect_base = 0 as Code;
                for p in &parts {
                    debug_assert_eq!(p.base(col), expect_base, "dictionary bases must chain");
                    expect_base += p.dict(col).len() as Code;
                }
            }
        }
        MainStore {
            schema,
            parts,
            passive_count,
        }
    }

    /// The passive prefix of the chain.
    pub fn passive_parts(&self) -> &[Arc<MainPart>] {
        &self.parts[..self.passive_count]
    }

    /// The active main, if a partial merge created one.
    pub fn active_part(&self) -> Option<&Arc<MainPart>> {
        self.parts.get(self.passive_count)
    }

    /// Rows in the active main (0 when none exists).
    pub fn active_rows(&self) -> usize {
        self.active_part().map_or(0, |p| p.len())
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The part chain (earlier = passive, last = active).
    pub fn parts(&self) -> &[Arc<MainPart>] {
        &self.parts
    }

    /// Total rows across parts.
    pub fn total_rows(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// True if no parts (or all empty).
    pub fn is_empty(&self) -> bool {
        self.total_rows() == 0
    }

    /// Next dictionary base for `col` (where a new active part would start —
    /// the paper's `n + 1`).
    pub fn next_base(&self, col: usize) -> Code {
        self.parts
            .last()
            .map(|p| p.base(col) + p.dict(col).len() as Code)
            .unwrap_or(0)
    }

    /// Resolve a global `code` of `col` to its value (`None` for any part's
    /// NULL sentinel or out-of-chain codes).
    pub fn value_of_code(&self, col: usize, code: Code) -> Option<Value> {
        for p in &self.parts {
            let base = p.base(col);
            let len = p.dict(col).len() as Code;
            if code >= base && code < base + len {
                return Some(p.dict(col).value_of(code - base));
            }
        }
        None
    }

    /// True if every part of the chain indexes `col`
    /// ([`MainPart::has_index`]).
    pub fn has_index(&self, col: usize) -> bool {
        self.parts.iter().all(|p| p.has_index(col))
    }

    /// Resolve a value to its global code, searching passive parts first —
    /// Fig 10's "a point access is resolved within the passive dictionary;
    /// … if the requested value was not found, the dictionary of the active
    /// main is consulted". Returns `(owning part index, global code)`.
    pub fn code_of_value(&self, col: usize, v: &Value) -> Option<(usize, Code)> {
        for (i, p) in self.parts.iter().enumerate() {
            if let Some(local) = p.dict(col).code_of(v) {
                return Some((i, p.base(col) + local));
            }
        }
        None
    }

    /// The value at a part/position coordinate.
    pub fn value_at(&self, hit: PartHit, col: usize) -> Value {
        let part = &self.parts[hit.part];
        let code = part.code_at(hit.pos, col);
        if code == part.null_code(col) {
            return Value::Null;
        }
        self.value_of_code(col, code)
            .expect("main code must resolve within the part chain")
    }

    /// Materialize a full row.
    pub fn row_at(&self, hit: PartHit) -> Vec<Value> {
        (0..self.schema.arity())
            .map(|c| self.value_at(hit, c))
            .collect()
    }

    /// Point query: all positions across the chain whose `col` equals `v` —
    /// through the inverted index on a key column, a code-vector scan on any
    /// other ([`MainPart::positions_of_code`]).
    ///
    /// The owning part's code is valid in its own and every *later* part's
    /// value index (never in earlier ones), so the scan covers parts
    /// `owner..` — "parallel scans are executed to find the corresponding
    /// entries".
    pub fn positions_eq(&self, col: usize, v: &Value) -> Vec<PartHit> {
        let Some((owner, code)) = self.code_of_value(col, v) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (i, p) in self.parts.iter().enumerate().skip(owner) {
            out.extend(
                p.positions_of_code(col, code)
                    .iter()
                    .map(|&pos| PartHit { part: i, pos }),
            );
        }
        out
    }

    /// Iterate every row coordinate in chain order.
    pub fn iter_hits(&self) -> impl Iterator<Item = PartHit> + '_ {
        self.parts
            .iter()
            .enumerate()
            .flat_map(|(pi, p)| (0..p.len() as Pos).map(move |pos| PartHit { part: pi, pos }))
    }

    /// Approximate compressed bytes across parts.
    pub fn approx_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.approx_bytes()).sum()
    }

    /// Column data bytes across parts (see [`MainPart::data_bytes`]).
    pub fn data_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.data_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::{ColumnDef, DataType, COMMIT_TS_MAX};
    use std::ops::Bound;

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("city", DataType::Str),
            ],
        )
        .unwrap()
    }

    /// Build a single-part main over (id, city) rows.
    fn single_part(rows: &[(i64, Option<&str>)]) -> MainStore {
        let ids = SortedDict::from_values(rows.iter().map(|&(i, _)| Value::Int(i)).collect());
        let cities = SortedDict::from_values(
            rows.iter()
                .filter_map(|&(_, c)| c.map(Value::str))
                .collect(),
        );
        let city_null = cities.len() as Code;
        let id_codes: Vec<Code> = rows
            .iter()
            .map(|&(i, _)| ids.code_of(&Value::Int(i)).unwrap())
            .collect();
        let city_codes: Vec<Code> = rows
            .iter()
            .map(|&(_, c)| match c {
                Some(c) => cities.code_of(&Value::str(c)).unwrap(),
                None => city_null,
            })
            .collect();
        let n = rows.len();
        let part = MainPart::build(
            0,
            &schema(),
            vec![
                MainColumnData {
                    dict: ids,
                    base: 0,
                    codes: id_codes,
                },
                MainColumnData {
                    dict: cities,
                    base: 0,
                    codes: city_codes,
                },
            ],
            (0..n as u64).map(RowId).collect(),
            vec![1; n],
            vec![COMMIT_TS_MAX; n],
            64,
        );
        MainStore::from_parts(schema(), vec![Arc::new(part)])
    }

    #[test]
    fn single_part_point_and_value_access() {
        let m = single_part(&[
            (10, Some("Los Gatos")),
            (20, Some("Campbell")),
            (30, Some("Los Gatos")),
            (40, None),
        ]);
        assert_eq!(m.total_rows(), 4);
        let hits = m.positions_eq(1, &Value::str("Los Gatos"));
        assert_eq!(
            hits,
            vec![PartHit { part: 0, pos: 0 }, PartHit { part: 0, pos: 2 }]
        );
        assert_eq!(m.value_at(PartHit { part: 0, pos: 3 }, 1), Value::Null);
        assert_eq!(
            m.row_at(PartHit { part: 0, pos: 1 }),
            vec![Value::Int(20), Value::str("Campbell")]
        );
        assert_eq!(m.positions_eq(1, &Value::str("Nowhere")), vec![]);
        // The key column answers through its inverted index, the city
        // column through a code-vector scan: both in position order.
        assert_eq!(
            m.positions_eq(0, &Value::Int(30)),
            vec![PartHit { part: 0, pos: 2 }]
        );
    }

    #[test]
    fn null_positions_via_index() {
        let m = single_part(&[(1, Some("a")), (2, None), (3, None)]);
        let part = &m.parts()[0];
        let mut hits = Vec::new();
        part.code_vector(1).scan_eq(part.null_code(1), &mut hits);
        assert_eq!(hits, vec![1, 2]);
        assert_eq!(
            part.positions_of_code(1, part.null_code(1)).as_ref(),
            &[1, 2]
        );
        // NULLs never match a range scan.
        assert!(range_hits(&m, 1, Bound::Unbounded, Bound::Unbounded)
            .iter()
            .all(|h| h.pos == 0));
    }

    /// Fig 10's split-range execution over the store's primitives: the value
    /// range resolves to one global code range in *every* part's dictionary,
    /// and part `p`'s code vector is scanned against the ranges of parts
    /// `0..=p` (the codes a row of part `p` can carry).
    fn range_hits(m: &MainStore, col: usize, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<PartHit> {
        let ranges: Vec<std::ops::Range<Code>> = m
            .parts()
            .iter()
            .map(|p| {
                let r = p.dict(col).code_range(lo, hi);
                (r.start + p.base(col))..(r.end + p.base(col))
            })
            .collect();
        let mut out = Vec::new();
        for (pi, p) in m.parts().iter().enumerate() {
            let mut hits: Vec<Pos> = Vec::new();
            for r in ranges[..=pi].iter().filter(|r| !r.is_empty()) {
                p.code_vector(col).scan_range(r.clone(), &mut hits);
            }
            hits.sort_unstable();
            out.extend(hits.into_iter().map(|pos| PartHit { part: pi, pos }));
        }
        out
    }

    #[test]
    fn range_query_single_part() {
        let m = single_part(&[
            (1, Some("Campbell")),
            (2, Some("Daily City")),
            (3, Some("Los Gatos")),
            (4, Some("Saratoga")),
        ]);
        // Fig 10: between C% and L%.
        let hits = range_hits(
            &m,
            1,
            Bound::Included(&Value::str("C")),
            Bound::Excluded(&Value::str("M")),
        );
        let vals: Vec<Value> = hits.iter().map(|&h| m.value_at(h, 1)).collect();
        assert_eq!(
            vals,
            ["Campbell", "Daily City", "Los Gatos"]
                .map(Value::str)
                .to_vec()
        );
    }

    /// Reproduce Fig 10's two-part layout: passive main with codes 0..n,
    /// active main continuing at n, active value index referencing passive
    /// codes.
    fn two_part_store() -> MainStore {
        // Passive: cities {Campbell=0, Daily City=1, Los Gatos=2}, ids {1,2,3}.
        let p_cities = SortedDict::from_values(
            ["Campbell", "Daily City", "Los Gatos"]
                .map(Value::str)
                .to_vec(),
        );
        let p_ids = SortedDict::from_values((1..=3).map(Value::Int).collect());
        let passive = MainPart::build(
            0,
            &schema(),
            vec![
                MainColumnData {
                    dict: p_ids,
                    base: 0,
                    codes: vec![0, 1, 2],
                },
                MainColumnData {
                    dict: p_cities,
                    base: 0,
                    codes: vec![2, 0, 1],
                },
            ],
            vec![RowId(0), RowId(1), RowId(2)],
            vec![1, 1, 1],
            vec![COMMIT_TS_MAX; 3],
            64,
        );
        // Active: new cities {Los Altos=3, Saratoga=4}; one row reuses the
        // passive code for "Campbell" (0).
        let a_cities = SortedDict::from_values(["Los Altos", "Saratoga"].map(Value::str).to_vec());
        let a_ids = SortedDict::from_values((4..=6).map(Value::Int).collect());
        let active = MainPart::build(
            1,
            &schema(),
            vec![
                MainColumnData {
                    dict: a_ids,
                    base: 3,
                    codes: vec![3, 4, 5],
                },
                MainColumnData {
                    dict: a_cities,
                    base: 3,
                    codes: vec![3, 0, 4],
                },
            ],
            vec![RowId(3), RowId(4), RowId(5)],
            vec![2, 2, 2],
            vec![COMMIT_TS_MAX; 3],
            64,
        );
        MainStore::from_parts(schema(), vec![Arc::new(passive), Arc::new(active)])
    }

    #[test]
    fn partial_main_point_query_passive_code_found_in_active() {
        let m = two_part_store();
        // "Campbell" is owned by the passive dictionary but also appears in
        // the active value index (global code 0).
        let hits = m.positions_eq(1, &Value::str("Campbell"));
        assert_eq!(
            hits,
            vec![PartHit { part: 0, pos: 1 }, PartHit { part: 1, pos: 1 }]
        );
        // "Saratoga" lives only in the active part.
        let hits = m.positions_eq(1, &Value::str("Saratoga"));
        assert_eq!(hits, vec![PartHit { part: 1, pos: 2 }]);
    }

    #[test]
    fn partial_main_range_query_splits_ranges() {
        let m = two_part_store();
        // Fig 10's example: range C% to L% must find Campbell (passive,
        // both parts), Daily City (passive), Los Altos (active), Los Gatos
        // (passive).
        let hits = range_hits(
            &m,
            1,
            Bound::Included(&Value::str("C")),
            Bound::Excluded(&Value::str("M")),
        );
        let mut vals: Vec<String> = hits
            .iter()
            .map(|&h| m.value_at(h, 1).as_str().unwrap().to_string())
            .collect();
        vals.sort();
        assert_eq!(
            vals,
            vec![
                "Campbell",
                "Campbell",
                "Daily City",
                "Los Altos",
                "Los Gatos"
            ]
        );
    }

    #[test]
    fn next_base_continues_encoding_scheme() {
        let m = two_part_store();
        assert_eq!(m.next_base(1), 5); // 3 passive + 2 active city values
        assert_eq!(m.next_base(0), 6);
        // code_of_value resolves passive first.
        assert_eq!(m.code_of_value(1, &Value::str("Campbell")), Some((0, 0)));
        assert_eq!(m.code_of_value(1, &Value::str("Saratoga")), Some((1, 4)));
        assert_eq!(m.value_of_code(1, 4), Some(Value::str("Saratoga")));
        assert_eq!(m.value_of_code(1, 99), None);
    }

    #[test]
    fn deletion_stamps() {
        let m = single_part(&[(1, Some("a")), (2, Some("b"))]);
        let part = &m.parts()[0];
        assert_eq!(part.end(0), COMMIT_TS_MAX);
        part.store_end(0, 42);
        assert_eq!(part.end(0), 42);
        assert_eq!(part.begin(0), 1);
    }

    #[test]
    fn fully_visible_summary_tracks_stamps() {
        let m = single_part(&[(1, Some("a")), (2, Some("b"))]);
        let part = &m.parts()[0];
        // Begins are all 1 and no ends are set: wholly visible from ts 1 on.
        assert!(part.fully_visible_at(1));
        assert!(part.fully_visible_at(100));
        assert!(!part.fully_visible_at(0));
        // Any in-place deletion permanently disables the fast path.
        let v0 = part.end_version();
        part.store_end(1, 42);
        assert!(!part.fully_visible_at(100));
        assert_eq!(part.end_version(), v0 + 1);
    }

    /// A cache entry for snapshot `ts` of reader `txn` at the part's current
    /// end version.
    fn entry(
        part: &MainPart,
        ts: Timestamp,
        txn: Option<TxnId>,
        sensitive: bool,
    ) -> Arc<VisBitmap> {
        Arc::new(VisBitmap {
            ts,
            txn,
            txn_sensitive: sensitive,
            end_version: part.end_version(),
            visible: Arc::new(Bitmap::zeros(part.len())),
        })
    }

    #[test]
    fn visibility_cache_round_trip_and_invalidation() {
        let m = single_part(&[(1, Some("a")), (2, Some("b")), (3, Some("c"))]);
        let part = &m.parts()[0];
        assert!(part.cached_visibility(7, None).is_none());
        let mut bm = Bitmap::zeros(3);
        bm.set(0);
        bm.set(2);
        part.store_visibility(
            Arc::new(VisBitmap {
                ts: 7,
                txn: None,
                txn_sensitive: false,
                end_version: part.end_version(),
                visible: Arc::new(bm),
            }),
            0,
        );
        // Txn-insensitive entries serve any reader at the same snapshot ts.
        let hit = part.cached_visibility(7, Some(TxnId(9))).unwrap();
        assert!(hit.visible.get(0) && !hit.visible.get(1) && hit.visible.get(2));
        assert!(part.cached_visibility(8, None).is_none());
        // A deletion no longer discards the entry: it is still served, and
        // the log names exactly the position its holder must re-evaluate.
        part.store_end(0, 99);
        let stale = part.cached_visibility(7, None).unwrap();
        assert_eq!(stale.end_version + 1, part.end_version());
        assert_eq!(part.ends_since(stale.end_version), vec![0]);
        assert!(part.ends_since(part.end_version()).is_empty());
        // Storing the advanced version replaces it: one entry per snapshot.
        part.store_visibility(entry(part, 7, Some(TxnId(9)), false), 0);
        assert_eq!(part.vis_cache_len(), 1);
        assert_eq!(
            part.cached_visibility(7, None).unwrap().end_version,
            part.end_version()
        );
        // An older version never overwrites a newer one.
        part.store_visibility(stale, 0);
        assert_eq!(
            part.cached_visibility(7, None).unwrap().end_version,
            part.end_version()
        );
    }

    #[test]
    fn txn_sensitive_entries_require_matching_reader() {
        let m = single_part(&[(1, Some("a"))]);
        let part = &m.parts()[0];
        part.store_visibility(entry(part, 5, Some(TxnId(3)), true), 0);
        assert!(part.cached_visibility(5, Some(TxnId(3))).is_some());
        assert!(part.cached_visibility(5, Some(TxnId(4))).is_none());
        assert!(part.cached_visibility(5, None).is_none());
        // A sensitive entry of another reader at the same ts coexists.
        part.store_visibility(entry(part, 5, Some(TxnId(4)), true), 0);
        assert_eq!(part.vis_cache_len(), 2);
        assert_eq!(
            part.cached_visibility(5, Some(TxnId(4))).unwrap().txn,
            Some(TxnId(4))
        );
    }

    #[test]
    fn visibility_cache_evicts_below_watermark_and_caps() {
        let m = single_part(&[(1, Some("a"))]);
        let part = &m.parts()[0];
        for ts in 1..=VIS_CACHE_CAP as u64 {
            part.store_visibility(entry(part, ts, None, false), 0);
        }
        // Capacity is bounded and eviction goes by last use, not by
        // insertion: the oldest entry, looked up again, outlives the next.
        assert!(part.cached_visibility(1, None).is_some());
        part.store_visibility(entry(part, 100, None, false), 0);
        assert_eq!(part.vis_cache_len(), VIS_CACHE_CAP);
        assert!(part.cached_visibility(1, None).is_some());
        assert!(part.cached_visibility(2, None).is_none());
        assert!(part.cached_visibility(100, None).is_some());
        // A store with a high watermark sweeps older snapshots out.
        part.store_visibility(entry(part, 10, None, false), 10);
        assert!(part.cached_visibility(6, None).is_none());
        assert!(part.cached_visibility(1, None).is_none());
        assert!(part.cached_visibility(10, None).is_some());
        assert_eq!(part.vis_cache_len(), 2);
    }

    #[test]
    fn marked_begins_disable_fast_path() {
        let ids = SortedDict::from_values(vec![Value::Int(1)]);
        let part = MainPart::build(
            0,
            &schema(),
            vec![MainColumnData {
                dict: ids,
                base: 0,
                codes: vec![0],
            }],
            vec![RowId(0)],
            vec![TxnId(5).mark()],
            vec![COMMIT_TS_MAX],
            64,
        );
        assert!(!part.fully_visible_at(!(1u64 << 63)));
    }

    #[test]
    fn initial_end_stamps_disable_fast_path() {
        let ids = SortedDict::from_values(vec![Value::Int(1)]);
        let part = MainPart::build(
            0,
            &schema(),
            vec![MainColumnData {
                dict: ids,
                base: 0,
                codes: vec![0],
            }],
            vec![RowId(0)],
            vec![1],
            vec![7],
            64,
        );
        assert!(!part.fully_visible_at(100));
        // The build seeds the end-write log with the already-set ends.
        assert_eq!(part.end_version(), 1);
        assert_eq!(part.ends_since(0), vec![0]);
    }

    #[test]
    fn empty_store() {
        let m = MainStore::empty(schema());
        assert!(m.is_empty());
        assert_eq!(m.positions_eq(1, &Value::str("x")), vec![]);
        assert_eq!(m.next_base(0), 0);
        assert_eq!(m.iter_hits().count(), 0);
    }

    #[test]
    fn zone_maps_built_and_null_aware() {
        let m = single_part(&[(10, Some("a")), (20, None), (30, Some("c"))]);
        let part = &m.parts()[0];
        // id column: codes 0..=2, no nulls.
        let z = part.zone_map(0).part();
        assert_eq!((z.min, z.max, z.has_nulls), (0, 2, false));
        // city column: codes {a=0, c=1}, one NULL (sentinel 2) excluded from
        // the span but flagged.
        let z = part.zone_map(1).part();
        assert_eq!((z.min, z.max, z.has_nulls), (0, 1, true));
        // Precomputed zones round-trip through build_with_zones.
        let ids = SortedDict::from_values(vec![Value::Int(1)]);
        let zm = ZoneMap::build(&[0], 1);
        let p = MainPart::build_with_zones(
            0,
            &schema(),
            vec![MainColumnData {
                dict: ids,
                base: 0,
                codes: vec![0],
            }],
            vec![RowId(0)],
            vec![1],
            vec![COMMIT_TS_MAX],
            64,
            Some(vec![zm.clone()]),
        );
        assert_eq!(p.zone_map(0), &zm);
    }

    #[test]
    fn footprint_reporting() {
        let m = single_part(&[(1, Some("aaaa")), (2, Some("aaab")), (3, Some("aaac"))]);
        // Beyond the column data a part holds the key column's index (5
        // offsets for 3 codes + NULL, 3 positions, 4 B each), the 3 record
        // ids 0..=2 at 2 bits in one word, and a begin and an end per row.
        assert_eq!(m.approx_bytes() - m.data_bytes(), (5 + 3) * 4 + 8 + 3 * 16);
    }
}
