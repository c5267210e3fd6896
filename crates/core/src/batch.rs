//! The batch scan: the one loop every analytical read runs through.
//!
//! A statement's visible rows are served as **column batches**, one per
//! scan unit — a 16Ki-row chunk of a main part (never crossing parts; an
//! index-routed unit narrows to the window its hits span), the frozen
//! L2-delta, the open L2-delta, the L1-delta — oldest store to
//! newest, matching merge order. Per unit the scan
//!
//! 1. decides the pushed-down conjuncts in the code domain
//!    ([`ColumnPredicate`] compiled per part / per L2 dictionary, zone maps
//!    pruning parts and chunks first) into a hit bitmap — one routing rule
//!    for every column stage: a non-null `Eq` on a key column walks the
//!    inverted index of its code (main and L2 alike) instead of testing
//!    every row; every other conjunct runs the packed-word kernels behind
//!    the zone maps in the main and a per-row code test in the L2,
//! 2. ANDs the snapshot-visibility resolution into it word-wise — the
//!    **selection**,
//! 3. decodes each requested column *for the selected rows only*, as
//!    dictionary codes (block-unpacked when the selection is dense,
//!    gathered when it is sparse) next to the unit's [`DictView`], plus an
//!    `f64` vector when the consumer asked for numeric access,
//!
//! and hands the [`ColumnBatch`] to the caller's fold. Values are decoded
//! only when a consumer asks the dictionary for one. Units fan out over the
//! scan pool by the read's one rule ([`TableRead::fan_out`]: a lone shard's
//! main units, else whole shards); the per-unit fold results come back **in
//! shard order, then unit order**, so whatever the caller combines from them
//! is independent of the worker count. [`TableRead::scan_filtered`],
//! `collect_rows*`, `point`, `range`, `aggregate_numeric` and
//! `group_aggregate` are thin folds over this scan, and so is the calc
//! layer's aggregate/join executor.

use crate::filter::{zone_admits, ColumnPredicate, ScanStats};
use crate::read::{concat, Shard, TableRead, VisibleRow};
use crate::scan::{plan_chunks, PartVisibility, ScanChunk, SCAN_CHUNK_ROWS};
use hana_column::kernel::refine_bitmap;
use hana_column::{CodeMatcher, CodeVector, Pos};
use hana_common::{Result, RowId, Value};
use hana_merge::map_indexed;
use hana_rowstore::Slot;
use hana_store::{L2Delta, MainStore, L2_NULL_CODE};
use hana_txn::Snapshot;
use rustc_hash::FxHashMap;
use std::cmp::Ordering;
use std::sync::atomic::Ordering::Acquire;

// The types a batch consumer handles next to the ones defined here.
pub use hana_column::Bitmap;
pub use hana_dict::{Code, UnsortedDict};

/// Below this selected fraction (1/8) a column is gathered per selected
/// row instead of block-unpacked and compacted.
const GATHER_DENSITY: usize = 8;

/// Largest code-space product [`group_slots`] remaps through a dense array.
const DENSE_GROUPS: usize = 1 << 16;

/// One column a batch scan exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchCol {
    /// Table column index.
    pub col: usize,
    /// Also decode the selected rows to `f64` ([`BatchColumn::numeric`]).
    pub numeric: bool,
}

impl BatchCol {
    /// Codes (or L1 values) only.
    pub fn codes(col: usize) -> Self {
        BatchCol {
            col,
            numeric: false,
        }
    }

    /// Codes plus the numeric decode.
    pub fn numeric(col: usize) -> Self {
        BatchCol { col, numeric: true }
    }
}

/// What a batch scan filters on and exposes.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec<'a> {
    /// Conjuncts decided inside the scan, in the code domain.
    pub preds: &'a [ColumnPredicate],
    /// Columns of every batch, in this order.
    pub cols: &'a [BatchCol],
    /// Fill [`ColumnBatch::row_ids`].
    pub row_ids: bool,
}

/// The dictionary behind a batch column's codes.
#[derive(Clone, Copy)]
pub enum DictView<'a> {
    /// Chain-global codes of main part `part`: the sorted dictionaries of
    /// parts `0..=part`, each offset by its base.
    Main {
        /// The pinned main chain.
        main: &'a MainStore,
        /// The part the batch's rows live in.
        part: usize,
        /// Table column index.
        col: usize,
    },
    /// An L2-delta's unsorted dictionary.
    L2(&'a UnsortedDict),
}

impl DictView<'_> {
    /// The code NULL cells carry in this unit.
    pub fn null_code(&self) -> Code {
        match self {
            DictView::Main { main, part, col } => main.parts()[*part].null_code(*col),
            DictView::L2(_) => L2_NULL_CODE,
        }
    }

    /// Exclusive bound on [`slot`](Self::slot): the size of a table
    /// indexed by this dictionary domain's codes (for a main chain the
    /// bound covers every part, so one table serves the whole chain).
    pub fn code_space(&self) -> usize {
        match self {
            DictView::Main { main, col, .. } => main.next_base(*col) as usize + 1,
            DictView::L2(dict) => dict.len() + 1,
        }
    }

    /// Dense index of `code` below [`code_space`](Self::code_space); the
    /// unit's NULL sentinel gets a slot of its own.
    #[inline]
    pub fn slot(&self, code: Code) -> usize {
        match self {
            DictView::Main { .. } => code as usize,
            DictView::L2(dict) => (code as usize).min(dict.len()),
        }
    }

    /// Decode one code (`Null` for the NULL sentinel).
    pub fn value(&self, code: Code) -> Value {
        if code == self.null_code() {
            return Value::Null;
        }
        match self {
            DictView::Main { main, col, .. } => main
                .value_of_code(*col, code)
                .expect("main code must resolve within the part chain"),
            DictView::L2(dict) => dict.value_of(code).clone(),
        }
    }

    /// Value order of two non-NULL codes. Main codes are order-preserving
    /// within one part's dictionary only, so codes owned by different parts
    /// compare by value.
    pub fn cmp(&self, a: Code, b: Code) -> Ordering {
        match self {
            DictView::Main { main, col, .. } => {
                let owner = |c: Code| main.parts().iter().rposition(|p| p.base(*col) <= c);
                if owner(a) == owner(b) {
                    a.cmp(&b)
                } else {
                    self.value(a).cmp(&self.value(b))
                }
            }
            DictView::L2(dict) => dict.value_of(a).cmp(dict.value_of(b)),
        }
    }

    /// The code of `v` in this domain, if any row could carry it.
    pub fn code_of(&self, v: &Value) -> Option<Code> {
        match self {
            DictView::Main { main, col, .. } => main.code_of_value(*col, v).map(|(_, c)| c),
            DictView::L2(dict) => dict.code_of(v),
        }
    }

    /// Compile a conjunct on this column against the unit's dictionary.
    pub fn compile(&self, p: &ColumnPredicate) -> CodeMatcher {
        match self {
            DictView::Main { main, part, .. } => p.compile_for_part(main, *part),
            DictView::L2(dict) => p.compile_for_l2(dict),
        }
    }
}

/// The selected rows of one column.
pub enum ColumnData<'a> {
    /// Dictionary codes next to the unit's dictionary (main, L2).
    Codes {
        /// One code per selected row.
        codes: Vec<Code>,
        /// The dictionary the codes index.
        dict: DictView<'a>,
    },
    /// Plain values (the L1 row store).
    Values(Vec<&'a Value>),
}

/// One requested column of a [`ColumnBatch`].
pub struct BatchColumn<'a> {
    /// Codes or values, one per selected row.
    pub data: ColumnData<'a>,
    /// `as_numeric()` of every selected row, `NaN` where the cell is NULL
    /// or not numeric. Empty unless the spec asked for it.
    pub numeric: Vec<f64>,
}

impl ColumnData<'_> {
    /// Decode row `t`.
    pub fn value(&self, t: usize) -> Value {
        match self {
            ColumnData::Codes { codes, dict } => dict.value(codes[t]),
            ColumnData::Values(vs) => vs[t].clone(),
        }
    }

    /// Is row `t` NULL?
    pub fn is_null(&self, t: usize) -> bool {
        match self {
            ColumnData::Codes { codes, dict } => codes[t] == dict.null_code(),
            ColumnData::Values(vs) => vs[t].is_null(),
        }
    }
}

impl BatchColumn<'_> {
    fn retain(&mut self, keep: &Bitmap) {
        match &mut self.data {
            ColumnData::Codes { codes, .. } => compact(codes, keep),
            ColumnData::Values(vs) => compact(vs, keep),
        }
        if !self.numeric.is_empty() {
            compact(&mut self.numeric, keep);
        }
    }
}

fn compact<T: Copy>(v: &mut Vec<T>, keep: &Bitmap) {
    let mut n = 0;
    for t in keep.iter_ones() {
        v[n] = v[t];
        n += 1;
    }
    v.truncate(n);
}

/// The selected rows of one scan unit, column-wise.
pub struct ColumnBatch<'a> {
    /// Index of the shard this unit belongs to within the read view (the
    /// partition index of a partitioned table, else 0). Main units of one
    /// source share a code domain.
    pub source: usize,
    /// The requested columns, in spec order.
    pub cols: Vec<BatchColumn<'a>>,
    /// Record ids of the selected rows (empty unless requested).
    pub row_ids: Vec<RowId>,
    len: usize,
}

impl ColumnBatch<'_> {
    /// Selected rows in this batch (never 0 when handed to a fold).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Narrow the batch to the rows whose bit is set in `keep`.
    pub fn retain(&mut self, keep: &Bitmap) {
        debug_assert_eq!(keep.len(), self.len);
        for c in &mut self.cols {
            c.retain(keep);
        }
        if !self.row_ids.is_empty() {
            compact(&mut self.row_ids, keep);
        }
        self.len = keep.count_ones();
    }
}

/// Group the `n` rows of a batch by `keys` without decoding a value:
/// every row gets a group slot (numbered in first-seen order) and every slot
/// keeps one representative row to decode its key from. Rows compare by
/// dictionary code (interned ids for plain values); the code tuple is
/// remapped through a dense array while the code-space product is small and
/// hashed otherwise. No keys mean one global group: `(None, [0])`.
pub fn group_slots(n: usize, keys: &[&ColumnData<'_>]) -> (Option<Vec<u32>>, Vec<u32>) {
    if keys.is_empty() {
        return (None, vec![0]);
    }
    // Per key column: a small integer per tuple that is equal iff the
    // values are (the dictionary slot, or an interned id for plain values).
    let mut cards = Vec::with_capacity(keys.len());
    let ids: Vec<Vec<u32>> = keys
        .iter()
        .map(|k| match k {
            ColumnData::Codes { codes, dict } => {
                cards.push(dict.code_space());
                codes.iter().map(|&c| dict.slot(c) as u32).collect()
            }
            ColumnData::Values(vs) => {
                let mut seen: FxHashMap<&Value, u32> = FxHashMap::default();
                let ids = vs
                    .iter()
                    .map(|&v| {
                        let next = seen.len() as u32;
                        *seen.entry(v).or_insert(next)
                    })
                    .collect();
                cards.push(seen.len());
                ids
            }
        })
        .collect();
    let mut slots = Vec::with_capacity(n);
    let mut reps: Vec<u32> = Vec::new();
    let product = cards.iter().try_fold(1usize, |p, &c| p.checked_mul(c));
    match product {
        Some(product) if product <= DENSE_GROUPS => {
            let mut remap = vec![u32::MAX; product];
            for t in 0..n {
                let gid = ids
                    .iter()
                    .zip(&cards)
                    .fold(0, |g, (id, &card)| g * card + id[t] as usize);
                if remap[gid] == u32::MAX {
                    remap[gid] = reps.len() as u32;
                    reps.push(t as u32);
                }
                slots.push(remap[gid]);
            }
        }
        _ => {
            let mut remap: FxHashMap<Box<[u32]>, u32> = FxHashMap::default();
            let mut key = vec![0u32; ids.len()];
            for t in 0..n {
                for (k, id) in key.iter_mut().zip(&ids) {
                    *k = id[t];
                }
                let slot = match remap.get(key.as_slice()) {
                    Some(&s) => s,
                    None => {
                        reps.push(t as u32);
                        remap.insert(key.clone().into_boxed_slice(), reps.len() as u32 - 1);
                        reps.len() as u32 - 1
                    }
                };
                slots.push(slot);
            }
        }
    }
    (Some(slots), reps)
}

/// A main chunk to scan, with the hit bitmap an index probe seeded.
struct MainUnit {
    chunk: ScanChunk,
    seed: Option<Bitmap>,
}

/// The conjunct a scan routes through the inverted indexes: the first
/// non-null `Eq` on a column the stage `indexed` (a NULL never enters a
/// dictionary).
fn eq_route(preds: &[ColumnPredicate], indexed: impl Fn(usize) -> bool) -> Option<(usize, &Value)> {
    preds.iter().find_map(|p| match p {
        ColumnPredicate::Eq(c, v) if !v.is_null() && indexed(*c) => Some((*c, v)),
        _ => None,
    })
}

/// Decode the selected rows of window `[start, start + hits.len())`.
fn selected_codes(cv: &CodeVector, start: usize, hits: &Bitmap, nsel: usize) -> Vec<Code> {
    let n = hits.len();
    if nsel * GATHER_DENSITY < n {
        return hits.iter_ones().map(|k| cv.get(start + k)).collect();
    }
    let mut codes = vec![0; n];
    cv.decode_range(start, &mut codes);
    if nsel < n {
        compact(&mut codes, hits);
    }
    codes
}

fn numeric_or_nan(v: &Value) -> f64 {
    v.as_numeric().unwrap_or(f64::NAN)
}

impl TableRead {
    /// Scan every visible row satisfying all of `spec.preds` as column
    /// batches (see the [module docs](self)), calling `fold` once per
    /// non-empty unit. Returns the fold results in shard order, each shard
    /// in unit order — main chunks in chain order, frozen L2, open L2, L1 —
    /// plus the pruning/filtering counters summed over shards.
    ///
    /// `fold` runs on the scan pool and, for the L2 units, under that
    /// delta's read lock: it must not call back into the table.
    pub fn scan_batches<T: Send>(
        &self,
        spec: &BatchSpec<'_>,
        fold: impl Fn(ColumnBatch<'_>) -> T + Sync,
    ) -> Result<(Vec<T>, ScanStats)> {
        for c in spec.cols {
            self.schema_col(c.col)?;
        }
        for p in spec.preds {
            self.schema_col(p.column())?;
        }
        let snap = self.snapshot();
        let mut stats = ScanStats::default();
        let mut units = Vec::new();
        for (shard_units, st) in self.fan_out(|s, fan_units| s.scan(snap, spec, &fold, fan_units)) {
            units.push(shard_units);
            stats.merge(&st);
        }
        Ok((concat(units), stats))
    }
}

impl Shard {
    /// This shard's part of [`TableRead::scan_batches`]; its main units go
    /// over the pool when `fan_units`.
    fn scan<T: Send>(
        &self,
        snap: &Snapshot,
        spec: &BatchSpec<'_>,
        fold: &(impl Fn(ColumnBatch<'_>) -> T + Sync),
        fan_units: bool,
    ) -> (Vec<T>, ScanStats) {
        let mut stats = ScanStats::default();
        let mut out = self.scan_main(snap, spec, fold, fan_units, &mut stats);
        if let Some((frozen, fence)) = &self.l2_frozen {
            out.extend(self.scan_l2(snap, frozen, *fence, spec, fold, &mut stats));
        }
        out.extend(self.scan_l2(snap, &self.l2, self.l2_fence, spec, fold, &mut stats));
        out.extend(self.scan_l1(snap, spec, fold, &mut stats));
        (out, stats)
    }

    /// One numeric decode table covering the *whole* main chain: global
    /// code → numeric value (`NaN` for non-numeric entries). Codes in part
    /// `p` never reference later parts, and every row's NULL sentinel is
    /// checked against its own part before lookup, so the sentinel slots
    /// colliding with the next part's base are harmless.
    fn chain_numeric_table(&self, col: usize) -> Vec<f64> {
        let mut table = vec![f64::NAN; self.main.next_base(col) as usize + 1];
        for p in self.main.parts() {
            let base = p.base(col) as usize;
            let dict = p.dict(col);
            for local in 0..dict.len() as u32 {
                table[base + local as usize] = numeric_or_nan(&dict.value_of(local));
            }
        }
        table
    }

    /// The main chunks a scan has to touch. Without conjuncts: all of
    /// them. With a non-null `Eq` conjunct on a key column: per chunk its
    /// inverted-index lists hit, the window from the word holding the first
    /// hit to the last hit, seeded with those hits — a point lookup's unit
    /// is a word, not a chunk. Otherwise: what the part- and chunk-level
    /// zone maps cannot rule out.
    fn plan_main(
        &self,
        preds: &[ColumnPredicate],
        matchers: &[Vec<CodeMatcher>],
        stats: &mut ScanStats,
    ) -> Vec<MainUnit> {
        let parts = self.main.parts();
        let unseeded = |chunk| MainUnit { chunk, seed: None };
        if preds.is_empty() || parts.is_empty() {
            return plan_chunks(parts).into_iter().map(unseeded).collect();
        }
        if let Some((col, v)) = eq_route(preds, |c| self.main.has_index(c)) {
            stats.index_probes += 1;
            let mut units: Vec<MainUnit> = Vec::new();
            let Some((owner, code)) = self.main.code_of_value(col, v) else {
                return units;
            };
            let chunk_of = |pos: Pos| pos as usize / SCAN_CHUNK_ROWS;
            // The owner's code is valid in its own and every later part.
            for (pi, part) in parts.iter().enumerate().skip(owner) {
                let hits = part.positions_of_code(col, code);
                let hits: &[Pos] = &hits;
                stats.code_filtered_rows += hits.len() as u64;
                for group in hits.chunk_by(|&a, &b| chunk_of(a) == chunk_of(b)) {
                    let (start, end) = (group[0] & !63, group[group.len() - 1] + 1);
                    let mut seed = Bitmap::zeros((end - start) as usize);
                    group
                        .iter()
                        .for_each(|&pos| seed.set((pos - start) as usize));
                    units.push(MainUnit {
                        chunk: ScanChunk {
                            part: pi,
                            start,
                            end,
                        },
                        seed: Some(seed),
                    });
                }
            }
            return units;
        }
        // A part whose compiled filter is empty (the dictionary proved no
        // match) prunes the same way as one its zone map rules out.
        let cols: Vec<usize> = preds.iter().map(|p| p.column()).collect();
        let mut part_active = vec![true; parts.len()];
        for (pi, part) in parts.iter().enumerate() {
            let dead = matchers[pi]
                .iter()
                .zip(&cols)
                .any(|(m, &c)| m.never_matches() || !zone_admits(part.zone_map(c).part(), m));
            if dead && !part.is_empty() {
                part_active[pi] = false;
                stats.parts_pruned += 1;
                stats.zone_pruned_rows += part.len() as u64;
            }
        }
        let units: Vec<MainUnit> = plan_chunks(parts)
            .into_iter()
            .filter(|ch| {
                if !part_active[ch.part] {
                    return false;
                }
                let part = &parts[ch.part];
                let dead = matchers[ch.part]
                    .iter()
                    .zip(&cols)
                    .any(|(m, &c)| !zone_admits(part.zone_map(c).chunk_at(ch.start), m));
                if dead {
                    stats.chunks_pruned += 1;
                    stats.zone_pruned_rows += (ch.end - ch.start) as u64;
                }
                !dead
            })
            .map(unseeded)
            .collect();
        stats.code_filtered_rows += units
            .iter()
            .map(|u| (u.chunk.end - u.chunk.start) as u64)
            .sum::<u64>();
        units
    }

    fn scan_main<T: Send>(
        &self,
        snap: &Snapshot,
        spec: &BatchSpec<'_>,
        fold: &(impl Fn(ColumnBatch<'_>) -> T + Sync),
        fan_units: bool,
        stats: &mut ScanStats,
    ) -> Vec<T> {
        let parts = self.main.parts();
        let preds = spec.preds;
        let matchers: Vec<Vec<CodeMatcher>> = (0..parts.len())
            .map(|pi| {
                preds
                    .iter()
                    .map(|p| p.compile_for_part(&self.main, pi))
                    .collect()
            })
            .collect();
        let units = self.plan_main(preds, &matchers, stats);
        if units.is_empty() {
            return Vec::new();
        }
        // Visibility resolves once per touched part, before the fan-out, so
        // workers never consult the transaction manager.
        let mut vis: Vec<Option<PartVisibility>> = Vec::new();
        vis.resize_with(parts.len(), || None);
        for u in &units {
            vis[u.chunk.part].get_or_insert_with(|| self.part_visibility(snap, u.chunk.part));
        }
        // Numeric decode tables: once per statement, and only for the
        // columns the consumer reads numerically.
        let tables: Vec<Vec<f64>> = spec
            .cols
            .iter()
            .map(|c| match c.numeric {
                true => self.chain_numeric_table(c.col),
                false => Vec::new(),
            })
            .collect();
        let workers = match fan_units {
            true => self.workers(units.len()),
            false => 1,
        };
        stats.effective_parallelism = workers;
        let scan_epoch = self.table.governor.epoch();
        let produced = map_indexed(units.len(), workers, |ui| {
            // Chunk-boundary cooperation: surrender the timeslice when a
            // committer entered the pipeline, so a long scan never
            // monopolizes the pool while the commit path queues. The first
            // unit follows no boundary: a one-unit read (a point lookup)
            // never cedes.
            if ui > 0 {
                let mut seen = scan_epoch;
                self.table.governor.chunk_yield(&mut seen);
            }
            let MainUnit { chunk: ch, seed } = &units[ui];
            let part = &parts[ch.part];
            let (start, n) = (ch.start as usize, (ch.end - ch.start) as usize);
            let ms = &matchers[ch.part];
            let mut hits = seed.clone().unwrap_or_else(|| Bitmap::zeros(n));
            let refine_from = match (seed, preds.first()) {
                (Some(_), _) => 0,
                (None, None) => {
                    hits.set_range(0, n);
                    0
                }
                (None, Some(p)) => {
                    part.code_vector(p.column())
                        .filter_range(start, start + n, &ms[0], &mut hits);
                    1
                }
            };
            for (m, p) in ms.iter().zip(preds).skip(refine_from) {
                if hits.count_ones() == 0 {
                    break;
                }
                let c = p.column();
                refine_bitmap(|i| part.code_at(i as Pos, c), start, m, &mut hits);
            }
            // Visibility-AND: fold the snapshot bitmap into the hit bitmap
            // word-wise instead of branching per hit.
            let visibility = vis[ch.part].as_ref().expect("resolved above");
            visibility.mask_hits(&mut hits, ch.start);
            let nsel = hits.count_ones();
            if nsel == 0 {
                return None;
            }
            let cols = spec
                .cols
                .iter()
                .zip(&tables)
                .map(|(c, table)| {
                    let codes = selected_codes(part.code_vector(c.col), start, &hits, nsel);
                    let null = part.null_code(c.col);
                    let numeric = match c.numeric {
                        true => codes
                            .iter()
                            .map(|&code| match code == null {
                                true => f64::NAN,
                                false => table[code as usize],
                            })
                            .collect(),
                        false => Vec::new(),
                    };
                    let dict = DictView::Main {
                        main: &self.main,
                        part: ch.part,
                        col: c.col,
                    };
                    BatchColumn {
                        data: ColumnData::Codes { codes, dict },
                        numeric,
                    }
                })
                .collect();
            let row_ids = match spec.row_ids {
                true => hits
                    .iter_ones()
                    .map(|k| part.row_id(ch.start + k as Pos))
                    .collect(),
                false => Vec::new(),
            };
            Some(fold(ColumnBatch {
                source: self.source,
                cols,
                row_ids,
                len: nsel,
            }))
        });
        produced.into_iter().flatten().collect()
    }

    /// One L2-delta as one unit: the dictionaries are probed once per
    /// conjunct into code sets, rows are tested on raw codes, and the
    /// batch borrows the dictionaries under the same lock acquisition. A
    /// non-null `Eq` on a key column routes as in the main: only the rows
    /// on its code's inverted-index chain are tested, checked for
    /// visibility and gathered.
    fn scan_l2<T>(
        &self,
        snap: &Snapshot,
        l2: &L2Delta,
        fence: Pos,
        spec: &BatchSpec<'_>,
        fold: &impl Fn(ColumnBatch<'_>) -> T,
        stats: &mut ScanStats,
    ) -> Option<T> {
        if fence == 0 {
            return None;
        }
        let preds = spec.preds;
        // Rows below the fence never move, so the chain read under its own
        // lock acquisition stays valid in the view taken below.
        let chain = eq_route(preds, |c| l2.has_index(c)).map(|(col, v)| {
            stats.index_probes += 1;
            l2.positions_eq(col, v, fence)
        });
        match &chain {
            Some(chain) if chain.is_empty() => return None,
            Some(chain) => stats.code_filtered_rows += chain.len() as u64,
            None if !preds.is_empty() => stats.code_filtered_rows += fence as u64,
            None => {}
        }
        let cols: Vec<usize> = preds
            .iter()
            .map(|p| p.column())
            .chain(spec.cols.iter().map(|c| c.col))
            .collect();
        l2.with_columns_stamped(&cols, fence, |view| {
            let ms: Vec<CodeMatcher> = preds
                .iter()
                .zip(&view.cols)
                .map(|(p, (dict, _))| p.compile_for_l2(dict))
                .collect();
            if ms.iter().any(|m| m.never_matches()) {
                return None;
            }
            // Visibility resolves inside the closure: it only touches the
            // txn manager, never the L2 lock.
            let keep = |&pos: &usize| {
                ms.iter()
                    .zip(&view.cols)
                    .all(|(m, (_, codes))| m.matches(codes[pos]))
                    && self.visible(
                        snap,
                        view.begins[pos].load(Acquire),
                        view.ends[pos].load(Acquire),
                    )
            };
            let sel: Vec<usize> = match &chain {
                Some(chain) => chain.iter().map(|&pos| pos as usize).filter(keep).collect(),
                None => (0..view.row_ids.len()).filter(keep).collect(),
            };
            if sel.is_empty() {
                return None;
            }
            let cols = spec
                .cols
                .iter()
                .zip(&view.cols[preds.len()..])
                .map(|(c, &(dict, all))| {
                    let codes: Vec<Code> = sel.iter().map(|&pos| all[pos]).collect();
                    let numeric = match c.numeric {
                        true => codes
                            .iter()
                            .map(|&code| match code == L2_NULL_CODE {
                                true => f64::NAN,
                                false => numeric_or_nan(dict.value_of(code)),
                            })
                            .collect(),
                        false => Vec::new(),
                    };
                    BatchColumn {
                        data: ColumnData::Codes {
                            codes,
                            dict: DictView::L2(dict),
                        },
                        numeric,
                    }
                })
                .collect();
            let row_ids = match spec.row_ids {
                true => sel.iter().map(|&pos| view.row_ids[pos]).collect(),
                false => Vec::new(),
            };
            Some(fold(ColumnBatch {
                source: self.source,
                cols,
                row_ids,
                len: sel.len(),
            }))
        })
    }

    /// The (small) L1 row store as one value batch, filtered row-wise. A
    /// non-null `Eq` on a key column routes as in the other stages: only
    /// the slots the L1's key tables name for its value are tested.
    fn scan_l1<T>(
        &self,
        snap: &Snapshot,
        spec: &BatchSpec<'_>,
        fold: &impl Fn(ColumnBatch<'_>) -> T,
        stats: &mut ScanStats,
    ) -> Option<T> {
        if self.l1.is_empty() {
            return None;
        }
        let preds = spec.preds;
        let keep = |slot: &&Slot| {
            preds
                .iter()
                .all(|p| p.matches_value(&slot.values[p.column()]))
                && self.visible(snap, slot.begin(), slot.end())
        };
        let slots: Vec<&Slot> = match eq_route(preds, |c| self.l1.has_index(c)) {
            Some((col, v)) => {
                stats.index_probes += 1;
                let hits = self.l1.positions_eq(col, v);
                stats.rowwise_rows += hits.len() as u64;
                let slots = hits.iter().filter_map(|&pos| self.l1.slot(pos));
                slots.filter(keep).collect()
            }
            None => {
                if !preds.is_empty() {
                    stats.rowwise_rows += self.l1.len() as u64;
                }
                self.l1.iter().map(|(_, slot)| slot).filter(keep).collect()
            }
        };
        if slots.is_empty() {
            return None;
        }
        let cols = spec
            .cols
            .iter()
            .map(|c| {
                let values: Vec<&Value> = slots.iter().map(|s| &s.values[c.col]).collect();
                let numeric = match c.numeric {
                    true => values.iter().map(|v| numeric_or_nan(v)).collect(),
                    false => Vec::new(),
                };
                BatchColumn {
                    data: ColumnData::Values(values),
                    numeric,
                }
            })
            .collect();
        let row_ids = match spec.row_ids {
            true => slots.iter().map(|s| s.row_id).collect(),
            false => Vec::new(),
        };
        Some(fold(ColumnBatch {
            source: self.source,
            cols,
            row_ids,
            len: slots.len(),
        }))
    }
}

/// Materialize the visible rows satisfying `preds`: rows exist only here,
/// at the scan's output. With `narrow` a row holds just the projected
/// columns in projection order; otherwise it is table-wide and unprojected
/// columns are `Null` placeholders, so the caller's column indexes stay
/// valid.
pub(crate) fn scan_rows(
    read: &TableRead,
    preds: &[ColumnPredicate],
    proj: Option<&[usize]>,
    narrow: bool,
) -> Result<(Vec<VisibleRow>, ScanStats)> {
    let arity = read.arity();
    let cols: Vec<BatchCol> = match proj {
        Some(p) => p.iter().map(|&c| BatchCol::codes(c)).collect(),
        None => (0..arity).map(BatchCol::codes).collect(),
    };
    let spec = BatchSpec {
        preds,
        cols: &cols,
        row_ids: true,
    };
    let placeholders = proj.is_some() && !narrow;
    let (units, stats) = read.scan_batches(&spec, |b| {
        (0..b.len())
            .map(|t| {
                let values = if placeholders {
                    let mut row = vec![Value::Null; arity];
                    for (c, data) in cols.iter().zip(&b.cols) {
                        row[c.col] = data.data.value(t);
                    }
                    row
                } else {
                    b.cols.iter().map(|c| c.data.value(t)).collect()
                };
                VisibleRow {
                    row_id: b.row_ids[t],
                    values,
                }
            })
            .collect::<Vec<_>>()
    })?;
    let mut rows = Vec::with_capacity(units.iter().map(Vec::len).sum());
    for unit in units {
        rows.extend(unit);
    }
    Ok((rows, stats))
}

/// `(count, sum)` of the visible non-null numeric values of `col`. Unit
/// partials combine in unit order, so the float sum is independent of the
/// worker count.
pub(crate) fn aggregate_numeric(read: &TableRead, col: usize) -> Result<(u64, f64)> {
    let spec = BatchSpec {
        preds: &[],
        cols: &[BatchCol::numeric(col)],
        row_ids: false,
    };
    let (units, _) = read.scan_batches(&spec, |b| {
        let (mut count, mut sum) = (0u64, 0.0f64);
        for &x in &b.cols[0].numeric {
            if !x.is_nan() {
                count += 1;
                sum += x;
            }
        }
        (count, sum)
    })?;
    Ok(units
        .into_iter()
        .fold((0, 0.0), |(c, s), (uc, us)| (c + uc, s + us)))
}

/// Per distinct value of `group_col`: `(rows, sum of numeric agg_col)`,
/// sorted by key. Every unit accumulates by dictionary code and decodes its
/// surviving group keys once; units merge in unit order.
pub(crate) fn group_aggregate(
    read: &TableRead,
    group_col: usize,
    agg_col: usize,
) -> Result<Vec<(Value, u64, f64)>> {
    let spec = BatchSpec {
        preds: &[],
        cols: &[BatchCol::codes(group_col), BatchCol::numeric(agg_col)],
        row_ids: false,
    };
    let (units, _) = read.scan_batches(&spec, |b| -> Vec<(Value, u64, f64)> {
        let key = &b.cols[0].data;
        let (slots, reps) = group_slots(b.len(), &[key]);
        let mut acc = vec![(0u64, 0.0f64); reps.len()];
        for (&slot, &x) in slots.iter().flatten().zip(&b.cols[1].numeric) {
            let e = &mut acc[slot as usize];
            e.0 += 1;
            if !x.is_nan() {
                e.1 += x;
            }
        }
        let decoded = reps.iter().map(|&t| key.value(t as usize));
        decoded.zip(acc).map(|(k, (c, s))| (k, c, s)).collect()
    })?;
    let mut groups: FxHashMap<Value, (u64, f64)> = FxHashMap::default();
    for (key, c, s) in units.into_iter().flatten() {
        let e = groups.entry(key).or_insert((0, 0.0));
        e.0 += c;
        e.1 += s;
    }
    let mut out: Vec<(Value, u64, f64)> = groups.into_iter().map(|(k, (c, s))| (k, c, s)).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}
