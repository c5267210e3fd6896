//! Shared survivor analysis for the delta-to-main merges.
//!
//! Every §4 merge starts the same way: resolve all MVCC stamps of the old
//! main and the closed L2-delta, fail (retryably) if any in-flight
//! transaction still holds a stamp, split rows into *survivors* (still
//! visible to some possible snapshot) and *garbage* (ended at or before the
//! transaction watermark — "discarding entries of all deleted or modified
//! records"), and archive committed garbage when the table is historic.
//!
//! The analysis keeps nothing per row but what the new part keeps anyway: a
//! survivor bitmap over the merge *input order* — the old main rows in
//! chain order (a partial merge: the active part's only), then the
//! published L2 rows — and each survivor's record id and settled stamps,
//! written straight into the vectors the new part takes over. The bitmap
//! then becomes the [`RowMap`] that places raced end stamps.

use hana_column::{Bitmap, Pos};
use hana_common::{HanaError, Result, RowId, Timestamp, TxnId, Value, COMMIT_TS_MAX};
use hana_store::{
    HistoricVersion, HistoryStore, L2Delta, MainColumn, MainColumnData, MainStore, PartHit,
    L2_NULL_CODE,
};
use hana_txn::{Resolution, TxnManager};
use std::sync::atomic::Ordering;

/// Where a surviving input row lives in the merge input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Origin {
    /// A row of the old main chain.
    Main(PartHit),
    /// A row of the closed L2-delta.
    L2(Pos),
}

/// The survivors of one merge input.
pub(crate) struct Survivors {
    /// Bit `i` set = input row `i` survives.
    pub keep: Bitmap,
    /// Index of the first old main part in the input.
    pub first_part: usize,
    /// Input index of the first L2 row (= the main rows entering).
    pub l2_start: usize,
    /// Record ids of the survivors, in input order.
    pub row_ids: Vec<RowId>,
    /// Settled begin stamps of the survivors.
    pub begins: Vec<Timestamp>,
    /// Settled end stamps of the survivors.
    pub ends: Vec<Timestamp>,
    pub dropped: Vec<RowId>,
    pub from_main: usize,
    pub from_l2: usize,
}

/// Inputs common to all delta-to-main merges.
pub struct MergeInput<'a> {
    /// The current main chain.
    pub main: &'a MainStore,
    /// The closed L2-delta being merged away.
    pub l2: &'a L2Delta,
    /// Oldest snapshot still in use; versions ended at or before it are
    /// garbage.
    pub watermark: Timestamp,
    /// Cluster-encoding block size for the new main.
    pub block_size: usize,
    /// Generation tag for the part(s) built by this merge.
    pub generation: u64,
    /// Requested worker threads for the per-column work: `0` = one per
    /// logical CPU, `1` = serial, `n` = exactly `n`. The result is
    /// bit-identical either way (see [`crate::parallel`]).
    pub parallel: usize,
}

impl MergeInput<'_> {
    /// Pack one merged column of the new part; a key column
    /// ([`hana_common::Schema::is_key`]) gets its inverted index.
    pub(crate) fn build_column(&self, col: usize, data: MainColumnData) -> MainColumn {
        let key = self.l2.schema().is_key(col);
        MainColumn::build(data, self.block_size, None, key)
    }
}

/// Resolve a possibly-marked stamp to a committed timestamp.
///
/// * `is_begin = true`: an aborted creator means the version never existed
///   (`None` = drop silently); an in-flight creator is a retryable error.
/// * `is_begin = false`: an aborted closer leaves the version live
///   (`COMMIT_TS_MAX`); an in-flight closer is a retryable error.
fn resolve_stamp(mgr: &TxnManager, ts: Timestamp, is_begin: bool) -> Result<Option<Timestamp>> {
    match TxnId::from_mark(ts) {
        None => Ok(Some(ts)),
        Some(writer) => match mgr.resolve_mark(writer) {
            Resolution::Committed(cts) => Ok(Some(cts)),
            Resolution::Aborted => Ok(if is_begin { None } else { Some(COMMIT_TS_MAX) }),
            Resolution::Uncommitted(t) => Err(HanaError::Merge(format!(
                "merge input still carries stamps of in-flight {t}; retry later"
            ))),
        },
    }
}

/// Classify the rows of main parts `first_part..` plus all published L2
/// rows of the merge input.
///
/// Full merges pass 0; the partial merge passes the active part's index
/// (the passive main "remains untouched").
pub(crate) fn collect_survivors(
    input: &MergeInput<'_>,
    mgr: &TxnManager,
    history: Option<&HistoryStore>,
    first_part: usize,
) -> Result<Survivors> {
    let parts = &input.main.parts()[first_part..];
    let l2_start: usize = parts.iter().map(|p| p.len()).sum();
    // Only *published* L2 rows enter the merge: an abandoned L1→L2 run may
    // leave physical appends past the publication fence, and those must
    // never leak into a main build.
    let fence = input.l2.published_len();
    let rows_in = l2_start + fence as usize;
    let mut s = Survivors {
        keep: Bitmap::zeros(rows_in),
        first_part,
        l2_start,
        row_ids: Vec::with_capacity(rows_in),
        begins: Vec::with_capacity(rows_in),
        ends: Vec::with_capacity(rows_in),
        dropped: Vec::new(),
        from_main: 0,
        from_l2: 0,
    };

    let mut classify = |i: usize,
                        row_id: RowId,
                        begin_raw: Timestamp,
                        end_raw: Timestamp,
                        values: &dyn Fn() -> Vec<Value>|
     -> Result<bool> {
        let Some(begin) = resolve_stamp(mgr, begin_raw, true)? else {
            // Aborted insert: vanishes without trace.
            s.dropped.push(row_id);
            return Ok(false);
        };
        let end = resolve_stamp(mgr, end_raw, false)?.expect("end never drops");
        if end <= input.watermark {
            // Garbage: no snapshot can see it anymore.
            if let Some(h) = history {
                h.push(HistoricVersion {
                    row_id,
                    begin,
                    end,
                    values: values(),
                });
            }
            s.dropped.push(row_id);
            return Ok(false);
        }
        s.keep.set(i);
        s.row_ids.push(row_id);
        s.begins.push(begin);
        s.ends.push(end);
        Ok(true)
    };

    // Old main rows first (they come first in the new value index: the
    // merge "adds the entries of the L2-delta at the end").
    let mut i = 0;
    let mut from_main = 0;
    for (k, part) in parts.iter().enumerate() {
        for pos in 0..part.len() as Pos {
            let hit = PartHit {
                part: first_part + k,
                pos,
            };
            let row = || input.main.row_at(hit);
            if classify(i, part.row_id(pos), part.begin(pos), part.end(pos), &row)? {
                from_main += 1;
            }
            i += 1;
        }
    }
    // The L2 stamps are read in place, under one borrow of the delta.
    let arity = input.l2.schema().arity();
    let cols: Vec<usize> = (0..arity).collect();
    let from_l2 = input.l2.with_columns_stamped(&cols, fence, |view| {
        let mut kept = 0;
        for pos in 0..view.row_ids.len() {
            let row = || -> Vec<Value> {
                view.cols
                    .iter()
                    .map(|(dict, codes)| match codes[pos] {
                        L2_NULL_CODE => Value::Null,
                        code => dict.value_of(code).clone(),
                    })
                    .collect()
            };
            let begin = view.begins[pos].load(Ordering::Acquire);
            let end = view.ends[pos].load(Ordering::Acquire);
            if classify(l2_start + pos, view.row_ids[pos], begin, end, &row)? {
                kept += 1;
            }
        }
        Ok::<_, HanaError>(kept)
    })?;
    s.from_main = from_main;
    s.from_l2 = from_l2;
    if s.row_ids.len() < rows_in {
        s.row_ids.shrink_to_fit();
        s.begins.shrink_to_fit();
        s.ends.shrink_to_fit();
    }
    Ok(s)
}

impl Survivors {
    /// Number of surviving rows.
    pub fn len(&self) -> usize {
        self.row_ids.len()
    }

    /// Where each survivor lives, in input order.
    pub fn origins<'a>(&'a self, main: &'a MainStore) -> impl Iterator<Item = Origin> + 'a {
        // Input index of the first row of main part `part`.
        let (mut part, mut start) = (self.first_part, 0);
        self.keep.iter_ones().map(move |i| {
            if i >= self.l2_start {
                return Origin::L2((i - self.l2_start) as Pos);
            }
            while i - start >= main.parts()[part].len() {
                start += main.parts()[part].len();
                part += 1;
            }
            Origin::Main(PartHit {
                part,
                pos: (i - start) as Pos,
            })
        })
    }

    /// The values of `col` of every survivor, in input order (the
    /// value-materializing merge paths).
    pub fn values(&self, input: &MergeInput<'_>, col: usize) -> Vec<Value> {
        input
            .l2
            .with_column(col, input.l2.published_len(), |dict, codes| {
                let mut values = Vec::with_capacity(self.len());
                values.extend(self.origins(input.main).map(|origin| match origin {
                    Origin::Main(hit) => input.main.value_at(hit, col),
                    Origin::L2(pos) => match codes[pos as usize] {
                        L2_NULL_CODE => Value::Null,
                        code => dict.value_of(code).clone(),
                    },
                }));
                values
            })
    }
}

/// Survivor bits per rank-directory entry.
const RANK_BLOCK: usize = 512;

/// Where the input rows of a delta-to-main merge landed in the part it
/// built — what the table needs to replay end stamps that raced the build.
///
/// Input row `i` (the old main rows in chain order — for a partial merge
/// the active part's only — then the published L2 rows) survives iff bit
/// `i` of the survivor bitmap is set. Its position in the new part is its
/// rank among the survivors, found in O(1) from a popcount prefix every
/// 512 bits; the re-sorting merge maps that rank through Fig 8's row
/// position mapping table.
pub struct RowMap {
    keep: Bitmap,
    /// Survivors before each [`RANK_BLOCK`]-bit block of `keep`.
    ranks: Vec<u32>,
    /// `(generation, input index of its first row)` of every old main part
    /// whose rows entered the merge.
    main_parts: Vec<(u64, usize)>,
    /// Input index of the first L2 row.
    l2_start: usize,
    /// Re-sorting merge: `order[rank]` = new position (Fig 8).
    order: Option<Vec<u32>>,
}

impl RowMap {
    /// The map of a merge that kept the survivors `keep` of an input made of
    /// `main_parts` (`(generation, first input index)`) and the L2 rows from
    /// `l2_start` on.
    pub(crate) fn new(
        keep: Bitmap,
        main_parts: Vec<(u64, usize)>,
        l2_start: usize,
        order: Option<Vec<u32>>,
    ) -> Self {
        let mut before = 0u32;
        let ranks = (0..keep.len().div_ceil(RANK_BLOCK))
            .map(|b| {
                let r = before;
                before += keep.count_ones_in(b * RANK_BLOCK, (b + 1) * RANK_BLOCK) as u32;
                r
            })
            .collect();
        RowMap {
            keep,
            ranks,
            main_parts,
            l2_start,
            order,
        }
    }

    /// New position of input row `i`, if it survived.
    fn new_pos(&self, i: usize) -> Option<Pos> {
        if !self.keep.get(i) {
            return None;
        }
        let block = i / RANK_BLOCK;
        let rank = self.ranks[block] as usize + self.keep.count_ones_in(block * RANK_BLOCK, i);
        Some(match &self.order {
            Some(order) => order[rank],
            None => rank as Pos,
        })
    }

    /// New position of row `pos` of the old main part of generation
    /// `part_gen`, if that part entered the merge and the row survived.
    pub fn main_pos(&self, part_gen: u64, pos: Pos) -> Option<Pos> {
        let &(_, start) = self.main_parts.iter().find(|(g, _)| *g == part_gen)?;
        self.new_pos(start + pos as usize)
    }

    /// New position of row `pos` of the merged L2-delta, if it survived.
    pub fn l2_pos(&self, pos: Pos) -> Option<Pos> {
        self.new_pos(self.l2_start + pos as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_lookup_crosses_directory_blocks() {
        // 1 500 input rows: 600 main rows of part generation 7, then L2.
        let mut keep = Bitmap::zeros(1_500);
        let kept: Vec<usize> = (0..1_500).filter(|i| i % 3 != 0).collect();
        for &i in &kept {
            keep.set(i);
        }
        let map = RowMap::new(keep, vec![(7, 0)], 600, None);
        for (rank, &i) in kept.iter().enumerate() {
            let got = if i < 600 {
                map.main_pos(7, i as Pos)
            } else {
                map.l2_pos((i - 600) as Pos)
            };
            assert_eq!(got, Some(rank as Pos), "input row {i}");
        }
        assert_eq!(map.main_pos(7, 0), None, "dropped row");
        assert_eq!(map.main_pos(8, 1), None, "part not in the merge");
        assert_eq!(map.l2_pos(900), None, "past the input");
    }

    #[test]
    fn re_sorting_order_applies_to_ranks() {
        let mut keep = Bitmap::zeros(4);
        for i in [0, 2, 3] {
            keep.set(i);
        }
        let map = RowMap::new(keep, Vec::new(), 0, Some(vec![2, 0, 1]));
        assert_eq!(map.l2_pos(0), Some(2));
        assert_eq!(map.l2_pos(1), None);
        assert_eq!(map.l2_pos(2), Some(0));
        assert_eq!(map.l2_pos(3), Some(1));
    }
}
