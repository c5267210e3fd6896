//! Statement-scoped read views.
//!
//! A [`TableRead`] pins everything one statement may see: the MVCC snapshot
//! and, per **shard** — the one unified table, or each partition of a
//! [`PartitionedTable`](crate::PartitionedTable), in partition order — an L1
//! segment view, the L2 structures with their row-count fences, and the main
//! chain `Arc`. Merges swap structures for *new* views; an existing view
//! keeps reading its pinned ones — the paper's "all running operations
//! either see the full L1-delta and the old end-of-delta border or the
//! truncated version … with the expanded version of the L2-delta", and
//! §4.1's "keep the old and the new versions … until all database operations
//! of open transactions … have finished".
//!
//! A single table is a one-shard read. One rule decides the fan-out
//! ([`TableRead::fan_out`]): several shards go over the pool, each serving
//! its units serially; a lone shard puts its units (16Ki-row chunks) over
//! the pool. Results come back in shard order, then unit order, so every
//! answer is independent of the worker count.
//!
//! Scans, projections, point and range lookups and the columnar aggregates
//! are folds over the one [batch scan](crate::batch); this module keeps what
//! is not a scan: opening a view, counting, and per-part visibility
//! resolution (the wholly-visible summary or a per-snapshot bitmap cached on
//! the part and advanced over its end-write log, see
//! [`PartVisibility::resolve`]).

use crate::batch;
use crate::filter::{ColumnPredicate, ScanStats};
use crate::scan::{Lookup, PartVisibility};
use crate::table::UnifiedTable;
use hana_column::Pos;
use hana_common::{HanaError, Result, RowId, Timestamp, Value};
use hana_dict::GlobalSortedDict;
use hana_merge::{effective_workers, map_indexed};
use hana_rowstore::L1Snapshot;
use hana_store::{L2Delta, MainStore};
use hana_txn::{version_visible, Snapshot, Transaction};
use std::ops::Bound;
use std::sync::atomic::Ordering::Acquire;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A consistent, merge-proof view of one table — or of every partition of a
/// partitioned table — under one snapshot.
pub struct TableRead {
    snap: Snapshot,
    /// One per table, in partition order (never empty).
    shards: Vec<Shard>,
}

/// What a [`TableRead`] pins of one unified table.
pub(crate) struct Shard {
    pub(crate) table: Arc<UnifiedTable>,
    pub(crate) l1: L1Snapshot,
    pub(crate) l2: Arc<L2Delta>,
    pub(crate) l2_fence: Pos,
    pub(crate) l2_frozen: Option<(Arc<L2Delta>, Pos)>,
    pub(crate) main: Arc<MainStore>,
    /// Visibility-bitmap cache hits observed through this view.
    cache_hits: AtomicU64,
    /// Visibility bitmaps this view had to compute from raw stamps.
    cache_misses: AtomicU64,
    /// Index of this shard within its read (the partition index, else 0);
    /// stamped on every batch it serves.
    pub(crate) source: usize,
}

/// A visible row surfaced by a scan.
#[derive(Debug, Clone, PartialEq)]
pub struct VisibleRow {
    /// Stable record id.
    pub row_id: RowId,
    /// The row payload.
    pub values: Vec<Value>,
}

impl UnifiedTable {
    /// Open a read view for one statement of `txn`.
    pub fn read(self: &Arc<Self>, txn: &Transaction) -> TableRead {
        self.read_at(txn.read_snapshot())
    }

    /// Open a read view under an explicit snapshot (time travel uses
    /// `Snapshot::at(ts)`).
    pub fn read_at(self: &Arc<Self>, snap: Snapshot) -> TableRead {
        TableRead::pin(std::slice::from_ref(self), snap)
    }
}

impl TableRead {
    /// Pin `tables` under `snap`, one shard each, in the given order.
    pub(crate) fn pin(tables: &[Arc<UnifiedTable>], snap: Snapshot) -> TableRead {
        let shards = tables
            .iter()
            .enumerate()
            .map(|(source, table)| {
                let state = table.state.read();
                Shard {
                    l1: table.l1.snapshot(),
                    l2: Arc::clone(&state.l2),
                    l2_fence: state.l2.published_len(),
                    l2_frozen: state
                        .l2_frozen
                        .as_ref()
                        .map(|f| (Arc::clone(f), f.published_len())),
                    main: Arc::clone(&state.main),
                    table: Arc::clone(table),
                    cache_hits: AtomicU64::new(0),
                    cache_misses: AtomicU64::new(0),
                    source,
                }
            })
            .collect();
        TableRead { snap, shards }
    }

    /// The fan-out rule, for every operation of the view: with several
    /// shards, the shards go over the pool (clamped like any scan, see
    /// [`Shard::workers`]) and `f` is told to serve its units serially; a
    /// lone shard runs in place and may fan its units out. Nesting both
    /// levels would oversubscribe the pool. Results in shard order.
    pub(crate) fn fan_out<T: Send>(&self, f: impl Fn(&Shard, bool) -> T + Sync) -> Vec<T> {
        match self.shards.as_slice() {
            [lone] => vec![f(lone, true)],
            shards => map_indexed(shards.len(), shards[0].workers(shards.len()), |i| {
                f(&shards[i], false)
            }),
        }
    }

    /// The snapshot this view reads under.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }

    /// The (database-wide) resource governor — the engine layer takes scan
    /// admission tokens through this.
    pub fn governor(&self) -> &Arc<crate::governor::ResourceGovernor> {
        self.shards[0].table.governor()
    }

    /// The pinned main chain of a single-table view (exposed for
    /// engine-layer operators; a partitioned view has one chain per shard).
    pub fn main(&self) -> &MainStore {
        debug_assert_eq!(self.shards.len(), 1, "main() of a partitioned view");
        &self.shards[0].main
    }

    /// `(hits, misses)` of the per-part visibility-bitmap cache as seen by
    /// this view. A *hit* reused a bitmap cached by an earlier statement at
    /// the same snapshot, advanced over the end writes since; a *miss*
    /// computed one from every raw MVCC stamp of the part. Wholly-visible
    /// parts bypass the bitmaps entirely and count as neither.
    pub fn vis_cache_stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), s| {
            (
                h + s.cache_hits.load(Ordering::Relaxed),
                m + s.cache_misses.load(Ordering::Relaxed),
            )
        })
    }

    /// Columns of the (logical) table.
    pub(crate) fn arity(&self) -> usize {
        self.shards[0].table.schema.arity()
    }

    pub(crate) fn schema_col(&self, col: usize) -> Result<()> {
        if col >= self.arity() {
            return Err(HanaError::Schema(format!(
                "column index {col} out of range for {}",
                self.shards[0].table.schema.name
            )));
        }
        Ok(())
    }

    /// Iterate every *visible* row, main first, then frozen L2, then open
    /// L2, then L1 — oldest store to newest, matching merge order — shard
    /// by shard.
    pub fn for_each_visible(&self, f: impl FnMut(VisibleRow)) {
        self.collect_rows().into_iter().for_each(f);
    }

    /// Materialize all visible rows.
    pub fn collect_rows(&self) -> Vec<VisibleRow> {
        self.collect_rows_projected(None)
    }

    /// Materialize all visible rows under a projection pushed down from the
    /// engine layer: unprojected columns stay `Null` placeholders so the
    /// caller's column indexes remain valid.
    pub fn collect_rows_projected(&self, proj: Option<&[usize]>) -> Vec<VisibleRow> {
        batch::scan_rows(self, &[], proj, false)
            .expect("projection columns are in range")
            .0
    }

    /// Late materialization: all visible rows narrowed to `cols`, in
    /// projection order. Only the requested columns are ever decoded or
    /// cloned.
    pub fn project(&self, cols: &[usize]) -> Result<Vec<VisibleRow>> {
        Ok(batch::scan_rows(self, &[], Some(cols), true)?.0)
    }

    /// Compressed-domain filtered scan: all visible rows satisfying *every*
    /// conjunct in `preds`, plus the pruning/filtering counters — the
    /// [batch scan](crate::batch) with rows materialized at its output
    /// under `proj`. The main chain never materializes a value to decide
    /// the filter; only the (small) L1 is evaluated row-wise on values.
    ///
    /// With empty `preds` this is
    /// [`collect_rows_projected`](Self::collect_rows_projected). Output order matches
    /// [`for_each_visible`](Self::for_each_visible): per shard, main in chunk
    /// order, then frozen L2, open L2, L1 — so parallel execution stays
    /// bit-identical to serial.
    pub fn scan_filtered(
        &self,
        preds: &[ColumnPredicate],
        proj: Option<&[usize]>,
    ) -> Result<(Vec<VisibleRow>, ScanStats)> {
        batch::scan_rows(self, preds, proj, false)
    }

    /// Count visible rows. Wholly-visible parts contribute their length,
    /// bitmap-resolved parts a popcount — no row is materialized.
    pub fn count(&self) -> usize {
        self.fan_out(|s, _| s.count(&self.snap)).into_iter().sum()
    }

    /// Point query: visible rows with `col = v` — the [batch scan](crate::batch)
    /// under one `Eq` conjunct, so the main and every L2 walk the inverted
    /// index of `v`'s code and the (small) L1 is tested row-wise. A NULL `v`
    /// matches nothing, in every stage. Rows come back per shard in stage
    /// order: main in chain order, frozen L2, open L2, L1. Every shard is
    /// consulted — use [`PartitionedTable::point`](crate::PartitionedTable::point)
    /// for a partition-key lookup, which touches exactly one.
    pub fn point(&self, col: usize, v: &Value) -> Result<Vec<Vec<Value>>> {
        let eq = [ColumnPredicate::Eq(col, v.clone())];
        let (rows, _) = batch::scan_rows(self, &eq, None, false)?;
        Ok(rows.into_iter().map(|r| r.values).collect())
    }

    /// Range query: visible rows with `col` within the bounds — the batch
    /// scan under one `Range` conjunct, compiled per part dictionary of the
    /// main (Fig 10) and per L2 dictionary. NULL cells never match, and a
    /// NULL bound matches nothing, in every stage. Row order as for
    /// [`point`](Self::point).
    pub fn range(
        &self,
        col: usize,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Result<Vec<Vec<Value>>> {
        let range = [ColumnPredicate::Range(col, lo.cloned(), hi.cloned())];
        let (rows, _) = batch::scan_rows(self, &range, None, false)?;
        Ok(rows.into_iter().map(|r| r.values).collect())
    }

    /// Columnar aggregation over one numeric column: `(count, sum)` of
    /// visible non-null values, folded over the [batch scan](crate::batch)
    /// — the OLAP fast path the unified table keeps even while serving
    /// OLTP. Unit partials combine in unit order, so the float sum is
    /// independent of the worker count.
    pub fn aggregate_numeric(&self, col: usize) -> Result<(u64, f64)> {
        batch::aggregate_numeric(self, col)
    }

    /// Group-by aggregation: for each distinct value of `group_col`, the
    /// `(count, sum)` over `agg_col` of visible rows, accumulated by
    /// dictionary code per scan unit and sorted by key.
    pub fn group_aggregate(
        &self,
        group_col: usize,
        agg_col: usize,
    ) -> Result<Vec<(Value, u64, f64)>> {
        batch::group_aggregate(self, group_col, agg_col)
    }

    /// The merged global sorted dictionary over all three stages (§3.1) of
    /// every shard, including values of rows not visible to this snapshot
    /// (a dictionary property, as in the paper). The first shard's open L2
    /// is the L2 side of the three-way merge; frozen and further shards'
    /// L2 values fold into the L1 side.
    pub fn global_sorted_dict(&self, col: usize) -> Result<GlobalSortedDict> {
        self.schema_col(col)?;
        // Main side: with several parts (over all shards), merge their
        // dictionary values into one sorted dictionary view first.
        let parts: Vec<_> = self.shards.iter().flat_map(|s| s.main.parts()).collect();
        let main_dict = match parts.as_slice() {
            [only] => only.dict(col).clone(),
            parts => {
                let vals = parts.iter().flat_map(|p| p.dict(col).iter()).collect();
                hana_dict::SortedDict::from_values(vals)
            }
        };
        let mut l1_values: Vec<Value> = Vec::new();
        let l2_values = |l2: &L2Delta, fence: Pos, into: &mut Vec<Value>| {
            l2.with_column(col, fence, |dict, _| {
                into.extend(dict.values().iter().cloned())
            });
        };
        for (i, s) in self.shards.iter().enumerate() {
            l1_values.extend(s.l1.iter().map(|(_, slot)| slot.values[col].clone()));
            if let Some((frozen, fence)) = &s.l2_frozen {
                l2_values(frozen, *fence, &mut l1_values);
            }
            if i > 0 {
                l2_values(&s.l2, s.l2_fence, &mut l1_values);
            }
        }
        let first = &self.shards[0];
        Ok(first.l2.with_column(col, first.l2_fence, |dict, _| {
            GlobalSortedDict::build(&main_dict, dict, &l1_values)
        }))
    }

    /// Debugging: every physical version matching `col = v` with raw MVCC
    /// stamps, its stage, and whether this view considers it visible.
    #[doc(hidden)]
    pub fn debug_versions(&self, col: usize, v: &Value) -> Vec<(RowId, u64, u64, String, bool)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let visible = |b, e| s.visible(&self.snap, b, e);
            for hit in s.main.positions_eq(col, v) {
                let part = &s.main.parts()[hit.part];
                let (b, e) = (part.begin(hit.pos), part.end(hit.pos));
                let stage = format!("main[{}]", hit.part);
                out.push((part.row_id(hit.pos), b, e, stage, visible(b, e)));
            }
            let l2s = s.l2_frozen.iter().map(|(l2, f)| (l2, *f, "l2-frozen"));
            for (l2, fence, stage) in l2s.chain([(&s.l2, s.l2_fence, "l2")]) {
                for pos in l2.positions_eq(col, v, fence) {
                    let (b, e) = (l2.begin(pos), l2.end(pos));
                    out.push((l2.row_id(pos), b, e, stage.into(), visible(b, e)));
                }
            }
            for (p, slot) in s.l1.iter() {
                if &slot.values[col] == v {
                    let (b, e) = (slot.begin(), slot.end());
                    out.push((slot.row_id, b, e, format!("l1@{p}"), visible(b, e)));
                }
            }
        }
        out
    }

    /// Rows of this view per stage `(L1, frozen+open L2, main)`, summed over
    /// shards — diagnostics for the lifecycle benches.
    pub fn stage_row_counts(&self) -> (usize, usize, usize) {
        self.shards.iter().fold((0, 0, 0), |(l1, l2, main), s| {
            let frozen = s.l2_frozen.as_ref().map_or(0, |(_, f)| *f as usize);
            (
                l1 + s.l1.len(),
                l2 + s.l2_fence as usize + frozen,
                main + s.main.total_rows(),
            )
        })
    }
}

/// Per-shard results concatenated in shard order (a lone shard's moved).
pub(crate) fn concat<T>(per_shard: Vec<Vec<T>>) -> Vec<T> {
    let mut shards = per_shard.into_iter();
    let mut out = shards.next().unwrap_or_default();
    shards.for_each(|more| out.extend(more));
    out
}

impl Shard {
    pub(crate) fn visible(&self, snap: &Snapshot, begin: Timestamp, end: Timestamp) -> bool {
        version_visible(&self.table.mgr, snap, begin, end)
    }

    /// Fan-out degree for `jobs` units of work: the configured
    /// `scan_parallelism`, clamped by the governor (never more workers than
    /// cores; down to `min_scan_parallelism` while the OLTP signal is hot).
    pub(crate) fn workers(&self, jobs: usize) -> usize {
        let requested = self.table.config.scan.scan_parallelism;
        if jobs <= 1 || requested == 1 {
            return 1;
        }
        self.table
            .governor
            .effective_parallelism(effective_workers(requested))
            .min(jobs)
    }

    /// Resolve the visibility of main part `pi` under `snap` (see
    /// [`PartVisibility::resolve`]) and count the cache outcome.
    pub(crate) fn part_visibility(&self, snap: &Snapshot, pi: usize) -> PartVisibility {
        let (vis, lookup) = PartVisibility::resolve(&self.table.mgr, snap, &self.main.parts()[pi]);
        match lookup {
            Lookup::Summary => {}
            Lookup::Hit => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            Lookup::Miss => {
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        vis
    }

    fn count(&self, snap: &Snapshot) -> usize {
        let parts = self.main.parts();
        let mut n = 0usize;
        for (pi, part) in parts.iter().enumerate() {
            n += self.part_visibility(snap, pi).visible_rows(part.len());
        }
        // Each L2's stamps are read under one lock acquisition, as the
        // batch scan reads them (visibility only consults the txn manager).
        let l2s = self.l2_frozen.iter().map(|(l2, f)| (l2, *f));
        for (l2, fence) in l2s.chain([(&self.l2, self.l2_fence)]) {
            n += l2.with_columns_stamped(&[], fence, |view| {
                let stamps = view.begins.iter().zip(view.ends);
                stamps
                    .filter(|(b, e)| self.visible(snap, b.load(Acquire), e.load(Acquire)))
                    .count()
            });
        }
        n + self
            .l1
            .iter()
            .filter(|(_, slot)| self.visible(snap, slot.begin(), slot.end()))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::{ColumnDef, DataType, Schema, TableConfig};
    use hana_merge::MergeDecision;
    use hana_txn::{IsolationLevel, TxnManager};

    fn setup() -> (Arc<TxnManager>, Arc<UnifiedTable>) {
        let mgr = TxnManager::new();
        let schema = Schema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("city", DataType::Str),
                ColumnDef::new("amount", DataType::Double),
            ],
        )
        .unwrap();
        let t = UnifiedTable::standalone(schema, TableConfig::default(), Arc::clone(&mgr));
        (mgr, t)
    }

    /// Insert `n` rows and move them all the way to the main store.
    fn main_resident(mgr: &Arc<TxnManager>, t: &Arc<UnifiedTable>, n: i64) {
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for i in 0..n {
            t.insert(
                &txn,
                vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                    Value::double(i as f64),
                ],
            )
            .unwrap();
        }
        txn.commit().unwrap();
        t.merge_l1().unwrap();
        t.merge_delta_as(MergeDecision::Classic).unwrap();
    }

    #[test]
    fn insert_then_read_through_l1() {
        let (mgr, t) = setup();
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        t.insert(
            &txn,
            vec![Value::Int(1), Value::str("Los Gatos"), Value::double(10.0)],
        )
        .unwrap();
        txn.commit().unwrap();
        let reader = mgr.begin(IsolationLevel::Transaction);
        let read = t.read(&reader);
        assert_eq!(read.count(), 1);
        let rows = read.point(1, &Value::str("Los Gatos")).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(1));
        let (c, s) = read.aggregate_numeric(2).unwrap();
        assert_eq!(c, 1);
        assert_eq!(s, 10.0);
        assert_eq!(read.stage_row_counts(), (1, 0, 0));
    }

    #[test]
    fn uncommitted_rows_invisible_to_others() {
        let (mgr, t) = setup();
        let txn = mgr.begin(IsolationLevel::Transaction);
        t.insert(&txn, vec![Value::Int(1), Value::str("x"), Value::Null])
            .unwrap();
        // Own statement sees it; others don't.
        assert_eq!(t.read(&txn).count(), 1);
        let other = mgr.begin(IsolationLevel::Transaction);
        assert_eq!(t.read(&other).count(), 0);
    }

    #[test]
    fn range_and_group_aggregate() {
        let (mgr, t) = setup();
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for (i, city) in ["Campbell", "Daily City", "Los Gatos", "Saratoga"]
            .iter()
            .enumerate()
        {
            t.insert(
                &txn,
                vec![
                    Value::Int(i as i64),
                    Value::str(*city),
                    Value::double(i as f64),
                ],
            )
            .unwrap();
        }
        t.insert(
            &txn,
            vec![Value::Int(9), Value::str("Campbell"), Value::double(5.0)],
        )
        .unwrap();
        txn.commit().unwrap();
        let reader = mgr.begin(IsolationLevel::Transaction);
        let read = t.read(&reader);
        let hits = read
            .range(
                1,
                Bound::Included(&Value::str("C")),
                Bound::Excluded(&Value::str("M")),
            )
            .unwrap();
        assert_eq!(hits.len(), 4); // Campbell ×2, Daily City, Los Gatos
        let groups = read.group_aggregate(1, 2).unwrap();
        let campbell = groups
            .iter()
            .find(|g| g.0 == Value::str("Campbell"))
            .unwrap();
        assert_eq!(campbell.1, 2);
        assert_eq!(campbell.2, 5.0);
    }

    /// Fig 10's `C%`–`L%` range in every column stage: through the L2's
    /// unsorted dictionary, one main part's sorted dictionary, and a
    /// passive + active main, where it resolves per part dictionary and the
    /// active part reuses the passive code of "Campbell".
    #[test]
    fn range_resolves_per_dictionary_in_every_stage() {
        let (mgr, t) = setup();
        let insert = |rows: &[(i64, &str)]| {
            let mut txn = mgr.begin(IsolationLevel::Transaction);
            for &(i, city) in rows {
                t.insert(&txn, vec![Value::Int(i), Value::str(city), Value::Null])
                    .unwrap();
            }
            txn.commit().unwrap();
            t.merge_l1().unwrap();
        };
        let c_to_l = || {
            let read = t.read_at(Snapshot::at(mgr.now()));
            let c = Value::str("C");
            let m = Value::str("M");
            let rows = read
                .range(1, Bound::Included(&c), Bound::Excluded(&m))
                .unwrap();
            let mut cities: Vec<Value> = rows.into_iter().map(|r| r[1].clone()).collect();
            cities.sort();
            cities
        };
        let cities = |names: &[&str]| names.iter().map(|&n| Value::str(n)).collect::<Vec<_>>();
        insert(&[
            (1, "Los Gatos"),
            (2, "Campbell"),
            (3, "Daily City"),
            (4, "Saratoga"),
        ]);
        assert_eq!(t.stage_stats().l2_rows, 4);
        let first = cities(&["Campbell", "Daily City", "Los Gatos"]);
        assert_eq!(c_to_l(), first);
        t.merge_delta_as(MergeDecision::Classic).unwrap();
        assert_eq!(c_to_l(), first);
        insert(&[(5, "Campbell"), (6, "Los Altos")]);
        t.merge_delta_as(MergeDecision::Partial).unwrap();
        assert_eq!(t.stage_stats().main_parts, 2);
        let both = cities(&[
            "Campbell",
            "Campbell",
            "Daily City",
            "Los Altos",
            "Los Gatos",
        ]);
        assert_eq!(c_to_l(), both);
    }

    /// A NULL key matches nothing, for reads and writes alike, whether the
    /// rows sit in the L1 (plain values), the L2 or the main (where NULLs
    /// never enter a dictionary).
    #[test]
    fn null_key_matches_nothing_in_any_stage() {
        let (mgr, t) = setup();
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for i in 0..2 {
            t.insert(&txn, vec![Value::Int(i), Value::Null, Value::double(1.0)])
                .unwrap();
        }
        txn.commit().unwrap();
        let city = hana_common::ColumnId(1);
        let check = |stage: &str| {
            let read = t.read_at(Snapshot::at(mgr.now()));
            assert_eq!(read.count(), 2, "{stage}");
            assert!(read.point(1, &Value::Null).unwrap().is_empty(), "{stage}");
            let null = Bound::Included(&Value::Null);
            let rows = read.range(1, null, Bound::Unbounded).unwrap();
            assert!(rows.is_empty(), "{stage}");
            let mut w = mgr.begin(IsolationLevel::Transaction);
            let err = t.delete_where(&w, city, &Value::Null).unwrap_err();
            assert!(matches!(err, HanaError::NotFound(_)), "{stage}: {err}");
            let set = [(hana_common::ColumnId(2), Value::double(2.0))];
            let err = t.update_where(&w, city, &Value::Null, &set).unwrap_err();
            assert!(matches!(err, HanaError::NotFound(_)), "{stage}: {err}");
            w.abort().unwrap();
        };
        check("L1");
        t.merge_l1().unwrap();
        check("L2");
        t.merge_delta_as(MergeDecision::Classic).unwrap();
        assert_eq!(t.stage_stats().main_rows, 2);
        check("main");
    }

    /// An `Eq` on the key over the L2 walks its code's inverted-index
    /// chain: only the rows on it are tested, not every row of the delta.
    /// An `Eq` on any other column carries no chain and tests every row.
    #[test]
    fn l2_eq_walks_the_index_chain() {
        let (mgr, t) = setup();
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for i in 0..100 {
            let city = if i % 10 == 0 { "tens" } else { "other" };
            t.insert(&txn, vec![Value::Int(i), Value::str(city), Value::Null])
                .unwrap();
        }
        txn.commit().unwrap();
        t.merge_l1().unwrap();
        let read = t.read_at(Snapshot::at(mgr.now()));
        assert_eq!(read.stage_row_counts(), (0, 100, 0));
        let key = ColumnPredicate::Eq(0, Value::Int(30));
        let (rows, stats) = read
            .scan_filtered(std::slice::from_ref(&key), None)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(stats.code_filtered_rows, 1);
        assert_eq!(stats.index_probes, 1);
        let values: Vec<Vec<Value>> = rows.into_iter().map(|r| r.values).collect();
        assert_eq!(read.point(0, &Value::Int(30)).unwrap(), values);
        // The key conjunct routes wherever it stands; the others are tested
        // on the chain's rows only.
        let tens = ColumnPredicate::Eq(1, Value::str("tens"));
        let (rows, stats) = read.scan_filtered(&[tens.clone(), key], None).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!((stats.code_filtered_rows, stats.index_probes), (1, 1));
        // The city column has no chain: its `Eq` tests all 100 rows.
        let (rows, stats) = read
            .scan_filtered(std::slice::from_ref(&tens), None)
            .unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!((stats.code_filtered_rows, stats.index_probes), (100, 0));
        let values: Vec<Vec<Value>> = rows.into_iter().map(|r| r.values).collect();
        assert_eq!(read.point(1, &Value::str("tens")).unwrap(), values);
        let below_50 = ColumnPredicate::Range(0, Bound::Unbounded, Bound::Excluded(Value::Int(50)));
        let (rows, _) = read.scan_filtered(&[below_50, tens], None).unwrap();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn global_dict_spans_stages() {
        let (mgr, t) = setup();
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for (i, c) in ["b", "a", "c"].iter().enumerate() {
            t.insert(
                &txn,
                vec![Value::Int(i as i64), Value::str(*c), Value::Null],
            )
            .unwrap();
        }
        txn.commit().unwrap();
        let reader = mgr.begin(IsolationLevel::Transaction);
        let g = t.read(&reader).global_sorted_dict(1).unwrap();
        let vals: Vec<Value> = g.iter().map(|(v, _)| v.clone()).collect();
        assert_eq!(vals, ["a", "b", "c"].map(Value::str).to_vec());
    }

    #[test]
    fn wholly_visible_main_skips_bitmaps() {
        let (mgr, t) = setup();
        main_resident(&mgr, &t, 100);
        let reader = mgr.begin(IsolationLevel::Transaction);
        let read = t.read(&reader);
        assert_eq!(read.count(), 100);
        // All rows committed, none deleted: the summary answers without
        // bitmaps, so neither hits nor misses accrue.
        assert_eq!(read.vis_cache_stats(), (0, 0));
    }

    #[test]
    fn visibility_bitmap_cached_across_statements() {
        let (mgr, t) = setup();
        main_resident(&mgr, &t, 100);
        // A deletion defeats the wholly-visible summary.
        let mut del = mgr.begin(IsolationLevel::Transaction);
        t.delete_where(&del, hana_common::ColumnId(0), &Value::Int(7))
            .unwrap();
        del.commit().unwrap();
        let reader = mgr.begin(IsolationLevel::Transaction);
        let r1 = t.read(&reader);
        assert_eq!(r1.count(), 99);
        assert_eq!(r1.vis_cache_stats(), (0, 1));
        // Second statement of the same transaction reuses the bitmap.
        let r2 = t.read(&reader);
        assert_eq!(r2.count(), 99);
        assert_eq!(r2.vis_cache_stats(), (1, 0));
        // Another writer's delete and commit between statements no longer
        // costs a rebuild: the entry advances over the one logged position
        // (still visible to this snapshot).
        let mut del = mgr.begin(IsolationLevel::Transaction);
        t.delete_where(&del, hana_common::ColumnId(0), &Value::Int(8))
            .unwrap();
        let r3 = t.read(&reader);
        assert_eq!(r3.count(), 99);
        assert_eq!(r3.vis_cache_stats(), (1, 0));
        del.commit().unwrap();
        assert_eq!(t.read(&reader).count(), 99);
        // The reader's own delete flips a bit: patched, still a hit.
        t.delete_where(&reader, hana_common::ColumnId(0), &Value::Int(9))
            .unwrap();
        let r4 = t.read(&reader);
        assert_eq!(r4.count(), 98);
        assert_eq!(r4.vis_cache_stats(), (1, 0));
        // A snapshot at a different timestamp recomputes.
        let later = mgr.begin(IsolationLevel::Transaction);
        let r5 = t.read(&later);
        assert_eq!(r5.count(), 98);
        assert_eq!(r5.vis_cache_stats(), (0, 1));
    }

    #[test]
    fn projection_narrows_rows() {
        let (mgr, t) = setup();
        main_resident(&mgr, &t, 10);
        let reader = mgr.begin(IsolationLevel::Transaction);
        let read = t.read(&reader);
        let narrow = read.project(&[2, 0]).unwrap();
        assert_eq!(narrow.len(), 10);
        assert_eq!(narrow[0].values.len(), 2);
        assert_eq!(narrow[3].values, vec![Value::double(3.0), Value::Int(3)]);
        // Full-width projected rows keep placeholders for untouched columns.
        let masked = read.collect_rows_projected(Some(&[0]));
        assert_eq!(
            masked[3].values,
            vec![Value::Int(3), Value::Null, Value::Null]
        );
        assert!(read.project(&[99]).is_err());
    }

    #[test]
    fn scan_filtered_matches_rowwise_filtering() {
        let (mgr, t) = setup();
        main_resident(&mgr, &t, 200);
        // Leave a few rows in L1 so every stage participates.
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for i in 200..210 {
            t.insert(
                &txn,
                vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                    Value::double(i as f64),
                ],
            )
            .unwrap();
        }
        txn.commit().unwrap();
        let reader = mgr.begin(IsolationLevel::Transaction);
        let read = t.read(&reader);
        let preds = vec![
            ColumnPredicate::Eq(1, Value::str("even")),
            ColumnPredicate::Range(
                0,
                Bound::Included(Value::Int(50)),
                Bound::Excluded(Value::Int(205)),
            ),
        ];
        let (rows, stats) = read.scan_filtered(&preds, None).unwrap();
        let expect: Vec<VisibleRow> = read
            .collect_rows()
            .into_iter()
            .filter(|r| preds.iter().all(|p| p.matches_value(&r.values[p.column()])))
            .collect();
        assert_eq!(rows, expect);
        assert!(!rows.is_empty());
        // The city column carries no index: its Eq runs the kernels over
        // every main row, like the Range.
        assert_eq!(stats.index_probes, 0);
        assert_eq!(stats.code_filtered_rows, 200);
        assert_eq!(stats.rowwise_rows, 10);
    }

    #[test]
    fn scan_filtered_zone_pruning_and_empty_filters() {
        let (mgr, t) = setup();
        main_resident(&mgr, &t, 200);
        let reader = mgr.begin(IsolationLevel::Transaction);
        let read = t.read(&reader);
        // Range entirely above the part's max id: part-level zone map prunes
        // everything before any kernel runs.
        let preds = vec![ColumnPredicate::Range(
            0,
            Bound::Included(Value::Int(1_000)),
            Bound::Excluded(Value::Int(2_000)),
        )];
        let (rows, stats) = read.scan_filtered(&preds, None).unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.parts_pruned, 1);
        assert_eq!(stats.zone_pruned_rows, 200);
        assert_eq!(stats.code_filtered_rows, 0);
        // In-range kernel path (no Eq): decides rows in the code domain.
        let preds = vec![ColumnPredicate::Range(
            0,
            Bound::Included(Value::Int(10)),
            Bound::Excluded(Value::Int(20)),
        )];
        let (rows, stats) = read.scan_filtered(&preds, None).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(stats.code_filtered_rows, 200);
        assert_eq!(stats.index_probes, 0);
        // IS NULL on a never-null column: empty compiled filter + no nulls
        // in the zone map prunes the part.
        let (rows, _) = read
            .scan_filtered(&[ColumnPredicate::IsNull(1)], None)
            .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn parallel_scan_matches_serial_over_main() {
        let mgr = TxnManager::new();
        let schema = Schema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("city", DataType::Str),
                ColumnDef::new("amount", DataType::Double),
            ],
        )
        .unwrap();
        let serial_t = UnifiedTable::standalone(
            schema.clone(),
            TableConfig::default().with_scan(hana_common::ScanConfig::serial()),
            Arc::clone(&mgr),
        );
        let par_t = UnifiedTable::standalone(
            schema,
            TableConfig::default()
                .with_scan(hana_common::ScanConfig::default().with_scan_parallelism(4)),
            Arc::clone(&mgr),
        );
        for t in [&serial_t, &par_t] {
            main_resident(&mgr, t, 500);
        }
        let reader = mgr.begin(IsolationLevel::Transaction);
        let rs = serial_t.read(&reader);
        let rp = par_t.read(&reader);
        let rows_s: Vec<Vec<Value>> = rs.collect_rows().into_iter().map(|r| r.values).collect();
        let rows_p: Vec<Vec<Value>> = rp.collect_rows().into_iter().map(|r| r.values).collect();
        assert_eq!(rows_s, rows_p);
        assert_eq!(
            rs.aggregate_numeric(2).unwrap(),
            rp.aggregate_numeric(2).unwrap()
        );
        assert_eq!(
            rs.group_aggregate(1, 2).unwrap(),
            rp.group_aggregate(1, 2).unwrap()
        );
    }
}
