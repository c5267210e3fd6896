//! Hash-partitioned tables with a fully sharded lifecycle.
//!
//! §4.3: "the partitioning concept can be used to separate recent data sets
//! from more stable data sets" — and the engine layer's split/combine
//! operators distribute work across partitions. [`PartitionedTable`] routes
//! rows by a hash of the partition key to N unified tables. Each partition
//! is a complete unified table — its own L1/L2/main, row locks, merge
//! policy state, zone maps and inverted indexes — so N writers on N
//! partitions share nothing on the hot path except commit sequencing
//! (which stays on the database's group-commit pipeline). Because every
//! partition carries its own `TableId` and writes note it on the
//! transaction, commit/abort visit exactly the (table, partition) pairs a
//! transaction actually wrote.
//!
//! Reads fan out through [`PartitionedRead`]: one pinned [`TableRead`] per
//! partition under one shared snapshot, executed over the bounded
//! [`map_indexed`] pool and combined in partition-index order — each
//! partition's result is bit-identical to its serial scan, so the combined
//! output is deterministic regardless of worker count.

use crate::batch::{self, BatchSource, BatchSpec, ColumnBatch};
use crate::filter::{ColumnPredicate, ScanStats};
use crate::read::{TableRead, VisibleRow};
use crate::table::UnifiedTable;
use hana_common::{
    ColumnId, HanaError, PartitionSpec, Result, RowId, Schema, TableConfig, TableId, Value,
};
use hana_merge::{effective_workers, map_indexed};
use hana_txn::{Snapshot, Transaction, TxnManager};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A table hash-partitioned over N unified tables.
pub struct PartitionedTable {
    schema: Schema,
    key_col: ColumnId,
    partitions: Vec<Arc<UnifiedTable>>,
}

fn hash_value(v: &Value) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// Derive one partition's `TableConfig` from the logical table's: the
/// delta thresholds are the *logical* budget, divided across partitions so
/// partitioning shards the delta instead of multiplying it, and the
/// [`PartitionSpec`] is stamped so the config codec persists the
/// partition's identity into log records and savepoint images.
pub fn shard_config(
    config: &TableConfig,
    group: &str,
    key_col: ColumnId,
    i: u32,
    n: u32,
) -> TableConfig {
    let mut c = config.clone();
    c.l1_max_rows = (config.l1_max_rows / n as usize).max(1);
    c.l2_max_rows = (config.l2_max_rows / n as usize).max(1);
    c.partition = Some(PartitionSpec {
        group: group.to_string(),
        hash_column: key_col.idx() as u32,
        index: i,
        of: n,
    });
    c
}

/// The catalog name of partition `i` of logical table `group`.
pub fn partition_name(group: &str, i: u32) -> String {
    format!("{group}::p{i}")
}

impl PartitionedTable {
    /// Create `n` standalone partitions keyed by `key_col` (demo/test
    /// constructor — catalog-registered partitioned tables are created via
    /// `Database::create_partitioned_table`).
    pub fn new(
        schema: Schema,
        key_col: ColumnId,
        n: usize,
        config: TableConfig,
        mgr: Arc<TxnManager>,
    ) -> Result<Self> {
        if n == 0 {
            return Err(HanaError::Schema("at least one partition required".into()));
        }
        // Standalone partitions share one private governor so the fan-out
        // clamp sees the whole logical table (database-registered shards
        // share the database-wide governor instead).
        let governor =
            crate::governor::ResourceGovernor::new(hana_common::GovernorConfig::default());
        let partitions = (0..n)
            .map(|i| {
                let mut shard_schema = schema.clone();
                shard_schema.name = partition_name(&schema.name, i as u32);
                UnifiedTable::create(
                    TableId(i as u32),
                    shard_schema,
                    shard_config(&config, &schema.name, key_col, i as u32, n as u32),
                    Arc::clone(&mgr),
                    None,
                    Arc::new(parking_lot::RwLock::new(())),
                    Arc::clone(&governor),
                )
            })
            .collect();
        Ok(PartitionedTable {
            schema,
            key_col,
            partitions,
        })
    }

    /// Assemble a partitioned table from already-built partitions (the
    /// database's create and recovery paths; `partitions` must be in
    /// partition-index order).
    pub fn from_parts(
        schema: Schema,
        key_col: ColumnId,
        partitions: Vec<Arc<UnifiedTable>>,
    ) -> Result<Self> {
        if partitions.is_empty() {
            return Err(HanaError::Schema("at least one partition required".into()));
        }
        Ok(PartitionedTable {
            schema,
            key_col,
            partitions,
        })
    }

    /// The logical schema (carries the logical table name).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The hash/routing column.
    pub fn key_col(&self) -> ColumnId {
        self.key_col
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The partition index a key routes to.
    pub fn route_index(&self, key: &Value) -> usize {
        (hash_value(key) % self.partitions.len() as u64) as usize
    }

    /// The partition a key routes to.
    pub fn route(&self, key: &Value) -> &Arc<UnifiedTable> {
        &self.partitions[self.route_index(key)]
    }

    /// All partitions.
    pub fn partitions(&self) -> &[Arc<UnifiedTable>] {
        &self.partitions
    }

    /// Insert, routing by the partition key.
    pub fn insert(&self, txn: &Transaction, row: Vec<Value>) -> Result<RowId> {
        self.schema.check_row(&row)?;
        self.route(&row[self.key_col.idx()].clone())
            .insert(txn, row)
    }

    /// Point query on the partition key: touches exactly one partition.
    pub fn point(&self, snap: Snapshot, key: &Value) -> Result<Vec<Vec<Value>>> {
        self.route(key).read_at(snap).point(self.key_col.idx(), key)
    }

    /// Update by partition key.
    pub fn update_where(
        &self,
        txn: &Transaction,
        key: &Value,
        updates: &[(ColumnId, Value)],
    ) -> Result<RowId> {
        self.route(key)
            .update_where(txn, self.key_col, key, updates)
    }

    /// Delete by partition key.
    pub fn delete_where(&self, txn: &Transaction, key: &Value) -> Result<RowId> {
        self.route(key).delete_where(txn, self.key_col, key)
    }

    /// Open a partition-fanned read view for one statement of `txn`.
    pub fn read(&self, txn: &Transaction) -> PartitionedRead {
        self.read_at(txn.read_snapshot())
    }

    /// Open a partition-fanned read view under an explicit snapshot. Shard
    /// views are marked serial so only the partition level fans out — the
    /// pool is sized once here instead of once per shard (nested fan-out
    /// oversubscribed small hosts badly; see `ResourceGovernor`).
    pub fn read_at(&self, snap: Snapshot) -> PartitionedRead {
        PartitionedRead {
            reads: self
                .partitions
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let mut r = p.read_at(snap);
                    r.set_shard(i);
                    r
                })
                .collect(),
            scan_parallelism: self.partitions[0].config().scan.scan_parallelism,
            governor: Arc::clone(self.partitions[0].governor()),
        }
    }

    /// Parallel full scan across partitions (delegates to the read view's
    /// compressed-domain machinery: per-partition visibility summaries and
    /// cached bitmaps, combined in partition order).
    pub fn parallel_scan(&self, snap: Snapshot) -> Vec<VisibleRow> {
        self.read_at(snap).collect_rows()
    }

    /// Parallel filtered scan: per-partition `scan_filtered` with zone-map
    /// pruning, per-partition `ScanStats` summed into one block.
    pub fn parallel_scan_filtered(
        &self,
        snap: Snapshot,
        preds: &[ColumnPredicate],
        proj: Option<&[usize]>,
    ) -> Result<(Vec<VisibleRow>, ScanStats)> {
        self.read_at(snap).scan_filtered(preds, proj)
    }

    /// Parallel numeric aggregate `(count, sum)` across partitions, through
    /// each partition's columnar code-domain aggregation path.
    pub fn parallel_aggregate(&self, snap: Snapshot, col: usize) -> Result<(u64, f64)> {
        self.read_at(snap).aggregate_numeric(col)
    }

    /// Run the lifecycle policy on every partition.
    pub fn maybe_merge_all(&self) -> Result<bool> {
        let mut did = false;
        for p in &self.partitions {
            did |= p.maybe_merge_once()?;
        }
        Ok(did)
    }
}

/// A consistent read view over every partition of a [`PartitionedTable`]
/// under one shared snapshot: one pinned [`TableRead`] per partition.
///
/// Every operation fans out over [`map_indexed`] and combines results in
/// partition-index order, each partition in its canonical scan order — the
/// combined result is deterministic and bit-identical to executing the
/// partitions serially.
pub struct PartitionedRead {
    reads: Vec<TableRead>,
    scan_parallelism: usize,
    governor: Arc<crate::governor::ResourceGovernor>,
}

impl PartitionedRead {
    /// The per-partition read views (partition-index order).
    pub fn partition_reads(&self) -> &[TableRead] {
        &self.reads
    }

    /// The governor shared by every partition of this view.
    pub fn governor(&self) -> &Arc<crate::governor::ResourceGovernor> {
        &self.governor
    }

    /// Fan-out degree for `n` partition jobs, honoring the table's scan
    /// parallelism knob (`1` forces serial, `0` auto-sizes from the CPUs)
    /// and the governor's clamp: never more shard scans than cores, and
    /// down to `min_scan_parallelism` while OLTP is hot.
    fn workers(&self) -> usize {
        let n = self.reads.len();
        if n <= 1 || self.scan_parallelism == 1 {
            return 1;
        }
        self.governor
            .effective_parallelism(effective_workers(self.scan_parallelism))
            .min(n)
    }

    fn fan_out<T: Send>(&self, f: impl Fn(&TableRead) -> T + Send + Sync) -> Vec<T> {
        map_indexed(self.reads.len(), self.workers(), |i| f(&self.reads[i]))
    }

    /// Partition-parallel [batch scan](crate::batch): every shard serves
    /// its units serially (zone maps, code-domain kernels and visibility
    /// bitmaps per shard), shards fan out over the pool, and the fold
    /// results come back in partition-index order, each shard in its unit
    /// order; per-partition [`ScanStats`] are summed so pruning and cache
    /// observability survive sharding. Batches carry their partition index
    /// as `source`.
    pub fn scan_batches<T: Send>(
        &self,
        spec: &BatchSpec<'_>,
        fold: impl Fn(ColumnBatch<'_>) -> T + Sync,
    ) -> Result<(Vec<T>, ScanStats)> {
        let mut out = Vec::new();
        let mut stats = ScanStats::default();
        for res in self.fan_out(|r| r.scan_batches(spec, &fold)) {
            let (units, st) = res?;
            out.extend(units);
            stats.merge(&st);
        }
        Ok((out, stats))
    }

    /// All visible rows, partitions combined in partition-index order.
    pub fn collect_rows(&self) -> Vec<VisibleRow> {
        self.collect_rows_projected(None)
    }

    /// [`collect_rows`](Self::collect_rows) with a projection pushed into
    /// materialization.
    pub fn collect_rows_projected(&self, proj: Option<&[usize]>) -> Vec<VisibleRow> {
        batch::scan_rows(self, &[], proj, false)
            .expect("projection columns are in range")
            .0
    }

    /// Partition-parallel filtered scan (see [`TableRead::scan_filtered`]).
    pub fn scan_filtered(
        &self,
        preds: &[ColumnPredicate],
        proj: Option<&[usize]>,
    ) -> Result<(Vec<VisibleRow>, ScanStats)> {
        batch::scan_rows(self, preds, proj, false)
    }

    /// Count visible rows across all partitions.
    pub fn count(&self) -> usize {
        self.fan_out(|r| r.count()).into_iter().sum()
    }

    /// Point query: routes through each partition's dictionaries and
    /// inverted indexes (all partitions are consulted — use
    /// [`PartitionedTable::point`] for key-column lookups, which touch
    /// exactly one).
    pub fn point(&self, col: usize, v: &Value) -> Result<Vec<Vec<Value>>> {
        let per = self.fan_out(|r| r.point(col, v));
        let mut out = Vec::new();
        for res in per {
            out.extend(res?);
        }
        Ok(out)
    }

    /// Columnar `(count, sum)` aggregate over one numeric column. Partials
    /// combine in partition-index order, so the float sum is independent of
    /// the worker count.
    pub fn aggregate_numeric(&self, col: usize) -> Result<(u64, f64)> {
        batch::aggregate_numeric(self, col)
    }

    /// Group-by aggregation across all partitions, output sorted by key
    /// (the same contract as the single-table path).
    pub fn group_aggregate(
        &self,
        group_col: usize,
        agg_col: usize,
    ) -> Result<Vec<(Value, u64, f64)>> {
        batch::group_aggregate(self, group_col, agg_col)
    }

    /// `(hits, misses)` of the visibility-bitmap caches summed over every
    /// partition's read view.
    pub fn vis_cache_stats(&self) -> (u64, u64) {
        let (mut h, mut m) = (0u64, 0u64);
        for r in &self.reads {
            let (rh, rm) = r.vis_cache_stats();
            h += rh;
            m += rm;
        }
        (h, m)
    }

    /// Rows per stage `(L1, L2, main)` summed over partitions.
    pub fn stage_row_counts(&self) -> (usize, usize, usize) {
        let (mut a, mut b, mut c) = (0, 0, 0);
        for r in &self.reads {
            let (x, y, z) = r.stage_row_counts();
            a += x;
            b += y;
            c += z;
        }
        (a, b, c)
    }
}

impl BatchSource for PartitionedRead {
    fn arity(&self) -> usize {
        self.reads[0].arity()
    }

    fn scan<T: Send>(
        &self,
        spec: &BatchSpec<'_>,
        fold: impl Fn(ColumnBatch<'_>) -> T + Sync,
    ) -> Result<(Vec<T>, ScanStats)> {
        self.scan_batches(spec, fold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::{ColumnDef, DataType};
    use hana_txn::IsolationLevel;

    fn setup(n: usize) -> (Arc<TxnManager>, PartitionedTable) {
        let mgr = TxnManager::new();
        let schema = Schema::new(
            "orders",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("amount", DataType::Int),
            ],
        )
        .unwrap();
        let pt = PartitionedTable::new(
            schema,
            ColumnId(0),
            n,
            TableConfig::small(),
            Arc::clone(&mgr),
        )
        .unwrap();
        (mgr, pt)
    }

    #[test]
    fn routing_is_stable_and_covers_partitions() {
        let (_mgr, pt) = setup(4);
        assert_eq!(pt.partition_count(), 4);
        let a = pt.route(&Value::Int(42)) as *const _;
        let b = pt.route(&Value::Int(42)) as *const _;
        assert_eq!(a, b);
        // Many keys hit more than one partition.
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            seen.insert(Arc::as_ptr(pt.route(&Value::Int(i))));
        }
        assert!(seen.len() > 1);
    }

    #[test]
    fn shards_carry_partition_specs_and_divided_budgets() {
        let (_mgr, pt) = setup(4);
        for (i, p) in pt.partitions().iter().enumerate() {
            let spec = p.config().partition.clone().expect("spec stamped");
            assert_eq!(spec.group, "orders");
            assert_eq!(spec.index, i as u32);
            assert_eq!(spec.of, 4);
            assert_eq!(spec.hash_column, 0);
            assert_eq!(p.config().l1_max_rows, 4); // 16 / 4
            assert_eq!(p.schema().name, format!("orders::p{i}"));
        }
    }

    #[test]
    fn insert_point_update_delete_through_partitions() {
        let (mgr, pt) = setup(3);
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for i in 0..30 {
            pt.insert(&txn, vec![Value::Int(i), Value::Int(i * 2)])
                .unwrap();
        }
        txn.commit().unwrap();
        let snap = hana_txn::Snapshot::at(mgr.now());
        for i in [0i64, 13, 29] {
            let rows = pt.point(snap, &Value::Int(i)).unwrap();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0][1], Value::Int(i * 2));
        }
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        pt.update_where(&txn, &Value::Int(5), &[(ColumnId(1), Value::Int(0))])
            .unwrap();
        pt.delete_where(&txn, &Value::Int(6)).unwrap();
        txn.commit().unwrap();
        let snap = hana_txn::Snapshot::at(mgr.now());
        assert_eq!(pt.point(snap, &Value::Int(5)).unwrap()[0][1], Value::Int(0));
        assert!(pt.point(snap, &Value::Int(6)).unwrap().is_empty());
    }

    #[test]
    fn parallel_scan_and_aggregate_combine_partitions() {
        let (mgr, pt) = setup(4);
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for i in 0..100 {
            pt.insert(&txn, vec![Value::Int(i), Value::Int(1)]).unwrap();
        }
        txn.commit().unwrap();
        // Push some partitions through merges to mix stages.
        pt.maybe_merge_all().unwrap();
        let snap = hana_txn::Snapshot::at(mgr.now());
        let rows = pt.parallel_scan(snap);
        assert_eq!(rows.len(), 100);
        let (count, sum) = pt.parallel_aggregate(snap, 1).unwrap();
        assert_eq!(count, 100);
        assert_eq!(sum, 100.0);
    }

    #[test]
    fn filtered_scan_merges_stats_and_matches_per_partition_results() {
        let (mgr, pt) = setup(4);
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for i in 0..200 {
            pt.insert(&txn, vec![Value::Int(i), Value::Int(i % 10)])
                .unwrap();
        }
        txn.commit().unwrap();
        // Settle everything into the main so zone maps exist.
        for p in pt.partitions() {
            p.force_full_merge().unwrap();
        }
        let snap = hana_txn::Snapshot::at(mgr.now());
        let preds = [ColumnPredicate::Range(
            0,
            std::ops::Bound::Included(Value::Int(20)),
            std::ops::Bound::Included(Value::Int(39)),
        )];
        let (rows, stats) = pt.parallel_scan_filtered(snap, &preds, None).unwrap();
        assert_eq!(rows.len(), 20);
        // The merged stats must equal the sum of per-partition runs.
        let mut expect = ScanStats::default();
        let mut expect_rows = 0;
        for p in pt.partitions() {
            let (r, st) = p.read_at(snap).scan_filtered(&preds, None).unwrap();
            expect_rows += r.len();
            expect.merge(&st);
        }
        assert_eq!(rows.len(), expect_rows);
        assert_eq!(stats.code_filtered_rows, expect.code_filtered_rows);
        assert_eq!(stats.parts_pruned, expect.parts_pruned);
        // Aggregates and group-bys agree with a full scan.
        let read = pt.read_at(snap);
        assert_eq!(read.count(), 200);
        let (c, s) = read.aggregate_numeric(1).unwrap();
        assert_eq!(c, 200);
        assert_eq!(s, (0..200).map(|i| (i % 10) as f64).sum::<f64>());
        let groups = read.group_aggregate(1, 0).unwrap();
        assert_eq!(groups.len(), 10);
        assert!(groups.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn zero_partitions_rejected() {
        let mgr = TxnManager::new();
        let schema = Schema::new("t", vec![ColumnDef::new("x", DataType::Int).unique()]).unwrap();
        assert!(
            PartitionedTable::new(schema, ColumnId(0), 0, TableConfig::default(), mgr).is_err()
        );
        assert!(PartitionedTable::from_parts(
            Schema::new("t", vec![ColumnDef::new("x", DataType::Int)]).unwrap(),
            ColumnId(0),
            vec![]
        )
        .is_err());
    }
}
