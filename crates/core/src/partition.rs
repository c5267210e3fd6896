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
//! A read of a partitioned table is an ordinary [`TableRead`] with one
//! shard per partition under one shared snapshot: the partitions fan out
//! over the bounded pool and combine in partition-index order — each
//! partition's result is bit-identical to its serial scan, so the combined
//! output is deterministic regardless of worker count.

use crate::read::TableRead;
use crate::table::UnifiedTable;
use hana_common::{
    ColumnId, HanaError, PartitionSpec, Result, RowId, Schema, TableConfig, TableId, Value,
};
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

    /// Open a read view for one statement of `txn`, one shard per
    /// partition.
    pub fn read(&self, txn: &Transaction) -> TableRead {
        self.read_at(txn.read_snapshot())
    }

    /// Open a read view under an explicit snapshot, one shard per
    /// partition in partition order.
    pub fn read_at(&self, snap: Snapshot) -> TableRead {
        TableRead::pin(&self.partitions, snap)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{ColumnPredicate, ScanStats};
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
        let read = pt.read_at(snap);
        assert_eq!(read.collect_rows().len(), 100);
        let (count, sum) = read.aggregate_numeric(1).unwrap();
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
        let (rows, stats) = pt.read_at(snap).scan_filtered(&preds, None).unwrap();
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

    /// A partitioned read is the per-partition single reads, one shard
    /// each: what it gained from being one type (range, project, the
    /// global dictionary, debug versions) answers with their union.
    #[test]
    fn partitioned_read_is_the_union_of_single_reads() {
        let (mgr, pt) = setup(3);
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for i in 0..90 {
            pt.insert(&txn, vec![Value::Int(i), Value::Int(i % 7)])
                .unwrap();
        }
        txn.commit().unwrap();
        // Stages differ per partition: main, L2, and rows left in L1.
        pt.partitions()[0].force_full_merge().unwrap();
        pt.partitions()[1].merge_l1().unwrap();
        let txn = mgr.begin(IsolationLevel::Transaction);
        pt.insert(&txn, vec![Value::Int(1000), Value::Int(3)])
            .unwrap();
        pt.delete_where(&txn, &Value::Int(4)).unwrap();
        let read = pt.read(&txn);
        let singles: Vec<TableRead> = pt.partitions().iter().map(|p| p.read(&txn)).collect();
        let union = |f: &dyn Fn(&TableRead) -> Vec<Vec<Value>>| {
            let mut rows: Vec<Vec<Value>> = singles.iter().flat_map(f).collect();
            rows.sort();
            rows
        };
        let sorted = |mut rows: Vec<Vec<Value>>| {
            rows.sort();
            rows
        };

        let (lo, hi) = (Value::Int(2), Value::Int(5));
        let range = |r: &TableRead| {
            r.range(
                1,
                std::ops::Bound::Included(&lo),
                std::ops::Bound::Excluded(&hi),
            )
            .unwrap()
        };
        assert_eq!(sorted(range(&read)), union(&range));
        assert!(!range(&read).is_empty());

        let project = |r: &TableRead| {
            let rows = r.project(&[1]).unwrap();
            rows.into_iter().map(|v| v.values).collect()
        };
        assert_eq!(sorted(project(&read)), union(&project));
        assert_eq!(project(&read).len(), 90);

        let dict: Vec<Value> = read
            .global_sorted_dict(0)
            .unwrap()
            .iter()
            .map(|(v, _)| v.clone())
            .collect();
        let mut want: Vec<Value> = singles
            .iter()
            .flat_map(|r| {
                let d = r.global_sorted_dict(0).unwrap();
                d.iter().map(|(v, _)| v.clone()).collect::<Vec<_>>()
            })
            .collect();
        want.sort();
        want.dedup();
        assert_eq!(dict, want);

        for key in [Value::Int(4), Value::Int(1000), Value::Int(50)] {
            let versions: Vec<_> = singles
                .iter()
                .flat_map(|r| r.debug_versions(0, &key))
                .collect();
            assert_eq!(read.debug_versions(0, &key), versions);
        }

        let counts = singles.iter().map(TableRead::stage_row_counts);
        let summed = counts.fold((0, 0, 0), |a, c| (a.0 + c.0, a.1 + c.1, a.2 + c.2));
        assert_eq!(read.stage_row_counts(), summed);
        assert!(summed.0 > 0 && summed.1 > 0 && summed.2 > 0, "{summed:?}");
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
