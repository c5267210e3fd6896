//! The calc-graph executor.
//!
//! Evaluates a [`CalcGraph`] bottom-up with per-node memoization (so shared
//! subexpressions run once — Fig 3's multi-consumer nodes), reading tables
//! through [`TableRead`] views under one snapshot. Scans with fused
//! predicates push *every* supported conjunct down as a
//! [`ColumnPredicate`]: the storage layer compiles them into dictionary
//! codes and evaluates them on the compressed vectors (zone-map pruning,
//! encoding-aware kernels, inverted-index routing), while genuinely
//! row-wise shapes (`Ne`/`Or`/`Not`) stay behind as a residue.
//!
//! An `Aggregate` over a scan-rooted pipeline never sees rows: it is folded
//! over the storage layer's column batches (`batch.rs`). Rows are
//! materialized where a node needs them — at the root, and at the input of
//! row-only operators (`Custom`, `Conv`, `SplitCombine`, `Union`, a join
//! whose consumer reads rows); the row-at-a-time `aggregate`/`hash_join`
//! below serve inputs that are not scan-rooted and are the reference the
//! batch folds are tested against. `SplitCombine` nodes run their
//! partitions over the scan pool and re-aggregate.
//!
//! [`TableRead`]: hana_core::TableRead

use crate::expr::{AggFunc, AggState, Predicate};
use crate::graph::{CalcGraph, CalcNode, NodeId, PipeOp, ScanSource};
use hana_common::{HanaError, Result, Value};
use hana_core::{effective_workers, map_indexed, ColumnPredicate, ScanStats, TableRead};
use hana_txn::Snapshot;
use rustc_hash::FxHashMap;
use std::hash::{Hash, Hasher};
use std::ops::Bound;

/// A materialized operator result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultSet {
    /// Output column names (empty when unnamed).
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Execution statistics (exposed for tests and the Fig-3 bench).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Nodes evaluated (≤ graph size thanks to memoization).
    pub nodes_evaluated: usize,
    /// Scans answered through index/dictionary resolution instead of a full
    /// scan.
    pub indexed_scans: usize,
    /// Full table scans.
    pub full_scans: usize,
    /// Snapshot-visibility bitmaps reused from a main part's cache.
    pub bitmap_cache_hits: u64,
    /// Snapshot-visibility bitmaps computed (and cached) during scans.
    pub bitmap_cache_misses: u64,
    /// Whole main parts skipped by part-level zone maps (or compiled
    /// filters the dictionaries proved empty).
    pub parts_pruned: usize,
    /// 16Ki-row scan chunks skipped by chunk-level zone maps.
    pub chunks_pruned: usize,
    /// Main rows never touched because their part or chunk was pruned.
    pub zone_pruned_rows: u64,
    /// Rows whose pushed-down predicate was decided purely on dictionary
    /// codes — no value was materialized to filter them.
    pub code_filtered_rows: u64,
    /// Rows evaluated row-wise on materialized values: L1-delta rows inside
    /// the scan plus rows tested by the engine-level residue predicate.
    pub residue_rows: u64,
    /// Time (ns) this statement spent waiting for governor scan admission
    /// (token-bucket queueing under concurrent OLAP load).
    pub governor_wait_ns: u64,
    /// Largest worker fan-out a storage scan actually used after the
    /// governor's clamp (0 when no chunked scan ran).
    pub effective_parallelism: usize,
}

/// Executes calc graphs under one snapshot.
pub struct Executor {
    pub(crate) snapshot: Snapshot,
    pub(crate) stats: ExecStats,
}

impl Executor {
    /// An executor reading under `snapshot`.
    pub fn new(snapshot: Snapshot) -> Self {
        Executor {
            snapshot,
            stats: ExecStats::default(),
        }
    }

    /// Statistics of the last [`run`](Self::run).
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Execute the graph and return the root's result.
    pub fn run(&mut self, g: &CalcGraph) -> Result<ResultSet> {
        self.stats = ExecStats::default();
        let root = g
            .root()
            .ok_or_else(|| HanaError::Query("calc graph has no root".into()))?;
        // Consumer counts over reachable nodes: a sole-consumer input may be
        // moved out of the memo instead of cloned (the root counts as
        // having one extra consumer — the caller).
        let mut reachable = vec![false; g.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut reachable[id.0], true) {
                continue;
            }
            stack.extend(g.inputs(id));
        }
        let mut consumers = vec![0usize; g.len()];
        for (i, _) in reachable.iter().enumerate().filter(|(_, &r)| r) {
            for input in g.inputs(NodeId(i)) {
                consumers[input.0] += 1;
            }
        }
        consumers[root.0] += 1;
        let mut memo: FxHashMap<NodeId, ResultSet> = FxHashMap::default();
        self.eval(g, root, &consumers, &mut memo)?;
        Ok(memo.remove(&root).expect("root evaluated"))
    }

    fn eval(
        &mut self,
        g: &CalcGraph,
        id: NodeId,
        consumers: &[usize],
        memo: &mut FxHashMap<NodeId, ResultSet>,
    ) -> Result<()> {
        if memo.contains_key(&id) {
            return Ok(());
        }
        // Batch fold BEFORE input evaluation: an aggregate over a
        // scan-rooted pipeline must not materialize the scan at all.
        if let CalcNode::Aggregate {
            input,
            group_by,
            aggs,
        } = g.node(id)
        {
            if let Some(pipe) = crate::batch::recognize(g, *input, consumers, memo) {
                for side in pipe.row_inputs() {
                    self.eval(g, side, consumers, memo)?;
                }
                let rs = self.fold_aggregate(&pipe, group_by, aggs, memo)?;
                self.stats.nodes_evaluated += pipe.nodes + 1;
                memo.insert(id, rs);
                return Ok(());
            }
        }
        // Evaluate inputs first (DAG, so recursion terminates).
        for input in g.inputs(id) {
            self.eval(g, input, consumers, memo)?;
        }
        self.stats.nodes_evaluated += 1;
        let result = match g.node(id) {
            CalcNode::TableSource {
                table,
                fused_filter,
                projection,
            } => self.scan(table, fused_filter, projection.as_deref())?,
            CalcNode::Filter { input, pred } => {
                if consumers[input.0] == 1 {
                    // Sole consumer: take the memoized input and filter in
                    // place — surviving rows move, nothing is cloned.
                    let mut rs = memo.remove(input).expect("input evaluated");
                    rs.rows.retain(|r| pred.eval(r));
                    rs
                } else {
                    let input_rs = &memo[input];
                    ResultSet {
                        columns: input_rs.columns.clone(),
                        rows: input_rs
                            .rows
                            .iter()
                            .filter(|r| pred.eval(r))
                            .cloned()
                            .collect(),
                    }
                }
            }
            CalcNode::Project { input, exprs } => {
                let input_rs = &memo[input];
                let mut rows = Vec::with_capacity(input_rs.rows.len());
                for r in &input_rs.rows {
                    let mut out = Vec::with_capacity(exprs.len());
                    for (_, e) in exprs {
                        out.push(e.eval(r)?);
                    }
                    rows.push(out);
                }
                ResultSet {
                    columns: exprs.iter().map(|(n, _)| n.clone()).collect(),
                    rows,
                }
            }
            CalcNode::Aggregate {
                input,
                group_by,
                aggs,
            } => aggregate(&memo[input], group_by, aggs),
            CalcNode::Join {
                left,
                right,
                left_col,
                right_col,
            } => hash_join(&memo[left], &memo[right], *left_col, *right_col),
            CalcNode::Union { inputs } => {
                let mut rows = Vec::new();
                let mut columns = Vec::new();
                for (k, i) in inputs.iter().enumerate() {
                    let rs = &memo[i];
                    if k == 0 {
                        columns = rs.columns.clone();
                    }
                    rows.extend(rs.rows.iter().cloned());
                }
                ResultSet { columns, rows }
            }
            CalcNode::SplitCombine {
                input,
                ways,
                split_col,
                body,
            } => split_combine(&memo[input], *ways, *split_col, body)?,
            CalcNode::Conv {
                input,
                amount_col,
                currency_col,
                rates,
            } => {
                let input_rs = &memo[input];
                let mut rows = Vec::with_capacity(input_rs.rows.len());
                for r in &input_rs.rows {
                    let mut row = r.clone();
                    let rate = row[*currency_col]
                        .as_str()
                        .and_then(|c| rates.get(c))
                        .copied();
                    row[*amount_col] = match (row[*amount_col].as_numeric(), rate) {
                        (Some(x), Some(rate)) => Value::double(x * rate),
                        _ => Value::Null,
                    };
                    rows.push(row);
                }
                ResultSet {
                    columns: input_rs.columns.clone(),
                    rows,
                }
            }
            CalcNode::Custom { input, f, .. } => {
                let input_rs = &memo[input];
                ResultSet {
                    columns: input_rs.columns.clone(),
                    rows: f(input_rs.rows.clone())?,
                }
            }
        };
        memo.insert(id, result);
        Ok(())
    }

    /// Scan a table, pushing every supported fused conjunct down into the
    /// storage scan (compiled to dictionary codes, pruned by zone maps) and
    /// applying the row-wise residue to the survivors. The pushed-down
    /// projection reaches the storage layer: only projected columns are
    /// decoded, the rest come back as `Null` placeholders.
    fn scan(
        &mut self,
        table: &ScanSource,
        fused: &Predicate,
        projection: Option<&[usize]>,
    ) -> Result<ResultSet> {
        let read = table.read_at(self.snapshot);
        // Scan admission: analytical statements take a token for the
        // duration of the storage scan (point/commit paths never do). The
        // token is held until this node finishes materializing.
        let (_permit, wait_ns) = read.governor().admit_scan()?;
        self.stats.governor_wait_ns += wait_ns;
        let columns = table
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let (pushed, residue) = split_pushdown(fused);
        let rows = if pushed.is_empty() {
            self.stats.full_scans += 1;
            read.collect_rows_projected(projection)
        } else {
            self.stats.indexed_scans += 1;
            let (rows, st) = read.scan_filtered(&pushed, projection)?;
            self.absorb_scan_stats(&st);
            rows
        };
        let mut rows: Vec<Vec<Value>> = rows.into_iter().map(|r| r.values).collect();
        if residue != Predicate::True {
            self.stats.residue_rows += rows.len() as u64;
            rows.retain(|r| residue.eval(r));
        }
        self.absorb_cache_stats(&read);
        Ok(ResultSet { columns, rows })
    }

    /// Fold one read view's visibility-bitmap cache counters into the
    /// statement statistics.
    pub(crate) fn absorb_cache_stats(&mut self, read: &TableRead) {
        let (hits, misses) = read.vis_cache_stats();
        self.stats.bitmap_cache_hits += hits;
        self.stats.bitmap_cache_misses += misses;
    }

    /// Fold one filtered scan's pruning/kernel counters into the statement
    /// statistics.
    pub(crate) fn absorb_scan_stats(&mut self, st: &ScanStats) {
        self.stats.parts_pruned += st.parts_pruned;
        self.stats.chunks_pruned += st.chunks_pruned;
        self.stats.zone_pruned_rows += st.zone_pruned_rows;
        self.stats.code_filtered_rows += st.code_filtered_rows;
        self.stats.residue_rows += st.rowwise_rows;
        self.stats.governor_wait_ns += st.governor_wait_ns;
        self.stats.effective_parallelism = self
            .stats
            .effective_parallelism
            .max(st.effective_parallelism);
    }
}

/// Split a fused predicate into the conjuncts the storage layer can
/// evaluate in the code domain plus the row-wise residue. **Every**
/// supported conjunct of an `And` is pushed down — `Eq`, the comparisons,
/// `Between`, `InSet` and `IsNull`; only genuinely row-wise shapes (`Ne`,
/// `Or`, `Not`) remain behind. Comparisons against a NULL literal stay in
/// the residue so the exact `Predicate::eval` semantics are preserved bit
/// for bit.
pub(crate) fn split_pushdown(p: &Predicate) -> (Vec<ColumnPredicate>, Predicate) {
    fn collect(p: &Predicate, pushed: &mut Vec<ColumnPredicate>, residue: &mut Vec<Predicate>) {
        match (p, column_predicate(p)) {
            (Predicate::True, _) => {}
            (Predicate::And(ps), _) => ps.iter().for_each(|q| collect(q, pushed, residue)),
            (_, Some(cp)) => pushed.push(cp),
            (other, None) => residue.push(other.clone()),
        }
    }
    let mut pushed = Vec::new();
    let mut residue = Vec::new();
    collect(p, &mut pushed, &mut residue);
    let residue = match residue.len() {
        0 => Predicate::True,
        1 => residue.pop().unwrap(),
        _ => Predicate::And(residue),
    };
    (pushed, residue)
}

/// The code-domain form of a leaf comparison, when one reproduces
/// `Predicate::eval` exactly (no NULL literal involved).
pub(crate) fn column_predicate(p: &Predicate) -> Option<ColumnPredicate> {
    let range = |c: &usize, lo: Bound<&Value>, hi: Bound<&Value>| {
        Some(ColumnPredicate::Range(*c, lo.cloned(), hi.cloned()))
    };
    match p {
        Predicate::Eq(c, v) if !v.is_null() => Some(ColumnPredicate::Eq(*c, v.clone())),
        Predicate::Between(c, lo, hi) if !lo.is_null() && !hi.is_null() => {
            range(c, Bound::Included(lo), Bound::Excluded(hi))
        }
        Predicate::Lt(c, v) if !v.is_null() => range(c, Bound::Unbounded, Bound::Excluded(v)),
        Predicate::Le(c, v) if !v.is_null() => range(c, Bound::Unbounded, Bound::Included(v)),
        Predicate::Gt(c, v) if !v.is_null() => range(c, Bound::Excluded(v), Bound::Unbounded),
        Predicate::Ge(c, v) if !v.is_null() => range(c, Bound::Included(v), Bound::Unbounded),
        Predicate::InSet(c, vs) => Some(ColumnPredicate::In(*c, vs.clone())),
        Predicate::IsNull(c) => Some(ColumnPredicate::IsNull(*c)),
        _ => None,
    }
}

/// Group key → one running state per aggregate.
pub(crate) type GroupMap = FxHashMap<Vec<Value>, Vec<AggState>>;

/// The groups of one partition or scan unit, ready to merge.
pub(crate) type Groups = Vec<(Vec<Value>, Vec<AggState>)>;

/// Merge partial groups into `into` (the combine step of split/combine and
/// of the batch folds).
pub(crate) fn merge_groups(
    into: &mut GroupMap,
    from: impl IntoIterator<Item = (Vec<Value>, Vec<AggState>)>,
) {
    for (key, states) in from {
        match into.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                for (a, b) in e.get_mut().iter_mut().zip(&states) {
                    a.merge(b);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(states);
            }
        }
    }
}

/// Finish every group into an output row `key ++ aggregates`, sorted. A
/// global aggregate over zero rows still yields one row of empties.
pub(crate) fn finish_groups(
    mut groups: GroupMap,
    group_by: &[usize],
    aggs: &[(AggFunc, usize)],
) -> ResultSet {
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(
            vec![],
            aggs.iter().map(|(f, _)| AggState::new(*f)).collect(),
        );
    }
    let mut rows: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(mut key, states)| {
            key.extend(states.iter().map(AggState::finish));
            key
        })
        .collect();
    rows.sort();
    let mut columns: Vec<String> = group_by.iter().map(|c| format!("g{c}")).collect();
    columns.extend(
        aggs.iter()
            .map(|(f, c)| format!("{f:?}({c})").to_lowercase()),
    );
    ResultSet { columns, rows }
}

/// Fold rows into groups (the row-at-a-time reference).
fn group_rows(rows: &[Vec<Value>], group_by: &[usize], aggs: &[(AggFunc, usize)]) -> GroupMap {
    let mut groups = GroupMap::default();
    for row in rows {
        let key: Vec<Value> = group_by.iter().map(|&c| row[c].clone()).collect();
        let states = groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|(f, _)| AggState::new(*f)).collect());
        for (s, (_, c)) in states.iter_mut().zip(aggs) {
            s.update(&row[*c]);
        }
    }
    groups
}

fn aggregate(input: &ResultSet, group_by: &[usize], aggs: &[(AggFunc, usize)]) -> ResultSet {
    finish_groups(group_rows(&input.rows, group_by, aggs), group_by, aggs)
}

fn hash_join(left: &ResultSet, right: &ResultSet, lc: usize, rc: usize) -> ResultSet {
    let mut build: FxHashMap<&Value, Vec<&Vec<Value>>> = FxHashMap::default();
    for row in &left.rows {
        if !row[lc].is_null() {
            build.entry(&row[lc]).or_default().push(row);
        }
    }
    let mut rows = Vec::new();
    for rrow in &right.rows {
        if let Some(matches) = build.get(&rrow[rc]) {
            for lrow in matches {
                let mut out = (*lrow).clone();
                out.extend(rrow.iter().cloned());
                rows.push(out);
            }
        }
    }
    let mut columns = left.columns.clone();
    columns.extend(right.columns.iter().cloned());
    ResultSet { columns, rows }
}

fn split_combine(
    input: &ResultSet,
    ways: usize,
    split_col: usize,
    body: &[PipeOp],
) -> Result<ResultSet> {
    let ways = ways.max(1);
    // Split: hash-partition rows.
    let mut partitions: Vec<Vec<&Vec<Value>>> = vec![Vec::new(); ways];
    for row in &input.rows {
        let mut h = rustc_hash::FxHasher::default();
        row[split_col].hash(&mut h);
        partitions[(h.finish() % ways as u64) as usize].push(row);
    }
    // Run the body per partition on the scan pool (at most one worker per
    // partition and per core, inline on one), results in partition order.
    let results = map_indexed(ways, effective_workers(0), |i| {
        run_body(partitions[i].iter().map(|&row| row.clone()).collect(), body)
    });
    // Combine.
    let mut plain_rows = Vec::new();
    let mut agg_groups = GroupMap::default();
    let mut was_agg = false;
    for r in results {
        match r? {
            PartitionOut::Rows(mut rs) => plain_rows.append(&mut rs),
            PartitionOut::Partial(groups) => {
                was_agg = true;
                merge_groups(&mut agg_groups, groups);
            }
        }
    }
    let rows = if was_agg {
        let mut rows: Vec<Vec<Value>> = agg_groups
            .into_iter()
            .map(|(mut k, states)| {
                k.extend(states.iter().map(AggState::finish));
                k
            })
            .collect();
        rows.sort();
        rows
    } else {
        plain_rows
    };
    Ok(ResultSet {
        columns: input.columns.clone(),
        rows,
    })
}

enum PartitionOut {
    Rows(Vec<Vec<Value>>),
    Partial(GroupMap),
}

fn run_body(mut rows: Vec<Vec<Value>>, body: &[PipeOp]) -> Result<PartitionOut> {
    for op in body {
        match op {
            PipeOp::Filter(p) => rows.retain(|r| p.eval(r)),
            PipeOp::Project(exprs) => {
                let mut out = Vec::with_capacity(rows.len());
                for r in &rows {
                    let mut row = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        row.push(e.eval(r)?);
                    }
                    out.push(row);
                }
                rows = out;
            }
            PipeOp::PartialAggregate { group_by, aggs } => {
                return Ok(PartitionOut::Partial(group_rows(&rows, group_by, aggs)));
            }
        }
    }
    Ok(PartitionOut::Rows(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Query;
    use crate::expr::{AggFunc, Expr};
    use crate::optimize::optimize;
    use hana_common::{ColumnDef, DataType, Schema, TableConfig};
    use hana_txn::{IsolationLevel, TxnManager};
    use std::sync::Arc;

    fn sales_table() -> (Arc<TxnManager>, Arc<hana_core::UnifiedTable>) {
        let mgr = TxnManager::new();
        let schema = Schema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("city", DataType::Str),
                ColumnDef::new("amount", DataType::Int),
                ColumnDef::new("currency", DataType::Str),
            ],
        )
        .unwrap();
        let t = hana_core::UnifiedTable::standalone(schema, TableConfig::small(), Arc::clone(&mgr));
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        let cities = ["Campbell", "Los Gatos", "Saratoga"];
        let currencies = ["USD", "EUR"];
        for i in 0..30i64 {
            t.insert(
                &txn,
                vec![
                    Value::Int(i),
                    Value::str(cities[(i % 3) as usize]),
                    Value::Int(i),
                    Value::str(currencies[(i % 2) as usize]),
                ],
            )
            .unwrap();
        }
        txn.commit().unwrap();
        // Spread rows across stages.
        t.drain_l1().unwrap();
        (mgr, t)
    }

    fn snap(mgr: &TxnManager) -> Snapshot {
        Snapshot::at(mgr.now())
    }

    #[test]
    fn filter_project_pipeline() {
        let (mgr, t) = sales_table();
        let mut g = Query::scan(Arc::clone(&t))
            .filter(Predicate::Eq(1, Value::str("Campbell")))
            .project(vec![
                ("id", Expr::col(0)),
                ("double_amt", Expr::col(2).mul(Expr::lit(2))),
            ])
            .compile();
        optimize(&mut g);
        let mut ex = Executor::new(snap(&mgr));
        let rs = ex.run(&g).unwrap();
        assert_eq!(rs.columns, vec!["id", "double_amt"]);
        assert_eq!(rs.len(), 10);
        assert!(rs
            .rows
            .iter()
            .all(|r| r[1] == Value::Int(r[0].as_int().unwrap() * 2)));
        // The Eq filter went through the index path.
        assert_eq!(ex.stats().indexed_scans, 1);
        assert_eq!(ex.stats().full_scans, 0);
    }

    #[test]
    fn group_by_aggregation() {
        let (mgr, t) = sales_table();
        let g = Query::scan(t)
            .aggregate(vec![1], vec![(AggFunc::Count, 0), (AggFunc::Sum, 2)])
            .compile();
        let rs = Executor::new(snap(&mgr)).run(&g).unwrap();
        assert_eq!(rs.len(), 3);
        for row in &rs.rows {
            assert_eq!(row[1], Value::Int(10));
        }
        let total: f64 = rs.rows.iter().map(|r| r[2].as_numeric().unwrap()).sum();
        assert_eq!(total, (0..30).sum::<i64>() as f64);
    }

    #[test]
    fn join_two_tables() {
        let (mgr, t) = sales_table();
        // Self-join on city: every row matches the 10 rows of its city.
        let g = Query::scan(Arc::clone(&t))
            .join(Query::scan(t), 1, 1)
            .compile();
        let rs = Executor::new(snap(&mgr)).run(&g).unwrap();
        assert_eq!(rs.len(), 3 * 10 * 10);
        assert_eq!(rs.columns.len(), 8);
    }

    #[test]
    fn union_concatenates() {
        let (mgr, t) = sales_table();
        let g = Query::scan(Arc::clone(&t))
            .filter(Predicate::Lt(0, Value::Int(5)))
            .union(Query::scan(t).filter(Predicate::Ge(0, Value::Int(25))))
            .compile();
        let rs = Executor::new(snap(&mgr)).run(&g).unwrap();
        assert_eq!(rs.len(), 10);
    }

    #[test]
    fn split_combine_parallel_aggregate_matches_serial() {
        let (mgr, t) = sales_table();
        let serial = Query::scan(Arc::clone(&t))
            .aggregate(vec![1], vec![(AggFunc::Count, 0), (AggFunc::Sum, 2)])
            .compile();
        let parallel = Query::scan(t)
            .split_combine(
                4,
                1,
                vec![PipeOp::PartialAggregate {
                    group_by: vec![1],
                    aggs: vec![(AggFunc::Count, 0), (AggFunc::Sum, 2)],
                }],
            )
            .compile();
        let a = Executor::new(snap(&mgr)).run(&serial).unwrap();
        let b = Executor::new(snap(&mgr)).run(&parallel).unwrap();
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn conv_node_applies_rates() {
        let (mgr, t) = sales_table();
        let g = Query::scan(t)
            .convert_currency(2, 3, &[("USD", 1.0), ("EUR", 1.1)])
            .filter(Predicate::Eq(0, Value::Int(1))) // row 1: EUR, amount 1
            .compile();
        let rs = Executor::new(snap(&mgr)).run(&g).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][2], Value::double(1.1));
    }

    #[test]
    fn custom_node_runs_closure() {
        let (mgr, t) = sales_table();
        let g = Query::scan(t)
            .custom(
                "keep-every-10th",
                Arc::new(|rows| {
                    Ok(rows
                        .into_iter()
                        .filter(|r| r[0].as_int().unwrap() % 10 == 0)
                        .collect())
                }),
            )
            .compile();
        let rs = Executor::new(snap(&mgr)).run(&g).unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn shared_subexpression_evaluated_once() {
        let (mgr, t) = sales_table();
        // Build a diamond: one filtered scan feeding two projections + union.
        let mut g = CalcGraph::new();
        let s = g.add(CalcNode::TableSource {
            table: t.into(),
            fused_filter: Predicate::True,
            projection: None,
        });
        let f = g.add(CalcNode::Filter {
            input: s,
            pred: Predicate::Lt(0, Value::Int(10)),
        });
        let p1 = g.add(CalcNode::Project {
            input: f,
            exprs: vec![("a".into(), crate::expr::Expr::col(0))],
        });
        let p2 = g.add(CalcNode::Project {
            input: f,
            exprs: vec![("b".into(), crate::expr::Expr::col(2))],
        });
        let u = g.add(CalcNode::Union {
            inputs: vec![p1, p2],
        });
        g.set_root(u);
        let mut ex = Executor::new(snap(&mgr));
        let rs = ex.run(&g).unwrap();
        assert_eq!(rs.len(), 20);
        // 5 nodes, 5 evaluations — f and s were not re-run for p2.
        assert_eq!(ex.stats().nodes_evaluated, 5);
        assert_eq!(ex.stats().full_scans, 1);
    }

    /// A table whose rows live in the compressed main (with one committed
    /// delete so visibility needs a bitmap, not the wholly-visible summary).
    fn main_resident_table() -> (Arc<TxnManager>, Arc<hana_core::UnifiedTable>) {
        let mgr = TxnManager::new();
        let schema = Schema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("city", DataType::Str),
                ColumnDef::new("amount", DataType::Int),
            ],
        )
        .unwrap();
        let t = hana_core::UnifiedTable::standalone(schema, TableConfig::small(), Arc::clone(&mgr));
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        for i in 0..50i64 {
            t.insert(
                &txn,
                vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                    Value::Int(i),
                ],
            )
            .unwrap();
        }
        txn.commit().unwrap();
        t.merge_l1().unwrap();
        t.merge_delta_as(hana_merge::MergeDecision::Classic)
            .unwrap();
        let mut del = mgr.begin(IsolationLevel::Transaction);
        t.delete_where(&del, hana_common::ColumnId(0), &Value::Int(7))
            .unwrap();
        del.commit().unwrap();
        (mgr, t)
    }

    #[test]
    fn projection_pushdown_matches_unoptimized_plan() {
        let (mgr, t) = sales_table();
        let build = || {
            Query::scan(Arc::clone(&t))
                .project(vec![("amt2", Expr::col(2).mul(Expr::lit(2)))])
                .compile()
        };
        let plain = build();
        let mut optimized = build();
        optimize(&mut optimized);
        // The scan now materializes only column 2.
        assert!(optimized.explain().contains("[project [2]]"));
        let a = Executor::new(snap(&mgr)).run(&plain).unwrap();
        let b = Executor::new(snap(&mgr)).run(&optimized).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn projected_scan_serves_indexed_path() {
        let (mgr, t) = sales_table();
        let mut g = Query::scan(t)
            .filter(Predicate::Eq(1, Value::str("Campbell")))
            .project(vec![("id", Expr::col(0))])
            .compile();
        optimize(&mut g);
        let mut ex = Executor::new(snap(&mgr));
        let rs = ex.run(&g).unwrap();
        assert_eq!(rs.len(), 10);
        assert!(rs.rows.iter().all(|r| r[0].as_int().unwrap() % 3 == 0));
        assert_eq!(ex.stats().indexed_scans, 1);
    }

    #[test]
    fn executor_reports_bitmap_cache_stats() {
        let (mgr, t) = main_resident_table();
        let g = Query::scan(t)
            .aggregate(vec![], vec![(AggFunc::Sum, 2)])
            .compile();
        let snapshot = snap(&mgr);
        // Cold: the visibility bitmap is computed and cached on the part.
        let mut ex = Executor::new(snapshot);
        let cold = ex.run(&g).unwrap();
        assert_eq!(
            cold.rows[0][0],
            Value::double((0..50).sum::<i64>() as f64 - 7.0)
        );
        assert!(ex.stats().bitmap_cache_misses >= 1);
        // Warm: the same snapshot reuses the cached bitmap.
        let mut ex2 = Executor::new(snapshot);
        let warm = ex2.run(&g).unwrap();
        assert_eq!(cold, warm);
        assert!(ex2.stats().bitmap_cache_hits >= 1);
        assert_eq!(ex2.stats().bitmap_cache_misses, 0);
    }

    #[test]
    fn split_pushdown_extracts_every_supported_conjunct() {
        let p = Predicate::And(vec![
            Predicate::Eq(0, Value::Int(1)),
            Predicate::Between(1, Value::Int(2), Value::Int(5)),
            Predicate::Ge(2, Value::Int(7)),
            Predicate::Ne(3, Value::Int(0)),
            Predicate::InSet(4, vec![Value::Int(1), Value::Int(2)]),
            Predicate::IsNull(5),
            Predicate::Or(vec![Predicate::Eq(0, Value::Int(1))]),
            Predicate::Lt(6, Value::Null), // NULL literal: stays row-wise
        ]);
        let (pushed, residue) = split_pushdown(&p);
        assert_eq!(pushed.len(), 5);
        assert!(matches!(pushed[0], ColumnPredicate::Eq(0, _)));
        assert!(matches!(pushed[2], ColumnPredicate::Range(2, _, _)));
        assert!(matches!(pushed[4], ColumnPredicate::IsNull(5)));
        // Ne + Or + the NULL comparison remain as the residue conjunction.
        assert!(matches!(residue, Predicate::And(ref v) if v.len() == 3));
        // A bare supported conjunct pushes fully, leaving no residue.
        let (pushed, residue) = split_pushdown(&Predicate::Eq(1, Value::str("x")));
        assert_eq!(pushed.len(), 1);
        assert_eq!(residue, Predicate::True);
    }

    #[test]
    fn conjunction_pushes_all_supported_conjuncts() {
        let (mgr, t) = sales_table();
        let mut g = Query::scan(t)
            .filter(Predicate::And(vec![
                Predicate::Eq(1, Value::str("Campbell")),
                Predicate::Between(0, Value::Int(6), Value::Int(25)),
                Predicate::Ne(3, Value::str("EUR")),
            ]))
            .compile();
        optimize(&mut g);
        let mut ex = Executor::new(snap(&mgr));
        let rs = ex.run(&g).unwrap();
        // Campbell rows in [6,25) are {6,9,12,15,18,21,24}; USD keeps the
        // even ids.
        let ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![6, 12, 18, 24]);
        // Both indexable conjuncts went down in one scan; only Ne ran
        // row-wise, over the 7 code-domain survivors.
        assert_eq!(ex.stats().indexed_scans, 1);
        assert_eq!(ex.stats().full_scans, 0);
        assert_eq!(ex.stats().residue_rows, 7);
        assert!(ex.stats().code_filtered_rows > 0);
    }

    #[test]
    fn executor_reports_pruning_counters() {
        let (mgr, t) = main_resident_table();
        let mut g = Query::scan(t)
            .filter(Predicate::Between(0, Value::Int(1000), Value::Int(2000)))
            .compile();
        optimize(&mut g);
        let mut ex = Executor::new(snap(&mgr));
        let rs = ex.run(&g).unwrap();
        assert!(rs.is_empty());
        // The dictionary proved the range empty: the whole main part was
        // skipped without touching a row (L1 leftovers still run row-wise).
        assert_eq!(ex.stats().parts_pruned, 1);
        assert!(ex.stats().zone_pruned_rows > 0);
        assert_eq!(ex.stats().code_filtered_rows, 0);
    }

    /// The same 30 sales rows as [`sales_table`], loaded into a 4-way
    /// hash-partitioned group.
    fn partitioned_sales() -> (Arc<TxnManager>, Arc<hana_core::PartitionedTable>) {
        let mgr = TxnManager::new();
        let schema = Schema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("city", DataType::Str),
                ColumnDef::new("amount", DataType::Int),
                ColumnDef::new("currency", DataType::Str),
            ],
        )
        .unwrap();
        let pt = Arc::new(
            hana_core::PartitionedTable::new(
                schema,
                hana_common::ColumnId(0),
                4,
                TableConfig::small(),
                Arc::clone(&mgr),
            )
            .unwrap(),
        );
        let mut txn = mgr.begin(IsolationLevel::Transaction);
        let cities = ["Campbell", "Los Gatos", "Saratoga"];
        let currencies = ["USD", "EUR"];
        for i in 0..30i64 {
            pt.insert(
                &txn,
                vec![
                    Value::Int(i),
                    Value::str(cities[(i % 3) as usize]),
                    Value::Int(i),
                    Value::str(currencies[(i % 2) as usize]),
                ],
            )
            .unwrap();
        }
        txn.commit().unwrap();
        for p in pt.partitions() {
            p.drain_l1().unwrap();
        }
        (mgr, pt)
    }

    #[test]
    fn partitioned_scan_matches_single_table_plan() {
        let (mgr_s, single) = sales_table();
        let (mgr_p, parted) = partitioned_sales();
        let build_single = Query::scan(single)
            .filter(Predicate::Eq(1, Value::str("Campbell")))
            .project(vec![("id", Expr::col(0))]);
        let build_parted = Query::scan_partitioned(parted)
            .filter(Predicate::Eq(1, Value::str("Campbell")))
            .project(vec![("id", Expr::col(0))]);
        let mut gs = build_single.compile();
        let mut gp = build_parted.compile();
        optimize(&mut gs);
        optimize(&mut gp);
        let a = Executor::new(snap(&mgr_s)).run(&gs).unwrap();
        let mut ex = Executor::new(snap(&mgr_p));
        let b = ex.run(&gp).unwrap();
        let sorted = |rs: &ResultSet| {
            let mut rows = rs.rows.clone();
            rows.sort();
            rows
        };
        assert_eq!(sorted(&a), sorted(&b));
        // The fused Eq went down the compressed-domain path on every shard.
        assert_eq!(ex.stats().indexed_scans, 1);
        assert_eq!(ex.stats().full_scans, 0);
    }

    #[test]
    fn partitioned_columnar_aggregate_matches_single_table() {
        let (mgr_s, single) = sales_table();
        let (mgr_p, parted) = partitioned_sales();
        let q = |src: crate::graph::ScanSource| {
            Query::scan(src)
                .aggregate(vec![1], vec![(AggFunc::Count, 0), (AggFunc::Sum, 2)])
                .compile()
        };
        let a = Executor::new(snap(&mgr_s)).run(&q(single.into())).unwrap();
        let mut ex = Executor::new(snap(&mgr_p));
        let b = ex.run(&q(parted.into())).unwrap();
        assert_eq!(a.rows, b.rows);
        // The aggregate was answered by the columnar kernels fanned over
        // the partitions — no scan materialization.
        assert_eq!(ex.stats().indexed_scans, 1);
        assert_eq!(ex.stats().full_scans, 0);
    }

    #[test]
    fn empty_aggregate_yields_zero_row() {
        let (mgr, t) = sales_table();
        let g = Query::scan(t)
            .filter(Predicate::Eq(0, Value::Int(-1)))
            .aggregate(vec![], vec![(AggFunc::Count, 0), (AggFunc::Sum, 2)])
            .compile();
        let rs = Executor::new(snap(&mgr)).run(&g).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
    }
}
