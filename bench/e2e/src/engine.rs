//! The one adapter: every call the benchmark makes into a `hana-*` crate
//! is in this file, wrapped in the span that attributes it to a layer.
//!
//! A change to the engine's public API therefore needs a change here and
//! nowhere else in the benchmark. Each layer is measured from outside: by
//! timing calls into its public functions and reading its public counters.

use crate::gen::{col, Answer, Dataset, Op, SaleRow, CITIES, CURRENCIES, Q5_HI, Q5_LO};
use crate::trace::Tracer;
use hana_calc::{AggFunc, CalcGraph, CalcNode, Executor, Expr, Predicate, Query, ResultSet};
use hana_column::{Bitmap, CodeFilter, CodeMatcher};
use hana_common::{
    ColumnDef, ColumnId, CommitConfig, DataType, GovernorConfig, HanaError, RowId, Schema,
    TableConfig, TableId, TxnId, Value,
};
use hana_core::{ColumnPredicate, Database, UnifiedTable};
use hana_dict::{merge_dicts, SortedDict, UnsortedDict};
use hana_merge::MergeMetrics;
use hana_persist::{FaultInjector, FaultPolicy, IoOp, LogRecord, RedoLog, DEFAULT_PAGE_SIZE};
use hana_txn::{IsolationLevel, Transaction};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The merge daemon's tick in every workload that runs it.
pub const DAEMON_TICK: Duration = Duration::from_millis(10);
/// Attempts after the first before a conflicting transaction counts as
/// failed.
pub const MAX_RETRIES: u32 = 8;
const BULK_BATCH: usize = 4096;

pub type Error = HanaError;
pub type Result<T> = std::result::Result<T, Error>;

/// How one OLTP operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Committed with its effect applied (for a lookup: the row was found).
    Applied,
    /// Completed, but the order it addressed was cancelled earlier.
    Miss,
    /// Still conflicting after `MAX_RETRIES`, or a non-retryable error.
    Failed,
}

#[derive(Clone, Copy, Debug)]
pub struct OpResult {
    pub outcome: Outcome,
    /// Attempts that ended in a write conflict.
    pub conflicts: u32,
}

/// Per-stage rows and bytes of `sales`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stage {
    pub l1_rows: usize,
    pub l2_rows: usize,
    pub main_rows: usize,
    pub main_parts: usize,
    pub l1_bytes: usize,
    pub l2_bytes: usize,
    pub main_bytes: usize,
    pub main_data_bytes: usize,
}

impl Stage {
    pub fn resident_bytes(&self) -> usize {
        self.l1_bytes + self.l2_bytes + self.main_bytes
    }
}

/// What one `maybe_merge_once` call did, as far as public state shows.
#[derive(Clone, Copy, Debug, Default)]
pub struct MergeStep {
    pub wall: Duration,
    /// Rows that left the L1-delta.
    pub l1_rows_moved: usize,
    /// Set when a delta-to-main merge ran inside the call.
    pub delta: Option<DeltaMerge>,
}

#[derive(Clone, Copy, Debug)]
pub struct DeltaMerge {
    pub wall: Duration,
    pub rows_in: usize,
    pub rows_out: usize,
    pub parallel_workers: usize,
}

impl DeltaMerge {
    fn of(m: MergeMetrics) -> Self {
        DeltaMerge {
            wall: m.duration,
            rows_in: m.rows_in,
            rows_out: m.rows_out,
            parallel_workers: m.parallel_workers,
        }
    }
}

/// Counts of one statement, from `ExecStats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecCounts {
    pub nodes_evaluated: u64,
    pub full_scans: u64,
    pub indexed_scans: u64,
    pub vis_cache_hits: u64,
    pub vis_cache_misses: u64,
    pub zone_pruned_rows: u64,
    pub code_filtered_rows: u64,
    pub rowwise_rows: u64,
    pub governor_wait_ns: u64,
    pub result_rows: u64,
}

impl ExecCounts {
    pub fn add(&mut self, o: &ExecCounts) {
        self.nodes_evaluated += o.nodes_evaluated;
        self.full_scans += o.full_scans;
        self.indexed_scans += o.indexed_scans;
        self.vis_cache_hits += o.vis_cache_hits;
        self.vis_cache_misses += o.vis_cache_misses;
        self.zone_pruned_rows += o.zone_pruned_rows;
        self.code_filtered_rows += o.code_filtered_rows;
        self.rowwise_rows += o.rowwise_rows;
        self.governor_wait_ns += o.governor_wait_ns;
        self.result_rows += o.result_rows;
    }
}

/// What recovery after the simulated crash cost and found.
pub struct Recovery {
    pub seconds: f64,
    /// Intact records in the log the reopen replayed.
    pub replay_records: usize,
}

/// A read-only transaction pinning one snapshot for a round of statements,
/// so that garbage collection keeps every version the round can see.
pub struct ReadRound(Transaction);

impl ReadRound {
    pub fn finish(mut self) {
        // Read-only: nothing to log and no lock to release, so the
        // transaction ends on the manager directly and the governor's
        // commit-rate signal sees only the writers' commits.
        let _ = self.0.commit();
    }
}

pub struct Engine {
    db: Arc<Database>,
    sales: Arc<UnifiedTable>,
    customers: Arc<UnifiedTable>,
    products: Arc<UnifiedTable>,
    dir: Option<PathBuf>,
}

fn sales_schema() -> Schema {
    Schema::new(
        "sales",
        vec![
            ColumnDef::new("order_id", DataType::Int).unique(),
            ColumnDef::new("customer_id", DataType::Int).not_null(),
            ColumnDef::new("product_id", DataType::Int).not_null(),
            ColumnDef::new("city", DataType::Str),
            ColumnDef::new("amount", DataType::Int).not_null(),
            ColumnDef::new("quantity", DataType::Int).not_null(),
            ColumnDef::new("currency", DataType::Str),
            ColumnDef::new("status", DataType::Int).not_null(),
        ],
    )
    .expect("static schema is valid")
}

fn customers_schema() -> Schema {
    Schema::new(
        "customers",
        vec![
            ColumnDef::new("id", DataType::Int).unique(),
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("city", DataType::Str),
        ],
    )
    .expect("static schema is valid")
}

fn products_schema() -> Schema {
    Schema::new(
        "products",
        vec![
            ColumnDef::new("id", DataType::Int).unique(),
            ColumnDef::new("category", DataType::Str),
            ColumnDef::new("price", DataType::Int),
        ],
    )
    .expect("static schema is valid")
}

fn sale_values(order_id: i64, r: &SaleRow) -> Vec<Value> {
    vec![
        Value::Int(order_id),
        Value::Int(r.customer_id as i64),
        Value::Int(r.product_id as i64),
        Value::str(CITIES[r.city as usize]),
        Value::Int(r.amount as i64),
        Value::Int(r.quantity as i64),
        Value::str(CURRENCIES[r.currency as usize]),
        Value::Int(r.status as i64),
    ]
}

fn key_col() -> ColumnId {
    ColumnId(col::ORDER_ID as u16)
}

fn numeric(v: &Value) -> i64 {
    v.as_numeric().unwrap_or(0.0).round() as i64
}

/// The configurations every workload runs with: what a user gets.
pub fn resolved_configs() -> String {
    format!(
        "{:?}; {:?}; {:?}; merge daemon tick {:?}, gc on",
        TableConfig::default(),
        CommitConfig::default(),
        GovernorConfig::default(),
        DAEMON_TICK
    )
}

impl Engine {
    /// A database with the three empty tables: durable in `dir`, or in
    /// memory.
    pub fn create(dir: Option<&Path>) -> Result<Engine> {
        let db = match dir {
            Some(d) => {
                std::fs::create_dir_all(d)?;
                Database::open(d)?
            }
            None => Database::in_memory(),
        };
        let cfg = TableConfig::default();
        Ok(Engine {
            sales: db.create_table(sales_schema(), cfg.clone())?,
            customers: db.create_table(customers_schema(), cfg.clone())?,
            products: db.create_table(products_schema(), cfg)?,
            dir: dir.map(Path::to_path_buf),
            db,
        })
    }

    /// Load all three tables in one transaction; the fact table goes
    /// through the bulk path (the L2-delta bypass).
    pub fn load(&self, data: &Dataset) -> Result<()> {
        let mut txn = self.db.begin(IsolationLevel::Transaction);
        for (i, &city) in data.customer_city.iter().enumerate() {
            self.customers.insert(
                &txn,
                vec![
                    Value::Int(i as i64),
                    Value::Str(Dataset::customer_name(i)),
                    Value::str(CITIES[city as usize]),
                ],
            )?;
        }
        for (i, &(category, price)) in data.products.iter().enumerate() {
            self.products.insert(
                &txn,
                vec![
                    Value::Int(i as i64),
                    Value::str(crate::gen::CATEGORIES[category as usize]),
                    Value::Int(price as i64),
                ],
            )?;
        }
        for (b, chunk) in data.sales.chunks(BULK_BATCH).enumerate() {
            let rows = chunk
                .iter()
                .enumerate()
                .map(|(i, r)| sale_values((b * BULK_BATCH + i) as i64, r))
                .collect();
            self.sales.bulk_load(&txn, rows)?;
        }
        self.db.commit(&mut txn)?;
        Ok(())
    }

    /// Push every row through the life cycle into a single-part main.
    pub fn settle(&self) -> Result<()> {
        self.sales.force_full_merge()?;
        self.customers.force_full_merge()?;
        self.products.force_full_merge()
    }

    pub fn start_background(&self) {
        self.db.enable_gc();
        self.db.start_merge_daemon(DAEMON_TICK);
    }

    pub fn stop_background(&self) {
        self.db.stop_merge_daemon();
    }

    pub fn stage(&self) -> Stage {
        let s = self.sales.stage_stats();
        Stage {
            l1_rows: s.l1_rows,
            l2_rows: s.l2_rows + s.l2_frozen_rows,
            main_rows: s.main_rows,
            main_parts: s.main_parts,
            l1_bytes: s.l1_bytes,
            l2_bytes: s.l2_bytes,
            main_bytes: s.main_bytes,
            main_data_bytes: s.main_data_bytes,
        }
    }

    /// Every public counter of the engine, by the name of the per-layer
    /// metric it feeds. All are monotonic since open (the daemon's since
    /// its start) except the `*_max_us`/`*_mean_us`/`gc_dead_versions`
    /// gauges.
    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        let mut c = BTreeMap::new();
        if let Some(l) = self.db.log_stats() {
            c.insert("persist.fsyncs", l.fsyncs as f64);
            c.insert("persist.log_records", l.records as f64);
            c.insert("persist.flush_failures", l.flush_failures as f64);
        }
        if let Some(i) = self.db.injector() {
            c.insert("persist.page_writes", i.ops_of(IoOp::PageWrite) as f64);
            c.insert("persist.page_syncs", i.ops_of(IoOp::PageSync) as f64);
        }
        if let Some(d) = self.db.merge_daemon_stats() {
            c.insert("merge.merges_done", d.merges_done as f64);
            c.insert("merge.attempts", d.attempts as f64);
            c.insert("merge.failures", d.failures as f64);
            c.insert("merge.backoff_skips", d.backoff_skips as f64);
            c.insert("merge.rows_in", d.rows_in as f64);
            c.insert("merge.rows_out", d.rows_out as f64);
            c.insert("merge.busy_s", d.merge_time.as_secs_f64());
        }
        let g = self.db.governor_stats();
        c.insert("core.governor_scans_queued", g.scans_queued as f64);
        c.insert("core.governor_scans_timed_out", g.scans_timed_out as f64);
        c.insert("core.governor_downshifts", g.parallelism_downshifts as f64);
        c.insert("core.governor_merge_deferrals", g.merge_deferrals as f64);
        if let Some(gc) = self.db.gc_stats() {
            c.insert("core.gc_cycles", gc.cycles as f64);
            c.insert("core.gc_marks_resolved", gc.marks_resolved as f64);
            c.insert("core.gc_dead_versions", gc.dead_versions as f64);
        }
        c.insert(
            "core.publication_stall_max_us",
            self.sales.max_publication_stall_ns() as f64 / 1e3,
        );
        c.insert(
            "core.publication_stall_mean_us",
            self.sales.mean_publication_stall_ns() as f64 / 1e3,
        );
        c
    }

    /// Zero the publication-stall gauges at the start of a window.
    pub fn reset_gauges(&self) {
        self.sales.reset_publication_stall();
    }

    pub fn last_merge_workers(&self) -> usize {
        self.sales
            .last_merge_metrics()
            .map_or(0, |m| m.parallel_workers)
    }

    // ---- OLTP ----

    /// Run one operation of the mix as one transaction, retrying write
    /// conflicts with a fresh snapshot. The root span covers all attempts.
    pub fn run_op(&self, op: &Op, tr: &mut Tracer) -> OpResult {
        tr.span("txn", "txn", |tr| {
            let mut conflicts = 0;
            loop {
                match self.attempt(op, tr) {
                    Ok(outcome) => return OpResult { outcome, conflicts },
                    Err(e) if e.is_retryable() && conflicts < MAX_RETRIES => {
                        // The lock holder may be descheduled (two cores, two
                        // clients and the merge daemon): back off like a
                        // client would, 50 µs doubling to 6.4 ms.
                        std::thread::sleep(Duration::from_micros(50 << conflicts));
                        conflicts += 1;
                    }
                    Err(e) => {
                        eprintln!("hana-e2e: {op:?} failed after {conflicts} retries: {e}");
                        return OpResult {
                            outcome: Outcome::Failed,
                            conflicts,
                        };
                    }
                }
            }
        })
    }

    fn attempt(&self, op: &Op, tr: &mut Tracer) -> Result<Outcome> {
        let mut txn = tr.span("txn", "begin", |_| {
            self.db.begin(IsolationLevel::Transaction)
        });
        let body = self.op_body(op, &txn, tr);
        match body {
            Ok(outcome) => {
                self.commit(&mut txn, tr)?;
                Ok(outcome)
            }
            // The addressed order was cancelled by an earlier transaction:
            // an expected result of the mix, not an error.
            Err(HanaError::NotFound(_)) => {
                self.db.abort(&mut txn)?;
                Ok(Outcome::Miss)
            }
            Err(e) => {
                let _ = self.db.abort(&mut txn);
                Err(e)
            }
        }
    }

    fn commit(&self, txn: &mut Transaction, tr: &mut Tracer) -> Result<()> {
        let layer = if self.db.is_durable() {
            "persist"
        } else {
            "txn"
        };
        let r = tr.span(layer, "commit", |_| self.db.commit(txn));
        if r.is_err() {
            let _ = self.db.abort(txn);
        }
        r.map(|_| ())
    }

    fn point(&self, txn: &Transaction, order_id: i64, tr: &mut Tracer) -> Result<Option<i64>> {
        let read = tr.span("core", "read_open", |_| self.sales.read(txn));
        let rows = tr.span("core", "point", |_| {
            read.point(col::ORDER_ID, &Value::Int(order_id))
        })?;
        Ok(rows.first().map(|r| numeric(&r[col::AMOUNT])))
    }

    fn op_body(&self, op: &Op, txn: &Transaction, tr: &mut Tracer) -> Result<Outcome> {
        match *op {
            Op::NewOrder { order_id, ref row } => {
                let values = sale_values(order_id, row);
                tr.span("core", "insert", |_| self.sales.insert(txn, values))?;
                Ok(Outcome::Applied)
            }
            Op::Payment { order_id, delta } => {
                let Some(amount) = self.point(txn, order_id, tr)? else {
                    return Ok(Outcome::Miss);
                };
                tr.span("core", "update", |_| {
                    self.sales.update_where(
                        txn,
                        key_col(),
                        &Value::Int(order_id),
                        &[
                            (ColumnId(col::AMOUNT as u16), Value::Int(amount + delta)),
                            (ColumnId(col::STATUS as u16), Value::Int(1)),
                        ],
                    )
                })?;
                Ok(Outcome::Applied)
            }
            Op::Lookup { order_id } => Ok(match self.point(txn, order_id, tr)? {
                Some(_) => Outcome::Applied,
                None => Outcome::Miss,
            }),
            Op::Cancel { order_id } => {
                tr.span("core", "delete", |_| {
                    self.sales
                        .delete_where(txn, key_col(), &Value::Int(order_id))
                })?;
                Ok(Outcome::Applied)
            }
        }
    }

    // ---- life cycle ----

    /// Insert `rows` (keys `first_id..`) in one transaction.
    pub fn insert_batch(&self, first_id: i64, rows: &[SaleRow], tr: &mut Tracer) -> Result<()> {
        tr.span("txn", "txn", |tr| {
            let mut txn = tr.span("txn", "begin", |_| {
                self.db.begin(IsolationLevel::Transaction)
            });
            for (i, r) in rows.iter().enumerate() {
                let values = sale_values(first_id + i as i64, r);
                tr.span("core", "insert", |_| self.sales.insert(&txn, values))?;
            }
            self.commit(&mut txn, tr)
        })
    }

    /// Set `amount` (and mark paid) of each `(order_id, amount)` in one
    /// transaction.
    pub fn update_batch(&self, updates: &[(i64, i64)], tr: &mut Tracer) -> Result<()> {
        tr.span("txn", "txn", |tr| {
            let mut txn = tr.span("txn", "begin", |_| {
                self.db.begin(IsolationLevel::Transaction)
            });
            for &(order_id, amount) in updates {
                tr.span("core", "update", |_| {
                    self.sales.update_where(
                        &txn,
                        key_col(),
                        &Value::Int(order_id),
                        &[
                            (ColumnId(col::AMOUNT as u16), Value::Int(amount)),
                            (ColumnId(col::STATUS as u16), Value::Int(1)),
                        ],
                    )
                })?;
            }
            self.commit(&mut txn, tr)
        })
    }

    /// The policy-driven merge check a user would run after a commit when
    /// no daemon does it for them.
    pub fn maybe_merge(&self, tr: &mut Tracer) -> Result<MergeStep> {
        let l1_before = self.sales.stage_stats().l1_rows;
        let metrics_before = self.sales.last_merge_metrics();
        let t0 = Instant::now();
        let did = tr.span("merge", "maybe_merge_once", |_| {
            self.sales.maybe_merge_once()
        })?;
        let wall = t0.elapsed();
        if !did {
            return Ok(MergeStep {
                wall,
                ..MergeStep::default()
            });
        }
        let metrics = self.sales.last_merge_metrics();
        Ok(MergeStep {
            wall,
            l1_rows_moved: l1_before.saturating_sub(self.sales.stage_stats().l1_rows),
            delta: metrics
                .filter(|m| Some(*m) != metrics_before)
                .map(DeltaMerge::of),
        })
    }

    /// Drain the L1-delta and consolidate everything into one main part.
    pub fn full_merge(&self, tr: &mut Tracer) -> Result<DeltaMerge> {
        let t0 = Instant::now();
        tr.span("merge", "force_full_merge", |_| {
            self.sales.force_full_merge()
        })?;
        let wall = t0.elapsed();
        let m = self.sales.last_merge_metrics().unwrap_or_default();
        Ok(DeltaMerge {
            wall,
            ..DeltaMerge::of(m)
        })
    }

    /// One L1→L2 merge step on its own.
    pub fn merge_l1(&self, tr: &mut Tracer) -> Result<usize> {
        tr.span("merge", "merge_l1", |_| self.sales.merge_l1())
    }

    // ---- statements ----

    pub fn begin_round(&self) -> ReadRound {
        ReadRound(self.db.begin(IsolationLevel::Transaction))
    }

    fn query(&self, q: usize) -> Query {
        let sales = || Query::scan(Arc::clone(&self.sales));
        let los_gatos = || Predicate::Eq(col::CITY, Value::str("Los Gatos"));
        match q {
            0 => sales().aggregate(vec![], vec![(AggFunc::Sum, col::AMOUNT)]),
            1 => sales().aggregate(
                vec![col::CITY],
                vec![(AggFunc::Count, 0), (AggFunc::Sum, col::AMOUNT)],
            ),
            2 => sales().filter(los_gatos()).aggregate(
                vec![],
                vec![(AggFunc::Count, 0), (AggFunc::Sum, col::AMOUNT)],
            ),
            3 => sales().aggregate(vec![col::STATUS], vec![(AggFunc::Count, 0)]),
            4 => sales()
                .filter(Predicate::Between(
                    col::AMOUNT,
                    Value::Int(Q5_LO),
                    Value::Int(Q5_HI),
                ))
                .project(vec![(
                    "weighted",
                    Expr::col(col::AMOUNT).mul(Expr::col(col::QUANTITY)),
                )])
                .aggregate(vec![], vec![(AggFunc::Sum, 0)]),
            5 => sales()
                .filter(los_gatos())
                .join(
                    Query::scan(Arc::clone(&self.customers)),
                    col::CUSTOMER_ID,
                    0,
                )
                .aggregate(vec![col::ARITY + 2], vec![(AggFunc::Sum, col::AMOUNT)]),
            _ => panic!("no query Q{}", q + 1),
        }
    }

    fn plan(&self, q: usize) -> CalcGraph {
        let mut g = self.query(q).compile();
        hana_calc::optimize(&mut g);
        g
    }

    /// Compile, optimize and execute `Q{q+1}` under the round's snapshot.
    pub fn statement(
        &self,
        q: usize,
        round: &ReadRound,
        tr: &mut Tracer,
    ) -> Result<(Answer, ExecCounts)> {
        const EXEC: [&str; 6] = ["q1", "q2", "q3", "q4", "q5", "q6"];
        tr.span("query", "query", |tr| {
            let g = tr.span("calc", "compile_optimize", |_| self.plan(q));
            let mut ex = Executor::new(round.0.read_snapshot());
            let rs = tr.span("calc", EXEC[q], |_| ex.run(&g))?;
            let s = ex.stats();
            let counts = ExecCounts {
                nodes_evaluated: s.nodes_evaluated as u64,
                full_scans: s.full_scans as u64,
                indexed_scans: s.indexed_scans as u64,
                vis_cache_hits: s.bitmap_cache_hits,
                vis_cache_misses: s.bitmap_cache_misses,
                zone_pruned_rows: s.zone_pruned_rows,
                code_filtered_rows: s.code_filtered_rows,
                rowwise_rows: s.residue_rows,
                governor_wait_ns: s.governor_wait_ns,
                result_rows: rs.rows.len() as u64,
            };
            Ok((answer(q, &rs), counts))
        })
    }

    /// `COUNT(*)` under the round's snapshot.
    pub fn count(&self, round: &ReadRound) -> u64 {
        self.sales.read(&round.0).count() as u64
    }

    /// The storage calls behind `Q{q+1}` — same predicates, same pushed-down
    /// projections, no calc layer — as one `probe` root. `calc.qN_self_ms`
    /// is the statement minus this. Returns the inverted-index probes the
    /// scans used.
    pub fn storage_probe(&self, q: usize, round: &ReadRound, tr: &mut Tracer) -> Result<u64> {
        const STORAGE: [&str; 6] = [
            "q1_storage",
            "q2_storage",
            "q3_storage",
            "q4_storage",
            "q5_storage",
            "q6_storage",
        ];
        // Projections as the optimizer pushed them into each scan.
        let g = self.plan(q);
        let projections: Vec<Option<Vec<usize>>> = (0..g.len())
            .filter_map(|i| match g.node(hana_calc::NodeId(i)) {
                CalcNode::TableSource { projection, .. } => Some(projection.clone()),
                _ => None,
            })
            .collect();
        let read = self.sales.read(&round.0);
        let los_gatos = ColumnPredicate::Eq(col::CITY, Value::str("Los Gatos"));
        tr.span("probe", "probe", |tr| {
            tr.span("core", STORAGE[q], |_| -> Result<u64> {
                let mut index_probes = 0;
                match q {
                    0 => {
                        read.aggregate_numeric(col::AMOUNT)?;
                    }
                    1 => {
                        read.group_aggregate(col::CITY, col::AMOUNT)?;
                    }
                    // Q4 has no SUM; the executor aggregates column 0.
                    3 => {
                        read.group_aggregate(col::STATUS, 0)?;
                    }
                    2 | 5 => {
                        let (_, st) = read.scan_filtered(
                            std::slice::from_ref(&los_gatos),
                            projections[0].as_deref(),
                        )?;
                        index_probes += st.index_probes as u64;
                        if q == 5 {
                            let proj = projections.get(1).and_then(|p| p.as_deref());
                            self.customers.read(&round.0).collect_rows_projected(proj);
                        }
                    }
                    _ => {
                        let range = ColumnPredicate::Range(
                            col::AMOUNT,
                            Bound::Included(Value::Int(Q5_LO)),
                            Bound::Excluded(Value::Int(Q5_HI)),
                        );
                        let (_, st) = read.scan_filtered(&[range], projections[0].as_deref())?;
                        index_probes += st.index_probes as u64;
                    }
                }
                Ok(index_probes)
            })
        })
    }

    // ---- probes of single layers ----

    /// A point read of `order_id` in its own transaction, as a `probe`
    /// root; the caller knows which stage holds the key and names the span
    /// after that stage's crate.
    pub fn point_probe(
        &self,
        layer: &'static str,
        name: &'static str,
        order_id: i64,
        tr: &mut Tracer,
    ) -> Result<()> {
        tr.span("probe", "probe", |tr| {
            let mut txn = self.db.begin(IsolationLevel::Transaction);
            let read = self.sales.read(&txn);
            let rows = tr.span(layer, name, |_| {
                read.point(col::ORDER_ID, &Value::Int(order_id))
            });
            let _ = txn.commit();
            rows.map(|_| ())
        })
    }

    /// The packed-word kernels and the dictionaries of the settled `city`,
    /// `amount` and `customer_id` columns, at the widths the data gave
    /// them. Returns `(rows scanned per kernel call, dictionary lookups per
    /// span, stored bits per amount code)`.
    pub fn column_probe(&self, tr: &mut Tracer) -> (usize, usize, f64) {
        const LOOKUPS: usize = 100_000;
        let round = self.begin_round();
        let read = self.sales.read(&round.0);
        let Some(part) = read.main().parts().iter().max_by_key(|p| p.len()) else {
            round.finish();
            return (0, 0, 0.0);
        };
        let n = part.len();
        let city = part.code_vector(col::CITY);
        let amount = part.code_vector(col::AMOUNT);
        let eq = part
            .dict(col::CITY)
            .code_of(&Value::str("Los Gatos"))
            .map(|c| CodeMatcher::new(CodeFilter::eq(c), part.null_code(col::CITY)));
        let range = CodeMatcher::new(
            CodeFilter::range(part.dict(col::AMOUNT).code_range(
                Bound::Included(&Value::Int(Q5_LO)),
                Bound::Excluded(&Value::Int(Q5_HI)),
            )),
            part.null_code(col::AMOUNT),
        );
        let cities: Vec<Value> = CITIES.iter().map(|c| Value::str(*c)).collect();
        tr.span("probe", "probe", |tr| {
            if let Some(m) = &eq {
                tr.span("column", "scan_eq", |_| {
                    let mut hits = Bitmap::zeros(n);
                    city.filter_range(0, n, m, &mut hits);
                    std::hint::black_box(hits.count_ones())
                });
            }
            tr.span("column", "scan_range", |_| {
                let mut hits = Bitmap::zeros(n);
                amount.filter_range(0, n, &range, &mut hits);
                std::hint::black_box(hits.count_ones())
            });
            tr.span("column", "unpack", |_| {
                std::hint::black_box(amount.to_codes().len())
            });
            tr.span("dict", "encode_lookup", |_| {
                let (dc, dk) = (part.dict(col::CITY), part.dict(col::CUSTOMER_ID));
                let mut found = 0usize;
                for i in 0..LOOKUPS / 2 {
                    found += dc.code_of(&cities[i % cities.len()]).is_some() as usize;
                    found += dk
                        .code_of(&Value::Int((i * 7919 % 10_000) as i64))
                        .is_some() as usize;
                }
                std::hint::black_box(found)
            });
        });
        let bits = amount.heap_size() as f64 * 8.0 / n.max(1) as f64;
        round.finish();
        (n, LOOKUPS, bits)
    }

    /// Write a savepoint. Returns the bytes of pages it wrote.
    pub fn savepoint(&self, tr: &mut Tracer) -> Result<u64> {
        let writes = |db: &Database| db.injector().map_or(0, |i| i.ops_of(IoOp::PageWrite));
        let before = writes(&self.db);
        tr.span("persist", "savepoint", |_| self.db.savepoint())?;
        Ok((writes(&self.db) - before) * DEFAULT_PAGE_SIZE as u64)
    }

    /// Bytes of redo in the log file since its last rotation.
    pub fn log_bytes(&self) -> u64 {
        self.db
            .persistence()
            .and_then(|p| p.log().len_bytes().ok())
            .unwrap_or(0)
    }

    /// Simulate a crash and recover: start a transaction that inserts
    /// `ghost_id` and changes `victim_id`'s amount, let its data records sit
    /// in the log buffer, arm the injector so that no later I/O reaches the
    /// disk (the commit fails, unacknowledged), drop the instance, and time
    /// `Database::open_with_injector` on the directory.
    pub fn crash_and_recover(self, ghost_id: i64, victim_id: i64) -> Result<(Engine, Recovery)> {
        let dir = self.dir.clone().expect("only a durable engine can crash");
        let injector = Arc::clone(self.db.injector().expect("durable"));
        let mut txn = self.db.begin(IsolationLevel::Transaction);
        let ghost = SaleRow {
            customer_id: 0,
            product_id: 0,
            city: 0,
            amount: 1,
            quantity: 1,
            currency: 0,
            status: 0,
        };
        self.sales.insert(&txn, sale_values(ghost_id, &ghost))?;
        self.sales.update_where(
            &txn,
            key_col(),
            &Value::Int(victim_id),
            &[(ColumnId(col::AMOUNT as u16), Value::Int(-1))],
        )?;
        injector.arm(FaultPolicy::crash_at(0));
        if self.db.commit(&mut txn).is_ok() {
            return Err(HanaError::Persist(
                "commit was acknowledged after the simulated crash".into(),
            ));
        }
        self.stop_background();
        drop(txn);
        let Engine {
            db,
            sales,
            customers,
            products,
            ..
        } = self;
        drop((sales, customers, products, db));

        let replay_records = RedoLog::read_all(&dir.join("redo.log"))?.len();
        let t0 = Instant::now();
        let db = Database::open_with_injector(&dir, FaultInjector::new())?;
        let seconds = t0.elapsed().as_secs_f64();
        Ok((
            Engine {
                sales: db.table("sales")?,
                customers: db.table("customers")?,
                products: db.table("products")?,
                dir: Some(dir),
                db,
            },
            Recovery {
                seconds,
                replay_records,
            },
        ))
    }

    /// Visible `(rows, SUM(amount))` of `sales` and the amount of one
    /// order, for the reconciliation checks.
    pub fn audit(&self, order_id: i64) -> Result<(u64, i64, Option<i64>)> {
        let round = self.begin_round();
        let read = self.sales.read(&round.0);
        let rows = read.count() as u64;
        let (_, sum) = read.aggregate_numeric(col::AMOUNT)?;
        let one = read
            .point(col::ORDER_ID, &Value::Int(order_id))?
            .first()
            .map(|r| numeric(&r[col::AMOUNT]));
        round.finish();
        Ok((rows, sum.round() as i64, one))
    }
}

fn answer(q: usize, rs: &ResultSet) -> Answer {
    let key = |v: &Value| match v {
        Value::Str(s) => s.to_string(),
        other => numeric(other).to_string(),
    };
    rs.rows
        .iter()
        .map(|r| match q {
            0 | 4 => (String::new(), (0, numeric(&r[0]))),
            1 => (key(&r[0]), (numeric(&r[1]) as u64, numeric(&r[2]))),
            2 => (String::new(), (numeric(&r[0]) as u64, numeric(&r[1]))),
            3 => (key(&r[0]), (numeric(&r[1]) as u64, 0)),
            _ => (key(&r[0]), (0, numeric(&r[1]))),
        })
        .collect()
}

/// Median cost of appending one insert record to a scratch redo log, and
/// of one flush + fsync of a single commit record: the sandbox's floor
/// under `persist.commit_durable_us`.
pub fn scratch_log_probe(dir: &Path, tr: &mut Tracer) -> Result<()> {
    const APPENDS: usize = 2_000;
    const FLUSHES: usize = 50;
    std::fs::create_dir_all(dir)?;
    let path = dir.join("scratch.log");
    let log = RedoLog::open(&path)?;
    let row = sale_values(
        0,
        &SaleRow {
            customer_id: 1,
            product_id: 1,
            city: 0,
            amount: 1,
            quantity: 1,
            currency: 0,
            status: 0,
        },
    );
    let r = tr.span("probe", "probe", |tr| -> Result<()> {
        for i in 0..APPENDS {
            let rec = LogRecord::InsertL1 {
                table: TableId(0),
                row_id: RowId(i as u64),
                txn: TxnId(1),
                row: row.clone(),
            };
            tr.span("persist", "log_append", |_| log.append(&rec))?;
        }
        log.flush()?;
        for i in 0..FLUSHES {
            log.append(&LogRecord::Commit {
                txn: TxnId(i as u64),
                ts: i as u64,
            })?;
            tr.span("persist", "log_flush", |_| log.flush())?;
        }
        Ok(())
    });
    drop(log);
    let _ = std::fs::remove_file(&path);
    r
}

/// The dictionary merge of a delta-to-main merge on its own: a sorted main
/// dictionary of `main` keys ⊕ an unsorted delta dictionary of `delta`
/// keys that interleave with them (the general two-way path), at the sizes
/// `lifecycle_ingest` produces.
pub fn dict_merge_probe(main: usize, delta: usize, tr: &mut Tracer) {
    let sorted =
        SortedDict::from_sorted_values((0..main as i64).map(|i| Value::Int(2 * i)).collect());
    let mut unsorted = UnsortedDict::with_capacity(delta);
    // Arrival order, not key order: the delta dictionary is unsorted.
    for i in 0..delta {
        unsorted.get_or_insert(&Value::Int(2 * ((i * 7919) % main.max(1)) as i64 + 1));
    }
    tr.span("probe", "probe", |tr| {
        tr.span("dict", "merge", |_| {
            std::hint::black_box(merge_dicts(&sorted, &unsorted).dict.len())
        })
    });
}
