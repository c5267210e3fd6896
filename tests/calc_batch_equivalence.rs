//! Batch executor ≡ row-at-a-time executor.
//!
//! Random plans — conjunctions mixing pushed-down (`Eq`, `Between`,
//! `Lt…Ge`, `InSet`, `IsNull`) and residue (`Ne`, `Or`, `Not`, NULL-literal)
//! predicates, an optional `Project` with arithmetic (including division by
//! zero), global / one- / two-column group-bys over all five aggregate
//! functions, an optional join to a dimension table — run twice:
//!
//! * as written and (three times in four) optimized, where the executor
//!   folds the scan-rooted pipeline over column batches, and
//! * with a row-only identity `Custom` node behind every scan, which forces
//!   `collect_rows` plus the retained row-at-a-time
//!   `Filter`/`Project`/`hash_join`/`aggregate` — the oracle.
//!
//! The fact table's rows are spread over a two-part main (passive +
//! active), a frozen L2-delta (left behind by a delta merge an in-flight
//! transaction blocked), the open L2-delta and the L1-delta, with NULLs,
//! updated and deleted versions in every stage and uncommitted rows,
//! updates and deletes in the main, L2 and L1; statements read at the
//! latest snapshot and at one older than the last two rounds of writes (the
//! model test also under the uncommitted writer's own snapshot). Fixtures
//! cover `ScanSource::Single` and a two-way `ScanSource::Partitioned` at
//! `scan_parallelism` 1 and 2, plus a one-partition table, which must read
//! exactly like the single one.

use hana_calc::{AggFunc, ExecStats, Executor, Expr, Predicate, Query, ResultSet, ScanSource};
use hana_common::{
    ColumnDef, ColumnId, DataType, PartitionConfig, ScanConfig, Schema, TableConfig, Value,
};
use hana_core::{ColumnPredicate, Database, PartitionedTable, UnifiedTable};
use hana_merge::MergeDecision;
use hana_txn::{IsolationLevel, Snapshot, Transaction};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

const K: usize = 0; // Int, unique
const G: usize = 1; // Int, 9 values + NULL
const S: usize = 2; // Str, 4 values + NULL
const V: usize = 3; // Int, nullable
const D: usize = 4; // Double, nullable
const FACT_ARITY: usize = 5;
// Dimension columns, as join-output positions when the fact is on the left.
const DIM_GID: usize = 1;
const DIM_NAME: usize = 2;
const DIM_W: usize = 3;

fn fact_schema() -> Schema {
    Schema::new(
        "fact",
        vec![
            ColumnDef::new("k", DataType::Int).unique(),
            ColumnDef::new("g", DataType::Int),
            ColumnDef::new("s", DataType::Str),
            ColumnDef::new("v", DataType::Int),
            ColumnDef::new("d", DataType::Double),
        ],
    )
    .unwrap()
}

fn dim_schema() -> Schema {
    Schema::new(
        "dim",
        vec![
            ColumnDef::new("pk", DataType::Int).unique(),
            ColumnDef::new("gid", DataType::Int),
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("w", DataType::Int),
        ],
    )
    .unwrap()
}

const COLORS: [&str; 4] = ["blue", "green", "red", "teal"];

fn fact_row(k: i64) -> Vec<Value> {
    let nullable = |null: bool, v: Value| if null { Value::Null } else { v };
    vec![
        Value::Int(k),
        // Keys of the later stages bring two values the passive main's
        // dictionary lacks, so the active part's first code collides with
        // the passive part's NULL sentinel.
        nullable(
            k % 11 == 0,
            Value::Int(k % if k < STAGES[0] { 7 } else { 9 }),
        ),
        nullable(k % 5 == 4, Value::str(COLORS[(k % 5).min(3) as usize])),
        nullable(k % 13 == 0, Value::Int((k * 37) % 1000 - 200)),
        nullable(k % 17 == 0, Value::double((k % 97) as f64 * 0.25)),
    ]
}

/// The fact table behind either scan source.
enum Fact {
    Single(Arc<UnifiedTable>),
    Parted(Arc<PartitionedTable>),
}

impl Fact {
    fn shards(&self) -> Vec<Arc<UnifiedTable>> {
        match self {
            Fact::Single(t) => vec![Arc::clone(t)],
            Fact::Parted(p) => p.partitions().to_vec(),
        }
    }

    fn shard_of(&self, k: i64) -> Arc<UnifiedTable> {
        match self {
            Fact::Single(t) => Arc::clone(t),
            Fact::Parted(p) => Arc::clone(p.route(&Value::Int(k))),
        }
    }

    fn insert(&self, txn: &Transaction, k: i64) {
        self.shard_of(k).insert(txn, fact_row(k)).unwrap();
    }

    fn update(&self, txn: &Transaction, k: i64, v: i64) {
        let set = [
            (ColumnId(V as u16), Value::Int(v)),
            (
                ColumnId(S as u16),
                Value::str(COLORS[v.rem_euclid(4) as usize]),
            ),
        ];
        self.shard_of(k)
            .update_where(txn, ColumnId(K as u16), &Value::Int(k), &set)
            .unwrap();
    }

    fn delete(&self, txn: &Transaction, k: i64) {
        self.shard_of(k)
            .delete_where(txn, ColumnId(K as u16), &Value::Int(k))
            .unwrap();
    }

    fn source(&self) -> ScanSource {
        match self {
            Fact::Single(t) => Arc::clone(t).into(),
            Fact::Parted(p) => Arc::clone(p).into(),
        }
    }
}

struct Fixture {
    _db: Arc<Database>,
    fact: Fact,
    dim: Arc<UnifiedTable>,
    /// Older than the writes of the last two rounds.
    old: Snapshot,
    new: Snapshot,
    /// The never-committing transaction's own snapshot.
    own: Snapshot,
    /// The committed fact rows by key as of `old` and `new`, tracked
    /// independently of any scan, and what `own` sees: the rows committed
    /// when that transaction began plus its own writes.
    model_old: Model,
    model_new: Model,
    model_own: Model,
    /// Keys the point lookups check: every key an update or delete
    /// touched, the uncommitted and own-written keys, and a stride of
    /// every stage.
    tracked: Vec<i64>,
}

type Model = BTreeMap<i64, Vec<Value>>;

/// The model side of [`Fact::update`].
fn set_v(row: &mut [Value], v: i64) {
    row[V] = Value::Int(v);
    row[S] = Value::str(COLORS[v.rem_euclid(4) as usize]);
}

/// A row only ever written by the transaction that never commits: visible
/// in an aggregate the moment a fold forgets the visibility AND.
fn pending_row(k: i64) -> Vec<Value> {
    vec![
        Value::Int(k),
        Value::Int(1),
        Value::str("red"),
        Value::Int(1_000_000),
        Value::double(1e6),
    ]
}

/// Rows per stage, oldest first: passive main (more than one 16Ki scan
/// chunk), active main, frozen L2, open L2, L1.
const STAGES: [i64; 5] = [20_000, 3_000, 900, 700, 300];

/// `partitions == 0` is an unpartitioned table.
fn fixture(partitions: usize, scan_parallelism: usize) -> Fixture {
    let db = Database::in_memory();
    let mut cfg = TableConfig::default()
        .with_scan(ScanConfig::default().with_scan_parallelism(scan_parallelism));
    cfg.block_size = 64;
    let fact = if partitions > 0 {
        let pc = PartitionConfig::new(partitions, K);
        Fact::Parted(
            db.create_partitioned_table(fact_schema(), cfg.clone(), pc)
                .unwrap(),
        )
    } else {
        Fact::Single(db.create_table(fact_schema(), cfg.clone()).unwrap())
    };
    let dim = db.create_table(dim_schema(), cfg).unwrap();
    let bounds: Vec<i64> = STAGES
        .iter()
        .scan(0, |at, n| {
            *at += n;
            Some(*at)
        })
        .collect();
    let commit = |mut txn: Transaction| {
        db.commit(&mut txn).unwrap();
    };
    let model = RefCell::new(Model::new());
    let touched = RefCell::new(BTreeSet::new());
    let insert = |txn: &Transaction, k: i64| {
        fact.insert(txn, k);
        model.borrow_mut().insert(k, fact_row(k));
    };
    let update = |txn: &Transaction, k: i64, v: i64| {
        fact.update(txn, k, v);
        set_v(
            model.borrow_mut().get_mut(&k).expect("updated key exists"),
            v,
        );
        touched.borrow_mut().insert(k);
    };
    let delete = |txn: &Transaction, k: i64| {
        fact.delete(txn, k);
        model.borrow_mut().remove(&k).expect("deleted key exists");
        touched.borrow_mut().insert(k);
    };

    // Passive main: bulk-loaded (the L1 uniqueness probe is linear).
    let txn = db.begin(IsolationLevel::Transaction);
    for shard in fact.shards() {
        let rows: Vec<Vec<Value>> = (0..bounds[0])
            .filter(|&k| Arc::ptr_eq(&fact.shard_of(k), &shard))
            .map(fact_row)
            .collect();
        shard.bulk_load(&txn, rows).unwrap();
    }
    model
        .borrow_mut()
        .extend((0..bounds[0]).map(|k| (k, fact_row(k))));
    for pk in 0..12i64 {
        let gid = match pk {
            8 => Value::Int(7),  // a value only the later stages carry
            9 => Value::Int(40), // joins to nothing
            10 => Value::Null,
            _ => Value::Int(pk % 6), // 0 and 1 twice; fact g = 6 and 8 unmatched
        };
        let name = match pk % 4 {
            3 => Value::Null,
            n => Value::str(["north", "south", "west"][n as usize]),
        };
        dim.insert(
            &txn,
            vec![Value::Int(pk), gid, name, Value::Int(pk * 3 - 7)],
        )
        .unwrap();
    }
    commit(txn);
    for shard in fact.shards() {
        shard.merge_delta_as(MergeDecision::Classic).unwrap();
    }
    dim.merge_l1().unwrap();
    dim.merge_delta_as(MergeDecision::Classic).unwrap();

    // Every later round inserts its stage's keys and rewrites or deletes a
    // few rows of each earlier stage.
    let round = |stage: usize| {
        let txn = db.begin(IsolationLevel::Transaction);
        for k in bounds[stage - 1]..bounds[stage] {
            insert(&txn, k);
        }
        for earlier in 0..stage {
            let lo = if earlier == 0 { 0 } else { bounds[earlier - 1] };
            for j in 0..6 {
                let k = lo + 7 * stage as i64 + 29 * j;
                if j % 3 == 2 {
                    delete(&txn, k);
                } else {
                    // Below every loaded value on odd rounds: a later
                    // part's code order is then not the value order.
                    let sign = if stage % 2 == 1 { -1 } else { 1 };
                    update(&txn, k, sign * (5_000 + k));
                }
            }
        }
        commit(txn);
        for shard in fact.shards() {
            shard.merge_l1().unwrap();
        }
    };

    // Active main: a partial merge on top of the passive part.
    round(1);
    for shard in fact.shards() {
        shard.merge_delta_as(MergeDecision::Partial).unwrap();
        assert_eq!(shard.stage_stats().main_parts, 2, "no active main");
    }
    // Frozen L2: an uncommitted bulk-loaded row blocks the delta merge,
    // which leaves the L2 it froze in place.
    round(2);
    let open = db.begin(IsolationLevel::Transaction);
    for (i, shard) in fact.shards().iter().enumerate() {
        shard
            .bulk_load(&open, vec![pending_row(-1 - i as i64)])
            .unwrap();
        let err = shard.merge_delta_as(MergeDecision::Classic).unwrap_err();
        assert!(err.is_retryable(), "{err}");
        assert!(shard.stage_stats().l2_frozen_rows > 0);
    }
    let old = Snapshot::at(db.txn_manager().now());
    let model_old = model.borrow().clone();
    // Open L2, then L1 (the last round's `merge_l1` is undone by doing the
    // L1 writes after it).
    round(3);
    let txn = db.begin(IsolationLevel::Transaction);
    for k in bounds[3]..bounds[4] {
        insert(&txn, k);
    }
    for k in [3, bounds[0] + 3, bounds[1] + 3, bounds[2] + 3] {
        update(&txn, k, 9_000 + k);
        delete(&txn, k + 1);
    }
    dim.insert(
        &txn,
        vec![
            Value::Int(12),
            Value::Int(2),
            Value::str("east"),
            Value::Int(1),
        ],
    )
    .unwrap();
    commit(txn);
    fact.shard_of(-10).insert(&open, pending_row(-10)).unwrap(); // in L1
                                                                 // The open transaction also updates and deletes a passive-main and a
                                                                 // frozen-L2 row no later round touched; it began where `model_old` ends.
    let mut model_own = model_old.clone();
    for i in 0..fact.shards().len() as i64 {
        model_own.insert(-1 - i, pending_row(-1 - i));
    }
    model_own.insert(-10, pending_row(-10));
    for (k, v) in [(100, 7_100), (bounds[1] + 200, 7_200)] {
        fact.update(&open, k, v);
        set_v(model_own.get_mut(&k).expect("updated key exists"), v);
    }
    for k in [bounds[0] + 500, bounds[1] + 201] {
        fact.delete(&open, k);
        model_own.remove(&k).expect("deleted key exists");
    }
    for shard in fact.shards() {
        let s = shard.stage_stats();
        assert!(s.l1_rows > 0 && s.l2_rows > 0 && s.l2_frozen_rows > 0 && s.main_parts == 2);
    }
    let new = Snapshot::at(db.txn_manager().now());
    let own = open.read_snapshot();
    // Never finished: its rows stay uncommitted and the L2 stays frozen for
    // as long as the fixture lives.
    std::mem::forget(open);
    let model_new = model.borrow().clone();
    let mut tracked = touched.into_inner();
    tracked.extend([
        -10,
        -2,
        -1,
        100,
        bounds[0] + 500,
        bounds[1] + 200,
        bounds[1] + 201,
    ]);
    tracked.extend((0..bounds[4]).step_by(37));
    Fixture {
        _db: db,
        fact,
        dim,
        old,
        new,
        own,
        model_old,
        model_new,
        model_own,
        tracked: tracked.into_iter().collect(),
    }
}

/// One fixture per (partitions, parallelism), built once.
fn fixtures() -> &'static [Fixture] {
    static ALL: OnceLock<Vec<Fixture>> = OnceLock::new();
    ALL.get_or_init(|| {
        vec![
            fixture(0, 1),
            fixture(0, 2),
            fixture(2, 1),
            fixture(2, 2),
            fixture(1, 2),
        ]
    })
}

/// The unpartitioned fixture and the one-partition fixture at the same
/// parallelism.
fn single_and_one_partition() -> (&'static Fixture, &'static Fixture) {
    (&fixtures()[1], &fixtures()[4])
}

// ---- random plans ----

/// splitmix64: the plan is a pure function of the proptest-drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }
}

/// A literal of `col`'s type (rarely NULL, rarely of another type).
fn literal(r: &mut Rng, col: usize) -> Value {
    if r.chance(6) {
        return Value::Null;
    }
    let col = if r.chance(4) {
        r.below(FACT_ARITY)
    } else {
        col
    };
    match col {
        K => Value::Int(r.below(26_000) as i64 - 500),
        G => Value::Int(r.below(9) as i64 - 1),
        S => Value::str(r.pick(&["blue", "green", "red", "teal", "mauve", "a"])),
        V => Value::Int(r.below(1_300) as i64 - 300),
        _ => Value::double(r.below(100) as f64 * 0.25),
    }
}

fn leaf(r: &mut Rng, pushable: bool) -> Predicate {
    let c = r.below(FACT_ARITY);
    let lit = |r: &mut Rng| literal(r, c);
    if !pushable {
        return Predicate::Ne(c, lit(r));
    }
    match r.below(9) {
        0 => Predicate::Eq(c, lit(r)),
        1 => Predicate::Lt(c, lit(r)),
        2 => Predicate::Le(c, lit(r)),
        3 => Predicate::Gt(c, lit(r)),
        4 => Predicate::Ge(c, lit(r)),
        5 | 6 => {
            let (a, b) = (lit(r), lit(r));
            let (lo, hi) = if a <= b || r.chance(10) {
                (a, b)
            } else {
                (b, a)
            };
            Predicate::Between(c, lo, hi)
        }
        7 => Predicate::InSet(c, (0..1 + r.below(4)).map(|_| lit(r)).collect()),
        _ => Predicate::IsNull(c),
    }
}

fn predicate(r: &mut Rng) -> Predicate {
    let mut conjuncts: Vec<Predicate> = (0..r.below(3)).map(|_| leaf(r, true)).collect();
    for _ in 0..r.below(3) {
        conjuncts.push(match r.below(4) {
            0 => leaf(r, false),
            1 => {
                let pushable = r.chance(50);
                Predicate::Or(vec![leaf(r, true), leaf(r, pushable)])
            }
            2 => Predicate::Not(Box::new(leaf(r, true))),
            _ => Predicate::Or(vec![
                Predicate::And(vec![leaf(r, true), leaf(r, false)]),
                Predicate::Not(Box::new(Predicate::Or(vec![leaf(r, true), leaf(r, true)]))),
            ]),
        });
    }
    match conjuncts.len() {
        0 => Predicate::True,
        1 => conjuncts.pop().unwrap(),
        _ => Predicate::And(conjuncts),
    }
}

fn bin(op: usize, a: Expr, b: Expr) -> Expr {
    let (a, b) = (Box::new(a), Box::new(b));
    match op {
        0 => Expr::Add(a, b),
        1 => Expr::Sub(a, b),
        2 => Expr::Mul(a, b),
        _ => Expr::Div(a, b),
    }
}

fn arithmetic(r: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || r.chance(35) {
        return match r.below(10) {
            0 => Expr::lit(Value::Null),
            1 => Expr::lit(r.below(5) as i64), // 0 divides to NULL
            2 => Expr::lit(Value::double(0.5)),
            3 if r.chance(15) => Expr::col(S), // an error unless every row is NULL
            _ => Expr::col(r.pick(&[G, V, V, D, K])),
        };
    }
    bin(
        r.below(4),
        arithmetic(r, depth - 1),
        arithmetic(r, depth - 1),
    )
}

struct Plan {
    pred: Predicate,
    project: Option<Vec<Expr>>,
    /// Join to the dimension on `fact.g = dim.gid`; `Some(true)` puts the
    /// dimension on the left.
    join: Option<bool>,
    /// A row-only node in front of the dimension scan.
    dim_rows: bool,
    group_by: Vec<usize>,
    aggs: Vec<(AggFunc, usize)>,
    optimize: bool,
    old_snapshot: bool,
}

fn plan(seed: u64) -> Plan {
    let r = &mut Rng(seed);
    let pred = predicate(r);
    let join = r.chance(30).then(|| r.chance(40));
    let project = (join.is_none() && r.chance(50)).then(|| {
        (0..2 + r.below(4))
            .map(|_| match r.chance(40) {
                true => Expr::col(r.below(FACT_ARITY)),
                false => arithmetic(r, 2),
            })
            .collect::<Vec<_>>()
    });
    // Positions of the aggregate's input columns.
    let inputs: Vec<usize> = match (&project, join) {
        (Some(exprs), _) => (0..exprs.len()).collect(),
        (None, None) => (0..FACT_ARITY).collect(),
        (None, Some(dim_left)) => {
            let (fact_at, dim_at) = if dim_left { (4, 0) } else { (0, FACT_ARITY) };
            [G, S, V, D]
                .iter()
                .map(|c| fact_at + c)
                .chain([DIM_GID, DIM_NAME, DIM_W].iter().map(|c| dim_at + c))
                .collect()
        }
    };
    let group_by = (0..r.below(3)).map(|_| r.pick(&inputs)).collect();
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    let aggs = (0..1 + r.below(3))
        .map(|_| (r.pick(&funcs), r.pick(&inputs)))
        .collect();
    Plan {
        pred,
        project,
        join,
        dim_rows: r.chance(25),
        group_by,
        aggs,
        optimize: r.chance(75),
        old_snapshot: r.chance(35),
    }
}

fn row_only(q: Query) -> Query {
    q.custom("rows", Arc::new(Ok))
}

/// Build the plan's query; `oracle` puts a row-only node behind every scan.
fn query(p: &Plan, f: &Fixture, oracle: bool) -> Query {
    let scan = |src: ScanSource, rows: bool| match rows {
        true => row_only(Query::scan(src)),
        false => Query::scan(src),
    };
    let mut q = scan(f.fact.source(), oracle).filter(p.pred.clone());
    if let Some(exprs) = &p.project {
        q = q.project(exprs.iter().map(|e| ("e", e.clone())).collect());
    }
    if let Some(dim_left) = p.join {
        let dim = scan(Arc::clone(&f.dim).into(), oracle || p.dim_rows);
        q = match dim_left {
            true => dim.join(q, DIM_GID, G),
            false => q.join(dim, G, DIM_GID),
        };
    }
    q.aggregate(p.group_by.clone(), p.aggs.clone())
}

fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            let (x, y) = (x.0, y.0);
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

fn assert_same(batch: &ResultSet, oracle: &ResultSet, what: &str) {
    assert_eq!(batch.columns, oracle.columns, "{what}");
    assert_eq!(batch.rows.len(), oracle.rows.len(), "group count: {what}");
    for (x, y) in batch.rows.iter().zip(&oracle.rows) {
        assert!(
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b)),
            "{what}\n batch  {x:?}\n oracle {y:?}"
        );
    }
}

fn check(seed: u64) {
    let p = plan(seed);
    for (fi, f) in fixtures().iter().enumerate() {
        let snapshot = if p.old_snapshot { f.old } else { f.new };
        let mut g = query(&p, f, false).compile();
        if p.optimize {
            hana_calc::optimize(&mut g);
        }
        let what = format!("seed {seed} fixture {fi}\n{}", g.explain());
        let mut ex = Executor::new(snapshot);
        let batch = ex.run(&g);
        // With its filter fused by the optimizer (or none to fuse), the
        // fact scan was folded over batches, never materialized — and so
        // was the dimension's, unless row-only. An unoptimized filter keeps
        // the plan on the row path: a second reference.
        let fused = p.optimize || p.pred == Predicate::True;
        let row_scans = (p.join.is_some() && p.dim_rows) as usize;
        if batch.is_ok() && fused {
            assert_eq!(ex.stats().full_scans, row_scans, "{what}");
            assert!(ex.stats().indexed_scans >= 1, "{what}");
        }
        let mut oracle_ex = Executor::new(snapshot);
        let oracle = oracle_ex.run(&query(&p, f, true).compile());
        match (batch, oracle) {
            (Ok(b), Ok(o)) => {
                assert!(
                    oracle_ex.stats().full_scans >= 1,
                    "oracle used the batch path"
                );
                assert_same(&b, &o, &what);
            }
            (Err(_), Err(_)) => {}
            (b, o) => panic!("{what}\n batch {b:?}\n oracle {o:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_folds_equal_the_row_executor(seed in any::<u64>()) {
        check(seed);
    }
}

/// The oracle's own input: a scan materialized at the root returns exactly
/// the rows the op stream left committed at each snapshot — no invisible
/// version, no uncommitted row, every stage (the L1 leg included) present
/// — and a transaction's own snapshot adds exactly its own writes. Rows,
/// point and range lookups and batch folds share one storage scan, so this
/// is what makes the equivalence above fail when that scan drops the
/// visibility AND or a stage.
#[test]
fn scanned_rows_match_the_model() {
    use std::ops::Bound::{Excluded, Included, Unbounded};
    let ranges = [
        // Across the passive / active main boundary.
        (
            K,
            Included(Value::Int(19_990)),
            Excluded(Value::Int(20_010)),
        ),
        // Across frozen L2, open L2 and L1, with the uncommitted keys.
        (K, Excluded(Value::Int(23_850)), Unbounded),
        // A nullable column, negative values (odd rounds' updates) too.
        (V, Included(Value::Int(-5_100)), Excluded(Value::Int(-150))),
    ];
    for (fi, f) in fixtures().iter().enumerate() {
        let snapshots = [
            (f.old, &f.model_old),
            (f.new, &f.model_new),
            (f.own, &f.model_own),
        ];
        for (si, (snapshot, model)) in snapshots.into_iter().enumerate() {
            let g = Query::scan(f.fact.source()).compile();
            let mut rows = Executor::new(snapshot).run(&g).unwrap().rows;
            rows.sort();
            let want: Vec<&Vec<Value>> = model.values().collect();
            assert_eq!(rows.len(), want.len(), "fixture {fi} snapshot {si}");
            assert!(rows.iter().zip(want).all(|(a, b)| a == b), "fixture {fi}");
            let read = f.fact.source().read_at(snapshot);
            for &k in &f.tracked {
                let want: Vec<Vec<Value>> = model.get(&k).cloned().into_iter().collect();
                let got = read.point(K, &Value::Int(k)).unwrap();
                assert_eq!(got, want, "fixture {fi} snapshot {si} key {k}");
            }
            for (col, lo, hi) in &ranges {
                let mut got = read.range(*col, lo.as_ref(), hi.as_ref()).unwrap();
                got.sort();
                let pred = ColumnPredicate::Range(*col, lo.clone(), hi.clone());
                let want: Vec<&Vec<Value>> = model
                    .values()
                    .filter(|r| pred.matches_value(&r[*col]))
                    .collect();
                assert!(!want.is_empty(), "{pred:?}");
                assert_eq!(got.len(), want.len(), "fixture {fi} snapshot {si} {pred:?}");
                assert!(got.iter().zip(want).all(|(a, b)| a == b), "{pred:?}");
            }
            // And the fold over the same scan counts the same rows.
            let g = Query::scan(f.fact.source())
                .aggregate(vec![], vec![(AggFunc::Count, 0), (AggFunc::Sum, K)])
                .compile();
            let rs = Executor::new(snapshot).run(&g).unwrap();
            let keys: i64 = model.keys().sum();
            assert_eq!(
                rs.rows[0],
                vec![Value::Int(model.len() as i64), Value::double(keys as f64)]
            );
        }
    }
}

/// Pinned shapes: the benchmark's statements (Q1–Q6 of `bench/e2e`) and
/// the corners random plans reach too rarely — division by zero, integral
/// vs fractional results as keys and extremes, NULL join keys next to a
/// colliding dictionary code, NULL literals under `Not`/`Or`.
#[test]
fn pinned_shapes_agree() {
    use AggFunc::{Avg, Count, Max, Min, Sum};
    let col = Expr::col;
    let red = || Predicate::Eq(S, Value::str("red"));
    let div = |a: Expr, b: Expr| Expr::Div(Box::new(a), Box::new(b));
    let sub = |a: Expr, b: Expr| Expr::Sub(Box::new(a), Box::new(b));
    type Shape = (
        Predicate,
        Option<Vec<Expr>>,
        Option<bool>,
        Vec<usize>,
        Vec<(AggFunc, usize)>,
    );
    let shapes: Vec<Shape> = vec![
        (Predicate::True, None, None, vec![], vec![(Sum, V)]),
        (
            Predicate::True,
            None,
            None,
            vec![S],
            vec![(Count, 0), (Sum, V)],
        ),
        (red(), None, None, vec![], vec![(Count, 0), (Sum, V)]),
        (Predicate::True, None, None, vec![G], vec![(Count, 0)]),
        (
            Predicate::Between(V, Value::Int(100), Value::Int(600)),
            Some(vec![col(V).mul(col(G))]),
            None,
            vec![],
            vec![(Sum, 0)],
        ),
        (
            red(),
            None,
            Some(false),
            vec![FACT_ARITY + DIM_NAME],
            vec![(Sum, V)],
        ),
        // v / (g - 2) divides by zero; v / 2 is Int or Double by row.
        (
            Predicate::True,
            Some(vec![
                div(col(V), sub(col(G), Expr::lit(2))),
                div(col(V), Expr::lit(2)),
                col(D).mul(Expr::lit(2)),
                col(G).add(Expr::lit(1)),
            ]),
            None,
            vec![3],
            vec![(Sum, 0), (Min, 1), (Max, 1), (Avg, 2), (Count, 0), (Min, 0)],
        ),
        (
            Predicate::Gt(K, Value::Int(19_000)),
            Some(vec![div(col(V), Expr::lit(2)), col(S)]),
            None,
            vec![0, 1],
            vec![(Count, 0), (Max, 1)],
        ),
        // The dimension on the left, grouped by a fact column with NULLs.
        (
            Predicate::Ne(S, Value::str("teal")),
            None,
            Some(true),
            vec![4 + G, DIM_NAME],
            vec![(Min, DIM_W), (Max, 4 + D), (Avg, 4 + V), (Count, 0)],
        ),
        // Extremes over raw codes: the active part's own dictionary holds
        // values below the passive part's, under larger codes (read at the
        // old snapshot, before the deltas add lower values still).
        (
            Predicate::True,
            None,
            None,
            vec![G],
            vec![(Min, V), (Max, V), (Min, S), (Max, D)],
        ),
        (
            Predicate::And(vec![
                Predicate::Not(Box::new(Predicate::Lt(V, Value::Null))),
                Predicate::Or(vec![
                    Predicate::Gt(G, Value::Null),
                    Predicate::Between(D, Value::Null, Value::double(3.0)),
                ]),
                Predicate::Ne(S, Value::Null),
            ]),
            None,
            None,
            vec![G, S],
            vec![(Min, S), (Max, K), (Avg, D)],
        ),
    ];
    for (q, (pred, project, join, group_by, aggs)) in shapes.into_iter().enumerate() {
        let p = Plan {
            pred,
            project,
            join,
            dim_rows: false,
            group_by,
            aggs,
            optimize: true,
            old_snapshot: q % 2 == 1,
        };
        for f in fixtures() {
            let snapshot = if p.old_snapshot { f.old } else { f.new };
            let mut g = query(&p, f, false).compile();
            hana_calc::optimize(&mut g);
            let mut ex = Executor::new(snapshot);
            let batch = ex.run(&g).unwrap();
            assert_eq!(ex.stats().full_scans, 0, "shape {q} materialized a scan");
            let oracle = Executor::new(snapshot)
                .run(&query(&p, f, true).compile())
                .unwrap();
            assert!(!oracle.rows.is_empty());
            assert_same(&batch, &oracle, &format!("shape {q}"));
        }
    }
}

/// The statement counters that do not depend on scheduling.
fn work(s: &ExecStats) -> [u64; 7] {
    [
        s.indexed_scans as u64,
        s.full_scans as u64,
        s.parts_pruned as u64,
        s.chunks_pruned as u64,
        s.zone_pruned_rows,
        s.code_filtered_rows,
        s.residue_rows,
    ]
}

/// A single table is a one-shard read: a one-partition table answers
/// filtered scans and random plans exactly like the unpartitioned table —
/// the same rows in the same order, the same aggregates bit for bit, the
/// same scan work.
#[test]
fn one_partition_table_reads_like_the_single_table() {
    let (single, one) = single_and_one_partition();
    let filters = [
        vec![],
        vec![ColumnPredicate::Eq(S, Value::str("red"))],
        vec![
            ColumnPredicate::Range(
                K,
                std::ops::Bound::Included(Value::Int(19_000)),
                std::ops::Bound::Excluded(Value::Int(24_500)),
            ),
            ColumnPredicate::IsNull(D),
        ],
    ];
    assert_eq!((one.old, one.new), (single.old, single.new));
    for snapshot in [single.new, single.old] {
        let (a, b) = (
            single.fact.source().read_at(snapshot),
            one.fact.source().read_at(snapshot),
        );
        assert_eq!(a.stage_row_counts(), b.stage_row_counts());
        assert_eq!(a.count(), b.count());
        assert_eq!(
            a.aggregate_numeric(D).unwrap(),
            b.aggregate_numeric(D).unwrap()
        );
        assert_eq!(
            a.group_aggregate(S, V).unwrap(),
            b.group_aggregate(S, V).unwrap()
        );
        for preds in &filters {
            let (rows_a, st_a) = a.scan_filtered(preds, None).unwrap();
            let (rows_b, st_b) = b.scan_filtered(preds, None).unwrap();
            assert_eq!(rows_a, rows_b, "{preds:?}");
            assert_eq!(st_a.work(), st_b.work(), "{preds:?}");
        }
    }
    for seed in 0..24 {
        let p = plan(seed);
        let snapshot = if p.old_snapshot {
            single.old
        } else {
            single.new
        };
        let mut results = Vec::new();
        for f in [single, one] {
            let mut g = query(&p, f, false).compile();
            if p.optimize {
                hana_calc::optimize(&mut g);
            }
            let mut ex = Executor::new(snapshot);
            let rs = ex.run(&g).ok();
            results.push((rs, work(ex.stats())));
        }
        assert_eq!(results[0], results[1], "seed {seed}");
    }
}
