//! The L1-delta answers key lookups from per-segment key tables.
//!
//! The walk moves a keyed table through every state an L1 key table must
//! survive — a fresh L1 over several segments, a view pinned across an
//! L1→L2 merge, the truncated L1, an aborted insert, two versions of an
//! updated key, and a non-key `update_where` — and at each step checks
//! `Constraint` / `WriteConflict` / `NotFound` and point reads against an
//! independent model. A key `Eq` tests only the L1 versions of its key.

use hana_common::{ColumnDef, ColumnId, DataType, HanaError, Schema, TableConfig, Value};
use hana_core::{ColumnPredicate, TableRead, UnifiedTable};
use hana_txn::{IsolationLevel, Snapshot, Transaction, TxnManager};
use std::collections::BTreeMap;
use std::sync::Arc;

const K: usize = 0;
const C: usize = 1;
const V: usize = 2;
/// Rows the fresh L1 starts with: three segments of 1024 slots.
const ROWS: i64 = 3_000;

/// Key → v of every committed row; the city is a function of the key.
type Model = BTreeMap<i64, i64>;

/// A city of its own for every key, so a non-key write addresses one row.
fn city(k: i64) -> Value {
    Value::str(format!("c{k}"))
}

fn row(k: i64, v: i64) -> Vec<Value> {
    vec![Value::Int(k), city(k), Value::Int(v)]
}

struct Walk {
    mgr: Arc<TxnManager>,
    t: Arc<UnifiedTable>,
    model: Model,
}

impl Walk {
    fn new() -> Self {
        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::new("k", DataType::Int).unique(),
                ColumnDef::new("c", DataType::Str),
                ColumnDef::new("v", DataType::Int),
            ],
        )
        .unwrap();
        // One L1→L2 step moves 1 500 slots: a whole segment and part of
        // the next.
        let cfg = TableConfig {
            l1_max_rows: 1_500,
            l2_max_rows: usize::MAX / 2,
            ..TableConfig::default()
        };
        let mgr = TxnManager::new();
        let t = UnifiedTable::standalone(schema, cfg, Arc::clone(&mgr));
        Walk {
            mgr,
            t,
            model: Model::new(),
        }
    }

    fn begin(&self) -> Transaction {
        self.mgr.begin(IsolationLevel::Transaction)
    }

    fn commit(&self, mut txn: Transaction) {
        txn.commit().unwrap();
        self.t.finish_txn(txn.id());
    }

    fn abort(&self, mut txn: Transaction) {
        txn.abort().unwrap();
        self.t.finish_txn(txn.id());
    }

    fn now(&self) -> TableRead {
        self.t.read_at(Snapshot::at(self.mgr.now()))
    }

    fn update(&mut self, k: i64, v: i64) {
        let txn = self.begin();
        let set = [(ColumnId(V as u16), Value::Int(v))];
        self.t
            .update_where(&txn, ColumnId(K as u16), &Value::Int(k), &set)
            .unwrap();
        self.commit(txn);
        self.model.insert(k, v);
    }

    /// Point reads of `read` agree with `model` for a sample of keys and
    /// for keys never inserted; a key `Eq` tests only its L1 versions.
    fn check_reads(&self, step: &str, read: &TableRead, model: &Model) {
        assert_eq!(read.count(), model.len(), "{step}");
        let sample = model.keys().copied().step_by(97).chain([ROWS + 7, -1]);
        let touched = [0, 1, 1_023, 1_024, 1_500, 2_047, 2_048, ROWS - 1];
        for k in sample.chain(touched) {
            let want: Vec<Vec<Value>> = model.get(&k).map(|&v| row(k, v)).into_iter().collect();
            let key = ColumnPredicate::Eq(K, Value::Int(k));
            let (rows, stats) = read
                .scan_filtered(std::slice::from_ref(&key), None)
                .unwrap();
            let got: Vec<Vec<Value>> = rows.into_iter().map(|r| r.values).collect();
            assert_eq!(got, want, "{step}: key {k}");
            assert_eq!(
                read.point(K, &Value::Int(k)).unwrap(),
                want,
                "{step}: point {k}"
            );
            let l1_versions = read
                .debug_versions(K, &Value::Int(k))
                .iter()
                .filter(|v| v.3.starts_with("l1@"))
                .count();
            assert_eq!(stats.rowwise_rows, l1_versions as u64, "{step}: key {k}");
        }
    }

    /// Writes against the current state: a visible key is a duplicate, an
    /// absent one inserts and updates as `NotFound`.
    fn check_writes(&self, step: &str) {
        let txn = self.begin();
        for (&k, _) in self.model.iter().step_by(211) {
            let err = self.t.insert(&txn, row(k, 0)).unwrap_err();
            assert!(
                matches!(err, HanaError::Constraint(_)),
                "{step}: {k}: {err}"
            );
        }
        let absent = Value::Int(ROWS + 7);
        let set = [(ColumnId(V as u16), Value::Int(1))];
        let err = self.t.update_where(&txn, ColumnId(K as u16), &absent, &set);
        assert!(
            matches!(err, Err(HanaError::NotFound(_))),
            "{step}: {err:?}"
        );
        let err = self.t.delete_where(&txn, ColumnId(K as u16), &absent);
        assert!(
            matches!(err, Err(HanaError::NotFound(_))),
            "{step}: {err:?}"
        );
        self.t.insert(&txn, row(ROWS + 7, 0)).unwrap();
        self.abort(txn);
    }

    fn check(&self, step: &str) {
        self.check_reads(step, &self.now(), &self.model);
        self.check_writes(step);
    }
}

#[test]
fn l1_key_lookups_agree_with_the_model_through_the_life_cycle() {
    let mut w = Walk::new();

    // A fresh L1 over three segments.
    for chunk in (0..ROWS).collect::<Vec<_>>().chunks(700) {
        let txn = w.begin();
        for &k in chunk {
            w.t.insert(&txn, row(k, k)).unwrap();
            w.model.insert(k, k);
        }
        w.commit(txn);
    }
    assert_eq!(w.t.stage_stats().l1_rows, ROWS as usize);
    w.check("fresh L1");
    // An in-flight insert's key conflicts with a second writer's.
    let pending = w.begin();
    w.t.insert(&pending, row(ROWS, 0)).unwrap();
    let other = w.begin();
    let err = w.t.insert(&other, row(ROWS, 1)).unwrap_err();
    assert!(matches!(err, HanaError::WriteConflict(_)), "{err}");
    w.abort(other);
    w.commit(pending);
    w.model.insert(ROWS, 0);

    // A view pinned before an L1→L2 merge keeps reading its L1 slots,
    // including those of the segment the merge drops.
    let pinned = w.now();
    let pinned_model = w.model.clone();
    assert_eq!(w.t.merge_l1().unwrap(), 1_500);
    // Behind the 3 000 rows: the aborted probe insert and the committed one.
    let s = w.t.stage_stats();
    assert_eq!((s.l1_rows, s.l2_rows), (ROWS as usize + 2 - 1_500, 1_500));
    w.check_reads("pinned across the merge", &pinned, &pinned_model);

    // The truncated L1: moved keys are found in the L2, the rest still in
    // the L1's key tables (the cut runs through a segment).
    w.check("truncated L1");

    // An aborted insert leaves a dead slot its key table still names.
    let txn = w.begin();
    w.t.insert(&txn, row(ROWS + 1, 0)).unwrap();
    w.abort(txn);
    w.check("aborted insert");
    let txn = w.begin();
    w.t.insert(&txn, row(ROWS + 1, 5)).unwrap();
    w.commit(txn);
    w.model.insert(ROWS + 1, 5);
    w.check("aborted key re-inserted");

    // Two new versions of an L1 key and of an L2 key; a view pinned
    // between them reads the middle one, and a writer on that older
    // snapshot conflicts.
    for k in [2_500, 700] {
        w.update(k, -1);
        let middle = w.now();
        let middle_model = w.model.clone();
        let stale = w.begin();
        w.update(k, -2);
        w.check_reads("between two updates", &middle, &middle_model);
        let set = [(ColumnId(V as u16), Value::Int(-3))];
        let err =
            w.t.update_where(&stale, ColumnId(K as u16), &Value::Int(k), &set)
                .unwrap_err();
        assert!(matches!(err, HanaError::WriteConflict(_)), "{k}: {err}");
        w.abort(stale);
        let versions = w.now().debug_versions(K, &Value::Int(k));
        assert_eq!(
            versions.iter().filter(|v| v.3.starts_with("l1@")).count(),
            2 + (k >= 1_500) as usize
        );
        w.check("two versions of an updated key");
    }

    // A non-key `update_where` walks the L1 and still finds one row.
    let txn = w.begin();
    let set = [(ColumnId(V as u16), Value::Int(-9))];
    w.t.update_where(&txn, ColumnId(C as u16), &city(2_900), &set)
        .unwrap();
    let err =
        w.t.update_where(&txn, ColumnId(C as u16), &Value::str("nowhere"), &set)
            .unwrap_err();
    assert!(matches!(err, HanaError::NotFound(_)), "{err}");
    w.commit(txn);
    w.model.insert(2_900, -9);
    w.check("non-key update");
}
