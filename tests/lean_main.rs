//! A main part holds its column data, an inverted index on key columns
//! only, frame-of-reference packed record ids and two stamps per row.
//!
//! * Every other column answers an equality by scanning its codes. The
//!   stage walk moves rows of a table with a unique key and a nullable
//!   non-key column through the record life cycle — L1, open L2, frozen +
//!   open L2, one main part, passive + active main — and at each stage
//!   checks the non-key column's `point`, `range`, `update_where`,
//!   `delete_where` and `debug_versions` against an independent model, that
//!   duplicate and in-flight key inserts are still rejected, and that a
//!   part's bytes beyond its column data are exactly the key index, the
//!   packed ids and the stamps.
//! * The packed ids survive any id set (spans beyond 2³², empty and
//!   single-row parts) through `MainPart::row_id`, the batch scan and a
//!   savepoint image's encode/decode.

use hana_common::RowId;
use hana_common::{
    ColumnDef, ColumnId, DataType, HanaError, Schema, TableConfig, Value, COMMIT_TS_MAX,
};
use hana_core::UnifiedTable;
use hana_merge::MergeDecision;
use hana_persist::{Decoder, DeltaImage, Encoder, PartImage, TableImage};
use hana_txn::{IsolationLevel, Snapshot, Transaction, TxnManager};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

const K: usize = 0;
const C: usize = 1;
const V: usize = 2;
const CITIES: [&str; 5] = ["Campbell", "Daly City", "Los Gatos", "Milpitas", "Saratoga"];

/// Key → (city, v) of every committed, visible row.
type Model = BTreeMap<i64, (Value, i64)>;

/// Rows with `k % 10 == 3` carry a city of their own, so a non-key write
/// can address exactly one row; every 7th row's city is NULL.
fn city(k: i64) -> Value {
    match (k % 10, k % 7) {
        (3, _) => Value::str(format!("u{k}")),
        (_, 0) => Value::Null,
        _ => Value::str(CITIES[k as usize % CITIES.len()]),
    }
}

fn row(k: i64, model: &mut Model) -> Vec<Value> {
    model.insert(k, (city(k), k));
    vec![Value::Int(k), city(k), Value::Int(k)]
}

/// Rows in key order (`point` and `range` return them in stage order).
fn by_key(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| a[K].cmp(&b[K]));
    rows
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
        let cfg = TableConfig {
            l1_max_rows: usize::MAX / 2,
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

    fn commit(&self, mut txn: Transaction) {
        txn.commit().unwrap();
        self.t.finish_txn(txn.id());
    }

    fn insert(&mut self, keys: std::ops::Range<i64>) {
        let txn = self.mgr.begin(IsolationLevel::Transaction);
        for k in keys {
            self.t.insert(&txn, row(k, &mut self.model)).unwrap();
        }
        self.commit(txn);
    }

    /// The model's rows whose city satisfies `keep`, in key order.
    fn expect(&self, keep: impl Fn(&Value) -> bool) -> Vec<Vec<Value>> {
        let rows = self.model.iter().filter(|(_, (c, _))| keep(c));
        rows.map(|(&k, (c, v))| vec![Value::Int(k), c.clone(), Value::Int(*v)])
            .collect()
    }

    /// Check every read and write path of the non-key column at `stage`;
    /// `upd` and `del` are keys (with cities of their own) whose current
    /// versions live in that stage.
    fn check(&mut self, stage: &str, upd: i64, del: i64) {
        self.check_reads(stage);
        let c = ColumnId(C as u16);
        // A non-key predicate addressing exactly one row updates it ...
        let txn = self.mgr.begin(IsolationLevel::Transaction);
        let v = Value::Int(upd + 1000);
        self.t
            .update_where(&txn, c, &city(upd), &[(ColumnId(V as u16), v)])
            .unwrap_or_else(|e| panic!("{stage}: update {upd}: {e}"));
        // ... or deletes it; one matching several rows is refused.
        self.t
            .delete_where(&txn, c, &city(del))
            .unwrap_or_else(|e| panic!("{stage}: delete {del}: {e}"));
        let shared = Value::str(CITIES[0]);
        let err = self.t.delete_where(&txn, c, &shared).unwrap_err();
        assert!(matches!(err, HanaError::Constraint(_)), "{stage}: {err}");
        let err = self
            .t
            .delete_where(&txn, c, &Value::str("nowhere"))
            .unwrap_err();
        assert!(matches!(err, HanaError::NotFound(_)), "{stage}: {err}");
        self.commit(txn);
        self.model.get_mut(&upd).unwrap().1 = upd + 1000;
        self.model.remove(&del);
        self.check_reads(stage);
        // The deleted version is still physically there, invisible now.
        let read = self.t.read_at(Snapshot::at(self.mgr.now()));
        let versions = read.debug_versions(C, &city(del));
        assert_eq!(versions.len(), 1, "{stage}: {versions:?}");
        assert!(!versions[0].4 && versions[0].2 != COMMIT_TS_MAX, "{stage}");
        let updated = read.point(C, &city(upd)).unwrap();
        assert_eq!(updated[0][V], Value::Int(upd + 1000), "{stage}");
    }

    fn check_reads(&self, stage: &str) {
        let read = self.t.read_at(Snapshot::at(self.mgr.now()));
        assert_eq!(read.count(), self.model.len(), "{stage}");
        let mut cities: Vec<Value> = CITIES.iter().map(|&c| Value::str(c)).collect();
        cities.extend(self.model.keys().filter(|k| *k % 10 == 3).map(|&k| city(k)));
        cities.push(Value::str("nowhere"));
        for c in &cities {
            let want = self.expect(|v| v == c);
            let got = by_key(read.point(C, c).unwrap());
            assert_eq!(got, want, "{stage}: point {c}");
            let visible = read.debug_versions(C, c).iter().filter(|v| v.4).count();
            assert_eq!(visible, want.len(), "{stage}: debug_versions {c}");
        }
        assert!(read.point(C, &Value::Null).unwrap().is_empty(), "{stage}");
        let (lo, hi) = (Value::str("C"), Value::str("M"));
        let got = by_key(
            read.range(C, Bound::Included(&lo), Bound::Excluded(&hi))
                .unwrap(),
        );
        let want = self.expect(|v| !v.is_null() && (&lo..&hi).contains(&v));
        assert_eq!(got, want, "{stage}: range");
        for (&k, (c, v)) in self.model.iter().step_by(7) {
            let want = vec![vec![Value::Int(k), c.clone(), Value::Int(*v)]];
            let got = read.point(K, &Value::Int(k)).unwrap();
            assert_eq!(got, want, "{stage}: key {k}");
        }
        // A visible key is a duplicate in every stage.
        let first = *self.model.keys().next().unwrap();
        let txn = self.mgr.begin(IsolationLevel::Transaction);
        let dup = vec![Value::Int(first), Value::Null, Value::Int(0)];
        let err = self.t.insert(&txn, dup).unwrap_err();
        assert!(matches!(err, HanaError::Constraint(_)), "{stage}: {err}");
        self.commit(txn);
    }

    /// A second writer's insert of a key an in-flight transaction holds is
    /// a write conflict.
    fn in_flight_key_conflicts(&self, stage: &str, key: i64) {
        let txn = self.mgr.begin(IsolationLevel::Transaction);
        let err = self
            .t
            .insert(&txn, vec![Value::Int(key), Value::Null, Value::Int(0)])
            .unwrap_err();
        assert!(matches!(err, HanaError::WriteConflict(_)), "{stage}: {err}");
        self.commit(txn);
    }
}

#[test]
fn non_key_lookups_agree_with_the_model_in_every_stage() {
    let mut w = Walk::new();
    w.insert(0..60);
    // An uncommitted key in L1.
    let pending = w.mgr.begin(IsolationLevel::Transaction);
    let held = vec![Value::Int(900), Value::Null, Value::Int(0)];
    w.t.insert(&pending, held).unwrap();
    w.in_flight_key_conflicts("L1", 900);
    w.check("L1", 3, 13);
    w.commit(pending);
    w.model.insert(900, (Value::Null, 0));

    w.t.drain_l1().unwrap();
    assert_eq!(w.t.stage_stats().l1_rows, 0);
    w.check("open L2", 23, 33);

    // An in-flight bulk load puts an uncommitted key into the open L2; the
    // delta merge that then starts cannot settle it and leaves the L2
    // frozen, and later rows reach a fresh open L2.
    let pending = w.mgr.begin(IsolationLevel::Transaction);
    let held = vec![vec![Value::Int(1000), Value::str("Gilroy"), Value::Int(0)]];
    w.t.bulk_load(&pending, held).unwrap();
    let err = w.t.merge_delta_as(MergeDecision::Classic).unwrap_err();
    assert!(err.is_retryable(), "{err}");
    w.insert(60..120);
    w.t.drain_l1().unwrap();
    let s = w.t.stage_stats();
    assert!(s.l2_frozen_rows > 0 && s.l2_rows > 0 && s.l1_rows == 0);
    w.in_flight_key_conflicts("frozen L2", 1000);
    w.check("frozen L2", 43, 53);
    w.check("open L2 beside a frozen one", 63, 73);
    w.commit(pending);
    w.model.insert(1000, (Value::str("Gilroy"), 0));

    w.t.merge_delta_as(MergeDecision::Classic).unwrap();
    assert_eq!(w.t.stage_stats().main_parts, 1);
    w.check("main", 83, 93);

    w.insert(120..180);
    w.t.drain_l1().unwrap();
    w.t.merge_delta_as(MergeDecision::Partial).unwrap();
    let s = w.t.stage_stats();
    assert_eq!((s.main_parts, s.l1_rows, s.l2_rows), (2, 0, 0));
    w.check("passive main", 103, 113);
    w.check("active main", 123, 133);

    // Beyond its column data a part holds exactly the key column's index,
    // its record ids packed at the width of their span, and two stamps per
    // row; the non-key columns carry no index.
    let read = w.t.read_at(Snapshot::at(w.mgr.now()));
    for part in read.main().parts() {
        let n = part.len();
        let index = (part.null_code(K) as usize + 2 + n) * 4;
        let ids: Vec<u64> = part.row_ids().map(|id| id.0).collect();
        let span = ids.iter().max().unwrap() - ids.iter().min().unwrap();
        let width = (u64::BITS - span.leading_zeros()) as usize;
        let packed_ids = (n * width).div_ceil(64) * 8;
        let stamps = n * 16;
        assert_eq!(
            part.approx_bytes() - part.data_bytes(),
            index + packed_ids + stamps,
            "part of {n} rows"
        );
    }
}

/// A one-part image of a one-column keyed table whose rows carry `ids`.
fn image_with_ids(schema: &Schema, ids: &[u64]) -> TableImage {
    let n = ids.len();
    TableImage {
        table_id: 0,
        schema: schema.clone(),
        config: TableConfig::default(),
        next_row_id: ids.iter().max().map_or(0, |&m| m.saturating_add(1)),
        next_generation: 2,
        l1_rows: Vec::new(),
        l2: DeltaImage {
            generation: 1,
            rows: Vec::new(),
        },
        main_parts: vec![PartImage {
            generation: 0,
            columns: vec![(
                (0..n as i64).map(Value::Int).collect(),
                0,
                (0..n as u32).collect(),
            )],
            zones: Vec::new(),
            row_ids: ids.iter().map(|&id| RowId(id)).collect(),
            begins: vec![1; n],
            ends: vec![COMMIT_TS_MAX; n],
        }],
        passive_count: 1,
        history: Vec::new(),
    }
}

fn encode_decode(img: &TableImage) -> TableImage {
    let mut e = Encoder::new();
    img.encode(&mut e);
    TableImage::decode(&mut Decoder::new(&e.into_bytes())).unwrap()
}

/// Id sets: arbitrary `u64`s (spans up to 2⁶⁴), or a dense run above an
/// arbitrary base, shuffled, from empty to a few hundred rows.
fn id_sets() -> impl Strategy<Value = Vec<u64>> {
    let arbitrary = prop::collection::vec(any::<u64>(), 0..40);
    let dense = (any::<u64>(), 1u64..1 << 40, 0usize..300).prop_map(|(base, span, n)| {
        let base = base.min(u64::MAX - span);
        (0..n as u64)
            .map(|i| base + i.wrapping_mul(0x9E37_79B9) % span)
            .collect()
    });
    (prop_oneof![arbitrary, dense], any::<u64>()).prop_map(|(ids, mut seed)| {
        let mut ids: Vec<u64> = ids
            .into_iter()
            .collect::<BTreeSet<u64>>()
            .into_iter()
            .collect();
        for i in (1..ids.len()).rev() {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ids.swap(i, (seed >> 33) as usize % (i + 1));
        }
        ids
    })
}

proptest! {
    #[test]
    fn packed_row_ids_round_trip(ids in id_sets()) {
        let schema =
            Schema::new("t", vec![ColumnDef::new("k", DataType::Int).unique()]).unwrap();
        let img = image_with_ids(&schema, &ids);
        let mgr = TxnManager::new();
        let t = UnifiedTable::standalone(schema, TableConfig::default(), Arc::clone(&mgr));
        t.load_image(&encode_decode(&img), &|_| None).unwrap();
        let read = t.read_at(Snapshot::at(1));
        let part = &read.main().parts()[0];
        prop_assert_eq!(part.len(), ids.len());
        for (pos, &id) in ids.iter().enumerate() {
            prop_assert_eq!(part.row_id(pos as u32), RowId(id));
        }
        // The batch scan reports the same ids in position order.
        let (rows, _) = read.scan_filtered(&[], None).unwrap();
        let scanned: Vec<u64> = rows.iter().map(|r| r.row_id.0).collect();
        prop_assert_eq!(&scanned, &ids);
        // The next savepoint images plain ids: the format is unchanged.
        let again = t.to_image();
        prop_assert_eq!(&again.main_parts[0].row_ids, &img.main_parts[0].row_ids);
        prop_assert_eq!(&encode_decode(&again).main_parts, &again.main_parts);
    }
}
