//! The L2-delta: column format with unsorted dictionaries.
//!
//! Paper §3: *"the L2-delta employs dictionary encoding to achieve better
//! memory usage. However, for performance reasons, the dictionary is
//! unsorted requiring secondary index structures to optimally support point
//! query access patterns."* Those structures serve the uniqueness probe
//! (§3.1), so only a key column ([`Schema::is_key`]) carries one; an
//! equality on any other column tests the value vector's codes. Appends
//! never reorganize anything — new values go to the end of the dictionary,
//! new codes to the end of the value vector, new positions of a key column
//! onto the front of their code's inverted-index chain. Readers capture a
//! row-count fence and are never invalidated.
//!
//! NULLs are stored as [`L2_NULL_CODE`] in the value vector and never enter
//! the dictionary or the inverted index.

use hana_column::{GrowableInvertedIndex, Pos};
use hana_common::{HanaError, Result, RowId, Schema, Timestamp, Value};
use hana_dict::{Code, UnsortedDict};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Sentinel code marking a NULL cell in the L2-delta value vector.
pub const L2_NULL_CODE: Code = Code::MAX;

struct L2Column {
    dict: UnsortedDict,
    codes: Vec<Code>,
    /// Code → positions chain; present on a key column only.
    index: Option<GrowableInvertedIndex>,
}

struct Inner {
    columns: Vec<L2Column>,
    row_ids: Vec<RowId>,
    begins: Vec<AtomicU64>,
    ends: Vec<AtomicU64>,
}

/// The fence-truncated raw parts of an L2-delta, borrowed under one lock
/// acquisition (see [`L2Delta::with_columns_stamped`]).
pub struct L2View<'a> {
    /// `(dictionary, codes)` per requested column.
    pub cols: Vec<(&'a UnsortedDict, &'a [Code])>,
    /// Stable record ids.
    pub row_ids: &'a [RowId],
    /// MVCC begin stamps.
    pub begins: &'a [AtomicU64],
    /// MVCC end stamps.
    pub ends: &'a [AtomicU64],
}

/// The second stage of the record life cycle.
pub struct L2Delta {
    schema: Schema,
    /// Monotonic generation tag distinguishing successive L2 instances of
    /// one table across merges.
    generation: u64,
    closed: AtomicBool,
    /// Reader fence: rows below this count are visible to new snapshots.
    /// Appends are physical first and *published* second, which lets the
    /// L1→L2 merge copy rows without any reader observing them twice (the
    /// atomic truncate-L1/publish-L2 switch happens under the table lock).
    published: AtomicU64,
    inner: RwLock<Inner>,
}

impl L2Delta {
    /// An empty, open L2-delta.
    pub fn new(schema: Schema, generation: u64) -> Self {
        let columns = (0..schema.arity())
            .map(|c| L2Column {
                dict: UnsortedDict::new(),
                codes: Vec::new(),
                index: schema.is_key(c).then(GrowableInvertedIndex::new),
            })
            .collect();
        L2Delta {
            schema,
            generation,
            closed: AtomicBool::new(false),
            published: AtomicU64::new(0),
            inner: RwLock::new(Inner {
                columns,
                row_ids: Vec::new(),
                begins: Vec::new(),
                ends: Vec::new(),
            }),
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// This instance's generation tag.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Close for updates (done when a delta-to-main merge starts: "the
    /// current L2-delta is closed for updates and a new empty L2-delta
    /// structure is created").
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// True once closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Number of rows (versions) physically stored (published or not).
    pub fn len(&self) -> usize {
        self.inner.read().row_ids.len()
    }

    /// Reader fence: number of published rows.
    pub fn published_len(&self) -> Pos {
        self.published.load(Ordering::Acquire) as Pos
    }

    /// Publish all physically appended rows to new readers; returns the new
    /// fence. Called under the owning table's write lock together with the
    /// matching L1 truncation, so the stage switch is atomic per reader.
    pub fn publish_all(&self) -> Pos {
        let n = self.inner.read().row_ids.len() as u64;
        self.published.store(n, Ordering::Release);
        n as Pos
    }

    /// True if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a row version (L1→L2 merge or bulk load). The row must match
    /// the schema; returns the new position.
    pub fn append_row(
        &self,
        row_id: RowId,
        row: &[Value],
        begin: Timestamp,
        end: Timestamp,
    ) -> Result<Pos> {
        if self.is_closed() {
            return Err(HanaError::Merge(format!(
                "L2-delta generation {} is closed for updates",
                self.generation
            )));
        }
        debug_assert_eq!(row.len(), self.schema.arity());
        let mut inner = self.inner.write();
        let pos = inner.row_ids.len() as Pos;
        // Column-by-column insert: dictionary lookup/append, then value
        // vector append (the two pivot steps of Fig 6).
        for (c, v) in row.iter().enumerate() {
            let col = &mut inner.columns[c];
            if v.is_null() {
                col.codes.push(L2_NULL_CODE);
            } else {
                let code = col.dict.get_or_insert(v);
                col.codes.push(code);
                if let Some(index) = &mut col.index {
                    index.insert(code, pos);
                }
            }
        }
        inner.row_ids.push(row_id);
        inner.begins.push(AtomicU64::new(begin));
        inner.ends.push(AtomicU64::new(end));
        Ok(pos)
    }

    /// Append many rows at once, reserving dictionary codes up front — the
    /// parallel-friendly variant the paper describes ("the number of tuples
    /// to be moved is known in advance enabling the reservation of
    /// encodings"). Returns the first assigned position.
    pub fn append_batch(&self, rows: &[(RowId, Vec<Value>, Timestamp, Timestamp)]) -> Result<Pos> {
        if self.is_closed() {
            return Err(HanaError::Merge(format!(
                "L2-delta generation {} is closed for updates",
                self.generation
            )));
        }
        let mut inner = self.inner.write();
        let first = inner.row_ids.len();
        // Column by column (independent, and positions are pre-known):
        // reserve dictionary codes for the batch's values while appending
        // the value vector, then chain a key column's new positions into
        // its index.
        for (c, col) in inner.columns.iter_mut().enumerate() {
            col.codes.reserve(rows.len());
            for (_, row, _, _) in rows {
                let v = &row[c];
                col.codes.push(if v.is_null() {
                    L2_NULL_CODE
                } else {
                    col.dict.get_or_insert(v)
                });
            }
            if let Some(index) = &mut col.index {
                index.reserve(col.dict.len(), rows.len());
                for (pos, &code) in col.codes.iter().enumerate().skip(first) {
                    if code != L2_NULL_CODE {
                        index.insert(code, pos as Pos);
                    }
                }
            }
        }
        inner.row_ids.reserve(rows.len());
        inner.begins.reserve(rows.len());
        inner.ends.reserve(rows.len());
        for (row_id, _, begin, end) in rows {
            inner.row_ids.push(*row_id);
            inner.begins.push(AtomicU64::new(*begin));
            inner.ends.push(AtomicU64::new(*end));
        }
        Ok(first as Pos)
    }

    /// The stable record id at `pos`.
    pub fn row_id(&self, pos: Pos) -> RowId {
        self.inner.read().row_ids[pos as usize]
    }

    /// MVCC begin stamp at `pos`.
    pub fn begin(&self, pos: Pos) -> Timestamp {
        self.inner.read().begins[pos as usize].load(Ordering::Acquire)
    }

    /// MVCC end stamp at `pos`.
    pub fn end(&self, pos: Pos) -> Timestamp {
        self.inner.read().ends[pos as usize].load(Ordering::Acquire)
    }

    /// Overwrite the end stamp (delete / supersede / rollback).
    pub fn store_end(&self, pos: Pos, ts: Timestamp) {
        self.inner.read().ends[pos as usize].store(ts, Ordering::Release);
    }

    /// Overwrite the begin stamp (recovery replay).
    pub fn store_begin(&self, pos: Pos, ts: Timestamp) {
        self.inner.read().begins[pos as usize].store(ts, Ordering::Release);
    }

    /// Resolve a begin-stamp mark to its committed value (GC). Races the
    /// (recovery-only) begin writers via compare-exchange.
    pub fn resolve_begin(&self, pos: Pos, old_mark: Timestamp, resolved: Timestamp) -> bool {
        self.inner.read().begins[pos as usize]
            .compare_exchange(old_mark, resolved, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Resolve an end-stamp mark to its settled value (GC). Only lands if
    /// the stamp still holds `old_mark`, so a racing deleter always wins.
    pub fn resolve_end(&self, pos: Pos, old_mark: Timestamp, resolved: Timestamp) -> bool {
        self.inner.read().ends[pos as usize]
            .compare_exchange(old_mark, resolved, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// The value at `(pos, col)`.
    pub fn value(&self, pos: Pos, col: usize) -> Value {
        let inner = self.inner.read();
        let code = inner.columns[col].codes[pos as usize];
        if code == L2_NULL_CODE {
            Value::Null
        } else {
            inner.columns[col].dict.value_of(code).clone()
        }
    }

    /// Materialize the whole row at `pos`.
    pub fn row(&self, pos: Pos) -> Vec<Value> {
        let inner = self.inner.read();
        (0..self.schema.arity())
            .map(|c| {
                let code = inner.columns[c].codes[pos as usize];
                if code == L2_NULL_CODE {
                    Value::Null
                } else {
                    inner.columns[c].dict.value_of(code).clone()
                }
            })
            .collect()
    }

    /// True if `col` chains positions in an inverted index (a key column).
    pub fn has_index(&self, col: usize) -> bool {
        self.inner.read().columns[col].index.is_some()
    }

    /// Positions (< `fence`) whose `col` equals `v`, ascending: the
    /// dictionary resolves `v` to its code, then a key column walks its
    /// inverted-index chain — the paper's point-query path through the
    /// secondary index — and any other column tests its codes.
    pub fn positions_eq(&self, col: usize, v: &Value, fence: Pos) -> Vec<Pos> {
        let inner = self.inner.read();
        let col = &inner.columns[col];
        let Some(code) = col.dict.code_of(v) else {
            return Vec::new();
        };
        match &col.index {
            Some(index) => index.positions(code, fence),
            None => {
                let n = (fence as usize).min(col.codes.len());
                (0..n as Pos)
                    .filter(|&pos| col.codes[pos as usize] == code)
                    .collect()
            }
        }
    }

    /// Run `f` with read access to one column's raw parts
    /// `(dict, codes, fence-truncated)` — the bulk path for scans and merges.
    pub fn with_column<R>(
        &self,
        col: usize,
        fence: Pos,
        f: impl FnOnce(&UnsortedDict, &[Code]) -> R,
    ) -> R {
        let inner = self.inner.read();
        let colref = &inner.columns[col];
        let n = (fence as usize).min(colref.codes.len());
        f(&colref.dict, &colref.codes[..n])
    }

    /// Run `f` with read access to the requested columns **plus the record
    /// ids and MVCC stamp vectors**, all under one lock acquisition — the
    /// batch scan needs every filter and payload column together with the
    /// stamps for visibility. Calling [`begin`](Self::begin)/
    /// [`end`](Self::end)/[`row_id`](Self::row_id) from inside the closure
    /// would re-acquire the inner lock recursively and deadlock against a
    /// queued writer. `view.cols[i]` corresponds to `cols[i]`; a column may
    /// be requested more than once.
    pub fn with_columns_stamped<R>(
        &self,
        cols: &[usize],
        fence: Pos,
        f: impl FnOnce(&L2View<'_>) -> R,
    ) -> R {
        let inner = self.inner.read();
        let n = (fence as usize).min(inner.row_ids.len());
        let view = L2View {
            cols: cols
                .iter()
                .map(|&c| {
                    let col = &inner.columns[c];
                    (&col.dict, &col.codes[..n])
                })
                .collect(),
            row_ids: &inner.row_ids[..n],
            begins: &inner.begins[..n],
            ends: &inner.ends[..n],
        };
        f(&view)
    }

    /// Heap footprint in bytes, by capacity: dictionaries, value vectors,
    /// the key columns' inverted indexes, record ids and both stamp vectors.
    pub fn approx_bytes(&self) -> usize {
        let inner = self.inner.read();
        let cols: usize = inner
            .columns
            .iter()
            .map(|c| {
                c.dict.heap_size()
                    + c.codes.capacity() * std::mem::size_of::<Code>()
                    + c.index.as_ref().map_or(0, GrowableInvertedIndex::heap_size)
            })
            .sum();
        cols + inner.row_ids.capacity() * std::mem::size_of::<RowId>()
            + (inner.begins.capacity() + inner.ends.capacity()) * std::mem::size_of::<AtomicU64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::{ColumnDef, DataType, COMMIT_TS_MAX};

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("city", DataType::Str),
            ],
        )
        .unwrap()
    }

    fn sample() -> L2Delta {
        let d = L2Delta::new(schema(), 1);
        let cities = ["Los Gatos", "Campbell", "Los Gatos", "Saratoga"];
        for (i, c) in cities.iter().enumerate() {
            d.append_row(
                RowId(i as u64),
                &[Value::Int(i as i64), Value::str(*c)],
                10,
                COMMIT_TS_MAX,
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn append_and_read_back() {
        let d = sample();
        assert_eq!(d.len(), 4);
        assert_eq!(d.value(0, 1), Value::str("Los Gatos"));
        assert_eq!(d.value(2, 1), Value::str("Los Gatos"));
        assert_eq!(d.row(3), vec![Value::Int(3), Value::str("Saratoga")]);
        assert_eq!(d.row_id(2), RowId(2));
        assert_eq!(d.begin(0), 10);
        assert_eq!(d.end(0), COMMIT_TS_MAX);
    }

    #[test]
    fn dictionary_is_unsorted_append_order() {
        let d = sample();
        d.with_column(1, 4, |dict, codes| {
            // Arrival order: Los Gatos=0, Campbell=1, Saratoga=2.
            assert_eq!(dict.value_of(0), &Value::str("Los Gatos"));
            assert_eq!(dict.value_of(1), &Value::str("Campbell"));
            assert_eq!(dict.value_of(2), &Value::str("Saratoga"));
            assert_eq!(codes, &[0, 1, 0, 2]);
        });
    }

    #[test]
    fn point_query_via_inverted_index() {
        let d = sample();
        assert_eq!(d.positions_eq(1, &Value::str("Los Gatos"), 4), vec![0, 2]);
        assert_eq!(d.positions_eq(1, &Value::str("Campbell"), 4), vec![1]);
        assert_eq!(
            d.positions_eq(1, &Value::str("Nowhere"), 4),
            Vec::<Pos>::new()
        );
        // Fence cuts off later rows.
        assert_eq!(d.positions_eq(1, &Value::str("Los Gatos"), 1), vec![0]);
        // The key column walks its chain; the city column, unindexed, was
        // answered from its codes above — with the same positions.
        assert_eq!(d.positions_eq(0, &Value::Int(2), 4), vec![2]);
        assert_eq!(d.positions_eq(0, &Value::Int(2), 2), Vec::<Pos>::new());
    }

    #[test]
    fn range_query_resolves_through_dictionary() {
        let d = sample();
        // Fig 10 style: between C% and L%. The unsorted dictionary gives no
        // code-order shortcut: resolve the matching codes by value
        // comparison, then test the code vector against that set.
        let (lo, hi) = (Value::str("C"), Value::str("M"));
        let hits = d.with_column(1, 4, |dict, codes| {
            let matching: Vec<Code> = (0..dict.len() as Code)
                .filter(|&c| (&lo..&hi).contains(&dict.value_of(c)))
                .collect();
            assert_eq!(matching, vec![0, 1]); // Los Gatos, Campbell
            (0..codes.len() as Pos)
                .filter(|&p| matching.contains(&codes[p as usize]))
                .collect::<Vec<Pos>>()
        });
        assert_eq!(hits, vec![0, 1, 2]);
        // The inverted lists of the matching codes agree.
        let mut via_index = d.positions_eq(1, &Value::str("Los Gatos"), 4);
        via_index.extend(d.positions_eq(1, &Value::str("Campbell"), 4));
        via_index.sort_unstable();
        assert_eq!(via_index, hits);
    }

    #[test]
    fn nulls_round_trip_and_stay_out_of_index() {
        let d = L2Delta::new(schema(), 1);
        d.append_row(RowId(0), &[Value::Int(1), Value::Null], 1, COMMIT_TS_MAX)
            .unwrap();
        d.append_row(
            RowId(1),
            &[Value::Int(2), Value::str("x")],
            1,
            COMMIT_TS_MAX,
        )
        .unwrap();
        assert_eq!(d.value(0, 1), Value::Null);
        assert_eq!(d.positions_eq(1, &Value::str("x"), 2), vec![1]);
        d.with_column(1, 2, |dict, codes| {
            assert_eq!(dict.len(), 1); // NULL not in dictionary
            assert_eq!(codes[0], L2_NULL_CODE);
        });
    }

    #[test]
    fn closed_delta_rejects_appends() {
        let d = sample();
        d.close();
        assert!(d.is_closed());
        let err = d
            .append_row(
                RowId(9),
                &[Value::Int(9), Value::str("x")],
                1,
                COMMIT_TS_MAX,
            )
            .unwrap_err();
        assert!(matches!(err, HanaError::Merge(_)));
    }

    #[test]
    fn batch_append_matches_row_appends() {
        let d1 = sample();
        let d2 = L2Delta::new(schema(), 2);
        let rows: Vec<(RowId, Vec<Value>, Timestamp, Timestamp)> = (0..4)
            .map(|i| {
                (
                    RowId(i as u64),
                    d1.row(i as Pos),
                    d1.begin(i as Pos),
                    d1.end(i as Pos),
                )
            })
            .collect();
        let first = d2.append_batch(&rows).unwrap();
        assert_eq!(first, 0);
        assert_eq!(d2.len(), 4);
        for p in 0..4 {
            assert_eq!(d1.row(p), d2.row(p));
        }
        d2.with_column(1, 4, |dict, codes| {
            assert_eq!(dict.len(), 3);
            assert_eq!(codes, &[0, 1, 0, 2]);
        });
    }

    #[test]
    fn end_stamp_updates() {
        let d = sample();
        d.store_end(1, 99);
        assert_eq!(d.end(1), 99);
        d.with_columns_stamped(&[], 4, |view| {
            assert_eq!(view.row_ids[1], RowId(1));
            assert_eq!(view.begins[1].load(Ordering::Acquire), 10);
            assert_eq!(view.ends[1].load(Ordering::Acquire), 99);
        });
    }

    #[test]
    fn bytes_accounting() {
        let d = sample();
        assert!(d.approx_bytes() > 0);
    }
}
