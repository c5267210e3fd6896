//! Aggregates and join-aggregates folded over column batches.
//!
//! The executor recognises the maximal scan-rooted pipeline under an
//! `Aggregate` — `TableSource → Project?`, or a `Join` of `TableSource`s,
//! each scan carrying the filter the optimizer fused into it (and the
//! pass-through `Filter` it left behind) — and runs it per
//! [`ColumnBatch`](hana_core::ColumnBatch) of the storage layer's batch scan
//! instead of per materialized row:
//!
//! * pushed-down conjuncts are decided inside the scan; the residue
//!   (`Ne`/`Or`/`Not`/NULL-literal comparisons) becomes a bitmap algebra
//!   over per-dictionary compiled leaves;
//! * `Project` arithmetic runs over the numeric vectors of the selected
//!   rows, plain column references stay aliases of code columns;
//! * group-by assigns slots by dictionary **code** (a dense remap while the
//!   code-space product is small, a hash on the code tuple otherwise) and
//!   decodes one representative row per group at the end of the unit;
//!   `Count`/`Sum`/`Avg` accumulate per slot, `Min`/`Max` compare codes
//!   through the dictionary;
//! * a join builds on one side keyed by value — its payload columns
//!   dictionary-encoded, so they aggregate like any other code column — and
//!   probes through a `code → build row` table per dictionary domain: one
//!   hash look-up per distinct build key, an array index per probe row.
//!
//! Unit results merge in unit order, so the answer is independent of the
//! scan's worker count. No `Vec<Value>` exists per scanned row; rows are
//! built from the finished groups only.

use crate::exec::{
    column_predicate, finish_groups, merge_groups, split_pushdown, Executor, Groups, ResultSet,
};
use crate::expr::{AggFunc, AggState, Expr, Predicate};
use crate::graph::{CalcGraph, CalcNode, NodeId, ScanSource};
use hana_common::{DataType, HanaError, Result, Value};
use hana_core::batch::{group_slots, Bitmap, Code, UnsortedDict};
use hana_core::{
    BatchCol, BatchColumn, BatchSpec, ColumnBatch, ColumnData, ColumnPredicate, DictView,
};
use rustc_hash::FxHashMap;
use std::cmp::Ordering;
use std::ops::Bound;
use std::sync::OnceLock;

/// "No build row" in the probe tables and the build chains.
const NONE: u32 = u32::MAX;

/// `Filter(true)* ← TableSource`: a scan with the predicate the optimizer
/// fused into it.
struct ScanInput<'g> {
    table: &'g ScanSource,
    pred: &'g Predicate,
    nodes: usize,
}

/// One side of a fused join.
enum JoinSide<'g> {
    /// Scan-rooted: served as batches.
    Scan(ScanInput<'g>),
    /// Anything else: evaluated to rows first.
    Rows(NodeId),
}

enum AggInput<'g> {
    Scan {
        scan: ScanInput<'g>,
        project: Option<&'g [(String, Expr)]>,
    },
    Join {
        left: JoinSide<'g>,
        right: JoinSide<'g>,
        left_col: usize,
        right_col: usize,
    },
}

/// The fused shape under one `Aggregate` node.
pub(crate) struct Pipeline<'g> {
    input: AggInput<'g>,
    /// Graph nodes the fold evaluates besides the aggregate itself.
    pub nodes: usize,
}

impl Pipeline<'_> {
    /// Join sides that must be evaluated to rows before the fold runs.
    pub fn row_inputs(&self) -> Vec<NodeId> {
        match &self.input {
            AggInput::Join { left, right, .. } => [left, right]
                .into_iter()
                .filter_map(|s| match s {
                    JoinSide::Rows(n) => Some(*n),
                    JoinSide::Scan(_) => None,
                })
                .collect(),
            AggInput::Scan { .. } => Vec::new(),
        }
    }
}

/// Arithmetic the vector evaluator reproduces exactly (everything but string
/// literals, which never reach a numeric operator without an error).
fn fusable(e: &Expr) -> bool {
    match e {
        Expr::Column(_) => true,
        Expr::Literal(v) => !matches!(v, Value::Str(_)),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
            fusable(a) && fusable(b)
        }
    }
}

/// Recognise the pipeline under an aggregate whose input is `input`. Inner
/// nodes fuse only when the aggregate chain is their sole consumer and they
/// are not evaluated yet; a table may be scanned again.
pub(crate) fn recognize<'g>(
    g: &'g CalcGraph,
    input: NodeId,
    consumers: &[usize],
    memo: &FxHashMap<NodeId, ResultSet>,
) -> Option<Pipeline<'g>> {
    let private = |id: NodeId| consumers[id.0] == 1 && !memo.contains_key(&id);
    let scan_input = |mut id: NodeId| -> Option<ScanInput<'g>> {
        let mut nodes = 1;
        loop {
            match g.node(id) {
                // The pass-through the optimizer leaves where it fused a
                // filter into the scan. A filter it could not fuse keeps
                // its place in the plan, and the plan its rows.
                CalcNode::Filter {
                    input,
                    pred: Predicate::True,
                } if private(id) => {
                    id = *input;
                    nodes += 1;
                }
                CalcNode::TableSource {
                    table,
                    fused_filter,
                    ..
                } if !memo.contains_key(&id) => {
                    return Some(ScanInput {
                        table,
                        pred: fused_filter,
                        nodes,
                    });
                }
                _ => return None,
            }
        }
    };
    let (mut id, mut project) = (input, None);
    if let CalcNode::Project {
        input: below,
        exprs,
    } = g.node(id)
    {
        if private(id) && exprs.iter().all(|(_, e)| fusable(e)) {
            project = Some(exprs.as_slice());
            id = *below;
        }
    }
    if let Some(scan) = scan_input(id) {
        let nodes = scan.nodes + project.is_some() as usize;
        let input = AggInput::Scan { scan, project };
        return Some(Pipeline { input, nodes });
    }
    match g.node(id) {
        CalcNode::Join {
            left,
            right,
            left_col,
            right_col,
        } if project.is_none() && private(id) => {
            let side = |n: NodeId| match scan_input(n) {
                Some(s) => (s.nodes, JoinSide::Scan(s)),
                None => (0, JoinSide::Rows(n)),
            };
            let ((ln, left), (rn, right)) = (side(*left), side(*right));
            if ln + rn == 0 {
                return None;
            }
            let input = AggInput::Join {
                left,
                right,
                left_col: *left_col,
                right_col: *right_col,
            };
            Some(Pipeline {
                input,
                nodes: 1 + ln + rn,
            })
        }
        _ => None,
    }
}

/// The scan columns a fold reads, in batch order.
#[derive(Default)]
struct ColSet(Vec<BatchCol>);

impl ColSet {
    fn add(&mut self, col: usize, numeric: bool) {
        match self.0.iter_mut().find(|c| c.col == col) {
            Some(c) => c.numeric |= numeric,
            None => self.0.push(BatchCol { col, numeric }),
        }
    }

    fn add_pred(&mut self, p: &Predicate) {
        let mut cols = Vec::new();
        p.referenced_columns(&mut cols);
        for c in cols {
            self.add(c, false);
        }
    }

    fn pos(&self, col: usize) -> usize {
        let pos = self.0.iter().position(|c| c.col == col);
        pos.expect("every column a fold reads was requested")
    }
}

/// The input columns an aggregate reads, each with whether it is read
/// numerically (`Sum`/`Avg`) or as a key (group-by, `Min`/`Max`). `Count`
/// reads no column.
fn agg_needs(group_by: &[usize], aggs: &[(AggFunc, usize)]) -> Vec<(usize, bool)> {
    let of_agg = |&(f, c): &(AggFunc, usize)| match f {
        AggFunc::Count => None,
        AggFunc::Sum | AggFunc::Avg => Some((c, true)),
        AggFunc::Min | AggFunc::Max => Some((c, false)),
    };
    let keys = group_by.iter().map(|&c| (c, false));
    keys.chain(aggs.iter().filter_map(of_agg)).collect()
}

fn out_of_range(col: usize) -> HanaError {
    HanaError::Query(format!("column {col} out of range"))
}

// ---- residue predicates over a batch ----

fn minus(a: &Bitmap, b: &Bitmap) -> Bitmap {
    let mut out = a.clone();
    out.retain_ones(|t| !b.get(t));
    out
}

/// The rows of `within` satisfying `p`: leaves compile against the batch's
/// dictionaries (`Predicate::eval` semantics, NULL-literal comparisons
/// included), connectives are bitmap algebra.
fn residue_mask(p: &Predicate, cols: &[BatchColumn<'_>], set: &ColSet, within: &Bitmap) -> Bitmap {
    let leaf = |cp: &ColumnPredicate| {
        let mut out = within.clone();
        match &cols[set.pos(cp.column())].data {
            ColumnData::Codes { codes, dict } => {
                let m = dict.compile(cp);
                out.retain_ones(|t| m.matches(codes[t]));
            }
            ColumnData::Values(vs) => out.retain_ones(|t| cp.matches_value(vs[t])),
        }
        out
    };
    let not_null = |c: usize| minus(within, &leaf(&ColumnPredicate::IsNull(c)));
    let never = || Bitmap::zeros(within.len());
    match p {
        Predicate::True => within.clone(),
        Predicate::And(ps) => ps
            .iter()
            .fold(within.clone(), |acc, q| residue_mask(q, cols, set, &acc)),
        Predicate::Or(ps) => ps.iter().fold(never(), |mut acc, q| {
            acc.or_with(&residue_mask(q, cols, set, within));
            acc
        }),
        Predicate::Not(q) => minus(within, &residue_mask(q, cols, set, within)),
        Predicate::Ne(c, v) => minus(&not_null(*c), &leaf(&ColumnPredicate::Eq(*c, v.clone()))),
        // NULL sorts below every value: `x > NULL` holds for every non-null x.
        Predicate::Gt(c, v) | Predicate::Ge(c, v) if v.is_null() => not_null(*c),
        Predicate::Between(c, lo, hi) if lo.is_null() && !hi.is_null() => leaf(
            &ColumnPredicate::Range(*c, Bound::Unbounded, Bound::Excluded(hi.clone())),
        ),
        other => column_predicate(other).map_or_else(never, |cp| leaf(&cp)),
    }
}

/// Narrow `b` to the rows passing `residue`; returns the rows tested.
fn apply_residue(residue: &Predicate, b: &mut ColumnBatch<'_>, set: &ColSet) -> u64 {
    if *residue == Predicate::True {
        return 0;
    }
    let tested = b.len();
    let mut all = Bitmap::zeros(tested);
    all.set_range(0, tested);
    let keep = residue_mask(residue, &b.cols, set, &all);
    if keep.count_ones() < tested {
        b.retain(&keep);
    }
    tested as u64
}

// ---- projected arithmetic over a batch ----

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Null,
    Int,
    Double,
    /// Non-null and not numeric (a string): an error once it meets a
    /// non-null operand, NULL next to a NULL one.
    Other,
}

/// One computed column: `Expr::eval`'s result per row, as `(kind, f64)`.
struct NumVec {
    kinds: Vec<Kind>,
    vals: Vec<f64>,
}

impl NumVec {
    /// What `Value::as_numeric` yields per row (`NaN` for NULL).
    fn numeric(&self) -> Vec<f64> {
        let of = |(&k, &x): (&Kind, &f64)| match k {
            Kind::Null => f64::NAN,
            _ => x,
        };
        self.kinds.iter().zip(&self.vals).map(of).collect()
    }

    fn values(&self) -> Vec<Value> {
        let of = |(&k, &x): (&Kind, &f64)| match k {
            Kind::Int => Value::Int(x as i64),
            Kind::Double => Value::double(x),
            Kind::Null | Kind::Other => Value::Null,
        };
        self.kinds.iter().zip(&self.vals).map(of).collect()
    }
}

/// Evaluate `e` over every row of the batch, reproducing `Expr::eval`:
/// integer arithmetic stays integral when the result is whole, division by
/// zero and NULL operands yield NULL, a string operand is an error.
fn eval_expr(
    e: &Expr,
    cols: &[BatchColumn<'_>],
    set: &ColSet,
    types: &[DataType],
    n: usize,
) -> Result<NumVec> {
    let (a, b, op): (_, _, fn(f64, f64) -> f64) = match e {
        Expr::Column(c) => {
            let col = &cols[set.pos(*c)];
            let kind = match types[*c] {
                DataType::Int => Kind::Int,
                DataType::Double => Kind::Double,
                DataType::Str => Kind::Other,
            };
            let kind_at = |t: usize| match (col.numeric[t].is_nan(), col.data.is_null(t)) {
                (false, _) => kind,
                (true, true) => Kind::Null,
                (true, false) => Kind::Other,
            };
            return Ok(NumVec {
                kinds: (0..n).map(kind_at).collect(),
                vals: col.numeric.clone(),
            });
        }
        Expr::Literal(v) => {
            let (kind, x) = match v {
                Value::Int(i) => (Kind::Int, *i as f64),
                Value::Double(d) => (Kind::Double, d.0),
                Value::Null => (Kind::Null, f64::NAN),
                Value::Str(_) => (Kind::Other, f64::NAN),
            };
            return Ok(NumVec {
                kinds: vec![kind; n],
                vals: vec![x; n],
            });
        }
        Expr::Add(a, b) => (a, b, |x, y| x + y),
        Expr::Sub(a, b) => (a, b, |x, y| x - y),
        Expr::Mul(a, b) => (a, b, |x, y| x * y),
        Expr::Div(a, b) => (a, b, |x, y| x / y),
    };
    let is_div = matches!(e, Expr::Div(..));
    let (a, b) = (
        eval_expr(a, cols, set, types, n)?,
        eval_expr(b, cols, set, types, n)?,
    );
    let mut out = NumVec {
        kinds: Vec::with_capacity(n),
        vals: Vec::with_capacity(n),
    };
    for t in 0..n {
        let (ka, kb, x, y) = (a.kinds[t], b.kinds[t], a.vals[t], b.vals[t]);
        let numeric = |k| matches!(k, Kind::Int | Kind::Double);
        let (kind, val) = if numeric(ka) && numeric(kb) {
            let r = op(x, y);
            if is_div && y == 0.0 {
                (Kind::Null, f64::NAN)
            } else if ka == Kind::Int && kb == Kind::Int && r.fract() == 0.0 {
                (Kind::Int, (r as i64) as f64)
            } else {
                (Kind::Double, r)
            }
        } else if ka == Kind::Null || kb == Kind::Null {
            (Kind::Null, f64::NAN)
        } else {
            return Err(HanaError::Query(
                "non-numeric operands in a projected expression".into(),
            ));
        };
        out.kinds.push(kind);
        out.vals.push(val);
    }
    Ok(out)
}

// ---- the aggregate kernel ----

/// One aggregate input: the column's codes/values when it is read as a key,
/// its numeric vector when it is summed.
#[derive(Clone, Copy)]
struct AggCol<'b> {
    data: Option<&'b ColumnData<'b>>,
    numeric: &'b [f64],
}

/// The tuple holding each slot's minimum (`want = Less`) or maximum of
/// `data`, NULLs skipped; codes compare through their dictionary.
fn extremes(
    data: &ColumnData<'_>,
    want: Ordering,
    slot_of: impl Fn(usize) -> usize,
    nslots: usize,
) -> Vec<Option<usize>> {
    let mut best: Vec<Option<usize>> = vec![None; nslots];
    let mut offer = |t: usize, beats: &dyn Fn(usize) -> bool| {
        let cur = &mut best[slot_of(t)];
        if cur.is_none_or(beats) {
            *cur = Some(t);
        }
    };
    match data {
        ColumnData::Codes { codes, dict } => {
            let null = dict.null_code();
            for (t, &c) in codes.iter().enumerate() {
                if c != null {
                    offer(t, &|u| c != codes[u] && dict.cmp(c, codes[u]) == want);
                }
            }
        }
        ColumnData::Values(vs) => {
            for (t, v) in vs.iter().enumerate() {
                if !v.is_null() {
                    offer(t, &|u| v.cmp(&vs[u]) == want);
                }
            }
        }
    }
    best
}

/// Aggregate the `n` tuples of one unit: group keys decoded once per group,
/// one [`AggState`] per group and aggregate.
fn accumulate(n: usize, keys: &[&ColumnData<'_>], aggs: &[(AggFunc, AggCol<'_>)]) -> Groups {
    let (slots, reps) = group_slots(n, keys);
    let nslots = reps.len();
    let slot_of = |t: usize| slots.as_ref().map_or(0, |s| s[t] as usize);
    let mut rows = vec![0u64; nslots];
    match &slots {
        Some(s) => s.iter().for_each(|&s| rows[s as usize] += 1),
        None => rows[0] = n as u64,
    }
    // Per aggregate and slot: (count, sum, extreme tuple).
    let per_agg: Vec<Vec<(u64, f64, Option<usize>)>> = aggs
        .iter()
        .map(|(f, col)| match f {
            AggFunc::Count => rows.iter().map(|&r| (r, 0.0, None)).collect(),
            AggFunc::Sum | AggFunc::Avg => {
                let mut acc = vec![(0u64, 0.0f64, None); nslots];
                for (t, &x) in col.numeric.iter().enumerate() {
                    if !x.is_nan() {
                        let e = &mut acc[slot_of(t)];
                        e.0 += 1;
                        e.1 += x;
                    }
                }
                acc
            }
            AggFunc::Min | AggFunc::Max => {
                let want = match f {
                    AggFunc::Min => Ordering::Less,
                    _ => Ordering::Greater,
                };
                let data = col.data.expect("MIN/MAX read their column as a key");
                extremes(data, want, slot_of, nslots)
                    .into_iter()
                    .map(|t| (0, 0.0, t))
                    .collect()
            }
        })
        .collect();
    (0..nslots)
        .map(|s| {
            let key = keys.iter().map(|k| k.value(reps[s] as usize)).collect();
            let states = aggs
                .iter()
                .zip(&per_agg)
                .map(|((f, col), acc)| {
                    let (count, sum, extreme) = acc[s];
                    let extreme = extreme.map(|t| col.data.expect("checked above").value(t));
                    AggState::from_parts(*f, count, sum, extreme)
                })
                .collect();
            (key, states)
        })
        .collect()
}

// ---- join: build table and probe ----

/// One payload column of the build side, dictionary-encoded so it
/// aggregates like any other code column.
#[derive(Default)]
struct BuildCol {
    dict: UnsortedDict,
    codes: Vec<Code>,
    numeric: Vec<f64>,
}

impl BuildCol {
    /// Append one row per entry of `rows`, each an index into `distinct` —
    /// every distinct value is encoded (and cloned, if new) once.
    fn extend(&mut self, distinct: &[&Value], rows: impl Iterator<Item = usize>) {
        let null = DictView::L2(&self.dict).null_code();
        let encoded: Vec<(Code, f64)> = distinct
            .iter()
            .map(|v| match v.is_null() {
                true => (null, f64::NAN),
                false => (
                    self.dict.get_or_insert(v),
                    v.as_numeric().unwrap_or(f64::NAN),
                ),
            })
            .collect();
        for (code, x) in rows.map(|i| encoded[i]) {
            self.codes.push(code);
            self.numeric.push(x);
        }
    }
}

fn gather<T: Copy>(v: &[T], idx: &[u32]) -> Vec<T> {
    idx.iter().map(|&i| v[i as usize]).collect()
}

/// `dictionary slot → first build row` for the join key's code domain: one
/// look-up per distinct build key, whatever the number of probe rows.
fn probe_table(dict: &DictView<'_>, first: &FxHashMap<&Value, u32>) -> Vec<u32> {
    let mut table = vec![NONE; dict.code_space()];
    for (key, &row) in first {
        if let Some(code) = dict.code_of(key) {
            table[dict.slot(code)] = row;
        }
    }
    table
}

impl Executor {
    /// Run a recognised pipeline and finish its groups into the
    /// aggregate's result.
    pub(crate) fn fold_aggregate(
        &mut self,
        pipe: &Pipeline<'_>,
        group_by: &[usize],
        aggs: &[(AggFunc, usize)],
        memo: &FxHashMap<NodeId, ResultSet>,
    ) -> Result<ResultSet> {
        let units = match &pipe.input {
            AggInput::Scan { scan, project } => self.fold_scan(scan, *project, group_by, aggs)?,
            AggInput::Join {
                left,
                right,
                left_col,
                right_col,
            } => self.fold_join((left, *left_col), (right, *right_col), group_by, aggs, memo)?,
        };
        let mut groups = FxHashMap::default();
        for unit in units {
            merge_groups(&mut groups, unit);
        }
        Ok(finish_groups(groups, group_by, aggs))
    }

    /// Batch-scan `scan` (conjuncts pushed down, residue applied per
    /// batch), folding every non-empty batch through `fold`. Statement
    /// statistics absorb the scan's counters.
    fn scan_folded<T: Send>(
        &mut self,
        scan: &ScanInput<'_>,
        mut set: ColSet,
        fold: impl Fn(ColumnBatch<'_>, &ColSet) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let (pushed, residue) = split_pushdown(scan.pred);
        set.add_pred(&residue);
        let arity = scan.table.schema().arity();
        if let Some(c) = set.0.iter().find(|c| c.col >= arity) {
            return Err(out_of_range(c.col));
        }
        let read = scan.table.read_at(self.snapshot);
        // Scan admission: one token for the duration of the storage scan.
        let (_permit, wait_ns) = read.governor().admit_scan()?;
        self.stats.governor_wait_ns += wait_ns;
        self.stats.indexed_scans += 1; // folded in place, nothing materialized
        let spec = BatchSpec {
            preds: &pushed,
            cols: &set.0,
            row_ids: false,
        };
        let (units, st) = read.scan_batches(&spec, |mut b| {
            let tested = apply_residue(&residue, &mut b, &set);
            let out = match b.is_empty() {
                true => None,
                false => Some(fold(b, &set)),
            };
            (tested, out)
        })?;
        self.absorb_scan_stats(&st);
        self.absorb_cache_stats(&read);
        let mut out = Vec::with_capacity(units.len());
        for (tested, unit) in units {
            self.stats.residue_rows += tested;
            out.extend(unit.transpose()?);
        }
        Ok(out)
    }

    /// `Aggregate ← Project? ← TableSource`.
    fn fold_scan(
        &mut self,
        scan: &ScanInput<'_>,
        project: Option<&[(String, Expr)]>,
        group_by: &[usize],
        aggs: &[(AggFunc, usize)],
    ) -> Result<Vec<Groups>> {
        let schema = scan.table.schema();
        let types: Vec<DataType> = schema.columns().iter().map(|c| c.data_type).collect();
        // Every aggregate input as an expression over scan columns; a bare
        // column reference stays an alias of the code column.
        let mut inputs: Vec<(usize, Expr, bool)> = Vec::new();
        let mut set = ColSet::default();
        for (v, numeric) in agg_needs(group_by, aggs) {
            let expr = match project {
                Some(exprs) => exprs.get(v).ok_or_else(|| out_of_range(v))?.1.clone(),
                None => Expr::Column(v),
            };
            match &expr {
                Expr::Column(c) => set.add(*c, numeric),
                computed => {
                    let mut cols = Vec::new();
                    computed.referenced_columns(&mut cols);
                    cols.into_iter().for_each(|c| set.add(c, true));
                }
            }
            match inputs.iter_mut().find(|(u, _, _)| *u == v) {
                Some((_, _, as_key)) => *as_key |= !numeric,
                None => inputs.push((v, expr, !numeric)),
            }
        }
        self.scan_folded(scan, set, |b, set| {
            let n = b.len();
            // Computed inputs: the numeric vector, plus values when the
            // column is also read as a key (both empty for an alias).
            let mut numerics: Vec<Vec<f64>> = Vec::new();
            let mut values: Vec<Vec<Value>> = Vec::new();
            for (_, expr, as_key) in &inputs {
                let computed = match expr {
                    Expr::Column(_) => None,
                    e => Some(eval_expr(e, &b.cols, set, &types, n)?),
                };
                numerics.push(computed.as_ref().map_or_else(Vec::new, NumVec::numeric));
                let keys = computed.filter(|_| *as_key);
                values.push(keys.map_or_else(Vec::new, |v| v.values()));
            }
            let key_data: Vec<ColumnData<'_>> = values
                .iter()
                .map(|vs| ColumnData::Values(vs.iter().collect()))
                .collect();
            let input = |v: usize| {
                let i = inputs.iter().position(|(u, _, _)| *u == v);
                let i = i.expect("every aggregate input was planned");
                match &inputs[i] {
                    (_, Expr::Column(c), _) => {
                        let col = &b.cols[set.pos(*c)];
                        AggCol {
                            data: Some(&col.data),
                            numeric: &col.numeric,
                        }
                    }
                    (_, _, as_key) => AggCol {
                        data: as_key.then_some(&key_data[i]),
                        numeric: &numerics[i],
                    },
                }
            };
            Ok(aggregate_unit(n, group_by, aggs, input))
        })
    }

    /// `Aggregate ← Join(l, r)`: build on one side, probe the other per
    /// batch, aggregate the matched pairs.
    fn fold_join(
        &mut self,
        left: (&JoinSide<'_>, usize),
        right: (&JoinSide<'_>, usize),
        group_by: &[usize],
        aggs: &[(AggFunc, usize)],
        memo: &FxHashMap<NodeId, ResultSet>,
    ) -> Result<Vec<Groups>> {
        let arity = |side: &JoinSide<'_>| match side {
            JoinSide::Scan(s) => Some(s.table.schema().arity()),
            JoinSide::Rows(n) => memo[n].rows.first().map(Vec::len),
        };
        // A row side without rows joins to nothing.
        let (Some(left_arity), Some(right_arity)) = (arity(left.0), arity(right.0)) else {
            return Ok(Vec::new());
        };
        let bound = |side: &JoinSide<'_>| match side {
            JoinSide::Scan(s) => {
                let (l1, l2, main) = s.table.read_at(self.snapshot).stage_row_counts();
                l1 + l2 + main
            }
            JoinSide::Rows(_) => 0,
        };
        // Rows can only be built on; of two scans the smaller one is.
        let build_left = match (left.0, right.0) {
            (JoinSide::Rows(_), _) => true,
            (_, JoinSide::Rows(_)) => false,
            _ => bound(left.0) <= bound(right.0),
        };
        let ((build, build_key), (probe, probe_key)) = match build_left {
            true => (left, right),
            false => (right, left),
        };
        let JoinSide::Scan(probe) = probe else {
            unreachable!("recognize() fuses a join only with a scan side to probe");
        };
        // Join output column → (on the build side?, column of that side).
        let locate = |v: usize| -> Result<(bool, usize)> {
            if v >= left_arity + right_arity {
                return Err(out_of_range(v));
            }
            Ok(match v < left_arity {
                true => (build_left, v),
                false => (!build_left, v - left_arity),
            })
        };
        let mut probe_set = ColSet::default();
        probe_set.add(probe_key, false);
        let mut build_cols: Vec<usize> = Vec::new();
        for (v, numeric) in agg_needs(group_by, aggs) {
            match locate(v)? {
                (true, c) if !build_cols.contains(&c) => build_cols.push(c),
                (true, _) => {}
                (false, c) => probe_set.add(c, numeric),
            }
        }

        // Build side, column-wise: the join key by value, the payload
        // columns dictionary-encoded.
        let mut keys: Vec<Value> = Vec::new();
        let mut payload: Vec<BuildCol> = build_cols.iter().map(|_| BuildCol::default()).collect();
        match build {
            JoinSide::Rows(n) => {
                let build_arity = match build_left {
                    true => left_arity,
                    false => right_arity,
                };
                if build_key >= build_arity {
                    return Err(out_of_range(build_key));
                }
                let rows = &memo[n].rows;
                keys.extend(rows.iter().map(|r| r[build_key].clone()));
                for (col, &c) in payload.iter_mut().zip(&build_cols) {
                    let values: Vec<&Value> = rows.iter().map(|r| &r[c]).collect();
                    col.extend(&values, 0..values.len());
                }
            }
            JoinSide::Scan(scan) => {
                let mut set = ColSet::default();
                set.add(build_key, false);
                build_cols.iter().for_each(|&c| set.add(c, false));
                // Per unit: the keys, and per payload column its distinct
                // values plus one index into them per row.
                let units = self.scan_folded(scan, set, |b, set| {
                    let key = &b.cols[set.pos(build_key)].data;
                    let keys: Vec<Value> = (0..b.len()).map(|t| key.value(t)).collect();
                    let payload: Vec<(Vec<Value>, Vec<u32>)> = build_cols
                        .iter()
                        .map(|&c| {
                            let data = &b.cols[set.pos(c)].data;
                            let (slots, reps) = group_slots(b.len(), &[data]);
                            let distinct = reps.iter().map(|&t| data.value(t as usize));
                            (distinct.collect(), slots.expect("one key column"))
                        })
                        .collect();
                    Ok((keys, payload))
                })?;
                for (unit_keys, unit_payload) in units {
                    keys.extend(unit_keys);
                    for (col, (distinct, slots)) in payload.iter_mut().zip(unit_payload) {
                        let distinct: Vec<&Value> = distinct.iter().collect();
                        col.extend(&distinct, slots.iter().map(|&s| s as usize));
                    }
                }
            }
        }
        // Chains of build rows per key, in build order; NULL keys never join.
        let mut first: FxHashMap<&Value, u32> = FxHashMap::default();
        let mut next = vec![NONE; keys.len()];
        for (i, key) in keys.iter().enumerate().rev() {
            if !key.is_null() {
                next[i] = first.insert(key, i as u32).unwrap_or(NONE);
            }
        }

        // Probe side: one code → build-row table per main chain (shared by
        // its chunks), one per L2 unit; L1 values probe the hash directly.
        let tables: Vec<OnceLock<Vec<u32>>> =
            (0..probe.table.tables()).map(|_| OnceLock::new()).collect();
        self.scan_folded(probe, probe_set, |b, set| {
            let (mut probe_rows, mut build_rows) = (Vec::new(), Vec::new());
            let mut emit = |t: usize, mut row: u32| {
                while row != NONE {
                    probe_rows.push(t as u32);
                    build_rows.push(row);
                    row = next[row as usize];
                }
            };
            match &b.cols[set.pos(probe_key)].data {
                ColumnData::Codes { codes, dict } => {
                    let local;
                    let table = match dict {
                        DictView::Main { .. } => {
                            tables[b.source].get_or_init(|| probe_table(dict, &first))
                        }
                        DictView::L2(_) => {
                            local = probe_table(dict, &first);
                            &local
                        }
                    };
                    let null = dict.null_code();
                    for (t, &c) in codes.iter().enumerate() {
                        if c != null {
                            emit(t, table[dict.slot(c)]);
                        }
                    }
                }
                ColumnData::Values(vs) => {
                    for (t, &v) in vs.iter().enumerate() {
                        emit(t, first.get(v).copied().unwrap_or(NONE));
                    }
                }
            }
            // The matched pairs as ordinary columns: probe columns gathered
            // by probe row, build payload by build row.
            let pairs = probe_rows.len();
            let mut joined: FxHashMap<(bool, usize), BatchColumn<'_>> = FxHashMap::default();
            for (v, _) in agg_needs(group_by, aggs) {
                let (on_build, c) = locate(v).expect("validated above");
                joined
                    .entry((on_build, c))
                    .or_insert_with(|| match on_build {
                        true => {
                            let i = build_cols.iter().position(|&b| b == c);
                            let col = &payload[i.expect("payload planned above")];
                            BatchColumn {
                                data: ColumnData::Codes {
                                    codes: gather(&col.codes, &build_rows),
                                    dict: DictView::L2(&col.dict),
                                },
                                numeric: gather(&col.numeric, &build_rows),
                            }
                        }
                        false => {
                            let col = &b.cols[set.pos(c)];
                            let data = match &col.data {
                                ColumnData::Codes { codes, dict } => ColumnData::Codes {
                                    codes: gather(codes, &probe_rows),
                                    dict: *dict,
                                },
                                ColumnData::Values(vs) => {
                                    ColumnData::Values(gather(vs, &probe_rows))
                                }
                            };
                            let numeric = match col.numeric.is_empty() {
                                true => Vec::new(),
                                false => gather(&col.numeric, &probe_rows),
                            };
                            BatchColumn { data, numeric }
                        }
                    });
            }
            let input = |v: usize| {
                let col = &joined[&locate(v).expect("validated above")];
                AggCol {
                    data: Some(&col.data),
                    numeric: &col.numeric,
                }
            };
            Ok(aggregate_unit(pairs, group_by, aggs, input))
        })
    }
}

/// Resolve the aggregate's inputs through `input` and aggregate one unit.
fn aggregate_unit<'b>(
    n: usize,
    group_by: &[usize],
    aggs: &[(AggFunc, usize)],
    input: impl Fn(usize) -> AggCol<'b>,
) -> Groups {
    if n == 0 {
        return Groups::new();
    }
    let keys: Vec<&ColumnData<'_>> = group_by
        .iter()
        .map(|&v| input(v).data.expect("group keys are read as keys"))
        .collect();
    let none = AggCol {
        data: None,
        numeric: &[],
    };
    let agg_cols: Vec<(AggFunc, AggCol<'_>)> = aggs
        .iter()
        .map(|&(f, v)| match f {
            AggFunc::Count => (f, none),
            _ => (f, input(v)),
        })
        .collect();
    accumulate(n, &keys, &agg_cols)
}
