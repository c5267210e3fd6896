//! The calc graph: a DAG of logical operators.
//!
//! "Source nodes represent either persistent table structures or the
//! outcome of other calc graphs. Inner nodes reflect logical operators
//! consuming either one or multiple incoming data flows" (§2.1). Nodes may
//! have multiple consumers — the executor memoizes per-node results, so
//! shared subexpressions evaluate once.

use crate::expr::{AggFunc, Expr, Predicate};
use hana_common::{Schema, Value};
use hana_core::{PartitionedTable, TableRead, UnifiedTable};
use hana_txn::Snapshot;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// The storage behind a [`CalcNode::TableSource`]: a plain unified table or
/// a hash-partitioned group. Plans treat both identically — both read
/// through one [`TableRead`] (one shard, or one per partition), so a table
/// can be re-partitioned without touching any query.
#[derive(Clone)]
pub enum ScanSource {
    /// One unified table.
    Single(Arc<UnifiedTable>),
    /// A hash-partitioned table group; every shard is scanned under the
    /// statement snapshot and combined in partition order.
    Partitioned(Arc<PartitionedTable>),
}

impl ScanSource {
    /// The logical schema of the source.
    pub fn schema(&self) -> &Schema {
        match self {
            ScanSource::Single(t) => t.schema(),
            ScanSource::Partitioned(p) => p.schema(),
        }
    }

    /// Pin a read view of the source under `snap`.
    pub fn read_at(&self, snap: Snapshot) -> TableRead {
        match self {
            ScanSource::Single(t) => t.read_at(snap),
            ScanSource::Partitioned(p) => p.read_at(snap),
        }
    }

    /// Tables behind the source: the partitions of a group, else 1. Column
    /// batches name the one they come from as `source`.
    pub fn tables(&self) -> usize {
        match self {
            ScanSource::Single(_) => 1,
            ScanSource::Partitioned(p) => p.partition_count(),
        }
    }
}

impl From<Arc<UnifiedTable>> for ScanSource {
    fn from(t: Arc<UnifiedTable>) -> Self {
        ScanSource::Single(t)
    }
}

impl From<Arc<PartitionedTable>> for ScanSource {
    fn from(p: Arc<PartitionedTable>) -> Self {
        ScanSource::Partitioned(p)
    }
}

/// Index of a node within its [`CalcGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// A custom/script operator body: rows in, rows out.
pub type CustomFn =
    Arc<dyn Fn(Vec<Vec<Value>>) -> hana_common::Result<Vec<Vec<Value>>> + Send + Sync>;

/// One logical operator.
#[derive(Clone)]
pub enum CalcNode {
    /// Scan a unified table or partitioned group (all columns unless a
    /// projection was pushed down).
    TableSource {
        /// The table (or partitioned group) to scan.
        table: ScanSource,
        /// Predicate fused into the scan by the optimizer; resolved through
        /// the table's dictionaries/inverted indexes when possible.
        fused_filter: Predicate,
        /// Columns the plan above actually consumes, pushed down by the
        /// optimizer. `None` materializes every column; `Some` materializes
        /// only the listed ones (the rest stay `Null` placeholders so
        /// downstream column indexes remain valid).
        projection: Option<Vec<usize>>,
    },
    /// Row filter.
    Filter {
        /// Upstream node.
        input: NodeId,
        /// Row predicate.
        pred: Predicate,
    },
    /// Column projection / computed columns.
    Project {
        /// Upstream node.
        input: NodeId,
        /// Output columns as `(name, expression)`.
        exprs: Vec<(String, Expr)>,
    },
    /// Group-by aggregation.
    Aggregate {
        /// Upstream node.
        input: NodeId,
        /// Grouping columns (positions in the input).
        group_by: Vec<usize>,
        /// Aggregates as `(function, input column)`.
        aggs: Vec<(AggFunc, usize)>,
    },
    /// Hash equi-join (inner).
    Join {
        /// Left input (build side).
        left: NodeId,
        /// Right input (probe side).
        right: NodeId,
        /// Join column on the left.
        left_col: usize,
        /// Join column on the right.
        right_col: usize,
    },
    /// Concatenation of same-arity inputs.
    Union {
        /// Upstream nodes.
        inputs: Vec<NodeId>,
    },
    /// The split/combine pair: partition the input by hash of a column, run
    /// the body per partition in parallel, recombine (re-aggregating when
    /// the body ends in an aggregate) — "a base construct to enable
    /// application-defined data parallelization" (§2.1).
    SplitCombine {
        /// Upstream node.
        input: NodeId,
        /// Number of partitions / worker threads.
        ways: usize,
        /// Hash column for the split.
        split_col: usize,
        /// Per-partition body.
        body: Vec<PipeOp>,
    },
    /// Built-in business function: currency conversion (the paper's "conv"
    /// example node) — multiplies `amount_col` by the rate looked up from
    /// `currency_col`.
    Conv {
        /// Upstream node.
        input: NodeId,
        /// The monetary column to convert in place.
        amount_col: usize,
        /// The column holding the currency code.
        currency_col: usize,
        /// Conversion rates per currency code.
        rates: FxHashMap<String, f64>,
    },
    /// Custom operator / script node ("script" and "custom" nodes of Fig 3;
    /// also how R-style external logic plugs in).
    Custom {
        /// Upstream node.
        input: NodeId,
        /// Display name for plans.
        name: String,
        /// The operator body.
        f: CustomFn,
    },
}

/// Per-partition pipeline operators usable inside a split/combine body.
#[derive(Clone)]
pub enum PipeOp {
    /// Row filter.
    Filter(Predicate),
    /// Projection.
    Project(Vec<Expr>),
    /// Partial aggregation (merged by the combine step).
    PartialAggregate {
        /// Grouping columns.
        group_by: Vec<usize>,
        /// Aggregates.
        aggs: Vec<(AggFunc, usize)>,
    },
}

/// A DAG of calc nodes with one root.
#[derive(Clone, Default)]
pub struct CalcGraph {
    nodes: Vec<CalcNode>,
    root: Option<NodeId>,
}

impl CalcGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a node, returning its id.
    pub fn add(&mut self, node: CalcNode) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() - 1)
    }

    /// Set the root (result) node.
    pub fn set_root(&mut self, id: NodeId) {
        self.root = Some(id);
    }

    /// The root node.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> &CalcNode {
        &self.nodes[id.0]
    }

    /// Mutable node by id (used by the optimizer).
    pub fn node_mut(&mut self, id: NodeId) -> &mut CalcNode {
        &mut self.nodes[id.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Direct inputs of a node.
    pub fn inputs(&self, id: NodeId) -> Vec<NodeId> {
        match self.node(id) {
            CalcNode::TableSource { .. } => vec![],
            CalcNode::Filter { input, .. }
            | CalcNode::Project { input, .. }
            | CalcNode::Aggregate { input, .. }
            | CalcNode::SplitCombine { input, .. }
            | CalcNode::Conv { input, .. }
            | CalcNode::Custom { input, .. } => vec![*input],
            CalcNode::Join { left, right, .. } => vec![*left, *right],
            CalcNode::Union { inputs } => inputs.clone(),
        }
    }

    /// How many consumers each node has (shared-subexpression detection).
    pub fn consumer_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for id in 0..self.nodes.len() {
            for input in self.inputs(NodeId(id)) {
                counts[input.0] += 1;
            }
        }
        counts
    }

    /// A one-line-per-node plan rendering for debugging and EXPLAIN-style
    /// output.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let desc = match n {
                CalcNode::TableSource {
                    table,
                    fused_filter,
                    projection,
                } => {
                    let mut desc = format!("scan {}", table.schema().name);
                    if !matches!(fused_filter, Predicate::True) {
                        desc.push_str(&format!(" [fused filter {fused_filter:?}]"));
                    }
                    if let Some(cols) = projection {
                        desc.push_str(&format!(" [project {cols:?}]"));
                    }
                    desc
                }
                CalcNode::Filter { input, pred } => format!("filter #{} {pred:?}", input.0),
                CalcNode::Project { input, exprs } => {
                    let names: Vec<&str> = exprs.iter().map(|(n, _)| n.as_str()).collect();
                    format!("project #{} -> {}", input.0, names.join(", "))
                }
                CalcNode::Aggregate {
                    input,
                    group_by,
                    aggs,
                } => format!("aggregate #{} by {group_by:?} {aggs:?}", input.0),
                CalcNode::Join {
                    left,
                    right,
                    left_col,
                    right_col,
                } => format!("join #{}[{left_col}] = #{}[{right_col}]", left.0, right.0),
                CalcNode::Union { inputs } => format!(
                    "union {}",
                    inputs
                        .iter()
                        .map(|i| format!("#{}", i.0))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                CalcNode::SplitCombine {
                    input,
                    ways,
                    split_col,
                    body,
                } => format!(
                    "split #{} by col {split_col} into {ways} | body of {} ops | combine",
                    input.0,
                    body.len()
                ),
                CalcNode::Conv {
                    input,
                    amount_col,
                    currency_col,
                    ..
                } => {
                    format!(
                        "conv #{} amount[{amount_col}] by currency[{currency_col}]",
                        input.0
                    )
                }
                CalcNode::Custom { input, name, .. } => format!("custom #{} <{name}>", input.0),
            };
            let marker = if Some(NodeId(i)) == self.root {
                "*"
            } else {
                " "
            };
            out.push_str(&format!("{marker}#{i}: {desc}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::{ColumnDef, DataType, Schema, TableConfig};
    use hana_txn::TxnManager;

    fn source() -> CalcNode {
        let mgr = TxnManager::new();
        let schema = Schema::new("t", vec![ColumnDef::new("x", DataType::Int)]).unwrap();
        CalcNode::TableSource {
            table: hana_core::UnifiedTable::standalone(schema, TableConfig::default(), mgr).into(),
            fused_filter: Predicate::True,
            projection: None,
        }
    }

    #[test]
    fn build_and_introspect() {
        let mut g = CalcGraph::new();
        let s = g.add(source());
        let f = g.add(CalcNode::Filter {
            input: s,
            pred: Predicate::Eq(0, Value::Int(1)),
        });
        let p1 = g.add(CalcNode::Project {
            input: f,
            exprs: vec![("x".into(), Expr::col(0))],
        });
        let p2 = g.add(CalcNode::Project {
            input: f,
            exprs: vec![("y".into(), Expr::col(0))],
        });
        let u = g.add(CalcNode::Union {
            inputs: vec![p1, p2],
        });
        g.set_root(u);
        assert_eq!(g.len(), 5);
        assert_eq!(g.inputs(u), vec![p1, p2]);
        assert_eq!(g.inputs(s), vec![]);
        // Node f is a shared subexpression (two consumers).
        assert_eq!(g.consumer_counts()[f.0], 2);
        let plan = g.explain();
        assert!(plan.contains("scan t"));
        assert!(plan.contains("union"));
        assert!(plan.lines().count() == 5);
    }
}
