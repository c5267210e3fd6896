//! The calculation-graph query layer (paper §2.1–2.2, Figs 2–3).
//!
//! Query expressions are built through a fluent [`Query`] builder (standing
//! in for the domain-specific-language compilers of Fig 2), mapped to a
//! [`CalcGraph`] — "the heart of the logical query processing framework" —
//! optimized by rule-based rewrites ([`optimize`]), and executed against
//! unified-table read views ([`Executor`]).
//!
//! The node set mirrors the paper's operator classes:
//!
//! * intrinsic relational operators: source, project, filter, aggregate,
//!   (hash equi-)join, union;
//! * `split`/`combine` data parallelism ([`graph::CalcNode::SplitCombine`]);
//! * built-in business functions ([`graph::CalcNode::Conv`], the paper's
//!   currency-conversion example);
//! * custom/script nodes wrapping arbitrary Rust closures — the counterpart
//!   of the paper's C++ custom operators, L-language scripts and R nodes;
//! * shared subexpressions: "the result of an operator may have multiple
//!   consumers" — node results are memoized per execution, so a node feeding
//!   two consumers is evaluated once.

mod batch;
pub mod builder;
pub mod exec;
pub mod expr;
pub mod graph;
pub mod optimize;

pub use builder::Query;
pub use exec::{ExecStats, Executor, ResultSet};
pub use expr::{AggFunc, Expr, Predicate};
pub use graph::{CalcGraph, CalcNode, NodeId, ScanSource};
pub use optimize::optimize;
