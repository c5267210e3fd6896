//! Engine-layer operators over the common table abstraction (paper §2.2).
//!
//! "The HANA database comprises a multi-engine query processing environment
//! that offers different data abstractions … This full spectrum of
//! processing engines is based on a common table abstraction as the
//! underlying physical data representation." Two engines live here, both
//! reading unified tables through [`TableRead`](hana_core::TableRead) views:
//!
//! * [`text`] — text-search operators (tokenized inverted index, tf-idf
//!   ranking, trigram similarity) standing in for the SAP Enterprise Search
//!   feature set the paper references;
//! * [`graph`] — graph operators (BFS reachability, shortest paths,
//!   neighborhood aggregation) over edge tables, standing in for the WIPE
//!   graph engine.
//!
//! The OLAP operators "optimized for star-join scenarios with fact and
//! dimension tables" are calc-graph joins under an aggregate
//! (`Query::scan(fact).join(Query::scan(dim).filter(..), fk, 0).aggregate(..)`
//! in `hana-calc`), which the batch executor folds over column batches.

pub mod graph;
pub mod text;

pub use graph::GraphEngine;
pub use text::{SearchHit, TextIndex};
