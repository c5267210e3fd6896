//! The calc-graph layer: the Fig-3 sample model, rebuilt and executed.
//!
//! Fig 3 shows a calc model with a shared subexpression feeding two
//! consumers, a "script" node with imperative logic, and a "conv" node
//! applying the built-in currency conversion. This example builds that
//! shape over a sales table, prints the plan before/after optimization, and
//! runs it — also through the split/combine parallel path and as an OLAP
//! star join (a calc-graph join under an aggregate).
//!
//! Run with `cargo run -p hana-examples --example calc_graph`.

use hana_calc::graph::PipeOp;
use hana_calc::{optimize, AggFunc, CalcGraph, CalcNode, Executor, Predicate, Query};
use hana_common::{TableConfig, Value};
use hana_core::Database;
use hana_txn::{IsolationLevel, Snapshot};
use hana_workload::sales::{fact_cols, SalesDataset};
use std::sync::Arc;

fn main() -> hana_common::Result<()> {
    let db = Database::in_memory();
    let ds = SalesDataset::load(&db, TableConfig::small(), 5_000, 200, 50, 21)?;
    ds.settle()?;
    let snap = Snapshot::at(db.txn_manager().now());

    // --- The Fig-3 shape: one filtered scan, two consumers, conv, script.
    let mut g = CalcGraph::new();
    let scan = g.add(CalcNode::TableSource {
        table: Arc::clone(&ds.sales).into(),
        fused_filter: Predicate::True,
        projection: None,
    });
    let filter = g.add(CalcNode::Filter {
        input: scan,
        pred: Predicate::Gt(fact_cols::AMOUNT, Value::Int(5_000)),
    });
    // Consumer 1: currency-normalized revenue by city.
    let conv = g.add(CalcNode::Conv {
        input: filter,
        amount_col: fact_cols::AMOUNT,
        currency_col: fact_cols::CURRENCY,
        rates: [
            ("USD", 1.0),
            ("EUR", 1.09),
            ("KRW", 0.00072),
            ("GBP", 1.27),
            ("JPY", 0.0064),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    });
    let by_city = g.add(CalcNode::Aggregate {
        input: conv,
        group_by: vec![fact_cols::CITY],
        aggs: vec![(AggFunc::Count, 0), (AggFunc::Sum, fact_cols::AMOUNT)],
    });
    // Consumer 2: a "script" node with imperative logic over the same
    // filtered input (the shared subexpression).
    let script = g.add(CalcNode::Custom {
        input: filter,
        name: "top-3-amounts".into(),
        f: Arc::new(|mut rows| {
            rows.sort_by(|a, b| b[fact_cols::AMOUNT].cmp(&a[fact_cols::AMOUNT]));
            rows.truncate(3);
            Ok(rows)
        }),
    });
    let _ = script;
    g.set_root(by_city);

    println!("== plan ==\n{}", g.explain());
    let rewrites = optimize(&mut g);
    println!("after {rewrites} optimizer rewrite(s):\n{}", g.explain());

    let mut ex = Executor::new(snap);
    let rs = ex.run(&g)?;
    println!("revenue by city for large orders ({} groups):", rs.len());
    for row in rs.rows.iter().take(5) {
        println!("  {:<16} count={:<5} sum={:.0}", row[0], row[1], row[2]);
    }
    println!("executor stats: {:?}\n", ex.stats());

    // --- Split/combine parallelism: same aggregate, partitioned by city.
    let parallel = Query::scan(Arc::clone(&ds.sales))
        .split_combine(
            4,
            fact_cols::CITY,
            vec![PipeOp::PartialAggregate {
                group_by: vec![fact_cols::CITY],
                aggs: vec![(AggFunc::Count, 0), (AggFunc::Sum, fact_cols::AMOUNT)],
            }],
        )
        .compile();
    let rs = Executor::new(snap).run(&parallel)?;
    println!("split/combine over 4 partitions: {} city groups", rs.len());

    // --- A star join: the fact table joined to a filtered dimension and
    // aggregated per dimension attribute, folded over column batches.
    let category = ds.sales.schema().arity() + 1;
    let mut star = Query::scan(Arc::clone(&ds.sales))
        .join(
            Query::scan(Arc::clone(&ds.products))
                .filter(Predicate::Eq(1, Value::str("electronics"))),
            fact_cols::PRODUCT_ID,
            0,
        )
        .aggregate(
            vec![category],
            vec![(AggFunc::Count, 0), (AggFunc::Sum, fact_cols::AMOUNT)],
        )
        .compile();
    optimize(&mut star);
    let rs = Executor::new(snap).run(&star)?;
    for row in &rs.rows {
        println!(
            "star join: {} {} sales, revenue {:.0}",
            row[1],
            row[0],
            row[2].as_numeric().unwrap_or(0.0)
        );
    }

    // --- Everything above ran against live MVCC state: prove it.
    let mut txn = db.begin(IsolationLevel::Transaction);
    ds.sales.insert(
        &txn,
        hana_workload::SalesSchema::fact_row(&mut hana_workload::DataGen::new(5), 999_999, 200, 50),
    )?;
    db.commit(&mut txn)?;
    let rs_old = Executor::new(snap).run(
        &Query::scan(Arc::clone(&ds.sales))
            .aggregate(vec![], vec![(AggFunc::Count, 0)])
            .compile(),
    )?;
    let rs_new = Executor::new(Snapshot::at(db.txn_manager().now())).run(
        &Query::scan(Arc::clone(&ds.sales))
            .aggregate(vec![], vec![(AggFunc::Count, 0)])
            .compile(),
    )?;
    println!(
        "snapshot isolation: old snapshot sees {} rows, new one {}",
        rs_old.rows[0][0], rs_new.rows[0][0]
    );
    Ok(())
}
