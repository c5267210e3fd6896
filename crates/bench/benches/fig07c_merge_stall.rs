//! Fig 7c — writer-observed stall during delta-to-main publication.
//!
//! Claims regenerated: (a) publication reconciles raced end stamps off-lock
//! and swaps in constant time, so the writers' stall stays flat as the
//! table grows; (b) a background GC sweep over a churned table is cheap
//! enough to run continuously.
//!
//! The stall is measured with `iter_custom` from the table's own
//! publication-stall instrument (time the exclusive section was actually
//! held), not wall-clock merge latency, which the build phase dominates.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hana_bench::{fill_l2, staged_sales, StagedTable};
use hana_common::{ColumnId, Value};
use hana_merge::MergeDecision;
use hana_txn::IsolationLevel;

/// Build a staged table with `main_rows` in main and a filled L2.
fn staged(main_rows: i64) -> StagedTable {
    let st = staged_sales(main_rows, hana_bench::Stage::Main, 7);
    fill_l2(&st, main_rows, 2_000, 13);
    st
}

/// One merge with a short-lived racer that end-stamps rows while the
/// off-lock build runs, so publication has pending ends to reconcile.
fn merge_with_raced_ends(st: &StagedTable) -> Duration {
    st.table.reset_publication_stall();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let racer = scope.spawn(|| {
            while !done.load(Ordering::Relaxed) && st.table.stage_stats().l2_frozen_rows == 0 {
                std::thread::yield_now();
            }
            if !done.load(Ordering::Relaxed) {
                let mut txn = st.db.begin(IsolationLevel::Transaction);
                for k in 0..8i64 {
                    let _ = st.table.update_where(
                        &txn,
                        ColumnId(0),
                        &Value::Int(k * 97),
                        &[(ColumnId(4), Value::Int(-1))],
                    );
                }
                let _ = st.db.commit(&mut txn);
            }
        });
        st.table.merge_delta_as(MergeDecision::Classic).unwrap();
        done.store(true, Ordering::Relaxed);
        racer.join().unwrap();
    });
    Duration::from_nanos(st.table.total_publication_stall_ns())
}

fn bench_publication_stall(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig07c_publication_stall");
    g.sample_size(10);
    for main_rows in [10_000i64, 40_000] {
        g.bench_function(BenchmarkId::new("non-blocking", main_rows), |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let st = staged(main_rows);
                    total += merge_with_raced_ends(&st);
                }
                total
            })
        });
    }
    g.finish();
}

fn bench_gc_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig07c_gc_sweep");
    g.sample_size(10);
    for rows in [10_000i64, 40_000] {
        g.bench_function(BenchmarkId::from_parameter(rows), |b| {
            // Churn a staged table so the sweep has marks to resolve, then
            // measure repeated sweeps (steady-state cost, memoized parts).
            let st = staged_sales(rows, hana_bench::Stage::Main, 7);
            let mut txn = st.db.begin(IsolationLevel::Transaction);
            for k in 0..1_000i64 {
                let _ = st.table.update_where(
                    &txn,
                    ColumnId(0),
                    &Value::Int(k % rows),
                    &[(ColumnId(4), Value::Int(k))],
                );
            }
            st.db.commit(&mut txn).unwrap();
            b.iter(|| {
                let report = st.table.gc_sweep();
                std::hint::black_box(report.referenced.len());
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_publication_stall, bench_gc_sweep);
criterion_main!(benches);
