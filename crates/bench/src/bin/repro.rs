//! The reproduction harness: prints one markdown section per paper figure
//! with the measured numbers that EXPERIMENTS.md records. It is the only
//! definition of every experiment.
//!
//! Run with `cargo run -p hana-bench --release --bin repro` (append a
//! figure id like `fig11` to run one section).
//!
//! Every timed cell runs its case [`hana_bench::samples`] times and reports
//! `median ± IQR`; set-up stays outside the timed region.
//!
//! Environment knobs:
//! * `REPRO_QUICK=1` — CI smoke mode: every dataset is capped and fewer
//!   samples are taken, so the whole harness finishes in seconds (numbers
//!   are NOT representative).
//! * `REPRO_JSON=path` — additionally write every table as JSON to `path`,
//!   with the host shape (logical cores, mode, samples per timing).

use hana_bench::{
    fill_l1, fill_l2, logical_cores, report, sample, samples, scale, scale_duration, staged_sales,
    time_ms, Stage, Summary, CUSTOMERS, PRODUCTS,
};
use hana_common::{
    ColumnDef, ColumnId, DataType, GovernorConfig, MergeConfig, ScanConfig, Schema, TableConfig,
    Value,
};
use hana_core::{Database, UnifiedTable};
use hana_merge::MergeDecision;
use hana_txn::{IsolationLevel, Snapshot, TxnManager};
use hana_workload::olap::ALL_QUERIES;
use hana_workload::oltp::{OltpEngine, RowOltp, UnifiedOltp};
use hana_workload::sales::{fact_cols, load_row_baseline};
use hana_workload::{
    DataGen, MixedReport, MixedWorkload, OlapRunner, OltpDriver, OltpOp, SalesDataset, SalesSchema,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mean µs per point lookup: 200 order ids spread over `0..keys`, each of
/// which must be found exactly once under `snap`.
fn point_us(table: &Arc<UnifiedTable>, snap: Snapshot, keys: i64) -> f64 {
    const PROBES: i64 = 200;
    let (t, _) = time_ms(|| {
        for k in 0..PROBES {
            let read = table.read_at(snap);
            let r = read
                .point(fact_cols::ORDER_ID, &Value::Int(k * 7919 % keys))
                .unwrap();
            assert_eq!(r.len(), 1);
        }
    });
    t * 1e3 / PROBES as f64
}

fn main() -> hana_common::Result<()> {
    let only: Option<String> = std::env::args().nth(1);
    let run = |name: &str| only.as_deref().is_none_or(|o| o == name);
    let quick = hana_bench::quick_mode();
    if quick {
        println!("(REPRO_QUICK: datasets capped, numbers not representative)");
    }
    println!(
        "(host: {} logical cores, {} mode, {} samples per timing; timings are median ± IQR)",
        logical_cores(),
        if quick { "quick" } else { "full" },
        samples()
    );

    if run("fig03") {
        fig03()?;
    }
    if run("fig04") {
        fig04()?;
    }
    if run("fig05") {
        fig05()?;
    }
    if run("fig06") {
        fig06()?;
    }
    if run("fig07") {
        fig07()?;
    }
    if run("fig07c") {
        fig07c()?;
    }
    if run("fig08") {
        fig08()?;
    }
    if run("fig09") {
        fig09()?;
    }
    if run("fig10") {
        fig10()?;
    }
    if run("fig10b") {
        fig10b()?;
    }
    if run("fig11") {
        fig11()?;
    }
    if run("fig11p") {
        fig11p()?;
    }
    if run("fig12") {
        fig12()?;
    }
    if run("fig13") {
        fig13()?;
    }
    if run("myth") {
        myth()?;
    }
    if let Err(e) = report::write_json() {
        eprintln!("repro: failed to write JSON report: {e}");
    }
    Ok(())
}

/// Fig 3: filter fusion and shared subexpressions in the calc graph.
fn fig03() -> hana_common::Result<()> {
    use hana_calc::{optimize, CalcGraph, CalcNode, Executor, Expr, Predicate, Query};
    println!("\n## F3 — calc graph (shared subexpressions, fusion)\n");
    let st = staged_sales(scale(30_000), Stage::Main, 7);
    let snap = Snapshot::at(st.db.txn_manager().now());

    let point_filter = || {
        Query::scan(Arc::clone(&st.table))
            .filter(Predicate::Eq(fact_cols::ORDER_ID, Value::Int(123)))
            .compile()
    };
    let naive = point_filter();
    let mut fused = point_filter();
    optimize(&mut fused);
    // A diamond: two projections over one filtered scan — shared by both
    // consumers, or duplicated per consumer.
    let diamond = |shared: bool| {
        let mut g = CalcGraph::new();
        let filtered_scan = |g: &mut CalcGraph| {
            let input = g.add(CalcNode::TableSource {
                table: Arc::clone(&st.table).into(),
                fused_filter: Predicate::True,
                projection: None,
            });
            let pred = Predicate::Gt(fact_cols::AMOUNT, Value::Int(5_000));
            g.add(CalcNode::Filter { input, pred })
        };
        let left = filtered_scan(&mut g);
        let right = if shared { left } else { filtered_scan(&mut g) };
        let inputs = [left, right]
            .into_iter()
            .map(|input| {
                let exprs = vec![("a".into(), Expr::col(fact_cols::AMOUNT))];
                g.add(CalcNode::Project { input, exprs })
            })
            .collect();
        let root = g.add(CalcNode::Union { inputs });
        g.set_root(root);
        g
    };

    let mut rows = Vec::new();
    for (plan, graph) in [
        ("point filter, naive full scan", &naive),
        ("point filter, fused index scan", &fused),
        ("diamond, shared filtered scan", &diamond(true)),
        ("diamond, duplicated subtree", &diamond(false)),
    ] {
        let mut ex = Executor::new(snap);
        let out = ex.run(graph)?.len();
        if plan.starts_with("point") {
            assert_eq!(out, 1, "{plan}");
        }
        let t = sample(|| {
            let (t, rs) = time_ms(|| Executor::new(snap).run(graph).unwrap());
            assert_eq!(rs.len(), out, "{plan}");
            t
        });
        rows.push(vec![
            plan.into(),
            t.cell(3),
            out.to_string(),
            ex.stats().nodes_evaluated.to_string(),
        ]);
    }
    report::emit(
        "F3 calc graph",
        &["plan", "latency (ms)", "rows out", "nodes evaluated"],
        &rows,
    );
    Ok(())
}

/// Fig 4: point + scan latency per stage.
fn fig04() -> hana_common::Result<()> {
    let n = scale(20_000);
    println!("\n## F4 — unified table access per stage ({n} rows)\n");
    let mut rows = Vec::new();
    for stage in [Stage::L1, Stage::L2, Stage::Main] {
        let st = staged_sales(n, stage, 7);
        let snap = Snapshot::at(st.db.txn_manager().now());
        let point = sample(|| point_us(&st.table, snap, n));
        let scan = sample(|| {
            let read = st.table.read_at(snap);
            let (t, (count, _)) = time_ms(|| read.aggregate_numeric(fact_cols::AMOUNT).unwrap());
            assert_eq!(count, n as u64);
            t
        });
        rows.push(vec![format!("{stage:?}"), point.cell(1), scan.cell(2)]);
    }
    report::emit(
        "F4 access per stage",
        &["stage", "point lookup (µs)", "column scan (ms)"],
        &rows,
    );

    fig04_parallel()?;
    fig04_kernels();
    Ok(())
}

/// F4c: the scan kernel itself — scalar per-row reference vs the
/// word-parallel (SWAR / `std::arch`) filter over bit-packed codes, per
/// code width and predicate shape. This is the ≥2x acceptance metric for
/// the word-parallel kernels; both paths produce bit-identical hit bitmaps
/// (asserted here and property-tested in `tests/prop_kernels.rs`).
fn fig04_kernels() {
    use hana_column::{BitPackedVec, Bitmap, CodeFilter, CodeMatcher};
    let n = scale(2_000_000) as usize;
    // Keep total decoded work roughly constant so quick mode still times
    // something measurable.
    let iters = (8_000_000 / n).max(1);
    println!("\n## F4c — scan kernels: scalar vs word-parallel ({n} rows × {iters} iters)\n");
    let mut rows = Vec::new();
    for bits in [8u8, 13, 16, 32] {
        let max = if bits == 32 {
            u32::MAX
        } else {
            (1u32 << bits) - 1
        };
        let codes: Vec<u32> = (0..n as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32 & max)
            .collect();
        let v = BitPackedVec::from_codes_with_bits(&codes, bits);
        let null = max; // in-domain sentinel, exercised like a real column
        let quarter = (max as u64 / 4) as u32;
        for (pred, m) in [
            ("eq", CodeMatcher::new(CodeFilter::eq(quarter), null)),
            (
                "range 25%",
                CodeMatcher::new(CodeFilter::range(quarter..quarter.saturating_mul(2)), null),
            ),
        ] {
            let run = |scalar: bool| {
                let mut ones = 0usize;
                let t = sample(|| {
                    let (t, o) = time_ms(|| {
                        let mut o = 0usize;
                        for _ in 0..iters {
                            let mut hits = Bitmap::zeros(n);
                            if scalar {
                                v.filter_range_scalar(0, n, &m, &mut hits);
                            } else {
                                v.filter_range(0, n, &m, &mut hits);
                            }
                            o += hits.count_ones();
                        }
                        o
                    });
                    ones = o;
                    t / iters as f64
                });
                (t, ones)
            };
            let (t_scalar, ones_scalar) = run(true);
            let (t_word, ones_word) = run(false);
            assert_eq!(ones_scalar, ones_word, "kernel mismatch at {bits} bits");
            rows.push(vec![
                bits.to_string(),
                pred.into(),
                t_scalar.cell(3),
                t_word.cell(3),
                format!("{:.2}x", t_scalar.median / t_word.median),
            ]);
        }
    }
    report::emit(
        "F4c scan kernels",
        &[
            "code bits",
            "predicate",
            "scalar (ms)",
            "word-parallel (ms)",
            "speedup",
        ],
        &rows,
    );
}

/// One sampled statement row of the F4b visibility table: a column
/// aggregate under the snapshot `snap_of` yields, with the bitmap-cache
/// counters of the last sample's read.
fn vis_row(
    name: &str,
    table: &Arc<UnifiedTable>,
    mut snap_of: impl FnMut() -> Snapshot,
) -> Vec<String> {
    let mut counters = (0, 0);
    let t = sample(|| {
        let read = table.read_at(snap_of());
        let (t, _) = time_ms(|| read.aggregate_numeric(fact_cols::AMOUNT).unwrap());
        counters = read.vis_cache_stats();
        t
    });
    vec![
        name.into(),
        counters.0.to_string(),
        counters.1.to_string(),
        t.cell(2),
    ]
}

/// F4b: the same main-resident column scan, serial vs the chunk-parallel
/// fan-out, plus the snapshot-visibility bitmap cache (wholly visible fast
/// path, cold first statement, warm repeats under one snapshot).
fn fig04_parallel() -> hana_common::Result<()> {
    let n = scale(1_000_000);
    println!("\n## F4b — parallel scan & visibility bitmap cache ({n} rows)\n");
    let build = |parallelism: usize| -> hana_common::Result<(Arc<Database>, Arc<UnifiedTable>)> {
        let db = Database::in_memory();
        let cfg = TableConfig {
            l1_max_rows: usize::MAX / 2,
            l2_max_rows: usize::MAX / 2,
            ..TableConfig::default()
        }
        .with_scan(ScanConfig::default().with_scan_parallelism(parallelism));
        let table = db.create_table(SalesSchema::fact(), cfg)?;
        let mut gen = DataGen::new(7);
        let batch: Vec<Vec<Value>> = (0..n)
            .map(|i| SalesSchema::fact_row(&mut gen, i, CUSTOMERS, PRODUCTS))
            .collect();
        let mut txn = db.begin(IsolationLevel::Transaction);
        table.bulk_load(&txn, batch)?;
        db.commit(&mut txn)?;
        table.merge_delta_as(MergeDecision::Classic)?;
        Ok((db, table))
    };
    let scans = |db: &Database, table: &Arc<UnifiedTable>| {
        let snap = Snapshot::at(db.txn_manager().now());
        let aggregate = sample(|| {
            let read = table.read_at(snap);
            let (t, (count, _)) = time_ms(|| read.aggregate_numeric(fact_cols::AMOUNT).unwrap());
            assert_eq!(count, n as u64);
            t
        });
        let group = sample(|| {
            let read = table.read_at(snap);
            time_ms(|| {
                read.group_aggregate(fact_cols::CITY, fact_cols::AMOUNT)
                    .unwrap()
            })
            .0
        });
        (aggregate, group)
    };
    let (db_s, table_s) = build(1)?;
    let (serial, serial_group) = scans(&db_s, &table_s);
    drop((db_s, table_s));
    let (db, table) = build(0)?;
    let (par, par_group) = scans(&db, &table);
    let workers = hana_merge::effective_workers(0);
    report::emit(
        "F4b parallel scan",
        &[
            "scan",
            "workers",
            "aggregate (ms)",
            "group-by (ms)",
            "speedup",
        ],
        &[
            vec![
                "serial".into(),
                "1".into(),
                serial.cell(2),
                serial_group.cell(2),
                "1.00x".into(),
            ],
            vec![
                "chunk-parallel".into(),
                workers.to_string(),
                par.cell(2),
                par_group.cell(2),
                format!("{:.2}x", serial.median / par.median),
            ],
        ],
    );

    // A committed delete ends the wholly-visible fast path: the first
    // statement under a snapshot builds the bitmap, later ones reuse it.
    let now = || Snapshot::at(db.txn_manager().now());
    let fast = vis_row("wholly visible (summary fast path)", &table, now);
    let mut d = db.begin(IsolationLevel::Transaction);
    table.delete_where(&d, ColumnId(fact_cols::ORDER_ID as u16), &Value::Int(123))?;
    db.commit(&mut d)?;
    let cold = vis_row("first under a new snapshot (cold)", &table, || {
        let mut bump = db.begin(IsolationLevel::Transaction);
        db.commit(&mut bump).unwrap();
        now()
    });
    let snap = now();
    table.read_at(snap).count();
    let warm = vis_row("repeat under one snapshot (warm)", &table, || snap);
    report::emit(
        "F4b visibility bitmap cache",
        &["statement", "bitmap hits", "bitmap misses", "scan (ms)"],
        &[fast, cold, warm],
    );
    Ok(())
}

/// A durable sales table in `dir` with `rows` bulk-loaded rows merged into
/// main.
fn durable_main(
    dir: &std::path::Path,
    rows: i64,
) -> hana_common::Result<(Arc<Database>, Arc<UnifiedTable>)> {
    let db = Database::open(dir)?;
    let table = db.create_table(SalesSchema::fact(), TableConfig::default())?;
    let mut gen = DataGen::new(7);
    let batch: Vec<Vec<Value>> = (0..rows)
        .map(|i| SalesSchema::fact_row(&mut gen, i, CUSTOMERS, PRODUCTS))
        .collect();
    let mut txn = db.begin(IsolationLevel::Transaction);
    table.bulk_load(&txn, batch)?;
    db.commit(&mut txn)?;
    table.force_full_merge()?;
    Ok((db, table))
}

fn tempdir() -> hana_common::Result<tempfile::TempDir> {
    tempfile::tempdir().map_err(|e| hana_common::HanaError::Persist(format!("tempdir: {e}")))
}

/// Fig 5: log bytes per record, commit cost with and without the log,
/// savepoint cost by table size, and recovery by log-tail length.
fn fig05() -> hana_common::Result<()> {
    println!("\n## F5 — persistency (log once, savepoint, replay)\n");
    let n = scale(10_000);
    let dir = tempdir()?;
    let log_len = || std::fs::metadata(dir.path().join("redo.log")).map_or(0, |m| m.len());
    let db = Database::open(dir.path())?;
    let table = db.create_table(SalesSchema::fact(), TableConfig::default())?;
    let mut gen = DataGen::new(7);
    let mut txn = db.begin(IsolationLevel::Transaction);
    for i in 0..n {
        table.insert(
            &txn,
            SalesSchema::fact_row(&mut gen, i, CUSTOMERS, PRODUCTS),
        )?;
    }
    db.commit(&mut txn)?;
    let insert_bytes = log_len();
    // Merges move the data but add only event records.
    table.force_full_merge()?;
    let merge_bytes = log_len() - insert_bytes;
    report::emit(
        "F5 log volume",
        &["operation", "log bytes", "B/row"],
        &[
            vec![
                format!("{n} inserts in one txn"),
                insert_bytes.to_string(),
                format!("{:.1}", insert_bytes as f64 / n as f64),
            ],
            vec![
                format!("full merge of all {n} rows"),
                merge_bytes.to_string(),
                format!("{:.2}", merge_bytes as f64 / n as f64),
            ],
        ],
    );

    let mut rows = Vec::new();
    for durable in [false, true] {
        let dir = tempdir()?;
        let db = if durable {
            Database::open(dir.path())?
        } else {
            Database::in_memory()
        };
        let table = db.create_table(SalesSchema::fact(), TableConfig::default())?;
        let mut gen = DataGen::new(7);
        let mut id = 0i64;
        let t = sample(|| {
            time_ms(|| {
                let mut txn = db.begin(IsolationLevel::Transaction);
                for _ in 0..100 {
                    let row = SalesSchema::fact_row(&mut gen, id, CUSTOMERS, PRODUCTS);
                    table.insert(&txn, row).unwrap();
                    id += 1;
                }
                db.commit(&mut txn).unwrap();
            })
            .0
        });
        let name = if durable {
            "durable (logged)"
        } else {
            "in memory"
        };
        rows.push(vec![name.into(), t.cell(2)]);
    }
    report::emit(
        "F5 insert commit",
        &["database", "100-insert txn (ms)"],
        &rows,
    );

    let mut rows = Vec::new();
    for main_rows in [scale(5_000), scale(20_000)] {
        let dir = tempdir()?;
        let (db, _table) = durable_main(dir.path(), main_rows)?;
        let t = sample(|| time_ms(|| db.savepoint().unwrap()).0);
        rows.push(vec![main_rows.to_string(), t.cell(2)]);
    }
    report::emit("F5 savepoint", &["main rows", "savepoint (ms)"], &rows);

    // Recovery = load the savepoint image + replay the log tail written
    // after it; the tail grows between rows.
    db.savepoint()?;
    drop((table, db));
    let mut rows = Vec::new();
    let mut logged = 0;
    for tail in [scale(1_000), scale(8_000)] {
        {
            let db = Database::open(dir.path())?;
            let table = db.table("sales")?;
            let mut txn = db.begin(IsolationLevel::Transaction);
            for i in n + logged..n + tail {
                table.insert(
                    &txn,
                    SalesSchema::fact_row(&mut gen, i, CUSTOMERS, PRODUCTS),
                )?;
            }
            db.commit(&mut txn)?;
        }
        logged = tail;
        let t = sample(|| {
            let (t, db) = time_ms(|| Database::open(dir.path()).unwrap());
            let r = db.begin(IsolationLevel::Transaction);
            assert_eq!(
                db.table("sales").unwrap().read(&r).count(),
                (n + tail) as usize
            );
            t
        });
        rows.push(vec![n.to_string(), tail.to_string(), t.cell(2)]);
    }
    report::emit(
        "F5 recovery",
        &["savepoint rows", "log tail records", "recovery (ms)"],
        &rows,
    );

    fig05_filter()?;
    Ok(())
}

/// F5b: compressed-domain predicate execution — filters compiled to
/// dictionary-code ranges run inside the encoded code vectors with zone-map
/// pruning, vs materializing every row and filtering on values.
fn fig05_filter() -> hana_common::Result<()> {
    use hana_core::ColumnPredicate;
    use std::ops::Bound;
    let n = scale(200_000);
    println!("\n## F5b — compressed-domain filtering vs materialize-then-filter ({n} rows)\n");
    let st = staged_sales(n, Stage::Main, 7);
    let snap = Snapshot::at(st.db.txn_manager().now());
    let mut rows = Vec::new();
    for (name, hits) in [("0.1%", n / 1000), ("1%", n / 100), ("50%", n / 2)] {
        let preds = vec![ColumnPredicate::Range(
            fact_cols::ORDER_ID,
            Bound::Included(Value::Int(0)),
            Bound::Excluded(Value::Int(hits)),
        )];
        let mut stats = Default::default();
        let t_code = sample(|| {
            let read = st.table.read_at(snap);
            let (t, (matched, s)) = time_ms(|| read.scan_filtered(&preds, None).unwrap());
            assert_eq!(matched.len(), hits as usize);
            stats = s;
            t
        });
        let t_value = sample(|| {
            let read = st.table.read_at(snap);
            let (t, kept) = time_ms(|| {
                let mut all = read.collect_rows();
                all.retain(|r| preds.iter().all(|p| p.matches_value(&r.values[p.column()])));
                all.len()
            });
            assert_eq!(kept, hits as usize);
            t
        });
        let stats: hana_core::ScanStats = stats;
        rows.push(vec![
            name.into(),
            hits.to_string(),
            t_code.cell(2),
            t_value.cell(2),
            format!("{:.2}x", t_value.median / t_code.median),
            stats.zone_pruned_rows.to_string(),
            stats.code_filtered_rows.to_string(),
        ]);
    }
    report::emit(
        "F5b compressed-domain filtering",
        &[
            "selectivity",
            "rows out",
            "code-domain (ms)",
            "materialize+filter (ms)",
            "speedup",
            "zone-pruned rows",
            "code-filtered rows",
        ],
        &rows,
    );
    fig05_eq_routes();
    Ok(())
}

/// F5b (equality routes): a selective `Eq` answered through an inverted
/// index — the list of the code's positions, gathered into the hit list —
/// against the packed-word kernel behind per-chunk zone maps
/// (`filter_range` over every chunk the zone map admits, then `iter_ones`),
/// per encoding and selectivity, at the column layer. Both routes must
/// return the same positions. This measurement decides which columns keep
/// an index: only keys do, because the kernel is fast enough everywhere
/// else.
fn fig05_eq_routes() {
    use hana_column::{
        BitPackedVec, Bitmap, Cluster, CodeFilter, CodeMatcher, CodeVector, InvertedIndex, Pos,
        Rle, Sparse, ZoneMap, ZONE_CHUNK_ROWS,
    };
    let n = scale(1_000_000) as usize;
    println!("\n## F5b — `Eq` through an inverted index vs kernel + zone maps ({n} rows)\n");
    let mix = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
    // The probed code and its positions: one hit per stride of n/k rows,
    // at a pseudo-random offset inside the stride.
    let hit: u32 = 2;
    let layout = |k: usize, other: &dyn Fn(usize) -> u32| -> Vec<u32> {
        let mut codes: Vec<u32> = (0..n).map(other).collect();
        let stride = n / k;
        for j in 0..k {
            codes[j * stride + mix(j as u64) as usize % stride] = hit;
        }
        codes
    };
    let not_hit = |c: u32| if c == hit { hit + 1 } else { c };
    // Per-iteration time of `f` in µs, each sample one batch of ≥ 5 ms.
    let per_iter = |f: &mut dyn FnMut() -> usize| {
        sample(|| {
            let (mut iters, t0) = (0u32, Instant::now());
            while iters == 0 || t0.elapsed() < Duration::from_millis(5) {
                std::hint::black_box(f());
                iters += 1;
            }
            t0.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
    };
    let mut rows = Vec::new();
    for (sel, k) in [("0.01%", n / 10_000), ("0.1%", n / 1_000), ("1%", n / 100)] {
        let k = k.max(1);
        let random = |bits: u32| layout(k, &|i| not_hit(mix(i as u64) as u32 & ((1 << bits) - 1)));
        let mut sorted = random(8);
        sorted.sort_unstable();
        let sparse = layout(k, &|i| match mix(i as u64) % 20 {
            0 => not_hit(1 + mix(i as u64 + 7) as u32 % 255),
            _ => 0,
        });
        let columns: Vec<(String, Vec<u32>, CodeVector)> = [4u8, 8, 13, 16]
            .into_iter()
            .map(|bits| {
                let codes = random(bits as u32);
                let cv = CodeVector::BitPacked(BitPackedVec::from_codes_with_bits(&codes, bits));
                (format!("bit-packed {bits}"), codes, cv)
            })
            .chain([
                (
                    "RLE (sorted)".to_string(),
                    sorted.clone(),
                    CodeVector::Rle(Rle::from_codes(&sorted)),
                ),
                (
                    "cluster (sorted)".into(),
                    sorted.clone(),
                    CodeVector::Cluster(Cluster::from_codes(&sorted, 1024)),
                ),
                (
                    "sparse (95% one code)".into(),
                    sparse.clone(),
                    CodeVector::Sparse(Sparse::from_codes(&sparse, 0)),
                ),
            ])
            .collect();
        for (name, codes, cv) in columns {
            let max = *codes.iter().max().expect("non-empty column");
            let null = max + 1;
            let index = InvertedIndex::build(codes.iter().copied(), null as usize + 1);
            let zones = ZoneMap::build(&codes, null);
            let m = CodeMatcher::new(CodeFilter::eq(hit), null);
            let via_index = || index.positions(hit).to_vec();
            let mut pruned = 0;
            let via_kernel = |pruned: &mut usize| {
                let mut out: Vec<Pos> = Vec::new();
                for (ci, zone) in zones.chunks().iter().enumerate() {
                    if !zone.overlaps(hit, hit) {
                        *pruned += 1;
                        continue;
                    }
                    let start = ci * ZONE_CHUNK_ROWS;
                    let end = (start + ZONE_CHUNK_ROWS).min(n);
                    let mut hits = Bitmap::zeros(end - start);
                    cv.filter_range(start, end, &m, &mut hits);
                    out.extend(hits.iter_ones().map(|i| (start + i) as Pos));
                }
                out
            };
            let want = via_index();
            assert_eq!(want.len(), k, "{name}: hit count");
            assert_eq!(
                via_kernel(&mut pruned),
                want,
                "{name} at {sel}: routes disagree"
            );
            let t_index = per_iter(&mut || via_index().len());
            let t_kernel = per_iter(&mut || via_kernel(&mut 0).len());
            rows.push(vec![
                name,
                sel.into(),
                k.to_string(),
                t_index.cell(2),
                t_kernel.cell(2),
                format!("{:.0}x", t_kernel.median / t_index.median),
                format!("{pruned}/{}", zones.chunk_count()),
                format!("{:.2}", index.heap_size() as f64 / n as f64),
            ]);
        }
    }
    report::emit(
        "F5b Eq routes",
        &[
            "encoding",
            "selectivity",
            "hits",
            "index + gather (µs)",
            "kernel + zones (µs)",
            "kernel / index",
            "chunks pruned",
            "index B/row",
        ],
        &rows,
    );
}

/// Fig 6: L1→L2 merge cost scales with the batch moved, not with the
/// receiving L2, and readers keep their latency while merges run.
fn fig06() -> hana_common::Result<()> {
    println!("\n## F6 — incremental L1→L2 merge\n");
    let batch = scale(4_000);
    let mut rows = Vec::new();
    for (batch, l2) in [
        (scale(1_000), 0),
        (batch, 0),
        (scale(16_000), 0),
        (batch, scale(20_000)),
        (batch, scale(100_000)),
    ] {
        let t = sample(|| {
            let st = staged_sales(0, Stage::L2, 7);
            if l2 > 0 {
                fill_l2(&st, 0, l2, 13);
            }
            fill_l1(&st, l2, batch, 17);
            let (t, moved) = time_ms(|| st.table.drain_l1().unwrap());
            assert_eq!(moved as i64, batch);
            t
        });
        rows.push(vec![
            batch.to_string(),
            l2.to_string(),
            t.cell(2),
            format!("{:.0}", batch as f64 / t.median * 1e3),
        ]);
    }
    report::emit(
        "F6 L1-to-L2 merge",
        &["L1 batch", "pre-existing L2 rows", "merge (ms)", "rows/s"],
        &rows,
    );

    // Point readers under one snapshot, with and without a writer that
    // commits 500-row transactions and drains them into the L2.
    let main_rows = scale(50_000);
    let mut rows = Vec::new();
    for merging in [false, true] {
        let st = staged_sales(main_rows, Stage::Main, 7);
        let snap = Snapshot::at(st.db.txn_manager().now());
        let stop = AtomicBool::new(false);
        let t = std::thread::scope(|scope| {
            if merging {
                scope.spawn(|| {
                    let mut gen = DataGen::new(23);
                    let mut id = main_rows;
                    while !stop.load(Ordering::Relaxed) {
                        let mut txn = st.db.begin(IsolationLevel::Transaction);
                        for _ in 0..500 {
                            let row = SalesSchema::fact_row(&mut gen, id, CUSTOMERS, PRODUCTS);
                            st.table.insert(&txn, row).unwrap();
                            id += 1;
                        }
                        st.db.commit(&mut txn).unwrap();
                        st.table.drain_l1().unwrap();
                    }
                });
            }
            let t = sample(|| point_us(&st.table, snap, main_rows));
            stop.store(true, Ordering::Relaxed);
            t
        });
        let background = if merging {
            "writer + L1→L2 merges"
        } else {
            "quiescent"
        };
        rows.push(vec![background.into(), t.cell(2)]);
    }
    report::emit(
        "F6 reader latency",
        &["background", "point lookup (µs)"],
        &rows,
    );
    Ok(())
}

/// Time one `decision` merge of a `delta`-row L2 into a `main_rows`-row
/// main (set-up untimed), checking that every row lands in main.
fn merge_ms(main_rows: i64, delta: i64, decision: MergeDecision) -> f64 {
    let st = staged_sales(main_rows, Stage::Main, 7);
    fill_l2(&st, main_rows, delta, 13);
    let (t, _) = time_ms(|| st.table.merge_delta_as(decision).unwrap());
    assert_eq!(st.table.stage_stats().main_rows as i64, main_rows + delta);
    t
}

/// Fig 7: classic merge cost vs main size, dictionary fast paths, and the
/// parallel column-wise fan-out vs the serial merge.
fn fig07() -> hana_common::Result<()> {
    let delta = scale(5_000);
    println!("\n## F7 — classic delta-to-main merge (delta = {delta} rows)\n");
    let mut rows = Vec::new();
    for main_rows in [scale(10_000), scale(40_000), scale(160_000)] {
        let t = sample(|| merge_ms(main_rows, delta, MergeDecision::Classic));
        rows.push(vec![main_rows.to_string(), t.cell(2)]);
    }
    report::emit(
        "F7 classic merge",
        &["old main rows", "classic merge (ms)"],
        &rows,
    );

    use hana_dict::{merge_dicts, MergeKind, SortedDict, UnsortedDict};
    let dict_n = scale(200_000);
    let probe = scale(5_000);
    let main = SortedDict::from_values((0..dict_n).map(|i| Value::Int(i * 2)).collect());
    let mk = |vals: Vec<i64>| {
        let mut d = UnsortedDict::new();
        for v in vals {
            d.get_or_insert(&Value::Int(v));
        }
        d
    };
    let cases = [
        (
            "delta ⊆ main (stable positions)",
            mk((0..probe).map(|i| (i * 17 % dict_n) * 2).collect()),
        ),
        (
            "delta > main (timestamp append)",
            mk((2 * dict_n..2 * dict_n + probe).collect()),
        ),
        (
            "general (interleaved)",
            mk((0..probe).map(|i| i * 2 + 1).collect()),
        ),
    ];
    let mut rows = Vec::new();
    for (name, delta) in &cases {
        let kind = match merge_dicts(&main, delta).kind {
            MergeKind::DeltaSubset => "DeltaSubset",
            MergeKind::DeltaAppend => "DeltaAppend",
            MergeKind::General => "General",
        };
        let t = sample(|| time_ms(|| merge_dicts(&main, delta)).0 * 1e3);
        rows.push(vec![(*name).into(), kind.into(), t.cell(0)]);
    }
    report::emit(
        "F7 dictionary fast paths",
        &["dictionary case", "path taken", "dict merge (µs)"],
        &rows,
    );

    fig07_parallel()?;
    Ok(())
}

/// F7b: the same classic merge over a 16-column table, serial vs the
/// column-parallel fan-out (speedup tracks the core count; on one core the
/// two are expected to tie).
fn fig07_parallel() -> hana_common::Result<()> {
    let wide_rows = scale(1_000_000);
    const WIDE_COLS: usize = 16;
    println!("\n## F7b — parallel column-wise merge (16 columns, {wide_rows} rows)\n");
    let merge = |parallelism: usize| -> hana_common::Result<(Summary, usize)> {
        let cols: Vec<ColumnDef> = std::iter::once(ColumnDef::new("id", DataType::Int).unique())
            .chain((1..WIDE_COLS).map(|c| ColumnDef::new(format!("c{c}"), DataType::Int)))
            .collect();
        let schema = Schema::new("wide", cols)?;
        let cfg = TableConfig {
            l1_max_rows: usize::MAX / 2,
            l2_max_rows: usize::MAX / 2,
            ..TableConfig::default()
        }
        .with_merge(MergeConfig::default().with_column_parallelism(parallelism));
        let mut workers = 1;
        let t = sample(|| {
            let db = Database::in_memory();
            let table = db.create_table(schema.clone(), cfg.clone()).unwrap();
            let batch: Vec<Vec<Value>> = (0..wide_rows)
                .map(|i| {
                    std::iter::once(Value::Int(i))
                        .chain((1..WIDE_COLS as i64).map(|c| Value::Int((i * 31 + c) % 997)))
                        .collect()
                })
                .collect();
            let mut txn = db.begin(IsolationLevel::Transaction);
            table.bulk_load(&txn, batch).unwrap();
            db.commit(&mut txn).unwrap();
            let (t, _) = time_ms(|| table.merge_delta_as(MergeDecision::Classic).unwrap());
            assert_eq!(table.stage_stats().main_rows as i64, wide_rows);
            workers = table.last_merge_metrics().map_or(1, |m| m.parallel_workers);
            t
        });
        Ok((t, workers))
    };
    let (t_serial, _) = merge(1)?;
    let (t_par, workers) = merge(0)?;
    report::emit(
        "F7b parallel merge",
        &["merge", "workers", "merge (ms)", "speedup"],
        &[
            vec![
                "serial".into(),
                "1".into(),
                t_serial.cell(2),
                "1.00x".into(),
            ],
            vec![
                "column-parallel".into(),
                workers.to_string(),
                t_par.cell(2),
                format!("{:.2}x", t_serial.median / t_par.median),
            ],
        ],
    );
    Ok(())
}

/// One classic merge of `table` with a racer thread that, once the
/// off-lock build has frozen the L2, updates the rows keyed `keys` in
/// column 0 (setting column `col` to -1), so publication has raced end
/// stamps to reconcile off-lock. A merge the racer's open transaction
/// makes fail is retried once the racer has committed.
fn merge_with_racer(
    db: &Database,
    table: &UnifiedTable,
    keys: &[i64],
    col: usize,
) -> hana_common::Result<()> {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let racer = scope.spawn(|| {
            while !done.load(Ordering::Relaxed) && table.stage_stats().l2_frozen_rows == 0 {
                std::thread::yield_now();
            }
            if !done.load(Ordering::Relaxed) {
                let mut txn = db.begin(IsolationLevel::Transaction);
                for &key in keys {
                    let _ = table.update_where(
                        &txn,
                        ColumnId(0),
                        &Value::Int(key),
                        &[(ColumnId(col as u16), Value::Int(-1))],
                    );
                }
                let _ = db.commit(&mut txn);
            }
        });
        let merged = table.merge_delta_as(MergeDecision::Classic);
        done.store(true, Ordering::Relaxed);
        racer.join().unwrap();
        match merged {
            // The build met the racer's stamps while its transaction was
            // still in flight; it has committed now, so retry as the merge
            // daemon would.
            Err(e) if e.is_retryable() => table.merge_delta_as(MergeDecision::Classic),
            merged => merged,
        }
    })
}

/// The F7c experiment: concurrent writers updating a fixed working set
/// while the merge daemon (and GC) cycles.
struct F7cRun {
    commits: u64,
    p99_us: u64,
    max_stall_ns: u64,
    mean_stall_ns: u64,
    merges: u64,
    gc: Option<hana_core::GcStats>,
}

fn f7c_run(working: i64, window: Duration) -> hana_common::Result<F7cRun> {
    // Two phases. (1) Churn: concurrent writers + the merge daemon build a
    // realistic main and pending-write traffic; writer wall-clock latency is
    // recorded here. (2) Quiesced measurement: writers and daemon stopped,
    // then a few merges run single-threaded and only their exclusive-section
    // holds are recorded. On a 1-CPU container any thread can be descheduled
    // for a full scheduler quantum (~10ms) *while holding the lock*, which
    // drowns the publication work if the stall is measured under contention
    // — with no other runnable threads the hold is pure CPU work: O(residue)
    // + pointer swap.
    let db = Database::in_memory();
    let cfg = TableConfig {
        l1_max_rows: 256,
        l2_max_rows: 4_096,
        ..TableConfig::default()
    };
    let schema = Schema::new(
        "churn",
        vec![
            ColumnDef::new("id", DataType::Int).unique(),
            ColumnDef::new("hits", DataType::Int).not_null(),
        ],
    )?;
    let table = db.create_table(schema, cfg)?;
    let mut txn = db.begin(IsolationLevel::Transaction);
    let rows: Vec<Vec<Value>> = (0..working)
        .map(|i| vec![Value::Int(i), Value::Int(0)])
        .collect();
    table.bulk_load(&txn, rows)?;
    db.commit(&mut txn)?;
    table.merge_delta_as(MergeDecision::Classic)?;
    db.enable_gc();
    db.start_merge_daemon(Duration::from_millis(1));

    let stop = AtomicBool::new(false);
    let latencies: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|w| {
                let db = Arc::clone(&db);
                let table = Arc::clone(&table);
                let stop = &stop;
                scope.spawn(move || {
                    let mut seed = w.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
                    let mut local = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let key = (seed % working as u64) as i64;
                        let t0 = Instant::now();
                        let mut txn = db.begin(IsolationLevel::Transaction);
                        let ok = table
                            .update_where(
                                &txn,
                                ColumnId(0),
                                &Value::Int(key),
                                &[(ColumnId(1), Value::Int(t0.elapsed().subsec_micros() as i64))],
                            )
                            .is_ok();
                        if ok {
                            db.commit(&mut txn).unwrap();
                            local.push(t0.elapsed().as_micros() as u64);
                        } else {
                            let _ = db.abort(&mut txn);
                        }
                    }
                    local
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let merges = db.merge_daemon_stats().map_or(0, |s| s.merges_done);
    let gc = db.gc_stats();
    db.stop_merge_daemon();

    let mut all: Vec<u64> = latencies.into_iter().flatten().collect();
    all.sort_unstable();
    let commits = all.len() as u64;
    let p99 = all
        .get((all.len().saturating_sub(1)) * 99 / 100)
        .copied()
        .unwrap_or(0);

    // Phase 2: quiesced measurement (see the function comment). Each round
    // refills the delta, then merges with a racer that end-stamps a few rows
    // while the (off-lock, ms-scale) build runs and exits well before
    // publication: the raced stamps are reconciled off-lock, and publication
    // swaps in constant time.
    table.reset_publication_stall();
    for round in 0..4i64 {
        let mut txn = db.begin(IsolationLevel::Transaction);
        for k in 0..512i64 {
            let key = (round * 512 + k) % working;
            table.update_where(
                &txn,
                ColumnId(0),
                &Value::Int(key),
                &[(ColumnId(1), Value::Int(k))],
            )?;
        }
        db.commit(&mut txn)?;
        table.drain_l1()?;
        let raced: Vec<i64> = (0..8)
            .map(|k| working - 1 - (round * 8 + k) % working)
            .collect();
        merge_with_racer(&db, &table, &raced, 1)?;
    }
    Ok(F7cRun {
        commits,
        p99_us: p99,
        max_stall_ns: table.max_publication_stall_ns(),
        mean_stall_ns: table.mean_publication_stall_ns(),
        merges,
        gc,
    })
}

/// Fig 7c: writer-observed stall during merge publication — the off-side
/// build + constant-time swap — across main sizes, plus the background MVCC
/// GC's reclaim counters under churn and its steady-state sweep cost.
fn fig07c() -> hana_common::Result<()> {
    let working = scale(24_000);
    let window = scale_duration(Duration::from_millis(1_500));
    println!(
        "\n## F7c — writer stall during merges ({working}-row working set, 4 writers, {:.1}s window)\n",
        window.as_secs_f64()
    );
    let n = f7c_run(working, window)?;
    report::emit(
        "F7c merge stall",
        &[
            "publication",
            "commits",
            "merges",
            "p99 write (µs)",
            "max publication lock (µs)",
            "mean publication lock (µs)",
        ],
        &[vec![
            "non-blocking".into(),
            n.commits.to_string(),
            n.merges.to_string(),
            n.p99_us.to_string(),
            format!("{:.1}", n.max_stall_ns as f64 / 1_000.0),
            format!("{:.1}", n.mean_stall_ns as f64 / 1_000.0),
        ]],
    );
    let gc = n.gc.unwrap_or_default();
    report::emit(
        "F7c gc reclaim",
        &["counter", "value"],
        &[
            vec!["gc cycles".into(), gc.cycles.to_string()],
            vec!["marks resolved".into(), gc.marks_resolved.to_string()],
            vec![
                "txn entries trimmed".into(),
                gc.txn_entries_trimmed.to_string(),
            ],
            vec![
                "vis-cache entries evicted".into(),
                gc.vis_entries_evicted.to_string(),
            ],
            vec!["dead versions (gauge)".into(), gc.dead_versions.to_string()],
            vec![
                "dead dict codes (gauge)".into(),
                gc.dead_dict_codes.to_string(),
            ],
        ],
    );

    // The exclusive hold of one quiesced merge (a 2k-row L2 into the main,
    // 8 raced updates) as the main grows, and the steady-state GC sweep over
    // a main whose first 1k rows were updated once.
    let mut rows = Vec::new();
    for main_rows in [scale(10_000), scale(40_000)] {
        let stall = sample(|| {
            let st = staged_sales(main_rows, Stage::Main, 7);
            fill_l2(&st, main_rows, 2_000, 13);
            st.table.reset_publication_stall();
            let raced: Vec<i64> = (0..8).map(|k| k * 97).collect();
            merge_with_racer(&st.db, &st.table, &raced, fact_cols::AMOUNT).unwrap();
            st.table.total_publication_stall_ns() as f64 / 1e3
        });
        let st = staged_sales(main_rows, Stage::Main, 7);
        let mut txn = st.db.begin(IsolationLevel::Transaction);
        for k in 0..1_000i64 {
            st.table.update_where(
                &txn,
                ColumnId(fact_cols::ORDER_ID as u16),
                &Value::Int(k % main_rows),
                &[(ColumnId(fact_cols::AMOUNT as u16), Value::Int(k))],
            )?;
        }
        st.db.commit(&mut txn)?;
        // The first sweep resolves the marks and memoizes the parts.
        st.table.gc_sweep();
        let sweep = sample(|| time_ms(|| st.table.gc_sweep()).0 * 1e3);
        rows.push(vec![main_rows.to_string(), stall.cell(1), sweep.cell(1)]);
    }
    report::emit(
        "F7c stall and sweep vs main size",
        &[
            "main rows",
            "publication lock (µs)",
            "steady-state gc sweep (µs)",
        ],
        &rows,
    );
    Ok(())
}

/// Fig 8: re-sorting merge — cost vs compression.
fn fig08() -> hana_common::Result<()> {
    let n = scale(60_000);
    println!("\n## F8 — re-sorting merge ({n} rows)\n");
    let mut rows = Vec::new();
    for (name, decision) in [
        ("classic", MergeDecision::Classic),
        ("re-sorting", MergeDecision::ReSorting),
    ] {
        let mut merged = None;
        let t = sample(|| {
            let st = staged_sales(0, Stage::L2, 7);
            fill_l2(&st, 0, n, 13);
            let (t, _) = time_ms(|| st.table.merge_delta_as(decision).unwrap());
            assert_eq!(st.table.stage_stats().main_rows as i64, n);
            merged = Some(st);
            t
        });
        let st = merged.expect("sampled at least once");
        let snap = Snapshot::at(st.db.txn_manager().now());
        let scan = sample(|| {
            let read = st.table.read_at(snap);
            time_ms(|| {
                read.group_aggregate(fact_cols::CITY, fact_cols::AMOUNT)
                    .unwrap()
            })
            .0
        });
        rows.push(vec![
            name.into(),
            t.cell(2),
            st.table.stage_stats().main_data_bytes.to_string(),
            scan.cell(2),
        ]);
    }
    report::emit(
        "F8 re-sorting merge",
        &[
            "merge",
            "merge cost (ms)",
            "main data bytes",
            "group scan (ms)",
        ],
        &rows,
    );
    Ok(())
}

/// Fig 9: partial vs full merge cost as the main grows.
fn fig09() -> hana_common::Result<()> {
    let delta = scale(5_000);
    println!("\n## F9 — partial merge (delta = {delta} rows)\n");
    let mut rows = Vec::new();
    for main_rows in [scale(20_000), scale(80_000), scale(240_000)] {
        let mut line = vec![main_rows.to_string()];
        for decision in [MergeDecision::Classic, MergeDecision::Partial] {
            line.push(sample(|| merge_ms(main_rows, delta, decision)).cell(2));
        }
        rows.push(line);
    }
    report::emit(
        "F9 partial merge",
        &["main rows", "full merge (ms)", "partial merge (ms)"],
        &rows,
    );
    Ok(())
}

/// Fig 10: queries over single vs passive+active main.
fn fig10() -> hana_common::Result<()> {
    use std::ops::Bound;
    let base = scale(80_000);
    let delta = scale(20_000);
    println!("\n## F10 — queries over passive + active main ({base} + {delta} rows)\n");
    let mut rows = Vec::new();
    for split in [false, true] {
        let st = staged_sales(base, Stage::Main, 7);
        fill_l2(&st, base, delta, 13);
        st.table.merge_delta_as(if split {
            MergeDecision::Partial
        } else {
            MergeDecision::Classic
        })?;
        assert_eq!(st.table.stage_stats().main_parts, if split { 2 } else { 1 });
        let snap = Snapshot::at(st.db.txn_manager().now());
        let point = sample(|| point_us(&st.table, snap, base + delta));
        let mut hits = 0;
        let range = sample(|| {
            let read = st.table.read_at(snap);
            let (t, n) = time_ms(|| {
                read.range(
                    fact_cols::CITY,
                    Bound::Included(&Value::str("C")),
                    Bound::Excluded(&Value::str("M")),
                )
                .unwrap()
                .len()
            });
            hits = n;
            t
        });
        let layout = if split {
            "passive + active (2 parts)"
        } else {
            "single main"
        };
        rows.push(vec![
            layout.into(),
            point.cell(1),
            hits.to_string(),
            range.cell(2),
        ]);
    }
    report::emit(
        "F10 passive+active main",
        &[
            "main layout",
            "point lookup (µs)",
            "range C%..M% rows",
            "range C%..M% (ms)",
        ],
        &rows,
    );
    Ok(())
}

/// F10b: group-commit REDO logging — durable OLTP commit throughput vs
/// writer threads, fsync-per-commit vs the leader-based pipeline. The
/// durability contract is identical in both modes; the gap is batching.
fn fig10b() -> hana_common::Result<()> {
    use hana_common::CommitConfig;
    use hana_workload::oltp::DurableOltp;
    let orders = scale(10_000);
    let per_thread = (scale(8_000) / 4).max(200) as usize;
    println!("\n## F10b — group commit: durable OLTP writers ({per_thread} ops/thread, insert-heavy mix)\n");
    let mut rows = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        for (mode, cfg) in [
            ("fsync/commit", CommitConfig::serial()),
            ("group", CommitConfig::default()),
        ] {
            // Each sample: a fresh durable database with the lifecycle
            // daemon running (as M1 does), and an insert-heavy,
            // conflict-free mix (hot-key contention is M1's subject).
            let (mut records, mut fsyncs) = (0, 0);
            let rate = sample(|| {
                let dir = tempdir().unwrap();
                let db = Database::open(dir.path()).unwrap();
                db.set_commit_config(cfg);
                let tcfg = TableConfig {
                    l1_max_rows: 256,
                    l2_max_rows: 1_000_000,
                    ..TableConfig::default()
                };
                let ds = SalesDataset::load(&db, tcfg, orders, CUSTOMERS, PRODUCTS, 7).unwrap();
                db.start_merge_daemon(Duration::from_millis(1));
                let before = db.log_stats().unwrap_or_default();
                let engine = DurableOltp {
                    db: Arc::clone(&db),
                    table: Arc::clone(&ds.sales),
                };
                let driver =
                    OltpDriver::new(orders, CUSTOMERS, PRODUCTS, 0.9).with_mix((85, 0, 15, 0));
                let (t, rep) = time_ms(|| driver.run_concurrent(&engine, threads, per_thread, 99));
                db.stop_merge_daemon();
                let after = db.log_stats().unwrap_or_default();
                records += after.records - before.records;
                fsyncs += after.fsyncs - before.fsyncs;
                rep.unwrap().committed as f64 / t * 1e3
            });
            rows.push(vec![
                format!("{threads}"),
                mode.into(),
                rate.cell(0),
                format!("{records}"),
                format!("{fsyncs}"),
                format!("{:.1}", records as f64 / fsyncs.max(1) as f64),
            ]);
        }
    }
    report::emit(
        "F10b group commit",
        &[
            "writers",
            "mode",
            "commits/s",
            "log records (all samples)",
            "fsyncs (all samples)",
            "records/fsync",
        ],
        &rows,
    );
    Ok(())
}

/// Fig 11: the lifecycle characteristics matrix.
fn fig11() -> hana_common::Result<()> {
    let n = scale(20_000);
    let probe = scale(5_000);
    const UPDATES: i64 = 200;
    println!("\n## F11 — lifecycle characteristics matrix ({n} rows/stage)\n");
    let mut rows = Vec::new();
    for stage in [Stage::L1, Stage::L2, Stage::Main] {
        let st = staged_sales(n, stage, 7);
        let snap = Snapshot::at(st.db.txn_manager().now());
        // Write rate through this stage's entry path, into a fresh table:
        // single-row transactions into the L1, the bulk path for L2 and
        // main.
        let write_rate = sample(|| {
            let entry = if stage == Stage::L1 { stage } else { Stage::L2 };
            let fresh = staged_sales(0, entry, 77);
            let mut gen = DataGen::new(31);
            let batch = (0..probe).map(|i| SalesSchema::fact_row(&mut gen, i, CUSTOMERS, PRODUCTS));
            let (t, _) = time_ms(|| {
                if stage == Stage::L1 {
                    for row in batch {
                        let mut txn = fresh.db.begin(IsolationLevel::Transaction);
                        fresh.table.insert(&txn, row).unwrap();
                        fresh.db.commit(&mut txn).unwrap();
                    }
                } else {
                    let mut txn = fresh.db.begin(IsolationLevel::Transaction);
                    fresh.table.bulk_load(&txn, batch.collect()).unwrap();
                    fresh.db.commit(&mut txn).unwrap();
                }
            });
            probe as f64 / t * 1e3
        });
        let point = sample(|| point_us(&st.table, snap, n));
        let scan = sample(|| {
            let read = st.table.read_at(snap);
            time_ms(|| {
                read.group_aggregate(fact_cols::CITY, fact_cols::AMOUNT)
                    .unwrap()
            })
            .0
        });
        let stats = st.table.stage_stats();
        let bytes_per_row = match stage {
            Stage::L1 => stats.l1_bytes as f64 / (stats.l1_rows.max(1)) as f64,
            Stage::L2 => stats.l2_bytes as f64 / (stats.l2_rows.max(1)) as f64,
            Stage::Main => stats.main_bytes as f64 / (stats.main_rows.max(1)) as f64,
        };
        // Updating a row whose current version sits in this stage (last:
        // it moves versions into the L1).
        let update = sample(|| {
            let (t, _) = time_ms(|| {
                for k in 0..UPDATES {
                    let mut txn = st.db.begin(IsolationLevel::Transaction);
                    st.table
                        .update_where(
                            &txn,
                            ColumnId(fact_cols::ORDER_ID as u16),
                            &Value::Int(k * 7919 % n),
                            &[(ColumnId(fact_cols::STATUS as u16), Value::Int(1))],
                        )
                        .unwrap();
                    st.db.commit(&mut txn).unwrap();
                }
            });
            t * 1e3 / UPDATES as f64
        });
        rows.push(vec![
            format!("{stage:?}"),
            write_rate.cell(0),
            point.cell(1),
            scan.cell(2),
            update.cell(1),
            format!("{bytes_per_row:.0}"),
        ]);
    }
    report::emit(
        "F11 lifecycle matrix",
        &[
            "stage",
            "write rows/s",
            "point lookup (µs)",
            "group scan (ms)",
            "update (µs)",
            "bytes/row",
        ],
        &rows,
    );

    // The L1 across the paper's range (10k–100k rows, and 1k below it):
    // every key lookup probes the segments' key tables, so none of the
    // three costs should grow with the resident rows.
    println!("\n## F11 — L1 sweep (single-row transactions, {UPDATES} ops per timing)\n");
    let mut rows = Vec::new();
    for resident in [1_000i64, 10_000, 100_000] {
        let (mut insert, mut point, mut update) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..samples() {
            let st = staged_sales(resident, Stage::L1, 7);
            let snap = Snapshot::at(st.db.txn_manager().now());
            point.push(point_us(&st.table, snap, resident));
            let (t, _) = time_ms(|| {
                for k in 0..UPDATES {
                    let mut txn = st.db.begin(IsolationLevel::Transaction);
                    st.table
                        .update_where(
                            &txn,
                            ColumnId(fact_cols::ORDER_ID as u16),
                            &Value::Int(k * 7919 % resident),
                            &[(ColumnId(fact_cols::STATUS as u16), Value::Int(1))],
                        )
                        .unwrap();
                    st.db.commit(&mut txn).unwrap();
                }
            });
            update.push(t * 1e3 / UPDATES as f64);
            let mut gen = DataGen::new(31);
            let (t, _) = time_ms(|| {
                for i in resident..resident + UPDATES {
                    let row = SalesSchema::fact_row(&mut gen, i, CUSTOMERS, PRODUCTS);
                    let mut txn = st.db.begin(IsolationLevel::Transaction);
                    st.table.insert(&txn, row).unwrap();
                    st.db.commit(&mut txn).unwrap();
                }
            });
            insert.push(UPDATES as f64 / t * 1e3);
        }
        rows.push(vec![
            format!("{resident}"),
            Summary::of(&insert).cell(0),
            Summary::of(&point).cell(1),
            Summary::of(&update).cell(1),
        ]);
    }
    report::emit(
        "F11 L1 sweep",
        &[
            "resident L1 rows",
            "insert rows/s",
            "point lookup (µs)",
            "update (µs)",
        ],
        &rows,
    );
    Ok(())
}

/// F11p: hash partitioning — the sharded write path and partition scans.
///
/// OLTP throughput at 1/2/4/8 hash-routed writers against the same logical
/// table held as 1 vs 8 partitions. The logical delta budget is divided
/// across the shards (`l1_max_rows / N`); on a multi-core box the shards
/// merge and scan in parallel. The second table times a partition-parallel
/// filtered scan of the settled main stores.
fn fig11p() -> hana_common::Result<()> {
    use hana_common::PartitionConfig;
    use hana_core::ColumnPredicate;
    use hana_workload::oltp::PartitionedOltp;
    use std::ops::Bound;

    let per_thread = (scale(8_000) / 8).max(100) as usize;
    println!("\n## F11p — partition scaling ({per_thread} ops/thread, insert-heavy mix)\n");
    let mut rows = Vec::new();
    let mut base = 1.0f64; // 1-partition commits/s at the current writer count
    for &threads in &[1usize, 2, 4, 8] {
        for &parts in &[1usize, 8] {
            let mut round = 0;
            let rate = sample(|| {
                round += 1;
                let db = Database::in_memory();
                // One logical delta budget; `create_partitioned_table`
                // divides it across the shards.
                let tcfg = TableConfig {
                    l1_max_rows: 8_192,
                    l2_max_rows: 1_000_000,
                    ..TableConfig::default()
                };
                let table = db
                    .create_partitioned_table(
                        SalesSchema::fact(),
                        tcfg,
                        PartitionConfig::new(parts, fact_cols::ORDER_ID),
                    )
                    .unwrap();
                db.start_merge_daemon(Duration::from_millis(1));
                let engine = PartitionedOltp {
                    db: Arc::clone(&db),
                    table,
                };
                // Insert-heavy, conflict-free mix (as F10b): measures the
                // sharded write path, not hot-key contention.
                let driver = OltpDriver::new(0, CUSTOMERS, PRODUCTS, 0.9).with_mix((85, 0, 15, 0));
                let (t, rep) = time_ms(|| {
                    driver.run_concurrent_partitioned(&engine, threads, per_thread, 99 + round)
                });
                db.stop_merge_daemon();
                rep.unwrap().total.committed as f64 / t * 1e3
            });
            if parts == 1 {
                base = rate.median;
            }
            rows.push(vec![
                format!("{threads}"),
                format!("{parts}"),
                rate.cell(0),
                format!("{:.2}", rate.median / base),
            ]);
        }
    }
    report::emit(
        "F11p partition write scaling",
        &["writers", "partitions", "commits/s", "vs 1 part"],
        &rows,
    );

    // Partition-parallel analytical scan over settled main stores.
    let n = scale(120_000);
    println!("\n## F11p — partition-parallel filtered scan ({n} rows in main)\n");
    let mut scan_rows = Vec::new();
    let mut scan_base = 1.0f64;
    for &parts in &[1usize, 8] {
        let db = Database::in_memory();
        let table = db.create_partitioned_table(
            SalesSchema::fact(),
            TableConfig::default(),
            PartitionConfig::new(parts, fact_cols::ORDER_ID),
        )?;
        let mut gen = DataGen::new(7);
        let mut id = 0i64;
        while id < n {
            let mut txn = db.begin(IsolationLevel::Transaction);
            for _ in 0..1_000.min(n - id) {
                table.insert(
                    &txn,
                    SalesSchema::fact_row(&mut gen, id, CUSTOMERS, PRODUCTS),
                )?;
                id += 1;
            }
            db.commit(&mut txn)?;
            for p in table.partitions() {
                p.drain_l1()?;
            }
        }
        for p in table.partitions() {
            p.force_full_merge()?;
        }
        let preds = vec![ColumnPredicate::Range(
            fact_cols::ORDER_ID,
            Bound::Included(Value::Int(0)),
            Bound::Excluded(Value::Int(n / 10)),
        )];
        let snap = Snapshot::at(db.txn_manager().now());
        let mut matched = 0usize;
        let t = sample(|| {
            let read = table.read_at(snap);
            let (t, (hits, _stats)) = time_ms(|| read.scan_filtered(&preds, None).unwrap());
            matched = hits.len();
            t
        });
        if parts == 1 {
            scan_base = t.median;
        }
        scan_rows.push(vec![
            format!("{parts}"),
            matched.to_string(),
            t.cell(2),
            format!("{:.2}", scan_base / t.median),
        ]);
    }
    report::emit(
        "F11p partition scan",
        &["partitions", "matched", "scan (ms)", "speedup"],
        &scan_rows,
    );
    Ok(())
}

/// One F12 arm: a fresh durable database per round, governor configured as
/// requested, 4 writers + `readers` OLAP threads for the measurement window.
/// Returns the round with the lowest OLTP p99, the best OLAP throughput seen
/// across rounds, and the governor counters of the last round.
fn fig12_arm(
    gcfg: GovernorConfig,
    writers: usize,
    readers: usize,
    orders: i64,
    window: Duration,
    rounds: u32,
) -> hana_common::Result<(MixedReport, f64, hana_common::GovernorStats)> {
    let cfg = TableConfig {
        l1_max_rows: 256,
        l2_max_rows: 1_000_000,
        ..TableConfig::default()
    };
    let mut best: Option<MixedReport> = None;
    let mut best_olap = 0.0f64;
    let mut stats = hana_common::GovernorStats::default();
    for _ in 0..rounds {
        let dir = tempfile::tempdir().unwrap();
        let db = Database::open(dir.path())?;
        db.set_governor_config(gcfg);
        let ds = SalesDataset::load(&db, cfg.clone(), orders, CUSTOMERS, PRODUCTS, 7)?;
        ds.settle()?;
        db.start_merge_daemon(Duration::from_millis(1));
        let rep = MixedWorkload {
            writers,
            readers,
            duration: window,
            skew: 0.9,
        }
        .run(&db, &ds)?;
        db.stop_merge_daemon();
        stats = db.governor_stats();
        best_olap = best_olap.max(rep.olap_throughput());
        if best
            .as_ref()
            .is_none_or(|b| rep.oltp_latency.p99_us < b.oltp_latency.p99_us)
        {
            best = Some(rep);
        }
    }
    Ok((best.unwrap(), best_olap, stats))
}

/// Fig 12 (extension): HTAP workload isolation. Sweeps OLAP readers over a
/// fixed OLTP writer pool with the resource governor on vs off and reports
/// per-class latency percentiles — the paper's §5 claim ("resource
/// consumption of the merge is the price" / analytics must not stall the
/// transactional path) made measurable. `REPRO_SOAK=<secs>` switches to the
/// nightly soak: one long 4w+4r run asserting the OLTP p99 stays flat.
fn fig12() -> hana_common::Result<()> {
    if std::env::var("REPRO_SOAK").is_ok() {
        return fig12_soak();
    }
    let writers = 4usize;
    let orders = scale(20_000);
    let window = scale_duration(Duration::from_millis(1_500));
    let rounds: u32 = if hana_bench::quick_mode() { 1 } else { 3 };
    println!(
        "\n## F12 — HTAP interference ({writers} durable writers, OLAP readers 0→8, best of {rounds})\n"
    );

    let arms = [
        ("on", GovernorConfig::default()),
        ("off", GovernorConfig::disabled()),
    ];
    let reader_counts = [0usize, 1, 2, 4, 8];
    let mut rows = Vec::new();
    let mut p99 = std::collections::BTreeMap::new();
    let mut olap_tput = std::collections::BTreeMap::new();
    let mut counters_on_8r = hana_common::GovernorStats::default();
    for (label, gcfg) in arms {
        for readers in reader_counts {
            let (rep, best_olap, stats) =
                fig12_arm(gcfg, writers, readers, orders, window, rounds)?;
            if label == "on" && readers == 8 {
                counters_on_8r = stats;
            }
            p99.insert((label, readers), rep.oltp_latency.p99_us.max(1));
            olap_tput.insert((label, readers), best_olap);
            rows.push(vec![
                label.into(),
                readers.to_string(),
                format!("{:.0}", rep.oltp_throughput()),
                rep.oltp_latency.p50_us.to_string(),
                rep.oltp_latency.p99_us.to_string(),
                format!("{best_olap:.1}"),
                rep.olap_latency.p99_us.to_string(),
                rep.olap_rejected.to_string(),
            ]);
        }
    }
    report::emit(
        "F12 HTAP interference",
        &[
            "governor",
            "readers",
            "oltp commits/s",
            "oltp p50 (µs)",
            "oltp p99 (µs)",
            "olap q/s",
            "olap p99 (µs)",
            "olap rejected",
        ],
        &rows,
    );

    // Headline ratios the CI gate tracks: how much the governed OLTP p99
    // degrades from 0 → 8 readers, and how much OLAP throughput the
    // governed run retains vs the ungoverned one at 8 readers.
    let degradation = p99[&("on", 8)] as f64 / p99[&("on", 0)] as f64;
    let retained = olap_tput[&("on", 8)] / olap_tput[&("off", 8)].max(1e-9);
    report::emit(
        "F12 summary",
        &["oltp p99 degradation (on)", "olap throughput retained"],
        &[vec![
            format!("{degradation:.2}x"),
            format!("{retained:.2}x"),
        ]],
    );
    report::emit(
        "F12 governor counters (on, 8 readers)",
        &[
            "scans admitted",
            "scans queued",
            "scans timed out",
            "parallelism downshifts",
            "merge deferrals",
        ],
        &[vec![
            counters_on_8r.scans_admitted.to_string(),
            counters_on_8r.scans_queued.to_string(),
            counters_on_8r.scans_timed_out.to_string(),
            counters_on_8r.parallelism_downshifts.to_string(),
            counters_on_8r.merge_deferrals.to_string(),
        ]],
    );

    // Per-query governor accounting: one instrumented calc execution so the
    // `ExecStats` wiring (admission wait, effective fan-out) lands in the
    // JSON report.
    {
        use hana_calc::{optimize, Executor, Predicate, Query};
        let st = staged_sales(scale(30_000), Stage::Main, 7);
        let snap = Snapshot::at(st.db.txn_manager().now());
        // A pushed-down range scan (not an index point lookup) so the
        // parallel filtered-scan path runs and records its fan-out.
        let mut q = Query::scan(Arc::clone(&st.table))
            .filter(Predicate::Lt(
                fact_cols::ORDER_ID,
                Value::Int(scale(30_000) / 2),
            ))
            .compile();
        optimize(&mut q);
        let mut ex = Executor::new(snap);
        ex.run(&q)?;
        report::emit(
            "F12 exec governor accounting",
            &["governor wait (µs)", "effective parallelism"],
            &[vec![
                format!("{:.1}", ex.stats().governor_wait_ns as f64 / 1e3),
                ex.stats().effective_parallelism.to_string(),
            ]],
        );
    }
    Ok(())
}

/// Nightly soak: one durable database, 4 writers + 4 readers for
/// `REPRO_SOAK` seconds (default 300), measured in five equal windows. The
/// governed OLTP p99 must stay flat — the last window may not exceed twice
/// the first.
fn fig12_soak() -> hana_common::Result<()> {
    let secs: u64 = std::env::var("REPRO_SOAK")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(300);
    let windows = 5u64;
    let per_window = Duration::from_secs((secs / windows).max(1));
    println!("\n## F12 soak — 4 writers + 4 readers, {secs} s in {windows} windows\n");
    let cfg = TableConfig {
        l1_max_rows: 256,
        l2_max_rows: 1_000_000,
        ..TableConfig::default()
    };
    let dir = tempfile::tempdir().unwrap();
    let db = Database::open(dir.path())?;
    let ds = SalesDataset::load(&db, cfg, scale(20_000), CUSTOMERS, PRODUCTS, 7)?;
    ds.settle()?;
    db.start_merge_daemon(Duration::from_millis(1));
    let mut rows = Vec::new();
    let mut p99s = Vec::new();
    for w in 0..windows {
        let rep = MixedWorkload {
            writers: 4,
            readers: 4,
            duration: per_window,
            skew: 0.9,
        }
        .run(&db, &ds)?;
        p99s.push(rep.oltp_latency.p99_us.max(1));
        rows.push(vec![
            w.to_string(),
            format!("{:.0}", rep.oltp_throughput()),
            rep.oltp_latency.p99_us.to_string(),
            format!("{:.1}", rep.olap_throughput()),
            rep.olap_rejected.to_string(),
        ]);
    }
    db.stop_merge_daemon();
    report::emit(
        "F12 soak",
        &[
            "window",
            "oltp commits/s",
            "oltp p99 (µs)",
            "olap q/s",
            "olap rejected",
        ],
        &rows,
    );
    let (first, last) = (p99s[0], *p99s.last().unwrap());
    assert!(
        last <= first.saturating_mul(2),
        "soak p99 drifted: first window {first} µs, last window {last} µs"
    );
    println!("soak p99 flat: first {first} µs, last {last} µs");
    Ok(())
}

/// Fig 13 (extension): what the on-disk integrity envelope costs. Three
/// views: the raw seal/verify kernel throughput on page-sized payloads,
/// the checksum's share of the durable commit path (every REDO record is
/// sealed before the fsync), and a main-store scan over a table recovered
/// — and therefore fully verified — from disk vs the identical in-memory
/// build. Verification is load-time work; the scan hot path reads the same
/// decoded columns either way, so the ratio must stay ~1 (the ≤5% overhead
/// acceptance bar, gated in CI as `f13_scan_verified_vs_mem`).
fn fig13() -> hana_common::Result<()> {
    use hana_persist::{crc32c, open_envelope, seal, ArtifactKind, DEFAULT_PAGE_SIZE};

    // (a) Kernel throughput: seal + verify page-sized payloads, the unit
    // every page write / page read pays.
    let n_pages = scale(40_000) as usize;
    println!("\n## F13 — integrity envelope overhead ({n_pages} pages)\n");
    let payload = vec![0xA5u8; DEFAULT_PAGE_SIZE - hana_persist::ENVELOPE_HEADER];
    let (t_seal, sealed) = time_ms(|| {
        let mut last = Vec::new();
        for i in 0..n_pages {
            last = seal(ArtifactKind::Page, i as u64, &payload);
        }
        last
    });
    let salt = (n_pages - 1) as u64;
    let (t_verify, _) = time_ms(|| {
        for _ in 0..n_pages {
            open_envelope(ArtifactKind::Page, salt, &sealed).unwrap();
        }
    });
    let gb = (n_pages * DEFAULT_PAGE_SIZE) as f64 / 1e9;
    report::emit(
        "F13 envelope kernels",
        &["op", "GB/s"],
        &[
            vec![
                "seal (checksum + frame)".into(),
                format!("{:.2}", gb / (t_seal / 1e3)),
            ],
            vec![
                "verify (open_envelope)".into(),
                format!("{:.2}", gb / (t_verify / 1e3)),
            ],
        ],
    );

    // (b) The commit path (F10b's subject): run an insert-per-commit loop,
    // then re-checksum the exact log byte volume it produced and compare
    // wall clocks. The CRC is the only work the envelope added to this
    // path, so the share bounds the logging overhead from above.
    let commits = scale(4_000);
    let dir = tempdir()?;
    let t_commit = {
        let db = Database::open(dir.path())?;
        let table = db.create_table(SalesSchema::fact(), TableConfig::default())?;
        let mut gen = DataGen::new(7);
        let (t, r) = time_ms(|| -> hana_common::Result<()> {
            for i in 0..commits {
                let mut txn = db.begin(IsolationLevel::Transaction);
                table.insert(
                    &txn,
                    SalesSchema::fact_row(&mut gen, i, CUSTOMERS, PRODUCTS),
                )?;
                db.commit(&mut txn)?;
            }
            Ok(())
        });
        r?;
        t
    };
    let log_bytes = std::fs::read(dir.path().join("redo.log"))
        .map_err(|e| hana_common::HanaError::Persist(format!("read redo.log: {e}")))?;
    let passes = 9;
    let (t_crc_all, _) = time_ms(|| {
        let mut acc = 0u32;
        for _ in 0..passes {
            acc ^= crc32c(&log_bytes);
        }
        acc
    });
    let t_crc = t_crc_all / passes as f64;
    let share = 100.0 * t_crc / t_commit;
    report::emit(
        "F13 commit checksum share",
        &[
            "commits",
            "log bytes",
            "commit wall (ms)",
            "crc32c over log (ms)",
            "checksum share (%)",
        ],
        &[vec![
            commits.to_string(),
            log_bytes.len().to_string(),
            format!("{t_commit:.2}"),
            format!("{t_crc:.2}"),
            format!("{share:.2}"),
        ]],
    );

    // (c) The scan path (F4's subject): identical main-resident table, one
    // built in memory, one recovered from disk through full envelope
    // verification of every page and image blob.
    let n = scale(200_000);
    let build_batch = || -> Vec<Vec<Value>> {
        let mut gen = DataGen::new(7);
        (0..n)
            .map(|i| SalesSchema::fact_row(&mut gen, i, CUSTOMERS, PRODUCTS))
            .collect()
    };
    let big = TableConfig {
        l1_max_rows: usize::MAX / 2,
        l2_max_rows: usize::MAX / 2,
        ..TableConfig::default()
    };
    let scan = |db: &Database, table: &Arc<UnifiedTable>| {
        let snap = Snapshot::at(db.txn_manager().now());
        sample(|| {
            let read = table.read_at(snap);
            time_ms(|| read.aggregate_numeric(fact_cols::AMOUNT).unwrap()).0
        })
    };

    let mem_db = Database::in_memory();
    let mem_table = mem_db.create_table(SalesSchema::fact(), big.clone())?;
    let mut txn = mem_db.begin(IsolationLevel::Transaction);
    mem_table.bulk_load(&txn, build_batch())?;
    mem_db.commit(&mut txn)?;
    mem_table.merge_delta_as(MergeDecision::Classic)?;
    let t_mem = scan(&mem_db, &mem_table);

    let dir = tempdir()?;
    {
        let db = Database::open(dir.path())?;
        let table = db.create_table(SalesSchema::fact(), big)?;
        let mut txn = db.begin(IsolationLevel::Transaction);
        table.bulk_load(&txn, build_batch())?;
        db.commit(&mut txn)?;
        table.merge_delta_as(MergeDecision::Classic)?;
        db.savepoint()?;
    }
    let (t_open, db) = time_ms(|| Database::open(dir.path()).unwrap());
    let table = db.table("sales")?;
    let t_disk = scan(&db, &table);
    let stats = db.integrity_stats().unwrap_or_default();
    assert_eq!(stats.total_corruptions(), 0, "pristine files: {stats:?}");
    report::emit(
        "F13 verified scan",
        &[
            "rows",
            "open+verify (ms)",
            "pages verified",
            "in-memory scan (ms)",
            "verified scan (ms)",
            "verified/in-memory",
        ],
        &[vec![
            n.to_string(),
            format!("{t_open:.2}"),
            stats.pages_verified.to_string(),
            t_mem.cell(2),
            t_disk.cell(2),
            format!("{:.2}", t_disk.median / t_mem.median),
        ]],
    );
    Ok(())
}

/// M1 + M2: the myth benchmarks.
fn myth() -> hana_common::Result<()> {
    let orders = scale(20_000);
    let ops = scale(20_000) as usize;
    println!("\n## M1 — OLTP: unified column table vs row store ({ops} ops, Zipf 0.9)\n");
    let cfg = TableConfig {
        l1_max_rows: 256,
        l2_max_rows: 1_000_000,
        ..TableConfig::default()
    };
    // Each sample loads a fresh table and runs the ERP mix on it (the
    // unified table with the merge daemon keeping its L1 small). The
    // paper's "very selective point queries" run on one more settled
    // table: 1 000 lookups of existing orders, each of which must be found.
    let unified = || {
        let db = Database::in_memory();
        let ds = SalesDataset::load(&db, cfg.clone(), orders, CUSTOMERS, PRODUCTS, 7).unwrap();
        ds.settle().unwrap();
        let engine = UnifiedOltp {
            table: Arc::clone(&ds.sales),
            mgr: Arc::clone(db.txn_manager()),
        };
        (db, engine)
    };
    let row = || {
        let mgr = TxnManager::new();
        let table = load_row_baseline(Arc::clone(&mgr), orders, CUSTOMERS, PRODUCTS, 7).unwrap();
        RowOltp {
            table: Arc::new(table),
            mgr,
        }
    };
    let mut conflicts = [0u64; 2];
    let mut mix = |engine_index: usize, engine: &dyn OltpEngine| {
        let driver = OltpDriver::new(orders, CUSTOMERS, PRODUCTS, 0.9);
        let (t, rep) = time_ms(|| driver.run(engine, &mut DataGen::new(99), ops).unwrap());
        conflicts[engine_index] += rep.conflicts;
        rep.committed as f64 / t * 1e3
    };
    let unified_rate = sample(|| {
        let (db, engine) = unified();
        db.start_merge_daemon(Duration::from_millis(1));
        let rate = mix(0, &engine);
        db.stop_merge_daemon();
        rate
    });
    let row_rate = sample(|| mix(1, &row()));
    let lookup = |engine: &dyn OltpEngine| {
        sample(|| {
            time_ms(|| {
                for k in 0..1_000 {
                    assert!(engine.execute(&OltpOp::Lookup(k * 7919 % orders)).unwrap());
                }
            })
            .0
        })
    };
    let (_db, engine) = unified();
    let rows = [
        ("unified table", unified_rate, lookup(&engine), conflicts[0]),
        (
            "row store (P*Time-style)",
            row_rate,
            lookup(&row()),
            conflicts[1],
        ),
    ]
    .map(|(name, rate, lookup, conflicts)| {
        vec![
            name.into(),
            rate.cell(0),
            conflicts.to_string(),
            lookup.cell(2),
        ]
    });
    report::emit(
        "M1 OLTP",
        &[
            "engine",
            "OLTP ops/s",
            "conflicts (all samples)",
            "point lookup (µs)",
        ],
        &rows,
    );

    let olap_rows = scale(50_000);
    println!("\n## M2 — OLAP query set ({olap_rows} rows) + mixed HTAP\n");
    let db = Database::in_memory();
    let ds = SalesDataset::load(
        &db,
        TableConfig::default(),
        olap_rows,
        CUSTOMERS,
        PRODUCTS,
        7,
    )?;
    ds.settle()?;
    let mgr = TxnManager::new();
    let row = load_row_baseline(Arc::clone(&mgr), olap_rows, CUSTOMERS, PRODUCTS, 7)?;
    let mut rows = Vec::new();
    for &q in ALL_QUERIES {
        let snap_u = Snapshot::at(db.txn_manager().now());
        let tu =
            sample(|| time_ms(|| OlapRunner::new(snap_u).run_unified(&ds.sales, q).unwrap()).0);
        let snap_r = Snapshot::at(mgr.now());
        let tr = sample(|| time_ms(|| OlapRunner::new(snap_r).run_row_baseline(&row, q)).0);
        rows.push(vec![
            format!("{q:?}"),
            tu.cell(2),
            tr.cell(2),
            format!("{:.2}x", tr.median / tu.median),
        ]);
    }
    report::emit(
        "M2 OLAP",
        &["query", "unified (ms)", "row store (ms)", "unified speedup"],
        &rows,
    );

    // Mixed HTAP: 3 writers + 2 readers + the merge daemon on one table,
    // each sample a fresh database.
    let window = scale_duration(Duration::from_secs(2));
    let (mut olap, mut conflicts) = (Vec::new(), 0);
    let oltp = sample(|| {
        let db = Database::in_memory();
        let ds = SalesDataset::load(&db, cfg.clone(), orders, CUSTOMERS, PRODUCTS, 7).unwrap();
        ds.settle().unwrap();
        db.start_merge_daemon(Duration::from_millis(1));
        let rep = MixedWorkload {
            writers: 3,
            readers: 2,
            duration: window,
            skew: 0.9,
        }
        .run(&db, &ds)
        .unwrap();
        db.stop_merge_daemon();
        olap.push(rep.olap_throughput());
        conflicts += rep.oltp_conflicts;
        rep.oltp_throughput()
    });
    report::emit(
        "M2 mixed HTAP",
        &[
            "run",
            "OLTP ops/s",
            "OLAP queries/s",
            "conflicts (all samples)",
        ],
        &[vec![
            format!(
                "3 writers + 2 readers + merge daemon, {:.1} s",
                window.as_secs_f64()
            ),
            oltp.cell(0),
            Summary::of(&olap).cell(1),
            conflicts.to_string(),
        ]],
    );
    Ok(())
}
