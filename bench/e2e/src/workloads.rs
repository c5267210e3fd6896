//! The five workloads. Each is a closed loop with a stated client count;
//! all load-generating threads live in this process and never exceed two.
//!
//! | name | clients | engine |
//! |---|---|---|
//! | `oltp_durable` | 2 × stock mix, client 0 also savepoints | durable, daemon + GC |
//! | `oltp_mem` | 2 × stock mix | in memory, daemon + GC |
//! | `olap_main` | 1 × Q1–Q6 | in memory, all rows in main, no writer |
//! | `htap_mixed` | 1 × update-heavy mix + 1 × Q1–Q5 | in memory, daemon + GC |
//! | `lifecycle_ingest` | 1 × fixed-size ingest/update/merge cycles | in memory, no daemon |

use crate::engine::{self, DeltaMerge, Engine, ExecCounts, Outcome};
use crate::gen::{
    expected_answers, Answer, Dataset, Fnv, Mix, Op, OpStream, Rng, SaleRow, Zipf, HTAP_MIX,
    QUERIES, STOCK_MIX, ZIPF_SKEW,
};
use crate::report::RunResult;
use crate::stats::{median, median_f64, sliced, tail, Sliced};
use crate::trace::{self, Span, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Data and phase sizes. `full` is what `BENCHMARK.json` measures; `smoke`
/// is 1/50 of it, to check the harness itself in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `sales` rows of `olap_main` and `htap_mixed`.
    pub big_rows: usize,
    /// `sales` rows of `oltp_durable` and `oltp_mem` — the largest size
    /// whose savepoint manifest still fits its one page.
    pub oltp_rows: usize,
    pub customers: usize,
    pub products: usize,
    /// Transactions between the savepoint and the simulated crash.
    pub tail_txns: usize,
    /// Rows one `lifecycle_ingest` cycle inserts, then updates.
    pub ingest_rows: usize,
    pub ingest_updates: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        big_rows: 1_000_000,
        oltp_rows: 200_000,
        customers: 10_000,
        products: 1_000,
        tail_txns: 2_000,
        ingest_rows: 220_000,
        ingest_updates: 30_000,
    };
    pub const SMOKE: Scale = Scale {
        big_rows: 20_000,
        oltp_rows: 4_000,
        customers: 200,
        products: 20,
        tail_txns: 100,
        ingest_rows: 12_000,
        ingest_updates: 2_000,
    };
}

/// Rows per transaction in `lifecycle_ingest`.
const BATCH: usize = 100;
/// Operations of each stream hashed into `bench.input_checksum`.
const CHECKSUM_OPS: usize = 10_000;
/// Keys per stage-pinned point probe, and the fresh rows put into the
/// L1-delta (then the L2-delta) for them — enough rows that the stage's
/// bytes per row is not all fixed overhead.
const POINT_PROBES: usize = 32;
const FRESH_ROWS: usize = 1024;
/// Repetitions of each storage-level scan probe.
const SCAN_PROBES: usize = 5;

pub struct Params {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Times the set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    /// Where durable databases and scratch logs live.
    pub data_dir: PathBuf,
    /// Where `trace-<workload>.jsonl` goes, if anywhere.
    pub trace_dir: Option<PathBuf>,
}

impl Params {
    fn warmup(&self) -> f64 {
        self.seconds / 10.0
    }
}

pub fn run(workload: &str, p: &Params) -> Result<RunResult, String> {
    let r = match workload {
        "oltp_durable" => oltp(p, true),
        "oltp_mem" => oltp(p, false),
        "olap_main" => olap_main(p),
        "htap_mixed" => htap_mixed(p),
        "lifecycle_ingest" => lifecycle_ingest(p),
        other => return Err(format!("unknown workload {other}")),
    };
    r.map_err(|e| format!("{workload}: {e}"))
}

// ---- the measured window ----

/// One clock for all threads of a window: warm-up, then the measured part.
struct Clock {
    epoch: Instant,
    warm_end_ns: u64,
    end_ns: u64,
}

impl Clock {
    fn start(warmup_s: f64, seconds: f64) -> Self {
        let warm_end_ns = (warmup_s * 1e9) as u64;
        Clock {
            epoch: Instant::now(),
            warm_end_ns,
            end_ns: warm_end_ns + (seconds * 1e9) as u64,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, ns: u64) {
        let now = self.now_ns();
        if ns > now {
            std::thread::sleep(Duration::from_nanos(ns - now));
        }
    }

    /// Started after the warm-up and replied before the window closed.
    fn measured(&self, s: &Sample) -> bool {
        s.start_ns >= self.warm_end_ns && s.start_ns + s.dur_ns <= self.end_ns
    }

    fn seconds(&self) -> f64 {
        (self.end_ns - self.warm_end_ns) as f64 / 1e9
    }
}

#[derive(Clone, Copy)]
struct Sample {
    start_ns: u64,
    dur_ns: u64,
}

/// What a client's acknowledged transactions did, for the reconciliation.
#[derive(Default)]
struct Ledger {
    inserted_rows: u64,
    inserted_amount: i64,
    payments: Vec<(i64, i64)>,
    cancels: Vec<i64>,
}

impl Ledger {
    fn note(&mut self, op: &Op) {
        match *op {
            Op::NewOrder { row, .. } => {
                self.inserted_rows += 1;
                self.inserted_amount += row.amount as i64;
            }
            Op::Payment { order_id, delta } => self.payments.push((order_id, delta)),
            Op::Cancel { order_id } => self.cancels.push(order_id),
            Op::Lookup { .. } => {}
        }
    }
}

#[derive(Default)]
struct WriterOut {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    /// Transactions that hit at least one write conflict, and all retries.
    conflicted: u64,
    retries: u64,
    ledger: Ledger,
    /// `(start_ns, end_ns, bytes written)` of each savepoint.
    savepoints: Vec<(u64, u64, u64)>,
    gen_ns: u64,
    spans: Vec<Span>,
    error: Option<String>,
}

/// A closed-loop OLTP client: next operation only after the reply.
fn writer(
    engine: &Engine,
    stream: &mut OpStream,
    clock: &Clock,
    mut tr: Tracer,
    savepoint_every_ns: Option<u64>,
) -> WriterOut {
    let mut out = WriterOut::default();
    let mut next_savepoint = savepoint_every_ns.map(|e| clock.warm_end_ns + e);
    loop {
        let now = clock.now_ns();
        if now >= clock.end_ns {
            break;
        }
        if next_savepoint.is_some_and(|t| now >= t) {
            match engine.savepoint(&mut tr) {
                Ok(bytes) => out.savepoints.push((now, clock.now_ns(), bytes)),
                Err(e) => out.error = Some(format!("savepoint: {e}")),
            }
            next_savepoint = next_savepoint.map(|t| t + savepoint_every_ns.unwrap_or(0));
            continue;
        }
        let op = stream.next_op();
        let start_ns = clock.now_ns();
        out.gen_ns += start_ns - now;
        let r = engine.run_op(&op, &mut tr);
        let dur_ns = clock.now_ns() - start_ns;
        out.attempted += 1;
        out.retries += r.conflicts as u64;
        out.conflicted += (r.conflicts > 0) as u64;
        match r.outcome {
            Outcome::Applied => out.ledger.note(&op),
            Outcome::Miss => {}
            Outcome::Failed => out.failed += 1,
        }
        out.samples.push(Sample { start_ns, dur_ns });
    }
    out.spans = tr.spans;
    out
}

#[derive(Default)]
struct ReaderOut {
    /// `(query index, sample)`.
    samples: Vec<(usize, Sample)>,
    /// `(start_ns, end_ns)` of every round that ran all its queries.
    rounds: Vec<(u64, u64)>,
    attempted: u64,
    failed: u64,
    exec: ExecCounts,
    check_failures: Vec<String>,
    spans: Vec<Span>,
}

/// A closed-loop analytical client cycling `queries`, one snapshot per
/// round. `expected` checks every answer; `invariant` checks, per round,
/// that Q2's counts, Q4's counts and `COUNT(*)` agree under the snapshot.
fn reader(engine: &Engine, spec: &ReaderSpec, clock: &Clock, mut tr: Tracer) -> ReaderOut {
    let ReaderSpec {
        queries,
        expected,
        invariant,
    } = *spec;
    let mut out = ReaderOut::default();
    'rounds: loop {
        let round_start = clock.now_ns();
        let round = engine.begin_round();
        let mut counts: [Option<u64>; 2] = [None, None];
        for &q in queries {
            if clock.now_ns() >= clock.end_ns {
                round.finish();
                break 'rounds;
            }
            let start_ns = clock.now_ns();
            let res = engine.statement(q, &round, &mut tr);
            let s = Sample {
                start_ns,
                dur_ns: clock.now_ns() - start_ns,
            };
            out.attempted += 1;
            match res {
                Ok((answer, exec)) => {
                    if clock.measured(&s) {
                        out.exec.add(&exec);
                    }
                    if expected.is_some_and(|e| e[q] != answer) {
                        out.failed += 1;
                        out.check_failures
                            .push(format!("Q{} differs from the row-wise fold", q + 1));
                    }
                    if q == 1 || q == 3 {
                        counts[q / 2] = Some(answer.values().map(|g| g.0).sum());
                    }
                    out.samples.push((q, s));
                }
                Err(e) => {
                    out.failed += 1;
                    out.check_failures.push(format!("Q{}: {e}", q + 1));
                }
            }
        }
        if let (true, [Some(by_city), Some(by_status)]) = (invariant, counts) {
            let rows = engine.count(&round);
            if by_city != rows || by_status != rows {
                out.failed += 1;
                out.check_failures.push(format!(
                    "one snapshot, three counts: Q2 {by_city}, Q4 {by_status}, COUNT(*) {rows}"
                ));
            }
        }
        round.finish();
        out.rounds.push((round_start, clock.now_ns()));
    }
    out.spans = tr.spans;
    out
}

#[derive(Clone, Copy)]
struct ReaderSpec<'a> {
    queries: &'a [usize],
    expected: Option<&'a [Answer; QUERIES]>,
    invariant: bool,
}

struct WindowOut {
    clock: Clock,
    writers: Vec<WriterOut>,
    reader: Option<ReaderOut>,
    /// Engine counters over the measured part (gauges: their end value).
    counters: BTreeMap<&'static str, f64>,
}

const GAUGES: [&str; 3] = [
    "core.publication_stall_max_us",
    "core.publication_stall_mean_us",
    "core.gc_dead_versions",
];

/// Run all clients of a workload for warm-up + window, one thread each.
fn run_window(
    engine: &Engine,
    streams: &mut [OpStream],
    reader_spec: Option<&ReaderSpec>,
    p: &Params,
    traced: bool,
    savepoints: bool,
) -> WindowOut {
    let clock = Clock::start(p.warmup(), p.seconds);
    let every = savepoints.then(|| (p.seconds / 4.0 * 1e9) as u64);
    let (writers, reader_out, counters) = std::thread::scope(|s| {
        let clock = &clock;
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(k, stream)| {
                let tr = Tracer::new(traced, clock.epoch, 1 + k as u64);
                let every = every.filter(|_| k == 0);
                s.spawn(move || writer(engine, stream, clock, tr, every))
            })
            .collect();
        let reader_handle = reader_spec.map(|spec| {
            let tr = Tracer::new(traced, clock.epoch, 15);
            s.spawn(move || reader(engine, spec, clock, tr))
        });
        clock.sleep_until(clock.warm_end_ns);
        engine.reset_gauges();
        let before = engine.counters();
        clock.sleep_until(clock.end_ns);
        let mut counters = engine.counters();
        for (name, v) in counters.iter_mut() {
            if !GAUGES.contains(name) {
                *v -= before.get(name).copied().unwrap_or(0.0);
            }
        }
        let writers = handles
            .into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect();
        let reader_out = reader_handle.map(|h| h.join().expect("reader thread panicked"));
        (writers, reader_out, counters)
    });
    WindowOut {
        clock,
        writers,
        reader: reader_out,
        counters,
    }
}

impl WindowOut {
    /// The writers' transactions as one class.
    fn txn_stats(&self, want: f64) -> Option<Sliced> {
        let done: Vec<(u64, u64)> = self
            .writers
            .iter()
            .flat_map(|w| w.samples.iter())
            .filter(|s| s.start_ns >= self.clock.warm_end_ns)
            .map(|s| (s.start_ns + s.dur_ns, s.dur_ns))
            .collect();
        sliced(
            &done,
            self.clock.warm_end_ns,
            self.clock.end_ns,
            SLICES,
            want,
        )
    }

    /// The reader's statements as one class.
    ///
    /// A round is a fixed cycle of statements whose costs differ by an
    /// order of magnitude, so percentiles of the pooled latencies sit on
    /// the edges between queries and jump. Instead: throughput is the
    /// statements of a round over the median round time; the median is
    /// the median of the per-query medians; the tail is the pooled p90,
    /// which lies inside the slowest query's own distribution.
    fn query_stats(&self) -> Option<Sliced> {
        let rd = self.reader.as_ref()?;
        let mut by_query: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for (q, s) in rd.samples.iter().filter(|(_, s)| self.clock.measured(s)) {
            by_query.entry(*q).or_default().push(s.dur_ns);
        }
        let mut pooled: Vec<u64> = by_query.values().flatten().copied().collect();
        let rounds: Vec<f64> = rd
            .rounds
            .iter()
            .filter(|(a, b)| *a >= self.clock.warm_end_ns && *b <= self.clock.end_ns)
            .map(|(a, b)| (b - a) as f64)
            .collect();
        if pooled.is_empty() || rounds.is_empty() {
            return None;
        }
        pooled.sort_unstable();
        let medians: Vec<f64> = by_query
            .values_mut()
            .map(|v| {
                v.sort_unstable();
                median(v) as f64
            })
            .collect();
        let (tail_pct, tail_ns) = tail(&pooled, QUERY_TAIL);
        Some(Sliced {
            per_s: by_query.len() as f64 / (median_f64(&rounds) / 1e9),
            p50_ns: median_f64(&medians),
            tail_pct,
            tail_ns: tail_ns as f64,
            samples: pooled.len() as u64,
        })
    }

    fn spans(&mut self) -> Vec<Span> {
        let mut all = Vec::new();
        for w in &mut self.writers {
            all.append(&mut w.spans);
        }
        if let Some(r) = &mut self.reader {
            all.append(&mut r.spans);
        }
        all
    }

    /// Fold attempts, failures and failed checks into the result.
    fn account(&self, r: &mut RunResult) {
        for w in &self.writers {
            r.attempted += w.attempted;
            r.failed += w.failed;
            if let Some(e) = &w.error {
                r.check_failures.push(e.clone());
            }
        }
        if let Some(rd) = &self.reader {
            r.attempted += rd.attempted;
            r.failed += rd.failed;
            r.check_failures
                .extend(rd.check_failures.iter().take(5).cloned());
        }
    }
}

/// Slices a window is cut into for the transaction statistics: enough
/// transactions per slice for a p99 or p95, enough slices for a median.
const SLICES: usize = 5;

/// A window yields a few hundred statements: p90 is the highest percentile
/// that keeps ten samples beyond it with room to spare, so the reported
/// percentile does not flip between runs.
const QUERY_TAIL: f64 = 90.0;

/// Report one class of request under the `txn_*` names.
fn set_txn_family(r: &mut RunResult, s: &Sliced) {
    r.set("txn_per_s", s.per_s, s.samples);
    r.set("txn_p50_us", s.p50_ns / 1e3, s.samples);
}

/// Report one class of request under the `query_*` names.
fn set_query_family(r: &mut RunResult, s: &Sliced) {
    r.set("query_per_s", s.per_s, s.samples);
    r.set("query_p50_ms", s.p50_ns / 1e6, s.samples);
}

/// Per-layer metrics read from the engine's public counters and the
/// clients' own counts over one window.
fn counter_metrics(r: &mut RunResult, w: &WindowOut, engine: &Engine) {
    let secs = w.clock.seconds();
    let c = |name: &str| w.counters.get(name).copied().unwrap_or(0.0);
    // Every counter that is a metric by its own name; the rest feed ratios.
    for (&name, &v) in &w.counters {
        if crate::report::unit_of(name).is_some() {
            r.set(name, v, 1);
        }
    }
    if c("persist.fsyncs") > 0.0 {
        r.set(
            "persist.records_per_fsync",
            c("persist.log_records") / c("persist.fsyncs"),
            c("persist.fsyncs") as u64,
        );
    }
    r.set("merge.busy_ratio", c("merge.busy_s") / secs, 1);
    r.set(
        "merge.parallel_workers",
        if c("merge.merges_done") > 0.0 {
            engine.last_merge_workers() as f64
        } else {
            0.0
        },
        1,
    );
    r.check(c("core.governor_scans_timed_out") == 0.0, || {
        "the governor rejected a scan".into()
    });

    let txns: u64 = w.writers.iter().map(|x| x.attempted).sum();
    if txns > 0 {
        let conflicted: u64 = w.writers.iter().map(|x| x.conflicted).sum();
        let retries: u64 = w.writers.iter().map(|x| x.retries).sum();
        let gen_ns: u64 = w.writers.iter().map(|x| x.gen_ns).sum();
        r.set("txn.conflict_ratio", conflicted as f64 / txns as f64, txns);
        r.set("txn.retries", retries as f64, txns);
        r.set("bench.gen_ns_per_op", gen_ns as f64 / txns as f64, txns);
    }
    let saves: Vec<&(u64, u64, u64)> = w.writers.iter().flat_map(|x| &x.savepoints).collect();
    if !saves.is_empty() {
        let mut ms: Vec<u64> = saves.iter().map(|s| s.1 - s.0).collect();
        ms.sort_unstable();
        r.set(
            "persist.savepoint_ms",
            median(&ms) as f64 / 1e6,
            ms.len() as u64,
        );
        let mb: Vec<f64> = saves.iter().map(|s| s.2 as f64 / 1e6).collect();
        r.set("persist.savepoint_mb", median_f64(&mb), mb.len() as u64);
        // The worst transaction of the *other* clients that overlapped a
        // savepoint: how long "savepoints block writers" lasts.
        let stall = w
            .writers
            .iter()
            .skip(1)
            .flat_map(|x| x.samples.iter())
            .filter(|s| {
                saves
                    .iter()
                    .any(|sp| s.start_ns < sp.1 && s.start_ns + s.dur_ns > sp.0)
            })
            .map(|s| s.dur_ns)
            .max()
            .unwrap_or(0);
        r.set(
            "persist.savepoint_writer_stall_max_us",
            stall as f64 / 1e3,
            saves.len() as u64,
        );
    }
    if let Some(rd) = &w.reader {
        let e = &rd.exec;
        let queries = w.query_stats().map_or(1, |q| q.samples) as f64;
        let touched = (e.zone_pruned_rows + e.code_filtered_rows + e.rowwise_rows).max(1) as f64;
        let lookups = (e.vis_cache_hits + e.vis_cache_misses).max(1) as f64;
        r.set(
            "core.zone_pruned_row_ratio",
            e.zone_pruned_rows as f64 / touched,
            1,
        );
        r.set(
            "core.code_filtered_row_ratio",
            e.code_filtered_rows as f64 / touched,
            1,
        );
        r.set("core.rowwise_rows", e.rowwise_rows as f64, 1);
        r.set(
            "core.vis_cache_hit_ratio",
            e.vis_cache_hits as f64 / lookups,
            1,
        );
        r.set(
            "core.governor_wait_us_per_query",
            e.governor_wait_ns as f64 / 1e3 / queries,
            queries as u64,
        );
        r.set(
            "calc.rows_examined_per_result",
            (e.code_filtered_rows + e.rowwise_rows) as f64 / e.result_rows.max(1) as f64,
            queries as u64,
        );
        r.set("calc.full_scans", e.full_scans as f64, 1);
        r.set("calc.indexed_scans", e.indexed_scans as f64, 1);
        r.set("calc.nodes_evaluated", e.nodes_evaluated as f64, 1);
    }
    stage_metrics(r, engine);
}

fn stage_metrics(r: &mut RunResult, engine: &Engine) {
    let s = engine.stage();
    r.set("core.l1_rows_end", s.l1_rows as f64, 1);
    r.set("core.l2_rows_end", s.l2_rows as f64, 1);
    r.set("core.main_rows_end", s.main_rows as f64, 1);
    r.set("core.main_parts_end", s.main_parts as f64, 1);
}

/// Per-layer medians from the spans of a traced run.
fn span_metrics(r: &mut RunResult, spans: &[Span]) {
    let d = trace::durations(spans);
    let mut med = |metric: &'static str, span_names: &[&str], per: f64| {
        let mut all: Vec<u64> = span_names
            .iter()
            .filter_map(|n| d.get(*n))
            .flatten()
            .copied()
            .collect();
        all.sort_unstable();
        if !all.is_empty() {
            r.set(metric, median(&all) as f64 / per, all.len() as u64);
        }
    };
    med("txn.begin_ns", &["txn.begin"], 1.0);
    med("txn.commit_mem_ns", &["txn.commit"], 1.0);
    med("persist.commit_durable_us", &["persist.commit"], 1e3);
    med("core.insert_us", &["core.insert"], 1e3);
    med("core.update_us", &["core.update"], 1e3);
    med("core.delete_us", &["core.delete"], 1e3);
    med("core.point_us", &["core.point"], 1e3);
    med("core.read_open_ns", &["core.read_open"], 1.0);
    med("core.aggregate_numeric_ms", &["core.q1_storage"], 1e6);
    med(
        "core.group_aggregate_ms",
        &["core.q2_storage", "core.q4_storage"],
        1e6,
    );
    med(
        "core.scan_filtered_ms",
        &["core.q3_storage", "core.q5_storage"],
        1e6,
    );
    med("rowstore.point_us", &["rowstore.point"], 1e3);
    med("store.l2_point_us", &["store.l2_point"], 1e3);
    med("store.main_point_us", &["store.main_point"], 1e3);
    med("dict.merge_ms", &["dict.merge"], 1e6);
    med("persist.log_append_ns", &["persist.log_append"], 1.0);
    med("persist.log_flush_us", &["persist.log_flush"], 1e3);
    med("calc.compile_optimize_us", &["calc.compile_optimize"], 1e3);
    const Q_MS: [&str; 6] = [
        "calc.q1_ms",
        "calc.q2_ms",
        "calc.q3_ms",
        "calc.q4_ms",
        "calc.q5_ms",
        "calc.q6_ms",
    ];
    const Q_SELF_MS: [&str; 6] = [
        "calc.q1_self_ms",
        "calc.q2_self_ms",
        "calc.q3_self_ms",
        "calc.q4_self_ms",
        "calc.q5_self_ms",
        "calc.q6_self_ms",
    ];
    for q in 0..QUERIES {
        let (Some(stmt), storage) = (
            d.get(&format!("calc.q{}", q + 1)),
            d.get(&format!("core.q{}_storage", q + 1)),
        ) else {
            continue;
        };
        let ms = median(stmt) as f64 / 1e6;
        r.set(Q_MS[q], ms, stmt.len() as u64);
        if let Some(st) = storage {
            r.set(Q_SELF_MS[q], ms - median(st) as f64 / 1e6, st.len() as u64);
        }
    }
    r.set("bench.spans_recorded", spans.len() as f64, 1);
}

fn write_trace(p: &Params, workload: &str, spans: &[Span]) -> Result<(), String> {
    let Some(dir) = &p.trace_dir else {
        return Ok(());
    };
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    trace::write_jsonl(spans, &mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{}: {e}", path.display()))
}

// ---- set-up, checks and probes shared by the table workloads ----

/// Build the set-up `reps` times, keeping only the last; the earlier ones
/// are dropped before the next starts so they do not add up in memory, and
/// what each one freed goes back to the kernel (outside the timing), so
/// `peak_rss_mb` never stacks a phase's peak on an earlier phase's garbage.
fn timed_setups<T>(
    reps: usize,
    mut build: impl FnMut(usize) -> engine::Result<T>,
) -> engine::Result<(T, f64, u64)> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps.max(1) {
        drop(last.take());
        release_free_memory();
        let t0 = Instant::now();
        last = Some(build(rep)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    release_free_memory();
    Ok((
        last.expect("at least one repetition"),
        median_f64(&times),
        times.len() as u64,
    ))
}

fn loaded_engine(data: &Dataset, dir: Option<&std::path::Path>) -> engine::Result<Engine> {
    let engine = Engine::create(dir)?;
    engine.load(data)?;
    engine.settle()?;
    Ok(engine)
}

fn streams(p: &Params, data: &Dataset, clients: usize, mix: Mix) -> Vec<OpStream> {
    let n = data.sales.len();
    let zipf = Arc::new(Zipf::new(n, ZIPF_SKEW));
    (0..clients)
        .map(|k| {
            OpStream::new(
                p.seed,
                k as u64,
                (n + k) as i64,
                clients as i64,
                data.customer_city.len(),
                data.products.len(),
                Arc::clone(&zipf),
                mix,
            )
        })
        .collect()
}

/// Hash of everything the generator hands the engine for this run: the
/// loaded rows and the head of each client's operation stream.
fn input_checksum(p: &Params, data: &Dataset, clients: usize, mix: Mix) -> u64 {
    let mut h = Fnv::new();
    h.u64(data.checksum());
    for s in streams(p, data, clients, mix) {
        h.u64(s.checksum(CHECKSUM_OPS));
    }
    h.finish48()
}

/// Rows and `SUM(amount)` must equal the preloaded data plus every
/// acknowledged insert, payment and cancel.
fn reconcile(
    failures: &mut Vec<String>,
    engine: &Engine,
    data: &Dataset,
    ledgers: &[&Ledger],
    when: &str,
) -> engine::Result<()> {
    let cancelled: BTreeSet<i64> = ledgers
        .iter()
        .flat_map(|l| l.cancels.iter().copied())
        .collect();
    let mut rows = data.sales.len() as i64 - cancelled.len() as i64;
    let mut sum: i64 = data.sales.iter().map(|s| s.amount as i64).sum();
    sum -= cancelled
        .iter()
        .map(|&k| data.sales[k as usize].amount as i64)
        .sum::<i64>();
    for l in ledgers {
        rows += l.inserted_rows as i64;
        sum += l.inserted_amount;
        sum += l
            .payments
            .iter()
            .filter(|(k, _)| !cancelled.contains(k))
            .map(|(_, d)| d)
            .sum::<i64>();
    }
    let (got_rows, got_sum, _) = engine.audit(0)?;
    if got_rows as i64 != rows || got_sum != sum {
        failures.push(format!(
            "{when}: table has {got_rows} rows / amount {got_sum}, acknowledged work gives {rows} / {sum}"
        ));
    }
    Ok(())
}

/// `bytes_per_row` and the stage byte ratios after a final full merge.
fn space_metrics(r: &mut RunResult, engine: &Engine) -> engine::Result<()> {
    engine.full_merge(&mut Tracer::off())?;
    let (rows, _, _) = engine.audit(0)?;
    let s = engine.stage();
    let rows = rows.max(1) as f64;
    r.set("bytes_per_row", s.resident_bytes() as f64 / rows, 1);
    r.set("store.main_bytes_per_row", s.main_bytes as f64 / rows, 1);
    r.set(
        "store.main_data_bytes_per_row",
        s.main_data_bytes as f64 / rows,
        1,
    );
    r.set("peak_rss_mb", peak_rss_mb(), 1);
    Ok(())
}

/// Hand the allocator's free pages back to the kernel. glibc keeps or
/// returns what a dropped set-up (or the engine dropped by the crash) held
/// depending on where the top of its heap happens to sit; kept, it lies
/// under the window's own peak and moved `peak_rss_mb` of `oltp_durable`
/// by 45 MB in about one run of five with no code change.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and may be called at any
        // time from any thread; the process runs on glibc's allocator.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Point reads with the key known to sit in main, then in the L1-delta,
/// then in the L2-delta; the column kernels and dictionaries of the settled
/// columns. Runs after `space_metrics` left every row in main.
fn stage_probes(
    r: &mut RunResult,
    engine: &Engine,
    data: &Dataset,
    tr: &mut Tracer,
) -> engine::Result<()> {
    let mut rng = Rng::lane(0, 99);
    let n = data.sales.len();
    for _ in 0..POINT_PROBES {
        engine.point_probe("store", "main_point", rng.below(n as u64) as i64, tr)?;
    }
    // Fresh rows land in the L1-delta; one merge step moves them to L2.
    let first = (n as i64) << 8;
    let fresh: Vec<SaleRow> = data.sales[..FRESH_ROWS.min(n)].to_vec();
    engine.insert_batch(first, &fresh, &mut Tracer::off())?;
    let l1 = engine.stage();
    let probed =
        || (0..POINT_PROBES as i64).map(|i| first + i * (fresh.len() / POINT_PROBES).max(1) as i64);
    for k in probed() {
        engine.point_probe("rowstore", "point", k, tr)?;
    }
    engine.merge_l1(&mut Tracer::off())?;
    let l2 = engine.stage();
    for k in probed() {
        engine.point_probe("store", "l2_point", k, tr)?;
    }
    if l1.l1_rows > 0 {
        r.set(
            "rowstore.l1_bytes_per_row",
            l1.l1_bytes as f64 / l1.l1_rows as f64,
            l1.l1_rows as u64,
        );
    }
    if l2.l2_rows > 0 {
        r.set(
            "store.l2_bytes_per_row",
            l2.l2_bytes as f64 / l2.l2_rows as f64,
            l2.l2_rows as u64,
        );
    }
    let (rows, lookups, bits) = engine.column_probe(tr);
    let d = trace::durations(&tr.spans);
    let mut rate = |metric: &'static str, span: &str, per_span: usize| {
        if let Some(v) = d.get(span) {
            r.set(
                metric,
                per_span as f64 / (median(v) as f64 / 1e3).max(1e-9),
                v.len() as u64,
            );
        }
    };
    rate("column.scan_eq_rows_per_us", "column.scan_eq", rows);
    rate("column.scan_range_rows_per_us", "column.scan_range", rows);
    rate("column.unpack_rows_per_us", "column.unpack", rows);
    if let Some(v) = d.get("dict.encode_lookup") {
        r.set(
            "dict.encode_lookup_ns",
            median(v) as f64 / lookups.max(1) as f64,
            lookups as u64,
        );
    }
    r.set("column.bits_per_code_amount", bits, rows as u64);
    Ok(())
}

/// The storage calls behind each query, `SCAN_PROBES` times each.
fn scan_probes(
    r: &mut RunResult,
    engine: &Engine,
    queries: &[usize],
    tr: &mut Tracer,
) -> engine::Result<()> {
    let mut index_probes = 0;
    let round = engine.begin_round();
    for _ in 0..SCAN_PROBES {
        for &q in queries {
            index_probes += engine.storage_probe(q, &round, tr)?;
        }
    }
    round.finish();
    r.set("core.index_probes", index_probes as f64, 1);
    Ok(())
}

/// Untraced window, then (with `--trace 1`) the same window traced; the
/// per-layer metrics come from the traced one and the tracing overhead is
/// the throughput the tracing cost.
fn windows(
    r: &mut RunResult,
    engine: &Engine,
    streams: &mut [OpStream],
    reader_spec: Option<&ReaderSpec>,
    p: &Params,
    savepoints: bool,
) -> Result<(Vec<Ledger>, Vec<Span>), String> {
    let rate = |w: &WindowOut| {
        w.txn_stats(99.0)
            .or_else(|| w.query_stats())
            .map_or(0.0, |s| s.per_s)
    };
    let mut ledgers = Vec::new();
    let mut w = run_window(engine, streams, reader_spec, p, false, savepoints);
    w.account(r);
    if p.trace {
        let plain = rate(&w);
        ledgers.extend(w.writers.iter_mut().map(|x| std::mem::take(&mut x.ledger)));
        w = run_window(engine, streams, reader_spec, p, true, savepoints);
        w.account(r);
        r.set(
            "bench.trace_overhead_ratio",
            1.0 - rate(&w) / plain.max(1e-9),
            1,
        );
    }
    // A workload with one class of client reports it under both families:
    // the driver wants every end-to-end metric from every workload.
    let (txn, query) = (w.txn_stats(99.0), w.query_stats());
    for s in [txn.as_ref().or(query.as_ref())].into_iter().flatten() {
        set_txn_family(r, s);
    }
    for s in [query.as_ref().or(txn.as_ref())].into_iter().flatten() {
        set_query_family(r, s);
    }
    if let Some(t) = &txn {
        r.set("bench.txn_per_s", t.per_s, t.samples);
        r.set_tail("bench.txn_tail_us", t.tail_ns / 1e3, t.samples, t.tail_pct);
        r.set("bench.txn_samples", t.samples as f64, 1);
    }
    if let Some(q) = &query {
        r.set("bench.query_per_s", q.per_s, q.samples);
        r.set_tail(
            "bench.query_tail_ms",
            q.tail_ns / 1e6,
            q.samples,
            q.tail_pct,
        );
        r.set("bench.query_samples", q.samples as f64, 1);
    }
    counter_metrics(r, &w, engine);
    let spans = w.spans();
    ledgers.extend(w.writers.into_iter().map(|x| x.ledger));
    Ok((ledgers, spans))
}

fn finish(r: &mut RunResult, p: &Params, workload: &str, spans: Vec<Span>) -> Result<(), String> {
    r.set(
        "bench.failed_ratio",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.attempted,
    );
    if p.trace {
        span_metrics(r, &spans);
        write_trace(p, workload, &spans)?;
    }
    Ok(())
}

// ---- oltp_durable, oltp_mem ----

struct OltpSetup {
    engine: Engine,
    data: Dataset,
    tail: Ledger,
    recovery: Option<(engine::Recovery, f64)>,
    check_failures: Vec<String>,
}

fn oltp_setup(p: &Params, durable: bool, rep: usize) -> engine::Result<OltpSetup> {
    let sc = &p.scale;
    let data = Dataset::generate(p.seed, sc.oltp_rows, sc.customers, sc.products);
    if !durable {
        return Ok(OltpSetup {
            engine: loaded_engine(&data, None)?,
            data,
            tail: Ledger::default(),
            recovery: None,
            check_failures: Vec::new(),
        });
    }
    let dir = p.data_dir.join(format!("durable-{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = loaded_engine(&data, Some(&dir))?;
    engine.savepoint(&mut Tracer::off())?;

    // A fixed, seeded tail of transactions after the savepoint: what
    // recovery has to replay, independent of how fast the engine is.
    let n = data.sales.len();
    let mut stream = OpStream::new(
        p.seed,
        8,
        (n as i64) << 4,
        1,
        sc.customers,
        sc.products,
        Arc::new(Zipf::new(n, ZIPF_SKEW)),
        STOCK_MIX,
    );
    let mut tail = Ledger::default();
    let mut failures = Vec::new();
    let log_before = engine.log_bytes();
    for _ in 0..sc.tail_txns {
        let op = stream.next_op();
        match engine.run_op(&op, &mut Tracer::off()).outcome {
            Outcome::Applied => tail.note(&op),
            Outcome::Miss => {}
            Outcome::Failed => failures.push(format!("tail {op:?} failed")),
        }
    }
    let log_bytes_per_txn = (engine.log_bytes() - log_before) as f64 / sc.tail_txns.max(1) as f64;

    // Crash with one transaction in flight, recover, and check that every
    // acknowledged commit is there and nothing of the unacknowledged one.
    let cancelled: BTreeSet<i64> = tail.cancels.iter().copied().collect();
    let victim = (0..n as i64)
        .find(|k| !cancelled.contains(k))
        .expect("the tail cannot cancel every order");
    let ghost = (n as i64) << 6;
    let (engine, recovery) = engine.crash_and_recover(ghost, victim)?;
    reconcile(&mut failures, &engine, &data, &[&tail], "after recovery")?;
    let victim_amount = data.sales[victim as usize].amount as i64
        + tail
            .payments
            .iter()
            .filter(|(k, _)| *k == victim)
            .map(|(_, d)| d)
            .sum::<i64>();
    if engine.audit(victim)?.2 != Some(victim_amount) {
        failures.push("an unacknowledged update survived the crash".into());
    }
    if engine.audit(ghost)?.2.is_some() {
        failures.push("an unacknowledged insert survived the crash".into());
    }
    Ok(OltpSetup {
        engine,
        data,
        tail,
        recovery: Some((recovery, log_bytes_per_txn)),
        check_failures: failures,
    })
}

fn oltp(p: &Params, durable: bool) -> Result<RunResult, String> {
    let workload = if durable { "oltp_durable" } else { "oltp_mem" };
    let mut r = RunResult::default();
    let (setup, setup_s, reps) =
        timed_setups(p.setup_reps, |rep| oltp_setup(p, durable, rep)).map_err(|e| e.to_string())?;
    r.set("setup_s", setup_s, reps);
    let OltpSetup {
        engine,
        data,
        tail,
        recovery,
        check_failures,
    } = setup;
    r.check_failures.extend(check_failures);
    if let Some((rec, log_bytes_per_txn)) = &recovery {
        r.set("persist.recovery_s", rec.seconds, 1);
        r.set("persist.replay_records", rec.replay_records as f64, 1);
        r.set(
            "persist.replay_records_per_s",
            rec.replay_records as f64 / rec.seconds.max(1e-9),
            1,
        );
        r.set(
            "persist.log_bytes_per_txn",
            *log_bytes_per_txn,
            p.scale.tail_txns as u64,
        );
    }
    r.set(
        "bench.input_checksum",
        input_checksum(p, &data, 2, STOCK_MIX) as f64,
        1,
    );

    engine.start_background();
    let mut clients = streams(p, &data, 2, STOCK_MIX);
    let (ledgers, mut spans) = windows(&mut r, &engine, &mut clients, None, p, durable)?;
    engine.stop_background();

    let mut all: Vec<&Ledger> = ledgers.iter().collect();
    all.push(&tail);
    let e = |e: engine::Error| e.to_string();
    reconcile(
        &mut r.check_failures,
        &engine,
        &data,
        &all,
        "after the window",
    )
    .map_err(e)?;
    space_metrics(&mut r, &engine).map_err(e)?;
    if p.trace {
        let mut tr = Tracer::new(true, Instant::now(), 20);
        stage_probes(&mut r, &engine, &data, &mut tr).map_err(e)?;
        if durable {
            engine::scratch_log_probe(&p.data_dir.join("scratch"), &mut tr).map_err(e)?;
        }
        spans.append(&mut tr.spans);
    }
    finish(&mut r, p, workload, spans)?;
    drop(engine);
    if durable {
        let _ = std::fs::remove_dir_all(&p.data_dir);
    }
    Ok(r)
}

// ---- olap_main, htap_mixed ----

fn big_setup(p: &Params) -> engine::Result<(Engine, Dataset)> {
    let sc = &p.scale;
    let data = Dataset::generate(p.seed, sc.big_rows, sc.customers, sc.products);
    Ok((loaded_engine(&data, None)?, data))
}

fn olap_main(p: &Params) -> Result<RunResult, String> {
    const ALL: [usize; 6] = [0, 1, 2, 3, 4, 5];
    let mut r = RunResult::default();
    let ((engine, data), setup_s, reps) =
        timed_setups(p.setup_reps, |_| big_setup(p)).map_err(|e| e.to_string())?;
    r.set("setup_s", setup_s, reps);
    r.set("bench.input_checksum", data.checksum() as f64, 1);
    let expected = expected_answers(&data);
    let spec = ReaderSpec {
        queries: &ALL,
        expected: Some(&expected),
        invariant: false,
    };
    let (_, mut spans) = windows(&mut r, &engine, &mut [], Some(&spec), p, false)?;
    let e = |e: engine::Error| e.to_string();
    space_metrics(&mut r, &engine).map_err(e)?;
    if p.trace {
        let mut tr = Tracer::new(true, Instant::now(), 20);
        scan_probes(&mut r, &engine, &ALL, &mut tr).map_err(e)?;
        stage_probes(&mut r, &engine, &data, &mut tr).map_err(e)?;
        spans.append(&mut tr.spans);
    }
    finish(&mut r, p, "olap_main", spans)?;
    Ok(r)
}

fn htap_mixed(p: &Params) -> Result<RunResult, String> {
    const Q1_TO_Q5: [usize; 5] = [0, 1, 2, 3, 4];
    let mut r = RunResult::default();
    let ((engine, data), setup_s, reps) =
        timed_setups(p.setup_reps, |_| big_setup(p)).map_err(|e| e.to_string())?;
    r.set("setup_s", setup_s, reps);
    r.set(
        "bench.input_checksum",
        input_checksum(p, &data, 1, HTAP_MIX) as f64,
        1,
    );
    engine.start_background();
    let mut writer_stream = streams(p, &data, 1, HTAP_MIX);
    let spec = ReaderSpec {
        queries: &Q1_TO_Q5,
        expected: None,
        invariant: true,
    };
    let (ledgers, mut spans) = windows(&mut r, &engine, &mut writer_stream, Some(&spec), p, false)?;
    engine.stop_background();
    let e = |e: engine::Error| e.to_string();
    let all: Vec<&Ledger> = ledgers.iter().collect();
    reconcile(
        &mut r.check_failures,
        &engine,
        &data,
        &all,
        "after the window",
    )
    .map_err(e)?;
    if p.trace {
        // Before the final merge: the scans see the deltas the window left.
        let mut tr = Tracer::new(true, Instant::now(), 20);
        scan_probes(&mut r, &engine, &Q1_TO_Q5, &mut tr).map_err(e)?;
        space_metrics(&mut r, &engine).map_err(e)?;
        stage_probes(&mut r, &engine, &data, &mut tr).map_err(e)?;
        spans.append(&mut tr.spans);
    } else {
        space_metrics(&mut r, &engine).map_err(e)?;
    }
    finish(&mut r, p, "htap_mixed", spans)?;
    Ok(r)
}

// ---- lifecycle_ingest ----

/// The fixed work of one cycle: the rows to insert and the updates to
/// apply, in order, with the table they must leave behind.
struct IngestPlan {
    rows: Vec<SaleRow>,
    /// Batches of `(order_id, new amount)`; no key twice in one batch.
    updates: Vec<Vec<(i64, i64)>>,
    /// The rows after all updates, and the answers they must give.
    end_state: Dataset,
    expected: [Answer; QUERIES],
}

fn ingest_plan(p: &Params) -> IngestPlan {
    let sc = &p.scale;
    let data = Dataset::generate(p.seed, sc.ingest_rows, sc.customers, sc.products);
    let zipf = Zipf::new(sc.ingest_rows, ZIPF_SKEW);
    let mut rng = Rng::lane(p.seed, 3);
    let mut end_state = Dataset {
        sales: data.sales.clone(),
        customer_city: data.customer_city.clone(),
        products: Vec::new(),
    };
    let mut updates = Vec::new();
    let mut left = sc.ingest_updates;
    while left > 0 {
        let mut batch: BTreeMap<i64, i64> = BTreeMap::new();
        while batch.len() < BATCH.min(left) {
            let k = zipf.sample(&mut rng);
            if batch.contains_key(&(k as i64)) {
                continue;
            }
            let row = &mut end_state.sales[k];
            row.amount += rng.amount(100) as u32;
            row.status = 1;
            batch.insert(k as i64, row.amount as i64);
        }
        left -= batch.len();
        updates.push(batch.into_iter().collect());
    }
    let expected = expected_answers(&end_state);
    IngestPlan {
        rows: data.sales,
        updates,
        end_state,
        expected,
    }
}

/// What one cycle measured.
#[derive(Default)]
struct Cycle {
    wall_s: f64,
    /// `(completion time since the cycle began, latency)` of each batch
    /// transaction.
    txns: Vec<(u64, u64)>,
    /// Seconds inside insert transactions, for the L1 append rate.
    insert_s: f64,
    merge_calls: u64,
    merge_wall_s: f64,
    l1_moved: usize,
    l1_merge_s: f64,
    delta: Vec<DeltaMerge>,
    bytes_per_row: f64,
    main_bytes: usize,
    stage: engine::Stage,
    spans: Vec<Span>,
    check_failures: Vec<String>,
}

fn ingest_cycle(plan: &IngestPlan, traced: bool) -> engine::Result<Cycle> {
    let mut c = Cycle::default();
    let mut tr = Tracer::new(traced, Instant::now(), 1);
    let engine = Engine::create(None)?;
    let t0 = Instant::now();
    let after_commit = |c: &mut Cycle, tr: &mut Tracer| -> engine::Result<()> {
        let step = engine.maybe_merge(tr)?;
        c.merge_calls += 1;
        c.merge_wall_s += step.wall.as_secs_f64();
        let delta_s = step.delta.map_or(0.0, |d| d.wall.as_secs_f64());
        if step.l1_rows_moved > 0 {
            c.l1_moved += step.l1_rows_moved;
            c.l1_merge_s += (step.wall.as_secs_f64() - delta_s).max(0.0);
        }
        c.delta.extend(step.delta);
        Ok(())
    };
    for (b, batch) in plan.rows.chunks(BATCH).enumerate() {
        let t = Instant::now();
        engine.insert_batch((b * BATCH) as i64, batch, &mut tr)?;
        let d = t.elapsed();
        c.txns
            .push((t0.elapsed().as_nanos() as u64, d.as_nanos() as u64));
        c.insert_s += d.as_secs_f64();
        after_commit(&mut c, &mut tr)?;
    }
    for batch in &plan.updates {
        let t = Instant::now();
        engine.update_batch(batch, &mut tr)?;
        c.txns.push((
            t0.elapsed().as_nanos() as u64,
            t.elapsed().as_nanos() as u64,
        ));
        after_commit(&mut c, &mut tr)?;
    }
    let last = engine.full_merge(&mut tr)?;
    c.merge_wall_s += last.wall.as_secs_f64();
    c.delta.push(last);
    c.wall_s = t0.elapsed().as_secs_f64();

    // Outside the timed cycle: the merged table answers Q1–Q5 as the
    // row-wise fold over the rows it was given.
    c.stage = engine.stage();
    c.main_bytes = c.stage.main_bytes;
    let round = engine.begin_round();
    let rows = engine.count(&round);
    if rows as usize != plan.end_state.sales.len() {
        c.check_failures
            .push(format!("{rows} rows after ingest of {}", plan.rows.len()));
    }
    for q in 0..5 {
        let (answer, _) = engine.statement(q, &round, &mut Tracer::off())?;
        if answer != plan.expected[q] {
            c.check_failures
                .push(format!("Q{} differs from the row-wise fold", q + 1));
        }
    }
    round.finish();
    c.bytes_per_row = c.stage.resident_bytes() as f64 / rows.max(1) as f64;
    c.spans = tr.spans;
    Ok(c)
}

fn lifecycle_ingest(p: &Params) -> Result<RunResult, String> {
    let mut r = RunResult::default();
    let (plan, setup_s, reps) =
        timed_setups(p.setup_reps, |_| Ok(ingest_plan(p))).map_err(|e| e.to_string())?;
    r.set("setup_s", setup_s, reps);
    let mut h = Fnv::new();
    h.u64(plan.end_state.checksum());
    for &(k, a) in plan.updates.iter().flatten() {
        h.u64(k as u64);
        h.u64(a as u64);
    }
    r.set("bench.input_checksum", h.finish48() as f64, 1);

    // Fixed-size cycles until the window is used up; every cycle does the
    // same work, so counts repeat exactly and times get a median.
    let run_cycles = |traced: bool| -> Result<Vec<Cycle>, String> {
        let t0 = Instant::now();
        let mut cycles = Vec::new();
        while cycles.is_empty() || t0.elapsed().as_secs_f64() < p.seconds {
            cycles.push(ingest_cycle(&plan, traced).map_err(|e| e.to_string())?);
        }
        Ok(cycles)
    };
    let mut cycles = run_cycles(false)?;
    let versions = (plan.rows.len() + p.scale.ingest_updates) as f64;
    let rate =
        |cs: &[Cycle]| versions / median_f64(&cs.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    if p.trace {
        let plain = rate(&cycles);
        cycles = run_cycles(true)?;
        r.set("bench.trace_overhead_ratio", 1.0 - rate(&cycles) / plain, 1);
    }
    let n = cycles.len() as u64;
    let txns_per_cycle = cycles[0].txns.len() as f64;
    let wall = median_f64(&cycles.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    // One class of client: its batch transactions fill both families.
    // Latencies are those of the first cycle, sliced like a window; the
    // rate is that of a whole cycle, merges included.
    let first_wall_ns = (cycles[0].wall_s * 1e9) as u64 + 1;
    let mut st =
        sliced(&cycles[0].txns, 0, first_wall_ns, SLICES, 99.0).expect("a cycle has transactions");
    st.per_s = txns_per_cycle / wall;
    set_txn_family(&mut r, &st);
    set_query_family(&mut r, &st);
    r.set_tail(
        "bench.txn_tail_us",
        st.tail_ns / 1e3,
        st.samples,
        st.tail_pct,
    );
    r.set("bench.txn_per_s", txns_per_cycle / wall, n);
    r.set("bench.txn_samples", txns_per_cycle, 1);
    r.set("merge.settle_rows_per_s", versions / wall, n);

    let sum = |f: &dyn Fn(&Cycle) -> f64| cycles.iter().map(f).sum::<f64>();
    r.set(
        "rowstore.append_rows_per_s",
        plan.rows.len() as f64 * n as f64 / sum(&|c| c.insert_s),
        n,
    );
    let l1_s = sum(&|c| c.l1_merge_s);
    if l1_s > 0.0 {
        r.set(
            "merge.l1_to_l2_rows_per_s",
            sum(&|c| c.l1_moved as f64) / l1_s,
            n,
        );
    }
    let delta_s = sum(&|c| c.delta.iter().map(|d| d.wall.as_secs_f64()).sum());
    r.set(
        "merge.delta_to_main_rows_per_s",
        sum(&|c| c.delta.iter().map(|d| d.rows_in as f64).sum()) / delta_s,
        n,
    );
    // Krueger's bandwidth view: bytes of main written per second of merge.
    // Only the final merge's output size is visible from outside.
    let final_s = sum(&|c| c.delta.last().map_or(0.0, |d| d.wall.as_secs_f64()));
    r.set(
        "merge.delta_to_main_mb_per_s",
        sum(&|c| c.main_bytes as f64) / 1e6 / final_s,
        n,
    );
    // Counts of the first cycle: no timers and one client, so they repeat
    // exactly for a seed.
    let first = &cycles[0];
    r.set("merge.attempts", first.merge_calls as f64, 1);
    r.set("merge.merges_done", first.delta.len() as f64, 1);
    r.set(
        "merge.rows_in",
        first.delta.iter().map(|d| d.rows_in as f64).sum(),
        1,
    );
    r.set(
        "merge.rows_out",
        first.delta.iter().map(|d| d.rows_out as f64).sum(),
        1,
    );
    r.set(
        "merge.parallel_workers",
        first
            .delta
            .last()
            .map_or(0.0, |d| d.parallel_workers as f64),
        1,
    );
    r.set(
        "merge.busy_ratio",
        sum(&|c| c.merge_wall_s) / sum(&|c| c.wall_s),
        n,
    );
    r.set("core.l1_rows_end", first.stage.l1_rows as f64, 1);
    r.set("core.l2_rows_end", first.stage.l2_rows as f64, 1);
    r.set("core.main_rows_end", first.stage.main_rows as f64, 1);
    r.set("core.main_parts_end", first.stage.main_parts as f64, 1);
    r.set("bytes_per_row", first.bytes_per_row, 1);
    r.set("store.main_bytes_per_row", first.bytes_per_row, 1);
    r.set("peak_rss_mb", peak_rss_mb(), 1);

    r.attempted = cycles.iter().map(|c| c.txns.len() as u64).sum();
    for c in &cycles {
        r.failed += c.check_failures.len() as u64;
        r.check_failures.extend(c.check_failures.iter().cloned());
    }
    let mut spans = Vec::new();
    if p.trace {
        // One traced cycle's spans are enough for every median.
        spans = std::mem::take(&mut cycles[0].spans);
        let mut tr = Tracer::new(true, Instant::now(), 20);
        engine::dict_merge_probe(p.scale.ingest_rows, p.scale.ingest_updates, &mut tr);
        spans.append(&mut tr.spans);
    }
    finish(&mut r, p, "lifecycle_ingest", spans)?;
    Ok(r)
}
