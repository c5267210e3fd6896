//! The metric registry (every name the benchmark may emit, with its unit)
//! and the JSON it prints. `BENCHMARK.json` at the repository root lists
//! the same names; a test keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const WORKLOADS: [&str; 5] = [
    "oltp_durable",
    "oltp_mem",
    "olap_main",
    "htap_mixed",
    "lifecycle_ingest",
];

/// `(name, unit)` of the end-to-end metrics, measured with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("txn_per_s", "1/s"),
    ("txn_p50_us", "us"),
    ("query_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("bytes_per_row", "B/row"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics, from the traced run. A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 99] = [
    ("txn.begin_ns", "ns"),
    ("txn.commit_mem_ns", "ns"),
    ("txn.conflict_ratio", "ratio"),
    ("txn.retries", "count"),
    ("core.insert_us", "us"),
    ("core.update_us", "us"),
    ("core.delete_us", "us"),
    ("core.point_us", "us"),
    ("core.read_open_ns", "ns"),
    ("core.scan_filtered_ms", "ms"),
    ("core.aggregate_numeric_ms", "ms"),
    ("core.group_aggregate_ms", "ms"),
    ("core.zone_pruned_row_ratio", "ratio"),
    ("core.code_filtered_row_ratio", "ratio"),
    ("core.rowwise_rows", "count"),
    ("core.index_probes", "count"),
    ("core.vis_cache_hit_ratio", "ratio"),
    ("core.governor_wait_us_per_query", "us"),
    ("core.governor_scans_queued", "count"),
    ("core.governor_downshifts", "count"),
    ("core.governor_merge_deferrals", "count"),
    ("core.gc_cycles", "count"),
    ("core.gc_marks_resolved", "count"),
    ("core.gc_dead_versions", "count"),
    ("core.publication_stall_max_us", "us"),
    ("core.publication_stall_mean_us", "us"),
    ("core.l1_rows_end", "count"),
    ("core.l2_rows_end", "count"),
    ("core.main_rows_end", "count"),
    ("core.main_parts_end", "count"),
    ("rowstore.point_us", "us"),
    ("rowstore.append_rows_per_s", "1/s"),
    ("rowstore.l1_bytes_per_row", "B/row"),
    ("store.l2_point_us", "us"),
    ("store.main_point_us", "us"),
    ("store.l2_bytes_per_row", "B/row"),
    ("store.main_bytes_per_row", "B/row"),
    ("store.main_data_bytes_per_row", "B/row"),
    ("merge.settle_rows_per_s", "1/s"),
    ("merge.l1_to_l2_rows_per_s", "1/s"),
    ("merge.delta_to_main_rows_per_s", "1/s"),
    ("merge.delta_to_main_mb_per_s", "MB/s"),
    ("merge.merges_done", "count"),
    ("merge.attempts", "count"),
    ("merge.failures", "count"),
    ("merge.backoff_skips", "count"),
    ("merge.rows_in", "count"),
    ("merge.rows_out", "count"),
    ("merge.busy_ratio", "ratio"),
    ("merge.parallel_workers", "count"),
    ("dict.encode_lookup_ns", "ns"),
    ("dict.merge_ms", "ms"),
    ("column.scan_eq_rows_per_us", "1/us"),
    ("column.scan_range_rows_per_us", "1/us"),
    ("column.unpack_rows_per_us", "1/us"),
    ("column.bits_per_code_amount", "bit"),
    ("persist.recovery_s", "s"),
    ("persist.log_bytes_per_txn", "B"),
    ("persist.commit_durable_us", "us"),
    ("persist.log_append_ns", "ns"),
    ("persist.log_flush_us", "us"),
    ("persist.fsyncs", "count"),
    ("persist.records_per_fsync", "ratio"),
    ("persist.flush_failures", "count"),
    ("persist.page_writes", "count"),
    ("persist.page_syncs", "count"),
    ("persist.savepoint_ms", "ms"),
    ("persist.savepoint_mb", "MB"),
    ("persist.savepoint_writer_stall_max_us", "us"),
    ("persist.replay_records", "count"),
    ("persist.replay_records_per_s", "1/s"),
    ("calc.compile_optimize_us", "us"),
    ("calc.q1_ms", "ms"),
    ("calc.q2_ms", "ms"),
    ("calc.q3_ms", "ms"),
    ("calc.q4_ms", "ms"),
    ("calc.q5_ms", "ms"),
    ("calc.q6_ms", "ms"),
    ("calc.q1_self_ms", "ms"),
    ("calc.q2_self_ms", "ms"),
    ("calc.q3_self_ms", "ms"),
    ("calc.q4_self_ms", "ms"),
    ("calc.q5_self_ms", "ms"),
    ("calc.q6_self_ms", "ms"),
    ("calc.rows_examined_per_result", "ratio"),
    ("calc.full_scans", "count"),
    ("calc.indexed_scans", "count"),
    ("calc.nodes_evaluated", "count"),
    ("bench.txn_per_s", "1/s"),
    ("bench.query_per_s", "1/s"),
    ("bench.txn_tail_us", "us"),
    ("bench.query_tail_ms", "ms"),
    ("bench.txn_samples", "count"),
    ("bench.query_samples", "count"),
    ("bench.failed_ratio", "ratio"),
    ("bench.gen_ns_per_op", "ns"),
    ("bench.input_checksum", "hash"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.spans_recorded", "count"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[derive(Clone, Debug, Default)]
pub struct Metric {
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: u64,
    /// For tail latencies: the percentile the sample count supported.
    pub percentile: Option<f64>,
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Why `correct` is false, one line per failed check.
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.insert(name, value, samples, None);
    }

    pub fn set_tail(&mut self, name: &'static str, value: f64, samples: u64, percentile: f64) {
        self.insert(name, value, samples, Some(percentile));
    }

    fn insert(&mut self, name: &'static str, value: f64, samples: u64, percentile: Option<f64>) {
        debug_assert!(unit_of(name).is_some(), "unregistered metric {name}");
        let m = Metric {
            value,
            samples,
            percentile,
        };
        self.metrics.insert(name, m);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// The one-line result the driver reads: every metric of `names`, in
    /// that order; one a workload did not produce reads 0.
    pub fn contract_line(&self, names: &[(&'static str, &'static str)]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self.metrics.get(name).map_or(0.0, |m| m.value);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(v)
            );
        }
        s.push_str("}}");
        s
    }

    /// All metrics with unit, sample count and percentile, for the report.
    pub fn report_json(&self, indent: &str) -> String {
        let mut s = format!(
            "{{\n{indent}  \"correct\": {}, \"attempted\": {}, \"failed\": {},\n{indent}  \"check_failures\": [{}],\n{indent}  \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed,
            self.check_failures
                .iter()
                .map(|f| quote(f))
                .collect::<Vec<_>>()
                .join(", ")
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n{indent}    \"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}",
                number(m.value),
                unit_of(name).unwrap_or(""),
                m.samples
            );
            if let Some(p) = m.percentile {
                let _ = write!(s, ", \"percentile\": {p}");
            }
            s.push('}');
        }
        let _ = write!(s, "\n{indent}  }}\n{indent}}}");
        s
    }
}

/// A JSON number with all the digits of the measurement.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value — enough to read a child run's result line and
/// `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end".into()),
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                loop {
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(kv));
                    }
                    if !kv.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at byte {}", self.i));
                    }
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at byte {}", self.i));
                    }
                    kv.push((k, self.value()?));
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                loop {
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(a));
                    }
                    if !a.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at byte {}", self.i));
                    }
                    a.push(self.value()?);
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad token at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at byte {}", self.i));
        }
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    self.i += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let cp = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend_from_slice(cp.to_string().as_bytes());
                        }
                        c => out.push(c),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(v: &Json, key: &str) -> String {
        match v.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        }
    }

    fn items<'a>(v: &'a Json, key: &str) -> &'a [Json] {
        match v.get(key) {
            Some(Json::Arr(a)) => a,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn metric_names_use_the_allowed_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for w in WORKLOADS {
            assert!(seen.insert(w), "{w} is also a metric name");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let v =
            Json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str, registry: &[(&str, &str)]| {
            let theirs: Vec<(String, String)> = items(&v, key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect();
            let ours: Vec<(String, String)> = registry
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(theirs, ours, "{key}");
        };
        listed("end_to_end", &END_TO_END);
        listed("per_layer", &PER_LAYER);
        let workloads: Vec<String> = items(&v, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(v.get("claim"), None, "the contract fixes the keys");
    }

    #[test]
    fn contract_line_round_trips_and_fills_missing_metrics_with_zero() {
        let mut r = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        r.set("setup_s", 1.2034, 3);
        let line = r.contract_line(&END_TO_END);
        let v = Json::parse(&line).expect("parses");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s").and_then(|x| x.get("value")),
            Some(&Json::Num(1.2034))
        );
        assert_eq!(
            m.get("txn_per_s").and_then(|x| x.get("value")),
            Some(&Json::Num(0.0))
        );
        let Json::Obj(kv) = m else { panic!() };
        assert_eq!(kv.len(), END_TO_END.len());
        r.check(false, || "a \"quoted\" reason".into());
        assert!(!r.correct());
        assert!(Json::parse(&r.report_json("")).is_ok());
    }
}
