//! Shared fixtures for the `repro` harness.
//!
//! Each `repro` section regenerates the behavioural claim of one paper
//! figure (see DESIGN.md §4). The helpers here build tables in precisely
//! controlled lifecycle states so a section measures exactly one mechanism,
//! time each case [`samples`] times, and record every table for the JSON
//! report.

use hana_common::{TableConfig, Value};
use hana_core::{Database, UnifiedTable};
use hana_merge::MergeDecision;
use hana_txn::IsolationLevel;
use hana_workload::{DataGen, SalesSchema};
use std::sync::Arc;

/// Standard bench scale knobs.
pub const CUSTOMERS: i64 = 1_000;
/// Product dimension cardinality.
pub const PRODUCTS: i64 = 200;

/// A database + sales table with `rows` fact rows, all resident in the
/// requested stage.
pub struct StagedTable {
    /// The owning database.
    pub db: Arc<Database>,
    /// The fact table.
    pub table: Arc<UnifiedTable>,
    /// Rows loaded.
    pub rows: i64,
}

/// Which stage the fixture leaves its rows in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// All rows in the L1-delta.
    L1,
    /// All rows in the L2-delta.
    L2,
    /// All rows in a single-part main.
    Main,
}

/// Build a sales table with all `rows` rows in `stage`.
pub fn staged_sales(rows: i64, stage: Stage, seed: u64) -> StagedTable {
    let db = Database::in_memory();
    // Thresholds high enough that nothing merges behind our back.
    let cfg = TableConfig {
        l1_max_rows: usize::MAX / 2,
        l2_max_rows: usize::MAX / 2,
        ..TableConfig::default()
    };
    let table = db.create_table(SalesSchema::fact(), cfg).unwrap();
    let mut gen = DataGen::new(seed);
    let mut txn = db.begin(IsolationLevel::Transaction);
    match stage {
        Stage::L1 => {
            for i in 0..rows {
                table
                    .insert(
                        &txn,
                        SalesSchema::fact_row(&mut gen, i, CUSTOMERS, PRODUCTS),
                    )
                    .unwrap();
            }
            db.commit(&mut txn).unwrap();
        }
        Stage::L2 | Stage::Main => {
            let batch: Vec<Vec<Value>> = (0..rows)
                .map(|i| SalesSchema::fact_row(&mut gen, i, CUSTOMERS, PRODUCTS))
                .collect();
            table.bulk_load(&txn, batch).unwrap();
            db.commit(&mut txn).unwrap();
            if stage == Stage::Main {
                table.merge_delta_as(MergeDecision::Classic).unwrap();
            }
        }
    }
    StagedTable { db, table, rows }
}

/// Fill the table's L1 with `n` additional committed rows starting at
/// `first_id` (used to prepare merge inputs).
pub fn fill_l1(st: &StagedTable, first_id: i64, n: i64, seed: u64) {
    let mut gen = DataGen::new(seed);
    let mut txn = st.db.begin(IsolationLevel::Transaction);
    for i in 0..n {
        st.table
            .insert(
                &txn,
                SalesSchema::fact_row(&mut gen, first_id + i, CUSTOMERS, PRODUCTS),
            )
            .unwrap();
    }
    st.db.commit(&mut txn).unwrap();
}

/// Bulk-load `n` additional rows straight into the L2.
pub fn fill_l2(st: &StagedTable, first_id: i64, n: i64, seed: u64) {
    let mut gen = DataGen::new(seed);
    let batch: Vec<Vec<Value>> = (0..n)
        .map(|i| SalesSchema::fact_row(&mut gen, first_id + i, CUSTOMERS, PRODUCTS))
        .collect();
    let mut txn = st.db.begin(IsolationLevel::Transaction);
    st.table.bulk_load(&txn, batch).unwrap();
    st.db.commit(&mut txn).unwrap();
}

/// Render a markdown table (used by the repro harness).
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!(
        "|{}\n",
        headers.iter().map(|_| "---|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// True when the harness runs in quick (CI smoke) mode: `REPRO_QUICK=1`.
pub fn quick_mode() -> bool {
    std::env::var("REPRO_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Scale a row count for the current mode: quick mode caps every dataset
/// so the whole harness finishes in seconds on a CI runner.
pub fn scale(rows: i64) -> i64 {
    if quick_mode() {
        rows.min(4_000)
    } else {
        rows
    }
}

/// Scale a wall-clock measurement window for the current mode.
pub fn scale_duration(d: std::time::Duration) -> std::time::Duration {
    if quick_mode() {
        d.min(std::time::Duration::from_millis(250))
    } else {
        d
    }
}

/// Samples per timed case in full mode.
const SAMPLES: usize = 7;
/// Samples per timed case in quick mode.
const QUICK_SAMPLES: usize = 3;

/// How many times [`sample`] runs a case in the current mode.
pub fn samples() -> usize {
    if quick_mode() {
        QUICK_SAMPLES
    } else {
        SAMPLES
    }
}

/// The spread of one case's samples: median and quartiles, linearly
/// interpolated between order statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median sample.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarize `xs`.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "no samples");
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let q = |p: f64| {
            let at = p * (v.len() - 1) as f64;
            let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
        };
        Summary {
            median: q(0.5),
            q1: q(0.25),
            q3: q(0.75),
        }
    }

    /// The interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// A table cell: `median ± IQR` at `decimals` places. [`report::to_json`]
    /// turns cells of this shape into `{"median":…,"iqr":…}`.
    pub fn cell(&self, decimals: usize) -> String {
        format!("{:.decimals$} ± {:.decimals$}", self.median, self.iqr())
    }
}

/// Run `case` [`samples`] times and summarize the value it returns each
/// time — a duration it timed itself or a rate it computed — so set-up
/// inside the case stays out of the number.
pub fn sample(mut case: impl FnMut() -> f64) -> Summary {
    let xs: Vec<f64> = (0..samples()).map(|_| case()).collect();
    Summary::of(&xs)
}

/// Wall time of `f` in milliseconds, with its result.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = std::time::Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

/// Logical cores the harness may use (`available_parallelism`).
pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Machine-readable mirror of the repro harness's markdown tables. Each
/// recorded section becomes one JSON object; [`report::write_json`] dumps
/// them to the path in `REPRO_JSON` so CI can archive the numbers.
pub mod report {
    use std::sync::Mutex;

    struct Section {
        name: String,
        headers: Vec<String>,
        rows: Vec<Vec<String>>,
    }

    static SECTIONS: Mutex<Vec<Section>> = Mutex::new(Vec::new());

    /// Print a section's markdown table and record it for the JSON dump.
    pub fn emit(name: &str, headers: &[&str], rows: &[Vec<String>]) {
        println!("{}", super::markdown_table(headers, rows));
        SECTIONS.lock().expect("report mutex").push(Section {
            name: name.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: rows.to_vec(),
        });
    }

    fn json_escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    fn json_array(items: impl Iterator<Item = String>) -> String {
        format!("[{}]", items.collect::<Vec<_>>().join(","))
    }

    /// A cell as a JSON value: a sampled `median ± IQR` cell (see
    /// [`Summary::cell`](super::Summary::cell)) becomes an object of two
    /// numbers, anything else a string.
    fn json_cell(v: &str) -> String {
        let finite = |x: &str| x.parse::<f64>().is_ok_and(f64::is_finite);
        match v.split_once(" ± ") {
            Some((m, i)) if finite(m) && finite(i) => format!("{{\"median\":{m},\"iqr\":{i}}}"),
            _ => format!("\"{}\"", json_escape(v)),
        }
    }

    /// Serialize the host shape and every recorded section. Rows become
    /// objects keyed by the column headers.
    pub fn to_json() -> String {
        let host = format!(
            "{{\"logical_cores\":{},\"mode\":\"{}\",\"samples\":{}}}",
            super::logical_cores(),
            json_escape(if super::quick_mode() { "quick" } else { "full" }),
            super::samples()
        );
        let sections = SECTIONS.lock().expect("report mutex");
        let body = json_array(sections.iter().map(|s| {
            let rows = json_array(s.rows.iter().map(|row| {
                let fields: Vec<String> = s
                    .headers
                    .iter()
                    .zip(row)
                    .map(|(h, v)| format!("\"{}\":{}", json_escape(h), json_cell(v)))
                    .collect();
                format!("{{{}}}", fields.join(","))
            }));
            format!(
                "{{\"section\":\"{}\",\"rows\":{}}}",
                json_escape(&s.name),
                rows
            )
        }));
        format!("{{\"host\":{host},\"sections\":{body}}}\n")
    }

    /// Write the JSON dump to the path in `REPRO_JSON`, if set.
    pub fn write_json() -> std::io::Result<()> {
        if let Ok(path) = std::env::var("REPRO_JSON") {
            if !path.is_empty() {
                std::fs::write(&path, to_json())?;
                eprintln!("repro: wrote JSON report to {path}");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_interpolates_median_and_quartiles() {
        let odd = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            (odd.median, odd.q1, odd.q3, odd.iqr()),
            (3.0, 2.0, 4.0, 2.0)
        );
        let even = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.median, even.q1, even.q3), (2.5, 1.75, 3.25));
        let one = Summary::of(&[7.0]);
        assert_eq!((one.median, one.iqr()), (7.0, 0.0));
        assert_eq!(even.cell(2), "2.50 ± 1.50");
    }

    #[test]
    fn json_carries_the_host_and_escapes_strings() {
        report::emit(
            "T \"quoted\"\tsection",
            &["case", "time (ms)", "rate"],
            &[vec![
                "a\\b".into(),
                Summary::of(&[1.0, 2.0, 3.0]).cell(1),
                "inf ± NaN".into(),
            ]],
        );
        let json = report::to_json();
        let mode = if quick_mode() { "quick" } else { "full" };
        assert!(json.starts_with(&format!(
            "{{\"host\":{{\"logical_cores\":{},\"mode\":\"{mode}\",\"samples\":{}}},",
            logical_cores(),
            samples()
        )));
        assert!(json.contains("\"section\":\"T \\\"quoted\\\"\\tsection\""));
        assert!(json.contains(
            "{\"case\":\"a\\\\b\",\"time (ms)\":{\"median\":2.0,\"iqr\":1.0},\"rate\":\"inf ± NaN\"}"
        ));
    }
}
