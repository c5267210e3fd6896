//! Shared fixtures for the figure benches and the `repro` harness.
//!
//! Each bench regenerates the behavioural claim of one paper figure (see
//! DESIGN.md §4). The helpers here build tables in precisely controlled
//! lifecycle states so benches measure exactly one mechanism.

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

    /// Serialize every recorded section. Rows become objects keyed by the
    /// column headers.
    pub fn to_json() -> String {
        let sections = SECTIONS.lock().expect("report mutex");
        let body = json_array(sections.iter().map(|s| {
            let rows = json_array(s.rows.iter().map(|row| {
                let fields: Vec<String> = s
                    .headers
                    .iter()
                    .zip(row)
                    .map(|(h, v)| format!("\"{}\":\"{}\"", json_escape(h), json_escape(v)))
                    .collect();
                format!("{{{}}}", fields.join(","))
            }));
            format!(
                "{{\"section\":\"{}\",\"rows\":{}}}",
                json_escape(&s.name),
                rows
            )
        }));
        format!("{{\"sections\":{body}}}\n")
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
