//! Predicate compilation into the code domain.
//!
//! The engine layer pushes each supported conjunct of a fused filter down as
//! a [`ColumnPredicate`]. A scan compiles it **per storage unit** into a
//! [`CodeMatcher`] the kernels evaluate directly on compressed codes:
//!
//! * **Main part `p`** — the sorted dictionary turns `Eq` into one global
//!   code and `Range` into one contiguous code range *per dictionary* of
//!   parts `0..=p` (a part's code vector may reference every earlier part's
//!   dictionary, each offset by its `base` — the paper's `n+1` chaining of
//!   active mains), giving a small disjoint range set. Global codes are
//!   order-preserving only within one part's dictionary, never across parts,
//!   which is exactly what the per-dictionary range compilation preserves.
//! * **L2-delta** — the unsorted dictionary carries no order, so the
//!   dictionary is probed **once per conjunct** (not per row) into an
//!   explicit code set.
//!
//! `IS NULL` compiles to the matcher's `match_null` flag against the unit's
//! NULL sentinel; value filters never match the sentinel, keeping SQL null
//! semantics in the code domain (nulls never satisfy `Eq`/`Between`).
//!
//! Predicate shapes outside these four stay row-wise in the engine layer as
//! a *residue* — see `hana_calc`'s `split_pushdown`.

use hana_column::{CodeFilter, CodeMatcher, ZoneEntry};
use hana_common::Value;
use hana_dict::UnsortedDict;
use hana_store::{MainStore, L2_NULL_CODE};
use std::ops::Bound;

/// One conjunct of a scan filter, in a shape the code domain supports.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnPredicate {
    /// `col = value`. A NULL value matches nothing.
    Eq(usize, Value),
    /// `col` within the bounds. NULLs match nothing.
    Range(usize, Bound<Value>, Bound<Value>),
    /// `col` equal to any of the values. NULLs match nothing.
    In(usize, Vec<Value>),
    /// `col IS NULL`.
    IsNull(usize),
}

impl ColumnPredicate {
    /// The column this conjunct constrains.
    pub fn column(&self) -> usize {
        match self {
            ColumnPredicate::Eq(c, _)
            | ColumnPredicate::Range(c, _, _)
            | ColumnPredicate::In(c, _)
            | ColumnPredicate::IsNull(c) => *c,
        }
    }

    /// Row-wise evaluation against a materialized value — the semantics the
    /// compiled form must reproduce exactly (used for the L1 row store and
    /// by the equivalence tests).
    pub fn matches_value(&self, v: &Value) -> bool {
        match self {
            ColumnPredicate::Eq(_, w) => !v.is_null() && !w.is_null() && v == w,
            ColumnPredicate::Range(_, lo, hi) => {
                !v.is_null()
                    && (match lo {
                        Bound::Unbounded => true,
                        Bound::Included(b) => !b.is_null() && v >= b,
                        Bound::Excluded(b) => !b.is_null() && v > b,
                    })
                    && (match hi {
                        Bound::Unbounded => true,
                        Bound::Included(b) => !b.is_null() && v <= b,
                        Bound::Excluded(b) => !b.is_null() && v < b,
                    })
            }
            ColumnPredicate::In(_, set) => {
                !v.is_null() && set.iter().any(|w| !w.is_null() && w == v)
            }
            ColumnPredicate::IsNull(_) => v.is_null(),
        }
    }

    /// Compile against main part `pi` of `main`. The resulting matcher is in
    /// *global* codes, covering the dictionaries of parts `0..=pi` — codes a
    /// row of part `pi` can legally carry.
    pub fn compile_for_part(&self, main: &MainStore, pi: usize) -> CodeMatcher {
        let col = self.column();
        let null_code = main.parts()[pi].null_code(col);
        let filter = match self {
            ColumnPredicate::IsNull(_) => return CodeMatcher::is_null(null_code),
            ColumnPredicate::Eq(_, v) => match main.code_of_value(col, v) {
                // The owner's code is valid only in its own and later parts.
                Some((owner, code)) if owner <= pi && !v.is_null() => CodeFilter::eq(code),
                _ => CodeFilter::Empty,
            },
            ColumnPredicate::Range(_, lo, hi) => {
                if bound_is_null(lo) || bound_is_null(hi) {
                    CodeFilter::Empty
                } else {
                    let ranges = main.parts()[..=pi]
                        .iter()
                        .map(|p| {
                            let r = p.dict(col).code_range(lo.as_ref(), hi.as_ref());
                            (r.start + p.base(col))..(r.end + p.base(col))
                        })
                        .collect();
                    CodeFilter::ranges(ranges)
                }
            }
            ColumnPredicate::In(_, set) => CodeFilter::set(
                set.iter()
                    .filter(|v| !v.is_null())
                    .filter_map(|v| match main.code_of_value(col, v) {
                        Some((owner, code)) if owner <= pi => Some(code),
                        _ => None,
                    })
                    .collect(),
            ),
        };
        CodeMatcher::new(filter, null_code)
    }

    /// Compile against an L2-delta dictionary (probed once, not per row).
    pub fn compile_for_l2(&self, dict: &UnsortedDict) -> CodeMatcher {
        let filter = match self {
            ColumnPredicate::IsNull(_) => return CodeMatcher::is_null(L2_NULL_CODE),
            ColumnPredicate::Eq(_, v) if !v.is_null() => match dict.code_of(v) {
                Some(code) => CodeFilter::eq(code),
                None => CodeFilter::Empty,
            },
            ColumnPredicate::Eq(_, _) => CodeFilter::Empty,
            ColumnPredicate::Range(_, lo, hi) => {
                if bound_is_null(lo) || bound_is_null(hi) {
                    CodeFilter::Empty
                } else {
                    // Unsorted codes: resolve matching codes by value
                    // comparison over the dictionary (one pass), yielding a
                    // code set.
                    CodeFilter::set(
                        dict.values()
                            .iter()
                            .enumerate()
                            .filter(|(_, v)| self.matches_value(v))
                            .map(|(c, _)| c as hana_dict::Code)
                            .collect(),
                    )
                }
            }
            ColumnPredicate::In(_, set) => CodeFilter::set(
                set.iter()
                    .filter(|v| !v.is_null())
                    .filter_map(|v| dict.code_of(v))
                    .collect(),
            ),
        };
        CodeMatcher::new(filter, L2_NULL_CODE)
    }
}

fn bound_is_null(b: &Bound<Value>) -> bool {
    match b {
        Bound::Included(v) | Bound::Excluded(v) => v.is_null(),
        Bound::Unbounded => false,
    }
}

/// Can a zone with entry `z` contain a row satisfying `m`? `false` is a
/// proof of absence — the zone may be skipped without running a kernel.
#[inline]
pub(crate) fn zone_admits(z: ZoneEntry, m: &CodeMatcher) -> bool {
    (m.match_null && z.has_nulls) || m.filter.span().is_some_and(|(lo, hi)| z.overlaps(lo, hi))
}

/// Counters a filtered scan reports up to the engine's `ExecStats`.
///
/// Deliberately not `PartialEq`: the struct mixes work counters that are
/// contractually identical across schedules with telemetry of the schedule
/// itself (`governor_wait_ns`, `effective_parallelism`). Compare
/// [`work`](ScanStats::work) instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanStats {
    /// Whole main parts skipped by part-level zone maps (or empty compiled
    /// filters — the dictionary proved no row can match).
    pub parts_pruned: usize,
    /// 16Ki-row chunks skipped by chunk-level zone maps.
    pub chunks_pruned: usize,
    /// Main rows never touched because their part/chunk was pruned.
    pub zone_pruned_rows: u64,
    /// Rows whose predicate was decided purely in the code domain (kernel
    /// scans, inverted-index verification, L2 code-set checks) — no value
    /// was materialized to filter them.
    pub code_filtered_rows: u64,
    /// Rows the scan had to evaluate row-wise on materialized values (L1).
    pub rowwise_rows: u64,
    /// Inverted-index probes used to route a selective `Eq` conjunct.
    pub index_probes: usize,
    /// Time (ns) this scan spent waiting for a governor admission token —
    /// attributes interference per query.
    pub governor_wait_ns: u64,
    /// Worker threads the scan actually fanned out over after the
    /// governor's clamp (vs the configured `scan_parallelism`).
    pub effective_parallelism: usize,
}

/// The schedule-independent work a scan did: bit-identical whatever the
/// worker count, governor clamp or admission wait (the determinism
/// contract of the parallel scan, as a type).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanWork {
    /// See [`ScanStats::parts_pruned`].
    pub parts_pruned: usize,
    /// See [`ScanStats::chunks_pruned`].
    pub chunks_pruned: usize,
    /// See [`ScanStats::zone_pruned_rows`].
    pub zone_pruned_rows: u64,
    /// See [`ScanStats::code_filtered_rows`].
    pub code_filtered_rows: u64,
    /// See [`ScanStats::rowwise_rows`].
    pub rowwise_rows: u64,
    /// See [`ScanStats::index_probes`].
    pub index_probes: usize,
}

impl ScanStats {
    /// The work counters alone, without the schedule telemetry.
    pub fn work(&self) -> ScanWork {
        ScanWork {
            parts_pruned: self.parts_pruned,
            chunks_pruned: self.chunks_pruned,
            zone_pruned_rows: self.zone_pruned_rows,
            code_filtered_rows: self.code_filtered_rows,
            rowwise_rows: self.rowwise_rows,
            index_probes: self.index_probes,
        }
    }

    /// Fold another stats block into this one.
    pub fn merge(&mut self, o: &ScanStats) {
        self.parts_pruned += o.parts_pruned;
        self.chunks_pruned += o.chunks_pruned;
        self.zone_pruned_rows += o.zone_pruned_rows;
        self.code_filtered_rows += o.code_filtered_rows;
        self.rowwise_rows += o.rowwise_rows;
        self.index_probes += o.index_probes;
        self.governor_wait_ns += o.governor_wait_ns;
        self.effective_parallelism = self.effective_parallelism.max(o.effective_parallelism);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_semantics_reject_nulls() {
        let eq = ColumnPredicate::Eq(0, Value::Int(3));
        assert!(eq.matches_value(&Value::Int(3)));
        assert!(!eq.matches_value(&Value::Null));
        assert!(!ColumnPredicate::Eq(0, Value::Null).matches_value(&Value::Null));
        let rng = ColumnPredicate::Range(
            0,
            Bound::Included(Value::Int(1)),
            Bound::Excluded(Value::Int(9)),
        );
        assert!(rng.matches_value(&Value::Int(1)));
        assert!(!rng.matches_value(&Value::Int(9)));
        assert!(!rng.matches_value(&Value::Null));
        assert!(ColumnPredicate::IsNull(0).matches_value(&Value::Null));
        assert!(!ColumnPredicate::IsNull(0).matches_value(&Value::Int(0)));
        assert!(!ColumnPredicate::In(0, vec![Value::Null]).matches_value(&Value::Null));
    }

    #[test]
    fn zone_admission_rules() {
        let z = ZoneEntry {
            min: 10,
            max: 20,
            has_nulls: false,
        };
        let m = |f: CodeFilter| CodeMatcher::new(f, 99);
        assert!(zone_admits(z, &m(CodeFilter::range(15..16))));
        assert!(zone_admits(z, &m(CodeFilter::range(20..25)))); // touches max
        assert!(!zone_admits(z, &m(CodeFilter::range(21..25))));
        assert!(!zone_admits(z, &m(CodeFilter::Empty)));
        // IS NULL needs the null flag, not the span.
        assert!(!zone_admits(z, &CodeMatcher::is_null(99)));
        let zn = ZoneEntry {
            has_nulls: true,
            ..z
        };
        assert!(zone_admits(zn, &CodeMatcher::is_null(99)));
    }
}
