//! Run-length encoding of code vectors.
//!
//! The paper lists "simple run-length coding schemes" among the main-store
//! compression techniques. RLE shines after a re-sorting merge placed equal
//! codes adjacently. Random access binary-searches a prefix-sum of run ends.

use crate::kernel::CodeMatcher;
use crate::{Bitmap, Code, Pos};

/// Run-length encoded code vector.
#[derive(Debug, Clone, Default)]
pub struct Rle {
    /// `(code, end)` per run, where `end` is the exclusive prefix sum of run
    /// lengths — run `k` covers positions `ends[k-1]..ends[k]`.
    runs: Vec<(Code, u32)>,
    len: usize,
}

impl Rle {
    /// Encode a code slice.
    pub fn from_codes(codes: &[Code]) -> Self {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < codes.len() {
            let c = codes[i];
            let mut j = i + 1;
            while j < codes.len() && codes[j] == c {
                j += 1;
            }
            runs.push((c, j as u32));
            i = j;
        }
        runs.shrink_to_fit();
        Rle {
            runs,
            len: codes.len(),
        }
    }

    /// Number of codes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs.
    #[inline]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The code at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> Code {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let k = self.runs.partition_point(|&(_, end)| end as usize <= i);
        self.runs[k].0
    }

    /// Iterate all codes.
    pub fn iter(&self) -> impl Iterator<Item = Code> + '_ {
        self.runs
            .iter()
            .scan(0u32, |start, &(c, end)| {
                let n = end - *start;
                *start = end;
                Some(std::iter::repeat_n(c, n as usize))
            })
            .flatten()
    }

    /// Decode positions `[start, start + out.len())` into `out`, one fill
    /// per overlapping run.
    pub fn decode_range(&self, start: usize, out: &mut [Code]) {
        let end = start + out.len();
        debug_assert!(end <= self.len);
        let k = self.runs.partition_point(|&(_, e)| e as usize <= start);
        let mut at = start;
        for &(c, run_end) in &self.runs[k..] {
            if at >= end {
                break;
            }
            let hi = (run_end as usize).min(end);
            out[at - start..hi - start].fill(c);
            at = hi;
        }
    }

    /// Positions whose code equals `code` — whole matching runs at once.
    pub fn scan_eq(&self, code: Code, out: &mut Vec<Pos>) {
        let mut start = 0u32;
        for &(c, end) in &self.runs {
            if c == code {
                out.extend(start..end);
            }
            start = end;
        }
    }

    /// Positions whose code lies in `range`.
    pub fn scan_range(&self, range: std::ops::Range<Code>, out: &mut Vec<Pos>) {
        let mut start = 0u32;
        for &(c, end) in &self.runs {
            if range.contains(&c) {
                out.extend(start..end);
            }
            start = end;
        }
    }

    /// Compressed-domain filter kernel over positions `[start, end)`: the
    /// matcher is evaluated **once per run**, and matching runs set their
    /// whole overlap with the window word-at-a-time. Bit `k` of `out` is
    /// position `start + k`.
    pub fn filter_range(&self, start: usize, end: usize, m: &CodeMatcher, out: &mut Bitmap) {
        debug_assert!(end <= self.len);
        if start >= end || m.never_matches() {
            return;
        }
        // First run overlapping `start`: runs are sorted by exclusive end.
        let k = self.runs.partition_point(|&(_, e)| e as usize <= start);
        let mut run_start = if k == 0 {
            0
        } else {
            self.runs[k - 1].1 as usize
        };
        // Slice iteration from `k`: no per-run index bounds check, and the
        // only per-run branch left is the matcher verdict itself.
        for &(c, run_end) in &self.runs[k..] {
            if run_start >= end {
                break;
            }
            if m.matches(c) {
                let lo = run_start.max(start);
                let hi = (run_end as usize).min(end);
                out.set_range(lo - start, hi - start);
            }
            run_start = run_end as usize;
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<(Code, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let codes = vec![5, 5, 5, 1, 1, 9, 9, 9, 9, 2];
        let r = Rle::from_codes(&codes);
        assert_eq!(r.len(), 10);
        assert_eq!(r.run_count(), 4);
        assert_eq!(r.iter().collect::<Vec<_>>(), codes);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(r.get(i), c);
        }
    }

    #[test]
    fn empty() {
        let r = Rle::from_codes(&[]);
        assert!(r.is_empty());
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn scan_eq_returns_full_runs() {
        let codes = vec![1, 1, 2, 1, 1, 1, 3];
        let r = Rle::from_codes(&codes);
        let mut out = Vec::new();
        r.scan_eq(1, &mut out);
        assert_eq!(out, vec![0, 1, 3, 4, 5]);
    }

    #[test]
    fn scan_range() {
        let codes = vec![0, 0, 5, 5, 9, 9, 3];
        let r = Rle::from_codes(&codes);
        let mut out = Vec::new();
        r.scan_range(3..9, &mut out);
        assert_eq!(out, vec![2, 3, 6]);
    }

    #[test]
    fn sorted_input_compresses_hard() {
        let codes: Vec<Code> = (0..10_000).map(|i| i / 1000).collect();
        let r = Rle::from_codes(&codes);
        assert_eq!(r.run_count(), 10);
        assert!(r.heap_size() < 200);
    }
}
