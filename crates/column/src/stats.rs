//! Single-pass column statistics driving the compression chooser and the
//! re-sorting merge's sort-column selection (paper §4.2: "the system
//! computes the 'best' sort order of the columns based on statistics from
//! main and L2-delta structures").

use crate::Code;
use rustc_hash::FxHashMap;

/// Statistics over a code vector.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeStats {
    /// Total number of codes.
    pub len: usize,
    /// Number of distinct codes.
    pub distinct: usize,
    /// Number of runs of equal adjacent codes.
    pub runs: usize,
    /// Largest code.
    pub max_code: Code,
    /// Most frequent code and its frequency.
    pub dominant: Option<(Code, usize)>,
    /// Shannon entropy over the code distribution, in bits.
    pub entropy: f64,
}

impl CodeStats {
    /// Compute statistics in two passes over the codes (plus one over the
    /// histogram).
    pub fn compute(codes: &[Code]) -> Self {
        let mut runs = 0usize;
        let (mut min_code, mut max_code) = (Code::MAX, 0);
        let mut prev: Option<Code> = None;
        for &c in codes {
            if prev != Some(c) {
                runs += 1;
            }
            prev = Some(c);
            min_code = min_code.min(c);
            max_code = max_code.max(c);
        }
        // Dictionary codes are dense: count them in an array over their
        // span (4 B per code) unless the span is wider than the input, as
        // when an active part's codes reach into a large passive
        // dictionary.
        let n = codes.len();
        let span = max_code.saturating_sub(min_code) as usize + 1;
        let (distinct, dominant, entropy) = if n == 0 {
            (0, None, 0.0)
        } else if span <= n {
            let mut counts = vec![0u32; span];
            for &c in codes {
                counts[(c - min_code) as usize] += 1;
            }
            let hist = counts.iter().enumerate().filter(|&(_, &k)| k > 0);
            summarize(hist.map(|(i, &k)| (min_code + i as Code, k as usize)), n)
        } else {
            let mut hist: FxHashMap<Code, usize> = FxHashMap::default();
            for &c in codes {
                *hist.entry(c).or_insert(0) += 1;
            }
            summarize(hist.into_iter(), n)
        };
        CodeStats {
            len: n,
            distinct,
            runs,
            max_code,
            dominant,
            entropy,
        }
    }

    /// Fraction of positions holding the dominant code.
    pub fn dominant_fraction(&self) -> f64 {
        match (self.dominant, self.len) {
            (Some((_, n)), len) if len > 0 => n as f64 / len as f64,
            _ => 0.0,
        }
    }

    /// Average run length; large values mean RLE-friendly data.
    pub fn avg_run_len(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.len as f64 / self.runs as f64
        }
    }
}

/// `(distinct, dominant, entropy)` of a histogram of `(code, count)` pairs
/// over `n` codes.
fn summarize(
    hist: impl Iterator<Item = (Code, usize)>,
    n: usize,
) -> (usize, Option<(Code, usize)>, f64) {
    let mut distinct = 0;
    let mut dominant: Option<(Code, usize)> = None;
    let mut entropy = 0.0;
    for (c, k) in hist {
        distinct += 1;
        if dominant.is_none_or(|(_, best)| k > best) {
            dominant = Some((c, k));
        }
        let p = k as f64 / n as f64;
        entropy -= p * p.log2();
    }
    (distinct, dominant, entropy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_stats() {
        let codes = vec![1, 1, 1, 2, 2, 3];
        let s = CodeStats::compute(&codes);
        assert_eq!(s.len, 6);
        assert_eq!(s.distinct, 3);
        assert_eq!(s.runs, 3);
        assert_eq!(s.max_code, 3);
        assert_eq!(s.dominant, Some((1, 3)));
        assert!((s.dominant_fraction() - 0.5).abs() < 1e-12);
        assert!((s.avg_run_len() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wide_spans_count_like_dense_ones() {
        // Span 3 ≤ 5 codes: array histogram; span 2^30: hash histogram.
        let dense = CodeStats::compute(&[7, 9, 9, 8, 9]);
        let wide = CodeStats::compute(&[7, 9 << 27, 9 << 27, 1 << 30, 9 << 27]);
        assert_eq!((dense.distinct, dense.dominant), (3, Some((9, 3))));
        assert_eq!((wide.distinct, wide.dominant), (3, Some((9 << 27, 3))));
        assert_eq!((dense.runs, dense.entropy), (wide.runs, wide.entropy));
    }

    #[test]
    fn entropy_bounds() {
        // Uniform over 4 codes → 2 bits; constant → 0 bits.
        let uniform: Vec<Code> = (0..400).map(|i| i % 4).collect();
        let s = CodeStats::compute(&uniform);
        assert!((s.entropy - 2.0).abs() < 1e-9);
        let constant = vec![7 as Code; 100];
        assert!(CodeStats::compute(&constant).entropy.abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        let s = CodeStats::compute(&[]);
        assert_eq!(s.len, 0);
        assert_eq!(s.runs, 0);
        assert_eq!(s.dominant, None);
        assert_eq!(s.dominant_fraction(), 0.0);
        assert_eq!(s.avg_run_len(), 0.0);
    }

    #[test]
    fn sorted_vs_shuffled_run_counts() {
        let sorted: Vec<Code> = (0..100).flat_map(|c| std::iter::repeat_n(c, 10)).collect();
        let shuffled: Vec<Code> = (0..1000).map(|i| (i * 7919) % 100).collect();
        assert!(CodeStats::compute(&sorted).runs < CodeStats::compute(&shuffled).runs);
    }
}
