//! Sparse (dominant-value) encoding.
//!
//! When one code dominates a column (flags, status columns, mostly-NULL
//! columns), storing only the exceptions beats bit packing. The dominant
//! code is implicit; exceptions are kept as sorted `(position, code)` pairs
//! for binary-searchable random access.

use crate::kernel::CodeMatcher;
use crate::{Bitmap, Code, Pos};

/// Dominant-value encoded code vector.
#[derive(Debug, Clone)]
pub struct Sparse {
    default_code: Code,
    /// Sorted by position.
    exceptions: Vec<(Pos, Code)>,
    len: usize,
}

impl Sparse {
    /// Encode a code slice given the dominant code.
    pub fn from_codes(codes: &[Code], default_code: Code) -> Self {
        let exceptions: Vec<(Pos, Code)> = codes
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != default_code)
            .map(|(i, &c)| (i as Pos, c))
            .collect();
        Sparse {
            default_code,
            exceptions,
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

    /// The dominant code.
    #[inline]
    pub fn default_code(&self) -> Code {
        self.default_code
    }

    /// Number of stored exceptions.
    #[inline]
    pub fn exception_count(&self) -> usize {
        self.exceptions.len()
    }

    /// The code at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> Code {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        match self
            .exceptions
            .binary_search_by_key(&(i as Pos), |&(p, _)| p)
        {
            Ok(k) => self.exceptions[k].1,
            Err(_) => self.default_code,
        }
    }

    /// Iterate all codes.
    pub fn iter(&self) -> impl Iterator<Item = Code> + '_ {
        let mut k = 0;
        (0..self.len).map(move |i| {
            if k < self.exceptions.len() && self.exceptions[k].0 as usize == i {
                let c = self.exceptions[k].1;
                k += 1;
                c
            } else {
                self.default_code
            }
        })
    }

    /// Decode positions `[start, start + out.len())` into `out`: the
    /// dominant code everywhere, then the window's exceptions on top.
    pub fn decode_range(&self, start: usize, out: &mut [Code]) {
        let end = start + out.len();
        debug_assert!(end <= self.len);
        out.fill(self.default_code);
        let first = self
            .exceptions
            .partition_point(|&(p, _)| (p as usize) < start);
        for &(p, c) in &self.exceptions[first..] {
            if p as usize >= end {
                break;
            }
            out[p as usize - start] = c;
        }
    }

    /// Positions whose code equals `code`.
    pub fn scan_eq(&self, code: Code, out: &mut Vec<Pos>) {
        if code == self.default_code {
            // All positions except exception positions.
            let mut k = 0;
            for i in 0..self.len as Pos {
                if k < self.exceptions.len() && self.exceptions[k].0 == i {
                    k += 1;
                } else {
                    out.push(i);
                }
            }
        } else {
            out.extend(
                self.exceptions
                    .iter()
                    .filter(|&&(_, c)| c == code)
                    .map(|&(p, _)| p),
            );
        }
    }

    /// Positions whose code lies in `range`.
    pub fn scan_range(&self, range: std::ops::Range<Code>, out: &mut Vec<Pos>) {
        if range.contains(&self.default_code) {
            let mut k = 0;
            for i in 0..self.len as Pos {
                if k < self.exceptions.len() && self.exceptions[k].0 == i {
                    if range.contains(&self.exceptions[k].1) {
                        out.push(i);
                    }
                    k += 1;
                } else {
                    out.push(i);
                }
            }
        } else {
            out.extend(
                self.exceptions
                    .iter()
                    .filter(|&&(_, c)| range.contains(&c))
                    .map(|&(p, _)| p),
            );
        }
    }

    /// Compressed-domain filter kernel over positions `[start, end)`: the
    /// dominant code is evaluated **once**; only exceptions in the window
    /// are tested individually. Bit `k` of `out` is position `start + k`.
    pub fn filter_range(&self, start: usize, end: usize, m: &CodeMatcher, out: &mut Bitmap) {
        debug_assert!(end <= self.len);
        let first = self
            .exceptions
            .partition_point(|&(p, _)| (p as usize) < start);
        let window = self.exceptions[first..]
            .iter()
            .take_while(|&&(p, _)| (p as usize) < end);
        if m.matches(self.default_code) {
            // All positions match except non-matching exceptions.
            out.set_range(0, end - start);
            for &(p, c) in window {
                if !m.matches(c) {
                    out.clear(p as usize - start);
                }
            }
        } else {
            for &(p, c) in window {
                if m.matches(c) {
                    out.set(p as usize - start);
                }
            }
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        self.exceptions.capacity() * std::mem::size_of::<(Pos, Code)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<Code>, Sparse) {
        let mut codes = vec![7 as Code; 100];
        codes[3] = 1;
        codes[50] = 2;
        codes[99] = 1;
        let s = Sparse::from_codes(&codes, 7);
        (codes, s)
    }

    #[test]
    fn round_trip() {
        let (codes, s) = sample();
        assert_eq!(s.len(), 100);
        assert_eq!(s.exception_count(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), codes);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(s.get(i), c);
        }
    }

    #[test]
    fn scan_eq_default_and_exception() {
        let (codes, s) = sample();
        let mut out = Vec::new();
        s.scan_eq(1, &mut out);
        assert_eq!(out, vec![3, 99]);
        out.clear();
        s.scan_eq(7, &mut out);
        assert_eq!(out.len(), codes.iter().filter(|&&c| c == 7).count());
        assert!(!out.contains(&3));
    }

    #[test]
    fn scan_range_covering_default() {
        let (_, s) = sample();
        let mut out = Vec::new();
        s.scan_range(2..8, &mut out); // covers default 7 and exception 2
        assert_eq!(out.len(), 98); // all but positions 3 and 99 (code 1)
        assert!(out.contains(&50));
    }

    #[test]
    fn scan_range_excluding_default() {
        let (_, s) = sample();
        let mut out = Vec::new();
        s.scan_range(0..3, &mut out);
        assert_eq!(out, vec![3, 50, 99]);
    }

    #[test]
    fn compresses_dominant_columns() {
        let codes = vec![0 as Code; 100_000];
        let s = Sparse::from_codes(&codes, 0);
        assert_eq!(s.exception_count(), 0);
        assert!(s.heap_size() < 64);
    }

    #[test]
    fn empty() {
        let s = Sparse::from_codes(&[], 0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
