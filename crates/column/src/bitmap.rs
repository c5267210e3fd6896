//! Growable bitmaps for deletion vectors and NULL masks.

/// A simple growable bitset over row positions.
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
            ones: 0,
        }
    }

    /// Logical length in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bits exist.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        let w = self.len / 64;
        if w >= self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[w] |= 1 << (self.len % 64);
            self.ones += 1;
        }
        self.len += 1;
    }

    /// Grow to at least `len` bits (new bits are zero).
    pub fn grow(&mut self, len: usize) {
        if len > self.len {
            self.len = len;
            let need = len.div_ceil(64);
            if need > self.words.len() {
                self.words.resize(need, 0);
            }
        }
    }

    /// Read bit `i`; positions beyond the end read as 0.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Set bit `i`, growing as needed.
    pub fn set(&mut self, i: usize) {
        self.grow(i + 1);
        let mask = 1u64 << (i % 64);
        if self.words[i / 64] & mask == 0 {
            self.words[i / 64] |= mask;
            self.ones += 1;
        }
    }

    /// Clear bit `i` (no-op past the end).
    pub fn clear(&mut self, i: usize) {
        if i >= self.len {
            return;
        }
        let mask = 1u64 << (i % 64);
        if self.words[i / 64] & mask != 0 {
            self.words[i / 64] &= !mask;
            self.ones -= 1;
        }
    }

    /// Number of set bits in `[lo, hi)`, word-at-a-time; bits past the end
    /// read as 0.
    pub fn count_ones_in(&self, lo: usize, hi: usize) -> usize {
        let hi = hi.min(self.len);
        if lo >= hi {
            return 0;
        }
        let (lw, hw) = (lo / 64, (hi - 1) / 64);
        (lw..=hw)
            .map(|w| {
                let mut word = self.words[w];
                if w == lw {
                    word &= u64::MAX << (lo % 64);
                }
                if w == hw {
                    word &= u64::MAX >> (63 - (hi - 1) % 64);
                }
                word.count_ones() as usize
            })
            .sum()
    }

    /// Set every bit in `[lo, hi)`, growing as needed. Word-at-a-time, so
    /// run-granular kernels (RLE, cluster, sparse) pay O(bits/64).
    pub fn set_range(&mut self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        self.grow(hi);
        let (lw, hw) = (lo / 64, (hi - 1) / 64);
        for w in lw..=hw {
            let mut mask = u64::MAX;
            if w == lw {
                mask &= u64::MAX << (lo % 64);
            }
            if w == hw {
                let top = (hi - 1) % 64;
                mask &= u64::MAX >> (63 - top);
            }
            self.ones += (mask & !self.words[w]).count_ones() as usize;
            self.words[w] |= mask;
        }
    }

    /// OR the low `nbits` (1..=64) of `word` into bits `[start, start+nbits)`,
    /// growing as needed. This is the word-at-a-time emission path of the
    /// scan kernels: one call per 64 decoded rows instead of 64 `set`s.
    pub fn or_word(&mut self, start: usize, word: u64, nbits: usize) {
        debug_assert!((1..=64).contains(&nbits));
        let word = if nbits == 64 {
            word
        } else {
            word & ((1u64 << nbits) - 1)
        };
        if word == 0 {
            return;
        }
        self.grow(start + nbits);
        let w = start / 64;
        let off = start % 64;
        let lo = word << off;
        self.ones += (lo & !self.words[w]).count_ones() as usize;
        self.words[w] |= lo;
        if off > 0 && off + nbits > 64 {
            let hi = word >> (64 - off);
            self.ones += (hi & !self.words[w + 1]).count_ones() as usize;
            self.words[w + 1] |= hi;
        }
    }

    /// In-place word-wise AND with `other`: bit `i` of `self` survives only
    /// if bit `i` of `other` is set. Bits past `other`'s length read as 0.
    pub fn and_with(&mut self, other: &Bitmap) {
        self.and_offset(other, 0);
    }

    /// In-place word-wise AND against a *window* of `other`: bit `i` of
    /// `self` survives only if bit `offset + i` of `other` is set. This is
    /// the visibility-AND step of a chunked scan — the hit bitmap is
    /// window-relative while the snapshot bitmap covers the whole part.
    /// 64 rows are resolved per iteration; an aligned offset is pure `&`.
    pub fn and_offset(&mut self, other: &Bitmap, offset: usize) {
        let shift = offset % 64;
        let base = offset / 64;
        let ow = &other.words;
        let fetch = |j: usize| ow.get(j).copied().unwrap_or(0);
        for (i, w) in self.words.iter_mut().enumerate() {
            if *w == 0 {
                continue;
            }
            let vis = if shift == 0 {
                fetch(base + i)
            } else {
                (fetch(base + i) >> shift) | (fetch(base + i + 1) << (64 - shift))
            };
            *w &= vis;
        }
        self.recount();
    }

    /// In-place word-wise OR with `other` (grows to `other`'s length).
    pub fn or_with(&mut self, other: &Bitmap) {
        self.grow(other.len);
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        self.recount();
    }

    /// Recompute the cached ones count (word-wise popcount).
    fn recount(&mut self) {
        self.ones = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Clear every set bit whose position fails `keep`, word-at-a-time (no
    /// allocation; only set bits are visited).
    pub fn retain_ones(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut removed = 0usize;
        for (wi, word) in self.words.iter_mut().enumerate() {
            let mut rest = *word;
            let mut kept = *word;
            while rest != 0 {
                let b = rest.trailing_zeros() as usize;
                let pos = wi * 64 + b;
                if pos < self.len && !keep(pos) {
                    kept &= !(1u64 << b);
                    removed += 1;
                }
                rest &= rest - 1;
            }
            *word = kept;
        }
        self.ones -= removed;
    }

    /// Iterate positions of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        let len = self.len;
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi * 64;
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let p = base + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(p)
            })
            .filter(move |&p| p < len)
        })
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        self.words.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(b.count_ones(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn set_clear_idempotent() {
        let mut b = Bitmap::zeros(10);
        b.set(7);
        b.set(7);
        assert_eq!(b.count_ones(), 1);
        b.clear(7);
        b.clear(7);
        assert_eq!(b.count_ones(), 0);
        assert!(!b.get(7));
    }

    #[test]
    fn set_grows() {
        let mut b = Bitmap::new();
        b.set(100);
        assert_eq!(b.len(), 101);
        assert!(b.get(100));
        assert!(!b.get(99));
        assert!(!b.get(500)); // out of range reads as 0
    }

    #[test]
    fn iter_ones_in_order() {
        let mut b = Bitmap::new();
        for p in [3usize, 64, 65, 128, 200] {
            b.set(p);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, vec![3, 64, 65, 128, 200]);
    }

    #[test]
    fn iter_ones_empty() {
        assert_eq!(Bitmap::zeros(100).iter_ones().count(), 0);
    }

    #[test]
    fn set_range_matches_bitwise_set() {
        for (lo, hi) in [(0, 0), (0, 1), (3, 67), (64, 128), (5, 200), (63, 65)] {
            let mut a = Bitmap::zeros(256);
            a.set(10); // pre-set bit inside some ranges: ones must not double-count
            a.set_range(lo, hi);
            let mut b = Bitmap::zeros(256);
            b.set(10);
            for i in lo..hi {
                b.set(i);
            }
            assert_eq!(a.count_ones(), b.count_ones(), "[{lo},{hi})");
            for i in 0..256 {
                assert_eq!(a.get(i), b.get(i), "bit {i} of [{lo},{hi})");
            }
        }
    }

    #[test]
    fn or_word_matches_bitwise_sets() {
        for start in [0usize, 5, 60, 64, 127] {
            for nbits in [1usize, 7, 33, 64] {
                let word = 0xA5A5_5A5A_F00F_1234u64;
                let mut a = Bitmap::zeros(256);
                a.set(start); // overlap: ones must not double-count
                a.or_word(start, word, nbits);
                let mut b = Bitmap::zeros(256);
                b.set(start);
                for k in 0..nbits {
                    if word >> k & 1 == 1 {
                        b.set(start + k);
                    }
                }
                assert_eq!(a.count_ones(), b.count_ones(), "start={start} n={nbits}");
                for i in 0..256 {
                    assert_eq!(a.get(i), b.get(i), "bit {i} start={start} n={nbits}");
                }
            }
        }
    }

    #[test]
    fn and_offset_matches_per_bit() {
        let mut vis = Bitmap::zeros(300);
        for i in 0..300 {
            if i % 3 != 0 {
                vis.set(i);
            }
        }
        for offset in [0usize, 1, 63, 64, 100] {
            let mut hits = Bitmap::zeros(130);
            for i in (0..130).step_by(2) {
                hits.set(i);
            }
            let mut want = hits.clone();
            for i in 0..130 {
                if !vis.get(offset + i) {
                    want.clear(i);
                }
            }
            hits.and_offset(&vis, offset);
            assert_eq!(hits.count_ones(), want.count_ones(), "offset={offset}");
            for i in 0..130 {
                assert_eq!(hits.get(i), want.get(i), "bit {i} offset={offset}");
            }
        }
    }

    #[test]
    fn and_or_with_words() {
        let mut a = Bitmap::zeros(130);
        let mut b = Bitmap::zeros(130);
        for i in 0..130 {
            if i % 2 == 0 {
                a.set(i);
            }
            if i % 3 == 0 {
                b.set(i);
            }
        }
        let mut anded = a.clone();
        anded.and_with(&b);
        for i in 0..130 {
            assert_eq!(anded.get(i), i % 6 == 0, "and bit {i}");
        }
        assert_eq!(anded.count_ones(), (0..130).filter(|i| i % 6 == 0).count());
        let mut ored = a.clone();
        ored.or_with(&b);
        for i in 0..130 {
            assert_eq!(ored.get(i), i % 2 == 0 || i % 3 == 0, "or bit {i}");
        }
    }

    #[test]
    fn retain_ones_filters_in_place() {
        let mut b = Bitmap::zeros(200);
        for i in (0..200).step_by(3) {
            b.set(i);
        }
        b.retain_ones(|p| p % 2 == 0);
        for i in 0..200 {
            assert_eq!(b.get(i), i % 6 == 0, "bit {i}");
        }
        assert_eq!(b.count_ones(), (0..200).filter(|i| i % 6 == 0).count());
    }

    #[test]
    fn set_range_grows() {
        let mut b = Bitmap::new();
        b.set_range(100, 130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), 30);
        assert!(b.get(100) && b.get(129) && !b.get(99));
    }
}
