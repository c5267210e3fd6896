//! Frame-of-reference packing of 64-bit integers.
//!
//! A main part's record ids are allocated from one table-wide counter, so
//! they span a narrow range even though each is a `u64`. [`FrameVec`] stores
//! every value as its offset from the smallest one, in the fewest bits that
//! hold the largest offset: a million rows whose ids span 2²⁰ cost 20 bits
//! per row instead of 64. One code path serves every width from 0 to 64, so
//! a part whose ids span more than 2³² still packs.

/// An immutable vector of `u64`s packed against their minimum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameVec {
    /// The smallest value (0 when empty).
    base: u64,
    /// Bits per packed offset (0 when every value equals `base`).
    width: u32,
    len: usize,
    /// Offsets `value - base`, `width` bits each, little-endian within and
    /// across words; a value may straddle two words.
    words: Vec<u64>,
}

impl FrameVec {
    /// Pack `values` (any order, any span): one pass for the frame, one to
    /// pack.
    pub fn from_values(values: impl Iterator<Item = u64> + Clone) -> Self {
        let (len, min, max) = values.clone().fold((0, u64::MAX, 0), |(n, lo, hi), v| {
            (n + 1, lo.min(v), hi.max(v))
        });
        if len == 0 {
            return FrameVec::default();
        }
        let width = u64::BITS - (max - min).leading_zeros();
        let w = width as usize;
        let mut words = vec![0u64; (len * w).div_ceil(64)];
        if w > 0 {
            for (i, v) in values.enumerate() {
                let offset = v - min;
                let (word, shift) = ((i * w) / 64, (i * w) % 64);
                words[word] |= offset << shift;
                if shift + w > 64 {
                    words[word + 1] |= offset >> (64 - shift);
                }
            }
        }
        FrameVec {
            base: min,
            width,
            len,
            words,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no value is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per value.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The value at `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds for {}", self.len);
        let w = self.width as usize;
        if w == 0 {
            return self.base;
        }
        let (word, shift) = ((i * w) / 64, (i * w) % 64);
        let mut offset = self.words[word] >> shift;
        if shift + w > 64 {
            offset |= self.words[word + 1] << (64 - shift);
        }
        let mask = u64::MAX >> (64 - w);
        self.base + (offset & mask)
    }

    /// Every value in position order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Heap footprint in bytes (the packed words, by capacity).
    pub fn heap_size(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[u64]) -> FrameVec {
        let v = FrameVec::from_values(values.iter().copied());
        assert_eq!(v.len(), values.len());
        assert_eq!(v.iter().collect::<Vec<_>>(), values);
        v
    }

    #[test]
    fn empty_and_single() {
        let v = round_trip(&[]);
        assert!(v.is_empty());
        assert_eq!(v.heap_size(), 0);
        let v = round_trip(&[u64::MAX]);
        assert_eq!((v.width(), v.heap_size()), (0, 0));
    }

    #[test]
    fn width_is_the_span_not_the_magnitude() {
        let ids: Vec<u64> = (0..1000).map(|i| (1 << 40) + i * 3).collect();
        let v = round_trip(&ids);
        assert_eq!(v.width(), 12); // span 2997 < 2^12
        assert_eq!(v.heap_size(), (1000 * 12usize).div_ceil(64) * 8);
    }

    #[test]
    fn spans_beyond_32_bits_and_full_width() {
        round_trip(&[7, 7 + (1 << 33), 7 + (1 << 32) + 5, 7]);
        let v = round_trip(&[u64::MAX, 0, 1, u64::MAX - 1, 1 << 63]);
        assert_eq!(v.width(), 64);
        // Straddling words at an odd width.
        let odd: Vec<u64> = (0..200).map(|i| (i * 0x1_2345_6789) % (1 << 37)).collect();
        assert_eq!(round_trip(&odd).width(), 37);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_the_end_panics() {
        FrameVec::from_values([5, 5].into_iter()).get(2);
    }
}
