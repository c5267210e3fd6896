//! Cluster encoding: fixed-size blocks, single-valued blocks stored once.
//!
//! One of the "more complex compression techniques" of the paper's main
//! store (after Lemke et al.). The column is cut into fixed blocks; a block
//! whose positions all carry the same code stores that code once, other
//! blocks fall back to bit packing. Works well on data with local clustering
//! (e.g. date columns after an insertion-ordered load).

use crate::bitpack::BitPackedVec;
use crate::kernel::CodeMatcher;
use crate::{bits_for, Bitmap, Code};

#[derive(Debug, Clone)]
enum Block {
    /// Every position in the block has this code.
    Single(Code),
    /// Mixed block, bit-packed.
    Packed(BitPackedVec),
}

/// Cluster-encoded code vector.
#[derive(Debug, Clone)]
pub struct Cluster {
    blocks: Vec<Block>,
    block_size: usize,
    len: usize,
}

impl Cluster {
    /// Encode with the given block size (≥ 2).
    pub fn from_codes(codes: &[Code], block_size: usize) -> Self {
        assert!(block_size >= 2, "block size must be at least 2");
        let max = codes.iter().copied().max().unwrap_or(0);
        let bits = bits_for(max);
        let blocks = codes
            .chunks(block_size)
            .map(|chunk| {
                let first = chunk[0];
                if chunk.iter().all(|&c| c == first) {
                    Block::Single(first)
                } else {
                    Block::Packed(BitPackedVec::from_codes_with_bits(chunk, bits))
                }
            })
            .collect();
        Cluster {
            blocks,
            block_size,
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

    /// Fraction of blocks stored as single values (compression indicator).
    pub fn single_block_ratio(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        let singles = self
            .blocks
            .iter()
            .filter(|b| matches!(b, Block::Single(_)))
            .count();
        singles as f64 / self.blocks.len() as f64
    }

    /// The code at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> Code {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        match &self.blocks[i / self.block_size] {
            Block::Single(c) => *c,
            Block::Packed(v) => v.get(i % self.block_size),
        }
    }

    /// Iterate all codes.
    pub fn iter(&self) -> impl Iterator<Item = Code> + '_ {
        self.blocks.iter().enumerate().flat_map(move |(bi, b)| {
            let start = bi * self.block_size;
            let n = (self.len - start).min(self.block_size);
            (0..n).map(move |k| match b {
                Block::Single(c) => *c,
                Block::Packed(v) => v.get(k),
            })
        })
    }

    /// Decode positions `[start, start + out.len())` into `out`: single
    /// blocks fill, packed blocks unpack block-wise.
    pub fn decode_range(&self, start: usize, out: &mut [Code]) {
        let end = start + out.len();
        debug_assert!(end <= self.len);
        if start >= end {
            return;
        }
        for bi in start / self.block_size..=(end - 1) / self.block_size {
            let block_start = bi * self.block_size;
            let lo = block_start.max(start);
            let hi = (block_start + self.block_size).min(end);
            let dst = &mut out[lo - start..hi - start];
            match &self.blocks[bi] {
                Block::Single(c) => dst.fill(*c),
                Block::Packed(v) => v.unpack_block(lo - block_start, dst),
            }
        }
    }

    /// Compressed-domain filter kernel over positions `[start, end)`:
    /// single-valued blocks are evaluated **once** and set wholesale, packed
    /// blocks run through the word-parallel
    /// [`BitPackedVec::filter_range_at`] kernel at the block's bitmap
    /// offset. Bit `k` of `out` is position `start + k`.
    pub fn filter_range(&self, start: usize, end: usize, m: &CodeMatcher, out: &mut Bitmap) {
        debug_assert!(end <= self.len);
        if start >= end || m.never_matches() {
            return;
        }
        for bi in start / self.block_size..=(end - 1) / self.block_size {
            let block_start = bi * self.block_size;
            let lo = block_start.max(start);
            let hi = (block_start + self.block_size).min(end);
            match &self.blocks[bi] {
                Block::Single(c) => {
                    if m.matches(*c) {
                        out.set_range(lo - start, hi - start);
                    }
                }
                Block::Packed(v) => {
                    v.filter_range_at(lo - block_start, hi - block_start, m, out, lo - start);
                }
            }
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| match b {
                Block::Single(_) => std::mem::size_of::<Block>(),
                Block::Packed(v) => std::mem::size_of::<Block>() + v.heap_size(),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{matching_positions, CodeVector};
    use crate::{CodeFilter, Pos};

    fn clustered_codes() -> Vec<Code> {
        // 4 blocks of 64: three uniform, one mixed.
        let mut c = vec![];
        c.extend(std::iter::repeat_n(5, 64));
        c.extend(std::iter::repeat_n(9, 64));
        c.extend((0..64).map(|i| i % 3));
        c.extend(std::iter::repeat_n(2, 50)); // trailing partial block
        c
    }

    #[test]
    fn round_trip() {
        let codes = clustered_codes();
        let cl = Cluster::from_codes(&codes, 64);
        assert_eq!(cl.len(), codes.len());
        assert_eq!(cl.iter().collect::<Vec<_>>(), codes);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(cl.get(i), c);
        }
    }

    #[test]
    fn detects_single_blocks() {
        let cl = Cluster::from_codes(&clustered_codes(), 64);
        assert_eq!(cl.single_block_ratio(), 3.0 / 4.0);
    }

    #[test]
    fn scan_eq_spans_blocks() {
        let codes = clustered_codes();
        let cl = CodeVector::Cluster(Cluster::from_codes(&codes, 64));
        let out = matching_positions(&cl, CodeFilter::eq(2));
        let want: Vec<Pos> = codes
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == 2)
            .map(|(i, _)| i as Pos)
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn scan_range_spans_blocks() {
        let codes = clustered_codes();
        let cl = CodeVector::Cluster(Cluster::from_codes(&codes, 64));
        let out = matching_positions(&cl, CodeFilter::range(2..6));
        let want: Vec<Pos> = codes
            .iter()
            .enumerate()
            .filter(|&(_, &c)| (2..6).contains(&c))
            .map(|(i, _)| i as Pos)
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn uniform_column_compresses_to_headers() {
        let codes = vec![3 as Code; 100_000];
        let cl = Cluster::from_codes(&codes, 1024);
        assert_eq!(cl.single_block_ratio(), 1.0);
        assert!(cl.heap_size() < 100_000 / 8);
    }

    #[test]
    fn empty() {
        let cl = Cluster::from_codes(&[], 16);
        assert!(cl.is_empty());
        assert_eq!(cl.iter().count(), 0);
    }
}
