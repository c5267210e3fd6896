//! The unified code-vector abstraction and the compression chooser.
//!
//! [`CodeVector`] is what a main-store column actually holds: one of the
//! concrete encodings behind a uniform positional API. [`CodeVector::choose`]
//! picks the encoding with the smallest estimated footprint from the
//! column's [`CodeStats`] — the entropy/statistics-driven selection the paper
//! attributes to [9] and [10].

use crate::bitpack::BitPackedVec;
use crate::cluster::Cluster;
use crate::kernel::CodeMatcher;
use crate::rle::Rle;
use crate::sparse::Sparse;
use crate::stats::CodeStats;
use crate::{bits_for, Bitmap, Code, Pos};

/// Which encoding a [`CodeVector`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Plain bit packing at ⌈ld C⌉ bits.
    BitPacked,
    /// Run-length encoding.
    Rle,
    /// Dominant value + exception list.
    Sparse,
    /// Fixed blocks with single-valued block elision.
    Cluster,
}

/// A compressed, immutable vector of dictionary codes.
#[derive(Debug, Clone)]
pub enum CodeVector {
    /// Plain bit-packed codes.
    BitPacked(BitPackedVec),
    /// Run-length encoded codes.
    Rle(Rle),
    /// Sparse-encoded codes.
    Sparse(Sparse),
    /// Cluster-encoded codes.
    Cluster(Cluster),
}

impl CodeVector {
    /// Encode `codes` with the cheapest encoding according to `stats`.
    ///
    /// `block_size` is used for cluster encoding. The estimates mirror each
    /// encoding's `heap_size` formula, so the chooser optimizes the real
    /// footprint, not a proxy.
    pub fn choose(codes: &[Code], stats: &CodeStats, block_size: usize) -> Self {
        if codes.is_empty() {
            return CodeVector::BitPacked(BitPackedVec::from_codes(codes));
        }
        let bits = bits_for(stats.max_code) as usize;
        let packed_bytes = (codes.len() * bits).div_ceil(64) * 8;
        let rle_bytes = stats.runs * std::mem::size_of::<(Code, u32)>();
        let exceptions = codes.len() - stats.dominant.map_or(0, |(_, n)| n);
        let sparse_bytes = exceptions * std::mem::size_of::<(Pos, Code)>();
        // Cluster estimate: count single blocks exactly (cheap single pass).
        let mut single_blocks = 0usize;
        let mut total_blocks = 0usize;
        for chunk in codes.chunks(block_size) {
            total_blocks += 1;
            if chunk.iter().all(|&c| c == chunk[0]) {
                single_blocks += 1;
            }
        }
        let mixed = total_blocks - single_blocks;
        let cluster_bytes =
            total_blocks * 24 + (mixed * block_size.min(codes.len()) * bits).div_ceil(8);

        let best = [
            (Encoding::BitPacked, packed_bytes),
            (Encoding::Rle, rle_bytes),
            (Encoding::Sparse, sparse_bytes),
            (Encoding::Cluster, cluster_bytes),
        ]
        .into_iter()
        .min_by_key(|&(_, b)| b)
        .unwrap()
        .0;

        match best {
            Encoding::BitPacked => CodeVector::BitPacked(BitPackedVec::from_codes(codes)),
            Encoding::Rle => CodeVector::Rle(Rle::from_codes(codes)),
            Encoding::Sparse => {
                CodeVector::Sparse(Sparse::from_codes(codes, stats.dominant.unwrap().0))
            }
            Encoding::Cluster => CodeVector::Cluster(Cluster::from_codes(codes, block_size)),
        }
    }

    /// Encode with plain bit packing (the default layout).
    pub fn bit_packed(codes: &[Code]) -> Self {
        CodeVector::BitPacked(BitPackedVec::from_codes(codes))
    }

    /// The encoding in use.
    pub fn encoding(&self) -> Encoding {
        match self {
            CodeVector::BitPacked(_) => Encoding::BitPacked,
            CodeVector::Rle(_) => Encoding::Rle,
            CodeVector::Sparse(_) => Encoding::Sparse,
            CodeVector::Cluster(_) => Encoding::Cluster,
        }
    }

    /// Number of codes.
    pub fn len(&self) -> usize {
        match self {
            CodeVector::BitPacked(v) => v.len(),
            CodeVector::Rle(v) => v.len(),
            CodeVector::Sparse(v) => v.len(),
            CodeVector::Cluster(v) => v.len(),
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The code at position `i`.
    pub fn get(&self, i: usize) -> Code {
        match self {
            CodeVector::BitPacked(v) => v.get(i),
            CodeVector::Rle(v) => v.get(i),
            CodeVector::Sparse(v) => v.get(i),
            CodeVector::Cluster(v) => v.get(i),
        }
    }

    /// Iterate all codes in position order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = Code> + '_> {
        match self {
            CodeVector::BitPacked(v) => Box::new(v.iter()),
            CodeVector::Rle(v) => Box::new(v.iter()),
            CodeVector::Sparse(v) => Box::new(v.iter()),
            CodeVector::Cluster(v) => Box::new(v.iter()),
        }
    }

    /// Decode all codes into a plain vector.
    pub fn to_codes(&self) -> Vec<Code> {
        self.iter().collect()
    }

    /// Block decode: positions `[start, start + out.len())` into `out`,
    /// at each encoding's bulk rate (word-streaming unpack, one fill per
    /// run / single-valued block, dominant fill plus exceptions) instead of
    /// one random [`get`](Self::get) per row.
    ///
    /// # Panics
    /// Panics if the window exceeds the vector.
    pub fn decode_range(&self, start: usize, out: &mut [Code]) {
        assert!(start + out.len() <= self.len(), "window out of bounds");
        match self {
            CodeVector::BitPacked(v) => v.unpack_block(start, out),
            CodeVector::Rle(v) => v.decode_range(start, out),
            CodeVector::Sparse(v) => v.decode_range(start, out),
            CodeVector::Cluster(v) => v.decode_range(start, out),
        }
    }

    /// Compressed-domain filter kernel: set bit `k` of `out` when the code
    /// at position `start + k` satisfies `m`, evaluating directly on the
    /// encoding (once per RLE run / sparse dominant / single-valued cluster
    /// block) without decoding to values.
    pub fn filter_range(&self, start: usize, end: usize, m: &CodeMatcher, out: &mut Bitmap) {
        match self {
            CodeVector::BitPacked(v) => v.filter_range(start, end, m, out),
            CodeVector::Rle(v) => v.filter_range(start, end, m, out),
            CodeVector::Sparse(v) => v.filter_range(start, end, m, out),
            CodeVector::Cluster(v) => v.filter_range(start, end, m, out),
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        match self {
            CodeVector::BitPacked(v) => v.heap_size(),
            CodeVector::Rle(v) => v.heap_size(),
            CodeVector::Sparse(v) => v.heap_size(),
            CodeVector::Cluster(v) => v.heap_size(),
        }
    }
}

/// Positions of `v` whose code `filter` matches, through the bitmap kernel
/// with no reachable NULL: the position list the encoding tests compare
/// against a reference.
#[cfg(test)]
pub(crate) fn matching_positions(v: &CodeVector, filter: crate::CodeFilter) -> Vec<Pos> {
    let mut hits = Bitmap::zeros(v.len());
    v.filter_range(0, v.len(), &CodeMatcher::new(filter, Code::MAX), &mut hits);
    hits.iter_ones().map(|p| p as Pos).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn choose(codes: &[Code]) -> CodeVector {
        CodeVector::choose(codes, &CodeStats::compute(codes), 256)
    }

    #[test]
    fn chooser_picks_rle_for_sorted() {
        let codes: Vec<Code> = (0..10).flat_map(|c| std::iter::repeat_n(c, 1000)).collect();
        let v = choose(&codes);
        assert_eq!(v.encoding(), Encoding::Rle);
        assert_eq!(v.to_codes(), codes);
    }

    #[test]
    fn chooser_picks_sparse_for_dominant() {
        let mut codes = vec![0 as Code; 10_000];
        for i in (0..10_000).step_by(997) {
            codes[i] = 5;
        }
        let v = choose(&codes);
        assert_eq!(v.encoding(), Encoding::Sparse);
        assert_eq!(v.to_codes(), codes);
    }

    #[test]
    fn chooser_picks_bitpacked_for_high_entropy() {
        let codes: Vec<Code> = (0..10_000).map(|i| (i * 7919) % 1024).collect();
        let v = choose(&codes);
        assert_eq!(v.encoding(), Encoding::BitPacked);
        assert_eq!(v.to_codes(), codes);
    }

    #[test]
    fn chooser_picks_cluster_for_blocky_data() {
        // Long uniform stretches of *distinct* values with occasional mixed
        // blocks: RLE also does well, so force block structure where cluster
        // wins: many distinct values but perfectly block-aligned uniform.
        let mut codes = Vec::new();
        for b in 0..100u32 {
            // Mostly uniform blocks of 256, every 10th block is noisy.
            if b % 10 == 0 {
                codes.extend((0..256).map(|i| (b * 31 + i) % 5000));
            } else {
                codes.extend(std::iter::repeat_n(b, 256));
            }
        }
        let stats = CodeStats::compute(&codes);
        let v = CodeVector::choose(&codes, &stats, 256);
        // RLE and Cluster are both viable; verify at least lossless + small.
        assert_eq!(v.to_codes(), codes);
        let packed = CodeVector::bit_packed(&codes).heap_size();
        assert!(v.heap_size() < packed);
    }

    #[test]
    fn scans_agree_across_encodings() {
        let codes: Vec<Code> = (0..5000).map(|i| i % 17).collect();
        let stats = CodeStats::compute(&codes);
        let encodings = [
            CodeVector::BitPacked(BitPackedVec::from_codes(&codes)),
            CodeVector::Rle(Rle::from_codes(&codes)),
            CodeVector::Sparse(Sparse::from_codes(&codes, stats.dominant.unwrap().0)),
            CodeVector::Cluster(Cluster::from_codes(&codes, 256)),
        ];
        let eq = crate::CodeFilter::eq(5);
        let range = crate::CodeFilter::range(3..9);
        let expect_eq = matching_positions(&encodings[0], eq.clone());
        let expect_rng = matching_positions(&encodings[0], range.clone());
        assert_eq!(expect_eq.len(), codes.iter().filter(|&&c| c == 5).count());
        for e in &encodings[1..] {
            let got = matching_positions(e, eq.clone());
            assert_eq!(got, expect_eq, "{:?}", e.encoding());
            let got = matching_positions(e, range.clone());
            assert_eq!(got, expect_rng, "{:?}", e.encoding());
        }
    }

    #[test]
    fn filter_kernels_agree_across_encodings() {
        use crate::kernel::{CodeFilter, CodeMatcher};
        let codes: Vec<Code> = (0..5000).map(|i| i % 17).collect();
        let stats = CodeStats::compute(&codes);
        let encodings = [
            CodeVector::BitPacked(BitPackedVec::from_codes(&codes)),
            CodeVector::Rle(Rle::from_codes(&codes)),
            CodeVector::Sparse(Sparse::from_codes(&codes, stats.dominant.unwrap().0)),
            CodeVector::Cluster(Cluster::from_codes(&codes, 256)),
        ];
        let matchers = [
            CodeMatcher::new(CodeFilter::eq(5), 16), // null code inside data
            CodeMatcher::new(CodeFilter::range(3..9), 16),
            CodeMatcher::new(CodeFilter::set(vec![1, 4, 15]), 16),
            CodeMatcher::is_null(16),
            CodeMatcher::new(CodeFilter::Empty, 16),
        ];
        for m in &matchers {
            for (start, end) in [(0usize, 5000usize), (100, 4997), (4999, 5000), (37, 37)] {
                let mut want = Bitmap::zeros(end - start);
                for (i, &c) in codes[start..end].iter().enumerate() {
                    if m.matches(c) {
                        want.set(i);
                    }
                }
                for e in &encodings {
                    let mut got = Bitmap::zeros(end - start);
                    e.filter_range(start, end, m, &mut got);
                    assert_eq!(got.count_ones(), want.count_ones(), "{:?}", e.encoding());
                    for i in 0..end - start {
                        assert_eq!(
                            got.get(i),
                            want.get(i),
                            "{:?} bit {i} window [{start},{end})",
                            e.encoding()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn decode_range_agrees_across_encodings() {
        let mut codes: Vec<Code> = (0..5000).map(|i| (i / 300) % 17).collect();
        for i in (0..5000).step_by(611) {
            codes[i] = 16;
        }
        let stats = CodeStats::compute(&codes);
        let encodings = [
            CodeVector::BitPacked(BitPackedVec::from_codes(&codes)),
            CodeVector::Rle(Rle::from_codes(&codes)),
            CodeVector::Sparse(Sparse::from_codes(&codes, stats.dominant.unwrap().0)),
            CodeVector::Cluster(Cluster::from_codes(&codes, 256)),
        ];
        for (start, end) in [
            (0usize, 5000usize),
            (100, 4997),
            (255, 257),
            (4999, 5000),
            (37, 37),
        ] {
            for e in &encodings {
                let mut got = vec![0 as Code; end - start];
                e.decode_range(start, &mut got);
                assert_eq!(
                    got,
                    &codes[start..end],
                    "{:?} [{start},{end})",
                    e.encoding()
                );
            }
        }
    }

    #[test]
    fn empty_chooses_bitpacked() {
        let v = choose(&[]);
        assert_eq!(v.encoding(), Encoding::BitPacked);
        assert!(v.is_empty());
    }
}
