//! Property tests: every encoding is lossless and all scans agree with a
//! naive reference implementation.

use hana_column::{
    BitPackedVec, Bitmap, Cluster, CodeFilter, CodeMatcher, CodeStats, CodeVector,
    GrowableInvertedIndex, InvertedIndex, Rle, Sparse,
};
use proptest::prelude::*;

fn codes_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..40, 0..300)
}

fn reference_eq(codes: &[u32], code: u32) -> Vec<u32> {
    codes
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c == code)
        .map(|(i, _)| i as u32)
        .collect()
}

/// Positions of `v` the bitmap kernel matches under `filter` (no NULLs).
fn kernel_positions(v: &CodeVector, filter: CodeFilter) -> Vec<u32> {
    let mut hits = Bitmap::zeros(v.len());
    v.filter_range(0, v.len(), &CodeMatcher::new(filter, u32::MAX), &mut hits);
    hits.iter_ones().map(|p| p as u32).collect()
}

fn reference_range(codes: &[u32], range: std::ops::Range<u32>) -> Vec<u32> {
    codes
        .iter()
        .enumerate()
        .filter(|&(_, &c)| range.contains(&c))
        .map(|(i, _)| i as u32)
        .collect()
}

proptest! {
    #[test]
    fn bitpack_round_trip(codes in codes_strategy(), bits in 6u8..20) {
        let v = BitPackedVec::from_codes_with_bits(&codes, bits);
        prop_assert_eq!(v.iter().collect::<Vec<_>>(), codes);
    }

    #[test]
    fn all_encodings_lossless_and_scan_consistent(
        codes in codes_strategy(),
        probe in 0u32..40,
        lo in 0u32..40,
        width in 0u32..20,
    ) {
        let stats = CodeStats::compute(&codes);
        let dominant = stats.dominant.map(|(c, _)| c).unwrap_or(0);
        let vectors = vec![
            CodeVector::BitPacked(BitPackedVec::from_codes(&codes)),
            CodeVector::Rle(Rle::from_codes(&codes)),
            CodeVector::Sparse(Sparse::from_codes(&codes, dominant)),
            CodeVector::Cluster(Cluster::from_codes(&codes, 16)),
            CodeVector::choose(&codes, &stats, 16),
        ];
        let range = lo..lo + width;
        for v in &vectors {
            prop_assert_eq!(v.to_codes(), codes.clone(), "{:?}", v.encoding());
            prop_assert_eq!(v.len(), codes.len());
            for (i, &c) in codes.iter().enumerate() {
                prop_assert_eq!(v.get(i), c);
            }
            let eq_hits = kernel_positions(v, CodeFilter::eq(probe));
            prop_assert_eq!(eq_hits, reference_eq(&codes, probe), "eq {:?}", v.encoding());
            let rng_hits = kernel_positions(v, CodeFilter::range(range.clone()));
            prop_assert_eq!(rng_hits, reference_range(&codes, range.clone()), "range {:?}", v.encoding());
        }
    }

    #[test]
    fn inverted_index_agrees_with_scan(codes in codes_strategy()) {
        let idx = InvertedIndex::build(codes.iter().copied(), 40);
        for code in 0..40u32 {
            let want = reference_eq(&codes, code);
            prop_assert_eq!(idx.positions(code), want.as_slice());
        }
    }

    /// The chained L2 index answers like one position list per code, under
    /// any fence, with NULL cells (here: cells of 40 and up) left off every
    /// chain.
    #[test]
    fn chained_index_matches_lists(
        cells in prop::collection::vec(0u32..48, 0..300),
        fences in prop::collection::vec(0u32..320, 1..8),
    ) {
        let mut idx = GrowableInvertedIndex::new();
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); 40];
        for (pos, &code) in cells.iter().enumerate() {
            if code < 40 {
                idx.insert(code, pos as u32);
                lists[code as usize].push(pos as u32);
            }
        }
        for fence in fences {
            for code in 0..41u32 {
                let want: Vec<u32> = lists
                    .get(code as usize)
                    .map(|l| l.iter().copied().filter(|&p| p < fence).collect())
                    .unwrap_or_default();
                prop_assert_eq!(idx.positions(code, fence), want);
            }
        }
    }

    #[test]
    fn bitmap_matches_btreeset(ops in prop::collection::vec((0usize..200, any::<bool>()), 0..100)) {
        let mut bm = Bitmap::new();
        let mut model = std::collections::BTreeSet::new();
        for (pos, set) in ops {
            if set {
                bm.set(pos);
                model.insert(pos);
            } else {
                bm.clear(pos);
                model.remove(&pos);
            }
        }
        prop_assert_eq!(bm.count_ones(), model.len());
        prop_assert_eq!(bm.iter_ones().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        for p in 0..250 {
            prop_assert_eq!(bm.get(p), model.contains(&p));
            prop_assert_eq!(bm.count_ones_in(p / 3, p), model.range(p / 3..p).count());
        }
    }

    #[test]
    fn repack_equals_mapped_codes(codes in prop::collection::vec(0u32..30, 0..200)) {
        let v = BitPackedVec::from_codes(&codes);
        let map: Vec<u32> = (0..30).map(|c| c * 7 + 1).collect();
        let packed = v.repack(&map, 8);
        let want: Vec<u32> = codes.iter().map(|&c| map[c as usize]).collect();
        prop_assert_eq!(packed.iter().collect::<Vec<_>>(), want);
    }
}
