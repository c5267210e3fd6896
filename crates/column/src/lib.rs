//! Compressed column vectors, inverted indexes and scan kernels.
//!
//! The main store represents every column as dictionary codes "stored in a
//! bit-packed manner" with "a combination of different compression
//! techniques – ranging from simple run-length coding schemes to more complex
//! compression techniques" on top (paper §3). This crate provides:
//!
//! * [`BitPackedVec`] — ⌈ld C⌉-bit packed code vector, the default layout;
//! * [`Rle`] — run-length encoding for sorted/low-cardinality columns;
//! * [`Sparse`] — dominant-value encoding with an exception list;
//! * [`Cluster`] — fixed-size blocks, single-valued blocks stored once;
//! * [`CodeVector`] — the enum over all encodings with a uniform access and
//!   scan API plus a statistics-driven chooser (after Lemke et al. [9],
//!   Paradies et al. [10]);
//! * [`InvertedIndex`] / [`GrowableInvertedIndex`] — code → positions lists
//!   backing the paper's "inverted indexes for the delta and main structures"
//!   used for unique-constraint checks and point queries;
//! * [`Bitmap`] — deletion/null bitmaps;
//! * [`FrameVec`] — frame-of-reference packed `u64`s (a main part's record
//!   ids).

pub mod bitmap;
pub mod bitpack;
pub mod cluster;
pub mod encoding;
pub mod frame;
pub mod invidx;
pub mod kernel;
pub mod rle;
pub mod sparse;
pub mod stats;
pub mod zonemap;

pub use bitmap::Bitmap;
pub use bitpack::BitPackedVec;
pub use cluster::Cluster;
pub use encoding::{CodeVector, Encoding};
pub use frame::FrameVec;
pub use invidx::{GrowableInvertedIndex, InvertedIndex};
pub use kernel::{BlockPlan, CodeFilter, CodeMatcher};
pub use rle::Rle;
pub use sparse::Sparse;
pub use stats::CodeStats;
pub use zonemap::{ZoneEntry, ZoneMap, ZONE_CHUNK_ROWS};

/// Dictionary code type (mirrors `hana_dict::Code`).
pub type Code = u32;

/// Row position within a store.
pub type Pos = u32;

/// Number of bits needed to represent codes `0..=max`.
#[inline]
pub fn bits_for(max: Code) -> u8 {
    (Code::BITS - max.leading_zeros()).max(1) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_matches_ceil_log2() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u32::MAX), 32);
    }
}
