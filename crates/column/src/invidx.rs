//! Inverted indexes: dictionary code → row positions.
//!
//! *"In order to implement efficient validations of uniqueness constraints,
//! the unified table provides inverted indexes for the delta and main
//! structures"* (§3.1). The main store's index is an immutable CSR layout
//! ([`InvertedIndex`]); the L2-delta needs append support and chains each
//! code's positions through one per-position link ([`GrowableInvertedIndex`]).

use crate::{Code, Pos};

/// Immutable CSR inverted index for a frozen (main) column.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    /// `offsets[c]..offsets[c+1]` indexes into `positions` for code `c`.
    offsets: Vec<u32>,
    positions: Vec<Pos>,
}

impl InvertedIndex {
    /// Build from a code iterator over positions `0..len` with codes in
    /// `0..num_codes`.
    pub fn build(codes: impl Iterator<Item = Code> + Clone, num_codes: usize) -> Self {
        let mut counts = vec![0u32; num_codes + 1];
        let mut len = 0usize;
        for c in codes.clone() {
            counts[c as usize + 1] += 1;
            len += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut positions = vec![0 as Pos; len];
        for (p, c) in codes.enumerate() {
            let slot = cursor[c as usize];
            positions[slot as usize] = p as Pos;
            cursor[c as usize] += 1;
        }
        InvertedIndex { offsets, positions }
    }

    /// Positions carrying `code`, in ascending order.
    pub fn positions(&self, code: Code) -> &[Pos] {
        let c = code as usize;
        if c + 1 >= self.offsets.len() {
            return &[];
        }
        &self.positions[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Number of distinct codes covered.
    pub fn num_codes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of indexed positions.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        (self.offsets.capacity() + self.positions.capacity()) * 4
    }
}

/// End of a position chain.
const NONE: Pos = Pos::MAX;

/// Growable inverted index for the append-only L2-delta: one chain per
/// code through the positions carrying it, newest first. `head[code]` is
/// the newest such position and `prev[pos]` the one before it, so an append
/// is two stores and no code owns a heap block of its own.
#[derive(Debug, Clone, Default)]
pub struct GrowableInvertedIndex {
    head: Vec<Pos>,
    /// One entry per position up to the newest indexed one; positions left
    /// out (NULL cells) hold [`NONE`] and are on no chain.
    prev: Vec<Pos>,
}

impl GrowableInvertedIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve room for `positions` more positions and codes up to
    /// `codes` — a bulk append knows both before it starts.
    pub fn reserve(&mut self, codes: usize, positions: usize) {
        self.head.reserve(codes.saturating_sub(self.head.len()));
        self.prev.reserve(positions);
    }

    /// Record that position `pos` carries `code`. Positions must arrive in
    /// ascending order (they do: the L2-delta is append-only).
    pub fn insert(&mut self, code: Code, pos: Pos) {
        let (c, p) = (code as usize, pos as usize);
        debug_assert!(p >= self.prev.len(), "positions arrive in ascending order");
        if c >= self.head.len() {
            self.head.resize(c + 1, NONE);
        }
        self.prev.resize(p, NONE);
        self.prev.push(self.head[c]);
        self.head[c] = pos;
    }

    /// Positions below `fence` carrying `code`, ascending.
    pub fn positions(&self, code: Code, fence: Pos) -> Vec<Pos> {
        let mut out = Vec::new();
        let mut p = self.head.get(code as usize).copied().unwrap_or(NONE);
        while p != NONE {
            if p < fence {
                out.push(p);
            }
            p = self.prev[p as usize];
        }
        out.reverse();
        out
    }

    /// Heap footprint in bytes (by capacity).
    pub fn heap_size(&self) -> usize {
        (self.head.capacity() + self.prev.capacity()) * std::mem::size_of::<Pos>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_build_and_lookup() {
        let codes = [2u32, 0, 2, 1, 2, 0];
        let idx = InvertedIndex::build(codes.iter().copied(), 3);
        assert_eq!(idx.positions(0), &[1, 5]);
        assert_eq!(idx.positions(1), &[3]);
        assert_eq!(idx.positions(2), &[0, 2, 4]);
        assert_eq!(idx.positions(7), &[] as &[Pos]);
        assert_eq!(idx.len(), 6);
        assert_eq!(idx.num_codes(), 3);
    }

    #[test]
    fn csr_empty() {
        let idx = InvertedIndex::build(std::iter::empty(), 0);
        assert!(idx.is_empty());
        assert_eq!(idx.positions(0), &[] as &[Pos]);
    }

    #[test]
    fn csr_code_with_no_positions() {
        let codes = [0u32, 2];
        let idx = InvertedIndex::build(codes.iter().copied(), 3);
        assert_eq!(idx.positions(1), &[] as &[Pos]);
    }

    #[test]
    fn growable_appends() {
        let mut idx = GrowableInvertedIndex::new();
        idx.insert(5, 0);
        idx.insert(1, 1);
        idx.insert(5, 3); // position 2 is a NULL cell: on no chain
        assert_eq!(idx.positions(5, 4), vec![0, 3]);
        assert_eq!(idx.positions(1, 4), vec![1]);
        assert_eq!(idx.positions(99, 4), Vec::<Pos>::new());
        // The fence cuts off later positions.
        assert_eq!(idx.positions(5, 3), vec![0]);
    }

    #[test]
    fn growable_matches_csr() {
        let codes: Vec<Code> = (0..500).map(|i| (i * 31) % 13).collect();
        let csr = InvertedIndex::build(codes.iter().copied(), 13);
        let mut grow = GrowableInvertedIndex::new();
        grow.reserve(13, codes.len());
        for (p, &c) in codes.iter().enumerate() {
            grow.insert(c, p as Pos);
        }
        for c in 0..13 {
            assert_eq!(csr.positions(c), grow.positions(c, 500), "code {c}");
        }
        // Two u32 stores per position, one head per code, no list headers.
        assert_eq!(grow.heap_size(), (13 + 500) * 4);
    }
}
