//! Bit-packed code vectors and their word-parallel scan kernels.
//!
//! The main store keeps each column's dictionary positions "in a bit-packed
//! manner to have a tight packing of the individual values": with `C`
//! distinct values the system spends ⌈ld C⌉ bits per position (paper §4.1).
//! A code may straddle a 64-bit word boundary; `get`/`set` handle the split.
//!
//! The merge "maps the old main values to new dictionary positions (with the
//! same or an increased number of bits)" — [`BitPackedVec::repack`] performs
//! that widening.
//!
//! # Word-parallel kernels
//!
//! The scan hot paths never walk the vector one `get` at a time (the paper's
//! scan speed rests on SIMD-scan over packed codes, its ref [15]). Three
//! ladders, fastest applicable wins, all bit-identical to the scalar
//! reference [`BitPackedVec::filter_range_scalar`]:
//!
//! 1. **Packed-word SWAR** (widths 1, 2, 4, 8, 16, 32 — lanes never straddle
//!    a word): a predicate compiled to one code interval is evaluated on
//!    whole packed words against broadcast patterns. Equality uses the
//!    zero-lane trick (`y = (x & M) + M; zero ⇔ ~(y | x) & H`), ordering
//!    uses the Lamport-style borrow trick on the forced-MSB difference
//!    `(x | H) - bcast(c_low)` — both are exact per lane with no cross-lane
//!    carry. Hit lanes are compressed into a bitmap 64 bits at a time.
//! 2. **Block unpack + lane compare** (all other widths): [`unpack_block`]
//!    (BitPackedVec::unpack_block) streams packed words through a shift
//!    buffer into a code block (no per-row word indexing or bounds checks),
//!    then a branch-free compare builds hit words — with an AVX2
//!    `std::arch` path behind runtime feature detection on x86_64 and a
//!    portable scalar fallback.
//! 3. **Scalar reference** (`filter_range_scalar`): the original per-row
//!    loop, kept for property tests and the repro/bench comparisons.

use crate::kernel::{BlockPlan, CodeMatcher};
use crate::{bits_for, Bitmap, Code};

/// Rows decoded per block in the unpack-based kernels (16 KiB of codes —
/// comfortably L1-cache resident).
const UNPACK_BLOCK: usize = 4096;

/// Fixed-width bit-packed vector of dictionary codes.
#[derive(Debug, Clone)]
pub struct BitPackedVec {
    words: Vec<u64>,
    bits: u8,
    len: usize,
}

impl BitPackedVec {
    /// An empty vector storing `bits`-wide codes (1..=32).
    pub fn new(bits: u8) -> Self {
        assert!((1..=32).contains(&bits), "code width {bits} out of range");
        BitPackedVec {
            words: Vec::new(),
            bits,
            len: 0,
        }
    }

    /// Pack a slice, sizing the width from the slice's maximum (or 1 bit if
    /// empty).
    pub fn from_codes(codes: &[Code]) -> Self {
        let bits = bits_for(codes.iter().copied().max().unwrap_or(0));
        let mut v = BitPackedVec::new(bits);
        v.extend_from_codes(codes);
        v
    }

    /// Pack a slice with an explicit width (codes must fit).
    pub fn from_codes_with_bits(codes: &[Code], bits: u8) -> Self {
        let mut v = BitPackedVec::new(bits);
        v.extend_from_codes(codes);
        v
    }

    /// Code width in bits.
    #[inline]
    pub fn bits(&self) -> u8 {
        self.bits
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

    /// Maximum code representable at the current width.
    #[inline]
    pub fn max_code(&self) -> Code {
        if self.bits == 32 {
            Code::MAX
        } else {
            (1u32 << self.bits) - 1
        }
    }

    /// Reserve space for `additional` more codes.
    pub fn reserve(&mut self, additional: usize) {
        let total_bits = (self.len + additional) * self.bits as usize;
        self.words
            .reserve(total_bits.div_ceil(64).saturating_sub(self.words.len()));
    }

    /// Append a code.
    ///
    /// # Panics
    /// Panics if `code` does not fit the configured width.
    pub fn push(&mut self, code: Code) {
        assert!(
            code <= self.max_code(),
            "code {code} exceeds {} bits",
            self.bits
        );
        let bit = self.len * self.bits as usize;
        let word = bit / 64;
        let off = bit % 64;
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= (code as u64) << off;
        let spill = off + self.bits as usize;
        if spill > 64 {
            self.words.push((code as u64) >> (64 - off));
        }
        self.len += 1;
    }

    /// Bulk append: one backing-store resize up front, then a streaming
    /// writer — no per-row `Vec` growth checks (the fix the merge-heavy
    /// paths needed; `push` stays for incremental writers).
    ///
    /// # Panics
    /// Panics if any code does not fit the configured width.
    pub fn extend_from_codes(&mut self, codes: &[Code]) {
        if codes.is_empty() {
            return;
        }
        let max = codes.iter().copied().max().unwrap_or(0);
        assert!(
            max <= self.max_code(),
            "code {max} exceeds {} bits",
            self.bits
        );
        let bits = self.bits as usize;
        let total_bits = (self.len + codes.len()) * bits;
        self.words.resize(total_bits.div_ceil(64), 0);
        let mut bit = self.len * bits;
        for &c in codes {
            let w = bit / 64;
            let off = bit % 64;
            self.words[w] |= (c as u64) << off;
            if off + bits > 64 {
                self.words[w + 1] |= (c as u64) >> (64 - off);
            }
            bit += bits;
        }
        self.len += codes.len();
    }

    /// Read the code at `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> Code {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let bit = i * self.bits as usize;
        let word = bit / 64;
        let off = bit % 64;
        let mask = if self.bits == 32 {
            u32::MAX as u64
        } else {
            (1u64 << self.bits) - 1
        };
        let mut v = self.words[word] >> off;
        let taken = 64 - off;
        if taken < self.bits as usize {
            v |= self.words[word + 1] << taken;
        }
        (v & mask) as Code
    }

    /// Overwrite the code at `i` (same width).
    pub fn set(&mut self, i: usize, code: Code) {
        assert!(i < self.len, "index {i} out of bounds");
        assert!(code <= self.max_code());
        let bit = i * self.bits as usize;
        let word = bit / 64;
        let off = bit % 64;
        let mask = if self.bits == 32 {
            u32::MAX as u64
        } else {
            (1u64 << self.bits) - 1
        };
        self.words[word] &= !(mask << off);
        self.words[word] |= (code as u64) << off;
        let taken = 64 - off;
        if taken < self.bits as usize {
            let hi_bits = self.bits as usize - taken;
            let hi_mask = (1u64 << hi_bits) - 1;
            self.words[word + 1] &= !hi_mask;
            self.words[word + 1] |= (code as u64) >> taken;
        }
    }

    /// Iterate all codes.
    pub fn iter(&self) -> impl Iterator<Item = Code> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Word-parallel block decode: positions `[start, start+out.len())` into
    /// `out`. Packed words stream through a shift buffer, so the per-row
    /// cost is one shift-and-mask plus a predictable refill — no per-row
    /// word indexing, division, or bounds check (the caller guarantees the
    /// range is valid).
    pub fn unpack_block(&self, start: usize, out: &mut [Code]) {
        let n = out.len();
        debug_assert!(start + n <= self.len);
        if n == 0 {
            return;
        }
        let bits = self.bits as usize;
        let mask: u64 = if bits == 32 {
            u32::MAX as u64
        } else {
            (1u64 << bits) - 1
        };
        let mut wi = start * bits / 64;
        let off = start * bits % 64;
        let words = self.words.as_slice();
        // SAFETY: `start + n <= self.len` (debug-asserted above) and the
        // packing invariant — code `i` ends at bit `(i+1)*bits`, and
        // `words.len() == ceil(len*bits/64)` — bound every index read here:
        // the first read is at `start*bits/64` and each refill advances to
        // the word holding the next code's high bits, which exists because
        // that code ends inside it.
        let mut cur = unsafe { *words.get_unchecked(wi) } >> off;
        let mut avail = 64 - off;
        for slot in out.iter_mut() {
            if avail >= bits {
                *slot = (cur & mask) as Code;
                cur >>= bits;
                avail -= bits;
            } else {
                wi += 1;
                debug_assert!(wi < words.len());
                // SAFETY: see above — the straddling/next code ends in word
                // `wi`, so `wi < words.len()`.
                let next = unsafe { *words.get_unchecked(wi) };
                *slot = ((cur | (next << avail)) & mask) as Code;
                let consumed = bits - avail;
                cur = next >> consumed;
                avail = 64 - consumed;
            }
        }
    }

    /// Re-encode through a mapping table at a (possibly wider) width — the
    /// merge's "same or an increased number of bits" recode step. `map[old]`
    /// yields the new code. Runs blockwise: unpack, map in place, bulk
    /// repack — never a per-row push.
    pub fn repack(&self, map: &[Code], new_bits: u8) -> BitPackedVec {
        let mut out = BitPackedVec::new(new_bits);
        out.reserve(self.len);
        let mut buf = [0 as Code; UNPACK_BLOCK];
        let mut i = 0;
        while i < self.len {
            let n = (self.len - i).min(UNPACK_BLOCK);
            self.unpack_block(i, &mut buf[..n]);
            for c in &mut buf[..n] {
                *c = map[*c as usize];
            }
            out.extend_from_codes(&buf[..n]);
            i += n;
        }
        out
    }

    /// Compressed-domain filter kernel: set bit `k` of `out` when the code
    /// at position `start + k` (for `k < end - start`) satisfies `m`.
    /// Dispatches over the word-parallel ladder described in the module
    /// docs; results are bit-identical to [`filter_range_scalar`]
    /// (Self::filter_range_scalar).
    pub fn filter_range(&self, start: usize, end: usize, m: &CodeMatcher, out: &mut Bitmap) {
        self.filter_range_at(start, end, m, out, 0);
    }

    /// [`filter_range`](Self::filter_range) with the emitted bits shifted:
    /// bit `out_base + k` of `out` is position `start + k`. Lets enclosing
    /// encodings (cluster blocks) reuse the block kernels at an offset.
    pub fn filter_range_at(
        &self,
        start: usize,
        end: usize,
        m: &CodeMatcher,
        out: &mut Bitmap,
        out_base: usize,
    ) {
        debug_assert!(end <= self.len);
        if start >= end || m.never_matches() {
            return;
        }
        match m.block_plan() {
            Some(plan) => self.filter_interval(start, end, &plan, out, out_base),
            None => self.filter_general(start, end, m, out, out_base),
        }
    }

    /// Scalar reference kernel: the original per-row loop. Kept as the
    /// ground truth the property tests assert the word-parallel paths
    /// against, and as the baseline the repro harness measures them against.
    pub fn filter_range_scalar(&self, start: usize, end: usize, m: &CodeMatcher, out: &mut Bitmap) {
        debug_assert!(end <= self.len);
        for i in start..end {
            if m.matches(self.get(i)) {
                out.set(i - start);
            }
        }
    }

    /// Single-interval predicate (`Eq`/`Between`/`IsNull`): SWAR directly on
    /// packed words when the width divides 64, else unpack + lane compare.
    fn filter_interval(
        &self,
        start: usize,
        end: usize,
        plan: &BlockPlan,
        out: &mut Bitmap,
        out_base: usize,
    ) {
        // 32-bit lanes give SWAR only two rows per word; with AVX2 (8 lanes
        // per compare) the packed array doubles as a `u32` array — x86-64 is
        // little-endian, so row `r` is element `r` of the reinterpreted
        // slice — and the vector kernel runs on it with no unpack at all.
        #[cfg(target_arch = "x86_64")]
        if self.bits == 32 && avx2_available() {
            // SAFETY: `u64` storage reinterpreted as twice as many `u32`s;
            // alignment only decreases. `end <= len` is the caller contract,
            // checked by the callers' slicing.
            let codes: &[Code] =
                unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const Code, self.len) };
            emit_hit_words(&codes[start..end], plan, out, out_base);
            return;
        }
        match self.bits {
            1 => self.filter_swar_1bit(start, end, plan, out, out_base),
            2 | 4 | 8 | 16 | 32 => self.filter_swar(start, end, plan, out, out_base),
            _ => self.filter_unpacked(start, end, plan, out, out_base),
        }
    }

    /// 1-bit lanes: the packed word *is* the answer. Precompute whether
    /// codes 0 and 1 match, then combine `w` / `!w` — 64 rows per two ops.
    fn filter_swar_1bit(
        &self,
        start: usize,
        end: usize,
        plan: &BlockPlan,
        out: &mut Bitmap,
        out_base: usize,
    ) {
        let hit0 = plan.matches(0);
        let hit1 = plan.matches(1);
        if !hit0 && !hit1 {
            return;
        }
        let mut row = start;
        while row < end {
            let wi = row / 64;
            let off = row % 64;
            let n = (64 - off).min(end - row);
            let w = self.words[wi] >> off;
            let hits = match (hit1, hit0) {
                (true, true) => u64::MAX,
                (true, false) => w,
                (false, true) => !w,
                (false, false) => unreachable!(),
            };
            out.or_word(out_base + row - start, hits, n);
            row += n;
        }
    }

    /// SWAR on packed words for lane widths 2/4/8/16/32: broadcast-compare
    /// whole words, no decode. Width-dispatched so the per-width constants
    /// and bit-gather ladders fold at compile time. Unaligned head/tail
    /// rows take the unpack path.
    fn filter_swar(
        &self,
        start: usize,
        end: usize,
        plan: &BlockPlan,
        out: &mut Bitmap,
        out_base: usize,
    ) {
        match self.bits {
            2 => self.filter_swar_k::<2>(start, end, plan, out, out_base),
            4 => self.filter_swar_k::<4>(start, end, plan, out, out_base),
            8 => self.filter_swar_k::<8>(start, end, plan, out, out_base),
            16 => self.filter_swar_k::<16>(start, end, plan, out, out_base),
            32 => self.filter_swar_k::<32>(start, end, plan, out, out_base),
            _ => unreachable!("SWAR widths divide 64"),
        }
    }

    fn filter_swar_k<const K: usize>(
        &self,
        start: usize,
        end: usize,
        plan: &BlockPlan,
        out: &mut Bitmap,
        out_base: usize,
    ) {
        let rpw = 64 / K;
        let consts = SwarConsts::new(K, plan);

        // Head: rows before the first word-aligned row.
        let body_start = start.next_multiple_of(rpw).min(end);
        if body_start > start {
            self.filter_unpacked(start, body_start, plan, out, out_base);
        }
        let body_end = body_start + (end - body_start) / rpw * rpw;
        let words = self.words.as_slice();
        let mut row = body_start;
        // 64-row groups: K packed words fill one output word, so the bitmap
        // is touched once per 64 rows.
        while row + 64 <= body_end {
            let w0 = row * K / 64;
            let mut outw = 0u64;
            for (g, &x) in words[w0..w0 + K].iter().enumerate() {
                let lanes = consts.lane_mask(x);
                outw |= compress_every::<K>(lanes >> (K - 1)) << (g * rpw);
            }
            if outw != 0 {
                out.or_word(out_base + row - start, outw, 64);
            }
            row += 64;
        }
        // Whole-word remainder (< 64 rows).
        while row < body_end {
            let x = words[row * K / 64];
            let hits = compress_every::<K>(consts.lane_mask(x) >> (K - 1));
            if hits != 0 {
                out.or_word(out_base + row - start, hits, rpw);
            }
            row += rpw;
        }
        // Tail: the partial last word.
        if body_end < end {
            self.filter_unpacked(body_end, end, plan, out, out_base + (body_end - start));
        }
    }

    /// Unpack-then-compare for widths that straddle words (and SWAR
    /// head/tail fragments): decode a block, build hit words branch-free
    /// (AVX2 when the CPU has it), OR them into the bitmap.
    fn filter_unpacked(
        &self,
        start: usize,
        end: usize,
        plan: &BlockPlan,
        out: &mut Bitmap,
        out_base: usize,
    ) {
        let mut buf = [0 as Code; UNPACK_BLOCK];
        let mut i = start;
        while i < end {
            let n = (end - i).min(UNPACK_BLOCK);
            self.unpack_block(i, &mut buf[..n]);
            emit_hit_words(&buf[..n], plan, out, out_base + (i - start));
            i += n;
        }
    }

    /// General matcher shapes (disjoint ranges, code sets): decode blocks
    /// and evaluate the matcher per code — still block-at-a-time, never a
    /// per-row `get`.
    fn filter_general(
        &self,
        start: usize,
        end: usize,
        m: &CodeMatcher,
        out: &mut Bitmap,
        out_base: usize,
    ) {
        let mut buf = [0 as Code; UNPACK_BLOCK];
        let mut i = start;
        while i < end {
            let n = (end - i).min(UNPACK_BLOCK);
            self.unpack_block(i, &mut buf[..n]);
            let mut k = 0;
            while k < n {
                let c = (n - k).min(64);
                let mut w = 0u64;
                for (j, &code) in buf[k..k + c].iter().enumerate() {
                    w |= (m.matches(code) as u64) << j;
                }
                if w != 0 {
                    out.or_word(out_base + (i - start) + k, w, c);
                }
                k += c;
            }
            i += n;
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        self.words.capacity() * 8
    }
}

/// Per-predicate broadcast constants for the packed-word SWAR kernel.
///
/// Lane width `k` divides 64. `lsb` carries a 1 in every lane's lowest bit
/// (`u64::MAX / (2^k - 1)`), `h` in every lane's highest. The comparison
/// identities (exact per lane, no cross-lane carry — every intermediate
/// stays within its lane):
///
/// * zero lanes of `x`: `~(((x & M) + M) | x) & h` with `M = bcast(2^(k-1)-1)`
///   — the low-bits add carries into the lane MSB iff the low bits are
///   non-zero, so the MSB of `(y | x)` is set iff the lane is non-zero.
/// * `x_i >= c` (unsigned): with `d = (x | h) - bcast(c_low)`, the lane MSB
///   of `d` says `x_low >= c_low`; combine with the lanes' own MSBs:
///   `c_msb = 0 → (x & h) | (d & h)`, `c_msb = 1 → (x & h) & (d & h)`.
struct SwarConsts {
    h: u64,
    low_mask: u64,              // bcast(2^(k-1)-1)
    has_range: bool,            // some lane value can satisfy [lo, hi)
    eq_x: Option<u64>,          // bcast(lo) when the range is the single value lo
    lo_ge: Option<(u64, bool)>, // (bcast(lo_low), lo_msb) — None when lo == 0
    hi_ge: Option<(u64, bool)>, // None when hi > lane max (always below)
    null_x: Option<u64>,        // bcast(null), when the sentinel fits a lane
    add_null: bool,
}

impl SwarConsts {
    fn new(k: usize, plan: &BlockPlan) -> Self {
        let lane_max = if k == 32 {
            u32::MAX as u64
        } else {
            (1u64 << k) - 1
        };
        let lsb = u64::MAX / lane_max; // 1 in every lane's lowest bit
        let h = lsb << (k - 1); // 1 in every lane's highest bit
        let low_mask = h - lsb; // bcast(2^(k-1)) - bcast(1), no cross-lane borrow
        let bcast = |c: u64| c * lsb;
        let split = |c: u64| (bcast(c & (lane_max >> 1)), c >> (k - 1) & 1 == 1);
        let has_range = plan.lo < plan.hi && plan.lo <= lane_max;
        SwarConsts {
            h,
            low_mask,
            has_range,
            eq_x: (has_range && plan.hi == plan.lo + 1).then(|| bcast(plan.lo)),
            lo_ge: (has_range && plan.lo > 0).then(|| split(plan.lo)),
            hi_ge: (has_range && plan.hi <= lane_max).then(|| split(plan.hi)),
            null_x: (plan.null <= lane_max).then(|| bcast(plan.null)),
            add_null: plan.add_null,
        }
    }

    /// Lanes of `x` where `x_i >= c`, as an MSB-positioned mask.
    #[inline]
    fn ge(&self, x: u64, c_low: u64, c_msb: bool) -> u64 {
        let d = (x | self.h).wrapping_sub(c_low);
        if c_msb {
            x & d & self.h
        } else {
            (x | d) & self.h
        }
    }

    /// Lanes of `x` equal to the broadcast pattern `b`, MSB-positioned.
    #[inline]
    fn eq_lanes(&self, x: u64, b: u64) -> u64 {
        let y = x ^ b;
        !(((y & self.low_mask) + self.low_mask) | y) & self.h
    }

    /// MSB-positioned hit lanes for one packed word.
    #[inline]
    fn lane_mask(&self, x: u64) -> u64 {
        let mut lanes = if let Some(b) = self.eq_x {
            // Single-value range: one zero-lane detect beats two `ge`s.
            self.eq_lanes(x, b)
        } else if self.has_range {
            let ge_lo = match self.lo_ge {
                Some((b, m)) => self.ge(x, b, m),
                None => self.h,
            };
            let lt_hi = match self.hi_ge {
                Some((b, m)) => !self.ge(x, b, m) & self.h,
                None => self.h,
            };
            ge_lo & lt_hi
        } else {
            0
        };
        if let Some(nb) = self.null_x {
            let nulls = self.eq_lanes(x, nb);
            lanes &= !nulls;
            if self.add_null {
                lanes |= nulls;
            }
        }
        lanes
    }
}

/// Gather the bits at positions `0, K, 2K, …` of `m` into contiguous low
/// bits — a SWAR "movemask". `K` is const so each width compiles to its
/// own straight-line ladder: shift-fold compaction for 2/4/16/32, the
/// multiply gather for 8 (partial products are carry-free: `8i + 7j` hits
/// each of bits 56..64 exactly once).
#[inline]
fn compress_every<const K: usize>(mut m: u64) -> u64 {
    match K {
        2 => {
            m &= 0x5555_5555_5555_5555;
            m = (m | (m >> 1)) & 0x3333_3333_3333_3333;
            m = (m | (m >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
            m = (m | (m >> 4)) & 0x00FF_00FF_00FF_00FF;
            m = (m | (m >> 8)) & 0x0000_FFFF_0000_FFFF;
            (m | (m >> 16)) & 0x0000_0000_FFFF_FFFF
        }
        4 => {
            m &= 0x1111_1111_1111_1111;
            m = (m | (m >> 3)) & 0x0303_0303_0303_0303;
            m = (m | (m >> 6)) & 0x000F_000F_000F_000F;
            m = (m | (m >> 12)) & 0x0000_00FF_0000_00FF;
            (m | (m >> 24)) & 0xFFFF
        }
        8 => (m & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56,
        16 => {
            m &= 0x0001_0001_0001_0001;
            m = (m | (m >> 15)) & 0x0000_0003_0000_0003;
            (m | (m >> 30)) & 0xF
        }
        32 => {
            m &= 0x0000_0001_0000_0001;
            (m | (m >> 31)) & 0x3
        }
        _ => unreachable!("SWAR widths divide 64"),
    }
}

/// Build hit words for a decoded code block against a single-interval plan
/// and OR them into `out` starting at bit `out_base`. Uses AVX2 on x86_64
/// when the CPU supports it, else a portable branch-free scalar loop.
fn emit_hit_words(codes: &[Code], plan: &BlockPlan, out: &mut Bitmap, out_base: usize) {
    let mut k = 0;
    while k < codes.len() {
        let c = (codes.len() - k).min(64);
        let chunk = &codes[k..k + c];
        #[cfg(target_arch = "x86_64")]
        let w = if avx2_available() {
            // SAFETY: gated on runtime AVX2 detection.
            unsafe { hit_word_avx2(chunk, plan) }
        } else {
            hit_word_scalar(chunk, plan)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let w = hit_word_scalar(chunk, plan);
        if w != 0 {
            out.or_word(out_base + k, w, c);
        }
        k += c;
    }
}

/// Portable branch-free hit word for up to 64 decoded codes.
#[inline]
fn hit_word_scalar(chunk: &[Code], plan: &BlockPlan) -> u64 {
    let mut w = 0u64;
    for (j, &code) in chunk.iter().enumerate() {
        let c = code as u64;
        let hit =
            (c >= plan.lo) & (c < plan.hi) & (c != plan.null) | (plan.add_null & (c == plan.null));
        w |= (hit as u64) << j;
    }
    w
}

/// Cached runtime AVX2 detection (one CPUID, then a load).
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// AVX2 hit word: 8 lanes per compare, sign-bias for unsigned order,
/// `movemask` to gather lane verdicts into bits.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 (see [`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hit_word_avx2(chunk: &[Code], plan: &BlockPlan) -> u64 {
    use std::arch::x86_64::*;
    let bias = _mm256_set1_epi32(i32::MIN);
    // c >= lo ⇔ biased(c) > biased(lo - 1); lo == 0 means always-true.
    let lo_m1 =
        (plan.lo != 0).then(|| _mm256_xor_si256(_mm256_set1_epi32((plan.lo - 1) as i32), bias));
    // c < hi ⇔ biased(hi) > biased(c); hi beyond u32 means always-true.
    let hi_b = (plan.hi <= u32::MAX as u64)
        .then(|| _mm256_xor_si256(_mm256_set1_epi32(plan.hi as i32), bias));
    let null_v = (plan.null <= u32::MAX as u64).then(|| _mm256_set1_epi32(plan.null as i32));
    // Single-value range: one cmpeq replaces the two order compares.
    let eq_v = (plan.hi == plan.lo + 1 && plan.lo <= u32::MAX as u64)
        .then(|| _mm256_set1_epi32(plan.lo as i32));
    let mut w = 0u64;
    let mut j = 0;
    while j + 8 <= chunk.len() {
        let v = _mm256_loadu_si256(chunk.as_ptr().add(j) as *const __m256i);
        let vb = _mm256_xor_si256(v, bias);
        let ones = _mm256_set1_epi32(-1);
        let mut hits = if let Some(e) = eq_v {
            _mm256_cmpeq_epi32(v, e)
        } else if plan.lo < plan.hi {
            let ge_lo = lo_m1.map_or(ones, |l| _mm256_cmpgt_epi32(vb, l));
            let lt_hi = hi_b.map_or(ones, |h| _mm256_cmpgt_epi32(h, vb));
            _mm256_and_si256(ge_lo, lt_hi)
        } else {
            _mm256_setzero_si256()
        };
        if let Some(n) = null_v {
            let is_null = _mm256_cmpeq_epi32(v, n);
            hits = _mm256_andnot_si256(is_null, hits);
            if plan.add_null {
                hits = _mm256_or_si256(hits, is_null);
            }
        }
        let mask = _mm256_movemask_ps(_mm256_castsi256_ps(hits)) as u32 as u64;
        w |= mask << j;
        j += 8;
    }
    if j < chunk.len() {
        w |= hit_word_scalar(&chunk[j..], plan) << j;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{matching_positions, CodeVector};
    use crate::kernel::{CodeFilter, CodeMatcher};

    #[test]
    fn round_trip_various_widths() {
        for bits in [1u8, 3, 7, 8, 13, 16, 31, 32] {
            let max = if bits == 32 {
                u32::MAX
            } else {
                (1 << bits) - 1
            };
            let codes: Vec<Code> = (0..200)
                .map(|i| (i * 2654435761u64 % (max as u64 + 1)) as Code)
                .collect();
            let v = BitPackedVec::from_codes_with_bits(&codes, bits);
            assert_eq!(v.len(), 200);
            for (i, &c) in codes.iter().enumerate() {
                assert_eq!(v.get(i), c, "bits={bits} i={i}");
            }
        }
    }

    #[test]
    fn bulk_pack_equals_push_loop() {
        for bits in [1u8, 5, 13, 24, 32] {
            let max = if bits == 32 {
                u32::MAX
            } else {
                (1 << bits) - 1
            };
            let codes: Vec<Code> = (0..500)
                .map(|i| (i * 0x9E3779B9u64 % (max as u64 + 1)) as Code)
                .collect();
            let bulk = BitPackedVec::from_codes_with_bits(&codes, bits);
            let mut pushed = BitPackedVec::new(bits);
            for &c in &codes {
                pushed.push(c);
            }
            assert_eq!(bulk.iter().collect::<Vec<_>>(), codes, "bits={bits}");
            assert_eq!(pushed.iter().collect::<Vec<_>>(), codes, "bits={bits}");
            // Bulk append onto a pushed prefix also agrees.
            let mut mixed = BitPackedVec::new(bits);
            for &c in &codes[..123] {
                mixed.push(c);
            }
            mixed.extend_from_codes(&codes[123..]);
            assert_eq!(mixed.iter().collect::<Vec<_>>(), codes, "bits={bits}");
        }
    }

    #[test]
    fn unpack_block_matches_get() {
        for bits in [1u8, 2, 4, 7, 8, 13, 16, 31, 32] {
            let max = if bits == 32 {
                u32::MAX
            } else {
                (1 << bits) - 1
            };
            let codes: Vec<Code> = (0..300)
                .map(|i| (i * 2654435761u64 % (max as u64 + 1)) as Code)
                .collect();
            let v = BitPackedVec::from_codes_with_bits(&codes, bits);
            for (start, n) in [(0usize, 300usize), (1, 299), (37, 100), (299, 1), (64, 0)] {
                let mut out = vec![0; n];
                v.unpack_block(start, &mut out);
                assert_eq!(out, codes[start..start + n], "bits={bits} start={start}");
            }
        }
    }

    #[test]
    fn width_straddles_word_boundary() {
        // 13-bit codes guarantee straddles at positions 4, 9, ...
        let codes: Vec<Code> = (0..100).map(|i| (i * 83) % 8192).collect();
        let v = BitPackedVec::from_codes_with_bits(&codes, 13);
        assert_eq!(v.iter().collect::<Vec<_>>(), codes);
    }

    #[test]
    fn from_codes_picks_minimal_width() {
        assert_eq!(BitPackedVec::from_codes(&[0, 1]).bits(), 1);
        assert_eq!(BitPackedVec::from_codes(&[0, 5]).bits(), 3);
        assert_eq!(BitPackedVec::from_codes(&[]).bits(), 1);
        assert_eq!(BitPackedVec::from_codes(&[65535]).bits(), 16);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn push_overflow_panics() {
        BitPackedVec::new(3).push(8);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn bulk_overflow_panics() {
        BitPackedVec::new(3).extend_from_codes(&[1, 2, 8]);
    }

    #[test]
    fn set_rewrites_in_place() {
        let mut v = BitPackedVec::from_codes_with_bits(&[1, 2, 3, 4, 5], 13);
        v.set(2, 8000);
        assert_eq!(v.get(2), 8000);
        assert_eq!(v.get(1), 2);
        assert_eq!(v.get(3), 4);
        // Also across a word boundary.
        v.set(4, 8191);
        assert_eq!(v.get(4), 8191);
    }

    #[test]
    fn repack_widens() {
        let v = BitPackedVec::from_codes(&[0, 1, 2, 3]);
        let map: Vec<Code> = vec![10, 11, 500, 501];
        let w = v.repack(&map, bits_for(501));
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![10, 11, 500, 501]);
        assert!(w.bits() > v.bits());
    }

    #[test]
    fn scan_eq_and_range() {
        let codes: Vec<Code> = (0..1000).map(|i| i % 7).collect();
        let v = CodeVector::BitPacked(BitPackedVec::from_codes(&codes));
        let hits = matching_positions(&v, CodeFilter::eq(3));
        assert_eq!(hits.len(), codes.iter().filter(|&&c| c == 3).count());
        assert!(hits.iter().all(|&p| codes[p as usize] == 3));

        let range_hits = matching_positions(&v, CodeFilter::range(2..5));
        assert_eq!(
            range_hits.len(),
            codes.iter().filter(|&&c| (2..5).contains(&c)).count()
        );
    }

    /// Every kernel path (1-bit SWAR, divisor-width SWAR, unpack ladder,
    /// general matcher) agrees with the scalar reference, over widths,
    /// matcher shapes, and unaligned windows.
    #[test]
    fn word_parallel_kernels_match_scalar() {
        for bits in [1u8, 2, 3, 4, 7, 8, 11, 13, 16, 21, 32] {
            let max: u64 = if bits == 32 {
                u32::MAX as u64
            } else {
                (1u64 << bits) - 1
            };
            let codes: Vec<Code> = (0..777)
                .map(|i| (i * 2654435761u64 % (max + 1)) as Code)
                .collect();
            let v = BitPackedVec::from_codes_with_bits(&codes, bits);
            let null = (max / 2) as Code; // sentinel inside the data
            let lo = (max / 4) as Code;
            let hi = (max / 2 + 2).min(max + 1) as Code;
            let matchers = [
                CodeMatcher::new(CodeFilter::eq(lo), null),
                CodeMatcher::new(CodeFilter::range(lo..hi), null),
                CodeMatcher::new(
                    CodeFilter::range(0..(max + 1).min(u32::MAX as u64) as Code),
                    null,
                ),
                CodeMatcher::is_null(null),
                CodeMatcher::new(
                    CodeFilter::set(vec![0, lo, (max as Code).min(lo + 3)]),
                    null,
                ),
                CodeMatcher::new(
                    CodeFilter::ranges(vec![0..lo.max(1), hi..(max as Code).max(hi)]),
                    null,
                ),
                CodeMatcher::new(CodeFilter::Empty, null),
            ];
            for m in &matchers {
                for (start, end) in [(0usize, 777usize), (1, 776), (63, 65), (130, 700), (5, 5)] {
                    let mut want = Bitmap::zeros(end - start);
                    v.filter_range_scalar(start, end, m, &mut want);
                    let mut got = Bitmap::zeros(end - start);
                    v.filter_range(start, end, m, &mut got);
                    assert_eq!(
                        got.count_ones(),
                        want.count_ones(),
                        "bits={bits} window=[{start},{end}) m={m:?}"
                    );
                    for i in 0..end - start {
                        assert_eq!(
                            got.get(i),
                            want.get(i),
                            "bits={bits} bit {i} window=[{start},{end}) m={m:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn filter_range_at_offsets_bits() {
        let codes: Vec<Code> = (0..100).map(|i| i % 5).collect();
        let v = BitPackedVec::from_codes(&codes);
        let m = CodeMatcher::new(CodeFilter::eq(3), 99);
        let mut out = Bitmap::zeros(120);
        v.filter_range_at(10, 50, &m, &mut out, 20);
        for i in 0..120 {
            let want = (20..60).contains(&i) && codes[i - 20 + 10] == 3;
            assert_eq!(out.get(i), want, "bit {i}");
        }
    }

    #[test]
    fn compression_is_real() {
        // 1000 codes over 8 distinct values: 3 bits each ≈ 375 bytes.
        let codes: Vec<Code> = (0..1000).map(|i| i % 8).collect();
        let v = BitPackedVec::from_codes(&codes);
        assert!(v.heap_size() < 1000 * 4 / 8);
    }
}
