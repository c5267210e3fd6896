//! The append-only, unsorted dictionary of the L2-delta.
//!
//! Per the paper, the L2-delta dictionary is *unsorted* for performance:
//! inserting a never-seen value appends it at the end, so no existing code
//! ever changes and in-flight readers are never invalidated. Point lookups go
//! through a hash side-index (the paper's "secondary index structures") that
//! holds codes, not values: every value is stored exactly once, in code
//! order, and the index compares keys through `values[code]`.

use crate::Code;
use hana_common::Value;
use rustc_hash::FxHasher;
use std::hash::{Hash, Hasher};

/// A free slot of the code table. No stored slot equals it: a slot's low
/// bits hold a code, and the load limit keeps every code below
/// `table.len() - 1`.
const EMPTY: u32 = u32::MAX;

/// Append-only dictionary mapping non-null [`Value`]s to dense codes.
#[derive(Debug, Clone, Default)]
pub struct UnsortedDict {
    values: Vec<Value>,
    /// Open-addressing hash table over `values`, probed linearly from the
    /// value's FxHash. A slot is [`EMPTY`] or a code in its low
    /// `log2(table.len())` bits under a tag of the hash's high bits, so a
    /// probe reads `values[code]` only when the tags agree. Empty or a power
    /// of two at least 8 long, and at most 7/8 full.
    table: Vec<u32>,
    /// Heap bytes the string values own beyond their `Value` slots.
    string_bytes: usize,
}

fn hash_of(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// The slot word for `code` in a table of `mask + 1` slots: the code under
/// the bits of `hash` that neither the code nor the probe start uses.
#[inline]
fn tagged(code: Code, hash: u64, mask: usize) -> u32 {
    let code_bits = mask as u32;
    ((hash >> 32) as u32 & !code_bits) | code
}

/// Slots needed to hold `n` codes at most 7/8 full.
fn slots_for(n: usize) -> usize {
    let mut slots = 8;
    while n * 8 > slots * 7 {
        slots *= 2;
    }
    slots
}

impl UnsortedDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty dictionary with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        UnsortedDict {
            values: Vec::with_capacity(cap),
            table: if cap == 0 {
                Vec::new()
            } else {
                vec![EMPTY; slots_for(cap)]
            },
            string_bytes: 0,
        }
    }

    /// Number of distinct values.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no values have been inserted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// `Ok(code)` of `v` (hashing to `hash`), or `Err(slot)`: the free slot
    /// where it would go.
    fn find(&self, v: &Value, hash: u64) -> Result<Code, usize> {
        if self.table.is_empty() {
            return Err(0);
        }
        let mask = self.table.len() - 1;
        let code_bits = mask as u32;
        let tag = tagged(0, hash, mask);
        let mut i = hash as usize & mask;
        loop {
            let slot = self.table[i];
            if slot == EMPTY {
                return Err(i);
            }
            if slot & !code_bits == tag && self.values[(slot & code_bits) as usize] == *v {
                return Ok(slot & code_bits);
            }
            i = (i + 1) & mask;
        }
    }

    /// Rebuild the code table with `slots` slots.
    fn rehash(&mut self, slots: usize) {
        let mask = slots - 1;
        let mut table = vec![EMPTY; slots];
        for (code, v) in self.values.iter().enumerate() {
            let hash = hash_of(v);
            let mut i = hash as usize & mask;
            while table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            table[i] = tagged(code as Code, hash, mask);
        }
        self.table = table;
    }

    /// Code for `v`, inserting it at the end if missing.
    ///
    /// # Panics
    /// Panics on `Value::Null`: NULLs never enter dictionaries.
    pub fn get_or_insert(&mut self, v: &Value) -> Code {
        assert!(!v.is_null(), "NULL must not enter a dictionary");
        let hash = hash_of(v);
        let slot = match self.find(v, hash) {
            Ok(code) => return code,
            Err(slot) => slot,
        };
        let code = self.values.len() as Code;
        self.values.push(v.clone());
        self.string_bytes += v.heap_size() - std::mem::size_of::<Value>();
        if self.values.len() * 8 > self.table.len() * 7 {
            self.rehash((self.table.len() * 2).max(8));
        } else {
            self.table[slot] = tagged(code, hash, self.table.len() - 1);
        }
        code
    }

    /// Code for `v`, if it is present.
    #[inline]
    pub fn code_of(&self, v: &Value) -> Option<Code> {
        self.find(v, hash_of(v)).ok()
    }

    /// Value for an existing code.
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    #[inline]
    pub fn value_of(&self, c: Code) -> &Value {
        &self.values[c as usize]
    }

    /// All values in insertion (code) order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Permutation of codes that sorts the dictionary by value. Used when
    /// the unified-table access layer needs this delta's values in global
    /// sort order (paper §3.1: delta dictionaries are "sorted … on the fly"),
    /// and by the delta-to-main merge.
    pub fn sorted_codes(&self) -> Vec<Code> {
        let mut perm: Vec<Code> = (0..self.values.len() as Code).collect();
        perm.sort_unstable_by(|&a, &b| self.values[a as usize].cmp(&self.values[b as usize]));
        perm
    }

    /// Heap footprint in bytes: the value slots and code table by capacity,
    /// plus each string's own heap once.
    pub fn heap_size(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<Value>()
            + self.string_bytes
            + self.table.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_assigns_codes_in_arrival_order() {
        let mut d = UnsortedDict::new();
        // The paper's Fig 7 example: delta dictionary in arrival order.
        assert_eq!(d.get_or_insert(&Value::str("Los Gatos")), 0);
        assert_eq!(d.get_or_insert(&Value::str("Campbell")), 1);
        assert_eq!(d.get_or_insert(&Value::str("Saratoga")), 2);
        // Re-inserting returns the existing code.
        assert_eq!(d.get_or_insert(&Value::str("Campbell")), 1);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn code_lookup_both_directions() {
        let mut d = UnsortedDict::new();
        assert_eq!(d.code_of(&Value::Int(10)), None);
        d.get_or_insert(&Value::Int(10));
        d.get_or_insert(&Value::Int(20));
        assert_eq!(d.code_of(&Value::Int(20)), Some(1));
        assert_eq!(d.code_of(&Value::Int(30)), None);
        assert_eq!(d.value_of(0), &Value::Int(10));
    }

    #[test]
    fn codes_survive_table_growth() {
        let mut d = UnsortedDict::with_capacity(3);
        for i in 0..10_000i64 {
            assert_eq!(d.get_or_insert(&Value::Int(i * 7919)), i as Code);
        }
        for i in 0..10_000i64 {
            assert_eq!(d.code_of(&Value::Int(i * 7919)), Some(i as Code));
        }
        assert_eq!(d.code_of(&Value::Int(1)), None);
        // Doubling keeps the table at the fewest slots that are at most 7/8 full.
        assert_eq!(d.table.len(), slots_for(d.len()));
    }

    #[test]
    fn sorted_codes_is_a_sorting_permutation() {
        let mut d = UnsortedDict::new();
        for v in ["pear", "apple", "zebra", "mango"] {
            d.get_or_insert(&Value::str(v));
        }
        let perm = d.sorted_codes();
        let sorted: Vec<&Value> = perm.iter().map(|&c| d.value_of(c)).collect();
        assert_eq!(
            sorted,
            vec![
                &Value::str("apple"),
                &Value::str("mango"),
                &Value::str("pear"),
                &Value::str("zebra")
            ]
        );
    }

    #[test]
    #[should_panic(expected = "NULL")]
    fn null_rejected() {
        UnsortedDict::new().get_or_insert(&Value::Null);
    }

    #[test]
    fn heap_size_nonzero_after_insert() {
        let mut d = UnsortedDict::new();
        assert_eq!(d.heap_size(), 0);
        d.get_or_insert(&Value::str("x".repeat(100)));
        let slots = d.values.capacity() * std::mem::size_of::<Value>() + d.table.capacity() * 4;
        // The string's heap counts once: no index holds a second copy.
        assert_eq!(d.heap_size(), slots + 100);
    }
}
