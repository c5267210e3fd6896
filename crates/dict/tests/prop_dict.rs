//! Property tests for dictionary invariants.

use hana_common::Value;
use hana_dict::merge::{merge_dicts_filtered, DROPPED};
use hana_dict::{merge_dicts, FrontCodedStrings, GlobalSortedDict, SortedDict, UnsortedDict};
use proptest::prelude::*;
use rustc_hash::FxHashMap;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-50i64..50).prop_map(Value::Int),
        "[a-e]{0,6}".prop_map(Value::str),
    ]
}

fn int_values() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec((-100i64..100).prop_map(Value::Int), 0..60)
}

proptest! {
    /// Front coding round-trips arbitrary sorted unique string sets and
    /// binary search agrees with the uncompressed slice.
    #[test]
    fn front_coding_round_trip(mut strings in prop::collection::vec("[a-c]{0,12}", 0..80), probe in "[a-c]{0,12}") {
        strings.sort();
        strings.dedup();
        let refs: Vec<&str> = strings.iter().map(String::as_str).collect();
        let fc = FrontCodedStrings::from_sorted(&refs);
        for (i, s) in strings.iter().enumerate() {
            prop_assert_eq!(&fc.get(i), s);
        }
        prop_assert_eq!(fc.binary_search(&probe), strings.binary_search(&probe));
    }

    /// A sorted dictionary built from arbitrary values assigns
    /// order-preserving codes that round-trip.
    #[test]
    fn sorted_dict_round_trip(vals in prop::collection::vec(value_strategy(), 0..60)) {
        let d = SortedDict::from_values(vals.clone());
        let mut uniq: Vec<Value> = vals;
        uniq.sort();
        uniq.dedup();
        prop_assert_eq!(d.len(), uniq.len());
        for (i, v) in uniq.iter().enumerate() {
            prop_assert_eq!(d.code_of(v), Some(i as u32));
            prop_assert_eq!(&d.value_of(i as u32), v);
        }
    }

    /// The code-keyed hash table answers exactly like a value-keyed map:
    /// arrival-order codes, lookups of present and absent values, across
    /// every table growth.
    #[test]
    fn unsorted_dict_matches_a_hash_map(
        ops in prop::collection::vec((value_strategy(), any::<bool>()), 0..400),
        cap in 0usize..20,
    ) {
        let mut d = UnsortedDict::with_capacity(cap);
        let mut model: FxHashMap<Value, u32> = FxHashMap::default();
        let mut order: Vec<Value> = Vec::new();
        for (v, insert) in ops {
            if insert {
                let want = *model.entry(v.clone()).or_insert_with(|| {
                    order.push(v.clone());
                    order.len() as u32 - 1
                });
                prop_assert_eq!(d.get_or_insert(&v), want);
            } else {
                prop_assert_eq!(d.code_of(&v), model.get(&v).copied());
            }
        }
        prop_assert_eq!(d.values(), order.as_slice());
        for (c, v) in order.iter().enumerate() {
            prop_assert_eq!(d.code_of(v), Some(c as u32));
            prop_assert_eq!(d.value_of(c as u32), v);
        }
    }

    /// Dictionary merge: the mapping tables always translate old codes to a
    /// new code holding the identical value, regardless of fast path.
    #[test]
    fn merge_maps_preserve_values(main_vals in int_values(), delta_vals in int_values()) {
        let main = SortedDict::from_values(main_vals);
        let mut delta = UnsortedDict::new();
        for v in &delta_vals {
            delta.get_or_insert(v);
        }
        let m = merge_dicts(&main, &delta);
        for c in 0..main.len() as u32 {
            prop_assert_eq!(m.dict.value_of(m.main_map[c as usize]), main.value_of(c));
        }
        for c in 0..delta.len() as u32 {
            prop_assert_eq!(&m.dict.value_of(m.delta_map[c as usize]), delta.value_of(c));
        }
        // Result is sorted unique and exactly the union.
        let got: Vec<Value> = m.dict.iter().collect();
        let mut want: Vec<Value> = main.iter().chain(delta.values().iter().cloned()).collect();
        want.sort();
        want.dedup();
        prop_assert_eq!(got, want);
    }

    /// Filtered merge: dropped codes map to DROPPED, live codes round-trip,
    /// and the new dictionary contains exactly the live union.
    #[test]
    fn filtered_merge_consistent(
        main_vals in int_values(),
        delta_vals in int_values(),
        seed in any::<u64>(),
    ) {
        let main = SortedDict::from_values(main_vals);
        let mut delta = UnsortedDict::new();
        for v in &delta_vals {
            delta.get_or_insert(v);
        }
        // Deterministic pseudo-random liveness flags.
        let flag = |salt: u64, i: usize| !(seed ^ salt).wrapping_mul(i as u64 + 1).is_multiple_of(3);
        let main_used: Vec<bool> = (0..main.len()).map(|i| flag(1, i)).collect();
        let delta_used: Vec<bool> = (0..delta.len()).map(|i| flag(2, i)).collect();
        let m = merge_dicts_filtered(&main, Some(&main_used), &delta, Some(&delta_used));

        let mut want: Vec<Value> = Vec::new();
        for (c, &used) in main_used.iter().enumerate() {
            if used {
                want.push(main.value_of(c as u32));
            }
        }
        for (c, &used) in delta_used.iter().enumerate() {
            if used {
                want.push(delta.value_of(c as u32).clone());
            }
        }
        want.sort();
        want.dedup();
        let got: Vec<Value> = m.dict.iter().collect();
        prop_assert_eq!(got, want);

        for (c, &used) in main_used.iter().enumerate() {
            if used {
                prop_assert_eq!(m.dict.value_of(m.main_map[c]), main.value_of(c as u32));
            } else {
                prop_assert_eq!(m.main_map[c], DROPPED);
            }
        }
        for (c, &used) in delta_used.iter().enumerate() {
            if used {
                prop_assert_eq!(&m.dict.value_of(m.delta_map[c]), delta.value_of(c as u32));
            } else {
                prop_assert_eq!(m.delta_map[c], DROPPED);
            }
        }
    }

    /// The global sorted dictionary equals sort+dedup over all three stages.
    #[test]
    fn global_dict_is_sorted_union(
        main_vals in int_values(),
        l2_vals in int_values(),
        l1_vals in int_values(),
    ) {
        let main = SortedDict::from_values(main_vals);
        let mut l2 = UnsortedDict::new();
        for v in &l2_vals {
            l2.get_or_insert(v);
        }
        let g = GlobalSortedDict::build(&main, &l2, &l1_vals);
        let mut want: Vec<Value> = main
            .iter()
            .chain(l2.values().iter().cloned())
            .chain(l1_vals.iter().cloned())
            .collect();
        want.sort();
        want.dedup();
        let got: Vec<Value> = g.iter().map(|(v, _)| v.clone()).collect();
        prop_assert_eq!(got, want);
        // Provenance codes must decode to the entry's value.
        for (v, p) in g.iter() {
            if let Some(c) = p.main_code {
                prop_assert_eq!(&main.value_of(c), v);
            }
            if let Some(c) = p.l2_code {
                prop_assert_eq!(l2.value_of(c), v);
            }
        }
    }
}
