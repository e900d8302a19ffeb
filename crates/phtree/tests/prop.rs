//! Property-based tests for the PH-tree, checked against `BTreeMap` /
//! brute-force models.

use phtree::key::{f64_to_key, key_to_f64};
use phtree::{PhTree, PhTreeF64, ReprMode};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Insert([u64; 3], u32),
    Remove([u64; 3]),
    Get([u64; 3]),
}

/// Keys drawn from a small coordinate universe so that collisions,
/// splits and merges all occur frequently.
fn key_strategy() -> impl Strategy<Value = [u64; 3]> {
    prop_oneof![
        // Dense small coordinates.
        [0u64..16, 0u64..16, 0u64..16],
        // High-bit patterns.
        [0u64..4, 0u64..4, 0u64..4].prop_map(|k| k.map(|v| v << 62)),
        // Arbitrary values.
        [any::<u64>(), any::<u64>(), any::<u64>()],
        // Power-of-two style values (the space worst case).
        [0u32..64, 0u32..64, 0u32..64].prop_map(|k| k.map(|b| 1u64 << b)),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (key_strategy(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => key_strategy().prop_map(Op::Remove),
        1 => key_strategy().prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random insert/remove/get sequences match a BTreeMap model, in all
    /// three node representation modes.
    #[test]
    fn tree_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        for mode in [ReprMode::Adaptive, ReprMode::ForceLhc, ReprMode::ForceHc] {
            let mut tree: PhTree<u32, 3> = PhTree::with_mode(mode);
            let mut model: BTreeMap<[u64; 3], u32> = BTreeMap::new();
            for op in &ops {
                match *op {
                    Op::Insert(k, v) => {
                        prop_assert_eq!(tree.insert(k, v), model.insert(k, v), "insert {:?}", k);
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(tree.remove(&k), model.remove(&k), "remove {:?}", k);
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(tree.get(&k), model.get(&k), "get {:?}", k);
                    }
                }
                prop_assert_eq!(tree.len(), model.len());
            }
            tree.check_invariants();
            // Full scan equality.
            let mut got: Vec<([u64; 3], u32)> = tree.iter().map(|(k, &v)| (k, v)).collect();
            got.sort();
            let want: Vec<([u64; 3], u32)> = model.into_iter().collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Window queries return exactly the brute-force filtered set.
    #[test]
    fn window_query_matches_filter(
        keys in proptest::collection::vec(key_strategy(), 1..200),
        qa in key_strategy(),
        qb in key_strategy(),
    ) {
        let mut tree: PhTree<(), 3> = PhTree::new();
        let mut set = std::collections::BTreeSet::new();
        for k in keys {
            tree.insert(k, ());
            set.insert(k);
        }
        let min: [u64; 3] = std::array::from_fn(|d| qa[d].min(qb[d]));
        let max: [u64; 3] = std::array::from_fn(|d| qa[d].max(qb[d]));
        let mut got: Vec<[u64; 3]> = tree.query(&min, &max).map(|(k, _)| k).collect();
        got.sort();
        // No duplicates from the iterator.
        let dedup_len = { let mut g = got.clone(); g.dedup(); g.len() };
        prop_assert_eq!(dedup_len, got.len());
        let want: Vec<[u64; 3]> = set
            .iter()
            .filter(|k| (0..3).all(|d| min[d] <= k[d] && k[d] <= max[d]))
            .copied()
            .collect();
        prop_assert_eq!(got, want);
    }

    /// The f64 conversion is order-preserving in both directions.
    #[test]
    fn f64_key_order_preserved(a in any::<f64>(), b in any::<f64>()) {
        prop_assume!(!a.is_nan() && !b.is_nan());
        let (ka, kb) = (f64_to_key(a), f64_to_key(b));
        match a.partial_cmp(&b).unwrap() {
            std::cmp::Ordering::Less => prop_assert!(ka < kb),
            std::cmp::Ordering::Greater => prop_assert!(ka > kb),
            std::cmp::Ordering::Equal => prop_assert_eq!(ka, kb),
        }
        if a != 0.0 {
            prop_assert_eq!(key_to_f64(ka), a);
        }
    }

    /// kNN on f64 points agrees with a brute-force scan.
    #[test]
    fn knn_matches_brute_force(
        pts in proptest::collection::vec([-100.0f64..100.0, -100.0f64..100.0], 1..80),
        center in [-100.0f64..100.0, -100.0f64..100.0],
        n in 1usize..10,
    ) {
        let mut tree: PhTreeF64<usize, 2> = PhTreeF64::new();
        let mut uniq = Vec::new();
        for (i, p) in pts.iter().enumerate() {
            if tree.insert(*p, i).is_none() {
                uniq.push(*p);
            }
        }
        let got = tree.knn(&center, n);
        let mut want: Vec<f64> = uniq
            .iter()
            .map(|p| ((p[0] - center[0]).powi(2) + (p[1] - center[1]).powi(2)).sqrt())
            .collect();
        want.sort_by(f64::total_cmp);
        want.truncate(n);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g.2 - w).abs() < 1e-9, "dist {} vs {}", g.2, w);
        }
    }

    /// Insert order never changes the structure: permutations of the
    /// same key set yield byte-identical statistics (paper Sect. 3.6:
    /// "the structure is determined solely by the data").
    #[test]
    fn structure_is_insert_order_independent(
        keys in proptest::collection::btree_set(key_strategy(), 2..60),
        seed in any::<u64>(),
    ) {
        let keys: Vec<[u64; 3]> = keys.iter().copied().collect();
        let mut t1: PhTree<(), 3> = PhTree::new();
        for &k in &keys {
            t1.insert(k, ());
        }
        // Shuffle deterministically.
        let mut shuffled = keys.clone();
        let mut x = seed | 1;
        for i in (1..shuffled.len()).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (x as usize) % (i + 1));
        }
        let mut t2: PhTree<(), 3> = PhTree::new();
        for &k in &shuffled {
            t2.insert(k, ());
        }
        let (s1, s2) = (t1.stats(), t2.stats());
        prop_assert_eq!(s1.nodes, s2.nodes);
        prop_assert_eq!(s1.max_depth, s2.max_depth);
        prop_assert_eq!(s1.hc_nodes, s2.hc_nodes);
        prop_assert_eq!(s1.entries, s2.entries);
    }

    /// Deleting entries restores the exact structure the remaining keys
    /// would build from scratch.
    #[test]
    fn deletion_restores_canonical_structure(
        keys in proptest::collection::btree_set(key_strategy(), 4..60),
        remove_mask in any::<u64>(),
    ) {
        let keys: Vec<[u64; 3]> = keys.iter().copied().collect();
        let mut full: PhTree<(), 3> = PhTree::new();
        for &k in &keys {
            full.insert(k, ());
        }
        let mut kept = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            if remove_mask >> (i % 64) & 1 == 1 {
                full.remove(&k);
            } else {
                kept.push(k);
            }
        }
        full.check_invariants();
        let mut fresh: PhTree<(), 3> = PhTree::new();
        for &k in &kept {
            fresh.insert(k, ());
        }
        let (s1, s2) = (full.stats(), fresh.stats());
        prop_assert_eq!(s1.nodes, s2.nodes);
        prop_assert_eq!(s1.entries, s2.entries);
        prop_assert_eq!(s1.max_depth, s2.max_depth);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Approximate window queries return a superset of the exact result,
    /// and every extra key is within `2^slack − 1` of the window.
    #[test]
    fn approx_query_is_bounded_superset(
        keys in proptest::collection::vec(key_strategy(), 1..150),
        qa in key_strategy(),
        qb in key_strategy(),
        slack in 0u32..12,
    ) {
        let mut tree: PhTree<(), 3> = PhTree::new();
        for k in keys {
            tree.insert(k, ());
        }
        let min: [u64; 3] = std::array::from_fn(|d| qa[d].min(qb[d]));
        let max: [u64; 3] = std::array::from_fn(|d| qa[d].max(qb[d]));
        let exact: std::collections::BTreeSet<[u64; 3]> =
            tree.query(&min, &max).map(|(k, _)| k).collect();
        let approx: std::collections::BTreeSet<[u64; 3]> =
            tree.query_approx(&min, &max, slack).map(|(k, _)| k).collect();
        prop_assert!(approx.is_superset(&exact));
        let eps = if slack == 0 { 0 } else { (1u64 << slack) - 1 };
        for k in &approx {
            for d in 0..3 {
                prop_assert!(
                    k[d] >= min[d].saturating_sub(eps) && k[d] <= max[d].saturating_add(eps),
                    "key {:?} beyond slack {} of [{:?}, {:?}]", k, slack, min, max
                );
            }
        }
        // slack = 0 must be exact.
        let zero: std::collections::BTreeSet<[u64; 3]> =
            tree.query_approx(&min, &max, 0).map(|(k, _)| k).collect();
        prop_assert_eq!(zero, exact);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Bulk loading is indistinguishable from sequential insertion:
    /// byte-identical structure (the canonical-form guarantee makes the
    /// whole tree a pure function of its contents), identical iteration
    /// order and identical window-query order — in every representation
    /// mode, with duplicate keys (last write wins) and empty/singleton
    /// inputs included in the generated cases.
    #[test]
    fn bulk_load_equals_sequential_inserts(
        items in proptest::collection::vec((key_strategy(), any::<u32>()), 0..150),
    ) {
        for mode in [ReprMode::Adaptive, ReprMode::ForceLhc, ReprMode::ForceHc] {
            let bulk = PhTree::bulk_load_with_mode(items.clone(), mode);
            bulk.check_invariants();
            let mut seq: PhTree<u32, 3> = PhTree::with_mode(mode);
            for &(k, v) in &items {
                seq.insert(k, v);
            }
            seq.shrink_to_fit();
            prop_assert_eq!(bulk.len(), seq.len());
            // Byte-identical structure once growth slack is released.
            prop_assert_eq!(bulk.stats(), seq.stats());
            let a: Vec<_> = bulk.iter().map(|(k, &v)| (k, v)).collect();
            let b: Vec<_> = seq.iter().map(|(k, &v)| (k, v)).collect();
            prop_assert_eq!(a, b);
            let (min, max) = ([1u64, 0, 2], [1u64 << 62, 15, 1 << 63]);
            let qa: Vec<_> = bulk.query(&min, &max).map(|(k, _)| k).collect();
            let qb: Vec<_> = seq.query(&min, &max).map(|(k, _)| k).collect();
            prop_assert_eq!(qa, qb);
        }
    }
}
