//! Differential tests: the same op stream drives a [`ShardedTree`] (at
//! shard counts 1, 2 and 8), a plain [`PhTree`] and a `BTreeMap` oracle
//! — all three must agree at every step: routing must never change
//! what a key maps to, only where it lives.

use phshard::{DurableSharded, ShardedTree};
use phstore::vfs::MemVfs;
use phstore::DurableConfig;
use phtree::PhTree;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Op {
    Insert([u64; 3], u32),
    Remove([u64; 3]),
    Get([u64; 3]),
}

/// Keys mixing dense low coordinates (deep trees, one shard) with
/// high-bit patterns (the bits the router actually consumes).
fn key_strategy() -> impl Strategy<Value = [u64; 3]> {
    prop_oneof![
        [0u64..16, 0u64..16, 0u64..16],
        [0u64..4, 0u64..4, 0u64..4].prop_map(|k| k.map(|v| v << 62)),
        [any::<u64>(), any::<u64>(), any::<u64>()],
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
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Point-op and full-scan parity across shard counts.
    #[test]
    fn sharded_matches_unsharded_and_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        for shards in [1usize, 2, 8] {
            // threads=2 exercises the pool even under proptest.
            let sharded: ShardedTree<u32, 3> = ShardedTree::with_threads(shards, 2);
            let mut plain: PhTree<u32, 3> = PhTree::new();
            let mut oracle: BTreeMap<[u64; 3], u32> = BTreeMap::new();
            for op in &ops {
                match *op {
                    Op::Insert(k, v) => {
                        let want = oracle.insert(k, v);
                        prop_assert_eq!(sharded.insert(k, v), want, "S={} insert {:?}", shards, k);
                        prop_assert_eq!(plain.insert(k, v), want);
                    }
                    Op::Remove(k) => {
                        let want = oracle.remove(&k);
                        prop_assert_eq!(sharded.remove(&k), want, "S={} remove {:?}", shards, k);
                        prop_assert_eq!(plain.remove(&k), want);
                    }
                    Op::Get(k) => {
                        let want = oracle.get(&k).copied();
                        prop_assert_eq!(sharded.get(&k), want, "S={} get {:?}", shards, k);
                        prop_assert_eq!(plain.get(&k).copied(), want);
                    }
                }
                prop_assert_eq!(sharded.len(), oracle.len());
            }
            // Full-space window = full contents, in the same global
            // Z-order as the unsharded tree (shard ids are Z-prefixes).
            let got = sharded.query(&[0; 3], &[u64::MAX; 3]);
            let want: Vec<([u64; 3], u32)> =
                plain.query(&[0; 3], &[u64::MAX; 3]).map(|(k, &v)| (k, v)).collect();
            prop_assert_eq!(got, want, "S={} full scan order", shards);
        }
    }

    /// Window-query parity (contents *and* order) plus the pruning
    /// soundness invariant, across shard counts.
    #[test]
    fn sharded_window_queries_match(
        keys in proptest::collection::vec(key_strategy(), 1..150),
        qa in key_strategy(),
        qb in key_strategy(),
    ) {
        let min: [u64; 3] = std::array::from_fn(|d| qa[d].min(qb[d]));
        let max: [u64; 3] = std::array::from_fn(|d| qa[d].max(qb[d]));
        let mut plain: PhTree<u32, 3> = PhTree::new();
        for (i, &k) in keys.iter().enumerate() {
            plain.insert(k, i as u32);
        }
        let want: Vec<([u64; 3], u32)> = plain.query(&min, &max).map(|(k, &v)| (k, v)).collect();
        for shards in [1usize, 2, 8] {
            let sharded: ShardedTree<u32, 3> = ShardedTree::with_threads(shards, 2);
            for (i, &k) in keys.iter().enumerate() {
                sharded.insert(k, i as u32);
            }
            prop_assert_eq!(sharded.query(&min, &max), want.clone(), "S={}", shards);
            prop_assert_eq!(sharded.query_count(&min, &max), want.len());
            // Pruning soundness: every pruned shard's box is disjoint
            // from the query box (the acceptance criterion).
            let matching = sharded.router().matching_shards(&min, &max);
            for s in 0..shards {
                let (bmin, bmax) = sharded.router().shard_box(s);
                let intersects = (0..3).all(|d| bmin[d] <= max[d] && bmax[d] >= min[d]);
                prop_assert_eq!(
                    matching.contains(&s),
                    intersects,
                    "S={} shard {} pruning disagrees with geometry", shards, s
                );
            }
        }
    }

    /// kNN parity: the sharded bounded heap merge returns the same
    /// distance profile as the single tree, across shard counts.
    #[test]
    fn sharded_knn_matches(
        keys in proptest::collection::vec(key_strategy(), 1..100),
        center in key_strategy(),
        n in 1usize..8,
    ) {
        let mut plain: PhTree<u32, 3> = PhTree::new();
        for (i, &k) in keys.iter().enumerate() {
            plain.insert(k, i as u32);
        }
        let want: Vec<f64> = plain.knn(&center, n).into_iter().map(|nb| nb.dist).collect();
        for shards in [1usize, 2, 8] {
            let sharded: ShardedTree<u32, 3> = ShardedTree::with_threads(shards, 2);
            for (i, &k) in keys.iter().enumerate() {
                sharded.insert(k, i as u32);
            }
            let got: Vec<f64> = sharded.knn(&center, n).into_iter().map(|e| e.2).collect();
            prop_assert_eq!(got.len(), want.len(), "S={}", shards);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() < 1e-9, "S={} dist {} vs {}", shards, g, w);
            }
        }
    }

    /// bulk_load is equivalent to sequential inserts — into empty trees
    /// (the bottom-up bulk-build path) and into pre-populated trees
    /// (the per-key fallback), across shard counts, with duplicate keys
    /// and empty/singleton batches included in the generated cases.
    #[test]
    fn bulk_load_equals_inserts(
        keys in proptest::collection::vec(key_strategy(), 0..150),
        split in 0usize..150,
    ) {
        let items: Vec<([u64; 3], u32)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        let split = split.min(items.len());
        for shards in [1usize, 2, 8] {
            let bulk: ShardedTree<u32, 3> = ShardedTree::with_threads(shards, 2);
            // Pre-populate a prefix one by one, then bulk the rest:
            // shards untouched by the prefix take the bottom-up path,
            // the others the insert-loop fallback.
            let mut new = 0;
            for &(k, v) in &items[..split] {
                if bulk.insert(k, v).is_none() {
                    new += 1;
                }
            }
            new += bulk.bulk_load(items[split..].to_vec());
            let seq: ShardedTree<u32, 3> = ShardedTree::with_threads(shards, 0);
            let mut fresh = 0;
            for (k, v) in items.clone() {
                if seq.insert(k, v).is_none() {
                    fresh += 1;
                }
            }
            prop_assert_eq!(new, fresh, "S={} new-key count", shards);
            prop_assert_eq!(bulk.len(), seq.len());
            prop_assert_eq!(
                bulk.query(&[0; 3], &[u64::MAX; 3]),
                seq.query(&[0; 3], &[u64::MAX; 3])
            );
        }
    }

    /// Snapshot consistency on the in-memory layer: a snapshot pinned
    /// mid-op-stream equals the model frozen at exactly that point — no
    /// later write, remove or batch leaks in, across shard counts.
    #[test]
    fn snapshot_equals_model_frozen_at_cut(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        cut in 0usize..80,
    ) {
        let cut = cut.min(ops.len());
        for shards in [1usize, 2, 8] {
            let sharded: ShardedTree<u32, 3> = ShardedTree::with_threads(shards, 2);
            let mut oracle: BTreeMap<[u64; 3], u32> = BTreeMap::new();
            for op in &ops[..cut] {
                match *op {
                    Op::Insert(k, v) => { oracle.insert(k, v); sharded.insert(k, v); }
                    Op::Remove(k) => { oracle.remove(&k); sharded.remove(&k); }
                    Op::Get(_) => {}
                }
            }
            let frozen = oracle.clone();
            let snap = sharded.snapshot();
            for op in &ops[cut..] {
                match *op {
                    Op::Insert(k, v) => { oracle.insert(k, v); sharded.insert(k, v); }
                    Op::Remove(k) => { oracle.remove(&k); sharded.remove(&k); }
                    Op::Get(k) => {
                        prop_assert_eq!(sharded.get(&k), oracle.get(&k).copied());
                    }
                }
            }
            prop_assert_eq!(snap.len(), frozen.len(), "S={} snapshot len", shards);
            let seen: BTreeMap<[u64; 3], u32> =
                snap.query(&[0; 3], &[u64::MAX; 3]).into_iter().collect();
            prop_assert_eq!(&seen, &frozen, "S={} snapshot contents", shards);
            for op in &ops {
                let k = match *op { Op::Insert(k, _) | Op::Remove(k) | Op::Get(k) => k };
                prop_assert_eq!(snap.get(&k).copied(), frozen.get(&k).copied(),
                    "S={} snapshot get {:?}", shards, k);
            }
            // The live tree kept moving past the pinned cut.
            prop_assert_eq!(sharded.len(), oracle.len(), "S={} live len", shards);
        }
    }

    /// The same snapshot-at-cut property on the durable layer (WAL-
    /// backed cells publish through the same machinery).
    #[test]
    fn durable_snapshot_equals_model_frozen_at_cut(
        ops in proptest::collection::vec(op_strategy(), 1..50),
        cut in 0usize..50,
    ) {
        let cut = cut.min(ops.len());
        let config = DurableConfig {
            checkpoint_bytes: u64::MAX,
            sync_writes: false,
            retry: None,
        };
        for shards in [1usize, 2, 8] {
            let vfs = Arc::new(MemVfs::new());
            let store: DurableSharded<u32, 3> =
                DurableSharded::open_with(vfs, Path::new("/db"), shards, config.clone()).unwrap();
            let mut oracle: BTreeMap<[u64; 3], u32> = BTreeMap::new();
            for op in &ops[..cut] {
                match *op {
                    Op::Insert(k, v) => { oracle.insert(k, v); store.insert(k, v).unwrap(); }
                    Op::Remove(k) => { oracle.remove(&k); store.remove(&k).unwrap(); }
                    Op::Get(_) => {}
                }
            }
            let frozen = oracle.clone();
            let snap = store.snapshot();
            for op in &ops[cut..] {
                match *op {
                    Op::Insert(k, v) => { oracle.insert(k, v); store.insert(k, v).unwrap(); }
                    Op::Remove(k) => { oracle.remove(&k); store.remove(&k).unwrap(); }
                    Op::Get(k) => {
                        prop_assert_eq!(store.get_with(&k, |v| *v), oracle.get(&k).copied());
                    }
                }
            }
            prop_assert_eq!(snap.len(), frozen.len(), "S={} snapshot len", shards);
            let seen: BTreeMap<[u64; 3], u32> =
                snap.query(&[0; 3], &[u64::MAX; 3]).into_iter().collect();
            prop_assert_eq!(&seen, &frozen, "S={} snapshot contents", shards);
            prop_assert_eq!(store.len(), oracle.len(), "S={} live len", shards);
        }
    }
}
