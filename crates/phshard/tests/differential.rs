//! Differential tests: the same op stream drives a [`ShardedTree`] (at
//! shard counts 1, 2 and 8), a plain [`PhTree`] and a `BTreeMap` oracle
//! — all three must agree at every step: routing must never change
//! what a key maps to, only where it lives.
//!
//! Both live stores run on one engine, so what is checked of the engine
//! is checked through one body ([`Store`]): the conformance walk
//! ([`conformance`]) and the snapshot-at-cut property
//! ([`snapshot_frozen_at_cut`]) are each written once and instantiated
//! for [`ShardedTree`] and for [`DurableSharded`] on a `MemVfs`.

use phmetrics::Registry;
use phshard::{DurableSharded, ShardStats, ShardedTree, Snapshot, SplitReport};
use phstore::vfs::MemVfs;
use phstore::DurableConfig;
use phtree::{knn, IntEuclidean, PhTree};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

type Key = [u64; 3];
type Model = BTreeMap<Key, u32>;

/// The store surface the engine serves, spelled the same for both
/// stores (the durable one's writes are fallible; on a healthy
/// `MemVfs` with no migration armed they never fail).
trait Store: Sized {
    fn open(shards: usize, registry: &Registry) -> Self;
    fn insert(&self, k: Key, v: u32) -> Option<u32>;
    fn remove(&self, k: &Key) -> Option<u32>;
    fn get(&self, k: &Key) -> Option<u32>;
    fn window(&self, lo: &Key, hi: &Key) -> Vec<(Key, u32)>;
    fn count(&self, lo: &Key, hi: &Key) -> usize;
    fn knn(&self, c: &Key, n: usize) -> Vec<(Key, u32, f64)>;
    fn bulk(&self, items: Vec<(Key, u32)>) -> usize;
    fn split(&self, slot: usize, bits: u32) -> SplitReport;
    fn snapshot(&self) -> Snapshot<u32, 3>;
    fn len(&self) -> usize;
    fn stats(&self) -> ShardStats;
}

impl Store for ShardedTree<u32, 3> {
    fn open(shards: usize, registry: &Registry) -> Self {
        ShardedTree::with_metrics(shards, registry)
    }
    fn insert(&self, k: Key, v: u32) -> Option<u32> {
        ShardedTree::insert(self, k, v)
    }
    fn remove(&self, k: &Key) -> Option<u32> {
        ShardedTree::remove(self, k)
    }
    fn get(&self, k: &Key) -> Option<u32> {
        self.get_with(k, |v| *v)
    }
    fn window(&self, lo: &Key, hi: &Key) -> Vec<(Key, u32)> {
        self.query(lo, hi)
    }
    fn count(&self, lo: &Key, hi: &Key) -> usize {
        self.query_count(lo, hi)
    }
    fn knn(&self, c: &Key, n: usize) -> Vec<(Key, u32, f64)> {
        ShardedTree::knn(self, c, n)
    }
    fn bulk(&self, items: Vec<(Key, u32)>) -> usize {
        self.bulk_load(items)
    }
    fn split(&self, slot: usize, bits: u32) -> SplitReport {
        self.split_shard(slot, bits).unwrap()
    }
    fn snapshot(&self) -> Snapshot<u32, 3> {
        ShardedTree::snapshot(self)
    }
    fn len(&self) -> usize {
        ShardedTree::len(self)
    }
    fn stats(&self) -> ShardStats {
        ShardedTree::stats(self)
    }
}

impl Store for DurableSharded<u32, 3> {
    fn open(shards: usize, registry: &Registry) -> Self {
        let config = DurableConfig {
            checkpoint_bytes: u64::MAX,
            sync_writes: false,
            retry: None,
        };
        let vfs = Arc::new(MemVfs::new());
        DurableSharded::open_observed(vfs, Path::new("/db"), shards, config, registry).unwrap()
    }
    fn insert(&self, k: Key, v: u32) -> Option<u32> {
        DurableSharded::insert(self, k, v).unwrap()
    }
    fn remove(&self, k: &Key) -> Option<u32> {
        DurableSharded::remove(self, k).unwrap()
    }
    fn get(&self, k: &Key) -> Option<u32> {
        self.get_with(k, |v| *v)
    }
    fn window(&self, lo: &Key, hi: &Key) -> Vec<(Key, u32)> {
        self.query(lo, hi)
    }
    fn count(&self, lo: &Key, hi: &Key) -> usize {
        self.query_count(lo, hi)
    }
    fn knn(&self, c: &Key, n: usize) -> Vec<(Key, u32, f64)> {
        DurableSharded::knn(self, c, n)
    }
    fn bulk(&self, items: Vec<(Key, u32)>) -> usize {
        self.bulk_load(items).unwrap()
    }
    fn split(&self, slot: usize, bits: u32) -> SplitReport {
        self.split_shard(slot, bits).unwrap()
    }
    fn snapshot(&self) -> Snapshot<u32, 3> {
        DurableSharded::snapshot(self)
    }
    fn len(&self) -> usize {
        DurableSharded::len(self)
    }
    fn stats(&self) -> ShardStats {
        DurableSharded::stats(self)
    }
}

const FULL: (Key, Key) = ([0; 3], [u64::MAX; 3]);

/// Everything readable through `s` agrees with `model`.
fn assert_reads_match<S: Store>(s: &S, model: &Model, what: &str) {
    assert_eq!(s.len(), model.len(), "{what}: len");
    let all: Model = s.window(&FULL.0, &FULL.1).into_iter().collect();
    assert_eq!(&all, model, "{what}: full window");
    for (k, v) in model {
        assert_eq!(s.get(k), Some(*v), "{what}: get {k:?}");
    }
    // A window over the low octant, and its count.
    let (lo, hi) = ([0; 3], [u64::MAX >> 1; 3]);
    let inside = |k: &Key| (0..3).all(|d| lo[d] <= k[d] && k[d] <= hi[d]);
    let want: Model = model
        .iter()
        .filter(|(k, _)| inside(k))
        .map(|(k, v)| (*k, *v))
        .collect();
    assert_eq!(s.window(&lo, &hi).into_iter().collect::<Model>(), want);
    assert_eq!(s.count(&lo, &hi), want.len(), "{what}: query_count");
    // kNN: the distance profile of a brute-force scan.
    let center = [5, 1 << 62, u64::MAX];
    let dist = |k: &Key| knn::point(&IntEuclidean, &center, k);
    let mut want: Vec<f64> = model.keys().map(dist).collect();
    want.sort_by(f64::total_cmp);
    want.truncate(4);
    let got: Vec<f64> = s.knn(&center, 4).into_iter().map(|e| e.2).collect();
    assert_eq!(got, want, "{what}: knn distance profile");
}

/// The engine conformance walk: every engine path once, in an order
/// that crosses a split, checked against a `BTreeMap` — and that the
/// store's instruments saw it.
fn conformance<S: Store>() {
    let reg = Registry::new();
    let s = S::open(4, &reg);
    let mut model = Model::new();
    // Keys in every shard: the top bit of each dimension picks it.
    let key = |i: u64| {
        [
            ((i % 8) << 61) | i,
            ((i % 3) << 62) | (i * 7),
            ((i % 5) << 61) | (i * 13),
        ]
    };

    // insert / overwrite / remove / get_with.
    for i in 0..40u64 {
        assert_eq!(s.insert(key(i), i as u32), model.insert(key(i), i as u32));
    }
    for i in (0..40u64).step_by(3) {
        assert_eq!(s.insert(key(i), 1000), model.insert(key(i), 1000));
    }
    for i in (0..40u64).step_by(4) {
        assert_eq!(s.remove(&key(i)), model.remove(&key(i)));
        assert_eq!(s.remove(&key(i)), None);
        assert_eq!(s.get(&key(i)), None);
    }
    assert_reads_match(&s, &model, "after single-key writes");

    // A snapshot pinned across a split keeps its cut.
    let frozen = model.clone();
    let snap = s.snapshot();
    let hot = s.stats().hottest().unwrap().0;
    let report = s.split(hot, 1);
    assert_eq!((report.src, report.epoch), (hot, 1));
    assert!(!s.stats().live_slots.contains(&hot));
    assert_reads_match(&s, &model, "after the split");

    // bulk_load into non-empty shards (children included), then into a
    // store whose shards are all empty.
    let batch: Vec<(Key, u32)> = (30..60u64).map(|i| (key(i), 7)).collect();
    let fresh = batch.iter().filter(|(k, _)| !model.contains_key(k)).count();
    assert_eq!(s.bulk(batch.clone()), fresh);
    model.extend(batch.iter().copied());
    assert_reads_match(&s, &model, "after bulk_load into non-empty shards");
    let empty = S::open(4, &Registry::disabled());
    assert_eq!(empty.bulk(batch.clone()), batch.len());
    assert_reads_match(&empty, &batch.iter().copied().collect(), "bulk into empty");

    assert_eq!(snap.epoch(), 0);
    assert_eq!(snap.len(), frozen.len());
    let pinned: Model = snap.query(&FULL.0, &FULL.1).into_iter().collect();
    assert_eq!(pinned, frozen, "snapshot pinned across the split");

    // One set of instruments, whichever store: op counters and
    // latencies, and the pruning tallies behind `stats()`.
    let m = reg.snapshot();
    for (op, n) in [("insert", 54), ("remove", 20), ("bulk_load", 1)] {
        let name = format!("phshard_ops_total{{op=\"{op}\"}}");
        assert_eq!(m.counter(&name), Some(n), "{name}");
        let lat = m.histogram(&format!("phshard_op_latency_ns{{op=\"{op}\"}}"));
        assert_eq!(lat.map(|h| h.count()), Some(n), "{op} latency samples");
    }
    for op in ["get", "query", "query_count", "knn"] {
        let name = format!("phshard_ops_total{{op=\"{op}\"}}");
        assert!(m.counter(&name).unwrap_or(0) > 0, "{name}");
    }
    let before = s.stats();
    assert!(before.shards_scanned > 0 && before.shards_pruned > 0);
    // Five live shards; the box below the hot shard's split plane
    // meets few of them.
    s.count(&[0; 3], &[1; 3]);
    let after = s.stats();
    let scanned = after.shards_scanned - before.shards_scanned;
    let pruned = after.shards_pruned - before.shards_pruned;
    assert_eq!(scanned + pruned, 5, "every live shard scanned or pruned");
    assert!(scanned >= 1 && pruned >= 1);
}

#[test]
fn engine_conformance_in_memory() {
    conformance::<ShardedTree<u32, 3>>();
}

#[test]
fn engine_conformance_durable() {
    conformance::<DurableSharded<u32, 3>>();
}

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
            let sharded: ShardedTree<u32, 3> = ShardedTree::new(shards);
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
            let sharded: ShardedTree<u32, 3> = ShardedTree::new(shards);
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
            let sharded: ShardedTree<u32, 3> = ShardedTree::new(shards);
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
            let bulk: ShardedTree<u32, 3> = ShardedTree::new(shards);
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
            let seq: ShardedTree<u32, 3> = ShardedTree::new(shards);
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

    /// Snapshot consistency on the in-memory store (see
    /// [`snapshot_frozen_at_cut`]).
    #[test]
    fn snapshot_equals_model_frozen_at_cut(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        cut in 0usize..80,
    ) {
        snapshot_frozen_at_cut::<ShardedTree<u32, 3>>(&ops, cut)?;
    }

    /// The same property, same body, on the durable store (WAL-backed
    /// cells publish through the same engine).
    #[test]
    fn durable_snapshot_equals_model_frozen_at_cut(
        ops in proptest::collection::vec(op_strategy(), 1..50),
        cut in 0usize..50,
    ) {
        snapshot_frozen_at_cut::<DurableSharded<u32, 3>>(&ops, cut)?;
    }
}

/// Applies `op` to the store and the oracle; they must answer alike.
fn step<S: Store>(store: &S, oracle: &mut Model, op: &Op) -> Result<(), TestCaseError> {
    match *op {
        Op::Insert(k, v) => prop_assert_eq!(store.insert(k, v), oracle.insert(k, v)),
        Op::Remove(k) => prop_assert_eq!(store.remove(&k), oracle.remove(&k)),
        Op::Get(k) => prop_assert_eq!(store.get(&k), oracle.get(&k).copied()),
    }
    Ok(())
}

/// A snapshot pinned mid-op-stream equals the model frozen at exactly
/// that point — no later write, remove or batch leaks in — across
/// shard counts, while the live store keeps moving past the cut.
fn snapshot_frozen_at_cut<S: Store>(ops: &[Op], cut: usize) -> Result<(), TestCaseError> {
    let cut = cut.min(ops.len());
    for shards in [1usize, 2, 8] {
        let store = S::open(shards, &Registry::disabled());
        let mut oracle = Model::new();
        for op in &ops[..cut] {
            step(&store, &mut oracle, op)?;
        }
        let (snap, frozen) = (store.snapshot(), oracle.clone());
        for op in &ops[cut..] {
            step(&store, &mut oracle, op)?;
        }
        prop_assert_eq!(snap.len(), frozen.len(), "S={} snapshot len", shards);
        let seen: Model = snap.query(&FULL.0, &FULL.1).into_iter().collect();
        prop_assert_eq!(&seen, &frozen, "S={} snapshot contents", shards);
        for op in ops {
            let (Op::Insert(k, _) | Op::Remove(k) | Op::Get(k)) = *op;
            prop_assert_eq!(
                snap.get(&k),
                frozen.get(&k),
                "S={} snapshot get {:?}",
                shards,
                k
            );
        }
        prop_assert_eq!(store.len(), oracle.len(), "S={} live len", shards);
    }
    Ok(())
}
