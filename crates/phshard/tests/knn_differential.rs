//! Cross-layer kNN differential: brute force ≡ `PhTree::knn` ≡
//! `Snapshot::knn` at 1, 4 and 8 shards ≡ `PackedShards::knn` on both
//! page-cache backends — compared element by element (key, value,
//! distance bits), which only works because results are sorted by
//! `(distance, key)` at every layer.
//!
//! Keys are small integers under a random top bit per dimension: the
//! small part makes equidistant keys (rings) common, the top bit
//! spreads them over the shards — usually leaving some shards empty —
//! and at that magnitude `f64` rounds nearby distances together, so
//! ties also straddle shard boundaries. The `ties` legs pack every key
//! into eight values per dimension around the middle of the space,
//! where the first routing bits of every dimension flip: exact integer
//! distances, most of them shared, across every shard border at once.
//!
//! A search skips a slot whose quadrant lies beyond its bound, keeps
//! the `n` best by `(distance, key)`, and stops reading a postfix whose
//! first coordinates are already too far; a `>=` where `>` belongs or a
//! lost key tie-break changes which equidistant keys come back, which
//! these comparisons see. `PhTree::knn_within` is also asked for
//! exactly the distance of one of the results: entries on the bound
//! are results.
//!
//! `PROPTEST_CASES` overrides the case count (CI runs 512).

use phpack::CacheMode;
use phshard::{write_packed_checkpoint, PackedShards, ShardedTree};
use phstore::vfs::MemVfs;
use phtree::{knn, IntEuclidean, PhTree};
use proptest::prelude::*;
use std::path::Path;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

fn coord() -> impl Strategy<Value = u64> {
    (0u64..2, 0u64..6).prop_map(|(top, low)| top << 63 | low)
}

/// Centres: among the keys, between the two halves of the space where
/// no key lives, or anywhere.
fn centre_coord() -> impl Strategy<Value = u64> {
    prop_oneof![coord(), (1u64 << 62)..(1u64 << 63), any::<u64>()]
}

/// Eight values straddling the middle of the space.
fn tie_coord() -> impl Strategy<Value = u64> {
    (0u64..8).prop_map(|v| (1 << 63) - 4 + v)
}

type Found<const K: usize> = Vec<([u64; K], u64, f64)>;

fn brute<const K: usize>(keys: &[[u64; K]], centre: &[u64; K], n: usize) -> Found<K> {
    let mut all: Found<K> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (*k, i as u64, knn::point(&IntEuclidean, centre, k)))
        .collect();
    all.sort_by(|a, b| a.2.total_cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
    all.truncate(n);
    all
}

fn same<const K: usize>(got: &Found<K>, want: &Found<K>, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: length", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.0, w.0, "{}: key #{}", what, i);
        prop_assert_eq!(g.1, w.1, "{}: value #{}", what, i);
        prop_assert_eq!(g.2.to_bits(), w.2.to_bits(), "{}: distance #{}", what, i);
    }
    Ok(())
}

fn check<const K: usize>(
    keys: Vec<[u64; K]>,
    centres: Vec<[u64; K]>,
    ns: Vec<usize>,
) -> Result<(), TestCaseError> {
    // Distinct keys; the value is the key's index.
    let mut keys = keys;
    keys.sort();
    keys.dedup();
    let mut tree: PhTree<u64, K> = PhTree::new();
    for (i, k) in keys.iter().enumerate() {
        tree.insert(*k, i as u64);
    }
    let queries: Vec<([u64; K], usize)> = centres
        .iter()
        .flat_map(|c| ns.iter().map(|&n| (*c, n)))
        .chain([(centres[0], 0), (centres[0], keys.len() + 5)])
        .collect();
    let wants: Vec<Found<K>> = queries.iter().map(|(c, n)| brute(&keys, c, *n)).collect();

    let found = |nbs: Vec<phtree::Neighbor<'_, u64, K>>| -> Found<K> {
        nbs.iter().map(|nb| (nb.key, *nb.value, nb.dist)).collect()
    };
    for ((c, n), want) in queries.iter().zip(&wants) {
        same(&found(tree.knn(c, *n)), want, "PhTree")?;
        if let Some(&(_, _, bound)) = want.get(want.len() / 2) {
            let within: Found<K> = want.iter().filter(|w| w.2 <= bound).copied().collect();
            same(&found(tree.knn_within(c, *n, bound)), &within, "knn_within")?;
        }
    }
    for shards in [1usize, 4, 8] {
        let sharded: ShardedTree<u64, K> = ShardedTree::new(shards);
        for (i, k) in keys.iter().enumerate() {
            sharded.insert(*k, i as u64);
        }
        let snap = sharded.snapshot();
        let vfs = MemVfs::new();
        let dir = Path::new("/packed");
        write_packed_checkpoint(&snap, &vfs, dir).unwrap();
        let lru: PackedShards<u64, K> =
            PackedShards::open_in(&vfs, dir, CacheMode::Lru { pages: 2 }).unwrap();
        let resident: PackedShards<u64, K> =
            PackedShards::open_in(&vfs, dir, CacheMode::Resident).unwrap();
        for ((c, n), want) in queries.iter().zip(&wants) {
            same(&snap.knn(c, *n), want, &format!("Snapshot S={shards}"))?;
            same(
                &sharded.knn(c, *n),
                want,
                &format!("ShardedTree S={shards}"),
            )?;
            same(
                &lru.knn(c, *n).unwrap(),
                want,
                &format!("packed LRU S={shards}"),
            )?;
            same(
                &resident.knn(c, *n).unwrap(),
                want,
                &format!("packed resident S={shards}"),
            )?;
        }
    }
    Ok(())
}

macro_rules! differential {
    ($name:ident, $k:literal, $key:expr, $centre:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(cases()))]

            #[test]
            fn $name(
                keys in proptest::collection::vec(std::array::from_fn::<_, $k, _>(|_| $key), 0..160),
                centres in proptest::collection::vec(std::array::from_fn::<_, $k, _>(|_| $centre), 1..4),
                ns in proptest::collection::vec(1usize..24, 1..3),
            ) {
                check::<$k>(keys, centres, ns)?;
            }
        }
    };
}

differential!(knn_agrees_across_layers_k2, 2, coord(), centre_coord());
differential!(knn_agrees_across_layers_k3, 3, coord(), centre_coord());
differential!(knn_agrees_across_layers_k8, 8, coord(), centre_coord());
differential!(knn_agrees_across_layers_k20, 20, coord(), centre_coord());
differential!(
    knn_agrees_across_layers_ties_k2,
    2,
    tie_coord(),
    tie_coord()
);
differential!(
    knn_agrees_across_layers_ties_k3,
    3,
    tie_coord(),
    tie_coord()
);
