//! Differential tests: a packed artifact must answer every query
//! byte-identically to the live tree it was packed from (and both must
//! agree with a `BTreeMap` / brute-force oracle), on both page-cache
//! backends.
//!
//! "Identically" includes *order*: window queries are compared as
//! sequences and kNN as exact (key, distance) sequences, which pins the
//! packed walkers to the live traversal — including heap tie-breaking —
//! not merely to the same result set.

use phpack::{pack_tree_in, CacheMode, PackedTree};
use phstore::vfs::MemVfs;
use phtree::PhTree;
use proptest::prelude::*;
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig, TestCaseError};
use std::collections::BTreeMap;
use std::path::Path;

fn key_strategy<const K: usize>() -> impl Strategy<Value = [u64; K]> {
    prop_oneof![
        // Dense small coordinates: collisions, deep splits.
        std::array::from_fn::<_, K, _>(|_| 0u64..8),
        // High-bit patterns.
        std::array::from_fn::<_, K, _>(|_| 0u64..4).prop_map(|k: [u64; K]| k.map(|v| v << 62)),
        // Arbitrary values (includes boundary cases).
        std::array::from_fn::<_, K, _>(|_| any::<u64>()),
    ]
}

/// Packs `live`, reopens it under `mode`, and checks the full read
/// surface against `live` and the `model` oracle.
fn check_against<const K: usize>(
    live: &PhTree<u64, K>,
    model: &BTreeMap<[u64; K], u64>,
    windows: &[([u64; K], [u64; K])],
    centers: &[[u64; K]],
    mode: CacheMode,
) -> Result<(), TestCaseError> {
    let vfs = MemVfs::new();
    let path = Path::new("/m/t.phk");
    let stats = pack_tree_in(live, &vfs, path).expect("pack");
    prop_assert_eq!(stats.entries as usize, live.len());

    let packed: PackedTree<u64, K> =
        PackedTree::open_in(&vfs, path, mode).expect("open packed artifact");
    prop_assert_eq!(packed.len(), live.len());
    prop_assert_eq!(packed.is_empty(), live.is_empty());

    // Point lookups: every stored key, plus near-miss probes.
    for (k, v) in model {
        prop_assert_eq!(packed.get(k).expect("get"), Some(*v), "get {:?}", k);
        prop_assert!(packed.contains(k).expect("contains"));
        let mut miss = *k;
        miss[0] ^= 1;
        prop_assert_eq!(
            packed.get(&miss).expect("get miss"),
            model.get(&miss).copied(),
            "probe {:?}",
            miss
        );
    }
    prop_assert_eq!(
        packed.get(&[0u64; K]).expect("get zero"),
        model.get(&[0u64; K]).copied()
    );
    prop_assert_eq!(
        packed.get(&[u64::MAX; K]).expect("get max"),
        model.get(&[u64::MAX; K]).copied()
    );

    // Full scan: exact sequence equality with the live iterator.
    let lo = [0u64; K];
    let hi = [u64::MAX; K];
    let got: Vec<([u64; K], u64)> = packed
        .query(&lo, &hi)
        .collect::<Result<_, _>>()
        .expect("full scan");
    let want: Vec<([u64; K], u64)> = live.query(&lo, &hi).map(|(k, &v)| (k, v)).collect();
    prop_assert_eq!(&got, &want, "full-scan order");
    prop_assert_eq!(packed.query_count(&lo, &hi).expect("count"), model.len());

    // Windows: sequence equality with live, count vs brute force.
    for (a, b) in windows {
        let mut min = [0u64; K];
        let mut max = [0u64; K];
        for d in 0..K {
            min[d] = a[d].min(b[d]);
            max[d] = a[d].max(b[d]);
        }
        let got: Vec<([u64; K], u64)> = packed
            .query(&min, &max)
            .collect::<Result<_, _>>()
            .expect("window");
        let want: Vec<([u64; K], u64)> = live.query(&min, &max).map(|(k, &v)| (k, v)).collect();
        prop_assert_eq!(&got, &want, "window order {:?}..{:?}", min, max);
        let brute = model
            .iter()
            .filter(|(k, _)| (0..K).all(|d| min[d] <= k[d] && k[d] <= max[d]))
            .count();
        prop_assert_eq!(got.len(), brute, "window count {:?}..{:?}", min, max);
        prop_assert_eq!(packed.query_count(&min, &max).expect("count"), brute);
    }

    // kNN: exact (key, dist, value) sequence equality — same results,
    // same order, same tie-breaking.
    for c in centers {
        for n in [1usize, 3, model.len()] {
            let got = packed.knn(c, n).expect("knn");
            let want = live.knn(c, n);
            prop_assert_eq!(got.len(), want.len(), "knn len @{:?} n={}", c, n);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.key, w.key, "knn key @{:?} n={}", c, n);
                prop_assert_eq!(g.value, *w.value, "knn value @{:?} n={}", c, n);
                prop_assert!(
                    g.dist.to_bits() == w.dist.to_bits(),
                    "knn dist @{:?} n={}: {} vs {}",
                    c,
                    n,
                    g.dist,
                    w.dist
                );
            }
        }
    }

    // Round trip back to a live tree: full re-validation plus scan
    // equality.
    let rt = packed.to_tree().expect("to_tree");
    rt.check_invariants();
    let rt_scan: Vec<([u64; K], u64)> = rt.query(&lo, &hi).map(|(k, &v)| (k, v)).collect();
    prop_assert_eq!(&rt_scan, &want, "round-trip scan");

    Ok(())
}

fn check_all<const K: usize>(
    items: Vec<([u64; K], u64)>,
    windows: Vec<([u64; K], [u64; K])>,
    centers: Vec<[u64; K]>,
) -> Result<(), TestCaseError> {
    let mut live: PhTree<u64, K> = PhTree::new();
    let mut model: BTreeMap<[u64; K], u64> = BTreeMap::new();
    for (k, v) in &items {
        live.insert(*k, *v);
        model.insert(*k, *v);
    }
    for mode in [
        CacheMode::Resident,
        // Tiny budget: constant eviction churn on every walk.
        CacheMode::Lru { pages: 2 },
        CacheMode::Lru { pages: 64 },
    ] {
        check_against(&live, &model, &windows, &centers, mode)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_matches_live_k3(
        items in proptest::collection::vec((key_strategy::<3>(), any::<u64>()), 0..160),
        windows in proptest::collection::vec((key_strategy::<3>(), key_strategy::<3>()), 1..5),
        centers in proptest::collection::vec(key_strategy::<3>(), 1..4),
    ) {
        check_all::<3>(items, windows, centers)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_matches_live_k8(
        items in proptest::collection::vec((key_strategy::<8>(), any::<u64>()), 0..100),
        windows in proptest::collection::vec((key_strategy::<8>(), key_strategy::<8>()), 1..4),
        centers in proptest::collection::vec(key_strategy::<8>(), 1..3),
    ) {
        check_all::<8>(items, windows, centers)?;
    }

    /// K=20 stays under the HC dimension limit but forces wide LHC
    /// nodes and multi-word addresses.
    #[test]
    fn packed_matches_live_k20(
        items in proptest::collection::vec((key_strategy::<20>(), any::<u64>()), 0..60),
        windows in proptest::collection::vec((key_strategy::<20>(), key_strategy::<20>()), 1..3),
        centers in proptest::collection::vec(key_strategy::<20>(), 1..3),
    ) {
        check_all::<20>(items, windows, centers)?;
    }
}

// ------------------------------------------------- window edges on data

/// A window edge near stored coordinate `v`: on it, one off either way,
/// or on the boundary of a node region around it (its low `b` bits
/// cleared or set). These are where the walker's per-coordinate
/// postfix test and its region test decide.
fn edge(v: u64, b: u32, how: u8) -> u64 {
    let low = phbits::num::low_mask(b);
    match how {
        0 => v,
        1 => v.wrapping_sub(1),
        2 => v.wrapping_add(1),
        3 => v & !low,
        _ => v | low,
    }
}

/// A window corner: which stored key it is near, which edge (see
/// [`edge`]) and `b` per dimension. Two corners span the bounding box
/// of two stored keys, its faces on, beside or around them.
type Edges<const K: usize> = (usize, u8, [u32; K]);

fn check_edges<const K: usize>(
    keys: Vec<[u64; K]>,
    windows: Vec<(Edges<K>, Edges<K>)>,
) -> Result<(), TestCaseError> {
    let model: BTreeMap<[u64; K], u64> = keys.iter().zip(0..).map(|(k, i)| (*k, i)).collect();
    let live = PhTree::bulk_load(model.iter().map(|(k, v)| (*k, *v)).collect());
    let vfs = MemVfs::new();
    let path = Path::new("/m/edges.phk");
    pack_tree_in(&live, &vfs, path).expect("pack");
    let packed: PackedTree<u64, K> =
        PackedTree::open_in(&vfs, path, CacheMode::Lru { pages: 2 }).expect("open");
    let corner = |e: &Edges<K>| -> [u64; K] {
        std::array::from_fn(|d| edge(keys[e.0 % keys.len()][d], e.2[d], e.1))
    };
    for (a, b) in &windows {
        let (a, b) = (corner(a), corner(b));
        let min: [u64; K] = std::array::from_fn(|d| a[d].min(b[d]));
        let max: [u64; K] = std::array::from_fn(|d| a[d].max(b[d]));
        let want: Vec<([u64; K], u64)> = model
            .iter()
            .filter(|(k, _)| (0..K).all(|d| min[d] <= k[d] && k[d] <= max[d]))
            .map(|(k, v)| (*k, *v))
            .collect();
        let mut got: Vec<([u64; K], u64)> = live.query(&min, &max).map(|(k, &v)| (k, v)).collect();
        let from_pages: Vec<([u64; K], u64)> = packed
            .query(&min, &max)
            .collect::<Result<_, _>>()
            .expect("window");
        prop_assert_eq!(&from_pages, &got, "packed order {:?}..{:?}", min, max);
        got.sort_unstable();
        prop_assert_eq!(&got, &want, "window {:?}..{:?}", min, max);
    }
    Ok(())
}

macro_rules! window_edges {
    ($name:ident, $k:literal, $cases:literal) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases($cases))]

            #[test]
            fn $name(
                keys in proptest::collection::vec(key_strategy::<$k>(), 1..120),
                windows in proptest::collection::vec(
                    std::array::from_fn::<_, 2, _>(|_| {
                        (any::<usize>(), 0u8..5, std::array::from_fn::<_, $k, _>(|_| 0u32..64))
                    }),
                    1..6,
                ),
            ) {
                check_edges::<$k>(keys, windows.into_iter().map(|[a, b]| (a, b)).collect())?;
            }
        }
    };
}

window_edges!(window_edges_on_stored_values_k1, 1, 64);
window_edges!(window_edges_on_stored_values_k3, 3, 64);
window_edges!(window_edges_on_stored_values_k8, 8, 48);
window_edges!(window_edges_on_stored_values_k20, 20, 24);

// ------------------------------------------------------------ edge cases

#[test]
fn empty_tree_round_trips() {
    let live: PhTree<u64, 3> = PhTree::new();
    let vfs = MemVfs::new();
    let path = Path::new("/m/empty.phk");
    let stats = pack_tree_in(&live, &vfs, path).unwrap();
    assert_eq!(stats.entries, 0);
    assert_eq!(stats.nodes, 0);
    for mode in [CacheMode::Resident, CacheMode::Lru { pages: 2 }] {
        let p: PackedTree<u64, 3> = PackedTree::open_in(&vfs, path, mode).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.get(&[1, 2, 3]).unwrap(), None);
        assert!(!p.contains(&[0, 0, 0]).unwrap());
        assert_eq!(p.query(&[0; 3], &[u64::MAX; 3]).count(), 0);
        assert_eq!(p.knn(&[5; 3], 4).unwrap().len(), 0);
        assert_eq!(p.to_tree().unwrap().len(), 0);
    }
}

#[test]
fn singleton_and_duplicate_heavy() {
    let mut live: PhTree<u64, 3> = PhTree::new();
    live.insert([7, 8, 9], 1);
    for i in 0..50 {
        live.insert([7, 8, 9], i); // same key, value overwritten
    }
    assert_eq!(live.len(), 1);
    let vfs = MemVfs::new();
    let path = Path::new("/m/one.phk");
    pack_tree_in(&live, &vfs, path).unwrap();
    for mode in [CacheMode::Resident, CacheMode::Lru { pages: 1 }] {
        let p: PackedTree<u64, 3> = PackedTree::open_in(&vfs, path, mode).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(&[7, 8, 9]).unwrap(), Some(49));
        assert_eq!(p.get(&[7, 8, 8]).unwrap(), None);
        let hits: Vec<_> = p
            .query(&[0; 3], &[u64::MAX; 3])
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(hits, vec![([7, 8, 9], 49)]);
        let nn = p.knn(&[0; 3], 2).unwrap();
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].key, [7, 8, 9]);
    }
}

/// Variable-width values (strings) force the non-uniform value path:
/// sequential skip-decode instead of O(1) striding.
#[test]
fn string_values_non_uniform_path() {
    let mut live: PhTree<String, 3> = PhTree::new();
    for i in 0u64..200 {
        let k = [i % 17, (i * 7) % 23, i];
        live.insert(k, "x".repeat((i % 11) as usize));
    }
    let vfs = MemVfs::new();
    let path = Path::new("/m/strs.phk");
    pack_tree_in(&live, &vfs, path).unwrap();
    for mode in [CacheMode::Resident, CacheMode::Lru { pages: 3 }] {
        let p: PackedTree<String, 3> = PackedTree::open_in(&vfs, path, mode).unwrap();
        assert_eq!(p.len(), live.len());
        for (k, v) in live.query(&[0; 3], &[u64::MAX; 3]) {
            assert_eq!(p.get(&k).unwrap().as_deref(), Some(v.as_str()));
        }
        let got: Vec<_> = p
            .query(&[0; 3], &[u64::MAX; 3])
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        let want: Vec<_> = live
            .query(&[0; 3], &[u64::MAX; 3])
            .map(|(k, v)| (k, v.clone()))
            .collect();
        assert_eq!(got, want);
        let rt = p.to_tree().unwrap();
        rt.check_invariants();
        assert_eq!(rt.len(), live.len());
    }
}

/// Unit values encode to zero bytes (uniform stride 0) — the degenerate
/// end of the fixed-width path.
#[test]
fn unit_values_zero_stride() {
    let mut live: PhTree<(), 3> = PhTree::new();
    for i in 0u64..100 {
        live.insert([i, i * 3 % 31, i % 5], ());
    }
    let vfs = MemVfs::new();
    let path = Path::new("/m/unit.phk");
    pack_tree_in(&live, &vfs, path).unwrap();
    let p: PackedTree<(), 3> = PackedTree::open_in(&vfs, path, CacheMode::Resident).unwrap();
    assert_eq!(p.len(), live.len());
    assert_eq!(p.query_count(&[0; 3], &[u64::MAX; 3]).unwrap(), live.len());
    assert_eq!(p.get(&[1, 3, 1]).unwrap(), Some(()));
}

/// A paged live node across the format boundary. PHPACK01 stores a
/// node's *logical* bit string, so a root cut into segments in memory
/// must pack to the record a flat node would, and the packed scan
/// (one index) must yield what the live scan (index + segment
/// iterator) yields, wherever the window's `m_l` lands.
#[test]
fn paged_root_packs_to_its_logical_form_k20() {
    const K: usize = 20;
    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    // Key `i` sits at root address `i` (the recipe of
    // `phtree/tests/paged.rs::root_cube_key`): 240 entries of ~160
    // bytes each in one root, ten times the 4 KiB page.
    let cube_key = |i: u64| -> [u64; K] {
        std::array::from_fn(|d| {
            let top = (i >> (K - 1 - d)) & 1;
            (top << 63) | (splitmix((i << 8) | d as u64) >> 1)
        })
    };
    let mut live: PhTree<u64, K> = PhTree::new();
    let mut model: BTreeMap<[u64; K], u64> = BTreeMap::new();
    // Inserted out of address order, so segments split where the
    // update order puts them; every fifth key gets a sibling that
    // collides with it in the root and hangs a sub-node off a segment.
    for j in 0..240u64 {
        let i = j * 77 % 240;
        let key = cube_key(i);
        live.insert(key, i);
        model.insert(key, i);
        if i % 5 == 0 {
            let mut sibling = key;
            sibling[3] ^= 1 << 17;
            live.insert(sibling, 1000 + i);
            model.insert(sibling, 1000 + i);
        }
    }
    live.check_invariants();
    let stats = live.stats();
    // Every node is one heap block, and a paged one has one more per
    // segment.
    assert!(
        stats.allocations - stats.nodes >= 3,
        "root must be paged into >= 3 segments: {stats:?}"
    );

    // Root addresses in use are 0..240: dimensions 12..20 decide, the
    // others are in their lower half. `m_l = a` starts the scan at
    // address `a`, inside whichever segment covers it, and runs across
    // every later boundary; clearing bits of `m_u` makes it skip
    // through the segments instead.
    let bit = |a: u64, d: usize| (a >> (K - 1 - d)) & 1 == 1;
    let lo = |a: u64| -> [u64; K] { std::array::from_fn(|d| (bit(a, d) as u64) << 63) };
    let hi = |a: u64| -> [u64; K] { lo(a).map(|v| v | (u64::MAX >> 1)) };
    let mut windows = vec![([0u64; K], [u64::MAX; K])];
    for a in [1u64, 2, 37, 64, 100, 129, 200, 239] {
        windows.push((lo(a), [u64::MAX; K]));
        windows.push(([0u64; K], hi(a)));
        // Four addresses, and a cut through the postfixes of dimension 0.
        let (mut min, max) = (lo(a & !3), hi(a | 3));
        min[0] = 1 << 61;
        windows.push((min, max));
    }
    for (min, max) in &windows {
        let inside = |k: &[u64; K]| (0..K).all(|d| min[d] <= k[d] && k[d] <= max[d]);
        assert!(model.keys().any(inside), "empty window {min:?}..{max:?}");
    }
    let centers: Vec<[u64; K]> = [0u64, 100, 239].map(cube_key).to_vec();
    for mode in [CacheMode::Resident, CacheMode::Lru { pages: 2 }] {
        check_against(&live, &model, &windows, &centers, mode).unwrap();
        // The artifact shows no paging: unpacked, it is the tree a
        // bulk load builds.
        let vfs = MemVfs::new();
        let path = Path::new("/m/paged.phk");
        pack_tree_in(&live, &vfs, path).unwrap();
        let packed: PackedTree<u64, K> = PackedTree::open_in(&vfs, path, mode).unwrap();
        let bulk = PhTree::bulk_load(model.iter().map(|(k, v)| (*k, *v)).collect());
        assert_eq!(packed.to_tree().unwrap().stats(), bulk.stats());
    }
}
