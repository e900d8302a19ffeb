//! Differential tests aimed at paged LHC nodes: op streams at high `K`,
//! where a few dozen entries fill a page, checked against a `BTreeMap`
//! and brute-force scans. Each stream alternates growing and shrinking
//! phases so its big nodes page, split, merge and unpage repeatedly.

use phtree::PhTree;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Key number `i` of a universe of scattered keys in groups of three.
/// Groups land on distinct root addresses (so the root is one wide
/// node); the members of a group differ only in low bits, so they
/// collide in the root and hang sub-nodes off the paged node.
fn scattered_key<const K: usize>(i: u32) -> [u64; K] {
    let (group, member) = (i / 3, i % 3);
    let mut key: [u64; K] = std::array::from_fn(|d| splitmix(((group as u64) << 8) | d as u64));
    match member {
        0 => {}
        1 => key[0] ^= 1,
        _ => key[group as usize % K] ^= 1 << 40,
    }
    key
}

/// Key number `i < 2^K` of a universe filling the root hypercube:
/// key `i` sits at root address `i`, with arbitrary low bits.
fn root_cube_key<const K: usize>(i: u32) -> [u64; K] {
    std::array::from_fn(|d| {
        let top = ((i >> (K - 1 - d)) & 1) as u64;
        (top << 63) | (splitmix(((i as u64) << 8) | d as u64) >> 1)
    })
}

/// One generated op: what it becomes depends on its phase.
type RawOp = (u32, u32, u32, u32);

/// A stream: phases of (growing?, ops).
fn stream_strategy() -> impl Strategy<Value = Vec<(bool, Vec<RawOp>)>> {
    let op = (0u32..100, any::<u32>(), any::<u32>(), any::<u32>());
    proptest::collection::vec(
        (any::<bool>(), proptest::collection::vec(op, 40..260)),
        2..6,
    )
}

fn brute_window<const K: usize>(
    model: &BTreeMap<[u64; K], u32>,
    min: &[u64; K],
    max: &[u64; K],
) -> Vec<([u64; K], u32)> {
    model
        .iter()
        .filter(|(k, _)| (0..K).all(|d| min[d] <= k[d] && k[d] <= max[d]))
        .map(|(k, v)| (*k, *v))
        .collect()
}

/// Drives `phases` through a tree and a model over the `universe` keys
/// made by `key`, checking every reply and, after every batch of 16
/// ops, the tree's invariants.
fn run_stream<const K: usize>(
    phases: &[(bool, Vec<RawOp>)],
    universe: u32,
    key: fn(u32) -> [u64; K],
) -> Result<(), TestCaseError> {
    let mut tree: PhTree<u32, K> = PhTree::new();
    let mut model: BTreeMap<[u64; K], u32> = BTreeMap::new();
    let mut since_check = 0;
    for (growing, ops) in phases {
        for &(kind, a, b, v) in ops {
            let (ka, kb) = (key(a % universe), key(b % universe));
            // 80 % of a phase's ops push its way, 10 % the other way,
            // the rest read.
            let write = if *growing {
                kind < 80
            } else {
                (80..90).contains(&kind)
            };
            let erase = if *growing {
                (80..90).contains(&kind)
            } else {
                kind < 80
            };
            if write {
                // Inserts of present keys are the overwrites.
                prop_assert_eq!(tree.insert(ka, v), model.insert(ka, v), "insert {:?}", ka);
            } else if erase {
                prop_assert_eq!(tree.remove(&ka), model.remove(&ka), "remove {:?}", ka);
            } else if kind < 95 {
                // A window spanned by two keys in some dimensions (by
                // the bits of `v`), unbounded in the others.
                let min: [u64; K] =
                    std::array::from_fn(|d| if v >> d & 1 == 1 { ka[d].min(kb[d]) } else { 0 });
                let max: [u64; K] = std::array::from_fn(|d| {
                    if v >> d & 1 == 1 {
                        ka[d].max(kb[d])
                    } else {
                        u64::MAX
                    }
                });
                let mut got: Vec<_> = tree.query(&min, &max).map(|(k, v)| (k, *v)).collect();
                got.sort();
                prop_assert_eq!(got, brute_window(&model, &min, &max));
            } else {
                let n = 1 + (v % 12) as usize;
                let got: Vec<f64> = tree.knn(&ka, n).iter().map(|nb| nb.dist).collect();
                let mut want: Vec<f64> = model
                    .keys()
                    .map(|k| {
                        (0..K)
                            .map(|d| (k[d].abs_diff(ka[d]) as f64).powi(2))
                            .sum::<f64>()
                            .sqrt()
                    })
                    .collect();
                want.sort_by(f64::total_cmp);
                want.truncate(n);
                prop_assert_eq!(got, want);
            }
            prop_assert_eq!(tree.get(&ka), model.get(&ka));
            prop_assert_eq!(tree.len(), model.len());
            since_check += 1;
            if since_check == 16 {
                since_check = 0;
                tree.check_invariants();
            }
        }
        tree.check_invariants();
        let got: Vec<_> = tree.iter().map(|(k, v)| (k, *v)).collect();
        prop_assert_eq!(got.len(), model.len());
        let mut sorted = got.clone();
        sorted.sort();
        prop_assert_eq!(
            sorted,
            model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        );
        // The logical form is canonical: a bulk-loaded tree iterates
        // in the same order.
        let bulk = PhTree::bulk_load(got.clone());
        bulk.check_invariants();
        prop_assert_eq!(bulk.iter().map(|(k, v)| (k, *v)).collect::<Vec<_>>(), got);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// K = 16: 32 root entries fill a page.
    #[test]
    fn op_stream_k16(phases in stream_strategy()) {
        run_stream::<16>(&phases, 300, scattered_key)?;
    }

    /// K = 20: 25 root entries fill a page.
    #[test]
    fn op_stream_k20(phases in stream_strategy()) {
        run_stream::<20>(&phases, 300, scattered_key)?;
    }

    /// K = 8: the root pages at 64 entries and turns HC near 253, so a
    /// stream over all 256 root addresses takes it LHC → paged → HC and
    /// back.
    #[test]
    fn op_stream_k8_through_hc(phases in stream_strategy()) {
        // Open with a growing phase long enough to fill the cube.
        let mut phases = phases;
        phases.insert(0, (true, (0..700u32).map(|i| (0, i, i, i)).collect()));
        run_stream::<8>(&phases, 256, root_cube_key)?;
    }
}

/// A clone is a snapshot: 1 000 writes to the original, through paged
/// nodes, leave it exactly as it was.
#[test]
fn snapshot_survives_writes_to_the_original() {
    let mut tree: PhTree<u32, 20> = PhTree::new();
    for i in 0..1500 {
        tree.insert(scattered_key(i), i);
    }
    let snapshot = tree.clone();
    let before: Vec<_> = snapshot.iter().map(|(k, v)| (k, *v)).collect();
    for i in 0..1000u32 {
        match i % 3 {
            0 => tree.insert(scattered_key(1500 + i), i),
            1 => tree.remove(&scattered_key(i)),
            _ => tree.insert(scattered_key(i), !i),
        };
    }
    tree.check_invariants();
    snapshot.check_invariants();
    assert_eq!(snapshot.len(), 1500);
    let after: Vec<_> = snapshot.iter().map(|(k, v)| (k, *v)).collect();
    assert_eq!(before, after);
    assert_ne!(tree, snapshot);
}
