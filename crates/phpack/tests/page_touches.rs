//! Page touches per kNN, pinned: the search fetches a sub-node's page
//! only when it reaches the sub-node, so a kNN touches the pages along
//! the paths it opens and no others. Fetching every child of every
//! opened node again — what the packed walker did before the shared
//! search — multiplies the count several times over.

use phpack::{pack_tree_in, CacheMode, PackedTree};
use phstore::vfs::MemVfs;
use phtree::PhTree;
use std::path::Path;

const K: usize = 8;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn a_batch_of_knn_touches_no_more_pages_than_recorded() {
    let mut x = 8u64;
    let mut point = || -> [u64; K] { std::array::from_fn(|_| splitmix(&mut x)) };
    let mut live: PhTree<u64, K> = PhTree::new();
    for i in 0..50_000u64 {
        live.insert(point(), i);
    }
    let centres: Vec<[u64; K]> = (0..64).map(|_| point()).collect();

    let vfs = MemVfs::new();
    let path = Path::new("/m/touches.phk");
    pack_tree_in(&live, &vfs, path).unwrap();
    let touches = |mode| {
        let p: PackedTree<u64, K> = PackedTree::open_in(&vfs, path, mode).unwrap();
        for c in &centres {
            assert_eq!(p.knn(c, 10).unwrap().len(), 10);
        }
        p.cache_stats().touches
    };
    // Touches count requests, hits included: the same on both caches,
    // and the same on every run.
    let got = touches(CacheMode::Lru { pages: 64 });
    assert_eq!(got, touches(CacheMode::Resident));
    // Recorded from the change that introduced deferred child fetch;
    // the fetch-every-child walker before it touched 110 923.
    const RECORDED: u64 = 12_968;
    assert!(
        got <= RECORDED,
        "64 kNN(10) touched {got} pages, recorded {RECORDED}"
    );
}
