//! Page touches per kNN, pinned: the search fetches a sub-node's page
//! only when it reaches the sub-node, so a kNN touches the pages along
//! the paths it opens and no others. Fetching every child of every
//! opened node again — what the packed walker did before the shared
//! search — multiplies the count several times over.
//!
//! Page touches per window, pinned too: the window walker fetches every
//! sub-node its masks admit, and the masks admit exactly the quadrants
//! that meet the box, so nearly every fetch finds a region the box
//! intersects. How many of those touches miss the LRU is pinned beside
//! it: the cache keeps exact least-recently-used order however it finds
//! its victim.

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

/// The seeded 50 k tree, packed into `vfs` at the returned path, and
/// 64 more points of the same stream to query around.
fn packed_tree(vfs: &MemVfs) -> (&'static Path, Vec<[u64; K]>) {
    let mut x = 8u64;
    let mut point = || -> [u64; K] { std::array::from_fn(|_| splitmix(&mut x)) };
    let mut live: PhTree<u64, K> = PhTree::new();
    for i in 0..50_000u64 {
        live.insert(point(), i);
    }
    let centres: Vec<[u64; K]> = (0..64).map(|_| point()).collect();
    let path = Path::new("/m/touches.phk");
    pack_tree_in(&live, vfs, path).unwrap();
    (path, centres)
}

/// A packed artifact holds each node's logical form in descent order:
/// its bytes depend on the tree's contents, never on how the live
/// nodes were laid out in memory. Recorded before nodes became single
/// heap blocks.
#[test]
fn packed_bytes_are_golden() {
    let vfs = MemVfs::new();
    let (path, _) = packed_tree(&vfs);
    assert_eq!(
        phstore::fnv1a(&vfs.read_file(path).unwrap()),
        5389609329144008752
    );
}

#[test]
fn a_batch_of_knn_touches_no_more_pages_than_recorded() {
    let vfs = MemVfs::new();
    let (path, centres) = packed_tree(&vfs);
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
    // the fetch-every-child walker before it touched 110 923. The
    // quadrant table decides from the parent alone which slots to read,
    // so it fetches exactly the pages the search before it did.
    const RECORDED: u64 = 12_968;
    assert!(
        got <= RECORDED,
        "64 kNN(10) touched {got} pages, recorded {RECORDED}"
    );
}

#[test]
fn a_batch_of_windows_touches_exactly_the_recorded_pages() {
    let vfs = MemVfs::new();
    let (path, centres) = packed_tree(&vfs);
    // Boxes of 3/8 of the key range per side: about eight hits each.
    const HALF: u64 = 3 << 60;
    let touches = |mode| {
        let p: PackedTree<u64, K> = PackedTree::open_in(&vfs, path, mode).unwrap();
        let mut hits = 0;
        for c in &centres {
            let min = c.map(|v| v.saturating_sub(HALF));
            let max = c.map(|v| v.saturating_add(HALF));
            hits += p.query_count(&min, &max).unwrap();
        }
        let stats = p.cache_stats();
        (hits, stats.touches, stats.misses)
    };
    let (hits, touched, faults) = touches(CacheMode::Lru { pages: 64 });
    assert_eq!((hits, touched, 0), touches(CacheMode::Resident));
    // Recorded at the commit before the window walker moved onto the
    // shared node seam; neither that move nor testing postfixes a
    // coordinate at a time may change which pages a window reads.
    assert_eq!(
        (hits, touched),
        (501, 5_692),
        "64 windows: (hits, page touches)"
    );
    // Which of those touches fault is the eviction order's doing: exact
    // LRU at 64 pages, recorded from the stamp-scanning cache that the
    // linked recency list replaced.
    assert_eq!(faults, 2_285, "64 windows: extents read from the file");
}
