//! Zero-allocation guarantee for the packed read path, enforced with a
//! counting global allocator: after warm-up, `get`, window `query` and
//! `knn_into` perform **zero** heap allocations per operation, on both
//! cache backends — and a read that does fault a page through the LRU
//! allocates exactly the buffer that gets cached, once.
//!
//! Everything lives in ONE `#[test]`: the allocator counters are
//! process-global and libtest runs separate tests on separate threads.

use measure::alloc_track::{snapshot, CountingAlloc};
use phpack::{pack_tree_in, CacheMode, KnnScratch, PackedNeighbor, PackedTree};
use phstore::vfs::MemVfs;
use phtree::{IntEuclidean, PhTree};
use std::hint::black_box;
use std::path::Path;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const K: usize = 3;
const N: u64 = 3000;

fn dataset() -> Vec<([u64; K], u64)> {
    let mut x = 7u64;
    (0..N)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ([x % 4096, (x >> 20) % 4096, (x >> 40) % 4096], i)
        })
        .collect()
}

/// Runs `ops` twice — once to warm caches and capacity high-water
/// marks, once under measurement — and asserts the measured pass
/// allocated nothing.
fn assert_zero_allocs(label: &str, mut ops: impl FnMut()) {
    ops();
    let before = snapshot();
    ops();
    let after = snapshot();
    assert_eq!(
        after.allocs_since(&before),
        0,
        "{label}: allocations per warmed op batch"
    );
}

#[test]
fn warmed_read_ops_allocate_nothing() {
    let items = dataset();
    let live: PhTree<u64, K> = PhTree::bulk_load(items.clone());
    let vfs = MemVfs::new();
    let path = Path::new("/m/za.phk");
    pack_tree_in(&live, &vfs, path).unwrap();

    let probes: Vec<[u64; K]> = items.iter().map(|(k, _)| *k).take(400).collect();
    let misses: Vec<[u64; K]> = probes.iter().map(|k| [k[0] ^ 1, k[1], k[2] ^ 3]).collect();
    let windows: &[([u64; K], [u64; K])] = &[
        ([0; K], [u64::MAX; K]),
        ([100, 100, 100], [1100, 1100, 1100]),
        ([0, 0, 0], [63, 63, 63]),
    ];

    let resident: PackedTree<u64, K> =
        PackedTree::open_in(&vfs, path, CacheMode::Resident).unwrap();
    let big = resident.data_pages() as usize + 8;
    let lru: PackedTree<u64, K> =
        PackedTree::open_in(&vfs, path, CacheMode::Lru { pages: big }).unwrap();

    for (name, tree) in [("resident", &resident), ("lru-warm", &lru)] {
        assert_zero_allocs(&format!("{name}/get"), || {
            let mut hits = 0usize;
            for k in probes.iter().chain(misses.iter()) {
                if black_box(tree.get(k).unwrap()).is_some() {
                    hits += 1;
                }
            }
            assert_eq!(black_box(hits), probes.len());
        });

        assert_zero_allocs(&format!("{name}/query"), || {
            let mut total = 0usize;
            for (lo, hi) in windows {
                for item in tree.query(lo, hi) {
                    black_box(item.unwrap());
                    total += 1;
                }
            }
            assert!(black_box(total) >= items.len());
        });

        // kNN scratch + output vectors are warmed by the first pass and
        // reused; the measured pass reallocates nothing.
        let mut scratch = KnnScratch::new();
        let mut out: Vec<PackedNeighbor<u64, K>> = Vec::new();
        assert_zero_allocs(&format!("{name}/knn"), || {
            for c in probes.iter().take(50) {
                tree.knn_into(c, 10, &IntEuclidean, &mut scratch, &mut out)
                    .unwrap();
                assert_eq!(black_box(out.len()), 10);
            }
        });
    }
    // A cold LRU (two pages for the whole artifact): every get faults,
    // and each fault is one allocation — the `Arc` the file is read into
    // and the cache keeps.
    let cold: PackedTree<u64, K> =
        PackedTree::open_in(&vfs, path, CacheMode::Lru { pages: 2 }).unwrap();
    let cold_gets = || {
        for k in &probes {
            assert!(black_box(cold.get(k).unwrap()).is_some());
        }
    };
    cold_gets();
    let (faults, before) = (cold.cache_stats().misses, snapshot());
    cold_gets();
    let faults = cold.cache_stats().misses - faults;
    assert!(faults >= probes.len() as u64, "{faults} faults: not cold");
    assert_eq!(
        snapshot().allocs_since(&before) as u64,
        faults,
        "lru-cold/get: allocations per page fault"
    );
}
