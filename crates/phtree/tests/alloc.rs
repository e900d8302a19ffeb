//! Exact-heap verification of the structural space accounting.
//!
//! The paper validates its calculated node sizes against JVM heap
//! measurements (Sect. 4.3.5, within 5 %). We can do better: with a
//! counting global allocator, every heap byte a tree owns is observable
//! as the fall in live bytes when the tree is dropped, and the stats
//! model must match it *exactly* — including capacity slack from
//! amortised vector growth, and including its absence in bulk-loaded
//! or shrunk trees.
//!
//! Everything lives in ONE `#[test]`: the counters are process-global
//! and libtest runs separate tests on separate threads.

use measure::alloc_track::{snapshot, CountingAlloc};
use phtree::{PhTree, ALLOC_OVERHEAD};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn dataset(n: u64) -> Vec<([u64; 3], u64)> {
    let mut x = 7u64;
    (0..n)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ([x % 4096, (x >> 20) % 4096, (x >> 40) % 4096], i)
        })
        .collect()
}

/// Heap bytes and blocks owned by `t`, measured as the live-counter
/// fall across dropping it.
fn measured_heap<T>(t: T) -> (usize, usize) {
    let before = snapshot();
    drop(t);
    let after = snapshot();
    (
        before.live_bytes - after.live_bytes,
        before.live_blocks - after.live_blocks,
    )
}

fn assert_stats_exact(name: &str, stats: phtree::TreeStats, bytes: usize, blocks: usize) {
    assert_eq!(
        stats.allocations, blocks,
        "{name}: allocation count vs live blocks"
    );
    assert_eq!(
        stats.total_bytes - ALLOC_OVERHEAD * stats.allocations,
        bytes,
        "{name}: accounted bytes vs measured heap bytes"
    );
}

#[test]
fn stats_match_measured_heap_exactly() {
    let items = dataset(5000);

    // Bulk-loaded: exact-size construction, zero slack by design.
    let bulk = PhTree::bulk_load(items.clone());
    let bulk_stats = bulk.stats();

    // Reads own no heap: the point descent holds one node at a time and
    // the window walker keeps its frames inline (one `Vec` per query
    // before the walker was shared with the packed reader).
    let before = snapshot();
    let hits = items.iter().filter(|(k, _)| bulk.contains(k)).count();
    let in_box = bulk.query(&[100; 3], &[1100; 3]).count();
    assert_eq!(bulk.iter().count(), bulk.len());
    assert_eq!(snapshot().allocs_since(&before), 0, "reads allocated");
    assert!(hits == items.len() && in_box > 0);
    let (bytes, blocks) = measured_heap(bulk);
    assert_stats_exact("bulk", bulk_stats, bytes, blocks);

    // Sequentially grown: capacity slack is real heap and must be
    // charged, byte for byte.
    let mut seq: PhTree<u64, 3> = PhTree::new();
    for &(k, v) in &items {
        seq.insert(k, v);
    }
    let seq_stats = seq.stats();
    let (bytes, blocks) = measured_heap(seq);
    assert_stats_exact("sequential", seq_stats, bytes, blocks);

    // Shrunk: same contents, slack released; bulk and shrunk-sequential
    // agree exactly (the structure is canonical).
    let mut shrunk: PhTree<u64, 3> = PhTree::new();
    for &(k, v) in &items {
        shrunk.insert(k, v);
    }
    shrunk.shrink_to_fit();
    let shrunk_stats = shrunk.stats();
    assert_eq!(shrunk_stats, bulk_stats, "bulk output carries zero slack");
    let (bytes, blocks) = measured_heap(shrunk);
    assert_stats_exact("shrunk", shrunk_stats, bytes, blocks);
    assert!(shrunk_stats.total_bytes <= seq_stats.total_bytes);
    // One heap block per node, nothing else.
    assert_eq!(bulk_stats.allocations, bulk_stats.nodes);
    assert_eq!(seq_stats.allocations, seq_stats.nodes);

    // K = 20: paged nodes, one more block per segment.
    let mut wide: PhTree<u64, 20> = PhTree::new();
    for (i, (k, _)) in dataset(4000).into_iter().enumerate() {
        let key = std::array::from_fn(|d| k[d % 3].wrapping_mul(d as u64 + 1) << (40 + d));
        wide.insert(key, i as u64);
    }
    let wide_stats = wide.stats();
    assert!(
        wide_stats.allocations > wide_stats.nodes + 50,
        "no paged node"
    );
    let (bytes, blocks) = measured_heap(wide);
    assert_stats_exact("paged", wide_stats, bytes, blocks);

    shrinking_keeps_a_snapshot_shared(&items, bulk_stats);
    a_path_copy_is_one_block_per_level(&items);
}

/// `shrink_to_fit` copies a node shared with another tree version only
/// to release slack: none anywhere, nothing copied.
fn shrinking_keeps_a_snapshot_shared(items: &[([u64; 3], u64)], exact: phtree::TreeStats) {
    let mut bulk = PhTree::bulk_load(items.to_vec());
    let snap = bulk.clone();
    let before = snapshot();
    bulk.shrink_to_fit();
    let after = snapshot();
    assert_eq!(
        after.allocs_since(&before),
        0,
        "slack-free shrink allocated"
    );
    assert_eq!(after.live_bytes, before.live_bytes);
    drop((bulk, snap));

    // Grown by insertion there is slack, and once the snapshot that
    // pinned the slack-carrying blocks is gone, exactly it is released.
    let mut seq: PhTree<u64, 3> = PhTree::new();
    for &(k, v) in items {
        seq.insert(k, v);
    }
    let slack = seq.stats().total_bytes - exact.total_bytes;
    assert!(slack > 0);
    let snap = seq.clone();
    let before = snapshot();
    seq.shrink_to_fit();
    assert!(snapshot().live_bytes < before.live_bytes + exact.total_bytes);
    drop(snap);
    assert_eq!(before.live_bytes - snapshot().live_bytes, slack);
    assert_eq!(seq.stats(), exact);
}

/// Writing to a tree another version shares copies the nodes on the
/// path, one allocation each, and at most one block is new or resized.
fn a_path_copy_is_one_block_per_level(items: &[([u64; 3], u64)]) {
    let mut tree = PhTree::bulk_load(items.to_vec());
    let depth = tree.stats().max_depth;
    for i in 0..200u64 {
        let key = [i * 20 + 3, 4095 - i * 20, (i * 977) % 4096];
        let _snap = tree.clone();
        let before = snapshot();
        tree.insert(key, i);
        let allocs = snapshot().allocs_since(&before);
        assert!(
            allocs <= depth + 1,
            "insert {i}: {allocs} allocations at depth {depth}"
        );
    }

    // 20 k inserts into a 25 k tree, private and then published after
    // every write (before one-block nodes: 4.4 and 20.7 allocations).
    let (base, more) = (dataset(45_000), 25_000);
    for (publish, bound) in [(false, 1.5), (true, 8.0)] {
        let mut tree = PhTree::bulk_load(base[..more].to_vec());
        let mut published = tree.clone();
        let before = snapshot();
        for &(k, v) in &base[more..] {
            tree.insert(k, v);
            if publish {
                published = tree.clone();
            }
        }
        let per_insert = snapshot().allocs_since(&before) as f64 / (base.len() - more) as f64;
        println!("allocations/insert, publish {publish}: {per_insert:.2}");
        assert!(per_insert <= bound, "publish {publish}: {per_insert}");
        drop(published);
    }
}
