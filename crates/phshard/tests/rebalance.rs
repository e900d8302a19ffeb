//! Online rebalancing: skew statistics, live hot-shard splits on both
//! layers, write shedding under a full migration backlog, and the
//! background [`Rebalancer`] splitting under concurrent traffic.

use phmetrics::Registry;
use phshard::{
    DurableSharded, RebalancePolicy, Rebalancer, ShardError, ShardedTree, SkewReport, Splittable,
};
use phstore::vfs::MemVfs;
use phstore::DurableConfig;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn config() -> DurableConfig {
    DurableConfig {
        checkpoint_bytes: u64::MAX,
        sync_writes: false,
        retry: None,
    }
}

/// Clustered keys: everything under one top-bit prefix, so the
/// uniform router piles the whole load onto one shard.
fn clustered(n: u64) -> impl Iterator<Item = ([u64; 2], u32)> {
    (0..n).map(|i| {
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 3; // top bits clear
        ([h >> 32, h & 0xFFFF_FFFF], i as u32)
    })
}

// ---------------------------------------------------- skew edge cases

#[test]
fn skew_of_empty_tree_is_one() {
    let t: ShardedTree<u32, 2> = ShardedTree::new(4);
    let s = t.stats();
    assert_eq!(s.skew(), 1.0);
    assert_eq!(s.hottest(), None);
}

#[test]
fn skew_of_single_nonempty_shard_is_shard_count() {
    let t: ShardedTree<u32, 2> = ShardedTree::new(4);
    // Both keys route to slot 0 (top Z-bits 00).
    t.insert([1, 1], 1);
    t.insert([2, 2], 2);
    let s = t.stats();
    assert_eq!(s.skew(), 4.0, "all load on one of four shards");
    assert_eq!(s.hottest(), Some((0, 2)));
}

#[test]
fn skew_of_equal_shards_is_one() {
    let t: ShardedTree<u32, 2> = ShardedTree::new(4);
    // One key per quadrant: slots 0..4 get exactly one entry each.
    t.insert([0, 0], 0);
    t.insert([0, u64::MAX], 1);
    t.insert([u64::MAX, 0], 2);
    t.insert([u64::MAX, u64::MAX], 3);
    let s = t.stats();
    assert_eq!(s.per_shard, vec![1, 1, 1, 1]);
    assert_eq!(s.skew(), 1.0);
}

#[test]
fn skew_with_one_shard_is_always_one() {
    let t: ShardedTree<u32, 2> = ShardedTree::new(1);
    for (k, v) in clustered(100) {
        t.insert(k, v);
    }
    assert_eq!(t.stats().skew(), 1.0, "S=1 cannot be skewed");
}

#[test]
fn skew_report_mirrors_shard_stats() {
    let t: ShardedTree<u32, 2> = ShardedTree::new(4);
    for (k, v) in clustered(50) {
        t.insert(k, v);
    }
    let stats = t.stats();
    let report = SkewReport::from(&stats);
    assert_eq!(report.skew(), stats.skew());
    assert_eq!(report.hottest(), stats.hottest());
    assert_eq!(report.epoch, stats.epoch);
}

// ------------------------------------------- in-memory split behavior

#[test]
fn in_memory_split_preserves_contents_and_queries() {
    let t: ShardedTree<u32, 2> = ShardedTree::new(2);
    let mut model = BTreeMap::new();
    for (k, v) in clustered(500) {
        t.insert(k, v);
        model.insert(k, v);
    }
    // A ring of equidistant keys around [1000, 1000]: which of them a
    // kNN returns must not depend on the shard layout either.
    for (i, k) in [[997u64, 1000], [1003, 1000], [1000, 997], [1000, 1003]]
        .into_iter()
        .enumerate()
    {
        t.insert(k, 1_000 + i as u32);
        model.insert(k, 1_000 + i as u32);
    }
    assert!(t.stats().skew() > 1.9, "clustered keys must skew");
    let (hot, _) = t.stats().hottest().unwrap();

    let before = t.snapshot();
    let report = t.split_shard(hot, 1).unwrap();
    assert_eq!(report.src, hot);
    assert_eq!(report.children.len(), 2);
    assert_eq!(report.migrated, model.len());
    assert_eq!(report.epoch, 1);

    let s = t.stats();
    assert_eq!(s.epoch, 1);
    assert_eq!(s.shards, 3);
    assert!(!s.live_slots.contains(&hot), "parent slot retired");

    // Every key still readable, full query identical, kNN sane.
    assert_eq!(t.len(), model.len());
    for (k, &v) in &model {
        assert_eq!(t.get(k), Some(v));
    }
    let mut got = t.query(&[0, 0], &[u64::MAX, u64::MAX]);
    got.sort();
    let mut want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
    want.sort();
    assert_eq!(got, want);
    // kNN lists are a function of the contents, not of the topology: a
    // snapshot pinned before the split and one taken after it agree
    // element for element.
    let after = t.snapshot();
    assert_eq!((before.shards(), after.shards()), (2, 3));
    for c in [[0u64, 0], [1000, 1000], [1 << 28, 1 << 31], [u64::MAX; 2]] {
        for n in [1usize, 2, 5, 40] {
            let nn = after.knn(&c, n);
            assert_eq!(nn.len(), n);
            assert_eq!(before.knn(&c, n), nn, "centre {c:?} n {n}");
        }
    }

    // A second split of one child deepens further.
    let (hot2, _) = t.stats().hottest().unwrap();
    let r2 = t.split_shard(hot2, 2).unwrap();
    assert_eq!(r2.children.len(), 4);
    assert_eq!(t.stats().epoch, 2);
    assert_eq!(t.len(), model.len());
}

#[test]
fn split_errors_are_typed() {
    let t: ShardedTree<u32, 2> = ShardedTree::new(2);
    t.insert([1, 1], 1);
    assert!(matches!(
        t.split_shard(99, 1),
        Err(ShardError::UnknownSlot { slot: 99 })
    ));
    assert!(matches!(
        t.split_shard(0, 0),
        Err(ShardError::SplitDepth { .. })
    ));
    let report = t.split_shard(0, 1).unwrap();
    // The retired parent can no longer be split.
    assert!(matches!(
        t.split_shard(0, 1),
        Err(ShardError::UnknownSlot { slot: 0 })
    ));
    // But its children can.
    t.split_shard(report.children[0], 1).unwrap();
}

// --------------------------------------------- durable split behavior

#[test]
fn durable_split_preserves_contents_across_reopen() {
    let vfs = Arc::new(MemVfs::new());
    let dir = Path::new("/db");
    let mut model = BTreeMap::new();
    {
        let store: DurableSharded<u32, 2> =
            DurableSharded::open_with(vfs.clone(), dir, 2, config()).unwrap();
        for (k, v) in clustered(400) {
            store.insert(k, v).unwrap();
            model.insert(k, v);
        }
        let (hot, _) = store.stats().hottest().unwrap();
        let report = store.split_shard(hot, 1).unwrap();
        assert_eq!(report.migrated, model.len());
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.len(), model.len());
        // Writes after the split land on the children.
        store.insert([1u64 << 63, 7], 9999).unwrap();
        model.insert([1u64 << 63, 7], 9999);
        store.sync_all().unwrap();
    }
    let store: DurableSharded<u32, 2> = DurableSharded::open_with(vfs, dir, 2, config()).unwrap();
    assert_eq!(store.epoch(), 1, "epoch persists");
    assert_eq!(store.len(), model.len());
    for (k, &v) in &model {
        assert_eq!(store.get_with(k, |got| *got), Some(v));
    }
    let got = store.query(&[0, 0], &[u64::MAX, u64::MAX]);
    assert_eq!(got.len(), model.len());
}

#[test]
fn staged_split_backlogs_writes_and_drains_at_commit() {
    let vfs = Arc::new(MemVfs::new());
    let store: DurableSharded<u32, 2> =
        DurableSharded::open_with(vfs, Path::new("/db"), 2, config()).unwrap();
    for (k, v) in clustered(100) {
        store.insert(k, v).unwrap();
    }
    let pending = store.begin_split(0, 1).unwrap();
    assert_eq!(pending.src(), 0);
    // Writes during the migration are acknowledged and readable.
    for i in 0..50u64 {
        store.insert([i, 1 << 40 | i], 7000 + i as u32).unwrap();
    }
    assert_eq!(store.get_with(&[3, 1 << 40 | 3], |v| *v), Some(7003));
    let report = store.commit_split(pending).unwrap();
    assert_eq!(report.backlog_drained, 50, "mid-migration writes drained");
    assert_eq!(store.len(), 150);
    assert_eq!(store.get_with(&[3, 1 << 40 | 3], |v| *v), Some(7003));
}

#[test]
fn full_backlog_sheds_with_typed_overloaded() {
    let vfs = Arc::new(MemVfs::new());
    let store: DurableSharded<u32, 2> =
        DurableSharded::open_with(vfs, Path::new("/db"), 2, config()).unwrap();
    for (k, v) in clustered(50) {
        store.insert(k, v).unwrap();
    }
    store.set_backlog_capacity(4);
    let pending = store.begin_split(0, 1).unwrap();
    for i in 0..4u64 {
        store.insert([i, 1 << 40], i as u32).unwrap();
    }
    // Fifth mid-migration write overflows the backlog: typed shed,
    // nothing journaled, reads unaffected.
    let err = store.insert([99, 1 << 40], 99).expect_err("must shed");
    assert!(
        matches!(
            err,
            ShardError::Overloaded {
                slot: 0,
                backlog: 4
            }
        ),
        "got {err}"
    );
    assert_eq!(store.get_with(&[99, 1 << 40], |v| *v), None);
    assert_eq!(store.get_with(&[2, 1 << 40], |v| *v), Some(2));
    store.commit_split(pending).unwrap();
    // After the commit the same write is accepted.
    store.insert([99, 1 << 40], 99).unwrap();
    assert_eq!(store.len(), 55);
}

#[test]
fn abort_split_restores_pre_split_serving() {
    let vfs = Arc::new(MemVfs::new());
    let store: DurableSharded<u32, 2> =
        DurableSharded::open_with(vfs, Path::new("/db"), 2, config()).unwrap();
    for (k, v) in clustered(100) {
        store.insert(k, v).unwrap();
    }
    let pending = store.begin_split(0, 1).unwrap();
    store.insert([5, 1 << 41], 555).unwrap(); // backlogged
    store.abort_split(pending).unwrap();
    assert_eq!(store.epoch(), 0, "abort keeps the old topology");
    assert_eq!(store.len(), 101, "backlogged write survives the abort");
    assert_eq!(store.get_with(&[5, 1 << 41], |v| *v), Some(555));
    // The slot is immediately splittable again.
    store.split_shard(0, 1).unwrap();
    assert_eq!(store.len(), 101);
}

// ------------------------------------------------ rebalancer end-to-end

#[test]
fn rebalancer_splits_hot_shard_under_traffic() {
    let registry = Registry::new();
    let t: Arc<ShardedTree<u32, 2>> = Arc::new(ShardedTree::with_metrics(4, &registry));
    let policy = RebalancePolicy {
        max_skew: 1.5,
        min_entries: 64,
        split_bits: 1,
        interval: Duration::from_millis(1),
        ..RebalancePolicy::default()
    };
    let rebalancer = Rebalancer::spawn(Arc::clone(&t), policy);

    // Clustered ingest from two writer threads while the rebalancer
    // watches: every key lands under one top prefix.
    std::thread::scope(|scope| {
        for w in 0..2u64 {
            let t = Arc::clone(&t);
            scope.spawn(move || {
                for i in 0..3_000u64 {
                    let h = (w * 3_000 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 2;
                    t.insert([h >> 32, h & 0xFFFF_FFFF], i as u32);
                    if i % 64 == 0 {
                        // Reads keep flowing mid-split.
                        t.query(&[0, 0], &[1 << 30, 1 << 30]);
                    }
                }
            });
        }
        // Give the rebalancer a few sampling intervals under load.
        std::thread::sleep(Duration::from_millis(40));
    });
    let reports = rebalancer.stop();
    assert!(
        !reports.is_empty(),
        "rebalancer never split a hot shard (skew {})",
        t.stats().skew()
    );
    assert_eq!(t.len(), 6_000, "no entry lost across live splits");
    assert_eq!(t.stats().epoch, reports.last().unwrap().epoch);
    // Splits are visible to the metrics registry.
    let dump = registry.render_prometheus();
    assert!(
        dump.contains("phshard_rebalance_splits_total"),
        "rebalance instruments missing:\n{dump}"
    );
}

#[test]
fn rebalancer_is_quiescent_on_balanced_load() {
    let t: Arc<ShardedTree<u32, 2>> = Arc::new(ShardedTree::new(4));
    for i in 0..1_000u64 {
        // Spread across all four quadrants evenly.
        let q = i % 4;
        t.insert([(q >> 1) << 63 | i, (q & 1) << 63 | i], i as u32);
    }
    let policy = RebalancePolicy {
        max_skew: 2.0,
        min_entries: 64,
        interval: Duration::from_millis(1),
        ..RebalancePolicy::default()
    };
    let rebalancer = Rebalancer::spawn(Arc::clone(&t), policy);
    std::thread::sleep(Duration::from_millis(20));
    let reports = rebalancer.stop();
    assert!(reports.is_empty(), "balanced load must not trigger splits");
    assert_eq!(t.stats().epoch, 0);
}

#[test]
fn rebalancer_drives_durable_store() {
    let vfs = Arc::new(MemVfs::new());
    let store: Arc<DurableSharded<u32, 2>> =
        Arc::new(DurableSharded::open_with(vfs, Path::new("/db"), 2, config()).unwrap());
    for (k, v) in clustered(2_000) {
        store.insert(k, v).unwrap();
    }
    assert!(store.skew_report().skew() > 1.9);
    let policy = RebalancePolicy {
        max_skew: 1.5,
        min_entries: 128,
        interval: Duration::from_millis(1),
        ..RebalancePolicy::default()
    };
    let rebalancer = Rebalancer::spawn(Arc::clone(&store), policy);
    std::thread::sleep(Duration::from_millis(50));
    let reports = rebalancer.stop();
    assert!(!reports.is_empty(), "durable hot shard never split");
    assert!(store.epoch() > 0);
    assert_eq!(store.len(), 2_000);
}
