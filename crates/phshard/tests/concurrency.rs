//! Concurrency stress: many writers and readers sharing one
//! [`ShardedTree`], plus durable-mode recovery checks.

use phshard::{DurableSharded, ShardedTree};
use phstore::vfs::MemVfs;
use phstore::DurableConfig;
use std::path::Path;
use std::sync::Arc;

#[test]
fn sharded_tree_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedTree<u64, 3>>();
    assert_send_sync::<ShardedTree<String, 2>>();
    assert_send_sync::<DurableSharded<u64, 3>>();
}

/// Writers fill disjoint key ranges while readers continuously run
/// window queries, kNN and point reads. Afterwards the contents must
/// be exactly the union of all writes — nothing lost, nothing torn.
#[test]
fn concurrent_writers_and_readers() {
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 2_000;
    let tree: Arc<ShardedTree<u64, 3>> = Arc::new(ShardedTree::new(8));

    std::thread::scope(|s| {
        for w in 0..WRITERS as u64 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    // Spread across shards: mix high bits from a hash.
                    let h = (w * PER_WRITER + i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let key = [h, h.rotate_left(21), h.rotate_left(42)];
                    assert_eq!(tree.insert(key, w), None, "writers own disjoint keys");
                    if i % 7 == 0 {
                        assert_eq!(tree.get(&key), Some(w), "read-your-write");
                    }
                }
            });
        }
        for _ in 0..3 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                let mut last_len = 0usize;
                for _ in 0..50 {
                    // len never decreases (insert-only workload) —
                    // read-committed still forbids going backwards
                    // past what this thread already observed... per
                    // shard. Cross-shard sums are monotone here since
                    // every shard only grows.
                    let len = tree.len();
                    assert!(len >= last_len, "insert-only len went backwards");
                    last_len = len;
                    let hits = tree.query(&[0; 3], &[u64::MAX >> 1; 3]);
                    assert!(hits.len() <= len);
                    let nn = tree.knn(&[u64::MAX / 2; 3], 3);
                    assert!(nn.len() <= 3);
                }
            });
        }
    });

    assert_eq!(tree.len(), WRITERS * PER_WRITER as usize);
    let stats = tree.stats();
    assert_eq!(stats.entries, WRITERS * PER_WRITER as usize);
    assert_eq!(stats.shards, 8);
    // The hash mixes high bits, so every shard should hold something.
    assert!(
        stats.per_shard.iter().all(|&n| n > 0),
        "routing imbalance: {:?}",
        stats.per_shard
    );
    // Full-space queries scan all shards; the half-space ones prune.
    assert!(stats.shards_scanned > 0);
}

/// Removals racing point reads on other shards: the per-key result is
/// always either the old or the new state, never garbage.
#[test]
fn concurrent_remove_and_get() {
    let tree: Arc<ShardedTree<u64, 2>> = Arc::new(ShardedTree::new(4));
    let n = 4_000u64;
    for i in 0..n {
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        tree.insert([h, h.rotate_left(32)], i);
    }
    std::thread::scope(|s| {
        let remover = Arc::clone(&tree);
        s.spawn(move || {
            for i in (0..n).step_by(2) {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                assert_eq!(remover.remove(&[h, h.rotate_left(32)]), Some(i));
            }
        });
        for _ in 0..3 {
            let reader = Arc::clone(&tree);
            s.spawn(move || {
                for i in (1..n).step_by(2) {
                    let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    // Odd keys are never removed.
                    assert_eq!(reader.get(&[h, h.rotate_left(32)]), Some(i));
                }
            });
        }
    });
    assert_eq!(tree.len(), n as usize / 2);
}

#[test]
fn durable_sharded_recovers_all_shards() {
    let vfs = Arc::new(MemVfs::new());
    let dir = Path::new("/store");
    let cfg = DurableConfig {
        checkpoint_bytes: 1 << 14, // force some checkpoints
        sync_writes: false,
        retry: None,
    };
    let n = 1_000u64;
    {
        let store: DurableSharded<u64, 2> =
            DurableSharded::open_with(vfs.clone(), dir, 4, cfg.clone()).unwrap();
        assert_eq!(store.shards(), 4);
        for i in 0..n {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            store.insert([h, h.rotate_left(32)], i).unwrap();
        }
        for i in (0..n).step_by(3) {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            store.remove(&[h, h.rotate_left(32)]).unwrap();
        }
        store.sync_all().unwrap();
    } // drop without checkpoint: recovery must replay WALs

    let store: DurableSharded<u64, 2> =
        DurableSharded::open_with(vfs.clone(), dir, 4, cfg.clone()).unwrap();
    let expected = (n as usize) - n.div_ceil(3) as usize;
    assert_eq!(store.len(), expected);
    for i in 0..n {
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let want = if i % 3 == 0 { None } else { Some(i) };
        assert_eq!(store.get_with(&[h, h.rotate_left(32)], |v| *v), want);
    }
    assert_eq!(store.recovery_stats().len(), 4);
    // Window queries work over the recovered shards and prune like the
    // in-memory layer.
    let full = store.query(&[0; 2], &[u64::MAX; 2]);
    assert_eq!(full.len(), expected);

    // Shard-count mismatch is refused, not silently misrouted.
    let wrong = DurableSharded::<u64, 2>::open_with(vfs.clone(), dir, 8, cfg);
    assert!(wrong.is_err(), "reopening with 8 shards must fail");
}

#[test]
fn durable_sharded_checkpoint_and_reopen() {
    let vfs = Arc::new(MemVfs::new());
    let dir = Path::new("/cp");
    let cfg = DurableConfig {
        checkpoint_bytes: u64::MAX, // manual checkpoints only
        sync_writes: false,
        retry: None,
    };
    {
        let store: DurableSharded<String, 3> =
            DurableSharded::open_with(vfs.clone(), dir, 2, cfg.clone()).unwrap();
        for i in 0..200u64 {
            store.insert([i << 56, i, i * 3], format!("v{i}")).unwrap();
        }
        let gens = store.checkpoint_all().unwrap();
        assert_eq!(gens.len(), 2);
        assert!(gens.iter().all(|&(_, g)| g >= 1));
    }
    let store: DurableSharded<String, 3> = DurableSharded::open_with(vfs, dir, 2, cfg).unwrap();
    assert_eq!(store.len(), 200);
    // Checkpointed shards replay nothing.
    assert!(store.recovery_stats().iter().all(|r| r.replayed_ops == 0));
    assert_eq!(
        store
            .get_with(&[5u64 << 56, 5, 15], String::clone)
            .as_deref(),
        Some("v5")
    );
}

/// Torn-scan regression: a scan concurrent with batch inserts and
/// online splits must never observe a partially applied batch.
///
/// In-memory, `bulk_load` publishes each shard's partition as one
/// version (per-shard batch atomicity), so batches whose keys co-route
/// — here they share the top 8 bits of every coordinate, more prefix
/// than the router can ever consume (`MAX_DEPTH` = 16 interleaved bits
/// at K=2) — are atomic to snapshots even across splits. Durable,
/// `bulk_load` publishes every involved shard inside one write-clock
/// bracket, so arbitrary cross-shard batches are atomic.
#[test]
fn scans_never_observe_torn_batches() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const B: u64 = 8; // batch size; every item of batch b carries value b
    let check = |got: Vec<([u64; 2], u64)>, layer: &str| {
        let mut counts = std::collections::HashMap::new();
        for (_, v) in got {
            *counts.entry(v).or_insert(0u64) += 1;
        }
        for (b, n) in counts {
            assert_eq!(n, B, "{layer}: scan saw {n}/{B} items of batch {b}");
        }
    };

    // ---- in-memory: co-routed batches + splits ----
    let tree: Arc<ShardedTree<u64, 2>> = Arc::new(ShardedTree::new(4));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                for b in 1..=400u64 {
                    let h = b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let batch: Vec<([u64; 2], u64)> = (0..B)
                        .map(|i| ([(h & !0xFF) | i, h.rotate_left(17)], b))
                        .collect();
                    tree.bulk_load(batch);
                    if b % 80 == 0 {
                        if let Some((hot, _)) = tree.stats().hottest() {
                            let _ = tree.split_shard(hot, 1);
                        }
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        for _ in 0..2 {
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    check(tree.snapshot().query(&[0; 2], &[u64::MAX; 2]), "mem");
                }
            });
        }
    });
    check(tree.query(&[0; 2], &[u64::MAX; 2]), "mem-final");
    assert_eq!(tree.len(), 400 * B as usize);

    // ---- durable: cross-shard batches + splits ----
    let vfs = Arc::new(MemVfs::new());
    let cfg = DurableConfig {
        checkpoint_bytes: u64::MAX,
        sync_writes: false,
        retry: None,
    };
    let store: Arc<DurableSharded<u64, 2>> =
        Arc::new(DurableSharded::open_with(vfs, Path::new("/torn"), 2, cfg).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                for b in 1..=200u64 {
                    let batch: Vec<([u64; 2], u64)> = (0..B)
                        .map(|i| {
                            let h = (b * B + i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            ([h, h.rotate_left(32)], b)
                        })
                        .collect();
                    store.bulk_load(batch).unwrap();
                    if b % 60 == 0 {
                        if let Some((hot, _)) = store.stats().hottest() {
                            let _ = store.split_shard(hot, 1);
                        }
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        for _ in 0..2 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    check(store.snapshot().query(&[0; 2], &[u64::MAX; 2]), "dur");
                }
            });
        }
    });
    check(store.query(&[0; 2], &[u64::MAX; 2]), "dur-final");
    assert_eq!(store.len(), 200 * B as usize);
}

/// Sustained read-under-write stress for CI (run with `-- --ignored`):
/// ≥5 seconds of lock-free readers against a churning writer and a
/// live rebalancer, with the torn-batch assertion running the whole
/// time. Under debug assertions this also exercises the lock counter,
/// the swap cell's reader accounting and the COW tree's internal
/// invariants.
#[test]
#[ignore = "long-running; CI invokes it explicitly"]
fn read_under_write_stress() {
    use phshard::{RebalancePolicy, Rebalancer};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    const B: u64 = 8;
    let tree: Arc<ShardedTree<u64, 2>> = Arc::new(ShardedTree::new(4));
    let policy = RebalancePolicy {
        max_skew: 1.5,
        min_entries: 256,
        split_bits: 1,
        interval: Duration::from_millis(5),
        ..RebalancePolicy::default()
    };
    let rebalancer = Rebalancer::spawn(Arc::clone(&tree), policy);
    let stop = Arc::new(AtomicBool::new(false));
    let batches = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_secs(5);

    std::thread::scope(|s| {
        {
            // Writer: clustered co-routed batches (skewed on purpose so
            // the rebalancer fires), plus point churn with
            // read-your-write checks.
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            let batches = Arc::clone(&batches);
            s.spawn(move || {
                let mut b = 0u64;
                while Instant::now() < deadline {
                    b += 1;
                    // Low top bits: everything clusters under one prefix.
                    let h = b.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 8;
                    let batch: Vec<([u64; 2], u64)> = (0..B)
                        .map(|i| ([(h & !0xFF) | i, h.rotate_left(17)], b))
                        .collect();
                    tree.bulk_load(batch);
                    let probe = [(h & !0xFF) | (B + 1), h.rotate_left(17)];
                    tree.insert(probe, u64::MAX);
                    assert_eq!(tree.get(&probe), Some(u64::MAX), "read-your-write");
                    tree.remove(&probe);
                    batches.store(b, Ordering::Relaxed);
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        for _ in 0..3 {
            // Readers: full scans with the torn-batch assertion, point
            // reads, kNN — all on the lock-free path.
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let snap = tree.snapshot();
                    let mut counts = std::collections::HashMap::new();
                    for (_, v) in snap.query(&[0; 2], &[u64::MAX; 2]) {
                        if v != u64::MAX {
                            *counts.entry(v).or_insert(0u64) += 1;
                        }
                    }
                    for (b, n) in counts {
                        assert_eq!(n, B, "stress: scan saw {n}/{B} items of batch {b}");
                    }
                    tree.knn(&[u64::MAX / 2; 2], 3);
                }
            });
        }
    });
    let reports = rebalancer.stop();
    let b = batches.load(Ordering::Relaxed);
    assert!(b > 0, "writer made no progress");
    assert_eq!(tree.len(), (b * B) as usize, "no entry lost under stress");
    assert!(
        !reports.is_empty(),
        "rebalancer never split under skewed load (skew {})",
        tree.stats().skew()
    );
}
