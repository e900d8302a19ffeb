//! Integration tests for the serving layer's instrument wiring and
//! the `ShardStats::skew` routing diagnostic.

use phmetrics::Registry;
use phshard::{DurableSharded, ShardedTree};
use phstore::vfs::MemVfs;
use phstore::DurableConfig;
use std::path::Path;
use std::sync::Arc;

#[test]
fn clustered_keys_provably_skew_the_router() {
    // The Z-prefix router shards on the *top* interleaved bits. Keys
    // clustered in the low half of every dimension share the top bit
    // pattern 0...0, so every one of them routes to shard 0 — the
    // router's provable worst case.
    let shards = 8;
    let t: ShardedTree<u32, 2> = ShardedTree::new(shards);
    for i in 0..400u64 {
        t.insert([i, i * 31 % 997], i as u32); // all far below 2^63
    }
    let stats = t.stats();
    assert_eq!(stats.per_shard[0], stats.entries, "all keys on shard 0");
    assert_eq!(stats.skew(), shards as f64, "max/mean == shard count");

    // Spreading keys across all top-bit prefixes balances the router:
    // one key per 3-bit Z-prefix per round. For K=2 the first three
    // interleaved bits are (d0 bit63, d1 bit63, d0 bit62).
    let u: ShardedTree<u32, 2> = ShardedTree::new(shards);
    for i in 0..400u64 {
        let p = i % 8;
        let d0 = ((p >> 2) & 1) << 63 | (p & 1) << 62;
        let d1 = ((p >> 1) & 1) << 63;
        u.insert([d0 | i, d1 | i], i as u32);
    }
    let stats = u.stats();
    assert!(
        stats.per_shard.iter().all(|&n| n == stats.entries / shards),
        "balanced: {:?}",
        stats.per_shard
    );
    assert_eq!(stats.skew(), 1.0);

    // Empty tree: skew defined as 1.0 (no imbalance).
    let e: ShardedTree<u32, 2> = ShardedTree::new(shards);
    assert_eq!(e.stats().skew(), 1.0);
}

#[test]
fn sharded_tree_records_into_registry() {
    let reg = Registry::new();
    let t: ShardedTree<u64, 3> = ShardedTree::with_metrics(4, &reg);

    for i in 0..100u64 {
        t.insert([i, i * 7, i * 13], i);
    }
    for i in 0..50u64 {
        assert_eq!(t.get(&[i, i * 7, i * 13]), Some(i));
    }
    assert!(t.remove(&[0, 0, 0]).is_some());
    let hits = t.query(&[0, 0, 0], &[u64::MAX, u64::MAX, u64::MAX]);
    assert_eq!(hits.len(), 99);
    assert_eq!(
        t.query_count(&[0, 0, 0], &[u64::MAX, u64::MAX, u64::MAX]),
        99
    );
    let nn = t.knn(&[5, 35, 65], 3);
    assert_eq!(nn.len(), 3);
    let loaded = t.bulk_load((1000..1100u64).map(|i| ([i, i, i], i)).collect());
    assert_eq!(loaded, 100);

    let snap = reg.snapshot();
    assert_eq!(snap.counter("phshard_ops_total{op=\"insert\"}"), Some(100));
    assert_eq!(snap.counter("phshard_ops_total{op=\"get\"}"), Some(50));
    assert_eq!(snap.counter("phshard_ops_total{op=\"remove\"}"), Some(1));
    assert_eq!(snap.counter("phshard_ops_total{op=\"query\"}"), Some(1));
    assert_eq!(
        snap.counter("phshard_ops_total{op=\"query_count\"}"),
        Some(1)
    );
    assert_eq!(snap.counter("phshard_ops_total{op=\"knn\"}"), Some(1));
    assert_eq!(snap.counter("phshard_ops_total{op=\"bulk_load\"}"), Some(1));

    // Latency histograms saw exactly as many samples as ops ran.
    let lat = snap
        .histogram("phshard_op_latency_ns{op=\"insert\"}")
        .expect("insert latency histogram");
    assert_eq!(lat.count(), 100);
    assert!(lat.max() > 0);

    // Fan-out width: both full-space window ops matched all 4 shards;
    // the kNN entered one (every key has its top bits clear: the three
    // neighbours are in shard 0 and the other regions lie beyond them).
    let fanout = snap.histogram("phshard_query_fanout").expect("fanout");
    assert_eq!(fanout.count(), 3);
    assert_eq!(fanout.max(), 7, "bucket upper bound for value 4");
    assert_eq!(fanout.quantile(0.0), 1, "bucket upper bound for value 1");
    assert!(snap.histogram("phshard_knn_merge_candidates").is_none());

    // Per-shard routing counters cover every single-key op and the
    // bulk partition sizes: 100 inserts + 50 gets + 1 remove + 100
    // bulk-loaded keys.
    let routed: u64 = (0..4)
        .map(|s| {
            snap.counter(&format!("phshard_shard_ops_total{{shard=\"{s}\"}}"))
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(routed, 100 + 50 + 1 + 100);

    // The exposition renders every instrument family.
    let text = reg.render_prometheus();
    for needle in [
        "# TYPE phshard_ops_total counter",
        "# TYPE phshard_op_latency_ns histogram",
        "# TYPE phshard_shard_ops_total counter",
        "# TYPE phshard_query_fanout histogram",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn unmetered_tree_still_works_and_registry_stays_empty() {
    let t: ShardedTree<u8, 2> = ShardedTree::new(4);
    t.insert([1, 2], 3);
    assert_eq!(t.get(&[1, 2]), Some(3));
    assert_eq!(t.query(&[0, 0], &[10, 10]).len(), 1);
    // A disabled registry hands out no-op handles and renders nothing.
    let reg = Registry::disabled();
    let d: ShardedTree<u8, 2> = ShardedTree::with_metrics(2, &reg);
    d.insert([5, 5], 9);
    assert_eq!(d.get(&[5, 5]), Some(9));
    assert_eq!(reg.render_prometheus(), "");
}

/// Pins the MVCC-lite publication instruments on the scrape:
/// `phshard_root_swaps_total` (one per write/batch/split publication),
/// `phshard_snapshot_live` (live snapshot handles, with peak), and
/// `phshard_root_age_ns` (reader-observed age of the published root).
#[test]
fn mvcc_instruments_record_and_render() {
    let reg = Registry::new();
    let t: ShardedTree<u64, 2> = ShardedTree::with_metrics(4, &reg);

    // 10 single-key writes → 10 root publications.
    for i in 0..10u64 {
        t.insert([i, i * 3], i); // low keys: all on shard 0
    }
    assert_eq!(reg.snapshot().counter("phshard_root_swaps_total"), Some(10));

    // A split republishes through its children: +2 swaps for 2 children.
    t.split_shard(0, 1).unwrap();
    assert_eq!(reg.snapshot().counter("phshard_root_swaps_total"), Some(12));

    // Every lock-free get records the age of the root it served from.
    for i in 0..5u64 {
        assert_eq!(t.get(&[i, i * 3]), Some(i));
    }
    let snap = reg.snapshot();
    let age = snap.histogram("phshard_root_age_ns").expect("root age");
    assert_eq!(age.count(), 5);

    // Live-snapshot gauge follows pin/drop, and the peak sticks.
    let s1 = t.snapshot();
    let s2 = t.snapshot();
    let live = reg.snapshot();
    let g = live.gauge("phshard_snapshot_live").expect("snapshot gauge");
    assert_eq!(g.value, 2);
    drop(s1);
    drop(s2);
    let live = reg.snapshot();
    let g = live.gauge("phshard_snapshot_live").expect("snapshot gauge");
    assert_eq!(g.value, 0);
    assert!(g.high_water >= 2);

    // All three families render in the Prometheus exposition.
    let text = reg.render_prometheus();
    for needle in [
        "# TYPE phshard_root_swaps_total counter",
        "# TYPE phshard_snapshot_live gauge",
        "phshard_snapshot_live_peak",
        "# TYPE phshard_root_age_ns histogram",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // The durable layer publishes through the same instruments.
    let dreg = Registry::new();
    let store = durable(2, &dreg);
    for i in 0..4u64 {
        store.insert([i << 62, i], i).unwrap();
    }
    store.get_with(&[0, 0], |v| *v);
    let dsnap = dreg.snapshot();
    assert_eq!(dsnap.counter("phshard_root_swaps_total"), Some(4));
    assert_eq!(
        dsnap.histogram("phshard_root_age_ns").map(|h| h.count()),
        Some(1)
    );
}

fn durable(shards: usize, reg: &Registry) -> DurableSharded<u64, 2> {
    let cfg = DurableConfig {
        checkpoint_bytes: u64::MAX,
        sync_writes: false,
        retry: None,
    };
    DurableSharded::open_observed(Arc::new(MemVfs::new()), Path::new("/m"), shards, cfg, reg)
        .unwrap()
}

fn shard_ops(reg: &Registry, slot: usize) -> u64 {
    let name = format!("phshard_shard_ops_total{{shard=\"{slot}\"}}");
    reg.snapshot().counter(&name).unwrap_or(0)
}

/// The per-shard op counters used to be sized once at construction, so
/// keys routed to a split's children were never counted. The engine's
/// split install registers the children's counters — on both stores.
#[test]
fn shard_op_counters_follow_a_split() {
    // Low keys: slot 0 of 4, then (one more Z-bit) its first child.
    let low = |i: u64| [i, i * 3];
    let check = |reg: &Registry, children: &[usize], issued: u64| {
        assert_eq!(shard_ops(reg, children[0]), 5, "child counter moved");
        let bound = children[1] + 1;
        let total: u64 = (0..bound).map(|s| shard_ops(reg, s)).sum();
        assert_eq!(total, issued, "family total == ops issued");
    };

    let reg = Registry::new();
    let mem: ShardedTree<u64, 2> = ShardedTree::with_metrics(4, &reg);
    for i in 0..10 {
        mem.insert(low(i), i);
    }
    let children = mem.split_shard(0, 1).unwrap().children;
    assert_eq!(shard_ops(&reg, children[0]), 0);
    for i in 10..13 {
        mem.insert(low(i), i);
    }
    assert_eq!(mem.get(&low(11)), Some(11));
    assert_eq!(mem.remove(&low(12)), Some(12));
    check(&reg, &children, 10 + 5);

    let reg = Registry::new();
    let dur = durable(4, &reg);
    for i in 0..10 {
        dur.insert(low(i), i).unwrap();
    }
    let children = dur.split_shard(0, 1).unwrap().children;
    dur.bulk_load((10..13).map(|i| (low(i), i)).collect())
        .unwrap();
    assert_eq!(dur.get_with(&low(11), |v| *v), Some(11));
    assert_eq!(dur.remove(&low(12)).unwrap(), Some(12));
    check(&reg, &children, 10 + 5);
}
