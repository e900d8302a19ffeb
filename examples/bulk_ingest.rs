//! Bulk ingest: loading a CUBE dataset through the sharded bottom-up
//! bulk loader.
//!
//! Generates a 3-D CUBE dataset, partitions it once by the shard
//! router's Z-prefix and bulk-loads every shard in turn (each shard
//! runs the O(n) bottom-up builder since it starts empty; the batch
//! becomes visible to snapshots all at once). Prints the per-shard
//! partition sizes and standalone build times, the wall-clock of the
//! real sharded load, and the sequential-insert time for comparison.
//!
//! Run: `cargo run --release -p ph-bench --example bulk_ingest`

use phshard::ShardedTree;
use phtree::PhTree;

/// Scales a unit-cube point onto the full integer key domain. The
/// router shards on *leading* Z-order bits, so keys must span the whole
/// u64 range to spread — the order-preserving f64 encoding would park
/// every point of [0, 1) under one top-bit prefix (one shard).
fn grid_key(p: &[f64; 3]) -> [u64; 3] {
    p.map(|c| (c * u64::MAX as f64) as u64)
}

fn main() {
    const SHARDS: usize = 8;
    const N: usize = 200_000;

    let items: Vec<([u64; 3], u64)> = datasets::cube::<3>(N, 42)
        .iter()
        .enumerate()
        .map(|(i, p)| (grid_key(p), i as u64))
        .collect();
    println!("dataset: {N} CUBE points, {SHARDS} shards\n");

    // Per-shard view: how the router splits the batch, and what each
    // shard's bottom-up build costs on its own.
    let index: ShardedTree<u64, 3> = ShardedTree::new(SHARDS);
    let mut parts: Vec<Vec<([u64; 3], u64)>> = (0..SHARDS).map(|_| Vec::new()).collect();
    for &(k, v) in &items {
        parts[index.router().route(&k)].push((k, v));
    }
    println!("shard  entries  bulk build (standalone)");
    for (s, part) in parts.iter().enumerate() {
        let (tree, us) = measure::time_us(|| PhTree::bulk_load(part.clone()));
        println!(
            "  {s}    {:>6}  {:>8.1} µs  ({:.3} µs/entry)",
            part.len(),
            us,
            us / tree.len().max(1) as f64
        );
    }

    // The real thing: one call, partitions once, loads each shard
    // bottom-up, publishes them together.
    let (new, us) = measure::time_us(|| index.bulk_load(items.clone()));
    println!(
        "\nsharded bulk_load: {new} new keys in {:.1} µs ({:.3} µs/entry)",
        us,
        us / new.max(1) as f64
    );

    // Sequential yardstick on a single unsharded tree.
    let (seq, seq_us) = measure::time_us(|| {
        let mut t: PhTree<u64, 3> = PhTree::new();
        for &(k, v) in &items {
            t.insert(k, v);
        }
        t
    });
    println!(
        "sequential inserts: {} keys in {:.1} µs ({:.3} µs/entry, single tree)",
        seq.len(),
        seq_us,
        seq_us / seq.len().max(1) as f64
    );
    println!("speedup: {:.2}x", seq_us / us);

    // The loaded index answers queries like any other.
    let lo = grid_key(&[0.45, 0.45, 0.45]);
    let hi = grid_key(&[0.55, 0.55, 0.55]);
    println!("\ncentre-box query: {} hits", index.query_count(&lo, &hi));
    assert_eq!(index.len(), seq.len());
}
