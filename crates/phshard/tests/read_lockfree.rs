//! Pins the MVCC-lite contract: the read path acquires **zero** data
//! locks. `get`/`contains`/`query`/`query_count`/`knn`/`stats` and
//! every read on a pinned [`Snapshot`] must serve entirely from
//! published tree versions; a lock acquisition anywhere on those paths
//! is a regression this test turns into a failure.
//!
//! The counter ([`phshard::data_lock_acquisitions`]) is a global,
//! debug-only tally of shard cell-lock acquisitions on every thread.
//! Because the counter is global, this file holds exactly ONE `#[test]`
//! fn: a second test running in parallel would pollute the delta.

#![cfg(debug_assertions)]

use phshard::{DurableSharded, ShardedTree, Snapshot};
use phstore::vfs::MemVfs;
use phstore::DurableConfig;
use std::path::Path;
use std::sync::Arc;

fn keys(n: u64) -> impl Iterator<Item = ([u64; 2], u32)> {
    (0..n).map(|i| {
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ([h >> 32, h & 0xFFFF_FFFF], i as u32)
    })
}

/// Runs every read shape against `get`-style closures and a snapshot,
/// returning a value so the reads can't be optimised away.
fn exercise_snapshot(snap: &Snapshot<u32, 2>, probe: &[u64; 2]) -> usize {
    let mut touched = 0usize;
    touched += snap.get(probe).map(|v| *v as usize).unwrap_or(0);
    touched += usize::from(snap.contains(probe));
    touched += snap.len();
    touched += snap.query(&[0, 0], &[u64::MAX, u64::MAX]).len();
    touched += snap.query_count(&[0, 0], &[u64::MAX >> 1, u64::MAX]);
    touched += snap.knn(probe, 3).len();
    touched += snap.stats().entries;
    touched
}

#[test]
fn read_path_acquires_zero_data_locks() {
    // ---- in-memory layer ----
    let tree: ShardedTree<u32, 2> = ShardedTree::new(4);
    let mut probe = [0u64; 2];
    for (k, v) in keys(500) {
        tree.insert(k, v);
        probe = k;
    }

    let before = phshard::data_lock_acquisitions();
    let mut touched = 0usize;
    touched += tree.get(&probe).map(|v| v as usize).unwrap_or(0);
    touched += usize::from(tree.contains(&probe));
    touched += tree.len();
    touched += tree.query(&[0, 0], &[u64::MAX, u64::MAX]).len();
    touched += tree.query_count(&[0, 0], &[u64::MAX >> 1, u64::MAX]);
    touched += tree.knn(&probe, 3).len();
    touched += tree.stats().entries;
    let snap = tree.snapshot();
    touched += exercise_snapshot(&snap, &probe);
    drop(snap);
    assert!(touched > 0, "reads must have observed data");
    assert_eq!(
        phshard::data_lock_acquisitions(),
        before,
        "in-memory read path acquired a data lock"
    );

    // ---- durable layer ----
    let vfs = Arc::new(MemVfs::new());
    let config = DurableConfig {
        checkpoint_bytes: u64::MAX,
        sync_writes: false,
        retry: None,
    };
    let store: DurableSharded<u32, 2> =
        DurableSharded::open_with(vfs, Path::new("/db"), 4, config).unwrap();
    for (k, v) in keys(500) {
        store.insert(k, v).unwrap();
        probe = k;
    }

    let before = phshard::data_lock_acquisitions();
    let mut touched = 0usize;
    touched += store.get_with(&probe, |v| *v as usize).unwrap_or(0);
    touched += usize::from(store.contains(&probe));
    touched += store.len();
    touched += store.query(&[0, 0], &[u64::MAX, u64::MAX]).len();
    touched += store.knn(&probe, 3).len();
    touched += store.stats().entries;
    let snap = store.snapshot();
    touched += exercise_snapshot(&snap, &probe);
    drop(snap);
    assert!(touched > 0, "reads must have observed data");
    assert_eq!(
        phshard::data_lock_acquisitions(),
        before,
        "durable read path acquired a data lock"
    );
}
