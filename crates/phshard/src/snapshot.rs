//! Snapshot reads: pinned tree versions and the consistent-cut
//! protocol behind [`crate::ShardedTree::snapshot`] /
//! [`crate::DurableSharded::snapshot`].
//!
//! Every shard cell publishes an immutable [`Published`] version of
//! its tree after each write (an O(1) structural clone — tree versions
//! share nodes copy-on-write). A [`Snapshot`] pins one published
//! version per shard, chosen so the set forms a **consistent cut** of
//! the write history: for every write, either its effect is visible in
//! the snapshot or it isn't — never half of a multi-shard topology
//! change, never a torn per-shard batch.
//!
//! ## The cut protocol
//!
//! A global [`WriteClock`] counts writes twice: `begun` increments
//! before a writer publishes, `done` after. Taking a snapshot
//! optimistically:
//!
//! 1. read `done`, then `begun`; retry unless equal (no publication
//!    in flight at that instant),
//! 2. load the routing state and every live cell's published root,
//! 3. re-read `begun`; if unchanged, no write *began* during step 2,
//!    so every root collected belongs to the same write-history
//!    prefix — a cut.
//!
//! Under sustained writes the optimistic loop could starve, so after a
//! bounded number of attempts the slow path locks every live cell's
//! writer lock in ascending slot order — the engine's one lock order —
//! (publications happen under the cell writer lock, so holding all of
//! them freezes the cut), collects, and releases. Readers therefore
//! never block writers; a snapshot under heavy write pressure briefly
//! blocks writers instead — the deliberate trade.
//!
//! Splits bracket their whole topology flip (retire parent + install
//! successor state) in one `begun`/`done` pair while holding the
//! parent's writer lock, so a snapshot can never observe a half-split
//! topology, and a snapshot pinned *before* a split keeps reading the
//! parent's last published version — retiring a cell does not revoke
//! its published root.

use crate::epoch::ShardMap;
use crate::metrics::Probes;
use crate::ShardStats;
use phtree::{knn, IntEuclidean, PhTree};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One immutable published version of a shard's tree, stamped with its
/// publication time (the reader-observed root-age metric reads the
/// stamp).
pub(crate) struct Published<V, const K: usize> {
    pub(crate) tree: PhTree<V, K>,
    pub(crate) stamp: Instant,
}

impl<V, const K: usize> Published<V, K> {
    pub(crate) fn now(tree: PhTree<V, K>) -> Arc<Self> {
        Arc::new(Published {
            tree,
            stamp: Instant::now(),
        })
    }
}

/// The global write counter pair backing the consistent-cut protocol
/// (see module docs).
#[derive(Default)]
pub(crate) struct WriteClock {
    begun: AtomicU64,
    done: AtomicU64,
}

impl WriteClock {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Runs `f` (the publication) bracketed by `begun`/`done`.
    /// Multi-shard publications wrapped in a single bracket are atomic
    /// to snapshots.
    #[inline]
    pub(crate) fn bracket<R>(&self, f: impl FnOnce() -> R) -> R {
        self.begun.fetch_add(1, Ordering::SeqCst);
        let out = f();
        self.done.fetch_add(1, Ordering::SeqCst);
        out
    }

    /// The begun-count if no publication is in flight right now, else
    /// `None`. (`done` is read first: `begun == done` can then only
    /// mean an instant with no open bracket.)
    #[inline]
    pub(crate) fn stable(&self) -> Option<u64> {
        let d = self.done.load(Ordering::SeqCst);
        let b = self.begun.load(Ordering::SeqCst);
        (b == d).then_some(b)
    }

    #[inline]
    pub(crate) fn begun(&self) -> u64 {
        self.begun.load(Ordering::SeqCst)
    }
}

/// A consistent point-in-time view across all shards, returned by
/// [`crate::ShardedTree::snapshot`] and
/// [`crate::DurableSharded::snapshot`].
///
/// The handle is cheap: it pins one `Arc` per shard (the published
/// tree versions, which share structure with the live trees
/// copy-on-write) plus the routing map of its epoch. Reads on it are
/// pure traversals — no locks, no retries, no interaction with
/// concurrent writers — and always observe the one consistent cut the
/// snapshot captured. Memory: holding a snapshot keeps at most the
/// captured versions alive; nodes unchanged since the capture are
/// shared with the live trees, so the marginal cost is the writes that
/// happened since (path copies), not a full second index.
///
/// Cross-shard reads (`query`, `query_count`, `knn`) record into the
/// instruments of the store the snapshot was pinned from — a store's
/// own cross-shard reads are exactly these, on a fresh snapshot.
pub struct Snapshot<V, const K: usize> {
    map: Arc<ShardMap<K>>,
    /// Slot-indexed; `None` for slots not live in this epoch.
    roots: Vec<Option<Arc<Published<V, K>>>>,
    probes: Arc<Probes>,
}

impl<V, const K: usize> Snapshot<V, K> {
    pub(crate) fn new(
        map: Arc<ShardMap<K>>,
        roots: Vec<Option<Arc<Published<V, K>>>>,
        probes: Arc<Probes>,
    ) -> Self {
        probes.swaps.snapshot_live.add(1);
        Snapshot { map, roots, probes }
    }

    /// The routing map of the snapshot's epoch.
    pub fn router(&self) -> &ShardMap<K> {
        &self.map
    }

    /// Routing epoch this snapshot was cut at.
    pub fn epoch(&self) -> u64 {
        self.map.epoch()
    }

    /// Number of shards in the snapshot.
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    pub(crate) fn root(&self, slot: usize) -> &Arc<Published<V, K>> {
        self.roots[slot]
            .as_ref()
            .expect("snapshot routing map addressed a missing root")
    }

    /// The pinned tree of live slot `slot` (for packed checkpoints).
    pub(crate) fn shard_tree(&self, slot: usize) -> &PhTree<V, K> {
        &self.root(slot).tree
    }

    /// Total entries at the snapshot instant.
    pub fn len(&self) -> usize {
        self.map
            .live_slots()
            .into_iter()
            .map(|s| self.root(s).tree.len())
            .sum()
    }

    /// Whether the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point lookup against the pinned version — returns a borrow into
    /// the snapshot (no clone, no lock).
    pub fn get(&self, key: &[u64; K]) -> Option<&V> {
        let slot = self.map.route(key);
        let _d = phtrace::span(phtrace::Phase::Descent).with_shard(slot);
        self.root(slot).tree.get(key)
    }

    /// Whether `key` was present at the snapshot instant.
    pub fn contains(&self, key: &[u64; K]) -> bool {
        self.get(key).is_some()
    }

    /// The shards whose region meets `[min, max]`, in Z-order; the
    /// rest are pruned by the routing map's mask walk, and counted.
    fn matching(&self, min: &[u64; K], max: &[u64; K]) -> Vec<usize> {
        let matching = self.map.matching_shards(min, max);
        self.probes.note_window(self.map.shards(), matching.len());
        matching
    }

    /// Counts entries in the window `[min, max]` without materialising
    /// them, pruning shards by prefix mask.
    pub fn query_count(&self, min: &[u64; K], max: &[u64; K]) -> usize {
        let t = self.probes.ops.query_count.start();
        let out = self
            .matching(min, max)
            .into_iter()
            .map(|s| self.root(s).tree.query(min, max).count())
            .sum();
        self.probes.ops.query_count.finish(t);
        out
    }

    /// Per-shard statistics of the pinned versions; the pruning
    /// counters are the owning store's running totals.
    pub fn stats(&self) -> ShardStats {
        let live_slots = self.map.live_slots();
        let per_shard: Vec<usize> = live_slots
            .iter()
            .map(|&s| self.root(s).tree.len())
            .collect();
        let (shards_scanned, shards_pruned) = self.probes.pruning();
        ShardStats {
            shards: self.map.shards(),
            entries: per_shard.iter().sum(),
            per_shard,
            live_slots,
            epoch: self.map.epoch(),
            shards_scanned,
            shards_pruned,
        }
    }
}

impl<V: Clone, const K: usize> Snapshot<V, K> {
    /// All entries in the window `[min, max]` (inclusive corners), in
    /// global Z-order, on the calling thread. Shards whose prefix
    /// region is disjoint from the window are pruned; because shard
    /// regions are Z-order prefixes and the survivors come in Z-order,
    /// concatenating their results yields exactly the order a single
    /// unsharded tree's query iterator produces.
    pub fn query(&self, min: &[u64; K], max: &[u64; K]) -> Vec<([u64; K], V)> {
        let t = self.probes.ops.query.start();
        let matching = self.matching(min, max);
        let fan = phtrace::span(phtrace::Phase::FanOut);
        phtrace::add(phtrace::PayloadCounter::Fanout, matching.len() as u64);
        let mut out = Vec::new();
        for s in matching {
            let _d = phtrace::span(phtrace::Phase::Descent).with_shard(s);
            out.extend(
                self.root(s)
                    .tree
                    .query(min, max)
                    .map(|(k, v)| (k, v.clone())),
            );
        }
        drop(fan);
        self.probes.ops.query.finish(t);
        out
    }

    /// The `n` entries nearest to `center` under integer Euclidean
    /// distance as `(key, value, distance)`, sorted by `(distance,
    /// key)` — the same list whatever the shard layout. One best-first
    /// search over all pinned shard roots ([`phtree::knn`]): a shard
    /// whose region lies beyond the results found is never entered.
    pub fn knn(&self, center: &[u64; K], n: usize) -> Vec<([u64; K], V, f64)> {
        let t = self.probes.ops.knn.start();
        let _d = phtrace::span(phtrace::Phase::Descent);
        let trees = self.map.shard_boxes().into_iter().map(|(s, lo, hi)| {
            let dist = knn::to_box(&IntEuclidean, center, &lo, &hi);
            (dist, &self.root(s).tree)
        });
        let (hits, seen) = knn::forest(trees, center, n, f64::INFINITY, &IntEuclidean);
        phtrace::add(phtrace::PayloadCounter::Fanout, seen.roots as u64);
        self.probes.ops.fanout.record(seen.roots as u64);
        let out = hits
            .into_iter()
            .map(|nb| (nb.key, nb.value.clone(), nb.dist))
            .collect();
        self.probes.ops.knn.finish(t);
        out
    }
}

impl<V, const K: usize> Drop for Snapshot<V, K> {
    fn drop(&mut self) {
        self.probes.swaps.snapshot_live.add(-1);
    }
}
