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
//! writer lock in slot order (publications happen under the cell
//! writer lock, so holding all of them freezes the cut), collects, and
//! releases. Readers therefore never block writers; a snapshot under
//! heavy write pressure briefly blocks writers instead — the
//! deliberate trade.
//!
//! Splits bracket their whole topology flip (retire parent + install
//! successor state) in one `begun`/`done` pair while holding the
//! parent's writer lock, so a snapshot can never observe a half-split
//! topology, and a snapshot pinned *before* a split keeps reading the
//! parent's last published version — retiring a cell does not revoke
//! its published root.

use crate::epoch::ShardMap;
use crate::metrics::SwapMetrics;
use crate::ShardStats;
use phtree::{knn, Distance, IntEuclidean, PhTree};
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

/// How many optimistic attempts [`crate::ShardedTree::snapshot`] makes
/// before falling back to locking the cells.
pub(crate) const SNAPSHOT_SPIN: usize = 64;

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
pub struct Snapshot<V, const K: usize> {
    map: Arc<ShardMap<K>>,
    /// Slot-indexed; `None` for slots not live in this epoch.
    roots: Vec<Option<Arc<Published<V, K>>>>,
    metrics: SwapMetrics,
}

impl<V, const K: usize> Snapshot<V, K> {
    pub(crate) fn new(
        map: Arc<ShardMap<K>>,
        roots: Vec<Option<Arc<Published<V, K>>>>,
        metrics: SwapMetrics,
    ) -> Self {
        metrics.snapshot_live.add(1);
        Snapshot {
            map,
            roots,
            metrics,
        }
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

    /// Counts entries in the window `[min, max]` without materialising
    /// them, pruning shards by prefix mask.
    pub fn query_count(&self, min: &[u64; K], max: &[u64; K]) -> usize {
        self.map
            .matching_shards(min, max)
            .into_iter()
            .map(|s| self.root(s).tree.query(min, max).count())
            .sum()
    }

    /// Per-shard statistics of the pinned versions, shaped like
    /// [`ShardStats`] (pool/pruning counters are zero: a snapshot has
    /// neither).
    pub fn stats(&self) -> ShardStats {
        let live_slots = self.map.live_slots();
        let per_shard: Vec<usize> = live_slots
            .iter()
            .map(|&s| self.root(s).tree.len())
            .collect();
        ShardStats {
            shards: self.map.shards(),
            threads: 0,
            entries: per_shard.iter().sum(),
            per_shard,
            live_slots,
            epoch: self.map.epoch(),
            shards_scanned: 0,
            shards_pruned: 0,
        }
    }
}

impl<V: Clone, const K: usize> Snapshot<V, K> {
    /// All entries in the window `[min, max]` (inclusive corners), in
    /// global Z-order. Runs sequentially on the calling thread;
    /// [`crate::ShardedTree::query`] is the pooled variant (it scans a
    /// snapshot too — same consistency, fanned out).
    pub fn query(&self, min: &[u64; K], max: &[u64; K]) -> Vec<([u64; K], V)> {
        let matching = self.map.matching_shards(min, max);
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
        out
    }

    /// The `n` entries nearest to `center` under integer Euclidean
    /// distance as `(key, value, distance)`, sorted by `(distance,
    /// key)` — the same list whatever the shard layout. One best-first
    /// search over all pinned shard roots ([`phtree::knn`]): a shard
    /// whose region lies beyond the results found is never entered.
    pub fn knn(&self, center: &[u64; K], n: usize) -> Vec<([u64; K], V, f64)> {
        self.knn_counted(center, n).0
    }

    /// [`Snapshot::knn`] plus the number of shards the search entered.
    pub(crate) fn knn_counted(
        &self,
        center: &[u64; K],
        n: usize,
    ) -> (Vec<([u64; K], V, f64)>, usize) {
        let _d = phtrace::span(phtrace::Phase::Descent);
        let trees = self.map.shard_boxes().into_iter().map(|(s, lo, hi)| {
            let dist = Distance::<K>::to_box(&IntEuclidean, center, &lo, &hi);
            (dist, &self.root(s).tree)
        });
        let (hits, seen) = knn::forest(trees, center, n, f64::INFINITY, &IntEuclidean);
        phtrace::add(phtrace::PayloadCounter::Fanout, seen.roots as u64);
        let out = hits
            .into_iter()
            .map(|nb| (nb.key, nb.value.clone(), nb.dist))
            .collect();
        (out, seen.roots)
    }
}

impl<V, const K: usize> Drop for Snapshot<V, K> {
    fn drop(&mut self) {
        self.metrics.snapshot_live.add(-1);
    }
}
