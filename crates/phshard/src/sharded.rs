//! The concurrent, sharded PH-tree with a lock-free read path.

use crate::engine::{CellState, Engine, Entry};
use crate::epoch::ShardMap;
use crate::error::ShardError;
use crate::metrics::Probes;
use crate::snapshot::Snapshot;
use phmetrics::Registry;
use phtree::PhTree;
use std::convert::Infallible;
use std::sync::Arc;

/// Per-instance statistics (see [`ShardedTree::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Number of shards.
    pub shards: usize,
    /// Total entries across all shards.
    pub entries: usize,
    /// Entry count per shard, aligned with [`ShardStats::live_slots`]
    /// (routing balance diagnostic).
    pub per_shard: Vec<usize>,
    /// Live slot ids in Z-order of their regions (uniform maps:
    /// `0..shards`).
    pub live_slots: Vec<usize>,
    /// Routing epoch: 0 until the first committed split.
    pub epoch: u64,
    /// Shards visited by the store's window reads since construction
    /// (0 for a packed checkpoint, which keeps no tally).
    pub shards_scanned: u64,
    /// Shards those reads skipped by prefix-mask pruning.
    pub shards_pruned: u64,
}

impl ShardStats {
    /// Routing skew: the fullest shard's occupancy over the mean
    /// occupancy. `1.0` is perfect balance, `shards as f64` means every
    /// entry landed on one shard (the Z-prefix router's worst case:
    /// keys clustered under one top-bit prefix). `1.0` for an empty
    /// tree.
    pub fn skew(&self) -> f64 {
        if self.entries == 0 || self.per_shard.is_empty() {
            return 1.0;
        }
        let max = self.per_shard.iter().copied().max().unwrap_or(0);
        let mean = self.entries as f64 / self.per_shard.len() as f64;
        max as f64 / mean
    }

    /// The live slot with the most entries, `(slot, entries)`. `None`
    /// when empty.
    pub fn hottest(&self) -> Option<(usize, usize)> {
        self.live_slots
            .iter()
            .copied()
            .zip(self.per_shard.iter().copied())
            .filter(|&(_, n)| n > 0)
            .max_by_key(|&(_, n)| n)
    }
}

/// Outcome of a committed hot-shard split (see
/// [`ShardedTree::split_shard`] / `DurableSharded::split_shard`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitReport {
    /// The retired parent slot.
    pub src: usize,
    /// Freshly allocated child slots, in Z-order of their regions.
    pub children: Vec<usize>,
    /// Entries moved from the parent into the children.
    pub migrated: usize,
    /// Backlogged writes replayed onto children at commit (always 0
    /// for the in-memory tree, whose split is atomic under the shard
    /// lock).
    pub backlog_drained: usize,
    /// Routing epoch after the split.
    pub epoch: u64,
}

/// In memory a cell's writer-side state is the working tree itself.
impl<V, const K: usize> CellState<V, K> for PhTree<V, K> {
    fn tree(&self) -> &PhTree<V, K> {
        self
    }
}

/// A key-space-partitioned concurrent PH-tree.
///
/// Keys are routed to shards by a prefix of their Z-order interleaving
/// ([`ShardMap`]), so each shard owns an axis-aligned hypercube prefix
/// region. Writes lock exactly one shard; **reads take no locks at
/// all**: every write publishes an immutable tree version (an O(1)
/// structural clone — versions share nodes copy-on-write), and
/// `get`/`query`/`knn` serve from published versions via an atomic
/// swap cell. Window queries prune non-intersecting shards with the
/// paper's `mL`/`mU` masks and scan the survivors on the calling
/// thread. See [`crate::Consistency`] for the guarantees: single-key
/// ops are linearizable, cross-shard reads are snapshot reads over a
/// consistent cut ([`ShardedTree::snapshot`]) — each is exactly that
/// read on a fresh [`Snapshot`].
///
/// The routing topology is *versioned*: [`ShardedTree::split_shard`]
/// deepens one hot shard's prefix into `2^bits` children without
/// touching any other shard, installing a new routing epoch. Readers
/// and writers holding the previous epoch's snapshot detect the
/// retired cell and re-route — no operation ever lands on moved data.
///
/// The cell, cut, retire and lock-order protocols are the shared
/// engine's (`engine.rs`), the same code [`crate::DurableSharded`]
/// runs on; what is this type's own is the atomic rebuild-split and
/// the bottom-up bulk load of an empty shard.
///
/// All methods take `&self`; the structure is `Send + Sync` and meant
/// to be shared (e.g. in an `Arc`) across server threads.
pub struct ShardedTree<V, const K: usize> {
    pub(crate) engine: Engine<PhTree<V, K>, V, K>,
}

/// Unwraps a write that cannot fail (the in-memory tree never sheds).
fn infallible<R>(r: Result<R, Infallible>) -> R {
    r.unwrap_or_else(|never| match never {})
}

impl<V: Clone, const K: usize> ShardedTree<V, K> {
    /// A sharded tree with `shards` shards (a power of two).
    pub fn new(shards: usize) -> Self {
        Self::with_metrics(shards, &Registry::disabled())
    }

    /// A sharded tree whose operations record into `registry`: per-op
    /// counters and latency histograms, per-shard routing counters,
    /// query / kNN fan-out widths, rebalance transitions
    /// (`phshard_rebalance_*`, `phshard_routing_epoch`), root
    /// publications and snapshot lifecycle (`phshard_root_swaps_total`,
    /// `phshard_snapshot_live`, `phshard_root_age_ns`) — see
    /// `phshard_*` in the crate's instrument catalogue. Trees built
    /// without a registry carry no-op handles — recording is then a
    /// branch on a null `Option`.
    pub fn with_metrics(shards: usize, registry: &Registry) -> Self {
        let states = (0..shards).map(|_| PhTree::new()).collect();
        ShardedTree {
            engine: Engine::new(ShardMap::uniform(shards), states, Probes::new(registry)),
        }
    }

    /// Inserts `key` → `value`; returns the previous value, if any.
    /// Locks only the owning shard (linearizable per key); readers are
    /// never blocked — they keep serving the previous published
    /// version until the new one is installed.
    pub fn insert(&self, key: [u64; K], value: V) -> Option<V> {
        let op = &self.engine.probes.ops.insert;
        infallible(
            self.engine
                .with_cell_write(op, &key, |_, tree| Ok(tree.insert(key, value))),
        )
    }

    /// Removes `key`; returns its value, if present.
    pub fn remove(&self, key: &[u64; K]) -> Option<V> {
        let op = &self.engine.probes.ops.remove;
        infallible(
            self.engine
                .with_cell_write(op, key, |_, tree| Ok(tree.remove(key))),
        )
    }

    /// Returns a clone of the value at `key` from the current
    /// published version (use [`ShardedTree::get_with`] to borrow
    /// instead). Lock-free.
    pub fn get(&self, key: &[u64; K]) -> Option<V> {
        self.get_with(key, V::clone)
    }

    /// Collects all entries in the window `[min, max]` (inclusive
    /// corners), in global Z-order: [`Snapshot::query`] on a fresh
    /// snapshot — a consistent cut of the write history — so
    /// concurrent writes, batches and splits can never tear the
    /// result.
    pub fn query(&self, min: &[u64; K], max: &[u64; K]) -> Vec<([u64; K], V)> {
        self.snapshot().query(min, max)
    }

    /// The `n` entries nearest to `center` under integer Euclidean
    /// distance as `(key, value, distance)`, sorted by `(distance,
    /// key)`: [`Snapshot::knn`] on a fresh snapshot.
    pub fn knn(&self, center: &[u64; K], n: usize) -> Vec<([u64; K], V, f64)> {
        self.snapshot().knn(center, n)
    }

    /// Bulk-inserts `items`: partitioned by shard once, every involved
    /// shard locked (ascending slot order) and loaded in turn on the
    /// calling thread. An empty shard gets its partition through
    /// [`PhTree::bulk_load`]'s O(n) bottom-up builder (the ingest fast
    /// path); a non-empty shard falls back to per-key inserts. Returns
    /// the number of *new* keys (duplicates overwrite, like
    /// [`ShardedTree::insert`]).
    ///
    /// Each shard's partition is published as **one** version, and all
    /// of them inside one write-clock bracket: a concurrent snapshot
    /// sees all of the batch or none of it.
    pub fn bulk_load(&self, items: Vec<([u64; K], V)>) -> usize {
        let op = &self.engine.probes.ops.bulk_load;
        fn key<V, const K: usize>(item: &Entry<V, K>) -> &[u64; K] {
            &item.0
        }
        self.engine.write_run(op, items, key, |_, parts| {
            let mut new = 0usize;
            for part in parts {
                let (tree, items) = (&mut *part.state, std::mem::take(&mut part.items));
                if tree.is_empty() {
                    // Bottom-up bulk build: every key in the partition
                    // is new (duplicates within the batch collapse
                    // last-write-wins, same as the insert loop below).
                    *tree = PhTree::bulk_load(items);
                    new += tree.len();
                } else {
                    let prevs = items.into_iter().map(|(k, v)| tree.insert(k, v));
                    new += prevs.filter(Option::is_none).count();
                }
            }
            (true, new)
        })
    }

    /// Splits the live shard `slot` into `2^bits` children, deepening
    /// its Z-prefix — the in-memory half of online rebalancing.
    ///
    /// The parent's entries are partitioned by the successor routing
    /// map and rebuilt into the children via [`PhTree::bulk_load`]
    /// under the parent's writer lock, so the split is atomic: every
    /// other shard stays fully available throughout, and operations
    /// already waiting on the parent re-route to the children the
    /// moment the lock releases (the retired-cell retry). The engine
    /// then retires the parent and installs the successor state inside
    /// one write-clock bracket, retire first, so lock-free readers
    /// either read the parent's complete pre-split version or re-route
    /// to a child — never a gap. Snapshots pinned before the split
    /// keep the parent's published version. Splits are serialised with
    /// each other; the routing epoch increments by one.
    pub fn split_shard(&self, slot: usize, bits: u32) -> Result<SplitReport, ShardError> {
        let plan = self.engine.plan_split(slot, bits)?;
        self.engine.probes.reb.migration_inflight.add(1);
        let cell = Arc::clone(&plan.cell);
        let mut parent = cell.lock();
        let tree = std::mem::replace(&mut *parent, PhTree::new());
        let children = plan.partition(&tree).into_iter().map(PhTree::bulk_load);
        let children = children.collect();
        Ok(self
            .engine
            .install_split(plan, parent, children, tree.len(), 0))
    }
}

impl<V, const K: usize> ShardedTree<V, K> {
    /// The current routing snapshot (shard ids, shard boxes, query
    /// pruning). A split installed after this call does not change the
    /// returned map — re-call to observe the new epoch.
    pub fn router(&self) -> Arc<ShardMap<K>> {
        self.engine.router()
    }

    /// The slot that currently owns `key`.
    pub fn shard_of(&self, key: &[u64; K]) -> usize {
        self.router().route(key)
    }

    /// Applies `f` to the value at `key` in the current published
    /// version — the zero-copy, zero-lock point read.
    pub fn get_with<R>(&self, key: &[u64; K], f: impl FnOnce(&V) -> R) -> Option<R> {
        self.engine.get_with(key, f)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u64; K]) -> bool {
        self.get_with(key, |_| ()).is_some()
    }

    /// Total entries, from one consistent snapshot.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pins a consistent point-in-time view across all shards: the
    /// returned [`Snapshot`] serves `get`/`query`/`knn`/`stats` from
    /// one cut of the write history, unaffected by concurrent writes
    /// and splits (see [`crate::snapshot`] module docs for the cut
    /// protocol). Cheap: one pinned `Arc` per shard; versions share
    /// structure with the live trees copy-on-write.
    pub fn snapshot(&self) -> Snapshot<V, K> {
        self.engine.snapshot()
    }

    /// Counts entries in the window `[min, max]` without materialising
    /// them, against one consistent snapshot.
    pub fn query_count(&self, min: &[u64; K], max: &[u64; K]) -> usize {
        self.snapshot().query_count(min, max)
    }

    /// Shard sizes and routing epoch from one consistent snapshot,
    /// plus the running pruning counters.
    pub fn stats(&self) -> ShardStats {
        self.snapshot().stats()
    }
}

impl<V: Clone, const K: usize> Default for ShardedTree<V, K> {
    fn default() -> Self {
        Self::new(1)
    }
}
