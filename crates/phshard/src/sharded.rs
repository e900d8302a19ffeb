//! The concurrent, sharded PH-tree with a lock-free read path.

use crate::epoch::ShardMap;
use crate::error::ShardError;
use crate::lockstat::DataMutex;
use crate::metrics::{PoolMetrics, RebalanceMetrics, ShardMetrics, SwapMetrics};
use crate::pool::WorkerPool;
use crate::snapshot::{Published, Snapshot, WriteClock, SNAPSHOT_SPIN};
use crate::swap::Swap;
use phmetrics::Registry;
use phtree::PhTree;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A boxed fan-out task as submitted to the worker pool.
type Task<R> = Box<dyn FnOnce() -> R + Send>;
/// A window-query hit: key plus cloned value.
type Entry<V, const K: usize> = ([u64; K], V);

/// Per-instance statistics (see [`ShardedTree::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Number of shards.
    pub shards: usize,
    /// Worker threads in the fan-out pool (0 = inline).
    pub threads: usize,
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
    /// Shards visited by window queries since construction.
    pub shards_scanned: u64,
    /// Shards skipped by prefix-mask pruning since construction.
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

/// One shard's storage cell. Writers mutate the working tree under
/// `writer` and then publish an O(1) structural clone through
/// `published`; readers only ever touch `published` (lock-free).
///
/// `retired` flips when a committed split moves the slot's data
/// elsewhere. The flip is ordered **before** the successor state
/// install (both inside the split's write-clock bracket): a lock-free
/// reader loads a published root and *then* checks `retired`, so a
/// false reading proves no split has moved data off this cell — the
/// loaded root holds every acknowledged write for the cell's region. A
/// retired cell keeps its last published root, so snapshots pinned
/// before the split stay readable.
struct MemCell<V, const K: usize> {
    retired: AtomicBool,
    writer: DataMutex<PhTree<V, K>>,
    published: Swap<Published<V, K>>,
}

impl<V, const K: usize> MemCell<V, K> {
    fn fresh(tree: PhTree<V, K>) -> Arc<Self>
    where
        V: Clone,
    {
        Arc::new(MemCell {
            retired: AtomicBool::new(false),
            published: Swap::new(Published::now(tree.clone())),
            writer: DataMutex::new(tree),
        })
    }

    /// Publishes `tree` as the cell's current version. Must be called
    /// under the cell's writer lock and inside a write-clock bracket.
    fn publish(&self, tree: PhTree<V, K>, metrics: &SwapMetrics) {
        self.published.store(Published::now(tree));
        metrics.root_swaps.inc();
    }
}

/// An immutable routing snapshot: the map plus the slot-indexed cell
/// table it addresses. Swapped wholesale (behind `Arc`) on every
/// committed split, so readers see map and cells move together.
struct MemInner<V, const K: usize> {
    map: Arc<ShardMap<K>>,
    cells: Vec<Option<Arc<MemCell<V, K>>>>,
}

impl<V, const K: usize> MemInner<V, K> {
    fn cell(&self, slot: usize) -> &Arc<MemCell<V, K>> {
        self.cells[slot]
            .as_ref()
            .expect("routing map addressed a missing cell")
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
/// paper's `mL`/`mU` masks and fan the survivors out across a std-only
/// worker pool. See [`crate::Consistency`] for the guarantees:
/// single-key ops are linearizable, cross-shard reads are snapshot
/// reads over a consistent cut ([`ShardedTree::snapshot`]).
///
/// The routing topology is *versioned*: [`ShardedTree::split_shard`]
/// deepens one hot shard's prefix into `2^bits` children without
/// touching any other shard, installing a new routing epoch. Readers
/// and writers holding the previous epoch's snapshot detect the
/// retired cell and re-route — no operation ever lands on moved data.
///
/// All methods take `&self`; the structure is `Send + Sync` and meant
/// to be shared (e.g. in an `Arc`) across server threads.
pub struct ShardedTree<V, const K: usize> {
    state: Swap<MemInner<V, K>>,
    /// Global write counter pair for the snapshot consistent-cut
    /// protocol. `Arc` so pooled bulk-load tasks can bracket their
    /// publications.
    clock: Arc<WriteClock>,
    /// Serialises splits: at most one topology change in flight, so a
    /// split sees a stable map between planning and install.
    split_gate: Mutex<()>,
    pool: WorkerPool,
    scanned: AtomicU64,
    pruned: AtomicU64,
    metrics: ShardMetrics,
    swap_metrics: SwapMetrics,
    reb_metrics: RebalanceMetrics,
}

impl<V: Clone, const K: usize> ShardedTree<V, K> {
    /// A sharded tree with `shards` shards (power of two) and a worker
    /// pool sized to the host: `available_parallelism - 1` threads,
    /// capped at the shard count (0 on single-core hosts — inline
    /// execution, no thread overhead).
    pub fn new(shards: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(shards, (cores - 1).min(shards))
    }

    /// A sharded tree with an explicit fan-out pool size. `threads ==
    /// 0` runs every fan-out inline on the calling thread.
    pub fn with_threads(shards: usize, threads: usize) -> Self {
        Self::build(
            shards,
            threads,
            ShardMetrics::disabled(),
            PoolMetrics::disabled(),
            RebalanceMetrics::disabled(),
            SwapMetrics::disabled(),
        )
    }

    /// A sharded tree whose operations record into `registry`: per-op
    /// counters and latency histograms, per-shard routing counters,
    /// query / kNN fan-out widths, rebalance transitions
    /// (`phshard_rebalance_*`, `phshard_routing_epoch`), root
    /// publications and snapshot lifecycle (`phshard_root_swaps_total`,
    /// `phshard_snapshot_live`, `phshard_root_age_ns`), and the
    /// fan-out pool's queue depth, busy time and panic count (see
    /// `phshard_*` in the crate's instrument catalogue). Trees built
    /// without a registry carry no-op handles — recording is then a
    /// branch on a null `Option`.
    pub fn with_metrics(shards: usize, threads: usize, registry: &Registry) -> Self {
        Self::build(
            shards,
            threads,
            ShardMetrics::new(registry, shards),
            PoolMetrics::from_registry(registry),
            RebalanceMetrics::new(registry),
            SwapMetrics::new(registry),
        )
    }

    fn build(
        shards: usize,
        threads: usize,
        metrics: ShardMetrics,
        pool_metrics: PoolMetrics,
        reb_metrics: RebalanceMetrics,
        swap_metrics: SwapMetrics,
    ) -> Self {
        let map = ShardMap::uniform(shards);
        let cells = (0..shards)
            .map(|_| Some(MemCell::fresh(PhTree::new())))
            .collect();
        ShardedTree {
            state: Swap::new(Arc::new(MemInner {
                map: Arc::new(map),
                cells,
            })),
            clock: Arc::new(WriteClock::new()),
            split_gate: Mutex::new(()),
            pool: WorkerPool::with_metrics(threads, pool_metrics),
            scanned: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            metrics,
            swap_metrics,
            reb_metrics,
        }
    }
}

impl<V, const K: usize> ShardedTree<V, K> {
    /// Loads the current routing state (lock-free).
    fn load_state(&self) -> Arc<MemInner<V, K>> {
        self.state.load()
    }

    /// The current routing snapshot (shard ids, shard boxes, query
    /// pruning). A split installed after this call does not change the
    /// returned map — re-call to observe the new epoch.
    pub fn router(&self) -> Arc<ShardMap<K>> {
        Arc::clone(&self.load_state().map)
    }

    /// The slot that currently owns `key`.
    pub fn shard_of(&self, key: &[u64; K]) -> usize {
        self.load_state().map.route(key)
    }

    /// Routes `key` to its current published version: the lock-free
    /// read primitive. Loads the routing state, the cell's published
    /// root, and then checks the cell wasn't retired by a split —
    /// `retired == false` *after* the root load proves the root holds
    /// every acknowledged write for the key (see [`MemCell`]). No lock
    /// is acquired anywhere on this path.
    fn published_for(&self, key: &[u64; K]) -> (usize, Arc<Published<V, K>>) {
        loop {
            let inner = self.load_state();
            let slot = inner.map.route(key);
            let cell = inner.cell(slot);
            let published = cell.published.load();
            if !cell.retired.load(Ordering::SeqCst) {
                return (slot, published);
            }
            // A split retired this cell; its successor state installs
            // within the same clock bracket — spin briefly and re-route.
            std::hint::spin_loop();
        }
    }

    /// Routes `key` and locks its live cell for writing, re-routing
    /// whenever the locked cell turns out to have been retired by a
    /// concurrent split commit. After `f` mutates the working tree, the
    /// new version is published (inside a write-clock bracket) while
    /// the writer lock is still held.
    fn with_cell_write<R>(&self, key: &[u64; K], f: impl FnOnce(usize, &mut PhTree<V, K>) -> R) -> R
    where
        V: Clone,
    {
        let mut f = Some(f);
        loop {
            let inner = self.load_state();
            let slot = inner.map.route(key);
            let cell = inner.cell(slot);
            let mut guard = cell.writer.lock();
            if cell.retired.load(Ordering::SeqCst) {
                continue; // split committed while we waited for the lock
            }
            let out = (f.take().expect("write retried after success"))(slot, &mut guard);
            self.clock
                .bracket(|| cell.publish(guard.clone(), &self.swap_metrics));
            return out;
        }
    }

    /// Inserts `key` → `value`; returns the previous value, if any.
    /// Locks only the owning shard (linearizable per key); readers are
    /// never blocked — they keep serving the previous published
    /// version until the new one is installed.
    pub fn insert(&self, key: [u64; K], value: V) -> Option<V>
    where
        V: Clone,
    {
        let t = self.metrics.insert.start();
        let out = self.with_cell_write(&key, |slot, tree| {
            self.metrics.add_shard_ops(slot, 1);
            tree.insert(key, value)
        });
        self.metrics.insert.finish(t);
        out
    }

    /// Removes `key`; returns its value, if present.
    pub fn remove(&self, key: &[u64; K]) -> Option<V>
    where
        V: Clone,
    {
        let t = self.metrics.remove.start();
        let out = self.with_cell_write(key, |slot, tree| {
            self.metrics.add_shard_ops(slot, 1);
            tree.remove(key)
        });
        self.metrics.remove.finish(t);
        out
    }

    /// Applies `f` to the value at `key` in the current published
    /// version — the zero-copy, zero-lock point read.
    pub fn get_with<R>(&self, key: &[u64; K], f: impl FnOnce(&V) -> R) -> Option<R> {
        let t = self.metrics.get.start();
        let (slot, published) = self.published_for(key);
        self.metrics.add_shard_ops(slot, 1);
        self.swap_metrics.note_root_age(&published.stamp);
        let out = published.tree.get(key).map(f);
        self.metrics.get.finish(t);
        out
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
        // Optimistic: collect between two quiet observations of the
        // write clock. Never blocks writers.
        for _ in 0..SNAPSHOT_SPIN {
            let Some(begun) = self.clock.stable() else {
                std::hint::spin_loop();
                continue;
            };
            let inner = self.load_state();
            let roots: Vec<Option<Arc<Published<V, K>>>> = inner
                .cells
                .iter()
                .map(|c| c.as_ref().map(|c| c.published.load()))
                .collect();
            if self.clock.begun() == begun {
                return Snapshot::new(Arc::clone(&inner.map), roots, self.swap_metrics.clone());
            }
        }
        // Sustained write pressure starved the optimistic loop: freeze
        // the cut by holding every live cell's writer lock (slot order;
        // publications happen under these locks). A split mid-install
        // shows up as a retired cell — re-route and re-lock.
        'retry: loop {
            let inner = self.load_state();
            let live = inner.map.live_slots();
            let mut guards = Vec::with_capacity(live.len());
            for &s in &live {
                let cell = inner.cell(s);
                let guard = cell.writer.lock();
                if cell.retired.load(Ordering::SeqCst) {
                    continue 'retry;
                }
                guards.push(guard);
            }
            let roots: Vec<Option<Arc<Published<V, K>>>> = inner
                .cells
                .iter()
                .map(|c| c.as_ref().map(|c| c.published.load()))
                .collect();
            return Snapshot::new(Arc::clone(&inner.map), roots, self.swap_metrics.clone());
        }
    }

    /// Counts entries in the window `[min, max]` without materialising
    /// them, against one consistent snapshot. Prunes shards by prefix
    /// mask; survivors are scanned sequentially (counting is cheap —
    /// cloning is what fan-out is for).
    pub fn query_count(&self, min: &[u64; K], max: &[u64; K]) -> usize {
        let t = self.metrics.query_count.start();
        let snap = self.snapshot();
        let matching = snap.router().matching_shards(min, max);
        self.note_pruning(snap.shards(), matching.len());
        self.metrics.fanout.record(matching.len() as u64);
        let out = matching
            .into_iter()
            .map(|s| snap.root(s).tree.query(min, max).count())
            .sum();
        self.metrics.query_count.finish(t);
        out
    }

    /// Snapshot of shard sizes, routing epoch and pruning counters.
    pub fn stats(&self) -> ShardStats {
        let mut s = self.snapshot().stats();
        s.threads = self.pool.threads();
        s.shards_scanned = self.scanned.load(Ordering::Relaxed);
        s.shards_pruned = self.pruned.load(Ordering::Relaxed);
        s
    }

    fn note_pruning(&self, shards: usize, matched: usize) {
        self.scanned.fetch_add(matched as u64, Ordering::Relaxed);
        self.pruned
            .fetch_add((shards - matched) as u64, Ordering::Relaxed);
    }
}

impl<V: Clone + Send + Sync + 'static, const K: usize> ShardedTree<V, K> {
    /// Returns a clone of the value at `key` from the current
    /// published version (use [`ShardedTree::get_with`] to borrow
    /// instead). Lock-free.
    pub fn get(&self, key: &[u64; K]) -> Option<V> {
        self.get_with(key, V::clone)
    }

    /// Collects all entries in the window `[min, max]` (inclusive
    /// corners), in global Z-order.
    ///
    /// The scan runs against one pinned [`Snapshot`] — a consistent
    /// cut of the write history — so concurrent writes, batches and
    /// splits can never tear the result. Shards whose prefix region is
    /// disjoint from the window are pruned by the routing map's mask
    /// walk; the survivors' pinned versions are scanned in parallel on
    /// the worker pool with no locks held. Because shard regions are
    /// Z-order prefixes and [`ShardMap::matching_shards`] yields them
    /// in Z-order, concatenating per-shard results yields exactly the
    /// order a single unsharded tree's query iterator produces.
    pub fn query(&self, min: &[u64; K], max: &[u64; K]) -> Vec<([u64; K], V)> {
        let t = self.metrics.query.start();
        let snap = self.snapshot();
        let matching = snap.router().matching_shards(min, max);
        self.note_pruning(snap.shards(), matching.len());
        self.metrics.fanout.record(matching.len() as u64);
        let (min, max) = (*min, *max);
        // The scatter/merge bracket is the request's fan-out phase;
        // each worker re-attaches the ambient trace context so its
        // per-shard descent span lands in the same trace.
        let ctx = phtrace::current();
        let fan = phtrace::span(phtrace::Phase::FanOut);
        phtrace::add(phtrace::PayloadCounter::Fanout, matching.len() as u64);
        let tasks: Vec<(String, Task<Vec<Entry<V, K>>>)> = matching
            .into_iter()
            .map(|s| {
                let root = Arc::clone(snap.root(s));
                let task = Box::new(move || {
                    let _g = ctx.attach();
                    let _d = phtrace::span(phtrace::Phase::Descent).with_shard(s);
                    root.tree
                        .query(&min, &max)
                        .map(|(k, v)| (k, v.clone()))
                        .collect()
                }) as Task<Vec<Entry<V, K>>>;
                (format!("query:shard-{s}"), task)
            })
            .collect();
        let mut out = Vec::new();
        for chunk in self.pool.scatter_labeled(tasks) {
            out.extend(chunk);
        }
        drop(fan);
        self.metrics.query.finish(t);
        out
    }

    /// The `n` entries nearest to `center` under integer Euclidean
    /// distance as `(key, value, distance)`, sorted by `(distance,
    /// key)`: [`Snapshot::knn`] on a fresh snapshot, on the calling
    /// thread (one search over all shard roots has nothing to scatter).
    pub fn knn(&self, center: &[u64; K], n: usize) -> Vec<([u64; K], V, f64)> {
        let t = self.metrics.knn.start();
        let (out, entered) = self.snapshot().knn_counted(center, n);
        self.metrics.fanout.record(entered as u64);
        self.metrics.knn.finish(t);
        out
    }

    /// Bulk-inserts `items`, partitioning them by shard once and
    /// loading each partition under one write-lock acquisition on the
    /// worker pool. An empty shard gets its partition through
    /// [`PhTree::bulk_load`]'s O(n) bottom-up builder (the ingest fast
    /// path); a non-empty shard falls back to per-key inserts. Returns
    /// the number of *new* keys (duplicates overwrite, like
    /// [`ShardedTree::insert`]).
    ///
    /// Each shard's partition is published as **one** version: a
    /// concurrent snapshot sees all of a shard's batch or none of it
    /// (per-shard batch atomicity; the durable layer's ordered
    /// multi-lock bulk load upgrades this to cross-shard atomicity).
    /// Partitions whose cell retires mid-load come back untouched and
    /// are re-routed through the new epoch.
    pub fn bulk_load(&self, items: Vec<([u64; K], V)>) -> usize {
        let t = self.metrics.bulk_load.start();
        let mut pending = items;
        let mut new_total = 0usize;
        while !pending.is_empty() {
            let inner = self.load_state();
            let bound = inner.map.slot_bound();
            let mut parts: Vec<Vec<([u64; K], V)>> = (0..bound).map(|_| Vec::new()).collect();
            for (key, value) in pending.drain(..) {
                parts[inner.map.route(&key)].push((key, value));
            }
            type LoadOut<V, const K: usize> = Result<usize, Vec<([u64; K], V)>>;
            let ctx = phtrace::current();
            let fan = phtrace::span(phtrace::Phase::FanOut);
            let tasks: Vec<(String, Task<LoadOut<V, K>>)> = parts
                .into_iter()
                .enumerate()
                .filter(|(_, p)| !p.is_empty())
                .map(|(s, part)| {
                    self.metrics.add_shard_ops(s, part.len() as u64);
                    let cell = Arc::clone(inner.cell(s));
                    let clock = Arc::clone(&self.clock);
                    let swap_metrics = self.swap_metrics.clone();
                    let task = Box::new(move || {
                        let _g = ctx.attach();
                        let _d = phtrace::span(phtrace::Phase::Descent).with_shard(s);
                        let mut guard = cell.writer.lock();
                        if cell.retired.load(Ordering::SeqCst) {
                            return Err(part); // re-route under the new epoch
                        }
                        let new = if guard.is_empty() {
                            // Bottom-up bulk build: every key in the
                            // partition is new (duplicates within the
                            // batch collapse last-write-wins, same as
                            // the insert loop below).
                            *guard = PhTree::bulk_load(part);
                            guard.len()
                        } else {
                            let mut new = 0usize;
                            for (k, v) in part {
                                if guard.insert(k, v).is_none() {
                                    new += 1;
                                }
                            }
                            new
                        };
                        // One publication for the whole partition: the
                        // shard's batch is atomic to snapshots.
                        clock.bracket(|| cell.publish(guard.clone(), &swap_metrics));
                        Ok(new)
                    }) as Task<LoadOut<V, K>>;
                    (format!("bulk_load:shard-{s}"), task)
                })
                .collect();
            phtrace::add(phtrace::PayloadCounter::Fanout, tasks.len() as u64);
            for r in self.pool.scatter_labeled(tasks) {
                match r {
                    Ok(n) => new_total += n,
                    Err(part) => pending.extend(part),
                }
            }
            drop(fan);
        }
        self.metrics.bulk_load.finish(t);
        new_total
    }

    /// Splits the live shard `slot` into `2^bits` children, deepening
    /// its Z-prefix — the in-memory half of online rebalancing.
    ///
    /// The parent's entries are partitioned by the successor routing
    /// map and rebuilt into the children via [`PhTree::bulk_load`]
    /// under the parent's writer lock, so the split is atomic: every
    /// other shard stays fully available throughout, and operations
    /// already waiting on the parent re-route to the children the
    /// moment the lock releases (the retired-cell retry). The retire
    /// and the successor-state install happen inside **one**
    /// write-clock bracket, ordered retire-first: lock-free readers
    /// check `retired` after loading a published root, so they either
    /// read the parent's complete pre-split version or re-route to a
    /// child — never a gap. Snapshots pinned before the split keep the
    /// parent's published version. Splits are serialised with each
    /// other; the routing epoch increments by one.
    pub fn split_shard(&self, slot: usize, bits: u32) -> Result<SplitReport, ShardError> {
        let _gate = self.split_gate.lock().unwrap();
        let inner = self.load_state();
        let cell = inner
            .cells
            .get(slot)
            .and_then(|c| c.as_ref())
            .filter(|c| !c.retired.load(Ordering::SeqCst))
            .ok_or(ShardError::UnknownSlot { slot })
            .inspect_err(|_| self.reb_metrics.split_failures.inc())?;
        // The gate guarantees no other split runs, so the map we
        // derive from is the one we install over.
        let (map2, children) = inner
            .map
            .split(slot, bits)
            .inspect_err(|_| self.reb_metrics.split_failures.inc())?;
        self.reb_metrics.migration_inflight.add(1);

        let mut guard = cell.writer.lock();
        let tree = std::mem::replace(&mut *guard, PhTree::new());
        let migrated = tree.len();
        let base = children[0];
        let mut parts: Vec<Vec<([u64; K], V)>> = (0..children.len()).map(|_| Vec::new()).collect();
        for (k, v) in tree.iter() {
            parts[map2.route(&k) - base].push((k, v.clone()));
        }
        let mut cells = inner.cells.clone();
        cells.resize(map2.slot_bound(), None);
        cells[slot] = None;
        for (i, part) in parts.into_iter().enumerate() {
            cells[base + i] = Some(MemCell::fresh(PhTree::bulk_load(part)));
            self.swap_metrics.root_swaps.inc();
        }
        let epoch = map2.epoch();
        // Retire, then install, in one clock bracket, still under the
        // parent's writer lock: readers loading the parent's root see
        // retired=true and re-route; snapshots see begun != done and
        // wait the bracket out, so no snapshot captures a half-split
        // topology. The parent keeps its published (pre-split) root
        // for snapshots already pinned.
        self.clock.bracket(|| {
            cell.retired.store(true, Ordering::SeqCst);
            self.state.store(Arc::new(MemInner {
                map: Arc::new(map2),
                cells,
            }));
        });
        drop(guard);

        self.reb_metrics.migration_inflight.add(-1);
        self.reb_metrics.splits.inc();
        self.reb_metrics.migrated_entries.add(migrated as u64);
        self.reb_metrics.routing_epoch.set(epoch as i64);
        Ok(SplitReport {
            src: slot,
            children,
            migrated,
            backlog_drained: 0,
            epoch,
        })
    }
}

impl<V: Clone, const K: usize> Default for ShardedTree<V, K> {
    fn default() -> Self {
        Self::new(1)
    }
}
