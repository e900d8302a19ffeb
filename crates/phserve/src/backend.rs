//! The storage seam the server speaks to: one trait over the
//! in-memory [`ShardedTree`], the WAL-backed [`DurableSharded`], and
//! the read-only [`PackedBackend`] (a `phpack` packed checkpoint),
//! selected by a `phserve` flag at startup.
//!
//! Values are fixed to `u64` at the serving tier (the paper's PH-tree
//! stores references, not payloads), which keeps the wire protocol
//! single-shaped. Fallible writes surface `phshard`'s typed
//! [`ShardError`] so the server can translate `Overloaded` into the
//! protocol's shed reply instead of flattening every failure into one
//! opaque error — and reads are fallible too, because a packed
//! checkpoint verifies page checksums lazily: corruption discovered
//! mid-query must become a typed `Internal` wire error, never a panic
//! and never a silently short result.

use phshard::{DurableSharded, PackedShards, ShardError, ShardStats, ShardedTree, Snapshot};
use phtree::Op;
use std::sync::Arc;

/// A pinned, consistent read view: either a live cross-shard
/// [`Snapshot`] or a packed checkpoint (which is *always* one
/// consistent cut — it was frozen from a snapshot and never changes).
///
/// A connection answers a maximal run of pipelined reads from one
/// `ReadView`, so the whole run observes a single write-history cut
/// and pays the cut protocol (or nothing, for packed) once.
pub enum ReadView<const K: usize> {
    /// A live MVCC snapshot pinned from the mutable backends.
    Live(Snapshot<u64, K>),
    /// A packed read-only checkpoint; reads verify checksums lazily
    /// and therefore can fail with a typed store error.
    Packed(Arc<PackedShards<u64, K>>),
}

impl<const K: usize> ReadView<K> {
    /// Point lookup.
    pub fn get(&self, key: &[u64; K]) -> Result<Option<u64>, ShardError> {
        match self {
            ReadView::Live(s) => Ok(s.get(key).copied()),
            ReadView::Packed(p) => p.get(key).map_err(ShardError::from),
        }
    }

    /// Window query over `[min, max]`, inclusive, in global Z-order.
    pub fn query(
        &self,
        min: &[u64; K],
        max: &[u64; K],
    ) -> Result<Vec<([u64; K], u64)>, ShardError> {
        match self {
            ReadView::Live(s) => Ok(s.query(min, max)),
            ReadView::Packed(p) => p.query(min, max).map_err(ShardError::from),
        }
    }

    /// `n` nearest neighbours of `center`, nearest first.
    pub fn knn(
        &self,
        center: &[u64; K],
        n: usize,
    ) -> Result<Vec<([u64; K], u64, f64)>, ShardError> {
        match self {
            ReadView::Live(s) => Ok(s.knn(center, n)),
            ReadView::Packed(p) => p.knn(center, n).map_err(ShardError::from),
        }
    }

    /// Per-shard statistics of the pinned view.
    pub fn stats(&self) -> ShardStats {
        match self {
            ReadView::Live(s) => s.stats(),
            ReadView::Packed(p) => p.stats(),
        }
    }
}

/// Storage operations the server needs, `&self` and thread-safe —
/// every connection thread and queue worker calls straight into the
/// same backend.
pub trait Backend<const K: usize>: Send + Sync + 'static {
    /// Upserts `key` → `value`.
    fn insert(&self, key: [u64; K], value: u64) -> Result<(), ShardError>;
    /// Removes `key`, returning the removed value.
    fn remove(&self, key: &[u64; K]) -> Result<Option<u64>, ShardError>;
    /// Point lookup on a fresh [`Backend::read_view`] — like `query`
    /// and `knn` a convenience for embedders: the server itself only
    /// ever reads through a view it pinned for a whole run.
    fn get(&self, key: &[u64; K]) -> Result<Option<u64>, ShardError> {
        self.read_view().get(key)
    }
    /// Window query over `[min, max]`, inclusive, in global Z-order.
    fn query(&self, min: &[u64; K], max: &[u64; K]) -> Result<Vec<([u64; K], u64)>, ShardError> {
        self.read_view().query(min, max)
    }
    /// `n` nearest neighbours of `center`, nearest first.
    fn knn(&self, center: &[u64; K], n: usize) -> Result<Vec<([u64; K], u64, f64)>, ShardError> {
        self.read_view().knn(center, n)
    }
    /// Batch upsert through the bulk-admission seam; returns the count
    /// of new keys. Must be all-or-nothing with respect to
    /// [`ShardError::Overloaded`]: a shed batch applies nothing.
    fn bulk_load(&self, items: Vec<([u64; K], u64)>) -> Result<usize, ShardError>;
    /// Applies a run of inserts and removes, in order: what the server
    /// makes of the consecutive writes it pops off its queue together.
    /// Returns the previous value of each op that was applied, in run
    /// order; a result shorter than the run comes with the error that
    /// stopped it, and the server answers every op from there on with
    /// that error.
    ///
    /// The default is the per-op loop, stopping at the first error (the
    /// ops after it are not attempted). It is also what the in-memory
    /// tree keeps: with nothing to sync, routing and partitioning a
    /// run buys nothing over the single writes it replaces, each of
    /// which locks one shard and publishes at once. A backend that
    /// pays per call — [`DurableSharded`] syncs its WAL — overrides
    /// this to pay per run; its error covers the whole run, whose ops
    /// are then outcome-unknown one by one (except `Overloaded`: none
    /// applied).
    fn write_run(&self, ops: Vec<Op<u64, K>>) -> (Vec<Option<u64>>, Result<(), ShardError>) {
        let mut prevs = Vec::with_capacity(ops.len());
        for op in ops {
            let prev = match op {
                Op::Insert { key, value } => self.insert(key, value).map(|()| None),
                Op::Remove { key } => self.remove(&key),
            };
            match prev {
                Ok(prev) => prevs.push(prev),
                Err(e) => return (prevs, Err(e)),
            }
        }
        (prevs, Ok(()))
    }
    /// Per-shard statistics snapshot.
    fn stats(&self) -> ShardStats;
    /// Pins a consistent cross-shard view (see [`ReadView`]). The
    /// server answers each run of read requests from one view, so a
    /// pipelined read run observes a single write-history cut and
    /// pays the cut protocol once.
    fn read_view(&self) -> ReadView<K>;
    /// Stable backend-kind label for the readiness endpoint
    /// (`in-memory` / `durable` / `packed-readonly`).
    fn kind(&self) -> &'static str {
        "unknown"
    }
    /// Whether the backend accepts writes (readiness reports it so
    /// operators can tell a packed replica from a serving primary).
    fn writable(&self) -> bool {
        true
    }
}

impl<const K: usize> Backend<K> for ShardedTree<u64, K> {
    fn insert(&self, key: [u64; K], value: u64) -> Result<(), ShardError> {
        ShardedTree::insert(self, key, value);
        Ok(())
    }

    fn remove(&self, key: &[u64; K]) -> Result<Option<u64>, ShardError> {
        Ok(ShardedTree::remove(self, key))
    }

    fn bulk_load(&self, items: Vec<([u64; K], u64)>) -> Result<usize, ShardError> {
        Ok(ShardedTree::bulk_load(self, items))
    }

    fn stats(&self) -> ShardStats {
        ShardedTree::stats(self)
    }

    fn read_view(&self) -> ReadView<K> {
        ReadView::Live(ShardedTree::snapshot(self))
    }

    fn kind(&self) -> &'static str {
        "in-memory"
    }
}

impl<const K: usize> Backend<K> for DurableSharded<u64, K> {
    fn insert(&self, key: [u64; K], value: u64) -> Result<(), ShardError> {
        DurableSharded::insert(self, key, value).map(|_| ())
    }

    fn remove(&self, key: &[u64; K]) -> Result<Option<u64>, ShardError> {
        DurableSharded::remove(self, key)
    }

    fn bulk_load(&self, items: Vec<([u64; K], u64)>) -> Result<usize, ShardError> {
        DurableSharded::bulk_load(self, items)
    }

    /// One WAL write and one sync for the whole run, however many
    /// shards it spans ([`DurableSharded::apply_run`]).
    fn write_run(&self, ops: Vec<Op<u64, K>>) -> (Vec<Option<u64>>, Result<(), ShardError>) {
        match self.apply_run(ops) {
            Ok(prevs) => (prevs, Ok(())),
            Err(e) => (Vec::new(), Err(e)),
        }
    }

    fn stats(&self) -> ShardStats {
        DurableSharded::stats(self)
    }

    fn read_view(&self) -> ReadView<K> {
        ReadView::Live(DurableSharded::snapshot(self))
    }

    fn kind(&self) -> &'static str {
        "durable"
    }
}

/// A read-only backend serving a packed checkpoint (`phserve
/// --packed DIR`): the build-once serve-forever artifact. Every write
/// op answers the typed [`ShardError::ReadOnly`] — structurally
/// impossible, not transiently unavailable — and reads go straight to
/// the zero-copy packed shards.
pub struct PackedBackend<const K: usize>(pub Arc<PackedShards<u64, K>>);

impl<const K: usize> Backend<K> for PackedBackend<K> {
    fn insert(&self, _key: [u64; K], _value: u64) -> Result<(), ShardError> {
        Err(ShardError::ReadOnly)
    }

    fn remove(&self, _key: &[u64; K]) -> Result<Option<u64>, ShardError> {
        Err(ShardError::ReadOnly)
    }

    fn bulk_load(&self, _items: Vec<([u64; K], u64)>) -> Result<usize, ShardError> {
        Err(ShardError::ReadOnly)
    }

    fn stats(&self) -> ShardStats {
        self.0.stats()
    }

    fn read_view(&self) -> ReadView<K> {
        ReadView::Packed(Arc::clone(&self.0))
    }

    fn kind(&self) -> &'static str {
        "packed-readonly"
    }

    fn writable(&self) -> bool {
        false
    }
}
