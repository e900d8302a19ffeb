//! # phshard — a concurrent, sharded PH-tree serving layer
//!
//! The PH-tree's structural properties (paper Sect. 3/5) make it
//! unusually easy to serve concurrently: its shape is a pure function
//! of its contents, updates touch at most two nodes, and the top of the
//! tree branches on exactly the bit stream a Z-order prefix router
//! uses. This crate exploits that:
//!
//! * [`ShardedTree`] partitions the key space into shards by a prefix
//!   of each key's Z-order interleaving — a routing trie
//!   ([`ShardMap`]; the first `s` bits for the `S = 2^s` shards it
//!   starts with, one more level wherever a hot shard was split).
//!   Every shard owns an axis-aligned hypercube prefix region, so a
//!   window query prunes non-matching shards with the *same*
//!   `mL`/`mU` masks the in-node range iterator uses.
//! * The read path is **lock-free** (MVCC-lite): every write publishes
//!   an immutable tree version — an O(1) structural clone, versions
//!   share nodes copy-on-write — through an atomic swap cell, and
//!   `get`/`query`/`knn` serve from published versions without
//!   acquiring any lock (pinned by a debug-mode lock counter,
//!   [`data_lock_acquisitions`]). A single-key write locks one shard;
//!   a run or bulk load locks the shards it touches in ascending slot
//!   order (asserted in debug builds) and publishes them together.
//! * [`ShardedTree::snapshot`] / [`DurableSharded::snapshot`] pin a
//!   [`Snapshot`]: a consistent cut across all shards. Every
//!   cross-shard read of a live store (`query`, `query_count`, `knn`,
//!   `len`, `stats`) is that read on a fresh snapshot, on the calling
//!   thread: a window scans the shards its masks admit and
//!   concatenates them in Z-order; kNN is one best-first search over
//!   all shard roots ([`phtree::knn`]).
//! * [`DurableSharded`] journals every shard to one store-wide
//!   write-ahead log — a write run costs one write and one sync however
//!   many shards it spans — and checkpoints a snapshot per shard in
//!   `base/shard-NNN/`.
//! * Both stores are thin fronts over **one engine** (`engine.rs`,
//!   private): the cell (writer state + published version + retire
//!   flag), the lock-free point read, the retired-cell retry, the
//!   consistent cut, the multi-cell lock order and the split install
//!   are written once, generic over what a cell keeps under its lock.
//! * Both layers **split hot shards online**: [`ShardMap`] is a routing
//!   trie that deepens one leaf's Z-prefix into `2^bits` children while
//!   serving continues, and the durable layer makes the migration
//!   crash-safe with a one-rename manifest commit (see
//!   `phshard::durable` module docs). A [`Rebalancer`] watches per-shard
//!   skew and fires splits by [`RebalancePolicy`].
//!
//! ## Consistency model
//!
//! See [`Consistency`]: per-shard linearizable, cross-shard snapshot
//! reads (a consistent cut; see [`Snapshot`]).
//!
//! ## Quick start
//!
//! ```
//! use phshard::ShardedTree;
//!
//! // 4 shards.
//! let t: ShardedTree<u32, 3> = ShardedTree::new(4);
//! t.insert([1, 2, 3], 10);
//! t.insert([u64::MAX, 0, 7], 20);
//! assert_eq!(t.get(&[1, 2, 3]), Some(10));
//! // Window query: prunes shards whose prefix region misses the box.
//! assert_eq!(t.query(&[0, 0, 0], &[9, 9, 9]), vec![([1, 2, 3], 10)]);
//! assert_eq!(t.knn(&[1, 2, 2], 1)[0].0, [1, 2, 3]);
//! ```

#![warn(missing_docs)]

mod durable;
mod engine;
mod epoch;
mod error;
mod lockstat;
mod metrics;
mod packed;
mod rebalance;
mod route;
mod sharded;
pub mod snapshot;
mod swap;

pub use durable::{DurableSharded, PendingSplit, DEFAULT_BACKLOG_CAP, MANIFEST_FILE};
pub use epoch::{ShardMap, MAX_DEPTH};
pub use error::ShardError;
#[cfg(debug_assertions)]
pub use lockstat::data_lock_acquisitions;
pub use packed::{
    write_packed_checkpoint, PackedCheckpoint, PackedShards, PACKED_MANIFEST, PACKED_SHARDS_MAGIC,
};
pub use rebalance::{RebalancePolicy, Rebalancer, SkewReport, Splittable};
pub use route::{Router, MAX_SHARDS};
pub use sharded::{ShardStats, ShardedTree, SplitReport};
pub use snapshot::Snapshot;

/// The consistency guarantee of an operation on a sharded tree.
///
/// The sharded layer deliberately trades global write ordering for
/// parallelism, and this enum documents exactly where the line is:
///
/// * Operations touching **one key** (`insert`, `remove`, `get`,
///   `get_with`, `contains`) are [`Consistency::Linearizable`]:
///   writers serialise on the owning shard's writer lock and publish a
///   new tree version before acknowledging; readers load the published
///   version lock-free, so every read sees the latest acknowledged
///   write of its key — without ever blocking on a writer.
/// * Operations spanning **multiple shards** (`query`, `query_count`,
///   `knn`, `len`, `stats`, and everything on a [`Snapshot`]) are
///   [`Consistency::Snapshot`]: they pin one consistent cut of the
///   write history across *all* shards (see [`crate::snapshot`] for
///   the cut protocol) and read it without locks. A scan concurrent
///   with writes reflects exactly the writes that precede its cut —
///   never half of a batch, never one side of a shard split, never a
///   write on shard A together with a miss of an earlier write on
///   shard B. (This upgrades the pre-MVCC model, which was
///   read-committed: per-shard committed states with no global
///   instant.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consistency {
    /// Single total order; reads see the latest acknowledged write.
    /// Holds for all single-key operations.
    Linearizable,
    /// One consistent cut of the write history across all shards.
    /// Holds for all cross-shard reads (they scan a pinned
    /// [`Snapshot`]).
    Snapshot,
}

/// The guarantee an operation enjoys, by whether it can span shards.
/// (Single-key ops never span shards; everything else may.)
pub const fn consistency(spans_shards: bool) -> Consistency {
    if spans_shards {
        Consistency::Snapshot
    } else {
        Consistency::Linearizable
    }
}

// Compile-time thread-safety guarantees: the whole point of this crate
// is `&self` access from many threads, so a regression here must be a
// compile error.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<ShardedTree<String, 3>>();
    send_sync::<DurableSharded<String, 3>>();
    send_sync::<Snapshot<String, 3>>();
    send_sync::<Router<3>>();
};
