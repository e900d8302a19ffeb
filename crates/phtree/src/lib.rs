//! # phtree — the PATRICIA-hypercube-tree
//!
//! A from-scratch Rust implementation of the PH-tree, the
//! space-efficient multi-dimensional storage structure and index of
//!
//! > T. Zäschke, C. Zimmerli, M. C. Norrie: *The PH-Tree — A
//! > Space-Efficient Storage Structure and Multi-Dimensional Index*,
//! > SIGMOD 2014.
//!
//! The PH-tree is a quadtree-like trie over the bit representation of
//! `K`-dimensional integer keys that combines:
//!
//! * splitting in **all `K` dimensions** per node, with children located
//!   by a `K`-bit *hypercube address* (one array lookup instead of up to
//!   `k` binary-tree hops),
//! * PATRICIA-style **prefix sharing** (per-node infixes, per-entry
//!   postfixes), which bounds the tree depth by the bit width `w = 64`
//!   regardless of `K` and regardless of insertion order,
//! * per-node **bit-stream storage** of all infix/postfix data, and
//! * an adaptive **HC/LHC node representation** switching between a full
//!   `2^K` hypercube array and a sorted linear table by exact size.
//!
//! ## Quick start
//!
//! ```
//! use phtree::PhTreeF64;
//!
//! // A 3-D index over f64 coordinates.
//! let mut index: PhTreeF64<u32, 3> = PhTreeF64::new();
//! index.insert([0.1, 0.2, 0.3], 1);
//! index.insert([0.4, 0.5, 0.6], 2);
//! index.insert([-1.0, 0.0, 1.0], 3);
//!
//! assert_eq!(index.get(&[0.4, 0.5, 0.6]), Some(&2));
//!
//! // Window (range) query:
//! let mut hits: Vec<u32> = index
//!     .query(&[0.0, 0.0, 0.0], &[0.5, 0.5, 0.9])
//!     .map(|(_, &v)| v)
//!     .collect();
//! hits.sort();
//! assert_eq!(hits, vec![1, 2]);
//!
//! // Nearest neighbours:
//! let nn = index.knn(&[0.39, 0.5, 0.61], 1);
//! assert_eq!(*nn[0].1, 2);
//! ```
//!
//! For raw integer keys (or anything convertible to sortable `u64`s via
//! [`key`]), use [`PhTree`] directly.

#![deny(unsafe_code, unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
mod block;
mod config;
mod float;
mod impls;
mod iter;
pub mod key;
pub mod knn;
mod node;
mod ops;
mod query;
pub mod raw;
pub mod stats;
pub mod telemetry;
mod tree;
pub mod walk;

pub use config::ReprMode;
pub use float::{PhTreeF64, QueryF64};
pub use iter::Iter;
pub use knn::{Distance, F64Euclidean, IntEuclidean, Neighbor};
pub use ops::{Op, ReplayStats};
pub use query::Query;
pub use stats::{TreeStats, ALLOC_OVERHEAD};
pub use tree::PhTree;

// Compile-time thread-safety guarantees. The trees hold no interior
// mutability or thread affinity, so shared references support
// concurrent readers (`&self` entry points: `get`, `query`, `knn`,
// `iter`, `root_raw`) and ownership can move across threads. Sharding
// layers rely on these bounds; this block makes a regression a compile
// error rather than a distant downstream breakage.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    const fn send<T: Send>() {}
    send_sync::<PhTree<String, 3>>();
    send_sync::<PhTreeF64<String, 3>>();
    // Borrowing iterators are Send + Sync when the element type is.
    send_sync::<Iter<'static, String, 3>>();
    send_sync::<Query<'static, String, 3>>();
    send::<Op<String, 3>>();
};
