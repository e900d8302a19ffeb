//! Paged persistent storage for the PH-tree.
//!
//! The paper argues (Sect. 1 and the outlook) that the PH-tree suits
//! persistent storage: each node's data is one packed bit string that
//! "can be split efficiently to fit into disk-pages", and every update
//! touches at most two nodes — at most two page neighbourhoods. This
//! crate implements that storage layer as a snapshot format:
//!
//! * [`pager`] — a fixed-size-page file substrate (4 KiB pages, a
//!   checksummed header page, sequential allocation).
//! * [`record`] — a slotted-page record heap on top of the pager: many
//!   small node records share a page; records larger than a page spill
//!   into chained overflow pages ("split to fit into disk-pages").
//!   Every record carries an FNV-1a checksum, verified on read.
//! * [`codec`] — compact value (de)serialisation for common types.
//! * [`save`]/[`load`] — persist a [`phtree::PhTree`] node by node
//!   (post-order, children before parents) and rebuild it with full
//!   structural re-validation; corrupt files yield errors, never broken
//!   trees. Saves are atomic: staging file, fsync, rename, directory
//!   fsync.
//! * [`wal`] — a write-ahead log of logical ops (checksummed,
//!   generation-stamped frames) whose recovery scan stops cleanly at
//!   the first torn or corrupt frame.
//! * [`durable`] — [`Durable`], a crash-safe tree: journal every
//!   mutation, checkpoint past a log-size threshold, recover any crash
//!   to a consistent acknowledged-prefix state.
//! * [`vfs`] — the filesystem abstraction ([`vfs::StdVfs`],
//!   [`vfs::MemVfs`]) plus a deterministic fault injector
//!   ([`vfs::FaultVfs`]) that can cut the write stream at any byte,
//!   which is how the crash-recovery guarantees are tested
//!   exhaustively.
//!
//! Because the PH-tree's structure is canonical, the snapshot is
//! byte-for-byte deterministic for a given tree content.
//!
//! ```
//! use phtree::PhTree;
//!
//! let dir = std::env::temp_dir().join("phstore-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("doc.pht");
//!
//! let mut tree: PhTree<u32, 2> = PhTree::new();
//! for i in 0..1000u64 {
//!     tree.insert([i % 37, i / 37], i as u32);
//! }
//! let stats = phstore::save(&tree, &path).unwrap();
//! assert!(stats.pages > 0);
//!
//! let loaded: PhTree<u32, 2> = phstore::load(&path).unwrap();
//! assert_eq!(loaded.len(), tree.len());
//! assert_eq!(loaded.get(&[5, 7]), tree.get(&[5, 7]));
//! # std::fs::remove_file(&path).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod durable;
mod error;
pub mod metrics;
pub mod pager;
pub mod record;
pub mod retry;
mod store;
pub mod superblock;
pub mod vfs;
pub mod wal;

pub use codec::ValueCodec;
pub use durable::{Durable, DurableConfig, RecoveryStats};
pub use error::{Corruption, StoreError};
pub use metrics::StoreMetrics;
pub use retry::{RetryClock, RetryPolicy, RetryVfs, SystemClock, TestClock};
pub use store::{load, load_with, save, save_with, SaveStats};

/// FNV-1a 64-bit checksum used for header and record integrity.
/// Public so layers above (e.g. phshard's sharded manifest) can frame
/// their own small metadata files with the same integrity check.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}
