//! Packed read-only PH-tree artifacts: build once, serve forever.
//!
//! `phpack` serialises a bulk-loaded [`phtree::PhTree`] into a paged,
//! checksummed, immutable file and answers `get` / window `query` /
//! `knn` directly over the file's bytes — no deserialisation step, no
//! per-node allocation, no write machinery on the read path.
//!
//! The format (see [`format`] for the byte-exact spec):
//!
//! * fixed 4 KiB pages; page 0 is a checksummed superblock reusing the
//!   record store's shared codec ([`phstore::superblock`]);
//! * node records laid out in **descent order** (parent before
//!   children), addressed by `(page, offset)` pairs instead of
//!   pointers;
//! * an out-of-line checksum table pinning every data page (one
//!   word-parallel [`format::page_sum`] each, cheap enough to verify on
//!   every page fault), the table itself pinned by a sum in the
//!   metadata — every byte of the file is covered by exactly one
//!   checksum, so any single corrupted byte surfaces as a typed
//!   [`phstore::StoreError::Corrupt`].
//!
//! Reading goes through a tiny [`cache::PageCache`] trait with two
//! backends: [`cache::SliceCache`] (whole artifact resident, verified
//! once at open) and [`cache::LruCache`] (demand paging with a pinned
//! LRU, for artifacts larger than RAM). [`tree::PackedTree`] has no
//! traversals of its own: its record view implements `phtree`'s node
//! read seam ([`phtree::walk::NodeRead`]), and the live tree's point
//! descent, window walker and kNN search run over borrowed page bytes
//! unchanged, so results — including iteration order and kNN
//! tie-breaking — are byte-identical to the live tree's.
//!
//! Typical round trip:
//!
//! ```
//! use phpack::{CacheMode, Packable, PackedTree};
//! use phtree::PhTree;
//!
//! let dir = std::env::temp_dir().join("phpack-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("tree.phk");
//!
//! let mut tree: PhTree<u64, 3> = PhTree::new();
//! tree.insert([1, 2, 3], 42);
//! tree.pack_to(&path).unwrap();
//!
//! let packed: PackedTree<u64, 3> = PackedTree::open(&path, CacheMode::Resident).unwrap();
//! assert_eq!(packed.get(&[1, 2, 3]).unwrap(), Some(42));
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod format;
pub mod tree;
mod view;
pub mod writer;

pub use cache::{CacheMode, CacheStats, LruCache, PageBytes, PageCache, SliceCache};
pub use format::{Meta, PackedRef};
pub use tree::{KnnScratch, PackedNeighbor, PackedNode, PackedQuery, PackedTree};
pub use writer::{pack_tree, pack_tree_in, PackStats, Packable};
