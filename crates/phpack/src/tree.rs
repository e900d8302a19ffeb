//! The packed read-only tree: open, point/window/kNN queries.
//!
//! There are no packed traversals: [`PackedNode`] — a record view over
//! borrowed page bytes plus the cache that resolves its child
//! references — implements `phtree`'s node read seam
//! ([`phtree::walk::NodeRead`]), and the three traversals of the live
//! tree run over it unchanged. No deserialisation, no per-node
//! allocation:
//!
//! * [`PackedTree::get`] / [`PackedTree::contains`] are
//!   [`phtree::walk::descend`], the descent loop of `PhTree::get`.
//! * [`PackedTree::query`] wraps [`phtree::walk::Window`], the walker
//!   behind `PhTree::query`, whose stack is a fixed array — constructing
//!   and draining a query performs **zero** heap allocations for
//!   fixed-width value types.
//! * [`PackedTree::knn_into`] hands [`PackedNode`]s to the best-first
//!   search in `phtree::knn`, whose state lives in a caller-owned
//!   [`KnnScratch`]; after warm-up, repeated searches allocate nothing.
//!   A sub-node's page is fetched only when the search reaches it, and
//!   a value is decoded only once its entry is a result.
//!
//! Result *order* is therefore the live tree's, not merely the result
//! set: windows come back in the same sequence and kNN results sorted
//! by `(distance, key)`. The differential test suite compares outputs
//! element by element; what it vouches for is the PHPACK01 decoder
//! ([`crate::view`]) underneath the shared code.

use crate::cache::{CacheMode, CacheStats, LruCache, PageCache, SliceCache};
use crate::format::{page_sum, Meta, PackedRef, PACK_MAGIC, PAGE_SIZE};
use crate::view::{NodeView, PSlot, PackedPost};
use phbits::{bytes, hc, num};
use phstore::vfs::{StdVfs, Vfs};
use phstore::{superblock, Corruption, StoreError, ValueCodec};
use phtree::knn::{self, Expanded, Hit};
use phtree::raw::{build_node, RawNode};
use phtree::walk::{self, NodeRead, Slot, SlotOf, Window};
use phtree::{Distance, IntEuclidean, PhTree};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::Arc;

/// A read-only PH-tree served from a packed artifact.
pub struct PackedTree<V, const K: usize> {
    cache: Arc<dyn PageCache>,
    len: u64,
    root: Option<PackedRef>,
    _v: PhantomData<fn() -> V>,
}

impl<V, const K: usize> PackedTree<V, K> {
    /// Opens a packed artifact on the real filesystem.
    pub fn open(path: &Path, mode: CacheMode) -> Result<PackedTree<V, K>, StoreError> {
        Self::open_in(&StdVfs, path, mode)
    }

    /// Opens a packed artifact on any [`Vfs`].
    ///
    /// Validates the superblock, metadata and checksum table up front.
    /// [`CacheMode::Resident`] additionally reads and verifies the
    /// whole data region once; [`CacheMode::Lru`] defers per-page
    /// verification to first touch.
    pub fn open_in(
        vfs: &dyn Vfs,
        path: &Path,
        mode: CacheMode,
    ) -> Result<PackedTree<V, K>, StoreError> {
        let mut file = vfs.open(path)?;
        let flen = file.len()?;
        if flen < PAGE_SIZE as u64 || flen % PAGE_SIZE as u64 != 0 {
            return Err(Corruption::new("file size is not page-aligned")
                .at_offset(flen)
                .into());
        }
        let mut sb = vec![0u8; PAGE_SIZE];
        file.read_exact_at(&mut sb, 0)?;
        let (n_pages, meta) = superblock::decode(PACK_MAGIC, &sb)?;
        if n_pages != flen / PAGE_SIZE as u64 {
            return Err(Corruption::new("page count mismatch")
                .at_page(n_pages)
                .into());
        }
        let meta = Meta::decode(&meta)?;
        if meta.k as usize != K {
            return Err(Corruption::new("artifact dimension count mismatch")
                .at_page(0)
                .into());
        }
        let d = meta.data_pages;
        let table_pages = (d * 8).div_ceil(PAGE_SIZE as u64);
        if d > u32::MAX as u64 || n_pages != 1 + d + table_pages {
            return Err(Corruption::new("page accounting mismatch")
                .at_page(0)
                .into());
        }

        let mut table = vec![0u8; (table_pages as usize) * PAGE_SIZE];
        file.read_exact_at(&mut table, (1 + d) * PAGE_SIZE as u64)?;
        if page_sum(&table) != meta.table_crc {
            return Err(Corruption::new("checksum table corrupt")
                .at_page(1 + d)
                .into());
        }
        let sums: Box<[u64]> = (0..d as usize)
            .map(|i| u64::from_le_bytes(table[i * 8..i * 8 + 8].try_into().unwrap()))
            .collect();

        let cache: Arc<dyn PageCache> = match mode {
            CacheMode::Resident => {
                let mut data = vec![0u8; d as usize * PAGE_SIZE];
                if d > 0 {
                    file.read_exact_at(&mut data, PAGE_SIZE as u64)?;
                }
                for (i, chunk) in data.chunks(PAGE_SIZE).enumerate() {
                    if page_sum(chunk) != sums[i] {
                        return Err(Corruption::new("page checksum mismatch")
                            .at_page(1 + i as u64)
                            .into());
                    }
                }
                Arc::new(SliceCache::new(data.into_boxed_slice(), d as u32))
            }
            CacheMode::Lru { pages } => Arc::new(LruCache::new(file, d as u32, sums, pages)),
        };
        Ok(PackedTree {
            cache,
            len: meta.len,
            root: meta.root,
            _v: PhantomData,
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Page-cache counters (touches are the benchmark's pages/query
    /// locality probe).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of data pages in the artifact.
    pub fn data_pages(&self) -> u32 {
        self.cache.data_pages()
    }
}

impl<V: ValueCodec, const K: usize> PackedTree<V, K> {
    /// Handle of the root record, for the shared traversals.
    fn root(&self) -> Option<PackedChild<'_>> {
        Some(PackedChild {
            cache: &*self.cache,
            r: self.root?,
            parent: None,
        })
    }

    /// Point query. Decodes and returns the stored value on a hit.
    pub fn get(&self, key: &[u64; K]) -> Result<Option<V>, StoreError> {
        let Some(root) = self.root() else {
            return Ok(None);
        };
        walk::descend::<PackedNode<K>, K>(&root, key)?
            .map(|(node, post)| node.view.value_at::<V>(post.pr))
            .transpose()
    }

    /// Whether `key` is stored (the [`PackedTree::get`] walk without
    /// the value decode).
    pub fn contains(&self, key: &[u64; K]) -> Result<bool, StoreError> {
        let Some(root) = self.root() else {
            return Ok(false);
        };
        Ok(walk::descend::<PackedNode<K>, K>(&root, key)?.is_some())
    }

    /// Window query over borrowed page bytes; yields entries in the
    /// same order as the live tree's `PhTree::query`.
    pub fn query(&self, min: &[u64; K], max: &[u64; K]) -> PackedQuery<'_, V, K> {
        let mut walk = Window::new(*min, *max, 0);
        let pending = self.root().and_then(|root| walk.push_root(&root).err());
        PackedQuery {
            walk,
            pending,
            done: false,
            _v: PhantomData,
        }
    }

    /// Number of entries in the window (drains a [`PackedTree::query`]).
    pub fn query_count(&self, min: &[u64; K], max: &[u64; K]) -> Result<usize, StoreError> {
        let mut n = 0usize;
        for item in self.query(min, max) {
            item?;
            n += 1;
        }
        Ok(n)
    }

    /// `n` nearest entries under integer Euclidean distance, sorted by
    /// `(distance, key)` like [`PhTree::knn`] (convenience wrapper
    /// allocating a fresh scratch).
    pub fn knn(
        &self,
        center: &[u64; K],
        n: usize,
    ) -> Result<Vec<PackedNeighbor<V, K>>, StoreError> {
        let mut scratch = KnnScratch::new();
        let mut out = Vec::new();
        self.knn_into(center, n, &IntEuclidean, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Best-first kNN with caller-owned scratch: `scratch` and `out`
    /// retain their capacity across calls, so repeated searches are
    /// allocation-free once warmed up. Results are appended to `out`
    /// (cleared first), nearest first.
    pub fn knn_into<'t, M: Distance<K>>(
        &'t self,
        center: &[u64; K],
        n: usize,
        metric: &M,
        scratch: &mut KnnScratch<'t, K>,
        out: &mut Vec<PackedNeighbor<V, K>>,
    ) -> Result<(), StoreError> {
        Self::knn_forest([(0.0, self)], center, n, metric, scratch, out).map(drop)
    }

    /// One search over several packed trees (the shards of a packed
    /// checkpoint). Each tree comes with a lower bound on the distance
    /// from `center` to any key it can hold; a tree farther than the
    /// results found is never opened, not even its root page.
    pub fn knn_forest<'t, M: Distance<K>>(
        trees: impl IntoIterator<Item = (f64, &'t PackedTree<V, K>)>,
        center: &[u64; K],
        n: usize,
        metric: &M,
        scratch: &mut KnnScratch<'t, K>,
        out: &mut Vec<PackedNeighbor<V, K>>,
    ) -> Result<Expanded, StoreError>
    where
        V: 't,
    {
        out.clear();
        let roots = trees
            .into_iter()
            .filter_map(|(dist, tree)| Some((dist, tree.root()?)));
        let seen = scratch.search(roots, center, n, f64::INFINITY, metric)?;
        for hit in scratch.drain_hits() {
            out.push(Hit {
                key: hit.key,
                value: hit.value.0.value_at::<V>(hit.value.1)?,
                dist: hit.dist,
            });
        }
        Ok(seen)
    }

    /// Rebuilds a live [`PhTree`] from the artifact (full structural
    /// re-validation through the raw reassembly path). This is the
    /// "promote a packed artifact back to a writable tree" escape
    /// hatch; serving reads does not need it.
    pub fn to_tree(&self) -> Result<PhTree<V, K>, StoreError> {
        fn build<V: ValueCodec, const K: usize>(
            cache: &dyn PageCache,
            r: PackedRef,
            parent: Option<u8>,
        ) -> Result<RawNode<V, K>, StoreError> {
            let view = NodeView::<K>::fetch(cache, r, parent)?;
            let mut subs = Vec::with_capacity(view.n_subs as usize);
            for sr in 0..view.n_subs as usize {
                subs.push(build(cache, view.child_ref(sr)?, Some(view.post_len))?);
            }
            let mut values = Vec::with_capacity(view.n_values as usize);
            for pr in 0..view.n_values as usize {
                values.push(view.value_at::<V>(pr)?);
            }
            let (bits, nbits) = view.bits_raw();
            let words: Box<[u64]> = (0..nbits.div_ceil(64))
                .map(|w| phbits::bytes::read_bits(bits, w * 64, (nbits - w * 64).min(64) as u32))
                .collect();
            build_node(
                view.post_len,
                view.infix_len,
                view.hc,
                words,
                nbits,
                subs,
                values,
            )
            .map_err(|e| {
                Corruption::new(e.what())
                    .at_page(r.page as u64)
                    .at_offset(r.off as u64)
                    .into()
            })
        }
        let root = match self.root {
            None => None,
            Some(r) => Some(build::<V, K>(&*self.cache, r, None)?),
        };
        PhTree::from_raw_parts(root, self.len as usize)
            .map_err(|e| Corruption::new(e.what()).into())
    }
}

// -------------------------------------------------------------- queries

/// Iterator over all packed entries within a query rectangle; see
/// [`PackedTree::query`]. Yields `Result` because every step reads
/// (and may fail to verify) page bytes; after an error it yields
/// nothing more.
pub struct PackedQuery<'t, V, const K: usize> {
    walk: Window<PackedNode<'t, K>, K>,
    /// Failure to fetch the root, reported by the first `next`.
    pending: Option<StoreError>,
    done: bool,
    _v: PhantomData<fn() -> V>,
}

impl<'t, V: ValueCodec, const K: usize> Iterator for PackedQuery<'t, V, K> {
    type Item = Result<([u64; K], V), StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let step = match self.pending.take() {
            Some(e) => Err(e),
            None => self.walk.next_entry().and_then(|hit| match hit {
                Some((key, node, post)) => Ok(Some((key, node.view.value_at::<V>(post.pr)?))),
                None => Ok(None),
            }),
        };
        self.done = step.is_err();
        step.transpose()
    }
}

// ------------------------------------------------------------------ kNN

/// One kNN result from a packed tree (owns its decoded value).
pub type PackedNeighbor<V, const K: usize> = Hit<V, K>;

/// Reusable state for [`PackedTree::knn_into`]; see
/// [`phtree::knn::KnnScratch`].
pub type KnnScratch<'c, const K: usize> = knn::KnnScratch<PackedNode<'c, K>, K>;

/// A packed node record as the shared traversals see it: the record
/// view plus the cache its child references resolve through.
pub struct PackedNode<'c, const K: usize> {
    view: NodeView<'c, K>,
    cache: &'c dyn PageCache,
}

/// Where a packed sub-node lives; nothing is read until a traversal
/// resolves it.
pub struct PackedChild<'c> {
    cache: &'c dyn PageCache,
    r: PackedRef,
    /// `post_len` of the parent, `None` for a root (see
    /// [`NodeView::fetch`]).
    parent: Option<u8>,
}

/// A value still in its page: the record view pinning the bytes and
/// the value's dense post rank.
pub struct PackedValue<'c, const K: usize>(NodeView<'c, K>, usize);

/// Cursor of a scan over a packed LHC record: the next child index and
/// its dense post rank, tracked incrementally.
pub struct PackedScan {
    idx: usize,
    pr: usize,
}

impl<'c, const K: usize> PackedNode<'c, K> {
    /// A decoded slot as the seam reports it (reads a sub-node's
    /// reference, not the sub-node).
    #[inline]
    fn slot(&self, slot: PSlot) -> Result<SlotOf<Self, K>, StoreError> {
        Ok(match slot {
            PSlot::Post(post) => Slot::Post(post),
            PSlot::Sub { sr } => Slot::Sub(PackedChild {
                cache: self.cache,
                r: self.view.child_ref(sr)?,
                parent: Some(self.view.post_len),
            }),
        })
    }
}

impl<'c, const K: usize> NodeRead<K> for PackedNode<'c, K> {
    type Child = PackedChild<'c>;
    type Post = PackedPost;
    type Value = PackedValue<'c, K>;
    type Scan = PackedScan;
    type Error = StoreError;

    fn resolve(child: &PackedChild<'c>) -> Result<Self, StoreError> {
        Ok(PackedNode {
            view: NodeView::fetch(child.cache, child.r, child.parent)?,
            cache: child.cache,
        })
    }

    #[inline]
    fn post_len(&self) -> u32 {
        self.view.post_len as u32
    }

    #[inline]
    fn read_infix_into(&self, key: &mut [u64; K]) {
        self.view.read_infix_into(key)
    }

    #[inline]
    fn infix_matches(&self, key: &[u64; K]) -> bool {
        self.view.infix_matches(key)
    }

    #[inline]
    fn is_hc(&self) -> bool {
        self.view.hc
    }

    #[inline]
    fn slot_at(&self, h: u64) -> Result<Option<SlotOf<Self, K>>, StoreError> {
        self.view.get_slot(h)?.map(|s| self.slot(s)).transpose()
    }

    #[inline]
    fn scan_from(&self, h: u64) -> PackedScan {
        let idx = self.view.lhc_lower_bound(h);
        PackedScan {
            idx,
            pr: self.view.lhc_post_rank(idx),
        }
    }

    #[inline]
    fn scan_next(
        &self,
        scan: &mut PackedScan,
        m_l: u64,
        m_u: u64,
    ) -> Result<Option<(u64, SlotOf<Self, K>)>, StoreError> {
        while scan.idx < self.view.n_children() {
            let (h, slot) = self.view.lhc_at_ranked(scan.idx, scan.pr);
            if h > m_u {
                break;
            }
            scan.idx += 1;
            scan.pr += matches!(slot, PSlot::Post(_)) as usize;
            if hc::addr_valid(h, m_l, m_u) {
                return Ok(Some((h, self.slot(slot)?)));
            }
        }
        Ok(None)
    }

    #[inline]
    fn read_postfix_while(
        &self,
        post: &PackedPost,
        key: &mut [u64; K],
        mut keep: impl FnMut(usize, u64) -> bool,
    ) -> bool {
        let width = self.view.post_len as u32;
        let low = num::low_mask(width);
        (0..K).all(|d| {
            let off = post.pf_off + d * width as usize;
            key[d] = (key[d] & !low) | bytes::read_bits(self.view.bits(), off, width);
            keep(d, key[d])
        })
    }

    #[inline]
    fn postfix_matches(&self, post: &PackedPost, key: &[u64; K]) -> bool {
        self.view.postfix_matches(post.pf_off, key)
    }

    fn visit_slots(&self, mut f: impl FnMut(u64, SlotOf<Self, K>)) -> Result<(), StoreError> {
        self.view.visit_slots(|h, slot| {
            f(h, self.slot(slot)?);
            Ok(())
        })
    }

    #[inline]
    fn value(&self, post: PackedPost) -> PackedValue<'c, K> {
        PackedValue(self.view.clone(), post.pr)
    }
}
