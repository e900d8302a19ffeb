//! The packed read-only tree: open, point/window/kNN queries.
//!
//! All three walkers replay the live tree's algorithms over
//! [`NodeView`]s — borrowed page bytes, no deserialisation, no per-node
//! allocation:
//!
//! * [`PackedTree::get`] is the descent loop of `PhTree::get`.
//! * [`PackedTree::query`] is the live `Query` iterator with its stack
//!   inlined into a fixed-size array (tree depth is bounded by the
//!   64-bit key width, so 64 frames always suffice) — constructing and
//!   draining a query performs **zero** heap allocations for
//!   fixed-width value types.
//! * [`PackedTree::knn_into`] is not a replay at all: it hands
//!   [`PackedNode`]s to the one best-first search in `phtree::knn`,
//!   whose state lives in a caller-owned [`KnnScratch`]; after
//!   warm-up, repeated searches allocate nothing. A sub-node's page is
//!   fetched only when the search reaches it, and a value is decoded
//!   only once its entry is a result.
//!
//! Result *order* is identical to the live tree's, not merely the
//! result set: the window walker visits slots in the same sequence and
//! kNN results are sorted by `(distance, key)`, which is what lets the
//! differential test suite compare outputs element by element.

use crate::cache::{CacheMode, CacheStats, LruCache, PageCache, SliceCache};
use crate::format::{Meta, PackedRef, PACK_MAGIC, PAGE_SIZE};
use crate::view::{NodeView, PSlot};
use phbits::{hc, num};
use phstore::vfs::{StdVfs, Vfs};
use phstore::{fnv1a, superblock, Corruption, StoreError, ValueCodec};
use phtree::knn::{self, Expanded, Hit, KnnNode, Slot};
use phtree::raw::{build_node, RawNode};
use phtree::{Distance, IntEuclidean, PhTree};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::Arc;

/// Maximum descent depth: the root splits at bit 63 and every child
/// splits strictly lower, so a chain is at most 64 nodes.
const MAX_DEPTH: usize = 64;

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
        if fnv1a(&table) != meta.table_crc {
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
                    if fnv1a(chunk) != sums[i] {
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
    /// Point query. Decodes and returns the stored value on a hit.
    pub fn get(&self, key: &[u64; K]) -> Result<Option<V>, StoreError> {
        let Some(mut r) = self.root else {
            return Ok(None);
        };
        let mut parent: Option<u8> = None;
        loop {
            let node = NodeView::<K>::fetch(&*self.cache, r, parent)?;
            if !node.infix_matches(key) {
                return Ok(None);
            }
            let h = hc::addr(key, node.post_len as u32);
            match node.get_slot(h)? {
                None => return Ok(None),
                Some(PSlot::Post { pf_off, pr }) => {
                    return if node.postfix_matches(pf_off, key) {
                        node.value_at::<V>(pr).map(Some)
                    } else {
                        Ok(None)
                    };
                }
                Some(PSlot::Sub { sr }) => {
                    parent = Some(node.post_len);
                    r = node.child_ref(sr)?;
                }
            }
        }
    }

    /// Whether `key` is stored (the [`PackedTree::get`] walk without
    /// the value decode).
    pub fn contains(&self, key: &[u64; K]) -> Result<bool, StoreError> {
        let Some(mut r) = self.root else {
            return Ok(false);
        };
        let mut parent: Option<u8> = None;
        loop {
            let node = NodeView::<K>::fetch(&*self.cache, r, parent)?;
            if !node.infix_matches(key) {
                return Ok(false);
            }
            let h = hc::addr(key, node.post_len as u32);
            match node.get_slot(h)? {
                None => return Ok(false),
                Some(PSlot::Post { pf_off, .. }) => {
                    return Ok(node.postfix_matches(pf_off, key));
                }
                Some(PSlot::Sub { sr }) => {
                    parent = Some(node.post_len);
                    r = node.child_ref(sr)?;
                }
            }
        }
    }

    /// Window query over borrowed page bytes; yields entries in the
    /// same order as the live tree's `PhTree::query`.
    pub fn query(&self, min: &[u64; K], max: &[u64; K]) -> PackedQuery<'_, V, K> {
        let mut q = PackedQuery {
            cache: &*self.cache,
            min: *min,
            max: *max,
            stack: std::array::from_fn(|_| None),
            depth: 0,
            pending: None,
            done: false,
            _v: PhantomData,
        };
        if let Some(r) = self.root {
            match NodeView::<K>::fetch(q.cache, r, None) {
                Ok(root) => q.push_node(root, [0u64; K]),
                Err(e) => q.pending = Some(e),
            }
        }
        q
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
        let roots = trees.into_iter().filter_map(|(dist, tree)| {
            let child = PackedChild {
                cache: &*tree.cache,
                r: tree.root?,
                parent: None,
            };
            Some((dist, child))
        });
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

enum PCursor {
    /// Next LHC child index plus its dense post rank, tracked
    /// incrementally (the live `Cursor::Lhc`).
    Lhc { idx: usize, pr: usize },
    /// Next HC address, `None` when exhausted.
    Hc(Option<u64>),
}

struct PFrame<'c, const K: usize> {
    node: NodeView<'c, K>,
    prefix: [u64; K],
    m_l: u64,
    m_u: u64,
    inside: bool,
    cursor: PCursor,
}

/// Iterator over all packed entries within a query rectangle; see
/// [`PackedTree::query`]. Yields `Result` because every step reads
/// (and may fail to verify) page bytes.
pub struct PackedQuery<'t, V, const K: usize> {
    cache: &'t dyn PageCache,
    min: [u64; K],
    max: [u64; K],
    /// Fixed-size descent stack: no heap allocation per query.
    stack: [Option<PFrame<'t, K>>; MAX_DEPTH],
    depth: usize,
    pending: Option<StoreError>,
    done: bool,
    _v: PhantomData<fn() -> V>,
}

impl<'t, V, const K: usize> PackedQuery<'t, V, K> {
    /// Pushes a frame for `node` if its region intersects the query
    /// (the live `Query::push_node`).
    fn push_node(&mut self, node: NodeView<'t, K>, prefix: [u64; K]) {
        let span = num::low_mask(node.post_len as u32 + 1);
        let mut inside = true;
        for (d, &p) in prefix.iter().enumerate() {
            if p > self.max[d] || p | span < self.min[d] {
                return;
            }
            inside &= self.min[d] <= p && p | span <= self.max[d];
        }
        let (m_l, m_u) = if inside {
            (0, num::low_mask(K as u32))
        } else {
            hc::masks(&prefix, &self.min, &self.max, node.post_len as u32)
        };
        if m_l & !m_u != 0 {
            return;
        }
        let cursor = if node.hc {
            PCursor::Hc(Some(hc::first_addr(m_l, m_u)))
        } else {
            let idx = node.lhc_lower_bound(m_l);
            PCursor::Lhc {
                idx,
                pr: node.lhc_scan_state(idx),
            }
        };
        if self.depth == MAX_DEPTH {
            // Unreachable for depth-chained records; typed backstop.
            self.pending = Some(Corruption::new("descent deeper than key width").into());
            return;
        }
        self.stack[self.depth] = Some(PFrame {
            node,
            prefix,
            m_l,
            m_u,
            inside,
            cursor,
        });
        self.depth += 1;
    }

    /// Pushes a frame for a node known to lie inside the query.
    fn push_node_inside(&mut self, node: NodeView<'t, K>, prefix: [u64; K]) {
        let cursor = if node.hc {
            PCursor::Hc(Some(0))
        } else {
            PCursor::Lhc { idx: 0, pr: 0 }
        };
        if self.depth == MAX_DEPTH {
            self.pending = Some(Corruption::new("descent deeper than key width").into());
            return;
        }
        self.stack[self.depth] = Some(PFrame {
            node,
            prefix,
            m_l: 0,
            m_u: num::low_mask(K as u32),
            inside: true,
            cursor,
        });
        self.depth += 1;
    }
}

/// Advances `frame` to its next candidate slot (the live
/// `Query::next_candidate`).
fn next_candidate<const K: usize>(
    frame: &mut PFrame<'_, K>,
) -> Result<Option<(u64, PSlot)>, StoreError> {
    let node = &frame.node;
    match &mut frame.cursor {
        PCursor::Lhc { idx, pr } => {
            while *idx < node.n_children() {
                let (h, slot) = node.lhc_at_ranked(*idx, *pr);
                *idx += 1;
                if matches!(slot, PSlot::Post { .. }) {
                    *pr += 1;
                }
                if h > frame.m_u {
                    break;
                }
                if hc::addr_valid(h, frame.m_l, frame.m_u) {
                    return Ok(Some((h, slot)));
                }
            }
        }
        PCursor::Hc(next) => {
            while let Some(h) = *next {
                *next = hc::next_addr(h, frame.m_l, frame.m_u);
                if let Some(slot) = node.get_slot(h)? {
                    return Ok(Some((h, slot)));
                }
            }
        }
    }
    Ok(None)
}

impl<'t, V: ValueCodec, const K: usize> Iterator for PackedQuery<'t, V, K> {
    type Item = Result<([u64; K], V), StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(e) = self.pending.take() {
                self.done = true;
                return Some(Err(e));
            }
            if self.done || self.depth == 0 {
                return None;
            }
            let frame = self.stack[self.depth - 1].as_mut().expect("live frame");
            let (prefix, post_len, inside) = (frame.prefix, frame.node.post_len, frame.inside);
            let step = match next_candidate(frame) {
                Ok(s) => s,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            match step {
                None => {
                    self.depth -= 1;
                    self.stack[self.depth] = None;
                }
                Some((h, PSlot::Post { pf_off, pr })) => {
                    let node = &self.stack[self.depth - 1]
                        .as_ref()
                        .expect("live frame")
                        .node;
                    let mut key = prefix;
                    hc::apply_addr(&mut key, h, post_len as u32);
                    node.read_postfix_into(pf_off, &mut key);
                    if inside || (0..K).all(|d| self.min[d] <= key[d] && key[d] <= self.max[d]) {
                        return match node.value_at::<V>(pr) {
                            Ok(v) => Some(Ok((key, v))),
                            Err(e) => {
                                self.done = true;
                                Some(Err(e))
                            }
                        };
                    }
                }
                Some((h, PSlot::Sub { sr })) => {
                    let node = &self.stack[self.depth - 1]
                        .as_ref()
                        .expect("live frame")
                        .node;
                    let mut child_prefix = prefix;
                    hc::apply_addr(&mut child_prefix, h, post_len as u32);
                    let sub = match node
                        .child_ref(sr)
                        .and_then(|r| NodeView::<K>::fetch(self.cache, r, Some(post_len)))
                    {
                        Ok(s) => s,
                        Err(e) => {
                            self.done = true;
                            return Some(Err(e));
                        }
                    };
                    sub.read_infix_into(&mut child_prefix);
                    let m = !num::low_mask(sub.post_len as u32 + 1);
                    for v in child_prefix.iter_mut() {
                        *v &= m;
                    }
                    if inside {
                        self.push_node_inside(sub, child_prefix);
                    } else {
                        self.push_node(sub, child_prefix);
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------------------ kNN

/// One kNN result from a packed tree (owns its decoded value).
pub type PackedNeighbor<V, const K: usize> = Hit<V, K>;

/// Reusable state for [`PackedTree::knn_into`]; see
/// [`phtree::knn::KnnScratch`].
pub type KnnScratch<'c, const K: usize> = knn::KnnScratch<PackedNode<'c, K>, K>;

/// A packed node record as the shared kNN search sees it.
pub struct PackedNode<'c, const K: usize> {
    view: NodeView<'c, K>,
    cache: &'c dyn PageCache,
}

/// Where a packed sub-node lives; nothing is read until the search
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

impl<'c, const K: usize> KnnNode<K> for PackedNode<'c, K> {
    type Child = PackedChild<'c>;
    type Post = usize;
    type Value = PackedValue<'c, K>;
    type Error = StoreError;

    fn resolve(child: &PackedChild<'c>) -> Result<Self, StoreError> {
        Ok(PackedNode {
            view: NodeView::fetch(child.cache, child.r, child.parent)?,
            cache: child.cache,
        })
    }

    fn post_len(&self) -> u32 {
        self.view.post_len as u32
    }

    fn read_infix_into(&self, key: &mut [u64; K]) {
        self.view.read_infix_into(key)
    }

    fn visit_slots(
        &self,
        corner: &[u64; K],
        mut f: impl FnMut([u64; K], Slot<PackedChild<'c>, usize>),
    ) -> Result<(), StoreError> {
        let view = &self.view;
        view.visit_slots(|h, slot| {
            let mut key = *corner;
            hc::apply_addr(&mut key, h, view.post_len as u32);
            match slot {
                PSlot::Post { pf_off, pr } => {
                    view.read_postfix_into(pf_off, &mut key);
                    f(key, Slot::Post(pr));
                }
                PSlot::Sub { sr } => {
                    let child = PackedChild {
                        cache: self.cache,
                        r: view.child_ref(sr)?,
                        parent: Some(view.post_len),
                    };
                    f(key, Slot::Sub(child));
                }
            }
            Ok(())
        })
    }

    fn value(&self, pr: usize) -> PackedValue<'c, K> {
        PackedValue(self.view.clone(), pr)
    }
}
