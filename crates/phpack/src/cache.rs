//! Page caches: how the packed reader gets at verified page bytes.
//!
//! The reader walks node records over *borrowed* bytes; everything it
//! needs from a backend is [`PageCache::extent`] — "give me `count`
//! consecutive, checksum-verified data pages". Two implementations:
//!
//! * [`SliceCache`] — the whole data region resident in one buffer,
//!   every page verified once at open. Extents are plain subslices;
//!   reads never copy and never allocate. This is the
//!   artifact-fits-in-RAM path (the moral equivalent of `mmap`, without
//!   needing OS-specific mapping: the file is read once, sequentially).
//! * [`LruCache`] — a pinned-LRU cache over a `Read`/`Seek`-style
//!   [`VfsFile`] for artifacts larger than RAM. Pages are fetched and
//!   verified on demand into `Arc<[u8]>` entries: a hit is one hash
//!   probe, an O(1) relink and an `Arc` clone (no allocation); a miss
//!   one allocation, one read into it, a word-parallel [`page_sum`] per
//!   page and an O(1) eviction. Entries handed out stay alive through
//!   their `Arc` even after eviction — readers never observe a page
//!   disappearing under them (automatic pinning).
//!
//! Both count *page touches* (pages requested, hits included): the
//! locality probe the `fig_pack` benchmark reports as touches/query.

use crate::format::{page_sum, PAGE_SIZE};
use phstore::vfs::VfsFile;
use phstore::{Corruption, StoreError};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Verified bytes of a page extent, either borrowed from a resident
/// buffer or shared out of a cache entry. Derefs to `[u8]` of exactly
/// `count * PAGE_SIZE` bytes.
#[derive(Debug, Clone)]
pub enum PageBytes<'c> {
    /// Subslice of a resident buffer.
    Borrowed(&'c [u8]),
    /// Shared cache entry (kept alive by this handle even if evicted).
    Cached {
        /// The cached extent (may be longer than the request).
        buf: Arc<[u8]>,
        /// Requested length in bytes.
        len: usize,
    },
}

impl Deref for PageBytes<'_> {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match self {
            PageBytes::Borrowed(s) => s,
            PageBytes::Cached { buf, len } => &buf[..*len],
        }
    }
}

/// Counters common to both cache kinds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Pages requested over the cache's lifetime (hits included).
    pub touches: u64,
    /// Extent requests that had to read from the file.
    pub misses: u64,
    /// Pages currently held in memory.
    pub resident_pages: u64,
}

/// How `PackedTree::open` materialises the artifact's data pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Read and verify the whole data region at open ([`SliceCache`]):
    /// fastest reads, memory proportional to the artifact.
    Resident,
    /// Demand-page through a pinned LRU ([`LruCache`]) with the given
    /// resident-page budget: bounded memory, first touch pays an I/O.
    Lru {
        /// Resident-page budget (minimum 1).
        pages: usize,
    },
}

/// Backend supplying checksum-verified data pages to the reader.
///
/// Page indices are absolute (page 0 is the superblock; data pages are
/// `1..=data_pages`). Implementations must verify the per-page checksum
/// before handing bytes out — the walkers' O(1) structural checks rely
/// on byte integrity being someone else's problem.
pub trait PageCache: Send + Sync {
    /// Number of data pages in the artifact.
    fn data_pages(&self) -> u32;

    /// Verified bytes of `count` consecutive data pages starting at
    /// absolute page `first`.
    fn extent(&self, first: u32, count: u32) -> Result<PageBytes<'_>, StoreError>;

    /// Current counters.
    fn stats(&self) -> CacheStats;
}

/// Rejects extents outside `1..=data_pages` (shared by both caches).
fn check_extent(data_pages: u32, first: u32, count: u32) -> Result<(), StoreError> {
    if first == 0 || count == 0 || (first as u64 - 1) + count as u64 > data_pages as u64 {
        return Err(Corruption::new("page extent out of range")
            .at_page(first as u64)
            .into());
    }
    Ok(())
}

// ------------------------------------------------------------- resident

/// Whole data region resident in memory, verified once at open.
pub struct SliceCache {
    data: Box<[u8]>,
    data_pages: u32,
    touches: AtomicU64,
}

impl SliceCache {
    /// Wraps an already-verified data region (`data_pages * PAGE_SIZE`
    /// bytes). Checksums must have been checked by the caller (the open
    /// path verifies every page against the table before building this).
    pub(crate) fn new(data: Box<[u8]>, data_pages: u32) -> SliceCache {
        debug_assert_eq!(data.len(), data_pages as usize * PAGE_SIZE);
        SliceCache {
            data,
            data_pages,
            touches: AtomicU64::new(0),
        }
    }
}

impl PageCache for SliceCache {
    fn data_pages(&self) -> u32 {
        self.data_pages
    }

    fn extent(&self, first: u32, count: u32) -> Result<PageBytes<'_>, StoreError> {
        check_extent(self.data_pages, first, count)?;
        self.touches.fetch_add(count as u64, Relaxed);
        phtrace::add_pages(count as u64);
        let start = (first as usize - 1) * PAGE_SIZE;
        let len = count as usize * PAGE_SIZE;
        Ok(PageBytes::Borrowed(&self.data[start..start + len]))
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            touches: self.touches.load(Relaxed),
            misses: 0,
            resident_pages: self.data_pages as u64,
        }
    }
}

// ------------------------------------------------------------------ LRU

/// "No slot" in the recency list's links.
const NIL: u32 = u32::MAX;

/// One cached extent, a node of the recency list (a doubly linked list
/// threaded through `LruState::slots` by index).
struct Slot {
    first: u32,
    pages: u32,
    /// `None` only while the slot sits on the free list.
    buf: Option<Arc<[u8]>>,
    newer: u32,
    older: u32,
}

struct LruState {
    /// First page of a cached extent → its slot.
    map: HashMap<u32, u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    newest: u32,
    oldest: u32,
    resident: u64,
}

impl LruState {
    /// Takes slot `i` out of the recency list.
    fn unlink(&mut self, i: u32) {
        let Slot { newer, older, .. } = self.slots[i as usize];
        match newer {
            NIL => self.newest = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    /// Links slot `i` in as the most recently used.
    fn link_newest(&mut self, i: u32) {
        let was = std::mem::replace(&mut self.newest, i);
        (self.slots[i as usize].newer, self.slots[i as usize].older) = (NIL, was);
        match was {
            NIL => self.oldest = i,
            w => self.slots[w as usize].newer = i,
        }
    }

    /// Drops slot `i`'s entry (its bytes live on through any handle
    /// still holding the `Arc`).
    fn discard(&mut self, i: u32) {
        self.unlink(i);
        let slot = &mut self.slots[i as usize];
        slot.buf = None;
        self.resident -= slot.pages as u64;
        self.map.remove(&slot.first);
        self.free.push(i);
    }

    /// Caches `buf` as the newest entry, in a recycled slot if any.
    fn insert(&mut self, first: u32, pages: u32, buf: Arc<[u8]>) {
        let slot = Slot {
            first,
            pages,
            buf: Some(buf),
            newer: NIL,
            older: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() as u32 - 1
            }
        };
        self.map.insert(first, i);
        self.resident += pages as u64;
        self.link_newest(i);
    }
}

/// Demand-paged cache over a file handle, for artifacts larger than the
/// memory budget. Extents are keyed by their first page; eviction is
/// exact LRU in O(1) per hit and per eviction, but entries stay alive
/// through outstanding [`PageBytes`] handles (`Arc` pinning), so
/// eviction can never invalidate bytes a walker is reading.
pub struct LruCache {
    file: Mutex<Box<dyn VfsFile>>,
    data_pages: u32,
    /// Per-data-page [`page_sum`]s (index 0 = page 1), verified at open
    /// against the table CRC.
    sums: Box<[u64]>,
    /// Resident-page budget. At least one entry is always kept, so a
    /// single extent larger than the budget still works.
    cap_pages: u64,
    state: Mutex<LruState>,
    touches: AtomicU64,
    misses: AtomicU64,
}

impl LruCache {
    pub(crate) fn new(
        file: Box<dyn VfsFile>,
        data_pages: u32,
        sums: Box<[u64]>,
        cap_pages: usize,
    ) -> LruCache {
        debug_assert_eq!(sums.len(), data_pages as usize);
        LruCache {
            file: Mutex::new(file),
            data_pages,
            sums,
            cap_pages: cap_pages.max(1) as u64,
            state: Mutex::new(LruState {
                map: HashMap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                newest: NIL,
                oldest: NIL,
                resident: 0,
            }),
            touches: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl PageCache for LruCache {
    fn data_pages(&self) -> u32 {
        self.data_pages
    }

    fn extent(&self, first: u32, count: u32) -> Result<PageBytes<'_>, StoreError> {
        check_extent(self.data_pages, first, count)?;
        self.touches.fetch_add(count as u64, Relaxed);
        phtrace::add_pages(count as u64);
        let len = count as usize * PAGE_SIZE;
        let mut state = self.state.lock().expect("lru state poisoned");
        let cached = state.map.get(&first).copied();
        if let Some(i) = cached.filter(|&i| state.slots[i as usize].pages >= count) {
            if state.newest != i {
                state.unlink(i);
                state.link_newest(i);
            }
            let buf = state.slots[i as usize].buf.as_ref();
            let buf = Arc::clone(buf.expect("a mapped slot holds its bytes"));
            return Ok(PageBytes::Cached { buf, len });
        }
        // Miss (or a cached extent too short): read and verify. The
        // state lock is held across the read so concurrent readers do
        // not duplicate I/O for the same extent; the walkers are
        // read-only so there is no lock-ordering hazard. The fetch is
        // the packed-page cost a slow-query breakdown attributes.
        self.misses.fetch_add(1, Relaxed);
        let _p = phtrace::span(phtrace::Phase::Page);
        // The bytes are read into the allocation that gets cached
        // (collecting an exact-size iterator allocates the `Arc` once).
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        let bytes = Arc::get_mut(&mut buf).expect("a fresh Arc is unshared");
        {
            let mut file = self.file.lock().expect("lru file poisoned");
            file.read_exact_at(bytes, first as u64 * PAGE_SIZE as u64)?;
        }
        for (i, s) in bytes.chunks_exact(PAGE_SIZE).enumerate() {
            if page_sum(s) != self.sums[first as usize - 1 + i] {
                return Err(Corruption::new("page checksum mismatch")
                    .at_page(first as u64 + i as u64)
                    .into());
            }
        }
        // Replace a shorter entry on the same key, then evict oldest
        // first until the new one fits the budget or is alone.
        if let Some(short) = cached {
            state.discard(short);
        }
        while state.resident + count as u64 > self.cap_pages && state.oldest != NIL {
            let oldest = state.oldest;
            state.discard(oldest);
        }
        state.insert(first, count, Arc::clone(&buf));
        Ok(PageBytes::Cached { buf, len })
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            touches: self.touches.load(Relaxed),
            misses: self.misses.load(Relaxed),
            resident_pages: self.state.lock().expect("lru state poisoned").resident,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phstore::vfs::{MemVfs, Vfs};
    use proptest::prelude::*;
    use std::path::Path;

    /// Page `p`'s content: starts with `p`, differs from every other
    /// page's in every byte.
    fn page_of(p: u8) -> Vec<u8> {
        (0..PAGE_SIZE).map(|j| p ^ (j / 16) as u8).collect()
    }

    /// Builds a fake file of `pages` data pages (superblock page left
    /// zero) and returns their sums.
    fn fake_file(vfs: &MemVfs, path: &Path, pages: u8) -> Box<[u64]> {
        let mut f = vfs.create(path).unwrap();
        f.write_all_at(&[0u8; PAGE_SIZE], 0).unwrap();
        (1..=pages)
            .map(|p| {
                f.write_all_at(&page_of(p), p as u64 * PAGE_SIZE as u64)
                    .unwrap();
                page_sum(&page_of(p))
            })
            .collect()
    }

    #[test]
    fn slice_cache_serves_subslices_and_counts() {
        let mut data = Vec::new();
        for i in 0..3u8 {
            data.extend_from_slice(&page_of(i));
        }
        let c = SliceCache::new(data.into_boxed_slice(), 3);
        let e = c.extent(2, 2).unwrap();
        assert_eq!(e.len(), 2 * PAGE_SIZE);
        assert_eq!(e[0], 1);
        assert_eq!(e[PAGE_SIZE], 2);
        assert!(c.extent(0, 1).is_err());
        assert!(c.extent(3, 2).is_err());
        assert!(c.extent(1, 0).is_err());
        assert_eq!(c.stats().touches, 2);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn lru_cache_hits_misses_and_evicts() {
        let vfs = MemVfs::new();
        let path = Path::new("/m/a.phk");
        let sums = fake_file(&vfs, path, 4);
        let c = LruCache::new(vfs.open(path).unwrap(), 4, sums, 2);
        // Miss, then hit.
        let a = c.extent(1, 1).unwrap();
        assert_eq!(a[0], 1);
        let b = c.extent(1, 1).unwrap();
        assert_eq!(b[0], 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().touches, 2);
        // Fill past the 2-page budget; the oldest entry is evicted but
        // `a` (outstanding Arc) still reads correctly.
        c.extent(2, 1).unwrap();
        c.extent(3, 1).unwrap();
        assert!(c.stats().resident_pages <= 2);
        assert_eq!(a[0], 1);
        // Page 1 was evicted: touching it again is a miss.
        let m0 = c.stats().misses;
        c.extent(1, 1).unwrap();
        assert_eq!(c.stats().misses, m0 + 1);
    }

    #[test]
    fn lru_multi_page_extent_replaces_short_entry() {
        let vfs = MemVfs::new();
        let path = Path::new("/m/b.phk");
        let sums = fake_file(&vfs, path, 4);
        let c = LruCache::new(vfs.open(path).unwrap(), 4, sums, 8);
        c.extent(2, 1).unwrap();
        let e = c.extent(2, 3).unwrap();
        assert_eq!(e.len(), 3 * PAGE_SIZE);
        assert_eq!(e[0], 2);
        assert_eq!(e[2 * PAGE_SIZE], 4);
        // A shorter request on the same key is now a hit on the longer
        // entry.
        let m0 = c.stats().misses;
        let s = c.extent(2, 2).unwrap();
        assert_eq!(s.len(), 2 * PAGE_SIZE);
        assert_eq!(c.stats().misses, m0);
    }

    #[test]
    fn lru_detects_corrupt_page() {
        let vfs = MemVfs::new();
        let path = Path::new("/m/c.phk");
        let sums = fake_file(&vfs, path, 4);
        assert!(vfs.corrupt(path, 2 * PAGE_SIZE as u64 + 17, 0xFF));
        let c = LruCache::new(vfs.open(path).unwrap(), 4, sums, 1);
        assert!(c.extent(1, 1).is_ok());
        let err = c.extent(2, 1).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(c) if c.page == Some(2)));
        // Verified once is not verified for good: page 1 is evicted,
        // damaged on disk, and caught when it is faulted again.
        assert!(c.extent(3, 1).is_ok());
        assert!(vfs.corrupt(path, PAGE_SIZE as u64 + 4000, 0x01));
        let err = c.extent(1, 1).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(c) if c.page == Some(1)));
    }

    /// What `LruCache` must be indistinguishable from: `(first, pages)`
    /// entries, most recently used first.
    struct Model {
        entries: Vec<(u32, u32)>,
        cap: u64,
    }

    impl Model {
        fn resident(&self) -> u64 {
            self.entries.iter().map(|e| e.1 as u64).sum()
        }

        /// Serves a request; whether it was a hit.
        fn extent(&mut self, first: u32, count: u32) -> bool {
            let at = self.entries.iter().position(|e| e.0 == first);
            let hit = at.is_some_and(|i| self.entries[i].1 >= count);
            let entry = match at.map(|i| self.entries.remove(i)) {
                Some(e) if hit => e,
                _ => (first, count),
            };
            self.entries.insert(0, entry);
            while self.resident() > self.cap && self.entries.len() > 1 {
                self.entries.pop();
            }
            hit
        }
    }

    const MODEL_PAGES: u8 = 12;

    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Random extents — single pages, runs, a short entry outgrown
        /// on its own key — with handles held across evictions, step by
        /// step against the model.
        #[test]
        fn lru_is_the_vec_model(
            cap in 1usize..8,
            ops in proptest::collection::vec((1u32..=MODEL_PAGES as u32, 1u32..4, any::<bool>()), 1..80),
        ) {
            let vfs = MemVfs::new();
            let path = Path::new("/m/model.phk");
            let sums = fake_file(&vfs, path, MODEL_PAGES);
            let c = LruCache::new(vfs.open(path).unwrap(), MODEL_PAGES as u32, sums, cap);
            let mut model = Model { entries: Vec::new(), cap: cap as u64 };
            let want = |first: u32, count: u32| -> Vec<u8> {
                (first..first + count).flat_map(|p| page_of(p as u8)).collect()
            };
            let mut held: Vec<(u32, u32, PageBytes<'_>)> = Vec::new();
            let mut touches = 0;
            for (first, count, hold) in ops {
                let count = count.min(MODEL_PAGES as u32 + 1 - first);
                let before = c.stats().misses;
                let got = c.extent(first, count).unwrap();
                let hit = c.stats().misses == before;
                touches += count as u64;
                prop_assert_eq!(hit, model.extent(first, count), "extent({}, {})", first, count);
                prop_assert_eq!(&got[..], &want(first, count)[..]);
                let stats = c.stats();
                prop_assert_eq!(stats.resident_pages, model.resident());
                prop_assert_eq!(stats.touches, touches);
                prop_assert!(stats.resident_pages <= cap as u64 || model.entries.len() == 1);
                if hold {
                    held.push((first, count, got));
                    if held.len() > 5 {
                        held.remove(0);
                    }
                }
                // Evicted or not, a held handle still reads its pages.
                for (first, count, bytes) in &held {
                    prop_assert_eq!(&bytes[..], &want(*first, *count)[..]);
                }
            }
        }
    }
}
