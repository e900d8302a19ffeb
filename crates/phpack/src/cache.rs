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
//!   verified on demand into `Arc<[u8]>` entries; a cache hit is one
//!   hash probe plus an `Arc` clone (no allocation), and entries handed
//!   out stay alive through their `Arc` even after eviction — readers
//!   never observe a page disappearing under them (automatic pinning).
//!
//! Both count *page touches* (pages requested, hits included): the
//! locality probe the `fig_pack` benchmark reports as touches/query.

use crate::format::PAGE_SIZE;
use phstore::vfs::VfsFile;
use phstore::{fnv1a, Corruption, StoreError};
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

struct Entry {
    buf: Arc<[u8]>,
    pages: u32,
    stamp: u64,
}

struct LruState {
    map: HashMap<u32, Entry>,
    tick: u64,
    resident: u64,
}

/// Demand-paged cache over a file handle, for artifacts larger than the
/// memory budget. Extents are keyed by their first page; eviction is
/// oldest-stamp-first but entries stay alive through outstanding
/// [`PageBytes`] handles (`Arc` pinning), so eviction can never
/// invalidate bytes a walker is reading.
pub struct LruCache {
    file: Mutex<Box<dyn VfsFile>>,
    data_pages: u32,
    /// Per-data-page FNV-1a sums (index 0 = page 1), verified at open
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
                tick: 0,
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
        state.tick += 1;
        let tick = state.tick;
        if let Some(e) = state.map.get_mut(&first) {
            if e.pages >= count {
                e.stamp = tick;
                return Ok(PageBytes::Cached {
                    buf: Arc::clone(&e.buf),
                    len,
                });
            }
        }
        // Miss (or a cached extent too short): read and verify. The
        // state lock is held across the read so concurrent readers do
        // not duplicate I/O for the same extent; the walkers are
        // read-only so there is no lock-ordering hazard. The fetch is
        // the packed-page cost a slow-query breakdown attributes.
        self.misses.fetch_add(1, Relaxed);
        let _p = phtrace::span(phtrace::Phase::Page);
        let mut buf = vec![0u8; len];
        {
            let mut file = self.file.lock().expect("lru file poisoned");
            file.read_exact_at(&mut buf, first as u64 * PAGE_SIZE as u64)?;
        }
        for i in 0..count {
            let s = &buf[i as usize * PAGE_SIZE..][..PAGE_SIZE];
            if fnv1a(s) != self.sums[(first + i) as usize - 1] {
                return Err(Corruption::new("page checksum mismatch")
                    .at_page((first + i) as u64)
                    .into());
            }
        }
        let buf: Arc<[u8]> = buf.into();
        if let Some(old) = state.map.insert(
            first,
            Entry {
                buf: Arc::clone(&buf),
                pages: count,
                stamp: tick,
            },
        ) {
            state.resident -= old.pages as u64;
        }
        state.resident += count as u64;
        // Evict oldest-first down to budget, never the entry just
        // inserted. The scan is O(entries); budgets are small enough
        // (hundreds of entries) that a heap would not pay for itself.
        while state.resident > self.cap_pages && state.map.len() > 1 {
            let victim = state
                .map
                .iter()
                .filter(|(k, _)| **k != first)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    let e = state.map.remove(&k).expect("victim vanished");
                    state.resident -= e.pages as u64;
                }
                None => break,
            }
        }
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
    use std::path::Path;

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    /// Builds a fake 4-data-page file (superblock page left zero) and
    /// returns (vfs, sums).
    fn fake_file(vfs: &MemVfs, path: &Path) -> Box<[u64]> {
        let mut f = vfs.create(path).unwrap();
        let mut sums = Vec::new();
        f.write_all_at(&page_of(0), 0).unwrap();
        for i in 0..4u8 {
            let p = page_of(i + 1);
            sums.push(fnv1a(&p));
            f.write_all_at(&p, (i as u64 + 1) * PAGE_SIZE as u64)
                .unwrap();
        }
        sums.into_boxed_slice()
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
        let sums = fake_file(&vfs, path);
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
        let sums = fake_file(&vfs, path);
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
        let sums = fake_file(&vfs, path);
        assert!(vfs.corrupt(path, 2 * PAGE_SIZE as u64 + 17, 0xFF));
        let c = LruCache::new(vfs.open(path).unwrap(), 4, sums, 8);
        assert!(c.extent(1, 1).is_ok());
        let err = c.extent(2, 1).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(c) if c.page == Some(2)));
    }
}
