//! Corruption fuzz: every byte of a packed artifact is pinned by
//! exactly one checksum (superblock CRC, per-page sums, table CRC), so
//! flipping ANY single bit anywhere in the file must surface as a typed
//! [`StoreError::Corrupt`] — never a panic, never silently wrong
//! results.
//!
//! * [`CacheMode::Resident`] verifies everything at open, so the flip
//!   must fail `open_in` itself.
//! * [`CacheMode::Lru`] verifies the superblock and checksum table at
//!   open and data pages on first touch; a data flip must surface on
//!   the full-scan walk (which fetches every data page).
//!
//! The default run strides through the file (~192 sampled offsets, PR
//! CI budget); set `PACK_SWEEP_FULL=1` for the exhaustive every-byte
//! sweep (nightly).

use phpack::{pack_tree_in, CacheMode, PackedTree};
use phstore::vfs::MemVfs;
use phstore::StoreError;
use phtree::PhTree;
use std::path::Path;

const K: usize = 3;
type V = String;

fn build(vfs: &MemVfs, path: &Path) -> u64 {
    build_n(vfs, path, 300)
}

fn build_n(vfs: &MemVfs, path: &Path, n: u64) -> u64 {
    let mut live: PhTree<V, K> = PhTree::new();
    let mut x = 9u64;
    for i in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        live.insert(
            [x % 512, (x >> 20) % 512, (x >> 40) % 512],
            "v".repeat((i % 7) as usize),
        );
    }
    pack_tree_in(&live, vfs, path).expect("pack").file_bytes
}

/// Walks the whole read surface; returns `true` on the first typed
/// corruption error, panics on any other error kind.
fn scan_detects(p: &PackedTree<V, K>, off: u64) -> bool {
    for item in p.query(&[0; K], &[u64::MAX; K]) {
        match item {
            Ok(_) => {}
            Err(StoreError::Corrupt(_)) => return true,
            Err(e) => panic!("flip at {off}: full scan returned non-corruption error: {e:?}"),
        }
    }
    match p.knn(&[5; K], 4) {
        Ok(_) => {}
        Err(StoreError::Corrupt(_)) => return true,
        Err(e) => panic!("flip at {off}: knn returned non-corruption error: {e:?}"),
    }
    false
}

fn flip_must_surface(vfs: &MemVfs, path: &Path, off: u64, mask: u8) {
    assert!(vfs.corrupt(path, off, mask), "corrupt at {off}");

    // Resident verifies the whole file at open: the flip must fail it.
    match PackedTree::<V, K>::open_in(vfs, path, CacheMode::Resident) {
        Err(StoreError::Corrupt(_)) => {}
        Err(e) => panic!("flip at {off}: resident open returned non-corruption error: {e:?}"),
        Ok(_) => panic!("flip at {off} (mask {mask:#04x}): resident open succeeded"),
    }

    // LRU defers data pages to first touch; open or the scan must
    // surface the flip — silently correct-looking output is a failure.
    let detected = match PackedTree::<V, K>::open_in(vfs, path, CacheMode::Lru { pages: 2 }) {
        Err(StoreError::Corrupt(_)) => true,
        Err(e) => panic!("flip at {off}: lru open returned non-corruption error: {e:?}"),
        Ok(p) => scan_detects(&p, off),
    };
    assert!(
        detected,
        "flip at {off} (mask {mask:#04x}): lru path never surfaced corruption"
    );

    // Un-flip (XOR mask) so the next iteration starts from a clean file.
    assert!(vfs.corrupt(path, off, mask), "restore at {off}");
}

#[test]
fn every_flipped_byte_surfaces_as_corruption() {
    let vfs = MemVfs::new();
    let path = Path::new("/m/fuzz.phk");
    let total = build(&vfs, path);

    // Sanity: the pristine artifact opens and scans clean on both paths.
    let p = PackedTree::<V, K>::open_in(&vfs, path, CacheMode::Resident).unwrap();
    assert!(!scan_detects(&p, u64::MAX));
    let p = PackedTree::<V, K>::open_in(&vfs, path, CacheMode::Lru { pages: 2 }).unwrap();
    assert!(!scan_detects(&p, u64::MAX));

    let full = std::env::var("PACK_SWEEP_FULL").is_ok_and(|v| v == "1");
    let stride = if full { 1 } else { (total / 192).max(1) };
    let mut flips = 0u64;
    let mut off = 0u64;
    while off < total {
        // Single-bit flips (the hardest to detect), bit varying with
        // the offset so the sweep covers all positions over the file.
        flip_must_surface(&vfs, path, off, 1u8 << (off % 8));
        flips += 1;
        off += stride;
    }
    assert!(flips >= if full { total } else { 150 });
}

/// Corruption errors carry locating context: a flipped data page is
/// reported with its page id.
#[test]
fn corruption_reports_page_context() {
    use phpack::format::PAGE_SIZE;
    let vfs = MemVfs::new();
    let path = Path::new("/m/ctx.phk");
    build(&vfs, path);
    // Flip a byte in the middle of data page 2.
    let off = 2 * PAGE_SIZE as u64 + 123;
    assert!(vfs.corrupt(path, off, 0x40));
    match PackedTree::<V, K>::open_in(&vfs, path, CacheMode::Resident) {
        Err(StoreError::Corrupt(c)) => {
            assert_eq!(c.page, Some(2), "page context: {c:?}");
        }
        Err(e) => panic!("expected corruption, got {e:?}"),
        Ok(_) => panic!("expected corruption, open succeeded"),
    }
}

/// kNN fetches a sub-node's page only when the search reaches it, so a
/// damaged page is met in the middle of a search, below a child that
/// was queued unread. That must end the search with a typed error
/// naming the page; a search that never needs the page must still
/// answer, and answer right.
#[test]
fn knn_meets_a_corrupt_page_under_a_deferred_child() {
    use phpack::format::PAGE_SIZE;
    let vfs = MemVfs::new();
    let path = Path::new("/m/deferred.phk");
    build_n(&vfs, path, 4_000);
    let open = || PackedTree::<V, K>::open_in(&vfs, path, CacheMode::Lru { pages: 2 }).unwrap();
    let clean = open();
    let centre = [17u64, 400, 250];
    let near = clean.knn(&centre, 5).unwrap();
    let (pages, len) = (clean.data_pages() as u64, clean.len());
    assert!(
        pages >= 8,
        "artifact too small to defer anything: {pages} pages"
    );

    let mut never_needed = 0;
    for page in 1..=pages {
        let off = page * PAGE_SIZE as u64 + 77;
        assert!(vfs.corrupt(path, off, 0x10));
        let p = open();
        match p.knn(&centre, 5) {
            Ok(got) => {
                assert_eq!(got, near, "page {page} damaged, never read, answer changed");
                never_needed += 1;
            }
            Err(StoreError::Corrupt(c)) => assert_eq!(c.page, Some(page)),
            Err(e) => panic!("page {page}: near kNN returned {e:?}"),
        }
        // Asked for every entry, the search resolves every child.
        match p.knn(&centre, len) {
            Err(StoreError::Corrupt(c)) => assert_eq!(c.page, Some(page)),
            Err(e) => panic!("page {page}: full kNN returned {e:?}"),
            Ok(_) => panic!("page {page}: full kNN never read the damaged page"),
        }
        assert!(vfs.corrupt(path, off, 0x10));
    }
    assert!(
        never_needed > 0,
        "the near kNN read every page: nothing was deferred"
    );
}

/// A version-1 artifact (FNV-1a sums) is a different format, not a
/// damaged version-2 one: it is turned away on its version field, before
/// the table or any data page is looked at — here both are damaged too,
/// and neither is what the error names.
#[test]
fn a_version_1_artifact_is_refused_by_version_not_by_checksum() {
    use phpack::format::{PACK_MAGIC, PAGE_SIZE, VERSION};
    use phstore::superblock;
    let vfs = MemVfs::new();
    let path = Path::new("/m/v1.phk");
    build(&vfs, path);

    // Re-seal the superblock around a metadata blob that says version 1.
    let mut file = vfs.read_file(path).unwrap();
    let (n_pages, mut meta) = superblock::decode(PACK_MAGIC, &file[..PAGE_SIZE]).unwrap();
    assert_eq!(u16::from_le_bytes([meta[0], meta[1]]), VERSION);
    meta[..2].copy_from_slice(&1u16.to_le_bytes());
    file[..PAGE_SIZE].copy_from_slice(&superblock::encode(PACK_MAGIC, n_pages, &meta));
    let last = file.len() - 1;
    file[PAGE_SIZE + 5] ^= 0xFF; // first data page
    file[last - PAGE_SIZE + 1] ^= 0xFF; // checksum table
    vfs.write_file(path, file);

    for mode in [CacheMode::Resident, CacheMode::Lru { pages: 2 }] {
        match PackedTree::<V, K>::open_in(&vfs, path, mode) {
            Err(StoreError::Corrupt(c)) => {
                assert!(c.what.contains("version"), "{mode:?}: refused as {c:?}");
                assert_eq!((c.page, c.offset), (Some(0), Some(1)), "found version 1");
            }
            Err(e) => panic!("{mode:?}: expected a version refusal, got {e:?}"),
            Ok(_) => panic!("{mode:?}: a version-1 artifact opened"),
        }
    }
}
