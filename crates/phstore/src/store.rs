//! Snapshot save/load of a [`PhTree`] as node records in paged storage.
//!
//! Nodes are written post-order (children first), each as one record:
//!
//! ```text
//! [post_len u8][infix_len u8][flags u8: bit0 = HC][reserved u8]
//! [n_subs u32][n_values u32][bits_len u32 (bits)]
//! [bit-string words, LE u64 × ceil(bits_len/64)]
//! [values, ValueCodec-encoded, address order]
//! [child RecordIds, 10 bytes each, address order]
//! ```
//!
//! The header page's metadata records the dimension count, the entry
//! count, the snapshot *generation* (see [`crate::durable`]) and the
//! root record id; loading re-validates every structural invariant
//! (via `phtree::raw`), so corrupt or mismatched files yield
//! [`StoreError`]s, never broken trees.
//!
//! ## Atomicity
//!
//! [`save`] never modifies the target path in place: the snapshot is
//! written to `<path>.tmp`, synced, then renamed over the target and
//! the parent directory is synced. A crash at any point leaves either
//! the complete old snapshot or the complete new one — never a torn
//! mix, and never a lost old snapshot on an early error.

use crate::codec::ValueCodec;
use crate::error::StoreError;
use crate::pager::Pager;
use crate::record::{read_record, RecordId, RecordWriter};
use crate::vfs::{StdVfs, Vfs};
use phtree::raw::{build_node, NodeRef, RawNode};
use phtree::PhTree;
use std::path::{Path, PathBuf};

pub use crate::error::Corruption;

/// Statistics returned by [`save`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveStats {
    /// Nodes written.
    pub nodes: u64,
    /// Total pages in the file (including the header page).
    pub pages: u64,
    /// Payload bytes across all node records.
    pub payload_bytes: u64,
}

/// Snapshot metadata format version. Version 2 added the generation
/// number; version-1 files (no generation) are still readable as
/// generation 0.
const META_VERSION: u8 = 2;
const META_VERSION_V1: u8 = 1;

fn encode_meta(k: usize, len: u64, generation: u64, root: Option<RecordId>) -> Vec<u8> {
    let mut m = Vec::with_capacity(40);
    m.push(META_VERSION);
    m.push(k as u8);
    m.extend_from_slice(&len.to_le_bytes());
    m.extend_from_slice(&generation.to_le_bytes());
    match root {
        None => m.push(0),
        Some(id) => {
            m.push(1);
            id.encode(&mut m);
        }
    }
    m
}

fn decode_meta(k: usize, meta: &[u8]) -> Result<(u64, u64, Option<RecordId>), StoreError> {
    let (generation, rest) = match meta.first() {
        Some(&META_VERSION) => {
            if meta.len() < 19 {
                return Err(StoreError::corrupt("metadata truncated"));
            }
            (
                u64::from_le_bytes(meta[10..18].try_into().unwrap()),
                &meta[18..],
            )
        }
        Some(&META_VERSION_V1) => {
            if meta.len() < 11 {
                return Err(StoreError::corrupt("metadata truncated"));
            }
            (0, &meta[10..])
        }
        _ => return Err(StoreError::corrupt("bad metadata version")),
    };
    if meta[1] as usize != k {
        return Err(StoreError::corrupt("dimension count mismatch"));
    }
    let len = u64::from_le_bytes(meta[2..10].try_into().unwrap());
    let root = match rest.first() {
        Some(0) => None,
        Some(1) => {
            let (id, _) = RecordId::decode(&rest[1..]).ok_or(StoreError::corrupt("bad root id"))?;
            Some(id)
        }
        _ => return Err(StoreError::corrupt("bad root marker")),
    };
    Ok((len, generation, root))
}

fn write_node<V: ValueCodec, const K: usize>(
    w: &mut RecordWriter<'_>,
    node: &NodeRef<'_, V, K>,
) -> Result<RecordId, StoreError> {
    // Children first (post-order) so their ids are known.
    let mut child_ids = Vec::with_capacity(node.n_subs());
    for sub in node.subs() {
        child_ids.push(write_node(w, &sub)?);
    }
    let mut payload = Vec::with_capacity(16 + node.bits_words().len() * 8 + child_ids.len() * 10);
    payload.push(node.post_len());
    payload.push(node.infix_len());
    payload.push(node.is_hc() as u8);
    payload.push(0);
    payload.extend_from_slice(&(child_ids.len() as u32).to_le_bytes());
    payload.extend_from_slice(&(node.n_values() as u32).to_le_bytes());
    payload.extend_from_slice(&(node.bits_len() as u32).to_le_bytes());
    for word in node.bits_words() {
        payload.extend_from_slice(&word.to_le_bytes());
    }
    for v in node.values() {
        v.encode(&mut payload);
    }
    for id in &child_ids {
        id.encode(&mut payload);
    }
    w.append(&payload)
}

fn read_node<V: ValueCodec, const K: usize>(
    pager: &mut Pager,
    id: RecordId,
    depth: usize,
) -> Result<RawNode<V, K>, StoreError> {
    if depth > 64 {
        return Err(StoreError::corrupt("node chain deeper than w"));
    }
    let buf = read_record(pager, id)?;
    if buf.len() < 16 {
        return Err(Corruption::new("node record too short")
            .at_record(id)
            .into());
    }
    let (post_len, infix_len, is_hc) = (buf[0], buf[1], buf[2] != 0);
    let n_subs = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
    let n_values = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
    let bits_len = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
    let n_words = bits_len.div_ceil(64);
    let mut pos = 16;
    if buf.len() < pos + n_words * 8 {
        return Err(Corruption::new("bit string truncated").at_record(id).into());
    }
    let words: Box<[u64]> = (0..n_words)
        .map(|i| u64::from_le_bytes(buf[pos + i * 8..pos + i * 8 + 8].try_into().unwrap()))
        .collect();
    pos += n_words * 8;
    let mut values = Vec::with_capacity(n_values);
    for _ in 0..n_values {
        let (v, used) = V::decode(&buf[pos..]).ok_or_else(|| {
            StoreError::from(
                Corruption::new("value decode failed")
                    .at_record(id)
                    .at_offset(pos as u64),
            )
        })?;
        values.push(v);
        pos += used;
    }
    let mut subs = Vec::with_capacity(n_subs);
    for _ in 0..n_subs {
        let (cid, used) = RecordId::decode(&buf[pos..]).ok_or_else(|| {
            StoreError::from(
                Corruption::new("child id truncated")
                    .at_record(id)
                    .at_offset(pos as u64),
            )
        })?;
        pos += used;
        subs.push(read_node(pager, cid, depth + 1)?);
    }
    if pos != buf.len() {
        return Err(Corruption::new("trailing bytes in node record")
            .at_record(id)
            .at_offset(pos as u64)
            .into());
    }
    build_node(post_len, infix_len, is_hc, words, bits_len, subs, values)
        .map_err(|e| Corruption::new(e.what()).at_record(id).into())
}

/// The temp path a snapshot is staged at before the atomic rename.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Saves `tree` as a snapshot at `path` on the real filesystem,
/// atomically: temp file, fsync, rename, directory fsync (see the
/// module docs).
pub fn save<V: ValueCodec, const K: usize>(
    tree: &PhTree<V, K>,
    path: &Path,
) -> Result<SaveStats, StoreError> {
    save_with(&StdVfs, tree, path, 0)
}

/// [`save`] on any [`Vfs`], stamping `generation` into the metadata.
pub fn save_with<V: ValueCodec, const K: usize>(
    vfs: &dyn Vfs,
    tree: &PhTree<V, K>,
    path: &Path,
    generation: u64,
) -> Result<SaveStats, StoreError> {
    if K > 255 {
        return Err(StoreError::TooManyDims { dims: K, max: 255 });
    }
    let tmp = tmp_path(path);
    // Stage everything in the temp file; the target is untouched until
    // the rename, so errors here cannot lose the previous snapshot.
    let stats = (|| {
        let mut pager = Pager::create_in(
            vfs,
            &tmp,
            &encode_meta(K, tree.len() as u64, generation, None),
        )?;
        let (root_id, nodes, payload_bytes) = match tree.root_raw() {
            None => (None, 0, 0),
            Some(root) => {
                let mut w = RecordWriter::new(&mut pager)?;
                let id = write_node(&mut w, &root)?;
                let (records, bytes) = (w.records, w.bytes);
                w.finish()?;
                (Some(id), records, bytes)
            }
        };
        pager.write_header(&encode_meta(K, tree.len() as u64, generation, root_id))?;
        pager.sync()?;
        Ok::<_, StoreError>(SaveStats {
            nodes,
            pages: pager.n_pages(),
            payload_bytes,
        })
    })()
    .inspect_err(|_| {
        // Best-effort cleanup of the partial staging file.
        let _ = vfs.remove_file(&tmp);
    })?;
    vfs.rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        vfs.sync_dir(parent)?;
    }
    Ok(stats)
}

/// Loads a tree previously written by [`save`] from the real
/// filesystem. The value type and dimension count must match;
/// everything is re-validated.
pub fn load<V: ValueCodec, const K: usize>(path: &Path) -> Result<PhTree<V, K>, StoreError> {
    load_with(&StdVfs, path).map(|(tree, _gen)| tree)
}

/// [`load`] on any [`Vfs`], also returning the snapshot generation.
pub fn load_with<V: ValueCodec, const K: usize>(
    vfs: &dyn Vfs,
    path: &Path,
) -> Result<(PhTree<V, K>, u64), StoreError> {
    let (mut pager, meta) = Pager::open_in(vfs, path)?;
    let (len, generation, root_id) = decode_meta(K, &meta)?;
    let root = match root_id {
        None => None,
        Some(id) => Some(read_node::<V, K>(&mut pager, id, 0)?),
    };
    let tree = PhTree::from_raw_parts(root, len as usize).map_err(|e| Corruption::new(e.what()))?;
    Ok((tree, generation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("phstore-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample(n: u64) -> PhTree<u64, 3> {
        let mut t = PhTree::new();
        let mut x = 5u64;
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.insert([x % 512, (x >> 20) % 512, (x >> 40) % 512], i);
        }
        t
    }

    #[test]
    fn save_load_roundtrip() {
        let path = tmp("store_roundtrip.pht");
        let t = sample(5000);
        let stats = save(&t, &path).unwrap();
        assert_eq!(stats.nodes as usize, t.stats().nodes);
        assert!(stats.pages > 1);
        let u: PhTree<u64, 3> = load(&path).unwrap();
        u.check_invariants();
        assert_eq!(u.len(), t.len());
        let a: Vec<_> = t.iter().collect::<Vec<_>>();
        let b: Vec<_> = u.iter().collect::<Vec<_>>();
        assert_eq!(a.len(), b.len());
        for ((ka, va), (kb, vb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            assert_eq!(va, vb);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_tree_roundtrip() {
        let path = tmp("store_empty.pht");
        let t: PhTree<u64, 3> = PhTree::new();
        save(&t, &path).unwrap();
        let u: PhTree<u64, 3> = load(&path).unwrap();
        assert!(u.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_is_deterministic() {
        let p1 = tmp("store_det1.pht");
        let p2 = tmp("store_det2.pht");
        // Same content, different insertion order → identical snapshot.
        let t1 = sample(2000);
        let mut t2 = PhTree::new();
        let mut entries: Vec<_> = t1.iter().map(|(k, &v)| (k, v)).collect();
        entries.reverse();
        for (k, v) in entries {
            t2.insert(k, v);
        }
        save(&t1, &p1).unwrap();
        save(&t2, &p2).unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn wrong_dimension_is_rejected() {
        let path = tmp("store_wrongk.pht");
        let t = sample(100);
        save(&t, &path).unwrap();
        let r: Result<PhTree<u64, 4>, _> = load(&path);
        assert!(matches!(r, Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_data_byte_is_detected() {
        use std::io::{Seek, SeekFrom, Write};
        let path = tmp("store_flip.pht");
        let t = sample(3000);
        save(&t, &path).unwrap();
        // Corrupt a stretch of the first data page — with thousands of
        // nodes it is densely packed with record payloads.
        {
            use crate::pager::PAGE_SIZE;
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(PAGE_SIZE as u64 + 100)).unwrap();
            f.write_all(&[0xA5; 64]).unwrap();
        }
        let r: Result<PhTree<u64, 3>, _> = load(&path);
        assert!(r.is_err(), "corruption must be detected");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn string_values_roundtrip() {
        let path = tmp("store_strings.pht");
        let mut t: PhTree<String, 2> = PhTree::new();
        for i in 0..500u64 {
            t.insert([i % 29, i / 29], format!("value-{i}"));
        }
        save(&t, &path).unwrap();
        let u: PhTree<String, 2> = load(&path).unwrap();
        assert_eq!(u.get(&[7, 3]), t.get(&[7, 3]));
        assert_eq!(u.len(), t.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unit_values_roundtrip() {
        let path = tmp("store_unit.pht");
        let mut t: PhTree<(), 2> = PhTree::new();
        for i in 0..1000u64 {
            t.insert([i * 31 % 1024, i * 17 % 1024], ());
        }
        save(&t, &path).unwrap();
        let u: PhTree<(), 2> = load(&path).unwrap();
        assert_eq!(u.len(), t.len());
        assert!(u.contains(&[31, 17]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generation_roundtrips_through_metadata() {
        let vfs = MemVfs::new();
        let path = Path::new("/snap/gen.pht");
        let t = sample(200);
        save_with(&vfs, &t, path, 42).unwrap();
        let (u, generation) = load_with::<u64, 3>(&vfs, path).unwrap();
        assert_eq!(generation, 42);
        assert_eq!(u.len(), t.len());
    }

    #[test]
    fn save_error_preserves_previous_snapshot() {
        use crate::vfs::{FaultConfig, FaultVfs};
        use std::sync::Arc;
        let mem = MemVfs::new();
        let path = Path::new("/snap/keep.pht");
        let old = sample(300);
        save_with(&mem, &old, path, 1).unwrap();
        let before = mem.read_file(path).unwrap();
        // A save that crashes mid-write must leave the target intact.
        let faulty = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultConfig {
                write_budget: Some(1000),
                ..Default::default()
            },
        );
        let newer = sample(3000);
        assert!(save_with(&faulty, &newer, path, 2).is_err());
        assert_eq!(mem.read_file(path).unwrap(), before, "old snapshot lost");
        let (u, generation) = load_with::<u64, 3>(&mem, path).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(u.len(), old.len());
    }

    #[test]
    fn save_leaves_no_tmp_behind() {
        let vfs = MemVfs::new();
        let path = Path::new("/snap/clean.pht");
        save_with(&vfs, &sample(100), path, 1).unwrap();
        assert!(vfs.exists(path));
        assert!(
            !vfs.exists(&tmp_path(path)),
            "staging file must be renamed away"
        );
    }
}
