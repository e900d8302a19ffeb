//! Packing a live [`PhTree`] into a read-only artifact.
//!
//! The packer walks the tree once, top-down, emitting each node's
//! record *before* its children (descent order: a point query's page
//! accesses run mostly forward through the file, and the hot top of the
//! tree clusters into the first pages). Layout is two-phase per node —
//! reserve the record's span at the cursor, recurse into the children
//! to learn their [`PackedRef`]s, then write the record into the
//! reserved span — which keeps the whole pack a single pass.
//!
//! The writer is structure-blind: it copies each node's packed bit
//! string verbatim (the addresses, kinds and postfixes are already
//! inside it) and serialises only the parts that cannot be bits —
//! values through [`ValueCodec`], child links as page/offset pairs.
//! Everything it emits therefore inherits the live tree's validated
//! invariants.
//!
//! The file is assembled in memory and published atomically: staging
//! file, fsync, rename, directory fsync — the same crash discipline as
//! the record store's snapshot save.

use crate::format::{
    page_sum, Meta, PackedRef, RecordHdr, PACK_MAGIC, PAGE_SIZE, REC_HDR, REF_BYTES,
};
use phstore::vfs::{StdVfs, Vfs};
use phstore::{superblock, Corruption, StoreError, ValueCodec};
use phtree::raw::NodeRef;
use phtree::PhTree;
use std::path::Path;

/// What a pack produced (sizes for the bytes/entry accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackStats {
    /// Entries in the packed tree.
    pub entries: u64,
    /// Node records written.
    pub nodes: u64,
    /// Bytes of record payload (before page padding).
    pub data_bytes: u64,
    /// Data pages.
    pub data_pages: u64,
    /// Total file size in bytes (superblock + data + checksum table).
    pub file_bytes: u64,
}

struct Packer {
    data: Vec<u8>,
    nodes: u64,
}

impl Packer {
    /// Applies the placement rule: a record fits entirely within the
    /// current page's remainder, or starts on a fresh page (records
    /// longer than a page always start at in-page offset 0 and occupy a
    /// contiguous extent). Returns the record's start position.
    fn place(&mut self, len: usize) -> usize {
        let pos = self.data.len();
        let in_page = pos % PAGE_SIZE;
        let start = if in_page != 0 && in_page + len > PAGE_SIZE {
            pos + (PAGE_SIZE - in_page)
        } else {
            pos
        };
        self.data.resize(start + len, 0);
        start
    }

    fn write_node<V: ValueCodec, const K: usize>(
        &mut self,
        node: &NodeRef<'_, V, K>,
    ) -> Result<PackedRef, StoreError> {
        // Serialise values first: the record length depends on them.
        let mut vals = Vec::new();
        let mut uniform = true;
        let mut first_len: Option<usize> = None;
        for v in node.values() {
            let before = vals.len();
            v.encode(&mut vals);
            let l = vals.len() - before;
            match first_len {
                None => first_len = Some(l),
                Some(f) if f != l => uniform = false,
                _ => {}
            }
        }
        let bits_len = node.bits_len();
        let bits_bytes = bits_len.div_ceil(8);
        let n_subs = node.n_subs();
        let n_values = node.n_values();
        if bits_len > u32::MAX as usize
            || vals.len() > u32::MAX as usize
            || n_subs > u32::MAX as usize
            || n_values > u32::MAX as usize
        {
            return Err(Corruption::new("node too large for packed format").into());
        }
        let rec_len = REC_HDR + bits_bytes + vals.len() + n_subs * REF_BYTES;
        let start = self.place(rec_len);
        self.nodes += 1;

        // Children land after the parent (descent order); their refs
        // fill the reserved span afterwards.
        let mut refs = Vec::with_capacity(n_subs);
        for sub in node.subs() {
            refs.push(self.write_node(&sub)?);
        }

        let hdr = RecordHdr {
            post_len: node.post_len(),
            infix_len: node.infix_len(),
            hc: node.is_hc(),
            uniform,
            n_subs: n_subs as u32,
            n_values: n_values as u32,
            bits_len: bits_len as u32,
            values_len: vals.len() as u32,
        };
        let rec = &mut self.data[start..start + rec_len];
        hdr.write(rec);
        // Bit string: BitBuf words little-endian, truncated to whole
        // bytes — exactly what phbits::bytes re-reads in place.
        let mut at = REC_HDR;
        for w in node.bits_words() {
            let b = w.to_le_bytes();
            let take = (bits_bytes + REC_HDR - at).min(8);
            rec[at..at + take].copy_from_slice(&b[..take]);
            at += take;
            if at == REC_HDR + bits_bytes {
                break;
            }
        }
        let at = REC_HDR + bits_bytes;
        rec[at..at + vals.len()].copy_from_slice(&vals);
        let mut at = at + vals.len();
        for r in &refs {
            rec[at..at + REF_BYTES].copy_from_slice(&r.encode());
            at += REF_BYTES;
        }
        debug_assert_eq!(at, rec_len);
        let page = 1 + (start / PAGE_SIZE);
        if page > u32::MAX as usize {
            return Err(Corruption::new("tree too large for packed format").into());
        }
        Ok(PackedRef {
            page: page as u32,
            off: (start % PAGE_SIZE) as u16,
        })
    }
}

/// Packs `tree` into the artifact at `path` on any [`Vfs`], atomically
/// (staging file + fsync + rename + directory fsync).
pub fn pack_tree_in<V: ValueCodec, const K: usize>(
    tree: &PhTree<V, K>,
    vfs: &dyn Vfs,
    path: &Path,
) -> Result<PackStats, StoreError> {
    let mut p = Packer {
        data: Vec::new(),
        nodes: 0,
    };
    let root = match tree.root_raw() {
        Some(r) => Some(p.write_node(&r)?),
        None => None,
    };
    let data_bytes = p.data.len() as u64;
    let data_pages = data_bytes.div_ceil(PAGE_SIZE as u64);
    p.data.resize(data_pages as usize * PAGE_SIZE, 0);

    // Out-of-line checksum table: one page_sum per data page, the whole
    // region (padding included) pinned by table_crc in the metadata.
    let mut table = Vec::with_capacity(data_pages as usize * 8);
    for chunk in p.data.chunks(PAGE_SIZE) {
        table.extend_from_slice(&page_sum(chunk).to_le_bytes());
    }
    let table_pages = (table.len() as u64).div_ceil(PAGE_SIZE as u64);
    table.resize(table_pages as usize * PAGE_SIZE, 0);
    let table_crc = page_sum(&table);

    let n_pages = 1 + data_pages + table_pages;
    let meta = Meta {
        k: K as u16,
        len: tree.len() as u64,
        data_pages,
        data_bytes,
        root,
        table_crc,
    };
    let sb = superblock::encode(PACK_MAGIC, n_pages, &meta.encode());

    let tmp = path.with_extension("phk.tmp");
    {
        let mut f = vfs.create(&tmp)?;
        f.write_all_at(&sb, 0)?;
        f.write_all_at(&p.data, PAGE_SIZE as u64)?;
        f.write_all_at(&table, (1 + data_pages) * PAGE_SIZE as u64)?;
        f.sync_all()?;
    }
    vfs.rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        vfs.sync_dir(dir)?;
    }
    Ok(PackStats {
        entries: tree.len() as u64,
        nodes: p.nodes,
        data_bytes,
        data_pages,
        file_bytes: n_pages * PAGE_SIZE as u64,
    })
}

/// [`pack_tree_in`] on the real filesystem.
pub fn pack_tree<V: ValueCodec, const K: usize>(
    tree: &PhTree<V, K>,
    path: &Path,
) -> Result<PackStats, StoreError> {
    pack_tree_in(tree, &StdVfs, path)
}

/// Extension trait putting `pack_to` on [`PhTree`] itself.
pub trait Packable {
    /// Packs this tree into a read-only artifact at `path`.
    fn pack_to(&self, path: &Path) -> Result<PackStats, StoreError>;

    /// Like [`Packable::pack_to`] on any [`Vfs`].
    fn pack_to_in(&self, vfs: &dyn Vfs, path: &Path) -> Result<PackStats, StoreError>;
}

impl<V: ValueCodec, const K: usize> Packable for PhTree<V, K> {
    fn pack_to(&self, path: &Path) -> Result<PackStats, StoreError> {
        pack_tree(self, path)
    }

    fn pack_to_in(&self, vfs: &dyn Vfs, path: &Path) -> Result<PackStats, StoreError> {
        pack_tree_in(self, vfs, path)
    }
}
