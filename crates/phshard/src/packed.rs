//! Packed checkpoints: freeze one consistent [`Snapshot`] into
//! per-shard `phpack` artifacts plus a tiny routing manifest, then
//! serve the whole topology read-only with a millisecond open.
//!
//! A packed checkpoint is a *serving* artifact, not a recovery log: it
//! complements (never replaces) the WAL+snapshot durability chain.
//! [`DurableSharded::checkpoint_packed`] cuts one snapshot across all
//! shards — so the artifact set is globally consistent, without
//! stopping writes as the store-wide WAL checkpoint does — and
//! packs each live shard's pinned tree. The manifest (routing trie +
//! dimensions + entry count, one superblock-checksummed page) is
//! written **last**, atomically: a crash mid-checkpoint leaves no
//! manifest and the partial artifact set is simply never opened.
//!
//! [`PackedShards::open_in`] is the fast path: decode one page, open
//! each shard artifact (superblock + checksum-table reads — no WAL
//! replay, no tree rebuild), and route reads exactly like a live
//! snapshot: point gets by trie routing, window queries over
//! prefix-pruned shards concatenated in Z-order, kNN as one search
//! over all shard roots.

use crate::epoch::ShardMap;
use crate::error::ShardError;
use crate::sharded::ShardStats;
use crate::snapshot::Snapshot;
use crate::DurableSharded;
use phpack::{pack_tree_in, CacheMode, KnnScratch, PackedTree};
use phstore::vfs::{StdVfs, Vfs};
use phstore::{superblock, Corruption, StoreError, ValueCodec};
use phtree::{knn, IntEuclidean};
use std::path::Path;

/// Manifest file name inside a packed-checkpoint directory.
pub const PACKED_MANIFEST: &str = "packed.meta";

/// Superblock magic of the packed-checkpoint manifest.
pub const PACKED_SHARDS_MAGIC: &[u8; 8] = b"PHPACKS1";

const MANIFEST_VERSION: u16 = 1;

/// Per-shard artifact file name.
fn shard_file(slot: usize) -> String {
    format!("shard-{slot}.phk")
}

/// What a packed checkpoint produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedCheckpoint {
    /// Live shards packed.
    pub shards: usize,
    /// Entries across all artifacts (= snapshot length).
    pub entries: u64,
    /// Total artifact bytes including the manifest.
    pub file_bytes: u64,
}

impl<V: ValueCodec + Clone + Send + Sync, const K: usize> DurableSharded<V, K> {
    /// Packs one consistent snapshot of every live shard into `dir`
    /// (see the module docs). Read traffic keeps flowing; the snapshot
    /// pins versions copy-on-write.
    pub fn checkpoint_packed(&self, dir: &Path) -> Result<PackedCheckpoint, ShardError> {
        write_packed_checkpoint(&self.snapshot(), self.vfs().as_ref(), dir)
    }
}

/// Packs `snap` into `dir` on `vfs`: one `phpack` artifact per live
/// shard, then the routing manifest, written last and atomically.
pub fn write_packed_checkpoint<V: ValueCodec + Clone, const K: usize>(
    snap: &Snapshot<V, K>,
    vfs: &dyn Vfs,
    dir: &Path,
) -> Result<PackedCheckpoint, ShardError> {
    let io = |e: std::io::Error| ShardError::Store(e.into());
    vfs.create_dir_all(dir).map_err(io)?;
    let map = snap.router();
    let live = map.live_slots();
    let (mut entries, mut file_bytes) = (0u64, 0u64);
    for &slot in &live {
        let stats = pack_tree_in(snap.shard_tree(slot), vfs, &dir.join(shard_file(slot)))?;
        entries += stats.entries;
        file_bytes += stats.file_bytes;
    }

    // Manifest meta: version, dimensions, routing epoch/bound, entry
    // count, and the routing trie itself.
    let mut trie = Vec::new();
    map.encode(&mut trie);
    let mut meta = Vec::new();
    meta.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    meta.extend_from_slice(&(K as u16).to_le_bytes());
    meta.extend_from_slice(&map.epoch().to_le_bytes());
    meta.extend_from_slice(&(map.slot_bound() as u32).to_le_bytes());
    meta.extend_from_slice(&entries.to_le_bytes());
    meta.extend_from_slice(&(trie.len() as u32).to_le_bytes());
    meta.extend_from_slice(&trie);
    let page = superblock::encode(PACKED_SHARDS_MAGIC, 1, &meta);

    let path = dir.join(PACKED_MANIFEST);
    let tmp = dir.join("packed.meta.tmp");
    {
        let mut f = vfs.create(&tmp).map_err(io)?;
        f.write_all_at(&page, 0).map_err(io)?;
        f.sync_all().map_err(io)?;
    }
    vfs.rename(&tmp, &path).map_err(io)?;
    vfs.sync_dir(dir).map_err(io)?;
    Ok(PackedCheckpoint {
        shards: live.len(),
        entries,
        file_bytes: file_bytes + page.len() as u64,
    })
}

/// A read-only sharded tree served from a packed checkpoint: the
/// recovery fast path (no WAL replay, no tree rebuild — open decodes
/// one manifest page and the per-shard superblocks).
pub struct PackedShards<V, const K: usize> {
    map: ShardMap<K>,
    /// Slot-indexed; `None` for slots not live in the manifest epoch.
    trees: Vec<Option<PackedTree<V, K>>>,
    entries: u64,
}

impl<V: ValueCodec, const K: usize> PackedShards<V, K> {
    /// Opens a packed checkpoint directory on the real filesystem.
    pub fn open(dir: &Path, mode: CacheMode) -> Result<PackedShards<V, K>, StoreError> {
        Self::open_in(&StdVfs, dir, mode)
    }

    /// Opens a packed checkpoint directory on any [`Vfs`].
    pub fn open_in(
        vfs: &dyn Vfs,
        dir: &Path,
        mode: CacheMode,
    ) -> Result<PackedShards<V, K>, StoreError> {
        let mut f = vfs.open(&dir.join(PACKED_MANIFEST))?;
        let mut page = vec![0u8; superblock::PAGE_SIZE];
        f.read_exact_at(&mut page, 0)?;
        let (n_pages, meta) = superblock::decode(PACKED_SHARDS_MAGIC, &page)?;
        if n_pages != 1 {
            return Err(Corruption::new("manifest page count").at_page(0).into());
        }
        let err = |what| StoreError::from(Corruption::new(what).at_page(0));
        if meta.len() < 26 {
            return Err(err("manifest metadata truncated"));
        }
        let version = u16::from_le_bytes(meta[0..2].try_into().unwrap());
        let k = u16::from_le_bytes(meta[2..4].try_into().unwrap());
        let epoch = u64::from_le_bytes(meta[4..12].try_into().unwrap());
        let bound = u32::from_le_bytes(meta[12..16].try_into().unwrap());
        let entries = u64::from_le_bytes(meta[16..24].try_into().unwrap());
        let trie_len = u32::from_le_bytes(meta[24..28].try_into().unwrap()) as usize;
        if version != MANIFEST_VERSION {
            return Err(err("unsupported packed manifest version"));
        }
        if k as usize != K {
            return Err(err("manifest dimension count mismatch"));
        }
        if meta.len() != 28 + trie_len {
            return Err(err("manifest metadata length mismatch"));
        }
        let map: ShardMap<K> = ShardMap::decode(&meta[28..], epoch, bound)
            .ok_or_else(|| err("undecodable routing trie"))?;

        let mut trees: Vec<Option<PackedTree<V, K>>> =
            (0..map.slot_bound()).map(|_| None).collect();
        let mut total = 0u64;
        for slot in map.live_slots() {
            let t = PackedTree::open_in(vfs, &dir.join(shard_file(slot)), mode)?;
            total += t.len() as u64;
            trees[slot] = Some(t);
        }
        if total != entries {
            return Err(err("manifest entry count disagrees with artifacts"));
        }
        Ok(PackedShards {
            map,
            trees,
            entries,
        })
    }

    #[inline]
    fn tree(&self, slot: usize) -> &PackedTree<V, K> {
        self.trees[slot]
            .as_ref()
            .expect("routing map addressed a missing packed shard")
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.entries as usize
    }

    /// Whether the checkpoint holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Routing epoch the checkpoint was cut at.
    pub fn epoch(&self) -> u64 {
        self.map.epoch()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    /// Point lookup, routed by the manifest's trie.
    pub fn get(&self, key: &[u64; K]) -> Result<Option<V>, StoreError> {
        self.tree(self.map.route(key)).get(key)
    }

    /// Whether `key` is stored.
    pub fn contains(&self, key: &[u64; K]) -> Result<bool, StoreError> {
        self.tree(self.map.route(key)).contains(key)
    }

    /// All entries in `[min, max]` in global Z-order (prefix-pruned
    /// shards, concatenated in slot Z-order — the same shape as
    /// [`Snapshot::query`]).
    pub fn query(&self, min: &[u64; K], max: &[u64; K]) -> Result<Vec<([u64; K], V)>, StoreError> {
        let mut out = Vec::new();
        for s in self.map.matching_shards(min, max) {
            for item in self.tree(s).query(min, max) {
                out.push(item?);
            }
        }
        Ok(out)
    }

    /// Counts entries in `[min, max]` without materialising them.
    pub fn query_count(&self, min: &[u64; K], max: &[u64; K]) -> Result<usize, StoreError> {
        let mut n = 0usize;
        for s in self.map.matching_shards(min, max) {
            n += self.tree(s).query_count(min, max)?;
        }
        Ok(n)
    }

    /// The `n` nearest entries to `center`, sorted by `(distance,
    /// key)` — the same list, found by the same search, as
    /// [`Snapshot::knn`]: a shard beyond the results found is never
    /// opened, a page below a pruned sub-tree never read.
    pub fn knn(&self, center: &[u64; K], n: usize) -> Result<Vec<([u64; K], V, f64)>, StoreError> {
        let _d = phtrace::span(phtrace::Phase::Descent);
        let trees = self.map.shard_boxes().into_iter().map(|(s, lo, hi)| {
            let dist = knn::to_box(&IntEuclidean, center, &lo, &hi);
            (dist, self.tree(s))
        });
        let mut out = Vec::new();
        let seen = PackedTree::knn_forest(
            trees,
            center,
            n,
            &IntEuclidean,
            &mut KnnScratch::new(),
            &mut out,
        )?;
        phtrace::add(phtrace::PayloadCounter::Fanout, seen.roots as u64);
        Ok(out
            .into_iter()
            .map(|nb| (nb.key, nb.value, nb.dist))
            .collect())
    }

    /// Per-shard statistics shaped like [`ShardStats`] (the pruning
    /// counters are zero: a packed checkpoint keeps no tally).
    pub fn stats(&self) -> ShardStats {
        let live_slots = self.map.live_slots();
        let per_shard: Vec<usize> = live_slots.iter().map(|&s| self.tree(s).len()).collect();
        ShardStats {
            shards: self.map.shards(),
            entries: per_shard.iter().sum(),
            per_shard,
            live_slots,
            epoch: self.map.epoch(),
            shards_scanned: 0,
            shards_pruned: 0,
        }
    }
}
