//! Crash-safe durable PH-tree: snapshot + write-ahead log.
//!
//! [`Durable`] owns a [`PhTree`] and journals every mutation to a WAL
//! before applying it, checkpointing to a fresh snapshot once the log
//! grows past a threshold. After a crash at *any* byte of the write
//! stream, [`Durable::open`] recovers a tree containing exactly a
//! prefix of the acknowledged operations — and every operation whose
//! journal write returned `Ok` (with [`DurableConfig::sync_writes`] on)
//! survives.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/snapshot.pht       last checkpoint (generation g)
//! <dir>/wal.log            ops since that checkpoint (stamped g)
//! <dir>/snapshot.pht.tmp   staging file, exists only mid-rotation
//! <dir>/wal.log.tmp        staging file, exists only mid-rotation
//! ```
//!
//! ## Checkpoint rotation protocol
//!
//! 1. Write the full tree to `snapshot.pht.tmp` stamped generation
//!    `g+1`; fsync; rename over `snapshot.pht`; fsync the directory.
//! 2. Write a fresh WAL header stamped `g+1` to `wal.log.tmp`; fsync;
//!    rename over `wal.log`; fsync the directory.
//!
//! Recovery compares the two generations: equal means the log extends
//! the snapshot (replay it); an older or headerless log is a remnant of
//! a crash inside the rotation window — its ops are already in the
//! snapshot, so it is discarded. A log *newer* than the snapshot is
//! impossible (step 1 strictly precedes step 2) and reported as
//! corruption. Every crash point therefore lands in a recoverable
//! state, which `tests/crash.rs` verifies by brute force: it replays
//! the recovery after cutting the write stream at every single byte.

use crate::codec::ValueCodec;
use crate::error::StoreError;
use crate::metrics::StoreMetrics;
use crate::retry::{RetryPolicy, RetryVfs};
use crate::store::{load_with, save_with, tmp_path};
use crate::vfs::{StdVfs, Vfs};
use crate::wal::{self, WalDisposition, WalWriter};
use phtree::{Iter, Op, PhTree};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Snapshot file name inside a [`Durable`] directory.
pub const SNAPSHOT_FILE: &str = "snapshot.pht";
/// WAL file name inside a [`Durable`] directory.
pub const WAL_FILE: &str = "wal.log";

/// Directory for one shard of a sharded durable store: `base/shard-NNN`,
/// holding that shard's snapshot (phshard's `DurableSharded`, whose one
/// log sits in `base`). Zero-padded so listings sort in shard order.
pub fn shard_dir(base: &Path, shard: usize) -> PathBuf {
    base.join(format!("shard-{shard:03}"))
}

/// Tuning knobs for [`Durable`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Checkpoint (snapshot + log rotation) once the WAL exceeds this
    /// many bytes. Default 1 MiB. Under phshard's `DurableSharded` it is
    /// per live shard: the one store-wide log checkpoints every shard
    /// once it passes `checkpoint_bytes × live shards`.
    pub checkpoint_bytes: u64,
    /// Fsync the WAL on every append. Default `true`; turning it off
    /// trades the "every acknowledged op survives" guarantee for
    /// throughput (recovery is still prefix-consistent).
    pub sync_writes: bool,
    /// When set, wrap the VFS in a [`RetryVfs`] so transient
    /// sync/rename failures (`EINTR`-shaped: `Interrupted`,
    /// `WouldBlock`, `TimedOut`) are retried with bounded exponential
    /// backoff instead of surfacing as store errors. Permanent failures
    /// — including fault-injected crashes — still surface immediately.
    /// Default `None` (no retry layer).
    pub retry: Option<RetryPolicy>,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            checkpoint_bytes: 1 << 20,
            sync_writes: true,
            retry: None,
        }
    }
}

/// What [`Durable::open`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Generation of the snapshot the store resumed from.
    pub generation: u64,
    /// Ops replayed from the WAL onto the snapshot.
    pub replayed_ops: usize,
    /// Of the replayed ops, how many rode the bulk-load fast path
    /// (leading inserts replayed onto an empty tree via the O(n)
    /// bottom-up builder).
    pub bulk_replayed: usize,
    /// Torn/corrupt WAL tail bytes discarded.
    pub truncated_bytes: u64,
    /// Whether a stale WAL (older generation — crash mid-rotation) was
    /// discarded wholesale.
    pub reset_stale_wal: bool,
}

/// A crash-safe [`PhTree`]: every mutation is journaled before it is
/// applied, and checkpoints rotate atomically.
pub struct Durable<V: ValueCodec, const K: usize> {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    tree: PhTree<V, K>,
    wal: WalWriter,
    generation: u64,
    config: DurableConfig,
    recovery: RecoveryStats,
    metrics: StoreMetrics,
}

impl<V: ValueCodec, const K: usize> Durable<V, K> {
    /// Opens (or initialises) a durable tree in `dir` on the real
    /// filesystem with default tuning.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::open_with(Arc::new(StdVfs), dir, DurableConfig::default())
    }

    /// Opens (or initialises) a durable tree in `dir` on any [`Vfs`].
    ///
    /// Runs full crash recovery: removes staging remnants, loads the
    /// last snapshot (creating an empty generation-0 one on first
    /// open), replays the WAL's valid prefix and truncates its torn
    /// tail, or discards a stale WAL left by a crash mid-rotation.
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        config: DurableConfig,
    ) -> Result<Self, StoreError> {
        Self::open_observed(vfs, dir, config, StoreMetrics::disabled())
    }

    /// [`Durable::open_with`] wired to record into `metrics` (build one
    /// with [`StoreMetrics::from_registry`]): WAL append volume and
    /// fsync latency, checkpoint count/duration/bytes, and this open's
    /// recovery telemetry (ops replayed — bulk fast-path ops broken out
    /// — torn-tail truncations, stale-WAL discards).
    pub fn open_observed(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        config: DurableConfig,
        metrics: StoreMetrics,
    ) -> Result<Self, StoreError> {
        let vfs: Arc<dyn Vfs> = match &config.retry {
            Some(policy) => Arc::new(RetryVfs::new(vfs, policy.clone())),
            None => vfs,
        };
        vfs.create_dir_all(dir)?;
        let snap = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);

        // Staging files are only ever pre-rename leftovers of a crashed
        // rotation; their content is unreferenced.
        for stale in [tmp_path(&snap), tmp_path(&wal_path)] {
            if vfs.exists(&stale) {
                let _ = vfs.remove_file(&stale);
            }
        }

        let mut recovery = RecoveryStats::default();

        // Load (or initialise) the checkpoint.
        let (mut tree, generation) = if vfs.exists(&snap) {
            load_with::<V, K>(vfs.as_ref(), &snap)?
        } else {
            let empty: PhTree<V, K> = PhTree::new();
            save_with(vfs.as_ref(), &empty, &snap, 0)?;
            (empty, 0)
        };
        recovery.generation = generation;

        // Reconcile the WAL with the checkpoint.
        let mut wal = if vfs.exists(&wal_path) {
            let rec = wal::recover::<V, K>(vfs.as_ref(), &wal_path)?;
            match wal::classify_generation(rec.generation, generation)? {
                WalDisposition::Replay => {
                    let replay = tree.replay_stats(rec.ops);
                    recovery.replayed_ops = replay.applied;
                    recovery.bulk_replayed = replay.bulk_loaded;
                    recovery.truncated_bytes = rec.total_bytes - rec.valid_bytes;
                    wal::resume_writer(
                        vfs.as_ref(),
                        &wal_path,
                        rec.valid_bytes,
                        config.sync_writes,
                    )?
                }
                WalDisposition::Stale => {
                    recovery.reset_stale_wal = true;
                    Self::fresh_wal(vfs.as_ref(), &wal_path, generation, &config)?
                }
            }
        } else {
            Self::fresh_wal(vfs.as_ref(), &wal_path, generation, &config)?
        };
        wal.set_metrics(metrics.clone());

        metrics
            .recovery_replayed_ops
            .add(recovery.replayed_ops as u64);
        metrics
            .recovery_bulk_replayed
            .add(recovery.bulk_replayed as u64);
        if recovery.truncated_bytes > 0 {
            metrics.recovery_truncations.inc();
            metrics
                .recovery_truncated_bytes
                .add(recovery.truncated_bytes);
        }
        if recovery.reset_stale_wal {
            metrics.recovery_stale_wals.inc();
        }

        Ok(Durable {
            vfs,
            dir: dir.to_path_buf(),
            tree,
            wal,
            generation,
            config,
            recovery,
            metrics,
        })
    }

    /// Writes a fresh empty WAL for `generation`, atomically (staging
    /// file + rename), so a crash mid-write cannot leave a half-written
    /// header where a valid log used to be.
    fn fresh_wal(
        vfs: &dyn Vfs,
        wal_path: &Path,
        generation: u64,
        config: &DurableConfig,
    ) -> Result<WalWriter, StoreError> {
        let staging = tmp_path(wal_path);
        let writer = WalWriter::create(vfs, &staging, generation, config.sync_writes)?;
        vfs.rename(&staging, wal_path)?;
        if let Some(parent) = wal_path.parent() {
            vfs.sync_dir(parent)?;
        }
        // The handle tracks the file content, not the path (POSIX
        // semantics on StdVfs and MemVfs alike), so it stays valid
        // across the rename.
        Ok(writer)
    }

    /// Creates a *new* durable store in `dir` seeded from an
    /// already-built tree — the migration path for shard splits: the
    /// child tree is assembled in memory (e.g. via
    /// [`PhTree::bulk_load`]) and persisted here as a generation-0
    /// snapshot plus a fresh empty WAL, both written atomically
    /// (staging file + fsync + rename + directory fsync).
    ///
    /// Any existing files in `dir` are overwritten, which makes crashed
    /// and rolled-back migrations idempotent: re-running the split
    /// rebuilds the child from scratch.
    pub fn create_with_tree(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        tree: PhTree<V, K>,
        config: DurableConfig,
    ) -> Result<Self, StoreError> {
        let vfs: Arc<dyn Vfs> = match &config.retry {
            Some(policy) => Arc::new(RetryVfs::new(vfs, policy.clone())),
            None => vfs,
        };
        vfs.create_dir_all(dir)?;
        let snap = dir.join(SNAPSHOT_FILE);
        save_with(vfs.as_ref(), &tree, &snap, 0)?;
        let mut wal = Self::fresh_wal(vfs.as_ref(), &dir.join(WAL_FILE), 0, &config)?;
        let metrics = StoreMetrics::disabled();
        wal.set_metrics(metrics.clone());
        Ok(Durable {
            vfs,
            dir: dir.to_path_buf(),
            tree,
            wal,
            generation: 0,
            config,
            recovery: RecoveryStats::default(),
            metrics,
        })
    }

    /// Inserts `key` → `value`, journaling first. When this returns
    /// `Ok`, the op survives any subsequent crash (with
    /// [`DurableConfig::sync_writes`] on).
    pub fn insert(&mut self, key: [u64; K], value: V) -> Result<Option<V>, StoreError> {
        self.wal.append_insert(&key, &value)?;
        let prev = self.tree.insert(key, value);
        self.maybe_checkpoint()?;
        Ok(prev)
    }

    /// Removes `key`, journaling first (same durability contract as
    /// [`Durable::insert`]).
    pub fn remove(&mut self, key: &[u64; K]) -> Result<Option<V>, StoreError> {
        self.wal.append_remove(key)?;
        let prev = self.tree.remove(key);
        self.maybe_checkpoint()?;
        Ok(prev)
    }

    /// Applies `ops` in order as one group commit: all journaled with
    /// one WAL write and one sync ([`WalWriter::append_batch`]), then
    /// all applied, then one checkpoint check. Returns each op's
    /// previous value, in `ops` order. When this returns `Ok` every op
    /// survives a crash; a crash before that may keep a prefix of the
    /// batch (the log is replayed up to its torn tail), never a subset
    /// that is not a prefix. A journal error applies nothing.
    pub fn apply_batch(&mut self, ops: Vec<Op<V, K>>) -> Result<Vec<Option<V>>, StoreError> {
        self.wal.append_batch(&ops)?;
        let prevs = ops
            .into_iter()
            .map(|op| match op {
                Op::Insert { key, value } => self.tree.insert(key, value),
                Op::Remove { key } => self.tree.remove(&key),
            })
            .collect();
        self.maybe_checkpoint()?;
        Ok(prevs)
    }

    fn maybe_checkpoint(&mut self) -> Result<(), StoreError> {
        if self.wal.bytes() >= self.config.checkpoint_bytes {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Forces a checkpoint now: snapshots the tree at generation
    /// `g + 1` and rotates the WAL (see the module docs for the crash
    /// windows). Returns the new generation.
    pub fn checkpoint(&mut self) -> Result<u64, StoreError> {
        let t = self.metrics.checkpoint_ns.start();
        let snap = self.dir.join(SNAPSHOT_FILE);
        let next = self.generation + 1;
        let stats = save_with(self.vfs.as_ref(), &self.tree, &snap, next)?;
        self.wal = Self::fresh_wal(
            self.vfs.as_ref(),
            &self.dir.join(WAL_FILE),
            next,
            &self.config,
        )?;
        self.wal.set_metrics(self.metrics.clone());
        self.generation = next;
        self.metrics.checkpoints.inc();
        self.metrics
            .checkpoint_bytes
            .add(stats.pages * crate::pager::PAGE_SIZE as u64);
        self.metrics.checkpoint_ns.finish(t);
        Ok(next)
    }

    /// Flushes journal buffers to stable storage (useful with
    /// `sync_writes` off).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal.sync()
    }

    /// Looks up a key.
    pub fn get(&self, key: &[u64; K]) -> Option<&V> {
        self.tree.get(key)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u64; K]) -> bool {
        self.tree.contains(key)
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> Iter<'_, V, K> {
        self.tree.iter()
    }

    /// The underlying in-memory tree (for queries, kNN, stats, …).
    pub fn tree(&self) -> &PhTree<V, K> {
        &self.tree
    }

    /// Current checkpoint generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Current WAL size in bytes (header + frames).
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// What the opening recovery found and did.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    fn mem_open(vfs: &MemVfs, checkpoint_bytes: u64) -> Durable<u32, 2> {
        Durable::open_with(
            Arc::new(vfs.clone()),
            Path::new("/db"),
            DurableConfig {
                checkpoint_bytes,
                sync_writes: true,
                retry: None,
            },
        )
        .unwrap()
    }

    #[test]
    fn fresh_open_initialises_generation_zero() {
        let vfs = MemVfs::new();
        let d = mem_open(&vfs, 1 << 20);
        assert_eq!(d.generation(), 0);
        assert!(d.is_empty());
        assert_eq!(d.recovery_stats(), RecoveryStats::default());
        assert!(vfs.exists(Path::new("/db/snapshot.pht")));
        assert!(vfs.exists(Path::new("/db/wal.log")));
    }

    #[test]
    fn reopen_replays_journal() {
        let vfs = MemVfs::new();
        {
            let mut d = mem_open(&vfs, 1 << 20);
            for i in 0..100u64 {
                d.insert([i, i * 3], i as u32).unwrap();
            }
            d.remove(&[4, 12]).unwrap();
        } // dropped without checkpoint — everything lives in the WAL
        let d = mem_open(&vfs, 1 << 20);
        assert_eq!(d.recovery_stats().replayed_ops, 101);
        assert_eq!(d.len(), 99);
        assert_eq!(d.get(&[7, 21]), Some(&7));
        assert_eq!(d.get(&[4, 12]), None);
        d.tree().check_invariants();
    }

    #[test]
    fn checkpoint_rotates_generation_and_truncates_wal() {
        let vfs = MemVfs::new();
        let mut d = mem_open(&vfs, 1 << 20);
        for i in 0..50u64 {
            d.insert([i, i], i as u32).unwrap();
        }
        let pre = d.wal_bytes();
        assert!(pre > wal::WAL_HEADER);
        assert_eq!(d.checkpoint().unwrap(), 1);
        assert_eq!(d.generation(), 1);
        assert_eq!(d.wal_bytes(), wal::WAL_HEADER);
        // More writes land in the new log; reopen sees both halves.
        d.insert([99, 99], 1234).unwrap();
        drop(d);
        let d = mem_open(&vfs, 1 << 20);
        assert_eq!(d.generation(), 1);
        assert_eq!(d.recovery_stats().replayed_ops, 1);
        assert_eq!(d.len(), 51);
        assert_eq!(d.get(&[99, 99]), Some(&1234));
    }

    #[test]
    fn auto_checkpoint_fires_past_threshold() {
        let vfs = MemVfs::new();
        let mut d = mem_open(&vfs, 600); // tiny: a few ops per generation
        for i in 0..200u64 {
            d.insert([i, i + 1], i as u32).unwrap();
        }
        assert!(d.generation() > 5, "generation: {}", d.generation());
        drop(d);
        let d = mem_open(&vfs, 600);
        assert_eq!(d.len(), 200);
        d.tree().check_invariants();
        for i in 0..200u64 {
            assert_eq!(d.get(&[i, i + 1]), Some(&(i as u32)));
        }
    }

    #[test]
    fn overwrites_and_removes_replay_in_order() {
        let vfs = MemVfs::new();
        {
            let mut d = mem_open(&vfs, 1 << 20);
            assert_eq!(d.insert([1, 2], 10).unwrap(), None);
            assert_eq!(d.insert([1, 2], 20).unwrap(), Some(10));
            assert_eq!(d.remove(&[1, 2]).unwrap(), Some(20));
            assert_eq!(d.insert([1, 2], 30).unwrap(), None);
        }
        let d = mem_open(&vfs, 1 << 20);
        assert_eq!(d.get(&[1, 2]), Some(&30));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn stale_tmp_files_are_cleaned_up() {
        let vfs = MemVfs::new();
        vfs.write_file(Path::new("/db/snapshot.pht.tmp"), vec![1, 2, 3]);
        vfs.write_file(Path::new("/db/wal.log.tmp"), vec![4, 5]);
        let mut d = mem_open(&vfs, 1 << 20);
        d.insert([1, 1], 1).unwrap();
        d.checkpoint().unwrap();
        assert!(!vfs.exists(Path::new("/db/snapshot.pht.tmp")));
        assert!(!vfs.exists(Path::new("/db/wal.log.tmp")));
    }

    #[test]
    fn create_with_tree_seeds_generation_zero_and_reopens() {
        let vfs = MemVfs::new();
        let mut tree: PhTree<u32, 2> = PhTree::new();
        for i in 0..64u64 {
            tree.insert([i, i * 2], i as u32);
        }
        let mut d = Durable::create_with_tree(
            Arc::new(vfs.clone()),
            Path::new("/child"),
            tree,
            DurableConfig::default(),
        )
        .unwrap();
        assert_eq!(d.generation(), 0);
        assert_eq!(d.len(), 64);
        // The seeded store journals further writes like any other.
        d.insert([500, 500], 99).unwrap();
        drop(d);
        let d: Durable<u32, 2> = Durable::open_with(
            Arc::new(vfs.clone()),
            Path::new("/child"),
            DurableConfig::default(),
        )
        .unwrap();
        assert_eq!(d.len(), 65);
        assert_eq!(d.get(&[500, 500]), Some(&99));
        assert_eq!(d.get(&[3, 6]), Some(&3));
        d.tree().check_invariants();
    }

    #[test]
    fn create_with_tree_truncates_previous_contents() {
        let vfs = MemVfs::new();
        let mut old: PhTree<u32, 2> = PhTree::new();
        old.insert([1, 1], 1);
        drop(Durable::create_with_tree(
            Arc::new(vfs.clone()),
            Path::new("/c"),
            old,
            DurableConfig::default(),
        ));
        let mut fresh: PhTree<u32, 2> = PhTree::new();
        fresh.insert([2, 2], 2);
        drop(Durable::create_with_tree(
            Arc::new(vfs.clone()),
            Path::new("/c"),
            fresh,
            DurableConfig::default(),
        ));
        let d: Durable<u32, 2> =
            Durable::open_with(Arc::new(vfs), Path::new("/c"), DurableConfig::default()).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(&[2, 2]), Some(&2));
        assert_eq!(d.get(&[1, 1]), None, "old contents must be gone");
    }

    #[test]
    fn retry_config_wraps_vfs_transparently() {
        let vfs = MemVfs::new();
        let cfg = DurableConfig {
            retry: Some(crate::retry::RetryPolicy::default()),
            ..Default::default()
        };
        let mut d: Durable<u32, 2> =
            Durable::open_with(Arc::new(vfs.clone()), Path::new("/db"), cfg.clone()).unwrap();
        for i in 0..32u64 {
            d.insert([i, i], i as u32).unwrap();
        }
        d.checkpoint().unwrap();
        drop(d);
        let d: Durable<u32, 2> = Durable::open_with(Arc::new(vfs), Path::new("/db"), cfg).unwrap();
        assert_eq!(d.len(), 32);
    }

    #[test]
    fn std_vfs_roundtrip_on_real_filesystem() {
        let dir = std::env::temp_dir().join("phstore-durable-std");
        std::fs::remove_dir_all(&dir).ok();
        {
            let mut d: Durable<u32, 2> = Durable::open(&dir).unwrap();
            for i in 0..64u64 {
                d.insert([i, 63 - i], i as u32).unwrap();
            }
            d.checkpoint().unwrap();
            d.insert([1000, 1000], 7).unwrap();
        }
        let d: Durable<u32, 2> = Durable::open(&dir).unwrap();
        assert_eq!(d.generation(), 1);
        assert_eq!(d.len(), 65);
        assert_eq!(d.get(&[1000, 1000]), Some(&7));
        d.tree().check_invariants();
        std::fs::remove_dir_all(&dir).ok();
    }
}
