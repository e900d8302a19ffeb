//! Durable sharded mode: one store-wide write-ahead log, a snapshot
//! per shard, and crash-safe online shard splitting.
//!
//! ```text
//! base/phshard.meta            routing manifest (below)
//! base/wal.log                 the one log: PHWAL001, generation g
//! base/shard-NNN/snapshot.pht  a live shard's checkpoint (PHSTORE1)
//! ```
//!
//! **Write path.** A frame of the log is a logical op (tag, key, maybe
//! a value) and names no shard. A write locks its cells — a run's in
//! ascending slot order — then the log mutex, ranked above every cell;
//! it journals all its frames with one write and one sync, then
//! applies them.
//!
//! **Checkpoint.** Under every live cell's lock and the log's, each
//! shard's snapshot is written stamped `g+1` (atomically), then the log
//! is rotated to an empty one stamped `g+1`. It fires once the log
//! passes `checkpoint_bytes × live shards`, after the triggering write
//! has released its cells.
//!
//! **Recovery invariant.** A shard snapshot is only ever written while
//! the log it will be replayed with already exists, and inserts and
//! removes are blind writes, so replaying the *whole* log onto every
//! snapshot, each frame routed by the committed [`ShardMap`], is exact.
//! A snapshot stamped `g` or `g+1` (a torn checkpoint) is valid against
//! log `g`; any other generation is typed corruption.
//!
//! **Split** of slot `P`; the commit point is one manifest rename:
//!
//! ```text
//! 1 copy    freeze-point clone of P under a brief lock, backlog armed
//!           (full ⇒ typed Overloaded shed, nothing journaled);
//!           children written as snapshots stamped with the log's
//!           generation; reads keep serving from P
//! 2 commit  under P's lock: drain the backlog into the children's
//!           trees (its ops are logged already); manifest := {new map}
//!           (atomic rename); install the new epoch; retire P's cell
//! ```
//!
//! Until the rename the children are unreferenced files a later split
//! overwrites; a crash reopens the old map. Splits and checkpoints
//! exclude each other through the split gate (a rotation would strand
//! children built against the old log); the write path only try-locks
//! it, so a pending split defers the checkpoint to its commit or abort.
//! `tests/migration_crash.rs` cuts both write streams at every byte.
//!
//! **Upgrade.** A store of one `phstore::Durable` per `shard-NNN/` is
//! upgraded one way on open: each shard recovered through `Durable`,
//! all checkpointed one generation past the newest, an empty log
//! written at it, then the per-shard logs removed; a crash re-runs it.
//! One with a split in flight (a manifest migration record) is refused.
//!
//! ## Manifest v2 (`PHSHARD2`)
//!
//! ```text
//! magic      "PHSHARD2"                8 bytes
//! k          dimension count           u32 LE
//! gen        manifest write counter    u64 LE
//! epoch      routing epoch             u64 LE
//! next_slot  slot allocation bound     u32 LE
//! map        length-prefixed ShardMap  u32 LE + preorder bytes
//! migration  0 (1 + a record: refused)  u8
//! crc        FNV-1a of all above       u64 LE
//! ```
//!
//! Every manifest write is atomic (staging file, fsync, rename,
//! directory fsync). Legacy `PHSHARD1` manifests (uniform shard count
//! only) are read and upgraded in place.

use crate::engine::{CellState, Engine, SplitPlan};
use crate::epoch::ShardMap;
use crate::error::ShardError;
use crate::lockstat::DataMutex;
use crate::metrics::{OpInstruments, Probes};
use crate::sharded::SplitReport;
use crate::snapshot::Snapshot;
use phmetrics::Registry;
use phstore::durable::{shard_dir, SNAPSHOT_FILE, WAL_FILE};
use phstore::vfs::{StdVfs, Vfs};
use phstore::wal::{self, WalWriter};
use phstore::{fnv1a, load_with, save_with, Corruption, Durable, DurableConfig};
use phstore::{RecoveryStats, RetryVfs, StoreError, ValueCodec};
use phtree::{Op, PhTree};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Manifest file recording the routing topology of a sharded store
/// directory.
pub const MANIFEST_FILE: &str = "phshard.meta";
const MAGIC_V1: &[u8; 8] = b"PHSHARD1";
const MAGIC_V2: &[u8; 8] = b"PHSHARD2";

/// Default bound on a migrating shard's write backlog before further
/// writes shed with [`ShardError::Overloaded`].
pub const DEFAULT_BACKLOG_CAP: usize = 4096;

/// The decoded manifest: the committed routing map, the write counter.
#[derive(Debug, Clone, PartialEq)]
struct Manifest<const K: usize> {
    map: ShardMap<K>,
    gen: u64,
}

impl<const K: usize> Manifest<K> {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(MAGIC_V2);
        out.extend_from_slice(&(K as u32).to_le_bytes());
        out.extend_from_slice(&self.gen.to_le_bytes());
        out.extend_from_slice(&self.map.epoch().to_le_bytes());
        out.extend_from_slice(&(self.map.slot_bound() as u32).to_le_bytes());
        let mut map_bytes = Vec::new();
        self.map.encode(&mut map_bytes);
        out.extend_from_slice(&(map_bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&map_bytes);
        out.push(0); // no migration record: only per-shard logs had one
        let crc = fnv1a(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Result<Manifest<K>, StoreError> {
        let bad = |what: &'static str| StoreError::from(Corruption::new(what));
        // Legacy v1: magic + u32 shard count, no checksum.
        if bytes.len() == 12 && &bytes[..8] == MAGIC_V1 {
            let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
            if !count.is_power_of_two() || count > crate::MAX_SHARDS {
                return Err(bad("legacy manifest shard count invalid"));
            }
            return Ok(Manifest {
                map: ShardMap::uniform(count),
                gen: 0,
            });
        }
        if bytes.len() < 8 || &bytes[..8] != MAGIC_V2 {
            return Err(bad("sharded manifest magic mismatch"));
        }
        if bytes.len() < 8 + 8 {
            return Err(bad("sharded manifest truncated"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 8);
        let crc = u64::from_le_bytes(crc_bytes.try_into().unwrap());
        if fnv1a(body) != crc {
            return Err(bad("sharded manifest checksum mismatch"));
        }
        let mut pos = 8usize;
        let mut take = |n: usize| -> Result<&[u8], StoreError> {
            let s = body
                .get(pos..pos + n)
                .ok_or_else(|| Corruption::new("sharded manifest truncated"))?;
            pos += n;
            Ok(s)
        };
        let k = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
        if k != K {
            return Err(bad("sharded manifest dimension mismatch"));
        }
        let gen = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let epoch = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let next_slot = u32::from_le_bytes(take(4)?.try_into().unwrap());
        let map_len = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
        let map_bytes = take(map_len)?;
        let map = ShardMap::decode(map_bytes, epoch, next_slot)
            .ok_or_else(|| bad("sharded manifest routing map malformed"))?;
        match take(1)?[0] {
            0 => {}
            1 => return Err(bad("per-shard-log store has a split in flight")),
            _ => return Err(bad("sharded manifest migration tag invalid")),
        }
        if pos != body.len() {
            return Err(bad("sharded manifest has trailing bytes"));
        }
        Ok(Manifest { map, gen })
    }
}

/// Atomically writes the manifest: staging file + fsync + rename +
/// directory fsync. A crash anywhere exposes either the previous or
/// the new manifest, never a torn one.
fn write_manifest<const K: usize>(
    vfs: &dyn Vfs,
    dir: &Path,
    m: &Manifest<K>,
) -> Result<(), StoreError> {
    let path = dir.join(MANIFEST_FILE);
    let staging = dir.join(format!("{MANIFEST_FILE}.tmp"));
    let bytes = m.encode();
    let mut f = vfs.create(&staging)?;
    f.write_all_at(&bytes, 0)?;
    f.sync_all()?;
    drop(f);
    vfs.rename(&staging, &path)?;
    vfs.sync_dir(dir)?;
    Ok(())
}

fn read_manifest<const K: usize>(
    vfs: &dyn Vfs,
    dir: &Path,
) -> Result<Option<Manifest<K>>, StoreError> {
    let path = dir.join(MANIFEST_FILE);
    if !vfs.exists(&path) {
        return Ok(None);
    }
    let mut f = vfs.open(&path)?;
    let len = f.len()? as usize;
    let mut bytes = vec![0u8; len];
    f.read_exact_at(&mut bytes, 0)?;
    Manifest::decode(&bytes).map(Some)
}

fn snapshot_path(dir: &Path, slot: usize) -> PathBuf {
    shard_dir(dir, slot).join(SNAPSHOT_FILE)
}

/// Writes `tree` as shard `slot`'s snapshot stamped `generation`
/// (atomic: staging file, sync, rename, directory sync).
fn save_shard<V: ValueCodec, const K: usize>(
    vfs: &dyn Vfs,
    dir: &Path,
    slot: usize,
    tree: &PhTree<V, K>,
    generation: u64,
) -> Result<(), StoreError> {
    vfs.create_dir_all(&shard_dir(dir, slot))?;
    save_with(vfs, tree, &snapshot_path(dir, slot), generation).map(drop)
}

/// Best-effort removal of an unreferenced shard's snapshot: what is
/// left behind is garbage, not state.
fn scrub_shard(vfs: &dyn Vfs, dir: &Path, slot: usize) {
    let _ = vfs.remove_file(&snapshot_path(dir, slot));
}

/// Runs `job` for every shard on its own scoped thread — snapshots are
/// independent files, so a checkpoint's saves and an open's loads
/// overlap; results come back in `shards` order.
fn per_shard<T: Sync, R: Send>(shards: &[T], job: impl Fn(&T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let spawned: Vec<_> = shards.iter().map(|s| scope.spawn(|| job(s))).collect();
        let joined = spawned.into_iter().map(|h| h.join());
        joined
            .map(|r| r.expect("per-shard thread panicked"))
            .collect()
    })
}

/// Puts an empty log stamped with generation `g` at `base/wal.log`:
/// staging file, sync, rename. The caller syncs the directory.
fn new_log(vfs: &dyn Vfs, dir: &Path, g: u64, sync: bool) -> Result<WalWriter, StoreError> {
    let staging = dir.join(format!("{WAL_FILE}.tmp"));
    let wal = WalWriter::create(vfs, &staging, g, sync)?;
    vfs.rename(&staging, &dir.join(WAL_FILE))?;
    Ok(wal)
}

/// The one-way upgrade of the per-shard layout (see the module docs).
fn upgrade<V: ValueCodec + Clone, const K: usize>(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    live: &[usize],
    mut config: DurableConfig,
) -> Result<(), StoreError> {
    config.retry = None; // `vfs` retries already
    let open = |&slot: &usize| {
        Durable::<V, K>::open_with(Arc::clone(vfs), &shard_dir(dir, slot), config.clone())
    };
    let shards = live.iter().map(open).collect::<Result<Vec<_>, _>>()?;
    let generation = shards.iter().map(|d| d.generation() + 1).max();
    let generation = generation.unwrap_or(0);
    for (&slot, d) in live.iter().zip(&shards) {
        save_shard(vfs.as_ref(), dir, slot, d.tree(), generation)?;
    }
    new_log(vfs.as_ref(), dir, generation, config.sync_writes)?;
    vfs.sync_dir(dir)?;
    for &slot in live {
        // Unread from here on: a leftover is garbage, not state.
        let _ = vfs.remove_file(&shard_dir(dir, slot).join(WAL_FILE));
    }
    Ok(())
}

/// Rank of the log mutex in the lock order: above every cell.
const LOG_RANK: usize = usize::MAX;

/// The store-wide log and the generation it is stamped with.
pub(crate) struct Log {
    wal: WalWriter,
    generation: u64,
}

/// Bounded queue of writes accepted while a slot's contents are being
/// copied; drained onto the children at commit.
struct Backlog<V, const K: usize> {
    ops: Vec<Op<V, K>>,
    cap: usize,
}

/// A durable cell's writer-side state: the tree plus (while migrating)
/// the write backlog, guarded together so backlog membership is
/// exactly "applied after the freeze-point clone".
pub(crate) struct DurState<V, const K: usize> {
    tree: PhTree<V, K>,
    backlog: Option<Backlog<V, K>>,
}

impl<V, const K: usize> CellState<V, K> for DurState<V, K> {
    fn tree(&self) -> &PhTree<V, K> {
        &self.tree
    }
}

impl<V: Clone, const K: usize> DurState<V, K> {
    /// Admission: `n` more writes must fit the armed backlog, checked
    /// **before** anything is journaled — a shed write is neither
    /// durable nor applied, safe to retry.
    fn admit(&self, slot: usize, n: usize) -> Result<(), ShardError> {
        match &self.backlog {
            Some(b) if b.ops.len() + n > b.cap => Err(ShardError::Overloaded {
                slot,
                backlog: b.cap,
            }),
            _ => Ok(()),
        }
    }

    /// Applies a journaled op, queueing it on the backlog if a
    /// migration armed it.
    fn apply(&mut self, op: Op<V, K>) -> Option<V> {
        if let Some(b) = &mut self.backlog {
            b.ops.push(op.clone());
        }
        self.tree.apply(op)
    }
}

type DurPlan<'a, V, const K: usize> = SplitPlan<'a, DurState<V, K>, V, K>;

/// A split prepared by [`DurableSharded::begin_split`]: children
/// written, backlog accepting writes. Holds the split gate, so exactly
/// one can exist and no checkpoint runs; pass it to
/// [`DurableSharded::commit_split`] or [`DurableSharded::abort_split`].
/// Dropping it without either leaves the slot backlogging (and
/// eventually shedding) until the next reopen — never lossy, but
/// don't.
pub struct PendingSplit<'a, V: ValueCodec, const K: usize> {
    plan: DurPlan<'a, V, K>,
    children: Vec<PhTree<V, K>>,
    migrated: usize,
}

impl<V: ValueCodec, const K: usize> PendingSplit<'_, V, K> {
    /// The slot being split.
    pub fn src(&self) -> usize {
        self.plan.src
    }

    /// The child slots the commit will install.
    pub fn children(&self) -> &[usize] {
        &self.plan.children
    }
}

/// A crash-safe [`crate::ShardedTree`]-alike: one store-wide
/// write-ahead log, a snapshot per shard, and online hot-shard
/// splitting (see the module docs).
///
/// Consistency matches the in-memory layer, and an acknowledged write
/// is durable (journaled before it is applied and published). During
/// a migration the source keeps serving reads and accepting writes;
/// only backlog overflow sheds ([`ShardError::Overloaded`], not
/// journaled, safe to retry). The cell, cut, retire and lock-order
/// protocols are the shared engine's (`engine.rs`); this type adds the
/// log, the manifest, backlog admission, the split's commit and
/// rollback, and checkpoints.
pub struct DurableSharded<V: ValueCodec + Clone + Send + Sync, const K: usize> {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    config: DurableConfig,
    pub(crate) engine: Engine<DurState<V, K>, V, K>,
    /// The one log; taken inside a write's cell locks.
    pub(crate) log: DataMutex<Log>,
    /// The manifest write counter; only touched under the engine's
    /// split gate (a [`SplitPlan`] holds it) or before the store is
    /// shared.
    manifest_gen: AtomicU64,
    backlog_cap: AtomicUsize,
    recovery: Vec<RecoveryStats>,
}

impl<V: ValueCodec + Clone + Send + Sync, const K: usize> DurableSharded<V, K> {
    /// Opens (or initialises) a sharded durable store under `dir` on
    /// the real filesystem with default tuning.
    pub fn open(dir: &Path, shards: usize) -> Result<Self, StoreError> {
        Self::open_with(Arc::new(StdVfs), dir, shards, DurableConfig::default())
    }

    /// Opens (or initialises) on any [`Vfs`]: loads every live shard's
    /// snapshot and replays the log onto it, routed by the committed
    /// map. `shards` is the *initial* uniform topology: once the store
    /// has split (epoch > 0), the manifest's topology is authoritative
    /// and `shards` is ignored; at epoch 0 a mismatch with the manifest
    /// is refused. A store in the per-shard-log layout is upgraded.
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        shards: usize,
        config: DurableConfig,
    ) -> Result<Self, StoreError> {
        Self::open_observed(vfs, dir, shards, config, &Registry::disabled())
    }

    /// [`DurableSharded::open_with`] wired to record into `registry`
    /// everything [`crate::ShardedTree::with_metrics`] does — the
    /// engine under both is one — rebalance transitions and shed
    /// writes (`phshard_rebalance_*`, `phshard_routing_epoch`,
    /// `phshard_migration_inflight`) included.
    pub fn open_observed(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        shards: usize,
        config: DurableConfig,
        registry: &Registry,
    ) -> Result<Self, StoreError> {
        let vfs: Arc<dyn Vfs> = match &config.retry {
            Some(policy) => Arc::new(RetryVfs::new(vfs, policy.clone())),
            None => vfs,
        };
        vfs.create_dir_all(dir)?;
        let manifest: Manifest<K> = match read_manifest(vfs.as_ref(), dir)? {
            None => {
                let m = Manifest {
                    map: ShardMap::uniform(shards),
                    gen: 1,
                };
                write_manifest(vfs.as_ref(), dir, &m)?;
                m
            }
            Some(m) if m.map.epoch() == 0 && m.map.shards() != shards => {
                return Err(Corruption::new("shard count differs from manifest").into());
            }
            Some(m) => m,
        };
        let live = manifest.map.live_slots();
        let log_path = dir.join(WAL_FILE);
        if !vfs.exists(&log_path) {
            let shard_log = |&slot: &usize| vfs.exists(&shard_dir(dir, slot).join(WAL_FILE));
            if !live.iter().any(shard_log) {
                // A new store: empty snapshots, then the log.
                for &slot in &live {
                    if !vfs.exists(&snapshot_path(dir, slot)) {
                        save_shard(vfs.as_ref(), dir, slot, &PhTree::<V, K>::new(), 0)?;
                    }
                }
                new_log(vfs.as_ref(), dir, 0, config.sync_writes)?;
                vfs.sync_dir(dir)?;
            } else {
                upgrade::<V, K>(&vfs, dir, &live, config.clone())?;
            }
        }

        let rec = wal::recover::<V, K>(vfs.as_ref(), &log_path)?;
        let generation = rec
            .generation
            .ok_or_else(|| Corruption::new("store log header damaged"))?;
        let mut routed: Vec<Vec<Op<V, K>>> =
            (0..manifest.map.slot_bound()).map(|_| Vec::new()).collect();
        for op in rec.ops {
            routed[manifest.map.route(op.key())].push(op);
        }
        let mut states = Vec::with_capacity(live.len());
        let mut recovery = Vec::with_capacity(live.len());
        let load = |&slot: &usize| load_with::<V, K>(vfs.as_ref(), &snapshot_path(dir, slot));
        for (&slot, loaded) in live.iter().zip(per_shard(&live, load)) {
            let (mut tree, snap_gen) = loaded?;
            if !(generation..=generation + 1).contains(&snap_gen) {
                let what = "shard snapshot generation does not match the log";
                return Err(Corruption::new(what).into());
            }
            let replay = tree.replay_stats(std::mem::take(&mut routed[slot]));
            recovery.push(RecoveryStats {
                generation: snap_gen,
                replayed_ops: replay.applied,
                bulk_replayed: replay.bulk_loaded,
                truncated_bytes: rec.total_bytes - rec.valid_bytes,
                reset_stale_wal: false,
            });
            states.push(DurState {
                tree,
                backlog: None,
            });
        }
        let wal = wal::resume_writer(vfs.as_ref(), &log_path, rec.valid_bytes, config.sync_writes)?;
        Ok(DurableSharded {
            vfs,
            dir: dir.to_path_buf(),
            config,
            engine: Engine::new(manifest.map, states, Probes::new(registry)),
            log: DataMutex::new(LOG_RANK, Log { wal, generation }),
            manifest_gen: AtomicU64::new(manifest.gen),
            backlog_cap: AtomicUsize::new(DEFAULT_BACKLOG_CAP),
            recovery,
        })
    }

    /// The next manifest write counter (caller holds the split gate).
    fn next_gen(&self) -> u64 {
        self.manifest_gen.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Base directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of live shards.
    pub fn shards(&self) -> usize {
        self.router().shards()
    }

    /// The current routing snapshot (slot ids, shard boxes, query
    /// pruning). Splits installed later do not mutate it — re-call to
    /// observe the new epoch.
    pub fn router(&self) -> Arc<ShardMap<K>> {
        self.engine.router()
    }

    /// Current routing epoch (0 until the first committed split).
    pub fn epoch(&self) -> u64 {
        self.router().epoch()
    }

    /// What recovery found and did, per live shard (in
    /// [`ShardMap::live_slots`] order): the shard's snapshot
    /// generation and the log ops routed to it. `truncated_bytes` is
    /// the one log's torn tail, the same in every entry.
    pub fn recovery_stats(&self) -> &[RecoveryStats] {
        &self.recovery
    }

    /// Caps how many writes a migrating shard queues before shedding
    /// with [`ShardError::Overloaded`] (default
    /// [`DEFAULT_BACKLOG_CAP`]). Applies to splits begun after the
    /// call.
    pub fn set_backlog_capacity(&self, cap: usize) {
        self.backlog_cap.store(cap.max(1), Ordering::Relaxed);
    }

    /// Journals `ops` with one log write and one sync (the caller
    /// holds their cells), and says whether the log has passed the
    /// checkpoint threshold.
    fn journal(&self, ops: &[Op<V, K>]) -> Result<bool, StoreError> {
        let mut log = self.log.lock();
        log.wal.append_batch(ops)?;
        Ok(log.wal.bytes() >= self.checkpoint_threshold())
    }

    /// `checkpoint_bytes` per live shard.
    fn checkpoint_threshold(&self) -> u64 {
        let shards = self.shards() as u64;
        self.config.checkpoint_bytes.saturating_mul(shards)
    }

    /// Inserts `key` → `value`: a run of one (see
    /// [`DurableSharded::apply_run`]) — one log write and one sync. A
    /// full migration backlog sheds it with [`ShardError::Overloaded`]
    /// *before* journaling — neither durable nor applied, safe to
    /// retry.
    pub fn insert(&self, key: [u64; K], value: V) -> Result<Option<V>, ShardError> {
        let insert = &self.engine.probes.ops.insert;
        Ok(self.run(insert, vec![Op::Insert { key, value }])?[0].take())
    }

    /// Removes `key`, journaled (and backlogged / shed) like
    /// [`DurableSharded::insert`].
    pub fn remove(&self, key: &[u64; K]) -> Result<Option<V>, ShardError> {
        let remove = &self.engine.probes.ops.remove;
        Ok(self.run(remove, vec![Op::Remove { key: *key }])?[0].take())
    }

    /// Applies `f` to the value at `key` in the current published
    /// version — zero-copy, zero-lock, never blocked by writers.
    /// During a migration this still reads the (fully current) source
    /// shard — reads never degrade.
    pub fn get_with<R>(&self, key: &[u64; K], f: impl FnOnce(&V) -> R) -> Option<R> {
        self.engine.get_with(key, f)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u64; K]) -> bool {
        self.get_with(key, |_| ()).is_some()
    }

    /// The store's filesystem, for sibling modules writing artifacts
    /// alongside it (packed checkpoints).
    pub(crate) fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Total entries across shards, from one consistent snapshot.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pins a consistent point-in-time view across all shards (see
    /// [`Snapshot`] and the [`crate::snapshot`] cut protocol). Cheap:
    /// one pinned `Arc` per shard; versions share structure with the
    /// live stores' trees copy-on-write. The snapshot covers applied
    /// state — exactly the acknowledged writes up to its cut.
    pub fn snapshot(&self) -> Snapshot<V, K> {
        self.engine.snapshot()
    }

    /// Collects all entries in the window `[min, max]`, in global
    /// Z-order, against one consistent [`Snapshot`] — no locks, and a
    /// split or batch mid-scan can never tear the result. Shards
    /// outside the window are pruned by the routing map's mask walk.
    pub fn query(&self, min: &[u64; K], max: &[u64; K]) -> Vec<([u64; K], V)> {
        self.snapshot().query(min, max)
    }

    /// The `n` entries nearest to `center` under integer Euclidean
    /// distance, as `(key, value, distance)`: [`Snapshot::knn`] on a
    /// fresh snapshot.
    pub fn knn(&self, center: &[u64; K], n: usize) -> Vec<([u64; K], V, f64)> {
        self.snapshot().knn(center, n)
    }

    /// Counts entries in the window `[min, max]` without materialising
    /// them, against one consistent snapshot.
    pub fn query_count(&self, min: &[u64; K], max: &[u64; K]) -> usize {
        self.snapshot().query_count(min, max)
    }

    /// Applies a run of inserts and removes as one group commit: one
    /// log write and one sync however many shards it spans. Returns
    /// each op's previous value, in run order.
    ///
    /// The run is partitioned by the routing map in run order (ops on
    /// one key keep their order), the involved shards are locked in
    /// ascending slot order, and every armed migration backlog must
    /// admit its partition **before anything is journaled** — else the
    /// whole run sheds with [`ShardError::Overloaded`], nothing
    /// journaled or applied. The frames go to the log in *journal
    /// order* (ascending slot, run order within a slot), then apply.
    ///
    /// On an I/O error nothing is applied or published, and every op
    /// is outcome-unknown: the log may keep a journal-order frame
    /// prefix of the run, as a crash before the call returns may.
    /// Every involved shard publishes inside **one** write-clock
    /// bracket, so a [`Snapshot`] sees none of the run or all of it.
    pub fn apply_run(&self, ops: Vec<Op<V, K>>) -> Result<Vec<Option<V>>, ShardError> {
        self.run(&self.engine.probes.ops.apply_run, ops)
    }

    /// [`DurableSharded::apply_run`], recorded as `op`. The engine
    /// routes, locks (ascending slot order) and partitions; this is
    /// what happens to the locked partitions.
    fn run(&self, op: &OpInstruments, ops: Vec<Op<V, K>>) -> Result<Vec<Option<V>>, ShardError> {
        let (prevs, due) = self.engine.write_run(op, ops, Op::key, |route, parts| {
            // Admission: every partition must fit its armed backlog
            // before anything is journaled — all-or-nothing shedding
            // (and nothing published: the trees never changed).
            for p in parts.iter() {
                if let Err(shed) = p.state.admit(p.slot, p.items.len()) {
                    self.engine.probes.reb.shed.add(route.len() as u64);
                    return (false, Err(shed));
                }
            }
            let lens: Vec<usize> = parts.iter().map(|p| p.items.len()).collect();
            let journal: Vec<_> = parts
                .iter_mut()
                .flat_map(|p| std::mem::take(&mut p.items))
                .collect();
            let due = match self.journal(&journal) {
                Ok(due) => due,
                Err(e) => return (false, Err(e.into())),
            };
            let mut journal = journal.into_iter();
            let mut prevs: Vec<_> = parts
                .iter_mut()
                .zip(lens)
                .map(|(p, n)| {
                    let ops = journal.by_ref().take(n);
                    ops.map(|op| p.state.apply(op))
                        .collect::<Vec<_>>()
                        .into_iter()
                })
                .collect();
            let in_run_order = route.iter().map(|&part| prevs[part].next());
            let out = in_run_order.map(|p| p.expect("one result per op"));
            (true, Ok((out.collect(), due)))
        })?;
        if due {
            self.checkpoint(true)?;
        }
        Ok(prevs)
    }

    /// Bulk-inserts `items` as one run (same admission, durability and
    /// publication contract as [`DurableSharded::apply_run`]). Returns
    /// the number of *new* keys (duplicates overwrite, last write
    /// wins).
    pub fn bulk_load(&self, items: Vec<([u64; K], V)>) -> Result<usize, ShardError> {
        let ops = items
            .into_iter()
            .map(|(key, value)| Op::Insert { key, value })
            .collect();
        let prevs = self.run(&self.engine.probes.ops.bulk_load, ops)?;
        Ok(prevs.iter().filter(|p| p.is_none()).count())
    }

    /// Per-shard statistics (slot ids, entry counts, epoch, pruning
    /// counters) — this is what the rebalancer's skew watch reads.
    /// Served from one consistent [`Snapshot`], lock-free.
    pub fn stats(&self) -> crate::ShardStats {
        self.snapshot().stats()
    }

    /// Checkpoints the store: every live shard's snapshot stamped
    /// `g+1`, then the log rotated to `g+1`, under every cell lock and
    /// the log's (writes wait, reads do not). Waits for a split in
    /// flight, so never call it holding a [`PendingSplit`]. Returns
    /// `(slot, new_generation)` per shard. On failure the log keeps
    /// generation `g`, valid against every snapshot, advanced or not; a
    /// failed snapshot is reported with its slot
    /// ([`ShardError::Checkpoint`]).
    pub fn checkpoint_all(&self) -> Result<Vec<(usize, u64)>, ShardError> {
        self.checkpoint(false)
    }

    /// The store-wide checkpoint. With `due`, it is the automatic one:
    /// deferred while a split holds the gate (its commit or abort runs
    /// it then), and skipped if another writer rotated the log first.
    fn checkpoint(&self, due: bool) -> Result<Vec<(usize, u64)>, ShardError> {
        let _gate = match due {
            true => match self.engine.try_gate() {
                Some(gate) => gate,
                None => return Ok(Vec::new()),
            },
            false => self.engine.gate(),
        };
        self.engine.with_all_locked(|_, cells| {
            let mut log = self.log.lock();
            if due && log.wal.bytes() < self.checkpoint_threshold() {
                return Ok(Vec::new());
            }
            let (vfs, next) = (self.vfs.as_ref(), log.generation + 1);
            let saved = per_shard(cells, |(slot, cs)| {
                save_shard(vfs, &self.dir, *slot, &cs.tree, next)
            });
            for (&(slot, _), saved) in cells.iter().zip(saved) {
                saved.map_err(|source| ShardError::Checkpoint { slot, source })?;
            }
            // Switch writers to the new log at the rename: a failed
            // directory sync must not leave appends going to the old.
            log.wal = new_log(vfs, &self.dir, next, self.config.sync_writes)?;
            log.generation = next;
            vfs.sync_dir(&self.dir).map_err(StoreError::from)?;
            Ok(cells.iter().map(|&(slot, _)| (slot, next)).collect())
        })
    }

    /// Durability barrier on the log.
    pub fn sync_all(&self) -> Result<(), StoreError> {
        self.log.lock().wal.sync()
    }

    /// Splits the live shard `slot` into `2^bits` children — copy and
    /// commit in one call (see the module docs). Reads and writes keep
    /// flowing throughout; only backlog overflow on `slot` sheds.
    pub fn split_shard(&self, slot: usize, bits: u32) -> Result<SplitReport, ShardError> {
        let pending = self.begin_split(slot, bits)?;
        self.commit_split(pending)
    }

    /// Phase 1 of a split: takes the freeze-point clone of `slot` under
    /// a brief write lock, arms the write backlog, and writes the
    /// `2^bits` children as snapshots stamped with the log's
    /// generation. On return the split is fully prepared but not
    /// committed: a crash now reopens the old map.
    pub fn begin_split(
        &self,
        slot: usize,
        bits: u32,
    ) -> Result<PendingSplit<'_, V, K>, ShardError> {
        let plan = self.engine.plan_split(slot, bits)?;
        self.engine.probes.reb.migration_inflight.add(1);

        // Freeze point: under the cell's lock, clone the tree (O(1),
        // copy-on-write) and arm the backlog. Every later write lands
        // in the backlog (or sheds); every earlier one is in the clone.
        let snap = {
            let mut cs = plan.cell.lock();
            debug_assert!(cs.backlog.is_none(), "split gate admitted two migrations");
            cs.backlog = Some(Backlog {
                ops: Vec::new(),
                cap: self.backlog_cap.load(Ordering::Relaxed),
            });
            cs.tree.clone()
        };

        // Copy, with no cell lock held: each child's snapshot is
        // stamped with the current log (the gate keeps it from
        // rotating).
        let migrated = snap.len();
        let parts = plan.partition(&snap);
        drop(snap);
        let generation = self.log.lock().generation;
        let mut children = Vec::with_capacity(parts.len());
        for (&child, part) in plan.children.iter().zip(parts) {
            let tree = PhTree::bulk_load(part);
            if let Err(e) = save_shard(self.vfs.as_ref(), &self.dir, child, &tree, generation) {
                return Err(self.fail_split(&plan, e));
            }
            children.push(tree);
        }
        Ok(PendingSplit {
            plan,
            children,
            migrated,
        })
    }

    /// Phase 2 of a split: under the source's write lock, drains the
    /// backlog into the children's trees (its ops are in the log
    /// already), rewrites the manifest with the successor map — the
    /// commit point — and has the engine install the new epoch. An
    /// error before the rename rolls the split back in place. A
    /// checkpoint the split deferred runs after the commit.
    pub fn commit_split(&self, pending: PendingSplit<'_, V, K>) -> Result<SplitReport, ShardError> {
        let PendingSplit {
            plan,
            mut children,
            migrated,
        } = pending;
        let cell = Arc::clone(&plan.cell);
        let mut cs = cell.lock();
        let backlog = cs.backlog.take().expect("pending split lost its backlog");
        let drained = backlog.ops.len();
        let base = plan.children[0];
        for op in backlog.ops {
            children[plan.map2.route(op.key()) - base].apply(op);
        }
        // Commit point: one atomic rename flips recovery from the
        // source to the children.
        let manifest = Manifest {
            map: plan.map2.clone(),
            gen: self.next_gen(),
        };
        if let Err(e) = write_manifest(self.vfs.as_ref(), &self.dir, &manifest) {
            drop(cs);
            return Err(self.fail_split(&plan, e));
        }

        let src = plan.src;
        let children = children.into_iter().map(|tree| DurState {
            tree,
            backlog: None,
        });
        let report = self
            .engine
            .install_split(plan, cs, children.collect(), migrated, drained);
        // The source snapshot is now unreferenced; scrub best-effort
        // (a crash here just leaves garbage bytes).
        scrub_shard(self.vfs.as_ref(), &self.dir, src);
        // The split stands whatever this returns; a failed checkpoint
        // leaves the log long, and the next write past it retries.
        let _ = self.checkpoint(true);
        Ok(report)
    }

    /// Abandons a prepared split: scrubs the children, disarms the
    /// backlog, and runs a checkpoint the split deferred (as
    /// [`DurableSharded::commit_split`] does).
    pub fn abort_split(&self, pending: PendingSplit<'_, V, K>) -> Result<(), ShardError> {
        self.rollback_in_place(&pending.plan);
        drop(pending);
        let _ = self.checkpoint(true);
        Ok(())
    }

    /// A split that failed: rolled back in place, counted, surfaced.
    fn fail_split(&self, plan: &DurPlan<'_, V, K>, e: StoreError) -> ShardError {
        self.rollback_in_place(plan);
        self.engine.probes.reb.split_failures.inc();
        e.into()
    }

    /// Shared rollback: scrub child snapshots (best-effort — they are
    /// unreferenced either way), disarm the backlog.
    fn rollback_in_place(&self, plan: &DurPlan<'_, V, K>) {
        for &c in &plan.children {
            scrub_shard(self.vfs.as_ref(), &self.dir, c);
        }
        plan.cell.lock().backlog = None;
        self.engine.probes.reb.migration_inflight.add(-1);
    }
}
