//! Durable sharded mode: one `phstore::Durable` WAL per shard, with
//! crash-safe online shard splitting.
//!
//! Each shard journals to its own subdirectory
//! (`phstore::durable::shard_dir`: `base/shard-NNN/`), so WAL appends
//! on different shards never serialise on one file, and recovery —
//! snapshot load + WAL replay per shard — runs on all cores. A
//! manifest in the base directory records the full routing topology
//! (a [`ShardMap`] trie), the routing epoch, and — while a split is in
//! flight — an in-progress migration record.
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
//! migration  0, or 1 + record          u8 [+ src u32, bits u32,
//!                                          n u32, children u32×n]
//! crc        FNV-1a of all above       u64 LE
//! ```
//!
//! Every manifest write is atomic: staging file, fsync, rename over
//! `phshard.meta`, directory fsync — a crash can only ever expose the
//! previous or the next manifest, never a torn one. Legacy `PHSHARD1`
//! manifests (uniform shard count only) are read and upgraded in
//! place.
//!
//! ## Migration protocol (hot-shard split)
//!
//! A split of slot `P` into children `C₀..Cₙ` walks four states; the
//! commit point is a single manifest rename:
//!
//! ```text
//! IDLE ──(1 prepare)──▶ PREPARED ──(2 copy)──▶ COPIED ──(3 commit)──▶ DONE
//!
//! 1 prepare  manifest := {old map, migration record}   (atomic)
//! 2 copy     freeze-point snapshot of P under a brief write lock;
//!            children built via bulk_load + snapshot write;
//!            writes to P keep journaling to P's WAL *and* queue in a
//!            bounded backlog (full backlog ⇒ typed Overloaded shed —
//!            the shed op is neither journaled nor applied);
//!            reads keep serving from P throughout
//! 3 commit   under P's write lock: drain backlog into the children's
//!            WALs, sync, then manifest := {new map, no record}
//!            (atomic rename = commit point); install the new routing
//!            epoch in memory; retire P's cell
//! ```
//!
//! Crash recovery is deterministic at every byte: a manifest *with* a
//! migration record rolls the split back (delete the children's files
//! — their content is a re-derivable copy — then clear the record),
//! landing in the pre-migration state with every acknowledged write
//! intact in `P`'s WAL; a manifest *without* a record is already the
//! pre- or post-migration state. Backlogged writes are journaled to
//! `P` at acknowledgement time, so they survive rollback even though
//! commit re-journals them to the children. The `migration_crash`
//! integration test sweeps a crash through every byte of this write
//! stream and asserts exactly that.

use crate::engine::{CellState, Engine, SplitPlan};
use crate::epoch::ShardMap;
use crate::error::ShardError;
use crate::metrics::{OpInstruments, Probes};
use crate::sharded::SplitReport;
use crate::snapshot::Snapshot;
use phmetrics::Registry;
use phstore::durable::shard_dir;
use phstore::vfs::{StdVfs, Vfs};
use phstore::{fnv1a, Corruption, Durable, DurableConfig, RecoveryStats, StoreError, ValueCodec};
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

/// In-progress migration record, persisted in the manifest between
/// prepare and commit so recovery knows which child directories to
/// roll back.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MigrationRecord {
    src: u32,
    bits: u32,
    children: Vec<u32>,
}

/// The decoded manifest: committed routing map + optional in-flight
/// migration.
#[derive(Debug, Clone, PartialEq)]
struct Manifest<const K: usize> {
    map: ShardMap<K>,
    gen: u64,
    migration: Option<MigrationRecord>,
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
        match &self.migration {
            None => out.push(0),
            Some(m) => {
                out.push(1);
                out.extend_from_slice(&m.src.to_le_bytes());
                out.extend_from_slice(&m.bits.to_le_bytes());
                out.extend_from_slice(&(m.children.len() as u32).to_le_bytes());
                for c in &m.children {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
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
                migration: None,
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
        let migration = match take(1)?[0] {
            0 => None,
            1 => {
                let src = u32::from_le_bytes(take(4)?.try_into().unwrap());
                let bits = u32::from_le_bytes(take(4)?.try_into().unwrap());
                let n = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
                if n > crate::MAX_SHARDS {
                    return Err(bad("sharded manifest migration record malformed"));
                }
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    children.push(u32::from_le_bytes(take(4)?.try_into().unwrap()));
                }
                Some(MigrationRecord {
                    src,
                    bits,
                    children,
                })
            }
            _ => return Err(bad("sharded manifest migration tag invalid")),
        };
        if pos != body.len() {
            return Err(bad("sharded manifest has trailing bytes"));
        }
        Ok(Manifest {
            map,
            gen,
            migration,
        })
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

/// Best-effort removal of one shard directory's files (snapshot, WAL,
/// staging leftovers). Used by migration rollback and post-commit
/// cleanup; failures are ignored — leftover bytes in an unreferenced
/// directory are garbage, not state.
fn scrub_shard_dir(vfs: &dyn Vfs, dir: &Path) {
    for name in [phstore::durable::SNAPSHOT_FILE, phstore::durable::WAL_FILE] {
        let p = dir.join(name);
        let _ = vfs.remove_file(&p);
        let _ = vfs.remove_file(&dir.join(format!("{name}.tmp")));
    }
}

/// Runs `job` for every shard in `shards`, each on its own scoped
/// thread (recovery and checkpoints are per-shard I/O); results come
/// back in `shards` order.
fn per_shard<T: Sync, R: Send>(shards: &[T], job: impl Fn(&T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let spawned: Vec<_> = shards.iter().map(|s| scope.spawn(|| job(s))).collect();
        let joined = spawned.into_iter().map(|h| h.join());
        joined
            .map(|r| r.expect("per-shard thread panicked"))
            .collect()
    })
}

/// Bounded queue of writes accepted while a slot's contents are being
/// copied; drained onto the children at commit.
struct Backlog<V, const K: usize> {
    ops: Vec<Op<V, K>>,
    cap: usize,
}

/// A durable cell's writer-side state: the store plus (while
/// migrating) the write backlog, guarded together so backlog
/// membership is exactly "journaled after the freeze-point snapshot".
pub(crate) struct DurState<V: ValueCodec, const K: usize> {
    store: Durable<V, K>,
    backlog: Option<Backlog<V, K>>,
}

impl<V: ValueCodec, const K: usize> CellState<V, K> for DurState<V, K> {
    fn tree(&self) -> &PhTree<V, K> {
        self.store.tree()
    }
}

impl<V: ValueCodec + Clone, const K: usize> DurState<V, K> {
    fn fresh(store: Durable<V, K>) -> Self {
        DurState {
            store,
            backlog: None,
        }
    }

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

    /// Journals and applies `ops` as one group commit (one WAL write,
    /// one sync), queueing them on the backlog if a migration armed it.
    fn apply(&mut self, ops: Vec<Op<V, K>>) -> Result<Vec<Option<V>>, StoreError> {
        let queued = self.backlog.is_some().then(|| ops.clone());
        let prevs = self.store.apply_batch(ops)?;
        if let Some(b) = &mut self.backlog {
            b.ops.extend(queued.unwrap_or_default());
        }
        Ok(prevs)
    }
}

type DurPlan<'a, V, const K: usize> = SplitPlan<'a, DurState<V, K>, V, K>;

/// A split prepared by [`DurableSharded::begin_split`]: children built
/// and durable, backlog accepting writes, manifest carrying the
/// migration record. Holds the split gate, so exactly one can exist;
/// pass it to [`DurableSharded::commit_split`] to make the new routing
/// epoch the committed state, or [`DurableSharded::abort_split`] to
/// roll back. Dropping it without either leaves the slot backlogging
/// (and eventually shedding) until the next reopen rolls the split
/// back — always safe, never lossy, but don't.
pub struct PendingSplit<'a, V: ValueCodec, const K: usize> {
    plan: DurPlan<'a, V, K>,
    children: Vec<Durable<V, K>>,
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

/// A crash-safe [`crate::ShardedTree`]-alike: per-shard
/// [`phstore::Durable`] write-ahead logs, parallel recovery, and
/// online hot-shard splitting (see the module docs for the migration
/// protocol).
///
/// Consistency matches the in-memory layer: single-key operations are
/// linearizable within their shard *and* durable once acknowledged
/// (journal-then-apply under the shard's write lock, published to the
/// lock-free read path before the ack); cross-shard reads are snapshot
/// reads over a consistent cut ([`DurableSharded::snapshot`]).
/// Durability is per shard too — a crash can lose
/// no acknowledged op, but ops acknowledged on different shards have
/// no global order in the logs. During a migration the source shard
/// keeps serving reads and accepting writes; only backlog overflow
/// sheds (typed [`ShardError::Overloaded`], not journaled, safe to
/// retry).
///
/// The cell, cut, retire and lock-order protocols are the shared
/// engine's (`engine.rs`), the same code [`crate::ShardedTree`] runs
/// on; what is this type's own is the manifest, backlog admission and
/// shedding, the prepare/commit/rollback of a split, and checkpointing.
pub struct DurableSharded<V: ValueCodec + Clone + Send + Sync, const K: usize> {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    config: DurableConfig,
    pub(crate) engine: Engine<DurState<V, K>, V, K>,
    /// The manifest write counter; only touched under the engine's
    /// split gate (a [`SplitPlan`] holds it) or before the store is
    /// shared.
    manifest_gen: AtomicU64,
    backlog_cap: AtomicUsize,
    recovery: Vec<RecoveryStats>,
    rolled_back: bool,
}

impl<V: ValueCodec + Clone + Send + Sync, const K: usize> DurableSharded<V, K> {
    /// Opens (or initialises) a sharded durable store under `dir` on
    /// the real filesystem with default tuning.
    pub fn open(dir: &Path, shards: usize) -> Result<Self, StoreError> {
        Self::open_with(Arc::new(StdVfs), dir, shards, DurableConfig::default())
    }

    /// Opens (or initialises) on any [`Vfs`]. Recovers all shards in
    /// parallel (one thread per shard). `shards` is the *initial*
    /// uniform topology: once the store has split (epoch > 0), the
    /// manifest's topology is authoritative and `shards` is ignored;
    /// at epoch 0 a mismatch with the manifest is refused, as before.
    /// A manifest carrying an in-progress migration record (crash
    /// mid-split) is rolled back to the pre-migration state first.
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
        vfs.create_dir_all(dir)?;
        let mut rolled_back = false;
        let manifest: Manifest<K> = match read_manifest(vfs.as_ref(), dir)? {
            None => {
                let m = Manifest {
                    map: ShardMap::uniform(shards),
                    gen: 1,
                    migration: None,
                };
                write_manifest(vfs.as_ref(), dir, &m)?;
                m
            }
            Some(mut m) => {
                if m.map.epoch() == 0 && m.map.shards() != shards {
                    return Err(Corruption::new("shard count differs from manifest").into());
                }
                if let Some(mig) = m.migration.take() {
                    // Crash mid-migration: the children are a
                    // re-derivable copy; every acknowledged write is in
                    // the source's WAL. Scrub the children, then clear
                    // the record — idempotent if we crash again here.
                    for c in &mig.children {
                        scrub_shard_dir(vfs.as_ref(), &shard_dir(dir, *c as usize));
                    }
                    m.gen += 1;
                    write_manifest(vfs.as_ref(), dir, &m)?;
                    rolled_back = true;
                }
                m
            }
        };

        let live = manifest.map.live_slots();
        let opened = per_shard(&live, |&slot| {
            Durable::open_with(Arc::clone(&vfs), &shard_dir(dir, slot), config.clone())
        });
        let mut states = Vec::with_capacity(live.len());
        let mut recovery = Vec::with_capacity(live.len());
        for r in opened {
            let d: Durable<V, K> = r?;
            recovery.push(d.recovery_stats());
            states.push(DurState::fresh(d));
        }
        Ok(DurableSharded {
            vfs,
            dir: dir.to_path_buf(),
            config,
            engine: Engine::new(manifest.map, states, Probes::new(registry)),
            manifest_gen: AtomicU64::new(manifest.gen),
            backlog_cap: AtomicUsize::new(DEFAULT_BACKLOG_CAP),
            recovery,
            rolled_back,
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
    /// [`ShardMap::live_slots`] order).
    pub fn recovery_stats(&self) -> &[RecoveryStats] {
        &self.recovery
    }

    /// Whether this open rolled back a crashed in-flight migration.
    pub fn rolled_back_migration(&self) -> bool {
        self.rolled_back
    }

    /// Caps how many writes a migrating shard queues before shedding
    /// with [`ShardError::Overloaded`] (default
    /// [`DEFAULT_BACKLOG_CAP`]). Applies to splits begun after the
    /// call.
    pub fn set_backlog_capacity(&self, cap: usize) {
        self.backlog_cap.store(cap.max(1), Ordering::Relaxed);
    }

    /// One journaled single-key write: admitted against the armed
    /// backlog, then journaled and applied under the owning shard's
    /// lock, published before the ack.
    fn write_one(&self, w: Op<V, K>) -> Result<Option<V>, ShardError> {
        let probes = &self.engine.probes;
        let (op, key) = match &w {
            Op::Insert { key, .. } => (&probes.ops.insert, *key),
            Op::Remove { key } => (&probes.ops.remove, *key),
        };
        self.engine.with_cell_write(op, &key, |slot, cs| {
            cs.admit(slot, 1).inspect_err(|_| probes.reb.shed.inc())?;
            Ok(cs.apply(vec![w])?.pop().expect("one result per op"))
        })
    }

    /// Inserts `key` → `value`: journaled on the owning shard's WAL
    /// before being applied, under that shard's write lock. If the
    /// shard is mid-migration the op is also queued on the bounded
    /// backlog for replay onto the children; a full backlog sheds the
    /// write with [`ShardError::Overloaded`] *before* journaling, so a
    /// shed write is neither durable nor applied — safe to retry.
    pub fn insert(&self, key: [u64; K], value: V) -> Result<Option<V>, ShardError> {
        self.write_one(Op::Insert { key, value })
    }

    /// Removes `key`, journaled (and backlogged / shed) like
    /// [`DurableSharded::insert`].
    pub fn remove(&self, key: &[u64; K]) -> Result<Option<V>, ShardError> {
        self.write_one(Op::Remove { key: *key })
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

    /// Applies a run of inserts and removes as one group commit per
    /// involved shard — the multi-cell write path the serving layer's
    /// pipelined writes ride on. Returns each op's previous value, in
    /// run order.
    ///
    /// The run is partitioned by the routing map in run order (so ops
    /// on one key keep their order: last writer wins), every involved
    /// shard is write-locked in ascending slot order, and admission is
    /// checked against each armed migration backlog **before anything
    /// is journaled**: if any partition would overflow its backlog the
    /// whole run sheds with [`ShardError::Overloaded`] — nothing
    /// journaled, nothing applied, safe to retry. Once admitted, each
    /// shard's partition is one [`Durable::apply_batch`]: one WAL
    /// write and one sync per involved shard, however long the run.
    ///
    /// On a store I/O error the failing shard's partition is not
    /// applied and later shards (in slot order) are not attempted;
    /// earlier shards' partitions are durable. The caller learns only
    /// the error, so it must treat every op of the run as
    /// outcome-unknown. The same holds for a crash before the call
    /// returns: the run may survive in part — whole partitions of some
    /// shards, a frame prefix of one.
    ///
    /// Publication is all-at-once: every involved shard's new tree
    /// version is published inside **one** write-clock bracket after
    /// the whole run applies, so a [`Snapshot`] observes either none
    /// of the run or all of it — never a torn run. (A shed run
    /// publishes nothing; an I/O error publishes the applied, durable
    /// partitions before surfacing.)
    pub fn apply_run(&self, ops: Vec<Op<V, K>>) -> Result<Vec<Option<V>>, ShardError> {
        self.run(&self.engine.probes.ops.apply_run, ops)
    }

    /// [`DurableSharded::apply_run`], recorded as `op`. The engine
    /// routes, locks (ascending slot order) and partitions; this is
    /// what happens to the locked partitions.
    fn run(&self, op: &OpInstruments, ops: Vec<Op<V, K>>) -> Result<Vec<Option<V>>, ShardError> {
        self.engine.write_run(op, ops, Op::key, |route, parts| {
            // Admission: every partition must fit its armed backlog
            // before anything is journaled — all-or-nothing shedding
            // (and nothing published: the trees never changed).
            for p in parts.iter() {
                if let Err(shed) = p.state.admit(p.slot, p.items.len()) {
                    self.engine.probes.reb.shed.add(route.len() as u64);
                    return (false, Err(shed));
                }
            }
            let mut prevs = Vec::with_capacity(parts.len());
            for p in parts.iter_mut() {
                match p.state.apply(std::mem::take(&mut p.items)) {
                    Ok(prev) => prevs.push(prev.into_iter()),
                    // Publish the applied (journaled, durable)
                    // partitions, then surface.
                    Err(e) => return (true, Err(e.into())),
                }
            }
            let in_run_order = route.iter().map(|&part| prevs[part].next());
            let out = in_run_order.map(|p| p.expect("one result per op"));
            (true, Ok(out.collect()))
        })
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

    /// Checkpoints every live shard (snapshot + WAL rotation) in
    /// parallel. Returns `(slot, new_generation)` per shard.
    ///
    /// Shards checkpoint independently — each shard's snapshot+WAL
    /// pair stays self-consistent no matter which other shards
    /// advanced — and the routing manifest is **not** touched, so a
    /// failure on one shard can never publish topology past broken
    /// data. On failure, the first failing shard is reported with its
    /// slot ([`ShardError::Checkpoint`]); other shards may or may not
    /// have advanced, which is safe, and a subsequent reopen recovers
    /// every shard from whatever generation it reached.
    pub fn checkpoint_all(&self) -> Result<Vec<(usize, u64)>, ShardError> {
        let live = self.engine.live_cells();
        let gens = per_shard(&live, |(_, cell)| cell.lock().store.checkpoint());
        let tagged = live.iter().zip(gens).map(|(&(slot, _), r)| match r {
            Ok(gen) => Ok((slot, gen)),
            Err(source) => Err(ShardError::Checkpoint { slot, source }),
        });
        tagged.collect()
    }

    /// Durability barrier on every live shard's WAL.
    pub fn sync_all(&self) -> Result<(), StoreError> {
        for (_, cell) in self.engine.live_cells() {
            cell.lock().store.sync()?;
        }
        Ok(())
    }

    /// Splits the live shard `slot` into `2^bits` children — prepare,
    /// copy, and commit in one call (see the module docs for the
    /// protocol and its crash windows). Reads and writes to every
    /// shard, including `slot`, keep flowing throughout; only backlog
    /// overflow on `slot` sheds.
    pub fn split_shard(&self, slot: usize, bits: u32) -> Result<SplitReport, ShardError> {
        let pending = self.begin_split(slot, bits)?;
        self.commit_split(pending)
    }

    /// Phases 1–2 of a split: persists the migration record (atomic
    /// manifest write), takes the freeze-point snapshot of `slot`
    /// under a brief write lock, arms the write backlog, and builds
    /// the `2^bits` children as durable generation-0 stores. On return
    /// the split is fully prepared but not committed: recovery at this
    /// point rolls it back.
    pub fn begin_split(
        &self,
        slot: usize,
        bits: u32,
    ) -> Result<PendingSplit<'_, V, K>, ShardError> {
        let plan = self.engine.plan_split(slot, bits)?;
        let reb = &self.engine.probes.reb;

        // Phase 1 — prepare: persist the migration record before any
        // child bytes exist, so every later crash finds the record and
        // knows what to scrub.
        let prepared = Manifest {
            map: (*plan.routing.map).clone(),
            gen: self.next_gen(),
            migration: Some(MigrationRecord {
                src: slot as u32,
                bits,
                children: plan.children.iter().map(|&c| c as u32).collect(),
            }),
        };
        if let Err(e) = write_manifest(self.vfs.as_ref(), &self.dir, &prepared) {
            reb.split_failures.inc();
            return Err(e.into());
        }
        reb.migration_inflight.add(1);

        // Freeze point: under the cell's state lock, snapshot the tree
        // and arm the backlog. Every write ordered after this lock
        // release lands in the backlog (or sheds); everything before
        // is in the snapshot. The lock is held only for the O(1)
        // structural clone (versions share nodes copy-on-write), not
        // the rebuild.
        let snap = {
            let mut cs = plan.cell.lock();
            debug_assert!(cs.backlog.is_none(), "split gate admitted two migrations");
            cs.backlog = Some(Backlog {
                ops: Vec::new(),
                cap: self.backlog_cap.load(Ordering::Relaxed),
            });
            cs.store.tree().clone()
        };

        // Phase 2 — copy: partition the frozen snapshot by the
        // successor map and build each child as a durable generation-0
        // store (snapshot written atomically, fresh WAL). No locks
        // held: reads and writes keep flowing.
        let migrated = snap.len();
        let parts = plan.partition(&snap);
        drop(snap);
        let mut children = Vec::with_capacity(parts.len());
        for (&child, part) in plan.children.iter().zip(parts) {
            let d = shard_dir(&self.dir, child);
            let tree = PhTree::bulk_load(part);
            match Durable::create_with_tree(Arc::clone(&self.vfs), &d, tree, self.config.clone()) {
                Ok(c) => children.push(c),
                // Build failed: roll back in place (same steps
                // recovery would take) and disarm the backlog.
                Err(e) => return Err(self.fail_split(&plan, e)),
            }
        }
        Ok(PendingSplit {
            plan,
            children,
            migrated,
        })
    }

    /// Phase 3 of a split: under the source's write lock, drains the
    /// backlog into the children's WALs, syncs them, then atomically
    /// rewrites the manifest with the successor map — the commit point
    /// — and has the engine install the new routing epoch (retire,
    /// then install, in one clock bracket, still under that lock). On
    /// any error before the manifest rename the split rolls back in
    /// place (children scrubbed, backlog disarmed, record cleared);
    /// acknowledged writes are in the source's WAL either way.
    pub fn commit_split(&self, pending: PendingSplit<'_, V, K>) -> Result<SplitReport, ShardError> {
        let PendingSplit {
            plan,
            mut children,
            migrated,
        } = pending;
        let cell = Arc::clone(&plan.cell);
        let mut cs = cell.lock();
        let backlog = cs
            .backlog
            .take()
            .expect("pending split lost its backlog")
            .ops;
        let drained = backlog.len();
        let base = plan.children[0];
        let drain = || -> Result<(), StoreError> {
            for op in backlog {
                let child = &mut children[plan.map2.route(op.key()) - base];
                match op {
                    Op::Insert { key, value } => child.insert(key, value)?,
                    Op::Remove { key } => child.remove(&key)?,
                };
            }
            if !self.config.sync_writes {
                for c in children.iter_mut() {
                    c.sync()?;
                }
            }
            Ok(())
        };
        // Commit point: one atomic rename flips recovery from
        // "roll back to source" to "serve from children".
        let committed = drain().and_then(|()| {
            let manifest = Manifest {
                map: plan.map2.clone(),
                gen: self.next_gen(),
                migration: None,
            };
            write_manifest(self.vfs.as_ref(), &self.dir, &manifest)
        });
        if let Err(e) = committed {
            drop(cs);
            return Err(self.fail_split(&plan, e));
        }

        let src = plan.src;
        let children = children.into_iter().map(DurState::fresh).collect();
        let report = self
            .engine
            .install_split(plan, cs, children, migrated, drained);
        // The source directory is now unreferenced; scrub best-effort
        // (a crash here just leaves garbage bytes).
        scrub_shard_dir(self.vfs.as_ref(), &shard_dir(&self.dir, src));
        Ok(report)
    }

    /// Abandons a prepared split: scrubs the children, disarms the
    /// backlog, clears the manifest record. The store is back in the
    /// pre-migration state with every acknowledged write intact.
    pub fn abort_split(&self, pending: PendingSplit<'_, V, K>) -> Result<(), ShardError> {
        drop(pending.children);
        self.rollback_in_place(&pending.plan);
        Ok(())
    }

    /// A split that failed after its prepare: rolled back in place,
    /// counted, and surfaced.
    fn fail_split(&self, plan: &DurPlan<'_, V, K>, e: StoreError) -> ShardError {
        self.rollback_in_place(plan);
        self.engine.probes.reb.split_failures.inc();
        e.into()
    }

    /// Shared rollback: scrub child files, clear the migration record
    /// (best-effort — recovery redoes both if the VFS is already
    /// dead), disarm the backlog. Ordering matters: files first, then
    /// the record, so a crash between the two re-runs the scrub.
    fn rollback_in_place(&self, plan: &DurPlan<'_, V, K>) {
        for &c in &plan.children {
            scrub_shard_dir(self.vfs.as_ref(), &shard_dir(&self.dir, c));
        }
        let restored = Manifest {
            map: (*plan.routing.map).clone(),
            gen: self.next_gen(),
            migration: None,
        };
        let _ = write_manifest(self.vfs.as_ref(), &self.dir, &restored);
        plan.cell.lock().backlog = None;
        self.engine.probes.reb.migration_inflight.add(-1);
    }
}
