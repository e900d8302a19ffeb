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

use crate::epoch::ShardMap;
use crate::error::ShardError;
use crate::lockstat::DataMutex;
use crate::metrics::{RebalanceMetrics, SwapMetrics};
use crate::sharded::SplitReport;
use crate::snapshot::{Published, Snapshot, WriteClock, SNAPSHOT_SPIN};
use crate::swap::Swap;
use phmetrics::Registry;
use phstore::durable::shard_dir;
use phstore::vfs::{StdVfs, Vfs};
use phstore::{fnv1a, Corruption, Durable, DurableConfig, RecoveryStats, StoreError, ValueCodec};
use phtree::{Op, PhTree};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

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

/// Bounded queue of writes accepted while a slot's contents are being
/// copied; drained onto the children at commit.
struct Backlog<V, const K: usize> {
    ops: Vec<Op<V, K>>,
    cap: usize,
}

/// One shard's durable cell: the store plus (while migrating) the
/// write backlog, guarded together so backlog membership is exactly
/// "journaled after the freeze-point snapshot".
struct DurCellState<V: ValueCodec, const K: usize> {
    store: Durable<V, K>,
    backlog: Option<Backlog<V, K>>,
}

/// One shard's durable cell. Writers mutate `state` (journal + apply)
/// under its lock and then publish an O(1) structural clone of the
/// store's tree through `published`; readers only touch `published`
/// (lock-free). `retired` flips inside the commit's write-clock
/// bracket, *before* the successor state installs — see
/// [`crate::sharded`] for why that order makes lock-free reads sound.
struct DurCell<V: ValueCodec, const K: usize> {
    retired: AtomicBool,
    state: DataMutex<DurCellState<V, K>>,
    published: Swap<Published<V, K>>,
}

impl<V: ValueCodec, const K: usize> DurCell<V, K> {
    fn fresh(store: Durable<V, K>) -> Arc<Self> {
        Arc::new(DurCell {
            retired: AtomicBool::new(false),
            published: Swap::new(Published::now(store.tree().clone())),
            state: DataMutex::new(DurCellState {
                store,
                backlog: None,
            }),
        })
    }

    /// Publishes the store's current tree. Must be called under the
    /// cell's state lock and inside a write-clock bracket.
    fn publish(&self, cs: &DurCellState<V, K>, metrics: &SwapMetrics) {
        self.published
            .store(Published::now(cs.store.tree().clone()));
        metrics.root_swaps.inc();
    }
}

/// An immutable routing snapshot: map + slot-indexed cells, swapped
/// wholesale behind `Arc` at each committed split.
struct DurInner<V: ValueCodec, const K: usize> {
    map: Arc<ShardMap<K>>,
    cells: Vec<Option<Arc<DurCell<V, K>>>>,
}

/// A split prepared by [`DurableSharded::begin_split`]: children built
/// and durable, backlog accepting writes, manifest carrying the
/// migration record. Holds the split gate, so exactly one can exist;
/// pass it to [`DurableSharded::commit_split`] to make the new routing
/// epoch the committed state, or [`DurableSharded::abort_split`] to
/// roll back. Dropping it without either leaves the slot backlogging
/// (and eventually shedding) until the next reopen rolls the split
/// back — always safe, never lossy, but don't.
pub struct PendingSplit<'a, V: ValueCodec, const K: usize> {
    _gate: MutexGuard<'a, u64>,
    src: usize,
    map2: ShardMap<K>,
    child_slots: Vec<usize>,
    children: Vec<Durable<V, K>>,
    migrated: usize,
}

impl<V: ValueCodec, const K: usize> PendingSplit<'_, V, K> {
    /// The slot being split.
    pub fn src(&self) -> usize {
        self.src
    }

    /// The child slots the commit will install.
    pub fn children(&self) -> &[usize] {
        &self.child_slots
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
pub struct DurableSharded<V: ValueCodec + Clone + Send + Sync, const K: usize> {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    config: DurableConfig,
    state: Swap<DurInner<V, K>>,
    /// Global write counter pair for the snapshot consistent-cut
    /// protocol (see [`crate::snapshot`]).
    clock: WriteClock,
    /// Serialises splits; the guarded value is the manifest write
    /// counter (`gen`), owned by whoever holds the gate.
    split_gate: Mutex<u64>,
    backlog_cap: AtomicUsize,
    recovery: Vec<RecoveryStats>,
    rolled_back: bool,
    reb_metrics: RebalanceMetrics,
    swap_metrics: SwapMetrics,
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
        Self::open_observed_impl(
            vfs,
            dir,
            shards,
            config,
            RebalanceMetrics::disabled(),
            SwapMetrics::disabled(),
        )
    }

    /// [`DurableSharded::open_with`] wired to record rebalance
    /// transitions into `registry` (`phshard_rebalance_*`,
    /// `phshard_routing_epoch`, `phshard_migration_inflight`).
    pub fn open_observed(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        shards: usize,
        config: DurableConfig,
        registry: &Registry,
    ) -> Result<Self, StoreError> {
        Self::open_observed_impl(
            vfs,
            dir,
            shards,
            config,
            RebalanceMetrics::new(registry),
            SwapMetrics::new(registry),
        )
    }

    fn open_observed_impl(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        shards: usize,
        config: DurableConfig,
        reb_metrics: RebalanceMetrics,
        swap_metrics: SwapMetrics,
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
        let mut opened: Vec<Option<Result<Durable<V, K>, StoreError>>> =
            (0..live.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(live.len());
            for &slot in &live {
                let vfs = Arc::clone(&vfs);
                let config = config.clone();
                let d = shard_dir(dir, slot);
                handles.push(scope.spawn(move || Durable::open_with(vfs, &d, config)));
            }
            for (out, h) in opened.iter_mut().zip(handles) {
                *out = Some(h.join().expect("shard recovery thread panicked"));
            }
        });
        let mut cells: Vec<Option<Arc<DurCell<V, K>>>> =
            (0..manifest.map.slot_bound()).map(|_| None).collect();
        let mut recovery = Vec::with_capacity(live.len());
        for (&slot, r) in live.iter().zip(opened.into_iter().flatten()) {
            let d = r?;
            recovery.push(d.recovery_stats());
            cells[slot] = Some(DurCell::fresh(d));
        }
        reb_metrics.routing_epoch.set(manifest.map.epoch() as i64);
        Ok(DurableSharded {
            vfs,
            dir: dir.to_path_buf(),
            config,
            state: Swap::new(Arc::new(DurInner {
                map: Arc::new(manifest.map),
                cells,
            })),
            clock: WriteClock::new(),
            split_gate: Mutex::new(manifest.gen),
            backlog_cap: AtomicUsize::new(DEFAULT_BACKLOG_CAP),
            recovery,
            rolled_back,
            reb_metrics,
            swap_metrics,
        })
    }

    fn load_state(&self) -> Arc<DurInner<V, K>> {
        self.state.load()
    }

    /// Base directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of live shards.
    pub fn shards(&self) -> usize {
        self.load_state().map.shards()
    }

    /// The current routing snapshot (slot ids, shard boxes, query
    /// pruning). Splits installed later do not mutate it — re-call to
    /// observe the new epoch.
    pub fn router(&self) -> Arc<ShardMap<K>> {
        Arc::clone(&self.load_state().map)
    }

    /// Current routing epoch (0 until the first committed split).
    pub fn epoch(&self) -> u64 {
        self.load_state().map.epoch()
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

    /// Routes `key` to its live cell and runs `f` under the cell's
    /// state lock, re-routing if a split commit retired the cell while
    /// we waited (the retired-cell retry loop). When `f` succeeds, the
    /// store's new tree version is published (inside a write-clock
    /// bracket) before the lock releases, so lock-free readers see the
    /// write the moment it is acknowledged; a failed write (shed or
    /// store error) publishes nothing.
    fn with_cell_write<R>(
        &self,
        key: &[u64; K],
        f: impl FnOnce(usize, &mut DurCellState<V, K>) -> Result<R, ShardError>,
    ) -> Result<R, ShardError> {
        let mut f = Some(f);
        loop {
            let inner = self.load_state();
            let slot = inner.map.route(key);
            let cell = inner.cells[slot]
                .as_ref()
                .expect("routing map addressed a missing cell");
            let mut guard = cell.state.lock();
            if cell.retired.load(Ordering::SeqCst) {
                continue;
            }
            let out = (f.take().expect("write retried after completion"))(slot, &mut guard);
            if out.is_ok() {
                self.clock
                    .bracket(|| cell.publish(&guard, &self.swap_metrics));
            }
            return out;
        }
    }

    /// Inserts `key` → `value`: journaled on the owning shard's WAL
    /// before being applied, under that shard's write lock. If the
    /// shard is mid-migration the op is also queued on the bounded
    /// backlog for replay onto the children; a full backlog sheds the
    /// write with [`ShardError::Overloaded`] *before* journaling, so a
    /// shed write is neither durable nor applied — safe to retry.
    pub fn insert(&self, key: [u64; K], value: V) -> Result<Option<V>, ShardError> {
        self.with_cell_write(&key, |slot, cs| {
            if let Some(b) = cs.backlog.as_ref() {
                if b.ops.len() >= b.cap {
                    self.reb_metrics.shed.inc();
                    return Err(ShardError::Overloaded {
                        slot,
                        backlog: b.cap,
                    });
                }
            }
            let queued = cs.backlog.is_some().then(|| value.clone());
            let prev = cs.store.insert(key, value)?;
            if let Some(value) = queued {
                cs.backlog
                    .as_mut()
                    .expect("backlog vanished under the cell lock")
                    .ops
                    .push(Op::Insert { key, value });
            }
            Ok(prev)
        })
    }

    /// Removes `key`, journaled (and backlogged / shed) like
    /// [`DurableSharded::insert`].
    pub fn remove(&self, key: &[u64; K]) -> Result<Option<V>, ShardError> {
        self.with_cell_write(key, |slot, cs| {
            if let Some(b) = cs.backlog.as_ref() {
                if b.ops.len() >= b.cap {
                    self.reb_metrics.shed.inc();
                    return Err(ShardError::Overloaded {
                        slot,
                        backlog: b.cap,
                    });
                }
            }
            let prev = cs.store.remove(key)?;
            if let Some(b) = cs.backlog.as_mut() {
                b.ops.push(Op::Remove { key: *key });
            }
            Ok(prev)
        })
    }

    /// Applies `f` to the value at `key` in the current published
    /// version — zero-copy, zero-lock, never blocked by writers.
    /// During a migration this still reads the (fully current) source
    /// shard — reads never degrade.
    pub fn get_with<R>(&self, key: &[u64; K], f: impl FnOnce(&V) -> R) -> Option<R> {
        loop {
            let inner = self.load_state();
            let slot = inner.map.route(key);
            let cell = inner.cells[slot]
                .as_ref()
                .expect("routing map addressed a missing cell");
            let published = cell.published.load();
            if !cell.retired.load(Ordering::SeqCst) {
                self.swap_metrics.note_root_age(&published.stamp);
                return published.tree.get(key).map(f);
            }
            // A split commit retired this cell; its successor state
            // installs within the same clock bracket.
            std::hint::spin_loop();
        }
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
        // Optimistic: collect between two quiet observations of the
        // write clock; never blocks writers.
        for _ in 0..SNAPSHOT_SPIN {
            let Some(begun) = self.clock.stable() else {
                std::hint::spin_loop();
                continue;
            };
            let inner = self.load_state();
            let roots: Vec<Option<Arc<Published<V, K>>>> = inner
                .cells
                .iter()
                .map(|c| c.as_ref().map(|c| c.published.load()))
                .collect();
            if self.clock.begun() == begun {
                return Snapshot::new(Arc::clone(&inner.map), roots, self.swap_metrics.clone());
            }
        }
        // Sustained write pressure: freeze the cut under every live
        // cell's state lock, in ascending slot order — the order of
        // apply_run's multi-acquisition, so no deadlock. (`live_slots`
        // is in Z-order, which stops being slot order at the first
        // split.)
        'retry: loop {
            let inner = self.load_state();
            let mut live = inner.map.live_slots();
            live.sort_unstable();
            let mut guards = Vec::with_capacity(live.len());
            for &s in &live {
                let cell = inner.cells[s].as_ref().expect("live slot without a cell");
                let guard = cell.state.lock();
                if cell.retired.load(Ordering::SeqCst) {
                    continue 'retry;
                }
                guards.push(guard);
            }
            let roots: Vec<Option<Arc<Published<V, K>>>> = inner
                .cells
                .iter()
                .map(|c| c.as_ref().map(|c| c.published.load()))
                .collect();
            return Snapshot::new(Arc::clone(&inner.map), roots, self.swap_metrics.clone());
        }
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
        'retry: loop {
            let inner = self.load_state();
            let bound = inner.map.slot_bound();
            let route: Vec<usize> = ops.iter().map(|op| inner.map.route(op.key())).collect();
            let mut involved = vec![false; bound];
            route.iter().for_each(|&slot| involved[slot] = true);
            let slots: Vec<usize> = (0..bound).filter(|&slot| involved[slot]).collect();
            // Lock every involved cell, ascending slot order (every
            // other lock holder in this crate holds at most one cell
            // lock at a time or locks in the same ascending order, so
            // an ordered multi-acquisition cannot deadlock). A retired
            // cell means a split committed since the state load: drop
            // everything and re-route.
            let cells: Vec<&Arc<DurCell<V, K>>> = slots
                .iter()
                .map(|&s| inner.cells[s].as_ref().expect("live slot without a cell"))
                .collect();
            let mut guards = Vec::with_capacity(cells.len());
            for cell in &cells {
                let guard = cell.state.lock();
                if cell.retired.load(Ordering::SeqCst) {
                    continue 'retry;
                }
                guards.push(guard);
            }
            // Partition by slot, in run order.
            let mut parts: Vec<Vec<Op<V, K>>> = (0..bound).map(|_| Vec::new()).collect();
            for (op, &slot) in ops.into_iter().zip(&route) {
                parts[slot].push(op);
            }
            // Admission: every partition must fit its armed backlog
            // before anything is journaled — all-or-nothing shedding
            // (and nothing published: the trees never changed).
            for (&slot, cs) in slots.iter().zip(guards.iter()) {
                if let Some(b) = cs.backlog.as_ref() {
                    if b.ops.len() + parts[slot].len() > b.cap {
                        self.reb_metrics.shed.add(route.len() as u64);
                        return Err(ShardError::Overloaded {
                            slot,
                            backlog: b.cap,
                        });
                    }
                }
            }
            let mut prevs: Vec<_> = (0..bound).map(|_| Vec::new().into_iter()).collect();
            let mut failure = None;
            for (&slot, cs) in slots.iter().zip(guards.iter_mut()) {
                let part = std::mem::take(&mut parts[slot]);
                let queued = cs.backlog.is_some().then(|| part.clone());
                match cs.store.apply_batch(part) {
                    Ok(p) => prevs[slot] = p.into_iter(),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
                if let Some(queued) = queued {
                    cs.backlog
                        .as_mut()
                        .expect("backlog vanished under the cell lock")
                        .ops
                        .extend(queued);
                }
            }
            // One bracket covering every involved cell: readers and
            // snapshots see the run land atomically. On failure this
            // publishes the applied (journaled, durable) partitions.
            self.clock.bracket(|| {
                for (cell, cs) in cells.iter().zip(guards.iter()) {
                    cell.publish(cs, &self.swap_metrics);
                }
            });
            return match failure {
                Some(e) => Err(e.into()),
                None => Ok(route
                    .iter()
                    .map(|&slot| prevs[slot].next().expect("one result per op"))
                    .collect()),
            };
        }
    }

    /// Bulk-inserts `items` as one [`DurableSharded::apply_run`] (same
    /// admission, durability and publication contract). Returns the
    /// number of *new* keys (duplicates overwrite, last write wins).
    pub fn bulk_load(&self, items: Vec<([u64; K], V)>) -> Result<usize, ShardError> {
        let ops = items
            .into_iter()
            .map(|(key, value)| Op::Insert { key, value })
            .collect();
        Ok(self.apply_run(ops)?.iter().filter(|p| p.is_none()).count())
    }

    /// Per-shard statistics (slot ids, entry counts, epoch) shaped
    /// like [`crate::ShardStats`] minus the in-memory-only counters —
    /// this is what the rebalancer's skew watch reads. Served from one
    /// consistent [`Snapshot`], lock-free.
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
        let inner = self.load_state();
        let live = inner.map.live_slots();
        let mut gens: Vec<Option<Result<u64, StoreError>>> =
            (0..live.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(live.len());
            for &slot in &live {
                let cell = Arc::clone(inner.cells[slot].as_ref().expect("live slot"));
                handles.push(scope.spawn(move || cell.state.lock().store.checkpoint()));
            }
            for (out, h) in gens.iter_mut().zip(handles) {
                *out = Some(h.join().expect("checkpoint thread panicked"));
            }
        });
        let mut out = Vec::with_capacity(live.len());
        for (&slot, r) in live.iter().zip(gens.into_iter().flatten()) {
            match r {
                Ok(g) => out.push((slot, g)),
                Err(source) => return Err(ShardError::Checkpoint { slot, source }),
            }
        }
        Ok(out)
    }

    /// Durability barrier on every live shard's WAL.
    pub fn sync_all(&self) -> Result<(), StoreError> {
        let inner = self.load_state();
        for s in inner.map.live_slots() {
            inner.cells[s]
                .as_ref()
                .expect("live slot without a cell")
                .state
                .lock()
                .store
                .sync()?;
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
        let mut gate = self.split_gate.lock().unwrap();
        let inner = self.load_state();
        let cell = inner
            .cells
            .get(slot)
            .and_then(|c| c.as_ref())
            .filter(|c| !c.retired.load(Ordering::SeqCst))
            .cloned()
            .ok_or(ShardError::UnknownSlot { slot })
            .inspect_err(|_| self.reb_metrics.split_failures.inc())?;
        let (map2, child_slots) = inner
            .map
            .split(slot, bits)
            .inspect_err(|_| self.reb_metrics.split_failures.inc())?;

        // Phase 1 — prepare: persist the migration record before any
        // child bytes exist, so every later crash finds the record and
        // knows what to scrub.
        *gate += 1;
        let prepared = Manifest {
            map: (*inner.map).clone(),
            gen: *gate,
            migration: Some(MigrationRecord {
                src: slot as u32,
                bits,
                children: child_slots.iter().map(|&c| c as u32).collect(),
            }),
        };
        if let Err(e) = write_manifest(self.vfs.as_ref(), &self.dir, &prepared) {
            self.reb_metrics.split_failures.inc();
            return Err(e.into());
        }
        self.reb_metrics.migration_inflight.add(1);

        // Freeze point: under the cell's state lock, snapshot the tree
        // and arm the backlog. Every write ordered after this lock
        // release lands in the backlog (or sheds); everything before
        // is in the snapshot. The lock is held only for the O(1)
        // structural clone (versions share nodes copy-on-write), not
        // the rebuild.
        let snap = {
            let mut cs = cell.state.lock();
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
        let base = child_slots[0];
        let mut parts: Vec<Vec<([u64; K], V)>> =
            (0..child_slots.len()).map(|_| Vec::new()).collect();
        for (k, v) in snap.iter() {
            parts[map2.route(&k) - base].push((k, v.clone()));
        }
        drop(snap);
        let mut children = Vec::with_capacity(child_slots.len());
        for (i, part) in parts.into_iter().enumerate() {
            let d = shard_dir(&self.dir, base + i);
            match Durable::create_with_tree(
                Arc::clone(&self.vfs),
                &d,
                PhTree::bulk_load(part),
                self.config.clone(),
            ) {
                Ok(c) => children.push(c),
                Err(e) => {
                    // Build failed: roll back in place (same steps
                    // recovery would take) and disarm the backlog.
                    self.rollback_in_place(&cell, &child_slots, &inner.map, &mut gate);
                    self.reb_metrics.split_failures.inc();
                    return Err(e.into());
                }
            }
        }
        Ok(PendingSplit {
            _gate: gate,
            src: slot,
            map2,
            child_slots,
            children,
            migrated,
        })
    }

    /// Phase 3 of a split: under the source's write lock, drains the
    /// backlog into the children's WALs, syncs them, then atomically
    /// rewrites the manifest with the successor map — the commit point
    /// — and installs the new routing epoch. On any error before the
    /// manifest rename the split rolls back in place (children
    /// scrubbed, backlog disarmed, record cleared); acknowledged
    /// writes are in the source's WAL either way.
    pub fn commit_split(&self, pending: PendingSplit<'_, V, K>) -> Result<SplitReport, ShardError> {
        let PendingSplit {
            mut _gate,
            src,
            map2,
            child_slots,
            mut children,
            migrated,
        } = pending;
        let inner = self.load_state();
        let cell = Arc::clone(inner.cells[src].as_ref().expect("pending split src cell"));
        let mut cs = cell.state.lock();
        let backlog = cs
            .backlog
            .take()
            .expect("pending split lost its backlog")
            .ops;
        let drained = backlog.len();
        let base = child_slots[0];
        let drain = || -> Result<(), StoreError> {
            for op in backlog {
                match op {
                    Op::Insert { key, value } => {
                        children[map2.route(&key) - base].insert(key, value)?;
                    }
                    Op::Remove { key } => {
                        children[map2.route(&key) - base].remove(&key)?;
                    }
                }
            }
            if !self.config.sync_writes {
                for c in children.iter_mut() {
                    c.sync()?;
                }
            }
            Ok(())
        };
        if let Err(e) = drain() {
            drop(cs);
            self.rollback_in_place(&cell, &child_slots, &inner.map, &mut _gate);
            self.reb_metrics.split_failures.inc();
            return Err(e.into());
        }

        // Commit point: one atomic rename flips recovery from
        // "roll back to source" to "serve from children".
        *_gate += 1;
        let committed = Manifest {
            map: map2.clone(),
            gen: *_gate,
            migration: None,
        };
        if let Err(e) = write_manifest(self.vfs.as_ref(), &self.dir, &committed) {
            drop(cs);
            self.rollback_in_place(&cell, &child_slots, &inner.map, &mut _gate);
            self.reb_metrics.split_failures.inc();
            return Err(e.into());
        }

        // Install the new epoch while still holding the source's state
        // lock. The retire flag flips *before* the successor state
        // installs, both inside one write-clock bracket: a lock-free
        // reader that loaded the old state either sees retired=false —
        // in which case the source's published root is still complete
        // for its region — or sees retired=true and re-routes onto the
        // successor; and a snapshot can never cut between the two.
        // Each child's initial publication counts as a root swap.
        let epoch = map2.epoch();
        let mut cells = inner.cells.clone();
        cells.resize(map2.slot_bound(), None);
        cells[src] = None;
        for (i, child) in children.into_iter().enumerate() {
            cells[base + i] = Some(DurCell::fresh(child));
            self.swap_metrics.root_swaps.inc();
        }
        self.clock.bracket(|| {
            cell.retired.store(true, Ordering::SeqCst);
            self.state.store(Arc::new(DurInner {
                map: Arc::new(map2),
                cells,
            }));
        });
        drop(cs);

        // The source directory is now unreferenced; scrub best-effort
        // (a crash here just leaves garbage bytes).
        scrub_shard_dir(self.vfs.as_ref(), &shard_dir(&self.dir, src));

        self.reb_metrics.migration_inflight.add(-1);
        self.reb_metrics.splits.inc();
        self.reb_metrics.migrated_entries.add(migrated as u64);
        self.reb_metrics.backlog_drained.add(drained as u64);
        self.reb_metrics.routing_epoch.set(epoch as i64);
        Ok(SplitReport {
            src,
            children: child_slots,
            migrated,
            backlog_drained: drained,
            epoch,
        })
    }

    /// Abandons a prepared split: scrubs the children, disarms the
    /// backlog, clears the manifest record. The store is back in the
    /// pre-migration state with every acknowledged write intact.
    pub fn abort_split(&self, pending: PendingSplit<'_, V, K>) -> Result<(), ShardError> {
        let PendingSplit {
            mut _gate,
            src,
            child_slots,
            children,
            ..
        } = pending;
        drop(children);
        let inner = self.load_state();
        let cell = Arc::clone(inner.cells[src].as_ref().expect("pending split src cell"));
        self.rollback_in_place(&cell, &child_slots, &inner.map, &mut _gate);
        Ok(())
    }

    /// Shared rollback: scrub child files, clear the migration record
    /// (best-effort — recovery redoes both if the VFS is already
    /// dead), disarm the backlog. Ordering matters: files first, then
    /// the record, so a crash between the two re-runs the scrub.
    fn rollback_in_place(
        &self,
        cell: &Arc<DurCell<V, K>>,
        child_slots: &[usize],
        old_map: &ShardMap<K>,
        gate: &mut u64,
    ) {
        for &c in child_slots {
            scrub_shard_dir(self.vfs.as_ref(), &shard_dir(&self.dir, c));
        }
        *gate += 1;
        let _ = write_manifest(
            self.vfs.as_ref(),
            &self.dir,
            &Manifest {
                map: old_map.clone(),
                gen: *gate,
                migration: None,
            },
        );
        cell.state.lock().backlog = None;
        self.reb_metrics.migration_inflight.add(-1);
    }
}
