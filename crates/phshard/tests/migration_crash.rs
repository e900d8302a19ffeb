//! Crash-point sweeps over the store-wide protocols of the one log:
//! an **in-flight shard split** and **store-wide checkpoints**.
//!
//! Each sweep runs a deterministic script under a [`FaultVfs`] that
//! cuts the write stream at a given byte budget, then reopens the
//! surviving bytes fault-free and asserts the recovered store holds
//! **exactly** the model state after the acknowledged ops plus, of the
//! call that crashed, a journal-order frame prefix (a run journals its
//! partitions in ascending slot order with one write): no lost writes,
//! no duplicated or phantom keys, at every crash offset. Companion
//! tests kill the manifest renames and syncs, and upgrade the earlier
//! per-shard-log layout.
//!
//! By default the sweeps stride across the byte space so they stay
//! fast enough for PR CI; set `MIGRATION_SWEEP_FULL=1` to cut at
//! every byte (the nightly configuration).

use phshard::{DurableSharded, ShardError};
use phstore::vfs::{FaultConfig, FaultVfs, MemVfs, Vfs};
use phstore::{Durable, DurableConfig, StoreError};
use phtree::Op;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

type Key = [u64; 2];
type Model = BTreeMap<Key, u32>;

/// Ops 0..PRE run before `begin_split`, PRE..MID while the migration
/// is in flight (they journal to the log *and* queue on the backlog),
/// MID.. after `commit_split` (routed by the new epoch).
const PRE: usize = 12;
const MID: usize = 22;
const N_OPS: usize = 30;

fn config() -> DurableConfig {
    DurableConfig {
        checkpoint_bytes: u64::MAX, // no auto checkpoints: byte stream stays small
        sync_writes: true,
        retry: None,
    }
}

/// Deterministic workload, concentrated on slot 0 (dim-0 MSB clear) so
/// slot 0 is the hot shard, with a few slot-1 keys and removes mixed
/// in. Values are distinct so a stale overwrite is detectable.
fn workload() -> Vec<(bool, Key, u32)> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut ops = Vec::with_capacity(N_OPS);
    for i in 0..N_OPS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // 1 in 4 keys lands on slot 1; the rest heat up slot 0.
        let hi = if x.is_multiple_of(4) { 1u64 << 63 } else { 0 };
        let key = [hi | ((x >> 16) % 16), (x >> 40) % 16];
        // Removes only after enough inserts exist to hit something.
        let is_remove = i > 6 && x.is_multiple_of(5);
        ops.push((is_remove, key, i as u32));
    }
    ops
}

fn apply_model(model: &mut Model, op: &(bool, Key, u32)) {
    let (is_remove, key, value) = *op;
    if is_remove {
        model.remove(&key);
    } else {
        model.insert(key, value);
    }
}

/// `states[n]` = model after the first `n` ops.
fn model_states(ops: &[(bool, Key, u32)]) -> Vec<Model> {
    let mut states = vec![Model::new()];
    let mut model = Model::new();
    for op in ops {
        apply_model(&mut model, op);
        states.push(model.clone());
    }
    states
}

fn store_equals_model(store: &DurableSharded<u32, 2>, model: &Model) -> bool {
    store.len() == model.len()
        && model
            .iter()
            .all(|(k, &v)| store.get_with(k, |got| *got) == Some(v))
}

/// Ops per mid-migration run.
const RUN: usize = 5;

/// Runs the script on `store`, splitting slot 0 between phases; the
/// mid-migration ops go in as runs of [`RUN`]. Returns how many data
/// ops were acknowledged (split calls are not data ops — their effects
/// are content-neutral by construction) and how many were in the call
/// that failed, if one did.
fn run_script(store: &DurableSharded<u32, 2>, ops: &[(bool, Key, u32)]) -> (usize, usize) {
    let mut acked = 0usize;
    let do_op = |op: &(bool, Key, u32)| -> Result<(), ShardError> {
        let (is_remove, key, value) = *op;
        if is_remove {
            store.remove(&key)?;
        } else {
            store.insert(key, value)?;
        }
        Ok(())
    };
    for op in &ops[..PRE] {
        if do_op(op).is_err() {
            return (acked, 1);
        }
        acked += 1;
    }
    let pending = store.begin_split(0, 1).ok();
    for run in ops[PRE..MID].chunks(RUN) {
        let run_ops = run
            .iter()
            .map(|&(is_remove, key, value)| match is_remove {
                true => Op::Remove { key },
                false => Op::Insert { key, value },
            })
            .collect();
        if store.apply_run(run_ops).is_err() {
            // The VFS is dead; still drive the commit/rollback path so
            // the sweep covers its failure handling too.
            if let Some(p) = pending {
                let _ = store.commit_split(p);
            }
            return (acked, run.len());
        }
        acked += run.len();
    }
    if let Some(p) = pending {
        let _ = store.commit_split(p);
    }
    for op in &ops[MID..] {
        if do_op(op).is_err() {
            return (acked, 1);
        }
        acked += 1;
    }
    (acked, 0)
}

/// Whether `store` holds exactly the acknowledged ops plus what a
/// crashed call may have made durable before dying: a prefix of its
/// `in_flight` ops in journal order — stably sorted by `slot`, the
/// slot the call routed each key to — since a run's frames go out in
/// one write and a torn write keeps the frames before the tear.
fn landed(
    store: &DurableSharded<u32, 2>,
    ops: &[(bool, Key, u32)],
    states: &[Model],
    (acked, in_flight): (usize, usize),
    slot: impl Fn(&Key) -> usize,
) -> bool {
    let mut call: Vec<_> = ops[acked..(acked + in_flight).min(ops.len())]
        .iter()
        .collect();
    call.sort_by_key(|op| slot(&op.1));
    (0..=call.len()).any(|i| {
        let mut model = states[acked].clone();
        call[..i].iter().for_each(|op| apply_model(&mut model, op));
        store_equals_model(store, &model)
    })
}

/// The slot of the two initial shards: every call of the split script
/// that can crash mid-run routes on them.
fn two_shard_slot(key: &Key) -> usize {
    (key[0] >> 63) as usize
}

/// Fault-free reference run: asserts the script itself is sound and
/// measures the total byte stream (the sweep space).
fn reference_run() -> (Vec<Model>, u64) {
    let ops = workload();
    let states = model_states(&ops);
    let mem = MemVfs::new();
    let probe = FaultVfs::new(Arc::new(mem.clone()), FaultConfig::default());
    let store: DurableSharded<u32, 2> =
        DurableSharded::open_with(Arc::new(probe.clone()), Path::new("/db"), 2, config()).unwrap();
    let acked = run_script(&store, &ops);
    assert_eq!(acked, (ops.len(), 0), "reference run must ack everything");
    assert!(store.epoch() > 0, "reference run must commit the split");
    assert_eq!(store.shards(), 3, "slot 0 split into two children");
    assert!(store_equals_model(&store, &states[N_OPS]));
    drop(store);
    // And the post-split state must survive a plain reopen.
    let reopened: DurableSharded<u32, 2> =
        DurableSharded::open_with(Arc::new(mem), Path::new("/db"), 2, config()).unwrap();
    assert!(reopened.epoch() > 0);
    assert!(store_equals_model(&reopened, &states[N_OPS]));
    (states, probe.bytes_written())
}

/// Every crash offset in PR CI's strided form, or every byte.
fn sweep_stride(total_bytes: u64) -> u64 {
    let full = std::env::var("MIGRATION_SWEEP_FULL").is_ok_and(|v| v == "1");
    if full {
        1
    } else {
        (total_bytes / 192).max(1)
    }
}

/// THE sweep: cut the full write stream (log, snapshots, manifests —
/// everything) at byte offsets across the whole migration, recover,
/// and check the recovered contents are exactly a model state.
#[test]
fn migration_crash_sweep() {
    let (states, total_bytes) = reference_run();
    eprintln!("migration sweep space: {total_bytes} bytes");
    assert!(total_bytes > 2_000, "sweep space too small: {total_bytes}");
    let ops = workload();
    let stride = sweep_stride(total_bytes);

    let mut rolled_back = 0u32;
    let mut committed = 0u32;
    let mut budget = 0u64;
    while budget <= total_bytes {
        // -- Crash phase: run the script until the injected cut.
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultConfig {
                write_budget: Some(budget),
                ..Default::default()
            },
        );
        let (acked, in_flight) = match DurableSharded::<u32, 2>::open_with(
            Arc::new(faulty),
            Path::new("/db"),
            2,
            config(),
        ) {
            Err(_) => (0, 0), // crashed while creating the initial store
            Ok(store) => run_script(&store, &ops),
        };

        // -- Recovery phase: reopen the surviving bytes, fault-free.
        let store =
            DurableSharded::<u32, 2>::open_with(Arc::new(mem), Path::new("/db"), 2, config())
                .unwrap_or_else(|e| panic!("budget {budget}: recovery must not fail: {e}"));
        match store.epoch() {
            0 if acked >= PRE => rolled_back += 1,
            0 => {}
            _ => committed += 1,
        }
        // Deterministic landing: pre-migration state (rollback) or
        // post-migration state (commit), never in between — and in
        // both, exactly the acknowledged ops (plus what became durable
        // inside the crashing call). Never fewer: no lost acks. Never
        // other keys: no duplicated or phantom entries.
        assert!(
            landed(&store, &ops, &states, (acked, in_flight), two_shard_slot),
            "budget {budget}: recovered state diverged (acked {acked}, epoch {})",
            store.epoch()
        );
        budget += stride;
    }
    // The sweep must actually exercise both recovery outcomes.
    assert!(rolled_back > 0, "sweep never rolled a migration back");
    assert!(committed > 0, "sweep never recovered a committed split");
}

/// Kill the manifest *renames*: the store's creation and the split's
/// commit point each publish via one atomic rename. A failed rename
/// must leave the previous manifest fully in force.
#[test]
fn migration_rename_kill_lands_pre_or_post() {
    let ops = workload();
    let states = model_states(&ops);
    let mut crashes = 0u32;
    for rename_budget in 0..8u64 {
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultConfig {
                target: Some("phshard.meta".into()),
                rename_budget: Some(rename_budget),
                ..Default::default()
            },
        );
        let (acked, in_flight) = match DurableSharded::<u32, 2>::open_with(
            Arc::new(faulty.clone()),
            Path::new("/db"),
            2,
            config(),
        ) {
            Err(_) => (0, 0),
            Ok(store) => run_script(&store, &ops),
        };
        if faulty.crashed() {
            crashes += 1;
        }
        let store =
            DurableSharded::<u32, 2>::open_with(Arc::new(mem), Path::new("/db"), 2, config())
                .unwrap_or_else(|e| panic!("rename budget {rename_budget}: recovery failed: {e}"));
        assert!(
            landed(&store, &ops, &states, (acked, in_flight), two_shard_slot),
            "rename budget {rename_budget}: diverged (acked {acked})"
        );
    }
    assert!(crashes >= 2, "budgets never hit the manifest renames");
}

/// Kill manifest fsyncs: same deterministic landing guarantee.
#[test]
fn migration_sync_kill_lands_pre_or_post() {
    let ops = workload();
    let states = model_states(&ops);
    let mut crashes = 0u32;
    for sync_budget in 0..8u64 {
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultConfig {
                target: Some("phshard.meta".into()),
                sync_budget: Some(sync_budget),
                ..Default::default()
            },
        );
        let (acked, in_flight) = match DurableSharded::<u32, 2>::open_with(
            Arc::new(faulty.clone()),
            Path::new("/db"),
            2,
            config(),
        ) {
            Err(_) => (0, 0),
            Ok(store) => run_script(&store, &ops),
        };
        if faulty.crashed() {
            crashes += 1;
        }
        let store =
            DurableSharded::<u32, 2>::open_with(Arc::new(mem), Path::new("/db"), 2, config())
                .unwrap_or_else(|e| panic!("sync budget {sync_budget}: recovery failed: {e}"));
        assert!(
            landed(&store, &ops, &states, (acked, in_flight), two_shard_slot),
            "sync budget {sync_budget}: diverged (acked {acked})"
        );
    }
    assert!(crashes >= 2, "budgets never hit the manifest syncs");
}

/// Crash confined to the *children* being built: writes to
/// `shard-002`/`shard-003` are a re-derivable copy, so the split
/// rolls back in place and the store reopens the pre-split topology
/// with nothing lost.
#[test]
fn child_build_failure_aborts_split_in_place() {
    let ops = workload();
    let states = model_states(&ops);
    let mem = MemVfs::new();
    let faulty = FaultVfs::new(
        Arc::new(mem.clone()),
        FaultConfig {
            target: Some("shard-002".into()),
            write_budget: Some(64), // tear the first child's snapshot
            ..Default::default()
        },
    );
    let store: DurableSharded<u32, 2> =
        DurableSharded::open_with(Arc::new(faulty.clone()), Path::new("/db"), 2, config()).unwrap();
    for op in &ops[..PRE] {
        let (is_remove, key, value) = *op;
        if is_remove {
            store.remove(&key).unwrap();
        } else {
            store.insert(key, value).unwrap();
        }
    }
    let err = store.split_shard(0, 1).expect_err("child build must fail");
    assert!(matches!(err, ShardError::Store(_)), "got {err}");
    assert_eq!(store.epoch(), 0, "failed split must not commit");
    // NOTE: FaultVfs is globally dead after the fault, so further
    // *durable* ops fail — but nothing acknowledged was lost:
    drop(store);
    let store =
        DurableSharded::<u32, 2>::open_with(Arc::new(mem), Path::new("/db"), 2, config()).unwrap();
    assert_eq!(store.epoch(), 0);
    assert!(store_equals_model(&store, &states[PRE]));
}

/// A store-wide checkpoint torn at shard 1's snapshot reports a typed
/// [`ShardError::Checkpoint`], leaves the manifest untouched, and a
/// reopen — shard 0 at `g+1`, the rest and the log at `g` — recovers
/// every acknowledged write.
#[test]
fn checkpoint_failure_is_typed_and_recoverable() {
    // Size the budget to clear shard 1's initial empty snapshot but
    // tear the (larger) snapshot its checkpoint writes.
    let empty_snapshot_bytes = {
        let probe_mem = MemVfs::new();
        let probe = FaultVfs::new(
            Arc::new(probe_mem),
            FaultConfig {
                target: Some("shard-001/snapshot".into()),
                ..Default::default()
            },
        );
        let _store: DurableSharded<u32, 2> =
            DurableSharded::open_with(Arc::new(probe.clone()), Path::new("/db"), 4, config())
                .unwrap();
        probe.bytes_written()
    };
    let mem = MemVfs::new();
    let manifest_before = {
        let faulty = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultConfig {
                target: Some("shard-001/snapshot".into()),
                write_budget: Some(empty_snapshot_bytes + 16),
                ..Default::default()
            },
        );
        let store: DurableSharded<u32, 2> =
            DurableSharded::open_with(Arc::new(faulty), Path::new("/db"), 4, config()).unwrap();
        for i in 0..64u64 {
            store.insert([(i % 4) << 62 | i, i * 7], i as u32).unwrap();
        }
        let manifest_before = mem.read_file(Path::new("/db/phshard.meta")).unwrap();
        let err = store.checkpoint_all().expect_err("checkpoint must fail");
        assert!(matches!(err, ShardError::Checkpoint { .. }), "got {err}");
        manifest_before
    };
    // The routing manifest never moves on a checkpoint.
    assert_eq!(
        mem.read_file(Path::new("/db/phshard.meta")).unwrap(),
        manifest_before
    );
    // Every shard replays the whole log onto whichever generation its
    // snapshot reached.
    let store =
        DurableSharded::<u32, 2>::open_with(Arc::new(mem), Path::new("/db"), 4, config()).unwrap();
    assert_eq!(store.len(), 64);
    for i in 0..64u64 {
        assert_eq!(
            store.get_with(&[(i % 4) << 62 | i, i * 7], |v| *v),
            Some(i as u32)
        );
    }
}

/// A legacy `PHSHARD1` manifest (magic + u32 shard count) opens as the
/// uniform epoch-0 topology, and the first committed split upgrades it
/// to v2 on disk.
#[test]
fn legacy_manifest_reads_and_upgrades_on_split() {
    let mem = MemVfs::new();
    let mut legacy = Vec::new();
    legacy.extend_from_slice(b"PHSHARD1");
    legacy.extend_from_slice(&2u32.to_le_bytes());
    mem.write_file(Path::new("/db/phshard.meta"), legacy);
    let store: DurableSharded<u32, 2> =
        DurableSharded::open_with(Arc::new(mem.clone()), Path::new("/db"), 2, config()).unwrap();
    assert_eq!(store.epoch(), 0);
    assert_eq!(store.shards(), 2);
    for i in 0..32u64 {
        store.insert([i, i], i as u32).unwrap();
    }
    store.split_shard(0, 1).unwrap();
    drop(store);
    let manifest = mem.read_file(Path::new("/db/phshard.meta")).unwrap();
    assert_eq!(&manifest[..8], b"PHSHARD2");
    let store =
        DurableSharded::<u32, 2>::open_with(Arc::new(mem), Path::new("/db"), 2, config()).unwrap();
    assert!(store.epoch() > 0);
    assert_eq!(store.len(), 32);
}

/// The checkpoint sweep's shards, runs and threshold: 72 ops in runs of
/// six over four shards; `checkpoint_all` after the second run, and
/// one automatic checkpoint once the log passes 4 × 400 bytes
/// (about 48 frames later).
const CK_SHARDS: usize = 4;
const CK_RUN: usize = 6;
const CK_OPS: usize = 72;

fn ck_config() -> DurableConfig {
    DurableConfig {
        checkpoint_bytes: 400,
        ..config()
    }
}

/// Keys over all four shards (both top bits random), values distinct.
fn ck_workload() -> Vec<(bool, Key, u32)> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..CK_OPS)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = [
                ((x >> 33 & 1) << 63) | ((x >> 16) % 16),
                ((x >> 34 & 1) << 63) | ((x >> 40) % 16),
            ];
            (i > 6 && x.is_multiple_of(5), key, i as u32)
        })
        .collect()
}

/// Runs the checkpoint script: runs of [`CK_RUN`], `checkpoint_all`
/// after the second. Returns the acknowledged ops and the size of the
/// call that failed.
fn ck_script(store: &DurableSharded<u32, 2>, ops: &[(bool, Key, u32)]) -> (usize, usize) {
    let mut acked = 0;
    for (i, run) in ops.chunks(CK_RUN).enumerate() {
        if i == 2 && store.checkpoint_all().is_err() {
            return (acked, 0);
        }
        let run_ops = run.iter().map(|&(is_remove, key, value)| match is_remove {
            true => Op::Remove { key },
            false => Op::Insert { key, value },
        });
        if store.apply_run(run_ops.collect()).is_err() {
            return (acked, run.len());
        }
        acked += run.len();
    }
    (acked, 0)
}

fn ck_open(vfs: Arc<dyn Vfs>) -> Result<DurableSharded<u32, 2>, StoreError> {
    DurableSharded::open_with(vfs, Path::new("/db"), CK_SHARDS, ck_config())
}

/// Cut the write stream of two store-wide checkpoints — one manual, one
/// automatic, each four snapshots and a log rotation — at byte offsets
/// across the script. Torn checkpoints (some snapshots at `g+1`, the
/// log at `g`) must recover exactly like whole ones.
#[test]
fn checkpoint_crash_sweep() {
    let ops = ck_workload();
    let states = model_states(&ops);
    let mem = MemVfs::new();
    let probe = FaultVfs::new(Arc::new(mem.clone()), FaultConfig::default());
    let store = ck_open(Arc::new(probe.clone())).unwrap();
    assert_eq!(ck_script(&store, &ops), (CK_OPS, 0));
    drop(store);
    let store = ck_open(Arc::new(mem)).unwrap();
    let gens: Vec<u64> = store
        .recovery_stats()
        .iter()
        .map(|r| r.generation)
        .collect();
    assert_eq!(
        gens, [2; CK_SHARDS],
        "one manual and one automatic checkpoint"
    );
    assert!(store_equals_model(&store, &states[CK_OPS]));
    let total_bytes = probe.bytes_written();
    eprintln!("checkpoint sweep space: {total_bytes} bytes");

    let mut torn = 0u32;
    let mut budget = 0u64;
    while budget <= total_bytes {
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultConfig {
                write_budget: Some(budget),
                ..Default::default()
            },
        );
        let crashed = ck_open(Arc::new(faulty)).map(|store| ck_script(&store, &ops));
        let (acked, in_flight) = crashed.unwrap_or((0, 0));
        let store = ck_open(Arc::new(mem))
            .unwrap_or_else(|e| panic!("budget {budget}: recovery must not fail: {e}"));
        let gens = store.recovery_stats().iter().map(|r| r.generation);
        if gens.clone().min() != gens.max() {
            torn += 1;
        }
        let slot = |key: &Key| store.router().route(key);
        assert!(
            landed(&store, &ops, &states, (acked, in_flight), slot),
            "budget {budget}: recovered state diverged (acked {acked})"
        );
        budget += sweep_stride(total_bytes);
    }
    assert!(
        torn > 0,
        "sweep never cut a checkpoint between two snapshots"
    );
}

/// A store in the per-shard-log layout: a `phstore::Durable` per
/// shard directory — shard 1 checkpointed once, so the two sit at
/// different generations — under the 12-byte `PHSHARD1` manifest.
fn per_shard_fixture(mem: &MemVfs) -> Model {
    let mut manifest = b"PHSHARD1".to_vec();
    manifest.extend_from_slice(&2u32.to_le_bytes());
    mem.write_file(Path::new("/db/phshard.meta"), manifest);
    let mut model = Model::new();
    for slot in 0..2u64 {
        let dir = format!("/db/shard-00{slot}");
        let mut d: Durable<u32, 2> =
            Durable::open_with(Arc::new(mem.clone()), Path::new(&dir), config()).unwrap();
        for i in 0..20u64 {
            let key = [slot << 63 | i, i];
            d.insert(key, i as u32).unwrap();
            model.insert(key, i as u32);
            if slot == 1 && i == 9 {
                d.checkpoint().unwrap();
            }
        }
        d.remove(&[slot << 63 | 3, 3]).unwrap();
        model.remove(&[slot << 63 | 3, 3]);
    }
    model
}

/// The one-way upgrade: every acknowledged write of every per-shard
/// log survives, the store-wide log replaces them, and the result
/// reopens as an ordinary one-log store.
#[test]
fn per_shard_layout_upgrades_to_one_log() {
    let mem = MemVfs::new();
    let model = per_shard_fixture(&mem);
    let store =
        DurableSharded::<u32, 2>::open_with(Arc::new(mem.clone()), Path::new("/db"), 2, config())
            .unwrap();
    assert!(store_equals_model(&store, &model));
    let gens: Vec<u64> = store
        .recovery_stats()
        .iter()
        .map(|r| r.generation)
        .collect();
    assert_eq!(gens, [2, 2], "one past the newest per-shard generation");
    assert!(mem.exists(Path::new("/db/wal.log")));
    for slot in 0..2 {
        assert!(!mem.exists(Path::new(&format!("/db/shard-00{slot}/wal.log"))));
    }
    store.insert([100, 100], 7).unwrap();
    drop(store);
    let store =
        DurableSharded::<u32, 2>::open_with(Arc::new(mem), Path::new("/db"), 2, config()).unwrap();
    assert_eq!(store.len(), model.len() + 1);
    assert_eq!(store.recovery_stats()[0].replayed_ops, 1);
}

/// A per-shard-log store whose manifest still carries a split in
/// flight (a migration record, which only that layout wrote) is
/// refused with typed corruption, and left as it was.
#[test]
fn per_shard_layout_with_a_split_in_flight_is_refused() {
    let mem = MemVfs::new();
    let model = per_shard_fixture(&mem);
    // A PHSHARD2 manifest of two shards whose migration tag (the last
    // body byte) becomes a record: split slot 0 by one bit into 2, 3.
    let donor = MemVfs::new();
    drop(DurableSharded::<u32, 2>::open_with(
        Arc::new(donor.clone()),
        Path::new("/db"),
        2,
        config(),
    ));
    let bytes = donor.read_file(Path::new("/db/phshard.meta")).unwrap();
    let mut body = bytes[..bytes.len() - 9].to_vec();
    body.push(1);
    for field in [0u32, 1, 2, 2, 3] {
        body.extend_from_slice(&field.to_le_bytes());
    }
    body.extend_from_slice(&phstore::fnv1a(&body).to_le_bytes());
    mem.write_file(Path::new("/db/phshard.meta"), body);

    let refused =
        DurableSharded::<u32, 2>::open_with(Arc::new(mem.clone()), Path::new("/db"), 2, config());
    assert!(matches!(refused, Err(StoreError::Corrupt(_))));
    assert!(!mem.exists(Path::new("/db/wal.log")));
    let d: Durable<u32, 2> =
        Durable::open_with(Arc::new(mem), Path::new("/db/shard-001"), config()).unwrap();
    assert_eq!(d.len(), model.range([1u64 << 63, 0]..).count());
}
