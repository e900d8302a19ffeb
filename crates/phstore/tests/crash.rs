//! Deterministic crash-point sweep over the durability layer.
//!
//! The central test cuts the WAL write stream at **every byte offset**
//! of a 500+-op workload and replays recovery after each cut, asserting
//! the recovered tree is exactly a prefix of the acknowledged history
//! (never more than was written, never less than was acknowledged, and
//! always structurally valid). Companion tests kill the process inside
//! the checkpoint rotation (snapshot writes, the rename itself) and
//! flip bits in the log.
//!
//! The workload and the fault injector are fully deterministic, so a
//! failure here is a reproducible counterexample, not a flake.

use phstore::durable::{Durable, DurableConfig};
use phstore::vfs::{FaultConfig, FaultVfs, MemVfs, Vfs};
use phtree::Op;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

const N_OPS: usize = 520;
const CHECKPOINT_BYTES: u64 = 4096; // several rotations over the run

type Key = [u64; 2];
type Model = BTreeMap<Key, u32>;

/// The deterministic workload: inserts, overwrites and removes over a
/// smallish key universe (so overwrites/removes actually hit).
fn workload() -> Vec<(bool, Key, u32)> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut ops = Vec::with_capacity(N_OPS);
    for i in 0..N_OPS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = [(x >> 16) % 64, (x >> 40) % 64];
        let is_remove = x.is_multiple_of(5);
        ops.push((is_remove, key, i as u32));
    }
    ops
}

fn config() -> DurableConfig {
    DurableConfig {
        checkpoint_bytes: CHECKPOINT_BYTES,
        sync_writes: true,
        retry: None,
    }
}

fn apply_model(model: &mut Model, op: &(bool, Key, u32)) {
    let (is_remove, key, value) = *op;
    if is_remove {
        model.remove(&key);
    } else {
        model.insert(key, value);
    }
}

fn assert_tree_is_model(d: &Durable<u32, 2>, model: &Model, ctx: &str) {
    d.tree().check_invariants();
    assert_eq!(d.len(), model.len(), "{ctx}: size mismatch");
    for (k, &v) in d.iter() {
        assert_eq!(model.get(&k), Some(&v), "{ctx}: key {k:?}");
    }
}

fn tree_equals_model(d: &Durable<u32, 2>, model: &Model) -> bool {
    d.len() == model.len() && d.iter().all(|(k, &v)| model.get(&k) == Some(&v))
}

/// Model state after every prefix of the workload: `states[n]` is the
/// state after the first `n` ops.
fn model_states(ops: &[(bool, Key, u32)]) -> Vec<Model> {
    let mut states = vec![Model::new()];
    let mut model = Model::new();
    for op in ops {
        apply_model(&mut model, op);
        states.push(model.clone());
    }
    states
}

/// Issues `ops` to `d` in chunks of `batch` — single `insert`/`remove`
/// calls when `batch` is 1, one [`Durable::apply_batch`] per chunk
/// otherwise — until a call fails. Returns how many ops were
/// acknowledged and how many were in the call that failed.
fn drive(d: &mut Durable<u32, 2>, ops: &[(bool, Key, u32)], batch: usize) -> (usize, usize) {
    let mut acked = 0usize;
    for chunk in ops.chunks(batch) {
        let res = if batch == 1 {
            let (is_remove, key, value) = chunk[0];
            match is_remove {
                true => d.remove(&key).map(drop),
                false => d.insert(key, value).map(drop),
            }
        } else {
            let ops = chunk
                .iter()
                .map(|&(is_remove, key, value)| match is_remove {
                    true => Op::Remove { key },
                    false => Op::Insert { key, value },
                });
            d.apply_batch(ops.collect()).map(drop)
        };
        match res {
            Ok(()) => acked += chunk.len(),
            Err(_) => return (acked, chunk.len()),
        }
    }
    (acked, 0)
}

/// Cuts the WAL write stream at every `stride`-th byte offset of the
/// workload issued in chunks of `batch`, recovers, and checks prefix
/// consistency: the recovered tree is `states[n]` with every
/// acknowledged op included and at most the in-flight call's ops
/// beyond them — never a state that is not a prefix of the history.
fn sweep(batch: usize, stride: u64) {
    let ops = workload();
    let states = model_states(&ops);
    // Fault-free reference run: the op count at which each
    // generation's checkpoint completed (`cp[g]`, `cp[0]` = 0 — a
    // checkpoint fires inside the call that crosses the threshold and
    // snapshots the tree including that call's ops), and the total
    // bytes written to WAL files (the sweep space).
    let probe = FaultVfs::new(
        Arc::new(MemVfs::new()),
        FaultConfig {
            target: Some("wal".into()),
            ..Default::default()
        },
    );
    let mut d: Durable<u32, 2> =
        Durable::open_with(Arc::new(probe.clone()), Path::new("/db"), config()).unwrap();
    let mut cp = vec![0usize];
    for (i, chunk) in ops.chunks(batch).enumerate() {
        assert_eq!(drive(&mut d, chunk, batch), (chunk.len(), 0));
        cp.resize(d.generation() as usize + 1, i * batch + chunk.len());
    }
    assert!(
        d.generation() >= 3,
        "workload must span several checkpoints"
    );
    assert_tree_is_model(&d, &states[ops.len()], "reference run");
    let total_wal_bytes = probe.bytes_written();
    assert!(
        total_wal_bytes > 10_000,
        "sweep space too small: {total_wal_bytes}"
    );

    let mut partial = 0u32;
    for budget in (0..=total_wal_bytes).step_by(stride as usize) {
        // -- Crash phase: run the workload until the injected cut.
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultConfig {
                target: Some("wal".into()),
                write_budget: Some(budget),
                ..Default::default()
            },
        );
        let (acked, in_flight) =
            match Durable::<u32, 2>::open_with(Arc::new(faulty), Path::new("/db"), config()) {
                Err(_) => (0, 0), // crashed during initial WAL creation
                Ok(mut d) => drive(&mut d, &ops, batch),
            };

        // -- Recovery phase: reopen the surviving bytes, fault-free.
        let d = Durable::<u32, 2>::open_with(Arc::new(mem), Path::new("/db"), config())
            .unwrap_or_else(|e| panic!("budget {budget}: recovery must not fail: {e}"));
        let stats = d.recovery_stats();
        let g = stats.generation as usize;
        assert!(g < cp.len(), "budget {budget}: unseen generation {g}");
        let n = cp[g] + stats.replayed_ops;
        assert!(
            n >= acked,
            "budget {budget}: lost acknowledged ops (recovered {n}, acked {acked})"
        );
        assert!(
            n <= acked + in_flight,
            "budget {budget}: phantom ops (recovered {n}, acked {acked} + {in_flight} in flight)"
        );
        assert_tree_is_model(&d, &states[n], &format!("budget {budget}, n={n}"));
        partial += (n > acked && n < acked + in_flight) as u32;
    }
    assert!(
        batch == 1 || partial > 0,
        "no cut kept part of an in-flight batch"
    );
}

/// THE sweep: cut the WAL write stream at every single byte offset,
/// recover, and check prefix consistency.
#[test]
fn wal_crash_sweep_every_byte_offset() {
    sweep(1, 1);
}

/// The same sweep with the workload group-committed 7 ops to a WAL
/// write: a cut inside a batch keeps the frames before the tear, so
/// the recovered state may run ahead of the acknowledged one by up to
/// the batch — and is still a prefix. Strided unless
/// `MIGRATION_SWEEP_FULL=1` (the nightly CI configuration).
#[test]
fn wal_crash_sweep_batched() {
    let full = std::env::var("MIGRATION_SWEEP_FULL").is_ok_and(|v| v == "1");
    sweep(7, if full { 1 } else { 5 });
}

/// Kill the process mid-checkpoint: cut the *snapshot* write stream at
/// a stride of offsets. Recovery must fall back to the previous
/// generation's snapshot plus the still-intact WAL — losing nothing.
#[test]
fn checkpoint_kill_recovers_previous_generation() {
    let ops = workload();
    let states = model_states(&ops);
    let mut budgets_hit = 0u32;
    for i in 0..60 {
        let budget = 123 + i * 137; // stride across the snapshot stream
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultConfig {
                target: Some("snapshot".into()),
                write_budget: Some(budget),
                ..Default::default()
            },
        );
        let mut acked = 0usize;
        // The very first open writes the generation-0 snapshot, so tiny
        // budgets can crash before any op — that is part of the sweep.
        if let Ok(mut d) =
            Durable::<u32, 2>::open_with(Arc::new(faulty.clone()), Path::new("/db"), config())
        {
            for op in &ops {
                let (is_remove, key, value) = *op;
                let res = if is_remove {
                    d.remove(&key)
                } else {
                    d.insert(key, value)
                };
                if res.is_err() {
                    break;
                }
                acked += 1;
            }
        }
        if faulty.crashed() {
            budgets_hit += 1;
        }
        let d = Durable::<u32, 2>::open_with(Arc::new(mem), Path::new("/db"), config())
            .unwrap_or_else(|e| panic!("budget {budget}: recovery failed: {e}"));
        d.tree().check_invariants();
        // A snapshot crash interrupts a checkpoint; the WAL is unharmed,
        // so every acked op survives. The op that *triggered* the
        // crashing checkpoint was journaled before its error, so the
        // recovered state is the model at `acked` or `acked + 1` ops.
        let candidates = [acked, (acked + 1).min(ops.len())];
        assert!(
            candidates
                .iter()
                .any(|&n| tree_equals_model(&d, &states[n])),
            "budget {budget}: state diverged after snapshot crash (acked {acked})"
        );
    }
    assert!(budgets_hit > 10, "stride never hit the snapshot stream");
}

/// Kill the rename that publishes the new snapshot: the old complete
/// snapshot must survive and recovery must proceed from it.
#[test]
fn rename_kill_keeps_old_snapshot() {
    let ops = workload();
    let mem = MemVfs::new();
    // Allow the initial gen-0 snapshot rename, fail the first
    // checkpoint's rename.
    let faulty = FaultVfs::new(
        Arc::new(mem.clone()),
        FaultConfig {
            target: Some("snapshot".into()),
            rename_budget: Some(1),
            ..Default::default()
        },
    );
    let states = model_states(&ops);
    let mut d = Durable::<u32, 2>::open_with(Arc::new(faulty), Path::new("/db"), config()).unwrap();
    let mut crashed_at = None;
    for (n, op) in ops.iter().enumerate() {
        let (is_remove, key, value) = *op;
        let res = if is_remove {
            d.remove(&key)
        } else {
            d.insert(key, value)
        };
        if res.is_err() {
            crashed_at = Some(n);
            break;
        }
    }
    let crashed_at = crashed_at.expect("first checkpoint rename must fail");
    drop(d);
    let d = Durable::<u32, 2>::open_with(Arc::new(mem), Path::new("/db"), config()).unwrap();
    assert_eq!(
        d.generation(),
        0,
        "must recover from the surviving old snapshot"
    );
    // Journal-then-apply: the op whose checkpoint crashed was journaled
    // before the rename failed, so the full WAL replays `crashed_at + 1`
    // ops on top of the old (generation-0, empty) snapshot.
    assert_eq!(d.recovery_stats().replayed_ops, crashed_at + 1);
    assert_tree_is_model(&d, &states[crashed_at + 1], "after rename kill");
}

/// Bit rot inside the WAL: recovery truncates at the damaged frame,
/// keeps the clean prefix, and the store accepts new writes afterwards.
#[test]
fn bit_flip_in_wal_truncates_and_store_keeps_working() {
    let ops = workload();
    for flip_at_frac in [0.3f64, 0.6, 0.95] {
        let mem = MemVfs::new();
        let mut d = Durable::<u32, 2>::open_with(
            Arc::new(mem.clone()),
            Path::new("/db"),
            DurableConfig {
                checkpoint_bytes: u64::MAX, // keep everything in one log
                sync_writes: true,
                retry: None,
            },
        )
        .unwrap();
        let mut states = vec![Model::new()];
        let mut model = Model::new();
        for op in &ops {
            let (is_remove, key, value) = *op;
            if is_remove {
                d.remove(&key).unwrap();
            } else {
                d.insert(key, value).unwrap();
            }
            apply_model(&mut model, op);
            states.push(model.clone());
        }
        let wal_len = d.wal_bytes();
        drop(d);
        let flip_at = (wal_len as f64 * flip_at_frac) as u64;
        assert!(mem.corrupt(Path::new("/db/wal.log"), flip_at, 0x10));

        let mut d = Durable::<u32, 2>::open_with(Arc::new(mem.clone()), Path::new("/db"), config())
            .unwrap_or_else(|e| panic!("flip at {flip_at}: recovery failed: {e}"));
        let stats = d.recovery_stats();
        assert!(
            stats.truncated_bytes > 0,
            "flip at {flip_at}: nothing truncated"
        );
        let n = stats.replayed_ops;
        assert!(n < ops.len(), "flip at {flip_at}: scan must stop early");
        assert_tree_is_model(&d, &states[n], &format!("flip at {flip_at}"));

        // The store is live again: append past the healed tail.
        d.insert([1000, 1000], 424242).unwrap();
        drop(d);
        let d = Durable::<u32, 2>::open_with(Arc::new(mem), Path::new("/db"), config()).unwrap();
        assert_eq!(d.get(&[1000, 1000]), Some(&424242));
        d.tree().check_invariants();
    }
}

/// Total loss of the WAL file (deleted, not torn): the snapshot alone
/// must still open, at its checkpointed state.
#[test]
fn missing_wal_recovers_snapshot_state() {
    let ops = workload();
    let mem = MemVfs::new();
    let mut d =
        Durable::<u32, 2>::open_with(Arc::new(mem.clone()), Path::new("/db"), config()).unwrap();
    for op in &ops {
        let (is_remove, key, value) = *op;
        if is_remove {
            d.remove(&key).unwrap();
        } else {
            d.insert(key, value).unwrap();
        }
    }
    let generation = d.generation();
    drop(d);
    mem.remove_file(Path::new("/db/wal.log")).unwrap();
    let d = Durable::<u32, 2>::open_with(Arc::new(mem), Path::new("/db"), config()).unwrap();
    assert_eq!(d.generation(), generation);
    assert_eq!(d.recovery_stats().replayed_ops, 0);
    d.tree().check_invariants();
}
