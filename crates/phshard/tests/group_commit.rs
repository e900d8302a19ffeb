//! The multi-cell write path ([`DurableSharded::apply_run`]) over the
//! one log: what a run and a checkpoint cost in I/O calls (counted, not
//! timed), what a shed run leaves behind (nothing), what order ops on
//! one key take inside a run, and how a checkpoint waits for a split.

use phshard::{DurableSharded, ShardError};
use phstore::vfs::{FaultConfig, FaultVfs, MemVfs};
use phstore::DurableConfig;
use phtree::Op;
use std::path::Path;
use std::sync::Arc;

type Store = DurableSharded<u32, 2>;

/// A store on a fresh in-memory disk behind a probe that counts the
/// writes, syncs and bytes going to the log.
fn open(shards: usize) -> (Store, FaultVfs, MemVfs) {
    let mem = MemVfs::new();
    let probe = FaultVfs::new(
        Arc::new(mem.clone()),
        FaultConfig {
            target: Some("wal.log".into()),
            ..Default::default()
        },
    );
    let store = reopen(Arc::new(probe.clone()), shards);
    (store, probe, mem)
}

fn reopen(vfs: Arc<dyn phstore::vfs::Vfs>, shards: usize) -> Store {
    let config = DurableConfig {
        checkpoint_bytes: u64::MAX,
        ..DurableConfig::default()
    };
    DurableSharded::open_with(vfs, Path::new("/db"), shards, config).unwrap()
}

/// A key in uniform shard `slot` of 8 (the top Z-bits: two of
/// dimension 0 interleaved with one of dimension 1).
fn key_in(slot: u64, i: u64) -> [u64; 2] {
    let (x1, y1, x2) = (slot >> 2 & 1, slot >> 1 & 1, slot & 1);
    [x1 << 63 | x2 << 62 | i, y1 << 63 | i]
}

#[test]
fn a_run_costs_one_write_and_one_sync_per_run() {
    let (store, probe, _mem) = open(8);
    for slot in 0..8 {
        assert_eq!(store.router().route(&key_in(slot, 5)), slot as usize);
    }
    // 64 ops, mixed, over all 8 shards: one log, one write, one sync.
    let run: Vec<Op<u32, 2>> = (0..64u64)
        .map(|i| match i % 4 {
            3 => Op::Remove {
                key: key_in(i % 8, i - 3),
            },
            _ => Op::Insert {
                key: key_in(i % 8, i),
                value: i as u32,
            },
        })
        .collect();
    let (writes, syncs) = (probe.writes(), probe.syncs());
    store.apply_run(run).unwrap();
    assert_eq!(probe.writes() - writes, 1, "one WAL write per run");
    assert_eq!(probe.syncs() - syncs, 1, "one WAL sync per run");

    // A run confined to three shards costs the same.
    let run: Vec<Op<u32, 2>> = (0..30u64)
        .map(|i| Op::Insert {
            key: key_in([1, 4, 6][i as usize % 3], 1000 + i),
            value: 0,
        })
        .collect();
    let (writes, syncs) = (probe.writes(), probe.syncs());
    store.apply_run(run).unwrap();
    assert_eq!(probe.writes() - writes, 1);
    assert_eq!(probe.syncs() - syncs, 1);

    // Single ops are what they were: a write and a sync each.
    let (writes, syncs) = (probe.writes(), probe.syncs());
    store.insert(key_in(2, 77), 1).unwrap();
    store.remove(&key_in(2, 77)).unwrap();
    assert_eq!(probe.writes() - writes, 2);
    assert_eq!(probe.syncs() - syncs, 2);
}

/// A store-wide checkpoint of S shards: one snapshot per shard (its
/// pages, one sync), then one fresh log (header write, one sync).
#[test]
fn a_checkpoint_costs_one_sync_per_shard_and_one_for_the_log() {
    let mem = MemVfs::new();
    let probe = FaultVfs::new(Arc::new(mem), FaultConfig::default());
    let store = reopen(Arc::new(probe.clone()), 8);
    let run = (0..64u64).map(|i| (key_in(i % 8, i), i as u32));
    store.bulk_load(run.collect()).unwrap();
    let syncs = probe.syncs();
    let gens = store.checkpoint_all().unwrap();
    assert_eq!(gens, (0..8).map(|slot| (slot, 1)).collect::<Vec<_>>());
    assert_eq!(probe.syncs() - syncs, 8 + 1);
}

#[test]
fn a_run_shed_by_a_migration_backlog_journals_and_applies_nothing() {
    let (store, probe, mem) = open(2);
    let low = |i: u64| [i, i]; // slot 0
    let high = |i: u64| [1 << 63 | i, i]; // slot 1
    for i in 0..20 {
        store.insert(low(i), i as u32).unwrap();
    }
    store.set_backlog_capacity(4);
    let pending = store.begin_split(0, 1).unwrap();

    // Five ops for the migrating slot overflow its backlog of four:
    // the whole run sheds, its slot-1 ops included.
    let mut run: Vec<Op<u32, 2>> = (100..105)
        .map(|i| Op::Insert {
            key: low(i),
            value: 1,
        })
        .collect();
    run.push(Op::Insert {
        key: high(7),
        value: 1,
    });
    run.push(Op::Remove { key: low(3) });
    let journaled = probe.bytes_written();
    let err = store.apply_run(run).expect_err("must shed");
    assert!(
        matches!(
            err,
            ShardError::Overloaded {
                slot: 0,
                backlog: 4
            }
        ),
        "got {err}"
    );
    assert_eq!(probe.bytes_written(), journaled, "nothing journaled");
    assert_eq!(store.len(), 20, "nothing applied");
    assert_eq!(store.get_with(&high(7), |v| *v), None);
    assert_eq!(store.get_with(&low(3), |v| *v), Some(3));

    // A run that fits is admitted, backlogged and drained at commit.
    let run = vec![
        Op::Insert {
            key: low(100),
            value: 5,
        },
        Op::Remove { key: low(3) },
        Op::Insert {
            key: high(7),
            value: 6,
        },
    ];
    assert_eq!(store.apply_run(run).unwrap(), [None, Some(3), None]);
    let report = store.commit_split(pending).unwrap();
    assert_eq!(report.backlog_drained, 2);
    drop(store);
    let store = reopen(Arc::new(mem), 2);
    assert_eq!(store.len(), 21);
    assert_eq!(store.get_with(&low(100), |v| *v), Some(5));
    assert_eq!(store.get_with(&low(3), |v| *v), None);
    assert_eq!(store.get_with(&high(7), |v| *v), Some(6));
}

#[test]
fn ops_on_one_key_apply_in_run_order() {
    let (store, _probe, mem) = open(4);
    let (k, j) = ([9, 9], [1 << 63 | 4, 4]);
    let run = vec![
        Op::Insert { key: k, value: 1 },
        Op::Insert { key: j, value: 9 },
        Op::Insert { key: k, value: 2 },
        Op::Remove { key: k },
        Op::Remove { key: j },
        Op::Insert { key: k, value: 3 },
        Op::Remove { key: j },
    ];
    let prevs = store.apply_run(run).unwrap();
    assert_eq!(
        prevs,
        [None, None, Some(1), Some(2), Some(9), None, None],
        "each op sees the run's earlier ops on its key"
    );
    assert_eq!(store.get_with(&k, |v| *v), Some(3));
    assert_eq!(store.get_with(&j, |v| *v), None);
    assert_eq!(store.apply_run(Vec::new()).unwrap(), []);
    // The log replays to the same state.
    drop(store);
    let store = reopen(Arc::new(mem), 4);
    assert_eq!(store.len(), 1);
    assert_eq!(store.get_with(&k, |v| *v), Some(3));
}

/// The log's generation, from its header.
fn log_generation(mem: &MemVfs) -> u64 {
    let header = mem.read_file(Path::new("/db/wal.log")).unwrap();
    u64::from_le_bytes(header[8..16].try_into().unwrap())
}

/// A write that crosses the automatic checkpoint threshold while a
/// split is pending must not wait for the split gate (its holder may be
/// the writing thread): the checkpoint defers, the log keeps growing
/// at its generation, and the commit runs the checkpoint.
#[test]
fn a_checkpoint_due_during_a_split_waits_for_its_commit() {
    let mem = MemVfs::new();
    let config = DurableConfig {
        checkpoint_bytes: 256, // the log checkpoints past 2 × 256 bytes
        ..DurableConfig::default()
    };
    let store: Store =
        DurableSharded::open_with(Arc::new(mem.clone()), Path::new("/db"), 2, config.clone())
            .unwrap();
    let low = |i: u64| [i, i];
    store.insert(low(0), 0).unwrap();
    let pending = store.begin_split(0, 1).unwrap();
    for i in 1..40 {
        store.insert(low(i), i as u32).unwrap(); // same thread as the split
    }
    let log_bytes = mem.read_file(Path::new("/db/wal.log")).unwrap().len();
    assert!(
        log_bytes > 1000,
        "the log passed the threshold: {log_bytes} B"
    );
    assert_eq!(log_generation(&mem), 0, "the checkpoint was deferred");

    let report = store.commit_split(pending).unwrap();
    assert_eq!(report.backlog_drained, 39);
    assert_eq!(log_generation(&mem), 1, "the commit ran the checkpoint");
    assert_eq!(mem.read_file(Path::new("/db/wal.log")).unwrap().len(), 24);
    drop(store);
    let store: Store =
        DurableSharded::open_with(Arc::new(mem), Path::new("/db"), 2, config).unwrap();
    assert_eq!(store.len(), 40);
    assert!(store
        .recovery_stats()
        .iter()
        .all(|r| r.generation == 1 && r.replayed_ops == 0));
}
