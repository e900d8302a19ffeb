//! Differential property tests for [`phstore::Durable`]: random
//! workloads run through the durable store must behave exactly like an
//! in-memory [`phtree::PhTree`] and a [`BTreeMap`] model — across
//! reopens, forced checkpoints, and randomly placed crashes.

use phstore::durable::{Durable, DurableConfig};
use phstore::vfs::{FaultConfig, FaultVfs, MemVfs};
use phtree::PhTree;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

type RawOp = (u8, u64, u64, u32);

fn op_strategy() -> impl Strategy<Value = Vec<RawOp>> {
    // Small key universe so removes and overwrites hit existing keys.
    proptest::collection::vec((0u8..10, 0u64..48, 0u64..48, any::<u32>()), 0..300)
}

fn config(checkpoint_bytes: u64) -> DurableConfig {
    DurableConfig {
        checkpoint_bytes,
        sync_writes: true,
        retry: None,
    }
}

fn open(vfs: &MemVfs, checkpoint_bytes: u64) -> Durable<u32, 2> {
    Durable::open_with(
        Arc::new(vfs.clone()),
        Path::new("/db"),
        config(checkpoint_bytes),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The durable store, a plain tree and a BTreeMap stay in lockstep
    /// over any op sequence, with periodic reopens (full recovery) and
    /// auto-checkpoints in between.
    #[test]
    fn durable_matches_memory_with_reopens(
        ops in op_strategy(),
        reopen_every in 1usize..60,
        checkpoint_bytes in 256u64..8192,
    ) {
        let vfs = MemVfs::new();
        let mut d = open(&vfs, checkpoint_bytes);
        let mut plain: PhTree<u32, 2> = PhTree::new();
        let mut model: BTreeMap<[u64; 2], u32> = BTreeMap::new();
        for (i, &(tag, x, y, v)) in ops.iter().enumerate() {
            let key = [x, y];
            if tag == 0 {
                let got = d.remove(&key).unwrap();
                prop_assert_eq!(got, plain.remove(&key));
                model.remove(&key);
            } else {
                let got = d.insert(key, v).unwrap();
                prop_assert_eq!(got, plain.insert(key, v));
                model.insert(key, v);
            }
            if (i + 1) % reopen_every == 0 {
                drop(d);
                d = open(&vfs, checkpoint_bytes);
            }
        }
        drop(d);
        let d = open(&vfs, checkpoint_bytes);
        d.tree().check_invariants();
        // The PH-tree is canonical: recovery (snapshot load + op
        // replay) reproduces the *identical* structure, not just the
        // same content.
        prop_assert_eq!(d.tree(), &plain);
        prop_assert_eq!(d.len(), model.len());
        for (&k, &v) in &model {
            prop_assert_eq!(d.get(&k), Some(&v));
        }
    }

    /// Cut the WAL write stream at a random byte and recover: the
    /// result is exactly some prefix of the applied ops, including
    /// every acknowledged one.
    #[test]
    fn random_crash_recovers_a_prefix(
        ops in op_strategy(),
        budget_seed in any::<u64>(),
        checkpoint_bytes in 512u64..4096,
    ) {
        // States after every prefix, for matching post-recovery.
        let mut states = vec![BTreeMap::new()];
        {
            let mut model: BTreeMap<[u64; 2], u32> = BTreeMap::new();
            for &(tag, x, y, v) in &ops {
                if tag == 0 {
                    model.remove(&[x, y]);
                } else {
                    model.insert([x, y], v);
                }
                states.push(model.clone());
            }
        }

        // Probe run to size the WAL stream, then place the cut.
        let probe_vfs = MemVfs::new();
        let probe = FaultVfs::new(Arc::new(probe_vfs.clone()), FaultConfig {
            target: Some("wal".into()),
            ..Default::default()
        });
        {
            let mut d: Durable<u32, 2> = Durable::open_with(
                Arc::new(probe.clone()),
                Path::new("/db"),
                config(checkpoint_bytes),
            ).unwrap();
            for &(tag, x, y, v) in &ops {
                if tag == 0 { d.remove(&[x, y]).unwrap(); } else { d.insert([x, y], v).unwrap(); }
            }
        }
        let total = probe.bytes_written();
        let budget = budget_seed % (total + 1);

        let mem = MemVfs::new();
        let faulty = FaultVfs::new(Arc::new(mem.clone()), FaultConfig {
            target: Some("wal".into()),
            write_budget: Some(budget),
            ..Default::default()
        });
        let mut acked = 0usize;
        if let Ok(mut d) = Durable::<u32, 2>::open_with(
            Arc::new(faulty),
            Path::new("/db"),
            config(checkpoint_bytes),
        ) {
            for &(tag, x, y, v) in &ops {
                let r = if tag == 0 { d.remove(&[x, y]) } else { d.insert([x, y], v) };
                if r.is_err() { break; }
                acked += 1;
            }
        }

        let d = Durable::<u32, 2>::open_with(
            Arc::new(mem),
            Path::new("/db"),
            config(checkpoint_bytes),
        ).unwrap();
        d.tree().check_invariants();
        let matched = (acked..=ops.len()).any(|n| {
            let s = &states[n];
            d.len() == s.len() && d.iter().all(|(k, &v)| s.get(&k) == Some(&v))
        });
        prop_assert!(matched, "recovered state is not a prefix ≥ acked={} (budget {budget})", acked);
    }
}

/// The bytes on disk are a function of the op stream alone: the
/// PHSTORE1 snapshot writes each node's logical form and the WAL
/// frames never see a node, so however nodes are laid out in memory
/// these two hashes (recorded before nodes became single heap blocks)
/// stand.
#[test]
fn snapshot_and_wal_bytes_are_golden() {
    let vfs = MemVfs::new();
    let mut d = open(&vfs, u64::MAX);
    let mut x = 11u64;
    let mut step = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    for i in 0..3000u32 {
        let key = [step() % 512, step() % 512];
        if i % 4 == 3 {
            d.remove(&key).unwrap();
        } else {
            d.insert(key, i).unwrap();
        }
        if i == 2000 {
            d.checkpoint().unwrap();
        }
    }
    drop(d);
    let hash = |file: &str| phstore::fnv1a(&vfs.read_file(&Path::new("/db").join(file)).unwrap());
    assert_eq!(
        hash("snapshot.pht"),
        17665626112098622357,
        "PHSTORE1 bytes changed"
    );
    assert_eq!(hash("wal.log"), 9192631073042061449, "WAL bytes changed");
}
