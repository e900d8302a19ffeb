//! Serving the PH-tree over TCP: every protocol op, end to end.
//!
//! Spawns a real `phserve` server on an ephemeral loopback port (the
//! same code path the `phserve` binary runs — accept loop, bounded
//! admission queue, batching workers, Prometheus sidecar) and drives
//! it with the pipelining client:
//!
//! * insert / get / remove — point ops,
//! * bulk_load — batch ingest through the bulk-admission seam,
//! * query — window queries with Z-order shard pruning,
//! * knn — k nearest neighbours with the k-way merge,
//! * stats / ping — introspection and liveness,
//! * pipelining — a run of inserts sent without waiting, which the
//!   server coalesces into write runs (one backend call each),
//! * the shed path — a tiny admission queue refusing work with a typed
//!   `Overloaded` reply instead of stalling or dying.
//!
//! Run: `cargo run --release -p ph-bench --example phserve_client`

use phmetrics::Registry;
use phserve::{spawn, Client, ErrorCode, Request, Response, ServerConfig};
use phshard::ShardedTree;
use std::sync::Arc;
use std::time::Duration;

const K: usize = 3;

fn main() {
    // A server exactly like the `phserve` binary's: in-memory sharded
    // backend, metrics registry, Prometheus sidecar.
    let registry = Registry::new();
    let backend: Arc<ShardedTree<u64, K>> = Arc::new(ShardedTree::with_metrics(8, &registry));
    let server = spawn(
        Arc::clone(&backend),
        "127.0.0.1:0",
        Some("127.0.0.1:0"),
        registry,
        ServerConfig::default(),
    )
    .expect("spawn server");
    println!(
        "server on {}, metrics on {:?}",
        server.addr(),
        server.metrics_addr()
    );

    let mut c: Client<K> = Client::connect(server.addr()).expect("connect");

    // --- Point ops ----------------------------------------------------
    c.ping().expect("ping");
    assert!(matches!(
        c.insert([101, 102, 103], 100).unwrap(),
        Response::Ack
    ));
    assert!(matches!(
        c.insert([104, 105, 106], 200).unwrap(),
        Response::Ack
    ));
    assert_eq!(c.get([101, 102, 103]).unwrap(), Some(100));
    assert_eq!(c.get([999, 999, 999]).unwrap(), None);
    println!("point ops: insert/get round-trip ok");

    // --- Batch ingest -------------------------------------------------
    let grid: Vec<([u64; K], u64)> = (0..1000u64)
        .map(|i| ([i % 10, (i / 10) % 10, i / 100], i))
        .collect();
    match c.bulk_load(grid).unwrap() {
        Response::Loaded { new } => println!("bulk_load: {new} new keys"),
        other => panic!("unexpected bulk_load reply {other:?}"),
    }

    // --- Window query and kNN ----------------------------------------
    let hits = c.query([2, 2, 2], [4, 4, 4]).unwrap();
    println!("query [2,2,2]..[4,4,4]: {} hits", hits.len());
    assert!(!hits.is_empty());
    let near = c.knn([5, 5, 5], 3).unwrap();
    assert_eq!(near.len(), 3);
    println!(
        "knn around [5,5,5]: nearest {:?} at distance {:.2}",
        near[0].0, near[0].2
    );

    // --- Remove -------------------------------------------------------
    match c.remove([101, 102, 103]).unwrap() {
        Response::Value(Some(100)) => println!("remove: returned the stored value"),
        other => panic!("unexpected remove reply {other:?}"),
    }
    assert_eq!(c.get([101, 102, 103]).unwrap(), None);

    // --- Stats --------------------------------------------------------
    let stats = c.stats().unwrap();
    println!(
        "stats: {} entries over {} shards (epoch {}, skew {:.2})",
        stats.entries, stats.shards, stats.epoch, stats.skew
    );

    // --- Pipelining ---------------------------------------------------
    // Send 256 inserts without waiting for any reply; the server pops
    // them in batches and applies each run with one backend call.
    let ids: Vec<u64> = (0..256u64)
        .map(|i| {
            c.send(&Request::Insert {
                key: [1000 + i, i, i],
                value: i,
            })
            .expect("send")
        })
        .collect();
    for id in ids {
        assert!(matches!(c.recv(id).expect("recv"), Response::Ack));
    }
    let coalesced = server
        .registry()
        .snapshot()
        .counters
        .iter()
        .find(|c| c.name == "phserve_coalesced_inserts_total")
        .map(|c| c.value)
        .unwrap_or(0);
    println!("pipelining: 256 inserts acked, {coalesced} rode coalesced write runs");
    server.stop();

    // --- The shed path ------------------------------------------------
    // A deliberately tiny queue with a slow backend: past high water
    // the server answers `Overloaded` — typed, bounded, retryable —
    // rather than queueing without limit.
    let registry = Registry::new();
    let backend: Arc<ShardedTree<u64, K>> = Arc::new(ShardedTree::with_metrics(4, &registry));
    let server = spawn(
        backend,
        "127.0.0.1:0",
        None,
        registry,
        ServerConfig {
            queue_cap: 8,
            batch_max: 4,
            workers: 1,
            shed_wait: Duration::from_micros(100),
            op_delay: Some(Duration::from_millis(2)),
        },
    )
    .expect("spawn small server");
    let mut c: Client<K> = Client::connect(server.addr()).expect("connect");
    let ids: Vec<u64> = (0..512u64)
        .map(|i| {
            c.send(&Request::Insert {
                key: [i, i, i],
                value: i,
            })
            .unwrap()
        })
        .collect();
    let mut acked = 0u32;
    let mut shed = 0u32;
    for id in ids {
        match c.recv(id).unwrap() {
            Response::Ack => acked += 1,
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            } => shed += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    println!("overload: {acked} acked, {shed} shed with typed Overloaded replies");
    assert!(shed > 0, "the tiny queue should have shed");
    server.stop();
}
