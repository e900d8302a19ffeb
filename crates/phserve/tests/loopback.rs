//! Loopback integration: real TCP, concurrent clients, abrupt
//! disconnects, the shed path, and model equivalence — the served
//! tree's final contents must equal a single-threaded replay of
//! exactly the acked ops.

use phmetrics::Registry;
use phserve::load::{run_scenario, LoadConfig, Scenario};
use phserve::server::{spawn, ServerConfig};
use phserve::{Client, ErrorCode, Request, Response};
use phshard::{DurableSharded, ShardedTree};
use phstore::vfs::StdVfs;
use phstore::DurableConfig;
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const K: usize = 3;

fn mem_server(cfg: ServerConfig) -> phserve::ServerHandle {
    let registry = Registry::new();
    let backend: Arc<ShardedTree<u64, K>> = Arc::new(ShardedTree::with_metrics(8, &registry));
    spawn(backend, "127.0.0.1:0", None, registry, cfg).expect("spawn server")
}

/// N concurrent clients drive mixed ops; every connection's acked-op
/// model must match the server exactly, and the server's total entry
/// count must equal the sum of the disjoint per-connection models.
#[test]
fn concurrent_mixed_ops_match_acked_model() {
    let server = mem_server(ServerConfig::default());
    let cfg = LoadConfig {
        conns: 4,
        ops_per_conn: 800,
        pipeline: 32,
        seed: 7,
    };
    let mut model_total = 0u64;
    for sc in [
        Scenario::PointHeavy,
        Scenario::WindowHeavy,
        Scenario::IngestBurst,
        Scenario::ReadUnderWrite95,
        Scenario::ReadUnderWrite50,
    ] {
        let report = run_scenario(server.addr(), sc, &cfg).expect("scenario");
        assert_eq!(
            report.errors, 0,
            "{}: unexpected error replies",
            report.scenario
        );
        assert_eq!(
            report.verify_failures, 0,
            "{}: server disagrees with the acked-op model",
            report.scenario
        );
        assert!(report.verified_keys > 0);
        model_total += report.model_entries;
    }
    let mut c: Client<K> = Client::connect(server.addr()).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(
        stats.entries, model_total,
        "server entry count must equal the union of acked client models"
    );
    server.stop();
}

/// Plain HTTP GET against the sidecar; returns the raw response
/// (status line + headers + body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::Read;
    let mut s = TcpStream::connect(addr).expect("connect sidecar");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    buf
}

/// `/healthz` and `/livez` answer liveness with no backend dependency;
/// `/readyz` reports backend kind, writability, shard topology and
/// rebalancer state as JSON; the `/debug` endpoints answer `[]` when
/// no flight recorder is installed.
#[test]
fn liveness_and_readiness_split() {
    let registry = Registry::new();
    let backend: Arc<ShardedTree<u64, K>> = Arc::new(ShardedTree::with_metrics(8, &registry));
    let server = spawn(
        backend,
        "127.0.0.1:0",
        Some("127.0.0.1:0"),
        registry,
        ServerConfig::default(),
    )
    .expect("spawn server");
    let maddr = server.metrics_addr().expect("sidecar running");

    for live_path in ["/healthz", "/livez"] {
        let resp = http_get(maddr, live_path);
        assert!(resp.starts_with("HTTP/1.1 200"), "{live_path}: {resp}");
        assert!(resp.ends_with("ok\n"), "{live_path}: {resp}");
    }

    let resp = http_get(maddr, "/readyz");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("Content-Type: application/json"), "{resp}");
    let body = resp.split_once("\r\n\r\n").expect("headers end").1;
    for needle in [
        "\"ready\":true",
        "\"kind\":\"in-memory\"",
        "\"writable\":true",
        "\"shards\":8",
        "\"rebalancer\"",
        "\"routing_epoch\":",
        "\"migration_inflight\":",
    ] {
        assert!(body.contains(needle), "readyz missing {needle}: {body}");
    }

    for dbg in ["/debug/slow", "/debug/trace?n=8", "/debug/dumps"] {
        let resp = http_get(maddr, dbg);
        assert!(resp.starts_with("HTTP/1.1 200"), "{dbg}: {resp}");
        let body = resp.split_once("\r\n\r\n").expect("headers end").1;
        assert_eq!(body.trim(), "[]", "{dbg} should be empty, got {body}");
    }
    server.stop();
}

/// Abrupt disconnects — clients dropping mid-pipeline with replies
/// unread, and one peer writing garbage — must not take the server
/// down or poison other connections.
#[test]
fn abrupt_disconnects_leave_server_healthy() {
    let server = mem_server(ServerConfig::default());

    // 8 clients send pipelined work and vanish without reading replies.
    for round in 0..8u64 {
        let mut c: Client<K> = Client::connect(server.addr()).unwrap();
        for i in 0..64u64 {
            c.send(&Request::Insert {
                key: [round, i, i],
                value: i,
            })
            .unwrap();
        }
        c.flush().unwrap();
        drop(c); // socket closes with 64 replies in flight
    }

    // One peer speaks garbage and dies.
    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&[0xDE; 64]).unwrap();
        drop(s);
    }

    // The server must still answer a fresh, well-behaved client.
    let mut c: Client<K> = Client::connect(server.addr()).unwrap();
    c.ping().expect("server should survive abrupt disconnects");
    assert!(matches!(c.insert([99, 99, 99], 1).unwrap(), Response::Ack));
    assert_eq!(c.get([99, 99, 99]).unwrap(), Some(1));

    let snap = server.registry().snapshot();
    assert!(
        snap.counter("phserve_protocol_errors_total").unwrap_or(0) >= 1,
        "the garbage frame must be counted as a protocol error"
    );
    server.stop();
}

/// A malformed frame closes exactly its own connection; a concurrent
/// well-formed connection keeps working.
#[test]
fn malformed_frame_closes_only_its_connection() {
    let server = mem_server(ServerConfig::default());
    let mut good: Client<K> = Client::connect(server.addr()).unwrap();
    good.ping().unwrap();

    // Evil connection: valid length prefix, corrupt checksum.
    let mut evil = TcpStream::connect(server.addr()).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&9u32.to_le_bytes());
    frame.extend_from_slice(&0xBAD_C0DEu64.to_le_bytes());
    frame.extend_from_slice(&[0u8; 9]);
    evil.write_all(&frame).unwrap();
    // The server replies with a typed error then closes; reading drains
    // to EOF rather than hanging.
    evil.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut drained = Vec::new();
    let _ = std::io::Read::read_to_end(&mut evil, &mut drained);

    // The good connection is unaffected.
    good.ping().expect("well-formed connection must survive");
    assert!(matches!(good.insert([1, 2, 3], 4).unwrap(), Response::Ack));
    server.stop();
}

/// Overload: a tiny queue with a slow backend sheds with typed
/// `Overloaded` replies, the queue depth stays bounded, and the final
/// contents equal the acked-op model — nothing shed was applied,
/// nothing acked was lost.
#[test]
fn shed_path_is_typed_bounded_and_consistent() {
    let queue_cap = 16;
    let server = mem_server(ServerConfig {
        queue_cap,
        batch_max: 4,
        workers: 1,
        shed_wait: Duration::from_micros(200),
        op_delay: Some(Duration::from_millis(1)),
    });
    let mut c: Client<K> = Client::connect(server.addr()).unwrap();

    // Blast 600 pipelined inserts with unique keys.
    let ids: Vec<(u64, [u64; K], u64)> = (0..600u64)
        .map(|i| {
            let key = [i, i.rotate_left(7), 3];
            let id = c.send(&Request::Insert { key, value: i }).unwrap();
            (id, key, i)
        })
        .collect();
    let mut model: HashMap<[u64; K], u64> = HashMap::new();
    let mut shed = 0u64;
    for (id, key, value) in ids {
        match c.recv(id).unwrap() {
            Response::Ack => {
                model.insert(key, value);
            }
            Response::Error {
                code: ErrorCode::Overloaded,
                detail,
            } => {
                assert!(!detail.is_empty());
                shed += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(shed > 0, "the tiny queue must shed under a 600-deep blast");
    assert!(!model.is_empty(), "some inserts must still get through");

    // Bounded queue: the depth gauge's high-water mark respects the cap.
    let snap = server.registry().snapshot();
    let peak = snap
        .gauges
        .iter()
        .find(|g| g.name == "phserve_queue_depth")
        .map(|g| g.high_water)
        .expect("queue depth gauge");
    assert!(
        peak as usize <= queue_cap,
        "queue depth peaked at {peak}, above the {queue_cap} bound"
    );
    assert_eq!(
        snap.counter("phserve_shed_total"),
        Some(shed),
        "server-side shed count must match the typed replies we received"
    );

    // Model equivalence under shedding (retry gets that are themselves
    // shed — the reply is typed and the op is safe to retry).
    for i in 0..600u64 {
        let key = [i, i.rotate_left(7), 3];
        let got = loop {
            match c.call(&Request::Get { key }).unwrap() {
                Response::Value(v) => break v,
                Response::Error {
                    code: ErrorCode::Overloaded,
                    ..
                } => std::thread::sleep(Duration::from_millis(2)),
                other => panic!("unexpected reply {other:?}"),
            }
        };
        assert_eq!(
            got,
            model.get(&key).copied(),
            "key {key:?}: shed ops must not be applied, acked ops must not be lost"
        );
    }
    server.stop();
}

/// The durable backend serves over TCP and its acked writes survive a
/// server stop and store reopen (WAL replay).
#[test]
fn durable_backend_acked_writes_survive_restart() {
    let dir = std::env::temp_dir().join(format!("phserve-loopback-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let registry = Registry::new();
    let backend = Arc::new(
        DurableSharded::<u64, K>::open_with(Arc::new(StdVfs), &dir, 4, DurableConfig::default())
            .unwrap(),
    );
    let server = spawn(
        backend,
        "127.0.0.1:0",
        None,
        registry,
        ServerConfig::default(),
    )
    .unwrap();

    let mut c: Client<K> = Client::connect(server.addr()).unwrap();
    assert!(matches!(c.insert([1, 2, 3], 10).unwrap(), Response::Ack));
    let items: Vec<([u64; K], u64)> = (0..200u64).map(|i| ([i, i, 9], i)).collect();
    assert!(matches!(
        c.bulk_load(items).unwrap(),
        Response::Loaded { new: 200 }
    ));
    assert!(matches!(
        c.remove([1, 2, 3]).unwrap(),
        Response::Value(Some(10))
    ));
    let wire_knn = c.knn([5, 5, 9], 3).unwrap();
    assert_eq!(wire_knn.len(), 3);
    assert_eq!(
        wire_knn[0].0,
        [5, 5, 9],
        "knn over the wire finds the exact point"
    );
    drop(c);
    server.stop();

    // Reopen the store directly: acked state must have been journaled.
    let reopened =
        DurableSharded::<u64, K>::open_with(Arc::new(StdVfs), &dir, 4, DurableConfig::default())
            .unwrap();
    assert_eq!(reopened.stats().entries, 200);
    assert_eq!(reopened.get_with(&[1, 2, 3], |v| *v), None);
    assert_eq!(reopened.get_with(&[7, 7, 9], |v| *v), Some(7));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pipelines `[insert k v, get k, window ∋ k, remove k, get k,
/// window ∋ k]` groups with 64 requests in flight and checks every
/// reply, in arrival order: a connection's replies come back in
/// request order, and each read sees exactly the writes sent before it
/// on its connection — it may neither overtake a write still in the
/// admission queue nor be answered from a view pinned before that
/// write was acknowledged.
fn pipelined_reads_follow_own_writes(server: &phserve::ServerHandle) {
    use phserve::proto::{decode_response, encode_request, read_frame, write_frame};
    let mut groups: Vec<(Request<K>, Response<K>)> = Vec::new();
    for i in 1..=200u64 {
        let (key, value) = ([i * 10, i * 10, 7], i);
        let get = Request::Get { key };
        let window = Request::Query {
            min: [i * 10 - 1, i * 10 - 1, 0],
            max: [i * 10 + 1, i * 10 + 1, 9],
        };
        groups.extend([
            (Request::Insert { key, value }, Response::Ack),
            (get.clone(), Response::Value(Some(value))),
            (window.clone(), Response::Entries(vec![(key, value)])),
            (Request::Remove { key }, Response::Value(Some(value))),
            (get, Response::Value(None)),
            (window, Response::Entries(vec![])),
        ]);
    }
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut sent = 0;
    for (answered, (req, want)) in groups.iter().enumerate() {
        while sent < groups.len() && sent < answered + 64 {
            write_frame(&mut sock, &encode_request(sent as u64, &groups[sent].0)).unwrap();
            sent += 1;
        }
        let body = read_frame(&mut sock).unwrap().expect("a reply frame");
        let (id, got) = decode_response::<K>(&body).unwrap();
        assert_eq!(id, answered as u64, "replies must come in request order");
        assert_eq!(&got, want, "request {answered}: {req:?}");
    }
}

#[test]
fn pipelined_reads_follow_own_writes_in_memory() {
    let server = mem_server(ServerConfig::default());
    pipelined_reads_follow_own_writes(&server);
    server.stop();
}

#[test]
fn pipelined_reads_follow_own_writes_durable() {
    let backend = Arc::new(
        DurableSharded::<u64, K>::open_with(
            Arc::new(phstore::vfs::MemVfs::new()),
            std::path::Path::new("/db"),
            8,
            DurableConfig::default(),
        )
        .unwrap(),
    );
    let cfg = ServerConfig::default();
    let server = spawn(backend, "127.0.0.1:0", None, Registry::new(), cfg).unwrap();
    pipelined_reads_follow_own_writes(&server);
    server.stop();
}

/// A peer that floods gets and never reads a reply is closed once a
/// reply write has blocked for the write timeout; meanwhile a second
/// connection's inserts keep being acknowledged.
#[test]
fn peer_that_never_reads_is_closed_by_the_write_timeout() {
    use phserve::proto::{encode_request, frame};
    use phserve::server::WRITE_TIMEOUT;
    let server = mem_server(ServerConfig::default());
    let mut flood = TcpStream::connect(server.addr()).unwrap();
    flood
        .set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let started = std::time::Instant::now();
    let flooder = std::thread::spawn(move || {
        // 10 k gets to a write; replies pile up unread until the
        // server's send buffer and ours are full, its reply write
        // blocks, times out, and it closes — failing our write.
        let burst: Vec<u8> = (0..10_000u64)
            .flat_map(|i| frame(&encode_request(i, &Request::<K>::Get { key: [i, i, i] })))
            .collect();
        while flood.write_all(&burst).is_ok() {}
        started.elapsed()
    });
    let mut c: Client<K> = Client::connect(server.addr()).unwrap();
    let mut acked = 0u64;
    while !flooder.is_finished() {
        assert!(
            started.elapsed() < Duration::from_secs(25),
            "the flooding connection was never closed"
        );
        assert!(matches!(
            c.insert([acked, 1, 2], acked).unwrap(),
            Response::Ack
        ));
        acked += 1;
    }
    let closed_after = flooder.join().unwrap();
    assert!(
        closed_after >= WRITE_TIMEOUT / 2,
        "closed after {closed_after:?}: not by the write timeout"
    );
    assert!(acked > 0, "the second connection starved");
    assert_eq!(c.get([0, 1, 2]).unwrap(), Some(0));
    server.stop();
}
