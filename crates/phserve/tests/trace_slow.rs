//! Loopback slow-query integration (cargo feature `trace`): a
//! deliberately slow query against a real TCP server must land in the
//! slow-query log — and in `GET /debug/slow` on the sidecar — with the
//! client's request id, non-zero queue/fan-out/descent phases, and a
//! per-phase breakdown that covers its wall time to within 10%.
//!
//! One test function: the phtrace recorder is a process-global
//! `OnceLock`, so this binary installs exactly one configuration.

#![cfg(feature = "trace")]

use phmetrics::Registry;
use phserve::server::{spawn, ServerConfig};
use phserve::{Client, Request, Response};
use phshard::ShardedTree;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const K: usize = 3;

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
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

#[test]
fn slow_query_breakdown_reaches_debug_slow() {
    // Sample everything, call anything over 5ms slow; the server's
    // 25ms artificial op delay guarantees every request qualifies.
    assert!(
        phserve::trace::init(phserve::trace::TraceConfig {
            sample_every: 1,
            slow_threshold: phserve::trace::SlowThreshold::FixedNs(5_000_000),
            ..Default::default()
        }),
        "test binary must be built with --features trace"
    );
    assert!(!phtrace::slow_threshold_is_auto());
    assert_eq!(phtrace::slow_threshold_ns(), 5_000_000);

    let registry = Registry::new();
    let backend: Arc<ShardedTree<u64, K>> = Arc::new(ShardedTree::with_metrics(8, &registry));
    let cfg = ServerConfig {
        op_delay: Some(Duration::from_millis(25)),
        ..ServerConfig::default()
    };
    let server =
        spawn(backend, "127.0.0.1:0", Some("127.0.0.1:0"), registry, cfg).expect("spawn server");
    let mut client: Client<K> = Client::connect(server.addr()).expect("connect");

    // Request ids 1..=64: seed data (synchronous, one per batch).
    for i in 0..64u64 {
        match client
            .call(&Request::Insert {
                key: [i; K],
                value: i,
            })
            .expect("insert")
        {
            Response::Ack => {}
            other => panic!("insert answered {other:?}"),
        }
    }
    // Request id 65: the deliberately slow full-window query.
    let query_req_id = 65u64;
    match client
        .call(&Request::Query {
            min: [0; K],
            max: [u64::MAX; K],
        })
        .expect("query")
    {
        Response::Entries(es) => assert_eq!(es.len(), 64),
        other => panic!("query answered {other:?}"),
    }

    let slow = phtrace::recent_slow();
    assert!(!slow.is_empty(), "nothing reached the slow log");
    let q = slow
        .iter()
        .rev()
        .find(|s| s.req_id == query_req_id && matches!(s.op, phtrace::TraceOp::Query))
        .expect("slow entry carrying the query's req_id");

    let queue = q.phase_ns[phtrace::Phase::Queue as usize];
    let fanout = q.phase_ns[phtrace::Phase::FanOut as usize];
    let descent = q.phase_ns[phtrace::Phase::Descent as usize];
    assert!(
        queue >= 20_000_000,
        "queue phase must absorb the 25ms op delay, got {queue}ns"
    );
    assert!(fanout > 0, "fan-out phase missing from the breakdown");
    assert!(descent > 0, "descent phase missing from the breakdown");
    assert!(q.counters.fanout > 0, "fan-out width not recorded");
    assert!(q.spans >= 3, "breakdown too thin: {} spans", q.spans);

    let wall = q.wall_ns as f64;
    let covered = q.covered_ns as f64;
    assert!(
        covered >= wall * 0.9 && covered <= wall * 1.1,
        "phases cover {covered:.0}ns of {wall:.0}ns wall (want within 10%)"
    );

    // The same entry must come back over the sidecar, as JSON.
    let maddr = server.metrics_addr().expect("sidecar running");
    let resp = http_get(maddr, "/debug/slow");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("Content-Type: application/json"), "{resp}");
    let body = resp.split_once("\r\n\r\n").expect("headers end").1;
    assert!(
        body.contains(&format!("\"req_id\":{query_req_id}")),
        "/debug/slow is missing the query: {body}"
    );
    assert!(body.contains("\"phases\":{\"queue\":"), "{body}");

    // The flight recorder itself is browsable too.
    let resp = http_get(maddr, "/debug/trace?n=16");
    let body = resp.split_once("\r\n\r\n").expect("headers end").1;
    assert!(body.contains("\"phase\""), "/debug/trace empty: {body}");

    let st = phtrace::stats();
    assert!(st.installed);
    assert!(st.sampled_requests >= 65);
    assert!(st.slow_queries >= 1);

    server.stop();
}
