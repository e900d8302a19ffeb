//! The serving tier's observability contract: every phserve gauge and
//! counter — including the shed/queue-depth/connection series the
//! backpressure design depends on — must appear in the `/metrics`
//! Prometheus exposition, with live values, and the backend's
//! `ShardError::Overloaded` shed path must surface as its own series.

use phmetrics::Registry;
use phserve::server::{spawn, ServerConfig};
use phserve::{Client, ErrorCode, Request, Response};
use phshard::ShardedTree;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const K: usize = 3;

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    buf
}

fn metric_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok())?
    })
}

/// Every serving instrument appears on the sidecar with the values the
/// traffic implies: op counters per label, connection gauges, queue
/// depth with its peak, batch and byte counters, and the shed series.
#[test]
fn metrics_endpoint_exposes_serving_instruments() {
    let registry = Registry::new();
    let backend: Arc<ShardedTree<u64, K>> = Arc::new(ShardedTree::with_metrics(4, &registry));
    let server = spawn(
        backend,
        "127.0.0.1:0",
        Some("127.0.0.1:0"),
        registry,
        ServerConfig::default(),
    )
    .unwrap();
    let maddr = server.metrics_addr().unwrap();

    // Drive one op of every type.
    let mut c: Client<K> = Client::connect(server.addr()).unwrap();
    c.insert([1, 2, 3], 7).unwrap();
    c.get([1, 2, 3]).unwrap();
    c.remove([1, 2, 3]).unwrap();
    c.query([0, 0, 0], [9, 9, 9]).unwrap();
    c.bulk_load(vec![([4, 4, 4], 1), ([5, 5, 5], 2)]).unwrap();
    c.knn([4, 4, 4], 1).unwrap();
    c.stats().unwrap();
    c.ping().unwrap();

    let resp = http_get(maddr, "/metrics");
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "got: {resp}");
    let body = resp.split_once("\r\n\r\n").unwrap().1;

    // Per-op request counters, labelled.
    for op in [
        "insert",
        "get",
        "remove",
        "query",
        "knn",
        "bulk_load",
        "stats",
        "ping",
    ] {
        let name = format!("phserve_requests_total{{op=\"{op}\"}}");
        let v = metric_value(body, &name).unwrap_or_else(|| panic!("missing {name}"));
        assert!(v >= 1.0, "{name} should have counted, got {v}");
        assert!(
            body.contains(&format!(
                "phserve_request_latency_ns_bucket{{op=\"{op}\",le="
            )),
            "missing latency histogram for {op}"
        );
    }

    // Connection and queue gauges (with peaks), plus the shed series
    // the backpressure contract is built on.
    for name in [
        "phserve_connections",
        "phserve_connections_peak",
        "phserve_connections_total",
        "phserve_queue_depth",
        "phserve_queue_depth_peak",
        "phserve_shed_total",
        "phserve_backend_overloaded_total",
        "phserve_batches_total",
        "phserve_coalesced_inserts_total",
        "phserve_protocol_errors_total",
        "phserve_bytes_read_total",
        "phserve_bytes_written_total",
    ] {
        assert!(
            metric_value(body, name).is_some(),
            "missing {name} in /metrics"
        );
    }
    assert!(metric_value(body, "phserve_connections_total").unwrap() >= 1.0);
    assert!(metric_value(body, "phserve_bytes_read_total").unwrap() > 0.0);
    assert!(metric_value(body, "phserve_batches_total").unwrap() >= 1.0);

    // The backend's own instruments share the registry and the page.
    assert!(
        body.contains("phshard_root_swaps_total"),
        "the shard engine's instruments should ride the same sidecar"
    );

    // /healthz answers; unknown paths 404.
    assert!(http_get(maddr, "/healthz").starts_with("HTTP/1.1 200"));
    assert!(http_get(maddr, "/nope").starts_with("HTTP/1.1 404"));
    server.stop();
}

/// Admission shedding shows up as non-zero `phserve_shed_total` and a
/// bounded `phserve_queue_depth_peak` on the scrape — the evidence the
/// overload scenario's claims rest on.
#[test]
fn shed_counters_reach_the_scrape() {
    let registry = Registry::new();
    let backend: Arc<ShardedTree<u64, K>> = Arc::new(ShardedTree::with_metrics(4, &registry));
    let queue_cap = 8;
    let server = spawn(
        backend,
        "127.0.0.1:0",
        Some("127.0.0.1:0"),
        registry,
        ServerConfig {
            queue_cap,
            batch_max: 4,
            workers: 1,
            shed_wait: Duration::from_micros(100),
            op_delay: Some(Duration::from_millis(2)),
        },
    )
    .unwrap();

    let mut c: Client<K> = Client::connect(server.addr()).unwrap();
    let ids: Vec<u64> = (0..256u64)
        .map(|i| {
            c.send(&Request::Insert {
                key: [i, i, i],
                value: i,
            })
            .unwrap()
        })
        .collect();
    let mut shed = 0u64;
    for id in ids {
        if matches!(
            c.recv(id).unwrap(),
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            }
        ) {
            shed += 1;
        }
    }
    assert!(shed > 0);

    let resp = http_get(server.metrics_addr().unwrap(), "/metrics");
    let body = resp.split_once("\r\n\r\n").unwrap().1;
    assert_eq!(
        metric_value(body, "phserve_shed_total"),
        Some(shed as f64),
        "scraped shed counter must match the typed replies received"
    );
    let peak = metric_value(body, "phserve_queue_depth_peak").unwrap();
    assert!(
        peak <= queue_cap as f64,
        "queue depth peak {peak} exceeds the {queue_cap} bound"
    );
    server.stop();
}
