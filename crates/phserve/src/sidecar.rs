//! The HTTP sidecar beside the protocol port: Prometheus scrape,
//! liveness and readiness probes, and the tracing debug endpoints. It
//! knows nothing of connections or queues — the server hands it a
//! registry and a closure that renders readiness.

use crate::backend::Backend;
use phmetrics::Registry;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// The `/readyz` payload: what this process is actually serving —
/// backend kind and writability, the current shard topology, the
/// admission queue's depth, and the rebalancer / in-flight-migration
/// state read back from the registry (those series exist only when
/// the backend records them, i.e. with `phshard/metrics`; absent
/// series render `null`).
pub(crate) fn readiness_json<const K: usize>(
    ready: bool,
    backend: &impl Backend<K>,
    queue_depth: usize,
    registry: &Registry,
) -> String {
    let stats = backend.stats();
    let snap = registry.snapshot();
    let opt = |v: Option<i64>| match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    };
    let skew = stats.skew();
    let skew = if skew.is_finite() { skew } else { 0.0 };
    format!(
        concat!(
            "{{\"ready\":{},\"backend\":{{\"kind\":\"{}\",\"writable\":{}}},",
            "\"shards\":{},\"entries\":{},\"epoch\":{},\"skew\":{:.4},",
            "\"queue_depth\":{},",
            "\"rebalancer\":{{\"routing_epoch\":{},\"splits_total\":{},",
            "\"migration_inflight\":{}}}}}",
        ),
        ready,
        backend.kind(),
        backend.writable(),
        stats.shards,
        stats.entries,
        stats.epoch,
        skew,
        queue_depth,
        opt(snap.gauge("phshard_routing_epoch").map(|g| g.value)),
        opt(snap
            .counter("phshard_rebalance_splits_total")
            .map(|c| c as i64)),
        opt(snap.gauge("phshard_migration_inflight").map(|g| g.value)),
    )
}

/// Answers the sidecar's requests one at a time until `stopped()`
/// (checked per accepted connection: the server wakes the listener
/// with a connection of its own when it stops).
pub(crate) fn serve(
    listener: &TcpListener,
    registry: &Registry,
    stopped: impl Fn() -> bool,
    readiness: impl Fn() -> String,
) {
    for stream in listener.incoming() {
        if stopped() {
            break;
        }
        if let Ok(mut s) = stream {
            answer_once(&mut s, registry, &readiness);
        }
    }
}

/// Answers exactly one HTTP request on `s`. Routes:
///
/// * `GET /metrics` — Prometheus text exposition.
/// * `GET /healthz`, `GET /livez` — liveness: `ok` whenever the
///   process is up and the sidecar thread is serving (no dependency
///   on the backend — a wedged backend must not make the orchestrator
///   restart-loop the process).
/// * `GET /readyz` — readiness as JSON: backend kind/writability,
///   shard topology, rebalancer + in-flight migration state.
/// * `GET /debug/slow` — the slow-query log (JSON; `[]` untraced).
/// * `GET /debug/trace?n=N` — the N most recent flight-recorder
///   records (default 256).
/// * `GET /debug/dumps` — retained trigger-dump snapshots.
///
/// Anything else 404. Connection: close — scrapers reconnect per
/// scrape.
fn answer_once(s: &mut TcpStream, registry: &Registry, readiness: impl FnOnce() -> String) {
    let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 4096];
    let mut filled = 0usize;
    while filled < buf.len() {
        match s.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if buf[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..filled]);
    let path = head
        .lines()
        .next()
        .and_then(|line| {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("GET"), Some(p)) => Some(p.to_string()),
                _ => None,
            }
        })
        .unwrap_or_default();
    const TEXT: &str = "text/plain; version=0.0.4";
    const JSON: &str = "application/json";
    let (status, ctype, body) = match path.as_str() {
        "/metrics" => ("200 OK", TEXT, registry.render_prometheus()),
        "/healthz" | "/livez" => ("200 OK", TEXT, "ok\n".to_string()),
        "/readyz" => ("200 OK", JSON, readiness()),
        "/debug/slow" => ("200 OK", JSON, phtrace::slow_json()),
        "/debug/dumps" => ("200 OK", JSON, phtrace::dumps_json()),
        p if p.starts_with("/debug/trace") => {
            let n = p
                .split_once("?n=")
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(256);
            ("200 OK", JSON, phtrace::trace_json(n))
        }
        _ => ("404 Not Found", TEXT, "not found\n".to_string()),
    };
    let resp = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = s.write_all(resp.as_bytes());
    let _ = s.flush();
}
